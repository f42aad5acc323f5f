//! Equivalence battery for the idealized-model engine (`ci-ideal`).
//!
//! The event-driven engine must be *observably indistinguishable* from the
//! cycle-driven window walk it replaced: the same [`IdealResult`] and the
//! same probe event stream, cycle for cycle and event for event (order
//! within a cycle included).
//!
//! Fixtures in `tests/golden/ideal_equivalence.txt` were recorded against
//! the window-walk engine. Each line pins one cell:
//!
//! ```text
//! <workload> <model> w<window> width<n> cache<n> mul<n> cycles=<n> retired=<n> mispredictions=<n> wrong=<n> evictions=<n> events=<fnv64>
//! ```
//!
//! `events` hashes every `(cycle, Event)` pair in stream order. The base set
//! is the paper's six models over windows 32-512; the pathological cells add
//! tiny windows (evictions, refetched branches), narrow machines, and
//! latencies far beyond the paper's. To bless an *intended* behavioral
//! change (which must also re-bless the Figure 3 golden):
//!
//! ```text
//! UPDATE_IDEAL_EQUIVALENCE=1 cargo test --test ideal_equivalence
//! ```

use ci_obs::Event;
use control_independence::prelude::{IdealConfig, ModelKind, Probe, StudyInput};
use control_independence::prelude::{Workload, WorkloadParams};
use std::fmt::Write as _;
use std::path::PathBuf;

const SEED: u64 = 0x5EED;
const MAX_INSTS: u64 = 6_000;
const WINDOWS: [usize; 5] = [32, 64, 128, 256, 512];

/// FNV-1a over the full event stream, cycle numbers included.
struct FingerprintProbe {
    hash: u64,
    events: u64,
}

impl FingerprintProbe {
    fn new() -> FingerprintProbe {
        FingerprintProbe {
            hash: 0xcbf2_9ce4_8422_2325,
            events: 0,
        }
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl Probe for FingerprintProbe {
    fn record(&mut self, cycle: u64, event: Event) {
        self.events += 1;
        self.absorb(&cycle.to_le_bytes());
        self.absorb(format!("{event:?}").as_bytes());
    }
}

/// Every configuration the battery runs for each workload and model.
fn configs() -> Vec<IdealConfig> {
    let base = IdealConfig::default();
    let mut out: Vec<IdealConfig> = WINDOWS
        .iter()
        .map(|&window| IdealConfig { window, ..base })
        .collect();
    // Windows smaller than one restart: evictions and refetched branches.
    for window in [8, 17] {
        out.push(IdealConfig { window, ..base });
    }
    // Narrow machines.
    for width in [1, 4] {
        out.push(IdealConfig {
            width,
            window: 64,
            ..base
        });
    }
    // Wake-up distances beyond 256 cycles (the paper workloads emit no
    // divides, so loads carry the long latency).
    for window in [32, 256] {
        let mut cfg = IdealConfig {
            window,
            cache_latency: 300,
            ..base
        };
        cfg.latencies.int_mul = 40;
        out.push(cfg);
    }
    out
}

fn run_battery() -> String {
    let mut out = String::new();
    let (mut evicting, mut wrong_path) = (0, 0);
    for wl in Workload::ALL {
        let program = wl.build(&WorkloadParams {
            scale: wl.scale_for(MAX_INSTS),
            seed: SEED,
        });
        let input = StudyInput::build(&program, MAX_INSTS).expect("battery program emulates");
        for cfg in configs() {
            for model in ModelKind::ALL {
                let cfg = IdealConfig { model, ..cfg };
                let (r, probe) = ci_ideal::simulate_probed(&input, &cfg, FingerprintProbe::new());
                assert_eq!(r.retired, input.len() as u64, "{wl:?}/{model}/{cfg:?}");
                assert!(probe.events > 0, "{wl:?}/{model}/{cfg:?} emitted no events");
                evicting += usize::from(r.evictions > 0);
                wrong_path += usize::from(r.wrong_path_fetched > 0);
                writeln!(
                    out,
                    "{wl:?} {model} w{} width{} cache{} mul{} cycles={} retired={} \
                     mispredictions={} wrong={} evictions={} events={:016x}",
                    cfg.window,
                    cfg.width,
                    cfg.cache_latency,
                    cfg.latencies.int_mul,
                    r.cycles,
                    r.retired,
                    r.mispredictions,
                    r.wrong_path_fetched,
                    r.evictions,
                    probe.hash,
                )
                .unwrap();
            }
        }
    }
    assert!(evicting > 0, "no cell exercised window eviction");
    assert!(wrong_path > 0, "no cell fetched a wrong path");
    out
}

#[test]
fn ideal_results_and_event_streams_match_window_walk_fingerprints() {
    let path: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "golden",
        "ideal_equivalence.txt",
    ]
    .iter()
    .collect();
    let actual = run_battery();
    if std::env::var_os("UPDATE_IDEAL_EQUIVALENCE").is_some() {
        std::fs::write(&path, &actual).expect("write fixtures");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing {}; bless with UPDATE_IDEAL_EQUIVALENCE=1",
            path.display()
        )
    });
    for (exp, act) in expected.lines().zip(actual.lines()) {
        assert_eq!(exp, act, "equivalence cell diverged from the window walk");
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "battery cell count changed"
    );
}
