//! Property tests: for random structured programs, the pipeline must retire
//! exactly the architectural execution under *every* configuration — the
//! built-in oracle checker panics on any divergence, so each `simulate` call
//! is a full end-to-end verification.

use ci_core::{
    simulate, ArchRef, CompletionModel, Pipeline, PipelineConfig, Preemption, ReconStrategy,
    RedispatchMode, RepredictMode, SquashMode,
};
use ci_isa::Program;
use ci_obs::{MetricsProbe, NoopProfiler};
use ci_workloads::{random_program, Workload, WorkloadParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn base_and_ci_agree_with_emulator(seed in 0u64..10_000, size in 8usize..120) {
        let p = random_program(seed, size);
        let b = simulate(&p, PipelineConfig::base(64), 15_000).unwrap();
        let c = simulate(&p, PipelineConfig::ci(64), 15_000).unwrap();
        prop_assert_eq!(b.retired, c.retired);
    }

    #[test]
    fn completion_models_agree_with_emulator(seed in 0u64..10_000, model in 0usize..4) {
        let p = random_program(seed, 60);
        let completion = [
            CompletionModel::NonSpec,
            CompletionModel::SpecD,
            CompletionModel::SpecC,
            CompletionModel::Spec,
        ][model];
        let s = simulate(
            &p,
            PipelineConfig { completion, ..PipelineConfig::ci(64) },
            15_000,
        ).unwrap();
        prop_assert!(s.retired > 0);
    }

    #[test]
    fn exotic_configs_agree_with_emulator(seed in 0u64..10_000, knob in 0usize..6) {
        let p = random_program(seed, 70);
        let cfg = match knob {
            0 => PipelineConfig { segment: 16, ..PipelineConfig::ci(64) },
            1 => PipelineConfig { preemption: Preemption::Optimal, ..PipelineConfig::ci(64) },
            2 => PipelineConfig { repredict: RepredictMode::None, ..PipelineConfig::ci(64) },
            3 => PipelineConfig { repredict: RepredictMode::Oracle, ..PipelineConfig::ci(64) },
            4 => PipelineConfig {
                recon: ReconStrategy::hardware(true, true, true),
                ..PipelineConfig::ci(64)
            },
            _ => PipelineConfig { oracle_ghr: true, ..PipelineConfig::ci(64) },
        };
        let s = simulate(&p, cfg, 15_000).unwrap();
        prop_assert!(s.retired > 0);
    }

    #[test]
    fn tiny_windows_still_verify(seed in 0u64..10_000) {
        let p = random_program(seed, 50);
        // Window 17 with width 16: pathological pressure on eviction and
        // restart-overflow paths.
        let s = simulate(&p, PipelineConfig::ci(17), 10_000).unwrap();
        prop_assert!(s.retired > 0);
    }
}

/// SplitMix64: a small deterministic generator for the sibling property.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// The configuration fields the sensitivity record handles.
const HANDLED: [&str; 10] = [
    "window",
    "squash",
    "recon",
    "redispatch",
    "preemption",
    "completion",
    "hide_false_mispredictions",
    "repredict",
    "oracle_ghr",
    "conf_threshold",
];

const COMPLETIONS: [CompletionModel; 4] = [
    CompletionModel::NonSpec,
    CompletionModel::SpecD,
    CompletionModel::SpecC,
    CompletionModel::Spec,
];

fn strategy(mask: u64) -> ReconStrategy {
    ReconStrategy {
        postdominator: mask & 1 != 0,
        returns: mask & 2 != 0,
        loops: mask & 4 != 0,
        ltb: mask & 8 != 0,
    }
}

/// Give handled field `field` of `c` a value drawn from `rng` (possibly
/// its current one).
fn draw_field(c: &mut PipelineConfig, field: usize, rng: &mut Rng) {
    match field {
        0 => c.window = rng.pick(&[17, 24, 32, 48, 64, 96, 128, 256, 512]),
        1 => c.squash = rng.pick(&[SquashMode::Full, SquashMode::ControlIndependence]),
        2 => c.recon = strategy(rng.below(16)),
        3 => c.redispatch = rng.pick(&[RedispatchMode::Pipelined, RedispatchMode::Instant]),
        4 => c.preemption = rng.pick(&[Preemption::Simple, Preemption::Optimal]),
        5 => c.completion = rng.pick(&COMPLETIONS),
        6 => c.hide_false_mispredictions = rng.below(2) == 1,
        7 => {
            c.repredict = rng.pick(&[
                RepredictMode::None,
                RepredictMode::Heuristic,
                RepredictMode::Oracle,
            ]);
        }
        8 => c.oracle_ghr = rng.below(2) == 1,
        _ => c.conf_threshold = rng.pick(&[0, 0, 1, 2, 4, 6, 8, 12, 15]),
    }
}

fn random_config(rng: &mut Rng) -> PipelineConfig {
    let mut c = PipelineConfig {
        width: rng.pick(&[2, 4, 8, 16]),
        predictor_bits: rng.pick(&[10, 16]),
        ..PipelineConfig::ci(64)
    };
    for field in 0..HANDLED.len() {
        draw_field(&mut c, field, rng);
    }
    c
}

/// A random program or one of the five workloads, with its budget.
fn random_subject(rng: &mut Rng) -> (Program, u64) {
    if rng.below(3) == 0 {
        let w = rng.pick(&Workload::ALL);
        let budget = 2_000 + 1_000 * rng.below(3);
        let program = w.build(&WorkloadParams {
            scale: w.scale_for(budget),
            seed: rng.next(),
        });
        (program, budget)
    } else {
        let size = 8 + rng.below(112) as usize;
        (random_program(rng.next(), size), 4_000)
    }
}

/// Soundness of the sensitivity record: whenever a run's record covers a
/// sibling configuration, simulating the sibling gives the run's `Stats`
/// and `MetricsProbe`, byte for byte. Siblings perturb one handled field
/// at a time, plus one that redraws every handled field at once. Each
/// handled field must be both covered and refused somewhere, so the
/// property cannot hold vacuously.
#[test]
fn covered_siblings_simulate_identically() {
    let mut rng = Rng(0x51B1_1165_0000_0017);
    let mut covered = [0u32; HANDLED.len()];
    let mut refused = [0u32; HANDLED.len()];
    for _ in 0..240 {
        let (program, budget) = random_subject(&mut rng);
        let reference = ArchRef::build(program, budget).unwrap();
        let run = random_config(&mut rng);
        let mut pipeline = Pipeline::new(&reference, run, MetricsProbe::new(), NoopProfiler);
        let stats = pipeline.run();
        let record = pipeline.sensitivity().clone();
        let probe = pipeline.into_probe();

        let mut siblings = Vec::new();
        for field in 0..HANDLED.len() {
            let mut sibling = run;
            while sibling == run {
                draw_field(&mut sibling, field, &mut rng);
            }
            siblings.push((Some(field), sibling));
        }
        let mut all = run;
        for field in 0..HANDLED.len() {
            draw_field(&mut all, field, &mut rng);
        }
        siblings.push((None, all));

        for (field, sibling) in siblings {
            let covers = record.covers(&run, &sibling);
            if let Some(f) = field {
                if covers {
                    covered[f] += 1;
                } else {
                    refused[f] += 1;
                }
            }
            if !covers {
                continue;
            }
            let mut twin = Pipeline::new(&reference, sibling, MetricsProbe::new(), NoopProfiler);
            assert_eq!(
                twin.run(),
                stats,
                "covered sibling diverged in Stats\nrun: {run:?}\nsibling: {sibling:?}"
            );
            assert_eq!(
                twin.into_probe(),
                probe,
                "covered sibling diverged in its probe stream\nrun: {run:?}\nsibling: {sibling:?}"
            );
        }
    }
    for (f, name) in HANDLED.iter().enumerate() {
        assert!(
            covered[f] > 0 && refused[f] > 0,
            "{name}: covered {} and refused {} siblings; both must happen",
            covered[f],
            refused[f]
        );
    }
}
