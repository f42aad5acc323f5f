//! Simulator throughput benchmark: simulated instructions retired per
//! *reference unit* over the workload × machine-configuration sweep,
//! exported as a `bench_throughput/v2` JSON report, with an optional
//! regression gate against a checked-in baseline, and the cost of each
//! observability sink on one representative cell.
//!
//! ```sh
//! cargo run --release -p ci-bench --bin throughput -- --json BENCH_throughput.json
//! cargo run --release -p ci-bench --bin throughput -- --reps 5
//! cargo run --release -p ci-bench --bin throughput -- \
//!     --baseline results/BENCH_throughput_baseline.json
//! UPDATE_BENCH_BASELINE=1 cargo run --release -p ci-bench --bin throughput -- \
//!     --baseline results/BENCH_throughput_baseline.json
//! ```
//!
//! Every run is a *fresh* `simulate()` call (never memoized) because the
//! subject under measurement is the simulator itself, so `throughput` runs
//! no cell engine and rejects the engine's flags (`--workers`,
//! `--cache-dir`, `--metrics`) with a usage error. `--reps <n>` runs the
//! sweep `n` times.
//!
//! A reference unit is the time a fixed computation takes on the host right
//! now: a copy of the benchmark's (`perfbench`) 16 MiB reference, branchy
//! random reads and writes with small sorts, the simulator's kind of work.
//! It is timed after every run, and each run's host time is divided by the
//! mean of the samples just before and just after it, so a change in the
//! host's speed cancels while a change in the simulator's own cost does
//! not. A run's `insts_per_ref` is its retired instructions per reference
//! unit, and each cell reports its median run (with that run's MIPS, in
//! host units, alongside).
//!
//! The gate compares the geometric mean of `insts_per_ref` over the sweep
//! against `--baseline <path>` and exits nonzero on a drop of more than
//! 10%; `UPDATE_BENCH_BASELINE=1` rewrites the baseline instead of
//! comparing. The baseline is a *ratchet*: re-blessing refuses to lower
//! `geomean_insts_per_ref` unless `FORCE_BENCH_BASELINE=1` is also set, so
//! performance wins stay locked in and a revert of an optimization fails
//! the gate rather than silently re-blessing it away. A baseline in another
//! unit (a `bench_throughput/v1` file of absolute MIPS) is replaced without
//! the override.
//!
//! The probe-overhead table runs go / `ci_w256` four ways, interleaved
//! within each rep, and keeps each way's best MIPS: plain `simulate`
//! (whose `NoopProbe` and `NoopProfiler` monomorphize away), a
//! `MetricsProbe`, a `FlightRecorder` and a `SpanProfiler`. Each row's
//! ratio to the plain run is the cost of that sink; the geomean and the
//! gate read only the sweep.

use ci_bench::cli::{end_quietly_on_closed_pipe, Args, Emitter};
use control_independence::ci_obs::{json, JsonValue};
use control_independence::experiments::Scale;
use control_independence::prelude::*;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// The gate fails when the geomean falls more than this far below the
/// baseline's.
const TOLERANCE_PCT: f64 = 10.0;

/// The baseline member the gate reads.
const GATED: &str = "geomean_insts_per_ref";

type ConfigCtor = fn(usize) -> PipelineConfig;

const CONFIGS: [(&str, ConfigCtor); 3] = [
    ("base_w256", PipelineConfig::base),
    ("ci_w256", PipelineConfig::ci),
    ("ci_i_w256", PipelineConfig::ci_instant),
];

const VALID: &str = "workloads are valid programs";

type ProbedRun = fn(&Program, PipelineConfig, u64) -> Stats;

/// The probe-overhead rows: the plain run first, as the ratios' reference.
/// `black_box` keeps each sink's recorded state alive.
const PROBES: [(&str, ProbedRun); 4] = [
    ("none", |p, c, n| simulate(p, c, n).expect(VALID)),
    ("metrics", |p, c, n| {
        black_box(simulate_probed(p, c, n, MetricsProbe::new()))
            .expect(VALID)
            .0
    }),
    ("flight_recorder", |p, c, n| {
        black_box(simulate_probed(p, c, n, FlightRecorder::new()))
            .expect(VALID)
            .0
    }),
    ("span_profiler", |p, c, n| {
        black_box(simulate_profiled(p, c, n, NoopProbe, SpanProfiler::new()))
            .expect(VALID)
            .stats
    }),
];

struct Sample {
    workload: &'static str,
    config: &'static str,
    retired: u64,
    cycles: u64,
    wall_us: u64,
    mips: f64,
    /// The reference unit the run was measured in, in microseconds.
    ref_us: f64,
    insts_per_ref: f64,
}

/// Steps of the reference computation (6-8 ms on a 2-vCPU shared virtual
/// machine).
const REFERENCE_STEPS: u64 = 250_000;

/// Entries of the reference table: 16 MiB, larger than a 2 MiB L2 cache,
/// so the reference, like the simulator, works out of the shared
/// last-level cache that other tenants of the host contend for.
const REFERENCE_ENTRIES: u32 = 1 << 22;

/// The fixed reference computation, a copy of `perfbench`'s: the same
/// steps over the same table size, so one reference unit is the same work
/// in both.
struct Reference {
    table: Vec<u32>,
}

impl Reference {
    /// Write the table in full, so no timed run pays its page faults.
    fn new() -> Reference {
        Reference {
            table: (0..REFERENCE_ENTRIES).collect(),
        }
    }

    /// Time one run of the computation: the host's speed right now.
    fn seconds(&mut self) -> f64 {
        let table = &mut self.table;
        let t0 = Instant::now();
        let mut queue: Vec<u64> = Vec::with_capacity(64);
        let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15_u64, 0u64);
        for _ in 0..REFERENCE_STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x >> 40) as usize & (table.len() - 1);
            let v = table[slot];
            if v & 1 == 0 {
                table[slot] = v.wrapping_add(x as u32);
                queue.push(x);
            } else {
                acc = acc.wrapping_add(u64::from(v));
            }
            if queue.len() == 64 {
                queue.sort_unstable();
                acc ^= queue[32];
                queue.clear();
            }
        }
        black_box((acc, &*table));
        t0.elapsed().as_secs_f64()
    }
}

fn main() {
    end_quietly_on_closed_pipe();
    let mut args = Args::from_env();
    let usage = "usage: throughput [--reps N] [--baseline PATH] [--json PATH]";
    let mut out = Emitter::new(args.take_flag("--json", usage).map(PathBuf::from));
    let scale = Scale::from_env_or_exit();
    let reps: u32 = args
        .take_flag("--reps", usage)
        .map(|v| {
            v.parse().ok().filter(|&r| r > 0).unwrap_or_else(|| {
                eprintln!("--reps must be a positive integer, got `{v}`");
                std::process::exit(2);
            })
        })
        .unwrap_or(1);
    let baseline_path = args.take_flag("--baseline", usage);
    args.positionals(0, usage);

    let instructions = scale.instructions;
    println!(
        "== simulator throughput: {} workloads x {} configs, {instructions} \
         instructions, median of {reps} ==\n",
        Workload::ALL.len(),
        CONFIGS.len(),
    );

    let build = |workload: Workload| {
        workload.build(&WorkloadParams {
            scale: workload.scale_for(instructions),
            seed: scale.seed,
        })
    };
    // Each rep runs the whole sweep, so a cell's runs are spread over the
    // benchmark's length rather than bunched into one moment of the host.
    let programs: Vec<Program> = Workload::ALL.into_iter().map(build).collect();
    let mut runs: Vec<Vec<Sample>> = (0..programs.len() * CONFIGS.len())
        .map(|_| Vec::new())
        .collect();
    let mut reference = Reference::new();
    let mut before = reference.seconds();
    for _ in 0..reps {
        let cells = Workload::ALL
            .into_iter()
            .zip(&programs)
            .flat_map(|(w, p)| CONFIGS.map(|(name, make)| (w, p, name, make(256))));
        for ((workload, program, config_name, config), runs) in cells.zip(&mut runs) {
            let (stats, wall_us, mips) =
                timed(|| simulate(program, config, instructions).expect(VALID));
            let after = reference.seconds();
            let unit = (before + after) / 2.0;
            before = after;
            runs.push(Sample {
                workload: workload.name(),
                config: config_name,
                retired: stats.retired,
                cycles: stats.cycles,
                wall_us,
                mips,
                ref_us: unit * 1e6,
                insts_per_ref: mips * 1e6 * unit,
            });
        }
    }
    // The median run of each cell: a burst of load on the host slows a
    // run or a reference sample alone, and moves a median the least.
    let samples: Vec<Sample> = runs
        .into_iter()
        .map(|mut runs| {
            runs.sort_by(|a, b| a.insts_per_ref.total_cmp(&b.insts_per_ref));
            runs.swap_remove(runs.len() / 2)
        })
        .collect();

    println!(
        "{:<10} {:>10} {:>12} {:>10} {:>8} {:>8} {:>10}",
        "workload", "config", "retired", "wall_ms", "MIPS", "ref_ms", "insts/ref"
    );
    for s in &samples {
        println!(
            "{:<10} {:>10} {:>12} {:>10.1} {:>8.3} {:>8.2} {:>10.0}",
            s.workload,
            s.config,
            s.retired,
            s.wall_us as f64 / 1e3,
            s.mips,
            s.ref_us / 1e3,
            s.insts_per_ref,
        );
    }
    let geomean_of = |f: fn(&Sample) -> f64| {
        (samples.iter().map(|s| f(s).max(1e-12).ln()).sum::<f64>() / samples.len() as f64).exp()
    };
    let geomean_mips = geomean_of(|s| s.mips);
    let geomean = geomean_of(|s| s.insts_per_ref);
    println!("\ngeomean: {geomean:.0} instructions per reference unit ({geomean_mips:.3} MIPS)");

    let program = build(Workload::GoLike);
    let mut probe_mips = [0.0f64; PROBES.len()];
    for _ in 0..reps {
        for ((_, run), best) in PROBES.iter().zip(&mut probe_mips) {
            let (_, _, mips) = timed(|| run(&program, PipelineConfig::ci(256), instructions));
            *best = best.max(mips);
        }
    }
    let plain = probe_mips[0];
    println!("\n== probe overhead: go ci_w256, best of {reps} ==\n");
    println!("{:<16} {:>8} {:>8}", "probe", "MIPS", "ratio");
    for ((name, _), mips) in PROBES.iter().zip(probe_mips) {
        println!("{name:<16} {mips:>8.3} {:>8.3}", mips / plain);
    }

    let report = JsonValue::obj([
        ("schema", JsonValue::from("bench_throughput/v2")),
        ("instructions", instructions.into()),
        ("seed", i64::try_from(scale.seed).unwrap_or(i64::MAX).into()),
        ("reps", i64::from(reps).into()),
        (
            "results",
            JsonValue::Arr(
                samples
                    .iter()
                    .map(|s| {
                        JsonValue::obj([
                            ("workload", JsonValue::from(s.workload)),
                            ("config", s.config.into()),
                            ("retired", s.retired.into()),
                            ("cycles", s.cycles.into()),
                            ("wall_us", s.wall_us.into()),
                            ("mips", s.mips.into()),
                            ("ref_us", s.ref_us.into()),
                            ("insts_per_ref", s.insts_per_ref.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("geomean_mips", geomean_mips.into()),
        (GATED, geomean.into()),
        (
            "probe_overhead",
            JsonValue::Arr(
                PROBES
                    .iter()
                    .zip(probe_mips)
                    .map(|((name, _), mips)| {
                        JsonValue::obj([
                            ("workload", JsonValue::from("go")),
                            ("config", "ci_w256".into()),
                            ("probe", (*name).into()),
                            ("mips", mips.into()),
                            ("ratio", (mips / plain).into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    out.raw_jsonl(&report.render());

    let mut gate_failed = false;
    if let Some(path) = baseline_path {
        if std::env::var("UPDATE_BENCH_BASELINE").is_ok_and(|v| v == "1") {
            // Ratchet: never bless a slower baseline by accident. Accepting
            // a real slowdown needs the explicit FORCE_BENCH_BASELINE=1
            // override.
            if let Ok(text) = std::fs::read_to_string(&path) {
                if let Some(old) = json::parse(&text)
                    .ok()
                    .and_then(|b| b.get(GATED).and_then(JsonValue::as_f64))
                {
                    let forced = std::env::var("FORCE_BENCH_BASELINE").is_ok_and(|v| v == "1");
                    assert!(
                        geomean >= old || forced,
                        "refusing to ratchet the baseline DOWN: measured geomean \
                         {geomean:.0} instructions per reference unit < blessed {old:.0}. \
                         Set FORCE_BENCH_BASELINE=1 to accept a slower baseline."
                    );
                }
            }
            let mut body = report.render();
            body.push('\n');
            std::fs::write(&path, body)
                .unwrap_or_else(|e| panic!("cannot write baseline {path}: {e}"));
            println!("baseline re-blessed: {path}");
        } else {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
            let base = json::parse(&text)
                .unwrap_or_else(|e| panic!("baseline {path} is not valid JSON: {e}"));
            let base_geomean = base
                .get(GATED)
                .and_then(JsonValue::as_f64)
                .unwrap_or_else(|| panic!("baseline {path} has no {GATED}"));
            let floor = base_geomean * (1.0 - TOLERANCE_PCT / 100.0);
            println!(
                "gate: geomean {geomean:.0} instructions per reference unit vs baseline \
                 {base_geomean:.0} (floor {floor:.0} at -{TOLERANCE_PCT:.0}%)"
            );
            if geomean < floor {
                eprintln!(
                    "THROUGHPUT REGRESSION: geomean {geomean:.0} instructions per reference \
                     unit is below the {floor:.0} floor ({base_geomean:.0} baseline - \
                     {TOLERANCE_PCT:.0}%).\n\
                     If the slowdown is intentional, re-bless with UPDATE_BENCH_BASELINE=1."
                );
                gate_failed = true;
            } else {
                println!("gate: ok");
            }
        }
    }

    out.finish();
    if gate_failed {
        std::process::exit(1);
    }
}

/// Run one simulation; return its statistics, host wall time in
/// microseconds and MIPS.
fn timed(run: impl FnOnce() -> Stats) -> (Stats, u64, f64) {
    let started = Instant::now();
    let stats = run();
    let wall = started.elapsed();
    let mips = stats.retired as f64 / wall.as_secs_f64().max(1e-9) / 1e6;
    (
        stats,
        u64::try_from(wall.as_micros()).unwrap_or(u64::MAX),
        mips,
    )
}
