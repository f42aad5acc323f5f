//! Simulator throughput benchmark: MIPS (millions of simulated instructions
//! retired per host second) over the workload × machine-configuration sweep,
//! exported as a `bench_throughput/v1` JSON report, with an optional
//! regression gate against a checked-in baseline, and the cost of each
//! observability sink on one representative cell.
//!
//! ```sh
//! cargo run --release -p ci-bench --bin throughput -- --json BENCH_throughput.json
//! cargo run --release -p ci-bench --bin throughput -- --reps 3
//! cargo run --release -p ci-bench --bin throughput -- \
//!     --baseline results/BENCH_throughput_baseline.json
//! UPDATE_BENCH_BASELINE=1 cargo run --release -p ci-bench --bin throughput -- \
//!     --baseline results/BENCH_throughput_baseline.json
//! ```
//!
//! Every run is a *fresh* `simulate()` call (never memoized) because the
//! subject under measurement is the simulator itself, so `throughput` runs
//! no cell engine and rejects the engine's flags (`--workers`,
//! `--cache-dir`, `--timing`, `--metrics`) with a usage error. `--reps
//! <n>` takes the best of `n` runs per cell to shave scheduler noise. The gate compares the
//! geometric-mean MIPS of the sweep against `--baseline <path>` and exits
//! nonzero on a drop of more than 10%; `UPDATE_BENCH_BASELINE=1` rewrites
//! the baseline instead of comparing. The baseline is a *ratchet*:
//! re-blessing refuses to lower `geomean_mips` unless
//! `FORCE_BENCH_BASELINE=1` is also set, so performance wins stay locked in
//! and a revert of an optimization fails the gate rather than silently
//! re-blessing it away. The floor is an absolute MIPS figure from the host
//! that blessed it, so a slower host can fail it with unchanged code;
//! host-independent speed comparisons go through `perfbench`, whose runs are
//! recorded in `results/BENCH_e2e.json`.
//!
//! The probe-overhead table runs go / `ci_w256` four ways, interleaved
//! within each rep: plain `simulate` (whose `NoopProbe` and `NoopProfiler`
//! monomorphize away), a `MetricsProbe`, a `FlightRecorder` and a
//! `SpanProfiler`. Each row's ratio to the plain run is the cost of that
//! sink; the geomean and the gate read only the sweep.

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
}

fn main() {
    end_quietly_on_closed_pipe();
    let mut args = Args::from_env();
    let mut out = Emitter::new(args.take_flag("--json").map(PathBuf::from));
    let scale = Scale::from_env_or_exit();
    let reps: u32 = args
        .take_flag("--reps")
        .map(|v| {
            v.parse().ok().filter(|&r| r > 0).unwrap_or_else(|| {
                eprintln!("--reps must be a positive integer, got `{v}`");
                std::process::exit(2);
            })
        })
        .unwrap_or(1);
    let baseline_path = args.take_flag("--baseline");
    args.positionals(
        0,
        "usage: throughput [--reps N] [--baseline PATH] [--json PATH]",
    );

    let instructions = scale.instructions;
    println!(
        "== simulator throughput: {} workloads x {} configs, {instructions} \
         instructions, best of {reps} ==\n",
        Workload::ALL.len(),
        CONFIGS.len(),
    );

    let build = |workload: Workload| {
        workload.build(&WorkloadParams {
            scale: workload.scale_for(instructions),
            seed: scale.seed,
        })
    };
    let mut samples = Vec::new();
    for workload in Workload::ALL {
        let program = build(workload);
        for (config_name, make) in CONFIGS {
            let config = make(256);
            let mut best: Option<Sample> = None;
            for _ in 0..reps {
                let (stats, wall_us, mips) =
                    timed(|| simulate(&program, config, instructions).expect(VALID));
                let s = Sample {
                    workload: workload.name(),
                    config: config_name,
                    retired: stats.retired,
                    cycles: stats.cycles,
                    wall_us,
                    mips,
                };
                if best.as_ref().is_none_or(|b| s.mips > b.mips) {
                    best = Some(s);
                }
            }
            samples.push(best.expect("reps >= 1"));
        }
    }

    println!(
        "{:<10} {:>10} {:>12} {:>10} {:>8}",
        "workload", "config", "retired", "wall_ms", "MIPS"
    );
    for s in &samples {
        println!(
            "{:<10} {:>10} {:>12} {:>10.1} {:>8.3}",
            s.workload,
            s.config,
            s.retired,
            s.wall_us as f64 / 1e3,
            s.mips,
        );
    }
    let geomean =
        (samples.iter().map(|s| s.mips.max(1e-12).ln()).sum::<f64>() / samples.len() as f64).exp();
    println!("\ngeomean: {geomean:.3} MIPS");

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
        ("schema", JsonValue::from("bench_throughput/v1")),
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
                        ])
                    })
                    .collect(),
            ),
        ),
        ("geomean_mips", geomean.into()),
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
            // Ratchet: never bless a slower baseline by accident. Moving to
            // a slower host (or accepting a real slowdown) needs the
            // explicit FORCE_BENCH_BASELINE=1 override.
            if let Ok(text) = std::fs::read_to_string(&path) {
                if let Some(old) = json::parse(&text)
                    .ok()
                    .and_then(|b| b.get("geomean_mips").and_then(JsonValue::as_f64))
                {
                    let forced = std::env::var("FORCE_BENCH_BASELINE").is_ok_and(|v| v == "1");
                    assert!(
                        geomean >= old || forced,
                        "refusing to ratchet the baseline DOWN: measured geomean \
                         {geomean:.3} MIPS < blessed {old:.3}. Set FORCE_BENCH_BASELINE=1 \
                         to accept a slower baseline."
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
                .get("geomean_mips")
                .and_then(JsonValue::as_f64)
                .unwrap_or_else(|| panic!("baseline {path} has no geomean_mips"));
            let floor = base_geomean * (1.0 - TOLERANCE_PCT / 100.0);
            println!(
                "gate: geomean {geomean:.3} MIPS vs baseline {base_geomean:.3} \
                 (floor {floor:.3} at -{TOLERANCE_PCT:.0}%)"
            );
            if geomean < floor {
                eprintln!(
                    "THROUGHPUT REGRESSION: geomean {geomean:.3} MIPS is below the \
                     {floor:.3} floor ({base_geomean:.3} baseline - {TOLERANCE_PCT:.0}%).\n\
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
