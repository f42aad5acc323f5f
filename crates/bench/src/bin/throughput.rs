//! Simulator throughput benchmark: MIPS (millions of simulated instructions
//! retired per host second) over the workload × machine-configuration sweep,
//! exported as a `bench_throughput/v1` JSON report, with an optional
//! regression gate against a checked-in baseline.
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
//! subject under measurement is the simulator itself. `--reps <n>` takes the
//! best of `n` runs per cell to shave scheduler noise. The gate compares the
//! geometric-mean MIPS against `--baseline <path>` and exits nonzero on a
//! drop beyond `--tolerance <pct>` (default 10%); `UPDATE_BENCH_BASELINE=1`
//! rewrites the baseline instead of comparing. The baseline is a *ratchet*:
//! re-blessing refuses to lower `geomean_mips` unless
//! `FORCE_BENCH_BASELINE=1` is also set, so performance wins stay locked in
//! and a revert of an optimization fails the gate rather than silently
//! re-blessing it away. MIPS still varies with the host, which is what the
//! tolerance absorbs — percent-level drift belongs to the Criterion bench.

use ci_bench::cli::{Cli, SHARED_FLAGS};
use control_independence::ci_obs::{json, JsonValue};
use control_independence::experiments::Scale;
use control_independence::prelude::*;
use std::time::Instant;

type ConfigCtor = fn(usize) -> PipelineConfig;

const CONFIGS: [(&str, ConfigCtor); 3] = [
    ("base_w256", PipelineConfig::base),
    ("ci_w256", PipelineConfig::ci),
    ("ci_i_w256", PipelineConfig::ci_instant),
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
    let mut cli = Cli::from_args("throughput");
    let scale = Scale::from_env_or_exit();
    let reps: u32 = cli
        .take_flag("--reps")
        .map(|v| {
            v.parse().ok().filter(|&r| r > 0).unwrap_or_else(|| {
                eprintln!("--reps must be a positive integer, got `{v}`");
                std::process::exit(2);
            })
        })
        .unwrap_or(1);
    let tolerance: f64 = cli
        .take_flag("--tolerance")
        .map(|v| {
            v.parse()
                .ok()
                .filter(|p| (0.0..100.0).contains(p))
                .unwrap_or_else(|| {
                    eprintln!("--tolerance must be a percentage in [0, 100), got `{v}`");
                    std::process::exit(2);
                })
        })
        .unwrap_or(10.0);
    let baseline_path = cli.take_flag("--baseline");
    cli.positionals(
        0,
        &format!("usage: throughput [--reps N] [--tolerance PCT] [--baseline PATH] {SHARED_FLAGS}"),
    );

    let instructions = scale.instructions;
    println!(
        "== simulator throughput: {} workloads x {} configs, {instructions} \
         instructions, best of {reps} ==\n",
        Workload::ALL.len(),
        CONFIGS.len(),
    );

    let mut samples = Vec::new();
    for workload in Workload::ALL {
        let program = workload.build(&WorkloadParams {
            scale: workload.scale_for(instructions),
            seed: scale.seed,
        });
        for (config_name, make) in CONFIGS {
            let config = make(256);
            let mut best: Option<Sample> = None;
            for _ in 0..reps {
                let started = Instant::now();
                let stats =
                    simulate(&program, config, instructions).expect("workloads are valid programs");
                let wall = started.elapsed();
                let mips = stats.retired as f64 / wall.as_secs_f64().max(1e-9) / 1e6;
                let s = Sample {
                    workload: workload.name(),
                    config: config_name,
                    retired: stats.retired,
                    cycles: stats.cycles,
                    wall_us: u64::try_from(wall.as_micros()).unwrap_or(u64::MAX),
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
    ]);
    cli.out.raw_jsonl(&report.render());

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
            let floor = base_geomean * (1.0 - tolerance / 100.0);
            println!(
                "gate: geomean {geomean:.3} MIPS vs baseline {base_geomean:.3} \
                 (floor {floor:.3} at -{tolerance:.0}%)"
            );
            if geomean < floor {
                eprintln!(
                    "THROUGHPUT REGRESSION: geomean {geomean:.3} MIPS is below the \
                     {floor:.3} floor ({base_geomean:.3} baseline - {tolerance:.0}%).\n\
                     If the slowdown is intentional, re-bless with UPDATE_BENCH_BASELINE=1."
                );
                gate_failed = true;
            } else {
                println!("gate: ok");
            }
        }
    }

    cli.finish();
    if gate_failed {
        std::process::exit(1);
    }
}
