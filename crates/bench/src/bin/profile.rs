//! Profile one detailed pipeline run: hierarchical span tree (setup /
//! cycle_loop / per-stage), stage-level cycle attribution, and an optional
//! Chrome `trace_event` export loadable in `chrome://tracing` / Perfetto.
//!
//! ```sh
//! cargo run --release -p ci-bench --bin profile -- go
//! cargo run --release -p ci-bench --bin profile -- gcc 100000 --config ci
//! cargo run --release -p ci-bench --bin profile -- go --config base --window 128
//! cargo run --release -p ci-bench --bin profile -- go --trace go_trace.json
//! ```
//!
//! The profiler measures host time per simulator stage; the `Stats` of a
//! profiled run are bit-identical to an unprofiled run (pinned by the core
//! test suite), so profiling never perturbs experiment results.

use ci_bench::cli::{Cli, SHARED_FLAGS};
use control_independence::experiments::Scale;
use control_independence::prelude::*;
use std::time::Instant;

fn main() {
    let mut cli = Cli::from_args("profile");
    let scale = Scale::from_env_or_exit();

    let config_name = cli.take_flag("--config").unwrap_or_else(|| "ci".to_owned());
    let window: usize = cli
        .take_flag("--window")
        .map(|v| {
            v.parse().ok().filter(|&w| w > 0).unwrap_or_else(|| {
                eprintln!("--window must be a positive integer, got `{v}`");
                std::process::exit(2);
            })
        })
        .unwrap_or(256);
    let trace_path = cli.take_flag("--trace");
    let args = cli.positionals(
        2,
        &format!(
            "usage: profile [<workload> [<instructions>]] [--config base|ci|ci-i] \
             [--window N] [--trace PATH] {SHARED_FLAGS}"
        ),
    );

    let config = match config_name.as_str() {
        "base" => PipelineConfig::base(window),
        "ci" => PipelineConfig::ci(window),
        "ci-i" | "ci_i" => PipelineConfig::ci_instant(window),
        other => {
            eprintln!("unknown --config `{other}`; choose base, ci, or ci-i");
            std::process::exit(2);
        }
    };

    let name = args.first().cloned().unwrap_or_else(|| "go".to_owned());
    let instructions: u64 = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(scale.instructions);
    let Some(workload) = Workload::ALL.into_iter().find(|w| w.name() == name) else {
        eprintln!(
            "unknown workload `{name}`; choose one of: {}",
            Workload::ALL.map(|w| w.name()).join(", ")
        );
        std::process::exit(2);
    };

    let program = workload.build(&WorkloadParams {
        scale: workload.scale_for(instructions),
        seed: scale.seed,
    });

    println!(
        "== profiling {workload} / {config_name} w{window} / {instructions} instructions ==\n"
    );
    let started = Instant::now();
    let run = simulate_profiled(
        &program,
        config,
        instructions,
        NoopProbe,
        SpanProfiler::new(),
    )
    .expect("workloads are valid programs");
    let wall = started.elapsed();
    let prof = &run.profiler;

    let span_total = prof.total();
    let coverage = if wall.as_nanos() > 0 {
        100.0 * span_total.as_secs_f64() / wall.as_secs_f64()
    } else {
        0.0
    };
    println!(
        "{:.2} IPC over {} cycles; {:.1}ms wall, spans cover {:.1}ms ({coverage:.0}%)\n",
        run.stats.ipc(),
        run.stats.cycles,
        wall.as_secs_f64() * 1e3,
        span_total.as_secs_f64() * 1e3,
    );

    println!("== span tree ==");
    print!("{}", prof.text_summary());

    println!("\n== cycle attribution ==");
    print!("{}", run.activity.summary());

    if let Some(path) = trace_path {
        let mut body = prof.chrome_trace().render();
        body.push('\n');
        std::fs::write(&path, body)
            .unwrap_or_else(|e| panic!("cannot write Chrome trace to {path}: {e}"));
        println!("\nChrome trace written to {path} (load in chrome://tracing or Perfetto)");
    }

    if cli.out.json_enabled() {
        let mut report = prof.to_json();
        if let control_independence::ci_obs::JsonValue::Obj(pairs) = &mut report {
            pairs.insert(0, ("metric".to_owned(), "profile".into()));
            pairs.insert(1, ("workload".to_owned(), workload.name().into()));
            pairs.insert(2, ("config".to_owned(), config_name.as_str().into()));
            pairs.insert(3, ("window".to_owned(), window.into()));
            pairs.push((
                "wall_us".to_owned(),
                u64::try_from(wall.as_micros()).unwrap_or(u64::MAX).into(),
            ));
            pairs.push(("coverage_pct".to_owned(), coverage.into()));
            pairs.push(("activity".to_owned(), run.activity.to_json()));
        }
        cli.out.raw_jsonl(&report.render());
    }
    cli.finish();
}
