//! Inspect a workload: disassembly, basic blocks, immediate post-dominators,
//! the per-branch reconvergence map, a quick BASE-vs-CI run, and a probed
//! post-mortem: event-distribution histograms, a stage-occupancy summary
//! (which pipeline stages made progress each cycle), plus a per-cycle
//! pipeline occupancy timeline for a chosen range of retired instructions.
//! Last comes the span tree of an unprobed CI run: the simulator's own host
//! time by stage, with an optional Chrome `trace_event` export loadable in
//! `chrome://tracing` / Perfetto.
//!
//! ```sh
//! cargo run --release -p ci-bench --bin inspect -- go
//! cargo run --release -p ci-bench --bin inspect -- compress 50000
//! cargo run --release -p ci-bench --bin inspect -- go 30000 --timeline 100:180
//! cargo run --release -p ci-bench --bin inspect -- go 30000 --json go.jsonl
//! cargo run --release -p ci-bench --bin inspect -- go --trace go_trace.json
//! ```
//!
//! Host times go to stdout and the trace only: the `--json` export holds
//! the probed run's metrics, which are deterministic.

use ci_bench::cli::{end_quietly_on_closed_pipe, usage_error, Cli, SHARED_FLAGS};
use control_independence::ci_cfg::{Cfg, PostDominators, ReconvergenceMap};
use control_independence::prelude::*;
use std::time::Instant;

const SEED: u64 = 0x5EED;

fn main() {
    end_quietly_on_closed_pipe();
    let mut cli = Cli::from_args("inspect");
    let usage = format!(
        "usage: inspect [<workload> [<instructions>]] [--timeline FIRST:LAST] [--trace PATH] \
         {SHARED_FLAGS}"
    );
    // --timeline <first>:<last> (0-based retired-instruction indices).
    let timeline_range = cli.rest.take_flag("--timeline", &usage).map(|spec| {
        let parts: Vec<&str> = spec.splitn(2, ':').collect();
        let parsed = match parts.as_slice() {
            [a, b] => a.parse().ok().zip(b.parse().ok()),
            _ => None,
        };
        parsed.unwrap_or_else(|| {
            eprintln!("cannot parse --timeline range `{spec}` (want e.g. 100:180)");
            std::process::exit(2);
        })
    });
    let trace_path = cli.rest.take_flag("--trace", &usage);
    let args = cli.rest.positionals(2, &usage);
    let name = args.first().cloned().unwrap_or_else(|| "go".to_owned());
    let instructions: u64 = match args.get(1) {
        None => 30_000,
        Some(n) => n.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
            eprintln!("the instruction count must be a positive integer, got `{n}`");
            usage_error(&usage)
        }),
    };
    let Some(workload) = Workload::ALL.into_iter().find(|w| w.name() == name) else {
        eprintln!(
            "unknown workload `{name}`; choose one of: {}",
            Workload::ALL.map(|w| w.name()).join(", ")
        );
        std::process::exit(2);
    };
    let program = workload.build(&WorkloadParams {
        scale: workload.scale_for(instructions),
        seed: SEED,
    });

    println!("== {workload}: {} static instructions ==\n", program.len());
    println!("{program}");

    let cfg = Cfg::build(&program);
    let pd = PostDominators::compute(&cfg);
    println!("== {} basic blocks ==", cfg.len());
    for (i, b) in cfg.blocks().iter().enumerate() {
        let id = control_independence::ci_cfg::BlockId(i as u32);
        let succs: Vec<String> = cfg
            .succs(id)
            .iter()
            .map(|s| {
                if *s == cfg.exit() {
                    "exit".to_owned()
                } else {
                    format!("b{}", s.0)
                }
            })
            .collect();
        let ipdom = match pd.ipdom(id) {
            Some(p) if p == cfg.exit() => "exit".to_owned(),
            Some(p) => format!("b{}", p.0),
            None => "-".to_owned(),
        };
        println!(
            "  b{i}: [{}..{}] -> {{{}}}  ipdom={ipdom}",
            b.start,
            b.end,
            succs.join(", ")
        );
    }

    let recon = ReconvergenceMap::compute(&program);
    let mut points: Vec<(Pc, Pc)> = recon.iter().collect();
    points.sort();
    println!("\n== reconvergence map ({} branches) ==", points.len());
    for (b, r) in points {
        println!("  branch {b} -> reconverges at {r}");
    }

    println!("\n== {instructions}-instruction run ==");
    let runs = [
        ("BASE", PipelineConfig::base(256)),
        ("CI", PipelineConfig::ci(256)),
    ];
    cli.engine
        .prefetch(&runs.map(|(_, config)| CellSpec::Detailed {
            workload,
            config,
            instructions,
            seed: SEED,
        }));
    for (label, cfg) in runs {
        let s = cli.engine.stats(workload, cfg, instructions, SEED);
        println!(
            "  {label:<4} {:.2} IPC, {} cycles, {} recoveries ({:.0}% reconverged), \
             {:.2} issues/retired",
            s.ipc(),
            s.cycles,
            s.recoveries,
            100.0 * s.reconvergence_rate(),
            s.issues_per_retired(),
        );
    }

    // Probed CI run: metrics histograms, per-stage cycle attribution, and
    // the per-cycle timeline.
    let probe = (MetricsProbe::new(), TimelineProbe::new());
    let run = simulate_profiled(
        &program,
        PipelineConfig::ci(256),
        instructions,
        probe,
        NoopProfiler,
    )
    .expect("workload runs");
    let stats = run.stats;
    let (metrics, mut timeline) = run.probe;
    timeline.finish();
    let registry = metrics.registry();

    println!("\n== CI stage occupancy ==");
    print!("{}", run.activity.summary());

    println!("\n== CI event distributions ==");
    for name in [
        "restart_length_cycles",
        "restart_inserted",
        "recon_distance",
        "window_occupancy",
        "reissues_per_retired",
    ] {
        let h = registry
            .histogram(name)
            .unwrap_or_else(|| panic!("MetricsProbe registry always exports `{name}`"));
        println!("  {name:<22} {}", h.summary());
    }

    let (first, last) = timeline_range.unwrap_or_else(|| {
        let end = stats.retired.saturating_sub(1);
        (stats.retired.saturating_sub(64), end)
    });
    println!("\n== CI pipeline timeline (retired instructions {first}..={last}) ==");
    let records = timeline.cycles_for_retired_range(first, last, 2);
    print!("{}", TimelineProbe::render(records, 256));

    // Profile a separate, unprobed run: the probes above would inflate the
    // host times.
    let started = Instant::now();
    let run = simulate_profiled(
        &program,
        PipelineConfig::ci(256),
        instructions,
        NoopProbe,
        SpanProfiler::new(),
    )
    .expect("workload runs");
    let wall = started.elapsed().as_secs_f64();
    let spans = run.profiler.total().as_secs_f64();
    println!("\n== CI host-time profile (unprobed run) ==");
    println!(
        "{:.1}ms wall, spans cover {:.1}%",
        wall * 1e3,
        100.0 * spans / wall.max(1e-9)
    );
    print!("{}", run.profiler.text_summary());
    if let Some(path) = trace_path {
        let mut body = run.profiler.chrome_trace().render();
        body.push('\n');
        std::fs::write(&path, body)
            .unwrap_or_else(|e| panic!("cannot write Chrome trace to {path}: {e}"));
        println!("Chrome trace written to {path} (load in chrome://tracing or Perfetto)");
    }

    cli.out
        .raw_jsonl(&registry.to_jsonl(&[("workload", workload.name()), ("config", "ci_w256")]));
    cli.finish();
}
