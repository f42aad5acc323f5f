//! The traced runner (`--trace 1`): the per-layer split of a workload.
//!
//! ```text
//! perfbench-layers --workload <name> --seed <n> --seconds <s> --trace 1 [--root <dir>] [--work-dir <dir>]
//! ```
//!
//! After one set-up and the end-to-end runner's preflight it runs three
//! phases:
//!
//! 1. untraced passes for half of `--seconds`, the base of the overhead;
//! 2. traced passes for the other half: the end-to-end runner's own passes,
//!    with the benchmark's span around every call they make into a layer
//!    (one span per cell, its trace id the cell's `CellKey`). Their output
//!    must equal the untraced passes'. `trace.overhead_frac` compares the
//!    two medians;
//! 3. a deep pass: every distinct cell of the workload (a sample of trials
//!    for `fuzz_campaign`) recomputed through the layers' own public
//!    functions, splitting cell time into workload build, emulation,
//!    reconvergence detection, the core's set-up and cycle-loop stages (the
//!    span tree `simulate_profiled` returns) and the idealized models; plus
//!    the grid expansion, the cache-line codecs and the Pareto reduction.
//!
//! Spans stay in memory and are written to
//! `<work-dir>/traces/<workload>-seed<n>.jsonl` at the end. The per-layer
//! metrics are the last line of standard output.

use ci_difftest::{trial_seed, FuzzSummary, TrialSpec};
use control_independence::ci_core::{simulate_profiled, PipelineConfig, ReconDetector};
use control_independence::ci_emu::run_trace;
use control_independence::ci_explore::{knee, pareto_front, ExploreReport, Sweep};
use control_independence::ci_ideal::{
    simulate as simulate_ideal, IdealConfig, ModelKind, StudyInput,
};
use control_independence::ci_isa::Program;
use control_independence::ci_obs::{MetricsProbe, SpanProfiler};
use control_independence::ci_runner::engine::{parse_cache_line, render_cache_line};
use control_independence::ci_runner::{CellSpec, Engine, CACHE_FILE};
use control_independence::ci_workloads::{random_structured, Workload, WorkloadParams};
use perfbench::{
    hermetic_env, median, preflight, print_result, reference_seconds, setup_once, timed_phase,
    Args, Gate, Meter, Phase, Prepared, ScratchDir, Tally, Tracer, Untimed, GRID_INSTRUCTIONS,
    GRID_SWEEP, PER_LAYER,
};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Generated trials the deep pass of `fuzz_campaign` recomputes.
const FUZZ_DEEP_TRIALS: u64 = 40;

/// Per-layer values by metric name.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn main() {
    hermetic_env();
    // Make the reference table before anything else (see `peak_rss_mb`).
    let _ = reference_seconds();
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench-layers: {e}");
        std::process::exit(2);
    });
    if !args.trace {
        eprintln!("perfbench-layers: the untraced run is the perfbench binary");
        std::process::exit(2);
    }
    let scratch = ScratchDir::new(&args.work_dir).unwrap_or_else(|e| {
        eprintln!(
            "perfbench-layers: scratch dir under {}: {e}",
            args.work_dir.display()
        );
        std::process::exit(2);
    });
    let mut gate = Gate::default();
    // `setup_s` is the end-to-end run's; one untimed set-up is enough here.
    let prepared = setup_once(&args, &scratch, 0, &mut Untimed, &mut gate);
    preflight(&args.root, &mut gate);
    let half = args.seconds / 2.0;
    let untraced = timed_phase(
        &args,
        &prepared,
        &scratch,
        half,
        Meter::default(),
        Tally::default(),
        &mut gate,
    )
    .tally;
    // Every traced pass must reproduce the untraced output exactly.
    let start = Tally {
        digest: untraced.digest,
        ..Tally::default()
    };
    let mut traced = timed_phase(
        &args,
        &prepared,
        &scratch,
        half,
        Meter::traced(),
        start,
        &mut gate,
    );
    let mut tr = traced.tracer.take().expect("a traced meter records spans");
    let mut m = Layers::default();
    traced_metrics(&traced, &tr, &mut m);

    let deep_from = tr.spans().len();
    deep_phase(
        &args,
        &prepared,
        traced.last.engine.as_ref(),
        &mut tr,
        &mut m,
        &mut gate,
    );
    derive_deep(&tr, deep_from, &mut m);

    // Compared in reference units, so host drift between the halves cancels.
    m.set(
        "trace.overhead_frac",
        traced.tally.norm() / untraced.norm() - 1.0,
    );
    for (name, value, _) in untraced.host_metrics() {
        m.set(name, value);
    }
    if args.workload.simulates_cells() {
        m.set(
            "sim_mips",
            untraced.sim_insts as f64 / untraced.wall() / 1e6,
        );
    }
    let attempted = untraced.attempted + traced.tally.attempted;
    let failed = untraced.failed + traced.tally.failed;
    m.set("bench.failed_frac", failed as f64 / attempted.max(1) as f64);

    let path = args.work_dir.join("traces").join(format!(
        "{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match tr.write_jsonl(&path) {
        Ok(()) => eprintln!("perfbench-layers: spans in {}", path.display()),
        Err(e) => gate.check(false, || format!("write {}: {e}", path.display())),
    }
    eprintln!(
        "perfbench-layers: {} untraced {:.3}s = {:.2} ref x{}, traced {:.3}s = {:.2} ref x{}",
        args.workload.name(),
        untraced.wall(),
        untraced.norm(),
        untraced.times.len(),
        traced.tally.wall(),
        traced.tally.norm(),
        traced.tally.times.len()
    );
    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, m.get(name), unit))
        .collect();
    drop(traced);
    drop(prepared);
    drop(scratch);
    print_result(&mut gate, attempted, failed, &metrics);
}

/// The layer metrics of the traced phase, whose spans are `tr`: per-pass
/// means of the pass-level spans, and the runner and difftest counters of
/// its last pass.
fn traced_metrics(traced: &Phase, tr: &Tracer, m: &mut Layers) {
    let times = &traced.tally.times;
    let n = times.len() as f64;
    for (metric, span) in [
        ("experiments.assemble_s", "experiments.run_all"),
        ("report.render_s", "report.render"),
        ("explore.reduce_s", "explore.build"),
        ("runner.persist.save_s", "runner.persist.save"),
        ("runner.persist.load_s", "runner.persist.load"),
    ] {
        m.set(metric, tr.total(0, span) / n);
    }
    let walls: f64 = times.iter().map(|t| t.wall).sum();
    m.set("trace.uncovered_frac", 1.0 - tr.top_level(0) / walls);
    let last = &traced.last;
    let from = times.last().map_or(0, |t| t.first_span);
    m.set("report.bytes", last.text.len() as f64);
    if let Some(eng) = &last.engine {
        runner_metrics(eng, tr, from, m);
    }
    if !last.campaigns.is_empty() {
        fuzz_metrics(&last.campaigns, tr.total(from, "difftest.run_campaign"), m);
    }
}

/// The runner's counters and per-cell times for the pass whose spans start
/// at `from`, from the engine's own `RunMetrics`.
fn runner_metrics(eng: &Engine, tr: &Tracer, from: usize, m: &mut Layers) {
    let rm = eng.run_metrics("perfbench");
    let hits = rm.memo_hits + rm.disk_hits;
    let requests = rm.cells.len() as f64;
    m.set("runner.requests", requests);
    m.set("runner.computed", rm.cells_computed as f64);
    m.set("runner.memo_hits", hits as f64);
    m.set("runner.hit_rate", hits as f64 / requests.max(1.0));
    m.set("runner.corrupt_lines", rm.corrupt_lines as f64);
    let compute = rm.compute_wall_us as f64 / 1e6;
    m.set("runner.compute_s", compute);
    let hit_wall: f64 = rm
        .cells
        .iter()
        .filter(|c| c.disposition != "computed")
        .map(|c| c.wall_us as f64 / 1e6)
        .sum();
    let calls = tr.total(from, "runner.cell") + tr.total(from, "runner.prefetch");
    m.set("runner.overhead_s", (calls - compute).max(0.0) + hit_wall);
    let mut walls: Vec<f64> = rm
        .cells
        .iter()
        .filter(|c| c.disposition == "computed")
        .map(|c| c.wall_us as f64 / 1e3)
        .collect();
    walls.sort_by(f64::total_cmp);
    m.set("runner.cells_timed", walls.len() as f64);
    m.set("runner.cell_p50_ms", median(&walls));
    // The highest whole percentile with at least ten cells beyond it.
    let n = walls.len();
    if n > 10 {
        let pct = (100 * (n - 10)) / n;
        let idx = (pct * n).div_ceil(100).saturating_sub(1);
        m.set("runner.cell_tail_pct", pct as f64);
        m.set("runner.cell_tail_ms", walls[idx]);
    }
}

/// The difftest counters of one pass, summed over its campaigns (each
/// campaign has its own coverage map, so edges add up per campaign).
fn fuzz_metrics(campaigns: &[FuzzSummary], campaign_s: f64, m: &mut Layers) {
    let sum = |f: fn(&FuzzSummary) -> u64| campaigns.iter().map(f).sum::<u64>() as f64;
    let (trials, execs, edges) = (
        sum(|s| s.trials),
        sum(FuzzSummary::execs),
        sum(|s| s.edges as u64),
    );
    m.set("difftest.trials", trials);
    m.set("difftest.execs", execs);
    m.set(
        "difftest.rejected_frac",
        sum(|s| s.rejected) / trials.max(1.0),
    );
    m.set("difftest.failed", sum(|s| s.failed));
    m.set("difftest.edges", edges);
    m.set("difftest.execs_per_edge", execs / edges.max(1.0));
    m.set("difftest.trial_ms", campaign_s * 1e3 / trials.max(1.0));
}

/// Programs and study inputs built once per (workload, budget, seed) in the
/// deep pass, as the engine shares them.
#[derive(Default)]
struct Shared {
    programs: HashMap<(&'static str, u64, u64), Arc<Program>>,
    inputs: HashMap<(&'static str, u64, u64), Arc<StudyInput>>,
}

impl Shared {
    fn program(
        &mut self,
        w: Workload,
        n: u64,
        seed: u64,
        key: u64,
        tr: &mut Tracer,
    ) -> Arc<Program> {
        let id = (w.name(), n, seed);
        if let Some(p) = self.programs.get(&id) {
            return Arc::clone(p);
        }
        let program = tr.time(key, "workloads.build", || {
            Arc::new(w.build(&WorkloadParams {
                scale: w.scale_for(n),
                seed,
            }))
        });
        self.programs.insert(id, Arc::clone(&program));
        program
    }

    fn input(
        &mut self,
        w: Workload,
        n: u64,
        seed: u64,
        key: u64,
        tr: &mut Tracer,
        m: &mut Layers,
    ) -> Arc<StudyInput> {
        let program = self.program(w, n, seed, key, tr);
        let id = (w.name(), n, seed);
        if let Some(i) = self.inputs.get(&id) {
            return Arc::clone(i);
        }
        let input = tr.time(key, "ideal.input", || {
            Arc::new(StudyInput::build(&program, n).expect("workloads are valid programs"))
        });
        m.add("emu.traces", 1.0);
        m.add("emu.insts", input.len() as f64);
        self.inputs.insert(id, Arc::clone(&input));
        input
    }
}

/// Recompute the workload's cells through the layers' own functions.
fn deep_phase(
    args: &Args,
    prepared: &Prepared,
    eng: Option<&Engine>,
    tr: &mut Tracer,
    m: &mut Layers,
    gate: &mut Gate,
) {
    let mut shared = Shared::default();
    let mut failed = 0u64;
    // A replay simulates nothing.
    let cells = match prepared {
        Prepared::Replay { .. } => &[],
        _ => prepared.cells(),
    };
    for spec in cells {
        let key = spec.key().0;
        let cell = tr.enter(key, "deep.cell");
        let ok = catch_unwind(AssertUnwindSafe(|| deep_cell(spec, &mut shared, tr, m))).is_ok();
        tr.exit(cell);
        failed += u64::from(!ok);
    }
    m.add("emu.distinct", shared.programs.len() as f64);
    if let Prepared::Fuzz(campaigns) = prepared {
        for i in 0..FUZZ_DEEP_TRIALS {
            let tseed = trial_seed(campaigns[0].seed, i);
            let trial = tr.enter(tseed, "deep.trial");
            let ok = catch_unwind(AssertUnwindSafe(|| deep_trial(tseed, tr, m))).is_ok();
            tr.exit(trial);
            failed += u64::from(!ok);
        }
    }
    gate.check(failed == 0, || format!("deep pass: {failed} cells failed"));
    match (prepared, eng) {
        (Prepared::Sweep { sweep, .. }, Some(eng)) => {
            let mut bytes = 0usize;
            for spec in prepared.cells() {
                let out = eng.cell(spec);
                let canonical = spec.canonical();
                let line = tr.time(spec.key().0, "runner.persist.encode", || {
                    render_cache_line(&canonical, &out)
                });
                bytes += line.len() + 1;
            }
            m.set("runner.persist.bytes", bytes as f64);
            m.set(
                "runner.persist.encode_s",
                tr.total(0, "runner.persist.encode"),
            );
            explore_layers(eng, sweep, args.seed, tr, m);
        }
        (Prepared::Replay { sweep, cache, .. }, Some(eng)) => {
            let path = cache.join(CACHE_FILE);
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            m.set("runner.persist.bytes", text.len() as f64);
            let mut bad = 0u64;
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                let parsed = tr.time(0, "runner.persist.decode", || parse_cache_line(line));
                bad += u64::from(parsed.is_none());
            }
            gate.check(bad == 0, || format!("{bad} cache lines fail to decode"));
            m.set(
                "runner.persist.decode_s",
                tr.total(0, "runner.persist.decode"),
            );
            explore_layers(eng, sweep, args.seed, tr, m);
        }
        _ => {}
    }
}

/// Time the grid's parse and expansion, and the Pareto reduction alone over
/// a warm engine's report.
fn explore_layers(eng: &Engine, sweep: &Sweep, seed: u64, tr: &mut Tracer, m: &mut Layers) {
    let start = tr.spans().len();
    tr.time(0, "explore.expand", || {
        Sweep::parse(GRID_SWEEP)
            .expect("grid preset parses")
            .expand(GRID_INSTRUCTIONS, seed)
    });
    m.set("explore.expand_s", tr.total(start, "explore.expand"));
    let report = ExploreReport::build(eng, sweep, GRID_INSTRUCTIONS, seed);
    for front in &report.workloads {
        let pts: Vec<(f64, f64)> = front.points.iter().map(|p| (p.cost, p.ipc)).collect();
        tr.time(0, "explore.pareto", || {
            let f = pareto_front(&pts);
            knee(&pts, &f)
        });
    }
    m.set("explore.pareto_s", tr.total(start, "explore.pareto"));
}

fn deep_cell(spec: &CellSpec, shared: &mut Shared, tr: &mut Tracer, m: &mut Layers) {
    let key = spec.key().0;
    match *spec {
        CellSpec::Detailed {
            workload,
            config,
            instructions,
            seed,
        } => {
            let program = shared.program(workload, instructions, seed, key, tr);
            core_run(&program, config, instructions, key, tr, m);
        }
        CellSpec::Ideal {
            workload,
            model,
            window,
            instructions,
            seed,
        } => {
            let input = shared.input(workload, instructions, seed, key, tr, m);
            ideal_run(&input, model, window, key, tr, m);
        }
        CellSpec::Study {
            workload,
            instructions,
            seed,
        } => {
            let _ = shared.input(workload, instructions, seed, key, tr, m);
        }
    }
}

/// One generated fuzz trial: its program, trace, three detailed machines
/// and six idealized models, as `check_program` runs them.
fn deep_trial(tseed: u64, tr: &mut Tracer, m: &mut Layers) {
    let spec = TrialSpec::generate(tseed);
    let program = tr.time(tseed, "workloads.build", || {
        random_structured(spec.program_seed, spec.size_hint).emit()
    });
    let Ok(trace) = tr.time(tseed, "emu.run_trace", || {
        run_trace(&program, spec.max_insts)
    }) else {
        return;
    };
    m.add("emu.distinct", 1.0);
    m.add("emu.traces", 1.0);
    m.add("emu.insts", trace.len() as f64);
    for (_, config) in spec.detailed_variants() {
        core_run(&program, config, spec.max_insts, tseed, tr, m);
    }
    let input = tr.time(tseed, "ideal.input", || {
        StudyInput::build(&program, spec.max_insts)
    });
    let Ok(input) = input else { return };
    m.add("emu.traces", 1.0);
    m.add("emu.insts", input.len() as f64);
    for model in ModelKind::ALL {
        ideal_run(&input, model, spec.ideal_window, tseed, tr, m);
    }
}

/// One detailed cell: the reconvergence map on its own, then the profiled
/// simulation, whose span tree splits the core's time.
fn core_run(
    program: &Program,
    config: PipelineConfig,
    n: u64,
    key: u64,
    tr: &mut Tracer,
    m: &mut Layers,
) {
    tr.time(key, "cfg.recon", || {
        drop(ReconDetector::new(program, config.recon))
    });
    let span = tr.enter(key, "core.simulate_profiled");
    let run = simulate_profiled(program, config, n, MetricsProbe::new(), SpanProfiler::new())
        .expect("cells run valid programs");
    let wall = tr.exit(span);
    let p = &run.profiler;
    let secs = |name: &str| p.total_of(name).as_secs_f64();
    for name in [
        "setup",
        "emu_trace",
        "cycle_loop",
        "complete",
        "recovery",
        "retire",
        "fetch",
        "issue",
    ] {
        tr.record(span, core_span(name), secs(name), p.calls_of(name));
    }
    let (setup, emu, cycle_loop) = (secs("setup"), secs("emu_trace"), secs("cycle_loop"));
    m.add("core.wall_s", wall);
    m.add("core.init_s", (wall - setup - cycle_loop).max(0.0));
    m.add("core.setup_s", setup);
    m.add("core.oracle_s", (setup - emu).max(0.0));
    m.add("emu.trace_s", emu);
    m.add("emu.traces", 1.0);
    m.add("emu.insts", run.stats.retired as f64);
    m.add("core.cycle_loop_s", cycle_loop);
    for (metric, name) in [
        ("core.complete_s", "complete"),
        ("core.recovery_s", "recovery"),
        ("core.retire_s", "retire"),
        ("core.fetch_s", "fetch"),
        ("core.issue_s", "issue"),
    ] {
        m.add(metric, secs(name));
    }
    m.add("core.cycles", run.stats.cycles as f64);
    m.add("core.retired", run.stats.retired as f64);
    m.add("core.fetched", run.activity.fetched as f64);
    m.add("core.idle_cycles", run.activity.idle_cycles as f64);
}

fn core_span(name: &str) -> &'static str {
    match name {
        "setup" => "core.setup",
        "emu_trace" => "emu.emu_trace",
        "cycle_loop" => "core.cycle_loop",
        "complete" => "core.complete",
        "recovery" => "core.recovery",
        "retire" => "core.retire",
        "fetch" => "core.fetch",
        _ => "core.issue",
    }
}

fn ideal_run(
    input: &StudyInput,
    model: ModelKind,
    window: usize,
    key: u64,
    tr: &mut Tracer,
    m: &mut Layers,
) {
    let config = IdealConfig {
        model,
        window,
        ..IdealConfig::default()
    };
    let r = tr.time(key, "ideal.simulate", || simulate_ideal(input, &config));
    m.add("ideal.cells", 1.0);
    m.add("ideal.retired", r.retired as f64);
}

/// Totals and ratios of the deep pass.
fn derive_deep(tr: &Tracer, from: usize, m: &mut Layers) {
    m.add("emu.trace_s", tr.total(from, "emu.run_trace"));
    if m.get("emu.traces") > 0.0 {
        m.set(
            "emu.trace_reuse",
            m.get("emu.distinct") / m.get("emu.traces"),
        );
    }
    m.set("cfg.recon_s", tr.total(from, "cfg.recon"));
    m.set("workloads.build_s", tr.total(from, "workloads.build"));
    m.set("workloads.builds", tr.calls(from, "workloads.build") as f64);
    m.set("ideal.input_s", tr.total(from, "ideal.input"));
    m.set("ideal.inputs", tr.calls(from, "ideal.input") as f64);
    let model_s = tr.total(from, "ideal.simulate");
    m.set("ideal.model_s", model_s);
    if m.get("ideal.retired") > 0.0 {
        m.set("ideal.ns_per_inst", model_s * 1e9 / m.get("ideal.retired"));
    }
    if m.get("core.cycles") > 0.0 {
        m.set(
            "core.host_ns_per_cycle",
            m.get("core.cycle_loop_s") * 1e9 / m.get("core.cycles"),
        );
        m.set(
            "core.mips",
            m.get("core.retired") / m.get("core.wall_s") / 1e6,
        );
        m.set(
            "core.retired_per_fetched",
            m.get("core.retired") / m.get("core.fetched"),
        );
        m.set(
            "core.idle_frac",
            m.get("core.idle_cycles") / m.get("core.cycles"),
        );
    }
    // The share of the deep cells' time no layer call accounts for.
    let spans = &tr.spans()[from..];
    let cells: f64 = spans
        .iter()
        .filter(|s| s.name.starts_with("deep."))
        .map(|s| s.dur_ns as f64)
        .sum();
    let inner: f64 = spans
        .iter()
        .filter(|s| {
            s.parent
                .is_some_and(|p| tr.spans()[p].name.starts_with("deep.") && s.start_ns.is_some())
        })
        .map(|s| s.dur_ns as f64)
        .sum();
    if cells > 0.0 {
        m.set("trace.deep_uncovered_frac", 1.0 - inner / cells);
    }
}
