//! End-to-end benchmark of the control-independence reproduction.
//!
//! Four workloads, each run as a single-process, one-worker closed loop:
//! the next pass starts when the previous one has ended, until the run's
//! time is up. A pass is one complete job a user runs:
//!
//! - `paper_tables`: `experiments::run_all` over a cold in-memory engine.
//! - `grid_sweep`: the `full-grid` design sweep into a fresh cache
//!   directory, reduced by `ExploreReport::build` and saved.
//! - `grid_replay`: the same report rebuilt from the cache the set-up
//!   wrote, with a fresh engine and no simulation.
//! - `fuzz_campaign`: a coverage-guided `ci_difftest::run_campaign` with an
//!   in-memory corpus.
//!
//! This library holds everything the end-to-end runner needs and calls only
//! the entry points the repository's own binaries use. Both runners run the
//! same passes: a pass calls its [`Hooks`] around each call into a layer,
//! and the traced runner (`src/bin/layers.rs`) records those calls as spans.
//! It alone adds the calls into the layers below the entry points.

use ci_difftest::{run_campaign, FuzzMode, FuzzOptions, FuzzSummary};
use control_independence::ci_explore::{ExploreReport, Sweep};
use control_independence::ci_runner::{CellSpec, Engine, EngineOptions};
use control_independence::experiments::{
    all_experiment_cells, figure8, run_all, table1, table2, table3, table4, Scale,
};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The seed whose outputs are pinned by digest: the repository's default
/// experiment seed.
pub const CANONICAL_SEED: u64 = 0x5EED;
/// Dynamic instructions per cell in `paper_tables`. The repository's
/// default is 60k; 20k keeps the cells long (the cycle loop and the ideal
/// models still dominate) while a run fits several passes.
pub const PAPER_INSTRUCTIONS: u64 = 20_000;
/// The design grid of `grid_sweep` and `grid_replay` (1300 detailed cells
/// over five traces).
pub const GRID_SWEEP: &str = "full-grid";
/// Dynamic instructions per grid cell: short, so per-cell fixed cost is a
/// large share of a cell.
pub const GRID_INSTRUCTIONS: u64 = 2_000;
/// Campaigns per `fuzz_campaign` pass. Several independent campaigns
/// average out how much one seed's corpus happens to grow.
pub const FUZZ_CAMPAIGNS: u64 = 4;
/// Trials per campaign.
pub const FUZZ_TRIALS: u64 = 200;
/// Trials per coverage round (the campaign's default).
pub const FUZZ_ROUND: usize = 24;
/// Least timed set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Least wall time of one timed set-up: a shorter set-up is repeated, in
/// batches that double so the clock is read only between batches, until
/// this much time has passed, and timed as the mean of its repeats.
const SETUP_MIN_S: f64 = 0.05;
/// Least wall time of all timed set-ups: short set-ups are timed more than
/// [`SETUP_REPS`] times, over a span long enough that a few seconds of
/// unusual host speed do not set their median.
const SETUP_MIN_TOTAL_S: f64 = 3.0;
/// The scale of the repository's golden files.
const GOLDEN_SCALE: Scale = Scale {
    instructions: 10_000,
    seed: 0x5EED,
};

/// FNV-1a digests of each workload's deterministic pass output at
/// [`CANONICAL_SEED`], pinned from the commit that introduced the benchmark.
const PINNED: [(Workload, u64); 4] = [
    (Workload::PaperTables, 0x8082_693b_995e_ff32),
    (Workload::GridSweep, 0xb03a_f119_11cc_c63e),
    (Workload::GridReplay, 0xb03a_f119_11cc_c63e),
    (Workload::FuzzCampaign, 0x470c_6f8e_a73d_8f93),
];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every paper table and figure from a cold engine.
    PaperTables,
    /// The full design grid simulated and saved to a fresh cache.
    GridSweep,
    /// The full design grid's report rebuilt from a saved cache.
    GridReplay,
    /// A coverage-guided differential fuzzing campaign.
    FuzzCampaign,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperTables,
        Workload::GridSweep,
        Workload::GridReplay,
        Workload::FuzzCampaign,
    ];

    /// The name used on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTables => "paper_tables",
            Workload::GridSweep => "grid_sweep",
            Workload::GridReplay => "grid_replay",
            Workload::FuzzCampaign => "fuzz_campaign",
        }
    }

    /// Parse a [`Workload::name`].
    #[must_use]
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether a pass simulates cells whose instructions count toward
    /// `sim_mips`.
    #[must_use]
    pub fn simulates_cells(self) -> bool {
        matches!(self, Workload::PaperTables | Workload::GridSweep)
    }
}

/// The command line shared by both runners:
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>
/// [--root <dir>] [--work-dir <dir>]`.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Workload seed (decimal or `0x` hex).
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Repository checkout holding `tests/golden/`.
    pub root: PathBuf,
    /// Directory for per-run scratch (removed after the run) and span files.
    pub work_dir: PathBuf,
}

impl Args {
    /// Parse the arguments after the program name.
    ///
    /// # Errors
    /// A message naming the missing or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut root, mut work_dir) = (PathBuf::from("."), None);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} requires a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::from_name(&value).ok_or_else(|| {
                        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload `{value}` (one of {})", names.join(", "))
                    })?);
                }
                "--seed" => seed = Some(parse_u64(&value).ok_or(format!("bad --seed `{value}`"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse::<f64>()
                            .ok()
                            .filter(|s| s.is_finite() && *s > 0.0)
                            .ok_or(format!("bad --seconds `{value}`"))?,
                    );
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                    });
                }
                "--root" => root = PathBuf::from(value),
                "--work-dir" => work_dir = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        let work_dir = work_dir.unwrap_or_else(|| root.join(".bench_build").join("perfbench"));
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            root,
            work_dir,
        })
    }
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Clear the variables the repository's binaries read, so scale, seed and
/// worker count come only from the benchmark's arguments. Call before any
/// thread starts.
pub fn hermetic_env() {
    for var in ["CI_WORKERS", "CI_REPRO_INSTRUCTIONS", "CI_REPRO_SEED"] {
        std::env::remove_var(var);
    }
}

/// A per-run scratch directory, removed when dropped.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create `<work_dir>/run-<pid>`.
    ///
    /// # Errors
    /// Propagates the directory creation error.
    pub fn new(work_dir: &Path) -> std::io::Result<ScratchDir> {
        let dir = work_dir.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// A path inside the scratch directory.
    #[must_use]
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// User plus system CPU seconds of this process, from `/proc/self/stat`.
///
/// # Panics
/// Panics where `/proc` is missing: the benchmark runs on Linux only.
#[must_use]
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15, in USER_HZ (100 on Linux) ticks.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// This process's peak resident set (`VmHWM`) in MiB, without the
/// reference table once [`reference_seconds`] has made it.
///
/// # Panics
/// Panics where `/proc` is missing: the benchmark runs on Linux only.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM is reported");
    let table_kb = if REFERENCE_TABLE.get().is_some() {
        f64::from(REFERENCE_ENTRIES) * 4.0 / 1024.0
    } else {
        0.0
    };
    (kb - table_kb) / 1024.0
}

/// Hand the heap memory freed so far back to the system, then reset this
/// process's `VmHWM` to its current resident set (Linux 4.0 and later), so
/// that [`peak_rss_mb`] reads the peak from now on. Without the first step
/// the allocator's retained free memory, about 20 MiB after a `grid_replay`
/// set-up, would set a floor under the peak.
///
/// # Errors
/// Propagates the write error where the kernel does not support the reset.
pub fn reset_peak_rss() -> std::io::Result<()> {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap pages; it
        // has no preconditions.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5")
}

/// The median of `xs` (0 for an empty slice).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 64-bit FNV-1a, the digest of pinned outputs.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The correctness gate: collects every failed check of a run.
#[derive(Debug, Default)]
pub struct Gate {
    problems: Vec<String>,
}

impl Gate {
    /// Record a failure described by `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.problems.push(msg);
        }
    }

    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }
}

/// An engine built the way the repository's binaries build it, then pinned
/// to one worker and the given cache directory.
#[must_use]
pub fn engine(cache_dir: Option<PathBuf>) -> Engine {
    let mut opts = EngineOptions::from_env();
    opts.workers = 1;
    opts.cache_dir = cache_dir;
    Engine::new(opts)
}

/// Render tables the way `all_experiments` prints them.
#[must_use]
pub fn render_tables(tables: &[control_independence::ci_report::Table]) -> String {
    let mut out = String::new();
    for t in tables {
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

/// The preflight: render Tables 1–4, Figure 8 and the `smoke-grid` explore
/// tables at the golden scale and compare them byte for byte with
/// `tests/golden/`, read now so re-blessed goldens are followed.
pub fn preflight(root: &Path, gate: &mut Gate) {
    let eng = engine(None);
    let sweep = Sweep::parse("smoke-grid").expect("smoke-grid preset parses");
    let explore = ExploreReport::build(&eng, &sweep, GOLDEN_SCALE.instructions, GOLDEN_SCALE.seed);
    let s = &GOLDEN_SCALE;
    let rendered = [
        ("table1.txt", table1(&eng, s).render()),
        ("table2.txt", table2(&eng, s).render()),
        ("table3.txt", table3(&eng, s).render()),
        ("table4.txt", table4(&eng, s).render()),
        ("figure8.txt", figure8(&eng, s).render()),
        ("explore.txt", render_tables(&explore.tables())),
    ];
    for (name, actual) in rendered {
        let path = root.join("tests").join("golden").join(name);
        match std::fs::read_to_string(&path) {
            Ok(expected) => gate.check(expected == actual, || {
                format!("preflight: {name} differs from {}", path.display())
            }),
            Err(e) => gate.check(false, || format!("preflight: read {}: {e}", path.display())),
        }
    }
}

/// What a workload's set-up hands to its timed phase.
#[derive(Debug)]
pub enum Prepared {
    /// `paper_tables`.
    Paper {
        /// Budget and seed of every cell.
        scale: Scale,
        /// The distinct cells `run_all` needs.
        cells: Vec<CellSpec>,
    },
    /// `grid_sweep` over this sweep.
    Sweep {
        /// The parsed grid.
        sweep: Sweep,
        /// The grid's distinct cells.
        cells: Vec<CellSpec>,
    },
    /// `grid_replay` of the cache the set-up built.
    Replay {
        /// The parsed grid.
        sweep: Sweep,
        /// The grid's distinct cells.
        cells: Vec<CellSpec>,
        /// Cache directory holding `cells.jsonl`.
        cache: PathBuf,
        /// The cold report's `explore_report/v1` JSON.
        cold: String,
    },
    /// `fuzz_campaign`: one campaign per options.
    Fuzz(Vec<FuzzOptions>),
}

impl Prepared {
    /// The distinct cells a pass computes or replays (none for the fuzz
    /// campaign, whose trials are not cells).
    #[must_use]
    pub fn cells(&self) -> &[CellSpec] {
        match self {
            Prepared::Paper { cells, .. }
            | Prepared::Sweep { cells, .. }
            | Prepared::Replay { cells, .. } => cells,
            Prepared::Fuzz(_) => &[],
        }
    }
}

/// The outcome of one pass.
#[derive(Default)]
pub struct PassOut {
    /// Operations the pass attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Operations completed: computed cells, cells served from the cache,
    /// or trials.
    pub ops: u64,
    /// The pass's deterministic output.
    pub text: String,
    /// The pass's engine, kept for checks after the timer stops.
    pub engine: Option<Engine>,
    /// The summaries of the pass's fuzz campaigns.
    pub campaigns: Vec<FuzzSummary>,
}

impl PassOut {
    /// Add the outcome of one part of a pass.
    pub fn absorb(&mut self, part: PassOut) {
        self.attempted += part.attempted;
        self.failed += part.failed;
        self.ops += part.ops;
        self.text.push_str(&part.text);
        self.text.push('\n');
        self.campaigns.extend(part.campaigns);
    }
}

/// What a pass calls around its work. [`Meter`] steps its timer and, when
/// tracing, records a span per call; [`Untimed`] does neither.
pub trait Hooks {
    /// Run `f`, one call into a layer, as span `name` of trace `trace`: a
    /// cell's `CellKey`, a campaign's seed, or 0 for a pass-level call.
    fn span<T>(&mut self, trace: u64, name: &'static str, f: impl FnOnce() -> T) -> T;

    /// End one step of the pass.
    fn step(&mut self);
}

/// Hooks that do nothing: for passes outside a timed phase.
#[derive(Debug, Default)]
pub struct Untimed;

impl Hooks for Untimed {
    fn span<T>(&mut self, _: u64, _: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }

    fn step(&mut self) {}
}

/// The design grid, parsed, and its distinct cells at `seed`.
///
/// # Panics
/// Panics if the preset no longer parses.
#[must_use]
pub fn grid(seed: u64) -> (Sweep, Vec<CellSpec>) {
    let sweep = Sweep::parse(GRID_SWEEP).expect("grid preset parses");
    let cells = distinct(&sweep.expand(GRID_INSTRUCTIONS, seed));
    (sweep, cells)
}

/// The distinct cells of `cells`, in first-seen order.
#[must_use]
pub fn distinct(cells: &[CellSpec]) -> Vec<CellSpec> {
    let mut seen = HashSet::new();
    cells
        .iter()
        .filter(|c| seen.insert(c.canonical()))
        .cloned()
        .collect()
}

/// The options of a pass's campaigns: coverage mode, one worker, corpus
/// and artifacts in memory only. The first campaign's seed is `seed`.
#[must_use]
pub fn fuzz_options(seed: u64) -> Vec<FuzzOptions> {
    (0..FUZZ_CAMPAIGNS)
        .map(|k| FuzzOptions {
            seed: seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            iters: Some(FUZZ_TRIALS),
            workers: 1,
            mode: FuzzMode::Coverage,
            round_size: FUZZ_ROUND,
            artifact_dir: None,
            corpus_dir: None,
            ..FuzzOptions::default()
        })
        .collect()
}

/// Set-up number `n`: the workload's inputs. The `grid_replay` cache build
/// writes to scratch directory `setup-<n>` and steps `hooks` as a pass does.
pub fn setup_once(
    args: &Args,
    scratch: &ScratchDir,
    n: usize,
    hooks: &mut impl Hooks,
    gate: &mut Gate,
) -> Prepared {
    match args.workload {
        Workload::PaperTables => {
            let scale = Scale {
                instructions: PAPER_INSTRUCTIONS,
                seed: args.seed,
            };
            Prepared::Paper {
                cells: distinct(&all_experiment_cells(&scale)),
                scale,
            }
        }
        Workload::GridSweep => {
            let (sweep, cells) = grid(args.seed);
            Prepared::Sweep { sweep, cells }
        }
        Workload::GridReplay => {
            let (sweep, cells) = grid(args.seed);
            let cache = scratch.join(&format!("setup-{n}"));
            let out = sweep_pass(&sweep, &cells, args.seed, &cache, hooks);
            gate.check(out.failed == 0, || {
                format!(
                    "set-up: {} of {} grid cells failed",
                    out.failed, out.attempted
                )
            });
            Prepared::Replay {
                sweep,
                cells,
                cache,
                cold: out.text,
            }
        }
        Workload::FuzzCampaign => Prepared::Fuzz(fuzz_options(args.seed)),
    }
}

/// At least [`SETUP_REPS`] timed set-ups, and more while they have taken
/// less than [`SETUP_MIN_TOTAL_S`]. Returns the last one and each one's
/// time in seconds at reference speed: its time in reference units, timed
/// by a [`Meter::every_step`] as a pass is, times [`REFERENCE_NOMINAL_S`].
/// For `grid_replay` every set-up's cold report must agree.
pub fn setup(args: &Args, scratch: &ScratchDir, gate: &mut Gate) -> (Prepared, Vec<f64>) {
    let mut meter = Meter::every_step();
    let mut repeats = Vec::new();
    let mut last: Option<Prepared> = None;
    let mut n = 0;
    let start = Instant::now();
    while repeats.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_TOTAL_S {
        meter.begin();
        let t0 = Instant::now();
        let (mut k, mut batch) = (0, 1);
        loop {
            for _ in 0..batch {
                let prepared = setup_once(args, scratch, n, &mut meter, gate);
                n += 1;
                if let (
                    Some(Prepared::Replay { cold: a, cache, .. }),
                    Prepared::Replay { cold: b, .. },
                ) = (&last, &prepared)
                {
                    gate.check(a == b, || "set-up: cold grid reports differ".to_owned());
                    let _ = std::fs::remove_dir_all(cache);
                }
                last = Some(prepared);
            }
            k += batch;
            if t0.elapsed().as_secs_f64() >= SETUP_MIN_S {
                break;
            }
            batch *= 2;
        }
        meter.end(0);
        repeats.push(k);
    }
    let (times, _, _) = meter.finish();
    let secs = times
        .iter()
        .zip(repeats)
        .map(|(t, k)| t.norm / f64::from(k) * REFERENCE_NOMINAL_S)
        .collect();
    (last.expect("at least one set-up"), secs)
}

/// Compute `cells` one by one with panic isolation, each in its own span,
/// in [`STEPS_PER_PASS`] batches with a step after each. Returns the cells
/// that panicked.
fn compute_cells(eng: &Engine, cells: &[CellSpec], hooks: &mut impl Hooks) -> u64 {
    let mut panicked = 0;
    for batch in cells.chunks(cells.len().div_ceil(STEPS_PER_PASS).max(1)) {
        for spec in batch {
            panicked += hooks.span(spec.key().0, "runner.cell", || {
                eng.prefetch_isolated(std::slice::from_ref(spec)).panicked
            });
        }
        hooks.step();
    }
    panicked
}

/// `paper_tables`: every table and figure from a cold in-memory engine,
/// its distinct `cells` computed with panic isolation first.
#[must_use]
pub fn paper_pass(scale: &Scale, cells: &[CellSpec], hooks: &mut impl Hooks) -> PassOut {
    let eng = hooks.span(0, "runner.engine_new", || engine(None));
    let panicked = compute_cells(&eng, cells, hooks);
    let computed = eng.cells_computed();
    // A failed cell would panic again inside `run_all`: report, don't assemble.
    let text = if panicked == 0 {
        let tables = hooks.span(0, "experiments.run_all", || run_all(&eng, scale));
        hooks.span(0, "report.render", || render_tables(&tables))
    } else {
        String::new()
    };
    PassOut {
        attempted: computed + panicked,
        failed: panicked,
        ops: computed,
        text,
        engine: Some(eng),
        campaigns: Vec::new(),
    }
}

/// `grid_sweep`: simulate the grid's `cells` into the fresh cache directory
/// `dir`, reduce them, and save the cache.
#[must_use]
pub fn sweep_pass(
    sweep: &Sweep,
    cells: &[CellSpec],
    seed: u64,
    dir: &Path,
    hooks: &mut impl Hooks,
) -> PassOut {
    let eng = hooks.span(0, "runner.engine_new", || engine(Some(dir.to_path_buf())));
    let attempted = cells.len() as u64;
    let panicked = compute_cells(&eng, cells, hooks);
    let mut text = String::new();
    let mut failed = panicked;
    if panicked == 0 {
        let report = hooks.span(0, "explore.build", || {
            ExploreReport::build(&eng, sweep, GRID_INSTRUCTIONS, seed)
        });
        text = hooks.span(0, "report.render", || report.to_json().render());
        // Cells that do not reach the cache are lost to the next run.
        if let Err(e) = hooks.span(0, "runner.persist.save", || eng.save_cache()) {
            eprintln!("perfbench: save_cache: {e}");
            failed = attempted;
        }
    }
    PassOut {
        attempted,
        failed,
        ops: eng.cells_computed(),
        text,
        engine: Some(eng),
        campaigns: Vec::new(),
    }
}

/// `grid_replay`: reopen the cache in `cache` with a fresh engine and
/// rebuild the report over the grid's `cells`. A line rejected as corrupt,
/// or a cell that has to be recomputed, is a failed operation.
#[must_use]
pub fn replay_pass(
    sweep: &Sweep,
    cells: &[CellSpec],
    seed: u64,
    cache: &Path,
    hooks: &mut impl Hooks,
) -> PassOut {
    let eng = hooks.span(0, "runner.persist.load", || {
        engine(Some(cache.to_path_buf()))
    });
    let pool = hooks.span(0, "runner.prefetch", || eng.prefetch_isolated(cells));
    let attempted = cells.len() as u64;
    let failed = (eng.corrupt_lines().max(eng.cells_computed()) + pool.panicked).min(attempted);
    let text = if pool.panicked == 0 {
        let report = hooks.span(0, "explore.build", || {
            ExploreReport::build(&eng, sweep, GRID_INSTRUCTIONS, seed)
        });
        hooks.span(0, "report.render", || report.to_json().render())
    } else {
        String::new()
    };
    PassOut {
        attempted,
        failed,
        ops: attempted - failed,
        text,
        engine: Some(eng),
        campaigns: Vec::new(),
    }
}

/// The `coverage_report/v1` JSON without its `elapsed_ms` timing.
#[must_use]
pub fn without_elapsed(json: &str) -> String {
    match json.find(",\"elapsed_ms\":") {
        Some(at) => {
            let rest = &json[at + 1..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            format!("{}{}", &json[..at], &rest[end..])
        }
        None => json.to_owned(),
    }
}

/// `fuzz_campaign`: the coverage-guided campaigns, one step each.
#[must_use]
pub fn fuzz_pass(campaigns: &[FuzzOptions], hooks: &mut impl Hooks) -> PassOut {
    let mut out = PassOut::default();
    for opts in campaigns {
        let result = hooks.span(opts.seed, "difftest.run_campaign", || run_campaign(opts));
        out.absorb(fuzz_out(opts, result));
        hooks.step();
    }
    out
}

/// The outcome of one campaign's result. Failed trials, a quarantined
/// corpus file and a harness error all count as failures.
#[must_use]
pub fn fuzz_out(opts: &FuzzOptions, result: Result<FuzzSummary, String>) -> PassOut {
    match result {
        Ok(s) => {
            let failed = (s.failed + s.quarantined.len() as u64).min(s.trials);
            PassOut {
                attempted: s.trials,
                failed,
                ops: s.trials - failed,
                text: without_elapsed(&s.coverage_json()),
                engine: None,
                campaigns: vec![s],
            }
        }
        Err(e) => {
            eprintln!("perfbench: run_campaign: {e}");
            let n = opts.iters.unwrap_or(1).max(1);
            PassOut {
                attempted: n,
                failed: n,
                ..PassOut::default()
            }
        }
    }
}

/// One pass of the prepared workload. `grid_sweep` passes write into
/// `dir`, which the caller removes.
#[must_use]
pub fn pass(prepared: &Prepared, seed: u64, dir: &Path, hooks: &mut impl Hooks) -> PassOut {
    match prepared {
        Prepared::Paper { scale, cells } => paper_pass(scale, cells, hooks),
        Prepared::Sweep { sweep, cells } => sweep_pass(sweep, cells, seed, dir, hooks),
        Prepared::Replay {
            sweep,
            cells,
            cache,
            ..
        } => replay_pass(sweep, cells, seed, cache, hooks),
        Prepared::Fuzz(campaigns) => fuzz_pass(campaigns, hooks),
    }
}

/// Checks on a pass's engine, made after its timer stopped and only when
/// every cell was computed: every detailed configuration runs with the
/// retirement checker on, and every detailed cell retires exactly its
/// trace's length. Returns the correct-path instructions of the detailed
/// and ideal cells, the work behind `sim_mips`.
pub fn check_cells(prepared: &Prepared, eng: &Engine, gate: &mut Gate) -> u64 {
    let mut insts = 0;
    for spec in prepared.cells() {
        match *spec {
            CellSpec::Detailed {
                workload,
                config,
                instructions,
                seed,
            } => {
                gate.check(config.check, || {
                    format!("{}: retirement checker is off", spec.label())
                });
                let retired = eng.cell(spec).stats().retired;
                let (len, _, _) = eng.study(workload, instructions, seed);
                gate.check(retired == len, || {
                    format!(
                        "{}: retired {retired} of a {len}-instruction trace",
                        spec.label()
                    )
                });
                insts += retired;
            }
            CellSpec::Ideal { .. } => {
                if let control_independence::ci_runner::CellOutput::Ideal(r) = eng.cell(spec) {
                    insts += r.retired;
                }
            }
            CellSpec::Study { .. } => {}
        }
    }
    insts
}

/// Whether `text` is the pinned output of `workload` at the canonical seed
/// (`None` at any other seed).
#[must_use]
pub fn canonical_match(workload: Workload, seed: u64, text: &str) -> Option<(bool, u64)> {
    if seed != CANONICAL_SEED {
        return None;
    }
    let got = fnv1a(text.as_bytes());
    let pinned = PINNED.iter().find(|(w, _)| *w == workload).map(|&(_, d)| d);
    Some((pinned == Some(got), got))
}

/// One pass's timing, in host seconds and in reference units.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassTime {
    /// Host wall-clock seconds.
    pub wall: f64,
    /// User plus system CPU seconds.
    pub cpu: f64,
    /// Operations completed.
    pub ops: u64,
    /// Wall time in reference units (see [`Meter`]).
    pub norm: f64,
    /// CPU time in reference units.
    pub cpu_norm: f64,
    /// Index of the pass's first span in the meter's tracer (0 untraced).
    pub first_span: usize,
}

/// Steps of the reference computation (about 8 ms on the development host).
const REFERENCE_STEPS: u64 = 250_000;
/// Seconds per reference unit in `setup_s`: the reference computation's
/// median time on the development host (a 2-vCPU shared virtual machine),
/// so `setup_s` reads as seconds on a host of that speed.
pub const REFERENCE_NOMINAL_S: f64 = 0.0075;
/// Least wall time between two reference samples.
const REFERENCE_GAP: f64 = 0.15;
/// Steps a cell-computing pass is cut into, so that the host's speed is
/// sampled several times within one long pass.
pub const STEPS_PER_PASS: usize = 32;

/// Entries of the reference table: 16 MiB, larger than the 2 MiB L2 cache,
/// so the reference, like the simulator, works out of the shared
/// last-level cache that other tenants of the host contend for.
const REFERENCE_ENTRIES: u32 = 1 << 22;

/// The reference table, written in full on first use and kept for the
/// process's life: it is resident in every later `VmHWM` reading, so
/// [`peak_rss_mb`] can leave it out exactly.
static REFERENCE_TABLE: OnceLock<Mutex<Vec<u32>>> = OnceLock::new();

/// Time a fixed reference computation: the host's speed right now. It mixes
/// unpredictable branches, random reads and writes over a 16 MiB table and
/// small sorts, the simulator's kind of work, and lives in the benchmark so
/// it is the same for every commit measured. Call it first thing in a
/// process, so the table predates every allocation of the program.
///
/// # Panics
/// Panics if an earlier call panicked while holding the table.
#[must_use]
pub fn reference_seconds() -> f64 {
    let mut table = REFERENCE_TABLE
        .get_or_init(|| Mutex::new((0..REFERENCE_ENTRIES).collect()))
        .lock()
        .expect("no reference computation panicked");
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
    std::hint::black_box((acc, &*table));
    t0.elapsed().as_secs_f64()
}

/// Times the steps of a run's passes and samples the host's speed with
/// [`reference_seconds`] between steps, never inside one, at most every
/// `REFERENCE_GAP` seconds (after every step for [`Meter::every_step`]).
/// A pass's reference-unit time is its time divided by the mean of the
/// samples taken from just before it to just after it: a drift in the
/// host's speed cancels, a change in the program's own cost does not. A
/// traced meter also records each [`Hooks::span`].
#[derive(Debug)]
pub struct Meter {
    reference: f64,
    sampled: Instant,
    samples: Vec<f64>,
    /// Wall instant and CPU seconds at the start of the current step.
    mark: (Instant, f64),
    /// The pass in progress, if any.
    current: Option<usize>,
    /// Passes still collecting samples: the current one, and any that
    /// ended since the last sample.
    open: Vec<usize>,
    passes: Vec<PassTime>,
    /// Sum and count of each pass's reference samples.
    refs: Vec<(f64, u32)>,
    /// The spans of a traced meter.
    tracer: Option<Tracer>,
    /// Least wall time between two reference samples.
    gap: f64,
}

impl Default for Meter {
    fn default() -> Self {
        let reference = reference_seconds();
        Meter {
            reference,
            sampled: Instant::now(),
            samples: vec![reference],
            mark: (Instant::now(), cpu_seconds()),
            current: None,
            open: Vec::new(),
            passes: Vec::new(),
            refs: Vec::new(),
            tracer: None,
            gap: REFERENCE_GAP,
        }
    }
}

impl Hooks for Meter {
    fn span<T>(&mut self, trace: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &mut self.tracer {
            Some(tracer) => tracer.time(trace, name, f),
            None => f(),
        }
    }

    fn step(&mut self) {
        Meter::step(self);
    }
}

impl Meter {
    /// A meter that also records a span per [`Hooks::span`] call.
    #[must_use]
    pub fn traced() -> Meter {
        Meter {
            tracer: Some(Tracer::default()),
            ..Meter::default()
        }
    }

    /// A meter that samples the reference after every step, so that a
    /// short pass is divided by the samples just before and just after it.
    #[must_use]
    pub fn every_step() -> Meter {
        Meter {
            gap: 0.0,
            ..Meter::default()
        }
    }

    /// Start a pass.
    pub fn begin(&mut self) {
        let i = self.passes.len();
        self.passes.push(PassTime {
            first_span: self.tracer.as_ref().map_or(0, |t| t.spans().len()),
            ..PassTime::default()
        });
        self.refs.push((self.reference, 1));
        self.current = Some(i);
        self.open.push(i);
        self.mark = (Instant::now(), cpu_seconds());
    }

    /// Close the current step of the pass and sample the host if due.
    ///
    /// # Panics
    /// Panics outside a pass.
    pub fn step(&mut self) {
        let i = self.current.expect("a pass is in progress");
        self.passes[i].wall += self.mark.0.elapsed().as_secs_f64();
        self.passes[i].cpu += cpu_seconds() - self.mark.1;
        if self.sampled.elapsed().as_secs_f64() >= self.gap {
            self.sample();
        }
        self.mark = (Instant::now(), cpu_seconds());
    }

    /// End the pass, which completed `ops` operations.
    ///
    /// # Panics
    /// Panics outside a pass.
    pub fn end(&mut self, ops: u64) {
        self.step();
        let i = self.current.take().expect("a pass is in progress");
        self.passes[i].ops = ops;
    }

    fn sample(&mut self) {
        let now = reference_seconds();
        for &i in &self.open {
            self.refs[i].0 += now;
            self.refs[i].1 += 1;
        }
        let current = self.current;
        self.open.retain(|&i| Some(i) == current);
        self.reference = now;
        self.samples.push(now);
        self.sampled = Instant::now();
    }

    /// Every pass, every reference sample in seconds, and the spans of a
    /// traced meter.
    #[must_use]
    pub fn finish(mut self) -> (Vec<PassTime>, Vec<f64>, Option<Tracer>) {
        if !self.open.is_empty() {
            self.sample();
        }
        for (p, &(sum, n)) in self.passes.iter_mut().zip(&self.refs) {
            let reference = sum / f64::from(n);
            p.norm = p.wall / reference;
            p.cpu_norm = p.cpu / reference;
        }
        (self.passes, self.samples, self.tracer)
    }
}

/// Everything a run's passes add up to.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per-pass times.
    pub times: Vec<PassTime>,
    /// Reference samples, in seconds.
    pub samples: Vec<f64>,
    /// Operations attempted over all passes.
    pub attempted: u64,
    /// Operations failed over all passes.
    pub failed: u64,
    /// Digest of the first pass's output.
    pub digest: Option<u64>,
    /// Correct-path instructions one pass simulates.
    pub sim_insts: u64,
}

impl Tally {
    fn median_of(&self, f: impl Fn(&PassTime) -> f64) -> f64 {
        median(&self.times.iter().map(f).collect::<Vec<_>>())
    }

    fn mean_of(&self, f: impl Fn(&PassTime) -> f64) -> f64 {
        self.times.iter().map(f).sum::<f64>() / self.times.len().max(1) as f64
    }

    /// Median pass wall seconds.
    #[must_use]
    pub fn wall(&self) -> f64 {
        self.median_of(|t| t.wall)
    }

    /// Median pass time in reference units.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.median_of(|t| t.norm)
    }

    /// The same measurements in host seconds: median pass wall, CPU per
    /// pass, median operations per second, and the median reference time.
    #[must_use]
    pub fn host_metrics(&self) -> Vec<Metric> {
        vec![
            ("host.wall_s", self.wall(), "s"),
            ("host.cpu_s", self.mean_of(|t| t.cpu), "s"),
            (
                "host.ops_per_s",
                self.median_of(|t| t.ops as f64 / t.wall),
                "1/s",
            ),
            ("host.ref_s", median(&self.samples), "s"),
        ]
    }
}

/// A timed phase's outcome.
pub struct Phase {
    /// What its passes add up to.
    pub tally: Tally,
    /// The last pass, kept for the traced run's layer metrics.
    pub last: PassOut,
    /// The spans of a traced phase.
    pub tracer: Option<Tracer>,
}

/// A timed phase: a closed loop of passes, back to back until `budget`
/// seconds have passed (at least one), timed by `meter`. Each pass is
/// checked after its timer stops, for determinism against `tally.digest`
/// (the first pass's digest if unset), and the previous pass is freed
/// before the next one starts.
pub fn timed_phase(
    args: &Args,
    prepared: &Prepared,
    scratch: &ScratchDir,
    budget: f64,
    mut meter: Meter,
    mut tally: Tally,
    gate: &mut Gate,
) -> Phase {
    let dir = scratch.join("pass");
    let start = Instant::now();
    let mut last = None;
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < budget {
        drop(last.take());
        meter.begin();
        let out = pass(prepared, args.seed, &dir, &mut meter);
        meter.end(out.ops);
        check_pass(args, prepared, i, &out, &mut tally, gate);
        let _ = std::fs::remove_dir_all(&dir);
        last = Some(out);
        i += 1;
    }
    let (times, samples, tracer) = meter.finish();
    tally.times = times;
    tally.samples = samples;
    Phase {
        tally,
        last: last.expect("at least one pass"),
        tracer,
    }
}

/// The checks after pass `i`, with its operations added to `tally`. The
/// first pass whose output sets `tally.digest` also gets the canonical-seed
/// digest, the cold-report match (`grid_replay`) and, if no operation
/// failed, the cell checks.
pub fn check_pass(
    args: &Args,
    prepared: &Prepared,
    i: usize,
    out: &PassOut,
    tally: &mut Tally,
    gate: &mut Gate,
) {
    tally.attempted += out.attempted;
    tally.failed += out.failed;
    gate.check(out.failed == 0, || {
        format!(
            "pass {i}: {} of {} operations failed",
            out.failed, out.attempted
        )
    });
    let digest = fnv1a(out.text.as_bytes());
    if let Some(first) = tally.digest {
        gate.check(digest == first, || {
            format!("pass {i}: output differs from the first pass")
        });
        return;
    }
    tally.digest = Some(digest);
    if let Some((ok, got)) = canonical_match(args.workload, args.seed, &out.text) {
        gate.check(ok, || {
            format!("canonical seed: output digest {got:#018x} is not the pinned one")
        });
    }
    if let Prepared::Replay { cold, .. } = prepared {
        gate.check(&out.text == cold, || {
            "replayed report differs from the cold one".to_owned()
        });
    }
    // A failed cell is not in the memo: asking for it would compute it
    // again, outside the panic isolation.
    if let (Some(eng), 0) = (&out.engine, out.failed) {
        tally.sim_insts = check_cells(prepared, eng, gate);
    }
}

/// One reported metric.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics of an untraced timed phase. Pass times are in
/// reference units (see [`Meter`]), set-up times in seconds at reference
/// speed (see [`setup`]), memory as measured since [`reset_peak_rss`].
#[must_use]
pub fn end_to_end(tally: &Tally, setup_times: &[f64]) -> Vec<Metric> {
    vec![
        ("wall_ref", tally.norm(), "ref"),
        ("cpu_ref", tally.mean_of(|t| t.cpu_norm), "ref"),
        (
            "ops_per_ref",
            tally.median_of(|t| t.ops as f64 / t.norm),
            "1/ref",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ("setup_s", median(setup_times), "s"),
    ]
}

/// The result line:
/// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
#[must_use]
pub fn result_line(gate: &mut Gate, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        gate.check(value.is_finite(), || format!("metric {name} is {value}"));
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            body,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{body}}}}}",
        gate.passed(),
        attempted.max(1),
    )
}

/// Print the [`result_line`] as the last line of standard output.
pub fn print_result(gate: &mut Gate, attempted: u64, failed: u64, metrics: &[Metric]) {
    let line = result_line(gate, attempted, failed, metrics);
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{line}").expect("stdout is writable");
    stdout.flush().expect("stdout is writable");
}

/// The per-layer metrics the traced run prints, with their units, in
/// `BENCHMARK.json` order. A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("emu.trace_s", "s"),
    ("emu.traces", "count"),
    ("emu.trace_reuse", "ratio"),
    ("emu.insts", "count"),
    ("core.init_s", "s"),
    ("core.setup_s", "s"),
    ("core.oracle_s", "s"),
    ("cfg.recon_s", "s"),
    ("core.cycle_loop_s", "s"),
    ("core.complete_s", "s"),
    ("core.recovery_s", "s"),
    ("core.retire_s", "s"),
    ("core.fetch_s", "s"),
    ("core.issue_s", "s"),
    ("core.host_ns_per_cycle", "ns"),
    ("core.mips", "MIPS"),
    ("core.cycles", "count"),
    ("core.retired", "count"),
    ("core.retired_per_fetched", "ratio"),
    ("core.idle_frac", "ratio"),
    ("ideal.input_s", "s"),
    ("ideal.inputs", "count"),
    ("ideal.model_s", "s"),
    ("ideal.cells", "count"),
    ("ideal.ns_per_inst", "ns"),
    ("runner.requests", "count"),
    ("runner.computed", "count"),
    ("runner.memo_hits", "count"),
    ("runner.hit_rate", "ratio"),
    ("runner.compute_s", "s"),
    ("runner.overhead_s", "s"),
    ("runner.cell_p50_ms", "ms"),
    ("runner.cell_tail_ms", "ms"),
    ("runner.cell_tail_pct", "%"),
    ("runner.cells_timed", "count"),
    ("runner.persist.save_s", "s"),
    ("runner.persist.encode_s", "s"),
    ("runner.persist.bytes", "bytes"),
    ("runner.persist.load_s", "s"),
    ("runner.persist.decode_s", "s"),
    ("runner.corrupt_lines", "count"),
    ("explore.expand_s", "s"),
    ("explore.reduce_s", "s"),
    ("explore.pareto_s", "s"),
    ("experiments.assemble_s", "s"),
    ("report.render_s", "s"),
    ("report.bytes", "bytes"),
    ("workloads.build_s", "s"),
    ("workloads.builds", "count"),
    ("difftest.trials", "count"),
    ("difftest.execs", "count"),
    ("difftest.rejected_frac", "ratio"),
    ("difftest.failed", "count"),
    ("difftest.edges", "count"),
    ("difftest.execs_per_edge", "ratio"),
    ("difftest.trial_ms", "ms"),
    ("sim_mips", "MIPS"),
    ("host.wall_s", "s"),
    ("host.cpu_s", "s"),
    ("host.ops_per_s", "1/s"),
    ("host.ref_s", "s"),
    ("bench.failed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
    ("trace.deep_uncovered_frac", "ratio"),
];

/// One recorded span: a benchmark-side timing of a call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Trace id: the cell's `CellKey` (or trial seed); 0 for pass-level calls.
    pub trace: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// `layer.call` name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made; `None` for a node
    /// copied from a program-side aggregate (the core's span tree).
    pub start_ns: Option<u64>,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Calls folded into this record (1 for a timed call).
    pub calls: u64,
}

/// In-memory span recorder, written out once at the end of the run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Time `f` as span `name` of trace `trace`, nested in any open span.
    pub fn time<T>(&mut self, trace: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(trace, name);
        let out = f();
        self.exit(id);
        out
    }

    /// Open span `name`; close it with [`Tracer::exit`].
    pub fn enter(&mut self, trace: u64, name: &'static str) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            trace,
            parent: self.open.last().map(|&(p, _)| p),
            name,
            start_ns: Some(u64::try_from((now - self.origin).as_nanos()).unwrap_or(u64::MAX)),
            dur_ns: 0,
            calls: 1,
        });
        self.open.push((id, now));
        id
    }

    /// Close span `id` and return its seconds. Spans still open inside it,
    /// left behind by a panic, close with it.
    ///
    /// # Panics
    /// Panics if `id` is not open.
    pub fn exit(&mut self, id: usize) -> f64 {
        loop {
            let (top, started) = self.open.pop().expect("the span is open");
            let dur = started.elapsed();
            self.spans[top].dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
            if top == id {
                return dur.as_secs_f64();
            }
        }
    }

    /// Record an aggregate child of span `parent`, copied from a program's
    /// own measurement.
    pub fn record(&mut self, parent: usize, name: &'static str, secs: f64, calls: u64) {
        self.spans.push(Span {
            trace: self.spans[parent].trace,
            parent: Some(parent),
            name,
            start_ns: None,
            dur_ns: (secs * 1e9) as u64,
            calls,
        });
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of spans named `name` recorded from index `from` on.
    #[must_use]
    pub fn total(&self, from: usize, name: &str) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e9)
            .sum()
    }

    /// Number of calls in spans named `name` recorded from index `from` on.
    #[must_use]
    pub fn calls(&self, from: usize, name: &str) -> u64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.calls)
            .sum()
    }

    /// Total seconds of the top-level timed spans recorded from `from` on.
    #[must_use]
    pub fn top_level(&self, from: usize) -> f64 {
        self.spans[from..]
            .iter()
            .filter(|s| s.parent.is_none() && s.start_ns.is_some())
            .map(|s| s.dur_ns as f64 / 1e9)
            .sum()
    }

    /// Write every span as one JSON line:
    /// `{"trace":"<hex>","id":..,"parent":..,"name":..,"start_ns":..,"dur_ns":..,"calls":..}`.
    ///
    /// # Errors
    /// Propagates file creation and write errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let start = s.start_ns.map_or("null".to_owned(), |t| t.to_string());
            let _ = writeln!(
                out,
                "{{\"trace\":\"{:016x}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{start},\"dur_ns\":{},\"calls\":{}}}",
                s.trace, s.name, s.dur_ns, s.calls
            );
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_the_driver_command_line() {
        let a = Args::parse(
            [
                "--workload",
                "grid_replay",
                "--seed",
                "0x5EED",
                "--seconds",
                "10",
                "--trace",
                "1",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(a.workload, Workload::GridReplay);
        assert_eq!(a.seed, 0x5EED);
        assert!(a.trace);
        assert!(Args::parse(["--workload", "nope"].map(String::from)).is_err());
        assert!(Args::parse(["--seed", "1"].map(String::from)).is_err());
    }

    #[test]
    fn elapsed_is_dropped_from_the_coverage_report() {
        assert_eq!(
            without_elapsed(r#"{"a":1,"elapsed_ms":1830}"#),
            r#"{"a":1}"#
        );
        assert_eq!(
            without_elapsed(r#"{"a":1,"elapsed_ms":7,"b":2}"#),
            r#"{"a":1,"b":2}"#
        );
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn per_layer_names_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let per_layer = &text[text.find("\"per_layer\"").expect("per_layer list")..];
        let names: Vec<&str> = per_layer
            .match_indices("\"name\": \"")
            .map(|(at, m)| {
                let rest = &per_layer[at + m.len()..];
                &rest[..rest.find('"').expect("closing quote")]
            })
            .collect();
        let ours: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ours);
    }
}
