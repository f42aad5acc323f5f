//! The experiment engine: a memo cache of simulation cells fronted by the
//! [pool](crate::pool), with optional on-disk persistence and a run-level
//! [`RunMetrics`] report of where the host time went.
//!
//! A prefetch queues one job per *reuse class* — the detailed cells that
//! can serve one another: same workload, budget and seed, and equal in
//! every configuration field the [`Sensitivity`] record does not handle
//! ([`Sensitivity::reuse_class`]). The job computes its class's cells in
//! first-listed order, and a cell is served only from a run of its own
//! class that an earlier batch, or an earlier cell of the same job,
//! simulated. Then comes one job per ideal or study cell. Every worker
//! count therefore serves the same cells, from the same runs, as a serial
//! run.

use crate::cell::{CellKey, CellOutput, CellSpec, SharedInputs, SpecHash};
use crate::memo::Memo;
use crate::metrics::{CellReport, PoolReport, RunMetrics, SweepSummary};
use crate::persist::{quarantine_cache_file, write_cache_line};
use crate::pool::{run_batch, PoolStats};
use ci_core::{PipelineConfig, Sensitivity, Stats};
use ci_ideal::{IdealResult, ModelKind};
use ci_obs::MetricsProbe;
use ci_workloads::Workload;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use crate::persist::{parse_cache_line, render_cache_line};

/// File name of the persisted cell cache inside `--cache-dir`.
pub const CACHE_FILE: &str = "cells.jsonl";

/// How an [`Engine`] is configured.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Worker threads for [`Engine::prefetch`] batches. `1` is the serial
    /// reference mode; results are byte-identical for every value.
    pub workers: usize,
    /// Directory for the persistent cell cache (`cells.jsonl`), enabling
    /// resumable runs. `None` keeps the cache in memory only.
    pub cache_dir: Option<PathBuf>,
}

impl EngineOptions {
    /// Default options: workers from the `CI_WORKERS` environment variable,
    /// falling back to the machine's available parallelism; no disk cache.
    ///
    /// # Panics
    /// Panics if `CI_WORKERS` is set but not a positive integer — a
    /// malformed request must not silently degrade to a default.
    #[must_use]
    pub fn from_env() -> EngineOptions {
        let workers = match std::env::var("CI_WORKERS") {
            Ok(v) => v
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| panic!("CI_WORKERS must be a positive integer, got `{v}`")),
            Err(_) => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        };
        EngineOptions {
            workers,
            cache_dir: None,
        }
    }
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions::from_env()
    }
}

/// One recorded cell request (computed or cache hit). The key, label,
/// workload and family of its [`CellReport`] are derived from the spec only
/// when a report asks for them.
struct CellTiming {
    spec: CellSpec,
    wall: Duration,
    disposition: &'static str,
    /// The key of the simulated run a `computed` cell was served from, if
    /// it was not simulated itself.
    served_from: Option<CellKey>,
}

/// A memoized cell: its output, shared rather than copied, and whether it
/// came from the disk cache (every request for it is then a `disk_hit`).
#[derive(Clone)]
struct Memoized {
    output: Arc<CellOutput>,
    from_disk: bool,
}

/// The verified lines of the disk cache, by spec text, until their specs
/// are requested.
#[derive(Default)]
struct DiskLines {
    /// A line's output, taken by the first request for its spec. The text
    /// stays, so a replay frees nothing mid-pass.
    lines: HashMap<String, Option<Arc<CellOutput>>, SpecHash>,
    /// Lines whose output no request has taken.
    waiting: usize,
    /// The text of the spec being looked up, formatted in place.
    text: String,
}

/// A simulated detailed run that later sibling cells of its reuse class may
/// be served from: its configuration and its sensitivity record. Its output
/// stays in the memo only, under the spec the sibling's workload, budget
/// and seed rebuild with this configuration.
struct SiblingRun {
    config: PipelineConfig,
    record: Sensitivity,
}

struct Timing {
    /// Every cell request, in completion order.
    cells: Vec<CellTiming>,
    /// Pool totals across prefetch batches.
    pool: PoolReport,
}

/// Parallel, memoizing executor of simulation [cells](CellSpec).
///
/// Every distinct cell is computed exactly once per engine (and, with a
/// cache directory, once per *cache*, across process runs); all tables and
/// figures referencing the cell share the result. Cell outputs are pure
/// functions of their specs, so the rendered experiment output is
/// byte-identical for every worker count.
///
/// A detailed cell need not be simulated at all when an already simulated
/// *sibling* of its reuse class made every configuration decision the
/// cell's configuration would have made (its [`Sensitivity`] record
/// [covers](Sensitivity::covers) the cell): the cell then shares the
/// sibling's output. A served cell still counts as computed;
/// [`Engine::cells_served`] counts how many were, and the
/// [`RunMetrics`] cell list names each one's source run.
///
/// The memo is keyed by the spec value. A spec's canonical text is
/// formatted only where it leaves the process: to find the spec's line in
/// the disk cache on its first request, to write the cache, and in reports.
pub struct Engine {
    workers: usize,
    cache_dir: Option<PathBuf>,
    cells: Memo<CellSpec, Memoized, SpecHash>,
    shared: SharedInputs,
    timing: Mutex<Timing>,
    /// The verified disk-cache lines. The first request for a spec moves
    /// its output into `cells`; [`Engine::save_cache`] writes back the ones
    /// never requested.
    disk: Mutex<DiskLines>,
    /// Simulated detailed runs per reuse class (named by
    /// [`CellSpec::reuse_class`]), in registration order.
    siblings: Mutex<HashMap<CellSpec, Vec<SiblingRun>, SpecHash>>,
    computed: AtomicU64,
    served: AtomicU64,
    hits: AtomicU64,
    corrupt: AtomicU64,
    loaded: AtomicU64,
    /// Cache files quarantined because they contained corrupt lines.
    quarantined: Mutex<Vec<PathBuf>>,
    /// The design-space sweep this run executed, if the caller noted one
    /// (surfaces in [`RunMetrics`]).
    sweep: Mutex<Option<SweepSummary>>,
}

impl Engine {
    /// An engine with explicit options. Loads the persisted cache (if any)
    /// tolerantly: an unreadable file is treated as empty, and corrupt
    /// lines (a byte that is not UTF-8 makes its line corrupt) are dropped
    /// and counted, never trusted.
    #[must_use]
    pub fn new(opts: EngineOptions) -> Engine {
        let e = Engine {
            workers: opts.workers.max(1),
            cache_dir: opts.cache_dir,
            cells: Memo::new(),
            shared: SharedInputs::new(),
            timing: Mutex::new(Timing {
                cells: Vec::new(),
                pool: PoolReport::default(),
            }),
            disk: Mutex::new(DiskLines::default()),
            siblings: Mutex::new(HashMap::default()),
            computed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            quarantined: Mutex::new(Vec::new()),
            sweep: Mutex::new(None),
        };
        if let Some(dir) = e.cache_dir.clone() {
            e.load_cache(&dir.join(CACHE_FILE));
        }
        e
    }

    /// A single-threaded engine with no disk cache — the deterministic
    /// reference configuration used by tests.
    #[must_use]
    pub fn serial() -> Engine {
        Engine::new(EngineOptions {
            workers: 1,
            cache_dir: None,
        })
    }

    /// An in-memory engine with `workers` threads.
    #[must_use]
    pub fn with_workers(workers: usize) -> Engine {
        Engine::new(EngineOptions {
            workers,
            cache_dir: None,
        })
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The programs, architectural references and study inputs this
    /// engine's cells share; they live as long as the engine.
    #[must_use]
    pub fn shared(&self) -> &SharedInputs {
        &self.shared
    }

    /// Cells computed by simulation in this process.
    #[must_use]
    pub fn cells_computed(&self) -> u64 {
        self.computed.load(Ordering::Relaxed)
    }

    /// Computed cells that were served from a sibling run instead of
    /// simulated (a subset of [`Engine::cells_computed`]).
    #[must_use]
    pub fn cells_served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Cell requests served from memory (or the loaded disk cache).
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Corrupt lines rejected while loading the disk cache.
    #[must_use]
    pub fn corrupt_lines(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// Cells loaded from the disk cache.
    #[must_use]
    pub fn cells_loaded(&self) -> u64 {
        self.loaded.load(Ordering::Relaxed)
    }

    /// Cache files quarantined at load because they contained corrupt lines.
    #[must_use]
    pub fn quarantined_files(&self) -> Vec<PathBuf> {
        self.quarantined.lock().unwrap().clone()
    }

    /// Record the shape of the design-space sweep this run executes, so it
    /// surfaces in [`Engine::run_metrics`]. The last note wins.
    pub fn note_sweep(&self, summary: SweepSummary) {
        *self.sweep.lock().unwrap() = Some(summary);
    }

    /// Compute (or fetch) every distinct cell in `specs` on the pool at the
    /// configured width: one job per reuse class, then one per ideal or
    /// study cell (see the module docs). Later lookups of these cells are
    /// pure cache hits, so callers can assemble tables serially and
    /// deterministically afterwards.
    pub fn prefetch(&self, specs: &[CellSpec]) {
        self.prefetch_batch(specs, false);
    }

    /// [`Engine::prefetch`] with per-cell panic isolation: a cell whose
    /// computation panics is counted in [`PoolStats::panicked`] and skipped
    /// — the memo unpoisons the key, so a later [`Engine::cell`] call
    /// computes it again — while every other cell, the later cells of its
    /// class included, completes normally. Returns this batch's stats.
    pub fn prefetch_isolated(&self, specs: &[CellSpec]) -> PoolStats {
        self.prefetch_batch(specs, true)
    }

    /// Compute the distinct missing cells of `specs` as one pool batch,
    /// isolating panics when `isolate`, and fold the batch's stats into
    /// the run's pool report.
    fn prefetch_batch(&self, specs: &[CellSpec], isolate: bool) -> PoolStats {
        let mut seen = HashSet::with_hasher(SpecHash::default());
        let mut class_jobs: HashMap<CellSpec, usize, SpecHash> = HashMap::default();
        let mut jobs: Vec<Vec<&CellSpec>> = Vec::new();
        let mut singles = Vec::new();
        for spec in specs {
            if self.cells.seed_with(spec, || self.take_from_disk(spec)) || !seen.insert(spec) {
                continue;
            }
            match spec.reuse_class() {
                Some(class) => {
                    let job = *class_jobs.entry(class).or_insert_with(|| {
                        jobs.push(Vec::new());
                        jobs.len() - 1
                    });
                    jobs[job].push(spec);
                }
                None => singles.push(vec![spec]),
            }
        }
        // The classes first: they are the long jobs.
        jobs.append(&mut singles);
        if jobs.is_empty() {
            return PoolStats::default();
        }
        let panicked = AtomicU64::new(0);
        let run = |cells: Vec<&CellSpec>| {
            for spec in cells {
                if !isolate {
                    let _ = self.output(spec);
                } else if catch_unwind(AssertUnwindSafe(|| self.output(spec))).is_err() {
                    panicked.fetch_add(1, Ordering::Relaxed);
                }
            }
        };
        let mut stats = run_batch(
            self.workers,
            jobs.into_iter().map(|cells| || run(cells)).collect(),
        );
        stats.panicked = panicked.into_inner();
        let mut timing = self.timing.lock().unwrap();
        timing.pool.batches += 1;
        timing.pool.stats.absorb(&stats);
        stats
    }

    /// The output of one cell, computed on the calling thread if missing.
    /// A copy of [`Engine::output`].
    #[must_use]
    pub fn cell(&self, spec: &CellSpec) -> CellOutput {
        CellOutput::clone(&self.output(spec))
    }

    /// The memoized output of one cell, shared rather than copied. A
    /// missing cell is read from the disk cache if its line was loaded,
    /// served from a covering sibling run if one was simulated, and
    /// simulated on the calling thread otherwise.
    #[must_use]
    pub fn output(&self, spec: &CellSpec) -> Arc<CellOutput> {
        let started = Instant::now();
        let mut served_from = None;
        let mut record = None;
        let (entry, computed) = self.cells.get_or_compute(spec.clone(), || {
            if let Some(entry) = self.take_from_disk(spec) {
                return entry;
            }
            let output = if let Some((source, output)) = self.sibling_output(spec) {
                served_from = Some(source.key());
                output
            } else {
                let (output, r) = spec.compute_recorded(&self.shared);
                record = r;
                Arc::new(output)
            };
            Memoized {
                output,
                from_disk: false,
            }
        });
        let wall = started.elapsed();
        let disposition = if entry.from_disk {
            self.hits.fetch_add(1, Ordering::Relaxed);
            "disk_hit"
        } else if computed {
            self.computed.fetch_add(1, Ordering::Relaxed);
            if served_from.is_some() {
                self.served.fetch_add(1, Ordering::Relaxed);
            }
            // Registered only now that the output is in the memo, so a
            // sibling that finds the run can always read its output.
            if let (Some(record), CellSpec::Detailed { config, .. }, Some(class)) =
                (record, spec, spec.reuse_class())
            {
                self.siblings
                    .lock()
                    .unwrap()
                    .entry(class)
                    .or_default()
                    .push(SiblingRun {
                        config: *config,
                        record,
                    });
            }
            "computed"
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            "memo_hit"
        };
        self.timing.lock().unwrap().cells.push(CellTiming {
            spec: spec.clone(),
            wall,
            disposition,
            served_from,
        });
        entry.output
    }

    /// The memo entry of `spec`'s line in the disk cache, taken from the
    /// lines no request has reached yet. The spec's text is formatted only
    /// while such lines remain.
    fn take_from_disk(&self, spec: &CellSpec) -> Option<Memoized> {
        let mut disk = self.disk.lock().unwrap();
        let DiskLines {
            lines,
            waiting,
            text,
        } = &mut *disk;
        if *waiting == 0 {
            return None;
        }
        text.clear();
        spec.write_canonical(text);
        let output = lines.get_mut(text.as_str())?.take()?;
        *waiting -= 1;
        Some(Memoized {
            output,
            from_disk: true,
        })
    }

    /// The spec and output of a simulated sibling run of its reuse class
    /// whose record covers the detailed cell `spec`, if there is one.
    fn sibling_output(&self, spec: &CellSpec) -> Option<(CellSpec, Arc<CellOutput>)> {
        let CellSpec::Detailed {
            workload,
            config,
            instructions,
            seed,
        } = *spec
        else {
            return None;
        };
        let source = {
            let siblings = self.siblings.lock().unwrap();
            let run = siblings
                .get(&spec.reuse_class()?)?
                .iter()
                .find(|run| run.record.covers(&run.config, &config))?;
            CellSpec::Detailed {
                workload,
                config: run.config,
                instructions,
                seed,
            }
        };
        let entry = self.cells.peek(&source)?;
        Some((source, entry.output))
    }

    /// Detailed-pipeline statistics for one configuration.
    #[must_use]
    pub fn stats(
        &self,
        workload: Workload,
        config: PipelineConfig,
        instructions: u64,
        seed: u64,
    ) -> Stats {
        self.output(&CellSpec::Detailed {
            workload,
            config,
            instructions,
            seed,
        })
        .stats()
        .clone()
    }

    /// Detailed-pipeline statistics plus the metrics probe.
    #[must_use]
    pub fn probed(
        &self,
        workload: Workload,
        config: PipelineConfig,
        instructions: u64,
        seed: u64,
    ) -> (Stats, MetricsProbe) {
        let out = self.output(&CellSpec::Detailed {
            workload,
            config,
            instructions,
            seed,
        });
        (out.stats().clone(), out.probe().clone())
    }

    /// Idealized-model result for one configuration.
    #[must_use]
    pub fn ideal(
        &self,
        workload: Workload,
        model: ModelKind,
        window: usize,
        instructions: u64,
        seed: u64,
    ) -> IdealResult {
        match *self.output(&CellSpec::Ideal {
            workload,
            model,
            window,
            instructions,
            seed,
        }) {
            CellOutput::Ideal(r) => r,
            ref other => panic!("ideal cell produced {other:?}"),
        }
    }

    /// Study-input summary `(trace length, predictions, mispredictions)`.
    #[must_use]
    pub fn study(&self, workload: Workload, instructions: u64, seed: u64) -> (u64, u64, u64) {
        match *self.output(&CellSpec::Study {
            workload,
            instructions,
            seed,
        }) {
            CellOutput::Study {
                len,
                predictions,
                mispredictions,
            } => (len, predictions, mispredictions),
            ref other => panic!("study cell produced {other:?}"),
        }
    }

    /// The run-level [`RunMetrics`] report: labelled per-cell costs
    /// (slowest first) with the run each served cell came from, cache hit
    /// rates by disposition, and the pool's statistics.
    #[must_use]
    pub fn run_metrics(&self, binary: &str) -> RunMetrics {
        let timing = self.timing.lock().unwrap();
        let mut cells: Vec<CellReport> = timing
            .cells
            .iter()
            .map(|t| CellReport {
                key: t.spec.key().to_string(),
                label: t.spec.label(),
                workload: t.spec.workload_name(),
                family: t.spec.family(),
                wall_us: u64::try_from(t.wall.as_micros()).unwrap_or(u64::MAX),
                disposition: t.disposition,
                served_from: t.served_from.map(|key| key.to_string()),
            })
            .collect();
        cells.sort_by(|a, b| b.wall_us.cmp(&a.wall_us).then_with(|| a.key.cmp(&b.key)));
        let disk_hits = timing
            .cells
            .iter()
            .filter(|t| t.disposition == "disk_hit")
            .count() as u64;
        let compute_wall_us: u64 = timing
            .cells
            .iter()
            .filter(|t| t.disposition == "computed")
            .map(|t| u64::try_from(t.wall.as_micros()).unwrap_or(u64::MAX))
            .sum();
        RunMetrics {
            binary: binary.to_owned(),
            workers: self.workers,
            cells_computed: self.cells_computed(),
            cells_served: self.cells_served(),
            memo_hits: self.cache_hits().saturating_sub(disk_hits),
            disk_hits,
            cells_loaded: self.cells_loaded(),
            corrupt_lines: self.corrupt_lines(),
            quarantined_files: self.quarantined.lock().unwrap().len() as u64,
            compute_wall_us,
            cells,
            pool: timing.pool.clone(),
            sweep: self.sweep.lock().unwrap().clone(),
        }
    }

    fn load_cache(&self, path: &Path) {
        let Ok(bytes) = std::fs::read(path) else {
            return; // first run: nothing persisted yet
        };
        // Bytes that are not UTF-8 become U+FFFD: the lines that hold them
        // fail their checks and count as corrupt, and the others load.
        let text = String::from_utf8_lossy(&bytes);
        let mut corrupt_here = 0u64;
        let mut first_bad: Option<usize> = None;
        let mut disk = self.disk.lock().unwrap();
        for (index, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_cache_line(line) {
                Some((spec, output)) => {
                    if let Entry::Vacant(line) = disk.lines.entry(spec) {
                        line.insert(Some(Arc::new(output)));
                        disk.waiting += 1;
                    }
                    self.loaded.fetch_add(1, Ordering::Relaxed);
                }
                None => {
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    corrupt_here += 1;
                    first_bad.get_or_insert(index + 1);
                }
            }
        }
        // A corrupt cache file is evidence, not garbage: move it to
        // `<cache-dir>/quarantine/` with a reason header instead of
        // silently rewriting over it. The valid lines are already loaded,
        // and the next save rewrites a clean file.
        if corrupt_here > 0 {
            if let Some(dir) = &self.cache_dir {
                let reason = format!(
                    "{corrupt_here} corrupt line(s), first at line {}",
                    first_bad.unwrap_or(0)
                );
                if let Ok(qpath) = quarantine_cache_file(dir, path, &bytes, &reason) {
                    self.quarantined.lock().unwrap().push(qpath);
                }
            }
        }
    }

    /// Persist every cell to `<cache-dir>/cells.jsonl`, atomically
    /// (write-to-temp then rename) and sorted by spec text so the file is
    /// deterministic: the memoized cells and the loaded lines no request
    /// reached. A no-op without a cache directory.
    ///
    /// # Errors
    /// Propagates filesystem errors (directory creation, write, rename).
    pub fn save_cache(&self) -> std::io::Result<()> {
        let Some(dir) = &self.cache_dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        // One line at a time, rendered from the memo and the loaded lines
        // without cloning an output: rendering the whole file into one
        // string would set the run's peak memory.
        let entries = self.cells.entries();
        let disk = self.disk.lock().unwrap();
        let mut cells: Vec<(Cow<'_, str>, &CellOutput)> =
            entries
                .iter()
                .map(|(spec, entry)| (Cow::Owned(spec.canonical()), &*entry.output))
                .chain(disk.lines.iter().filter_map(|(spec, output)| {
                    Some((Cow::from(spec.as_str()), &**output.as_ref()?))
                }))
                .collect();
        cells.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let path = dir.join(CACHE_FILE);
        let tmp = dir.join(format!("{CACHE_FILE}.tmp.{}", std::process::id()));
        {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            let mut line = String::new();
            for (spec, output) in cells {
                line.clear();
                write_cache_line(&mut line, &spec, output);
                line.push('\n');
                f.write_all(line.as_bytes())?;
            }
            f.into_inner()
                .map_err(std::io::IntoInnerError::into_error)?
                .sync_all()?;
        }
        std::fs::rename(&tmp, &path)
    }
}
