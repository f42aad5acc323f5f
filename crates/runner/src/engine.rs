//! The experiment engine: a memo cache of simulation cells fronted by the
//! work-stealing pool, with optional on-disk persistence and per-cell
//! timing exported through the `ci-obs` metrics layer.

use crate::cell::{CellKey, CellOutput, CellSpec, InputKey, SharedInputs};
use crate::memo::Memo;
use crate::metrics::{CellReport, PoolReport, RunMetrics, SweepSummary};
use crate::persist::{quarantine_cache_file, write_cache_line};
use crate::pool::{run_batch, run_batch_catching, PoolStats};
use ci_core::{PipelineConfig, Sensitivity, Stats};
use ci_ideal::{IdealResult, ModelKind};
use ci_obs::json::JsonValue;
use ci_obs::{MetricsProbe, Registry};
use ci_workloads::Workload;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
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
/// workload and family that join timing data with [`RunMetrics`] are
/// derived from the spec only when a report asks for them.
struct CellTiming {
    spec: CellSpec,
    wall: Duration,
    disposition: &'static str,
    /// The key of the simulated run a `computed` cell was served from, if
    /// it was not simulated itself.
    served_from: Option<CellKey>,
}

/// A simulated detailed run that later sibling cells — same workload,
/// budget and seed, another configuration — may be served from: its
/// configuration and its sensitivity record. Its output stays in the memo
/// only, under the spec the sibling's workload, budget and seed rebuild
/// with this configuration.
struct SiblingRun {
    config: PipelineConfig,
    record: Sensitivity,
}

struct Timing {
    /// Every cell request, in completion order.
    cells: Vec<CellTiming>,
    /// Pool scheduling totals across prefetch batches.
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
/// *sibling* — same workload, budget and seed — made every configuration
/// decision the cell's configuration would have made (its
/// [`Sensitivity`] record [covers](Sensitivity::covers) the cell): the
/// cell is then served a clone of the sibling's output. A served cell still
/// counts as computed; [`Engine::cells_served`] counts how many were.
pub struct Engine {
    workers: usize,
    cache_dir: Option<PathBuf>,
    cells: Memo<String, CellOutput>,
    shared: SharedInputs,
    timing: Mutex<Timing>,
    /// Canonical specs that were seeded from the disk cache (to classify a
    /// later hit as `disk_hit` rather than `memo_hit`).
    disk: Mutex<HashSet<String>>,
    /// Simulated detailed runs per (workload, budget, seed), in
    /// registration order.
    siblings: Mutex<HashMap<InputKey, Vec<SiblingRun>>>,
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
    /// tolerantly: unreadable files are treated as empty and corrupt lines
    /// are dropped and counted, never trusted.
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
            disk: Mutex::new(HashSet::new()),
            siblings: Mutex::new(HashMap::new()),
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

    /// Every computed cell that was served from a sibling run, as the
    /// cell's canonical spec and the sibling's key, in completion order.
    #[must_use]
    pub fn served_cells(&self) -> Vec<(String, CellKey)> {
        let timing = self.timing.lock().unwrap();
        timing
            .cells
            .iter()
            .filter_map(|t| Some((t.spec.canonical(), t.served_from?)))
            .collect()
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

    /// Compute (or fetch) every distinct cell in `specs`, using the
    /// work-stealing pool at the configured width. Later lookups of these
    /// cells are pure cache hits, so callers can assemble tables serially
    /// and deterministically afterwards.
    pub fn prefetch(&self, specs: &[CellSpec]) {
        self.prefetch_batch(specs, false);
    }

    /// [`Engine::prefetch`] with per-cell panic isolation: a cell whose
    /// computation panics is counted in [`PoolStats::panicked`] and skipped
    /// — the memo unpoisons the key, so a later [`Engine::cell`] call
    /// computes it again — while every other cell completes normally.
    /// Returns this batch's stats.
    pub fn prefetch_isolated(&self, specs: &[CellSpec]) -> PoolStats {
        self.prefetch_batch(specs, true)
    }

    /// Compute the distinct missing cells of `specs` as one pool batch,
    /// isolating panics when `catching`, and fold the batch's stats into
    /// the run's pool report.
    fn prefetch_batch(&self, specs: &[CellSpec], catching: bool) -> PoolStats {
        let mut seen = HashSet::new();
        let jobs: Vec<_> = specs
            .iter()
            .filter(|s| {
                let key = s.canonical();
                self.cells.peek_with(&key, |_| ()).is_none() && seen.insert(key)
            })
            .map(|spec| {
                let spec = spec.clone();
                move || {
                    let _ = self.cell(&spec);
                }
            })
            .collect();
        if jobs.is_empty() {
            return PoolStats::default();
        }
        let stats = if catching {
            run_batch_catching(self.workers, jobs)
        } else {
            run_batch(self.workers, jobs)
        };
        let mut timing = self.timing.lock().unwrap();
        timing.pool.batches += 1;
        timing.pool.stats.absorb(&stats);
        stats
    }

    /// The output of one cell, computed on the calling thread if missing:
    /// served from a covering sibling run if one was simulated, simulated
    /// otherwise.
    #[must_use]
    pub fn cell(&self, spec: &CellSpec) -> CellOutput {
        let canonical = spec.canonical();
        let started = Instant::now();
        let mut served_from = None;
        let mut record = None;
        let (out, computed) = self.cells.get_or_compute(canonical.clone(), || {
            if let Some((source, out)) = self.sibling_output(spec) {
                served_from = Some(source.key());
                return out;
            }
            let (out, r) = spec.compute_recorded(&self.shared);
            record = r;
            out
        });
        let wall = started.elapsed();
        let disposition = if computed {
            self.computed.fetch_add(1, Ordering::Relaxed);
            if served_from.is_some() {
                self.served.fetch_add(1, Ordering::Relaxed);
            }
            // Registered only now that the output is in the memo, so a
            // sibling that finds the run can always read its output.
            if let (
                Some(record),
                CellSpec::Detailed {
                    workload,
                    config,
                    instructions,
                    seed,
                },
            ) = (record, spec)
            {
                self.siblings
                    .lock()
                    .unwrap()
                    .entry((workload.name(), *instructions, *seed))
                    .or_default()
                    .push(SiblingRun {
                        config: *config,
                        record,
                    });
            }
            "computed"
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if self.disk.lock().unwrap().contains(&canonical) {
                "disk_hit"
            } else {
                "memo_hit"
            }
        };
        self.timing.lock().unwrap().cells.push(CellTiming {
            spec: spec.clone(),
            wall,
            disposition,
            served_from,
        });
        out
    }

    /// The spec and output of a simulated sibling run whose record covers
    /// the detailed cell `spec`, if there is one.
    fn sibling_output(&self, spec: &CellSpec) -> Option<(CellSpec, CellOutput)> {
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
                .get(&(workload.name(), instructions, seed))?
                .iter()
                .find(|run| run.record.covers(&run.config, &config))?;
            CellSpec::Detailed {
                workload,
                config: run.config,
                instructions,
                seed,
            }
        };
        let out = self.cells.peek(&source.canonical())?;
        Some((source, out))
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
        self.cell(&CellSpec::Detailed {
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
        let out = self.cell(&CellSpec::Detailed {
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
        match self.cell(&CellSpec::Ideal {
            workload,
            model,
            window,
            instructions,
            seed,
        }) {
            CellOutput::Ideal(r) => r,
            other => panic!("ideal cell produced {other:?}"),
        }
    }

    /// Study-input summary `(trace length, predictions, mispredictions)`.
    #[must_use]
    pub fn study(&self, workload: Workload, instructions: u64, seed: u64) -> (u64, u64, u64) {
        match self.cell(&CellSpec::Study {
            workload,
            instructions,
            seed,
        }) {
            CellOutput::Study {
                len,
                predictions,
                mispredictions,
            } => (len, predictions, mispredictions),
            other => panic!("study cell produced {other:?}"),
        }
    }

    /// Per-cell timing and cache counters as a `ci-obs` [`Registry`]:
    /// an aggregate `cell_wall_us` histogram, one `cell_us.<key> = micros`
    /// counter per computed cell, and `cells_*` cache counters. Export with
    /// [`Registry::to_jsonl`].
    #[must_use]
    pub fn timing_registry(&self) -> Registry {
        let mut r = Registry::new();
        r.inc("cells_computed", self.cells_computed());
        r.inc("cells_served", self.cells_served());
        r.inc("cells_cache_hits", self.cache_hits());
        r.inc("cells_loaded_from_disk", self.cells_loaded());
        r.inc("cache_corrupt_lines", self.corrupt_lines());
        r.inc(
            "cache_quarantined_files",
            self.quarantined.lock().unwrap().len() as u64,
        );
        let bounds: Vec<u64> = (0..=24).map(|p| 1u64 << p).collect(); // 1us..16s
        let timing = self.timing.lock().unwrap();
        for t in timing.cells.iter().filter(|t| t.disposition == "computed") {
            let us = u64::try_from(t.wall.as_micros()).unwrap_or(u64::MAX);
            r.observe("cell_wall_us", &bounds, us);
            r.inc(&format!("cell_us.{}", t.spec.key()), us.max(1));
        }
        r
    }

    /// The full `--timing` export: the [`Engine::timing_registry`] lines
    /// plus one labelled line per cell request —
    /// `{"metric":"cell","key":..,"label":..,"workload":..,"family":..,
    /// "wall_us":..,"disposition":"computed|memo_hit|disk_hit",
    /// "served_from":..,...}` — so timing data joins with [`RunMetrics`]
    /// without guesswork. `served_from` is the key of the sibling run a
    /// computed cell was served from, `null` for a simulated cell or a hit.
    #[must_use]
    pub fn timing_jsonl(&self, binary: &str) -> String {
        let mut out = self.timing_registry().to_jsonl(&[("binary", binary)]);
        let timing = self.timing.lock().unwrap();
        for t in &timing.cells {
            let line = JsonValue::obj([
                ("metric", JsonValue::from("cell")),
                ("key", JsonValue::Str(t.spec.key().to_string())),
                ("label", JsonValue::Str(t.spec.label())),
                ("workload", t.spec.workload_name().into()),
                ("family", JsonValue::Str(t.spec.family())),
                (
                    "wall_us",
                    u64::try_from(t.wall.as_micros()).unwrap_or(u64::MAX).into(),
                ),
                ("disposition", t.disposition.into()),
                (
                    "served_from",
                    t.served_from
                        .map_or(JsonValue::Null, |key| JsonValue::Str(key.to_string())),
                ),
                ("binary", binary.into()),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }

    /// The run-level [`RunMetrics`] report: labelled per-cell costs
    /// (slowest first), cache hit rates by disposition, and the pool's
    /// scheduling statistics.
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

    /// Human-readable timing summary: totals plus the `n` slowest cells.
    #[must_use]
    pub fn timing_summary(&self, n: usize) -> String {
        let timing = self.timing.lock().unwrap();
        let computed: Vec<&CellTiming> = timing
            .cells
            .iter()
            .filter(|t| t.disposition == "computed")
            .collect();
        let total: Duration = computed.iter().map(|t| t.wall).sum();
        let mut slowest = computed.clone();
        slowest.sort_by_key(|t| std::cmp::Reverse(t.wall));
        let mut out = format!(
            "cells: {} computed ({:.2}s simulated), {} cache hits, {} loaded from disk, {} corrupt lines, {} workers\n",
            computed.len(),
            total.as_secs_f64(),
            self.cache_hits(),
            self.cells_loaded(),
            self.corrupt_lines(),
            self.workers,
        );
        let served = self.cells_served();
        if served > 0 {
            out.push_str(&format!(
                "  {served} of the {} computed cells were served from a sibling run instead of simulated\n",
                computed.len()
            ));
        }
        for t in slowest.into_iter().take(n) {
            out.push_str(&format!(
                "  {:>9.1}ms  {}\n",
                t.wall.as_secs_f64() * 1e3,
                t.spec.canonical()
            ));
        }
        out
    }

    fn load_cache(&self, path: &Path) {
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // first run: nothing persisted yet
        };
        let mut corrupt_here = 0u64;
        let mut first_bad: Option<usize> = None;
        for (index, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match parse_cache_line(line) {
                Some((spec, output)) => {
                    self.disk.lock().unwrap().insert(spec.clone());
                    self.cells.seed(spec, output);
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
                if let Ok(qpath) = quarantine_cache_file(dir, path, &text, &reason) {
                    self.quarantined.lock().unwrap().push(qpath);
                }
            }
        }
    }

    /// Persist every computed cell to `<cache-dir>/cells.jsonl`, atomically
    /// (write-to-temp then rename) and sorted by spec so the file is
    /// deterministic. A no-op without a cache directory.
    ///
    /// # Errors
    /// Propagates filesystem errors (directory creation, write, rename).
    pub fn save_cache(&self) -> std::io::Result<()> {
        let Some(dir) = &self.cache_dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir)?;
        // One line at a time, rendered from the memo without cloning the
        // output: rendering the whole file into one string would set the
        // run's peak memory.
        let mut specs = self.cells.keys();
        specs.sort_unstable();
        let path = dir.join(CACHE_FILE);
        let tmp = dir.join(format!("{CACHE_FILE}.tmp.{}", std::process::id()));
        {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            let mut line = String::new();
            for spec in specs {
                line.clear();
                self.cells
                    .peek_with(&spec, |output| write_cache_line(&mut line, &spec, output))
                    .expect("a listed cell is ready");
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
