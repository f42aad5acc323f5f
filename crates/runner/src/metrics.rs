//! Run-level performance metrics: everything the engine knows about where
//! a run's host time went, in one machine-readable report.
//!
//! [`RunMetrics`] aggregates per-cell wall times (labelled by workload and
//! configuration family, with their cache disposition and, for a cell
//! served from a sibling run, that run's key), the memo/disk cache
//! counters, and the pool's statistics. Exported by every experiment
//! binary via `--metrics <path>` as a single JSON object
//! (`run_metrics/v2`); its [`RunMetrics::summary`] goes to stderr.
//!
//! Wall times are *host-side* measurements: they vary run to run and are
//! deliberately excluded from the byte-compared `--json` artifacts. Which
//! cells were served, and from which runs, does not vary with the worker
//! count.

use crate::pool::PoolStats;
use ci_obs::JsonValue;

/// One cell request: how it was satisfied and what it cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellReport {
    /// Content-hash key of the spec.
    pub key: String,
    /// Short human label (`detailed/go/ci_w256/width=4`, ...).
    pub label: String,
    /// Workload name.
    pub workload: &'static str,
    /// Configuration family (`ci_w256`, `oracle_w256`, `study`, ...).
    pub family: String,
    /// Wall time of the request, µs (≈0 for cache hits).
    pub wall_us: u64,
    /// `computed`, `memo_hit`, or `disk_hit`.
    pub disposition: &'static str,
    /// The key of the simulated sibling run a `computed` cell was served
    /// from; `None` for a simulated cell or a hit.
    pub served_from: Option<String>,
}

/// Shape of the design-space sweep a run executed (attached by the
/// explorer via [`Engine::note_sweep`](crate::Engine::note_sweep), absent
/// for ordinary table/figure runs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepSummary {
    /// Canonical sweep text.
    pub spec: String,
    /// Distinct grid configurations after normalization.
    pub configs: u64,
    /// Distinct simulation cells (configs × workloads).
    pub cells: u64,
    /// Workloads swept.
    pub workloads: u64,
}

impl SweepSummary {
    /// The summary as a JSON object (nested under `"sweep"` in
    /// `run_metrics/v2`).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("spec", JsonValue::Str(self.spec.clone())),
            ("configs", self.configs.into()),
            ("cells", self.cells.into()),
            ("workloads", self.workloads.into()),
        ])
    }
}

/// Statistics of the engine's pool, summed over every prefetch batch of the
/// run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolReport {
    /// Prefetch batches executed.
    pub batches: u64,
    /// Accumulated batch statistics.
    pub stats: PoolStats,
}

/// The run-level metrics report (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct RunMetrics {
    /// The binary that produced the report.
    pub binary: String,
    /// Configured worker count.
    pub workers: usize,
    /// Cells computed by simulation in this process.
    pub cells_computed: u64,
    /// Computed cells served from a simulated sibling run whose sensitivity
    /// record covers them, instead of simulated (a subset of
    /// `cells_computed`).
    pub cells_served: u64,
    /// Requests served from the in-memory memo.
    pub memo_hits: u64,
    /// Requests served by cells loaded from the disk cache.
    pub disk_hits: u64,
    /// Cells loaded from the disk cache at startup.
    pub cells_loaded: u64,
    /// Corrupt lines rejected while loading the disk cache.
    pub corrupt_lines: u64,
    /// Cache files quarantined because they contained corrupt lines.
    pub quarantined_files: u64,
    /// Summed wall time of computed cells, µs.
    pub compute_wall_us: u64,
    /// Per-request reports, slowest first.
    pub cells: Vec<CellReport>,
    /// Pool statistics.
    pub pool: PoolReport,
    /// The design-space sweep this run executed, if it was an explorer run.
    pub sweep: Option<SweepSummary>,
}

impl RunMetrics {
    /// Fraction of cell requests served from a cache (0.0 when there were
    /// no requests).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let hits = self.memo_hits + self.disk_hits;
        let total = hits + self.cells_computed;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// The report as one JSON object (schema `run_metrics/v2`).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let cells: Vec<JsonValue> = self
            .cells
            .iter()
            .map(|c| {
                JsonValue::obj([
                    ("key", JsonValue::Str(c.key.clone())),
                    ("label", JsonValue::Str(c.label.clone())),
                    ("workload", c.workload.into()),
                    ("family", JsonValue::Str(c.family.clone())),
                    ("wall_us", c.wall_us.into()),
                    ("disposition", c.disposition.into()),
                    (
                        "served_from",
                        c.served_from
                            .as_ref()
                            .map_or(JsonValue::Null, |key| JsonValue::Str(key.clone())),
                    ),
                ])
            })
            .collect();
        let p = &self.pool.stats;
        JsonValue::obj([
            ("schema", JsonValue::from("run_metrics/v2")),
            ("binary", JsonValue::Str(self.binary.clone())),
            (
                "sweep",
                self.sweep
                    .as_ref()
                    .map_or(JsonValue::Null, SweepSummary::to_json),
            ),
            ("workers", self.workers.into()),
            ("cells_computed", self.cells_computed.into()),
            ("cells_served", self.cells_served.into()),
            ("memo_hits", self.memo_hits.into()),
            ("disk_hits", self.disk_hits.into()),
            ("cells_loaded", self.cells_loaded.into()),
            ("corrupt_lines", self.corrupt_lines.into()),
            ("quarantined_files", self.quarantined_files.into()),
            ("hit_rate", self.hit_rate().into()),
            ("compute_wall_us", self.compute_wall_us.into()),
            (
                "pool",
                JsonValue::obj([
                    ("batches", JsonValue::from(self.pool.batches)),
                    ("jobs", self.pool.stats.jobs.into()),
                    ("threads", p.threads.into()),
                    (
                        "wall_us",
                        u64::try_from(p.wall.as_micros()).unwrap_or(u64::MAX).into(),
                    ),
                    (
                        "busy_us",
                        u64::try_from(p.busy.as_micros()).unwrap_or(u64::MAX).into(),
                    ),
                    ("panicked", p.panicked.into()),
                    ("utilization", p.utilization().into()),
                ]),
            ),
            ("cells", JsonValue::Arr(cells)),
        ])
    }

    /// The stderr summary: the cache counters, how many computed cells were
    /// served from a sibling run, and the five slowest computed cells by
    /// label and key.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = format!(
            "cells: {} computed ({:.2}s simulated), {} cache hits, {} loaded from disk, \
             {} corrupt lines, {} workers\n",
            self.cells_computed,
            self.compute_wall_us as f64 / 1e6,
            self.memo_hits + self.disk_hits,
            self.cells_loaded,
            self.corrupt_lines,
            self.workers,
        );
        if self.cells_served > 0 {
            out.push_str(&format!(
                "  {} of the {} computed cells were served from a sibling run instead of simulated\n",
                self.cells_served, self.cells_computed
            ));
        }
        let computed = self.cells.iter().filter(|c| c.disposition == "computed");
        for c in computed.take(5) {
            out.push_str(&format!(
                "  {:>9.1}ms  {}  {}\n",
                c.wall_us as f64 / 1e3,
                c.label,
                c.key
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample() -> RunMetrics {
        RunMetrics {
            binary: "test".into(),
            workers: 2,
            cells_computed: 2,
            cells_served: 1,
            memo_hits: 5,
            disk_hits: 1,
            cells_loaded: 1,
            corrupt_lines: 0,
            quarantined_files: 0,
            compute_wall_us: 1500,
            cells: vec![CellReport {
                key: "00ff".into(),
                label: "detailed/go/w256".into(),
                workload: "go",
                family: "ci_w256".into(),
                wall_us: 1200,
                disposition: "computed",
                served_from: Some("0a0b".into()),
            }],
            pool: PoolReport {
                batches: 1,
                stats: PoolStats {
                    threads: 2,
                    jobs: 2,
                    wall: Duration::from_millis(1),
                    busy: Duration::from_millis(2),
                    panicked: 0,
                },
            },
            sweep: None,
        }
    }

    #[test]
    fn hit_rate_and_json_shape() {
        let m = sample();
        assert!((m.hit_rate() - 0.75).abs() < 1e-12);
        let v = m.to_json();
        let back = ci_obs::json::parse(&v.render()).unwrap();
        assert_eq!(back.get("schema").unwrap().as_str(), Some("run_metrics/v2"));
        assert_eq!(back.get("cells_computed").unwrap().as_i64(), Some(2));
        assert_eq!(back.get("cells_served").unwrap().as_i64(), Some(1));
        let pool = back.get("pool").unwrap();
        assert_eq!(pool.get("threads").unwrap().as_i64(), Some(2));
        assert!(pool.get("steals").is_none() && pool.get("max_queue_depth").is_none());
        let cells = back.get("cells").unwrap().as_array().unwrap();
        assert_eq!(cells[0].get("family").unwrap().as_str(), Some("ci_w256"));
        assert_eq!(
            cells[0].get("disposition").unwrap().as_str(),
            Some("computed")
        );
        assert_eq!(cells[0].get("served_from").unwrap().as_str(), Some("0a0b"));
        let summary = m.summary();
        assert!(summary.starts_with(
            "cells: 2 computed (0.00s simulated), 6 cache hits, 1 loaded from disk, \
             0 corrupt lines, 2 workers\n  1 of the 2 computed cells were served"
        ));
        assert!(
            summary.ends_with("      1.2ms  detailed/go/w256  00ff\n"),
            "{summary}"
        );
    }

    #[test]
    fn empty_run_is_safe() {
        let m = RunMetrics {
            binary: "x".into(),
            workers: 1,
            cells_computed: 0,
            cells_served: 0,
            memo_hits: 0,
            disk_hits: 0,
            cells_loaded: 0,
            corrupt_lines: 0,
            quarantined_files: 0,
            compute_wall_us: 0,
            cells: Vec::new(),
            pool: PoolReport::default(),
            sweep: None,
        };
        assert_eq!(m.hit_rate(), 0.0);
        assert!(ci_obs::json::parse(&m.to_json().render()).is_ok());
    }

    #[test]
    fn sweep_summary_round_trips() {
        let mut m = sample();
        assert!(m.to_json().get("sweep").unwrap().as_str().is_none());
        m.sweep = Some(SweepSummary {
            spec: "machine=base,ci window=64".into(),
            configs: 12,
            cells: 60,
            workloads: 5,
        });
        let v = ci_obs::json::parse(&m.to_json().render()).unwrap();
        let s = v.get("sweep").unwrap();
        assert_eq!(s.get("configs").unwrap().as_i64(), Some(12));
        assert_eq!(s.get("cells").unwrap().as_i64(), Some(60));
    }
}
