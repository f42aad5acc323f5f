//! Determinism and incrementality of the design-space explorer.
//!
//! The explorer's contract is the engine's, extended to thousand-cell
//! grids: the rendered `explore_report/v1` artifact is **byte-identical**
//! for every worker count and for cold versus warm disk caches, and
//! rerunning a *grown* grid against a cache directory recomputes only the
//! delta (asserted through the engine's memo/disk-hit counters, the same
//! numbers `RunMetrics` reports).

use control_independence::ci_explore::{ExploreReport, Sweep};
use control_independence::ci_runner::{
    CellSpec, Engine, EngineOptions, SpecHash, SweepSummary, CACHE_FILE,
};
use control_independence::experiments::{all_experiment_cells, Scale};
use std::collections::HashSet;
use std::path::PathBuf;

const INSTRUCTIONS: u64 = 4_000;
const SEED: u64 = 0x5EED;

fn sweep(spec: &str) -> Sweep {
    Sweep::parse(spec).unwrap_or_else(|e| panic!("`{spec}`: {e}"))
}

fn report(engine: &Engine, s: &Sweep) -> String {
    ExploreReport::build(engine, s, INSTRUCTIONS, SEED)
        .to_json()
        .render()
}

/// A fresh per-test scratch directory under the system temp dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("ci-explore-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn engine(&self) -> Engine {
        Engine::new(EngineOptions {
            workers: 1,
            cache_dir: Some(self.0.clone()),
        })
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Every served cell's key and the key of the run it was served from, in
/// key order.
fn served_pairs(engine: &Engine) -> Vec<(String, String)> {
    let mut pairs: Vec<_> = engine
        .run_metrics("explore-test")
        .cells
        .into_iter()
        .filter_map(|c| Some((c.key, c.served_from?)))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// The report, and which cells are served from which runs, are the same
/// at every worker count. The second sweep serves cells across windows
/// and preemption policies in four reuse classes (two fetch widths per
/// workload).
#[test]
fn report_is_byte_identical_across_worker_counts() {
    for (spec, serves) in [
        (
            "machine=base,ci,window=32,64,fetch=4,8,workload=go,jpeg",
            false,
        ),
        (
            "machine=base,ci,window=128,256,512,fetch=8,16,preempt=simple,optimal,\
             workload=go,compress",
            true,
        ),
    ] {
        let s = sweep(spec);
        let serial_engine = Engine::serial();
        let serial = report(&serial_engine, &s);
        let serial_served = served_pairs(&serial_engine);
        assert_eq!(serial_engine.cells_served() > 0, serves, "{spec}");
        assert_eq!(serial_served.len() as u64, serial_engine.cells_served());
        for workers in [4, 8] {
            let engine = Engine::with_workers(workers);
            let parallel = report(&engine, &s);
            assert_eq!(
                serial, parallel,
                "explore_report/v1 must be byte-identical at {workers} workers"
            );
            assert_eq!(
                engine.cells_served(),
                serial_engine.cells_served(),
                "{spec}: served cells differ at {workers} workers"
            );
            assert_eq!(
                served_pairs(&engine),
                serial_served,
                "{spec}: cells were served from other runs at {workers} workers"
            );
        }
    }
}

#[test]
fn warm_cache_rerun_is_byte_identical_and_computes_nothing() {
    let tmp = TempDir::new("warm");
    let s = sweep("machine=base,ci,window=32,64,workload=compress,conf=0,4");
    let cells = s.expand(INSTRUCTIONS, SEED).len() as u64;

    // Cold run: every cell computed, then persisted.
    let cold_engine = tmp.engine();
    let cold = report(&cold_engine, &s);
    assert_eq!(cold_engine.cells_computed(), cells);
    cold_engine.save_cache().expect("persist cells");

    // Warm run in a fresh process-equivalent: zero new cells, all disk
    // hits, byte-identical artifact.
    let warm_engine = tmp.engine();
    let warm = report(&warm_engine, &s);
    assert_eq!(warm, cold, "warm rerun must be byte-identical");
    assert_eq!(
        warm_engine.cells_computed(),
        0,
        "warm rerun must compute nothing"
    );
    assert_eq!(warm_engine.cells_loaded(), cells);
    let metrics = warm_engine.run_metrics("explore-test");
    assert_eq!(metrics.cells_computed, 0);
    assert!(
        metrics.disk_hits >= cells,
        "every grid request must be a disk hit (got {})",
        metrics.disk_hits
    );
}

#[test]
fn grown_grid_recomputes_only_the_delta() {
    let tmp = TempDir::new("grown");
    let small = sweep("machine=base,ci,window=32,64,workload=go");
    let grown = sweep("machine=base,ci,window=32,64,128,workload=go");
    let small_cells = small.expand(INSTRUCTIONS, SEED).len() as u64;
    let grown_cells = grown.expand(INSTRUCTIONS, SEED).len() as u64;
    assert!(grown_cells > small_cells);

    let first = tmp.engine();
    let _ = report(&first, &small);
    assert_eq!(first.cells_computed(), small_cells);
    first.save_cache().expect("persist cells");

    // The grown grid rides the cache for its overlap and computes exactly
    // the new window-128 column.
    let second = tmp.engine();
    let _ = report(&second, &grown);
    assert_eq!(
        second.cells_computed(),
        grown_cells - small_cells,
        "grown grid must recompute only the delta"
    );
    assert_eq!(second.cells_loaded(), small_cells);
    let metrics = second.run_metrics("explore-test");
    assert_eq!(metrics.cells_computed, grown_cells - small_cells);
    assert_eq!(metrics.disk_hits, small_cells);
}

/// The engine keeps the loaded cache lines no request reached and writes
/// them back: a save after replaying one workload of a grid leaves the
/// cache file byte-identical, and every replayed cell was a disk hit.
#[test]
fn partial_replay_keeps_the_unrequested_lines() {
    let tmp = TempDir::new("partial");
    let cold = tmp.engine();
    let _ = report(&cold, &sweep("smoke-grid"));
    cold.save_cache().expect("persist cells");
    let path = tmp.0.join(CACHE_FILE);
    let original = std::fs::read(&path).expect("read the cache");

    let warm = tmp.engine();
    let _ = report(&warm, &sweep("smoke-grid,workload=go"));
    warm.save_cache().expect("persist cells");
    assert_eq!(
        std::fs::read(&path).expect("read the cache"),
        original,
        "a save after a partial replay must rewrite every loaded line"
    );
    assert_eq!(warm.cells_computed(), 0);
    let metrics = warm.run_metrics("explore-test");
    assert!(!metrics.cells.is_empty());
    for cell in &metrics.cells {
        assert_eq!(cell.disposition, "disk_hit", "{}", cell.label);
    }
}

/// The memo keys cells by spec value, the cache and reports by canonical
/// text: over every cell of the paper's tables and the grid presets, the
/// two identities must split the cells into the same classes, or the memo
/// would merge or split cells the cache keeps apart.
#[test]
fn spec_values_and_texts_name_the_same_cells() {
    let scale = Scale {
        instructions: 2_000,
        seed: SEED,
    };
    let full = sweep("full-grid").expand(2_000, SEED);
    assert_eq!(full.len(), 1300);
    let cells: Vec<CellSpec> = all_experiment_cells(&scale)
        .into_iter()
        .chain(full)
        .chain(sweep("smoke-grid").expand(2_000, SEED))
        .chain(sweep("smoke-grid").expand(INSTRUCTIONS, SEED))
        .collect();
    let values: HashSet<&CellSpec, SpecHash> = cells.iter().collect();
    let texts: HashSet<String> = cells.iter().map(CellSpec::canonical).collect();
    let pairs: HashSet<(&CellSpec, String)> = cells.iter().map(|c| (c, c.canonical())).collect();
    assert!(
        values.len() < cells.len(),
        "the cells must share some specs"
    );
    assert_eq!(values.len(), texts.len());
    assert_eq!(pairs.len(), texts.len());
}

#[test]
fn equivalent_sweep_spellings_reduce_identically() {
    // Range forms, list forms, and preset-with-override spellings of the
    // same grid must produce the same canonical text and the same report.
    let a = sweep("machine=base,ci,window=32..=64:x2,fetch=8,workload=go");
    let b = sweep("machine=base,ci,window=32,64,fetch=8,workload=go");
    assert_eq!(a.canonical(), b.canonical());
    let engine = Engine::serial();
    assert_eq!(report(&engine, &a), report(&engine, &b));
}

#[test]
fn sweep_summary_flows_into_run_metrics() {
    let s = sweep("smoke-grid,workload=go");
    let engine = Engine::serial();
    engine.note_sweep(SweepSummary {
        spec: s.canonical(),
        configs: s.configs().len() as u64,
        cells: s.expand(INSTRUCTIONS, SEED).len() as u64,
        workloads: s.workloads.len() as u64,
    });
    let _ = report(&engine, &s);
    let metrics = engine.run_metrics("explore-test");
    let summary = metrics.sweep.clone().expect("noted sweep must surface");
    assert_eq!(summary.configs, 18);
    assert_eq!(summary.cells, 18);
    assert_eq!(summary.workloads, 1);
    let rendered = metrics.to_json().render();
    assert!(
        rendered.contains("\"sweep\":{"),
        "sweep must serialize: {rendered}"
    );
}
