//! Determinism suite: the engine's central guarantee is that rendered
//! experiment output is **byte-identical for every worker count**.
//!
//! Simulation cells are pure functions of their specs and table assembly is
//! serial, so the pool's schedule (which varies run to run and with
//! `--workers`) must never leak into the output. This test runs the entire
//! experiment suite at a tiny scale under worker counts 1 (the serial
//! reference schedule), 4 and 8 and compares both the rendered text and the
//! JSON-lines export of every table byte for byte, and which cells were
//! served from which sibling runs.

use control_independence::ci_report::Table;
use control_independence::experiments::{run_all, Scale};
use control_independence::prelude::Engine;

/// Every served cell's key and the key of the run it was served from, in
/// key order.
fn served_pairs(engine: &Engine) -> Vec<(String, String)> {
    let mut pairs: Vec<_> = engine
        .run_metrics("determinism")
        .cells
        .into_iter()
        .filter_map(|c| Some((c.key, c.served_from?)))
        .collect();
    pairs.sort_unstable();
    pairs
}

const SCALE: Scale = Scale {
    instructions: 2_000,
    seed: 0x5EED,
};

/// Concatenate every table's text rendering and JSONL export into the two
/// byte streams a `repro all --json` run would produce.
fn render_suite(tables: &[Table]) -> (String, String) {
    let mut text = String::new();
    let mut jsonl = String::new();
    for t in tables {
        text.push_str(&t.render());
        text.push('\n');
        jsonl.push_str(&t.to_jsonl());
    }
    (text, jsonl)
}

#[test]
fn all_experiments_are_byte_identical_across_worker_counts() {
    let serial = Engine::serial();
    let (reference_text, reference_jsonl) = render_suite(&run_all(&serial, &SCALE));
    assert!(
        !reference_text.is_empty() && !reference_jsonl.is_empty(),
        "the suite must produce output for the comparison to mean anything"
    );
    let reference_served = served_pairs(&serial);
    assert!(
        serial.cells_served() > 0,
        "the suite must serve cells for the served comparison to mean anything"
    );
    assert_eq!(reference_served.len() as u64, serial.cells_served());

    for workers in [4, 8] {
        let engine = Engine::with_workers(workers);
        let (text, jsonl) = render_suite(&run_all(&engine, &SCALE));
        assert_eq!(
            reference_text, text,
            "rendered tables differ between --workers 1 and --workers {workers}"
        );
        assert_eq!(
            reference_jsonl, jsonl,
            "JSONL export differs between --workers 1 and --workers {workers}"
        );
        assert!(
            engine.cells_computed() > 0,
            "parallel engine must actually have computed cells"
        );
        assert_eq!(
            engine.cells_served(),
            serial.cells_served(),
            "served cells differ between --workers 1 and --workers {workers}"
        );
        assert_eq!(
            served_pairs(&engine),
            reference_served,
            "cells were served from other runs at --workers {workers}"
        );
    }
}

/// A second pass over the same serial engine hits the memo for every cell and
/// still reproduces the identical output — the cache layer cannot perturb it.
#[test]
fn rerun_from_warm_cache_is_byte_identical() {
    let engine = Engine::with_workers(2);
    let (cold_text, cold_jsonl) = render_suite(&run_all(&engine, &SCALE));
    let computed_cold = engine.cells_computed();
    let (warm_text, warm_jsonl) = render_suite(&run_all(&engine, &SCALE));
    assert_eq!(cold_text, warm_text);
    assert_eq!(cold_jsonl, warm_jsonl);
    assert_eq!(
        engine.cells_computed(),
        computed_cold,
        "the warm pass must be served entirely from the memo"
    );
}
