//! Golden-file tests: pin the rendered text of the paper's Table 1, Table 2,
//! Table 3, Table 4, Figure 3 and Figure 8 at a small fixed scale.
//!
//! These tables fold in nearly every layer of the simulator — workload
//! generation, the emulator oracle, predictors, the detailed pipeline with
//! selective squash, and the report renderer — so any unintended behavioral
//! change anywhere shows up as a table diff. To bless an intended change,
//! regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use control_independence::ci_explore::{ExploreReport, Sweep};
use control_independence::experiments::{
    figure3, figure8, table1, table2, table3, table4, Scale, FIGURE3_WINDOWS,
};
use control_independence::prelude::Engine;
use std::path::PathBuf;

const SCALE: Scale = Scale {
    instructions: 10_000,
    seed: 0x5EED,
};

fn check_golden(name: &str, actual: &str) {
    let path: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "golden", name]
        .iter()
        .collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing {}; run with UPDATE_GOLDEN=1", path.display()));
    assert_eq!(
        expected, actual,
        "{name} drifted from the golden file; if intended, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn table1_text_is_pinned() {
    check_golden("table1.txt", &table1(&Engine::serial(), &SCALE).render());
}

#[test]
fn table2_text_is_pinned() {
    check_golden("table2.txt", &table2(&Engine::serial(), &SCALE).render());
}

#[test]
fn table3_text_is_pinned() {
    check_golden("table3.txt", &table3(&Engine::serial(), &SCALE).render());
}

#[test]
fn table4_text_is_pinned() {
    check_golden("table4.txt", &table4(&Engine::serial(), &SCALE).render());
}

#[test]
fn figure3_text_is_pinned() {
    // The six idealized models over the paper's five windows: the only
    // golden that covers `ci-ideal`.
    check_golden(
        "figure3.txt",
        &figure3(&Engine::serial(), &SCALE, &FIGURE3_WINDOWS).render(),
    );
}

#[test]
fn figure8_text_is_pinned() {
    check_golden("figure8.txt", &figure8(&Engine::serial(), &SCALE).render());
}

#[test]
fn explore_smoke_grid_is_pinned() {
    // The explorer's 3 (windows) × 3 (widths) × 2 (machines) smoke grid
    // over all five workloads: pins the sweep expansion, the grid's cell
    // results, and the Pareto/knee reduction in one artifact.
    let sweep = Sweep::parse("smoke-grid").expect("smoke-grid preset must parse");
    let report = ExploreReport::build(&Engine::serial(), &sweep, SCALE.instructions, SCALE.seed);
    let mut text = String::new();
    for table in report.tables() {
        text.push_str(&table.render());
        text.push('\n');
    }
    check_golden("explore.txt", &text);
}
