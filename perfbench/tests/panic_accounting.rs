//! A panicking cell's failure accounting: the cell is one failed operation,
//! the timed phase still ends, and the result line reports the failure with
//! `"correct":false`.

use control_independence::ci_core::PipelineConfig;
use control_independence::ci_explore::Sweep;
use control_independence::ci_runner::CellSpec;
use control_independence::ci_workloads;
use control_independence::experiments::{all_experiment_cells, Scale};
use perfbench::{
    distinct, end_to_end, result_line, timed_phase, Args, Gate, Meter, Prepared, ScratchDir, Tally,
    Workload, GRID_INSTRUCTIONS,
};

/// A detailed cell the core rejects when it builds the pipeline: a
/// reorder-buffer segment of size zero.
fn panicking_cell(seed: u64) -> CellSpec {
    let config = PipelineConfig {
        segment: 0,
        ..PipelineConfig::default()
    };
    CellSpec::Detailed {
        workload: ci_workloads::Workload::ALL[0],
        config,
        instructions: GRID_INSTRUCTIONS,
        seed,
    }
}

/// Run one pass of `prepared` and return the phase's failed count and the
/// result line.
fn run_once(name: &str, workload: Workload, seed: u64, prepared: &Prepared) -> (u64, String) {
    let work_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let args = Args {
        workload,
        seed,
        seconds: 1.0,
        trace: false,
        root: ".".into(),
        work_dir: work_dir.clone(),
    };
    let scratch = ScratchDir::new(&work_dir).expect("scratch dir");
    let mut gate = Gate::default();
    let phase = timed_phase(
        &args,
        prepared,
        &scratch,
        0.0,
        Meter::default(),
        Tally::default(),
        &mut gate,
    );
    assert_eq!(phase.tally.times.len(), 1, "a zero budget runs one pass");
    let tally = &phase.tally;
    let line = result_line(
        &mut gate,
        tally.attempted,
        tally.failed,
        &end_to_end(tally, &[1.0]),
    );
    (tally.failed, line)
}

#[test]
fn a_panicking_paper_cell_is_one_failed_operation() {
    let seed = 0xC0DE;
    let scale = Scale {
        instructions: GRID_INSTRUCTIONS,
        seed,
    };
    let mut cells: Vec<CellSpec> = distinct(&all_experiment_cells(&scale))
        .into_iter()
        .take(3)
        .collect();
    cells.push(panicking_cell(seed));
    let prepared = Prepared::Paper { scale, cells };
    let (failed, line) = run_once("panic-paper", Workload::PaperTables, seed, &prepared);
    assert_eq!(failed, 1);
    assert!(
        line.starts_with(r#"{"correct":false,"attempted":4,"failed":1,"metrics":{"#),
        "{line}"
    );
}

#[test]
fn a_panicking_grid_cell_is_one_failed_operation() {
    let seed = 0xC0DE;
    let sweep = Sweep::parse("smoke-grid").expect("smoke-grid preset parses");
    let mut cells = distinct(&sweep.expand(GRID_INSTRUCTIONS, seed));
    cells.push(panicking_cell(seed));
    let attempted = cells.len();
    let prepared = Prepared::Sweep { sweep, cells };
    let (failed, line) = run_once("panic-grid", Workload::GridSweep, seed, &prepared);
    assert_eq!(failed, 1);
    assert!(
        line.starts_with(&format!(
            r#"{{"correct":false,"attempted":{attempted},"failed":1,"metrics":{{"#
        )),
        "{line}"
    );
}
