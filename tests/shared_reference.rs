//! One architectural reference per (workload, budget, seed).
//!
//! The engine builds each workload's correct-path reference once; every
//! detailed cell borrows it and the study input behind the ideal and study
//! cells shares its trace. Sharing must be invisible in every output, and a
//! test hook that corrupts one pipeline's reference must never reach a
//! sibling pipeline on the same reference.

use control_independence::ci_explore::Sweep;
use control_independence::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

const INSTRUCTIONS: u64 = 3_000;
const SEED: u64 = 0x5EED;

fn smoke_grid() -> Vec<CellSpec> {
    Sweep::parse("smoke-grid")
        .expect("smoke-grid preset must parse")
        .expand(INSTRUCTIONS, SEED)
}

/// Every smoke-grid cell, plus BASE, CI, CI-I and a CI machine on the
/// hardware heuristics (no post-dominator map) for each workload.
fn detailed_cells() -> Vec<CellSpec> {
    let heuristics = PipelineConfig {
        recon: ReconStrategy::hardware(true, true, true),
        ..PipelineConfig::ci(128)
    };
    let mut cells = smoke_grid();
    for workload in Workload::ALL {
        for config in [
            PipelineConfig::base(128),
            PipelineConfig::ci(128),
            PipelineConfig::ci_instant(128),
            heuristics,
        ] {
            cells.push(CellSpec::Detailed {
                workload,
                config,
                instructions: INSTRUCTIONS,
                seed: SEED,
            });
        }
    }
    cells
}

#[test]
fn engine_cells_match_standalone_simulation() {
    let engine = Engine::serial();
    for spec in detailed_cells() {
        let CellSpec::Detailed {
            workload,
            config,
            instructions,
            seed,
        } = spec
        else {
            unreachable!("only detailed cells are listed")
        };
        let program = workload.build(&WorkloadParams {
            scale: workload.scale_for(instructions),
            seed,
        });
        let (stats, probe) =
            simulate_probed(&program, config, instructions, MetricsProbe::new()).unwrap();
        assert_eq!(
            engine.cell(&spec),
            CellOutput::Detailed { stats, probe },
            "{}",
            spec.canonical()
        );
    }
}

#[test]
fn engine_builds_one_reference_per_trace() {
    let engine = Engine::serial();
    engine.prefetch(&smoke_grid());
    assert_eq!(engine.cells_computed(), 90);
    assert_eq!(engine.shared().references_built(), Workload::ALL.len());

    for workload in Workload::ALL {
        let study = CellSpec::Study {
            workload,
            instructions: INSTRUCTIONS,
            seed: SEED,
        };
        let ideal = CellSpec::Ideal {
            workload,
            model: ModelKind::WrFd,
            window: 64,
            instructions: INSTRUCTIONS,
            seed: SEED,
        };
        let _ = (engine.cell(&study), engine.cell(&ideal));
        let reference = engine.shared().reference(workload, INSTRUCTIONS, SEED);
        let input = engine.shared().study_input(workload, INSTRUCTIONS, SEED);
        assert!(
            std::ptr::eq(reference.trace().insts(), input.trace().insts()),
            "{workload:?}: the study input must share the reference's trace"
        );
    }
    assert_eq!(engine.shared().references_built(), Workload::ALL.len());
}

#[test]
fn corrupting_one_pipeline_leaves_its_sibling_clean() {
    let config = PipelineConfig::ci(64);
    let reference = ArchRef::build(random_program(11, 40), 5_000).unwrap();
    let pristine = reference.trace()[20];
    let mut corrupted = Pipeline::new(&reference, config, NoopProbe, NoopProfiler);
    let mut sibling = Pipeline::new(&reference, config, NoopProbe, NoopProfiler);
    corrupted.corrupt_oracle_entry(20);
    assert!(
        catch_unwind(AssertUnwindSafe(|| corrupted.run())).is_err(),
        "the corrupted pipeline must trip its retirement checker"
    );

    assert_eq!(reference.trace()[20], pristine);
    let stats = sibling.run();
    assert_eq!(stats.retired, reference.trace().len() as u64);
    assert_eq!(
        stats,
        simulate(reference.program(), config, 5_000).unwrap(),
        "a sibling built before the corruption retires clean"
    );
    assert_eq!(
        Pipeline::new(&reference, config, NoopProbe, NoopProfiler).run(),
        stats,
        "a pipeline built after the corruption retires clean"
    );
}
