//! One architectural reference per (workload, budget, seed), and one
//! simulation per behaviour.
//!
//! The engine builds each workload's correct-path reference once; every
//! detailed cell borrows it and the study input behind the ideal and study
//! cells shares its trace. Sharing must be invisible in every output, and a
//! test hook that corrupts one pipeline's reference must never reach a
//! sibling pipeline on the same reference. Likewise a detailed cell served
//! from a sibling run whose sensitivity record covers it must be
//! indistinguishable from simulating it.

use control_independence::ci_explore::Sweep;
use control_independence::experiments::{all_experiment_cells, Scale};
use control_independence::prelude::*;
use std::collections::{HashMap, HashSet};
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

/// The handled fields in which two configurations differ.
fn differing_fields(a: &PipelineConfig, b: &PipelineConfig) -> Vec<&'static str> {
    [
        ("window", a.window != b.window),
        ("squash", a.squash != b.squash),
        ("recon", a.recon != b.recon),
        ("redispatch", a.redispatch != b.redispatch),
        ("preemption", a.preemption != b.preemption),
        ("completion", a.completion != b.completion),
        (
            "hide_false_mispredictions",
            a.hide_false_mispredictions != b.hide_false_mispredictions,
        ),
        ("repredict", a.repredict != b.repredict),
        ("oracle_ghr", a.oracle_ghr != b.oracle_ghr),
        ("conf_threshold", a.conf_threshold != b.conf_threshold),
    ]
    .into_iter()
    .filter_map(|(name, differs)| differs.then_some(name))
    .collect()
}

/// The full grid at 2k instructions and every detailed cell of the paper's
/// tables at the golden scale, through one serial engine: every output
/// equals a standalone simulation, whether the engine simulated the cell or
/// served it from a sibling, and the served cells span every field the
/// sensitivity record handles. The paper varies `redispatch` and
/// `repredict` only on machines that redispatch, which no sibling can
/// serve across; two BASE variants per workload, which never redispatch,
/// cover those fields.
#[test]
fn served_cells_match_standalone_simulation() {
    let scale = Scale {
        instructions: 10_000,
        seed: SEED,
    };
    let mut cells = Sweep::parse("full-grid")
        .expect("full-grid preset must parse")
        .expand(2_000, SEED);
    cells.extend(all_experiment_cells(&scale));
    for workload in Workload::ALL {
        for config in [
            PipelineConfig {
                redispatch: RedispatchMode::Instant,
                ..PipelineConfig::base(256)
            },
            PipelineConfig {
                repredict: RepredictMode::None,
                ..PipelineConfig::base(256)
            },
        ] {
            cells.push(CellSpec::Detailed {
                workload,
                config,
                instructions: scale.instructions,
                seed: scale.seed,
            });
        }
    }
    let mut seen = HashSet::new();
    let detailed: Vec<CellSpec> = cells
        .into_iter()
        .filter(|c| matches!(c, CellSpec::Detailed { .. }) && seen.insert(c.canonical()))
        .collect();

    let engine = Engine::serial();
    let mut programs = HashMap::new();
    let mut configs = HashMap::new();
    let mut keys = HashMap::new();
    for spec in &detailed {
        let CellSpec::Detailed {
            workload,
            config,
            instructions,
            seed,
        } = *spec
        else {
            unreachable!("only detailed cells are kept")
        };
        configs.insert(spec.canonical(), config);
        keys.insert(spec.key(), config);
        let program = programs.entry((workload, instructions)).or_insert_with(|| {
            workload.build(&WorkloadParams {
                scale: workload.scale_for(instructions),
                seed,
            })
        });
        let (stats, probe) =
            simulate_probed(program, config, instructions, MetricsProbe::new()).unwrap();
        assert_eq!(
            engine.cell(spec),
            CellOutput::Detailed { stats, probe },
            "{}",
            spec.canonical()
        );
    }

    assert_eq!(engine.cells_computed(), detailed.len() as u64);
    let served = engine.served_cells();
    assert_eq!(served.len() as u64, engine.cells_served());
    let mut fields = HashSet::new();
    for (cell, source) in &served {
        fields.extend(differing_fields(&configs[cell], &keys[source]));
    }
    let mut missing: Vec<&str> = [
        "window",
        "squash",
        "recon",
        "redispatch",
        "preemption",
        "completion",
        "hide_false_mispredictions",
        "repredict",
        "oracle_ghr",
        "conf_threshold",
    ]
    .into_iter()
    .filter(|f| !fields.contains(f))
    .collect();
    missing.sort_unstable();
    assert!(
        missing.is_empty(),
        "no cell was served across {missing:?} ({} of {} cells served)",
        served.len(),
        detailed.len()
    );
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
