//! Simulation **cells**: the unit of memoized experiment work.
//!
//! A cell is one simulation run, fully determined by its spec — workload,
//! configuration (detailed pipeline or ideal model), instruction budget and
//! workload seed. Every table and figure of the paper declares the cells it
//! needs; the engine computes each *distinct* cell exactly once and shares
//! the result across all referencing tables (e.g. the window-256 CI run
//! feeds Tables 2-4, Figure 8 and the distributions table).
//!
//! Cells are keyed by a canonical text form of the spec, plus an FNV-1a
//! content hash of that form used as a compact identifier in the on-disk
//! cache and in timing reports.

use crate::memo::Memo;
use ci_core::{ArchRef, Pipeline, PipelineConfig, RedispatchMode, Sensitivity, SquashMode, Stats};
use ci_ideal::{simulate as simulate_ideal, IdealConfig, IdealResult, ModelKind, StudyInput};
use ci_isa::Program;
use ci_obs::{MetricsProbe, NoopProfiler};
use ci_workloads::{Workload, WorkloadParams};
use std::fmt;
use std::sync::Arc;

/// 64-bit FNV-1a hash of `bytes` (stable across platforms and runs).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Compact content-hash identifier of a cell spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey(pub u64);

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One memoizable simulation run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellSpec {
    /// A detailed execution-driven pipeline run (always probed with a
    /// [`MetricsProbe`]; probed and unprobed runs produce bit-identical
    /// [`Stats`], so one cell serves both kinds of consumer).
    Detailed {
        /// Workload to simulate.
        workload: Workload,
        /// Full pipeline configuration.
        config: PipelineConfig,
        /// Dynamic instruction budget.
        instructions: u64,
        /// Workload data seed.
        seed: u64,
    },
    /// An idealized-model run over the workload's study input.
    Ideal {
        /// Workload to simulate.
        workload: Workload,
        /// Which of the six idealized models.
        model: ModelKind,
        /// Instruction window size.
        window: usize,
        /// Dynamic instruction budget.
        instructions: u64,
        /// Workload data seed.
        seed: u64,
    },
    /// The workload's study-input summary (trace length, prediction counts)
    /// — Table 1's benchmark-information row.
    Study {
        /// Workload to summarize.
        workload: Workload,
        /// Dynamic instruction budget.
        instructions: u64,
        /// Workload data seed.
        seed: u64,
    },
}

impl CellSpec {
    /// Canonical text form: the memo key. Two specs collide exactly when
    /// every simulation-relevant parameter matches.
    #[must_use]
    pub fn canonical(&self) -> String {
        match self {
            CellSpec::Detailed {
                workload,
                config,
                instructions,
                seed,
            } => format!(
                "detailed w={} n={instructions} seed={seed:#x} cfg={config:?}",
                workload.name()
            ),
            CellSpec::Ideal {
                workload,
                model,
                window,
                instructions,
                seed,
            } => format!(
                "ideal w={} n={instructions} seed={seed:#x} model={model:?} window={window}",
                workload.name()
            ),
            CellSpec::Study {
                workload,
                instructions,
                seed,
            } => format!(
                "study w={} n={instructions} seed={seed:#x}",
                workload.name()
            ),
        }
    }

    /// Content-hash key of [`CellSpec::canonical`].
    #[must_use]
    pub fn key(&self) -> CellKey {
        CellKey(fnv1a(self.canonical().as_bytes()))
    }

    /// Short human label for progress and timing reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            CellSpec::Detailed {
                workload, config, ..
            } => format!("detailed/{}/w{}", workload.name(), config.window),
            CellSpec::Ideal {
                workload,
                model,
                window,
                ..
            } => format!("ideal/{}/{model:?}/w{window}", workload.name()),
            CellSpec::Study { workload, .. } => format!("study/{}", workload.name()),
        }
    }

    /// The workload this cell simulates.
    #[must_use]
    pub fn workload_name(&self) -> &'static str {
        match self {
            CellSpec::Detailed { workload, .. }
            | CellSpec::Ideal { workload, .. }
            | CellSpec::Study { workload, .. } => workload.name(),
        }
    }

    /// The configuration family: which machine this cell models, without
    /// the workload/budget/seed dimensions. Detailed cells map to the
    /// paper's machine names (`base`, `ci`, `ci_i`) plus the window size;
    /// ideal cells to the model name plus window; study cells to `study`.
    /// Joinable across `--timing` lines and `RunMetrics`.
    #[must_use]
    pub fn family(&self) -> String {
        match self {
            CellSpec::Detailed { config, .. } => {
                let machine = match (config.squash, config.redispatch) {
                    (SquashMode::Full, _) => "base",
                    (SquashMode::ControlIndependence, RedispatchMode::Pipelined) => "ci",
                    (SquashMode::ControlIndependence, RedispatchMode::Instant) => "ci_i",
                };
                format!("{machine}_w{}", config.window)
            }
            CellSpec::Ideal { model, window, .. } => format!("{model:?}_w{window}").to_lowercase(),
            CellSpec::Study { .. } => "study".to_owned(),
        }
    }

    /// Run the simulation this spec describes. Pure: the output depends only
    /// on the spec (shared program, reference and study-input builds are
    /// memoized in `shared` but do not change results).
    #[must_use]
    pub fn compute(&self, shared: &SharedInputs) -> CellOutput {
        self.compute_recorded(shared).0
    }

    /// [`CellSpec::compute`], also returning a detailed run's sensitivity
    /// record: which sibling configurations would have simulated exactly
    /// this run.
    pub(crate) fn compute_recorded(
        &self,
        shared: &SharedInputs,
    ) -> (CellOutput, Option<Sensitivity>) {
        let out = match *self {
            CellSpec::Detailed {
                workload,
                config,
                instructions,
                seed,
            } => {
                let reference = shared.reference(workload, instructions, seed);
                let mut pipeline =
                    Pipeline::new(&reference, config, MetricsProbe::new(), NoopProfiler);
                let stats = pipeline.run();
                let record = pipeline.sensitivity().clone();
                let out = CellOutput::Detailed {
                    stats,
                    probe: pipeline.into_probe(),
                };
                return (out, Some(record));
            }
            CellSpec::Ideal {
                workload,
                model,
                window,
                instructions,
                seed,
            } => {
                let input = shared.study_input(workload, instructions, seed);
                CellOutput::Ideal(simulate_ideal(
                    &input,
                    &IdealConfig {
                        model,
                        window,
                        ..IdealConfig::default()
                    },
                ))
            }
            CellSpec::Study {
                workload,
                instructions,
                seed,
            } => {
                let input = shared.study_input(workload, instructions, seed);
                CellOutput::Study {
                    len: input.len() as u64,
                    predictions: input.predictions(),
                    mispredictions: input.mispredictions(),
                }
            }
        };
        (out, None)
    }
}

/// The result of one computed cell.
// Variant sizes are wildly uneven (a detailed run carries full histograms),
// but outputs live in the memo and are handed out by clone either way —
// boxing would only move the same bytes to the heap.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CellOutput {
    /// Detailed pipeline statistics plus the standard metrics probe.
    Detailed {
        /// Aggregate counters (bit-identical to an unprobed run).
        stats: Stats,
        /// Event distributions (restart length, occupancy, reissues, ...).
        probe: MetricsProbe,
    },
    /// Idealized-model result.
    Ideal(IdealResult),
    /// Study-input summary for Table 1.
    Study {
        /// Correct-path dynamic instructions traced.
        len: u64,
        /// Control instructions that required prediction.
        predictions: u64,
        /// Mispredicted control instructions.
        mispredictions: u64,
    },
}

impl CellOutput {
    /// The detailed-run statistics; panics if this is not a detailed cell.
    #[must_use]
    pub fn stats(&self) -> &Stats {
        match self {
            CellOutput::Detailed { stats, .. } => stats,
            other => panic!("expected a detailed cell output, got {other:?}"),
        }
    }

    /// The detailed-run metrics probe; panics if this is not a detailed cell.
    #[must_use]
    pub fn probe(&self) -> &MetricsProbe {
        match self {
            CellOutput::Detailed { probe, .. } => probe,
            other => panic!("expected a detailed cell output, got {other:?}"),
        }
    }
}

/// The memo key of a workload's shared inputs: name, budget and seed.
pub(crate) type InputKey = (&'static str, u64, u64);

/// Memoized program, architectural-reference and study-input builds shared
/// by all cells of a run, each built once per (workload, budget, seed) and
/// kept for the life of the engine.
///
/// Building a workload's [`Program`] is cheap, but its [`ArchRef`] runs the
/// functional emulator over the whole instruction budget, and `full-grid`
/// simulates 260 detailed cells over each one. A [`StudyInput`] replays the
/// emulator again for its wrong paths — comparable to one simulation — and
/// Figure 3 alone references it 30 times per workload; it shares the
/// reference's trace rather than holding a copy.
#[derive(Default)]
pub struct SharedInputs {
    programs: Memo<InputKey, Arc<Program>>,
    references: Memo<InputKey, Arc<ArchRef>>,
    inputs: Memo<InputKey, Arc<StudyInput>>,
}

impl SharedInputs {
    /// A fresh, empty set.
    #[must_use]
    pub fn new() -> SharedInputs {
        SharedInputs::default()
    }

    /// The workload's program at this budget/seed, built once.
    #[must_use]
    pub fn program(&self, w: Workload, instructions: u64, seed: u64) -> Arc<Program> {
        self.programs
            .get_or_compute((w.name(), instructions, seed), || {
                Arc::new(w.build(&WorkloadParams {
                    scale: w.scale_for(instructions),
                    seed,
                }))
            })
            .0
    }

    /// The workload's architectural reference at this budget/seed, built
    /// once.
    #[must_use]
    pub fn reference(&self, w: Workload, instructions: u64, seed: u64) -> Arc<ArchRef> {
        self.references
            .get_or_compute((w.name(), instructions, seed), || {
                let program = self.program(w, instructions, seed);
                Arc::new(
                    ArchRef::build(program, instructions).expect("workloads are valid programs"),
                )
            })
            .0
    }

    /// The workload's study input at this budget/seed, built once over the
    /// shared reference's trace.
    #[must_use]
    pub fn study_input(&self, w: Workload, instructions: u64, seed: u64) -> Arc<StudyInput> {
        self.inputs
            .get_or_compute((w.name(), instructions, seed), || {
                let r = self.reference(w, instructions, seed);
                Arc::new(StudyInput::from_trace(
                    r.program(),
                    r.trace().clone(),
                    r.recon_map(),
                ))
            })
            .0
    }

    /// Number of architectural references built so far (one per distinct
    /// workload, budget and seed).
    #[must_use]
    pub fn references_built(&self) -> usize {
        self.references.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> CellSpec {
        CellSpec::Detailed {
            workload: Workload::GoLike,
            config: PipelineConfig::ci(256),
            instructions: 1000,
            seed: 7,
        }
    }

    #[test]
    fn canonical_is_stable_and_key_matches() {
        let s = base_spec();
        assert_eq!(s.canonical(), base_spec().canonical());
        assert_eq!(s.key(), base_spec().key());
        assert_eq!(s.key(), CellKey(fnv1a(s.canonical().as_bytes())));
    }

    #[test]
    fn every_parameter_feeds_the_key() {
        let s = base_spec();
        let variants = [
            CellSpec::Detailed {
                workload: Workload::GccLike,
                config: PipelineConfig::ci(256),
                instructions: 1000,
                seed: 7,
            },
            CellSpec::Detailed {
                workload: Workload::GoLike,
                config: PipelineConfig::ci(128),
                instructions: 1000,
                seed: 7,
            },
            CellSpec::Detailed {
                workload: Workload::GoLike,
                config: PipelineConfig::base(256),
                instructions: 1000,
                seed: 7,
            },
            CellSpec::Detailed {
                workload: Workload::GoLike,
                config: PipelineConfig::ci(256),
                instructions: 2000,
                seed: 7,
            },
            CellSpec::Detailed {
                workload: Workload::GoLike,
                config: PipelineConfig::ci(256),
                instructions: 1000,
                seed: 8,
            },
        ];
        for v in variants {
            assert_ne!(s.canonical(), v.canonical());
            assert_ne!(s.key(), v.key(), "{}", v.canonical());
        }
    }

    #[test]
    fn cell_kinds_never_collide() {
        let d = base_spec();
        let i = CellSpec::Ideal {
            workload: Workload::GoLike,
            model: ModelKind::Oracle,
            window: 256,
            instructions: 1000,
            seed: 7,
        };
        let st = CellSpec::Study {
            workload: Workload::GoLike,
            instructions: 1000,
            seed: 7,
        };
        assert_ne!(d.key(), i.key());
        assert_ne!(d.key(), st.key());
        assert_ne!(i.key(), st.key());
    }
}
