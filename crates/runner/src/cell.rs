//! Simulation **cells**: the unit of memoized experiment work.
//!
//! A cell is one simulation run, fully determined by its spec — workload,
//! configuration (detailed pipeline or ideal model), instruction budget and
//! workload seed. Every table and figure of the paper declares the cells it
//! needs; the engine computes each *distinct* cell exactly once and shares
//! the result across all referencing tables (e.g. the window-256 CI run
//! feeds Tables 2-4, Figure 8 and the distributions table).
//!
//! A cell's identity in the process is its spec *value*: the engine's memo
//! hashes specs field by field with [`SpecHasher`] and compares them with
//! `Eq`. The spec's canonical text form is its identity outside the
//! process: the `spec` member of a line in the on-disk cache, and (through
//! its FNV-1a hash, the [`CellKey`]) the keys in metrics reports. Two
//! specs are equal exactly when their canonical texts are, so both
//! identities name the same cells.

use crate::memo::Memo;
use ci_core::{ArchRef, Pipeline, PipelineConfig, RedispatchMode, Sensitivity, SquashMode, Stats};
use ci_ideal::{simulate as simulate_ideal, IdealConfig, IdealResult, ModelKind, StudyInput};
use ci_isa::Program;
use ci_obs::{MetricsProbe, NoopProfiler};
use ci_workloads::{Workload, WorkloadParams};
use std::fmt::{self, Write as _};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// The paper machine a detailed configuration belongs to (`base`, `ci` or
/// `ci_i`) and that machine's preset at the configuration's window.
fn machine_preset(config: &PipelineConfig) -> (&'static str, PipelineConfig) {
    let window = config.window;
    match (config.squash, config.redispatch) {
        (SquashMode::Full, _) => ("base", PipelineConfig::base(window)),
        (SquashMode::ControlIndependence, RedispatchMode::Pipelined) => {
            ("ci", PipelineConfig::ci(window))
        }
        (SquashMode::ControlIndependence, RedispatchMode::Instant) => {
            ("ci_i", PipelineConfig::ci_instant(window))
        }
    }
}

/// Append `/field=value` to `out` for each field of `config` that differs
/// from its machine's preset.
fn write_config_delta(out: &mut String, config: &PipelineConfig) {
    let preset = machine_preset(config).1;
    // Every field is bound, so a new one cannot be left out of the label;
    // the machine's preset always matches `window` and `squash`.
    let PipelineConfig {
        width,
        window: _,
        segment,
        squash: _,
        recon,
        redispatch,
        preemption,
        completion,
        hide_false_mispredictions,
        repredict,
        oracle_ghr,
        cache,
        latencies,
        predictor_bits,
        conf_threshold,
        check,
    } = *config;
    macro_rules! delta {
        ($($field:ident),*) => {$(
            if $field != preset.$field {
                let _ = write!(out, "/{}={:?}", stringify!($field), $field);
            }
        )*};
    }
    delta!(width, segment);
    if recon != preset.recon {
        let on = [
            (recon.postdominator, "postdom"),
            (recon.returns, "return"),
            (recon.loops, "loop"),
            (recon.ltb, "ltb"),
        ]
        .into_iter()
        .filter_map(|(enabled, name)| enabled.then_some(name))
        .collect::<Vec<_>>()
        .join("+");
        let _ = write!(out, "/recon={}", if on.is_empty() { "none" } else { &on });
    }
    delta!(
        redispatch,
        preemption,
        completion,
        hide_false_mispredictions,
        repredict,
        oracle_ghr,
        cache,
        latencies,
        predictor_bits,
        conf_threshold,
        check
    );
}

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

/// A fast hasher for the engine's in-process keys: cell specs, which hash
/// as some thirty small integers, and their canonical texts. Each 64-bit
/// word is folded into the state with one 64×64→128-bit multiply, where
/// SipHash spends a full round per word. It does not resist keys chosen to
/// collide, and need not: every key comes from the program's own tables,
/// sweeps and cache file, and a collision costs an extra comparison, never
/// a wrong cell.
#[derive(Clone, Copy, Debug)]
pub struct SpecHasher(u64);

/// Builds a [`SpecHasher`] for hash maps and sets.
pub type SpecHash = BuildHasherDefault<SpecHasher>;

impl Default for SpecHasher {
    fn default() -> Self {
        SpecHasher(0x243f_6a88_85a3_08d3)
    }
}

impl Hasher for SpecHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        let product = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
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
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
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
    /// Canonical text form: the spec's identity outside the process, as
    /// the `spec` member of a cache line and (hashed) the key of reports.
    /// Two specs have the same text exactly when they are equal, that is,
    /// when every simulation-relevant parameter matches.
    #[must_use]
    pub fn canonical(&self) -> String {
        let mut text = String::new();
        self.write_canonical(&mut text);
        text
    }

    /// Append [`CellSpec::canonical`] to `out`.
    pub(crate) fn write_canonical(&self, out: &mut String) {
        let _ = match self {
            CellSpec::Detailed {
                workload,
                config,
                instructions,
                seed,
            } => write!(
                out,
                "detailed w={} n={instructions} seed={seed:#x} cfg={config:?}",
                workload.name()
            ),
            CellSpec::Ideal {
                workload,
                model,
                window,
                instructions,
                seed,
            } => write!(
                out,
                "ideal w={} n={instructions} seed={seed:#x} model={model:?} window={window}",
                workload.name()
            ),
            CellSpec::Study {
                workload,
                instructions,
                seed,
            } => write!(
                out,
                "study w={} n={instructions} seed={seed:#x}",
                workload.name()
            ),
        };
    }

    /// Content-hash key of [`CellSpec::canonical`].
    #[must_use]
    pub fn key(&self) -> CellKey {
        CellKey(fnv1a(self.canonical().as_bytes()))
    }

    /// Short human label for metrics reports. A detailed cell names its
    /// [`CellSpec::family`] and each configuration field that differs from
    /// that family's preset at the cell's window
    /// (`detailed/jpeg/ci_w32/width=4`), so distinct cells of one budget and
    /// seed get distinct labels.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            CellSpec::Detailed {
                workload, config, ..
            } => {
                let mut label = format!("detailed/{}/{}", workload.name(), self.family());
                write_config_delta(&mut label, config);
                label
            }
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
    #[must_use]
    pub fn family(&self) -> String {
        match self {
            CellSpec::Detailed { config, .. } => {
                format!("{}_w{}", machine_preset(config).0, config.window)
            }
            CellSpec::Ideal { model, window, .. } => format!("{model:?}_w{window}").to_lowercase(),
            CellSpec::Study { .. } => "study".to_owned(),
        }
    }

    /// The reuse class of a detailed cell: the cells that can serve one
    /// another, named by this spec with its configuration reduced to its
    /// [`Sensitivity::reuse_class`]. `None` for ideal and study cells,
    /// which serve nothing.
    pub(crate) fn reuse_class(&self) -> Option<CellSpec> {
        match *self {
            CellSpec::Detailed {
                workload,
                config,
                instructions,
                seed,
            } => Some(CellSpec::Detailed {
                workload,
                config: Sensitivity::reuse_class(&config),
                instructions,
                seed,
            }),
            CellSpec::Ideal { .. } | CellSpec::Study { .. } => None,
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
// but outputs live behind an `Arc` in the memo either way — boxing would
// only add a second allocation.
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

    #[test]
    fn detailed_labels_name_the_family_and_its_changed_fields() {
        assert_eq!(base_spec().label(), "detailed/go/ci_w256");
        let config = PipelineConfig {
            width: 4,
            recon: ci_core::ReconStrategy::hardware(true, true, true),
            redispatch: RedispatchMode::Instant,
            preemption: ci_core::Preemption::Optimal,
            ..PipelineConfig::base(32)
        };
        let spec = CellSpec::Detailed {
            workload: Workload::JpegLike,
            config,
            instructions: 1000,
            seed: 7,
        };
        assert_eq!(
            spec.label(),
            "detailed/jpeg/base_w32/width=4/recon=return+loop+ltb/redispatch=Instant/preemption=Optimal"
        );
    }
}
