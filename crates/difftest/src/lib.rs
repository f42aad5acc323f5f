//! Differential co-simulation fuzzing for the control-independence suite.
//!
//! The detailed execution-driven pipeline (`ci-core`) must retire the exact
//! dynamic instruction stream the functional emulator (`ci-emu`) produces —
//! across every recovery strategy, window size, cache model and predictor
//! configuration, and through every restart/redispatch corner case. This
//! crate is the machine that hunts violations:
//!
//! 1. **Generate** — a random structured program
//!    ([`ci_workloads::random_structured`]) and a random [`TrialSpec`]
//!    sweeping [`ci_core::PipelineConfig`] (window/width/segment, all
//!    reconvergence strategies, completion models, repredict modes, cache
//!    models, predictor sizes).
//! 2. **Lockstep** — run the detailed pipeline (BASE, CI and CI-I variants)
//!    with the oracle checker armed, recording only the retired PC stream
//!    and coverage; independently compare the retired PC stream against
//!    the emulator trace, and the six idealized models of Section 2 against
//!    their paper-mandated dominance relations. A machine that fails a
//!    check is replayed once with a [`ci_obs::FlightRecorder`] as its only
//!    probe: the pipeline is deterministic and a probe only observes, so
//!    the replay fails the same way and yields the transcript of its final
//!    cycles.
//! 3. **Check invariants** — bit-exact retirement, `retired == emulated`,
//!    counter sanity, and the cross-model cycle orderings
//!    (oracle fastest, base slowest among CI models, `FD` never beats
//!    `nFD`, wasted resources never help).
//! 4. **Shrink** — on failure, delete-block and halve-iteration passes over
//!    the structured program, re-running the failing check after each edit,
//!    until a minimal reproducer remains ([`shrink`]).
//! 5. **Report** — a self-contained JSON [`Artifact`]: the shrunk program
//!    (re-emittable statement tree *and* assembled listing), the full
//!    configuration, the divergence report and the flight-recorder
//!    transcript. [`replay`] re-runs an artifact deterministically.
//!
//! [`run_campaign`] is the one loop over these steps, in rounds on the
//! `ci-runner` worker pool: trial `i` derives from [`trial_seed`]`(seed, i)`
//! (and, in coverage mode, the corpus at its round's start), so results are
//! independent of worker count and scheduling. The `ci-bench` binary `fuzz`
//! drives it from the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod corpus;
mod coverage;
mod fuzz;
mod lockstep;
mod mutate;
mod shrink;
mod spec;
mod trial;

pub use artifact::{replay, Artifact};
pub use corpus::{Corpus, CorpusEntry, SeedOrigin};
pub use coverage::TrialCoverage;
pub use fuzz::{run_campaign, silence_panics, trial_seed, FuzzMode, FuzzOptions, FuzzSummary};
pub use lockstep::{run_locked, LockstepRun};
pub use mutate::{is_well_formed, mutate, MutationKind};
pub use shrink::{shrink, ShrinkStats};
pub use spec::TrialSpec;
pub use trial::{check_program, Failure, FailureKind};
