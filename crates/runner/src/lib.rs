//! Parallel experiment-execution engine for the control-independence
//! reproduction.
//!
//! The paper's evaluation is a large grid of independent simulation runs —
//! (workload × configuration × instruction budget × seed) **cells** — and
//! many tables reference the *same* cell (the window-256 CI run feeds
//! Tables 2-4, Figure 8 and the distributions table). This crate turns the
//! experiment suite into a declarative job graph over those cells:
//!
//! - [`CellSpec`] names a cell; its canonical text form (and FNV-1a content
//!   hash, [`CellKey`]) is the memo key.
//! - [`Engine`] computes each distinct cell **exactly once** on a
//!   hand-rolled `std::thread` [work-stealing pool](pool) ([`Memo`] provides
//!   in-flight deduplication), shares [`CellOutput`]s across every
//!   referencing table, and optionally persists them as JSONL under a cache
//!   directory for resumable runs.
//! - Per-cell wall times are exported through the `ci-obs` metrics layer
//!   ([`Engine::timing_registry`]).
//!
//! Cell outputs are pure functions of their specs, and table assembly is
//! serial, so rendered experiment output is **byte-identical for every
//! worker count** — `--workers 1` is simply the slow reference schedule.
//! The workspace determinism suite pins this guarantee.
//!
//! Everything is std-only: the build environment has no crates.io access
//! (see the vendored `proptest` shim).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cell;
pub mod engine;
pub mod memo;
pub mod metrics;
pub mod persist;
pub mod pool;

pub use cell::{fnv1a, CellKey, CellOutput, CellSpec, SharedInputs};
pub use engine::{Engine, EngineOptions, CACHE_FILE};
pub use memo::Memo;
pub use metrics::{CellReport, PoolReport, RunMetrics, SweepSummary};
pub use pool::PoolStats;
