//! Parallel experiment-execution engine for the control-independence
//! reproduction.
//!
//! The paper's evaluation is a large grid of independent simulation runs —
//! (workload × configuration × instruction budget × seed) **cells** — and
//! many tables reference the *same* cell (the window-256 CI run feeds
//! Tables 2-4, Figure 8 and the distributions table). This crate turns the
//! experiment suite into a declarative job graph over those cells:
//!
//! - [`CellSpec`] names a cell, and the spec value is the memo key. Its
//!   canonical text form (and FNV-1a content hash, [`CellKey`]) names the
//!   cell outside the process: in the disk cache and in reports.
//! - [`Engine`] computes each distinct cell **exactly once** on a
//!   `std::thread` [pool] that drains one shared job queue ([`Memo`]
//!   provides in-flight deduplication), shares [`CellOutput`]s across every
//!   referencing table, and optionally persists them as JSONL under a cache
//!   directory for resumable runs. A detailed cell may be served from an
//!   already simulated sibling of its *reuse class* (same workload, budget
//!   and seed, equal in every configuration field the sensitivity record
//!   does not handle); each class is one job that runs its cells in order.
//! - [`RunMetrics`] reports where a run's host time went: per-cell wall
//!   times, cache counters, the pool's statistics, and the run each served
//!   cell came from.
//!
//! Cell outputs are pure functions of their specs and table assembly is
//! serial. A cell is served only from a run of its own class that an
//! earlier batch, or an earlier cell of its own job, simulated. So the
//! rendered experiment output, and which cells are served from which runs,
//! are **identical for every worker count** — `--workers 1` is simply the
//! slow reference schedule. The workspace determinism suite pins this
//! guarantee.
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

pub use cell::{fnv1a, CellKey, CellOutput, CellSpec, SharedInputs, SpecHash, SpecHasher};
pub use engine::{Engine, EngineOptions, CACHE_FILE};
pub use memo::Memo;
pub use metrics::{CellReport, PoolReport, RunMetrics, SweepSummary};
pub use pool::PoolStats;
