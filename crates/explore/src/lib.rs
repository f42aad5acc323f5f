//! Design-space explorer for the control-independence study.
//!
//! The paper evaluates a handful of hand-picked machine configurations;
//! this crate opens the surrounding design space. A declarative **sweep
//! grammar** ([`Sweep::parse`]) expands axis specifications — window size,
//! fetch width, confidence threshold, machine model, preemption policy,
//! branch completion model, reconvergence heuristic, workload — into
//! thousands of simulation cells, which run incrementally through the
//! memoized [`Engine`](ci_runner::Engine) (delta-only reruns against a
//! `--cache-dir`, parallel across `--workers`). The grid is
//! then reduced ([`ExploreReport::build`]) into per-workload **Pareto
//! fronts** (IPC versus hardware cost, CI benefit versus misprediction
//! rate), **knee** configurations (maximum distance to the front's chord),
//! and dominated-configuration pruning statistics, emitted as an
//! `explore_report/v1` JSON artifact, `ci-report` tables, and a markdown
//! writeup.
//!
//! Everything downstream of the cells is pure serial reduction, so reports
//! are byte-identical across worker counts and cache states — pinned by
//! the `explore_determinism` integration suite, while the `pareto_oracle`
//! property suite pins the front reducer against a brute-force dominance
//! oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod grammar;
pub mod pareto;
pub mod report;

pub use grammar::{preset, HeuristicKind, MachineKind, Sweep, SweepConfig, PRESETS};
pub use pareto::{dominates, knee, pareto_front, FrontStats};
pub use report::{ExplorePoint, ExploreReport, WorkloadFront};
