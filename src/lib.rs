//! Reproduction of *"A Study of Control Independence in Superscalar
//! Processors"* (Rotenberg, Jacobson & Smith, HPCA 1999) as a Rust workspace.
//!
//! This facade crate re-exports every layer of the suite and provides the
//! [`experiments`] module: one function per table and figure of the paper,
//! each returning ready-to-print [`ci_report::Table`]s. The member crates:
//!
//! - [`ci_isa`]: the RISC-style ISA, programs, assembler.
//! - [`ci_emu`]: functional emulation, wrong-path forks, traces.
//! - [`ci_bpred`]: gshare / CTB / RAS / confidence / TFR predictors.
//! - [`ci_cfg`]: CFG recovery, post-dominators, reconvergence maps.
//! - [`ci_workloads`]: the five SPEC95-analogue synthetic benchmarks.
//! - [`ci_ideal`]: the six idealized machine models of Section 2.
//! - [`ci_core`]: the detailed execution-driven CI superscalar simulator.
//! - [`ci_obs`]: observability — pipeline event probes, metrics/histograms,
//!   JSON-lines export, flight recorder, timeline.
//! - [`ci_report`]: text table rendering (+ JSON-lines export).
//!
//! # Quickstart
//!
//! ```
//! use control_independence::prelude::*;
//!
//! let program = Workload::GoLike.build(&WorkloadParams { scale: 200, seed: 1 });
//! let base = simulate(&program, PipelineConfig::base(256), 30_000).unwrap();
//! let ci = simulate(&program, PipelineConfig::ci(256), 30_000).unwrap();
//! println!("BASE {:.2} IPC → CI {:.2} IPC", base.ipc(), ci.ipc());
//! assert!(ci.ipc() >= base.ipc() * 0.95);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ci_bpred;
pub use ci_cfg;
pub use ci_core;
pub use ci_emu;
pub use ci_explore;
pub use ci_ideal;
pub use ci_isa;
pub use ci_obs;
pub use ci_report;
pub use ci_runner;
pub use ci_workloads;

pub mod experiments;

/// Convenient re-exports for typical use.
pub mod prelude {
    pub use ci_core::{
        simulate, simulate_probed, simulate_profiled, ArchRef, CacheModel, CompletionModel,
        CycleActivity, Pipeline, PipelineConfig, Preemption, ProfiledRun, ReconStrategy,
        RedispatchMode, RepredictMode, SquashMode, Stats,
    };
    pub use ci_emu::{run_trace, Emulator, Trace};
    pub use ci_ideal::{
        simulate as simulate_ideal, IdealConfig, IdealResult, ModelKind, StudyInput,
    };
    pub use ci_isa::{Addr, Asm, Inst, InstClass, Pc, Program, Reg};
    pub use ci_obs::{
        Event, EventKind, FlightRecorder, Histogram, MetricsProbe, NoopProbe, NoopProfiler, Probe,
        Profiler, Registry, SpanProfiler, TimelineProbe,
    };
    pub use ci_report::Table;
    pub use ci_runner::{CellOutput, CellSpec, Engine, EngineOptions, RunMetrics};
    pub use ci_workloads::{random_program, Workload, WorkloadParams};
}
