//! Regression: cancelling a suspended restart can kill the active one.
//!
//! Optimal preemption suspends a restart only for an older misprediction,
//! so the active restart is normally older than every suspended one. But a
//! recovery serviced while no restart is active is not checked against the
//! suspended list. In this cell (jpeg-like at 3000 instructions, workload
//! seed 3, the CI machine with a 128-entry window, loop and ltb
//! heuristics, optimal preemption), at cycle 738 a re-predicted branch behind
//! the redispatch walk's cursor cancels the walk and begins a restart that
//! is younger than a suspended restart's branch. At cycle 741 that older
//! branch is invalidated for reissue, and `cancel_restarts_of` squashes
//! everything after it: the active restart's branch, cursor and
//! reconvergent entry die with the suspension. The last arm of
//! `cancel_restarts_of` then ends the active restart and falls back to tail
//! fetch. With that arm replaced by an assertion that the active restart
//! survives, this run panics at cycle 741.
//!
//! The built-in oracle checker (`check`) verifies every retirement against
//! the functional emulator along the way.

use ci_core::{simulate, PipelineConfig, Preemption, ReconStrategy};
use ci_workloads::{Workload, WorkloadParams};

const INSTRUCTIONS: u64 = 3000;

#[test]
fn a_suspended_cancel_that_kills_the_active_restart_falls_back_to_tail_fetch() {
    let program = Workload::JpegLike.build(&WorkloadParams {
        scale: Workload::JpegLike.scale_for(INSTRUCTIONS),
        seed: 3,
    });
    let config = PipelineConfig {
        preemption: Preemption::Optimal,
        recon: ReconStrategy::hardware(false, true, true),
        ..PipelineConfig::ci(128)
    };
    assert!(config.check);
    let stats = simulate(&program, config, INSTRUCTIONS).expect("valid program");
    assert_eq!(stats.retired, 2873);
}
