//! The no-retirement watchdog reports a wedged pipeline within a bound
//! derived from the machine, not after hundreds of cycles per instruction.
//!
//! Known defect, pinned as it stands: at workload seed 9602, the 2k
//! compress cell on the CI machine with a 256-entry window, 16-wide fetch,
//! optimal preemption and every hardware reconvergence heuristic retires
//! its 960th instruction at cycle 864 and never another. When the wedge is
//! fixed, this test flips to a completion check.

use ci_core::{ArchRef, Pipeline, PipelineConfig, Preemption, ReconStrategy};
use ci_obs::{NoopProbe, NoopProfiler};
use ci_workloads::{Workload, WorkloadParams};
use std::panic::{catch_unwind, AssertUnwindSafe};

const INSTRUCTIONS: u64 = 2_000;
const SEED: u64 = 9602;
const LAST_RETIREMENT: u64 = 864;

#[test]
fn wedged_cell_trips_the_watchdog_after_its_last_retirement() {
    let w = Workload::CompressLike;
    let program = w.build(&WorkloadParams {
        scale: w.scale_for(INSTRUCTIONS),
        seed: SEED,
    });
    let reference = ArchRef::build(program, INSTRUCTIONS).expect("valid program");
    let config = PipelineConfig {
        width: 16,
        preemption: Preemption::Optimal,
        recon: ReconStrategy::hardware(true, true, true),
        ..PipelineConfig::ci(256)
    };
    let mut pipeline = Pipeline::new(&reference, config, NoopProbe, NoopProfiler);
    // 256 entries × (12-cycle divide + 14-cycle miss + 1 forward + 2) + 1000.
    let bound = pipeline.watchdog_bound();
    assert_eq!(bound, 8_424);
    let panic = catch_unwind(AssertUnwindSafe(|| pipeline.run()))
        .expect_err("the wedged cell must not complete");
    let msg = panic
        .downcast_ref::<String>()
        .expect("the watchdog panics with a formatted message");
    let tripped = LAST_RETIREMENT + bound + 1;
    assert_eq!(
        msg,
        &format!(
            "pipeline failed to make forward progress at cycle {tripped}: no retirement \
             since cycle {LAST_RETIREMENT} (watchdog bound {bound} cycles)"
        )
    );
}
