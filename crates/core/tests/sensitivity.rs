//! Negative pins of the sensitivity record: one small case per decision
//! point, in which the decision fires and the record refuses the sibling
//! configuration that would decide it differently. Each case also
//! simulates that sibling and checks that it really does diverge, so the
//! refusal is not merely conservative. (The soundness direction — a covered
//! sibling simulates identically — is the property in `prop.rs`.)

use ci_core::{
    ArchRef, CompletionModel, Pipeline, PipelineConfig, Preemption, ReconStrategy, RedispatchMode,
    RepredictMode, Sensitivity, Stats,
};
use ci_obs::{NoopProbe, NoopProfiler};
use ci_workloads::{random_program, Workload, WorkloadParams};

const BUDGET: u64 = 8_000;

fn reference(w: Workload) -> ArchRef {
    let program = w.build(&WorkloadParams {
        scale: w.scale_for(BUDGET),
        seed: 0x5EED,
    });
    ArchRef::build(program, BUDGET).unwrap()
}

fn run(reference: &ArchRef, config: PipelineConfig) -> (Stats, Sensitivity) {
    let mut p = Pipeline::new(reference, config, NoopProbe, NoopProfiler);
    let stats = p.run();
    (stats, p.sensitivity().clone())
}

/// The record of `config` refuses `sibling`, and the sibling's run differs.
fn assert_refused(reference: &ArchRef, config: PipelineConfig, sibling: PipelineConfig) -> Stats {
    let (stats, record) = run(reference, config);
    assert!(
        !record.covers(&config, &sibling),
        "record covers a sibling whose decision differs\nrun: {config:?}\nsibling: {sibling:?}"
    );
    assert_ne!(
        run(reference, sibling).0,
        stats,
        "the refused sibling simulates identically, so the pin shows nothing"
    );
    stats
}

#[test]
fn a_preempting_run_refuses_the_other_preemption_policy() {
    let r = reference(Workload::GoLike);
    let ci = PipelineConfig::ci(256);
    let stats = assert_refused(
        &r,
        ci,
        PipelineConfig {
            preemption: Preemption::Optimal,
            ..ci
        },
    );
    assert!(stats.preemptions > 0);
}

#[test]
fn a_full_window_refuses_every_other_window() {
    let r = reference(Workload::GccLike);
    let ci = PipelineConfig::ci(32);
    for window in [31, 33] {
        assert_refused(&r, ci, PipelineConfig { window, ..ci });
    }
    let (_, record) = run(&r, ci);
    assert!(
        record.covers(&ci, &ci),
        "a run covers its own configuration"
    );
}

#[test]
fn a_recovering_branch_between_two_thresholds_refuses_the_other() {
    let r = reference(Workload::GoLike);
    let gated = PipelineConfig {
        conf_threshold: 4,
        ..PipelineConfig::ci(128)
    };
    assert_refused(
        &r,
        gated,
        PipelineConfig {
            conf_threshold: 8,
            ..gated
        },
    );
    // Ungated, the counters still run: a branch that would have been high
    // confidence under threshold 1 refuses it.
    let ungated = PipelineConfig::ci(128);
    assert_refused(
        &r,
        ungated,
        PipelineConfig {
            conf_threshold: 1,
            ..ungated
        },
    );
}

#[test]
fn a_false_mismatch_refuses_hiding_it() {
    let r = reference(Workload::GoLike);
    let ci = PipelineConfig::ci(256);
    let stats = assert_refused(
        &r,
        ci,
        PipelineConfig {
            hide_false_mispredictions: true,
            ..ci
        },
    );
    assert!(stats.false_mispredictions > 0);
}

#[test]
fn waiting_completions_refuse_the_models_that_would_not_wait() {
    let r = reference(Workload::GccLike);
    let ci = PipelineConfig::ci(256);
    // Behind an unsettled older control instruction: in-order completion.
    assert_refused(
        &r,
        ci,
        PipelineConfig {
            completion: CompletionModel::NonSpec,
            ..ci
        },
    );
    // Behind an unresolved older store: data-speculative completion.
    assert_refused(
        &r,
        ci,
        PipelineConfig {
            completion: CompletionModel::Spec,
            ..ci
        },
    );
}

#[test]
fn diverging_histories_refuse_the_other_history() {
    // The workloads' speculative and correct-path histories never predict
    // differently at this budget; this random program's do.
    let r = ArchRef::build(random_program(34, 60), 4_000).unwrap();
    let ci = PipelineConfig::ci(64);
    assert_refused(
        &r,
        ci,
        PipelineConfig {
            oracle_ghr: true,
            ..ci
        },
    );
}

#[test]
fn a_redispatching_run_refuses_other_redispatch_and_repredict_modes() {
    let r = reference(Workload::GoLike);
    let ci = PipelineConfig::ci(256);
    let stats = assert_refused(&r, ci, PipelineConfig::ci_instant(256));
    assert!(stats.reconverged > 0);
    assert_refused(
        &r,
        ci,
        PipelineConfig {
            repredict: RepredictMode::None,
            ..ci
        },
    );
}

#[test]
fn recoveries_refuse_the_squash_modes_and_strategies_that_choose_otherwise() {
    let r = reference(Workload::VortexLike);
    let ci = PipelineConfig::ci(128);
    assert_refused(&r, ci, PipelineConfig::base(128));
    assert_refused(
        &r,
        ci,
        PipelineConfig {
            recon: ReconStrategy::hardware(true, true, true),
            ..ci
        },
    );
    assert_refused(&r, PipelineConfig::base(128), ci);
}

#[test]
fn a_base_run_covers_a_ci_machine_that_never_reconverges() {
    // With every heuristic off, a CI machine finds no reconvergent point
    // and recovers exactly as the BASE machine does; nor does it ever
    // redispatch, so the redispatch mode is free as well.
    let r = reference(Workload::CompressLike);
    let base = PipelineConfig::base(64);
    let blind = PipelineConfig {
        recon: ReconStrategy::hardware(false, false, false),
        redispatch: RedispatchMode::Instant,
        ..PipelineConfig::ci(64)
    };
    let (stats, record) = run(&r, base);
    assert!(record.covers(&base, &blind));
    assert_eq!(run(&r, blind).0, stats);
}
