//! Differential lockstep campaign guarding the data-oriented core rewrite.
//!
//! Two layers, both run by every `cargo test`:
//!
//! - [`regression_trial_seeds_stay_clean`]: four hard-coded trial seeds
//!   covering the configuration corners where selective squash, preemption,
//!   and completion-model interactions historically hid bugs.
//! - [`lockstep_campaign_2k_trials`]: a random-mode `run_campaign` of 2000
//!   generated trials, each checking the three detailed machines and six
//!   idealized models in lockstep against the functional emulator (a few
//!   seconds on two cores under the test profile).

use ci_difftest::{
    check_program, run_campaign, silence_panics, trial_seed, FuzzMode, FuzzOptions, TrialSpec,
};
use ci_workloads::random_structured;

/// Campaign seed; trial `i` uses `trial_seed(CAMPAIGN_SEED, i)`.
const CAMPAIGN_SEED: u64 = 0xD1FF_7E57;

/// Mandatory regression inputs. The earlier fuzzing PR's minimized repro
/// seeds were never checked into the tree, so these four trial seeds (drawn
/// from this campaign's own stream and pinned here verbatim) were selected
/// to cover the corners those repros lived in:
///
/// - `0xf372fe9429d44239` — w128, 16-instruction segments, *optimal*
///   preemption, spec-D completion, oracle repredict, LTB-only hardware
///   reconvergence (restart-preemption + segmented capacity accounting).
/// - `0x9b97f4a710ae9d20` — w17, *non-spec* completion (the unresolved-older
///   -store gate) with hidden false mispredictions and no repredict.
/// - `0xdf54df629a3913a0` — w17, fully speculative (*spec*) completion with
///   hidden false mispredictions, loops+LTB reconvergence (maximum
///   wrong-operand execution and reissue traffic in a tiny window).
/// - `0x2f9ecb870fecc25e` — w17, 4-instruction segments, optimal preemption,
///   non-spec completion, software post-dominator reconvergence.
const REGRESSION_TRIAL_SEEDS: [u64; 4] = [
    0xf372_fe94_29d4_4239,
    0x9b97_f4a7_10ae_9d20,
    0xdf54_df62_9a39_13a0,
    0x2f9e_cb87_0fec_c25e,
];

#[test]
fn regression_trial_seeds_stay_clean() {
    silence_panics();
    for &t in &REGRESSION_TRIAL_SEEDS {
        let spec = TrialSpec::generate(t);
        let program = random_structured(spec.program_seed, spec.size_hint);
        let (failures, _) = check_program(&program.emit(), &spec);
        assert!(
            failures.is_empty(),
            "regression trial seed {t:#018x} ({spec:?}) failed:\n{}",
            failures
                .iter()
                .map(|f| format!("[{:?}/{}] {}", f.kind, f.model, f.detail))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// The regression seeds must stay reachable from the campaign stream (they
/// were drawn from it), so a future change to `trial_seed` mixing cannot
/// silently orphan them.
#[test]
fn regression_seeds_come_from_the_campaign_stream() {
    let reachable: Vec<u64> = (0..64).map(|i| trial_seed(CAMPAIGN_SEED, i)).collect();
    for &t in &REGRESSION_TRIAL_SEEDS {
        assert!(
            reachable.contains(&t),
            "seed {t:#018x} is no longer produced by the campaign stream"
        );
    }
}

#[test]
fn lockstep_campaign_2k_trials() {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let summary = run_campaign(&FuzzOptions {
        seed: CAMPAIGN_SEED,
        iters: Some(2000),
        workers,
        mode: FuzzMode::Random,
        ..FuzzOptions::default()
    })
    .expect("in-memory campaign cannot fail");
    assert_eq!(summary.trials, 2000);
    assert!(
        summary.clean(),
        "{} of {} trials failed; first artifacts: {:#?}",
        summary.failed,
        summary.trials,
        summary.artifacts
    );
}
