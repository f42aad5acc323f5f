//! End-to-end tests for the differential fuzzing harness: clean campaigns,
//! worker-count independence, the random trial stream, forced-failure
//! shrinking, and artifact round-trips.

use ci_core::ArchRef;
use ci_difftest::{
    check_program, run_campaign, run_locked, shrink, silence_panics, trial_seed, Artifact,
    FuzzMode, FuzzOptions, FuzzSummary, ShrinkStats, TrialSpec,
};
use ci_obs::CoverageSignature;
use ci_workloads::random_structured;

/// A random-mode campaign of `iters` trials from `seed` on `workers` threads.
fn random_campaign(seed: u64, iters: u64, workers: usize) -> FuzzSummary {
    run_campaign(&FuzzOptions {
        seed,
        iters: Some(iters),
        workers,
        mode: FuzzMode::Random,
        ..FuzzOptions::default()
    })
    .expect("in-memory campaign cannot fail")
}

#[test]
fn fuzz_campaign_seed1_is_clean() {
    // A slice of the acceptance campaign (`fuzz --iters 200 --seed 1`): every
    // trial must pass every lockstep and dominance check.
    let summary = random_campaign(1, 40, 2);
    assert_eq!(summary.trials, 40);
    assert!(
        summary.clean(),
        "trials failed: {:?}",
        summary
            .artifacts
            .iter()
            .map(|a| a.trial_seed)
            .collect::<Vec<_>>()
    );
}

#[test]
fn campaigns_are_worker_count_independent() {
    // Trial i always derives from trial_seed(seed, i), so the set of
    // explored trials — and therefore the findings and the coverage —
    // cannot depend on the worker pool's size or scheduling.
    let solo = random_campaign(77, 12, 1);
    let pool = random_campaign(77, 12, 4);
    assert_eq!(solo.trials, pool.trials);
    assert_eq!(solo.failed, pool.failed);
    assert_eq!(solo.edges, pool.edges);
    let seeds = |s: &FuzzSummary| s.artifacts.iter().map(|a| a.trial_seed).collect::<Vec<_>>();
    assert_eq!(seeds(&solo), seeds(&pool));
}

#[test]
fn random_campaigns_check_the_trial_seed_stream() {
    // A random-mode campaign checks exactly the generated programs of
    // trial_seed(seed, 0..iters): its edges are the union of those trials'
    // coverage and its failures their failing count, at any worker count.
    let seed = 0x5EED;
    let mut union = CoverageSignature::new();
    let mut failing = 0;
    for i in 0..24 {
        let spec = TrialSpec::generate(trial_seed(seed, i));
        let program = random_structured(spec.program_seed, spec.size_hint);
        let (failures, coverage) = check_program(&program.emit(), &spec);
        union.merge(&coverage.signature);
        failing += u64::from(!failures.is_empty());
    }
    for workers in [1, 4] {
        let summary = random_campaign(seed, 24, workers);
        assert_eq!(summary.trials, 24);
        assert_eq!(summary.edges, union.count(), "{workers} workers");
        assert_eq!(summary.failed, failing, "{workers} workers");
    }
}

#[test]
fn coverage_campaigns_are_worker_count_independent() {
    // Coverage-guided campaigns are stateful (later rounds mutate earlier
    // discoveries), so worker independence is a stronger claim than for
    // pure-random fuzzing: tasks derive from (campaign seed, global index,
    // corpus snapshot) and merge at round barriers in index order, making
    // the whole trajectory a pure function of the options.
    let run = |workers| {
        run_campaign(&FuzzOptions {
            seed: 0xC07E,
            iters: Some(18),
            workers,
            mode: FuzzMode::Coverage,
            round_size: 6,
            ..FuzzOptions::default()
        })
        .expect("in-memory campaign cannot fail")
    };
    let solo = run(1);
    let pool = run(4);
    assert_eq!(solo.trials, pool.trials);
    assert_eq!(solo.failed, pool.failed);
    assert_eq!(solo.edges, pool.edges);
    assert_eq!(solo.mutated, pool.mutated);
    assert_eq!(solo.rejected, pool.rejected);
    assert_eq!(solo.new_entries, pool.new_entries);
}

#[test]
fn corrupted_oracle_shrinks_to_a_small_repro() {
    // Feed the shrinker a failure manufactured with the corrupt_oracle_entry
    // test hook: the divergence fires on the first retirement, so the
    // minimal reproducer must collapse to a tiny fraction of the original.
    silence_panics();
    let spec = TrialSpec::generate(0xFEED_FACE);
    let original = random_structured(spec.program_seed, spec.size_hint);
    let (_, ci_config) = spec.detailed_variants()[1];
    let fails = |candidate: &ci_workloads::StructuredProgram| {
        let p = candidate.emit();
        !p.is_empty() && {
            let reference = ArchRef::build(p, spec.max_insts).expect("trial programs trace");
            run_locked(&reference, ci_config, Some(0), 0)
                .panic
                .is_some()
        }
    };
    assert!(fails(&original), "the corrupt hook must trip the checker");
    let (min, stats): (_, ShrinkStats) = shrink(&original, 2000, fails);
    assert!(fails(&min), "shrinking must preserve the failure");
    assert!(
        stats.final_nodes * 4 <= stats.original_nodes,
        "repro too large: {} of {} nodes",
        stats.final_nodes,
        stats.original_nodes
    );
    assert!(
        min.emit().len() * 4 <= original.emit().len(),
        "emitted repro too large: {} of {} instructions",
        min.emit().len(),
        original.emit().len()
    );
}

#[test]
fn artifacts_round_trip_and_replay() {
    // A rendered artifact is self-contained: parse() recovers the program
    // and spec coordinates, and replay() reproduces the recorded verdict.
    let ts = trial_seed(1, 3);
    let spec = TrialSpec::generate(ts);
    let program = random_structured(spec.program_seed, spec.size_hint);
    let (failures, _) = check_program(&program.emit(), &spec);
    let art = Artifact {
        trial_seed: ts,
        program,
        shrink: ShrinkStats::default(),
        failures,
    };
    let parsed = Artifact::parse(&art.render()).expect("rendered artifacts parse back");
    assert_eq!(parsed.trial_seed, art.trial_seed);
    assert_eq!(parsed.program.emit(), art.program.emit());
    let replayed = ci_difftest::replay(&parsed);
    assert_eq!(replayed.len(), art.failures.len());
}

#[test]
fn extreme_trial_seeds_round_trip_through_artifacts() {
    // u64 seeds above 2^53 cannot survive a JSON float; the artifact must
    // carry them losslessly.
    for ts in [u64::MAX, 0xd9fb_da74_a9f7_ddb4, 1] {
        let art = Artifact {
            trial_seed: ts,
            program: random_structured(5, 30),
            shrink: ShrinkStats::default(),
            failures: Vec::new(),
        };
        let parsed = Artifact::parse(&art.render()).expect("parse");
        assert_eq!(parsed.trial_seed, ts);
    }
}
