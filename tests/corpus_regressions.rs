//! The checked-in regression seed corpus.
//!
//! PR 2's fuzzing campaign found six `ci-core` recovery bugs (all fixed in
//! that PR): suspended restarts orphaned at cycle level; tail branches
//! settled against a restart-owned front end; duplicate fills after a gap
//! takeover; discarded suspensions squashing repaired-path entries;
//! stale-suspension cancellation orphaning the active restart's context;
//! and unrepairable non-control holes after dead-suspension discard. The
//! minimized repro artifacts were never committed, so `corpus/` pins one
//! `corpus_entry/v1` seed per bug *class*: a trial (program + config
//! coordinates) drawn from the standing campaign stream whose configuration
//! lives in the corner where that bug hid. Because the bugs are fixed, the
//! entries replay **clean** — they are tripwires, not expected failures.
//!
//! Two layers:
//! - [`regression_corpus_replays_clean`] always runs: load `corpus/`,
//!   verify checksums, and re-run every regression entry against all three
//!   detailed machines (BASE / CI / CI-I) plus the idealized-model checks,
//!   asserting zero failures and that the stored coverage signature still
//!   matches what the replay produces (a golden pin on the coverage
//!   instrumentation itself).
//! - [`regenerate_regression_corpus`] is the blessed regeneration tool:
//!   `UPDATE_CORPUS=1 cargo test -q --test corpus_regressions -- --ignored`
//!   re-derives the six entries (re-scanning the campaign stream for the
//!   predicate-selected seeds) and rewrites `corpus/`.

use ci_core::{CompletionModel, Preemption, RepredictMode};
use ci_difftest::{
    check_program, silence_panics, trial_seed, Corpus, CorpusEntry, SeedOrigin, TrialSpec,
};
use ci_workloads::random_structured;
use std::path::Path;

/// Campaign stream the seeds are drawn from (same as
/// `tests/difftest_campaign.rs`).
const CAMPAIGN_SEED: u64 = 0xD1FF_7E57;

/// Repo-relative corpus directory; the CI fuzz job seeds its coverage map
/// from these entries via `fuzz --corpus-dir corpus`.
const CORPUS_DIR: &str = "corpus";

/// Where a regression entry's trial seed comes from.
enum Source {
    /// Pinned verbatim (the four seeds shared with `difftest_campaign.rs`).
    Pinned(u64),
    /// First seed in the campaign stream whose generated configuration
    /// satisfies the predicate (deterministic, worker-independent).
    Scan(fn(&TrialSpec) -> bool),
}

/// Suspended restarts were orphaned at cycle level when a second restart
/// arrived while one was pending: large window, simple preemption, hardware
/// loop detector armed (no post-dominator oracle to collapse the nest).
fn suspended_restart_corner(s: &TrialSpec) -> bool {
    s.config.window >= 128
        && s.config.preemption == Preemption::Simple
        && !s.config.recon.postdominator
        && s.config.recon.loops
}

/// Dead-suspension discard left unrepairable non-control holes: fully
/// speculative completion with no repredict assist in an unsegmented window
/// under software post-dominator reconvergence.
fn dead_suspension_corner(s: &TrialSpec) -> bool {
    s.config.completion == CompletionModel::Spec
        && s.config.repredict == RepredictMode::None
        && s.config.segment == 1
        && s.config.recon.postdominator
}

/// One corpus entry per PR 2 bug class. The pinned seeds are the four
/// regression trial seeds from `tests/difftest_campaign.rs`, mapped to the
/// bug corners their configurations cover; the two scanned seeds fill the
/// corners the pinned four leave open.
const ENTRIES: [(&str, Source); 6] = [
    (
        "regression-suspended-restart-orphan",
        Source::Scan(suspended_restart_corner),
    ),
    (
        // w17, non-spec completion, hidden false mispredictions, no
        // repredict: tail branches settled against a restart-owned front end.
        "regression-tail-branch-restart-frontend",
        Source::Pinned(0x9b97_f4a7_10ae_9d20),
    ),
    (
        // w128, 16-instruction segments, optimal preemption, spec-D,
        // oracle repredict, LTB-only: duplicate fills after a gap takeover.
        "regression-duplicate-fill-gap-takeover",
        Source::Pinned(0xf372_fe94_29d4_4239),
    ),
    (
        // w17, 4-instruction segments, optimal preemption, non-spec
        // completion, software post-dominators: discarded suspensions
        // squashing repaired-path entries.
        "regression-discarded-suspension-squash",
        Source::Pinned(0x2f9e_cb87_0fec_c25e),
    ),
    (
        // w17, spec completion, hidden false mispredictions, loops+LTB:
        // stale-suspension cancellation orphaning the active restart.
        "regression-stale-suspension-cancel",
        Source::Pinned(0xdf54_df62_9a39_13a0),
    ),
    (
        "regression-dead-suspension-hole",
        Source::Scan(dead_suspension_corner),
    ),
];

/// Resolve a [`Source`] to a concrete trial seed.
fn resolve(source: &Source, used: &[u64]) -> u64 {
    match source {
        Source::Pinned(s) => *s,
        Source::Scan(pred) => (0u64..100_000)
            .map(|i| trial_seed(CAMPAIGN_SEED, i))
            .find(|s| !used.contains(s) && pred(&TrialSpec::generate(*s)))
            .expect("predicate unmatched within 100k campaign trials"),
    }
}

#[test]
fn regression_corpus_replays_clean() {
    silence_panics();
    let (corpus, quarantined) =
        Corpus::load(Path::new(CORPUS_DIR)).expect("corpus directory must be readable");
    assert!(
        quarantined.is_empty(),
        "checked-in corpus entries failed checksum verification: {quarantined:?}"
    );
    for (name, _) in &ENTRIES {
        let entry = corpus
            .entries()
            .iter()
            .find(|e| e.name == *name)
            .unwrap_or_else(|| panic!("corpus is missing regression entry {name}"));
        assert_eq!(entry.origin, SeedOrigin::Regression);
        let spec = TrialSpec::generate(entry.trial_seed);
        let (failures, cov) = check_program(&entry.program.emit(), &spec);
        assert!(
            failures.is_empty(),
            "regression entry {name} (trial seed {:#018x}) no longer replays clean:\n{}",
            entry.trial_seed,
            failures
                .iter()
                .map(|f| format!("[{:?}/{}] {}", f.kind, f.model, f.detail))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(
            cov.signature, entry.signature,
            "regression entry {name}: replayed coverage signature drifted from \
             the stored one (intentional instrumentation change? re-bless with \
             UPDATE_CORPUS=1)"
        );
    }
}

/// The scanned seeds must stay derivable: the predicates still select a
/// seed, and it is the one stored in the corpus (guards `trial_seed` mixing
/// and `TrialSpec::generate` layout against silent drift).
#[test]
fn scanned_seeds_stay_derivable() {
    let (corpus, _) = Corpus::load(Path::new(CORPUS_DIR)).unwrap();
    let pinned: Vec<u64> = ENTRIES
        .iter()
        .filter_map(|(_, s)| match s {
            Source::Pinned(v) => Some(*v),
            Source::Scan(_) => None,
        })
        .collect();
    let mut used = pinned;
    for (name, source) in &ENTRIES {
        let seed = resolve(source, &used);
        used.push(seed);
        let entry = corpus.entries().iter().find(|e| e.name == *name).unwrap();
        assert_eq!(
            entry.trial_seed, seed,
            "{name}: stored trial seed no longer matches its derivation"
        );
    }
}

#[test]
#[ignore = "corpus regeneration tool: UPDATE_CORPUS=1 cargo test -q --test corpus_regressions -- --ignored"]
fn regenerate_regression_corpus() {
    if std::env::var("UPDATE_CORPUS").as_deref() != Ok("1") {
        eprintln!("set UPDATE_CORPUS=1 to rewrite corpus/; doing nothing");
        return;
    }
    silence_panics();
    let mut used: Vec<u64> = Vec::new();
    let mut corpus = Corpus::new();
    for (name, source) in &ENTRIES {
        let seed = resolve(source, &used);
        used.push(seed);
        let spec = TrialSpec::generate(seed);
        let program = random_structured(spec.program_seed, spec.size_hint);
        let (failures, cov) = check_program(&program.emit(), &spec);
        assert!(
            failures.is_empty(),
            "{name}: seed {seed:#018x} must replay clean before it can be blessed"
        );
        let novel_edges = cov.edges();
        assert!(novel_edges > 0, "{name}: entry contributes no coverage");
        let admitted = corpus.add(CorpusEntry {
            name: (*name).to_owned(),
            origin: SeedOrigin::Regression,
            trial_seed: seed,
            program,
            signature: cov.signature,
            novel_edges,
        });
        assert!(admitted, "{name}: duplicate coverage signature in corpus");
        println!("{name}: trial seed {seed:#018x}, {novel_edges} edges");
    }
    let written = corpus.save(Path::new(CORPUS_DIR)).unwrap();
    println!("wrote {written} entries to {CORPUS_DIR}/");
}
