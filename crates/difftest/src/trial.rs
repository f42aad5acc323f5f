//! One fuzz trial: generate, run every model in lockstep, check invariants.

use crate::coverage::{trial_salts, TrialCoverage};
use crate::lockstep::{panic_message, replay_flight, run_locked_salted};
use crate::spec::TrialSpec;
use ci_core::{ArchRef, CacheModel, SquashMode, Stats};
use ci_emu::EmuError;
use ci_ideal::{simulate as simulate_ideal, IdealConfig, IdealResult, ModelKind, StudyInput};
use ci_isa::Program;
use ci_workloads::random_structured;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What went wrong in a failed check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The functional emulator rejected the program (generator bug).
    Trace,
    /// A pipeline run panicked: oracle-checker divergence, forward-progress
    /// failure, or an internal invariant.
    Panic,
    /// The retired PC stream differs from the emulator trace (caught by the
    /// harness's independent comparison).
    Divergence,
    /// A statistics counter violated a sanity invariant.
    StatsSanity,
    /// A cross-model cycle-count dominance relation was violated.
    ModelInvariant,
}

impl FailureKind {
    /// Stable lowercase name (artifact key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Trace => "trace",
            FailureKind::Panic => "panic",
            FailureKind::Divergence => "divergence",
            FailureKind::StatsSanity => "stats-sanity",
            FailureKind::ModelInvariant => "model-invariant",
        }
    }

    /// Parse a [`FailureKind::name`] back.
    #[must_use]
    pub fn from_name(s: &str) -> Option<FailureKind> {
        [
            FailureKind::Trace,
            FailureKind::Panic,
            FailureKind::Divergence,
            FailureKind::StatsSanity,
            FailureKind::ModelInvariant,
        ]
        .into_iter()
        .find(|k| k.name() == s)
    }
}

/// One failed check.
#[derive(Clone, Debug)]
pub struct Failure {
    /// What class of check failed.
    pub kind: FailureKind,
    /// Which model ("BASE", "CI", "CI-I", an ideal model name, or "emu").
    pub model: String,
    /// Divergence report / panic message / violated inequality.
    pub detail: String,
    /// Flight-recorder transcript from the replay of the failing run, when
    /// one exists (a panic's replay embeds its transcript in `detail`).
    pub flight: String,
}

/// Result of one trial.
#[derive(Clone, Debug)]
pub struct TrialOutcome {
    /// The trial's coordinates.
    pub spec: TrialSpec,
    /// Static instruction count of the generated program.
    pub program_len: usize,
    /// Dynamic (emulated) instruction count.
    pub dynamic_len: usize,
    /// Every failed check, empty when the trial passed.
    pub failures: Vec<Failure>,
}

impl TrialOutcome {
    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run one trial end to end: generate the program from the spec and check it.
#[must_use]
pub fn run_trial(spec: &TrialSpec) -> TrialOutcome {
    let program = random_structured(spec.program_seed, spec.size_hint).emit();
    let (dynamic_len, failures) = check_program(&program, spec);
    TrialOutcome {
        spec: *spec,
        program_len: program.len(),
        dynamic_len,
        failures,
    }
}

/// Run every lockstep and invariant check on an explicit `program` (used by
/// [`run_trial`], by the shrinker's predicate, and by artifact replay).
/// Returns the dynamic instruction count and all failures found.
#[must_use]
pub fn check_program(program: &Program, spec: &TrialSpec) -> (usize, Vec<Failure>) {
    let (dynamic_len, failures, _) = check_program_cov(program, spec);
    (dynamic_len, failures)
}

/// [`check_program`] that additionally extracts the trial's coverage: the
/// union of the three detailed machines' salted event-bigram signatures
/// (see [`crate::coverage`]). The coverage-guided fuzzer calls this; plain
/// correctness callers use [`check_program`].
#[must_use]
pub fn check_program_cov(
    program: &Program,
    spec: &TrialSpec,
) -> (usize, Vec<Failure>, TrialCoverage) {
    check_reference(ArchRef::build(program.clone(), spec.max_insts), spec)
}

/// [`check_program_cov`] over the trial program's architectural reference,
/// or the error its emulation hit. The one reference serves the three
/// detailed machines and the study input of the idealized models.
pub(crate) fn check_reference(
    reference: Result<ArchRef, EmuError>,
    spec: &TrialSpec,
) -> (usize, Vec<Failure>, TrialCoverage) {
    let mut failures = Vec::new();
    let mut coverage = TrialCoverage::default();

    let reference = match reference {
        Ok(r) => r,
        Err(e) => {
            failures.push(Failure {
                kind: FailureKind::Trace,
                model: "emu".to_owned(),
                detail: format!("emulator rejected the program: {e}"),
                flight: String::new(),
            });
            return (0, failures, coverage);
        }
    };
    let trace = reference.trace();

    // Detailed pipeline: BASE / CI / CI-I in lockstep with the oracle
    // checker armed, plus the harness's own retired-stream comparison.
    let salts = trial_salts(spec);
    for (machine, (name, config)) in spec.detailed_variants().into_iter().enumerate() {
        let run = run_locked_salted(&reference, config, None, salts[machine]);
        coverage.absorb(salts[machine], &run.coverage, run.max_restart_depth);
        let first = failures.len();
        let mut fail = |kind, detail| {
            failures.push(Failure {
                kind,
                model: name.to_owned(),
                detail,
                flight: String::new(),
            });
        };
        if let Some(msg) = run.panic {
            fail(FailureKind::Panic, msg);
        } else {
            if let Some(report) = run.divergence(trace) {
                fail(FailureKind::Divergence, report);
            }
            let stats = run.stats.as_ref().expect("non-panicked run has stats");
            if let Some(report) = stats_sanity(stats, &config, trace.len() as u64) {
                fail(FailureKind::StatsSanity, report);
            }
        }
        if failures.len() == first {
            continue;
        }
        // The lockstep run kept no transcript. Replay the failing machine
        // with a flight recorder: it fails the same way, and its panic
        // message (which embeds the final cycles) or its transcript goes
        // into the failure.
        let replay = replay_flight(&reference, config, None);
        for f in &mut failures[first..] {
            match (&replay, f.kind) {
                (Err(msg), FailureKind::Panic) => f.detail.clone_from(msg),
                (Ok(transcript), _) => f.flight.clone_from(transcript),
                // Unreachable: the replay panics exactly when the run did.
                (Err(_), _) => {}
            }
        }
    }

    // The six idealized models and their dominance relations.
    failures.extend(ideal_invariants(&reference, spec));

    (trace.len(), failures, coverage)
}

/// Counter sanity for one detailed run. Only invariants that hold by
/// construction are checked — anything stochastic belongs to the paper's
/// tables, not here.
fn stats_sanity(s: &Stats, config: &ci_core::PipelineConfig, trace_len: u64) -> Option<String> {
    let err = |what: String| Some(what);
    if s.retired != trace_len {
        return err(format!("retired {} != emulated {trace_len}", s.retired));
    }
    if trace_len > 0 && s.cycles == 0 {
        return err("zero cycles for nonzero work".to_owned());
    }
    if s.retired > s.cycles.saturating_mul(config.width as u64) {
        return err(format!(
            "retired {} exceeds cycles*width {}*{}",
            s.retired, s.cycles, config.width
        ));
    }
    if s.issues < s.retired {
        return err(format!(
            "issues {} < retired {} (every retired instruction issued at least once)",
            s.issues, s.retired
        ));
    }
    if s.predictions > s.retired {
        return err(format!(
            "predictions {} > retired {}",
            s.predictions, s.retired
        ));
    }
    if s.arch_mispredictions > s.predictions {
        return err(format!(
            "mispredictions {} > predictions {}",
            s.arch_mispredictions, s.predictions
        ));
    }
    if s.reconverged > s.recoveries {
        return err(format!(
            "reconverged {} > recoveries {}",
            s.reconverged, s.recoveries
        ));
    }
    if s.fetch_saved > s.retired {
        return err(format!(
            "fetch_saved {} > retired {}",
            s.fetch_saved, s.retired
        ));
    }
    if s.work_saved + s.work_discarded + s.only_fetched > s.fetch_saved {
        return err(format!(
            "work taxonomy {}+{}+{} > fetch_saved {}",
            s.work_saved, s.work_discarded, s.only_fetched, s.fetch_saved
        ));
    }
    if s.mem_violation_reissues + s.reg_violation_reissues > s.issues {
        return err(format!(
            "violation reissues {}+{} > issues {}",
            s.mem_violation_reissues, s.reg_violation_reissues, s.issues
        ));
    }
    if config.squash == SquashMode::Full
        && (s.reconverged != 0 || s.inserted != 0 || s.fetch_saved != 0)
    {
        return err(format!(
            "BASE machine exercised CI machinery: reconverged={} inserted={} fetch_saved={}",
            s.reconverged, s.inserted, s.fetch_saved
        ));
    }
    if matches!(config.cache, CacheModel::Ideal { .. })
        && (s.cache_hits != 0 || s.cache_misses != 0)
    {
        return err(format!(
            "ideal cache reported hits={} misses={}",
            s.cache_hits, s.cache_misses
        ));
    }
    None
}

/// Cross-model dominance with the tolerance the paper itself notes (fetch
/// reordering can cost a few percent): `a` must not exceed `b` by more than
/// 5% plus a small absolute slack for very short programs.
fn dominates(faster: u64, slower: u64) -> bool {
    (faster as f64) <= (slower as f64) * 1.05 + 16.0
}

fn ideal_invariants(reference: &ArchRef, spec: &TrialSpec) -> Vec<Failure> {
    let mut failures = Vec::new();
    let window = spec.ideal_window;
    let trace = reference.trace();
    let run = catch_unwind(AssertUnwindSafe(|| {
        let input =
            StudyInput::from_trace(reference.program(), trace.clone(), reference.recon_map());
        ModelKind::ALL
            .iter()
            .map(|&model| {
                simulate_ideal(
                    &input,
                    &IdealConfig {
                        model,
                        window,
                        ..IdealConfig::default()
                    },
                )
            })
            .collect::<Vec<IdealResult>>()
    }));
    let results = match run {
        Ok(r) => r,
        Err(payload) => {
            failures.push(Failure {
                kind: FailureKind::Panic,
                model: "ideal".to_owned(),
                detail: panic_message(payload.as_ref()),
                flight: String::new(),
            });
            return failures;
        }
    };

    let cycles = |m: ModelKind| {
        let i = ModelKind::ALL.iter().position(|k| *k == m).expect("all");
        results[i].cycles
    };
    for (model, r) in ModelKind::ALL.iter().zip(&results) {
        if r.retired != trace.len() as u64 {
            failures.push(Failure {
                kind: FailureKind::Divergence,
                model: model.to_string(),
                detail: format!(
                    "ideal model retired {} of {} emulated instructions (window {window})",
                    r.retired,
                    trace.len()
                ),
                flight: String::new(),
            });
        }
    }

    // (faster, slower, why) — the paper's dominance relations: the oracle is
    // fastest; every CI model beats complete squash; false dependences never
    // help; wasted wrong-path resources never help.
    let relations: [(ModelKind, ModelKind, &str); 9] = [
        (ModelKind::Oracle, ModelKind::Base, "oracle beats base"),
        (ModelKind::Oracle, ModelKind::NwrNfd, "oracle beats nWR-nFD"),
        (ModelKind::Oracle, ModelKind::NwrFd, "oracle beats nWR-FD"),
        (ModelKind::Oracle, ModelKind::WrNfd, "oracle beats WR-nFD"),
        (ModelKind::Oracle, ModelKind::WrFd, "oracle beats WR-FD"),
        (ModelKind::NwrNfd, ModelKind::Base, "nWR-nFD beats base"),
        (
            ModelKind::NwrNfd,
            ModelKind::NwrFd,
            "nFD beats FD (no waste)",
        ),
        (ModelKind::WrNfd, ModelKind::WrFd, "nFD beats FD (waste)"),
        (ModelKind::NwrNfd, ModelKind::WrNfd, "nWR beats WR (no FD)"),
    ];
    for (fast, slow, why) in relations {
        let (cf, cs) = (cycles(fast), cycles(slow));
        if !dominates(cf, cs) {
            failures.push(Failure {
                kind: FailureKind::ModelInvariant,
                model: fast.to_string(),
                detail: format!("{why}: {fast} took {cf} cycles vs {slow} {cs} (window {window})"),
                flight: String::new(),
            });
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_handful_of_trials_pass_clean() {
        for trial_seed in 0..6 {
            let out = run_trial(&TrialSpec::generate(trial_seed));
            assert!(
                out.passed(),
                "trial {trial_seed} failed: {:?}",
                out.failures
                    .iter()
                    .map(|f| format!("{} [{}]: {}", f.kind.name(), f.model, f.detail))
                    .collect::<Vec<_>>()
            );
            assert!(out.dynamic_len > 0);
        }
    }

    #[test]
    fn failure_kind_names_round_trip() {
        for k in [
            FailureKind::Trace,
            FailureKind::Panic,
            FailureKind::Divergence,
            FailureKind::StatsSanity,
            FailureKind::ModelInvariant,
        ] {
            assert_eq!(FailureKind::from_name(k.name()), Some(k));
        }
        assert_eq!(FailureKind::from_name("nope"), None);
    }
}
