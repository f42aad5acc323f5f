//! The fuzzing loop, [`run_campaign`]: a deterministic random trial stream
//! (`FuzzMode::Random`) or a corpus-driven, coverage-guided campaign
//! (`FuzzMode::Coverage`).
//!
//! Both modes run in **rounds**: each round snapshots the corpus, derives
//! every trial in the round purely from `(campaign seed, global trial index,
//! snapshot)`, executes the batch on the [`ci_runner::pool::run_batch`]
//! pool, and then merges results into the coverage map and corpus **in
//! global trial-index order** at the round barrier. Worker count
//! affects only which thread runs which trial, never which trials exist or
//! the order their novelty is judged in. In random mode the snapshot is
//! never read: trial `i` of a campaign with seed `s` always checks the
//! program and spec derived from [`trial_seed`]`(s, i)`, so `--workers 8`
//! and `--workers 1` explore exactly the same trials.

use crate::artifact::Artifact;
use crate::corpus::{Corpus, CorpusEntry, SeedOrigin};
use crate::mutate::mutate;
use crate::shrink::shrink;
use crate::spec::TrialSpec;
use crate::trial::{check_program, check_reference, Failure};
use crate::TrialCoverage;
use ci_core::ArchRef;
use ci_obs::json::JsonValue;
use ci_obs::CoverageSignature;
use ci_report::{f as fmt_f, Table};
use ci_workloads::{random_structured, SplitMix64, StructuredProgram};
use std::path::PathBuf;
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

/// How a campaign chooses its trial programs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FuzzMode {
    /// Every trial is freshly generated from its trial seed (the classic
    /// loop; coverage is still measured, but never guides).
    #[default]
    Random,
    /// Corpus-driven: trials mutate coverage-novel seeds, weighted by the
    /// energy of the edges they contributed.
    Coverage,
}

impl FuzzMode {
    /// Stable lowercase name (CLI value, report field).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FuzzMode::Random => "random",
            FuzzMode::Coverage => "coverage",
        }
    }

    /// Parse a [`FuzzMode::name`] back.
    #[must_use]
    pub fn from_name(s: &str) -> Option<FuzzMode> {
        [FuzzMode::Random, FuzzMode::Coverage]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

/// Campaign configuration.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Campaign seed; trial `i` uses spec seed `mix(seed, i)`.
    pub seed: u64,
    /// Number of trials; `None` means run until the time budget expires.
    pub iters: Option<u64>,
    /// Wall-clock budget, checked at round boundaries: once it has elapsed
    /// no further round starts.
    pub time_budget: Option<Duration>,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Where to write failure artifacts; `None` keeps them in memory only.
    pub artifact_dir: Option<PathBuf>,
    /// Cap on artifacts written/retained (further failures are only counted).
    pub max_artifacts: usize,
    /// Predicate evaluations the shrinker may spend per failure.
    pub shrink_budget: usize,
    /// Trial selection strategy.
    pub mode: FuzzMode,
    /// Persistent corpus directory: loaded (and coverage-seeded) before the
    /// campaign, saved with any new entries after. `None` keeps the corpus
    /// in memory for the campaign only.
    pub corpus_dir: Option<PathBuf>,
    /// Trials per round (the batch between merge barriers; clamped to at
    /// least 1).
    pub round_size: usize,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0,
            iters: Some(100),
            time_budget: None,
            workers: 1,
            artifact_dir: None,
            max_artifacts: 5,
            shrink_budget: 400,
            mode: FuzzMode::Random,
            corpus_dir: None,
            round_size: 24,
        }
    }
}

/// What a campaign found.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Campaign seed (echoed into reports).
    pub seed: u64,
    /// Mode the campaign ran in.
    pub mode: FuzzMode,
    /// Trials completed (including rejected mutants, which consume a trial
    /// index but never execute the pipelines).
    pub trials: u64,
    /// Trials with at least one failed check.
    pub failed: u64,
    /// Shrunk artifacts for the first [`FuzzOptions::max_artifacts`]
    /// failures, in trial order.
    pub artifacts: Vec<Artifact>,
    /// Paths written when [`FuzzOptions::artifact_dir`] was set.
    pub written: Vec<PathBuf>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Rounds executed.
    pub rounds: u64,
    /// Trials generated fresh from their trial seed.
    pub generated: u64,
    /// Trials produced by mutating a corpus seed.
    pub mutated: u64,
    /// Mutants rejected by the pre-screen (program exceeded the trial's
    /// instruction budget before halting).
    pub rejected: u64,
    /// Distinct coverage edges observed, corpus seeding included.
    pub edges: usize,
    /// Edges contributed by corpus seeding alone, before any trial ran —
    /// the host-speed-independent floor a CI baseline can gate on.
    pub seeded_edges: usize,
    /// Corpus entries after the campaign.
    pub corpus_entries: usize,
    /// Entries this campaign admitted.
    pub new_entries: usize,
    /// Corpus files quarantined at load (corrupt or tampered).
    pub quarantined: Vec<PathBuf>,
}

impl FuzzSummary {
    /// Whether every trial passed every check.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.failed == 0
    }

    /// Trials that actually exercised the pipelines.
    #[must_use]
    pub fn execs(&self) -> u64 {
        self.trials - self.rejected
    }

    /// Mean executions per discovered edge.
    #[must_use]
    pub fn execs_per_edge(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.execs() as f64 / self.edges as f64
        }
    }

    /// The campaign's coverage dashboard as a `coverage_report/v1` JSON
    /// document.
    #[must_use]
    pub fn coverage_json(&self) -> String {
        JsonValue::obj([
            ("format", JsonValue::from("coverage_report/v1")),
            ("seed", JsonValue::from(format!("{:#018x}", self.seed))),
            ("mode", JsonValue::from(self.mode.name())),
            ("trials", JsonValue::from(self.trials)),
            ("rounds", JsonValue::from(self.rounds)),
            ("generated", JsonValue::from(self.generated)),
            ("mutated", JsonValue::from(self.mutated)),
            ("rejected", JsonValue::from(self.rejected)),
            ("failed", JsonValue::from(self.failed)),
            ("edges", JsonValue::from(self.edges)),
            ("seeded_edges", JsonValue::from(self.seeded_edges)),
            ("corpus_entries", JsonValue::from(self.corpus_entries)),
            ("new_entries", JsonValue::from(self.new_entries)),
            ("quarantined", JsonValue::from(self.quarantined.len())),
            ("execs_per_edge", JsonValue::from(self.execs_per_edge())),
            (
                "elapsed_ms",
                JsonValue::from(self.elapsed.as_millis() as u64),
            ),
        ])
        .render()
    }

    /// The same dashboard as a rendered text table.
    #[must_use]
    pub fn coverage_table(&self) -> String {
        let mut t = Table::new(&format!(
            "fuzz coverage — mode {}, seed {:#x}",
            self.mode.name(),
            self.seed
        ));
        t.headers(&["metric", "value"]);
        let mut row = |k: &str, v: String| {
            t.row(vec![k.to_owned(), v]);
        };
        row("trials", self.trials.to_string());
        row("rounds", self.rounds.to_string());
        row("generated", self.generated.to_string());
        row("mutated", self.mutated.to_string());
        row("rejected", self.rejected.to_string());
        row("failed", self.failed.to_string());
        row("edges", self.edges.to_string());
        row("seeded edges", self.seeded_edges.to_string());
        row("corpus entries", self.corpus_entries.to_string());
        row("new entries", self.new_entries.to_string());
        row("execs/edge", fmt_f(self.execs_per_edge(), 2));
        row("elapsed", format!("{:.2?}", self.elapsed));
        t.render()
    }
}

/// Mix a campaign seed and trial index into a trial seed (splitmix-style
/// golden-ratio spread keeps neighbouring indices decorrelated).
#[must_use]
pub fn trial_seed(campaign_seed: u64, index: u64) -> u64 {
    campaign_seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Install a process-wide panic hook that suppresses the default stderr
/// report. The harness converts pipeline panics (oracle-checker divergences)
/// into findings via `catch_unwind`; without this, every caught panic would
/// still spray a backtrace banner. Idempotent.
pub fn silence_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::panic::set_hook(Box::new(|_| {}));
    });
}

fn shrink_to_artifact(
    original: &StructuredProgram,
    tseed: u64,
    spec: &TrialSpec,
    budget: usize,
) -> Artifact {
    let (min, stats) = shrink(original, budget, |candidate| {
        !check_program(&candidate.emit(), spec).0.is_empty()
    });
    let (failures, _) = check_program(&min.emit(), spec);
    Artifact {
        trial_seed: tseed,
        program: min,
        shrink: stats,
        failures,
    }
}

fn write_artifacts(opts: &FuzzOptions, summary: &mut FuzzSummary) {
    if let Some(dir) = &opts.artifact_dir {
        let _ = std::fs::create_dir_all(dir);
        for artifact in &summary.artifacts {
            let path = dir.join(format!("fuzz-{:016x}.json", artifact.trial_seed));
            if std::fs::write(&path, artifact.render()).is_ok() {
                summary.written.push(path);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The campaign loop.

/// A corpus seed's selection weight: proportional to the edges it
/// contributed, decayed as it gets picked, never zero (every seed stays
/// reachable).
fn energy(novel_edges: usize, selections: u64) -> u64 {
    ((novel_edges.max(1) as u64) * 16 / (1 + selections)).max(1)
}

enum TaskKind {
    Generated,
    Mutated { parent: usize },
}

struct RoundTask {
    tseed: u64,
    spec: TrialSpec,
    program: StructuredProgram,
    kind: TaskKind,
}

struct TrialResult {
    rejected: bool,
    failures: Vec<Failure>,
    coverage: TrialCoverage,
}

/// Derive round trial `idx` purely from the campaign seed and the corpus
/// snapshot (`seeds`, with `selections[k]` counting the picks of
/// `seeds[k]`) — the function whose purity makes campaigns worker-count
/// independent.
fn derive_task(
    campaign_seed: u64,
    idx: u64,
    mode: FuzzMode,
    seeds: &[CorpusEntry],
    selections: &[u64],
) -> RoundTask {
    let tseed = trial_seed(campaign_seed, idx);
    let spec = TrialSpec::generate(tseed);
    // A separate stream from the spec's: scheduling decisions must not
    // perturb the config the trial runs under.
    let mut rng = SplitMix64::new(tseed ^ 0xC0E_FACE_5EED);
    let generate = mode == FuzzMode::Random || seeds.is_empty() || rng.chance(30);
    if generate {
        return RoundTask {
            tseed,
            spec,
            program: random_structured(spec.program_seed, spec.size_hint),
            kind: TaskKind::Generated,
        };
    }
    let parent = pick_parent(seeds, selections, &mut rng);
    let mut program = seeds[parent].program.clone();
    let steps = 1 + rng.below(3);
    for _ in 0..steps {
        program = mutate(&program, rng.next_u64()).0;
    }
    RoundTask {
        tseed,
        spec,
        program,
        kind: TaskKind::Mutated { parent },
    }
}

/// Energy-weighted seed selection over the round snapshot.
fn pick_parent(seeds: &[CorpusEntry], selections: &[u64], rng: &mut SplitMix64) -> usize {
    let energies = || {
        seeds
            .iter()
            .zip(selections)
            .map(|(s, &n)| energy(s.novel_edges, n))
    };
    let mut roll = rng.below(energies().sum::<u64>().max(1));
    for (i, e) in energies().enumerate() {
        if roll < e {
            return i;
        }
        roll -= e;
    }
    seeds.len() - 1
}

/// Run a campaign: coverage-guided, or random with coverage measured.
///
/// In coverage mode, loads the corpus from [`FuzzOptions::corpus_dir`]
/// (quarantining corrupt entries) and seeds the coverage map from the
/// stored signatures. Then runs trials in rounds of
/// [`FuzzOptions::round_size`]: snapshot the corpus, derive every trial in
/// the round from `(seed, index, snapshot)`, execute the batch on the shared
/// worker pool, and merge coverage and corpus admissions at the barrier in
/// trial-index order. Saves new corpus entries back to disk before
/// returning.
///
/// Deterministic for fixed `seed` + `iters`, for any worker count
/// (time-budget campaigns stop at a host-dependent round, but every trial
/// they do run is reproducible from its index).
///
/// # Errors
/// Returns a message when the corpus directory cannot be read or written —
/// harness errors, distinct from findings (which land in the summary).
pub fn run_campaign(opts: &FuzzOptions) -> Result<FuzzSummary, String> {
    silence_panics();
    let start = Instant::now();
    let iters = match (opts.iters, opts.time_budget) {
        (Some(n), _) => n,
        (None, Some(_)) => u64::MAX,
        (None, None) => 100,
    };
    let workers = opts.workers.max(1);
    let round_size = opts.round_size.max(1) as u64;

    let (mut corpus, quarantined) = match &opts.corpus_dir {
        Some(dir) if opts.mode == FuzzMode::Coverage => Corpus::load(dir)?,
        _ => (Corpus::new(), Vec::new()),
    };
    let mut map = CoverageSignature::new();
    for entry in corpus.entries() {
        map.merge(&entry.signature);
    }
    let seeded_edges = map.count();
    // Picks per corpus entry, index-aligned with `corpus.entries()`: the
    // corpus only grows at the barrier, by appending.
    let mut selections = vec![0u64; corpus.len()];

    let mut summary = FuzzSummary {
        seed: opts.seed,
        mode: opts.mode,
        seeded_edges,
        quarantined,
        ..FuzzSummary::default()
    };

    let mut next = 0u64;
    while next < iters {
        if let Some(budget) = opts.time_budget {
            if start.elapsed() >= budget {
                break;
            }
        }
        let n = round_size.min(iters - next);
        let tasks: Vec<RoundTask> = (next..next + n)
            .map(|idx| derive_task(opts.seed, idx, opts.mode, corpus.entries(), &selections))
            .collect();

        // Execute the batch; slot k collects trial k's result.
        let results: Mutex<Vec<Option<TrialResult>>> =
            Mutex::new((0..tasks.len()).map(|_| None).collect());
        let jobs: Vec<_> = tasks
            .iter()
            .enumerate()
            .map(|(k, task)| {
                let results = &results;
                move || {
                    let result = run_task(task);
                    results.lock().expect("no job panics")[k] = Some(result);
                }
            })
            .collect();
        ci_runner::pool::run_batch(workers, jobs);

        // Barrier: merge in global trial-index order.
        let round_results = results.into_inner().expect("no job panics");
        for (task, result) in tasks.iter().zip(round_results) {
            let result = result.expect("every job ran");
            summary.trials += 1;
            match task.kind {
                TaskKind::Generated => summary.generated += 1,
                TaskKind::Mutated { parent } => {
                    summary.mutated += 1;
                    selections[parent] += 1;
                }
            }
            if result.rejected {
                summary.rejected += 1;
                continue;
            }
            let novel = map.merge(&result.coverage.signature);
            if novel > 0 && opts.mode == FuzzMode::Coverage {
                let entry = CorpusEntry {
                    name: format!("seed-{:016x}", result.coverage.signature.digest()),
                    origin: match task.kind {
                        TaskKind::Generated => SeedOrigin::Generated,
                        TaskKind::Mutated { .. } => SeedOrigin::Mutated,
                    },
                    trial_seed: task.tseed,
                    program: task.program.clone(),
                    signature: result.coverage.signature.clone(),
                    novel_edges: novel,
                };
                if corpus.add(entry) {
                    summary.new_entries += 1;
                    selections.push(0);
                }
            }
            if !result.failures.is_empty() {
                summary.failed += 1;
                if summary.artifacts.len() < opts.max_artifacts {
                    summary.artifacts.push(shrink_to_artifact(
                        &task.program,
                        task.tseed,
                        &task.spec,
                        opts.shrink_budget,
                    ));
                }
            }
        }
        summary.rounds += 1;
        next += n;
    }

    summary.edges = map.count();
    summary.corpus_entries = corpus.len();
    summary.elapsed = start.elapsed();
    write_artifacts(opts, &mut summary);
    if let Some(dir) = &opts.corpus_dir {
        if opts.mode == FuzzMode::Coverage {
            corpus.save(dir)?;
        }
    }
    Ok(summary)
}

fn run_task(task: &RoundTask) -> TrialResult {
    // One architectural reference serves the pre-screen and every check.
    let reference = ArchRef::build(task.program.emit(), task.spec.max_insts);
    // Pre-screen mutants: a well-formed mutant always halts, but stacked
    // duplications can push its dynamic length past the trial budget — that
    // is a rejected input, not a finding.
    if matches!(task.kind, TaskKind::Mutated { .. })
        && !reference.as_ref().is_ok_and(|r| r.trace().completed())
    {
        return TrialResult {
            rejected: true,
            failures: Vec::new(),
            coverage: TrialCoverage::default(),
        };
    }
    let (failures, coverage) = check_reference(reference, &task.spec);
    TrialResult {
        rejected: false,
        failures,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_clean_campaign() {
        let summary = run_campaign(&FuzzOptions {
            seed: 1,
            iters: Some(8),
            workers: 2,
            ..FuzzOptions::default()
        })
        .unwrap();
        assert_eq!(summary.trials, 8);
        assert!(summary.clean(), "{:?}", summary.artifacts);
        assert!(summary.artifacts.is_empty());
    }

    #[test]
    fn trial_seeds_are_spread() {
        let a = trial_seed(42, 0);
        let b = trial_seed(42, 1);
        let c = trial_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Same coordinates, same seed: worker-count independence rests here.
        assert_eq!(trial_seed(42, 1), b);
    }

    #[test]
    fn time_budget_campaigns_terminate() {
        let summary = run_campaign(&FuzzOptions {
            seed: 2,
            iters: None,
            time_budget: Some(Duration::from_millis(300)),
            workers: 2,
            ..FuzzOptions::default()
        })
        .unwrap();
        assert!(summary.trials >= 1);
        assert!(summary.clean(), "{:?}", summary.artifacts);
    }

    #[test]
    fn coverage_campaign_accumulates_edges_and_corpus() {
        let summary = run_campaign(&FuzzOptions {
            seed: 5,
            iters: Some(10),
            workers: 2,
            mode: FuzzMode::Coverage,
            round_size: 5,
            ..FuzzOptions::default()
        })
        .unwrap();
        assert_eq!(summary.trials, 10);
        assert_eq!(summary.rounds, 2);
        assert!(summary.clean(), "{:?}", summary.artifacts);
        assert!(summary.edges > 0, "trials must contribute coverage");
        assert!(
            summary.new_entries > 0,
            "novel trials must enter the corpus"
        );
        assert_eq!(summary.corpus_entries, summary.new_entries);
        // The second round mutates the first round's admissions.
        assert!(summary.mutated > 0, "round 2 should mutate round 1 seeds");
    }

    #[test]
    fn random_mode_measures_but_never_admits() {
        let summary = run_campaign(&FuzzOptions {
            seed: 5,
            iters: Some(6),
            mode: FuzzMode::Random,
            round_size: 3,
            ..FuzzOptions::default()
        })
        .unwrap();
        assert_eq!(summary.trials, 6);
        assert_eq!(summary.generated, 6);
        assert_eq!(summary.mutated, 0);
        assert!(summary.edges > 0);
        assert_eq!(summary.corpus_entries, 0);
    }

    #[test]
    fn reports_render_both_ways() {
        let summary = run_campaign(&FuzzOptions {
            seed: 9,
            iters: Some(4),
            mode: FuzzMode::Coverage,
            round_size: 4,
            ..FuzzOptions::default()
        })
        .unwrap();
        let json = summary.coverage_json();
        let v = ci_obs::json::parse(&json).unwrap();
        assert_eq!(
            v.get("format").unwrap().as_str(),
            Some("coverage_report/v1")
        );
        assert_eq!(v.get("trials").unwrap().as_i64(), Some(4));
        assert!(v.get("edges").unwrap().as_i64().unwrap() > 0);
        let table = summary.coverage_table();
        assert!(table.contains("edges"), "{table}");
    }

    #[test]
    fn mode_names_round_trip() {
        for m in [FuzzMode::Random, FuzzMode::Coverage] {
            assert_eq!(FuzzMode::from_name(m.name()), Some(m));
        }
        assert_eq!(FuzzMode::from_name("nope"), None);
    }
}
