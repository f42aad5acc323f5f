//! Differential co-simulation fuzzing driver.
//!
//! Runs randomized programs and pipeline configurations in lockstep against
//! the functional emulator, checking bit-exact retirement and the
//! cross-model dominance invariants; failures are shrunk to minimal
//! reproducers and written as replayable JSON artifacts. With
//! `--mode coverage` the campaign is corpus-driven: coverage-novel programs
//! persist under `--corpus-dir` and later trials mutate them instead of
//! starting from scratch. `--corpus-dir` alone selects coverage mode; with
//! `--mode random` it is a usage error.
//!
//! ```text
//! fuzz [--seed N] [--iters N | --time-budget SECS] [--workers N]
//!      [--mode random|coverage] [--corpus-dir DIR] [--round-size N]
//!      [--coverage-report PATH] [--baseline PATH]
//!      [--artifact-dir DIR] [--shrink-budget N]
//! fuzz --replay ARTIFACT.json
//! ```
//!
//! `--replay` runs no campaign, so any campaign flag with it is a usage
//! error rather than a silently ignored request.
//!
//! Exit status: 0 when every trial passed and no coverage floor was
//! violated, 1 on findings (failing trials, reproduced replays, coverage
//! below the baseline floor), 2 on harness errors (usage, unreadable
//! corpus/baseline/artifact files).

use ci_bench::cli::end_quietly_on_closed_pipe;
use ci_difftest::{replay, run_campaign, Artifact, FuzzMode, FuzzOptions, FuzzSummary};
use control_independence::ci_obs::json;
use std::path::PathBuf;
use std::time::Duration;

struct Cli {
    opts: FuzzOptions,
    replay: Option<PathBuf>,
    coverage_report: Option<PathBuf>,
    baseline: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--seed N] [--iters N | --time-budget SECS] [--workers N]\n\
         \x20           [--mode random|coverage] [--corpus-dir DIR] [--round-size N]\n\
         \x20           [--coverage-report PATH] [--baseline PATH]\n\
         \x20           [--artifact-dir DIR] [--shrink-budget N]\n\
         \x20      fuzz --replay ARTIFACT.json"
    );
    std::process::exit(2);
}

/// Parse a count that must be at least 1; a usage error otherwise.
fn positive(flag: &str, v: &str) -> usize {
    v.parse().ok().filter(|&n| n > 0).unwrap_or_else(|| {
        eprintln!("{flag} must be a positive integer, got `{v}`");
        usage();
    })
}

fn parse_args() -> Cli {
    let mut opts = FuzzOptions {
        artifact_dir: Some(PathBuf::from("fuzz-artifacts")),
        ..FuzzOptions::default()
    };
    let mut replay = None;
    let mut coverage_report = None;
    let mut baseline = None;
    let mut iters_given = false;
    let mut mode = None;
    let mut campaign_flag = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a != "--replay" {
            campaign_flag.get_or_insert_with(|| a.clone());
        }
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                usage();
            })
        };
        match a.as_str() {
            "--seed" => {
                let v = value("--seed");
                opts.seed = v
                    .strip_prefix("0x")
                    .map_or_else(|| v.parse().ok(), |h| u64::from_str_radix(h, 16).ok())
                    .unwrap_or_else(|| {
                        eprintln!("bad --seed {v:?}");
                        usage();
                    });
            }
            "--iters" => {
                opts.iters = Some(value("--iters").parse().unwrap_or_else(|_| usage()));
                iters_given = true;
            }
            "--time-budget" => {
                let secs: u64 = value("--time-budget").parse().unwrap_or_else(|_| usage());
                opts.time_budget = Some(Duration::from_secs(secs));
                if !iters_given {
                    opts.iters = None;
                }
            }
            "--workers" => opts.workers = positive("--workers", &value("--workers")),
            "--mode" => {
                let v = value("--mode");
                mode = Some(FuzzMode::from_name(&v).unwrap_or_else(|| {
                    eprintln!("bad --mode {v:?} (random|coverage)");
                    usage();
                }));
            }
            "--corpus-dir" => opts.corpus_dir = Some(PathBuf::from(value("--corpus-dir"))),
            "--round-size" => opts.round_size = positive("--round-size", &value("--round-size")),
            "--coverage-report" => {
                coverage_report = Some(PathBuf::from(value("--coverage-report")));
            }
            "--baseline" => baseline = Some(PathBuf::from(value("--baseline"))),
            "--artifact-dir" => opts.artifact_dir = Some(PathBuf::from(value("--artifact-dir"))),
            "--shrink-budget" => {
                opts.shrink_budget = value("--shrink-budget").parse().unwrap_or_else(|_| usage());
            }
            "--replay" => replay = Some(PathBuf::from(value("--replay"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage();
            }
        }
    }
    if let (Some(_), Some(flag)) = (&replay, campaign_flag) {
        eprintln!("--replay runs no campaign, so it takes no `{flag}`");
        usage();
    }
    // A corpus only makes sense when coverage guides, so `--corpus-dir`
    // alone selects coverage mode and contradicts `--mode random`.
    opts.mode = match (mode, &opts.corpus_dir) {
        (Some(FuzzMode::Random), Some(_)) => {
            eprintln!("--corpus-dir needs --mode coverage, got --mode random");
            usage();
        }
        (Some(m), _) => m,
        (None, Some(_)) => FuzzMode::Coverage,
        (None, None) => FuzzMode::Random,
    };
    Cli {
        opts,
        replay,
        coverage_report,
        baseline,
    }
}

fn replay_artifact(path: &PathBuf) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", path.display());
            return 2;
        }
    };
    let artifact = match Artifact::parse(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cannot parse {}: {e}", path.display());
            return 2;
        }
    };
    println!(
        "replaying trial {:#018x} ({} instructions)",
        artifact.trial_seed,
        artifact.program.emit().len()
    );
    let failures = replay(&artifact);
    if failures.is_empty() {
        println!("replay passed: no failures reproduced");
        return 0;
    }
    for f in &failures {
        println!("== {} [{}] ==", f.kind.name(), f.model);
        println!("{}", f.detail);
        if !f.flight.is_empty() {
            println!("{}", f.flight);
        }
    }
    println!("{} failure(s) reproduced", failures.len());
    1
}

/// Check the summary against a `coverage_baseline/v1` floor file.
/// Returns `Ok(true)` when the floor holds, `Ok(false)` on a regression.
fn check_baseline(path: &PathBuf, summary: &FuzzSummary) -> Result<bool, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let v = json::parse(&text).map_err(|e| format!("bad baseline {}: {e}", path.display()))?;
    if v.get("format").and_then(json::JsonValue::as_str) != Some("coverage_baseline/v1") {
        return Err(format!("baseline {} has unknown format", path.display()));
    }
    let floor = |key: &str| v.get(key).and_then(json::JsonValue::as_i64).unwrap_or(0) as usize;
    let mut ok = true;
    let min_seeded = floor("min_seeded_edges");
    if summary.seeded_edges < min_seeded {
        eprintln!(
            "coverage regression: corpus seeds {} edges, baseline floor is {min_seeded}",
            summary.seeded_edges
        );
        ok = false;
    }
    let min_entries = floor("min_corpus_entries");
    if summary.corpus_entries < min_entries {
        eprintln!(
            "corpus regression: {} entries, baseline floor is {min_entries}",
            summary.corpus_entries
        );
        ok = false;
    }
    Ok(ok)
}

fn main() {
    end_quietly_on_closed_pipe();
    let cli = parse_args();
    if let Some(path) = &cli.replay {
        std::process::exit(replay_artifact(path));
    }

    let summary = match run_campaign(&cli.opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("fuzz harness error: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "fuzz: {} trials in {:.1?}, {} failed (seed {:#x}, {} workers, mode {})",
        summary.trials,
        summary.elapsed,
        summary.failed,
        cli.opts.seed,
        cli.opts.workers,
        summary.mode.name()
    );
    if summary.mode == FuzzMode::Coverage || cli.coverage_report.is_some() {
        print!("{}", summary.coverage_table());
    }
    for q in &summary.quarantined {
        println!("  quarantined corrupt corpus entry: {}", q.display());
    }
    for (artifact, path) in summary.artifacts.iter().zip(
        summary
            .written
            .iter()
            .map(Some)
            .chain(std::iter::repeat(None)),
    ) {
        let kinds: Vec<&str> = artifact.failures.iter().map(|f| f.kind.name()).collect();
        print!(
            "  trial {:#018x}: {} ({} nodes -> {})",
            artifact.trial_seed,
            kinds.join(", "),
            artifact.shrink.original_nodes,
            artifact.shrink.final_nodes
        );
        match path {
            Some(p) => println!("  [{}]", p.display()),
            None => println!(),
        }
    }
    if summary.failed > summary.artifacts.len() as u64 {
        println!(
            "  (+{} further failing trials not shrunk)",
            summary.failed - summary.artifacts.len() as u64
        );
    }
    if let Some(path) = &cli.coverage_report {
        if let Err(e) = std::fs::write(path, summary.coverage_json()) {
            eprintln!("cannot write coverage report {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("coverage report written to {}", path.display());
    }
    let mut findings = !summary.clean();
    if let Some(path) = &cli.baseline {
        match check_baseline(path, &summary) {
            Ok(true) => println!("coverage baseline holds"),
            Ok(false) => findings = true,
            Err(e) => {
                eprintln!("fuzz harness error: {e}");
                std::process::exit(2);
            }
        }
    }
    std::process::exit(i32::from(findings));
}
