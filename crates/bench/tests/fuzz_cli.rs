//! End-to-end tests for the `fuzz` binary's command-line contract.
//!
//! Exit status is part of the interface consumed by CI: 0 means every
//! trial passed and all floors held, 1 means findings (failing trials or
//! a coverage regression against `--baseline`), 2 means the harness
//! itself could not run (bad usage, unreadable files). These tests drive
//! the real binary via `CARGO_BIN_EXE_fuzz`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fuzz_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fuzz"))
}

/// Fresh scratch directory under the target-specific temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ci-fuzz-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn clean_coverage_campaign_exits_zero() {
    let dir = scratch("clean");
    let report = dir.join("cov.json");
    let out = fuzz_bin()
        .args(["--seed", "0x51", "--iters", "6", "--workers", "2"])
        .args(["--mode", "coverage", "--round-size", "3"])
        .arg("--corpus-dir")
        .arg(dir.join("corpus"))
        .arg("--coverage-report")
        .arg(&report)
        .arg("--artifact-dir")
        .arg(dir.join("arts"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        stdout(&out),
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(text.contains("mode coverage"), "missing mode line: {text}");
    assert!(text.contains("edges"), "missing coverage table: {text}");
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"format\":\"coverage_report/v1\""));
    // The corpus persisted at least one coverage-novel seed.
    let entries = std::fs::read_dir(dir.join("corpus")).unwrap().count();
    assert!(entries > 0, "no corpus entries written");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn second_run_seeds_from_persisted_corpus() {
    let dir = scratch("reseed");
    let common = ["--iters", "4", "--workers", "2", "--round-size", "2"];
    let run = |seed: &str, report: &PathBuf| {
        let out = fuzz_bin()
            .args(["--seed", seed])
            .args(common)
            .arg("--corpus-dir")
            .arg(dir.join("corpus"))
            .arg("--coverage-report")
            .arg(report)
            .arg("--artifact-dir")
            .arg(dir.join("arts"))
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    };
    let first = dir.join("cov1.json");
    let second = dir.join("cov2.json");
    run("1", &first);
    run("2", &second);
    let cov1 = std::fs::read_to_string(&first).unwrap();
    let cov2 = std::fs::read_to_string(&second).unwrap();
    assert!(
        cov1.contains("\"seeded_edges\":0"),
        "first run should start cold: {cov1}"
    );
    assert!(
        !cov2.contains("\"seeded_edges\":0"),
        "second run should seed edges from the corpus: {cov2}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn baseline_regression_exits_one() {
    let dir = scratch("baseline");
    let baseline = dir.join("baseline.json");
    std::fs::write(
        &baseline,
        "{\"format\":\"coverage_baseline/v1\",\"min_seeded_edges\":1000000}",
    )
    .unwrap();
    let out = fuzz_bin()
        .args(["--seed", "3", "--iters", "2", "--workers", "1"])
        .args(["--mode", "coverage", "--round-size", "2"])
        .arg("--corpus-dir")
        .arg(dir.join("corpus"))
        .arg("--baseline")
        .arg(&baseline)
        .arg("--artifact-dir")
        .arg(dir.join("arts"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("coverage regression"),
        "stderr: {}",
        stderr(&out)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn baseline_floor_holds_exits_zero() {
    let dir = scratch("floor");
    let baseline = dir.join("baseline.json");
    std::fs::write(
        &baseline,
        "{\"format\":\"coverage_baseline/v1\",\"min_seeded_edges\":0,\"min_corpus_entries\":0}",
    )
    .unwrap();
    let out = fuzz_bin()
        .args(["--seed", "4", "--iters", "2", "--workers", "1"])
        .args(["--mode", "coverage", "--round-size", "2"])
        .arg("--corpus-dir")
        .arg(dir.join("corpus"))
        .arg("--baseline")
        .arg(&baseline)
        .arg("--artifact-dir")
        .arg(dir.join("arts"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("coverage baseline holds"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flag_exits_two() {
    let out = fuzz_bin().arg("--no-such-flag").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown argument"));
}

#[test]
fn bad_mode_exits_two() {
    let out = fuzz_bin().args(["--mode", "lucky"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("bad --mode"));
}

/// A usage error: exit 2, the message and the usage line on stderr,
/// nothing on stdout.
fn assert_usage_error(out: &Output, message: &str) {
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(out));
    assert!(stdout(out).is_empty(), "stdout: {}", stdout(out));
    assert!(stderr(out).contains(message), "stderr: {}", stderr(out));
    assert!(
        stderr(out).contains("usage: fuzz"),
        "stderr: {}",
        stderr(out)
    );
}

#[test]
fn corpus_dir_contradicts_random_mode_in_either_order() {
    let dir = scratch("contra");
    let corpus = dir.join("corpus");
    for mode_first in [false, true] {
        let mut cmd = fuzz_bin();
        if mode_first {
            cmd.args(["--mode", "random"]);
        }
        cmd.arg("--corpus-dir").arg(&corpus);
        if !mode_first {
            cmd.args(["--mode", "random"]);
        }
        let out = cmd
            .args(["--iters", "24"])
            .arg("--artifact-dir")
            .arg(dir.join("arts"))
            .output()
            .unwrap();
        assert_usage_error(&out, "--corpus-dir needs --mode coverage");
        assert!(!corpus.exists(), "a rejected run wrote the corpus");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_workers_and_zero_round_size_exit_two() {
    for flag in ["--workers", "--round-size"] {
        let out = fuzz_bin()
            .args([flag, "0", "--iters", "1"])
            .output()
            .unwrap();
        assert_usage_error(&out, &format!("{flag} must be a positive integer, got `0`"));
    }
}

#[test]
fn unreadable_replay_exits_two() {
    let out = fuzz_bin()
        .args(["--replay", "/no/such/artifact.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn corrupt_baseline_exits_two() {
    let dir = scratch("badbase");
    let baseline = dir.join("baseline.json");
    std::fs::write(&baseline, "{\"format\":\"something_else/v9\"}").unwrap();
    let out = fuzz_bin()
        .args(["--seed", "5", "--iters", "1", "--workers", "1"])
        .arg("--baseline")
        .arg(&baseline)
        .arg("--artifact-dir")
        .arg(dir.join("arts"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("harness error"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corpus_dir_pointing_at_file_exits_two() {
    let dir = scratch("badcorpus");
    let file = dir.join("not-a-dir");
    std::fs::write(&file, "plain file").unwrap();
    let out = fuzz_bin()
        .args(["--seed", "6", "--iters", "1", "--workers", "1"])
        .arg("--corpus-dir")
        .arg(&file)
        .arg("--artifact-dir")
        .arg(dir.join("arts"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("harness error"));
    std::fs::remove_dir_all(&dir).unwrap();
}
