//! The `explore` command line: the sweep is given once, after `--sweep` or
//! as the one positional argument, and a malformed command line exits 2
//! with the usage line before anything runs.

use std::process::{Command, Output};

fn explore(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_explore"))
        .args(args)
        .env("CI_REPRO_INSTRUCTIONS", "2000")
        .output()
        .expect("explore binary runs")
}

/// A missing `--sweep` value, a stray flag, two positionals, `--sweep`
/// plus a positional (in either order) and a spec that does not parse.
#[test]
fn malformed_command_lines_print_usage_and_exit_2() {
    let cases: [&[&str]; 6] = [
        &["--sweep"],
        &["smoke-grid", "--bogus"],
        &["smoke-grid", "paper-grid"],
        &["--sweep", "smoke-grid", "paper-grid"],
        &["paper-grid", "--sweep", "smoke-grid"],
        &["--sweep", "window=banana"],
    ];
    for args in cases {
        let output = explore(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: explore [--sweep <spec> | <spec>]"),
            "{args:?}: no usage line: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?} printed output");
    }
}

#[test]
fn a_positional_spec_writes_the_report() {
    let out = std::env::temp_dir().join(format!("ci_explore_cli_{}.json", std::process::id()));
    let output = explore(&[
        "smoke-grid",
        "--out",
        out.to_str().expect("utf-8 temp path"),
        "--workers",
        "1",
    ]);
    assert!(
        output.status.success(),
        "explore failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let report = std::fs::read_to_string(&out).expect("--out wrote the report");
    std::fs::remove_file(&out).ok();
    assert!(report.starts_with("{\"schema\":\"explore_report/v1\""));
    assert!(!output.stdout.is_empty(), "the tables go to stdout");
}
