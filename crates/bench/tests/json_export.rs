//! End-to-end checks of the experiment binaries' command lines:
//! `repro table1 --json` writes JSON lines that parse with the crate's own
//! parser and match the text table on stdout, and malformed command lines
//! exit 2 with a usage line instead of running.

use ci_obs::json::{parse, JsonValue};
use std::process::Command;

#[test]
fn table1_json_export_round_trips() {
    let out_path =
        std::env::temp_dir().join(format!("ci_json_export_{}.jsonl", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("table1")
        .arg("--json")
        .arg(&out_path)
        .env("CI_REPRO_INSTRUCTIONS", "4000")
        .output()
        .expect("repro binary runs");
    assert!(
        output.status.success(),
        "repro table1 failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    let jsonl = std::fs::read_to_string(&out_path).expect("--json wrote the file");
    std::fs::remove_file(&out_path).ok();

    let rows: Vec<JsonValue> = jsonl
        .lines()
        .map(|l| parse(l).expect("every line is valid JSON"))
        .collect();
    assert_eq!(rows.len(), 5, "table 1 has one object per benchmark row");

    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            row.get("table").and_then(JsonValue::as_str),
            Some("TABLE 1. Benchmark information."),
        );
        assert_eq!(row.get("row").and_then(JsonValue::as_i64), Some(i as i64));
        // The benchmark name appears verbatim in the text table.
        let bench = row
            .get("benchmark")
            .and_then(JsonValue::as_str)
            .expect("benchmark column");
        assert!(stdout.contains(bench), "stdout missing benchmark {bench:?}");
        // Counts export as numbers, and the same digits appear in the text.
        let count = row
            .get("instruction count")
            .and_then(JsonValue::as_i64)
            .expect("count column");
        assert!(count > 0);
        assert!(stdout.contains(&count.to_string()));
        // Percentage cells lose their `%` suffix but keep the value.
        let rate = row
            .get("misprediction rate")
            .and_then(JsonValue::as_f64)
            .expect("rate column");
        assert!((0.0..=100.0).contains(&rate));
        assert!(stdout.contains(&format!("{rate:.1}%")));
    }
}

#[test]
fn json_flag_requires_path() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table1", "--json"])
        .output()
        .expect("repro binary runs");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--json requires an argument"));
}

/// A missing name, an unknown name, an extra positional and a misspelled
/// flag each exit 2 with the usage line before anything runs, so no
/// `--json` file appears.
#[test]
fn malformed_command_lines_print_usage_and_exit_2() {
    let out_path =
        std::env::temp_dir().join(format!("ci_repro_usage_{}.jsonl", std::process::id()));
    let out = out_path.to_str().expect("utf-8 temp path");
    let cases: [&[&str]; 5] = [
        &["--json", out],
        &["table9", "--json", out],
        &["table1", "table2", "--json", out],
        &["table1", "--workrs", "4", "--json", out],
        &["table1", "--jsno", out],
    ];
    for args in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .env("CI_REPRO_INSTRUCTIONS", "4000")
            .output()
            .expect("repro binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: repro <name>") && stderr.contains("table1 fig3 fig5"),
            "{args:?}: no usage line listing the names: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?} printed a table");
        assert!(!out_path.exists(), "{args:?} wrote {out}");
    }
}

/// Once `inspect`, `profile` and `throughput` have taken their own flags,
/// a leftover flag or a surplus positional exits 2 with the binary's usage
/// line before anything is printed.
#[test]
fn stray_arguments_print_usage_and_exit_2() {
    let cases: [(&str, &[&str]); 4] = [
        (
            env!("CARGO_BIN_EXE_inspect"),
            &["compress", "2000", "--jsno", "x"],
        ),
        (
            env!("CARGO_BIN_EXE_inspect"),
            &["compress", "2000", "extra"],
        ),
        (env!("CARGO_BIN_EXE_profile"), &["go", "--bogus"]),
        (env!("CARGO_BIN_EXE_throughput"), &["--bogus"]),
    ];
    for (bin, args) in cases {
        let output = Command::new(bin)
            .args(args)
            .env("CI_REPRO_INSTRUCTIONS", "2000")
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let name = std::path::Path::new(bin)
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("binary name");
        assert_eq!(output.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: {name} ")),
            "{name} {args:?}: no usage line: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{name} {args:?} printed output");
    }
}
