//! A binary whose stdout closes early ends quietly: `repro all | head -2`
//! must not panic on its next write.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn repro_ends_quietly_when_stdout_closes() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["all", "--workers", "1"])
        .env("CI_REPRO_INSTRUCTIONS", "2000")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("repro binary runs");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut head = String::new();
    for _ in 0..2 {
        stdout.read_line(&mut head).expect("read a line");
    }
    assert!(head.starts_with("# Control-independence"), "{head}");
    // Close the pipe while `repro` still has its tables to print.
    drop(stdout);
    let out = child.wait_with_output().expect("repro ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("Broken pipe"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
