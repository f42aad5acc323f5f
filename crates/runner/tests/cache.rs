//! Cache-correctness properties for the cell memo and its disk persistence.
//!
//! The memo key is the canonical spec text (content-hashed to [`CellKey`]
//! for compact ids), so these tests pin the three properties the experiment
//! suite depends on:
//!
//! 1. recomputing a cell from the same spec is **bit-identical** — the memo
//!    may substitute a cached output for a fresh computation anywhere;
//! 2. changing *any* spec field (workload, model, window, config knob,
//!    budget, seed) changes the key — distinct cells never alias;
//! 3. the disk cache round-trips losslessly, and corrupt lines are
//!    rejected, recomputed, and rewritten rather than trusted.

use ci_core::PipelineConfig;
use ci_ideal::ModelKind;
use ci_runner::engine::{parse_cache_line, render_cache_line};
use ci_runner::{CellSpec, Engine, EngineOptions, CACHE_FILE};
use ci_workloads::Workload;
use std::collections::HashSet;
use std::path::PathBuf;

const INSTRUCTIONS: u64 = 2_000;
const SEED: u64 = 0x5EED;

fn detailed(workload: Workload, config: PipelineConfig, instructions: u64, seed: u64) -> CellSpec {
    CellSpec::Detailed {
        workload,
        config,
        instructions,
        seed,
    }
}

/// A fresh per-test scratch directory under the target dir.
struct TempDir(PathBuf);

impl TempDir {
    fn new(test: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("ci-runner-cache-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    fn engine(&self) -> Engine {
        Engine::new(EngineOptions {
            workers: 1,
            cache_dir: Some(self.0.clone()),
        })
    }

    fn cache_path(&self) -> PathBuf {
        self.0.join(CACHE_FILE)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn recomputing_a_cell_is_bit_identical() {
    let specs = [
        detailed(
            Workload::GoLike,
            PipelineConfig::ci(256),
            INSTRUCTIONS,
            SEED,
        ),
        detailed(
            Workload::GoLike,
            PipelineConfig::base(128),
            INSTRUCTIONS,
            SEED,
        ),
        CellSpec::Ideal {
            workload: Workload::CompressLike,
            model: ModelKind::WrFd,
            window: 64,
            instructions: INSTRUCTIONS,
            seed: SEED,
        },
        CellSpec::Study {
            workload: Workload::JpegLike,
            instructions: INSTRUCTIONS,
            seed: SEED,
        },
    ];
    for spec in &specs {
        // Two independent engines cannot share a memo, so each computes the
        // cell from scratch; the outputs must still match bit for bit.
        let a = Engine::serial().cell(spec);
        let b = Engine::serial().cell(spec);
        assert_eq!(a, b, "recomputation of {} diverged", spec.canonical());
    }
}

#[test]
fn every_spec_field_perturbs_the_key() {
    let base = detailed(
        Workload::GoLike,
        PipelineConfig::ci(256),
        INSTRUCTIONS,
        SEED,
    );
    let mut variants = vec![
        detailed(
            Workload::GccLike,
            PipelineConfig::ci(256),
            INSTRUCTIONS,
            SEED,
        ),
        detailed(
            Workload::GoLike,
            PipelineConfig::ci(128),
            INSTRUCTIONS,
            SEED,
        ),
        detailed(
            Workload::GoLike,
            PipelineConfig::base(256),
            INSTRUCTIONS,
            SEED,
        ),
        detailed(
            Workload::GoLike,
            PipelineConfig::ci(256),
            INSTRUCTIONS + 1,
            SEED,
        ),
        detailed(
            Workload::GoLike,
            PipelineConfig::ci(256),
            INSTRUCTIONS,
            SEED + 1,
        ),
    ];
    // A config-knob change alone (same window) must also re-key the cell.
    let mut hfm = PipelineConfig::ci(256);
    hfm.hide_false_mispredictions = !hfm.hide_false_mispredictions;
    variants.push(detailed(Workload::GoLike, hfm, INSTRUCTIONS, SEED));
    // Same story for the ideal models: every field is significant.
    let ideal = CellSpec::Ideal {
        workload: Workload::GoLike,
        model: ModelKind::WrFd,
        window: 256,
        instructions: INSTRUCTIONS,
        seed: SEED,
    };
    for model in [ModelKind::Oracle, ModelKind::Base, ModelKind::NwrFd] {
        variants.push(CellSpec::Ideal {
            workload: Workload::GoLike,
            model,
            window: 256,
            instructions: INSTRUCTIONS,
            seed: SEED,
        });
    }
    variants.push(ideal);

    let mut keys = HashSet::new();
    keys.insert(base.key());
    for v in &variants {
        assert_ne!(
            v.canonical(),
            base.canonical(),
            "variant collapsed into the base spec"
        );
        assert!(
            keys.insert(v.key()),
            "key collision for {} — a spec change failed to re-key the cell",
            v.canonical()
        );
    }
}

#[test]
fn disk_cache_round_trips_losslessly() {
    let tmp = TempDir::new("roundtrip");
    let specs = [
        detailed(
            Workload::GoLike,
            PipelineConfig::ci(256),
            INSTRUCTIONS,
            SEED,
        ),
        CellSpec::Ideal {
            workload: Workload::GoLike,
            model: ModelKind::WrFd,
            window: 256,
            instructions: INSTRUCTIONS,
            seed: SEED,
        },
        CellSpec::Study {
            workload: Workload::GoLike,
            instructions: INSTRUCTIONS,
            seed: SEED,
        },
    ];

    let first = tmp.engine();
    let originals: Vec<_> = specs.iter().map(|s| first.cell(s)).collect();
    assert_eq!(first.cells_computed(), specs.len() as u64);
    first.save_cache().expect("save cache");

    let second = tmp.engine();
    assert_eq!(second.cells_loaded(), specs.len() as u64, "all lines load");
    assert_eq!(second.corrupt_lines(), 0);
    for (spec, original) in specs.iter().zip(&originals) {
        assert_eq!(
            &second.cell(spec),
            original,
            "{} changed across the disk round trip",
            spec.canonical()
        );
    }
    assert_eq!(
        second.cells_computed(),
        0,
        "a loaded cache must serve every request without simulating"
    );

    // Saving the loaded cache reproduces the identical file: persistence is
    // a fixed point, not a lossy re-encoding.
    let before = std::fs::read_to_string(tmp.cache_path()).expect("read cache");
    second.save_cache().expect("re-save cache");
    let after = std::fs::read_to_string(tmp.cache_path()).expect("re-read cache");
    assert_eq!(before, after, "save∘load must be the identity on the file");
}

#[test]
fn corrupt_lines_are_rejected_recomputed_and_rewritten() {
    let tmp = TempDir::new("corrupt");
    let good = detailed(
        Workload::GoLike,
        PipelineConfig::ci(256),
        INSTRUCTIONS,
        SEED,
    );
    let victim = detailed(
        Workload::GoLike,
        PipelineConfig::base(256),
        INSTRUCTIONS,
        SEED,
    );

    let first = tmp.engine();
    let good_out = first.cell(&good);
    let victim_out = first.cell(&victim);
    first.save_cache().expect("save cache");

    // Tamper with the victim's line: flip one digit inside the payload while
    // keeping the line well-formed JSON, so only the checksum can catch it.
    let text = std::fs::read_to_string(tmp.cache_path()).expect("read cache");
    let tampered: Vec<String> = text
        .lines()
        .map(|line| {
            if line.contains(&victim.canonical()) {
                let (i, c) = line
                    .char_indices()
                    .skip(line.find("\"output\"").expect("payload field"))
                    .find(|&(_, c)| c.is_ascii_digit())
                    .expect("payload contains a digit");
                let flipped = if c == '9' { '8' } else { '9' };
                let mut s = line.to_owned();
                s.replace_range(i..i + 1, &flipped.to_string());
                s
            } else {
                line.to_owned()
            }
        })
        .collect();
    assert_ne!(
        text,
        tampered.join("\n") + "\n",
        "tampering must change the file"
    );
    std::fs::write(tmp.cache_path(), tampered.join("\n") + "\n").expect("write tampered");

    let second = tmp.engine();
    assert_eq!(second.corrupt_lines(), 1, "the tampered line is rejected");
    assert_eq!(second.cells_loaded(), 1, "the intact line still loads");
    assert_eq!(second.cell(&good), good_out);
    assert_eq!(
        second.cell(&victim),
        victim_out,
        "the rejected cell must be recomputed, not trusted"
    );
    assert_eq!(second.cells_computed(), 1, "only the rejected cell re-runs");

    // Saving heals the file: a third engine loads both lines cleanly.
    second.save_cache().expect("re-save cache");
    let third = tmp.engine();
    assert_eq!(third.corrupt_lines(), 0, "the rewritten cache is clean");
    assert_eq!(third.cells_loaded(), 2);
}

#[test]
fn cache_line_checksum_detects_value_tampering() {
    let spec = CellSpec::Study {
        workload: Workload::GoLike,
        instructions: INSTRUCTIONS,
        seed: SEED,
    };
    let output = Engine::serial().cell(&spec);
    let line = render_cache_line(&spec.canonical(), &output);
    let parsed = parse_cache_line(&line).expect("untouched line parses");
    assert_eq!(parsed, (spec.canonical(), output));

    // Garbage, truncation, key/spec mismatch, and in-payload edits must all
    // be rejected.
    assert!(parse_cache_line("not json").is_none());
    assert!(parse_cache_line(&line[..line.len() / 2]).is_none());
    assert!(parse_cache_line(&line.replace(&spec.canonical(), "study w=fake")).is_none());
    let i = line.find("\"output\"").expect("payload field");
    let (j, c) = line
        .char_indices()
        .skip(i)
        .find(|&(_, c)| c.is_ascii_digit())
        .expect("payload digit");
    let mut tampered = line.clone();
    tampered.replace_range(j..j + 1, if c == '9' { "8" } else { "9" });
    assert!(
        parse_cache_line(&tampered).is_none(),
        "a well-formed but edited payload must fail the checksum"
    );
}
