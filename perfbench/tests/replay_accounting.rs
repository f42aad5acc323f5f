//! The replay workload's failure accounting: a cache line rejected as
//! corrupt is a failed operation, the run still reports, and the rebuilt
//! report still matches the cold one.

use control_independence::ci_explore::Sweep;
use control_independence::ci_runner::CACHE_FILE;
use perfbench::{distinct, replay_pass, sweep_pass, Untimed, GRID_INSTRUCTIONS};

#[test]
fn a_corrupt_cache_line_counts_as_one_failed_replay() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("replay-accounting");
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = Sweep::parse("smoke-grid").expect("smoke-grid preset parses");
    let seed = 0xC0DE;
    let specs = distinct(&sweep.expand(GRID_INSTRUCTIONS, seed));
    let cells = specs.len() as u64;

    let cold = sweep_pass(&sweep, &specs, seed, &dir, &mut Untimed);
    assert_eq!((cold.attempted, cold.failed), (cells, 0));

    let clean = replay_pass(&sweep, &specs, seed, &dir, &mut Untimed);
    assert_eq!(
        (clean.attempted, clean.failed, clean.ops),
        (cells, 0, cells)
    );
    assert_eq!(clean.text, cold.text);

    // Flip one digit inside one line's payload: its checksum no longer
    // matches, so the engine rejects the line and recomputes the cell.
    let path = dir.join(CACHE_FILE);
    let text = std::fs::read_to_string(&path).expect("the sweep saved its cache");
    let line = text
        .lines()
        .nth(3)
        .expect("the grid has more than three cells");
    let at = line.find("\"cycles\":").expect("a detailed payload") + "\"cycles\":".len();
    let digit = line.as_bytes()[at];
    let flipped = if digit == b'1' { '2' } else { '1' };
    let bad = format!("{}{flipped}{}", &line[..at], &line[at + 1..]);
    std::fs::write(&path, text.replacen(line, &bad, 1)).expect("rewrite the cache");

    let replay = replay_pass(&sweep, &specs, seed, &dir, &mut Untimed);
    let eng = replay.engine.as_ref().expect("replay keeps its engine");
    assert_eq!(eng.corrupt_lines(), 1);
    assert_eq!(
        (replay.attempted, replay.failed, replay.ops),
        (cells, 1, cells - 1)
    );
    assert_eq!(
        replay.text, cold.text,
        "the recomputed cell restores the report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
