//! The cache line format, pinned by lines an earlier writer produced.
//!
//! `fixtures/cells.jsonl` holds three lines written by the JSON-tree codec
//! that `persist.rs` replaced: a detailed cell with non-empty TFR arrays,
//! an ideal cell and a study cell (`repro all` at 2000 instructions, seed
//! `0x5EED`). Every line must load, and writing its parse again must give
//! the same bytes, so a cache written by either codec loads in the other.

use ci_obs::{Histogram, MetricsProbe};
use ci_runner::engine::{parse_cache_line, render_cache_line};
use ci_runner::{fnv1a, CellOutput, Engine, EngineOptions, CACHE_FILE};

const FIXTURE: &str = include_str!("fixtures/cells.jsonl");

fn fixture_lines() -> Vec<&'static str> {
    FIXTURE.lines().collect()
}

/// `line` with its `check` recomputed over the payload as it stands, so
/// that an edit to the payload fails on layout, not on the checksum.
fn rechecked(line: &str) -> String {
    let check = line.find("\"check\":\"").expect("check member") + "\"check\":\"".len();
    let payload = line.find(",\"output\":").expect("output member") + ",\"output\":".len();
    let sum = format!("{:016x}", fnv1a(&line.as_bytes()[payload..line.len() - 1]));
    format!("{}{sum}{}", &line[..check], &line[check + 16..])
}

#[test]
fn fixture_lines_load_and_rewrite_byte_for_byte() {
    let kinds: Vec<&str> = fixture_lines()
        .iter()
        .map(
            |line| match parse_cache_line(line).expect("fixture line parses").1 {
                CellOutput::Detailed { stats, .. } => {
                    assert!(!stats.tfr_static.entries().is_empty());
                    assert!(!stats.tfr_dynamic_pc.entries().is_empty());
                    assert!(!stats.tfr_dynamic_xor.entries().is_empty());
                    "detailed"
                }
                CellOutput::Ideal(_) => "ideal",
                CellOutput::Study { .. } => "study",
            },
        )
        .collect();
    assert_eq!(kinds, ["detailed", "ideal", "study"]);
    for line in fixture_lines() {
        let (spec, output) = parse_cache_line(line).unwrap();
        assert_eq!(render_cache_line(&spec, &output), line);
    }

    let dir = std::env::temp_dir().join(format!("ci-runner-format-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(CACHE_FILE), FIXTURE).unwrap();
    let engine = Engine::new(EngineOptions {
        workers: 1,
        cache_dir: Some(dir.clone()),
    });
    assert_eq!(engine.corrupt_lines(), 0);
    assert_eq!(engine.cells_loaded(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn no_proper_prefix_of_a_line_parses() {
    for line in fixture_lines() {
        for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
            assert!(
                parse_cache_line(&line[..end]).is_none(),
                "a {end}-byte prefix parsed"
            );
        }
    }
}

#[test]
fn an_added_space_is_rejected() {
    for line in fixture_lines() {
        assert!(parse_cache_line(line).is_some());
        // Outside the payload, inside it after a comma and after a colon,
        // and at either end of the line.
        let inside = line
            .find(",\"retired\":")
            .or_else(|| line.find(",\"predictions\":"));
        let places = [
            Some(1),
            line.find("\"spec\":").map(|i| i + "\"spec\":".len()),
            line.find("\"output\":").map(|i| i + "\"output\":".len()),
            inside.map(|i| i + 1),
            line.rfind("\":\"").map(|i| i + 2),
            Some(line.len() - 1),
            Some(line.len()),
        ];
        for at in places.into_iter().flatten() {
            let spaced = format!("{} {}", &line[..at], &line[at..]);
            assert!(parse_cache_line(&spaced).is_none(), "accepted {spaced}");
            assert!(parse_cache_line(&rechecked(&spaced)).is_none());
        }
    }
}

#[test]
fn swapped_keys_are_rejected() {
    let ideal = fixture_lines()[1];
    // Two members of the line: the checksum still matches the payload.
    let (key, rest) = ideal[1..].split_once(',').unwrap();
    let (spec, rest) = rest.split_once(",\"check\"").unwrap();
    let swapped = format!("{{{spec},{key},\"check\"{rest}");
    assert!(parse_cache_line(&swapped).is_none(), "accepted {swapped}");
    // Two members of the payload, with the checksum recomputed.
    let cycles = ideal.find("\"cycles\":").unwrap();
    let retired = ideal.find(",\"retired\":").unwrap();
    let mispredictions = ideal.find(",\"mispredictions\":").unwrap();
    let swapped = format!(
        "{}{},{}{}",
        &ideal[..cycles],
        &ideal[retired + 1..mispredictions],
        &ideal[cycles..retired],
        &ideal[mispredictions..]
    );
    assert!(swapped.contains("{\"kind\":\"ideal\",\"retired\":\"2000\",\"cycles\":"));
    assert!(parse_cache_line(&rechecked(&swapped)).is_none());
}

#[test]
fn a_u64_field_past_the_maximum_is_rejected() {
    let ideal = fixture_lines()[1];
    let edit = |value: &str| {
        let cycles = ideal.find("\"cycles\":\"").unwrap() + "\"cycles\":\"".len();
        let end = cycles + ideal[cycles..].find('"').unwrap();
        rechecked(&format!("{}{value}{}", &ideal[..cycles], &ideal[end..]))
    };
    let (_, max) = parse_cache_line(&edit("18446744073709551615")).expect("u64::MAX fits");
    assert!(matches!(max, CellOutput::Ideal(r) if r.cycles == u64::MAX));
    assert!(parse_cache_line(&edit("18446744073709551616")).is_none());
}

#[test]
fn a_histogram_sum_past_u64_round_trips() {
    let mut occupancy = Histogram::exponential(4);
    occupancy.record(u64::MAX);
    occupancy.record(u64::MAX);
    let sum = 2 * u128::from(u64::MAX);
    assert_eq!(occupancy.raw_parts().3, sum);
    let output = CellOutput::Detailed {
        stats: ci_core::Stats::default(),
        probe: MetricsProbe {
            occupancy,
            ..MetricsProbe::new()
        },
    };
    let line = render_cache_line("detailed sum", &output);
    assert!(line.contains(&format!("\"sum\":\"{sum}\"")));
    assert_eq!(
        parse_cache_line(&line),
        Some(("detailed sum".to_owned(), output))
    );
}

#[test]
fn a_spec_with_quotes_backslashes_and_controls_round_trips() {
    let spec = "study \"w\"=go\\n \u{1} seed";
    let output = CellOutput::Study {
        len: 1,
        predictions: 2,
        mispredictions: 3,
    };
    let line = render_cache_line(spec, &output);
    assert!(
        line.contains(r#""spec":"study \"w\"=go\\n \u0001 seed""#),
        "{line}"
    );
    let (back, parsed) = parse_cache_line(&line).expect("escaped spec parses");
    assert_eq!((back.as_str(), &parsed), (spec, &output));
    assert_eq!(render_cache_line(&back, &parsed), line);
}
