//! The persistent, checksummed seed corpus.
//!
//! Every coverage-novel program the fuzzer finds becomes a corpus entry: a
//! self-contained `corpus_entry/v1` JSON file holding the statement tree,
//! the trial seed whose configuration it ran under, the coverage bits it
//! contributed at discovery, and an FNV-1a checksum over the payload. The
//! corpus directory is the campaign's durable state — future campaigns load
//! it, seed the coverage map from the stored bits, and mutate the stored
//! programs instead of starting from scratch.
//!
//! The on-disk handling follows the runner cache's trust model
//! ([`ci_runner::persist::quarantine_cache_file`]): a file that fails to
//! parse or whose checksum does not match its payload is *quarantined* —
//! moved under `<dir>/quarantine/` with a reason header — never silently
//! dropped or, worse, trusted. Entries are deduplicated by coverage
//! signature digest, so re-adding an already-known behaviour is a no-op.

use crate::artifact::{program_from_json, program_to_json};
use ci_obs::json::{self, JsonValue};
use ci_obs::CoverageSignature;
use ci_runner::fnv1a;
use ci_runner::persist::quarantine_cache_file;
use ci_workloads::StructuredProgram;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// Format tag stamped into every entry file.
pub const ENTRY_FORMAT: &str = "corpus_entry/v1";

/// How an entry got into the corpus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeedOrigin {
    /// Drawn fresh from the spec's program generator.
    Generated,
    /// Produced by mutating another corpus entry.
    Mutated,
    /// Checked-in regression reproducer (never evicted, always replayed).
    Regression,
}

impl SeedOrigin {
    /// Stable lowercase name (file field).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SeedOrigin::Generated => "generated",
            SeedOrigin::Mutated => "mutated",
            SeedOrigin::Regression => "regression",
        }
    }

    /// Parse a [`SeedOrigin::name`] back.
    #[must_use]
    pub fn from_name(s: &str) -> Option<SeedOrigin> {
        [
            SeedOrigin::Generated,
            SeedOrigin::Mutated,
            SeedOrigin::Regression,
        ]
        .into_iter()
        .find(|o| o.name() == s)
    }
}

/// One corpus seed: a program plus the coordinates and coverage evidence of
/// the trial that earned it a place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusEntry {
    /// File-name-safe identifier (regression entries carry their bug name;
    /// discovered entries are named after their signature digest).
    pub name: String,
    /// How the entry was produced.
    pub origin: SeedOrigin,
    /// Trial seed whose [`crate::TrialSpec`] configuration the entry ran
    /// under when it demonstrated novelty.
    pub trial_seed: u64,
    /// The program itself, as an editable statement tree.
    pub program: StructuredProgram,
    /// Coverage signature the entry exhibited at discovery.
    pub signature: CoverageSignature,
    /// Edges that were globally new when the entry was admitted.
    pub novel_edges: usize,
}

impl CorpusEntry {
    /// Digest of the entry's coverage signature — the corpus dedup key.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.signature.digest()
    }

    /// Render the entry as its on-disk JSON document (checksummed).
    #[must_use]
    pub fn render(&self) -> String {
        let payload = self.payload();
        let check = fnv1a(payload.render().as_bytes());
        let mut pairs = match payload {
            JsonValue::Obj(pairs) => pairs,
            _ => unreachable!("payload is an object"),
        };
        pairs.push((
            "check".to_owned(),
            JsonValue::from(format!("{check:#018x}")),
        ));
        JsonValue::Obj(pairs).render()
    }

    fn payload(&self) -> JsonValue {
        JsonValue::obj([
            ("format", JsonValue::from(ENTRY_FORMAT)),
            ("name", JsonValue::from(self.name.as_str())),
            ("origin", JsonValue::from(self.origin.name())),
            (
                "trial_seed",
                JsonValue::from(format!("{:#018x}", self.trial_seed)),
            ),
            ("novel_edges", JsonValue::from(self.novel_edges)),
            (
                "bits",
                JsonValue::Arr(
                    self.signature
                        .bits()
                        .into_iter()
                        .map(|b| JsonValue::I64(i64::from(b)))
                        .collect(),
                ),
            ),
            ("program", program_to_json(&self.program)),
        ])
    }

    /// Parse an entry from [`CorpusEntry::render`] output, verifying its
    /// checksum.
    ///
    /// # Errors
    /// Returns a description of the first structural or integrity problem.
    pub fn parse(text: &str) -> Result<CorpusEntry, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let format = v
            .get("format")
            .and_then(JsonValue::as_str)
            .ok_or("missing format")?;
        if format != ENTRY_FORMAT {
            return Err(format!("unsupported corpus entry format {format:?}"));
        }
        let stored_check = v
            .get("check")
            .and_then(JsonValue::as_str)
            .ok_or("missing check")?;
        let stored_check = u64::from_str_radix(stored_check.trim_start_matches("0x"), 16)
            .map_err(|e| format!("bad check field: {e}"))?;

        let name = v
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("missing name")?
            .to_owned();
        let origin = v
            .get("origin")
            .and_then(JsonValue::as_str)
            .and_then(SeedOrigin::from_name)
            .ok_or("missing or unknown origin")?;
        let seed_s = v
            .get("trial_seed")
            .and_then(JsonValue::as_str)
            .ok_or("missing trial_seed")?;
        let trial_seed = u64::from_str_radix(seed_s.trim_start_matches("0x"), 16)
            .map_err(|e| format!("bad trial_seed {seed_s:?}: {e}"))?;
        let novel_edges = v
            .get("novel_edges")
            .and_then(JsonValue::as_i64)
            .ok_or("missing novel_edges")? as usize;
        let mut bits = Vec::new();
        for b in v
            .get("bits")
            .and_then(JsonValue::as_array)
            .ok_or("missing bits")?
        {
            let n = b.as_i64().ok_or("bits must be integers")?;
            bits.push(u32::try_from(n).map_err(|_| format!("bit index {n} out of range"))?);
        }
        let signature = CoverageSignature::from_bits(&bits).ok_or("bit index out of range")?;
        let program = program_from_json(v.get("program").ok_or("missing program")?)?;

        let entry = CorpusEntry {
            name,
            origin,
            trial_seed,
            program,
            signature,
            novel_edges,
        };
        let expect = fnv1a(entry.payload().render().as_bytes());
        if expect != stored_check {
            return Err(format!(
                "checksum mismatch: stored {stored_check:#018x}, payload hashes to {expect:#018x}"
            ));
        }
        Ok(entry)
    }

    /// The entry's on-disk file name.
    #[must_use]
    pub fn file_name(&self) -> String {
        format!("{}.json", self.name)
    }
}

/// An in-memory corpus, deduplicated by coverage-signature digest.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
    seen: BTreeSet<u64>,
}

impl Corpus {
    /// An empty corpus.
    #[must_use]
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// Entries in admission order.
    #[must_use]
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Admit `entry` unless an entry with the same coverage-signature
    /// digest is already present; reports whether it was admitted.
    pub fn add(&mut self, entry: CorpusEntry) -> bool {
        if !self.seen.insert(entry.digest()) {
            return false;
        }
        self.entries.push(entry);
        true
    }

    /// Load every `*.json` entry under `dir` (sorted by file name, so load
    /// order is host-independent). Files that fail parsing or checksum
    /// verification are quarantined under `<dir>/quarantine/` and reported
    /// in the second return value; a missing directory yields an empty
    /// corpus.
    ///
    /// # Errors
    /// Returns filesystem errors (unreadable directory, failed quarantine
    /// write) as strings; individual corrupt entries are not errors.
    pub fn load(dir: &Path) -> Result<(Corpus, Vec<PathBuf>), String> {
        let mut corpus = Corpus::new();
        let mut quarantined = Vec::new();
        if !dir.exists() {
            return Ok((corpus, quarantined));
        }
        let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("reading corpus dir {}: {e}", dir.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        for path in files {
            let bytes =
                std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            let parsed = std::str::from_utf8(&bytes)
                .map_err(|e| format!("not UTF-8: {e}"))
                .and_then(CorpusEntry::parse);
            match parsed {
                Ok(entry) => {
                    corpus.add(entry);
                }
                Err(reason) => {
                    let qpath = quarantine_cache_file(dir, &path, &bytes, &reason)
                        .map_err(|e| format!("quarantining {}: {e}", path.display()))?;
                    quarantined.push(qpath);
                }
            }
        }
        Ok((corpus, quarantined))
    }

    /// Write every entry to `dir` (created if missing), one file per entry,
    /// atomically (write to `.tmp`, then rename). Existing files for other
    /// entries are left alone. Returns how many files were written.
    ///
    /// # Errors
    /// Propagates filesystem errors as strings.
    pub fn save(&self, dir: &Path) -> Result<usize, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut written = 0;
        for entry in &self.entries {
            let path = dir.join(entry.file_name());
            let rendered = entry.render();
            if let Ok(existing) = std::fs::read_to_string(&path) {
                if existing == rendered {
                    continue;
                }
            }
            let tmp = dir.join(format!("{}.tmp", entry.file_name()));
            std::fs::write(&tmp, &rendered)
                .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
            std::fs::rename(&tmp, &path)
                .map_err(|e| format!("renaming into {}: {e}", path.display()))?;
            written += 1;
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_workloads::random_structured;

    fn entry(name: &str, seed: u64) -> CorpusEntry {
        let mut signature = CoverageSignature::new();
        for i in 0..8 {
            signature.insert(seed.wrapping_mul(31).wrapping_add(i));
        }
        CorpusEntry {
            name: name.to_owned(),
            origin: SeedOrigin::Generated,
            trial_seed: seed,
            program: random_structured(seed, 40),
            signature,
            novel_edges: 8,
        }
    }

    #[test]
    fn entries_round_trip_byte_identically() {
        let e = entry("seed-0001", 77);
        let text = e.render();
        let back = CorpusEntry::parse(&text).unwrap();
        assert_eq!(back, e);
        // Byte-identical re-render: save/load/save is a fixed point.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn tampered_entries_are_rejected() {
        let text = entry("seed-0002", 5).render();
        // Flip the trial seed in place; the checksum must catch it.
        let tampered = text.replace(
            "trial_seed\":\"0x0000000000000005",
            "trial_seed\":\"0x0000000000000006",
        );
        assert_ne!(tampered, text, "replacement must hit");
        let err = CorpusEntry::parse(&tampered).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        // Truncation and garbage are structural errors.
        assert!(CorpusEntry::parse("not json").is_err());
        assert!(CorpusEntry::parse("{}").is_err());
    }

    #[test]
    fn corpus_dedups_by_signature_digest() {
        let mut c = Corpus::new();
        assert!(c.add(entry("a", 1)));
        assert!(!c.add(entry("b", 1)), "same signature must dedup");
        assert!(c.add(entry("c", 2)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn save_load_round_trips_and_quarantines_tampering() {
        let dir = std::env::temp_dir().join(format!("ci-corpus-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut c = Corpus::new();
        c.add(entry("seed-a", 10));
        c.add(entry("seed-b", 11));
        assert_eq!(c.save(&dir).unwrap(), 2);
        // Unchanged entries are not rewritten.
        assert_eq!(c.save(&dir).unwrap(), 0);

        let (loaded, quarantined) = Corpus::load(&dir).unwrap();
        assert!(quarantined.is_empty());
        assert_eq!(loaded.len(), 2);
        let mut names: Vec<&str> = loaded.entries().iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["seed-a", "seed-b"]);
        for (orig, back) in c.entries().iter().zip(
            // load() sorts by file name, which here matches admission order.
            loaded.entries(),
        ) {
            assert_eq!(orig, back);
        }

        // Corrupt one file on disk: reload quarantines it, keeps the other.
        let victim = dir.join("seed-a.json");
        let mut content = std::fs::read_to_string(&victim).unwrap();
        content.push_str("garbage");
        std::fs::write(&victim, &content).unwrap();
        let (reloaded, quarantined) = Corpus::load(&dir).unwrap();
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded.entries()[0].name, "seed-b");
        assert_eq!(quarantined.len(), 1);
        assert!(!victim.exists(), "corrupt file must be moved away");
        assert!(quarantined[0].exists());
        let qbody = std::fs::read_to_string(&quarantined[0]).unwrap();
        assert!(qbody.starts_with('#'), "quarantine keeps a reason header");

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A file that is not UTF-8 is a corrupt entry like any other: it is
    /// quarantined byte for byte, and the rest of the corpus loads.
    #[test]
    fn a_non_utf8_file_is_quarantined_with_its_bytes() {
        let dir = std::env::temp_dir().join(format!("ci-corpus-utf8-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = Corpus::new();
        c.add(entry("seed-a", 10));
        c.save(&dir).unwrap();
        let bad = b"{\"name\":\"\xff\xfe\"}\n".to_vec();
        std::fs::write(dir.join("bad.json"), &bad).unwrap();
        let (loaded, quarantined) = Corpus::load(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.entries()[0].name, "seed-a");
        assert_eq!(quarantined.len(), 1);
        assert!(
            !dir.join("bad.json").exists(),
            "corrupt file must be moved away"
        );
        let qbody = std::fs::read(&quarantined[0]).unwrap();
        assert!(qbody.starts_with(b"# quarantined"));
        assert!(
            String::from_utf8_lossy(&qbody).contains("# reason: not UTF-8"),
            "the reason names the encoding"
        );
        assert!(qbody.ends_with(&bad), "the original bytes are kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_of_missing_dir_is_empty() {
        let dir = std::env::temp_dir().join("ci-corpus-definitely-missing");
        let (c, q) = Corpus::load(&dir).unwrap();
        assert!(c.is_empty());
        assert!(q.is_empty());
    }
}
