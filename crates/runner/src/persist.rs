//! The on-disk cell cache: the codec of its lines, and the quarantine for
//! files that hold corrupt ones.
//!
//! # Layout
//!
//! A cache file holds one line per cell, a JSON object with four members
//! in this order:
//!
//! ```text
//! {"key":"<16 hex>","spec":"<spec>","check":"<16 hex>","output":<payload>}
//! ```
//!
//! - `key` is the FNV-1a hash of the spec, as 16 lowercase hex digits.
//! - `spec` is the cell's canonical text, escaped as `ci_obs::json` escapes
//!   every string.
//! - `check` is the FNV-1a hash of the payload's bytes exactly as they
//!   stand in the line.
//! - `output` is the payload: `{"kind":"detailed","stats":{..},"probe":{..}}`,
//!   `{"kind":"ideal","cycles":..,..}` or `{"kind":"study","len":..,..}`,
//!   with each struct's fields in the order of its field list below.
//!
//! Every integer is a quoted decimal string, not a JSON number: a reader
//! that holds numbers as `f64` (as `ci_obs::json` does) would round
//! counters and hashes above 2^53. A histogram's `sum` is a `u128`.
//!
//! # Reading
//!
//! [`parse_cache_line`] walks a line's bytes once and accepts exactly the
//! bytes [`render_cache_line`] produces: the members in the writer's order,
//! no whitespace, and integers without a sign or leading zeros. It rejects
//! a line whose key does not hash its spec or whose checksum does not hash
//! its payload, a histogram or counter array that `Histogram::from_raw_parts`
//! or `EventCounters::from_raw_counts` refuse, a TFR entry that is not
//! three integers, an unknown `kind`, an integer too large for its field
//! (`u64`, or `u128` for `sum`), and a truncated line or trailing bytes.
//! The engine counts a rejected line as corrupt, quarantines its file and
//! recomputes the cell: a cached output is never trusted without these
//! checks.
//!
//! The JSON-tree reader this codec replaced hashed the payload only after
//! rendering it again, so it also accepted a hand-edited line with added
//! whitespace or swapped members. Such a line is now corrupt. Every line a
//! writer produced still loads: the checksum over the payload as written
//! equals the old checksum over the rendered payload.

use crate::cell::{fnv1a, CellOutput};
use ci_bpred::TfrStats;
use ci_core::Stats;
use ci_ideal::IdealResult;
use ci_obs::json::{parse_string_at, write_escaped};
use ci_obs::{EventCounters, Histogram, MetricsProbe};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Render one cache line, without its newline.
#[must_use]
pub fn render_cache_line(spec: &str, output: &CellOutput) -> String {
    let mut line = String::new();
    write_cache_line(&mut line, spec, output);
    line
}

/// Append the cache line of `spec` and its `output` to `out`, without a
/// newline.
pub(crate) fn write_cache_line(out: &mut String, spec: &str, output: &CellOutput) {
    let _ = write!(
        out,
        "{{\"key\":\"{:016x}\",\"spec\":",
        fnv1a(spec.as_bytes())
    );
    write_escaped(spec, out);
    out.push_str(",\"check\":\"");
    // The checksum covers the payload, which follows it: write a
    // placeholder and fill it in once the payload is written.
    let check = out.len();
    out.push_str("0000000000000000\",\"output\":");
    let payload = out.len();
    output.put(out);
    let sum = format!("{:016x}", fnv1a(&out.as_bytes()[payload..]));
    out.replace_range(check..check + sum.len(), &sum);
    out.push('}');
}

/// Parse and check one cache line; `None` if the line is corrupt in any
/// way the module docs list.
#[must_use]
pub fn parse_cache_line(line: &str) -> Option<(String, CellOutput)> {
    let mut c = Cursor {
        bytes: line.as_bytes(),
        pos: 0,
    };
    c.lit("{\"key\":")?;
    let key = c.hex()?;
    c.lit(",\"spec\":")?;
    let (spec, end) = parse_string_at(line, c.pos).ok()?;
    c.pos = end;
    if fnv1a(spec.as_bytes()) != key {
        return None;
    }
    c.lit(",\"check\":")?;
    let check = c.hex()?;
    c.lit(",\"output\":")?;
    let payload = c.pos;
    let output = CellOutput::take(&mut c)?;
    if fnv1a(&c.bytes[payload..c.pos]) != check {
        return None;
    }
    c.lit("}")?;
    (c.pos == c.bytes.len()).then_some((spec, output))
}

/// A read position in one cache line.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Step over `s`, which must come next.
    fn lit(&mut self, s: &str) -> Option<()> {
        let end = self.pos + s.len();
        (self.bytes.get(self.pos..end)? == s.as_bytes()).then(|| self.pos = end)
    }

    /// The bytes of a quoted string without escapes.
    fn word(&mut self) -> Option<&'a [u8]> {
        self.lit("\"")?;
        let len = self.bytes[self.pos..].iter().position(|&b| b == b'"')?;
        let word = &self.bytes[self.pos..self.pos + len];
        self.pos += len + 1;
        Some(word)
    }

    /// The digits of a quoted decimal as the writer prints it: at least
    /// one, and no leading zero.
    fn digits(&mut self) -> Option<&'a [u8]> {
        let digits = self.word()?;
        let canonical = match digits {
            [] => false,
            [b'0', _, ..] => false,
            _ => digits.iter().all(u8::is_ascii_digit),
        };
        canonical.then_some(digits)
    }

    /// A quoted hash of exactly 16 lowercase hex digits.
    fn hex(&mut self) -> Option<u64> {
        let digits = self.word()?;
        if digits.len() != 16 {
            return None;
        }
        digits.iter().try_fold(0u64, |v, &d| {
            let nibble = match d {
                b'0'..=b'9' => d - b'0',
                b'a'..=b'f' => d - b'a' + 10,
                _ => return None,
            };
            Some((v << 4) | u64::from(nibble))
        })
    }

    /// Read `[item,item,..]`, calling `item` at each element.
    fn list(&mut self, mut item: impl FnMut(&mut Self) -> Option<()>) -> Option<()> {
        self.lit("[")?;
        if self.lit("]").is_some() {
            return Some(());
        }
        loop {
            item(self)?;
            if self.lit("]").is_some() {
                return Some(());
            }
            self.lit(",")?;
        }
    }
}

/// A value as a cache line holds it: [`Field::put`] writes it and
/// [`Field::take`] reads back exactly what `put` wrote.
trait Field: Sized {
    fn put(&self, out: &mut String);
    fn take(c: &mut Cursor<'_>) -> Option<Self>;
}

impl Field for u64 {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "\"{self}\"");
    }

    fn take(c: &mut Cursor<'_>) -> Option<u64> {
        c.digits()?.iter().try_fold(0u64, |v, &d| {
            v.checked_mul(10)?.checked_add(u64::from(d - b'0'))
        })
    }
}

impl Field for u128 {
    fn put(&self, out: &mut String) {
        let _ = write!(out, "\"{self}\"");
    }

    fn take(c: &mut Cursor<'_>) -> Option<u128> {
        c.digits()?.iter().try_fold(0u128, |v, &d| {
            v.checked_mul(10)?.checked_add(u128::from(d - b'0'))
        })
    }
}

fn put_list<T: Field>(out: &mut String, items: &[T]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.put(out);
    }
    out.push(']');
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, out: &mut String) {
        put_list(out, self);
    }

    fn take(c: &mut Cursor<'_>) -> Option<Vec<T>> {
        let mut items = Vec::new();
        c.list(|c| {
            items.push(T::take(c)?);
            Some(())
        })?;
        Some(items)
    }
}

impl Field for Cow<'_, [u64]> {
    fn put(&self, out: &mut String) {
        put_list(out, self);
    }

    fn take(c: &mut Cursor<'_>) -> Option<Self> {
        Vec::take(c).map(Cow::Owned)
    }
}

/// A TFR entry `(key, true, false)`: an array of exactly three integers.
impl Field for (u64, u64, u64) {
    fn put(&self, out: &mut String) {
        put_list(out, &[self.0, self.1, self.2]);
    }

    fn take(c: &mut Cursor<'_>) -> Option<Self> {
        c.lit("[")?;
        let key = u64::take(c)?;
        c.lit(",")?;
        let t = u64::take(c)?;
        c.lit(",")?;
        let f = u64::take(c)?;
        c.lit("]")?;
        Some((key, t, f))
    }
}

impl Field for TfrStats {
    fn put(&self, out: &mut String) {
        self.entries().put(out);
    }

    fn take(c: &mut Cursor<'_>) -> Option<TfrStats> {
        Vec::take(c).map(TfrStats::from_entries)
    }
}

impl Field for EventCounters {
    fn put(&self, out: &mut String) {
        put_list(out, self.raw_counts());
    }

    fn take(c: &mut Cursor<'_>) -> Option<EventCounters> {
        EventCounters::from_raw_counts(&Vec::take(c)?)
    }
}

/// A struct whose fields are the members of one JSON object.
trait Record: Sized {
    /// Write the members, the first after `open` (`{` to start an object,
    /// `,` to go on with one).
    fn put_members(&self, out: &mut String, open: &str);
    /// Read the members [`Record::put_members`] wrote.
    fn take_members(c: &mut Cursor<'_>, open: &str) -> Option<Self>;
}

impl<T: Record> Field for T {
    fn put(&self, out: &mut String) {
        self.put_members(out, "{");
        out.push('}');
    }

    fn take(c: &mut Cursor<'_>) -> Option<T> {
        let v = T::take_members(c, "{")?;
        c.lit("}")?;
        Some(v)
    }
}

/// Write the locals `a, b, ..` as the members `"a":<a>,"b":<b>,..`, the
/// first after `open`.
macro_rules! put_members {
    ($out:ident, $open:expr; $first:ident $(, $rest:ident)*) => {
        $out.push_str($open);
        $out.push_str(concat!("\"", stringify!($first), "\":"));
        Field::put($first, $out);
        $(
            $out.push_str(concat!(",\"", stringify!($rest), "\":"));
            Field::put($rest, $out);
        )*
    };
}

/// Read the members [`put_members!`] wrote into locals of the same names.
macro_rules! take_members {
    ($c:ident, $open:expr; $first:ident $(, $rest:ident)*) => {
        $c.lit($open)?;
        $c.lit(concat!("\"", stringify!($first), "\":"))?;
        let $first = Field::take($c)?;
        $(
            $c.lit(concat!(",\"", stringify!($rest), "\":"))?;
            let $rest = Field::take($c)?;
        )*
    };
}

/// Implement [`Record`] for a struct from its one field list, which is also
/// the order of its members in a line. The writer destructures and the
/// reader builds the struct from the same list, so a field missing from it
/// does not compile.
macro_rules! record {
    ($ty:ident $(<$lt:lifetime>)? { $($field:ident),+ $(,)? }) => {
        impl Record for $ty$(<$lt>)? {
            fn put_members(&self, out: &mut String, open: &str) {
                let $ty { $($field),+ } = self;
                put_members!(out, open; $($field),+);
            }

            fn take_members(c: &mut Cursor<'_>, open: &str) -> Option<Self> {
                take_members!(c, open; $($field),+);
                Some($ty { $($field),+ })
            }
        }
    };
}

record!(Stats {
    cycles,
    retired,
    predictions,
    arch_mispredictions,
    recoveries,
    reconverged,
    removed,
    inserted,
    ci_instructions,
    ci_renamed,
    ci_evicted,
    preemptions,
    restart_cycles,
    fetch_saved,
    work_saved,
    work_discarded,
    only_fetched,
    issues,
    mem_violation_reissues,
    reg_violation_reissues,
    true_mispredictions,
    false_mispredictions,
    tfr_static,
    tfr_dynamic_pc,
    tfr_dynamic_xor,
    cache_hits,
    cache_misses,
});

record!(MetricsProbe {
    counters,
    restart_length,
    restart_inserted,
    recon_distance,
    occupancy,
    reissues,
});

record!(IdealResult {
    cycles,
    retired,
    mispredictions,
    wrong_path_fetched,
    evictions,
});

/// [`Histogram::raw_parts`] under the names a line gives them.
struct HistogramParts<'a> {
    bounds: Cow<'a, [u64]>,
    counts: Cow<'a, [u64]>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

record!(HistogramParts<'_> {
    bounds,
    counts,
    total,
    sum,
    min,
    max,
});

impl Field for Histogram {
    fn put(&self, out: &mut String) {
        let (bounds, counts, total, sum, min, max) = self.raw_parts();
        HistogramParts {
            bounds: Cow::Borrowed(bounds),
            counts: Cow::Borrowed(counts),
            total,
            sum,
            min,
            max,
        }
        .put(out);
    }

    fn take(c: &mut Cursor<'_>) -> Option<Histogram> {
        let p = HistogramParts::take(c)?;
        Histogram::from_raw_parts(&p.bounds, &p.counts, p.total, p.sum, p.min, p.max)
    }
}

/// The payload: the `kind`, then the output's members in the same object.
impl Field for CellOutput {
    fn put(&self, out: &mut String) {
        match self {
            CellOutput::Detailed { stats, probe } => {
                out.push_str("{\"kind\":\"detailed\"");
                put_members!(out, ","; stats, probe);
            }
            CellOutput::Ideal(result) => {
                out.push_str("{\"kind\":\"ideal\"");
                result.put_members(out, ",");
            }
            CellOutput::Study {
                len,
                predictions,
                mispredictions,
            } => {
                out.push_str("{\"kind\":\"study\"");
                put_members!(out, ","; len, predictions, mispredictions);
            }
        }
        out.push('}');
    }

    fn take(c: &mut Cursor<'_>) -> Option<CellOutput> {
        c.lit("{\"kind\":")?;
        let output = match c.word()? {
            b"detailed" => {
                take_members!(c, ","; stats, probe);
                CellOutput::Detailed { stats, probe }
            }
            b"ideal" => CellOutput::Ideal(IdealResult::take_members(c, ",")?),
            b"study" => {
                take_members!(c, ","; len, predictions, mispredictions);
                CellOutput::Study {
                    len,
                    predictions,
                    mispredictions,
                }
            }
            _ => return None,
        };
        c.lit("}")?;
        Some(output)
    }
}

/// Quarantine a corrupt cache file: write its bytes, unchanged, under
/// `<dir>/quarantine/`, prefixed with a `#`-comment reason header, then
/// remove the original. The quarantine file name embeds the content hash,
/// so re-quarantining identical content is idempotent and distinct
/// corruptions never overwrite each other. Returns the quarantine path.
///
/// Corrupt caches used to be silently dropped and rewritten; keeping the
/// evidence is what lets an operator distinguish a bad disk from a bad
/// writer.
///
/// # Errors
/// Propagates filesystem errors (directory creation, write, remove).
pub fn quarantine_cache_file(
    dir: &Path,
    path: &Path,
    content: &[u8],
    reason: &str,
) -> std::io::Result<PathBuf> {
    let qdir = dir.join("quarantine");
    std::fs::create_dir_all(&qdir)?;
    let file_name = path
        .file_name()
        .map_or_else(|| "cache".to_owned(), |n| n.to_string_lossy().into_owned());
    let qpath = qdir.join(format!("{file_name}.{:016x}", fnv1a(content)));
    let mut body = format!(
        "# quarantined cache file — do not trust, kept for diagnosis\n\
         # reason: {reason}\n\
         # original: {}\n",
        path.display()
    )
    .into_bytes();
    body.extend_from_slice(content);
    std::fs::write(&qpath, body)?;
    std::fs::remove_file(path)?;
    Ok(qpath)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put<T: Field>(v: &T) -> String {
        let mut out = String::new();
        v.put(&mut out);
        out
    }

    /// Read a whole `text` as one `T`; `None` if it does not parse or has
    /// bytes left over.
    fn take<T: Field>(text: &str) -> Option<T> {
        let mut c = Cursor {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = T::take(&mut c)?;
        (c.pos == text.len()).then_some(v)
    }

    #[test]
    fn histogram_round_trips_including_overflow_and_extremes() {
        let mut h = Histogram::exponential(4);
        for v in [0, 1, 3, 17, u64::MAX] {
            h.record(v);
        }
        assert_eq!(take::<Histogram>(&put(&h)), Some(h));
    }

    #[test]
    fn empty_histogram_round_trips() {
        let h = Histogram::linear(16, 4);
        assert_eq!(take::<Histogram>(&put(&h)), Some(h));
    }

    #[test]
    fn tfr_round_trips_large_keys() {
        let mut t = TfrStats::new();
        t.record(u64::MAX - 1, true);
        t.record(u64::MAX - 1, false);
        t.record(3, false);
        assert_eq!(take::<TfrStats>(&put(&t)), Some(t));
        assert_eq!(take::<TfrStats>("[]"), Some(TfrStats::new()));
    }

    #[test]
    fn tfr_entries_of_other_than_three_integers_are_rejected() {
        for bad in [
            "[[\"1\",\"2\"]]",
            "[[\"1\",\"2\",\"3\",\"4\"]]",
            "[[]]",
            "[\"1\"]",
        ] {
            assert!(take::<TfrStats>(bad).is_none(), "accepted {bad}");
        }
    }

    #[test]
    fn inconsistent_histogram_parts_are_rejected() {
        let text = put(&Histogram::linear(1, 2));
        assert!(text.contains("\"total\":\"0\""), "{text}");
        // A total that disagrees with the counts.
        let bad = text.replace("\"total\":\"0\"", "\"total\":\"999\"");
        assert!(take::<Histogram>(&bad).is_none());
    }

    #[test]
    fn counters_of_the_wrong_length_are_rejected() {
        let counters = EventCounters::default();
        let text = put(&counters);
        assert_eq!(take::<EventCounters>(&text), Some(counters));
        let short = text.replacen("\"0\",", "", 1);
        assert!(take::<EventCounters>(&short).is_none());
    }

    #[test]
    fn unknown_kind_is_rejected() {
        assert!(take::<CellOutput>("{\"kind\":\"nonsense\"}").is_none());
        let study = CellOutput::Study {
            len: 1,
            predictions: 2,
            mispredictions: 3,
        };
        let text = put(&study);
        assert_eq!(take::<CellOutput>(&text), Some(study));
        assert!(take::<CellOutput>(&text.replace("study", "studies")).is_none());
    }

    #[test]
    fn integers_are_canonical_decimals() {
        assert_eq!(take::<u64>("\"0\""), Some(0));
        assert_eq!(take::<u64>("\"18446744073709551615\""), Some(u64::MAX));
        assert_eq!(
            take::<u128>("\"18446744073709551616\""),
            Some(u128::from(u64::MAX) + 1)
        );
        for bad in [
            "\"18446744073709551616\"",
            "\"\"",
            "\"07\"",
            "\"+7\"",
            "\"-7\"",
            "\" 7\"",
            "\"7",
            "7",
        ] {
            assert!(take::<u64>(bad).is_none(), "accepted {bad}");
        }
    }

    #[test]
    fn hashes_are_sixteen_lowercase_hex_digits() {
        let mut c = Cursor {
            bytes: b"\"00000000000000ff\"",
            pos: 0,
        };
        assert_eq!(c.hex(), Some(0xff));
        for bad in [
            "\"00000000000000FF\"",
            "\"0000000000000ff\"",
            "\"000000000000000ff\"",
        ] {
            let mut c = Cursor {
                bytes: bad.as_bytes(),
                pos: 0,
            };
            assert!(c.hex().is_none(), "accepted {bad}");
        }
    }
}
