//! Behavioural coverage extraction from the pipeline event stream.
//!
//! The differential fuzzing harness needs a *coverage signal*: a compact,
//! deterministic summary of which recovery paths, squash/restart
//! interleavings and suspension depths a trial exercised, so that
//! coverage-guided search can tell "this input did something new" from
//! "this input re-ran known behaviour". This module provides it without
//! leaving the zero-dependency observability layer:
//!
//! - [`CoverageSignature`] is a fixed-size bitmap ([`COVERAGE_BITS`] bits).
//!   Each bit is an **edge**: a hash bucket of one observed feature.
//! - [`CoverageRecorder`] is a [`Probe`] that folds the event stream into a
//!   signature as the simulation runs. The feature it hashes is the
//!   **event bigram with restart-depth context**: `(previous event code,
//!   current event code, open-restart depth)`, where an event code is the
//!   event kind plus a coarse bucketing of its payload (reconvergence
//!   outcome, log₂ buckets of removed/inserted/cycle counts, reissue
//!   cause, retire issue-count class). Program counters are deliberately
//!   excluded — two programs exercising the same recovery *behaviour* at
//!   different addresses should map to the same edges.
//!
//! Bigrams-with-depth rather than plain event counts because the bugs this
//! signal hunts live in *orderings*: a squash arriving while two restarts
//! are open is a different edge from the same squash at depth zero, and a
//! `RestartBegin` directly after another `RestartBegin` (a preemption or
//! suspension) is a different edge from one after a quiet retire.
//! High-frequency bookkeeping events ([`Event::Fetch`] and
//! [`Event::CycleEnd`]) are excluded: they carry no recovery information
//! and would only smear the map.
//!
//! The recorder takes a caller-supplied `salt` folded into every hash, so
//! one global map can hold several *keyed* sub-spaces (the fuzzing harness
//! salts by machine variant and recovery-handling mode).

use crate::probe::{Event, Probe, ReissueKind};

/// Size of the coverage bitmap in bits. The map must hold the *salted*
/// feature space: the fuzzing harness keys each machine × recovery-handling
/// mode into its own sub-space, so a campaign's distinct-edge count runs to
/// tens of thousands, not hundreds. 2¹⁷ bits (16 KiB) keeps a multi-hundred
/// -trial campaign well below saturation so novelty stays meaningful, while
/// merges and clones remain trivially cheap.
pub const COVERAGE_BITS: usize = 1 << 17;

const COVERAGE_WORDS: usize = COVERAGE_BITS / 64;

/// A fixed-size coverage bitmap; each set bit is one observed edge.
#[derive(Clone, PartialEq, Eq)]
pub struct CoverageSignature {
    words: [u64; COVERAGE_WORDS],
}

impl Default for CoverageSignature {
    fn default() -> Self {
        CoverageSignature {
            words: [0; COVERAGE_WORDS],
        }
    }
}

impl std::fmt::Debug for CoverageSignature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CoverageSignature({} edges)", self.count())
    }
}

impl CoverageSignature {
    /// An empty signature.
    #[must_use]
    pub fn new() -> CoverageSignature {
        CoverageSignature::default()
    }

    /// Set the bit addressed by `hash` (modulo the map size). Returns
    /// `true` when the bit was previously clear.
    pub fn insert(&mut self, hash: u64) -> bool {
        let bit = (hash % COVERAGE_BITS as u64) as usize;
        let (w, b) = (bit / 64, bit % 64);
        let fresh = self.words[w] & (1 << b) == 0;
        self.words[w] |= 1 << b;
        fresh
    }

    /// Whether the bit addressed by `hash` is set.
    #[must_use]
    pub fn contains(&self, hash: u64) -> bool {
        let bit = (hash % COVERAGE_BITS as u64) as usize;
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }

    /// Number of set bits (distinct edges).
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no edge is set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Fold `other` into `self`, returning how many of `other`'s edges
    /// were new to `self`.
    pub fn merge(&mut self, other: &CoverageSignature) -> usize {
        let mut novel = 0;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            novel += (o & !*w).count_ones() as usize;
            *w |= o;
        }
        novel
    }

    /// Indices of all set bits, ascending.
    #[must_use]
    pub fn bits(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count());
        for (w, word) in self.words.iter().enumerate() {
            let mut rest = *word;
            while rest != 0 {
                let b = rest.trailing_zeros();
                out.push((w * 64) as u32 + b);
                rest &= rest - 1;
            }
        }
        out
    }

    /// Rebuild a signature from bit indices (out-of-range indices are
    /// rejected).
    #[must_use]
    pub fn from_bits(bits: &[u32]) -> Option<CoverageSignature> {
        let mut sig = CoverageSignature::new();
        for &b in bits {
            if b as usize >= COVERAGE_BITS {
                return None;
            }
            sig.words[b as usize / 64] |= 1 << (b % 64);
        }
        Some(sig)
    }

    /// A stable 64-bit digest of the exact bit pattern (corpus dedup key).
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in &self.words {
            for byte in w.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        h
    }
}

/// SplitMix64-style finalizer: a cheap, well-mixed hash for edge addressing.
#[inline]
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Log₂ bucket of a count, capped: 0 → 0, 1 → 1, 2-3 → 2, 4-7 → 3, …,
/// everything ≥ 64 → 7.
#[inline]
fn bucket(n: u64) -> u32 {
    if n == 0 {
        0
    } else {
        (64 - n.leading_zeros()).min(7)
    }
}

/// A [`Probe`] folding the event stream into a [`CoverageSignature`].
///
/// Attach one per simulated machine; read the signature back with
/// [`CoverageRecorder::signature`]. The recorder also tracks the maximum
/// restart nesting depth it saw ([`CoverageRecorder::max_depth`]) so
/// callers can derive depth-bucket features of their own.
#[derive(Clone, Debug)]
pub struct CoverageRecorder {
    salt: u64,
    sig: CoverageSignature,
    prev: u32,
    depth: u32,
    max_depth: u32,
}

impl Default for CoverageRecorder {
    fn default() -> Self {
        CoverageRecorder::with_salt(0)
    }
}

/// Event code for the start-of-stream sentinel (no previous event).
const CODE_START: u32 = 0;

impl CoverageRecorder {
    /// A recorder whose every edge hash folds in `salt`.
    #[must_use]
    pub fn with_salt(salt: u64) -> CoverageRecorder {
        CoverageRecorder {
            salt,
            sig: CoverageSignature::new(),
            prev: CODE_START,
            depth: 0,
            max_depth: 0,
        }
    }

    /// The signature accumulated so far.
    #[must_use]
    pub fn signature(&self) -> &CoverageSignature {
        &self.sig
    }

    /// Consume the recorder, returning its signature.
    #[must_use]
    pub fn into_signature(self) -> CoverageSignature {
        self.sig
    }

    /// Deepest restart nesting observed (0 = no recovery at all).
    #[must_use]
    pub fn max_depth(&self) -> u32 {
        self.max_depth
    }

    /// Event code: kind plus coarse payload buckets. `None` for events
    /// excluded from coverage (fetch, cycle-end).
    fn code(event: &Event) -> Option<u32> {
        Some(match *event {
            Event::Fetch { .. } | Event::CycleEnd { .. } => return None,
            Event::Dispatch { .. } => 1,
            Event::Issue { reissue, .. } => 2 + u32::from(reissue),
            Event::Complete { .. } => 4,
            // Retire: first-issue retires, single-reissue retires, and
            // many-reissue retires are different behaviours.
            Event::Retire { issues, .. } => 5 + issues.min(3),
            Event::Squash { .. } => 10,
            Event::RestartBegin {
                reconverged,
                removed,
                ..
            } => 16 + 2 * bucket(u64::from(removed)) + u32::from(reconverged),
            Event::RestartEnd {
                inserted, cycles, ..
            } => 32 + 8 * bucket(inserted) + bucket(cycles),
            Event::Redispatch { renamed, .. } => 96 + u32::from(renamed),
            Event::Reissue { kind, .. } => {
                100 + match kind {
                    ReissueKind::Memory => 0,
                    ReissueKind::Register => 1,
                    ReissueKind::Value => 2,
                }
            }
        })
    }
}

impl Probe for CoverageRecorder {
    #[inline]
    fn record(&mut self, _cycle: u64, event: Event) {
        let Some(code) = Self::code(&event) else {
            return;
        };
        // Depth context uses the state *before* this event takes effect,
        // so a RestartBegin at depth 1 (a preemption/suspension) hashes
        // differently from a top-level one.
        let depth_ctx = self.depth.min(7);
        let feature = self
            .salt
            .wrapping_mul(0x1000_0000_0000_003F)
            .wrapping_add(u64::from(self.prev) << 20 | u64::from(code) << 4 | u64::from(depth_ctx));
        self.sig.insert(mix64(feature));
        self.prev = code;
        match event {
            Event::RestartBegin { .. } => {
                self.depth += 1;
                self.max_depth = self.max_depth.max(self.depth);
            }
            Event::RestartEnd { .. } => self.depth = self.depth.saturating_sub(1),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_signature_is_empty() {
        let s = CoverageSignature::new();
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.bits(), Vec::<u32>::new());
    }

    #[test]
    fn insert_merge_and_novelty() {
        let mut a = CoverageSignature::new();
        assert!(a.insert(1));
        assert!(!a.insert(1));
        assert!(!a.insert(COVERAGE_BITS as u64 + 1)); // same bucket as 1
        assert!(a.insert(2));
        assert_eq!(a.count(), 2);
        assert!(a.contains(1) && a.contains(2) && !a.contains(3));

        let mut b = CoverageSignature::new();
        b.insert(2);
        b.insert(3);
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.count(), 3);
        assert_eq!(a.merge(&b), 0);
    }

    #[test]
    fn bits_round_trip() {
        let mut s = CoverageSignature::new();
        for h in [0u64, 63, 64, 8191, 12345, 999_999] {
            s.insert(h);
        }
        let bits = s.bits();
        let back = CoverageSignature::from_bits(&bits).unwrap();
        assert_eq!(s, back);
        assert_eq!(back.bits(), bits);
        assert!(CoverageSignature::from_bits(&[COVERAGE_BITS as u32]).is_none());
    }

    #[test]
    fn digest_distinguishes_patterns() {
        let mut a = CoverageSignature::new();
        let mut b = CoverageSignature::new();
        a.insert(7);
        b.insert(8);
        assert_ne!(a.digest(), b.digest());
        let mut c = CoverageSignature::new();
        c.insert(7);
        assert_eq!(a.digest(), c.digest());
    }

    fn replay(salt: u64, events: &[Event]) -> CoverageRecorder {
        let mut r = CoverageRecorder::with_salt(salt);
        for (i, e) in events.iter().enumerate() {
            r.record(i as u64, *e);
        }
        r
    }

    #[test]
    fn recorder_is_deterministic_and_salt_sensitive() {
        let events = [
            Event::Dispatch { pc: 4 },
            Event::Issue {
                pc: 4,
                reissue: false,
            },
            Event::RestartBegin {
                branch_pc: 4,
                redirect_pc: 8,
                reconverged: true,
                removed: 3,
            },
            Event::Squash { pc: 12 },
            Event::RestartEnd {
                branch_pc: 4,
                inserted: 2,
                cycles: 5,
            },
            Event::Retire { pc: 4, issues: 1 },
        ];
        let a = replay(1, &events);
        let b = replay(1, &events);
        let c = replay(2, &events);
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.signature(), c.signature());
        assert!(a.signature().count() >= events.len() - 1);
    }

    #[test]
    fn depth_context_distinguishes_nested_restarts() {
        let begin = Event::RestartBegin {
            branch_pc: 1,
            redirect_pc: 2,
            reconverged: false,
            removed: 0,
        };
        let end = Event::RestartEnd {
            branch_pc: 1,
            inserted: 0,
            cycles: 1,
        };
        // Two sequential restarts vs two nested ones: same multiset of
        // events, different interleaving, different coverage.
        let sequential = replay(0, &[begin, end, begin, end]);
        let nested = replay(0, &[begin, begin, end, end]);
        assert_ne!(sequential.signature(), nested.signature());
        assert_eq!(sequential.max_depth(), 1);
        assert_eq!(nested.max_depth(), 2);
    }

    #[test]
    fn noise_events_are_excluded() {
        let r = replay(
            0,
            &[Event::Fetch { pc: 0 }, Event::CycleEnd { occupancy: 3 }],
        );
        assert!(r.signature().is_empty());
        assert_eq!(r.max_depth(), 0);
    }

    #[test]
    fn pcs_do_not_affect_coverage() {
        let a = replay(
            0,
            &[
                Event::Dispatch { pc: 0 },
                Event::Retire { pc: 0, issues: 1 },
            ],
        );
        let b = replay(
            0,
            &[
                Event::Dispatch { pc: 400 },
                Event::Retire { pc: 400, issues: 1 },
            ],
        );
        assert_eq!(a.signature(), b.signature());
    }
}
