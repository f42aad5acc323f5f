//! Resetting-counter branch confidence estimation.

use crate::GlobalHistory;
use ci_isa::Pc;

/// A resetting-counter confidence estimator (Jacobsen, Rotenberg & Smith,
/// MICRO-29): a table of saturating counters indexed like gshare; each
/// correct prediction increments the counter, each misprediction resets it to
/// zero. A prediction is *high confidence* when the counter has reached a
/// threshold.
///
/// ```
/// use ci_bpred::{ConfidenceEstimator, GlobalHistory};
/// use ci_isa::Pc;
///
/// let mut c = ConfidenceEstimator::new(10, 4);
/// let h = GlobalHistory::new();
/// assert!(!c.high_confidence(Pc(1), h));
/// for _ in 0..4 {
///     c.update(Pc(1), h, true); // four correct predictions
/// }
/// assert!(c.high_confidence(Pc(1), h));
/// c.update(Pc(1), h, false); // one misprediction resets
/// assert!(!c.high_confidence(Pc(1), h));
/// ```
#[derive(Clone, Debug)]
pub struct ConfidenceEstimator {
    counters: Vec<u8>,
    index_bits: u32,
    threshold: u8,
}

impl ConfidenceEstimator {
    /// Create an estimator with `2^index_bits` counters and the given
    /// high-confidence `threshold` (counters saturate at 15).
    ///
    /// # Panics
    /// Panics if `index_bits` is 0 or greater than 28, or `threshold` is 0 or
    /// greater than 15.
    #[must_use]
    pub fn new(index_bits: u32, threshold: u8) -> ConfidenceEstimator {
        assert!((1..=28).contains(&index_bits), "index_bits out of range");
        assert!((1..=15).contains(&threshold), "threshold out of range");
        ConfidenceEstimator {
            counters: vec![0; 1 << index_bits],
            index_bits,
            threshold,
        }
    }

    fn index(&self, pc: Pc, hist: GlobalHistory) -> usize {
        let mask = (1u64 << self.index_bits) - 1;
        ((u64::from(pc.0) ^ hist.bits(self.index_bits)) & mask) as usize
    }

    /// Whether the prediction for `pc` under `hist` is high confidence.
    #[must_use]
    pub fn high_confidence(&self, pc: Pc, hist: GlobalHistory) -> bool {
        self.counter(pc, hist) >= self.threshold
    }

    /// The counter for `pc` under `hist` (0..=15): the number of correct
    /// predictions since its last reset, so a caller can compare it against
    /// any threshold.
    #[must_use]
    pub fn counter(&self, pc: Pc, hist: GlobalHistory) -> u8 {
        self.counters[self.index(pc, hist)]
    }

    /// Record whether the prediction for this branch was `correct`.
    pub fn update(&mut self, pc: Pc, hist: GlobalHistory, correct: bool) {
        let i = self.index(pc, hist);
        let c = &mut self.counters[i];
        if correct {
            *c = (*c + 1).min(15);
        } else {
            *c = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_at_15() {
        let mut c = ConfidenceEstimator::new(4, 15);
        let h = GlobalHistory::new();
        for _ in 0..100 {
            c.update(Pc(0), h, true);
        }
        assert!(c.high_confidence(Pc(0), h));
    }

    #[test]
    fn reset_on_mispredict() {
        let mut c = ConfidenceEstimator::new(4, 2);
        let h = GlobalHistory::new();
        c.update(Pc(0), h, true);
        c.update(Pc(0), h, true);
        assert!(c.high_confidence(Pc(0), h));
        c.update(Pc(0), h, false);
        assert!(!c.high_confidence(Pc(0), h));
        c.update(Pc(0), h, true);
        assert!(!c.high_confidence(Pc(0), h)); // needs two again
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn rejects_zero_threshold() {
        let _ = ConfidenceEstimator::new(4, 0);
    }
}
