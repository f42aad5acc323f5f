//! Pipeline configuration.

use ci_isa::LatencyModel;

/// How the processor recovers from branch mispredictions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SquashMode {
    /// Complete squash of everything younger than the branch (the BASE
    /// machine).
    Full,
    /// Selective squash with restart and redispatch sequences (the CI
    /// machine).
    ControlIndependence,
}

/// [`ReconStrategy::mask`] bit of the software post-dominator scheme.
pub(crate) const POSTDOM: u8 = 1;
/// [`ReconStrategy::mask`] bit of the `return` heuristic.
pub(crate) const RETURNS: u8 = 2;
/// [`ReconStrategy::mask`] bit of the `loop` heuristic.
pub(crate) const LOOPS: u8 = 4;
/// [`ReconStrategy::mask`] bit of the `ltb` heuristic.
pub(crate) const LTB: u8 = 8;

/// How reconvergent points are identified (Section 3.2.1 / Appendix A.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReconStrategy {
    /// Use the compiler's immediate post-dominator information.
    pub postdominator: bool,
    /// `return` heuristic: predicted targets of returns are candidates.
    pub returns: bool,
    /// `loop` heuristic: predicted targets of backward branches are
    /// candidates.
    pub loops: bool,
    /// `ltb` heuristic: a mispredicted backward branch reconverges at its
    /// not-taken target.
    pub ltb: bool,
}

impl ReconStrategy {
    /// Software post-dominator analysis only (the paper's primary CI
    /// configuration).
    #[must_use]
    pub const fn software() -> ReconStrategy {
        ReconStrategy {
            postdominator: true,
            returns: false,
            loops: false,
            ltb: false,
        }
    }

    /// Hardware-only heuristics (Figure 17 configurations).
    #[must_use]
    pub const fn hardware(returns: bool, loops: bool, ltb: bool) -> ReconStrategy {
        ReconStrategy {
            postdominator: false,
            returns,
            loops,
            ltb,
        }
    }

    /// The enabled mechanisms as a 4-bit set (`POSTDOM | RETURNS | LOOPS |
    /// LTB`), so the sixteen strategies index a bit mask.
    pub(crate) fn mask(self) -> u8 {
        let bit = |on: bool, bit: u8| if on { bit } else { 0 };
        bit(self.postdominator, POSTDOM)
            | bit(self.returns, RETURNS)
            | bit(self.loops, LOOPS)
            | bit(self.ltb, LTB)
    }
}

/// How the redispatch sequence is timed (Section 4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RedispatchMode {
    /// Redispatch proceeds at the machine's dispatch width per cycle (CI).
    Pipelined,
    /// All control-independent instructions are redispatched in a single
    /// cycle after the restart completes (CI-I).
    Instant,
}

/// Preemption policy for overlapping restart sequences (Appendix A.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Preemption {
    /// The sequencer tracks only the most recent restart; preempted restarts
    /// squash from the old reconvergent point.
    Simple,
    /// Suspended restarts are stacked and resumed (used for the appendix's
    /// enhancement studies).
    Optimal,
}

/// Branch completion models of Appendix A.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CompletionModel {
    /// Branches complete in order with fully non-speculative operands.
    NonSpec,
    /// In-order completion; data-speculative operands allowed.
    SpecD,
    /// Out-of-order completion; operands must not be data-speculative
    /// (the paper's primary configuration).
    SpecC,
    /// Branches complete whenever operands are available.
    Spec,
}

impl CompletionModel {
    /// Whether this model requires the branch to be the oldest unresolved
    /// branch before completing.
    #[must_use]
    pub fn in_order(self) -> bool {
        matches!(self, CompletionModel::NonSpec | CompletionModel::SpecD)
    }

    /// Whether this model forbids data-speculative operands.
    #[must_use]
    pub fn non_dspec(self) -> bool {
        matches!(self, CompletionModel::NonSpec | CompletionModel::SpecC)
    }
}

/// Re-predict sequence policy (Appendix A.3.2 / Figure 13).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RepredictMode {
    /// No re-predict sequences (CI-NR).
    None,
    /// Heuristic: completed branches force the predictor, others follow the
    /// re-prediction (CI).
    Heuristic,
    /// Oracle re-prediction: correct predictions are never overturned
    /// (CI-OR).
    Oracle,
}

/// Data-cache model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheModel {
    /// Perfect cache with a fixed access latency (the Section 2 setup).
    Ideal {
        /// Access latency in cycles.
        latency: u64,
    },
    /// Set-associative cache with hit/miss latencies and a perfect L2
    /// (the Section 4 setup: 64KB, 4-way, 2-cycle hit, 14-cycle miss).
    Realistic {
        /// Total capacity in 64-bit words.
        words: usize,
        /// Associativity.
        ways: usize,
        /// Words per line.
        line_words: usize,
        /// Hit latency in cycles.
        hit: u64,
        /// Miss latency in cycles.
        miss: u64,
    },
}

impl CacheModel {
    /// The paper's Section 4 data cache: 64KB, 4-way, 2-cycle hit, 14-cycle
    /// miss.
    #[must_use]
    pub fn paper_realistic() -> CacheModel {
        CacheModel::Realistic {
            words: 64 * 1024 / 8,
            ways: 4,
            line_words: 8,
            hit: 2,
            miss: 14,
        }
    }
}

/// Full configuration of the detailed execution-driven simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PipelineConfig {
    /// Machine width: peak fetch/dispatch/issue/retire per cycle (paper: 16).
    pub width: usize,
    /// Instruction window (ROB) size in instructions.
    pub window: usize,
    /// ROB segment size in instructions; 1 = instruction-granularity
    /// linked list (Appendix A.4 evaluates 1/4/16).
    pub segment: usize,
    /// Recovery mode.
    pub squash: SquashMode,
    /// Reconvergence detection.
    pub recon: ReconStrategy,
    /// Redispatch timing.
    pub redispatch: RedispatchMode,
    /// Restart preemption policy.
    pub preemption: Preemption,
    /// Branch completion model.
    pub completion: CompletionModel,
    /// Use oracle knowledge to hide false mispredictions (`*-HFM` models).
    pub hide_false_mispredictions: bool,
    /// Re-predict sequences.
    pub repredict: RepredictMode,
    /// Predict with the architecturally correct global history (Figure 12).
    pub oracle_ghr: bool,
    /// Data cache.
    pub cache: CacheModel,
    /// Execution latencies.
    pub latencies: LatencyModel,
    /// log2 of gshare/CTB table sizes (paper: 16).
    pub predictor_bits: u32,
    /// Confidence gating of control-independence resources: `0` (the
    /// default) allocates a restart/reconvergence context for every
    /// mispredicted branch, as the paper does. A value in `1..=15` attaches
    /// a resetting-counter [`ConfidenceEstimator`](ci_bpred::ConfidenceEstimator)
    /// (Jacobsen/Rotenberg/Smith) to fetch: branches whose prediction is
    /// *high confidence* (counter ≥ threshold) are deemed unlikely to
    /// mispredict, so the hardware skips CI setup for them and their (rare)
    /// mispredictions recover with a complete squash. Lower thresholds gate
    /// more aggressively. Has no effect on the BASE machine.
    pub conf_threshold: u8,
    /// Verify every retired instruction against the functional trace.
    pub check: bool,
}

impl PipelineConfig {
    /// The paper's BASE machine (Section 4): complete squash, spec-C
    /// completion, realistic cache, 16-wide.
    #[must_use]
    pub fn base(window: usize) -> PipelineConfig {
        PipelineConfig {
            width: 16,
            window,
            segment: 1,
            squash: SquashMode::Full,
            recon: ReconStrategy::software(),
            redispatch: RedispatchMode::Pipelined,
            preemption: Preemption::Simple,
            completion: CompletionModel::SpecC,
            hide_false_mispredictions: false,
            repredict: RepredictMode::Heuristic,
            oracle_ghr: false,
            cache: CacheModel::paper_realistic(),
            latencies: LatencyModel::new(),
            predictor_bits: 16,
            conf_threshold: 0,
            check: true,
        }
    }

    /// The paper's CI machine (Section 4): selective squash with software
    /// post-dominator reconvergence.
    #[must_use]
    pub fn ci(window: usize) -> PipelineConfig {
        PipelineConfig {
            squash: SquashMode::ControlIndependence,
            ..PipelineConfig::base(window)
        }
    }

    /// The paper's CI-I machine: CI plus single-cycle redispatch.
    #[must_use]
    pub fn ci_instant(window: usize) -> PipelineConfig {
        PipelineConfig {
            redispatch: RedispatchMode::Instant,
            ..PipelineConfig::ci(window)
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::ci(256)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let b = PipelineConfig::base(256);
        assert_eq!(b.width, 16);
        assert_eq!(b.squash, SquashMode::Full);
        assert_eq!(b.completion, CompletionModel::SpecC);
        let c = PipelineConfig::ci(128);
        assert_eq!(c.window, 128);
        assert_eq!(c.squash, SquashMode::ControlIndependence);
        assert!(c.recon.postdominator);
        let i = PipelineConfig::ci_instant(512);
        assert_eq!(i.redispatch, RedispatchMode::Instant);
    }

    #[test]
    fn completion_model_predicates() {
        assert!(CompletionModel::NonSpec.in_order());
        assert!(CompletionModel::NonSpec.non_dspec());
        assert!(CompletionModel::SpecD.in_order());
        assert!(!CompletionModel::SpecD.non_dspec());
        assert!(!CompletionModel::SpecC.in_order());
        assert!(CompletionModel::SpecC.non_dspec());
        assert!(!CompletionModel::Spec.in_order());
        assert!(!CompletionModel::Spec.non_dspec());
    }

    #[test]
    fn recon_strategies() {
        assert!(ReconStrategy::software().postdominator);
        let h = ReconStrategy::hardware(true, false, true);
        assert!(!h.postdominator);
        assert!(h.returns);
        assert!(h.ltb);
        assert!(!h.loops);
    }

    #[test]
    fn paper_cache_geometry() {
        if let CacheModel::Realistic {
            words,
            ways,
            line_words,
            hit,
            miss,
        } = CacheModel::paper_realistic()
        {
            assert_eq!(words, 8192);
            assert_eq!(ways, 4);
            assert_eq!(line_words, 8);
            assert_eq!(hit, 2);
            assert_eq!(miss, 14);
        } else {
            panic!("expected realistic cache");
        }
    }
}
