//! Trial-level coverage: salted per-machine signatures and config-derived
//! features.
//!
//! Each trial runs the three detailed machines (BASE / CI / CI-I) with a
//! [`ci_obs::CoverageRecorder`] attached. The recorder hashes **event
//! bigrams with restart-depth context** (see `ci-obs`); this module decides
//! *which key space* each machine's edges land in and folds in the features
//! only the harness can see:
//!
//! - **Machine × handling-mode salt.** An edge exercised under selective
//!   squash with non-speculative completion is a different verification
//!   target from the same event sequence under full squash — the recovery
//!   code paths involved are different. Each machine's recorder is salted
//!   with [`mode_salt`], a hash of the machine index and the
//!   recovery-relevant configuration axes (completion model, preemption,
//!   repredict mode, reconvergence family, window/segment class). The
//!   deliberately *excluded* axes (cache geometry, predictor size, exact
//!   window size) shape behaviour that already shows up in the event
//!   stream; salting by them would reward config enumeration instead of
//!   behavioural novelty.
//! - **Restart-depth × handling-mode buckets.** The maximum restart
//!   nesting depth each machine reached is folded in as its own feature,
//!   one bit per (mode, depth) bucket — a campaign that has driven CI-I
//!   with optimal preemption to depth 3 has verified something a depth-1
//!   campaign has not.
//!
//! The union of the three salted signatures is the trial's
//! [`TrialCoverage`]; the campaign merges each trial's signature into one
//! [`CoverageSignature`] map, whose `merge` reports how many edges the trial
//! contributed.

use ci_core::{CompletionModel, PipelineConfig, Preemption, RepredictMode};
use ci_obs::{mix64, CoverageSignature};

/// Coverage extracted from one trial: the union of the three machines'
/// salted signatures plus depth-bucket features.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrialCoverage {
    /// Union signature across BASE / CI / CI-I.
    pub signature: CoverageSignature,
}

impl TrialCoverage {
    /// Distinct edges in the union signature.
    #[must_use]
    pub fn edges(&self) -> usize {
        self.signature.count()
    }

    /// Fold one machine's run into the trial: merge its signature and add
    /// the (mode, max-depth) bucket features.
    pub fn absorb(&mut self, salt: u64, sig: &CoverageSignature, max_depth: u32) {
        self.signature.merge(sig);
        // One bit per depth reached under this mode: depth 3 implies the
        // campaign also saw 1 and 2, so set the whole prefix — a deeper
        // trial strictly dominates a shallower one.
        for d in 1..=max_depth.min(7) {
            self.signature
                .insert(mix64(salt ^ 0xDEEB_u64 << 32 ^ u64::from(d)));
        }
    }
}

/// Stable bucket for the recovery-relevant configuration axes of one
/// machine run. `machine` is the variant index (0 = BASE, 1 = CI,
/// 2 = CI-I) from [`crate::TrialSpec::detailed_variants`].
#[must_use]
pub(crate) fn mode_salt(machine: usize, config: &PipelineConfig) -> u64 {
    let completion = match config.completion {
        CompletionModel::SpecC => 0u64,
        CompletionModel::NonSpec => 1,
        CompletionModel::SpecD => 2,
        CompletionModel::Spec => 3,
    };
    let preemption = match config.preemption {
        Preemption::Simple => 0u64,
        Preemption::Optimal => 1,
    };
    let repredict = match config.repredict {
        RepredictMode::Heuristic => 0u64,
        RepredictMode::None => 1,
        RepredictMode::Oracle => 2,
    };
    // Reconvergence family, not exact heuristic mix: software post-dominator
    // vs how many hardware detectors are armed.
    let recon = if config.recon.postdominator {
        0u64
    } else {
        1 + u64::from(config.recon.returns)
            + u64::from(config.recon.loops)
            + u64::from(config.recon.ltb)
    };
    // Window/segment class: tiny vs small vs large windows behave
    // differently under restart pressure; segmentation changes capacity
    // accounting.
    let window_class = match config.window {
        0..=24 => 0u64,
        25..=64 => 1,
        _ => 2,
    };
    let segmented = u64::from(config.segment > 1);
    mix64(
        (machine as u64) << 40
            | completion << 32
            | preemption << 28
            | repredict << 24
            | recon << 16
            | window_class << 8
            | segmented,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TrialSpec;
    use ci_core::SquashMode;

    #[test]
    fn mode_salts_separate_machines_and_modes() {
        let spec = TrialSpec::generate(3);
        let variants = spec.detailed_variants();
        let [a, b, c] = [0, 1, 2].map(|m| mode_salt(m, &variants[m].1));
        assert_ne!(a, b);
        assert_ne!(b, c);
        // Changing a recovery-relevant axis moves the salt...
        let mut other = spec.config;
        other.completion = if other.completion == CompletionModel::NonSpec {
            CompletionModel::Spec
        } else {
            CompletionModel::NonSpec
        };
        assert_ne!(mode_salt(1, &spec.config), mode_salt(1, &other));
        // ...changing an excluded axis (predictor size) does not.
        let mut pred = spec.config;
        pred.predictor_bits += 1;
        assert_eq!(mode_salt(1, &spec.config), mode_salt(1, &pred));
        // And the salt ignores the squash field itself (the machine index
        // already encodes the variant).
        let mut squash = spec.config;
        squash.squash = SquashMode::Full;
        assert_eq!(mode_salt(1, &spec.config), mode_salt(1, &squash));
    }

    #[test]
    fn depth_buckets_are_prefix_closed_and_mode_keyed() {
        let mut shallow = TrialCoverage::default();
        shallow.absorb(7, &CoverageSignature::new(), 1);
        let mut deep = TrialCoverage::default();
        deep.absorb(7, &CoverageSignature::new(), 3);
        assert_eq!(shallow.edges(), 1);
        assert_eq!(deep.edges(), 3);
        // Edges of `b` that `a` lacks.
        let novel = |a: &TrialCoverage, b: &TrialCoverage| a.signature.clone().merge(&b.signature);
        assert_eq!(novel(&shallow, &deep), 2);
        assert_eq!(novel(&deep, &shallow), 0);

        let mut other_mode = TrialCoverage::default();
        other_mode.absorb(8, &CoverageSignature::new(), 1);
        assert_eq!(novel(&shallow, &other_mode), 1);
    }
}
