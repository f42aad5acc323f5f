//! The sensitivity record: which configuration decisions a run exercised.
//!
//! Most of the paper's variant axes act only when their mechanism fires. A
//! preemption policy matters only if a restart is preempted, a window size
//! only where the window fills, a completion model only where a completed
//! branch waits behind an unsettled older branch or an unresolved older
//! store. A [`Sensitivity`] notes, at every decision point a run reaches,
//! the facts any other value of the deciding field would decide on.
//! [`Sensitivity::covers`] then says whether a *sibling* configuration would
//! have decided every one of those points exactly as the run did. If it
//! would, the sibling's machine follows the same trajectory cycle for
//! cycle, so its [`Stats`](crate::Stats), its probe stream and the
//! retirement check it passes are the run's.
//!
//! The decision points and the facts they record:
//!
//! | field | decision point | recorded fact |
//! |---|---|---|
//! | `window` | fetch capacity check | largest occupancy seen below the limit, smallest seen at it |
//! | `preemption` | preemption branch of recovery service | a restart was preempted |
//! | `redispatch`, `repredict` | redispatch sequence | a redispatch sequence ran |
//! | `completion` | completion gates of misprediction detection | a completed branch sat behind an unsettled older control instruction, an unresolved older store, or both |
//! | `hide_false_mispredictions` | mismatch handling | the oracle condition held at a mismatch |
//! | `oracle_ghr` | history choice at fetch and re-prediction | the two histories predicted differently |
//! | `squash`, `recon`, `conf_threshold` | recovery | per recovery, the branch's confidence counter and where each heuristic first matches in the window |
//!
//! Every other field is not recorded, so a sibling must match it exactly.

use crate::config::{CompletionModel, PipelineConfig, SquashMode};

/// What a run's decisions depended on (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sensitivity {
    /// Smallest window that decides every fetch capacity check as this run
    /// did.
    window_lo: usize,
    /// Largest such window.
    window_hi: usize,
    /// Completion-gate situations met by completed control candidates: bit
    /// `behind_ctrl | behind_store << 1`.
    gates: u8,
    /// The `*-HFM` oracle condition held at a detected mismatch.
    false_mismatch: bool,
    /// The speculative and architectural histories predicted differently.
    history: bool,
    /// A restart was preempted.
    preempted: bool,
    /// A redispatch sequence ran.
    redispatched: bool,
    /// A complete-squash machine recovers every branch as this run did.
    full: bool,
    /// Per confidence threshold `t` (0..=15): bit `m` stays set while a CI
    /// machine with threshold `t` and strategy mask `m`
    /// ([`ReconStrategy::mask`](crate::ReconStrategy)) recovers every branch
    /// as this run did.
    ci: [u16; 16],
}

impl Default for Sensitivity {
    fn default() -> Self {
        Sensitivity {
            window_lo: 0,
            window_hi: usize::MAX,
            gates: 0,
            false_mismatch: false,
            history: false,
            preempted: false,
            redispatched: false,
            full: true,
            ci: [u16::MAX; 16],
        }
    }
}

/// Whether a completed candidate in `situation` (bit 0: behind an unsettled
/// older control instruction; bit 1: behind an unresolved older store)
/// passes the gates of `completion`.
fn gate_passes(completion: CompletionModel, situation: u8) -> bool {
    let waits_for_ctrl = completion.in_order() && situation & 1 != 0;
    let waits_for_store = completion.non_dspec() && situation & 2 != 0;
    !waits_for_ctrl && !waits_for_store
}

impl Sensitivity {
    /// Whether a machine configured as `other` would decide every decision
    /// point this run reached exactly as this run, configured as `run`,
    /// did — and so would produce this run's statistics and probe stream.
    ///
    /// Fields the record does not handle must be equal: they are compared
    /// by copying the handled fields of `run` over `other` and comparing the
    /// whole configurations, so a field added later is refused until it
    /// joins the record.
    #[must_use]
    pub fn covers(&self, run: &PipelineConfig, other: &PipelineConfig) -> bool {
        let unhandled_equal = PipelineConfig {
            window: run.window,
            squash: run.squash,
            recon: run.recon,
            redispatch: run.redispatch,
            preemption: run.preemption,
            completion: run.completion,
            hide_false_mispredictions: run.hide_false_mispredictions,
            repredict: run.repredict,
            oracle_ghr: run.oracle_ghr,
            conf_threshold: run.conf_threshold,
            ..*other
        } == *run;
        unhandled_equal
            && (self.window_lo..=self.window_hi).contains(&other.window)
            && (other.preemption == run.preemption || !self.preempted)
            && ((other.redispatch == run.redispatch && other.repredict == run.repredict)
                || !self.redispatched)
            && (0..4u8)
                .filter(|s| self.gates >> s & 1 != 0)
                .all(|s| gate_passes(run.completion, s) == gate_passes(other.completion, s))
            && (other.hide_false_mispredictions == run.hide_false_mispredictions
                || !self.false_mismatch)
            && (other.oracle_ghr == run.oracle_ghr || !self.history)
            // A threshold above 15 does not build (and so serves nothing).
            && self
                .ci
                .get(usize::from(other.conf_threshold))
                .is_some_and(|&ci| match other.squash {
                    SquashMode::Full => self.full,
                    SquashMode::ControlIndependence => ci >> other.recon.mask() & 1 != 0,
                })
    }

    /// A fetch capacity check: whether `used` window capacity fills a
    /// window of `window` instructions.
    pub(crate) fn note_capacity(&mut self, used: usize, window: usize) -> bool {
        if used >= window {
            self.window_hi = self.window_hi.min(used);
            true
        } else {
            self.window_lo = self.window_lo.max(used + 1);
            false
        }
    }

    /// A completed control candidate met the completion gates.
    pub(crate) fn note_gate(&mut self, behind_ctrl: bool, behind_store: bool) {
        self.gates |= 1 << (u8::from(behind_ctrl) | u8::from(behind_store) << 1);
    }

    /// The `*-HFM` oracle condition held at a detected mismatch.
    pub(crate) fn note_false_mismatch(&mut self) {
        self.false_mismatch = true;
    }

    /// Whether the two histories are already known to predict differently
    /// (so there is nothing left to learn from comparing them).
    pub(crate) fn history_sensitive(&self) -> bool {
        self.history
    }

    /// The speculative and architectural histories predicted differently.
    pub(crate) fn note_history(&mut self) {
        self.history = true;
    }

    /// A restart was preempted.
    pub(crate) fn note_preemption(&mut self) {
        self.preempted = true;
    }

    /// A redispatch sequence ran.
    pub(crate) fn note_redispatch(&mut self) {
        self.redispatched = true;
    }

    /// One recovery. `counter` is the branch's confidence counter at fetch
    /// (0 for anything but a conditional branch); `before` holds the
    /// heuristics that match strictly before the chosen reconvergent point
    /// (anywhere in the window when none was chosen), `at` those that match
    /// the chosen point; `reconverged` says whether one was chosen.
    pub(crate) fn note_recovery(&mut self, counter: u8, before: u8, at: u8, reconverged: bool) {
        // The strategies whose first match is the chosen point (or that
        // match nothing, when none was chosen).
        let mut agree = 0u16;
        for m in 0..16u8 {
            if m & before == 0 && (!reconverged || m & at != 0) {
                agree |= 1 << m;
            }
        }
        // A machine that allocates no CI context squashes completely.
        let squash_agrees = if reconverged { 0 } else { u16::MAX };
        self.full &= !reconverged;
        for (t, mask) in (0u8..).zip(self.ci.iter_mut()) {
            let high_conf = t > 0 && counter >= t;
            *mask &= if high_conf { squash_agrees } else { agree };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Preemption, ReconStrategy};

    #[test]
    fn an_empty_record_covers_every_handled_field_but_not_the_rest() {
        let s = Sensitivity::default();
        let run = PipelineConfig::ci(64);
        let sibling = PipelineConfig {
            window: 512,
            preemption: Preemption::Optimal,
            completion: CompletionModel::NonSpec,
            conf_threshold: 9,
            recon: ReconStrategy::hardware(true, true, false),
            ..PipelineConfig::base(64)
        };
        assert!(s.covers(&run, &sibling));
        assert!(!s.covers(&run, &PipelineConfig { width: 8, ..run }));
        assert!(!s.covers(
            &run,
            &PipelineConfig {
                check: false,
                ..run
            }
        ));
        for run in [run, PipelineConfig::base(64)] {
            assert!(!s.covers(
                &run,
                &PipelineConfig {
                    conf_threshold: 16,
                    ..run
                }
            ));
        }
    }

    #[test]
    fn capacity_checks_bound_the_window() {
        let mut s = Sensitivity::default();
        let run = PipelineConfig::ci(64);
        assert!(!s.note_capacity(40, 64));
        assert!(s.note_capacity(64, 64));
        for (window, covered) in [(40, false), (41, true), (64, true), (65, false)] {
            assert_eq!(
                s.covers(&run, &PipelineConfig { window, ..run }),
                covered,
                "{window}"
            );
        }
    }

    #[test]
    fn a_recovery_pins_the_strategies_and_thresholds_that_agree() {
        let mut s = Sensitivity::default();
        let run = PipelineConfig::ci(64);
        // Post-dominator point chosen; the loop heuristic matched earlier,
        // the return heuristic at the same entry. Counter 5.
        s.note_recovery(5, 4, 1 | 2, true);
        let with = |recon, conf_threshold| PipelineConfig {
            recon,
            conf_threshold,
            ..run
        };
        assert!(s.covers(&run, &with(ReconStrategy::hardware(true, false, false), 0)));
        assert!(!s.covers(&run, &with(ReconStrategy::hardware(true, true, false), 0)));
        assert!(!s.covers(&run, &with(ReconStrategy::hardware(false, false, true), 0)));
        // Thresholds 1..=5 make the branch high confidence: no CI context.
        assert!(!s.covers(&run, &with(ReconStrategy::software(), 5)));
        assert!(s.covers(&run, &with(ReconStrategy::software(), 6)));
        assert!(!s.covers(&run, &PipelineConfig::base(64)));
    }
}
