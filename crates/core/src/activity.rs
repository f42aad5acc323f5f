//! Per-cycle occupancy and progress counters.
//!
//! The cycle loop is polled: every stage runs every cycle whether or not it
//! has work, so wall time alone cannot distinguish a busy stage from one
//! spinning over an empty window. [`CycleActivity`] counts, per cycle,
//! whether each stage actually moved instructions — making "no-progress"
//! polled cycles visible and giving the planned event-driven-wakeup rewrite
//! its before/after yardstick.
//!
//! The counters are a host-side measurement aid, deliberately kept out of
//! [`crate::Stats`]: the simulated machine and its golden-pinned statistics
//! are untouched.

/// Aggregated per-cycle stage activity for one pipeline run.
///
/// A cycle is *active* for a stage when the stage moved at least one
/// instruction that cycle (fetched, issued, completed, or retired). A cycle
/// with no movement in any stage and no recovery in progress is *idle* —
/// pure polling overhead.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CycleActivity {
    /// Total cycles observed.
    pub cycles: u64,
    /// Cycles that fetched ≥1 instruction.
    pub fetch_cycles: u64,
    /// Cycles that issued ≥1 instruction.
    pub issue_cycles: u64,
    /// Cycles that completed (wrote back) ≥1 instruction.
    pub complete_cycles: u64,
    /// Cycles that retired ≥1 instruction.
    pub retire_cycles: u64,
    /// Cycles with the sequencer in a restart/redispatch or a recovery
    /// pending.
    pub recovery_cycles: u64,
    /// Cycles with no stage movement and no recovery in progress.
    pub idle_cycles: u64,
    /// Instructions fetched (including wrong-path and restart inserts).
    pub fetched: u64,
    /// Issue events (including reissues).
    pub issued: u64,
    /// Writeback completions.
    pub completed: u64,
    /// Retirements.
    pub retired: u64,
    /// Sum of end-of-cycle window occupancy (for the average).
    pub occupancy_sum: u64,
    // Per-cycle scratch, folded in by `end_cycle`.
    pub(crate) cur_fetched: u32,
    pub(crate) cur_issued: u32,
    pub(crate) cur_completed: u32,
    pub(crate) cur_retired: u32,
}

impl CycleActivity {
    /// Fold the current cycle's scratch counts into the totals and classify
    /// the cycle.
    #[inline]
    pub(crate) fn end_cycle(&mut self, occupancy: u32, recovery_busy: bool) {
        self.cycles += 1;
        self.occupancy_sum += u64::from(occupancy);
        let mut any = false;
        if self.cur_fetched > 0 {
            self.fetch_cycles += 1;
            any = true;
        }
        if self.cur_issued > 0 {
            self.issue_cycles += 1;
            any = true;
        }
        if self.cur_completed > 0 {
            self.complete_cycles += 1;
            any = true;
        }
        if self.cur_retired > 0 {
            self.retire_cycles += 1;
            any = true;
        }
        if recovery_busy {
            self.recovery_cycles += 1;
            any = true;
        }
        if !any {
            self.idle_cycles += 1;
        }
        self.fetched += u64::from(self.cur_fetched);
        self.issued += u64::from(self.cur_issued);
        self.completed += u64::from(self.cur_completed);
        self.retired += u64::from(self.cur_retired);
        self.cur_fetched = 0;
        self.cur_issued = 0;
        self.cur_completed = 0;
        self.cur_retired = 0;
    }

    /// Mean end-of-cycle window occupancy (0.0 when no cycles ran).
    #[must_use]
    pub fn avg_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Multi-line stage-occupancy report: per-stage active-cycle share and
    /// per-cycle movement rates, plus the idle (pure-polling) share.
    #[must_use]
    pub fn summary(&self) -> String {
        let cyc = self.cycles.max(1) as f64;
        let pct = |n: u64| 100.0 * n as f64 / cyc;
        let rate = |n: u64| n as f64 / cyc;
        let mut out = format!(
            "stage occupancy over {} cycles (avg window occupancy {:.1}):\n",
            self.cycles,
            self.avg_occupancy()
        );
        for (name, active, moved) in [
            ("fetch", self.fetch_cycles, self.fetched),
            ("issue", self.issue_cycles, self.issued),
            ("complete", self.complete_cycles, self.completed),
            ("retire", self.retire_cycles, self.retired),
        ] {
            out.push_str(&format!(
                "  {name:<8} active {:>5.1}%  ({} insts, {:.2}/cycle)\n",
                pct(active),
                moved,
                rate(moved)
            ));
        }
        out.push_str(&format!(
            "  {:<8} active {:>5.1}%\n",
            "recovery",
            pct(self.recovery_cycles)
        ));
        out.push_str(&format!(
            "  {:<8}        {:>5.1}%  (no-progress polled cycles)\n",
            "idle",
            pct(self.idle_cycles)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_cycles() {
        let mut a = CycleActivity {
            cur_fetched: 4,
            cur_issued: 2,
            ..CycleActivity::default()
        };
        a.end_cycle(10, false); // fetch+issue active
        a.end_cycle(10, true); // recovery only
        a.end_cycle(10, false); // idle
        a.cur_retired = 1;
        a.end_cycle(7, false); // retire active
        assert_eq!(a.cycles, 4);
        assert_eq!(a.fetch_cycles, 1);
        assert_eq!(a.issue_cycles, 1);
        assert_eq!(a.retire_cycles, 1);
        assert_eq!(a.recovery_cycles, 1);
        assert_eq!(a.idle_cycles, 1);
        assert_eq!(a.fetched, 4);
        assert_eq!(a.issued, 2);
        assert_eq!(a.retired, 1);
        assert_eq!(a.occupancy_sum, 37);
        assert!((a.avg_occupancy() - 9.25).abs() < 1e-12);
        let text = a.summary();
        assert!(text.contains("no-progress"));
        assert!(text.contains("fetch"));
    }
}
