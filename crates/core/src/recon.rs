//! Reconvergent-point detection: software post-dominators and the hardware
//! heuristics of Appendix A.5.

use crate::config::ReconStrategy;
use ci_cfg::ReconvergenceMap;
use ci_isa::{Inst, InstClass, Pc, Program};
use std::collections::HashSet;
use std::sync::Arc;

/// Identifies candidate reconvergent points for mispredicted branches.
///
/// Two mechanisms, per the paper:
///
/// - **software**: per-branch immediate post-dominator PCs computed by
///   [`ci_cfg::ReconvergenceMap`] (the compiler-assisted scheme of
///   Section 3.2.1);
/// - **hardware heuristics** (A.5.2): tables of "global" reconvergent-point
///   candidates learned by watching the decoded instruction stream — targets
///   of returns (`return` heuristic) and predicted targets of backward
///   branches (`loop` heuristic) — plus the precise `ltb` rule for
///   mispredicted backward branches (their not-taken target).
///
/// The window search itself (nearest candidate after the branch) is done by
/// the pipeline, which owns the window.
#[derive(Clone, Debug)]
pub struct ReconDetector {
    strategy: ReconStrategy,
    /// The post-dominator map; present exactly when the strategy uses it.
    software: Option<Arc<ReconvergenceMap>>,
    candidates: HashSet<Pc>,
}

impl ReconDetector {
    /// Build a detector for `program` under `strategy`.
    #[must_use]
    pub fn new(program: &Program, strategy: ReconStrategy) -> ReconDetector {
        ReconDetector::with_map(strategy, || Arc::new(ReconvergenceMap::compute(program)))
    }

    /// Build a detector under `strategy` whose software map, if the
    /// strategy uses one, comes from `map` (a shared, already computed map).
    pub(crate) fn with_map(
        strategy: ReconStrategy,
        map: impl FnOnce() -> Arc<ReconvergenceMap>,
    ) -> ReconDetector {
        ReconDetector {
            strategy,
            software: strategy.postdominator.then(map),
            candidates: HashSet::new(),
        }
    }

    /// The active strategy.
    #[must_use]
    pub fn strategy(&self) -> ReconStrategy {
        self.strategy
    }

    /// Observe a decoded instruction and its predicted next PC, learning
    /// global reconvergent-point candidates.
    pub fn observe(&mut self, pc: Pc, inst: &Inst, predicted_next: Pc) {
        if self.strategy.returns && inst.class() == InstClass::Return {
            self.candidates.insert(predicted_next);
        }
        if self.strategy.loops && inst.is_backward_branch(pc) {
            // Predicted-taken → top of loop; predicted not-taken → loop exit.
            self.candidates.insert(predicted_next);
        }
    }

    /// Software (post-dominator) reconvergent PC of the branch at `pc`.
    #[must_use]
    pub fn software_recon(&self, pc: Pc) -> Option<Pc> {
        self.software.as_ref()?.reconvergent_point(pc)
    }

    /// The `ltb` heuristic's reconvergent PC for a mispredicted branch: the
    /// not-taken target of a backward branch.
    #[must_use]
    pub fn ltb_recon(&self, pc: Pc, inst: &Inst) -> Option<Pc> {
        if self.strategy.ltb && inst.is_backward_branch(pc) {
            Some(pc.next())
        } else {
            None
        }
    }

    /// Whether `pc` is a learned global reconvergent-point candidate.
    #[must_use]
    pub fn is_candidate(&self, pc: Pc) -> bool {
        (self.strategy.returns || self.strategy.loops) && self.candidates.contains(&pc)
    }

    /// Whether any hardware heuristic is enabled.
    #[must_use]
    pub fn uses_heuristics(&self) -> bool {
        self.strategy.returns || self.strategy.loops || self.strategy.ltb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_isa::{Asm, Reg};

    fn looped() -> Program {
        let mut a = Asm::new();
        a.li(Reg::R1, 3);
        a.label("top").unwrap();
        a.addi(Reg::R1, Reg::R1, -1);
        a.bne(Reg::R1, Reg::R0, "top"); // backward branch at pc 2
        a.call("f"); // pc 3
        a.halt(); // pc 4
        a.label("f").unwrap();
        a.ret(); // pc 5
        a.assemble().unwrap()
    }

    #[test]
    fn software_mode_uses_postdominators() {
        let p = looped();
        let d = ReconDetector::new(&p, ReconStrategy::software());
        assert_eq!(d.software_recon(Pc(2)), Some(Pc(3)));
        assert!(!d.uses_heuristics());
        assert!(!d.is_candidate(Pc(3)));
    }

    #[test]
    fn return_heuristic_learns_targets() {
        let p = looped();
        let mut d = ReconDetector::new(&p, ReconStrategy::hardware(true, false, false));
        assert_eq!(d.software_recon(Pc(2)), None);
        let ret = *p.fetch(Pc(5)).unwrap();
        d.observe(Pc(5), &ret, Pc(4));
        assert!(d.is_candidate(Pc(4)));
        assert!(!d.is_candidate(Pc(1)));
    }

    #[test]
    fn loop_heuristic_learns_both_targets() {
        let p = looped();
        let mut d = ReconDetector::new(&p, ReconStrategy::hardware(false, true, false));
        let b = *p.fetch(Pc(2)).unwrap();
        d.observe(Pc(2), &b, Pc(1)); // predicted taken: top of loop
        assert!(d.is_candidate(Pc(1)));
        d.observe(Pc(2), &b, Pc(3)); // predicted not-taken: loop exit
        assert!(d.is_candidate(Pc(3)));
    }

    #[test]
    fn ltb_gives_not_taken_target() {
        let p = looped();
        let d = ReconDetector::new(&p, ReconStrategy::hardware(false, false, true));
        let b = *p.fetch(Pc(2)).unwrap();
        assert_eq!(d.ltb_recon(Pc(2), &b), Some(Pc(3)));
        // Forward branches are not covered by ltb.
        let mut a2 = Asm::new();
        a2.beq(Reg::R1, Reg::R0, "end");
        a2.label("end").unwrap();
        a2.halt();
        let p2 = a2.assemble().unwrap();
        let fwd = *p2.fetch(Pc(0)).unwrap();
        assert_eq!(d.ltb_recon(Pc(0), &fwd), None);
    }
}
