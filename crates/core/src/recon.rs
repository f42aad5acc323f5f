//! Reconvergent-point detection: software post-dominators and the hardware
//! heuristics of Appendix A.5.

use crate::config::{ReconStrategy, LOOPS, LTB, POSTDOM, RETURNS};
use ci_cfg::ReconvergenceMap;
use ci_isa::{Inst, InstClass, Pc, Program};
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
/// The detector learns both candidate tables, as one flag byte per PC,
/// whatever its strategy, and keeps the post-dominator map even when the
/// strategy ignores it: the pipeline asks where *every* heuristic would
/// reconverge so a run can tell which other strategies it speaks for, and
/// picks the first window entry that one of its strategy's heuristics
/// matches.
#[derive(Clone, Debug)]
pub struct ReconDetector {
    strategy: ReconStrategy,
    software: Arc<ReconvergenceMap>,
    /// `RETURNS`/`LOOPS` bits per PC: learned return and loop candidates.
    learned: Vec<u8>,
    /// Every bit learned at any PC so far.
    learned_any: u8,
}

/// Where the strategy-independent heuristics place the reconvergent point
/// of one mispredicted branch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReconTargets {
    postdom: Option<Pc>,
    ltb: Option<Pc>,
}

impl ReconDetector {
    /// Build a detector for `program` under `strategy`.
    #[must_use]
    pub fn new(program: &Program, strategy: ReconStrategy) -> ReconDetector {
        ReconDetector::with_map(
            program,
            strategy,
            Arc::new(ReconvergenceMap::compute(program)),
        )
    }

    /// Build a detector for `program` under `strategy` over `map`, the
    /// program's (shared, already computed) post-dominator map.
    pub(crate) fn with_map(
        program: &Program,
        strategy: ReconStrategy,
        map: Arc<ReconvergenceMap>,
    ) -> ReconDetector {
        ReconDetector {
            strategy,
            software: map,
            learned: vec![0; program.len()],
            learned_any: 0,
        }
    }

    /// The active strategy.
    #[must_use]
    pub fn strategy(&self) -> ReconStrategy {
        self.strategy
    }

    /// Observe a decoded instruction and its predicted next PC, learning
    /// global reconvergent-point candidates. A target outside the program
    /// is dropped: no window entry can ever sit there.
    pub fn observe(&mut self, pc: Pc, inst: &Inst, predicted_next: Pc) {
        let bit = if inst.class() == InstClass::Return {
            RETURNS
        } else if inst.is_backward_branch(pc) {
            // Predicted-taken → top of loop; predicted not-taken → loop exit.
            LOOPS
        } else {
            return;
        };
        if let Some(flags) = self.learned.get_mut(predicted_next.index()) {
            *flags |= bit;
            self.learned_any |= bit;
        }
    }

    /// The post-dominator and `ltb` points of the branch at `pc`, whether
    /// or not the strategy uses them.
    pub(crate) fn targets(&self, pc: Pc, inst: &Inst) -> ReconTargets {
        ReconTargets {
            postdom: self.software.reconvergent_point(pc),
            ltb: inst.is_backward_branch(pc).then(|| pc.next()),
        }
    }

    /// The heuristics (a [`ReconStrategy::mask`] set) that can match some
    /// window entry for a branch with these targets.
    pub(crate) fn possible(&self, t: ReconTargets) -> u8 {
        let mut m = self.learned_any;
        if t.postdom.is_some() {
            m |= POSTDOM;
        }
        if t.ltb.is_some() {
            m |= LTB;
        }
        m
    }

    /// The heuristics that take a window entry at `pc` as the reconvergent
    /// point of a branch with targets `t`, whether or not enabled.
    pub(crate) fn matches(&self, t: ReconTargets, pc: Pc) -> u8 {
        let mut m = self.learned.get(pc.index()).copied().unwrap_or(0);
        if t.postdom == Some(pc) {
            m |= POSTDOM;
        }
        if t.ltb == Some(pc) {
            m |= LTB;
        }
        m
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
    fn postdominator_and_ltb_points_do_not_depend_on_the_strategy() {
        let p = looped();
        let d = ReconDetector::new(&p, ReconStrategy::hardware(true, false, false));
        let b = *p.fetch(Pc(2)).unwrap();
        let t = d.targets(Pc(2), &b);
        assert_eq!(d.matches(t, Pc(3)), POSTDOM | LTB);
        assert_eq!(d.possible(t), POSTDOM | LTB, "nothing learned yet");
        // Forward branches are not covered by ltb.
        let mut a2 = Asm::new();
        a2.beq(Reg::R1, Reg::R0, "end");
        a2.label("end").unwrap();
        a2.halt();
        let p2 = a2.assemble().unwrap();
        let fwd = *p2.fetch(Pc(0)).unwrap();
        let d2 = ReconDetector::new(&p2, ReconStrategy::software());
        assert_eq!(d2.matches(d2.targets(Pc(0), &fwd), Pc(1)), POSTDOM);
    }

    #[test]
    fn every_strategy_learns_return_and_loop_candidates() {
        let p = looped();
        let ret = *p.fetch(Pc(5)).unwrap();
        let b = *p.fetch(Pc(2)).unwrap();
        let mut d = ReconDetector::new(&p, ReconStrategy::software());
        d.observe(Pc(5), &ret, Pc(4)); // return target
        d.observe(Pc(2), &b, Pc(1)); // predicted taken: top of loop
        d.observe(Pc(2), &b, Pc(3)); // predicted not-taken: loop exit
        d.observe(Pc(2), &b, Pc(99)); // outside the program: dropped
        let fwd = *p.fetch(Pc(0)).unwrap();
        let t = d.targets(Pc(0), &fwd);
        assert_eq!(d.matches(t, Pc(4)), RETURNS);
        assert_eq!(d.matches(t, Pc(1)), LOOPS);
        assert_eq!(d.matches(t, Pc(3)), LOOPS);
        assert_eq!(d.matches(t, Pc(0)), 0);
        assert_eq!(d.possible(t), RETURNS | LOOPS);
    }
}
