//! The paper's full front-end prediction stack as one bundle.

use crate::{CorrelatedTargetBuffer, GlobalHistory, Gshare, RasTop, ReturnAddressStack};
use ci_isa::{Inst, InstClass, Pc};

/// Configuration for a [`PredictorSuite`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PredictorConfig {
    /// log2 of the gshare table size (paper: 16).
    pub gshare_bits: u32,
    /// log2 of the correlated target buffer size (paper: 16).
    pub ctb_bits: u32,
    /// Return-address-stack depth; `None` is unbounded ("perfect" when used
    /// in program order, as in the paper's ideal study).
    pub ras_depth: Option<usize>,
}

impl PredictorConfig {
    /// The paper's configuration: 2^16 gshare, 2^16 CTB, perfect RAS.
    #[must_use]
    pub fn paper_default() -> PredictorConfig {
        PredictorConfig {
            gshare_bits: 16,
            ctb_bits: 16,
            ras_depth: None,
        }
    }
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig::paper_default()
    }
}

/// A prediction for one control-transfer instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Predicted next PC.
    pub next_pc: Pc,
    /// For conditional branches, the predicted direction.
    pub taken: Option<bool>,
}

/// Gshare + correlated target buffer + return address stack, stepped in
/// program (retirement) order.
///
/// This is the reference predictor used to characterize workloads (Table 1)
/// and to drive the idealized models of Section 2, which — like Lam & Wilson's
/// study — assume every branch is predicted under the architecturally correct
/// global history. The pipeline simulator instead uses the component
/// predictors directly with its own speculative history management.
///
/// ```
/// use ci_bpred::{PredictorConfig, PredictorSuite};
/// use ci_isa::{Asm, Pc, Reg};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut a = Asm::new();
/// a.bne(Reg::R1, Reg::R0, "skip");
/// a.label("skip")?;
/// a.halt();
/// let p = a.assemble()?;
/// let mut suite = PredictorSuite::new(PredictorConfig::paper_default());
/// let branch = *p.fetch(Pc(0)).unwrap();
/// // Step the (not-taken) branch through the predictor.
/// let pred = suite.step(Pc(0), &branch, Pc(1), false);
/// assert_eq!(pred.taken, Some(false));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct PredictorSuite {
    gshare: Gshare,
    ctb: CorrelatedTargetBuffer,
    ras: ReturnAddressStack,
    ras_top: RasTop,
    hist: GlobalHistory,
}

impl PredictorSuite {
    /// Create a suite from `config`.
    #[must_use]
    pub fn new(config: PredictorConfig) -> PredictorSuite {
        PredictorSuite {
            gshare: Gshare::new(config.gshare_bits),
            ctb: CorrelatedTargetBuffer::new(config.ctb_bits),
            ras: match config.ras_depth {
                None => ReturnAddressStack::perfect(),
                Some(d) => ReturnAddressStack::bounded(d),
            },
            ras_top: RasTop::EMPTY,
            hist: GlobalHistory::new(),
        }
    }

    /// The current (architecturally correct) global history.
    #[must_use]
    pub fn history(&self) -> GlobalHistory {
        self.hist
    }

    /// Predict the instruction at `pc`, then immediately train with the
    /// actual outcome (`actual_next`, `taken`) — program-order operation.
    ///
    /// Returns the prediction that a fetch unit would have acted on.
    pub fn step(&mut self, pc: Pc, inst: &Inst, actual_next: Pc, taken: bool) -> Prediction {
        let fallthrough = pc.next();
        match inst.class() {
            InstClass::CondBranch => {
                let pred_taken = self.gshare.predict(pc, self.hist);
                let target = inst.static_target().unwrap_or(fallthrough);
                let next_pc = if pred_taken { target } else { fallthrough };
                self.gshare.update(pc, self.hist, taken);
                self.hist.push(taken);
                Prediction {
                    next_pc,
                    taken: Some(pred_taken),
                }
            }
            InstClass::Jump => Prediction {
                next_pc: inst.static_target().unwrap_or(fallthrough),
                taken: None,
            },
            InstClass::Call => {
                self.ras.push(&mut self.ras_top, fallthrough);
                Prediction {
                    next_pc: inst.static_target().unwrap_or(fallthrough),
                    taken: None,
                }
            }
            InstClass::Return => {
                let next_pc = self.ras.pop(&mut self.ras_top).unwrap_or(fallthrough);
                Prediction {
                    next_pc,
                    taken: None,
                }
            }
            InstClass::IndirectJump => {
                let next_pc = self.ctb.predict(pc, self.hist).unwrap_or(fallthrough);
                self.ctb.update(pc, self.hist, actual_next);
                if inst.dest().is_some() {
                    // Indirect call: push the return address.
                    self.ras.push(&mut self.ras_top, fallthrough);
                }
                Prediction {
                    next_pc,
                    taken: None,
                }
            }
            _ => Prediction {
                next_pc: fallthrough,
                taken: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_isa::{Asm, Reg};

    #[test]
    fn returns_are_perfect_in_program_order() {
        let mut a = Asm::new();
        a.call("f"); // pc 0
        a.halt(); // pc 1
        a.label("f").unwrap();
        a.ret(); // pc 2
        let p = a.assemble().unwrap();
        let mut s = PredictorSuite::new(PredictorConfig::paper_default());
        let call = s.step(Pc(0), p.fetch(Pc(0)).unwrap(), Pc(2), false);
        assert_eq!(call.next_pc, Pc(2));
        let ret = s.step(Pc(2), p.fetch(Pc(2)).unwrap(), Pc(1), false);
        assert_eq!(ret.next_pc, Pc(1));
    }

    #[test]
    fn indirect_jump_trains_ctb() {
        let mut a = Asm::new();
        a.jalr(Reg::R0, Reg::R5, 0);
        a.halt();
        a.halt();
        let p = a.assemble().unwrap();
        let inst = *p.fetch(Pc(0)).unwrap();
        let mut s = PredictorSuite::new(PredictorConfig::paper_default());
        let first = s.step(Pc(0), &inst, Pc(2), false);
        assert_eq!(first.next_pc, Pc(1)); // untrained: fallthrough guess
        let second = s.step(Pc(0), &inst, Pc(2), false);
        assert_eq!(second.next_pc, Pc(2)); // trained
    }

    #[test]
    fn conditional_branch_uses_history() {
        let mut a = Asm::new();
        a.bne(Reg::R1, Reg::R0, Pc(0));
        let p = a.assemble().unwrap();
        let inst = *p.fetch(Pc(0)).unwrap();
        let mut s = PredictorSuite::new(PredictorConfig {
            gshare_bits: 10,
            ctb_bits: 4,
            ras_depth: None,
        });
        // Alternating outcomes become perfectly predictable with history.
        let mut correct = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            let actual = if taken { Pc(0) } else { Pc(1) };
            let pred = s.step(Pc(0), &inst, actual, taken);
            if i >= 100 && pred.next_pc == actual {
                correct += 1;
            }
        }
        assert_eq!(correct, 100);
    }

    #[test]
    fn non_control_falls_through() {
        let mut a = Asm::new();
        a.nop();
        let p = a.assemble().unwrap();
        let mut s = PredictorSuite::new(PredictorConfig::paper_default());
        let pred = s.step(Pc(0), p.fetch(Pc(0)).unwrap(), Pc(1), false);
        assert_eq!(pred.next_pc, Pc(1));
        assert_eq!(pred.taken, None);
    }
}
