//! Study input: the dynamic instruction stream, its dependence graph, and
//! per-misprediction wrong-path excerpts.

use ci_bpred::{PredictorConfig, PredictorSuite};
use ci_cfg::ReconvergenceMap;
use ci_emu::{run_trace, EmuError, Emulator, Trace};
use ci_isa::{Addr, InstClass, Program, Reg};
use std::collections::HashMap;

/// A register source with its producing instruction (`None` = initial state).
pub(crate) type RegDep = (Reg, Option<u32>);

/// Dependences of one correct-path instruction.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Deps {
    /// Up to two register sources with their correct-path producers.
    pub srcs: [Option<RegDep>; 2],
    /// For loads: the correct-path store that produced the loaded value
    /// (oracle memory disambiguation).
    pub mem: Option<u32>,
}

/// A dependence of a wrong-path instruction.
#[derive(Clone, Copy, Debug)]
pub(crate) enum WpDep {
    /// A correct-path instruction (older than the mispredicted branch).
    Correct(u32),
    /// An earlier instruction on the same wrong path.
    Wrong(u32),
}

/// One wrong-path instruction (class + dependences only; timing models do not
/// need its values).
#[derive(Clone, Debug)]
pub(crate) struct WrongInst {
    pub class: InstClass,
    pub deps: [Option<WpDep>; 2],
}

/// One branch misprediction with everything the idealized models need:
/// the reconvergent point on the correct path (if any) and the executed
/// wrong path (the incorrect control-dependent instructions).
#[derive(Clone, Debug)]
pub struct MispredictEvent {
    pub(crate) branch_idx: u32,
    pub(crate) recon_idx: Option<u32>,
    pub(crate) wrong_path: Vec<WrongInst>,
    pub(crate) wrong_writes_mask: u32,
    pub(crate) wrong_store_addrs: Vec<Addr>,
}

impl MispredictEvent {
    /// Index (in the correct-path trace) of the mispredicted instruction.
    #[must_use]
    pub fn branch_index(&self) -> usize {
        self.branch_idx as usize
    }

    /// Index of the reconvergent instruction on the correct path, if the
    /// wrong path reached the branch's reconvergent point.
    #[must_use]
    pub fn reconvergent_index(&self) -> Option<usize> {
        self.recon_idx.map(|i| i as usize)
    }

    /// Number of incorrect control-dependent instructions executed.
    #[must_use]
    pub fn wrong_path_len(&self) -> usize {
        self.wrong_path.len()
    }

    pub(crate) fn wrong_writes(&self, r: Reg) -> bool {
        self.wrong_writes_mask & (1 << r.number()) != 0
    }

    pub(crate) fn wrong_stores_to(&self, a: Addr) -> bool {
        self.wrong_store_addrs.binary_search(&a).is_ok()
    }
}

/// Everything the idealized models consume: the correct-path [`Trace`], its
/// oracle dependence graph, and one [`MispredictEvent`] per mispredicted
/// control instruction (under the paper's retirement-order gshare/CTB/RAS
/// prediction).
#[derive(Clone, Debug)]
pub struct StudyInput {
    pub(crate) trace: Trace,
    pub(crate) deps: Vec<Deps>,
    /// In program order, so each branch index appears once, ascending.
    pub(crate) events: Vec<MispredictEvent>,
    predictions: u64,
}

/// How far a wrong path is followed (must exceed the largest window so a
/// non-reconverging wrong path can fill it, as in hardware).
const WRONG_PATH_LIMIT: usize = 600;

/// How far past the branch the correct path is scanned for the reconvergent
/// instruction.
const RECON_SCAN_LIMIT: usize = 4096;

impl StudyInput {
    /// Build the study input for `program`, tracing up to `max_insts`
    /// dynamic instructions, with the paper's predictor configuration.
    ///
    /// # Errors
    /// Propagates [`EmuError`] if correct-path control flow leaves the
    /// program.
    pub fn build(program: &Program, max_insts: u64) -> Result<StudyInput, EmuError> {
        let trace = run_trace(program, max_insts)?;
        Ok(StudyInput::from_trace(
            program,
            trace,
            &ReconvergenceMap::compute(program),
        ))
    }

    /// Build the study input over `trace`, an already emulated correct path
    /// of `program` whose reconvergence map is `recon_map`. The input keeps
    /// `trace` itself — cloning a [`Trace`] shares its allocation — so a
    /// caller that also simulates the detailed pipeline over the same trace
    /// holds one copy of it, not two.
    ///
    /// # Panics
    /// Panics if `trace` is not `program`'s correct path.
    #[must_use]
    pub fn from_trace(program: &Program, trace: Trace, recon_map: &ReconvergenceMap) -> StudyInput {
        // The emulator replays the trace only to hold the architectural
        // state each wrong path forks from.
        let mut emu = Emulator::new(program);
        let mut suite = PredictorSuite::new(PredictorConfig::paper_default());

        let mut deps: Vec<Deps> = Vec::with_capacity(trace.len());
        let mut events: Vec<MispredictEvent> = Vec::new();
        let mut event_recon_pc: Vec<Option<ci_isa::Pc>> = Vec::new();
        let mut predictions = 0u64;

        let mut last_writer: [Option<u32>; Reg::COUNT] = [None; Reg::COUNT];
        let mut last_store: HashMap<Addr, u32> = HashMap::new();

        for (i, d) in trace.iter().enumerate() {
            let stepped = emu.step().ok().flatten();
            assert!(
                stepped.as_ref() == Some(d),
                "trace is not the program's correct path"
            );
            let (pc, i) = (d.pc, i as u32);

            // Oracle dependence edges (pre-update state).
            let mut dd = Deps::default();
            for (k, r) in d.sources().enumerate() {
                dd.srcs[k] = Some((r, last_writer[r.number() as usize]));
            }
            if d.class() == InstClass::Load {
                dd.mem = last_store.get(&d.addr.expect("load has addr")).copied();
            }

            // Update producer maps (the instruction's own effects).
            if let Some(rd) = d.dest() {
                last_writer[rd.number() as usize] = Some(i);
            }
            if d.class() == InstClass::Store {
                last_store.insert(d.addr.expect("store has addr"), i);
            }

            // Prediction in retirement order with correct global history —
            // the idealization shared with Lam & Wilson's study. The suite
            // observes every instruction (calls must push the RAS even though
            // they need no prediction).
            let pred = suite.step(pc, &d.inst, d.next_pc, d.taken);
            if d.needs_prediction() {
                predictions += 1;
                if pred.next_pc != d.next_pc {
                    let recon_pc = recon_map.reconvergent_point(pc);
                    // Execute the wrong path from the (already executed)
                    // branch: only the next PC differs between the paths.
                    let mut wp = emu.fork_wrong_path(pred.next_pc);
                    let (wp_insts, reached) = match recon_pc {
                        Some(r) => wp.run_until(|p| p == r, WRONG_PATH_LIMIT),
                        None => wp.run_until(|_| false, WRONG_PATH_LIMIT),
                    };

                    // Wrong-path dependences, overlaying wrong-path writers
                    // on the correct-path producer map.
                    let mut wl: Vec<Option<WpDep>> =
                        last_writer.iter().map(|o| o.map(WpDep::Correct)).collect();
                    let mut mask = 0u32;
                    let mut store_addrs = Vec::new();
                    let mut wrong_path = Vec::with_capacity(wp_insts.len());
                    for (j, wd) in wp_insts.iter().enumerate() {
                        let mut wdeps = [None, None];
                        for (k, r) in wd.sources().enumerate() {
                            wdeps[k] = wl[r.number() as usize];
                        }
                        if wd.class() == InstClass::Store {
                            store_addrs.push(wd.addr.expect("store has addr"));
                        }
                        if let Some(rd) = wd.dest() {
                            wl[rd.number() as usize] = Some(WpDep::Wrong(j as u32));
                            mask |= 1 << rd.number();
                        }
                        wrong_path.push(WrongInst {
                            class: wd.class(),
                            deps: wdeps,
                        });
                    }
                    store_addrs.sort_unstable();
                    store_addrs.dedup();

                    event_recon_pc.push(if reached { recon_pc } else { None });
                    events.push(MispredictEvent {
                        branch_idx: i,
                        recon_idx: None, // resolved in the post-pass below
                        wrong_path,
                        wrong_writes_mask: mask,
                        wrong_store_addrs: store_addrs,
                    });
                }
            }

            deps.push(dd);
        }

        // Post-pass: locate each event's reconvergent instruction on the
        // correct path.
        for (ev, recon_pc) in events.iter_mut().zip(event_recon_pc) {
            let Some(rpc) = recon_pc else { continue };
            let start = ev.branch_idx as usize + 1;
            let end = (start + RECON_SCAN_LIMIT).min(trace.len());
            ev.recon_idx = trace.insts()[start..end]
                .iter()
                .position(|d| d.pc == rpc)
                .map(|off| (start + off) as u32);
        }

        StudyInput {
            trace,
            deps,
            events,
            predictions,
        }
    }

    /// The correct-path trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of correct-path dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.trace.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.trace.is_empty()
    }

    /// Control instructions that required prediction.
    #[must_use]
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Mispredicted control instructions.
    #[must_use]
    pub fn mispredictions(&self) -> u64 {
        self.events.len() as u64
    }

    /// Misprediction rate over predicted control instructions.
    #[must_use]
    pub fn misprediction_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.events.len() as f64 / self.predictions as f64
        }
    }

    /// The misprediction events, in program order.
    #[must_use]
    pub fn events(&self) -> &[MispredictEvent] {
        &self.events
    }

    /// The event (if any) whose mispredicted branch is trace index `i`.
    #[must_use]
    pub fn event_at(&self, i: usize) -> Option<&MispredictEvent> {
        let x = self
            .events
            .binary_search_by_key(&i, MispredictEvent::branch_index)
            .ok()?;
        Some(&self.events[x])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_isa::{Asm, Pc};

    /// A loop whose final iteration mispredicts: classic diamond inside.
    fn diamond_loop() -> Program {
        let mut a = Asm::new();
        // r1 = loop counter; r2 = data selector alternating via r1 low bit
        a.li(Reg::R1, 40);
        a.label("top").unwrap();
        a.andi(Reg::R2, Reg::R1, 1);
        a.beq(Reg::R2, Reg::R0, "even"); // alternates: learnable
        a.addi(Reg::R3, Reg::R3, 5);
        a.jump("join");
        a.label("even").unwrap();
        a.addi(Reg::R3, Reg::R3, 9);
        a.label("join").unwrap();
        a.addi(Reg::R1, Reg::R1, -1);
        a.bne(Reg::R1, Reg::R0, "top");
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn builds_and_finds_reconvergence() {
        let p = diamond_loop();
        let input = StudyInput::build(&p, 100_000).unwrap();
        assert!(input.trace().completed());
        assert!(input.predictions() > 0);
        assert!(
            input.mispredictions() > 0,
            "cold-start mispredictions expected"
        );
        // Every diamond-branch event must reconverge at the join.
        let join = p.label("join").unwrap();
        let diamond_branch = Pc(2);
        for ev in input.events() {
            let b = &input.trace()[ev.branch_index()];
            if b.pc == diamond_branch {
                let r = ev.reconvergent_index().expect("diamond reconverges");
                assert_eq!(input.trace()[r].pc, join);
                assert!(ev.wrong_path_len() >= 1);
            }
        }
    }

    #[test]
    fn wrong_path_writes_recorded() {
        let p = diamond_loop();
        let input = StudyInput::build(&p, 100_000).unwrap();
        let ev = input
            .events()
            .iter()
            .find(|e| input.trace()[e.branch_index()].pc == Pc(2))
            .expect("diamond event");
        // Both arms write r3, so the wrong path writes r3.
        assert!(ev.wrong_writes(Reg::R3));
        assert!(!ev.wrong_writes(Reg::R9));
        assert!(!ev.wrong_stores_to(Addr(0)));
    }

    #[test]
    fn misprediction_rate_between_zero_and_one() {
        let p = diamond_loop();
        let input = StudyInput::build(&p, 100_000).unwrap();
        let r = input.misprediction_rate();
        assert!((0.0..=1.0).contains(&r));
        assert!(input.event_at(0).is_none());
    }

    #[test]
    fn event_at_agrees_with_events() {
        let p = ci_workloads::Workload::GoLike.build(&ci_workloads::WorkloadParams {
            scale: 200,
            seed: 5,
        });
        let input = StudyInput::build(&p, 20_000).unwrap();
        assert!(input.mispredictions() > 10);
        for i in 0..=input.len() {
            let want = input.events().iter().find(|e| e.branch_index() == i);
            let got = input.event_at(i);
            assert!(
                got.map(std::ptr::from_ref) == want.map(std::ptr::from_ref),
                "event_at({i})"
            );
        }
    }

    #[test]
    fn oracle_style_history_learns_alternation() {
        // After warmup the alternating diamond should be predicted well:
        // mispredictions should be a small fraction.
        let p = diamond_loop();
        let input = StudyInput::build(&p, 100_000).unwrap();
        assert!(
            input.misprediction_rate() < 0.5,
            "rate {}",
            input.misprediction_rate()
        );
    }
}
