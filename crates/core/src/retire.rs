//! In-order retirement, architectural commit, predictor training and the
//! oracle checker.

use crate::engine::{EState, Pipeline, Sequencer};
use ci_isa::InstClass;
use ci_obs::{Event, Probe, Profiler};

impl<P: Probe, F: Profiler> Pipeline<'_, P, F> {
    /// Retire up to `width` instructions in order. An instruction retires
    /// only when it has completed with final values and its successor in the
    /// window agrees with its computed next PC (pending recoveries therefore
    /// block retirement until serviced).
    pub(crate) fn retire_stage(&mut self) {
        for _ in 0..self.cfg.width {
            if self.stats.retired >= self.oracle.len() as u64 {
                return; // reference trace exhausted; anything left is junk
            }
            let Some(head) = self.rob.head() else { return };
            // Never retire the insertion cursor of an active or suspended
            // restart: the sequencer still needs it as its insertion point.
            if self.restart_cursor_blocked(head) {
                return;
            }
            let e = self.rob.get(head);
            if e.state != EState::Done {
                return;
            }
            let succ = self.successor_pc(head);
            match e.class {
                InstClass::Halt => {}
                c if c.is_control() => {
                    let exec_next = e.exec_next.expect("completed control");
                    match succ {
                        Some(s) if s == exec_next => {}
                        // A tail control instruction is consistent when the
                        // front end is about to fetch its computed target
                        // (needed when capacity blocks the fetch itself).
                        None if matches!(self.seq, Sequencer::Normal)
                            && !self.fetch.stalled
                            && self.fetch.pc == exec_next => {}
                        _ => return, // awaiting recovery or fetch of successor
                    }
                }
                _ => {
                    // A present successor must be the fall-through: a hole
                    // left by a preempted restart stalls retirement until it
                    // is filled or squashed.
                    if let Some(s) = succ {
                        if s != e.pc.next() {
                            return;
                        }
                    }
                }
            }

            // Oracle checker: the retired stream must be the architectural
            // execution, value for value.
            let r = self.stats.retired as usize;
            if self.cfg.check {
                let o = &self.oracle[r];
                if e.pc != o.pc {
                    self.fail_retirement_check(r, "pc", format!("{} != {}", e.pc, o.pc));
                }
                if e.addr != o.addr {
                    self.fail_retirement_check(
                        r,
                        "address",
                        format!("{:?} != {:?}", e.addr, o.addr),
                    );
                }
                if let Some(v) = o.value {
                    if e.result != v {
                        self.fail_retirement_check(
                            r,
                            "value",
                            format!("{:#x} != {v:#x}", e.result),
                        );
                    }
                }
                if e.class.is_control()
                    && e.class != InstClass::Halt
                    && e.exec_next != Some(o.next_pc)
                {
                    self.fail_retirement_check(
                        r,
                        "control flow",
                        format!("{:?} != {}", e.exec_next, o.next_pc),
                    );
                }
            }

            // Commit front-end state.
            self.commit_pc = match e.exec_next {
                Some(n) => n,
                None => e.pc.next(),
            };
            match e.class {
                InstClass::CondBranch => self.commit_ghr.push(e.taken),
                InstClass::Call => self.commit_ras.push(e.pc.next()),
                InstClass::Return => {
                    let _ = self.commit_ras.pop();
                }
                InstClass::IndirectJump if e.dest.is_some() => {
                    self.commit_ras.push(e.pc.next());
                }
                _ => {}
            }

            // Commit.
            if e.class == InstClass::Store {
                let addr = e.addr.expect("store has addr");
                self.memory.write(addr, e.result);
            }
            if let Some((arch, p)) = e.dest {
                self.committed_map.set(arch, p);
            }

            // Predictor training at retirement (Section 4.1: tables are
            // updated at retirement) and misprediction accounting.
            if e.needs_pred() {
                self.stats.predictions += 1;
                let actual_next = e.exec_next.expect("control");
                if e.first_pred_next != actual_next {
                    self.stats.arch_mispredictions += 1;
                }
            }
            match e.class {
                InstClass::CondBranch => {
                    let (pc, h, taken) = (e.pc, e.ghr_before, e.taken);
                    let correct = e.first_pred_next == e.exec_next.expect("control");
                    self.gshare.update(pc, h, taken);
                    self.conf.update(pc, h, correct);
                }
                InstClass::IndirectJump => {
                    let (pc, h, next) = (e.pc, e.ghr_before, e.exec_next.expect("control"));
                    self.ctb.update(pc, h, next);
                }
                _ => {}
            }

            // Table 3/4 accounting.
            let e = self.rob.get(head);
            self.stats.issues += u64::from(e.issue_count);
            self.stats.mem_violation_reissues += u64::from(e.mem_reissues);
            self.stats.reg_violation_reissues += u64::from(e.reg_reissues);
            if e.survived {
                self.stats.fetch_saved += 1;
                if e.saved_done {
                    self.stats.work_saved += 1;
                } else if e.discarded {
                    self.stats.work_discarded += 1;
                } else if e.only_fetched {
                    self.stats.only_fetched += 1;
                }
            }

            self.probe.record(
                self.now,
                Event::Retire {
                    pc: e.pc.0,
                    issues: e.issue_count,
                },
            );
            self.stats.retired += 1;
            self.activity.cur_retired += 1;
            self.remove_entry(head);
        }
    }

    /// Build and raise the oracle-checker failure report: which field
    /// diverged and where, what the simulator retired, what the emulator
    /// executed, and — when the attached probe keeps one — the flight
    /// recorder's tail covering the machine's final cycles.
    fn fail_retirement_check(&self, r: usize, field: &str, detail: String) -> ! {
        let head = self.rob.head().expect("failing retirement has a head");
        let e = self.rob.get(head);
        let o = &self.oracle[r];
        let mut msg = format!(
            "retired {field} diverges from the emulator at instruction {r}, cycle {}: {detail}\n\
             retired:  {} {} ({:?}) result={:#x} addr={:?} exec_next={:?} issues={}\n\
             emulator: {}\n",
            self.now,
            e.pc,
            e.inst,
            e.class,
            e.result,
            e.addr,
            e.exec_next,
            e.issue_count,
            o.summary(),
        );
        match self.probe.dump() {
            Some(d) => {
                msg.push_str(&d);
            }
            None => msg
                .push_str("(attach a ci_obs::FlightRecorder probe to capture the final cycles)\n"),
        }
        panic!("{msg}");
    }
}

impl crate::engine::Entry {
    pub(crate) fn needs_pred(&self) -> bool {
        self.class.needs_prediction()
    }
}
