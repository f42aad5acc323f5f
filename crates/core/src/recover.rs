//! Misprediction detection, recovery sequences (selective or full squash),
//! restart management with preemption, and redispatch.

use crate::config::{Preemption, RedispatchMode, RepredictMode, SquashMode};
use crate::engine::{
    EState, FetchCtx, PendingRecovery, Pipeline, RedispatchState, RestartState, Sequencer,
};
use crate::rob::{InstId, SegCursor};
use ci_bpred::TfrIndexing;
use ci_isa::{InstClass, Pc};
use ci_obs::{Event, Probe, Profiler, ReissueKind};

impl<P: Probe, F: Profiler> Pipeline<'_, P, F> {
    /// Scan for control instructions whose execution disagrees with the path
    /// in the window, gated by the branch-completion model (Appendix A.2).
    pub(crate) fn detect_mispredictions(&mut self) {
        let in_order = self.cfg.completion.in_order();
        let non_dspec = self.cfg.completion.non_dspec();

        // Collect the live, unsettled control instructions from the watch
        // list (pruning dead and settled ones — a settled entry re-enters
        // only through `mark_unresolved`, which re-watches it) and order
        // them by window position: the walk below then sees exactly the
        // sequence the old full scan saw, because settled entries never
        // influenced its in-order gate.
        let mut cands = self.take_keyed();
        let mut watch = std::mem::take(&mut self.wake.ctrl);
        watch.retain(|&id| {
            if !self.wake.is_watched(id) {
                return false;
            }
            if !self.rob.alive(id) {
                // Dead id: its own flag was cleared at removal, so a set
                // flag belongs to the slot's new tenant (watched in its own
                // right) — drop the stale id without touching the flag.
                return false;
            }
            let e = self.rob.get(id);
            if e.state == EState::Done && e.resolved {
                self.wake.unwatch_ctrl(id);
                return false;
            }
            cands.push((self.rob.key(id), id));
            true
        });
        self.wake.ctrl = watch;
        cands.sort_unstable();

        let mut older_unsettled = false;
        // The oldest unresolved store's key, computed on the first completed
        // candidate (nothing in this walk changes it).
        let mut oldest_store: Option<Option<u64>> = None;
        let mut found = std::mem::take(&mut self.scratch_found);
        let mut resolved_ok = self.take_ids();

        for &(key, id) in &cands {
            let e = self.rob.get(id);
            let behind_ctrl = older_unsettled;
            older_unsettled = true;
            if e.state != EState::Done {
                continue;
            }
            // non-dspec models: operands must not be affected by data
            // speculation. Data speculation in this machine comes from loads
            // issuing ahead of unresolved stores, so a branch may complete
            // once no older store's address remains unresolved (the
            // condition self-clears as stores execute).
            let behind_store = oldest_store
                .get_or_insert_with(|| self.oldest_unresolved_store())
                .is_some_and(|k| k < key);
            self.sens.note_gate(behind_ctrl, behind_store);
            if (in_order && behind_ctrl) || (non_dspec && behind_store) {
                continue;
            }
            let exec_next = e.exec_next.expect("completed control has exec_next");
            let succ = self.successor_pc(id);
            let mismatch = match succ {
                Some(s) => s != exec_next,
                None => {
                    // Tail instruction: compare against the front end. While
                    // a restart or redispatch owns the front end, fetch.pc is
                    // not this instruction's successor — defer judgment
                    // rather than settling it against the wrong comparand (a
                    // branch wrongly marked resolved would never be
                    // re-examined and could block retirement forever).
                    if !matches!(self.seq, Sequencer::Normal) {
                        continue;
                    }
                    self.fetch.pc != exec_next
                }
            };
            if !mismatch {
                resolved_ok.push(id);
                continue;
            }
            // Oracle suppression of false mispredictions (the *-HFM models):
            // delay completion while the current path is architecturally
            // right but the operands say otherwise.
            let false_mismatch = e.oracle_idx.is_some_and(|i| {
                let oracle_next = self.oracle[i].next_pc;
                succ == Some(oracle_next) && exec_next != oracle_next
            });
            if false_mismatch {
                self.sens.note_false_mismatch();
                if self.cfg.hide_false_mispredictions {
                    continue;
                }
            }
            resolved_ok.push(id);
            found.push(PendingRecovery {
                branch: id,
                redirect: exec_next,
                from_exec: true,
            });
        }
        for id in resolved_ok.drain(..) {
            self.rob.get_mut(id).resolved = true;
        }
        self.put_ids(resolved_ok);
        self.pending.append(&mut found);
        self.scratch_found = found;
        self.put_keyed(cands);
    }

    /// Service pending recoveries, oldest first, respecting the sequencer
    /// and the preemption policy (Appendix A.1).
    pub(crate) fn service_recoveries(&mut self) {
        self.pending.retain(|p| self.rob.alive(p.branch));
        loop {
            // Oldest pending recovery.
            let Some((slot, rec)) = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| self.rob.key(p.branch))
                .map(|(i, p)| (i, *p))
            else {
                return;
            };

            // Re-validate.
            let e = self.rob.get(rec.branch);
            if rec.from_exec && e.state != EState::Done {
                self.pending.swap_remove(slot);
                continue;
            }
            let consistent = match self.successor_pc(rec.branch) {
                Some(s) => s == rec.redirect,
                None => matches!(self.seq, Sequencer::Normal) && self.fetch.pc == rec.redirect,
            };
            if consistent {
                self.pending.swap_remove(slot);
                continue;
            }

            // Sequencer interaction.
            let bkey = self.rob.key(rec.branch);
            match &self.seq {
                Sequencer::Normal => {}
                Sequencer::Restart(rs) => {
                    if self.rob.alive(rs.recon) && bkey >= self.rob.key(rs.recon) {
                        // In the control-independent region: serviced
                        // serially after the active restart completes.
                        return;
                    }
                    if bkey >= self.rob.key(rs.branch) {
                        // A newly fetched (or re-resolved) branch inside the
                        // restart's own fill region: the recovery below
                        // replaces the active restart, keeping the correct
                        // prefix of the fill. The old restart's unfilled gap
                        // would otherwise survive as an unfillable hole, so
                        // its reconvergent suffix is squashed first.
                        let recon = rs.recon;
                        let old_branch = rs.branch;
                        if self.rob.alive(recon) {
                            self.squash_suffix_from(recon);
                        }
                        self.seq = Sequencer::Normal;
                        self.unresolve(old_branch);
                        self.pending.swap_remove(slot);
                        self.do_recover(rec);
                        return;
                    }
                    // Preemption by a logically earlier misprediction.
                    self.stats.preemptions += 1;
                    self.sens.note_preemption();
                    let rs = rs.clone();
                    match self.cfg.preemption {
                        Preemption::Optimal => {
                            self.suspended.push(rs);
                            self.seq = Sequencer::Normal;
                        }
                        Preemption::Simple => {
                            // Squash from the old reconvergent point so no
                            // half-filled gap survives, then abandon it.
                            if self.rob.alive(rs.recon) {
                                self.squash_suffix_from(rs.recon);
                            }
                            self.seq = Sequencer::Normal;
                            self.unresolve(rs.branch);
                        }
                    }
                }
                Sequencer::Redispatch(rd) => {
                    let ahead = match rd.cursor {
                        Some(c) => bkey >= self.rob.key(c),
                        None => true,
                    };
                    if ahead {
                        return; // walk will pass it; service afterwards
                    }
                    // Back up the sequencer: the new recovery's redispatch
                    // supersedes the cancelled walk.
                    self.seq = Sequencer::Normal;
                }
            }

            self.pending.swap_remove(slot);
            self.do_recover(rec);
            return;
        }
    }

    /// The window key of the oldest store that has not yet resolved its
    /// address: an instruction has an unresolved older store exactly when
    /// its key is larger. The store membership set replaces the window walk
    /// (a minimum needs no order).
    fn oldest_unresolved_store(&self) -> Option<u64> {
        self.wake
            .stores
            .iter()
            .filter(|&&sid| {
                self.rob.alive(sid) && {
                    let se = self.rob.get(sid);
                    se.class == InstClass::Store && se.state != EState::Done
                }
            })
            .map(|&sid| self.rob.key(sid))
            .min()
    }

    /// Clear a branch's resolution flag so its path consistency is
    /// re-checked (used whenever the restart recovering it dies).
    pub(crate) fn unresolve(&mut self, id: InstId) {
        if self.rob.alive(id) {
            self.mark_unresolved(id);
        }
    }

    /// Cancel any active or suspended restart whose recovering branch is
    /// `id` (called when `id` is invalidated for reissue): squash the fill
    /// inserted so far and return the sequencer to tail fetch.
    pub(crate) fn cancel_restarts_of(&mut self, id: InstId) {
        let active = matches!(&self.seq, Sequencer::Restart(rs) if rs.branch == id);
        if active {
            let Sequencer::Restart(rs) = std::mem::replace(&mut self.seq, Sequencer::Normal) else {
                unreachable!()
            };
            // Squash the whole suffix, not just the fill: survivors beyond
            // the reconvergent point may hold sources squashed when this
            // restart began (or by an earlier walk this restart superseded),
            // and their repair walk dies with the restart. Re-detection
            // cannot be relied on to rebuild it — the re-executed branch can
            // resolve *consistent* with the post-squash window (its target
            // is the reconvergent point), leaving the stale sources parked
            // on never-ready registers and wedging retirement.
            if let Some(n) = self.rob.next(rs.branch) {
                self.squash_suffix_from(n);
            }
            self.unresolve(rs.branch);
            self.resume_tail_fetch();
        }
        let stale: Vec<RestartState> = {
            let mut out = Vec::new();
            self.suspended.retain_mut(|rs| {
                if rs.branch == id {
                    out.push(rs.clone());
                    false
                } else {
                    true
                }
            });
            out
        };
        for rs in stale {
            // Same suffix rule as the active-restart case above: the
            // suspension's survivors lose their pending repair walk when the
            // restart dies, so they cannot be left in the window.
            if self.rob.alive(rs.branch) {
                if let Some(n) = self.rob.next(rs.branch) {
                    self.squash_suffix_from(n);
                }
            }
            self.unresolve(rs.branch);
        }
        // A stale suspension's interval may have contained the active
        // restart's branch or fill. A restart whose insertion context died
        // cannot continue: drop its never-to-be-redispatched reconvergent
        // region and fall back to tail fetch.
        if let Sequencer::Restart(rs) = &self.seq {
            if !self.rob.alive(rs.branch) || !self.rob.alive(rs.cursor) {
                let rs = rs.clone();
                self.seq = Sequencer::Normal;
                if self.rob.alive(rs.recon) {
                    self.squash_suffix_from(rs.recon);
                }
                self.unresolve(rs.branch);
                self.resume_tail_fetch();
            }
        }
    }

    /// Return the sequencer to tail fetch continuing after the current tail.
    pub(crate) fn resume_tail_fetch(&mut self) {
        if let Some(tail) = self.rob.tail() {
            let e = self.rob.get(tail);
            self.fetch.pc = e.pred_next;
            let ghr = e.ghr_before;
            // Rebuild history: a conditional branch's own outcome bit follows
            // its stored pre-prediction history.
            self.fetch.ghr = if e.class == ci_isa::InstClass::CondBranch {
                ghr.pushed(e.pred_next == e.inst.static_target().unwrap_or(e.pc.next()))
            } else {
                ghr
            };
            let snap = e.ras_after.clone();
            if snap.is_some() {
                self.restore_ras(snap.as_ref());
            }
            self.map = self.map_at(tail);
            self.fetch.stalled = false;
        }
    }

    /// Remove `id` and everything younger (a window-link walk from `id`).
    pub(crate) fn squash_suffix_from(&mut self, id: InstId) {
        let mut victims = self.take_ids();
        let mut cur = Some(id);
        while let Some(x) = cur {
            victims.push(x);
            cur = self.rob.next(x);
        }
        for i in (0..victims.len()).rev() {
            self.squash_one(victims[i]);
        }
        self.put_ids(victims);
    }

    /// Remove one instruction from the window, repairing loads that
    /// forwarded from a squashed store.
    pub(crate) fn squash_one(&mut self, id: InstId) {
        let (is_store, pc) = {
            let e = self.rob.get(id);
            (
                e.class == InstClass::Store && e.state != EState::Waiting,
                e.pc,
            )
        };
        self.probe.record(self.now, Event::Squash { pc: pc.0 });
        if is_store {
            self.reissue_loads_of_squashed_store(id);
        }
        // The predecessor's successor changes: its path consistency must be
        // re-checked (a previously serviced branch may become mispredicted
        // again when its corrected successor is squashed).
        if let Some(prev) = self.rob.prev(id) {
            self.mark_unresolved(prev);
        }
        // Keep an in-flight redispatch walk valid: step its cursor past the
        // entry being removed.
        let next = self.rob.next(id);
        if let Sequencer::Redispatch(rd) = &mut self.seq {
            if rd.cursor == Some(id) {
                rd.cursor = next;
            }
        }
        self.remove_entry(id);
    }

    /// Decide how the mispredicted branch `b` recovers: the reconvergent
    /// point its CI context finds in the window (Section 3.2.1 / Appendix
    /// A.5), or `None` for a complete squash — always on the BASE machine,
    /// and for a branch whose prediction was high confidence (no CI context
    /// was allocated at fetch). The point is the first instruction after
    /// `b` that any enabled heuristic (`ltb` target, software
    /// post-dominator, learned global candidate) matches.
    ///
    /// The scan also notes in the sensitivity record which heuristics match
    /// before the chosen point (anywhere in the window if none was chosen)
    /// and at it, with the branch's confidence counter, so the record can
    /// tell which other squash modes, strategies and thresholds would
    /// recover the same way.
    fn recovery_point(&mut self, b: InstId) -> Option<InstId> {
        let e = self.rob.get(b);
        let counter = e.conf_count;
        let threshold = self.cfg.conf_threshold;
        let ci = self.cfg.squash == SquashMode::ControlIndependence
            && !(threshold > 0 && counter >= threshold);
        let targets = self.recon.targets(e.pc, &e.inst);
        let enabled = if ci { self.recon.strategy().mask() } else { 0 };
        let possible = self.recon.possible(targets);
        let (mut before, mut at, mut point) = (0u8, 0u8, None);
        let mut cur = self.rob.next(b);
        while let Some(id) = cur {
            if enabled == 0 && before == possible {
                break; // nothing left to learn
            }
            let m = self.recon.matches(targets, self.rob.get(id).pc);
            if m & enabled != 0 {
                (at, point) = (m, Some(id));
                break;
            }
            before |= m;
            cur = self.rob.next(id);
        }
        self.sens
            .note_recovery(counter, before, at, point.is_some());
        point
    }

    /// Execute a recovery: classify it, selectively squash (or fully
    /// squash), and set up the restart sequence.
    fn do_recover(&mut self, rec: PendingRecovery) {
        let b = rec.branch;
        self.stats.recoveries += 1;
        self.classify_recovery(&rec);

        // Seed front-end state from just after the branch.
        let (ghr, ras_snap, class, taken_dir) = {
            let e = self.rob.get(b);
            let dir = e.inst.static_target() == Some(rec.redirect);
            (e.ghr_before, e.ras_after.clone(), e.class, dir)
        };
        let mut ghr = ghr;
        if class == InstClass::CondBranch {
            ghr.push(taken_dir);
        }

        let recon_entry = self.recovery_point(b);

        self.rob.get_mut(b).pred_next = rec.redirect;
        let branch_pc = self.rob.get(b).pc;

        match recon_entry {
            None => {
                // Complete squash.
                let removed = {
                    let mut n = 0u32;
                    let mut cur = self.rob.next(b);
                    while let Some(x) = cur {
                        n += 1;
                        cur = self.rob.next(x);
                    }
                    n
                };
                self.probe.record(
                    self.now,
                    Event::RestartBegin {
                        branch_pc: branch_pc.0,
                        redirect_pc: rec.redirect.0,
                        reconverged: false,
                        removed,
                    },
                );
                if let Some(n) = self.rob.next(b) {
                    self.squash_suffix_from(n);
                }
                self.map = self.map_at(b);
                self.seq = Sequencer::Normal;
                self.fetch = FetchCtx {
                    pc: rec.redirect,
                    ghr,
                    ras: ci_bpred::ReturnAddressStack::bounded(64),
                    stalled: false,
                };
                self.restore_ras(ras_snap.as_ref());
                self.fetch.ghr = ghr;
                self.fetch.pc = rec.redirect;
                self.fetch.stalled = false;
            }
            Some(r) => {
                self.stats.reconverged += 1;
                // Selective squash of the incorrect control-dependent path
                // (a link walk from the branch to the reconvergent point).
                let mut victims = self.take_ids();
                {
                    let rk = self.rob.key(r);
                    let mut cur = self.rob.next(b);
                    while let Some(x) = cur {
                        if self.rob.key(x) >= rk {
                            break;
                        }
                        victims.push(x);
                        cur = self.rob.next(x);
                    }
                }
                self.stats.removed += victims.len() as u64;
                self.probe.record(
                    self.now,
                    Event::RestartBegin {
                        branch_pc: branch_pc.0,
                        redirect_pc: rec.redirect.0,
                        reconverged: true,
                        removed: victims.len() as u32,
                    },
                );
                for i in (0..victims.len()).rev() {
                    self.squash_one(victims[i]);
                }
                self.put_ids(victims);
                // Mark control-independent survivors (Table 2/3).
                let mut cur = Some(r);
                while let Some(id) = cur {
                    self.stats.ci_instructions += 1;
                    let e = self.rob.get_mut(id);
                    if !e.survived {
                        e.survived = true;
                        match e.state {
                            EState::Done => e.saved_done = true,
                            _ if e.issue_count > 0 => e.discarded = true,
                            _ => e.only_fetched = true,
                        }
                    }
                    cur = self.rob.next(id);
                }
                // Restart sequence.
                let map = self.map_at(b);
                let recon_pc = self.rob.get(r).pc;
                self.seq = Sequencer::Restart(RestartState {
                    branch: b,
                    cursor: b,
                    recon: r,
                    recon_pc,
                    map,
                    seg: SegCursor::default(),
                    started_at: self.now,
                    inserted: 0,
                });
                self.restore_ras(ras_snap.as_ref());
                self.fetch.ghr = ghr;
                self.fetch.pc = rec.redirect;
                self.fetch.stalled = false;
            }
        }
    }

    /// Classify a serviced exec-detected recovery as a true or false
    /// misprediction (Appendix A.2) and feed the TFR machinery (Figure 10).
    fn classify_recovery(&mut self, rec: &PendingRecovery) {
        if !rec.from_exec {
            return;
        }
        let e = self.rob.get(rec.branch);
        if e.class != InstClass::CondBranch {
            return;
        }
        let Some(i) = e.oracle_idx else { return };
        let oracle_next = self.oracle[i].next_pc;
        let succ = self.successor_pc(rec.branch);
        let is_false = succ == Some(oracle_next) && rec.redirect != oracle_next;
        if is_false {
            self.stats.false_mispredictions += 1;
        } else {
            self.stats.true_mispredictions += 1;
        }
        let (pc, hist) = (e.pc, e.ghr_before);
        self.stats.tfr_static.record(u64::from(pc.0), is_false);
        let pat_pc = self.tfr_pc.pattern(pc, hist, TfrIndexing::DynamicPc);
        self.stats
            .tfr_dynamic_pc
            .record(u64::from(pat_pc), is_false);
        self.tfr_pc
            .record(pc, hist, TfrIndexing::DynamicPc, is_false);
        let pat_xor = self.tfr_xor.pattern(pc, hist, TfrIndexing::DynamicXor);
        self.stats
            .tfr_dynamic_xor
            .record(u64::from(pat_xor), is_false);
        self.tfr_xor
            .record(pc, hist, TfrIndexing::DynamicXor, is_false);
    }

    /// Transition from a completed restart to the redispatch sequence.
    pub(crate) fn begin_redispatch(&mut self, rs: &RestartState) {
        self.stats.restart_cycles += self.now.saturating_sub(rs.started_at);
        let branch_pc = if self.rob.alive(rs.branch) {
            self.rob.get(rs.branch).pc.0
        } else {
            u32::MAX
        };
        self.probe.record(
            self.now,
            Event::RestartEnd {
                branch_pc,
                inserted: rs.inserted,
                cycles: self.now.saturating_sub(rs.started_at),
            },
        );
        self.seq = Sequencer::Redispatch(RedispatchState {
            cursor: Some(rs.recon),
            map: rs.map.clone(),
            ghr: self.fetch.ghr,
            ras: self.fetch.ras.snapshot(),
        });
    }

    /// One cycle of the redispatch sequence: re-rename (and re-predict) up
    /// to dispatch-width control-independent instructions; all of them for
    /// the CI-I machine.
    pub(crate) fn redispatch_step(&mut self) {
        if !matches!(self.seq, Sequencer::Redispatch(_)) {
            return;
        }
        self.sens.note_redispatch();
        let budget = match self.cfg.redispatch {
            RedispatchMode::Pipelined => self.cfg.width,
            RedispatchMode::Instant => usize::MAX,
        };
        let mut last_pred_next = None;
        for _ in 0..budget {
            let Sequencer::Redispatch(rd) = &self.seq else {
                unreachable!()
            };
            let Some(id) = rd.cursor else { break };
            last_pred_next = Some(self.redispatch_one(id));
            let Sequencer::Redispatch(rd) = &mut self.seq else {
                unreachable!()
            };
            rd.cursor = self.rob.next(id);
            if rd.cursor.is_none() {
                break;
            }
        }
        let Sequencer::Redispatch(rd) = &self.seq else {
            unreachable!()
        };
        if rd.cursor.is_none() {
            // Sequence complete: resume tail fetch (or a suspended restart).
            let (ghr, ras) = (rd.ghr, rd.ras.snapshot());
            // The speculative rename map picks up from the walked window.
            self.map = rd.map.clone();
            self.seq = Sequencer::Normal;
            self.fetch.ghr = ghr;
            self.fetch.ras = ras;
            if let Some(pc) = last_pred_next.flatten() {
                self.fetch.pc = pc;
                self.fetch.stalled = false;
            }
            self.resume_suspended();
        }
    }

    /// Resume the most recent suspended restart that is still valid
    /// (optimal preemption). Invalid suspensions are discarded, squashing
    /// any region they left half-repaired.
    pub(crate) fn resume_suspended(&mut self) {
        while let Some(mut rs) = self.suspended.pop() {
            // During a fill the cursor's successor is always the reconvergent
            // entry (insertions go between the two), and nothing but another
            // recovery can insert there while the restart is suspended. If
            // something did, that recovery — for a branch inside this fill —
            // took over the gap and (re)filled the path itself; resuming would
            // re-fetch the same instructions after the cursor and duplicate
            // them. The takeover's fill is the valid path, so drop the
            // suspension without squashing anything.
            if self.rob.alive(rs.branch)
                && self.rob.alive(rs.cursor)
                && self.rob.alive(rs.recon)
                && self.rob.next(rs.cursor) != Some(rs.recon)
            {
                self.unresolve(rs.branch);
                self.mark_unresolved(rs.cursor);
                continue;
            }
            if self.rob.alive(rs.branch) && self.rob.alive(rs.cursor) && self.rob.alive(rs.recon) {
                // The preempting recovery's redispatch may have remapped the
                // window; rebuild the fill map from current state rather than
                // trusting the one captured at suspension.
                rs.map = self.map_at(rs.cursor);
                // Re-seed the fetch context from the suspension point: fetch
                // resumes at the PC after the last inserted instruction.
                let resume_pc = self.rob.get(rs.cursor).pred_next;
                let ghr = self.rob.get(rs.cursor).ghr_before;
                let ras_snap = self.rob.get(rs.cursor).ras_after.clone();
                self.restore_ras(ras_snap.as_ref());
                self.fetch.ghr = ghr;
                self.fetch.pc = resume_pc;
                self.fetch.stalled = false;
                self.seq = Sequencer::Restart(rs);
                return;
            }
            // Some component died while suspended; the suspension cannot be
            // resumed. The squash that killed it was contiguous, so what
            // matters is the boundary left in front of the surviving
            // reconvergent region. If that predecessor is a control
            // instruction, the discontinuity is rooted there and the normal
            // detect→recover path repairs it — the region itself can sit on
            // the repaired correct path by now and must not be squashed. If
            // it is a non-control instruction whose fall-through does not
            // reach the region, the hole is unrepairable (misprediction
            // detection never fires on a non-control boundary), so the stale
            // suffix has to go before it wedges retirement forever.
            if self.rob.alive(rs.recon) {
                let stale = match self.rob.prev(rs.recon) {
                    Some(p) => {
                        let pe = self.rob.get(p);
                        if pe.class.is_control() {
                            self.mark_unresolved(p);
                            false
                        } else {
                            pe.pc.next() != self.rob.get(rs.recon).pc
                        }
                    }
                    None => false,
                };
                if stale {
                    self.squash_suffix_from(rs.recon);
                }
            }
            self.unresolve(rs.branch);
            if self.rob.alive(rs.cursor) {
                self.mark_unresolved(rs.cursor);
            }
            self.resume_tail_fetch();
        }
    }

    /// Redispatch one instruction: remap sources, keep the destination,
    /// repair history, and re-predict (Appendix A.3.2). Returns the entry's
    /// updated intended successor PC (for fetch resumption when it is the
    /// tail).
    fn redispatch_one(&mut self, id: InstId) -> Option<Pc> {
        // Remap sources against the running map.
        let mut renamed = false;
        let (class, pc, inst, state) = {
            let Sequencer::Redispatch(rd) = &self.seq else {
                unreachable!()
            };
            let map = rd.map.clone();
            let e = self.rob.get_mut(id);
            for slot in e.srcs.iter_mut().flatten() {
                let np = map.get(slot.arch);
                if np != slot.phys {
                    slot.phys = np;
                    renamed = true;
                }
            }
            (e.class, e.pc, e.inst, e.state)
        };
        self.probe
            .record(self.now, Event::Redispatch { pc: pc.0, renamed });
        if renamed {
            self.stats.ci_renamed += 1;
            if state != EState::Waiting {
                self.rob.get_mut(id).reg_reissues += 1;
                self.probe.record(
                    self.now,
                    Event::Reissue {
                        pc: pc.0,
                        kind: ReissueKind::Register,
                    },
                );
                self.invalidate(id);
            } else {
                // A Waiting entry's sources changed under it: any parking on
                // the old registers is stale (it self-neutralizes at drain);
                // re-enter the issue pool against the new ones.
                self.wake.clear_ready(id);
                self.classify_for_issue(id);
            }
        }
        // Destination keeps its physical register; propagate the mapping.
        if let Some((r, p)) = self.rob.get(id).dest {
            let Sequencer::Redispatch(rd) = &mut self.seq else {
                unreachable!()
            };
            rd.map.set(r, p);
        }
        // Oracle re-tag.
        let prev = self.rob.prev(id);
        let tag = self.oracle_tag(prev, pc);
        self.rob.get_mut(id).oracle_idx = tag;

        // History repair and re-prediction.
        let Sequencer::Redispatch(rd) = &self.seq else {
            unreachable!()
        };
        let ghr_now = rd.ghr;
        self.rob.get_mut(id).ghr_before = ghr_now;

        let fallthrough = pc.next();
        let mut pred_next = match class {
            InstClass::CondBranch => None, // handled below
            InstClass::Jump | InstClass::Call => inst.static_target(),
            _ => Some(fallthrough),
        };

        if class == InstClass::CondBranch {
            let target = inst.static_target().unwrap_or(fallthrough);
            let succ = self.successor_pc(id);
            let current_next = succ.unwrap_or(self.rob.get(id).pred_next);
            // Which direction the window currently follows. When taken and
            // not-taken targets coincide, direction is immaterial.
            let current_dir = current_next == target;
            let e = self.rob.get(id);
            let (done, taken, oracle_idx) = (e.state == EState::Done, e.taken, e.oracle_idx);
            let oracle_hist = oracle_idx.map(|i| self.oracle_hist[i]);
            let new_dir = match (self.cfg.repredict, oracle_idx) {
                (RepredictMode::None, _) => current_dir,
                (RepredictMode::Oracle, Some(i)) => self.oracle[i].taken,
                // Completed branches force the predictor.
                _ if done => taken,
                _ => self.predict(ghr_now, oracle_hist, |p, h| p.gshare.predict(pc, h)),
            };
            let new_next = if new_dir { target } else { fallthrough };
            if new_dir != current_dir && target != fallthrough {
                // The re-prediction overturns the path in the window.
                self.pending.push(PendingRecovery {
                    branch: id,
                    redirect: new_next,
                    from_exec: false,
                });
            }
            pred_next = Some(new_next);
            let Sequencer::Redispatch(rd) = &mut self.seq else {
                unreachable!()
            };
            rd.ghr.push(new_dir);
        }

        // RAS replay for subsequent fetch continuity.
        {
            let Sequencer::Redispatch(rd) = &mut self.seq else {
                unreachable!()
            };
            match class {
                InstClass::Call => rd.ras.push(fallthrough),
                InstClass::Return => {
                    let popped = rd.ras.pop();
                    if pred_next == Some(fallthrough) {
                        pred_next = popped.or(Some(fallthrough));
                    }
                }
                InstClass::IndirectJump => {
                    if inst.dest().is_some() {
                        rd.ras.push(fallthrough);
                    }
                    // Keep the currently intended target.
                    pred_next = Some(self.rob.get(id).pred_next);
                }
                _ => {}
            }
        }
        // Re-snapshot the RAS on control instructions.
        if class.is_control() {
            let Sequencer::Redispatch(rd) = &self.seq else {
                unreachable!()
            };
            let mut snap = rd.ras.snapshot();
            let mut v = Vec::new();
            while let Some(p) = snap.pop() {
                v.push(p);
            }
            v.reverse();
            self.rob.get_mut(id).ras_after = Some(v);
        }

        if let Some(n) = pred_next {
            self.rob.get_mut(id).pred_next = n;
        }
        Some(self.rob.get(id).pred_next)
    }
}
