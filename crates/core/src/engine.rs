//! The pipeline: structures, construction, the cycle loop, and the front end
//! (fetch/rename/dispatch).
//!
//! Stage methods live in sibling modules: issue/execute/writeback in
//! [`crate::exec`], misprediction recovery in [`crate::recover`], retirement
//! in [`crate::retire`].

use crate::activity::CycleActivity;
use crate::cache::DataCache;
use crate::config::PipelineConfig;
use crate::recon::ReconDetector;
use crate::reference::ArchRef;
use crate::regfile::{MapTable, PhysReg, PhysRegFile};
use crate::rob::{InstId, Rob, SegCursor};
use crate::sensitivity::Sensitivity;
use crate::stats::Stats;
use crate::wakeup::Wakeup;
use ci_bpred::{
    ConfidenceEstimator, CorrelatedTargetBuffer, GlobalHistory, Gshare, ReturnAddressStack,
    TfrTable,
};
use ci_emu::{DynInst, Memory};
use ci_isa::{Addr, Inst, InstClass, Pc, Program, Reg};
use ci_obs::{Event, NoopProbe, NoopProfiler, Probe, Profiler};
use std::borrow::Cow;
use std::sync::Arc;

/// A renamed source operand.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SrcBinding {
    pub arch: Reg,
    pub phys: PhysReg,
}

/// Execution state of a window entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EState {
    /// Not issued, or invalidated and awaiting reissue.
    Waiting,
    /// Issued; completes at the contained cycle.
    Executing { done_at: u64 },
    /// Executed; result fields are valid (until invalidated).
    Done,
}

/// One instruction in the window. Instructions stay here from fetch to
/// retirement — including across reissues, as Section 3.2.4 requires.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    pub inst: Inst,
    pub pc: Pc,
    pub class: InstClass,
    // Rename state.
    pub srcs: [Option<SrcBinding>; 2],
    pub dest: Option<(Reg, PhysReg)>,
    // Execution state.
    pub state: EState,
    pub issue_count: u32,
    pub dspec: bool,
    pub result: u64,
    pub addr: Option<Addr>,
    pub exec_next: Option<Pc>,
    pub taken: bool,
    pub src_store: Option<InstId>,
    /// Control: the latest execution's path consistency has been checked.
    pub resolved: bool,
    // Front-end bookkeeping.
    pub pred_next: Pc,
    pub first_pred_next: Pc,
    pub ghr_before: GlobalHistory,
    pub ras_after: Option<Vec<Pc>>,
    pub fetched_at: u64,
    /// Index on the architecturally correct path, if this instruction is on
    /// it (the paper's parallel "fully-accurate window", A.3.1).
    pub oracle_idx: Option<usize>,
    /// The branch's confidence counter at fetch (0 for anything but a
    /// conditional branch). With `conf_threshold > 0`, a counter at or
    /// above the threshold made the prediction high confidence, so no CI
    /// recovery context was allocated for this branch.
    pub conf_count: u8,
    // Statistics flags (Table 3 taxonomy).
    pub survived: bool,
    pub saved_done: bool,
    pub discarded: bool,
    pub only_fetched: bool,
    // Per-instruction reissue accounting (Table 4 counts these at
    // retirement, so squashed wrong-path work is excluded).
    pub mem_reissues: u32,
    pub reg_reissues: u32,
}

/// The sequencer's current activity (Section 3.1 / Figure 4).
#[derive(Clone, Debug)]
pub(crate) enum Sequencer {
    /// Appending at the tail.
    Normal,
    /// Restart sequence: fetching the correct control-dependent path into the
    /// middle of the window.
    Restart(RestartState),
    /// Redispatch sequence: re-renaming (and re-predicting) the
    /// control-independent instructions.
    Redispatch(RedispatchState),
}

#[derive(Clone, Debug)]
pub(crate) struct RestartState {
    pub branch: InstId,
    pub cursor: InstId,
    pub recon: InstId,
    pub recon_pc: Pc,
    pub map: MapTable,
    pub seg: SegCursor,
    pub started_at: u64,
    pub inserted: u64,
}

#[derive(Clone, Debug)]
pub(crate) struct RedispatchState {
    pub cursor: Option<InstId>,
    pub map: MapTable,
    pub ghr: GlobalHistory,
    pub ras: ReturnAddressStack,
}

/// A detected misprediction awaiting service.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingRecovery {
    pub branch: InstId,
    pub redirect: Pc,
    /// True if produced by branch execution (classify true/false
    /// mispredictions); false if produced by a re-predict sequence.
    pub from_exec: bool,
}

#[derive(Clone, Debug)]
pub(crate) struct FetchCtx {
    pub pc: Pc,
    pub ghr: GlobalHistory,
    pub ras: ReturnAddressStack,
    pub stalled: bool,
}

/// The detailed execution-driven superscalar pipeline with selective-squash
/// control independence.
///
/// See the crate-level documentation for the model; construct with
/// [`Pipeline::new`] over an [`ArchRef`] and drive with [`Pipeline::run`].
///
/// The pipeline is generic over an observability [`Probe`] that receives
/// one [`Event`] per pipeline action. The default [`NoopProbe`] is a
/// zero-sized sink whose `record` inlines to nothing, so an unprobed
/// pipeline pays no cost for the instrumentation; plug in a real sink such
/// as [`ci_obs::MetricsProbe`] in its place.
///
/// It is separately generic over a [`Profiler`] that attributes *host* wall
/// time to pipeline stages (fetch, issue, complete, retire, recovery). The
/// default [`NoopProfiler`] is likewise a zero-sized no-op; attach a
/// [`ci_obs::SpanProfiler`] (or call [`crate::simulate_profiled`]) to see
/// where simulation time goes. Probes and profilers observe; they never
/// steer — [`Stats`] is bit-identical with or without them.
#[derive(Debug)]
pub struct Pipeline<'p, P: Probe = NoopProbe, F: Profiler = NoopProfiler> {
    pub(crate) probe: P,
    pub(crate) prof: F,
    pub(crate) activity: CycleActivity,
    pub(crate) program: &'p Program,
    pub(crate) cfg: PipelineConfig,
    // Architectural reference: borrowed from the shared `ArchRef`, and
    // copied only if a test corrupts an entry.
    pub(crate) oracle: Cow<'p, [DynInst]>,
    pub(crate) oracle_hist: &'p [GlobalHistory],
    // Machine state.
    pub(crate) rob: Rob<Entry>,
    pub(crate) regs: PhysRegFile,
    pub(crate) map: MapTable,
    pub(crate) committed_map: MapTable,
    pub(crate) memory: Memory,
    pub(crate) cache: DataCache,
    // Predictors.
    pub(crate) gshare: Gshare,
    /// Branch confidence estimator gating CI resource allocation. It runs
    /// on every machine, so each recovery can note its branch's counter in
    /// the sensitivity record, but steers only when `conf_threshold > 0`.
    pub(crate) conf: ConfidenceEstimator,
    pub(crate) ctb: CorrelatedTargetBuffer,
    pub(crate) tfr_pc: TfrTable,
    pub(crate) tfr_xor: TfrTable,
    pub(crate) recon: ReconDetector,
    // Sequencing.
    pub(crate) fetch: FetchCtx,
    /// Committed front-end state (PC/history/RAS as of the last retirement):
    /// what a real machine restarts from when the window drains on a wrong
    /// path.
    pub(crate) commit_pc: Pc,
    pub(crate) commit_ghr: GlobalHistory,
    pub(crate) commit_ras: ReturnAddressStack,
    pub(crate) seq: Sequencer,
    pub(crate) suspended: Vec<RestartState>,
    pub(crate) pending: Vec<PendingRecovery>,
    pub(crate) now: u64,
    pub(crate) stats: Stats,
    /// Event-driven wakeup state (completion heap, waiter/consumer chains,
    /// ready set, membership sets, SoA status columns).
    pub(crate) wake: Wakeup,
    // Reusable scratch buffers, pooled so nested drains (a squash cascading
    // inside a drain) can each check one out: the cycle loop allocates
    // nothing in steady state.
    pub(crate) scratch_ids: Vec<Vec<InstId>>,
    pub(crate) scratch_keyed: Vec<Vec<(u64, InstId)>>,
    pub(crate) scratch_found: Vec<PendingRecovery>,
    /// What this run's decisions depended on (see [`Sensitivity`]).
    pub(crate) sens: Sensitivity,
}

impl<'p, P: Probe, F: Profiler> Pipeline<'p, P, F> {
    /// Build a pipeline over `reference` whose events feed `probe` and whose
    /// host time is attributed through `profiler` ([`Pipeline::run`] adds
    /// the per-stage spans). Pass [`NoopProbe`] and [`NoopProfiler`] to
    /// observe nothing.
    pub fn new(
        reference: &'p ArchRef,
        config: PipelineConfig,
        probe: P,
        profiler: F,
    ) -> Pipeline<'p, P, F> {
        let program = reference.program();
        Pipeline {
            probe,
            prof: profiler,
            activity: CycleActivity::default(),
            program,
            cfg: config,
            oracle: Cow::Borrowed(reference.trace().insts()),
            oracle_hist: reference.hist(),
            rob: Rob::new(config.segment),
            regs: PhysRegFile::new(),
            map: MapTable::initial(),
            committed_map: MapTable::initial(),
            memory: reference.image().clone(),
            cache: DataCache::new(config.cache),
            gshare: Gshare::new(config.predictor_bits),
            conf: ConfidenceEstimator::new(config.predictor_bits, config.conf_threshold.max(1)),
            ctb: CorrelatedTargetBuffer::new(config.predictor_bits),
            tfr_pc: TfrTable::new(config.predictor_bits),
            tfr_xor: TfrTable::new(config.predictor_bits),
            recon: ReconDetector::with_map(
                program,
                config.recon,
                Arc::clone(reference.recon_map()),
            ),
            fetch: FetchCtx {
                pc: program.entry(),
                ghr: GlobalHistory::new(),
                ras: ReturnAddressStack::bounded(64),
                stalled: false,
            },
            commit_pc: program.entry(),
            commit_ghr: GlobalHistory::new(),
            commit_ras: ReturnAddressStack::bounded(64),
            seq: Sequencer::Normal,
            suspended: Vec::new(),
            pending: Vec::new(),
            now: 0,
            stats: Stats::default(),
            wake: Wakeup::default(),
            scratch_ids: Vec::new(),
            scratch_keyed: Vec::new(),
            scratch_found: Vec::new(),
            sens: Sensitivity::default(),
        }
    }

    /// Check an id scratch buffer out of the pool.
    pub(crate) fn take_ids(&mut self) -> Vec<InstId> {
        self.scratch_ids.pop().unwrap_or_default()
    }

    /// Return an id scratch buffer to the pool.
    pub(crate) fn put_ids(&mut self, mut v: Vec<InstId>) {
        v.clear();
        self.scratch_ids.push(v);
    }

    /// Check a keyed scratch buffer out of the pool.
    pub(crate) fn take_keyed(&mut self) -> Vec<(u64, InstId)> {
        self.scratch_keyed.pop().unwrap_or_default()
    }

    /// Return a keyed scratch buffer to the pool.
    pub(crate) fn put_keyed(&mut self, mut v: Vec<(u64, InstId)>) {
        v.clear();
        self.scratch_keyed.push(v);
    }

    /// Change an entry's execution state, keeping the wakeup columns in sync.
    /// Every state assignment goes through here; nothing writes
    /// `Entry::state` directly.
    pub(crate) fn set_state(&mut self, id: InstId, state: EState) {
        self.rob.get_mut(id).state = state;
        self.wake.note_state(id, state);
    }

    /// Clear an entry's path-consistency flag so misprediction detection
    /// re-examines it, (re-)registering control instructions on the
    /// unsettled watch list. Every `resolved = false` goes through here.
    pub(crate) fn mark_unresolved(&mut self, id: InstId) {
        let e = self.rob.get_mut(id);
        e.resolved = false;
        if e.class.is_control() && e.class != InstClass::Halt {
            self.wake.watch_ctrl(id);
        }
    }

    /// Remove an entry from the window (retirement or squash), clearing its
    /// wakeup registrations. Chains and sets holding the id are *not*
    /// searched — they validate generational ids at drain time (the
    /// squash-vs-drain rule); only the address map is eagerly deregistered,
    /// and the chains of the entry's own destination register are recycled
    /// (that register can never be written again, so they would never
    /// drain).
    pub(crate) fn remove_entry(&mut self, id: InstId) -> Entry {
        self.wake.deregister_load(id);
        if let Some((_, p)) = self.rob.get(id).dest {
            self.wake.discard_chains(p.0);
        }
        self.wake.note_removed(id);
        self.rob.remove(id)
    }

    /// Decide how a `Waiting` entry waits for issue: young entries stay in
    /// the age queue, entries with a not-ready source park on that source's
    /// waiter chain, issueable entries join the ready set.
    pub(crate) fn classify_for_issue(&mut self, id: InstId) {
        if !self.rob.alive(id) {
            return;
        }
        let e = self.rob.get(id);
        if e.state != EState::Waiting {
            return;
        }
        if self.now < e.fetched_at + 2 {
            return; // still owned by the age queue
        }
        let not_ready = e
            .srcs
            .iter()
            .flatten()
            .find(|s| !self.regs.ready(s.phys))
            .map(|s| s.phys);
        match not_ready {
            Some(p) => {
                // Parking is only useful while the producer can still write
                // the register. A dead producer's register never becomes
                // ready, so the entry stays dormant (exactly as the old
                // issue scan would never have picked it) until a redispatch
                // remap or squash re-enters it here.
                if self
                    .wake
                    .producer_of(p.0)
                    .is_some_and(|pid| self.rob.alive(pid))
                {
                    self.wake.park_waiter(p.0, id);
                }
            }
            None => self.wake.mark_ready(id),
        }
    }

    /// Number of instructions on the architectural reference path.
    #[must_use]
    pub fn target_retirements(&self) -> u64 {
        self.oracle.len() as u64
    }

    /// Shared view of the attached probe.
    #[must_use]
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consume the pipeline, returning the probe (for reading accumulated
    /// metrics after [`Pipeline::run`]).
    #[must_use]
    pub fn into_probe(self) -> P {
        self.probe
    }

    /// Shared view of the attached profiler.
    #[must_use]
    pub fn profiler(&self) -> &F {
        &self.prof
    }

    /// The per-cycle stage-activity counters accumulated so far.
    #[must_use]
    pub fn activity(&self) -> &CycleActivity {
        &self.activity
    }

    /// What the decisions of this run so far depended on: after
    /// [`Pipeline::run`], [`Sensitivity::covers`] says which sibling
    /// configurations would have simulated exactly this run.
    #[must_use]
    pub fn sensitivity(&self) -> &Sensitivity {
        &self.sens
    }

    /// Consume the pipeline, returning the probe, the profiler, and the
    /// stage-activity counters.
    #[must_use]
    pub fn into_parts(self) -> (P, F, CycleActivity) {
        (self.probe, self.prof, self.activity)
    }

    /// Force this pipeline's view of the architectural reference at
    /// retired-index `idx` onto a bogus PC, so the next retirement at that
    /// index trips the oracle checker. The pipeline first takes a private
    /// copy of the trace, so other pipelines on the same [`ArchRef`] never
    /// see the corruption. Exists so tests can exercise the failure path
    /// (the flight-recorder dump); never call it otherwise.
    #[doc(hidden)]
    pub fn corrupt_oracle_entry(&mut self, idx: usize) {
        if let Some(o) = self.oracle.to_mut().get_mut(idx) {
            o.pc = Pc(o.pc.0 ^ 0x8000_0000);
        }
    }

    /// Run to completion (all reference instructions retired) and return the
    /// statistics.
    ///
    /// # Panics
    /// Panics if the simulation stops making forward progress or (with
    /// `check` enabled) retires an instruction that disagrees with the
    /// functional emulator — both indicate simulator bugs.
    pub fn run(&mut self) -> Stats {
        let target = self.oracle.len() as u64;
        let cap = 600 * target + 100_000;
        self.prof.enter("cycle_loop");
        while self.stats.retired < target {
            self.cycle();
            if self.now >= cap {
                self.prof.exit();
                self.dump_deadlock();
                panic!(
                    "pipeline failed to make forward progress at cycle {}",
                    self.now
                );
            }
        }
        self.prof.exit();
        self.stats.cycles = self.now;
        let (h, m) = self.cache.stats();
        self.stats.cache_hits = h;
        self.stats.cache_misses = m;
        self.stats.clone()
    }

    /// Whether `id` is the recovering branch or insertion cursor of the
    /// active or a suspended restart (and must therefore not retire yet —
    /// the sequencer still holds it as recovery state).
    pub(crate) fn restart_cursor_blocked(&self, id: InstId) -> bool {
        if let Sequencer::Restart(rs) = &self.seq {
            if rs.cursor == id || rs.branch == id {
                return true;
            }
        }
        self.suspended
            .iter()
            .any(|rs| rs.cursor == id || rs.branch == id)
    }

    /// Diagnostic dump used when the forward-progress cap trips.
    fn dump_deadlock(&self) {
        eprintln!(
            "=== deadlock at cycle {} retired {} ===",
            self.now, self.stats.retired
        );
        if let Some(d) = self.probe.dump() {
            eprintln!("{d}");
        }
        eprintln!(
            "seq: {:?}",
            match &self.seq {
                Sequencer::Normal => "Normal".to_string(),
                Sequencer::Restart(rs) => format!(
                    "Restart recon_pc={} branch_alive={} recon_alive={}",
                    rs.recon_pc,
                    self.rob.alive(rs.branch),
                    self.rob.alive(rs.recon)
                ),
                Sequencer::Redispatch(_) => "Redispatch".to_string(),
            }
        );
        eprintln!(
            "fetch: pc={} stalled={} pending={} suspended={}",
            self.fetch.pc,
            self.fetch.stalled,
            self.pending.len(),
            self.suspended.len()
        );
        for (n, id) in self.rob.iter().enumerate().take(12) {
            let e = self.rob.get(id);
            let srcs: Vec<String> = e
                .srcs
                .iter()
                .flatten()
                .map(|s| {
                    let producer = self.wake.producer_of(s.phys.0);
                    format!(
                        "p{}:ready={} producer={:?} producer_alive={}",
                        s.phys.0,
                        self.regs.ready(s.phys),
                        producer,
                        producer.is_some_and(|pid| self.rob.alive(pid)),
                    )
                })
                .collect();
            eprintln!(
                "  [{n}] {} {:?} state={:?} resolved={} exec_next={:?} pred_next={} oracle={:?} survived={} conf={} srcs=[{}]",
                e.pc,
                e.inst.op,
                e.state,
                e.resolved,
                e.exec_next,
                e.pred_next,
                e.oracle_idx,
                e.survived,
                e.conf_count,
                srcs.join("; ")
            );
        }
    }

    /// Advance one cycle.
    pub(crate) fn cycle(&mut self) {
        self.now += 1;
        #[cfg(debug_assertions)]
        let trace_stages = self.cfg.check && std::env::var_os("CI_CORE_INVARIANTS").is_some();
        #[cfg(debug_assertions)]
        macro_rules! chk {
            ($stage:expr) => {
                if trace_stages {
                    self.check_window_invariants($stage);
                }
            };
        }
        #[cfg(not(debug_assertions))]
        macro_rules! chk {
            ($stage:expr) => {};
        }
        self.prof.enter("complete");
        self.writeback();
        self.prof.exit();
        chk!("writeback");
        self.prof.enter("recovery");
        self.detect_mispredictions();
        chk!("detect");
        self.service_recoveries();
        chk!("service");
        self.redispatch_step();
        chk!("redispatch");
        // Suspended restarts are normally resumed by the preempting
        // recovery's completing redispatch — but a recovery that ends in a
        // complete squash (no reconvergent point in the window) never starts
        // one. With the sequencer idle and no recovery pending, nothing else
        // would ever resume the suspension, and its cursor would block
        // retirement forever.
        if matches!(self.seq, Sequencer::Normal)
            && self.pending.is_empty()
            && !self.suspended.is_empty()
        {
            self.resume_suspended();
        }
        self.prof.exit();
        self.prof.enter("retire");
        self.retire_stage();
        self.prof.exit();
        chk!("retire");
        self.prof.enter("fetch");
        // If the window fully drained while fetch was stalled on a dead-end
        // wrong path, restart fetch from the committed state.
        if self.fetch.stalled
            && self.rob.is_empty()
            && matches!(self.seq, Sequencer::Normal)
            && self.stats.retired < self.oracle.len() as u64
        {
            self.fetch.pc = self.commit_pc;
            self.fetch.ghr = self.commit_ghr;
            self.fetch.ras = self.commit_ras.snapshot();
            self.map = self.committed_map.clone();
            self.fetch.stalled = false;
        }
        self.fetch_stage();
        self.prof.exit();
        chk!("fetch");
        self.prof.enter("issue");
        self.issue_stage();
        self.prof.exit();
        chk!("issue");
        let recovery_busy = !matches!(self.seq, Sequencer::Normal) || !self.pending.is_empty();
        self.activity
            .end_cycle(self.rob.len() as u32, recovery_busy);
        self.probe.record(
            self.now,
            Event::CycleEnd {
                occupancy: self.rob.len() as u32,
            },
        );
    }

    /// Debug invariant: every non-control instruction's successor must be
    /// its fall-through unless a restart's insertion point accounts for the
    /// discontinuity.
    #[cfg(debug_assertions)]
    fn check_window_invariants(&self, stage: &str) {
        for id in self.rob.iter() {
            let e = self.rob.get(id);
            if e.class.is_control() || e.class == InstClass::Halt {
                continue;
            }
            let Some(next) = self.rob.next(id) else {
                continue;
            };
            let npc = self.rob.get(next).pc;
            if npc == e.pc.next() {
                continue;
            }
            let covered = match &self.seq {
                Sequencer::Restart(rs) => rs.cursor == id,
                _ => false,
            } || self.suspended.iter().any(|rs| rs.cursor == id);
            assert!(
                covered,
                "window hole after non-control {} at cycle {} stage {}: successor {}",
                e.pc, self.now, stage, npc
            );
        }
    }

    // ---------------------------------------------------------------- fetch

    /// The PC of the entry after `id` in the window.
    pub(crate) fn successor_pc(&self, id: InstId) -> Option<Pc> {
        self.rob.next(id).map(|n| self.rob.get(n).pc)
    }

    /// Compute an entry's oracle index from its predecessor's.
    pub(crate) fn oracle_tag(&self, prev: Option<InstId>, pc: Pc) -> Option<usize> {
        match prev {
            None => {
                let r = self.stats.retired as usize;
                (r < self.oracle.len() && self.oracle[r].pc == pc).then_some(r)
            }
            Some(p) => {
                let pe = self.rob.get(p);
                let i = pe.oracle_idx?;
                (self.oracle[i].next_pc == pc && i + 1 < self.oracle.len()).then_some(i + 1)
            }
        }
    }

    fn fetch_stage(&mut self) {
        // Restart fetch and normal fetch share the one sequencer; redispatch
        // occupies it entirely (no fetch during redispatch).
        if matches!(self.seq, Sequencer::Redispatch(_)) {
            return;
        }
        for _ in 0..self.cfg.width {
            // A restart connects when its fetch PC reaches the reconvergent
            // point.
            if let Sequencer::Restart(rs) = &self.seq {
                if self.fetch.pc == rs.recon_pc && self.rob.alive(rs.recon) {
                    let rs = rs.clone();
                    self.begin_redispatch(&rs);
                    return;
                }
            }
            if self.fetch.stalled {
                self.degenerate_stalled_restart();
                return;
            }
            let Some(&inst) = self.program.fetch(self.fetch.pc) else {
                // Wrong-path fetch left the program: stall until a recovery
                // redirects the front end.
                self.fetch.stalled = true;
                self.degenerate_stalled_restart();
                return;
            };
            // Window capacity. A restart may squash youngest-first to make
            // room (Section 3.2.2); normal fetch just stalls.
            while self.window_full() {
                match &self.seq {
                    Sequencer::Restart(_) => {
                        if !self.evict_youngest_for_restart() {
                            // Nothing evictable and retirement is blocked on
                            // this very restart: fall back to a complete
                            // squash (happens only with segment sizes near
                            // the window size).
                            self.force_full_squash_of_restart();
                            return;
                        }
                        // Eviction may have degenerated the restart.
                        if !matches!(self.seq, Sequencer::Restart(_)) && self.window_full() {
                            return;
                        }
                    }
                    _ => return,
                }
            }
            self.fetch_one(inst);
            if self.fetch.stalled {
                self.degenerate_stalled_restart();
                return;
            }
        }
    }

    /// The fetch capacity check: whether the window is full. Every
    /// evaluation is noted in the sensitivity record.
    fn window_full(&mut self) -> bool {
        self.sens
            .note_capacity(self.rob.capacity_used(), self.cfg.window)
    }

    /// A restart whose fill path dead-ends (halt or out-of-program) can
    /// never reach its reconvergent point — usually a heuristic that picked
    /// a bogus point on the wrong path. Squash from the unreachable
    /// reconvergent point and fall back to tail fetch so the machine drains.
    fn degenerate_stalled_restart(&mut self) {
        if let Sequencer::Restart(rs) = &self.seq {
            let rs = rs.clone();
            if self.rob.alive(rs.recon) {
                self.squash_suffix_from(rs.recon);
            }
            self.map = rs.map;
            self.seq = Sequencer::Normal;
            self.unresolve(rs.branch);
        }
    }

    /// Abandon the active restart entirely: squash everything younger than
    /// its branch and restart fetch from the branch's corrected path — the
    /// behaviour of a complete squash. Used when a restart cannot obtain
    /// window space by evicting (pathological segment/window ratios).
    fn force_full_squash_of_restart(&mut self) {
        let Sequencer::Restart(rs) = std::mem::replace(&mut self.seq, Sequencer::Normal) else {
            return;
        };
        if let Some(n) = self.rob.next(rs.branch) {
            self.squash_suffix_from(n);
        }
        self.map = self.map_at(rs.branch);
        let e = self.rob.get(rs.branch);
        let redirect = e.pred_next;
        let mut ghr = e.ghr_before;
        if e.class == InstClass::CondBranch {
            ghr.push(Some(redirect) == e.inst.static_target());
        }
        let snap = e.ras_after.clone();
        self.restore_ras(snap.as_ref());
        self.fetch.ghr = ghr;
        self.fetch.pc = redirect;
        self.fetch.stalled = false;
    }

    /// Squash the youngest instruction to make room for a restart insert.
    /// Returns false if the restart degenerated (reconvergent point evicted).
    fn evict_youngest_for_restart(&mut self) -> bool {
        let Some(tail) = self.rob.tail() else {
            return false;
        };
        let Sequencer::Restart(rs) = &self.seq else {
            return false;
        };
        if tail == rs.cursor || tail == rs.branch {
            // Nothing evictable: the window is all older instructions.
            return false;
        }
        let degenerate = tail == rs.recon;
        self.stats.ci_evicted += 1;
        self.squash_one(tail);
        if degenerate {
            // All control-independent work is gone; the restart becomes
            // plain tail fetch from the current restart PC, continuing with
            // the restart's rename map.
            let Sequencer::Restart(rs) = std::mem::replace(&mut self.seq, Sequencer::Normal) else {
                unreachable!()
            };
            self.map = rs.map.clone();
            self.unresolve(rs.branch);
        }
        true
    }

    /// Fetch, predict, rename and dispatch one instruction at the current
    /// fetch PC.
    fn fetch_one(&mut self, inst: Inst) {
        let pc = self.fetch.pc;
        let class = inst.class();
        self.activity.cur_fetched += 1;
        self.probe.record(self.now, Event::Fetch { pc: pc.0 });

        // Predecessor in logical order (for oracle tagging).
        let prev = match &self.seq {
            Sequencer::Normal => self.rob.tail(),
            Sequencer::Restart(rs) => Some(rs.cursor),
            Sequencer::Redispatch(_) => unreachable!("no fetch during redispatch"),
        };
        let oracle_idx = self.oracle_tag(prev, pc);

        // Predict the next PC.
        let ghr_before = self.fetch.ghr;
        let oracle_hist = oracle_idx.map(|i| self.oracle_hist[i]);
        let fallthrough = pc.next();
        let next = match class {
            InstClass::CondBranch => {
                let t = self.predict(ghr_before, oracle_hist, |p, h| p.gshare.predict(pc, h));
                self.fetch.ghr.push(t);
                if t {
                    inst.static_target().unwrap_or(fallthrough)
                } else {
                    fallthrough
                }
            }
            InstClass::Jump => inst.static_target().unwrap_or(fallthrough),
            InstClass::Call => {
                self.fetch.ras.push(fallthrough);
                inst.static_target().unwrap_or(fallthrough)
            }
            InstClass::Return => self.fetch.ras.pop().unwrap_or(fallthrough),
            InstClass::IndirectJump => {
                if inst.dest().is_some() {
                    self.fetch.ras.push(fallthrough);
                }
                self.predict(ghr_before, oracle_hist, |p, h| p.ctb.predict(pc, h))
                    .unwrap_or(fallthrough)
            }
            InstClass::Halt => {
                self.fetch.stalled = true;
                fallthrough
            }
            _ => fallthrough,
        };
        self.recon.observe(pc, &inst, next);

        // Confidence gating (conf_threshold > 0 only): a high-confidence
        // conditional branch gets no CI recovery context — if it does
        // mispredict, recovery falls back to a complete squash. The counter
        // is read now, indexed by the speculative history to match the
        // estimator update at retirement, and compared at recovery.
        let conf_count = if class == InstClass::CondBranch {
            self.conf.counter(pc, ghr_before)
        } else {
            0
        };

        // Rename against the active map (the restart's own map while filling
        // a gap, the speculative tail map otherwise).
        let map = match &mut self.seq {
            Sequencer::Restart(rs) => &mut rs.map,
            _ => &mut self.map,
        };
        let mut srcs = [None, None];
        for (k, r) in inst.sources().enumerate() {
            srcs[k] = Some(SrcBinding {
                arch: r,
                phys: map.get(r),
            });
        }
        let dest = inst.dest().map(|r| (r, self.regs.alloc()));
        let map = match &mut self.seq {
            Sequencer::Restart(rs) => &mut rs.map,
            _ => &mut self.map,
        };
        if let Some((r, p)) = dest {
            map.set(r, p);
        }

        let ras_after = class
            .is_control()
            .then(|| self.fetch.ras.snapshot())
            .map(|s| {
                // Store the raw stack contents.
                let mut v = Vec::new();
                let mut s = s;
                while let Some(pc) = s.pop() {
                    v.push(pc);
                }
                v.reverse();
                v
            });

        let entry = Entry {
            inst,
            pc,
            class,
            srcs,
            dest,
            state: EState::Waiting,
            issue_count: 0,
            dspec: false,
            result: 0,
            addr: None,
            exec_next: None,
            taken: false,
            src_store: None,
            resolved: false,
            pred_next: next,
            first_pred_next: next,
            ghr_before,
            ras_after,
            fetched_at: self.now,
            oracle_idx,
            conf_count,
            survived: false,
            saved_done: false,
            discarded: false,
            only_fetched: false,
            mem_reissues: 0,
            reg_reissues: 0,
        };

        let id = match &self.seq {
            Sequencer::Restart(rs) => {
                let cursor = rs.cursor;
                let mut seg = rs.seg;
                // The cursor's successor changes: re-check consistency.
                self.mark_unresolved(cursor);
                let id = self.rob.insert_after(cursor, entry, &mut seg);
                if let Sequencer::Restart(rs) = &mut self.seq {
                    rs.seg = seg;
                    rs.cursor = id;
                    rs.inserted += 1;
                }
                self.stats.inserted += 1;
                id
            }
            _ => {
                // The former tail's successor changes: its path consistency
                // must be re-checked (it may have resolved against the bare
                // fetch PC).
                if let Some(t) = self.rob.tail() {
                    self.mark_unresolved(t);
                }
                self.rob.push_back(entry)
            }
        };
        // Dispatch-side wakeup registration: state column, the producer of
        // the destination register, the control watch list, the store set,
        // and the issue age queue (issueable at +2).
        self.wake.note_state(id, EState::Waiting);
        if let Some((_, p)) = dest {
            self.wake.set_producer(p.0, id);
        }
        if class.is_control() && class != InstClass::Halt {
            self.wake.watch_ctrl(id);
        }
        if class == InstClass::Store {
            self.wake.add_store(id);
        }
        self.wake.push_young(self.now + 2, id);
        self.probe.record(self.now, Event::Dispatch { pc: pc.0 });
        self.fetch.pc = next;
    }

    /// Predict with `predictor` under the history the configuration
    /// selects: the speculative history `spec`, or with `oracle_ghr` the
    /// architecturally correct `oracle` one of an instruction on the
    /// correct path. Notes in the sensitivity record when the other
    /// history would predict otherwise.
    pub(crate) fn predict<T: PartialEq>(
        &mut self,
        spec: GlobalHistory,
        oracle: Option<GlobalHistory>,
        predictor: impl Fn(&Self, GlobalHistory) -> T,
    ) -> T {
        let oracle = oracle.unwrap_or(spec);
        let (hist, other) = if self.cfg.oracle_ghr {
            (oracle, spec)
        } else {
            (spec, oracle)
        };
        let chosen = predictor(self, hist);
        if other != hist && !self.sens.history_sensitive() && predictor(self, other) != chosen {
            self.sens.note_history();
        }
        chosen
    }

    /// Restore a RAS snapshot stored on an entry into the fetch context.
    pub(crate) fn restore_ras(&mut self, snapshot: Option<&Vec<Pc>>) {
        let mut ras = ReturnAddressStack::bounded(64);
        if let Some(v) = snapshot {
            for &pc in v {
                ras.push(pc);
            }
        }
        self.fetch.ras = ras;
    }

    /// Rebuild the rename map as it stood just after `upto` dispatched.
    pub(crate) fn map_at(&self, upto: InstId) -> MapTable {
        let mut m = self.committed_map.clone();
        for id in self.rob.iter() {
            if let Some((r, p)) = self.rob.get(id).dest {
                m.set(r, p);
            }
            if id == upto {
                break;
            }
        }
        m
    }
}
