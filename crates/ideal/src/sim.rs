//! The shared event-driven engine behind all six idealized models.
//!
//! # Model mechanics
//!
//! Every dynamic instruction gets a 64-bit *logical key*: correct-path
//! instruction `i` has key `i << 11`; the `j`-th wrong-path instruction of the
//! misprediction at `i` has key `(i << 11) | (j + 1)`, placing the incorrect
//! control-dependent path between its branch and the branch's logical
//! successor. The window holds items in key order; fetch always takes the
//! lowest *available* unfetched key, where availability encodes the model:
//!
//! - `base`: nothing past an unresolved misprediction is available.
//! - `nWR-*`: the correct control-dependent region is deferred to resolution,
//!   control-independent keys (at/after the reconvergent instruction) are
//!   available immediately.
//! - `WR-*`: wrong-path keys are available until resolution; control
//!   independent keys become available once the wrong path has been fully
//!   fetched (the fetch unit reaches the reconvergent point *via* the wrong
//!   path, as in hardware).
//!
//! `FD` models additionally hold back a control-independent instruction whose
//! source register (or load address) was written by an in-flight wrong path
//! and whose true producer is older than the mispredicted branch; the repair
//! completes one cycle after resolution, the best a real redispatch could do.
//!
//! If a restart needs window space (more correct control-dependent
//! instructions than incorrect ones), the youngest instructions are evicted
//! and refetched later, as Section 3.2.2 of the paper requires. Eviction does
//! not cascade to already-issued consumers: the evicted instruction's value
//! was genuinely computed and broadcast before the squash, and recomputation
//! yields the same value on the correct path.
//!
//! Approximations (documented deviations from a hypothetical perfect model):
//! wrong-path *loads* do not chain through wrong-path stores (address
//! generation plus cache latency only), branches *inside* a wrong path do not
//! spawn nested wrong paths, and the `base` model does not charge issue
//! bandwidth for wrong-path work (a slight advantage to `base`, i.e. a
//! conservative estimate of control-independence benefit).
//!
//! # Engine
//!
//! Each cycle resolves mispredictions, retires, issues, fetches and reports
//! `CycleEnd`, and issue takes the oldest ready keys first. No stage walks
//! the window; every fact is indexed where it changes, in the idiom of the
//! detailed core's wakeup tables:
//!
//! - Every item (correct or wrong-path instruction) has a dense id and
//!   compact columns: completion cycle, waiter-chain head, event, phase. The
//!   window itself is only a count: retire reads the next correct
//!   instruction's columns, resolution squashes the event's wrong-path ids,
//!   and eviction derives the youngest item from the frontier, the pending
//!   ranges and each active event's wrong-path top.
//! - **Ready set.** Issue pops a key-ordered heap oldest first. A fetched
//!   item joins it two cycles after fetch.
//! - **Waiter chains.** A popped item whose producer has not issued parks on
//!   the producer's chain (pooled `u32` nodes). When the producer issues, its
//!   chain moves to the **wake-up wheel** slot of the cycle its result is
//!   bypassed; an item whose producer is already executing parks there
//!   directly. The wheel is sized from the configured latencies; a longer
//!   wait (beyond its cap) merely parks again when its slot comes round.
//! - **FD parking.** False-dependence readiness is not monotone: a
//!   mispredicted branch fetched later (from a deferred region, or refetched
//!   after eviction) can re-block a waiting instruction. So FD is checked when
//!   an item is popped; a blocked item parks on the blocking event and is
//!   released when that event resolves — the timed one-cycle repair.
//! - **Fetch** keeps the unfetched correct indices below the frontier as
//!   ranges, and jumps over each active event's whole blocked range
//!   (`(branch, reconvergent)`, or everything past the branch) instead of
//!   testing every index.
//!
//! Parked ids are validated when they come back, never deleted eagerly: an id
//! whose item was evicted, squashed or already issued is dropped, and every
//! pop re-checks readiness, so issue picks exactly the items a full window
//! walk would (`tests/ideal_equivalence.rs` pins this byte for byte).

use crate::input::{StudyInput, WpDep};
use crate::model::{IdealConfig, IdealResult, ModelKind};
use ci_isa::InstClass;
use ci_obs::{Event, NoopProbe, Probe};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const KEY_SHIFT: u64 = 11;
const NONE: u32 = u32::MAX;
/// Most wheel slots; a longer wait re-parks once per revolution.
const MAX_WHEEL: u64 = 1 << 16;

fn ckey(i: u32) -> u64 {
    u64::from(i) << KEY_SHIFT
}

fn wkey(branch: u32, j: u32) -> u64 {
    (u64::from(branch) << KEY_SHIFT) | u64::from(j + 1)
}

/// Where an item is in its current life (a correct item evicted by a
/// restart is fetched again; a wrong-path item lives once).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Not in the window: never fetched, evicted, squashed or retired.
    Out,
    /// Fetched, not yet old enough to issue.
    Young,
    /// May issue once its producers complete and no false dependence holds.
    Waiting,
    Issued,
}

#[derive(Clone, Copy, Debug, Default)]
struct EvState {
    wp_fetched: u32,
    /// One past the highest wrong-path index in the window (0 = none).
    /// Eviction takes the youngest item, so the event's wrong-path items in
    /// the window behave as a stack.
    wp_top: u32,
    resolve_at: Option<u64>,
    /// Chain of items parked on this event's false dependences.
    parked: u32,
}

/// Pooled singly linked lists of item ids: `[id, next]` nodes, heads are
/// node indices (`NONE` = empty).
#[derive(Debug, Default)]
struct Chains {
    nodes: Vec<[u32; 2]>,
    free: Vec<u32>,
}

impl Chains {
    fn push(&mut self, head: &mut u32, id: u32) {
        let node = [id, *head];
        *head = match self.free.pop() {
            Some(n) => {
                self.nodes[n as usize] = node;
                n
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
    }

    fn pop(&mut self, head: &mut u32) -> Option<u32> {
        if *head == NONE {
            return None;
        }
        let [id, next] = self.nodes[*head as usize];
        self.free.push(std::mem::replace(head, next));
        Some(id)
    }
}

struct Sim<'a, P: Probe> {
    probe: P,
    input: &'a StudyInput,
    cfg: &'a IdealConfig,
    /// Items in the window.
    occupancy: usize,
    /// Ids below `n` are correct-path indices; event `e`'s wrong-path
    /// instruction `j` is `wp_base[e] + j`.
    n: u32,
    wp_base: Vec<u32>,
    // ---- per-item columns, indexed by id ----
    /// Completion cycle (`u64::MAX` = not executed).
    comp: Vec<u64>,
    /// Chain of items waiting for this one to issue.
    waiters: Vec<u32>,
    /// Correct: the event it mispredicts (or `NONE`); wrong: its event.
    event: Vec<u32>,
    phase: Vec<Phase>,
    ev: Vec<EvState>,
    /// Events fetched and not yet resolved (small; may repeat an event whose
    /// branch was refetched).
    active: Vec<u32>,
    /// Unfetched correct indices below the frontier (deferred CD regions and
    /// evicted instructions) as sorted, disjoint `[lo, hi)` ranges.
    pending: Vec<(u32, u32)>,
    /// Next never-scheduled correct index.
    frontier: u32,
    next_retire: u32,
    now: u64,
    retired: u64,
    wrong_fetched: u64,
    evictions: u64,
    /// Issue candidates by logical key, oldest first.
    ready: BinaryHeap<Reverse<u64>>,
    /// Fetched items and the cycle they become issue candidates.
    young: VecDeque<(u64, u32)>,
    /// Chains of items to re-examine at cycle `c`, in slot `c % len`.
    wheel: Vec<u32>,
    chains: Chains,
}

/// Run one idealized model over `input`.
///
/// See the crate-level docs for the model semantics and the
/// [`ModelKind`] table.
///
/// # Panics
/// Panics if the simulation fails to make forward progress (an internal bug,
/// guarded by a generous cycle cap).
#[must_use]
pub fn simulate(input: &StudyInput, config: &IdealConfig) -> IdealResult {
    simulate_probed(input, config, NoopProbe).0
}

/// Like [`simulate`], but with an observability probe attached: the engine
/// reports fetch, issue, retire, squash, and end-of-cycle occupancy events
/// (this engine has no rename/redispatch machinery, so the restart-sequence
/// events of the detailed pipeline never fire). Wrong-path instructions
/// carry their mispredicted branch's PC — the idealized input does not
/// record per-wrong-instruction PCs.
///
/// # Panics
/// Panics if the simulation fails to make forward progress (an internal
/// bug, guarded by a generous cycle cap).
pub fn simulate_probed<P: Probe>(
    input: &StudyInput,
    config: &IdealConfig,
    probe: P,
) -> (IdealResult, P) {
    let (result, probe, _prof) = simulate_profiled(input, config, probe, ci_obs::NoopProfiler);
    (result, probe)
}

/// Like [`simulate_probed`], but with the engine's host wall time recorded
/// under an `"ideal_run"` span on `prof` (this engine is far cheaper than
/// the detailed pipeline, so one coarse span suffices for attributing a
/// run's time between models).
///
/// # Panics
/// Panics if the simulation fails to make forward progress (an internal
/// bug, guarded by a generous cycle cap).
pub fn simulate_profiled<P: Probe, F: ci_obs::Profiler>(
    input: &StudyInput,
    config: &IdealConfig,
    probe: P,
    mut prof: F,
) -> (IdealResult, P, F) {
    let n = input.len() as u32;
    if n == 0 {
        return (IdealResult::default(), probe, prof);
    }
    let mut wp_base = Vec::with_capacity(input.events.len());
    let mut items = u64::from(n);
    for e in &input.events {
        wp_base.push(items as u32);
        items += e.wrong_path.len() as u64;
    }
    assert!(items < u64::from(NONE), "item ids must fit in u32");
    let mut event = vec![NONE; items as usize];
    for (x, e) in input.events.iter().enumerate() {
        event[e.branch_idx as usize] = x as u32;
        let base = wp_base[x] as usize;
        event[base..base + e.wrong_path.len()].fill(x as u32);
    }
    let lat = &config.latencies;
    let longest = [lat.int_alu, lat.int_mul, lat.int_div]
        .into_iter()
        .fold(lat.addr_gen.saturating_add(config.cache_latency), u64::max);
    let wheel_len = (longest.clamp(1, MAX_WHEEL - 1) + 1).next_power_of_two() as usize;
    let mut sim = Sim {
        probe,
        input,
        cfg: config,
        occupancy: 0,
        n,
        wp_base,
        comp: vec![u64::MAX; items as usize],
        waiters: vec![NONE; items as usize],
        event,
        phase: vec![Phase::Out; items as usize],
        ev: vec![
            EvState {
                parked: NONE,
                ..EvState::default()
            };
            input.events.len()
        ],
        active: Vec::new(),
        pending: Vec::new(),
        frontier: 0,
        next_retire: 0,
        now: 0,
        retired: 0,
        wrong_fetched: 0,
        evictions: 0,
        ready: BinaryHeap::new(),
        young: VecDeque::new(),
        wheel: vec![NONE; wheel_len],
        chains: Chains::default(),
    };
    prof.enter("ideal_run");
    sim.run();
    prof.exit();
    let result = IdealResult {
        cycles: sim.now,
        retired: sim.retired,
        mispredictions: if config.model == ModelKind::Oracle {
            0
        } else {
            input.mispredictions()
        },
        wrong_path_fetched: sim.wrong_fetched,
        evictions: sim.evictions,
    };
    (result, sim.probe, prof)
}

impl<P: Probe> Sim<'_, P> {
    fn run(&mut self) {
        let n = u64::from(self.n);
        let cap = 200 * n + 1_000_000;
        while self.retired < n {
            self.now += 1;
            assert!(self.now < cap, "ideal model failed to make progress");
            self.resolve_events();
            self.retire();
            self.issue();
            self.fetch();
            self.probe.record(
                self.now,
                Event::CycleEnd {
                    occupancy: self.occupancy as u32,
                },
            );
        }
    }

    /// An item's PC: its own for correct-path items, the mispredicted
    /// branch's for wrong-path ones.
    fn pc(&self, id: u32) -> u32 {
        let i = if id < self.n {
            id
        } else {
            self.input.events[self.event[id as usize] as usize].branch_idx
        };
        self.input.trace[i as usize].pc.0
    }

    fn key_of(&self, id: u32) -> u64 {
        if id < self.n {
            ckey(id)
        } else {
            let e = self.event[id as usize] as usize;
            wkey(self.input.events[e].branch_idx, id - self.wp_base[e])
        }
    }

    fn id_of(&self, key: u64) -> u32 {
        let i = (key >> KEY_SHIFT) as u32;
        let low = key as u32 & ((1 << KEY_SHIFT) - 1);
        if low == 0 {
            i
        } else {
            self.wp_base[self.event[i as usize] as usize] + low - 1
        }
    }

    /// The wheel slot of `cycle`.
    fn slot(&self, cycle: u64) -> usize {
        (cycle & (self.wheel.len() as u64 - 1)) as usize
    }

    /// Make a parked item an issue candidate again if it is still waiting.
    fn wake(&mut self, id: u32) {
        if self.phase[id as usize] == Phase::Waiting {
            self.ready.push(Reverse(self.key_of(id)));
        }
    }

    /// Take an item out of the window. Nothing waits on a wrong-path item
    /// after it leaves (wrong paths are never refetched), so its chain is
    /// recycled.
    fn leave(&mut self, id: u32) {
        self.phase[id as usize] = Phase::Out;
        self.occupancy -= 1;
        if id >= self.n {
            let mut head = std::mem::replace(&mut self.waiters[id as usize], NONE);
            while self.chains.pop(&mut head).is_some() {}
        }
    }

    /// Process events whose mispredicted branch completed on a previous
    /// cycle: squash the wrong path, release the instructions its false
    /// dependences held back, and lift its fetch constraints.
    fn resolve_events(&mut self) {
        let mut x = 0;
        while x < self.active.len() {
            let e = self.active[x] as usize;
            if self.ev[e].resolve_at.is_none_or(|c| c >= self.now) {
                x += 1;
                continue;
            }
            self.active.swap_remove(x);
            let b = self.input.events[e].branch_idx;
            let pc = self.input.trace[b as usize].pc.0;
            for j in 0..std::mem::take(&mut self.ev[e].wp_top) {
                let id = self.wp_base[e] + j;
                if self.phase[id as usize] != Phase::Out {
                    self.leave(id);
                    self.probe.record(self.now, Event::Squash { pc });
                }
            }
            let mut head = std::mem::replace(&mut self.ev[e].parked, NONE);
            while let Some(id) = self.chains.pop(&mut head) {
                self.wake(id);
            }
        }
    }

    /// Retire in order. A wrong path keyed below the next correct
    /// instruction was squashed when its branch resolved, which is no later
    /// than the branch's retirement, so that instruction is the window's
    /// oldest item whenever it is in the window.
    fn retire(&mut self) {
        for _ in 0..self.cfg.width {
            let i = self.next_retire;
            if i == self.n
                || self.phase[i as usize] == Phase::Out
                || self.comp[i as usize] >= self.now
            {
                break;
            }
            self.leave(i);
            self.probe.record(
                self.now,
                Event::Retire {
                    pc: self.input.trace[i as usize].pc.0,
                    issues: 1,
                },
            );
            self.next_retire += 1;
            self.retired += 1;
        }
    }

    fn issue(&mut self) {
        let s = self.slot(self.now);
        let mut head = std::mem::replace(&mut self.wheel[s], NONE);
        while let Some(id) = self.chains.pop(&mut head) {
            self.wake(id);
        }
        // An entry never promotes a later life of its item: fetch takes keys
        // in increasing order within a cycle, so an item is not evicted in
        // the cycle it was fetched, and one evicted in the next cycle is
        // refetched no earlier than the cycle after, whose issue stage runs
        // before its fetch stage and finds the item `Out`.
        while let Some(&(due, id)) = self.young.front() {
            if due > self.now {
                break;
            }
            self.young.pop_front();
            if self.phase[id as usize] == Phase::Young {
                self.phase[id as usize] = Phase::Waiting;
                self.ready.push(Reverse(self.key_of(id)));
            }
        }
        let mut issued = 0;
        while issued < self.cfg.width {
            let Some(Reverse(key)) = self.ready.pop() else {
                break;
            };
            while self.ready.peek() == Some(&Reverse(key)) {
                self.ready.pop();
            }
            let id = self.id_of(key);
            if self.phase[id as usize] != Phase::Waiting {
                continue;
            }
            if let Some(p) = self.unfinished_producer(id) {
                self.park(p, id);
            } else if let Some(e) = self.false_dep(id) {
                self.chains.push(&mut self.ev[e].parked, id);
            } else {
                self.start(id);
                issued += 1;
            }
        }
    }

    /// Issue `id`: its result is bypassed from the cycle after completion,
    /// so 1-cycle ops chain back-to-back.
    fn start(&mut self, id: u32) {
        self.phase[id as usize] = Phase::Issued;
        let pc = self.pc(id);
        self.probe
            .record(self.now, Event::Issue { pc, reissue: false });
        let comp = self.now + self.exec_latency(id).max(1) - 1;
        self.comp[id as usize] = comp;
        let s = self.slot(comp + 1);
        let mut head = std::mem::replace(&mut self.waiters[id as usize], NONE);
        while let Some(w) = self.chains.pop(&mut head) {
            self.chains.push(&mut self.wheel[s], w);
        }
        // A mispredicted branch resolves at completion.
        let e = self.event[id as usize];
        if id < self.n && e != NONE && self.cfg.model != ModelKind::Oracle {
            self.ev[e as usize].resolve_at = Some(comp);
        }
    }

    /// Park `id` until producer `p` can have completed.
    fn park(&mut self, p: u32, id: u32) {
        let c = self.comp[p as usize];
        if c != u64::MAX {
            let s = self.slot(c + 1);
            self.chains.push(&mut self.wheel[s], id);
        } else if p < self.n || self.phase[p as usize] != Phase::Out {
            self.chains.push(&mut self.waiters[p as usize], id);
        }
        // Otherwise `p` is a wrong-path item that left the window without
        // executing: `id` can never issue and waits only to be squashed.
    }

    fn exec_latency(&self, id: u32) -> u64 {
        let class = if id < self.n {
            self.input.trace[id as usize].class()
        } else {
            let e = self.event[id as usize] as usize;
            self.input.events[e].wrong_path[(id - self.wp_base[e]) as usize].class
        };
        let base = self.cfg.latencies.execute(class);
        if class == InstClass::Load {
            base + self.cfg.cache_latency
        } else {
            base
        }
    }

    /// A producer of `id` whose result is not yet available, if any.
    fn unfinished_producer(&self, id: u32) -> Option<u32> {
        let unfinished = |p: &u32| self.comp[*p as usize] >= self.now;
        if id < self.n {
            let deps = &self.input.deps[id as usize];
            let producers = deps.srcs.iter().flatten().filter_map(|&(_, p)| p);
            return producers.chain(deps.mem).find(unfinished);
        }
        let e = self.event[id as usize] as usize;
        let base = self.wp_base[e];
        let w = &self.input.events[e].wrong_path[(id - base) as usize];
        let mut producers = w.deps.iter().flatten().map(|d| match *d {
            WpDep::Correct(p) => p,
            WpDep::Wrong(j) => base + j,
        });
        producers.find(unfinished)
    }

    /// FD models: the active event (if any) whose in-flight wrong path
    /// creates a false data dependence for item `i`.
    fn false_dep(&self, i: u32) -> Option<usize> {
        if i >= self.n || !self.cfg.model.false_deps() {
            return None;
        }
        self.active.iter().map(|&e| e as usize).find(|&e| {
            let ev = &self.input.events[e];
            let b = ev.branch_idx;
            let Some(r) = ev.recon_idx else { return false };
            if i < r || b >= i {
                return false; // not control independent w.r.t. this event
            }
            let deps = &self.input.deps[i as usize];
            let by_reg = deps
                .srcs
                .iter()
                .flatten()
                .any(|&(reg, prod)| ev.wrong_writes(reg) && prod.is_none_or(|p| p <= b));
            let d = &self.input.trace[i as usize];
            by_reg
                || (d.class() == InstClass::Load
                    && ev.wrong_stores_to(d.addr.expect("load has addr"))
                    && deps.mem.is_none_or(|p| p <= b))
        })
    }

    /// While event `e` is active, correct indices in `(branch, end)` cannot
    /// be fetched: the deferred control-dependent region, or everything past
    /// the branch (`u32::MAX`).
    fn block_end(&self, e: usize) -> u32 {
        let ev = &self.input.events[e];
        let model = self.cfg.model;
        match ev.recon_idx {
            Some(r)
                if model.exploits_ci()
                    && !(model.wastes_resources()
                        && (self.ev[e].wp_fetched as usize) < ev.wrong_path.len()) =>
            {
                r
            }
            _ => u32::MAX,
        }
    }

    /// The lowest correct index at or above `c` that no active event blocks
    /// (`u32::MAX` if none).
    fn unblocked_from(&self, mut c: u32) -> u32 {
        let mut x = 0;
        while x < self.active.len() {
            let e = self.active[x] as usize;
            let end = self.block_end(e);
            if self.input.events[e].branch_idx < c && c < end {
                c = end;
                x = 0;
            } else {
                x += 1;
            }
        }
        c
    }

    /// Lowest fetchable item, if any, as `(key, id)`.
    fn next_fetch_item(&self) -> Option<(u64, u32)> {
        // Deferred/evicted ranges first, then the frontier itself.
        let top = (self.frontier < self.n).then_some((self.frontier, self.frontier + 1));
        let mut best = None;
        for &(lo, hi) in self.pending.iter().chain(&top) {
            let c = self.unblocked_from(lo);
            if c < hi {
                best = Some((ckey(c), c));
                break;
            }
            if c == u32::MAX {
                break;
            }
        }
        // Wrong-path candidates (WR models): lowest partial wrong path.
        if self.cfg.model.wastes_resources() {
            for &e in &self.active {
                let ev = &self.input.events[e as usize];
                let f = self.ev[e as usize].wp_fetched;
                if (f as usize) < ev.wrong_path.len() {
                    let k = wkey(ev.branch_idx, f);
                    if best.is_none_or(|(bk, _)| k < bk) {
                        best = Some((k, self.wp_base[e as usize] + f));
                    }
                }
            }
        }
        best
    }

    fn fetch(&mut self) {
        for _ in 0..self.cfg.width {
            let Some((k, id)) = self.next_fetch_item() else {
                break;
            };
            // Window capacity: evict the youngest entry if it is younger than
            // the incoming instruction (a restart overflowing the window);
            // otherwise stall.
            if self.occupancy >= self.cfg.window {
                let (maxk, victim) = self.youngest().expect("window non-empty");
                if maxk <= k {
                    break;
                }
                self.evict(victim);
            }

            let pc = self.pc(id);
            self.probe.record(self.now, Event::Fetch { pc });
            self.occupancy += 1;
            self.phase[id as usize] = Phase::Young;
            self.young.push_back((self.now + 2, id));
            if id >= self.n {
                let ev = &mut self.ev[self.event[id as usize] as usize];
                ev.wp_fetched += 1;
                ev.wp_top = ev.wp_fetched;
                self.wrong_fetched += 1;
                continue;
            }
            if id == self.frontier {
                self.frontier += 1;
            } else {
                self.take_pending(id);
            }
            // Activate the misprediction event, defer its correct CD region,
            // and jump the frontier to the reconvergent point.
            let e = self.event[id as usize];
            if e == NONE || self.cfg.model == ModelKind::Oracle {
                continue;
            }
            self.active.push(e);
            if !self.cfg.model.exploits_ci() {
                continue;
            }
            if let Some(r) = self.input.events[e as usize].recon_idx {
                if r > self.frontier {
                    self.pending.push((self.frontier, r));
                    self.frontier = r;
                }
            }
        }
    }

    /// The youngest item in the window as `(key, id)`: the highest correct
    /// index below the frontier that is neither pending nor retired, or an
    /// active event's top wrong-path item.
    fn youngest(&self) -> Option<(u64, u32)> {
        let mut top = self.frontier;
        for &(lo, hi) in self.pending.iter().rev() {
            if hi < top {
                break;
            }
            top = lo;
        }
        let mut best = (top > self.next_retire).then(|| (ckey(top - 1), top - 1));
        for &e in &self.active {
            let t = self.ev[e as usize].wp_top;
            if t > 0 {
                let k = wkey(self.input.events[e as usize].branch_idx, t - 1);
                if best.is_none_or(|(bk, _)| k > bk) {
                    best = Some((k, self.wp_base[e as usize] + t - 1));
                }
            }
        }
        best
    }

    /// Squash the youngest item to make room: a correct-path instruction is
    /// refetched later, wrong-path work is gone for good.
    fn evict(&mut self, victim: u32) {
        let pc = self.pc(victim);
        self.probe.record(self.now, Event::Squash { pc });
        self.leave(victim);
        if victim < self.n {
            self.comp[victim as usize] = u64::MAX;
            let x = self.pending.partition_point(|&(lo, _)| lo < victim);
            self.pending.insert(x, (victim, victim + 1));
            self.evictions += 1;
        } else {
            let e = self.event[victim as usize] as usize;
            let mut top = victim - self.wp_base[e];
            while top > 0 && self.phase[(self.wp_base[e] + top - 1) as usize] == Phase::Out {
                top -= 1;
            }
            self.ev[e].wp_top = top;
        }
    }

    /// Remove fetched index `i` from its pending range.
    fn take_pending(&mut self, i: u32) {
        let x = self.pending.partition_point(|&(_, hi)| hi <= i);
        let (lo, hi) = self.pending[x];
        debug_assert!(lo <= i, "fetched index {i} was not pending");
        let rest = [(lo, i), (i + 1, hi)].into_iter().filter(|&(a, b)| a < b);
        self.pending.splice(x..=x, rest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StudyInput;
    use ci_isa::{Asm, Program, Reg};
    use ci_workloads::{random_program, Workload, WorkloadParams};

    fn run(input: &StudyInput, model: ModelKind, window: usize) -> IdealResult {
        simulate(
            input,
            &IdealConfig {
                model,
                window,
                ..IdealConfig::default()
            },
        )
    }

    fn straight_line() -> Program {
        let mut a = Asm::new();
        for _ in 0..64 {
            a.addi(Reg::R1, Reg::R1, 1);
        }
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn serial_chain_is_one_per_cycle() {
        // 64 dependent addis: issue is fully serial; IPC ≈ 1 regardless of
        // model (no branches at all).
        let p = straight_line();
        let input = StudyInput::build(&p, 1000).unwrap();
        for model in ModelKind::ALL {
            let r = run(&input, model, 256);
            assert_eq!(r.retired, 65);
            assert!(
                (60..=80).contains(&r.cycles),
                "{model}: {} cycles",
                r.cycles
            );
        }
    }

    #[test]
    fn independent_ops_reach_width() {
        // 16 independent chains: should approach the machine width.
        let mut a = Asm::new();
        for rep in 0..64 {
            for i in 1..=16u8 {
                let r = Reg::try_from(i).unwrap();
                a.addi(r, r, i64::from(rep));
            }
        }
        a.halt();
        let p = a.assemble().unwrap();
        let input = StudyInput::build(&p, 10_000).unwrap();
        let r = run(&input, ModelKind::Oracle, 512);
        assert!(r.ipc() > 8.0, "ipc {}", r.ipc());
    }

    #[test]
    fn all_instructions_retire_on_every_model_and_window() {
        for seed in [1, 2, 3] {
            let p = random_program(seed, 60);
            let input = StudyInput::build(&p, 50_000).unwrap();
            for model in ModelKind::ALL {
                for window in [16, 64, 256] {
                    let r = run(&input, model, window);
                    assert_eq!(
                        r.retired,
                        input.len() as u64,
                        "seed {seed} {model} w{window}"
                    );
                }
            }
        }
    }

    #[test]
    fn model_dominance_relations() {
        // oracle >= nWR-nFD >= nWR-FD >= base (roughly; allow tiny slack for
        // the legitimate case where out-of-order fetch beats oracle, which
        // the paper notes can happen).
        let p = Workload::GoLike.build(&WorkloadParams {
            scale: 300,
            seed: 9,
        });
        let input = StudyInput::build(&p, 50_000).unwrap();
        let ipc = |m| run(&input, m, 256).ipc();
        let oracle = ipc(ModelKind::Oracle);
        let nwr_nfd = ipc(ModelKind::NwrNfd);
        let nwr_fd = ipc(ModelKind::NwrFd);
        let wr_fd = ipc(ModelKind::WrFd);
        let base = ipc(ModelKind::Base);
        assert!(
            oracle >= nwr_nfd * 0.98,
            "oracle {oracle} nwr_nfd {nwr_nfd}"
        );
        assert!(
            nwr_nfd >= nwr_fd * 0.999,
            "nwr_nfd {nwr_nfd} nwr_fd {nwr_fd}"
        );
        assert!(nwr_fd >= base * 0.999, "nwr_fd {nwr_fd} base {base}");
        assert!(wr_fd >= base * 0.999, "wr_fd {wr_fd} base {base}");
        assert!(oracle > base, "mispredictions must cost something");
    }

    #[test]
    fn oracle_monotonic_in_window() {
        let p = Workload::JpegLike.build(&WorkloadParams { scale: 60, seed: 4 });
        let input = StudyInput::build(&p, 50_000).unwrap();
        let mut last = 0.0;
        for w in [32, 64, 128, 256] {
            let ipc = run(&input, ModelKind::Oracle, w).ipc();
            assert!(ipc >= last * 0.999, "window {w}: {ipc} < {last}");
            last = ipc;
        }
    }

    #[test]
    fn wrong_path_fetch_only_in_wr_models() {
        let p = Workload::GoLike.build(&WorkloadParams {
            scale: 200,
            seed: 5,
        });
        let input = StudyInput::build(&p, 30_000).unwrap();
        assert!(input.mispredictions() > 0);
        assert_eq!(run(&input, ModelKind::NwrNfd, 256).wrong_path_fetched, 0);
        assert_eq!(run(&input, ModelKind::Base, 256).wrong_path_fetched, 0);
        assert!(run(&input, ModelKind::WrFd, 256).wrong_path_fetched > 0);
    }

    #[test]
    fn empty_input() {
        let mut a = Asm::new();
        a.halt();
        let p = a.assemble().unwrap();
        let input = StudyInput::build(&p, 0).unwrap();
        let r = run(&input, ModelKind::WrFd, 64);
        assert_eq!(r.retired, 0);
    }
}
