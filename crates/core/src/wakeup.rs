//! Event-driven wakeup state: the data-oriented side tables that replace the
//! cycle loop's full-window walks.
//!
//! The pre-rewrite core re-derived everything every cycle by walking the
//! whole ROB: which executions finish now, which consumers a completing
//! producer invalidates, which loads a store's writeback conflicts with,
//! which control instructions are still unsettled, which entries can issue.
//! [`Wakeup`] keeps each of those facts *indexed* instead, maintained at the
//! points where they change:
//!
//! - **Struct-of-arrays columns** (`status`, `done_at`, membership flags,
//!   the registered load address) indexed by ROB *slot*, so the per-cycle
//!   filters touch packed arrays instead of chasing `Option<Entry>`
//!   payloads. The engine routes every state change through
//!   `Pipeline::set_state`, which keeps the columns and the entry in sync.
//! - A **completion wheel**: a ring of per-cycle buckets, sized from the
//!   configuration's longest issue-to-completion distance, that issue
//!   appends to and writeback drains one bucket of per cycle.
//! - **Per-physical-register chains** (pooled singly-linked nodes): a
//!   *waiter* chain of `Waiting` entries parked on a not-ready source, and a
//!   *consumer* chain of entries that issued reading the register. Both are
//!   drained only when the register is written.
//! - An **age queue** of freshly dispatched entries (issueable two cycles
//!   after fetch) and a **ready set** of issueable entries, giving the issue
//!   stage a candidate list proportional to issueable work.
//! - Window-membership sets for **stores** (memory disambiguation and the
//!   `non_dspec` completion gate), **unsettled control** instructions
//!   (misprediction detection), and per-address chains of **executed
//!   loads** (store-violation and squashed-forwarding repair) in the same
//!   node pool as the register chains.
//!
//! Everything here is *lazily invalidated*: chains and sets may hold stale
//! generational ids (squashed or re-issued entries), and every drain
//! re-applies the exact predicate the old full-window walk used, then sorts
//! the survivors by logical-order key. That ordering rule is what makes the
//! rewrite byte-identical — observable processing order is window order,
//! exactly as the walks produced it (see `tests/rob_equivalence.rs`).
//!
//! **Squash-vs-drain ordering rule:** registration is *by id, validated at
//! drain time* — never eagerly deleted at squash time. A squash may run
//! while a drain's candidate list is already snapshotted, so drains must
//! re-check `alive` per candidate (the old walks did exactly this), and
//! nothing may assume a chain node still names a live entry.

use crate::engine::EState;
use crate::rob::InstId;
use ci_isa::Addr;
use std::collections::{HashMap, VecDeque};

const NONE: u32 = u32::MAX;

/// Most completion-wheel buckets. A completion further out than the ring
/// stays in its bucket for another revolution.
const MAX_WHEEL: u64 = 1 << 12;

/// Packed execution status, mirroring [`EState`] without the payload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Status {
    /// Slot holds no live instruction.
    #[default]
    Free,
    /// Not issued, or invalidated and awaiting reissue.
    Waiting,
    /// Issued; `done_at` column holds the completion cycle.
    Executing,
    /// Executed with valid results.
    Done,
}

/// One pooled chain node: `(entry, next)` with free-list reuse.
#[derive(Clone, Copy, Debug)]
struct ChainNode {
    id: InstId,
    next: u32,
}

/// The wakeup state of one physical register.
#[derive(Clone, Copy, Debug)]
struct RegChains {
    /// Head of the chain of entries waiting for the register.
    waiters: u32,
    /// Head of the chain of entries that issued reading it.
    consumers: u32,
    /// The window entry that writes the register (registers are allocated
    /// fresh per dispatch, so the producer never changes).
    producer: Option<InstId>,
}

impl RegChains {
    const EMPTY: RegChains = RegChains {
        waiters: NONE,
        consumers: NONE,
        producer: None,
    };
}

/// The event-driven wakeup state. See the module docs for the protocol.
#[derive(Clone, Debug, Default)]
pub(crate) struct Wakeup {
    // ---- struct-of-arrays columns, indexed by ROB slot ----
    status: Vec<Status>,
    done_at: Vec<u64>,
    in_ready: Vec<bool>,
    in_watch: Vec<bool>,
    reg_addr: Vec<Option<Addr>>,
    // ---- completion events ----
    /// `wheel[t & (len - 1)]` holds the `(cycle, entry)` completions due
    /// at cycle `t`; the length is a power of two.
    wheel: Vec<Vec<(u64, InstId)>>,
    // ---- per-physical-register chains ----
    regs: Vec<RegChains>,
    nodes: Vec<ChainNode>,
    node_free: Vec<u32>,
    // ---- issue candidates ----
    young: VecDeque<(u64, InstId)>,
    pub(crate) ready: Vec<InstId>,
    // ---- window membership sets ----
    pub(crate) stores: Vec<InstId>,
    /// A store left the window since `stores` was last compacted.
    pub(crate) store_left: bool,
    pub(crate) ctrl: Vec<InstId>,
    /// Head node of each address's chain of executed loads.
    loads_by_addr: HashMap<Addr, u32>,
}

impl Wakeup {
    /// Empty wakeup state whose completion wheel covers completions up to
    /// `longest` cycles after issue without wrapping (`Wakeup::default()`
    /// has no wheel; only this constructor builds a usable state).
    pub(crate) fn new(longest: u64) -> Wakeup {
        let buckets = longest
            .saturating_add(1)
            .clamp(1, MAX_WHEEL)
            .next_power_of_two();
        Wakeup {
            wheel: vec![Vec::new(); buckets as usize],
            ..Wakeup::default()
        }
    }

    /// Grow the slot columns to cover `slot`.
    fn ensure_slot(&mut self, slot: usize) {
        if slot >= self.status.len() {
            let n = slot + 1;
            self.status.resize(n, Status::Free);
            self.done_at.resize(n, 0);
            self.in_ready.resize(n, false);
            self.in_watch.resize(n, false);
            self.reg_addr.resize(n, None);
        }
    }

    /// Grow the per-register state to cover `reg`. Registers are allocated
    /// in order, so after the first dispatched destination this grows the
    /// one vector by one entry.
    fn ensure_reg(&mut self, reg: usize) {
        if reg >= self.regs.len() {
            self.regs.resize(reg + 1, RegChains::EMPTY);
        }
    }

    /// Record `id` as the (sole, permanent) producer of physical register
    /// `reg`.
    pub(crate) fn set_producer(&mut self, reg: u32, id: InstId) {
        self.ensure_reg(reg as usize);
        self.regs[reg as usize].producer = Some(id);
    }

    /// The window entry that writes `reg`, if one was ever dispatched (the
    /// caller checks liveness — a squashed producer means the register can
    /// never become ready).
    pub(crate) fn producer_of(&self, reg: u32) -> Option<InstId> {
        self.regs.get(reg as usize).and_then(|r| r.producer)
    }

    /// Recycle both chains of a register whose producer left the window:
    /// nothing can write it anymore, so the chains would never drain.
    pub(crate) fn discard_chains(&mut self, reg: u32) {
        let Some(r) = self.regs.get_mut(reg as usize) else {
            return;
        };
        for head in [
            std::mem::replace(&mut r.waiters, NONE),
            std::mem::replace(&mut r.consumers, NONE),
        ] {
            let mut cur = head;
            while cur != NONE {
                self.node_free.push(cur);
                cur = self.nodes[cur as usize].next;
            }
        }
    }

    // ------------------------------------------------------------- columns

    /// Record a state change for `id`. The engine calls this from
    /// `Pipeline::set_state`; nothing else writes the status columns.
    pub(crate) fn note_state(&mut self, id: InstId, state: EState) {
        let slot = id.slot() as usize;
        self.ensure_slot(slot);
        match state {
            EState::Waiting => self.status[slot] = Status::Waiting,
            EState::Executing { done_at } => {
                self.status[slot] = Status::Executing;
                self.done_at[slot] = done_at;
            }
            EState::Done => self.status[slot] = Status::Done,
        }
    }

    /// Clear every column for a slot whose instruction left the window.
    pub(crate) fn note_removed(&mut self, id: InstId) {
        let slot = id.slot() as usize;
        self.ensure_slot(slot);
        self.status[slot] = Status::Free;
        self.in_ready[slot] = false;
        self.in_watch[slot] = false;
        // `reg_addr` is deregistered by the engine (it needs the map list);
        // assert the caller did so in debug builds.
        debug_assert!(self.reg_addr[slot].is_none());
    }

    /// Packed status of a slot.
    pub(crate) fn status_of(&self, id: InstId) -> Status {
        self.status
            .get(id.slot() as usize)
            .copied()
            .unwrap_or(Status::Free)
    }

    /// Scheduled completion cycle of a slot (valid while `Executing`).
    pub(crate) fn done_at_of(&self, id: InstId) -> u64 {
        self.done_at.get(id.slot() as usize).copied().unwrap_or(0)
    }

    // ----------------------------------------------------- completion wheel

    /// The wheel bucket of cycle `at`.
    fn bucket(&self, at: u64) -> usize {
        (at & (self.wheel.len() as u64 - 1)) as usize
    }

    /// Schedule the completion of `id`, issued at cycle `now`, for
    /// `done_at`. Writeback runs before issue within a cycle, so the
    /// earliest writeback that can see it is `now + 1`, also for a
    /// zero-latency operation.
    pub(crate) fn schedule_completion(&mut self, id: InstId, done_at: u64, now: u64) {
        let at = done_at.max(now + 1);
        let b = self.bucket(at);
        self.wheel[b].push((at, id));
    }

    /// Move every event due at `now` into `out`. Events are *candidates*:
    /// stale ones (entry re-issued with a different `done_at`, squashed,
    /// or already completed) must be filtered by the caller.
    pub(crate) fn take_due_completions(&mut self, now: u64, out: &mut Vec<InstId>) {
        let b = self.bucket(now);
        self.wheel[b].retain(|&(at, id)| {
            let due = at <= now;
            if due {
                out.push(id);
            }
            !due
        });
    }

    // ------------------------------------------------------------- chains

    /// Take a node from the pool for `node`, returning its index.
    fn alloc_node(nodes: &mut Vec<ChainNode>, free: &mut Vec<u32>, node: ChainNode) -> u32 {
        match free.pop() {
            Some(i) => {
                nodes[i as usize] = node;
                i
            }
            None => {
                nodes.push(node);
                (nodes.len() - 1) as u32
            }
        }
    }

    /// Return the whole chain at `head` to the pool, copying its ids into
    /// `out`.
    fn drain_chain(nodes: &[ChainNode], free: &mut Vec<u32>, head: u32, out: &mut Vec<InstId>) {
        let mut cur = head;
        while cur != NONE {
            let n = nodes[cur as usize];
            out.push(n.id);
            free.push(cur);
            cur = n.next;
        }
    }

    /// Park `id` (a `Waiting` entry) on the waiter chain of not-ready
    /// register `reg`; it is re-evaluated when the register is written.
    pub(crate) fn park_waiter(&mut self, reg: u32, id: InstId) {
        self.ensure_reg(reg as usize);
        let r = &mut self.regs[reg as usize];
        r.waiters = Self::alloc_node(
            &mut self.nodes,
            &mut self.node_free,
            ChainNode {
                id,
                next: r.waiters,
            },
        );
    }

    /// Register `id` as having issued reading `reg` (invalidated if the
    /// producer completes after it).
    pub(crate) fn add_consumer(&mut self, reg: u32, id: InstId) {
        self.ensure_reg(reg as usize);
        let r = &mut self.regs[reg as usize];
        r.consumers = Self::alloc_node(
            &mut self.nodes,
            &mut self.node_free,
            ChainNode {
                id,
                next: r.consumers,
            },
        );
    }

    /// Drain the waiter chain of a just-written register into `out`.
    pub(crate) fn drain_waiters(&mut self, reg: u32, out: &mut Vec<InstId>) {
        if let Some(r) = self.regs.get_mut(reg as usize) {
            let head = std::mem::replace(&mut r.waiters, NONE);
            Self::drain_chain(&self.nodes, &mut self.node_free, head, out);
        }
    }

    /// Drain the consumer chain of a just-written register into `out`.
    pub(crate) fn drain_consumers(&mut self, reg: u32, out: &mut Vec<InstId>) {
        if let Some(r) = self.regs.get_mut(reg as usize) {
            let head = std::mem::replace(&mut r.consumers, NONE);
            Self::drain_chain(&self.nodes, &mut self.node_free, head, out);
        }
    }

    // ------------------------------------------------------ issue candidates

    /// Queue a freshly dispatched entry; it becomes an issue candidate at
    /// `due` (fetch cycle + 2). Dispatch order keeps `due` monotone.
    pub(crate) fn push_young(&mut self, due: u64, id: InstId) {
        debug_assert!(self.young.back().is_none_or(|&(d, _)| d <= due));
        self.young.push_back((due, id));
    }

    /// Move entries whose age gate opened at or before `now` into `out`.
    pub(crate) fn take_due_young(&mut self, now: u64, out: &mut Vec<InstId>) {
        while let Some(&(due, id)) = self.young.front() {
            if due > now {
                break;
            }
            self.young.pop_front();
            out.push(id);
        }
    }

    /// Put `id` in the ready set unless already there. The `in_ready` flag
    /// is authoritative; the vector may keep stale ids until compaction.
    pub(crate) fn mark_ready(&mut self, id: InstId) {
        let slot = id.slot() as usize;
        self.ensure_slot(slot);
        if !self.in_ready[slot] {
            self.in_ready[slot] = true;
            self.ready.push(id);
        }
    }

    /// Drop `id`'s ready flag (it issued, died, or lost a source to a
    /// redispatch remap). Its vector entry is removed lazily.
    pub(crate) fn clear_ready(&mut self, id: InstId) {
        let slot = id.slot() as usize;
        if slot < self.in_ready.len() {
            self.in_ready[slot] = false;
        }
    }

    /// Whether `id` currently holds the ready flag.
    pub(crate) fn is_ready_flagged(&self, id: InstId) -> bool {
        self.in_ready
            .get(id.slot() as usize)
            .copied()
            .unwrap_or(false)
    }

    // ------------------------------------------------------ membership sets

    /// Track a dispatched store (memory disambiguation walks only this set).
    pub(crate) fn add_store(&mut self, id: InstId) {
        self.stores.push(id);
    }

    /// Put a control instruction on the unsettled watch list unless already
    /// there (`in_watch` is the membership flag; settling removes it).
    pub(crate) fn watch_ctrl(&mut self, id: InstId) {
        let slot = id.slot() as usize;
        self.ensure_slot(slot);
        if !self.in_watch[slot] {
            self.in_watch[slot] = true;
            self.ctrl.push(id);
        }
    }

    /// Drop the watch flag for a settled (or removed) control instruction.
    pub(crate) fn unwatch_ctrl(&mut self, id: InstId) {
        let slot = id.slot() as usize;
        if slot < self.in_watch.len() {
            self.in_watch[slot] = false;
        }
    }

    /// Whether `id` currently holds the watch flag.
    pub(crate) fn is_watched(&self, id: InstId) -> bool {
        self.in_watch
            .get(id.slot() as usize)
            .copied()
            .unwrap_or(false)
    }

    /// (Re-)register an executed load under its effective address, moving it
    /// out of the chain of a previously registered address if necessary.
    pub(crate) fn register_load(&mut self, id: InstId, addr: Addr) {
        let slot = id.slot() as usize;
        self.ensure_slot(slot);
        match self.reg_addr[slot] {
            Some(a) if a == addr => return,
            Some(old) => self.unlink_load(old, id),
            None => {}
        }
        self.reg_addr[slot] = Some(addr);
        let head = self.loads_by_addr.entry(addr).or_insert(NONE);
        *head = Self::alloc_node(
            &mut self.nodes,
            &mut self.node_free,
            ChainNode { id, next: *head },
        );
    }

    /// Remove `id` from the address chains (called when it leaves the
    /// window).
    pub(crate) fn deregister_load(&mut self, id: InstId) {
        let slot = id.slot() as usize;
        if slot >= self.reg_addr.len() {
            return;
        }
        if let Some(addr) = self.reg_addr[slot].take() {
            self.unlink_load(addr, id);
        }
    }

    /// Unlink `id`'s node from the chain of `addr` (a load is registered
    /// once per address), dropping the address once its chain is empty.
    fn unlink_load(&mut self, addr: Addr, id: InstId) {
        let Some(head) = self.loads_by_addr.get_mut(&addr) else {
            return;
        };
        let (mut prev, mut cur) = (NONE, *head);
        while cur != NONE {
            let n = self.nodes[cur as usize];
            if n.id == id {
                if prev == NONE {
                    *head = n.next;
                } else {
                    self.nodes[prev as usize].next = n.next;
                }
                self.node_free.push(cur);
                break;
            }
            (prev, cur) = (cur, n.next);
        }
        if *head == NONE {
            self.loads_by_addr.remove(&addr);
        }
    }

    /// Copy the executed loads registered at `addr` into `out`, in no
    /// particular order (candidates for store-violation /
    /// squashed-forwarding repair; the caller filters and sorts).
    pub(crate) fn loads_at(&self, addr: Addr, out: &mut Vec<InstId>) {
        let mut cur = self.loads_by_addr.get(&addr).copied().unwrap_or(NONE);
        while cur != NONE {
            let n = self.nodes[cur as usize];
            out.push(n.id);
            cur = n.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheModel, PipelineConfig};
    use crate::rob::Rob;
    use ci_isa::LatencyModel;

    fn ids(n: usize) -> (Rob<u32>, Vec<InstId>) {
        let mut rob = Rob::new(1);
        let ids = (0..n).map(|i| rob.push_back(i as u32)).collect();
        (rob, ids)
    }

    /// Drain the wheel cycle by cycle from `from` through `to`, returning
    /// `(cycle, id)` for every event it hands out.
    fn drain(w: &mut Wakeup, from: u64, to: u64) -> Vec<(u64, InstId)> {
        let mut seen = Vec::new();
        let mut due = Vec::new();
        for now in from..=to {
            w.take_due_completions(now, &mut due);
            seen.extend(due.drain(..).map(|id| (now, id)));
        }
        seen
    }

    /// The ring covers the configuration's longest completion: a divide
    /// of a custom latency model plus a realistic cache's long miss plus
    /// the forwarding cycle.
    #[test]
    fn wheel_is_sized_from_the_configuration() {
        let cfg = PipelineConfig {
            cache: CacheModel::Realistic {
                words: 1024,
                ways: 2,
                line_words: 4,
                hit: 3,
                miss: 90,
            },
            latencies: LatencyModel {
                int_alu: 1,
                int_mul: 5,
                int_div: 40,
                addr_gen: 2,
            },
            ..PipelineConfig::ci(64)
        };
        assert_eq!(cfg.longest_completion(), 40 + 90 + 1);
        let mut w = Wakeup::new(cfg.longest_completion());
        assert_eq!(w.wheel.len(), 256, "the next power of two above 131");
        let (_rob, ids) = ids(2);
        // Issued at 1000 with the longest distance: lands exactly then.
        w.schedule_completion(ids[0], 1000 + 131, 1000);
        w.schedule_completion(ids[1], 1002, 1000);
        assert_eq!(
            drain(&mut w, 1001, 1200),
            vec![(1002, ids[1]), (1131, ids[0])]
        );
        // An absurd latency clamps the ring and the event waits in its
        // bucket for as many revolutions as it needs.
        let mut huge = Wakeup::new(u64::MAX);
        assert_eq!(huge.wheel.len() as u64, MAX_WHEEL);
        huge.schedule_completion(ids[0], 3 * MAX_WHEEL + 7, 0);
        assert_eq!(
            drain(&mut huge, 1, 4 * MAX_WHEEL),
            vec![(3 * MAX_WHEEL + 7, ids[0])]
        );
    }

    /// Buckets are reused round after round: events scheduled across many
    /// revolutions of a small ring each come out at their own cycle, in
    /// scheduling order within a cycle.
    #[test]
    fn wheel_wraps_around() {
        let (_rob, ids) = ids(3);
        let mut w = Wakeup::new(3);
        assert_eq!(w.wheel.len(), 4);
        let mut seen = Vec::new();
        for round in 0..10u64 {
            let now = 4 * round;
            w.schedule_completion(ids[0], now + 3, now);
            w.schedule_completion(ids[1], now + 1, now);
            w.schedule_completion(ids[2], now + 3, now);
            seen.extend(drain(&mut w, now + 1, now + 4));
        }
        assert_eq!(seen.len(), 30);
        for (k, chunk) in seen.chunks(3).enumerate() {
            let now = 4 * k as u64;
            assert_eq!(
                chunk,
                [(now + 1, ids[1]), (now + 3, ids[0]), (now + 3, ids[2])]
            );
        }
        assert!(w.wheel.iter().all(Vec::is_empty));
    }

    /// A zero-latency operation issued at `now` completes at `now + 1`:
    /// writeback of cycle `now` has already run.
    #[test]
    fn zero_latency_completes_next_cycle() {
        let (_rob, ids) = ids(1);
        let mut w = Wakeup::new(0);
        assert_eq!(w.wheel.len(), 1);
        w.schedule_completion(ids[0], 5, 5);
        assert_eq!(drain(&mut w, 5, 5), vec![]);
        assert_eq!(drain(&mut w, 6, 6), vec![(6, ids[0])]);
    }

    /// A reissue schedules a second event; the first still comes out at
    /// its old cycle, and the caller's filter (status `Executing` with a
    /// `done_at` not after now) is what drops it.
    #[test]
    fn stale_events_from_a_reissue_surface_for_the_filter() {
        let (_rob, ids) = ids(1);
        let id = ids[0];
        let mut w = Wakeup::new(16);
        w.note_state(id, EState::Executing { done_at: 12 });
        w.schedule_completion(id, 12, 0);
        // Invalidated and reissued at cycle 3 with a later completion.
        w.note_state(id, EState::Waiting);
        w.note_state(id, EState::Executing { done_at: 15 });
        w.schedule_completion(id, 15, 3);
        let fresh =
            |w: &Wakeup, now: u64| w.status_of(id) == Status::Executing && w.done_at_of(id) <= now;
        let mut due = Vec::new();
        w.take_due_completions(12, &mut due);
        assert_eq!(due, vec![id]);
        assert!(!fresh(&w, 12), "the stale event fails the filter");
        due.clear();
        w.take_due_completions(15, &mut due);
        assert_eq!(due, vec![id]);
        assert!(fresh(&w, 15));
    }

    #[test]
    fn chains_drain_and_reuse_nodes() {
        let (_rob, ids) = ids(4);
        let mut w = Wakeup::new(16);
        w.park_waiter(7, ids[0]);
        w.park_waiter(7, ids[1]);
        w.park_waiter(3, ids[2]);
        let mut out = Vec::new();
        w.drain_waiters(7, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.contains(&ids[0]) && out.contains(&ids[1]));
        out.clear();
        w.drain_waiters(7, &mut out);
        assert!(out.is_empty(), "drained chain is empty");
        // Freed nodes are reused for the next registration.
        let pool = w.nodes.len();
        w.add_consumer(5, ids[3]);
        assert_eq!(w.nodes.len(), pool, "free list reused a node");
        out.clear();
        w.drain_consumers(5, &mut out);
        assert_eq!(out, vec![ids[3]]);
    }

    #[test]
    fn ready_flag_deduplicates() {
        let (_rob, ids) = ids(1);
        let mut w = Wakeup::new(16);
        w.mark_ready(ids[0]);
        w.mark_ready(ids[0]);
        assert_eq!(w.ready.len(), 1);
        assert!(w.is_ready_flagged(ids[0]));
        w.clear_ready(ids[0]);
        assert!(!w.is_ready_flagged(ids[0]));
        // The vector entry stays (lazy); the flag is the truth.
        assert_eq!(w.ready.len(), 1);
    }

    /// The executed loads at `addr`, sorted (chains keep no order).
    fn loads(w: &Wakeup, addr: u64) -> Vec<InstId> {
        let mut out = Vec::new();
        w.loads_at(Addr(addr), &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn load_registration_moves_between_addresses() {
        let (_rob, ids) = ids(4);
        let mut w = Wakeup::new(16);
        for &id in &ids {
            w.register_load(id, Addr(8));
        }
        // Move the head, a middle node and the tail of the chain in turn.
        w.register_load(ids[3], Addr(16));
        w.register_load(ids[1], Addr(16));
        w.register_load(ids[0], Addr(24));
        assert_eq!(loads(&w, 8), vec![ids[2]]);
        assert_eq!(loads(&w, 16), vec![ids[1], ids[3]]);
        assert_eq!(loads(&w, 24), vec![ids[0]]);
        // Re-registering at the same address is a no-op.
        w.register_load(ids[1], Addr(16));
        assert_eq!(loads(&w, 16), vec![ids[1], ids[3]]);
        w.deregister_load(ids[3]);
        assert_eq!(loads(&w, 16), vec![ids[1]]);
        // Deregistering twice, or a load never registered, is harmless.
        w.deregister_load(ids[3]);
        w.deregister_load(ids[2]);
        w.deregister_load(ids[2]);
        assert!(loads(&w, 8).is_empty());
        assert!(!w.loads_by_addr.contains_key(&Addr(8)), "empty chains go");
        // Freed nodes are reused for later registrations.
        let pool = w.nodes.len();
        w.register_load(ids[2], Addr(32));
        w.register_load(ids[3], Addr(32));
        assert_eq!(w.nodes.len(), pool, "free list reused the nodes");
        assert_eq!(loads(&w, 32), vec![ids[2], ids[3]]);
        assert_eq!(loads(&w, 24), vec![ids[0]]);
    }

    /// Random registrations, moves and removals against a map of vectors
    /// (the structure the chains replaced).
    #[test]
    fn load_chains_match_a_map_of_vectors() {
        let (_rob, ids) = ids(24);
        let mut w = Wakeup::new(16);
        let mut model: HashMap<u64, Vec<InstId>> = HashMap::new();
        let mut at: Vec<Option<u64>> = vec![None; ids.len()];
        let mut rng = 0x10AD_u64;
        for _ in 0..4000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = (rng >> 33) as usize % ids.len();
            let addr = (rng >> 20) % 5;
            let id = ids[k];
            if (rng >> 40).is_multiple_of(4) {
                w.deregister_load(id);
                if let Some(a) = at[k].take() {
                    model.get_mut(&a).unwrap().retain(|&x| x != id);
                }
            } else {
                w.register_load(id, Addr(addr));
                if at[k] != Some(addr) {
                    if let Some(a) = at[k] {
                        model.get_mut(&a).unwrap().retain(|&x| x != id);
                    }
                    model.entry(addr).or_default().push(id);
                    at[k] = Some(addr);
                }
            }
            for a in 0..5 {
                let mut want = model.get(&a).cloned().unwrap_or_default();
                want.sort_unstable();
                assert_eq!(loads(&w, a), want, "address {a}");
            }
        }
    }

    // ---- rare interleavings the differential fuzzer exercised (PR 2) ----

    /// A waiter chain must survive a squash of some of its members: nodes
    /// are never eagerly deleted, the drain returns stale ids, and the
    /// caller's alive check (here: the cleared status column) rejects them.
    #[test]
    fn waiter_chain_across_a_squash() {
        let (mut rob, ids) = ids(3);
        let mut w = Wakeup::new(16);
        for &id in &ids {
            w.note_state(id, EState::Waiting);
            w.park_waiter(2, id);
        }
        // Selective squash removes the middle waiter while the chain is
        // registered; the chain itself is untouched (squash-vs-drain rule).
        rob.remove(ids[1]);
        w.note_removed(ids[1]);
        let mut out = Vec::new();
        w.drain_waiters(2, &mut out);
        assert_eq!(out.len(), 3, "stale ids stay registered until drain");
        let survivors: Vec<InstId> = out
            .into_iter()
            .filter(|&id| w.status_of(id) != Status::Free)
            .collect();
        assert!(survivors.contains(&ids[0]) && survivors.contains(&ids[2]));
        assert_eq!(
            survivors.len(),
            2,
            "drain-time validation drops the dead waiter"
        );
    }

    /// A producer's completion may drain a consumer chain in the same cycle
    /// a squash is removing those consumers: the drain yields the squashed
    /// id, and the status column (cleared by `note_removed`) filters it.
    #[test]
    fn producer_completes_while_consumers_squashed() {
        let (mut rob, ids) = ids(3);
        let mut w = Wakeup::new(16);
        w.set_producer(9, ids[0]);
        w.note_state(ids[1], EState::Executing { done_at: 5 });
        w.note_state(ids[2], EState::Executing { done_at: 5 });
        w.add_consumer(9, ids[1]);
        w.add_consumer(9, ids[2]);
        // The squash lands first; the producer's writeback drains after.
        rob.remove(ids[2]);
        w.note_removed(ids[2]);
        let mut out = Vec::new();
        w.drain_consumers(9, &mut out);
        assert_eq!(out.len(), 2);
        let live: Vec<InstId> = out
            .into_iter()
            .filter(|&id| w.status_of(id) != Status::Free)
            .collect();
        assert_eq!(live, vec![ids[1]]);
        // When the *producer* is squashed instead, its register can never be
        // written again: `discard_chains` recycles every node without a drain.
        w.add_consumer(9, ids[1]);
        w.discard_chains(9);
        let mut empty = Vec::new();
        w.drain_consumers(9, &mut empty);
        assert!(empty.is_empty(), "discarded chain never drains");
        // The recycled nodes must not alias another register's live chain.
        w.park_waiter(4, ids[0]);
        w.park_waiter(6, ids[1]);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        w.drain_waiters(4, &mut a);
        w.drain_waiters(6, &mut b);
        assert_eq!((a, b), (vec![ids[0]], vec![ids[1]]));
    }

    /// Redispatch may re-park an entry whose earlier registration was
    /// already drained — and may even double-register it. Each registration
    /// drains once; duplicates are the caller's (sort + dedup) problem, and
    /// the drained chain holds nothing.
    #[test]
    fn redispatch_reenqueues_a_drained_waiter() {
        let (_rob, ids) = ids(1);
        let mut w = Wakeup::new(16);
        w.note_state(ids[0], EState::Waiting);
        w.park_waiter(3, ids[0]);
        let mut out = Vec::new();
        w.drain_waiters(3, &mut out);
        assert_eq!(out, vec![ids[0]]);
        // Redispatch finds the source still not ready and re-parks — twice
        // (e.g. once from the remap, once from a later invalidation).
        w.park_waiter(3, ids[0]);
        w.park_waiter(3, ids[0]);
        out.clear();
        w.drain_waiters(3, &mut out);
        assert_eq!(
            out,
            vec![ids[0], ids[0]],
            "duplicates surface for caller dedup"
        );
        out.clear();
        w.drain_waiters(3, &mut out);
        assert!(out.is_empty());
    }

    /// The SoA status/done_at columns mirror every `EState` transition and
    /// are fully cleared on removal, so slot reuse starts clean.
    #[test]
    fn soa_columns_track_entry_state() {
        let (mut rob, ids) = ids(1);
        let id = ids[0];
        let mut w = Wakeup::new(16);
        w.note_state(id, EState::Waiting);
        assert_eq!(w.status_of(id), Status::Waiting);
        w.note_state(id, EState::Executing { done_at: 17 });
        assert_eq!(w.status_of(id), Status::Executing);
        assert_eq!(w.done_at_of(id), 17);
        w.note_state(id, EState::Done);
        assert_eq!(w.status_of(id), Status::Done);
        w.mark_ready(id);
        w.watch_ctrl(id);
        rob.remove(id);
        w.note_removed(id);
        assert_eq!(w.status_of(id), Status::Free);
        assert!(!w.is_ready_flagged(id));
        assert!(!w.is_watched(id));
        // The freed slot's next tenant sees pristine columns.
        let reused = rob.push_back(41);
        assert_eq!(reused.slot(), id.slot(), "arena reuses the freed slot");
        assert_eq!(w.status_of(reused), Status::Free);
        assert!(!w.is_ready_flagged(reused));
    }

    #[test]
    fn young_queue_respects_age_gate() {
        let (_rob, ids) = ids(2);
        let mut w = Wakeup::new(16);
        w.push_young(5, ids[0]);
        w.push_young(6, ids[1]);
        let mut out = Vec::new();
        w.take_due_young(4, &mut out);
        assert!(out.is_empty());
        w.take_due_young(5, &mut out);
        assert_eq!(out, vec![ids[0]]);
        w.take_due_young(6, &mut out);
        assert_eq!(out.len(), 2);
    }
}
