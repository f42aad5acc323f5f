//! The reorder buffer: a slab-backed doubly linked list supporting arbitrary
//! insertion and removal, gap-based logical order keys, and segmented
//! capacity accounting.
//!
//! Section 3.2.2 of the paper proposes implementing the ROB as a linked list
//! so restart sequences can remove incorrect control-dependent instructions
//! and insert correct ones in the middle of the window; Appendix A.4 proposes
//! multi-instruction *segments* to bound the number of concurrent linked-list
//! operations, at the cost of internal fragmentation. Both are modelled here:
//!
//! - every node carries a 64-bit order key assigned by gap numbering, so
//!   logical-order comparisons (needed by the memory-ordering logic, A.4.3)
//!   are O(1); a middle insertion steps a bounded stride into its gap, and
//!   keys are renumbered transparently only when a gap is exhausted;
//! - nodes belong to segments of a configurable size; capacity is charged per
//!   *segment*, so a half-used segment wastes window space exactly as the
//!   paper describes. Tail dispatch shares the open tail segment; each
//!   restart's insertions open fresh segments via a [`SegCursor`].
//!
//! Node handles ([`InstId`]) are generational, so stale handles held across a
//! squash can be detected instead of silently aliasing new instructions.

const KEY_GAP: u64 = 1 << 20;
/// Largest key step of a middle insertion. A restart fill inserts after
/// its own last insertion over and over; halving the remaining gap each
/// time would exhaust a `KEY_GAP` after about twenty insertions, so
/// insertions step by at most this much and a gap takes a few hundred.
const MAX_STRIDE: u64 = KEY_GAP >> 8;

/// Handle to a ROB node. Generational: a handle to a removed node never
/// aliases a later node that reuses the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstId {
    idx: u32,
    generation: u32,
}

impl InstId {
    /// The arena slot this handle points at. Stable for the node's lifetime,
    /// reused (under a new generation) after removal — side tables indexed
    /// by slot must validate the full id before trusting their contents.
    #[must_use]
    pub fn slot(self) -> u32 {
        self.idx
    }
}

#[derive(Clone, Debug)]
struct Node<T> {
    prev: Option<u32>,
    next: Option<u32>,
    key: u64,
    seg: u32,
    generation: u32,
    data: Option<T>,
}

/// Cursor for a run of restart insertions: the first insertion opens a fresh
/// segment, later ones fill it before opening another.
#[derive(Clone, Copy, Debug, Default)]
pub struct SegCursor {
    seg: Option<u32>,
    fill: usize,
}

/// The reorder buffer. `T` is the per-instruction payload.
#[derive(Clone, Debug)]
pub struct Rob<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    head: Option<u32>,
    tail: Option<u32>,
    len: usize,
    seg_size: usize,
    /// Live-member count per segment id (flat — segment ids are dense).
    seg_live: Vec<u32>,
    /// Number of segments with at least one live member, so
    /// [`Rob::capacity_used`] is a multiply instead of a hash-map walk.
    live_segs: usize,
    next_seg: u32,
    tail_cursor: SegCursor,
}

impl<T> Rob<T> {
    /// Create an empty ROB with the given segment size (1 = instruction
    /// granularity).
    ///
    /// # Panics
    /// Panics if `seg_size` is zero.
    #[must_use]
    pub fn new(seg_size: usize) -> Rob<T> {
        assert!(seg_size > 0, "segment size must be positive");
        Rob {
            nodes: Vec::new(),
            free: Vec::new(),
            head: None,
            tail: None,
            len: 0,
            seg_size,
            seg_live: Vec::new(),
            live_segs: 0,
            next_seg: 0,
            tail_cursor: SegCursor::default(),
        }
    }

    /// Number of live instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ROB is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Window capacity consumed: live segments × segment size. With
    /// single-instruction segments this equals [`Rob::len`]; with larger
    /// segments, fragmentation makes it larger.
    #[must_use]
    pub fn capacity_used(&self) -> usize {
        self.live_segs * self.seg_size
    }

    /// Number of arena slots ever allocated (live or free). Side tables
    /// indexed by [`InstId::slot`] size themselves against this.
    #[must_use]
    pub fn slot_capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Oldest instruction.
    #[must_use]
    pub fn head(&self) -> Option<InstId> {
        self.head.map(|i| self.id_of(i))
    }

    /// Youngest instruction.
    #[must_use]
    pub fn tail(&self) -> Option<InstId> {
        self.tail.map(|i| self.id_of(i))
    }

    fn id_of(&self, idx: u32) -> InstId {
        InstId {
            idx,
            generation: self.nodes[idx as usize].generation,
        }
    }

    /// Whether `id` still names a live instruction.
    #[must_use]
    pub fn alive(&self, id: InstId) -> bool {
        self.try_get(id).is_some()
    }

    /// The instruction after `id` in logical order.
    #[must_use]
    pub fn next(&self, id: InstId) -> Option<InstId> {
        debug_assert!(self.alive(id));
        self.nodes[id.idx as usize].next.map(|i| self.id_of(i))
    }

    /// The instruction before `id` in logical order.
    #[must_use]
    pub fn prev(&self, id: InstId) -> Option<InstId> {
        debug_assert!(self.alive(id));
        self.nodes[id.idx as usize].prev.map(|i| self.id_of(i))
    }

    /// The logical order key of `id`. Keys are totally ordered along the
    /// list but may be renumbered by insertions: compare, never store.
    #[must_use]
    pub fn key(&self, id: InstId) -> u64 {
        debug_assert!(self.alive(id));
        self.nodes[id.idx as usize].key
    }

    /// Whether `a` is logically older than `b`.
    #[must_use]
    pub fn is_before(&self, a: InstId, b: InstId) -> bool {
        self.key(a) < self.key(b)
    }

    /// Payload of `id`, or `None` if `id` is stale.
    #[must_use]
    pub fn try_get(&self, id: InstId) -> Option<&T> {
        match self.nodes.get(id.idx as usize) {
            Some(Node {
                generation,
                data: Some(data),
                ..
            }) if *generation == id.generation => Some(data),
            _ => None,
        }
    }

    /// Payload of `id`.
    ///
    /// # Panics
    /// Panics if `id` is stale.
    #[must_use]
    pub fn get(&self, id: InstId) -> &T {
        self.try_get(id).expect("stale InstId")
    }

    /// Mutable payload of `id`.
    ///
    /// # Panics
    /// Panics if `id` is stale.
    pub fn get_mut(&mut self, id: InstId) -> &mut T {
        match self.nodes.get_mut(id.idx as usize) {
            Some(Node {
                generation,
                data: Some(data),
                ..
            }) if *generation == id.generation => data,
            _ => panic!("stale InstId"),
        }
    }

    fn alloc_node(&mut self, data: T, key: u64, seg: u32) -> u32 {
        if seg as usize >= self.seg_live.len() {
            self.seg_live.resize(seg as usize + 1, 0);
        }
        if self.seg_live[seg as usize] == 0 {
            self.live_segs += 1;
        }
        self.seg_live[seg as usize] += 1;
        self.len += 1;
        if let Some(idx) = self.free.pop() {
            let n = &mut self.nodes[idx as usize];
            n.prev = None;
            n.next = None;
            n.key = key;
            n.seg = seg;
            n.data = Some(data);
            idx
        } else {
            self.nodes.push(Node {
                prev: None,
                next: None,
                key,
                seg,
                generation: 0,
                data: Some(data),
            });
            (self.nodes.len() - 1) as u32
        }
    }

    fn take_seg(cursor: &mut SegCursor, seg_size: usize, next_seg: &mut u32) -> u32 {
        match cursor.seg {
            Some(s) if cursor.fill < seg_size => {
                cursor.fill += 1;
                s
            }
            _ => {
                let s = *next_seg;
                *next_seg += 1;
                cursor.seg = Some(s);
                cursor.fill = 1;
                s
            }
        }
    }

    /// Append at the tail (normal dispatch), filling the open tail segment.
    pub fn push_back(&mut self, data: T) -> InstId {
        let seg = Self::take_seg(&mut self.tail_cursor, self.seg_size, &mut self.next_seg);
        let key = match self.tail {
            Some(t) => self.nodes[t as usize].key + KEY_GAP,
            None => KEY_GAP,
        };
        let idx = self.alloc_node(data, key, seg);
        match self.tail {
            Some(t) => {
                self.nodes[t as usize].next = Some(idx);
                self.nodes[idx as usize].prev = Some(t);
            }
            None => self.head = Some(idx),
        }
        self.tail = Some(idx);
        self.id_of(idx)
    }

    /// Insert after `after` (a restart sequence filling a gap), drawing
    /// segment space from `cursor`.
    ///
    /// # Panics
    /// Panics if `after` is stale.
    pub fn insert_after(&mut self, after: InstId, data: T, cursor: &mut SegCursor) -> InstId {
        assert!(self.alive(after), "stale InstId");
        let a = after.idx;
        let b = self.nodes[a as usize].next;
        let key = match b {
            Some(b) => {
                if self.nodes[b as usize].key - self.nodes[a as usize].key < 2 {
                    self.renumber();
                }
                let ka = self.nodes[a as usize].key;
                let kb = self.nodes[b as usize].key;
                debug_assert!(kb - ka >= 2, "renumber must open a gap");
                ka + ((kb - ka) / 2).min(MAX_STRIDE)
            }
            None => self.nodes[a as usize].key + KEY_GAP,
        };
        let seg = Self::take_seg(cursor, self.seg_size, &mut self.next_seg);
        let idx = self.alloc_node(data, key, seg);
        self.nodes[idx as usize].prev = Some(a);
        self.nodes[idx as usize].next = b;
        self.nodes[a as usize].next = Some(idx);
        match b {
            Some(b) => self.nodes[b as usize].prev = Some(idx),
            None => self.tail = Some(idx),
        }
        self.id_of(idx)
    }

    /// Remove `id`, dropping its payload in place.
    ///
    /// # Panics
    /// Panics if `id` is stale.
    pub fn remove(&mut self, id: InstId) {
        assert!(self.alive(id), "stale InstId");
        let idx = id.idx;
        let (prev, next, seg) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next, n.seg)
        };
        match prev {
            Some(p) => self.nodes[p as usize].next = next,
            None => self.head = next,
        }
        match next {
            Some(nx) => self.nodes[nx as usize].prev = prev,
            None => self.tail = prev,
        }
        let live = &mut self.seg_live[seg as usize];
        *live -= 1;
        if *live == 0 {
            self.live_segs -= 1;
        }
        // Removing the tail-segment's tracking is not needed: if the open
        // tail segment empties, new appends still fill it (fill count is in
        // the cursor), which simply revives its capacity charge.
        self.len -= 1;
        let n = &mut self.nodes[idx as usize];
        n.generation = n.generation.wrapping_add(1);
        n.data = None;
        self.free.push(idx);
    }

    fn renumber(&mut self) {
        let mut k = KEY_GAP;
        let mut cur = self.head;
        while let Some(i) = cur {
            self.nodes[i as usize].key = k;
            k += KEY_GAP;
            cur = self.nodes[i as usize].next;
        }
    }

    /// Iterate over live instruction ids in logical order.
    pub fn iter(&self) -> RobIter<'_, T> {
        RobIter {
            rob: self,
            cur: self.head,
        }
    }
}

/// Forward iterator over ROB ids.
#[derive(Debug)]
pub struct RobIter<'a, T> {
    rob: &'a Rob<T>,
    cur: Option<u32>,
}

impl<T> Iterator for RobIter<'_, T> {
    type Item = InstId;

    fn next(&mut self) -> Option<InstId> {
        let i = self.cur?;
        self.cur = self.rob.nodes[i as usize].next;
        Some(self.rob.id_of(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(rob: &Rob<u32>) -> Vec<u32> {
        rob.iter().map(|id| *rob.get(id)).collect()
    }

    #[test]
    fn append_and_order() {
        let mut rob = Rob::new(1);
        let a = rob.push_back(1);
        let b = rob.push_back(2);
        let c = rob.push_back(3);
        assert_eq!(collect(&rob), vec![1, 2, 3]);
        assert!(rob.is_before(a, b));
        assert!(rob.is_before(b, c));
        assert_eq!(rob.head(), Some(a));
        assert_eq!(rob.tail(), Some(c));
        assert_eq!(rob.next(a), Some(b));
        assert_eq!(rob.prev(c), Some(b));
        assert_eq!(rob.len(), 3);
        assert_eq!(rob.capacity_used(), 3);
    }

    #[test]
    fn insert_in_middle() {
        let mut rob = Rob::new(1);
        let a = rob.push_back(1);
        let _c = rob.push_back(3);
        let mut cur = SegCursor::default();
        let b = rob.insert_after(a, 2, &mut cur);
        assert_eq!(collect(&rob), vec![1, 2, 3]);
        assert!(rob.is_before(a, b));
        let b2 = rob.insert_after(b, 25, &mut cur);
        assert_eq!(collect(&rob), vec![1, 2, 25, 3]);
        assert!(rob.is_before(b, b2));
    }

    #[test]
    fn many_middle_insertions_trigger_renumber() {
        let mut rob = Rob::new(1);
        let a = rob.push_back(0);
        let _z = rob.push_back(100);
        let mut prev = a;
        let mut cur = SegCursor::default();
        for i in 1..60 {
            prev = rob.insert_after(prev, i, &mut cur);
        }
        let vals = collect(&rob);
        assert_eq!(vals.len(), 61);
        assert!(vals.windows(2).all(|w| w[0] < w[1] || w[1] == 100));
        // Keys stay strictly ordered.
        let keys: Vec<u64> = rob.iter().map(|id| rob.key(id)).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    /// A restart fill after a tail-appended entry inserts 200 instructions
    /// into one `KEY_GAP`: bounded strides fit them all without
    /// renumbering, so no pre-existing key moves.
    #[test]
    fn a_long_fill_renumbers_nothing() {
        let mut rob = Rob::new(1);
        let old: Vec<InstId> = (0..4).map(|i| rob.push_back(i)).collect();
        let keys: Vec<u64> = old.iter().map(|&id| rob.key(id)).collect();
        let mut cur = SegCursor::default();
        let mut at = old[2];
        for v in 100..300 {
            at = rob.insert_after(at, v, &mut cur);
        }
        assert_eq!(
            old.iter().map(|&id| rob.key(id)).collect::<Vec<u64>>(),
            keys,
            "a renumber moved the keys of the entries already in the window"
        );
        check_links(&rob);
        assert_eq!(rob.len(), 204);
    }

    #[test]
    fn remove_and_generation_safety() {
        let mut rob = Rob::new(1);
        let a = rob.push_back(1);
        let b = rob.push_back(2);
        let c = rob.push_back(3);
        assert_eq!(*rob.get(b), 2);
        rob.remove(b);
        assert!(!rob.alive(b));
        assert_eq!(collect(&rob), vec![1, 3]);
        assert_eq!(rob.next(a), Some(c));
        assert_eq!(rob.prev(c), Some(a));
        // The slot is reused but the stale handle stays dead.
        let d = rob.push_back(4);
        assert!(!rob.alive(b));
        assert!(rob.alive(d));
    }

    #[test]
    fn remove_head_and_tail() {
        let mut rob = Rob::new(1);
        let a = rob.push_back(1);
        let b = rob.push_back(2);
        rob.remove(a);
        assert_eq!(rob.head(), Some(b));
        rob.remove(b);
        assert!(rob.is_empty());
        assert_eq!(rob.head(), None);
        assert_eq!(rob.tail(), None);
        assert_eq!(rob.capacity_used(), 0);
    }

    #[test]
    fn segmented_capacity_fragments() {
        let mut rob = Rob::new(4);
        for i in 0..4 {
            rob.push_back(i);
        }
        assert_eq!(rob.capacity_used(), 4); // one full segment
        let ids: Vec<InstId> = rob.iter().collect();
        // A restart insertion opens a fresh segment even for one instruction.
        let mut cur = SegCursor::default();
        rob.insert_after(ids[1], 99, &mut cur);
        assert_eq!(rob.len(), 5);
        assert_eq!(rob.capacity_used(), 8, "insertion fragments a new segment");
        // Further insertions from the same cursor share that segment.
        rob.insert_after(ids[1], 98, &mut cur);
        assert_eq!(rob.capacity_used(), 8);
    }

    #[test]
    fn segment_freed_when_all_members_removed() {
        let mut rob = Rob::new(2);
        let a = rob.push_back(1);
        let b = rob.push_back(2);
        assert_eq!(rob.capacity_used(), 2);
        rob.remove(a);
        assert_eq!(rob.capacity_used(), 2, "half-empty segment still charged");
        rob.remove(b);
        assert_eq!(rob.capacity_used(), 0);
    }

    /// Check every structural invariant of the arena list: forward and
    /// backward links agree, keys strictly increase, head/tail match the
    /// walk, and the live count is right.
    fn check_links(rob: &Rob<u32>) {
        let forward: Vec<InstId> = rob.iter().collect();
        assert_eq!(forward.len(), rob.len());
        assert_eq!(forward.first().copied(), rob.head());
        assert_eq!(forward.last().copied(), rob.tail());
        for w in forward.windows(2) {
            assert_eq!(rob.next(w[0]), Some(w[1]));
            assert_eq!(rob.prev(w[1]), Some(w[0]));
            assert!(rob.key(w[0]) < rob.key(w[1]), "keys must strictly increase");
        }
        if let Some(h) = rob.head() {
            assert_eq!(rob.prev(h), None);
        }
        if let Some(t) = rob.tail() {
            assert_eq!(rob.next(t), None);
        }
    }

    /// The selective-squash / restart shape: a contiguous middle run is
    /// removed, a restart sequence refills the gap via `insert_after`, and
    /// the index links must stay a consistent doubly linked list throughout.
    #[test]
    fn link_integrity_after_squash_restart_gap_fill() {
        let mut rob = Rob::new(1);
        let ids: Vec<InstId> = (0..16).map(|i| rob.push_back(i)).collect();
        check_links(&rob);
        // Squash the incorrect control-dependent region [5, 11).
        for &id in &ids[5..11] {
            rob.remove(id);
        }
        check_links(&rob);
        assert_eq!(rob.next(ids[4]), Some(ids[11]), "gap bridged");
        // Restart sequence fills the gap with the correct path.
        let mut cur = SegCursor::default();
        let mut at = ids[4];
        let mut inserted = Vec::new();
        for v in [100, 101, 102, 103] {
            at = rob.insert_after(at, v, &mut cur);
            inserted.push(at);
            check_links(&rob);
        }
        assert_eq!(
            collect(&rob),
            vec![0, 1, 2, 3, 4, 100, 101, 102, 103, 11, 12, 13, 14, 15]
        );
        // Every inserted id sits between the squash boundaries in key order.
        for &id in &inserted {
            assert!(rob.is_before(ids[4], id) && rob.is_before(id, ids[11]));
        }
        // A preempting restart can squash part of the just-inserted sequence
        // and fill again — links must survive the second round too.
        rob.remove(inserted[2]);
        rob.remove(inserted[3]);
        let mut cur2 = SegCursor::default();
        rob.insert_after(inserted[1], 200, &mut cur2);
        check_links(&rob);
        assert_eq!(
            collect(&rob),
            vec![0, 1, 2, 3, 4, 100, 101, 200, 11, 12, 13, 14, 15]
        );
    }

    /// Deterministic churn: slots are recycled aggressively, yet no freed
    /// handle ever aliases a live entry and every live handle keeps reading
    /// its own payload.
    #[test]
    fn free_list_reuse_never_aliases_live_entries() {
        let mut rob = Rob::new(1);
        let mut live: Vec<(InstId, u32)> = Vec::new();
        let mut dead: Vec<InstId> = Vec::new();
        let mut rng = 0x5EEDu64;
        let mut next_val = 0u32;
        for _ in 0..600 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if !live.is_empty() && rng.is_multiple_of(3) {
                let victim = (rng >> 16) as usize % live.len();
                let (id, v) = live.swap_remove(victim);
                assert_eq!(*rob.get(id), v);
                rob.remove(id);
                dead.push(id);
            } else {
                let id = rob.push_back(next_val);
                live.push((id, next_val));
                next_val += 1;
            }
            for &(id, v) in &live {
                assert!(rob.alive(id));
                assert_eq!(*rob.get(id), v, "live handle reads its own payload");
            }
            for &id in &dead {
                assert!(!rob.alive(id), "freed handle must stay dead across reuse");
            }
        }
        // Recycling actually happened: the arena stayed far smaller than the
        // total number of instructions pushed through it.
        assert!(
            rob.slot_capacity() < next_val as usize,
            "free list reuses slots"
        );
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_access_panics() {
        let mut rob = Rob::new(1);
        let a = rob.push_back(1);
        rob.remove(a);
        let _ = rob.get(a);
    }
}
