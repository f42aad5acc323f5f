//! Return address stack.

use ci_isa::Pc;

/// No node: the parent of the bottom entry.
const NONE: u32 = u32::MAX;

/// One position of a [`ReturnAddressStack`]: its top node and the number
/// of entries reachable from it.
///
/// The handle is `Copy`, so checkpointing a stack is copying its top, and
/// restoring one is assigning it back: the nodes it reaches never change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RasTop {
    top: u32,
    depth: u32,
}

impl RasTop {
    /// The empty stack.
    pub const EMPTY: RasTop = RasTop {
        top: NONE,
        depth: 0,
    };

    /// Number of entries a pop can still return.
    #[must_use]
    pub fn depth(self) -> usize {
        self.depth as usize
    }
}

impl Default for RasTop {
    fn default() -> RasTop {
        RasTop::EMPTY
    }
}

/// A return-address stack with optional depth bound: an append-only arena
/// of `(return address, parent)` nodes that any number of [`RasTop`]
/// handles read at once.
///
/// The paper's idealized study assumes a *perfect* RAS; an unbounded stack
/// ([`ReturnAddressStack::perfect`]) consulted and updated in program order is
/// exactly that. The pipeline simulator keeps a handle for the front end,
/// one for the committed state and one per fetched control instruction,
/// all in one arena; a recovery copies the instruction's handle back into
/// the front end, which keeps the stack consistent across squashes and
/// restart sequences.
///
/// A push appends a node whose parent is the old top; a pop moves the
/// handle to the parent. A bounded push caps the handle's depth, so the
/// oldest entry becomes unreachable — what a hardware RAS that overwrites
/// its oldest slot circularly returns.
///
/// ```
/// use ci_bpred::{RasTop, ReturnAddressStack};
/// use ci_isa::Pc;
///
/// let mut ras = ReturnAddressStack::perfect();
/// let mut top = RasTop::EMPTY;
/// ras.push(&mut top, Pc(10));
/// let checkpoint = top;
/// ras.push(&mut top, Pc(20));
/// assert_eq!(ras.pop(&mut top), Some(Pc(20)));
/// assert_eq!(ras.pop(&mut top), Some(Pc(10)));
/// assert_eq!(ras.pop(&mut top), None);
/// top = checkpoint;
/// assert_eq!(ras.pop(&mut top), Some(Pc(10)));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReturnAddressStack {
    /// `(return address, parent node)`.
    nodes: Vec<(Pc, u32)>,
    max_depth: u32,
}

impl ReturnAddressStack {
    /// An unbounded ("perfect") stack.
    #[must_use]
    pub fn perfect() -> ReturnAddressStack {
        ReturnAddressStack {
            nodes: Vec::new(),
            max_depth: u32::MAX,
        }
    }

    /// A stack bounded to `depth` entries; pushes beyond the bound drop the
    /// oldest entry (a real hardware RAS overwrites circularly).
    #[must_use]
    pub fn bounded(depth: usize) -> ReturnAddressStack {
        ReturnAddressStack {
            nodes: Vec::new(),
            max_depth: u32::try_from(depth).unwrap_or(u32::MAX),
        }
    }

    /// Push a return address (on a call) onto the stack at `top`.
    ///
    /// # Panics
    /// Panics if the arena outgrows `u32` node indices.
    pub fn push(&mut self, top: &mut RasTop, ret: Pc) {
        if self.max_depth == 0 {
            return;
        }
        let node = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&n| n != NONE)
            .expect("return-address arena fits u32 indices");
        self.nodes.push((ret, top.top));
        *top = RasTop {
            top: node,
            depth: (top.depth + 1).min(self.max_depth),
        };
    }

    /// Pop the predicted return address (on a return) off the stack at
    /// `top`.
    pub fn pop(&self, top: &mut RasTop) -> Option<Pc> {
        if top.depth == 0 {
            return None;
        }
        let (ret, parent) = self.nodes[top.top as usize];
        *top = RasTop {
            top: parent,
            depth: top.depth - 1,
        };
        Some(ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut r = ReturnAddressStack::perfect();
        let mut t = RasTop::EMPTY;
        r.push(&mut t, Pc(1));
        r.push(&mut t, Pc(2));
        r.push(&mut t, Pc(3));
        assert_eq!(t.depth(), 3);
        assert_eq!(r.pop(&mut t), Some(Pc(3)));
        assert_eq!(r.pop(&mut t), Some(Pc(2)));
        assert_eq!(r.pop(&mut t), Some(Pc(1)));
        assert_eq!(r.pop(&mut t), None);
    }

    #[test]
    fn bounded_drops_oldest() {
        let mut r = ReturnAddressStack::bounded(2);
        let mut t = RasTop::EMPTY;
        r.push(&mut t, Pc(1));
        r.push(&mut t, Pc(2));
        r.push(&mut t, Pc(3));
        assert_eq!(t.depth(), 2);
        assert_eq!(r.pop(&mut t), Some(Pc(3)));
        assert_eq!(r.pop(&mut t), Some(Pc(2)));
        assert_eq!(r.pop(&mut t), None);
    }

    #[test]
    fn zero_depth_never_stores() {
        let mut r = ReturnAddressStack::bounded(0);
        let mut t = RasTop::EMPTY;
        r.push(&mut t, Pc(1));
        assert_eq!(r.pop(&mut t), None);
        assert!(r.nodes.is_empty());
    }

    #[test]
    fn handles_share_one_arena() {
        let mut r = ReturnAddressStack::perfect();
        let mut a = RasTop::EMPTY;
        r.push(&mut a, Pc(1));
        let mut b = a;
        r.push(&mut a, Pc(2));
        r.push(&mut b, Pc(3));
        // Each handle sees its own history over the shared bottom node.
        assert_eq!(r.pop(&mut a), Some(Pc(2)));
        assert_eq!(r.pop(&mut b), Some(Pc(3)));
        assert_eq!(a, b);
        assert_eq!(r.pop(&mut b), Some(Pc(1)));
        assert_eq!(r.pop(&mut b), None);
    }
}
