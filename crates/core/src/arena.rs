//! Front working storage: the postorder LIFO stack of update blocks that
//! makes the drain schedule allocation-free per front.
//!
//! [`FrontArena`] is the classical multifrontal working-storage stack, for
//! the part of a front that outlives its step: its `m × m` update block.
//! The pivot columns are assembled and factored in place in the factor
//! slab (see [`crate::frontal`]), so the stack never holds an `s × s`
//! front. One buffer sized by `SymbolicFactor::update_stack_peak` up front;
//! a front's update block is assembled at the top, above its children's,
//! and on retirement moves down over the children it consumed. In a
//! postorder traversal a supernode's children occupy the top contiguous
//! region of the stack when the supernode runs, so that is one
//! `copy_within` of an already packed block — no second buffer.
//!
//! The arena loop (`FrontRun::factor_range` in `factor.rs`) runs a
//! postorder range on one arena: the serial driver the whole postorder,
//! every parallel range task its own range on its worker's arena, grown to
//! the largest bottom subtree that worker has run. An update that leaves
//! its range — a different worker consumes it, so no one stack can hold it
//! — is assembled in a buffer of its own instead. The stack is the same
//! under a memory budget: the out-of-core plan prices residency on the
//! simulated clock and never touches a block.

use mf_dense::Scalar;

/// A bump/stack allocator for update blocks with postorder LIFO
/// discipline. All storage is one `Vec` allocated (zeroed) at
/// construction; `high_water` tracks the peak extent actually used so the
/// symbolic bound can be checked against reality.
#[derive(Debug)]
pub struct FrontArena<T> {
    buf: Vec<T>,
    top: usize,
    high_water: usize,
}

impl<T: Scalar> FrontArena<T> {
    /// Allocate an arena of `len` scalars, zero-initialised like a fresh
    /// heap buffer (assembly re-zeroes the triangle of a block it
    /// references, nothing reads the rest).
    pub fn with_len(len: usize) -> Self {
        FrontArena { buf: vec![T::ZERO; len], top: 0, high_water: 0 }
    }

    /// Length of the arena in scalars.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Empty the stack for another run on the same storage. The contents
    /// stay: assembly re-zeroes the part of a block it references.
    pub fn clear(&mut self) {
        self.top = 0;
    }

    /// Current stack top (scalars in live use below it).
    pub fn top(&self) -> usize {
        self.top
    }

    /// Peak stack extent reached so far, in scalars.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Push an `len`-scalar update block on top of the stack. Returns the
    /// live region *below* it (the buffered child updates this supernode
    /// will consume) and the block itself, as disjoint borrows.
    ///
    /// Panics if the symbolic working-storage bound was undersized — which
    /// the analysis guarantees cannot happen for a postorder traversal.
    pub fn split_for_front(&mut self, len: usize) -> (&[T], &mut [T]) {
        let end = self.top + len;
        assert!(
            end <= self.buf.len(),
            "front arena overflow: need {end}, capacity {}",
            self.buf.len()
        );
        self.high_water = self.high_water.max(end);
        let (below, rest) = self.buf.split_at_mut(self.top);
        (below, &mut rest[..len])
    }

    /// Retire the front whose `m × m` update block sits at `front_off`, the
    /// current stack top: move the block down to `dest`, releasing the
    /// consumed child updates above `dest` in one move. The new stack top is
    /// `dest + m²`.
    pub fn pop_and_compact(&mut self, front_off: usize, m: usize, dest: usize) {
        debug_assert!(dest <= front_off);
        self.buf.copy_within(front_off..front_off + m * m, dest);
        self.top = dest + m * m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_returns_disjoint_zeroed_regions() {
        let mut arena = FrontArena::<f64>::with_len(16);
        let (below, front) = arena.split_for_front(9);
        assert!(below.is_empty());
        assert_eq!(front.len(), 9);
        assert!(front.iter().all(|&x| x == 0.0));
        front[0] = 7.0;
        assert_eq!(arena.high_water(), 9);
    }

    #[test]
    fn lifo_compaction_moves_update_over_children() {
        // A child's 2×2 update at offset 0, then its parent's 2×2 update on
        // top: retiring the parent moves its block down over the child's.
        let mut arena = FrontArena::<f64>::with_len(16);
        arena.split_for_front(4).1.copy_from_slice(&[1.0, 2.0, 0.0, 3.0]);
        arena.pop_and_compact(0, 2, 0);
        assert_eq!(arena.top(), 4);
        let (below, parent) = arena.split_for_front(4);
        assert_eq!(below, [1.0, 2.0, 0.0, 3.0], "the parent sees its child below");
        parent.copy_from_slice(&[11.0, 21.0, 0.0, 22.0]);
        arena.pop_and_compact(4, 2, 0);
        assert_eq!(arena.top(), 4);
        assert_eq!(arena.high_water(), 8);
        // A root (m = 0) sees the parent's block moved down below it, and
        // releases everything it consumed.
        assert_eq!(arena.split_for_front(0).0, [11.0, 21.0, 0.0, 22.0]);
        arena.pop_and_compact(4, 0, 0);
        assert_eq!(arena.top(), 0);
    }

    #[test]
    fn overflow_panics() {
        let mut arena = FrontArena::<f32>::with_len(8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = arena.split_for_front(9);
        }));
        assert!(result.is_err());
    }
}
