//! Front working storage: the postorder LIFO arena that makes the serial
//! numeric phase allocation-free.
//!
//! [`FrontArena`] is the classical multifrontal working-storage stack: one
//! buffer sized by `SymbolicFactor::update_stack_peak` up front, fronts
//! assembled at the top, finished update matrices compacted down over the
//! children they consumed. In a postorder traversal a supernode's children
//! occupy the top contiguous region of the stack when the supernode runs,
//! so compaction is a per-column `copy_within` — no second buffer.
//!
//! The serial driver runs the whole postorder on one arena. The parallel
//! driver gives every worker its own, grown to the largest task it has run
//! (a bottom subtree, or one supernode above them); a worker cannot
//! stack-discipline an update that a *different* worker will consume, so a
//! task's last update leaves in a transient per-edge buffer (see
//! `parallel.rs`).

use mf_dense::Scalar;

/// A bump/stack allocator for frontal matrices with postorder LIFO
/// discipline. All storage is one `Vec` allocated (zeroed) at
/// construction; `high_water` tracks the peak extent actually used so the
/// symbolic bound can be checked against reality.
#[derive(Debug)]
pub struct FrontArena<T> {
    buf: Vec<T>,
    top: usize,
    high_water: usize,
    /// Peak *tier-resident* bytes an out-of-core driver reported via
    /// [`Self::note_resident_bytes`]. Kept separate from `high_water`,
    /// which stays the logical (symbolic-bound) figure: under a memory
    /// budget the logical stack extent is unchanged — eviction only
    /// changes which bytes are device-resident — so the PR 4
    /// `peak == symbolic bound` invariant keeps holding for
    /// `FactorStats::peak_front_bytes` while the budgeted residency is
    /// reported here.
    resident_high_water: usize,
}

impl<T: Scalar> FrontArena<T> {
    /// Allocate an arena of `len` scalars (zero-initialised — fronts only
    /// re-zero their lower trapezoid afterwards, so the first use of every
    /// region must find zeros just like a fresh heap buffer would provide).
    pub fn with_len(len: usize) -> Self {
        FrontArena { buf: vec![T::ZERO; len], top: 0, high_water: 0, resident_high_water: 0 }
    }

    /// Length of the arena in scalars.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Empty the stack for another run on the same storage. The contents
    /// stay: a front re-zeroes the part of its region it references.
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

    /// Push an `len`-scalar front region on top of the stack. Returns the
    /// live region *below* the front (the buffered child updates this
    /// supernode will consume) and the front region itself, as disjoint
    /// borrows.
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

    /// Retire the front at `front_off` (its `s × s` region starts there and
    /// is the current stack top): pack its trailing `m × m` update block
    /// (lower triangle, leading dimension `s`, at offset `(k, k)`) down to
    /// `dest`, releasing the front and the consumed child updates above
    /// `dest` in one move. The new stack top is `dest + m²`.
    ///
    /// `dest ≤ front_off` and the packed column reads always sit at or
    /// above their destination, so the per-column `copy_within` is safe in
    /// forward order.
    pub fn pop_and_compact(&mut self, front_off: usize, s: usize, k: usize, dest: usize) {
        debug_assert!(dest <= front_off);
        let m = s - k;
        for j in 0..m {
            let src = front_off + (k + j) * s + (k + j);
            let dst = dest + j * m + j;
            debug_assert!(dst <= src);
            self.buf.copy_within(src..src + (m - j), dst);
        }
        self.top = dest + m * m;
    }

    /// Packed update region written by the last [`Self::pop_and_compact`]
    /// for a supernode whose update landed at `off` (test helper).
    pub fn update_at(&self, off: usize, m: usize) -> &[T] {
        &self.buf[off..off + m * m]
    }

    /// Mutable view of a packed update region — the out-of-core driver
    /// degrades spill-bound updates in place through this.
    pub fn update_at_mut(&mut self, off: usize, m: usize) -> &mut [T] {
        &mut self.buf[off..off + m * m]
    }

    /// Record the device-resident bytes an out-of-core plan kept of this
    /// arena's blocks during one elimination step (fronts + live updates
    /// minus evicted ones). Monotone max.
    pub fn note_resident_bytes(&mut self, bytes: usize) {
        self.resident_high_water = self.resident_high_water.max(bytes);
    }

    /// Peak tier-resident bytes reported via [`Self::note_resident_bytes`];
    /// `0` for in-core runs, where residency equals the logical
    /// [`Self::high_water`] extent.
    pub fn resident_high_water_bytes(&self) -> usize {
        self.resident_high_water
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
    fn lifo_compaction_packs_update_over_front() {
        // One leaf front: s = 3, k = 1, m = 2, at offset 0. Lower triangle
        // filled with markers; compaction must leave the packed 2×2 update
        // at offset 0 and set top past it.
        let mut arena = FrontArena::<f64>::with_len(16);
        {
            let (_, front) = arena.split_for_front(9);
            // col-major 3×3: update block rows/cols {1,2}.
            front[4] = 11.0; // (1,1)
            front[5] = 21.0; // (2,1)
            front[8] = 22.0; // (2,2)
        }
        arena.pop_and_compact(0, 3, 1, 0);
        assert_eq!(arena.top(), 4);
        let u = arena.update_at(0, 2);
        assert_eq!(u[0], 11.0);
        assert_eq!(u[1], 21.0);
        assert_eq!(u[3], 22.0);
    }

    #[test]
    fn parent_front_sees_child_updates_below() {
        // Child at offset 0 leaves a 2×2 update; the parent front pushed on
        // top must see it in `below` at the recorded offset.
        let mut arena = FrontArena::<f64>::with_len(64);
        {
            let (_, front) = arena.split_for_front(9);
            front[4] = 5.0; // (1,1) of s=3,k=1 front → update (0,0)
        }
        arena.pop_and_compact(0, 3, 1, 0);
        let child_off = 0;
        let (below, front) = arena.split_for_front(16);
        assert_eq!(below[child_off], 5.0);
        assert_eq!(front.len(), 16);
        // Root front: m = 0 ⇒ compaction to the child's offset frees all.
        arena.pop_and_compact(4, 4, 4, child_off);
        assert_eq!(arena.top(), 0);
        assert_eq!(arena.high_water(), 4 + 16);
    }

    #[test]
    fn resident_tracking_is_separate_from_logical_high_water() {
        let mut arena = FrontArena::<f64>::with_len(32);
        let _ = arena.split_for_front(16);
        assert_eq!(arena.high_water(), 16);
        // In-core runs never note residency.
        assert_eq!(arena.resident_high_water_bytes(), 0);
        // An out-of-core driver reports what the plan kept resident; the
        // logical figure must not move.
        arena.note_resident_bytes(40);
        arena.note_resident_bytes(24);
        assert_eq!(arena.resident_high_water_bytes(), 40);
        assert_eq!(arena.high_water(), 16);
        // update_at_mut exposes the same region update_at reads.
        arena.pop_and_compact(0, 4, 2, 0);
        arena.update_at_mut(0, 2)[0] = 3.5;
        assert_eq!(arena.update_at(0, 2)[0], 3.5);
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
