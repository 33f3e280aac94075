//! Pinned host staging buffers with the paper's growth-only reuse policy.
//!
//! Section V-A2: asynchronous transfers need pinned host memory, but every
//! pinned allocation is expensive — so "any allocation/deallocation is
//! triggered only when the maximum allocated size over all the previous
//! calls is insufficient". [`PinnedPool`] implements exactly that, with a
//! switch to allocate-per-call for the ablation benchmark. A pool built
//! without data (a run without data) charges the same allocations and
//! backs none of them.

use mf_gpusim::HostClock;

/// A set of reusable pinned staging buffers (f32, matching the device).
///
/// Every policy stages through [`Self::lease`] / [`Self::retire`]: a
/// dispatch leases whichever slot generation is free *and* whose guarding
/// completion event has passed, and the pool grows a new generation when
/// all are in flight — double/triple buffering falls out of the look-ahead
/// depth, and a drained run reuses the same slots front after front.
#[derive(Debug)]
pub struct PinnedPool {
    slots: Vec<Vec<f32>>,
    /// Logical length of each slot (equals `slots[i].len()` in a pool with
    /// data; a pool without data keeps its slots empty).
    logical: Vec<usize>,
    /// Simulated time at which the last transfer touching each slot
    /// completes; a slot may not be re-leased before this.
    ready_at: Vec<f64>,
    /// Slots currently handed out by [`Self::lease`].
    leased: Vec<bool>,
    reuse: bool,
    data: bool,
}

impl PinnedPool {
    /// A pool with `nslots` independent staging buffers and the growth-only
    /// reuse policy enabled, backing its slots with memory if `data`.
    pub fn new(nslots: usize, data: bool) -> Self {
        PinnedPool {
            slots: vec![Vec::new(); nslots],
            logical: vec![0; nslots],
            ready_at: vec![0.0; nslots],
            leased: vec![false; nslots],
            reuse: true,
            data,
        }
    }

    /// Disable reuse: every lease allocates and every retirement frees
    /// pinned memory (the configuration the paper found prohibitively slow).
    pub fn without_reuse(nslots: usize, data: bool) -> Self {
        PinnedPool { reuse: false, ..Self::new(nslots, data) }
    }

    /// Whether the run has data. A pool without it charges allocation costs
    /// and never allocates backing memory: its slots stay empty.
    pub fn has_data(&self) -> bool {
        self.data
    }

    /// The growth-only (or allocate-per-call) charging policy for one slot.
    fn charge_for(&mut self, idx: usize, len: usize, host: &mut HostClock) {
        if self.reuse {
            if self.logical[idx] < len {
                // Grow: free the old region, allocate the larger one.
                if self.logical[idx] > 0 {
                    host.free_pinned(self.logical[idx] * 4);
                }
                host.alloc_pinned(len * 4);
                self.logical[idx] = len;
                if self.data {
                    self.slots[idx].resize(len, 0.0);
                }
            }
        } else {
            // Allocate-per-call mode: charge a fresh allocation every time.
            host.alloc_pinned(len * 4);
            self.logical[idx] = len;
            if self.data {
                self.slots[idx].clear();
                self.slots[idx].resize(len, 0.0);
            }
        }
    }

    /// Lease whichever slot generation is free and whose completion guard
    /// has passed (lowest index wins, so a drained pool hands out the same
    /// slots in the same order every front). When every generation is
    /// in flight, the pool weighs its options: if a retired-but-guarded
    /// slot already fits `len` and its guard expires sooner than a fresh
    /// pinned allocation would take, the host waits for it instead of
    /// growing — pinned allocation carries a large fixed cost (§V-A2), so
    /// a short stall is usually the cheaper side. Slot choice never affects
    /// numerics (staging buffers are fully overwritten before use), only
    /// the simulated clock. Charges the growth-only policy for the chosen
    /// slot and returns its index.
    pub fn lease(&mut self, len: usize, host: &mut HostClock) -> usize {
        let now = host.now();
        if let Some(idx) =
            (0..self.slots.len()).find(|&i| !self.leased[i] && self.ready_at[i] <= now)
        {
            self.leased[idx] = true;
            self.charge_for(idx, len, host);
            return idx;
        }
        let grow_cost = host.pinned_alloc_cost(len * 4);
        let waitable = (0..self.slots.len())
            .filter(|&i| !self.leased[i] && self.logical[i] >= len)
            .min_by(|&a, &b| self.ready_at[a].total_cmp(&self.ready_at[b]));
        if let Some(idx) = waitable {
            if self.ready_at[idx] - now <= grow_cost {
                host.sync_to(self.ready_at[idx]);
                self.leased[idx] = true;
                self.charge_for(idx, len, host); // capacity fits: charge-free
                return idx;
            }
        }
        self.slots.push(Vec::new());
        self.logical.push(0);
        self.ready_at.push(0.0);
        self.leased.push(false);
        let idx = self.slots.len() - 1;
        self.leased[idx] = true;
        self.charge_for(idx, len, host);
        idx
    }

    /// Return a leased slot; it becomes leasable again once the simulated
    /// clock reaches `ready_at` (the completion event of the last transfer
    /// still touching the staging buffer). Frees under allocate-per-call.
    pub fn retire(&mut self, idx: usize, ready_at: f64, host: &mut HostClock) {
        self.leased[idx] = false;
        self.ready_at[idx] = ready_at;
        if !self.reuse && self.logical[idx] > 0 {
            host.free_pinned(self.logical[idx] * 4);
            self.logical[idx] = 0;
            self.slots[idx].clear();
            self.slots[idx].shrink_to_fit();
        }
    }

    /// Retire with no completion guard — the caller has already synced past
    /// every transfer touching the slot.
    pub fn retire_now(&mut self, idx: usize, host: &mut HostClock) {
        self.retire(idx, 0.0, host);
    }

    /// Raw access to a leased slot (no charging), at least as long as the
    /// lease asked for in a pool with data, empty in one without.
    pub fn slot(&self, idx: usize) -> &[f32] {
        &self.slots[idx]
    }

    /// Mutable raw access to a leased slot (no charging).
    pub fn slot_mut(&mut self, idx: usize) -> &mut [f32] {
        &mut self.slots[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_gpusim::xeon_5160_core;

    #[test]
    fn reuse_only_charges_on_growth() {
        let mut pool = PinnedPool::new(1, true);
        let mut host = HostClock::new(xeon_5160_core());
        let a = pool.lease(1000, &mut host);
        pool.retire_now(a, &mut host);
        let t1 = host.now();
        assert!(t1 > 0.0);
        // Re-leasing at a smaller or equal size is free.
        for len in [500, 1000] {
            let a = pool.lease(len, &mut host);
            pool.retire_now(a, &mut host);
        }
        assert_eq!(host.now(), t1);
        // Growth charges again.
        assert_eq!(pool.lease(2000, &mut host), 0);
        assert!(host.now() > t1);
        assert_eq!(pool.logical[0], 2000);
    }

    #[test]
    fn no_reuse_charges_every_time() {
        let mut pool = PinnedPool::without_reuse(1, true);
        let mut host = HostClock::new(xeon_5160_core());
        let a = pool.lease(100, &mut host);
        pool.retire_now(a, &mut host);
        let t1 = host.now();
        let a = pool.lease(100, &mut host);
        pool.retire_now(a, &mut host);
        assert!(host.now() > t1 * 1.5, "second lease must pay again");
    }

    #[test]
    fn pinned_accounting_balances() {
        let mut pool = PinnedPool::without_reuse(2, true);
        let mut host = HostClock::new(xeon_5160_core());
        let a = pool.lease(64, &mut host);
        let b = pool.lease(32, &mut host);
        assert_eq!(host.pinned_bytes(), (64 + 32) * 4);
        pool.retire_now(a, &mut host);
        pool.retire_now(b, &mut host);
        assert_eq!(host.pinned_bytes(), 0);
    }

    #[test]
    fn slots_are_independent() {
        let mut pool = PinnedPool::new(2, true);
        let mut host = HostClock::new(xeon_5160_core());
        let a = pool.lease(10, &mut host);
        let b = pool.lease(10, &mut host);
        pool.slot_mut(a)[0] = 7.0;
        pool.slot_mut(b)[0] = 9.0;
        pool.retire_now(a, &mut host);
        pool.retire_now(b, &mut host);
        // Growth-only reuse keeps a slot's contents across leases.
        let a = pool.lease(10, &mut host);
        assert_eq!(pool.slot(a)[0], 7.0);
    }

    #[test]
    fn lease_reuses_lowest_ready_generation() {
        let mut pool = PinnedPool::new(2, true);
        let mut host = HostClock::new(xeon_5160_core());
        let a = pool.lease(100, &mut host);
        let b = pool.lease(100, &mut host);
        assert_eq!((a, b), (0, 1), "fresh pool leases in index order");
        pool.retire_now(b, &mut host);
        pool.retire_now(a, &mut host);
        // Both free with no guard: index order again.
        assert_eq!(pool.lease(50, &mut host), 0);
        assert_eq!(pool.lease(50, &mut host), 1);
        assert_eq!(pool.slots.len(), 2);
    }

    #[test]
    fn lease_grows_generation_when_all_busy_or_guarded() {
        let mut pool = PinnedPool::new(2, true);
        let mut host = HostClock::new(xeon_5160_core());
        let a = pool.lease(10, &mut host);
        let _b = pool.lease(10, &mut host);
        // Slot 0 retired but guarded by a far-future completion event.
        pool.retire(a, host.now() + 1.0, &mut host);
        let c = pool.lease(10, &mut host);
        assert_eq!(c, 2, "guarded slot must not be re-leased early");
        assert_eq!(pool.slots.len(), 3);
        // Once the clock passes the guard, slot 0 is leasable again.
        pool.retire_now(c, &mut host);
        host.advance(2.0);
        assert_eq!(pool.lease(10, &mut host), 0);
    }

    #[test]
    fn pool_without_data_charges_without_allocating() {
        let mut pool = PinnedPool::new(1, false);
        let mut host = HostClock::new(xeon_5160_core());
        let a = pool.lease(1_000_000_000, &mut host);
        assert!(pool.slot(a).is_empty(), "a lease without data must not allocate");
        assert!(host.now() > 0.0, "but it must charge");
        assert_eq!(pool.logical[a], 1_000_000_000);
        pool.retire_now(a, &mut host);
        // No growth ⇒ no further charge.
        let t = host.now();
        pool.lease(500, &mut host);
        assert_eq!(host.now(), t);
    }
}
