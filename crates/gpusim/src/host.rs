//! The host timeline: virtual clock, CPU kernel charging, pinned memory.
//!
//! The host executes CPU kernels synchronously (time charged from the
//! calibrated [`CpuConfig`] curves) and issues GPU work asynchronously
//! (a small issue overhead, with synchronisation points pulling the host
//! clock forward to the relevant stream tail).

use crate::calib::{exact_ops, CpuConfig, KernelKind};
use crate::profile::TimeSplit;

/// Cost of issuing one asynchronous GPU command from the host.
pub const ISSUE_OVERHEAD: f64 = 1.5e-6;

/// The host CPU's virtual timeline.
#[derive(Debug, Clone)]
pub struct HostClock {
    cfg: CpuConfig,
    now: f64,
    pinned_bytes: usize,
    split: TimeSplit,
}

impl HostClock {
    /// A fresh host timeline at t = 0.
    pub fn new(cfg: CpuConfig) -> Self {
        HostClock { cfg, now: 0.0, pinned_bytes: 0, split: TimeSplit::default() }
    }

    /// The CPU configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Seconds charged per component since the counters were last cleared:
    /// CPU kernels under their kind, memops and pinned allocations as host
    /// time.
    pub fn split(&self) -> TimeSplit {
        self.split
    }

    /// Zero the component counters.
    pub fn clear_split(&mut self) {
        self.split = TimeSplit::default();
    }

    /// Advance the clock by an arbitrary duration (host-side bookkeeping
    /// such as extend-add assembly, charged by the caller).
    pub fn advance(&mut self, seconds: f64) {
        debug_assert!(seconds >= 0.0 && seconds.is_finite());
        self.now += seconds;
    }

    /// Pull the clock forward to `t` (synchronisation with a device event);
    /// no-op if `t` is in the past.
    pub fn sync_to(&mut self, t: f64) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Charge the issue overhead of one asynchronous device command.
    pub fn charge_issue(&mut self) {
        self.now += ISSUE_OVERHEAD;
    }

    /// Charge a CPU dense kernel of the given dims (see
    /// [`exact_ops`] for the dim conventions); returns the duration.
    pub fn charge_kernel(&mut self, kind: KernelKind, m: usize, n: usize, k: usize) -> f64 {
        let ops = exact_ops(kind, m, n, k);
        let dur = self.cfg.kernels.curve(kind).time(ops);
        let start = self.now;
        self.now += dur;
        self.split.kernel(kind, start, self.now);
        dur
    }

    /// Charge a host memory operation at `bytes / bw` where `bw` models
    /// memcpy/assembly bandwidth (used for extend-add and packing).
    pub fn charge_memop(&mut self, bytes: usize, bw: f64) -> f64 {
        let dur = bytes as f64 / bw;
        let start = self.now;
        self.now += dur;
        self.split.host += self.now - start;
        dur
    }

    /// What [`Self::alloc_pinned`] would charge for `bytes`, without
    /// performing it — lets the staging pool weigh growing a new pinned
    /// generation against waiting for an in-flight one to complete.
    pub fn pinned_alloc_cost(&self, bytes: usize) -> f64 {
        self.cfg.pinned_alloc.time(bytes)
    }

    /// Allocate pinned host memory: charges the allocation cost and tracks
    /// the footprint. Returns the duration charged.
    pub fn alloc_pinned(&mut self, bytes: usize) -> f64 {
        let dur = self.cfg.pinned_alloc.time(bytes);
        self.now += dur;
        self.pinned_bytes += bytes;
        // The interval ends now and is booked as `dur` back from its end.
        self.split.host += self.now - (self.now - dur);
        dur
    }

    /// Release pinned host memory (free is cheap; no time charged).
    pub fn free_pinned(&mut self, bytes: usize) {
        debug_assert!(bytes <= self.pinned_bytes);
        self.pinned_bytes -= bytes;
    }

    /// Currently pinned bytes.
    pub fn pinned_bytes(&self) -> usize {
        self.pinned_bytes
    }

    /// Reset the clock and the component counters to zero, keeping
    /// configuration and allocations.
    pub fn reset(&mut self) {
        self.now = 0.0;
        self.clear_split();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::xeon_5160_core;

    #[test]
    fn kernel_charging_advances_clock() {
        let mut h = HostClock::new(xeon_5160_core());
        let d = h.charge_kernel(KernelKind::Syrk, 0, 100, 50);
        assert!(d > 0.0);
        assert_eq!(h.now(), d);
        let d2 = h.charge_kernel(KernelKind::Potrf, 0, 64, 0);
        assert!((h.now() - (d + d2)).abs() < 1e-15);
    }

    #[test]
    fn sync_only_moves_forward() {
        let mut h = HostClock::new(xeon_5160_core());
        h.advance(1.0);
        h.sync_to(0.5);
        assert_eq!(h.now(), 1.0);
        h.sync_to(2.0);
        assert_eq!(h.now(), 2.0);
    }

    #[test]
    fn pinned_tracking() {
        let mut h = HostClock::new(xeon_5160_core());
        let d = h.alloc_pinned(1 << 20);
        assert!(d > 1e-4, "pinned alloc must be expensive: {d}");
        assert_eq!(h.pinned_bytes(), 1 << 20);
        h.alloc_pinned(512);
        assert_eq!(h.pinned_bytes(), (1 << 20) + 512);
        h.free_pinned(1 << 20);
        assert_eq!(h.pinned_bytes(), 512);
    }

    #[test]
    fn charges_book_into_their_components() {
        let mut h = HostClock::new(xeon_5160_core());
        h.charge_kernel(KernelKind::Trsm, 10, 0, 5);
        let kernel_end = h.now();
        h.charge_memop(4096, 4.0e9);
        let split = h.split();
        assert_eq!(split.trsm, kernel_end, "the kernel ran from zero");
        assert_eq!(split.host, h.now() - kernel_end, "the memop followed it");
        assert_eq!(split.potrf + split.syrk + split.copy, 0.0);
    }

    #[test]
    fn bigger_kernels_cost_more() {
        let mut h = HostClock::new(xeon_5160_core());
        let small = h.charge_kernel(KernelKind::Syrk, 0, 10, 10);
        let big = h.charge_kernel(KernelKind::Syrk, 0, 1000, 100);
        assert!(big > small * 10.0);
    }
}
