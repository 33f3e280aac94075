//! Residency tiers for out-of-core execution (DESIGN.md §4.14).
//!
//! The in-core drivers assume the factor slab and the front arena are
//! device-resident for the whole factorization. The out-of-core mode
//! (`mf-core::ooc`) caps that residency at a byte budget — the *device
//! tier* — and spills evicted blocks down a two-level hierarchy:
//!
//! * **pinned host** — capacity-bounded, PCIe-speed transfers (the same
//!   pinned-transfer regime the paper's §V-A2 staging uses);
//! * **simulated disk** — unbounded, at streaming-storage bandwidth.
//!
//! This module only models the tiers: capacities and bandwidths, the
//! spill-placement decision, and the per-transfer second charges. *What*
//! gets evicted and *when* is decided by the liveness-driven plan in
//! `mf-core::ooc`; charges land on the existing [`crate::HostClock`]
//! via `charge_memop`, so spill traffic shows up on the same virtual
//! timeline as every other simulated cost.
//!
//! Capacities follow the repository's ~25×-scaled-down stand-in regime
//! (see `mf-matgen::paper`): the defaults are sized so the five scaled
//! suite matrices fit in core, as the paper's matrices fit a Tesla T10's
//! 4 GB.

/// Where an evicted block is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpillTier {
    /// Pinned host memory (capacity-bounded, PCIe bandwidth).
    Host,
    /// Simulated disk (unbounded, streaming bandwidth).
    Disk,
}

/// Default device-tier residency budget in bytes (what
/// `FactorOptions::memory_budget` caps when callers do not choose their
/// own figure), in the scaled stand-in regime.
pub const DEFAULT_DEVICE_BUDGET: usize = 8 << 20;

/// Capacities and bandwidths of the spill tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TierParams {
    /// Pinned-host tier capacity in bytes; spills that do not fit go to
    /// disk.
    pub host_capacity: usize,
    /// Device → pinned-host eviction bandwidth (bytes/s); pinned PCIe
    /// write, per the paper's Table III transfer regime.
    pub host_write_bw: f64,
    /// Pinned-host → device reload bandwidth (bytes/s).
    pub host_read_bw: f64,
    /// Device → disk eviction bandwidth (bytes/s).
    pub disk_write_bw: f64,
    /// Disk → device reload bandwidth (bytes/s).
    pub disk_read_bw: f64,
}

impl Default for TierParams {
    fn default() -> Self {
        TierParams {
            host_capacity: 24 << 20,
            // Pinned PCIe-gen2-era transfer rates (asymmetric, as measured
            // for the paper's node: d2h slightly slower than h2d).
            host_write_bw: 5.2e9,
            host_read_bw: 5.7e9,
            // Streaming storage of the same era.
            disk_write_bw: 1.2e8,
            disk_read_bw: 1.5e8,
        }
    }
}

impl TierParams {
    /// Bandwidth of an eviction (device → tier) in bytes/s.
    pub fn write_bw(&self, tier: SpillTier) -> f64 {
        match tier {
            SpillTier::Host => self.host_write_bw,
            SpillTier::Disk => self.disk_write_bw,
        }
    }

    /// Bandwidth of a reload (tier → device) in bytes/s.
    pub fn read_bw(&self, tier: SpillTier) -> f64 {
        match tier {
            SpillTier::Host => self.host_read_bw,
            SpillTier::Disk => self.disk_read_bw,
        }
    }

    /// Seconds one transfer of `bytes` takes in `dir` to/from `tier`
    /// (`write = true` is an eviction).
    pub fn transfer_seconds(&self, tier: SpillTier, write: bool, bytes: usize) -> f64 {
        let bw = if write { self.write_bw(tier) } else { self.read_bw(tier) };
        bytes as f64 / bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_ordered() {
        let t = TierParams::default();
        // The tier hierarchy only makes sense if host is faster than disk
        // and the device budget is below the host capacity.
        assert!(t.host_write_bw > t.disk_write_bw);
        assert!(t.host_read_bw > t.disk_read_bw);
        assert!(DEFAULT_DEVICE_BUDGET < t.host_capacity);
    }

    #[test]
    fn transfer_seconds_scale_linearly() {
        let t = TierParams::default();
        let one = t.transfer_seconds(SpillTier::Disk, true, 1 << 20);
        let two = t.transfer_seconds(SpillTier::Disk, true, 2 << 20);
        assert!((two - 2.0 * one).abs() < 1e-15);
        assert!(
            t.transfer_seconds(SpillTier::Host, false, 1 << 20)
                < t.transfer_seconds(SpillTier::Disk, false, 1 << 20)
        );
    }
}
