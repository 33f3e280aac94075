//! Per-factor-update timing records.
//!
//! One [`FuRecord`] per supernode per factorization run. These drive the
//! paper's Figures 2/5/6, Table IV, and — joined across runs of different
//! policies — the training data of the auto-tuner (`T_ij` in Eq. 3).

use crate::policy::PolicyKind;
use mf_dense::FuFlops;
use mf_gpusim::GpuUtilization;

/// Timing breakdown of one factor-update call.
#[derive(Debug, Clone, Copy)]
pub struct FuRecord {
    /// Supernode index.
    pub sn: usize,
    /// Update-matrix size `m`.
    pub m: usize,
    /// Pivot-block width `k`.
    pub k: usize,
    /// Policy that executed the call.
    pub policy: PolicyKind,
    /// Wall (simulated) time of the whole call including synchronisation.
    pub total: f64,
    /// Time inside `potrf` kernels (CPU or GPU).
    pub t_potrf: f64,
    /// Time inside `trsm` kernels.
    pub t_trsm: f64,
    /// Time inside `syrk`/`gemm` kernels.
    pub t_syrk: f64,
    /// Transfer time (H2D + D2H).
    pub t_copy: f64,
    /// Host assembly (extend-add, packing, update application).
    pub t_assemble: f64,
}

impl FuRecord {
    /// Operation counts for this call.
    pub fn flops(&self) -> FuFlops {
        FuFlops::new(self.m, self.k)
    }

    /// Achieved flop rate of the whole call.
    pub fn rate(&self) -> f64 {
        if self.total > 0.0 {
            self.flops().total() / self.total
        } else {
            0.0
        }
    }
}

/// All records of one factorization run plus run-level metadata.
#[derive(Debug, Clone, Default)]
pub struct FactorStats {
    /// Per-supernode records in postorder execution order.
    pub records: Vec<FuRecord>,
    /// Total simulated factorization time of this run alone (it starts the
    /// clocks of the machines it runs on at zero): the first machine's host
    /// timeline after every device drained. A drain from the parallel entry
    /// reports its run without data on that machine, the serial run's clock.
    pub total_time: f64,
    /// Measured wall-clock seconds of the driver call on the real hardware
    /// this process ran on (unlike `total_time`, which is simulated).
    pub wall_time: f64,
    /// Supernodes that fell back to P1 because the device was out of memory.
    pub oom_fallbacks: usize,
    /// Peak bytes of front working storage in live use at any point: the
    /// arena high-water mark of a drain, or from the parallel entry the
    /// largest per-worker arena extent actually touched. Pipelined and
    /// multi-GPU runs, whose front lifetimes overlap, report the most
    /// simultaneously-live front and update buffers instead. Zero in a
    /// rehearsal, which holds no storage.
    pub peak_front_bytes: usize,
    /// Allocation (or growth) events the numeric phase performed for
    /// front/update storage. The serial drain run is O(1) — exactly the
    /// slab plus the arena; the parallel driver adds per-worker arena
    /// growths and one transient buffer per update that crosses tasks;
    /// pipelined and multi-GPU runs allocate per front.
    pub front_alloc_events: u64,
    /// GPU engine busy/idle accounting over the run, measured against
    /// `total_time`. `None` on CPU-only machines.
    pub gpu: Option<GpuUtilization>,
    /// Per-device engine accounting of a pipelined run on several devices,
    /// in global device order (device 0 is the caller's own device). Empty
    /// for single-device runs, whose one device is `gpu`; `gpu` always
    /// carries the aggregate.
    pub gpu_devices: Vec<GpuUtilization>,
    /// Total bytes moved over peer (device-to-device) links by the
    /// peer-copy extend-adds of a pipelined run on several devices. Zero for
    /// single-device runs.
    pub peer_bytes: usize,
    /// Residency/traffic accounting of a memory-budgeted run
    /// (`FactorOptions::memory_budget`): tier traffic, eviction/reload
    /// counts, and the resident peak that stayed under the budget.
    /// `None` for in-core runs. Note `peak_front_bytes` above stays
    /// *logical* (the symbolic-bound invariant) even under a budget; the
    /// tier-resident figures live here.
    pub ooc: Option<crate::ooc::OocStats>,
    /// What the run executed: [`crate::FactorOptions::plan`]'s schedule and
    /// decision for it, the same from either entry.
    pub plan: crate::plan::ExecPlan,
}

impl FactorStats {
    /// Sum of a field over all records.
    pub fn sum(&self, f: impl Fn(&FuRecord) -> f64) -> f64 {
        self.records.iter().map(f).sum()
    }

    /// Histogram of policies chosen.
    pub fn policy_counts(&self) -> [usize; 4] {
        let mut c = [0usize; 4];
        for r in &self.records {
            c[r.policy.index()] += 1;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(m: usize, k: usize, total: f64) -> FuRecord {
        FuRecord {
            sn: 0,
            m,
            k,
            policy: PolicyKind::P1,
            total,
            t_potrf: 0.0,
            t_trsm: 0.0,
            t_syrk: 0.0,
            t_copy: 0.0,
            t_assemble: 0.0,
        }
    }

    #[test]
    fn rate_uses_fu_flops() {
        let r = rec(0, 100, 2.0);
        let expect = (100f64.powi(3) / 3.0) / 2.0;
        assert!((r.rate() - expect).abs() < 1e-9);
    }

    #[test]
    fn policy_counts() {
        let mut s = FactorStats::default();
        s.records.push(rec(1, 1, 0.1));
        s.records.push(FuRecord { policy: PolicyKind::P3, ..rec(1, 1, 0.1) });
        s.records.push(FuRecord { policy: PolicyKind::P3, ..rec(1, 1, 0.1) });
        assert_eq!(s.policy_counts(), [1, 0, 2, 0]);
    }
}
