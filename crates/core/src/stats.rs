//! Per-factor-update timing records.
//!
//! One [`FuRecord`] per supernode per factorization run. These drive the
//! paper's Figures 2/5/6, Table IV, and — joined across runs of different
//! policies — the training data of the auto-tuner (`T_ij` in Eq. 3).

use crate::policy::PolicyKind;
use mf_dense::FuFlops;
use mf_gpusim::{Component, GpuUtilization, KernelKind, ProfileRecord};

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

    /// Fold a batch of profile records (one F-U call's worth) into the
    /// per-component buckets of this record.
    pub fn absorb(&mut self, records: &[ProfileRecord]) {
        for r in records {
            let d = r.duration();
            match r.component {
                Component::CpuKernel(k) | Component::GpuKernel(k) => match k {
                    KernelKind::Potrf | KernelKind::PanelPotrf => self.t_potrf += d,
                    KernelKind::Trsm => self.t_trsm += d,
                    KernelKind::Syrk | KernelKind::Gemm => self.t_syrk += d,
                },
                Component::CopyH2D | Component::CopyD2H | Component::CopyP2P => self.t_copy += d,
                Component::PinnedAlloc | Component::HostMemop => self.t_assemble += d,
            }
        }
    }
}

/// All records of one factorization run plus run-level metadata.
#[derive(Debug, Clone, Default)]
pub struct FactorStats {
    /// Per-supernode records in postorder execution order.
    pub records: Vec<FuRecord>,
    /// Total simulated factorization time. For the serial driver this is
    /// the machine's elapsed clock; for the parallel driver it is the
    /// maximum per-worker elapsed clock (each worker's simulated busy
    /// time — a lower bound on the simulated makespan).
    pub total_time: f64,
    /// Measured wall-clock seconds of the driver call on the real hardware
    /// this process ran on (unlike `total_time`, which is simulated).
    pub wall_time: f64,
    /// Supernodes that fell back to P1 because the device was out of memory.
    pub oom_fallbacks: usize,
    /// Peak bytes of front working storage in live use at any point: the
    /// arena high-water mark (serial) or the largest per-worker arena
    /// extent actually touched (parallel). Pipelined and multi-GPU runs,
    /// whose front lifetimes overlap, report the most simultaneously-live
    /// front and update buffers instead.
    pub peak_front_bytes: usize,
    /// Allocation (or growth) events the numeric phase performed for
    /// front/update storage. The serial drain run is O(1) — exactly the
    /// slab plus the arena; the parallel driver adds per-worker arena
    /// growths and one transient buffer per update that crosses tasks;
    /// pipelined and multi-GPU runs allocate per front.
    pub front_alloc_events: u64,
    /// GPU engine busy/idle accounting over the run, measured against
    /// `total_time`. `None` on CPU-only machines. Parallel runs aggregate
    /// one entry per worker device (busy seconds summed, `gpus` counted),
    /// so utilization stays normalised per engine.
    pub gpu: Option<GpuUtilization>,
    /// Per-device engine accounting from the multi-GPU driver, in global
    /// device order (device 0 is the caller's own device). Empty for
    /// single-device runs; `gpu` still carries the aggregate.
    pub gpu_devices: Vec<GpuUtilization>,
    /// Total bytes moved over peer (device-to-device) links by the
    /// multi-GPU driver's peer-copy extend-adds. Zero for single-device
    /// runs.
    pub peer_bytes: usize,
    /// Residency/traffic accounting of a memory-budgeted run
    /// (`FactorOptions::memory_budget`): tier traffic, eviction/reload
    /// counts, and the resident peak that stayed under the budget.
    /// `None` for in-core runs. Note `peak_front_bytes` above stays
    /// *logical* (the symbolic-bound invariant) even under a budget; the
    /// tier-resident figure lives here and in
    /// `FrontArena::resident_high_water_bytes`.
    pub ooc: Option<crate::ooc::OocStats>,
}

impl FactorStats {
    /// Merge per-worker record buffers from a parallel run into this run's
    /// record list, restoring the serial convention: records sorted by the
    /// supernode's postorder rank (its execution position in the serial
    /// driver). Each buffer entry is `(postorder_rank, record)`; workers
    /// append to their own buffer race-free during the run and the merge
    /// happens once at the end.
    pub fn merge_worker_records(&mut self, buffers: Vec<Vec<(usize, FuRecord)>>) {
        let mut tagged: Vec<(usize, FuRecord)> = buffers.into_iter().flatten().collect();
        tagged.sort_by_key(|&(rank, _)| rank);
        self.records.extend(tagged.into_iter().map(|(_, r)| r));
    }
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

    /// Bin the records on an `(m, k)` grid with square bins of `bin` — the
    /// layout of Figure 2. Returns `(bins_m, bins_k, fraction-of-total-time
    /// matrix)` where entry `[im][ik]` is the fraction of total recorded F-U
    /// time spent in that bin.
    pub fn time_fraction_grid(&self, bin: usize, max_dim: usize) -> Vec<Vec<f64>> {
        let nb = max_dim.div_ceil(bin);
        let mut grid = vec![vec![0.0f64; nb]; nb];
        let mut total = 0.0;
        for r in &self.records {
            let im = (r.m / bin).min(nb - 1);
            let ik = (r.k / bin).min(nb - 1);
            grid[im][ik] += r.total;
            total += r.total;
        }
        if total > 0.0 {
            for row in &mut grid {
                for v in row {
                    *v /= total;
                }
            }
        }
        grid
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
    fn absorb_buckets_by_component() {
        let mut r = rec(10, 5, 1.0);
        r.absorb(&[
            ProfileRecord {
                component: Component::CpuKernel(KernelKind::Potrf),
                ops: 1.0,
                bytes: 0,
                start: 0.0,
                end: 0.1,
            },
            ProfileRecord {
                component: Component::GpuKernel(KernelKind::Gemm),
                ops: 1.0,
                bytes: 0,
                start: 0.1,
                end: 0.4,
            },
            ProfileRecord {
                component: Component::CopyH2D,
                ops: 0.0,
                bytes: 8,
                start: 0.0,
                end: 0.05,
            },
            ProfileRecord {
                component: Component::HostMemop,
                ops: 0.0,
                bytes: 8,
                start: 0.0,
                end: 0.02,
            },
        ]);
        assert!((r.t_potrf - 0.1).abs() < 1e-12);
        assert!((r.t_syrk - 0.3).abs() < 1e-12);
        assert!((r.t_copy - 0.05).abs() < 1e-12);
        assert!((r.t_assemble - 0.02).abs() < 1e-12);
    }

    #[test]
    fn grid_fractions_sum_to_one() {
        let stats = FactorStats {
            records: vec![rec(100, 100, 1.0), rec(900, 100, 3.0), rec(2000, 2000, 6.0)],
            total_time: 10.0,
            ..Default::default()
        };
        let g = stats.time_fraction_grid(500, 2500);
        let sum: f64 = g.iter().flatten().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((g[0][0] - 0.1).abs() < 1e-12);
        assert!((g[1][0] - 0.3).abs() < 1e-12);
        // Out-of-range dims clamp to the last bin.
        assert!((g[4][4] - 0.6).abs() < 1e-12);
    }

    #[test]
    fn rate_uses_fu_flops() {
        let r = rec(0, 100, 2.0);
        let expect = (100f64.powi(3) / 3.0) / 2.0;
        assert!((r.rate() - expect).abs() < 1e-9);
    }

    #[test]
    fn merge_worker_records_restores_postorder() {
        let mut s = FactorStats::default();
        // Worker 0 ran ranks 2 and 0, worker 1 ran ranks 1 and 3.
        let buffers = vec![
            vec![(2usize, rec(2, 2, 0.2)), (0, rec(0, 0, 0.0))],
            vec![(1usize, rec(1, 1, 0.1)), (3, rec(3, 3, 0.3))],
        ];
        s.merge_worker_records(buffers);
        let ms: Vec<usize> = s.records.iter().map(|r| r.m).collect();
        assert_eq!(ms, vec![0, 1, 2, 3], "records must come back in postorder rank");
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
