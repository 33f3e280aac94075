//! Calibrated performance models for the simulated devices.
//!
//! Every kernel's cost follows a two-parameter latency/throughput curve
//!
//! ```text
//! time(ops)  = launch + (ops + half_sat) / asymptote
//! rate(ops)  = asymptote · ops / (ops + half_sat)
//! ```
//!
//! which reproduces the ramp-to-asymptote shape of the paper's Figures 4, 7
//! and 8. The constants below are calibrated so that
//!
//! * asymptotic rates match Table III (CPU f64: potrf 8.84, trsm 9.24,
//!   syrk 10.02 GFlop/s; GPU f32: trsm 153.7, syrk 159.7 GFlop/s),
//! * the trsm CPU/GPU crossover without copies falls near 4 × 10⁵ ops and
//!   with copies near 3 × 10⁶ ops (Fig. 7),
//! * the syrk crossover without copies falls near 1.5 × 10⁵ ops, and with
//!   copies there is no clear winner across 10⁶–10⁷ ops (Fig. 8),
//! * the effective pageable PCIe bandwidth is β ≈ 1.4 GB/s (Section IV-B).
//!
//! GPU dims are quantised up to the tile size before computing effective
//! ops, giving the jagged rate curves the paper notes for CUBLAS syrk.

/// The dense kernels whose placement the policies decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Dense Cholesky factorization of the pivot block.
    Potrf,
    /// Triangular panel solve.
    Trsm,
    /// Symmetric rank-k update.
    Syrk,
    /// General matrix multiply (GPU panel algorithm only).
    Gemm,
    /// The lightweight w×w on-device Cholesky kernel of Section V-A1.
    PanelPotrf,
}

/// Latency/throughput cost curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateCurve {
    /// Asymptotic rate in flop/s.
    pub asymptote: f64,
    /// Op count at which half the asymptotic rate is reached.
    pub half_sat: f64,
    /// Fixed per-call overhead in seconds (kernel launch / function call).
    pub launch: f64,
}

impl RateCurve {
    /// Execution time in seconds for `ops` floating-point operations.
    pub fn time(&self, ops: f64) -> f64 {
        if ops <= 0.0 {
            return self.launch;
        }
        self.launch + (ops + self.half_sat) / self.asymptote
    }

    /// Achieved rate (flop/s) for a call of `ops` operations, including the
    /// launch overhead.
    pub fn rate(&self, ops: f64) -> f64 {
        if ops <= 0.0 {
            return 0.0;
        }
        ops / self.time(ops)
    }
}

/// Per-kernel cost curves of one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelRates {
    /// `potrf` curve.
    pub potrf: RateCurve,
    /// `trsm` curve.
    pub trsm: RateCurve,
    /// `syrk` curve.
    pub syrk: RateCurve,
    /// `gemm` curve.
    pub gemm: RateCurve,
    /// Panel `potrf` kernel (GPU only; on CPU equals `potrf`).
    pub panel_potrf: RateCurve,
}

impl KernelRates {
    /// The curve for `kind`.
    pub fn curve(&self, kind: KernelKind) -> &RateCurve {
        match kind {
            KernelKind::Potrf => &self.potrf,
            KernelKind::Trsm => &self.trsm,
            KernelKind::Syrk => &self.syrk,
            KernelKind::Gemm => &self.gemm,
            KernelKind::PanelPotrf => &self.panel_potrf,
        }
    }
}

/// PCIe transfer model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieModel {
    /// Effective bandwidth for pageable host memory, bytes/s (the paper's
    /// observed β ≈ 1.4 GB/s over PCIe x8).
    pub pageable_bw: f64,
    /// Effective bandwidth for pinned host memory, bytes/s.
    pub pinned_bw: f64,
    /// Per-transfer latency, seconds.
    pub latency: f64,
}

impl PcieModel {
    /// Transfer time for `bytes` bytes.
    pub fn time(&self, bytes: usize, pinned: bool) -> f64 {
        let bw = if pinned { self.pinned_bw } else { self.pageable_bw };
        self.latency + bytes as f64 / bw
    }
}

/// Cost of pinned host memory management (Section V-A2: each allocation is
/// "prohibitively expensive" for small transfers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PinnedAllocModel {
    /// Fixed cost per `cudaMallocHost`-equivalent call, seconds.
    pub base: f64,
    /// Additional cost per byte, seconds (page-locking cost).
    pub per_byte: f64,
}

impl PinnedAllocModel {
    /// Cost of allocating a pinned region of `bytes`.
    pub fn time(&self, bytes: usize) -> f64 {
        self.base + bytes as f64 * self.per_byte
    }
}

/// Full device description (Table I analogue).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Peak single-precision flop/s (for %-utilisation reports).
    pub peak_sp: f64,
    /// Peak double-precision flop/s.
    pub peak_dp: f64,
    /// Device memory capacity in bytes.
    pub mem_bytes: usize,
    /// Kernel cost curves (single precision).
    pub kernels: KernelRates,
    /// PCIe link model.
    pub pcie: PcieModel,
    /// Peer (device-to-device) link bandwidth in bytes/s: the rate of a
    /// `p2p` copy between two devices of this kind. One hop over the peer
    /// link is faster than a pinned PCIe transfer, so a d2d copy beats the
    /// d2h → host-assemble → h2d staging path it replaces.
    pub p2p_bw: f64,
    /// Tile size for dim quantisation (CUBLAS-like jaggedness).
    pub tile: usize,
}

impl GpuConfig {
    /// Effective op count for a call after tile quantisation of the dims.
    pub fn effective_ops(&self, kind: KernelKind, m: usize, n: usize, k: usize) -> f64 {
        let q = |d: usize| -> f64 {
            if d == 0 {
                0.0
            } else {
                (d.div_ceil(self.tile) * self.tile) as f64
            }
        };
        match kind {
            KernelKind::Potrf | KernelKind::PanelPotrf => q(n) * q(n) * q(n) / 3.0,
            KernelKind::Trsm => q(m) * q(k) * q(k),
            KernelKind::Syrk => q(n) * q(n) * q(k),
            KernelKind::Gemm => q(m) * q(n) * q(k),
        }
    }
}

/// CPU model: one core of the host processor, with f64 kernel curves.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuConfig {
    /// Human-readable name.
    pub name: &'static str,
    /// Peak double-precision flop/s per core.
    pub peak_dp: f64,
    /// Kernel cost curves (double precision — WSMP's native precision).
    pub kernels: KernelRates,
    /// Pinned host memory allocation model.
    pub pinned_alloc: PinnedAllocModel,
}

/// The paper's host: one core of an Intel Xeon 5160 @ 3.0 GHz running
/// ATLAS-backed BLAS. Asymptotes from Table III.
pub fn xeon_5160_core() -> CpuConfig {
    let c = |asym_gf: f64| RateCurve { asymptote: asym_gf * 1e9, half_sat: 2.0e4, launch: 2.0e-7 };
    CpuConfig {
        name: "Xeon 5160 (1 core, f64, ATLAS)",
        peak_dp: 12.0e9,
        kernels: KernelRates {
            potrf: c(8.84),
            trsm: c(9.24),
            syrk: c(10.02),
            gemm: c(10.50),
            panel_potrf: c(8.84),
        },
        pinned_alloc: PinnedAllocModel { base: 1.5e-4, per_byte: 2.0e-10 },
    }
}

/// The paper's device: Nvidia Tesla T10 (Table I), CUBLAS 2.3, single
/// precision, PCIe x8 with observed β ≈ 1.4 GB/s pageable.
pub fn tesla_t10() -> GpuConfig {
    GpuConfig {
        name: "Tesla T10 (CUBLAS 2.3, f32)",
        peak_sp: 624.0e9,
        peak_dp: 78.0e9,
        mem_bytes: 4 << 30,
        kernels: KernelRates {
            // Offloaded full potrf is never used in the paper's policies
            // (P4 uses the panel algorithm); keep a curve anyway.
            potrf: RateCurve { asymptote: 100.0e9, half_sat: 4.0e6, launch: 5.0e-6 },
            trsm: RateCurve { asymptote: 153.7e9, half_sat: 5.8e6, launch: 5.0e-6 },
            syrk: RateCurve { asymptote: 159.7e9, half_sat: 1.8e6, launch: 5.0e-6 },
            gemm: RateCurve { asymptote: 180.0e9, half_sat: 1.5e6, launch: 5.0e-6 },
            // Lightweight w×w Cholesky kernel (Section V-A1): modest rate,
            // fast launch — it only ever sees tiny blocks.
            panel_potrf: RateCurve { asymptote: 15.0e9, half_sat: 1.0e5, launch: 4.0e-6 },
        },
        pcie: PcieModel { pageable_bw: 1.4e9, pinned_bw: 3.2e9, latency: 1.0e-5 },
        p2p_bw: 5.2e9,
        tile: 32,
    }
}

/// A Fermi-class "future GPU" preset (the paper's footnote 1): ~2× SP
/// throughput, 8× better DP ratio, faster PCIe (x16). Exercised by the
/// adaptation ablation.
pub fn fermi_like() -> GpuConfig {
    GpuConfig {
        name: "Fermi-like (hypothetical)",
        peak_sp: 1030.0e9,
        peak_dp: 515.0e9,
        mem_bytes: 6 << 30,
        kernels: KernelRates {
            potrf: RateCurve { asymptote: 220.0e9, half_sat: 3.0e6, launch: 4.0e-6 },
            trsm: RateCurve { asymptote: 330.0e9, half_sat: 4.5e6, launch: 4.0e-6 },
            syrk: RateCurve { asymptote: 350.0e9, half_sat: 1.5e6, launch: 4.0e-6 },
            gemm: RateCurve { asymptote: 400.0e9, half_sat: 1.2e6, launch: 4.0e-6 },
            panel_potrf: RateCurve { asymptote: 35.0e9, half_sat: 8.0e4, launch: 3.0e-6 },
        },
        pcie: PcieModel { pageable_bw: 3.0e9, pinned_bw: 6.0e9, latency: 8.0e-6 },
        p2p_bw: 11.0e9,
        tile: 32,
    }
}

/// Exact (non-quantised) op counts for a kernel call — used for CPU cost
/// and for reporting achieved rates the way the paper does.
pub fn exact_ops(kind: KernelKind, m: usize, n: usize, k: usize) -> f64 {
    let (m, n, k) = (m as f64, n as f64, k as f64);
    match kind {
        KernelKind::Potrf | KernelKind::PanelPotrf => n * n * n / 3.0,
        KernelKind::Trsm => m * k * k,
        KernelKind::Syrk => n * n * k,
        KernelKind::Gemm => m * n * k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_curve_saturates() {
        let c = RateCurve { asymptote: 100.0e9, half_sat: 1e6, launch: 5e-6 };
        assert!(c.rate(1e3) < 1e9, "tiny calls dominated by overhead");
        // At half_sat ops, with no launch the rate would be half.
        let r_huge = c.rate(1e12);
        assert!(r_huge > 99.0e9 && r_huge <= 100.0e9);
        // Monotone increasing.
        let mut prev = 0.0;
        for e in 2..12 {
            let r = c.rate(10f64.powi(e));
            assert!(r >= prev);
            prev = r;
        }
    }

    #[test]
    fn table3_asymptotes() {
        let cpu = xeon_5160_core();
        let gpu = tesla_t10();
        let big = 1e13;
        assert!((cpu.kernels.potrf.rate(big) / 1e9 - 8.84).abs() < 0.05);
        assert!((cpu.kernels.trsm.rate(big) / 1e9 - 9.24).abs() < 0.05);
        assert!((cpu.kernels.syrk.rate(big) / 1e9 - 10.02).abs() < 0.05);
        assert!((gpu.kernels.trsm.rate(big) / 1e9 - 153.7).abs() < 1.0);
        assert!((gpu.kernels.syrk.rate(big) / 1e9 - 159.7).abs() < 1.0);
        // Utilisation vs peak as in Table III: CPU ~73–84 %, GPU ~24–26 %.
        assert!(cpu.kernels.potrf.rate(big) / cpu.peak_dp > 0.70);
        assert!(gpu.kernels.syrk.rate(big) / gpu.peak_sp < 0.30);
    }

    /// Find the op count where two time functions cross, by bisection on a
    /// log grid.
    fn crossover(f_cpu: impl Fn(f64) -> f64, f_gpu: impl Fn(f64) -> f64) -> f64 {
        let mut prev_sign = f_cpu(1e2) < f_gpu(1e2);
        for i in 1..2000 {
            let ops = 1e2 * 10f64.powf(i as f64 * 0.005);
            let sign = f_cpu(ops) < f_gpu(ops);
            if sign != prev_sign {
                return ops;
            }
            prev_sign = sign;
        }
        f64::INFINITY
    }

    #[test]
    fn trsm_crossover_without_copy_near_4e5() {
        let cpu = xeon_5160_core();
        let gpu = tesla_t10();
        let x = crossover(|ops| cpu.kernels.trsm.time(ops), |ops| gpu.kernels.trsm.time(ops));
        assert!(x > 1.5e5 && x < 1.0e6, "crossover at {x:.3e}, expected ≈ 4e5");
    }

    #[test]
    fn trsm_crossover_with_copy_near_3e6() {
        let cpu = xeon_5160_core();
        let gpu = tesla_t10();
        // Representative shapes m = 8k (panel solves have m ≫ k): data
        // = 4·(k² + 2mk) bytes pageable.
        let x = crossover(
            |ops| {
                // ops = m·k² with m = 8k ⇒ k = (ops/8)^(1/3)
                cpu.kernels.trsm.time(ops)
            },
            |ops| {
                let k = (ops / 8.0).powf(1.0 / 3.0);
                let m = 8.0 * k;
                let bytes = 4.0 * (k * k + 2.0 * m * k);
                gpu.kernels.trsm.time(ops) + gpu.pcie.time(bytes as usize, false)
            },
        );
        assert!(x > 1.0e6 && x < 8.0e6, "crossover at {x:.3e}, expected ≈ 3e6");
    }

    #[test]
    fn syrk_crossover_without_copy_near_1_5e5() {
        let cpu = xeon_5160_core();
        let gpu = tesla_t10();
        let x = crossover(|ops| cpu.kernels.syrk.time(ops), |ops| gpu.kernels.syrk.time(ops));
        assert!(x > 0.6e5 && x < 4.0e5, "crossover at {x:.3e}, expected ≈ 1.5e5");
    }

    #[test]
    fn syrk_with_copy_ambiguous_band_1e6_to_1e7() {
        // With copy costs included the winner in 10⁶–10⁷ ops depends on the
        // aspect ratio (thin k ⇒ big m² copy): CPU wins for k = 8, GPU wins
        // for k = 128 somewhere inside the band.
        let cpu = xeon_5160_core();
        let gpu = tesla_t10();
        let gpu_time = |ops: f64, k: f64| {
            let n = (ops / k).sqrt();
            let bytes = 4.0 * n * n;
            gpu.kernels.syrk.time(ops) + gpu.pcie.time(bytes as usize, false)
        };
        let ops = 3.0e6;
        assert!(cpu.kernels.syrk.time(ops) < gpu_time(ops, 8.0), "thin k: CPU should win");
        assert!(cpu.kernels.syrk.time(ops) > gpu_time(ops, 128.0), "fat k: GPU should win");
    }

    #[test]
    fn tile_quantisation_creates_jaggedness() {
        let gpu = tesla_t10();
        // 33 columns cost the same as 64 columns (tile = 32).
        let e33 = gpu.effective_ops(KernelKind::Syrk, 0, 100, 33);
        let e64 = gpu.effective_ops(KernelKind::Syrk, 0, 100, 64);
        assert_eq!(e33, e64);
        let e32 = gpu.effective_ops(KernelKind::Syrk, 0, 100, 32);
        assert!(e32 < e33);
        // Zero dims stay zero.
        assert_eq!(gpu.effective_ops(KernelKind::Trsm, 0, 0, 32), 0.0);
    }

    #[test]
    fn pinned_transfers_beat_pageable() {
        let gpu = tesla_t10();
        let b = 10 << 20;
        assert!(gpu.pcie.time(b, true) < gpu.pcie.time(b, false));
    }

    #[test]
    fn exact_ops_match_paper_formulas() {
        assert_eq!(exact_ops(KernelKind::Potrf, 0, 30, 0), 9000.0);
        assert_eq!(exact_ops(KernelKind::Trsm, 100, 0, 10), 10_000.0);
        assert_eq!(exact_ops(KernelKind::Syrk, 0, 100, 10), 100_000.0);
        assert_eq!(exact_ops(KernelKind::Gemm, 10, 20, 30), 6000.0);
    }

    #[test]
    fn pinned_alloc_cost_significant_for_small_buffers() {
        let cpu = xeon_5160_core();
        // Allocating for a 100 KB transfer costs more than the transfer
        // itself saves vs pageable — the paper's rationale for the reuse
        // pool.
        let gpu = tesla_t10();
        let bytes = 100 << 10;
        let saving = gpu.pcie.time(bytes, false) - gpu.pcie.time(bytes, true);
        assert!(cpu.pinned_alloc.time(bytes) > saving);
    }
}
