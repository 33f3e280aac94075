//! # mf-dense — dense kernels for the multifrontal solver
//!
//! From-scratch, dependency-free implementations of the four dense kernels
//! that dominate sparse multifrontal Cholesky factorization (Figure 1 of the
//! paper):
//!
//! * [`potrf`] — dense Cholesky factorization `A = L·Lᵀ` (lower),
//! * [`trsm_right_lower_trans`] — the panel solve `X·Lᵀ = B`,
//! * [`syrk_lower`] — the symmetric rank-k update `C ← C − A·Aᵀ` (lower),
//! * [`gemm`] — general matrix multiply (used by the GPU panel algorithm and
//!   the solve phase).
//!
//! All kernels are generic over [`Scalar`] (`f32`/`f64`) and operate on
//! column-major buffers with an explicit leading dimension, mirroring the
//! BLAS calling convention so the same code paths serve host fronts and the
//! simulated device.
//!
//! All four route their bulk through one packed, register-tiled kernel
//! engine (`pack.rs` + `kernel.rs`): three-level cache blocking
//! (`MC × KC × NC`), contiguous panel packing that absorbs the transpose
//! combinations, and an `MR × NR` micro-kernel whose explicit accumulator
//! array autovectorizes to FMA chains for both scalar types. The engine can
//! multithread over disjoint column slabs of `C` ([`set_num_threads`]);
//! results are bitwise identical for every thread count (see `kernel.rs`).
//! The seed loop-nest kernels survive in [`naive`] as the small-size path.
//! *Measured* speed never feeds the
//! paper's experiments (simulated time does; see `mf-gpusim`).

// The kernels take BLAS-style argument lists (dims, alpha, a, lda, …);
// bundling them into structs would hide the convention the paper and every
// BLAS binding use.
#![allow(clippy::too_many_arguments)]

pub mod matrix;
pub mod naive;
pub mod scalar;

mod arena;
mod gemm;
mod kernel;
mod pack;
mod potrf;
mod reference;
mod simd;
mod small;
mod syrk;
mod trsm;

pub use gemm::{gemm, gemm_multi_rhs, gemm_nt, Transpose};
pub use kernel::{num_threads, set_num_threads, thread_cap};
pub use matrix::{ColMajor, DenseMat};
pub use potrf::{potrf, potrf_blocked, potrf_unblocked, PotrfError};
pub use reference::{gemm_ref, potrf_ref, syrk_ref, trsm_ref};
pub use scalar::Scalar;
pub use small::{
    backward_panel_small, factor_front_small, forward_panel_small, front_is_small, panel_is_small,
};
pub use syrk::syrk_lower;
pub use trsm::{
    trsm_left_lower_notrans, trsm_left_lower_notrans_multi, trsm_left_lower_trans,
    trsm_left_lower_trans_multi, trsm_right_lower_trans,
};

/// Floating point operation counts for the three F-U kernels, following the
/// asymptotic expressions used in the paper (Section IV-B):
/// `N_P = k³/3`, `N_T = m·k²`, `N_S = m²·k`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FuFlops {
    /// Dense Cholesky (`potrf`) flops: `k³/3`.
    pub potrf: f64,
    /// Triangular solve (`trsm`) flops: `m·k²`.
    pub trsm: f64,
    /// Symmetric rank-k update (`syrk`) flops: `m²·k`.
    pub syrk: f64,
}

impl FuFlops {
    /// Operation counts for a factor-update step with pivot-block size `k`
    /// and update-matrix size `m`.
    pub fn new(m: usize, k: usize) -> Self {
        let (m, k) = (m as f64, k as f64);
        FuFlops { potrf: k * k * k / 3.0, trsm: m * k * k, syrk: m * m * k }
    }

    /// Total flops `N_P + N_T + N_S` — the x-axis of Figures 10 and 11 and
    /// the quantity thresholded by the baseline hybrid policy.
    pub fn total(&self) -> f64 {
        self.potrf + self.trsm + self.syrk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_flops_formulas() {
        let f = FuFlops::new(10, 4);
        assert_eq!(f.potrf, 64.0 / 3.0);
        assert_eq!(f.trsm, 160.0);
        assert_eq!(f.syrk, 400.0);
        assert!((f.total() - (64.0 / 3.0 + 160.0 + 400.0)).abs() < 1e-12);
    }

    #[test]
    fn fu_flops_zero_update() {
        // Root supernodes have m = 0: only the potrf term remains.
        let f = FuFlops::new(0, 100);
        assert_eq!(f.trsm, 0.0);
        assert_eq!(f.syrk, 0.0);
        assert!(f.potrf > 0.0);
    }
}
