//! The panel triangular solve of the factor-update.
//!
//! The factor-update operation needs the *right-side, lower, transposed*
//! solve `X·Lᵀ = B` (computing the sub-diagonal panel `L₂ = A₂·L₁⁻ᵀ`,
//! Figure 1). It is a blocked right-looking algorithm: a width-[`TRSM_BLOCK`]
//! diagonal block is solved with the seed substitution loops, then the
//! entire remaining trailing region is updated in one [`gemm`] call — which
//! routes the O(n²)-per-block bulk of the work through the packed engine.
//! The solve phase's left-side substitutions live in `sweep.rs`, which keeps
//! the same block width.

use crate::gemm::{gemm, Transpose};
use crate::Scalar;

/// Diagonal-block width of the blocked triangular solves.
pub(crate) const TRSM_BLOCK: usize = 16;

/// Solve `X·Lᵀ = B` in place: `B` (`m × n`, leading dimension `ldb`) is
/// overwritten by `X`; `L` is `n × n` lower triangular (leading dimension
/// `lda`), non-unit diagonal.
pub fn trsm_right_lower_trans<T: Scalar>(
    m: usize,
    n: usize,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    debug_assert!(lda >= n && a.len() >= (n - 1) * lda + n);
    debug_assert!(ldb >= m && b.len() >= (n - 1) * ldb + m);
    if n <= TRSM_BLOCK {
        return crate::naive::trsm_right_lower_trans(m, n, a, lda, b, ldb);
    }
    // Right-looking: solve the columns of one diagonal block, then push the
    // rank-w update X_blk·L₂₁ᵀ into every trailing column at once.
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + TRSM_BLOCK).min(n);
        let w = j1 - j0;
        {
            let bj = &mut b[j0 * ldb..];
            crate::naive::trsm_right_lower_trans(m, w, &a[j0 + j0 * lda..], lda, bj, ldb);
        }
        if j1 < n {
            // Trailing columns and the solved block live in disjoint column
            // ranges of B, so a split borrows both sides without copies.
            let (head, trail) = b.split_at_mut(j1 * ldb);
            let xblk = &head[j0 * ldb..];
            let l21 = &a[j1 + j0 * lda..];
            gemm(
                Transpose::No,
                Transpose::Yes,
                m,
                n - j1,
                w,
                -T::ONE,
                xblk,
                ldb,
                l21,
                lda,
                T::ONE,
                trail,
                ldb,
            );
        }
        j0 = j1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::random_spd;
    use crate::potrf::potrf;
    use crate::DenseMat;

    fn lower_factor(n: usize, seed: u64) -> DenseMat<f64> {
        let mut a = random_spd::<f64>(n, seed);
        potrf(n, a.as_mut_slice(), n).unwrap();
        a.zero_upper();
        a
    }

    fn mat(rows: usize, cols: usize, seed: u64) -> DenseMat<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        DenseMat::from_fn(rows, cols, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    }

    #[test]
    fn right_lower_trans_solves() {
        for &(m, n) in &[(1, 1), (5, 3), (20, 20), (3, 40), (64, 17)] {
            let l = lower_factor(n, 3 + n as u64);
            let b0 = mat(m, n, 99);
            let mut x = b0.clone();
            trsm_right_lower_trans(m, n, l.as_slice(), n, x.as_mut_slice(), m);
            // Check X·Lᵀ == B.
            let recon = x.matmul(&l.transpose());
            assert!(recon.max_abs_diff(&b0) < 1e-9, "m={m} n={n}");
        }
    }

    #[test]
    fn identity_l_is_noop() {
        let n = 4;
        let l = DenseMat::<f64>::identity(n);
        let b0 = mat(6, n, 9);
        let mut x = b0.clone();
        trsm_right_lower_trans(6, n, l.as_slice(), n, x.as_mut_slice(), 6);
        assert!(x.max_abs_diff(&b0) < 1e-15);
    }

    #[test]
    fn respects_ldb_stride() {
        // Solve on a 3-row sub-block of a 5-row buffer (ldb = 5).
        let n = 3;
        let m = 3;
        let l = lower_factor(n, 42);
        let mut buf = vec![0.0f64; 5 * n];
        let b0 = mat(m, n, 13);
        for j in 0..n {
            for i in 0..m {
                buf[i + j * 5] = b0[(i, j)];
            }
            buf[3 + j * 5] = -1.0;
            buf[4 + j * 5] = -2.0;
        }
        trsm_right_lower_trans(m, n, l.as_slice(), n, &mut buf, 5);
        for j in 0..n {
            assert_eq!(buf[3 + j * 5], -1.0);
            assert_eq!(buf[4 + j * 5], -2.0);
        }
    }
}
