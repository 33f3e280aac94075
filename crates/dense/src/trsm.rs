//! The panel triangular solve of the factor-update.
//!
//! The factor-update operation needs the *right-side, lower, transposed*
//! solve `X·Lᵀ = B` (computing the sub-diagonal panel `L₂ = A₂·L₁⁻ᵀ`,
//! Figure 1). It recurses on halves of `L`: solve the left half, update the
//! right half with one [`gemm`] of depth `n/2` — which routes the bulk of
//! the work through the packed engine in large products — and solve the
//! right half, down to diagonal blocks of at most [`TRSM_BLOCK`] columns,
//! which the seed substitution loops solve.
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
    // Recursive: with L = [L₁₁ 0; L₂₁ L₂₂] and X = [X₁ X₂], solve the left
    // half X₁·L₁₁ᵀ = B₁, push X₁·L₂₁ᵀ into the right half in one gemm of
    // depth n/2, then solve X₂·L₂₂ᵀ = B₂. The left and right halves are
    // disjoint column ranges of B, so a split borrows both without copies.
    let n1 = n / 2;
    trsm_right_lower_trans(m, n1, a, lda, b, ldb);
    let (left, right) = b.split_at_mut(n1 * ldb);
    gemm(
        Transpose::No,
        Transpose::Yes,
        m,
        n - n1,
        n1,
        -T::ONE,
        left,
        ldb,
        &a[n1..],
        lda,
        T::ONE,
        right,
        ldb,
    );
    trsm_right_lower_trans(m, n - n1, &a[n1 + n1 * lda..], lda, right, ldb);
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
