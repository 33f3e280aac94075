//! General matrix-matrix multiply.
//!
//! `gemm` computes `C ← α·op(A)·op(B) + β·C` on column-major buffers with
//! explicit leading dimensions. All four transpose combinations route
//! through the packed register-tiled engine (`kernel.rs`) — the packing
//! stage absorbs the transposes, so there is a single optimised core.
//! Problems too small to amortise packing fall back to the seed loop nests
//! in [`crate::naive`].

use crate::kernel::{gemm_engine, PACK_MIN_MADDS};
use crate::pack::OpView;
use crate::Scalar;

/// Transpose selector for [`gemm`] operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// `C ← α·op(A)·op(B) + β·C`.
///
/// * `m, n` — dimensions of `C` (`m × n`, leading dimension `ldc`),
/// * `kk` — the contraction dimension,
/// * `op(A)` is `m × kk` (stored `lda`-strided), `op(B)` is `kk × n`.
///
/// # Panics
/// Panics (in debug builds) if a buffer is too small for its dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm<T: Scalar>(
    transa: Transpose,
    transb: Transpose,
    m: usize,
    n: usize,
    kk: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    debug_assert!(ldc >= m && c.len() >= (n - 1) * ldc + m);
    scale_cols(m, n, beta, c, ldc);
    if kk == 0 || alpha == T::ZERO {
        return;
    }
    match transa {
        Transpose::No => debug_assert!(lda >= m && a.len() >= (kk - 1) * lda + m),
        Transpose::Yes => debug_assert!(lda >= kk && a.len() >= (m - 1) * lda + kk),
    }
    match transb {
        Transpose::No => debug_assert!(ldb >= kk && b.len() >= (n - 1) * ldb + kk),
        Transpose::Yes => debug_assert!(ldb >= n && b.len() >= (kk - 1) * ldb + n),
    }
    // Degenerate shapes (dot/axpy-like) and tiny products can't amortise the
    // packing stage; everything else runs on the register-tiled engine.
    if m.min(n) < 2 || m * n * kk < PACK_MIN_MADDS {
        crate::naive::gemm_accum(transa, transb, m, n, kk, alpha, a, lda, b, ldb, c, ldc);
        return;
    }
    let av = OpView { data: a, ld: lda, trans: transa == Transpose::Yes };
    let bv = OpView { data: b, ld: ldb, trans: transb == Transpose::Yes };
    gemm_engine(m, n, kk, alpha, av, bv, c, ldc, None);
}

/// Convenience wrapper for the multifrontal hot path: `C ← C − A·Bᵀ` where
/// `A` is `m × kk` and `B` is `n × kk` (both column-major). This is the
/// `gemm` used by the overlapped GPU panel algorithm (Figure 9) to update the
/// rectangular part of the panel.
pub fn gemm_nt<T: Scalar>(
    m: usize,
    n: usize,
    kk: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    gemm(Transpose::No, Transpose::Yes, m, n, kk, -T::ONE, a, lda, b, ldb, T::ONE, c, ldc);
}

#[inline(always)]
pub(crate) fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `C[.., 0..n] ← β·C` column by column. The `β` cases are distinguished
/// once out here, not per element: `β = 0` must overwrite (NaN-safe, BLAS
/// semantics), so it becomes a `fill`, and the general case is a clean
/// multiply loop.
pub(crate) fn scale_cols<T: Scalar>(m: usize, n: usize, beta: T, c: &mut [T], ldc: usize) {
    if beta == T::ONE {
        return;
    }
    if beta == T::ZERO {
        for j in 0..n {
            c[j * ldc..j * ldc + m].fill(T::ZERO);
        }
    } else {
        for j in 0..n {
            for v in &mut c[j * ldc..j * ldc + m] {
                *v *= beta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::gemm_ref;
    use crate::DenseMat;

    fn mat(rows: usize, cols: usize, seed: u64) -> DenseMat<f64> {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        DenseMat::from_fn(rows, cols, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
    }

    fn check(transa: Transpose, transb: Transpose, m: usize, n: usize, kk: usize) {
        let (ar, ac) = if transa == Transpose::No { (m, kk) } else { (kk, m) };
        let (br, bc) = if transb == Transpose::No { (kk, n) } else { (n, kk) };
        let a = mat(ar, ac, 1);
        let b = mat(br, bc, 2);
        let c0 = mat(m, n, 3);

        let mut c = c0.clone();
        gemm(
            transa,
            transb,
            m,
            n,
            kk,
            0.75,
            a.as_slice(),
            ar,
            b.as_slice(),
            br,
            -0.25,
            c.as_mut_slice(),
            m,
        );
        let mut cref = c0.clone();
        gemm_ref(transa, transb, m, n, kk, 0.75, &a, &b, -0.25, &mut cref);
        assert!(c.max_abs_diff(&cref) < 1e-12, "{transa:?}/{transb:?} {m}x{n}x{kk}");
    }

    #[test]
    fn all_transpose_combinations_match_reference() {
        for &(m, n, kk) in &[(1, 1, 1), (3, 4, 5), (17, 9, 33), (64, 64, 64), (5, 1, 300)] {
            check(Transpose::No, Transpose::No, m, n, kk);
            check(Transpose::No, Transpose::Yes, m, n, kk);
            check(Transpose::Yes, Transpose::No, m, n, kk);
            check(Transpose::Yes, Transpose::Yes, m, n, kk);
        }
    }

    #[test]
    fn zero_k_only_scales_c() {
        let c0 = mat(4, 4, 9);
        let mut c = c0.clone();
        gemm(Transpose::No, Transpose::No, 4, 4, 0, 1.0, &[], 4, &[], 4, 2.0, c.as_mut_slice(), 4);
        for j in 0..4 {
            for i in 0..4 {
                assert_eq!(c[(i, j)], 2.0 * c0[(i, j)]);
            }
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_free() {
        // beta = 0 must overwrite even if C holds garbage (NaN), matching BLAS.
        let a = mat(2, 2, 4);
        let b = mat(2, 2, 5);
        let mut c = vec![f64::NAN; 4];
        gemm(
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            1.0,
            a.as_slice(),
            2,
            b.as_slice(),
            2,
            0.0,
            &mut c,
            2,
        );
        assert!(c.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn gemm_nt_subtracts_abt() {
        let a = mat(6, 3, 11);
        let b = mat(4, 3, 12);
        let c0 = mat(6, 4, 13);
        let mut c = c0.clone();
        gemm_nt(6, 4, 3, a.as_slice(), 6, b.as_slice(), 4, c.as_mut_slice(), 6);
        let expect = {
            let mut e = c0.clone();
            let abt = a.matmul(&b.transpose());
            for j in 0..4 {
                for i in 0..6 {
                    e[(i, j)] -= abt[(i, j)];
                }
            }
            e
        };
        assert!(c.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn respects_leading_dimension_submatrix() {
        // Multiply into a 2x2 sub-block of a 4x4 C with ldc = 4.
        let a = mat(2, 2, 21);
        let b = mat(2, 2, 22);
        let mut cfull = mat(4, 4, 23);
        let before = cfull.clone();
        gemm(
            Transpose::No,
            Transpose::No,
            2,
            2,
            2,
            1.0,
            a.as_slice(),
            2,
            b.as_slice(),
            2,
            1.0,
            &mut cfull.as_mut_slice()[0..],
            4,
        );
        // Rows 2..4 of each touched column must be untouched.
        for j in 0..2 {
            for i in 2..4 {
                assert_eq!(cfull[(i, j)], before[(i, j)]);
            }
        }
        // Columns 2..4 untouched entirely.
        for j in 2..4 {
            for i in 0..4 {
                assert_eq!(cfull[(i, j)], before[(i, j)]);
            }
        }
    }
}
