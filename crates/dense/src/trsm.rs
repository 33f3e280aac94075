//! Triangular solves with multiple right-hand sides.
//!
//! The factor-update operation needs the *right-side, lower, transposed*
//! variant `X·Lᵀ = B` (computing the sub-diagonal panel `L₂ = A₂·L₁⁻ᵀ`,
//! Figure 1). The supernodal triangular solve phase additionally needs the
//! left-side variants `L·X = B` (forward) and `Lᵀ·X = B` (backward).
//!
//! All three are blocked right-looking algorithms: a width-[`TRSM_BLOCK`]
//! diagonal block is solved with the seed substitution loops, then the
//! entire remaining trailing region is updated in one [`gemm`] call — which
//! routes the O(n²)-per-block bulk of the work through the packed engine.

use crate::gemm::{gemm, gemm_multi_rhs, Transpose};
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

/// Solve `L·X = B` in place (forward substitution): `B` is `n × nrhs`
/// (leading dimension `ldb`), `L` is `n × n` lower triangular (leading
/// dimension `lda`), non-unit diagonal.
pub fn trsm_left_lower_notrans<T: Scalar>(
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
) {
    left_lower_notrans_impl(n, nrhs, a, lda, b, ldb, false);
}

/// [`trsm_left_lower_notrans`] with the **RHS-count-invariant** kernel
/// dispatch of [`gemm_multi_rhs`]: column `j` of the solution is bitwise
/// identical to a single-RHS call on column `j` alone, for any `nrhs`. The
/// batched triangular-solve phase uses this variant so a blocked multi-RHS
/// solve can be compared bit-for-bit against a loop of single-RHS solves.
pub fn trsm_left_lower_notrans_multi<T: Scalar>(
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
) {
    left_lower_notrans_impl(n, nrhs, a, lda, b, ldb, true);
}

fn left_lower_notrans_impl<T: Scalar>(
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
    rhs_stable: bool,
) {
    if n == 0 || nrhs == 0 {
        return;
    }
    debug_assert!(lda >= n && a.len() >= (n - 1) * lda + n);
    debug_assert!(ldb >= n && b.len() >= (nrhs - 1) * ldb + n);
    if n <= TRSM_BLOCK {
        return left_notrans_block(n, nrhs, a, lda, b, ldb);
    }
    // The solved block's rows interleave with the trailing rows inside each
    // column of B, so stage the block in scratch for the aliasing-free gemm.
    let mut xbuf = vec![T::ZERO; TRSM_BLOCK * nrhs];
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + TRSM_BLOCK).min(n);
        let w = j1 - j0;
        left_notrans_block(w, nrhs, &a[j0 + j0 * lda..], lda, &mut b[j0..], ldb);
        if j1 < n {
            for r in 0..nrhs {
                xbuf[r * w..r * w + w].copy_from_slice(&b[j0 + r * ldb..j1 + r * ldb]);
            }
            let l21 = &a[j1 + j0 * lda..];
            if rhs_stable {
                gemm_multi_rhs(
                    Transpose::No,
                    n - j1,
                    nrhs,
                    w,
                    -T::ONE,
                    l21,
                    lda,
                    &xbuf[..w * nrhs],
                    w,
                    T::ONE,
                    &mut b[j1..],
                    ldb,
                );
            } else {
                gemm(
                    Transpose::No,
                    Transpose::No,
                    n - j1,
                    nrhs,
                    w,
                    -T::ONE,
                    l21,
                    lda,
                    &xbuf[..w * nrhs],
                    w,
                    T::ONE,
                    &mut b[j1..],
                    ldb,
                );
            }
        }
        j0 = j1;
    }
}

/// Solve `Lᵀ·X = B` in place (backward substitution): dimensions as in
/// [`trsm_left_lower_notrans`].
pub fn trsm_left_lower_trans<T: Scalar>(
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
) {
    left_lower_trans_impl(n, nrhs, a, lda, b, ldb, false);
}

/// [`trsm_left_lower_trans`] with the RHS-count-invariant dispatch of
/// [`gemm_multi_rhs`] — see [`trsm_left_lower_notrans_multi`].
pub fn trsm_left_lower_trans_multi<T: Scalar>(
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
) {
    left_lower_trans_impl(n, nrhs, a, lda, b, ldb, true);
}

fn left_lower_trans_impl<T: Scalar>(
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
    rhs_stable: bool,
) {
    if n == 0 || nrhs == 0 {
        return;
    }
    debug_assert!(lda >= n && a.len() >= (n - 1) * lda + n);
    debug_assert!(ldb >= n && b.len() >= (nrhs - 1) * ldb + n);
    if n <= TRSM_BLOCK {
        return left_trans_block(n, nrhs, a, lda, b, ldb);
    }
    // Blocks run bottom-up; each block is staged in scratch so its gemm
    // update can read the already-solved rows below it from B.
    let mut xbuf = vec![T::ZERO; TRSM_BLOCK * nrhs];
    let nblocks = n.div_ceil(TRSM_BLOCK);
    for blk in (0..nblocks).rev() {
        let j0 = blk * TRSM_BLOCK;
        let j1 = (j0 + TRSM_BLOCK).min(n);
        let w = j1 - j0;
        for r in 0..nrhs {
            xbuf[r * w..r * w + w].copy_from_slice(&b[j0 + r * ldb..j1 + r * ldb]);
        }
        if j1 < n {
            // xbuf −= L[j1.., j0..j1]ᵀ · X[j1..]
            let l21 = &a[j1 + j0 * lda..];
            if rhs_stable {
                gemm_multi_rhs(
                    Transpose::Yes,
                    w,
                    nrhs,
                    n - j1,
                    -T::ONE,
                    l21,
                    lda,
                    &b[j1..],
                    ldb,
                    T::ONE,
                    &mut xbuf[..w * nrhs],
                    w,
                );
            } else {
                gemm(
                    Transpose::Yes,
                    Transpose::No,
                    w,
                    nrhs,
                    n - j1,
                    -T::ONE,
                    l21,
                    lda,
                    &b[j1..],
                    ldb,
                    T::ONE,
                    &mut xbuf[..w * nrhs],
                    w,
                );
            }
        }
        left_trans_block(w, nrhs, &a[j0 + j0 * lda..], lda, &mut xbuf, w);
        for r in 0..nrhs {
            b[j0 + r * ldb..j1 + r * ldb].copy_from_slice(&xbuf[r * w..r * w + w]);
        }
    }
}

/// Seed forward substitution on one diagonal block.
fn left_notrans_block<T: Scalar>(
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
) {
    for r in 0..nrhs {
        let bcol = &mut b[r * ldb..r * ldb + n];
        for j in 0..n {
            let xj = bcol[j] / a[j + j * lda];
            bcol[j] = xj;
            if xj == T::ZERO {
                continue;
            }
            let (_, below) = bcol.split_at_mut(j + 1);
            let acol = &a[j * lda + j + 1..j * lda + n];
            for (bv, &av) in below.iter_mut().zip(acol) {
                *bv -= xj * av;
            }
        }
    }
}

/// Seed backward substitution on one diagonal block.
fn left_trans_block<T: Scalar>(
    n: usize,
    nrhs: usize,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
) {
    for r in 0..nrhs {
        let bcol = &mut b[r * ldb..r * ldb + n];
        for j in (0..n).rev() {
            // x[j] = (b[j] − Σ_{i>j} L[i,j]·x[i]) / L[j,j]
            let acol = &a[j * lda + j + 1..j * lda + n];
            let below = &bcol[j + 1..n];
            let dot: T = acol.iter().zip(below).map(|(&av, &xv)| av * xv).sum();
            bcol[j] = (bcol[j] - dot) / a[j + j * lda];
        }
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
    fn left_lower_notrans_solves() {
        for &(n, nrhs) in &[(1, 1), (6, 2), (30, 5)] {
            let l = lower_factor(n, 11 + n as u64);
            let b0 = mat(n, nrhs, 5);
            let mut x = b0.clone();
            trsm_left_lower_notrans(n, nrhs, l.as_slice(), n, x.as_mut_slice(), n);
            let recon = l.matmul(&x);
            assert!(recon.max_abs_diff(&b0) < 1e-9);
        }
    }

    #[test]
    fn left_lower_trans_solves() {
        for &(n, nrhs) in &[(1, 1), (6, 2), (30, 5)] {
            let l = lower_factor(n, 17 + n as u64);
            let b0 = mat(n, nrhs, 6);
            let mut x = b0.clone();
            trsm_left_lower_trans(n, nrhs, l.as_slice(), n, x.as_mut_slice(), n);
            let recon = l.transpose().matmul(&x);
            assert!(recon.max_abs_diff(&b0) < 1e-9);
        }
    }

    #[test]
    fn forward_then_backward_is_full_solve() {
        // L·Lᵀ·x = b solved in two stages must reproduce A·x = b.
        let n = 25;
        let a = random_spd::<f64>(n, 123);
        let mut l = a.clone();
        potrf(n, l.as_mut_slice(), n).unwrap();
        l.zero_upper();
        let xtrue = mat(n, 1, 7);
        let mut sym = a.clone();
        sym.symmetrize_from_lower();
        let b = sym.matmul(&xtrue);
        let mut x = b.clone();
        trsm_left_lower_notrans(n, 1, l.as_slice(), n, x.as_mut_slice(), n);
        trsm_left_lower_trans(n, 1, l.as_slice(), n, x.as_mut_slice(), n);
        assert!(x.max_abs_diff(&xtrue) < 1e-8);
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
    fn multi_variants_solve() {
        for &(n, nrhs) in &[(1, 1), (6, 2), (30, 5), (90, 8)] {
            let l = lower_factor(n, 23 + n as u64);
            let b0 = mat(n, nrhs, 8);
            let mut x = b0.clone();
            trsm_left_lower_notrans_multi(n, nrhs, l.as_slice(), n, x.as_mut_slice(), n);
            assert!(l.matmul(&x).max_abs_diff(&b0) < 1e-9, "notrans n={n} nrhs={nrhs}");
            let mut y = b0.clone();
            trsm_left_lower_trans_multi(n, nrhs, l.as_slice(), n, y.as_mut_slice(), n);
            assert!(l.transpose().matmul(&y).max_abs_diff(&b0) < 1e-9, "trans n={n} nrhs={nrhs}");
        }
    }

    #[test]
    fn multi_variants_are_bitwise_rhs_count_invariant() {
        // n = 600 drives the trailing-update gemm well past PACK_MIN_MADDS,
        // where the plain `gemm` dispatch would pick different kernels for
        // nrhs = 1 vs nrhs = 8 — the `_multi` entries must not.
        let n = 600;
        let nrhs = 8;
        let l = lower_factor(n, 77);
        let b0 = mat(n, nrhs, 31);
        for forward in [true, false] {
            let mut batched = b0.clone();
            if forward {
                trsm_left_lower_notrans_multi(n, nrhs, l.as_slice(), n, batched.as_mut_slice(), n);
            } else {
                trsm_left_lower_trans_multi(n, nrhs, l.as_slice(), n, batched.as_mut_slice(), n);
            }
            for r in 0..nrhs {
                let mut col: Vec<f64> = (0..n).map(|i| b0[(i, r)]).collect();
                if forward {
                    trsm_left_lower_notrans_multi(n, 1, l.as_slice(), n, &mut col, n);
                } else {
                    trsm_left_lower_trans_multi(n, 1, l.as_slice(), n, &mut col, n);
                }
                for i in 0..n {
                    assert_eq!(
                        batched[(i, r)].to_bits(),
                        col[i].to_bits(),
                        "forward={forward} rhs={r} row={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_multi_rhs_is_bitwise_rhs_count_invariant() {
        use crate::gemm::gemm_multi_rhs;
        // m·kk = 640·40 = 25600 ≥ PACK_MIN_MADDS: every call below takes the
        // packed engine, regardless of nrhs.
        let (m, kk, nrhs) = (640, 40, 8);
        let a = mat(m, kk, 41);
        let b = mat(kk, nrhs, 42);
        let c0 = mat(m, nrhs, 43);
        let mut c = c0.clone();
        gemm_multi_rhs(
            Transpose::No,
            m,
            nrhs,
            kk,
            -1.0,
            a.as_slice(),
            m,
            b.as_slice(),
            kk,
            1.0,
            c.as_mut_slice(),
            m,
        );
        for r in 0..nrhs {
            let bcol: Vec<f64> = (0..kk).map(|i| b[(i, r)]).collect();
            let mut ccol: Vec<f64> = (0..m).map(|i| c0[(i, r)]).collect();
            gemm_multi_rhs(
                Transpose::No,
                m,
                1,
                kk,
                -1.0,
                a.as_slice(),
                m,
                &bcol,
                kk,
                1.0,
                &mut ccol,
                m,
            );
            for i in 0..m {
                assert_eq!(c[(i, r)].to_bits(), ccol[i].to_bits(), "rhs={r} row={i}");
            }
        }
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
