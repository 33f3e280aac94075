//! Fused bodies for small fronts.
//!
//! A multifrontal factorization of a 2-D problem spends its time in tens of
//! thousands of fronts a few rows wide. On such shapes every public kernel
//! takes its unblocked, unpacked branch after a dispatch that costs as much
//! as the arithmetic: shape checks, a scratch allocation, a pivot-block
//! copy, a strided gather. The routines here run, for one front (or one
//! panel and one right-hand side), **the same scalar operations in the same
//! order** as those branches, with the dispatch decided once by a predicate
//! and each panel column read once. They are bitwise interchangeable with
//! the kernel sequences they replace whenever their predicate holds — the
//! unit tests compare bits over every small shape.

use crate::gemm::axpy;
use crate::kernel::PACK_MIN_MADDS;
use crate::naive::syrk_accum;
use crate::potrf::{potrf_unblocked_offset, PotrfError, POTRF_UNBLOCKED_MAX};
use crate::trsm::TRSM_BLOCK;
use crate::Scalar;

/// Whether [`crate::potrf`], [`crate::trsm_right_lower_trans`] and
/// [`crate::syrk_lower`] all take their unblocked, unpacked branches on a
/// front of order `s` with `k` pivot columns — the condition under which
/// [`factor_front_small`] reproduces them.
pub fn front_is_small(s: usize, k: usize) -> bool {
    let m = s - k;
    k <= POTRF_UNBLOCKED_MAX.min(TRSM_BLOCK) && (m < 2 || m * m * k / 2 < PACK_MIN_MADDS)
}

/// The factor-update of one small front, in place: `potrf` of the `k × k`
/// pivot block, `trsm` of the `m × k` panel below it, `syrk` of the trailing
/// `m × m` block (`s × s` column-major in `data`, lower triangle). Requires
/// [`front_is_small`]`(s, k)`; the error column is front-local.
pub fn factor_front_small<T: Scalar>(s: usize, k: usize, data: &mut [T]) -> Result<(), PotrfError> {
    debug_assert!(front_is_small(s, k) && data.len() >= s * s);
    let m = s - k;
    potrf_unblocked_offset(k, data, s, 0)?;
    if m == 0 {
        return Ok(());
    }
    // Panel solve X·L₁ᵀ = A₂, column by column: the pivot block (rows < k)
    // and the panel (rows ≥ k) share their columns, and column j only reads
    // columns l < j, so a split at column j borrows both.
    for j in 0..k {
        let (done, rest) = data.split_at_mut(j * s);
        let bj = &mut rest[k..s];
        for l in 0..j {
            let ljl = done[j + l * s];
            if ljl == T::ZERO {
                continue;
            }
            for (bv, &xv) in bj.iter_mut().zip(&done[l * s + k..l * s + s]) {
                *bv -= ljl * xv;
            }
        }
        let inv = T::ONE / rest[j];
        for bv in &mut rest[k..s] {
            *bv *= inv;
        }
    }
    let (panel_cols, trailing) = data.split_at_mut(k * s);
    syrk_accum(m, k, -T::ONE, &panel_cols[k..], s, &mut trailing[k..], s);
    Ok(())
}

/// Whether the multi-right-hand-side solve kernels
/// ([`crate::trsm_left_lower_notrans_multi`],
/// [`crate::trsm_left_lower_trans_multi`], [`crate::gemm_multi_rhs`]) take
/// their unblocked, unpacked branches on a `(k + m) × k` panel — the
/// condition under which [`forward_panel_small`] and
/// [`backward_panel_small`] reproduce them. Like those kernels' dispatch it
/// does not depend on the right-hand-side count.
pub fn panel_is_small(k: usize, m: usize) -> bool {
    k <= TRSM_BLOCK && m * k < PACK_MIN_MADDS
}

/// Forward substitution through one small panel for one right-hand side:
/// `x ← L₁⁻¹·x` on the `k` pivot rows, then `u ← u + L₂·x` on the `m` update
/// rows (`panel` is `(k + m) × k` column-major with leading dimension `s`).
/// Requires [`panel_is_small`]`(k, m)`.
pub fn forward_panel_small<T: Scalar>(
    k: usize,
    m: usize,
    panel: &[T],
    s: usize,
    x: &mut [T],
    u: &mut [T],
) {
    debug_assert!(panel_is_small(k, m) && s >= k + m);
    let (x, u) = (&mut x[..k], &mut u[..m]);
    for j in 0..k {
        let col = &panel[j * s..j * s + k + m];
        let xj = x[j] / col[j];
        x[j] = xj;
        if xj == T::ZERO {
            continue;
        }
        for (bv, &av) in x[j + 1..].iter_mut().zip(&col[j + 1..k]) {
            *bv -= xj * av;
        }
        axpy(T::ONE * xj, &col[k..], u);
    }
}

/// Backward substitution through one small panel for one right-hand side:
/// `x ← L₁⁻ᵀ·(x − L₂ᵀ·xu)` on the `k` pivot rows, `xu` being the `m`
/// already-final update rows. Requires [`panel_is_small`]`(k, m)`.
pub fn backward_panel_small<T: Scalar>(
    k: usize,
    m: usize,
    panel: &[T],
    s: usize,
    x: &mut [T],
    xu: &[T],
) {
    debug_assert!(panel_is_small(k, m) && s >= k + m);
    let (x, xu) = (&mut x[..k], &xu[..m]);
    for j in (0..k).rev() {
        let col = &panel[j * s..j * s + k + m];
        if m > 0 {
            let dot: T = col[k..].iter().zip(xu).map(|(&a, &b)| a * b).sum();
            x[j] += -T::ONE * dot;
        }
        let dot: T = col[j + 1..k].iter().zip(&x[j + 1..]).map(|(&av, &xv)| av * xv).sum();
        x[j] = (x[j] - dot) / col[j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        gemm_multi_rhs, potrf, syrk_lower, trsm_left_lower_notrans_multi,
        trsm_left_lower_trans_multi, trsm_right_lower_trans, Transpose,
    };

    /// A diagonally dominant symmetric `s × s` matrix (column-major, full).
    fn spd<T: Scalar>(s: usize, seed: u64) -> Vec<T> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut a = vec![T::ZERO; s * s];
        for j in 0..s {
            for i in j..s {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                // A few exact zeros exercise the kernels' skip branches.
                let v = if state.is_multiple_of(7) { 0.0 } else { v };
                a[i + j * s] = T::from_f64(if i == j { s as f64 + 1.0 + v } else { v });
                a[j + i * s] = a[i + j * s];
            }
        }
        a
    }

    fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// The kernel sequence `mf-core`'s CPU factor-update runs on a front.
    fn factor_with_kernels<T: Scalar>(s: usize, k: usize, data: &mut [T]) {
        let m = s - k;
        potrf(k, data, s).unwrap();
        if m == 0 {
            return;
        }
        let mut l1 = vec![T::ZERO; k * k];
        for j in 0..k {
            for i in j..k {
                l1[i + j * k] = data[i + j * s];
            }
        }
        trsm_right_lower_trans(m, k, &l1, k, &mut data[k..], s);
        let (panel_cols, trailing) = data.split_at_mut(k * s);
        syrk_lower(m, k, -T::ONE, &panel_cols[k..], s, T::ONE, &mut trailing[k..], s);
    }

    fn check_factor<T: Scalar>() {
        let mut covered = 0;
        for s in 1..=40usize {
            for k in 1..=s.min(17) {
                if !front_is_small(s, k) {
                    continue;
                }
                covered += 1;
                let a = spd::<T>(s, (s * 31 + k) as u64);
                let (mut fused, mut kernels) = (a.clone(), a);
                factor_front_small(s, k, &mut fused).unwrap();
                factor_with_kernels(s, k, &mut kernels);
                // Only the lower triangle is defined.
                for j in 0..s {
                    assert_eq!(
                        bits(&fused[j * s + j..(j + 1) * s]),
                        bits(&kernels[j * s + j..(j + 1) * s]),
                        "{} s={s} k={k} column {j}",
                        T::NAME
                    );
                }
            }
        }
        assert!(covered > 300, "the predicate must admit the small shapes ({covered})");
        assert!(!front_is_small(40, 17) && !front_is_small(200, 4));
    }

    #[test]
    fn factor_front_small_is_bitwise_the_kernel_sequence() {
        check_factor::<f64>();
        check_factor::<f32>();
    }

    #[test]
    fn factor_front_small_reports_the_failing_column() {
        let (s, k) = (6, 4);
        let mut a = spd::<f64>(s, 3);
        a[2 + 2 * s] = -1.0;
        let mut b = a.clone();
        let err = factor_front_small(s, k, &mut a).unwrap_err();
        assert_eq!(err, potrf(k, &mut b, s).unwrap_err());
        assert_eq!(err.column, 2);
    }

    fn check_solves<T: Scalar>() {
        for s in 1..=48usize {
            for k in 1..=s.min(17) {
                let m = s - k;
                if !panel_is_small(k, m) {
                    continue;
                }
                let mut panel = spd::<T>(s, (s * 17 + k) as u64);
                factor_with_kernels(s, k, &mut panel);
                for nrhs in [1usize, 3] {
                    let rhs = spd::<T>(s.max(nrhs), 99);
                    // Forward: kernels on gathered blocks vs fused, per column.
                    let mut xk: Vec<T> = (0..k * nrhs).map(|i| rhs[i]).collect();
                    let mut ub: Vec<T> = (0..m * nrhs).map(|i| rhs[k * nrhs + i]).collect();
                    let (mut xf, mut uf) = (xk.clone(), ub.clone());
                    trsm_left_lower_notrans_multi(k, nrhs, &panel, s, &mut xk, k);
                    if m > 0 {
                        let (l2, one) = (&panel[k..], T::ONE);
                        gemm_multi_rhs(
                            Transpose::No,
                            m,
                            nrhs,
                            k,
                            one,
                            l2,
                            s,
                            &xk,
                            k,
                            one,
                            &mut ub,
                            m,
                        );
                    }
                    for j in 0..nrhs {
                        let (x, u) = (&mut xf[j * k..(j + 1) * k], &mut uf[j * m..(j + 1) * m]);
                        forward_panel_small(k, m, &panel, s, x, u);
                    }
                    assert_eq!(bits(&xf), bits(&xk), "{} forward x s={s} k={k}", T::NAME);
                    assert_eq!(bits(&uf), bits(&ub), "{} forward u s={s} k={k}", T::NAME);
                    // Backward, from the forward results.
                    let mut xb = xk.clone();
                    let mut xg = xk.clone();
                    if m > 0 {
                        let (l2, one) = (&panel[k..], T::ONE);
                        gemm_multi_rhs(
                            Transpose::Yes,
                            k,
                            nrhs,
                            m,
                            -one,
                            l2,
                            s,
                            &ub,
                            m,
                            one,
                            &mut xb,
                            k,
                        );
                    }
                    trsm_left_lower_trans_multi(k, nrhs, &panel, s, &mut xb, k);
                    for j in 0..nrhs {
                        let x = &mut xg[j * k..(j + 1) * k];
                        backward_panel_small(k, m, &panel, s, x, &ub[j * m..(j + 1) * m]);
                    }
                    assert_eq!(bits(&xg), bits(&xb), "{} backward s={s} k={k}", T::NAME);
                }
            }
        }
        assert!(panel_is_small(16, 30) && !panel_is_small(17, 1) && !panel_is_small(16, 600));
    }

    #[test]
    fn panel_sweeps_are_bitwise_the_kernel_sequences() {
        check_solves::<f64>();
        check_solves::<f32>();
    }
}
