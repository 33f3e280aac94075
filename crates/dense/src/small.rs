//! The fused factor-update body for small fronts.
//!
//! A multifrontal factorization of a 2-D problem spends its time in tens of
//! thousands of fronts a few rows wide. On such shapes every public kernel
//! takes its unblocked, unpacked branch after a dispatch that costs as much
//! as the arithmetic: shape checks, a scratch allocation, a pivot-block
//! copy, a strided gather. [`factor_front_small`] runs, for one front,
//! **the same scalar operations in the same order** as those branches, with
//! the dispatch decided once by a predicate and each panel column read once.
//! It is bitwise interchangeable with the kernel sequence it replaces
//! whenever its predicate holds — the unit tests compare bits over every
//! small shape.

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

/// The factor-update of one small front, in place in its two buffers:
/// `potrf` of the `k × k` pivot block and `trsm` of the `m × k` block below
/// it in `panel` (`s × k`, leading dimension `s`), then `syrk` of `L₂·L₂ᵀ`
/// into the trailing `m × m` block `update` (leading dimension `m`); lower
/// triangles only, the strictly-upper triangle of the pivot block is never
/// written. Requires [`front_is_small`]`(s, k)`; the error column is
/// front-local.
pub fn factor_front_small<T: Scalar>(
    s: usize,
    k: usize,
    panel: &mut [T],
    update: &mut [T],
) -> Result<(), PotrfError> {
    let m = s - k;
    debug_assert!(front_is_small(s, k) && panel.len() >= s * k && update.len() >= m * m);
    potrf_unblocked_offset(k, panel, s, 0)?;
    if m == 0 {
        return Ok(());
    }
    // Panel solve X·L₁ᵀ = A₂, column by column: the pivot block (rows < k)
    // and the panel (rows ≥ k) share their columns, and column j only reads
    // columns l < j, so a split at column j borrows both.
    for j in 0..k {
        let (done, rest) = panel.split_at_mut(j * s);
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
    syrk_accum(m, k, -T::ONE, &panel[k..], s, update, m);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{potrf, syrk_lower, trsm_right_lower_trans};

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

    /// The front `a` (`s × s`, full) as the two buffers a factor-update
    /// runs on: the `s × k` panel with its strictly-upper triangle zero, as
    /// a fresh factor slab leaves it, and the trailing block packed at
    /// leading dimension `m`.
    fn two_buffers<T: Scalar>(a: &[T], s: usize, k: usize) -> (Vec<T>, Vec<T>) {
        let mut panel = a[..s * k].to_vec();
        for j in 0..k {
            panel[j * s..j * s + j].fill(T::ZERO);
        }
        let m = s - k;
        let update = (0..m).flat_map(|j| a[(k + j) * s + k..(k + j + 1) * s].to_vec()).collect();
        (panel, update)
    }

    fn check_factor<T: Scalar>() {
        let mut covered = 0;
        for s in 1..=40usize {
            for k in 1..=s.min(17) {
                if !front_is_small(s, k) {
                    continue;
                }
                covered += 1;
                let m = s - k;
                let mut kernels = spd::<T>(s, (s * 31 + k) as u64);
                let (mut panel, mut update) = two_buffers(&kernels, s, k);
                factor_front_small(s, k, &mut panel, &mut update).unwrap();
                factor_with_kernels(s, k, &mut kernels);
                // Only the lower triangle is defined; the pivot block's upper
                // triangle stays as zero as the slab was.
                for j in 0..k {
                    assert_eq!(
                        bits(&panel[j * s..(j + 1) * s]),
                        bits(&[&vec![T::ZERO; j][..], &kernels[j * s + j..(j + 1) * s]].concat()),
                        "{} s={s} k={k} panel column {j}",
                        T::NAME
                    );
                }
                for j in 0..m {
                    assert_eq!(
                        bits(&update[j * m + j..(j + 1) * m]),
                        bits(&kernels[(k + j) * s + k + j..(k + j + 1) * s]),
                        "{} s={s} k={k} update column {j}",
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
        let (mut panel, mut update) = two_buffers(&a, s, k);
        let mut b = a.clone();
        let err = factor_front_small(s, k, &mut panel, &mut update).unwrap_err();
        assert_eq!(err, potrf(k, &mut b, s).unwrap_err());
        assert_eq!(err.column, 2);
    }
}
