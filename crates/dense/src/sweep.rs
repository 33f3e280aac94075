//! RHS-blocked sweeps through one supernodal panel: the forward and backward
//! substitution steps of the supernodal triangular solve.
//!
//! A supernode's panel `[L₁; L₂]` (`(k + m) × k`, leading dimension `ld`;
//! only the lower triangle of `L₁` is read) is applied to a block of up to
//! [`RHS_BLOCK`] right-hand sides held **RHS-interleaved**: row `i` of a
//! block is the `nrhs` consecutive scalars `x[i·nrhs..(i + 1)·nrhs]`. Each
//! kernel reads every panel entry once and applies it to all `nrhs` lanes —
//! SIMD across the lanes when `nrhs > 1`. For `nrhs = 1` the forward row
//! updates vectorize down a column and the backward dot products run as
//! independent chains, several panel columns at a time.
//!
//! # The per-column order contract
//!
//! Every lane sees exactly the scalar operations, in exactly the order, of a
//! one-column solve through the blocked kernels: a `TRSM_BLOCK`-wide left
//! triangular solve whose trailing updates, like the `L₂` product, are
//! general products dispatched on their per-column work.
//!
//! * The `L₁` substitution runs column by column as the seed loops do: the
//!   forward sweep skips a column whose solved value is zero, the backward
//!   sweep sums each dot product from `-0.0` in ascending row order.
//! * A product of at least `PACK_MIN_MADDS` multiply-adds per column takes
//!   the packed engine's order: each `KC`-deep block accumulates in a fused
//!   multiply-add chain from zero, then folds in as `c = fma(acc, α, c)`.
//! * Every other product runs the seed loops' order: axpy updates that skip
//!   zero multipliers (forward), dot products from `-0.0` (backward).
//!
//! No operation mixes lanes, so lane `r` of a call is bitwise the same call
//! on lane `r` alone: a solve is invariant under the right-hand-side count
//! and under how the right-hand sides are blocked.

use crate::kernel::{KC, PACK_MIN_MADDS};
use crate::trsm::TRSM_BLOCK;
use crate::Scalar;

/// Most right-hand sides one sweep call takes (it panics on more): a wider
/// block is swept in groups of at most this many.
pub const RHS_BLOCK: usize = 8;

/// Substitution columns the forward sweep applies in one pass over the rows.
const AXPY_COLUMNS: usize = 4;

/// `$f::<$t, W>($args)` with the lane count `W` the const `$nrhs`.
macro_rules! with_lanes {
    ($nrhs:expr, $f:ident::<$t:ident>($($arg:expr),*)) => {
        match $nrhs {
            0 => {}
            1 => $f::<$t, 1>($($arg),*),
            2 => $f::<$t, 2>($($arg),*),
            3 => $f::<$t, 3>($($arg),*),
            4 => $f::<$t, 4>($($arg),*),
            5 => $f::<$t, 5>($($arg),*),
            6 => $f::<$t, 6>($($arg),*),
            7 => $f::<$t, 7>($($arg),*),
            8 => $f::<$t, 8>($($arg),*),
            n => panic!("a panel sweep takes at most {RHS_BLOCK} right-hand sides, got {n}"),
        }
    };
}

/// Forward substitution through one panel: `x ← L₁⁻¹·x` on the `k` pivot
/// rows, then `u ← u + L₂·x` on the `m` update rows. `x` (`k` rows) and `u`
/// (`m` rows) are RHS-interleaved blocks of `nrhs ≤ RHS_BLOCK` lanes.
pub fn forward_panel<T: Scalar>(
    k: usize,
    m: usize,
    nrhs: usize,
    panel: &[T],
    ld: usize,
    x: &mut [T],
    u: &mut [T],
) {
    debug_assert!(k == 0 || (ld >= k + m && panel.len() >= (k - 1) * ld + k + m));
    let (x, u) = (&mut x[..k * nrhs], &mut u[..m * nrhs]);
    with_lanes!(nrhs, forward_rows::<T>(panel, ld, x, u));
}

/// Backward substitution through one panel: `x ← L₁⁻ᵀ·(x − L₂ᵀ·xu)` on the
/// `k` pivot rows, `xu` holding the `m` already-final update rows. Both are
/// RHS-interleaved blocks of `nrhs ≤ RHS_BLOCK` lanes.
pub fn backward_panel<T: Scalar>(
    k: usize,
    m: usize,
    nrhs: usize,
    panel: &[T],
    ld: usize,
    x: &mut [T],
    xu: &[T],
) {
    debug_assert!(k == 0 || (ld >= k + m && panel.len() >= (k - 1) * ld + k + m));
    let (x, xu) = (&mut x[..k * nrhs], &xu[..m * nrhs]);
    with_lanes!(nrhs, backward_rows::<T>(panel, ld, x, xu));
}

fn forward_rows<T: Scalar, const W: usize>(panel: &[T], ld: usize, x: &mut [T], u: &mut [T]) {
    let (x, u) = (x.as_chunks_mut::<W>().0, u.as_chunks_mut::<W>().0);
    let (k, m) = (x.len(), u.len());
    let u_packed = m * k >= PACK_MIN_MADDS;
    for j0 in (0..k).step_by(TRSM_BLOCK) {
        let j1 = (j0 + TRSM_BLOCK).min(k);
        // The rows below a diagonal block take one product per block; below
        // the packing threshold it is the substitution's own axpy order.
        let below_packed = (k - j1) * (j1 - j0) >= PACK_MIN_MADDS;
        let end = if below_packed { j1 } else { k };
        let mut j = j0;
        while j < j1 {
            j += match j1 - j {
                AXPY_COLUMNS.. => {
                    forward_columns::<T, W, AXPY_COLUMNS>(j, end, !u_packed, panel, ld, x, u)
                }
                2.. => forward_columns::<T, W, 2>(j, end, !u_packed, panel, ld, x, u),
                _ => forward_columns::<T, W, 1>(j, end, !u_packed, panel, ld, x, u),
            };
        }
        if below_packed {
            let (solved, below) = x.split_at_mut(j1);
            fma_rows(-T::ONE, &panel[j1 + j0 * ld..], ld, &solved[j0..], below);
        }
    }
    if u_packed {
        for p0 in (0..k).step_by(KC) {
            fma_rows(T::ONE, &panel[k + p0 * ld..], ld, &x[p0..(p0 + KC).min(k)], u);
        }
    }
}

/// Substitution columns `j..j + C`: solve their pivot rows one column at a
/// time, then subtract all `C` from the rows `j + C..end` of `x` and (when
/// `with_u`) add them to `u`, each row taking the columns in ascending
/// order — the seed loop's order, with one pass over the rows. Returns `C`.
#[inline(always)]
fn forward_columns<T: Scalar, const W: usize, const C: usize>(
    j: usize,
    end: usize,
    with_u: bool,
    panel: &[T],
    ld: usize,
    x: &mut [[T; W]],
    u: &mut [[T; W]],
) -> usize {
    let s = x.len() + u.len();
    let cols: [&[T]; C] = std::array::from_fn(|c| &panel[(j + c) * ld..(j + c) * ld + s]);
    for c in 0..C {
        let xj = x[j + c].map(|v| v / cols[c][j + c]);
        x[j + c] = xj;
        for i in c + 1..C {
            for r in 0..W {
                if xj[r] != T::ZERO {
                    x[j + i][r] -= xj[r] * cols[c][j + i];
                }
            }
        }
    }
    let mult: [[T; W]; C] = std::array::from_fn(|c| x[j + c]);
    let below = std::array::from_fn(|c| &cols[c][j + C..end]);
    axpy_columns::<T, W, C, false>(&mult, below, &mut x[j + C..end]);
    if with_u {
        let k = x.len();
        axpy_columns::<T, W, C, true>(&mult, std::array::from_fn(|c| &cols[c][k..]), u);
    }
    C
}

/// `rows[i] ← rows[i] ± mult[c]·cols[c][i]` for `c` ascending, skipping the
/// lanes whose multiplier is zero.
#[inline(always)]
fn axpy_columns<T: Scalar, const W: usize, const C: usize, const ADD: bool>(
    mult: &[[T; W]; C],
    cols: [&[T]; C],
    rows: &mut [[T; W]],
) {
    let live = mult.map(|m| m.map(|v| v != T::ZERO));
    let step = |acc: T, m: T, l: T| if ADD { acc + m * l } else { acc - m * l };
    let cols = cols.map(|col| &col[..rows.len()]);
    if live == [[true; W]; C] {
        for (i, row) in rows.iter_mut().enumerate() {
            for c in 0..C {
                let l = cols[c][i];
                for r in 0..W {
                    row[r] = step(row[r], mult[c][r], l);
                }
            }
        }
    } else if live != [[false; W]; C] {
        for (i, row) in rows.iter_mut().enumerate() {
            for c in 0..C {
                let l = cols[c][i];
                for r in 0..W {
                    row[r] = if live[c][r] { step(row[r], mult[c][r], l) } else { row[r] };
                }
            }
        }
    }
}

/// `dst[i] ← fma(Σ_l a[i + l·ld]·src[l], α, dst[i])`, the sum a fused
/// chain from zero in ascending `l` — one packed-engine block.
fn fma_rows<T: Scalar, const W: usize>(
    alpha: T,
    a: &[T],
    ld: usize,
    src: &[[T; W]],
    dst: &mut [[T; W]],
) {
    // Narrow rows take taller tiles, so the accumulators fill the registers.
    if W * T::BYTES <= 8 {
        fma_tiles::<T, W, 16>(alpha, a, ld, src, dst)
    } else {
        fma_tiles::<T, W, 8>(alpha, a, ld, src, dst)
    }
}

fn fma_tiles<T: Scalar, const W: usize, const R: usize>(
    alpha: T,
    a: &[T],
    ld: usize,
    src: &[[T; W]],
    dst: &mut [[T; W]],
) {
    let (tiles, rest) = dst.as_chunks_mut::<R>();
    let tail = tiles.len() * R;
    for (t, tile) in tiles.iter_mut().enumerate() {
        fma_tile(alpha, &a[t * R..], ld, src, tile);
    }
    for (i, row) in rest.iter_mut().enumerate() {
        fma_tile(alpha, &a[tail + i..], ld, src, std::array::from_mut(row));
    }
}

#[inline(always)]
fn fma_tile<T: Scalar, const W: usize, const R: usize>(
    alpha: T,
    a: &[T],
    ld: usize,
    src: &[[T; W]],
    dst: &mut [[T; W]; R],
) {
    let mut acc = [[T::ZERO; W]; R];
    for (l, s) in src.iter().enumerate() {
        let a: &[T; R] = a[l * ld..][..R].try_into().unwrap();
        for i in 0..R {
            for r in 0..W {
                acc[i][r] = a[i].mul_add(s[r], acc[i][r]);
            }
        }
    }
    for i in 0..R {
        for r in 0..W {
            dst[i][r] = acc[i][r].mul_add(alpha, dst[i][r]);
        }
    }
}

fn backward_rows<T: Scalar, const W: usize>(panel: &[T], ld: usize, x: &mut [T], xu: &[T]) {
    let (x, xu) = (x.as_chunks_mut::<W>().0, xu.as_chunks::<W>().0);
    let (k, m) = (x.len(), xu.len());
    if m > 0 {
        dot_columns(m * k >= PACK_MIN_MADDS, &panel[k..], ld, xu, x);
    }
    for j0 in (0..k).step_by(TRSM_BLOCK).rev() {
        let j1 = (j0 + TRSM_BLOCK).min(k);
        let (head, solved) = x.split_at_mut(j1);
        let block = &mut head[j0..];
        if !solved.is_empty() {
            let packed = solved.len() * (j1 - j0) >= PACK_MIN_MADDS;
            dot_columns(packed, &panel[j1 + j0 * ld..], ld, solved, block);
        }
        for j in (0..j1 - j0).rev() {
            let col = &panel[(j0 + j) * ld + j0..(j0 + j) * ld + j1];
            let mut dot = [-T::ZERO; W];
            for (xi, &l) in block[j + 1..].iter().zip(&col[j + 1..]) {
                for r in 0..W {
                    dot[r] += l * xi[r];
                }
            }
            for r in 0..W {
                block[j][r] = (block[j][r] - dot[r]) / col[j];
            }
        }
    }
}

/// `dst[c] ← dst[c] − Σ_l a[l + c·ld]·src[l]` for every `c`, in the packed
/// engine's order when `packed`, the seed dot's otherwise; a few columns
/// side by side, so their chains overlap.
fn dot_columns<T: Scalar, const W: usize>(
    packed: bool,
    a: &[T],
    ld: usize,
    src: &[[T; W]],
    dst: &mut [[T; W]],
) {
    if W * T::BYTES <= 32 {
        dot_groups::<T, W, 8>(packed, a, ld, src, dst)
    } else {
        dot_groups::<T, W, 4>(packed, a, ld, src, dst)
    }
}

fn dot_groups<T: Scalar, const W: usize, const C: usize>(
    packed: bool,
    a: &[T],
    ld: usize,
    src: &[[T; W]],
    dst: &mut [[T; W]],
) {
    let (groups, rest) = dst.as_chunks_mut::<C>();
    for (g, group) in groups.iter_mut().enumerate() {
        chains(packed, &a[g * C * ld..], ld, src, group);
    }
    let tail = groups.len() * C;
    let (pairs, rest) = rest.as_chunks_mut::<2>();
    for (g, pair) in pairs.iter_mut().enumerate() {
        chains(packed, &a[(tail + g * 2) * ld..], ld, src, pair);
    }
    if let [one] = rest {
        let c = tail + pairs.len() * 2;
        chains(packed, &a[c * ld..], ld, src, std::array::from_mut(one));
    }
}

#[inline(always)]
fn chains<T: Scalar, const W: usize, const C: usize>(
    packed: bool,
    a: &[T],
    ld: usize,
    src: &[[T; W]],
    dst: &mut [[T; W]; C],
) {
    let n = src.len();
    let cols: [&[T]; C] = std::array::from_fn(|c| &a[c * ld..][..n]);
    if packed {
        for (b, block) in src.chunks(KC).enumerate() {
            let mut acc = [[T::ZERO; W]; C];
            for (l, s) in (b * KC..).zip(block) {
                for c in 0..C {
                    let a = cols[c][l];
                    for r in 0..W {
                        acc[c][r] = a.mul_add(s[r], acc[c][r]);
                    }
                }
            }
            for c in 0..C {
                for r in 0..W {
                    dst[c][r] = acc[c][r].mul_add(-T::ONE, dst[c][r]);
                }
            }
        }
    } else {
        let mut dot = [[-T::ZERO; W]; C];
        for (l, s) in src.iter().enumerate() {
            for c in 0..C {
                let a = cols[c][l];
                for r in 0..W {
                    dot[c][r] += a * s[r];
                }
            }
        }
        for c in 0..C {
            for r in 0..W {
                dst[c][r] += -T::ONE * dot[c][r];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::random_spd;
    use crate::potrf::potrf;
    use std::ops::Range;

    /// A `(k + m) × k` panel at leading dimension `ld`: a well-conditioned
    /// lower trapezoid with a few exact zeros, NaN in the padding rows and
    /// in the strictly-upper triangle, which no kernel may read.
    fn panel<T: Scalar>(k: usize, m: usize, ld: usize, seed: u64) -> Vec<T> {
        let s = k + m;
        let mut v = values(ld * k, seed);
        for j in 0..k {
            for i in 0..ld {
                let cell = &mut v[i + j * ld];
                if i < j || i >= s {
                    *cell = T::from_f64(f64::NAN);
                } else if i == j {
                    *cell = T::from_f64(s as f64 + 1.0) + *cell;
                }
            }
        }
        v
    }

    /// Values in `[-0.5, 0.5)` with exact zeros of both signs mixed in, so
    /// the skip branches and signed-zero sums are exercised.
    fn values<T: Scalar>(len: usize, seed: u64) -> Vec<T> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                match s % 11 {
                    0 => T::ZERO,
                    1 => -T::ZERO,
                    _ => T::from_f64((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5),
                }
            })
            .collect()
    }

    /// `dst[i] += α·Σ_l L[i, l]·src[l]` over panel rows `rows` and columns
    /// `cols`, one right-hand side: the per-column order of a
    /// non-transposed product with `m·kk` multiply-adds per column.
    fn product<T: Scalar>(
        alpha: T,
        a: &[T],
        ld: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        src: &[T],
        dst: &mut [T],
    ) {
        if rows.len() * cols.len() < PACK_MIN_MADDS {
            for l in cols.clone() {
                let b = alpha * src[l - cols.start];
                if b == T::ZERO {
                    continue;
                }
                for i in rows.clone() {
                    dst[i - rows.start] += b * a[i + l * ld];
                }
            }
        } else {
            for p0 in cols.clone().step_by(KC) {
                for i in rows.clone() {
                    let mut acc = T::ZERO;
                    for l in p0..(p0 + KC).min(cols.end) {
                        acc = a[i + l * ld].mul_add(src[l - cols.start], acc);
                    }
                    dst[i - rows.start] = acc.mul_add(alpha, dst[i - rows.start]);
                }
            }
        }
    }

    /// `dst[c] += α·Σ_l L[l, c]·src[l]` over panel rows `rows` and columns
    /// `cols`: the per-column order of a transposed product.
    fn product_t<T: Scalar>(
        alpha: T,
        a: &[T],
        ld: usize,
        rows: Range<usize>,
        cols: Range<usize>,
        src: &[T],
        dst: &mut [T],
    ) {
        for c in cols.clone() {
            let d = &mut dst[c - cols.start];
            if rows.len() * cols.len() < PACK_MIN_MADDS {
                let dot: T = rows.clone().map(|l| a[l + c * ld] * src[l - rows.start]).sum();
                *d += alpha * dot;
            } else {
                for p0 in rows.clone().step_by(KC) {
                    let mut acc = T::ZERO;
                    for l in p0..(p0 + KC).min(rows.end) {
                        acc = a[l + c * ld].mul_add(src[l - rows.start], acc);
                    }
                    *d = acc.mul_add(alpha, *d);
                }
            }
        }
    }

    /// One right-hand side through a blocked forward `trsm` (seed
    /// substitution per diagonal block, one product for the rows below it),
    /// then `u += L₂·x`.
    fn forward_reference<T: Scalar>(
        k: usize,
        m: usize,
        a: &[T],
        ld: usize,
        x: &mut [T],
        u: &mut [T],
    ) {
        for j0 in (0..k).step_by(TRSM_BLOCK) {
            let j1 = (j0 + TRSM_BLOCK).min(k);
            for j in j0..j1 {
                let xj = x[j] / a[j + j * ld];
                x[j] = xj;
                if xj == T::ZERO {
                    continue;
                }
                for i in j + 1..j1 {
                    x[i] -= xj * a[i + j * ld];
                }
            }
            let (solved, below) = x.split_at_mut(j1);
            product(-T::ONE, a, ld, j1..k, j0..j1, &solved[j0..], below);
        }
        product(T::ONE, a, ld, k..k + m, 0..k, x, u);
    }

    /// One right-hand side through `x −= L₂ᵀ·xu`, then a blocked backward
    /// `trsm` (bottom-up: one product for the solved rows below a diagonal
    /// block, then seed substitution on it).
    fn backward_reference<T: Scalar>(
        k: usize,
        m: usize,
        a: &[T],
        ld: usize,
        x: &mut [T],
        xu: &[T],
    ) {
        if m > 0 {
            product_t(-T::ONE, a, ld, k..k + m, 0..k, xu, x);
        }
        for j0 in (0..k).step_by(TRSM_BLOCK).rev() {
            let j1 = (j0 + TRSM_BLOCK).min(k);
            let (head, solved) = x.split_at_mut(j1);
            if j1 < k {
                product_t(-T::ONE, a, ld, j1..k, j0..j1, solved, &mut head[j0..]);
            }
            for j in (j0..j1).rev() {
                let dot: T = (j + 1..j1).map(|i| a[i + j * ld] * head[i]).sum();
                head[j] = (head[j] - dot) / a[j + j * ld];
            }
        }
    }

    fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    /// Lane `r` of an interleaved block of `w` lanes.
    fn lane<T: Scalar>(v: &[T], w: usize, r: usize) -> Vec<T> {
        v.iter().skip(r).step_by(w).copied().collect()
    }

    fn check_against_reference<T: Scalar>() {
        // Small panels, the k ≤ 16 diagonal block with a packed L₂ product,
        // blocked L₁ below and above the threshold, several KC blocks of
        // L₂ rows and columns, and packed products below diagonal blocks.
        let shapes = [
            (1, 0),
            (1, 1),
            (3, 1),
            (2, 2),
            (1, 3),
            (5, 0),
            (7, 12),
            (16, 30),
            (16, 600),
            (17, 5),
            (40, 100),
            (40, 300),
            (100, 90),
            (300, 40),
            (560, 20),
        ];
        for (k, m) in shapes {
            let ld = k + m + 3;
            let a = panel::<T>(k, m, ld, (k * 131 + m) as u64);
            for w in 1..=RHS_BLOCK {
                let x0 = values::<T>(k * w, (k + m + w) as u64);
                let u0 = values::<T>(m * w, (k * m + w) as u64);
                let (mut x, mut u) = (x0.clone(), u0.clone());
                forward_panel(k, m, w, &a, ld, &mut x, &mut u);
                let mut xb = x0.clone();
                backward_panel(k, m, w, &a, ld, &mut xb, &u0);
                for r in 0..w {
                    let (mut xr, mut ur) = (lane(&x0, w, r), lane(&u0, w, r));
                    forward_reference(k, m, &a, ld, &mut xr, &mut ur);
                    let what = format!("{} k={k} m={m} nrhs={w} lane {r}", T::NAME);
                    assert_eq!(bits(&lane(&x, w, r)), bits(&xr), "forward x, {what}");
                    assert_eq!(bits(&lane(&u, w, r)), bits(&ur), "forward u, {what}");
                    let mut xr = lane(&x0, w, r);
                    backward_reference(k, m, &a, ld, &mut xr, &lane(&u0, w, r));
                    assert_eq!(bits(&lane(&xb, w, r)), bits(&xr), "backward, {what}");
                }
            }
        }
    }

    #[test]
    fn panel_sweeps_are_bitwise_the_per_column_order() {
        check_against_reference::<f64>();
        check_against_reference::<f32>();
        // x₀ = -0 survives only if the L₂ dot product (one -0 term) is summed
        // from -0.0: then x₀ += +0 turns it into +0 before the substitution.
        let a = [2.0, 0.0, -0.5, f64::NAN, 4.0, 0.25];
        let (mut x, mut xr) = ([-0.0, 1.0], [-0.0, 1.0]);
        backward_panel(2, 1, 1, &a, 3, &mut x, &[0.0]);
        backward_reference(2, 1, &a, 3, &mut xr, &[0.0]);
        assert_eq!(bits(&x), bits(&xr), "signed zero of an L₂ dot product");
    }

    #[test]
    fn panel_sweeps_solve_a_dense_system() {
        // L·Lᵀ·x = b through one square panel (m = 0), blocked and packed.
        for (n, nrhs) in [(1, 1), (25, 3), (90, 8), (600, 2)] {
            let a = random_spd::<f64>(n, 123 + n as u64);
            let mut l = a.clone();
            potrf(n, l.as_mut_slice(), n).unwrap();
            let mut full = a.clone();
            full.symmetrize_from_lower();
            let xtrue = values::<f64>(n * nrhs, 7);
            let mut x = vec![0.0; n * nrhs];
            for i in 0..n {
                for j in 0..n {
                    for r in 0..nrhs {
                        x[i * nrhs + r] += full[(i, j)] * xtrue[j * nrhs + r];
                    }
                }
            }
            forward_panel(n, 0, nrhs, l.as_slice(), n, &mut x, &mut []);
            backward_panel(n, 0, nrhs, l.as_slice(), n, &mut x, &[]);
            let err = x.iter().zip(&xtrue).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            assert!(err < 1e-9, "n={n} nrhs={nrhs}: error {err}");
        }
    }
}
