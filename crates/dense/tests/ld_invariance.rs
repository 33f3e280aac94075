//! The leading dimension of a block never changes a bit.
//!
//! A multifrontal factor-update may write its `syrk` into the trailing block
//! of an `s × s` front (leading dimension `s`) or into a packed `m × m`
//! update block (leading dimension `m`), and the solve sweeps read a panel
//! at whatever leading dimension it has. Every kernel — the seed loop nests
//! below the packing threshold, the packed engine above it, and the sweeps
//! that follow both orders — fixes the operation order of every output
//! element by the shapes alone (the engine accumulates each `KC` block into
//! registers, then `c = fma(acc, α, c)`; the loop nests run column by
//! column), so the same call at two leading dimensions must give the same
//! bits in every referenced entry and leave the padding between columns
//! untouched.

use mf_dense::{gemm, syrk_lower, Scalar, Transpose};

fn random<T: Scalar>(len: usize, seed: u64) -> Vec<T> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            T::from_f64((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        })
        .collect()
}

/// The `rows × cols` block `c` (leading dimension `rows`) at leading
/// dimension `rows + pad`, the padding rows NaN.
fn strided<T: Scalar>(c: &[T], rows: usize, cols: usize, pad: usize) -> Vec<T> {
    let ld = rows + pad;
    let mut out = vec![T::from_f64(f64::NAN); ld * cols];
    for j in 0..cols {
        out[j * ld..j * ld + rows].copy_from_slice(&c[j * rows..(j + 1) * rows]);
    }
    out
}

/// Bits of rows `from(j)..rows` of every column of a block at leading
/// dimension `ld`, and whether every padding entry is still NaN.
fn referenced<T: Scalar>(
    c: &[T],
    rows: usize,
    cols: usize,
    ld: usize,
    from: impl Fn(usize) -> usize,
) -> (Vec<u64>, bool) {
    let bits = (0..cols)
        .flat_map(|j| c[j * ld + from(j)..j * ld + rows].iter().map(|x| x.to_f64().to_bits()))
        .collect();
    let pad_clean =
        (0..cols).all(|j| c[j * ld + rows..(j + 1) * ld].iter().all(|x| x.to_f64().is_nan()));
    (bits, pad_clean)
}

fn check<T: Scalar>() {
    const PAD: usize = 7;
    let (alpha, beta) = (-T::ONE, T::ONE);
    // (n, k): below the packing threshold (seed loop nests), then above it
    // (packed engine, with partial register tiles and several KC blocks).
    for (n, k) in [(9usize, 5usize), (13, 17), (96, 40), (131, 300)] {
        let a = random::<T>(n * k, (n * 7 + k) as u64);
        let c0 = random::<T>(n * n, 99);
        let (mut packed, mut padded) = (c0.clone(), strided(&c0, n, n, PAD));
        syrk_lower(n, k, alpha, &a, n, beta, &mut packed, n);
        syrk_lower(n, k, alpha, &a, n, beta, &mut padded, n + PAD);
        let (want, _) = referenced(&packed, n, n, n, |j| j);
        let (got, clean) = referenced(&padded, n, n, n + PAD, |j| j);
        assert_eq!(got, want, "{} syrk_lower n={n} k={k}", T::NAME);
        assert!(clean, "{} syrk_lower n={n} k={k} wrote the padding", T::NAME);
    }
    for (m, n, kk) in [(7usize, 5usize, 3usize), (20, 9, 11), (97, 66, 45), (130, 70, 260)] {
        let a = random::<T>(m * kk, (m + kk) as u64);
        let b = random::<T>(n * kk, (n * 3 + kk) as u64);
        let c0 = random::<T>(m * n, 5);
        let (mut packed, mut padded) = (c0.clone(), strided(&c0, m, n, PAD));
        gemm(Transpose::No, Transpose::Yes, m, n, kk, alpha, &a, m, &b, n, beta, &mut packed, m);
        let ld = m + PAD;
        gemm(Transpose::No, Transpose::Yes, m, n, kk, alpha, &a, m, &b, n, beta, &mut padded, ld);
        let (want, _) = referenced(&packed, m, n, m, |_| 0);
        let (got, clean) = referenced(&padded, m, n, ld, |_| 0);
        assert_eq!(got, want, "{} gemm {m}x{n}x{kk}", T::NAME);
        assert!(clean, "{} gemm {m}x{n}x{kk} wrote the padding", T::NAME);
    }
    // The solve sweeps read a panel at any leading dimension: a supernode's
    // panel sits in the factor slab at leading dimension k + m.
    for (k, m, nrhs) in [(6usize, 4usize, 3usize), (40, 90, 8), (100, 150, 5), (560, 20, 2)] {
        let s = k + m;
        let mut a = random::<T>(s * k, (k * 5 + m) as u64);
        for j in 0..k {
            a[j + j * s] = T::from_f64(s as f64);
        }
        let padded = strided(&a, s, k, PAD);
        let x0 = random::<T>(k * nrhs, 23);
        let u0 = random::<T>(m * nrhs, 29);
        let sweep = |panel: &[T], ld: usize| {
            let (mut x, mut u) = (x0.clone(), u0.clone());
            mf_dense::forward_panel(k, m, nrhs, panel, ld, &mut x, &mut u);
            mf_dense::backward_panel(k, m, nrhs, panel, ld, &mut x, &u);
            [x, u].concat().iter().map(|v| v.to_f64().to_bits()).collect::<Vec<u64>>()
        };
        assert_eq!(sweep(&padded, s + PAD), sweep(&a, s), "{} sweeps k={k} m={m}", T::NAME);
    }
}

#[test]
fn output_leading_dimension_never_changes_bits() {
    check::<f64>();
    check::<f32>();
}
