//! Column-major dense matrix storage.
//!
//! Kernels in this crate follow the BLAS convention: they take raw
//! `(dim…, slice, leading-dimension)` arguments so a kernel can operate on a
//! sub-block of a larger frontal matrix without copying. [`DenseMat`] is the
//! owned convenience wrapper used by tests, examples and the factor storage.

use crate::Scalar;

/// Marker for the storage order used throughout the crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColMajor;

/// An owned, column-major dense matrix with `ld == rows`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMat<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMat<T> {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMat { rows, cols, data: vec![T::ZERO; rows * cols] }
    }

    /// Build from a closure `f(i, j)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut m = Self::zeros(rows, cols);
        for j in 0..cols {
            for i in 0..rows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { T::ONE } else { T::ZERO })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Leading dimension (equals `rows` for owned matrices).
    pub fn ld(&self) -> usize {
        self.rows
    }

    /// Raw column-major data.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw column-major data.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// The transpose, as a new owned matrix.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// `self · other` via the reference product (test helper).
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "inner dimensions must agree");
        let mut c = Self::zeros(self.rows, other.cols);
        for j in 0..other.cols {
            for l in 0..self.cols {
                let b = other[(l, j)];
                for i in 0..self.rows {
                    let add = self[(i, l)] * b;
                    c[(i, j)] += add;
                }
            }
        }
        c
    }

    /// Mirror the strict lower triangle into the upper triangle (in place),
    /// making a lower-stored symmetric matrix explicitly symmetric.
    pub fn symmetrize_from_lower(&mut self) {
        assert_eq!(self.rows, self.cols);
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                let v = self[(i, j)];
                self[(j, i)] = v;
            }
        }
    }

    /// Zero the strict upper triangle (in place) — useful for comparing
    /// lower-triangular results where the upper part is unspecified.
    pub fn zero_upper(&mut self) {
        assert_eq!(self.rows, self.cols);
        for j in 1..self.cols {
            for i in 0..j.min(self.rows) {
                self[(i, j)] = T::ZERO;
            }
        }
    }

    /// Max absolute element-wise difference against `other`.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        self.data.iter().map(|v| v.to_f64() * v.to_f64()).sum::<f64>().sqrt()
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for DenseMat<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i + j * self.rows]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for DenseMat<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }
}

/// A random symmetric positive definite matrix of order `n`, built as
/// `B·Bᵀ + n·I` from uniformly random `B` — used by tests and benches.
pub fn random_spd<T: Scalar>(n: usize, seed: u64) -> DenseMat<T> {
    // Small xorshift so the crate stays dependency-free; quality is ample
    // for generating test matrices.
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        // Map to [-1, 1).
        (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let b = DenseMat::<T>::from_fn(n, n, |_, _| T::from_f64(next()));
    let mut a = b.matmul(&b.transpose());
    for i in 0..n {
        a[(i, i)] += T::from_f64(n as f64);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_col_major_layout() {
        let m = DenseMat::<f64>::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        // Column 0 first, then column 1.
        assert_eq!(m.as_slice(), &[0.0, 10.0, 20.0, 1.0, 11.0, 21.0]);
        assert_eq!(m[(2, 1)], 21.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = DenseMat::<f32>::from_fn(4, 3, |i, j| (i + 7 * j) as f32);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 3)], m[(3, 2)]);
    }

    #[test]
    fn matmul_identity() {
        let m = DenseMat::<f64>::from_fn(5, 5, |i, j| (i * j + 1) as f64);
        let i5 = DenseMat::<f64>::identity(5);
        assert_eq!(m.matmul(&i5), m);
        assert_eq!(i5.matmul(&m), m);
    }

    #[test]
    fn symmetrize_and_zero_upper() {
        let mut m =
            DenseMat::<f64>::from_fn(3, 3, |i, j| if i >= j { (i + j) as f64 } else { 99.0 });
        m.symmetrize_from_lower();
        assert_eq!(m[(0, 2)], m[(2, 0)]);
        m.zero_upper();
        assert_eq!(m[(0, 2)], 0.0);
        assert_eq!(m[(2, 0)], 2.0);
    }

    #[test]
    fn random_spd_is_symmetric_and_pd_diagonal() {
        let a = random_spd::<f64>(8, 42);
        for i in 0..8 {
            assert!(a[(i, i)] > 0.0);
            for j in 0..8 {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn frob_norm_known() {
        let m = DenseMat::<f64>::from_fn(2, 2, |_, _| 2.0);
        assert!((m.frob_norm() - 4.0).abs() < 1e-12);
    }
}
