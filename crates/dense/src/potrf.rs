//! Dense Cholesky factorization (lower).
//!
//! The blocked right-looking algorithm mirrors the structure the paper
//! assigns to each factor-update call: an unblocked `potrf` on the diagonal
//! block, a `trsm` on the panel below it, and a `syrk` trailing update —
//! exactly the decomposition that the GPU panel algorithm of Figure 9
//! performs with width `w` panels on the device.

use crate::syrk::syrk_lower;
use crate::trsm::trsm_right_lower_trans;
use crate::Scalar;

/// Failure of Cholesky factorization: a non-positive pivot was encountered,
/// meaning the matrix is not (numerically) positive definite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PotrfError {
    /// Zero-based column at which the non-positive pivot appeared.
    pub column: usize,
}

impl std::fmt::Display for PotrfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix not positive definite: non-positive pivot at column {}", self.column)
    }
}

impl std::error::Error for PotrfError {}

/// Default block size for the blocked algorithm.
pub const POTRF_BLOCK: usize = 64;

/// Unblocked lower Cholesky of the `n × n` leading block of `a` (leading
/// dimension `lda`). Only the lower triangle is referenced/written.
pub fn potrf_unblocked<T: Scalar>(n: usize, a: &mut [T], lda: usize) -> Result<(), PotrfError> {
    potrf_unblocked_offset(n, a, lda, 0)
}

pub(crate) fn potrf_unblocked_offset<T: Scalar>(
    n: usize,
    a: &mut [T],
    lda: usize,
    col_offset: usize,
) -> Result<(), PotrfError> {
    debug_assert!(n == 0 || (lda >= n && a.len() >= (n - 1) * lda + n));
    for j in 0..n {
        // d = a[j][j] − Σ_{l<j} L[j,l]²
        let mut d = a[j + j * lda];
        for l in 0..j {
            let v = a[j + l * lda];
            d -= v * v;
        }
        // `!(d > 0)` rather than `d <= 0`: NaN pivots must also fail.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(d > T::ZERO) || !d.is_finite() {
            return Err(PotrfError { column: col_offset + j });
        }
        let djj = d.sqrt();
        a[j + j * lda] = djj;
        let inv = T::ONE / djj;
        // Column below the pivot: L[i,j] = (a[i,j] − Σ_l L[i,l]·L[j,l]) / L[j,j]
        for l in 0..j {
            let ljl = a[j + l * lda];
            if ljl == T::ZERO {
                continue;
            }
            // Split so we can read column l while writing column j.
            let (left, right) = a.split_at_mut(j * lda);
            let src = &left[l * lda + j + 1..l * lda + n];
            let dst = &mut right[j + 1..n];
            for (dv, &sv) in dst.iter_mut().zip(src) {
                *dv -= ljl * sv;
            }
        }
        for v in &mut a[j * lda + j + 1..j * lda + n] {
            *v *= inv;
        }
    }
    Ok(())
}

/// Blocked lower Cholesky: factor the `n × n` leading block of `a`
/// (leading dimension `lda`) in place. On success the lower triangle holds
/// `L` with `A = L·Lᵀ`; the strict upper triangle is untouched.
pub fn potrf<T: Scalar>(n: usize, a: &mut [T], lda: usize) -> Result<(), PotrfError> {
    potrf_blocked(n, a, lda, POTRF_BLOCK)
}

/// Blocked Cholesky with an explicit block size (used by tests and by the
/// GPU panel algorithm which picks its own panel width `w`).
pub fn potrf_blocked<T: Scalar>(
    n: usize,
    a: &mut [T],
    lda: usize,
    nb: usize,
) -> Result<(), PotrfError> {
    potrf_blocked_offset(n, a, lda, nb, 0)
}

/// Unblocked fallback threshold: diagonal blocks at or below this order are
/// factored by the scalar routine; larger ones recurse so their own trailing
/// updates run as (small) `trsm`/`syrk` calls instead of scalar column ops.
pub(crate) const POTRF_UNBLOCKED_MAX: usize = 16;

fn potrf_blocked_offset<T: Scalar>(
    n: usize,
    a: &mut [T],
    lda: usize,
    nb: usize,
    col_offset: usize,
) -> Result<(), PotrfError> {
    assert!(nb > 0, "block size must be positive");
    if n == 0 {
        return Ok(());
    }
    debug_assert!(lda >= n && a.len() >= (n - 1) * lda + n);
    // Only a matrix of more than one block has a panel solve to stage.
    let mut diag_scratch = if n > nb { vec![T::ZERO; nb * nb] } else { Vec::new() };
    let mut j = 0;
    while j < n {
        let jb = nb.min(n - j);
        let rest = n - j - jb;
        // Diagonal block factorization: recurse with a quarter block while
        // the block is big enough to profit, scalar loops below that.
        {
            let diag = &mut a[j * lda + j..];
            if jb > POTRF_UNBLOCKED_MAX && nb > POTRF_UNBLOCKED_MAX {
                potrf_blocked_offset(
                    jb,
                    diag,
                    lda,
                    (nb / 4).max(POTRF_UNBLOCKED_MAX),
                    col_offset + j,
                )?;
            } else {
                potrf_unblocked_offset(jb, diag, lda, col_offset + j)?;
            }
        }
        if rest > 0 {
            // Panel solve: A[j+jb.., j..j+jb] · L_diagᵀ⁻¹. The diagonal block
            // and the panel interleave within the same columns, so copy the
            // (small) factored diagonal block to scratch for aliasing-free
            // access.
            for c in 0..jb {
                for r in c..jb {
                    diag_scratch[r + c * jb] = a[(j + r) + (j + c) * lda];
                }
            }
            let below = &mut a[j * lda + j + jb..];
            trsm_right_lower_trans(rest, jb, &diag_scratch, jb, below, lda);
            // Trailing update: A[j+jb.., j+jb..] −= panel · panelᵀ.
            let (panel_cols, trailing) = a.split_at_mut((j + jb) * lda);
            let panel = &panel_cols[j * lda + j + jb..];
            let c = &mut trailing[j + jb..];
            syrk_lower(rest, jb, -T::ONE, panel, lda, T::ONE, c, lda);
        }
        j += jb;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{random_spd, DenseMat};
    use crate::reference::potrf_ref;

    #[test]
    fn matches_reference_and_reconstructs() {
        for &n in &[1usize, 2, 3, 5, 16, 33, 64, 65, 130, 200] {
            let a0 = random_spd::<f64>(n, n as u64);
            let mut a = a0.clone();
            potrf(n, a.as_mut_slice(), n).unwrap();
            a.zero_upper();

            let mut aref = a0.clone();
            potrf_ref(&mut aref).unwrap();
            aref.zero_upper();
            assert!(a.max_abs_diff(&aref) < 1e-9 * n as f64, "n={n} vs reference");

            // L·Lᵀ must reconstruct the (symmetrized) input.
            let mut sym = a0.clone();
            sym.symmetrize_from_lower();
            let recon = a.matmul(&a.transpose());
            assert!(recon.max_abs_diff(&sym) < 1e-8 * n as f64, "n={n} reconstruction");
        }
    }

    #[test]
    fn block_size_invariance() {
        let n = 97;
        let a0 = random_spd::<f64>(n, 7);
        let mut a1 = a0.clone();
        let mut a2 = a0.clone();
        let mut a3 = a0.clone();
        potrf_blocked(n, a1.as_mut_slice(), n, 1).unwrap();
        potrf_blocked(n, a2.as_mut_slice(), n, 8).unwrap();
        potrf_blocked(n, a3.as_mut_slice(), n, 1024).unwrap();
        a1.zero_upper();
        a2.zero_upper();
        a3.zero_upper();
        assert!(a1.max_abs_diff(&a2) < 1e-10);
        assert!(a1.max_abs_diff(&a3) < 1e-10);
    }

    #[test]
    fn detects_indefinite_matrix_with_column() {
        // Make entry (3,3) impossible to factor.
        let n = 6;
        let mut a = random_spd::<f64>(n, 9);
        a[(3, 3)] = -100.0;
        let err = potrf(n, a.as_mut_slice(), n).unwrap_err();
        assert_eq!(err.column, 3);
    }

    #[test]
    fn detects_zero_matrix() {
        let mut a = DenseMat::<f64>::zeros(4, 4);
        let err = potrf(4, a.as_mut_slice(), 4).unwrap_err();
        assert_eq!(err.column, 0);
    }

    #[test]
    fn single_precision_factorization() {
        let n = 50;
        let a0 = random_spd::<f32>(n, 3);
        let mut a = a0.clone();
        potrf(n, a.as_mut_slice(), n).unwrap();
        a.zero_upper();
        let mut sym = a0.clone();
        sym.symmetrize_from_lower();
        let recon = a.matmul(&a.transpose());
        // f32 tolerance: scaled by norm.
        let tol = 1e-4 * sym.frob_norm();
        assert!(recon.max_abs_diff(&sym) < tol);
    }

    #[test]
    fn empty_matrix_ok() {
        let mut a: Vec<f64> = vec![];
        assert!(potrf(0, &mut a, 1).is_ok());
    }

    #[test]
    fn error_display() {
        let e = PotrfError { column: 5 };
        assert!(e.to_string().contains("column 5"));
    }
}
