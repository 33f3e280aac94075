//! The pre-engine kernels: straightforward axpy/dot loop nests.
//!
//! Small problems dispatch here from the public entry points, where packing
//! overhead would outweigh the register-tiled engine (the cutoff is
//! `kernel::PACK_MIN_MADDS` multiply-adds), and the blocked `trsm`
//! solves its diagonal blocks here.

use crate::gemm::axpy;
use crate::{Scalar, Transpose};

/// Accumulate `C += α·op(A)·op(B)` with the seed loop nests (`β` already
/// applied by the caller).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_accum<T: Scalar>(
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
    c: &mut [T],
    ldc: usize,
) {
    match (transa, transb) {
        (Transpose::No, Transpose::No) => {
            // j-l-i loop: inner axpy over contiguous columns of A and C.
            for j in 0..n {
                let cj = &mut c[j * ldc..j * ldc + m];
                for l in 0..kk {
                    let blj = alpha * b[l + j * ldb];
                    if blj == T::ZERO {
                        continue;
                    }
                    let al = &a[l * lda..l * lda + m];
                    axpy(blj, al, cj);
                }
            }
        }
        (Transpose::No, Transpose::Yes) => {
            // C += alpha * A * B^T, B stored n × kk.
            for j in 0..n {
                let cj = &mut c[j * ldc..j * ldc + m];
                for l in 0..kk {
                    let blj = alpha * b[j + l * ldb];
                    if blj == T::ZERO {
                        continue;
                    }
                    let al = &a[l * lda..l * lda + m];
                    axpy(blj, al, cj);
                }
            }
        }
        (Transpose::Yes, Transpose::No) => {
            // C += alpha * A^T * B, A stored kk × m: dot products down columns.
            for j in 0..n {
                let bj = &b[j * ldb..j * ldb + kk];
                for i in 0..m {
                    let ai = &a[i * lda..i * lda + kk];
                    let dot: T = ai.iter().zip(bj).map(|(&x, &y)| x * y).sum();
                    c[i + j * ldc] += alpha * dot;
                }
            }
        }
        (Transpose::Yes, Transpose::Yes) => {
            // C += alpha * A^T * B^T — rare; simple loop nest.
            for j in 0..n {
                for i in 0..m {
                    let mut acc = T::ZERO;
                    for l in 0..kk {
                        acc += a[l + i * lda] * b[j + l * ldb];
                    }
                    c[i + j * ldc] += alpha * acc;
                }
            }
        }
    }
}

/// Accumulate the lower triangle of `C += α·A·Aᵀ` with the seed loops (`β`
/// already applied).
pub(crate) fn syrk_accum<T: Scalar>(
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    c: &mut [T],
    ldc: usize,
) {
    // Block over the contraction dimension so the active columns of A stay
    // in cache; the inner loop is a contiguous axpy over rows j..n.
    const KC: usize = 128;
    for l0 in (0..k).step_by(KC) {
        let l1 = (l0 + KC).min(k);
        for j in 0..n {
            let (_, tail) = c.split_at_mut(j * ldc + j);
            let cj = &mut tail[..n - j];
            for l in l0..l1 {
                let ajl = alpha * a[j + l * lda];
                if ajl == T::ZERO {
                    continue;
                }
                let al = &a[j + l * lda..l * lda + n];
                for (cv, &av) in cj.iter_mut().zip(al) {
                    *cv += ajl * av;
                }
            }
        }
    }
}

/// Seed right-side solve `X·Lᵀ = B`: the small-size path and the
/// diagonal-block solver of the blocked `trsm`.
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
    // Column j of X depends on columns 0..j:
    //   X[:,j] = (B[:,j] − Σ_{l<j} X[:,l]·L[j,l]) / L[j,j]
    for j in 0..n {
        let (done, rest) = b.split_at_mut(j * ldb);
        let bj = &mut rest[..m];
        for l in 0..j {
            let ljl = a[j + l * lda];
            if ljl == T::ZERO {
                continue;
            }
            let xl = &done[l * ldb..l * ldb + m];
            for (bv, &xv) in bj.iter_mut().zip(xl) {
                *bv -= ljl * xv;
            }
        }
        let inv = T::ONE / a[j + j * lda];
        for bv in bj.iter_mut() {
            *bv *= inv;
        }
    }
}
