//! Permutations and symmetric permutation of sparse matrices.

use crate::csc::SymCsc;
use mf_dense::Scalar;

/// A permutation of `{0, …, n−1}` together with its inverse.
///
/// Convention: `perm[new] = old` — `perm` lists the original indices in
/// their new order, so applying the permutation to a matrix `A` produces
/// `B[i, j] = A[perm[i], perm[j]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<usize>,
    inv: Vec<usize>,
}

impl Permutation {
    /// Identity permutation of order `n`.
    pub fn identity(n: usize) -> Self {
        let perm: Vec<usize> = (0..n).collect();
        Permutation { inv: perm.clone(), perm }
    }

    /// Build from `perm[new] = old`.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn from_vec(perm: Vec<usize>) -> Self {
        let n = perm.len();
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            assert!(old < n, "index {old} out of range");
            assert!(inv[old] == usize::MAX, "duplicate index {old}");
            inv[old] = new;
        }
        Permutation { perm, inv }
    }

    /// Order of the permutation.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// `true` for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// `perm[new] = old`.
    pub fn old_of(&self, new: usize) -> usize {
        self.perm[new]
    }

    /// `inv[old] = new`.
    pub fn new_of(&self, old: usize) -> usize {
        self.inv[old]
    }

    /// The forward array (`perm[new] = old`).
    pub fn as_slice(&self) -> &[usize] {
        &self.perm
    }

    /// The inverse array (`inv[old] = new`).
    pub fn inv_slice(&self) -> &[usize] {
        &self.inv
    }

    /// The inverse permutation.
    pub fn inverse(&self) -> Permutation {
        Permutation { perm: self.inv.clone(), inv: self.perm.clone() }
    }

    /// Compose: apply `self` first, then `other` — `result[new] =
    /// self.perm[other.perm[new]]`.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len());
        Permutation::from_vec(other.perm.iter().map(|&mid| self.perm[mid]).collect())
    }

    /// Permute a vector from old ordering to new: `out[new] = x[perm[new]]`.
    pub fn permute_vec<T: Copy>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.len());
        self.perm.iter().map(|&old| x[old]).collect()
    }

    /// Inverse-permute a vector from new ordering back to old:
    /// `out[old] = x[inv[old]]`.
    pub fn unpermute_vec<T: Copy>(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.len());
        self.inv.iter().map(|&new| x[new]).collect()
    }

    /// Symmetric permutation `B = P·A·Pᵀ` of a lower-stored symmetric
    /// matrix: `B[i, j] = A[perm[i], perm[j]]`.
    pub fn permute_sym<T: Scalar>(&self, a: &SymCsc<T>) -> SymCsc<T> {
        let n = a.order();
        assert_eq!(n, self.len());
        // Entry (i, j) lands in the lower triangle at (max, min) of the new
        // indices. Count each new column, place every entry straight into
        // its column's run, then sort the runs by row — they are as short as
        // the columns, where sorting all entries at once is not.
        let target = |i: usize, j: usize| {
            let (ni, nj) = (self.inv[i], self.inv[j]);
            (ni.max(nj), ni.min(nj))
        };
        let mut colptr = vec![0usize; n + 1];
        for j in 0..n {
            for &i in a.col_rows(j) {
                colptr[target(i, j).1 + 1] += 1;
            }
        }
        for c in 0..n {
            colptr[c + 1] += colptr[c];
        }
        let mut next = colptr[..n].to_vec();
        let mut rowind = vec![0usize; a.nnz_lower()];
        let mut values = vec![T::ZERO; a.nnz_lower()];
        for j in 0..n {
            for (&i, &v) in a.col_rows(j).iter().zip(a.col_vals(j)) {
                let (r, c) = target(i, j);
                rowind[next[c]] = r;
                values[next[c]] = v;
                next[c] += 1;
            }
        }
        let mut run: Vec<(usize, T)> = Vec::new();
        for c in 0..n {
            let span = colptr[c]..colptr[c + 1];
            if rowind[span.clone()].windows(2).all(|w| w[0] < w[1]) {
                continue;
            }
            run.clear();
            run.extend(
                rowind[span.clone()].iter().copied().zip(values[span.clone()].iter().copied()),
            );
            run.sort_unstable_by_key(|e| e.0);
            for (slot, &(r, v)) in span.zip(&run) {
                rowind[slot] = r;
                values[slot] = v;
            }
        }
        SymCsc::from_parts(n, colptr, rowind, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Triplet;

    fn tridiag(n: usize) -> SymCsc<f64> {
        let mut t = Triplet::new(n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i + 1, i, -1.0);
            }
        }
        t.assemble()
    }

    #[test]
    fn identity_is_noop() {
        let a = tridiag(5);
        let p = Permutation::identity(5);
        assert_eq!(p.permute_sym(&a), a);
    }

    #[test]
    fn inverse_roundtrip() {
        let p = Permutation::from_vec(vec![2, 0, 3, 1]);
        let q = p.inverse();
        let x = vec![10, 20, 30, 40];
        assert_eq!(q.permute_vec(&p.permute_vec(&x)), x);
        assert_eq!(p.unpermute_vec(&p.permute_vec(&x)), x);
    }

    #[test]
    fn permute_sym_values_follow() {
        let a = tridiag(4);
        let p = Permutation::from_vec(vec![3, 1, 0, 2]);
        let b = p.permute_sym(&a);
        for inew in 0..4 {
            for jnew in 0..4 {
                assert_eq!(
                    b.get(inew, jnew),
                    a.get(p.old_of(inew), p.old_of(jnew)),
                    "entry ({inew},{jnew})"
                );
            }
        }
    }

    /// The construction `permute_sym` replaced: push every permuted entry
    /// into a triplet builder and assemble.
    fn permute_by_triplets<T: Scalar>(p: &Permutation, a: &SymCsc<T>) -> SymCsc<T> {
        let mut t = Triplet::with_capacity(a.order(), a.nnz_lower());
        for j in 0..a.order() {
            for (&i, &v) in a.col_rows(j).iter().zip(a.col_vals(j)) {
                t.push(p.new_of(i), p.new_of(j), v);
            }
        }
        t.assemble()
    }

    #[test]
    fn permute_sym_equals_triplet_assembly_on_random_patterns() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move |m: usize| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % m as u64) as usize
        };
        for case in 0..40 {
            // Sparse to dense, with empty columns, missing diagonals and a
            // full row thrown in.
            let n = 1 + rand(60);
            let mut t = Triplet::<f64>::new(n);
            for _ in 0..rand(n * (1 + case % 8)) {
                t.push(rand(n), rand(n), rand(1000) as f64 / 7.0 - 60.0);
            }
            if case % 3 == 0 {
                for j in 0..n {
                    t.push(n - 1, j, 1.0 + j as f64);
                }
            }
            let a = t.assemble();
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rand(i + 1));
            }
            let p = Permutation::from_vec(order);
            assert_eq!(p.permute_sym(&a), permute_by_triplets(&p, &a), "f64 case {case}");
            let a32: SymCsc<f32> = a.cast();
            assert_eq!(p.permute_sym(&a32), permute_by_triplets(&p, &a32), "f32 case {case}");
        }
    }

    #[test]
    fn compose_applies_in_order() {
        let p = Permutation::from_vec(vec![1, 2, 0]);
        let q = Permutation::from_vec(vec![2, 0, 1]);
        let pq = p.compose(&q);
        for new in 0..3 {
            assert_eq!(pq.old_of(new), p.old_of(q.old_of(new)));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate index")]
    fn rejects_non_permutation() {
        Permutation::from_vec(vec![0, 0, 1]);
    }

    #[test]
    fn permuted_matvec_consistent() {
        // (P A Pᵀ)·(P x) must equal P·(A x).
        let a = tridiag(6);
        let p = Permutation::from_vec(vec![5, 3, 1, 0, 2, 4]);
        let b = p.permute_sym(&a);
        let x: Vec<f64> = (0..6).map(|i| (i * i) as f64 - 2.0).collect();
        let px = p.permute_vec(&x);
        let mut bpx = vec![0.0; 6];
        b.matvec(&px, &mut bpx);
        let mut ax = vec![0.0; 6];
        a.matvec(&x, &mut ax);
        let pax = p.permute_vec(&ax);
        for i in 0..6 {
            assert!((bpx[i] - pax[i]).abs() < 1e-12);
        }
    }
}
