//! Compressed sparse column storage for symmetric matrices.
//!
//! SPD inputs are stored as their **lower triangle including the diagonal**
//! in CSC format with sorted row indices — the convention of most sparse
//! Cholesky packages. [`Triplet`] is the mutable builder; [`SymCsc`] is the
//! immutable assembled form consumed by the symbolic and numeric phases.

use mf_dense::Scalar;

/// Coordinate-format builder for a symmetric matrix. Entries may be given
/// for either triangle (they are mirrored into the lower one) and duplicates
/// are summed on assembly, which makes finite-element-style assembly easy.
#[derive(Debug, Clone)]
pub struct Triplet<T> {
    n: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<T>,
}

impl<T: Scalar> Triplet<T> {
    /// An empty builder for an `n × n` symmetric matrix.
    pub fn new(n: usize) -> Self {
        Triplet { n, rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// With pre-allocated capacity for `nnz` entries.
    pub fn with_capacity(n: usize, nnz: usize) -> Self {
        Triplet {
            n,
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Number of raw (possibly duplicate) entries pushed so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` if no entries have been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Add `v` at `(i, j)`. Either triangle is accepted; the entry is stored
    /// at `(max(i,j), min(i,j))`. Duplicates accumulate.
    pub fn push(&mut self, i: usize, j: usize, v: T) {
        assert!(i < self.n && j < self.n, "entry ({i},{j}) out of range for order {}", self.n);
        let (r, c) = if i >= j { (i, j) } else { (j, i) };
        self.rows.push(r);
        self.cols.push(c);
        self.vals.push(v);
    }

    /// Assemble into sorted, duplicate-summed lower-triangular CSC.
    pub fn assemble(&self) -> SymCsc<T> {
        let n = self.n;
        // Counting sort by column.
        let mut colptr = vec![0usize; n + 1];
        for &c in &self.cols {
            colptr[c + 1] += 1;
        }
        for j in 0..n {
            colptr[j + 1] += colptr[j];
        }
        let mut next = colptr[..n].to_vec();
        let nnz_raw = self.rows.len();
        let mut rowind = vec![0usize; nnz_raw];
        let mut values = vec![T::ZERO; nnz_raw];
        for e in 0..nnz_raw {
            let c = self.cols[e];
            let slot = next[c];
            next[c] += 1;
            rowind[slot] = self.rows[e];
            values[slot] = self.vals[e];
        }
        // Sort each column by row and sum duplicates, compacting in place.
        let mut out_colptr = vec![0usize; n + 1];
        let mut out_rows = Vec::with_capacity(nnz_raw);
        let mut out_vals = Vec::with_capacity(nnz_raw);
        let mut scratch: Vec<(usize, T)> = Vec::new();
        for j in 0..n {
            scratch.clear();
            for p in colptr[j]..colptr[j + 1] {
                scratch.push((rowind[p], values[p]));
            }
            scratch.sort_unstable_by_key(|e| e.0);
            let mut idx = 0;
            while idx < scratch.len() {
                let (r, mut v) = scratch[idx];
                idx += 1;
                while idx < scratch.len() && scratch[idx].0 == r {
                    v += scratch[idx].1;
                    idx += 1;
                }
                out_rows.push(r);
                out_vals.push(v);
            }
            out_colptr[j + 1] = out_rows.len();
        }
        SymCsc { n, colptr: out_colptr, rowind: out_rows, values: out_vals }
    }
}

/// A symmetric matrix stored as its lower triangle (diagonal included) in
/// CSC with strictly increasing row indices within every column.
#[derive(Debug, Clone, PartialEq)]
pub struct SymCsc<T> {
    n: usize,
    colptr: Vec<usize>,
    rowind: Vec<usize>,
    values: Vec<T>,
}

impl<T: Scalar> SymCsc<T> {
    /// Construct from raw lower-triangular CSC arrays.
    ///
    /// # Panics
    /// Panics if the structure is malformed: wrong `colptr` length,
    /// non-monotone `colptr`, unsorted/duplicate row indices, entries above
    /// the diagonal, or indices out of range.
    pub fn from_parts(n: usize, colptr: Vec<usize>, rowind: Vec<usize>, values: Vec<T>) -> Self {
        assert_eq!(colptr.len(), n + 1, "colptr must have n+1 entries");
        assert_eq!(colptr[0], 0);
        assert_eq!(*colptr.last().unwrap(), rowind.len());
        assert_eq!(rowind.len(), values.len());
        for j in 0..n {
            assert!(colptr[j] <= colptr[j + 1], "colptr must be non-decreasing");
            let mut prev = None;
            for &r in &rowind[colptr[j]..colptr[j + 1]] {
                assert!(r >= j, "entry ({r},{j}) above the diagonal");
                assert!(r < n, "row index {r} out of range");
                if let Some(pr) = prev {
                    assert!(r > pr, "row indices must be strictly increasing in column {j}");
                }
                prev = Some(r);
            }
        }
        SymCsc { n, colptr, rowind, values }
    }

    /// Matrix order.
    pub fn order(&self) -> usize {
        self.n
    }

    /// Stored entries (lower triangle only).
    pub fn nnz_lower(&self) -> usize {
        self.rowind.len()
    }

    /// Entries of the full symmetric matrix: `2·nnz_lower − n_diag`.
    pub fn nnz_full(&self) -> usize {
        let diag = (0..self.n).filter(|&j| self.get(j, j).is_some()).count();
        2 * self.rowind.len() - diag
    }

    /// Column pointer array (`n + 1` entries).
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Row indices, column-concatenated.
    pub fn rowind(&self) -> &[usize] {
        &self.rowind
    }

    /// Numeric values, aligned with [`Self::rowind`].
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Row indices of column `j` (lower triangle).
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.rowind[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Values of column `j`, aligned with [`Self::col_rows`].
    pub fn col_vals(&self, j: usize) -> &[T] {
        &self.values[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Whether `other` has exactly this matrix's sparsity pattern (same
    /// order, column pointers, and row indices) — the precondition for
    /// reusing a symbolic analysis across numeric refactorizations.
    pub fn same_pattern<U: Scalar>(&self, other: &SymCsc<U>) -> bool {
        self.n == other.n && self.colptr == other.colptr && self.rowind == other.rowind
    }

    /// A 64-bit structural fingerprint of the sparsity pattern: a fixed
    /// FNV-1a hash over `n`, `colptr`, and `rowind`, independent of the
    /// numeric values, the scalar type, how the matrix was assembled, and
    /// the process (no per-run hasher seed) — so it is a stable cache key
    /// across submissions, threads, and runs.
    ///
    /// Two matrices with the same pattern always fingerprint identically;
    /// the converse is probabilistic, so a fingerprint match is only a
    /// *candidate* — [`Self::same_pattern`] remains the authoritative gate
    /// before any symbolic analysis is reused.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(mut h: u64, v: u64) -> u64 {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            h
        }
        let mut h = eat(OFFSET, self.n as u64);
        for &p in &self.colptr {
            h = eat(h, p as u64);
        }
        for &r in &self.rowind {
            h = eat(h, r as u64);
        }
        h
    }

    /// Look up entry `(i, j)`; either triangle may be queried.
    pub fn get(&self, i: usize, j: usize) -> Option<T> {
        let (r, c) = if i >= j { (i, j) } else { (j, i) };
        let rows = self.col_rows(c);
        rows.binary_search(&r).ok().map(|k| self.col_vals(c)[k])
    }

    /// Convert the pattern to an adjacency structure of the full symmetric
    /// graph, excluding the diagonal — the input to ordering algorithms.
    pub fn to_adjacency(&self) -> Adjacency {
        let n = self.n;
        let mut deg = vec![0usize; n];
        for j in 0..n {
            for &i in self.col_rows(j) {
                if i != j {
                    deg[i] += 1;
                    deg[j] += 1;
                }
            }
        }
        let mut xadj = vec![0usize; n + 1];
        for v in 0..n {
            xadj[v + 1] = xadj[v] + deg[v];
        }
        let mut next = xadj[..n].to_vec();
        let mut adj = vec![0usize; xadj[n]];
        for j in 0..n {
            for &i in self.col_rows(j) {
                if i != j {
                    adj[next[i]] = j;
                    next[i] += 1;
                    adj[next[j]] = i;
                    next[j] += 1;
                }
            }
        }
        // Each list is already sorted: column j hands vertex v = j its
        // larger neighbours in row order, after the columns before it handed
        // it its smaller ones in column order.
        debug_assert!((0..n).all(|v| adj[xadj[v]..xadj[v + 1]].windows(2).all(|w| w[0] < w[1])));
        Adjacency { xadj, adj }
    }

    /// The strict **upper** triangle pattern as CSC (i.e. the transpose of
    /// the strict lower pattern) — the form consumed by the elimination-tree
    /// and column-count algorithms.
    pub fn upper_pattern(&self) -> (Vec<usize>, Vec<usize>) {
        let n = self.n;
        let mut cnt = vec![0usize; n + 1];
        for j in 0..n {
            for &i in self.col_rows(j) {
                if i != j {
                    cnt[i + 1] += 1;
                }
            }
        }
        for v in 0..n {
            cnt[v + 1] += cnt[v];
        }
        let mut next = cnt[..n].to_vec();
        let mut rows = vec![0usize; cnt[n]];
        // Iterating columns j in increasing order yields sorted row lists
        // (each upper column i receives indices j < i in increasing order).
        for j in 0..n {
            for &i in self.col_rows(j) {
                if i != j {
                    rows[next[i]] = j;
                    next[i] += 1;
                }
            }
        }
        (cnt, rows)
    }

    /// Symmetric matrix-vector product `y = A·x` using the lower storage.
    pub fn matvec(&self, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        y.fill(T::ZERO);
        for j in 0..self.n {
            let xj = x[j];
            let mut acc = T::ZERO;
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_vals(j)) {
                if i == j {
                    acc += v * xj;
                } else {
                    y[i] += v * xj;
                    acc += v * x[i];
                }
            }
            y[j] += acc;
        }
    }

    /// Residual `r = b − A·x` in the scalar type `T`.
    pub fn residual(&self, x: &[T], b: &[T]) -> Vec<T> {
        let mut ax = vec![T::ZERO; self.n];
        self.matvec(x, &mut ax);
        b.iter().zip(&ax).map(|(&bv, &av)| bv - av).collect()
    }

    /// Residuals `R = B − A·X` of `nrhs` columns (`X`, `B` and `R` are
    /// `n × nrhs` column-major) in one pass over the nonzeros. Each column
    /// takes the operations of [`Self::residual`] in the same order, so
    /// column `j` is bitwise `residual` of column `j`.
    pub fn residual_many(&self, x: &[T], b: &[T], nrhs: usize) -> Vec<T> {
        let n = self.n;
        assert_eq!(x.len(), n * nrhs);
        assert_eq!(b.len(), n * nrhs);
        if nrhs == 1 {
            return self.residual(x, b);
        }
        // Row-interleaved: row i holds the nrhs columns' entries.
        let mut xs = vec![T::ZERO; n * nrhs];
        for (c, col) in x.chunks_exact(n.max(1)).enumerate() {
            for (i, &v) in col.iter().enumerate() {
                xs[i * nrhs + c] = v;
            }
        }
        let mut ax = vec![T::ZERO; n * nrhs];
        let mut acc = vec![T::ZERO; nrhs];
        for j in 0..n {
            acc.fill(T::ZERO);
            let xj = &xs[j * nrhs..(j + 1) * nrhs];
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_vals(j)) {
                if i == j {
                    for (a, &xv) in acc.iter_mut().zip(xj) {
                        *a += v * xv;
                    }
                } else {
                    let (xi, yi) =
                        (&xs[i * nrhs..(i + 1) * nrhs], &mut ax[i * nrhs..(i + 1) * nrhs]);
                    for c in 0..nrhs {
                        yi[c] += v * xj[c];
                        acc[c] += v * xi[c];
                    }
                }
            }
            for (y, &a) in ax[j * nrhs..(j + 1) * nrhs].iter_mut().zip(&acc) {
                *y += a;
            }
        }
        let mut r = b.to_vec();
        for (c, col) in r.chunks_exact_mut(n.max(1)).enumerate() {
            for (i, v) in col.iter_mut().enumerate() {
                *v -= ax[i * nrhs + c];
            }
        }
        r
    }

    /// Infinity norm of the full symmetric matrix.
    pub fn norm_inf(&self) -> f64 {
        let mut rowsum = vec![0.0f64; self.n];
        for j in 0..self.n {
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_vals(j)) {
                let a = v.to_f64().abs();
                rowsum[i] += a;
                if i != j {
                    rowsum[j] += a;
                }
            }
        }
        rowsum.into_iter().fold(0.0, f64::max)
    }

    /// Map values to another scalar type (e.g. `f64 → f32` before a
    /// single-precision factorization).
    pub fn cast<U: Scalar>(&self) -> SymCsc<U> {
        SymCsc {
            n: self.n,
            colptr: self.colptr.clone(),
            rowind: self.rowind.clone(),
            values: self.values.iter().map(|v| U::from_f64(v.to_f64())).collect(),
        }
    }
}

/// Adjacency structure of an undirected graph (CSR-like, sorted neighbor
/// lists, no self loops).
#[derive(Debug, Clone)]
pub struct Adjacency {
    /// Offsets into [`Self::adj`] (`n + 1` entries).
    pub xadj: Vec<usize>,
    /// Concatenated neighbor lists.
    pub adj: Vec<usize>,
}

impl Adjacency {
    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.xadj.len() - 1
    }

    /// `true` when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Neighbors of vertex `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adj[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrow(n: usize) -> SymCsc<f64> {
        // Arrow matrix: dense last row/col + diagonal.
        let mut t = Triplet::new(n);
        for i in 0..n {
            t.push(i, i, 4.0);
            if i + 1 < n {
                t.push(n - 1, i, -1.0);
            }
        }
        t.assemble()
    }

    #[test]
    fn triplet_mirrors_and_sums_duplicates() {
        let mut t = Triplet::new(3);
        t.push(0, 0, 1.0);
        t.push(0, 2, 5.0); // upper → stored at (2,0)
        t.push(2, 0, 1.0); // duplicate of the same logical entry
        t.push(1, 1, 2.0);
        t.push(2, 2, 3.0);
        let a = t.assemble();
        assert_eq!(a.nnz_lower(), 4);
        assert_eq!(a.get(2, 0), Some(6.0));
        assert_eq!(a.get(0, 2), Some(6.0));
        assert_eq!(a.get(1, 0), None);
    }

    #[test]
    fn from_parts_validates() {
        // Valid 2x2 identity.
        let a = SymCsc::from_parts(2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]);
        assert_eq!(a.get(0, 0), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "above the diagonal")]
    fn from_parts_rejects_upper_entries() {
        SymCsc::from_parts(2, vec![0, 1, 2], vec![0, 0], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_rejects_duplicates() {
        SymCsc::from_parts(2, vec![0, 2, 3], vec![0, 0, 1], vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = arrow(5);
        let x: Vec<f64> = (0..5).map(|i| i as f64 + 1.0).collect();
        let mut y = vec![0.0; 5];
        a.matvec(&x, &mut y);
        // Dense reference.
        let mut dense = [[0.0f64; 5]; 5];
        #[allow(clippy::needless_range_loop)]
        for j in 0..5 {
            for (&i, &v) in a.col_rows(j).iter().zip(a.col_vals(j)) {
                dense[i][j] = v;
                dense[j][i] = v;
            }
        }
        for i in 0..5 {
            let want: f64 = (0..5).map(|j| dense[i][j] * x[j]).sum();
            assert!((y[i] - want).abs() < 1e-12, "row {i}");
        }
    }

    #[test]
    fn adjacency_symmetric_sorted() {
        let a = arrow(6);
        let g = a.to_adjacency();
        assert_eq!(g.len(), 6);
        // Vertex 5 is connected to all others.
        assert_eq!(g.neighbors(5), &[0, 1, 2, 3, 4]);
        for v in 0..5 {
            assert_eq!(g.neighbors(v), &[5]);
            assert_eq!(g.degree(v), 1);
        }
    }

    #[test]
    fn upper_pattern_is_transpose() {
        let a = arrow(4);
        let (ptr, rows) = a.upper_pattern();
        // Upper column 3 holds rows 0,1,2 (the mirrored arrow entries).
        assert_eq!(&rows[ptr[3]..ptr[4]], &[0, 1, 2]);
        assert_eq!(ptr[1] - ptr[0], 0); // column 0 has nothing above diagonal
    }

    #[test]
    fn norm_inf_of_arrow() {
        let a = arrow(4);
        // Last row: |-1|*3 + 4 = 7.
        assert!((a.norm_inf() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn cast_to_f32_roundtrips_values() {
        let a = arrow(4);
        let a32: SymCsc<f32> = a.cast();
        assert_eq!(a32.get(3, 1), Some(-1.0f32));
        assert_eq!(a32.nnz_lower(), a.nnz_lower());
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = arrow(5);
        let x = vec![1.0; 5];
        let mut b = vec![0.0; 5];
        a.matvec(&x, &mut b);
        let r = a.residual(&x, &b);
        assert!(r.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn residual_many_is_bitwise_residual_per_column() {
        let a = arrow(7);
        let n = a.order();
        let nrhs = 3;
        let x: Vec<f64> = (0..n * nrhs).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..n * nrhs).map(|i| (i as f64 * 0.11).cos()).collect();
        let r = a.residual_many(&x, &b, nrhs);
        for j in 0..nrhs {
            let col = a.residual(&x[j * n..(j + 1) * n], &b[j * n..(j + 1) * n]);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&r[j * n..(j + 1) * n]), bits(&col), "column {j}");
        }
    }

    #[test]
    fn fingerprint_ignores_values_and_scalar_type() {
        let a = arrow(6);
        let scaled = SymCsc::from_parts(
            a.order(),
            a.colptr().to_vec(),
            a.rowind().to_vec(),
            a.values().iter().map(|&v| v * 3.5).collect(),
        );
        assert_eq!(a.fingerprint(), scaled.fingerprint(), "values must not affect the key");
        let a32: SymCsc<f32> = a.cast();
        assert_eq!(a.fingerprint(), a32.fingerprint(), "scalar type must not affect the key");
        assert!(a.same_pattern(&scaled) && a.same_pattern(&a32));
    }

    #[test]
    fn fingerprint_distinguishes_one_entry_patterns() {
        // Patterns differing in exactly one structural entry must hash apart
        // (for every choice of the extra entry on a small matrix), and
        // `same_pattern` must agree with the distinction.
        let base = arrow(8);
        let mut seen = vec![base.fingerprint()];
        for j in 0..7 {
            for i in (j + 1)..7 {
                if base.get(i, j).is_some() {
                    continue;
                }
                let mut t = Triplet::new(8);
                for c in 0..8 {
                    for (&r, &v) in base.col_rows(c).iter().zip(base.col_vals(c)) {
                        t.push(r, c, v);
                    }
                }
                t.push(i, j, -0.25);
                let extended = t.assemble();
                assert!(!extended.same_pattern(&base));
                let fp = extended.fingerprint();
                assert!(
                    !seen.contains(&fp),
                    "pattern with extra entry ({i},{j}) collided structurally"
                );
                seen.push(fp);
            }
        }
    }

    #[test]
    fn fingerprint_distinguishes_order_padding() {
        // Same entries, larger order (trailing empty columns are a distinct
        // pattern): n participates in the hash.
        let a = SymCsc::from_parts(2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]);
        let b = SymCsc::from_parts(3, vec![0, 1, 2, 2], vec![0, 1], vec![1.0, 1.0]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(!a.same_pattern(&b));
    }

    #[test]
    fn nnz_full_counts_mirrored() {
        let a = arrow(5); // 5 diag + 4 off-diag lower
        assert_eq!(a.nnz_lower(), 9);
        assert_eq!(a.nnz_full(), 13);
    }
}
