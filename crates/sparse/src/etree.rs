//! Elimination tree and column counts.
//!
//! The elimination tree of the Cholesky factor `L` drives everything in the
//! multifrontal method: the postorder traversal order, the update-matrix
//! stack discipline, and the parallel task DAG. We implement Liu's
//! algorithm with path compression and the classic `O(|L|)` row-subtree
//! column-count algorithm. The postorder is taken of the supernodal forest
//! ([`crate::supernode::supernode_forest`], a stack-based traversal safe for
//! the deep trees produced by band orderings), which is also a column
//! tree's postorder when handed the column parents.

use crate::csc::SymCsc;
use mf_dense::Scalar;
use std::ops::Range;

/// Sentinel for "no parent" (tree roots).
pub const NONE: usize = usize::MAX;

/// The elimination tree of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct EliminationTree {
    /// `parent[j]` is the parent column of `j`, or [`NONE`] for roots.
    pub parent: Vec<usize>,
}

impl EliminationTree {
    /// Number of columns.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` for the empty tree.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }
}

/// Compute the elimination tree of a lower-stored symmetric matrix using
/// Liu's algorithm with path compression (`ancestor` array).
pub fn elimination_tree<T: Scalar>(a: &SymCsc<T>) -> EliminationTree {
    let n = a.order();
    let (uptr, urows) = a.upper_pattern();
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for j in 0..n {
        for &i in &urows[uptr[j]..uptr[j + 1]] {
            // i < j is a nonzero of row j's strict upper column — walk from i
            // towards the root, compressing paths.
            let mut v = i;
            while v != NONE && v < j {
                let next = ancestor[v];
                ancestor[v] = j;
                if next == NONE {
                    parent[v] = j;
                    break;
                }
                v = next;
            }
        }
    }
    EliminationTree { parent }
}

/// Column counts `cc[j] = |{i : L[i,j] ≠ 0}|` (diagonal included) via the
/// `O(|L|)` row-subtree traversal.
pub fn column_counts<T: Scalar>(a: &SymCsc<T>, etree: &EliminationTree) -> Vec<usize> {
    let n = a.order();
    let (uptr, urows) = a.upper_pattern();
    let mut cc = vec![1usize; n]; // diagonal
    count_rows(&uptr, &urows, etree, 0..n, &mut cc, &mut vec![NONE; n]);
    cc
}

/// The row-subtree body of both column-count drivers: for every row `i` in
/// `rows`, walk the etree from each entry of its strict upper row and add
/// one to every column on the path, guarded by `mark` (`n`-length scratch
/// stamped with the row).
fn count_rows(
    uptr: &[usize],
    urows: &[usize],
    etree: &EliminationTree,
    rows: Range<usize>,
    cc: &mut [usize],
    mark: &mut [usize],
) {
    for i in rows {
        mark[i] = i;
        for &j0 in &urows[uptr[i]..uptr[i + 1]] {
            let mut j = j0;
            while j < i && mark[j] != i {
                cc[j] += 1;
                mark[j] = i;
                j = etree.parent[j];
                if j == NONE {
                    break;
                }
            }
        }
    }
}

/// Parallel column counts, bitwise identical to [`column_counts`] at every
/// worker count.
///
/// Rows are independent in the row-subtree algorithm, so contiguous row
/// chunks run [`column_counts`]'s body as independent tasks that accumulate
/// into per-worker count arrays (`workers ≤ 1` runs [`column_counts`]
/// itself); the final merge sums `usize` contributions per column, which is
/// commutative and exact, so the result does not depend on which worker ran
/// which chunk.
pub fn column_counts_parallel<T: Scalar>(
    a: &SymCsc<T>,
    etree: &EliminationTree,
    workers: usize,
) -> Vec<usize> {
    if workers <= 1 {
        return column_counts(a, etree);
    }
    let n = a.order();
    let (uptr, urows) = a.upper_pattern();
    // Chunk rows contiguously, a few chunks per worker so the stealing
    // runtime can balance the skewed per-row costs near the dense tail.
    let chunk = (n / (workers * 4)).max(64);
    let ntasks = n.div_ceil(chunk);
    let rt = mf_runtime::Runtime::new(workers.min(ntasks));
    let graph = mf_runtime::TaskGraph::new(ntasks);
    // Per-worker state: a local count accumulator (increments only, the
    // shared `+1` diagonal is added at merge time) and a row-stamped mark.
    let states: Vec<(Vec<usize>, Vec<usize>)> =
        (0..rt.workers()).map(|_| (vec![0usize; n], vec![NONE; n])).collect();
    let (states, _errs) = rt.run(&graph, states, |(cc, mark), t| -> Result<(), ()> {
        count_rows(&uptr, &urows, etree, t * chunk..((t + 1) * chunk).min(n), cc, mark);
        Ok(())
    });
    let mut cc = vec![1usize; n]; // diagonal
    for (local, _) in &states {
        for (c, l) in cc.iter_mut().zip(local) {
            *c += l;
        }
    }
    cc
}

/// Number of children of every node.
pub fn child_counts(etree: &EliminationTree) -> Vec<usize> {
    let mut nc = vec![0usize; etree.len()];
    for &p in &etree.parent {
        if p != NONE {
            nc[p] += 1;
        }
    }
    nc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Triplet;
    use crate::supernode::supernode_forest;

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

    fn arrow(n: usize) -> SymCsc<f64> {
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
    fn tridiagonal_etree_is_a_chain() {
        let a = tridiag(6);
        let t = elimination_tree(&a);
        for j in 0..5 {
            assert_eq!(t.parent[j], j + 1);
        }
        assert_eq!(t.parent[5], NONE);
    }

    #[test]
    fn arrow_etree_is_a_star() {
        let a = arrow(6);
        let t = elimination_tree(&a);
        for j in 0..5 {
            assert_eq!(t.parent[j], 5, "col {j}");
        }
        assert_eq!(t.parent[5], NONE);
    }

    #[test]
    fn diagonal_matrix_is_a_forest_of_singletons() {
        let mut tp = Triplet::new(4);
        for i in 0..4 {
            tp.push(i, i, 1.0);
        }
        let t = elimination_tree(&tp.assemble());
        assert!(t.parent.iter().all(|&p| p == NONE));
        assert_eq!(supernode_forest(&t.parent).postorder, vec![0, 1, 2, 3]);
    }

    #[test]
    fn postorder_children_before_parents() {
        let a = arrow(8);
        let t = elimination_tree(&a);
        let post = supernode_forest(&t.parent).postorder;
        let mut rank = [0usize; 8];
        for (r, &v) in post.iter().enumerate() {
            rank[v] = r;
        }
        for j in 0..8 {
            if t.parent[j] != NONE {
                assert!(rank[j] < rank[t.parent[j]], "child {j} after parent");
            }
        }
    }

    #[test]
    fn postorder_handles_deep_chain_without_overflow() {
        // A 200_000-long chain would overflow a recursive postorder.
        let n = 200_000;
        let parent: Vec<usize> = (0..n).map(|j| if j + 1 < n { j + 1 } else { NONE }).collect();
        let post = supernode_forest(&parent).postorder;
        assert_eq!(post.len(), n);
        assert_eq!(post[0], 0);
        assert_eq!(post[n - 1], n - 1);
    }

    #[test]
    fn column_counts_tridiagonal() {
        // L of a tridiagonal matrix is bidiagonal: cc = 2,…,2,1.
        let a = tridiag(5);
        let t = elimination_tree(&a);
        let cc = column_counts(&a, &t);
        assert_eq!(cc, vec![2, 2, 2, 2, 1]);
    }

    #[test]
    fn column_counts_arrow_no_fill() {
        // Arrow with dense last row: L has the same pattern, no fill.
        let a = arrow(5);
        let t = elimination_tree(&a);
        let cc = column_counts(&a, &t);
        assert_eq!(cc, vec![2, 2, 2, 2, 1]);
    }

    #[test]
    fn column_counts_reverse_arrow_full_fill() {
        // Dense FIRST column ⇒ complete fill: cc[j] = n − j.
        let n = 5;
        let mut tp = Triplet::new(n);
        for i in 0..n {
            tp.push(i, i, 4.0);
            if i > 0 {
                tp.push(i, 0, -1.0);
            }
        }
        let a = tp.assemble();
        let t = elimination_tree(&a);
        let cc = column_counts(&a, &t);
        for (j, &c) in cc.iter().enumerate() {
            assert_eq!(c, n - j, "col {j}");
        }
    }

    #[test]
    fn parallel_column_counts_match_serial() {
        let mats = [tridiag(300), arrow(257), {
            let n = 129;
            let mut tp = Triplet::new(n);
            for i in 0..n {
                tp.push(i, i, 4.0);
                if i > 0 {
                    tp.push(i, 0, -1.0); // dense first column ⇒ full fill
                }
            }
            tp.assemble()
        }];
        for a in &mats {
            let t = elimination_tree(a);
            let serial = column_counts(a, &t);
            for w in [1, 2, 4, 8] {
                assert_eq!(column_counts_parallel(a, &t, w), serial, "workers={w}");
            }
        }
    }

    #[test]
    fn children_of_an_arrow() {
        let a = arrow(5);
        let t = elimination_tree(&a);
        assert_eq!(child_counts(&t), vec![0, 0, 0, 0, 4]);
        // Children of 4 enumerate 0..3 in increasing order.
        let forest = supernode_forest(&t.parent);
        assert_eq!(forest.children(4), [0, 1, 2, 3]);
        assert_eq!(forest.postorder, [0, 1, 2, 3, 4]);
    }
}
