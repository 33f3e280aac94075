//! Elimination tree and column counts.
//!
//! The elimination tree of the Cholesky factor `L` drives everything in the
//! multifrontal method: the postorder traversal order, the update-matrix
//! stack discipline, and the parallel task DAG. We implement Liu's
//! algorithm with path compression and Gilbert, Ng and Peyton's
//! near-linear column counts. One postorder serves column and supernodal
//! forests alike (parents come after their children in both): it is laid
//! out from subtree sizes instead of a traversal, so deep trees from band
//! orderings cost no recursion, and
//! [`crate::supernode::supernode_forest`] takes it. Every ordering leaves
//! [`crate::ordering::order`] postordered by it.

use crate::csc::{Adjacency, SymCsc};
use crate::perm::Permutation;
use mf_dense::Scalar;

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

/// The elimination tree of `P·A·Pᵀ` — [`elimination_tree`] of
/// `perm.permute_sym(a)` — from `g`, the adjacency graph of `A`, without
/// forming the permuted matrix: Liu's algorithm takes the entries of a row
/// in any order, so row `j` of `P·A·Pᵀ` is read off the neighbours of
/// `perm[j]` through the inverse permutation.
pub(crate) fn permuted_elimination_tree(g: &Adjacency, perm: &Permutation) -> EliminationTree {
    let n = g.len();
    let inv = perm.inv_slice();
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for (j, &old) in perm.as_slice().iter().enumerate() {
        for &u in g.neighbors(old) {
            let mut v = inv[u];
            while v < j {
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

/// `perm` composed with the postorder of `etree`, the elimination tree of
/// the matrix it permutes, and that tree relabelled: the elimination tree of
/// the re-permuted matrix. A postorder is a topological order of the tree
/// that keeps every subtree contiguous, so the relabelled tree is the
/// re-permuted matrix's and the fill is unchanged; the postorder of the
/// relabelled tree is the identity.
pub(crate) fn postordered(
    perm: &Permutation,
    etree: &EliminationTree,
) -> (Permutation, EliminationTree) {
    let parent = &etree.parent;
    let rank = postorder_ranks(parent);
    let mut order = vec![0usize; parent.len()];
    let mut relabelled = vec![NONE; parent.len()];
    for (j, &r) in rank.iter().enumerate() {
        order[r] = perm.old_of(j);
        if parent[j] != NONE {
            relabelled[r] = rank[parent[j]];
        }
    }
    (Permutation::from_vec(order), EliminationTree { parent: relabelled })
}

/// Postorder position of every node of a forest whose parents come after
/// their children (`parent[j] > j`, [`NONE`] at the roots), as elimination
/// and supernodal forests do: children and roots ascending. It is laid out
/// without a traversal, so deep trees from band orderings cost no recursion
/// and no stack: one ascending pass sizes every subtree, and one descending
/// pass hands each node the block of positions its subtree occupies, the
/// last child the right end of its parent's block.
fn postorder_ranks(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    let mut size = vec![1usize; n];
    for j in 0..n {
        if parent[j] != NONE {
            assert!(parent[j] > j, "parents come after their children");
            size[parent[j]] += size[j];
        }
    }
    // `free[p]`: one past the part of `p`'s block (at `n`, the forest's) not
    // yet handed to a child; the block ends at `p`'s own position.
    let mut rank = size;
    let mut free = vec![0usize; n + 1];
    free[n] = n;
    for j in (0..n).rev() {
        let p = if parent[j] == NONE { n } else { parent[j] };
        let end = free[p];
        free[p] = end - rank[j];
        free[j] = end - 1;
        rank[j] = end - 1;
    }
    rank
}

/// The postorder of a forest with `parent[j] > j` ([`postorder_ranks`]):
/// `post[r]` is the node at position `r`.
pub(crate) fn forest_postorder(parent: &[usize]) -> Vec<usize> {
    let mut post = vec![0usize; parent.len()];
    for (j, r) in postorder_ranks(parent).into_iter().enumerate() {
        post[r] = j;
    }
    post
}

/// Column counts `cc[j] = |{i : L[i,j] ≠ 0}|` (diagonal included), by
/// Gilbert, Ng and Peyton's algorithm in `O(|A| α(n))` from the lower columns
/// alone (no transposed pattern, no walk over the factor).
///
/// Row `i` of `L` is the *row subtree* of `i`: the etree paths from the
/// entries of row `i` of `A` up to `i`. A column's count is the number of
/// row subtrees it lies in, and that is a sum over its subtree of `+1` for
/// every leaf of a row subtree (an etree leaf is the one leaf of its own
/// row's), `−1` for every least common ancestor of two consecutive leaves of
/// one (in postorder), and `−1` for every child. An off-diagonal entry
/// `A[i, j]` makes `j` a leaf of row `i`'s subtree iff `j`'s first
/// descendant comes after every earlier leaf of that row; the least common
/// ancestor of `j` and the row's previous leaf is found by path-compressed
/// ancestor links over the columns already passed in postorder.
pub fn column_counts<T: Scalar>(a: &SymCsc<T>, etree: &EliminationTree) -> Vec<usize> {
    let n = a.order();
    let parent = &etree.parent;
    let post = forest_postorder(parent);
    // `first[j]`: postorder rank of the first descendant of `j`. A column
    // still without one when the postorder reaches it is a leaf.
    let mut first = vec![NONE; n];
    let mut delta = vec![0isize; n];
    for (k, &j) in post.iter().enumerate() {
        delta[j] = isize::from(first[j] == NONE);
        let mut v = j;
        while v != NONE && first[v] == NONE {
            first[v] = k;
            v = parent[v];
        }
    }
    // Per row: the largest `first` of its leaves so far and its last leaf.
    let mut max_first = vec![NONE; n];
    let mut prev_leaf = vec![NONE; n];
    let mut ancestor: Vec<usize> = (0..n).collect();
    for &j in &post {
        let p = parent[j];
        if p != NONE {
            delta[p] -= 1;
        }
        for &i in a.col_rows(j) {
            if i <= j || (max_first[i] != NONE && first[j] <= max_first[i]) {
                continue; // the diagonal, or not a leaf of row i's subtree
            }
            max_first[i] = first[j];
            delta[j] += 1;
            let prev = std::mem::replace(&mut prev_leaf[i], j);
            if prev != NONE {
                let mut q = prev;
                while ancestor[q] != q {
                    q = ancestor[q];
                }
                let mut s = prev;
                while s != q {
                    s = std::mem::replace(&mut ancestor[s], q);
                }
                delta[q] -= 1;
            }
        }
        if p != NONE {
            ancestor[j] = p;
        }
    }
    // Parents come after their children in column order.
    for j in 0..n {
        if parent[j] != NONE {
            delta[parent[j]] += delta[j];
        }
    }
    delta.into_iter().map(|d| d as usize).collect()
}

/// [`column_counts`], the analysis' column-count stage at `workers` threads:
/// it runs on the calling thread at every worker count, since the
/// near-linear serial body costs less than handing the work out.
pub fn column_counts_parallel<T: Scalar>(
    a: &SymCsc<T>,
    etree: &EliminationTree,
    _workers: usize,
) -> Vec<usize> {
    column_counts(a, etree)
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
    use proptest::prelude::*;

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

    /// The row-subtree walk: one etree path step per nonzero of `L`, row by
    /// row — the reference [`column_counts`] is held to.
    fn row_subtree_counts(a: &SymCsc<f64>, etree: &EliminationTree) -> Vec<usize> {
        let n = a.order();
        let (uptr, urows) = a.upper_pattern();
        let mut cc = vec![1usize; n];
        let mut mark = vec![NONE; n];
        for i in 0..n {
            mark[i] = i;
            for &j0 in &urows[uptr[i]..uptr[i + 1]] {
                let mut j = j0;
                while j < i && mark[j] != i {
                    cc[j] += 1;
                    mark[j] = i;
                    j = etree.parent[j];
                }
            }
        }
        cc
    }

    /// Counts of `a` against the oracle, at every worker count too.
    fn counts_match_oracle(a: &SymCsc<f64>) -> Vec<usize> {
        let t = elimination_tree(a);
        let cc = column_counts(a, &t);
        assert_eq!(cc, row_subtree_counts(a, &t), "n = {}", a.order());
        for w in [1, 2, 4, 8] {
            assert_eq!(column_counts_parallel(a, &t, w), cc, "workers={w}");
        }
        cc
    }

    /// Block-diagonal union of the given matrices.
    fn union(blocks: &[SymCsc<f64>]) -> SymCsc<f64> {
        let mut t = Triplet::new(blocks.iter().map(|b| b.order()).sum());
        let mut base = 0;
        for b in blocks {
            for j in 0..b.order() {
                for &i in b.col_rows(j) {
                    t.push(base + i, base + j, 1.0);
                }
            }
            base += b.order();
        }
        t.assemble()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random lower patterns: up to `per_col` entries per column, each
        /// within `reach` rows below the diagonal (short reaches give deep
        /// trees, long ones bushy ones), the diagonal sometimes missing.
        fn random_lower_patterns_match(
            n in 0usize..160,
            per_col in 0usize..6,
            reach in 1usize..80,
            seed in 0u64..10_000,
        ) {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut rand = |m: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % m as u64) as usize
            };
            let mut t = Triplet::new(n);
            for j in 0..n {
                if rand(8) != 0 {
                    t.push(j, j, 1.0);
                }
                for _ in 0..rand(per_col + 1) {
                    let i = j + 1 + rand(reach);
                    if i < n {
                        t.push(i, j, 1.0);
                    }
                }
            }
            counts_match_oracle(&t.assemble());
        }
    }

    #[test]
    fn column_counts_match_row_subtree_oracle() {
        random_lower_patterns_match();
        // Forests: a diagonal matrix, and several components side by side.
        let diagonal = union(&vec![tridiag(1); 9]);
        assert_eq!(counts_match_oracle(&diagonal), vec![1; 9]);
        let full = |n: usize| {
            let mut tp = Triplet::new(n);
            for i in 0..n {
                tp.push(i, i, 4.0);
                if i > 0 {
                    tp.push(i, 0, -1.0); // dense first column ⇒ full fill
                }
            }
            tp.assemble()
        };
        let forest = union(&[tridiag(5), arrow(6), tridiag(1), full(4), arrow(3)]);
        let cc = counts_match_oracle(&forest);
        assert_eq!(cc, [2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 1, 1, 4, 3, 2, 1, 2, 2, 1]);
        for a in [tridiag(300), arrow(257), full(129)] {
            counts_match_oracle(&a);
        }
        // A 200 000-column chain: nothing recursive may walk its etree.
        let n = 200_000;
        let cc = counts_match_oracle(&tridiag(n));
        assert!(cc[..n - 1].iter().all(|&c| c == 2) && cc[n - 1] == 1);
        assert_eq!(counts_match_oracle(&tridiag(0)), Vec::<usize>::new());
        assert_eq!(counts_match_oracle(&tridiag(1)), vec![1]);
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
