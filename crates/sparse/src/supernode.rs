//! Supernode detection and relaxed amalgamation.
//!
//! A *supernode* is a maximal block of consecutive columns of `L` with the
//! same sub-diagonal sparsity pattern; the multifrontal method factors one
//! supernode per frontal matrix (paper §II-A, "supernodal variant"). Relaxed
//! amalgamation merges small children into parents, accepting a bounded
//! amount of explicit-zero fill to get larger, more BLAS-friendly fronts —
//! this is what produces the moderate/large `(m, k)` calls on which the GPU
//! policies pay off.

use crate::etree::{child_counts, EliminationTree, NONE};

/// A partition of the columns `0..n` into supernodes of consecutive columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupernodePartition {
    /// `starts[s]..starts[s+1]` are the columns of supernode `s`;
    /// `starts.len() == num_supernodes + 1`, `starts[0] == 0`.
    pub starts: Vec<usize>,
}

impl SupernodePartition {
    /// Number of supernodes.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// `true` when there are no columns.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Columns of supernode `s`.
    pub fn cols(&self, s: usize) -> std::ops::Range<usize> {
        self.starts[s]..self.starts[s + 1]
    }

    /// Width (`k`) of supernode `s`.
    pub fn width(&self, s: usize) -> usize {
        self.starts[s + 1] - self.starts[s]
    }

    /// Map from column to its supernode.
    pub fn col_to_sn(&self) -> Vec<usize> {
        let n = *self.starts.last().unwrap();
        let mut map = vec![0usize; n];
        for s in 0..self.len() {
            for c in self.cols(s) {
                map[c] = s;
            }
        }
        map
    }

    /// Supernodal elimination tree: parent supernode of `s` is the supernode
    /// containing `parent(last column of s)`, or [`NONE`] for roots.
    pub fn supernode_etree(&self, etree: &EliminationTree) -> Vec<usize> {
        let col2sn = self.col_to_sn();
        (0..self.len())
            .map(|s| {
                let last = self.starts[s + 1] - 1;
                match etree.parent[last] {
                    NONE => NONE,
                    p => col2sn[p],
                }
            })
            .collect()
    }

    fn validate(&self) {
        assert!(!self.starts.is_empty() && self.starts[0] == 0);
        assert!(self.starts.windows(2).all(|w| w[0] < w[1]), "empty supernode");
    }
}

/// A supernodal forest in flat form: CSR child lists and a depth-first
/// postorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupernodeForest {
    /// `child_idx[child_ptr[s]..child_ptr[s + 1]]` are the children of
    /// supernode `s`, ascending.
    pub child_ptr: Vec<usize>,
    /// Concatenated child lists.
    pub child_idx: Vec<usize>,
    /// Depth-first postorder (children before parents; every subtree is a
    /// contiguous run ending at its root).
    pub postorder: Vec<usize>,
}

impl SupernodeForest {
    /// Children of supernode `s`, ascending.
    pub fn children(&self, s: usize) -> &[usize] {
        &self.child_idx[self.child_ptr[s]..self.child_ptr[s + 1]]
    }
}

/// Child lists and postorder of a supernodal forest given by its parent
/// array ([`NONE`] marks roots).
///
/// Shared by the serial and parallel symbolic factorizations so both walk
/// exactly the same traversal — the postorder is part of the bitwise
/// determinism contract on [`crate::symbolic::SymbolicFactor`].
pub fn supernode_forest(sn_parent: &[usize]) -> SupernodeForest {
    let nsn = sn_parent.len();
    let mut child_ptr = vec![0usize; nsn + 1];
    for &p in sn_parent {
        if p != NONE {
            child_ptr[p + 1] += 1;
        }
    }
    for s in 0..nsn {
        child_ptr[s + 1] += child_ptr[s];
    }
    // Ascending ids fill each list in ascending order.
    let mut next = child_ptr[..nsn].to_vec();
    let mut child_idx = vec![0usize; child_ptr[nsn]];
    for (s, &p) in sn_parent.iter().enumerate() {
        if p != NONE {
            child_idx[next[p]] = s;
            next[p] += 1;
        }
    }
    let mut postorder = Vec::with_capacity(nsn);
    let mut stack: Vec<(usize, bool)> =
        (0..nsn).rev().filter(|&s| sn_parent[s] == NONE).map(|r| (r, false)).collect();
    while let Some((s, expanded)) = stack.pop() {
        if expanded {
            postorder.push(s);
        } else {
            stack.push((s, true));
            for &c in child_idx[child_ptr[s]..child_ptr[s + 1]].iter().rev() {
                stack.push((c, false));
            }
        }
    }
    assert_eq!(postorder.len(), nsn, "supernodal forest must cover all supernodes");
    SupernodeForest { child_ptr, child_idx, postorder }
}

/// Detect **fundamental supernodes** from the elimination tree and column
/// counts: column `j+1` joins `j`'s supernode iff `parent(j) == j+1`,
/// `cc[j+1] == cc[j] − 1`, and `j+1` has exactly one etree child.
pub fn fundamental_supernodes(etree: &EliminationTree, colcount: &[usize]) -> SupernodePartition {
    let n = etree.len();
    assert_eq!(colcount.len(), n);
    let nchild = child_counts(etree);
    let mut starts = vec![0usize];
    for j in 1..n {
        let merge =
            etree.parent[j - 1] == j && colcount[j] + 1 == colcount[j - 1] && nchild[j] == 1;
        if !merge {
            starts.push(j);
        }
    }
    starts.push(n);
    let p = SupernodePartition { starts };
    p.validate();
    p
}

/// Options for relaxed amalgamation.
#[derive(Debug, Clone)]
pub struct AmalgamationOptions {
    /// Merge a child into its parent when the child's width is at most this
    /// (small supernodes are never worth a separate front).
    pub small: usize,
    /// Otherwise merge when the fraction of explicit zeros introduced in the
    /// merged front stays at or below this bound.
    pub zero_fraction: f64,
    /// Upper bound on merged supernode width (0 = unbounded).
    pub max_width: usize,
}

impl Default for AmalgamationOptions {
    fn default() -> Self {
        AmalgamationOptions { small: 8, zero_fraction: 0.12, max_width: 0 }
    }
}

/// Relaxed amalgamation: greedily merge supernodes with their parents where
/// profitable, bottom-up. `colcount` are per-column counts of `L` (used to
/// estimate the zero fill a merge introduces).
///
/// Returns the coarsened partition.
pub fn amalgamate(
    part: &SupernodePartition,
    etree: &EliminationTree,
    colcount: &[usize],
    opts: &AmalgamationOptions,
) -> SupernodePartition {
    let nsn = part.len();
    let sn_parent = part.supernode_etree(etree);
    // Work bottom-up (supernodes are already in ascending column order, and
    // parents always have higher indices). Union-find onto parents keeps the
    // "merged into" chain; a merge is only allowed between a supernode and
    // its *immediate* next column neighbor chain — merging sn s into parent p
    // requires the columns be consecutive, i.e. p starts where s ends after
    // previous merges along that chain.
    let mut merged_into: Vec<usize> = (0..nsn).collect();
    // Path-halving find: every link on the walk is re-pointed at its
    // grandparent, keeping chains logarithmic even on the deep elimination
    // chains where amalgamation fires most (a plain chain-walk is worst-case
    // quadratic there). Halving only shortcuts within a group, so group
    // roots — and therefore the resulting partition — are unchanged.
    fn find(mi: &mut [usize], mut s: usize) -> usize {
        while mi[s] != s {
            mi[s] = mi[mi[s]];
            s = mi[s];
        }
        s
    }
    // Track, for each live group, its column span and an estimate of its
    // structural row count (rows of the front = colcount of its first col).
    let mut span: Vec<(usize, usize)> =
        (0..nsn).map(|s| (part.starts[s], part.starts[s + 1])).collect();

    for (s, &p) in sn_parent.iter().enumerate() {
        if p == NONE {
            continue;
        }
        let sroot = find(&mut merged_into, s);
        let proot = find(&mut merged_into, p);
        if sroot == proot {
            continue;
        }
        let (s0, s1) = span[sroot];
        let (p0, p1) = span[proot];
        if s1 != p0 {
            // Not column-consecutive (a sibling sits in between) — cannot
            // amalgamate without breaking the contiguous-column invariant.
            continue;
        }
        let merged_width = p1 - s0;
        if opts.max_width != 0 && merged_width > opts.max_width {
            continue;
        }
        let child_width = s1 - s0;
        // Estimate: the merged front has rows(colcount[s0] extended to the
        // parent's structure). Zeros introduced ≈ columns of the child gain
        // rows they did not have: (rows_parent_front + parent_width) vs
        // child's own counts.
        let rows_merged = colcount[s0].max(child_width + colcount[p0]);
        // Explicit zeros introduced anywhere in the merged trapezoid: column
        // at offset i would hold rows_merged − i entries vs. its own count.
        let mut zeros = 0usize;
        for (off, &have) in colcount[s0..p1].iter().enumerate() {
            let would = rows_merged - off;
            zeros += would.saturating_sub(have);
        }
        let total: usize = (0..merged_width).map(|i| rows_merged - i).sum();
        let frac = zeros as f64 / total.max(1) as f64;
        if child_width <= opts.small || frac <= opts.zero_fraction {
            merged_into[sroot] = proot;
            span[proot] = (s0, p1);
        }
    }

    // Collect surviving group spans in column order.
    let mut starts: Vec<usize> =
        (0..nsn).filter(|&s| find(&mut merged_into, s) == s).map(|s| span[s].0).collect();
    starts.sort_unstable();
    starts.push(*part.starts.last().unwrap());
    let out = SupernodePartition { starts };
    out.validate();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Triplet;
    use crate::etree::{column_counts, elimination_tree};

    fn dense_lower_chain(n: usize) -> (EliminationTree, Vec<usize>) {
        // Fully dense matrix: single supernode of width n.
        let parent = (0..n).map(|j| if j + 1 < n { j + 1 } else { NONE }).collect();
        let t = EliminationTree { parent };
        let cc = (0..n).map(|j| n - j).collect();
        (t, cc)
    }

    #[test]
    fn dense_matrix_is_one_supernode() {
        let (t, cc) = dense_lower_chain(6);
        let p = fundamental_supernodes(&t, &cc);
        assert_eq!(p.starts, vec![0, 6]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.width(0), 6);
    }

    #[test]
    fn tridiagonal_supernodes_are_pairs_or_singletons() {
        // Tridiagonal: cc = [2,2,...,2,1], parent chain. Fundamental
        // supernodes: columns j and j+1 merge only when cc[j+1]=cc[j]-1,
        // which holds only for the last pair.
        let n = 5;
        let mut t = Triplet::new(n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i + 1, i, -1.0);
            }
        }
        let a = t.assemble();
        let et = elimination_tree(&a);
        let cc = column_counts(&a, &et);
        let p = fundamental_supernodes(&et, &cc);
        // Last two columns form one supernode (pattern {j, j+1} ⊃ {j+1}).
        assert_eq!(*p.starts.last().unwrap(), n);
        assert_eq!(p.width(p.len() - 1), 2);
    }

    #[test]
    fn supernode_etree_points_to_containing_supernode() {
        let (t, cc) = dense_lower_chain(4);
        let p = fundamental_supernodes(&t, &cc);
        let se = p.supernode_etree(&t);
        assert_eq!(se, vec![NONE]);
    }

    #[test]
    fn col_to_sn_roundtrip() {
        let p = SupernodePartition { starts: vec![0, 2, 3, 7] };
        let map = p.col_to_sn();
        assert_eq!(map, vec![0, 0, 1, 2, 2, 2, 2]);
        for s in 0..p.len() {
            for c in p.cols(s) {
                assert_eq!(map[c], s);
            }
        }
    }

    #[test]
    fn amalgamation_merges_small_children() {
        // Chain etree with singleton supernodes: amalgamation with small=2
        // must coarsen the partition.
        let n = 8;
        let parent: Vec<usize> = (0..n).map(|j| if j + 1 < n { j + 1 } else { NONE }).collect();
        let et = EliminationTree { parent };
        // Column counts decreasing by 2 — no fundamental merges.
        let cc: Vec<usize> = (0..n).map(|j| 2 * (n - j)).collect();
        let fund = fundamental_supernodes(&et, &cc);
        assert_eq!(fund.len(), n, "no fundamental merges expected");
        let am = amalgamate(
            &fund,
            &et,
            &cc,
            &AmalgamationOptions { small: 2, zero_fraction: 0.0, max_width: 0 },
        );
        assert!(am.len() < n, "amalgamation must coarsen: {:?}", am.starts);
        // Still a valid partition of 0..n.
        assert_eq!(*am.starts.last().unwrap(), n);
    }

    #[test]
    fn amalgamation_respects_max_width() {
        let n = 16;
        let parent: Vec<usize> = (0..n).map(|j| if j + 1 < n { j + 1 } else { NONE }).collect();
        let et = EliminationTree { parent };
        let cc: Vec<usize> = (0..n).map(|j| n - j).collect();
        // Start from singleton supernodes (a dense chain would otherwise be
        // one fundamental supernode already) and amalgamate aggressively.
        let singletons = SupernodePartition { starts: (0..=n).collect() };
        let am = amalgamate(
            &singletons,
            &et,
            &cc,
            &AmalgamationOptions { small: 16, zero_fraction: 1.0, max_width: 4 },
        );
        for s in 0..am.len() {
            assert!(am.width(s) <= 4, "supernode {s} too wide: {}", am.width(s));
        }
    }

    #[test]
    fn deep_chain_amalgamation_is_fast_and_valid() {
        // A long elimination chain of singleton supernodes exercises the
        // union-find chains that path halving keeps short: every merge
        // extends one group, so without halving `find` walks O(n) links.
        let n = 4096;
        let parent: Vec<usize> = (0..n).map(|j| if j + 1 < n { j + 1 } else { NONE }).collect();
        let et = EliminationTree { parent };
        let cc: Vec<usize> = (0..n).map(|j| n - j).collect();
        let singletons = SupernodePartition { starts: (0..=n).collect() };
        let am = amalgamate(
            &singletons,
            &et,
            &cc,
            &AmalgamationOptions { small: n, zero_fraction: 1.0, max_width: 64 },
        );
        assert_eq!(*am.starts.last().unwrap(), n);
        for s in 0..am.len() {
            assert!(am.width(s) <= 64);
        }
        // The dense chain amalgamates into exactly ⌈n/64⌉ max-width groups.
        assert_eq!(am.len(), n.div_ceil(64));
    }

    #[test]
    fn zero_tolerance_blocks_wasteful_merges() {
        // Two supernodes where merging would add zeros: with zero_fraction=0
        // and small=0 nothing merges.
        let n = 4;
        let parent: Vec<usize> = (0..n).map(|j| if j + 1 < n { j + 1 } else { NONE }).collect();
        let et = EliminationTree { parent };
        let cc = vec![4, 2, 2, 1]; // col 0 pattern ⊅ col 1's + 1
        let fund = fundamental_supernodes(&et, &cc);
        let am = amalgamate(
            &fund,
            &et,
            &cc,
            &AmalgamationOptions { small: 0, zero_fraction: 0.0, max_width: 0 },
        );
        assert_eq!(am.starts, fund.starts);
    }
}
