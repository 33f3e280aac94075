//! Range tasks: the one task partition of every tree-parallel stage — the
//! row structures of the analysis, the numeric factor and both solve sweeps.
//!
//! A task is a run of a forest's postorder: a whole subtree, or one node
//! above the subtrees. A range's first node has no child inside the range
//! (a subtree starts at a leaf) and every later node has all of its children
//! inside, so one range loop runs every task, its first node taking what its
//! children's tasks left behind.

use crate::etree::NONE;
use std::ops::Range;

/// The maximal subtrees of the forest given by `postorder` and `parent`
/// ([`NONE`] at the roots) whose roots pass `fits(root, size)`, `size` being
/// the subtree's node count; each is returned as its range of postorder
/// positions, ascending. `fits` must be closed under descendants (a subtree
/// fits only if every subtree inside it does), so the ranges are disjoint and
/// no node outside them has an ancestor inside one.
pub(crate) fn maximal_subtrees(
    postorder: &[usize],
    parent: impl Fn(usize) -> usize,
    fits: impl Fn(usize, usize) -> bool,
) -> Vec<Range<usize>> {
    // Children come first in a postorder: a subtree's size is final when
    // its root is reached.
    let mut size = vec![1usize; postorder.len()];
    for &s in postorder {
        if parent(s) != NONE {
            size[parent(s)] += size[s];
        }
    }
    let mut ranges = Vec::new();
    for (pos, &s) in postorder.iter().enumerate() {
        let p = parent(s);
        if fits(s, size[s]) && (p == NONE || !fits(p, size[p])) {
            ranges.push(pos + 1 - size[s]..pos + 1);
        }
    }
    ranges
}

/// The tasks of a parallel run over a postordered forest: the given
/// subtrees, then one task per node above them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeTasks {
    ranges: Vec<Range<usize>>,
    parents: Vec<usize>,
    task_of: Vec<usize>,
}

impl RangeTasks {
    /// Postorder positions of each task: the subtrees in range order, then
    /// one per remaining node in ascending node id. At one worker the runtime
    /// pops ready tasks by id, so this numbering fixes the one-worker clock
    /// of the parallel factor.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Parent task of each task ([`NONE`] at the roots).
    pub fn parents(&self) -> &[usize] {
        &self.parents
    }

    /// Per node: the task whose range it ends; [`NONE`] elsewhere.
    pub fn task_of(&self) -> &[usize] {
        &self.task_of
    }

    /// The tasks around `subtrees` — disjoint whole subtrees as ranges of
    /// postorder positions, ascending — of the forest given by `postorder`
    /// and `parent` ([`NONE`] at the roots).
    pub fn new(
        postorder: &[usize],
        parent: impl Fn(usize) -> usize,
        subtrees: Vec<Range<usize>>,
    ) -> Self {
        let nodes = postorder.len();
        // Postorder position of every node above the subtrees.
        let mut above = vec![NONE; nodes];
        for (r, &s) in postorder.iter().enumerate() {
            above[s] = r;
        }
        for &s in subtrees.iter().flat_map(|range| &postorder[range.clone()]) {
            above[s] = NONE;
        }
        let mut ranges = subtrees;
        ranges.extend(above.into_iter().filter(|&r| r != NONE).map(|r| r..r + 1));
        let mut task_of = vec![NONE; nodes];
        for (t, range) in ranges.iter().enumerate() {
            task_of[postorder[range.end - 1]] = t;
        }
        let parents = ranges
            .iter()
            .map(|range| match parent(postorder[range.end - 1]) {
                NONE => NONE,
                p => task_of[p],
            })
            .collect();
        RangeTasks { ranges, parents, task_of }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::{SymCsc, Triplet};
    use crate::etree::{column_counts, elimination_tree};
    use crate::ordering::minimum_degree;
    use crate::supernode::{amalgamate, fundamental_supernodes, AmalgamationOptions};
    use crate::symbolic::{row_tasks, symbolic_factor};

    /// 7-point Laplacian pattern on an `nx × ny × nz` grid (a 2-D grid at
    /// `nz = 1`).
    fn grid(nx: usize, ny: usize, nz: usize) -> SymCsc<f64> {
        let idx = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        let mut t = Triplet::new(nx * ny * nz);
        for (x, y, z) in (0..nx * ny * nz).map(|i| (i % nx, i / nx % ny, i / (nx * ny))) {
            t.push(idx(x, y, z), idx(x, y, z), 6.0);
            for (dx, dy, dz) in [(1, 0, 0), (0, 1, 0), (0, 0, 1)] {
                let (x2, y2, z2) = (x + dx, y + dy, z + dz);
                if x2 < nx && y2 < ny && z2 < nz {
                    t.push(idx(x2, y2, z2), idx(x, y, z), -1.0);
                }
            }
        }
        t.assemble()
    }

    #[test]
    fn range_tasks_partition_the_postorder() {
        for a in [grid(60, 60, 1), grid(12, 12, 12), grid(20, 9, 5)] {
            // `order` postorders every ordering, so the structure is built
            // from a raw minimum-degree permutation through the stage calls:
            // with a subtree budget of an eighth of f64's it leaves dozens
            // of supernodes above the subtrees whose ascending ids are not
            // their postorder, so the numbering rule is exercised.
            let pa = minimum_degree(&a.to_adjacency()).permute_sym(&a);
            let et = elimination_tree(&pa);
            let cc = column_counts(&pa, &et);
            let fund = fundamental_supernodes(&et, &cc);
            let part = amalgamate(&fund, &et, &cc, &AmalgamationOptions::default());
            let sym = symbolic_factor(&pa, &et, &part);
            let (nsn, post) = (sym.num_supernodes(), &sym.postorder);
            let parent: Vec<usize> = sym.supernodes.iter().map(|s| s.parent).collect();
            let mut subtree_len = vec![1usize; nsn];
            for &sn in post {
                subtree_len[sn] += sym.children(sn).iter().map(|&c| subtree_len[c]).sum::<usize>();
            }
            let small = |sn: usize| sym.supernodes[sn].front_size() <= 24;
            // The factor's partitions (the solve's has every front
            // eligible), then the analysis' at 2, 4 and 8 workers: the
            // maximal subtrees of at most ⌈nsn / (4·workers)⌉ supernodes.
            let mut partitions = vec![
                (sym.bottom_subtrees(64, small), None),
                (sym.bottom_subtrees(64, |_| true), None),
            ];
            for workers in [2, 4, 8] {
                let cap = nsn.div_ceil(4 * workers);
                let fits = |sn: usize| sn != NONE && subtree_len[sn] <= cap;
                let subtrees = (0..nsn)
                    .filter(|&r| fits(post[r]) && !fits(parent[post[r]]))
                    .map(|r| r + 1 - subtree_len[post[r]]..r + 1)
                    .collect();
                partitions.push((subtrees, Some(workers)));
            }
            for (subtrees, workers) in partitions {
                let tasks = RangeTasks::new(post, |s| parent[s], subtrees.clone());
                let nsub = subtrees.len();
                assert!(nsub > 0 && tasks.ranges.len() > nsub, "subtrees and singletons");
                // The subtrees in range order, then one task per remaining
                // supernode in ascending supernode id.
                assert_eq!(tasks.ranges[..nsub], subtrees[..]);
                assert!(tasks.ranges[nsub..].iter().all(|r| r.len() == 1));
                let above: Vec<usize> =
                    tasks.ranges[nsub..].iter().map(|r| post[r.start]).collect();
                assert!(above.windows(2).all(|w| w[0] < w[1]));
                // Together they cover the postorder exactly once.
                let mut sorted = tasks.ranges.clone();
                sorted.sort_by_key(|r| r.start);
                assert!(sorted.into_iter().flatten().eq(0..nsn));
                for (t, range) in tasks.ranges.iter().enumerate() {
                    let root = post[range.end - 1];
                    assert!(range.len() == 1 || subtree_len[root] == range.len(), "whole subtree");
                    let inside = &post[range.clone()];
                    assert!(sym.children(post[range.start]).iter().all(|c| !inside.contains(c)));
                    assert_eq!(tasks.task_of[root], t);
                    let want =
                        if parent[root] == NONE { NONE } else { tasks.task_of[parent[root]] };
                    assert_eq!(tasks.parents[t], want);
                }
                match workers {
                    // The factor's: ids above the subtrees out of postorder.
                    None => {
                        assert!(tasks.ranges[nsub..].windows(2).any(|w| w[0].start > w[1].start))
                    }
                    // The analysis' is what the row-structure build runs.
                    Some(w) => assert_eq!(tasks, row_tasks(post, &parent, w)),
                }
            }
        }
    }
}
