//! Compact subgraphs and the breadth-first search the orderings share.
//!
//! Nested dissection spends its time walking ever smaller pieces of the
//! graph. Walking them *in place* — the whole graph's CSR plus a membership
//! mask — touches memory scattered over the full vertex range at every
//! level of the recursion. Instead each piece is relabelled once into a
//! [`Subgraph`]: its own CSR over `0..len` in `u32`, read by every traversal
//! of that piece and by the extraction of its children.

use crate::csc::Adjacency;

/// A vertex-induced subgraph relabelled to `0..len`.
///
/// Neighbour lists hold local ids **in the order the parent listed them**
/// (by induction: ascending id in the graph the ordering was asked for), so
/// a traversal visits vertices in exactly the order it would on the
/// original graph restricted to this vertex set. The local numbering itself
/// is the order the vertices were handed to [`Subgraph::extract_into`].
#[derive(Debug, Default)]
pub(crate) struct Subgraph {
    /// `verts[local]` = the vertex's id in the original graph.
    pub verts: Vec<u32>,
    /// Offsets into [`Self::adj`] (`len + 1` entries).
    pub xadj: Vec<u32>,
    /// Concatenated neighbour lists, local ids.
    pub adj: Vec<u32>,
}

impl Subgraph {
    /// The whole of `g` under the identity numbering.
    pub fn whole(g: &Adjacency) -> Self {
        // u32 indices, with headroom for arenas a small multiple of the size.
        assert!(
            g.len().max(g.adj.len()) < 1 << 29,
            "graph too large for the orderings' u32 indices"
        );
        Subgraph {
            verts: (0..g.len() as u32).collect(),
            xadj: g.xadj.iter().map(|&x| x as u32).collect(),
            adj: g.adj.iter().map(|&w| w as u32).collect(),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Neighbours of local vertex `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[self.xadj[v as usize] as usize..self.xadj[v as usize + 1] as usize]
    }

    /// Degree of local vertex `v` within this subgraph.
    pub fn degree(&self, v: u32) -> u32 {
        self.xadj[v as usize + 1] - self.xadj[v as usize]
    }

    /// Write the subgraph induced by `members` into `out` (its buffers are
    /// reused), numbering the members in the order given.
    ///
    /// `members` must be the run `first..first + members.len()` of a vertex
    /// sequence indexed by `pos` (`pos[v]` = place of `v` in the sequence,
    /// valid for every vertex of `self`): membership of a neighbour is then
    /// one range test, and its new id one subtraction.
    pub fn extract_into(&self, members: &[u32], pos: &[u32], first: usize, out: &mut Subgraph) {
        let (first, len) = (first as u32, members.len() as u32);
        out.verts.clear();
        out.verts.extend(members.iter().map(|&v| self.verts[v as usize]));
        // Every neighbour is written to the next slot and the slot is kept
        // only if the neighbour is a member: no branch to mispredict.
        let bound: usize = members.iter().map(|&v| self.degree(v) as usize).sum();
        out.adj.resize(bound, 0);
        out.xadj.clear();
        out.xadj.reserve(members.len() + 1);
        out.xadj.push(0);
        let mut kept = 0usize;
        for &v in members {
            for &w in self.neighbors(v) {
                let local = pos[w as usize].wrapping_sub(first);
                out.adj[kept] = local;
                kept += usize::from(local < len);
            }
            out.xadj.push(kept as u32);
        }
        out.adj.truncate(kept);
    }
}

/// A set over `0..n` that empties in O(1): membership is "marked with the
/// current generation".
#[derive(Debug, Default)]
pub(crate) struct Stamps {
    mark: Vec<u32>,
    cur: u32,
}

impl Stamps {
    /// The empty set over `0..n`; reuses the buffer.
    pub fn reset(&mut self, n: usize) {
        self.mark.clear();
        self.mark.resize(n, 0);
        self.cur = 1;
    }

    /// Empty the set.
    pub fn clear(&mut self) {
        if self.cur == u32::MAX {
            self.mark.fill(0);
            self.cur = 0;
        }
        self.cur += 1;
    }

    /// Whether `v` is in the set.
    pub fn contains(&self, v: u32) -> bool {
        self.mark[v as usize] == self.cur
    }

    /// Add `v`; `true` if it was not yet a member.
    pub fn insert(&mut self, v: u32) -> bool {
        let m = &mut self.mark[v as usize];
        let fresh = *m != self.cur;
        *m = self.cur;
        fresh
    }
}

/// Reusable breadth-first-search scratch for graphs of up to `n` vertices.
#[derive(Debug)]
pub(crate) struct BfsWork {
    seen: Stamps,
    /// Vertices in visit order.
    pub queue: Vec<u32>,
    /// After [`Self::bfs`]: level `l` is `queue[level_ptr[l]..level_ptr[l + 1]]`.
    pub level_ptr: Vec<usize>,
    /// After [`Self::components`]: component `c` is
    /// `queue[comp_ptr[c]..comp_ptr[c + 1]]`.
    pub comp_ptr: Vec<usize>,
}

impl BfsWork {
    pub fn new(n: usize) -> Self {
        let mut seen = Stamps::default();
        seen.reset(n);
        BfsWork { seen, queue: Vec::with_capacity(n), level_ptr: Vec::new(), comp_ptr: Vec::new() }
    }

    /// Append the BFS from the unseen vertex `root` to the queue, one
    /// `level_ptr` entry per level start.
    fn grow(&mut self, g: &Subgraph, root: u32) {
        let mut head = self.queue.len();
        self.seen.insert(root);
        self.queue.push(root);
        while head < self.queue.len() {
            let end = self.queue.len();
            self.level_ptr.push(head);
            for i in head..end {
                for &w in g.neighbors(self.queue[i]) {
                    if self.seen.insert(w) {
                        self.queue.push(w);
                    }
                }
            }
            head = end;
        }
    }

    /// BFS from `root`; returns the number of levels and leaves the visit
    /// order in `queue`, cut into levels by `level_ptr`.
    pub fn bfs(&mut self, g: &Subgraph, root: u32) -> usize {
        self.seen.clear();
        self.queue.clear();
        self.level_ptr.clear();
        self.grow(g, root);
        self.level_ptr.push(self.queue.len());
        self.level_ptr.len() - 1
    }

    /// Connected components of `g`, each in BFS order from its lowest
    /// local vertex, concatenated in `queue` and cut by `comp_ptr`. A
    /// connected graph costs one traversal and no scan for further seeds.
    pub fn components(&mut self, g: &Subgraph) {
        self.seen.clear();
        self.queue.clear();
        self.level_ptr.clear();
        self.comp_ptr.clear();
        for seed in 0..g.len() as u32 {
            if self.queue.len() == g.len() {
                break;
            }
            if !self.seen.contains(seed) {
                self.comp_ptr.push(self.queue.len());
                self.grow(g, seed);
            }
        }
        self.comp_ptr.push(self.queue.len());
    }
}

/// Find a pseudo-peripheral vertex of the component containing `start` by
/// repeated BFS to the farthest vertex (George-Liu heuristic); among the
/// farthest, the first visited of minimum `degree` is taken.
///
/// The last sweep is rooted at the vertex returned, so `work` holds its
/// level structure on return.
pub(crate) fn pseudo_peripheral(
    g: &Subgraph,
    start: u32,
    degree: impl Fn(u32) -> usize,
    work: &mut BfsWork,
) -> u32 {
    let mut v = start;
    let mut ecc = 0usize;
    loop {
        let far_ecc = work.bfs(g, v) - 1;
        if far_ecc <= ecc {
            return v;
        }
        let last = &work.queue[work.level_ptr[far_ecc]..];
        let mut far = last[0];
        for &w in &last[1..] {
            if degree(w) < degree(far) {
                far = w;
            }
        }
        ecc = far_ecc;
        v = far;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::tests::grid2d;

    #[test]
    fn pseudo_peripheral_of_path_is_an_end() {
        let g = Subgraph::whole(&grid2d(9, 1).to_adjacency());
        let mut work = BfsWork::new(9);
        let v = pseudo_peripheral(&g, 4, |v| g.degree(v) as usize, &mut work);
        assert!(v == 0 || v == 8, "got {v}");
        // The level structure left behind is the one rooted at `v`.
        assert_eq!(work.queue[0], v);
        assert_eq!(work.level_ptr, (0..=9).collect::<Vec<_>>());
    }

    #[test]
    fn components_are_bfs_ordered_runs() {
        // A 3×2 grid is one component, visited row-major neighbours first.
        let whole = Subgraph::whole(&grid2d(3, 2).to_adjacency());
        let mut work = BfsWork::new(6);
        work.components(&whole);
        assert_eq!(work.comp_ptr, [0, 6]);
        assert_eq!(work.queue, [0, 1, 3, 2, 4, 5]);

        // Members {5, 0, 1} in that order: 0–1 stay adjacent, 5 is alone.
        let pos = [1, 2, 9, 9, 9, 0];
        let mut sub = Subgraph::default();
        whole.extract_into(&[5, 0, 1], &pos, 0, &mut sub);
        assert_eq!(sub.verts, [5, 0, 1]);
        assert_eq!(sub.xadj, [0, 0, 1, 2]);
        assert_eq!(sub.adj, [2, 1]);
        work.components(&sub);
        assert_eq!(work.comp_ptr, [0, 1, 3]);
        assert_eq!(work.queue, [0, 1, 2]);
    }
}
