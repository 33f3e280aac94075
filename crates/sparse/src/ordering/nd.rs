//! Recursive nested dissection with level-set vertex separators.
//!
//! The classic recipe for mesh-like graphs: find a pseudo-peripheral vertex,
//! run BFS, pick the thinnest level set near the middle as the separator,
//! recurse on the two halves, and number the separator last. Leaves are
//! ordered by the exact minimum-degree algorithm, giving good fronts at the
//! bottom of the elimination tree. On 3-D grids this yields the
//! characteristic frontal-size distribution the paper's policy analysis
//! depends on (Section IV-A): ~97 % of fronts tiny, a few huge near the root.
//!
//! Every part of the recursion is a compact [`Subgraph`] extracted from its
//! parent, and every part knows where in the final order its vertices go
//! (halves first, separator last), so parts can be finished in any order:
//! a leaf is ordered the moment it is cut off, into scratch that is reused
//! for the next one.

use super::mindeg::MdWork;
use super::subgraph::{pseudo_peripheral, BfsWork, Subgraph};
use crate::csc::Adjacency;
use crate::perm::Permutation;
use std::ops::Range;

/// Tuning knobs for nested dissection.
#[derive(Debug, Clone)]
pub struct NdOptions {
    /// Subgraphs at or below this size are ordered by minimum degree.
    pub leaf_size: usize,
    /// Candidate separator levels are searched within the middle
    /// `separator_band` fraction of the BFS levels.
    pub separator_band: f64,
}

impl Default for NdOptions {
    fn default() -> Self {
        NdOptions { leaf_size: 96, separator_band: 0.5 }
    }
}

/// Nested-dissection ordering; returns `perm[new] = old`.
pub fn nested_dissection(g: &Adjacency, opts: &NdOptions) -> Permutation {
    let mut order = vec![0usize; g.len()];
    let mut nd = Dissector::new(g, opts, g.len());
    let mut pending = nd.top_level_parts(&mut order);
    nd.finish(&mut pending, &mut order);
    Permutation::from_vec(order)
}

/// Parallel nested dissection on the mf-runtime pool, bitwise identical to
/// [`nested_dissection`] at every worker count.
///
/// A part's order depends only on the graph and the part, and lands in a
/// slice of the result fixed when the part is cut off. The driver exploits
/// that by expanding the dissection *serially* — always the largest pending
/// part, by the same [`Dissector::expand`] step the serial recursion takes —
/// until there are a few parts per worker, then runs each part's full
/// serial dissection as an independent task and copies the per-part orders
/// into their slices. Scheduling cannot perturb the result: no step reads
/// anything but its own part, and where an order goes is fixed by the plan,
/// not by task completion order.
pub fn nested_dissection_parallel(g: &Adjacency, opts: &NdOptions, workers: usize) -> Permutation {
    let mut order = vec![0usize; g.len()];
    let mut nd = Dissector::new(g, opts, g.len());
    let mut tasks = nd.top_level_parts(&mut order);
    while tasks.len() < workers.max(1) * 4 {
        // Every pending part is above leaf size: expanding one always makes
        // progress, and evening out the sizes evens out the tasks.
        let Some(largest) = (0..tasks.len()).max_by_key(|&i| tasks[i].sub.len()) else { break };
        let part = tasks.swap_remove(largest);
        nd.expand(&part.sub, part.at, part.connected, &mut order, &mut tasks);
    }
    drop(nd);

    // Run every part's full serial dissection as an independent task; the
    // graph is edgeless (parts are vertex-disjoint by construction).
    let ntasks = tasks.len();
    let graph = mf_runtime::TaskGraph::new(ntasks);
    let rt = mf_runtime::Runtime::new(workers.max(1).min(ntasks.max(1)));
    let largest = tasks.iter().map(|t| t.sub.len()).max().unwrap_or(0);
    // Per-worker scratch plus the (task id, emitted order) pairs it ran.
    type WorkerState<'a> = (Dissector<'a>, Vec<(usize, Vec<usize>)>);
    let states: Vec<WorkerState> =
        (0..rt.workers()).map(|_| (Dissector::new(g, opts, largest), Vec::new())).collect();
    let tasks = &tasks;
    let (states, _errs) = rt.run(&graph, states, |(nd, done), t| -> Result<(), ()> {
        let part = &tasks[t];
        let mut out = vec![0usize; part.sub.len()];
        let mut pending = Vec::new();
        nd.expand(&part.sub, 0, part.connected, &mut out, &mut pending);
        nd.finish(&mut pending, &mut out);
        done.push((t, out));
        Ok(())
    });
    for (t, out) in states.into_iter().flat_map(|(_, done)| done) {
        order[tasks[t].at..][..out.len()].copy_from_slice(&out);
    }
    Permutation::from_vec(order)
}

/// A part of the graph still to be dissected.
struct Part {
    sub: Subgraph,
    /// Its vertices fill `order[at..at + sub.len()]`.
    at: usize,
    /// Connected by construction — no component search needed.
    connected: bool,
}

/// One worker's dissection state: the inputs, and scratch allocated once
/// for parts of up to `capacity` vertices and reused down the recursion.
struct Dissector<'a> {
    g: &'a Adjacency,
    opts: &'a NdOptions,
    bfs: BfsWork,
    /// `pos[v]` = place of local vertex `v` in `bfs.queue`.
    pos: Vec<u32>,
    /// The leaf being ordered.
    leaf: Subgraph,
    md: MdWork,
}

impl<'a> Dissector<'a> {
    fn new(g: &'a Adjacency, opts: &'a NdOptions, capacity: usize) -> Self {
        Dissector {
            g,
            opts,
            bfs: BfsWork::new(capacity),
            pos: vec![0; capacity],
            leaf: Subgraph::default(),
            md: MdWork::default(),
        }
    }

    /// The graph's connected components as parts, each numbered in BFS
    /// order from its lowest vertex — a connected graph too, unlike a part
    /// found connected further down, which keeps its numbering (leaf
    /// tie-breaks follow the numbering). Those at or below leaf size are
    /// ordered on the spot instead.
    fn top_level_parts(&mut self, order: &mut [usize]) -> Vec<Part> {
        let whole = Subgraph::whole(self.g);
        let mut parts = Vec::new();
        self.bfs.components(&whole);
        self.cut_components(&whole, 0, order, &mut parts);
        parts
    }

    /// Dissect every pending part to the end. Iterative, so deep recursions
    /// on elongated meshes cannot overflow the stack.
    fn finish(&mut self, pending: &mut Vec<Part>, order: &mut [usize]) {
        while let Some(part) = pending.pop() {
            self.expand(&part.sub, part.at, part.connected, order, pending);
        }
    }

    /// One dissection step: order `sub` whole if it is a leaf, else split it
    /// into components or into halves and a separator, writing what is
    /// final into `order[at..at + sub.len()]` and queueing what is not.
    fn expand(
        &mut self,
        sub: &Subgraph,
        at: usize,
        connected: bool,
        order: &mut [usize],
        pending: &mut Vec<Part>,
    ) {
        let n = sub.len();
        if n <= self.opts.leaf_size {
            return self.md.order(sub, &mut order[at..at + n]);
        }
        // The far half of a split may be disconnected; dissect each
        // connected component independently.
        if !connected {
            self.bfs.components(sub);
            if self.bfs.comp_ptr.len() > 2 {
                return self.cut_components(sub, at, order, pending);
            }
        }
        // Level structure rooted at a pseudo-peripheral vertex. Among the
        // farthest vertices the sweep prefers low degree in the whole graph.
        let g = self.g;
        pseudo_peripheral(sub, 0, |v| g.degree(sub.verts[v as usize] as usize), &mut self.bfs);
        let level_ptr = &self.bfs.level_ptr;
        let nlevels = level_ptr.len() - 1;
        debug_assert_eq!(self.bfs.queue.len(), n, "part must be connected");
        if nlevels < 3 {
            // The graph is complete: no useful split, treat as a leaf.
            return self.md.order(sub, &mut order[at..at + n]);
        }
        // Search the middle band for the thinnest level, balancing halves:
        // cost = |level| + imbalance penalty.
        let half_band = (nlevels as f64 * self.opts.separator_band / 2.0).max(1.0) as usize;
        let mid = nlevels / 2;
        let lo = mid.saturating_sub(half_band).max(1);
        let hi = (mid + half_band).min(nlevels - 2);
        let mut best_level = lo;
        let mut best_cost = f64::INFINITY;
        for l in lo..=hi {
            let na = level_ptr[l];
            let nb = n - level_ptr[l + 1];
            let imbalance = (na as f64 - nb as f64).abs() / n as f64;
            let cost = (level_ptr[l + 1] - level_ptr[l]) as f64 * (1.0 + 2.0 * imbalance);
            if cost < best_cost {
                best_cost = cost;
                best_level = l;
            }
        }
        // Levels below the separator (connected through the root), levels
        // above it, then the separator itself, each in visit order.
        let (a, b) = (0..level_ptr[best_level], level_ptr[best_level + 1]..n);
        let sep = &self.bfs.queue[a.end..b.start];
        for (place, &v) in order[at + a.len() + b.len()..at + n].iter_mut().zip(sep) {
            *place = sub.verts[v as usize] as usize;
        }
        self.index_queue();
        self.cut(sub, a.clone(), at, true, order, pending);
        self.cut(sub, b, at + a.len(), false, order, pending);
    }

    /// Record every visited vertex's place in the queue for [`Self::cut`].
    fn index_queue(&mut self) {
        for (i, &v) in self.bfs.queue.iter().enumerate() {
            self.pos[v as usize] = i as u32;
        }
    }

    /// Cut `sub` into the components `bfs.components` just found, laid out
    /// in `order` from `at` in the order they were found.
    fn cut_components(
        &mut self,
        sub: &Subgraph,
        at: usize,
        order: &mut [usize],
        pending: &mut Vec<Part>,
    ) {
        self.index_queue();
        for c in 0..self.bfs.comp_ptr.len() - 1 {
            let run = self.bfs.comp_ptr[c]..self.bfs.comp_ptr[c + 1];
            self.cut(sub, run.clone(), at + run.start, true, order, pending);
        }
    }

    /// Cut the run `run` of the queue off `sub` as a part to be laid out at
    /// `order[at..]`: ordered on the spot if it is a leaf, queued otherwise.
    fn cut(
        &mut self,
        sub: &Subgraph,
        run: Range<usize>,
        at: usize,
        connected: bool,
        order: &mut [usize],
        pending: &mut Vec<Part>,
    ) {
        let first = run.start;
        let members = &self.bfs.queue[run];
        if members.len() <= self.opts.leaf_size {
            sub.extract_into(members, &self.pos, first, &mut self.leaf);
            self.md.order(&self.leaf, &mut order[at..at + members.len()]);
        } else {
            let mut child = Subgraph::default();
            sub.extract_into(members, &self.pos, first, &mut child);
            pending.push(Part { sub: child, at, connected });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::tests::{fill_of, grid2d};

    #[test]
    fn orders_every_vertex_exactly_once() {
        let a = grid2d(15, 13);
        let p = nested_dissection(&a.to_adjacency(), &NdOptions::default());
        assert_eq!(p.len(), 15 * 13);
    }

    #[test]
    fn separator_numbered_last_dominates_tail() {
        // On a 2-D grid the final vertices of an ND order form the top-level
        // separator — they should cut the grid, i.e. removing them leaves no
        // edge between the two halves.
        let (nx, ny) = (16, 16);
        let a = grid2d(nx, ny);
        let g = a.to_adjacency();
        let p = nested_dissection(&g, &NdOptions::default());
        let n = nx * ny;
        // From a corner the levels are the anti-diagonals, and the longest
        // one — nx vertices — balances the halves: that is the tail.
        let tail = nx;
        let mut reached = vec![false; n];
        for new in n - tail..n {
            reached[p.old_of(new)] = true;
        }
        // Flood the rest from its first vertex; a separator keeps part of
        // it out of reach.
        let start = reached.iter().position(|&sep| !sep).unwrap();
        reached[start] = true;
        let mut stack = vec![start];
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in g.neighbors(v) {
                if !std::mem::replace(&mut reached[w], true) {
                    count += 1;
                    stack.push(w);
                }
            }
        }
        assert!(count < n - tail, "the last {tail} vertices do not cut the grid");
    }

    #[test]
    fn beats_natural_ordering_on_square_grid() {
        let a = grid2d(24, 24);
        let g = a.to_adjacency();
        let nd = nested_dissection(&g, &NdOptions::default());
        let natural = Permutation::identity(a.order());
        let f_nd = fill_of(&a, &nd);
        let f_nat = fill_of(&a, &natural);
        assert!(f_nd < f_nat, "nd fill {f_nd} vs natural {f_nat}");
    }

    #[test]
    fn leaf_size_one_still_valid() {
        let a = grid2d(6, 6);
        let opts = NdOptions { leaf_size: 1, ..Default::default() };
        let p = nested_dissection(&a.to_adjacency(), &opts);
        assert_eq!(p.len(), 36);
    }

    #[test]
    fn handles_disconnected_graph() {
        use crate::csc::Triplet;
        let mut t = Triplet::new(8);
        // Two paths of 4.
        for base in [0usize, 4] {
            for i in 0..4 {
                t.push(base + i, base + i, 2.0);
                if i + 1 < 4 {
                    t.push(base + i + 1, base + i, -1.0);
                }
            }
        }
        let p = nested_dissection(&t.assemble().to_adjacency(), &NdOptions::default());
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn parallel_matches_serial_bitwise_at_every_worker_count() {
        let grids = [grid2d(23, 19), grid2d(400, 3), grid2d(6, 6)];
        for a in &grids {
            let g = a.to_adjacency();
            let serial = nested_dissection(&g, &NdOptions::default());
            for workers in [1, 2, 4, 8] {
                let par = nested_dissection_parallel(&g, &NdOptions::default(), workers);
                assert_eq!(par.as_slice(), serial.as_slice(), "workers={workers}");
            }
        }
    }

    #[test]
    fn parallel_matches_serial_on_disconnected_graph() {
        use crate::csc::Triplet;
        let mut t = Triplet::new(600);
        // Three disjoint paths of 200 — big enough to expand past the
        // top-level components.
        for base in [0usize, 200, 400] {
            for i in 0..200 {
                t.push(base + i, base + i, 2.0);
                if i + 1 < 200 {
                    t.push(base + i + 1, base + i, -1.0);
                }
            }
        }
        let g = t.assemble().to_adjacency();
        let serial = nested_dissection(&g, &NdOptions::default());
        for workers in [1, 2, 4, 8] {
            let par = nested_dissection_parallel(&g, &NdOptions::default(), workers);
            assert_eq!(par.as_slice(), serial.as_slice(), "workers={workers}");
        }
    }

    #[test]
    fn elongated_mesh_no_stack_overflow() {
        // 400×3 strip forces many recursion levels; iterative dissection
        // must handle it.
        let a = grid2d(400, 3);
        let p = nested_dissection(&a.to_adjacency(), &NdOptions::default());
        assert_eq!(p.len(), 1200);
    }
}
