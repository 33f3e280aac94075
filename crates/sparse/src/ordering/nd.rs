//! Recursive nested dissection with vertex separators.
//!
//! The recipe for mesh-like graphs: find a separator that cuts a part into
//! two halves of similar size, recurse on the halves, and number the
//! separator last. Leaves are ordered by the exact minimum-degree algorithm,
//! giving good fronts at the bottom of the elimination tree. How much the
//! factorization costs is decided by how small *and how balanced* the
//! separators are: a separator that peels a corner off the part is thin but
//! leaves the rest to be cut again, and the separators chain up into one
//! large front at the root.
//!
//! Each part gets up to two candidate separators, scored by one cost,
//! `|S| · n / min(|A|, |B|)` — a separator's size per unit of the smaller
//! half, which cannot be bought down by giving up balance:
//!
//! 1. the cheapest level set, over *all* interior levels, of the
//!    breadth-first search from a pseudo-peripheral vertex. Level sets are
//!    planes on a 5- or 7-point grid seen from a corner, and that is where
//!    this candidate keeps winning;
//! 2. a multilevel vertex separator ([`super::multilevel`]), tried only where
//!    the first candidate is large enough for a better one to repay the
//!    search, and taken only when it costs less. On a 27-point grid or a
//!    3-DOF elasticity mesh the level sets are shells around a corner; this
//!    finds the plane.
//!
//! Every part of the recursion is a compact [`Subgraph`] extracted from its
//! parent, and every part knows where in the final order its vertices go
//! (halves first, separator last), so parts can be finished in any order:
//! a leaf is ordered the moment it is cut off, into scratch that is reused
//! for the next one.

use super::mindeg::MdWork;
use super::multilevel::{Multilevel, SEPARATOR, SIDE_A, SIDE_B};
use super::subgraph::{pseudo_peripheral, BfsWork, Subgraph};
use crate::csc::Adjacency;
use crate::perm::Permutation;
use std::ops::Range;

/// The multilevel candidate is tried when the level-set separator has
/// `|S|³ > MULTILEVEL_TRIGGER · |E|` (`|E|` the part's edges): the search
/// costs a few passes over the edges, a separator costs the factorization
/// about `|S|³` flops. Swept on the benchmark's matrices (Gflop to factor /
/// seconds to order; level sets alone: 14.1 / 0.03 on the 27-point cube 30³,
/// 7.9 / 0.02 on elasticity 16³, 1.87 / 0.11 on the plate):
///
/// | trigger | cube 30³    | elasticity 16³ | 9-point plate 400²          |
/// |---------|-------------|----------------|-----------------------------|
/// | 50      | 5.28 / 0.21 | 2.99 / 0.16    | 1.65 / 0.21                 |
/// | 100     | 5.39 / 0.17 | 3.17 / 0.11    | 1.72 / 0.19                 |
/// | 200     | 5.58 / 0.12 | 3.34 / 0.10    | 1.70 / 0.15 (top part only) |
/// | 300     | 5.60 / 0.11 | 3.34 / 0.10    | 1.87 / 0.13 (never tried)   |
/// | 400     | 5.71 / 0.10 | 3.34 / 0.10    | 1.87 / 0.13                 |
/// | 1000    | 5.71 / 0.10 | 4.43 / 0.05    | 1.87 / 0.13                 |
///
/// Below 200 the extra attempts are on parts of a few hundred vertices,
/// where a millisecond of search buys back microseconds of factorization.
/// From 300 the plate's top part (ratio 283) and the 8³ octants of a 16³
/// cube (ratio between 260 and 285) go without: the plate then orders 30 ms
/// sooner for 9 % more flops, which in a cold solve is a wash, but the small
/// cube costs 1.54× a geometric dissection, over the 1.5× that
/// `ordering_quality_*` holds meshes to. Above 400 whole levels of an
/// elasticity mesh go without. Parts whose level sets are already planes
/// (7-point grids, slabs) never reach it.
const MULTILEVEL_TRIGGER: u64 = 200;

/// Tuning knobs for nested dissection.
#[derive(Debug, Clone)]
pub struct NdOptions {
    /// Subgraphs at or below this size are ordered by minimum degree.
    pub leaf_size: usize,
}

impl Default for NdOptions {
    fn default() -> Self {
        NdOptions { leaf_size: 96 }
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

/// A separator and the halves it leaves, as runs of the vertex sequence in
/// `bfs.queue`.
struct Split {
    a: Range<usize>,
    b: Range<usize>,
    sep: Range<usize>,
}

impl Split {
    /// Level `l` of the level structure as the separator.
    fn at_level(level_ptr: &[usize], l: usize) -> Split {
        let n = level_ptr[level_ptr.len() - 1];
        Split { a: 0..level_ptr[l], sep: level_ptr[l]..level_ptr[l + 1], b: level_ptr[l + 1]..n }
    }

    /// Whether this split costs strictly less than `other` under
    /// `|S| · n / min(|A|, |B|)` (compared cross-multiplied, so exactly; a
    /// split with an empty half beats nothing).
    fn beats(&self, other: &Split) -> bool {
        let smaller_half = |s: &Split| s.a.len().min(s.b.len()) as u64;
        self.sep.len() as u64 * smaller_half(other) < other.sep.len() as u64 * smaller_half(self)
    }
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
    multilevel: Multilevel,
    /// [`MULTILEVEL_TRIGGER`], except where a test switches the second
    /// candidate off.
    trigger: u64,
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
            multilevel: Multilevel::default(),
            trigger: MULTILEVEL_TRIGGER,
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
        // First candidate: the interior level that costs least. (Both
        // neighbours of an interior level are non-empty.)
        let mut split = Split::at_level(level_ptr, 1);
        for l in 2..nlevels - 1 {
            let other = Split::at_level(level_ptr, l);
            if other.beats(&split) {
                split = other;
            }
        }
        // The levels below a level are connected through the root.
        let mut below_connected = true;
        // Second candidate, where a smaller separator would repay the search.
        let (s, edges) = (split.sep.len() as u128, (sub.adj.len() / 2) as u128);
        if s * s * s > u128::from(self.trigger) * edges {
            let [na, nb, ns] = self.multilevel.separator(sub);
            let other = Split { a: 0..na, b: na..na + nb, sep: na + nb..n };
            debug_assert_eq!(other.sep.len(), ns);
            if other.beats(&split) {
                // Its halves are not runs of the queue: replace the queue by
                // the stable partition of the part's own numbering.
                let side = self.multilevel.side();
                self.bfs.queue.clear();
                for s in [SIDE_A, SIDE_B, SEPARATOR] {
                    self.bfs.queue.extend((0..n as u32).filter(|&v| side[v as usize] == s));
                }
                split = other;
                below_connected = false;
            }
        }
        let Split { a, b, sep } = split;
        let tail = &mut order[at + a.len() + b.len()..at + n];
        for (place, &v) in tail.iter_mut().zip(&self.bfs.queue[sep]) {
            *place = sub.verts[v as usize] as usize;
        }
        self.index_queue();
        self.cut(sub, a.clone(), at, below_connected, order, pending);
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
    use crate::csc::{SymCsc, Triplet};
    use crate::ordering::tests::{fill_of, grid2d};

    #[test]
    fn orders_every_vertex_exactly_once() {
        let a = grid2d(15, 13);
        let p = nested_dissection(&a.to_adjacency(), &NdOptions::default());
        assert_eq!(p.len(), 15 * 13);
    }

    /// 27-point Laplacian pattern on an `n × n × n` grid.
    fn grid3d_27(n: usize) -> SymCsc<f64> {
        let mut t = Triplet::new(n * n * n);
        let idx = |x: usize, y: usize, z: usize| (z * n + y) * n + x;
        for (x, y, z) in (0..n * n * n).map(|i| (i % n, i / n % n, i / (n * n))) {
            t.push(idx(x, y, z), idx(x, y, z), 26.0);
            for (dx, dy, dz) in (0..27).map(|d| (d % 3, d / 3 % 3, d / 9)) {
                let (x2, y2, z2) = (x + dx, y + dy, z + dz);
                // Each edge once, from its lexicographically larger end.
                if (dz, dy, dx) > (1, 1, 1) && x2 > 0 && y2 > 0 && z2 > 0 {
                    let (x2, y2, z2) = (x2 - 1, y2 - 1, z2 - 1);
                    if x2 < n && y2 < n && z2 < n {
                        t.push(idx(x2, y2, z2), idx(x, y, z), -1.0);
                    }
                }
            }
        }
        t.assemble()
    }

    /// The top-level separator of the order `p` of the connected graph `g`
    /// as `(|S|, size of the largest part it leaves)`: the shortest tail of
    /// the order whose removal disconnects the rest.
    fn top_separator(g: &Adjacency, p: &Permutation) -> (usize, usize) {
        let n = g.len();
        for tail in 1..n {
            // Flood the rest from each unreached vertex in turn.
            let mut reached = vec![false; n];
            for new in n - tail..n {
                reached[p.old_of(new)] = true;
            }
            let mut largest = 0;
            let mut parts = 0;
            for start in 0..n {
                if std::mem::replace(&mut reached[start], true) {
                    continue;
                }
                parts += 1;
                let mut count = 1;
                let mut stack = vec![start];
                while let Some(v) = stack.pop() {
                    for &w in g.neighbors(v) {
                        if !std::mem::replace(&mut reached[w], true) {
                            count += 1;
                            stack.push(w);
                        }
                    }
                }
                largest = largest.max(count);
            }
            if parts > 1 {
                return (tail, largest);
            }
        }
        panic!("no tail of the order disconnects the graph");
    }

    #[test]
    fn separator_numbered_last_cuts_the_grid_in_balance() {
        // The final vertices of an ND order are the top-level separator:
        // removing them must leave no part with more than two thirds of the
        // vertices. On these grids the best separator is a grid line or
        // plane, and a level-set separator is at worst the longest diagonal.
        assert_eq!(grid3d_27(3).to_adjacency().degree(13), 26);
        for (a, line) in [(grid2d(16, 16), 16), (grid2d(24, 11), 11), (grid3d_27(10), 100)] {
            let g = a.to_adjacency();
            let n = g.len();
            let p = nested_dissection(&g, &NdOptions::default());
            let (sep, largest) = top_separator(&g, &p);
            assert!(3 * largest <= 2 * n, "n = {n}: a part of {largest} beside |S| = {sep}");
            assert!(
                sep <= line + line / 2,
                "n = {n}: |S| = {sep} where a line or plane has {line}"
            );
        }
    }

    /// A connected random graph: a path through all vertices, `extra` random
    /// edges per vertex, and a clique on the first `clique` vertices.
    fn random_connected(n: usize, extra: usize, clique: usize, seed: u64) -> SymCsc<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rand = |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        let mut t = Triplet::new(n);
        for v in 0..n {
            t.push(v, v, n as f64);
            if v > 0 {
                t.push(v, v - 1, -1.0);
            }
            for _ in 0..extra {
                // Mostly nearby, so that there is some structure to find.
                let w = if rand(4) == 0 { rand(n) } else { (v + 1 + rand(40)) % n };
                if w != v {
                    t.push(v.max(w), v.min(w), -1.0);
                }
            }
        }
        for i in 0..clique {
            for j in 0..i {
                t.push(i, j, -1.0);
            }
        }
        t.assemble()
    }

    #[test]
    fn second_candidate_never_costs_fill_on_random_graphs() {
        // The multilevel candidate is taken only when it scores lower on the
        // part at hand; that it also lowers the fill of the whole order is
        // the point of the score. Compared against level sets alone.
        let opts = NdOptions::default();
        let mut tried = 0;
        for seed in 0..24u64 {
            let n = 300 + 97 * seed as usize;
            let a =
                random_connected(n, 1 + seed as usize % 3, [0, 12, 40][seed as usize % 3], seed);
            let g = a.to_adjacency();
            let level_sets_only = {
                let mut order = vec![0usize; n];
                let mut nd = Dissector::new(&g, &opts, n);
                nd.trigger = u64::MAX;
                let mut pending = nd.top_level_parts(&mut order);
                nd.finish(&mut pending, &mut order);
                Permutation::from_vec(order)
            };
            let both = nested_dissection(&g, &opts);
            tried += usize::from(both != level_sets_only);
            let (f_both, f_level) = (fill_of(&a, &both), fill_of(&a, &level_sets_only));
            assert!(f_both <= f_level, "seed {seed}: fill {f_both} with, {f_level} without");
        }
        assert!(tried >= 12, "the second candidate was taken on {tried} graphs of 24");
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
        let opts = NdOptions { leaf_size: 1 };
        let p = nested_dissection(&a.to_adjacency(), &opts);
        assert_eq!(p.len(), 36);
    }

    #[test]
    fn handles_disconnected_graph() {
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
        // The last one is large enough to take multilevel separators.
        let grids = [grid2d(23, 19), grid2d(400, 3), grid2d(6, 6), grid3d_27(16)];
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
