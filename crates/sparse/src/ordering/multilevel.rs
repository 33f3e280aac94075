//! Multilevel vertex separator — nested dissection's second candidate.
//!
//! A level set of a breadth-first search is as good a separator as the
//! search's wavefronts are flat. On a 27-point grid they are L∞ shells
//! around a corner, and the best of them is ≈ 1.7× the plane that cuts the
//! cube in half. This module finds the plane the METIS way, with every
//! choice pinned so that the result is a function of the graph alone:
//!
//! 1. **Coarsen** by heavy-edge matching, vertices visited in `(degree, id)`
//!    order, each taking the unmatched neighbour behind its heaviest edge
//!    (the first such in its list); matched pairs are contracted — vertex
//!    weights add, parallel edges merge through a marker array — until about
//!    [`COARSEST`] vertices are left.
//! 2. **Bisect** the coarsest graph by greedy region growing from each of a
//!    fixed set of seeds; carry every seed's bisection up, as in step 3, to a
//!    level with enough vertices to tell a mesh plane from a tilted cut, and
//!    keep the best there.
//! 3. **Uncoarsen**: project the sides onto the next finer graph and refine
//!    the edge cut there by boundary Fiduccia–Mattheyses passes — moves taken
//!    by `(gain, id)`, neither side ever above [`MAX_SIDE_PCT`] % of the
//!    weight, each pass rolled back to its best prefix.
//! 4. **Cover**: the cut edges of the finest graph form a bipartite graph on
//!    the two boundaries; a minimum vertex cover of it (König's theorem on a
//!    maximum matching found by augmenting paths) is the separator.
//!
//! All levels of the hierarchy live in one set of arenas and all per-vertex
//! state in vectors that only ever grow, so a [`Multilevel`] allocates
//! nothing once it has seen its largest graph.

use super::subgraph::{Stamps, Subgraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Coarsening stops at or below this many vertices: small enough that the
/// seeded bisections cost nothing, large enough that the coarsest graph
/// still has the shape of the part.
const COARSEST: usize = 150;
/// Coarsening also stops when a matching removes fewer than one vertex in
/// twenty (stars, cliques with heavy vertices) …
const STALLED: (usize, usize) = (19, 20);
/// … and once the arenas hold this many times the part's edges (contraction
/// that sheds vertices but not edges), which keeps them inside `u32` on any
/// graph [`Subgraph::whole`] admits.
const MAX_ARENA_FACTOR: usize = 4;
/// Seeds of the coarsest bisection, evenly spaced over the coarse numbering.
/// Chosen the way they are (see [`SELECT_AT`]) their number hardly matters:
/// two to sixteen leave the 27-point cube 30³ within 5.58–5.74 Gflop and
/// elasticity 16³ within 3.24–3.34. Five is the smallest count that covers
/// both ends, the middle and the quarters of the numbering.
const SEEDS: usize = 5;
/// The seeds' bisections compete not on the coarsest graph but on the finest
/// one of at most this many vertices, each refined up to there. On ≈ 150
/// vertices (5 × 5 × 5 blobs of a cube) a tilted cut and the mesh plane
/// weigh the same within the noise of the matching, the tilt survives every
/// later refinement, and the separator comes out 1.7× the plane: choosing on
/// the coarsest graph, one cube in eight between 16³ and 48³ and elasticity
/// 30³ cost 1.15–2.1× the flops of their neighbours in size, and which ones
/// moved with every other constant here. Choosing at 800, 1 500 or 3 000
/// vertices, with 3, 5 or 8 seeds, none does. The extra levels cost
/// `SEEDS × 2 × SELECT_AT` vertex visits, nothing beside the finest levels.
const SELECT_AT: usize = 1500;
/// Neither side of the cut may hold more than this share of the vertex
/// weight, at any level. Anything from 51 % to 60 % leaves the same two
/// matrices within 5.38–5.59 and 3.08–3.35 Gflop, in no order; 53 % leaves
/// refinement some room on coarse graphs, whose vertices weigh up to 1 % of
/// the total, without letting the finest level trade balance for cut.
const MAX_SIDE_PCT: u64 = 53;
/// Refinement passes per level; a pass that improves nothing ends them.
const MAX_PASSES: usize = 8;

const NONE: u32 = u32::MAX;

/// Which part of the split a vertex fell in.
pub(crate) const SIDE_A: u8 = 0;
pub(crate) const SIDE_B: u8 = 1;
pub(crate) const SEPARATOR: u8 = 2;

/// One level of the hierarchy, as offsets into the arenas.
#[derive(Debug, Clone, Copy)]
struct Level {
    n: usize,
    /// Its `n + 1` row offsets start at `xadj[x0]` and index the arenas
    /// `adj` / `ewgt` directly. (Level 0 is the part itself and has none.)
    x0: usize,
    /// Its vertex weights (and its map to the next coarser level) start at
    /// `vwgt[v0]` (`cmap[v0]`).
    v0: usize,
}

/// A weighted graph: the part, or a level borrowed from the arenas.
#[derive(Clone, Copy)]
struct Graph<'a> {
    /// `n + 1` offsets into `adj` / `ewgt`.
    xadj: &'a [u32],
    adj: &'a [u32],
    /// Edge weights beside `adj`; `None` for all ones.
    ewgt: Option<&'a [u32]>,
    vwgt: &'a [u32],
}

impl<'a> Graph<'a> {
    fn n(&self) -> usize {
        self.vwgt.len()
    }

    fn row(&self, v: u32) -> std::ops::Range<usize> {
        self.xadj[v as usize] as usize..self.xadj[v as usize + 1] as usize
    }

    /// `(neighbour, edge weight)` pairs of `v`, in list order.
    fn edges(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + 'a {
        let row = self.row(v);
        let ewgt = self.ewgt.map(|w| &w[row.clone()]);
        self.adj[row].iter().enumerate().map(move |(i, &u)| (u, ewgt.map_or(1, |w| w[i])))
    }
}

/// The coarsening hierarchy. Level 0 is the part, read in place with unit
/// weights; the arenas hold the levels contracted from it.
#[derive(Debug, Default)]
struct Hierarchy {
    levels: Vec<Level>,
    xadj: Vec<u32>,
    adj: Vec<u32>,
    ewgt: Vec<u32>,
    vwgt: Vec<u32>,
    /// `cmap[v0 + v]` = the vertex of the next level `v` was contracted into.
    cmap: Vec<u32>,
    /// Vertices of the level being matched, in `(degree, id)` order.
    visit: Vec<u32>,
    /// `mate[v]` = the vertex `v` is contracted with (itself if none).
    mate: Vec<u32>,
    /// Contraction: `marker[c]` = 1 + where the row being built keeps its
    /// edge to coarse vertex `c`, if that is inside the row. (Matching: the
    /// counting sort's bucket starts.)
    marker: Vec<u32>,
}

impl Hierarchy {
    /// Level `level` of the hierarchy over `sub`, given the arenas (or as
    /// much of them as holds the level).
    fn view<'a>(
        levels: &[Level],
        level: usize,
        sub: &'a Subgraph,
        (xadj, adj, ewgt, vwgt): (&'a [u32], &'a [u32], &'a [u32], &'a [u32]),
    ) -> Graph<'a> {
        let Level { n, x0, v0 } = levels[level];
        let vwgt = &vwgt[v0..v0 + n];
        if level == 0 {
            Graph { xadj: &sub.xadj, adj: &sub.adj, ewgt: None, vwgt }
        } else {
            Graph { xadj: &xadj[x0..x0 + n + 1], adj, ewgt: Some(ewgt), vwgt }
        }
    }

    fn graph<'a>(&'a self, level: usize, sub: &'a Subgraph) -> Graph<'a> {
        Self::view(&self.levels, level, sub, (&self.xadj, &self.adj, &self.ewgt, &self.vwgt))
    }

    fn cmap(&self, level: usize) -> &[u32] {
        let Level { n, v0, .. } = self.levels[level];
        &self.cmap[v0..v0 + n]
    }

    /// Build the hierarchy over `sub`.
    fn coarsen(&mut self, sub: &Subgraph) {
        let n = sub.len();
        self.levels.clear();
        self.levels.push(Level { n, x0: 0, v0: 0 });
        self.xadj.clear();
        self.adj.clear();
        self.ewgt.clear();
        self.adj.reserve(2 * sub.adj.len());
        self.ewgt.reserve(2 * sub.adj.len());
        self.vwgt.clear();
        self.vwgt.resize(n, 1);
        self.cmap.clear();
        self.cmap.resize(n, 0);
        // No coarse vertex heavier than 1.5× its fair share of the coarsest
        // graph, or one of them ends up deciding the balance on its own.
        let max_vwgt = (3 * n / (2 * COARSEST)).max(1) as u32;
        while self.adj.len() <= MAX_ARENA_FACTOR * sub.adj.len() {
            let fine = self.levels[self.levels.len() - 1];
            if fine.n <= COARSEST {
                break;
            }
            let nc = self.match_level(sub, max_vwgt);
            if nc * STALLED.1 > fine.n * STALLED.0 {
                break;
            }
            self.contract(sub, nc);
        }
    }

    /// Heavy-edge matching of the last level: fills its `cmap` and returns
    /// the number of coarse vertices, numbered in the order they were formed.
    fn match_level(&mut self, sub: &Subgraph, max_vwgt: u32) -> usize {
        let level = self.levels.len() - 1;
        let arenas = (&self.xadj[..], &self.adj[..], &self.ewgt[..], &self.vwgt[..]);
        let fine = Self::view(&self.levels, level, sub, arenas);
        let Level { n, v0, .. } = self.levels[level];
        // Counting sort by degree, equal degrees left in id order.
        let degree = |v: usize| fine.row(v as u32).len();
        let starts = &mut self.marker;
        starts.clear();
        starts.resize((0..n).map(degree).max().map_or(0, |d| d + 2), 0);
        for v in 0..n {
            starts[degree(v) + 1] += 1;
        }
        for d in 1..starts.len() {
            starts[d] += starts[d - 1];
        }
        self.visit.clear();
        self.visit.resize(n, 0);
        for v in 0..n {
            let place = &mut starts[degree(v)];
            self.visit[*place as usize] = v as u32;
            *place += 1;
        }
        self.mate.clear();
        self.mate.resize(n, NONE);
        let cmap = &mut self.cmap[v0..v0 + n];
        let mut nc = 0u32;
        for &v in &self.visit {
            if self.mate[v as usize] != NONE {
                continue;
            }
            let room = max_vwgt.saturating_sub(fine.vwgt[v as usize]);
            let (mut best, mut best_w) = (v, 0);
            for (u, w) in fine.edges(v) {
                if w > best_w && self.mate[u as usize] == NONE && fine.vwgt[u as usize] <= room {
                    (best, best_w) = (u, w);
                }
            }
            self.mate[v as usize] = best;
            self.mate[best as usize] = v;
            cmap[v as usize] = nc;
            cmap[best as usize] = nc;
            nc += 1;
        }
        nc as usize
    }

    /// Contract the matched pairs of the last level into a new level of `nc`
    /// vertices appended to the arenas.
    fn contract(&mut self, sub: &Subgraph, nc: usize) {
        let level = self.levels.len() - 1;
        let Level { n, v0, .. } = self.levels[level];
        let coarse = Level { n: nc, x0: self.xadj.len(), v0: self.vwgt.len() };
        self.levels.push(coarse);
        // The fine level's edge count bounds the coarse one's.
        let fine_end = self.adj.len();
        let fine_edges = if level == 0 {
            sub.adj.len()
        } else {
            fine_end - self.xadj[self.levels[level].x0] as usize
        };
        self.adj.resize(fine_end + fine_edges, 0);
        self.ewgt.resize(fine_end + fine_edges, 0);
        self.xadj.resize(coarse.x0 + nc + 1, 0);
        self.vwgt.resize(coarse.v0 + nc, 0);
        self.cmap.resize(coarse.v0 + nc, 0);
        self.marker.clear();
        self.marker.resize(nc, 0);

        let (fine_xadj, coarse_xadj) = self.xadj.split_at_mut(coarse.x0);
        let (fine_adj, coarse_adj) = self.adj.split_at_mut(fine_end);
        let (fine_ewgt, coarse_ewgt) = self.ewgt.split_at_mut(fine_end);
        let (fine_vwgt, coarse_vwgt) = self.vwgt.split_at_mut(coarse.v0);
        let fine =
            Self::view(&self.levels, level, sub, (fine_xadj, fine_adj, fine_ewgt, fine_vwgt));
        let cmap = &self.cmap[v0..v0 + n];
        // Rows are built at `coarse_adj[end - fine_end]`: offsets stay
        // absolute, like the arenas' own.
        let mut end = fine_end;
        let mut c = 0u32;
        for &v in &self.visit {
            // Coarse vertices are numbered by their first-visited member.
            if cmap[v as usize] != c {
                continue;
            }
            let row_start = end;
            coarse_xadj[c as usize] = row_start as u32;
            let u = self.mate[v as usize];
            let mut weight = 0;
            for &m in &[v, u][..1 + usize::from(u != v)] {
                weight += fine.vwgt[m as usize];
                for (w, ew) in fine.edges(m) {
                    let cw = cmap[w as usize];
                    if cw == c {
                        continue;
                    }
                    let slot = self.marker[cw as usize] as usize;
                    if slot > row_start {
                        coarse_ewgt[slot - 1 - fine_end] += ew;
                    } else {
                        coarse_adj[end - fine_end] = cw;
                        coarse_ewgt[end - fine_end] = ew;
                        end += 1;
                        self.marker[cw as usize] = end as u32;
                    }
                }
            }
            coarse_vwgt[c as usize] = weight;
            c += 1;
        }
        debug_assert_eq!(c as usize, nc);
        coarse_xadj[nc] = end as u32;
        self.adj.truncate(end);
        self.ewgt.truncate(end);
    }
}

/// How good a bisection is, smaller is better: weight above the side bound
/// first, then the cut, then the imbalance.
type Quality = (u64, i64, u64);

/// A two-way partition of one level and the state its refinement keeps.
#[derive(Debug, Default)]
struct Bisection {
    side: Vec<u8>,
    /// Weight of `v`'s edges to its own side / to the other side.
    inner: Vec<u32>,
    outer: Vec<u32>,
    weight: [u64; 2],
    cut: i64,
    /// Vertices moved in this pass; they stay where they went.
    locked: Stamps,
    /// Per side, its boundary vertices by `(gain, lowest id)`; entries go
    /// stale when the vertex moves or its gain changes and are skipped.
    heaps: [BinaryHeap<(i32, Reverse<u32>)>; 2],
    moves: Vec<u32>,
    /// A second side array: the coarse sides while they are projected.
    spare: Vec<u8>,
    /// The best seeded bisection so far.
    best: Vec<u8>,
}

impl Bisection {
    fn gain(&self, v: u32) -> i32 {
        self.outer[v as usize] as i32 - self.inner[v as usize] as i32
    }

    fn max_side(&self) -> u64 {
        (self.weight[0] + self.weight[1]) * MAX_SIDE_PCT / 100
    }

    fn quality(&self) -> Quality {
        let heavy = self.weight[0].max(self.weight[1]);
        (
            heavy.saturating_sub(self.max_side()),
            self.cut,
            heavy - self.weight[0].min(self.weight[1]),
        )
    }

    /// Everything on side B, nothing cut, nothing queued.
    fn reset(&mut self, g: &Graph) {
        self.side.clear();
        self.side.resize(g.n(), SIDE_B);
        self.measure(g);
        self.heaps.iter_mut().for_each(BinaryHeap::clear);
    }

    /// Recompute the edge sums, weights and cut of `side` on `g`.
    fn measure(&mut self, g: &Graph) {
        let n = g.n();
        self.inner.clear();
        self.inner.resize(n, 0);
        self.outer.clear();
        self.outer.resize(n, 0);
        self.weight = [0; 2];
        let mut cut = 0u64;
        for v in 0..n as u32 {
            let s = self.side[v as usize];
            self.weight[s as usize] += u64::from(g.vwgt[v as usize]);
            let (mut inner, mut outer) = (0, 0);
            for (u, w) in g.edges(v) {
                if self.side[u as usize] == s {
                    inner += w;
                } else {
                    outer += w;
                }
            }
            self.inner[v as usize] = inner;
            self.outer[v as usize] = outer;
            cut += u64::from(outer);
        }
        self.cut = (cut / 2) as i64;
        self.locked.reset(n);
    }

    /// Move `v` to the other side. With `track`, `v` is locked and its
    /// unlocked boundary neighbours are (re-)queued under their new gains.
    fn flip(&mut self, g: &Graph, v: u32, track: bool) {
        let from = self.side[v as usize];
        self.cut -= i64::from(self.gain(v));
        std::mem::swap(&mut self.inner[v as usize], &mut self.outer[v as usize]);
        self.side[v as usize] = 1 - from;
        let w = u64::from(g.vwgt[v as usize]);
        self.weight[from as usize] -= w;
        self.weight[1 - from as usize] += w;
        if track {
            self.locked.insert(v);
        }
        for (u, w) in g.edges(v) {
            let ui = u as usize;
            if self.side[ui] == from {
                self.outer[ui] += w;
                self.inner[ui] -= w;
            } else {
                self.outer[ui] -= w;
                self.inner[ui] += w;
            }
            if track && self.outer[ui] > 0 && !self.locked.contains(u) {
                self.heaps[self.side[ui] as usize].push((self.gain(u), Reverse(u)));
            }
        }
    }

    /// The live top of side `s`'s heap, stale entries dropped on the way.
    fn top(&mut self, s: usize) -> Option<(i32, u32)> {
        while let Some(&(gain, Reverse(v))) = self.heaps[s].peek() {
            if !self.locked.contains(v)
                && self.side[v as usize] as usize == s
                && self.gain(v) == gain
            {
                return Some((gain, v));
            }
            self.heaps[s].pop();
        }
        None
    }

    /// Grow side A from `seed`, always by the boundary vertex of B that
    /// adds least to the cut, until it holds half the weight.
    fn grow(&mut self, g: &Graph, seed: u32) {
        self.reset(g);
        let half = self.weight[1] / 2;
        let mut next = seed;
        let mut scan = 0u32;
        loop {
            self.flip(g, next, true);
            if self.weight[0] >= half {
                break;
            }
            next = match self.top(SIDE_B as usize) {
                Some((_, v)) => v,
                // A's component is used up: restart from the lowest vertex of B.
                None => loop {
                    if self.side[scan as usize] == SIDE_B {
                        break scan;
                    }
                    scan += 1;
                },
            };
        }
    }

    /// The next vertex to move: from a side above the bound if there is
    /// one, else the best gain of either side (the heavier side on a tie)
    /// whose move keeps the other side within the bound. Vertices whose move
    /// does not are dropped for the rest of the pass.
    fn pick(&mut self, g: &Graph, max_side: u64) -> Option<u32> {
        loop {
            let tops = [self.top(0), self.top(1)];
            let over = (0..2).find(|&s| self.weight[s] > max_side);
            let from = match (over, tops) {
                (Some(s), _) => s,
                (None, [None, None]) => return None,
                (None, [Some(_), None]) => 0,
                (None, [None, Some(_)]) => 1,
                (None, [Some((g0, _)), Some((g1, _))]) => {
                    usize::from((g1, self.weight[1]) > (g0, self.weight[0]))
                }
            };
            let (_, v) = tops[from]?;
            self.heaps[from].pop();
            if over.is_some() || self.weight[1 - from] + u64::from(g.vwgt[v as usize]) <= max_side {
                return Some(v);
            }
        }
    }

    /// Boundary Fiduccia–Mattheyses refinement of the current sides.
    fn refine(&mut self, g: &Graph) {
        let max_side = self.max_side();
        // Moves a pass may go on without improving on its best state. With
        // these bounds the largest front of a 27-point cube is 1.75–1.78
        // mesh planes at every size 16³–48³; with METIS's (n / 100, 15 to
        // 100) it is 1.8–1.9 on a third of them and 2.25 on 40³, where the
        // top cut stays tilted and the factorization costs twice the flops.
        let patience = (g.n() / 20).clamp(50, 400);
        for _ in 0..MAX_PASSES {
            self.locked.clear();
            self.heaps.iter_mut().for_each(BinaryHeap::clear);
            for v in 0..g.n() as u32 {
                if self.outer[v as usize] > 0 {
                    self.heaps[self.side[v as usize] as usize].push((self.gain(v), Reverse(v)));
                }
            }
            self.moves.clear();
            let start = self.quality();
            let (mut best, mut best_len) = (start, 0);
            while let Some(v) = self.pick(g, max_side) {
                self.flip(g, v, true);
                self.moves.push(v);
                let now = self.quality();
                if now < best {
                    (best, best_len) = (now, self.moves.len());
                } else if self.moves.len() - best_len > patience {
                    break;
                }
            }
            while self.moves.len() > best_len {
                let v = self.moves.pop().expect("longer than best_len");
                self.flip(g, v, false);
            }
            if best == start {
                break;
            }
        }
    }

    /// Carry the sides of the coarse graph over to `g` through `cmap`.
    fn project(&mut self, g: &Graph, cmap: &[u32]) {
        std::mem::swap(&mut self.side, &mut self.spare);
        self.side.clear();
        self.side.extend(cmap.iter().map(|&c| self.spare[c as usize]));
        self.measure(g);
    }
}

/// Maximum matching and minimum vertex cover on the cut's boundary graph.
#[derive(Debug, Default)]
struct Cover {
    mate: Vec<u32>,
    seen: Stamps,
    /// Depth-first search path: `(vertex, next edge to try)`.
    path: Vec<(u32, u32)>,
}

impl Cover {
    /// Turn the edge cut of `cut` on `g` into a vertex separator: mark a
    /// minimum vertex cover of the cut edges [`SEPARATOR`] in `cut.side`.
    fn separate(&mut self, g: &Graph, cut: &mut Bisection) {
        let n = g.n() as u32;
        // König's construction keeps every exposed vertex of the side the
        // search starts from out of the cover, and takes that side whole
        // when all of it is matched: start from the heavier side.
        let x_side = u8::from(cut.weight[1] > cut.weight[0]);
        let is_x =
            |cut: &Bisection, v: u32| cut.side[v as usize] == x_side && cut.outer[v as usize] > 0;
        self.mate.clear();
        self.mate.resize(n as usize, NONE);
        for x in (0..n).filter(|&x| is_x(cut, x)) {
            if let Some(&y) = g.adj[g.row(x)]
                .iter()
                .find(|&&y| cut.side[y as usize] != x_side && self.mate[y as usize] == NONE)
            {
                self.mate[x as usize] = y;
                self.mate[y as usize] = x;
            }
        }
        // A failed search leaves its vertices marked: they reach no exposed
        // vertex until some other search changes the matching.
        self.seen.reset(n as usize);
        for x in (0..n).filter(|&x| is_x(cut, x)) {
            if self.mate[x as usize] == NONE && self.augment(g, cut, x_side, x) {
                self.seen.clear();
            }
        }
        // Z = what alternating paths reach from the exposed vertices of X;
        // the cover is (X \ Z) ∪ (Y ∩ Z).
        self.seen.clear();
        self.path.clear();
        for x in (0..n).filter(|&x| is_x(cut, x)) {
            if self.mate[x as usize] == NONE {
                self.seen.insert(x);
                self.path.push((x, 0));
            }
        }
        while let Some((x, _)) = self.path.pop() {
            for &y in &g.adj[g.row(x)] {
                if cut.side[y as usize] != x_side && self.seen.insert(y) {
                    let m = self.mate[y as usize];
                    debug_assert_ne!(m, NONE, "an augmenting path survived");
                    if self.seen.insert(m) {
                        self.path.push((m, 0));
                    }
                }
            }
        }
        for v in 0..n {
            if cut.outer[v as usize] > 0
                && (cut.side[v as usize] == x_side) != self.seen.contains(v)
            {
                cut.side[v as usize] = SEPARATOR;
            }
        }
    }

    /// Depth-first search for an augmenting path from the exposed `x`;
    /// flips the matching along it and returns `true` if there is one.
    fn augment(&mut self, g: &Graph, cut: &Bisection, x_side: u8, x: u32) -> bool {
        self.path.clear();
        self.path.push((x, g.xadj[x as usize]));
        while let Some((x, next)) = self.path.last_mut() {
            if *next == g.xadj[*x as usize + 1] {
                self.path.pop();
                continue;
            }
            let y = g.adj[*next as usize];
            *next += 1;
            if cut.side[y as usize] == x_side || !self.seen.insert(y) {
                continue;
            }
            let m = self.mate[y as usize];
            if m != NONE {
                self.path.push((m, g.xadj[m as usize]));
                continue;
            }
            // Exposed: every vertex on the path takes the neighbour it was
            // reached past, and hands its old mate to the vertex before it.
            let mut y = y;
            for &(x, _) in self.path.iter().rev() {
                let old = std::mem::replace(&mut self.mate[x as usize], y);
                self.mate[y as usize] = x;
                y = old;
            }
            return true;
        }
        false
    }
}

/// Scratch of the multilevel separator, reused from one part to the next.
#[derive(Debug, Default)]
pub(crate) struct Multilevel {
    hierarchy: Hierarchy,
    cut: Bisection,
    cover: Cover,
}

impl Multilevel {
    /// A vertex separator of the connected graph `sub`: `side()[v]` is
    /// [`SIDE_A`], [`SIDE_B`] or [`SEPARATOR`] for every local vertex
    /// afterwards; returns how many fell in each, in that order.
    pub fn separator(&mut self, sub: &Subgraph) -> [usize; 3] {
        self.hierarchy.coarsen(sub);
        let levels = &self.hierarchy.levels;
        let coarsest = levels.len() - 1;
        // Every seed's bisection is carried up to the finest level of at
        // most `SELECT_AT` vertices — and at most an eighth of the part, so
        // that the seeds together cost about one visit of its vertices —
        // before the best is chosen.
        let select_at = SELECT_AT.min(sub.len() / 8);
        let select = (0..coarsest).find(|&l| levels[l].n <= select_at).unwrap_or(coarsest);
        let nc = levels[coarsest].n;
        let mut best: Option<Quality> = None;
        for i in 0..SEEDS.min(nc) {
            let g = self.hierarchy.graph(coarsest, sub);
            self.cut.grow(&g, (i * (nc - 1) / (SEEDS - 1)) as u32);
            self.cut.refine(&g);
            self.uncoarsen(sub, coarsest, select);
            if best.is_none_or(|b| self.cut.quality() < b) {
                best = Some(self.cut.quality());
                self.cut.best.clone_from(&self.cut.side);
            }
        }
        std::mem::swap(&mut self.cut.side, &mut self.cut.best);
        self.cut.measure(&self.hierarchy.graph(select, sub));
        self.uncoarsen(sub, select, 0);
        self.cover.separate(&self.hierarchy.graph(0, sub), &mut self.cut);
        let mut count = [0; 3];
        for &s in &self.cut.side {
            count[s as usize] += 1;
        }
        count
    }

    /// Project the bisection of level `from` down to level `to`, refining it
    /// at every level on the way.
    fn uncoarsen(&mut self, sub: &Subgraph, from: usize, to: usize) {
        for level in (to..from).rev() {
            let g = self.hierarchy.graph(level, sub);
            self.cut.project(&g, self.hierarchy.cmap(level));
            self.cut.refine(&g);
        }
    }

    /// The split [`Self::separator`] found.
    pub fn side(&self) -> &[u8] {
        &self.cut.side
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::{SymCsc, Triplet};
    use crate::ordering::tests::grid2d;

    fn graph(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> SymCsc<f64> {
        let mut t = Triplet::new(n);
        for v in 0..n {
            t.push(v, v, 1.0);
        }
        for (i, j) in edges {
            t.push(i.max(j), i.min(j), -1.0);
        }
        t.assemble()
    }

    /// `ml.separator` on `a`: the counts add up and no edge joins A and B.
    fn assert_separates(ml: &mut Multilevel, a: &SymCsc<f64>) -> Vec<u8> {
        let sub = Subgraph::whole(&a.to_adjacency());
        let count = ml.separator(&sub);
        let side = ml.side().to_vec();
        assert_eq!(side.len(), sub.len());
        for s in [SIDE_A, SIDE_B, SEPARATOR] {
            assert_eq!(side.iter().filter(|&&x| x == s).count(), count[s as usize]);
        }
        for v in 0..sub.len() as u32 {
            for &w in sub.neighbors(v) {
                let cut = side[v as usize] != side[w as usize];
                assert!(!cut || side[v as usize].max(side[w as usize]) == SEPARATOR, "{v}–{w}");
            }
        }
        side
    }

    #[test]
    fn finds_the_grid_line() {
        // 5-point 40 × 25: the cheapest balanced cut is a line of 25.
        let mut ml = Multilevel::default();
        let side = assert_separates(&mut ml, &grid2d(40, 25));
        let count = |s| side.iter().filter(|&&x| x == s).count();
        assert_eq!(count(SEPARATOR), 25);
        assert!(count(SIDE_A).min(count(SIDE_B)) >= 450);
    }

    #[test]
    fn separates_graphs_that_do_not_coarsen_and_reuses_its_scratch() {
        // A star and a clique stall the matching at once; the comb (a path
        // with a pendant vertex on each) coarsens to a path; the last graph
        // is two cliques joined by a single edge.
        let star = graph(400, (1..400).map(|v| (0, v)));
        let clique = graph(180, (0..180).flat_map(|i| (0..i).map(move |j| (i, j))));
        let comb = graph(600, (1..300).map(|v| (v - 1, v)).chain((0..300).map(|v| (v, v + 300))));
        let bells = graph(
            320,
            (0..320)
                .flat_map(|i| (0..i).map(move |j| (i, j)))
                .filter(|&(i, j)| (i < 160) == (j < 160) || (i, j) == (160, 159)),
        );
        let mut reused = Multilevel::default();
        for a in [&star, &clique, &comb, &bells, &grid2d(31, 17), &star] {
            let side = assert_separates(&mut reused, a);
            assert_eq!(side, assert_separates(&mut Multilevel::default(), a), "scratch leaked");
        }
        // One end of the joining edge separates the two cliques.
        let side = assert_separates(&mut reused, &bells);
        assert_eq!(side.iter().filter(|&&s| s == SEPARATOR).count(), 1);
    }
}
