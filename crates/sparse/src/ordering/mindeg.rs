//! Minimum-degree ordering, two ways with one answer.
//!
//! The pivot is always the uneliminated vertex of least `(degree, id)` in the
//! elimination graph, and degrees are exact, so the order depends on the
//! graph and its numbering alone — not on how either representation below
//! lays it out.
//!
//! * [`MdWork`] keeps the quotient graph (element/variable representation
//!   with element absorption) and exact external degrees. It favors clarity
//!   over the full AMD bag of tricks (no supervariables, no approximate
//!   degrees) and orders whole graphs ([`minimum_degree`]) and the parts of
//!   nested dissection above [`BIT_ROWS`] vertices. Asymptotically heavier
//!   than AMD on large 3-D problems — use [`super::nested_dissection`] there.
//! * [`order_bits`] holds the elimination graph itself as one `u128`
//!   adjacency row per vertex, for the parts of nested dissection of at most
//!   [`BIT_ROWS`] vertices — every leaf at the default leaf size — where it
//!   costs a fraction of the quotient graph's bookkeeping.

use super::subgraph::{Stamps, Subgraph};
use crate::csc::Adjacency;
use crate::perm::Permutation;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Minimum-degree ordering of the graph. Returns `perm[new] = old`
/// (elimination order).
pub fn minimum_degree(g: &Adjacency) -> Permutation {
    let mut order = vec![0usize; g.len()];
    MdWork::default().order(&Subgraph::whole(g), &mut order);
    Permutation::from_vec(order)
}

/// Quotient-graph state of one vertex: a variable until eliminated, then
/// the element its elimination created.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    /// Live variable neighbours: `vadj[xadj[v]..][..vlen]`.
    vlen: u32,
    /// Live element neighbours: `eadj[xadj[v]..][..elen]`.
    elen: u32,
    /// As an element, its variables: `evars[estart..][..esize]`; `esize`
    /// drops to 0 when a later element absorbs it.
    estart: u32,
    esize: u32,
    /// Exact external degree (variables only).
    degree: u32,
    eliminated: bool,
}

impl Node {
    /// Where this element's variables sit in `evars`.
    fn vars(&self) -> std::ops::Range<usize> {
        self.estart as usize..(self.estart + self.esize) as usize
    }
}

/// Minimum-degree arenas, reused from one graph to the next: no allocation
/// per call once they have grown to the largest graph seen, none per pivot.
///
/// A variable's two neighbour lists live in its own CSR slot of `vadj` /
/// `eadj`: a variable gains an element neighbour only by losing the pivot as
/// a variable neighbour or an absorbed element, so the two together never
/// outgrow its original degree.
#[derive(Debug, Default)]
pub(crate) struct MdWork {
    nodes: Vec<Node>,
    vadj: Vec<u32>,
    eadj: Vec<u32>,
    /// Element variable lists, appended per pivot and compacted when the
    /// absorbed ones outweigh the live ones.
    evars: Vec<u32>,
    /// Pivots so far, i.e. the elements in `evars` order.
    pivots: Vec<u32>,
    /// Lazy min-heap keyed by (degree, vertex); stale entries skipped on pop.
    heap: BinaryHeap<Reverse<(u32, u32)>>,
    seen: Stamps,
    /// When set, every part [`Self::order_part`] is handed, in order.
    #[cfg(test)]
    pub parts: Option<Vec<Subgraph>>,
}

/// The largest part [`MdWork::order_part`] eliminates on bit rows.
pub(crate) const BIT_ROWS: usize = 128;

impl MdWork {
    /// Minimum degree of a part of nested dissection: [`order_bits`] up to
    /// [`BIT_ROWS`] vertices, else [`Self::order`]. Both give the same order.
    pub fn order_part(&mut self, g: &Subgraph, out: &mut [usize]) {
        #[cfg(test)]
        if let Some(parts) = &mut self.parts {
            parts.push(g.clone());
        }
        if g.len() <= BIT_ROWS {
            order_bits(g, out)
        } else {
            self.order(g, out)
        }
    }

    /// Eliminate `g` by minimum degree, writing the pivots' original ids
    /// (`g.verts`) to `out` in elimination order.
    pub fn order(&mut self, g: &Subgraph, out: &mut [usize]) {
        let n = g.len();
        debug_assert_eq!(out.len(), n);
        let slot = |v: u32| g.xadj[v as usize] as usize;
        self.nodes.clear();
        self.nodes.extend((0..n as u32).map(|v| {
            let d = g.degree(v);
            Node { vlen: d, degree: d, ..Node::default() }
        }));
        self.vadj.clear();
        self.vadj.extend_from_slice(&g.adj);
        self.eadj.clear();
        self.eadj.resize(g.adj.len(), 0);
        self.evars.clear();
        self.pivots.clear();
        self.heap.clear();
        self.heap.extend((0..n as u32).map(|v| Reverse((g.degree(v), v))));
        self.seen.reset(n);

        for place in out.iter_mut() {
            let p = loop {
                let Reverse((d, v)) =
                    self.heap.pop().expect("a live entry per uneliminated vertex");
                let node = &self.nodes[v as usize];
                if !node.eliminated && node.degree == d {
                    break v;
                }
            };
            *place = g.verts[p as usize] as usize;
            self.pivots.push(p);

            // Reachable set Lp = vnbrs[p] ∪ ⋃_{e ∈ enbrs[p]} evars[e] \ {p},
            // built in place as the new element's variable list. Live lists
            // hold no eliminated variable: eliminating one absorbs every
            // element it is in and prunes it from every variable next to it.
            self.seen.clear();
            self.seen.insert(p);
            let lp_start = self.evars.len();
            let Node { vlen, elen, .. } = self.nodes[p as usize];
            for i in slot(p)..slot(p) + vlen as usize {
                let v = self.vadj[i];
                if self.seen.insert(v) {
                    self.evars.push(v);
                }
            }
            for i in slot(p)..slot(p) + elen as usize {
                // Element e is fully contained in the new element p: absorb it.
                let e = &mut self.nodes[self.eadj[i] as usize];
                let vars = e.vars();
                e.esize = 0;
                for j in vars {
                    let v = self.evars[j];
                    if self.seen.insert(v) {
                        self.evars.push(v);
                    }
                }
            }
            let lp = lp_start..self.evars.len();
            self.nodes[p as usize] = Node {
                estart: lp.start as u32,
                esize: lp.len() as u32,
                eliminated: true,
                ..Node::default()
            };

            // Prune the quotient-graph lists of every boundary variable
            // while `seen` still marks Lp ∪ {p}: variable neighbours now
            // covered by element p go, absorbed elements go, p comes in.
            for i in lp.clone() {
                let v = self.evars[i];
                let x = slot(v);
                let Node { vlen, elen, .. } = self.nodes[v as usize];
                let mut vkept = 0;
                for k in 0..vlen as usize {
                    let w = self.vadj[x + k];
                    if !self.seen.contains(w) {
                        self.vadj[x + vkept] = w;
                        vkept += 1;
                    }
                }
                let mut ekept = 0;
                for k in 0..elen as usize {
                    let e = self.eadj[x + k];
                    if self.nodes[e as usize].esize != 0 {
                        self.eadj[x + ekept] = e;
                        ekept += 1;
                    }
                }
                debug_assert!(vkept + ekept < g.degree(v) as usize, "lists outgrew the slot");
                self.eadj[x + ekept] = p;
                let node = &mut self.nodes[v as usize];
                node.vlen = vkept as u32;
                node.elen = ekept as u32 + 1;
            }

            // Exact external degree of each boundary variable. Its variable
            // neighbours are disjoint from its elements (just pruned), so
            // next to the new element alone the degree is a sum; otherwise
            // a fresh stamp union over its elements' variables.
            for i in lp.clone() {
                let v = self.evars[i];
                let x = slot(v);
                let Node { vlen, elen, degree, .. } = self.nodes[v as usize];
                let mut d = vlen;
                if elen == 1 {
                    d += lp.len() as u32 - 1;
                } else {
                    self.seen.clear();
                    self.seen.insert(v);
                    for &e in &self.eadj[x..x + elen as usize] {
                        for &w in &self.evars[self.nodes[e as usize].vars()] {
                            d += u32::from(self.seen.insert(w));
                        }
                    }
                }
                // An unchanged degree still has its live heap entry.
                if d != degree {
                    self.nodes[v as usize].degree = d;
                    self.heap.push(Reverse((d, v)));
                }
            }

            // Live element lists total at most one entry per edge; once the
            // dead ones exceed that plus a pivot's worth, slide the live
            // ones down (amortised O(1) per entry appended).
            if self.evars.len() > 2 * g.adj.len() + n {
                self.compact_elements();
            }
        }
    }

    fn compact_elements(&mut self) {
        let mut end = 0usize;
        for &p in &self.pivots {
            let e = &mut self.nodes[p as usize];
            let vars = e.vars();
            e.estart = end as u32;
            self.evars.copy_within(vars, end);
            end += e.esize as usize;
        }
        self.evars.truncate(end);
    }
}

/// Minimum degree of a graph of at most [`BIT_ROWS`] vertices on bit rows,
/// writing the pivots' original ids (`g.verts`) to `out` in elimination
/// order.
///
/// Row `v` holds `v`'s live neighbours in the elimination graph.
/// Eliminating pivot `p` makes its neighbours a clique: `p`'s row is ORed
/// into each of theirs, and every row is kept free of eliminated vertices
/// and of its own bit, so a degree is the row's popcount. This is the graph
/// whose exact external degrees [`MdWork`] tracks, and the pivot is again
/// the live vertex of least `(degree, id)` ([`DegreeSets`]), so the order is
/// the same.
pub(crate) fn order_bits(g: &Subgraph, out: &mut [usize]) {
    let n = g.len();
    assert!(n <= BIT_ROWS, "{n} vertices do not fit a bit row");
    debug_assert_eq!(out.len(), n);
    let mut rows = [0u128; BIT_ROWS];
    let mut degree = [0usize; BIT_ROWS];
    let mut sets = DegreeSets { by_degree: [0; BIT_ROWS], nonempty: 0 };
    for v in 0..n {
        for &w in g.neighbors(v as u32) {
            rows[v] |= 1 << w;
        }
        degree[v] = rows[v].count_ones() as usize;
        sets.insert(degree[v], v);
    }
    for place in out.iter_mut() {
        let p = sets.least();
        sets.remove(degree[p], p);
        *place = g.verts[p] as usize;
        // Rows are symmetric, so `p` is in exactly the rows it now joins.
        let clique = rows[p];
        let mut rest = clique;
        while rest != 0 {
            let v = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            rows[v] = (rows[v] | clique) & !(1 << v | 1 << p);
            let d = rows[v].count_ones() as usize;
            if d != degree[v] {
                sets.remove(degree[v], v);
                sets.insert(d, v);
                degree[v] = d;
            }
        }
    }
}

/// The live vertices of [`order_bits`] by degree, as bit sets.
struct DegreeSets {
    /// `by_degree[d]`: the live vertices of degree `d` (at most 127).
    by_degree: [u128; BIT_ROWS],
    /// Bit `d` is set iff `by_degree[d]` is not empty.
    nonempty: u128,
}

impl DegreeSets {
    fn insert(&mut self, d: usize, v: usize) {
        self.by_degree[d] |= 1 << v;
        self.nonempty |= 1 << d;
    }

    fn remove(&mut self, d: usize, v: usize) {
        self.by_degree[d] &= !(1 << v);
        if self.by_degree[d] == 0 {
            self.nonempty &= !(1 << d);
        }
    }

    /// The live vertex of least `(degree, id)`.
    fn least(&self) -> usize {
        let d = self.nonempty.trailing_zeros() as usize;
        self.by_degree[d].trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Triplet;
    use crate::ordering::tests::{fill_of, grid2d};
    use crate::ordering::{order, OrderingKind};

    #[test]
    fn star_graph_eliminates_leaves_first() {
        // Star: hub 0, leaves 1..6. MD must eliminate all leaves before the hub.
        let mut t = Triplet::new(7);
        t.push(0, 0, 1.0);
        for i in 1..7 {
            t.push(i, i, 1.0);
            t.push(i, 0, 1.0);
        }
        let g = t.assemble().to_adjacency();
        let p = minimum_degree(&g);
        // The hub's degree stays above the minimum until only one leaf
        // remains (then it ties at degree 1), so it cannot be among the
        // first five pivots.
        assert!(p.new_of(0) >= 5, "hub eliminated at position {}", p.new_of(0));
    }

    #[test]
    fn path_graph_causes_no_fill() {
        // MD on a path keeps fill at the tridiagonal minimum: Σ cc = 2n−1.
        let n = 30;
        let mut t = Triplet::new(n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i + 1, i, -1.0);
            }
        }
        let a = t.assemble();
        let p = minimum_degree(&a.to_adjacency());
        assert_eq!(fill_of(&a, &p), 2 * n - 1);
    }

    #[test]
    fn grid_fill_close_to_known_good() {
        let a = grid2d(12, 12);
        let md = fill_of(&a, &order(&a, OrderingKind::MinimumDegree));
        let natural = fill_of(&a, &order(&a, OrderingKind::Natural));
        // Natural ordering of an n×n grid fills ~n·bandwidth; MD should cut
        // it substantially.
        assert!(md * 3 < natural * 2, "md={md} natural={natural}");
    }

    #[test]
    fn complete_graph_any_order_works() {
        let n = 6;
        let mut t = Triplet::new(n);
        for i in 0..n {
            t.push(i, i, 1.0);
            for j in 0..i {
                t.push(i, j, 1.0);
            }
        }
        let a = t.assemble();
        let p = minimum_degree(&a.to_adjacency());
        assert_eq!(p.len(), n);
        // Complete graph: fill is the full lower triangle regardless.
        assert_eq!(fill_of(&a, &p), n * (n + 1) / 2);
    }

    #[test]
    fn empty_graph() {
        let mut t = Triplet::new(3);
        for i in 0..3 {
            t.push(i, i, 1.0);
        }
        let p = minimum_degree(&t.assemble().to_adjacency());
        assert_eq!(p.len(), 3);
    }
}
