//! Reverse Cuthill-McKee ordering.

use super::subgraph::{pseudo_peripheral, BfsWork, Subgraph};
use crate::csc::Adjacency;
use crate::perm::Permutation;

/// Reverse Cuthill-McKee ordering of the whole graph (all components).
///
/// Returns a [`Permutation`] with `perm[new] = old`.
pub fn reverse_cuthill_mckee(g: &Adjacency) -> Permutation {
    let n = g.len();
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let compact = Subgraph::whole(g);
    let mut work = BfsWork::new(n);
    let mut nbrs: Vec<usize> = Vec::new();
    for seed in 0..n {
        if placed[seed] {
            continue;
        }
        let root =
            pseudo_peripheral(&compact, seed as u32, |v| g.degree(v as usize), &mut work) as usize;
        // Cuthill-McKee: BFS from root, neighbors in increasing-degree order.
        let start_len = order.len();
        order.push(root);
        placed[root] = true;
        let mut head = start_len;
        while head < order.len() {
            let v = order[head];
            head += 1;
            nbrs.clear();
            nbrs.extend(g.neighbors(v).iter().copied().filter(|&w| !placed[w]));
            nbrs.sort_unstable_by_key(|&w| g.degree(w));
            for &w in &nbrs {
                if !placed[w] {
                    placed[w] = true;
                    order.push(w);
                }
            }
        }
        // Reverse this component's segment.
        order[start_len..].reverse();
    }
    Permutation::from_vec(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Triplet;

    fn path_graph(n: usize) -> Adjacency {
        let mut t = Triplet::new(n);
        for i in 0..n {
            t.push(i, i, 1.0);
            if i + 1 < n {
                t.push(i + 1, i, 1.0);
            }
        }
        t.assemble().to_adjacency()
    }

    #[test]
    fn path_graph_stays_banded() {
        let g = path_graph(10);
        let p = reverse_cuthill_mckee(&g);
        // Bandwidth of the reordered path must remain 1.
        for v in 0..10 {
            for &w in g.neighbors(v) {
                let d = p.new_of(v).abs_diff(p.new_of(w));
                assert_eq!(d, 1, "edge ({v},{w}) stretched to {d}");
            }
        }
    }

    #[test]
    fn handles_disconnected_graphs() {
        // Two disjoint triangles.
        let mut t = Triplet::new(6);
        for base in [0, 3] {
            for i in 0..3 {
                t.push(base + i, base + i, 1.0);
                t.push(base + i, base + (i + 1) % 3, 1.0);
            }
        }
        let g = t.assemble().to_adjacency();
        let p = reverse_cuthill_mckee(&g);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn reduces_bandwidth_of_shuffled_grid() {
        // Build a 2-D grid, shuffle it, and check RCM restores a small
        // bandwidth compared to the shuffled labeling.
        let (nx, ny) = (8, 8);
        let n = nx * ny;
        let shuffle = Permutation::from_vec({
            let mut v: Vec<usize> = (0..n).collect();
            // Deterministic shuffle.
            let mut s = 0xDEADBEEFu64;
            for i in (1..n).rev() {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let j = (s % (i as u64 + 1)) as usize;
                v.swap(i, j);
            }
            v
        });
        let mut t = Triplet::new(n);
        let idx = |x: usize, y: usize| shuffle.new_of(y * nx + x);
        for y in 0..ny {
            for x in 0..nx {
                t.push(idx(x, y), idx(x, y), 4.0);
                if x + 1 < nx {
                    t.push(idx(x + 1, y), idx(x, y), -1.0);
                }
                if y + 1 < ny {
                    t.push(idx(x, y + 1), idx(x, y), -1.0);
                }
            }
        }
        let g = t.assemble().to_adjacency();
        let bandwidth = |p: &Permutation| {
            let mut bw = 0usize;
            for v in 0..n {
                for &w in g.neighbors(v) {
                    bw = bw.max(p.new_of(v).abs_diff(p.new_of(w)));
                }
            }
            bw
        };
        let rcm = reverse_cuthill_mckee(&g);
        assert!(
            bandwidth(&rcm) <= 12,
            "RCM bandwidth {} should be near grid width",
            bandwidth(&rcm)
        );
    }
}
