//! Fill-reducing orderings.
//!
//! The paper's matrices come from 3-D structural analysis and are ordered by
//! WSMP's nested dissection. What drives the policy crossovers is the
//! frontal-size distribution such an ordering leaves — many tiny fronts at
//! the leaves, a handful of large ones near the root, the largest about 1.75
//! mesh planes wide — and it only comes out that way if the separators are
//! both small and balanced. We implement:
//!
//! * [`OrderingKind::Natural`] — the identity (for tests and banded inputs),
//! * [`OrderingKind::Rcm`] — reverse Cuthill-McKee (bandwidth reduction),
//! * [`OrderingKind::MinimumDegree`] — quotient-graph minimum degree with
//!   element absorption and an AMD-style degree bound,
//! * [`OrderingKind::NestedDissection`] — recursive vertex separators, the
//!   cheaper of a level set and a multilevel separator under one
//!   balance-aware cost, with minimum-degree-ordered leaves (the default).

mod mindeg;
mod multilevel;
mod nd;
mod rcm;
mod subgraph;

pub use mindeg::minimum_degree;
pub use nd::{nested_dissection, nested_dissection_parallel, NdOptions};
pub use rcm::reverse_cuthill_mckee;

use crate::csc::SymCsc;
use crate::perm::Permutation;
use mf_dense::Scalar;

/// Selector for the ordering algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderingKind {
    /// Identity ordering.
    Natural,
    /// Reverse Cuthill-McKee.
    Rcm,
    /// Quotient-graph minimum degree.
    MinimumDegree,
    /// Recursive nested dissection (default; best for the 3-D suite).
    #[default]
    NestedDissection,
}

/// Compute a fill-reducing permutation for a lower-stored symmetric matrix.
pub fn order<T: Scalar>(a: &SymCsc<T>, kind: OrderingKind) -> Permutation {
    match kind {
        OrderingKind::Natural => Permutation::identity(a.order()),
        OrderingKind::Rcm => reverse_cuthill_mckee(&a.to_adjacency()),
        OrderingKind::MinimumDegree => minimum_degree(&a.to_adjacency()),
        OrderingKind::NestedDissection => {
            nested_dissection(&a.to_adjacency(), &NdOptions::default())
        }
    }
}

/// Parallel variant of [`order`], bitwise identical at every worker count.
///
/// Nested dissection — the default and by far the most expensive ordering
/// on the paper's 3-D suite — runs its disjoint recursions on the
/// mf-runtime pool ([`nested_dissection_parallel`]); the remaining kinds
/// are cheap or inherently sequential and fall through to the serial
/// implementation (which is already deterministic).
pub fn order_parallel<T: Scalar>(a: &SymCsc<T>, kind: OrderingKind, workers: usize) -> Permutation {
    match kind {
        OrderingKind::NestedDissection => {
            nested_dissection_parallel(&a.to_adjacency(), &NdOptions::default(), workers)
        }
        _ => order(a, kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Triplet;
    use crate::etree::{column_counts, elimination_tree};

    /// 2-D 5-point Laplacian on an `nx × ny` grid (test workhorse).
    pub(crate) fn grid2d(nx: usize, ny: usize) -> SymCsc<f64> {
        let n = nx * ny;
        let mut t = Triplet::new(n);
        let idx = |x: usize, y: usize| y * nx + x;
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
        t.assemble()
    }

    pub(crate) fn fill_of<T: Scalar>(a: &SymCsc<T>, p: &Permutation) -> usize {
        let pa = p.permute_sym(a);
        let et = elimination_tree(&pa);
        column_counts(&pa, &et).iter().sum()
    }

    #[test]
    fn all_orderings_are_valid_permutations() {
        let a = grid2d(9, 7);
        for kind in [
            OrderingKind::Natural,
            OrderingKind::Rcm,
            OrderingKind::MinimumDegree,
            OrderingKind::NestedDissection,
        ] {
            let p = order(&a, kind);
            assert_eq!(p.len(), 63);
            // from_vec validates permutation-ness; also check a roundtrip.
            for v in 0..p.len() {
                assert_eq!(p.new_of(p.old_of(v)), v);
            }
        }
    }

    #[test]
    fn fill_reducing_orderings_beat_natural_on_grids() {
        let a = grid2d(20, 20);
        let natural = fill_of(&a, &order(&a, OrderingKind::Natural));
        let md = fill_of(&a, &order(&a, OrderingKind::MinimumDegree));
        let nd = fill_of(&a, &order(&a, OrderingKind::NestedDissection));
        assert!(md < natural, "MD fill {md} must beat natural {natural}");
        assert!(nd < natural, "ND fill {nd} must beat natural {natural}");
    }

    #[test]
    fn orderings_preserve_solvability_structure() {
        // Permuted matrix keeps the same row-sum spectrum (sanity on values).
        let a = grid2d(6, 5);
        let p = order(&a, OrderingKind::NestedDissection);
        let b = p.permute_sym(&a);
        assert_eq!(b.nnz_lower(), a.nnz_lower());
        let mut da: Vec<f64> = (0..a.order()).map(|i| a.get(i, i).unwrap()).collect();
        let mut db: Vec<f64> = (0..b.order()).map(|i| b.get(i, i).unwrap()).collect();
        da.sort_by(f64::total_cmp);
        db.sort_by(f64::total_cmp);
        assert_eq!(da, db);
    }
}
