//! Frontal matrices, assembly, and the extend-add operation — all running
//! in borrowed storage supplied by the caller.
//!
//! A front of order `s = k + m` is two buffers (SyLVER's `NumericFront {
//! lcol, contrib }`): the **panel**, columns `0..k` — `[L₁; L₂]` once
//! factored — stored `s × k` with leading dimension `s` straight in the
//! supernode's region of the factor slab, and the **update block**, the
//! trailing `m × m` block `Uⁿ` passed to the parent's extend-add, stored
//! packed with leading dimension `m` (a [`FrontArena`] region, a hand-off
//! or per-front `Vec`). Only lower triangles are referenced. The strictly
//! upper `k × k` triangle of the panel is never written: the slab starts
//! zeroed, so it reads back exactly zero. The `k × m` block above the update
//! block is stored nowhere.
//!
//! Nothing here allocates: assembly zeroes the panel trapezoid and the
//! update triangle it will reference (the update block's strictly-upper
//! remainder may hold garbage from a previous front — every downstream
//! kernel reads only the lower triangle, so those bits never enter any
//! computation), writes the panel in place, and reads a child's update as a
//! borrowed [`ChildUpdate`] view whose row indices come from the shared
//! symbolic structure.
//!
//! [`FrontArena`]: crate::arena::FrontArena

use mf_dense::Scalar;
use mf_gpusim::HostClock;
use mf_sparse::symbolic::SymbolicFactor;
use mf_sparse::SymCsc;
use std::ops::Range;

/// Host memory bandwidth used to charge assembly/extend-add time
/// (bytes/s) — calibrated to streaming axpy/gather rates of the paper's
/// FB-DIMM Xeon node.
pub const ASSEMBLY_BW: f64 = 6.0e9;

/// A dense frontal matrix in its two borrowed buffers.
#[derive(Debug)]
pub struct Front<'a, T> {
    /// Front order `s = k + m`.
    pub s: usize,
    /// Pivot-block width `k`.
    pub k: usize,
    /// `s × k` column-major panel, leading dimension `s` (lower trapezoid
    /// significant; the strictly-upper `k × k` triangle stays zero).
    pub panel: &'a mut [T],
    /// `m × m` column-major update block, leading dimension `m` (lower
    /// triangle significant).
    pub update: &'a mut [T],
}

impl<T: Scalar> Front<'_, T> {
    /// Update-matrix size `m`.
    pub fn m(&self) -> usize {
        self.s - self.k
    }
}

/// A borrowed view of a factored child's update matrix, consumed by the
/// parent's extend-add. `rows` points into the shared symbolic structure
/// (`SymbolicFactor::update_rows`); `data` is the packed `m × m`
/// column-major buffer (lower triangle significant).
#[derive(Debug, Clone, Copy)]
pub struct ChildUpdate<'a, T> {
    /// Global row indices (sorted) of the `m` rows/columns.
    pub rows: &'a [usize],
    /// `m × m` column-major storage (lower triangle significant).
    pub data: &'a [T],
}

impl<T: Scalar> ChildUpdate<'_, T> {
    /// Size `m`.
    pub fn m(&self) -> usize {
        self.rows.len()
    }
}

/// Entry count of the lower trapezoid of the first `cols` columns of an
/// `s × s` lower-triangular layout: `Σ_{j<cols} (s − j)`.
pub(crate) fn lower_trapezoid_len(s: usize, cols: usize) -> usize {
    cols * s - cols * (cols.saturating_sub(1)) / 2
}

/// Assemble the frontal matrix of the supernode with pivot columns `cols`
/// and sorted update rows `tail` into its two buffers: `panel` (`s × k`,
/// the supernode's slab region, zero on entry) and `update` (`m × m`, any
/// contents). Zero the panel trapezoid and the update triangle, scatter the
/// entries of `A` belonging to the supernode's columns into the panel, then
/// extend-add every child update view in the order given — each child
/// column lands whole in one buffer, the panel for a child row that is a
/// pivot column of this front, the update block otherwise. `rel` is a
/// reusable scratch buffer for the child row-relocation map. Numerics only:
/// the drivers charge the assembly from the structure ([`charge_assemble`]).
pub fn assemble_front_into<'a, 'c, T: Scalar + 'c>(
    a: &SymCsc<T>,
    cols: Range<usize>,
    tail: &[usize],
    children: impl Iterator<Item = ChildUpdate<'c, T>>,
    panel: &'a mut [T],
    update: &'a mut [T],
    rel: &mut Vec<usize>,
) -> Front<'a, T> {
    let k = cols.len();
    let m = tail.len();
    let s = k + m;
    debug_assert_eq!(panel.len(), s * k);
    debug_assert_eq!(update.len(), m * m);
    debug_assert!(panel.iter().all(|&x| x == T::ZERO), "a panel is assembled once, into zeros");

    // Zero only what the factorization will read or write: the panel
    // trapezoid and the update triangle. The panel is zero already, but a
    // fresh slab page's first access must be this write: a read-modify-write
    // would fault it in twice (zero page, then copy on write).
    for j in 0..k {
        panel[j * s + j..(j + 1) * s].fill(T::ZERO);
    }
    for j in 0..m {
        update[j * m + j..(j + 1) * m].fill(T::ZERO);
    }

    // Positions of global rows in the front: the first k are the contiguous
    // pivot columns, the tail is sorted. Every index list we map (A's column
    // rows, child update rows) is itself sorted, so a shared cursor into the
    // tail resolves a whole list in one merge sweep — O(m + s) instead of
    // O(m log s) binary searches.
    let merge_local = |t: &mut usize, row: usize| -> usize {
        if row < cols.end {
            debug_assert!(row >= cols.start);
            row - cols.start
        } else {
            while tail[*t] < row {
                *t += 1;
            }
            debug_assert_eq!(tail[*t], row, "row must be in front structure");
            k + *t
        }
    };

    // Scatter A's entries (lower triangle) for the pivot columns.
    for (lc, c) in cols.clone().enumerate() {
        let mut t = 0usize;
        for (&i, &v) in a.col_rows(c).iter().zip(a.col_vals(c)) {
            debug_assert!(i >= c);
            let lr = merge_local(&mut t, i);
            panel[lr + lc * s] += v;
        }
    }

    // Extend-add children.
    for child in children {
        let cm = child.m();
        // Relative indices: child rows merged into front-local rows, built
        // in the caller-owned scratch (no per-child allocation).
        let mut t = 0usize;
        rel.clear();
        rel.extend(child.rows.iter().map(|&r| merge_local(&mut t, r)));
        // The child's rows are sorted, so those that are pivot columns here
        // come first: their columns go to the panel, the rest to the update
        // block, whose local rows start at k.
        let in_panel = rel.partition_point(|&r| r < k);
        for j in 0..cm {
            let (dst, ld, base) =
                if j < in_panel { (&mut *panel, s, 0) } else { (&mut *update, m, k) };
            let col = &mut dst[(rel[j] - base) * ld..];
            for (&r, &v) in rel[j..].iter().zip(&child.data[j * cm + j..(j + 1) * cm]) {
                col[r - base] += v;
            }
        }
    }

    Front { s, k, panel, update }
}

/// Charge the assembly of `sn`'s front — what [`assemble_front_into`] does
/// to it — from the structure alone, with data or without: read+write per
/// entry of `A` in its columns ([`SupernodeInfo::a_nnz`]) and per entry of
/// its children's update triangles, plus the zero-fill that is actually
/// written (the panel trapezoid and the update triangle, not the full
/// `s × s`).
///
/// [`SupernodeInfo::a_nnz`]: mf_sparse::symbolic::SupernodeInfo::a_nnz
pub(crate) fn charge_assemble<T: Scalar>(
    symbolic: &SymbolicFactor,
    sn: usize,
    host: &mut HostClock,
) {
    let info = &symbolic.supernodes[sn];
    let child_ms = symbolic.children(sn).iter().map(|&c| symbolic.supernodes[c].m());
    let extended: usize = child_ms.map(|cm| lower_trapezoid_len(cm, cm)).sum();
    let (s, k) = (info.front_size(), info.k());
    let zeroed = lower_trapezoid_len(s, k) + lower_trapezoid_len(s - k, s - k);
    host.charge_memop((info.a_nnz() + extended) * 2 * T::BYTES + zeroed * T::BYTES, ASSEMBLY_BW);
}

/// The simulated cost of moving a factored panel's lower trapezoid out of
/// the front into the factor slab. The panel is factored in place there, so
/// no bytes move; the charge models the paper's node, whose implementation
/// copies it.
pub(crate) fn charge_panel_extract<T: Scalar>(s: usize, k: usize, host: &mut HostClock) {
    host.charge_memop(lower_trapezoid_len(s, k) * T::BYTES, ASSEMBLY_BW);
}

/// Charge the simulated cost of packing an `m × m` update matrix out of a
/// factored front (the lower triangle). The update block is written packed
/// in place; like [`charge_panel_extract`] the charge models the paper's
/// copy.
pub(crate) fn charge_update_extract<T: Scalar>(m: usize, host: &mut HostClock) {
    if m > 0 {
        host.charge_memop(m * (m + 1) / 2 * T::BYTES, ASSEMBLY_BW);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::Triplet;

    /// Pivot columns and update rows of a test front.
    type Shape = (Range<usize>, Vec<usize>);

    fn info(col_start: usize, col_end: usize, update_rows: Vec<usize>) -> Shape {
        (col_start..col_end, update_rows)
    }

    /// The two buffers of a front of shape `inf`: a zero panel, as a fresh
    /// slab holds it, and an update block poisoned with `NaN`.
    fn buffers(inf: &Shape) -> (Vec<f64>, Vec<f64>) {
        let (k, m) = (inf.0.len(), inf.1.len());
        (vec![0.0; (k + m) * k], vec![f64::NAN; m * m])
    }

    /// Entry `(i, j)`, `i ≥ j`, of an assembled front's lower triangle.
    fn at(f: &Front<'_, f64>, i: usize, j: usize) -> f64 {
        if j < f.k {
            f.panel[i + j * f.s]
        } else {
            f.update[(i - f.k) + (j - f.k) * f.m()]
        }
    }

    fn assemble<'a>(
        a: &SymCsc<f64>,
        inf: &Shape,
        children: &[(Vec<usize>, Vec<f64>)],
        (panel, update): &'a mut (Vec<f64>, Vec<f64>),
    ) -> Front<'a, f64> {
        let mut rel = Vec::new();
        assemble_front_into(
            a,
            inf.0.clone(),
            &inf.1,
            children.iter().map(|(rows, d)| ChildUpdate { rows, data: d }),
            panel,
            update,
            &mut rel,
        )
    }

    #[test]
    fn assembles_a_entries_into_correct_slots() {
        // 4×4 matrix, supernode covering columns 0..2 with update rows {3}.
        let mut t = Triplet::new(4);
        t.push(0, 0, 4.0);
        t.push(1, 0, -1.0);
        t.push(3, 0, -2.0);
        t.push(1, 1, 5.0);
        t.push(3, 1, -3.0);
        t.push(2, 2, 6.0);
        t.push(3, 3, 7.0);
        let a = t.assemble();
        let inf = info(0, 2, vec![3]);
        let mut bufs = buffers(&inf);
        let f = assemble(&a, &inf, &[], &mut bufs);
        assert_eq!(f.s, 3);
        assert_eq!(f.k, 2);
        assert_eq!(at(&f, 0, 0), 4.0);
        assert_eq!(at(&f, 1, 0), -1.0);
        assert_eq!(at(&f, 2, 0), -2.0); // row 3 → local 2
        assert_eq!(at(&f, 1, 1), 5.0);
        assert_eq!(at(&f, 2, 1), -3.0);
        assert_eq!(at(&f, 2, 2), 0.0, "A(3,3) belongs to a later supernode");
        // The panel's strictly-upper entry is never written.
        assert_eq!(f.panel[3], 0.0);
    }

    #[test]
    fn extend_add_scatters_child_update() {
        let mut t = Triplet::new(5);
        for i in 0..5 {
            t.push(i, i, 1.0);
        }
        let a = t.assemble();
        // Parent supernode: columns 2..4, update row 4.
        let inf = info(2, 4, vec![4]);
        // lower: (2,2)=10, (4,2)=20, (4,4)=30
        let child = (vec![2usize, 4], vec![10.0, 20.0, 0.0, 30.0]);
        let mut bufs = buffers(&inf);
        let f = assemble(&a, &inf, &[child], &mut bufs);
        // Local rows: 2→0, 3→1, 4→2.
        assert_eq!(at(&f, 0, 0), 1.0 + 10.0);
        assert_eq!(at(&f, 2, 0), 20.0);
        // A(4,4) belongs to a later supernode — only the child lands here.
        assert_eq!(at(&f, 2, 2), 30.0);
        assert_eq!(at(&f, 1, 1), 1.0);
    }

    #[test]
    fn multiple_children_accumulate() {
        let mut t = Triplet::new(3);
        for i in 0..3 {
            t.push(i, i, 0.0);
        }
        let a = t.assemble();
        let inf = info(0, 2, vec![2]);
        let c1 = (vec![0usize, 2], vec![1.0, 2.0, 0.0, 3.0]);
        let c2 = (vec![0usize, 1], vec![5.0, 6.0, 0.0, 7.0]);
        let mut bufs = buffers(&inf);
        let f = assemble(&a, &inf, &[c1, c2], &mut bufs);
        assert_eq!(at(&f, 0, 0), 6.0); // 1 + 5
        assert_eq!(at(&f, 2, 0), 2.0);
        assert_eq!(at(&f, 1, 0), 6.0);
        assert_eq!(at(&f, 1, 1), 7.0);
        assert_eq!(at(&f, 2, 2), 3.0);
    }

    #[test]
    fn two_buffer_child_straddling_the_pivot_boundary_lands_in_both() {
        // Parent: pivot columns 1..3, update rows {4, 6, 7} — s = 5, k = 2,
        // m = 3. The child's rows {2, 4, 7} straddle the boundary: row 2 is
        // a pivot column (local 1), rows 4 and 7 are update rows (local 2
        // and 4, update-local 0 and 2).
        let mut t = Triplet::new(8);
        for i in 0..8 {
            t.push(i, i, 1.0);
        }
        let a = t.assemble();
        let inf = info(1, 3, vec![4, 6, 7]);
        let cm = 3;
        let mut data = vec![f64::NAN; cm * cm];
        for j in 0..cm {
            for i in j..cm {
                data[i + j * cm] = (10 * (i + 1) + j + 1) as f64;
            }
        }
        let child = (vec![2usize, 4, 7], data);
        let mut bufs = buffers(&inf);
        let f = assemble(&a, &inf, &[child], &mut bufs);
        let (s, m) = (5, 3);
        // Child column 0 (row 2 = panel column 1): rows 2, 4, 7 → panel rows
        // 1, 2, 4, added to A's diagonal at (1, 1).
        let mut panel = vec![0.0; s * 2];
        panel[0] = 1.0; // A(1,1)
        panel[1 + s] = 1.0 + 11.0; // A(2,2) + child (2,2)
        panel[2 + s] = 21.0; // child (4,2)
        panel[4 + s] = 31.0; // child (7,2)
        assert_eq!(f.panel, &panel[..]);
        // Child columns 1 and 2 (rows 4, 7) land in the update block at
        // update-local rows/columns 0 and 2; row 6 (local 1) gets nothing.
        let mut update = vec![0.0; m * m];
        update[0] = 22.0; // (4,4)
        update[2] = 32.0; // (7,4)
        update[2 + 2 * m] = 33.0; // (7,7)
        for j in 0..m {
            assert_eq!(f.update[j * m + j..(j + 1) * m], update[j * m + j..(j + 1) * m], "{j}");
        }
        // Nothing of the child lands above either diagonal.
        assert!(f.update[m].is_nan() && f.update[2 * m].is_nan() && f.update[2 * m + 1].is_nan());
    }

    #[test]
    fn extraction_charges_the_lower_triangles() {
        let mut host = HostClock::new(mf_gpusim::xeon_5160_core());
        charge_panel_extract::<f64>(4, 2, &mut host);
        let panel = host.now();
        assert!(panel > 0.0);
        charge_update_extract::<f64>(0, &mut host);
        assert_eq!(host.now(), panel, "an m = 0 front has no update to move");
        charge_update_extract::<f64>(2, &mut host);
        assert!(host.now() > panel);
    }

    #[test]
    fn trapezoid_len_matches_naive_sum() {
        for s in 0..12usize {
            for cols in 0..=s {
                let naive: usize = (0..cols).map(|j| s - j).sum();
                assert_eq!(lower_trapezoid_len(s, cols), naive, "s={s} cols={cols}");
            }
        }
    }
}
