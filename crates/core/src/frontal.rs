//! Frontal matrices, assembly, and the extend-add operation — all running
//! in borrowed storage supplied by the caller (a [`FrontArena`] region, a
//! per-worker buffer, or a plain `Vec` in the reference path).
//!
//! A frontal matrix is stored as a dense `s × s` column-major buffer of
//! which only the lower triangle is referenced (`s = k + m`). Columns
//! `0..k` form the factor panel `[L₁; L₂]`; the trailing `m × m` block is
//! the update matrix `Uⁿ` passed to the parent's extend-add.
//!
//! Nothing here allocates: assembly zeroes exactly the lower trapezoid it
//! will reference (the strictly-upper remainder may hold garbage from a
//! previous front — every downstream kernel reads only the lower triangle,
//! so those bits never enter any computation), the panel is copied straight
//! into the caller's slice of the contiguous factor slab, and a child's
//! update is consumed as a borrowed [`ChildUpdate`] view whose row indices
//! come from the shared symbolic structure.
//!
//! [`FrontArena`]: crate::arena::FrontArena

use mf_dense::Scalar;
use mf_gpusim::HostClock;
use mf_sparse::SymCsc;
use std::ops::Range;

/// Host memory bandwidth used to charge assembly/extend-add time
/// (bytes/s) — calibrated to streaming axpy/gather rates of the paper's
/// FB-DIMM Xeon node.
pub const ASSEMBLY_BW: f64 = 6.0e9;

/// A dense frontal matrix in borrowed storage.
#[derive(Debug)]
pub struct Front<'a, T> {
    /// Front order `s = k + m`.
    pub s: usize,
    /// Pivot-block width `k`.
    pub k: usize,
    /// `s × s` column-major storage (lower triangle significant; the
    /// strictly-upper part may hold stale values and must never be read).
    pub data: &'a mut [T],
}

impl<T: Scalar> Front<'_, T> {
    /// Update-matrix size `m`.
    pub fn m(&self) -> usize {
        self.s - self.k
    }

    /// Entry accessor (test helper).
    pub fn at(&self, i: usize, j: usize) -> T {
        self.data[i + j * self.s]
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
/// and sorted update rows `tail` into `data` (caller-supplied `s × s`
/// storage): zero the lower trapezoid actually referenced, scatter the
/// entries of `A` belonging to the supernode's columns, then extend-add
/// every child update view in the order given. `rel` is a reusable scratch
/// buffer for the child row-relocation map. Charges host assembly time for
/// exactly the bytes written.
pub fn assemble_front_into<'a, 'c, T: Scalar + 'c>(
    a: &SymCsc<T>,
    cols: Range<usize>,
    tail: &[usize],
    children: impl Iterator<Item = ChildUpdate<'c, T>>,
    data: &'a mut [T],
    rel: &mut Vec<usize>,
    host: &mut HostClock,
) -> Front<'a, T> {
    let k = cols.len();
    let m = tail.len();
    let s = k + m;
    debug_assert_eq!(data.len(), s * s);

    // Zero only what the factorization will read or write: the panel
    // trapezoid (cols 0..k, rows j..s) and the update triangle (cols k..s,
    // rows k+j..s). The strictly-upper remainder keeps whatever the buffer
    // held before — no kernel reads it.
    for j in 0..k {
        data[j * s + j..(j + 1) * s].fill(T::ZERO);
    }
    for j in 0..m {
        data[(k + j) * s + k + j..(k + j + 1) * s].fill(T::ZERO);
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
    let mut scattered = 0usize;
    for (lc, c) in cols.clone().enumerate() {
        let mut t = 0usize;
        for (&i, &v) in a.col_rows(c).iter().zip(a.col_vals(c)) {
            debug_assert!(i >= c);
            let lr = merge_local(&mut t, i);
            data[lr + lc * s] += v;
            scattered += 1;
        }
    }

    // Extend-add children.
    let mut extended = 0usize;
    for child in children {
        let cm = child.m();
        // Relative indices: child rows merged into front-local rows, built
        // in the caller-owned scratch (no per-child allocation).
        let mut t = 0usize;
        rel.clear();
        rel.extend(child.rows.iter().map(|&r| merge_local(&mut t, r)));
        for j in 0..cm {
            let cj = rel[j];
            let src = &child.data[j * cm..];
            for i in j..cm {
                data[rel[i] + cj * s] += src[i];
            }
        }
        extended += lower_trapezoid_len(cm, cm);
    }
    charge_assemble::<T>(scattered, extended, s, k, host);

    Front { s, k, data }
}

/// The simulated cost of [`assemble_front_into`], which charges through
/// here, from counts alone (what a timing-only run has): read+write per
/// entry `scattered` from `A`'s supernode columns and per entry `extended`
/// from the children's update triangles, plus the zero-fill that is actually
/// written (the lower trapezoid and the update triangle, not the full s×s).
pub(crate) fn charge_assemble<T: Scalar>(
    scattered: usize,
    extended: usize,
    s: usize,
    k: usize,
    host: &mut HostClock,
) {
    let zeroed = lower_trapezoid_len(s, k) + lower_trapezoid_len(s - k, s - k);
    host.charge_memop((scattered + extended) * 2 * T::BYTES + zeroed * T::BYTES, ASSEMBLY_BW);
}

/// Copy the factored panel (lower trapezoid of columns `0..k`) from the
/// front into `dst` — the supernode's `s × k` region of the contiguous
/// factor slab. `dst` starts zeroed (slab init), so skipping the
/// strictly-upper entries leaves them exactly zero. Data only: the lane
/// extracts as soon as a front's downloads are enqueued (the data exists the
/// moment the simulator queues the transfer) and charges
/// [`charge_panel_extract`] at the front's finish.
pub(crate) fn extract_panel_copy<T: Scalar>(front: &Front<'_, T>, dst: &mut [T]) {
    let s = front.s;
    let k = front.k;
    debug_assert_eq!(dst.len(), s * k);
    for j in 0..k {
        dst[j * s + j..(j + 1) * s].copy_from_slice(&front.data[j * s + j..(j + 1) * s]);
    }
}

/// The simulated cost of [`extract_panel_copy`]'s trapezoid.
pub(crate) fn charge_panel_extract<T: Scalar>(s: usize, k: usize, host: &mut HostClock) {
    host.charge_memop(lower_trapezoid_len(s, k) * T::BYTES, ASSEMBLY_BW);
}

/// The trailing `m × m` lower block of a factored front (stored with leading
/// dimension `s` at offset `(k, k)` in `front_data`) packed into a fresh
/// buffer with leading dimension `m`; `None` when `m = 0`. Pure data
/// movement — simulated time is charged separately by
/// [`charge_update_extract`] so every storage mode (arena compaction,
/// hand-off buffer, reference heap path) pays the same clock.
pub(crate) fn packed_update<T: Scalar>(front_data: &[T], s: usize, k: usize) -> Option<Vec<T>> {
    let m = s - k;
    (m > 0).then(|| {
        let mut dst = vec![T::ZERO; m * m];
        for j in 0..m {
            let src = &front_data[(k + j) * s + k + j..(k + j) * s + s];
            dst[j * m + j..(j + 1) * m].copy_from_slice(src);
        }
        dst
    })
}

/// Charge the simulated cost of packing an `m × m` update matrix out of a
/// factored front (the lower triangle actually moved).
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

    fn assemble<'a>(
        a: &SymCsc<f64>,
        inf: &Shape,
        children: &[(Vec<usize>, Vec<f64>)],
        data: &'a mut [f64],
        host: &mut HostClock,
    ) -> Front<'a, f64> {
        let mut rel = Vec::new();
        assemble_front_into(
            a,
            inf.0.clone(),
            &inf.1,
            children.iter().map(|(rows, d)| ChildUpdate { rows, data: d }),
            data,
            &mut rel,
            host,
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
        let mut host = HostClock::new(mf_gpusim::xeon_5160_core());
        // Poison the buffer: assembly must overwrite every referenced slot.
        let mut data = vec![f64::NAN; 9];
        let f = assemble(&a, &inf, &[], &mut data, &mut host);
        assert_eq!(f.s, 3);
        assert_eq!(f.k, 2);
        assert_eq!(f.at(0, 0), 4.0);
        assert_eq!(f.at(1, 0), -1.0);
        assert_eq!(f.at(2, 0), -2.0); // row 3 → local 2
        assert_eq!(f.at(1, 1), 5.0);
        assert_eq!(f.at(2, 1), -3.0);
        assert_eq!(f.at(2, 2), 0.0, "A(3,3) belongs to a later supernode");
        // Strictly-upper entries are never referenced — and never zeroed.
        assert!(f.at(0, 1).is_nan());
        assert!(host.now() > 0.0);
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
        let mut host = HostClock::new(mf_gpusim::xeon_5160_core());
        let mut data = vec![0.0f64; 9];
        let f = assemble(&a, &inf, &[child], &mut data, &mut host);
        // Local rows: 2→0, 3→1, 4→2.
        assert_eq!(f.at(0, 0), 1.0 + 10.0);
        assert_eq!(f.at(2, 0), 20.0);
        // A(4,4) belongs to a later supernode — only the child lands here.
        assert_eq!(f.at(2, 2), 30.0);
        assert_eq!(f.at(1, 1), 1.0);
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
        let mut host = HostClock::new(mf_gpusim::xeon_5160_core());
        let mut data = vec![0.0f64; 9];
        let f = assemble(&a, &inf, &[c1, c2], &mut data, &mut host);
        assert_eq!(f.at(0, 0), 6.0); // 1 + 5
        assert_eq!(f.at(2, 0), 2.0);
        assert_eq!(f.at(1, 0), 6.0);
        assert_eq!(f.at(1, 1), 7.0);
        assert_eq!(f.at(2, 2), 3.0);
    }

    #[test]
    fn extract_update_and_panel_roundtrip() {
        let s = 4;
        let k = 2;
        let mut data = vec![0.0f64; 16];
        // Fill lower triangle with recognisable values.
        for j in 0..s {
            for i in j..s {
                data[i + j * s] = (10 * i + j) as f64;
            }
        }
        let f = Front { s, k, data: &mut data };
        let mut host = HostClock::new(mf_gpusim::xeon_5160_core());
        let m = s - k;
        let u = packed_update(f.data, s, k).unwrap();
        charge_update_extract::<f64>(m, &mut host);
        assert_eq!(u[0], 22.0); // front (2,2)
        assert_eq!(u[1], 32.0); // front (3,2)
        assert_eq!(u[3], 33.0); // front (3,3)
        let mut p = vec![0.0f64; s * k];
        extract_panel_copy(&f, &mut p);
        charge_panel_extract::<f64>(s, k, &mut host);
        assert_eq!(p.len(), 8);
        assert_eq!(p[1], 10.0);
        assert_eq!(p[4 + 1], 11.0);
        assert_eq!(p[4], 0.0, "strictly-upper panel entry stays slab-zero");
        assert!(host.now() > 0.0);
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
