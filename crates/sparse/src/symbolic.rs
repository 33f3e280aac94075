//! Supernodal symbolic factorization.
//!
//! Computes, for every supernode, the sorted row structure of its frontal
//! matrix — hence the `(m, k)` pair of every factor-update call, the flop
//! counts `N_P, N_T, N_S`, and the factor's storage map. This is the
//! analysis phase that precedes numeric factorization and is reused across
//! repeated factorizations with the same pattern.
//!
//! ## Storage
//!
//! The structure is a handful of flat arrays ([`SymbolicArrays`]): one
//! [`SupernodeInfo`] record per supernode, the update rows of all fronts
//! concatenated in postorder, the child lists in CSR form, and the panel
//! offsets. [`SymbolicFactor`] is a shared handle on them — cloning it
//! copies a pointer, so an [`Analysis`], the solver that caches it and every
//! factor computed from it refer to one copy. The numeric sweeps walk these
//! arrays front to back; nothing is allocated per supernode.

use crate::csc::SymCsc;
use crate::etree::{
    column_counts, column_counts_parallel, elimination_tree, EliminationTree, NONE,
};
use crate::ordering::{order, order_parallel, OrderingKind};
use crate::perm::Permutation;
use crate::supernode::{
    amalgamate, fundamental_supernodes, supernode_forest, AmalgamationOptions, SupernodeForest,
    SupernodePartition,
};
use mf_dense::{FuFlops, Scalar};
use mf_runtime::{Runtime, TaskGraph};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Working-set size, in bytes, up to which a subtree counts as a *bottom
/// subtree* ([`SymbolicFactor::bottom_subtrees`]): its panels plus its peak
/// front stack stay cache-resident while one worker factors it front to back.
pub const BOTTOM_SUBTREE_BYTES: usize = 256 << 10;

/// Per-supernode symbolic information. The front's rows are the pivot
/// columns `col_start..col_end` followed by the sorted update rows, which
/// live in the shared flat array ([`SymbolicFactor::update_rows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupernodeInfo {
    /// First column of the supernode.
    pub col_start: usize,
    /// One past the last column (`k = col_end − col_start`).
    pub col_end: usize,
    /// Parent supernode in the supernodal elimination tree, or
    /// [`crate::etree::NONE`].
    pub parent: usize,
    /// This supernode's slice of the flat update-row array.
    rows_start: usize,
    rows_end: usize,
}

impl SupernodeInfo {
    /// Pivot-block width `k`.
    pub fn k(&self) -> usize {
        self.col_end - self.col_start
    }

    /// Update-matrix size `m`.
    pub fn m(&self) -> usize {
        self.rows_end - self.rows_start
    }

    /// Front order `s = m + k`.
    pub fn front_size(&self) -> usize {
        self.k() + self.m()
    }

    /// Factor-update flop counts for this front.
    pub fn flops(&self) -> FuFlops {
        FuFlops::new(self.m(), self.k())
    }
}

/// The flat arrays behind a [`SymbolicFactor`].
#[derive(Debug, PartialEq, Eq)]
pub struct SymbolicArrays {
    /// Matrix order.
    pub n: usize,
    /// Per-supernode records, in ascending column order.
    pub supernodes: Vec<SupernodeInfo>,
    /// Depth-first postorder over supernodes (children before parents, every
    /// subtree a contiguous run ending at its root).
    pub postorder: Vec<usize>,
    /// Map column → supernode.
    pub col_to_sn: Vec<usize>,
    /// Update rows of every front, concatenated in postorder.
    update_rows: Vec<usize>,
    /// CSR child lists (ascending within a list).
    child_ptr: Vec<usize>,
    child_idx: Vec<usize>,
    /// Prefix sum of the `s × k` panel rectangles, in supernode order.
    panel_ptr: Vec<usize>,
    /// Peak of the factorization's LIFO front stack, in scalars.
    update_stack_peak: usize,
    /// Peak of the forward sweep's subtrahend stack, in rows.
    solve_stack_rows: usize,
}

/// The complete symbolic factorization: a shared, immutable handle on
/// [`SymbolicArrays`] (fields and flat arrays are reached through `Deref`).
#[derive(Debug, Clone)]
pub struct SymbolicFactor(Arc<SymbolicArrays>);

impl std::ops::Deref for SymbolicFactor {
    type Target = SymbolicArrays;

    fn deref(&self) -> &SymbolicArrays {
        &self.0
    }
}

impl PartialEq for SymbolicFactor {
    fn eq(&self, other: &Self) -> bool {
        self.shares_structure_with(other) || *self.0 == *other.0
    }
}

impl Eq for SymbolicFactor {}

impl SymbolicFactor {
    /// Whether the two handles refer to the same arrays (not merely equal
    /// ones) — what a clone of an analysis, a solver and its factors do.
    pub fn shares_structure_with(&self, other: &SymbolicFactor) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Number of supernodes.
    pub fn num_supernodes(&self) -> usize {
        self.supernodes.len()
    }

    /// Sorted update rows of supernode `sn` (the last `m` rows of its
    /// front; the first `k` are its pivot columns).
    pub fn update_rows(&self, sn: usize) -> &[usize] {
        let info = &self.supernodes[sn];
        &self.update_rows[info.rows_start..info.rows_end]
    }

    /// Children of supernode `sn`, ascending — the order in which their
    /// contributions are reduced everywhere.
    pub fn children(&self, sn: usize) -> &[usize] {
        &self.child_idx[self.child_ptr[sn]..self.child_ptr[sn + 1]]
    }

    /// Nonzeros of `L` (including explicit zeros from amalgamation):
    /// Σ over supernodes of the panel trapezoid.
    pub fn factor_nnz(&self) -> usize {
        self.supernodes
            .iter()
            .map(|s| {
                let k = s.k();
                let rows = s.front_size();
                // Column i of the panel holds rows − i entries.
                (0..k).map(|i| rows - i).sum::<usize>()
            })
            .sum()
    }

    /// Total factorization flops (sum of all factor-update operations).
    pub fn total_flops(&self) -> f64 {
        self.supernodes.iter().map(|s| s.flops().total()).sum()
    }

    /// Largest front order `s = m + k`.
    pub fn max_front(&self) -> usize {
        self.supernodes.iter().map(|s| s.front_size()).max().unwrap_or(0)
    }

    /// Factor storage map: offsets of each supernode's panel into one
    /// contiguous factor slab. Panel `s` occupies
    /// `panel_ptr[s]..panel_ptr[s + 1]`, an `s × k` column-major block
    /// (leading dimension `s = front_size`), in ascending supernode order.
    /// `panel_ptr.len() == num_supernodes + 1`; the last entry is the slab
    /// length in scalars.
    pub fn panel_ptr(&self) -> &[usize] {
        &self.panel_ptr
    }

    /// Length in scalars of the contiguous factor slab (`panel_ptr` last
    /// entry): Σ over supernodes of the full `s × k` panel rectangle.
    pub fn factor_slab_len(&self) -> usize {
        *self.panel_ptr.last().expect("panel_ptr is never empty")
    }

    /// Per-subtree working-storage bounds, in scalars: `peaks[s]` is the
    /// peak LIFO-stack size needed to factor the subtree rooted at `s`
    /// (fronts plus live child updates) starting from an empty stack —
    /// exactly the quantity a worker that owns the whole subtree needs to
    /// size its arena. Generalizes [`Self::update_stack_peak`], which equals
    /// the maximum of `peaks` over the forest roots.
    pub fn subtree_update_peaks(&self) -> Vec<usize> {
        let nsn = self.num_supernodes();
        let mut peaks = vec![0usize; nsn];
        for &s in &self.postorder {
            let info = &self.supernodes[s];
            let front = info.front_size() * info.front_size();
            let upd = info.m() * info.m();
            // Children run sequentially: child i starts with the finished
            // updates of children 0..i already on the stack.
            let mut prefix = 0usize;
            let mut peak = 0usize;
            for &c in self.children(s) {
                peak = peak.max(prefix + peaks[c]);
                let cm = self.supernodes[c].m();
                prefix += cm * cm;
            }
            // All child updates live while the front is assembled, then the
            // front coexists with the supernode's own update.
            peak = peak.max(prefix + front);
            peak = peak.max(upd + front);
            peaks[s] = peak;
        }
        peaks
    }

    /// Peak size (in scalars) of the update-matrix stack under the postorder
    /// traversal — useful to pre-size arenas and check device memory fits.
    pub fn update_stack_peak(&self) -> usize {
        self.update_stack_peak
    }

    /// Peak height, in rows, of the forward sweep's subtrahend stack under
    /// the postorder traversal: multiply by the right-hand-side count for
    /// its size in scalars. At a supernode its children's subtrahends
    /// (`m` rows each) are on top of the stack, its own is built above them
    /// and then moved down over them.
    pub fn solve_stack_rows(&self) -> usize {
        self.solve_stack_rows
    }

    /// The *bottom subtrees*: the maximal subtrees whose factor working set
    /// — the panels of all their fronts plus their peak front stack
    /// ([`Self::subtree_update_peaks`]) at `elem_bytes` per scalar — fits
    /// [`BOTTOM_SUBTREE_BYTES`] and whose fronts are all `eligible`. Each is
    /// returned as its range of postorder positions; the ranges are disjoint
    /// and ascending, closed under descendants, and every supernode outside
    /// them (the *top* of the forest) has no ancestor inside one.
    ///
    /// One worker can run such a range front to back on a private stack, so
    /// the parallel drivers emit one task per range instead of one per
    /// supernode.
    pub fn bottom_subtrees(
        &self,
        elem_bytes: usize,
        eligible: impl Fn(usize) -> bool,
    ) -> Vec<Range<usize>> {
        let nsn = self.num_supernodes();
        let budget = BOTTOM_SUBTREE_BYTES / elem_bytes.max(1);
        let peaks = self.subtree_update_peaks();
        // Per subtree: supernode count and panel scalars, or `usize::MAX`
        // once something inside it rules the subtree out.
        let mut size = vec![0usize; nsn];
        let mut panels = vec![0usize; nsn];
        for &s in &self.postorder {
            let mut count = 1usize;
            let mut scalars = self.panel_ptr[s + 1] - self.panel_ptr[s];
            let mut fits = eligible(s);
            for &c in self.children(s) {
                fits &= panels[c] != usize::MAX;
                count += size[c];
                scalars = scalars.saturating_add(panels[c]);
            }
            fits &= scalars.saturating_add(peaks[s]) <= budget;
            size[s] = count;
            panels[s] = if fits { scalars } else { usize::MAX };
        }
        // Fitting is closed under descendants, so the maximal fitting
        // subtrees are the fitting supernodes whose parent does not fit.
        let mut ranges = Vec::new();
        for (pos, &s) in self.postorder.iter().enumerate() {
            let parent = self.supernodes[s].parent;
            if panels[s] != usize::MAX && (parent == NONE || panels[parent] == usize::MAX) {
                ranges.push(pos + 1 - size[s]..pos + 1);
            }
        }
        ranges
    }
}

/// Sorted update rows of one supernode's front, written to `out`: the
/// merged, deduplicated rows below the pivot block from the matrix pattern
/// in the supernode's columns and from the children's update rows. Shared by
/// the serial and parallel drivers so both compute byte-identical
/// structures; `mark` is an `n`-length scratch stamped with the supernode id
/// (safe to reuse across calls because every supernode is processed exactly
/// once).
fn supernode_update_rows<'a, T: Scalar>(
    a: &SymCsc<T>,
    part: &SupernodePartition,
    s: usize,
    children: &[usize],
    mark: &mut [usize],
    child_rows: impl Fn(usize) -> &'a [usize],
    out: &mut Vec<usize>,
) {
    let c0 = part.starts[s];
    let c1 = part.starts[s + 1];
    out.clear();
    // Pattern of A in the supernode's columns, below the pivot block.
    for c in c0..c1 {
        for &i in a.col_rows(c) {
            if i >= c1 && mark[i] != s {
                mark[i] = s;
                out.push(i);
            }
        }
    }
    // Children update rows (all ≥ c0 by the etree parent property).
    for &ch in children {
        for &i in child_rows(ch) {
            debug_assert!(i >= c0);
            if i >= c1 && mark[i] != s {
                mark[i] = s;
                out.push(i);
            }
        }
    }
    out.sort_unstable();
}

/// Put the pieces together: per-supernode records over `update_rows`
/// (`span[s]` is supernode `s`'s slice of it), the panel offsets, and the
/// two stack bounds, each from one pass over the postorder.
fn build_factor(
    n: usize,
    part: &SupernodePartition,
    sn_parent: &[usize],
    col_to_sn: Vec<usize>,
    forest: SupernodeForest,
    update_rows: Vec<usize>,
    span: &[Range<usize>],
) -> SymbolicFactor {
    let supernodes: Vec<SupernodeInfo> = (0..part.len())
        .map(|s| SupernodeInfo {
            col_start: part.starts[s],
            col_end: part.starts[s + 1],
            parent: sn_parent[s],
            rows_start: span[s].start,
            rows_end: span[s].end,
        })
        .collect();
    let mut panel_ptr = Vec::with_capacity(supernodes.len() + 1);
    panel_ptr.push(0);
    let mut off = 0usize;
    for info in &supernodes {
        off += info.front_size() * info.k();
        panel_ptr.push(off);
    }
    // Simulate both LIFO stacks: on visiting a supernode all its children's
    // blocks are live below its own front (factor) or subtrahend (solve),
    // and are replaced by its own block when it retires.
    let SupernodeForest { child_ptr, child_idx, postorder } = forest;
    let (mut live, mut update_stack_peak) = (0usize, 0usize);
    let (mut live_rows, mut solve_stack_rows) = (0usize, 0usize);
    for &s in &postorder {
        let info = &supernodes[s];
        let (front, m) = (info.front_size() * info.front_size(), info.m());
        update_stack_peak = update_stack_peak.max(live + front);
        solve_stack_rows = solve_stack_rows.max(live_rows + m);
        for &c in &child_idx[child_ptr[s]..child_ptr[s + 1]] {
            let cm = supernodes[c].m();
            live -= cm * cm;
            live_rows -= cm;
        }
        live += m * m;
        live_rows += m;
        update_stack_peak = update_stack_peak.max(live + front);
    }
    SymbolicFactor(Arc::new(SymbolicArrays {
        n,
        supernodes,
        postorder,
        col_to_sn,
        update_rows,
        child_ptr,
        child_idx,
        panel_ptr,
        update_stack_peak,
        solve_stack_rows,
    }))
}

/// Compute the supernodal symbolic factorization given a partition.
pub fn symbolic_factor<T: Scalar>(
    a: &SymCsc<T>,
    etree: &EliminationTree,
    part: &SupernodePartition,
) -> SymbolicFactor {
    let n = a.order();
    let sn_parent = part.supernode_etree(etree);
    let forest = supernode_forest(&sn_parent);

    // Row structures, bottom-up, appended to one array in postorder.
    let mut update_rows: Vec<usize> = Vec::new();
    let mut span = vec![0..0; part.len()];
    let mut mark = vec![usize::MAX; n];
    let mut rows = Vec::new();
    for &s in &forest.postorder {
        supernode_update_rows(
            a,
            part,
            s,
            forest.children(s),
            &mut mark,
            |ch| &update_rows[span[ch].clone()],
            &mut rows,
        );
        span[s] = update_rows.len()..update_rows.len() + rows.len();
        update_rows.extend_from_slice(&rows);
    }
    build_factor(n, part, &sn_parent, part.col_to_sn(), forest, update_rows, &span)
}

/// A finished run of update rows inside some worker's [`RowChunks`].
#[derive(Clone, Copy)]
struct RowRun {
    ptr: *const usize,
    len: usize,
}

// SAFETY: a `RowRun` is only ever read, and only while the chunk it points
// into is alive and unmoved (see `RowChunks`).
unsafe impl Send for RowRun {}
unsafe impl Sync for RowRun {}

impl RowRun {
    /// # Safety
    /// The [`RowChunks`] that produced this run must still be alive.
    unsafe fn rows<'a>(self) -> &'a [usize] {
        // SAFETY: `ptr..ptr + len` was initialised before the run was
        // published and chunk buffers never reallocate.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

/// Append-only row storage of one worker of the parallel build. Chunks are
/// filled only up to the capacity they were created with, so their buffers
/// never move and a published [`RowRun`] stays valid — other workers read
/// the runs of a supernode's children while this worker keeps appending.
#[derive(Default)]
struct RowChunks {
    chunks: Vec<Vec<usize>>,
}

impl RowChunks {
    const CHUNK: usize = 1 << 16;

    fn push(&mut self, rows: &[usize]) -> RowRun {
        if self.chunks.last().is_none_or(|c| c.capacity() - c.len() < rows.len()) {
            self.chunks.push(Vec::with_capacity(rows.len().max(Self::CHUNK)));
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room was just ensured");
        let start = chunk.len();
        chunk.extend_from_slice(rows);
        RowRun { ptr: chunk[start..].as_ptr(), len: rows.len() }
    }
}

/// Parallel supernodal symbolic factorization, bitwise identical to
/// [`symbolic_factor`] at every worker count.
///
/// The per-supernode row structure depends only on the matrix pattern and
/// the children's structures, so the supernodal elimination tree *is* the
/// task DAG: [`TaskGraph::from_parents`] releases a parent only after all
/// of its children completed, and the runtime's release/acquire on the
/// dependency counters makes every child's published rows visible. Each
/// worker appends the structures it computes to its own [`RowChunks`] and
/// publishes where they are; a final pass copies them into the postorder
/// layout the serial build produces. Per-worker mark scratch is stamped by
/// supernode id, which never repeats.
pub fn symbolic_factor_parallel<T: Scalar>(
    a: &SymCsc<T>,
    etree: &EliminationTree,
    part: &SupernodePartition,
    workers: usize,
) -> SymbolicFactor {
    let n = a.order();
    let nsn = part.len();
    let sn_parent = part.supernode_etree(etree);
    let forest = supernode_forest(&sn_parent);

    struct Worker {
        chunks: RowChunks,
        mark: Vec<usize>,
        rows: Vec<usize>,
    }
    let runs: Vec<OnceLock<RowRun>> = (0..nsn).map(|_| OnceLock::new()).collect();
    let graph = TaskGraph::from_parents(&sn_parent);
    let rt = Runtime::new(workers.max(1).min(nsn.max(1)));
    let states: Vec<Worker> = (0..rt.workers())
        .map(|_| Worker {
            chunks: RowChunks::default(),
            mark: vec![usize::MAX; n],
            rows: Vec::new(),
        })
        .collect();
    let (states, errs) = rt.run(&graph, states, |w, s| -> Result<(), ()> {
        supernode_update_rows(
            a,
            part,
            s,
            forest.children(s),
            &mut w.mark,
            |ch| {
                let run = *runs[ch].get().expect("child row structure must be published");
                // SAFETY: every worker's chunks live until `states` drops,
                // after the last read below.
                unsafe { run.rows() }
            },
            &mut w.rows,
        );
        let _ = runs[s].set(w.chunks.push(&w.rows));
        Ok(())
    });
    debug_assert!(errs.is_empty(), "symbolic tasks are infallible");

    let mut update_rows: Vec<usize> = Vec::new();
    let mut span = vec![0..0; nsn];
    for &s in &forest.postorder {
        let run = *runs[s].get().expect("every supernode task must run");
        // SAFETY: `states` (the chunks) is still alive.
        let rows = unsafe { run.rows() };
        span[s] = update_rows.len()..update_rows.len() + rows.len();
        update_rows.extend_from_slice(rows);
    }
    drop(states);
    build_factor(n, part, &sn_parent, part.col_to_sn(), forest, update_rows, &span)
}

/// Typed failure of the analysis pipeline on hostile input.
///
/// The analysis path must never panic on untrusted matrices — mf-server
/// admits caller-supplied patterns directly into [`analyze`], so every
/// structural precondition is checked up front and surfaced as a variant
/// here instead of tripping an `unwrap` deep inside ordering or numeric
/// code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnalyzeError {
    /// Column `col` has no structural diagonal entry. An SPD matrix always
    /// has a nonzero diagonal; without it the ordering and pivot paths
    /// would index a missing entry.
    MissingDiagonal {
        /// Offending column (0-based, in the input numbering).
        col: usize,
    },
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::MissingDiagonal { col } => {
                write!(f, "structurally missing diagonal entry in column {col}")
            }
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Verify every column has a structural diagonal entry. Rows within a
/// column are sorted and ≥ the column index, so the diagonal is present
/// iff it is the first stored row (an empty column has no diagonal).
fn check_diagonal<T: Scalar>(a: &SymCsc<T>) -> Result<(), AnalyzeError> {
    for j in 0..a.order() {
        if a.col_rows(j).first() != Some(&j) {
            return Err(AnalyzeError::MissingDiagonal { col: j });
        }
    }
    Ok(())
}

/// Result of the full analysis pipeline.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Fill-reducing permutation applied (`perm[new] = old`).
    pub perm: Permutation,
    /// Permuted matrix `P·A·Pᵀ`.
    pub permuted: SymCscF64Holder,
    /// Elimination tree of the permuted matrix.
    pub etree: EliminationTree,
    /// Symbolic factorization of the permuted matrix.
    pub symbolic: SymbolicFactor,
}

impl Analysis {
    /// FNV-1a fingerprint over everything the bitwise-determinism contract
    /// covers: the permutation, the permuted pattern and value bits, the
    /// elimination tree, and the full supernodal structure (spans, parents,
    /// row structures, postorder). Two analyses agree on this fingerprint
    /// iff every byte a downstream numeric phase consumes is identical —
    /// the CI invariant the determinism suite asserts for
    /// [`analyze_parallel`].
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn mix(mut h: u64, x: u64) -> u64 {
            for b in x.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
            h
        }
        let mut h = OFFSET;
        h = mix(h, self.symbolic.n as u64);
        for &p in self.perm.as_slice() {
            h = mix(h, p as u64);
        }
        for &p in &self.etree.parent {
            h = mix(h, p as u64);
        }
        let pa = &self.permuted.0;
        for j in 0..pa.order() {
            for (&i, &v) in pa.col_rows(j).iter().zip(pa.col_vals(j)) {
                h = mix(h, i as u64);
                h = mix(h, v.to_bits());
            }
        }
        for (sn, s) in self.symbolic.supernodes.iter().enumerate() {
            h = mix(h, s.col_start as u64);
            h = mix(h, s.col_end as u64);
            h = mix(h, s.parent as u64);
            // The front's rows: pivot columns, then update rows.
            for r in (s.col_start..s.col_end).chain(self.symbolic.update_rows(sn).iter().copied()) {
                h = mix(h, r as u64);
            }
        }
        for &s in &self.symbolic.postorder {
            h = mix(h, s as u64);
        }
        h
    }
}

/// Holder newtype so `Analysis` stays scalar-agnostic at the API boundary
/// (the numeric phase may cast to `f32` for GPU policies).
#[derive(Debug, Clone)]
pub struct SymCscF64Holder(pub SymCsc<f64>);

/// One-call analysis: order, permute, etree, column counts, fundamental
/// supernodes, relaxed amalgamation, symbolic factorization.
pub fn analyze(
    a: &SymCsc<f64>,
    ordering: OrderingKind,
    amalg: Option<&AmalgamationOptions>,
) -> Result<Analysis, AnalyzeError> {
    check_diagonal(a)?;
    let perm = order(a, ordering);
    let pa = perm.permute_sym(a);
    let et = elimination_tree(&pa);
    let cc = column_counts(&pa, &et);
    let fund = fundamental_supernodes(&et, &cc);
    let part = match amalg {
        Some(opts) => amalgamate(&fund, &et, &cc, opts),
        None => fund,
    };
    let symbolic = symbolic_factor(&pa, &et, &part);
    Ok(Analysis { perm, permuted: SymCscF64Holder(pa), etree: et, symbolic })
}

/// Parallel analysis on the mf-runtime pool, bitwise identical to
/// [`analyze`] at every worker count.
///
/// Three pipeline stages run on the work-stealing pool: nested-dissection
/// recursion over disjoint parts
/// ([`crate::ordering::nested_dissection_parallel`]), column counts over
/// row chunks ([`column_counts_parallel`]), and per-supernode row
/// structures over the supernodal elimination tree
/// ([`symbolic_factor_parallel`]). Each stage merges its partial results
/// in a schedule-independent order, so the returned [`Analysis`] — and
/// its [`Analysis::fingerprint`] — matches the serial pipeline byte for
/// byte. `workers == 1` still exercises the parallel drivers (on the
/// calling thread), which keeps single-worker runs meaningful in the
/// determinism suite.
pub fn analyze_parallel(
    a: &SymCsc<f64>,
    ordering: OrderingKind,
    amalg: Option<&AmalgamationOptions>,
    workers: usize,
) -> Result<Analysis, AnalyzeError> {
    check_diagonal(a)?;
    let perm = order_parallel(a, ordering, workers);
    let pa = perm.permute_sym(a);
    let et = elimination_tree(&pa);
    let cc = column_counts_parallel(&pa, &et, workers);
    let fund = fundamental_supernodes(&et, &cc);
    let part = match amalg {
        Some(opts) => amalgamate(&fund, &et, &cc, opts),
        None => fund,
    };
    let symbolic = symbolic_factor_parallel(&pa, &et, &part, workers);
    Ok(Analysis { perm, permuted: SymCscF64Holder(pa), etree: et, symbolic })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::Triplet;
    use crate::etree::NONE;

    fn tridiag(n: usize) -> SymCsc<f64> {
        let mut t = Triplet::new(n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i + 1, i, -1.0);
            }
        }
        t.assemble()
    }

    fn grid2d(nx: usize, ny: usize) -> SymCsc<f64> {
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

    fn symbolic_of(a: &SymCsc<f64>) -> SymbolicFactor {
        let et = elimination_tree(a);
        let cc = column_counts(a, &et);
        let part = fundamental_supernodes(&et, &cc);
        symbolic_factor(a, &et, &part)
    }

    #[test]
    fn tridiagonal_structure() {
        let a = tridiag(6);
        let sym = symbolic_of(&a);
        // Factor of a tridiagonal matrix is bidiagonal: nnz = 2n−1.
        assert_eq!(sym.factor_nnz(), 11);
        // Every front: k columns with one update row except the root.
        for (idx, s) in sym.supernodes.iter().enumerate() {
            if s.parent == NONE {
                assert_eq!(s.m(), 0, "root supernode {idx} must have m = 0");
            } else {
                assert_eq!(s.m(), 1);
            }
        }
    }

    #[test]
    fn update_rows_sorted_and_below_the_pivot_block() {
        let a = grid2d(7, 6);
        let analysis = analyze(&a, OrderingKind::NestedDissection, None).unwrap();
        let sym = &analysis.symbolic;
        for (sn, s) in sym.supernodes.iter().enumerate() {
            let rows = sym.update_rows(sn);
            assert_eq!(rows.len(), s.m());
            assert_eq!(s.front_size(), s.k() + rows.len());
            for w in rows.windows(2) {
                assert!(w[0] < w[1], "update rows must be strictly increasing");
            }
            if let Some(&first) = rows.first() {
                assert!(first >= s.col_end);
            }
        }
    }

    #[test]
    fn factor_nnz_matches_column_counts_without_amalgamation() {
        // With fundamental supernodes (no relaxation), the supernodal factor
        // nnz equals Σ column counts exactly.
        let a = grid2d(8, 8);
        let et = elimination_tree(&a);
        let cc = column_counts(&a, &et);
        let part = fundamental_supernodes(&et, &cc);
        let sym = symbolic_factor(&a, &et, &part);
        let cc_total: usize = cc.iter().sum();
        assert_eq!(sym.factor_nnz(), cc_total);
    }

    #[test]
    fn first_update_row_lands_in_parent() {
        let a = grid2d(9, 9);
        let sym = symbolic_of(&a);
        for (sn, s) in sym.supernodes.iter().enumerate() {
            if s.parent != NONE {
                let first = sym.update_rows(sn)[0];
                let p = &sym.supernodes[s.parent];
                assert!(
                    first >= p.col_start && first < p.col_end,
                    "first update row {first} outside parent cols {}..{}",
                    p.col_start,
                    p.col_end
                );
            }
        }
    }

    #[test]
    fn update_rows_subset_of_parent_front() {
        let a = grid2d(10, 7);
        let sym = symbolic_of(&a);
        for (sn, s) in sym.supernodes.iter().enumerate() {
            if s.parent == NONE {
                continue;
            }
            let p = &sym.supernodes[s.parent];
            for &r in sym.update_rows(sn) {
                assert!(
                    (p.col_start..p.col_end).contains(&r)
                        || sym.update_rows(s.parent).binary_search(&r).is_ok(),
                    "update row {r} of supernode missing from parent front"
                );
            }
        }
    }

    #[test]
    fn amalgamation_only_adds_nnz() {
        let a = grid2d(12, 12);
        let et = elimination_tree(&a);
        let cc = column_counts(&a, &et);
        let fund = fundamental_supernodes(&et, &cc);
        let sym_f = symbolic_factor(&a, &et, &fund);
        let am = amalgamate(&fund, &et, &cc, &AmalgamationOptions::default());
        let sym_a = symbolic_factor(&a, &et, &am);
        assert!(sym_a.num_supernodes() <= sym_f.num_supernodes());
        assert!(sym_a.factor_nnz() >= sym_f.factor_nnz());
        // Flops can only grow with explicit zeros.
        assert!(sym_a.total_flops() >= sym_f.total_flops());
    }

    #[test]
    fn update_stack_peak_positive_and_bounded() {
        let a = grid2d(10, 10);
        let sym = symbolic_of(&a);
        let peak = sym.update_stack_peak();
        let max_front = sym.max_front();
        assert!(peak >= max_front * max_front);
        // Crude upper bound: sum of all update sizes + biggest front.
        let total: usize = sym.supernodes.iter().map(|s| s.m() * s.m()).sum();
        assert!(peak <= total + max_front * max_front);
    }

    #[test]
    fn panel_ptr_is_the_prefix_sum_of_panel_rectangles() {
        let a = grid2d(9, 8);
        let analysis = analyze(&a, OrderingKind::NestedDissection, None).unwrap();
        let sym = &analysis.symbolic;
        let ptr = sym.panel_ptr();
        assert_eq!(ptr.len(), sym.num_supernodes() + 1);
        assert_eq!(ptr[0], 0);
        for (s, info) in sym.supernodes.iter().enumerate() {
            assert_eq!(ptr[s + 1] - ptr[s], info.front_size() * info.k());
        }
        assert_eq!(*ptr.last().unwrap(), sym.factor_slab_len());
        // The slab stores full s×k rectangles, so it is at least as large
        // as the trapezoidal nnz count and contains every panel.
        assert!(sym.factor_slab_len() >= sym.factor_nnz());
    }

    #[test]
    fn subtree_peaks_match_the_global_stack_simulation() {
        for a in [grid2d(10, 10), grid2d(13, 4), tridiag(40)] {
            let sym = symbolic_of(&a);
            let peaks = sym.subtree_update_peaks();
            // Roots: parent == NONE. The global postorder simulation runs
            // the root subtrees back to back on an empty stack (roots leave
            // no update behind), so the forest peak is the max root peak.
            let root_max = sym
                .supernodes
                .iter()
                .enumerate()
                .filter(|(_, s)| s.parent == NONE)
                .map(|(i, _)| peaks[i])
                .max()
                .unwrap_or(0);
            assert_eq!(root_max, sym.update_stack_peak());
            // Every subtree bound covers at least its own front, and a
            // child's subtree never needs more than its parent's.
            for (s, info) in sym.supernodes.iter().enumerate() {
                assert!(peaks[s] >= info.front_size() * info.front_size());
                if info.parent != NONE {
                    assert!(peaks[s] <= peaks[info.parent]);
                }
            }
        }
    }

    #[test]
    fn clones_share_the_arrays() {
        let sym = symbolic_of(&grid2d(6, 5));
        let copy = sym.clone();
        assert!(copy.shares_structure_with(&sym));
        assert_eq!(copy.update_rows(0).as_ptr(), sym.update_rows(0).as_ptr());
    }

    #[test]
    fn solve_stack_bound_covers_a_chain_and_a_star() {
        // Chain: each subtrahend has one row and replaces its child's.
        assert_eq!(symbolic_of(&tridiag(9)).solve_stack_rows(), 2);
        // A 2-D grid's bound is at least its widest update block.
        let sym = symbolic_of(&grid2d(10, 10));
        let widest = sym.supernodes.iter().map(|s| s.m()).max().unwrap();
        assert!(sym.solve_stack_rows() >= widest);
    }

    #[test]
    fn bottom_subtrees_partition_small_trees_whole() {
        // Everything fits the constant: one range per tree of the forest.
        let sym = symbolic_of(&grid2d(9, 9));
        let roots = sym.supernodes.iter().filter(|s| s.parent == NONE).count();
        let all = sym.bottom_subtrees(8, |_| true);
        assert_eq!(all.len(), roots);
        assert_eq!(all.iter().map(|r| r.len()).sum::<usize>(), sym.num_supernodes());
        // An ineligible root leaves its children's subtrees.
        let root = *sym.postorder.last().unwrap();
        let below = sym.bottom_subtrees(8, |s| s != root);
        assert_eq!(below.len(), roots - 1 + sym.children(root).len());
        assert!(below.iter().all(|r| r.end < sym.num_supernodes()));
    }

    #[test]
    fn missing_diagonal_is_a_typed_error_not_a_panic() {
        // No (1,1) entry; column 1 still has sub-diagonal structure.
        let mut t = Triplet::new(3);
        t.push(0, 0, 2.0);
        t.push(2, 2, 2.0);
        t.push(2, 1, -1.0);
        let a = t.assemble();
        for kind in [OrderingKind::Natural, OrderingKind::NestedDissection] {
            assert_eq!(
                analyze(&a, kind, None).unwrap_err(),
                AnalyzeError::MissingDiagonal { col: 1 }
            );
            assert_eq!(
                analyze_parallel(&a, kind, None, 4).unwrap_err(),
                AnalyzeError::MissingDiagonal { col: 1 }
            );
        }
        // Completely empty column (no entries at all) is caught too.
        let mut t = Triplet::new(2);
        t.push(1, 1, 1.0);
        let b = t.assemble();
        assert_eq!(
            analyze(&b, OrderingKind::Natural, None).unwrap_err(),
            AnalyzeError::MissingDiagonal { col: 0 }
        );
    }

    #[test]
    fn parallel_analysis_is_bitwise_identical_to_serial() {
        let a = grid2d(13, 11);
        let amalg = AmalgamationOptions::default();
        let serial = analyze(&a, OrderingKind::NestedDissection, Some(&amalg)).unwrap();
        for workers in [1, 2, 4, 8] {
            let par = analyze_parallel(&a, OrderingKind::NestedDissection, Some(&amalg), workers)
                .unwrap();
            assert_eq!(par.perm.as_slice(), serial.perm.as_slice(), "workers={workers}");
            assert_eq!(par.etree.parent, serial.etree.parent, "workers={workers}");
            assert!(!par.symbolic.shares_structure_with(&serial.symbolic));
            assert_eq!(par.symbolic, serial.symbolic, "workers={workers}");
            assert_eq!(par.fingerprint(), serial.fingerprint(), "workers={workers}");
        }
    }

    #[test]
    fn postorder_covers_children_first() {
        let a = grid2d(11, 5);
        let sym = symbolic_of(&a);
        let mut rank = vec![0usize; sym.num_supernodes()];
        for (r, &s) in sym.postorder.iter().enumerate() {
            rank[s] = r;
        }
        for (s, info) in sym.supernodes.iter().enumerate() {
            if info.parent != NONE {
                assert!(rank[s] < rank[info.parent]);
            }
        }
    }
}
