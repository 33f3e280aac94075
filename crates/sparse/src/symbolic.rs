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
//!
//! ## Build
//!
//! One body computes the row structures of a run of the postorder. The
//! serial build runs it over the whole postorder, straight into the flat
//! arrays; the parallel build runs it on [`RangeTasks`] — the same task
//! shape as the numeric factor and the solve sweeps — and concatenates the
//! runs in postorder.

use crate::csc::SymCsc;
use crate::etree::{column_counts, EliminationTree, NONE};
use crate::ordering::{order_with_etree, OrderingKind};
use crate::perm::Permutation;
use crate::supernode::{
    amalgamate, fundamental_supernodes, supernode_forest, AmalgamationOptions, SupernodeForest,
    SupernodePartition,
};
use crate::tasks::{maximal_subtrees, RangeTasks};
use mf_dense::{FuFlops, Scalar};
use mf_runtime::{Runtime, TaskGraph};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Working-set size, in bytes, up to which a subtree counts as a *bottom
/// subtree* ([`SymbolicFactor::bottom_subtrees`]) — a range task of the
/// numeric factor and the solve sweeps: its panels plus its peak front stack
/// stay cache-resident while one worker factors it front to back. (The
/// analysis sizes its own range tasks by supernode count.)
///
/// The stack is measured with a whole `s × s` front per supernode, not by
/// the smaller `m × m` arena bound of [`SymbolicFactor::subtree_update_peaks`]
/// (a front's panel lives in the factor slab).
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
    /// Entries of the permuted lower matrix in the supernode's columns.
    a_nnz: usize,
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

    /// Entries of the permuted lower matrix in columns
    /// `col_start..col_end` — what the front's assembly scatters from `A`.
    pub fn a_nnz(&self) -> usize {
        self.a_nnz
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
    /// subtree a contiguous run ending at its root) — the identity for every
    /// [`analyze`], whose ordering comes out postordered.
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
    /// (live child updates plus the `m × m` update block being assembled —
    /// a front's pivot columns live in the factor slab) starting from an
    /// empty stack — exactly the quantity a worker that owns the whole
    /// subtree needs to size its arena. Generalizes
    /// [`Self::update_stack_peak`], which equals the maximum of `peaks` over
    /// the forest roots.
    pub fn subtree_update_peaks(&self) -> Vec<usize> {
        self.stack_peaks(|live, info| live + info.m() * info.m())
    }

    /// Per-subtree peaks of a LIFO stack whose height while supernode
    /// `info` is factored, with `live` scalars of child updates below it, is
    /// `height(live, info)`. Children run sequentially: child `i` starts
    /// with the finished updates of children `0..i` already on the stack.
    fn stack_peaks(&self, height: impl Fn(usize, &SupernodeInfo) -> usize) -> Vec<usize> {
        let mut peaks = vec![0usize; self.num_supernodes()];
        for &s in &self.postorder {
            let mut prefix = 0usize;
            let mut peak = 0usize;
            for &c in self.children(s) {
                peak = peak.max(prefix + peaks[c]);
                let cm = self.supernodes[c].m();
                prefix += cm * cm;
            }
            peaks[s] = peak.max(height(prefix, &self.supernodes[s]));
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
    /// — the panels of all their fronts plus their peak front stack at
    /// `elem_bytes` per scalar — fits
    /// [`BOTTOM_SUBTREE_BYTES`] and whose fronts are all `eligible`. Each is
    /// returned as its range of postorder positions; the ranges are disjoint
    /// and ascending, closed under descendants, and every supernode outside
    /// them (the *top* of the forest) has no ancestor inside one.
    ///
    /// One worker can run such a range front to back on a private stack, so
    /// the parallel factor and solve emit one [`RangeTasks`] task per range
    /// instead of one per supernode.
    pub fn bottom_subtrees(
        &self,
        elem_bytes: usize,
        eligible: impl Fn(usize) -> bool,
    ) -> Vec<Range<usize>> {
        let budget = BOTTOM_SUBTREE_BYTES / elem_bytes.max(1);
        // An s × s front above its live child updates, then beside its own
        // update (see `BOTTOM_SUBTREE_BYTES`).
        let peaks = self.stack_peaks(|live, info| {
            info.front_size() * info.front_size() + live.max(info.m() * info.m())
        });
        // Per subtree: panel scalars, or `usize::MAX` once something inside
        // it rules the subtree out — which makes fitting closed under
        // descendants.
        let mut panels = vec![0usize; self.num_supernodes()];
        for &s in &self.postorder {
            let mut scalars = self.panel_ptr[s + 1] - self.panel_ptr[s];
            let mut fits = eligible(s);
            for &c in self.children(s) {
                fits &= panels[c] != usize::MAX;
                scalars = scalars.saturating_add(panels[c]);
            }
            fits &= scalars.saturating_add(peaks[s]) <= budget;
            panels[s] = if fits { scalars } else { usize::MAX };
        }
        maximal_subtrees(
            &self.postorder,
            |s| self.supernodes[s].parent,
            |s, _| panels[s] != usize::MAX,
        )
    }
}

/// Update rows of the fronts at a run of postorder positions, concatenated
/// in postorder: the run's `i`-th front owns `rows[ends[i - 1]..ends[i]]`
/// (from 0 for the first).
struct RowRuns {
    rows: Vec<usize>,
    ends: Vec<usize>,
}

impl RowRuns {
    /// Update rows of the run's last front — what a parent outside the run
    /// reads.
    fn last(&self) -> &[usize] {
        let n = self.ends.len();
        &self.rows[if n < 2 { 0 } else { self.ends[n - 2] }..]
    }
}

/// The one row-structure body: the sorted update rows of the fronts at
/// postorder positions `range`, a run whose first front has no child inside
/// it and whose every later front has all of its children inside. A front's
/// rows are the merged, deduplicated rows below its pivot block of the
/// matrix pattern in its columns and of its children's update rows. The
/// first front's children end other tasks' ranges and are read from
/// `outside`; every later front's are the top of the run's stack of fronts
/// whose parent is still to come, in child order. The scratch is `mark`, `n`
/// entries stamped with supernode ids (which never repeat), and `rows`.
fn row_structures<'o, T: Scalar>(
    a: &SymCsc<T>,
    part: &SupernodePartition,
    forest: &SupernodeForest,
    range: Range<usize>,
    outside: impl Fn(usize) -> &'o [usize],
    (mark, rows): &mut (Vec<usize>, Vec<usize>),
) -> RowRuns {
    let mut out = RowRuns { rows: Vec::new(), ends: Vec::with_capacity(range.len()) };
    let mut stack: Vec<Range<usize>> = Vec::new();
    for (r, &s) in forest.postorder[range].iter().enumerate() {
        let (c0, c1) = (part.starts[s], part.starts[s + 1]);
        rows.clear();
        // Pattern of A in the supernode's columns, below the pivot block.
        for c in c0..c1 {
            for &i in a.col_rows(c) {
                if i >= c1 && mark[i] != s {
                    mark[i] = s;
                    rows.push(i);
                }
            }
        }
        // Children update rows (all ≥ c0 by the etree parent property).
        let kids = forest.children(s);
        let first = if r == 0 { stack.len() } else { stack.len() - kids.len() };
        for (j, &ch) in kids.iter().enumerate() {
            let child_rows = if r == 0 { outside(ch) } else { &out.rows[stack[first + j].clone()] };
            for &i in child_rows {
                debug_assert!(i >= c0);
                if i >= c1 && mark[i] != s {
                    mark[i] = s;
                    rows.push(i);
                }
            }
        }
        stack.truncate(first);
        rows.sort_unstable();
        stack.push(out.rows.len()..out.rows.len() + rows.len());
        out.rows.extend_from_slice(rows);
        out.ends.push(out.rows.len());
    }
    out
}

/// Put the pieces together: per-supernode records over the row structures
/// `runs` of the whole postorder and `colptr`, the permuted matrix's column
/// pointers, and the two stack bounds, from one pass over the postorder,
/// then the panel offsets.
fn build_factor(
    colptr: &[usize],
    part: &SupernodePartition,
    sn_parent: &[usize],
    forest: SupernodeForest,
    runs: RowRuns,
) -> SymbolicFactor {
    let mut supernodes: Vec<SupernodeInfo> = (0..part.len())
        .map(|s| SupernodeInfo {
            col_start: part.starts[s],
            col_end: part.starts[s + 1],
            parent: sn_parent[s],
            rows_start: 0,
            rows_end: 0,
            a_nnz: colptr[part.starts[s + 1]] - colptr[part.starts[s]],
        })
        .collect();
    // Place every front's rows and simulate both LIFO stacks: on visiting a
    // supernode all its children's blocks are live below its own update
    // block (factor) or subtrahend (solve), which moves down over them when
    // it retires.
    let SupernodeForest { child_ptr, child_idx, postorder } = forest;
    let (mut live, mut update_stack_peak) = (0usize, 0usize);
    let (mut live_rows, mut solve_stack_rows) = (0usize, 0usize);
    let mut start = 0;
    for (&s, &end) in postorder.iter().zip(&runs.ends) {
        (supernodes[s].rows_start, supernodes[s].rows_end) = (start, end);
        let m = end - start;
        start = end;
        update_stack_peak = update_stack_peak.max(live + m * m);
        solve_stack_rows = solve_stack_rows.max(live_rows + m);
        for &c in &child_idx[child_ptr[s]..child_ptr[s + 1]] {
            let cm = supernodes[c].m();
            live -= cm * cm;
            live_rows -= cm;
        }
        live += m * m;
        live_rows += m;
    }
    let mut panel_ptr = Vec::with_capacity(supernodes.len() + 1);
    panel_ptr.push(0);
    let mut off = 0usize;
    for info in &supernodes {
        off += info.front_size() * info.k();
        panel_ptr.push(off);
    }
    SymbolicFactor(Arc::new(SymbolicArrays {
        n: colptr.len() - 1,
        supernodes,
        postorder,
        col_to_sn: part.col_to_sn(),
        update_rows: runs.rows,
        child_ptr,
        child_idx,
        panel_ptr,
        update_stack_peak,
        solve_stack_rows,
    }))
}

/// Compute the supernodal symbolic factorization given a partition, on the
/// calling thread ([`symbolic_factor_parallel`] at one worker).
pub fn symbolic_factor<T: Scalar>(
    a: &SymCsc<T>,
    etree: &EliminationTree,
    part: &SupernodePartition,
) -> SymbolicFactor {
    symbolic_factor_parallel(a, etree, part, 1)
}

/// The range tasks of the parallel row-structure build: the maximal subtrees
/// of at most ⌈nsn / (4·workers)⌉ supernodes — four tasks per worker, the
/// rule of nested dissection — then one task per supernode above them.
pub(crate) fn row_tasks(postorder: &[usize], sn_parent: &[usize], workers: usize) -> RangeTasks {
    let cap = postorder.len().div_ceil(4 * workers);
    let parent = |s: usize| sn_parent[s];
    RangeTasks::new(postorder, parent, maximal_subtrees(postorder, parent, |_, size| size <= cap))
}

/// Supernodal symbolic factorization on `workers` threads of the mf-runtime
/// pool, bitwise identical at every worker count.
///
/// One body computes the row structures of a run of the postorder. At
/// `workers ≤ 1` it runs once, over the whole postorder ([`symbolic_factor`]).
/// Otherwise a front's row structure depends only on the matrix pattern and
/// its children's structures, so the body runs on range tasks over the
/// supernodal forest ([`RangeTasks`]). Each task leaves its rows in its own
/// slot; a child outside a task's range ends its own task's range, which the
/// task graph finished first, so it is read from that task's slot. A final
/// pass concatenates the slots in postorder, the layout of the serial build.
pub fn symbolic_factor_parallel<T: Scalar>(
    a: &SymCsc<T>,
    etree: &EliminationTree,
    part: &SupernodePartition,
    workers: usize,
) -> SymbolicFactor {
    let sn_parent = part.supernode_etree(etree);
    let forest = supernode_forest(&sn_parent);
    let scratch = || (vec![NONE; a.order()], Vec::new());
    if workers <= 1 {
        let whole = |_| unreachable!("the whole postorder has no child outside it");
        // Held until `build_factor` has allocated: freed before it, the
        // scratch cost a cold solve of the 400² plate ≈ 4 000 more page
        // faults per analysis under glibc's allocator.
        let mut held = scratch();
        let runs = row_structures(a, part, &forest, 0..part.len(), whole, &mut held);
        return build_factor(a.colptr(), part, &sn_parent, forest, runs);
    }
    let tasks = row_tasks(&forest.postorder, &sn_parent, workers);
    let slots: Vec<OnceLock<RowRuns>> = tasks.ranges().iter().map(|_| OnceLock::new()).collect();
    let rt = Runtime::new(workers.min(tasks.ranges().len()));
    let graph = TaskGraph::from_parents(tasks.parents());
    let states = (0..rt.workers()).map(|_| scratch()).collect();
    let (_, errs) = rt.run(&graph, states, |worker, t| -> Result<(), ()> {
        let outside = |c: usize| {
            slots[tasks.task_of()[c]].get().expect("a child's task finished first").last()
        };
        let range = tasks.ranges()[t].clone();
        let _ = slots[t].set(row_structures(a, part, &forest, range, outside, worker));
        Ok(())
    });
    debug_assert!(errs.is_empty(), "symbolic tasks are infallible");

    // Each range ends at the supernode `task_of` names (elsewhere `NONE`, no
    // slot), so the postorder meets the tasks in the order of their ranges.
    let total = slots.iter().flat_map(OnceLock::get).map(|runs| runs.rows.len()).sum();
    let mut runs =
        RowRuns { rows: Vec::with_capacity(total), ends: Vec::with_capacity(part.len()) };
    for slot in forest.postorder.iter().flat_map(|&s| slots.get(tasks.task_of()[s])) {
        let task = slot.get().expect("every task ran");
        let base = runs.rows.len();
        runs.ends.extend(task.ends.iter().map(|&e| base + e));
        runs.rows.extend_from_slice(&task.rows);
    }
    build_factor(a.colptr(), part, &sn_parent, forest, runs)
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
/// supernodes, relaxed amalgamation, symbolic factorization — on the calling
/// thread ([`analyze_parallel`] at one worker).
pub fn analyze(
    a: &SymCsc<f64>,
    ordering: OrderingKind,
    amalg: Option<&AmalgamationOptions>,
) -> Result<Analysis, AnalyzeError> {
    analyze_parallel(a, ordering, amalg, 1)
}

/// The analysis pipeline on `workers` threads of the mf-runtime pool,
/// bitwise identical at every worker count.
///
/// Two stages run each task of theirs through their serial body: nested
/// dissection over disjoint parts
/// ([`crate::ordering::nested_dissection_parallel`]) and row structures over
/// range tasks of the supernodal forest ([`symbolic_factor_parallel`]). Each
/// merges its partial results in a schedule-independent order, so the
/// returned [`Analysis`] — and its [`Analysis::fingerprint`] — is the same
/// byte for byte at every worker count. The other stages, column counts
/// among them ([`column_counts`], near-linear), run on the calling thread.
/// At `workers ≤ 1` every stage runs its serial body once, on the calling
/// thread: this is [`analyze`].
///
/// The ordering comes out of [`crate::ordering::order_parallel`]
/// postordered, together with the elimination tree it computed to do so,
/// relabelled: that is the permuted matrix's tree, so no second pass builds
/// it. Replaying the stages one call at a time — `order`, `permute_sym`,
/// [`crate::etree::elimination_tree`], … — gives the same [`Analysis`].
pub fn analyze_parallel(
    a: &SymCsc<f64>,
    ordering: OrderingKind,
    amalg: Option<&AmalgamationOptions>,
    workers: usize,
) -> Result<Analysis, AnalyzeError> {
    check_diagonal(a)?;
    let (perm, et) = order_with_etree(a, ordering, workers);
    let pa = perm.permute_sym(a);
    let cc = column_counts(&pa, &et);
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
    use crate::etree::elimination_tree;

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
        let max_update = sym.supernodes.iter().map(|s| s.m() * s.m()).max().unwrap();
        assert!(peak >= max_update);
        // Crude upper bound: every update block live at once.
        let total: usize = sym.supernodes.iter().map(|s| s.m() * s.m()).sum();
        assert!(peak <= total);
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
            // Every subtree bound covers at least its own update block, and
            // a child's subtree never needs more than its parent's.
            for (s, info) in sym.supernodes.iter().enumerate() {
                assert!(peaks[s] >= info.m() * info.m());
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
    fn row_structure_tasks_match_serial_on_fixed_forests() {
        // 80 decoupled 4 × 3 grids: a forest with a root per block.
        let mut t = Triplet::new(80 * 12);
        let block = grid2d(4, 3);
        for b in 0..80 {
            for j in 0..12 {
                for (&i, &v) in block.col_rows(j).iter().zip(block.col_vals(j)) {
                    t.push(12 * b + i, 12 * b + j, v);
                }
            }
        }
        // A tridiagonal chain in natural order, and a 1 × 1 matrix.
        for a in [t.assemble(), tridiag(300), tridiag(1)] {
            let et = elimination_tree(&a);
            let cc = column_counts(&a, &et);
            let fund = fundamental_supernodes(&et, &cc);
            let amalg = amalgamate(&fund, &et, &cc, &AmalgamationOptions::default());
            for part in [fund, amalg] {
                let serial = symbolic_factor(&a, &et, &part);
                let roots = serial.supernodes.iter().filter(|s| s.parent == NONE).count();
                assert!(roots == 1 || roots >= 64, "{roots} roots");
                for workers in [1, 2, 4, 8] {
                    let par = symbolic_factor_parallel(&a, &et, &part, workers);
                    assert_eq!(par, serial, "n = {}, workers = {workers}", a.order());
                }
            }
        }
    }

    /// `nx × ny × nz` nodes, `dofs` unknowns each, every unknown coupled to
    /// every unknown of its node and its 26 neighbours: a 27-point Laplacian
    /// at one unknown a node, an elasticity pattern at three.
    fn grid3d(nx: usize, ny: usize, nz: usize, dofs: usize) -> SymCsc<f64> {
        let node = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
        let mut t = Triplet::new(nx * ny * nz * dofs);
        for (x, y, z) in
            (0..nz).flat_map(|z| (0..ny).flat_map(move |y| (0..nx).map(move |x| (x, y, z))))
        {
            let near = |c: usize, n: usize| c.saturating_sub(1)..(c + 2).min(n);
            for (u, v, w) in near(z, nz)
                .flat_map(|w| near(y, ny).flat_map(move |v| near(x, nx).map(move |u| (u, v, w))))
            {
                for (i, j) in (0..dofs).flat_map(|i| (0..dofs).map(move |j| (i, j))) {
                    let (r, c) = (node(u, v, w) * dofs + i, node(x, y, z) * dofs + j);
                    if r >= c {
                        t.push(r, c, 1.0);
                    }
                }
            }
        }
        t.assemble()
    }

    /// Every supernode's recorded `a_nnz` is the entry count of the permuted
    /// matrix in its columns, for the serial build and at 2 and 4 workers,
    /// with and without amalgamation.
    fn a_nnz_matches_pattern(a: &SymCsc<f64>) {
        let amalg = AmalgamationOptions::default();
        for (amalg, workers) in
            [None, Some(&amalg)].into_iter().flat_map(|m| [1, 2, 4].map(|w| (m, w)))
        {
            let an = analyze_parallel(a, OrderingKind::NestedDissection, amalg, workers).unwrap();
            let pa = &an.permuted.0;
            for (sn, info) in an.symbolic.supernodes.iter().enumerate() {
                let entries: usize =
                    (info.col_start..info.col_end).map(|c| pa.col_rows(c).len()).sum();
                assert_eq!(
                    info.a_nnz(),
                    entries,
                    "n = {} supernode {sn} workers={workers}",
                    a.order()
                );
            }
            let total: usize = an.symbolic.supernodes.iter().map(SupernodeInfo::a_nnz).sum();
            assert_eq!(total, pa.nnz_lower(), "n = {} workers={workers}", a.order());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random lower patterns with every diagonal present: up to `per_col`
        /// entries per column, each within `reach` rows of the diagonal.
        fn random_patterns_a_nnz(
            n in 1usize..120,
            per_col in 0usize..6,
            reach in 1usize..60,
            seed in 0u64..10_000,
        ) {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut rand = |m: usize| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % m as u64) as usize
            };
            let mut t = Triplet::new(n);
            for j in 0..n {
                t.push(j, j, 1.0);
                for _ in 0..rand(per_col + 1) {
                    let i = j + 1 + rand(reach);
                    if i < n {
                        t.push(i, j, 1.0);
                    }
                }
            }
            a_nnz_matches_pattern(&t.assemble());
        }
    }

    #[test]
    fn a_nnz_counts_the_permuted_entries_of_each_supernode() {
        for a in [grid2d(13, 11), grid3d(6, 5, 4, 1), grid3d(4, 3, 3, 3), tridiag(1)] {
            a_nnz_matches_pattern(&a);
        }
        let empty = Triplet::<f64>::new(0).assemble();
        a_nnz_matches_pattern(&empty);
        random_patterns_a_nnz();
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
