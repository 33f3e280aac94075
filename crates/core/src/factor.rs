//! The supernodal multifrontal factorization driver.
//!
//! Performs the postorder traversal of the supernodal elimination tree,
//! assembling each frontal matrix (extend-add), executing its factor-update
//! under the policy chosen by the active [`PolicySelector`], and harvesting
//! the factor panels and per-call timing records.
//!
//! The numeric phase runs out of preallocated storage: one contiguous
//! factor slab laid out by `SymbolicFactor::panel_ptr`, plus a postorder
//! LIFO working-storage stack ([`FrontArena`]) sized by
//! `SymbolicFactor::update_stack_peak` — two allocations for the whole
//! factorization, no matter how many supernodes run.
//!
//! A front's lifecycle — dispatch, downloads, extraction, finish — belongs to
//! `crate::lane`. This module holds two of its issuers: the arena loop
//! (`FrontRun::factor_range`: the drain schedule, one front at a time on the
//! LIFO stack, which every work-stealing task of [`crate::parallel`] runs on
//! the worker's own arena) and the postorder issuer for fronts whose
//! lifetimes overlap (`PostorderRun`: look-ahead, batched P4 runs), with the
//! rehearsal that decides between the two.

use crate::arena::FrontArena;
use crate::features::LinearPolicyModel;
use crate::frontal::{assemble_front_into, extract_panel_copy, packed_update, ChildUpdate, Front};
use crate::fu::{FuContext, FuError};
use crate::lane::{child_views, FrontRan, FrontStore, Lane, Member, Phase1, PIPELINE_DEPTH};
use crate::multigpu::MultiGpuOptions;
use crate::ooc::{plan_ooc, OocPlan};
use crate::pinned_pool::PinnedPool;
use crate::policy::{BaselineThresholds, PolicyKind};
use crate::stats::{FactorStats, FuRecord};
use mf_dense::{FuFlops, Scalar};
use mf_gpusim::{Machine, TierParams};
use mf_sparse::symbolic::SymbolicFactor;
use mf_sparse::{AnalyzeError, Permutation, SymCsc};

/// How the policy for each factor-update call is chosen.
#[derive(Debug, Clone)]
pub enum PolicySelector {
    /// Always the same policy (the paper's per-policy columns in Table VII).
    Fixed(PolicyKind),
    /// Op-count thresholds (the baseline hybrid `P_BH`, §V-B1).
    Baseline(BaselineThresholds),
    /// The trained linear classifier (the model hybrid `P_MH`, §VI).
    Model(LinearPolicyModel),
    /// A per-supernode oracle (the ideal hybrid `P_IH` — built from
    /// retrospective per-policy timings).
    Oracle(Vec<PolicyKind>),
}

impl PolicySelector {
    /// Choose a policy for supernode `sn` with front dims `(m, k)`.
    pub fn choose(&self, sn: usize, m: usize, k: usize) -> PolicyKind {
        match self {
            PolicySelector::Fixed(p) => *p,
            PolicySelector::Baseline(b) => b.choose(FuFlops::new(m, k).total()),
            PolicySelector::Model(model) => model.predict(m, k),
            PolicySelector::Oracle(table) => table[sn],
        }
    }
}

/// Pipelined GPU dispatch (DESIGN.md §4.9): the lifecycle every run issues
/// its fronts into, with more than one front in flight — look-ahead staging
/// of the next GPU-bound front while the current one computes, event-gated
/// consumption of child updates, and batched dispatch of runs of small
/// fronts. Depth and batch limits are fixed (see `crate::lane` and the
/// postorder issuer in this module). Off, the same lifecycle finishes each
/// front before the next assembles: the drain schedule.
///
/// A pipelined run produces factor slabs **bitwise identical** to the drain
/// schedule's — only the simulated timeline (and therefore makespan and GPU
/// utilization) changes. It does not collect per-call [`FuRecord`]s: with
/// fronts overlapping on the device, per-front time attribution is
/// ill-defined, so `record_stats` yields records only from a run that ends up
/// on the drain schedule. Front storage is per-front heap buffers: front
/// lifetimes overlap, which the postorder LIFO arena cannot express. The
/// parallel entry hands a pipelined run to [`factor_permuted`] on its first
/// GPU machine: fronts in flight share one host timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineOptions {
    /// Keep fronts in flight. A CPU-only machine runs the drain schedule
    /// regardless, and so does a matrix on which the exact rehearsal
    /// predicts the pipeline to lose.
    pub enabled: bool,
}

impl PipelineOptions {
    /// Pipelining on.
    pub fn pipelined() -> Self {
        PipelineOptions { enabled: true }
    }
}

/// Options controlling a numeric factorization run.
#[derive(Debug, Clone)]
pub struct FactorOptions {
    /// Policy selection scheme.
    pub selector: PolicySelector,
    /// Use the copy-optimized P4 transfer plan (§VI-C).
    pub copy_optimized: bool,
    /// Collect per-call [`FuRecord`]s (adds no simulated time).
    pub record_stats: bool,
    /// Use the growth-only pinned-buffer reuse policy (§V-A2); disable for
    /// the allocation-cost ablation.
    pub pinned_reuse: bool,
    /// Pipelined GPU dispatch (see [`PipelineOptions`]).
    pub pipeline: PipelineOptions,
    /// Multi-device execution (see [`MultiGpuOptions`]). With `count > 1`
    /// on a GPU machine and pipelining enabled, the factorization routes
    /// to the multi-GPU driver of [`crate::multigpu`]: one host timeline
    /// feeding every device. The parallel entry hands such a run to
    /// [`factor_permuted`] on its first GPU machine.
    pub devices: MultiGpuOptions,
    /// Out-of-core residency budget in bytes for the factor slab plus the
    /// front arena (see `mf-core::ooc`, DESIGN.md §4.14). `None` runs
    /// fully in core. With a budget set, the drivers replay the
    /// deterministic spill schedule of [`crate::ooc::plan_ooc`]: transfers
    /// are charged on the executing clock, `FactorStats::ooc` reports the
    /// traffic, and pipelined/multi-GPU dispatch falls back to the drain
    /// schedule (whose front lifetimes the residency plan models exactly).
    /// Budgets below [`crate::ooc::min_feasible_budget`] fail with
    /// [`FactorError::BudgetTooSmall`].
    pub memory_budget: Option<usize>,
    /// Storage precision of spilled blocks (see
    /// [`crate::ooc::PrecisionLadder`]); only meaningful with a budget.
    /// Off by default — budgeted runs are then bitwise identical to
    /// in-core runs.
    pub ladder: crate::ooc::PrecisionLadder,
}

impl Default for FactorOptions {
    fn default() -> Self {
        FactorOptions {
            selector: PolicySelector::Fixed(PolicyKind::P1),
            copy_optimized: false,
            record_stats: false,
            pinned_reuse: true,
            pipeline: PipelineOptions::default(),
            devices: MultiGpuOptions::default(),
            memory_budget: None,
            ladder: crate::ooc::PrecisionLadder::default(),
        }
    }
}

impl FactorOptions {
    /// Options for a memory-budgeted (out-of-core) run: residency of the
    /// factor slab + front arena capped at `bytes`, everything else
    /// default. The quickstart constructor of DESIGN.md §4.14.
    pub fn memory_budget(bytes: usize) -> Self {
        FactorOptions { memory_budget: Some(bytes), ..Default::default() }
    }
}

/// Numeric factorization failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactorError {
    /// Non-positive pivot at this column of the *permuted* matrix.
    NotPositiveDefinite {
        /// Global (permuted) column index.
        column: usize,
    },
    /// A parallel worker died (panicked) before handing off the update
    /// matrix this supernode depends on. The factorization cannot continue,
    /// but the failure is reported structurally instead of poisoning the
    /// whole process.
    WorkerLost {
        /// Supernode whose child hand-off was missing.
        supernode: usize,
    },
    /// The symbolic analysis rejected the matrix before any numbers moved.
    Analyze(AnalyzeError),
    /// The out-of-core memory budget is below the minimum feasible
    /// working set ([`crate::ooc::min_feasible_budget`]): some supernode's
    /// pinned set — child updates + front + panel — cannot fit even with
    /// everything else spilled.
    BudgetTooSmall {
        /// The requested budget in bytes.
        budget: usize,
        /// The smallest feasible budget in bytes.
        required: usize,
    },
}

impl std::fmt::Display for FactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorError::NotPositiveDefinite { column } => {
                write!(
                    f,
                    "matrix is not positive definite (pivot failure at permuted column {column})"
                )
            }
            FactorError::WorkerLost { supernode } => {
                write!(
                    f,
                    "parallel worker lost before supernode {supernode} received its child updates"
                )
            }
            FactorError::Analyze(e) => write!(f, "analysis failed: {e}"),
            FactorError::BudgetTooSmall { budget, required } => write!(
                f,
                "memory budget of {budget} bytes is below the minimum feasible \
                 out-of-core working set of {required} bytes"
            ),
        }
    }
}

impl std::error::Error for FactorError {}

impl From<AnalyzeError> for FactorError {
    fn from(e: AnalyzeError) -> Self {
        FactorError::Analyze(e)
    }
}

impl From<crate::ooc::OocError> for FactorError {
    fn from(e: crate::ooc::OocError) -> Self {
        match e {
            crate::ooc::OocError::BudgetTooSmall { budget, required } => {
                FactorError::BudgetTooSmall { budget, required }
            }
        }
    }
}

/// The Cholesky factor in supernodal panel form: `P·A·Pᵀ = L·Lᵀ`.
///
/// All panels live in **one contiguous slab** — panel `sn` is the
/// `slab[panel_ptr[sn]..panel_ptr[sn + 1]]` region of
/// `symbolic.panel_ptr()` (`front_size × k` column-major with leading
/// dimension `front_size`; rows are the supernode's pivot columns followed
/// by `symbolic.update_rows(sn)`), in ascending supernode order. The solve
/// sweeps read panels as slices of this slab; no per-supernode `Vec`s.
#[derive(Debug, Clone)]
pub struct CholeskyFactor<T> {
    /// Symbolic structure, shared with the analysis it came from.
    pub symbolic: SymbolicFactor,
    /// The fill-reducing permutation used (`perm[new] = old`).
    pub perm: Permutation,
    /// Contiguous factor storage holding every supernode's panel.
    pub slab: Vec<T>,
}

impl<T: Scalar> CholeskyFactor<T> {
    /// Matrix order.
    pub fn order(&self) -> usize {
        self.symbolic.n
    }

    /// The `front_size × k` factor panel of supernode `sn`, as a slice of
    /// the contiguous slab.
    pub fn panel(&self, sn: usize) -> &[T] {
        let ptr = self.symbolic.panel_ptr();
        &self.slab[ptr[sn]..ptr[sn + 1]]
    }

    /// Entry `L[i, j]` of the factor (permuted indices; zero if outside the
    /// structure). Test/inspection helper — solves use the panels directly.
    pub fn l_entry(&self, i: usize, j: usize) -> T {
        if i < j {
            return T::ZERO;
        }
        let sn = self.symbolic.col_to_sn[j];
        let info = &self.symbolic.supernodes[sn];
        let s = info.front_size();
        let lc = j - info.col_start;
        let lr = if i < info.col_end {
            i - info.col_start
        } else {
            match self.symbolic.update_rows(sn).binary_search(&i) {
                Ok(pos) => info.k() + pos,
                Err(_) => return T::ZERO,
            }
        };
        self.panel(sn)[lr + lc * s]
    }
}

/// Raw-pointer view of a block whose disjoint parts concurrent tasks write:
/// the factor slab (each front's task writes its supernode's panel), the
/// permuted right-hand sides of a solve sweep (each front writes the rows of
/// its own columns) and the sweep's hand-off block (each task its own
/// slice).
///
/// Raw pointers are used because handing overlapping `&mut` slices to
/// concurrent tasks would be aliasing UB even with disjoint index sets.
/// Every access is sound for the same reason: the part is written by exactly
/// one task, and anything that reads it is ordered after that task — by the
/// release/acquire dependency counters of the task graph, or by the driver
/// being done with the view.
pub(crate) struct SharedSlice<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: the view hands out disjoint parts only (see the accessors).
unsafe impl<T: Send> Send for SharedSlice<T> {}
unsafe impl<T: Send> Sync for SharedSlice<T> {}

impl<T: Copy> SharedSlice<T> {
    pub(crate) fn new(block: &mut [T]) -> Self {
        SharedSlice { ptr: block.as_mut_ptr(), len: block.len() }
    }

    #[inline]
    pub(crate) fn read(&self, idx: usize) -> T {
        debug_assert!(idx < self.len);
        // SAFETY: in bounds; disjointness/ordering per the type-level note.
        unsafe { *self.ptr.add(idx) }
    }

    #[inline]
    pub(crate) fn write(&self, idx: usize, v: T) {
        debug_assert!(idx < self.len);
        // SAFETY: in bounds; disjointness/ordering per the type-level note.
        unsafe { *self.ptr.add(idx) = v }
    }

    /// `off..off + len` as a slice.
    ///
    /// # Safety
    /// No task may write the range while the slice lives.
    pub(crate) unsafe fn slice(&self, off: usize, len: usize) -> &[T] {
        debug_assert!(off + len <= self.len);
        // SAFETY: in bounds; no concurrent writer per the caller.
        unsafe { std::slice::from_raw_parts(self.ptr.add(off), len) }
    }

    /// `off..off + len` as a mutable slice.
    ///
    /// # Safety
    /// The range must be the calling task's alone while the slice lives —
    /// for the slab, every driver runs each supernode exactly once and panel
    /// ranges (a prefix sum) never overlap.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn slice_mut(&self, off: usize, len: usize) -> &mut [T] {
        debug_assert!(off + len <= self.len);
        // SAFETY: in bounds; exclusivity is the caller's obligation.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(off), len) }
    }
}

/// Bookkeeping one front leaves behind once [`Lane::run_front`] has run it
/// (the panel went into the factor slab; the update stays in the issuer's
/// front storage).
pub(crate) struct SnOutcome {
    /// Per-call timing record, when `opts.record_stats` is set.
    pub record: Option<FuRecord>,
    /// Whether a device OOM forced a P1 fallback.
    pub oom_fallback: bool,
}

impl SnOutcome {
    /// Close front `sn`'s books right after the lane ran it. With `record`,
    /// everything `machine` has queued since the front began — its assembly,
    /// its factor-update, its extraction — goes into its record.
    pub(crate) fn close(
        sn: usize,
        symbolic: &SymbolicFactor,
        ran: FrontRan,
        machine: &mut Machine,
        record: bool,
    ) -> Self {
        let info = &symbolic.supernodes[sn];
        let record = record.then(|| {
            let mut rec = FuRecord {
                sn,
                m: info.m(),
                k: info.k(),
                policy: ran.outcome.executed,
                total: ran.total,
                t_potrf: 0.0,
                t_trsm: 0.0,
                t_syrk: 0.0,
                t_copy: 0.0,
                t_assemble: 0.0,
            };
            rec.absorb(&machine.take_records());
            rec
        });
        SnOutcome { record, oom_fallback: ran.outcome.oom_fallback }
    }
}

/// The driver a run takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// One front at a time, the device drained after each.
    Drain,
    /// The lifecycle of [`crate::lane`] against one device.
    Pipelined,
    /// One lane per device of [`crate::multigpu`], fed from one host.
    MultiGpu,
}

/// The route of a run under `opts` on machines of which some (`gpu`) or none
/// carry a device — decided here for the serial and the parallel entry alike
/// (which runs only the drain schedule itself).
/// A memory budget forces the drain schedule: the pipelined and multi-GPU
/// drivers overlap front lifetimes in ways the LIFO residency plan does not
/// model, and drain keeps budgeted numerics identical at every driver and
/// worker count.
pub(crate) fn route(opts: &FactorOptions, gpu: bool) -> Route {
    if opts.memory_budget.is_some() || !opts.pipeline.enabled || !gpu {
        Route::Drain
    } else if opts.devices.count > 1 {
        Route::MultiGpu
    } else {
        Route::Pipelined
    }
}

/// Factor an already-permuted matrix on the given machine.
///
/// `a` must be the permuted matrix `P·A·Pᵀ` whose structure `symbolic`
/// describes. Use [`crate::solver::SpdSolver`] for the one-call user API.
pub fn factor_permuted<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
    machine: &mut Machine,
    opts: &FactorOptions,
) -> Result<(CholeskyFactor<T>, FactorStats), FactorError> {
    match route(opts, machine.gpu.is_some()) {
        // The machine's device drives lane 0 of `opts.devices.count`
        // identical devices, all fed from this machine's host timeline.
        Route::MultiGpu => {
            return crate::multigpu::factor_permuted_multigpu(a, symbolic, perm, machine, opts);
        }
        // Cost-model gate: rehearse both schedules on a virtual twin and
        // pipeline only when that is predicted to win. Either way the factor
        // is bitwise the same, so this is purely a makespan decision — and
        // not a heuristic one: a rehearsal replays every simulated charge of
        // the run it stands for, so the prediction is exact. Matrices whose
        // front mix loses more to pinned-pool growth and look-ahead chaining
        // than overlap buys back (narrow-treed P2-heavy suites) run the drain
        // schedule below and report speedup 1.0 instead of a regression.
        Route::Pipelined => {
            let t_pipe = rehearse_makespan(a, symbolic, opts, machine, true);
            let t_drain = rehearse_makespan(a, symbolic, opts, machine, false);
            if t_pipe < t_drain {
                return factor_permuted_pipelined(a, symbolic, perm, machine, opts);
            }
        }
        Route::Drain => {}
    }
    let ooc_plan = ooc_plan::<T>(symbolic, opts)?;
    let mut pool = pinned_pool(opts);
    let mut slab = vec![T::ZERO; symbolic.factor_slab_len()];
    let mut rel: Vec<usize> = Vec::new();
    machine.set_recording(opts.record_stats);
    let wall0 = std::time::Instant::now();

    // Whole-run working storage: the factor slab plus one arena sized by the
    // symbolic stack-peak bound — the numeric phase's only front-storage
    // allocations.
    let mut stats = FactorStats { front_alloc_events: 2, ..Default::default() };
    let mut arena = FrontArena::<T>::with_len(symbolic.update_stack_peak());
    let run = FrontRun { a, symbolic, opts, ooc_plan: ooc_plan.as_ref() };
    // The postorder ends at a root, so no update leaves the run.
    let ran = run.factor_range(
        0..symbolic.num_supernodes(),
        &[],
        &mut arena,
        &SharedSlice::new(&mut slab),
        &mut rel,
        machine,
        &mut pool,
        None,
        |_, out| {
            stats.oom_fallbacks += usize::from(out.oom_fallback);
            stats.records.extend(out.record);
        },
    );
    stop_recording(machine);
    ran?;

    stats.peak_front_bytes = arena.high_water() * T::BYTES;
    if let Some(plan) = ooc_plan {
        // The arena's tier-resident high water must mirror the plan; the
        // logical high water above stays the symbolic bound regardless of
        // the budget.
        debug_assert_eq!(arena.resident_high_water_bytes(), plan.stats.arena_resident_peak_bytes);
        stats.ooc = Some(plan.stats);
    }
    stats.total_time = machine.elapsed();
    stats.gpu = machine.gpu.as_ref().map(|g| g.utilization(stats.total_time));
    stats.wall_time = wall0.elapsed().as_secs_f64();
    Ok((CholeskyFactor { symbolic: symbolic.clone(), perm: perm.clone(), slab }, stats))
}

/// The deterministic out-of-core schedule of a budgeted run (`None` in core),
/// pinned before any numbers move; an infeasible budget fails typed here.
pub(crate) fn ooc_plan<T: Scalar>(
    symbolic: &SymbolicFactor,
    opts: &FactorOptions,
) -> Result<Option<OocPlan>, FactorError> {
    let plan = |budget| plan_ooc(symbolic, T::BYTES, budget, opts.ladder, &TierParams::default());
    Ok(opts.memory_budget.map(plan).transpose()?)
}

/// The end of a run on `machine`, error or not: it goes back not
/// recording and with nothing queued. What a front whose pivot failed had
/// recorded since its assembly would otherwise be booked into the next
/// recorded run's first front.
pub(crate) fn stop_recording(machine: &mut Machine) {
    machine.set_recording(false);
    let _ = machine.take_records();
}

/// What the arena factorization of a postorder range reads: the matrix, the
/// shared structure, the options and (budgeted runs) the out-of-core plan.
pub(crate) struct FrontRun<'a, T> {
    pub a: &'a SymCsc<T>,
    pub symbolic: &'a SymbolicFactor,
    pub opts: &'a FactorOptions,
    pub ooc_plan: Option<&'a OocPlan>,
}

impl<T: Scalar> FrontRun<'_, T> {
    /// Factor the supernodes at postorder positions `range` — a run whose
    /// first front has no child inside it: the whole postorder, a bottom
    /// subtree, or one supernode — front to back on `arena`, which holds
    /// nothing of theirs before. The first front extend-adds `handed`, its
    /// children's updates in child order; the last front's update leaves
    /// packed as the return value (`None` when `m = 0`, as at a root).
    ///
    /// The stack discipline needs no bookkeeping per supernode: when a later
    /// front is assembled its children's updates are the top of the stack
    /// in child order, the first child deepest, so their offsets follow
    /// from their sizes, and packing the front's own update down to the
    /// first child's offset frees front and children in one move.
    ///
    /// The serial driver runs the whole postorder through here; every
    /// work-stealing task of [`crate::parallel`] runs its range here on the
    /// worker's own arena. Each front goes through [`Lane::run_front`], so
    /// every simulated-time charge is issued per front, in postorder.
    /// `on_front(position, outcome)` collects the statistics.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn factor_range(
        &self,
        range: std::ops::Range<usize>,
        handed: &[Vec<T>],
        arena: &mut FrontArena<T>,
        slab: &SharedSlice<T>,
        rel: &mut Vec<usize>,
        machine: &mut Machine,
        pool: &mut PinnedPool,
        kernel_threads: Option<usize>,
        mut on_front: impl FnMut(usize, SnOutcome),
    ) -> Result<Option<Vec<T>>, FactorError> {
        let (symbolic, opts) = (self.symbolic, self.opts);
        let panel_ptr = symbolic.panel_ptr();
        let mut lane = Lane::new();
        let mut out = None;
        for r in range.clone() {
            let sn = symbolic.postorder[r];
            if let Some(plan) = self.ooc_plan {
                plan.begin_front(r, machine);
            }
            let info = &symbolic.supernodes[sn];
            let (s, k) = (info.front_size(), info.k());
            let kids = symbolic.children(sn);
            // The first front's children are outside the range, their
            // updates handed over; every later front's are on the stack.
            let (from_hand, on_stack) =
                if r == range.start { (handed, &[][..]) } else { (&[][..], kids) };
            debug_assert!(r != range.start || handed.len() == kids.len());
            let front_off = arena.top();
            let kids_len: usize = on_stack.iter().map(|&c| symbolic.supernodes[c].m().pow(2)).sum();
            let dest = front_off - kids_len;
            let (below, front_data) = arena.split_for_front(s * s);
            let mut next = dest;
            let stacked = on_stack.iter().map(|&c| {
                let rows = symbolic.update_rows(c);
                let data = &below[next..next + rows.len() * rows.len()];
                next += data.len();
                ChildUpdate { rows, data }
            });
            let children = child_views(symbolic, sn, from_hand).chain(stacked);
            let mut front = assemble_front_into(
                self.a,
                info.col_start..info.col_end,
                symbolic.update_rows(sn),
                children,
                front_data,
                rel,
                &mut machine.host,
            );
            // SAFETY: this supernode's panel region is written here alone.
            let panel_out =
                unsafe { slab.slice_mut(panel_ptr[sn], panel_ptr[sn + 1] - panel_ptr[sn]) };
            // The panel goes to the slab; the update stays in the arena unless
            // it is the range's last, which leaves packed.
            let mut sink = |_: usize, front: &Front<'_, T>| extract_panel_copy(front, panel_out);
            let policy = opts.selector.choose(sn, s - k, k);
            let mut ctx = fu_ctx(machine, pool, opts, kernel_threads, false);
            let ran = lane
                .run_front(sn, &mut front, policy, &mut ctx, &mut sink)
                .map_err(|e| fu_err_to_factor(info.col_start, e))?;
            on_front(r, SnOutcome::close(sn, symbolic, ran, machine, opts.record_stats));
            if r + 1 < range.end {
                arena.pop_and_compact(front_off, s, k, dest);
            } else {
                out = packed_update(front.data, s, k);
            }
            if let Some(plan) = self.ooc_plan {
                let update = match out.as_deref_mut() {
                    Some(u) => u,
                    None => arena.update_at_mut(dest, s - k),
                };
                plan.finish_front(sn, panel_out, update);
                arena.note_resident_bytes(plan.arena_step_resident[r]);
            }
        }
        Ok(out)
    }
}

// ----- postorder issuer of the pipelined lifecycle ---------------------------

/// Build the F-U context of one call: the run's options plus what varies per
/// call — the dense-engine thread width the tree runtime granted, and
/// timing-only mode (the rehearsal behind the pipelined-vs-drain cost model
/// runs the full F-U schedule with every numeric touch suppressed).
pub(crate) fn fu_ctx<'a>(
    machine: &'a mut Machine,
    pool: &'a mut PinnedPool,
    opts: &FactorOptions,
    kernel_threads: Option<usize>,
    timing_only: bool,
) -> FuContext<'a> {
    FuContext {
        host: &mut machine.host,
        gpu: machine.gpu.as_mut(),
        pool,
        copy_optimized: opts.copy_optimized,
        timing_only,
        kernel_threads,
    }
}

/// The run's pinned staging pool under `opts`.
pub(crate) fn pinned_pool(opts: &FactorOptions) -> PinnedPool {
    if opts.pinned_reuse {
        PinnedPool::new(2)
    } else {
        PinnedPool::without_reuse(2)
    }
}

/// Lift a front-local pivot failure to the permuted global column.
pub(crate) fn fu_err_to_factor(col_start: usize, e: FuError) -> FactorError {
    match e {
        FuError::NotPositiveDefinite { local_column } => {
            FactorError::NotPositiveDefinite { column: col_start + local_column }
        }
    }
}

/// Largest front order `s` that joins a batched dispatch: a batch pays one
/// launch and one PCIe latency for the whole run, which matters only while
/// those rival a member's own transfer and kernel time. On the matrices
/// named at [`PIPELINE_DEPTH`] under fixed P4, 64 costs 0.2–2.2 % of the
/// makespan and 256 gains 0.04–0.9 %; 128 stays because every recorded
/// makespan is pinned to it.
const BATCH_MAX_FRONT: usize = 128;

/// Most fronts in one batched dispatch. The batch is one device allocation
/// and one staging slot, flushed and finished as one entry, so none of it
/// reaches a parent before all of it has downloaded. Batching itself is
/// worth 3–8 % of the fixed-P4 makespan on those matrices (against one
/// member per dispatch); 4, 8 and 16 members agree within 0.1 %.
const BATCH_MAX_FRONTS: usize = 8;

/// One single-device run of the lifecycle of [`crate::lane`] in postorder.
/// With `look_ahead` it is the pipelined schedule: each dispatched front
/// stays staged until the next one has dispatched, [`PIPELINE_DEPTH`] fronts
/// stay in flight, and runs of small P4 fronts share one dispatch. Without,
/// every front is flushed and finished before the next assembles — the drain
/// schedule, charge for charge.
struct PostorderRun<'a, T> {
    a: &'a SymCsc<T>,
    symbolic: &'a SymbolicFactor,
    opts: &'a FactorOptions,
    look_ahead: bool,
    store: FrontStore<'a, T>,
    lane: Lane<T>,
    oom_fallbacks: usize,
}

impl<'a, T: Scalar> PostorderRun<'a, T> {
    /// `timing`: charge every simulated cost, touch no numeric data (the
    /// machine's device and the pool must then be in virtual mode).
    fn new(
        a: &'a SymCsc<T>,
        symbolic: &'a SymbolicFactor,
        opts: &'a FactorOptions,
        look_ahead: bool,
        timing: bool,
    ) -> Self {
        let store = FrontStore::new(symbolic, timing);
        PostorderRun { a, symbolic, opts, look_ahead, store, lane: Lane::new(), oom_fallbacks: 0 }
    }

    /// Issue every front and drain the lane; on a pivot failure abandon what
    /// the lane still holds on the device.
    fn run(&mut self, machine: &mut Machine, pool: &mut PinnedPool) -> Result<(), FactorError> {
        let mut ctx = fu_ctx(machine, pool, self.opts, None, self.store.timing);
        let issued = self.issue(&mut ctx);
        match issued {
            Ok(()) => {
                self.lane.flush(&mut ctx, &mut self.store);
                self.lane.enforce_window(0, &mut ctx);
            }
            Err(_) => self.lane.abandon(&mut ctx),
        }
        issued
    }

    fn issue(&mut self, ctx: &mut FuContext<'_>) -> Result<(), FactorError> {
        let post = &self.symbolic.postorder;
        let mut i = 0;
        while i < post.len() {
            let run = self.batch_run_len(i);
            if run >= 2 {
                self.step_batch(&post[i..i + run], ctx)?;
            } else {
                self.step_single(post[i], ctx)?;
            }
            i += run;
        }
        Ok(())
    }

    /// Length of the batchable run starting at postorder position `start`:
    /// consecutive P4-selected fronts no larger than [`BATCH_MAX_FRONT`],
    /// with no producer/consumer pair inside the run (a member's children
    /// must have flushed before it assembles). Returns 1 when the front at
    /// `start` dispatches alone.
    fn batch_run_len(&self, start: usize) -> usize {
        // Batches run the naive whole-front P4 plan; under the
        // copy-optimized plan members dispatch singly so the transfer byte
        // counts (and the bits) match the drain schedule.
        if !self.look_ahead || self.opts.copy_optimized {
            return 1;
        }
        let symbolic = self.symbolic;
        let post = &symbolic.postorder;
        let mut len = 0;
        while len < BATCH_MAX_FRONTS && start + len < post.len() {
            let sn = post[start + len];
            let info = &symbolic.supernodes[sn];
            let (s, k, m) = (info.front_size(), info.k(), info.m());
            if s > BATCH_MAX_FRONT || self.opts.selector.choose(sn, m, k) != PolicyKind::P4 {
                break;
            }
            if symbolic.children(sn).iter().any(|c| post[start..start + len].contains(c)) {
                break;
            }
            len += 1;
        }
        len.max(1)
    }

    /// Make `sn`'s child updates consumable and assemble its front.
    fn ready_front(&mut self, sn: usize, ctx: &mut FuContext<'_>) -> Vec<T> {
        let kids = self.symbolic.children(sn);
        self.lane.flush_if_holds(|c| kids.contains(&c), ctx, &mut self.store);
        self.lane.finish_holding(|c| kids.contains(&c), ctx);
        self.store.assemble(self.a, sn, ctx.host)
    }

    /// Run one assembled front through the lane: staged behind the next
    /// dispatch with [`PIPELINE_DEPTH`] fronts in flight under `look_ahead`,
    /// finished before the call returns without.
    fn dispatch(
        &mut self,
        member: Member<T>,
        policy: PolicyKind,
        look_ahead: bool,
        ctx: &mut FuContext<'_>,
    ) -> Result<(), FactorError> {
        let col_start = self.symbolic.supernodes[member.0].col_start;
        let outcome = if look_ahead {
            let staged = self.lane.run_staged(member, policy, false, ctx, &mut self.store);
            self.lane.enforce_window(PIPELINE_DEPTH, ctx);
            staged
        } else {
            let (sn, s, k, mut buf) = member;
            let mut front = Front { s, k, data: &mut buf };
            self.lane.run_front(sn, &mut front, policy, ctx, &mut self.store).map(|r| r.outcome)
        };
        let outcome = outcome.map_err(|e| fu_err_to_factor(col_start, e))?;
        self.oom_fallbacks += usize::from(outcome.oom_fallback);
        Ok(())
    }

    fn step_single(&mut self, sn: usize, ctx: &mut FuContext<'_>) -> Result<(), FactorError> {
        let info = &self.symbolic.supernodes[sn];
        let (s, k) = (info.front_size(), info.k());
        let buf = self.ready_front(sn, ctx);
        let policy = self.opts.selector.choose(sn, info.m(), k);
        self.dispatch((sn, s, k, buf), policy, self.look_ahead, ctx)
    }

    fn step_batch(&mut self, sns: &[usize], ctx: &mut FuContext<'_>) -> Result<(), FactorError> {
        let symbolic = self.symbolic;
        let mut members: Vec<Member<T>> = Vec::with_capacity(sns.len());
        for &sn in sns {
            let info = &symbolic.supernodes[sn];
            members.push((sn, info.front_size(), info.k(), self.ready_front(sn, ctx)));
        }
        let batch = {
            let mut fronts: Vec<Front<'_, T>> = members
                .iter_mut()
                .map(|(_, s, k, buf)| Front { s: *s, k: *k, data: buf })
                .collect();
            self.lane.dispatch_batch(&mut fronts, ctx, &mut self.store).map_err(|e| {
                fu_err_to_factor(symbolic.supernodes[sns[e.member]].col_start, e.error)
            })?
        };
        match batch {
            Some(batch) => {
                self.lane.stage(members, Phase1::Batch(batch), false, ctx, &mut self.store);
                self.lane.enforce_window(PIPELINE_DEPTH, ctx);
            }
            // The run does not fit even an empty device: its members
            // dispatch one by one on the drained lane, so every decision
            // matches the drain schedule's.
            None => {
                for member in members {
                    self.dispatch(member, PolicyKind::P4, false, ctx)?;
                }
            }
        }
        Ok(())
    }
}

/// Timing-only rehearsal of one schedule of [`PostorderRun`] on a *virtual
/// twin* of `machine`: same CPU and GPU configuration, fresh clocks, device
/// memory and staging pool in virtual mode. Every simulated duration depends
/// only on shapes and configuration — never on numeric data — and the
/// rehearsal runs the very bodies the real run does, so the rehearsed
/// makespan equals the real driver's exactly, including OOM fallback
/// decisions and pinned-pool waits (where a front's bytes sit is never
/// charged, so the drain rehearsal stands for the arena run). No numeric
/// buffer is allocated or touched.
fn rehearse_makespan<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    opts: &FactorOptions,
    machine: &Machine,
    pipelined: bool,
) -> f64 {
    let gpu_cfg = machine.gpu.as_ref().expect("pipelined routing requires a GPU").config().clone();
    let mut twin = Machine::with_gpu(machine.host.config().clone(), gpu_cfg);
    if let Some(g) = twin.gpu.as_mut() {
        g.set_virtual(true);
    }
    let mut pool = pinned_pool(opts);
    pool.set_virtual(true);
    PostorderRun::new(a, symbolic, opts, pipelined, true)
        .run(&mut twin, &mut pool)
        .expect("timing-only rehearsal sees no data, so no pivot can fail");
    twin.elapsed()
}

/// The pipelined run [`factor_permuted`] takes when its rehearsal predicts a
/// win.
///
/// Per-front numeric work is byte-for-byte the drain schedule's — assembly in
/// postorder, the same staged f32 kernels in the same order, extend-add of
/// child updates in postorder child rank — so factor slabs are **bitwise
/// identical** to it. What changes is when the host blocks: instead of a
/// full device drain after every front, each front's downloads gate on
/// completion events, the next front's upload is dispatched before the
/// previous front's downloads flush, and runs of small P4 fronts share one
/// dispatch.
fn factor_permuted_pipelined<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
    machine: &mut Machine,
    opts: &FactorOptions,
) -> Result<(CholeskyFactor<T>, FactorStats), FactorError> {
    let mut pool = pinned_pool(opts);
    let wall0 = std::time::Instant::now();
    let mut run = PostorderRun::new(a, symbolic, opts, true, false);
    run.run(machine, &mut pool)?;
    let total_time = machine.elapsed();
    let stats = FactorStats {
        oom_fallbacks: run.oom_fallbacks,
        front_alloc_events: run.store.allocs,
        peak_front_bytes: run.store.peak_bytes(),
        total_time,
        gpu: machine.gpu.as_ref().map(|g| g.utilization(total_time)),
        wall_time: wall0.elapsed().as_secs_f64(),
        ..Default::default()
    };
    Ok((
        CholeskyFactor { symbolic: symbolic.clone(), perm: perm.clone(), slab: run.store.slab },
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_matgen::{laplacian_2d, laplacian_3d, Stencil};
    use mf_sparse::symbolic::analyze;
    use mf_sparse::{AmalgamationOptions, OrderingKind};

    fn factor_grid(
        selector: PolicySelector,
        nx: usize,
        ny: usize,
    ) -> (CholeskyFactor<f64>, FactorStats, SymCsc<f64>) {
        let a = laplacian_2d(nx, ny, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let mut machine = Machine::paper_node();
        let opts = FactorOptions { selector, record_stats: true, ..Default::default() };
        let (f, s) = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &opts,
        )
        .unwrap();
        (f, s, a)
    }

    /// ‖P·A·Pᵀ − L·Lᵀ‖∞ over the structure of A (cheap reconstruction check).
    fn reconstruction_error(f: &CholeskyFactor<f64>, a: &SymCsc<f64>) -> f64 {
        let pa = f.perm.permute_sym(a);
        let n = pa.order();
        let mut max = 0.0f64;
        for j in 0..n {
            for (&i, &v) in pa.col_rows(j).iter().zip(pa.col_vals(j)) {
                // (L·Lᵀ)[i,j] = Σ_l L[i,l]·L[j,l], l ≤ min(i,j) = j.
                let mut dot = 0.0;
                for l in 0..=j {
                    let lj = f.l_entry(j, l);
                    if lj != 0.0 {
                        dot += f.l_entry(i, l) * lj;
                    }
                }
                max = max.max((dot - v).abs());
            }
        }
        max
    }

    #[test]
    fn p1_factorization_reconstructs_matrix() {
        let (f, stats, a) = factor_grid(PolicySelector::Fixed(PolicyKind::P1), 12, 12);
        assert!(stats.total_time > 0.0);
        assert_eq!(stats.oom_fallbacks, 0);
        let err = reconstruction_error(&f, &a);
        assert!(err < 1e-9, "reconstruction error {err}");
    }

    #[test]
    fn gpu_policies_reconstruct_at_f32_accuracy() {
        for p in [PolicyKind::P2, PolicyKind::P3, PolicyKind::P4] {
            let (f, _, a) = factor_grid(PolicySelector::Fixed(p), 10, 10);
            let err = reconstruction_error(&f, &a);
            assert!(err < 1e-2, "{p} reconstruction error {err}");
            assert!(err > 0.0);
        }
    }

    #[test]
    fn stats_cover_every_supernode() {
        let (f, stats, _) = factor_grid(PolicySelector::Fixed(PolicyKind::P1), 14, 9);
        assert_eq!(stats.records.len(), f.symbolic.num_supernodes());
        assert!(stats.records.iter().all(|r| r.total > 0.0));
        // P1 runs must have zero copy time.
        assert!(stats.records.iter().all(|r| r.t_copy == 0.0));
    }

    #[test]
    fn baseline_hybrid_uses_multiple_policies_on_3d() {
        let a = laplacian_3d(9, 9, 9, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let mut machine = Machine::paper_node();
        let opts = FactorOptions {
            selector: PolicySelector::Baseline(BaselineThresholds::default()),
            record_stats: true,
            ..Default::default()
        };
        let (_, stats) = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &opts,
        )
        .unwrap();
        let counts = stats.policy_counts();
        assert!(counts[0] > 0, "small fronts should use P1: {counts:?}");
    }

    #[test]
    fn oracle_selector_uses_table() {
        let a = laplacian_2d(8, 8, Stencil::Faces);
        let analysis = analyze(&a, OrderingKind::NestedDissection, None).unwrap();
        let nsn = analysis.symbolic.num_supernodes();
        let table = vec![PolicyKind::P2; nsn];
        let mut machine = Machine::paper_node();
        let opts = FactorOptions {
            selector: PolicySelector::Oracle(table),
            record_stats: true,
            ..Default::default()
        };
        let (_, stats) = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &opts,
        )
        .unwrap();
        assert!(stats.records.iter().all(|r| r.policy == PolicyKind::P2));
    }

    #[test]
    fn indefinite_matrix_reports_global_column() {
        use mf_sparse::Triplet;
        let mut t = Triplet::new(6);
        for i in 0..6 {
            t.push(i, i, if i == 3 { -5.0 } else { 4.0 });
            if i + 1 < 6 {
                t.push(i + 1, i, -1.0);
            }
        }
        let a = t.assemble();
        let analysis = analyze(&a, OrderingKind::Natural, None).unwrap();
        let mut machine = Machine::paper_node();
        let err = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &FactorOptions::default(),
        )
        .unwrap_err();
        match err {
            FactorError::NotPositiveDefinite { column } => {
                // Natural ordering ⇒ permuted column == original column 3
                // (the first non-positive pivot may surface at 3 exactly).
                assert_eq!(column, 3);
            }
            FactorError::WorkerLost { .. } => panic!("serial factorization cannot lose a worker"),
            FactorError::Analyze(_) => panic!("analysis already succeeded before the factor"),
            FactorError::BudgetTooSmall { .. } => panic!("no memory budget was requested"),
        }
    }

    #[test]
    fn l_entry_outside_structure_is_zero() {
        let (f, _, _) = factor_grid(PolicySelector::Fixed(PolicyKind::P1), 6, 6);
        assert_eq!(f.l_entry(0, 5), 0.0, "upper triangle");
        // Diagonal is positive everywhere.
        for j in 0..f.order() {
            assert!(f.l_entry(j, j) > 0.0);
        }
    }

    #[test]
    fn pipelined_driver_matches_drain_bitwise_and_runs_faster() {
        let a = laplacian_3d(7, 6, 6, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let run = |pipeline: PipelineOptions, selector: PolicySelector| {
            let mut machine = Machine::paper_node();
            let opts = FactorOptions { selector, pipeline, ..Default::default() };
            factor_permuted(
                &analysis.permuted.0,
                &analysis.symbolic,
                &analysis.perm,
                &mut machine,
                &opts,
            )
            .unwrap()
        };
        // `strict`: whether the selector sends enough fronts to the GPU on
        // this grid for overlap to show (Baseline picks P1 for every front
        // here, so both drivers run the same inline path).
        for (selector, strict) in [
            (PolicySelector::Fixed(PolicyKind::P4), true),
            (PolicySelector::Baseline(BaselineThresholds::default()), false),
        ] {
            let (fd, sd) = run(PipelineOptions::default(), selector.clone());
            let (fp, sp) = run(PipelineOptions::pipelined(), selector);
            let bd: Vec<u64> = fd.slab.iter().map(|x| x.to_bits()).collect();
            let bp: Vec<u64> = fp.slab.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bd, bp, "pipelined factor must match the drain driver bitwise");
            assert!(
                sp.total_time <= sd.total_time,
                "pipelined {:.6e} must not lose to drain {:.6e}",
                sp.total_time,
                sd.total_time
            );
            if strict {
                assert!(
                    sp.total_time < sd.total_time,
                    "pipelined {:.6e} must beat drain {:.6e}",
                    sp.total_time,
                    sd.total_time
                );
                let util = sp.gpu.expect("GPU machine must report utilization");
                assert!(util.busy_fraction() > 0.0 && util.busy_fraction() <= 1.0);
            }
            assert!(sd.gpu.is_some(), "drain driver reports utilization too");
        }
    }

    #[test]
    fn pipelined_cost_model_never_loses_and_falls_back_exactly() {
        // elasticity_3d(4,4,3) under fixed P2 in f32 is a pipeline loser
        // (pinned-pool growth under look-ahead outweighs what overlap buys
        // back on its narrow tree): the rehearsal gate must detect it and
        // reproduce the drain timeline *exactly* — same bits, same
        // simulated makespan to the last ulp. Under P4 the pipeline wins on
        // the same matrix and must stay strictly ahead.
        let a = mf_matgen::elasticity_3d(4, 4, 3);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let a32: SymCsc<f32> = analysis.permuted.0.cast();
        let run = |pipeline: PipelineOptions, policy: PolicyKind| {
            let mut machine = Machine::paper_node();
            let opts = FactorOptions {
                selector: PolicySelector::Fixed(policy),
                pipeline,
                ..Default::default()
            };
            factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts).unwrap()
        };
        for (policy, wins) in [(PolicyKind::P2, false), (PolicyKind::P4, true)] {
            let (fd, sd) = run(PipelineOptions::default(), policy);
            let (fp, sp) = run(PipelineOptions::pipelined(), policy);
            let bd: Vec<u32> = fd.slab.iter().map(|x| x.to_bits()).collect();
            let bp: Vec<u32> = fp.slab.iter().map(|x| x.to_bits()).collect();
            assert_eq!(bd, bp, "{policy}: cost-model route must not change the bits");
            if wins {
                assert!(
                    sp.total_time < sd.total_time,
                    "{policy}: predicted winner must stay strictly ahead ({:.6e} vs {:.6e})",
                    sp.total_time,
                    sd.total_time
                );
            } else {
                assert_eq!(
                    sp.total_time.to_bits(),
                    sd.total_time.to_bits(),
                    "{policy}: predicted loser must fall back to the exact drain schedule \
                     ({:.6e} vs {:.6e})",
                    sp.total_time,
                    sd.total_time
                );
            }
        }
    }

    #[test]
    fn rehearsal_equals_the_run_it_predicts() {
        // The cost-model gate is exact only if a timing-only rehearsal
        // charges what the real run charges: on the P2-loses / P4-wins
        // elasticity case both rehearsals must equal the run they stand for
        // to the bit (under P2 the routed run *is* the drain schedule).
        let a = mf_matgen::elasticity_3d(4, 4, 3);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let a32: SymCsc<f32> = analysis.permuted.0.cast();
        for (policy, wins) in [(PolicyKind::P2, false), (PolicyKind::P4, true)] {
            let run = |pipeline: PipelineOptions| {
                let mut machine = Machine::paper_node();
                let opts = FactorOptions {
                    selector: PolicySelector::Fixed(policy),
                    pipeline,
                    ..Default::default()
                };
                let (_, stats) =
                    factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts)
                        .unwrap();
                (stats.total_time, opts)
            };
            let (t_drain, _) = run(PipelineOptions::default());
            let (t_routed, opts) = run(PipelineOptions::pipelined());
            let machine = Machine::paper_node();
            let r_pipe = rehearse_makespan(&a32, &analysis.symbolic, &opts, &machine, true);
            let r_drain = rehearse_makespan(&a32, &analysis.symbolic, &opts, &machine, false);
            assert_eq!(r_drain.to_bits(), t_drain.to_bits(), "{policy}: drain rehearsal");
            assert_eq!(r_pipe < r_drain, wins, "{policy}: {r_pipe:.6e} vs {r_drain:.6e}");
            let predicted = if wins { r_pipe } else { r_drain };
            assert_eq!(predicted.to_bits(), t_routed.to_bits(), "{policy}: routed run");
        }
    }

    #[test]
    fn pipelined_oom_fallbacks_match_drain_driver() {
        // A device too small for the big fronts: the pipelined driver must
        // make the same P1-fallback decisions (after draining) and still
        // produce identical bits.
        let a = laplacian_3d(6, 6, 5, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let run = |pipeline: PipelineOptions| {
            let mut cfg = mf_gpusim::tesla_t10();
            cfg.mem_bytes = 2_000; // 500 f32 elements — only small fronts fit
            let mut machine = Machine::with_gpu(mf_gpusim::xeon_5160_core(), cfg);
            let opts = FactorOptions {
                selector: PolicySelector::Fixed(PolicyKind::P4),
                pipeline,
                ..Default::default()
            };
            factor_permuted(
                &analysis.permuted.0,
                &analysis.symbolic,
                &analysis.perm,
                &mut machine,
                &opts,
            )
            .unwrap()
        };
        let (fd, sd) = run(PipelineOptions::default());
        let (fp, sp) = run(PipelineOptions::pipelined());
        assert!(sd.oom_fallbacks > 0, "test needs OOM pressure to be meaningful");
        assert_eq!(sp.oom_fallbacks, sd.oom_fallbacks);
        assert!(fd.slab.iter().zip(&fp.slab).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn pipelined_indefinite_matrix_reports_same_column() {
        use mf_sparse::Triplet;
        let mut t = Triplet::new(8);
        for i in 0..8 {
            t.push(i, i, if i == 5 { -3.0 } else { 4.0 });
            if i + 1 < 8 {
                t.push(i + 1, i, -1.0);
            }
        }
        let a = t.assemble();
        let analysis = analyze(&a, OrderingKind::Natural, None).unwrap();
        let mut machine = Machine::paper_node();
        let opts = FactorOptions {
            selector: PolicySelector::Fixed(PolicyKind::P4),
            pipeline: PipelineOptions::pipelined(),
            ..Default::default()
        };
        let err = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &opts,
        )
        .unwrap_err();
        assert_eq!(err, FactorError::NotPositiveDefinite { column: 5 });
    }
}
