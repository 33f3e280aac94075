//! The supernodal multifrontal factorization driver.
//!
//! Performs the postorder traversal of the supernodal elimination tree,
//! assembling each frontal matrix (extend-add), executing its factor-update
//! under the policy chosen by the active [`PolicySelector`], and harvesting
//! the factor panels and per-call timing records.
//!
//! The numeric phase runs out of preallocated storage: one contiguous
//! factor slab laid out by `SymbolicFactor::panel_ptr`, in which every
//! front's pivot columns are assembled and factored in place, plus a
//! postorder LIFO stack of update blocks ([`FrontArena`]) sized by
//! `SymbolicFactor::update_stack_peak` — two allocations for the whole
//! factorization, no matter how many supernodes run. A front writes its
//! panel through its own `&mut` slice: the arena loop takes the panels of
//! its range in postorder, split off the slab (`lane::postorder_parts`) — the
//! whole postorder's in a serial drain, a range task's own in
//! [`crate::parallel`] — so no two fronts can reach one panel region.
//!
//! A front's lifecycle — dispatch, downloads, extraction, finish — belongs to
//! `crate::lane`. This module holds one of its two issuers, the arena loop
//! (`FrontRun::factor_range`: the drain schedule, one front at a time on the
//! LIFO stack, which every range task of [`crate::parallel`] runs on
//! the worker's own arena), and every front it runs books its per-call record
//! in [`Lane::run_front`]. Each front's assembly is charged from the
//! structure, with data or without; without the matrix and the factor slab
//! the same loop runs timing-only — no arena, a staging pool without data
//! and reserved device buffers — which is how [`FactorOptions::rehearse`], the drain rehearsal
//! of [`FactorOptions::plan`] and the parallel entry's clock price the drain
//! schedule, out-of-core spills included. Fronts whose lifetimes overlap — the
//! pipelined schedule on one device or several — go through the other
//! issuer, `crate::multigpu`'s issuer of fronts in flight.

use crate::arena::FrontArena;
use crate::features::LinearPolicyModel;
use crate::frontal::{assemble_front_into, charge_assemble, ChildUpdate, Front};
use crate::fu::{FuContext, FuError};
use crate::lane::{child_views, panel_len, postorder_parts, Lane, SnOutcome};
use crate::multigpu::MultiGpuOptions;
use crate::ooc::{plan_ooc, OocPlan};
use crate::pinned_pool::PinnedPool;
use crate::plan::{run_plan, PlanError};
use crate::policy::{BaselineThresholds, PolicyKind};
use crate::stats::FactorStats;
use mf_dense::{FuFlops, Scalar};
use mf_gpusim::Machine;
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
/// consumption of child updates, and (on one device) batched dispatch of
/// runs of small fronts. Depth and batch limits are fixed (see `crate::lane`
/// and the issuer of fronts in flight in `crate::multigpu`, which runs every
/// device count of [`FactorOptions::devices`]). Off, the same lifecycle
/// finishes each front before the next assembles: the drain schedule.
///
/// A pipelined run produces factor slabs **bitwise identical** to the drain
/// schedule's — only the simulated timeline (and therefore makespan and GPU
/// utilization) changes. Only a run that ends up on the drain schedule books
/// per-call [`FuRecord`](crate::FuRecord)s: with fronts overlapping on the
/// device, a front's split of simulated time is ill-defined, so a pipelined
/// run books none, `record_stats` or not. Front storage is per-front heap
/// buffers: front lifetimes overlap, which the postorder LIFO arena cannot
/// express. Whether a request actually pipelines is [`FactorOptions::plan`]'s
/// decision, and the run records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PipelineOptions {
    /// Ask for fronts in flight. The plan drains instead under a memory
    /// budget, without a device, or where the exact rehearsal predicts the
    /// pipeline to lose — each a recorded [`crate::Decision`].
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
    /// Collect per-call [`FuRecord`](crate::FuRecord)s (adds no simulated
    /// time).
    pub record_stats: bool,
    /// Use the growth-only pinned-buffer reuse policy (§V-A2); disable for
    /// the allocation-cost ablation.
    pub pinned_reuse: bool,
    /// Pipelined GPU dispatch (see [`PipelineOptions`]).
    pub pipeline: PipelineOptions,
    /// Devices a pipelined run keeps fronts in flight on (see
    /// [`MultiGpuOptions`]). `count > 1` needs pipelining and a machine with a
    /// device; one host timeline then feeds every device.
    pub devices: MultiGpuOptions,
    /// Out-of-core residency budget in bytes for the factor slab plus the
    /// front arena (DESIGN.md §4.14). `None` runs fully in core. With a
    /// budget set, the run drains (the residency plan models the drain
    /// schedule's front lifetimes exactly) and prices a deterministic spill
    /// schedule, planned from the structure alone, on its simulated clock;
    /// `FactorStats::ooc` reports the traffic. A budget moves the clock,
    /// never the bits: the factor is the in-core run's.
    /// Budgets below [`crate::ooc::min_feasible_budget`] fail with
    /// [`FactorError::BudgetTooSmall`].
    pub memory_budget: Option<usize>,
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
    /// The symbolic analysis rejected the matrix before any numbers moved.
    Analyze(AnalyzeError),
    /// The out-of-core memory budget is below the minimum feasible
    /// working set ([`crate::ooc::min_feasible_budget`]): some supernode's
    /// pinned set — its panel, its update block and one child update —
    /// cannot fit even with everything else spilled.
    BudgetTooSmall {
        /// The requested budget in bytes.
        budget: usize,
        /// The smallest feasible budget in bytes.
        required: usize,
    },
    /// The options ask for a run no driver executes
    /// ([`FactorOptions::plan`]); no machine was touched.
    Plan(PlanError),
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
            FactorError::Analyze(e) => write!(f, "analysis failed: {e}"),
            FactorError::BudgetTooSmall { budget, required } => write!(
                f,
                "memory budget of {budget} bytes is below the minimum feasible \
                 out-of-core working set of {required} bytes"
            ),
            FactorError::Plan(e) => write!(f, "unsupported options: {e}"),
        }
    }
}

impl std::error::Error for FactorError {}

impl From<AnalyzeError> for FactorError {
    fn from(e: AnalyzeError) -> Self {
        FactorError::Analyze(e)
    }
}

impl From<PlanError> for FactorError {
    fn from(e: PlanError) -> Self {
        FactorError::Plan(e)
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

/// Factor an already-permuted matrix on the given machine.
///
/// `a` must be the permuted matrix `P·A·Pᵀ` whose structure `symbolic`
/// describes. The run executes [`FactorOptions::plan`]'s plan for this
/// machine and records it in [`FactorStats::plan`]. Use
/// [`crate::solver::SpdSolver`] for the one-call user API.
pub fn factor_permuted<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
    machine: &mut Machine,
    opts: &FactorOptions,
) -> Result<(CholeskyFactor<T>, FactorStats), FactorError> {
    let plan = opts.plan::<T>(symbolic, std::slice::from_ref(machine))?;
    run_plan(plan, a, symbolic, perm, std::slice::from_mut(machine), opts, None)
}

/// [`crate::Schedule::Drain`]: the whole postorder through the arena loop on
/// one machine, `a`'s values assembled and the panels put into the slab of
/// `data`. Without data the run is timing-only: it holds no arena, and its
/// staging pool is built without data, so its device buffers are reserved.
pub(crate) fn factor_drain<T: Scalar>(
    symbolic: &SymbolicFactor,
    machine: &mut Machine,
    opts: &FactorOptions,
    data: Option<(&SymCsc<T>, &mut [T])>,
) -> Result<FactorStats, FactorError> {
    // The deterministic out-of-core schedule of a budgeted run, pinned before
    // any front moves; an infeasible budget fails typed here.
    let ooc_plan = opts.memory_budget.map(|b| plan_ooc(symbolic, T::BYTES, b)).transpose()?;
    let mut pool = pinned_pool(opts, data.is_some());
    let mut rel: Vec<usize> = Vec::new();

    // Whole-run working storage: the factor slab, where the panels are
    // factored in place, plus one arena of update blocks sized by the
    // symbolic stack-peak bound — the numeric phase's only front-storage
    // allocations, and none without data.
    let with_data = data.is_some();
    let mut stats =
        FactorStats { front_alloc_events: 2 * u64::from(with_data), ..Default::default() };
    let mut arena =
        FrontArena::<T>::with_len(if with_data { symbolic.update_stack_peak() } else { 0 });
    let mut data = data.map(|(a, slab)| (a, postorder_parts(symbolic, slab, panel_len)));
    let run = FrontRun { symbolic, opts, ooc_plan: ooc_plan.as_ref() };
    // The postorder ends at a root, so no update leaves the run.
    let ran = run.factor_range(
        0..symbolic.num_supernodes(),
        &[],
        &mut arena,
        data.as_mut().map(|(a, panels)| (*a, &mut panels[..])),
        &mut rel,
        machine,
        &mut pool,
        |_, out| {
            stats.oom_fallbacks += usize::from(out.oom_fallback);
            stats.records.extend(out.record);
        },
    );
    ran?;

    stats.peak_front_bytes = arena.high_water() * T::BYTES;
    stats.ooc = ooc_plan.map(|plan| plan.stats);
    stats.total_time = machine.elapsed();
    stats.gpu = machine.gpu.as_ref().map(|g| g.utilization(stats.total_time));
    Ok(stats)
}

/// What the arena factorization of a postorder range reads besides its data:
/// the shared structure, the options and (a budgeted serial drain) the
/// out-of-core plan whose transfers it charges.
pub(crate) struct FrontRun<'a> {
    pub symbolic: &'a SymbolicFactor,
    pub opts: &'a FactorOptions,
    pub ooc_plan: Option<&'a OocPlan>,
}

impl FrontRun<'_> {
    /// Factor the supernodes at postorder positions `range` — a run whose
    /// first front has no child inside it: the whole postorder, a bottom
    /// subtree, or one supernode — front to back, each panel in place in
    /// the slab and each update block on `arena`, which holds nothing of
    /// theirs before. The first front extend-adds `handed`, its children's
    /// updates in child order; the last front assembles its update straight
    /// into the buffer it leaves in, the return value (`None` when `m = 0`,
    /// as at a root).
    ///
    /// The stack discipline needs no bookkeeping per supernode: when a later
    /// front is assembled its children's updates are the top of the stack
    /// in child order, the first child deepest, so their offsets follow
    /// from their sizes, and moving the front's own update block down to
    /// the first child's offset frees the children in one move.
    ///
    /// The serial driver runs the whole postorder through here; every
    /// range task of [`crate::parallel`] runs its range here on the
    /// worker's own arena. Each front goes through [`Lane::run_front`], so
    /// every simulated-time charge is issued per front, in postorder.
    /// `on_front(position, outcome)` collects the statistics. Each front's
    /// assembly is charged from the structure; `data` is the matrix whose
    /// values it assembles and the range's panels in postorder, each front's
    /// slab region, its own to write. Without them the loop runs without
    /// data: a front is its shape, and `arena` is never touched.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn factor_range<T: Scalar>(
        &self,
        range: std::ops::Range<usize>,
        handed: &[Vec<T>],
        arena: &mut FrontArena<T>,
        mut data: Option<(&SymCsc<T>, &mut [&mut [T]])>,
        rel: &mut Vec<usize>,
        machine: &mut Machine,
        pool: &mut PinnedPool,
        mut on_front: impl FnMut(usize, SnOutcome),
    ) -> Result<Option<Vec<T>>, FactorError> {
        let (symbolic, opts) = (self.symbolic, self.opts);
        let mut lane = Lane::new();
        let mut out = None;
        for r in range.clone() {
            let sn = symbolic.postorder[r];
            if let Some(plan) = self.ooc_plan {
                plan.begin_front(r, &mut machine.host);
            }
            // The front's split starts here: its spill traffic is not its
            // own, and nothing an earlier front (or a failed run) charged is.
            machine.clear_split();
            let info = &symbolic.supernodes[sn];
            let (k, m) = (info.k(), info.m());
            let policy = opts.selector.choose(sn, m, k);
            charge_assemble::<T>(symbolic, sn, &mut machine.host);
            let Some((a, panels)) = data.as_mut() else {
                // Without data a front is its shape.
                let mut front = Front { s: info.front_size(), k, panel: &mut [], update: &mut [] };
                let mut ctx = fu_ctx(machine, pool, opts);
                let ran = lane.run_front(sn, &mut front, policy, opts.record_stats, &mut ctx);
                on_front(r, ran.map_err(|e| fu_err_to_factor(info.col_start, e))?);
                continue;
            };
            let kids = symbolic.children(sn);
            // The first front's children are outside the range, their
            // updates handed over; every later front's are on the stack.
            let (from_hand, on_stack) =
                if r == range.start { (handed, &[][..]) } else { (&[][..], kids) };
            debug_assert!(r != range.start || handed.len() == kids.len());
            let last = r + 1 == range.end;
            let front_off = arena.top();
            let kids_len: usize = on_stack.iter().map(|&c| symbolic.supernodes[c].m().pow(2)).sum();
            let dest = front_off - kids_len;
            let mut leaving = if last { vec![T::ZERO; m * m] } else { Vec::new() };
            let (below, on_arena) = arena.split_for_front(if last { 0 } else { m * m });
            let update = if last { &mut leaving[..] } else { on_arena };
            let mut next = dest;
            let stacked = on_stack.iter().map(|&c| {
                let rows = symbolic.update_rows(c);
                let data = &below[next..next + rows.len() * rows.len()];
                next += data.len();
                ChildUpdate { rows, data }
            });
            let children = child_views(symbolic, sn, from_hand).chain(stacked);
            let mut front = assemble_front_into(
                a,
                info.col_start..info.col_end,
                symbolic.update_rows(sn),
                children,
                &mut *panels[r - range.start],
                update,
                rel,
            );
            let mut ctx = fu_ctx(machine, pool, opts);
            let ran = lane.run_front(sn, &mut front, policy, opts.record_stats, &mut ctx);
            on_front(r, ran.map_err(|e| fu_err_to_factor(info.col_start, e))?);
            if last {
                out = (m > 0).then_some(leaving);
            } else {
                arena.pop_and_compact(front_off, m, dest);
            }
        }
        Ok(out)
    }
}

/// Build the F-U context of one arena-loop call under the run's options.
fn fu_ctx<'a>(
    machine: &'a mut Machine,
    pool: &'a mut PinnedPool,
    opts: &FactorOptions,
) -> FuContext<'a> {
    FuContext {
        host: &mut machine.host,
        gpu: machine.gpu.as_mut(),
        pool,
        copy_optimized: opts.copy_optimized,
    }
}

/// The run's pinned staging pool under `opts`, with data or without.
pub(crate) fn pinned_pool(opts: &FactorOptions, data: bool) -> PinnedPool {
    if opts.pinned_reuse {
        PinnedPool::new(2, data)
    } else {
        PinnedPool::without_reuse(2, data)
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
                // A path's natural order is already postordered ⇒ permuted
                // column == original column 3
                // (the first non-positive pivot may surface at 3 exactly).
                assert_eq!(column, 3);
            }
            FactorError::Analyze(_) => panic!("analysis already succeeded before the factor"),
            FactorError::BudgetTooSmall { .. } => panic!("no memory budget was requested"),
            FactorError::Plan(e) => panic!("default options plan a drain run: {e}"),
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
            assert_eq!(bd, bp, "{policy}: the planned schedule must not change the bits");
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
        // A rehearsal is exact only if a timing-only run charges what the run
        // with data charges. Over fixed P1–P4, the baseline hybrid, a
        // hand-set model hybrid and a mixed oracle table, both P4 transfer
        // plans, drain and pipelined at 1, 2 and 4 devices, three matrices,
        // on the paper node, on a device too small for the big fronts and on
        // a node without a device — and under a memory budget at the smallest
        // feasible size and halfway to in core: `rehearse` equals
        // `factor_permuted` on every clock field and on the out-of-core
        // accounting, to the bit, holds no storage, and fails where the run
        // fails with the run's error.
        use crate::features::NUM_FEATURES;
        use crate::ooc::{in_core_bytes, min_feasible_budget};
        use crate::plan::{Decision, Schedule};
        use crate::stats::FuRecord;
        let matrices = [
            ("elasticity 4x4x3", mf_matgen::elasticity_3d(4, 4, 3)),
            ("laplacian 8^3", laplacian_3d(8, 8, 8, Stencil::Faces)),
            ("elasticity 6^3", mf_matgen::elasticity_3d(6, 6, 6)),
        ];
        // 0: the paper node; 1: its device too small for the big fronts;
        // 2: its CPU alone.
        let node = |kind: usize| match kind {
            0 => Machine::paper_node(),
            1 => {
                let mut cfg = mf_gpusim::tesla_t10();
                cfg.mem_bytes = 2_000; // 500 f32 elements — only small fronts fit
                Machine::with_gpu(mf_gpusim::xeon_5160_core(), cfg)
            }
            _ => Machine::cpu_only(mf_gpusim::xeon_5160_core()),
        };
        let record_bits = |r: &FuRecord| {
            let t = [r.total, r.t_potrf, r.t_trsm, r.t_syrk, r.t_copy, r.t_assemble];
            (r.sn, r.m, r.k, r.policy, t.map(f64::to_bits))
        };
        let util_bits = |u: &mf_gpusim::GpuUtilization| {
            ([u.compute_busy, u.copy_busy, u.span].map(f64::to_bits), u.gpus)
        };
        // A model hybrid on x = ln(1 + front ops): P1 scores 0, P2 x − ln 5e3
        // and P4 2x − ln 5e3 − ln 1e6, so P1 below 5e3 ops, P4 above 1e6.
        let mut model = LinearPolicyModel::constant(PolicyKind::P1);
        model.theta = vec![[0.0; NUM_FEATURES]; 4];
        model.theta[PolicyKind::P2.index()][0] = -(5e3f64.ln());
        model.theta[PolicyKind::P2.index()][NUM_FEATURES - 1] = 1.0;
        model.theta[PolicyKind::P4.index()][0] = -(5e3f64.ln() + 1e6f64.ln());
        model.theta[PolicyKind::P4.index()][NUM_FEATURES - 1] = 2.0;
        let (mut oom_fallbacks, mut spilled, mut failed) = (0, 0, 0);
        for (name, a) in &matrices {
            let amalg = AmalgamationOptions::default();
            let analysis = analyze(a, OrderingKind::NestedDissection, Some(&amalg)).unwrap();
            let (a32, symbolic): (SymCsc<f32>, _) =
                (analysis.permuted.0.cast(), &analysis.symbolic);
            // The two runs agree; returns the run's stats, if it ran.
            let check = |opts: &FactorOptions, kind: usize| {
                let what = format!(
                    "{name} node {kind} {:?} copy_optimized={} {:?} {:?} budget={:?}",
                    opts.selector,
                    opts.copy_optimized,
                    opts.pipeline,
                    opts.devices,
                    opts.memory_budget
                );
                let mut machine = node(kind);
                let ran = factor_permuted(&a32, symbolic, &analysis.perm, &mut machine, opts);
                let rehearsed = opts.rehearse::<f32>(symbolic, &node(kind));
                let (rehearsed, ran) = match (rehearsed, ran) {
                    (Ok(rehearsed), Ok((_, ran))) => (rehearsed, ran),
                    (rehearsed, ran) => {
                        assert_eq!(rehearsed.err(), ran.err(), "{what}: the run's error");
                        return None;
                    }
                };
                assert_eq!(
                    rehearsed.total_time.to_bits(),
                    ran.total_time.to_bits(),
                    "{what}: {:.17e} vs {:.17e}",
                    rehearsed.total_time,
                    ran.total_time
                );
                assert_eq!(rehearsed.records.len(), ran.records.len(), "{what}: records");
                for (r, n) in rehearsed.records.iter().zip(&ran.records) {
                    assert_eq!(record_bits(r), record_bits(n), "{what}: {r:?} vs {n:?}");
                }
                let gpu = |s: &FactorStats| s.gpu.as_ref().map(util_bits);
                assert_eq!(gpu(&rehearsed), gpu(&ran), "{what}: gpu");
                let devices = |s: &FactorStats| s.gpu_devices.iter().map(util_bits).collect();
                let rehearsed_devices: Vec<_> = devices(&rehearsed);
                assert_eq!(rehearsed_devices, devices(&ran), "{what}: gpu_devices");
                assert_eq!(rehearsed.peer_bytes, ran.peer_bytes, "{what}: peer_bytes");
                assert_eq!(rehearsed.oom_fallbacks, ran.oom_fallbacks, "{what}: oom_fallbacks");
                assert_eq!(rehearsed.plan, ran.plan, "{what}: plan");
                assert_eq!(rehearsed.ooc, ran.ooc, "{what}: ooc");
                let storage = (rehearsed.front_alloc_events, rehearsed.peak_front_bytes);
                assert_eq!(storage, (0, 0), "{what}: a rehearsal holds no storage");
                Some(ran)
            };
            let mixed = (0..symbolic.num_supernodes()).map(|sn| PolicyKind::ALL[sn % 4]).collect();
            let mut picked: Vec<usize> =
                symbolic.supernodes.iter().map(|i| model.predict(i.m(), i.k()).index()).collect();
            picked.sort();
            picked.dedup();
            assert!(picked.len() >= 2, "{name}: the model picks only {picked:?}");
            let mut selectors: Vec<PolicySelector> =
                PolicyKind::ALL.iter().map(|&p| PolicySelector::Fixed(p)).collect();
            selectors.push(PolicySelector::Baseline(BaselineThresholds::default()));
            selectors.push(PolicySelector::Model(model.clone()));
            selectors.push(PolicySelector::Oracle(mixed));
            // In core on every node, every schedule; under each budget on the
            // paper node and the CPU alone, drained and asked to pipeline
            // (which drains under a budget).
            let (min, in_core) = (min_feasible_budget(symbolic, 4), in_core_bytes(symbolic, 4));
            let mut setups = vec![(None, vec![0, 1, 2], 4)];
            for budget in [min, min + (in_core - min) / 2] {
                setups.push((Some(budget), vec![0, 2], 2));
            }
            let schedules = [(false, 1), (true, 1), (true, 2), (true, 4)];
            for (memory_budget, kinds, nschedules) in setups {
                for kind in kinds {
                    for (selector, copy_optimized) in
                        selectors.iter().flat_map(|s| [(s, false), (s, true)])
                    {
                        for &(pipelined, devices) in &schedules[..nschedules] {
                            let opts = FactorOptions {
                                selector: selector.clone(),
                                copy_optimized,
                                record_stats: true,
                                pipeline: PipelineOptions { enabled: pipelined },
                                devices: MultiGpuOptions::devices(devices),
                                memory_budget,
                                ..Default::default()
                            };
                            let Some(ran) = check(&opts, kind) else {
                                failed += 1;
                                continue;
                            };
                            oom_fallbacks += ran.oom_fallbacks;
                            spilled += ran.ooc.map_or(0, |o| o.traffic_bytes());
                        }
                    }
                }
            }
        }
        assert!(oom_fallbacks > 0, "the grid needs OOM fallbacks to be meaningful");
        assert!(spilled > 0, "the grid needs spill traffic to be meaningful");
        assert!(failed > 0, "the grid needs runs that fail to be meaningful");

        // The plan records these rehearsals: on the P2-loses / P4-wins
        // elasticity case the rehearsed makespans equal the runs they stand
        // for (under P2 the planned run *is* the drain schedule).
        let a = &matrices[0].1;
        let analysis =
            analyze(a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
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
                factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts)
                    .unwrap()
                    .1
            };
            let drained = run(PipelineOptions::default());
            let planned = run(PipelineOptions::pipelined());
            assert_eq!(drained.plan, Default::default(), "{policy}: nothing to decide");
            let Some(Decision::Rehearsed { pipelined_s, drain_s }) = planned.plan.decision else {
                panic!("{policy}: a rehearsal, got {:?}", planned.plan);
            };
            assert_eq!(drain_s.to_bits(), drained.total_time.to_bits(), "{policy}: drain");
            assert_eq!(pipelined_s < drain_s, wins, "{policy}: {pipelined_s:.6e} vs {drain_s:.6e}");
            let (predicted, schedule) = if wins {
                (pipelined_s, Schedule::Pipelined { devices: 1 })
            } else {
                (drain_s, Schedule::Drain)
            };
            assert_eq!(planned.plan.schedule, schedule, "{policy}");
            assert_eq!(predicted.to_bits(), planned.total_time.to_bits(), "{policy}: planned run");
        }
    }
}
