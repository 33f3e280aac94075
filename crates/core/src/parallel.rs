//! Parallel execution of the supernodal task DAG — both the *model* and
//! the *real thing*.
//!
//! Two complementary halves:
//!
//! 1. [`simulate_tree_schedule`] — the deterministic list-schedule model of
//!    the paper's Table VII (4-thread WSMP column, 2-thread/2-GPU row):
//!    per-worker virtual timelines, largest-bottom-level-first priorities,
//!    and moldable large tasks standing in for intra-front parallel BLAS.
//! 2. [`factor_permuted_parallel`] — a real wall-clock parallel numeric
//!    factorization on the `mf-runtime` work-stealing scheduler. A *bottom
//!    subtree* (CPU fronts whose panels and front stack fit the cache) is
//!    one task: the serial driver's range loop on an arena the worker owns.
//!    Every supernode above the subtrees is a task whose
//!    remaining-children counter releases the parent; update matrices that
//!    cross tasks are buffered and extend-added in postorder child rank (so
//!    the factor is **bitwise identical** to
//!    [`factor_permuted`](crate::factor::factor_permuted) at every worker
//!    count), and a shared [`ThreadBudget`] arbitrates hardware threads
//!    between tree-level workers and the dense engine's column-slab
//!    threading. Large CPU fronts do not run as one monolithic task:
//!    their tile DAG (`assemble → potrf/trsm/syrk/gemm tiles → extract`)
//!    is spliced into the task graph so idle workers steal tile tasks
//!    *inside* the front instead of starving under the root.
//!
//! This module owns the task graph, the hand-off slots between tasks and
//! the per-worker state. What a task does to a front is not its own: CPU
//! tasks run the drain lifecycle of [`crate::factor`] (`process_supernode`,
//! `FrontRun::factor_range`), tile tasks run [`crate::tile`], and under
//! pipelined dispatch the `Whole` task issues its front into the worker's
//! `crate::lane::Lane`.
//!
//! The model predicts; the runtime measures: `benchmark/`'s `plate2d_par2`
//! workload reports the measured side as `runtime.par2_speedup.*`.

use crate::arena::FrontArena;
use crate::factor::{
    fu_ctx, fu_err_to_factor, pinned_pool, process_supernode, route, CholeskyFactor, FactorError,
    FactorOptions, FrontRun, Route, SharedSlice,
};
use crate::frontal::{charge_update_extract, extract_panel_into, packed_update, Front};
use crate::lane::{
    assemble_owned, child_views, extract_front, extract_inline, take_children, Lane, PIPELINE_DEPTH,
};
use crate::pinned_pool::PinnedPool;
use crate::policy::PolicyKind;
use crate::stats::{FactorStats, FuRecord, TaskKind, TaskRecord};
use crate::tile::{exec_tile_task, FrontView, TileKernel, TilePlan, TilingOptions};
use mf_dense::{FuFlops, Scalar};
use mf_gpusim::{exact_ops, CpuConfig, GpuUtilization, Machine};
use mf_runtime::{Runtime, TaskGraph, ThreadBudget};
use mf_sparse::symbolic::{SymbolicFactor, BOTTOM_SUBTREE_BYTES};
use mf_sparse::{Permutation, SymCsc};
use std::sync::Mutex;
use std::time::Instant;

/// Intra-task (moldable) parallelism model.
#[derive(Debug, Clone, Copy)]
pub struct MoldableModel {
    /// Parallel efficiency exponent: `p` workers give speedup `p^eff`.
    pub efficiency: f64,
    /// Op count granting one extra worker of useful width (caps tiny tasks
    /// at width 1).
    pub ops_per_worker: f64,
}

impl Default for MoldableModel {
    fn default() -> Self {
        MoldableModel { efficiency: 0.9, ops_per_worker: 2.0e7 }
    }
}

/// Outcome of a schedule simulation.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// Completion time of the last task.
    pub makespan: f64,
    /// Busy time per worker.
    pub busy: Vec<f64>,
    /// Serial time (Σ durations) for reference.
    pub serial_time: f64,
    /// Longest dependency chain (duration-weighted) — the lower bound no
    /// worker count can beat. By construction
    /// `critical_path ≤ makespan ≤ serial_time`.
    pub critical_path: f64,
}

impl ScheduleResult {
    /// Speedup over serial execution of the same task durations.
    pub fn speedup(&self) -> f64 {
        self.serial_time / self.makespan
    }

    /// Mean worker utilisation.
    pub fn utilization(&self) -> f64 {
        let busy: f64 = self.busy.iter().sum();
        busy / (self.makespan * self.busy.len() as f64)
    }
}

/// Simulate a list schedule of the supernodal tree with per-task durations
/// (`durations[sn]`, seconds) and per-task op counts (`ops[sn]`, for the
/// moldable width cap) on `workers` identical workers.
pub fn simulate_tree_schedule(
    symbolic: &SymbolicFactor,
    durations: &[f64],
    ops: &[f64],
    workers: usize,
    moldable: Option<MoldableModel>,
) -> ScheduleResult {
    let nsn = symbolic.num_supernodes();
    assert_eq!(durations.len(), nsn);
    assert_eq!(ops.len(), nsn);
    assert!(workers >= 1);
    let serial_time: f64 = durations.iter().sum();

    // Bottom level: longest downstream chain (task + ancestors) — the
    // classic priority for tree DAGs.
    let mut blevel = vec![0.0f64; nsn];
    for &sn in symbolic.postorder.iter().rev() {
        let parent = symbolic.supernodes[sn].parent;
        let up = if parent == usize::MAX { 0.0 } else { blevel[parent] };
        blevel[sn] = durations[sn] + up;
    }

    let mut pending_children: Vec<usize> = (0..nsn).map(|s| symbolic.children(s).len()).collect();
    let mut ready_time = vec![0.0f64; nsn];
    // Ready pool (small; linear scans are fine at our scale).
    let mut ready: Vec<usize> = (0..nsn).filter(|&s| pending_children[s] == 0).collect();
    let mut worker_free = vec![0.0f64; workers];
    let mut busy = vec![0.0f64; workers];
    let mut finish = vec![0.0f64; nsn];
    let mut scheduled = 0usize;

    while scheduled < nsn {
        // Highest-priority ready task.
        let (ri, &sn) = ready
            .iter()
            .enumerate()
            .max_by(|a, b| blevel[*a.1].total_cmp(&blevel[*b.1]))
            .expect("DAG must have a ready task");
        ready.swap_remove(ri);

        // Worker choice: earliest free. Moldable width: large fronts run
        // parallel BLAS across all workers (WSMP's intra-front parallelism),
        // capped by the task's op count — at the paper's million-row scale
        // tree parallelism carries the bottom of the tree, but near the root
        // (and at our scaled-down sizes, almost everywhere) molding is what
        // produces the multi-thread speedup.
        let mut order: Vec<usize> = (0..workers).collect();
        order.sort_by(|&a, &b| worker_free[a].total_cmp(&worker_free[b]));
        let width = match &moldable {
            Some(m) => {
                let cap = (ops[sn] / m.ops_per_worker).floor().max(1.0) as usize;
                cap.min(workers)
            }
            None => 1,
        };
        let chosen = &order[..width];
        // Task starts when the ready condition holds and all chosen workers
        // are free.
        let start = chosen.iter().map(|&w| worker_free[w]).fold(ready_time[sn], f64::max);
        let dur = match (&moldable, width > 1) {
            (Some(m), true) => durations[sn] / (width as f64).powf(m.efficiency),
            _ => durations[sn],
        };
        let end = start + dur;
        for &w in chosen {
            worker_free[w] = end;
            busy[w] += dur;
        }
        finish[sn] = end;
        scheduled += 1;

        let parent = symbolic.supernodes[sn].parent;
        if parent != usize::MAX {
            pending_children[parent] -= 1;
            ready_time[parent] = ready_time[parent].max(end);
            if pending_children[parent] == 0 {
                ready.push(parent);
            }
        }
    }

    let makespan = finish.iter().fold(0.0f64, |a, &b| a.max(b));
    let critical_path = blevel.iter().fold(0.0f64, |a, &b| a.max(b));
    ScheduleResult { makespan, busy, serial_time, critical_path }
}

/// Simulate a width-1 list schedule of the **combined** tree + tile task
/// DAG on `workers` identical workers — the model behind `exp_table7`'s
/// tiled-vs-tree speedups.
///
/// Every supernode the recorded run executed as CPU P1 whose shape yields
/// a plan under `tiling` is expanded into its tile tasks, with dims-only
/// durations from `cpu`'s kernel curves (the very same curves the drivers
/// charge, so the expansion's serial sum matches the recorded `total` up
/// to rounding). Unexpanded supernodes keep their recorded `total` as one
/// task. Durations follow [`durations_by_supernode`]'s convention (kernel
/// time only), making tree-only and tiled makespans directly comparable.
///
/// No molding: where [`simulate_tree_schedule`] needs the moldable-BLAS
/// *model* to fill idle workers near the root, the tile DAG provides that
/// parallelism explicitly — which is exactly the comparison `exp_table7`
/// draws.
pub fn simulate_tiled_schedule(
    symbolic: &SymbolicFactor,
    stats: &FactorStats,
    tiling: &TilingOptions,
    cpu: &CpuConfig,
    workers: usize,
) -> ScheduleResult {
    let nsn = symbolic.num_supernodes();
    assert!(workers >= 1);
    let mut policy: Vec<Option<PolicyKind>> = vec![None; nsn];
    let mut dur_sn = vec![0.0f64; nsn];
    for r in &stats.records {
        policy[r.sn] = Some(r.policy);
        dur_sn[r.sn] = r.total;
    }
    let mut plans: Vec<Option<TilePlan>> = vec![None; nsn];
    for sn in 0..nsn {
        if policy[sn] == Some(PolicyKind::P1) {
            let info = &symbolic.supernodes[sn];
            plans[sn] = tiling.plan(info.front_size(), info.k());
        }
    }

    // Flatten into one DAG: per supernode either a single node or its tile
    // tasks; tree edges connect a child's terminal nodes to the parent's
    // root node(s).
    let mut base = vec![0usize; nsn];
    let mut dur: Vec<f64> = Vec::new();
    let mut deps: Vec<Vec<usize>> = Vec::new();
    for sn in 0..nsn {
        base[sn] = dur.len();
        match &plans[sn] {
            None => {
                dur.push(dur_sn[sn]);
                deps.push(Vec::new());
            }
            Some(p) => {
                for idx in 0..p.len() {
                    let (kind, m, n, k) = p.charge_args(idx);
                    dur.push(cpu.kernels.curve(kind).time(exact_ops(kind, m, n, k)));
                    deps.push(p.deps[idx].iter().map(|&q| base[sn] + q as usize).collect());
                }
            }
        }
    }
    for sn in 0..nsn {
        let parent = symbolic.supernodes[sn].parent;
        if parent == usize::MAX {
            continue;
        }
        let child_exits: Vec<usize> = match &plans[sn] {
            None => vec![base[sn]],
            Some(p) => p.terminals().iter().map(|&t| base[sn] + t as usize).collect(),
        };
        match &plans[parent] {
            None => deps[base[parent]].extend(&child_exits),
            Some(p) => {
                for (idx, pre) in p.deps.iter().enumerate() {
                    if pre.is_empty() {
                        deps[base[parent] + idx].extend(&child_exits);
                    }
                }
            }
        }
    }

    let n = dur.len();
    let serial_time: f64 = dur.iter().sum();
    let mut indeg: Vec<usize> = deps.iter().map(|d| d.len()).collect();
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (t, pre) in deps.iter().enumerate() {
        for &q in pre {
            dependents[q].push(t);
        }
    }
    // Topological order (Kahn), then bottom levels in reverse.
    let mut topo: Vec<usize> = Vec::with_capacity(n);
    let mut queue: Vec<usize> = (0..n).filter(|&t| indeg[t] == 0).collect();
    let mut remaining = indeg.clone();
    while let Some(t) = queue.pop() {
        topo.push(t);
        for &d in &dependents[t] {
            remaining[d] -= 1;
            if remaining[d] == 0 {
                queue.push(d);
            }
        }
    }
    debug_assert_eq!(topo.len(), n, "combined DAG must be acyclic");
    let mut blevel = vec![0.0f64; n];
    for &t in topo.iter().rev() {
        let down = dependents[t].iter().map(|&d| blevel[d]).fold(0.0f64, f64::max);
        blevel[t] = dur[t] + down;
    }
    let critical_path = blevel.iter().fold(0.0f64, |a, &b| a.max(b));

    // Priority queue on (blevel, reverse id) — deterministic tie-break.
    struct Prio(f64, usize);
    impl PartialEq for Prio {
        fn eq(&self, o: &Self) -> bool {
            self.0 == o.0 && self.1 == o.1
        }
    }
    impl Eq for Prio {}
    impl PartialOrd for Prio {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl Ord for Prio {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&o.0).then(o.1.cmp(&self.1))
        }
    }
    let mut ready = std::collections::BinaryHeap::new();
    for t in 0..n {
        if indeg[t] == 0 {
            ready.push(Prio(blevel[t], t));
        }
    }
    let mut ready_time = vec![0.0f64; n];
    let mut worker_free = vec![0.0f64; workers];
    let mut busy = vec![0.0f64; workers];
    let mut makespan = 0.0f64;
    while let Some(Prio(_, t)) = ready.pop() {
        let w = (0..workers)
            .min_by(|&x, &y| worker_free[x].total_cmp(&worker_free[y]))
            .expect("at least one worker");
        let start = ready_time[t].max(worker_free[w]);
        let end = start + dur[t];
        worker_free[w] = end;
        busy[w] += dur[t];
        makespan = makespan.max(end);
        for &d in &dependents[t] {
            ready_time[d] = ready_time[d].max(end);
            indeg[d] -= 1;
            if indeg[d] == 0 {
                ready.push(Prio(blevel[d], d));
            }
        }
    }
    ScheduleResult { makespan, busy, serial_time, critical_path }
}

/// Per-supernode `(durations, ops)` vectors extracted from a recorded run —
/// exactly the inputs [`simulate_tree_schedule`] wants. The run must have
/// covered every supernode with `record_stats: true`; unrecorded supernodes
/// get zero duration.
pub fn durations_by_supernode(
    symbolic: &SymbolicFactor,
    stats: &FactorStats,
) -> (Vec<f64>, Vec<f64>) {
    let nsn = symbolic.num_supernodes();
    let mut durations = vec![0.0f64; nsn];
    let mut ops = vec![0.0f64; nsn];
    for r in &stats.records {
        durations[r.sn] = r.total;
        ops[r.sn] = FuFlops::new(r.m, r.k).total();
    }
    (durations, ops)
}

/// Options for the wall-clock parallel driver
/// [`factor_permuted_parallel`].
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Total hardware-thread budget shared between tree-level workers and
    /// the dense engine's column-slab threading. Each task grabs
    /// `budget / active_workers` kernel threads for its duration, so leaf
    /// phases (many small fronts in flight) run narrow kernels across many
    /// workers while the root front (last task standing) runs the full-width
    /// kernel alone. Defaults to the machine's available parallelism.
    pub thread_budget: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        let t = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ParallelOptions { thread_budget: t }
    }
}

/// Per-worker mutable state for the parallel driver. Workers never share any
/// of this; the only cross-worker traffic is the buffered update-matrix
/// hand-off between tasks, one mutex-guarded slot per task-level supernode.
struct WorkerCtx<'m, T> {
    machine: &'m mut Machine,
    pool: PinnedPool,
    /// This worker's index — stamped into [`TaskRecord`]s.
    wid: usize,
    /// `(postorder_rank, record)` pairs, merged into postorder at the end.
    records: Vec<(usize, FuRecord)>,
    /// Per-task records at tile granularity, merged at the end.
    tasks: Vec<TaskRecord>,
    oom: usize,
    /// Reusable front storage for the supernodes above the bottom subtrees,
    /// grown to the largest front this worker has run.
    front_buf: Vec<T>,
    /// This worker's LIFO front stack for bottom-subtree tasks, sized for
    /// the largest of them on first use.
    arena: FrontArena<T>,
    /// Reusable extend-add row-relocation scratch.
    rel: Vec<usize>,
    /// Largest front (scalars) this worker assembled.
    peak_front: usize,
    /// Front-storage heap allocations this worker performed.
    allocs: u64,
    /// Pipelined mode: the pipeline of this worker's own device. A front is
    /// flushed in the task that dispatched it (its buffer is the worker's
    /// reusable one), so nothing is ever staged here; only the host waits
    /// and the extraction charges stay outstanding across tasks.
    lane: Lane<T>,
}

/// Factor an already-permuted matrix in parallel across the elimination
/// tree, one worker thread per entry of `machines`.
///
/// The task DAG runs on the `mf-runtime` work-stealing scheduler. Each
/// *bottom subtree* ([`SymbolicFactor::bottom_subtrees`]: CPU fronts whose
/// panels and front stack fit the cache) is **one task** — the serial
/// driver's range loop over the subtree's postorder range, on the worker's
/// own arena — and every supernode above them is a task that its children's
/// tasks release. Each worker owns one [`Machine`] (its simulated CPU+GPU
/// node) and one [`PinnedPool`]; update matrices that cross tasks are
/// buffered and consumed by the parent's extend-add in postorder child rank
/// — the same order and the same [`process_supernode`] body as the serial
/// driver, which makes the result **bitwise identical** to
/// [`crate::factor::factor_permuted`] at every worker count. Pipelined
/// dispatch keeps one task per front.
///
/// Fronts the serial driver would run through the canonical tiled CPU body
/// (P1-selected, at or above [`crate::tile::TilingOptions::min_front`],
/// non-pipelined) are expanded in the task graph into their
/// [`TilePlan`]'s tile DAG bracketed by assemble/extract tasks; tile tasks
/// are pushed onto the executing worker's own deque and stolen by idle
/// siblings. The plan's dependency lists fix the per-tile reduction order
/// (updates applied in ascending pivot-tile order), so the factor bits
/// never depend on the schedule.
///
/// Returned [`FactorStats`]: `records` are merged back into postorder,
/// `total_time` is the maximum per-worker simulated clock, and `wall_time`
/// is the real measured wall-clock of this call — the quantity
/// [`simulate_tree_schedule`]'s makespan predicts.
pub fn factor_permuted_parallel<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
    machines: &mut [Machine],
    opts: &FactorOptions,
    par: &ParallelOptions,
) -> Result<(CholeskyFactor<T>, FactorStats), FactorError> {
    let workers = machines.len();
    assert!(workers >= 1, "need at least one worker machine");
    // Multi-device runs route to the cooperative multi-GPU driver: devices
    // are dealt round-robin over the GPU-bearing machines, and
    // `ParallelOptions` (a tree-level work-stealing knob) does not apply.
    let route = route(opts, machines.iter().any(|m| m.gpu.is_some()));
    if route == Route::MultiGpu {
        return crate::multigpu::factor_permuted_parallel_multigpu(
            a, symbolic, perm, machines, opts,
        );
    }
    let nsn = symbolic.num_supernodes();
    let wall0 = Instant::now();

    // Budgeted runs consume the same deterministic out-of-core schedule as
    // the serial driver: the plan decides residency and which blocks get
    // ladder-degraded; workers only replay its transfers and apply its
    // flags, so the factor bits cannot depend on worker count.
    let ooc_plan = match opts.memory_budget {
        Some(budget) => {
            Some(crate::ooc::plan_ooc(symbolic, T::BYTES, budget, opts.ladder, &opts.tiers)?)
        }
        None => None,
    };

    // Postorder rank of each supernode: its execution position in the
    // serial driver. Used to merge stats and to pick the serial-first error.
    let mut rank = vec![0usize; nsn];
    for (r, &sn) in symbolic.postorder.iter().enumerate() {
        rank[sn] = r;
    }
    let parents: Vec<usize> = symbolic.supernodes.iter().map(|s| s.parent).collect();

    // Pipelined dispatch (per worker, against its own device). Per-call
    // records are not collected in this mode — with fronts overlapping on
    // the device, per-front time attribution is ill-defined.
    let pipelined = route == Route::Pipelined;

    // Intra-front tile expansion: fronts the serial driver runs through the
    // canonical tiled CPU body (`fu_p1` at or above the tiling threshold)
    // get their tile DAG spliced into the task graph, so idle workers steal
    // *inside* the front instead of starving under the root. Eligibility is
    // decided from the symbolic structure and the policy selector alone —
    // deterministic and known before the run starts.
    let mut plans: Vec<Option<TilePlan>> = vec![None; nsn];
    if !pipelined && opts.tiling.enabled {
        for (sn, plan) in plans.iter_mut().enumerate() {
            let info = &symbolic.supernodes[sn];
            if opts.selector.choose(sn, info.m(), info.k()) == PolicyKind::P1 {
                *plan = opts.tiling.plan(info.front_size(), info.k());
            }
        }
    }

    // Bottom subtrees: runs of CPU fronts small enough to stay in cache,
    // each factored front to back by one task. Like tile expansion this is
    // decided from the symbolic structure and the policy selector alone.
    let ranges = if pipelined {
        Vec::new()
    } else {
        symbolic.bottom_subtrees(T::BYTES, |sn| {
            let info = &symbolic.supernodes[sn];
            plans[sn].is_none() && opts.selector.choose(sn, info.m(), info.k()) == PolicyKind::P1
        })
    };

    /// One node of the combined subtree + tree + tile task graph.
    #[derive(Clone, Copy)]
    enum NodeTask {
        /// Bottom subtree `i`: all of `ranges[i]` on the worker's arena.
        Subtree(usize),
        /// An unexpanded supernode: assemble + factor-update + extract.
        Whole(usize),
        /// Assembly (extend-add) of an expanded front.
        Assemble(usize),
        /// Tile task `idx` of an expanded front's [`TilePlan`].
        Tile(usize, u32),
        /// Panel/update extraction of an expanded front — the exit barrier
        /// its parent's entry task waits on.
        Extract(usize),
    }

    // Node ids: the bottom subtrees first; then each unexpanded supernode
    // above them is one `Whole` node and an expanded one contributes
    // `Assemble`, its tile tasks (plan order), then `Extract`, contiguously.
    // `entry_of` is `NO_NODE` inside a subtree except at its root, which
    // stands for the subtree. Tree edges connect a child's exit node to its
    // parent's entry node; tile-DAG edges are the plan's dependency lists
    // shifted to graph ids.
    const NO_NODE: usize = usize::MAX;
    let mut node_of: Vec<NodeTask> = (0..ranges.len()).map(NodeTask::Subtree).collect();
    let mut entry_of = vec![NO_NODE; nsn];
    let mut fused = vec![false; nsn];
    for (i, range) in ranges.iter().enumerate() {
        for &sn in &symbolic.postorder[range.clone()] {
            fused[sn] = true;
        }
        entry_of[symbolic.postorder[range.end - 1]] = i;
    }
    for sn in 0..nsn {
        if fused[sn] {
            continue;
        }
        entry_of[sn] = node_of.len();
        match &plans[sn] {
            None => node_of.push(NodeTask::Whole(sn)),
            Some(p) => {
                node_of.push(NodeTask::Assemble(sn));
                for t in 0..p.len() as u32 {
                    node_of.push(NodeTask::Tile(sn, t));
                }
                node_of.push(NodeTask::Extract(sn));
            }
        }
    }
    let exit_of = |sn: usize| entry_of[sn] + plans[sn].as_ref().map_or(0, |p| p.len() + 1);
    // Serial execution position of a node's (first) front: picks the error
    // the serial driver would have hit first.
    let rank_of = |t: usize| match node_of[t] {
        NodeTask::Subtree(i) => ranges[i].start,
        NodeTask::Whole(sn)
        | NodeTask::Assemble(sn)
        | NodeTask::Tile(sn, _)
        | NodeTask::Extract(sn) => rank[sn],
    };
    let mut graph = TaskGraph::new(node_of.len());
    for sn in 0..nsn {
        if entry_of[sn] == NO_NODE {
            continue;
        }
        if parents[sn] != usize::MAX {
            graph.add_dependency(entry_of[parents[sn]], exit_of(sn));
        }
        if let Some(p) = &plans[sn] {
            let base = entry_of[sn] + 1;
            for (t, pre) in p.deps.iter().enumerate() {
                if pre.is_empty() {
                    graph.add_dependency(base + t, entry_of[sn]);
                }
                for &q in pre {
                    graph.add_dependency(base + t, base + q as usize);
                }
            }
            let exit = exit_of(sn);
            for t in p.terminals() {
                graph.add_dependency(exit, base + t as usize);
            }
        }
    }
    let graph = graph;

    // Factor storage: one contiguous slab; workers write their supernode's
    // panel region in place (regions are disjoint by construction).
    let panel_ptr = symbolic.panel_ptr();
    let mut slab = vec![T::ZERO; symbolic.factor_slab_len()];
    let slab_view = SharedSlice::new(&mut slab);

    // Dedicated storage for expanded fronts. Tile tasks on several workers
    // address one front concurrently, so these fronts cannot live in any
    // single worker's reusable buffer: each gets its own heap buffer behind
    // a raw [`FrontView`] for the whole run (assembly and extraction bound
    // its actual lifetime through the task graph).
    let mut tile_bufs: Vec<Vec<T>> = Vec::new();
    let mut views: Vec<Option<FrontView<T>>> = vec![None; nsn];
    for sn in 0..nsn {
        if let Some(p) = &plans[sn] {
            let mut buf = vec![T::ZERO; p.s * p.s];
            views[sn] = Some(FrontView::new(&mut buf, p.s));
            tile_bufs.push(buf);
        }
    }

    // Hand-off buffers, one slot per task node; the update of a supernode
    // that crosses tasks (a subtree root, or anything above the subtrees)
    // sits in the slot of its exit node. A slot is written exactly once (by
    // the worker that ran the child) and taken exactly once (by the worker
    // that runs the parent, after the dependency counter ordered the two),
    // so the mutexes are uncontended in practice. Cross-worker updates
    // cannot obey one worker's stack discipline, so they travel in
    // transient per-edge buffers dropped after the parent's extend-add (the
    // system allocator's thread cache recycles them more cheaply than an
    // explicit free list here); update rows come from the shared symbolic
    // structure.
    let updates: Vec<Mutex<Option<Vec<T>>>> =
        (0..node_of.len()).map(|_| Mutex::new(None)).collect();
    let take_update =
        |c: usize| updates[exit_of(c)].lock().unwrap_or_else(|poison| poison.into_inner()).take();
    let put_update = |sn: usize, u: Vec<T>| {
        *updates[exit_of(sn)].lock().unwrap_or_else(|poison| poison.into_inner()) = Some(u);
    };
    // The end of a task-level supernode: its panel is in the slab and its
    // packed update goes to the parent's task, both as the out-of-core plan
    // stores them.
    let hand_off = |sn: usize, panel: &mut [T], mut update: Option<Vec<T>>, allocs: &mut u64| {
        if let Some(plan) = &ooc_plan {
            plan.finish_front(sn, panel, update.as_deref_mut().unwrap_or_default());
        }
        if let Some(u) = update {
            *allocs += 1;
            put_update(sn, u);
        }
    };

    // One arena length serves every bottom subtree: the subtree constant
    // bounds their stack peaks (and the whole forest's peak bounds them too).
    let arena_len = (BOTTOM_SUBTREE_BYTES / T::BYTES).min(symbolic.update_stack_peak());
    let front_run = FrontRun { a, symbolic, opts, ooc_plan: ooc_plan.as_ref() };

    let budget = ThreadBudget::new(par.thread_budget);
    let saved_cap = mf_dense::thread_cap();

    let states: Vec<WorkerCtx<'_, T>> = machines
        .iter_mut()
        .enumerate()
        .map(|(wid, machine)| {
            machine.set_recording(opts.record_stats && !(pipelined && machine.gpu.is_some()));
            WorkerCtx {
                machine,
                pool: pinned_pool(opts),
                wid,
                records: Vec::new(),
                tasks: Vec::new(),
                oom: 0,
                front_buf: Vec::new(),
                arena: FrontArena::with_len(0),
                rel: Vec::new(),
                peak_front: 0,
                allocs: 0,
                lane: Lane::new(),
            }
        })
        .collect();

    let runtime = Runtime::new(workers);
    let (mut states, errors) = runtime.run(&graph, states, |st: &mut WorkerCtx<'_, T>, t| {
        // Budgeted runs replay the supernode's planned spill transfers on
        // the executing worker's clock at its entry task.
        if let Some(plan) = &ooc_plan {
            if let NodeTask::Whole(sn) | NodeTask::Assemble(sn) = node_of[t] {
                plan.begin_front(plan.rank[sn], st.machine, opts);
            }
        }
        let sn = match node_of[t] {
            NodeTask::Subtree(i) => {
                // The serial driver's loop over this subtree's postorder
                // range, on this worker's arena; only the root's update
                // leaves the task.
                let range = ranges[i].clone();
                if st.arena.capacity() < arena_len {
                    st.allocs += 1;
                    st.arena = FrontArena::with_len(arena_len);
                }
                st.arena.clear();
                let width = budget.begin();
                let (records, tasks, oom, wid) =
                    (&mut st.records, &mut st.tasks, &mut st.oom, st.wid);
                let done = front_run.factor_range(
                    range.clone(),
                    &mut st.arena,
                    &slab_view,
                    &mut st.rel,
                    st.machine,
                    &mut st.pool,
                    Some(width),
                    |r, sn, out| {
                        *oom += usize::from(out.oom_fallback);
                        if let Some(rec) = out.record {
                            tasks.push(TaskRecord {
                                sn,
                                worker: wid,
                                kind: TaskKind::Whole,
                                seq: 0,
                                duration: rec.total,
                            });
                            records.push((r, rec));
                        }
                    },
                );
                budget.end();
                done?;
                st.peak_front = st.peak_front.max(st.arena.high_water());
                let root = symbolic.postorder[range.end - 1];
                let m = symbolic.supernodes[root].m();
                if m > 0 {
                    st.allocs += 1;
                    put_update(root, st.arena.update_at(0, m).to_vec());
                }
                return Ok(());
            }
            NodeTask::Whole(sn) => sn,
            NodeTask::Assemble(sn) => {
                // Gather buffered child updates in postorder child rank and
                // extend-add into the front's dedicated buffer — exactly the
                // serial assembly, just hoisted into its own task so tile
                // tasks can start the moment it completes.
                let child_bufs = take_children(symbolic, sn, take_update)?;
                let view = views[sn].expect("expanded front has a view");
                // SAFETY: the task graph orders this task before every tile
                // task of `sn`; nothing else touches the buffer yet.
                let front_data = unsafe { view.as_mut_slice() };
                let t0 = st.machine.host.now();
                let host = &mut st.machine.host;
                assemble_owned(a, symbolic, sn, &child_bufs, front_data, &mut st.rel, host);
                if opts.record_stats {
                    let _ = st.machine.take_records();
                    st.tasks.push(TaskRecord {
                        sn,
                        worker: st.wid,
                        kind: TaskKind::Assemble,
                        seq: 0,
                        duration: st.machine.host.now() - t0,
                    });
                }
                return Ok(());
            }
            NodeTask::Tile(sn, idx) => {
                let plan = plans[sn].as_ref().expect("expanded front has a plan");
                let view = views[sn].expect("expanded front has a view");
                let idx = idx as usize;
                // Tile kernels thread through the dense engine's global cap,
                // arbitrated by the same budget as whole-supernode tasks —
                // the two parallelism layers never oversubscribe.
                let width = budget.begin();
                mf_dense::set_num_threads(width);
                // SAFETY: the graph embeds the plan's dependency lists, so
                // every task ordered against `idx` has completed and no
                // conflicting task runs concurrently.
                let r = unsafe { exec_tile_task(view, plan, idx, &mut st.machine.host, false) };
                budget.end();
                if opts.record_stats {
                    let _ = st.machine.take_records();
                }
                match r {
                    Ok(duration) => {
                        if opts.record_stats {
                            let kind = match plan.tasks[idx] {
                                TileKernel::Potrf { .. } => TaskKind::Potrf,
                                TileKernel::Trsm { .. } => TaskKind::Trsm,
                                TileKernel::Syrk { .. } => TaskKind::Syrk,
                                TileKernel::Gemm { .. } => TaskKind::Gemm,
                            };
                            st.tasks.push(TaskRecord {
                                sn,
                                worker: st.wid,
                                kind,
                                seq: idx + 1,
                                duration,
                            });
                        }
                        return Ok(());
                    }
                    Err(e) => {
                        return Err(fu_err_to_factor(symbolic.supernodes[sn].col_start, e));
                    }
                }
            }
            NodeTask::Extract(sn) => {
                let info = &symbolic.supernodes[sn];
                let (s, k, m) = (info.front_size(), info.k(), info.m());
                let plan_len = plans[sn].as_ref().expect("expanded front has a plan").len();
                let view = views[sn].expect("expanded front has a view");
                // SAFETY: ordered after every tile task of `sn`; the buffer
                // is this task's alone from here on.
                let front_data = unsafe { view.as_mut_slice() };
                // SAFETY: this supernode's panel region belongs to this
                // task alone.
                let panel_out = unsafe {
                    slab_view.slice_mut(panel_ptr[sn], panel_ptr[sn + 1] - panel_ptr[sn])
                };
                let t0 = st.machine.host.now();
                {
                    let front = Front { s, k, data: &mut *front_data };
                    extract_panel_into(&front, panel_out, &mut st.machine.host);
                }
                charge_update_extract::<T>(m, &mut st.machine.host);
                hand_off(sn, panel_out, packed_update(front_data, s, k), &mut st.allocs);
                if opts.record_stats {
                    let _ = st.machine.take_records();
                    st.tasks.push(TaskRecord {
                        sn,
                        worker: st.wid,
                        kind: TaskKind::Extract,
                        seq: plan_len + 1,
                        duration: st.machine.host.now() - t0,
                    });
                }
                return Ok(());
            }
        };
        let info = &symbolic.supernodes[sn];
        let (s, k, m) = (info.front_size(), info.k(), info.m());
        // Gather buffered child updates in postorder child rank — the order
        // the serial driver consumes them, which keeps the extend-add
        // reduction (and hence the factor bits) identical. The dependency
        // counters guarantee every slot is filled before this task runs; a
        // missing or poisoned slot means a worker died mid-task, which is
        // surfaced as a structured error (still selected by minimal
        // postorder rank below) rather than a cascading panic.
        let kids = symbolic.children(sn);
        let on_gpu = pipelined && st.machine.gpu.is_some();
        if on_gpu {
            // Event-wait on this worker's in-flight fronts that are
            // children of `sn` — a wait on each child's d2h completion
            // event, not a device drain. Children run by other workers
            // carry no timing edge here: worker timelines are independent,
            // exactly as in the drain parallel driver.
            let mut ctx = fu_ctx(st.machine, &mut st.pool, opts, None, false);
            st.lane.finish_holding(|c| kids.contains(&c), &mut ctx);
        }
        let child_bufs = take_children(symbolic, sn, take_update)?;
        // Grow this worker's reusable buffer to the largest front it has
        // seen — most workers never run the root, so lazy growth keeps each
        // buffer at its own subtree's maximum. Reuse without re-zeroing is
        // safe: assembly re-zeroes the lower trapezoid it references and
        // nothing reads the rest.
        if st.front_buf.len() < s * s {
            st.allocs += 1;
            st.front_buf = vec![T::ZERO; s * s];
        }
        let front_data = &mut st.front_buf[..s * s];
        st.peak_front = st.peak_front.max(s * s);
        // SAFETY: this supernode's panel region belongs to this task alone.
        let panel_out =
            unsafe { slab_view.slice_mut(panel_ptr[sn], panel_ptr[sn + 1] - panel_ptr[sn]) };
        let width = budget.begin();
        if on_gpu {
            // Pipelined per-worker dispatch, the lifecycle of `crate::lane`
            // against this worker's device: phases 1+2 run here; the
            // host-blocking phase 3 is deferred until a dependent task, the
            // window, or the end-of-run drain forces it — so this worker's
            // CPU work on later tasks overlaps its own device.
            let host = &mut st.machine.host;
            let mut front =
                assemble_owned(a, symbolic, sn, &child_bufs, front_data, &mut st.rel, host);
            let allocs = &mut st.allocs;
            let mut sink = |sn: usize, front: &Front<'_, T>| {
                let update = extract_front(front, panel_out);
                hand_off(sn, panel_out, update, allocs);
            };
            let policy = opts.selector.choose(sn, m, k);
            let mut ctx = fu_ctx(st.machine, &mut st.pool, opts, Some(width), false);
            let done = st.lane.dispatch(&mut front, policy, &mut ctx, &mut sink).map(|pending| {
                st.oom += usize::from(pending.oom_fallback());
                if pending.is_done() {
                    extract_inline(sn, &front, &mut ctx, &mut sink);
                } else {
                    st.lane.flush_front(sn, &mut front, pending, false, &mut ctx, &mut sink);
                    st.lane.enforce_window(PIPELINE_DEPTH, &mut ctx);
                }
            });
            budget.end();
            return done.map_err(|e| fu_err_to_factor(info.col_start, e));
        }
        let out = process_supernode(
            a,
            symbolic,
            sn,
            child_views(symbolic, sn, &child_bufs),
            front_data,
            panel_out,
            &mut st.rel,
            st.machine,
            &mut st.pool,
            opts,
            Some(width),
        );
        budget.end();
        let out = out?;
        if out.oom_fallback {
            st.oom += 1;
        }
        if let Some(rec) = out.record {
            st.tasks.push(TaskRecord {
                sn,
                worker: st.wid,
                kind: TaskKind::Whole,
                seq: 0,
                duration: rec.total,
            });
            st.records.push((rank[sn], rec));
        }
        hand_off(sn, panel_out, packed_update(front_data, s, k), &mut st.allocs);
        Ok(())
    });

    // Workers widened the process-global dense-engine cap while running;
    // restore whatever the caller had configured.
    mf_dense::set_num_threads(saved_cap);

    // Pipelined mode: drain any fronts still in flight (timing only — the
    // data landed at enqueue time), so per-worker clocks include their d2h
    // completions and every device comes back empty, error or not.
    for st in states.iter_mut() {
        let mut ctx = fu_ctx(st.machine, &mut st.pool, opts, None, false);
        st.lane.enforce_window(0, &mut ctx);
    }

    // front_alloc_events starts at 1 for the factor slab, plus one
    // dedicated buffer per tile-expanded front.
    let mut stats =
        FactorStats { front_alloc_events: 1 + tile_bufs.len() as u64, ..Default::default() };
    for p in plans.iter().flatten() {
        stats.peak_front_bytes = stats.peak_front_bytes.max(p.s * p.s * T::BYTES);
    }
    for st in states.iter_mut() {
        stats.total_time = stats.total_time.max(st.machine.elapsed());
        stats.oom_fallbacks += st.oom;
        stats.peak_front_bytes = stats.peak_front_bytes.max(st.peak_front * T::BYTES);
        stats.front_alloc_events += st.allocs;
        st.machine.set_recording(false);
    }
    // Aggregate GPU engine accounting across worker devices, measured
    // against the run's makespan (busy seconds sum; `gpus` counts devices,
    // so utilization stays normalised per engine).
    stats.gpu = states.iter().fold(None::<GpuUtilization>, |acc, st| {
        match (acc, st.machine.gpu.as_ref()) {
            (None, Some(g)) => Some(g.utilization(stats.total_time)),
            (Some(mut u), Some(g)) => {
                u.merge(&g.utilization(stats.total_time));
                Some(u)
            }
            (acc, None) => acc,
        }
    });
    // On failure report the error the serial driver would have hit first:
    // minimal postorder rank, then minimal task id — within one expanded
    // front task ids follow the canonical tile order, and the pivot-tile
    // chain guarantees the earliest failing pivot tile is the one that ran.
    if let Some((_, err)) = errors.into_iter().min_by_key(|&(t, _)| (rank_of(t), t)) {
        return Err(err);
    }
    // Synthesize one FuRecord per expanded front from its task records so
    // `records` covers every supernode exactly as the serial driver does:
    // kernel buckets summed by kind, `total` the sum of tile-kernel
    // durations (the serial body's t0→t1 span), extraction excluded
    // (`t_copy = 0` on the CPU path, as in the serial record).
    let mut task_records: Vec<TaskRecord> =
        states.iter_mut().flat_map(|st| std::mem::take(&mut st.tasks)).collect();
    task_records.sort_by(|x, y| (rank[x.sn], x.seq).cmp(&(rank[y.sn], y.seq)));
    let mut synth: Vec<(usize, FuRecord)> = Vec::new();
    let mut i = 0;
    while i < task_records.len() {
        let sn = task_records[i].sn;
        let mut j = i;
        while j < task_records.len() && task_records[j].sn == sn {
            j += 1;
        }
        if plans[sn].is_some() {
            let info = &symbolic.supernodes[sn];
            let mut rec = FuRecord {
                sn,
                m: info.m(),
                k: info.k(),
                policy: PolicyKind::P1,
                total: 0.0,
                t_potrf: 0.0,
                t_trsm: 0.0,
                t_syrk: 0.0,
                t_copy: 0.0,
                t_assemble: 0.0,
            };
            for t in &task_records[i..j] {
                match t.kind {
                    TaskKind::Assemble => rec.t_assemble += t.duration,
                    TaskKind::Potrf => {
                        rec.t_potrf += t.duration;
                        rec.total += t.duration;
                    }
                    TaskKind::Trsm => {
                        rec.t_trsm += t.duration;
                        rec.total += t.duration;
                    }
                    TaskKind::Syrk | TaskKind::Gemm => {
                        rec.t_syrk += t.duration;
                        rec.total += t.duration;
                    }
                    TaskKind::Whole | TaskKind::Extract => {}
                }
            }
            synth.push((rank[sn], rec));
        }
        i = j;
    }
    stats.tasks = task_records;
    let mut buffers: Vec<Vec<(usize, FuRecord)>> =
        states.iter_mut().map(|st| std::mem::take(&mut st.records)).collect();
    buffers.push(synth);
    stats.merge_worker_records(buffers);
    stats.ooc = ooc_plan.map(|p| p.stats);
    stats.wall_time = wall0.elapsed().as_secs_f64();
    drop(states);
    drop(tile_bufs);

    Ok((CholeskyFactor { symbolic: symbolic.clone(), perm: perm.clone(), slab }, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_matgen::{laplacian_2d, laplacian_3d, Stencil};
    use mf_sparse::symbolic::analyze;
    use mf_sparse::{AmalgamationOptions, OrderingKind};

    fn symbolic_3d() -> SymbolicFactor {
        let a = laplacian_3d(8, 8, 8, Stencil::Faces);
        analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
            .unwrap()
            .symbolic
    }

    fn uniform_durations(sym: &SymbolicFactor) -> (Vec<f64>, Vec<f64>) {
        let d: Vec<f64> = sym.supernodes.iter().map(|s| 1e-4 + s.flops().total() / 1e10).collect();
        let o: Vec<f64> = sym.supernodes.iter().map(|s| s.flops().total()).collect();
        (d, o)
    }

    #[test]
    fn one_worker_equals_serial() {
        let sym = symbolic_3d();
        let (d, o) = uniform_durations(&sym);
        let r = simulate_tree_schedule(&sym, &d, &o, 1, None);
        assert!((r.makespan - r.serial_time).abs() < 1e-9);
        assert!((r.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_workers_never_slower() {
        let sym = symbolic_3d();
        let (d, o) = uniform_durations(&sym);
        let mut prev = f64::INFINITY;
        for w in [1, 2, 4, 8] {
            let r = simulate_tree_schedule(&sym, &d, &o, w, None);
            assert!(r.makespan <= prev + 1e-12, "{w} workers slower");
            prev = r.makespan;
        }
    }

    #[test]
    fn speedup_bounded_by_critical_path_without_molding() {
        let sym = symbolic_3d();
        let (d, o) = uniform_durations(&sym);
        // Critical path = max over leaves of root-to-leaf duration chain.
        let mut cp = vec![0.0f64; sym.num_supernodes()];
        for &sn in sym.postorder.iter().rev() {
            let p = sym.supernodes[sn].parent;
            cp[sn] = d[sn] + if p == usize::MAX { 0.0 } else { cp[p] };
        }
        let critical: f64 = cp.iter().fold(0.0f64, |a, &b| a.max(b));
        let r = simulate_tree_schedule(&sym, &d, &o, 64, None);
        assert!(r.makespan >= critical - 1e-12);
    }

    #[test]
    fn molding_beats_tree_only_parallelism() {
        // Craft a workload whose root front dominates (the situation near
        // the top of a large 3-D elimination tree): molding must shorten it.
        let sym = symbolic_3d();
        let (mut d, mut o) = uniform_durations(&sym);
        let root = *sym.postorder.last().unwrap();
        d[root] = d.iter().sum::<f64>(); // root as heavy as everything else
        o[root] = 1e9;
        let plain = simulate_tree_schedule(&sym, &d, &o, 4, None);
        let model = MoldableModel { efficiency: 0.9, ops_per_worker: 1e7 };
        let molded = simulate_tree_schedule(&sym, &d, &o, 4, Some(model));
        assert!(
            molded.makespan < plain.makespan,
            "molding should shorten the root bottleneck: {} vs {}",
            molded.makespan,
            plain.makespan
        );
    }

    #[test]
    fn four_thread_speedup_in_papers_range() {
        // The paper's 4-thread WSMP column shows 2.7–4.3× on 3-D problems.
        let sym = symbolic_3d();
        let (d, o) = uniform_durations(&sym);
        let model = MoldableModel { efficiency: 0.9, ops_per_worker: 1e4 };
        let r = simulate_tree_schedule(&sym, &d, &o, 4, Some(model));
        let s = r.speedup();
        assert!(s > 2.0 && s <= 4.0, "4-worker speedup {s}");
    }

    #[test]
    fn chain_tree_gains_only_from_molding() {
        // A pure chain (tridiagonal-like) has no tree parallelism at all.
        let a = laplacian_2d(60, 1, Stencil::Faces);
        let sym = analyze(&a, OrderingKind::Natural, None).unwrap().symbolic;
        let d: Vec<f64> = vec![1.0; sym.num_supernodes()];
        let o: Vec<f64> = vec![1.0; sym.num_supernodes()];
        let r = simulate_tree_schedule(&sym, &d, &o, 4, None);
        assert!((r.makespan - r.serial_time).abs() < 1e-9, "chain must serialise");
    }

    #[test]
    fn utilization_at_most_one() {
        let sym = symbolic_3d();
        let (d, o) = uniform_durations(&sym);
        for w in [1, 2, 4] {
            let r = simulate_tree_schedule(&sym, &d, &o, w, Some(MoldableModel::default()));
            assert!(r.utilization() <= 1.0 + 1e-9);
            assert!(r.utilization() > 0.2);
        }
    }

    use crate::factor::factor_permuted;
    use crate::policy::BaselineThresholds;
    use crate::PolicySelector;

    fn machines(n: usize) -> Vec<Machine> {
        (0..n).map(|_| Machine::paper_node()).collect()
    }

    #[test]
    fn parallel_factor_is_bitwise_serial() {
        let a = laplacian_2d(14, 11, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let opts = FactorOptions {
            selector: PolicySelector::Baseline(BaselineThresholds::default()),
            record_stats: true,
            ..Default::default()
        };
        let mut serial = Machine::paper_node();
        let (fs, ss) = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut serial,
            &opts,
        )
        .unwrap();
        for w in [1usize, 3] {
            let mut ms = machines(w);
            let (fp, sp) = factor_permuted_parallel(
                &analysis.permuted.0,
                &analysis.symbolic,
                &analysis.perm,
                &mut ms,
                &opts,
                &ParallelOptions { thread_budget: 2 },
            )
            .unwrap();
            assert_eq!(fs.slab.len(), fp.slab.len());
            assert!(fs.slab.iter().zip(&fp.slab).all(|(x, y)| x.to_bits() == y.to_bits()));
            // Stats merge back into postorder, covering every supernode.
            assert_eq!(sp.records.len(), ss.records.len());
            assert!(sp.records.iter().zip(&ss.records).all(|(x, y)| x.sn == y.sn));
            assert!(sp.total_time > 0.0);
            assert!(sp.wall_time > 0.0);
        }
    }

    #[test]
    fn tiled_simulation_respects_bounds_and_beats_tree_only() {
        use crate::tile::TilingOptions;
        let a = laplacian_3d(9, 9, 9, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let opts = FactorOptions {
            selector: PolicySelector::Fixed(PolicyKind::P1),
            record_stats: true,
            tiling: TilingOptions { enabled: true, tile: 16, min_front: 48 },
            ..Default::default()
        };
        let mut machine = Machine::paper_node();
        let (_, stats) = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &opts,
        )
        .unwrap();
        let cpu = machine.host.config().clone();
        let (d, o) = durations_by_supernode(&analysis.symbolic, &stats);
        let mut prev = f64::INFINITY;
        for w in [1usize, 2, 4, 8] {
            let r = simulate_tiled_schedule(&analysis.symbolic, &stats, &opts.tiling, &cpu, w);
            assert!(
                r.critical_path <= r.makespan + 1e-12 && r.makespan <= r.serial_time + 1e-12,
                "bounds violated at {w} workers: cp={} mk={} ser={}",
                r.critical_path,
                r.makespan,
                r.serial_time
            );
            assert!(r.makespan <= prev + 1e-12, "{w} workers slower than fewer");
            prev = r.makespan;
            if w == 1 {
                assert!(
                    (r.makespan - r.serial_time).abs() <= 1e-9 * r.serial_time,
                    "1 worker must serialise"
                );
            }
            // The tile DAG's expanded serial time tracks the recorded
            // per-front totals (same curves, same shapes).
            let rec_serial: f64 = d.iter().sum();
            assert!(
                (r.serial_time - rec_serial).abs() <= 1e-6 * rec_serial,
                "expanded serial {} vs recorded {}",
                r.serial_time,
                rec_serial
            );
            if w == 8 {
                let tree = simulate_tree_schedule(&analysis.symbolic, &d, &o, w, None);
                assert!(
                    r.speedup() > tree.speedup(),
                    "tile DAG must beat tree-only at {w} workers: {} vs {}",
                    r.speedup(),
                    tree.speedup()
                );
            }
        }
    }

    #[test]
    fn parallel_tiled_expansion_is_bitwise_serial() {
        use crate::tile::TilingOptions;
        let a = laplacian_3d(7, 7, 7, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let opts = FactorOptions {
            selector: PolicySelector::Fixed(PolicyKind::P1),
            record_stats: true,
            tiling: TilingOptions { enabled: true, tile: 8, min_front: 24 },
            ..Default::default()
        };
        // The lowered threshold must actually expand some fronts.
        let expanded = analysis
            .symbolic
            .supernodes
            .iter()
            .filter(|s| opts.tiling.plan(s.front_size(), s.k()).is_some())
            .count();
        assert!(expanded > 0, "test must cover the expanded path");
        let mut serial = Machine::paper_node();
        let (fs, ss) = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut serial,
            &opts,
        )
        .unwrap();
        for w in [1usize, 2, 4] {
            let mut ms = machines(w);
            let (fp, sp) = factor_permuted_parallel(
                &analysis.permuted.0,
                &analysis.symbolic,
                &analysis.perm,
                &mut ms,
                &opts,
                &ParallelOptions { thread_budget: 2 },
            )
            .unwrap();
            assert!(
                fs.slab.iter().zip(&fp.slab).all(|(x, y)| x.to_bits() == y.to_bits()),
                "tiled parallel ({w} workers) must be bitwise-identical to serial"
            );
            // Synthesized per-front records restore full serial coverage.
            assert_eq!(sp.records.len(), ss.records.len());
            assert!(sp
                .records
                .iter()
                .zip(&ss.records)
                .all(|(x, y)| x.sn == y.sn && x.policy == y.policy));
            // Task records: one assemble + one extract per expanded front,
            // tile tasks in between, all stamped with a valid worker.
            use crate::stats::TaskKind;
            let n_assemble = sp.tasks.iter().filter(|t| t.kind == TaskKind::Assemble).count();
            let n_extract = sp.tasks.iter().filter(|t| t.kind == TaskKind::Extract).count();
            assert_eq!(n_assemble, expanded);
            assert_eq!(n_extract, expanded);
            assert!(sp.tasks.iter().all(|t| t.worker < w));
            let tile_time: f64 = sp
                .tasks
                .iter()
                .filter(|t| {
                    matches!(
                        t.kind,
                        TaskKind::Potrf | TaskKind::Trsm | TaskKind::Syrk | TaskKind::Gemm
                    )
                })
                .map(|t| t.duration)
                .sum();
            assert!(tile_time > 0.0, "tile tasks must charge kernel time");
        }
    }

    #[test]
    fn parallel_error_matches_serial_column() {
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
        let mut ms = machines(2);
        let err = factor_permuted_parallel(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut ms,
            &FactorOptions::default(),
            &ParallelOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, crate::FactorError::NotPositiveDefinite { column: 3 });
    }

    #[test]
    fn parallel_pipelined_is_bitwise_drain() {
        use crate::factor::PipelineOptions;
        use crate::policy::PolicyKind;
        let a = laplacian_3d(6, 6, 5, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let drain =
            FactorOptions { selector: PolicySelector::Fixed(PolicyKind::P4), ..Default::default() };
        let piped = FactorOptions { pipeline: PipelineOptions::pipelined(), ..drain.clone() };
        let mut serial = Machine::paper_node();
        let (fs, _) = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut serial,
            &drain,
        )
        .unwrap();
        for w in [1usize, 2, 4] {
            let mut ms = machines(w);
            let (fp, sp) = factor_permuted_parallel(
                &analysis.permuted.0,
                &analysis.symbolic,
                &analysis.perm,
                &mut ms,
                &piped,
                &ParallelOptions { thread_budget: 2 },
            )
            .unwrap();
            assert_eq!(fs.slab.len(), fp.slab.len());
            assert!(
                fs.slab.iter().zip(&fp.slab).all(|(x, y)| x.to_bits() == y.to_bits()),
                "pipelined parallel ({w} workers) must be bitwise-identical to serial drain"
            );
            let gpu = sp.gpu.expect("GPU utilization must be aggregated");
            assert_eq!(gpu.gpus, w, "one device per worker");
            assert!(gpu.busy_fraction() > 0.0 && gpu.busy_fraction() <= 1.0 + 1e-9);
            assert!(sp.total_time > 0.0);
        }
    }

    #[test]
    fn durations_cover_recorded_run() {
        let a = laplacian_2d(10, 10, Stencil::Faces);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let mut machine = Machine::paper_node();
        let opts = FactorOptions { record_stats: true, ..Default::default() };
        let (_, stats) = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &opts,
        )
        .unwrap();
        let (d, o) = durations_by_supernode(&analysis.symbolic, &stats);
        assert_eq!(d.len(), analysis.symbolic.num_supernodes());
        assert!(d.iter().all(|&x| x > 0.0));
        assert!(o.iter().all(|&x| x > 0.0));
        let total: f64 = d.iter().sum();
        assert!((total - stats.sum(|r| r.total)).abs() < 1e-12);
    }
}
