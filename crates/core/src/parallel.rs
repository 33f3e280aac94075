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
//!    factorization on the `mf-runtime` work-stealing scheduler. A task is a
//!    run of the postorder: a *bottom subtree* (CPU fronts whose panels and
//!    front stack fit the cache), or one supernode above them. Each task's
//!    remaining-children counter releases its parent; update matrices that
//!    cross tasks are buffered and extend-added in postorder child rank (so
//!    the factor is **bitwise identical** to
//!    [`factor_permuted`](crate::factor::factor_permuted) at every worker
//!    count), and a shared [`ThreadBudget`] arbitrates hardware threads
//!    between tree-level workers and the dense engine's column-slab
//!    threading — the one intra-front parallelism mechanism: the last
//!    task standing near the root runs its kernels at the full budget.
//!
//! This module owns the task partition ([`RangeTasks`], which the parallel
//! solve sweeps share), the hand-off slots between tasks and the per-worker
//! state. What a task does to its fronts is not its own: every task is the
//! arena loop of [`crate::factor`] (`FrontRun::factor_range`, the drain
//! schedule) on the worker's arena. Pipelined and multi-device runs keep
//! fronts in flight on one host timeline, so the entry hands them to
//! [`factor_permuted`](crate::factor::factor_permuted).
//!
//! The model predicts simulated makespans from simulated durations; the
//! runtime measures wall time: `benchmark/`'s `plate2d_par2` workload
//! reports it as `runtime.par2_speedup.*`.

use crate::arena::FrontArena;
use crate::factor::{
    factor_permuted, ooc_plan, pinned_pool, route, stop_recording, CholeskyFactor, FactorError,
    FactorOptions, FrontRun, Route, SharedSlice,
};
use crate::lane::take_children;
use crate::pinned_pool::PinnedPool;
use crate::policy::PolicyKind;
use crate::stats::{FactorStats, FuRecord};
use mf_dense::{FuFlops, Scalar};
use mf_gpusim::{GpuUtilization, Machine};
use mf_runtime::{Runtime, TaskGraph, ThreadBudget};
use mf_sparse::symbolic::{SymbolicFactor, BOTTOM_SUBTREE_BYTES};
use mf_sparse::{Permutation, SymCsc};
use std::ops::Range;
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
    /// Longest dependency chain (duration-weighted, unmolded). Without
    /// molding `critical_path ≤ makespan ≤ serial_time`; a molded schedule
    /// shortens a chain by at most `workers^efficiency`.
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

/// The tasks of a work-stealing run over the elimination tree, shared by the
/// parallel factor and both parallel solve sweeps. Every task is a run of
/// the postorder: a bottom subtree, or one supernode above them. A range's
/// first front has no child inside the range — a subtree starts at a leaf —
/// so one range loop runs every task, its first front consuming what its
/// children's tasks handed over.
pub(crate) struct RangeTasks {
    /// Postorder positions of each task: the bottom subtrees in range order,
    /// then one per remaining supernode in ascending supernode id. At one
    /// worker the runtime pops ready tasks by id, so this numbering fixes the
    /// one-worker clock.
    pub ranges: Vec<Range<usize>>,
    /// Parent task of each task (`usize::MAX` at the roots).
    pub parents: Vec<usize>,
    /// Per supernode: the task whose range it ends; `usize::MAX` elsewhere.
    pub task_of: Vec<usize>,
}

impl RangeTasks {
    /// The tasks around `subtrees`, a [`SymbolicFactor::bottom_subtrees`]
    /// result.
    pub(crate) fn new(symbolic: &SymbolicFactor, subtrees: Vec<Range<usize>>) -> Self {
        let post = &symbolic.postorder;
        let nsn = post.len();
        // Postorder position of every supernode above the subtrees.
        let mut above = vec![usize::MAX; nsn];
        for (r, &sn) in post.iter().enumerate() {
            above[sn] = r;
        }
        for &sn in subtrees.iter().flat_map(|range| &post[range.clone()]) {
            above[sn] = usize::MAX;
        }
        let mut ranges = subtrees;
        ranges.extend(above.into_iter().filter(|&r| r != usize::MAX).map(|r| r..r + 1));
        let mut task_of = vec![usize::MAX; nsn];
        for (t, range) in ranges.iter().enumerate() {
            task_of[post[range.end - 1]] = t;
        }
        let parents = ranges
            .iter()
            .map(|range| match symbolic.supernodes[post[range.end - 1]].parent {
                usize::MAX => usize::MAX,
                p => task_of[p],
            })
            .collect();
        RangeTasks { ranges, parents, task_of }
    }
}

/// Per-worker mutable state for the parallel driver. Workers never share any
/// of this; the only cross-worker traffic is the buffered update-matrix
/// hand-off between tasks, one mutex-guarded slot per task.
struct WorkerCtx<'m, T> {
    machine: &'m mut Machine,
    pool: PinnedPool,
    /// `(postorder_rank, record)` pairs, merged into postorder at the end.
    records: Vec<(usize, FuRecord)>,
    oom: usize,
    /// This worker's LIFO front stack, grown to the largest task need it has
    /// met.
    arena: FrontArena<T>,
    /// Reusable extend-add row-relocation scratch.
    rel: Vec<usize>,
    /// Largest arena extent (scalars) this worker touched.
    peak_front: usize,
    /// Front-storage heap allocations this worker performed.
    allocs: u64,
}

/// Factor an already-permuted matrix in parallel across the elimination
/// tree, one worker thread per entry of `machines`.
///
/// The task DAG runs on the `mf-runtime` work-stealing scheduler. A task is
/// a run of the postorder — a *bottom subtree*
/// ([`SymbolicFactor::bottom_subtrees`]: CPU fronts whose panels and front
/// stack fit the cache), or one supernode above them — and every task is the
/// serial driver's range loop on the worker's own arena. Each worker owns
/// one [`Machine`] (its simulated CPU+GPU node) and one [`PinnedPool`];
/// update matrices that cross tasks are buffered and consumed by the
/// parent's extend-add in postorder child rank — the same order and the same
/// `crate::lane` body as the serial driver, which makes the result
/// **bitwise identical** to [`factor_permuted`] at every worker count. A run
/// that keeps fronts in flight (pipelining, several devices) is
/// [`factor_permuted`]'s on the first GPU machine; the others are left
/// untouched.
///
/// Returned [`FactorStats`]: `records` are merged back into postorder,
/// `total_time` is the maximum per-worker simulated clock, and `wall_time`
/// is the real measured wall-clock of this call.
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
    // Fronts in flight share one host timeline: the serial entry drives
    // them, and `ParallelOptions` (a tree-level work-stealing knob) does not
    // apply.
    let first_gpu = machines.iter().position(|m| m.gpu.is_some());
    if let (Route::Pipelined | Route::MultiGpu, Some(g)) =
        (route(opts, first_gpu.is_some()), first_gpu)
    {
        return factor_permuted(a, symbolic, perm, &mut machines[g], opts);
    }
    let wall0 = Instant::now();

    // Budgeted runs consume the same deterministic out-of-core schedule as
    // the serial driver: the plan decides residency and which blocks get
    // ladder-degraded; workers only replay its transfers and apply its
    // flags, so the factor bits cannot depend on worker count.
    let ooc_plan = ooc_plan::<T>(symbolic, opts)?;

    // Bottom subtrees: runs of CPU fronts small enough to stay in cache.
    // Decided from the symbolic structure and the policy selector alone —
    // deterministic and known before the run starts.
    let tasks = RangeTasks::new(
        symbolic,
        symbolic.bottom_subtrees(T::BYTES, |sn| {
            let info = &symbolic.supernodes[sn];
            opts.selector.choose(sn, info.m(), info.k()) == PolicyKind::P1
        }),
    );
    let graph = TaskGraph::from_parents(&tasks.parents);

    // Factor storage: one contiguous slab; workers write their supernodes'
    // panel regions in place (regions are disjoint by construction).
    let mut slab = vec![T::ZERO; symbolic.factor_slab_len()];
    let slab_view = SharedSlice::new(&mut slab);

    // Hand-off buffers, one slot per task, holding the update of its last
    // front. A slot is written exactly once (by the worker that ran the
    // task) and taken exactly once (by the worker that runs the parent's
    // task, after the dependency counter ordered the two), so the mutexes
    // are uncontended in practice. Cross-worker updates cannot obey one
    // worker's stack discipline, so they travel in transient per-edge
    // buffers dropped after the parent's extend-add (the system allocator's
    // thread cache recycles them more cheaply than an explicit free list
    // here); update rows come from the shared symbolic structure.
    let updates: Vec<Mutex<Option<Vec<T>>>> =
        (0..tasks.ranges.len()).map(|_| Mutex::new(None)).collect();
    let slot = |t: usize| updates[t].lock().unwrap_or_else(|poison| poison.into_inner());
    let take_update = |c: usize| slot(tasks.task_of[c]).take();

    // One arena length serves every bottom subtree: the subtree constant
    // bounds their stack peaks (and the whole forest's peak bounds them too).
    let arena_len = (BOTTOM_SUBTREE_BYTES / T::BYTES).min(symbolic.update_stack_peak());
    let front_run = FrontRun { a, symbolic, opts, ooc_plan: ooc_plan.as_ref() };

    let budget = ThreadBudget::new(par.thread_budget);
    let saved_cap = mf_dense::thread_cap();

    let states: Vec<WorkerCtx<'_, T>> = machines
        .iter_mut()
        .map(|machine| {
            machine.set_recording(opts.record_stats);
            WorkerCtx {
                machine,
                pool: pinned_pool(opts),
                records: Vec::new(),
                oom: 0,
                arena: FrontArena::with_len(0),
                rel: Vec::new(),
                peak_front: 0,
                allocs: 0,
            }
        })
        .collect();

    let runtime = Runtime::new(workers);
    let (mut states, errors) = runtime.run(&graph, states, |st: &mut WorkerCtx<'_, T>, t| {
        let range = tasks.ranges[t].clone();
        let first = symbolic.postorder[range.start];
        // The dependency counters guarantee every child's slot is filled
        // before this task runs; a missing or poisoned slot means a worker
        // died mid-task, which is surfaced as a structured error (still
        // selected by minimal postorder rank below) rather than a cascading
        // panic.
        let handed = take_children(symbolic, first, take_update)?;
        // Grow this worker's arena to the largest need it has met — one
        // front for a single supernode, the subtree bound for a subtree — so
        // most workers never hold the root's front. Reuse without re-zeroing
        // is safe: assembly re-zeroes the lower trapezoid it references and
        // nothing reads the rest.
        let need = match range.len() {
            1 => symbolic.supernodes[first].front_size().pow(2),
            _ => arena_len,
        };
        if st.arena.capacity() < need {
            st.allocs += 1;
            st.arena = FrontArena::with_len(need);
        }
        st.arena.clear();
        let width = budget.begin();
        let (records, oom) = (&mut st.records, &mut st.oom);
        let done = front_run.factor_range(
            range,
            &handed,
            &mut st.arena,
            &slab_view,
            &mut st.rel,
            st.machine,
            &mut st.pool,
            Some(width),
            |r, out| {
                *oom += usize::from(out.oom_fallback);
                records.extend(out.record.map(|rec| (r, rec)));
            },
        );
        budget.end();
        let update = done?;
        st.peak_front = st.peak_front.max(st.arena.high_water());
        if let Some(u) = update {
            st.allocs += 1;
            *slot(t) = Some(u);
        }
        Ok(())
    });

    // Workers widened the process-global dense-engine cap while running;
    // restore whatever the caller had configured.
    mf_dense::set_num_threads(saved_cap);

    // front_alloc_events starts at 1 for the factor slab.
    let mut stats = FactorStats { front_alloc_events: 1, ..Default::default() };
    for st in states.iter_mut() {
        stats.total_time = stats.total_time.max(st.machine.elapsed());
        stats.oom_fallbacks += st.oom;
        stats.peak_front_bytes = stats.peak_front_bytes.max(st.peak_front * T::BYTES);
        stats.front_alloc_events += st.allocs;
        stop_recording(st.machine);
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
    // the one of the task that starts earliest in the postorder.
    if let Some((_, err)) = errors.into_iter().min_by_key(|&(t, _)| tasks.ranges[t].start) {
        return Err(err);
    }
    stats.merge_worker_records(
        states.iter_mut().map(|st| std::mem::take(&mut st.records)).collect(),
    );
    stats.ooc = ooc_plan.map(|p| p.stats);
    stats.wall_time = wall0.elapsed().as_secs_f64();
    drop(states);

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

    use crate::policy::BaselineThresholds;
    use crate::PolicySelector;

    fn machines(n: usize) -> Vec<Machine> {
        (0..n).map(|_| Machine::paper_node()).collect()
    }

    #[test]
    fn range_tasks_partition_the_postorder() {
        let selector = PolicySelector::Baseline(BaselineThresholds::default());
        for a in [
            laplacian_2d(60, 60, Stencil::Faces),
            laplacian_3d(12, 12, 12, Stencil::Faces),
            mf_matgen::elasticity_3d(6, 6, 6),
        ] {
            // Minimum degree and a subtree budget of an eighth of f64's leave
            // dozens of supernodes above the subtrees, whose ascending ids
            // are not their postorder: the numbering rule is exercised.
            let amalg = AmalgamationOptions::default();
            let sym = analyze(&a, OrderingKind::MinimumDegree, Some(&amalg)).unwrap().symbolic;
            let (nsn, post) = (sym.num_supernodes(), &sym.postorder);
            let mut subtree_len = vec![1usize; nsn];
            for &sn in post {
                subtree_len[sn] += sym.children(sn).iter().map(|&c| subtree_len[c]).sum::<usize>();
            }
            let p1 = |sn: usize| {
                let info = &sym.supernodes[sn];
                selector.choose(sn, info.m(), info.k()) == PolicyKind::P1
            };
            for subtrees in [sym.bottom_subtrees(64, p1), sym.bottom_subtrees(64, |_| true)] {
                let tasks = RangeTasks::new(&sym, subtrees.clone());
                let nsub = subtrees.len();
                assert!(nsub > 0 && tasks.ranges.len() > nsub, "subtrees and singletons");
                // The subtrees in range order, then one task per remaining
                // supernode in ascending supernode id.
                assert_eq!(tasks.ranges[..nsub], subtrees[..]);
                assert!(tasks.ranges[nsub..].iter().all(|r| r.len() == 1));
                let above: Vec<usize> =
                    tasks.ranges[nsub..].iter().map(|r| post[r.start]).collect();
                assert!(above.windows(2).all(|w| w[0] < w[1]));
                assert!(tasks.ranges[nsub..].windows(2).any(|w| w[0].start > w[1].start));
                // Together they cover the postorder exactly once.
                let mut sorted = tasks.ranges.clone();
                sorted.sort_by_key(|r| r.start);
                assert!(sorted.into_iter().flatten().eq(0..nsn));
                for (t, range) in tasks.ranges.iter().enumerate() {
                    let root = post[range.end - 1];
                    assert!(range.len() == 1 || subtree_len[root] == range.len(), "whole subtree");
                    let inside = &post[range.clone()];
                    assert!(sym.children(post[range.start]).iter().all(|c| !inside.contains(c)));
                    assert_eq!(tasks.task_of[root], t);
                    let parent = sym.supernodes[root].parent;
                    let want =
                        if parent == usize::MAX { usize::MAX } else { tasks.task_of[parent] };
                    assert_eq!(tasks.parents[t], want);
                }
            }
        }
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
        let serial = |opts: &FactorOptions| {
            let mut machine = Machine::paper_node();
            factor_permuted(
                &analysis.permuted.0,
                &analysis.symbolic,
                &analysis.perm,
                &mut machine,
                opts,
            )
            .unwrap()
        };
        let (fs, _) = serial(&drain);
        let (_, sps) = serial(&piped);
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
            let gpu = sp.gpu.expect("GPU utilization must be reported");
            assert_eq!(Some(gpu), sps.gpu, "{w} workers: the serial pipelined run's devices");
            assert_eq!(sp.total_time.to_bits(), sps.total_time.to_bits(), "{w} workers: clock");
            assert!(gpu.busy_fraction() > 0.0 && gpu.busy_fraction() <= 1.0 + 1e-9);
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
