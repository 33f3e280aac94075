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
//!    factorization on the `mf-runtime` task scheduler. A task is a run of
//!    the postorder: a *bottom subtree* (CPU fronts whose panels and
//!    front stack fit the cache), or one supernode above them. Each task's
//!    remaining-children counter releases its parent; update matrices that
//!    cross tasks are buffered and extend-added in postorder child rank (so
//!    the factor is **bitwise identical** to [`crate::factor_permuted`] at every
//!    worker count), and a shared [`ThreadBudget`] arbitrates hardware threads
//!    between tree-level workers and the dense engine's column-slab
//!    threading — the one intra-front parallelism mechanism: the last
//!    task standing near the root runs its kernels at the full budget. A
//!    task's width holds on its own thread only
//!    ([`mf_dense::with_num_threads`]); the process-wide cap never moves.
//!
//! The tasks are mf-sparse's [`RangeTasks`] around the bottom subtrees —
//! the one task partition of the analysis' row structures, this factor and
//! both parallel solve sweeps. This module owns the per-task slots — what a
//! task takes when it starts, what it hands its parent's task — and the
//! per-worker state. A task writes only what it owns: the panels of its
//! range, split off the factor slab once and taken from its slot, so the
//! borrow checker, not a convention, keeps two tasks off one panel. What a
//! task does to its fronts is not its own: every
//! task is the arena loop of [`crate::factor`] (`FrontRun::factor_range`,
//! the drain schedule) on the worker's arena.
//!
//! Which schedule the entry runs is [`FactorOptions::plan`]'s decision, the
//! serial entry's plan for the first machine. A drain runs as these tasks,
//! one worker per machine, each on a twin of the first machine whose clock
//! nobody reads; the drain's clock runs without data on the first machine
//! itself, before any task, which leaves it as the serial entry leaves its
//! machine and the others untouched. Pipelined and multi-device runs keep
//! fronts in flight on the first machine's host timeline. Either way the
//! simulated fields are the serial entry's.
//!
//! The model predicts simulated makespans from simulated durations; the
//! runtime measures wall time: `benchmark/`'s `plate2d_par2` workload
//! reports it as `runtime.par2_speedup.*`.

use crate::arena::FrontArena;
use crate::factor::{pinned_pool, CholeskyFactor, FactorError, FactorOptions, FrontRun};
use crate::lane::{panel_len, postorder_parts, take_children};
use crate::pinned_pool::PinnedPool;
use crate::plan::{run_plan, twin};
use crate::policy::PolicyKind;
use crate::stats::FactorStats;
use mf_dense::{FuFlops, Scalar};
use mf_gpusim::Machine;
use mf_runtime::{Runtime, TaskGraph, ThreadBudget};
use mf_sparse::symbolic::SymbolicFactor;
use mf_sparse::{Permutation, RangeTasks, SymCsc};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
        let width = moldable
            .map_or(1, |m| ((ops[sn] / m.ops_per_worker).floor().max(1.0) as usize).min(workers));
        let chosen = &order[..width];
        // Task starts when the ready condition holds and all chosen workers
        // are free.
        let start = chosen.iter().map(|&w| worker_free[w]).fold(ready_time[sn], f64::max);
        let molded = moldable.filter(|_| width > 1);
        let dur =
            molded.map_or(durations[sn], |m| durations[sn] / (width as f64).powf(m.efficiency));
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

/// Per-worker mutable state for the parallel driver. Workers never share any
/// of this; the only cross-worker traffic is the tasks' slots: the panels a
/// task takes and the update block it hands its parent's task.
struct WorkerCtx<T> {
    /// A twin of the first machine: its clock is never read.
    machine: Machine,
    pool: PinnedPool,
    /// This worker's LIFO stack of update blocks, grown to the largest
    /// subtree it has met.
    arena: FrontArena<T>,
    /// Reusable extend-add row-relocation scratch.
    rel: Vec<usize>,
    /// Largest arena extent (scalars) this worker touched.
    peak_front: usize,
    /// Front-storage heap allocations this worker performed.
    allocs: u64,
}

/// Factor an already-permuted matrix in parallel across the elimination
/// tree, one worker thread per entry of `machines`, which must be alike
/// ([`crate::PlanError::UnlikeMachines`]).
///
/// The run executes [`FactorOptions::plan`]'s plan — the one
/// [`crate::factor_permuted`] makes for `machines[0]` — and records it in
/// [`FactorStats::plan`]. A drain runs on the `mf-runtime` task scheduler.
/// A task is a run of the postorder — a *bottom subtree*
/// ([`SymbolicFactor::bottom_subtrees`]: CPU fronts whose panels and front
/// stack fit the cache), or one supernode above them — and every task is the
/// serial driver's range loop on the worker's own arena, writing the panels
/// of its range, which it alone holds. Each worker owns a twin of
/// `machines[0]` and one pinned pool; update matrices that cross tasks are
/// buffered and consumed by the parent's extend-add in postorder child rank
/// — the same order and the same `crate::lane` body as the serial driver,
/// which makes the result **bitwise identical** to [`crate::factor_permuted`]
/// at every worker count. A run that keeps fronts in flight (pipelining,
/// several devices) is the serial entry's on the first machine.
///
/// Returned [`FactorStats`]: the simulated fields — `total_time`, `records`,
/// `gpu`, `oom_fallbacks`, `ooc` — are the serial entry's on `machines[0]`,
/// bit for bit (a drain's are its run without data on `machines[0]`, as
/// [`FactorOptions::rehearse`] returns them); `peak_front_bytes` and
/// `front_alloc_events` count this run's storage, and `wall_time` is the
/// real measured wall-clock of this call. Either way the call leaves
/// `machines[0]` as [`crate::factor_permuted`] leaves its machine and the
/// other machines untouched.
pub fn factor_permuted_parallel<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
    machines: &mut [Machine],
    opts: &FactorOptions,
    par: &ParallelOptions,
) -> Result<(CholeskyFactor<T>, FactorStats), FactorError> {
    let plan = opts.plan::<T>(symbolic, machines)?;
    run_plan(plan, a, symbolic, perm, machines, opts, Some(par))
}

/// The drain schedule as range tasks, `workers` workers on twins of
/// `machine`, `thread_budget` threads between them, `a`'s values assembled
/// and the panels put into `slab`. Returns the run's storage accounting:
/// `(peak_front_bytes, front_alloc_events)`.
///
/// The run's simulated fields are those of its run without data, so the
/// workers book no per-front records and carry no out-of-core plan: a budget
/// prices spills, and moves no bit.
pub(crate) fn factor_tasks<T: Scalar>(
    (a, slab): (&SymCsc<T>, &mut [T]),
    symbolic: &SymbolicFactor,
    (machine, workers): (&Machine, usize),
    opts: &FactorOptions,
    thread_budget: usize,
) -> Result<(usize, u64), FactorError> {
    // Bottom subtrees: runs of CPU fronts small enough to stay in cache.
    // Decided from the symbolic structure and the policy selector alone —
    // deterministic and known before the run starts.
    let tasks = range_tasks::<T>(symbolic, |sn| {
        let info = &symbolic.supernodes[sn];
        opts.selector.choose(sn, info.m(), info.k()) == PolicyKind::P1
    });
    let graph = TaskGraph::from_parents(tasks.parents());

    // Factor storage: one contiguous slab, cut into the panels of every
    // task's range, which the task takes when it starts and writes in place.
    let mut panels = postorder_parts(symbolic, slab, panel_len);
    let panels = group_by_task(&tasks, &symbolic.postorder, &mut panels);

    // Hand-off buffers, one slot per task, holding the update of its last
    // front. A slot is written exactly once (by the worker that ran the
    // task) and taken exactly once (by the worker that runs the parent's
    // task, after the dependency counter ordered the two), so the mutexes
    // are uncontended in practice. Cross-worker updates cannot obey one
    // worker's stack discipline, so they are assembled in transient
    // per-edge buffers dropped after the parent's extend-add (the system
    // allocator's thread cache recycles them more cheaply than an explicit
    // free list here); update rows come from the shared symbolic structure.
    let updates: Vec<Mutex<Option<_>>> = tasks.ranges().iter().map(|_| Mutex::default()).collect();
    let take_update = |c: usize| lock(&updates[tasks.task_of()[c]]).take();

    // A subtree task's stack bound; a single supernode keeps nothing on the
    // stack (its update is assembled straight into the hand-off buffer).
    let peaks = symbolic.subtree_update_peaks();
    let opts = &FactorOptions { record_stats: false, ..opts.clone() };
    let front_run = FrontRun { symbolic, opts, ooc_plan: None };
    let budget = ThreadBudget::new(thread_budget);

    let states: Vec<WorkerCtx<T>> = (0..workers)
        .map(|_| WorkerCtx {
            machine: twin(machine),
            pool: pinned_pool(opts, true),
            arena: FrontArena::with_len(0),
            rel: Vec::new(),
            peak_front: 0,
            allocs: 0,
        })
        .collect();

    let runtime = Runtime::new(workers);
    let (states, errors) = runtime.run(&graph, states, |st: &mut WorkerCtx<T>, t| {
        let range = tasks.ranges()[t].clone();
        let first = symbolic.postorder[range.start];
        // The dependency counters start this task only after every child
        // task returned `Ok`, its slot filled.
        let handed = take_children(symbolic, first, take_update);
        // Grow this worker's arena to the largest subtree bound it has met.
        // Reuse without re-zeroing is safe: assembly re-zeroes the triangle
        // of a block it references and nothing reads the rest.
        let need = if range.len() == 1 { 0 } else { peaks[symbolic.postorder[range.end - 1]] };
        if st.arena.capacity() < need {
            st.allocs += 1;
            st.arena = FrontArena::with_len(need);
        }
        st.arena.clear();
        // The task's kernels run at the width its budget slot grants, on this
        // thread alone; the slot goes back when the task ends or unwinds.
        let lease = budget.lease();
        let update = mf_dense::with_num_threads(lease.width(), || {
            front_run.factor_range(
                range,
                &handed,
                &mut st.arena,
                Some((a, std::mem::take(&mut *lock(&panels[t])))),
                &mut st.rel,
                &mut st.machine,
                &mut st.pool,
                |_, _| (),
            )
        })?;
        drop(lease);
        st.peak_front = st.peak_front.max(st.arena.high_water());
        if let Some(u) = update {
            st.allocs += 1;
            *lock(&updates[t]) = Some(u);
        }
        Ok(())
    });

    // On failure report the error the serial driver would have hit first:
    // the one of the task that starts earliest in the postorder.
    if let Some((_, err)) = errors.into_iter().min_by_key(|&(t, _)| tasks.ranges()[t].start) {
        return Err(err);
    }
    let peak_front = states.iter().map(|st| st.peak_front).max().unwrap_or(0);
    // One allocation event for the factor slab.
    Ok((peak_front * T::BYTES, 1 + states.iter().map(|st| st.allocs).sum::<u64>()))
}

/// `items`, one per postorder position, cut into the ranges of `tasks`:
/// slot `t` holds task `t`'s, which the task takes when it starts.
pub(crate) fn group_by_task<'a, X>(
    tasks: &RangeTasks,
    postorder: &[usize],
    mut items: &'a mut [X],
) -> Vec<Mutex<&'a mut [X]>> {
    let mut groups: Vec<&mut [X]> = tasks.ranges().iter().map(|_| Default::default()).collect();
    // From the back: the last item is the last of the task whose range ends there.
    while let Some(end) = items.len().checked_sub(1) {
        let t = tasks.task_of()[postorder[end]];
        (items, groups[t]) = std::mem::take(&mut items).split_at_mut(tasks.ranges()[t].start);
    }
    groups.into_iter().map(Mutex::new).collect()
}

/// The range tasks of a factor or a solve sweep at `T`'s width: the bottom
/// subtrees of the fronts `ok` admits, then one task per supernode above.
pub(crate) fn range_tasks<T: Scalar>(
    sym: &SymbolicFactor,
    ok: impl Fn(usize) -> bool,
) -> RangeTasks {
    let subtrees = sym.bottom_subtrees(T::BYTES, ok);
    RangeTasks::new(&sym.postorder, |sn| sym.supernodes[sn].parent, subtrees)
}

/// A task's slot: each is filled and taken once, in the order the task
/// graph's dependency counters impose, so a panicked holder leaves nothing
/// half written.
pub(crate) fn lock<X>(slot: &Mutex<X>) -> MutexGuard<'_, X> {
    slot.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::factor_permuted;
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
            // The simulated fields are the serial run's.
            assert_eq!(sp.records.len(), ss.records.len());
            assert!(sp.records.iter().zip(&ss.records).all(|(x, y)| x.sn == y.sn));
            assert_eq!(sp.total_time.to_bits(), ss.total_time.to_bits());
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
