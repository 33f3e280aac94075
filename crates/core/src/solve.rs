//! Supernodal triangular solves with the panel-form factor.
//!
//! Given `P·A·Pᵀ = L·Lᵀ`, solving `A·X = B` proceeds as
//! `Y = L⁻¹·(P·B)`, `Z = L⁻ᵀ·Y`, `X = Pᵀ·Z`. The forward pass walks the
//! supernodes leaf→root, the backward pass root→leaf. Each pass has one
//! per-front body, one `mf_dense` panel kernel ([`forward_panel`] /
//! [`backward_panel`]) plus the moves of its rows, and the forward pass one
//! *range loop* over a run of postorder positions around it. The serial
//! sweeps run the whole postorder through them, and every task of the
//! tree-parallel sweeps — a bottom subtree
//! (`SymbolicFactor::bottom_subtrees`) or one supernode above them, the
//! factor's task partition — runs its range through them, which is what
//! makes the parallel solve bitwise identical to the serial one at every
//! worker count (the same contract as
//! [`crate::parallel::factor_permuted_parallel`]).
//!
//! ## Who writes which rows
//!
//! A front writes only its own rows, its columns' `k` interleaved rows,
//! and it holds them as its own `&mut` slice. A serial sweep slices them
//! off the block at each front; in the backward sweep it first reads the
//! front's update rows — ancestors' rows, final already — from the whole
//! block, then borrows the front's own to write. A parallel sweep cuts the
//! block into every supernode's rows (supernodes partition the columns in
//! id order) and hands each task its fronts' rows once. What crosses tasks
//! is published read-only after its writer is done: a forward task's last
//! subtrahend, in its own slice of one hand-off block, and a backward
//! front's swept rows, from which the fronts below read their update rows,
//! walking up their ancestor chain. The backward body is generic over that
//! read.
//!
//! ## Interleaved right-hand sides
//!
//! The right-hand sides are swept in blocks of at most [`RHS_BLOCK`]
//! columns. A block of `w` columns is permuted into one `n × w`
//! *RHS-interleaved* buffer — row `i` is the `w` consecutive scalars
//! `x[i·w..(i + 1)·w]` — so a supernode's pivot rows are one contiguous
//! run, which the kernels update in place, and every panel entry they load
//! is applied to all `w` columns at once. Subtrahends and gathered update
//! rows are interleaved the same way.
//!
//! ## Determinism design
//!
//! *Backward* is embarrassingly deterministic: a supernode's off-diagonal
//! update reads only ancestor rows, which the root→leaf dependency order
//! finalises before the supernode runs, and each front writes only its own
//! rows.
//!
//! *Forward* is the interesting one: sibling subtrees both contribute
//! subtractions to shared ancestor rows, and letting them race on the global
//! vector would make the float summation order depend on the schedule.
//! Instead each supernode produces a *subtrahend* (`m` rows, its update
//! rows) for its parent, exactly like the update matrices of the numeric
//! factorization. The parent folds its children's subtrahends in child-list
//! order — rows inside its own columns subtract straight into its pivot
//! rows, rows beyond accumulate into its own subtrahend — so every addition
//! happens at a fixed tree position in a fixed order, independent of the
//! schedule.
//!
//! Inside a range the subtrahends live on one LIFO stack sized by the
//! symbolic bound `SymbolicFactor::solve_stack_rows` — the factor arena's
//! discipline: at a front its children's blocks are the top of the stack in
//! child order, its own block is built above them and then moved down onto
//! the first child's offset. Nothing is allocated per supernode. Between
//! tasks of a parallel sweep a subtrahend travels in its own slice of one
//! hand-off block: a task's last front leaves it there, and the first front
//! of the parent's task folds it from there.
//!
//! ## The per-column order contract
//!
//! Each column of a block sees exactly the scalar operations, in exactly
//! the order, of a one-column solve (see `mf_dense`'s sweep kernels): no
//! operation mixes columns, and where a product is long enough the kernels
//! follow the packed engine's blocked fused order, decided by the panel's
//! shape alone. So column `j` of a batched solve is bitwise identical to a
//! single-RHS solve of column `j` alone, whatever the right-hand-side count.

use crate::factor::CholeskyFactor;
use crate::lane::{postorder_parts, split_panels};
use crate::parallel::{group_by_task, lock, range_tasks};
use mf_dense::{backward_panel, forward_panel, Scalar, RHS_BLOCK};
use mf_runtime::{Runtime, TaskGraph};
use mf_sparse::{RangeTasks, SymbolicFactor};
use std::convert::Infallible;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// A forward sweep's scratch, sized once per solve for blocks of up to `w`
/// right-hand sides: the subtrahend stack and, per global row, its position
/// among the update rows of the front in hand.
struct ForwardScratch<T> {
    stack: Vec<T>,
    slot: Vec<usize>,
}

impl<T: Scalar> ForwardScratch<T> {
    fn new(symbolic: &SymbolicFactor, w: usize) -> Self {
        ForwardScratch {
            stack: vec![T::ZERO; symbolic.solve_stack_rows() * w],
            slot: vec![0; symbolic.n],
        }
    }
}

/// A backward sweep's scratch, sized once per solve for blocks of up to `w`
/// right-hand sides: the gathered update rows of the front in hand.
fn backward_scratch<T: Scalar>(symbolic: &SymbolicFactor, w: usize) -> Vec<T> {
    let max_m = symbolic.supernodes.iter().map(|s| s.m()).max().unwrap_or(0);
    vec![T::ZERO; max_m * w]
}

/// The rows a forward range writes: a whole interleaved block (the serial
/// sweep), or a task's rows, one chunk per front in postorder.
enum RangeRows<'a, 'x, T> {
    Block(&'a mut [T]),
    Chunks(&'a mut [&'x mut [T]]),
}

impl<T: Scalar> CholeskyFactor<T> {
    /// Forward substitution at one supernode: fold the children's
    /// subtrahends (in the order given — the child list's) into its rows
    /// `xk`, sweep the panel, and leave this supernode's own subtrahend in
    /// `ubuf` (`m` interleaved rows, overwritten). The one body of every
    /// forward sweep.
    fn forward_front<'c>(
        &self,
        sn: usize,
        w: usize,
        xk: &mut [T],
        children: impl Iterator<Item = (usize, &'c [T])>,
        ubuf: &mut [T],
        slot: &mut [usize],
    ) where
        T: 'c,
    {
        let symbolic = &self.symbolic;
        let info = &symbolic.supernodes[sn];
        let (k, m) = (info.k(), info.m());
        let (c0, c1) = (info.col_start, info.col_end);
        debug_assert_eq!((xk.len(), ubuf.len()), (k * w, m * w));

        // Extend-add the children's subtrahends. A child's rows are sorted, so
        // those inside [c0, c1) come first and subtract from this supernode's
        // pivot rows; the rest, all among our update rows, fold into the
        // outgoing block at the positions `slot` maps them to.
        let own_rows = symbolic.update_rows(sn);
        for (i, &r) in own_rows.iter().enumerate() {
            slot[r] = i;
        }
        ubuf.fill(T::ZERO);
        for (c, cbuf) in children {
            let rows = symbolic.update_rows(c);
            let split = rows.partition_point(|&r| r < c1);
            let (pivot, beyond) = cbuf.split_at(split * w);
            for (&r, sub) in rows[..split].iter().zip(pivot.chunks_exact(w)) {
                debug_assert!(r >= c0);
                for (d, &v) in xk[(r - c0) * w..(r - c0 + 1) * w].iter_mut().zip(sub) {
                    *d -= v;
                }
            }
            for (&r, sub) in rows[split..].iter().zip(beyond.chunks_exact(w)) {
                let pos = slot[r];
                debug_assert_eq!(own_rows[pos], r, "child row must appear in parent front");
                for (d, &v) in ubuf[pos * w..(pos + 1) * w].iter_mut().zip(sub) {
                    *d += v;
                }
            }
        }
        forward_panel(k, m, w, self.panel(sn), k + m, xk, ubuf);
    }

    /// Forward substitution over the supernodes at postorder positions
    /// `range` — a run whose first front has no child inside it — on
    /// `scratch.stack`, which holds nothing of theirs on entry and, on
    /// return, the subtrahend of the last front at offset 0 (the ranges end
    /// at subtree roots). The first front folds its children's subtrahends from
    /// `handed`; every later front finds its children's on the stack.
    fn forward_range<'h>(
        &self,
        range: Range<usize>,
        w: usize,
        mut x: RangeRows<'_, '_, T>,
        handed: impl Fn(usize) -> &'h [T],
        scratch: &mut ForwardScratch<T>,
    ) where
        T: 'h,
    {
        let symbolic = &self.symbolic;
        let ForwardScratch { stack, slot } = scratch;
        let mut top = 0usize;
        for r in range.clone() {
            let sn = symbolic.postorder[r];
            let info = &symbolic.supernodes[sn];
            let m = info.m();
            let kids = symbolic.children(sn);
            // The first front's children are outside the range, their
            // subtrahends handed over; every later front's are the top of the
            // stack, in child order with the first child deepest.
            let (from_hand, on_stack) =
                if r == range.start { (kids, &[][..]) } else { (&[][..], kids) };
            let kid_rows: usize = on_stack.iter().map(|&c| symbolic.supernodes[c].m()).sum();
            let dest = top - kid_rows * w;
            debug_assert!(
                top + m * w <= stack.len(),
                "forward stack bound exceeded at supernode {sn}"
            );
            let (below, above) = stack.split_at_mut(top);
            let mut next = dest;
            let stacked = on_stack.iter().map(|&c| {
                let len = symbolic.supernodes[c].m() * w;
                next += len;
                (c, &below[next - len..next])
            });
            let children = from_hand.iter().map(|&c| (c, handed(c))).chain(stacked);
            let xk = match &mut x {
                RangeRows::Block(x) => &mut x[info.col_start * w..info.col_end * w],
                RangeRows::Chunks(rows) => &mut *rows[r - range.start],
            };
            self.forward_front(sn, w, xk, children, &mut above[..m * w], slot);
            // Retire the children: this supernode's block takes their place.
            if dest < top {
                stack.copy_within(top..top + m * w, dest);
            }
            top = dest + m * w;
        }
    }

    /// Backward substitution at one supernode: gather its update rows, its
    /// ancestors' and final already, into `xu` — `read(x, r, j)` is column `j`
    /// of row `r` — and then sweep the panel over its own rows, which start
    /// at `x[at]`. The one body of every backward sweep.
    fn backward_front(
        &self,
        sn: usize,
        w: usize,
        x: &mut [T],
        at: usize,
        mut read: impl FnMut(&[T], usize, usize) -> T,
        xu: &mut [T],
    ) {
        let (k, m) = (self.symbolic.supernodes[sn].k(), self.symbolic.supernodes[sn].m());
        let xu = &mut xu[..m * w];
        for (dst, &r) in xu.chunks_exact_mut(w).zip(self.symbolic.update_rows(sn)) {
            for (j, v) in dst.iter_mut().enumerate() {
                *v = read(x, r, j);
            }
        }
        backward_panel(k, m, w, self.panel(sn), k + m, &mut x[at..at + k * w], xu);
    }

    /// Solve `A·x = b` (original, unpermuted ordering). `b` is given in the
    /// factor's scalar type.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        self.solve_many(b, 1)
    }

    /// Solve `A·X = B` for a block of `nrhs` right-hand sides (`B` is
    /// `n × nrhs` column-major, original ordering).
    ///
    /// Column `j` of the result is bitwise identical to `solve` on column
    /// `j` alone: no operation of the sweeps mixes columns.
    pub fn solve_many(&self, b: &[T], nrhs: usize) -> Vec<T> {
        let w = nrhs.min(RHS_BLOCK);
        let (mut forward, mut xu) =
            (ForwardScratch::new(&self.symbolic, w), backward_scratch(&self.symbolic, w));
        self.solve_blocks(b, nrhs, |x, w| {
            // The postorder starts at a leaf: nothing is handed in.
            let nsn = self.symbolic.num_supernodes();
            self.forward_range(0..nsn, w, RangeRows::Block(x), |_| &[], &mut forward);
            // The gather reads the block before the front's rows are
            // borrowed to write.
            let read = move |x: &[T], r: usize, j: usize| x[r * w + j];
            for &sn in self.symbolic.postorder.iter().rev() {
                let at = self.symbolic.supernodes[sn].col_start * w;
                self.backward_front(sn, w, x, at, read, &mut xu);
            }
        })
    }

    /// [`CholeskyFactor::solve_many`] with the triangular sweeps scheduled
    /// across `workers` threads on the elimination tree. Bitwise identical
    /// to the serial path at every worker count.
    ///
    /// The tasks, their two graphs and every worker's scratch of both
    /// sweeps are built once per call and serve every block.
    pub fn solve_many_parallel(&self, b: &[T], nrhs: usize, workers: usize) -> Vec<T> {
        let (symbolic, w) = (&self.symbolic, nrhs.min(RHS_BLOCK));
        let mut sweeps = ParallelSweeps::new(range_tasks::<T>(symbolic, |_| true), workers);
        let per_worker = 0..sweeps.runtime.workers();
        let mut forward: Vec<_> =
            per_worker.clone().map(|_| ForwardScratch::new(symbolic, w)).collect();
        let mut backward: Vec<_> = per_worker.map(|_| backward_scratch(symbolic, w)).collect();
        self.solve_blocks(b, nrhs, |x, w| {
            forward = self.forward_tasks(&mut sweeps, x, w, std::mem::take(&mut forward));
            backward = self.backward_tasks(&mut sweeps, x, w, std::mem::take(&mut backward));
        })
    }

    /// The column blocks of a solve: each run of at most [`RHS_BLOCK`]
    /// columns of `b` is permuted into one interleaved `n × w` block
    /// (`x = P·b`), swept in place by `sweeps(x, w)` and un-permuted into its
    /// columns of the result (`x = Pᵀ·z`).
    fn solve_blocks(
        &self,
        b: &[T],
        nrhs: usize,
        mut sweeps: impl FnMut(&mut [T], usize),
    ) -> Vec<T> {
        let n = self.order();
        assert_eq!(b.len(), n * nrhs, "B must be n × nrhs column-major");
        let mut out = vec![T::ZERO; n * nrhs];
        if n == 0 {
            return out;
        }
        let mut block = vec![T::ZERO; n * nrhs.min(RHS_BLOCK)];
        for c0 in (0..nrhs).step_by(RHS_BLOCK) {
            let w = (nrhs - c0).min(RHS_BLOCK);
            let (cols, x) = (&b[c0 * n..], &mut block[..n * w]);
            for (row, &old) in x.chunks_exact_mut(w).zip(self.perm.as_slice()) {
                for (j, v) in row.iter_mut().enumerate() {
                    *v = cols[old + j * n];
                }
            }
            sweeps(x, w);
            let cols = &mut out[c0 * n..];
            for (old, &new) in self.perm.inv_slice().iter().enumerate() {
                for (j, &v) in x[new * w..(new + 1) * w].iter().enumerate() {
                    cols[old + j * n] = v;
                }
            }
        }
        out
    }

    /// Tree-parallel forward substitution (leaf→root) of one interleaved
    /// block of `w` right-hand sides on `workers` threads: one task per
    /// bottom subtree, one per supernode above, each writing its fronts'
    /// rows. Bitwise identical to the serial sweep.
    fn forward_tasks(
        &self,
        sweeps: &mut ParallelSweeps,
        x: &mut [T],
        w: usize,
        states: Vec<ForwardScratch<T>>,
    ) -> Vec<ForwardScratch<T>> {
        let symbolic = &self.symbolic;
        let ParallelSweeps { tasks, forward: graph, runtime, .. } = sweeps;
        // Subtrahends that cross tasks: that of task `t`'s last front goes to
        // its own `m × w` slice of one hand-off block, which the task
        // publishes read-only to its parent's task when it is done.
        let last_m = |r: &Range<usize>| symbolic.supernodes[symbolic.postorder[r.end - 1]].m() * w;
        let mut handoff = vec![T::ZERO; tasks.ranges().iter().map(last_m).sum()];
        let blocks = split_panels(&mut handoff, tasks.ranges().iter().map(last_m));
        let blocks: Vec<Mutex<&mut [T]>> = blocks.into_iter().map(Mutex::new).collect();
        let published: Vec<OnceLock<&[T]>> = blocks.iter().map(|_| OnceLock::new()).collect();
        let mut rows = postorder_parts(symbolic, x, |i| i.k() * w);
        let rows = group_by_task(tasks, &symbolic.postorder, &mut rows);
        graph.reset();
        let (states, _) = runtime.run(graph, states, |scratch, t| -> Result<(), Infallible> {
            let handed = |c: usize| *published[tasks.task_of()[c]].get().expect("a child ran");
            let own = RangeRows::Chunks(std::mem::take(&mut *lock(&rows[t])));
            self.forward_range(tasks.ranges()[t].clone(), w, own, handed, scratch);
            let block = std::mem::take(&mut *lock(&blocks[t]));
            block.copy_from_slice(&scratch.stack[..block.len()]);
            published[t].set(block).expect("a task runs once");
            Ok(())
        });
        states
    }

    /// Tree-parallel backward substitution (root→leaf, on the reversed
    /// task forest) of one interleaved block of `w` right-hand sides on
    /// `workers` threads, each task writing its fronts' rows. Bitwise
    /// identical to the serial sweep.
    fn backward_tasks(
        &self,
        sweeps: &mut ParallelSweeps,
        x: &mut [T],
        w: usize,
        states: Vec<Vec<T>>,
    ) -> Vec<Vec<T>> {
        let symbolic = &self.symbolic;
        let ParallelSweeps { tasks, backward: graph, runtime, .. } = sweeps;
        // A front publishes its rows read-only once swept; every update row
        // of a front is a row of an ancestor, swept before it.
        let swept: &[OnceLock<&[T]>] =
            &symbolic.supernodes.iter().map(|_| OnceLock::new()).collect::<Vec<_>>();
        let mut rows = postorder_parts(symbolic, x, |i| i.k() * w);
        let rows = group_by_task(tasks, &symbolic.postorder, &mut rows);
        graph.reset();
        let (states, _) = runtime.run(graph, states, |xu, t| -> Result<(), Infallible> {
            let own = std::mem::take(&mut *lock(&rows[t])).iter_mut().map(std::mem::take);
            for (&sn, xk) in symbolic.postorder[tasks.ranges()[t].clone()].iter().zip(own).rev() {
                // Update rows are sorted and column ranges increase up the
                // tree: one walk up the ancestor chain reads them all.
                let (mut a, mut rows) = (sn, &[][..]);
                let read = move |_: &[T], r: usize, j: usize| {
                    while r >= symbolic.supernodes[a].col_end {
                        a = symbolic.supernodes[a].parent;
                        rows = *swept[a].get().expect("an ancestor is swept first");
                    }
                    rows[(r - symbolic.supernodes[a].col_start) * w + j]
                };
                self.backward_front(sn, w, xk, 0, read, xu);
                swept[sn].set(xk).expect("a front is swept once");
            }
            Ok(())
        });
        states
    }
}

/// What the blocks of one parallel solve share: the range tasks and the
/// task graphs of the forward sweep and of the backward one (the reversed
/// forest), on one runtime.
struct ParallelSweeps {
    tasks: RangeTasks,
    forward: TaskGraph,
    backward: TaskGraph,
    runtime: Runtime,
}

impl ParallelSweeps {
    fn new(tasks: RangeTasks, workers: usize) -> Self {
        ParallelSweeps {
            forward: TaskGraph::from_parents(tasks.parents()),
            backward: TaskGraph::from_parents_reversed(tasks.parents()),
            tasks,
            runtime: Runtime::new(workers),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::factor::{factor_permuted, CholeskyFactor, FactorOptions, PolicySelector};
    use crate::policy::PolicyKind;
    use mf_dense::Scalar;
    use mf_gpusim::Machine;
    use mf_matgen::{elasticity_3d, laplacian_2d, laplacian_3d, rhs_for_solution, Stencil};
    use mf_sparse::symbolic::analyze;
    use mf_sparse::{AmalgamationOptions, OrderingKind, SymCsc};

    fn factor_of<T: Scalar>(a: &SymCsc<f64>, ordering: OrderingKind) -> CholeskyFactor<T> {
        let analysis = analyze(a, ordering, Some(&AmalgamationOptions::default())).unwrap();
        let at: SymCsc<T> = analysis.permuted.0.cast();
        let mut machine = Machine::paper_node();
        let opts = FactorOptions::default();
        let (f, _) =
            factor_permuted(&at, &analysis.symbolic, &analysis.perm, &mut machine, &opts).unwrap();
        f
    }

    fn solve_with(
        a: &SymCsc<f64>,
        selector: PolicySelector,
        ordering: OrderingKind,
    ) -> (Vec<f64>, Vec<f64>) {
        let analysis = analyze(a, ordering, Some(&AmalgamationOptions::default())).unwrap();
        let mut machine = Machine::paper_node();
        let opts = FactorOptions { selector, ..Default::default() };
        let (f, _) = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &opts,
        )
        .unwrap();
        let (xtrue, b) = rhs_for_solution(a, 42);
        (f.solve(&b), xtrue)
    }

    #[test]
    fn solve_recovers_known_solution_f64() {
        let a = laplacian_2d(13, 11, Stencil::Faces);
        for ordering in [
            OrderingKind::Natural,
            OrderingKind::Rcm,
            OrderingKind::MinimumDegree,
            OrderingKind::NestedDissection,
        ] {
            let (x, xtrue) = solve_with(&a, PolicySelector::Fixed(PolicyKind::P1), ordering);
            let err = x.iter().zip(&xtrue).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            assert!(err < 1e-8, "{ordering:?}: forward error {err}");
        }
    }

    #[test]
    fn solve_3d_all_policies() {
        let a = laplacian_3d(6, 6, 6, Stencil::Faces);
        for p in PolicyKind::ALL {
            let (x, xtrue) =
                solve_with(&a, PolicySelector::Fixed(p), OrderingKind::NestedDissection);
            let err = x.iter().zip(&xtrue).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            let tol = if p == PolicyKind::P1 { 1e-8 } else { 1e-2 };
            assert!(err < tol, "{p}: forward error {err}");
        }
    }

    #[test]
    fn residual_small_relative_to_matrix_norm() {
        let a = laplacian_2d(17, 17, Stencil::Full);
        let (x, _) =
            solve_with(&a, PolicySelector::Fixed(PolicyKind::P1), OrderingKind::NestedDissection);
        let (_, b) = rhs_for_solution(&a, 42);
        let r = a.residual(&x, &b);
        let rel = r.iter().map(|v| v.abs()).fold(0.0, f64::max) / a.norm_inf();
        assert!(rel < 1e-12, "relative residual {rel}");
    }

    /// Multi-RHS B block: column j is `rhs_for_solution(a, seed + j)`.
    fn rhs_block(a: &SymCsc<f64>, nrhs: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let n = a.order();
        let mut xtrue = Vec::with_capacity(n * nrhs);
        let mut b = Vec::with_capacity(n * nrhs);
        for j in 0..nrhs {
            let (xt, bj) = rhs_for_solution(a, seed + j as u64);
            xtrue.extend(xt);
            b.extend(bj);
        }
        (xtrue, b)
    }

    #[test]
    fn solve_many_recovers_all_columns() {
        let a = laplacian_3d(5, 6, 4, Stencil::Faces);
        let f = factor_of(&a, OrderingKind::NestedDissection);
        let n = a.order();
        let nrhs = 7;
        let (xtrue, b) = rhs_block(&a, nrhs, 3);
        let x = f.solve_many(&b, nrhs);
        assert_eq!(x.len(), n * nrhs);
        let err = x.iter().zip(&xtrue).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-8, "forward error {err}");
    }

    /// The sweep suite's matrices, each with whether one of its panel
    /// products takes the packed order: small 2-D and 3-D grids, elasticity
    /// 6³ (largest panel product 5832 multiply-adds per column), and the
    /// 27-point cube 12³ and elasticity 7³, which pass the threshold.
    fn sweep_families() -> Vec<(SymCsc<f64>, bool)> {
        vec![
            (laplacian_2d(19, 14, Stencil::Faces), false),
            (laplacian_3d(6, 5, 5, Stencil::Faces), false),
            (laplacian_3d(12, 12, 12, Stencil::Full), true),
            (elasticity_3d(6, 6, 6), false),
            (elasticity_3d(7, 7, 7), true),
        ]
    }

    /// Right-hand-side counts around the kernels' block of eight columns.
    const SWEEP_NRHS: [usize; 6] = [1, 2, 3, 8, 9, 17];

    fn sweep_factor<T: Scalar>(a: &SymCsc<f64>, packed: bool) -> CholeskyFactor<T> {
        let f = factor_of(a, OrderingKind::NestedDissection);
        // PACK_MIN_MADDS: a panel product this long takes the packed order.
        let passes = f.symbolic.supernodes.iter().any(|s| s.m() * s.k() >= 8192);
        assert_eq!(passes, packed, "packed-order coverage of the sweep suite moved");
        f
    }

    fn sweep_rhs<T: Scalar>(n: usize, nrhs: usize) -> Vec<T> {
        (0..n * nrhs).map(|i| T::from_f64(((i * 37 + 11) % 101) as f64 / 101.0 - 0.3)).collect()
    }

    fn bits<T: Scalar>(v: &[T]) -> Vec<u64> {
        v.iter().map(|x| x.to_f64().to_bits()).collect()
    }

    fn check_batched_equals_looped<T: Scalar>() {
        for (a, packed) in sweep_families() {
            let f = sweep_factor::<T>(&a, packed);
            let n = a.order();
            for nrhs in SWEEP_NRHS {
                let b = sweep_rhs::<T>(n, nrhs);
                let batched = f.solve_many(&b, nrhs);
                for j in 0..nrhs {
                    let single = f.solve(&b[j * n..(j + 1) * n]);
                    assert_eq!(
                        bits(&batched[j * n..(j + 1) * n]),
                        bits(&single),
                        "{} n={n} nrhs={nrhs} column {j}",
                        T::NAME
                    );
                }
            }
        }
    }

    fn check_parallel_equals_serial<T: Scalar>() {
        for (a, packed) in sweep_families() {
            let f = sweep_factor::<T>(&a, packed);
            let n = a.order();
            for nrhs in SWEEP_NRHS {
                let b = sweep_rhs::<T>(n, nrhs);
                let serial = bits(&f.solve_many(&b, nrhs));
                for workers in [1, 2, 4] {
                    let par = bits(&f.solve_many_parallel(&b, nrhs, workers));
                    assert_eq!(par, serial, "{} n={n} nrhs={nrhs} {workers} workers", T::NAME);
                }
            }
        }
    }

    #[test]
    fn bitwise_sweeps_batched_equal_looped_single_rhs() {
        check_batched_equals_looped::<f64>();
        check_batched_equals_looped::<f32>();
    }

    #[test]
    fn bitwise_sweeps_parallel_equal_serial() {
        check_parallel_equals_serial::<f64>();
        check_parallel_equals_serial::<f32>();
    }

    #[test]
    fn zero_nrhs_is_a_noop() {
        let a = laplacian_2d(5, 5, Stencil::Faces);
        let f = factor_of::<f64>(&a, OrderingKind::Natural);
        assert!(f.solve_many(&[], 0).is_empty());
        assert!(f.solve_many_parallel(&[], 0, 2).is_empty());
    }
}
