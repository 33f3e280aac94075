//! Supernodal triangular solves with the panel-form factor.
//!
//! Given `P·A·Pᵀ = L·Lᵀ`, solving `A·X = B` proceeds as
//! `Y = L⁻¹·(P·B)`, `Z = L⁻ᵀ·Y`, `X = Pᵀ·Z`. The forward pass walks the
//! supernodes leaf→root, the backward pass root→leaf. Each pass is one
//! *range loop* over a run of postorder positions, built on one per-front
//! body; the serial sweeps run the whole postorder through it, and every
//! task of the tree-parallel sweeps — a bottom subtree
//! (`SymbolicFactor::bottom_subtrees`) or one supernode above them, the
//! factor's task partition — runs its range through it, which is what makes
//! the parallel solve bitwise identical to the serial one at every worker
//! count (the same contract as
//! [`crate::parallel::factor_permuted_parallel`]).
//!
//! ## Determinism design
//!
//! *Backward* is embarrassingly deterministic: a supernode's off-diagonal
//! update reads only ancestor columns, which the root→leaf dependency order
//! finalises before the supernode runs, and each front writes only its own
//! columns.
//!
//! *Forward* is the interesting one: sibling subtrees both contribute
//! subtractions to shared ancestor rows, and letting them race on the global
//! vector would make the float summation order depend on the schedule.
//! Instead each supernode produces a *subtrahend* (`m × nrhs`, rows = its
//! update rows) for its parent, exactly like the update matrices of the
//! numeric factorization. The parent folds its children's subtrahends in
//! child-list order — rows inside its own columns subtract straight into its
//! right-hand-side block, rows beyond accumulate into its own subtrahend —
//! so every addition happens at a fixed tree position in a fixed order,
//! independent of the schedule.
//!
//! Inside a range the subtrahends live on one LIFO stack sized by the
//! symbolic bound `SymbolicFactor::solve_stack_rows` — the factor arena's
//! discipline: at a front its children's blocks are the top of the stack in
//! child order, its own block is built above them and then moved down onto
//! the first child's offset. Nothing is allocated per supernode. Between
//! tasks of a parallel sweep a subtrahend travels in its own slice of one
//! preallocated hand-off block: a task's last front leaves it there, and
//! the first front of the parent's task folds it from there.
//!
//! All right-hand-side blocks are `n × nrhs` column-major with leading
//! dimension `n`. Every dense call goes through the RHS-count-invariant
//! entry points ([`trsm_left_lower_notrans_multi`], [`gemm_multi_rhs`]), so
//! column `j` of a batched solve is additionally bitwise identical to a
//! single-RHS solve of column `j` alone.

use crate::factor::{CholeskyFactor, SharedSlice};
use crate::parallel::RangeTasks;
use mf_dense::{
    backward_panel_small, forward_panel_small, gemm_multi_rhs, panel_is_small,
    trsm_left_lower_notrans_multi, trsm_left_lower_trans_multi, Scalar, Transpose,
};
use mf_runtime::{Runtime, TaskGraph};
use std::ops::Range;

/// Per-worker scratch of the sweeps: the gathered pivot rows and update rows
/// of the front in hand, and (forward) the subtrahend stack.
#[derive(Default)]
struct SweepScratch<T> {
    xk: Vec<T>,
    xu: Vec<T>,
    stack: Vec<T>,
}

impl<T: Scalar> CholeskyFactor<T> {
    /// Forward substitution at one supernode: fold the children's
    /// subtrahends (in the order given — the child list's), solve the
    /// diagonal block, and leave this supernode's own subtrahend in `ubuf`
    /// (`m × nrhs`, overwritten). The one body of every forward sweep.
    fn forward_front<'c>(
        &self,
        sn: usize,
        nrhs: usize,
        x: &SharedSlice<T>,
        children: impl Iterator<Item = (usize, &'c [T])>,
        xk: &mut Vec<T>,
        ubuf: &mut [T],
    ) where
        T: 'c,
    {
        let symbolic = &self.symbolic;
        let ldx = symbolic.n;
        let info = &symbolic.supernodes[sn];
        let (k, m) = (info.k(), info.m());
        let s = k + m;
        let (c0, c1) = (info.col_start, info.col_end);
        let panel = self.panel(sn);
        debug_assert_eq!(ubuf.len(), m * nrhs);

        // Extend-add the children's subtrahends: rows inside [c0, c1) subtract
        // from this supernode's rows of the RHS block, rows beyond fold into
        // the outgoing block via a merge against our sorted row list.
        let own_rows = symbolic.update_rows(sn);
        ubuf.fill(T::ZERO);
        for (c, cbuf) in children {
            let crows = symbolic.update_rows(c);
            let mc = crows.len();
            let mut pos = 0usize;
            for (i, &r) in crows.iter().enumerate() {
                if r < c1 {
                    debug_assert!(r >= c0);
                    for j in 0..nrhs {
                        x.write(r + j * ldx, x.read(r + j * ldx) - cbuf[i + j * mc]);
                    }
                } else {
                    while own_rows[pos] < r {
                        pos += 1;
                    }
                    debug_assert_eq!(own_rows[pos], r, "child row must appear in parent front");
                    for j in 0..nrhs {
                        ubuf[pos + j * m] += cbuf[i + j * mc];
                    }
                }
            }
        }

        if panel_is_small(k, m) {
            // Column by column, in place: rows [c0, c1) of every RHS column
            // are this front's alone.
            for j in 0..nrhs {
                // SAFETY: see above; no other front touches these rows.
                let xj = unsafe { x.slice_mut(c0 + j * ldx, k) };
                forward_panel_small(k, m, panel, s, xj, &mut ubuf[j * m..(j + 1) * m]);
            }
            return;
        }

        // Gather this supernode's rows of the RHS block into contiguous k×nrhs
        // scratch (the global block is ldx-strided).
        xk.clear();
        xk.resize(k * nrhs, T::ZERO);
        for j in 0..nrhs {
            for i in 0..k {
                xk[i + j * k] = x.read(c0 + i + j * ldx);
            }
        }
        // Diagonal block: xk ← L₁⁻¹ xk.
        trsm_left_lower_notrans_multi(k, nrhs, panel, s, xk, k);
        for j in 0..nrhs {
            for i in 0..k {
                x.write(c0 + i + j * ldx, xk[i + j * k]);
            }
        }
        // ubuf += L₂ · xk — this supernode's own contribution to its
        // ancestors (L₂ = rows k..s of the panel).
        if m > 0 {
            gemm_multi_rhs(
                Transpose::No,
                m,
                nrhs,
                k,
                T::ONE,
                &panel[k..],
                s,
                xk,
                k,
                T::ONE,
                ubuf,
                m,
            );
        }
    }

    /// Forward substitution over the supernodes at postorder positions
    /// `range` — a run whose first front has no child inside it — on
    /// `stack`, which holds nothing of theirs on entry and, on return, the
    /// subtrahend of the last front at offset 0 (the ranges end at subtree
    /// roots). The first front folds its children's subtrahends from
    /// `handed`; every later front finds its children's on the stack.
    fn forward_range<'h>(
        &self,
        range: Range<usize>,
        nrhs: usize,
        x: &SharedSlice<T>,
        handed: impl Fn(usize) -> &'h [T],
        scratch: &mut SweepScratch<T>,
    ) where
        T: 'h,
    {
        let symbolic = &self.symbolic;
        let SweepScratch { xk, stack, .. } = scratch;
        let mut top = 0usize;
        for r in range.clone() {
            let sn = symbolic.postorder[r];
            let m = symbolic.supernodes[sn].m();
            let kids = symbolic.children(sn);
            // The first front's children are outside the range, their
            // subtrahends handed over; every later front's are the top of the
            // stack, in child order with the first child deepest.
            let (from_hand, on_stack) =
                if r == range.start { (kids, &[][..]) } else { (&[][..], kids) };
            let kid_rows: usize = on_stack.iter().map(|&c| symbolic.supernodes[c].m()).sum();
            let dest = top - kid_rows * nrhs;
            debug_assert!(
                top + m * nrhs <= stack.len(),
                "forward stack bound exceeded at supernode {sn}"
            );
            let (below, above) = stack.split_at_mut(top);
            let mut next = dest;
            let stacked = on_stack.iter().map(|&c| {
                let len = symbolic.supernodes[c].m() * nrhs;
                next += len;
                (c, &below[next - len..next])
            });
            let children = from_hand.iter().map(|&c| (c, handed(c))).chain(stacked);
            self.forward_front(sn, nrhs, x, children, xk, &mut above[..m * nrhs]);
            // Retire the children: this supernode's block takes their place.
            if dest < top {
                stack.copy_within(top..top + m * nrhs, dest);
            }
            top = dest + m * nrhs;
        }
    }

    /// Backward substitution at one supernode: gather the (already final)
    /// ancestor rows, apply the transposed off-diagonal update, solve the
    /// diagonal block, scatter back. The one body of every backward sweep.
    fn backward_front(
        &self,
        sn: usize,
        nrhs: usize,
        x: &SharedSlice<T>,
        scratch: &mut SweepScratch<T>,
    ) {
        let symbolic = &self.symbolic;
        let ldx = symbolic.n;
        let info = &symbolic.supernodes[sn];
        let (k, m) = (info.k(), info.m());
        let s = k + m;
        let c0 = info.col_start;
        let panel = self.panel(sn);
        let rows = symbolic.update_rows(sn);
        let SweepScratch { xk, xu, .. } = scratch;

        if panel_is_small(k, m) {
            // Column by column, in place (rows [c0, c0 + k) are this front's
            // alone), against one gathered column of ancestor rows.
            xu.clear();
            xu.resize(m, T::ZERO);
            for j in 0..nrhs {
                for (v, &r) in xu.iter_mut().zip(rows) {
                    *v = x.read(r + j * ldx);
                }
                // SAFETY: see above; no other front touches these rows.
                let xj = unsafe { x.slice_mut(c0 + j * ldx, k) };
                backward_panel_small(k, m, panel, s, xj, xu);
            }
            return;
        }

        xk.clear();
        xk.resize(k * nrhs, T::ZERO);
        for j in 0..nrhs {
            for i in 0..k {
                xk[i + j * k] = x.read(c0 + i + j * ldx);
            }
        }
        if m > 0 {
            xu.clear();
            xu.resize(m * nrhs, T::ZERO);
            for j in 0..nrhs {
                for (i, &r) in rows.iter().enumerate() {
                    xu[i + j * m] = x.read(r + j * ldx);
                }
            }
            // xk −= L₂ᵀ · x[update rows].
            gemm_multi_rhs(
                Transpose::Yes,
                k,
                nrhs,
                m,
                -T::ONE,
                &panel[k..],
                s,
                xu,
                m,
                T::ONE,
                xk,
                k,
            );
        }
        // Diagonal block: xk ← L₁⁻ᵀ xk.
        trsm_left_lower_trans_multi(k, nrhs, panel, s, xk, k);
        for j in 0..nrhs {
            for i in 0..k {
                x.write(c0 + i + j * ldx, xk[i + j * k]);
            }
        }
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
    /// `j` alone: the whole path runs on RHS-count-invariant kernels.
    pub fn solve_many(&self, b: &[T], nrhs: usize) -> Vec<T> {
        let mut x = self.permute_rhs(b, nrhs);
        self.solve_permuted_in_place_multi(&mut x, nrhs);
        self.unpermute_rhs(&x)
    }

    /// [`CholeskyFactor::solve_many`] with the triangular sweeps scheduled
    /// across `workers` threads on the elimination tree. Bitwise identical
    /// to the serial path at every worker count.
    pub fn solve_many_parallel(&self, b: &[T], nrhs: usize, workers: usize) -> Vec<T> {
        let mut x = self.permute_rhs(b, nrhs);
        if nrhs > 0 && self.order() > 0 {
            let tasks = self.sweep_tasks();
            self.forward_tasks(&tasks, &mut x, nrhs, workers);
            self.backward_tasks(&tasks, &mut x, nrhs, workers);
        }
        self.unpermute_rhs(&x)
    }

    /// Solve `(P·A·Pᵀ)·x = b` in place on a permuted right-hand side.
    pub fn solve_permuted_in_place(&self, x: &mut [T]) {
        self.solve_permuted_in_place_multi(x, 1);
    }

    /// Solve `(P·A·Pᵀ)·X = B` in place on a permuted `n × nrhs` block.
    pub fn solve_permuted_in_place_multi(&self, x: &mut [T], nrhs: usize) {
        self.forward_in_place_multi(x, nrhs);
        self.backward_in_place_multi(x, nrhs);
    }

    /// Forward substitution `x ← L⁻¹·x` (permuted ordering).
    pub fn forward_in_place(&self, x: &mut [T]) {
        self.forward_in_place_multi(x, 1);
    }

    /// Backward substitution `x ← L⁻ᵀ·x` (permuted ordering).
    pub fn backward_in_place(&self, x: &mut [T]) {
        self.backward_in_place_multi(x, 1);
    }

    /// Forward substitution `X ← L⁻¹·X` on a permuted `n × nrhs` block.
    pub fn forward_in_place_multi(&self, x: &mut [T], nrhs: usize) {
        let n = self.order();
        assert_eq!(x.len(), n * nrhs);
        if nrhs == 0 || n == 0 {
            return;
        }
        let mut scratch = SweepScratch {
            stack: vec![T::ZERO; self.symbolic.solve_stack_rows() * nrhs],
            ..Default::default()
        };
        let nsn = self.symbolic.num_supernodes();
        // The postorder starts at a leaf: nothing is handed in.
        self.forward_range(0..nsn, nrhs, &SharedSlice::new(x), |_| &[], &mut scratch);
    }

    /// Backward substitution `X ← L⁻ᵀ·X` on a permuted `n × nrhs` block.
    pub fn backward_in_place_multi(&self, x: &mut [T], nrhs: usize) {
        let n = self.order();
        assert_eq!(x.len(), n * nrhs);
        if nrhs == 0 || n == 0 {
            return;
        }
        let shared = SharedSlice::new(x);
        let mut scratch = SweepScratch::default();
        for &sn in self.symbolic.postorder.iter().rev() {
            self.backward_front(sn, nrhs, &shared, &mut scratch);
        }
    }

    /// The tasks of both tree-parallel sweeps: the factor's partition, with
    /// every front eligible for a bottom subtree.
    fn sweep_tasks(&self) -> RangeTasks {
        RangeTasks::new(&self.symbolic, self.symbolic.bottom_subtrees(T::BYTES, |_| true))
    }

    /// Tree-parallel forward substitution (leaf→root) on `workers` threads:
    /// one task per bottom subtree, one per supernode above. Bitwise
    /// identical to [`CholeskyFactor::forward_in_place_multi`].
    pub fn forward_in_place_multi_parallel(&self, x: &mut [T], nrhs: usize, workers: usize) {
        if nrhs > 0 && self.order() > 0 {
            self.forward_tasks(&self.sweep_tasks(), x, nrhs, workers);
        }
    }

    fn forward_tasks(&self, tasks: &RangeTasks, x: &mut [T], nrhs: usize, workers: usize) {
        assert_eq!(x.len(), self.order() * nrhs);
        let symbolic = &self.symbolic;
        let graph = TaskGraph::from_parents(&tasks.parents);
        // Subtrahends that cross tasks: that of task `t`'s last front is the
        // `m × nrhs` block at `offset[t] · nrhs` of one hand-off block.
        let (mut rows, mut offset) = (0, Vec::with_capacity(tasks.ranges.len()));
        for range in &tasks.ranges {
            offset.push(rows);
            rows += symbolic.supernodes[symbolic.postorder[range.end - 1]].m();
        }
        let mut handoff = vec![T::ZERO; rows * nrhs];
        let handoff_view = SharedSlice::new(&mut handoff);
        let block_of =
            |sn: usize| (offset[tasks.task_of[sn]] * nrhs, symbolic.supernodes[sn].m() * nrhs);
        let shared = SharedSlice::new(x);
        let runtime = Runtime::new(workers);
        let states: Vec<SweepScratch<T>> =
            (0..runtime.workers()).map(|_| SweepScratch::default()).collect();
        let (_, errors) = runtime.run(&graph, states, |scratch, t| -> Result<(), ()> {
            if scratch.stack.is_empty() {
                scratch.stack = vec![T::ZERO; symbolic.solve_stack_rows() * nrhs];
            }
            let range = tasks.ranges[t].clone();
            let (off, len) = block_of(symbolic.postorder[range.end - 1]);
            let handed = |c| {
                let (off, len) = block_of(c);
                // SAFETY: written by the child's task, which the dependency
                // counter ordered before this one.
                unsafe { handoff_view.slice(off, len) }
            };
            self.forward_range(range, nrhs, &shared, handed, scratch);
            // SAFETY: the last front's hand-off block is this task's to
            // write; its reader waits for this task.
            unsafe { handoff_view.slice_mut(off, len) }.copy_from_slice(&scratch.stack[..len]);
            Ok(())
        });
        debug_assert!(errors.is_empty(), "solve tasks are infallible");
    }

    /// Tree-parallel backward substitution (root→leaf, on the reversed
    /// task forest) on `workers` threads. Bitwise identical to
    /// [`CholeskyFactor::backward_in_place_multi`].
    pub fn backward_in_place_multi_parallel(&self, x: &mut [T], nrhs: usize, workers: usize) {
        if nrhs > 0 && self.order() > 0 {
            self.backward_tasks(&self.sweep_tasks(), x, nrhs, workers);
        }
    }

    fn backward_tasks(&self, tasks: &RangeTasks, x: &mut [T], nrhs: usize, workers: usize) {
        assert_eq!(x.len(), self.order() * nrhs);
        let graph = TaskGraph::from_parents_reversed(&tasks.parents);
        let shared = SharedSlice::new(x);
        let runtime = Runtime::new(workers);
        let states: Vec<SweepScratch<T>> =
            (0..runtime.workers()).map(|_| SweepScratch::default()).collect();
        let (_, errors) = runtime.run(&graph, states, |scratch, t| -> Result<(), ()> {
            for &sn in self.symbolic.postorder[tasks.ranges[t].clone()].iter().rev() {
                self.backward_front(sn, nrhs, &shared, scratch);
            }
            Ok(())
        });
        debug_assert!(errors.is_empty(), "solve tasks are infallible");
    }

    /// Permute a block of right-hand sides column by column (`x = P·b`).
    fn permute_rhs(&self, b: &[T], nrhs: usize) -> Vec<T> {
        let n = self.order();
        assert_eq!(b.len(), n * nrhs, "B must be n × nrhs column-major");
        let mut x = Vec::with_capacity(n * nrhs);
        for col in b.chunks_exact(n.max(1)) {
            x.extend(self.perm.as_slice().iter().map(|&old| col[old]));
        }
        x
    }

    /// Un-permute a block of solutions column by column (`x = Pᵀ·z`).
    fn unpermute_rhs(&self, z: &[T]) -> Vec<T> {
        let n = self.order();
        let mut x = Vec::with_capacity(z.len());
        for col in z.chunks_exact(n.max(1)) {
            x.extend(self.perm.inv_slice().iter().map(|&new| col[new]));
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use crate::factor::{factor_permuted, CholeskyFactor, FactorOptions, PolicySelector};
    use crate::policy::PolicyKind;
    use mf_gpusim::Machine;
    use mf_matgen::{laplacian_2d, laplacian_3d, rhs_for_solution, Stencil};
    use mf_sparse::symbolic::analyze;
    use mf_sparse::{AmalgamationOptions, OrderingKind, SymCsc};

    fn factor_of(a: &SymCsc<f64>, ordering: OrderingKind) -> CholeskyFactor<f64> {
        let analysis = analyze(a, ordering, Some(&AmalgamationOptions::default())).unwrap();
        let mut machine = Machine::paper_node();
        let (f, _) = factor_permuted(
            &analysis.permuted.0,
            &analysis.symbolic,
            &analysis.perm,
            &mut machine,
            &FactorOptions::default(),
        )
        .unwrap();
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

    #[test]
    fn forward_then_backward_equals_solve() {
        let a = laplacian_2d(7, 9, Stencil::Faces);
        let f = factor_of(&a, OrderingKind::NestedDissection);
        let (_, b) = rhs_for_solution(&a, 7);
        let via_solve = f.solve(&b);
        let mut x = f.perm.permute_vec(&b);
        f.forward_in_place(&mut x);
        f.backward_in_place(&mut x);
        let manual = f.perm.unpermute_vec(&x);
        assert_eq!(via_solve, manual);
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

    #[test]
    fn solve_many_is_bitwise_looped_single_rhs() {
        let a = laplacian_2d(19, 14, Stencil::Faces);
        let f = factor_of(&a, OrderingKind::NestedDissection);
        let n = a.order();
        let nrhs = 8;
        let (_, b) = rhs_block(&a, nrhs, 11);
        let batched = f.solve_many(&b, nrhs);
        for j in 0..nrhs {
            let single = f.solve(&b[j * n..(j + 1) * n]);
            for i in 0..n {
                assert_eq!(batched[i + j * n].to_bits(), single[i].to_bits(), "rhs {j} row {i}");
            }
        }
    }

    #[test]
    fn parallel_solve_is_bitwise_serial() {
        let a = laplacian_3d(6, 5, 5, Stencil::Faces);
        let f = factor_of(&a, OrderingKind::NestedDissection);
        let n = a.order();
        let nrhs = 4;
        let (_, b) = rhs_block(&a, nrhs, 21);
        let serial = f.solve_many(&b, nrhs);
        for workers in [1, 2, 4] {
            let par = f.solve_many_parallel(&b, nrhs, workers);
            for i in 0..n * nrhs {
                assert_eq!(serial[i].to_bits(), par[i].to_bits(), "{workers} workers, idx {i}");
            }
        }
    }

    #[test]
    fn zero_nrhs_is_a_noop() {
        let a = laplacian_2d(5, 5, Stencil::Faces);
        let f = factor_of(&a, OrderingKind::Natural);
        assert!(f.solve_many(&[], 0).is_empty());
        assert!(f.solve_many_parallel(&[], 0, 2).is_empty());
    }
}
