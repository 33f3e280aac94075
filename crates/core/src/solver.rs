//! High-level solver API with mixed-precision iterative refinement.
//!
//! The paper factors in single precision on the GPU and notes that "the lost
//! accuracy could be readily regained by one or two steps of iterative
//! refinement using double precision sparse matrix-vector multiplication"
//! (§III-B). [`SpdSolver`] packages exactly that workflow: analysis →
//! (possibly f32, possibly GPU-accelerated) factorization → triangular
//! solves → f64 refinement against the original matrix.
//!
//! The solver is *refactorizable*: it caches the symbolic analysis
//! (ordering, elimination tree, supernodes, postorder) so a new matrix with
//! the same sparsity pattern re-runs only the numeric factorization
//! ([`SpdSolver::refactor`]) — the amortization lever for time-stepping and
//! Newton-type workloads where the pattern is fixed and values change.
//!
//! ## Refinement convergence contract
//!
//! [`SpdSolver::solve_refined`] / [`SpdSolver::solve_refined_many`] iterate
//! `x ← x + L⁻ᵀL⁻¹(b − A·x)` with f64 residuals and stop, in priority
//! order, when (1) the relative residual is ≤ `tol` (**converged**), (2)
//! the correction budget `max_iters` is exhausted, or (3) after at least two
//! corrections the residual improved by less than 10% (**stagnated** — the
//! factor's precision floor has been reached). The outcome is reported
//! explicitly in [`RefinedSolution::converged`] / [`RefinedSolution::stop`];
//! callers must not infer success from `residual_history.last()`, which can
//! be a perfectly finite stagnation plateau.

use crate::factor::{factor_permuted, CholeskyFactor, FactorError, FactorOptions};
use crate::ooc::{in_core_bytes, min_feasible_budget};
use crate::stats::FactorStats;
use mf_gpusim::Machine;
use mf_sparse::symbolic::{analyze_parallel, Analysis, SymCscF64Holder};
use mf_sparse::{AmalgamationOptions, OrderingKind, SymCsc};

/// Which precision the factor is stored/computed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full double precision (CPU-only policies give f64 accuracy).
    F64,
    /// Single precision throughout — the paper's GPU configuration.
    #[default]
    F32,
}

/// Options for [`SpdSolver::new`].
#[derive(Debug, Clone, Default)]
pub struct SolverOptions {
    /// Fill-reducing ordering.
    pub ordering: OrderingKind,
    /// Supernode amalgamation (None = fundamental supernodes only).
    pub amalgamation: Option<AmalgamationOptions>,
    /// Numeric factorization options (policy selector etc.).
    pub factor: FactorOptions,
    /// Factor precision.
    pub precision: Precision,
    /// Worker threads of [`analyze_parallel`], the symbolic analysis, which
    /// is bitwise identical at every worker count. `0` and `1` both run
    /// every stage's serial body once, on the calling thread.
    pub analysis_workers: usize,
}

/// Why a refinement loop stopped (see the module-level convergence
/// contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineStop {
    /// Relative residual reached `tol`.
    Converged,
    /// The `max_iters` correction budget ran out first.
    MaxIterations,
    /// Improvement fell below 10% between consecutive corrections — the
    /// factor-precision floor.
    Stagnated,
}

/// Result of an iterative-refinement solve.
#[derive(Debug, Clone)]
pub struct RefinedSolution {
    /// The solution in the original ordering.
    pub x: Vec<f64>,
    /// Relative residual ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞) after each step
    /// (index 0 = before any refinement; see [`SpdSolver::solve_refined`]
    /// for the denominator fallbacks).
    pub residual_history: Vec<f64>,
    /// Refinement steps taken.
    pub iterations: usize,
    /// Whether the relative residual reached `tol`.
    pub converged: bool,
    /// Why the loop stopped.
    pub stop: RefineStop,
}

/// Per-column refinement outcome of [`SpdSolver::solve_refined_many`].
#[derive(Debug, Clone)]
pub struct RefineInfo {
    /// Relative residual after each step (index 0 = before refinement).
    pub residual_history: Vec<f64>,
    /// Corrections applied to this column.
    pub iterations: usize,
    /// Whether this column reached `tol`.
    pub converged: bool,
    /// Why this column stopped.
    pub stop: RefineStop,
}

/// Result of a blocked multi-RHS refinement solve.
#[derive(Debug, Clone)]
pub struct RefinedManySolution {
    /// Solutions in the original ordering, `n × nrhs` column-major.
    pub x: Vec<f64>,
    /// Per-column convergence report.
    pub columns: Vec<RefineInfo>,
}

impl RefinedManySolution {
    /// Whether every column converged.
    pub fn all_converged(&self) -> bool {
        self.columns.iter().all(|c| c.converged)
    }
}

enum FactorHolder {
    F64(CholeskyFactor<f64>),
    F32(CholeskyFactor<f32>),
}

/// Rejection of a malformed solve request, reported **before** any numeric
/// work touches the factor. A long-lived service must degrade gracefully on
/// bad input — a panic would unwind a worker thread — so every
/// [`SpdSolver`] solve entry point validates its right-hand sides and
/// returns one of these instead of asserting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// `b.len()` is not `n × nrhs`.
    DimensionMismatch {
        /// Required length (`n × nrhs`).
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// `nrhs == 0`: an empty request is a caller bug, not a solve.
    ZeroRhs,
    /// A right-hand-side entry is NaN or infinite; the triangular sweeps
    /// would silently propagate it through every dependent unknown.
    NonFinite {
        /// Column (RHS index) of the offending entry.
        column: usize,
        /// Row of the offending entry.
        row: usize,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::DimensionMismatch { expected, got } => {
                write!(f, "right-hand side has {got} entries, expected {expected}")
            }
            SolveError::ZeroRhs => write!(f, "nrhs must be at least 1"),
            SolveError::NonFinite { column, row } => {
                write!(f, "non-finite right-hand-side entry at row {row}, column {column}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl SolveError {
    /// Validate an `n × nrhs` column-major right-hand-side block — exactly
    /// the check every [`SpdSolver`] solve entry point performs. Public so a
    /// serving layer can reject malformed requests at admission time, before
    /// they consume a queue slot.
    pub fn validate(n: usize, b: &[f64], nrhs: usize) -> Result<(), SolveError> {
        if nrhs == 0 {
            return Err(SolveError::ZeroRhs);
        }
        let expected = n * nrhs;
        if b.len() != expected {
            return Err(SolveError::DimensionMismatch { expected, got: b.len() });
        }
        if let Some(bad) = b.iter().position(|v| !v.is_finite()) {
            return Err(SolveError::NonFinite { column: bad / n, row: bad % n });
        }
        Ok(())
    }
}

/// Validate an `n × nrhs` column-major right-hand-side block.
fn validate_rhs(n: usize, b: &[f64], nrhs: usize) -> Result<(), SolveError> {
    SolveError::validate(n, b, nrhs)
}

/// The resident-bytes estimate a serving layer should charge for keeping a
/// solver with this analysis alive at the given precision: factor slab +
/// refactor update-stack peak (both at the factor precision) + the two
/// pattern copies a [`SpdSolver`] retains (original and permuted matrix).
/// It needs only the analysis, so admission control runs **before** the
/// numeric factorization spends the memory.
///
/// Under a memory budget ([`FactorOptions::memory_budget`]) the numeric
/// term is capped at the budget — a budgeted run keeps at most `budget`
/// bytes of numeric storage resident, spilling the rest — while the two
/// pattern copies are charged in full (they are never spilled). A budget
/// below [`min_feasible_budget`] fails with the run's own
/// [`FactorError::BudgetTooSmall`].
pub fn estimated_memory_bytes(
    analysis: &Analysis,
    precision: Precision,
    memory_budget: Option<usize>,
) -> Result<usize, FactorError> {
    let scalar = match precision {
        Precision::F64 => std::mem::size_of::<f64>(),
        Precision::F32 => std::mem::size_of::<f32>(),
    };
    let mut numeric = in_core_bytes(&analysis.symbolic, scalar);
    if let Some(budget) = memory_budget {
        let required = min_feasible_budget(&analysis.symbolic, scalar);
        if budget < required {
            return Err(FactorError::BudgetTooSmall { budget, required });
        }
        numeric = numeric.min(budget);
    }
    let idx = std::mem::size_of::<usize>();
    let pa = &analysis.permuted.0;
    let pattern = pa.nnz_lower() * (idx + std::mem::size_of::<f64>()) + (pa.order() + 1) * idx;
    Ok(numeric + 2 * pattern)
}

/// Failure of [`SpdSolver::refactor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorError {
    /// The new matrix's sparsity pattern differs from the analyzed one; the
    /// cached symbolic factorization cannot be reused.
    PatternMismatch,
    /// The numeric factorization itself failed.
    Factor(FactorError),
}

impl std::fmt::Display for RefactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefactorError::PatternMismatch => {
                write!(f, "matrix pattern differs from the cached symbolic analysis")
            }
            RefactorError::Factor(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RefactorError {}

/// A factored SPD system ready for repeated solves and same-pattern
/// refactorization.
pub struct SpdSolver {
    a: SymCsc<f64>,
    /// `‖A‖∞`, the scale of the refinement residuals.
    norm_a: f64,
    factor: FactorHolder,
    stats: FactorStats,
    analysis: Analysis,
    opts: SolverOptions,
}

impl SpdSolver {
    /// Analyze and factor `a` on `machine` with the given options.
    pub fn new(
        a: &SymCsc<f64>,
        machine: &mut Machine,
        opts: &SolverOptions,
    ) -> Result<Self, FactorError> {
        let analysis = analyze_parallel(
            a,
            opts.ordering,
            opts.amalgamation.as_ref(),
            opts.analysis_workers.max(1),
        )?;
        let (factor, stats) = factor_holder(&analysis.permuted.0, &analysis, machine, opts)?;
        Ok(Self::assemble(a, analysis, factor, stats, opts))
    }

    /// Factor with a precomputed analysis (reuse across repeated
    /// factorizations with the same pattern). The solver keeps its own copy
    /// of the permutation and the permuted matrix; the symbolic structure is
    /// shared with `analysis`.
    pub fn from_analysis(
        a: &SymCsc<f64>,
        analysis: &Analysis,
        machine: &mut Machine,
        opts: &SolverOptions,
    ) -> Result<Self, FactorError> {
        let (factor, stats) = factor_holder(&analysis.permuted.0, analysis, machine, opts)?;
        Ok(Self::assemble(a, analysis.clone(), factor, stats, opts))
    }

    fn assemble(
        a: &SymCsc<f64>,
        analysis: Analysis,
        factor: FactorHolder,
        stats: FactorStats,
        opts: &SolverOptions,
    ) -> Self {
        SpdSolver {
            a: a.clone(),
            norm_a: a.norm_inf(),
            factor,
            stats,
            analysis,
            opts: opts.clone(),
        }
    }

    /// Re-run only the numeric factorization for a matrix with the **same
    /// sparsity pattern** as the one this solver was built from, reusing the
    /// cached ordering/supernodes/postorder. Much cheaper than
    /// [`SpdSolver::new`] and produces exactly the factor a fresh solver
    /// would (same permutation, same symbolic structure, same bits) and the
    /// statistics it would report on a fresh machine: the run starts
    /// `machine`'s clocks at zero, so a loop of refactors on one machine
    /// reports each run's own simulated time.
    ///
    /// On error the solver is left unchanged (the old factor stays valid).
    pub fn refactor(
        &mut self,
        a: &SymCsc<f64>,
        machine: &mut Machine,
    ) -> Result<(), RefactorError> {
        if !a.same_pattern(&self.a) {
            return Err(RefactorError::PatternMismatch);
        }
        let permuted = self.analysis.perm.permute_sym(a);
        let (factor, stats) = factor_holder(&permuted, &self.analysis, machine, &self.opts)
            .map_err(RefactorError::Factor)?;
        self.a = a.clone();
        self.norm_a = a.norm_inf();
        self.factor = factor;
        self.stats = stats;
        self.analysis.permuted = SymCscF64Holder(permuted);
        Ok(())
    }

    /// The cached analysis (ordering, supernodes, postorder).
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// Per-call statistics of the factorization run.
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// Simulated factorization time in seconds.
    pub fn factor_time(&self) -> f64 {
        self.stats.total_time
    }

    /// Nonzeros of the factor (supernodal storage).
    pub fn factor_nnz(&self) -> usize {
        self.analysis.symbolic.factor_nnz()
    }

    /// One direct solve (no refinement); accuracy is limited by the factor
    /// precision.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        self.solve_many(b, 1)
    }

    /// Direct solve of `nrhs` right-hand sides (`b` is `n × nrhs`
    /// column-major). Column `j` is bitwise identical to [`SpdSolver::solve`]
    /// on column `j` alone.
    pub fn solve_many(&self, b: &[f64], nrhs: usize) -> Result<Vec<f64>, SolveError> {
        validate_rhs(self.a.order(), b, nrhs)?;
        Ok(self.solve_many_raw(b, nrhs))
    }

    /// [`SpdSolver::solve_many`] with the triangular sweeps scheduled across
    /// `workers` threads on the elimination tree; bitwise identical to the
    /// serial path at every worker count.
    pub fn solve_many_parallel(
        &self,
        b: &[f64],
        nrhs: usize,
        workers: usize,
    ) -> Result<Vec<f64>, SolveError> {
        validate_rhs(self.a.order(), b, nrhs)?;
        Ok(match &self.factor {
            FactorHolder::F64(f) => f.solve_many_parallel(b, nrhs, workers),
            FactorHolder::F32(f) => {
                let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
                f.solve_many_parallel(&b32, nrhs, workers).into_iter().map(|v| v as f64).collect()
            }
        })
    }

    /// The validated solve body; also used internally for refinement
    /// corrections, whose residual blocks are produced by this solver and
    /// bypass request validation.
    fn solve_many_raw(&self, b: &[f64], nrhs: usize) -> Vec<f64> {
        match &self.factor {
            FactorHolder::F64(f) => f.solve_many(b, nrhs),
            FactorHolder::F32(f) => {
                let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
                f.solve_many(&b32, nrhs).into_iter().map(|v| v as f64).collect()
            }
        }
    }

    /// Solve with iterative refinement: f64 residuals against the original
    /// matrix, corrections through the (possibly f32) factor. Stops per the
    /// module-level convergence contract.
    ///
    /// The relative residual is `‖b − A·x‖∞ / (‖A‖∞·‖x‖∞)`. When that
    /// denominator underflows or vanishes (e.g. `b = 0` so `x = 0`), it
    /// falls back to `‖b‖∞`, and failing that reports the absolute residual
    /// — the history is finite for every input, never NaN.
    pub fn solve_refined(
        &self,
        b: &[f64],
        max_iters: usize,
        tol: f64,
    ) -> Result<RefinedSolution, SolveError> {
        let mut many = self.solve_refined_many(b, 1, max_iters, tol)?;
        let info = many.columns.pop().expect("one column");
        Ok(RefinedSolution {
            x: many.x,
            residual_history: info.residual_history,
            iterations: info.iterations,
            converged: info.converged,
            stop: info.stop,
        })
    }

    /// Blocked iterative refinement over `nrhs` right-hand sides (`b` is
    /// `n × nrhs` column-major).
    ///
    /// Each round computes f64 residuals for every still-active column in
    /// one pass over `A`, compacts them into one block, and runs a single
    /// batched correction solve — the matrix and the factor are walked once
    /// per round instead of once per column. Columns stop independently
    /// (per the module-level contract); because the whole solve path is
    /// RHS-count-invariant, every column's trajectory is bitwise identical
    /// to a [`SpdSolver::solve_refined`] call on that column alone.
    pub fn solve_refined_many(
        &self,
        b: &[f64],
        nrhs: usize,
        max_iters: usize,
        tol: f64,
    ) -> Result<RefinedManySolution, SolveError> {
        let n = self.a.order();
        validate_rhs(n, b, nrhs)?;
        let norm_a = self.norm_a;

        let mut x = self.solve_many_raw(b, nrhs);
        let r0 = self.a.residual_many(&x, b, nrhs);
        let mut cols: Vec<ColState> = (0..nrhs)
            .map(|j| {
                let norm_b = b[j * n..(j + 1) * n].iter().map(|v| v.abs()).fold(0.0, f64::max);
                let r = r0[j * n..(j + 1) * n].to_vec();
                let rel0 = rel_residual(norm_a, norm_b, &x[j * n..(j + 1) * n], &r);
                ColState { history: vec![rel0], norm_b, r, stop: None }
            })
            .collect();

        loop {
            // Decide, per column, whether another correction is warranted —
            // priority: converged > budget exhausted > stagnated.
            for c in cols.iter_mut().filter(|c| c.stop.is_none()) {
                let iters = c.history.len() - 1;
                let cur = c.history[iters];
                if cur <= tol {
                    c.stop = Some(RefineStop::Converged);
                } else if iters == max_iters {
                    c.stop = Some(RefineStop::MaxIterations);
                } else if iters >= 2 && cur > c.history[iters - 1] * 0.9 {
                    c.stop = Some(RefineStop::Stagnated);
                }
            }
            let active: Vec<usize> = (0..nrhs).filter(|&j| cols[j].stop.is_none()).collect();
            if active.is_empty() {
                break;
            }

            // One batched correction solve over the compacted residuals.
            let mut rblock = Vec::with_capacity(active.len() * n);
            for &j in &active {
                rblock.extend_from_slice(&cols[j].r);
            }
            let dx = self.solve_many_raw(&rblock, active.len());
            let (mut xa, mut ba) = (Vec::with_capacity(dx.len()), Vec::with_capacity(dx.len()));
            for (slot, &j) in active.iter().enumerate() {
                let xj = &mut x[j * n..(j + 1) * n];
                for (xi, di) in xj.iter_mut().zip(&dx[slot * n..(slot + 1) * n]) {
                    *xi += di;
                }
                xa.extend_from_slice(xj);
                ba.extend_from_slice(&b[j * n..(j + 1) * n]);
            }
            let r = self.a.residual_many(&xa, &ba, active.len());
            for (slot, &j) in active.iter().enumerate() {
                let c = &mut cols[j];
                c.r.copy_from_slice(&r[slot * n..(slot + 1) * n]);
                let rel = rel_residual(norm_a, c.norm_b, &x[j * n..(j + 1) * n], &c.r);
                c.history.push(rel);
            }
        }

        let columns = cols
            .into_iter()
            .map(|c| {
                let stop = c.stop.expect("every column decided");
                RefineInfo {
                    iterations: c.history.len() - 1,
                    residual_history: c.history,
                    converged: stop == RefineStop::Converged,
                    stop,
                }
            })
            .collect();
        Ok(RefinedManySolution { x, columns })
    }
}

/// Per-column refinement bookkeeping.
struct ColState {
    history: Vec<f64>,
    norm_b: f64,
    r: Vec<f64>,
    stop: Option<RefineStop>,
}

/// `‖r‖∞ / (‖A‖∞·‖x‖∞)` with the denominator guarded: a vanishing or
/// subnormal scale falls back to `‖b‖∞`, then to the absolute residual, so
/// the result is finite (never NaN) for every input including `b = 0`.
fn rel_residual(norm_a: f64, norm_b: f64, x: &[f64], r: &[f64]) -> f64 {
    let rn = r.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let xn = x.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let denom = norm_a * xn;
    if denom.is_normal() {
        rn / denom
    } else if norm_b.is_normal() {
        rn / norm_b
    } else {
        rn
    }
}

/// Run the numeric factorization of `permuted` (the matrix under
/// `analysis`'s permutation, with its pattern) at the precision the options
/// ask for, against `analysis`'s structure.
fn factor_holder(
    permuted: &SymCsc<f64>,
    analysis: &Analysis,
    machine: &mut Machine,
    opts: &SolverOptions,
) -> Result<(FactorHolder, FactorStats), FactorError> {
    let (symbolic, perm) = (&analysis.symbolic, &analysis.perm);
    match opts.precision {
        Precision::F64 => {
            let (f, stats) = factor_permuted(permuted, symbolic, perm, machine, &opts.factor)?;
            Ok((FactorHolder::F64(f), stats))
        }
        Precision::F32 => {
            let a32: SymCsc<f32> = permuted.cast();
            let (f, stats) = factor_permuted(&a32, symbolic, perm, machine, &opts.factor)?;
            Ok((FactorHolder::F32(f), stats))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::PolicySelector;
    use crate::policy::{BaselineThresholds, PolicyKind};
    use mf_matgen::{elasticity_3d, laplacian_3d, rhs_for_solution, Stencil};

    fn solver_opts(p: PolicyKind, prec: Precision) -> SolverOptions {
        SolverOptions {
            ordering: OrderingKind::NestedDissection,
            amalgamation: Some(AmalgamationOptions::default()),
            factor: FactorOptions { selector: PolicySelector::Fixed(p), ..Default::default() },
            precision: prec,
            analysis_workers: 0,
        }
    }

    #[test]
    fn f64_solve_is_accurate_without_refinement() {
        let a = laplacian_3d(6, 5, 4, Stencil::Faces);
        let mut machine = Machine::paper_node();
        let s =
            SpdSolver::new(&a, &mut machine, &solver_opts(PolicyKind::P1, Precision::F64)).unwrap();
        let (xtrue, b) = rhs_for_solution(&a, 1);
        let x = s.solve(&b).unwrap();
        let err = x.iter().zip(&xtrue).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-9, "forward error {err}");
    }

    #[test]
    fn f32_factor_loses_digits_refinement_recovers_them() {
        // The paper's §III-B claim, reproduced with real f32 arithmetic.
        let a = laplacian_3d(7, 6, 5, Stencil::Full);
        let mut machine = Machine::paper_node();
        let s =
            SpdSolver::new(&a, &mut machine, &solver_opts(PolicyKind::P3, Precision::F32)).unwrap();
        let (_, b) = rhs_for_solution(&a, 3);
        let refined = s.solve_refined(&b, 5, 1e-14).unwrap();
        let first = refined.residual_history[0];
        let last = *refined.residual_history.last().unwrap();
        assert!(first > 1e-9, "f32 factor should start with a visible residual: {first:e}");
        assert!(last < 1e-13, "refinement must reach near-f64 accuracy: {last:e}");
        assert!(
            refined.iterations <= 3,
            "well-conditioned system should refine in 1–3 steps, took {}",
            refined.iterations
        );
        assert!(refined.converged, "must report convergence explicitly");
        assert_eq!(refined.stop, RefineStop::Converged);
    }

    #[test]
    fn refinement_monotone_until_convergence() {
        let a = elasticity_3d(4, 4, 3);
        let mut machine = Machine::paper_node();
        let s =
            SpdSolver::new(&a, &mut machine, &solver_opts(PolicyKind::P4, Precision::F32)).unwrap();
        let (_, b) = rhs_for_solution(&a, 9);
        let refined = s.solve_refined(&b, 6, 1e-15).unwrap();
        for w in refined.residual_history.windows(2) {
            assert!(
                w[1] < w[0] * 1.5,
                "residual should not blow up: {:?}",
                refined.residual_history
            );
        }
    }

    #[test]
    fn hybrid_selector_end_to_end() {
        let a = laplacian_3d(7, 7, 7, Stencil::Faces);
        let mut machine = Machine::paper_node();
        let opts = SolverOptions {
            ordering: OrderingKind::NestedDissection,
            amalgamation: Some(AmalgamationOptions::default()),
            factor: FactorOptions {
                selector: PolicySelector::Baseline(BaselineThresholds::default()),
                record_stats: true,
                ..Default::default()
            },
            precision: Precision::F32,
            analysis_workers: 0,
        };
        let s = SpdSolver::new(&a, &mut machine, &opts).unwrap();
        let (_, b) = rhs_for_solution(&a, 4);
        let refined = s.solve_refined(&b, 4, 1e-13).unwrap();
        assert!(*refined.residual_history.last().unwrap() < 1e-12);
        assert!(s.factor_time() > 0.0);
        assert!(s.factor_nnz() > a.nnz_lower());
    }

    #[test]
    fn repeated_solves_reuse_factor() {
        let a = laplacian_3d(5, 5, 5, Stencil::Faces);
        let mut machine = Machine::paper_node();
        let s =
            SpdSolver::new(&a, &mut machine, &solver_opts(PolicyKind::P1, Precision::F64)).unwrap();
        for seed in 0..3 {
            let (xtrue, b) = rhs_for_solution(&a, seed);
            let x = s.solve(&b).unwrap();
            let err = x.iter().zip(&xtrue).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            assert!(err < 1e-9);
        }
    }

    #[test]
    fn zero_rhs_refinement_is_finite_and_converged() {
        // b = 0 ⇒ x = 0: the ‖A‖∞·‖x‖∞ denominator vanishes. The old code
        // produced 0/0 = NaN here and silently reported the NaN as
        // converged; the guarded residual must report a finite (zero)
        // history and explicit convergence.
        let a = laplacian_3d(5, 4, 4, Stencil::Faces);
        let mut machine = Machine::paper_node();
        let s =
            SpdSolver::new(&a, &mut machine, &solver_opts(PolicyKind::P3, Precision::F32)).unwrap();
        let b = vec![0.0; a.order()];
        let refined = s.solve_refined(&b, 4, 1e-14).unwrap();
        assert!(
            refined.residual_history.iter().all(|v| v.is_finite()),
            "history must never contain NaN/inf: {:?}",
            refined.residual_history
        );
        assert!(refined.converged);
        assert_eq!(refined.stop, RefineStop::Converged);
        assert_eq!(refined.iterations, 0, "zero RHS needs no corrections");
        assert!(refined.x.iter().all(|&v| v == 0.0), "solution of A·x = 0 is x = 0");
    }

    #[test]
    fn stagnation_is_reported_not_mislabelled() {
        // An impossible tolerance can't be met: the loop must stop on the
        // f32 precision floor (stagnation) or the budget — and say which —
        // instead of looping or claiming convergence.
        let a = laplacian_3d(6, 5, 4, Stencil::Faces);
        let mut machine = Machine::paper_node();
        let s =
            SpdSolver::new(&a, &mut machine, &solver_opts(PolicyKind::P3, Precision::F32)).unwrap();
        let (_, b) = rhs_for_solution(&a, 5);
        let refined = s.solve_refined(&b, 50, 1e-30).unwrap();
        assert!(!refined.converged);
        assert_ne!(refined.stop, RefineStop::Converged);
        assert!(
            refined.iterations < 50,
            "stagnation must cut the loop well before a 50-step budget"
        );
        assert_eq!(refined.residual_history.len(), refined.iterations + 1);
    }

    #[test]
    fn refined_many_matches_single_column_bitwise() {
        let a = laplacian_3d(5, 5, 4, Stencil::Full);
        let mut machine = Machine::paper_node();
        let s =
            SpdSolver::new(&a, &mut machine, &solver_opts(PolicyKind::P3, Precision::F32)).unwrap();
        let n = a.order();
        let nrhs = 5;
        let mut b = Vec::with_capacity(n * nrhs);
        for j in 0..nrhs {
            let (_, bj) = rhs_for_solution(&a, 100 + j as u64);
            b.extend(bj);
        }
        let many = s.solve_refined_many(&b, nrhs, 5, 1e-14).unwrap();
        assert_eq!(many.columns.len(), nrhs);
        for j in 0..nrhs {
            let single = s.solve_refined(&b[j * n..(j + 1) * n], 5, 1e-14).unwrap();
            assert_eq!(single.residual_history, many.columns[j].residual_history, "col {j}");
            assert_eq!(single.iterations, many.columns[j].iterations, "col {j}");
            assert_eq!(single.converged, many.columns[j].converged, "col {j}");
            for i in 0..n {
                assert_eq!(single.x[i].to_bits(), many.x[i + j * n].to_bits(), "col {j} row {i}");
            }
        }
        assert!(many.all_converged());
    }

    #[test]
    fn refactor_same_pattern_matches_fresh_solver() {
        let a = laplacian_3d(5, 5, 5, Stencil::Faces);
        // Same pattern, different values: exact power-of-two scaling keeps
        // the comparison bitwise-meaningful.
        let a2 = SymCsc::from_parts(
            a.order(),
            a.colptr().to_vec(),
            a.rowind().to_vec(),
            a.values().iter().map(|&v| v * 4.0).collect(),
        );
        let opts = solver_opts(PolicyKind::P1, Precision::F64);
        let mut machine = Machine::paper_node();
        let mut s = SpdSolver::new(&a, &mut machine, &opts).unwrap();
        s.refactor(&a2, &mut machine).unwrap();
        let mut machine2 = Machine::paper_node();
        let fresh = SpdSolver::new(&a2, &mut machine2, &opts).unwrap();
        let (_, b) = rhs_for_solution(&a2, 17);
        let x_re = s.solve(&b).unwrap();
        let x_fresh = fresh.solve(&b).unwrap();
        assert_eq!(x_re.len(), x_fresh.len());
        for (p, q) in x_re.iter().zip(&x_fresh) {
            assert_eq!(p.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn refactor_on_a_reused_machine_reports_its_own_run() {
        // The time-stepping loop: one machine, a factor, then refactors.
        // Each refactor's clock and device accounting are a fresh solver's,
        // not the sum of every run the machine has seen, and the rehearsal
        // on that machine predicts them.
        use crate::factor::PipelineOptions;
        use crate::multigpu::MultiGpuOptions;
        let a = laplacian_3d(10, 10, 10, Stencil::Faces);
        let gpu_bits = |s: &SpdSolver| {
            let u = s.stats().gpu.expect("the paper node has a device");
            ([u.compute_busy, u.copy_busy, u.span].map(f64::to_bits), u.gpus)
        };
        let p4 = solver_opts(PolicyKind::P4, Precision::F32);
        let pipelined = FactorOptions {
            pipeline: PipelineOptions::pipelined(),
            devices: MultiGpuOptions::devices(2),
            ..p4.factor.clone()
        };
        for opts in [p4.clone(), SolverOptions { factor: pipelined, ..p4 }] {
            let fresh = SpdSolver::new(&a, &mut Machine::paper_node(), &opts).unwrap();
            assert!(fresh.stats().gpu.unwrap().compute_busy > 0.0, "the selector uses the GPU");
            let mut machine = Machine::paper_node();
            let mut s = SpdSolver::new(&a, &mut machine, &opts).unwrap();
            for refactor in 1..=2 {
                s.refactor(&a, &mut machine).unwrap();
                let what = format!("{:?} refactor {refactor}", opts.factor.devices);
                assert_eq!(s.factor_time().to_bits(), fresh.factor_time().to_bits(), "{what}");
                assert_eq!(gpu_bits(&s), gpu_bits(&fresh), "{what}: gpu");
                let rehearsed = opts.factor.rehearse::<f32>(&s.analysis().symbolic, &machine);
                let rehearsed = rehearsed.unwrap().total_time;
                assert_eq!(rehearsed.to_bits(), s.factor_time().to_bits(), "{what}: rehearsed");
            }
        }
    }

    #[test]
    fn malformed_requests_get_typed_errors_not_panics() {
        let a = laplacian_3d(4, 4, 3, Stencil::Faces);
        let n = a.order();
        let mut machine = Machine::paper_node();
        let s =
            SpdSolver::new(&a, &mut machine, &solver_opts(PolicyKind::P1, Precision::F64)).unwrap();
        // Wrong-length b, on every entry point.
        let short = vec![1.0; n - 1];
        let want = SolveError::DimensionMismatch { expected: n, got: n - 1 };
        assert_eq!(s.solve(&short).unwrap_err(), want);
        assert_eq!(s.solve_many(&short, 1).unwrap_err(), want);
        assert_eq!(s.solve_many_parallel(&short, 1, 2).unwrap_err(), want);
        assert_eq!(s.solve_refined(&short, 3, 1e-12).unwrap_err(), want);
        assert_eq!(s.solve_refined_many(&short, 1, 3, 1e-12).unwrap_err(), want);
        // nrhs == 0 (even with an empty b, which is length-consistent).
        assert_eq!(s.solve_many(&[], 0).unwrap_err(), SolveError::ZeroRhs);
        assert_eq!(s.solve_refined_many(&[], 0, 3, 1e-12).unwrap_err(), SolveError::ZeroRhs);
        // Non-finite entries, with the offending coordinate reported.
        let mut b = vec![1.0; 2 * n];
        b[n + 3] = f64::NAN;
        assert_eq!(s.solve_many(&b, 2).unwrap_err(), SolveError::NonFinite { column: 1, row: 3 });
        b[n + 3] = f64::INFINITY;
        assert_eq!(
            s.solve_refined_many(&b, 2, 3, 1e-12).unwrap_err(),
            SolveError::NonFinite { column: 1, row: 3 }
        );
        // The solver must still work after every rejection.
        let (xtrue, good) = rhs_for_solution(&a, 11);
        let x = s.solve(&good).unwrap();
        let err = x.iter().zip(&xtrue).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-9);
    }

    /// What a serving layer charges for keeping `s` resident and
    /// refactorable.
    fn charged(s: &SpdSolver) -> usize {
        estimated_memory_bytes(s.analysis(), s.opts.precision, s.opts.factor.memory_budget).unwrap()
    }

    #[test]
    fn memory_estimate_scales_with_precision_and_problem() {
        let a = laplacian_3d(6, 6, 5, Stencil::Faces);
        let mut machine = Machine::paper_node();
        let s64 =
            SpdSolver::new(&a, &mut machine, &solver_opts(PolicyKind::P1, Precision::F64)).unwrap();
        let s32 =
            SpdSolver::new(&a, &mut machine, &solver_opts(PolicyKind::P1, Precision::F32)).unwrap();
        let sym = s64.analysis().symbolic.factor_slab_len();
        assert!(charged(&s64) >= sym * 8, "must charge at least the f64 factor slab");
        assert!(charged(&s32) < charged(&s64), "an f32 factor must charge less than an f64 one");
        let small = laplacian_3d(3, 3, 3, Stencil::Faces);
        let t = SpdSolver::new(&small, &mut machine, &solver_opts(PolicyKind::P1, Precision::F64))
            .unwrap();
        assert!(charged(&t) < charged(&s64));
    }

    #[test]
    fn budgeted_solver_reserves_the_cap_not_the_symbolic_bound() {
        let a = laplacian_3d(7, 7, 7, Stencil::Faces);
        let mut machine = Machine::paper_node();
        let full_opts = solver_opts(PolicyKind::P1, Precision::F64);
        let full = SpdSolver::new(&a, &mut machine, &full_opts).unwrap();

        // A budget at 40% of the symbolic numeric bound.
        let sym = &full.analysis().symbolic;
        let numeric_bound = (sym.factor_slab_len() + sym.update_stack_peak()) * 8;
        let budget = (numeric_bound * 2 / 5).max(min_feasible_budget(sym, 8));
        let opts = SolverOptions {
            factor: FactorOptions { memory_budget: Some(budget), ..full_opts.factor.clone() },
            ..full_opts.clone()
        };
        let s = SpdSolver::new(&a, &mut machine, &opts).unwrap();

        // The budgeted session charges strictly less than the in-core one.
        assert!(charged(&s) < charged(&full));
        // The difference is exactly the numeric storage the budget trimmed.
        assert_eq!(charged(&full) - charged(&s), numeric_bound - budget);
        // A cap below the feasibility floor is the run's own error.
        let required = min_feasible_budget(sym, 8);
        assert_eq!(
            estimated_memory_bytes(full.analysis(), Precision::F64, Some(required - 1)),
            Err(FactorError::BudgetTooSmall { budget: required - 1, required })
        );

        // The budgeted factor still solves to f64 accuracy.
        let (xtrue, b) = rhs_for_solution(&a, 8);
        let x = s.solve(&b).unwrap();
        let err = x.iter().zip(&xtrue).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-8, "forward error {err}");
        assert!(s.stats().ooc.is_some(), "a budgeted run must report OOC stats");
    }

    #[test]
    fn infeasible_budget_is_a_typed_factor_error() {
        let a = laplacian_3d(5, 5, 5, Stencil::Faces);
        let mut machine = Machine::paper_node();
        let mut opts = solver_opts(PolicyKind::P1, Precision::F64);
        opts.factor.memory_budget = Some(64);
        match SpdSolver::new(&a, &mut machine, &opts) {
            Err(FactorError::BudgetTooSmall { budget, required }) => {
                assert_eq!(budget, 64);
                assert!(required > 64);
            }
            Err(other) => panic!("expected BudgetTooSmall, got {other:?}"),
            Ok(_) => panic!("an infeasible budget must not factor"),
        }
    }

    #[test]
    fn parallel_analysis_solver_matches_serial_bitwise() {
        let a = laplacian_3d(6, 5, 5, Stencil::Faces);
        let (_, b) = rhs_for_solution(&a, 23);
        let serial_opts = solver_opts(PolicyKind::P1, Precision::F64);
        let mut machine = Machine::paper_node();
        let x0 = SpdSolver::new(&a, &mut machine, &serial_opts).unwrap().solve(&b).unwrap();
        for workers in [2, 4, 8] {
            let opts = SolverOptions { analysis_workers: workers, ..serial_opts.clone() };
            let mut machine = Machine::paper_node();
            let s = SpdSolver::new(&a, &mut machine, &opts).unwrap();
            let x = s.solve(&b).unwrap();
            for (p, q) in x.iter().zip(&x0) {
                assert_eq!(p.to_bits(), q.to_bits(), "workers={workers}");
            }
        }
    }

    #[test]
    fn missing_diagonal_surfaces_as_typed_factor_error() {
        use mf_sparse::{AnalyzeError, Triplet};
        let mut t = Triplet::new(3);
        t.push(0, 0, 4.0);
        t.push(2, 2, 4.0);
        t.push(2, 1, -1.0); // column 1 has off-diagonal structure but no pivot
        let a = t.assemble();
        for workers in [0, 4] {
            let opts = SolverOptions {
                analysis_workers: workers,
                ..solver_opts(PolicyKind::P1, Precision::F64)
            };
            let mut machine = Machine::paper_node();
            let err = match SpdSolver::new(&a, &mut machine, &opts) {
                Err(e) => e,
                Ok(_) => panic!("missing diagonal must be rejected (workers={workers})"),
            };
            assert_eq!(err, FactorError::Analyze(AnalyzeError::MissingDiagonal { col: 1 }));
        }
    }

    #[test]
    fn refactor_errors_leave_the_solver_unchanged_and_the_structure_shared() {
        fn factor_symbolic(s: &SpdSolver) -> &mf_sparse::SymbolicFactor {
            match &s.factor {
                FactorHolder::F64(f) => &f.symbolic,
                FactorHolder::F32(f) => &f.symbolic,
            }
        }
        let a = laplacian_3d(4, 4, 4, Stencil::Faces);
        let other = laplacian_3d(4, 4, 4, Stencil::Full);
        let mut machine = Machine::paper_node();
        let mut s =
            SpdSolver::new(&a, &mut machine, &solver_opts(PolicyKind::P1, Precision::F64)).unwrap();
        // One copy of the structure: the analysis and the factor point at it.
        let structure = s.analysis().symbolic.clone();
        assert!(factor_symbolic(&s).shares_structure_with(&structure));

        assert_eq!(s.refactor(&other, &mut machine), Err(RefactorError::PatternMismatch));
        // Same pattern, indefinite values: the numeric phase fails.
        let indefinite = SymCsc::from_parts(
            a.order(),
            a.colptr().to_vec(),
            a.rowind().to_vec(),
            a.values().iter().map(|&v| -v).collect(),
        );
        assert!(matches!(
            s.refactor(&indefinite, &mut machine),
            Err(RefactorError::Factor(FactorError::NotPositiveDefinite { .. }))
        ));
        // The old factor must still work after both rejections.
        let (xtrue, b) = rhs_for_solution(&a, 2);
        let x = s.solve(&b).unwrap();
        let err = x.iter().zip(&xtrue).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-9);
        assert!(s.analysis().symbolic.shares_structure_with(&structure));
        assert!(factor_symbolic(&s).shares_structure_with(&structure));

        // A successful refactor swaps matrix and factor, never the structure.
        let scaled = SymCsc::from_parts(
            a.order(),
            a.colptr().to_vec(),
            a.rowind().to_vec(),
            a.values().iter().map(|&v| v * 2.0).collect(),
        );
        s.refactor(&scaled, &mut machine).unwrap();
        assert!(s.analysis().symbolic.shares_structure_with(&structure));
        assert!(factor_symbolic(&s).shares_structure_with(&structure));
        let x2 = s.solve(&b).unwrap();
        let err = x2.iter().zip(&x).map(|(p, q)| (2.0 * p - q).abs()).fold(0.0, f64::max);
        assert!(err < 1e-9, "refactored solver must solve the new system: {err}");
    }
}
