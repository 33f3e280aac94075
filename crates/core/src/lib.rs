//! # mf-core — hybrid CPU/GPU supernodal multifrontal Cholesky
//!
//! The paper's primary contribution: sparse Cholesky factorization whose
//! factor-update operations are scheduled between the host CPU and the GPU
//! under four policies (P1–P4, Table VI), selected per front by a fixed
//! rule, op-count thresholds (baseline hybrid), a retrospective oracle
//! (ideal hybrid), or the trained cost-sensitive classifier of Section VI
//! (model hybrid — trained by `mf-autotune`).
//!
//! ## Quick start
//!
//! ```
//! use mf_core::prelude::*;
//! use mf_gpusim::Machine;
//!
//! let a = mf_matgen::laplacian_3d(6, 6, 6, mf_matgen::Stencil::Faces);
//! let mut machine = Machine::paper_node();
//! let opts = SolverOptions {
//!     factor: FactorOptions {
//!         selector: PolicySelector::Baseline(BaselineThresholds::default()),
//!         ..Default::default()
//!     },
//!     ..Default::default()
//! };
//! let solver = SpdSolver::new(&a, &mut machine, &opts).unwrap();
//! let b = mf_matgen::rhs_ones(&a);
//! let sol = solver.solve_refined(&b, 4, 1e-12).unwrap();
//! assert!(sol.residual_history.last().unwrap() < &1e-11);
//! ```

#![forbid(unsafe_code)]

mod arena;
mod factor;
mod features;
mod frontal;
mod fu;
mod lane;
mod multigpu;
mod ooc;
mod parallel;
mod pinned_pool;
mod plan;
mod policy;
mod solve;
mod solver;
mod stats;

pub use factor::{
    factor_permuted, CholeskyFactor, FactorError, FactorOptions, PipelineOptions, PolicySelector,
};
pub use features::{raw_features, LinearPolicyModel, NUM_FEATURES};
pub use fu::estimate_fu_time;
pub use multigpu::MultiGpuOptions;
pub use ooc::{in_core_bytes, min_feasible_budget, OocStats};
pub use parallel::{
    durations_by_supernode, factor_permuted_parallel, simulate_tree_schedule, MoldableModel,
    ParallelOptions, ScheduleResult,
};
pub use plan::{Decision, ExecPlan, PlanError, Schedule};
pub use policy::{BaselineThresholds, PolicyKind};
pub use solver::{
    estimated_memory_bytes, Precision, RefactorError, RefineInfo, RefineStop, RefinedManySolution,
    RefinedSolution, SolveError, SolverOptions, SpdSolver,
};
pub use stats::{FactorStats, FuRecord};

// Re-export the analysis entry points: `analyze_parallel` is the symbolic
// pipeline at any worker count (bitwise identical at every one), `analyze` is
// it at one worker, and `AnalyzeError` is how it rejects structurally
// singular input.
pub use mf_sparse::{analyze, analyze_parallel, Analysis, AnalyzeError};

/// Convenient glob-import of the solver-facing API.
pub mod prelude {
    pub use crate::factor::{FactorOptions, PipelineOptions, PolicySelector};
    pub use crate::multigpu::MultiGpuOptions;
    pub use crate::ooc::{in_core_bytes, min_feasible_budget};
    pub use crate::plan::{Decision, ExecPlan, PlanError, Schedule};
    pub use crate::policy::{BaselineThresholds, PolicyKind};
    pub use crate::solver::{
        Precision, RefactorError, RefineStop, RefinedManySolution, RefinedSolution, SolveError,
        SolverOptions, SpdSolver,
    };
    pub use mf_sparse::{analyze, analyze_parallel, Analysis, AnalyzeError};
}
