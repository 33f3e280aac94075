//! # gpu-multifrontal
//!
//! A from-scratch Rust reproduction of *“Multifrontal Factorization of
//! Sparse SPD Matrices on GPUs”* (George, Saxena, Gupta, Singh, Choudhury —
//! IEEE IPDPS 2011): a supernodal multifrontal sparse Cholesky solver whose
//! factor-update operations are scheduled across a host CPU and a
//! (simulated, calibrated) GPU under four policies, with a cost-sensitive
//! auto-tuned policy classifier.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`dense`] — dense BLAS-3/LAPACK-style kernels (`potrf`/`trsm`/`syrk`/`gemm`),
//! * [`sparse`] — CSC storage, orderings, elimination trees, supernodes,
//!   symbolic factorization,
//! * [`gpusim`] — the calibrated Tesla-T10 device model (streams, PCIe,
//!   CUBLAS-like kernels computing real f32 numerics on simulated time),
//! * [`core`] — the hybrid multifrontal factorization, policies P1–P4,
//!   hybrid selectors, solves, iterative refinement, parallel scheduling,
//! * [`runtime`] — the elimination-tree task runtime backing the
//!   wall-clock parallel driver,
//! * [`autotune`] — the expected-cost policy classifier (paper Eq. 3),
//! * [`matgen`] — the synthetic matrix suite standing in for Table II.
//!
//! ```
//! use gpu_multifrontal::prelude::*;
//!
//! let a = gpu_multifrontal::matgen::laplacian_3d(8, 8, 8, gpu_multifrontal::matgen::Stencil::Faces);
//! let mut machine = Machine::paper_node();
//! let opts = SolverOptions {
//!     factor: FactorOptions {
//!         selector: PolicySelector::Baseline(BaselineThresholds::default()),
//!         ..Default::default()
//!     },
//!     ..Default::default()
//! };
//! let solver = SpdSolver::new(&a, &mut machine, &opts).unwrap();
//! let b = gpu_multifrontal::matgen::rhs_ones(&a);
//! let sol = solver.solve_refined(&b, 4, 1e-12).unwrap();
//! assert!(*sol.residual_history.last().unwrap() < 1e-11);
//! println!("factored in {:.3} simulated seconds", solver.factor_time());
//! ```

#![forbid(unsafe_code)]

pub use mf_autotune as autotune;
pub use mf_core as core;
pub use mf_dense as dense;
pub use mf_gpusim as gpusim;
pub use mf_matgen as matgen;
pub use mf_runtime as runtime;
pub use mf_server as server;
pub use mf_sparse as sparse;

/// Glob-import of the user-facing solver API.
pub mod prelude {
    pub use mf_core::prelude::*;
    pub use mf_core::{FactorOptions, PolicySelector};
    pub use mf_gpusim::Machine;
    pub use mf_sparse::{OrderingKind, SymCsc, Triplet};
}
