//! # mf-runtime — an elimination-tree task runtime
//!
//! The execution substrate that turns the *simulated* multi-worker results
//! of `mf-core::parallel` into *wall-clock* parallel numeric factorization:
//! a from-scratch, std-only (`std::thread`, one `Mutex` and one `Condvar`
//! per run) scheduler of dependency-counted task DAGs, in the style of the
//! asynchronous task-DAG sparse Cholesky solvers (Jacquelin et al.'s
//! fan-both solver; PaStiX/qr_mumps style runtimes).
//!
//! Two pieces:
//!
//! * [`TaskGraph`] — a dependency-counted DAG; for the factorization it is
//!   built straight from the postordered supernodal elimination tree
//!   ([`TaskGraph::from_parents`]), with the leaves seeding the ready
//!   stack;
//! * [`Runtime`] — the worker pool: spawn, schedule from one ready stack
//!   (a worker runs the first dependent it releases next, itself — depth
//!   first into the tree), wait idle workers on one condvar, propagate
//!   errors and panics, return per-worker state.
//!
//! Plus [`ThreadBudget`], the nested-parallelism arbiter that shares one
//! hardware-thread budget between tree-level workers and the dense engine's
//! column-slab threading (leaf fronts go wide *across* the tree, root
//! fronts go wide *inside* the kernel).
//!
//! The runtime itself imposes no ordering beyond the dependency edges —
//! determinism of the factorization's *numbers* is the caller's business
//! (`mf-core` buffers child update matrices and extend-adds them in
//! postorder child rank, making the parallel factor bitwise identical to
//! the serial one; see `factor_permuted_parallel`).

#![forbid(unsafe_code)]

pub mod budget;
pub mod graph;
pub mod pool;

pub use budget::{BudgetLease, ThreadBudget};
pub use graph::TaskGraph;
pub use pool::Runtime;
