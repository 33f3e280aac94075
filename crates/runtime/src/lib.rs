//! # mf-runtime — a work-stealing elimination-tree task runtime
//!
//! The execution substrate that turns the *simulated* multi-worker results
//! of `mf-core::parallel` into *wall-clock* parallel numeric factorization:
//! a from-scratch, std-only (`std::thread`, `Mutex`/`Condvar`, atomics)
//! work-stealing scheduler in the style of the asynchronous task-DAG sparse
//! Cholesky solvers (Jacquelin et al.'s fan-both solver; PaStiX/qr_mumps
//! style runtimes).
//!
//! Three pieces:
//!
//! * [`TaskDeque`] — per-worker Chase–Lev-style deques: the owner pushes and
//!   pops at the bottom (LIFO, depth-first into the tree), thieves CAS the
//!   top (FIFO, breadth-first across it);
//! * [`TaskGraph`] — a dependency-counted DAG; for the factorization it is
//!   built straight from the postordered supernodal elimination tree
//!   ([`TaskGraph::from_parents`]), with the leaves seeding the ready
//!   queues;
//! * [`Runtime`] — the worker pool: spawn, schedule, steal, park idle
//!   workers, propagate errors, return per-worker state.
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
pub mod deque;
pub mod graph;
pub mod pool;

pub use budget::{BudgetLease, ThreadBudget};
pub use deque::{Steal, TaskDeque};
pub use graph::TaskGraph;
pub use pool::Runtime;
