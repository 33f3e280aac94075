//! # mf-sparse — sparse symmetric matrix substrate
//!
//! Everything the multifrontal factorization needs *before* any numbers are
//! touched: compressed sparse column storage for symmetric matrices
//! ([`SymCsc`]), fill-reducing orderings (natural, reverse Cuthill-McKee,
//! minimum degree, nested dissection), the elimination tree (Liu's
//! algorithm), postordering, column counts (Gilbert, Ng and Peyton),
//! fundamental and relaxed supernodes, and the full supernodal symbolic
//! factorization that determines the `(m, k)` shape of every frontal matrix —
//! the quantities the paper's policies and auto-tuner key on.
//!
//! The symbolic pipeline mirrors the one in WSMP-style supernodal
//! multifrontal codes (the paper's references 3 and 13):
//!
//! ```text
//! A (lower CSC) → ordering P → etree of P·A·Pᵀ → P ∘ postorder → P·A·Pᵀ
//!              → column counts → fundamental supernodes
//!              → relaxed amalgamation
//!              → per-supernode row structures (m, k per front)
//! ```
//!
//! [`order`] returns every ordering already composed with the postorder of
//! the elimination tree it induces (the tree is read off the ordering's
//! adjacency graph, not a permuted matrix), so supernode ids are their own
//! postorder and [`analyze`] reuses the relabelled tree.
//!
//! Every stage is one serial body; the `_parallel` drivers run that body on
//! tasks of the mf-runtime pool and are the serial stage at one worker,
//! except [`column_counts_parallel`]: Gilbert, Ng and Peyton's near-linear
//! counts cost less than handing out, so it is [`column_counts`] at every
//! worker count. The tree-parallel drivers — row structures here, the
//! numeric factor and the solve sweeps in mf-core — share one task
//! partition, [`RangeTasks`].

#![forbid(unsafe_code)]

pub mod csc;
pub mod etree;
pub mod io;
pub mod ordering;
pub mod perm;
pub mod supernode;
pub mod symbolic;
mod tasks;

pub use csc::{SymCsc, Triplet};
pub use etree::{column_counts, column_counts_parallel, elimination_tree, EliminationTree};
pub use ordering::{nested_dissection_parallel, order, order_parallel, OrderingKind};
pub use perm::Permutation;
pub use supernode::{
    amalgamate, fundamental_supernodes, supernode_forest, AmalgamationOptions, SupernodePartition,
};
pub use symbolic::{
    analyze, analyze_parallel, symbolic_factor, symbolic_factor_parallel, Analysis, AnalyzeError,
    SymbolicFactor,
};
pub use tasks::RangeTasks;
