//! # mf-matgen — test matrix generators
//!
//! The paper evaluates on five proprietary/industrial SPD matrices from 3-D
//! structural analysis (Table II). Those are not redistributable, so this
//! crate generates structurally equivalent stand-ins: scalar Laplacians on
//! 2-D/3-D grids (7- and 27-point stencils), 3-DOF vector "elasticity"
//! operators, and random SPD patterns. The [`paper`] module maps each paper
//! matrix to a scaled stand-in whose elimination-tree/front-size *shape*
//! matches the original's role in the evaluation (see DESIGN.md §1).

#![forbid(unsafe_code)]

pub mod elasticity;
pub mod grid;
pub mod paper;
pub mod random;
pub mod rhs;

pub use elasticity::elasticity_3d;
pub use grid::{laplacian_2d, laplacian_3d, Stencil};
pub use paper::{paper_suite, PaperMatrix};
pub use random::random_spd_sparse;
pub use rhs::{rhs_for_solution, rhs_ones};
