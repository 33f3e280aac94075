//! # mf-autotune — cost-sensitive policy learning (Section VI)
//!
//! Trains the multinomial logistic policy classifier by **directly
//! minimizing expected computation time** over empirical per-call timing
//! data (Eq. 3 of the paper):
//!
//! ```text
//! θ* = argmin_θ Σᵢ Σⱼ p_θ(y(xᵢ) = Cⱼ | xᵢ) · Tᵢⱼ
//! ```
//!
//! rather than classification accuracy — so a prediction error on a huge
//! front (costly) is penalised far more than one on a tiny front
//! (harmless), the paper's third desideratum. A plain cross-entropy
//! objective is included as the ablation comparator representing prior work
//! (the paper's references 19 and 20).

#![forbid(unsafe_code)]

pub mod dataset;
pub mod train;

pub use dataset::{DataPoint, Dataset};
pub use train::{train, Objective, TrainOptions};
