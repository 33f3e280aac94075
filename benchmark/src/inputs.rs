//! Seeded inputs: right-hand sides with known solutions and same-pattern
//! value perturbations. The matrix generators themselves are deterministic;
//! everything that varies with `--seed` is made here.

use crate::rng::Rng;
use gpu_multifrontal::sparse::SymCsc;

/// A system with a known answer: `b = A·x_true`, `nrhs` columns.
pub struct Rhs {
    pub nrhs: usize,
    pub x_true: Vec<f64>,
    pub b: Vec<f64>,
}

impl Rhs {
    pub fn new(a: &SymCsc<f64>, nrhs: usize, rng: &mut Rng) -> Rhs {
        let n = a.order();
        let x_true = rng.vector(n * nrhs);
        let mut b = vec![0.0; n * nrhs];
        for j in 0..nrhs {
            a.matvec(&x_true[j * n..(j + 1) * n], &mut b[j * n..(j + 1) * n]);
        }
        Rhs { nrhs, x_true, b }
    }

    /// Columns `first..first + count` (wrapping) as one contiguous block of
    /// `(b, x_true)`.
    pub fn columns(&self, first: usize, count: usize) -> (Vec<f64>, Vec<f64>) {
        let n = self.b.len() / self.nrhs;
        let mut b = Vec::with_capacity(n * count);
        let mut x = Vec::with_capacity(n * count);
        for c in 0..count {
            let j = (first + c) % self.nrhs;
            b.extend_from_slice(&self.b[j * n..(j + 1) * n]);
            x.extend_from_slice(&self.x_true[j * n..(j + 1) * n]);
        }
        (b, x)
    }
}

/// `D·A·D` with `D = diag(1 + amplitude·u)`, `u` uniform in `[-1, 1)`: same
/// pattern, every value changed, still SPD (a congruence).
pub fn perturbed(a: &SymCsc<f64>, amplitude: f64, rng: &mut Rng) -> SymCsc<f64> {
    let n = a.order();
    let d: Vec<f64> = (0..n).map(|_| 1.0 + amplitude * rng.symmetric()).collect();
    let mut values = Vec::with_capacity(a.nnz_lower());
    for j in 0..n {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_vals(j)) {
            values.push(v * d[i] * d[j]);
        }
    }
    SymCsc::from_parts(n, a.colptr().to_vec(), a.rowind().to_vec(), values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_multifrontal::matgen::{laplacian_2d, Stencil};

    #[test]
    fn rhs_is_reproducible_and_consistent() {
        let a = laplacian_2d(5, 4, Stencil::Full);
        let r1 = Rhs::new(&a, 3, &mut Rng::new(9, "rhs"));
        let r2 = Rhs::new(&a, 3, &mut Rng::new(9, "rhs"));
        let r3 = Rhs::new(&a, 3, &mut Rng::new(10, "rhs"));
        assert_eq!(r1.b, r2.b);
        assert_ne!(r1.b, r3.b);
        let n = a.order();
        let res = a.residual(&r1.x_true[n..2 * n], &r1.b[n..2 * n]);
        assert!(res.iter().all(|v| v.abs() < 1e-12));
        let (b, x) = r1.columns(2, 2);
        assert_eq!(&b[..n], &r1.b[2 * n..]);
        assert_eq!(&x[n..], &r1.x_true[..n]);
    }

    #[test]
    fn perturbation_keeps_pattern_changes_values() {
        let a = laplacian_2d(5, 4, Stencil::Full);
        let p = perturbed(&a, 0.05, &mut Rng::new(1, "perturb"));
        assert!(p.same_pattern(&a));
        assert!(a.values().iter().zip(p.values()).all(|(x, y)| x != y));
        assert_eq!(p.values(), perturbed(&a, 0.05, &mut Rng::new(1, "perturb")).values());
    }
}
