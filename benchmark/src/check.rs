//! Correctness checks applied to every answer the solver returns. A failed
//! check counts the op as failed and makes the command exit non-zero.

use gpu_multifrontal::sparse::SymCsc;

/// Bound on ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞) for every solve.
pub const RESIDUAL_TOL: f64 = 1e-12;
/// Bound on ‖x − x_true‖∞ / ‖x_true‖∞. The stand-in matrices have condition
/// numbers up to ~1e5, so a backward-stable answer lands near 1e-11; the
/// bound leaves room for that and still rejects a wrong solution.
pub const FORWARD_TOL: f64 = 1e-7;

/// Deliberate damage, to show that the checks can fail (`--sabotage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sabotage {
    /// Flip the top mantissa bit of the largest solution entry.
    FlipBit,
    /// Check residuals against an unreachable tolerance.
    Tolerance,
}

#[derive(Debug, Clone, Copy)]
pub struct Checks {
    residual_tol: f64,
    flip: bool,
}

impl Checks {
    pub fn new(sabotage: Option<Sabotage>) -> Checks {
        Checks {
            residual_tol: if sabotage == Some(Sabotage::Tolerance) { 1e-30 } else { RESIDUAL_TOL },
            flip: sabotage == Some(Sabotage::FlipBit),
        }
    }

    /// Apply the bit-flip sabotage, if asked for, to a solution block the
    /// solver just returned. A no-op in every normal run.
    pub fn tamper(&self, x: &mut [f64]) {
        if self.flip {
            flip_top_mantissa_bit(x);
        }
    }

    /// Residual and forward-error check of column-major block `x` (`nrhs`
    /// columns) against `A`, `b` and the seeded `x_true`.
    pub fn solution(
        &self,
        a: &SymCsc<f64>,
        x: &[f64],
        b: &[f64],
        x_true: &[f64],
        nrhs: usize,
    ) -> Result<(), String> {
        let n = a.order();
        if x.len() != n * nrhs || b.len() != n * nrhs || x_true.len() != n * nrhs {
            return Err(format!("solution block has {} entries, expected {}", x.len(), n * nrhs));
        }
        let norm_a = a.norm_inf();
        for j in 0..nrhs {
            let col = j * n..(j + 1) * n;
            let res = rel_residual(a, norm_a, &x[col.clone()], &b[col.clone()]);
            if res.is_nan() || res > self.residual_tol {
                return Err(format!(
                    "column {j}: relative residual {res:e} > {:e}",
                    self.residual_tol
                ));
            }
            let fwd = forward_error(&x[col.clone()], &x_true[col]);
            if fwd.is_nan() || fwd > FORWARD_TOL {
                return Err(format!("column {j}: forward error {fwd:e} > {FORWARD_TOL:e}"));
            }
        }
        Ok(())
    }
}

fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// ‖b − A·x‖∞ / (‖A‖∞·‖x‖∞); NaN in `x` yields NaN, which the caller rejects.
pub fn rel_residual(a: &SymCsc<f64>, norm_a: f64, x: &[f64], b: &[f64]) -> f64 {
    let r = a.residual(x, b);
    if r.iter().any(|v| v.is_nan()) {
        return f64::NAN;
    }
    norm_inf(&r) / (norm_a * norm_inf(x))
}

/// ‖x − x_true‖∞ / ‖x_true‖∞.
pub fn forward_error(x: &[f64], x_true: &[f64]) -> f64 {
    let diff = x.iter().zip(x_true).fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
    diff / norm_inf(x_true)
}

pub fn same_bits(x: &[f64], y: &[f64]) -> bool {
    x.len() == y.len() && x.iter().zip(y).all(|(a, b)| a.to_bits() == b.to_bits())
}

pub fn flip_top_mantissa_bit(x: &mut [f64]) {
    let Some(i) = (0..x.len()).max_by(|&i, &j| x[i].abs().total_cmp(&x[j].abs())) else { return };
    x[i] = f64::from_bits(x[i].to_bits() ^ (1u64 << 51));
}

/// Counts ops attempted and failed, keeping the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn op(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons.push(format!("{what}: {why}"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_multifrontal::matgen::{laplacian_2d, Stencil};

    fn system() -> (SymCsc<f64>, Vec<f64>, Vec<f64>) {
        let a = laplacian_2d(6, 5, Stencil::Full);
        let x: Vec<f64> = (0..a.order()).map(|i| 0.25 + i as f64 / 7.0).collect();
        let mut b = vec![0.0; a.order()];
        a.matvec(&x, &mut b);
        (a, x, b)
    }

    #[test]
    fn exact_solution_passes() {
        let (a, x, b) = system();
        assert!(Checks::new(None).solution(&a, &x, &b, &x, 1).is_ok());
    }

    #[test]
    fn flipped_bit_fails_residual_and_bits() {
        let (a, x, b) = system();
        let mut y = x.clone();
        Checks::new(Some(Sabotage::FlipBit)).tamper(&mut y);
        assert!(!same_bits(&x, &y));
        assert!(Checks::new(None).solution(&a, &y, &b, &x, 1).is_err());
        // without sabotage, tamper leaves the block alone.
        let mut z = x.clone();
        Checks::new(None).tamper(&mut z);
        assert!(same_bits(&x, &z));
    }

    #[test]
    fn wrong_tolerance_fails_a_good_solution() {
        let (a, mut x, b) = system();
        x[3] *= 1.0 + 1e-15;
        assert!(Checks::new(None).solution(&a, &x, &b, &x, 1).is_ok());
        assert!(Checks::new(Some(Sabotage::Tolerance)).solution(&a, &x, &b, &x, 1).is_err());
    }

    #[test]
    fn nan_and_wrong_length_fail() {
        let (a, x, b) = system();
        let mut y = x.clone();
        y[0] = f64::NAN;
        assert!(Checks::new(None).solution(&a, &y, &b, &x, 1).is_err());
        assert!(Checks::new(None).solution(&a, &x[1..], &b, &x, 1).is_err());
    }

    #[test]
    fn tally_counts() {
        let mut t = Tally::default();
        t.op("a", Ok(()));
        t.op("b", Err("bad".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.reasons, vec!["b: bad".to_string()]);
    }
}
