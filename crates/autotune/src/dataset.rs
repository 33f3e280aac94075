//! Timing datasets: per-call `(m, k, T_i1..T_i4)` tuples.
//!
//! Built by running the factorization once per fixed policy with stats
//! recording and joining the per-supernode records — exactly how the paper
//! gathers its empirical data.

use mf_core::{FactorStats, PolicyKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One factor-update call with its observed time under every policy.
#[derive(Debug, Clone, Copy)]
pub struct DataPoint {
    /// Update-matrix size.
    pub m: usize,
    /// Pivot-block width.
    pub k: usize,
    /// Observed times `T_ij` for policies P1..P4, seconds.
    pub times: [f64; 4],
}

impl DataPoint {
    /// The retrospectively best policy for this call.
    pub fn best(&self) -> PolicyKind {
        let mut b = 0;
        for j in 1..4 {
            if self.times[j] < self.times[b] {
                b = j;
            }
        }
        PolicyKind::from_index(b)
    }

    /// Time under the best policy.
    pub fn best_time(&self) -> f64 {
        self.times.iter().cloned().fold(f64::INFINITY, f64::min)
    }
}

/// A collection of timed factor-update calls.
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// The data points.
    pub points: Vec<DataPoint>,
}

impl Dataset {
    /// Join four per-policy factorization runs (same matrix, same symbolic
    /// structure) into a dataset. Records are matched by supernode id.
    ///
    /// # Panics
    /// Panics if the runs don't cover the same supernodes in the same order.
    pub fn from_policy_runs(runs: &[&FactorStats; 4]) -> Dataset {
        let n = runs[0].records.len();
        for r in runs {
            assert_eq!(r.records.len(), n, "runs must cover identical supernode sets");
        }
        let mut points = Vec::with_capacity(n);
        for i in 0..n {
            let base = &runs[0].records[i];
            let mut times = [0.0f64; 4];
            for (j, r) in runs.iter().enumerate() {
                let rec = &r.records[i];
                assert_eq!(rec.sn, base.sn, "record order mismatch at {i}");
                times[j] = rec.total;
            }
            points.push(DataPoint { m: base.m, k: base.k, times });
        }
        Dataset { points }
    }

    /// Merge several datasets (e.g. across the five-matrix suite).
    pub fn merge(sets: impl IntoIterator<Item = Dataset>) -> Dataset {
        let mut points = Vec::new();
        for s in sets {
            points.extend(s.points);
        }
        Dataset { points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Deterministic shuffle + split into (train, test) with `train_frac`
    /// of the points in the training set.
    pub fn split(&self, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..idx.len()).rev() {
            let j = rng.gen_range(0..=i);
            idx.swap(i, j);
        }
        let ntrain = ((self.len() as f64) * train_frac).round() as usize;
        let train = Dataset { points: idx[..ntrain].iter().map(|&i| self.points[i]).collect() };
        let test = Dataset { points: idx[ntrain..].iter().map(|&i| self.points[i]).collect() };
        (train, test)
    }

    /// Total time if every call used the retrospectively best policy — the
    /// ideal hybrid `P_IH`.
    pub fn ideal_time(&self) -> f64 {
        self.points.iter().map(|p| p.best_time()).sum()
    }

    /// Total time if every call used the single fixed policy `p`.
    pub fn fixed_policy_time(&self, p: PolicyKind) -> f64 {
        self.points.iter().map(|d| d.times[p.index()]).sum()
    }

    /// Total time under an arbitrary predictor `(m, k) → policy`.
    pub fn predictor_time(&self, f: impl Fn(usize, usize) -> PolicyKind) -> f64 {
        self.points.iter().map(|d| d.times[f(d.m, d.k).index()]).sum()
    }

    /// Fraction of calls whose chosen policy is within `slack` (relative) of
    /// the best time — the accuracy notion that matters for a cost-sensitive
    /// learner, where exact argmin labels are ill-defined at near-ties.
    pub fn predictor_regret_accuracy(
        &self,
        f: impl Fn(usize, usize) -> PolicyKind,
        slack: f64,
    ) -> f64 {
        if self.is_empty() {
            return 1.0;
        }
        let hit = self
            .points
            .iter()
            .filter(|d| d.times[f(d.m, d.k).index()] <= d.best_time() * (1.0 + slack))
            .count();
        hit as f64 / self.len() as f64
    }

    /// The per-supernode oracle table for an ideal-hybrid factorization run
    /// (requires this dataset to be in supernode order of a single run).
    pub fn oracle_table(&self) -> Vec<PolicyKind> {
        self.points.iter().map(|p| p.best()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(m: usize, k: usize, times: [f64; 4]) -> DataPoint {
        DataPoint { m, k, times }
    }

    #[test]
    fn best_policy_is_argmin() {
        let p = point(10, 10, [4.0, 3.0, 5.0, 6.0]);
        assert_eq!(p.best(), PolicyKind::P2);
        assert_eq!(p.best_time(), 3.0);
    }

    #[test]
    fn ideal_and_fixed_times() {
        let d = Dataset {
            points: vec![point(1, 1, [1.0, 2.0, 3.0, 4.0]), point(2, 2, [4.0, 3.0, 2.0, 1.0])],
        };
        assert_eq!(d.ideal_time(), 2.0);
        assert_eq!(d.fixed_policy_time(PolicyKind::P1), 5.0);
        assert_eq!(d.fixed_policy_time(PolicyKind::P4), 5.0);
        // A perfect predictor reaches the ideal.
        let t = d.predictor_time(|m, _| if m == 1 { PolicyKind::P1 } else { PolicyKind::P4 });
        assert_eq!(t, d.ideal_time());
    }

    #[test]
    fn split_partitions_all_points() {
        let d = Dataset { points: (0..100).map(|i| point(i, i, [1.0, 2.0, 3.0, 4.0])).collect() };
        let (tr, te) = d.split(0.8, 7);
        assert_eq!(tr.len(), 80);
        assert_eq!(te.len(), 20);
        // Deterministic.
        let (tr2, _) = d.split(0.8, 7);
        assert_eq!(
            tr.points.iter().map(|p| p.m).collect::<Vec<_>>(),
            tr2.points.iter().map(|p| p.m).collect::<Vec<_>>()
        );
    }

    #[test]
    fn merge_concatenates() {
        let a = Dataset { points: vec![point(1, 1, [1.0; 4])] };
        let b = Dataset { points: vec![point(2, 2, [1.0; 4]), point(3, 3, [1.0; 4])] };
        assert_eq!(Dataset::merge([a, b]).len(), 3);
    }

    #[test]
    fn oracle_table_matches_best() {
        let d = Dataset {
            points: vec![point(1, 1, [0.5, 2.0, 3.0, 4.0]), point(2, 2, [4.0, 3.0, 2.0, 0.1])],
        };
        assert_eq!(d.oracle_table(), vec![PolicyKind::P1, PolicyKind::P4]);
    }
}
