//! Policy maps and speedup maps over the `(m, k)` plane (Figures 12–14).
//!
//! Uses `mf_core::estimate_fu_time` (the real policy code paths run without
//! data: a staging pool built without data, device buffers reserved on the
//! caller's own device, not allocated) to evaluate every cell — the ranges
//! go to `m = k = 10000`, far beyond feasible real numerics.

use mf_core::{estimate_fu_time, BaselineThresholds, LinearPolicyModel, PolicyKind};
use mf_dense::FuFlops;
use mf_gpusim::Machine;

/// A grid of per-policy time estimates over the `(m, k)` plane.
pub struct TimeGrid {
    /// Cell width in matrix-dimension units.
    pub cell: usize,
    /// Number of cells per axis.
    pub cells: usize,
    /// `times[im][ik][policy]`, seconds, at the cell-centre dims.
    pub times: Vec<Vec<[f64; 4]>>,
}

impl TimeGrid {
    /// Evaluate the grid with cell centres `(im·cell + cell/2, ik·cell +
    /// cell/2)` for `im, ik` in `0..cells`.
    pub fn compute(machine: &mut Machine, cell: usize, cells: usize, copy_optimized: bool) -> Self {
        let mut times = vec![vec![[0.0f64; 4]; cells]; cells];
        for (im, row) in times.iter_mut().enumerate() {
            let m = im * cell + cell / 2;
            for (ik, entry) in row.iter_mut().enumerate() {
                let k = (ik * cell + cell / 2).max(1);
                for p in PolicyKind::ALL {
                    entry[p.index()] = estimate_fu_time(machine, m, k, p, copy_optimized);
                }
            }
        }
        TimeGrid { cell, cells, times }
    }

    /// Best policy per cell (the ideal map of Fig. 12(a)/13(a)).
    pub fn ideal_map(&self) -> Vec<Vec<PolicyKind>> {
        self.times
            .iter()
            .map(|row| {
                row.iter()
                    .map(|t| {
                        let mut b = 0;
                        for j in 1..4 {
                            if t[j] < t[b] {
                                b = j;
                            }
                        }
                        PolicyKind::from_index(b)
                    })
                    .collect()
            })
            .collect()
    }

    /// Map from a trained model (Fig. 12(b)/13(b)).
    pub fn model_map(&self, model: &LinearPolicyModel) -> Vec<Vec<PolicyKind>> {
        (0..self.cells)
            .map(|im| {
                let m = im * self.cell + self.cell / 2;
                (0..self.cells)
                    .map(|ik| {
                        let k = (ik * self.cell + self.cell / 2).max(1);
                        model.predict(m, k)
                    })
                    .collect()
            })
            .collect()
    }

    /// Map from op-count thresholds (Fig. 12(c)/13(c)).
    pub fn baseline_map(&self, thresholds: &BaselineThresholds) -> Vec<Vec<PolicyKind>> {
        (0..self.cells)
            .map(|im| {
                let m = im * self.cell + self.cell / 2;
                (0..self.cells)
                    .map(|ik| {
                        let k = (ik * self.cell + self.cell / 2).max(1);
                        thresholds.choose(FuFlops::new(m, k).total())
                    })
                    .collect()
            })
            .collect()
    }

    /// Speedup of a policy map relative to P1 per cell (Fig. 14).
    pub fn speedup_map(&self, map: &[Vec<PolicyKind>]) -> Vec<Vec<f64>> {
        self.times
            .iter()
            .zip(map)
            .map(|(trow, mrow)| trow.iter().zip(mrow).map(|(t, p)| t[0] / t[p.index()]).collect())
            .collect()
    }

    /// Expected total time of a map under a call-density weighting that
    /// mimics the real front distribution (many small, few large).
    pub fn weighted_time(&self, map: &[Vec<PolicyKind>]) -> f64 {
        let mut total = 0.0;
        for (im, row) in self.times.iter().enumerate() {
            let m = (im * self.cell + self.cell / 2) as f64;
            for (ik, t) in row.iter().enumerate() {
                let k = (ik * self.cell + self.cell / 2) as f64;
                // Density ∝ 1/(m·k): small fronts vastly outnumber large.
                let w = 1.0 / ((1.0 + m) * (1.0 + k));
                total += w * t[map[im][ik].index()];
            }
        }
        total
    }
}

/// Render a policy map as ASCII (rows = k descending, cols = m ascending) —
/// the textual analogue of Figures 12/13.
pub fn render_map(map: &[Vec<PolicyKind>]) -> String {
    let cells = map.len();
    let mut out = String::new();
    for ik in (0..cells).rev() {
        out.push_str("k| ");
        for row in map.iter().take(cells) {
            let c = match row[ik] {
                PolicyKind::P1 => '1',
                PolicyKind::P2 => '2',
                PolicyKind::P3 => '3',
                PolicyKind::P4 => '4',
            };
            out.push(c);
        }
        out.push('\n');
    }
    out.push_str("   ");
    for _ in 0..cells {
        out.push('-');
    }
    out.push_str("> m\n");
    out
}

/// Fraction of cells on which two maps agree.
pub fn map_agreement(a: &[Vec<PolicyKind>], b: &[Vec<PolicyKind>]) -> f64 {
    let mut same = 0usize;
    let mut total = 0usize;
    for (ra, rb) in a.iter().zip(b) {
        for (ca, cb) in ra.iter().zip(rb) {
            total += 1;
            if ca == cb {
                same += 1;
            }
        }
    }
    same as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_structure_and_small_cells_prefer_p1() {
        let mut machine = Machine::paper_node();
        let g = TimeGrid::compute(&mut machine, 100, 6, false);
        let ideal = g.ideal_map();
        assert_eq!(ideal.len(), 6);
        // The smallest cell (m=50, k=50) must prefer the CPU.
        assert_eq!(ideal[0][0], PolicyKind::P1);
        // The largest cell must prefer a GPU policy.
        assert_ne!(ideal[5][5], PolicyKind::P1);
    }

    #[test]
    fn speedup_of_p1_cells_is_one() {
        let mut machine = Machine::paper_node();
        let g = TimeGrid::compute(&mut machine, 100, 4, false);
        let ideal = g.ideal_map();
        let sp = g.speedup_map(&ideal);
        for (im, row) in ideal.iter().enumerate() {
            for (ik, p) in row.iter().enumerate() {
                if *p == PolicyKind::P1 {
                    assert!((sp[im][ik] - 1.0).abs() < 1e-12);
                } else {
                    assert!(sp[im][ik] >= 1.0);
                }
            }
        }
    }

    #[test]
    fn render_produces_one_row_per_cell() {
        let map = vec![vec![PolicyKind::P1; 3]; 3];
        let r = render_map(&map);
        assert_eq!(r.lines().count(), 4);
        assert!(r.contains("111"));
    }

    #[test]
    fn agreement_metric() {
        let a = vec![vec![PolicyKind::P1, PolicyKind::P2]];
        let b = vec![vec![PolicyKind::P1, PolicyKind::P3]];
        assert!((map_agreement(&a, &b) - 0.5).abs() < 1e-12);
    }
}
