//! Stand-ins for the paper's test suite (Table II).
//!
//! | Paper matrix | N (paper) | NNZ (paper) | Stand-in | Rationale |
//! |---|---|---|---|---|
//! | audikw_1  | 943,695   | 77.6 M | elasticity 22³ nodes (N≈32k) | vector FE, dense rows (~80/row) |
//! | kyushu    | 990,692   | 26.3 M | 27-pt Laplacian 34³ (N≈39k)  | scalar-like low density (~27/row) |
//! | lmco      | 665,017   | 107.5 M| elasticity 20³ nodes (N=24k) | densest rows of the suite |
//! | nastran-b | 1,508,088 | 111.6 M| elasticity 24³ nodes (N≈41k) | large vector FE |
//! | sgi_1M    | 1,522,431 | 125.8 M| 27-pt Laplacian 36³ (N≈47k)  | largest N of the suite |
//!
//! Sizes are scaled ~25× down so a full in-process factorization of each
//! run takes seconds; the *relative* ordering of sizes and densities is
//! preserved so every qualitative statement in the paper's evaluation
//! (which matrix has the costliest root fronts, which is densest, …) still
//! has a referent. Simulated time — not wall time — provides the scale.

use crate::elasticity::elasticity_3d;
use crate::grid::{laplacian_3d, Stencil};
use mf_sparse::SymCsc;

/// Identifier for a stand-in of one of the paper's five matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperMatrix {
    /// Stand-in for audikw_1 (automotive crankshaft, vector FE).
    Audikw1,
    /// Stand-in for kyushu (structural, lower density).
    Kyushu,
    /// Stand-in for lmco (metal forming, densest rows).
    Lmco,
    /// Stand-in for nastran-b (large vector FE).
    NastranB,
    /// Stand-in for sgi_1M (largest order).
    Sgi1M,
}

impl PaperMatrix {
    /// All five, in the paper's table order.
    pub const ALL: [PaperMatrix; 5] = [
        PaperMatrix::Audikw1,
        PaperMatrix::Kyushu,
        PaperMatrix::Lmco,
        PaperMatrix::NastranB,
        PaperMatrix::Sgi1M,
    ];

    /// The paper's name for this matrix.
    pub fn name(self) -> &'static str {
        match self {
            PaperMatrix::Audikw1 => "audikw_1",
            PaperMatrix::Kyushu => "kyushu",
            PaperMatrix::Lmco => "lmco",
            PaperMatrix::NastranB => "nastran-b",
            PaperMatrix::Sgi1M => "sgi_1M",
        }
    }

    /// `(N, NNZ)` as reported in the paper's Table II.
    pub fn paper_dims(self) -> (usize, usize) {
        match self {
            PaperMatrix::Audikw1 => (943_695, 77_651_847),
            PaperMatrix::Kyushu => (990_692, 26_268_136),
            PaperMatrix::Lmco => (665_017, 107_514_163),
            PaperMatrix::NastranB => (1_508_088, 111_614_436),
            PaperMatrix::Sgi1M => (1_522_431, 125_755_875),
        }
    }

    /// Generate the stand-in at the default (full) experiment scale.
    pub fn generate(self) -> SymCsc<f64> {
        self.generate_scaled(1.0)
    }

    /// Generate a further-scaled stand-in (`scale` ≤ 1 shrinks the grid
    /// linearly per dimension; used by quick test modes).
    pub fn generate_scaled(self, scale: f64) -> SymCsc<f64> {
        let s = |base: usize| ((base as f64 * scale).round() as usize).max(4);
        match self {
            PaperMatrix::Audikw1 => elasticity_3d(s(22), s(22), s(22)),
            PaperMatrix::Kyushu => laplacian_3d(s(34), s(34), s(34), Stencil::Full),
            PaperMatrix::Lmco => elasticity_3d(s(20), s(20), s(20)),
            PaperMatrix::NastranB => {
                // Keep nastran-b strictly larger than audikw_1 at every
                // scale: at small scales both 22·scale and 24·scale round to
                // the same grid (e.g. 7³ at scale 0.30), which silently made
                // the two stand-ins byte-identical in the benches.
                let d = s(24).max(s(22) + 1);
                elasticity_3d(d, d, d)
            }
            PaperMatrix::Sgi1M => laplacian_3d(s(36), s(36), s(36), Stencil::Full),
        }
    }
}

/// Generate the full five-matrix suite at a given scale.
pub fn paper_suite(scale: f64) -> Vec<(PaperMatrix, SymCsc<f64>)> {
    PaperMatrix::ALL.iter().map(|&m| (m, m.generate_scaled(scale))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_five_generate_at_small_scale() {
        for (m, a) in paper_suite(0.35) {
            assert!(a.order() > 100, "{} too small", m.name());
            assert!(a.nnz_lower() > a.order(), "{} has no off-diagonals", m.name());
        }
    }

    #[test]
    fn relative_order_of_sizes_preserved() {
        // sgi_1M stand-in must be the largest N; lmco the smallest, as in
        // Table II.
        let suite = paper_suite(0.3);
        let n_of = |pm: PaperMatrix| suite.iter().find(|(m, _)| *m == pm).unwrap().1.order();
        assert!(n_of(PaperMatrix::Sgi1M) >= n_of(PaperMatrix::Kyushu));
        assert!(n_of(PaperMatrix::Lmco) <= n_of(PaperMatrix::Audikw1));
        assert!(n_of(PaperMatrix::Lmco) <= n_of(PaperMatrix::NastranB));
    }

    #[test]
    fn density_ordering_matches_paper() {
        // Elasticity stand-ins (audikw_1, lmco, nastran-b) are denser per
        // row than Laplacian stand-ins (kyushu), mirroring Table II.
        let suite = paper_suite(0.3);
        let density = |pm: PaperMatrix| {
            let a = &suite.iter().find(|(m, _)| *m == pm).unwrap().1;
            a.nnz_full() as f64 / a.order() as f64
        };
        assert!(density(PaperMatrix::Lmco) > density(PaperMatrix::Kyushu));
        assert!(density(PaperMatrix::Audikw1) > density(PaperMatrix::Kyushu));
    }

    #[test]
    fn stand_ins_pairwise_distinct_at_bench_scale() {
        // The bench suite default is scale 0.30; the nastran-b/audikw_1
        // grids must not collapse onto each other there (or at full scale).
        for scale in [0.3, 1.0] {
            let suite = paper_suite(scale);
            for i in 0..suite.len() {
                for j in i + 1..suite.len() {
                    let (ma, a) = &suite[i];
                    let (mb, b) = &suite[j];
                    assert!(
                        a.order() != b.order() || a.nnz_lower() != b.nnz_lower(),
                        "{} and {} generate identical stand-ins at scale {scale}",
                        ma.name(),
                        mb.name()
                    );
                }
            }
        }
    }

    #[test]
    fn paper_dims_table() {
        assert_eq!(PaperMatrix::Audikw1.paper_dims().0, 943_695);
        assert_eq!(PaperMatrix::Sgi1M.paper_dims().1, 125_755_875);
        assert_eq!(PaperMatrix::ALL.len(), 5);
    }
}
