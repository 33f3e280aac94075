//! Shared experiment pipeline: factor the matrix suite under every policy,
//! build the timing dataset, train the model hybrid — the data every
//! figure/table binary consumes.

use crate::config::ExpConfig;
use mf_autotune::{train, Dataset, TrainOptions};
use mf_core::{
    factor_permuted, factor_permuted_parallel, BaselineThresholds, FactorOptions, FactorStats,
    LinearPolicyModel, ParallelOptions, PolicyKind, PolicySelector,
};
use mf_gpusim::Machine;
use mf_matgen::paper::{paper_suite, PaperMatrix};
use mf_sparse::symbolic::{analyze, Analysis};
use mf_sparse::{AmalgamationOptions, OrderingKind, SymCsc};

/// One matrix with its analysis and per-policy factorization statistics.
pub struct MatrixRuns {
    /// Paper matrix this stands in for.
    pub which: PaperMatrix,
    /// The matrix (original ordering, f64 values).
    pub a: SymCsc<f64>,
    /// Ordering + symbolic factorization.
    pub analysis: Analysis,
    /// Per-policy stats from single-precision runs (index = policy index).
    pub stats: [FactorStats; 4],
    /// Per-supernode timing dataset joined across the four runs.
    pub dataset: Dataset,
}

impl MatrixRuns {
    /// Display name.
    pub fn name(&self) -> &'static str {
        self.which.name()
    }

    /// Serial (P1) factorization time.
    pub fn t_serial(&self) -> f64 {
        self.stats[0].total_time
    }

    /// Run the factorization once more under an arbitrary selector,
    /// returning its stats. Uses a fresh paper-node machine.
    pub fn run_with(&self, selector: PolicySelector, copy_optimized: bool) -> FactorStats {
        let mut machine = Machine::paper_node();
        let a32: SymCsc<f32> = self.analysis.permuted.0.cast();
        let opts =
            FactorOptions { selector, copy_optimized, record_stats: true, ..Default::default() };
        let (_, stats) = factor_permuted(
            &a32,
            &self.analysis.symbolic,
            &self.analysis.perm,
            &mut machine,
            &opts,
        )
        .expect("suite matrices are SPD");
        stats
    }

    /// Ideal-hybrid stats (per-supernode oracle from the dataset).
    pub fn run_ideal(&self) -> FactorStats {
        self.run_with(PolicySelector::Oracle(self.dataset.oracle_table()), false)
    }

    /// Like [`Self::run_with`], but through the pipelined GPU dispatch
    /// driver (event-chained downloads, look-ahead uploads, batched small
    /// fronts) instead of the drain-per-front driver.
    pub fn run_pipelined(&self, selector: PolicySelector, copy_optimized: bool) -> FactorStats {
        let mut machine = Machine::paper_node();
        let a32: SymCsc<f32> = self.analysis.permuted.0.cast();
        let opts = FactorOptions {
            selector,
            copy_optimized,
            pipeline: mf_core::PipelineOptions::pipelined(),
            ..Default::default()
        };
        let (_, stats) = factor_permuted(
            &a32,
            &self.analysis.symbolic,
            &self.analysis.perm,
            &mut machine,
            &opts,
        )
        .expect("suite matrices are SPD");
        stats
    }

    /// Like [`Self::run_pipelined`], but across `ndev` simulated devices
    /// through the multi-GPU driver (proportional subtree mapping,
    /// peer-copy extend-add, cross-device look-ahead — DESIGN.md §4.13).
    pub fn run_multigpu(&self, selector: PolicySelector, ndev: usize) -> FactorStats {
        let mut machine = Machine::paper_node();
        let a32: SymCsc<f32> = self.analysis.permuted.0.cast();
        let opts = FactorOptions {
            selector,
            pipeline: mf_core::PipelineOptions::pipelined(),
            devices: mf_core::MultiGpuOptions::devices(ndev),
            ..Default::default()
        };
        let (_, stats) = factor_permuted(
            &a32,
            &self.analysis.symbolic,
            &self.analysis.perm,
            &mut machine,
            &opts,
        )
        .expect("suite matrices are SPD");
        stats
    }

    /// *Measured* wall-clock seconds of one serial baseline-hybrid
    /// factorization on this host — real elapsed time, not the simulated
    /// `total_time` the other columns report.
    pub fn measured_serial_wall(&self) -> f64 {
        let mut machine = Machine::paper_node();
        let a32: SymCsc<f32> = self.analysis.permuted.0.cast();
        let opts = FactorOptions {
            selector: PolicySelector::Baseline(BaselineThresholds::default()),
            ..Default::default()
        };
        let (_, stats) = factor_permuted(
            &a32,
            &self.analysis.symbolic,
            &self.analysis.perm,
            &mut machine,
            &opts,
        )
        .expect("suite matrices are SPD");
        stats.wall_time
    }

    /// *Measured* wall-clock seconds of the real work-stealing parallel
    /// driver at `workers` tree-level workers (same baseline-hybrid
    /// configuration as [`Self::measured_serial_wall`]).
    pub fn measured_parallel_wall(&self, workers: usize) -> f64 {
        let mut machines: Vec<Machine> = (0..workers).map(|_| Machine::paper_node()).collect();
        let a32: SymCsc<f32> = self.analysis.permuted.0.cast();
        let opts = FactorOptions {
            selector: PolicySelector::Baseline(BaselineThresholds::default()),
            ..Default::default()
        };
        let (_, stats) = factor_permuted_parallel(
            &a32,
            &self.analysis.symbolic,
            &self.analysis.perm,
            &mut machines,
            &opts,
            &ParallelOptions::default(),
        )
        .expect("suite matrices are SPD");
        stats.wall_time
    }
}

/// The full suite plus the trained model.
pub struct SuiteData {
    /// Per-matrix runs.
    pub matrices: Vec<MatrixRuns>,
    /// All datasets merged.
    pub merged: Dataset,
    /// The cost-sensitive model trained on the merged dataset.
    pub model: LinearPolicyModel,
}

/// Factor one matrix under all four fixed policies (f32, stats recorded).
pub fn run_all_policies(analysis: &Analysis) -> [FactorStats; 4] {
    let a32: SymCsc<f32> = analysis.permuted.0.cast();
    let mut out: Vec<FactorStats> = Vec::with_capacity(4);
    for p in PolicyKind::ALL {
        let mut machine = Machine::paper_node();
        let opts = FactorOptions {
            selector: PolicySelector::Fixed(p),
            record_stats: true,
            ..Default::default()
        };
        let (_, stats) =
            factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts)
                .expect("suite matrices are SPD");
        out.push(stats);
    }
    out.try_into().expect("exactly four runs")
}

impl SuiteData {
    /// Build the suite: generate matrices, analyze, run all policies, train.
    pub fn build(cfg: &ExpConfig) -> SuiteData {
        Self::build_subset(cfg, &PaperMatrix::ALL)
    }

    /// Build a subset of the suite (for quicker single-experiment runs).
    pub fn build_subset(cfg: &ExpConfig, which: &[PaperMatrix]) -> SuiteData {
        let all = paper_suite(cfg.scale);
        let mut matrices = Vec::new();
        for (pm, a) in all {
            if !which.contains(&pm) {
                continue;
            }
            eprintln!(
                "[suite] {}: N = {}, NNZ = {} (scale {})",
                pm.name(),
                a.order(),
                a.nnz_lower(),
                cfg.scale
            );
            let analysis =
                analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                    .unwrap();
            let stats = run_all_policies(&analysis);
            let dataset = Dataset::from_policy_runs(&[&stats[0], &stats[1], &stats[2], &stats[3]]);
            matrices.push(MatrixRuns { which: pm, a, analysis, stats, dataset });
        }
        let merged = Dataset::merge(matrices.iter().map(|m| m.dataset.clone()));
        let train_opts =
            TrainOptions { iterations: if cfg.quick { 400 } else { 1200 }, ..Default::default() };
        let model = train(&merged, &train_opts);
        SuiteData { matrices, merged, model }
    }

    /// The default baseline hybrid thresholds.
    pub fn baseline(&self) -> BaselineThresholds {
        BaselineThresholds::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_builds_and_policies_differ() {
        let cfg = ExpConfig::test_small();
        let suite = SuiteData::build_subset(&cfg, &[PaperMatrix::Kyushu]);
        assert_eq!(suite.matrices.len(), 1);
        let m = &suite.matrices[0];
        // All four runs cover the same supernodes.
        let n = m.stats[0].records.len();
        assert!(n > 10);
        for s in &m.stats {
            assert_eq!(s.records.len(), n);
        }
        // P1 and P4 must differ in total time.
        assert!(m.stats[0].total_time != m.stats[3].total_time);
        assert_eq!(m.dataset.len(), n);
    }

    #[test]
    fn paper_stand_ins_have_pairwise_distinct_fingerprints() {
        // Guards against grid-size rounding collisions (audikw_1 and
        // nastran-b once collapsed to the same 7³ elasticity grid at the
        // default bench scale, producing byte-identical BENCH rows).
        for scale in [ExpConfig::test_small().scale, 0.3, 0.5, 1.0] {
            let suite = paper_suite(scale);
            for i in 0..suite.len() {
                for j in i + 1..suite.len() {
                    assert_ne!(
                        suite[i].1.fingerprint(),
                        suite[j].1.fingerprint(),
                        "{} and {} share a fingerprint at scale {scale}",
                        suite[i].0.name(),
                        suite[j].0.name()
                    );
                }
            }
        }
    }

    #[test]
    fn hybrid_run_beats_worst_fixed_policy() {
        let cfg = ExpConfig::test_small();
        let suite = SuiteData::build_subset(&cfg, &[PaperMatrix::Kyushu]);
        let m = &suite.matrices[0];
        let ideal = m.run_ideal();
        let worst = m.stats.iter().map(|s| s.total_time).fold(0.0f64, f64::max);
        assert!(ideal.total_time <= worst);
    }
}
