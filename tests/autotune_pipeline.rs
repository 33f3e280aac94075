//! The paper's complete auto-tuning workflow as one integration test:
//! measure per-policy timings → train on one set of matrices → deploy the
//! model on an *unseen* matrix → verify it generalizes.

use gpu_multifrontal::autotune::{train, Dataset, Objective, TrainOptions};
use gpu_multifrontal::core::{FactorOptions, FactorStats, PolicySelector};
use gpu_multifrontal::matgen::{elasticity_3d, laplacian_3d, Stencil};
use gpu_multifrontal::prelude::*;
use gpu_multifrontal::sparse::symbolic::{analyze, Analysis};
use gpu_multifrontal::sparse::AmalgamationOptions;

fn run(analysis: &Analysis, selector: PolicySelector) -> FactorStats {
    let opts = FactorOptions { selector, record_stats: true, ..Default::default() };
    opts.rehearse::<f32>(&analysis.symbolic, &Machine::paper_node()).expect("valid options")
}

fn dataset_of(a: &SymCsc<f64>) -> (Analysis, Dataset, [FactorStats; 4]) {
    let analysis =
        analyze(a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default())).unwrap();
    let stats: Vec<FactorStats> =
        PolicyKind::ALL.into_iter().map(|p| run(&analysis, PolicySelector::Fixed(p))).collect();
    let stats: [FactorStats; 4] = stats.try_into().unwrap();
    let ds = Dataset::from_policy_runs(&[&stats[0], &stats[1], &stats[2], &stats[3]]);
    (analysis, ds, stats)
}

#[test]
fn model_generalizes_to_unseen_matrix() {
    // Train across two matrix classes (the paper trains over its whole
    // suite)…
    let (_, ds_a, _) = dataset_of(&laplacian_3d(16, 16, 16, Stencil::Full));
    let (_, ds_b, _) = dataset_of(&elasticity_3d(8, 8, 8));
    let model = train(&Dataset::merge([ds_a, ds_b]), &TrainOptions::default());

    // …deploy on a larger elasticity problem it never saw. (Sizes are 4/3 of
    // what they were under the level-set-only ordering — 12³, 6³ and 8³ —
    // whose fronts at those sizes were as large as these are now.)
    let a_test = elasticity_3d(12, 12, 12);
    let (analysis, ds_test, stats) = dataset_of(&a_test);
    let modelr = run(&analysis, PolicySelector::Model(model));
    let ideal = ds_test.ideal_time();
    let t1 = stats[0].total_time;
    assert!(modelr.total_time < t1, "model hybrid must beat serial on the unseen matrix");
    // Staying within 60 % of the per-call ideal on a *different matrix
    // class* is the realistic bar for a 12-feature linear model — the
    // paper's ~2 % figure is in-suite. The hard requirement is that the
    // model transfers profitably at all (it does: > 1.4× over serial here).
    assert!(
        modelr.total_time < ideal * 1.6,
        "unseen-matrix model time {:.4} vs ideal {ideal:.4}",
        modelr.total_time
    );
    assert!(t1 / modelr.total_time > 1.3, "transfer speedup too small");
}

#[test]
fn cost_sensitive_training_not_worse_than_cross_entropy() {
    let a = laplacian_3d(13, 13, 13, Stencil::Full);
    let (_, ds, _) = dataset_of(&a);
    let (tr, te) = ds.split(0.75, 3);
    let ec = train(&tr, &TrainOptions::default());
    let ce = train(&tr, &TrainOptions { objective: Objective::CrossEntropy, ..Default::default() });
    let t_ec = te.predictor_time(|m, k| ec.predict(m, k));
    let t_ce = te.predictor_time(|m, k| ce.predict(m, k));
    assert!(
        t_ec <= t_ce * 1.05,
        "expected-cost training {t_ec:.5} must not lose to cross-entropy {t_ce:.5}"
    );
}

#[test]
fn oracle_is_lower_bound_for_all_selectors() {
    let a = laplacian_3d(11, 11, 11, Stencil::Faces);
    let (analysis, ds, stats) = dataset_of(&a);
    let oracle = run(&analysis, PolicySelector::Oracle(ds.oracle_table()));
    for st in &stats {
        assert!(oracle.total_time <= st.total_time * 1.001);
    }
    let model = train(&ds, &TrainOptions::default());
    let modelr = run(&analysis, PolicySelector::Model(model));
    assert!(oracle.total_time <= modelr.total_time * 1.001);
    let base = run(&analysis, PolicySelector::Baseline(BaselineThresholds::default()));
    assert!(oracle.total_time <= base.total_time * 1.001);
}

#[test]
fn training_data_joins_runs_coherently() {
    let a = laplacian_3d(9, 9, 9, Stencil::Faces);
    let (analysis, ds, stats) = dataset_of(&a);
    assert_eq!(ds.len(), analysis.symbolic.num_supernodes());
    // Every per-policy column of the dataset sums to that run's F-U total.
    for (j, st) in stats.iter().enumerate() {
        let from_ds: f64 = ds.points.iter().map(|p| p.times[j]).sum();
        let from_st: f64 = st.records.iter().map(|r| r.total).sum();
        assert!((from_ds - from_st).abs() < 1e-12);
    }
}
