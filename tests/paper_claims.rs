//! Quantitative checks of the paper's headline claims on the simulated
//! machine — the automated counterpart of EXPERIMENTS.md.

use gpu_multifrontal::autotune::{train, Dataset, TrainOptions};
use gpu_multifrontal::core::{
    estimate_fu_time, factor_permuted, simulate_tree_schedule, FactorOptions, MoldableModel,
    PolicySelector,
};
use gpu_multifrontal::dense::FuFlops;
use gpu_multifrontal::gpusim::{tesla_t10, xeon_5160_core};
use gpu_multifrontal::matgen::{elasticity_3d, laplacian_3d, Stencil};
use gpu_multifrontal::prelude::*;
use gpu_multifrontal::sparse::symbolic::analyze;
use gpu_multifrontal::sparse::AmalgamationOptions;

fn policy_stats(
    a32: &SymCsc<f32>,
    analysis: &gpu_multifrontal::sparse::Analysis,
    selector: PolicySelector,
) -> gpu_multifrontal::core::FactorStats {
    let mut machine = Machine::paper_node();
    let opts = FactorOptions { selector, record_stats: true, ..Default::default() };
    factor_permuted(a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts).expect("SPD").1
}

/// Table III: asymptotic rates within 1 % of the paper's values.
#[test]
fn table3_rates_match_paper() {
    let cpu = xeon_5160_core();
    let gpu = tesla_t10();
    let big = 1e13;
    for (got, want) in [
        (cpu.kernels.potrf.rate(big) / 1e9, 8.84),
        (cpu.kernels.trsm.rate(big) / 1e9, 9.24),
        (cpu.kernels.syrk.rate(big) / 1e9, 10.02),
        (gpu.kernels.trsm.rate(big) / 1e9, 153.7),
        (gpu.kernels.syrk.rate(big) / 1e9, 159.69),
    ] {
        assert!((got / want - 1.0).abs() < 0.01, "rate {got:.2} vs paper {want}");
    }
}

/// §IV-A: the overwhelming majority of F-U calls are small.
#[test]
fn most_calls_are_small() {
    let a = laplacian_3d(16, 16, 16, Stencil::Faces);
    let analysis =
        analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default())).unwrap();
    let a32: SymCsc<f32> = analysis.permuted.0.cast();
    let st = policy_stats(&a32, &analysis, PolicySelector::Fixed(PolicyKind::P1));
    let small = st.records.iter().filter(|r| r.k <= 500 && r.m <= 1000).count();
    let frac = small as f64 / st.records.len() as f64;
    assert!(frac > 0.9, "small-call fraction {frac:.2} (paper: ~0.97)");
    // …yet their share of the *time* is far below their share of the call
    // count (the concentration Figure 2 illustrates). Scale-free version of
    // the claim: time concentrates in the large calls.
    let tiny: Vec<_> = st.records.iter().filter(|r| r.k <= 64 && r.m <= 128).collect();
    let t_tiny: f64 = tiny.iter().map(|r| r.total).sum();
    let t_total: f64 = st.records.iter().map(|r| r.total).sum();
    let count_share = tiny.len() as f64 / st.records.len() as f64;
    let time_share = t_tiny / t_total;
    assert!(
        time_share < count_share * 0.95,
        "time share {time_share:.2} not concentrated vs count share {count_share:.2}"
    );
}

/// Table V: the GPU panel algorithm accelerates root-front potrf by ~7–13×.
#[test]
fn panel_potrf_speedup_in_paper_band() {
    let mut machine = Machine::paper_node();
    for k in [2000usize, 5400, 10000] {
        let t_cpu = estimate_fu_time(&mut machine, 0, k, PolicyKind::P1, false);
        let t_gpu = estimate_fu_time(&mut machine, 0, k, PolicyKind::P4, false);
        let sp = t_cpu / t_gpu;
        assert!((4.0..20.0).contains(&sp), "k={k}: panel potrf speedup {sp:.1} (paper 7.7–13.1)");
    }
}

/// Figures 10/11: the per-call best policy progresses P1 → … → P4 with size.
#[test]
fn policy_progression_with_size() {
    let mut machine = Machine::paper_node();
    let mut best = |m: usize, k: usize| {
        PolicyKind::ALL
            .into_iter()
            .min_by(|&a, &b| {
                estimate_fu_time(&mut machine, m, k, a, false).total_cmp(&estimate_fu_time(
                    &mut machine,
                    m,
                    k,
                    b,
                    false,
                ))
            })
            .unwrap()
    };
    assert_eq!(best(20, 10), PolicyKind::P1, "tiny fronts belong on the CPU");
    let large = best(8000, 2000);
    assert!(large == PolicyKind::P3 || large == PolicyKind::P4, "huge fronts belong on the GPU");
    // Monotonicity proxy: P1's relative penalty grows with size.
    let mut pen = |m: usize, k: usize| {
        estimate_fu_time(&mut machine, m, k, PolicyKind::P1, false)
            / estimate_fu_time(&mut machine, m, k, PolicyKind::P4, false)
    };
    assert!(pen(200, 100) < pen(2000, 800));
    assert!(pen(2000, 800) < pen(8000, 3000));
}

/// §VI-C: the trained model hybrid comes within a few percent of the ideal
/// hybrid and beats every fixed policy.
#[test]
fn model_hybrid_near_ideal() {
    let a = laplacian_3d(14, 14, 14, Stencil::Full);
    let analysis =
        analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default())).unwrap();
    let a32: SymCsc<f32> = analysis.permuted.0.cast();
    let stats: Vec<_> = PolicyKind::ALL
        .into_iter()
        .map(|p| policy_stats(&a32, &analysis, PolicySelector::Fixed(p)))
        .collect();
    let dataset = Dataset::from_policy_runs(&[&stats[0], &stats[1], &stats[2], &stats[3]]);
    let model = train(&dataset, &TrainOptions::default());

    let ideal = policy_stats(&a32, &analysis, PolicySelector::Oracle(dataset.oracle_table()));
    let modelr = policy_stats(&a32, &analysis, PolicySelector::Model(model));
    assert!(
        modelr.total_time < ideal.total_time * 1.10,
        "model {:.4} vs ideal {:.4} — must be within 10 % (paper: ~2 %)",
        modelr.total_time,
        ideal.total_time
    );
    for (p, st) in PolicyKind::ALL.iter().zip(&stats) {
        assert!(
            modelr.total_time <= st.total_time * 1.001,
            "model hybrid must not lose to fixed {p}"
        );
    }
}

/// Table VII column ordering: P2 < P3 (< P4 at our calibration), hybrids on
/// top, multi-worker above single-worker.
#[test]
fn speedup_ordering_matches_paper() {
    // Needs a matrix large enough for GPU policies to pay off at all
    // (N ≈ 12k; the paper's are ~1M) — and, under an ordering that finds the
    // mesh planes, one of the paper's kind: a 3-D structural mesh, 3 unknowns
    // a node, has a few hundred fronts and most of its flops in the large
    // ones. A 27-point Laplacian of the same cost has thousands of small
    // fronts that every fixed GPU policy loses on, and P3 overtakes P2 only
    // from 42³ (44 Gflop; 24³ sufficed while the ordering's separators
    // chained into fronts 1.7× as wide).
    let a = elasticity_3d(16, 16, 16);
    let analysis =
        analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default())).unwrap();
    let a32: SymCsc<f32> = analysis.permuted.0.cast();
    let stats: Vec<_> = PolicyKind::ALL
        .into_iter()
        .map(|p| policy_stats(&a32, &analysis, PolicySelector::Fixed(p)))
        .collect();
    let t1 = stats[0].total_time;
    let sp: Vec<f64> = stats.iter().map(|s| t1 / s.total_time).collect();
    assert!(sp[1] > 1.0, "P2 must beat serial: {sp:?}");
    assert!(sp[2] > sp[1], "P3 must beat P2: {sp:?}");
    assert!(sp[3] > sp[2], "P4 must beat P3 at our calibration: {sp:?}");

    // Ideal hybrid ≥ best fixed.
    let dataset = Dataset::from_policy_runs(&[&stats[0], &stats[1], &stats[2], &stats[3]]);
    let ideal = policy_stats(&a32, &analysis, PolicySelector::Oracle(dataset.oracle_table()));
    let sp_ideal = t1 / ideal.total_time;
    assert!(sp_ideal * 1.001 >= sp[3], "ideal {sp_ideal} vs best fixed {}", sp[3]);

    // 4 CPU workers give a speedup in the paper's band; 2 hybrid workers
    // beat 1.
    let nsn = analysis.symbolic.num_supernodes();
    let (mut d, mut o) = (vec![0.0; nsn], vec![0.0; nsn]);
    for r in &stats[0].records {
        d[r.sn] = r.total;
        o[r.sn] = FuFlops::new(r.m, r.k).total();
    }
    let s4 = simulate_tree_schedule(&analysis.symbolic, &d, &o, 4, Some(MoldableModel::default()));
    assert!(s4.speedup() > 2.0 && s4.speedup() < 4.2, "4-thread speedup {}", s4.speedup());
}

/// The model adapts when the device changes (the paper's portability claim):
/// retraining on Fermi-like timings shifts policy boundaries toward the GPU.
#[test]
fn adapts_to_faster_device() {
    use gpu_multifrontal::gpusim::fermi_like;
    let mut t10 = Machine::paper_node();
    let mut fermi = Machine::with_gpu(xeon_5160_core(), fermi_like());
    // At a mid-size front the faster device must shorten GPU policies.
    let t_t10 = estimate_fu_time(&mut t10, 600, 200, PolicyKind::P4, false);
    let t_fermi = estimate_fu_time(&mut fermi, 600, 200, PolicyKind::P4, false);
    assert!(t_fermi < t_t10, "Fermi-like must be faster: {t_fermi} vs {t_t10}");
    // And the P1/P4 crossover moves to smaller sizes.
    let cross = |machine: &mut Machine| {
        for i in 1..100 {
            let k = i * 8;
            let m = 2 * k;
            if estimate_fu_time(machine, m, k, PolicyKind::P4, false)
                < estimate_fu_time(machine, m, k, PolicyKind::P1, false)
            {
                return k;
            }
        }
        usize::MAX
    };
    let c_t10 = cross(&mut t10);
    let c_fermi = cross(&mut fermi);
    assert!(c_fermi <= c_t10, "crossover must move down: fermi {c_fermi} vs t10 {c_t10}");
}
