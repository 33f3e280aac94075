//! A structural-analysis style workload: a 3-DOF vector elasticity operator
//! on a 3-D mesh (the kind of matrix the paper's suite comes from), factored
//! under each fixed policy and the model-based hybrid, comparing simulated
//! times — a miniature of the paper's Table VII workflow.
//!
//! ```sh
//! cargo run --release --example structural_analysis
//! ```

use gpu_multifrontal::autotune::{train, Dataset, TrainOptions};
use gpu_multifrontal::core::{factor_permuted, FactorOptions, PolicyKind, PolicySelector};
use gpu_multifrontal::matgen::{elasticity_3d, rhs_ones};
use gpu_multifrontal::prelude::*;
use gpu_multifrontal::sparse::symbolic::analyze;
use gpu_multifrontal::sparse::AmalgamationOptions;

fn main() {
    // 14×14×14 nodes × 3 DOF = 8232 unknowns, ~80 nnz/row like audikw_1.
    let a = elasticity_3d(14, 14, 14);
    println!(
        "elasticity model: N = {}, nnz/row ≈ {:.0}",
        a.order(),
        a.nnz_full() as f64 / a.order() as f64
    );

    let analysis =
        analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default())).unwrap();
    println!(
        "analysis: {} supernodes, factor nnz = {}, {:.2e} flops",
        analysis.symbolic.num_supernodes(),
        analysis.symbolic.factor_nnz(),
        analysis.symbolic.total_flops()
    );

    // Rehearse each fixed policy — its simulated clock and per-call timings
    // without the factor's data.
    let mut stats = Vec::new();
    for p in PolicyKind::ALL {
        let opts = FactorOptions {
            selector: PolicySelector::Fixed(p),
            record_stats: true,
            ..Default::default()
        };
        let st = opts
            .rehearse::<f32>(&analysis.symbolic, &Machine::paper_node())
            .expect("valid options");
        println!("  {p}: {:.3} ms simulated", st.total_time * 1e3);
        stats.push(st);
    }
    let t_serial = stats[0].total_time;

    // Train the cost-sensitive model on the observed timings (paper Eq. 3)
    // and run the model-based hybrid.
    let dataset = Dataset::from_policy_runs(&[&stats[0], &stats[1], &stats[2], &stats[3]]);
    let model = train(&dataset, &TrainOptions::default());
    let a32: SymCsc<f32> = analysis.permuted.0.cast();
    let mut machine = Machine::paper_node();
    let opts = FactorOptions {
        selector: PolicySelector::Model(model),
        record_stats: true,
        ..Default::default()
    };
    let (factor, st) =
        factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts)
            .expect("SPD");
    println!(
        "  model hybrid: {:.3} ms — {:.2}× over serial (ideal-hybrid bound {:.2}×)",
        st.total_time * 1e3,
        t_serial / st.total_time,
        t_serial / dataset.ideal_time().min(t_serial)
    );

    // And it still solves correctly.
    let b = rhs_ones(&a);
    let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
    let x = factor.solve(&b32);
    let xerr = x.iter().map(|&v| (v as f64 - 1.0).abs()).fold(0.0f64, f64::max);
    println!("solve check: max |x − 1| = {xerr:.2e} (single precision, unrefined)");
    assert!(xerr < 1e-2);
    println!("OK");
}
