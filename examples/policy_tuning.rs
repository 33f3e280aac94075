//! Auto-tuning deep dive: gather per-policy timing data across several
//! matrices, train the cost-sensitive classifier (paper Eq. 3) and a plain
//! cross-entropy comparator, and print the learned policy map over the
//! (m, k) plane — a textual rendition of the paper's Figure 12.
//!
//! ```sh
//! cargo run --release --example policy_tuning
//! ```

use gpu_multifrontal::autotune::{train, Dataset, Objective, TrainOptions};
use gpu_multifrontal::core::{estimate_fu_time, FactorOptions, PolicyKind, PolicySelector};
use gpu_multifrontal::matgen::{laplacian_3d, Stencil};
use gpu_multifrontal::prelude::*;
use gpu_multifrontal::sparse::symbolic::analyze;
use gpu_multifrontal::sparse::AmalgamationOptions;

fn main() {
    // Training data: per-supernode timings from two 3-D problems, rehearsed
    // (the simulated clock of each run without its data).
    let mut sets = Vec::new();
    for (nx, ny, nz) in [(16, 16, 16), (22, 18, 12)] {
        let a = laplacian_3d(nx, ny, nz, Stencil::Full);
        let analysis =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let mut stats = Vec::new();
        for p in PolicyKind::ALL {
            let opts = FactorOptions {
                selector: PolicySelector::Fixed(p),
                record_stats: true,
                ..Default::default()
            };
            stats.push(opts.rehearse::<f32>(&analysis.symbolic, &Machine::paper_node()).unwrap());
        }
        sets.push(Dataset::from_policy_runs(&[&stats[0], &stats[1], &stats[2], &stats[3]]));
    }
    let data = Dataset::merge(sets);
    println!("dataset: {} factor-update calls", data.len());

    let (tr, te) = data.split(0.8, 7);
    let ec = train(&tr, &TrainOptions::default());
    let ce = train(&tr, &TrainOptions { objective: Objective::CrossEntropy, ..Default::default() });

    let t_ideal = te.ideal_time();
    let t_ec = te.predictor_time(|m, k| ec.predict(m, k));
    let t_ce = te.predictor_time(|m, k| ce.predict(m, k));
    println!("held-out expected time:");
    println!("  ideal hybrid       {:.3} ms", t_ideal * 1e3);
    println!(
        "  expected-cost model {:.3} ms ({:+.2} % vs ideal)",
        t_ec * 1e3,
        100.0 * (t_ec / t_ideal - 1.0)
    );
    println!(
        "  cross-entropy model {:.3} ms ({:+.2} % vs ideal)",
        t_ce * 1e3,
        100.0 * (t_ce / t_ideal - 1.0)
    );

    // Learned policy map vs the simulator's ideal map (Figure 12 analogue).
    println!("\nlearned policy map (m →, k ↑; digits = chosen policy):");
    let mut machine = Machine::paper_node();
    let cells = 16usize;
    let cell = 1000 / cells;
    for row_k in (0..cells).rev() {
        let k = row_k * cell + cell / 2;
        let mut model_row = String::new();
        let mut ideal_row = String::new();
        for col_m in 0..cells {
            let m = col_m * cell + cell / 2;
            model_row.push(char::from(b'1' + ec.predict(m, k).index() as u8));
            let best = PolicyKind::ALL
                .iter()
                .min_by(|&&a, &&b| {
                    estimate_fu_time(&mut machine, m, k, a, false).total_cmp(&estimate_fu_time(
                        &mut machine,
                        m,
                        k,
                        b,
                        false,
                    ))
                })
                .unwrap();
            ideal_row.push(char::from(b'1' + best.index() as u8));
        }
        println!("k≈{k:>4}  model {model_row}   ideal {ideal_row}");
    }
    println!("\nOK");
}
