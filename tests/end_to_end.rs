//! End-to-end integration: analysis → factorization → solve → refinement
//! across matrix families, orderings, policies and precisions.

use gpu_multifrontal::core::{FactorOptions, PolicySelector};
use gpu_multifrontal::matgen::{
    elasticity_3d, laplacian_2d, laplacian_3d, random_spd_sparse, rhs_for_solution, Stencil,
};
use gpu_multifrontal::prelude::*;
use gpu_multifrontal::sparse::{analyze, analyze_parallel, AmalgamationOptions};

fn solve_and_check(a: &SymCsc<f64>, opts: &SolverOptions, tol: f64) {
    let mut machine = Machine::paper_node();
    let solver = SpdSolver::new(a, &mut machine, opts).expect("SPD matrix must factor");
    let (xtrue, b) = rhs_for_solution(a, 11);
    let sol = solver.solve_refined(&b, 5, 1e-13).unwrap();
    let err = sol.x.iter().zip(&xtrue).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max);
    assert!(err < tol, "forward error {err:.3e} exceeds {tol:.0e}");
    assert!(solver.factor_time() > 0.0);
}

fn opts(selector: PolicySelector, precision: Precision) -> SolverOptions {
    SolverOptions {
        ordering: OrderingKind::NestedDissection,
        amalgamation: Some(AmalgamationOptions::default()),
        factor: FactorOptions { selector, ..Default::default() },
        precision,
        analysis_workers: 0,
    }
}

#[test]
fn all_policies_all_matrix_families() {
    let matrices: Vec<SymCsc<f64>> = vec![
        laplacian_2d(15, 17, Stencil::Faces),
        laplacian_3d(7, 8, 6, Stencil::Full),
        elasticity_3d(5, 4, 4),
        random_spd_sparse(400, 8, 3),
    ];
    for a in &matrices {
        for p in PolicyKind::ALL {
            solve_and_check(a, &opts(PolicySelector::Fixed(p), Precision::F32), 1e-7);
        }
    }
}

#[test]
fn every_ordering_works_end_to_end() {
    let a = laplacian_3d(6, 7, 8, Stencil::Faces);
    for ordering in [
        OrderingKind::Natural,
        OrderingKind::Rcm,
        OrderingKind::MinimumDegree,
        OrderingKind::NestedDissection,
    ] {
        let o = SolverOptions {
            ordering,
            amalgamation: Some(AmalgamationOptions::default()),
            factor: FactorOptions {
                selector: PolicySelector::Baseline(BaselineThresholds::default()),
                ..Default::default()
            },
            precision: Precision::F32,
            analysis_workers: 0,
        };
        solve_and_check(&a, &o, 1e-7);
    }
}

#[test]
fn f64_cpu_solver_is_direct_precision() {
    let a = laplacian_3d(8, 8, 8, Stencil::Faces);
    let mut machine = Machine::paper_node();
    let o = opts(PolicySelector::Fixed(PolicyKind::P1), Precision::F64);
    let solver = SpdSolver::new(&a, &mut machine, &o).unwrap();
    let (xtrue, b) = rhs_for_solution(&a, 5);
    let x = solver.solve(&b).unwrap(); // no refinement needed
    let err = x.iter().zip(&xtrue).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max);
    assert!(err < 1e-9, "f64 direct solve error {err:.3e}");
}

#[test]
fn f32_needs_refinement_f64_does_not() {
    // The paper's single-precision story, measured quantitatively.
    let a = laplacian_3d(9, 8, 7, Stencil::Full);
    let mut machine = Machine::paper_node();
    let s32 = SpdSolver::new(
        &a,
        &mut machine,
        &opts(PolicySelector::Fixed(PolicyKind::P4), Precision::F32),
    )
    .unwrap();
    let (_, b) = rhs_for_solution(&a, 2);
    let refined = s32.solve_refined(&b, 5, 1e-14).unwrap();
    assert!(refined.residual_history[0] > 1e-9, "f32 must start imprecise");
    assert!(*refined.residual_history.last().unwrap() < 1e-13, "refinement must converge");
    assert!(refined.iterations <= 3);
}

#[test]
fn amalgamation_changes_structure_not_solution() {
    let a = laplacian_3d(6, 6, 6, Stencil::Faces);
    let (xtrue, b) = rhs_for_solution(&a, 9);
    for amalg in [None, Some(AmalgamationOptions::default())] {
        let o = SolverOptions {
            ordering: OrderingKind::NestedDissection,
            amalgamation: amalg,
            factor: FactorOptions {
                selector: PolicySelector::Fixed(PolicyKind::P1),
                ..Default::default()
            },
            precision: Precision::F64,
            analysis_workers: 0,
        };
        let mut machine = Machine::paper_node();
        let solver = SpdSolver::new(&a, &mut machine, &o).unwrap();
        let x = solver.solve(&b).unwrap();
        let err = x.iter().zip(&xtrue).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max);
        assert!(err < 1e-9);
    }
}

#[test]
fn cpu_only_machine_runs_gpu_selectors_via_fallback() {
    let a = laplacian_2d(12, 12, Stencil::Faces);
    let mut machine = Machine::cpu_only(gpu_multifrontal::gpusim::xeon_5160_core());
    let o = opts(PolicySelector::Fixed(PolicyKind::P4), Precision::F32);
    let solver = SpdSolver::new(&a, &mut machine, &o).unwrap();
    let (xtrue, b) = rhs_for_solution(&a, 4);
    let sol = solver.solve_refined(&b, 4, 1e-12).unwrap();
    let err = sol.x.iter().zip(&xtrue).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max);
    assert!(err < 1e-8);
    // Every call degraded to P1.
    // (No stats requested here; the correctness of the degradation is the point.)
}

#[test]
fn tiny_and_degenerate_systems() {
    // 1×1 system.
    let mut t = Triplet::new(1);
    t.push(0, 0, 4.0);
    let a = t.assemble();
    let mut machine = Machine::paper_node();
    let solver = SpdSolver::new(
        &a,
        &mut machine,
        &opts(PolicySelector::Fixed(PolicyKind::P1), Precision::F64),
    )
    .unwrap();
    let x = solver.solve(&[8.0]).unwrap();
    assert!((x[0] - 2.0).abs() < 1e-12);

    // Diagonal system.
    let mut t = Triplet::new(5);
    for i in 0..5 {
        t.push(i, i, (i + 1) as f64);
    }
    let a = t.assemble();
    let mut machine = Machine::paper_node();
    let solver = SpdSolver::new(
        &a,
        &mut machine,
        &opts(PolicySelector::Fixed(PolicyKind::P2), Precision::F32),
    )
    .unwrap();
    let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
    let x = solver.solve(&b).unwrap();
    for (i, &xi) in x.iter().enumerate() {
        assert!((xi - 1.0).abs() < 1e-5, "x[{i}] = {xi}");
    }
}

#[test]
fn empty_system_analyzes_factors_and_solves() {
    // A 0 × 0 matrix has an empty partition, so an analysis of no supernodes,
    // an empty factor and empty solves, under every ordering and worker count.
    let a = Triplet::new(0).assemble();
    let amalg = AmalgamationOptions::default();
    let kinds = [
        OrderingKind::Natural,
        OrderingKind::Rcm,
        OrderingKind::MinimumDegree,
        OrderingKind::NestedDissection,
    ];
    for kind in kinds {
        for am in [None, Some(&amalg)] {
            let serial = analyze(&a, kind, am).unwrap();
            assert_eq!(serial.symbolic.num_supernodes(), 0, "{kind:?}");
            assert_eq!(serial.symbolic.factor_slab_len(), 0, "{kind:?}");
            for workers in [1, 2, 4] {
                let par = analyze_parallel(&a, kind, am, workers).unwrap();
                assert_eq!(par.fingerprint(), serial.fingerprint(), "{kind:?} at {workers}");
                assert_eq!(par.symbolic, serial.symbolic, "{kind:?} at {workers}");
            }
        }
        for (selector, precision) in [
            (PolicySelector::Fixed(PolicyKind::P1), Precision::F64),
            (PolicySelector::Fixed(PolicyKind::P4), Precision::F32),
        ] {
            let mut machine = Machine::paper_node();
            let o = SolverOptions { ordering: kind, ..opts(selector, precision) };
            let solver = SpdSolver::new(&a, &mut machine, &o).unwrap();
            assert_eq!(solver.solve(&[]).unwrap(), Vec::<f64>::new(), "{kind:?}");
            assert!(solver.solve_refined(&[], 3, 1e-12).unwrap().x.is_empty(), "{kind:?}");
        }
    }
}

#[test]
fn indefinite_matrix_rejected_cleanly() {
    let mut t = Triplet::new(4);
    t.push(0, 0, 1.0);
    t.push(1, 1, -1.0);
    t.push(2, 2, 1.0);
    t.push(3, 3, 1.0);
    let a = t.assemble();
    let mut machine = Machine::paper_node();
    let r = SpdSolver::new(
        &a,
        &mut machine,
        &opts(PolicySelector::Fixed(PolicyKind::P1), Precision::F64),
    );
    assert!(r.is_err(), "indefinite matrix must be rejected");
}

#[test]
fn simulated_time_deterministic_across_runs() {
    let a = laplacian_3d(6, 6, 6, Stencil::Faces);
    let o = opts(PolicySelector::Baseline(BaselineThresholds::default()), Precision::F32);
    let t: Vec<f64> = (0..2)
        .map(|_| {
            let mut machine = Machine::paper_node();
            SpdSolver::new(&a, &mut machine, &o).unwrap().factor_time()
        })
        .collect();
    assert_eq!(t[0], t[1], "simulation must be bit-deterministic");
}
