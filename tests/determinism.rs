//! Determinism guarantees of the wall-clock parallel driver.
//!
//! `factor_permuted_parallel` must produce a factor **bitwise identical** to
//! the serial `factor_permuted` at every worker count, for every precision,
//! every policy mix, and every thread-budget setting — the parallel runtime
//! reorders *when* supernodes run, never *what* they compute or in which
//! order child updates are extend-added. These tests pin that contract, and
//! a stress test drives many independent parallel factorizations
//! concurrently to shake out any hidden shared state.

use gpu_multifrontal::core::{
    factor_permuted, factor_permuted_parallel, CholeskyFactor, FactorError, ParallelOptions,
};
use gpu_multifrontal::dense::Scalar;
use gpu_multifrontal::matgen::{elasticity_3d, laplacian_2d, laplacian_3d, Stencil};
use gpu_multifrontal::prelude::*;
use gpu_multifrontal::sparse::symbolic::{analyze, SymbolicFactor};
use gpu_multifrontal::sparse::{AmalgamationOptions, Permutation};

fn analysis_of(a: &SymCsc<f64>) -> gpu_multifrontal::sparse::symbolic::Analysis {
    analyze(a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default())).unwrap()
}

fn baseline_opts() -> FactorOptions {
    FactorOptions {
        selector: PolicySelector::Baseline(BaselineThresholds::default()),
        record_stats: true,
        ..Default::default()
    }
}

/// Every factor entry as `f64` bits (exact for both `f32` and `f64`). The
/// factor is one contiguous slab, so the whole comparison is a single pass.
fn panel_bits<T: Scalar>(f: &CholeskyFactor<T>) -> Vec<u64> {
    f.slab.iter().map(|&x| x.to_f64().to_bits()).collect()
}

/// Factor serially, then at each worker count, and require bit equality.
fn assert_bitwise_deterministic<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
    opts: &FactorOptions,
) {
    let mut serial_machine = Machine::paper_node();
    let (fs, ss) = factor_permuted(a, symbolic, perm, &mut serial_machine, opts).unwrap();
    let reference = panel_bits(&fs);
    for workers in [1usize, 2, 4, 8] {
        let mut machines: Vec<Machine> = (0..workers).map(|_| Machine::paper_node()).collect();
        let par = ParallelOptions { thread_budget: 4 };
        let (fp, sp) =
            factor_permuted_parallel(a, symbolic, perm, &mut machines, opts, &par).unwrap();
        assert_eq!(
            reference,
            panel_bits(&fp),
            "{workers}-worker factor must be bitwise identical to serial"
        );
        // Stats come back in postorder, one record per supernode, and count
        // the same OOM fallbacks the serial traversal hit.
        let sns: Vec<usize> = sp.records.iter().map(|r| r.sn).collect();
        assert_eq!(sns, symbolic.postorder, "records must be merged into postorder");
        assert_eq!(sp.oom_fallbacks, ss.oom_fallbacks);
    }
}

#[test]
fn bitwise_identical_f64_all_families() {
    for a in [
        laplacian_2d(20, 17, Stencil::Faces),
        laplacian_3d(8, 7, 6, Stencil::Faces),
        elasticity_3d(4, 4, 3),
    ] {
        let an = analysis_of(&a);
        assert_bitwise_deterministic(&an.permuted.0, &an.symbolic, &an.perm, &baseline_opts());
    }
}

#[test]
fn bitwise_identical_f32_gpu_policies() {
    // f32 runs exercise the GPU policies (P2–P4) under the baseline
    // selector — staging buffers, simulated device state, pinned pools.
    for a in [
        laplacian_2d(18, 15, Stencil::Faces),
        laplacian_3d(7, 7, 7, Stencil::Faces),
        elasticity_3d(4, 3, 3),
    ] {
        let an = analysis_of(&a);
        let a32: SymCsc<f32> = an.permuted.0.cast();
        assert_bitwise_deterministic(&a32, &an.symbolic, &an.perm, &baseline_opts());
        for p in [PolicyKind::P2, PolicyKind::P4] {
            let opts = FactorOptions { selector: PolicySelector::Fixed(p), ..baseline_opts() };
            assert_bitwise_deterministic(&a32, &an.symbolic, &an.perm, &opts);
        }
    }
}

/// The arena's memory contract — peak working storage exactly the symbolic
/// two-buffer bound (update blocks only: the panels are factored in the
/// slab), two allocations for a serial run — and the parallel driver's
/// storage (a worker's own arena per task, hand-off buffers between tasks)
/// giving the serial arena's bits at every worker count.
fn assert_arena_contract<T: Scalar>(a: &SymCsc<T>, symbolic: &SymbolicFactor, perm: &Permutation) {
    let opts = baseline_opts();
    let mut m0 = Machine::paper_node();
    let (fa, sa) = factor_permuted(a, symbolic, perm, &mut m0, &opts).unwrap();
    let reference = panel_bits(&fa);
    assert_eq!(
        sa.peak_front_bytes,
        symbolic.update_stack_peak() * T::BYTES,
        "arena high-water must be the symbolic bound"
    );
    assert_eq!(sa.front_alloc_events, 2, "serial arena must allocate only slab + arena");
    for workers in [1usize, 2, 4, 8] {
        let mut machines: Vec<Machine> = (0..workers).map(|_| Machine::paper_node()).collect();
        let (fp, sp) = factor_permuted_parallel(
            a,
            symbolic,
            perm,
            &mut machines,
            &opts,
            &ParallelOptions { thread_budget: 2 },
        )
        .unwrap();
        assert_eq!(
            reference,
            panel_bits(&fp),
            "{workers}-worker factor diverged from serial arena factor"
        );
        assert!(sp.front_alloc_events > 0);
    }
}

#[test]
fn arena_storage_bounded_and_parallel_bits_match_f64() {
    for a in [laplacian_2d(16, 13, Stencil::Faces), laplacian_3d(6, 6, 5, Stencil::Faces)] {
        let an = analysis_of(&a);
        assert_arena_contract(&an.permuted.0, &an.symbolic, &an.perm);
    }
}

#[test]
fn arena_storage_bounded_and_parallel_bits_match_f32() {
    for a in [laplacian_2d(16, 13, Stencil::Faces), elasticity_3d(4, 3, 3)] {
        let an = analysis_of(&a);
        let a32: SymCsc<f32> = an.permuted.0.cast();
        assert_arena_contract(&a32, &an.symbolic, &an.perm);
    }
}

#[test]
fn thread_budget_never_changes_bits() {
    // The nested-parallelism arbitration only picks kernel widths; the
    // dense engine is bitwise deterministic at any width, so any budget
    // must give the same factor.
    let a = laplacian_3d(7, 6, 8, Stencil::Faces);
    let an = analysis_of(&a);
    let opts = baseline_opts();
    let mut reference: Option<Vec<u64>> = None;
    for budget in [1usize, 2, 8] {
        let mut machines: Vec<Machine> = (0..3).map(|_| Machine::paper_node()).collect();
        let (f, _) = factor_permuted_parallel(
            &an.permuted.0,
            &an.symbolic,
            &an.perm,
            &mut machines,
            &opts,
            &ParallelOptions { thread_budget: budget },
        )
        .unwrap();
        let bits = panel_bits(&f);
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(r, &bits, "thread_budget={budget} changed the factor"),
        }
    }
}

#[test]
fn parallel_error_is_serial_first_error() {
    // An indefinite matrix must report the same (first-in-postorder) pivot
    // failure at every worker count, even though another worker may hit a
    // later failure concurrently.
    let mut t = Triplet::new(40);
    for i in 0..40 {
        // Two negative pivots; natural ordering keeps columns in place.
        t.push(i, i, if i == 13 || i == 29 { -3.0 } else { 4.0 });
        if i + 1 < 40 {
            t.push(i + 1, i, -1.0);
        }
    }
    let a = t.assemble();
    let an = analyze(&a, OrderingKind::Natural, None).unwrap();
    let mut serial_machine = Machine::paper_node();
    let serial_err = factor_permuted(
        &an.permuted.0,
        &an.symbolic,
        &an.perm,
        &mut serial_machine,
        &FactorOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(serial_err, FactorError::NotPositiveDefinite { .. }));
    for workers in [1usize, 2, 4] {
        let mut machines: Vec<Machine> = (0..workers).map(|_| Machine::paper_node()).collect();
        let err = factor_permuted_parallel(
            &an.permuted.0,
            &an.symbolic,
            &an.perm,
            &mut machines,
            &FactorOptions::default(),
            &ParallelOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, serial_err, "{workers}-worker run must surface the serial error");
    }
}

/// Pipelined dispatch (event-chained staging, look-ahead uploads, batched
/// small-front runs) must not change a single bit relative to the
/// drain-per-front driver: the pipeline reorders *when* device work is
/// issued and when the host waits, never the numeric op content or order.
fn assert_pipelined_bitwise_drain<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
) {
    use gpu_multifrontal::core::PipelineOptions;
    for policy in [PolicyKind::P2, PolicyKind::P3, PolicyKind::P4] {
        let drain =
            FactorOptions { selector: PolicySelector::Fixed(policy), ..FactorOptions::default() };
        let piped = FactorOptions { pipeline: PipelineOptions::pipelined(), ..drain.clone() };
        let mut m0 = Machine::paper_node();
        let (fd, sd) = factor_permuted(a, symbolic, perm, &mut m0, &drain).unwrap();
        let reference = panel_bits(&fd);
        let mut m1 = Machine::paper_node();
        let (fp, sp) = factor_permuted(a, symbolic, perm, &mut m1, &piped).unwrap();
        assert_eq!(
            reference,
            panel_bits(&fp),
            "serial pipelined {policy:?} diverged from drain driver"
        );
        assert_eq!(sp.oom_fallbacks, sd.oom_fallbacks, "{policy:?} OOM decisions must match");
        for workers in [1usize, 2, 4, 8] {
            let mut machines: Vec<Machine> = (0..workers).map(|_| Machine::paper_node()).collect();
            let (fw, _) = factor_permuted_parallel(
                a,
                symbolic,
                perm,
                &mut machines,
                &piped,
                &ParallelOptions { thread_budget: 2 },
            )
            .unwrap();
            assert_eq!(
                reference,
                panel_bits(&fw),
                "{workers}-worker pipelined {policy:?} diverged from serial drain"
            );
        }
    }
}

#[test]
fn pipelined_bitwise_identical_f32() {
    for a in [laplacian_3d(6, 6, 5, Stencil::Faces), elasticity_3d(4, 3, 3)] {
        let an = analysis_of(&a);
        let a32: SymCsc<f32> = an.permuted.0.cast();
        assert_pipelined_bitwise_drain(&a32, &an.symbolic, &an.perm);
    }
}

#[test]
fn pipelined_bitwise_identical_f64() {
    for a in [laplacian_2d(16, 13, Stencil::Faces), laplacian_3d(6, 6, 5, Stencil::Faces)] {
        let an = analysis_of(&a);
        assert_pipelined_bitwise_drain(&an.permuted.0, &an.symbolic, &an.perm);
    }
}

// ---------------------------------------------------------------------------
// Multi-GPU determinism: the multi-device driver (proportional subtree
// mapping, peer-copy extend-add, cross-device look-ahead) reorders when
// fronts run and where their contribution blocks travel — never the numeric
// op content or the extend-add order — so factor slabs must be bitwise
// identical to the serial drain driver at every (workers × devices)
// combination. (The `multigpu_` prefix is load-bearing: ci.sh gates on
// these tests by name at both default and single-threaded test settings.)
// ---------------------------------------------------------------------------

fn assert_multigpu_bitwise<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
    selector: PolicySelector,
) {
    use gpu_multifrontal::core::{MultiGpuOptions, PipelineOptions};
    let serial_opts = FactorOptions { selector: selector.clone(), ..Default::default() };
    let mut m0 = Machine::paper_node();
    let (fs, ss) = factor_permuted(a, symbolic, perm, &mut m0, &serial_opts).unwrap();
    let reference = panel_bits(&fs);
    for ndev in [1usize, 2, 4, 8] {
        let opts = FactorOptions {
            selector: selector.clone(),
            pipeline: PipelineOptions::pipelined(),
            devices: MultiGpuOptions::devices(ndev),
            ..Default::default()
        };
        // Single-machine entry: one host timeline drives all `ndev` lanes.
        let mut m = Machine::paper_node();
        let (f1, s1) = factor_permuted(a, symbolic, perm, &mut m, &opts).unwrap();
        assert_eq!(reference, panel_bits(&f1), "serial × {ndev} devices diverged");
        assert_eq!(s1.oom_fallbacks, ss.oom_fallbacks, "{ndev}-device OOM decisions");
        assert!(m.gpu.is_some(), "machine must get its device back ({ndev} devices)");
        // Parallel entry: the serial entry's run on the first GPU machine.
        for workers in [1usize, 2, 4, 8] {
            let mut machines: Vec<Machine> = (0..workers).map(|_| Machine::paper_node()).collect();
            let (fp, sp) = factor_permuted_parallel(
                a,
                symbolic,
                perm,
                &mut machines,
                &opts,
                &ParallelOptions::default(),
            )
            .unwrap();
            assert_eq!(
                reference,
                panel_bits(&fp),
                "{workers} workers × {ndev} devices diverged from serial"
            );
            assert_eq!(sp.oom_fallbacks, ss.oom_fallbacks);
            if ndev > 1 {
                assert_eq!(sp.gpu_devices.len(), ndev, "per-device stats must cover the set");
            }
            assert!(machines.iter().all(|mm| mm.gpu.is_some()), "devices must be restored");
        }
    }
}

#[test]
fn multigpu_bitwise_identical_f32_all_families() {
    for a in [
        laplacian_2d(18, 15, Stencil::Faces),
        laplacian_3d(7, 6, 6, Stencil::Faces),
        elasticity_3d(4, 3, 3),
    ] {
        let an = analysis_of(&a);
        let a32: SymCsc<f32> = an.permuted.0.cast();
        for selector in [
            PolicySelector::Baseline(BaselineThresholds::default()),
            PolicySelector::Fixed(PolicyKind::P4),
        ] {
            assert_multigpu_bitwise(&a32, &an.symbolic, &an.perm, selector);
        }
    }
}

#[test]
fn multigpu_bitwise_identical_f64_all_families() {
    for a in [
        laplacian_2d(18, 15, Stencil::Faces),
        laplacian_3d(7, 6, 6, Stencil::Faces),
        elasticity_3d(4, 3, 3),
    ] {
        let an = analysis_of(&a);
        assert_multigpu_bitwise(
            &an.permuted.0,
            &an.symbolic,
            &an.perm,
            PolicySelector::Baseline(BaselineThresholds::default()),
        );
    }
}

#[test]
fn multigpu_oom_pressure_matches_serial_and_recovers() {
    // Undersized devices: multi-device OOM retries must make the same
    // P1-fallback decisions as the serial drain driver (after draining the
    // affected device), and a failed factorization must surface the typed
    // error while leaving every machine's device restored — the machines
    // stay usable for the next run, nothing is poisoned.
    use gpu_multifrontal::core::{MultiGpuOptions, PipelineOptions};
    use gpu_multifrontal::gpusim::{tesla_t10, xeon_5160_core};
    let small_machines = |workers: usize| -> Vec<Machine> {
        (0..workers)
            .map(|_| {
                let mut cfg = tesla_t10();
                cfg.mem_bytes = 2_000; // 500 f32 elements — only tiny fronts fit
                Machine::with_gpu(xeon_5160_core(), cfg)
            })
            .collect()
    };
    let a = laplacian_3d(6, 6, 5, Stencil::Faces);
    let an = analysis_of(&a);
    let a32: SymCsc<f32> = an.permuted.0.cast();
    let serial_opts =
        FactorOptions { selector: PolicySelector::Fixed(PolicyKind::P4), ..Default::default() };
    let mut m0 = small_machines(1);
    let (fs, ss) = factor_permuted(&a32, &an.symbolic, &an.perm, &mut m0[0], &serial_opts).unwrap();
    assert!(ss.oom_fallbacks > 0, "test needs OOM pressure to be meaningful");
    let opts = FactorOptions {
        pipeline: PipelineOptions::pipelined(),
        devices: MultiGpuOptions::devices(4),
        ..serial_opts.clone()
    };
    for workers in [1usize, 2] {
        let mut machines = small_machines(workers);
        let (fm, sm) = factor_permuted_parallel(
            &a32,
            &an.symbolic,
            &an.perm,
            &mut machines,
            &opts,
            &ParallelOptions::default(),
        )
        .unwrap();
        assert_eq!(panel_bits(&fs), panel_bits(&fm), "{workers}-worker OOM bits diverged");
        assert_eq!(sm.oom_fallbacks, ss.oom_fallbacks);

        // An indefinite matrix through the same machines: typed error out,
        // devices back, and the very same machines factor the SPD matrix
        // again afterwards.
        let mut t = Triplet::new(8);
        for i in 0..8 {
            t.push(i, i, if i == 5 { -3.0 } else { 4.0 });
            if i + 1 < 8 {
                t.push(i + 1, i, -1.0);
            }
        }
        let bad = t.assemble();
        let ban = analyze(&bad, OrderingKind::Natural, None).unwrap();
        let b32: SymCsc<f32> = ban.permuted.0.cast();
        let err = factor_permuted_parallel(
            &b32,
            &ban.symbolic,
            &ban.perm,
            &mut machines,
            &opts,
            &ParallelOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, FactorError::NotPositiveDefinite { column: 5 });
        assert!(machines.iter().all(|m| m.gpu.is_some()), "error must not strand devices");
        let (fr, _) = factor_permuted_parallel(
            &a32,
            &an.symbolic,
            &an.perm,
            &mut machines,
            &opts,
            &ParallelOptions::default(),
        )
        .unwrap();
        assert_eq!(panel_bits(&fs), panel_bits(&fr), "machines must stay usable after an error");
    }
}

/// A deterministic, full-rank block of `nrhs` right-hand sides.
fn rhs_block<T: Scalar>(n: usize, nrhs: usize) -> Vec<T> {
    (0..n * nrhs)
        .map(|i| {
            let (r, c) = (i % n, i / n);
            T::from_f64(((r * 31 + c * 17 + 7) % 13) as f64 / 13.0 - 0.4)
        })
        .collect()
}

/// Solve-path analogue of `assert_bitwise_deterministic`: the tree-parallel
/// forward/backward sweeps must reproduce the serial solve bit-for-bit at
/// every worker count, for single and batched right-hand sides.
fn assert_solve_bitwise_deterministic<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
) {
    let mut machine = Machine::paper_node();
    let (f, _) = factor_permuted(a, symbolic, perm, &mut machine, &baseline_opts()).unwrap();
    let n = symbolic.n;
    // Nine right-hand sides span two blocks of the sweeps.
    for nrhs in [1usize, 4, 9] {
        let b = rhs_block::<T>(n, nrhs);
        let serial = f.solve_many(&b, nrhs);
        let serial_bits: Vec<u64> = serial.iter().map(|&x| x.to_f64().to_bits()).collect();
        for workers in [1usize, 2, 4, 8] {
            let par = f.solve_many_parallel(&b, nrhs, workers);
            let par_bits: Vec<u64> = par.iter().map(|&x| x.to_f64().to_bits()).collect();
            assert_eq!(
                serial_bits, par_bits,
                "{workers}-worker solve (nrhs={nrhs}) must be bitwise identical to serial"
            );
        }
    }
}

#[test]
fn parallel_solve_bitwise_identical_f64_all_families() {
    for a in [
        laplacian_2d(20, 17, Stencil::Faces),
        laplacian_3d(8, 7, 6, Stencil::Faces),
        elasticity_3d(4, 4, 3),
    ] {
        let an = analysis_of(&a);
        assert_solve_bitwise_deterministic(&an.permuted.0, &an.symbolic, &an.perm);
    }
}

#[test]
fn parallel_solve_bitwise_identical_f32_all_families() {
    for a in [
        laplacian_2d(20, 17, Stencil::Faces),
        laplacian_3d(8, 7, 6, Stencil::Faces),
        elasticity_3d(4, 4, 3),
    ] {
        let an = analysis_of(&a);
        let a32: SymCsc<f32> = an.permuted.0.cast();
        assert_solve_bitwise_deterministic(&a32, &an.symbolic, &an.perm);
    }
}

#[test]
fn batched_solve_bitwise_matches_looped_single_rhs() {
    // Column j of a batched solve must equal the solve of column j alone —
    // the kernels underneath dispatch independently of the RHS count.
    let a = laplacian_3d(8, 7, 6, Stencil::Faces);
    let an = analysis_of(&a);
    let mut machine = Machine::paper_node();
    let (f, _) =
        factor_permuted(&an.permuted.0, &an.symbolic, &an.perm, &mut machine, &baseline_opts())
            .unwrap();
    let n = an.symbolic.n;
    let nrhs = 8;
    let b = rhs_block::<f64>(n, nrhs);
    let batched = f.solve_many(&b, nrhs);
    for j in 0..nrhs {
        let col = &b[j * n..(j + 1) * n];
        let single = f.solve(col);
        let batched_col: Vec<u64> =
            batched[j * n..(j + 1) * n].iter().map(|x| x.to_bits()).collect();
        let single_bits: Vec<u64> = single.iter().map(|x| x.to_bits()).collect();
        assert_eq!(single_bits, batched_col, "batched column {j} diverged from single-RHS solve");
    }
}

#[test]
fn refactorization_reuses_symbolic_and_matches_fresh_solver() {
    // Re-running only the numeric phase on a same-pattern matrix must give
    // the same bits as building a solver from scratch on that matrix.
    let a = laplacian_3d(7, 6, 6, Stencil::Faces);
    let a2 = SymCsc::from_parts(
        a.order(),
        a.colptr().to_vec(),
        a.rowind().to_vec(),
        a.values().iter().map(|&v| v * 4.0).collect(),
    );
    let opts = SolverOptions::default();
    let mut m1 = Machine::paper_node();
    let mut solver = SpdSolver::new(&a, &mut m1, &opts).unwrap();
    solver.refactor(&a2, &mut m1).unwrap();
    let mut m2 = Machine::paper_node();
    let fresh = SpdSolver::new(&a2, &mut m2, &opts).unwrap();
    let b = rhs_block::<f64>(a.order(), 1);
    let xr: Vec<u64> = solver.solve(&b).unwrap().iter().map(|x| x.to_bits()).collect();
    let xf: Vec<u64> = fresh.solve(&b).unwrap().iter().map(|x| x.to_bits()).collect();
    assert_eq!(xr, xf, "refactored solver must match a fresh solver bitwise");
}

#[test]
fn sixty_four_concurrent_factorizations() {
    // 8 OS threads × 8 matrices each, every one factored by a 2-worker
    // parallel runtime — 16 scheduler threads live at peak. Each result is
    // compared bit-for-bit against its own serial factorization, so any
    // cross-talk through process-global state (dense thread caps, pools)
    // would show up as a mismatch.
    std::thread::scope(|scope| {
        for tid in 0..8usize {
            scope.spawn(move || {
                for j in 0..8usize {
                    let nx = 5 + (tid + j) % 4;
                    let ny = 4 + (tid * 3 + j) % 5;
                    let a = laplacian_2d(nx, ny, Stencil::Faces);
                    let an = analysis_of(&a);
                    let opts = baseline_opts();
                    let mut serial_machine = Machine::paper_node();
                    let (fs, _) = factor_permuted(
                        &an.permuted.0,
                        &an.symbolic,
                        &an.perm,
                        &mut serial_machine,
                        &opts,
                    )
                    .unwrap();
                    let mut machines = vec![Machine::paper_node(), Machine::paper_node()];
                    let (fp, _) = factor_permuted_parallel(
                        &an.permuted.0,
                        &an.symbolic,
                        &an.perm,
                        &mut machines,
                        &opts,
                        &ParallelOptions { thread_budget: 2 },
                    )
                    .unwrap();
                    assert_eq!(
                        panel_bits(&fs),
                        panel_bits(&fp),
                        "thread {tid} matrix {j} diverged under concurrency"
                    );
                }
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Analysis-pipeline determinism: `analyze_parallel` must reproduce the
// serial `analyze` byte for byte — permutation, elimination tree, supernode
// partition, per-supernode row structures, and the structural fingerprint —
// at every worker count, across matrix families, and at both factor
// precisions. (The `analysis_` prefix is load-bearing: ci.sh gates on these
// tests by name at both default and single-threaded test settings.)
// ---------------------------------------------------------------------------

use gpu_multifrontal::sparse::symbolic::{analyze_parallel, Analysis};

fn analysis_families() -> Vec<(&'static str, SymCsc<f64>)> {
    vec![
        ("laplacian_2d", laplacian_2d(19, 14, Stencil::Faces)),
        ("laplacian_3d", laplacian_3d(7, 6, 5, Stencil::Full)),
        ("elasticity_3d", elasticity_3d(4, 4, 3)),
        // Large enough for nested dissection to take multilevel separators.
        ("laplacian_3d_27pt_16", laplacian_3d(16, 16, 16, Stencil::Full)),
    ]
}

fn assert_analysis_identical(name: &str, workers: usize, serial: &Analysis, par: &Analysis) {
    let tag = format!("{name} workers={workers}");
    assert_eq!(par.perm.as_slice(), serial.perm.as_slice(), "{tag}: permutation");
    assert_eq!(par.etree.parent, serial.etree.parent, "{tag}: etree parents");
    assert_eq!(par.symbolic.postorder, serial.symbolic.postorder, "{tag}: postorder");
    assert_eq!(
        par.symbolic.num_supernodes(),
        serial.symbolic.num_supernodes(),
        "{tag}: supernode count"
    );
    for (s, (ps, ss)) in
        par.symbolic.supernodes.iter().zip(serial.symbolic.supernodes.iter()).enumerate()
    {
        assert_eq!(ps.col_start, ss.col_start, "{tag}: supernode {s} col_start");
        assert_eq!(ps.col_end, ss.col_end, "{tag}: supernode {s} col_end");
        assert_eq!(ps.parent, ss.parent, "{tag}: supernode {s} parent");
        assert_eq!(
            par.symbolic.update_rows(s),
            serial.symbolic.update_rows(s),
            "{tag}: supernode {s} rows"
        );
    }
    assert_eq!(par.symbolic, serial.symbolic, "{tag}: flat arrays");
    assert_eq!(par.fingerprint(), serial.fingerprint(), "{tag}: fingerprint");
}

#[test]
fn analysis_parallel_structures_identical_all_families() {
    let amalg = AmalgamationOptions::default();
    for (name, a) in analysis_families() {
        let serial = analyze(&a, OrderingKind::NestedDissection, Some(&amalg)).unwrap();
        for workers in [1usize, 2, 4, 8] {
            let par = analyze_parallel(&a, OrderingKind::NestedDissection, Some(&amalg), workers)
                .unwrap();
            assert_analysis_identical(name, workers, &serial, &par);
        }
    }
}

#[test]
fn analysis_parallel_identical_without_amalgamation_and_natural_order() {
    // Fundamental supernodes only, and the ordering kinds that fall through
    // to the serial path — the parallel driver must be exact everywhere.
    for (name, a) in analysis_families() {
        for kind in [OrderingKind::Natural, OrderingKind::NestedDissection] {
            let serial = analyze(&a, kind, None).unwrap();
            for workers in [2usize, 8] {
                let par = analyze_parallel(&a, kind, None, workers).unwrap();
                assert_analysis_identical(name, workers, &serial, &par);
            }
        }
    }
}

#[test]
fn analysis_parallel_factors_bitwise_identical_f64() {
    // The downstream check: a factor built from the parallel analysis is
    // bitwise the factor built from the serial one.
    let amalg = AmalgamationOptions::default();
    for (name, a) in analysis_families() {
        let serial = analyze(&a, OrderingKind::NestedDissection, Some(&amalg)).unwrap();
        let opts = baseline_opts();
        let mut m0 = Machine::paper_node();
        let (f0, _) =
            factor_permuted(&serial.permuted.0, &serial.symbolic, &serial.perm, &mut m0, &opts)
                .unwrap();
        for workers in [2usize, 4] {
            let par = analyze_parallel(&a, OrderingKind::NestedDissection, Some(&amalg), workers)
                .unwrap();
            let mut m = Machine::paper_node();
            let (f, _) =
                factor_permuted(&par.permuted.0, &par.symbolic, &par.perm, &mut m, &opts).unwrap();
            assert_eq!(
                panel_bits(&f0),
                panel_bits(&f),
                "{name} workers={workers}: f64 factor from parallel analysis diverged"
            );
        }
    }
}

#[test]
fn analysis_parallel_factors_bitwise_identical_f32() {
    let amalg = AmalgamationOptions::default();
    for (name, a) in analysis_families() {
        let serial = analyze(&a, OrderingKind::NestedDissection, Some(&amalg)).unwrap();
        let opts =
            FactorOptions { selector: PolicySelector::Fixed(PolicyKind::P4), ..Default::default() };
        let a32s: SymCsc<f32> = serial.permuted.0.cast();
        let mut m0 = Machine::paper_node();
        let (f0, _) =
            factor_permuted(&a32s, &serial.symbolic, &serial.perm, &mut m0, &opts).unwrap();
        for workers in [2usize, 8] {
            let par = analyze_parallel(&a, OrderingKind::NestedDissection, Some(&amalg), workers)
                .unwrap();
            let a32p: SymCsc<f32> = par.permuted.0.cast();
            let mut m = Machine::paper_node();
            let (f, _) = factor_permuted(&a32p, &par.symbolic, &par.perm, &mut m, &opts).unwrap();
            assert_eq!(
                panel_bits(&f0),
                panel_bits(&f),
                "{name} workers={workers}: f32 factor from parallel analysis diverged"
            );
        }
    }
}

/// FNV-1a over the little-endian bytes of a stream of words.
fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
    })
}

/// FNV-1a over a permutation's forward array.
fn perm_hash(p: &Permutation) -> u64 {
    fnv1a(p.as_slice().iter().map(|&old| old as u64))
}

/// Lower-stored pattern with unit off-diagonals from an edge list.
fn graph_matrix(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> SymCsc<f64> {
    let mut t = Triplet::new(n);
    for i in 0..n {
        t.push(i, i, n as f64);
    }
    for (i, j) in edges {
        t.push(i, j, -1.0);
    }
    t.assemble()
}

/// The matrices whose orderings are pinned: the three generator families, an
/// elongated strip (deep recursion), and graphs that reach the ordering's
/// corner paths — several top-level components ordered as leaves, a
/// separator that leaves 148 singleton components, and a 100-clique behind a
/// tail: once the tail is cut off the clique has two levels, no split, and
/// goes to minimum degree whole.
fn golden_families() -> Vec<(&'static str, SymCsc<f64>)> {
    let paths = (0..3).flat_map(|p| (0..199).map(move |i| (200 * p + i + 1, 200 * p + i)));
    let star = (1..150).map(|i| (i, 0));
    let clique = (0..100).flat_map(|i| (0..i).map(move |j| (i, j)));
    let tail = (100..130).map(|i| (i, i - 1));
    vec![
        ("plate60", laplacian_2d(60, 60, Stencil::Full)),
        ("cube10", laplacian_3d(10, 10, 10, Stencil::Full)),
        ("elasticity6", elasticity_3d(6, 6, 6)),
        ("strip400x3", laplacian_2d(400, 3, Stencil::Faces)),
        ("three_paths", graph_matrix(600, paths)),
        ("star150", graph_matrix(150, star)),
        ("clique100_tail30", graph_matrix(130, clique.chain(tail))),
    ]
}

/// `(name, nested dissection, minimum degree, RCM, Analysis::fingerprint)`,
/// the first three as [`perm_hash`] of `order`'s output, which is every
/// ordering composed with the postorder of its elimination tree. Re-recorded
/// when `order` began to postorder. Orderings whose tree was postordered
/// already kept their hashes: every RCM order here, and every column of the
/// paths, the star and the clique. Serial-vs-parallel identity cannot see a
/// change that moves both; this can.
const GOLDEN_ORDERINGS: [(&str, u64, u64, u64, u64); 7] = [
    (
        "plate60",
        0xa86c_7856_7941_b479,
        0xb8c4_9658_d41d_7f79,
        0x6d34_6bb4_6374_c5b1,
        0x3d42_b31e_7ef0_bb1d,
    ),
    (
        "cube10",
        0x1645_e9a7_2213_0019,
        0x7522_b403_4469_d43d,
        0x6406_6407_f995_fd41,
        0x5af1_1a33_0f60_3ae5,
    ),
    (
        "elasticity6",
        0xa66e_09ff_91a8_7149,
        0xed21_5ff1_80be_5709,
        0x40eb_df99_9f9b_0f1d,
        0xe4e9_b4ef_147a_c90a,
    ),
    (
        "strip400x3",
        0xf68b_2f3b_2658_e135,
        0xa8c6_5635_c652_eb99,
        0xb2d4_dfa6_2939_8735,
        0xe502_d95b_bc95_89d4,
    ),
    (
        "three_paths",
        0xc6d4_539a_0bc9_31a9,
        0x829b_3466_cf02_8f7d,
        0x829b_3466_cf02_8f7d,
        0x1630_b546_7761_4089,
    ),
    (
        "star150",
        0xccae_8d59_3aca_0084,
        0x80cf_8ece_6e24_0dc4,
        0xd170_d459_ed99_9b84,
        0x9fd3_36c6_0cf9_ce01,
    ),
    (
        "clique100_tail30",
        0x51de_e15b_c741_6224,
        0x51de_e15b_c741_6224,
        0x8198_4063_7609_bc44,
        0xf835_9857_6615_d0e1,
    ),
];

#[test]
fn analysis_ordering_matches_golden() {
    use gpu_multifrontal::sparse::order;
    let actual: Vec<(&str, u64, u64, u64, u64)> = golden_families()
        .iter()
        .map(|(name, a)| {
            let nd = order(a, OrderingKind::NestedDissection);
            for workers in [1usize, 2, 4] {
                let par = gpu_multifrontal::sparse::order_parallel(
                    a,
                    OrderingKind::NestedDissection,
                    workers,
                );
                assert_eq!(par.as_slice(), nd.as_slice(), "{name} workers={workers}");
            }
            (
                *name,
                perm_hash(&nd),
                perm_hash(&order(a, OrderingKind::MinimumDegree)),
                perm_hash(&order(a, OrderingKind::Rcm)),
                analysis_of(a).fingerprint(),
            )
        })
        .collect();
    assert_eq!(actual, GOLDEN_ORDERINGS, "actual:\n{actual:#x?}");
}

/// The analysis as its stage calls — `order`, `permute_sym`,
/// `elimination_tree`, `column_counts`, `fundamental_supernodes`,
/// `amalgamate`, `symbolic_factor`, each stage's `_parallel` form at
/// `workers` — the way a caller that times the stages replays it.
fn staged_analysis(a: &SymCsc<f64>, workers: Option<usize>) -> Analysis {
    use gpu_multifrontal::sparse::symbolic::SymCscF64Holder;
    use gpu_multifrontal::sparse::{
        amalgamate, column_counts, column_counts_parallel, elimination_tree,
        fundamental_supernodes, order, order_parallel, symbolic_factor, symbolic_factor_parallel,
    };
    let kind = OrderingKind::NestedDissection;
    let perm = workers.map_or_else(|| order(a, kind), |w| order_parallel(a, kind, w));
    let pa = perm.permute_sym(a);
    let etree = elimination_tree(&pa);
    let cc = workers
        .map_or_else(|| column_counts(&pa, &etree), |w| column_counts_parallel(&pa, &etree, w));
    let fund = fundamental_supernodes(&etree, &cc);
    let part = amalgamate(&fund, &etree, &cc, &AmalgamationOptions::default());
    let symbolic = workers.map_or_else(
        || symbolic_factor(&pa, &etree, &part),
        |w| symbolic_factor_parallel(&pa, &etree, &part, w),
    );
    Analysis { perm, permuted: SymCscF64Holder(pa), etree, symbolic }
}

/// The stage calls give the one-call analysis: the ordering comes out
/// postordered from `order` itself, so replaying the stages — serially and
/// at 2 and 4 workers — reproduces `analyze`'s and `analyze_parallel`'s
/// fingerprint, and the tree `analyze` reuses from the ordering is the
/// elimination tree of the permuted matrix.
#[test]
fn analysis_staged_pipeline_matches_analyze() {
    for (name, a) in golden_families() {
        let whole = analysis_of(&a).fingerprint();
        assert_eq!(staged_analysis(&a, None).fingerprint(), whole, "{name}: serial stages");
        for workers in [2usize, 4] {
            let amalg = AmalgamationOptions::default();
            let par = analyze_parallel(&a, OrderingKind::NestedDissection, Some(&amalg), workers)
                .unwrap();
            let staged = staged_analysis(&a, Some(workers)).fingerprint();
            assert_eq!(staged, whole, "{name}: stages at {workers} workers");
            assert_eq!(par.fingerprint(), whole, "{name}: analyze_parallel at {workers} workers");
        }
    }
}

// ───────────────────────── numeric golden bits ─────────────────────────────
// (The `numeric_` prefix is load-bearing: ci.sh runs this suite by name.)

/// FNV-1a over the `f64` bit patterns of a scalar block.
fn bits_hash<T: Scalar>(v: &[T]) -> u64 {
    fnv1a(v.iter().map(|&x| x.to_f64().to_bits()))
}

/// `[factor slab, solve_many(1 RHS), solve_many(8 RHS)]` as [`bits_hash`]es,
/// after requiring the parallel factor and the parallel solves to reproduce
/// the serial bits at 1, 2 and 4 workers.
fn numeric_hashes<T: Scalar>(
    name: &str,
    a: &SymCsc<T>,
    an: &Analysis,
    opts: &FactorOptions,
) -> [u64; 3] {
    let mut machine = Machine::paper_node();
    let (f, _) = factor_permuted(a, &an.symbolic, &an.perm, &mut machine, opts).unwrap();
    let slab = bits_hash(&f.slab);
    let n = an.symbolic.n;
    let rhs: Vec<(usize, Vec<T>)> = [1usize, 8].iter().map(|&k| (k, rhs_block(n, k))).collect();
    let solves: Vec<u64> = rhs.iter().map(|(k, b)| bits_hash(&f.solve_many(b, *k))).collect();
    for workers in [1usize, 2, 4] {
        let mut machines: Vec<Machine> = (0..workers).map(|_| Machine::paper_node()).collect();
        let par = ParallelOptions { thread_budget: 2 };
        let (fp, _) =
            factor_permuted_parallel(a, &an.symbolic, &an.perm, &mut machines, opts, &par).unwrap();
        assert_eq!(bits_hash(&fp.slab), slab, "{name}: {workers}-worker factor");
        for ((k, b), &serial) in rhs.iter().zip(&solves) {
            let x = fp.solve_many_parallel(b, *k, workers);
            assert_eq!(bits_hash(&x), serial, "{name}: {workers}-worker solve, {k} rhs");
        }
    }
    [slab, solves[0], solves[1]]
}

/// `(name, f64 under the default CPU policy, f32 under the baseline hybrid)`,
/// each `[slab, 1 RHS, 8 RHS]`. Re-recorded together with
/// [`GOLDEN_ORDERINGS`] (postordered orderings, hence other supernodes) and
/// the recursive panel solve `trsm_right_lower_trans`: the paths and the
/// star kept their bits, the clique its f64 ones. Serial-vs-parallel
/// identity cannot see a change that moves both; this can.
const GOLDEN_NUMERIC: [(&str, [u64; 3], [u64; 3]); 7] = [
    (
        "plate60",
        [0x2ee6_14de_7444_8cbe, 0x50c5_6c91_c41a_f951, 0x3bc1_4486_16ae_d3a9],
        [0x680e_4476_f38e_1421, 0x35c2_da14_1406_8a63, 0x5f74_9528_8627_01d9],
    ),
    (
        "cube10",
        [0x6d94_fb55_dc1b_b470, 0x69ca_4e5a_3259_584f, 0x98ce_2271_3b95_6b2d],
        [0x53f4_ea1a_279d_2349, 0xaca8_bc83_d9af_8419, 0xc007_ddab_5935_851b],
    ),
    (
        "elasticity6",
        [0xf045_9f22_b45e_540e, 0xa20e_3e00_4381_30f7, 0xbf01_008b_94a1_7846],
        [0xa3df_01eb_e8fc_ea1c, 0x18b9_faa7_03c0_8f92, 0x02a2_515f_e90b_972a],
    ),
    (
        "strip400x3",
        [0x9c39_4130_f0ce_3cd9, 0x1cbe_868d_f25e_633d, 0xbf4f_88de_45e6_b8dd],
        [0x4b90_b24d_11eb_c2bd, 0xb04e_3093_59ee_eadd, 0x43c4_c391_e66d_7c1f],
    ),
    (
        "three_paths",
        [0xf52e_9928_4369_23d4, 0xc8d1_a997_648a_1ca5, 0x7634_2611_7de5_3032],
        [0xf72a_1ef7_0f70_9316, 0x444f_f093_01a5_290d, 0x9725_8789_b8f5_c48b],
    ),
    (
        "star150",
        [0xaf77_9731_5ed9_b728, 0x2b33_a10a_e2bf_29e0, 0x1d7d_a16c_7f74_cb14],
        [0x05f5_99d8_da75_0693, 0x9dfa_031b_3ab1_6e57, 0x9897_12e7_9533_0854],
    ),
    (
        "clique100_tail30",
        [0x33cd_18f1_5420_0d3d, 0xf1de_fab0_3696_6c17, 0x306a_408f_ff30_ba1f],
        [0x8334_c503_096d_2b6d, 0x1c5b_44e7_1625_fc47, 0xc881_e8d6_6783_48b7],
    ),
];

#[test]
fn numeric_bits_match_golden() {
    let actual: Vec<(&str, [u64; 3], [u64; 3])> = golden_families()
        .iter()
        .map(|(name, a)| {
            let an = analysis_of(a);
            let a32: SymCsc<f32> = an.permuted.0.cast();
            (
                *name,
                numeric_hashes(name, &an.permuted.0, &an, &FactorOptions::default()),
                numeric_hashes(name, &a32, &an, &baseline_opts()),
            )
        })
        .collect();
    assert_eq!(actual, GOLDEN_NUMERIC, "actual:\n{actual:#x?}");
}

// ───────────────────────── out-of-core (memory-budgeted) execution ─────────

use gpu_multifrontal::core::{in_core_bytes, min_feasible_budget, SolverOptions, SpdSolver};

/// Matrices whose elimination trees leave real spill headroom: the
/// elongated Laplacian's root front is small relative to the total bound
/// (min-feasible ≈ 20% of it), so even a 30% budget is honourable.
fn ooc_families() -> Vec<(&'static str, SymCsc<f64>)> {
    vec![
        ("lap3d-6x6x60", laplacian_3d(6, 6, 60, Stencil::Faces)),
        ("lap3d-7x7x7", laplacian_3d(7, 7, 7, Stencil::Faces)),
        ("elasticity-4x4x3", elasticity_3d(4, 4, 3)),
    ]
}

/// Budget for `frac` of the in-core bound, clamped up to feasibility (the
/// root front's working set is a hard floor no schedule can dodge).
fn budget_for(symbolic: &SymbolicFactor, elem: usize, frac: f64) -> usize {
    let bound = in_core_bytes(symbolic, elem);
    ((bound as f64 * frac) as usize).max(min_feasible_budget(symbolic, elem))
}

/// The out-of-core determinism contract: a budgeted
/// factorization is bitwise identical to the in-core one — at every budget,
/// every worker count and both precisions — and what it spills costs
/// simulated time.
fn assert_ooc_bitwise_in_core<T: Scalar>(
    name: &str,
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
) {
    let in_core_opts = FactorOptions::default();
    let mut m0 = Machine::paper_node();
    let (f0, s0) = factor_permuted(a, symbolic, perm, &mut m0, &in_core_opts).unwrap();
    let reference = panel_bits(&f0);
    assert!(s0.ooc.is_none(), "{name}: in-core runs must not report OOC stats");

    for frac in [1.0f64, 0.6, 0.3] {
        let budget = budget_for(symbolic, T::BYTES, frac);
        let opts = FactorOptions { memory_budget: Some(budget), ..Default::default() };

        let mut ms = Machine::paper_node();
        let (fs, ss) = factor_permuted(a, symbolic, perm, &mut ms, &opts).unwrap();
        assert_eq!(
            reference,
            panel_bits(&fs),
            "{name}: serial budgeted factor at {frac} of the bound diverged from in-core"
        );
        let ooc = ss.ooc.as_ref().expect("budgeted runs report OOC stats");
        assert!(
            ooc.resident_peak_bytes <= budget,
            "{name}: residency {} exceeded budget {budget}",
            ooc.resident_peak_bytes
        );
        assert_eq!(
            ss.peak_front_bytes, s0.peak_front_bytes,
            "{name}: the logical peak must stay the symbolic bound under a budget"
        );
        if frac >= 1.0 {
            assert_eq!(ooc.traffic_bytes(), 0, "{name}: a full budget must not spill");
        } else {
            assert!(ooc.traffic_bytes() > 0, "{name}: a {frac} budget must actually spill");
            assert!(
                ss.total_time > s0.total_time,
                "{name}: spill traffic at {frac} must cost simulated time"
            );
        }

        for workers in [1usize, 2, 4, 8] {
            let mut machines: Vec<Machine> = (0..workers).map(|_| Machine::paper_node()).collect();
            let par = ParallelOptions { thread_budget: 4 };
            let (fp, sp) =
                factor_permuted_parallel(a, symbolic, perm, &mut machines, &opts, &par).unwrap();
            assert_eq!(
                reference,
                panel_bits(&fp),
                "{name}: {workers}-worker budgeted factor at {frac} diverged"
            );
            let pooc = sp.ooc.as_ref().expect("parallel budgeted runs report OOC stats");
            assert_eq!(pooc, ooc, "{name}: OOC stats are schedule-independent");
        }
    }
}

#[test]
fn ooc_budgeted_bitwise_identical_to_in_core_f64() {
    for (name, a) in ooc_families() {
        let an = analysis_of(&a);
        assert_ooc_bitwise_in_core(name, &an.permuted.0, &an.symbolic, &an.perm);
    }
}

#[test]
fn ooc_budgeted_bitwise_identical_to_in_core_f32() {
    for (name, a) in ooc_families() {
        let an = analysis_of(&a);
        let a32: SymCsc<f32> = an.permuted.0.cast();
        assert_ooc_bitwise_in_core(name, &a32, &an.symbolic, &an.perm);
    }
}

#[test]
fn ooc_infeasible_budget_is_typed() {
    let a = laplacian_3d(7, 7, 7, Stencil::Faces);
    let an = analysis_of(&a);
    let opts = FactorOptions { memory_budget: Some(1024), ..Default::default() };
    let mut machine = Machine::paper_node();
    match factor_permuted(&an.permuted.0, &an.symbolic, &an.perm, &mut machine, &opts) {
        Err(FactorError::BudgetTooSmall { budget, required }) => {
            assert_eq!(budget, 1024);
            assert_eq!(required, min_feasible_budget(&an.symbolic, 8));
        }
        other => panic!("expected BudgetTooSmall, got {:?}", other.map(|(_, s)| s.total_time)),
    }
}

#[test]
fn ooc_budgeted_solver_refines_to_f64_accuracy() {
    // End-to-end: f32 factor under a 40% budget; f64 iterative refinement
    // absorbs the compute error, and spilling adds none.
    use gpu_multifrontal::matgen::rhs_for_solution;
    let a = laplacian_3d(6, 6, 30, Stencil::Faces);
    let an = analysis_of(&a);
    let budget = budget_for(&an.symbolic, 4, 0.4);
    let opts = SolverOptions {
        ordering: OrderingKind::NestedDissection,
        amalgamation: Some(AmalgamationOptions::default()),
        factor: FactorOptions::memory_budget(budget),
        precision: Precision::F32,
        analysis_workers: 0,
    };
    let mut machine = Machine::paper_node();
    let s = SpdSolver::new(&a, &mut machine, &opts).unwrap();
    let (_, b) = rhs_for_solution(&a, 13);
    let refined = s.solve_refined(&b, 8, 1e-13).unwrap();
    assert!(
        refined.converged,
        "refinement must converge under a memory budget: {:?}",
        refined.residual_history
    );
}

// ───────────────────────── simulated-clock golden figures ──────────────────
// (The `sim_clock` and `driver_errors` prefixes are load-bearing: ci.sh runs
// these suites by name.)

use gpu_multifrontal::core::{FactorStats, MultiGpuOptions, PipelineOptions};

/// How a GPU run is issued: the drain schedule, the in-flight issuer at one
/// device (pipelined) or at `n` devices from one host, or the parallel entry
/// at `workers` machines, drained or pipelined on `n` devices.
#[derive(Debug, Clone, Copy)]
enum Issuer {
    Drain,
    Pipelined,
    Devices(usize),
    ParallelDrain(usize),
    Workers(usize, usize),
}

impl Issuer {
    fn opts(self, selector: PolicySelector) -> FactorOptions {
        let (pipeline, devices) = match self {
            Issuer::Drain | Issuer::ParallelDrain(_) => {
                (PipelineOptions::default(), MultiGpuOptions::default())
            }
            Issuer::Pipelined => (PipelineOptions::pipelined(), MultiGpuOptions::default()),
            Issuer::Devices(n) | Issuer::Workers(_, n) => {
                (PipelineOptions::pipelined(), MultiGpuOptions::devices(n))
            }
        };
        FactorOptions { selector, pipeline, devices, ..Default::default() }
    }

    /// Factor on `machines` (all of them from the parallel entry, the first
    /// otherwise).
    fn factor<T: Scalar>(
        self,
        a: &SymCsc<T>,
        an: &Analysis,
        machines: &mut [Machine],
        selector: PolicySelector,
    ) -> Result<(CholeskyFactor<T>, FactorStats), FactorError> {
        let opts = self.opts(selector);
        match self {
            Issuer::ParallelDrain(_) | Issuer::Workers(..) => factor_permuted_parallel(
                a,
                &an.symbolic,
                &an.perm,
                machines,
                &opts,
                &ParallelOptions { thread_budget: 2 },
            ),
            _ => factor_permuted(a, &an.symbolic, &an.perm, &mut machines[0], &opts),
        }
    }

    fn machines(self, make: impl Fn() -> Machine) -> Vec<Machine> {
        let n = match self {
            Issuer::ParallelDrain(w) | Issuer::Workers(w, _) => w,
            _ => 1,
        };
        (0..n).map(|_| make()).collect()
    }
}

/// The four selectors the clock is pinned under.
fn clock_selectors() -> Vec<PolicySelector> {
    vec![
        PolicySelector::Fixed(PolicyKind::P2),
        PolicySelector::Fixed(PolicyKind::P3),
        PolicySelector::Fixed(PolicyKind::P4),
        PolicySelector::Baseline(BaselineThresholds::default()),
    ]
}

/// Every deterministic figure of a run that is not a factor bit.
fn clock_words(s: &FactorStats) -> Vec<u64> {
    let mut w = vec![
        s.total_time.to_bits(),
        s.oom_fallbacks as u64,
        s.peer_bytes as u64,
        s.front_alloc_events,
    ];
    for u in s.gpu.iter().chain(&s.gpu_devices) {
        w.extend([u.compute_busy.to_bits(), u.copy_busy.to_bits()]);
    }
    w
}

/// [`clock_words`] but `front_alloc_events`: the simulated figures, which the
/// parallel entry's drain shares with the serial run at every worker count,
/// its storage accounting aside.
fn sim_words(s: &FactorStats) -> Vec<u64> {
    let mut w = clock_words(s);
    w.remove(3);
    w
}

/// The issuers of the golden clock, one host timeline each. The parallel
/// entry's drain is the `Drain` column's run at every worker count:
/// [`clock_hashes`] asserts its [`sim_words`] at 2 and 4 workers.
const CLOCK_ISSUERS: [Issuer; 4] =
    [Issuer::Drain, Issuer::Pipelined, Issuer::Devices(2), Issuer::Devices(4)];

/// [`fnv1a`] of [`clock_words`] over [`clock_selectors`], per issuer.
fn clock_hashes(a: &SymCsc<f32>, an: &Analysis, make: impl Fn() -> Machine) -> [u64; 4] {
    CLOCK_ISSUERS.map(|issuer| {
        let words: Vec<u64> = clock_selectors()
            .into_iter()
            .flat_map(|sel| {
                let mut machines = issuer.machines(&make);
                let (_, stats) = issuer.factor(a, an, &mut machines, sel.clone()).unwrap();
                if let Issuer::Drain = issuer {
                    for workers in [2, 4] {
                        let par = Issuer::ParallelDrain(workers);
                        let (_, p) =
                            par.factor(a, an, &mut par.machines(&make), sel.clone()).unwrap();
                        assert_eq!(
                            sim_words(&p),
                            sim_words(&stats),
                            "{sel:?} at {workers} workers"
                        );
                    }
                }
                clock_words(&stats)
            })
            .collect();
        fnv1a(words.into_iter())
    })
}

fn small_device_node() -> Machine {
    use gpu_multifrontal::gpusim::{tesla_t10, xeon_5160_core};
    let mut cfg = tesla_t10();
    cfg.mem_bytes = 2_000; // 500 f32 elements — only tiny fronts fit
    Machine::with_gpu(xeon_5160_core(), cfg)
}

/// `(name, one hash per CLOCK_ISSUERS entry)`: [`golden_families`] in f32 on
/// the paper node, then the 6×6×5 Laplacian on a 2 000-byte device (every
/// large front takes the drain-then-retry OOM path). Re-recorded together
/// with [`GOLDEN_ORDERINGS`]: postordered orderings give other supernodes,
/// hence other fronts, clocks and allocation counts (the paths, the star and
/// the clique kept theirs).
const GOLDEN_CLOCK: [(&str, [u64; 4]); 8] = [
    (
        "plate60",
        [
            0xb8e4_779e_fe83_1e1a,
            0x265d_b7c9_d1ff_1711,
            0x155e_6d95_4b54_e3a7,
            0x397b_988b_0ce2_29d0,
        ],
    ),
    (
        "cube10",
        [
            0x112f_cc40_333c_c71a,
            0xcd50_3ec8_b03e_209c,
            0xc88d_d6da_1f37_9373,
            0x78ea_75dc_522a_8f86,
        ],
    ),
    (
        "elasticity6",
        [
            0x2518_8a67_0593_fd87,
            0x3b8e_7c18_29ec_964a,
            0xd0d1_d46e_a048_5c55,
            0xec87_836d_3c96_d9cb,
        ],
    ),
    (
        "strip400x3",
        [
            0xae4c_e7a1_da56_69c2,
            0xc32e_e4b5_82c5_350e,
            0x4d36_2174_e63b_26b8,
            0x0508_af84_7756_5ab9,
        ],
    ),
    (
        "three_paths",
        [
            0xac82_390a_e09d_4c94,
            0x0e23_a4b3_3259_adc8,
            0xd6fb_b7ea_12e6_a1ba,
            0x0525_30a6_0593_b6ce,
        ],
    ),
    (
        "star150",
        [
            0x1764_7392_002a_2ac0,
            0x18d4_c973_a51b_fd34,
            0xde73_f6e5_ad61_a6a3,
            0xeccb_6736_a5af_1d1f,
        ],
    ),
    (
        "clique100_tail30",
        [
            0x1398_03ea_3363_2934,
            0x1398_03ea_3363_2934,
            0xd33a_c098_78e3_f418,
            0x67bd_ef07_2bbd_9c18,
        ],
    ),
    (
        "lap3d-6x6x5-oom",
        [
            0x9c13_abd1_ece8_d6cb,
            0xffca_53df_1a60_3534,
            0x438f_3508_26ee_b2c7,
            0x3c72_589c_1ae7_6918,
        ],
    ),
];

#[test]
fn sim_clock_matches_golden() {
    let mut actual: Vec<(&str, [u64; 4])> = golden_families()
        .iter()
        .map(|(name, a)| {
            let an = analysis_of(a);
            (*name, clock_hashes(&an.permuted.0.cast(), &an, Machine::paper_node))
        })
        .collect();
    let an = analysis_of(&laplacian_3d(6, 6, 5, Stencil::Faces));
    actual.push(("lap3d-6x6x5-oom", clock_hashes(&an.permuted.0.cast(), &an, small_device_node)));
    assert_eq!(actual, GOLDEN_CLOCK, "actual:\n{actual:#x?}");
}

#[test]
fn sim_clock_parallel_entry_runs_pipelined_and_multi_device_on_one_timeline() {
    // Fronts in flight share one host timeline: a pipelined or multi-device
    // run from the parallel entry is the serial entry's run on its first
    // machine — same bits, same clock — and leaves the other machines as
    // they came. Where the rehearsal drains a one-device request, the drain
    // runs as tasks over every machine with the serial run's clock.
    let mut inputs: Vec<(Analysis, fn() -> Machine)> = golden_families()
        .iter()
        .map(|(_, a)| (analysis_of(a), Machine::paper_node as fn() -> Machine))
        .collect();
    inputs.push((analysis_of(&laplacian_3d(6, 6, 5, Stencil::Faces)), small_device_node));
    for (an, make) in &inputs {
        let a: SymCsc<f32> = an.permuted.0.cast();
        for issuer in [Issuer::Pipelined, Issuer::Devices(4)] {
            for selector in clock_selectors() {
                let opts = issuer.opts(selector.clone());
                let (fs, ss) =
                    factor_permuted(&a, &an.symbolic, &an.perm, &mut make(), &opts).unwrap();
                for workers in [1usize, 2, 3] {
                    let what = format!("{issuer:?} {selector:?} at {workers} workers");
                    let mut machines: Vec<Machine> = (0..workers).map(|_| make()).collect();
                    let par = ParallelOptions { thread_budget: 2 };
                    let (fp, sp) = factor_permuted_parallel(
                        &a,
                        &an.symbolic,
                        &an.perm,
                        &mut machines,
                        &opts,
                        &par,
                    )
                    .unwrap();
                    assert_eq!(panel_bits(&fp), panel_bits(&fs), "{what}: bits");
                    assert_eq!(sp.plan, ss.plan, "{what}: plan");
                    if sp.plan.schedule == Schedule::Drain {
                        assert_eq!(sim_words(&sp), sim_words(&ss), "{what}: clock");
                        continue;
                    }
                    assert_eq!(clock_words(&sp), clock_words(&ss), "{what}: clock");
                    for m in &mut machines[1..] {
                        assert_eq!(m.elapsed(), 0.0, "{what}: an unused machine's clock moved");
                        let gpu = m.gpu.as_ref().expect("an unused machine keeps its device");
                        assert_eq!(gpu.mem_used(), 0, "{what}: an unused machine's device");
                    }
                }
            }
        }
    }
}

/// [`fnv1a`] over [`clock_selectors`] of a *recorded* drain run's per-call
/// records — `(sn, policy, total, t_potrf, t_trsm, t_syrk, t_copy)` each —
/// plus its `total_time` and `oom_fallbacks`, from the serial entry, whose
/// records and clock the parallel entry at 1, 2 and 4 workers must give word
/// for word. `t_assemble` is left out of the hash on purpose: which front a
/// host memop is booked to is bookkeeping, not the clock.
fn record_hash(a: &SymCsc<f32>, an: &Analysis, make: impl Fn() -> Machine) -> u64 {
    let mut words = Vec::new();
    for selector in clock_selectors() {
        let opts = FactorOptions { selector, record_stats: true, ..Default::default() };
        let (_, stats) = factor_permuted(a, &an.symbolic, &an.perm, &mut make(), &opts).unwrap();
        assert_eq!(stats.records.len(), an.symbolic.num_supernodes());
        // Every word of a record but its last, `t_assemble`.
        let serial: Vec<u64> = record_words(&stats)
            .chunks(8)
            .flat_map(|r| r[..7].to_vec())
            .chain([stats.total_time.to_bits(), stats.oom_fallbacks as u64])
            .collect();
        for workers in [1usize, 2, 4] {
            let mut machines: Vec<Machine> = (0..workers).map(|_| make()).collect();
            let par = ParallelOptions { thread_budget: 2 };
            let (_, p) =
                factor_permuted_parallel(a, &an.symbolic, &an.perm, &mut machines, &opts, &par)
                    .unwrap();
            let what = format!("{:?} at {workers} workers", opts.selector);
            assert_eq!(record_words(&p), record_words(&stats), "{what}: records");
            assert_eq!(sim_words(&p), sim_words(&stats), "{what}: clock");
        }
        words.extend(serial);
    }
    fnv1a(words.into_iter())
}

/// `(name, serial hash)` over the rows of [`GOLDEN_CLOCK`]. Re-recorded
/// together with [`GOLDEN_CLOCK`].
const GOLDEN_RECORDS: [(&str, u64); 8] = [
    ("plate60", 0xb387_8227_bdc4_9f32),
    ("cube10", 0x2ad3_e713_411d_b013),
    ("elasticity6", 0x260f_6fe0_87d8_a272),
    ("strip400x3", 0x8795_0e1d_abf5_26f6),
    ("three_paths", 0x07ae_ad58_a68c_69be),
    ("star150", 0xc813_3089_75a1_500e),
    ("clique100_tail30", 0xeeb3_158c_319f_b067),
    ("lap3d-6x6x5-oom", 0xc72f_0900_d3cf_6362),
];

#[test]
fn sim_clock_records_match_golden() {
    let mut actual: Vec<(&str, u64)> = golden_families()
        .iter()
        .map(|(name, a)| {
            let an = analysis_of(a);
            (*name, record_hash(&an.permuted.0.cast(), &an, Machine::paper_node))
        })
        .collect();
    let an = analysis_of(&laplacian_3d(6, 6, 5, Stencil::Faces));
    actual.push(("lap3d-6x6x5-oom", record_hash(&an.permuted.0.cast(), &an, small_device_node)));
    assert_eq!(actual, GOLDEN_RECORDS, "actual:\n{actual:#x?}");
}

/// `(name, [paper node, CPU-only node])`: [`ooc_families`] in f32, drained
/// under fixed P1 and the baseline hybrid at `min_feasible_budget` and
/// halfway to `in_core_bytes`, each node's hash over [`clock_words`] and
/// every [`OocStats`] field of those four runs. Re-recorded together with
/// [`GOLDEN_CLOCK`].
const GOLDEN_BUDGET_CLOCK: [(&str, [u64; 2]); 3] = [
    ("lap3d-6x6x60", [0xfd7e_9dbd_1950_f579, 0x68f7_fb46_e8e6_aa79]),
    ("lap3d-7x7x7", [0xe668_8fc1_f9ef_d145, 0x73ad_905a_9dce_98c5]),
    ("elasticity-4x4x3", [0x6432_ab55_c61e_e5b1, 0x819e_bbf1_4dd7_e0b1]),
];

#[test]
fn sim_clock_under_budget_matches_golden() {
    use gpu_multifrontal::core::OocStats;
    use gpu_multifrontal::gpusim::xeon_5160_core;
    let nodes: [fn() -> Machine; 2] = [Machine::paper_node, || Machine::cpu_only(xeon_5160_core())];
    let selectors = [
        PolicySelector::Fixed(PolicyKind::P1),
        PolicySelector::Baseline(BaselineThresholds::default()),
    ];
    let actual: Vec<(&str, [u64; 2])> = ooc_families()
        .iter()
        .map(|(name, a)| {
            let an = analysis_of(a);
            let (a, sym) = (an.permuted.0.cast::<f32>(), &an.symbolic);
            let (min, in_core) = (min_feasible_budget(sym, 4), in_core_bytes(sym, 4));
            let hashes = nodes.map(|node| {
                let mut words = Vec::new();
                for selector in &selectors {
                    for budget in [min, min + (in_core - min) / 2] {
                        let opts = FactorOptions {
                            selector: selector.clone(),
                            memory_budget: Some(budget),
                            ..Default::default()
                        };
                        let (_, s) =
                            factor_permuted(&a, sym, &an.perm, &mut node(), &opts).unwrap();
                        words.extend(clock_words(&s));
                        let OocStats {
                            resident_peak_bytes,
                            host_bytes_out,
                            host_bytes_in,
                            disk_bytes_out,
                            disk_bytes_in,
                            evictions,
                            loads,
                        } = s.ooc.expect("a budgeted run reports its traffic");
                        words.extend(
                            [
                                resident_peak_bytes,
                                host_bytes_out,
                                host_bytes_in,
                                disk_bytes_out,
                                disk_bytes_in,
                                evictions,
                                loads,
                            ]
                            .map(|x| x as u64),
                        );
                    }
                }
                fnv1a(words.into_iter())
            });
            (*name, hashes)
        })
        .collect();
    assert_eq!(actual, GOLDEN_BUDGET_CLOCK, "actual:\n{actual:#x?}");
}

#[test]
fn recorded_cpu_run_accounts_for_every_simulated_second() {
    // On one host timeline with no device every simulated second is either
    // inside a front's factor-update (`total`) or a host memop around it —
    // its assembly and its own extraction (`t_assemble`). A front's
    // extraction booked to the next front, and the root's to none, left a gap.
    use gpu_multifrontal::gpusim::xeon_5160_core;
    for a in [laplacian_3d(7, 6, 6, Stencil::Faces), elasticity_3d(4, 4, 3)] {
        let an = analysis_of(&a);
        let opts = FactorOptions { record_stats: true, ..Default::default() };
        let mut machine = Machine::cpu_only(xeon_5160_core());
        let (_, stats) =
            factor_permuted(&an.permuted.0, &an.symbolic, &an.perm, &mut machine, &opts).unwrap();
        let booked = stats.sum(|r| r.total + r.t_assemble);
        assert!(
            (stats.total_time - booked).abs() <= 1e-9 * stats.total_time,
            "{booked:e} booked of {:e} simulated seconds",
            stats.total_time
        );
    }
}

/// `a` with the diagonal entry of column `col` made negative.
fn with_negative_pivot(a: &SymCsc<f32>, col: usize) -> SymCsc<f32> {
    let mut values = a.values().to_vec();
    let p = a.colptr()[col];
    assert_eq!(a.rowind()[p], col, "lower storage keeps the diagonal first");
    values[p] = -values[p].abs() - 1.0;
    SymCsc::from_parts(a.order(), a.colptr().to_vec(), a.rowind().to_vec(), values)
}

#[test]
fn driver_errors_leave_devices_empty() {
    // A pivot failure anywhere in the tree, under every issuer: the error is
    // the serial driver's, every device handed back is empty, and the same
    // machines then factor the good matrix exactly as fresh ones do.
    let issuers = [
        Issuer::Drain,
        Issuer::Pipelined,
        Issuer::Devices(2),
        Issuer::Devices(4),
        Issuer::Workers(2, 4),
        Issuer::Workers(2, 1),
    ];
    for a in [laplacian_3d(7, 6, 6, Stencil::Faces), laplacian_3d(12, 6, 6, Stencil::Faces)] {
        let an = analysis_of(&a);
        let good: SymCsc<f32> = an.permuted.0.cast();
        for selector in clock_selectors() {
            let fresh: Vec<(Vec<u64>, usize, u64)> = issuers
                .iter()
                .map(|issuer| {
                    let mut machines = issuer.machines(Machine::paper_node);
                    let (f, s) =
                        issuer.factor(&good, &an, &mut machines, selector.clone()).unwrap();
                    (panel_bits(&f), s.oom_fallbacks, s.total_time.to_bits())
                })
                .collect();
            let mut machines: Vec<Vec<Machine>> =
                issuers.iter().map(|issuer| issuer.machines(Machine::paper_node)).collect();
            for info in an.symbolic.supernodes.iter() {
                let bad = with_negative_pivot(&good, info.col_start);
                let mut serial = Machine::paper_node();
                let expected = factor_permuted(
                    &bad,
                    &an.symbolic,
                    &an.perm,
                    &mut serial,
                    &FactorOptions::default(),
                )
                .unwrap_err();
                assert_eq!(expected, FactorError::NotPositiveDefinite { column: info.col_start });
                for (issuer, ms) in issuers.iter().zip(machines.iter_mut()) {
                    let what = format!("{issuer:?} {selector:?} column {}", info.col_start);
                    let err = issuer.factor(&bad, &an, ms, selector.clone()).unwrap_err();
                    assert_eq!(err, expected, "{what}");
                    for m in ms.iter_mut() {
                        let gpu = m.gpu.as_ref().expect("device handed back");
                        assert_eq!(gpu.mem_used(), 0, "{what}: device memory leaked");
                        m.reset();
                    }
                }
            }
            // The machines that saw every failure still behave as new.
            for ((issuer, ms), want) in issuers.iter().zip(machines.iter_mut()).zip(&fresh) {
                let (f, s) = issuer.factor(&good, &an, ms, selector.clone()).unwrap();
                assert_eq!(panel_bits(&f), want.0, "{issuer:?} {selector:?}: bits after errors");
                assert_eq!(s.oom_fallbacks, want.1, "{issuer:?} {selector:?}: fallbacks");
                assert_eq!(s.total_time.to_bits(), want.2, "{issuer:?} {selector:?}: clock");
            }
        }
    }
}

/// Every figure of a run's per-call records.
fn record_words(s: &FactorStats) -> Vec<u64> {
    let mut w = Vec::new();
    for r in &s.records {
        w.extend([r.sn as u64, r.policy.index() as u64]);
        w.extend(
            [r.total, r.t_potrf, r.t_trsm, r.t_syrk, r.t_copy, r.t_assemble].map(f64::to_bits),
        );
    }
    w
}

/// Whether `a`'s records are `b`'s up to the rounding of a later start: the
/// same fronts under the same policies, every time within a picosecond — far
/// above what re-rounding an interval at these clocks moves (≈ 1e-17 s), far
/// below the smallest charge (nanoseconds).
fn records_match_up_to_rounding(a: &FactorStats, b: &FactorStats) -> bool {
    let (a, b) = (record_words(a), record_words(b));
    let close = |p: &u64, q: &u64| (f64::from_bits(*p) - f64::from_bits(*q)).abs() <= 1e-12;
    a.len() == b.len()
        && a.chunks(8)
            .zip(b.chunks(8))
            .all(|(x, y)| x[..2] == y[..2] && x[2..].iter().zip(&y[2..]).all(|(p, q)| close(p, q)))
}

#[test]
fn driver_errors_leave_recording_machines_clean() {
    // A pivot failure anywhere in the tree of a *recorded* run — serial, or
    // the parallel entry at 1 and 2 workers — leaves nothing that the next
    // recorded run on the same machines books: a front's split starts when
    // its assembly does. On the clocks the failure left, the next run's
    // records are a fresh run's up to the rounding of their later start; on
    // reset clocks they are a fresh run's word for word, `t_assemble`
    // included.
    let an = analysis_of(&laplacian_3d(7, 6, 6, Stencil::Faces));
    let good: SymCsc<f32> = an.permuted.0.cast();
    let par = ParallelOptions { thread_budget: 2 };
    for selector in clock_selectors() {
        let opts = FactorOptions { selector, record_stats: true, ..Default::default() };
        // `None` is the serial entry, `Some(w)` the parallel one at `w` workers.
        for workers in [None, Some(1), Some(2)] {
            let run = |a: &SymCsc<f32>, machines: &mut [Machine]| match workers {
                None => factor_permuted(a, &an.symbolic, &an.perm, &mut machines[0], &opts),
                Some(_) => {
                    factor_permuted_parallel(a, &an.symbolic, &an.perm, machines, &opts, &par)
                }
            };
            let fleet = || -> Vec<Machine> {
                (0..workers.unwrap_or(1)).map(|_| Machine::paper_node()).collect()
            };
            let fresh = run(&good, &mut fleet()).unwrap().1;
            for info in an.symbolic.supernodes.iter() {
                let what = format!("{:?} {workers:?} column {}", opts.selector, info.col_start);
                let bad = with_negative_pivot(&good, info.col_start);
                let mut machines = fleet();
                run(&bad, &mut machines).unwrap_err();
                let (_, after) = run(&good, &mut machines).unwrap();
                assert!(records_match_up_to_rounding(&after, &fresh), "{what}: after the error");

                run(&bad, &mut machines).unwrap_err();
                machines.iter_mut().for_each(Machine::reset);
                let (_, reset) = run(&good, &mut machines).unwrap();
                assert_eq!(record_words(&reset), record_words(&fresh), "{what}: reset clocks");
            }
        }
    }
}

// ───────────────────────── the run plan ────────────────────────────────────
// (The `exec_plan` prefix is load-bearing: ci.sh runs this suite by name.)

/// The plan a run must record, restated from `FactorOptions::plan`'s
/// contract for machines `gpus` (whether each carries a device), the same
/// from either entry: the schedule (`None` where the rehearsal picks
/// pipelined or drain) and the kind of its decision.
fn expected_plan(
    opts: &FactorOptions,
    gpus: &[bool],
) -> Result<(Option<Schedule>, Option<&'static str>), PlanError> {
    let devices = opts.devices.count;
    if gpus.iter().any(|&g| g != gpus[0]) {
        return Err(PlanError::UnlikeMachines);
    }
    if devices == 0 {
        return Err(PlanError::NoDevices);
    }
    if devices > 1 && !opts.pipeline.enabled {
        return Err(PlanError::DevicesWithoutPipeline { devices });
    }
    if devices > 1 && !gpus[0] {
        return Err(PlanError::DevicesWithoutGpu { devices });
    }
    if !opts.pipeline.enabled {
        return Ok((Some(Schedule::Drain), None));
    }
    if opts.memory_budget.is_some() {
        return Ok((Some(Schedule::Drain), Some("BudgetDrains")));
    }
    if !gpus[0] {
        return Ok((Some(Schedule::Drain), Some("NoDevice")));
    }
    if devices > 1 {
        return Ok((Some(Schedule::Pipelined { devices }), None));
    }
    Ok((None, Some("Rehearsed")))
}

fn decision_kind(d: &Decision) -> &'static str {
    match d {
        Decision::BudgetDrains => "BudgetDrains",
        Decision::NoDevice => "NoDevice",
        Decision::Rehearsed { .. } => "Rehearsed",
    }
}

/// One point of the plan space: the options, whether each machine carries a
/// device, and whether the parallel entry runs them.
type PlanCase = (FactorOptions, &'static [bool], bool);

/// Pipelining × device count × memory budget × machines (with and without a
/// device) × serial or parallel entry, under `selector`.
fn plan_cases(selector: &PolicySelector, budget: usize) -> Vec<PlanCase> {
    const MACHINES: [(&[bool], bool); 6] = [
        (&[true], false),
        (&[false], false),
        (&[true], true),
        (&[true, true], true),
        (&[false, true], true),
        (&[false, false], true),
    ];
    let mut cases = Vec::new();
    for enabled in [false, true] {
        for devices in [0usize, 1, 2, 4] {
            for memory_budget in [None, Some(budget)] {
                for (gpus, parallel) in MACHINES {
                    let opts = FactorOptions {
                        selector: selector.clone(),
                        pipeline: PipelineOptions { enabled },
                        devices: MultiGpuOptions::devices(devices),
                        memory_budget,
                        record_stats: true,
                        ..Default::default()
                    };
                    cases.push((opts, gpus, parallel));
                }
            }
        }
    }
    cases
}

#[test]
fn exec_plan_every_option_combination_is_canonical_bits_or_a_typed_error() {
    // Every point of the plan space, under a GPU and a hybrid selector,
    // either factors to the canonical bits, recording the plan the contract
    // names (and `plan` predicted), or fails with the contract's typed error
    // before touching any machine. At every point, from either entry, the
    // rehearsal on a fresh machine like the first equals the run — clock,
    // records, fallbacks, plan and out-of-core accounting — or fails with its
    // error; only unlike machines, which one machine cannot show, have no
    // rehearsal.
    use gpu_multifrontal::gpusim::xeon_5160_core;
    let node =
        |g: bool| if g { Machine::paper_node() } else { Machine::cpu_only(xeon_5160_core()) };
    let an = analysis_of(&laplacian_3d(6, 6, 5, Stencil::Faces));
    let a: SymCsc<f32> = an.permuted.0.cast();
    let budget = budget_for(&an.symbolic, 4, 0.5);
    let par = ParallelOptions { thread_budget: 2 };
    for selector in [
        PolicySelector::Fixed(PolicyKind::P4),
        PolicySelector::Baseline(BaselineThresholds::default()),
    ] {
        let drain = FactorOptions { selector: selector.clone(), ..Default::default() };
        let (canonical, _) =
            factor_permuted(&a, &an.symbolic, &an.perm, &mut Machine::paper_node(), &drain)
                .unwrap();
        let canonical = panel_bits(&canonical);
        let mut verdicts = [false; 2];
        for (opts, gpus, parallel) in plan_cases(&selector, budget) {
            let what = format!("{opts:?} on {gpus:?}, parallel {parallel}");
            let mut machines: Vec<Machine> = gpus.iter().map(|&g| node(g)).collect();
            let rehearsed = opts.rehearse::<f32>(&an.symbolic, &node(gpus[0]));
            let planned = opts.plan::<f32>(&an.symbolic, &machines);
            let ran = if parallel {
                factor_permuted_parallel(&a, &an.symbolic, &an.perm, &mut machines, &opts, &par)
            } else {
                factor_permuted(&a, &an.symbolic, &an.perm, &mut machines[0], &opts)
            };
            let (schedule, decision) = match expected_plan(&opts, gpus) {
                Err(e) => {
                    assert_eq!(planned, Err(e), "{what}");
                    assert_eq!(ran.err(), Some(FactorError::Plan(e)), "{what}");
                    assert!(machines.iter_mut().all(|m| m.elapsed() == 0.0), "{what}");
                    if e != PlanError::UnlikeMachines {
                        let err = rehearsed.err();
                        assert_eq!(err, Some(FactorError::Plan(e)), "{what}: rehearsal");
                    }
                    continue;
                }
                Ok(want) => want,
            };
            let plan = planned.unwrap();
            let (f, stats) = ran.unwrap();
            assert_eq!(stats.plan, plan, "{what}: the run records its plan");
            let r = rehearsed.unwrap_or_else(|e| panic!("{what}: the rehearsal failed: {e}"));
            assert_eq!(r.total_time.to_bits(), stats.total_time.to_bits(), "{what}: rehearsed");
            assert_eq!(record_words(&r), record_words(&stats), "{what}: rehearsed records");
            assert_eq!(r.oom_fallbacks, stats.oom_fallbacks, "{what}: rehearsed fallbacks");
            assert_eq!(r.plan, stats.plan, "{what}: rehearsed plan");
            assert_eq!(r.ooc, stats.ooc, "{what}: rehearsed out-of-core accounting");
            assert_eq!(panel_bits(&f), canonical, "{what}: bits");
            assert_eq!(plan.decision.as_ref().map(decision_kind), decision, "{what}: {plan:?}");
            match (schedule, plan.decision) {
                (Some(s), _) => assert_eq!(plan.schedule, s, "{what}"),
                (None, Some(Decision::Rehearsed { pipelined_s, drain_s })) => {
                    let wins = pipelined_s < drain_s;
                    let s = if wins { Schedule::Pipelined { devices: 1 } } else { Schedule::Drain };
                    assert_eq!(plan.schedule, s, "{what}: {plan:?}");
                    assert_eq!(stats.total_time, pipelined_s.min(drain_s), "{what}: clock");
                    verdicts[usize::from(wins)] = true;
                }
                (None, _) => panic!("{what}: no rehearsal in {plan:?}"),
            }
            if let Schedule::Pipelined { .. } = plan.schedule {
                for (j, m) in machines.iter_mut().enumerate().skip(1) {
                    assert_eq!(m.elapsed(), 0.0, "{what}: machine {j} was used");
                }
            }
        }
        // Fixed P4 pipelines on this grid; the baseline hybrid keeps every
        // front on the host, where the pipeline cannot win.
        let wins = matches!(selector, PolicySelector::Fixed(_));
        assert!(verdicts[usize::from(wins)], "{selector:?}: rehearsal verdicts {verdicts:?}");
    }
}

// ──────────────────── one plan at every worker count ───────────────────────
// (The `one_plan_` and `unlike_machines` prefixes are load-bearing: ci.sh runs
// these tests by name.)

#[test]
fn one_plan_parallel_entry_reports_the_serial_clock_on_every_repeat() {
    // The parallel entry runs the serial entry's plan for its first machine:
    // whichever worker runs which task, its simulated fields — clock, every
    // per-call record word, device busy time, fallbacks, plan and out-of-core
    // accounting — are `factor_permuted`'s on one such machine and
    // `FactorOptions::rehearse`'s, bit for bit, at every worker count. The
    // workers factor on twins: the first machine is left as the serial run
    // leaves its machine, and the others are not touched.
    let an = analysis_of(&elasticity_3d(8, 8, 8));
    let a: SymCsc<f32> = an.permuted.0.cast();
    let budget = budget_for(&an.symbolic, 4, 0.5);
    let budgeted = FactorOptions {
        selector: PolicySelector::Fixed(PolicyKind::P4),
        memory_budget: Some(budget),
        ..Default::default()
    };
    let cases = clock_selectors()
        .into_iter()
        .map(|selector| FactorOptions { selector, ..Default::default() })
        .chain([budgeted]);
    let sim = |s: &FactorStats| (sim_words(s), record_words(s), s.gpu, s.plan, s.ooc.clone());
    // A machine as a run leaves it: its clock, device memory in use and
    // device utilization over the clock.
    let left = |m: &mut Machine| {
        let t = m.elapsed();
        let gpu = m.gpu.as_ref().expect("a paper node");
        (t.to_bits(), gpu.mem_used(), gpu.utilization(t))
    };
    let par = ParallelOptions { thread_budget: 2 };
    for opts in cases.map(|o| FactorOptions { record_stats: true, ..o }) {
        let mut serial_machine = Machine::paper_node();
        let (_, serial) =
            factor_permuted(&a, &an.symbolic, &an.perm, &mut serial_machine, &opts).unwrap();
        let serial_left = left(&mut serial_machine);
        assert_eq!(serial_left.1, 0, "{:?}: the serial run's device is empty", opts.selector);
        assert!(serial.gpu.is_some() && !serial.records.is_empty(), "{:?}", opts.selector);
        assert_eq!(serial.ooc.is_some(), opts.memory_budget.is_some());
        let rehearsed = opts.rehearse::<f32>(&an.symbolic, &Machine::paper_node()).unwrap();
        assert_eq!(sim(&rehearsed), sim(&serial), "{:?}: the rehearsal", opts.selector);
        for workers in [1usize, 2, 4] {
            for repeat in 0..8 {
                let mut machines: Vec<Machine> =
                    (0..workers).map(|_| Machine::paper_node()).collect();
                let (_, p) = factor_permuted_parallel(
                    &a,
                    &an.symbolic,
                    &an.perm,
                    &mut machines,
                    &opts,
                    &par,
                )
                .unwrap();
                let what = format!("{:?} at {workers} workers, repeat {repeat}", opts.selector);
                assert_eq!(sim(&p), sim(&serial), "{what}");
                // The first machine is left as the serial run leaves its
                // machine; the others are untouched.
                assert_eq!(left(&mut machines[0]), serial_left, "{what}: the first machine");
                for m in &mut machines[1..] {
                    assert_eq!(m.elapsed(), 0.0, "{what}: a machine after the first");
                }
            }
        }
    }
}

#[test]
fn unlike_machines_are_refused_before_any_clock_moves() {
    // Any worker runs any front, so the parallel entry needs machines like
    // its first: on a CPU-only node beside a paper node the factor bits
    // would follow which worker stole which front. Refused by the plan,
    // before any machine's clock moves.
    use gpu_multifrontal::gpusim::xeon_5160_core;
    let cpu = || Machine::cpu_only(xeon_5160_core());
    let an = analysis_of(&laplacian_3d(12, 12, 12, Stencil::Full));
    let a: SymCsc<f32> = an.permuted.0.cast();
    let opts =
        FactorOptions { selector: PolicySelector::Fixed(PolicyKind::P4), ..Default::default() };
    let warm = analysis_of(&laplacian_3d(4, 4, 3, Stencil::Faces));
    let warm_a: SymCsc<f32> = warm.permuted.0.cast();
    let fleets: [Vec<Machine>; 3] = [
        vec![cpu(), Machine::paper_node()],
        vec![Machine::paper_node(), Machine::paper_node(), cpu()],
        vec![Machine::paper_node(), small_device_node()],
    ];
    for mut machines in fleets {
        // Clocks that have run, so a reset would show.
        for m in machines.iter_mut() {
            factor_permuted(&warm_a, &warm.symbolic, &warm.perm, m, &opts).unwrap();
        }
        let clocks: Vec<f64> = machines.iter_mut().map(Machine::elapsed).collect();
        let what = format!("{:?}", machines.iter().map(|m| m.gpu.is_some()).collect::<Vec<_>>());
        assert_eq!(opts.plan::<f32>(&an.symbolic, &machines), Err(PlanError::UnlikeMachines));
        let par = ParallelOptions { thread_budget: 2 };
        let ran = factor_permuted_parallel(&a, &an.symbolic, &an.perm, &mut machines, &opts, &par);
        let want = FactorError::Plan(PlanError::UnlikeMachines);
        assert_eq!(ran.err(), Some(want), "{what}");
        let after: Vec<f64> = machines.iter_mut().map(Machine::elapsed).collect();
        assert_eq!(after, clocks, "{what}: a clock moved");
    }
}
