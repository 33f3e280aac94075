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

/// The arena's memory contract — peak working storage within the symbolic
/// bound, two allocations for a serial run — and the parallel driver's
/// storage (a worker's own arena per task, hand-off buffers between tasks)
/// giving the serial arena's bits at every worker count.
fn assert_arena_contract<T: Scalar>(a: &SymCsc<T>, symbolic: &SymbolicFactor, perm: &Permutation) {
    let opts = baseline_opts();
    let mut m0 = Machine::paper_node();
    let (fa, sa) = factor_permuted(a, symbolic, perm, &mut m0, &opts).unwrap();
    let reference = panel_bits(&fa);
    assert!(
        sa.peak_front_bytes <= symbolic.update_stack_peak() * T::BYTES,
        "arena high-water {} exceeds symbolic bound {}",
        sa.peak_front_bytes,
        symbolic.update_stack_peak() * T::BYTES
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
    for nrhs in [1usize, 4] {
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
/// the first three as [`perm_hash`]. Minimum degree and RCM are as recorded
/// from commit 17193a0, before the ordering moved to compact subgraphs;
/// nested dissection and the fingerprints were re-recorded when the separator
/// step became "cheapest level set or multilevel separator" (the strip, the
/// paths and the star did not move: their level sets were already the best
/// cut). Serial-vs-parallel identity cannot see a change that moves both;
/// this can.
const GOLDEN_ORDERINGS: [(&str, u64, u64, u64, u64); 7] = [
    (
        "plate60",
        0xa4da_7a39_f7d9_79d1,
        0x1cc4_2e71_083e_aaa9,
        0x6d34_6bb4_6374_c5b1,
        0x700b_e05e_7e00_d889,
    ),
    (
        "cube10",
        0x317a_c50f_6c62_4f35,
        0x785c_9536_1392_43d5,
        0x6406_6407_f995_fd41,
        0xe15f_9444_47a2_31c4,
    ),
    (
        "elasticity6",
        0x23df_b54d_3caf_81a5,
        0xdb1d_de6a_736f_f92d,
        0x40eb_df99_9f9b_0f1d,
        0x052b_61d8_4be0_fce3,
    ),
    (
        "strip400x3",
        0xb1d4_01b9_5e24_80a5,
        0x0f7a_f3e1_f29e_31d9,
        0xb2d4_dfa6_2939_8735,
        0x020a_62e7_9a99_510a,
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
/// each `[slab, 1 RHS, 8 RHS]`. The three families whose nested-dissection
/// order is unchanged since commit ed369d8 — the last one with
/// per-supernode row vectors, per-supernode solve buffers and one task per
/// front — keep the bits recorded there; the other four were re-recorded
/// together with [`GOLDEN_ORDERINGS`]. Serial-vs-parallel identity cannot
/// see a change that moves both; this can.
const GOLDEN_NUMERIC: [(&str, [u64; 3], [u64; 3]); 7] = [
    (
        "plate60",
        [0x0fae_0f07_3f83_1a2e, 0x3d5b_ec63_2686_6764, 0x0501_2930_8f33_5ff8],
        [0x2997_445d_ee99_b191, 0xc3a3_c2e9_bbdc_0c4e, 0x1b96_4554_901f_5a97],
    ),
    (
        "cube10",
        [0x839c_fe29_2dba_d85e, 0xd2e1_4ed2_1dbb_9a4d, 0x4cb3_13b7_f122_06db],
        [0xf1bf_54a2_036f_96e1, 0x01fd_f93c_1ecb_b35e, 0x821b_76b9_406d_35c9],
    ),
    (
        "elasticity6",
        [0x29a3_a07b_c9d0_aee0, 0x19f4_4aa3_3718_6df2, 0x6532_23df_e0a1_9420],
        [0x9f54_4e2d_9731_ed72, 0xf2e5_3652_3934_0d10, 0x9d4a_90dd_f30e_2436],
    ),
    (
        "strip400x3",
        [0xcb21_5cc2_236f_1d85, 0xe308_39b8_2c1e_5b8d, 0x0944_800e_8d0b_ecf4],
        [0x21ac_a16e_cefe_f421, 0xac55_eddb_24e2_3030, 0xb70f_5d9f_2910_a029],
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
        [0x610b_d310_3874_87f5, 0x9519_7204_4243_126d, 0xac27_f36a_5970_24ec],
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

use gpu_multifrontal::core::{
    in_core_bytes, min_feasible_budget, plan_ooc, PrecisionLadder, SolverOptions, SpdSolver,
};
use gpu_multifrontal::gpusim::{TierParams, DEFAULT_DEVICE_BUDGET};
use gpu_multifrontal::matgen::HugeMatrix;

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

/// The tentpole determinism contract: with the ladder off, a budgeted
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
fn ooc_bf16_ladder_fixed_config_is_schedule_independent() {
    // With a 16-bit spill ladder the factor differs from in-core (storage
    // rounding is real), but for a fixed (budget, ladder) pair it is still
    // bitwise identical across serial/parallel and every worker count.
    let a = laplacian_3d(6, 6, 60, Stencil::Faces);
    let an = analysis_of(&a);
    let a32: SymCsc<f32> = an.permuted.0.cast();
    let budget = budget_for(&an.symbolic, 4, 0.4);

    let mut m0 = Machine::paper_node();
    let (f_incore, _) =
        factor_permuted(&a32, &an.symbolic, &an.perm, &mut m0, &FactorOptions::default()).unwrap();

    for ladder in [PrecisionLadder::Bf16, PrecisionLadder::F16] {
        let opts = FactorOptions { memory_budget: Some(budget), ladder, ..Default::default() };
        let mut ms = Machine::paper_node();
        let (fs, ss) = factor_permuted(&a32, &an.symbolic, &an.perm, &mut ms, &opts).unwrap();
        let reference = panel_bits(&fs);
        assert_ne!(
            reference,
            panel_bits(&f_incore),
            "{ladder:?}: a tight budget must actually degrade some spilled block"
        );
        // Traffic shrinks by exactly the storage ratio (2 B vs 4 B): the
        // eviction schedule is chosen on native sizes, so it is identical.
        assert_eq!(ss.ooc.as_ref().unwrap().elem_bytes, 4);
        for workers in [1usize, 2, 4, 8] {
            let mut machines: Vec<Machine> = (0..workers).map(|_| Machine::paper_node()).collect();
            let par = ParallelOptions { thread_budget: 4 };
            let (fp, _) =
                factor_permuted_parallel(&a32, &an.symbolic, &an.perm, &mut machines, &opts, &par)
                    .unwrap();
            assert_eq!(
                reference,
                panel_bits(&fp),
                "{ladder:?}: {workers}-worker ladder factor diverged from serial"
            );
        }
    }
}

#[test]
fn ooc_ladder_halves_spill_traffic_without_changing_the_schedule() {
    let a = laplacian_3d(6, 6, 60, Stencil::Faces);
    let an = analysis_of(&a);
    let tiers = TierParams::default();
    let budget = budget_for(&an.symbolic, 4, 0.4);
    let off = plan_ooc(&an.symbolic, 4, budget, PrecisionLadder::Off, &tiers).unwrap();
    let bf16 = plan_ooc(&an.symbolic, 4, budget, PrecisionLadder::Bf16, &tiers).unwrap();
    assert!(off.stats.traffic_bytes() > 0);
    assert_eq!(
        off.stats.traffic_bytes(),
        2 * bf16.stats.traffic_bytes(),
        "16-bit storage must exactly halve f32 spill traffic"
    );
    assert_eq!(off.stats.evictions, bf16.stats.evictions);
    assert_eq!(off.stats.loads, bf16.stats.loads);
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
fn ooc_huge_family_bounds_exceed_default_tier_budgets() {
    // Analyze-only (the symbolic phase is cheap even at out-of-core size):
    // at quarter scale the huge families already outgrow device + pinned
    // host, which is what forces the disk tier into play at full scale.
    let tiers = TierParams::default();
    for huge in HugeMatrix::ALL {
        let a = huge.generate_scaled(0.25);
        let an = analysis_of(&a);
        let bound = in_core_bytes(&an.symbolic, 4);
        assert!(
            bound > DEFAULT_DEVICE_BUDGET + tiers.host_capacity,
            "{}: f32 bound {bound} must exceed device+host default budgets",
            huge.name()
        );
        assert!(huge.full_order() >= 1_000_000, "{} is not huge-N", huge.name());
    }
}

#[test]
fn ooc_huge_family_factors_under_budget_at_test_scale() {
    // Numeric check at a scale debug builds can afford: the sgi_4M family,
    // shrunk, still factors bitwise-identically to in-core at 60% and 30%
    // budgets.
    let a = HugeMatrix::Sgi4M.generate_scaled(0.12);
    let an = analysis_of(&a);
    let a32: SymCsc<f32> = an.permuted.0.cast();
    let mut m0 = Machine::paper_node();
    let (f0, _) =
        factor_permuted(&a32, &an.symbolic, &an.perm, &mut m0, &FactorOptions::default()).unwrap();
    let reference = panel_bits(&f0);
    for frac in [0.6f64, 0.3] {
        let budget = budget_for(&an.symbolic, 4, frac);
        let opts = FactorOptions { memory_budget: Some(budget), ..Default::default() };
        let mut machine = Machine::paper_node();
        let (f, stats) =
            factor_permuted(&a32, &an.symbolic, &an.perm, &mut machine, &opts).unwrap();
        assert_eq!(reference, panel_bits(&f), "sgi_4M at {frac} of the bound diverged");
        let ooc = stats.ooc.unwrap();
        assert!(ooc.resident_peak_bytes <= budget);
        assert!(ooc.traffic_bytes() > 0);
    }
}

#[test]
fn ooc_budgeted_solver_refines_to_f64_accuracy() {
    // End-to-end: f32 factor under a 40% budget with bf16 spill storage;
    // f64 iterative refinement must still absorb both the compute and the
    // storage error.
    use gpu_multifrontal::matgen::rhs_for_solution;
    let a = laplacian_3d(6, 6, 30, Stencil::Faces);
    let an = analysis_of(&a);
    let budget = budget_for(&an.symbolic, 4, 0.4);
    let opts = SolverOptions {
        ordering: OrderingKind::NestedDissection,
        amalgamation: Some(AmalgamationOptions::default()),
        factor: FactorOptions {
            memory_budget: Some(budget),
            ladder: PrecisionLadder::Bf16,
            ..Default::default()
        },
        precision: Precision::F32,
        analysis_workers: 0,
    };
    let mut machine = Machine::paper_node();
    let s = SpdSolver::new(&a, &mut machine, &opts).unwrap();
    let (_, b) = rhs_for_solution(&a, 13);
    let refined = s.solve_refined(&b, 8, 1e-13).unwrap();
    assert!(
        refined.converged,
        "refinement must converge through bf16 spill storage: {:?}",
        refined.residual_history
    );
}

// ───────────────────────── simulated-clock golden figures ──────────────────
// (The `sim_clock` and `driver_errors` prefixes are load-bearing: ci.sh runs
// these suites by name.)

use gpu_multifrontal::core::{FactorStats, MultiGpuOptions, PipelineOptions};

/// How a GPU run is issued: the drain schedule, the pipelined driver, the
/// multi-GPU driver at `n` devices from one host, or the parallel entry at
/// `workers` machines, pipelined on `n` devices.
#[derive(Debug, Clone, Copy)]
enum Issuer {
    Drain,
    Pipelined,
    Devices(usize),
    Workers(usize, usize),
}

impl Issuer {
    fn opts(self, selector: PolicySelector) -> FactorOptions {
        let (pipeline, devices) = match self {
            Issuer::Drain => (PipelineOptions::default(), MultiGpuOptions::default()),
            Issuer::Pipelined => (PipelineOptions::pipelined(), MultiGpuOptions::default()),
            Issuer::Devices(n) | Issuer::Workers(_, n) => {
                (PipelineOptions::pipelined(), MultiGpuOptions::devices(n))
            }
        };
        FactorOptions { selector, pipeline, devices, ..Default::default() }
    }

    /// Factor on `machines` (all of them for [`Issuer::Workers`], the first
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
            Issuer::Workers(..) => factor_permuted_parallel(
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
        let n = if let Issuer::Workers(w, _) = self { w } else { 1 };
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

/// The issuers whose simulated clock is a function of the input alone: one
/// host timeline. Work-stealing runs at two or more workers are not.
const CLOCK_ISSUERS: [Issuer; 4] =
    [Issuer::Drain, Issuer::Pipelined, Issuer::Devices(2), Issuer::Devices(4)];

/// [`fnv1a`] of [`clock_words`] over [`clock_selectors`], per issuer.
fn clock_hashes(a: &SymCsc<f32>, an: &Analysis, make: impl Fn() -> Machine) -> [u64; 4] {
    CLOCK_ISSUERS.map(|issuer| {
        let words: Vec<u64> = clock_selectors()
            .into_iter()
            .flat_map(|sel| {
                let mut machines = issuer.machines(&make);
                let (_, stats) = issuer.factor(a, an, &mut machines, sel).unwrap();
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
/// large front takes the drain-then-retry OOM path). Recorded at commit
/// e92d7ea, the last one with a pipelined front lifecycle per driver.
const GOLDEN_CLOCK: [(&str, [u64; 4]); 8] = [
    (
        "plate60",
        [
            0x6592_a086_2032_046c,
            0xbec6_5c3a_1800_89d2,
            0x73c0_56a2_e1df_d057,
            0x56d5_62ce_9589_a81c,
        ],
    ),
    (
        "cube10",
        [
            0x57a7_37ee_bfe6_fc5f,
            0x09ca_4173_c116_e33f,
            0x85ad_0e6f_4ef0_e1ee,
            0xfb4e_0cdf_1ef0_03cf,
        ],
    ),
    (
        "elasticity6",
        [
            0xf380_92f4_5cde_202a,
            0x2e70_e059_f14b_74e1,
            0x81e7_ec42_8de1_4b9d,
            0x235c_c4f5_47a3_6523,
        ],
    ),
    (
        "strip400x3",
        [
            0xf463_e95a_f0c0_ef33,
            0x4a53_0eef_eb5c_cf1a,
            0xd6d1_98c2_d1fb_d46b,
            0x441b_f364_4e8b_b83a,
        ],
    ),
    (
        "three_paths",
        [
            0xac82_390a_e09d_4c94,
            0xfe98_0afa_3ed3_21a0,
            0xf782_8104_85a5_ceba,
            0xb895_4005_de19_cdfe,
        ],
    ),
    (
        "star150",
        [
            0x1764_7392_002a_2ac0,
            0x54f1_371d_7c43_0088,
            0x4579_1f01_3865_f2ff,
            0xef04_d18c_210d_6433,
        ],
    ),
    (
        "clique100_tail30",
        [
            0x1398_03ea_3363_2934,
            0x1398_03ea_3363_2934,
            0x7afc_06ea_8730_f228,
            0x89c9_eb67_cd3e_0428,
        ],
    ),
    (
        "lap3d-6x6x5-oom",
        [
            0xc310_643e_563d_41dc,
            0x53d8_c864_6567_b789,
            0x8897_eff4_fb6e_d6ae,
            0x10b4_0bab_a219_5f8c,
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
    // they came.
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
/// plus its `total_time` and `oom_fallbacks`: the serial entry, then the
/// parallel entry on one machine. `t_assemble` is left out on purpose: which
/// front a host memop is booked to is bookkeeping, not the clock.
fn record_hashes(a: &SymCsc<f32>, an: &Analysis, make: impl Fn() -> Machine) -> [u64; 2] {
    [false, true].map(|parallel| {
        let mut words = Vec::new();
        for selector in clock_selectors() {
            let opts = FactorOptions { selector, record_stats: true, ..Default::default() };
            let mut machines = [make()];
            let (_, stats) = if parallel {
                let par = ParallelOptions { thread_budget: 2 };
                factor_permuted_parallel(a, &an.symbolic, &an.perm, &mut machines, &opts, &par)
            } else {
                factor_permuted(a, &an.symbolic, &an.perm, &mut machines[0], &opts)
            }
            .unwrap();
            assert_eq!(stats.records.len(), an.symbolic.num_supernodes());
            // Every word of a record but its last, `t_assemble`.
            words.extend(record_words(&stats).chunks(8).flat_map(|r| r[..7].to_vec()));
            words.extend([stats.total_time.to_bits(), stats.oom_fallbacks as u64]);
        }
        fnv1a(words.into_iter())
    })
}

/// `(name, [serial, one-worker parallel])` over the rows of [`GOLDEN_CLOCK`].
/// Recorded at commit 8dffe96, the last one whose drain runs sequenced a
/// front's phases outside `mf-core`'s lane.
const GOLDEN_RECORDS: [(&str, [u64; 2]); 8] = [
    ("plate60", [0xc3b8_227e_f0a8_6be4, 0x3db4_52e5_3749_33a9]),
    ("cube10", [0x1825_2408_6eaa_af84, 0xefa5_3145_ce05_9e48]),
    ("elasticity6", [0x65e9_a4cf_c666_17fb, 0x18fb_46b5_f941_8691]),
    ("strip400x3", [0x46c1_a88b_65f9_9a7e, 0xe973_453e_e65d_896e]),
    ("three_paths", [0x07ae_ad58_a68c_69be, 0x35c0_3fdd_b8f3_1d20]),
    ("star150", [0xc813_3089_75a1_500e, 0x6df2_a928_cad7_d36e]),
    ("clique100_tail30", [0xeeb3_158c_319f_b067, 0xeeb3_158c_319f_b067]),
    ("lap3d-6x6x5-oom", [0x141c_93a9_55dd_a615, 0x2193_2fdc_02d1_e778]),
];

#[test]
fn sim_clock_records_match_golden() {
    let mut actual: Vec<(&str, [u64; 2])> = golden_families()
        .iter()
        .map(|(name, a)| {
            let an = analysis_of(a);
            (*name, record_hashes(&an.permuted.0.cast(), &an, Machine::paper_node))
        })
        .collect();
    let an = analysis_of(&laplacian_3d(6, 6, 5, Stencil::Faces));
    actual.push(("lap3d-6x6x5-oom", record_hashes(&an.permuted.0.cast(), &an, small_device_node)));
    assert_eq!(actual, GOLDEN_RECORDS, "actual:\n{actual:#x?}");
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
                let work_stealing = matches!(issuer, Issuer::Workers(w, 1) if *w > 1);
                assert_eq!(panel_bits(&f), want.0, "{issuer:?} {selector:?}: bits after errors");
                assert_eq!(s.oom_fallbacks, want.1, "{issuer:?} {selector:?}: fallbacks");
                if !work_stealing {
                    assert_eq!(s.total_time.to_bits(), want.2, "{issuer:?} {selector:?}: clock");
                }
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

#[test]
fn driver_errors_leave_recording_machines_clean() {
    // A pivot failure anywhere in the tree of a *recorded* serial run: the
    // machine comes back not recording and with no kernel record queued, so
    // a long-lived clock does not collect records nobody drains and the next
    // recorded run books none of the failed front's into its first front.
    let an = analysis_of(&laplacian_3d(7, 6, 6, Stencil::Faces));
    let good: SymCsc<f32> = an.permuted.0.cast();
    for selector in clock_selectors() {
        let opts = FactorOptions { selector, record_stats: true, ..Default::default() };
        let recorded = |a: &SymCsc<f32>, machine: &mut Machine| {
            factor_permuted(a, &an.symbolic, &an.perm, machine, &opts)
        };
        let fresh = record_words(&recorded(&good, &mut Machine::paper_node()).unwrap().1);
        for info in an.symbolic.supernodes.iter() {
            let what = format!("{:?} column {}", opts.selector, info.col_start);
            let bad = with_negative_pivot(&good, info.col_start);

            let mut probed = Machine::paper_node();
            recorded(&bad, &mut probed).unwrap_err();
            assert!(probed.take_records().is_empty(), "{what}: records left queued");
            probed.host.charge_memop(64, 1.0e9);
            assert!(probed.take_records().is_empty(), "{what}: machine left recording");

            // The next recorded run on the same clock, against one on a
            // machine cleaned by hand after the same failure...
            let mut cleaned = Machine::paper_node();
            recorded(&bad, &mut cleaned).unwrap_err();
            cleaned.set_recording(false);
            cleaned.take_records();
            let want = record_words(&recorded(&good, &mut cleaned).unwrap().1);
            let mut reused = Machine::paper_node();
            recorded(&bad, &mut reused).unwrap_err();
            let (_, stats) = recorded(&good, &mut reused).unwrap();
            assert_eq!(record_words(&stats), want, "{what}: records after the error");
            // ...and, the clocks zeroed, against a fresh machine.
            reused.reset();
            let (_, stats) = recorded(&good, &mut reused).unwrap();
            assert_eq!(record_words(&stats), fresh, "{what}: records on the reset machine");

            // The parallel issuer hands every worker machine back the same
            // way, after the failure and after the success that follows it.
            for workers in [1usize, 2] {
                let mut machines: Vec<Machine> =
                    (0..workers).map(|_| Machine::paper_node()).collect();
                for (a, ok) in [(&bad, false), (&good, true)] {
                    let ran = factor_permuted_parallel(
                        a,
                        &an.symbolic,
                        &an.perm,
                        &mut machines,
                        &opts,
                        &ParallelOptions { thread_budget: 2 },
                    );
                    assert_eq!(ran.is_ok(), ok, "{what}");
                    for (w, machine) in machines.iter_mut().enumerate() {
                        let what = format!("{what}, worker {w} of {workers}, ok {ok}");
                        assert!(machine.take_records().is_empty(), "{what}: records left queued");
                        machine.host.charge_memop(64, 1.0e9);
                        assert!(machine.take_records().is_empty(), "{what}: left recording");
                    }
                }
            }
        }
    }
}
