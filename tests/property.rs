//! Property-based tests (proptest) over the core invariants:
//! random sparse SPD systems must factor and solve correctly under any
//! policy/ordering combination; dense kernels must match their references
//! on arbitrary shapes; permutations must compose lawfully.

use gpu_multifrontal::core::{FactorOptions, PolicySelector};
use gpu_multifrontal::dense::{
    gemm, gemm_ref, potrf, syrk_lower, syrk_ref, trsm_right_lower_trans, DenseMat, Transpose,
};
use gpu_multifrontal::matgen::random_spd_sparse;
use gpu_multifrontal::prelude::*;
use gpu_multifrontal::sparse::{AmalgamationOptions, Permutation};
use proptest::prelude::*;

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::P1),
        Just(PolicyKind::P2),
        Just(PolicyKind::P3),
        Just(PolicyKind::P4),
    ]
}

fn ordering_strategy() -> impl Strategy<Value = OrderingKind> {
    prop_oneof![
        Just(OrderingKind::Natural),
        Just(OrderingKind::Rcm),
        Just(OrderingKind::MinimumDegree),
        Just(OrderingKind::NestedDissection),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random sparse SPD system solves to refinement accuracy under any
    /// (policy, ordering) pair.
    #[test]
    fn random_spd_systems_solve(
        n in 10usize..160,
        density in 2usize..10,
        seed in 0u64..1000,
        policy in policy_strategy(),
        ordering in ordering_strategy(),
    ) {
        let a = random_spd_sparse(n, density, seed);
        let mut machine = Machine::paper_node();
        let opts = SolverOptions {
            ordering,
            amalgamation: Some(AmalgamationOptions::default()),
            factor: FactorOptions { selector: PolicySelector::Fixed(policy), ..Default::default() },
            precision: Precision::F32,
            analysis_workers: 0,
        };
        let solver = SpdSolver::new(&a, &mut machine, &opts).expect("diag-dominant ⇒ SPD");
        let (xtrue, b) = gpu_multifrontal::matgen::rhs_for_solution(&a, seed ^ 0xABCD);
        let sol = solver.solve_refined(&b, 6, 1e-12).unwrap();
        let err = sol.x.iter().zip(&xtrue).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max);
        let scale = xtrue.iter().map(|v| v.abs()).fold(0.0f64, f64::max).max(1.0);
        prop_assert!(err < 1e-6 * scale, "forward error {err:.3e}");
    }

    /// Factor nnz and simulated time are invariant to which policy computes
    /// them (structure is policy-independent; time differs, structure not).
    #[test]
    fn structure_is_policy_independent(
        n in 20usize..100,
        seed in 0u64..100,
        p1 in policy_strategy(),
        p2 in policy_strategy(),
    ) {
        let a = random_spd_sparse(n, 5, seed);
        let mk = |p: PolicyKind| {
            let mut machine = Machine::paper_node();
            let opts = SolverOptions {
                ordering: OrderingKind::NestedDissection,
                amalgamation: None,
                factor: FactorOptions { selector: PolicySelector::Fixed(p), ..Default::default() },
                precision: Precision::F32,
                analysis_workers: 0,
            };
            SpdSolver::new(&a, &mut machine, &opts).unwrap().factor_nnz()
        };
        prop_assert_eq!(mk(p1), mk(p2));
    }

    /// Dense gemm matches the naive reference for arbitrary shapes and
    /// transposes.
    #[test]
    fn gemm_matches_reference(
        m in 1usize..24,
        n in 1usize..24,
        kk in 0usize..24,
        ta in any::<bool>(),
        tb in any::<bool>(),
        seed in 0u64..50,
    ) {
        let (ta, tb) = (
            if ta { Transpose::Yes } else { Transpose::No },
            if tb { Transpose::Yes } else { Transpose::No },
        );
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let (ar, ac) = if ta == Transpose::No { (m, kk) } else { (kk, m) };
        let (br, bc) = if tb == Transpose::No { (kk, n) } else { (n, kk) };
        let a = DenseMat::<f64>::from_fn(ar.max(1), ac.max(1), |_, _| rnd());
        let b = DenseMat::<f64>::from_fn(br.max(1), bc.max(1), |_, _| rnd());
        let c0 = DenseMat::<f64>::from_fn(m, n, |_, _| rnd());
        let mut c = c0.clone();
        gemm(ta, tb, m, n, kk, 1.5, a.as_slice(), ar.max(1), b.as_slice(), br.max(1), -0.5, c.as_mut_slice(), m);
        let mut cref = c0.clone();
        gemm_ref(ta, tb, m, n, kk, 1.5, &a, &b, -0.5, &mut cref);
        prop_assert!(c.max_abs_diff(&cref) < 1e-10);
    }

    /// syrk matches its reference and never touches the upper triangle.
    #[test]
    fn syrk_matches_reference(n in 1usize..32, k in 0usize..32, seed in 0u64..50) {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let a = DenseMat::<f64>::from_fn(n, k.max(1), |_, _| rnd());
        let c0 = DenseMat::<f64>::from_fn(n, n, |_, _| rnd());
        let mut c = c0.clone();
        syrk_lower(n, k, -1.0, a.as_slice(), n, 1.0, c.as_mut_slice(), n);
        let mut cref = c0.clone();
        syrk_ref(n, k, -1.0, &a, 1.0, &mut cref);
        for j in 0..n {
            for i in 0..n {
                if i >= j {
                    prop_assert!((c[(i, j)] - cref[(i, j)]).abs() < 1e-10);
                } else {
                    prop_assert_eq!(c[(i, j)], c0[(i, j)]);
                }
            }
        }
    }

    /// potrf ∘ trsm reconstructs random SPD blocks.
    #[test]
    fn potrf_trsm_roundtrip(n in 1usize..40, m in 1usize..24, seed in 0u64..50) {
        let spd = gpu_multifrontal::dense::matrix::random_spd::<f64>(n, seed);
        let mut l = spd.clone();
        potrf(n, l.as_mut_slice(), n).unwrap();
        l.zero_upper();
        let mut s = seed | 1;
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b0 = DenseMat::<f64>::from_fn(m, n, |_, _| rnd());
        let mut x = b0.clone();
        trsm_right_lower_trans(m, n, l.as_slice(), n, x.as_mut_slice(), m);
        prop_assert!(x.matmul(&l.transpose()).max_abs_diff(&b0) < 1e-7 * (n as f64));
    }

    /// The front arena's measured high-water mark never exceeds the symbolic
    /// working-storage bound, for any ordering × amalgamation combination —
    /// the guarantee that lets the numeric phase pre-allocate all front
    /// storage up front.
    #[test]
    fn arena_high_water_within_symbolic_bound(
        n in 10usize..150,
        density in 2usize..8,
        seed in 0u64..500,
        ordering in ordering_strategy(),
        amalgamate in any::<bool>(),
    ) {
        use gpu_multifrontal::core::factor_permuted;
        use gpu_multifrontal::sparse::symbolic::analyze;
        let a = random_spd_sparse(n, density, seed);
        let amal = if amalgamate { Some(AmalgamationOptions::default()) } else { None };
        let an = analyze(&a, ordering, amal.as_ref()).expect("generated SPD matrices have full diagonals");
        let mut machine = Machine::paper_node();
        let (_, stats) = factor_permuted(
            &an.permuted.0,
            &an.symbolic,
            &an.perm,
            &mut machine,
            &FactorOptions::default(),
        )
        .expect("diag-dominant ⇒ SPD");
        let bound = an.symbolic.update_stack_peak() * 8;
        prop_assert!(
            stats.peak_front_bytes <= bound,
            "arena high-water {} exceeds symbolic bound {}",
            stats.peak_front_bytes,
            bound
        );
        prop_assert!(stats.peak_front_bytes > 0);
        prop_assert_eq!(stats.front_alloc_events, 2);
    }

    /// Stream/event semantics of the GPU simulator, under arbitrary op
    /// interleavings: `wait_event` never moves a stream's clock backwards
    /// (it is a forward-only max), stream tails (read as `record_event`)
    /// never regress as work is enqueued, and an event is complete at time
    /// `t` exactly when `e.0 <= t`.
    #[test]
    fn gpusim_wait_event_is_forward_only(
        ops in prop::collection::vec((0u8..4, 0usize..3, 0usize..8, 1usize..64), 1..60),
    ) {
        use gpu_multifrontal::gpusim::{DevMat, Event, Machine};
        let mut machine = Machine::paper_node();
        let Machine { host, gpu } = &mut machine;
        let gpu = gpu.as_mut().unwrap();
        let streams = [gpu.stream(0), gpu.stream(1), gpu.stream(2)];
        let buf = gpu.alloc(4096).unwrap();
        let src = vec![1.25f32; 64];
        let mut dst = vec![0.0f32; 64];
        let mut events: Vec<Event> = Vec::new();
        for &(kind, si, ei, n) in &ops {
            let s = streams[si];
            let before = gpu.record_event(s).0;
            match kind {
                0 => gpu.h2d(s, DevMat::whole(buf, n), n, 1, &src, n, host),
                1 => gpu.d2h(s, DevMat::whole(buf, n), n, 1, &mut dst, n, host),
                2 => {
                    let e = gpu.record_event(s);
                    // An event records the stream's tail and moves nothing.
                    prop_assert_eq!(e.0.to_bits(), before.to_bits());
                    events.push(e);
                }
                _ => {
                    if !events.is_empty() {
                        let e = events[ei % events.len()];
                        gpu.wait_event(s, e);
                        let after = gpu.record_event(s).0;
                        prop_assert!(after >= before, "wait_event moved a stream backwards");
                        prop_assert!(e.0 <= after, "event complete at the waited tail");
                    }
                }
            }
            prop_assert!(gpu.record_event(s).0 >= before, "stream tails must be monotone");
        }
    }

    /// Record/wait chains are transitive: if stream B waits on an event from
    /// A and C waits on an event B recorded afterwards, C's clock covers A's
    /// original event — dependencies propagate through intermediate streams.
    #[test]
    fn gpusim_event_chains_are_transitive(
        na in 1usize..64, nb in 1usize..64, nc in 1usize..64,
    ) {
        use gpu_multifrontal::gpusim::{DevMat, Machine};
        let mut machine = Machine::paper_node();
        let Machine { host, gpu } = &mut machine;
        let gpu = gpu.as_mut().unwrap();
        let (a, b, c) = (gpu.stream(0), gpu.stream(1), gpu.stream(2));
        let buf = gpu.alloc(64).unwrap();
        let src = vec![0.5f32; 64];
        let mut dst = vec![0.0f32; 64];
        gpu.h2d(a, DevMat::whole(buf, na), na, 1, &src, na, host);
        let e1 = gpu.record_event(a);
        gpu.wait_event(b, e1);
        gpu.h2d(b, DevMat::whole(buf, nb), nb, 1, &src, nb, host);
        let e2 = gpu.record_event(b);
        gpu.wait_event(c, e2);
        gpu.d2h(c, DevMat::whole(buf, nc), nc, 1, &mut dst, nc, host);
        prop_assert!(e2.0 >= e1.0, "downstream event must cover its dependency");
        prop_assert!(gpu.record_event(c).0 >= e1.0, "transitive dependency must reach stream C");
        // Host-side wait on the final d2h completes every upstream event.
        let done = gpu.record_event(c);
        gpu.wait_event_host(done, host);
        prop_assert!(e1.0 <= host.now());
        prop_assert!(e2.0 <= host.now());
        prop_assert!(done.0 <= host.now());
    }

    /// A d2h that waits (via an event) on an h2d observes exactly the bytes
    /// the upload wrote, for arbitrary payloads and cross-stream hand-offs.
    #[test]
    fn gpusim_d2h_after_h2d_roundtrips_data(
        vals in prop::collection::vec(-1e6f32..1e6, 1..128),
        cross_stream in any::<bool>(),
    ) {
        use gpu_multifrontal::gpusim::{DevMat, Machine};
        let mut machine = Machine::paper_node();
        let Machine { host, gpu } = &mut machine;
        let gpu = gpu.as_mut().unwrap();
        let up = gpu.stream(0);
        let down = if cross_stream { gpu.stream(1) } else { up };
        let n = vals.len();
        let buf = gpu.alloc(n).unwrap();
        gpu.h2d(up, DevMat::whole(buf, n), n, 1, &vals, n, host);
        let uploaded = gpu.record_event(up);
        gpu.wait_event(down, uploaded);
        let mut out = vec![0.0f32; n];
        gpu.d2h(down, DevMat::whole(buf, n), n, 1, &mut out, n, host);
        let done = gpu.record_event(down);
        gpu.wait_event_host(done, host);
        for (i, (&x, &y)) in vals.iter().zip(&out).enumerate() {
            prop_assert!(x.to_bits() == y.to_bits(), "lane {i} corrupted in h2d→d2h round trip");
        }
        gpu.free(buf).unwrap();
    }

    /// Permutation composition and inversion laws.
    #[test]
    fn permutation_laws(n in 1usize..64, seed in 0u64..100) {
        let mut v: Vec<usize> = (0..n).collect();
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        for i in (1..n).rev() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            let j = (s % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        let p = Permutation::from_vec(v);
        let q = p.inverse();
        // p ∘ p⁻¹ = id in both orders.
        for i in 0..n {
            prop_assert_eq!(p.old_of(q.old_of(i)) , i);
            prop_assert_eq!(q.old_of(p.old_of(i)) , i);
        }
        let x: Vec<u32> = (0..n as u32).collect();
        prop_assert_eq!(p.unpermute_vec(&p.permute_vec(&x)), x);
    }
}

// ---------------------------------------------------------------------------
// Hostile-input properties: no structurally singular or non-finite input may
// panic the analysis, the solver constructor, or server admission — every
// path must surface the same typed error.
// ---------------------------------------------------------------------------

/// `a` with all of column `knockout`'s entries (including its diagonal)
/// removed — a structurally singular pattern no ordering can repair.
fn knock_out_diagonal(a: &SymCsc<f64>, knockout: usize) -> SymCsc<f64> {
    let mut t = Triplet::new(a.order());
    for j in 0..a.order() {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_vals(j)) {
            if i != knockout && j != knockout {
                t.push(i, j, v);
            }
        }
    }
    t.assemble()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A missing diagonal is a typed `AnalyzeError` from both analysis
    /// drivers at every worker count — never a panic, never an `Ok`.
    #[test]
    fn missing_diagonal_is_typed_end_to_end(
        n in 8usize..80,
        density in 2usize..8,
        seed in 0u64..500,
        knockout_frac in 0.0f64..1.0,
        ordering in ordering_strategy(),
    ) {
        use gpu_multifrontal::sparse::symbolic::{analyze, analyze_parallel, AnalyzeError};
        let a = random_spd_sparse(n, density, seed);
        let knockout = ((knockout_frac * n as f64) as usize).min(n - 1);
        let bad = knock_out_diagonal(&a, knockout);
        let want = AnalyzeError::MissingDiagonal { col: knockout };
        prop_assert_eq!(analyze(&bad, ordering, None).unwrap_err(), want);
        for workers in [1usize, 4] {
            prop_assert_eq!(
                analyze_parallel(&bad, ordering, None, workers).unwrap_err(),
                want
            );
        }
    }

    /// The same hostile matrix through server admission: a typed
    /// `SubmitError::Analyze`, and the server keeps serving afterwards.
    #[test]
    fn missing_diagonal_rejected_by_server_admission(
        n in 8usize..48,
        density in 2usize..6,
        seed in 0u64..200,
        workers in 0usize..5,
    ) {
        use gpu_multifrontal::server::{Server, ServerConfig, SubmitError};
        use gpu_multifrontal::sparse::symbolic::AnalyzeError;
        let a = random_spd_sparse(n, density, seed);
        let knockout = (seed as usize) % n;
        let bad = knock_out_diagonal(&a, knockout);
        let server = Server::start(ServerConfig {
            solver: SolverOptions {
                precision: Precision::F64,
                analysis_workers: workers,
                ..Default::default()
            },
            ..Default::default()
        });
        let got = server.submit("prop", &bad);
        prop_assert_eq!(
            got,
            Err(SubmitError::Analyze(AnalyzeError::MissingDiagonal { col: knockout }))
        );
        // The rejection must not poison the service.
        let sid = server.submit("prop", &a).expect("well-formed submission still admits");
        let b = vec![1.0; n];
        prop_assert!(server.solve(sid, b).is_ok());
    }

    /// Non-finite values in a Matrix Market stream are parse errors, never
    /// matrices.
    #[test]
    fn non_finite_matrix_market_is_a_parse_error(
        n in 1usize..20,
        bad_kind in 0usize..3,
        bad_pos in 0usize..20,
    ) {
        use gpu_multifrontal::sparse::io::{read_matrix_market, MmError};
        use std::io::BufReader;
        let bad_tok = ["nan", "inf", "-inf"][bad_kind];
        let bad_pos = bad_pos.min(n - 1);
        let mut text = format!(
            "%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {n}\n"
        );
        for i in 1..=n {
            if i - 1 == bad_pos {
                text.push_str(&format!("{i} {i} {bad_tok}\n"));
            } else {
                text.push_str(&format!("{i} {i} 2.0\n"));
            }
        }
        let r: Result<SymCsc<f64>, _> = read_matrix_market(BufReader::new(text.as_bytes()));
        prop_assert!(matches!(r, Err(MmError::Parse(_))), "{} must not parse", bad_tok);
    }
}

// ───────────────────────── out-of-core residency invariants ────────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A budgeted rehearsal succeeds at every feasible budget, its device
    /// residency never exceeds the budget, and a full budget spills nothing,
    /// for random structures and random budget fractions.
    #[test]
    fn ooc_residency_never_exceeds_budget(
        n in 30usize..200,
        density in 2usize..8,
        seed in 0u64..500,
        frac_pct in 5usize..101,
    ) {
        use gpu_multifrontal::core::{in_core_bytes, min_feasible_budget};
        use gpu_multifrontal::gpusim::xeon_5160_core;

        let a = random_spd_sparse(n, density, seed);
        let analysis = analyze(
            &a,
            OrderingKind::NestedDissection,
            Some(&AmalgamationOptions::default()),
        ).unwrap();
        let sym = &analysis.symbolic;
        let bound = in_core_bytes(sym, 4);
        let budget = (bound * frac_pct / 100).max(min_feasible_budget(sym, 4));
        let rehearsed = FactorOptions::memory_budget(budget)
            .rehearse::<f32>(sym, &Machine::cpu_only(xeon_5160_core()));
        prop_assert!(rehearsed.is_ok(), "budget {} failed: {:?}", budget, rehearsed.err());
        let ooc = rehearsed.unwrap().ooc.expect("a budgeted run reports its traffic");

        prop_assert!(
            ooc.resident_peak_bytes <= budget,
            "resident peak {} over budget {}", ooc.resident_peak_bytes, budget
        );
        if budget >= bound {
            prop_assert!(ooc.traffic_bytes() == 0, "a full budget must not spill");
        }
    }
}

// ---------------------------------------------------------------------------
// Ordering properties on hostile graph shapes: isolated vertices, several
// components, dense blocks. Nested dissection walks compact subgraphs that
// are relabelled at every level, so the properties pin what relabelling must
// not change.
// ---------------------------------------------------------------------------

use gpu_multifrontal::sparse::csc::Adjacency;
use gpu_multifrontal::sparse::ordering::{
    minimum_degree, nested_dissection, nested_dissection_parallel, NdOptions,
};

/// `rand(m)`: the next xorshift draw in `0..m`.
fn xorshift(seed: u64) -> impl FnMut(usize) -> usize {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move |m| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % m as u64) as usize
    }
}

/// A random symmetric pattern on `n` vertices: the vertices are dealt into
/// `groups` groups with edges only inside a group (so at least that many
/// components), about one vertex in eight is left isolated, and each group
/// may carry a clique of up to 14 vertices.
fn random_pattern(n: usize, groups: usize, density: usize, seed: u64) -> SymCsc<f64> {
    let mut rand = xorshift(seed);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); groups];
    for v in 0..n {
        if rand(8) != 0 {
            members[rand(groups)].push(v);
        }
    }
    let mut t = Triplet::new(n);
    for v in 0..n {
        t.push(v, v, n as f64);
    }
    for group in members.iter().filter(|g| g.len() > 1) {
        for _ in 0..group.len() * density / 2 {
            let (i, j) = (group[rand(group.len())], group[rand(group.len())]);
            if i != j {
                t.push(i, j, -0.25);
            }
        }
        if rand(2) == 0 {
            let block = &group[..group.len().min(2 + rand(13))];
            for (k, &i) in block.iter().enumerate() {
                for &j in &block[..k] {
                    t.push(i, j, -0.25);
                }
            }
        }
    }
    t.assemble()
}

fn is_permutation_of(p: &Permutation, n: usize) -> bool {
    let mut seen = vec![false; n];
    p.len() == n && p.as_slice().iter().all(|&v| v < n && !std::mem::replace(&mut seen[v], true))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ND and MD number every vertex exactly once, and the parallel driver
    /// reproduces the serial order at every worker count and leaf size.
    #[test]
    fn ordering_valid_and_parallel_equals_serial(
        n in 1usize..260,
        groups in 1usize..5,
        density in 1usize..9,
        leaf_size in 1usize..80,
        seed in 0u64..10_000,
    ) {
        let g = random_pattern(n, groups, density, seed).to_adjacency();
        prop_assert!(is_permutation_of(&minimum_degree(&g), n));
        let opts = NdOptions { leaf_size };
        let serial = nested_dissection(&g, &opts);
        prop_assert!(is_permutation_of(&serial, n));
        for workers in [1usize, 2, 4] {
            let par = nested_dissection_parallel(&g, &opts, workers);
            prop_assert!(par == serial, "workers = {workers}");
        }
    }

    /// Minimum degree on a leaf relabelled the way nested dissection does it
    /// — vertices renumbered by position, neighbour lists left in the
    /// parent's order, so no longer sorted — equals minimum degree on the
    /// same graph built directly with sorted lists.
    #[test]
    fn ordering_md_on_relabelled_leaf_equals_direct(
        n in 2usize..120,
        groups in 1usize..4,
        density in 1usize..9,
        keep_pct in 30usize..101,
        seed in 0u64..10_000,
    ) {
        let parent = random_pattern(n, groups, density, seed).to_adjacency();
        // The leaf: a shuffled subset of the parent's vertices.
        let mut rand = xorshift(seed ^ 0xA5A5_5A5A_1234_5678);
        let mut vs: Vec<usize> = (0..n).filter(|_| rand(100) < keep_pct).collect();
        for i in (1..vs.len()).rev() {
            vs.swap(i, rand(i + 1));
        }
        let mut local = vec![usize::MAX; n];
        for (li, &v) in vs.iter().enumerate() {
            local[v] = li;
        }
        let mut relabelled = Adjacency { xadj: vec![0], adj: Vec::new() };
        let mut direct = Triplet::new(vs.len());
        for (li, &v) in vs.iter().enumerate() {
            direct.push(li, li, 1.0);
            for &w in parent.neighbors(v) {
                if local[w] != usize::MAX {
                    relabelled.adj.push(local[w]);
                    direct.push(li, local[w], 1.0);
                }
            }
            relabelled.xadj.push(relabelled.adj.len());
        }
        let direct = direct.assemble().to_adjacency();
        prop_assert_eq!(relabelled.len(), direct.len());
        prop_assert_eq!(minimum_degree(&relabelled), minimum_degree(&direct));
    }
}

// ---------------------------------------------------------------------------
// Postordered orderings: `order` composes every ordering with the postorder
// of the elimination tree it induces. (The `postorder_` prefix is
// load-bearing: ci.sh runs this suite by name.)
// ---------------------------------------------------------------------------

use gpu_multifrontal::sparse::ordering::reverse_cuthill_mckee;

/// The ordering `kind` before it is postordered.
fn raw_order(g: &Adjacency, kind: OrderingKind) -> Permutation {
    match kind {
        OrderingKind::Natural => Permutation::identity(g.len()),
        OrderingKind::Rcm => reverse_cuthill_mckee(g),
        OrderingKind::MinimumDegree => minimum_degree(g),
        OrderingKind::NestedDissection => nested_dissection(g, &NdOptions::default()),
    }
}

/// Σ column counts of `L` under `perm`.
fn fill_under(a: &SymCsc<f64>, perm: &Permutation) -> usize {
    let pa = perm.permute_sym(a);
    column_counts(&pa, &elimination_tree(&pa)).iter().sum()
}

/// Under every ordering kind the supernodes follow their own postorder,
/// fundamental and amalgamated, and the fill is the raw ordering's.
fn assert_postordered(a: &SymCsc<f64>) -> Result<(), TestCaseError> {
    let g = a.to_adjacency();
    for kind in [
        OrderingKind::Natural,
        OrderingKind::Rcm,
        OrderingKind::MinimumDegree,
        OrderingKind::NestedDissection,
    ] {
        let fund = analyze(a, kind, None).unwrap();
        let fill = fill_under(a, &fund.perm);
        prop_assert!(fund.symbolic.postorder.iter().enumerate().all(|(r, &s)| r == s), "{kind:?}");
        prop_assert!(fill == fill_under(a, &raw_order(&g, kind)), "{kind:?}");
        prop_assert!(fund.symbolic.factor_nnz() == fill, "{kind:?}");
        let relaxed = analyze(a, kind, Some(&AmalgamationOptions::default())).unwrap();
        prop_assert!(
            relaxed.symbolic.postorder.iter().enumerate().all(|(r, &s)| r == s),
            "{kind:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random patterns: several components, isolated vertices, cliques.
    fn postorder_random_patterns(
        n in 1usize..260,
        groups in 1usize..5,
        density in 1usize..9,
        seed in 0u64..10_000,
    ) {
        assert_postordered(&random_pattern(n, groups, density, seed))?;
    }
}

#[test]
fn postorder_is_the_identity_and_keeps_the_fill() {
    postorder_random_patterns();
    for a in [
        laplacian_2d(23, 17, Stencil::Full),
        laplacian_2d(40, 3, Stencil::Faces),
        laplacian_3d(9, 8, 7, Stencil::Faces),
        elasticity_3d(4, 3, 3),
    ] {
        assert_postordered(&a).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Ordering quality: nested dissection must cut meshes where a geometric
// dissection would — in balance, with separators about a mesh plane wide —
// and stay valid where there is no mesh at all. (The `ordering_quality`
// prefix is load-bearing: ci.sh runs this suite by name.)
// ---------------------------------------------------------------------------

use gpu_multifrontal::matgen::{elasticity_3d, laplacian_3d};

/// Geometric nested dissection of an `nx × ny × nz` grid with `dof` unknowns
/// per node (node `(x, y, z)` ↦ `(z·ny + y)·nx + x`): cut the longest axis by
/// its middle plane, order the halves first and the plane last; boxes at
/// most two nodes long everywhere are left in natural order.
fn geometric_nd(dims: [usize; 3], dof: usize) -> Permutation {
    fn dissect(lo: [usize; 3], hi: [usize; 3], dims: [usize; 3], dof: usize, out: &mut Vec<usize>) {
        let extent = |i: usize| hi[i] - lo[i];
        let axis = (0..3).rev().max_by_key(|&i| extent(i)).unwrap();
        if extent(axis) <= 2 {
            for z in lo[2]..hi[2] {
                for y in lo[1]..hi[1] {
                    for x in lo[0]..hi[0] {
                        let node = (z * dims[1] + y) * dims[0] + x;
                        out.extend((0..dof).map(|d| dof * node + d));
                    }
                }
            }
            return;
        }
        let mid = lo[axis] + extent(axis) / 2;
        let cut = |lo_at: usize, hi_at: usize| {
            let (mut l, mut h) = (lo, hi);
            (l[axis], h[axis]) = (lo_at, hi_at);
            (l, h)
        };
        for (l, h) in [cut(lo[axis], mid), cut(mid + 1, hi[axis]), cut(mid, mid + 1)] {
            dissect(l, h, dims, dof, out);
        }
    }
    let mut order = Vec::with_capacity(dims.iter().product::<usize>() * dof);
    dissect([0; 3], dims, dims, dof, &mut order);
    Permutation::from_vec(order)
}

/// Flops to factor `a` under `perm`, supernodes amalgamated as by default.
fn flops_under(a: &SymCsc<f64>, perm: &Permutation) -> f64 {
    let pa = perm.permute_sym(a);
    let (etree, part) = supernodes_of(&pa, true);
    symbolic_factor(&pa, &etree, &part).total_flops()
}

/// The top-level split of the order `perm` of the connected graph `g`, as
/// `(|S|, size of the largest part)`: the shortest tail of the order whose
/// removal disconnects the rest, and what it leaves.
fn top_level_split(g: &Adjacency, perm: &Permutation) -> (usize, usize) {
    let n = g.len();
    for tail in 1..n {
        let mut reached = vec![false; n];
        for new in n - tail..n {
            reached[perm.old_of(new)] = true;
        }
        let (mut parts, mut largest) = (0, 0);
        for start in 0..n {
            if std::mem::replace(&mut reached[start], true) {
                continue;
            }
            parts += 1;
            let mut count = 1;
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for &w in g.neighbors(v) {
                    if !std::mem::replace(&mut reached[w], true) {
                        count += 1;
                        stack.push(w);
                    }
                }
            }
            largest = largest.max(count);
        }
        if parts > 1 {
            return (tail, largest);
        }
    }
    panic!("no tail of the order disconnects the graph");
}

/// On 27-point cubes, 9-point plates and 3-DOF elasticity meshes the order is
/// a permutation, its top-level separator leaves at least a third of the
/// vertices on the smaller side, and factoring under it costs at most 1.5×
/// the flops of the geometric dissection of the same grid.
#[test]
fn ordering_quality_meshes_split_in_balance_near_geometric_nd() {
    let cubes = (10..=16).map(|n| (laplacian_3d(n, n, n, Stencil::Full), [n, n, n], 1));
    let plates = [(60, 60), (90, 40), (127, 127)]
        .map(|(nx, ny)| (laplacian_2d(nx, ny, Stencil::Full), [nx, ny, 1], 1));
    let solids = (6..=8).map(|n| (elasticity_3d(n, n, n), [n, n, n], 3));
    for (a, dims, dof) in cubes.chain(plates).chain(solids) {
        let tag = format!("{dims:?} × {dof}");
        let n = a.order();
        let perm = gpu_multifrontal::sparse::order(&a, OrderingKind::NestedDissection);
        assert!(is_permutation_of(&perm, n), "{tag}");
        let (sep, largest) = top_level_split(&a.to_adjacency(), &perm);
        assert!(
            3 * (n - sep - largest) >= n,
            "{tag}: |S| = {sep} leaves {largest} and {}",
            n - sep - largest
        );
        let (ours, geometric) = (flops_under(&a, &perm), flops_under(&a, &geometric_nd(dims, dof)));
        assert!(ours <= 1.5 * geometric, "{tag}: {ours:.3e} flops vs geometric {geometric:.3e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random sparse SPD patterns large and dense enough to send parts
    /// through the multilevel separator: the order is a permutation and the
    /// parallel driver reproduces it. (That the multilevel candidate does
    /// not cost fill against level sets alone on such graphs is checked
    /// beside the switch, in `ordering::nd`'s unit tests.)
    #[test]
    fn ordering_quality_random_patterns_stay_valid(
        n in 300usize..1500,
        density in 3usize..9,
        seed in 0u64..10_000,
    ) {
        let g = random_spd_sparse(n, density, seed).to_adjacency();
        let serial = nested_dissection(&g, &NdOptions::default());
        prop_assert!(is_permutation_of(&serial, n));
        for workers in [2usize, 4] {
            let par = nested_dissection_parallel(&g, &NdOptions::default(), workers);
            prop_assert!(par == serial, "workers = {workers}");
        }
    }
}

// ---------------------------------------------------------------------------
// The flat symbolic structure and what the numeric sweeps build on it: the
// parallel build equals the serial one array for array, bottom subtrees tile
// the bottom of the forest, and the forward sweep stays inside its symbolic
// stack bound.
// ---------------------------------------------------------------------------

use gpu_multifrontal::core::{factor_permuted, factor_permuted_parallel, ParallelOptions};
use gpu_multifrontal::matgen::{laplacian_2d, Stencil};
use gpu_multifrontal::sparse::symbolic::BOTTOM_SUBTREE_BYTES;
use gpu_multifrontal::sparse::{
    amalgamate, analyze, column_counts, elimination_tree, fundamental_supernodes, symbolic_factor,
    symbolic_factor_parallel, EliminationTree, SupernodePartition, SymbolicFactor,
};

/// Elimination tree and supernode partition of `a` as given (no
/// reordering), with or without relaxed amalgamation.
fn supernodes_of(a: &SymCsc<f64>, relaxed: bool) -> (EliminationTree, SupernodePartition) {
    let etree = elimination_tree(a);
    let cc = column_counts(a, &etree);
    let mut part = fundamental_supernodes(&etree, &cc);
    if relaxed {
        part = amalgamate(&part, &etree, &cc, &AmalgamationOptions::default());
    }
    (etree, part)
}

/// Symbolic factorization of `a` as given, serially and at 1, 2, 4 and 8
/// workers.
fn symbolic_builds(a: &SymCsc<f64>, relaxed: bool) -> (SymbolicFactor, Vec<SymbolicFactor>) {
    let (etree, part) = supernodes_of(a, relaxed);
    let serial = symbolic_factor(a, &etree, &part);
    let parallel = [1usize, 2, 4, 8].map(|w| symbolic_factor_parallel(a, &etree, &part, w));
    (serial, parallel.into())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The parallel build lays the flat arrays out exactly as the serial one.
    #[test]
    fn symbolic_flat_parallel_equals_serial(
        n in 1usize..260,
        groups in 1usize..5,
        density in 1usize..9,
        relaxed in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        let a = random_pattern(n, groups, density, seed);
        let (serial, parallel) = symbolic_builds(&a, relaxed);
        for (par, workers) in parallel.iter().zip([1usize, 2, 4, 8]) {
            prop_assert!(!par.shares_structure_with(&serial));
            prop_assert!(*par == serial, "workers = {workers}");
        }
    }

    /// Bottom subtrees are disjoint runs of the postorder, each a whole
    /// subtree of eligible fronts within the constant, none extendable to
    /// its parent; everything else is the top, which no subtree sits above.
    /// A large `elem_bytes` shrinks the budget in scalars, so small random
    /// trees split the way large ones do at 8 bytes.
    #[test]
    fn bottom_subtrees_tile_the_bottom_of_the_forest(
        n in 1usize..260,
        groups in 1usize..5,
        density in 1usize..9,
        relaxed in any::<bool>(),
        elem_shift in 3usize..14,
        barred_pct in 0usize..30,
        seed in 0u64..10_000,
    ) {
        let a = random_pattern(n, groups, density, seed);
        let sym = symbolic_builds(&a, relaxed).0;
        let nsn = sym.num_supernodes();
        let elem_bytes = 1usize << elem_shift;
        let budget = BOTTOM_SUBTREE_BYTES / elem_bytes;
        let mut rand = xorshift(seed ^ 0x0BAD_5EED);
        let eligible: Vec<bool> = (0..nsn).map(|_| rand(100) >= barred_pct).collect();
        let ranges = sym.bottom_subtrees(elem_bytes, |sn| eligible[sn]);

        // Independent oracle: subtree sizes, panel sums, eligibility and the
        // front-stack peak (an s × s front above its live child updates,
        // then beside its own update) by accumulation up the parent array
        // (ids ascend towards the roots; children in ascending id order).
        let mut peaks = vec![0usize; nsn];
        let mut below = vec![0usize; nsn];
        for sn in 0..nsn {
            let info = &sym.supernodes[sn];
            let (front, m2) = (info.front_size().pow(2), info.m().pow(2));
            peaks[sn] = peaks[sn].max(front + below[sn].max(m2));
            let p = info.parent;
            if p != usize::MAX {
                peaks[p] = peaks[p].max(below[p] + peaks[sn]);
                below[p] += m2;
            }
        }
        let mut size = vec![1usize; nsn];
        let mut panels: Vec<usize> = sym.panel_ptr().windows(2).map(|w| w[1] - w[0]).collect();
        let mut clean = eligible.clone();
        for sn in 0..nsn {
            let p = sym.supernodes[sn].parent;
            if p != usize::MAX {
                prop_assert!(p > sn);
                size[p] += size[sn];
                panels[p] += panels[sn];
                clean[p] &= clean[sn];
            }
        }
        let fits = |sn: usize| clean[sn] && panels[sn] + peaks[sn] <= budget;

        let mut owner = vec![usize::MAX; nsn];
        let mut end = 0;
        for (i, r) in ranges.iter().enumerate() {
            prop_assert!(r.start >= end && r.start < r.end && r.end <= nsn, "ranges ascend");
            end = r.end;
            let root = sym.postorder[r.end - 1];
            prop_assert!(r.len() == size[root], "a range is one whole subtree");
            prop_assert!(fits(root), "within the constant, all fronts eligible");
            for &sn in &sym.postorder[r.clone()] {
                owner[sn] = i;
                let p = sym.supernodes[sn].parent;
                prop_assert!(sn == root || sym.postorder[r.clone()].contains(&p));
            }
            let p = sym.supernodes[root].parent;
            prop_assert!(p == usize::MAX || !fits(p), "a range is maximal");
        }
        for sn in 0..nsn {
            let p = sym.supernodes[sn].parent;
            if owner[sn] == usize::MAX {
                // The top: it has no fitting subtree to offer, and nothing
                // above it is inside a range.
                prop_assert!(!fits(sn));
                prop_assert!(p == usize::MAX || owner[p] == usize::MAX);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// On plates large enough to have a top above several bottom subtrees,
    /// the forward sweep never outgrows its symbolic stack bound (a
    /// `debug_assert` in the sweep, and a slice bound in release) and the
    /// subtree-task drivers reproduce the serial factor and solutions bit
    /// for bit at 1, 3 and 8 right-hand sides.
    #[test]
    fn subtree_tasks_and_forward_stack_match_serial(
        nx in 36usize..64,
        ny in 36usize..64,
        full in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let a = laplacian_2d(nx, ny, if full { Stencil::Full } else { Stencil::Faces });
        let an = analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
            .unwrap();
        let ranges = an.symbolic.bottom_subtrees(8, |_| true);
        let fused: usize = ranges.iter().map(|r| r.len()).sum();
        prop_assert!(ranges.len() > 1 && fused < an.symbolic.num_supernodes());

        let opts = FactorOptions::default();
        let mut machine = Machine::paper_node();
        let (f, _) =
            factor_permuted(&an.permuted.0, &an.symbolic, &an.perm, &mut machine, &opts).unwrap();
        let mut machines = vec![Machine::paper_node(), Machine::paper_node()];
        let par = ParallelOptions { thread_budget: 2 };
        let (fp, stats) = factor_permuted_parallel(
            &an.permuted.0, &an.symbolic, &an.perm, &mut machines, &opts, &par,
        )
        .unwrap();
        prop_assert!(f.slab.iter().zip(&fp.slab).all(|(p, q)| p.to_bits() == q.to_bits()));
        // One hand-off per task, not per front.
        prop_assert!((stats.front_alloc_events as usize) < an.symbolic.num_supernodes() / 2);

        let n = a.order();
        let mut rand = xorshift(seed);
        for nrhs in [1usize, 3, 8] {
            let b: Vec<f64> = (0..n * nrhs).map(|_| rand(2001) as f64 / 1000.0 - 1.0).collect();
            let x = f.solve_many(&b, nrhs);
            for workers in [1usize, 2, 4] {
                let xp = fp.solve_many_parallel(&b, nrhs, workers);
                prop_assert!(
                    x.iter().zip(&xp).all(|(p, q)| p.to_bits() == q.to_bits()),
                    "nrhs = {nrhs}, workers = {workers}"
                );
            }
        }
    }
}
