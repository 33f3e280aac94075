//! Integration tests for the multi-tenant solver service.
//!
//! The headline test is `concurrent_multi_tenant_bitwise_identical`: N
//! threads submit a mix of fresh-pattern, same-pattern, and refactor
//! traffic, and every response must be bitwise identical to the serial
//! single-request answer computed on a standalone solver — batching,
//! analysis caching, and width arbitration may change scheduling, never
//! answers. The remaining tests pin the admission-control contract:
//! typed overload / budget / invalid rejections, LRU eviction, and
//! session-close semantics.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mf_core::{Precision, SolveError, SolverOptions, SpdSolver};
use mf_gpusim::Machine;
use mf_matgen::{elasticity_3d, laplacian_2d, laplacian_3d, random_spd_sparse, Stencil};
use mf_server::{ServeError, Server, ServerConfig, SubmitError};
use mf_sparse::SymCsc;

fn opts() -> SolverOptions {
    SolverOptions { precision: Precision::F64, ..Default::default() }
}

fn cfg() -> ServerConfig {
    ServerConfig { solver: opts(), validate_batches: true, ..Default::default() }
}

/// Same pattern, values scaled by `k` (> 0 preserves SPD).
fn scaled(a: &SymCsc<f64>, k: f64) -> SymCsc<f64> {
    SymCsc::from_parts(
        a.order(),
        a.colptr().to_vec(),
        a.rowind().to_vec(),
        a.values().iter().map(|v| v * k).collect(),
    )
}

/// Deterministic, finite right-hand-side block (n × nrhs, column-major).
fn rhs(n: usize, nrhs: usize, seed: u64) -> Vec<f64> {
    (0..n * nrhs)
        .map(|i| {
            let x = (i as u64 ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(seed) >> 33;
            (x as f64 / (1u64 << 31) as f64) - 0.5
        })
        .collect()
}

/// The serial single-request reference: a standalone solver with the same
/// options, one request, no batching, no cache.
fn serial_answer(a: &SymCsc<f64>, b: &[f64], nrhs: usize) -> Vec<f64> {
    let mut machine = Machine::paper_node();
    let solver = SpdSolver::new(a, &mut machine, &opts()).expect("test matrices are SPD");
    solver.solve_many(b, nrhs).expect("test requests are well-formed")
}

fn assert_bitwise(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g.to_bits() == w.to_bits(), "{what}: entry {i} differs bitwise ({g:e} vs {w:e})");
    }
}

/// Four structurally distinct base patterns — more than the cache budget
/// used by the concurrency test, so LRU eviction runs under contention.
fn patterns() -> Vec<SymCsc<f64>> {
    vec![
        laplacian_3d(5, 5, 3, Stencil::Faces),
        laplacian_2d(10, 10, Stencil::Full),
        elasticity_3d(3, 3, 2),
        random_spd_sparse(80, 6, 42),
    ]
}

#[test]
fn concurrent_multi_tenant_bitwise_identical() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    const CACHE_BUDGET: usize = 3; // < number of distinct patterns

    let base = patterns();

    // Precompute every matrix, request, and serial reference answer before
    // the server exists: (submit matrix, solve) then (refactor matrix,
    // solve) per thread per round.
    struct Round {
        m1: SymCsc<f64>,
        b1: Vec<f64>,
        nrhs1: usize,
        e1: Vec<f64>,
        m2: SymCsc<f64>,
        b2: Vec<f64>,
        nrhs2: usize,
        e2: Vec<f64>,
    }
    let mut script: Vec<Vec<Round>> = Vec::new();
    for t in 0..THREADS {
        let mut rounds = Vec::new();
        for r in 0..ROUNDS {
            let p = &base[(t + r) % base.len()];
            let n = p.order();
            let k = 1.0 + 0.25 * (t * ROUNDS + r) as f64;
            let m1 = scaled(p, k);
            let m2 = scaled(p, k + 10.0);
            let nrhs1 = 1 + (t + r) % 3;
            let nrhs2 = 1 + (t + 2 * r) % 3;
            let b1 = rhs(n, nrhs1, (t * 1009 + r) as u64);
            let b2 = rhs(n, nrhs2, (t * 2003 + r) as u64);
            let e1 = serial_answer(&m1, &b1, nrhs1);
            let e2 = serial_answer(&m2, &b2, nrhs2);
            rounds.push(Round { m1, b1, nrhs1, e1, m2, b2, nrhs2, e2 });
        }
        script.push(rounds);
    }

    let server = Arc::new(Server::start(ServerConfig {
        workers: 3,
        thread_budget: 2,
        analysis_cache_entries: CACHE_BUDGET,
        ..cfg()
    }));

    thread::scope(|s| {
        for (t, rounds) in script.iter().enumerate() {
            let server = server.clone();
            s.spawn(move || {
                let tenant = format!("tenant-{t}");
                for (r, round) in rounds.iter().enumerate() {
                    // Fresh or same-pattern submission, depending on what
                    // other threads have pushed through the cache.
                    let id = server.submit(&tenant, &round.m1).expect("submit");
                    let x1 = server
                        .solve_many(id, round.b1.clone(), round.nrhs1)
                        .expect("solve before refactor");
                    assert_bitwise(&x1, &round.e1, &format!("t{t} r{r} pre-refactor"));

                    // Same-pattern refactor, then solve against the new
                    // values — FIFO ordering makes the expected answer
                    // unambiguous.
                    server.resubmit(id, round.m2.clone()).expect("refactor");
                    let x2 = server
                        .solve_many(id, round.b2.clone(), round.nrhs2)
                        .expect("solve after refactor");
                    assert_bitwise(&x2, &round.e2, &format!("t{t} r{r} post-refactor"));

                    server.close(id);
                }
            });
        }
    });

    let stats = server.stats();
    let submissions = (THREADS * ROUNDS) as u64;
    assert_eq!(stats.submissions, submissions);
    assert_eq!(stats.analysis_hits + stats.analysis_misses, submissions);
    assert!(stats.analysis_misses >= 1, "first submission of each pattern must miss");
    assert_eq!(stats.refactors, submissions);
    assert_eq!(stats.solve_requests, 2 * submissions);
    assert!(
        stats.cache_entries_peak <= CACHE_BUDGET,
        "analysis cache exceeded its entry budget: peak {} > {}",
        stats.cache_entries_peak,
        CACHE_BUDGET
    );
    assert_eq!(stats.active_sessions, 0, "every session was closed");
    assert_eq!(stats.resident_bytes, 0, "closed sessions release their memory charge");
}

#[test]
fn same_pattern_submissions_reuse_analysis() {
    let server = Server::start(cfg());
    let a = laplacian_3d(5, 4, 3, Stencil::Faces);
    let b = scaled(&a, 3.0);
    let n = a.order();

    let ia = server.submit("alpha", &a).unwrap();
    let ib = server.submit("beta", &b).unwrap();

    let stats = server.stats();
    assert_eq!(stats.analysis_misses, 1, "first submission analyzes");
    assert_eq!(stats.analysis_hits, 1, "same-pattern submission reuses the analysis");

    // A cached analysis must not change answers: both sessions agree
    // bitwise with standalone solvers.
    let r = rhs(n, 2, 7);
    let xa = server.solve_many(ia, r.clone(), 2).unwrap();
    let xb = server.solve_many(ib, r.clone(), 2).unwrap();
    assert_bitwise(&xa, &serial_answer(&a, &r, 2), "cache-miss session");
    assert_bitwise(&xb, &serial_answer(&b, &r, 2), "cache-hit session");
}

#[test]
fn overload_rejects_excess_load_without_corrupting_sessions() {
    let server =
        Server::start(ServerConfig { workers: 1, queue_depth: 2, max_batch_rhs: 4, ..cfg() });
    let a = laplacian_3d(6, 6, 4, Stencil::Faces);
    let n = a.order();
    let id = server.submit("flood", &a).unwrap();

    let b = rhs(n, 1, 99);
    let expected = serial_answer(&a, &b, 1);

    // Offered load far above the queue bound: some requests are accepted,
    // the rest get a typed Overloaded rejection — never a panic, never a
    // wrong answer for the accepted ones.
    let mut tickets = Vec::new();
    let mut rejected = 0usize;
    for _ in 0..2000 {
        match server.solve_many_async(id, b.clone(), 1) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { queue_depth }) => {
                assert_eq!(queue_depth, 2);
                rejected += 1;
                if rejected >= 16 && !tickets.is_empty() {
                    break;
                }
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(rejected >= 1, "queue_depth=2 under a tight submission loop must reject");
    assert!(!tickets.is_empty(), "some requests must still be admitted");

    let accepted = tickets.len();
    for t in tickets {
        let (x, latency) = t.wait_with_latency();
        assert_bitwise(&x.expect("accepted requests complete"), &expected, "accepted");
        assert!(latency >= Duration::ZERO);
    }

    let stats = server.stats();
    assert_eq!(stats.rejected_overloaded, rejected as u64);
    assert_eq!(stats.solve_requests, accepted as u64);

    // The session survived the flood intact.
    let x = server.solve(id, b.clone()).unwrap();
    assert_bitwise(&x, &expected, "post-flood");
}

#[test]
fn backlog_is_solved_in_batches_unless_the_window_is_one() {
    // One worker, and in every round eight single-RHS solves queued behind
    // a refactor that keeps it busy: with a window of one column each solve
    // is its own sweep; with the default window the backlog is coalesced.
    let a = laplacian_3d(8, 8, 6, Stencil::Faces);
    let n = a.order();
    let bs: Vec<Vec<f64>> = (0..8).map(|i| rhs(n, 1, 7 + i)).collect();
    let expected: Vec<Vec<f64>> = bs.iter().map(|b| serial_answer(&a, b, 1)).collect();
    for window in [1usize, 32] {
        let server = Server::start(ServerConfig { workers: 1, max_batch_rhs: window, ..cfg() });
        let id = server.submit("backlog", &a).unwrap();
        // How much of a backlog forms is up to the scheduler; that one forms
        // within a few rounds is not.
        let mut rounds = 0u64;
        loop {
            rounds += 1;
            let refactor = server.resubmit_async(id, a.clone()).unwrap();
            let tickets: Vec<_> =
                bs.iter().map(|b| server.solve_many_async(id, b.clone(), 1).unwrap()).collect();
            refactor.wait().unwrap();
            for (t, want) in tickets.into_iter().zip(&expected) {
                assert_bitwise(&t.wait().unwrap(), want, "backlogged solve");
            }
            if window == 1 || rounds == 50 || server.stats().max_batch_rhs >= 2 {
                break;
            }
        }
        let stats = server.stats();
        assert_eq!(stats.solve_requests, 8 * rounds);
        if window == 1 {
            assert_eq!(stats.max_batch_rhs, 1, "a window of one column must disable batching");
            assert_eq!(stats.batches, stats.solve_requests);
        } else {
            assert!(stats.max_batch_rhs >= 2, "no batch formed in {rounds} backlogged rounds");
            assert!(stats.batches < stats.solve_requests);
        }
    }
}

#[test]
fn tenant_budget_evicts_idle_sessions_lru_then_rejects() {
    let a = laplacian_3d(5, 5, 3, Stencil::Faces);
    let n = a.order();

    // Meter one session's working-storage charge on a server with an
    // effectively unbounded budget.
    let per_session = {
        let server = Server::start(cfg());
        server.submit("meter", &a).unwrap();
        server.stats().resident_bytes
    };
    assert!(per_session > 0);

    // Budget fits one session but not two: the second same-tenant
    // submission must evict the idle first one rather than be rejected.
    let server =
        Server::start(ServerConfig { tenant_memory_bytes: per_session + per_session / 2, ..cfg() });
    let first = server.submit("t", &a).unwrap();
    let b = rhs(n, 1, 5);
    let expected = serial_answer(&a, &b, 1);
    assert_bitwise(&server.solve(first, b.clone()).unwrap(), &expected, "first session");

    // The first session may still be flagged in-service for an instant
    // after its blocking solve returns; eviction only claims idle
    // sessions, so retry briefly.
    let second = {
        let mut last = Err(SubmitError::ShuttingDown);
        for _ in 0..200 {
            last = server.submit("t", &scaled(&a, 2.0));
            if last.is_ok() {
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        last.expect("second submission fits after LRU eviction")
    };

    let stats = server.stats();
    assert_eq!(stats.evicted_sessions, 1, "the idle first session was evicted");
    assert_eq!(stats.active_sessions, 1);
    assert!(stats.resident_bytes <= per_session + per_session / 2);

    // The evicted session is closed; the new one answers correctly.
    assert_eq!(server.solve(first, b.clone()), Err(ServeError::SessionClosed));
    let expected2 = serial_answer(&scaled(&a, 2.0), &b, 1);
    assert_bitwise(&server.solve(second, b.clone()).unwrap(), &expected2, "second session");

    // Tenants are isolated: another tenant has its own budget.
    server.submit("u", &a).expect("other tenants are unaffected");

    // A system that cannot fit even in an empty budget gets the typed
    // rejection with the accounting attached.
    let tiny = Server::start(ServerConfig { tenant_memory_bytes: 1, ..cfg() });
    match tiny.submit("t", &a) {
        Err(SubmitError::BudgetExceeded { required, budget, resident }) => {
            assert!(required > budget);
            assert_eq!(budget, 1);
            assert_eq!(resident, 0);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert_eq!(tiny.stats().rejected_budget, 1);
}

#[test]
fn budgeted_sessions_reserve_the_cap_and_infeasible_caps_are_typed() {
    use mf_core::{min_feasible_budget, FactorError, FactorOptions};

    let a = laplacian_3d(6, 6, 6, Stencil::Faces);
    let n = a.order();

    // Meter the unbudgeted charge.
    let full_charge = {
        let server = Server::start(cfg());
        server.submit("meter", &a).unwrap();
        server.stats().resident_bytes
    };

    // A budgeted configuration: cap the numeric storage at 40% of the
    // symbolic bound (kept feasible via min_feasible_budget on a metering
    // analysis).
    let analysis = mf_sparse::analyze(&a, opts().ordering, opts().amalgamation.as_ref()).unwrap();
    let bound = (analysis.symbolic.factor_slab_len() + analysis.symbolic.update_stack_peak()) * 8;
    let budget = (bound * 2 / 5).max(min_feasible_budget(&analysis.symbolic, 8));
    let budgeted_cfg = ServerConfig {
        solver: SolverOptions {
            factor: FactorOptions { memory_budget: Some(budget), ..Default::default() },
            ..opts()
        },
        ..cfg()
    };
    let server = Server::start(budgeted_cfg.clone());
    let sess = server.submit("t", &a).unwrap();

    // The budgeted session reserves the cap, not the symbolic bound.
    let charged = server.stats().resident_bytes;
    assert!(
        charged < full_charge,
        "budgeted session must charge less than the in-core bound ({charged} vs {full_charge})"
    );
    assert_eq!(full_charge - charged, bound - budget, "the saving is exactly the trimmed bound");

    // And it still answers bitwise identically to the in-core serial
    // reference — spilling moves bytes, never bits (ladder off).
    let b = rhs(n, 2, 9);
    let expected = serial_answer(&a, &b, 2);
    assert_bitwise(&server.solve_many(sess, b, 2).unwrap(), &expected, "budgeted session");

    // An infeasible cap (smaller than the largest front's working set) is
    // rejected at admission with the typed factor error, before any bytes
    // are reserved.
    let tiny_cfg = ServerConfig {
        solver: SolverOptions {
            factor: FactorOptions { memory_budget: Some(256), ..Default::default() },
            ..opts()
        },
        ..cfg()
    };
    let tiny = Server::start(tiny_cfg);
    match tiny.submit("t", &a) {
        Err(SubmitError::Factor(FactorError::BudgetTooSmall { budget, required })) => {
            assert_eq!(budget, 256);
            assert!(required > 256);
        }
        other => panic!("expected BudgetTooSmall, got {other:?}"),
    }
    let stats = tiny.stats();
    assert_eq!(stats.rejected_budget, 1);
    assert_eq!(stats.resident_bytes, 0, "a rejected submission must not hold a reservation");
    assert_eq!(stats.active_sessions, 0);
}

#[test]
fn malformed_requests_get_typed_rejections_and_leave_sessions_intact() {
    let server = Server::start(cfg());
    let a = laplacian_2d(8, 8, Stencil::Faces);
    let n = a.order();
    let id = server.submit("v", &a).unwrap();

    // Wrong-length b.
    match server.solve(id, vec![1.0; n + 1]) {
        Err(ServeError::Invalid(SolveError::DimensionMismatch { expected, got })) => {
            assert_eq!(expected, n);
            assert_eq!(got, n + 1);
        }
        other => panic!("expected DimensionMismatch, got {other:?}"),
    }
    // Zero RHS.
    assert_eq!(server.solve_many(id, Vec::new(), 0), Err(ServeError::Invalid(SolveError::ZeroRhs)));
    // Non-finite entry, located by (column, row).
    let mut bad = vec![1.0; 2 * n];
    bad[n + 3] = f64::NAN;
    assert_eq!(
        server.solve_many(id, bad, 2),
        Err(ServeError::Invalid(SolveError::NonFinite { column: 1, row: 3 }))
    );

    let stats = server.stats();
    assert_eq!(stats.rejected_invalid, 3);
    assert_eq!(stats.solve_requests, 0, "rejected requests never consume queue slots");

    // The session still serves bitwise-correct answers.
    let b = rhs(n, 1, 11);
    assert_bitwise(&server.solve(id, b.clone()).unwrap(), &serial_answer(&a, &b, 1), "after");
}

#[test]
fn refactor_is_fifo_ordered_with_solves() {
    let server = Server::start(ServerConfig { workers: 1, ..cfg() });
    let a = elasticity_3d(3, 2, 2);
    let n = a.order();
    let a2 = scaled(&a, 5.0);
    let id = server.submit("w", &a).unwrap();

    let b = rhs(n, 2, 17);
    // Enqueue solve → refactor → solve without waiting in between: the
    // first must see the old values, the second the new ones.
    let t1 = server.solve_many_async(id, b.clone(), 2).unwrap();
    let tr = server.resubmit_async(id, a2.clone()).unwrap();
    let t2 = server.solve_many_async(id, b.clone(), 2).unwrap();

    assert_bitwise(&t1.wait().unwrap(), &serial_answer(&a, &b, 2), "pre-refactor");
    tr.wait().unwrap();
    assert_bitwise(&t2.wait().unwrap(), &serial_answer(&a2, &b, 2), "post-refactor");

    // A refactor with a different pattern is a typed error, and the
    // session keeps serving with its current values.
    let other = laplacian_2d(7, 8, Stencil::Faces);
    assert_eq!(server.resubmit(id, other), Err(SubmitError::PatternMismatch));
    assert_bitwise(
        &server.solve_many(id, b.clone(), 2).unwrap(),
        &serial_answer(&a2, &b, 2),
        "still new values",
    );
}

#[test]
fn closed_sessions_reject_and_release_memory() {
    let server = Server::start(cfg());
    let a = laplacian_3d(4, 4, 4, Stencil::Faces);
    let id = server.submit("z", &a).unwrap();
    assert!(server.stats().resident_bytes > 0);

    assert!(server.close(id));
    assert!(!server.close(id), "double close reports absence");
    assert_eq!(server.stats().resident_bytes, 0);
    assert_eq!(server.stats().active_sessions, 0);

    let n = a.order();
    assert_eq!(server.solve(id, vec![1.0; n]), Err(ServeError::SessionClosed));
    assert_eq!(server.resubmit(id, a.clone()), Err(SubmitError::SessionClosed));
}

#[test]
fn non_spd_submission_is_a_typed_factor_error_and_releases_reservation() {
    let server = Server::start(cfg());
    let a = laplacian_2d(6, 6, Stencil::Faces);
    // Flip the sign: -A is negative definite, so factorization must fail.
    let bad = scaled(&a, -1.0);
    match server.submit("neg", &bad) {
        Err(SubmitError::Factor(_)) => {}
        other => panic!("expected Factor error, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.active_sessions, 0);
    assert_eq!(stats.resident_bytes, 0, "failed factorization releases its reservation");

    // The tenant is not poisoned: a good submission still works.
    server.submit("neg", &a).expect("SPD submission after a failed one");
}

#[test]
fn missing_diagonal_is_rejected_at_admission_and_server_survives() {
    use mf_sparse::{AnalyzeError, Triplet};
    // Hostile structural input: column 1 carries off-diagonal entries but no
    // pivot. Admission must reject it with a typed error — serially and
    // through the parallel analysis path — not unwind the caller's thread.
    let mut t = Triplet::new(4);
    t.push(0, 0, 4.0);
    t.push(2, 2, 4.0);
    t.push(3, 3, 4.0);
    t.push(3, 1, -1.0);
    let hostile = t.assemble();
    for workers in [0, 4] {
        let server = Server::start(ServerConfig {
            solver: SolverOptions { analysis_workers: workers, ..opts() },
            ..cfg()
        });
        match server.submit("hostile", &hostile) {
            Err(SubmitError::Analyze(AnalyzeError::MissingDiagonal { col })) => {
                // The check runs on the caller's matrix, before any
                // permutation, so the reported column is the original one.
                assert_eq!(col, 1);
            }
            other => panic!("expected Analyze rejection, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.active_sessions, 0);
        assert_eq!(stats.resident_bytes, 0, "rejected submission charges nothing");
        // The server is not poisoned: a well-formed system still round-trips.
        let a = laplacian_2d(6, 5, Stencil::Faces);
        let sid = server.submit("hostile", &a).expect("good submission after rejection");
        let b = rhs(a.order(), 1, 7);
        let x = server.solve(sid, b.clone()).expect("solve after rejection");
        assert_bitwise(&x, &serial_answer(&a, &b, 1), "post-rejection solve");
    }
}

#[test]
fn parallel_analysis_answers_match_serial_configuration_bitwise() {
    let a = laplacian_3d(6, 5, 4, Stencil::Faces);
    let b = rhs(a.order(), 2, 99);
    let serial = {
        let server = Server::start(cfg());
        let sid = server.submit("t", &a).unwrap();
        server.solve_many(sid, b.clone(), 2).unwrap()
    };
    for workers in [2, 8] {
        let server = Server::start(ServerConfig {
            solver: SolverOptions { analysis_workers: workers, ..opts() },
            ..cfg()
        });
        let sid = server.submit("t", &a).unwrap();
        let x = server.solve_many(sid, b.clone(), 2).unwrap();
        assert_bitwise(&x, &serial, &format!("analysis_workers={workers}"));
    }
}
