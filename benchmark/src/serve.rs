//! The two `mf-server` workloads. Same server (one worker, one kernel
//! thread, batching window 32, f64) and the same six sessions — three
//! matrices, each submitted by two tenants, so three submissions hit the
//! analysis cache — under two kinds of traffic:
//!
//! * `server_open` — independent users: one generator issues requests on a
//!   Poisson schedule (one trace, replayed from a seeded point) at a fixed
//!   rate whether or not answers have returned (open loop). 91 % single-RHS solves, 5 % four-RHS solves, 4 %
//!   same-pattern resubmits (a refactor that blocks its session's queue).
//!   At ≈ 45 % utilisation requests rarely meet in the queue, so batching is
//!   mostly bypassed and queueing sets the latency.
//! * `server_closed8` — callers that wait: the generator keeps eight
//!   single-RHS solves in flight (closed loop). The standing backlog is
//!   where cross-request batching does the work.

use crate::check::Tally;
use crate::inputs::{perturbed, Rhs};
use crate::profile::{self, solver_options, staged_analyze, Structure};
use crate::rng::Rng;
use crate::sched::{closed_choices, latency_from_due, open_trace, replay, Kind, Request};
use crate::trace::{SpanId, Tracer};
use crate::{Layer, Outcome, RunCfg, Window, Workload};
use gpu_multifrontal::core::{FactorOptions, Precision, SpdSolver};
use gpu_multifrontal::gpusim::{xeon_5160_core, Machine};
use gpu_multifrontal::matgen::{elasticity_3d, laplacian_2d, laplacian_3d, Stencil};
use gpu_multifrontal::server::{
    RefactorTicket, Server, ServerConfig, ServerStats, SessionId, SolveTicket,
};
use gpu_multifrontal::sparse::{analyze, Analysis, SymCsc};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load of the open loop, requests per second.
const OPEN_RATE: f64 = 70.0;
/// Requests the closed loop keeps in flight.
const CLOSED_IN_FLIGHT: usize = 8;
/// Drained windows `--seconds` is split into. On the open loop three, of
/// about 224 solves each: enough for a p95 with ten samples beyond. On the
/// closed loop, where a 2 s window still holds 800 solves, five: the median
/// over windows then shrugs off two slow ones.
fn window_count(workload: Workload) -> u32 {
    if workload == Workload::ServerOpen {
        3
    } else {
        5
    }
}
/// Latency limit: a solve slower than this, or failed, misses it.
const SLO_MS: f64 = 60.0;
/// Right-hand sides kept ready per matrix version.
const RHS_POOL: usize = 8;
/// Matrix versions a session cycles through on resubmit.
const VERSIONS: usize = 3;
const PERTURBATION: f64 = 0.05;

/// One set of values of a session's matrix, with right-hand sides whose
/// solutions are known. Requests hold the version that was current when
/// they were enqueued, which is the one their answer must satisfy.
struct Version {
    a: SymCsc<f64>,
    rhs: Rhs,
}

struct Session {
    id: SessionId,
    versions: Vec<Arc<Version>>,
    current: usize,
}

struct Inputs {
    server: Server,
    sessions: Vec<Session>,
    /// The three distinct matrices (tenant A's values).
    matrices: Vec<SymCsc<f64>>,
    generate_s: f64,
    submit_cold_ms: f64,
    submit_hit_ms: f64,
}

fn config() -> ServerConfig {
    ServerConfig {
        solver: solver_options(Precision::F64, FactorOptions::default()),
        workers: 1,
        max_batch_rhs: 32,
        thread_budget: 1,
        ..Default::default()
    }
}

/// Set-up: generate the matrices, start the server, submit the six sessions
/// (tenant A cold, tenant B through the analysis cache), prepare each
/// session's versions and answer one request per session.
fn set_up(cfg: &RunCfg) -> Inputs {
    let (lap, plate, el) = if cfg.smoke { (8, 40, 4) } else { (20, 150, 10) };
    let t = Instant::now();
    let matrices = vec![
        laplacian_3d(lap, lap, lap, Stencil::Faces),
        laplacian_2d(plate, plate, Stencil::Full),
        elasticity_3d(el, el, el),
    ];
    let generate_s = t.elapsed().as_secs_f64();
    let server = Server::start(config());
    let mut values = Rng::new(cfg.seed, "perturb");
    let mut rhs = Rng::new(cfg.seed, "rhs");
    let mut sessions = Vec::new();
    let mut submit_ms = [0.0f64; 2];
    for (t_idx, tenant) in ["tenant-a", "tenant-b"].into_iter().enumerate() {
        for base in &matrices {
            let versions: Vec<Arc<Version>> = (0..VERSIONS)
                .map(|v| {
                    let a = if t_idx == 0 && v == 0 {
                        base.clone()
                    } else {
                        perturbed(base, PERTURBATION, &mut values)
                    };
                    let rhs = Rhs::new(&a, RHS_POOL, &mut rhs);
                    Arc::new(Version { a, rhs })
                })
                .collect();
            let t = Instant::now();
            let id =
                server.submit(tenant, &versions[0].a).expect("generated matrix is SPD and fits");
            submit_ms[t_idx] += 1e3 * t.elapsed().as_secs_f64();
            sessions.push(Session { id, versions, current: 0 });
        }
    }
    for s in &sessions {
        let (b, _) = s.versions[0].rhs.columns(0, 1);
        server.solve(s.id, b).expect("warm-up solve");
    }
    Inputs {
        server,
        sessions,
        matrices,
        generate_s,
        submit_cold_ms: submit_ms[0],
        submit_hit_ms: submit_ms[1],
    }
}

enum Ticket {
    Solve(SolveTicket),
    Refactor(RefactorTicket),
    /// The server refused the request at admission.
    Refused(String),
}

/// A request on its way through the server.
struct InFlight {
    kind: Kind,
    due: Instant,
    after_submit: Instant,
    ticket: Ticket,
    version: Arc<Version>,
    rhs: usize,
}

/// A request the server has answered and nobody has checked yet.
struct Answered {
    kind: Kind,
    due: Instant,
    latency: Duration,
    late_ms: f64,
    /// The solution block (empty for a resubmit), or why there is none.
    answer: Result<Vec<f64>, String>,
    version: Arc<Version>,
    rhs: usize,
}

/// A finished request.
struct Done {
    kind: Kind,
    due: Instant,
    end: Instant,
    latency_ms: f64,
    late_ms: f64,
    verdict: Result<(), String>,
}

/// Enqueue `req` against the session's current version. A resubmit moves
/// the session on to its next version, which later requests then see.
fn issue(inp: &mut Inputs, req: &Request, due: Instant) -> InFlight {
    let server = &inp.server;
    let s = &mut inp.sessions[req.session];
    let (version, ticket) = match req.kind {
        Kind::Resubmit => {
            s.current = (s.current + 1) % VERSIONS;
            let v = s.versions[s.current].clone();
            let ticket = match server.resubmit_async(s.id, v.a.clone()) {
                Ok(t) => Ticket::Refactor(t),
                Err(e) => Ticket::Refused(e.to_string()),
            };
            (v, ticket)
        }
        kind => {
            let v = s.versions[s.current].clone();
            let (b, _) = v.rhs.columns(req.rhs, kind.nrhs());
            let ticket = match server.solve_many_async(s.id, b, kind.nrhs()) {
                Ok(t) => Ticket::Solve(t),
                Err(e) => Ticket::Refused(e.to_string()),
            };
            (v, ticket)
        }
    };
    InFlight { kind: req.kind, due, after_submit: Instant::now(), ticket, version, rhs: req.rhs }
}

/// Wait for a request and time it from its due time to the worker-stamped
/// completion. Cheap on purpose: the open loop runs this beside the
/// generator and the server's worker, and the host may have two cores.
fn wait(f: InFlight) -> Answered {
    let late_ms = 1e3 * f.after_submit.saturating_duration_since(f.due).as_secs_f64();
    let (queue_to_done, answer) = match f.ticket {
        Ticket::Refused(why) => (Duration::ZERO, Err(format!("refused: {why}"))),
        Ticket::Refactor(t) => {
            let r = t.wait().map(|()| Vec::new()).map_err(|e| format!("refactor: {e}"));
            // A refactor's completion is not stamped by the worker; its
            // latency is indicative and stays out of the solve percentiles.
            (Instant::now().saturating_duration_since(f.after_submit), r)
        }
        Ticket::Solve(t) => {
            let (x, queue_to_done) = t.wait_with_latency();
            (queue_to_done, x.map_err(|e| format!("solve: {e}")))
        }
    };
    Answered {
        kind: f.kind,
        due: f.due,
        latency: latency_from_due(f.due, f.after_submit, queue_to_done),
        late_ms,
        answer,
        version: f.version,
        rhs: f.rhs,
    }
}

/// Check an answer against the matrix version it was enqueued on.
fn check(cfg: &RunCfg, a: Answered) -> Done {
    let verdict = a.answer.and_then(|mut x| {
        if a.kind == Kind::Resubmit {
            return Ok(());
        }
        cfg.checks.tamper(&mut x);
        let nrhs = a.kind.nrhs();
        let (b, x_true) = a.version.rhs.columns(a.rhs, nrhs);
        cfg.checks.solution(&a.version.a, &x, &b, &x_true, nrhs)
    });
    Done {
        kind: a.kind,
        due: a.due,
        end: a.due + a.latency,
        latency_ms: 1e3 * a.latency.as_secs_f64(),
        late_ms: a.late_ms,
        verdict,
    }
}

/// A window's requests, all answered and checked.
struct Drained {
    done: Vec<Done>,
    start: Instant,
    /// From `start` to the last completion.
    seconds: f64,
}

impl Drained {
    fn new(done: Vec<Done>, start: Instant) -> Drained {
        let last = done.iter().map(|d| d.end).max().unwrap_or(start);
        Drained { done, start, seconds: last.saturating_duration_since(start).as_secs_f64() }
    }
}

/// Spin until `due`. Sleeping first was tried: with the worker and the
/// collector waking on the generator's core it resumed 2–5 ms late on one
/// request in twenty, and open-loop latency counts from the due time, so the
/// harness's own lateness was most of the run-to-run spread. The host needs
/// a core to spare for this thread (`nproc` is in the record).
fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One open-loop window: the generator (this thread) issues on schedule and
/// hands tickets to a collector thread that only waits for them, so slow
/// answers never hold back later requests; the answers are checked once the
/// window has drained, when nothing is being timed.
fn open_window(cfg: &RunCfg, inp: &mut Inputs, schedule: &[Request]) -> Drained {
    let (tx, rx) = mpsc::channel::<InFlight>();
    let start = Instant::now();
    let answered = std::thread::scope(|scope| {
        let collector = scope.spawn(move || rx.into_iter().map(wait).collect::<Vec<_>>());
        for req in schedule {
            let due = start + Duration::from_secs_f64(req.due_s);
            wait_until(due);
            tx.send(issue(inp, req, due)).expect("collector outlives the generator");
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    Drained::new(answered.into_iter().map(|a| check(cfg, a)).collect(), start)
}

/// One closed-loop window: keep [`CLOSED_IN_FLIGHT`] single-RHS solves in
/// flight — issue, wait for the oldest, issue again — for `seconds`, then
/// let the rest finish.
fn closed_window(
    cfg: &RunCfg,
    inp: &mut Inputs,
    choices: &[(usize, usize)],
    next: &mut usize,
    seconds: f64,
) -> Drained {
    let start = Instant::now();
    let mut in_flight = VecDeque::new();
    let mut done = Vec::new();
    loop {
        let open = start.elapsed().as_secs_f64() < seconds;
        while open && in_flight.len() < CLOSED_IN_FLIGHT {
            let (session, rhs) = choices[*next % choices.len()];
            *next += 1;
            let req = Request { due_s: 0.0, session, kind: Kind::Solve1, rhs };
            in_flight.push_back(issue(inp, &req, Instant::now()));
        }
        match in_flight.pop_front() {
            Some(f) => done.push(check(cfg, wait(f))),
            None => break,
        }
    }
    Drained::new(done, start)
}

/// `count` drained windows of `seconds` each: the open loop replays its
/// trace from the seeded point, the closed loop enters its list of choices
/// there. `visit` gets each window's index and requests.
fn windows(
    cfg: &RunCfg,
    inp: &mut Inputs,
    count: u32,
    seconds: f64,
    mut visit: impl FnMut(u32, Drained),
) {
    let total = seconds * f64::from(count);
    match cfg.workload {
        Workload::ServerOpen => {
            let trace = open_trace(OPEN_RATE, total, inp.sessions.len(), RHS_POOL);
            for (index, schedule) in replay(&trace, total, cfg.seed, count).iter().enumerate() {
                visit(index as u32, open_window(cfg, inp, schedule));
            }
        }
        _ => {
            let choices = closed_choices(cfg.seed, inp.sessions.len(), RHS_POOL);
            let mut next = 0;
            for index in 0..count {
                visit(index, closed_window(cfg, inp, &choices, &mut next, seconds));
            }
        }
    }
}

/// Record a window's requests as spans under `parent` and count them.
fn account(
    done: Vec<Done>,
    tr: &mut Tracer,
    parent: SpanId,
    index: u32,
    tally: &mut Tally,
) -> Vec<Done> {
    for d in &done {
        let name = match d.kind {
            Kind::Solve1 => "server.solve1",
            Kind::Solve4 => "server.solve4",
            Kind::Resubmit => "server.resubmit",
        };
        tr.record("server", name, index, parent, d.due, d.end);
        tally.op(name, d.verdict.clone());
    }
    done
}

fn solve_latencies(done: &[Done]) -> Vec<f64> {
    done.iter()
        .filter(|d| d.kind != Kind::Resubmit && d.verdict.is_ok())
        .map(|d| d.latency_ms)
        .collect()
}

fn delta(after: &ServerStats, before: &ServerStats, layer: &mut Layer) {
    let batches = after.batches - before.batches;
    let rhs = after.solved_rhs - before.solved_rhs;
    layer.insert("server.batches".into(), batches as f64);
    layer.insert(
        "server.mean_batch_rhs".into(),
        if batches > 0 { rhs as f64 / batches as f64 } else { 0.0 },
    );
    layer.insert("server.max_batch_rhs".into(), after.max_batch_rhs as f64);
    layer.insert("server.refactors".into(), (after.refactors - before.refactors) as f64);
    layer.insert(
        "server.rejected".into(),
        (after.rejected_overloaded + after.rejected_invalid
            - before.rejected_overloaded
            - before.rejected_invalid) as f64,
    );
    let lookups = after.analysis_hits + after.analysis_misses;
    layer.insert(
        "server.analysis_hit_ratio".into(),
        if lookups > 0 { after.analysis_hits as f64 / lookups as f64 } else { 0.0 },
    );
}

/// Latency of a lone request (nothing else in flight, so no queue and no
/// batch): the server's service time for this session mix. Median of 40.
fn service_ms(cfg: &RunCfg, inp: &mut Inputs, tr: &mut Tracer, tally: &mut Tally) -> f64 {
    let choices = closed_choices(cfg.seed, inp.sessions.len(), RHS_POOL);
    let span = tr.begin("server", "server.service_probe", 0);
    let mut ms = Vec::new();
    for &(session, rhs) in choices.iter().take(if cfg.smoke { 8 } else { 40 }) {
        let req = Request { due_s: 0.0, session, kind: Kind::Solve1, rhs };
        let d = check(cfg, wait(issue(inp, &req, Instant::now())));
        ms.push(d.latency_ms);
        tally.op("server.service", d.verdict);
    }
    tr.end(span);
    crate::stats::median(&ms)
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let (mut inp, setup_s) = crate::repeat_setup(cfg, || set_up(cfg));
    let mut tally = Tally::default();
    let mut layer = Layer::new();
    let mut timed = Vec::new();

    if !cfg.trace {
        // `--seconds` in drained windows; `crate::headline` says which
        // figure is taken per window and which over all of them.
        let count = if cfg.smoke { 1 } else { window_count(cfg.workload) };
        windows(cfg, &mut inp, count, cfg.seconds / f64::from(count), |index, w| {
            let done = account(w.done, tr, crate::trace::NO_SPAN, index, &mut tally);
            timed.push(Window { op_ms: solve_latencies(&done), seconds: w.seconds });
        });
        return Outcome { setup_s, windows: timed, tally, layer, sim: Vec::new() };
    }

    // Traced run: the service-time probe, then windows whose requests become
    // spans from due time to completion. The spans are recorded once a window
    // has drained, from the instants it keeps anyway, so tracing costs the
    // windows nothing and `bench.trace_overhead_frac` is not measured here.
    let seconds = if cfg.smoke { 1.0 } else { 4.0 };
    let service = service_ms(cfg, &mut inp, tr, &mut tally);
    let before = inp.server.stats();
    let mut all = Vec::new();
    windows(cfg, &mut inp, if cfg.smoke { 1 } else { 2 }, seconds, |index, w| {
        let end = w.start + Duration::from_secs_f64(w.seconds);
        let span = tr.record("bench", "window", index, crate::trace::NO_SPAN, w.start, end);
        let done = account(w.done, tr, span, index, &mut tally);
        timed.push(Window { op_ms: solve_latencies(&done), seconds: w.seconds });
        all.extend(done);
    });
    delta(&inp.server.stats(), &before, &mut layer);
    let Some((p50, p95, _)) = crate::headline(&timed) else {
        // Every solve failed its checks; there is nothing to derive.
        return Outcome { setup_s, windows: timed, tally, layer, sim: Vec::new() };
    };
    layer.insert("server.solve_p50_ms".into(), p50);
    layer.insert("server.solve_p95_ms".into(), p95);
    layer.insert("bench.trace_cover_frac".into(), tr.min_child_cover("window"));
    layer.insert("server.service_ms".into(), service);
    // Base: the median solve latency of the traced windows.
    layer.insert("server.queue_wait_p50_ms".into(), p50 - service);
    let solves = all.iter().filter(|d| d.kind != Kind::Resubmit).count();
    let missed = all
        .iter()
        .filter(|d| d.kind != Kind::Resubmit && (d.verdict.is_err() || d.latency_ms > SLO_MS))
        .count();
    layer.insert("server.slo_miss_frac".into(), missed as f64 / solves.max(1) as f64);
    let late: Vec<f64> = all.iter().map(|d| d.late_ms).collect();
    layer.insert(
        "bench.generator_late_p95_ms".into(),
        crate::stats::percentile_sorted(&crate::stats::sorted(&late), 0.95),
    );
    layer.insert("server.submit_cold_ms".into(), inp.submit_cold_ms);
    layer.insert("server.submit_hit_ms".into(), inp.submit_hit_ms);
    layer.insert("matgen.generate_s".into(), inp.generate_s);

    // Static profile of the three matrices through the same solver options
    // the server uses: what a session costs to build and to answer from.
    static_profile(cfg, &inp.matrices, tr, &mut tally, &mut layer);
    Outcome { setup_s, windows: timed, tally, layer, sim: Vec::new() }
}

fn static_profile(
    cfg: &RunCfg,
    matrices: &[SymCsc<f64>],
    tr: &mut Tracer,
    tally: &mut Tally,
    layer: &mut Layer,
) {
    let opts = config().solver;
    let mut analyses: Vec<Analysis> = Vec::new();
    let mut solvers = Vec::new();
    let (mut solve_s, mut rhs8_s, mut iters) = (0.0, 0.0, Vec::new());
    for a in matrices {
        let whole =
            analyze(a, opts.ordering, opts.amalgamation.as_ref()).expect("diagonal present");
        let staged = staged_analyze(a, None, tr, 0);
        let same = staged.fingerprint() == whole.fingerprint();
        tally.op(
            "analysis",
            if same { Ok(()) } else { Err("staged analysis differs from analyze()".into()) },
        );
        let mut machine = Machine::cpu_only(xeon_5160_core());
        let solver = tr
            .scope("core", "core.from_analysis", 0, || {
                SpdSolver::from_analysis(a, &staged, &mut machine, &opts)
            })
            .expect("generated matrix is SPD");
        let rhs = Rhs::new(a, 8, &mut Rng::new(cfg.seed, "rhs8"));
        let (one, eight) = profile::solve_probe(&solver, &rhs.b, tr);
        solve_s += one;
        rhs8_s += eight;
        let n = a.order();
        let sol = tr
            .scope("core", "core.solve_refined", 0, || solver.solve_refined(&rhs.b[..n], 6, 1e-12))
            .expect("well-formed right-hand side");
        iters.push(sol.iterations as f64);
        analyses.push(staged);
        solvers.push(solver);
    }
    profile::analysis_metrics(tr, layer);
    let refs: Vec<&Analysis> = analyses.iter().collect();
    let st = Structure::of(&refs);
    st.metrics(layer);
    let replay_s = profile::dense_metrics(&st, Precision::F64, cfg.smoke, tr, layer);
    let stats: Vec<_> = solvers.iter().map(|s| s.stats()).collect();
    profile::factor_metrics(
        &st,
        Precision::F64,
        tr.rep_median_s("core.from_analysis"),
        replay_s,
        &stats,
        layer,
    );
    layer.insert("core.sim_factor_s".into(), solvers.iter().map(|s| s.factor_time()).sum());
    profile::solve_metrics(&st, Precision::F64, solve_s, rhs8_s, layer);
    layer.insert("core.refine_s".into(), tr.rep_median_s("core.solve_refined"));
    layer.insert("core.refine_iters".into(), iters.iter().sum::<f64>() / iters.len() as f64);
    // The plate has the most supernodes of the three.
    profile::runtime_metrics(&analyses[1], tr, layer);
}
