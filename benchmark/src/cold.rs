//! The three cold-solve workloads: a matrix in hand → analysis → numeric
//! factor → refined solution, everything from scratch on every rep.
//!
//! * `cube3d_cold` — 27-point Laplacian on a cube: a few thousand fronts up
//!   to order 3 500, so the dense kernels do most of the work.
//! * `plate2d_cold` — 9-point Laplacian on a plate: tens of thousands of
//!   tiny fronts, so the symbolic analysis and the front handling dominate
//!   and the dense kernels matter little (the paper's "2-D problems gain far
//!   less").
//! * `plate2d_par2` — the same plate through the parallel entry points with
//!   two workers; `plate2d_cold` is its plain single-thread baseline.

use crate::check::Tally;
use crate::inputs::Rhs;
use crate::profile::{self, solver_options, staged_analyze, Structure};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{Layer, Outcome, RunCfg, Workload};
use gpu_multifrontal::core::{
    factor_permuted_parallel, CholeskyFactor, FactorOptions, FactorStats, ParallelOptions,
    Precision, SolverOptions, SpdSolver,
};
use gpu_multifrontal::dense;
use gpu_multifrontal::gpusim::{xeon_5160_core, Machine};
use gpu_multifrontal::matgen::{laplacian_2d, laplacian_3d, Stencil};
use gpu_multifrontal::sparse::{
    analyze, analyze_parallel, AmalgamationOptions, Analysis, OrderingKind, SymCsc,
};
use std::time::Instant;

pub const WORKERS: usize = 2;
const REFINE_ITERS: usize = 6;
const REFINE_TOL: f64 = 1e-12;
/// Right-hand sides of the parallel blocked solve.
const PAR_NRHS: usize = 8;

fn generate(cfg: &RunCfg) -> SymCsc<f64> {
    match cfg.workload {
        Workload::Cube3dCold => {
            let n = if cfg.smoke { 10 } else { 30 };
            laplacian_3d(n, n, n, Stencil::Full)
        }
        _ => {
            let n = if cfg.smoke { 60 } else { 400 };
            laplacian_2d(n, n, Stencil::Full)
        }
    }
}

fn cpu() -> Machine {
    Machine::cpu_only(xeon_5160_core())
}

fn opts() -> SolverOptions {
    solver_options(Precision::F64, FactorOptions::default())
}

/// What one serial rep leaves behind for checking and probing.
struct SerialRep {
    solver: SpdSolver,
    x: Vec<f64>,
    converged: bool,
    iterations: usize,
    seconds: f64,
}

/// One serial cold solve. Untraced it is the two calls a user makes; traced
/// it is the same work with the analysis taken apart into its stage calls.
fn serial_rep(a: &SymCsc<f64>, b: &[f64], tr: &mut Tracer, rep: u32) -> Result<SerialRep, String> {
    let opts = opts();
    let mut machine = cpu();
    let t = Instant::now();
    let solver = if tr.is_on() {
        let analysis = staged_analyze(a, None, tr, rep);
        tr.scope("core", "core.from_analysis", rep, || {
            SpdSolver::from_analysis(a, &analysis, &mut machine, &opts)
        })
    } else {
        SpdSolver::new(a, &mut machine, &opts)
    }
    .map_err(|e| format!("factor: {e}"))?;
    let sol = tr
        .scope("core", "core.solve_refined", rep, || {
            solver.solve_refined(b, REFINE_ITERS, REFINE_TOL)
        })
        .map_err(|e| format!("solve: {e}"))?;
    let seconds = t.elapsed().as_secs_f64();
    Ok(SerialRep {
        solver,
        x: sol.x,
        converged: sol.converged,
        iterations: sol.iterations,
        seconds,
    })
}

struct ParallelRep {
    analysis: Analysis,
    stats: FactorStats,
    x: Vec<f64>,
    seconds: f64,
}

/// One cold solve through the parallel entry points at [`WORKERS`] workers.
/// `SpdSolver` exposes no factor worker count, so this is the three public
/// calls underneath it.
fn parallel_rep(
    a: &SymCsc<f64>,
    b: &[f64],
    tr: &mut Tracer,
    rep: u32,
) -> Result<ParallelRep, String> {
    let mut machines: Vec<Machine> = (0..WORKERS).map(|_| cpu()).collect();
    let t = Instant::now();
    let analysis = if tr.is_on() {
        staged_analyze(a, Some(WORKERS), tr, rep)
    } else {
        analyze_parallel(
            a,
            OrderingKind::NestedDissection,
            Some(&AmalgamationOptions::default()),
            WORKERS,
        )
        .map_err(|e| format!("analyze: {e}"))?
    };
    let (factor, stats): (CholeskyFactor<f64>, FactorStats) = tr
        .scope("core", "core.factor_parallel", rep, || {
            factor_permuted_parallel(
                &analysis.permuted.0,
                &analysis.symbolic,
                &analysis.perm,
                &mut machines,
                &FactorOptions::default(),
                &ParallelOptions { thread_budget: WORKERS },
            )
        })
        .map_err(|e| format!("factor: {e}"))?;
    let x = tr.scope("core", "core.solve_many_parallel", rep, || {
        factor.solve_many_parallel(b, PAR_NRHS, WORKERS)
    });
    let seconds = t.elapsed().as_secs_f64();
    Ok(ParallelRep { analysis, stats, x, seconds })
}

/// The serial baseline of `plate2d_par2`: its solution bits are what the
/// parallel path must reproduce, and its stage times are the base of the
/// `runtime.par2_speedup.*` ratios.
struct Baseline {
    solver: SpdSolver,
    x: Vec<f64>,
    analyze_s: f64,
    factor_s: f64,
    solve_s: f64,
}

fn baseline(a: &SymCsc<f64>, b: &[f64]) -> Baseline {
    // One dense thread, as `plate2d_cold` runs it; the workload's cap of
    // [`WORKERS`] comes back before the parallel reps.
    let cap = dense::thread_cap();
    dense::set_num_threads(1);
    let opts = opts();
    let t = Instant::now();
    let analysis = analyze(a, opts.ordering, opts.amalgamation.as_ref())
        .expect("generated matrix has a diagonal");
    let analyze_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let solver =
        SpdSolver::from_analysis(a, &analysis, &mut cpu(), &opts).expect("generated matrix is SPD");
    let factor_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let x = solver.solve_many(b, PAR_NRHS).expect("well-formed right-hand side");
    let solve_s = t.elapsed().as_secs_f64();
    dense::set_num_threads(cap);
    Baseline { solver, x, analyze_s, factor_s, solve_s }
}

struct Inputs {
    a: SymCsc<f64>,
    rhs: Rhs,
    generate_s: f64,
    /// Fingerprint of the one-call analysis; the staged one must match.
    fingerprint: u64,
    baseline: Option<Baseline>,
}

/// Set-up: generate the matrix and the seeded right-hand sides, build the
/// serial baseline (par2 only) and run one unmeasured rep, so that lazy
/// one-time work in the solver lands here and not in the first measured rep.
fn set_up(cfg: &RunCfg) -> Inputs {
    let parallel = cfg.workload == Workload::Plate2dPar2;
    let t = Instant::now();
    let a = generate(cfg);
    let generate_s = t.elapsed().as_secs_f64();
    let rhs = Rhs::new(&a, if parallel { PAR_NRHS } else { 1 }, &mut Rng::new(cfg.seed, "rhs"));
    let mut off = Tracer::new(false, "");
    let (fingerprint, baseline) = if parallel {
        let base = baseline(&a, &rhs.b);
        let warm = parallel_rep(&a, &rhs.b, &mut off, 0).expect("warm-up rep");
        (warm.analysis.fingerprint(), Some(base))
    } else {
        let warm = serial_rep(&a, &rhs.b, &mut off, 0).expect("warm-up rep");
        (warm.solver.analysis().fingerprint(), None)
    };
    Inputs { a, rhs, generate_s, fingerprint, baseline }
}

/// Run one rep and check its answer; returns its wall milliseconds, or
/// `None` when it failed: a failed rep has no time worth a place in a median.
fn checked_rep(
    cfg: &RunCfg,
    inp: &Inputs,
    tr: &mut Tracer,
    rep: u32,
    tally: &mut Tally,
    keep: &mut Kept,
) -> Option<f64> {
    let traced = tr.is_on();
    let span = tr.begin("bench", "rep", rep);
    let (seconds, verdict) = match &inp.baseline {
        None => match serial_rep(&inp.a, &inp.rhs.b, tr, rep) {
            Err(e) => (0.0, Err(e)),
            Ok(mut r) => {
                cfg.checks.tamper(&mut r.x);
                let verdict = tr.scope("bench", "bench.check", rep, || {
                    if !r.converged {
                        return Err("refinement did not converge".to_string());
                    }
                    if traced && r.solver.analysis().fingerprint() != inp.fingerprint {
                        return Err("staged analysis differs from analyze()".to_string());
                    }
                    cfg.checks.solution(&inp.a, &r.x, &inp.rhs.b, &inp.rhs.x_true, 1)
                });
                keep.refine_iters.push(r.iterations as f64);
                let s = r.seconds;
                keep.serial = Some(r);
                (s, verdict)
            }
        },
        Some(base) => match parallel_rep(&inp.a, &inp.rhs.b, tr, rep) {
            Err(e) => (0.0, Err(e)),
            Ok(mut r) => {
                cfg.checks.tamper(&mut r.x);
                let verdict = tr.scope("bench", "bench.check", rep, || {
                    if traced && r.analysis.fingerprint() != inp.fingerprint {
                        return Err("staged analysis differs from analyze_parallel()".to_string());
                    }
                    if !crate::check::same_bits(&r.x, &base.x) {
                        return Err(
                            "parallel solution bits differ from the serial reference".into()
                        );
                    }
                    cfg.checks.solution(&inp.a, &r.x, &inp.rhs.b, &inp.rhs.x_true, PAR_NRHS)
                });
                let s = r.seconds;
                keep.parallel = Some(r);
                (s, verdict)
            }
        },
    };
    tr.end(span);
    let ms = verdict.is_ok().then_some(1e3 * seconds);
    tally.op("rep", verdict);
    ms
}

/// What the probes after the traced reps need from the last rep.
#[derive(Default)]
struct Kept {
    serial: Option<SerialRep>,
    parallel: Option<ParallelRep>,
    refine_iters: Vec<f64>,
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let (inp, setup_s) = crate::repeat_setup(cfg, || set_up(cfg));
    let mut tally = Tally::default();
    let mut keep = Kept::default();
    let mut op_ms = Vec::new();
    let mut layer = Layer::new();

    let started = Instant::now();
    if !cfg.trace {
        let mut rep = 0;
        while cfg.more_ops(rep, started) {
            op_ms.extend(checked_rep(cfg, &inp, tr, rep, &mut tally, &mut keep));
            rep += 1;
        }
        // Simulated seconds of the serial factor: free to read, and an A/A
        // check can demand that it repeats exactly.
        let sim = keep.serial.iter().map(|r| ("core.sim_factor_s", r.solver.factor_time()));
        let seconds = started.elapsed().as_secs_f64();
        return Outcome::batch(setup_s, op_ms, seconds, tally, layer, sim.collect());
    }

    // Traced run: reps alternate untraced and traced, so the two medians see
    // the same host conditions and their ratio is the tracing overhead.
    let mut untraced_ms = Vec::new();
    for rep in 0..cfg.min_ops() {
        tr.set_on(false);
        untraced_ms.extend(checked_rep(cfg, &inp, tr, rep, &mut tally, &mut keep));
        tr.set_on(true);
        op_ms.extend(checked_rep(cfg, &inp, tr, rep, &mut tally, &mut keep));
    }
    let seconds = started.elapsed().as_secs_f64();
    if op_ms.is_empty() || untraced_ms.is_empty() {
        // Every rep of a kind failed its checks; there is nothing to derive.
        return Outcome::batch(setup_s, op_ms, seconds, tally, layer, Vec::new());
    }
    layer.insert(
        "bench.trace_overhead_frac".into(),
        crate::stats::median(&op_ms) / crate::stats::median(&untraced_ms) - 1.0,
    );
    layer.insert("bench.trace_cover_frac".into(), tr.min_child_cover("rep"));
    layer.insert("matgen.generate_s".into(), inp.generate_s);
    profile::analysis_metrics(tr, &mut layer);

    // The serial solver the remaining probes go through: the last rep's, or
    // the baseline where the reps were parallel.
    let (serial, analysis, stats, factor_s): (&SpdSolver, &Analysis, &FactorStats, f64) =
        match (&inp.baseline, &keep.serial, &keep.parallel) {
            (None, Some(r), _) => (
                &r.solver,
                r.solver.analysis(),
                r.solver.stats(),
                tr.rep_median_s("core.from_analysis"),
            ),
            (Some(base), _, Some(p)) => {
                (&base.solver, &p.analysis, &p.stats, tr.rep_median_s("core.factor_parallel"))
            }
            _ => unreachable!("a rep that passed its checks was kept"),
        };
    let st = Structure::of(&[analysis]);
    st.metrics(&mut layer);
    let replay_s = profile::dense_metrics(&st, Precision::F64, cfg.smoke, tr, &mut layer);
    profile::factor_metrics(&st, Precision::F64, factor_s, replay_s, &[stats], &mut layer);
    layer.insert("core.sim_factor_s".into(), serial.factor_time());

    let b8 = Rhs::new(&inp.a, 8, &mut Rng::new(cfg.seed, "rhs8")).b;
    let (solve_s, rhs8_s) = profile::solve_probe(serial, &b8, tr);
    profile::solve_metrics(&st, Precision::F64, solve_s, rhs8_s, &mut layer);
    if let Some(base) = &inp.baseline {
        // The parallel reps do not refine; one refined solve through the
        // baseline keeps the refinement metrics defined on this workload.
        let n = inp.a.order();
        let sol = tr
            .scope("core", "core.solve_refined", 0, || {
                base.solver.solve_refined(&inp.rhs.b[..n], REFINE_ITERS, REFINE_TOL)
            })
            .expect("well-formed right-hand side");
        keep.refine_iters.push(sol.iterations as f64);
        // Base of each ratio: the serial stage of the same matrix in this
        // process (what `plate2d_cold` runs), divided by the two-worker stage.
        let par = |name: &str| tr.rep_median_s(name);
        layer.insert("runtime.par2_speedup.analyze".into(), base.analyze_s / par("sparse.analyze"));
        layer.insert(
            "runtime.par2_speedup.factor".into(),
            base.factor_s / par("core.factor_parallel"),
        );
        layer.insert(
            "runtime.par2_speedup.solve".into(),
            base.solve_s / par("core.solve_many_parallel"),
        );
    }
    layer.insert("core.refine_s".into(), tr.rep_median_s("core.solve_refined"));
    layer.insert(
        "core.refine_iters".into(),
        keep.refine_iters.iter().sum::<f64>() / keep.refine_iters.len().max(1) as f64,
    );
    profile::runtime_metrics(analysis, tr, &mut layer);
    Outcome::batch(setup_s, op_ms, seconds, tally, layer, Vec::new())
}
