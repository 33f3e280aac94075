//! `elastic_ladder` — a time-stepping use of the solver: the pattern is
//! fixed, the values change every step, so each step is a numeric refactor
//! (no analysis) followed by a blocked eight-column refined solve.
//!
//! The matrix is 3-DOF elasticity in f32 on the paper's node (one Xeon core
//! and one simulated Tesla T10), and every step climbs the whole driver
//! ladder: serial CPU, the trained model hybrid with drain-per-front
//! dispatch, the same pipelined, four devices, and a half-size memory
//! budget. This is the only workload that runs f32 factors through `gpusim`,
//! all five factor drivers, and refinement that really iterates.

use crate::check::{same_bits, Tally};
use crate::inputs::{perturbed, Rhs};
use crate::profile::{self, solver_options, staged_analyze, Structure};
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::{Layer, Outcome, RunCfg};
use gpu_multifrontal::autotune::{train, Dataset, TrainOptions};
use gpu_multifrontal::core::{
    factor_permuted, in_core_bytes, min_feasible_budget, FactorOptions, FactorStats,
    LinearPolicyModel, MultiGpuOptions, PipelineOptions, PolicyKind, PolicySelector, Precision,
    SpdSolver,
};
use gpu_multifrontal::gpusim::Machine;
use gpu_multifrontal::matgen::{elasticity_3d, laplacian_3d, Stencil};
use gpu_multifrontal::sparse::{analyze, AmalgamationOptions, Analysis, OrderingKind, SymCsc};
use std::time::Instant;

const RUNGS: [&str; 5] = ["cpu_p1", "gpu_model", "gpu_pipe", "mgpu4", "ooc_half"];
/// The metric holding each rung's simulated factor seconds.
const SIM_NAMES: [&str; 5] = [
    "core.sim_factor_s",
    "core.sim_gpu_model_s",
    "core.sim_gpu_pipe_s",
    "core.sim_mgpu4_s",
    "core.sim_ooc_s",
];
/// Rungs whose solutions must agree bit for bit: same policy choices, only
/// the dispatch differs (drain ≡ pipelined ≡ multi-GPU ≡ budgeted).
const SAME_BITS: [usize; 4] = [1, 2, 3, 4];
const NRHS: usize = 8;
const REFINE_ITERS: usize = 6;
const REFINE_TOL: f64 = 1e-12;
const PERTURBATION: f64 = 0.05;

fn analyze_nd(a: &SymCsc<f64>) -> Analysis {
    analyze(a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
        .expect("generated matrix has a diagonal")
}

fn recorded_factor(a32: &SymCsc<f32>, an: &Analysis, selector: PolicySelector) -> FactorStats {
    let opts = FactorOptions { selector, record_stats: true, ..Default::default() };
    factor_permuted(a32, &an.symbolic, &an.perm, &mut Machine::paper_node(), &opts)
        .expect("generated matrix is SPD")
        .1
}

/// Per-front times under each of the four fixed policies, joined.
fn policy_dataset(a: &SymCsc<f64>) -> Dataset {
    let an = analyze_nd(a);
    let a32: SymCsc<f32> = an.permuted.0.cast();
    let runs = PolicyKind::ALL.map(|p| recorded_factor(&a32, &an, PolicySelector::Fixed(p)));
    Dataset::from_policy_runs(&[&runs[0], &runs[1], &runs[2], &runs[3]])
}

struct Rung {
    solver: SpdSolver,
    machine: Machine,
}

struct Inputs {
    a: SymCsc<f64>,
    analysis: Analysis,
    model: LinearPolicyModel,
    rungs: Vec<Rung>,
    generate_s: f64,
    dataset_s: f64,
    train_s: f64,
}

fn rung_options(model: &LinearPolicyModel, analysis: &Analysis) -> [FactorOptions; 5] {
    let hybrid =
        FactorOptions { selector: PolicySelector::Model(model.clone()), ..Default::default() };
    let piped = FactorOptions { pipeline: PipelineOptions::pipelined(), ..hybrid.clone() };
    let budget =
        min_feasible_budget(&analysis.symbolic, 4).max(in_core_bytes(&analysis.symbolic, 4) / 2);
    [
        FactorOptions::default(),
        hybrid.clone(),
        piped.clone(),
        FactorOptions { devices: MultiGpuOptions::devices(4), ..piped },
        FactorOptions { memory_budget: Some(budget), ..hybrid },
    ]
}

/// Set-up: train the policy model on two smaller matrices, analyze the
/// ladder matrix once, and build (first-factor) the five solvers.
fn set_up(cfg: &RunCfg) -> Inputs {
    let (n, lap, el) = if cfg.smoke { (6, 6, 4) } else { (16, 14, 8) };
    let t = Instant::now();
    let a = elasticity_3d(n, n, n);
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let data = Dataset::merge([
        policy_dataset(&laplacian_3d(lap, lap, lap, Stencil::Full)),
        policy_dataset(&elasticity_3d(el, el, el)),
    ]);
    let dataset_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let model = train(&data, &TrainOptions::default());
    let train_s = t.elapsed().as_secs_f64();
    let analysis = analyze_nd(&a);
    let rungs = rung_options(&model, &analysis)
        .into_iter()
        .map(|factor| {
            let mut machine = Machine::paper_node();
            let opts = solver_options(Precision::F32, factor);
            let solver = SpdSolver::from_analysis(&a, &analysis, &mut machine, &opts)
                .expect("generated matrix is SPD and the budget is feasible");
            Rung { solver, machine }
        })
        .collect();
    Inputs { a, analysis, model, rungs, generate_s, dataset_s, train_s }
}

/// One time step: new values, then every rung refactors and solves. Each
/// rung-step is one op for the failure count; returns the pass's
/// milliseconds inside solver calls, or `None` when a rung-step or the bit
/// comparison failed.
fn pass(
    cfg: &RunCfg,
    inp: &mut Inputs,
    tr: &mut Tracer,
    index: u32,
    tally: &mut Tally,
    iters: &mut Vec<f64>,
) -> Option<f64> {
    let mut values = Rng::new(cfg.seed.wrapping_add(u64::from(index)), "perturb");
    let a = perturbed(&inp.a, PERTURBATION, &mut values);
    let rhs = Rhs::new(&a, NRHS, &mut Rng::new(cfg.seed.wrapping_add(u64::from(index)), "rhs"));
    let span = tr.begin("bench", "pass", index);
    let mut seconds = 0.0;
    let mut solutions: Vec<Option<Vec<f64>>> = Vec::new();
    for (rung, name) in inp.rungs.iter_mut().zip(REFACTOR_SPANS) {
        let t = Instant::now();
        rung.machine.reset();
        let refactored =
            tr.scope("core", name, index, || rung.solver.refactor(&a, &mut rung.machine));
        let solved = refactored.map_err(|e| format!("refactor: {e}")).and_then(|()| {
            tr.scope("core", "core.solve_refined_many", index, || {
                rung.solver.solve_refined_many(&rhs.b, NRHS, REFINE_ITERS, REFINE_TOL)
            })
            .map_err(|e| format!("solve: {e}"))
        });
        seconds += t.elapsed().as_secs_f64();
        let verdict = solved.and_then(|mut sol| {
            cfg.checks.tamper(&mut sol.x);
            tr.scope("bench", "bench.check", index, || {
                if !sol.all_converged() {
                    return Err("refinement did not converge on every column".to_string());
                }
                iters.extend(sol.columns.iter().map(|c| c.iterations as f64));
                cfg.checks.solution(&a, &sol.x, &rhs.b, &rhs.x_true, NRHS)?;
                Ok(sol.x)
            })
        });
        solutions.push(verdict.as_ref().ok().cloned());
        tally.op(name, verdict.map(|_| ()));
    }
    tr.end(span);
    let reference = solutions[SAME_BITS[0]].as_deref();
    let agree = SAME_BITS.iter().all(|&r| match (reference, solutions[r].as_deref()) {
        (Some(x), Some(y)) => same_bits(x, y),
        _ => false,
    });
    tally.op(
        "bits",
        if agree { Ok(()) } else { Err("GPU rungs returned different solution bits".into()) },
    );
    (agree && solutions.iter().all(Option::is_some)).then_some(1e3 * seconds)
}

/// Shares of a recorded factor's simulated component time spent in the dense
/// kernels, in host↔device copies and in host assembly. The base is the sum
/// of the three, not the sum of `FuRecord::total`: that field times the
/// kernel phase of a front only (assembly precedes it), and on a device the
/// components overlap, so neither would make the shares add up to 1.
fn sim_shares(stats: &FactorStats) -> [f64; 3] {
    let kernel = stats.sum(|r| r.t_potrf + r.t_trsm + r.t_syrk);
    let copy = stats.sum(|r| r.t_copy);
    let assemble = stats.sum(|r| r.t_assemble);
    let all = kernel + copy + assemble;
    if all > 0.0 {
        [kernel / all, copy / all, assemble / all]
    } else {
        [0.0; 3]
    }
}

const REFACTOR_SPANS: [&str; 5] = [
    "core.refactor.cpu_p1",
    "core.refactor.gpu_model",
    "core.refactor.gpu_pipe",
    "core.refactor.mgpu4",
    "core.refactor.ooc_half",
];

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Outcome {
    let (mut inp, setup_s) = crate::repeat_setup(cfg, || set_up(cfg));
    let mut tally = Tally::default();
    let mut op_ms = Vec::new();
    let mut iters = Vec::new();
    let mut layer = Layer::new();

    let started = Instant::now();
    if !cfg.trace {
        let mut index = 0;
        while cfg.more_ops(index, started) {
            op_ms.extend(pass(cfg, &mut inp, tr, index, &mut tally, &mut iters));
            index += 1;
        }
        let seconds = started.elapsed().as_secs_f64();
        // Simulated seconds of each rung's last refactor: free to read, and
        // an A/A check can demand that they repeat exactly.
        let sim =
            SIM_NAMES.into_iter().zip(&inp.rungs).map(|(n, r)| (n, r.solver.stats().total_time));
        return Outcome::batch(setup_s, op_ms, seconds, tally, layer, sim.collect());
    }

    let mut untraced_ms = Vec::new();
    for index in 0..cfg.min_ops().min(2) {
        tr.set_on(false);
        untraced_ms.extend(pass(cfg, &mut inp, tr, index, &mut tally, &mut iters));
        tr.set_on(true);
        op_ms.extend(pass(cfg, &mut inp, tr, index, &mut tally, &mut iters));
    }
    let seconds = started.elapsed().as_secs_f64();
    if op_ms.is_empty() || untraced_ms.is_empty() {
        // Every pass of a kind failed its checks; there is nothing to derive.
        return Outcome::batch(setup_s, op_ms, seconds, tally, layer, Vec::new());
    }
    layer.insert(
        "bench.trace_overhead_frac".into(),
        crate::stats::median(&op_ms) / crate::stats::median(&untraced_ms) - 1.0,
    );
    layer.insert("bench.trace_cover_frac".into(), tr.min_child_cover("pass"));
    layer.insert("matgen.generate_s".into(), inp.generate_s);
    layer.insert("autotune.dataset_s".into(), inp.dataset_s);
    layer.insert("autotune.train_s".into(), inp.train_s);

    // Simulated seconds and engine accounting of each rung's last refactor.
    // All of it is read from `FactorStats`: clock `sim`, repeats exactly.
    for ((rung, name), sim) in inp.rungs.iter().zip(RUNGS).zip(SIM_NAMES) {
        let stats = rung.solver.stats();
        layer.insert(sim.into(), stats.total_time);
        layer.insert(
            format!("core.refactor_s.{name}"),
            tr.rep_median_s(&format!("core.refactor.{name}")),
        );
        if let (Some(gpu), true) = (&stats.gpu, ["gpu_model", "gpu_pipe", "mgpu4"].contains(&name))
        {
            layer.insert(format!("gpusim.compute_busy_frac.{name}"), gpu.compute_utilization());
            layer.insert(format!("gpusim.copy_busy_frac.{name}"), gpu.copy_utilization());
        }
    }
    let mgpu = inp.rungs[3].solver.stats();
    layer.insert(
        "gpusim.device_busy_min.mgpu4".into(),
        mgpu.gpu_devices.iter().map(|d| d.busy_fraction()).fold(f64::INFINITY, f64::min).min(1.0),
    );
    layer.insert("gpusim.peer_bytes.mgpu4".into(), mgpu.peer_bytes as f64);
    if let Some(ooc) = &inp.rungs[4].solver.stats().ooc {
        layer.insert("core.ooc_bytes_out".into(), ooc.bytes_out() as f64);
        layer.insert("core.ooc_bytes_in".into(), ooc.bytes_in() as f64);
        layer.insert("core.ooc_evictions".into(), ooc.evictions as f64);
        layer.insert("core.ooc_resident_peak_bytes".into(), ooc.resident_peak_bytes as f64);
    }
    layer.insert(
        "core.oom_fallbacks".into(),
        inp.rungs.iter().map(|r| r.solver.stats().oom_fallbacks).sum::<usize>() as f64,
    );

    // One extra recorded factor under the model hybrid: which policy each
    // front got and where its simulated time went. Four more under the fixed
    // policies give the per-front ideal the model is measured against.
    let a32: SymCsc<f32> = inp.analysis.permuted.0.cast();
    let hybrid = tr.scope("core", "core.factor_recorded", 0, || {
        recorded_factor(&a32, &inp.analysis, PolicySelector::Model(inp.model.clone()))
    });
    for (p, count) in hybrid.policy_counts().into_iter().enumerate() {
        layer.insert(format!("core.policy_fronts.p{}", p + 1), count as f64);
    }
    for (name, share) in ["kernel", "copy", "assemble"].into_iter().zip(sim_shares(&hybrid)) {
        layer.insert(format!("core.sim_{name}_frac"), share);
    }
    let ideal = tr.scope("autotune", "autotune.ideal", 0, || policy_dataset(&inp.a).ideal_time());
    // Base: the sum over fronts of the best fixed policy's time (P_IH).
    layer.insert("autotune.regret".into(), inp.rungs[1].solver.stats().total_time / ideal);

    // The static profile of the ladder matrix: analysis by stage, structure,
    // the dense replay in f32, plain solves through the CPU rung.
    let staged = staged_analyze(&inp.a, None, tr, 0);
    if staged.fingerprint() != inp.analysis.fingerprint() {
        tally.op("analysis", Err("staged analysis differs from analyze()".into()));
    }
    profile::analysis_metrics(tr, &mut layer);
    let st = Structure::of(&[&inp.analysis]);
    st.metrics(&mut layer);
    let replay_s = profile::dense_metrics(&st, Precision::F32, cfg.smoke, tr, &mut layer);
    let cpu = &inp.rungs[0].solver;
    let factor_s = tr.rep_median_s("core.refactor.cpu_p1");
    profile::factor_metrics(&st, Precision::F32, factor_s, replay_s, &[cpu.stats()], &mut layer);
    let b8 = Rhs::new(&inp.a, 8, &mut Rng::new(cfg.seed, "rhs8")).b;
    // The CPU rung holds the last pass's perturbed values; any same-pattern
    // right-hand side times the same sweeps.
    let (solve_s, rhs8_s) = profile::solve_probe(cpu, &b8, tr);
    profile::solve_metrics(&st, Precision::F32, solve_s, rhs8_s, &mut layer);
    layer.insert(
        "core.refine_s".into(),
        tr.rep_median_s("core.solve_refined_many") / RUNGS.len() as f64,
    );
    layer.insert("core.refine_iters".into(), iters.iter().sum::<f64>() / iters.len().max(1) as f64);
    profile::runtime_metrics(&inp.analysis, tr, &mut layer);
    Outcome::batch(setup_s, op_ms, seconds, tally, layer, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_shares_partition_the_component_time() {
        let a = elasticity_3d(4, 4, 4);
        let an = analyze_nd(&a);
        let a32: SymCsc<f32> = an.permuted.0.cast();
        for policy in PolicyKind::ALL {
            let stats = recorded_factor(&a32, &an, PolicySelector::Fixed(policy));
            // `total` leaves the assembly out: the old base made the
            // "fractions" of this very run add up to more than 1.
            let shares = sim_shares(&stats);
            assert!(shares.iter().all(|s| (0.0..=1.0).contains(s)), "{policy:?}: {shares:?}");
            assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12, "{policy:?}: {shares:?}");
            assert!(shares[0] > 0.0 && shares[2] > 0.0);
        }
        assert_eq!(sim_shares(&FactorStats::default()), [0.0; 3]);
    }
}
