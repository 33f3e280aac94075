//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` is printed
//! from these tables (`--manifest`) and a test keeps the two in step.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 10;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "cube3d_cold",
        why: "27-pt Laplacian 30^3, f64, cold analyze+factor+refined solve: big 3-D fronts, so dense kernels do most of the work, sparse little. Ops run back to back: ops_per_s ~ 1/op_p50_ms",
    },
    Workload {
        name: "plate2d_cold",
        why: "9-pt Laplacian 400^2, same calls: 58k tiny fronts, so analysis and front handling dominate, dense <10% (the paper's 2-D case); 1-thread baseline of plate2d_par2",
    },
    Workload {
        name: "plate2d_par2",
        why: "the same plate through analyze_parallel/factor_permuted_parallel/solve_many_parallel at 2 workers: 58k microsecond tasks show the runtime's per-task cost",
    },
    Workload {
        name: "elastic_ladder",
        why: "elasticity 16^3, f32 on the simulated paper node, time-stepping: refactor + 8-RHS refined solve on all five factor drivers (cpu, model hybrid, pipelined, 4 GPUs, half budget)",
    },
    Workload {
        name: "server_open",
        why: "mf-server, 6 sessions, open loop at 70 req/s (~45% busy), Zipf sessions, 4% resubmits: batching mostly bypassed, queueing and refactor head-of-line blocking set the latency. ops_per_s = offered rate",
    },
    Workload {
        name: "server_closed8",
        why: "same server and sessions, closed loop with 8 solves in flight: a standing backlog, so cross-request RHS batching sets the throughput; the one workload ops_per_s is meant for",
    },
];

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "op_p50_ms", unit: "ms", better: "lower", bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25 },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Units: `s`/`ms`/`ns` are wall clock; `sim_s` and `sim_frac` are read from
/// the simulated clock and repeat exactly; `*_c` quantities (bytes, flop per
/// byte) are computed from array sizes, not measured.
pub const PER_LAYER: [PerLayer; 90] = [
    // sparse: the analysis by stage, and what it produced.
    layer("sparse.analyze_s", "s", "lower"),
    layer("sparse.order_s", "s", "lower"),
    layer("sparse.permute_s", "s", "lower"),
    layer("sparse.etree_s", "s", "lower"),
    layer("sparse.colcount_s", "s", "lower"),
    layer("sparse.supernodes_s", "s", "lower"),
    layer("sparse.symbolic_s", "s", "lower"),
    layer("sparse.supernodes", "count", "lower"),
    layer("sparse.factor_nnz", "count", "lower"),
    layer("sparse.factor_gflop", "Gflop", "lower"),
    layer("sparse.fill_ratio", "ratio", "lower"),
    layer("sparse.max_front", "count", "lower"),
    // dense: the workload's own kernel calls against the host's ceilings.
    layer("dense.replay_s", "s", "lower"),
    layer("dense.replay_gflops", "Gflop/s", "higher"),
    layer("dense.peak_gflops", "Gflop/s", "higher"),
    layer("dense.triad_gbps", "GB/s", "higher"),
    layer("dense.roofline_frac", "frac", "higher"),
    layer("dense.flops_per_byte", "flop/B_c", "higher"),
    layer("dense.potrf_gflops", "Gflop/s", "higher"),
    layer("dense.trsm_gflops", "Gflop/s", "higher"),
    layer("dense.syrk_gflops", "Gflop/s", "higher"),
    layer("dense.threads2_speedup", "ratio", "higher"),
    // core: numeric factor, front handling, solves, refinement.
    layer("core.factor_s", "s", "lower"),
    layer("core.factor_gflops", "Gflop/s", "higher"),
    layer("core.front_overhead_s", "s", "lower"),
    layer("core.assemble_bytes", "B_c", "lower"),
    layer("core.assemble_gbps", "GB/s", "higher"),
    layer("core.peak_front_bytes", "B", "lower"),
    layer("core.front_alloc_events", "count", "lower"),
    layer("core.solve_s", "s", "lower"),
    layer("core.solve_rhs8_s", "s", "lower"),
    layer("core.solve_gbps", "GB/s", "higher"),
    layer("core.refine_s", "s", "lower"),
    layer("core.refine_iters", "count", "lower"),
    layer("core.refactor_s.cpu_p1", "s", "lower"),
    layer("core.refactor_s.gpu_model", "s", "lower"),
    layer("core.refactor_s.gpu_pipe", "s", "lower"),
    layer("core.refactor_s.mgpu4", "s", "lower"),
    layer("core.refactor_s.ooc_half", "s", "lower"),
    // core, simulated clock: the paper's claim lives here.
    layer("core.sim_factor_s", "sim_s", "lower"),
    layer("core.sim_gpu_model_s", "sim_s", "lower"),
    layer("core.sim_gpu_pipe_s", "sim_s", "lower"),
    layer("core.sim_mgpu4_s", "sim_s", "lower"),
    layer("core.sim_ooc_s", "sim_s", "lower"),
    layer("core.sim_kernel_frac", "sim_frac", "higher"),
    layer("core.sim_copy_frac", "sim_frac", "lower"),
    layer("core.sim_assemble_frac", "sim_frac", "lower"),
    layer("core.policy_fronts.p1", "count", "lower"),
    layer("core.policy_fronts.p2", "count", "higher"),
    layer("core.policy_fronts.p3", "count", "higher"),
    layer("core.policy_fronts.p4", "count", "higher"),
    layer("core.oom_fallbacks", "count", "lower"),
    layer("core.ooc_bytes_out", "B", "lower"),
    layer("core.ooc_bytes_in", "B", "lower"),
    layer("core.ooc_evictions", "count", "lower"),
    layer("core.ooc_resident_peak_bytes", "B", "lower"),
    // gpusim: engine accounting, simulated clock.
    layer("gpusim.compute_busy_frac.gpu_model", "sim_frac", "higher"),
    layer("gpusim.copy_busy_frac.gpu_model", "sim_frac", "higher"),
    layer("gpusim.compute_busy_frac.gpu_pipe", "sim_frac", "higher"),
    layer("gpusim.copy_busy_frac.gpu_pipe", "sim_frac", "higher"),
    layer("gpusim.compute_busy_frac.mgpu4", "sim_frac", "higher"),
    layer("gpusim.copy_busy_frac.mgpu4", "sim_frac", "higher"),
    layer("gpusim.device_busy_min.mgpu4", "sim_frac", "higher"),
    layer("gpusim.peer_bytes.mgpu4", "B", "lower"),
    // runtime: cost per task, and what two workers buy per stage.
    layer("runtime.ns_per_task.w1", "ns", "lower"),
    layer("runtime.ns_per_task.w2", "ns", "lower"),
    layer("runtime.par2_speedup.analyze", "ratio", "higher"),
    layer("runtime.par2_speedup.factor", "ratio", "higher"),
    layer("runtime.par2_speedup.solve", "ratio", "higher"),
    // autotune.
    layer("autotune.dataset_s", "s", "lower"),
    layer("autotune.train_s", "s", "lower"),
    layer("autotune.regret", "ratio", "lower"),
    // server.
    layer("server.submit_cold_ms", "ms", "lower"),
    layer("server.submit_hit_ms", "ms", "lower"),
    layer("server.solve_p50_ms", "ms", "lower"),
    layer("server.solve_p95_ms", "ms", "lower"),
    layer("server.service_ms", "ms", "lower"),
    layer("server.queue_wait_p50_ms", "ms", "lower"),
    layer("server.mean_batch_rhs", "count", "higher"),
    layer("server.max_batch_rhs", "count", "higher"),
    layer("server.batches", "count", "lower"),
    layer("server.refactors", "count", "higher"),
    layer("server.rejected", "count", "lower"),
    layer("server.analysis_hit_ratio", "ratio", "higher"),
    layer("server.slo_miss_frac", "frac", "lower"),
    // matgen and the harness itself.
    layer("matgen.generate_s", "s", "lower"),
    layer("bench.generator_late_p95_ms", "ms", "lower"),
    layer("bench.trace_overhead_frac", "frac", "lower"),
    layer("bench.trace_cover_frac", "frac", "higher"),
    layer("bench.calib_drift_frac", "frac", "lower"),
];

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn benchmark_json_is_the_printed_manifest() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
    }

    #[test]
    fn names_units_and_bounds_respect_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| valid_name(n)), "invalid name");
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| valid_unit(m.unit)));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(manifest().len() < 64 << 10);
        for m in END_TO_END.iter().map(|m| m.better).chain(PER_LAYER.iter().map(|m| m.better)) {
            assert!(m == "lower" || m == "higher");
        }
    }
}
