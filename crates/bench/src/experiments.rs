//! One function per paper table/figure. Each returns a [`Report`]; the
//! `src/bin/exp_*` binaries are thin wrappers. See DESIGN.md §3 for the
//! experiment index and EXPERIMENTS.md for measured-vs-paper commentary.

use crate::config::ExpConfig;
use crate::maps::{map_agreement, render_map, TimeGrid};
use crate::report::{fmt_gf, fmt_time, Report};
use crate::suite::{rehearse, SuiteData};
use mf_autotune::{train, Objective, TrainOptions};
use mf_core::{
    durations_by_supernode, estimate_fu_time, simulate_tree_schedule, BaselineThresholds,
    MoldableModel, PolicyKind, PolicySelector, ScheduleResult,
};
use mf_dense::FuFlops;
use mf_gpusim::{exact_ops, fermi_like, tesla_t10, xeon_5160_core, KernelKind, Machine};

/// Fit baseline-hybrid thresholds from our own calibration's policy sweep —
/// the counterpart of the paper reading its transition points off Figures
/// 10/11. (The paper's literal 2e6/1.5e7/9e10 values encode *their* T10 +
/// CUBLAS-2.3 behaviour; a baseline hybrid is only meaningful with
/// thresholds fitted to the machine at hand.)
pub fn fitted_baseline(machine: &mut Machine) -> BaselineThresholds {
    let mut samples = Vec::new();
    for i in 0..70 {
        let ops_target = 10f64.powf(3.5 + i as f64 * 0.11);
        let k = ((ops_target / 20.33).powf(1.0 / 3.0)).max(1.0) as usize;
        let m = 4 * k;
        let mut times = [0.0f64; 4];
        for p in PolicyKind::ALL {
            times[p.index()] = estimate_fu_time(machine, m, k, p, false);
        }
        samples.push((FuFlops::new(m, k).total(), times));
    }
    BaselineThresholds::fit(&samples)
}

/// Lazily build the suite once per process.
pub fn suite<'a>(cfg: &ExpConfig, cache: &'a mut Option<SuiteData>) -> &'a SuiteData {
    if cache.is_none() {
        *cache = Some(SuiteData::build(cfg));
    }
    cache.as_ref().unwrap()
}

// ---------------------------------------------------------------- exp_setup

/// Tables I & II: machine model constants and the matrix suite.
pub fn exp_setup(cfg: &ExpConfig, cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_setup");
    let gpu = tesla_t10();
    let cpu = xeon_5160_core();
    r.section("Table I analogue — simulated device");
    r.line(&format!("GPU: {}", gpu.name));
    r.line(&format!(
        "  peak SP {:.0} GF/s, peak DP {:.0} GF/s",
        gpu.peak_sp / 1e9,
        gpu.peak_dp / 1e9
    ));
    r.line(&format!("  memory {} GB, tile {}", gpu.mem_bytes >> 30, gpu.tile));
    r.line(&format!(
        "  PCIe: pageable {:.1} GB/s (paper's β ≈ 1.4), pinned {:.1} GB/s, latency {:.0} µs",
        gpu.pcie.pageable_bw / 1e9,
        gpu.pcie.pinned_bw / 1e9,
        gpu.pcie.latency * 1e6
    ));
    r.line(&format!("CPU: {} — peak DP {:.0} GF/s", cpu.name, cpu.peak_dp / 1e9));

    r.section("Table II — matrix suite (paper dims vs stand-ins)");
    let s = suite(cfg, cache);
    let rows: Vec<Vec<String>> = s
        .matrices
        .iter()
        .map(|m| {
            let (pn, pnnz) = m.which.paper_dims();
            vec![
                m.name().to_string(),
                pn.to_string(),
                pnnz.to_string(),
                m.a.order().to_string(),
                m.a.nnz_lower().to_string(),
                m.analysis.symbolic.num_supernodes().to_string(),
                format!("{:.2e}", m.analysis.symbolic.total_flops()),
            ]
        })
        .collect();
    r.table(
        &["matrix", "N(paper)", "NNZ(paper)", "N(ours)", "NNZ(ours)", "supernodes", "flops"],
        &rows,
    );
    r
}

// ---------------------------------------------------------------- exp_fig2

/// Figure 2: fraction of F-U time per (m, k) bin for the CPU run and the
/// basic GPU run with/without copy time.
pub fn exp_fig2(cfg: &ExpConfig, cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_fig2");
    let s = suite(cfg, cache);
    // Merge per-supernode records across the suite.
    let bins = 8usize;
    let max_dim = s
        .matrices
        .iter()
        .flat_map(|m| m.stats[0].records.iter())
        .map(|rec| rec.m.max(rec.k))
        .max()
        .unwrap_or(1)
        + 1;
    let cell = max_dim.div_ceil(bins);
    let mut grid_cpu = vec![vec![0.0f64; bins]; bins];
    let mut grid_gpu_w = vec![vec![0.0f64; bins]; bins];
    let mut grid_gpu_wo = vec![vec![0.0f64; bins]; bins];
    let (mut tot_c, mut tot_w, mut tot_wo) = (0.0, 0.0, 0.0);
    for m in &s.matrices {
        for (rc, rg) in m.stats[0].records.iter().zip(&m.stats[2].records) {
            let im = (rc.m / cell).min(bins - 1);
            let ik = (rc.k / cell).min(bins - 1);
            grid_cpu[im][ik] += rc.total;
            tot_c += rc.total;
            grid_gpu_w[im][ik] += rg.total;
            tot_w += rg.total;
            let wo = (rg.total - rg.t_copy).max(0.0);
            grid_gpu_wo[im][ik] += wo;
            tot_wo += wo;
        }
    }
    for (name, grid, tot) in [
        ("(a) host CPU implementation", &mut grid_cpu, tot_c),
        ("(b) basic GPU incl. copy", &mut grid_gpu_w, tot_w),
        ("(c) basic GPU excl. copy", &mut grid_gpu_wo, tot_wo),
    ] {
        r.section(&format!("{name} — % of F-U time per {cell}×{cell} (m,k) bin"));
        for ik in (0..bins).rev() {
            let mut line = format!("k≈{:>5} |", ik * cell + cell / 2);
            for row in grid.iter().take(bins) {
                line.push_str(&format!(" {:5.1}", 100.0 * row[ik] / tot.max(1e-300)));
            }
            r.line(&line);
        }
        r.line("           (m grows →)");
    }
    // The paper's observation: ~97 % of calls are small.
    let total_calls: usize = s.matrices.iter().map(|m| m.stats[0].records.len()).sum();
    let small_calls: usize = s
        .matrices
        .iter()
        .flat_map(|m| m.stats[0].records.iter())
        .filter(|rec| rec.k <= 500 && rec.m <= 1000)
        .count();
    r.section("call-count concentration (paper: ~97 % with k ≤ 500, m ≤ 1000)");
    r.line(&format!(
        "{} of {} calls ({:.1} %) have k ≤ 500 and m ≤ 1000",
        small_calls,
        total_calls,
        100.0 * small_calls as f64 / total_calls as f64
    ));
    r
}

// -------------------------------------------------------------- exp_table3

/// Table III: stabilized flop rates and utilization.
pub fn exp_table3(_cfg: &ExpConfig, _cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_table3");
    let cpu = xeon_5160_core();
    let gpu = tesla_t10();
    let big = 1e13;
    r.section("average stabilized flop rates (GF/s : % of peak)");
    let rows = vec![
        vec![
            "GFlops/s".to_string(),
            fmt_gf(cpu.kernels.potrf.rate(big)),
            fmt_gf(cpu.kernels.trsm.rate(big)),
            fmt_gf(cpu.kernels.syrk.rate(big)),
            fmt_gf(gpu.kernels.trsm.rate(big)),
            fmt_gf(gpu.kernels.syrk.rate(big)),
        ],
        vec![
            "%Peak".to_string(),
            format!("{:.1}", 100.0 * cpu.kernels.potrf.rate(big) / cpu.peak_dp),
            format!("{:.1}", 100.0 * cpu.kernels.trsm.rate(big) / cpu.peak_dp),
            format!("{:.1}", 100.0 * cpu.kernels.syrk.rate(big) / cpu.peak_dp),
            format!("{:.1}", 100.0 * gpu.kernels.trsm.rate(big) / gpu.peak_sp),
            format!("{:.1}", 100.0 * gpu.kernels.syrk.rate(big) / gpu.peak_sp),
        ],
    ];
    r.table(&["", "potrf(CPU)", "trsm(CPU)", "syrk(CPU)", "trsm(GPU)", "syrk(GPU)"], &rows);
    r.line("");
    r.line("paper Table III: 8.84 / 9.24 / 10.02 / 153.7 / 159.69 GF/s");
    r.line("paper %peak:     73.7 / 76.99 / 83.49 / 24.63 / 25.59");
    r
}

// ---------------------------------------------------------------- exp_fig3

/// Figure 3: theoretical (Eqs. 1–2) vs observed basic-GPU speedup.
pub fn exp_fig3(cfg: &ExpConfig, cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_fig3");
    let s = suite(cfg, cache);
    let cpu = xeon_5160_core();
    let gpu = tesla_t10();
    let big = 1e13;
    let (a_p, a_t, a_s) =
        (cpu.kernels.potrf.rate(big), cpu.kernels.trsm.rate(big), cpu.kernels.syrk.rate(big));
    let (g_t, g_s) = (gpu.kernels.trsm.rate(big), gpu.kernels.syrk.rate(big));
    let beta = gpu.pcie.pageable_bw;
    r.section("theoretical (Eq. 1/2, asymptotic rates) vs observed speedup per ops decade");
    let mut bins: Vec<(f64, Vec<f64>, Vec<f64>)> =
        (4..12).map(|e| (10f64.powi(e), Vec::new(), Vec::new())).collect();
    for m in &s.matrices {
        for (rc, rg) in m.stats[0].records.iter().zip(&m.stats[2].records) {
            let f = FuFlops::new(rc.m, rc.k);
            let ops = f.total();
            // Eq. 1 & 2 (data sizes in f32 bytes).
            let t_cpu = f.potrf / a_p + f.trsm / a_t + f.syrk / a_s;
            let nd1 = 4.0 * ((rc.k * rc.k + 2 * rc.m * rc.k) as f64);
            let nd2 = 4.0 * ((rc.m * rc.m) as f64);
            let t_gpu = f.potrf / a_p + f.trsm / g_t + f.syrk / g_s + (nd1 + nd2) / beta;
            let theo = t_cpu / t_gpu;
            let obs = rc.total / rg.total;
            for (hi, ts, os) in bins.iter_mut() {
                if ops <= *hi {
                    ts.push(theo);
                    os.push(obs);
                    break;
                }
            }
        }
    }
    let rows: Vec<Vec<String>> = bins
        .iter()
        .filter(|(_, t, _)| !t.is_empty())
        .map(|(hi, t, o)| {
            let avg = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
            vec![
                format!("≤{hi:.0e}"),
                t.len().to_string(),
                format!("{:.2}", avg(t)),
                format!("{:.2}", avg(o)),
            ]
        })
        .collect();
    r.table(&["ops bin", "calls", "theoretical ×", "observed ×"], &rows);
    r.line("");
    r.line("(observed trails theory for small/moderate calls — rates are far");
    r.line(" from asymptotic there, exactly the paper's point in Fig. 3)");
    r
}

// ---------------------------------------------------------------- exp_fig4

/// Figure 4: flop-rate ramp vs op count for large trsm/syrk calls.
pub fn exp_fig4(_cfg: &ExpConfig, _cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_fig4");
    let cpu = xeon_5160_core();
    let gpu = tesla_t10();
    r.section("achieved rate (GF/s) vs op count");
    let mut rows = Vec::new();
    for e in 2..12 {
        let ops = 10f64.powi(e);
        rows.push(vec![
            format!("1e{e}"),
            fmt_gf(cpu.kernels.syrk.rate(ops)),
            fmt_gf(cpu.kernels.trsm.rate(ops)),
            fmt_gf(gpu.kernels.syrk.rate(ops)),
            fmt_gf(gpu.kernels.trsm.rate(ops)),
        ]);
    }
    r.table(&["ops", "syrk-CPU", "trsm-CPU", "syrk-GPU", "trsm-GPU"], &rows);
    r.line("");
    r.line("(GPU curves ramp much later than CPU — the shape of Fig. 4)");
    r
}

// --------------------------------------------------------------- exp_fig56

/// Figures 5 & 6: component timings and fractional timings vs total ops.
pub fn exp_fig56(cfg: &ExpConfig, cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_fig56");
    let s = suite(cfg, cache);
    for (variant, pidx) in [("host CPU (P1)", 0usize), ("basic GPU (P3)", 2usize)] {
        r.section(&format!("{variant}: mean component time (µs) per ops decade"));
        let mut bins: Vec<(f64, Vec<[f64; 4]>)> =
            (3..12).map(|e| (10f64.powi(e), Vec::new())).collect();
        for m in &s.matrices {
            for rec in &m.stats[pidx].records {
                let ops = FuFlops::new(rec.m, rec.k).total();
                for (hi, v) in bins.iter_mut() {
                    if ops <= *hi {
                        v.push([rec.t_potrf, rec.t_trsm, rec.t_syrk, rec.t_copy]);
                        break;
                    }
                }
            }
        }
        let mut rows = Vec::new();
        for (hi, v) in &bins {
            if v.is_empty() {
                continue;
            }
            let n = v.len() as f64;
            let sum: [f64; 4] = v.iter().fold([0.0; 4], |mut a, x| {
                for i in 0..4 {
                    a[i] += x[i];
                }
                a
            });
            let total: f64 = sum.iter().sum();
            rows.push(vec![
                format!("≤{hi:.0e}"),
                v.len().to_string(),
                format!("{:.1}", sum[0] / n * 1e6),
                format!("{:.1}", sum[1] / n * 1e6),
                format!("{:.1}", sum[2] / n * 1e6),
                format!("{:.1}", sum[3] / n * 1e6),
                format!(
                    "{:.0}/{:.0}/{:.0}/{:.0}",
                    100.0 * sum[0] / total.max(1e-300),
                    100.0 * sum[1] / total.max(1e-300),
                    100.0 * sum[2] / total.max(1e-300),
                    100.0 * sum[3] / total.max(1e-300)
                ),
            ]);
        }
        r.table(&["ops bin", "calls", "potrf", "trsm", "syrk", "copy", "%frac p/t/s/c"], &rows);
    }
    r
}

// -------------------------------------------------------------- exp_table4

/// Table IV: total potrf time and its share of the three variants.
pub fn exp_table4(cfg: &ExpConfig, cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_table4");
    let s = suite(cfg, cache);
    r.section("potrf totals and share of all F-U time (cf. paper Table IV)");
    let mut rows = Vec::new();
    for m in &s.matrices {
        let potrf_cpu: f64 = m.stats[0].records.iter().map(|x| x.t_potrf).sum();
        let host_total: f64 = m.stats[0].records.iter().map(|x| x.total).sum();
        let gpu_total_w: f64 = m.stats[2].records.iter().map(|x| x.total).sum();
        let gpu_total_wo: f64 =
            m.stats[2].records.iter().map(|x| (x.total - x.t_copy).max(0.0)).sum();
        let potrf_gpu_run: f64 = m.stats[2].records.iter().map(|x| x.t_potrf).sum();
        rows.push(vec![
            m.name().to_string(),
            fmt_time(potrf_cpu),
            format!("{:.2}", 100.0 * potrf_cpu / host_total),
            format!("{:.2}", 100.0 * potrf_gpu_run / gpu_total_wo),
            format!("{:.2}", 100.0 * potrf_gpu_run / gpu_total_w),
        ]);
    }
    r.table(&["matrix", "potrf time", "%Host", "%GPU w/o copy", "%GPU w/ copy"], &rows);
    r.line("");
    r.line("paper: %Host 5–8, %GPU w/o copy 40–56, %GPU w/ copy 24–46");
    // Root-heavy concentration of potrf time.
    r.section("potrf concentration near the root (paper: top-10 calls ≈ 96 % for kyushu)");
    for m in &s.matrices {
        let mut p: Vec<f64> = m.stats[0].records.iter().map(|x| x.t_potrf).collect();
        p.sort_by(|a, b| b.total_cmp(a));
        let total: f64 = p.iter().sum();
        let top10: f64 = p.iter().take(10).sum();
        r.line(&format!(
            "{}: top-10 potrf calls hold {:.1} % of potrf time",
            m.name(),
            100.0 * top10 / total.max(1e-300)
        ));
    }
    r
}

// ---------------------------------------------------------------- exp_fig7/8

/// Figures 7 & 8: per-kernel CPU/GPU rate curves with transition points.
pub fn exp_fig78(_cfg: &ExpConfig, _cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_fig78");
    let cpu = xeon_5160_core();
    let gpu = tesla_t10();

    // trsm: shapes with m = 8k (typical panel aspect).
    r.section("Fig. 7 — trsm flop rate (GF/s), shapes m = 8k");
    let mut rows = Vec::new();
    let mut cross_wo = None;
    let mut cross_w = None;
    let mut prev: Option<(bool, bool)> = None;
    for i in 0..60 {
        let ops = 10f64.powf(3.0 + i as f64 * 0.15);
        let k = (ops / 8.0).powf(1.0 / 3.0);
        let m = 8.0 * k;
        let t_cpu = cpu.kernels.trsm.time(ops);
        let t_gpu = gpu.kernels.trsm.time(ops);
        let bytes = (4.0 * (k * k + 2.0 * m * k)) as usize;
        let t_gpu_w = t_gpu + gpu.pcie.time(bytes, false);
        let state = (t_gpu < t_cpu, t_gpu_w < t_cpu);
        if let Some(p) = prev {
            if state.0 != p.0 && cross_wo.is_none() {
                cross_wo = Some(ops);
            }
            if state.1 != p.1 && cross_w.is_none() {
                cross_w = Some(ops);
            }
        }
        prev = Some(state);
        if i % 6 == 0 {
            rows.push(vec![
                format!("{ops:.1e}"),
                fmt_gf(ops / t_cpu),
                fmt_gf(ops / t_gpu_w),
                fmt_gf(ops / t_gpu),
            ]);
        }
    }
    r.table(&["ops", "CPU", "GPU w/ copy", "GPU w/o copy"], &rows);
    r.line(&format!(
        "transition points: w/o copy ≈ {:.1e} (paper ~4e5), w/ copy ≈ {:.1e} (paper ~3e6)",
        cross_wo.unwrap_or(f64::NAN),
        cross_w.unwrap_or(f64::NAN)
    ));

    // syrk: shapes n × k with k = n/4.
    r.section("Fig. 8 — syrk flop rate (GF/s), shapes k = n/4");
    let mut rows = Vec::new();
    let mut cross_wo = None;
    let mut prev: Option<bool> = None;
    for i in 0..60 {
        let ops = 10f64.powf(3.0 + i as f64 * 0.15);
        // ops = n²k with k = n/4 ⇒ n = (4·ops)^(1/3)
        let n = (4.0 * ops).powf(1.0 / 3.0);
        let t_cpu = cpu.kernels.syrk.time(ops);
        let t_gpu = gpu.kernels.syrk.time(ops);
        let bytes = (4.0 * n * n) as usize;
        let t_gpu_w = t_gpu + gpu.pcie.time(bytes, false);
        if let Some(p) = prev {
            if (t_gpu < t_cpu) != p && cross_wo.is_none() {
                cross_wo = Some(ops);
            }
        }
        prev = Some(t_gpu < t_cpu);
        if i % 6 == 0 {
            rows.push(vec![
                format!("{ops:.1e}"),
                fmt_gf(ops / t_cpu),
                fmt_gf(ops / t_gpu_w),
                fmt_gf(ops / t_gpu),
            ]);
        }
    }
    r.table(&["ops", "CPU", "GPU w/ copy", "GPU w/o copy"], &rows);
    r.line(&format!("transition w/o copy ≈ {:.1e} (paper ~1.5e5)", cross_wo.unwrap_or(f64::NAN)));
    // The ambiguous with-copy band: winner depends on aspect ratio.
    let ops = 3.0e6;
    let t_cpu = cpu.kernels.syrk.time(ops);
    let thin = {
        let n = (ops / 8.0).sqrt();
        gpu.kernels.syrk.time(ops) + gpu.pcie.time((4.0 * n * n) as usize, false)
    };
    let fat = {
        let n = (ops / 128.0).sqrt();
        gpu.kernels.syrk.time(ops) + gpu.pcie.time((4.0 * n * n) as usize, false)
    };
    r.line(&format!(
        "w/ copy at 3e6 ops: CPU {} | GPU thin-k {} | GPU fat-k {}  (no clear winner in 1e6–1e7, as in the paper)",
        fmt_time(t_cpu),
        fmt_time(thin),
        fmt_time(fat)
    ));
    r
}

// -------------------------------------------------------------- exp_table5

/// Table V: potrf-on-GPU (panel algorithm) speedup at root fronts (m = 0).
pub fn exp_table5(cfg: &ExpConfig, cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_table5");
    let s = suite(cfg, cache);
    let mut machine = Machine::paper_node();
    r.section("root-front potrf (m = 0): CPU vs GPU panel algorithm (cf. Table V)");
    let mut rows = Vec::new();
    for m in &s.matrices {
        // Largest m = 0 front of the matrix (the elimination-tree root).
        let k = m
            .analysis
            .symbolic
            .supernodes
            .iter()
            .filter(|sn| sn.m() == 0)
            .map(|sn| sn.k())
            .max()
            .unwrap_or(0);
        let ops = exact_ops(KernelKind::Potrf, 0, k, 0);
        let t_cpu = estimate_fu_time(&mut machine, 0, k, PolicyKind::P1, false);
        let t_gpu = estimate_fu_time(&mut machine, 0, k, PolicyKind::P4, false);
        rows.push(vec![
            m.name().to_string(),
            k.to_string(),
            fmt_gf(ops / t_cpu),
            fmt_gf(ops / t_gpu),
            format!("{:.2}", t_cpu / t_gpu),
        ]);
    }
    r.table(&["matrix", "k (m=0)", "CPU GF/s", "GPU GF/s", "speedup"], &rows);
    r.line("");
    r.line("paper: CPU ~9 GF/s, GPU 68–124 GF/s, speedup 7.7–13.1");
    r
}

// ------------------------------------------------------------- exp_fig1011

/// Figures 10 & 11: flop rate and speedup of P1–P4 vs total ops.
pub fn exp_fig1011(_cfg: &ExpConfig, _cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_fig1011");
    let mut machine = Machine::paper_node();
    r.section("per-policy F-U flop rate (GF/s) and speedup vs P1, shapes m = 4k");
    let mut rows = Vec::new();
    let mut best_switches: Vec<(f64, PolicyKind)> = Vec::new();
    let mut last_best = None;
    for i in 0..40 {
        let ops = 10f64.powf(4.0 + i as f64 * 0.2);
        // ops ≈ k³/3 + 4k·k² + 16k²·k = k³(1/3 + 4 + 16) ⇒ k = (ops/20.33)^(1/3)
        let k = ((ops / 20.33).powf(1.0 / 3.0)).max(1.0) as usize;
        let m = 4 * k;
        let t: Vec<f64> = PolicyKind::ALL
            .iter()
            .map(|&p| estimate_fu_time(&mut machine, m, k, p, false))
            .collect();
        let actual_ops = FuFlops::new(m, k).total();
        let best = PolicyKind::from_index((0..4).min_by(|&a, &b| t[a].total_cmp(&t[b])).unwrap());
        if last_best != Some(best) {
            best_switches.push((actual_ops, best));
            last_best = Some(best);
        }
        if i % 4 == 0 {
            rows.push(vec![
                format!("{actual_ops:.1e}"),
                fmt_gf(actual_ops / t[0]),
                fmt_gf(actual_ops / t[1]),
                fmt_gf(actual_ops / t[2]),
                fmt_gf(actual_ops / t[3]),
                format!("{:.2}", t[0] / t[1]),
                format!("{:.2}", t[0] / t[2]),
                format!("{:.2}", t[0] / t[3]),
            ]);
        }
    }
    r.table(&["ops", "P1 GF", "P2 GF", "P3 GF", "P4 GF", "×P2", "×P3", "×P4"], &rows);
    r.section("best-policy transitions along the sweep (basis of the baseline hybrid)");
    for (ops, p) in &best_switches {
        r.line(&format!("  {p} from ≈ {ops:.2e} ops"));
    }
    let fitted = fitted_baseline(&mut machine);
    r.line(&format!(
        "fitted thresholds (ours): P1 < {:.1e} ≤ P2 < {:.1e} ≤ P3 < {:.1e} ≤ P4",
        fitted.t12, fitted.t23, fitted.t34
    ));
    r.line("");
    r.line("paper: P1 < 2e6 < P2 < 1.5e7 < P3 < 9e10 < P4");
    r
}

// ------------------------------------------------------------- exp_fig1213

/// Figures 12 & 13: ideal / model / baseline policy maps.
pub fn exp_fig1213(cfg: &ExpConfig, cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_fig1213");
    let s = suite(cfg, cache);
    let mut machine = Machine::paper_node();
    for (title, cell, cells) in [
        ("Fig. 12 — 0 ≤ m,k ≤ 1000", 1000 / 25, 25usize),
        ("Fig. 13 — 0 ≤ m,k ≤ 10000", 10_000 / 25, 25usize),
    ] {
        let grid = TimeGrid::compute(&mut machine, cell, cells, false);
        let ideal = grid.ideal_map();
        let model = grid.model_map(&s.model);
        let fitted = fitted_baseline(&mut machine);
        let baseline = grid.baseline_map(&fitted);
        r.section(&format!("{title} — ideal map"));
        r.line(&render_map(&ideal));
        r.section(&format!("{title} — model map"));
        r.line(&render_map(&model));
        r.section(&format!("{title} — baseline map"));
        r.line(&render_map(&baseline));
        r.line(&format!(
            "agreement with ideal: model {:.1} %, baseline {:.1} %",
            100.0 * map_agreement(&ideal, &model),
            100.0 * map_agreement(&ideal, &baseline)
        ));
        r.line(&format!(
            "density-weighted expected time: ideal {:.3e}, model {:.3e}, baseline {:.3e}",
            grid.weighted_time(&ideal),
            grid.weighted_time(&model),
            grid.weighted_time(&baseline)
        ));
    }
    r
}

// --------------------------------------------------------------- exp_fig14

/// Figure 14: speedup (vs P1) heatmaps of the three hybrids.
pub fn exp_fig14(cfg: &ExpConfig, cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_fig14");
    let s = suite(cfg, cache);
    let mut machine = Machine::paper_node();
    let cells = 20usize;
    let cell = 10_000 / cells;
    let grid = TimeGrid::compute(&mut machine, cell, cells, false);
    let fitted = fitted_baseline(&mut machine);
    let maps = [
        ("ideal", grid.ideal_map()),
        ("model", grid.model_map(&s.model)),
        ("baseline", grid.baseline_map(&fitted)),
    ];
    for (name, map) in &maps {
        let sp = grid.speedup_map(map);
        r.section(&format!("{name} hybrid — speedup vs P1 per (m,k) cell"));
        for ik in (0..cells).rev() {
            let mut line = format!("k≈{:>5} |", ik * cell + cell / 2);
            for row in sp.iter().take(cells) {
                line.push_str(&format!(" {:4.1}", row[ik]));
            }
            r.line(&line);
        }
        r.line("          (m grows →)");
        let max = sp.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
        r.line(&format!("max speedup {max:.1}× (paper: 12–13× at the largest fronts)"));
    }
    r
}

// -------------------------------------------------------------- exp_table7

/// Table VII: end-to-end factorization speedups, every column.
pub fn exp_table7(cfg: &ExpConfig, cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_table7");
    let s = suite(cfg, cache);
    r.section("speedup w.r.t. single-thread CPU factorization (cf. paper Table VII)");
    let mut rows = Vec::new();
    // Bounds of a molded list schedule: never slower than serial, and a
    // dependency chain shrinks by at most the widest task's molded speedup
    // (the 4-Thread column beats the unmolded critical path, so the plain
    // `critical_path ≤ makespan` of a width-1 schedule does not apply).
    let molding = MoldableModel::default();
    let bounded = |sr: &ScheduleResult, name: &str, w: usize| {
        let widest = (w as f64).powf(molding.efficiency);
        assert!(
            sr.critical_path <= sr.makespan * widest * (1.0 + 1e-9)
                && sr.makespan <= sr.serial_time * (1.0 + 1e-9),
            "schedule invariant cp / w^eff ≤ makespan ≤ serial violated on {name} at w={w}"
        );
    };
    let fitted = fitted_baseline(&mut Machine::paper_node());
    // Copy-optimized model: retrain on copy-optimized P4 timings.
    for m in &s.matrices {
        let t1 = m.t_serial();
        let sp = |t: f64| format!("{:.2}", t1 / t);

        let t2 = m.stats[1].total_time;
        let t3 = m.stats[2].total_time;
        let t4 = m.stats[3].total_time;
        let ideal = m.run_ideal().total_time;
        let model = m.run_with(PolicySelector::Model(s.model.clone()), false).total_time;
        let baseline = m.run_with(PolicySelector::Baseline(fitted), false).total_time;
        let baseline_paper_thr =
            m.run_with(PolicySelector::Baseline(BaselineThresholds::default()), false).total_time;

        // 4-thread CPU: list schedule of P1 per-supernode durations.
        let (d_by_sn, o_by_sn) = durations_by_supernode(&m.analysis.symbolic, &m.stats[0]);
        let sched4 =
            simulate_tree_schedule(&m.analysis.symbolic, &d_by_sn, &o_by_sn, 4, Some(molding));
        bounded(&sched4, m.name(), 4);

        // Copy-optimized single-GPU model hybrid.
        let co_stats = {
            // Re-run P4 with copy optimization to rebuild the dataset column.
            let p4co = m.run_with(PolicySelector::Fixed(PolicyKind::P4), true);
            let runs = [&m.stats[0], &m.stats[1], &m.stats[2], &p4co];
            let ds = mf_autotune::Dataset::from_policy_runs(&runs);
            let co_model = train(&ds, &TrainOptions { iterations: 400, ..Default::default() });
            m.run_with(PolicySelector::Model(co_model), true)
        };
        let co_1gpu = co_stats.total_time;
        // 2-GPU: schedule the same run's copy-optimized model durations on
        // two GPU-equipped workers.
        let (d2, o2) = durations_by_supernode(&m.analysis.symbolic, &co_stats);
        let sched2g = simulate_tree_schedule(&m.analysis.symbolic, &d2, &o2, 2, Some(molding));
        bounded(&sched2g, m.name(), 2);

        // Real multi-device runs (not a schedule-model estimate): the
        // multi-GPU driver on 2 and 4 simulated devices under the model
        // hybrid, with peer-copy extend-add and cross-device look-ahead.
        let mg2 = m.run_multigpu(PolicySelector::Model(s.model.clone()), 2).total_time;
        let mg4 = m.run_multigpu(PolicySelector::Model(s.model.clone()), 4).total_time;

        rows.push(vec![
            m.name().to_string(),
            sp(t2),
            sp(t3),
            sp(t4),
            sp(ideal),
            sp(model),
            sp(baseline),
            sp(baseline_paper_thr),
            format!("{:.2}", sched4.speedup()),
            sp(co_1gpu),
            format!("{:.2}", t1 / sched2g.makespan),
            sp(mg2),
            sp(mg4),
        ]);
    }
    r.table(
        &[
            "matrix",
            "P2",
            "P3",
            "P4",
            "Ideal",
            "Model",
            "Baseline",
            "Base(paper-thr)",
            "4-Thread",
            "CO-1GPU",
            "CO-2GPU",
            "MG-2GPU",
            "MG-4GPU",
        ],
        &rows,
    );
    r.line("");
    r.line("paper ranges: P2 2.3–2.6 | P3 3.9–6.1 | P4 3.2–7.3 | Ideal 5.4–9.6 |");
    r.line("  Model 5.3–9.5 | Baseline 4.9–8.7 | 4-Thread 2.7–4.3 | CO-1GPU 5.9–9.9 | CO-2GPU 10.7–25.6");
    r.line("Baseline uses thresholds fitted to OUR calibration (the paper's method);");
    r.line("Base(paper-thr) shows the paper's literal 2e6/1.5e7/9e10 thresholds, which");
    r.line("encode their hardware's crossovers and never reach P4 at our scale.");
    r.line("CO-2GPU is the paper's estimate style (copy-optimized durations on a 2-worker");
    r.line("schedule model); MG-2GPU/MG-4GPU run the actual multi-GPU driver — proportional");
    r.line("subtree mapping, peer-copy extend-add, cross-device look-ahead (DESIGN.md §4.13).");

    // The columns above are all *simulated* quantities (virtual machine
    // clocks / schedule-model makespans). This section runs the real
    // work-stealing runtime and reports measured elapsed seconds — a
    // host-dependent number, bounded by the hardware thread count.
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    r.section(&format!(
        "measured wall-clock of the work-stealing runtime ({threads} hardware thread(s) on this host)"
    ));
    let mut wrows = Vec::new();
    for m in &s.matrices {
        let serial = m.measured_serial_wall();
        let mut row = vec![m.name().to_string(), format!("{:.1}", serial * 1e3)];
        for w in [2usize, 4] {
            let par = m.measured_parallel_wall(w);
            row.push(format!("{:.1} ({:.2}x)", par * 1e3, serial / par));
        }
        wrows.push(row);
    }
    r.table(&["matrix", "serial ms", "2 workers ms", "4 workers ms"], &wrows);
    r.line("measured speedups track the simulated 4-Thread column only when the host");
    r.line("has free hardware threads; on a single-core host they stay near 1x.");

    // GPU engine accounting: how busy the simulated device is under the
    // drain-per-front P4 driver vs the pipelined dispatch layer — makespan
    // alongside compute/copy utilization, per matrix.
    r.section("GPU utilization — drain-per-front vs pipelined dispatch (fixed P4)");
    let mut urows = Vec::new();
    for m in &s.matrices {
        let drain = m.run_with(PolicySelector::Fixed(PolicyKind::P4), false);
        let piped = m.run_pipelined(PolicySelector::Fixed(PolicyKind::P4), false);
        let (gd, gp) =
            (drain.gpu.expect("paper node has a GPU"), piped.gpu.expect("paper node has a GPU"));
        urows.push(vec![
            m.name().to_string(),
            format!("{:.2}", drain.total_time * 1e3),
            format!(
                "{:.0}%/{:.0}%",
                gd.compute_utilization() * 100.0,
                gd.copy_utilization() * 100.0
            ),
            format!("{:.2}", piped.total_time * 1e3),
            format!(
                "{:.0}%/{:.0}%",
                gp.compute_utilization() * 100.0,
                gp.copy_utilization() * 100.0
            ),
            format!("{:.2}", drain.total_time / piped.total_time),
        ]);
    }
    r.table(
        &["matrix", "drain ms", "drain cu/cp", "pipelined ms", "piped cu/cp", "speedup"],
        &urows,
    );
    r.line("cu/cp = compute / copy engine busy fraction of the makespan; the pipelined");
    r.line("driver keeps the factor bitwise identical while shrinking engine idle gaps.");
    r
}

// -------------------------------------------------------- exp_tile_ablation

/// §V-A3: tuning BLAS tile parameters gains little.
pub fn exp_tile_ablation(_cfg: &ExpConfig, _cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_tile_ablation");
    r.section("GPU tile-size sensitivity of a large syrk (paper: < 0.5 % over 17 configs)");
    let mut rows = Vec::new();
    let base = {
        let gpu = tesla_t10();
        let eff = gpu.effective_ops(KernelKind::Syrk, 0, 4000, 500);
        gpu.kernels.syrk.time(eff)
    };
    for tile in [8usize, 16, 32, 64, 96, 128] {
        let mut gpu = tesla_t10();
        gpu.tile = tile;
        let eff = gpu.effective_ops(KernelKind::Syrk, 0, 4000, 500);
        let t = gpu.kernels.syrk.time(eff);
        rows.push(vec![
            tile.to_string(),
            fmt_time(t),
            format!("{:+.2}", 100.0 * (t - base) / base),
        ]);
    }
    r.table(&["tile", "syrk(4000,500)", "% vs tile=32"], &rows);
    r
}

// ------------------------------------------------------------ exp_ablations

/// Design-choice ablations beyond the paper's tables.
pub fn exp_ablations(cfg: &ExpConfig, cache: &mut Option<SuiteData>) -> Report {
    let mut r = Report::new("exp_ablations");
    let s = suite(cfg, cache);
    let m = &s.matrices[0];

    r.section("pinned-buffer reuse (§V-A2) vs allocate-per-call");
    let with_reuse = m.run_with(PolicySelector::Fixed(PolicyKind::P3), false);
    let no_reuse = rehearse(
        &m.analysis,
        &mf_core::FactorOptions {
            selector: PolicySelector::Fixed(PolicyKind::P3),
            pinned_reuse: false,
            record_stats: true,
            ..Default::default()
        },
    );
    r.line(&format!(
        "P3 on {}: reuse {} vs allocate-per-call {} ({:.2}× slower without reuse)",
        m.name(),
        fmt_time(with_reuse.total_time),
        fmt_time(no_reuse.total_time),
        no_reuse.total_time / with_reuse.total_time
    ));

    r.section("cost-sensitive (Eq. 3) vs cross-entropy training");
    let ce_model = train(
        &s.merged,
        &TrainOptions { objective: Objective::CrossEntropy, iterations: 800, ..Default::default() },
    );
    let t_ec = s.merged.predictor_time(|mm, kk| s.model.predict(mm, kk));
    let t_ce = s.merged.predictor_time(|mm, kk| ce_model.predict(mm, kk));
    let t_id = s.merged.ideal_time();
    r.line(&format!(
        "dataset expected time: ideal {}, expected-cost {} ({:+.1} % vs ideal), cross-entropy {} ({:+.1} %)",
        fmt_time(t_id),
        fmt_time(t_ec),
        100.0 * (t_ec / t_id - 1.0),
        fmt_time(t_ce),
        100.0 * (t_ce / t_id - 1.0)
    ));

    r.section("feature ablation: ops-threshold only vs full feature vector");
    let best_threshold = {
        // Fit a single P1→P3 switch by sweep (1-D baseline-style selector).
        let mut best = (f64::INFINITY, 0.0);
        for e in 0..60 {
            let thr = 10f64.powf(3.0 + e as f64 * 0.15);
            let t = s.merged.predictor_time(|mm, kk| {
                if FuFlops::new(mm, kk).total() < thr {
                    PolicyKind::P1
                } else {
                    PolicyKind::P3
                }
            });
            if t < best.0 {
                best = (t, thr);
            }
        }
        best
    };
    r.line(&format!(
        "best single threshold (P1/P3 at {:.1e} ops): {} vs model {} — model {:+.1} % better",
        best_threshold.1,
        fmt_time(best_threshold.0),
        fmt_time(t_ec),
        100.0 * (1.0 - t_ec / best_threshold.0)
    ));

    r.section("adaptation to a different device (Fermi-like preset)");
    let mut fermi = Machine::with_gpu(xeon_5160_core(), fermi_like());
    let mut t10 = Machine::paper_node();
    let grid_f = TimeGrid::compute(&mut fermi, 50, 12, false);
    let grid_t = TimeGrid::compute(&mut t10, 50, 12, false);
    let ideal_f = grid_f.ideal_map();
    let ideal_t = grid_t.ideal_map();
    let moved = 1.0 - map_agreement(&ideal_f, &ideal_t);
    r.line(&format!(
        "ideal policy map changes on {:.1} % of cells when swapping T10 → Fermi-like — \
         retraining adapts automatically (the paper's portability claim)",
        100.0 * moved
    ));

    r.section("supernode amalgamation on/off");
    {
        let a = &m.a;
        let plain =
            mf_sparse::symbolic::analyze(a, mf_sparse::OrderingKind::NestedDissection, None)
                .unwrap();
        let amal = &m.analysis;
        r.line(&format!(
            "supernodes: {} (fundamental) → {} (amalgamated); factor nnz {} → {}",
            plain.symbolic.num_supernodes(),
            amal.symbolic.num_supernodes(),
            plain.symbolic.factor_nnz(),
            amal.symbolic.factor_nnz()
        ));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cheap_experiments_produce_reports() {
        let cfg = ExpConfig::test_small();
        let mut cache = None;
        for f in [exp_table3, exp_fig4, exp_fig78, exp_tile_ablation] {
            let rep = f(&cfg, &mut cache);
            assert!(rep.text().len() > 100);
        }
    }

    #[test]
    fn fig78_reports_transitions_near_paper_values() {
        let cfg = ExpConfig::test_small();
        let mut cache = None;
        let rep = exp_fig78(&cfg, &mut cache);
        assert!(rep.text().contains("transition"));
    }
}
