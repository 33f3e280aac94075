//! Wall-clock benchmark of the analysis (symbolic) phase against the
//! numeric factorization, plus the parallel-analysis scaling study.
//!
//! `BENCH_symbolic.json` reports, per matrix:
//!
//! * **symbolic_ms / numeric_ms / symbolic_share** — how much of an
//!   analyze-then-factor run the symbolic phase costs. This is the share
//!   Amdahl charges a one-shot solve when only the numeric phase is
//!   parallel, i.e. the motivation for `analyze_parallel`.
//! * **measured** — wall-clock of `analyze_parallel` at several worker
//!   counts, with the speedup over the serial `analyze`.
//! * **simulated** — a deterministic critical-path model of the supernodal
//!   task DAG (the same `TaskGraph::from_parents` shape the parallel
//!   symbolic factorization runs on): speedup at `w` workers is
//!   `T_total / max(T_critical, T_total / w)`.
//!
//! * **stages** — beside those order-≈1000 rows, a wall-clock table of the
//!   six analysis stages (order / permute / etree / colcount / supernodes /
//!   symbolic, median ms over [`STAGE_REPS`] runs) on a 9-point plate 400²
//!   and a 27-point cube 30³, where a stage takes milliseconds rather than
//!   microseconds. The staged run's fingerprint must equal the one-call
//!   analysis'.
//!
//! The bench doubles as a CI gate: `main` asserts, before any timing, that
//! `analyze_parallel` produces a fingerprint byte-identical to the serial
//! analysis at 1/2/4/8 workers on every suite matrix, and the JSON writer
//! asserts the simulated multi-worker speedup exceeds 1×. Either failure
//! panics, which fails the `cargo bench` step in ci.sh.

use criterion::{criterion_group, BenchmarkId, Criterion};
use mf_core::{factor_permuted, BaselineThresholds, FactorOptions, PolicySelector};
use mf_gpusim::Machine;
use mf_matgen::{laplacian_2d, laplacian_3d, PaperMatrix, Stencil};
use mf_sparse::symbolic::{analyze, analyze_parallel, Analysis, SymCscF64Holder, SymbolicFactor};
use mf_sparse::{
    amalgamate, column_counts, elimination_tree, fundamental_supernodes, order, symbolic_factor,
    AmalgamationOptions, OrderingKind, SymCsc,
};
use std::time::Instant;

const WORKER_COUNTS: [usize; 2] = [2, 4];
const FINGERPRINT_WORKERS: [usize; 4] = [1, 2, 4, 8];
const STAGES: [&str; 6] = ["order", "permute", "etree", "colcount", "supernodes", "symbolic"];
const STAGE_REPS: usize = 5;

fn suite() -> Vec<(&'static str, SymCsc<f64>)> {
    let scale =
        std::env::var("MF_BENCH_SCALE").ok().and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.30);
    vec![
        ("sgi_1M", PaperMatrix::Sgi1M.generate_scaled(scale)),
        ("audikw_1", PaperMatrix::Audikw1.generate_scaled(scale)),
    ]
}

fn analysis_of(a: &SymCsc<f64>) -> Analysis {
    analyze(a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
        .expect("suite matrices have full diagonals")
}

fn bench_symbolic(c: &mut Criterion) {
    let mut g = c.benchmark_group("symbolic");
    for (name, a) in suite() {
        g.bench_with_input(BenchmarkId::new("analyze_serial", name), &(), |be, _| {
            be.iter(|| analysis_of(&a))
        });
        for w in WORKER_COUNTS {
            g.bench_with_input(
                BenchmarkId::new(format!("analyze_parallel_w{w}"), name),
                &w,
                |be, &w| {
                    be.iter(|| {
                        analyze_parallel(
                            &a,
                            OrderingKind::NestedDissection,
                            Some(&AmalgamationOptions::default()),
                            w,
                        )
                        .expect("suite matrices have full diagonals")
                    })
                },
            );
        }
        // The numeric phase the symbolic share is measured against.
        let an = analysis_of(&a);
        let opts = FactorOptions {
            selector: PolicySelector::Baseline(BaselineThresholds::default()),
            ..Default::default()
        };
        g.bench_with_input(BenchmarkId::new("numeric_factor", name), &(), |be, _| {
            be.iter(|| {
                let mut machine = Machine::paper_node();
                factor_permuted(&an.permuted.0, &an.symbolic, &an.perm, &mut machine, &opts)
                    .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_symbolic
}

/// Deterministic critical-path model of the parallel symbolic
/// factorization's task DAG. Each supernode's task cost is the rows it
/// touches (its own structure plus its children's update rows — the inputs
/// `supernode_row_structure` merges); the DAG is the supernodal etree, so
/// the makespan at `w` workers is bounded below by both the critical path
/// and `T_total / w`.
fn simulated_analysis_speedup(sym: &SymbolicFactor, workers: usize) -> f64 {
    let nsn = sym.num_supernodes();
    let cost: Vec<f64> = (0..nsn)
        .map(|s| {
            let child_rows: usize =
                sym.children(s).iter().map(|&c| sym.supernodes[c].front_size()).sum();
            (sym.supernodes[s].front_size() + child_rows + 1) as f64
        })
        .collect();
    let total: f64 = cost.iter().sum();
    let mut path = vec![0.0f64; nsn];
    for &s in &sym.postorder {
        let longest_child = sym.children(s).iter().map(|&c| path[c]).fold(0.0f64, f64::max);
        path[s] = cost[s] + longest_child;
    }
    let critical = path.iter().cloned().fold(0.0, f64::max);
    total / critical.max(total / workers as f64)
}

/// Run `stage`, appending its wall-clock milliseconds to `ms`.
fn timed<R>(ms: &mut Vec<f64>, stage: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let result = stage();
    ms.push(start.elapsed().as_secs_f64() * 1e3);
    result
}

/// The serial analysis as its six stage calls; returns the wall-clock
/// milliseconds of each (in [`STAGES`] order) and the assembled result.
fn staged_analysis(a: &SymCsc<f64>) -> (Vec<f64>, Analysis) {
    let mut times = Vec::with_capacity(STAGES.len());
    let ms = &mut times;
    let perm = timed(ms, || order(a, OrderingKind::NestedDissection));
    let pa = timed(ms, || perm.permute_sym(a));
    let etree = timed(ms, || elimination_tree(&pa));
    let cc = timed(ms, || column_counts(&pa, &etree));
    let part = timed(ms, || {
        let fund = fundamental_supernodes(&etree, &cc);
        amalgamate(&fund, &etree, &cc, &AmalgamationOptions::default())
    });
    let symbolic = timed(ms, || symbolic_factor(&pa, &etree, &part));
    (times, Analysis { perm, permuted: SymCscF64Holder(pa), etree, symbolic })
}

/// One JSON row per large matrix: the median wall-clock milliseconds of
/// every analysis stage. Panics (failing CI) if a staged run's fingerprint
/// differs from the one-call analysis'.
fn stage_rows() -> Vec<String> {
    let large = [
        ("plate_400x400_9pt", laplacian_2d(400, 400, Stencil::Full)),
        ("cube_30x30x30_27pt", laplacian_3d(30, 30, 30, Stencil::Full)),
    ];
    let mut rows = Vec::new();
    for (name, a) in large {
        let reference = analysis_of(&a);
        let runs: Vec<Vec<f64>> = (0..STAGE_REPS)
            .map(|_| {
                let (ms, staged) = staged_analysis(&a);
                assert_eq!(
                    staged.fingerprint(),
                    reference.fingerprint(),
                    "{name}: staged analysis fingerprint diverged from analyze"
                );
                ms
            })
            .collect();
        let mut fields = Vec::new();
        let mut total = 0.0;
        for (i, stage) in STAGES.iter().enumerate() {
            let mut samples: Vec<f64> = runs.iter().map(|ms| ms[i]).collect();
            samples.sort_by(f64::total_cmp);
            let median = samples[STAGE_REPS / 2];
            total += median;
            fields.push(format!("\"{stage}_ms\": {median:.3}"));
        }
        println!("stages: {name} {} (total {total:.1} ms)", fields.join(", "));
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"order\": {}, \"supernodes\": {}, \"reps\": {STAGE_REPS}, \
             {}, \"total_ms\": {total:.3}}}",
            a.order(),
            reference.symbolic.num_supernodes(),
            fields.join(", ")
        ));
    }
    rows
}

/// Write `BENCH_symbolic.json`: per matrix, the symbolic-vs-numeric time
/// share, measured parallel-analysis speedups, and the simulated
/// critical-path speedups. Panics (failing CI) if the simulated
/// multi-worker speedup does not exceed 1×.
fn write_bench_json() {
    let recs = criterion::records();
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"hardware_threads\": {threads},\n"));
    out.push_str(
        "  \"note\": \"symbolic_share = symbolic_ms / (symbolic_ms + numeric_ms); \
         analyze_parallel is bitwise identical to analyze at every worker count \
         (asserted before timing), so measured_speedup is a pure scheduling win\",\n",
    );
    out.push_str("  \"matrices\": [\n");
    let mut blocks: Vec<String> = Vec::new();
    for (name, a) in suite() {
        let mean_of = |id: String| {
            recs.iter().find(|r| r.group == "symbolic" && r.id == id).map(|r| r.mean_ns / 1.0e6)
        };
        let serial_ms = mean_of(format!("analyze_serial/{name}"));
        let numeric_ms = mean_of(format!("numeric_factor/{name}"));
        let share = match (serial_ms, numeric_ms) {
            (Some(s), Some(f)) if s + f > 0.0 => s / (s + f),
            _ => 0.0,
        };
        let mut measured: Vec<String> = Vec::new();
        for w in WORKER_COUNTS {
            let (Some(par_ms), Some(serial)) =
                (mean_of(format!("analyze_parallel_w{w}/{name}")), serial_ms)
            else {
                continue;
            };
            measured.push(format!(
                "        {{\"workers\": {w}, \"parallel_ms\": {par_ms:.3}, \
                 \"measured_speedup\": {:.3}}}",
                serial / par_ms
            ));
        }
        let sym = analysis_of(&a).symbolic;
        let mut simulated: Vec<String> = Vec::new();
        for w in FINGERPRINT_WORKERS {
            let s = simulated_analysis_speedup(&sym, w);
            simulated.push(format!("        {{\"workers\": {w}, \"simulated_speedup\": {s:.3}}}"));
        }
        let sim4 = simulated_analysis_speedup(&sym, 4);
        assert!(
            sim4 > 1.0,
            "{name}: supernodal task DAG must admit multi-worker parallelism \
             (simulated 4-worker speedup {sim4:.3} ≤ 1)"
        );
        blocks.push(format!(
            "    {{\"name\": \"{name}\", \"order\": {}, \"supernodes\": {}, \
             \"symbolic_ms\": {:.3}, \"numeric_ms\": {:.3}, \"symbolic_share\": {share:.4}, \
             \"measured\": [\n{}\n      ], \"simulated\": [\n{}\n      ]}}",
            a.order(),
            sym.num_supernodes(),
            serial_ms.unwrap_or(0.0),
            numeric_ms.unwrap_or(0.0),
            measured.join(",\n"),
            simulated.join(",\n")
        ));
    }
    out.push_str(&blocks.join(",\n"));
    out.push_str("\n  ],\n");
    out.push_str(
        "  \"stages_note\": \"serial analyze as its six public stage calls, wall-clock ms, \
         median over reps; every staged run's fingerprint equals analyze's (asserted)\",\n",
    );
    out.push_str("  \"stages\": [\n");
    out.push_str(&stage_rows().join(",\n"));
    out.push_str("\n  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_symbolic.json");
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote BENCH_symbolic.json ({} hardware threads)", threads);
    }
}

fn main() {
    // CI invariant, checked before any timing: the parallel analysis is
    // byte-identical to the serial one at every worker count.
    for (name, a) in suite() {
        let amalg = AmalgamationOptions::default();
        let serial = analyze(&a, OrderingKind::NestedDissection, Some(&amalg))
            .expect("suite matrices have full diagonals");
        for w in FINGERPRINT_WORKERS {
            let par = analyze_parallel(&a, OrderingKind::NestedDissection, Some(&amalg), w)
                .expect("suite matrices have full diagonals");
            assert_eq!(
                par.fingerprint(),
                serial.fingerprint(),
                "{name}: analyze_parallel({w}) fingerprint diverged from serial analyze"
            );
        }
        println!("fingerprint identity: {name} ok at workers {FINGERPRINT_WORKERS:?}");
    }
    benches();
    write_bench_json();
}
