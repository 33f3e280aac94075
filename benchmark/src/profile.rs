//! Per-layer probes shared by the workloads' traced runs: the analysis taken
//! apart into its public stage calls, structure counts, a replay of the
//! workload's own dense kernel calls, the host's measured compute and
//! bandwidth ceilings, and the runtime's per-task cost.
//!
//! Everything here calls public functions of the crates only, and every
//! timing is a span in the trace; the per-layer metrics are read back from
//! those spans.

use crate::trace::Tracer;
use crate::Layer;
use gpu_multifrontal::core::{FactorOptions, FactorStats, Precision, SolverOptions, SpdSolver};
use gpu_multifrontal::dense::{self, FuFlops, Scalar};
use gpu_multifrontal::runtime::{Runtime, TaskGraph};
use gpu_multifrontal::sparse::symbolic::SymCscF64Holder;
use gpu_multifrontal::sparse::{
    amalgamate, column_counts, column_counts_parallel, elimination_tree, fundamental_supernodes,
    order, order_parallel, symbolic_factor, symbolic_factor_parallel, AmalgamationOptions,
    Analysis, OrderingKind, SymCsc,
};
use std::hint::black_box;
use std::time::Instant;

/// The solver options every workload shares: nested dissection and default
/// amalgamation; precision and factor options vary.
pub fn solver_options(precision: Precision, factor: FactorOptions) -> SolverOptions {
    SolverOptions {
        ordering: OrderingKind::NestedDissection,
        amalgamation: Some(AmalgamationOptions::default()),
        factor,
        precision,
        analysis_workers: 0,
    }
}

pub fn elem_bytes(precision: Precision) -> usize {
    match precision {
        Precision::F64 => 8,
        Precision::F32 => 4,
    }
}

/// `analyze` (or `analyze_parallel` with `workers`) as the seven public
/// stage calls it is made of, one span each under a `sparse.analyze` span.
/// The caller asserts the fingerprint equals the one-call analysis'.
pub fn staged_analyze(
    a: &SymCsc<f64>,
    workers: Option<usize>,
    tr: &mut Tracer,
    rep: u32,
) -> Analysis {
    let kind = OrderingKind::NestedDissection;
    let amalg = AmalgamationOptions::default();
    let whole = tr.begin("sparse", "sparse.analyze", rep);
    let perm = tr.scope("sparse", "sparse.order", rep, || match workers {
        Some(w) => order_parallel(a, kind, w),
        None => order(a, kind),
    });
    let pa = tr.scope("sparse", "sparse.permute", rep, || perm.permute_sym(a));
    let etree = tr.scope("sparse", "sparse.etree", rep, || elimination_tree(&pa));
    let cc = tr.scope("sparse", "sparse.colcount", rep, || match workers {
        Some(w) => column_counts_parallel(&pa, &etree, w),
        None => column_counts(&pa, &etree),
    });
    let part = tr.scope("sparse", "sparse.supernodes", rep, || {
        let fund = fundamental_supernodes(&etree, &cc);
        amalgamate(&fund, &etree, &cc, &amalg)
    });
    let symbolic = tr.scope("sparse", "sparse.symbolic", rep, || match workers {
        Some(w) => symbolic_factor_parallel(&pa, &etree, &part, w),
        None => symbolic_factor(&pa, &etree, &part),
    });
    tr.end(whole);
    Analysis { perm, permuted: SymCscF64Holder(pa), etree, symbolic }
}

/// Stage times of the analysis, read back from the trace.
pub fn analysis_metrics(tr: &Tracer, out: &mut Layer) {
    for stage in ["analyze", "order", "permute", "etree", "colcount", "supernodes", "symbolic"] {
        out.insert(format!("sparse.{stage}_s"), tr.rep_median_s(&format!("sparse.{stage}")));
    }
}

/// Structure counts of the workload's matrices (summed; `max_front` is the
/// maximum) and the byte and flop totals derived from them.
pub struct Structure {
    pub supernodes: usize,
    pub factor_nnz: usize,
    pub matrix_nnz: usize,
    pub flops: f64,
    pub max_front: usize,
    /// `(m, k)` of every front, in postorder.
    pub shapes: Vec<(usize, usize)>,
}

impl Structure {
    pub fn of(analyses: &[&Analysis]) -> Structure {
        let mut s = Structure {
            supernodes: 0,
            factor_nnz: 0,
            matrix_nnz: 0,
            flops: 0.0,
            max_front: 0,
            shapes: Vec::new(),
        };
        for an in analyses {
            let sym = &an.symbolic;
            s.supernodes += sym.num_supernodes();
            s.factor_nnz += sym.factor_nnz();
            s.matrix_nnz += an.permuted.0.nnz_lower();
            s.flops += sym.total_flops();
            s.max_front = s.max_front.max(sym.max_front());
            s.shapes.extend(sym.postorder.iter().map(|&sn| {
                let info = &sym.supernodes[sn];
                (info.m(), info.k())
            }));
        }
        s
    }

    /// Bytes the front handling moves around the dense kernels, computed
    /// from the shapes (cache misses ignored): per front, the `s²` front is
    /// zeroed and assembled, the `m²` update is written out and later read
    /// by the parent's extend-add, and the `s·k` panel is extracted.
    pub fn assemble_bytes(&self, elem: usize) -> f64 {
        self.shapes
            .iter()
            .map(|&(m, k)| {
                let s = m + k;
                (s * s + 2 * m * m + s * k) as f64
            })
            .sum::<f64>()
            * elem as f64
    }

    /// Bytes the dense kernels must at least touch, computed: every front
    /// read once and written once.
    pub fn kernel_bytes(&self, elem: usize) -> f64 {
        self.shapes.iter().map(|&(m, k)| (2 * (m + k) * (m + k)) as f64).sum::<f64>() * elem as f64
    }

    pub fn metrics(&self, out: &mut Layer) {
        out.insert("sparse.supernodes".into(), self.supernodes as f64);
        out.insert("sparse.factor_nnz".into(), self.factor_nnz as f64);
        out.insert("sparse.factor_gflop".into(), self.flops / 1e9);
        out.insert("sparse.fill_ratio".into(), self.factor_nnz as f64 / self.matrix_nnz as f64);
        out.insert("sparse.max_front".into(), self.max_front as f64);
    }
}

/// Lower triangle of the leading `s × s` block: diagonally dominant, so the
/// pivot block factors; values are irrelevant to the timing.
fn fill_front<T: Scalar>(front: &mut [T], s: usize) {
    let off = T::from_f64(0.01);
    let diag = T::from_f64(1.0 + 0.01 * s as f64);
    for j in 0..s {
        front[j * s + j] = diag;
        for v in &mut front[j * s + j + 1..(j + 1) * s] {
            *v = off;
        }
    }
}

/// One front's dense work exactly as the CPU policy issues it: `potrf(k)`,
/// pack the pivot block, `trsm_right_lower_trans(m, k)`, `syrk_lower(m, k)`.
fn front_kernels<T: Scalar>(front: &mut [T], pivot: &mut [T], m: usize, k: usize) {
    let s = m + k;
    dense::potrf(k, front, s).expect("replay fronts are diagonally dominant");
    if m == 0 {
        return;
    }
    for j in 0..k {
        pivot[j * k + j..(j + 1) * k].copy_from_slice(&front[j * s + j..j * s + k]);
    }
    dense::trsm_right_lower_trans(m, k, &pivot[..k * k], k, &mut front[k..], s);
    let (panel, trailing) = front.split_at_mut(k * s);
    dense::syrk_lower(m, k, -T::ONE, &panel[k..], s, T::ONE, &mut trailing[k..], s);
}

/// Seconds the dense kernels alone take on scratch fronts of the given
/// shapes: the factorization with all sparse work removed.
fn replay_seconds<T: Scalar>(shapes: &[(usize, usize)]) -> f64 {
    let smax = shapes.iter().map(|&(m, k)| m + k).max().unwrap_or(0);
    let kmax = shapes.iter().map(|&(_, k)| k).max().unwrap_or(0);
    let mut front = vec![T::ZERO; smax * smax];
    let mut pivot = vec![T::ZERO; kmax * kmax];
    let mut total = 0.0;
    for &(m, k) in shapes {
        let s = m + k;
        fill_front(&mut front[..s * s], s);
        let t = Instant::now();
        front_kernels(&mut front[..s * s], &mut pivot, m, k);
        total += t.elapsed().as_secs_f64();
    }
    black_box(&front);
    total
}

/// GF/s of each kernel alone at the heaviest shapes: `potrf` at the widest
/// pivot block, `trsm` and `syrk` at the front with the most update flops.
fn kernel_rates<T: Scalar>(shapes: &[(usize, usize)]) -> [f64; 3] {
    let kmax = shapes.iter().map(|&(_, k)| k).max().unwrap_or(0);
    let Some(&(m, k)) = shapes
        .iter()
        .filter(|&&(m, _)| m > 0)
        .max_by(|a, b| FuFlops::new(a.0, a.1).syrk.total_cmp(&FuFlops::new(b.0, b.1).syrk))
    else {
        return [0.0; 3];
    };
    let s = (m + k).max(kmax);
    let mut front = vec![T::ZERO; s * s];
    let mut pivot = vec![T::ZERO; k * k];

    fill_front(&mut front[..kmax * kmax], kmax);
    let t = Instant::now();
    dense::potrf(kmax, &mut front[..kmax * kmax], kmax).expect("diagonally dominant");
    let potrf = FuFlops::new(0, kmax).potrf / t.elapsed().as_secs_f64();

    let s = m + k;
    fill_front(&mut front[..s * s], s);
    dense::potrf(k, &mut front[..s * s], s).expect("diagonally dominant");
    for j in 0..k {
        pivot[j * k + j..(j + 1) * k].copy_from_slice(&front[j * s + j..j * s + k]);
    }
    let flops = FuFlops::new(m, k);
    let t = Instant::now();
    dense::trsm_right_lower_trans(m, k, &pivot, k, &mut front[k..s * s], s);
    let trsm = flops.trsm / t.elapsed().as_secs_f64();
    let (panel, trailing) = front[..s * s].split_at_mut(k * s);
    let t = Instant::now();
    dense::syrk_lower(m, k, -T::ONE, &panel[k..], s, T::ONE, &mut trailing[k..], s);
    let syrk = flops.syrk / t.elapsed().as_secs_f64();
    black_box(&front);
    [potrf / 1e9, trsm / 1e9, syrk / 1e9]
}

/// Seconds for the three kernels at the heaviest shape, used for the
/// two-thread speed-up of the dense engine.
fn heaviest_front_seconds<T: Scalar>(shapes: &[(usize, usize)]) -> f64 {
    let Some(&(m, k)) = shapes
        .iter()
        .max_by(|a, b| FuFlops::new(a.0, a.1).total().total_cmp(&FuFlops::new(b.0, b.1).total()))
    else {
        return 0.0;
    };
    replay_seconds::<T>(&[(m, k)])
}

/// Iterations of the FMA-peak loops: each is one fused multiply-add per
/// accumulator lane.
const FMA_ITERS: usize = 4_000_000;

macro_rules! fma_peak {
    ($name:ident, $t:ty, $wide:path) => {
        /// GF/s of independent fused multiply-add chains held in registers:
        /// the compute ceiling of one core for this scalar type. Best of the
        /// portable loop at a few chain counts (the compiler vectorizes it to
        /// 256 bits at most) and, where the CPU has them, sixteen 512-bit
        /// chains — the dense engine's micro-kernels use those too, so a
        /// narrower ceiling would read as a roofline share above 1.
        fn $name() -> f64 {
            fn run<const L: usize>() -> f64 {
                let a = black_box(0.999_999 as $t);
                let b = black_box(1.0e-7 as $t);
                let mut acc = [1.0 as $t; L];
                let t = Instant::now();
                for _ in 0..FMA_ITERS {
                    for v in acc.iter_mut() {
                        *v = v.mul_add(a, b);
                    }
                }
                let dt = t.elapsed().as_secs_f64();
                black_box(acc);
                (2 * L * FMA_ITERS) as f64 / dt / 1e9
            }
            [run::<32>(), run::<48>(), run::<64>(), $wide()].into_iter().fold(0.0, f64::max)
        }
    };
}
fma_peak!(fma_peak_f64, f64, wide::peak_f64);
fma_peak!(fma_peak_f32, f32, wide::peak_f32);

#[cfg(target_arch = "x86_64")]
mod wide {
    use super::FMA_ITERS;
    use core::arch::x86_64::*;
    use std::hint::black_box;
    use std::time::Instant;

    const CHAINS: usize = 16;

    macro_rules! zmm_peak {
        ($name:ident, $kernel:ident, $lanes:expr, $set1:ident, $fmadd:ident, $reduce:ident) => {
            /// # Safety
            /// The caller must have checked that the CPU has `avx512f`.
            #[target_feature(enable = "avx512f")]
            unsafe fn $kernel() -> f64 {
                let a = $set1(black_box(0.999_999));
                let b = $set1(black_box(1.0e-7));
                let mut acc = [$set1(1.0); CHAINS];
                let t = Instant::now();
                for _ in 0..FMA_ITERS {
                    for v in acc.iter_mut() {
                        *v = $fmadd(*v, a, b);
                    }
                }
                let dt = t.elapsed().as_secs_f64();
                for v in acc {
                    black_box($reduce(v));
                }
                (2 * $lanes * CHAINS * FMA_ITERS) as f64 / dt / 1e9
            }

            /// 0 when the CPU has no AVX-512.
            pub fn $name() -> f64 {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    // SAFETY: `avx512f` was detected on the running CPU just
                    // above; the kernel touches registers only.
                    unsafe { $kernel() }
                } else {
                    0.0
                }
            }
        };
    }
    zmm_peak!(peak_f64, zmm_f64, 8, _mm512_set1_pd, _mm512_fmadd_pd, _mm512_reduce_add_pd);
    zmm_peak!(peak_f32, zmm_f32, 16, _mm512_set1_ps, _mm512_fmadd_ps, _mm512_reduce_add_ps);
}

#[cfg(not(target_arch = "x86_64"))]
mod wide {
    pub fn peak_f64() -> f64 {
        0.0
    }
    pub fn peak_f32() -> f64 {
        0.0
    }
}

/// Elements per triad array: each array at least four times the last-level
/// cache, unless that would take more than a quarter of available memory.
/// Smoke runs use 16 MiB arrays: they only exercise the code.
pub fn triad_elems(smoke: bool) -> usize {
    if smoke {
        return (16 << 20) / 8;
    }
    let want = (4 * crate::host::llc_bytes()).max(64 << 20);
    let cap = crate::host::mem_available_bytes() / 12;
    want.min(cap) / 8
}

/// GB/s of `a[i] = b[i] + s·c[i]` over three f64 arrays of `n` elements
/// (24 bytes per element, computed): the sustainable memory bandwidth of
/// one core. Best of three passes after a warming pass.
fn triad_gbps(n: usize) -> f64 {
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let s = black_box(3.0f64);
    let mut best = f64::INFINITY;
    for pass in 0..4 {
        let t = Instant::now();
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = y + s * z;
        }
        black_box(&a);
        if pass > 0 {
            best = best.min(t.elapsed().as_secs_f64());
        }
    }
    (24 * n) as f64 / best / 1e9
}

/// The `dense.*` metrics: replay of the workload's own kernel calls against
/// the ceilings measured in the same run.
pub fn dense_metrics(
    st: &Structure,
    precision: Precision,
    smoke: bool,
    tr: &mut Tracer,
    out: &mut Layer,
) -> f64 {
    let shapes = &st.shapes;
    let (replay_s, rates, t1, t2, peak) = match precision {
        Precision::F64 => dense_probe::<f64>(shapes, tr, fma_peak_f64),
        Precision::F32 => dense_probe::<f32>(shapes, tr, fma_peak_f32),
    };
    let triad = tr.scope("bench", "bench.triad", 0, || triad_gbps(triad_elems(smoke)));
    let replay_gflops = st.flops / replay_s / 1e9;
    let flops_per_byte = st.flops / st.kernel_bytes(elem_bytes(precision));
    out.insert("dense.replay_s".into(), replay_s);
    out.insert("dense.replay_gflops".into(), replay_gflops);
    out.insert("dense.peak_gflops".into(), peak);
    out.insert("dense.triad_gbps".into(), triad);
    out.insert("dense.flops_per_byte".into(), flops_per_byte);
    out.insert("dense.roofline_frac".into(), replay_gflops / peak.min(triad * flops_per_byte));
    out.insert("dense.potrf_gflops".into(), rates[0]);
    out.insert("dense.trsm_gflops".into(), rates[1]);
    out.insert("dense.syrk_gflops".into(), rates[2]);
    // Base: the same three calls on one thread.
    out.insert("dense.threads2_speedup".into(), if t2 > 0.0 { t1 / t2 } else { 0.0 });
    replay_s
}

fn dense_probe<T: Scalar>(
    shapes: &[(usize, usize)],
    tr: &mut Tracer,
    peak: fn() -> f64,
) -> (f64, [f64; 3], f64, f64, f64) {
    let cap = dense::thread_cap();
    dense::set_num_threads(1);
    let replay_s = tr.scope("dense", "dense.replay", 0, || replay_seconds::<T>(shapes));
    let rates = tr.scope("dense", "dense.kernels", 0, || kernel_rates::<T>(shapes));
    let t1 = tr.scope("dense", "dense.heaviest_t1", 0, || heaviest_front_seconds::<T>(shapes));
    dense::set_num_threads(2);
    let t2 = tr.scope("dense", "dense.heaviest_t2", 0, || heaviest_front_seconds::<T>(shapes));
    dense::set_num_threads(cap);
    let peak = tr.scope("bench", "bench.fma_peak", 0, peak);
    (replay_s, rates, t1, t2, peak)
}

/// The `core.factor_*` and front-handling metrics of one serial factor.
pub fn factor_metrics(
    st: &Structure,
    precision: Precision,
    factor_s: f64,
    replay_s: f64,
    stats: &[&FactorStats],
    out: &mut Layer,
) {
    let overhead = factor_s - replay_s;
    let bytes = st.assemble_bytes(elem_bytes(precision));
    out.insert("core.factor_s".into(), factor_s);
    out.insert("core.factor_gflops".into(), st.flops / factor_s / 1e9);
    out.insert("core.front_overhead_s".into(), overhead);
    out.insert("core.assemble_bytes".into(), bytes);
    out.insert(
        "core.assemble_gbps".into(),
        if overhead > 0.0 { bytes / overhead / 1e9 } else { 0.0 },
    );
    out.insert(
        "core.peak_front_bytes".into(),
        stats.iter().map(|s| s.peak_front_bytes).max().unwrap_or(0) as f64,
    );
    out.insert(
        "core.front_alloc_events".into(),
        stats.iter().map(|s| s.front_alloc_events).sum::<u64>() as f64,
    );
}

/// Plain solves through an existing factor: one right-hand side (median of
/// five) and a block of eight (median of three). Returns `(solve_s, rhs8_s)`
/// summed into `out` so several matrices accumulate.
pub fn solve_probe(solver: &SpdSolver, b8: &[f64], tr: &mut Tracer) -> (f64, f64) {
    let n = b8.len() / 8;
    let one: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let x = tr.scope("core", "core.solve", 0, || solver.solve(&b8[..n]));
            black_box(x.expect("well-formed right-hand side"));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let eight: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let x = tr.scope("core", "core.solve_many8", 0, || solver.solve_many(b8, 8));
            black_box(x.expect("well-formed right-hand side"));
            t.elapsed().as_secs_f64()
        })
        .collect();
    (crate::stats::median(&one), crate::stats::median(&eight))
}

pub fn solve_metrics(
    st: &Structure,
    precision: Precision,
    solve_s: f64,
    rhs8_s: f64,
    out: &mut Layer,
) {
    out.insert("core.solve_s".into(), solve_s);
    out.insert("core.solve_rhs8_s".into(), rhs8_s);
    // Computed: the forward and the backward sweep each read the factor once.
    let bytes = 2.0 * (st.factor_nnz * elem_bytes(precision)) as f64;
    out.insert("core.solve_gbps".into(), bytes / solve_s / 1e9);
}

/// Nanoseconds the runtime spends per task when the tasks do nothing, on the
/// supernodal tree of `analysis` with `workers` workers. Median of five
/// sweeps over the whole tree.
pub fn ns_per_task(analysis: &Analysis, workers: usize) -> f64 {
    let parents: Vec<usize> = analysis.symbolic.supernodes.iter().map(|s| s.parent).collect();
    let mut graph = TaskGraph::from_parents(&parents);
    let rt = Runtime::new(workers);
    let sweeps: Vec<f64> = (0..5)
        .map(|_| {
            graph.reset();
            let t = Instant::now();
            let (_, errs) = rt.run(&graph, vec![(); rt.workers()], |_, task| -> Result<(), ()> {
                black_box(task);
                Ok(())
            });
            assert!(errs.is_empty());
            t.elapsed().as_secs_f64() * 1e9 / parents.len() as f64
        })
        .collect();
    crate::stats::median(&sweeps)
}

pub fn runtime_metrics(analysis: &Analysis, tr: &mut Tracer, out: &mut Layer) {
    for w in [1usize, 2] {
        let ns = tr.scope("runtime", "runtime.empty_tasks", w as u32, || ns_per_task(analysis, w));
        out.insert(format!("runtime.ns_per_task.w{w}"), ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_multifrontal::matgen::{laplacian_2d, Stencil};
    use gpu_multifrontal::sparse::analyze;

    #[test]
    fn staged_analysis_matches_one_call_analysis() {
        let a = laplacian_2d(17, 13, Stencil::Full);
        let whole =
            analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let mut tr = Tracer::new(true, "t");
        assert_eq!(staged_analyze(&a, None, &mut tr, 0).fingerprint(), whole.fingerprint());
        assert_eq!(staged_analyze(&a, Some(2), &mut tr, 1).fingerprint(), whole.fingerprint());
        // one parent span and six stage spans per call; supernodes is two calls.
        assert_eq!(tr.spans().len(), 14);
        assert!(tr.min_child_cover("sparse.analyze") > 0.5);
    }

    #[test]
    fn structure_counts_and_bytes() {
        let a = laplacian_2d(9, 9, Stencil::Full);
        let an = analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
            .unwrap();
        let st = Structure::of(&[&an, &an]);
        assert_eq!(st.supernodes, 2 * an.symbolic.num_supernodes());
        assert_eq!(st.max_front, an.symbolic.max_front());
        assert_eq!(st.shapes.len(), st.supernodes);
        let one: f64 = an
            .symbolic
            .supernodes
            .iter()
            .map(|s| (s.front_size().pow(2) + 2 * s.m().pow(2) + s.front_size() * s.k()) as f64)
            .sum();
        assert_eq!(st.assemble_bytes(8), 2.0 * one * 8.0);
    }

    #[test]
    fn fma_peaks_are_positive() {
        assert!(fma_peak_f64() > 0.0);
        assert!(fma_peak_f32() >= fma_peak_f64() * 0.5);
    }

    #[test]
    fn replay_runs_every_shape() {
        assert!(replay_seconds::<f64>(&[(0, 5), (7, 3), (40, 20)]) > 0.0);
        assert!(replay_seconds::<f32>(&[(12, 30)]) > 0.0);
        let r = kernel_rates::<f64>(&[(0, 5), (7, 3), (40, 20)]);
        assert!(r.iter().all(|&g| g > 0.0));
        assert_eq!(kernel_rates::<f64>(&[(0, 5)]), [0.0; 3]);
    }
}
