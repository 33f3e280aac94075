//! The packed, register-tiled kernel engine.
//!
//! One macro-kernel serves `gemm` (all four transpose combinations), the
//! bulk of `syrk` (through a lower-triangle write mask) and, via those two,
//! `trsm` and `potrf`. Structure is the classical three-level cache blocking
//! of Goto/BLIS:
//!
//! * `NC`-wide column slabs of `C` (also the multithreading grain),
//! * `KC`-deep contraction blocks, packed `op(B)` panel per `(jc, pc)`,
//! * `MC`-tall row blocks, packed `op(A)` panel per `(ic, pc)`,
//! * an `MR × NR` register micro-kernel over the packed slivers whose
//!   accumulator is an explicit `[[T; MR]; NR]` array, written so LLVM
//!   autovectorizes the inner loop into FMA chains for `f32` and `f64`.
//!
//! # Determinism
//!
//! For a fixed build, results are **bitwise identical regardless of thread
//! count**. Each element `C[i, j]` accumulates its `k` products in an order
//! fixed by the `pc` loop (ascending) and the micro-kernel depth loop
//! (ascending within a block): threads partition `C` into disjoint *column*
//! slabs, and nothing about the per-column summation order depends on where
//! the slab boundaries fall. The `ic`/`jc`/`jr`/`ir` loops only choose
//! *when* a given `(i, j, pc)` contribution happens, never its operand
//! order, and `alpha`/`beta` are applied exactly once per element.

use crate::arena::with_pack_buffers;
use crate::pack::{pack_a, pack_b, slivers_a, slivers_b, OpView};
use crate::Scalar;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Micro-tile rows. 16 keeps an f64 accumulator column in two 512-bit
/// registers (one for f32) so the full `MR × NR` tile fits the vector
/// register file.
pub(crate) const MR: usize = 16;
/// Micro-tile columns.
pub(crate) const NR: usize = 8;
/// Contraction block depth: one packed `A` sliver pair per iteration stays
/// L1-resident while streaming `B`.
pub(crate) const KC: usize = 256;
/// Row block height: the packed `MC × KC` `A` panel targets L2.
pub(crate) const MC: usize = 128;
/// Column slab width: the packed `KC × NC` `B` panel targets L3; also the
/// unit in which threads claim work.
pub(crate) const NC: usize = 512;

/// Problems below this many multiply-adds dispatch to the seed loop nests:
/// packing two panels costs O(mk + kn) stores that a tiny product never
/// earns back.
pub(crate) const PACK_MIN_MADDS: usize = 8192;

/// Problems below this many multiply-adds are not worth threading.
const PAR_MIN_MADDS: usize = 1 << 21;

/// Requested worker-thread cap; 0 means "ask the OS".
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    /// This thread's cap while a [`with_num_threads`] scope is open; 0 = none.
    static SCOPED_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Cap the number of worker threads the dense kernels may use, process-wide:
/// every thread outside a [`with_num_threads`] scope. `0` restores the
/// default (the machine's available parallelism). Thread count never changes
/// results: see the module notes on determinism.
pub fn set_num_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// Run `f` with the dense kernels it calls on this thread capped at `n`
/// worker threads, whatever the process-wide cap; other threads keep theirs
/// (`0` opens no scope). The enclosing scope, if any, comes back when `f`
/// returns or unwinds. This is how concurrent tasks run their kernels at
/// different widths.
pub fn with_num_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED_THREADS.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(SCOPED_THREADS.with(|c| c.replace(n)));
    f()
}

/// The raw process-wide cap as last passed to [`set_num_threads`] (`0` =
/// "ask the OS"). Unlike [`num_threads`] this does not resolve `0`, so a
/// caller that temporarily overrides the cap can restore it exactly.
pub fn thread_cap() -> usize {
    MAX_THREADS.load(Ordering::Relaxed)
}

/// The worker-thread cap in effect on this thread: its
/// [`with_num_threads`] scope's, else the process-wide one.
pub fn num_threads() -> usize {
    // `available_parallelism` re-reads cgroup state on every call (>10 µs on
    // some kernels), which would dwarf a small kernel invocation — query the
    // OS once.
    static OS_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let cap = match SCOPED_THREADS.with(Cell::get) {
        0 => MAX_THREADS.load(Ordering::Relaxed),
        scoped => scoped,
    };
    match cap {
        0 => {
            *OS_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        }
        n => n,
    }
}

/// `C ← C + α·op(A)·op(B)` through the packed engine, with an optional
/// lower-triangle write mask for `syrk`: `mask = Some(d)` writes element
/// `(i, j)` only when `i ≥ j + d` (`β` handling happens in the callers,
/// which scale `C` exactly once up front).
pub(crate) fn gemm_engine<T: Scalar>(
    m: usize,
    n: usize,
    kk: usize,
    alpha: T,
    a: OpView<'_, T>,
    b: OpView<'_, T>,
    c: &mut [T],
    ldc: usize,
    mask: Option<isize>,
) {
    let nt = {
        let t = num_threads();
        if t <= 1 || m.saturating_mul(n).saturating_mul(kk) < PAR_MIN_MADDS {
            1
        } else {
            t.min(n.div_ceil(NR))
        }
    };
    if nt <= 1 {
        gemm_slab(m, n, kk, alpha, a, b, 0, c, ldc, mask);
        return;
    }
    // Disjoint NR-aligned column slabs: each worker owns its columns of C
    // outright, so no synchronisation is needed and per-column summation
    // order (hence the bits of the result) is identical for every nt.
    let chunk = n.div_ceil(nt).next_multiple_of(NR);
    std::thread::scope(|s| {
        let mut rest = c;
        let mut col0 = 0usize;
        while col0 < n {
            let cols = chunk.min(n - col0);
            let take = if col0 + cols < n { cols * ldc } else { rest.len() };
            let (mine, tail) = rest.split_at_mut(take);
            rest = tail;
            let d = mask.map(|d| d + col0 as isize);
            s.spawn(move || gemm_slab(m, cols, kk, alpha, a, b, col0, mine, ldc, d));
            col0 += cols;
        }
    });
}

/// One worker's share: columns `[bcol0, bcol0 + n)` of the global problem,
/// with `c` pointing at the slab's first column. `mask` is already
/// slab-local (`i ≥ j_local + d`, `i` a global row index).
#[allow(clippy::too_many_arguments)]
fn gemm_slab<T: Scalar>(
    m: usize,
    n: usize,
    kk: usize,
    alpha: T,
    a: OpView<'_, T>,
    b: OpView<'_, T>,
    bcol0: usize,
    c: &mut [T],
    ldc: usize,
    mask: Option<isize>,
) {
    let a_len = slivers_a(m.min(MC)) * MR * kk.min(KC);
    let b_len = slivers_b(n.min(NC)) * NR * kk.min(KC);
    with_pack_buffers(a_len, b_len, |a_buf: &mut [T], b_buf: &mut [T]| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..kk).step_by(KC) {
                let kc = KC.min(kk - pc);
                let bp = &mut b_buf[..slivers_b(nc) * NR * kc];
                pack_b(b, pc, bcol0 + jc, kc, nc, bp);
                for ic in (0..m).step_by(MC) {
                    let mc = MC.min(m - ic);
                    // d_mk translates the mask to macro-tile coordinates:
                    // write (ir + i, jr + j) iff ir + i ≥ jr + j + d_mk.
                    let d_mk = match mask {
                        Some(d) => {
                            let d_mk = d + jc as isize - ic as isize;
                            if (mc as isize - 1) < d_mk {
                                continue; // entire block above the diagonal
                            }
                            Some(d_mk)
                        }
                        None => None,
                    };
                    let ap = &mut a_buf[..slivers_a(mc) * MR * kc];
                    pack_a(a, ic, pc, mc, kc, ap);
                    let c_block = &mut c[jc * ldc + ic..];
                    macro_kernel(mc, nc, kc, alpha, ap, bp, c_block, ldc, d_mk);
                }
            }
        }
    });
}

/// Packed `mc × nc × kc` block product: `C_block += α · Ap · Bp` with `C`
/// addressed at the block origin.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<T: Scalar>(
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: T,
    ap: &[T],
    bp: &[T],
    c: &mut [T],
    ldc: usize,
    mask: Option<isize>,
) {
    for (sb, bsl) in bp.chunks_exact(kc * NR).enumerate() {
        let jr = sb * NR;
        let nr_eff = NR.min(nc - jr);
        for (sa, asl) in ap.chunks_exact(kc * MR).enumerate() {
            let ir = sa * MR;
            let mr_eff = MR.min(mc - ir);
            if let Some(d) = mask {
                // Tile rows [ir, ir+mr_eff) × cols [jr, jr+nr_eff).
                if (ir + mr_eff) as isize - 1 < jr as isize + d {
                    continue; // fully above the diagonal
                }
                let acc = T::micro_tile(asl, bsl);
                if ir as isize >= jr as isize + (nr_eff as isize - 1) + d {
                    write_tile(&acc, alpha, c, ldc, ir, jr, mr_eff, nr_eff);
                } else {
                    write_tile_masked(&acc, alpha, c, ldc, ir, jr, mr_eff, nr_eff, d);
                }
            } else {
                let acc = T::micro_tile(asl, bsl);
                write_tile(&acc, alpha, c, ldc, ir, jr, mr_eff, nr_eff);
            }
        }
    }
}

/// The portable register micro-kernel: a full `MR × NR` rank-`kc` product
/// of one packed `A` sliver against one packed `B` sliver. The accumulator
/// array lives in vector registers; each depth step is `MR/width` loads of
/// `A`, `NR` broadcasts of `B` and `MR·NR/width` FMAs. `Scalar::micro_tile`
/// dispatches here unless a hand-vectorized variant applies (`simd.rs`);
/// all variants agree bitwise.
#[inline(always)]
pub(crate) fn micro_tile_generic<T: Scalar>(asl: &[T], bsl: &[T]) -> [[T; MR]; NR] {
    let mut acc = [[T::ZERO; MR]; NR];
    for (al, bl) in asl.chunks_exact(MR).zip(bsl.chunks_exact(NR)) {
        let al: &[T; MR] = al.try_into().unwrap();
        let bl: &[T; NR] = bl.try_into().unwrap();
        for j in 0..NR {
            let bj = bl[j];
            for i in 0..MR {
                acc[j][i] = al[i].mul_add(bj, acc[j][i]);
            }
        }
    }
    acc
}

/// `C_tile += α · acc` for a (possibly partial) tile at `(ir, jr)`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn write_tile<T: Scalar>(
    acc: &[[T; MR]; NR],
    alpha: T,
    c: &mut [T],
    ldc: usize,
    ir: usize,
    jr: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    for (j, accj) in acc.iter().enumerate().take(nr_eff) {
        let col = &mut c[(jr + j) * ldc + ir..(jr + j) * ldc + ir + mr_eff];
        for (cv, &av) in col.iter_mut().zip(accj.iter()) {
            *cv = av.mul_add(alpha, *cv);
        }
    }
}

/// Masked writeback for tiles straddling the diagonal: element `(ir+i,
/// jr+j)` is stored only when `ir+i ≥ jr+j+d`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn write_tile_masked<T: Scalar>(
    acc: &[[T; MR]; NR],
    alpha: T,
    c: &mut [T],
    ldc: usize,
    ir: usize,
    jr: usize,
    mr_eff: usize,
    nr_eff: usize,
    d: isize,
) {
    for (j, accj) in acc.iter().enumerate().take(nr_eff) {
        // First in-triangle row of this column, clamped into the tile.
        let cut = (jr + j) as isize + d - ir as isize;
        let i0 = cut.clamp(0, mr_eff as isize) as usize;
        let base = (jr + j) * ldc + ir;
        let col = &mut c[base + i0..base + mr_eff];
        for (cv, &av) in col.iter_mut().zip(accj[i0..mr_eff].iter()) {
            *cv = av.mul_add(alpha, *cv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    fn engine_vs_loops(m: usize, n: usize, kk: usize, ta: bool, tb: bool, mask: Option<isize>) {
        let a = vals(m * kk, 1);
        let b = vals(kk * n, 2);
        let c0 = vals(m * n, 3);
        let av = OpView { data: &a[..], ld: if ta { kk } else { m }, trans: ta };
        let bv = OpView { data: &b[..], ld: if tb { n } else { kk }, trans: tb };
        let mut c = c0.clone();
        gemm_engine(m, n, kk, 0.5, av, bv, &mut c, m, mask);
        for j in 0..n {
            for i in 0..m {
                let written = mask.is_none_or(|d| i as isize >= j as isize + d);
                let mut want = c0[i + j * m];
                if written {
                    for l in 0..kk {
                        want += 0.5 * av.at(i, l) * bv.at(l, j);
                    }
                }
                let got = c[i + j * m];
                assert!(
                    (got - want).abs() < 1e-10,
                    "m={m} n={n} k={kk} ta={ta} tb={tb} mask={mask:?} ({i},{j}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn engine_matches_loops_all_orientations() {
        for &(m, n, kk) in &[(1, 1, 1), (7, 5, 9), (16, 8, 4), (33, 19, 70), (65, 40, 3)] {
            for ta in [false, true] {
                for tb in [false, true] {
                    engine_vs_loops(m, n, kk, ta, tb, None);
                }
            }
        }
    }

    #[test]
    fn engine_lower_mask() {
        for &(n, kk) in &[(5, 3), (17, 17), (40, 9), (129, 20)] {
            engine_vs_loops(n, n, kk, false, false, Some(0));
            engine_vs_loops(n, n, kk, false, true, Some(0));
        }
        // Non-zero diagonal offsets.
        engine_vs_loops(20, 20, 6, false, false, Some(3));
        engine_vs_loops(20, 20, 6, false, false, Some(-4));
    }

    #[test]
    fn thread_count_does_not_change_bits() {
        // Big enough to clear PAR_MIN_MADDS so threading actually engages.
        let (m, n, kk) = (70, 300, 130);
        let a = vals(m * kk, 4);
        let b = vals(kk * n, 5);
        let c0 = vals(m * n, 6);
        let av = OpView { data: &a[..], ld: m, trans: false };
        let bv = OpView { data: &b[..], ld: kk, trans: false };
        let run = |threads: usize| {
            set_num_threads(threads);
            let mut c = c0.clone();
            // Force the parallel path decision to depend only on `threads`.
            gemm_engine(m, n, kk, 1.0, av, bv, &mut c, m, None);
            set_num_threads(0);
            c
        };
        let c1 = run(1);
        for t in [2, 3, 8] {
            let ct = run(t);
            assert!(c1.iter().zip(&ct).all(|(x, y)| x.to_bits() == y.to_bits()), "t={t}");
        }
    }
}
