//! The factor-update (F-U) executor: one dense Cholesky step of a frontal
//! matrix under each of the four policies of Table VI.
//!
//! Policy implementations follow the paper's workflow optimizations
//! (Section V-A):
//!
//! * **P2** — `potrf`/`trsm` on the CPU; `syrk` on the GPU computed in
//!   block-columns whose device→host downloads overlap the next block's
//!   compute (copy engine ∥ compute engine).
//! * **P3** — the unfactored sub-panel `A₂` uploads *while* the CPU runs
//!   `potrf`; the factored `L₂` downloads *while* the GPU runs `syrk`.
//! * **P4** — the overlapped panel algorithm of Figure 9: a lightweight
//!   `w × w` device `potrf` kernel, a spanning `trsm`, then `syrk`/`gemm`
//!   trailing updates, entirely on the device. With `copy_optimized` only
//!   the panel and update regions cross PCIe instead of the full `s × s`
//!   front (the optimization the paper credits for P4 winning at moderate
//!   sizes in the multi-GPU runs).
//!
//! This module owns the three phases of one front's factor-update (dispatch,
//! downloads, finish) and their device buffers; `crate::lane` owns when
//! they run relative to other fronts. Nothing else calls the phases, bar
//! `execute_fu` for the estimate of one factor-update taken alone.
//!
//! All GPU arithmetic is f32 (the paper's choice on the T10); host fronts
//! may be f64, converted at the staging boundary — exactly the
//! mixed-precision scheme whose lost digits the paper recovers with
//! iterative refinement.

use crate::frontal::Front;
use crate::pinned_pool::PinnedPool;
use crate::policy::PolicyKind;
use mf_dense::{
    factor_front_small, front_is_small, potrf, syrk_lower, trsm_right_lower_trans, Scalar,
};
use mf_gpusim::{CopyMode, DevBuf, DevMat, Event, Gpu, HostClock, KernelKind, Machine};

/// Width of the device panels in the P4 algorithm (Figure 9's `w`).
pub const DEFAULT_PANEL_WIDTH: usize = 64;

/// Block-column width for P2's overlapped `syrk` downloads.
const P2_DOWNLOAD_BLOCK: usize = 512;

/// Stream ids on the device (the multi-GPU driver adds a third for
/// incoming peer copies).
pub(crate) const S_COMPUTE: usize = 0;
pub(crate) const S_COPY: usize = 1;

/// Failure of a factor-update step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuError {
    /// Non-positive pivot at this front-local column.
    NotPositiveDefinite {
        /// Column within the pivot block (0-based).
        local_column: usize,
    },
}

/// Execution context shared across the factorization's F-U calls.
#[derive(Debug)]
pub(crate) struct FuContext<'a> {
    /// The host timeline.
    pub host: &'a mut HostClock,
    /// The device the call runs on; `None` runs every policy as P1.
    pub gpu: Option<&'a mut Gpu>,
    /// Pinned staging buffers (growth-only reuse per §V-A2).
    pub pool: &'a mut PinnedPool,
    /// Use the copy-optimized P4 transfer plan.
    pub copy_optimized: bool,
    /// Timing-only mode: charge every cost but skip all numeric work and
    /// data movement. Requires the device and the pool to be in
    /// virtual mode (see [`estimate_fu_time`]). The front may be a dummy.
    pub timing_only: bool,
    /// Dense-engine thread width for this call, from the tree runtime's
    /// [`ThreadBudget`](mf_runtime::ThreadBudget) arbitration: `Some(w)`
    /// caps the engine's column-slab threading at `w` for the duration
    /// (leaf fronts under a busy pool get 1, a lone root front gets the
    /// whole budget). `None` leaves the process-wide cap untouched (the
    /// serial driver). Thread width never changes results — the engine is
    /// bitwise deterministic at every thread count.
    pub kernel_threads: Option<usize>,
}

/// Outcome of an F-U call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FuOutcome {
    /// Policy that actually ran (may differ from the request on device OOM
    /// or on a CPU-only machine).
    pub executed: PolicyKind,
    /// Whether a device OOM forced a fallback.
    pub oom_fallback: bool,
}

/// Run one factor-update on `front` under `policy`. On device OOM the call
/// transparently falls back to P1 and reports it in the outcome.
///
/// The three phases back to back with no extraction in between: the
/// factor-update alone, as [`estimate_fu_time`] prices it for the policy maps
/// and this module's tests exercise it. No driver comes through here —
/// `crate::lane` sequences the phases of every front that is part of a run.
pub(crate) fn execute_fu<T: Scalar>(
    front: &mut Front<'_, T>,
    policy: PolicyKind,
    ctx: &mut FuContext<'_>,
) -> Result<FuOutcome, FuError> {
    let mut pending = dispatch_fu(front, policy, ctx)?;
    enqueue_downloads(front, &mut pending, false, ctx);
    finish_fu(&mut pending, ctx);
    Ok(pending.outcome())
}

/// An F-U operation whose GPU work has been enqueued but not yet drained.
///
/// The three-phase lifecycle replaces the seed's per-front `sync_all`:
///
/// 1. [`dispatch_fu`] / [`try_dispatch_gpu`] — host prework (CPU
///    potrf/trsm where the policy wants them), pinned staging, h2d uploads
///    and every compute kernel, with a completion event recorded per
///    download dependency;
/// 2. [`enqueue_downloads`] — d2h transfers, each gated on its producer's
///    *event* rather than a device drain, the front's `done` event, and
///    the host-side numerics consuming the staged data (the simulator
///    computes data eagerly at enqueue time, so results can be unstaged as
///    soon as the transfer is queued — only *time* remains outstanding);
/// 3. [`finish_fu`] — the only host block: wait on `done`, free device
///    buffers, land deferred host charges.
///
/// Look-ahead falls out of call order: a driver that runs phase 1 of front
/// *j+1* before phase 3 of front *j* has the next front uploading while
/// the current one computes.
#[derive(Debug)]
pub(crate) struct FuPending {
    executed: PolicyKind,
    oom_fallback: bool,
    state: PendingState,
}

#[derive(Debug)]
enum PendingState {
    /// No GPU work outstanding (P1, an m = 0 front, or already finished).
    Done,
    Computed(DownloadPlan),
    Downloaded(FinishPlan),
}

/// Phase-1 output: which downloads remain and the events they wait on.
#[derive(Debug)]
enum DownloadPlan {
    P2 {
        d_l2: DevBuf,
        d_w: DevBuf,
        m: usize,
        sp: usize,
        su: usize,
        /// `(j0, jb, event)` per block column of W.
        chunks: Vec<(usize, usize, Event)>,
    },
    P3 {
        d_panel: DevBuf,
        d_l1: DevBuf,
        d_w: DevBuf,
        m: usize,
        k: usize,
        sp: usize,
        su: usize,
        ev_trsm: Event,
        ev_syrk: Event,
    },
    P4 {
        d_front: DevBuf,
        s: usize,
        k: usize,
        sp: usize,
        stage_len: usize,
        copy_optimized: bool,
    },
}

/// Phase-2 output: what the final host block must clean up.
#[derive(Debug)]
struct FinishPlan {
    done: Event,
    bufs: Vec<DevBuf>,
    /// Deferred host charge for applying the downloaded update block.
    apply_bytes: usize,
}

impl FuPending {
    fn finished(executed: PolicyKind, oom_fallback: bool) -> Self {
        FuPending { executed, oom_fallback, state: PendingState::Done }
    }

    /// The policy that ran, and whether a device OOM forced it.
    pub(crate) fn outcome(&self) -> FuOutcome {
        FuOutcome { executed: self.executed, oom_fallback: self.oom_fallback }
    }

    /// Whether every phase has run (nothing outstanding on the device).
    pub(crate) fn is_done(&self) -> bool {
        matches!(self.state, PendingState::Done)
    }

    /// Give up on the front: free the device buffers it still owns, in
    /// whatever phase it stands, without charging any time. The error path
    /// of a driver whose caller keeps the machine.
    pub(crate) fn abandon(self, gpu: &mut Gpu) {
        let bufs = match self.state {
            PendingState::Done => Vec::new(),
            PendingState::Computed(DownloadPlan::P2 { d_l2, d_w, .. }) => vec![d_l2, d_w],
            PendingState::Computed(DownloadPlan::P3 { d_panel, d_l1, d_w, .. }) => {
                vec![d_panel, d_l1, d_w]
            }
            PendingState::Computed(DownloadPlan::P4 { d_front, .. }) => vec![d_front],
            PendingState::Downloaded(plan) => plan.bufs,
        };
        for b in bufs {
            let _ = gpu.free(b);
        }
    }
}

/// Phase 1 with transparent fallback: on a CPU-only machine the F-U runs
/// as P1; on device OOM it falls back to P1 and flags the outcome. Either
/// way the returned pending may already be done.
pub(crate) fn dispatch_fu<T: Scalar>(
    front: &mut Front<'_, T>,
    policy: PolicyKind,
    ctx: &mut FuContext<'_>,
) -> Result<FuPending, FuError> {
    match try_dispatch_gpu(front, policy, ctx)? {
        Some(p) => Ok(p),
        None => {
            fu_p1(front, ctx)?;
            Ok(FuPending::finished(PolicyKind::P1, true))
        }
    }
}

/// Phase 1: enqueue all uploads and compute kernels for `front` under
/// `policy`. Returns `Ok(None)` on device OOM *without* falling back — the
/// pipelined driver drains its in-flight fronts (releasing device memory)
/// and retries before accepting a P1 fallback, so its fallback decisions
/// match the drain-per-front driver's.
pub(crate) fn try_dispatch_gpu<T: Scalar>(
    front: &mut Front<'_, T>,
    policy: PolicyKind,
    ctx: &mut FuContext<'_>,
) -> Result<Option<FuPending>, FuError> {
    if let Some(w) = ctx.kernel_threads {
        // Process-global cap: concurrent tasks each set their own width and
        // the last store wins for kernels launched after it — a benign race
        // (widths only steer wall-clock, never bits). The parallel driver
        // restores the caller's cap once the whole run finishes.
        mf_dense::set_num_threads(w);
    }
    let requested = if ctx.gpu.is_some() { policy } else { PolicyKind::P1 };
    let attempt = match requested {
        PolicyKind::P1 => {
            fu_p1(front, ctx)?;
            return Ok(Some(FuPending::finished(PolicyKind::P1, false)));
        }
        PolicyKind::P2 => dispatch_p2(front, ctx),
        PolicyKind::P3 => dispatch_p3(front, ctx),
        PolicyKind::P4 => dispatch_p4(front, ctx),
    };
    match attempt {
        Ok(state) => Ok(Some(FuPending { executed: requested, oom_fallback: false, state })),
        Err(GpuFuError::NotPd(c)) => Err(FuError::NotPositiveDefinite { local_column: c }),
        Err(GpuFuError::Oom) => Ok(None),
    }
}

/// A device-resident contribution block left behind by
/// [`enqueue_downloads`] with `keep_update`: the `m × m` update of a
/// factored front, still on its device, ready to be peer-copied into the
/// device that owns the parent front instead of round-tripping through the
/// host.
///
/// The consumer owns `buf` and must free it on the producing device once
/// the peer copy has been issued (or once it decides to fall back to host
/// staging).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RemoteUpdate {
    /// Device buffer holding (or containing) the update block.
    pub buf: DevBuf,
    /// View of the `m × m` update block within `buf`.
    pub view: DevMat,
    /// Update order `m`.
    pub m: usize,
    /// Event after which the update bytes are final on the device.
    pub ready: Event,
}

/// Phase 2: enqueue the device→host downloads (each gated on its
/// producer's completion event), record the front's `done` event, retire
/// staging slots guarded by it, and run the host-side numerics that
/// consume the staged data. No host blocking happens here.
///
/// With `keep_update` the update block's download is *skipped* and its
/// device buffer returned as a [`RemoteUpdate`] for a peer-copy extend-add
/// (the panel still crosses to the host — its columns land in the factor
/// slab). The host numerics then read the device buffer in place: the
/// simulator's transfers are eager memcpys of the device bytes, so the
/// values are bit-identical to the downloaded ones and only simulated time
/// changes. Nothing is kept (and `None` returned) when there is nothing to
/// export: a finished front, an `m = 0` front, or timing-only mode, where
/// device buffers hold no data.
pub(crate) fn enqueue_downloads<T: Scalar>(
    front: &mut Front<'_, T>,
    pending: &mut FuPending,
    keep_update: bool,
    ctx: &mut FuContext<'_>,
) -> Option<RemoteUpdate> {
    let plan = match std::mem::replace(&mut pending.state, PendingState::Done) {
        PendingState::Computed(p) => p,
        other => {
            pending.state = other;
            return None;
        }
    };
    let timing = ctx.timing_only;
    let keep = keep_update && !timing;
    let (host, gpu, pool) = split_ctx(ctx);
    let (finish, remote) = match plan {
        DownloadPlan::P2 { d_l2, d_w, m, sp, su, chunks } => {
            let done = if keep {
                chunks.last().expect("m > 0 fronts enqueue at least one chunk").2
            } else {
                let copy = gpu.stream(S_COPY);
                let wv = DevMat::whole(d_w, m);
                for (j0, jb, ev) in chunks {
                    gpu.wait_event(copy, ev);
                    let stage = pool.slot_mut(su);
                    let dst = if timing { &mut [][..] } else { &mut stage[j0 + j0 * m..] };
                    let src = wv.offset(j0, j0);
                    gpu.d2h(copy, src, m - j0, jb, dst, m, true, CopyMode::Async, host);
                }
                gpu.record_event(copy)
            };
            if !timing {
                let w = if keep {
                    gpu.peek(d_w).expect("update buffer is live")
                } else {
                    pool.slot(su)
                };
                apply_update_numerics(front, &w[..m * m]);
            }
            pool.retire(su, done.0, host);
            pool.retire(sp, done.0, host);
            if keep {
                let remote = RemoteUpdate { buf: d_w, view: DevMat::whole(d_w, m), m, ready: done };
                (FinishPlan { done, bufs: vec![d_l2], apply_bytes: 0 }, Some(remote))
            } else {
                let apply_bytes = update_apply_bytes::<T>(m);
                (FinishPlan { done, bufs: vec![d_l2, d_w], apply_bytes }, None)
            }
        }
        DownloadPlan::P3 { d_panel, d_l1, d_w, m, k, sp, su, ev_trsm, ev_syrk } => {
            let copy = gpu.stream(S_COPY);
            let pv = DevMat::whole(d_panel, m);
            // Download L₂ — overlaps the syrk still running on the device.
            gpu.wait_event(copy, ev_trsm);
            gpu.d2h(copy, pv, m, k, pool.slot_mut(sp), m, true, CopyMode::Async, host);
            let done = if keep {
                Event(gpu.record_event(copy).0.max(ev_syrk.0))
            } else {
                gpu.wait_event(copy, ev_syrk);
                let wv = DevMat::whole(d_w, m);
                gpu.d2h(copy, wv, m, m, pool.slot_mut(su), m, true, CopyMode::Async, host);
                gpu.record_event(copy)
            };
            if !timing {
                unstage_block(front, k, 0, m, k, &pool.slot(sp)[..m * k], m);
                let w = if keep {
                    gpu.peek(d_w).expect("update buffer is live")
                } else {
                    pool.slot(su)
                };
                apply_update_numerics(front, &w[..m * m]);
            }
            pool.retire(su, done.0, host);
            pool.retire(sp, done.0, host);
            if keep {
                let remote =
                    RemoteUpdate { buf: d_w, view: DevMat::whole(d_w, m), m, ready: ev_syrk };
                (FinishPlan { done, bufs: vec![d_panel, d_l1], apply_bytes: 0 }, Some(remote))
            } else {
                let apply_bytes = update_apply_bytes::<T>(m);
                (FinishPlan { done, bufs: vec![d_panel, d_l1, d_w], apply_bytes }, None)
            }
        }
        DownloadPlan::P4 { d_front, s, k, sp, stage_len, copy_optimized } => {
            let m = s - k;
            let keep = keep && m > 0;
            let compute = gpu.stream(S_COMPUTE);
            let fv = DevMat::whole(d_front, s);
            // Kernels are all enqueued; the update bytes are final after
            // this point on the compute stream.
            let ready = gpu.record_event(compute);
            if keep || copy_optimized {
                let dst = if timing { &mut [][..] } else { &mut pool.slot_mut(sp)[..s * k] };
                gpu.d2h(compute, fv, s, k, dst, s, true, CopyMode::Async, host);
                if !keep && m > 0 {
                    let dst =
                        if timing { &mut [][..] } else { &mut pool.slot_mut(sp)[s * k..stage_len] };
                    gpu.d2h(compute, fv.offset(k, k), m, m, dst, m, true, CopyMode::Async, host);
                }
            } else {
                let dst = if timing { &mut [][..] } else { pool.slot_mut(sp) };
                gpu.d2h(compute, fv, s, s, dst, s, true, CopyMode::Async, host);
            }
            let done = gpu.record_event(compute);
            if !timing {
                // Kept: the device buffer *is* the packed s×s front, so
                // unstaging it in place reproduces the staged bytes.
                let (src, update_at, update_ld) = if keep {
                    (gpu.peek(d_front).expect("front buffer is live"), k + k * s, s)
                } else {
                    (&pool.slot(sp)[..stage_len], s * k, m)
                };
                if copy_optimized {
                    unstage_block(front, 0, 0, s, k, &src[..s * k], s);
                    if m > 0 {
                        unstage_block(front, k, k, m, m, &src[update_at..], update_ld);
                    }
                } else {
                    unstage_block(front, 0, 0, s, s, &src[..s * s], s);
                }
            }
            pool.retire(sp, done.0, host);
            if keep {
                let remote = RemoteUpdate { buf: d_front, view: fv.offset(k, k), m, ready };
                (FinishPlan { done, bufs: Vec::new(), apply_bytes: 0 }, Some(remote))
            } else {
                (FinishPlan { done, bufs: vec![d_front], apply_bytes: 0 }, None)
            }
        }
    };
    pending.state = PendingState::Downloaded(finish);
    remote
}

/// Phase 3 — the only host block: wait for the front's `done` event, free
/// its device buffers and land the deferred host charges.
pub(crate) fn finish_fu(pending: &mut FuPending, ctx: &mut FuContext<'_>) {
    let plan = match std::mem::replace(&mut pending.state, PendingState::Done) {
        PendingState::Downloaded(p) => p,
        other => {
            pending.state = other;
            return;
        }
    };
    let (host, gpu, _pool) = split_ctx(ctx);
    gpu.wait_event_host(plan.done, host);
    for b in plan.bufs {
        let _ = gpu.free(b);
    }
    if plan.apply_bytes > 0 {
        host.charge_memop(plan.apply_bytes, crate::frontal::ASSEMBLY_BW);
    }
}

enum GpuFuError {
    NotPd(usize),
    Oom,
}

impl From<mf_gpusim::DeviceOom> for GpuFuError {
    fn from(_: mf_gpusim::DeviceOom) -> Self {
        GpuFuError::Oom
    }
}

impl From<FuError> for GpuFuError {
    fn from(e: FuError) -> Self {
        match e {
            FuError::NotPositiveDefinite { local_column } => GpuFuError::NotPd(local_column),
        }
    }
}

/// Estimate the simulated time of one factor-update of dimensions `(m, k)`
/// under `policy`, without computing anything — the device and staging pool
/// run in virtual mode and the front is a dummy. This powers the paper's
/// policy-map and speedup-map figures (12, 13, 14), whose `(m, k)` ranges
/// are far beyond what real numerics could cover.
///
/// The machine's clocks are reset before and after, so a long-lived machine
/// can be reused across many estimates.
pub fn estimate_fu_time(
    machine: &mut Machine,
    m: usize,
    k: usize,
    policy: PolicyKind,
    copy_optimized: bool,
) -> f64 {
    if let Some(g) = machine.gpu.as_mut() {
        g.set_virtual(true);
    }
    let mut pool = PinnedPool::new(2);
    pool.set_virtual(true);
    let empty: &mut [f32] = &mut [];
    let mut front = Front { s: m + k, k, data: empty };
    // Two passes, the clocks reset before each. The first is a warm-up that
    // grows the pinned pool to this call's footprint so the second measures
    // the steady-state cost (in a factorization the pool amortises growth
    // across thousands of calls; a cold-pool estimate would bias against
    // the policies with large staging footprints).
    for _pass in 0..2 {
        machine.reset();
        let mut ctx = FuContext {
            host: &mut machine.host,
            gpu: machine.gpu.as_mut(),
            pool: &mut pool,
            copy_optimized,
            timing_only: true,
            kernel_threads: None,
        };
        execute_fu(&mut front, policy, &mut ctx)
            .expect("timing-only execution cannot fail numerically");
    }
    let t = machine.elapsed();
    if let Some(g) = machine.gpu.as_mut() {
        g.set_virtual(false);
    }
    machine.reset();
    t
}

// ----- shared CPU pieces ----------------------------------------------------

std::thread_local! {
    /// Per-thread pivot-block packing scratch (u64-backed so one buffer
    /// serves every `Scalar`). Never shrinks; a whole factorization performs
    /// at most one allocation per thread here.
    static PIVOT_SCRATCH: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `body` on a thread-local scratch slice of `len` scalars. The slice
/// is *not* zeroed between calls — `cpu_trsm` overwrites the lower triangle
/// it reads, and `trsm_right_lower_trans` never touches the strictly-upper
/// part, so stale bytes cannot reach any computation.
fn with_pivot_scratch<T: Scalar, R>(len: usize, body: impl FnOnce(&mut [T]) -> R) -> R {
    PIVOT_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        let words = (len * T::BYTES).div_ceil(std::mem::size_of::<u64>());
        if buf.len() < words {
            buf.resize(words, 0);
        }
        // SAFETY: the buffer holds at least `len * T::BYTES` bytes, u64
        // alignment satisfies every Scalar (f32/f64), and Scalar types admit
        // any bit pattern.
        let slice = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<T>(), len) };
        body(slice)
    })
}

fn cpu_potrf<T: Scalar>(
    front: &mut Front<'_, T>,
    host: &mut HostClock,
    charge_only: bool,
) -> Result<(), FuError> {
    let (s, k) = (front.s, front.k);
    if !charge_only {
        potrf(k, front.data, s)
            .map_err(|e| FuError::NotPositiveDefinite { local_column: e.column })?;
    }
    host.charge_kernel(KernelKind::Potrf, 0, k, 0);
    Ok(())
}

fn cpu_trsm<T: Scalar>(front: &mut Front<'_, T>, host: &mut HostClock, charge_only: bool) {
    let (s, k) = (front.s, front.k);
    let m = s - k;
    if m == 0 {
        return;
    }
    if !charge_only {
        // Pack the k×k pivot block (lower triangle) into reused scratch.
        with_pivot_scratch::<T, _>(k * k, |l1| {
            for j in 0..k {
                for i in j..k {
                    l1[i + j * k] = front.data[i + j * s];
                }
            }
            trsm_right_lower_trans(m, k, l1, k, &mut front.data[k..], s);
        });
    }
    host.charge_kernel(KernelKind::Trsm, m, 0, k);
}

fn cpu_syrk<T: Scalar>(front: &mut Front<'_, T>, host: &mut HostClock, charge_only: bool) {
    let (s, k) = (front.s, front.k);
    let m = s - k;
    if m == 0 {
        return;
    }
    if !charge_only {
        // The panel (rows k.., cols 0..k) and the trailing block (rows k..,
        // cols k..) live in disjoint column ranges of the front, so a split
        // at column k lets syrk read the panel in place — the engine packs
        // strided operands itself, no staging copy needed.
        let (panel_cols, trailing) = front.data.split_at_mut(k * s);
        syrk_lower(m, k, -T::ONE, &panel_cols[k..], s, T::ONE, &mut trailing[k..], s);
    }
    host.charge_kernel(KernelKind::Syrk, 0, m, k);
}

fn fu_p1<T: Scalar>(front: &mut Front<'_, T>, ctx: &mut FuContext<'_>) -> Result<(), FuError> {
    let timing = ctx.timing_only;
    let host = &mut *ctx.host;
    // A small front takes one fused pass over its columns instead of three
    // kernel dispatches — the same arithmetic in the same order — and then
    // only the kernels' charges remain to be issued (`charge_only`).
    let fused = !timing && front_is_small(front.s, front.k);
    if fused {
        factor_front_small(front.s, front.k, front.data)
            .map_err(|e| FuError::NotPositiveDefinite { local_column: e.column })?;
    }
    cpu_potrf(front, host, timing || fused)?;
    cpu_trsm(front, host, timing || fused);
    cpu_syrk(front, host, timing || fused);
    Ok(())
}

// ----- staging helpers ------------------------------------------------------

fn stage_to_f32<T: Scalar>(src: &[T], dst: &mut [f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.to_f64() as f32;
    }
}

fn unstage_from_f32<T: Scalar>(src: &[f32], dst: &mut [T]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = T::from_f64(*s as f64);
    }
}

/// Stage a `rows × cols` sub-block of the front (top-left at `(row0, col0)`)
/// into a packed f32 buffer with leading dimension `rows`.
fn stage_block<T: Scalar>(
    front: &Front<'_, T>,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
) {
    let s = front.s;
    for j in 0..cols {
        let src = &front.data[(col0 + j) * s + row0..(col0 + j) * s + row0 + rows];
        stage_to_f32(src, &mut dst[j * rows..(j + 1) * rows]);
    }
}

/// Unstage an f32 buffer with leading dimension `src_ld` (`rows` when it is
/// packed) back into a front sub-block.
fn unstage_block<T: Scalar>(
    front: &mut Front<'_, T>,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
    src: &[f32],
    src_ld: usize,
) {
    let s = front.s;
    for j in 0..cols {
        let dst = &mut front.data[(col0 + j) * s + row0..(col0 + j) * s + row0 + rows];
        unstage_from_f32(&src[j * src_ld..j * src_ld + rows], dst);
    }
}

/// Apply a device-computed `−L₂·L₂ᵀ` (staged in `w`, `m × m`, lower) to the
/// front's update block: `U += w`. Numerics only — the matching host
/// charge ([`update_apply_bytes`]) lands in [`finish_fu`], after the host
/// has actually waited for the download.
fn apply_update_numerics<T: Scalar>(front: &mut Front<'_, T>, w: &[f32]) {
    let (s, k) = (front.s, front.k);
    let m = s - k;
    for j in 0..m {
        let dst = &mut front.data[(k + j) * s + k + j..(k + j) * s + s];
        let src = &w[j * m + j..(j + 1) * m];
        for (d, &v) in dst.iter_mut().zip(src) {
            *d += T::from_f64(v as f64);
        }
    }
}

/// Host bytes touched applying an `m × m` packed lower update (read+write
/// of the triangle).
fn update_apply_bytes<T: Scalar>(m: usize) -> usize {
    m * (m + 1) / 2 * 2 * T::BYTES
}

/// Destructure the context into independently borrowable pieces. Panics if
/// it carries no device (callers check before dispatching GPU policies).
fn split_ctx<'b>(
    ctx: &'b mut FuContext<'_>,
) -> (&'b mut HostClock, &'b mut Gpu, &'b mut PinnedPool) {
    let gpu = ctx.gpu.as_deref_mut().expect("GPU policy dispatched on a CPU-only machine");
    (ctx.host, gpu, ctx.pool)
}

// ----- P2 --------------------------------------------------------------------

fn dispatch_p2<T: Scalar>(
    front: &mut Front<'_, T>,
    ctx: &mut FuContext<'_>,
) -> Result<PendingState, GpuFuError> {
    let (s, k) = (front.s, front.k);
    let m = s - k;
    let timing = ctx.timing_only;
    if m == 0 {
        cpu_potrf(front, ctx.host, timing)?;
        return Ok(PendingState::Done);
    }

    // Allocate before any front mutation: an OOM must leave the front
    // untouched so the caller can drain in-flight work and retry (or fall
    // back to P1) without double-factoring the pivot block. Device allocs
    // charge no simulated time, so the reorder is clock-neutral.
    let (host, gpu, pool) = split_ctx(ctx);
    let d_l2 = gpu.alloc(m * k)?;
    let d_w = match gpu.alloc(m * m) {
        Ok(b) => b,
        Err(_) => {
            let _ = gpu.free(d_l2);
            return Err(GpuFuError::Oom);
        }
    };
    if let Err(e) = cpu_potrf(front, host, timing) {
        let _ = gpu.free(d_l2);
        let _ = gpu.free(d_w);
        return Err(e.into());
    }
    cpu_trsm(front, host, timing);
    let compute = gpu.stream(S_COMPUTE);

    // Upload L₂ via pinned staging.
    let sp = pool.lease(m * k, host);
    if !timing {
        stage_block(front, k, 0, m, k, pool.slot_mut(sp));
    }
    gpu.h2d(compute, DevMat::whole(d_l2, m), m, k, pool.slot(sp), m, true, CopyMode::Async, host);

    // W = −L₂·L₂ᵀ in block columns; each records the event its download
    // waits on in phase 2.
    let su = pool.lease(m * m, host);
    let lv = DevMat::whole(d_l2, m);
    let wv = DevMat::whole(d_w, m);
    let mut chunks = Vec::new();
    let mut j0 = 0;
    while j0 < m {
        let jb = P2_DOWNLOAD_BLOCK.min(m - j0);
        gpu.syrk(compute, lv.offset(j0, 0), wv.offset(j0, j0), jb, k, host);
        let below = m - j0 - jb;
        if below > 0 {
            gpu.gemm_nt(
                compute,
                lv.offset(j0 + jb, 0),
                lv.offset(j0, 0),
                wv.offset(j0 + jb, j0),
                below,
                jb,
                k,
                host,
            );
        }
        chunks.push((j0, jb, gpu.record_event(compute)));
        j0 += jb;
    }
    Ok(PendingState::Computed(DownloadPlan::P2 { d_l2, d_w, m, sp, su, chunks }))
}

// ----- P3 --------------------------------------------------------------------

fn dispatch_p3<T: Scalar>(
    front: &mut Front<'_, T>,
    ctx: &mut FuContext<'_>,
) -> Result<PendingState, GpuFuError> {
    let (s, k) = (front.s, front.k);
    let m = s - k;
    let timing = ctx.timing_only;
    if m == 0 {
        cpu_potrf(front, ctx.host, timing)?;
        return Ok(PendingState::Done);
    }
    let (host, gpu, pool) = split_ctx(ctx);
    let d_panel = gpu.alloc(m * k)?;
    let d_l1 = match gpu.alloc(k * k) {
        Ok(b) => b,
        Err(_) => {
            let _ = gpu.free(d_panel);
            return Err(GpuFuError::Oom);
        }
    };
    let d_w = match gpu.alloc(m * m) {
        Ok(b) => b,
        Err(_) => {
            let _ = gpu.free(d_panel);
            let _ = gpu.free(d_l1);
            return Err(GpuFuError::Oom);
        }
    };
    let compute = gpu.stream(S_COMPUTE);
    let copy = gpu.stream(S_COPY);
    let pv = DevMat::whole(d_panel, m);
    let l1v = DevMat::whole(d_l1, k);
    let wv = DevMat::whole(d_w, m);

    // Upload the unfactored sub-panel A₂ — overlaps the CPU potrf below.
    let sp = pool.lease(m * k, host);
    if !timing {
        stage_block(front, k, 0, m, k, pool.slot_mut(sp));
    }
    gpu.h2d(copy, pv, m, k, pool.slot(sp), m, true, CopyMode::Async, host);

    // CPU potrf of the pivot block (overlapping the A₂ upload).
    if let Err(e) = cpu_potrf(front, host, timing) {
        let _ = gpu.free(d_panel);
        let _ = gpu.free(d_l1);
        let _ = gpu.free(d_w);
        pool.retire_now(sp, host);
        return Err(e.into());
    }

    // Upload the factored L₁.
    let su = pool.lease((k * k).max(m * m), host);
    if !timing {
        stage_block(front, 0, 0, k, k, pool.slot_mut(su));
    }
    gpu.h2d(copy, l1v, k, k, pool.slot(su), k, true, CopyMode::Async, host);

    // GPU trsm waits for both uploads (same copy stream ⇒ one event).
    let ev_up = gpu.record_event(copy);
    gpu.wait_event(compute, ev_up);
    gpu.trsm(compute, l1v, k, pv, m, host);
    let ev_trsm = gpu.record_event(compute);

    // GPU syrk into W (fresh buffer ⇒ zero-initialised ⇒ W = −L₂L₂ᵀ). The
    // L₂ download in phase 2 gates on ev_trsm, so it still overlaps this.
    gpu.syrk(compute, pv, wv, m, k, host);
    let ev_syrk = gpu.record_event(compute);
    Ok(PendingState::Computed(DownloadPlan::P3 {
        d_panel,
        d_l1,
        d_w,
        m,
        k,
        sp,
        su,
        ev_trsm,
        ev_syrk,
    }))
}

// ----- P4 --------------------------------------------------------------------

/// Figure 9's panel loop over a device-resident `s × s` front view with
/// pivot width `k`. Returns the failing front-local column on a
/// non-positive pivot.
fn p4_panel_loop(
    gpu: &mut Gpu,
    host: &mut HostClock,
    fv: DevMat,
    s: usize,
    k: usize,
    w: usize,
) -> Result<(), usize> {
    let m = s - k;
    let compute = gpu.stream(S_COMPUTE);
    let mut p = 0;
    while p < k {
        let wb = w.min(k - p);
        if let Err(col) = gpu.panel_potrf(compute, fv.offset(p, p), wb, host) {
            return Err(p + col);
        }
        let rest = s - p - wb;
        if rest > 0 {
            gpu.trsm(compute, fv.offset(p, p), wb, fv.offset(p + wb, p), rest, host);
        }
        let k_rest = k - p - wb;
        if k_rest > 0 {
            gpu.syrk(compute, fv.offset(p + wb, p), fv.offset(p + wb, p + wb), k_rest, wb, host);
            if m > 0 {
                gpu.gemm_nt(
                    compute,
                    fv.offset(k, p),
                    fv.offset(p + wb, p),
                    fv.offset(k, p + wb),
                    m,
                    k_rest,
                    wb,
                    host,
                );
            }
        }
        if m > 0 {
            gpu.syrk(compute, fv.offset(k, p), fv.offset(k, k), m, wb, host);
        }
        p += wb;
    }
    Ok(())
}

fn dispatch_p4<T: Scalar>(
    front: &mut Front<'_, T>,
    ctx: &mut FuContext<'_>,
) -> Result<PendingState, GpuFuError> {
    let (s, k) = (front.s, front.k);
    let m = s - k;
    let w = DEFAULT_PANEL_WIDTH;
    let copy_optimized = ctx.copy_optimized;
    let timing = ctx.timing_only;
    let (host, gpu, pool) = split_ctx(ctx);
    let d_front = gpu.alloc(s * s)?;
    let compute = gpu.stream(S_COMPUTE);
    let fv = DevMat::whole(d_front, s);

    // Upload. Naive: the whole s×s front. Copy-optimized: only the panel
    // (s×k) and update (m×m) regions.
    let stage_len = if copy_optimized { s * k + m * m } else { s * s };
    let sp = pool.lease(stage_len, host);
    let empty: &[f32] = &[];
    if copy_optimized {
        if !timing {
            stage_block(front, 0, 0, s, k, &mut pool.slot_mut(sp)[..s * k]);
        }
        let src = if timing { empty } else { &pool.slot(sp)[..s * k] };
        gpu.h2d(compute, fv, s, k, src, s, true, CopyMode::Async, host);
        if m > 0 {
            if !timing {
                stage_block(front, k, k, m, m, &mut pool.slot_mut(sp)[s * k..stage_len]);
            }
            let src = if timing { empty } else { &pool.slot(sp)[s * k..stage_len] };
            gpu.h2d(compute, fv.offset(k, k), m, m, src, m, true, CopyMode::Async, host);
        }
    } else {
        if !timing {
            stage_block(front, 0, 0, s, s, pool.slot_mut(sp));
        }
        gpu.h2d(compute, fv, s, s, pool.slot(sp), s, true, CopyMode::Async, host);
    }

    if let Err(col) = p4_panel_loop(gpu, host, fv, s, k, w) {
        let _ = gpu.free(d_front);
        pool.retire_now(sp, host);
        return Err(GpuFuError::NotPd(col));
    }
    Ok(PendingState::Computed(DownloadPlan::P4 { d_front, s, k, sp, stage_len, copy_optimized }))
}

// ----- batched small-front dispatch ------------------------------------------

/// Error from a batched dispatch, attributing the failure to one member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchError {
    /// Index into the dispatched run.
    pub member: usize,
    /// The underlying F-U failure.
    pub error: FuError,
}

/// A batched dispatch of consecutive small GPU-eligible fronts: one device
/// allocation, one upload and one download cover the whole run, amortising
/// the launch and PCIe latency that per-front dispatch pays once per
/// member. Members run the naive (whole-front) P4 plan back to back, so
/// per-member kernel sequences — and therefore numerics — are identical to
/// single dispatch.
#[derive(Debug)]
pub(crate) struct FuBatchPending {
    d_all: DevBuf,
    slot: usize,
    total: usize,
    /// `(base, s, k)` per member, in dispatch order.
    members: Vec<(usize, usize, usize)>,
}

impl FuBatchPending {
    /// [`FuPending::abandon`] for a dispatched batch.
    pub(crate) fn abandon(self, gpu: &mut Gpu) {
        let _ = gpu.free(self.d_all);
    }
}

/// Phase 1 for a run of fronts: stage every member into one leased slot,
/// upload with a single h2d, then enqueue each member's Figure-9 panel
/// loop. Returns `Ok(None)` if the combined device allocation OOMs (the
/// caller drains and retries member-by-member).
pub(crate) fn try_dispatch_gpu_batch<T: Scalar>(
    fronts: &mut [Front<'_, T>],
    ctx: &mut FuContext<'_>,
) -> Result<Option<FuBatchPending>, BatchError> {
    let w = DEFAULT_PANEL_WIDTH;
    let timing = ctx.timing_only;
    let (host, gpu, pool) = split_ctx(ctx);
    let mut members = Vec::with_capacity(fronts.len());
    let mut total = 0usize;
    for f in fronts.iter() {
        members.push((total, f.s, f.k));
        total += f.s * f.s;
    }
    let d_all = match gpu.alloc(total) {
        Ok(b) => b,
        Err(_) => return Ok(None),
    };
    let slot = pool.lease(total, host);
    if !timing {
        for (f, &(base, s, _)) in fronts.iter().zip(&members) {
            stage_block(f, 0, 0, s, s, &mut pool.slot_mut(slot)[base..base + s * s]);
        }
    }
    let compute = gpu.stream(S_COMPUTE);
    gpu.h2d(
        compute,
        DevMat::whole(d_all, total),
        total,
        1,
        pool.slot(slot),
        total,
        true,
        CopyMode::Async,
        host,
    );
    for (i, &(base, s, k)) in members.iter().enumerate() {
        let fv = DevMat { buf: d_all, off: base, ld: s };
        if let Err(col) = p4_panel_loop(gpu, host, fv, s, k, w) {
            let _ = gpu.free(d_all);
            pool.retire_now(slot, host);
            return Err(BatchError {
                member: i,
                error: FuError::NotPositiveDefinite { local_column: col },
            });
        }
    }
    Ok(Some(FuBatchPending { d_all, slot, total, members }))
}

/// Phase 2 for a batch: one download covers the whole run, then every
/// member unstages from its sub-range of the slot. Returns a pending that
/// [`finish_fu`] drains exactly like a single dispatch.
pub(crate) fn enqueue_batch_downloads<T: Scalar>(
    fronts: &mut [Front<'_, T>],
    batch: FuBatchPending,
    ctx: &mut FuContext<'_>,
) -> FuPending {
    let timing = ctx.timing_only;
    let (host, gpu, pool) = split_ctx(ctx);
    let FuBatchPending { d_all, slot, total, members } = batch;
    let compute = gpu.stream(S_COMPUTE);
    {
        let dst = if timing { &mut [][..] } else { &mut pool.slot_mut(slot)[..total] };
        gpu.d2h(
            compute,
            DevMat::whole(d_all, total),
            total,
            1,
            dst,
            total,
            true,
            CopyMode::Async,
            host,
        );
    }
    let done = gpu.record_event(compute);
    if !timing {
        for (f, &(base, s, _)) in fronts.iter_mut().zip(&members) {
            unstage_block(f, 0, 0, s, s, &pool.slot(slot)[base..base + s * s], s);
        }
    }
    pool.retire(slot, done.0, host);
    FuPending {
        executed: PolicyKind::P4,
        oom_fallback: false,
        state: PendingState::Downloaded(FinishPlan { done, bufs: vec![d_all], apply_bytes: 0 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_dense::matrix::random_spd;
    use mf_gpusim::Machine;

    fn spd_data(s: usize, seed: u64) -> Vec<f64> {
        random_spd::<f64>(s, seed).as_slice().to_vec()
    }

    /// Column-major entry of a front's backing buffer.
    fn at(data: &[f64], s: usize, i: usize, j: usize) -> f64 {
        data[i + j * s]
    }

    fn run(policy: PolicyKind, s: usize, k: usize, seed: u64) -> (Vec<f64>, f64) {
        let mut machine = Machine::paper_node();
        let mut pool = PinnedPool::new(2);
        let mut data = spd_data(s, seed);
        let mut front = Front { s, k, data: &mut data };
        let mut ctx = FuContext {
            host: &mut machine.host,
            gpu: machine.gpu.as_mut(),
            pool: &mut pool,
            copy_optimized: false,
            timing_only: false,
            kernel_threads: None,
        };
        let out = execute_fu(&mut front, policy, &mut ctx).unwrap();
        assert_eq!(out.executed, policy);
        assert!(!out.oom_fallback);
        (data, machine.elapsed())
    }

    #[test]
    fn all_policies_agree_numerically() {
        // One P4 panel, then three (the panel width is 64).
        for (s, k) in [(60, 24), (200, 150)] {
            let (f1, _) = run(PolicyKind::P1, s, k, 3);
            for p in [PolicyKind::P2, PolicyKind::P3, PolicyKind::P4] {
                let (fp, _) = run(p, s, k, 3);
                // Compare the panel and update lower triangles at f32 accuracy.
                let mut max = 0.0f64;
                for j in 0..s {
                    for i in j..s {
                        if j < k || i >= k {
                            max = max.max((at(&f1, s, i, j) - at(&fp, s, i, j)).abs());
                        }
                    }
                }
                assert!(max < 2e-3, "{p} {s}x{k} deviates from P1 by {max}");
            }
        }
    }

    #[test]
    fn p1_exact_against_direct_potrf() {
        let (s, k) = (40, 40); // root-style front: factor everything
        let (f, _) = run(PolicyKind::P1, s, k, 7);
        let mut a = random_spd::<f64>(s, 7);
        potrf(s, a.as_mut_slice(), s).unwrap();
        for j in 0..s {
            for i in j..s {
                assert!((at(&f, s, i, j) - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn root_front_m_zero_all_policies() {
        for p in PolicyKind::ALL {
            let (f, t) = run(p, 32, 32, 11);
            assert!(t > 0.0);
            for j in 0..32 {
                assert!(at(&f, 32, j, j) > 0.0, "{p} col {j}");
            }
        }
    }

    #[test]
    fn not_positive_definite_detected_on_every_policy() {
        // A failing pivot in the first P4 panel, then in the second.
        for (s, k, bad) in [(20, 10, 4), (160, 100, 70)] {
            for p in PolicyKind::ALL {
                let mut machine = Machine::paper_node();
                let mut pool = PinnedPool::new(2);
                let mut data = spd_data(s, 5);
                // Poison a pivot column inside the block.
                data[bad + bad * s] = -50.0;
                let mut front = Front { s, k, data: &mut data };
                let mut ctx = FuContext {
                    host: &mut machine.host,
                    gpu: machine.gpu.as_mut(),
                    pool: &mut pool,
                    copy_optimized: false,
                    timing_only: false,
                    kernel_threads: None,
                };
                let err = execute_fu(&mut front, p, &mut ctx).unwrap_err();
                assert_eq!(err, FuError::NotPositiveDefinite { local_column: bad }, "{p}");
            }
        }
    }

    #[test]
    fn large_fronts_prefer_gpu_policies() {
        // A large front must run faster under P3/P4 than P1 (the premise of
        // the whole paper).
        let (s, k) = (600, 150);
        let (_, t1) = run(PolicyKind::P1, s, k, 9);
        let (_, t3) = run(PolicyKind::P3, s, k, 9);
        let (_, t4) = run(PolicyKind::P4, s, k, 9);
        assert!(t3 < t1, "P3 {t3} ≥ P1 {t1}");
        assert!(t4 < t1, "P4 {t4} ≥ P1 {t1}");
    }

    #[test]
    fn small_fronts_prefer_cpu() {
        let (s, k) = (24, 8);
        let (_, t1) = run(PolicyKind::P1, s, k, 13);
        let (_, t4) = run(PolicyKind::P4, s, k, 13);
        assert!(t1 < t4, "P1 {t1} ≥ P4 {t4} — launch+copy overheads must dominate tiny fronts");
    }

    #[test]
    fn oom_falls_back_to_p1() {
        let mut machine = Machine::with_gpu(mf_gpusim::xeon_5160_core(), {
            let mut cfg = mf_gpusim::tesla_t10();
            cfg.mem_bytes = 1024; // far too small
            cfg
        });
        let mut pool = PinnedPool::new(2);
        let mut data = spd_data(64, 21);
        let mut front = Front { s: 64, k: 16, data: &mut data };
        let mut ctx = FuContext {
            host: &mut machine.host,
            gpu: machine.gpu.as_mut(),
            pool: &mut pool,
            copy_optimized: false,
            timing_only: false,
            kernel_threads: None,
        };
        let out = execute_fu(&mut front, PolicyKind::P4, &mut ctx).unwrap();
        assert_eq!(out.executed, PolicyKind::P1);
        assert!(out.oom_fallback);
        for j in 0..64 {
            assert!(front.at(j, j) > 0.0);
        }
    }

    #[test]
    fn no_gpu_machine_degrades_to_p1() {
        let mut machine = Machine::cpu_only(mf_gpusim::xeon_5160_core());
        let mut pool = PinnedPool::new(2);
        let mut data = spd_data(30, 2);
        let mut front = Front { s: 30, k: 10, data: &mut data };
        let mut ctx = FuContext {
            host: &mut machine.host,
            gpu: machine.gpu.as_mut(),
            pool: &mut pool,
            copy_optimized: false,
            timing_only: false,
            kernel_threads: None,
        };
        let out = execute_fu(&mut front, PolicyKind::P3, &mut ctx).unwrap();
        assert_eq!(out.executed, PolicyKind::P1);
    }

    #[test]
    fn copy_optimized_p4_is_faster() {
        let (s, k) = (400, 100);
        let mut t = [0.0f64; 2];
        for (idx, opt) in [false, true].into_iter().enumerate() {
            let mut machine = Machine::paper_node();
            let mut pool = PinnedPool::new(2);
            let mut data = spd_data(s, 31);
            let mut front = Front { s, k, data: &mut data };
            let mut ctx = FuContext {
                host: &mut machine.host,
                gpu: machine.gpu.as_mut(),
                pool: &mut pool,
                copy_optimized: opt,
                timing_only: false,
                kernel_threads: None,
            };
            execute_fu(&mut front, PolicyKind::P4, &mut ctx).unwrap();
            t[idx] = machine.elapsed();
        }
        assert!(t[1] < t[0], "copy-optimized {:.3e} ≥ naive {:.3e}", t[1], t[0]);
    }

    #[test]
    fn copy_optimized_p4_same_numerics() {
        let (s, k) = (80, 30);
        let (f_naive, _) = run(PolicyKind::P4, s, k, 41);
        let mut machine = Machine::paper_node();
        let mut pool = PinnedPool::new(2);
        let mut data = spd_data(s, 41);
        let mut front = Front { s, k, data: &mut data };
        let mut ctx = FuContext {
            host: &mut machine.host,
            gpu: machine.gpu.as_mut(),
            pool: &mut pool,
            copy_optimized: true,
            timing_only: false,
            kernel_threads: None,
        };
        execute_fu(&mut front, PolicyKind::P4, &mut ctx).unwrap();
        for j in 0..s {
            for i in j..s {
                if j < k || i >= k {
                    assert!((at(&f_naive, s, i, j) - front.at(i, j)).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn p3_overlap_depends_on_pcie_speed() {
        // P3's advantage rests on copies overlapping compute; crippling the
        // link must slow it dramatically (sanity that copies are modelled).
        let (s, k) = (500, 200);
        let (_, t_fast) = run(PolicyKind::P3, s, k, 17);
        let mut cfg = mf_gpusim::tesla_t10();
        cfg.pcie.pageable_bw /= 1000.0;
        cfg.pcie.pinned_bw /= 1000.0;
        let mut machine = Machine::with_gpu(mf_gpusim::xeon_5160_core(), cfg);
        let mut pool = PinnedPool::new(2);
        let mut data = spd_data(s, 17);
        let mut front = Front { s, k, data: &mut data };
        let mut ctx = FuContext {
            host: &mut machine.host,
            gpu: machine.gpu.as_mut(),
            pool: &mut pool,
            copy_optimized: false,
            timing_only: false,
            kernel_threads: None,
        };
        execute_fu(&mut front, PolicyKind::P3, &mut ctx).unwrap();
        assert!(machine.elapsed() > t_fast * 5.0);
    }

    #[test]
    fn estimate_matches_real_execution_time() {
        // The timing-only path must charge exactly what the real f32 path
        // does in steady state (warmed pinned pool — the estimate models
        // the paper's single-precision pipeline after pool growth has
        // amortised).
        for p in PolicyKind::ALL {
            let mut machine = Machine::paper_node();
            let mut pool = PinnedPool::new(2);
            let a = mf_dense::matrix::random_spd::<f32>(150, 77);
            let mut t_real = 0.0;
            for pass in 0..2 {
                machine.reset();
                let mut data = a.as_slice().to_vec();
                let mut front = Front { s: 150, k: 60, data: &mut data };
                let mut ctx = FuContext {
                    host: &mut machine.host,
                    gpu: machine.gpu.as_mut(),
                    pool: &mut pool,
                    copy_optimized: false,
                    timing_only: false,
                    kernel_threads: None,
                };
                execute_fu(&mut front, p, &mut ctx).unwrap();
                if pass == 1 {
                    t_real = machine.elapsed();
                }
            }
            let mut machine2 = Machine::paper_node();
            let t_est = estimate_fu_time(&mut machine2, 90, 60, p, false);
            let rel = (t_real - t_est).abs() / t_real;
            assert!(rel < 1e-9, "{p}: real {t_real:.6e} vs estimate {t_est:.6e}");
        }
    }

    #[test]
    fn estimate_handles_huge_fronts_cheaply() {
        // m = k = 10000 would be ~1.3 TFlop of real work; the estimate must
        // return instantly with a sensible (sub-minute simulated) time.
        let mut machine = Machine::paper_node();
        for p in PolicyKind::ALL {
            let t = estimate_fu_time(&mut machine, 10_000, 10_000, p, true);
            assert!(t > 0.1 && t < 600.0, "{p}: {t}");
        }
        // And GPU policies must beat P1 at this scale.
        let t1 = estimate_fu_time(&mut machine, 10_000, 10_000, PolicyKind::P1, true);
        let t4 = estimate_fu_time(&mut machine, 10_000, 10_000, PolicyKind::P4, true);
        assert!(t4 < t1 / 4.0, "P4 {t4} vs P1 {t1}");
    }

    #[test]
    fn keep_update_path_is_bitwise_identical_to_download_path() {
        // The multi-GPU driver's remote-child path must mutate the front
        // exactly like the normal download path — same bytes, different
        // simulated time — and export the exact device update block.
        let (s, k) = (96, 36);
        let m = s - k;
        for (policy, copy_optimized) in [
            (PolicyKind::P2, false),
            (PolicyKind::P3, false),
            (PolicyKind::P4, false),
            (PolicyKind::P4, true),
        ] {
            let run_once = |keep: bool| -> (Vec<f64>, Option<Vec<f32>>) {
                let mut machine = Machine::paper_node();
                let mut pool = PinnedPool::new(2);
                let mut data = spd_data(s, 63);
                let mut front = Front { s, k, data: &mut data };
                let mut ctx = FuContext {
                    host: &mut machine.host,
                    gpu: machine.gpu.as_mut(),
                    pool: &mut pool,
                    copy_optimized,
                    timing_only: false,
                    kernel_threads: None,
                };
                let mut pending = dispatch_fu(&mut front, policy, &mut ctx).unwrap();
                let export = enqueue_downloads(&mut front, &mut pending, keep, &mut ctx);
                finish_fu(&mut pending, &mut ctx);
                let block = export.map(|r| {
                    assert_eq!(r.m, m);
                    let gpu = machine.gpu.as_ref().unwrap();
                    let dev = gpu.peek(r.view.buf).unwrap();
                    let mut packed = vec![0.0f32; m * m];
                    for j in 0..m {
                        let off = r.view.off + j * r.view.ld;
                        packed[j * m..(j + 1) * m].copy_from_slice(&dev[off..off + m]);
                    }
                    machine.gpu.as_mut().unwrap().free(r.buf).unwrap();
                    packed
                });
                assert_eq!(machine.gpu.as_ref().unwrap().mem_used(), 0);
                (data, block)
            };
            let (normal, none) = run_once(false);
            assert!(none.is_none());
            let (kept, block) = run_once(true);
            assert_eq!(
                normal.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                kept.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{policy} copy_optimized={copy_optimized}: keep-update changed front bytes"
            );
            let block = block.expect("m > 0 GPU fronts export an update");
            // The exported block's lower triangle must be the device-exact
            // −L₂L₂ᵀ the normal path applied.
            let mut machine = Machine::paper_node();
            let mut pool = PinnedPool::new(2);
            let mut data = spd_data(s, 63);
            let mut front = Front { s, k, data: &mut data };
            let before: Vec<f64> = (0..m)
                .flat_map(|j| (j..m).map(move |i| (i, j)))
                .map(|(i, j)| front.at(k + i, k + j))
                .collect();
            let mut ctx = FuContext {
                host: &mut machine.host,
                gpu: machine.gpu.as_mut(),
                pool: &mut pool,
                copy_optimized,
                timing_only: false,
                kernel_threads: None,
            };
            execute_fu(&mut front, policy, &mut ctx).unwrap();
            let mut idx = 0;
            for j in 0..m {
                for i in j..m {
                    let expect = match policy {
                        // P4 factors the update block in place, so the
                        // device block holds A₂₂ − L₂L₂ᵀ, not the raw W.
                        PolicyKind::P4 => continue,
                        _ => front.at(k + i, k + j) - before[idx],
                    };
                    let got = block[j * m + i] as f64;
                    assert!(
                        (got - expect).abs() <= 1e-6 * (1.0 + expect.abs()),
                        "{policy}: W[{i},{j}] = {got}, expected {expect}"
                    );
                    idx += 1;
                }
            }
        }
    }

    #[test]
    fn device_memory_fully_released_after_each_policy() {
        for p in [PolicyKind::P2, PolicyKind::P3, PolicyKind::P4] {
            let mut machine = Machine::paper_node();
            let mut pool = PinnedPool::new(2);
            let mut data = spd_data(100, 51);
            let mut front = Front { s: 100, k: 40, data: &mut data };
            let mut ctx = FuContext {
                host: &mut machine.host,
                gpu: machine.gpu.as_mut(),
                pool: &mut pool,
                copy_optimized: false,
                timing_only: false,
                kernel_threads: None,
            };
            execute_fu(&mut front, p, &mut ctx).unwrap();
            assert_eq!(machine.gpu.as_ref().unwrap().mem_used(), 0, "{p} leaked device memory");
        }
    }
}
