//! The factor-update (F-U): one dense Cholesky step of a frontal matrix,
//! written as data. Table VI defines P1–P4 by *placement* — which of potrf,
//! trsm and syrk run on the device, and which regions cross PCIe around
//! them — and an [`FuPlan`] is exactly that: the device buffers, then an
//! ordered list of phase-1 ops (host kernels, uploads, device kernels,
//! events) and phase-2 ops (event-gated downloads, host landing of the
//! results). One interpreter runs every plan, with data (a factorization)
//! or without (a rehearsal and [`estimate_fu_time`], where the staging pool
//! is built without data and the device buffers are reserved, not
//! allocated); it is the only code that asks which.
//!
//! The placements follow the paper's workflow optimizations (Section V-A):
//!
//! * **P1** — potrf, trsm and syrk on the host; a small front takes one
//!   fused pass over its columns. Nothing is allocated per front.
//! * **P2** — potrf and trsm on the host; `L₂` uploads and syrk runs on the
//!   device in block-columns, each downloading behind its own event while
//!   the next computes (copy engine ∥ compute engine).
//! * **P3** — `A₂` uploads while the host runs potrf; `L₁` follows, the
//!   device runs trsm and syrk, and `L₂` downloads while syrk still runs.
//! * **P4** — everything on the device: Figure 9's panel loop (a `w × w`
//!   device potrf, a spanning trsm, then syrk/gemm trailing updates). With
//!   `copy_optimized` only the panel and update regions cross PCIe instead
//!   of the whole `s × s` front. A batch of small fronts is its members'
//!   panel loops behind one allocation, one upload and one download.
//!
//! One transfer rule serves every placement: with `keep_update` the update
//! block's downloads are dropped (a whole-front download shrinks to the
//! panel) and the device buffer holding it is exported as a
//! [`RemoteUpdate`] for a peer-copy extend-add.
//!
//! This module owns the three phases of one plan (dispatch, downloads,
//! finish) and their device buffers; `crate::lane` owns when they run
//! relative to other fronts. All GPU arithmetic is f32 (the paper's choice
//! on the T10); host fronts may be f64, converted at the staging boundary —
//! the mixed-precision scheme whose lost digits the paper recovers with
//! iterative refinement.

use crate::frontal::Front;
use crate::lane::Lane;
use crate::pinned_pool::PinnedPool;
use crate::policy::PolicyKind;
use mf_dense::{
    factor_front_small, front_is_small, potrf, syrk_lower, trsm_right_lower_trans, PotrfError,
    Scalar,
};
use mf_gpusim::{DevBuf, DevMat, Event, Gpu, HostClock, KernelKind, Machine, Stream};
use std::any::Any;
use std::borrow::Cow;
use std::cell::RefCell;

/// Width of the device panels in the P4 algorithm (Figure 9's `w`).
pub const DEFAULT_PANEL_WIDTH: usize = 64;

/// Block-column width for P2's overlapped `syrk` downloads.
const P2_DOWNLOAD_BLOCK: usize = 512;

/// Stream ids on the device (the issuer of fronts in flight adds a third for
/// incoming peer copies between devices).
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

impl From<PotrfError> for FuError {
    fn from(e: PotrfError) -> Self {
        FuError::NotPositiveDefinite { local_column: e.column }
    }
}

/// A failed dispatch of several fronts, attributed to one of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BatchError {
    /// Index into the dispatched fronts.
    pub member: usize,
    /// The underlying F-U failure.
    pub error: FuError,
}

/// Execution context shared across the factorization's F-U calls. Whether
/// data exists is the staging pool's (see [`PinnedPool::has_data`]).
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

/// A view into the plan's device buffer `buf` (its index in the plan's
/// allocations) at offset `off` with leading dimension `ld`.
#[derive(Debug, Clone, Copy)]
struct Dv {
    buf: usize,
    off: usize,
    ld: usize,
}

impl Dv {
    fn whole(buf: usize, ld: usize) -> Self {
        Dv { buf, off: 0, ld }
    }

    fn at(self, i: usize, j: usize) -> Self {
        Dv { off: self.off + i + j * self.ld, ..self }
    }
}

/// A `rows × cols` transfer between the device view `dev` and the plan's
/// staging slot `slot` from offset `at` with leading dimension `ld`.
#[derive(Debug, Clone, Copy)]
struct Xfer {
    dev: Dv,
    rows: usize,
    cols: usize,
    slot: usize,
    at: usize,
    ld: usize,
}

/// The part of a front an op moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    /// Rows `row0..row0 + rows` of the panel's `k` columns, packed at
    /// leading dimension `rows`.
    Panel { row0: usize, rows: usize },
    /// The `m × m` update block.
    Update,
    /// The whole `s × s` front at leading dimension `s`.
    Front,
}

/// One step of a plan. Fronts are indexed into the dispatched slice (one
/// front, or a batch's members); slots and events by the order of their
/// `Lease` and `Record` ops; device kernels run on the compute stream.
///
/// - `Host` — host kernels of front 0, in order (see [`host_kernels`]).
/// - `Lease` — the next staging slot, of this many scalars.
/// - `Stage` — a region of front `f` into a slot (data only).
/// - `H2d`, `D2h` — a transfer on a stream; a download may wait for an event
///   first, and its `region` is what the keep rule reads.
/// - `Trsm`, `Syrk`, `Gemm` — a device kernel; `PanelLoop` — Figure 9's
///   panel loop over front `f`, resident at `front`.
/// - `Record`, `Wait` — record the next event on a stream; make a stream
///   wait for an event.
/// - `Land` — a downloaded region of front `f` from a slot, lower triangles
///   only: written, or added (`add`, a device-computed `−L₂·L₂ᵀ`).
#[derive(Debug, Clone, Copy)]
enum Op {
    Host(&'static [KernelKind]),
    Lease(usize),
    Stage { f: usize, region: Region, slot: usize, at: usize },
    H2d { stream: usize, x: Xfer },
    Trsm { l: Dv, k: usize, b: Dv, m: usize },
    Syrk { a: Dv, c: Dv, n: usize, k: usize },
    Gemm { a: Dv, b: Dv, c: Dv, m: usize, n: usize, k: usize },
    PanelLoop { f: usize, front: Dv, s: usize, k: usize },
    Record(usize),
    Wait { stream: usize, ev: usize },
    D2h { region: Region, stream: usize, after: Option<usize>, x: Xfer },
    Land { f: usize, region: Region, add: bool, slot: usize, at: usize, ld: usize },
}

/// One front's (or one batch's) factor-update as data: the device
/// allocations, all made before any front mutation so that an OOM leaves
/// the fronts untouched, then the phase-1 ops `ops[..split]` and the phase-2
/// ops `ops[split..]`.
#[derive(Debug)]
pub(crate) struct FuPlan {
    /// The policy the plan runs.
    policy: PolicyKind,
    /// Device buffer lengths (f32 elements).
    allocs: Vec<usize>,
    ops: Cow<'static, [Op]>,
    split: usize,
    /// Where the update block is final on the device, and the event after
    /// which it is: what `keep_update` exports.
    update: Option<(Dv, usize)>,
}

impl FuPlan {
    /// P1 — or a P2/P3 root, whose pivot factor is all there is.
    fn host(policy: PolicyKind) -> Self {
        const P1: &[Op] = &[Op::Host(&[KernelKind::Potrf, KernelKind::Trsm, KernelKind::Syrk])];
        FuPlan { policy, allocs: Vec::new(), ops: Cow::Borrowed(P1), split: 1, update: None }
    }

    /// The placement of `policy` on an `s × s` front with `k` pivots under
    /// `ctx`'s transfer plan; every policy is P1 on a CPU-only machine.
    pub(crate) fn new(policy: PolicyKind, s: usize, k: usize, ctx: &FuContext<'_>) -> Self {
        use Op::*;
        let (m, copy_optimized) = (s - k, ctx.copy_optimized);
        let (sc, sx) = (S_COMPUTE, S_COPY);
        let xfer = |dev, rows, cols, slot, at, ld| Xfer { dev, rows, cols, slot, at, ld };
        let land = |region, add, slot, at, ld| Land { f: 0, region, add, slot, at, ld };
        let stage = |region, slot, at| Stage { f: 0, region, slot, at };
        let l2 = Region::Panel { row0: k, rows: m };
        let (allocs, ops, split, update) = match policy {
            _ if ctx.gpu.is_none() => return Self::host(PolicyKind::P1),
            PolicyKind::P1 => return Self::host(policy),
            PolicyKind::P2 | PolicyKind::P3 if m == 0 => return Self::host(policy),
            PolicyKind::P2 => {
                let (lv, wv) = (Dv::whole(0, m), Dv::whole(1, m));
                let mut ops = vec![
                    Host(&[KernelKind::Potrf, KernelKind::Trsm]),
                    Lease(m * k),
                    stage(l2, 0, 0),
                    H2d { stream: sc, x: xfer(lv, m, k, 0, 0, m) },
                    Lease(m * m),
                ];
                let chunks = (0..m).step_by(P2_DOWNLOAD_BLOCK);
                let jb = |j0: usize| P2_DOWNLOAD_BLOCK.min(m - j0);
                for j0 in chunks.clone() {
                    ops.push(Syrk { a: lv.at(j0, 0), c: wv.at(j0, j0), n: jb(j0), k });
                    let (j1, below) = (j0 + jb(j0), m - j0 - jb(j0));
                    if below > 0 {
                        let (a, b, c) = (lv.at(j1, 0), lv.at(j0, 0), wv.at(j1, j0));
                        ops.push(Gemm { a, b, c, m: below, n: jb(j0), k });
                    }
                    ops.push(Record(sc));
                }
                let split = ops.len();
                for (ev, j0) in chunks.clone().enumerate() {
                    let x = xfer(wv.at(j0, j0), m - j0, jb(j0), 1, j0 + j0 * m, m);
                    ops.push(D2h { region: Region::Update, stream: sx, after: Some(ev), x });
                }
                ops.push(land(Region::Update, true, 1, 0, m));
                (vec![m * k, m * m], ops, split, Some((wv, chunks.len() - 1)))
            }
            PolicyKind::P3 => {
                let (pv, l1, wv) = (Dv::whole(0, m), Dv::whole(1, k), Dv::whole(2, m));
                let ops = vec![
                    Lease(m * k),
                    stage(l2, 0, 0),
                    H2d { stream: sx, x: xfer(pv, m, k, 0, 0, m) },
                    Host(&[KernelKind::Potrf]),
                    Lease((k * k).max(m * m)),
                    stage(Region::Panel { row0: 0, rows: k }, 1, 0),
                    H2d { stream: sx, x: xfer(l1, k, k, 1, 0, k) },
                    Record(sx),
                    Wait { stream: sc, ev: 0 },
                    Trsm { l: l1, k, b: pv, m },
                    Record(sc),
                    Syrk { a: pv, c: wv, n: m, k },
                    Record(sc),
                    D2h { region: l2, stream: sx, after: Some(1), x: xfer(pv, m, k, 0, 0, m) },
                    D2h {
                        region: Region::Update,
                        stream: sx,
                        after: Some(2),
                        x: xfer(wv, m, m, 1, 0, m),
                    },
                    land(l2, false, 0, 0, m),
                    land(Region::Update, true, 1, 0, m),
                ];
                (vec![m * k, k * k, m * m], ops, 13, Some((wv, 2)))
            }
            PolicyKind::P4 => {
                let (fv, panel) = (Dv::whole(0, s), Region::Panel { row0: 0, rows: s });
                let uv = fv.at(k, k);
                // What crosses PCIe both ways: the whole front, or only its
                // panel and update block.
                let whole = [(Region::Front, xfer(fv, s, s, 0, 0, s))];
                let apart = [
                    (panel, xfer(fv, s, k, 0, 0, s)),
                    (Region::Update, xfer(uv, m, m, 0, s * k, m)),
                ];
                let parts =
                    if !copy_optimized { &whole[..] } else { &apart[..1 + usize::from(m > 0)] };
                let mut ops = vec![Lease(parts.iter().map(|(_, x)| x.rows * x.cols).sum())];
                for &(region, x) in parts {
                    ops.extend([stage(region, 0, x.at), H2d { stream: sc, x }]);
                }
                ops.push(PanelLoop { f: 0, front: fv, s, k });
                let split = ops.len();
                // The update's ready event, recorded when its downloads issue.
                ops.push(Record(sc));
                for &(region, x) in parts {
                    ops.push(D2h { region, stream: sc, after: None, x });
                }
                ops.push(land(panel, false, 0, 0, s));
                if m > 0 {
                    let (at, ld) = if copy_optimized { (s * k, m) } else { (k + k * s, s) };
                    ops.push(land(Region::Update, false, 0, at, ld));
                }
                (vec![s * s], ops, split, (m > 0).then_some((uv, 0)))
            }
        };
        FuPlan { policy, allocs, ops: ops.into(), split, update }
    }

    /// A batched P4 run of small fronts: their naive P4 panel loops behind
    /// one allocation, one upload and one download, so each member's
    /// kernels — and bits — are those of its own dispatch.
    pub(crate) fn batch<T>(fronts: &[Front<'_, T>]) -> Self {
        use Op::*;
        let (mut stage, mut loops, mut lands, mut total) = (vec![], vec![], vec![], 0);
        for (f, &Front { s, k, .. }) in fronts.iter().enumerate() {
            stage.push(Stage { f, region: Region::Front, slot: 0, at: total });
            loops.push(PanelLoop { f, front: Dv { buf: 0, off: total, ld: s }, s, k });
            let panel = Region::Panel { row0: 0, rows: s };
            lands.push(Land { f, region: panel, add: false, slot: 0, at: total, ld: s });
            if s > k {
                let at = total + k + k * s;
                lands.push(Land { f, region: Region::Update, add: false, slot: 0, at, ld: s });
            }
            total += s * s;
        }
        let x = Xfer { dev: Dv::whole(0, total), rows: total, cols: 1, slot: 0, at: 0, ld: total };
        let up = H2d { stream: S_COMPUTE, x };
        let down = D2h { region: Region::Front, stream: S_COMPUTE, after: None, x };
        let split = 2 + stage.len() + loops.len();
        let ops = [vec![Lease(total)], stage, vec![up], loops, vec![down], lands].concat();
        FuPlan { policy: PolicyKind::P4, allocs: vec![total], ops: ops.into(), split, update: None }
    }
}

/// A dispatched plan: what phases 2 and 3 have yet to run, and the device
/// buffers, staging slots and events phase 1 left behind. Look-ahead falls
/// out of call order: a lane that runs phase 1 of front *j+1* before phase 2
/// of front *j* has the next front uploading while the current one computes.
#[derive(Debug)]
pub(crate) struct FuPending {
    outcome: FuOutcome,
    plan: FuPlan,
    phase: Phase,
    bufs: Vec<DevBuf>,
    slots: Vec<usize>,
    events: Vec<Event>,
    /// Phase 2 under the keep rule.
    keep: bool,
    /// Stream of the last download issued, which the `done` event closes.
    last: Option<Stream>,
    /// Host bytes of applying downloaded updates, charged at the finish.
    apply_bytes: usize,
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Nothing outstanding on the device (a host plan, or finished).
    Done,
    Downloads,
    Finish(Event),
}

impl FuPending {
    /// The policy that ran, and whether a device OOM forced it.
    pub(crate) fn outcome(&self) -> FuOutcome {
        self.outcome
    }

    /// Whether every phase has run (nothing outstanding on the device).
    pub(crate) fn is_done(&self) -> bool {
        matches!(self.phase, Phase::Done)
    }

    /// Give up on the plan: free the device buffers it still owns, in
    /// whatever phase it stands, without charging any time. The error path
    /// of a driver whose caller keeps the machine.
    pub(crate) fn abandon(self, gpu: &mut Gpu) {
        for b in self.bufs {
            let _ = gpu.free(b);
        }
    }

    fn dev(&self, v: Dv) -> DevMat {
        DevMat { buf: self.bufs[v.buf], off: v.off, ld: v.ld }
    }

    /// Run one op: the interpreter's only body, and the only code that asks
    /// whether data exists (when it does not, a staging slot is empty and a
    /// reserved device buffer moves no bytes).
    fn step<T: Scalar>(
        &mut self,
        op: Op,
        fronts: &mut [Front<'_, T>],
        ctx: &mut FuContext<'_>,
    ) -> Result<(), BatchError> {
        let data = ctx.pool.has_data();
        let (host, pool) = (&mut *ctx.host, &mut *ctx.pool);
        if let Op::Host(kinds) = op {
            let ran = host_kernels(kinds, &mut fronts[0], host, data);
            return ran.map_err(|error| BatchError { member: 0, error });
        }
        let gpu = ctx.gpu.as_deref_mut().expect("device plans run on a device");
        let streams = [gpu.stream(S_COMPUTE), gpu.stream(S_COPY)];
        let compute = streams[S_COMPUTE];
        match op {
            Op::Host(_) => unreachable!("host kernels ran above"),
            Op::Lease(len) => self.slots.push(pool.lease(len, host)),
            Op::Stage { f, region, slot, at } => {
                if data {
                    stage(&fronts[f], region, &mut pool.slot_mut(self.slots[slot])[at..]);
                }
            }
            Op::H2d { stream, x } => {
                let src = pool.slot(self.slots[x.slot]).get(x.at..).unwrap_or_default();
                let (st, dst) = (streams[stream], self.dev(x.dev));
                gpu.h2d(st, dst, x.rows, x.cols, src, x.ld, host);
            }
            Op::Trsm { l, k, b, m } => gpu.trsm(compute, self.dev(l), k, self.dev(b), m, host),
            Op::Syrk { a, c, n, k } => gpu.syrk(compute, self.dev(a), self.dev(c), n, k, host),
            Op::Gemm { a, b, c, m, n, k } => {
                let (a, b, c) = (self.dev(a), self.dev(b), self.dev(c));
                gpu.gemm_nt(compute, a, b, c, m, n, k, host);
            }
            Op::PanelLoop { f, front, s, k } => {
                panel_loop(gpu, host, self.dev(front), s, k)
                    .map_err(|error| BatchError { member: f, error })?;
            }
            Op::Record(stream) => self.events.push(gpu.record_event(streams[stream])),
            Op::Wait { stream, ev } => gpu.wait_event(streams[stream], self.events[ev]),
            Op::D2h { region, stream, after, mut x } => {
                // The keep rule: the update block stays on the device.
                match region {
                    Region::Update if self.keep => return Ok(()),
                    Region::Front if self.keep => x.cols = fronts[0].k,
                    _ => {}
                }
                let st = streams[stream];
                if let Some(ev) = after {
                    gpu.wait_event(st, self.events[ev]);
                }
                let (src, dst) = (self.dev(x.dev), pool.slot_mut(self.slots[x.slot]));
                let dst = dst.get_mut(x.at..).unwrap_or_default();
                gpu.d2h(st, src, x.rows, x.cols, dst, x.ld, host);
                self.last = Some(st);
            }
            Op::Land { f, region, add, slot, at, ld } => {
                let (kept, m) = (self.keep && region == Region::Update, fronts[f].m());
                if add && !kept {
                    // Read and write of the packed lower triangle.
                    self.apply_bytes += m * (m + 1) * T::BYTES;
                }
                if data {
                    let (src, ld) = match self.plan.update.filter(|_| kept) {
                        Some((v, _)) => (&gpu.peek(self.dev(v).buf).expect("live")[v.off..], v.ld),
                        None => (&pool.slot(self.slots[slot])[at..], ld),
                    };
                    land(&mut fronts[f], region, src, ld, add);
                }
            }
        }
        Ok(())
    }
}

/// Phase 1 of `plan` over `fronts` (one front, or a batch's members): the
/// device buffers (allocated with data, reserved without), then every
/// phase-1 op. Returns `Ok(None)` on device OOM *without* falling back, the
/// fronts untouched — a lane with fronts in flight drains them (releasing
/// device memory) and retries before it accepts a P1 fallback, so its
/// fallback decisions match the drain schedule's. On a failing pivot every buffer and slot is released.
pub(crate) fn try_dispatch<T: Scalar>(
    fronts: &mut [Front<'_, T>],
    plan: FuPlan,
    ctx: &mut FuContext<'_>,
) -> Result<Option<FuPending>, BatchError> {
    let mut p = FuPending {
        outcome: FuOutcome { executed: plan.policy, oom_fallback: false },
        phase: if plan.allocs.is_empty() { Phase::Done } else { Phase::Downloads },
        plan,
        bufs: Vec::new(),
        slots: Vec::new(),
        events: Vec::new(),
        keep: false,
        last: None,
        apply_bytes: 0,
    };
    if let Some(gpu) = ctx.gpu.as_deref_mut() {
        let data = ctx.pool.has_data();
        let mut buf = |len| if data { gpu.alloc(len) } else { gpu.reserve(len) }.ok();
        p.bufs = p.plan.allocs.iter().map_while(|&len| buf(len)).collect();
        if p.bufs.len() < p.plan.allocs.len() {
            p.abandon(gpu);
            return Ok(None);
        }
    }
    for i in 0..p.plan.split {
        if let Err(e) = p.step(p.plan.ops[i], fronts, ctx) {
            p.slots.iter().rev().for_each(|&slot| ctx.pool.retire_now(slot, ctx.host));
            if let Some(gpu) = ctx.gpu.as_deref_mut() {
                p.abandon(gpu);
            }
            return Err(e);
        }
    }
    Ok(Some(p))
}

/// Phase 1 of one front with transparent fallback: on device OOM it runs P1
/// and flags the outcome.
pub(crate) fn dispatch_fu<T: Scalar>(
    front: &mut Front<'_, T>,
    policy: PolicyKind,
    ctx: &mut FuContext<'_>,
) -> Result<FuPending, FuError> {
    let fronts = std::slice::from_mut(front);
    let plan = FuPlan::new(policy, fronts[0].s, fronts[0].k, ctx);
    if let Some(p) = try_dispatch(fronts, plan, ctx).map_err(|e| e.error)? {
        return Ok(p);
    }
    let plan = FuPlan::host(PolicyKind::P1);
    let mut p =
        try_dispatch(fronts, plan, ctx).map_err(|e| e.error)?.expect("P1 allocates nothing");
    p.outcome.oom_fallback = true;
    Ok(p)
}

/// A device-resident contribution block left behind by phase 2 under
/// `keep_update`: the `m × m` update of a factored front, still on its
/// device, ready to be peer-copied into the device that owns the parent
/// front instead of round-tripping through the host.
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

/// Phase 2 of one front; see [`downloads`].
pub(crate) fn enqueue_downloads<T: Scalar>(
    front: &mut Front<'_, T>,
    pending: &mut FuPending,
    keep_update: bool,
    ctx: &mut FuContext<'_>,
) -> Option<RemoteUpdate> {
    downloads(std::slice::from_mut(front), pending, keep_update, ctx)
}

/// Phase 2: the plan's downloads, each gated on its producer's event, the
/// `done` event, the landing of the results in the fronts (the simulator
/// computes data eagerly, so results land as soon as the transfers are
/// queued — only *time* remains outstanding) and the staging slots retired
/// behind `done`. No host blocking happens here.
///
/// `keep_update` applies the keep rule to a plan that has an update block
/// on the device: it stays there, exported as a [`RemoteUpdate`], and the
/// host lands it from the device buffer in place — the simulator's
/// transfers are eager memcpys, so the bytes are those a download would
/// have produced and only simulated time changes. Nothing is exported (and
/// `None` returned) from a finished plan or one without an update block.
pub(crate) fn downloads<T: Scalar>(
    fronts: &mut [Front<'_, T>],
    p: &mut FuPending,
    keep_update: bool,
    ctx: &mut FuContext<'_>,
) -> Option<RemoteUpdate> {
    if !matches!(p.phase, Phase::Downloads) {
        return None;
    }
    p.keep = keep_update && p.plan.update.is_some();
    for i in p.plan.split..p.plan.ops.len() {
        p.step(p.plan.ops[i], fronts, ctx).expect("phase 2 has no failing op");
    }
    let gpu = ctx.gpu.as_deref_mut().expect("device plans run on a device");
    let mut done = p.last.map(|st| gpu.record_event(st));
    let remote = p.plan.update.filter(|_| p.keep).map(|(v, ev)| {
        let ready = p.events[ev];
        done = Some(Event(done.map_or(ready.0, |d| d.0.max(ready.0))));
        let view = p.dev(v);
        RemoteUpdate { buf: p.bufs.remove(v.buf), view, m: fronts[0].m(), ready }
    });
    let done = done.expect("a device plan downloads or exports");
    for &slot in p.slots.iter().rev() {
        ctx.pool.retire(slot, done.0, ctx.host);
    }
    p.phase = Phase::Finish(done);
    remote
}

/// Phase 3 — the only host block: wait for the `done` event, free the
/// device buffers and land the deferred host charge of applying updates.
pub(crate) fn finish_fu(p: &mut FuPending, ctx: &mut FuContext<'_>) {
    let Phase::Finish(done) = p.phase else { return };
    p.phase = Phase::Done;
    let gpu = ctx.gpu.as_deref_mut().expect("device plans run on a device");
    gpu.wait_event_host(done, ctx.host);
    for b in p.bufs.drain(..) {
        let _ = gpu.free(b);
    }
    if p.apply_bytes > 0 {
        ctx.host.charge_memop(p.apply_bytes, crate::frontal::ASSEMBLY_BW);
    }
}

/// Estimate the simulated time of one factor-update of dimensions `(m, k)`
/// under `policy`, without computing anything — the staging pool is built
/// without data, so the device buffers are reserved, not allocated, and the
/// front is a dummy, run through the drain schedule's body
/// (`Lane::run_front`). The estimate is the front's
/// [`FuRecord::total`](crate::FuRecord::total): the factor-update proper,
/// without its extraction. This powers the paper's policy-map and
/// speedup-map figures (12, 13, 14), whose `(m, k)` ranges are far beyond
/// what real numerics could cover.
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
    let mut pool = PinnedPool::new(2, false);
    let mut front = Front::<f32> { s: m + k, k, panel: &mut [], update: &mut [] };
    let mut t = 0.0;
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
        };
        let ran = Lane::new().run_front(0, &mut front, policy, true, &mut ctx);
        t = ran.expect("no data, so no failing pivot").record.expect("a recorded front").total;
    }
    machine.reset();
    t
}

// ----- host kernels and staging ----------------------------------------------

std::thread_local! {
    /// Per-thread pivot-block packing scratch, one buffer per scalar type.
    /// Never shrinks; a whole factorization performs at most one allocation
    /// per thread here.
    static PIVOT_SCRATCH: RefCell<(Vec<f32>, Vec<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Run `body` on a thread-local scratch slice of `len` scalars. The slice
/// is *not* zeroed between calls — the trsm overwrites the lower triangle
/// it reads, and `trsm_right_lower_trans` never touches the strictly-upper
/// part, so stale values cannot reach any computation.
fn with_pivot_scratch<T: Scalar, R>(len: usize, body: impl FnOnce(&mut [T]) -> R) -> R {
    PIVOT_SCRATCH.with_borrow_mut(|(f32s, f64s)| {
        let bufs: [&mut dyn Any; 2] = [f32s, f64s];
        let buf = bufs.into_iter().find_map(|b| b.downcast_mut::<Vec<T>>()).expect("f32 or f64");
        buf.resize(buf.len().max(len), T::ZERO);
        body(&mut buf[..len])
    })
}

/// Host kernels of `front`, in order — potrf of the pivot block, trsm of the
/// panel below it, syrk of that panel into the update block — computed when
/// data exists, and charged; trsm and syrk are empty at `m = 0`. All three
/// on a small front (P1) take one fused pass over its columns — the same
/// arithmetic in the same order — and then only their charges remain.
fn host_kernels<T: Scalar>(
    kinds: &[KernelKind],
    front: &mut Front<'_, T>,
    host: &mut HostClock,
    data: bool,
) -> Result<(), FuError> {
    let (s, k, m) = (front.s, front.k, front.m());
    let fused = data && kinds.len() == 3 && front_is_small(s, k);
    if fused {
        factor_front_small(s, k, front.panel, front.update)?;
    }
    let compute = data && !fused;
    for &kind in kinds {
        match kind {
            KernelKind::Potrf => {
                if compute {
                    potrf(k, front.panel, s)?;
                }
                host.charge_kernel(kind, 0, k, 0);
            }
            KernelKind::Trsm if m > 0 => {
                if compute {
                    // Pack the k×k pivot block (lower triangle) into scratch.
                    with_pivot_scratch::<T, _>(k * k, |l1| {
                        for j in 0..k {
                            for i in j..k {
                                l1[i + j * k] = front.panel[i + j * s];
                            }
                        }
                        trsm_right_lower_trans(m, k, l1, k, &mut front.panel[k..], s);
                    });
                }
                host.charge_kernel(kind, m, 0, k);
            }
            KernelKind::Syrk if m > 0 => {
                if compute {
                    // L₂ is read in place in the panel (the engine packs
                    // strided operands itself) and the product lands in the
                    // update block.
                    syrk_lower(m, k, -T::ONE, &front.panel[k..], s, T::ONE, front.update, m);
                }
                host.charge_kernel(kind, 0, m, k);
            }
            _ => {}
        }
    }
    Ok(())
}

fn stage_to_f32<T: Scalar>(src: &[T], dst: &mut [f32]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.to_f64() as f32;
    }
}

/// Stage a region of `front` into a packed f32 buffer: a panel row range at
/// leading dimension `rows`, the update block at `m`, or the whole `s × s`
/// front at `s` — the panel's columns, then each update column below `k`
/// zeros (the `k × m` block above the update block is stored nowhere, and
/// no kernel reads it).
fn stage<T: Scalar>(front: &Front<'_, T>, region: Region, dst: &mut [f32]) {
    let (s, k, m) = (front.s, front.k, front.m());
    match region {
        Region::Panel { row0, rows } => {
            for j in 0..k {
                let src = &front.panel[j * s + row0..j * s + row0 + rows];
                stage_to_f32(src, &mut dst[j * rows..(j + 1) * rows]);
            }
        }
        Region::Update => stage_to_f32(front.update, dst),
        Region::Front => {
            stage(front, Region::Panel { row0: 0, rows: s }, dst);
            for j in 0..m {
                let col = &mut dst[(k + j) * s..(k + j + 1) * s];
                col[..k].fill(0.0);
                stage_to_f32(&front.update[j * m..(j + 1) * m], &mut col[k..]);
            }
        }
    }
}

/// Land an f32 block (leading dimension `ld`) in a region of `front`
/// — written, or added with `add` — never above the diagonal: column `j`
/// starts at row `max(row0, j)`, so the strictly-upper triangle of a slab
/// panel stays zero.
fn land<T: Scalar>(front: &mut Front<'_, T>, region: Region, src: &[f32], ld: usize, add: bool) {
    let (s, k, m) = (front.s, front.k, front.m());
    let (dst, dld, row0, rows, cols) = match region {
        Region::Panel { row0, rows } => (&mut *front.panel, s, row0, rows, k),
        _ => (&mut *front.update, m, 0, m, m),
    };
    for j in 0..cols {
        let top = row0.max(j);
        let from = &src[j * ld + top - row0..j * ld + rows];
        for (d, &v) in dst[j * dld + top..j * dld + row0 + rows].iter_mut().zip(from) {
            let v = T::from_f64(v as f64);
            *d = if add { *d + v } else { v };
        }
    }
}

/// Figure 9's panel loop over a device-resident `s × s` front view with
/// pivot width `k`. Returns the failing front-local column on a
/// non-positive pivot.
fn panel_loop(
    gpu: &mut Gpu,
    host: &mut HostClock,
    fv: DevMat,
    s: usize,
    k: usize,
) -> Result<(), FuError> {
    let m = s - k;
    let compute = gpu.stream(S_COMPUTE);
    let mut p = 0;
    while p < k {
        let wb = DEFAULT_PANEL_WIDTH.min(k - p);
        gpu.panel_potrf(compute, fv.offset(p, p), wb, host)
            .map_err(|col| FuError::NotPositiveDefinite { local_column: p + col })?;
        let rest = s - p - wb;
        if rest > 0 {
            gpu.trsm(compute, fv.offset(p, p), wb, fv.offset(p + wb, p), rest, host);
        }
        let k_rest = k - p - wb;
        if k_rest > 0 {
            gpu.syrk(compute, fv.offset(p + wb, p), fv.offset(p + wb, p + wb), k_rest, wb, host);
            if m > 0 {
                let (a, b, c) = (fv.offset(k, p), fv.offset(p + wb, p), fv.offset(k, p + wb));
                gpu.gemm_nt(compute, a, b, c, m, k_rest, wb, host);
            }
        }
        if m > 0 {
            gpu.syrk(compute, fv.offset(k, p), fv.offset(k, k), m, wb, host);
        }
        p += wb;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::FuRecord;
    use mf_dense::matrix::random_spd;
    use mf_gpusim::Machine;

    /// A front's two buffers as the drivers hand them over: the `s × k`
    /// panel with its strictly-upper triangle zero (a fresh slab region)
    /// and the trailing block packed at leading dimension `m`.
    struct Bufs<T> {
        s: usize,
        k: usize,
        panel: Vec<T>,
        update: Vec<T>,
    }

    impl<T: Scalar> Bufs<T> {
        /// The front of a random `s × s` SPD matrix.
        fn spd(s: usize, k: usize, seed: u64) -> Self {
            let a = random_spd::<T>(s, seed);
            let a = a.as_slice();
            let mut panel = a[..s * k].to_vec();
            for j in 0..k {
                panel[j * s..j * s + j].fill(T::ZERO);
            }
            let update = (k..s).flat_map(|j| a[j * s + k..(j + 1) * s].to_vec()).collect();
            Bufs { s, k, panel, update }
        }

        fn front(&mut self) -> Front<'_, T> {
            Front { s: self.s, k: self.k, panel: &mut self.panel, update: &mut self.update }
        }

        /// Entry `(i, j)`, `i ≥ j`.
        fn at(&self, i: usize, j: usize) -> T {
            let (s, k) = (self.s, self.k);
            if j < k {
                self.panel[i + j * s]
            } else {
                self.update[(i - k) + (j - k) * (s - k)]
            }
        }

        /// Bits of the lower triangle, column by column.
        fn lower_bits(&self) -> Vec<u64> {
            let s = self.s;
            (0..s)
                .flat_map(|j| (j..s).map(move |i| (i, j)))
                .map(|(i, j)| self.at(i, j).to_f64().to_bits())
                .collect()
        }

        /// Whether the panel's strictly-upper triangle is exactly zero.
        fn upper_zero(&self) -> bool {
            (0..self.k)
                .all(|j| self.panel[j * self.s..j * self.s + j].iter().all(|&x| x == T::ZERO))
        }
    }

    fn ctx<'a>(
        machine: &'a mut Machine,
        pool: &'a mut PinnedPool,
        copy_optimized: bool,
    ) -> FuContext<'a> {
        FuContext { host: &mut machine.host, gpu: machine.gpu.as_mut(), pool, copy_optimized }
    }

    /// One front through the drain schedule's body: its record — the policy
    /// that ran, and the factor-update's simulated seconds in `total` — and
    /// whether a device OOM forced that policy.
    fn run_fu<T: Scalar>(
        front: &mut Front<'_, T>,
        policy: PolicyKind,
        ctx: &mut FuContext<'_>,
    ) -> Result<(FuRecord, bool), FuError> {
        let out = Lane::new().run_front(0, front, policy, true, ctx)?;
        Ok((out.record.expect("a recorded front"), out.oom_fallback))
    }

    fn run(policy: PolicyKind, s: usize, k: usize, seed: u64) -> (Bufs<f64>, f64) {
        let mut machine = Machine::paper_node();
        let mut pool = PinnedPool::new(2, true);
        let mut bufs = Bufs::spd(s, k, seed);
        let (record, oom_fallback) =
            run_fu(&mut bufs.front(), policy, &mut ctx(&mut machine, &mut pool, false)).unwrap();
        assert_eq!(record.policy, policy);
        assert!(!oom_fallback);
        (bufs, record.total)
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
                        max = max.max((f1.at(i, j) - fp.at(i, j)).abs());
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
                assert!((f.at(i, j) - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn root_front_m_zero_all_policies() {
        for p in PolicyKind::ALL {
            let (f, t) = run(p, 32, 32, 11);
            assert!(t > 0.0);
            for j in 0..32 {
                assert!(f.at(j, j) > 0.0, "{p} col {j}");
            }
        }
    }

    #[test]
    fn not_positive_definite_detected_on_every_policy() {
        // A failing pivot in the first P4 panel, then in the second.
        for (s, k, bad) in [(20, 10, 4), (160, 100, 70)] {
            for p in PolicyKind::ALL {
                let mut machine = Machine::paper_node();
                let mut pool = PinnedPool::new(2, true);
                let mut bufs = Bufs::<f64>::spd(s, k, 5);
                // Poison a pivot column inside the block.
                bufs.panel[bad + bad * s] = -50.0;
                let mut ctx = ctx(&mut machine, &mut pool, false);
                let err = run_fu(&mut bufs.front(), p, &mut ctx).unwrap_err();
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
        let mut pool = PinnedPool::new(2, true);
        let mut bufs = Bufs::<f64>::spd(64, 16, 21);
        let (record, oom_fallback) =
            run_fu(&mut bufs.front(), PolicyKind::P4, &mut ctx(&mut machine, &mut pool, false))
                .unwrap();
        assert_eq!(record.policy, PolicyKind::P1);
        assert!(oom_fallback);
        for j in 0..64 {
            assert!(bufs.at(j, j) > 0.0);
        }
    }

    #[test]
    fn no_gpu_machine_degrades_to_p1() {
        let mut machine = Machine::cpu_only(mf_gpusim::xeon_5160_core());
        let mut pool = PinnedPool::new(2, true);
        let mut bufs = Bufs::<f64>::spd(30, 10, 2);
        let mut ctx = ctx(&mut machine, &mut pool, false);
        let (record, _) = run_fu(&mut bufs.front(), PolicyKind::P3, &mut ctx).unwrap();
        assert_eq!(record.policy, PolicyKind::P1);
    }

    #[test]
    fn copy_optimized_p4_is_faster() {
        let (s, k) = (400, 100);
        let mut t = [0.0f64; 2];
        for (idx, opt) in [false, true].into_iter().enumerate() {
            let mut machine = Machine::paper_node();
            let mut pool = PinnedPool::new(2, true);
            let mut bufs = Bufs::<f64>::spd(s, k, 31);
            let mut ctx = ctx(&mut machine, &mut pool, opt);
            t[idx] = run_fu(&mut bufs.front(), PolicyKind::P4, &mut ctx).unwrap().0.total;
        }
        assert!(t[1] < t[0], "copy-optimized {:.3e} ≥ naive {:.3e}", t[1], t[0]);
    }

    #[test]
    fn copy_optimized_p4_same_numerics() {
        let (s, k) = (80, 30);
        let (naive, _) = run(PolicyKind::P4, s, k, 41);
        let mut machine = Machine::paper_node();
        let mut pool = PinnedPool::new(2, true);
        let mut bufs = Bufs::<f64>::spd(s, k, 41);
        run_fu(&mut bufs.front(), PolicyKind::P4, &mut ctx(&mut machine, &mut pool, true)).unwrap();
        assert_eq!(bufs.lower_bits(), naive.lower_bits());
    }

    #[test]
    fn p3_overlap_depends_on_pcie_speed() {
        // P3's advantage rests on copies overlapping compute; crippling the
        // link must slow it dramatically (sanity that copies are modelled).
        let (s, k) = (500, 200);
        let (_, t_fast) = run(PolicyKind::P3, s, k, 17);
        let mut cfg = mf_gpusim::tesla_t10();
        cfg.pcie.pinned_bw /= 1000.0;
        let mut machine = Machine::with_gpu(mf_gpusim::xeon_5160_core(), cfg);
        let mut pool = PinnedPool::new(2, true);
        let mut bufs = Bufs::<f64>::spd(s, k, 17);
        let mut ctx = ctx(&mut machine, &mut pool, false);
        let (record, _) = run_fu(&mut bufs.front(), PolicyKind::P3, &mut ctx).unwrap();
        assert!(record.total > t_fast * 5.0);
    }

    #[test]
    fn estimate_matches_real_execution_time() {
        // The timing-only path must charge exactly what the real f32 path
        // does in steady state (warmed pinned pool — the estimate models
        // the paper's single-precision pipeline after pool growth has
        // amortised): the same plan, run with and without data, to the bit.
        // Shapes: a mid-size front, a fused small one, a root (m = 0), a
        // large one and the keep test's front, under both P4 transfer plans.
        for (s, k) in [(150, 60), (20, 7), (40, 40), (300, 100), (96, 36)] {
            for copy_optimized in [false, true] {
                for p in PolicyKind::ALL {
                    let mut machine = Machine::paper_node();
                    let mut pool = PinnedPool::new(2, true);
                    let mut t_real = 0.0;
                    for _pass in 0..2 {
                        machine.reset();
                        let mut bufs = Bufs::<f32>::spd(s, k, 77);
                        let mut ctx = ctx(&mut machine, &mut pool, copy_optimized);
                        t_real = run_fu(&mut bufs.front(), p, &mut ctx).unwrap().0.total;
                    }
                    let mut machine2 = Machine::paper_node();
                    let t_est = estimate_fu_time(&mut machine2, s - k, k, p, copy_optimized);
                    assert_eq!(
                        t_real.to_bits(),
                        t_est.to_bits(),
                        "{p} {s}x{k} copy_optimized={copy_optimized}: \
                         real {t_real:.17e} vs estimate {t_est:.17e}"
                    );
                }
            }
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
        // The peer-export path between devices must mutate the front
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
            let run_once = |keep: bool| -> (Bufs<f64>, Option<Vec<f32>>) {
                let mut machine = Machine::paper_node();
                let mut pool = PinnedPool::new(2, true);
                let mut bufs = Bufs::spd(s, k, 63);
                let mut front = bufs.front();
                let mut ctx = ctx(&mut machine, &mut pool, copy_optimized);
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
                (bufs, block)
            };
            let (normal, none) = run_once(false);
            assert!(none.is_none());
            let (kept, block) = run_once(true);
            assert_eq!(
                normal.lower_bits(),
                kept.lower_bits(),
                "{policy} copy_optimized={copy_optimized}: keep-update changed front bytes"
            );
            assert!(kept.upper_zero());
            let block = block.expect("m > 0 GPU fronts export an update");
            // The exported block's lower triangle must be the device-exact
            // −L₂L₂ᵀ the normal path applied.
            let before = Bufs::<f64>::spd(s, k, 63);
            for j in 0..m {
                for i in j..m {
                    let expect = match policy {
                        // P4 factors the update block in place, so the
                        // device block holds A₂₂ − L₂L₂ᵀ, not the raw W.
                        PolicyKind::P4 => continue,
                        _ => normal.at(k + i, k + j) - before.at(k + i, k + j),
                    };
                    let got = block[j * m + i] as f64;
                    assert!(
                        (got - expect).abs() <= 1e-6 * (1.0 + expect.abs()),
                        "{policy}: W[{i},{j}] = {got}, expected {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn device_memory_fully_released_after_each_policy() {
        for p in [PolicyKind::P2, PolicyKind::P3, PolicyKind::P4] {
            let mut machine = Machine::paper_node();
            let mut pool = PinnedPool::new(2, true);
            let mut bufs = Bufs::<f64>::spd(100, 40, 51);
            run_fu(&mut bufs.front(), p, &mut ctx(&mut machine, &mut pool, false)).unwrap();
            assert_eq!(machine.gpu.as_ref().unwrap().mem_used(), 0, "{p} leaked device memory");
        }
    }

    /// FNV-1a over 64-bit words.
    fn fnv(words: &[u64]) -> u64 {
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    fn two_buffer_policies_keep_slab_upper_zero_and_single_buffer_bits() {
        // Every policy factors the panel in place and writes the update
        // block directly: the panel's strictly-upper triangle must come out
        // exactly zero, and the lower triangles must hash to what the
        // single-buffer front (one s × s buffer, the panel copied out after
        // the factor-update) gave on the same inputs — recorded at commit
        // 0c1acb9, the last one with that front; the fronts whose panel
        // solve (`trsm_right_lower_trans`, below the pivot block) spans more
        // than 24 columns re-recorded when that solve became recursive.
        // Shapes: a fused small front, one and three P4 panels, a
        // three-panel P4 front with a large pivot block, and a root (m = 0).
        let shapes =
            [(20usize, 7usize, 1u64), (60, 24, 3), (96, 36, 63), (200, 150, 5), (40, 40, 7)];
        let golden: [(PolicyKind, bool, [u64; 5]); 5] = [
            (
                PolicyKind::P1,
                false,
                [
                    0xf0be1ef228e28d71,
                    0xfcb661c7b14399c3,
                    0x43af227d06dd891b,
                    0x36dfe8fee48b1b41,
                    0x565a034c9b93614f,
                ],
            ),
            (
                PolicyKind::P2,
                false,
                [
                    0x5419d30ea3cf2f11,
                    0x2ab238b7f2df4780,
                    0xe91c3e07c1c9a4d2,
                    0x978e3b014cfcddcd,
                    0x565a034c9b93614f,
                ],
            ),
            (
                PolicyKind::P3,
                false,
                [
                    0x367524bd36a93b71,
                    0xd2c0a414d613128b,
                    0x349fae208f931b0f,
                    0x525ef020c8c953cb,
                    0x565a034c9b93614f,
                ],
            ),
            (
                PolicyKind::P4,
                false,
                [
                    0x975b4f3cff2d50a0,
                    0xa913b2b1182bf773,
                    0x6a07e8d48f1f9473,
                    0xad201e9dae781587,
                    0x79efe2d82143a4d9,
                ],
            ),
            (
                PolicyKind::P4,
                true,
                [
                    0x975b4f3cff2d50a0,
                    0xa913b2b1182bf773,
                    0x6a07e8d48f1f9473,
                    0xad201e9dae781587,
                    0x79efe2d82143a4d9,
                ],
            ),
        ];
        for (policy, copy_optimized, want) in golden {
            for (&(s, k, seed), want) in shapes.iter().zip(want) {
                let mut machine = Machine::paper_node();
                let mut pool = PinnedPool::new(2, true);
                let mut bufs = Bufs::<f64>::spd(s, k, seed);
                let mut ctx = ctx(&mut machine, &mut pool, copy_optimized);
                run_fu(&mut bufs.front(), policy, &mut ctx).unwrap();
                let what = format!("{policy} copy_optimized={copy_optimized} {s}x{k}");
                assert!(bufs.upper_zero(), "{what}: the panel's upper triangle was written");
                assert_eq!(fnv(&bufs.lower_bits()), want, "{what}: bits moved");
            }
        }
        // A batched P4 run of small fronts, a root among them.
        let members = [(30usize, 10usize, 11u64), (48, 16, 12), (64, 64, 13), (100, 40, 14)];
        let want = [0x6bec081e35036789, 0x8749c141e826dabf, 0x6b34d7a69e66e0bd, 0xac031477660f8b7e];
        let mut bufs: Vec<Bufs<f64>> =
            members.iter().map(|&(s, k, seed)| Bufs::spd(s, k, seed)).collect();
        let mut machine = Machine::paper_node();
        let mut pool = PinnedPool::new(2, true);
        let mut ctx = ctx(&mut machine, &mut pool, false);
        let mut fronts: Vec<Front<'_, f64>> = bufs.iter_mut().map(Bufs::front).collect();
        let plan = FuPlan::batch(&fronts);
        let mut pending = try_dispatch(&mut fronts, plan, &mut ctx).unwrap().expect("the run fits");
        assert!(downloads(&mut fronts, &mut pending, false, &mut ctx).is_none());
        finish_fu(&mut pending, &mut ctx);
        drop(fronts);
        for (i, (b, want)) in bufs.iter().zip(want).enumerate() {
            assert!(b.upper_zero(), "batch member {i}: the panel's upper triangle was written");
            assert_eq!(fnv(&b.lower_bits()), want, "batch member {i}: bits moved");
        }
    }
}
