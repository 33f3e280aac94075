//! The pipelined front lifecycle: one body per phase, shared by every driver
//! whose fronts overlap on a device.
//!
//! A front goes through assemble → dispatch under a policy → downloads →
//! extraction → finish, and hands its update to its parent. [`crate::fu`]
//! owns what each phase does to one front; this module owns *when* the
//! phases run relative to other fronts on the same device, and the device
//! buffers outstanding in between. A [`Lane`] is one device's pipeline: at
//! most one *staged* front (dispatched, downloads not yet enqueued — holding
//! them back until the next front dispatches lets that front's upload
//! overtake them on the copy engine) and a FIFO of fronts *in flight*
//! (downloads enqueued, results already extracted because the simulator
//! computes data eagerly, only the host's wait and the extraction charges
//! outstanding).
//!
//! Three issuers drive lanes and own nothing of the lifecycle but its order:
//! the arena loop of [`crate::factor`] (the drain schedule: every front
//! through [`Lane::run_front`], finished before the next assembles — every
//! work-stealing task of [`crate::parallel`] is this loop over its range), its
//! postorder issuer (look-ahead and batched P4 runs; timing-only without
//! look-ahead it rehearses that drain schedule) and [`crate::multigpu`] (one
//! lane per device, peer exports). What differs between them arrives as
//! data: staging, `keep_update`, timing-only, and the [`FrontSink`] that
//! receives the results. [`Lane::run_front`] and [`Lane::run_staged`] are the
//! only places a front's phases are sequenced.
//!
//! Numerics never depend on the schedule: every body runs the same host
//! operations on the same bytes in the same per-front order whatever is
//! staged or in flight, and a device OOM first drains the lane to the
//! empty-device state of the drain driver so P1-fallback decisions — the
//! one place scheduling could touch numerics — match it.

use crate::factor::FactorError;
use crate::frontal::{
    assemble_front_into, charge_assemble, charge_panel_extract, charge_update_extract,
    extract_panel_copy, lower_trapezoid_len, packed_update, ChildUpdate, Front,
};
use crate::fu::{
    dispatch_fu, enqueue_batch_downloads, enqueue_downloads, finish_fu, try_dispatch_gpu,
    try_dispatch_gpu_batch, BatchError, FuBatchPending, FuContext, FuError, FuOutcome, FuPending,
    RemoteUpdate,
};
use crate::policy::PolicyKind;
use mf_dense::Scalar;
use mf_gpusim::HostClock;
use mf_sparse::symbolic::SymbolicFactor;
use mf_sparse::SymCsc;
use std::collections::VecDeque;

/// Fronts one lane keeps in flight before the host waits for the oldest.
/// Each holds its pinned staging generation leased, so the window bounds
/// the pinned pool. Simulated makespans are flat in it: on plate 120², cube
/// 16³ and elasticity 10³ (f32, fixed P2/P3/P4 and the baseline hybrid,
/// paper node) a window of 1 costs up to 0.6 % and 2 to 6 stay within 0.4 %
/// of 3 in either direction — no caller ever had a reason to set another.
pub(crate) const PIPELINE_DEPTH: usize = 3;

/// Whoever issues fronts into a lane, as the lane sees it.
pub(crate) trait FrontSink<T> {
    /// Take the factored panel and the packed update out of `front` (data
    /// only — the lane charges the clock); the front's buffer is released
    /// after the call. `remote` is the update block left on the device when
    /// the front was flushed with `keep_update`.
    fn deliver(&mut self, sn: usize, front: &Front<'_, T>, remote: Option<RemoteUpdate>);

    /// The lane has drained ahead of an OOM retry: release whatever else the
    /// issuer holds on the device of `ctx`.
    fn device_drained(&mut self, _ctx: &mut FuContext<'_>) {}
}

impl<T, F: FnMut(usize, &Front<'_, T>)> FrontSink<T> for F {
    fn deliver(&mut self, sn: usize, front: &Front<'_, T>, _remote: Option<RemoteUpdate>) {
        self(sn, front)
    }
}

/// What a [`FrontSink`] takes out of a factored front, as data: the panel
/// copied into `panel_out` (the supernode's slab region) and the packed
/// update, `None` when `m = 0`.
pub(crate) fn extract_front<T: Scalar>(
    front: &Front<'_, T>,
    panel_out: &mut [T],
) -> Option<Vec<T>> {
    extract_panel_copy(front, panel_out);
    packed_update(front.data, front.s, front.k)
}

/// The owned updates of `sn`'s children in postorder child rank — the order
/// every driver extend-adds them in, which is what keeps the factor bits
/// independent of the schedule. A child whose update is gone means the
/// worker that ran it died mid-task.
pub(crate) fn take_children<T>(
    symbolic: &SymbolicFactor,
    sn: usize,
    mut take: impl FnMut(usize) -> Option<Vec<T>>,
) -> Result<Vec<Vec<T>>, FactorError> {
    let lost = FactorError::WorkerLost { supernode: sn };
    symbolic.children(sn).iter().map(|&c| take(c).ok_or(lost)).collect()
}

/// Borrowed views of [`take_children`]'s buffers for the extend-add.
pub(crate) fn child_views<'c, T>(
    symbolic: &'c SymbolicFactor,
    sn: usize,
    updates: &'c [Vec<T>],
) -> impl Iterator<Item = ChildUpdate<'c, T>> {
    symbolic
        .children(sn)
        .iter()
        .zip(updates)
        .map(|(&c, data)| ChildUpdate { rows: symbolic.update_rows(c), data })
}

/// Per-front heap storage for a run on one host thread whose front lifetimes
/// overlap (which the postorder LIFO arena cannot express): the factor slab,
/// the packed updates awaiting their parents, and the allocation accounting.
/// Timing-only, it holds and touches no buffer at all.
pub(crate) struct FrontStore<'a, T> {
    symbolic: &'a SymbolicFactor,
    pub slab: Vec<T>,
    updates: Vec<Option<Vec<T>>>,
    rel: Vec<usize>,
    pub timing: bool,
    /// Scalars in live fronts and updates, and the most there ever were.
    live: usize,
    peak: usize,
    /// Front-storage heap allocations, the slab included.
    pub allocs: u64,
}

impl<'a, T: Scalar> FrontStore<'a, T> {
    pub(crate) fn new(symbolic: &'a SymbolicFactor, timing: bool) -> Self {
        let (slab_len, nsn) =
            if timing { (0, 0) } else { (symbolic.factor_slab_len(), symbolic.num_supernodes()) };
        FrontStore {
            symbolic,
            slab: vec![T::ZERO; slab_len],
            updates: (0..nsn).map(|_| None).collect(),
            rel: Vec::new(),
            timing,
            live: 0,
            peak: 0,
            allocs: 1,
        }
    }

    /// Assemble `sn`'s front into a fresh buffer, consuming its children's
    /// updates; timing-only, charge the assembly and return no buffer.
    pub(crate) fn assemble(&mut self, a: &SymCsc<T>, sn: usize, host: &mut HostClock) -> Vec<T> {
        let symbolic = self.symbolic;
        let info = &symbolic.supernodes[sn];
        let s = info.front_size();
        if self.timing {
            let a_nnz = (info.col_start..info.col_end).map(|c| a.col_rows(c).len()).sum();
            let child_ms = symbolic.children(sn).iter().map(|&c| symbolic.supernodes[c].m());
            let extended = child_ms.map(|cm| lower_trapezoid_len(cm, cm)).sum();
            charge_assemble::<T>(a_nnz, extended, s, info.k(), host);
            return Vec::new();
        }
        let kids = take_children(symbolic, sn, |c| self.updates[c].take())
            .expect("every child is issued, and its update delivered, before its parent");
        self.allocs += 1;
        let mut front_data = vec![T::ZERO; s * s];
        self.live += s * s;
        self.peak = self.peak.max(self.live);
        assemble_front_into(
            a,
            info.col_start..info.col_end,
            symbolic.update_rows(sn),
            child_views(symbolic, sn, &kids),
            &mut front_data,
            &mut self.rel,
            host,
        );
        self.live -= kids.iter().map(Vec::len).sum::<usize>();
        front_data
    }

    /// Peak bytes of simultaneously live fronts and updates.
    pub(crate) fn peak_bytes(&self) -> usize {
        self.peak * T::BYTES
    }
}

impl<T: Scalar> FrontSink<T> for FrontStore<'_, T> {
    fn deliver(&mut self, sn: usize, front: &Front<'_, T>, _remote: Option<RemoteUpdate>) {
        if self.timing {
            return;
        }
        let ptr = self.symbolic.panel_ptr();
        if let Some(u) = extract_front(front, &mut self.slab[ptr[sn]..ptr[sn + 1]]) {
            self.allocs += 1;
            self.live += u.len();
            self.updates[sn] = Some(u);
        }
        self.live -= front.s * front.s;
    }
}

/// One front of a staged dispatch: `(sn, s, k, front buffer)`.
pub(crate) type Member<T> = (usize, usize, usize, Vec<T>);

fn view<T>((_, s, k, buf): &mut Member<T>) -> Front<'_, T> {
    Front { s: *s, k: *k, data: buf }
}

/// A dispatched front or batch (phase 1 done) whose downloads are held back.
struct Staged<T> {
    fronts: Vec<Member<T>>,
    phase1: Phase1,
    keep_update: bool,
}

/// What phase 1 left outstanding.
pub(crate) enum Phase1 {
    Single(FuPending),
    Batch(FuBatchPending),
}

/// A flushed front or batch: what finishing it has yet to wait for, free and
/// charge.
struct Inflight {
    /// `(sn, s, k, m)` per member — the deferred extract-charge dimensions;
    /// `m` is 0 for an update left on the device, which never crosses to the
    /// host.
    members: Vec<(usize, usize, usize, usize)>,
    pending: FuPending,
}

/// What [`Lane::run_front`] reports of one front.
pub(crate) struct FrontRan {
    /// The policy that ran, and whether a device OOM forced it.
    pub outcome: FuOutcome,
    /// Simulated time of the factor-update proper: from entry until the host
    /// has waited for the downloads and applied the update, the extraction
    /// charges excluded — [`crate::stats::FuRecord::total`].
    pub total: f64,
}

/// One device's pipeline (see the module docs).
pub(crate) struct Lane<T> {
    staged: Option<Staged<T>>,
    inflight: VecDeque<Inflight>,
}

impl<T: Scalar> Lane<T> {
    pub(crate) fn new() -> Self {
        Lane { staged: None, inflight: VecDeque::new() }
    }

    /// Fronts in flight.
    pub(crate) fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    /// The whole lifecycle of one assembled front whose buffer the issuer
    /// keeps, finished before the call returns — the drain schedule: phase 1;
    /// then, with nothing outstanding on the device (P1, or an `m = 0` P2/P3
    /// pivot), extraction on the spot; otherwise phase 2 and the lane drained.
    pub(crate) fn run_front(
        &mut self,
        sn: usize,
        front: &mut Front<'_, T>,
        policy: PolicyKind,
        ctx: &mut FuContext<'_>,
        sink: &mut impl FrontSink<T>,
    ) -> Result<FrontRan, FuError> {
        debug_assert!(self.staged.is_none(), "a borrowed front cannot wait behind a staged one");
        let t0 = ctx.host.now();
        let pending = self.dispatch(front, policy, ctx, sink)?;
        let outcome = pending.outcome();
        let fu_end = if pending.is_done() {
            let now = ctx.host.now();
            extract_inline(sn, front, ctx, sink);
            now
        } else {
            self.flush_front(sn, front, pending, false, ctx, sink);
            self.enforce_window(0, ctx)
        };
        Ok(FrontRan { outcome, total: fu_end - t0 })
    }

    /// The same for a front whose buffer the lane may keep: with GPU work
    /// outstanding it stays staged until the next dispatch (or an explicit
    /// [`Self::flush`]) — see [`Self::flush_front`] for `keep_update` — and
    /// the issuer trims the window, which may span several lanes.
    pub(crate) fn run_staged(
        &mut self,
        (sn, s, k, mut buf): Member<T>,
        policy: PolicyKind,
        keep_update: bool,
        ctx: &mut FuContext<'_>,
        sink: &mut impl FrontSink<T>,
    ) -> Result<FuOutcome, FuError> {
        let pending = self.dispatch(&mut Front { s, k, data: &mut buf }, policy, ctx, sink)?;
        let outcome = pending.outcome();
        if pending.is_done() {
            extract_inline(sn, &Front { s, k, data: &mut buf }, ctx, sink);
        } else {
            self.stage(vec![(sn, s, k, buf)], Phase1::Single(pending), keep_update, ctx, sink);
        }
        Ok(outcome)
    }

    /// Phase 1 for one front. On device OOM the lane first reaches the drain
    /// driver's empty-device state — everything staged or in flight
    /// finished, the issuer's other buffers released — and retries before a
    /// P1 fallback is accepted, so fallback decisions match that driver's.
    fn dispatch(
        &mut self,
        front: &mut Front<'_, T>,
        policy: PolicyKind,
        ctx: &mut FuContext<'_>,
        sink: &mut impl FrontSink<T>,
    ) -> Result<FuPending, FuError> {
        if let Some(pending) = try_dispatch_gpu(front, policy, ctx)? {
            return Ok(pending);
        }
        self.drain_device(ctx, sink);
        dispatch_fu(front, policy, ctx)
    }

    /// Phase 1 for a run of fronts sharing one device allocation, with the
    /// same drain-then-retry rule; `None` when the run does not fit even an
    /// empty device (the issuer then dispatches its members one by one).
    pub(crate) fn dispatch_batch(
        &mut self,
        fronts: &mut [Front<'_, T>],
        ctx: &mut FuContext<'_>,
        sink: &mut impl FrontSink<T>,
    ) -> Result<Option<FuBatchPending>, BatchError> {
        if let Some(batch) = try_dispatch_gpu_batch(fronts, ctx)? {
            return Ok(Some(batch));
        }
        self.drain_device(ctx, sink);
        try_dispatch_gpu_batch(fronts, ctx)
    }

    fn drain_device(&mut self, ctx: &mut FuContext<'_>, sink: &mut impl FrontSink<T>) {
        self.flush(ctx, sink);
        self.enforce_window(0, ctx);
        sink.device_drained(ctx);
    }

    /// Stage a dispatched front (one member) or batch; see
    /// [`Self::flush_front`] for `keep_update`. Dispatch-before-flush: its
    /// upload is already queued, so flushing the previously staged entry's
    /// downloads now cannot delay it.
    pub(crate) fn stage(
        &mut self,
        fronts: Vec<Member<T>>,
        phase1: Phase1,
        keep_update: bool,
        ctx: &mut FuContext<'_>,
        sink: &mut impl FrontSink<T>,
    ) {
        self.flush(ctx, sink);
        self.staged = Some(Staged { fronts, phase1, keep_update });
    }

    /// Phase 2 for whatever is staged; it moves in flight.
    pub(crate) fn flush(&mut self, ctx: &mut FuContext<'_>, sink: &mut impl FrontSink<T>) {
        let Some(Staged { mut fronts, phase1, keep_update }) = self.staged.take() else { return };
        match phase1 {
            Phase1::Single(pending) => {
                let sn = fronts[0].0;
                self.flush_front(sn, &mut view(&mut fronts[0]), pending, keep_update, ctx, sink);
            }
            Phase1::Batch(batch) => {
                let mut views: Vec<Front<'_, T>> = fronts.iter_mut().map(view).collect();
                let pending = enqueue_batch_downloads(&mut views, batch, ctx);
                let members = fronts
                    .iter_mut()
                    .map(|member| {
                        let (sn, front) = (member.0, view(member));
                        sink.deliver(sn, &front, None);
                        (sn, front.s, front.k, front.m())
                    })
                    .collect();
                self.inflight.push_back(Inflight { members, pending });
            }
        }
    }

    /// Phase 2 for one dispatched front with GPU work outstanding: enqueue
    /// its event-gated downloads — the update block's too, unless
    /// `keep_update` leaves it on the device for the sink — and deliver the
    /// results at once (the data exists the moment the transfers are
    /// queued), so the buffer can go; the front moves in flight with its
    /// extraction charges deferred to the finish.
    fn flush_front(
        &mut self,
        sn: usize,
        front: &mut Front<'_, T>,
        mut pending: FuPending,
        keep_update: bool,
        ctx: &mut FuContext<'_>,
        sink: &mut impl FrontSink<T>,
    ) {
        let remote = enqueue_downloads(front, &mut pending, keep_update, ctx);
        let m = if remote.is_some() { 0 } else { front.m() };
        sink.deliver(sn, front, remote);
        self.inflight.push_back(Inflight { members: vec![(sn, front.s, front.k, m)], pending });
    }

    /// Flush the staged entry if it holds a supernode `holds` accepts (a
    /// parent is about to consume its update).
    pub(crate) fn flush_if_holds(
        &mut self,
        holds: impl Fn(usize) -> bool,
        ctx: &mut FuContext<'_>,
        sink: &mut impl FrontSink<T>,
    ) {
        if self.staged.as_ref().is_some_and(|st| st.fronts.iter().any(|f| holds(f.0))) {
            self.flush(ctx, sink);
        }
    }

    /// Finish, oldest first, the entries in flight that hold a supernode
    /// `holds` accepts: the host blocks on each one's download-completion
    /// *event* — not on a device drain.
    pub(crate) fn finish_holding(
        &mut self,
        holds: impl Fn(usize) -> bool,
        ctx: &mut FuContext<'_>,
    ) {
        let mut j = 0;
        while j < self.inflight.len() {
            if self.inflight[j].members.iter().any(|m| holds(m.0)) {
                let entry = self.inflight.remove(j).expect("index checked against the length");
                finish::<T>(entry, ctx);
            } else {
                j += 1;
            }
        }
    }

    /// Finish the oldest entries until at most `window` remain in flight; a
    /// window of 0 drains the lane. Returns the host time at which the last
    /// of them ended its factor-update (now, when none had to finish).
    pub(crate) fn enforce_window(&mut self, window: usize, ctx: &mut FuContext<'_>) -> f64 {
        let mut fu_end = ctx.host.now();
        while self.inflight.len() > window {
            let entry = self.inflight.pop_front().expect("non-empty: len > window >= 0");
            fu_end = finish::<T>(entry, ctx);
        }
        fu_end
    }

    /// Give up after an error: free every device buffer the lane still owns
    /// without charging any time, so the caller's machine comes back with
    /// the device as empty as a finished run leaves it.
    pub(crate) fn abandon(&mut self, ctx: &mut FuContext<'_>) {
        let Some(gpu) = ctx.gpu.as_deref_mut() else { return };
        match self.staged.take().map(|st| st.phase1) {
            Some(Phase1::Single(pending)) => pending.abandon(gpu),
            Some(Phase1::Batch(batch)) => batch.abandon(gpu),
            None => {}
        }
        for entry in self.inflight.drain(..) {
            entry.pending.abandon(gpu);
        }
    }
}

/// Extraction for a front with nothing outstanding on the device (P1, or an
/// `m = 0` P2/P3 pivot): deliver and charge together, as the drain driver
/// orders them.
fn extract_inline<T: Scalar>(
    sn: usize,
    front: &Front<'_, T>,
    ctx: &mut FuContext<'_>,
    sink: &mut impl FrontSink<T>,
) {
    sink.deliver(sn, front, None);
    charge_panel_extract::<T>(front.s, front.k, ctx.host);
    charge_update_extract::<T>(front.m(), ctx.host);
}

/// Phase 3 for one entry in flight: the host waits on its `done` event, its
/// device buffers free, and the deferred extraction charges land in the
/// drain driver's per-front order. Returns the host time in between, the end
/// of the factor-update proper.
fn finish<T: Scalar>(entry: Inflight, ctx: &mut FuContext<'_>) -> f64 {
    let Inflight { members, mut pending } = entry;
    finish_fu(&mut pending, ctx);
    let fu_end = ctx.host.now();
    for (_, s, k, m) in members {
        charge_panel_extract::<T>(s, k, ctx.host);
        charge_update_extract::<T>(m, ctx.host);
    }
    fu_end
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::{analyze, AmalgamationOptions, OrderingKind};

    #[test]
    fn take_children_in_child_order_or_worker_lost() {
        let a = mf_matgen::laplacian_2d(12, 12, mf_matgen::Stencil::Faces);
        let amalg = AmalgamationOptions::default();
        let sym = analyze(&a, OrderingKind::NestedDissection, Some(&amalg)).unwrap().symbolic;
        let nsn = sym.num_supernodes();
        let sn = (0..nsn).find(|&s| sym.children(s).len() >= 2).expect("a front with two children");
        let kids = sym.children(sn);
        let full = || -> Vec<Option<Vec<usize>>> { (0..nsn).map(|c| Some(vec![c])).collect() };
        // Every slot full: the buffers come back in child order.
        let mut slots = full();
        let got = take_children(&sym, sn, |c| slots[c].take());
        assert_eq!(got, Ok(kids.iter().map(|&c| vec![c]).collect()));
        // A child's slot is empty — its worker died: the parent's hand-off
        // is lost.
        let mut slots = full();
        slots[kids[1]] = None;
        let lost = take_children(&sym, sn, |c| slots[c].take());
        assert_eq!(lost, Err(FactorError::WorkerLost { supernode: sn }));
    }
}
