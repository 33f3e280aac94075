//! The front lifecycle: one body per phase, shared by every driver — the
//! drain schedule is the lane with nothing staged and a window of 0.
//!
//! A front goes through assemble → dispatch of its F-U plan → downloads →
//! extraction → finish, and hands its update to its parent. [`crate::fu`]
//! owns what each phase does — one interpreter runs every policy's plan, a
//! single front's or a batched P4 run's alike, and returns one
//! [`FuPending`] — and this module owns *when* the phases run relative to
//! other fronts on the same device, and the device buffers outstanding in
//! between. A [`Lane`] is one device's pipeline: at most one *staged* entry
//! (a dispatched front or batch, downloads not yet enqueued — holding them
//! back until the next dispatch lets its upload overtake them on the copy
//! engine) and a FIFO of entries *in flight* (downloads enqueued, results
//! already in place because the simulator computes data eagerly, only the
//! host's wait and the extraction charges outstanding).
//!
//! Two issuers drive lanes and own nothing of the lifecycle but its order:
//! the arena loop of [`crate::factor`] (the drain schedule: every front
//! through [`Lane::run_front`], finished before the next assembles, its
//! per-call record booked — every range task of [`crate::parallel`]
//! is this loop over its range) and the issuer of fronts in flight in
//! [`crate::multigpu`] (one lane per device, always with look-ahead; batched
//! P4 runs on one lane, peer exports between several). What differs between
//! them arrives as data: staging, `keep_update` and the issuer's `Sink`
//! that receives the update blocks.
//! Whether data exists is not among them: either issuer charges each
//! assembly from the structure ([`charge_assemble`]) and, in a run without
//! values or slab, builds its staging pool without data; of the F-U only
//! the interpreter reads that, and it reserves device buffers where the run
//! with data allocates them. [`Lane::run_front`] and
//! [`Lane::run_staged`] are the only places a front's phases are sequenced;
//! [`crate::estimate_fu_time`] prices one front through the first.
//!
//! Numerics never depend on the schedule: every body runs the same host
//! operations on the same bytes in the same per-front order whatever is
//! staged or in flight, and a device OOM first drains the lane to the
//! empty-device state of the drain driver so P1-fallback decisions — the
//! one place scheduling could touch numerics — match it.

use crate::frontal::{
    assemble_front_into, charge_assemble, charge_panel_extract, charge_update_extract, ChildUpdate,
    Front,
};
use crate::fu::{
    dispatch_fu, downloads, enqueue_downloads, finish_fu, try_dispatch, BatchError, FuContext,
    FuError, FuOutcome, FuPending, FuPlan,
};
use crate::multigpu::Sink;
use crate::policy::PolicyKind;
use crate::stats::FuRecord;
use mf_dense::Scalar;
use mf_gpusim::{Gpu, HostClock, TimeSplit};
use mf_sparse::symbolic::{SupernodeInfo, SymbolicFactor};
use mf_sparse::SymCsc;
use std::collections::VecDeque;

/// Fronts one lane keeps in flight before the host waits for the oldest.
/// Each holds its pinned staging generation leased, so the window bounds
/// the pinned pool. Simulated makespans are flat in it: on plate 120², cube
/// 16³ and elasticity 10³ (f32, fixed P2/P3/P4 and the baseline hybrid,
/// paper node) a window of 1 costs up to 0.6 % and 2 to 6 stay within 0.4 %
/// of 3 in either direction — no caller ever had a reason to set another.
pub(crate) const PIPELINE_DEPTH: usize = 3;

/// The owned updates of `sn`'s children in postorder child rank — the order
/// every driver extend-adds them in, which is what keeps the factor bits
/// independent of the schedule. Every child has handed its update off
/// before its parent is assembled: a driver issues a parent only after each
/// child's front returned `Ok`, and a panic anywhere ends the run.
pub(crate) fn take_children<T>(
    symbolic: &SymbolicFactor,
    sn: usize,
    mut take: impl FnMut(usize) -> Option<Vec<T>>,
) -> Vec<Vec<T>> {
    let handed_off = "every child hands its update off before its parent is assembled";
    symbolic.children(sn).iter().map(|&c| take(c).expect(handed_off)).collect()
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

/// `block` cut into consecutive parts of `lens` scalars: the factor slab into
/// every supernode's panel region or an interleaved block of right-hand
/// sides into every supernode's rows, in supernode order, or a sweep's
/// hand-off block into every task's slice.
pub(crate) fn split_panels<T>(
    mut block: &mut [T],
    lens: impl Iterator<Item = usize>,
) -> Vec<&mut [T]> {
    lens.map(|len| block.split_off_mut(..len).expect("the parts fit the block")).collect()
}

/// A supernode's panel length in the factor slab.
pub(crate) fn panel_len(info: &SupernodeInfo) -> usize {
    info.front_size() * info.k()
}

/// [`split_panels`]' parts, supernode `sn`'s of `len(sn)` scalars, listed in
/// postorder.
pub(crate) fn postorder_parts<'a, T>(
    symbolic: &SymbolicFactor,
    block: &'a mut [T],
    len: impl Fn(&SupernodeInfo) -> usize,
) -> Vec<&'a mut [T]> {
    let mut by_sn = split_panels(block, symbolic.supernodes.iter().map(len));
    symbolic.postorder.iter().map(|&sn| std::mem::take(&mut by_sn[sn])).collect()
}

/// Per-front storage for a run on one host thread whose front lifetimes
/// overlap (which the postorder LIFO arena cannot express): every
/// supernode's panel region of the factor slab, handed to its front, the
/// update blocks awaiting their parents, and the allocation accounting.
/// Without data it holds and touches no buffer at all.
pub(crate) struct FrontStore<'a, T> {
    symbolic: &'a SymbolicFactor,
    /// The permuted matrix whose values the fronts assemble; `None` without
    /// data.
    a: Option<&'a SymCsc<T>>,
    panels: Vec<&'a mut [T]>,
    updates: Vec<Option<Vec<T>>>,
    rel: Vec<usize>,
    /// Scalars in live update blocks, and the most there ever were.
    live: usize,
    peak: usize,
    /// Front-storage heap allocations, the slab included.
    pub allocs: u64,
}

impl<'a, T: Scalar> FrontStore<'a, T> {
    /// Storage for a run that assembles `a`'s values and puts the panels
    /// into `slab` (zeroed); `None` for a run without data.
    pub(crate) fn new(
        symbolic: &'a SymbolicFactor,
        data: Option<(&'a SymCsc<T>, &'a mut [T])>,
    ) -> Self {
        let allocs = u64::from(data.is_some());
        let (a, slab) = data.unzip();
        let panels: Vec<_> = slab
            .map(|slab| split_panels(slab, symbolic.supernodes.iter().map(panel_len)))
            .unwrap_or_default();
        FrontStore {
            symbolic,
            a,
            updates: panels.iter().map(|_| None).collect(),
            panels,
            rel: Vec::new(),
            live: 0,
            peak: 0,
            allocs,
        }
    }

    /// Charge the assembly of `sn`'s front, then assemble it — its panel in
    /// the slab, its update block in a fresh buffer — consuming its
    /// children's updates; without data, hand out empty buffers.
    pub(crate) fn assemble(&mut self, sn: usize, host: &mut HostClock) -> Member<'a, T> {
        let symbolic = self.symbolic;
        let info = &symbolic.supernodes[sn];
        let (s, k, m) = (info.front_size(), info.k(), info.m());
        charge_assemble::<T>(symbolic, sn, host);
        let mut member = Member { sn, s, k, panel: &mut [], update: Vec::new() };
        let Some(a) = self.a else { return member };
        let kids = take_children(symbolic, sn, |c| self.updates[c].take());
        if m > 0 {
            self.allocs += 1;
            member.update = vec![T::ZERO; m * m];
        }
        self.live += m * m;
        self.peak = self.peak.max(self.live);
        member.panel = std::mem::take(&mut self.panels[sn]);
        assemble_front_into(
            a,
            info.col_start..info.col_end,
            symbolic.update_rows(sn),
            child_views(symbolic, sn, &kids),
            &mut *member.panel,
            &mut member.update,
            &mut self.rel,
        );
        self.live -= kids.iter().map(Vec::len).sum::<usize>();
        member
    }

    /// Keep `sn`'s update block for its parent (without data, drop it).
    pub(crate) fn deliver(&mut self, sn: usize, update: Vec<T>) {
        if let Some(slot) = self.updates.get_mut(sn) {
            *slot = Some(update);
        }
    }

    /// Peak bytes of simultaneously live update blocks.
    pub(crate) fn peak_bytes(&self) -> usize {
        self.peak * T::BYTES
    }
}

/// One assembled front an issuer hands a lane, which may keep it across
/// calls: its panel (the supernode's slab region) and its update block.
pub(crate) struct Member<'a, T> {
    pub sn: usize,
    pub s: usize,
    pub k: usize,
    pub panel: &'a mut [T],
    pub update: Vec<T>,
}

impl<T> Member<'_, T> {
    pub(crate) fn front(&mut self) -> Front<'_, T> {
        Front { s: self.s, k: self.k, panel: &mut *self.panel, update: &mut self.update }
    }
}

/// A dispatched front or batch (phase 1 done) whose downloads are held back.
struct Staged<'a, T> {
    fronts: Vec<Member<'a, T>>,
    pending: FuPending,
    keep_update: bool,
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

/// Bookkeeping one front leaves behind once a lane has run it (the panel
/// went into the factor slab; the update stays in the issuer's front
/// storage).
pub(crate) struct SnOutcome {
    /// Per-call timing record of a front run by [`Lane::run_front`] in a run
    /// that records.
    pub record: Option<FuRecord>,
    /// Whether a device OOM forced a P1 fallback.
    pub oom_fallback: bool,
}

impl SnOutcome {
    /// Close front `sn`'s books right after it ran as `outcome`, its
    /// factor-update proper taking `total` simulated seconds
    /// ([`FuRecord::total`]). A run that records passes `split`: what the
    /// component counters of its host and device gathered since the front's
    /// assembly began — its assembly, its factor-update, its extraction.
    fn close(
        sn: usize,
        (m, k): (usize, usize),
        outcome: FuOutcome,
        total: f64,
        split: Option<TimeSplit>,
    ) -> Self {
        let record = split.map(|split| FuRecord {
            sn,
            m,
            k,
            policy: outcome.executed,
            total,
            t_potrf: split.potrf,
            t_trsm: split.trsm,
            t_syrk: split.syrk,
            t_copy: split.copy,
            t_assemble: split.host,
        });
        SnOutcome { record, oom_fallback: outcome.oom_fallback }
    }
}

/// One device's pipeline (see the module docs).
pub(crate) struct Lane<'a, T> {
    staged: Option<Staged<'a, T>>,
    inflight: VecDeque<Inflight>,
}

impl<'a, T: Scalar> Lane<'a, T> {
    pub(crate) fn new() -> Self {
        Lane { staged: None, inflight: VecDeque::new() }
    }

    /// Fronts in flight.
    pub(crate) fn outstanding(&self) -> usize {
        self.inflight.len()
    }

    /// The whole lifecycle of one assembled front whose buffers the issuer
    /// keeps, finished before the call returns — the drain schedule, on a
    /// lane with nothing staged or in flight: phase 1 (a device OOM falls
    /// back to P1 at once, the device already as empty as a drain leaves
    /// it); then, with nothing outstanding on the device (P1, or an `m = 0`
    /// P2/P3 pivot), the extraction charges on the spot; otherwise phase 2
    /// and its finish. With `record`, the front's per-call record is booked
    /// from the counters of `ctx`'s host and device, which its issuer cleared
    /// where the front's assembly began.
    pub(crate) fn run_front(
        &mut self,
        sn: usize,
        front: &mut Front<'_, T>,
        policy: PolicyKind,
        record: bool,
        ctx: &mut FuContext<'_>,
    ) -> Result<SnOutcome, FuError> {
        debug_assert!(self.staged.is_none() && self.inflight.is_empty(), "a drained lane");
        let t0 = ctx.host.now();
        let mut pending = dispatch_fu(front, policy, ctx)?;
        let outcome = pending.outcome();
        let (s, k, m) = (front.s, front.k, front.m());
        let fu_end = if pending.is_done() {
            let now = ctx.host.now();
            charge_extract::<T>(s, k, m, ctx.host);
            now
        } else {
            enqueue_downloads(front, &mut pending, false, ctx);
            finish::<T>(Inflight { members: vec![(sn, s, k, m)], pending }, ctx)
        };
        let split = record.then(|| counters(ctx));
        Ok(SnOutcome::close(sn, (m, k), outcome, fu_end - t0, split))
    }

    /// The same for a front the lane may keep: with GPU work outstanding it
    /// stays staged until the next dispatch (or an explicit [`Self::flush`],
    /// which applies `keep_update`) — and the issuer trims
    /// the window, which may span several lanes. A front in flight books no
    /// record.
    pub(crate) fn run_staged(
        &mut self,
        mut member: Member<'a, T>,
        policy: PolicyKind,
        keep_update: bool,
        ctx: &mut FuContext<'_>,
        sink: &mut Sink<'_, '_, T>,
    ) -> Result<SnOutcome, FuError> {
        let pending = self.dispatch(&mut member.front(), policy, ctx, sink)?;
        let outcome = pending.outcome();
        if pending.is_done() {
            charge_extract::<T>(member.s, member.k, member.s - member.k, ctx.host);
            sink.deliver(member.sn, member.update, None);
        } else {
            self.stage(vec![member], pending, keep_update, ctx, sink);
        }
        Ok(SnOutcome { record: None, oom_fallback: outcome.oom_fallback })
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
        sink: &mut Sink<'_, '_, T>,
    ) -> Result<FuPending, FuError> {
        let plan = FuPlan::new(policy, front.s, front.k, ctx);
        if let Some(pending) =
            try_dispatch(std::slice::from_mut(front), plan, ctx).map_err(|e| e.error)?
        {
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
        sink: &mut Sink<'_, '_, T>,
    ) -> Result<Option<FuPending>, BatchError> {
        if let Some(pending) = try_dispatch(fronts, FuPlan::batch(fronts), ctx)? {
            return Ok(Some(pending));
        }
        self.drain_device(ctx, sink);
        try_dispatch(fronts, FuPlan::batch(fronts), ctx)
    }

    fn drain_device(&mut self, ctx: &mut FuContext<'_>, sink: &mut Sink<'_, '_, T>) {
        self.flush(ctx, sink);
        while let Some(entry) = self.inflight.pop_front() {
            finish::<T>(entry, ctx);
        }
        sink.device_drained(ctx);
    }

    /// Stage a dispatched front (one member) or batch; see [`Self::flush`]
    /// for `keep_update`. Dispatch-before-flush: its upload is already
    /// queued, so flushing the previously staged entry's downloads now
    /// cannot delay it.
    pub(crate) fn stage(
        &mut self,
        fronts: Vec<Member<'a, T>>,
        pending: FuPending,
        keep_update: bool,
        ctx: &mut FuContext<'_>,
        sink: &mut Sink<'_, '_, T>,
    ) {
        self.flush(ctx, sink);
        self.staged = Some(Staged { fronts, pending, keep_update });
    }

    /// Phase 2 for whatever is staged: enqueue its event-gated downloads —
    /// a single front's update block too, unless `keep_update` leaves it on
    /// the device for the sink — and deliver the updates at once (the data
    /// exists the moment the transfers are queued), so the buffers can go;
    /// the entry moves in flight with its extraction charges deferred to
    /// the finish.
    pub(crate) fn flush(&mut self, ctx: &mut FuContext<'_>, sink: &mut Sink<'_, '_, T>) {
        let Some(Staged { mut fronts, mut pending, keep_update }) = self.staged.take() else {
            return;
        };
        let remote = if let [one] = fronts.as_mut_slice() {
            downloads(std::slice::from_mut(&mut one.front()), &mut pending, keep_update, ctx)
        } else {
            let mut views: Vec<Front<'_, T>> = fronts.iter_mut().map(Member::front).collect();
            downloads(&mut views, &mut pending, keep_update, ctx)
        };
        let members = fronts
            .into_iter()
            .map(|Member { sn, s, k, update, .. }| {
                sink.deliver(sn, update, remote);
                (sn, s, k, if remote.is_some() { 0 } else { s - k })
            })
            .collect();
        self.inflight.push_back(Inflight { members, pending });
    }

    /// Flush the staged entry if it holds a supernode `holds` accepts (a
    /// parent is about to consume its update).
    pub(crate) fn flush_if_holds(
        &mut self,
        holds: impl Fn(usize) -> bool,
        ctx: &mut FuContext<'_>,
        sink: &mut Sink<'_, '_, T>,
    ) {
        if self.staged.as_ref().is_some_and(|st| st.fronts.iter().any(|f| holds(f.sn))) {
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

    /// Give up after an error: free every device buffer the lane still owns
    /// without charging any time, so the caller's machine comes back with
    /// the device as empty as a finished run leaves it.
    pub(crate) fn abandon(&mut self, ctx: &mut FuContext<'_>) {
        let Some(gpu) = ctx.gpu.as_deref_mut() else { return };
        if let Some(st) = self.staged.take() {
            st.pending.abandon(gpu);
        }
        for entry in self.inflight.drain(..) {
            entry.pending.abandon(gpu);
        }
    }
}

/// The component counters of `ctx`'s host and device added up, bucket by
/// bucket: a front's split when they were cleared where its assembly began.
fn counters(ctx: &FuContext<'_>) -> TimeSplit {
    let (h, d) = (ctx.host.split(), ctx.gpu.as_deref().map(Gpu::split).unwrap_or_default());
    TimeSplit {
        potrf: h.potrf + d.potrf,
        trsm: h.trsm + d.trsm,
        syrk: h.syrk + d.syrk,
        copy: h.copy + d.copy,
        host: h.host + d.host,
    }
}

/// The extraction charges of one front, in the drain driver's order: its
/// panel, then its update (`m = 0` for an update that never crosses to the
/// host).
fn charge_extract<T: Scalar>(s: usize, k: usize, m: usize, host: &mut HostClock) {
    charge_panel_extract::<T>(s, k, host);
    charge_update_extract::<T>(m, host);
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
        charge_extract::<T>(s, k, m, ctx.host);
    }
    fu_end
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::{analyze, AmalgamationOptions, OrderingKind};

    #[test]
    fn take_children_in_child_order() {
        let a = mf_matgen::laplacian_2d(12, 12, mf_matgen::Stencil::Faces);
        let amalg = AmalgamationOptions::default();
        let sym = analyze(&a, OrderingKind::NestedDissection, Some(&amalg)).unwrap().symbolic;
        let nsn = sym.num_supernodes();
        let sn = (0..nsn).find(|&s| sym.children(s).len() >= 2).expect("a front with two children");
        let kids = sym.children(sn);
        // Every slot full: the buffers come back in child order.
        let mut slots: Vec<Option<Vec<usize>>> = (0..nsn).map(|c| Some(vec![c])).collect();
        let got = take_children(&sym, sn, |c| slots[c].take());
        assert_eq!(got, kids.iter().map(|&c| vec![c]).collect::<Vec<_>>());
    }
}
