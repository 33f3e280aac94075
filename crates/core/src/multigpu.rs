//! The issuer of fronts in flight (DESIGN.md §4.9, §4.13): one host timeline
//! feeding `ndev` device lanes — the pipelined schedule at one device, the
//! multi-GPU run at several — plus proportional mapping of
//! elimination-subtree regions onto the devices and peer-copy extend-add of
//! cross-device contribution blocks.
//!
//! # Mapping
//!
//! [`proportional_map`] splits the elimination forest Geist–Ng style on the
//! symbolic per-subtree work estimates: starting from the roots, the
//! heaviest chunk is repeatedly replaced by its children until every chunk
//! is at or below `total / ndev` (and there are at least `ndev` chunks),
//! then chunks are LPT-assigned to the least-loaded device. Split nodes —
//! the *separator frontier* — ride with their heaviest child's device, so
//! the top of the tree stays where most of its operands already live. At
//! one device the issue order is the postorder.
//!
//! # Execution
//!
//! [`issue_fronts`] drives the front lifecycle of `crate::lane`: it owns the
//! issue order (round-robin over per-device postorder queues, so a front
//! uploads to one device while another device's kernels run), which lane a
//! front runs on, the window over all lanes, and the peer exports between
//! lanes; lane `d` is device `d`. A front's downloads are staged behind the
//! next dispatch and the window keeps fronts in flight, so no front books a
//! per-call record. Without data the run is timing-only: the pipelined
//! schedule as [`FactorOptions::rehearse`] and the plan's rehearsal price it.
//! Three rules differ by lane count (one short branch each, see
//! [`Issuer::window`], [`Issuer::batch_run_len`] and
//! [`Issuer::ready_children`]): the window, batched P4 runs, and how a parent
//! waits for its children. Above the
//! frontier, a front whose children were factored on *other* devices consumes their
//! packed `m × m` contribution blocks via [`Gpu::p2p`] peer copies —
//! event-chained, on the dedicated peer engine — instead of the
//! d2h → host-assemble → h2d staging round-trip; the producing front's
//! update download (and its host-side apply charge) is skipped entirely
//! (`keep_update`, which the lane passes to the download phase).
//!
//! # Determinism
//!
//! Host f32/f64 numerics are untouched: every front assembles from `A` plus
//! its children's packed updates in fixed postorder child rank, and runs the
//! exact per-front kernel sequence of the serial drain driver, so factor
//! slabs are **bitwise identical** to the drain and parallel drivers at
//! every device count. The peer-copy path
//! changes only *simulated time*: the simulator's transfers are eager
//! memcpys, so reading the still-device-resident update block yields the
//! same bytes the download path would have produced (pinned by
//! `fu::tests::keep_update_path_is_bitwise_identical_to_download_path`).
//! Device-OOM retry first drains the device to the serial driver's
//! empty-device state (the lane's rule, plus the eviction of exports still
//! resident there), so P1-fallback decisions — the one place scheduling
//! could touch numerics — match the drain driver exactly.

use crate::factor::{fu_err_to_factor, pinned_pool, FactorError, FactorOptions};
use crate::frontal::{charge_update_extract, Front};
use crate::fu::{FuContext, FuError, RemoteUpdate, S_COMPUTE, S_COPY};
use crate::lane::{FrontStore, Lane, Member, SnOutcome, PIPELINE_DEPTH};
use crate::pinned_pool::PinnedPool;
use crate::policy::PolicyKind;
use crate::stats::FactorStats;
use mf_dense::Scalar;
use mf_gpusim::{DevMat, Gpu, GpuUtilization, HostClock, Machine};
use mf_sparse::symbolic::SymbolicFactor;
use mf_sparse::SymCsc;
use std::collections::VecDeque;

/// Stream id for incoming peer copies on each device (S_COMPUTE and S_COPY
/// keep the single-device meanings).
const S_PEER: usize = 2;

/// Device-count options, carried on
/// [`FactorOptions::devices`](crate::factor::FactorOptions::devices).
///
/// A pipelined run ([`crate::Schedule::Pipelined`]) keeps fronts in flight on
/// `count` devices: the machine's own becomes device 0 of `count`
/// identically-configured devices fed from the machine's host timeline, and
/// moves back when the run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiGpuOptions {
    /// Number of simulated devices. `1` (the default) is the machine's own
    /// device alone; `0` is a typed [`crate::PlanError`], and so is
    /// `count > 1` without pipelining or without a device.
    pub count: usize,
}

impl Default for MultiGpuOptions {
    fn default() -> Self {
        MultiGpuOptions::devices(1)
    }
}

impl MultiGpuOptions {
    /// `count` devices.
    pub fn devices(count: usize) -> Self {
        MultiGpuOptions { count }
    }
}

/// The proportional (Geist–Ng) device mapping of one elimination forest.
#[derive(Debug, Clone)]
pub struct DeviceMap {
    /// Owning device of each supernode.
    pub device_of: Vec<usize>,
    /// Global issue order: a topological order of the forest that
    /// round-robins over the per-device postorder queues, so consecutive
    /// fronts land on different devices whenever their dependencies allow.
    pub issue_order: Vec<usize>,
}

/// Split the elimination forest into per-device regions proportional to the
/// symbolic work estimates (see the module docs). Deterministic: ties break
/// on the lower supernode / device index.
pub fn proportional_map(symbolic: &SymbolicFactor, ndev: usize) -> DeviceMap {
    assert!(ndev >= 1, "need at least one device");
    let nsn = symbolic.num_supernodes();
    if ndev == 1 {
        // One device owns the forest, and its one queue is the postorder.
        return DeviceMap { device_of: vec![0; nsn], issue_order: symbolic.postorder.clone() };
    }
    let mut work = vec![0.0f64; nsn];
    for &sn in &symbolic.postorder {
        let own = symbolic.supernodes[sn].flops().total().max(1.0);
        work[sn] = own + symbolic.children(sn).iter().map(|&c| work[c]).sum::<f64>();
    }
    let roots: Vec<usize> =
        (0..nsn).filter(|&sn| symbolic.supernodes[sn].parent == usize::MAX).collect();
    let total: f64 = roots.iter().map(|&r| work[r]).sum();
    let target = total / ndev as f64;

    // Chunking: replace the heaviest splittable chunk by its children until
    // every chunk fits the proportional target (and there are enough
    // chunks to cover the devices). Split nodes form the frontier.
    let mut chunks = roots;
    let mut frontier = vec![false; nsn];
    loop {
        let cand = chunks
            .iter()
            .copied()
            .filter(|&c| !symbolic.children(c).is_empty())
            .max_by(|&x, &y| work[x].total_cmp(&work[y]).then(y.cmp(&x)));
        let Some(c) = cand else { break };
        if work[c] <= target && chunks.len() >= ndev {
            break;
        }
        chunks.retain(|&x| x != c);
        frontier[c] = true;
        chunks.extend(symbolic.children(c).iter().copied());
    }

    // LPT assignment: heaviest chunk first onto the least-loaded device.
    chunks.sort_by(|&x, &y| work[y].total_cmp(&work[x]).then(x.cmp(&y)));
    let mut device_of = vec![0usize; nsn];
    let mut load = vec![0.0f64; ndev];
    for &c in &chunks {
        let d = (0..ndev).min_by(|&x, &y| load[x].total_cmp(&load[y]).then(x.cmp(&y))).unwrap();
        let mut stack = vec![c];
        while let Some(sn) = stack.pop() {
            device_of[sn] = d;
            stack.extend(symbolic.children(sn).iter().copied());
        }
        load[d] += work[c];
    }
    // Frontier nodes ride with their heaviest child (processed in postorder
    // so a frontier child's own device is final before its frontier parent).
    for &sn in &symbolic.postorder {
        if !frontier[sn] {
            continue;
        }
        device_of[sn] = symbolic
            .children(sn)
            .iter()
            .copied()
            .max_by(|&x, &y| work[x].total_cmp(&work[y]).then(y.cmp(&x)))
            .map_or(0, |c| device_of[c]);
    }

    // Interleaved issue order: per-device postorder queues, issuing at most
    // one ready head per device per round. The globally postorder-minimal
    // unissued supernode always sits at its queue head with every child
    // issued, so each round issues at least one front — no deadlock.
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); ndev];
    for &sn in &symbolic.postorder {
        queues[device_of[sn]].push(sn);
    }
    let mut heads = vec![0usize; ndev];
    let mut issued = vec![false; nsn];
    let mut issue_order = Vec::with_capacity(nsn);
    while issue_order.len() < nsn {
        let mut any = false;
        for d in 0..ndev {
            if heads[d] < queues[d].len() {
                let sn = queues[d][heads[d]];
                if symbolic.children(sn).iter().all(|&c| issued[c]) {
                    issued[sn] = true;
                    issue_order.push(sn);
                    heads[d] += 1;
                    any = true;
                }
            }
        }
        debug_assert!(any, "issue order stalled — forest is not topologically consistent");
        if !any {
            // Unreachable for well-formed forests; keep release builds safe.
            for &sn in &symbolic.postorder {
                if !issued[sn] {
                    issued[sn] = true;
                    issue_order.push(sn);
                }
            }
        }
    }
    DeviceMap { device_of, issue_order }
}

/// Fronts the host keeps in flight over several lanes before it waits for
/// the oldest (never fewer than there are devices, so every device can hold
/// work). At 2 and 4 devices on plate 120², cube 16³ and elasticity 10³ (f32,
/// fixed P2/P3/P4 and the baseline hybrid) windows of 2, 4 and 16 land within
/// 3 % of 8 with no consistent sign.
const LOOK_AHEAD: usize = 8;

/// Largest front order `s` that joins a batched dispatch: a batch pays one
/// launch and one PCIe latency for the whole run, which matters only while
/// those rival a member's own transfer and kernel time. On the matrices
/// named at [`PIPELINE_DEPTH`] under fixed P4, 64 costs 0.2–2.2 % of the
/// makespan and 256 gains 0.04–0.9 %; 128 stays because every recorded
/// makespan is pinned to it.
const BATCH_MAX_FRONT: usize = 128;

/// Most fronts in one batched dispatch. The batch is one device allocation
/// and one staging slot, flushed and finished as one entry, so none of it
/// reaches a parent before all of it has downloaded. Batching itself is
/// worth 3–8 % of the fixed-P4 makespan on those matrices (against one
/// member per dispatch); 4, 8 and 16 members agree within 0.1 %.
const BATCH_MAX_FRONTS: usize = 8;

/// What a lane delivers into: the front store, the update blocks left
/// device-resident for a peer-copy extend-add, and the FIFO behind the
/// window.
pub(crate) struct Sink<'r, 'a, T> {
    store: &'r mut FrontStore<'a, T>,
    exports: &'r mut [Option<RemoteUpdate>],
    order: &'r mut VecDeque<usize>,
    /// Owning device of each supernode, and the device this lane drives.
    device_of: &'r [usize],
    dev: usize,
}

impl<T: Scalar> Sink<'_, '_, T> {
    /// Take the update block of front `sn`, whose results are final (data
    /// only — the lane charges the clock; the panel is already in the
    /// slab). `remote` is the update block left on the device when the
    /// front was flushed with `keep_update`.
    pub(crate) fn deliver(&mut self, sn: usize, update: Vec<T>, remote: Option<RemoteUpdate>) {
        self.store.deliver(sn, update);
        self.exports[sn] = remote;
        self.order.push_back(sn);
    }

    /// The lane has drained ahead of an OOM retry: evict every export still
    /// resident on its device, so the retry sees the memory the serial drain
    /// driver would.
    pub(crate) fn device_drained(&mut self, ctx: &mut FuContext<'_>) {
        for c in 0..self.exports.len() {
            if self.device_of[c] == self.dev {
                if let Some(ru) = self.exports[c].take() {
                    evict::<T>(ru, ctx);
                }
            }
        }
    }
}

/// Host-staging fallback for one exported update, on its producing device
/// (the one in `ctx`): an event-gated d2h into a pooled pinned slot (bytes
/// already live on the host — only the transfer's simulated time matters)
/// plus the update-extract charge its producer skipped, then the device
/// buffer frees.
fn evict<T: Scalar>(ru: RemoteUpdate, ctx: &mut FuContext<'_>) {
    let slot = ctx.pool.lease(ru.m * ru.m, ctx.host);
    let gpu = ctx.gpu.as_deref_mut().expect("lane calls carry their device");
    let copy = gpu.stream(S_COPY);
    gpu.wait_event(copy, ru.ready);
    let dst = ctx.pool.slot_mut(slot);
    gpu.d2h(copy, ru.view, ru.m, ru.m, dst, ru.m, ctx.host);
    let ev = gpu.record_event(copy);
    ctx.pool.retire(slot, ev.0, ctx.host);
    let _ = gpu.free(ru.buf);
    charge_update_extract::<T>(ru.m, ctx.host);
}

/// Whole-run state of the issuer: one host timeline, one [`Lane`] per device
/// of `gpus` (lane `d` drives device `d`), the issue order and the peer
/// exports between lanes. The lifecycle of each front is [`crate::lane`]'s.
struct Issuer<'a, 'm, T> {
    symbolic: &'a SymbolicFactor,
    opts: &'a FactorOptions,
    map: DeviceMap,
    host: &'m mut HostClock,
    gpus: Vec<Gpu>,
    pool: PinnedPool,
    lanes: Vec<Lane<'a, T>>,
    /// Supernodes in the order their fronts went in flight on any lane —
    /// the FIFO behind the look-ahead window. Entries already finished (a
    /// parent consumed them) are skipped when popped.
    order: VecDeque<usize>,
    /// Slab panels and host-side update blocks (always produced — the
    /// authoritative numerics).
    store: FrontStore<'a, T>,
    /// Device-resident update blocks awaiting a peer-copy extend-add.
    exports: Vec<Option<RemoteUpdate>>,
    /// Fronts a device OOM sent to P1.
    oom_fallbacks: usize,
}

impl<'a, T: Scalar> Issuer<'a, '_, T> {
    /// Run `f` on lane `lane` against the host clock and device `lane`.
    fn on_lane<R>(
        &mut self,
        lane: usize,
        f: impl FnOnce(&mut Lane<'a, T>, &mut FuContext<'_>, &mut Sink<'_, 'a, T>) -> R,
    ) -> R {
        let mut sink = Sink {
            store: &mut self.store,
            exports: &mut self.exports,
            order: &mut self.order,
            device_of: &self.map.device_of,
            dev: lane,
        };
        let mut ctx = FuContext {
            host: self.host,
            gpu: Some(&mut self.gpus[lane]),
            pool: &mut self.pool,
            copy_optimized: self.opts.copy_optimized,
        };
        f(&mut self.lanes[lane], &mut ctx, &mut sink)
    }

    /// Issue every front and drain every lane; on a pivot failure abandon
    /// what the lanes and the exports still hold on the devices.
    fn run(&mut self) -> Result<(), FactorError> {
        let issued = self.issue();
        for lane in 0..self.lanes.len() {
            self.on_lane(lane, |l, ctx, sink| match issued {
                Ok(()) => l.flush(ctx, sink),
                Err(_) => l.abandon(ctx),
            });
        }
        self.trim_window(0);
        if issued.is_err() {
            for c in 0..self.exports.len() {
                if let Some(ru) = self.exports[c].take() {
                    let _ = self.gpus[self.map.device_of[c]].free(ru.buf);
                }
            }
        }
        debug_assert!(
            self.exports.iter().all(Option::is_none),
            "every exported update must be consumed by its parent"
        );
        issued
    }

    fn issue(&mut self) -> Result<(), FactorError> {
        let order = self.map.issue_order.clone();
        let mut i = 0;
        while i < order.len() {
            let run = self.batch_run_len(&order[i..]);
            if run >= 2 {
                self.step_batch(&order[i..i + run])?;
            } else {
                self.step(order[i])?;
            }
            i += run;
        }
        Ok(())
    }

    /// Fronts in flight over all lanes before the host waits for the oldest.
    /// One lane keeps [`PIPELINE_DEPTH`], several [`LOOK_AHEAD`]: each rule
    /// holds its own `GOLDEN_CLOCK` column (pipelined; 2 and 4 devices)
    /// until ROADMAP item 2 re-records the clock.
    fn window(&self) -> usize {
        match self.lanes.len() {
            1 => PIPELINE_DEPTH,
            n => LOOK_AHEAD.max(n),
        }
    }

    /// Length of the batchable run at the head of `next` (the rest of the
    /// issue order): consecutive P4-selected fronts no larger than
    /// [`BATCH_MAX_FRONT`], with no producer/consumer pair inside the run (a
    /// member's children must have flushed before it assembles). Returns 1
    /// when the front at the head dispatches alone. Batches run on one lane
    /// only, which `GOLDEN_CLOCK`'s pipelined column pins against its device
    /// columns until ROADMAP item 2 re-records the clock.
    fn batch_run_len(&self, next: &[usize]) -> usize {
        // Batches run the naive whole-front P4 plan; under the
        // copy-optimized plan members dispatch singly so the transfer byte
        // counts (and the bits) match the drain schedule.
        if self.lanes.len() > 1 || self.opts.copy_optimized {
            return 1;
        }
        let symbolic = self.symbolic;
        let mut len = 0;
        while len < BATCH_MAX_FRONTS && len < next.len() {
            let sn = next[len];
            let info = &symbolic.supernodes[sn];
            let (s, k, m) = (info.front_size(), info.k(), info.m());
            if s > BATCH_MAX_FRONT || self.opts.selector.choose(sn, m, k) != PolicyKind::P4 {
                break;
            }
            if symbolic.children(sn).iter().any(|c| next[..len].contains(c)) {
                break;
            }
            len += 1;
        }
        len.max(1)
    }

    /// Make `sn`'s child updates consumable. On one lane the staged entry
    /// flushes if it holds any child, then every entry in flight holding one
    /// finishes, oldest first. Over several lanes each child in turn flushes
    /// if staged, and a non-exported child costs a host *event wait*; an
    /// exported child costs nothing here — its ordering flows through the
    /// peer-copy event on the consumer device, which is exactly the
    /// cross-device look-ahead. Each rule holds its own `GOLDEN_CLOCK`
    /// column (pipelined; 2 and 4 devices) until ROADMAP item 2
    /// re-records the clock.
    fn ready_children(&mut self, sn: usize) {
        let kids = self.symbolic.children(sn);
        if self.lanes.len() == 1 {
            self.on_lane(0, |l, ctx, sink| {
                l.flush_if_holds(|c| kids.contains(&c), ctx, sink);
                l.finish_holding(|c| kids.contains(&c), ctx);
            });
            return;
        }
        for &c in kids {
            self.on_lane(self.map.device_of[c], |l, ctx, sink| {
                l.flush_if_holds(|x| x == c, ctx, sink);
                if sink.exports[c].is_none() {
                    l.finish_holding(|x| x == c, ctx);
                }
            });
        }
    }

    /// Make `sn`'s child updates consumable and assemble its front.
    fn ready_front(&mut self, sn: usize) -> Member<'a, T> {
        self.ready_children(sn);
        self.store.assemble(sn, self.host)
    }

    fn step(&mut self, sn: usize) -> Result<(), FactorError> {
        let info = &self.symbolic.supernodes[sn];
        let member = self.ready_front(sn);
        let policy = self.opts.selector.choose(sn, info.m(), info.k());
        self.consume_child_exports(sn, policy);
        // Structure and selector alone decide it, so it is known before the
        // dispatch; a front that leaves nothing on the device ignores it.
        let keep_update = self.exports_update(sn);
        let lane = self.map.device_of[sn];
        let out =
            self.on_lane(lane, |l, ctx, sink| l.run_staged(member, policy, keep_update, ctx, sink));
        self.count(sn, out)?;
        self.trim_window(self.window());
        Ok(())
    }

    /// Count front `sn`'s OOM fallback, or lift its pivot failure.
    fn count(&mut self, sn: usize, out: Result<SnOutcome, FuError>) -> Result<(), FactorError> {
        let out = out.map_err(|e| fu_err_to_factor(self.symbolic.supernodes[sn].col_start, e))?;
        self.oom_fallbacks += usize::from(out.oom_fallback);
        Ok(())
    }

    /// A batchable run (one lane): every member assembles, then all dispatch
    /// as one device allocation.
    fn step_batch(&mut self, sns: &[usize]) -> Result<(), FactorError> {
        let symbolic = self.symbolic;
        let mut members: Vec<Member<'a, T>> = sns.iter().map(|&sn| self.ready_front(sn)).collect();
        let pending = self
            .on_lane(0, |l, ctx, sink| {
                let mut fronts: Vec<Front<'_, T>> = members.iter_mut().map(Member::front).collect();
                l.dispatch_batch(&mut fronts, ctx, sink)
            })
            .map_err(|e| fu_err_to_factor(symbolic.supernodes[sns[e.member]].col_start, e.error))?;
        match pending {
            Some(pending) => {
                self.on_lane(0, |l, ctx, sink| l.stage(members, pending, false, ctx, sink));
                self.trim_window(self.window());
            }
            // The run does not fit even an empty device: its members run
            // one by one on the drained lane, so every decision matches the
            // drain schedule's.
            None => {
                for mut member in members {
                    let sn = member.sn;
                    let out = self.on_lane(0, |l, ctx, sink| {
                        let out = l.run_front(sn, &mut member.front(), PolicyKind::P4, false, ctx);
                        sink.deliver(sn, member.update, None);
                        out
                    });
                    self.count(sn, out)?;
                }
            }
        }
        Ok(())
    }

    /// Whether `sn`'s update block stays on its device for its parent to
    /// peer-copy: the parent lives on another device and will itself run on
    /// the GPU. One peer copy replaces a d2h, a host extend-add and an h2d;
    /// on the runs measured at [`LOOK_AHEAD`] host staging alone is 0–4 %
    /// slower and never faster. Host staging ([`evict`]) stays the fallback
    /// where a peer copy cannot serve: a P1 parent, a landing buffer that
    /// does not fit, an OOM retry on the producing device. Never at one
    /// device.
    fn exports_update(&self, sn: usize) -> bool {
        let info = &self.symbolic.supernodes[sn];
        let parent = info.parent;
        info.m() > 0 && parent != usize::MAX && {
            let pi = &self.symbolic.supernodes[parent];
            self.map.device_of[parent] != self.map.device_of[sn]
                && self.opts.selector.choose(parent, pi.m(), pi.k()) != PolicyKind::P1
        }
    }

    /// Peer-copy every exported child update onto `sn`'s device: an `m × m`
    /// landing buffer (allocated with data, reserved without), a
    /// [`Gpu::p2p`] gated on the producer's ready event, and a compute-stream
    /// wait so `sn`'s kernels observe the scattered update. Falls back to host staging when the parent runs on
    /// the CPU or the landing allocation does not fit. Data-wise this is a
    /// no-op — the host already holds the authoritative update — so only
    /// the simulated timeline moves.
    fn consume_child_exports(&mut self, sn: usize, policy: PolicyKind) {
        let lane = self.map.device_of[sn];
        for &c in self.symbolic.children(sn) {
            let Some(ru) = self.exports[c].take() else { continue };
            let clane = self.map.device_of[c];
            let (gpus, data) = (&mut self.gpus, self.pool.has_data());
            let gpu = &mut gpus[lane];
            let landing = match policy {
                PolicyKind::P1 => None,
                _ if data => gpu.alloc(ru.m * ru.m).ok(),
                _ => gpu.reserve(ru.m * ru.m).ok(),
            };
            let Some(dst) = landing else {
                self.on_lane(clane, |_, ctx, _| evict::<T>(ru, ctx));
                continue;
            };
            let (dst_stream, cs) = (gpu.stream(S_PEER), gpu.stream(S_COMPUTE));
            let dst_view = DevMat::whole(dst, ru.m);
            let (rv, m) = (ru.view, ru.m);
            let ev =
                Gpu::p2p(gpus, clane, rv, lane, dst_stream, dst_view, m, m, ru.ready, self.host);
            gpus[lane].wait_event(cs, ev);
            // The copy's timing is scheduled; the allocator is timeless, so
            // free both endpoints now — `sn`'s own dispatch must see the
            // same free memory the serial drain driver would.
            let _ = gpus[lane].free(dst);
            let _ = gpus[clane].free(ru.buf);
        }
    }

    /// Finish the oldest fronts, over all lanes, until at most `window`
    /// remain in flight.
    fn trim_window(&mut self, window: usize) {
        while self.lanes.iter().map(Lane::outstanding).sum::<usize>() > window {
            let sn = self.order.pop_front().expect("every front in flight is in the order");
            let lane = self.map.device_of[sn];
            self.on_lane(lane, |l, ctx, _| l.finish_holding(|x| x == sn, ctx));
        }
    }
}

/// [`crate::Schedule::Pipelined`]: fronts in flight on `ndev` lanes of one
/// host timeline, `a`'s values assembled and the panels put into the slab of
/// `data`. The machine's own device becomes device 0 of `ndev` identical
/// devices and moves back when the run ends, error or not. Without data the
/// run is timing-only: its staging pool is built without data and its device
/// buffers are reserved, so it issues the data run's every simulated call
/// and touches no numeric data. Factor slabs are
/// bitwise identical to the drain driver at every device count (see the
/// module docs).
pub(crate) fn issue_fronts<T: Scalar>(
    symbolic: &SymbolicFactor,
    machine: &mut Machine,
    opts: &FactorOptions,
    ndev: usize,
    data: Option<(&SymCsc<T>, &mut [T])>,
) -> Result<FactorStats, FactorError> {
    let own =
        machine.gpu.take().expect("the plan keeps fronts in flight on a machine with a device");
    let cfg = own.config().clone();
    let mut gpus = vec![own];
    gpus.resize_with(ndev, || Gpu::new(cfg.clone()));
    let pool = pinned_pool(opts, data.is_some());

    let mut run = Issuer {
        symbolic,
        opts,
        map: proportional_map(symbolic, ndev),
        host: &mut machine.host,
        gpus,
        pool,
        lanes: (0..ndev).map(|_| Lane::new()).collect(),
        order: VecDeque::new(),
        store: FrontStore::new(symbolic, data),
        exports: vec![None; symbolic.num_supernodes()],
        oom_fallbacks: 0,
    };
    let result = run.run();

    // Stats and the device's way back happen whether or not the run errored,
    // so callers always get their machine back intact.
    for g in &mut run.gpus {
        g.sync_all(run.host);
    }
    let total = run.host.now();
    let per_dev: Vec<GpuUtilization> = run.gpus.iter().map(|g| g.utilization(total)).collect();
    let mut agg = GpuUtilization::default();
    for u in &per_dev {
        agg.merge(u);
    }
    let peer_bytes = run.gpus.iter().map(Gpu::peer_bytes).sum();
    machine.gpu = Some(run.gpus.swap_remove(0));
    result?;
    Ok(FactorStats {
        front_alloc_events: run.store.allocs,
        peak_front_bytes: run.store.peak_bytes(),
        total_time: total,
        gpu: Some(agg),
        // One device is all of `gpu`; `GOLDEN_CLOCK` hashes both fields.
        gpu_devices: if ndev > 1 { per_dev } else { Vec::new() },
        peer_bytes,
        oom_fallbacks: run.oom_fallbacks,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{factor_permuted, FactorOptions, PipelineOptions, PolicySelector};
    use crate::parallel::{factor_permuted_parallel, ParallelOptions};
    use crate::policy::BaselineThresholds;
    use mf_matgen::{laplacian_3d, Stencil};
    use mf_sparse::symbolic::{analyze, Analysis};
    use mf_sparse::{AmalgamationOptions, OrderingKind, Triplet};

    fn grid_analysis(nx: usize, ny: usize, nz: usize) -> Analysis {
        let a = laplacian_3d(nx, ny, nz, Stencil::Faces);
        analyze(&a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default())).unwrap()
    }

    fn bits(slab: &[f32]) -> Vec<u32> {
        slab.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn proportional_map_covers_and_respects_topology() {
        let analysis = grid_analysis(6, 6, 6);
        let symbolic = &analysis.symbolic;
        let nsn = symbolic.num_supernodes();
        for ndev in [1usize, 2, 3, 4, 8] {
            let map = proportional_map(symbolic, ndev);
            assert_eq!(map.device_of.len(), nsn);
            assert!(map.device_of.iter().all(|&d| d < ndev));
            // The issue order is a topological permutation of the forest.
            assert_eq!(map.issue_order.len(), nsn);
            let mut seen = vec![false; nsn];
            for &sn in &map.issue_order {
                assert!(!seen[sn], "duplicate issue of {sn}");
                for &c in symbolic.children(sn) {
                    assert!(seen[c], "child {c} must issue before parent {sn}");
                }
                seen[sn] = true;
            }
            if ndev == 1 {
                assert_eq!(map.issue_order, symbolic.postorder, "1 device ⇒ pure postorder");
            } else {
                // Every device gets work on this forest.
                for d in 0..ndev {
                    assert!(map.device_of.contains(&d), "device {d} of {ndev} is empty");
                }
            }
        }
    }

    #[test]
    fn multigpu_matches_serial_drain_bitwise_with_peer_traffic() {
        let analysis = grid_analysis(7, 6, 6);
        let a32: SymCsc<f32> = analysis.permuted.0.cast();
        let run = |devices: MultiGpuOptions, pipeline: PipelineOptions| {
            let mut machine = Machine::paper_node();
            let opts = FactorOptions {
                selector: PolicySelector::Fixed(PolicyKind::P4),
                pipeline,
                devices,
                ..Default::default()
            };
            factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts)
                .inspect(|_| {
                    assert!(machine.gpu.is_some(), "machine must get its device back");
                })
                .unwrap()
        };
        let (fd, _) = run(MultiGpuOptions::default(), PipelineOptions::default());
        for ndev in [2usize, 4] {
            let (fm, sm) = run(MultiGpuOptions::devices(ndev), PipelineOptions::pipelined());
            assert_eq!(
                bits(&fd.slab),
                bits(&fm.slab),
                "{ndev}-device factor must match the drain driver bitwise"
            );
            assert_eq!(sm.gpu_devices.len(), ndev);
            assert!(sm.peer_bytes > 0, "cross-device fronts must move peer traffic");
            let busy = sm.gpu_devices.iter().filter(|u| u.busy_fraction() > 0.0).count();
            assert!(busy >= 2, "at least two devices must do work, got {busy}");
        }
    }

    #[test]
    fn multigpu_beats_single_device_pipelined_on_gpu_heavy_grids() {
        let analysis = grid_analysis(9, 9, 8);
        let a32: SymCsc<f32> = analysis.permuted.0.cast();
        let run = |ndev: usize| {
            let mut machine = Machine::paper_node();
            let opts = FactorOptions {
                selector: PolicySelector::Fixed(PolicyKind::P4),
                copy_optimized: true,
                pipeline: PipelineOptions::pipelined(),
                devices: MultiGpuOptions::devices(ndev),
                ..Default::default()
            };
            let (_, stats) =
                factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts)
                    .unwrap();
            stats.total_time
        };
        let t1 = run(1);
        let t2 = run(2);
        assert!(t2 < t1, "2 devices ({t2:.6e}) must beat 1 ({t1:.6e})");
    }

    #[test]
    fn multigpu_parallel_entry_matches_serial_bitwise() {
        let analysis = grid_analysis(6, 6, 6);
        let a32: SymCsc<f32> = analysis.permuted.0.cast();
        let serial = {
            let mut machine = Machine::paper_node();
            let opts = FactorOptions {
                selector: PolicySelector::Baseline(BaselineThresholds::default()),
                ..Default::default()
            };
            factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts)
                .unwrap()
                .0
        };
        for (workers, ndev) in [(2usize, 2usize), (2, 4), (3, 2)] {
            let mut machines: Vec<Machine> = (0..workers).map(|_| Machine::paper_node()).collect();
            let opts = FactorOptions {
                selector: PolicySelector::Baseline(BaselineThresholds::default()),
                pipeline: PipelineOptions::pipelined(),
                devices: MultiGpuOptions::devices(ndev),
                ..Default::default()
            };
            let (fm, sm) = factor_permuted_parallel(
                &a32,
                &analysis.symbolic,
                &analysis.perm,
                &mut machines,
                &opts,
                &ParallelOptions::default(),
            )
            .unwrap();
            assert_eq!(
                bits(&serial.slab),
                bits(&fm.slab),
                "{workers} workers × {ndev} devices must match serial bitwise"
            );
            assert_eq!(sm.gpu_devices.len(), ndev);
            assert!(machines.iter().all(|m| m.gpu.is_some()));
        }
    }

    #[test]
    fn in_flight_oom_fallbacks_match_drain_driver() {
        // A device too small for the big fronts: at every device count the
        // issuer must make the drain driver's P1-fallback decisions (after
        // draining) and still produce identical bits, in f64 and in f32.
        fn check<T: Scalar>(a: &SymCsc<T>, analysis: &Analysis) {
            let run = |devices: MultiGpuOptions, pipeline: PipelineOptions| {
                let mut cfg = mf_gpusim::tesla_t10();
                cfg.mem_bytes = 2_000; // 500 f32 elements — only small fronts fit
                let mut machine = Machine::with_gpu(mf_gpusim::xeon_5160_core(), cfg);
                let opts = FactorOptions {
                    selector: PolicySelector::Fixed(PolicyKind::P4),
                    pipeline,
                    devices,
                    ..Default::default()
                };
                factor_permuted(a, &analysis.symbolic, &analysis.perm, &mut machine, &opts).unwrap()
            };
            let bits =
                |slab: &[T]| -> Vec<u64> { slab.iter().map(|x| x.to_f64().to_bits()).collect() };
            let (fd, sd) = run(MultiGpuOptions::default(), PipelineOptions::default());
            assert!(sd.oom_fallbacks > 0, "test needs OOM pressure to be meaningful");
            for ndev in [1usize, 2, 4] {
                let (fm, sm) = run(MultiGpuOptions::devices(ndev), PipelineOptions::pipelined());
                assert_eq!(sm.oom_fallbacks, sd.oom_fallbacks, "{ndev}-device OOM decisions");
                assert_eq!(bits(&fd.slab), bits(&fm.slab), "{ndev}-device OOM bits");
            }
        }
        let analysis = grid_analysis(6, 6, 5);
        check(&analysis.permuted.0, &analysis);
        check(&analysis.permuted.0.cast::<f32>(), &analysis);
    }

    #[test]
    fn in_flight_indefinite_matrix_reports_same_column() {
        let mut t = Triplet::new(8);
        for i in 0..8 {
            t.push(i, i, if i == 5 { -3.0 } else { 4.0 });
            if i + 1 < 8 {
                t.push(i + 1, i, -1.0);
            }
        }
        let a = t.assemble();
        let analysis = analyze(&a, OrderingKind::Natural, None).unwrap();
        for ndev in [1usize, 2] {
            let mut machine = Machine::paper_node();
            let opts = FactorOptions {
                selector: PolicySelector::Fixed(PolicyKind::P4),
                pipeline: PipelineOptions::pipelined(),
                devices: MultiGpuOptions::devices(ndev),
                ..Default::default()
            };
            let err = factor_permuted(
                &analysis.permuted.0,
                &analysis.symbolic,
                &analysis.perm,
                &mut machine,
                &opts,
            )
            .unwrap_err();
            assert_eq!(err, FactorError::NotPositiveDefinite { column: 5 }, "{ndev} devices");
            let gpu = machine.gpu.as_ref().expect("error path must restore the device");
            assert_eq!(gpu.mem_used(), 0, "{ndev} devices: the device comes back empty");
        }
    }
}
