//! The multi-GPU execution layer (DESIGN.md §4.13): proportional mapping of
//! elimination-subtree regions onto a [`DeviceSet`], peer-copy extend-add of
//! cross-device contribution blocks, and a global look-ahead window that
//! keeps every device fed while remote children are still in flight.
//!
//! # Mapping
//!
//! [`proportional_map`] splits the elimination forest Geist–Ng style on the
//! symbolic per-subtree work estimates: starting from the roots, the
//! heaviest chunk is repeatedly replaced by its children until every chunk
//! is at or below `total / ndev` (and there are at least `ndev` chunks),
//! then chunks are LPT-assigned to the least-loaded device. Split nodes —
//! the *separator frontier* — ride with their heaviest child's device, so
//! the top of the tree stays where most of its operands already live.
//!
//! # Execution
//!
//! Each device factors its region with the existing pipelined three-phase
//! front machinery ([`crate::fu`]), driven in an interleaved issue order
//! (round-robin over per-device postorder queues) so that a front uploads
//! to one device while another device's kernels run. Above the frontier, a
//! front whose children were factored on *other* devices consumes their
//! packed `m × m` contribution blocks via [`DeviceSet::p2p`] peer copies —
//! event-chained, on the dedicated peer engine — instead of the
//! d2h → host-assemble → h2d staging round-trip; the producing front's
//! update download (and its host-side apply charge) is skipped entirely
//! ([`enqueue_downloads_keep_update`]).
//!
//! # Determinism
//!
//! Host f32/f64 numerics are untouched: every front assembles from `A` plus
//! its children's packed updates in fixed postorder child rank, and runs the
//! exact per-front kernel sequence of the serial drain driver, so factor
//! slabs are **bitwise identical** to the serial, pipelined and parallel
//! drivers at every `(workers × devices)` combination. The peer-copy path
//! changes only *simulated time*: the simulator's transfers are eager
//! memcpys, so reading the still-device-resident update block yields the
//! same bytes the download path would have produced (pinned by
//! `fu::tests::keep_update_path_is_bitwise_identical_to_download_path`).
//! Device-OOM retry first drains the device to the serial driver's
//! empty-device state, so P1-fallback decisions — the one place scheduling
//! could touch numerics — match the drain driver exactly.

use crate::factor::{fu_ctx, fu_err_to_factor, CholeskyFactor, FactorError, FactorOptions};
use crate::frontal::{
    assemble_front_into, charge_panel_extract, charge_update_extract, copy_update_packed,
    extract_panel_copy, extract_panel_into, ChildUpdate, Front,
};
use crate::fu::{
    dispatch_fu, enqueue_downloads, enqueue_downloads_keep_update, finish_fu, try_dispatch_gpu,
    FuPending, RemoteUpdate, S_COMPUTE, S_COPY,
};
use crate::pinned_pool::PinnedPool;
use crate::policy::PolicyKind;
use crate::stats::FactorStats;
use mf_dense::Scalar;
use mf_gpusim::{CopyMode, DevMat, DeviceSet, Gpu, GpuUtilization, Machine};
use mf_sparse::symbolic::SymbolicFactor;
use mf_sparse::{Permutation, SymCsc};

/// Stream id for incoming peer copies on each device (S_COMPUTE and S_COPY
/// keep the single-device meanings).
const S_PEER: usize = 2;

/// Multi-device execution options, carried on
/// [`FactorOptions::devices`](crate::factor::FactorOptions::devices).
///
/// With `count > 1` on a GPU machine with pipelining enabled,
/// `factor_permuted`/`factor_permuted_parallel` route to the multi-GPU
/// driver: the machine's device becomes device 0 of a [`DeviceSet`] of
/// `count` identically-configured devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiGpuOptions {
    /// Number of simulated devices. `1` (the default) keeps the
    /// single-device drivers.
    pub count: usize,
    /// Global look-ahead window: maximum fronts with downloads outstanding
    /// across the whole device set before the oldest is finished (never
    /// below the device count, so every device can hold work).
    pub look_ahead: usize,
    /// Consume cross-device child updates via peer copies instead of host
    /// staging. Off, every contribution block round-trips through the host
    /// exactly as the single-device drivers do (an ablation knob — bits
    /// never change either way).
    pub peer_extend_add: bool,
}

impl Default for MultiGpuOptions {
    fn default() -> Self {
        MultiGpuOptions { count: 1, look_ahead: 8, peer_extend_add: true }
    }
}

impl MultiGpuOptions {
    /// `count` devices with the default look-ahead and peer extend-add on.
    pub fn devices(count: usize) -> Self {
        MultiGpuOptions { count, ..Default::default() }
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
    /// Mapped work (symbolic flop estimate) per device.
    pub load: Vec<f64>,
}

/// Split the elimination forest into per-device regions proportional to the
/// symbolic work estimates (see the module docs). Deterministic: ties break
/// on the lower supernode / device index.
pub fn proportional_map(symbolic: &SymbolicFactor, ndev: usize) -> DeviceMap {
    assert!(ndev >= 1, "need at least one device");
    let nsn = symbolic.num_supernodes();
    let mut own = vec![0.0f64; nsn];
    let mut work = vec![0.0f64; nsn];
    for &sn in &symbolic.postorder {
        own[sn] = symbolic.supernodes[sn].flops().total().max(1.0);
        work[sn] = own[sn] + symbolic.children(sn).iter().map(|&c| work[c]).sum::<f64>();
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
    if ndev > 1 {
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
        let d = symbolic
            .children(sn)
            .iter()
            .copied()
            .max_by(|&x, &y| work[x].total_cmp(&work[y]).then(y.cmp(&x)))
            .map_or(0, |c| device_of[c]);
        device_of[sn] = d;
        load[d] += own[sn];
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
    DeviceMap { device_of, issue_order, load }
}

/// A dispatched front whose downloads are not enqueued yet (per-lane
/// dispatch-before-flush staging, as the single-device pipelined driver).
struct MgStaged<T> {
    sn: usize,
    buf: Vec<T>,
    pending: FuPending,
}

/// A flushed front: downloads (or the peer-export) enqueued, panel and
/// update extracted eagerly, extraction charges deferred to finish.
struct MgInflight {
    sn: usize,
    lane: usize,
    /// `(s, k, m)`.
    dims: (usize, usize, usize),
    /// Update block exported device-side: its extract charge is skipped —
    /// the bytes never cross to the host.
    exported: bool,
    pending: FuPending,
}

/// One driving worker: a host timeline, the lanes (devices) it owns, and
/// its staging state. The worker's [`Machine`] holds no device between fu
/// calls — lanes are taken out of `set` for exactly the duration of each
/// single-device fu call and restored immediately after.
struct WorkerState<'m, T> {
    machine: &'m mut Machine,
    set: DeviceSet,
    /// Global device ids of this worker's lanes (`devs[lane]`), ascending.
    devs: Vec<usize>,
    pool: PinnedPool,
    staged: Vec<Option<MgStaged<T>>>,
    inflight: Vec<MgInflight>,
}

/// Whole-run state of the multi-GPU driver.
struct MgRun<'a, 'm, T> {
    a: &'a SymCsc<T>,
    symbolic: &'a SymbolicFactor,
    opts: &'a FactorOptions,
    map: DeviceMap,
    /// Driving worker of each global device.
    worker_of: Vec<usize>,
    /// Lane index of each global device within its worker's set.
    lane_of: Vec<usize>,
    ws: Vec<WorkerState<'m, T>>,
    slab: Vec<T>,
    /// Packed host-side `m × m` updates awaiting their parent's extend-add
    /// (always produced — the authoritative numerics).
    updates: Vec<Option<Vec<T>>>,
    /// Device-resident update blocks awaiting a peer-copy extend-add.
    exports: Vec<Option<RemoteUpdate>>,
    rel: Vec<usize>,
    stats: FactorStats,
    live: usize,
    peak: usize,
}

impl<T: Scalar> MgRun<'_, '_, T> {
    fn take_dev(&mut self, w: usize, lane: usize) {
        let ws = &mut self.ws[w];
        debug_assert!(ws.machine.gpu.is_none(), "device take/put must nest");
        ws.machine.gpu = Some(ws.set.take(lane));
    }

    fn put_dev(&mut self, w: usize, lane: usize) {
        let ws = &mut self.ws[w];
        let g = ws.machine.gpu.take().expect("device must be present to restore");
        ws.set.restore(lane, g);
    }

    fn run(&mut self) -> Result<(), FactorError> {
        let order = self.map.issue_order.clone();
        for sn in order {
            self.step(sn)?;
        }
        for w in 0..self.ws.len() {
            for lane in 0..self.ws[w].staged.len() {
                self.flush_lane(w, lane);
            }
            while !self.ws[w].inflight.is_empty() {
                let e = self.ws[w].inflight.remove(0);
                self.finish_entry(w, e);
            }
        }
        debug_assert!(
            self.exports.iter().all(Option::is_none),
            "every exported update must be consumed by its parent"
        );
        Ok(())
    }

    fn step(&mut self, sn: usize) -> Result<(), FactorError> {
        let symbolic = self.symbolic;
        let info = &symbolic.supernodes[sn];
        let (s, k, m) = (info.front_size(), info.k(), info.m());
        let dev = self.map.device_of[sn];
        let (w, lane) = (self.worker_of[dev], self.lane_of[dev]);
        self.ready_children(sn, w);
        let mut front_data = self.assemble(sn, w);
        let policy = self.opts.selector.choose(sn, m, k);
        self.consume_child_exports(sn, w, lane, policy);
        let mut front = Front { s, k, data: &mut front_data };
        let dispatched = {
            self.take_dev(w, lane);
            let ws = &mut self.ws[w];
            let mut ctx = fu_ctx(ws.machine, &mut ws.pool, self.opts);
            let r = try_dispatch_gpu(&mut front, policy, &mut ctx);
            self.put_dev(w, lane);
            r.map_err(|e| fu_err_to_factor(info.col_start, e))?
        };
        let pending = match dispatched {
            Some(p) => p,
            None => {
                // Device OOM: reach the drain driver's empty-device state on
                // *this* device (its own inflight work finished, stranded
                // exports evicted to the host) before retrying, so
                // P1-fallback decisions match the serial driver bitwise.
                self.flush_lane(w, lane);
                self.drain_lane(w, lane);
                self.evict_exports_on(dev);
                self.take_dev(w, lane);
                let ws = &mut self.ws[w];
                let mut ctx = fu_ctx(ws.machine, &mut ws.pool, self.opts);
                let r = dispatch_fu(&mut front, policy, &mut ctx);
                self.put_dev(w, lane);
                r.map_err(|e| fu_err_to_factor(info.col_start, e))?
            }
        };
        if pending.oom_fallback() {
            self.stats.oom_fallbacks += 1;
        }
        if pending.is_done() {
            // CPU-resident result (P1, or an m = 0 pivot): nothing in flight.
            self.extract_inline(sn, &Front { s, k, data: &mut front_data }, w);
            self.live -= s * s;
            return Ok(());
        }
        // Dispatch-before-flush: this front's upload is queued, so flushing
        // the lane's previous front cannot delay it on the copy engine.
        self.flush_lane(w, lane);
        self.ws[w].staged[lane] = Some(MgStaged { sn, buf: front_data, pending });
        self.enforce_window(w);
        Ok(())
    }

    /// Make `sn`'s child updates consumable. Children staged anywhere flush
    /// (producing their update data and, cross-device, their exports). A
    /// same-worker, non-exported in-flight child costs a host *event wait*;
    /// an exported child costs nothing here — its ordering flows through
    /// the peer-copy event on the consumer device, which is exactly the
    /// cross-device look-ahead. Children of another worker carry no timing
    /// edge (the parallel driver's convention for cross-worker hand-off).
    fn ready_children(&mut self, sn: usize, w: usize) {
        let kids = self.symbolic.children(sn);
        for &c in kids {
            let cdev = self.map.device_of[c];
            let (cw, clane) = (self.worker_of[cdev], self.lane_of[cdev]);
            if self.ws[cw].staged[clane].as_ref().is_some_and(|st| st.sn == c) {
                self.flush_lane(cw, clane);
            }
            if cw == w && self.exports[c].is_none() {
                if let Some(pos) = self.ws[w].inflight.iter().position(|e| e.sn == c) {
                    let e = self.ws[w].inflight.remove(pos);
                    self.finish_entry(w, e);
                }
            }
        }
    }

    /// Assemble `sn`'s front on worker `w`'s host, consuming its children's
    /// packed updates in postorder child rank — the numerics are byte-for-
    /// byte the serial driver's regardless of where the children ran.
    fn assemble(&mut self, sn: usize, w: usize) -> Vec<T> {
        let a = self.a;
        let symbolic = self.symbolic;
        let info = &symbolic.supernodes[sn];
        let s = info.front_size();
        let child_bufs: Vec<(usize, Vec<T>)> = symbolic
            .children(sn)
            .iter()
            .map(|&c| (c, self.updates[c].take().expect("child update must exist at issue")))
            .collect();
        self.stats.front_alloc_events += 1;
        let mut front_data = vec![T::ZERO; s * s];
        self.live += s * s;
        self.peak = self.peak.max(self.live);
        let children = child_bufs
            .iter()
            .map(|(c, d)| ChildUpdate { rows: symbolic.update_rows(*c), data: &d[..] });
        assemble_front_into(
            a,
            info.col_start..info.col_end,
            symbolic.update_rows(sn),
            children,
            &mut front_data,
            &mut self.rel,
            &mut self.ws[w].machine.host,
        );
        for (_, d) in child_bufs {
            self.live -= d.len();
        }
        front_data
    }

    /// Peer-copy every exported child update onto `sn`'s device: an `m × m`
    /// landing buffer, a [`DeviceSet::p2p`] gated on the producer's ready
    /// event, and a compute-stream wait so `sn`'s kernels observe the
    /// scattered update. Falls back to host staging when the parent runs on
    /// the CPU or the landing allocation does not fit. Data-wise this is a
    /// no-op — the host already holds the authoritative update — so only
    /// the simulated timeline moves.
    fn consume_child_exports(&mut self, sn: usize, w: usize, lane: usize, policy: PolicyKind) {
        let kids = self.symbolic.children(sn);
        for &c in kids {
            let Some(ru) = self.exports[c].take() else { continue };
            let cdev = self.map.device_of[c];
            let clane = self.lane_of[cdev];
            debug_assert_eq!(self.worker_of[cdev], w, "exports never cross workers");
            if policy == PolicyKind::P1 || clane == lane {
                self.evict_one(w, clane, ru);
                continue;
            }
            let ws = &mut self.ws[w];
            match ws.set.device_mut(lane).alloc(ru.m * ru.m) {
                Ok(dst) => {
                    let dst_stream = ws.set.device_mut(lane).stream(S_PEER);
                    let ev = ws.set.p2p(
                        clane,
                        ru.view,
                        lane,
                        dst_stream,
                        DevMat::whole(dst, ru.m),
                        ru.m,
                        ru.m,
                        ru.ready,
                        &mut ws.machine.host,
                    );
                    let cs = ws.set.device_mut(lane).stream(S_COMPUTE);
                    ws.set.device_mut(lane).wait_event(cs, ev);
                    // The copy's timing is scheduled; the allocator is
                    // timeless, so free both endpoints now — `sn`'s own
                    // dispatch must see the same free memory the serial
                    // drain driver would.
                    let _ = ws.set.device_mut(lane).free(dst);
                    let _ = ws.set.device_mut(clane).free(ru.buf);
                }
                Err(_) => self.evict_one(w, clane, ru),
            }
        }
    }

    /// Phase 2 for a lane's staged front. When the parent lives on another
    /// device of the same worker and will itself run on the GPU, the update
    /// block stays device-resident as a [`RemoteUpdate`] export and its d2h
    /// is skipped; otherwise the normal event-gated downloads enqueue.
    /// Either way the panel and the (host-authoritative) packed update are
    /// extracted eagerly, with the host charges deferred to finish.
    fn flush_lane(&mut self, w: usize, lane: usize) {
        let Some(MgStaged { sn, mut buf, mut pending }) = self.ws[w].staged[lane].take() else {
            return;
        };
        let symbolic = self.symbolic;
        let info = &symbolic.supernodes[sn];
        let (s, k, m) = (info.front_size(), info.k(), info.m());
        let parent = info.parent;
        let export = self.opts.devices.peer_extend_add
            && m > 0
            && parent != usize::MAX
            && self.map.device_of[parent] != self.map.device_of[sn]
            && self.worker_of[self.map.device_of[parent]] == w
            && {
                let pi = &symbolic.supernodes[parent];
                self.opts.selector.choose(parent, pi.m(), pi.k()) != PolicyKind::P1
            };
        self.take_dev(w, lane);
        let remote = {
            let ws = &mut self.ws[w];
            let mut ctx = fu_ctx(ws.machine, &mut ws.pool, self.opts);
            let mut front = Front { s, k, data: &mut buf };
            if export {
                enqueue_downloads_keep_update(&mut front, &mut pending, &mut ctx)
            } else {
                enqueue_downloads(&mut front, &mut pending, &mut ctx);
                None
            }
        };
        self.put_dev(w, lane);
        let ptr = self.symbolic.panel_ptr();
        let (p0, p1) = (ptr[sn], ptr[sn + 1]);
        extract_panel_copy(&Front { s, k, data: &mut buf }, &mut self.slab[p0..p1]);
        if m > 0 {
            self.stats.front_alloc_events += 1;
            let mut u = vec![T::ZERO; m * m];
            copy_update_packed(&buf, s, k, &mut u);
            self.live += m * m;
            self.updates[sn] = Some(u);
        }
        self.live -= s * s;
        let exported = remote.is_some();
        if let Some(ru) = remote {
            self.exports[sn] = Some(ru);
        }
        self.ws[w].inflight.push(MgInflight { sn, lane, dims: (s, k, m), exported, pending });
    }

    /// Drain-path extraction for fronts with no device work outstanding.
    fn extract_inline(&mut self, sn: usize, front: &Front<'_, T>, w: usize) {
        let info = &self.symbolic.supernodes[sn];
        let (s, k, m) = (info.front_size(), info.k(), info.m());
        let ptr = self.symbolic.panel_ptr();
        let (p0, p1) = (ptr[sn], ptr[sn + 1]);
        extract_panel_into(front, &mut self.slab[p0..p1], &mut self.ws[w].machine.host);
        charge_update_extract::<T>(m, &mut self.ws[w].machine.host);
        if m > 0 {
            self.stats.front_alloc_events += 1;
            let mut u = vec![T::ZERO; m * m];
            copy_update_packed(front.data, s, k, &mut u);
            self.live += m * m;
            self.updates[sn] = Some(u);
        }
    }

    /// Phase 3 for one in-flight entry: host event wait, device buffers
    /// free, deferred extraction charges. An exported entry skips the
    /// update-extract charge — its block never crossed to the host.
    fn finish_entry(&mut self, w: usize, e: MgInflight) {
        let MgInflight { lane, dims: (s, k, m), exported, mut pending, .. } = e;
        self.take_dev(w, lane);
        {
            let ws = &mut self.ws[w];
            let mut ctx = fu_ctx(ws.machine, &mut ws.pool, self.opts);
            finish_fu(&mut pending, &mut ctx);
        }
        self.put_dev(w, lane);
        let host = &mut self.ws[w].machine.host;
        charge_panel_extract::<T>(s, k, host);
        if !exported {
            charge_update_extract::<T>(m, host);
        }
    }

    /// Finish every in-flight entry running on one lane (FIFO within it).
    fn drain_lane(&mut self, w: usize, lane: usize) {
        let mut j = 0;
        while j < self.ws[w].inflight.len() {
            if self.ws[w].inflight[j].lane == lane {
                let e = self.ws[w].inflight.remove(j);
                self.finish_entry(w, e);
            } else {
                j += 1;
            }
        }
    }

    /// Host-staging fallback for one exported update: an event-gated d2h
    /// into a pooled pinned slot (bytes already live on the host — only the
    /// transfer's simulated time matters) plus the update-extract charge
    /// its producer skipped, then the device buffer frees.
    fn evict_one(&mut self, w: usize, src_lane: usize, ru: RemoteUpdate) {
        self.take_dev(w, src_lane);
        {
            let ws = &mut self.ws[w];
            let slot = ws.pool.lease(ru.m * ru.m, &mut ws.machine.host);
            let (host, gpu) = ws.machine.host_and_gpu().expect("lane device present");
            let copy = gpu.stream(S_COPY);
            gpu.wait_event(copy, ru.ready);
            gpu.d2h(
                copy,
                ru.view,
                ru.m,
                ru.m,
                ws.pool.slot_mut(slot),
                ru.m,
                true,
                CopyMode::Async,
                host,
            );
            let ev = gpu.record_event(copy);
            ws.pool.retire(slot, ev.0, host);
            let _ = gpu.free(ru.buf);
            charge_update_extract::<T>(ru.m, host);
        }
        self.put_dev(w, src_lane);
    }

    /// Evict every stranded export resident on global device `dev` (frees
    /// its memory ahead of an OOM retry on that device).
    fn evict_exports_on(&mut self, dev: usize) {
        for c in 0..self.exports.len() {
            if self.exports[c].is_some() && self.map.device_of[c] == dev {
                let ru = self.exports[c].take().expect("checked above");
                self.evict_one(self.worker_of[dev], self.lane_of[dev], ru);
            }
        }
    }

    /// Enforce the global look-ahead window on worker `w`: finish oldest
    /// entries until at most `max(look_ahead, lanes)` remain outstanding.
    fn enforce_window(&mut self, w: usize) {
        let window = self.opts.devices.look_ahead.max(self.ws[w].staged.len());
        while self.ws[w].inflight.len() > window {
            let e = self.ws[w].inflight.remove(0);
            self.finish_entry(w, e);
        }
    }
}

/// Single-machine multi-GPU entry: the machine's device drives lane 0 of a
/// [`DeviceSet`] of `opts.devices.count` identical devices, all fed from
/// this machine's host timeline. Reached from
/// [`crate::factor::factor_permuted`] when `devices.count > 1` with
/// pipelining enabled on a GPU machine.
pub fn factor_permuted_multigpu<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
    machine: &mut Machine,
    opts: &FactorOptions,
) -> Result<(CholeskyFactor<T>, FactorStats), FactorError> {
    factor_permuted_parallel_multigpu(a, symbolic, perm, std::slice::from_mut(machine), opts)
}

/// Multi-worker multi-GPU entry: devices are dealt round-robin over the
/// GPU-bearing machines (device `d` → worker `d mod workers`), each worker
/// cooperatively driving its lanes with the per-lane pipelined machinery.
///
/// Worker host timelines are independent — cross-worker child hand-offs
/// carry no timing edge, exactly the work-stealing parallel driver's
/// convention — so a sequential cooperative schedule reproduces the same
/// per-worker clocks a threaded interleaving would, and the reported
/// `total_time` is the max over workers after all devices drain. Factor
/// slabs are bitwise identical to the serial driver at every
/// `(workers × devices)` combination (see the module docs).
pub fn factor_permuted_parallel_multigpu<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
    machines: &mut [Machine],
    opts: &FactorOptions,
) -> Result<(CholeskyFactor<T>, FactorStats), FactorError> {
    let ndev = opts.devices.count.max(1);
    let nsn = symbolic.num_supernodes();
    let wall0 = std::time::Instant::now();
    let mut drivers: Vec<&mut Machine> = machines.iter_mut().filter(|m| m.gpu.is_some()).collect();
    assert!(!drivers.is_empty(), "multi-GPU factorization needs a GPU machine");
    drivers.truncate(ndev);
    let nw = drivers.len();

    let mut worker_of = vec![0usize; ndev];
    let mut lane_of = vec![0usize; ndev];
    let mut devs_per_worker: Vec<Vec<usize>> = vec![Vec::new(); nw];
    for d in 0..ndev {
        let w = d % nw;
        worker_of[d] = w;
        lane_of[d] = devs_per_worker[w].len();
        devs_per_worker[w].push(d);
    }

    let mut ws: Vec<WorkerState<'_, T>> = Vec::with_capacity(nw);
    for (w, machine) in drivers.into_iter().enumerate() {
        let own = machine.gpu.take().expect("driver machines carry a device");
        let cfg = own.config().clone();
        let mut gpus = vec![own];
        for _ in 1..devs_per_worker[w].len() {
            gpus.push(Gpu::new(cfg.clone()));
        }
        let nlanes = gpus.len();
        ws.push(WorkerState {
            machine,
            set: DeviceSet::from_gpus(gpus),
            devs: devs_per_worker[w].clone(),
            pool: if opts.pinned_reuse { PinnedPool::new(2) } else { PinnedPool::without_reuse(2) },
            staged: (0..nlanes).map(|_| None).collect(),
            inflight: Vec::new(),
        });
    }

    let mut run = MgRun {
        a,
        symbolic,
        opts,
        map: proportional_map(symbolic, ndev),
        worker_of,
        lane_of,
        ws,
        slab: vec![T::ZERO; symbolic.factor_slab_len()],
        updates: (0..nsn).map(|_| None).collect(),
        exports: (0..nsn).map(|_| None).collect(),
        rel: Vec::new(),
        stats: FactorStats { front_alloc_events: 1, ..Default::default() },
        live: 0,
        peak: 0,
    };
    let result = run.run();

    // Stats and device restoration happen whether or not the run errored,
    // so callers always get their machines back intact.
    let mut total = 0.0f64;
    for ws in run.ws.iter_mut() {
        ws.set.sync_all(&mut ws.machine.host);
        total = total.max(ws.machine.host.now());
    }
    let mut per_dev = vec![GpuUtilization::default(); ndev];
    let mut agg = GpuUtilization::default();
    let mut peer = 0usize;
    for wsi in run.ws.iter() {
        for (lane, &d) in wsi.devs.iter().enumerate() {
            let u = wsi.set.device(lane).utilization(total);
            agg.merge(&u);
            per_dev[d] = u;
        }
        peer += wsi.set.peer_bytes();
    }
    let MgRun { slab, mut stats, ws: mut workers, peak, .. } = run;
    stats.peak_front_bytes = peak * T::BYTES;
    stats.total_time = total;
    stats.gpu = Some(agg);
    stats.gpu_devices = per_dev;
    stats.peer_bytes = peer;
    stats.wall_time = wall0.elapsed().as_secs_f64();
    for w in workers.iter_mut() {
        debug_assert!(w.machine.gpu.is_none());
        w.machine.gpu = Some(w.set.take(0));
    }
    drop(workers);
    result?;
    Ok((CholeskyFactor { symbolic: symbolic.clone(), perm: perm.clone(), slab }, stats))
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
        let total_work: f64 =
            (0..nsn).map(|sn| symbolic.supernodes[sn].flops().total().max(1.0)).sum();
        for ndev in [1usize, 2, 3, 4, 8] {
            let map = proportional_map(symbolic, ndev);
            assert_eq!(map.device_of.len(), nsn);
            assert!(map.device_of.iter().all(|&d| d < ndev));
            assert_eq!(map.load.len(), ndev);
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
            // Load accounting covers the whole forest.
            let mapped: f64 = map.load.iter().sum();
            assert!((mapped - total_work).abs() < 1e-6 * total_work.max(1.0));
            if ndev == 1 {
                assert_eq!(map.issue_order, symbolic.postorder, "1 device ⇒ pure postorder");
            } else {
                // Every device gets real work on this forest.
                assert!(map.load.iter().all(|&l| l > 0.0), "empty device: {:?}", map.load);
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
    fn multigpu_oom_fallbacks_match_drain_driver() {
        let analysis = grid_analysis(6, 6, 5);
        let a32: SymCsc<f32> = analysis.permuted.0.cast();
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
            factor_permuted(&a32, &analysis.symbolic, &analysis.perm, &mut machine, &opts).unwrap()
        };
        let (fd, sd) = run(MultiGpuOptions::default(), PipelineOptions::default());
        assert!(sd.oom_fallbacks > 0, "test needs OOM pressure to be meaningful");
        for ndev in [2usize, 4] {
            let (fm, sm) = run(MultiGpuOptions::devices(ndev), PipelineOptions::pipelined());
            assert_eq!(sm.oom_fallbacks, sd.oom_fallbacks, "{ndev}-device OOM decisions");
            assert_eq!(bits(&fd.slab), bits(&fm.slab), "{ndev}-device OOM bits");
        }
    }

    #[test]
    fn multigpu_indefinite_matrix_reports_same_column() {
        let mut t = Triplet::new(8);
        for i in 0..8 {
            t.push(i, i, if i == 5 { -3.0 } else { 4.0 });
            if i + 1 < 8 {
                t.push(i + 1, i, -1.0);
            }
        }
        let a = t.assemble();
        let analysis = analyze(&a, OrderingKind::Natural, None).unwrap();
        let mut machine = Machine::paper_node();
        let opts = FactorOptions {
            selector: PolicySelector::Fixed(PolicyKind::P4),
            pipeline: PipelineOptions::pipelined(),
            devices: MultiGpuOptions::devices(2),
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
        assert_eq!(err, FactorError::NotPositiveDefinite { column: 5 });
        assert!(machine.gpu.is_some(), "error path must restore the device");
    }
}
