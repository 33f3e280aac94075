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
//! This module is the multi-device *issuer* of the pipelined front lifecycle
//! of `crate::lane`: it owns the issue order (round-robin over per-device
//! postorder queues, so a front uploads to one device while another
//! device's kernels run), which lane a front runs on, the window over all
//! lanes, and the peer exports between lanes. One host timeline drives every
//! lane; lane `d` is device `d`. Above the frontier,
//! a front whose children were factored on *other* devices consumes their
//! packed `m × m` contribution blocks via [`DeviceSet::p2p`] peer copies —
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
//! slabs are **bitwise identical** to the serial, pipelined and parallel
//! drivers at every device count. The peer-copy path
//! changes only *simulated time*: the simulator's transfers are eager
//! memcpys, so reading the still-device-resident update block yields the
//! same bytes the download path would have produced (pinned by
//! `fu::tests::keep_update_path_is_bitwise_identical_to_download_path`).
//! Device-OOM retry first drains the device to the serial driver's
//! empty-device state (the lane's rule, plus the eviction of exports still
//! resident there), so P1-fallback decisions — the one place scheduling
//! could touch numerics — match the drain driver exactly.

use crate::factor::{fu_err_to_factor, pinned_pool, CholeskyFactor, FactorError, FactorOptions};
use crate::frontal::{charge_update_extract, Front};
use crate::fu::{FuContext, RemoteUpdate, S_COMPUTE, S_COPY};
use crate::lane::{FrontSink, FrontStore, Lane};
use crate::pinned_pool::PinnedPool;
use crate::policy::PolicyKind;
use crate::stats::FactorStats;
use mf_dense::Scalar;
use mf_gpusim::{CopyMode, DevMat, DeviceSet, Gpu, GpuUtilization, HostClock, Machine};
use mf_sparse::symbolic::SymbolicFactor;
use mf_sparse::{Permutation, SymCsc};
use std::collections::VecDeque;

/// Stream id for incoming peer copies on each device (S_COMPUTE and S_COPY
/// keep the single-device meanings).
const S_PEER: usize = 2;

/// Multi-device execution options, carried on
/// [`FactorOptions::devices`](crate::factor::FactorOptions::devices).
///
/// With `count > 1` on a GPU machine with pipelining enabled,
/// `factor_permuted` routes to the multi-GPU driver (and
/// `factor_permuted_parallel` hands the run to `factor_permuted` on its first
/// GPU machine): the machine's device becomes device 0 of a [`DeviceSet`] of
/// `count` identically-configured devices fed from its host timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiGpuOptions {
    /// Number of simulated devices. `1` (the default) keeps the
    /// single-device drivers.
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

/// Fronts the host keeps in flight over all devices before it waits for the
/// oldest (never fewer than there are devices, so every device can hold
/// work). At 2 and 4 devices on plate 120², cube 16³ and elasticity 10³ (f32,
/// fixed P2/P3/P4 and the baseline hybrid) windows of 2, 4 and 16 land within
/// 3 % of 8 with no consistent sign.
const LOOK_AHEAD: usize = 8;

/// Consume cross-device child updates by peer copy rather than through the
/// host — one transfer in place of a d2h, a host extend-add and an h2d. On
/// those runs host staging alone is 0–4 % slower and never faster. It
/// remains the fallback where a peer copy cannot serve: a P1 parent, a
/// landing buffer that does not fit, an OOM retry on the producing device
/// ([`evict`]).
const PEER_EXTEND_ADD: bool = true;

/// What a lane of the multi-GPU run delivers into: the shared front store,
/// plus the update blocks left device-resident for a peer-copy extend-add.
struct MgSink<'r, 'a, T> {
    store: &'r mut FrontStore<'a, T>,
    exports: &'r mut [Option<RemoteUpdate>],
    order: &'r mut VecDeque<usize>,
    /// Owning device of each supernode, and the device this lane drives.
    device_of: &'r [usize],
    dev: usize,
}

impl<T: Scalar> FrontSink<T> for MgSink<'_, '_, T> {
    fn deliver(&mut self, sn: usize, front: &Front<'_, T>, remote: Option<RemoteUpdate>) {
        self.store.deliver(sn, front, None);
        self.exports[sn] = remote;
        self.order.push_back(sn);
    }

    /// Evict every export still resident on the lane's device, so an OOM
    /// retry sees the memory the serial drain driver would.
    fn device_drained(&mut self, ctx: &mut FuContext<'_>) {
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
    gpu.d2h(copy, ru.view, ru.m, ru.m, dst, ru.m, true, CopyMode::Async, ctx.host);
    let ev = gpu.record_event(copy);
    ctx.pool.retire(slot, ev.0, ctx.host);
    let _ = gpu.free(ru.buf);
    charge_update_extract::<T>(ru.m, ctx.host);
}

/// Whole-run state of the multi-GPU issuer: one host timeline, one [`Lane`]
/// per device of `set` (lane `d` drives device `d`), the issue order and the
/// peer exports between lanes. The lifecycle of each front is
/// [`crate::lane`]'s.
struct MgRun<'a, 'm, T> {
    a: &'a SymCsc<T>,
    symbolic: &'a SymbolicFactor,
    opts: &'a FactorOptions,
    map: DeviceMap,
    host: &'m mut HostClock,
    set: DeviceSet,
    pool: PinnedPool,
    lanes: Vec<Lane<T>>,
    /// Supernodes in the order their fronts went in flight on any lane —
    /// the FIFO behind the look-ahead window. Entries already finished (a
    /// parent consumed them) are skipped when popped.
    order: VecDeque<usize>,
    /// Slab and host-side packed updates (always produced — the
    /// authoritative numerics).
    store: FrontStore<'a, T>,
    /// Device-resident update blocks awaiting a peer-copy extend-add.
    exports: Vec<Option<RemoteUpdate>>,
    oom_fallbacks: usize,
}

impl<'a, T: Scalar> MgRun<'a, '_, T> {
    /// Run `f` on lane `lane` against the host clock and device `lane`.
    fn on_lane<R>(
        &mut self,
        lane: usize,
        f: impl FnOnce(&mut Lane<T>, &mut FuContext<'_>, &mut MgSink<'_, 'a, T>) -> R,
    ) -> R {
        let mut sink = MgSink {
            store: &mut self.store,
            exports: &mut self.exports,
            order: &mut self.order,
            device_of: &self.map.device_of,
            dev: lane,
        };
        let mut ctx = FuContext {
            host: self.host,
            gpu: Some(self.set.device_mut(lane)),
            pool: &mut self.pool,
            copy_optimized: self.opts.copy_optimized,
            timing_only: false,
            kernel_threads: None,
        };
        f(&mut self.lanes[lane], &mut ctx, &mut sink)
    }

    fn run(&mut self) -> Result<(), FactorError> {
        let order = self.map.issue_order.clone();
        let issued = order.into_iter().try_for_each(|sn| self.step(sn));
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
                    let _ = self.set.device_mut(self.map.device_of[c]).free(ru.buf);
                }
            }
        }
        debug_assert!(
            self.exports.iter().all(Option::is_none),
            "every exported update must be consumed by its parent"
        );
        issued
    }

    fn step(&mut self, sn: usize) -> Result<(), FactorError> {
        let info = &self.symbolic.supernodes[sn];
        let (s, k, m) = (info.front_size(), info.k(), info.m());
        let lane = self.map.device_of[sn];
        self.ready_children(sn);
        let buf = self.store.assemble(self.a, sn, self.host);
        let policy = self.opts.selector.choose(sn, m, k);
        self.consume_child_exports(sn, lane, policy);
        // Structure and selector alone decide it, so it is known before the
        // dispatch; a front that leaves nothing on the device ignores it.
        let keep_update = self.exports_update(sn);
        let outcome = self
            .on_lane(lane, |l, ctx, sink| {
                l.run_staged((sn, s, k, buf), policy, keep_update, ctx, sink)
            })
            .map_err(|e| fu_err_to_factor(info.col_start, e))?;
        self.oom_fallbacks += usize::from(outcome.oom_fallback);
        self.trim_window(LOOK_AHEAD.max(self.lanes.len()));
        Ok(())
    }

    /// Whether `sn`'s update block stays on its device for its parent to
    /// peer-copy: the parent lives on another device and will itself run on
    /// the GPU.
    fn exports_update(&self, sn: usize) -> bool {
        let info = &self.symbolic.supernodes[sn];
        let parent = info.parent;
        PEER_EXTEND_ADD && info.m() > 0 && parent != usize::MAX && {
            let pi = &self.symbolic.supernodes[parent];
            self.map.device_of[parent] != self.map.device_of[sn]
                && self.opts.selector.choose(parent, pi.m(), pi.k()) != PolicyKind::P1
        }
    }

    /// Make `sn`'s child updates consumable. Children staged anywhere flush
    /// (producing their update data and, cross-device, their exports). A
    /// non-exported in-flight child costs a host *event wait*; an exported
    /// child costs nothing here — its ordering flows through the peer-copy
    /// event on the consumer device, which is exactly the cross-device
    /// look-ahead.
    fn ready_children(&mut self, sn: usize) {
        for &c in self.symbolic.children(sn) {
            self.on_lane(self.map.device_of[c], |l, ctx, sink| {
                l.flush_if_holds(|x| x == c, ctx, sink);
                if sink.exports[c].is_none() {
                    l.finish_holding(|x| x == c, ctx);
                }
            });
        }
    }

    /// Peer-copy every exported child update onto `sn`'s device: an `m × m`
    /// landing buffer, a [`DeviceSet::p2p`] gated on the producer's ready
    /// event, and a compute-stream wait so `sn`'s kernels observe the
    /// scattered update. Falls back to host staging when the parent runs on
    /// the CPU or the landing allocation does not fit. Data-wise this is a
    /// no-op — the host already holds the authoritative update — so only
    /// the simulated timeline moves.
    fn consume_child_exports(&mut self, sn: usize, lane: usize, policy: PolicyKind) {
        for &c in self.symbolic.children(sn) {
            let Some(ru) = self.exports[c].take() else { continue };
            let clane = self.map.device_of[c];
            let set = &mut self.set;
            let landing = if policy == PolicyKind::P1 {
                None
            } else {
                set.device_mut(lane).alloc(ru.m * ru.m).ok()
            };
            let Some(dst) = landing else {
                self.on_lane(clane, |_, ctx, _| evict::<T>(ru, ctx));
                continue;
            };
            let dst_stream = set.device_mut(lane).stream(S_PEER);
            let dst_view = DevMat::whole(dst, ru.m);
            let ev = set
                .p2p(clane, ru.view, lane, dst_stream, dst_view, ru.m, ru.m, ru.ready, self.host);
            let cs = set.device_mut(lane).stream(S_COMPUTE);
            set.device_mut(lane).wait_event(cs, ev);
            // The copy's timing is scheduled; the allocator is timeless, so
            // free both endpoints now — `sn`'s own dispatch must see the
            // same free memory the serial drain driver would.
            let _ = set.device_mut(lane).free(dst);
            let _ = set.device_mut(clane).free(ru.buf);
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

/// The multi-GPU driver [`crate::factor::factor_permuted`] routes to when
/// `devices.count > 1` with pipelining enabled on a GPU machine (the parallel
/// entry hands such runs to it too). The machine's own device becomes device
/// 0 of a [`DeviceSet`] of `count` identical devices, all fed from the
/// machine's host timeline, and moves back when the run ends, error or not.
/// Factor slabs are bitwise identical to the serial driver at every device
/// count (see the module docs).
pub(crate) fn factor_permuted_multigpu<T: Scalar>(
    a: &SymCsc<T>,
    symbolic: &SymbolicFactor,
    perm: &Permutation,
    machine: &mut Machine,
    opts: &FactorOptions,
) -> Result<(CholeskyFactor<T>, FactorStats), FactorError> {
    let ndev = opts.devices.count.max(1);
    let wall0 = std::time::Instant::now();
    let own = machine.gpu.take().expect("multi-GPU factorization needs a GPU machine");
    let cfg = own.config().clone();
    let mut gpus = vec![own];
    gpus.resize_with(ndev, || Gpu::new(cfg.clone()));

    let mut run = MgRun {
        a,
        symbolic,
        opts,
        map: proportional_map(symbolic, ndev),
        host: &mut machine.host,
        set: DeviceSet::from_gpus(gpus),
        pool: pinned_pool(opts),
        lanes: (0..ndev).map(|_| Lane::new()).collect(),
        order: VecDeque::new(),
        store: FrontStore::new(symbolic, false),
        exports: vec![None; symbolic.num_supernodes()],
        oom_fallbacks: 0,
    };
    let result = run.run();

    // Stats and the device's way back happen whether or not the run errored,
    // so callers always get their machine back intact.
    run.set.sync_all(run.host);
    let total = run.host.now();
    let per_dev: Vec<GpuUtilization> =
        (0..ndev).map(|d| run.set.device(d).utilization(total)).collect();
    let mut agg = GpuUtilization::default();
    for u in &per_dev {
        agg.merge(u);
    }
    let peer_bytes = run.set.peer_bytes();
    machine.gpu = Some(run.set.take(0));
    result?;
    let stats = FactorStats {
        oom_fallbacks: run.oom_fallbacks,
        front_alloc_events: run.store.allocs,
        peak_front_bytes: run.store.peak_bytes(),
        total_time: total,
        gpu: Some(agg),
        gpu_devices: per_dev,
        peer_bytes,
        wall_time: wall0.elapsed().as_secs_f64(),
        ..Default::default()
    };
    Ok((
        CholeskyFactor { symbolic: symbolic.clone(), perm: perm.clone(), slab: run.store.slab },
        stats,
    ))
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
