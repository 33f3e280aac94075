//! The simulated GPU device.
//!
//! Models the execution semantics that the paper's policies exploit:
//!
//! * **in-order streams** — operations on one stream serialise,
//! * **engine overlap** — the compute engine and the (single) copy engine
//!   run concurrently, so asynchronous copies overlap kernels (§V-A2),
//! * **asynchronous issue** — the host pays only a small issue cost and
//!   blocks at explicit synchronisation points (pageable copies are
//!   synchronous, as in CUDA),
//! * **device memory limits** — allocation fails beyond the configured
//!   capacity (4 GB on the T10).
//!
//! Numerics are computed **for real in f32** via `mf-dense` the moment an
//! operation is enqueued; only *time* is simulated. This is valid as long
//! as the caller orders dependent operations program-order on streams —
//! exactly the discipline a correct CUDA program follows.

use crate::calib::{exact_ops, GpuConfig, KernelKind};
use crate::host::HostClock;
use crate::memory::{DevBuf, DevMat, DeviceMemory, DeviceOom, InvalidBuffer};
use crate::profile::{Component, GpuUtilization, ProfileRecord};
use mf_dense::potrf_unblocked;
use mf_dense::{gemm, syrk_lower, trsm_right_lower_trans, Transpose};

/// Handle to an in-order command stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stream(usize);

/// A recorded event: the stream-tail time at recording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event(pub f64);

/// Transfer mode for copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyMode {
    /// Host blocks until the transfer completes (pageable memory).
    Sync,
    /// Host continues immediately (requires pinned memory in CUDA; here the
    /// caller asserts pinned-ness via the `pinned` flag).
    Async,
}

/// The simulated device.
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    mem: DeviceMemory,
    streams: Vec<f64>,
    compute_free: f64,
    copy_free: f64,
    /// Accumulated busy time of the compute engine since the last clock
    /// reset (Σ kernel durations — the engine never overlaps with itself).
    compute_busy: f64,
    /// Accumulated busy time of the single copy engine.
    copy_busy: f64,
    /// Time at which the dedicated peer (d2d) engine frees up. Peer copies
    /// serialise on this engine on *both* endpoint devices, independently of
    /// the PCIe copy engine — a p2p transfer overlaps h2d/d2h traffic.
    peer_free: f64,
    /// Accumulated busy time of the peer engine.
    peer_busy: f64,
    /// Bytes received over the peer link (accounted on the destination).
    peer_bytes: usize,
    /// Accumulated busy time charged through each stream (kernels + copies
    /// issued on it), indexed like `streams`.
    stream_busy: Vec<f64>,
    records: Vec<ProfileRecord>,
    recording: bool,
}

impl Gpu {
    /// A fresh device with one default stream (stream 0).
    pub fn new(cfg: GpuConfig) -> Self {
        let mem = DeviceMemory::new(cfg.mem_bytes);
        Gpu {
            cfg,
            mem,
            streams: vec![0.0],
            compute_free: 0.0,
            copy_free: 0.0,
            compute_busy: 0.0,
            copy_busy: 0.0,
            peer_free: 0.0,
            peer_busy: 0.0,
            peer_bytes: 0,
            stream_busy: vec![0.0],
            records: Vec::new(),
            recording: false,
        }
    }

    /// Device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The default stream.
    pub fn default_stream(&self) -> Stream {
        Stream(0)
    }

    /// Create an additional stream.
    pub fn create_stream(&mut self) -> Stream {
        self.streams.push(0.0);
        self.stream_busy.push(0.0);
        Stream(self.streams.len() - 1)
    }

    /// Get stream `idx`, creating intermediate streams as needed (so callers
    /// can use stable stream ids across many operations without leaking a
    /// new stream per call).
    pub fn stream(&mut self, idx: usize) -> Stream {
        while self.streams.len() <= idx {
            self.streams.push(0.0);
            self.stream_busy.push(0.0);
        }
        Stream(idx)
    }

    /// Enable/disable profiling.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Enable/disable virtual (timing-only) mode: allocations track bytes
    /// without backing storage and kernels/copies charge time without
    /// touching data. Used to estimate policy times on fronts far too large
    /// to compute for real (the paper's Figure 12/13/14 maps go to
    /// m = k = 10000).
    pub fn set_virtual(&mut self, on: bool) {
        self.mem.virtual_mode = on;
    }

    /// Is the device in virtual (timing-only) mode?
    pub fn is_virtual(&self) -> bool {
        self.mem.virtual_mode
    }

    /// Drain profile records.
    pub fn take_records(&mut self) -> Vec<ProfileRecord> {
        std::mem::take(&mut self.records)
    }

    /// Bytes currently allocated on the device.
    pub fn mem_used(&self) -> usize {
        self.mem.used()
    }

    /// Device memory capacity in bytes.
    pub fn mem_capacity(&self) -> usize {
        self.mem.capacity()
    }

    /// Length (elements) of an allocated buffer.
    pub fn buf_len(&self, buf: crate::memory::DevBuf) -> Result<usize, InvalidBuffer> {
        self.mem.len(buf)
    }

    /// Allocate a device buffer of `len` f32 elements (zero-initialised).
    pub fn alloc(&mut self, len: usize) -> Result<DevBuf, DeviceOom> {
        self.mem.alloc(len)
    }

    /// Free a device buffer. Double frees and stale handles are reported as
    /// [`InvalidBuffer`] rather than aborting the simulation.
    pub fn free(&mut self, buf: DevBuf) -> Result<(), InvalidBuffer> {
        self.mem.free(buf)
    }

    /// Read device data (test/debug helper — performs no timing).
    pub fn peek(&self, buf: DevBuf) -> Result<&[f32], InvalidBuffer> {
        self.mem.get(buf)
    }

    /// Record an event on `stream`.
    pub fn record_event(&self, stream: Stream) -> Event {
        Event(self.streams[stream.0])
    }

    /// Make `stream` wait for `event`.
    pub fn wait_event(&mut self, stream: Stream, event: Event) {
        let tail = &mut self.streams[stream.0];
        if event.0 > *tail {
            *tail = event.0;
        }
    }

    /// Non-blocking event query: has `event` completed by host time `at`?
    /// Advances nothing — the pipelined dispatch layer uses this to decide
    /// whether a staging generation can be recycled without stalling.
    pub fn event_query(&self, event: Event, at: f64) -> bool {
        event.0 <= at
    }

    /// Block the host until `event` completes — a targeted wait on one
    /// dependency, unlike [`Self::sync_all`] which drains every engine.
    /// This is the primitive that lets a parent front's extend-add wait on
    /// exactly its child's d2h completion.
    pub fn wait_event_host(&self, event: Event, host: &mut HostClock) {
        host.sync_to(event.0);
    }

    /// Block the host until the whole device drains.
    pub fn sync_all(&mut self, host: &mut HostClock) {
        let t = self.streams.iter().fold(0.0f64, |a, &b| a.max(b));
        host.sync_to(t.max(self.compute_free).max(self.copy_free).max(self.peer_free));
    }

    /// Completion time of the latest work on `stream` (for schedulers).
    pub fn stream_tail(&self, stream: Stream) -> f64 {
        self.streams[stream.0]
    }

    /// Accumulated compute-engine busy time since the last clock reset.
    pub fn compute_busy(&self) -> f64 {
        self.compute_busy
    }

    /// Accumulated copy-engine busy time since the last clock reset.
    pub fn copy_busy(&self) -> f64 {
        self.copy_busy
    }

    /// Accumulated peer-engine busy time since the last clock reset.
    pub fn peer_busy(&self) -> f64 {
        self.peer_busy
    }

    /// Bytes received over the peer link since the last clock reset.
    pub fn peer_bytes(&self) -> usize {
        self.peer_bytes
    }

    /// Accumulated busy time of work issued on `stream`.
    pub fn stream_busy(&self, stream: Stream) -> f64 {
        self.stream_busy[stream.0]
    }

    /// Engine busy/idle accounting over a span of `span` simulated seconds
    /// (typically the run's makespan).
    pub fn utilization(&self, span: f64) -> GpuUtilization {
        GpuUtilization { compute_busy: self.compute_busy, copy_busy: self.copy_busy, span, gpus: 1 }
    }

    // ----- transfers ------------------------------------------------------

    /// Copy a `rows × cols` column-major block from host `src` (leading
    /// dimension `src_ld`) into the device view `dst`.
    #[allow(clippy::too_many_arguments)]
    pub fn h2d(
        &mut self,
        stream: Stream,
        dst: DevMat,
        rows: usize,
        cols: usize,
        src: &[f32],
        src_ld: usize,
        pinned: bool,
        mode: CopyMode,
        host: &mut HostClock,
    ) {
        // Data moves now (eager numerics); skipped entirely in virtual mode.
        // An invalid handle skips the data movement (debug builds assert) but
        // still charges the simulated transfer time so clocks stay plausible.
        if !self.mem.virtual_mode {
            match self.mem.get_mut(dst.buf) {
                Ok(data) => {
                    for j in 0..cols {
                        let s = &src[j * src_ld..j * src_ld + rows];
                        let doff = dst.off + j * dst.ld;
                        data[doff..doff + rows].copy_from_slice(s);
                    }
                }
                Err(e) => debug_assert!(false, "h2d: {e}"),
            }
        }
        self.schedule_copy(stream, rows * cols * 4, pinned, mode, Component::CopyH2D, host);
    }

    /// Copy a `rows × cols` block from the device view `src` into host `dst`
    /// (leading dimension `dst_ld`).
    #[allow(clippy::too_many_arguments)]
    pub fn d2h(
        &mut self,
        stream: Stream,
        src: DevMat,
        rows: usize,
        cols: usize,
        dst: &mut [f32],
        dst_ld: usize,
        pinned: bool,
        mode: CopyMode,
        host: &mut HostClock,
    ) {
        if !self.mem.virtual_mode {
            match self.mem.get(src.buf) {
                Ok(data) => {
                    for j in 0..cols {
                        let soff = src.off + j * src.ld;
                        dst[j * dst_ld..j * dst_ld + rows]
                            .copy_from_slice(&data[soff..soff + rows]);
                    }
                }
                Err(e) => debug_assert!(false, "d2h: {e}"),
            }
        }
        self.schedule_copy(stream, rows * cols * 4, pinned, mode, Component::CopyD2H, host);
    }

    fn schedule_copy(
        &mut self,
        stream: Stream,
        bytes: usize,
        pinned: bool,
        mode: CopyMode,
        component: Component,
        host: &mut HostClock,
    ) {
        let dur = self.cfg.pcie.time(bytes, pinned);
        let start = host.now().max(self.streams[stream.0]).max(self.copy_free);
        let end = start + dur;
        self.streams[stream.0] = end;
        self.copy_free = end;
        self.copy_busy += dur;
        self.stream_busy[stream.0] += dur;
        match mode {
            CopyMode::Sync => host.sync_to(end),
            CopyMode::Async => host.charge_issue(),
        }
        if self.recording {
            self.records.push(ProfileRecord { component, ops: 0.0, bytes, start, end });
        }
    }

    // ----- kernels --------------------------------------------------------

    /// Pack a `rows × cols` region of a device view into a dense scratch
    /// vector (simulation-internal; carries no simulated cost).
    fn pack(&self, m: DevMat, rows: usize, cols: usize) -> Result<Vec<f32>, InvalidBuffer> {
        let data = self.mem.get(m.buf)?;
        let mut out = vec![0.0f32; rows * cols];
        for j in 0..cols {
            let off = m.off + j * m.ld;
            out[j * rows..(j + 1) * rows].copy_from_slice(&data[off..off + rows]);
        }
        Ok(out)
    }

    fn schedule_kernel(
        &mut self,
        stream: Stream,
        kind: KernelKind,
        m: usize,
        n: usize,
        k: usize,
        host: &mut HostClock,
    ) {
        let eff = self.cfg.effective_ops(kind, m, n, k);
        let dur = self.cfg.kernels.curve(kind).time(eff);
        let start = host.now().max(self.streams[stream.0]).max(self.compute_free);
        let end = start + dur;
        self.streams[stream.0] = end;
        self.compute_free = end;
        self.compute_busy += dur;
        self.stream_busy[stream.0] += dur;
        host.charge_issue();
        if self.recording {
            self.records.push(ProfileRecord {
                component: Component::GpuKernel(kind),
                ops: exact_ops(kind, m, n, k),
                bytes: 0,
                start,
                end,
            });
        }
    }

    /// CUBLAS-like `strsm` (right, lower, transposed, non-unit): solve
    /// `X·Lᵀ = B` where `l` is the `k × k` lower factor and `b` is `m × k`,
    /// overwritten by `X`.
    pub fn trsm(
        &mut self,
        stream: Stream,
        l: DevMat,
        k: usize,
        b: DevMat,
        m: usize,
        host: &mut HostClock,
    ) {
        if !self.mem.virtual_mode {
            let res = self.pack(l, k, k).and_then(|lpack| {
                let data = self.mem.get_mut(b.buf)?;
                trsm_right_lower_trans(m, k, &lpack, k, &mut data[b.off..], b.ld);
                Ok(())
            });
            debug_assert!(res.is_ok(), "trsm: {:?}", res.err());
        }
        self.schedule_kernel(stream, KernelKind::Trsm, m, 0, k, host);
    }

    /// CUBLAS-like `ssyrk` (lower, no-trans, α = −1, β = 1):
    /// `C ← C − A·Aᵀ` with `a` `n × k` and `c` `n × n` (lower).
    pub fn syrk(
        &mut self,
        stream: Stream,
        a: DevMat,
        c: DevMat,
        n: usize,
        k: usize,
        host: &mut HostClock,
    ) {
        if !self.mem.virtual_mode {
            let res = self.pack(a, n, k).and_then(|apack| {
                let data = self.mem.get_mut(c.buf)?;
                syrk_lower(n, k, -1.0f32, &apack, n, 1.0, &mut data[c.off..], c.ld);
                Ok(())
            });
            debug_assert!(res.is_ok(), "syrk: {:?}", res.err());
        }
        self.schedule_kernel(stream, KernelKind::Syrk, 0, n, k, host);
    }

    /// CUBLAS-like `sgemm` (`C ← C − A·Bᵀ`): `a` is `m × k`, `b` is `n × k`,
    /// `c` is `m × n`.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_nt(
        &mut self,
        stream: Stream,
        a: DevMat,
        b: DevMat,
        c: DevMat,
        m: usize,
        n: usize,
        k: usize,
        host: &mut HostClock,
    ) {
        if !self.mem.virtual_mode {
            let res = self.pack(a, m, k).and_then(|apack| {
                let bpack = self.pack(b, n, k)?;
                let data = self.mem.get_mut(c.buf)?;
                gemm(
                    Transpose::No,
                    Transpose::Yes,
                    m,
                    n,
                    k,
                    -1.0f32,
                    &apack,
                    m,
                    &bpack,
                    n,
                    1.0,
                    &mut data[c.off..],
                    c.ld,
                );
                Ok(())
            });
            debug_assert!(res.is_ok(), "gemm_nt: {:?}", res.err());
        }
        self.schedule_kernel(stream, KernelKind::Gemm, m, n, k, host);
    }

    /// The lightweight on-device `w × w` Cholesky kernel of §V-A1.
    /// Returns the failing column on a non-positive pivot.
    pub fn panel_potrf(
        &mut self,
        stream: Stream,
        a: DevMat,
        n: usize,
        host: &mut HostClock,
    ) -> Result<(), usize> {
        let res = if self.mem.virtual_mode {
            Ok(())
        } else {
            match self.mem.get_mut(a.buf) {
                Ok(data) => potrf_unblocked(n, &mut data[a.off..], a.ld),
                Err(e) => {
                    debug_assert!(false, "panel_potrf: {e}");
                    Ok(())
                }
            }
        };
        self.schedule_kernel(stream, KernelKind::PanelPotrf, 0, n, 0, host);
        res.map_err(|e| e.column)
    }

    /// Reset all timelines to zero (memory contents and allocations kept).
    pub fn reset_clock(&mut self) {
        for s in &mut self.streams {
            *s = 0.0;
        }
        for b in &mut self.stream_busy {
            *b = 0.0;
        }
        self.compute_free = 0.0;
        self.copy_free = 0.0;
        self.compute_busy = 0.0;
        self.copy_busy = 0.0;
        self.peer_free = 0.0;
        self.peer_busy = 0.0;
        self.peer_bytes = 0;
        self.records.clear();
    }

    /// Peer (device-to-device) copy: move a `rows × cols` column-major block
    /// from `src_view` on `src` into `dst_view` on `dst` over the p2p link.
    ///
    /// Event-chained exactly like `h2d`/`d2h`: the transfer starts no
    /// earlier than `wait` (an event recorded on *any* device — events carry
    /// absolute simulated time, so cross-device waits compose), no earlier
    /// than either endpoint's peer engine frees up, and no earlier than the
    /// tail of the destination stream it is issued on. The destination
    /// stream's tail advances to the completion time, so later work issued
    /// there observes the copied data; the returned event marks completion
    /// and is forward-only (`≥ wait`).
    ///
    /// Data moves eagerly (a straight memcpy of what the source buffer holds
    /// now), matching the simulator's eager-numerics discipline; only time
    /// is scheduled. Traffic is accounted on the destination device.
    #[allow(clippy::too_many_arguments)]
    pub fn p2p(
        src: &mut Gpu,
        src_view: DevMat,
        dst: &mut Gpu,
        dst_stream: Stream,
        dst_view: DevMat,
        rows: usize,
        cols: usize,
        wait: Event,
        host: &mut HostClock,
    ) -> Event {
        if !src.mem.virtual_mode && !dst.mem.virtual_mode {
            let res = src.pack(src_view, rows, cols).and_then(|block| {
                let data = dst.mem.get_mut(dst_view.buf)?;
                for j in 0..cols {
                    let doff = dst_view.off + j * dst_view.ld;
                    data[doff..doff + rows].copy_from_slice(&block[j * rows..(j + 1) * rows]);
                }
                Ok(())
            });
            debug_assert!(res.is_ok(), "p2p: {:?}", res.err());
        }
        let bytes = rows * cols * 4;
        let bw = src.cfg.p2p_bw.min(dst.cfg.p2p_bw);
        let latency = src.cfg.pcie.latency.max(dst.cfg.pcie.latency);
        let dur = latency + bytes as f64 / bw;
        let start = host
            .now()
            .max(wait.0)
            .max(src.peer_free)
            .max(dst.peer_free)
            .max(dst.streams[dst_stream.0]);
        let end = start + dur;
        dst.streams[dst_stream.0] = end;
        dst.stream_busy[dst_stream.0] += dur;
        src.peer_free = end;
        dst.peer_free = end;
        src.peer_busy += dur;
        dst.peer_busy += dur;
        dst.peer_bytes += bytes;
        host.charge_issue();
        if dst.recording {
            dst.records.push(ProfileRecord {
                component: Component::CopyP2P,
                ops: 0.0,
                bytes,
                start,
                end,
            });
        }
        Event(end)
    }
}

/// A set of simulated devices sharing one host timeline — the multi-GPU
/// node. Devices keep fully independent clocks, streams and memories;
/// cross-device ordering flows only through events (absolute simulated
/// times, so a wait on a remote event is just a `max`) and through the
/// [`Gpu::p2p`] peer-copy primitive.
///
/// Slots are `Option<Gpu>` so a driver can [`DeviceSet::take`] a device back
/// out of the set — the multi-GPU driver returns the machine's own device
/// this way when its run ends.
#[derive(Debug)]
pub struct DeviceSet {
    gpus: Vec<Option<Gpu>>,
}

impl DeviceSet {
    /// `n` fresh devices of the same configuration.
    pub fn uniform(cfg: GpuConfig, n: usize) -> Self {
        DeviceSet { gpus: (0..n).map(|_| Some(Gpu::new(cfg.clone()))).collect() }
    }

    /// Wrap existing devices (device 0 keeps its clocks and memory — the
    /// multi-GPU driver promotes the machine's device this way).
    pub fn from_gpus(gpus: Vec<Gpu>) -> Self {
        DeviceSet { gpus: gpus.into_iter().map(Some).collect() }
    }

    /// Number of device slots (taken or not).
    pub fn len(&self) -> usize {
        self.gpus.len()
    }

    /// Whether the set has no devices.
    pub fn is_empty(&self) -> bool {
        self.gpus.is_empty()
    }

    /// Shared access to device `i`. Panics if `i` is out of range or taken.
    pub fn device(&self, i: usize) -> &Gpu {
        self.gpus[i].as_ref().expect("device taken out of the set")
    }

    /// Exclusive access to device `i`. Panics if out of range or taken.
    pub fn device_mut(&mut self, i: usize) -> &mut Gpu {
        self.gpus[i].as_mut().expect("device taken out of the set")
    }

    /// Move device `i` out of the set. Panics if already taken.
    pub fn take(&mut self, i: usize) -> Gpu {
        self.gpus[i].take().expect("device already taken")
    }

    /// Split-borrow two distinct devices at once.
    pub fn pair_mut(&mut self, a: usize, b: usize) -> (&mut Gpu, &mut Gpu) {
        assert_ne!(a, b, "pair_mut needs two distinct devices");
        let (lo, hi) = (a.min(b), a.max(b));
        let (left, right) = self.gpus.split_at_mut(hi);
        let l = left[lo].as_mut().expect("device taken out of the set");
        let r = right[0].as_mut().expect("device taken out of the set");
        if a < b {
            (l, r)
        } else {
            (r, l)
        }
    }

    /// Peer copy between two devices of the set (see [`Gpu::p2p`]).
    #[allow(clippy::too_many_arguments)]
    pub fn p2p(
        &mut self,
        src: usize,
        src_view: DevMat,
        dst: usize,
        dst_stream: Stream,
        dst_view: DevMat,
        rows: usize,
        cols: usize,
        wait: Event,
        host: &mut HostClock,
    ) -> Event {
        let (s, d) = self.pair_mut(src, dst);
        Gpu::p2p(s, src_view, d, dst_stream, dst_view, rows, cols, wait, host)
    }

    /// Block the host until every present device drains.
    pub fn sync_all(&mut self, host: &mut HostClock) {
        for g in self.gpus.iter_mut().flatten() {
            g.sync_all(host);
        }
    }

    /// Total bytes moved over peer links (summed over receiving devices).
    pub fn peer_bytes(&self) -> usize {
        self.gpus.iter().flatten().map(|g| g.peer_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{tesla_t10, xeon_5160_core};

    fn setup() -> (Gpu, HostClock) {
        (Gpu::new(tesla_t10()), HostClock::new(xeon_5160_core()))
    }

    #[test]
    fn h2d_d2h_roundtrip_with_strides() {
        let (mut gpu, mut host) = setup();
        let buf = gpu.alloc(100).unwrap();
        let s0 = gpu.default_stream();
        // 3×2 block into a ld=10 device view at offset 4.
        let src: Vec<f32> = vec![1., 2., 3., 4., 5., 6.];
        let dst_view = DevMat { buf, off: 4, ld: 10 };
        gpu.h2d(s0, dst_view, 3, 2, &src, 3, false, CopyMode::Sync, &mut host);
        let mut back = vec![0.0f32; 8];
        gpu.d2h(s0, dst_view, 3, 2, &mut back, 4, false, CopyMode::Sync, &mut host);
        assert_eq!(&back[0..3], &[1., 2., 3.]);
        assert_eq!(&back[4..7], &[4., 5., 6.]);
        assert!(host.now() > 0.0, "sync copies must cost time");
    }

    #[test]
    fn kernels_compute_correct_f32_math() {
        // Factor an SPD matrix entirely with device kernels and compare to
        // the host result: panel potrf + trsm + syrk on device views.
        let (mut gpu, mut host) = setup();
        let n = 24;
        let k = 8;
        let m = n - k;
        let a0 = mf_dense::matrix::random_spd::<f32>(n, 5);
        let buf = gpu.alloc(n * n).unwrap();
        let s0 = gpu.default_stream();
        let full = DevMat::whole(buf, n);
        gpu.h2d(s0, full, n, n, a0.as_slice(), n, false, CopyMode::Sync, &mut host);
        // Device-side blocked step.
        gpu.panel_potrf(s0, full, k, &mut host).unwrap();
        gpu.trsm(s0, full, k, full.offset(k, 0), m, &mut host);
        gpu.syrk(s0, full.offset(k, 0), full.offset(k, k), m, k, &mut host);
        gpu.sync_all(&mut host);
        // Host reference: one blocked step of potrf.
        let mut href = a0.clone();
        {
            let hs = href.as_mut_slice();
            potrf_unblocked(k, hs, n).unwrap();
            let diag: Vec<f32> = (0..k * k)
                .map(|i| {
                    let (r, c) = (i % k, i / k);
                    hs[r + c * n]
                })
                .collect();
            mf_dense::trsm_right_lower_trans(m, k, &diag, k, &mut hs[k..], n);
            let panel: Vec<f32> = (0..m * k)
                .map(|i| {
                    let (r, c) = (i % m, i / m);
                    hs[k + r + c * n]
                })
                .collect();
            mf_dense::syrk_lower(m, k, -1.0, &panel, m, 1.0, &mut hs[k + k * n..], n);
        }
        let dev = gpu.peek(buf).unwrap();
        for j in 0..n {
            for i in j..n {
                let d = dev[i + j * n];
                let h = href[(i, j)];
                assert!((d - h).abs() < 1e-4, "({i},{j}): dev {d} host {h}");
            }
        }
    }

    #[test]
    fn same_stream_serializes() {
        let (mut gpu, mut host) = setup();
        let buf = gpu.alloc(64 * 64).unwrap();
        let s0 = gpu.default_stream();
        let v = DevMat::whole(buf, 64);
        gpu.syrk(s0, v, v, 32, 16, &mut host);
        let t1 = gpu.stream_tail(s0);
        gpu.syrk(s0, v, v, 32, 16, &mut host);
        let t2 = gpu.stream_tail(s0);
        assert!(t2 > t1, "second kernel must start after the first");
    }

    #[test]
    fn copy_overlaps_compute_across_streams() {
        let (mut gpu, mut host) = setup();
        let s0 = gpu.default_stream();
        let s1 = gpu.create_stream();
        let buf = gpu.alloc(1 << 20).unwrap();
        let big = vec![0.5f32; 1 << 20];
        // Launch a long kernel on s0, then an async copy on s1: the copy
        // must start before the kernel ends (engines overlap).
        let v = DevMat::whole(buf, 1 << 10);
        gpu.set_recording(true);
        gpu.syrk(s0, v, v, 1 << 10, 512, &mut host);
        gpu.h2d(s1, v, 1 << 10, 512, &big, 1 << 10, true, CopyMode::Async, &mut host);
        gpu.sync_all(&mut host);
        let recs = gpu.take_records();
        assert_eq!(recs.len(), 2);
        let (kern, copy) = (&recs[0], &recs[1]);
        assert!(copy.start < kern.end, "copy should overlap the kernel");
    }

    #[test]
    fn two_copies_serialize_on_the_copy_engine() {
        let (mut gpu, mut host) = setup();
        let s0 = gpu.default_stream();
        let s1 = gpu.create_stream();
        let buf = gpu.alloc(1 << 18).unwrap();
        let data = vec![0.0f32; 1 << 18];
        gpu.set_recording(true);
        let v = DevMat::whole(buf, 1 << 9);
        gpu.h2d(s0, v, 1 << 9, 256, &data, 1 << 9, true, CopyMode::Async, &mut host);
        gpu.h2d(s1, v, 1 << 9, 256, &data, 1 << 9, true, CopyMode::Async, &mut host);
        let recs = gpu.take_records();
        assert!(recs[1].start >= recs[0].end - 1e-12, "single copy engine must serialise");
    }

    #[test]
    fn events_order_cross_stream_work() {
        let (mut gpu, mut host) = setup();
        let s0 = gpu.default_stream();
        let s1 = gpu.create_stream();
        let buf = gpu.alloc(4096).unwrap();
        let v = DevMat::whole(buf, 64);
        gpu.syrk(s0, v, v, 64, 32, &mut host);
        let ev = gpu.record_event(s0);
        gpu.wait_event(s1, ev);
        gpu.set_recording(true);
        gpu.syrk(s1, v, v, 8, 4, &mut host);
        let recs = gpu.take_records();
        assert!(recs[0].start >= ev.0 - 1e-12, "s1 kernel must wait for the event");
    }

    #[test]
    fn sync_copy_blocks_host_async_does_not() {
        let (mut gpu, mut host) = setup();
        let s0 = gpu.default_stream();
        let buf = gpu.alloc(1 << 20).unwrap();
        let data = vec![0.0f32; 1 << 20];
        let v = DevMat::whole(buf, 1 << 10);
        let before = host.now();
        gpu.h2d(s0, v, 1 << 10, 1 << 10, &data, 1 << 10, false, CopyMode::Sync, &mut host);
        let sync_cost = host.now() - before;
        assert!(sync_cost > 1e-3, "4 MB pageable ≈ 3 ms: {sync_cost}");

        let before = host.now();
        gpu.h2d(s0, v, 1 << 10, 1 << 10, &data, 1 << 10, true, CopyMode::Async, &mut host);
        let async_cost = host.now() - before;
        assert!(async_cost < 1e-4, "async issue must be cheap: {async_cost}");
    }

    #[test]
    fn pinned_copy_faster_than_pageable() {
        let (mut gpu, mut host) = setup();
        let s0 = gpu.default_stream();
        let buf = gpu.alloc(1 << 20).unwrap();
        let data = vec![0.0f32; 1 << 20];
        let v = DevMat::whole(buf, 1 << 10);
        gpu.set_recording(true);
        gpu.h2d(s0, v, 1 << 10, 1 << 10, &data, 1 << 10, false, CopyMode::Sync, &mut host);
        gpu.h2d(s0, v, 1 << 10, 1 << 10, &data, 1 << 10, true, CopyMode::Sync, &mut host);
        let recs = gpu.take_records();
        assert!(recs[1].duration() < recs[0].duration());
    }

    #[test]
    fn oom_propagates() {
        let mut cfg = tesla_t10();
        cfg.mem_bytes = 1000;
        let mut gpu = Gpu::new(cfg);
        assert!(gpu.alloc(10).is_ok());
        assert!(gpu.alloc(1000).is_err());
    }

    #[test]
    fn double_free_surfaces_as_error() {
        let (mut gpu, _host) = setup();
        let buf = gpu.alloc(16).unwrap();
        gpu.free(buf).unwrap();
        assert!(gpu.free(buf).is_err());
        assert!(gpu.buf_len(buf).is_err());
        assert!(gpu.peek(buf).is_err());
        // The device is still usable afterwards.
        assert!(gpu.alloc(16).is_ok());
    }

    #[test]
    fn panel_potrf_rejects_indefinite() {
        let (mut gpu, mut host) = setup();
        let buf = gpu.alloc(16).unwrap();
        let s0 = gpu.default_stream();
        let v = DevMat::whole(buf, 4);
        // Zero matrix is not PD.
        let err = gpu.panel_potrf(s0, v, 4, &mut host).unwrap_err();
        assert_eq!(err, 0);
    }

    #[test]
    fn event_query_is_non_blocking() {
        let (mut gpu, mut host) = setup();
        let buf = gpu.alloc(64 * 64).unwrap();
        let s0 = gpu.default_stream();
        let v = DevMat::whole(buf, 64);
        gpu.syrk(s0, v, v, 64, 32, &mut host);
        let ev = gpu.record_event(s0);
        let before = host.now();
        assert!(!gpu.event_query(ev, before), "kernel cannot have finished at issue time");
        assert!(gpu.event_query(ev, ev.0), "event completes exactly at its recorded time");
        assert_eq!(host.now(), before, "querying must not advance the host clock");
    }

    #[test]
    fn wait_event_host_blocks_to_event_not_device() {
        let (mut gpu, mut host) = setup();
        let buf = gpu.alloc(1 << 20).unwrap();
        let s0 = gpu.default_stream();
        let s1 = gpu.create_stream();
        let v = DevMat::whole(buf, 1 << 10);
        // Short kernel on s0, long kernel on s1.
        gpu.syrk(s0, v, v, 32, 16, &mut host);
        let ev = gpu.record_event(s0);
        gpu.syrk(s1, v, v, 1 << 10, 512, &mut host);
        gpu.wait_event_host(ev, &mut host);
        assert!((host.now() - ev.0).abs() < 1e-15, "host waits exactly to the event");
        assert!(host.now() < gpu.stream_tail(s1), "the long kernel is still in flight");
    }

    #[test]
    fn engine_busy_accounting_accumulates_and_resets() {
        let (mut gpu, mut host) = setup();
        let buf = gpu.alloc(1 << 18).unwrap();
        let s0 = gpu.default_stream();
        let v = DevMat::whole(buf, 1 << 9);
        let data = vec![0.0f32; 1 << 18];
        gpu.syrk(s0, v, v, 256, 128, &mut host);
        gpu.h2d(s0, v, 1 << 9, 256, &data, 1 << 9, true, CopyMode::Async, &mut host);
        let kb = gpu.compute_busy();
        let cb = gpu.copy_busy();
        assert!(kb > 0.0 && cb > 0.0);
        assert!((gpu.stream_busy(s0) - (kb + cb)).abs() < 1e-15);
        gpu.sync_all(&mut host);
        let u = gpu.utilization(host.now());
        assert!(u.compute_utilization() > 0.0 && u.compute_utilization() <= 1.0);
        assert!(u.busy_fraction() <= 1.0 + 1e-12);
        gpu.reset_clock();
        assert_eq!(gpu.compute_busy(), 0.0);
        assert_eq!(gpu.copy_busy(), 0.0);
        assert_eq!(gpu.stream_busy(s0), 0.0);
    }

    #[test]
    fn p2p_moves_bytes_and_chains_events() {
        let mut set = DeviceSet::uniform(tesla_t10(), 2);
        let mut host = HostClock::new(xeon_5160_core());
        let n = 64;
        let src_buf = set.device_mut(0).alloc(n * n).unwrap();
        let dst_buf = set.device_mut(1).alloc(n * n).unwrap();
        let data: Vec<f32> = (0..n * n).map(|i| i as f32 * 0.5).collect();
        let s0 = set.device(0).default_stream();
        let s1 = set.device(1).default_stream();
        set.device_mut(0).h2d(
            s0,
            DevMat::whole(src_buf, n),
            n,
            n,
            &data,
            n,
            true,
            CopyMode::Async,
            &mut host,
        );
        let ready = set.device_mut(0).record_event(s0);
        let ev = set.p2p(
            0,
            DevMat::whole(src_buf, n),
            1,
            s1,
            DevMat::whole(dst_buf, n),
            n,
            n,
            ready,
            &mut host,
        );
        assert!(ev.0 >= ready.0, "peer-copy events are forward-only");
        assert_eq!(set.device(1).peek(dst_buf).unwrap(), &data[..], "d2d moves exact bytes");
        assert_eq!(set.peer_bytes(), n * n * 4);
        assert!(set.device(0).peer_busy() > 0.0 && set.device(1).peer_busy() > 0.0);
        // The destination stream tail advanced to the copy's completion.
        assert!((set.device(1).stream_tail(s1) - ev.0).abs() < 1e-15);
    }

    #[test]
    fn p2p_overlaps_pcie_copy_engine() {
        // A peer copy runs on its own engine: issue a long h2d on the
        // destination's copy engine, then a p2p — the p2p must not queue
        // behind it.
        let mut set = DeviceSet::uniform(tesla_t10(), 2);
        let mut host = HostClock::new(xeon_5160_core());
        let n = 1 << 10;
        let a = set.device_mut(0).alloc(n * n).unwrap();
        let b = set.device_mut(1).alloc(n * n).unwrap();
        let big = vec![0.25f32; n * n];
        let s1 = set.device(1).default_stream();
        let s1b = set.device_mut(1).stream(1);
        set.device_mut(1).h2d(
            s1,
            DevMat::whole(b, n),
            n,
            n,
            &big,
            n,
            true,
            CopyMode::Async,
            &mut host,
        );
        let h2d_end = set.device(1).stream_tail(s1);
        set.device_mut(1).set_recording(true);
        set.p2p(0, DevMat::whole(a, n), 1, s1b, DevMat::whole(b, n), 64, 64, Event(0.0), &mut host);
        let recs = set.device_mut(1).take_records();
        assert_eq!(recs.len(), 1);
        assert!(matches!(recs[0].component, Component::CopyP2P));
        assert!(recs[0].start < h2d_end, "p2p must overlap the PCIe copy engine");
    }

    #[test]
    fn p2p_serializes_on_the_peer_engine() {
        let mut set = DeviceSet::uniform(tesla_t10(), 3);
        let mut host = HostClock::new(xeon_5160_core());
        let a = set.device_mut(0).alloc(4096).unwrap();
        let b = set.device_mut(1).alloc(4096).unwrap();
        let c = set.device_mut(2).alloc(4096).unwrap();
        let s1 = set.device(1).default_stream();
        let ev1 = set.p2p(
            0,
            DevMat::whole(a, 64),
            1,
            s1,
            DevMat::whole(b, 64),
            64,
            64,
            Event(0.0),
            &mut host,
        );
        // Device 1's peer engine is busy until ev1; a second copy into it
        // (from a third device) must start no earlier.
        let ev2 = set.p2p(
            2,
            DevMat::whole(c, 64),
            1,
            s1,
            DevMat::whole(b, 64),
            64,
            64,
            Event(0.0),
            &mut host,
        );
        assert!(ev2.0 >= ev1.0 * 2.0 - 1e-12, "peer copies serialise on the shared engine");
    }

    #[test]
    fn reset_clock_keeps_memory() {
        let (mut gpu, mut host) = setup();
        let buf = gpu.alloc(16).unwrap();
        let s0 = gpu.default_stream();
        let v = DevMat::whole(buf, 4);
        gpu.h2d(s0, v, 4, 4, &[1.0; 16], 4, false, CopyMode::Sync, &mut host);
        gpu.reset_clock();
        assert_eq!(gpu.stream_tail(s0), 0.0);
        assert_eq!(gpu.peek(buf).unwrap()[0], 1.0);
    }
}
