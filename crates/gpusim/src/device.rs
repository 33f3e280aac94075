//! The simulated GPU device.
//!
//! Models the execution semantics that the paper's policies exploit:
//!
//! * **in-order streams** — operations on one stream serialise,
//! * **engine overlap** — the compute engine and the (single) copy engine
//!   run concurrently, so asynchronous copies overlap kernels (§V-A2),
//! * **asynchronous issue** — every copy is an asynchronous transfer from
//!   pinned host memory, as the paper's policies stage them (§V-A2): the
//!   host pays only a small issue cost and blocks at explicit
//!   synchronisation points,
//! * **device memory limits** — allocation fails beyond the configured
//!   capacity (4 GB on the T10).
//!
//! Numerics are computed **for real in f32** via `mf-dense` the moment an
//! operation is enqueued; only *time* is simulated. This is valid as long
//! as the caller orders dependent operations program-order on streams —
//! exactly the discipline a correct CUDA program follows. A run without
//! data [`Gpu::reserve`]s its buffers instead of allocating them: they are
//! charged against capacity like any other, and every operation on them
//! charges its time and moves no bytes.

use crate::calib::{GpuConfig, KernelKind};
use crate::host::HostClock;
use crate::memory::{DevBuf, DevMat, DeviceMemory, DeviceOom, InvalidBuffer};
use crate::profile::{GpuUtilization, TimeSplit};
use mf_dense::potrf_unblocked;
use mf_dense::{gemm, syrk_lower, trsm_right_lower_trans, Transpose};

/// Handle to an in-order command stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stream(usize);

/// A recorded event: the stream-tail time at recording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event(pub f64);

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
    /// Seconds charged per component since the counters were last cleared.
    split: TimeSplit,
}

impl Gpu {
    /// A fresh device, its streams created by [`Self::stream`].
    pub fn new(cfg: GpuConfig) -> Self {
        let mem = DeviceMemory::new(cfg.mem_bytes);
        Gpu {
            cfg,
            mem,
            streams: Vec::new(),
            compute_free: 0.0,
            copy_free: 0.0,
            compute_busy: 0.0,
            copy_busy: 0.0,
            peer_free: 0.0,
            peer_busy: 0.0,
            peer_bytes: 0,
            split: TimeSplit::default(),
        }
    }

    /// Device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Get stream `idx`, creating intermediate streams as needed (so callers
    /// can use stable stream ids across many operations without leaking a
    /// new stream per call).
    pub fn stream(&mut self, idx: usize) -> Stream {
        if self.streams.len() <= idx {
            self.streams.resize(idx + 1, 0.0);
        }
        Stream(idx)
    }

    /// Seconds charged per component since the counters were last cleared:
    /// kernels under their kind, h2d, d2h and received peer copies as copy
    /// time.
    pub fn split(&self) -> TimeSplit {
        self.split
    }

    /// Zero the component counters.
    pub fn clear_split(&mut self) {
        self.split = TimeSplit::default();
    }

    /// Bytes currently allocated on the device.
    pub fn mem_used(&self) -> usize {
        self.mem.used()
    }

    /// Allocate a device buffer of `len` f32 elements (zero-initialised).
    pub fn alloc(&mut self, len: usize) -> Result<DevBuf, DeviceOom> {
        self.mem.alloc(len, true)
    }

    /// Reserve a buffer of `len` f32 elements without storage: charged
    /// against capacity under the same out-of-memory rule as
    /// [`Self::alloc`], and every operation on it charges its time without
    /// moving or computing a byte. A run without data reserves what the run
    /// with data allocates — on fronts far too large to compute for real,
    /// too (the paper's Figure 12/13/14 maps go to m = k = 10000).
    pub fn reserve(&mut self, len: usize) -> Result<DevBuf, DeviceOom> {
        self.mem.alloc(len, false)
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

    /// Record an event on `stream`: the completion time of the latest work
    /// issued there (the stream's tail).
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
        host: &mut HostClock,
    ) {
        if let Some(data) = self.mem.storage_mut(dst.buf) {
            for j in 0..cols {
                let doff = dst.off + j * dst.ld;
                data[doff..doff + rows].copy_from_slice(&src[j * src_ld..j * src_ld + rows]);
            }
        }
        self.schedule_copy(stream, rows * cols * 4, host);
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
        host: &mut HostClock,
    ) {
        if let Some(data) = self.mem.storage(src.buf) {
            for j in 0..cols {
                let soff = src.off + j * src.ld;
                dst[j * dst_ld..j * dst_ld + rows].copy_from_slice(&data[soff..soff + rows]);
            }
        }
        self.schedule_copy(stream, rows * cols * 4, host);
    }

    fn schedule_copy(&mut self, stream: Stream, bytes: usize, host: &mut HostClock) {
        let dur = self.cfg.pcie.time(bytes, true);
        let start = host.now().max(self.streams[stream.0]).max(self.copy_free);
        let end = start + dur;
        self.streams[stream.0] = end;
        self.copy_free = end;
        self.copy_busy += dur;
        self.split.copy += end - start;
        host.charge_issue();
    }

    // ----- kernels --------------------------------------------------------

    /// Pack a `rows × cols` region of a device view into a dense scratch
    /// vector (simulation-internal; carries no simulated cost), if its
    /// buffer has storage.
    fn pack(&self, m: DevMat, rows: usize, cols: usize) -> Option<Vec<f32>> {
        let data = self.mem.storage(m.buf)?;
        let mut out = vec![0.0f32; rows * cols];
        for j in 0..cols {
            let off = m.off + j * m.ld;
            out[j * rows..(j + 1) * rows].copy_from_slice(&data[off..off + rows]);
        }
        Some(out)
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
        self.split.kernel(kind, start, end);
        host.charge_issue();
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
        if let (Some(lpack), Some(data)) = (self.pack(l, k, k), self.mem.storage_mut(b.buf)) {
            trsm_right_lower_trans(m, k, &lpack, k, &mut data[b.off..], b.ld);
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
        if let (Some(apack), Some(data)) = (self.pack(a, n, k), self.mem.storage_mut(c.buf)) {
            syrk_lower(n, k, -1.0f32, &apack, n, 1.0, &mut data[c.off..], c.ld);
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
        let (apack, bpack) = (self.pack(a, m, k), self.pack(b, n, k));
        if let (Some(apack), Some(bpack), Some(data)) = (apack, bpack, self.mem.storage_mut(c.buf))
        {
            let (no, yes) = (Transpose::No, Transpose::Yes);
            gemm(no, yes, m, n, k, -1.0f32, &apack, m, &bpack, n, 1.0, &mut data[c.off..], c.ld);
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
        let res = match self.mem.storage_mut(a.buf) {
            Some(data) => potrf_unblocked(n, &mut data[a.off..], a.ld),
            None => Ok(()),
        };
        self.schedule_kernel(stream, KernelKind::PanelPotrf, 0, n, 0, host);
        res.map_err(|e| e.column)
    }

    /// Reset all timelines and the component counters to zero (memory
    /// contents and allocations kept).
    pub fn reset_clock(&mut self) {
        self.streams.fill(0.0);
        self.compute_free = 0.0;
        self.copy_free = 0.0;
        self.compute_busy = 0.0;
        self.copy_busy = 0.0;
        self.peer_free = 0.0;
        self.peer_busy = 0.0;
        self.peer_bytes = 0;
        self.clear_split();
    }

    /// Peer (device-to-device) copy: move a `rows × cols` column-major block
    /// from `src_view` on device `src` of `gpus` into `dst_view` on device
    /// `dst` over the p2p link.
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
    /// Panics unless `src` and `dst` are two distinct devices of `gpus`.
    #[allow(clippy::too_many_arguments)]
    pub fn p2p(
        gpus: &mut [Gpu],
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
        let [src, dst] = gpus.get_disjoint_mut([src, dst]).expect("two distinct devices");
        let block = src.pack(src_view, rows, cols);
        if let (Some(block), Some(data)) = (block, dst.mem.storage_mut(dst_view.buf)) {
            for j in 0..cols {
                let doff = dst_view.off + j * dst_view.ld;
                data[doff..doff + rows].copy_from_slice(&block[j * rows..(j + 1) * rows]);
            }
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
        src.peer_free = end;
        dst.peer_free = end;
        src.peer_busy += dur;
        dst.peer_busy += dur;
        dst.peer_bytes += bytes;
        dst.split.copy += end - start;
        host.charge_issue();
        Event(end)
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
        let s0 = gpu.stream(0);
        // 3×2 block into a ld=10 device view at offset 4.
        let src: Vec<f32> = vec![1., 2., 3., 4., 5., 6.];
        let dst_view = DevMat { buf, off: 4, ld: 10 };
        gpu.h2d(s0, dst_view, 3, 2, &src, 3, &mut host);
        let mut back = vec![0.0f32; 8];
        gpu.d2h(s0, dst_view, 3, 2, &mut back, 4, &mut host);
        assert_eq!(&back[0..3], &[1., 2., 3.]);
        assert_eq!(&back[4..7], &[4., 5., 6.]);
        assert!(gpu.record_event(s0).0 > 0.0, "copies cost device time");
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
        let s0 = gpu.stream(0);
        let full = DevMat::whole(buf, n);
        gpu.h2d(s0, full, n, n, a0.as_slice(), n, &mut host);
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
        let s0 = gpu.stream(0);
        let v = DevMat::whole(buf, 64);
        gpu.syrk(s0, v, v, 32, 16, &mut host);
        let t1 = gpu.record_event(s0).0;
        gpu.syrk(s0, v, v, 32, 16, &mut host);
        let t2 = gpu.record_event(s0).0;
        assert!(t2 > t1, "second kernel must start after the first");
    }

    #[test]
    fn copy_overlaps_compute_across_streams() {
        let (mut gpu, mut host) = setup();
        let s0 = gpu.stream(0);
        let s1 = gpu.stream(1);
        let buf = gpu.alloc(1 << 20).unwrap();
        let big = vec![0.5f32; 1 << 20];
        // Launch a long kernel on s0, then an async copy on s1: the copy
        // must start before the kernel ends (engines overlap).
        let v = DevMat::whole(buf, 1 << 10);
        gpu.syrk(s0, v, v, 1 << 10, 512, &mut host);
        let kernel_end = gpu.record_event(s0).0;
        gpu.h2d(s1, v, 1 << 10, 512, &big, 1 << 10, &mut host);
        let copy_start = gpu.record_event(s1).0 - gpu.split().copy;
        assert!(copy_start < kernel_end, "copy should overlap the kernel");
    }

    #[test]
    fn two_copies_serialize_on_the_copy_engine() {
        let (mut gpu, mut host) = setup();
        let s0 = gpu.stream(0);
        let s1 = gpu.stream(1);
        let buf = gpu.alloc(1 << 18).unwrap();
        let data = vec![0.0f32; 1 << 18];
        let v = DevMat::whole(buf, 1 << 9);
        gpu.h2d(s0, v, 1 << 9, 256, &data, 1 << 9, &mut host);
        let (first_end, first) = (gpu.record_event(s0).0, gpu.split().copy);
        gpu.h2d(s1, v, 1 << 9, 256, &data, 1 << 9, &mut host);
        let second_start = gpu.record_event(s1).0 - (gpu.split().copy - first);
        assert!(second_start >= first_end - 1e-12, "single copy engine must serialise");
    }

    #[test]
    fn events_order_cross_stream_work() {
        let (mut gpu, mut host) = setup();
        let s0 = gpu.stream(0);
        let s1 = gpu.stream(1);
        let buf = gpu.alloc(4096).unwrap();
        let v = DevMat::whole(buf, 64);
        gpu.syrk(s0, v, v, 64, 32, &mut host);
        let ev = gpu.record_event(s0);
        gpu.wait_event(s1, ev);
        gpu.clear_split();
        gpu.syrk(s1, v, v, 8, 4, &mut host);
        let start = gpu.record_event(s1).0 - gpu.split().syrk;
        assert!(start >= ev.0 - 1e-12, "s1 kernel must wait for the event");
    }

    #[test]
    fn oom_propagates() {
        let mut cfg = tesla_t10();
        cfg.mem_bytes = 1000;
        let mut gpu = Gpu::new(cfg);
        assert!(gpu.alloc(10).is_ok());
        assert!(gpu.alloc(1000).is_err());
        assert!(gpu.reserve(1000).is_err(), "a reservation obeys the same capacity");
    }

    #[test]
    fn double_free_surfaces_as_error() {
        let (mut gpu, _host) = setup();
        let buf = gpu.alloc(16).unwrap();
        gpu.free(buf).unwrap();
        assert!(gpu.free(buf).is_err());
        assert!(gpu.peek(buf).is_err());
        // The device is still usable afterwards.
        assert!(gpu.alloc(16).is_ok());
    }

    #[test]
    fn panel_potrf_rejects_indefinite() {
        let (mut gpu, mut host) = setup();
        let buf = gpu.alloc(16).unwrap();
        let s0 = gpu.stream(0);
        let v = DevMat::whole(buf, 4);
        // Zero matrix is not PD.
        let err = gpu.panel_potrf(s0, v, 4, &mut host).unwrap_err();
        assert_eq!(err, 0);
    }

    #[test]
    fn wait_event_host_blocks_to_event_not_device() {
        let (mut gpu, mut host) = setup();
        let buf = gpu.alloc(1 << 20).unwrap();
        let s0 = gpu.stream(0);
        let s1 = gpu.stream(1);
        let v = DevMat::whole(buf, 1 << 10);
        // Short kernel on s0, long kernel on s1.
        gpu.syrk(s0, v, v, 32, 16, &mut host);
        let ev = gpu.record_event(s0);
        gpu.syrk(s1, v, v, 1 << 10, 512, &mut host);
        gpu.wait_event_host(ev, &mut host);
        assert!((host.now() - ev.0).abs() < 1e-15, "host waits exactly to the event");
        assert!(host.now() < gpu.record_event(s1).0, "the long kernel is still in flight");
    }

    #[test]
    fn engine_busy_accounting_accumulates_and_resets() {
        let (mut gpu, mut host) = setup();
        let buf = gpu.alloc(1 << 18).unwrap();
        let s0 = gpu.stream(0);
        let v = DevMat::whole(buf, 1 << 9);
        let data = vec![0.0f32; 1 << 18];
        gpu.syrk(s0, v, v, 256, 128, &mut host);
        gpu.h2d(s0, v, 1 << 9, 256, &data, 1 << 9, &mut host);
        let kb = gpu.compute_busy();
        let cb = gpu.copy_busy();
        assert!(kb > 0.0 && cb > 0.0);
        gpu.sync_all(&mut host);
        let u = gpu.utilization(host.now());
        assert!(u.compute_utilization() > 0.0 && u.compute_utilization() <= 1.0);
        assert!(u.busy_fraction() <= 1.0 + 1e-12);
        gpu.reset_clock();
        assert_eq!(gpu.compute_busy(), 0.0);
        assert_eq!(gpu.copy_busy(), 0.0);
    }

    fn devices(n: usize) -> Vec<Gpu> {
        (0..n).map(|_| Gpu::new(tesla_t10())).collect()
    }

    #[test]
    fn p2p_moves_bytes_and_chains_events() {
        let mut gpus = devices(2);
        let mut host = HostClock::new(xeon_5160_core());
        let n = 64;
        let src = DevMat::whole(gpus[0].alloc(n * n).unwrap(), n);
        let dst = DevMat::whole(gpus[1].alloc(n * n).unwrap(), n);
        let data: Vec<f32> = (0..n * n).map(|i| i as f32 * 0.5).collect();
        let (s0, s1) = (gpus[0].stream(0), gpus[1].stream(0));
        gpus[0].h2d(s0, src, n, n, &data, n, &mut host);
        let ready = gpus[0].record_event(s0);
        let ev = Gpu::p2p(&mut gpus, 0, src, 1, s1, dst, n, n, ready, &mut host);
        assert!(ev.0 >= ready.0, "peer-copy events are forward-only");
        assert_eq!(gpus[1].peek(dst.buf).unwrap(), &data[..], "d2d moves exact bytes");
        assert_eq!((gpus[0].peer_bytes(), gpus[1].peer_bytes()), (0, n * n * 4));
        assert!(gpus[0].peer_busy() > 0.0 && gpus[1].peer_busy() > 0.0);
        // The destination stream tail advanced to the copy's completion.
        assert_eq!(gpus[1].record_event(s1), ev);
    }

    #[test]
    fn p2p_overlaps_pcie_copy_engine() {
        // A peer copy runs on its own engine: issue a long h2d on the
        // destination's copy engine, then a p2p — the p2p must not queue
        // behind it.
        let mut gpus = devices(2);
        let mut host = HostClock::new(xeon_5160_core());
        let n = 1 << 10;
        let a = DevMat::whole(gpus[0].alloc(n * n).unwrap(), n);
        let b = DevMat::whole(gpus[1].alloc(n * n).unwrap(), n);
        let big = vec![0.25f32; n * n];
        let (s1, s1b) = (gpus[1].stream(0), gpus[1].stream(1));
        gpus[1].h2d(s1, b, n, n, &big, n, &mut host);
        let h2d_end = gpus[1].record_event(s1).0;
        gpus[1].clear_split();
        let ev = Gpu::p2p(&mut gpus, 0, a, 1, s1b, b, 64, 64, Event(0.0), &mut host);
        let p2p = gpus[1].split();
        assert!(p2p.copy > 0.0, "the receiving device books the peer copy");
        assert_eq!(gpus[0].split(), TimeSplit::default(), "the sender books nothing");
        assert!(ev.0 - p2p.copy < h2d_end, "p2p must overlap the PCIe copy engine");
    }

    #[test]
    fn p2p_serializes_on_the_peer_engine() {
        let mut gpus = devices(3);
        let mut host = HostClock::new(xeon_5160_core());
        let [a, b, c] = [0, 1, 2].map(|d| DevMat::whole(gpus[d].alloc(4096).unwrap(), 64));
        let s1 = gpus[1].stream(0);
        let ev1 = Gpu::p2p(&mut gpus, 0, a, 1, s1, b, 64, 64, Event(0.0), &mut host);
        // Device 1's peer engine is busy until ev1; a second copy into it
        // (from a third device) must start no earlier.
        let ev2 = Gpu::p2p(&mut gpus, 2, c, 1, s1, b, 64, 64, Event(0.0), &mut host);
        assert!(ev2.0 >= ev1.0 * 2.0 - 1e-12, "peer copies serialise on the shared engine");
    }

    #[test]
    fn reserved_buffers_charge_what_allocated_ones_do_and_move_no_bytes() {
        // The same operations on allocated and on reserved buffers: equal
        // clocks, counters and capacity, and no byte lands in a reservation.
        let n = 32;
        let eye: Vec<f32> = (0..n * n).map(|i| if i % (n + 1) == 0 { 4.0 } else { 0.0 }).collect();
        let run = |reserve: bool| {
            let (mut gpus, mut host) = (devices(2), HostClock::new(xeon_5160_core()));
            let buf = |g: &mut Gpu| {
                let b = if reserve { g.reserve(n * n) } else { g.alloc(n * n) };
                DevMat::whole(b.unwrap(), n)
            };
            let (v, w) = (buf(&mut gpus[0]), buf(&mut gpus[1]));
            let (mut back, g) = (vec![-1.0f32; n * n], &mut gpus[0]);
            let s = g.stream(0);
            g.h2d(s, v, n, n, &eye, n, &mut host);
            g.panel_potrf(s, v, 8, &mut host).unwrap();
            g.trsm(s, v, 8, v.offset(8, 0), n - 8, &mut host);
            g.syrk(s, v.offset(8, 0), v.offset(8, 8), n - 8, 8, &mut host);
            g.gemm_nt(s, v.offset(16, 0), v.offset(8, 0), v.offset(16, 8), 16, 8, 8, &mut host);
            g.d2h(s, v, n, n, &mut back, n, &mut host);
            let ready = g.record_event(s);
            let s1 = gpus[1].stream(0);
            let ev = Gpu::p2p(&mut gpus, 0, v, 1, s1, w, n, n, ready, &mut host);
            let stored = gpus[1].peek(w.buf).unwrap().len();
            let clocks = (host.now(), ev, gpus[0].split(), gpus[1].split(), gpus[1].mem_used());
            (clocks, back[0], stored)
        };
        let (allocated, reserved) = (run(false), run(true));
        assert_eq!(allocated.0, reserved.0, "the same clocks, counters and memory");
        assert_eq!((allocated.1, allocated.2), (2.0, n * n), "allocated buffers compute");
        assert_eq!((reserved.1, reserved.2), (-1.0, 0), "reserved buffers move no bytes");
    }

    #[test]
    fn reset_clock_keeps_memory() {
        let (mut gpu, mut host) = setup();
        let buf = gpu.alloc(16).unwrap();
        let s0 = gpu.stream(0);
        let v = DevMat::whole(buf, 4);
        gpu.h2d(s0, v, 4, 4, &[1.0; 16], 4, &mut host);
        gpu.reset_clock();
        assert_eq!(gpu.record_event(s0).0, 0.0);
        assert_eq!(gpu.peek(buf).unwrap()[0], 1.0);
    }
}
