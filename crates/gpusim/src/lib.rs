//! # mf-gpusim — a calibrated GPU device model
//!
//! The substitute for the paper's Tesla T10 + CUBLAS 2.3 stack (see
//! DESIGN.md §1). It provides:
//!
//! * [`calib`] — latency/throughput curves calibrated to the paper's
//!   Table III and the crossover points of Figures 7/8; presets for the
//!   Tesla T10, one Xeon 5160 core, and a hypothetical Fermi-class device;
//! * [`Gpu`] — a device with in-order streams, events, a compute engine and
//!   a copy engine that overlap, asynchronous PCIe transfers from pinned
//!   host memory, peer copies between devices, and a bounded device-memory
//!   allocator whose buffers are allocated with storage or reserved without
//!   it (a run without data);
//! * [`HostClock`] — the host's virtual timeline, charging CPU kernels from
//!   calibrated f64 curves and modelling pinned-allocation costs;
//! * CUBLAS-like kernels (`trsm`, `syrk`, `gemm_nt`, `panel_potrf`) that
//!   **compute real f32 numerics** while charging simulated time — accuracy
//!   experiments downstream are genuine, not modelled.
//!
//! Simulated time, not wall time, is the metric every experiment reports;
//! that is what makes the reproduction hardware-independent.

#![forbid(unsafe_code)]

pub mod calib;
pub mod device;
pub mod host;
pub mod memory;
pub mod profile;

pub use calib::{
    exact_ops, fermi_like, tesla_t10, xeon_5160_core, CpuConfig, GpuConfig, KernelKind,
    KernelRates, PcieModel, PinnedAllocModel, RateCurve,
};
pub use device::{Event, Gpu, Stream};
pub use host::{HostClock, ISSUE_OVERHEAD};
pub use memory::{DevBuf, DevMat, DeviceOom, InvalidBuffer};
pub use profile::{GpuUtilization, TimeSplit};

/// A host/device pair with aligned virtual timelines — the "machine" on
/// which a factorization executes. A multi-GPU run drives several devices,
/// the machine's own first, from the machine's host timeline
/// (`mf-core::multigpu`).
#[derive(Debug)]
pub struct Machine {
    /// Host timeline.
    pub host: HostClock,
    /// The device, if this worker has one.
    pub gpu: Option<Gpu>,
}

impl Machine {
    /// A CPU-only machine.
    pub fn cpu_only(cpu: CpuConfig) -> Self {
        Machine { host: HostClock::new(cpu), gpu: None }
    }

    /// A CPU + GPU machine.
    pub fn with_gpu(cpu: CpuConfig, gpu: GpuConfig) -> Self {
        Machine { host: HostClock::new(cpu), gpu: Some(Gpu::new(gpu)) }
    }

    /// The paper's experimental node: one Xeon 5160 core + one Tesla T10.
    pub fn paper_node() -> Self {
        Machine::with_gpu(calib::xeon_5160_core(), calib::tesla_t10())
    }

    /// Total elapsed simulated time (host view, after a full sync).
    pub fn elapsed(&mut self) -> f64 {
        if let Some(gpu) = self.gpu.as_mut() {
            let host = &mut self.host;
            gpu.sync_all(host);
        }
        self.host.now()
    }

    /// Zero both timelines' component counters.
    pub fn clear_split(&mut self) {
        self.host.clear_split();
        if let Some(g) = self.gpu.as_mut() {
            g.clear_split();
        }
    }

    /// Reset both clocks and their component counters to zero.
    pub fn reset(&mut self) {
        self.host.reset();
        if let Some(g) = self.gpu.as_mut() {
            g.reset_clock();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_presets() {
        let mut m = Machine::paper_node();
        assert!(m.gpu.is_some());
        assert_eq!(m.elapsed(), 0.0);
        let mut c = Machine::cpu_only(xeon_5160_core());
        assert!(c.gpu.is_none());
        c.host.charge_kernel(KernelKind::Syrk, 0, 100, 100);
        assert!(c.elapsed() > 0.0);
    }

    #[test]
    fn machine_clear_split_zeroes_both_timelines() {
        let mut m = Machine::paper_node();
        m.host.charge_kernel(KernelKind::Potrf, 0, 64, 0);
        let host_potrf = m.host.now();
        let Machine { host, gpu } = &mut m;
        let gpu = gpu.as_mut().unwrap();
        let buf = gpu.alloc(64 * 64).unwrap();
        let s0 = gpu.stream(0);
        let v = DevMat::whole(buf, 64);
        let start = host.now();
        gpu.syrk(s0, v, v, 64, 32, host);
        let syrk = gpu.record_event(s0).0 - start;
        let (h, d) = (m.host.split(), m.gpu.as_ref().unwrap().split());
        assert_eq!((h.potrf, d.syrk), (host_potrf, syrk));
        assert_eq!(h.trsm + h.syrk + h.copy + h.host, 0.0);
        assert_eq!(d.potrf + d.trsm + d.copy + d.host, 0.0);
        m.clear_split();
        assert_eq!(m.host.split(), TimeSplit::default());
        assert_eq!(m.gpu.as_ref().unwrap().split(), TimeSplit::default());
    }

    #[test]
    fn machine_elapsed_waits_for_the_device() {
        let mut p = Machine::paper_node();
        let Machine { host, gpu } = &mut p;
        let gpu = gpu.as_mut().unwrap();
        let buf = gpu.alloc(16).unwrap();
        let s0 = gpu.stream(0);
        let v = DevMat::whole(buf, 4);
        gpu.syrk(s0, v, v, 4, 2, host);
        let done = gpu.record_event(s0).0;
        assert!(done > host.now());
        assert_eq!(p.elapsed(), done);
    }

    #[test]
    fn reset_zeroes_time() {
        let mut m = Machine::paper_node();
        m.host.advance(5.0);
        m.reset();
        assert_eq!(m.elapsed(), 0.0);
    }

    // ----- component counters (the `time_split` prefix is load-bearing: ci.sh
    // runs these by name) ------------------------------------------------------

    /// The bucket a kernel of `kind` is booked under.
    fn bucket(split: &mut TimeSplit, kind: KernelKind) -> &mut f64 {
        match kind {
            KernelKind::Potrf | KernelKind::PanelPotrf => &mut split.potrf,
            KernelKind::Trsm => &mut split.trsm,
            KernelKind::Syrk | KernelKind::Gemm => &mut split.syrk,
        }
    }

    #[test]
    fn time_split_books_every_host_charge_once() {
        let mut h = HostClock::new(xeon_5160_core());
        // Away from zero, an interval's `end − start` rounds differently
        // from the duration it was computed from.
        h.advance(0.1);
        let mut want = TimeSplit::default();
        let kernels = [
            (KernelKind::Potrf, 0, 64, 0),
            (KernelKind::PanelPotrf, 0, 32, 0),
            (KernelKind::Trsm, 40, 0, 16),
            (KernelKind::Syrk, 0, 40, 16),
            (KernelKind::Gemm, 40, 24, 16),
        ];
        for (kind, m, n, k) in kernels {
            let start = h.now();
            h.charge_kernel(kind, m, n, k);
            *bucket(&mut want, kind) += h.now() - start;
            assert_eq!(h.split(), want, "{kind:?}");
        }
        let start = h.now();
        h.charge_memop(4096, 4.0e9);
        want.host += h.now() - start;
        assert_eq!(h.split(), want, "memop");
        let dur = h.alloc_pinned(1 << 20);
        want.host += h.now() - (h.now() - dur);
        assert_eq!(h.split(), want, "pinned allocation");
        h.advance(1.0);
        h.sync_to(5.0);
        h.charge_issue();
        h.free_pinned(1 << 20);
        assert_eq!(h.split(), want, "waits, issue overhead and frees are no component");
    }

    /// Run `op` on `gpu`'s stream 0, the only one in use, and return the
    /// `end − start` of the interval it scheduled there.
    fn interval(
        gpu: &mut Gpu,
        host: &mut HostClock,
        op: impl FnOnce(&mut Gpu, &mut HostClock),
    ) -> f64 {
        let s0 = gpu.stream(0);
        let start = host.now().max(gpu.record_event(s0).0);
        op(gpu, host);
        gpu.record_event(s0).0 - start
    }

    #[test]
    fn time_split_books_every_device_charge_once() {
        let mut gpus = vec![Gpu::new(tesla_t10()), Gpu::new(tesla_t10())];
        let mut host = HostClock::new(xeon_5160_core());
        host.advance(0.1);
        let n = 64;
        let v = DevMat::whole(gpus[0].alloc(n * n).unwrap(), n);
        let w = DevMat::whole(gpus[1].alloc(n * n).unwrap(), n);
        let eye: Vec<f32> = (0..n * n).map(|i| if i % (n + 1) == 0 { 1.0 } else { 0.0 }).collect();
        let mut back = vec![0.0f32; n * n];
        let mut want = TimeSplit::default();
        let gpu = &mut gpus[0];
        let s0 = gpu.stream(0);
        want.copy += interval(gpu, &mut host, |g, h| g.h2d(s0, v, n, n, &eye, n, h));
        assert_eq!(gpu.split(), want, "h2d");
        want.potrf += interval(gpu, &mut host, |g, h| g.panel_potrf(s0, v, 16, h).unwrap());
        assert_eq!(gpu.split(), want, "panel potrf");
        want.trsm += interval(gpu, &mut host, |g, h| g.trsm(s0, v, 16, v.offset(16, 0), n - 16, h));
        assert_eq!(gpu.split(), want, "trsm");
        want.syrk += interval(gpu, &mut host, |g, h| {
            g.syrk(s0, v.offset(16, 0), v.offset(16, 16), n - 16, 16, h)
        });
        assert_eq!(gpu.split(), want, "syrk");
        want.syrk += interval(gpu, &mut host, |g, h| {
            g.gemm_nt(s0, v.offset(32, 0), v.offset(16, 0), v.offset(32, 16), 32, 16, 16, h)
        });
        assert_eq!(gpu.split(), want, "gemm");
        want.copy += interval(gpu, &mut host, |g, h| g.d2h(s0, v, n, n, &mut back, n, h));
        assert_eq!(gpu.split(), want, "d2h");

        // A peer copy is booked on the receiving device alone.
        let s1 = gpus[1].stream(0);
        let start = host.now();
        let ev = Gpu::p2p(&mut gpus, 0, v, 1, s1, w, n, n, Event(0.0), &mut host);
        assert_eq!(gpus[1].split(), TimeSplit { copy: ev.0 - start, ..Default::default() });
        assert_eq!(gpus[0].split(), want, "the sending device books nothing");
    }

    #[test]
    fn time_split_is_zeroed_by_reset() {
        let mut m = Machine::paper_node();
        m.host.charge_kernel(KernelKind::Potrf, 0, 64, 0);
        m.host.charge_memop(4096, 4.0e9);
        let Machine { host, gpu } = &mut m;
        let gpu = gpu.as_mut().unwrap();
        let v = DevMat::whole(gpu.alloc(16).unwrap(), 4);
        let s0 = gpu.stream(0);
        gpu.h2d(s0, v, 4, 4, &[1.0; 16], 4, host);
        gpu.syrk(s0, v, v, 4, 2, host);
        let (h, d) = (m.host.split(), m.gpu.as_ref().unwrap().split());
        assert!(h.potrf > 0.0 && h.host > 0.0 && d.syrk > 0.0 && d.copy > 0.0);
        m.reset();
        assert_eq!(m.host.split(), TimeSplit::default(), "HostClock::reset");
        assert_eq!(m.gpu.as_ref().unwrap().split(), TimeSplit::default(), "Gpu::reset_clock");
    }
}
