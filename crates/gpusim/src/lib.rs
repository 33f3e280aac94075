//! # mf-gpusim — a calibrated GPU device model
//!
//! The substitute for the paper's Tesla T10 + CUBLAS 2.3 stack (see
//! DESIGN.md §1). It provides:
//!
//! * [`calib`] — latency/throughput curves calibrated to the paper's
//!   Table III and the crossover points of Figures 7/8; presets for the
//!   Tesla T10, one Xeon 5160 core, and a hypothetical Fermi-class device;
//! * [`Gpu`] — a device with in-order streams, events, a compute engine and
//!   a copy engine that overlap, PCIe transfer costs (pageable vs pinned),
//!   and a bounded device-memory allocator;
//! * [`HostClock`] — the host's virtual timeline, charging CPU kernels from
//!   calibrated f64 curves and modelling pinned-allocation costs;
//! * CUBLAS-like kernels (`trsm`, `syrk`, `gemm_nt`, `panel_potrf`) that
//!   **compute real f32 numerics** while charging simulated time — accuracy
//!   experiments downstream are genuine, not modelled.
//!
//! Simulated time, not wall time, is the metric every experiment reports;
//! that is what makes the reproduction hardware-independent.

pub mod calib;
pub mod device;
pub mod host;
pub mod memory;
pub mod profile;
pub mod tier;

pub use calib::{
    exact_ops, fermi_like, tesla_t10, xeon_5160_core, CpuConfig, GpuConfig, KernelKind,
    KernelRates, PcieModel, PinnedAllocModel, RateCurve,
};
pub use device::{CopyMode, DeviceSet, Event, Gpu, Stream};
pub use host::{HostClock, ISSUE_OVERHEAD};
pub use memory::{DevBuf, DevMat, DeviceOom, InvalidBuffer};
pub use profile::{Component, GpuUtilization, ProfileRecord};
pub use tier::{SpillTier, TierParams, DEFAULT_DEVICE_BUDGET};

/// An operation that needs a device ran on a machine without one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoGpu;

impl core::fmt::Display for NoGpu {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "machine has no GPU")
    }
}

impl std::error::Error for NoGpu {}

/// A host/device pair with aligned virtual timelines — the "machine" on
/// which a factorization executes. A multi-GPU run drives a [`DeviceSet`] of
/// several devices from the machine's host timeline (`mf-core::multigpu`).
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

    /// Split-borrow both timelines at once — GPU enqueue calls need
    /// `&mut Gpu` and `&mut HostClock` simultaneously.
    pub fn host_and_gpu(&mut self) -> Result<(&mut HostClock, &mut Gpu), NoGpu> {
        match self.gpu.as_mut() {
            Some(g) => Ok((&mut self.host, g)),
            None => Err(NoGpu),
        }
    }

    /// Total elapsed simulated time (host view, after a full sync).
    pub fn elapsed(&mut self) -> f64 {
        if let Some(gpu) = self.gpu.as_mut() {
            let host = &mut self.host;
            gpu.sync_all(host);
        }
        self.host.now()
    }

    /// Enable/disable profiling on both timelines.
    pub fn set_recording(&mut self, on: bool) {
        self.host.set_recording(on);
        if let Some(g) = self.gpu.as_mut() {
            g.set_recording(on);
        }
    }

    /// Drain records from both timelines, merged and sorted by start time.
    pub fn take_records(&mut self) -> Vec<ProfileRecord> {
        let mut r = self.host.take_records();
        if let Some(g) = self.gpu.as_mut() {
            r.extend(g.take_records());
        }
        r.sort_by(|a, b| a.start.total_cmp(&b.start));
        r
    }

    /// Reset both clocks to zero.
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
    fn records_merge_sorted() {
        let mut m = Machine::paper_node();
        m.set_recording(true);
        m.host.charge_kernel(KernelKind::Potrf, 0, 64, 0);
        let (host, gpu) = m.host_and_gpu().unwrap();
        let buf = gpu.alloc(64 * 64).unwrap();
        let s0 = gpu.default_stream();
        let v = DevMat::whole(buf, 64);
        gpu.syrk(s0, v, v, 64, 32, host);
        let recs = m.take_records();
        assert_eq!(recs.len(), 2);
        assert!(recs.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn gpu_accessors_surface_no_gpu() {
        let mut m = Machine::cpu_only(xeon_5160_core());
        assert_eq!(m.host_and_gpu().unwrap_err(), NoGpu);
        let mut p = Machine::paper_node();
        let (host, gpu) = p.host_and_gpu().unwrap();
        let buf = gpu.alloc(16).unwrap();
        let s0 = gpu.default_stream();
        let v = DevMat::whole(buf, 4);
        gpu.syrk(s0, v, v, 4, 2, host);
        assert!(p.elapsed() > 0.0);
    }

    #[test]
    fn reset_zeroes_time() {
        let mut m = Machine::paper_node();
        m.host.advance(5.0);
        m.reset();
        assert_eq!(m.elapsed(), 0.0);
    }
}
