//! Where simulated time goes.
//!
//! Every host and device timeline keeps a [`TimeSplit`]: always-on counters
//! of the seconds its charges spent per component. The factorization layer
//! clears a machine's counters when a front's assembly begins and adds its
//! host's and device's up, bucket by bucket, when the front is done, which
//! yields the per-front breakdown of the
//! paper's Figures 2, 5, 6 and Table IV and the per-call timings the
//! auto-tuner trains on. [`GpuUtilization`] is the run-level engine view.

use crate::calib::KernelKind;

/// Simulated seconds one timeline spent per component since its counters
/// were last cleared. Each charge adds the `end − start` of its own interval
/// (not the duration it was computed from), so a bucket is the sum of the
/// intervals it was charged, in charge order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimeSplit {
    /// `potrf` kernels (the host's blocked one, the device's panel kernel).
    pub potrf: f64,
    /// `trsm` kernels.
    pub trsm: f64,
    /// `syrk` and `gemm` kernels.
    pub syrk: f64,
    /// Transfers: h2d, d2h, and peer copies on the receiving device.
    pub copy: f64,
    /// Host memory operations (assembly, packing) and pinned allocations.
    pub host: f64,
}

impl TimeSplit {
    /// Book a kernel's interval under its kind's bucket.
    pub(crate) fn kernel(&mut self, kind: KernelKind, start: f64, end: f64) {
        let bucket = match kind {
            KernelKind::Potrf | KernelKind::PanelPotrf => &mut self.potrf,
            KernelKind::Trsm => &mut self.trsm,
            KernelKind::Syrk | KernelKind::Gemm => &mut self.syrk,
        };
        *bucket += end - start;
    }
}

/// Engine busy/idle accounting for one or more devices over a span of
/// simulated time — the GPU-utilization section the pipelined dispatch
/// layer surfaces through `FactorStats`. For multi-worker runs, per-device
/// busy times are summed and `gpus` counts the devices, so utilization is
/// normalised per engine.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GpuUtilization {
    /// Σ compute-engine busy seconds across the counted devices.
    pub compute_busy: f64,
    /// Σ copy-engine busy seconds across the counted devices.
    pub copy_busy: f64,
    /// The span (makespan) the busy time is measured against, seconds.
    pub span: f64,
    /// Number of devices aggregated.
    pub gpus: usize,
}

impl GpuUtilization {
    /// Fold another device's accounting into this one (a pipelined run on
    /// several devices aggregates one entry per device).
    pub fn merge(&mut self, other: &GpuUtilization) {
        self.compute_busy += other.compute_busy;
        self.copy_busy += other.copy_busy;
        self.span = self.span.max(other.span);
        self.gpus += other.gpus;
    }

    fn denom(&self) -> f64 {
        self.span * (self.gpus.max(1)) as f64
    }

    /// Fraction of the span the compute engines were busy (0..=1).
    pub fn compute_utilization(&self) -> f64 {
        if self.span > 0.0 {
            self.compute_busy / self.denom()
        } else {
            0.0
        }
    }

    /// Fraction of the span the copy engines were busy (0..=1).
    pub fn copy_utilization(&self) -> f64 {
        if self.span > 0.0 {
            self.copy_busy / self.denom()
        } else {
            0.0
        }
    }

    /// Fraction of the span *either* engine was busy, upper-bounded by
    /// engine-sum (engines overlap, so this saturates at 1).
    pub fn busy_fraction(&self) -> f64 {
        (self.compute_utilization() + self.copy_utilization()).min(1.0)
    }

    /// Fraction of the span the compute engines sat idle — the quantity the
    /// inter-supernode pipeline exists to shrink.
    pub fn compute_idle_fraction(&self) -> f64 {
        1.0 - self.compute_utilization()
    }
}
