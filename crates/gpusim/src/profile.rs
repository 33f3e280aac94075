//! Per-call profiling records.
//!
//! Every simulated operation (CPU kernel, GPU kernel, transfer, pinned
//! allocation) can emit a [`ProfileRecord`]; the factorization layer joins
//! them per F-U call to produce the paper's Figures 2, 5, 6 and Table IV,
//! and the auto-tuner consumes the per-call timings as training data.

use crate::calib::KernelKind;

/// What an interval of simulated time was spent on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Component {
    /// A dense kernel on the host CPU.
    CpuKernel(KernelKind),
    /// A dense kernel on the GPU.
    GpuKernel(KernelKind),
    /// Host→device transfer.
    CopyH2D,
    /// Device→host transfer.
    CopyD2H,
    /// Device→device peer transfer over the p2p link.
    CopyP2P,
    /// Pinned host memory allocation.
    PinnedAlloc,
    /// Host-side memory operation (extend-add assembly, packing).
    HostMemop,
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct ProfileRecord {
    /// The operation class.
    pub component: Component,
    /// Floating-point operations (0 for transfers).
    pub ops: f64,
    /// Bytes moved (0 for kernels).
    pub bytes: usize,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

impl ProfileRecord {
    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Achieved rate in flop/s (kernels only).
    pub fn rate(&self) -> f64 {
        if self.ops > 0.0 && self.duration() > 0.0 {
            self.ops / self.duration()
        } else {
            0.0
        }
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
    /// Fold another device's accounting into this one (parallel drivers
    /// aggregate one entry per worker machine).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_computation() {
        let r = ProfileRecord {
            component: Component::GpuKernel(KernelKind::Gemm),
            ops: 2e9,
            bytes: 0,
            start: 0.0,
            end: 0.01,
        };
        assert!((r.rate() - 2e11).abs() < 1.0);
        let t = ProfileRecord {
            component: Component::CopyH2D,
            ops: 0.0,
            bytes: 8,
            start: 0.0,
            end: 0.01,
        };
        assert_eq!(t.rate(), 0.0);
    }
}
