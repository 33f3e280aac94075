//! What the host looked like while a workload ran: enough to tell a slow
//! solver from a slow machine. A fixed calibration loop is timed before and
//! after the workload; when the two differ by more than [`NOISY_DRIFT`] the
//! result is marked `noisy`.

use std::hint::black_box;
use std::time::Instant;

/// Calibration drift beyond which a result is marked noisy.
pub const NOISY_DRIFT: f64 = 0.05;

const CALIB_ITERS: u64 = 20_000_000;

/// Seconds for a fixed, dependent integer chain (no memory traffic, so it
/// tracks core speed and steal, not cache state). Best of three.
pub fn calibrate() -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            for _ in 0..CALIB_ITERS {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                x ^= x >> 29;
            }
            black_box(x);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Cumulative steal jiffies of all CPUs (8th value of the `cpu` line).
pub fn steal_jiffies() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines().next().and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

fn status_kb(field: &str) -> Option<f64> {
    let s = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = s.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

pub fn mem_available_bytes() -> usize {
    std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("MemAvailable:"))?;
            line.split_whitespace().nth(1)?.parse::<usize>().ok()
        })
        .map_or(1 << 30, |kb| kb * 1024)
}

/// Size of the largest cache `cpu0` reports, bytes (0 when sysfs has none).
pub fn llc_bytes() -> usize {
    let mut best = 0usize;
    for idx in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}/size");
        let Ok(s) = std::fs::read_to_string(path) else { continue };
        let s = s.trim();
        let bytes = if let Some(k) = s.strip_suffix('K') {
            k.parse::<usize>().map_or(0, |v| v << 10)
        } else if let Some(m) = s.strip_suffix('M') {
            m.parse::<usize>().map_or(0, |v| v << 20)
        } else {
            s.parse().unwrap_or(0)
        };
        best = best.max(bytes);
    }
    best
}

/// Host and noise record of one run, printed with every result.
pub struct HostRecord {
    pub nproc: usize,
    pub dense_threads: usize,
    pub llc_bytes: usize,
    pub triad_array_bytes: usize,
    pub calib_before_s: f64,
    pub calib_after_s: f64,
    pub steal_jiffies: u64,
}

impl HostRecord {
    /// After ÷ before − 1: positive when the host got slower.
    pub fn calib_drift_frac(&self) -> f64 {
        self.calib_after_s / self.calib_before_s - 1.0
    }

    pub fn noisy(&self) -> bool {
        self.calib_drift_frac().abs() > NOISY_DRIFT
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"rustc\":\"{}\",\"target_cpu\":\"{}\",\"dense_threads\":{},\
             \"llc_bytes\":{},\"triad_array_bytes\":{},\"steal_jiffies\":{},\
             \"calib_before_s\":{},\"calib_after_s\":{},\"calib_drift_frac\":{}}}",
            self.nproc,
            env!("BENCH_RUSTC_VERSION"),
            env!("BENCH_TARGET_CPU"),
            self.dense_threads,
            self.llc_bytes,
            self.triad_array_bytes,
            self.steal_jiffies,
            self.calib_before_s,
            self.calib_after_s,
            self.calib_drift_frac(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_marks_noisy() {
        let mut h = HostRecord {
            nproc: 2,
            dense_threads: 1,
            llc_bytes: 0,
            triad_array_bytes: 0,
            calib_before_s: 0.040,
            calib_after_s: 0.041,
            steal_jiffies: 0,
        };
        assert!(!h.noisy());
        h.calib_after_s = 0.056;
        assert!(h.noisy());
        assert!((h.calib_drift_frac() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn proc_readers_do_not_panic() {
        assert!(nproc() >= 1);
        assert!(peak_rss_mb() >= 0.0);
        let _ = (steal_jiffies(), llc_bytes(), mem_available_bytes());
    }
}
