//! The harness's own arithmetic on samples.

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; the mean of the two middle samples when the count is even.
/// Panics on an empty slice: a workload that produced no sample is a bug.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of an ascending slice.
pub fn percentile_sorted(s: &[f64], p: f64) -> f64 {
    assert!(!s.is_empty(), "percentile of no samples");
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// The tail percentile a sample of `n` supports: p95 when at least
/// [`MIN_BEYOND`] samples lie beyond it, otherwise the median. Only two
/// levels on purpose — the sample counts of the workloads (3–8 reps, or
/// 600+ requests) sit far from the switch at 200, so the same workload
/// never reports p95 in one run and p50 in the next.
pub fn tail_level(n: usize) -> f64 {
    if n > 0 && samples_beyond(n, 0.95) >= MIN_BEYOND {
        0.95
    } else {
        0.5
    }
}

/// `(level, value)` of the supported tail percentile.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let level = tail_level(v.len());
    if level == 0.5 {
        (level, median(v))
    } else {
        (level, percentile_sorted(&sorted(v), level))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&s, 0.95), 95.0);
        assert_eq!(percentile_sorted(&s, 0.5), 50.0);
        assert_eq!(percentile_sorted(&s, 1.0), 100.0);
        assert_eq!(percentile_sorted(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p95 of 199 samples has 199 - 190 = 9 beyond: not enough.
        assert_eq!(samples_beyond(199, 0.95), 9);
        assert_eq!(tail_level(199), 0.5);
        // 200 samples: 200 - 190 = 10 beyond.
        assert_eq!(samples_beyond(200, 0.95), 10);
        assert_eq!(tail_level(200), 0.95);
        assert_eq!(tail_level(7), 0.5);
        assert_eq!(tail_level(0), 0.5);
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&v), (0.95, 380.0));
        assert_eq!(tail(&[1.0, 2.0, 9.0]), (0.5, 2.0));
    }
}
