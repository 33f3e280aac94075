//! Seeded random streams. One `--seed` fans out into independent named
//! streams (right-hand sides, value perturbations, arrival times, session
//! choice), so changing how one stream is consumed never shifts another.

/// SplitMix64: tiny, fast, and good enough for workload generation.
pub struct Rng(u64);

impl Rng {
    /// The stream `name` of run seed `seed`.
    pub fn new(seed: u64, name: &str) -> Rng {
        // FNV-1a of the stream name, mixed into the seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h.rotate_left(17));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    /// Exponential with mean 1.
    pub fn exp1(&mut self) -> f64 {
        -(1.0 - self.unit()).ln()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// `n` values uniform in `[-1, 1)`.
    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.symmetric()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_name_different_stream() {
        let a: Vec<u64> =
            (0..4).map(|_| 0).scan(Rng::new(7, "rhs"), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> =
            (0..4).map(|_| 0).scan(Rng::new(7, "rhs"), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> =
            (0..4).map(|_| 0).scan(Rng::new(7, "arrivals"), |r, _| Some(r.next_u64())).collect();
        let d: Vec<u64> =
            (0..4).map(|_| 0).scan(Rng::new(8, "rhs"), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn ranges() {
        let mut r = Rng::new(1, "t");
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(6) < 6);
            assert!(r.exp1() >= 0.0);
        }
    }
}
