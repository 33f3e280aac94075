//! Offline stand-in for the `rand` crate.
//!
//! The build container has no network access, so the real `rand` cannot be
//! fetched from crates.io. This crate re-implements exactly the surface the
//! workspace uses — `StdRng::seed_from_u64`, `Rng::gen_range` over integer
//! and float ranges, and `Rng::gen` for a handful of primitives — on top of
//! xoshiro256++ seeded through SplitMix64 (the same construction the real
//! `rand` uses for `SmallRng`). Streams are deterministic per seed, which is
//! all the workspace relies on; the exact values differ from upstream
//! `rand`, and nothing here is cryptographic.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

pub mod rngs {
    pub use crate::StdRng;
    /// Alias — the workspace treats Small/Std identically.
    pub type SmallRng = crate::StdRng;
}

pub mod prelude {
    pub use crate::rngs::StdRng;
    pub use crate::{Rng, RngCore, SeedableRng};
}

/// Minimal core trait: a source of uniform `u64`s.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from seeds (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;

    /// Build from OS entropy — here: from a fixed constant mixed with the
    /// address of a stack local, good enough for the non-test paths that
    /// want "some" seed. Deterministic builds should use `seed_from_u64`.
    fn from_entropy() -> Self {
        let marker = 0u8;
        Self::seed_from_u64(0x9E37_79B9_7F4A_7C15 ^ (&marker as *const u8 as u64))
    }
}

/// Sampling helpers (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Uniform sample from a range (see [`SampleRange`] impls).
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T
    where
        Self: Sized,
    {
        range.sample_from(self)
    }

    /// Uniform sample of a primitive (see [`Standard`] impls).
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        (self.next_u64() >> 11) as f64 / ((1u64 << 53) as f64) < p
    }
}

impl<R: RngCore> Rng for R {}

/// Types uniformly samplable over their full domain (`Rng::gen`).
pub trait Standard: Sized {
    /// Draw one uniform value.
    fn sample<R: RngCore>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        // 53 uniform bits in [0, 1).
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for f32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }
}

impl Standard for bool {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u64 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

/// Ranges a uniform value can be drawn from (`Rng::gen_range`).
pub trait SampleRange<T> {
    /// Draw one uniform value from the range.
    fn sample_from<R: RngCore>(self, rng: &mut R) -> T;
}

/// Unbiased integer sampling on `[0, bound)` via Lemire-style rejection.
fn uniform_below(rng: &mut impl RngCore, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let threshold = bound.wrapping_neg() % bound;
    loop {
        let x = rng.next_u64();
        let hi = ((x as u128 * bound as u128) >> 64) as u64;
        let lo = x.wrapping_mul(bound);
        if lo >= threshold {
            return hi;
        }
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + uniform_below(rng, span) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-domain u64-sized range.
                    return lo.wrapping_add(rng.next_u64() as $t);
                }
                lo + uniform_below(rng, span) as $t
            }
        }
    )*};
}

impl_int_range!(usize, u64, u32, u16, u8);

macro_rules! impl_signed_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_from<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                (self.start as i64).wrapping_add(uniform_below(rng, span) as i64) as $t
            }
        }
    )*};
}

impl_signed_range!(i64, i32, i16, i8, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + u * (self.end - self.start)
    }
}

impl SampleRange<f32> for Range<f32> {
    fn sample_from<R: RngCore>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u = (rng.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        self.start + u * (self.end - self.start)
    }
}

/// xoshiro256++ — the default generator. Deterministic per seed.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl SeedableRng for StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 expansion, as recommended by the xoshiro authors.
        let mut x = seed;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        StdRng { s: [next(), next(), next(), next()] }
    }
}

impl RngCore for StdRng {
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xa: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let xb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let xc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..1000 {
            let x = rng.gen_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0usize..=5);
            assert!(y <= 5);
            let f = rng.gen_range(-1.0..1.0);
            assert!((-1.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_domain() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 6];
        for _ in 0..300 {
            seen[rng.gen_range(0usize..6)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_float_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
