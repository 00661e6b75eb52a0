//! Minimal, dependency-free stand-in for the `rand` crate (0.8 API subset).
//!
//! The build environment has no registry access, so this workspace vendors
//! the tiny slice of `rand` it actually uses: [`rngs::SmallRng`],
//! [`SeedableRng::seed_from_u64`], [`Rng::gen`] for `f64`, and
//! [`Rng::gen_range`] over integer and float ranges. The generator is a
//! deterministic xoshiro256**; streams are stable across platforms and
//! versions, which is all the synthetic workload generators require.

use std::ops::{Range, RangeInclusive};

/// A source of random 64-bit words.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (via SplitMix64 expansion).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types samplable uniformly from a full-range draw.
pub trait Standard: Sized {
    /// Sample a value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Ranges that can be sampled uniformly.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draw one value from the range. Panics on empty ranges.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (rng.next_u64() % span) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi - lo) as u64 + 1;
                if span == 0 {
                    // Full-width inclusive range.
                    return lo + rng.next_u64() as $t;
                }
                lo + (rng.next_u64() % span) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = hi.wrapping_sub(lo) as u64 + 1;
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_signed_range!(i8, i16, i32, i64, isize);

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + f64::sample(rng) * (self.end - self.start)
    }
}

impl SampleRange for RangeInclusive<f64> {
    type Output = f64;
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// Convenience sampling methods, blanket-implemented for every generator.
pub trait Rng: RngCore {
    /// Sample a value of type `T` uniformly.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Sample uniformly from a range.
    #[inline]
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output
    where
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<T: RngCore + ?Sized> Rng for T {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, deterministic generator (xoshiro256**).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SmallRng {
        #[inline]
        fn rotl(x: u64, k: u32) -> u64 {
            x.rotate_left(k)
        }
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as rand does for small seeds.
            let mut z = seed;
            let mut next = || {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            let s = [next(), next(), next(), next()];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let out = Self::rotl(self.s[1].wrapping_mul(5), 7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = Self::rotl(self.s[3], 45);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let av: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let bv: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(av, bv);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SmallRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let v = r.gen_range(3u64..17);
            assert!((3..17).contains(&v));
            let w = r.gen_range(1usize..=5);
            assert!((1..=5).contains(&w));
            let f = r.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
            let x: f64 = r.gen();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
