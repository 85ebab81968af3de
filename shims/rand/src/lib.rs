//! Offline stand-in for the `rand` crate.
//!
//! The build environment cannot reach a registry, so this workspace
//! vendors the subset of `rand` 0.8 it actually uses: [`SeedableRng`],
//! [`Rng::gen_range`] / [`Rng::gen_bool`] / [`Rng::gen`] (bytes only),
//! [`rngs::StdRng`], and [`seq::SliceRandom`]'s `shuffle` and `choose`. The generator is
//! xoshiro256** seeded via SplitMix64 — statistically solid for test and
//! benchmark workloads, deterministic per seed, but **not** the same
//! stream as upstream `StdRng` (which is ChaCha12). Nothing in this
//! repository depends on the exact stream, only on determinism.

use std::ops::{Range, RangeInclusive};

/// Core entropy source: everything above is derived from `next_u64`.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from seed material (the subset used: `seed_from_u64`).
pub trait SeedableRng: Sized {
    /// Builds a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that `gen_range` can sample uniformly from a range of.
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty => $wide:ty),+ $(,)?) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range: empty range {lo}..={hi}");
                let span = (hi as $wide).wrapping_sub(lo as $wide) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add((rng.next_u64() % (span + 1)) as $t)
            }
        }
    )+};
}

impl_sample_int!(
    u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
    i8 => u64, i16 => u64, i32 => u64, i64 => u64, isize => u64,
);

macro_rules! impl_sample_float {
    ($($t:ty),+) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "gen_range: empty range {lo}..{hi}");
                let unit = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                let x = lo + (hi - lo) * unit;
                // Rounding can land exactly on `hi`; clamp back inside.
                if x < hi { x } else { lo }
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "gen_range: empty range {lo}..={hi}");
                let unit = (rng.next_u64() >> 11) as $t / ((1u64 << 53) - 1) as $t;
                lo + (hi - lo) * unit
            }
        }
    )+};
}

impl_sample_float!(f32, f64);

/// Ranges acceptable to [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Types `Rng::gen` can produce directly.
pub trait Standard: Sized {
    /// Draws one value from the type's full/natural distribution.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u8 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as u8
    }
}

/// The user-facing sampling interface (subset of `rand::Rng`).
pub trait Rng: RngCore {
    /// Uniform draw from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} out of range");
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// A value from the type's natural distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    /// xoshiro256** (Blackman & Vigna), seeded through SplitMix64 as its
    /// authors recommend. Same name as upstream's default so call sites
    /// compile unchanged; the stream differs.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

pub mod seq {
    //! Sequence helpers (subset of `rand::seq`).

    use super::{Rng, RngCore};

    /// Slice extensions: Fisher–Yates shuffle and uniform choice.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Uniform in-place permutation.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);

        /// A uniformly chosen element, `None` when empty.
        fn choose<'a, R: RngCore + ?Sized>(&'a self, rng: &mut R) -> Option<&'a Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..=i);
                self.swap(i, j);
            }
        }

        fn choose<'a, R: RngCore + ?Sized>(&'a self, rng: &mut R) -> Option<&'a T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.gen_range(-5i64..17);
            assert!((-5..17).contains(&x));
            let y = rng.gen_range(3u8..=9);
            assert!((3..=9).contains(&y));
            let f = rng.gen_range(0.25f64..1.75);
            assert!((0.25..1.75).contains(&f));
            let g = rng.gen_range(-1.0f64..=1.0);
            assert!((-1.0..=1.0).contains(&g));
        }
    }

    #[test]
    fn gen_bool_respects_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
        }
    }

    #[test]
    fn gen_bool_is_roughly_fair() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements should not shuffle to identity");
    }
}
