//! Offline stand-in for the `rand` crate (0.8 API subset).
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors a minimal, deterministic implementation of the exact API its
//! code uses: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], the
//! [`Rng`] sampling methods (`gen`, `gen_bool`, `gen_range`) and
//! [`seq::SliceRandom::shuffle`]. The generator is xoshiro256** seeded
//! through SplitMix64 — high-quality, fast, and fully reproducible, which
//! is all the simulators and model trainers here need. It makes no
//! cryptographic claims whatsoever.

use std::ops::{Range, RangeInclusive};

/// Construction of a reproducible generator from a small seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a range by [`Rng::gen_range`].
pub trait SampleUniform: PartialOrd + Copy {
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi]`.
    fn sample_inclusive<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample<R: RngCore>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "cannot sample empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: RngCore>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo.wrapping_add(uniform_u64_below(rng, span) as $t)
            }
            fn sample_inclusive<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-domain range: every bit pattern is valid.
                    return rng.next_u64() as $t;
                }
                lo.wrapping_add(uniform_u64_below(rng, span) as $t)
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + (hi - lo) * unit_f64(rng)
    }
    fn sample_inclusive<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + (hi - lo) * unit_f64(rng)
    }
}

impl SampleUniform for f32 {
    fn sample_half_open<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + (hi - lo) * unit_f64(rng) as f32
    }
    fn sample_inclusive<R: RngCore>(rng: &mut R, lo: Self, hi: Self) -> Self {
        lo + (hi - lo) * unit_f64(rng) as f32
    }
}

/// Unbiased uniform draw from `[0, n)` (`n == 0` means the full 2⁶⁴ span).
fn uniform_u64_below<R: RngCore>(rng: &mut R, n: u64) -> u64 {
    if n == 0 {
        return rng.next_u64();
    }
    // Lemire's nearly divisionless rejection keeps the draw unbiased for
    // any span. The threshold `2⁶⁴ mod n` is below `n`, so a low word at
    // or above `n` is accepted without computing it: the 64-bit `%` runs
    // only on the rare draw whose low word falls below `n`.
    let mut wide = (rng.next_u64() as u128) * (n as u128);
    if (wide as u64) < n {
        let threshold = n.wrapping_neg() % n;
        while (wide as u64) < threshold {
            wide = (rng.next_u64() as u128) * (n as u128);
        }
    }
    (wide >> 64) as u64
}

/// Uniform `f64` in `[0, 1)` from the top 53 bits.
fn unit_f64<R: RngCore>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Values [`Rng::gen`] can produce.
pub trait StandardDistributed {
    /// One standard draw.
    fn standard<R: RngCore>(rng: &mut R) -> Self;
}

impl StandardDistributed for f64 {
    fn standard<R: RngCore>(rng: &mut R) -> Self {
        unit_f64(rng)
    }
}

impl StandardDistributed for f32 {
    fn standard<R: RngCore>(rng: &mut R) -> Self {
        unit_f64(rng) as f32
    }
}

impl StandardDistributed for u64 {
    fn standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardDistributed for u32 {
    fn standard<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardDistributed for bool {
    fn standard<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The raw 64-bit source every sampler draws from.
pub trait RngCore {
    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64;
}

/// Convenience sampling methods, blanket-implemented for every source.
pub trait Rng: RngCore {
    /// A standard draw of `T` (uniform `[0,1)` for floats).
    fn gen<T: StandardDistributed>(&mut self) -> T
    where
        Self: Sized,
    {
        T::standard(self)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        unit_f64(self) < p.clamp(0.0, 1.0)
    }

    /// Uniform draw from a (half-open or inclusive) range.
    fn gen_range<T, RA>(&mut self, range: RA) -> T
    where
        Self: Sized,
        T: SampleUniform,
        RA: SampleRange<T>,
    {
        range.sample(self)
    }
}

impl<R: RngCore> Rng for R {}

/// Generator implementations.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256** generator (the shim's "standard" RNG).
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
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

/// Sequence helpers (`SliceRandom`).
pub mod seq {
    use super::RngCore;

    /// Shuffling and random selection on slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);

        /// Uniformly random element, `None` on an empty slice.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = super::uniform_u64_below(rng, i as u64 + 1) as usize;
                self.swap(i, j);
            }
        }

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[super::uniform_u64_below(rng, self.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{uniform_u64_below, Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x = rng.gen_range(3u32..17);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0usize..=9);
            assert!(y <= 9);
            let f = rng.gen_range(-2.0f64..2.0);
            assert!((-2.0..2.0).contains(&f));
        }
    }

    #[test]
    fn unit_floats_cover_the_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }

    /// Reference bounded draw: the rejection threshold computed up front
    /// on every call, then tested against every draw.
    fn below_eager_threshold(rng: &mut StdRng, n: u64) -> u64 {
        let threshold = n.wrapping_neg() % n;
        loop {
            let wide = (rng.next_u64() as u128) * (n as u128);
            if wide as u64 >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    #[test]
    fn lazy_threshold_draws_equal_eager_threshold_draws() {
        let mut spans = vec![
            1,
            2,
            3,
            7,
            (1 << 32) - 1,
            (1 << 32) + 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX,
        ];
        let mut pick = StdRng::seed_from_u64(11);
        spans.extend((0..1_000).map(|_| pick.gen::<u64>() >> pick.gen_range(0u32..64)));
        for n in spans.into_iter().filter(|&n| n > 0) {
            let mut lazy = StdRng::seed_from_u64(n ^ 0x5EED);
            let mut eager = lazy.clone();
            for _ in 0..1_000 {
                assert_eq!(
                    uniform_u64_below(&mut lazy, n),
                    below_eager_threshold(&mut eager, n),
                    "n = {n}"
                );
            }
            // Equal draw counts keep the two streams in lockstep.
            assert_eq!(lazy.next_u64(), eager.next_u64(), "n = {n}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice ordered");
    }
}
