//! Offline stand-in for the `rand` crate.
//!
//! The build environment for this workspace has no network access, so this
//! vendored shim implements exactly the API subset the workspace uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], [`Rng::random_range`]
//! and [`Rng::sample`] over integer ranges, and the precomputed
//! [`distr::Uniform`] sampler. The generator is a deterministic SplitMix64 —
//! statistically solid for scheduling workloads and reproducible per seed,
//! which is all the schedule generators need.
//!
//! Swap the workspace `[workspace.dependencies] rand` entry back to a
//! crates.io version requirement to use the real crate; no call sites need
//! to change.

#![forbid(unsafe_code)]

use std::ops::Range;

use distr::uniform::SampleUniform;
use distr::{Distribution, Uniform};

/// Seedable random number generators (subset of `rand::SeedableRng`).
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed, deterministically.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing random value generation (subset of `rand::Rng`).
pub trait Rng {
    /// Produces the next raw 64-bit output of the generator.
    fn next_u64(&mut self) -> u64;

    /// Samples uniformly from a range (subset of `rand::Rng::random_range`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Draws one value from a distribution (subset of `rand::Rng::sample`).
    fn sample<T, D: Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

/// Ranges that can be sampled from (subset of `rand::distr::SampleRange`).
pub trait SampleRange<T> {
    /// Draws one value from the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn sample_single<G: Rng + ?Sized>(self, rng: &mut G) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<G: Rng + ?Sized>(self, rng: &mut G) -> T {
        Uniform::new(self.start, self.end)
            .expect("cannot sample empty range")
            .sample(rng)
    }
}

/// Probability distributions (subset of `rand::distr`).
pub mod distr {
    use super::Rng;

    pub use uniform::Uniform;

    /// Types that can draw values of `T` (subset of
    /// `rand::distr::Distribution`).
    pub trait Distribution<T> {
        /// Draws one value from `rng`.
        fn sample<G: Rng + ?Sized>(&self, rng: &mut G) -> T;
    }

    /// Uniform sampling over integer ranges (subset of
    /// `rand::distr::uniform`).
    pub mod uniform {
        use std::fmt;

        use super::Distribution;
        use crate::Rng;

        /// Why a [`Uniform`] could not be built.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Error {
            /// `low >= high`.
            EmptyRange,
        }

        impl fmt::Display for Error {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("low >= high: empty sampling range")
            }
        }

        impl std::error::Error for Error {}

        /// Integer types a [`Uniform`] can sample.
        pub trait SampleUniform: Copy + PartialOrd {
            /// Widens to `u64` (every supported value fits).
            fn to_u64(self) -> u64;
            /// Narrows a value known to fit back.
            fn from_u64(v: u64) -> Self;
        }

        macro_rules! impl_sample_uniform {
            ($($t:ty),*) => {$(
                impl SampleUniform for $t {
                    #[inline]
                    fn to_u64(self) -> u64 {
                        self as u64
                    }
                    #[inline]
                    fn from_u64(v: u64) -> Self {
                        v as $t
                    }
                }
            )*};
        }

        impl_sample_uniform!(u64, u32, usize);

        /// A uniform sampler over `[low, high)`, built once and drawn from
        /// many times: the rejection zone and a reciprocal of the span are
        /// precomputed, so a draw is one generator step, one compare and a
        /// few multiplications — no division.
        ///
        /// The rule is rejection from the top multiple of the span: a raw
        /// draw `v` is kept iff `v < zone`, and maps to `low + v % span`,
        /// so every value is equally likely.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct Uniform<X> {
            low: X,
            span: u64,
            zone: u64,
            /// `⌈2¹²⁸ / span⌉` (unused for `span == 1`).
            reciprocal: u128,
        }

        impl<X> Uniform<X> {
            /// `v % span` by direct computation (Lemire, Kaser and Kurz,
            /// "Faster remainder by direct computation", 2019): with
            /// `c = ⌈2¹²⁸/d⌉`, `v mod d = ⌊((c·v) mod 2¹²⁸)·d / 2¹²⁸⌋`
            /// for every 64-bit `v`, because `c·d − 2¹²⁸ < d ≤ 2⁶⁴`.
            #[inline]
            pub(crate) fn remainder(&self, v: u64) -> u64 {
                if self.span == 1 {
                    return 0;
                }
                let frac = self.reciprocal.wrapping_mul(u128::from(v));
                let d = u128::from(self.span);
                // High 64 bits of the 192-bit product `frac · d`; the sum
                // stays below 2¹²⁸.
                let lo = ((frac as u64 as u128) * d) >> 64;
                (((frac >> 64) * d + lo) >> 64) as u64
            }
        }

        impl<X: SampleUniform> Uniform<X> {
            /// A sampler over `[low, high)`.
            ///
            /// # Errors
            ///
            /// [`Error::EmptyRange`] if `low >= high`.
            pub fn new(low: X, high: X) -> Result<Self, Error> {
                if low >= high {
                    return Err(Error::EmptyRange);
                }
                let span = high.to_u64() - low.to_u64();
                Ok(Uniform {
                    low,
                    span,
                    zone: u64::MAX - (u64::MAX % span),
                    reciprocal: (u128::MAX / u128::from(span)).wrapping_add(1),
                })
            }
        }

        impl<X: SampleUniform> Distribution<X> for Uniform<X> {
            #[inline]
            fn sample<G: Rng + ?Sized>(&self, rng: &mut G) -> X {
                loop {
                    let v = rng.next_u64();
                    if v < self.zone {
                        return X::from_u64(self.low.to_u64() + self.remainder(v));
                    }
                }
            }
        }
    }
}

/// Concrete generators (subset of `rand::rngs`).
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// Deterministic stand-in for `rand::rngs::StdRng`: SplitMix64.
    ///
    /// Not cryptographic (neither is the workload): chosen for speed, full
    /// 64-bit state diffusion, and a one-word state that derives cleanly
    /// from `seed_from_u64`.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl Rng for StdRng {
        fn next_u64(&mut self) -> u64 {
            // SplitMix64 (Steele, Lea, Flood 2014).
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::distr::{uniform, Uniform};
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v: usize = rng.random_range(0..5usize);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values hit: {seen:?}");
        for _ in 0..100 {
            let v: u64 = rng.random_range(10u64..12);
            assert!((10..12).contains(&v));
        }
    }

    /// The reference rule the sampler must reproduce: rejection from the
    /// top multiple of `bound`, recomputed on every draw.
    fn reference_below(rng: &mut StdRng, bound: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = rng.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    #[test]
    fn sampler_matches_random_range_stream() {
        for bound in [1, 2, 3, 7, 64, (1u64 << 32) + 1, u64::MAX] {
            let dist = Uniform::new(0, bound).unwrap();
            let mut a = StdRng::seed_from_u64(bound ^ 0x5EED);
            let mut b = a.clone();
            let mut c = a.clone();
            for _ in 0..2_000 {
                let want: u64 = b.random_range(0..bound);
                assert_eq!(a.sample(dist), want, "bound {bound}");
                assert_eq!(reference_below(&mut c, bound), want, "bound {bound}");
            }
            assert_eq!(a, b, "bound {bound}: same number of raw draws");
        }
    }

    #[test]
    fn direct_remainder_is_exact() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut spans = vec![1, 2, 3, 5, 7, 10, 64, 1000, (1 << 32) - 1, 1 << 32];
        spans.extend([
            (1 << 32) + 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ]);
        spans.extend((0..200).map(|i| rng.next_u64() >> (i % 64)));
        for span in spans.into_iter().filter(|&s| s > 0) {
            let dist = Uniform::new(0, span).unwrap();
            let mut values = vec![0, 1, span - 1, span, u64::MAX, u64::MAX - 1];
            values.extend([span.wrapping_mul(3), span.wrapping_mul(3).wrapping_sub(1)]);
            values.extend((0..200).map(|_| rng.next_u64()));
            for v in values {
                assert_eq!(dist.remainder(v), v % span, "{v} % {span}");
            }
        }
    }

    #[test]
    fn sampler_offsets_and_narrow_types() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = a.clone();
        let dist = Uniform::new(10u32, 17).unwrap();
        for _ in 0..500 {
            let v = a.sample(dist);
            assert!((10..17).contains(&v));
            assert_eq!(v, b.random_range(10u32..17));
        }
    }

    #[test]
    fn empty_sampler_is_an_error() {
        assert_eq!(Uniform::new(5u64, 5), Err(uniform::Error::EmptyRange));
        assert_eq!(Uniform::new(6usize, 5), Err(uniform::Error::EmptyRange));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _: u64 = rng.random_range(3u64..3);
    }
}
