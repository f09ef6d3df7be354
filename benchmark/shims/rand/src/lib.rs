//! Offline stand-in for the `rand` crate (0.8 surface as the workspace
//! uses it): [`RngCore`], [`Rng`], [`SeedableRng`], [`rngs::StdRng`] and
//! [`thread_rng`].
//!
//! The generator is xoshiro256++ seeded through splitmix64. It is
//! deterministic per seed, which is all the workspace asks of `StdRng`
//! (fault schedules and YCSB streams); it does not reproduce the real
//! crate's streams and is not cryptographic.

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// A type [`Rng::gen`] can produce.
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 random bits.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl<const N: usize> Standard for [u8; N] {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let mut out = [0u8; N];
        rng.fill_bytes(&mut out);
        out
    }
}

/// A range [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one value from the range. Panics if the range is empty.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform in `[0, span)` by widening multiply (bias below 2^-64 per
/// draw, irrelevant at the spans used here).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}
range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                self.start + (self.end - self.start) * <$t as Standard>::sample(rng)
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                lo + (hi - lo) * <$t as Standard>::sample(rng)
            }
        }
    )*};
}
range_float!(f32, f64);

/// A buffer [`Rng::fill`] can fill.
pub trait Fill {
    /// Overwrite `self` with random data.
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

impl<const N: usize> Fill for [u8; N] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

/// Convenience methods on every [`RngCore`].
pub trait Rng: RngCore {
    /// A random value of type `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniformly distributed over `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Fill `dest` with random data.
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T) {
        dest.fill_from(self);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Build from a 64-bit seed: equal seeds give equal streams.
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The standard seedable generator (xoshiro256++ here).
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
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

    /// Handle to the calling thread's generator. See [`super::thread_rng`].
    #[derive(Clone, Copy, Debug)]
    pub struct ThreadRng;

    impl RngCore for ThreadRng {
        fn next_u64(&mut self) -> u64 {
            super::THREAD_RNG.with(|r| r.borrow_mut().next_u64())
        }
    }
}

thread_local! {
    static THREAD_RNG: std::cell::RefCell<rngs::StdRng> = {
        use std::hash::{BuildHasher, Hasher};
        // RandomState draws per-process keys from the OS; mixing in the
        // clock and thread id separates threads.
        let mut h = std::collections::hash_map::RandomState::new().build_hasher();
        h.write_u128(
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos()),
        );
        std::hash::Hash::hash(&std::thread::current().id(), &mut h);
        std::cell::RefCell::new(rngs::StdRng::seed_from_u64(h.finish()))
    };
}

/// The calling thread's lazily-seeded generator.
pub fn thread_rng() -> rngs::ThreadRng {
    rngs::ThreadRng
}

/// One random value from the calling thread's generator.
pub fn random<T: Standard>() -> T {
    thread_rng().gen()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = rngs::StdRng::seed_from_u64(7);
        let mut b = rngs::StdRng::seed_from_u64(7);
        let mut c = rngs::StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = rngs::StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!((3..9usize).contains(&r.gen_range(3..9usize)));
            assert!((1..=100u32).contains(&r.gen_range(1..=100u32)));
            assert!((-5..5i32).contains(&r.gen_range(-5..5i32)));
            let f = r.gen_range(0.5..=1.0f64);
            assert!((0.5..=1.0).contains(&f));
            let u: f64 = r.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn fill_covers_odd_lengths() {
        let mut r = rngs::StdRng::seed_from_u64(2);
        let mut buf = [0u8; 13];
        r.fill(&mut buf[..]);
        assert!(buf.iter().any(|&b| b != 0));
        let _: [u8; 16] = thread_rng().gen();
    }
}
