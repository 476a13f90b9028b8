//! Offline shim for `proptest` 1 (see `shims/README.md`).
//!
//! Samples strategies with a deterministic per-test RNG (seeded from
//! the test's module path and case index) instead of proptest's
//! adaptive runner. There is **no shrinking**: a failing case panics
//! with the sampled values still bound, so the assertion message plus
//! the deterministic seed reproduce it exactly.

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A recipe for generating values of `Self::Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draw one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Map generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { source: self, f }
        }

        /// Generate a value, then sample the strategy `f` builds from it.
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
        {
            FlatMap { source: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.source.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMap<S, F> {
        source: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;

        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.source.sample(rng)).sample(rng)
        }
    }

    macro_rules! impl_int_range {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        rng.next_u64() as $t
                    } else {
                        lo + (rng.next_u64() % (span + 1)) as $t
                    }
                }
            }
        )*};
    }

    impl_int_range!(u8, u16, u32, u64, usize);

    macro_rules! impl_signed_range {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i64).wrapping_sub(self.start as i64) as u64;
                    self.start.wrapping_add((rng.next_u64() % span) as $t)
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                    if span == u64::MAX {
                        rng.next_u64() as $t
                    } else {
                        lo.wrapping_add((rng.next_u64() % (span + 1)) as $t)
                    }
                }
            }
        )*};
    }

    impl_signed_range!(i8, i16, i32, i64, isize);

    macro_rules! impl_float_range {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    self.start + rng.unit_f64() as $t * (self.end - self.start)
                }
            }

            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    lo + rng.unit_f64() as $t * (hi - lo)
                }
            }
        )*};
    }

    impl_float_range!(f32, f64);

    macro_rules! impl_tuple_strategy {
        ($(($($t:ident),+))*) => {$(
            #[allow(non_snake_case)]
            impl<$($t: Strategy),+> Strategy for ($($t,)+) {
                type Value = ($($t::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($t,)+) = self;
                    ($($t.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
        (A, B, C, D, E)
        (A, B, C, D, E, F)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Length specification for [`vec()`]: an exact `usize` or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from a [`SizeRange`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Build a [`VecStrategy`].
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_exclusive - self.size.lo) as u64;
            let len = self.size.lo + (rng.next_u64() % span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// Runner configuration (field-update syntax compatible).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required per test.
        pub cases: u32,
        /// Maximum rejected cases (via `prop_assume!`) before the test
        /// aborts.
        pub max_global_rejects: u32,
        /// Unused (shrinking is not implemented); kept for source
        /// compatibility.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_global_rejects: 65_536,
                max_shrink_iters: 0,
            }
        }
    }

    /// Marker returned by `prop_assume!` when a case is discarded.
    #[derive(Debug, Clone, Copy)]
    pub struct Rejection;

    /// Deterministic per-test RNG (SplitMix64 over a name-derived seed).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        base: u64,
        state: u64,
    }

    impl TestRng {
        /// Seed from a stable string (the test's module path + name).
        pub fn deterministic(name: &str) -> Self {
            // FNV-1a over the name: stable across runs and platforms.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { base: h, state: h }
        }

        /// Rewind to the start of case `case` (cases are independent).
        pub fn reseed_case(&mut self, case: u64) {
            self.state = self
                .base
                .wrapping_add(case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }

        /// Next 64 random bits (SplitMix64).
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Define property tests. Each `pat in strategy` binding is sampled per
/// case; the body runs `config.cases` times with deterministic seeds.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $config;
                let mut rng = $crate::test_runner::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                );
                let mut passed: u32 = 0;
                let mut rejected: u32 = 0;
                let mut case: u64 = 0;
                while passed < config.cases {
                    rng.reseed_case(case);
                    case += 1;
                    $(let $pat = $crate::strategy::Strategy::sample(&($strat), &mut rng);)+
                    let outcome: ::std::result::Result<(), $crate::test_runner::Rejection> =
                        (|| {
                            $body
                            #[allow(unreachable_code)]
                            ::std::result::Result::Ok(())
                        })();
                    match outcome {
                        ::std::result::Result::Ok(()) => passed += 1,
                        ::std::result::Result::Err(_) => {
                            rejected += 1;
                            assert!(
                                rejected <= config.max_global_rejects,
                                "too many prop_assume! rejections ({rejected}) in {}",
                                stringify!($name),
                            );
                        }
                    }
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($pat in $strat),+) $body
            )*
        }
    };
}

/// Assert a condition inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// Assert equality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

/// Assert inequality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_ne!($a, $b, $($fmt)+);
    };
}

/// Discard the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::Rejection);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::TestRng;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::deterministic("shim::ranges");
        for _ in 0..1000 {
            let v = Strategy::sample(&(3usize..17), &mut rng);
            assert!((3..17).contains(&v));
            let f = Strategy::sample(&(-1.0f64..1.0), &mut rng);
            assert!((-1.0..1.0).contains(&f));
            let i = Strategy::sample(&(0usize..=5), &mut rng);
            assert!(i <= 5);
        }
    }

    #[test]
    fn determinism_same_seed_same_values() {
        let mut a = TestRng::deterministic("shim::det");
        let mut b = TestRng::deterministic("shim::det");
        a.reseed_case(4);
        b.reseed_case(4);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn vec_and_flat_map_compose() {
        let mut rng = TestRng::deterministic("shim::vec");
        let strat = (2usize..8).prop_flat_map(|n| (Just(n), 0usize..=n));
        for _ in 0..200 {
            let (n, k) = Strategy::sample(&strat, &mut rng);
            assert!(k <= n);
            let v = Strategy::sample(&crate::collection::vec(0.0f64..1.0, 1..5), &mut rng);
            assert!(!v.is_empty() && v.len() < 5);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// The macro itself: bindings, assume, and assertions.
        fn macro_works((n, k) in (2usize..10).prop_flat_map(|n| (Just(n), 0usize..10)),
                       x in 0.0f64..1.0) {
            prop_assume!(k < n);
            prop_assert!(k < n);
            prop_assert_eq!(n, n, "n={} k={} x={}", n, k, x);
        }
    }
}
