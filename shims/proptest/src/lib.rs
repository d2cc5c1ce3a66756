//! A std-only stand-in for the subset of the `proptest` property-testing
//! framework this workspace uses.
//!
//! The build environment is fully offline with no crates.io registry, so the
//! real `proptest` crate cannot be resolved. This shim keeps the workspace's
//! property tests (`tests/property_based.rs`) compiling and running: it
//! provides the [`Strategy`] trait with `prop_map`/`prop_flat_map`, range and
//! `collection::vec` strategies, `any::<T>()`, [`ProptestConfig`] and the
//! `proptest!` / `prop_assert*` macros.
//!
//! Differences from the real crate: values are drawn from a deterministic
//! xorshift generator seeded per test (no persistence of failing seeds) and
//! there is **no shrinking** — a failing case panics with the assertion
//! message straight away. For the invariant-style properties in this
//! workspace that trade-off is acceptable; the seed is derived from the test
//! name, so failures reproduce exactly.

#![deny(missing_docs)]

use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

/// Deterministic xorshift64* generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator from an explicit non-zero seed.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed.max(1) }
    }

    /// A generator seeded from a test name (stable across runs).
    pub fn from_name(name: &str) -> Self {
        let mut h = 0xcbf29ce484222325u64;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        Self::new(h)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform draw from `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn next_in_range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        let span = hi - lo + 1;
        lo + self.next_u64() % span
    }
}

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transforms generated values with a pure function.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { source: self, f }
    }

    /// Builds a dependent strategy from each generated value.
    fn prop_flat_map<T, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        T: Strategy,
        F: Fn(Self::Value) -> T,
    {
        FlatMap { source: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.generate(rng))
    }
}

/// Strategy returned by [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    source: S,
    f: F,
}

impl<S, T, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;

    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.source.generate(rng)).generate(rng)
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty integer range strategy");
                rng.next_in_range(self.start as u64, self.end as u64 - 1) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.next_in_range(*self.start() as u64, *self.end() as u64) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start() + rng.next_f64() * (self.end() - self.start())
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.generate(rng),
            self.1.generate(rng),
            self.2.generate(rng),
        )
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        rng.next_f64() * 2.0 - 1.0
    }
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<A> {
    _marker: PhantomData<A>,
}

impl<A: Arbitrary> Strategy for AnyStrategy<A> {
    type Value = A;

    fn generate(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }
}

/// The "any value of `A`" strategy, mirroring `proptest::prelude::any`.
pub fn any<A: Arbitrary>() -> AnyStrategy<A> {
    AnyStrategy {
        _marker: PhantomData,
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{SizeRange, Strategy, TestRng};

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.next_in_range(self.size.min as u64, self.size.max as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` of values from `element`, with a fixed or ranged length.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Inclusive length bounds for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    /// Smallest allowed length.
    pub min: usize,
    /// Largest allowed length.
    pub max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// Per-test configuration (only the case count is honoured by the shim).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Everything a property test file needs, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy,
    };
}

/// Asserts a condition inside a property (plain `assert!` in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tokens:tt)*) => { assert!($($tokens)*) };
}

/// Asserts equality inside a property (plain `assert_eq!` in the shim).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tokens:tt)*) => { assert_eq!($($tokens)*) };
}

/// Asserts inequality inside a property (plain `assert_ne!` in the shim).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tokens:tt)*) => { assert_ne!($($tokens)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...)` body runs
/// for `cases` deterministic random draws.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $config;
                let mut rng = $crate::TestRng::from_name(stringify!($name));
                for _case in 0..config.cases {
                    $(let $arg = $crate::Strategy::generate(&($strategy), &mut rng);)+
                    $body
                }
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $(
                $(#[$meta])*
                fn $name($($arg in $strategy),+) $body
            )*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::TestRng;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..200 {
            let v = Strategy::generate(&(3usize..9), &mut rng);
            assert!((3..9).contains(&v));
            let f = Strategy::generate(&(-2.0..5.0_f64), &mut rng);
            assert!((-2.0..5.0).contains(&f));
            let b = Strategy::generate(&(0u8..=1), &mut rng);
            assert!(b <= 1);
        }
    }

    #[test]
    fn vec_strategy_honours_fixed_and_ranged_sizes() {
        let mut rng = TestRng::new(11);
        let fixed = Strategy::generate(&crate::collection::vec(0.0..1.0_f64, 12), &mut rng);
        assert_eq!(fixed.len(), 12);
        for _ in 0..100 {
            let ranged = Strategy::generate(&crate::collection::vec(0u8..=1, 2..6), &mut rng);
            assert!((2..6).contains(&ranged.len()));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut rng = TestRng::new(13);
        let strategy = (1usize..4).prop_flat_map(|n| {
            crate::collection::vec(0.0..1.0_f64, n * 2).prop_map(move |v| (n, v))
        });
        for _ in 0..50 {
            let (n, v) = Strategy::generate(&strategy, &mut rng);
            assert_eq!(v.len(), n * 2);
        }
    }

    #[test]
    fn seeding_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = TestRng::from_name("some_test");
            (0..5).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = TestRng::from_name("some_test");
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself works end to end.
        #[test]
        fn macro_generates_running_tests(x in 0usize..10, v in crate::collection::vec(0.0..1.0_f64, 1..5)) {
            prop_assert!(x < 10);
            prop_assert!(!v.is_empty());
            prop_assert_ne!(v.len(), 9);
            prop_assert_eq!(v.len(), v.len());
        }
    }
}
