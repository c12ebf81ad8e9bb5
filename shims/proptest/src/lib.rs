//! Hermetic shim of `proptest`.
//!
//! Implements deterministic random property testing with the combinator
//! surface this workspace uses: range and `Just` strategies, tuples,
//! `prop_map` / `prop_flat_map`, `prop_oneof!`, `collection::vec`,
//! `any::<T>()`, and the `proptest!` / `prop_assert!` / `prop_assert_eq!`
//! macros with `ProptestConfig::with_cases`.
//!
//! Differences from real proptest: no shrinking (failures report the
//! original input) and a fixed per-property seed derived from the property
//! name, so runs are reproducible by construction.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    /// Subset of proptest's run configuration.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Failure raised by `prop_assert!` family; carries the message.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Deterministic splitmix64 RNG.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn seeded(seed: u64) -> Self {
            Self {
                state: seed ^ 0x9e37_79b9_7f4a_7c15,
            }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, bound)`; bound must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            // Modulo bias is irrelevant at test-case scale.
            self.next_u64() % bound
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// FNV-1a hash of the property name → per-property seed.
    pub fn seed_from_name(name: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::marker::PhantomData;

    /// A generator of values of type `Self::Value`.
    ///
    /// Object-safe core (`generate`) plus `Sized`-gated combinators, so
    /// `Box<dyn Strategy<Value = T>>` works for `prop_oneof!`.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    /// Choice between boxed alternatives (`prop_oneof!`), uniform or
    /// weighted per arm.
    pub struct Union<T> {
        arms: Vec<(u32, BoxedStrategy<T>)>,
        total_weight: u64,
    }

    impl<T> Union<T> {
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            Self::new_weighted(arms.into_iter().map(|a| (1, a)).collect())
        }

        pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            assert!(
                arms.iter().all(|&(w, _)| w > 0),
                "prop_oneof! weights must be positive"
            );
            let total_weight = arms.iter().map(|&(w, _)| w as u64).sum();
            Self { arms, total_weight }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let mut pick = rng.below(self.total_weight);
            for (w, arm) in &self.arms {
                if pick < *w as u64 {
                    return arm.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("pick is below the summed weights")
        }
    }

    /// Marker strategy returned by `any::<T>()`.
    pub struct Any<T> {
        pub(crate) _marker: PhantomData<T>,
    }

    macro_rules! tuple_strategy {
        ($($name:ident: $idx:tt),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A: 0);
    tuple_strategy!(A: 0, B: 1);
    tuple_strategy!(A: 0, B: 1, C: 2);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4);
    tuple_strategy!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);
}

use strategy::Strategy;
use test_runner::TestRng;

macro_rules! int_range_strategy {
    ($($t:ty),+) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo + 1) as u64;
                    if span == 0 {
                        // Full-width range; take any value.
                        return rng.next_u64() as $t;
                    }
                    (lo + rng.below(span) as i128) as $t
                }
            }
        )+
    };
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        lo + rng.unit_f64() * (hi - lo)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

/// Types with a default "anything" strategy (shim of `Arbitrary`).
pub trait ArbitraryValue {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),+) => {
        $(impl ArbitraryValue for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        })+
    };
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl<T: ArbitraryValue> Strategy for strategy::Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub mod arbitrary {
    use super::strategy::Any;
    use std::marker::PhantomData;

    /// `any::<T>()` — the default strategy for `T`.
    pub fn any<T: super::ArbitraryValue>() -> Any<T> {
        Any {
            _marker: PhantomData,
        }
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Size specification for `vec` (exact, `a..b`, or `a..=b`).
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty vec size range");
            Self {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `collection::vec(strategy, size)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::collection;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Runs one property: `cases` iterations with a deterministic RNG seeded
/// from the property name. Called by the `proptest!` macro.
pub fn run_property<S, F>(
    name: &str,
    config: &test_runner::ProptestConfig,
    strategy: &S,
    mut body: F,
) where
    S: Strategy,
    S::Value: Debug,
    F: FnMut(S::Value) -> test_runner::TestCaseResult,
{
    let mut rng = test_runner::TestRng::seeded(test_runner::seed_from_name(name));
    for case in 0..config.cases {
        let input = strategy.generate(&mut rng);
        let repr = format!("{input:?}");
        if let Err(e) = body(input) {
            panic!(
                "property '{}' failed at case {}/{}: {}\n    input: {}",
                name, case, config.cases, e.0, repr
            );
        }
    }
}

/// Defines property tests. Supports the plain form and the
/// `#![proptest_config(...)]` form used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///     #[test]
///     fn my_prop(x in 0u32..100, (a, b) in arb_pair()) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $config;
                let strategy = ($($strat,)+);
                $crate::run_property(
                    stringify!($name),
                    &config,
                    &strategy,
                    |($($pat,)+)| -> $crate::test_runner::TestCaseResult {
                        $body
                        Ok(())
                    },
                );
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
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

/// Choice among strategies yielding the same value type — uniform
/// (`prop_oneof![a, b]`) or weighted (`prop_oneof![3 => a, 1 => b]`),
/// matching the upstream macro's two forms.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new_weighted(vec![
            $( ($weight, ::std::boxed::Box::new($arm)
                as $crate::strategy::BoxedStrategy<_>) ),+
        ])
    };
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( ::std::boxed::Box::new($arm) as $crate::strategy::BoxedStrategy<_> ),+
        ])
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($left), stringify!($right), l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_even() -> impl Strategy<Value = u64> {
        (0u64..1000).prop_map(|x| x * 2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_stay_in_bounds(x in 5u32..10, y in 0.0f64..=1.0) {
            prop_assert!((5..10).contains(&x));
            prop_assert!((0.0..=1.0).contains(&y));
        }

        #[test]
        fn mapped_values_are_even(x in arb_even()) {
            prop_assert_eq!(x % 2, 0);
        }

        #[test]
        fn oneof_and_vec(v in collection::vec(prop_oneof![Just(1u8), Just(2u8)], 3..6)) {
            prop_assert!(v.len() >= 3 && v.len() < 6);
            prop_assert!(v.iter().all(|&x| x == 1u8 || x == 2u8));
        }

        #[test]
        fn flat_map_links_values((n, i) in (1usize..10).prop_flat_map(|n| (Just(n), 0usize..n))) {
            prop_assert!(i < n);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let s = (0u64..1_000_000, any::<bool>());
        let mut r1 = crate::test_runner::TestRng::seeded(42);
        let mut r2 = crate::test_runner::TestRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
        }
    }
}
