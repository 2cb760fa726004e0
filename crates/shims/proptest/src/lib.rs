//! Minimal in-tree stand-in for `proptest` (offline build).
//!
//! Implements the subset this workspace's property tests use: the
//! [`proptest!`] macro, [`Strategy`] for integer ranges / [`any`] /
//! [`Just`] / tuples / `prop_map` / [`prop_oneof!`] / `collection::vec`,
//! and the `prop_assert*` macros. Sampling is seeded per test from the
//! test's name, so runs are deterministic and repeatable. **No
//! shrinking**: a failing case panics with the sampled values in the
//! assertion message instead of a minimized counterexample.

use std::ops::Range;

pub use rand::rngs::SmallRng as TestRng;
use rand::{Rng, SeedableRng};

/// Per-test configuration (field subset of proptest's).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
    /// Accepted for source compatibility; the shim never shrinks.
    pub max_shrink_iters: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Real proptest defaults to 256; these suites drive real thread
        // teams per case, so the shim trims the default while staying a
        // genuine multi-case sweep.
        ProptestConfig {
            cases: 96,
            max_shrink_iters: 0,
        }
    }
}

/// Deterministic per-test generator (seeded from the test name).
pub fn test_rng(test_name: &str) -> TestRng {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng::seed_from_u64(h)
}

/// A value generator (no shrinking in the shim).
pub trait Strategy {
    /// Type of the generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )+};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types with a full-domain default strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draws a value from the type's full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.gen::<$t>()
            }
        }
    )+};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.gen::<bool>()
    }
}

/// Strategy over a type's full domain: `any::<u8>()`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// See [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Constant strategy.
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
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Even-odds choice between two strategies (built by [`prop_oneof!`]).
pub struct OneOf2<A, B> {
    a: A,
    b: B,
}

impl<A, B> OneOf2<A, B> {
    /// Combines two strategies of the same value type.
    pub fn new(a: A, b: B) -> Self {
        OneOf2 { a, b }
    }
}

impl<V, A: Strategy<Value = V>, B: Strategy<Value = V>> Strategy for OneOf2<A, B> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        if rng.gen::<bool>() {
            self.a.sample(rng)
        } else {
            self.b.sample(rng)
        }
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.sample(rng), self.1.sample(rng))
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Vector of `element`-generated values with a length drawn from
    /// `size`.
    pub fn vec<S: Strategy>(element: S, size: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: std::ops::Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = if self.size.is_empty() {
                self.size.start
            } else {
                rng.gen_range(self.size.clone())
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a test file needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Boolean property assertion (plain `assert!` in the shim).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality property assertion (plain `assert_eq!` in the shim).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality property assertion (plain `assert_ne!` in the shim).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Choice between strategies of one value type (uniform-ish; nested
/// halving for 3+ arms).
#[macro_export]
macro_rules! prop_oneof {
    ($a:expr $(,)?) => { $a };
    ($a:expr, $b:expr $(,)?) => { $crate::OneOf2::new($a, $b) };
    ($a:expr, $($rest:expr),+ $(,)?) => {
        $crate::OneOf2::new($a, $crate::prop_oneof!($($rest),+))
    };
}

/// The test-definition macro: each `fn name(arg in strategy, ...)` body
/// is run for `cases` sampled argument tuples.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { config = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (config = ($cfg:expr); ) => {};
    (config = ($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__config.cases {
                let _ = __case;
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)*
                $body
            }
        }
        $crate::__proptest_fns! { config = ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Ranges stay in bounds and tuples compose.
        #[test]
        fn sampled_values_in_range(
            x in 1usize..10,
            pair in (any::<u8>(), 0u16..5),
            v in crate::collection::vec(0u32..100, 0..8),
        ) {
            prop_assert!((1..10).contains(&x));
            prop_assert!(pair.1 < 5);
            prop_assert!(v.len() < 8);
            prop_assert!(v.iter().all(|&e| e < 100));
        }

        #[test]
        fn oneof_and_map_cover_both_arms(
            tag in prop_oneof![Just(0u8), (1u8..3).prop_map(|v| v)],
        ) {
            prop_assert!(tag < 3);
        }
    }
}
