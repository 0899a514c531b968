//! Offline shim for `proptest`.
//!
//! Implements the subset the workspace's property tests use: the
//! [`proptest!`] macro (with optional `#![proptest_config(...)]`),
//! range / tuple / `prop::collection::vec` / [`any`] strategies, and the
//! `prop_assert*` macros. Sampling is uniform and deterministic — each
//! test derives its RNG stream from the test name and case index — and
//! there is **no shrinking**: a failing case panics with the standard
//! assert message. That trades minimal counterexamples for zero
//! dependencies, which is the right trade in an offline build.

#![warn(missing_docs)]

use std::ops::Range;

/// Per-test configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each test runs.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// Config running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Deterministic per-test random source (SplitMix64).
pub struct TestRunner {
    state: u64,
}

impl TestRunner {
    /// Seeds the runner from the test name; every case re-seeds with
    /// [`TestRunner::begin_case`] so cases are independent of how many
    /// samples earlier cases drew.
    pub fn new(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRunner { state: h }
    }

    /// Re-seeds deterministically for case number `case`.
    pub fn begin_case(&mut self, base: u64, case: u32) {
        self.state = base ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(case as u64 + 1));
    }

    /// The seed derived from the test name (pass back to `begin_case`).
    pub fn base_seed(&self) -> u64 {
        self.state
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }
}

/// A source of random values of an associated type.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value;

    /// Draws one value.
    fn sample(&self, runner: &mut TestRunner) -> Self::Value;
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, runner: &mut TestRunner) -> f64 {
        assert!(self.start < self.end, "empty range");
        self.start + (self.end - self.start) * runner.f64_unit()
    }
}

macro_rules! int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, runner: &mut TestRunner) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end - self.start) as u64;
                self.start + (runner.next_u64() % span) as $t
            }
        }
    )*};
}

int_strategy!(usize, u64, u32, i64, i32);

macro_rules! tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, runner: &mut TestRunner) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(runner),)+)
            }
        }
    };
}

tuple_strategy!(A);
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);

/// Strategy for arbitrary values of a primitive type (see [`any`]).
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

/// `any::<T>()`: arbitrary values of `T`.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy,
{
    Any { _marker: std::marker::PhantomData }
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn sample(&self, runner: &mut TestRunner) -> bool {
        runner.next_u64() & 1 == 1
    }
}

impl Strategy for Any<u64> {
    type Value = u64;
    fn sample(&self, runner: &mut TestRunner) -> u64 {
        runner.next_u64()
    }
}

impl Strategy for Any<f64> {
    type Value = f64;
    fn sample(&self, runner: &mut TestRunner) -> f64 {
        // Finite, sign-balanced, magnitude-spread values.
        let m = runner.f64_unit() * 2.0 - 1.0;
        let e = runner.usize_in(0, 40) as i32 - 20;
        m * 2f64.powi(e)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod prop {
    /// Collection strategies.
    pub mod collection {
        use super::super::{Strategy, TestRunner};
        use std::ops::Range;

        /// Strategy producing `Vec`s with a size drawn from a range.
        pub struct VecStrategy<S> {
            element: S,
            size: Range<usize>,
        }

        /// Vectors of `size` elements drawn from `element`.
        pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
            VecStrategy { element, size }
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn sample(&self, runner: &mut TestRunner) -> Vec<S::Value> {
                let n = runner.usize_in(self.size.start, self.size.end);
                (0..n).map(|_| self.element.sample(runner)).collect()
            }
        }
    }
}

/// Common imports for property tests.
pub mod prelude {
    pub use crate::{any, prop, ProptestConfig, Strategy, TestRunner};
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Asserts inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Defines property tests: each `fn name(pat in strategy, ...)` becomes
/// a `#[test]` running `config.cases` sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items!{ ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr);) => {};
    (($cfg:expr); $(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut runner = $crate::TestRunner::new(stringify!($name));
            let base = runner.base_seed();
            for case in 0..config.cases {
                runner.begin_case(base, case);
                $(let $pat = $crate::Strategy::sample(&($strat), &mut runner);)*
                $body
            }
        }
        $crate::__proptest_items!{ ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Ranges produce in-bound values.
        #[test]
        fn ranges_in_bounds(x in -5.0f64..5.0, n in 3usize..9) {
            prop_assert!((-5.0..5.0).contains(&x));
            prop_assert!((3..9).contains(&n));
        }

        /// Vec strategies honour the size range.
        #[test]
        fn vec_sizes(v in prop::collection::vec(0.0f64..1.0, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }

        /// Tuple strategies sample componentwise.
        #[test]
        fn tuples(t in (0.0f64..1.0, 10usize..20, any::<bool>())) {
            prop_assert!((0.0..1.0).contains(&t.0));
            prop_assert!((10..20).contains(&t.1));
            let _: bool = t.2;
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRunner::new("t");
        let mut b = TestRunner::new("t");
        let base_a = a.base_seed();
        let base_b = b.base_seed();
        a.begin_case(base_a, 3);
        b.begin_case(base_b, 3);
        let s = 0.0f64..1.0;
        assert_eq!(s.sample(&mut a), s.sample(&mut b));
    }
}
