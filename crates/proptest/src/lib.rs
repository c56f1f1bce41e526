//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no network access, so the real `proptest`
//! cannot be fetched. This crate re-implements the subset of the 1.x
//! API the workspace's property tests use:
//!
//! * the [`proptest!`] macro with `#![proptest_config(..)]` and
//!   `arg in strategy` bindings;
//! * [`strategy::Strategy`] with `prop_map` / `prop_perturb`,
//!   [`strategy::Just`], integer-range strategies, tuple strategies,
//!   and [`prop_oneof!`];
//! * [`arbitrary::any`] for the primitive types and arrays;
//! * [`collection::vec`];
//! * the `prop_assert!` / `prop_assert_eq!` / `prop_assume!` macros.
//!
//! Unlike the real crate it performs no shrinking: a failing case
//! reports its case index and RNG seed, which reproduce the run
//! (generation is deterministic per test name and case index).
//! `*.proptest-regressions` files are ignored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod test_runner {
    //! Deterministic case generation and failure plumbing.

    /// The failure carried out of a test case by `prop_assert!`-style
    /// macros.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// Builds a failure with a message.
        #[must_use]
        pub fn fail(msg: String) -> Self {
            Self(msg)
        }
    }

    impl core::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// A test-case body's result.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Per-test configuration (`#![proptest_config(..)]`).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases to run.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases per test.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Self { cases: 256 }
        }
    }

    /// The per-case random source handed to strategies
    /// (SplitMix64-based; deterministic in its seed).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator seeded from a test name and case index.
        #[must_use]
        pub fn for_case(test_name: &str, case: u32) -> Self {
            // FNV-1a over the name, mixed with the case index.
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for b in test_name.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self { state: h ^ (u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15)) }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// The next 32 random bits.
        pub fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        /// A fresh generator split off this one (used by
        /// `prop_perturb`, which takes the RNG by value).
        #[must_use]
        pub fn fork(&mut self) -> Self {
            Self { state: self.next_u64() }
        }
    }
}

pub mod strategy {
    //! Value-generation strategies and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }

        /// Maps generated values through `f` with access to a fresh
        /// RNG (the real crate's signature: the RNG is passed by
        /// value).
        fn prop_perturb<U, F>(self, f: F) -> Perturb<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value, TestRng) -> U,
        {
            Perturb { inner: self, f }
        }

        /// Type-erases the strategy (used by [`prop_oneof!`](crate::prop_oneof!)).
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Box::new(self))
        }
    }

    /// Object-safe generation, for [`BoxedStrategy`].
    trait DynStrategy {
        type Value;
        fn generate_dyn(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy> DynStrategy for S {
        type Value = S::Value;
        fn generate_dyn(&self, rng: &mut TestRng) -> S::Value {
            self.generate(rng)
        }
    }

    /// A type-erased strategy.
    pub struct BoxedStrategy<V>(Box<dyn DynStrategy<Value = V>>);

    impl<V> Strategy for BoxedStrategy<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            self.0.generate_dyn(rng)
        }
    }

    /// A uniform choice between equally-weighted boxed strategies.
    pub struct Union<V>(Vec<BoxedStrategy<V>>);

    impl<V> Union<V> {
        /// Builds the union; panics if `options` is empty.
        #[must_use]
        pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one option");
            Self(options)
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> V {
            let i = (rng.next_u64() % self.0.len() as u64) as usize;
            self.0[i].generate(rng)
        }
    }

    /// Always generates a clone of its payload.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
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
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_perturb`].
    pub struct Perturb<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value, TestRng) -> U> Strategy for Perturb<S, F> {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            let v = self.inner.generate(rng);
            (self.f)(v, rng.fork())
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + ((rng.next_u64() % span) as $t)
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + ((rng.next_u64() % (span + 1)) as $t)
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
}

pub mod arbitrary {
    //! `any::<T>()` — the canonical strategy for a type.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws one value from the full domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                #[allow(clippy::cast_possible_truncation)]
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

    impl<T: Arbitrary, const N: usize> Arbitrary for [T; N] {
        fn arbitrary(rng: &mut TestRng) -> [T; N] {
            core::array::from_fn(|_| T::arbitrary(rng))
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A `Vec` strategy: length drawn from `size`, elements from
    /// `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// Generates vectors with lengths in `size`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.clone().generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod prelude {
    //! Everything a property test needs in scope.

    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// The real crate's prelude re-exports the crate itself as
    /// `prop`, enabling `prop::collection::vec(..)`.
    pub use crate as prop;
}

/// Runs property tests: takes an optional
/// `#![proptest_config(expr)]` header followed by `#[test]` functions
/// whose arguments are `name in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr)
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let strategies = ($($strat,)+);
                let test_name = concat!(module_path!(), "::", stringify!($name));
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(test_name, case);
                    let ($($arg,)+) =
                        $crate::strategy::Strategy::generate(&strategies, &mut rng);
                    let outcome: $crate::test_runner::TestCaseResult =
                        (|| { $body Ok(()) })();
                    if let Err(e) = outcome {
                        panic!(
                            "proptest case {case}/{total} of {name} failed: {e}",
                            total = config.cases,
                            name = test_name,
                        );
                    }
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(
            @with_config ($crate::test_runner::Config::default()) $($rest)*
        );
    };
}

/// `assert!` that reports a test-case failure instead of panicking.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` that reports a test-case failure instead of panicking.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
            stringify!($a), stringify!($b), a, b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        if !(a == b) {
            return Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}\n{}",
                stringify!($a), stringify!($b), a, b, format!($($fmt)*)
            )));
        }
    }};
}

/// `assert_ne!` that reports a test-case failure instead of panicking.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: `{} != {}`\n  both: {:?}",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Skips the current case when its inputs don't satisfy a
/// precondition (no global rejection budget: the case just passes).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Ok(());
        }
    };
}

/// A uniform choice between strategies of a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat),)+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u8..9, y in 1usize..=4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn tuples_and_collections(v in prop::collection::vec((0u8..4, any::<bool>()), 0..10)) {
            prop_assert!(v.len() < 10);
            for (a, _) in &v {
                prop_assert!(*a < 4);
            }
        }

        #[test]
        fn map_and_perturb(x in (0u8..5).prop_map(u32::from),
                           p in Just(()).prop_perturb(|(), mut rng| rng.next_u32() % 3)) {
            prop_assert!(x < 5);
            prop_assert!(p < 3);
        }

        #[test]
        fn oneof_picks_from_options(o in prop_oneof![Just(1u8), Just(2u8)]) {
            prop_assert!(o == 1 || o == 2);
        }

        #[test]
        fn assume_skips(x in any::<u8>()) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::strategy::Strategy;
        let strat = (0usize..100, crate::arbitrary::any::<u64>());
        let mut a = crate::test_runner::TestRng::for_case("t", 3);
        let mut b = crate::test_runner::TestRng::for_case("t", 3);
        assert_eq!(strat.generate(&mut a), strat.generate(&mut b));
        let mut c = crate::test_runner::TestRng::for_case("t", 4);
        assert_ne!(strat.generate(&mut a), strat.generate(&mut c));
    }
}
