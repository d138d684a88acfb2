//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crate registry, so this workspace vendors
//! the subset of proptest's API that its property tests use:
//!
//! * the [`proptest!`] macro (with optional `#![proptest_config(..)]`),
//! * [`prop_assert!`] / [`prop_assert_eq!`],
//! * [`strategy::Strategy`] with `prop_map` / `prop_flat_map`,
//! * [`strategy::Just`], [`arbitrary::any`], numeric range strategies,
//!   tuple strategies, [`collection::vec`], and simple `".{a,b}"` string
//!   patterns.
//!
//! **No shrinking**: on failure the harness reports the case number and
//! derived seed so the exact inputs can be regenerated (runs are
//! deterministic per test name), then panics. That keeps the shim small
//! while preserving the tests' semantics: generate N random cases, assert
//! on each.

#![warn(missing_docs)]

pub mod test_runner {
    //! Test-case driving: configuration, RNG, and the runner loop.

    /// Deterministic xoshiro256** generator feeding all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Seeds the generator from a 64-bit state via SplitMix64.
        pub fn seed_from(state: u64) -> Self {
            let mut sm = state;
            let mut next = move || {
                sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            TestRng { s: [next(), next(), next(), next()] }
        }

        /// The next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
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

        /// A uniform draw from [0, 1).
        pub fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// A uniform integer in `[lo, hi)` (as u128 to cover all int widths).
        pub fn below(&mut self, span: u128) -> u128 {
            assert!(span > 0, "cannot sample empty range");
            if span <= u64::MAX as u128 {
                (self.next_u64() as u128 * span) >> 64
            } else {
                let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
                wide % span
            }
        }
    }

    /// Runner configuration. Only `cases` is honoured by the shim.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
        /// Upper bound on shrinking steps after a failure.
        pub max_shrink_iters: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64, max_shrink_iters: 1024 }
        }
    }

    /// Why a test case failed.
    #[derive(Debug)]
    pub enum TestCaseError {
        /// An assertion failed with this message.
        Fail(String),
    }

    impl TestCaseError {
        /// Builds a failure with a message.
        pub fn fail(message: impl Into<String>) -> Self {
            TestCaseError::Fail(message.into())
        }
    }

    /// Runs a property over `config.cases` deterministic random cases.
    #[derive(Debug)]
    pub struct TestRunner {
        config: ProptestConfig,
    }

    impl TestRunner {
        /// Creates a runner with the given configuration.
        pub fn new(config: ProptestConfig) -> Self {
            TestRunner { config }
        }

        /// Drives `body` over the configured number of cases; the RNG for
        /// case `i` of test `name` is seeded from `fnv1a(name) ^ i`, so a
        /// failure report identifies the exact inputs.
        pub fn run_named<F>(&mut self, name: &str, mut body: F)
        where
            F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
        {
            let base = fnv1a(name.as_bytes());
            for case in 0..self.config.cases {
                let seed = base ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut rng = TestRng::seed_from(seed);
                if let Err(TestCaseError::Fail(msg)) = body(&mut rng) {
                    panic!(
                        "property '{name}' failed at case {case}/{total} (case seed {seed:#x}): {msg}",
                        total = self.config.cases,
                    );
                }
            }
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }
}

pub mod strategy {
    //! Value-generation strategies and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating random values of an associated type.
    pub trait Strategy {
        /// The type of value this strategy produces.
        type Value;

        /// Generates one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates a value, then generates from the strategy `f` returns.
        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Always produces a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
        type Value = T::Value;
        fn generate(&self, rng: &mut TestRng) -> T::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128).wrapping_sub(self.start as u128);
                    (self.start as u128).wrapping_add(rng.below(span)) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as u128).wrapping_sub(lo as u128).wrapping_add(1);
                    (lo as u128).wrapping_add(rng.below(span)) as $t
                }
            }
        )*};
    }
    impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for std::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit() * (self.end - self.start)
        }
    }

    impl Strategy for std::ops::RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            lo + rng.unit() * (hi - lo)
        }
    }

    /// `&str` strategies are simple patterns: `".{a,b}"` produces a
    /// printable-ASCII string of length `a..=b`; any other pattern
    /// produces an alphanumeric string of length 0..=16.
    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> String {
            let (lo, hi) = parse_dot_repeat(self).unwrap_or((0, 16));
            let len = lo + rng.below((hi - lo + 1) as u128) as usize;
            (0..len)
                .map(|_| {
                    // Printable ASCII, 0x21..=0x7e.
                    char::from(0x21 + rng.below(0x5e) as u8)
                })
                .collect()
        }
    }

    fn parse_dot_repeat(pattern: &str) -> Option<(usize, usize)> {
        let body = pattern.strip_prefix(".{")?.strip_suffix('}')?;
        let (lo, hi) = body.split_once(',')?;
        Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
    }

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
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod arbitrary {
    //! `any::<T>()` — full-domain strategies for primitive types.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy.
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.unit()
        }
    }

    /// The strategy returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy over the whole domain of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// An inclusive-exclusive or inclusive-inclusive size bound.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi_inclusive: r.end - 1 }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { lo: *r.start(), hi_inclusive: *r.end() }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_inclusive: n }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_inclusive - self.size.lo + 1) as u128;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `Vec` whose length is drawn from `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

/// One-stop imports mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};

    /// The `prop` module alias (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Asserts a condition inside a property body; on failure the current
/// case is reported with its seed and the test panics.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running the body over many random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$attr:meta])*
     fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$attr])*
        fn $name() {
            let mut __runner = $crate::test_runner::TestRunner::new($cfg);
            __runner.run_named(stringify!($name), |__rng| {
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), __rng);)*
                $body
                ::std::result::Result::Ok(())
            });
        }
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 5u64..10, y in 0usize..=3, z in 0.0f64..1.0) {
            prop_assert!((5..10).contains(&x));
            prop_assert!(y <= 3);
            prop_assert!((0.0..1.0).contains(&z));
        }

        #[test]
        fn tuples_and_vecs_compose(
            v in prop::collection::vec((0u8..4, 0u64..8), 1..20),
            s in ".{1,8}",
        ) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            for (a, b) in &v {
                prop_assert!(*a < 4 && *b < 8);
            }
            prop_assert!((1..=8).contains(&s.chars().count()), "len {}", s.len());
        }

        #[test]
        fn map_and_flat_map_chain(
            pair in (1u64..5).prop_flat_map(|n| (Just(n), 0u64..n)).prop_map(|(n, k)| (n, k)),
        ) {
            prop_assert!(pair.1 < pair.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 7, ..ProptestConfig::default() })]
        #[test]
        fn config_cases_is_honoured(_x in any::<u64>()) {
            // Body intentionally trivial; the runner loop count is the test.
        }
    }

    #[test]
    #[should_panic(expected = "property 'always_fails' failed")]
    fn failures_panic_with_case_info() {
        proptest! {
            fn always_fails(x in 0u64..10) {
                prop_assert!(x > 100, "x was {x}");
            }
        }
        always_fails();
    }
}
