//! Offline stand-in for the `proptest` property-testing crate.
//!
//! The build environment has no registry access, so this crate provides the
//! subset of the proptest API the workspace's tests actually use:
//! [`proptest!`], [`prop_compose!`], [`prop_oneof!`], the assertion macros,
//! strategies for integer/float ranges, `any::<T>()`, collections, simple
//! character-class regexes, tuples, [`Just`], `option::of`, and
//! [`sample::Index`].
//!
//! Semantics differ from upstream in two deliberate ways: case generation is
//! **deterministic** (seeded per test name, so failures reproduce without a
//! persistence file), and there is **no shrinking** — a failing case reports
//! its inputs via the panic message instead.

#![forbid(unsafe_code)]

use std::fmt;

pub mod strategy;

pub use strategy::{FnStrategy, Just, Strategy};

/// Deterministic generator handed to strategies (xoshiro256++ core).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TestRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> TestRng {
        let mut sm = seed;
        TestRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// One xoshiro256++ step.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
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

    /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let wide = (x as u128) * (bound as u128);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    /// Uniform draw in `[0.0, 1.0)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Why a single test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The property was violated; the runner panics with this message.
    Fail(String),
    /// The inputs were rejected by `prop_assume!`; the case is skipped.
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection (assumption not met) with the given message.
    pub fn reject(msg: impl Into<String>) -> TestCaseError {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "test case rejected: {m}"),
        }
    }
}

/// Result of one generated test case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; only the case count is tunable.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` accepted cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

fn env_cases() -> Option<u32> {
    std::env::var("PROPTEST_CASES").ok()?.parse().ok()
}

/// Drives one property: samples cases deterministically (seeded from the
/// test name) until `config.cases` cases were accepted or the reject budget
/// is exhausted. Panics on the first failing case.
pub fn run_cases(
    config: &ProptestConfig,
    name: &str,
    mut case: impl FnMut(&mut TestRng) -> TestCaseResult,
) {
    let cases = env_cases().unwrap_or(config.cases).max(1);
    // FNV-1a over the test name: stable per-property seed.
    let mut seed = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x1000_0000_01b3);
    }
    let mut accepted = 0u32;
    let mut attempts = 0u64;
    let max_attempts = cases as u64 * 20;
    while accepted < cases && attempts < max_attempts {
        let mut rng = TestRng::seed_from(seed ^ attempts.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        attempts += 1;
        match case(&mut rng) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject(_)) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest '{name}' failed at case {attempts}: {msg}");
            }
        }
    }
}

/// `Strategy` producers for collections.
pub mod collection {
    use super::strategy::Strategy;
    use super::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec<T>` with a uniformly drawn length in `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.len.end.saturating_sub(self.len.start).max(1) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Generates vectors of `element` with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// `Strategy` producers for optional values.
pub mod option {
    use super::strategy::Strategy;
    use super::TestRng;

    /// Strategy yielding `Some` three times out of four.
    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.0.sample(rng))
            }
        }
    }

    /// Wraps `inner` so roughly 3/4 of draws are `Some`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }
}

/// Index-style sampling helpers.
pub mod sample {
    use super::strategy::Arbitrary;
    use super::TestRng;

    /// An abstract index into a collection of as-yet-unknown size.
    #[derive(Debug, Clone, Copy)]
    pub struct Index(pub(crate) u64);

    impl Index {
        /// Maps this abstract index onto a concrete `0..size` range.
        ///
        /// # Panics
        ///
        /// Panics if `size` is zero.
        pub fn index(&self, size: usize) -> usize {
            assert!(size > 0, "Index::index(0)");
            (self.0 % size as u64) as usize
        }
    }

    impl Arbitrary for Index {
        fn arbitrary_sample(rng: &mut TestRng) -> Index {
            Index(rng.next_u64())
        }
    }
}

/// The glob-import surface mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_compose, prop_oneof,
        proptest, ProptestConfig, TestCaseError, TestCaseResult,
    };
}

/// Runs each contained `fn name(arg in strategy, ...) { body }` as a
/// property over deterministically generated cases.
///
/// Supports an optional leading `#![proptest_config(...)]` attribute.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest! { @fns cfg = $cfg; $($rest)* }
    };
    (@fns cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $cfg;
                $crate::run_cases(&__config, stringify!($name), |__rng| {
                    $(let $arg = $crate::Strategy::sample(&($strat), __rng);)+
                    let __out: $crate::TestCaseResult = (|| {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    __out
                });
            }
        )*
    };
    (@fns $($bad:tt)*) => {
        ::std::compile_error!("proptest!: expected `fn name(arg in strategy, ...) { body }` items");
    };
    ($($rest:tt)*) => {
        $crate::proptest! { @fns cfg = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Defines a function returning a composite strategy:
/// `fn name(outer: T)(inner in strategy, ...) -> Ret { body }`.
#[macro_export]
macro_rules! prop_compose {
    ($(#[$meta:meta])* $v:vis fn $name:ident($($outer:ident: $oty:ty),* $(,)?)(
        $($arg:pat in $strat:expr),+ $(,)?
    ) -> $ret:ty $body:block) => {
        $(#[$meta])*
        $v fn $name($($outer: $oty),*) -> impl $crate::Strategy<Value = $ret> {
            $crate::FnStrategy(move |__rng: &mut $crate::TestRng| {
                $(let $arg = $crate::Strategy::sample(&($strat), __rng);)+
                $body
            })
        }
    };
}

/// Picks uniformly among the argument strategies (all must share a value
/// type). Weights are not supported.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf(::std::vec![
            $($crate::strategy::boxed($strat)),+
        ])
    };
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, $($fmt)*);
    }};
}

/// `assert_ne!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, $($fmt)*);
    }};
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}
