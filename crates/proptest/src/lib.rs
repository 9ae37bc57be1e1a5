//! Offline shim for [proptest](https://crates.io/crates/proptest).
//!
//! The build environment for this repository has no network access, so the
//! real proptest crate cannot be downloaded. This in-workspace substitute
//! (selected with `[patch.crates-io]`) implements the subset of the
//! proptest 1.x API that the repository's tests use:
//!
//! * the [`proptest!`] macro (with `#![proptest_config(..)]` and multiple
//!   `name in strategy` parameters),
//! * [`Strategy`] with [`Strategy::prop_map`],
//! * [`Just`], `any::<T>()` for the primitive types, integer ranges as
//!   strategies, and `proptest::collection::vec`,
//! * [`prop_oneof!`] (weighted and unweighted),
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`,
//! * [`ProptestConfig::with_cases`].
//!
//! Differences from real proptest, deliberately accepted for an offline
//! test harness: inputs are generated from a deterministic per-test RNG
//! (override with `PROPTEST_SEED`), there is **no shrinking**, and
//! `prop_assert*` panics immediately (the failing case index is printed).

#![warn(rust_2018_idioms)]

use std::ops::Range;

/// Deterministic splitmix64 generator driving all strategies.
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// RNG for a named test, perturbed by `PROPTEST_SEED` if set.
    pub fn for_test(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
        if let Ok(seed) = std::env::var("PROPTEST_SEED") {
            if let Ok(s) = seed.parse::<u64>() {
                h ^= s;
            }
        }
        TestRng(h)
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// How many random cases each property runs.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases (the only knob the shim honours).
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Failure type for fallible property bodies (`-> Result<(), TestCaseError>`
/// helpers used with `?`). The shim's `prop_assert*` macros panic instead of
/// returning this, but the type must exist for such signatures to compile,
/// and an explicit `Err` fails the property like a panic would.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The property does not hold.
    Fail(String),
    /// The generated input was rejected (shim treats it as a failure,
    /// since it cannot regenerate).
    Reject(String),
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "property failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
        }
    }
}

impl std::error::Error for TestCaseError {}

/// A generator of test inputs. The shim's strategies generate directly —
/// there is no value tree and no shrinking.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

impl<V> Strategy for Box<dyn Strategy<Value = V>> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Box a strategy for heterogeneous unions ([`prop_oneof!`]).
pub fn box_strategy<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
    Box::new(s)
}

/// Strategy returned by [`Strategy::prop_map`].
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

/// A strategy that always yields a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Generate an arbitrary value of this type.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arb_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t { rng.next_u64() as $t }
        }
    )*};
}
arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for char {
    fn arbitrary(rng: &mut TestRng) -> char {
        char::from_u32((rng.next_u64() % 0xD800) as u32).unwrap_or('a')
    }
}

/// Strategy produced by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// `any::<T>()` — the full value range of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (s, e) = (*self.start(), *self.end());
                assert!(s <= e, "empty range strategy");
                let span = (e as u64).wrapping_sub(s as u64).wrapping_add(1);
                if span == 0 { rng.next_u64() as $t } else { s.wrapping_add(rng.below(span) as $t) }
            }
        }
    )*};
}
range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for () {
    type Value = ();
    fn generate(&self, _rng: &mut TestRng) {}
}

macro_rules! tuple_strategy {
    ($(($($s:ident),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($s,)+) = self;
                ($($s.generate(rng),)+)
            }
        }
    )*};
}
tuple_strategy!((A)(A, B)(A, B, C)(A, B, C, D)(A, B, C, D, E)(
    A, B, C, D, E, F
));

/// Weighted union of boxed strategies — the engine behind [`prop_oneof!`].
pub struct Union<V> {
    arms: Vec<(u32, Box<dyn Strategy<Value = V>>)>,
}

impl<V> Union<V> {
    /// A union of `(weight, strategy)` arms; weights must sum to nonzero.
    pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = V>>)>) -> Union<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
        let mut pick = rng.below(total.max(1));
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        self.arms.last().unwrap().1.generate(rng)
    }
}

/// Collection strategies (`proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `vec(element, len_range)` — a vector of `element`s.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        vec_range(element, size)
    }

    fn vec_range<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = self.size.end.saturating_sub(self.size.start).max(1);
            let len = self.size.start + rng.below(span as u64) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a test file needs, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Run `cases` generated cases of a property (support code for
/// [`proptest!`]; not part of the public proptest API).
pub fn run_cases<F: FnMut(&mut TestRng, u32)>(name: &str, config: ProptestConfig, mut case: F) {
    let mut rng = TestRng::for_test(name);
    for i in 0..config.cases {
        case(&mut rng, i);
    }
}

/// The property-test entry macro. Each `fn name(arg in strategy, ..)` body
/// runs once per generated case; panics (from `prop_assert*` or anything
/// else) fail the test after printing the case number.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(stringify!($name), config, |rng, case| {
                    $(let $arg = $crate::Strategy::generate(&($strat), rng);)+
                    // The Result wrapper lets bodies use `?` with
                    // TestCaseError-returning helpers, as real proptest does.
                    let outcome = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                        || -> ::std::result::Result<(), $crate::TestCaseError> { $body Ok(()) }
                    ));
                    match outcome {
                        Ok(Ok(())) => {}
                        Ok(Err(err)) => {
                            panic!(
                                "proptest shim: property {} failed at case {}: {} (set PROPTEST_SEED to vary inputs)",
                                stringify!($name), case, err,
                            );
                        }
                        Err(panic) => {
                            eprintln!(
                                "proptest shim: property {} failed at case {} (set PROPTEST_SEED to vary inputs)",
                                stringify!($name), case,
                            );
                            ::std::panic::resume_unwind(panic);
                        }
                    }
                });
            }
        )*
    };
}

/// Choose among strategies, optionally weighted (`3 => strategy`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( ($weight as u32, $crate::box_strategy($strat)) ),+ ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( (1u32, $crate::box_strategy($strat)) ),+ ])
    };
}

/// Assert a condition inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Assert equality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Assert inequality inside a property (panics on failure).
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::for_test("x");
        let mut b = crate::TestRng::for_test("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::for_test("bounds");
        for _ in 0..1000 {
            let v = Strategy::generate(&(3usize..17), &mut rng);
            assert!((3..17).contains(&v));
            let w = Strategy::generate(&(1u64..2_000), &mut rng);
            assert!((1..2_000).contains(&w));
        }
    }

    #[test]
    fn vec_lengths_in_range() {
        let mut rng = crate::TestRng::for_test("vecs");
        for _ in 0..200 {
            let v = Strategy::generate(&crate::collection::vec(any::<u8>(), 0..64), &mut rng);
            assert!(v.len() < 64);
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Op {
        A,
        B,
        C,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_all_params(ops in crate::collection::vec(prop_oneof![2 => Just(Op::A), 1 => Just(Op::B), 1 => Just(Op::C)], 1..40), flag in any::<bool>()) {
            prop_assert!(!ops.is_empty());
            prop_assert!(ops.len() < 40);
            let _ = flag;
        }

        #[test]
        fn mapped_strategies_apply(xs in crate::collection::vec(any::<u32>().prop_map(|x| x as u64 + 1), 0..8)) {
            for x in xs {
                prop_assert!(x >= 1);
            }
        }
    }
}
