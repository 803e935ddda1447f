//! Offline stand-in for `proptest`.
//!
//! The real crate shrinks failing inputs and persists regressions; this
//! shim keeps the part the workspace's tests rely on — running each
//! property over many deterministic pseudo-random cases — behind the same
//! surface: [`Strategy`] (with `prop_map`), range/tuple strategies,
//! [`collection::vec`], [`ProptestConfig`], the [`proptest!`] macro and
//! the `prop_assert*` macros. Failures report the generated arguments so
//! a case can be reproduced by hand.

use rand::rngs::StdRng;
use rand::{Rng, SampleUniform, SeedableRng};
use std::fmt;
use std::ops::Range;

/// Everything a test file needs via `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

/// A property-level failure (produced by the `prop_assert*` macros).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// The deterministic case generator handed to strategies.
pub struct TestRng(StdRng);

impl TestRng {
    /// Seeded from the property name, so every property sees its own
    /// reproducible stream.
    pub fn for_property(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }

    /// Raw access for strategy implementations.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.0
    }
}

/// A generator of test values.
pub trait Strategy {
    /// The generated type.
    type Value: fmt::Debug;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U: fmt::Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The [`Strategy::prop_map`] adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U: fmt::Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

impl<T> Strategy for Range<T>
where
    T: SampleUniform + fmt::Debug + Copy,
{
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        rng.rng().gen_range(self.start..self.end)
    }
}

macro_rules! impl_strategy_for_tuples {
    ($(($($name:ident . $idx:tt),+);)*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_strategy_for_tuples! {
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
    (A.0, B.1, C.2, D.3, E.4);
    (A.0, B.1, C.2, D.3, E.4, F.5);
}

/// Types with a canonical whole-domain strategy (the shim's counterpart
/// of proptest's `Arbitrary`).
pub trait ArbitraryValue: fmt::Debug {
    /// Draws one value from the full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.rng().gen::<bool>()
    }
}

impl ArbitraryValue for u64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.rng().gen::<u64>()
    }
}

impl ArbitraryValue for u32 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.rng().gen::<u32>()
    }
}

impl ArbitraryValue for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.rng().gen::<f64>()
    }
}

/// The [`any`] strategy.
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: ArbitraryValue> Strategy for AnyStrategy<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Whole-domain strategy for `T` (`any::<bool>()`, `any::<u64>()`, …).
pub fn any<T: ArbitraryValue>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// A strategy that always yields the same value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + fmt::Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed strategies (built by [`prop_oneof!`]).
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T: fmt::Debug> Union<T> {
    /// A union over `options`; sampling picks one uniformly.
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Self { options }
    }
}

impl<T: fmt::Debug> Strategy for Union<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        let i = rng.rng().gen_range(0..self.options.len());
        self.options[i].sample(rng)
    }
}

/// Uniform choice among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {{
        let options: ::std::vec::Vec<::std::boxed::Box<dyn $crate::Strategy<Value = _>>> =
            vec![$(::std::boxed::Box::new($strategy)),+];
        $crate::Union::new(options)
    }};
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::fmt;
    use std::ops::Range;

    /// Vectors with element values from `element` and lengths from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// The [`vec()`] strategy.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: fmt::Debug,
    {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.rng().gen_range(self.len.start..self.len.end);
            (0..n).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Asserts a condition inside a `proptest!` body, failing the case (not
/// aborting the process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError(format!($($fmt)*)));
        }
    };
}

/// Equality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "{} (left: {:?}, right: {:?})", format!($($fmt)*), l, r
            )));
        }
    }};
}

/// Inequality assertion counterpart of [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
}

/// Declares property tests. Mirrors proptest's surface:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn prop(x in 0u32..10, y in 0.0f64..1.0) { prop_assert!(x < 10); }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $( $(#[$meta:meta])* fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::for_property(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    $(let $arg = $crate::Strategy::sample(&($strat), &mut rng);)+
                    let args_desc = format!(
                        concat!($(stringify!($arg), " = {:?}, "),+),
                        $(&$arg),+
                    );
                    let outcome = (|| -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(e) = outcome {
                        panic!(
                            "property {} failed at case {}/{}: {}\n  inputs: {}",
                            stringify!($name), case + 1, config.cases, e, args_desc
                        );
                    }
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respect_bounds(x in 3u32..17, f in -1.0f64..1.0) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-1.0..1.0).contains(&f), "f out of range: {}", f);
        }

        #[test]
        fn tuples_and_maps_compose(pair in (0u32..5, 0u32..5).prop_map(|(a, b)| a + b)) {
            prop_assert!(pair <= 8);
        }

        #[test]
        fn collection_vec_sizes(v in crate::collection::vec(1u32..4, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| (1..4).contains(&x)));
        }
    }

    #[test]
    fn failing_property_panics_with_inputs() {
        let result = std::panic::catch_unwind(|| {
            crate::__proptest_impl! {
                (crate::ProptestConfig::with_cases(4));
                fn always_fails(x in 0u32..3) { prop_assert!(x > 100, "x was {}", x); }
            }
            always_fails();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("inputs:"), "message: {msg}");
    }
}
