//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach crates.io, so this crate provides the
//! subset of proptest the workspace's property tests use: the [`Strategy`]
//! trait over ranges / [`Just`] / [`prop_oneof!`] unions, `any::<T>()`,
//! the [`proptest!`] test-generating macro, a case-count config, and the
//! `prop_assert*` macros. Sampling is deterministic: every test derives its
//! stream from a fixed seed XORed with the test name hash and the case
//! index, so failures reproduce across runs. There is no shrinking — the
//! failure report instead prints every sampled input of the failing case.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

/// Subset of `proptest::collection` — vectors with strategy-drawn elements.
pub mod collection {
    use super::{StdRng, Strategy};
    use rand::Rng;
    use std::ops::Range;

    /// Strategy yielding `Vec`s whose length is drawn from `len` and whose
    /// elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `vec(element, len_range)` — mirrors `proptest::collection::vec`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn pick(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = rng.gen_range(self.len.clone());
            (0..n).map(|_| self.element.pick(rng)).collect()
        }
    }
}

pub use rand::rngs::StdRng;
pub use rand::{Rng, RngCore, SeedableRng};

/// Error carried out of a failing property body (what `prop_assert!`
/// produces). The message already contains the formatted condition.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps full-solver properties fast on
        // the single-core CI container while still exploring broadly.
        ProptestConfig { cases: 64 }
    }
}

/// A generator of random values for one property input.
pub trait Strategy {
    /// The value type produced.
    type Value;

    /// Draw one value.
    fn pick(&self, rng: &mut StdRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn pick(&self, rng: &mut StdRng) -> Self::Value {
        (**self).pick(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn pick(&self, rng: &mut StdRng) -> Self::Value {
        (**self).pick(rng)
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn pick(&self, _rng: &mut StdRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn pick(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn pick(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(usize, u64, u32, u16, u8);

impl Strategy for Range<f64> {
    type Value = f64;
    fn pick(&self, rng: &mut StdRng) -> f64 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for Range<i64> {
    type Value = i64;
    fn pick(&self, rng: &mut StdRng) -> i64 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for Range<i32> {
    type Value = i32;
    fn pick(&self, rng: &mut StdRng) -> i32 {
        rng.gen_range(self.clone())
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn pick(&self, rng: &mut StdRng) -> f32 {
        rng.gen_range(self.clone())
    }
}

/// Tuples of strategies draw each component independently, mirroring
/// upstream proptest's tuple `Strategy` impls.
macro_rules! impl_tuple_strategy {
    ($($S:ident . $idx:tt),+) => {
        impl<$($S: Strategy),+> Strategy for ($($S,)+) {
            type Value = ($($S::Value,)+);
            fn pick(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.pick(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A.0, B.1);
impl_tuple_strategy!(A.0, B.1, C.2);
impl_tuple_strategy!(A.0, B.1, C.2, D.3);
impl_tuple_strategy!(A.0, B.1, C.2, D.3, E.4);

/// Full-domain strategy for primitives, mirroring `proptest::arbitrary`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// `any::<T>()` — uniform over the whole domain of `T`.
pub fn any<T>() -> Any<T>
where
    Any<T>: Strategy<Value = T>,
{
    Any(std::marker::PhantomData)
}

impl Strategy for Any<bool> {
    type Value = bool;
    fn pick(&self, rng: &mut StdRng) -> bool {
        rng.gen()
    }
}

impl Strategy for Any<u64> {
    type Value = u64;
    fn pick(&self, rng: &mut StdRng) -> u64 {
        rng.gen()
    }
}

impl Strategy for Any<u32> {
    type Value = u32;
    fn pick(&self, rng: &mut StdRng) -> u32 {
        rng.gen()
    }
}

impl Strategy for Any<f64> {
    type Value = f64;
    fn pick(&self, rng: &mut StdRng) -> f64 {
        rng.gen()
    }
}

/// Uniform choice between boxed alternatives (what [`prop_oneof!`] builds).
pub struct Union<V> {
    arms: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> Union<V> {
    /// A union over the given alternatives. Panics on empty input.
    pub fn new(arms: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one alternative");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn pick(&self, rng: &mut StdRng) -> V {
        let idx = rng.gen_range(0..self.arms.len());
        self.arms[idx].pick(rng)
    }
}

/// Uniform choice between alternatives: `prop_oneof![a, b, c]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$(Box::new($arm) as Box<dyn $crate::Strategy<Value = _>>),+])
    };
}

/// Property assertion: fails the current case (with context) if the
/// condition is false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} at {}:{}", stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} ({}) at {}:{}",
                stringify!($cond), format!($($fmt)*), file!(), line!()
            )));
        }
    };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (va, vb) = (&$a, &$b);
        if !(va == vb) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}) at {}:{}",
                stringify!($a),
                stringify!($b),
                va,
                vb,
                file!(),
                line!()
            )));
        }
    }};
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (va, vb) = (&$a, &$b);
        if !(va != vb) {
            return Err($crate::TestCaseError(format!(
                "assertion failed: {} != {} (both: {:?}) at {}:{}",
                stringify!($a),
                stringify!($b),
                va,
                file!(),
                line!()
            )));
        }
    }};
}

/// FNV-1a over the test name, so each property gets its own stream.
pub fn name_hash(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Runs one property over `cases` deterministic random cases.
///
/// `run` receives the case's RNG and returns `Err` (from `prop_assert!`)
/// or panics on failure; `describe` formats the sampled inputs for the
/// failure report.
pub fn run_property(
    name: &str,
    config: &ProptestConfig,
    mut run: impl FnMut(&mut StdRng) -> Result<String, (String, TestCaseError)>,
) {
    let base = 0x50524f50_54455354u64 ^ name_hash(name); // "PROPTEST"
    for case in 0..config.cases {
        let mut rng = StdRng::seed_from_u64(base.wrapping_add(case as u64));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(&mut rng)));
        match result {
            Ok(Ok(_inputs)) => {}
            Ok(Err((inputs, err))) => {
                panic!(
                    "property '{name}' failed at case {case}/{}:\n  inputs: {inputs}\n  {err}",
                    config.cases
                )
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "<non-string panic>".into());
                panic!("property '{name}' panicked at case {case}/{}:\n  {msg}", config.cases)
            }
        }
    }
}

/// The test-generating macro. Supports an optional leading
/// `#![proptest_config(expr)]`, doc comments / attributes on each test, and
/// `name in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`] — one plain `#[test]` per property.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr);) => {};
    (($cfg:expr);
     $(#[$meta:meta])*
     fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config = $cfg;
            $crate::run_property(stringify!($name), &config, |__rng| {
                $(let $arg = $crate::Strategy::pick(&($strat), __rng);)+
                let __inputs = format!(
                    concat!($(stringify!($arg), " = {:?}  "),+),
                    $(&$arg),+
                );
                let __outcome: Result<(), $crate::TestCaseError> = (|| {
                    $body
                    Ok(())
                })();
                match __outcome {
                    Ok(()) => Ok(__inputs),
                    Err(e) => Err((__inputs, e)),
                }
            });
        }
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Sampled values stay inside their ranges.
        #[test]
        fn ranges_respected(a in 3usize..10, b in 0u64..=4, f in -2.0..2.0) {
            prop_assert!((3..10).contains(&a));
            prop_assert!(b <= 4, "b = {b}");
            prop_assert!((-2.0..2.0).contains(&f));
        }

        /// Unions draw from every arm eventually; Just always yields its value.
        #[test]
        fn oneof_and_just(x in prop_oneof![Just(1u32), Just(2u32), Just(3u32)], b in any::<bool>()) {
            prop_assert!((1u32..=3).contains(&x));
            let _ = b;
            prop_assert_ne!(x, 0u32);
            prop_assert_eq!(x, x);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut picks1 = Vec::new();
        let mut picks2 = Vec::new();
        for out in [&mut picks1, &mut picks2] {
            crate::run_property("det", &ProptestConfig::with_cases(5), |rng| {
                out.push((0usize..100).pick(rng));
                Ok(String::new())
            });
        }
        assert_eq!(picks1, picks2);
    }

    #[test]
    #[should_panic(expected = "property 'fails' failed")]
    fn failing_property_reports() {
        crate::run_property("fails", &ProptestConfig::with_cases(3), |rng| {
            let v = (0usize..10).pick(rng);
            let f = (|| -> Result<(), TestCaseError> {
                prop_assert!(v > 100, "v = {v}");
                Ok(())
            })();
            match f {
                Ok(()) => Ok(format!("v = {v}")),
                Err(e) => Err((format!("v = {v}"), e)),
            }
        });
    }
}
