//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest API that `phaselab`'s property
//! tests use: the [`proptest!`] macro with an optional
//! `#![proptest_config(...)]` header, range and `collection::vec`
//! strategies, and the `prop_assert!` / `prop_assert_eq!` /
//! `prop_assume!` macros.
//!
//! Cases are generated from a deterministic generator seeded by the test
//! name, so failures reproduce exactly across runs (there is no failure
//! persistence file and no shrinking — a failing case reports its inputs
//! instead).

#![forbid(unsafe_code)]

use std::ops::Range;

/// Sentinel error message used by `prop_assume!` to reject a case.
pub const ASSUME_REJECT: &str = "__proptest_shim_assume_reject__";

/// Per-test configuration. Only `cases` is honored.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    /// 64 cases, or as many as the `PROPTEST_CASES` environment variable
    /// asks for — as in proptest, the variable sets only the default, so
    /// an explicit [`with_cases`](Self::with_cases) wins.
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The deterministic generator driving case generation.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Returns the next 64 random bits (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Builds the generator for a named test (FNV-1a hash of the name).
pub fn test_rng(name: &str) -> TestRng {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    TestRng { state: h }
}

/// A value generator. Mirrors proptest's `Strategy` in spirit: ranges and
/// `collection::vec` produce values drawn from the test generator.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_strategy_uint {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u128) - (self.start as u128);
                self.start + ((rng.next_u64() as u128) % span) as $t
            }
        }
    )*};
}
impl_strategy_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + ((rng.next_u64() as u128) % span) as i128) as $t
            }
        }
    )*};
}
impl_strategy_int!(i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + (self.end - self.start) * unit
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty strategy range");
        let unit = ((rng.next_u64() >> 32) as u32 >> 8) as f32 / (1u32 << 24) as f32;
        self.start + (self.end - self.start) * unit
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// A strategy producing `Vec`s of a fixed length.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        count: usize,
    }

    /// `count` values drawn from `element`.
    pub fn vec<S: Strategy>(element: S, count: usize) -> VecStrategy<S> {
        VecStrategy { element, count }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            (0..self.count)
                .map(|_| self.element.generate(rng))
                .collect()
        }
    }
}

/// The commonly used items, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy,
    };
}

/// Defines property tests.
///
/// Supports the form
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(32))]
///
///     #[test]
///     fn my_property(x in 0u64..100, v in proptest::collection::vec(0.0f64..1.0, 4)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{ ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Internal expansion of [`proptest!`]; not part of the public API.
#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::test_rng(concat!(module_path!(), "::", stringify!($name)));
            let mut ran: u32 = 0;
            let mut attempts: u32 = 0;
            while ran < config.cases && attempts < config.cases.saturating_mul(20).max(100) {
                attempts += 1;
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}, ",)+ ""),
                    $(&$arg),+
                );
                let outcome: ::std::result::Result<(), ::std::string::String> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                match outcome {
                    ::std::result::Result::Ok(()) => ran += 1,
                    ::std::result::Result::Err(msg) if msg == $crate::ASSUME_REJECT => {}
                    ::std::result::Result::Err(msg) => {
                        panic!(
                            "property {} failed after {} cases: {}\n  inputs: {}",
                            stringify!($name),
                            ran,
                            msg,
                            inputs
                        );
                    }
                }
            }
            assert!(
                ran == config.cases,
                "property {} rejected too many cases ({} accepted / {} attempted)",
                stringify!($name),
                ran,
                attempts
            );
        }
    )*};
}

/// Fails the current case with a message unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(format!($($fmt)+));
        }
    };
}

/// Fails the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                format!($($fmt)+),
                l,
                r
            ));
        }
    }};
}

/// Fails the current case unless the two expressions differ.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

/// Skips the current case unless the assumption holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::ASSUME_REJECT.to_string());
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_stay_in_bounds(x in 5u64..50, y in -3i64..3, f in 0.0f64..1.0) {
            prop_assert!((5..50).contains(&x));
            prop_assert!((-3..3).contains(&y));
            prop_assert!((0.0..1.0).contains(&f));
        }

        #[test]
        fn vec_strategy_has_fixed_len(v in crate::collection::vec(-1.0f64..1.0, 7)) {
            prop_assert_eq!(v.len(), 7);
            prop_assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
        }

        #[test]
        fn assume_skips_cases(x in 0u64..10) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    fn test_rng_is_deterministic() {
        let mut a = crate::test_rng("some::test");
        let mut b = crate::test_rng("some::test");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
