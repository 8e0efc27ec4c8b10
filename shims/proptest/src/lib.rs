//! Offline stand-in for `proptest` covering the subset this workspace uses:
//! the `proptest! { #![proptest_config(...)] #[test] fn f(x in strat) {...} }`
//! macro, `prop_assert!`/`prop_assert_eq!`, numeric range strategies,
//! charclass string strategies (`"[a-z]{0,12}"`), tuple strategies,
//! `collection::vec`, `prop::bool::ANY`, and `prop_map`/`prop_flat_map`.
//!
//! Unlike upstream there is no shrinking: a failing case panics with the
//! sampled inputs' debug representation and its case index. Sampling is
//! deterministic per (test name, case index), so failures reproduce exactly
//! on re-run.
//!
//! Case counts honour two env knobs (read at config construction time):
//! `PROPTEST_CASES` replaces the default of 64 (upstream-compatible), and
//! `PROPTEST_CASES_SCALE` multiplies both the default and any explicit
//! `with_cases(N)` — the deep-fuzz CI workflow sets these to run the same
//! properties at ~10× depth.

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A generator of random values for property tests.
    pub trait Strategy {
        /// Type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Transforms generated values.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> MapStrategy<Self, F>
        where
            Self: Sized,
        {
            MapStrategy { base: self, f }
        }

        /// Derives a dependent strategy from each generated value.
        fn prop_flat_map<S2: Strategy, F: Fn(Self::Value) -> S2>(
            self,
            f: F,
        ) -> FlatMapStrategy<Self, F>
        where
            Self: Sized,
        {
            FlatMapStrategy { base: self, f }
        }
    }

    /// Strategy that always yields a clone of the wrapped value (upstream
    /// `Just`): the identity element for tuple/flat-map composition.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct MapStrategy<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for MapStrategy<S, F> {
        type Value = U;

        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.base.sample(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    pub struct FlatMapStrategy<S, F> {
        base: S,
        f: F,
    }

    impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMapStrategy<S, F> {
        type Value = S2::Value;

        fn sample(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.base.sample(rng)).sample(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl Strategy for std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64 + 1;
                    lo + (rng.next_u64() % span) as $t
                }
            }
        )*};
    }

    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! float_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for std::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let u = (rng.next_u64() >> 11) as $t / (1u64 << 53) as $t;
                    self.start + (self.end - self.start) * u
                }
            }
        )*};
    }

    float_range_strategy!(f32, f64);

    /// Charclass string strategy: `"[a-z]{0,12}"`, `"[abc]{4}"`, `"[a-z]"`.
    impl Strategy for &str {
        type Value = String;

        fn sample(&self, rng: &mut TestRng) -> String {
            let (chars, min, max) = parse_charclass(self);
            let len = if max > min {
                min + (rng.next_u64() % (max - min + 1) as u64) as usize
            } else {
                min
            };
            (0..len)
                .map(|_| chars[(rng.next_u64() % chars.len() as u64) as usize])
                .collect()
        }
    }

    /// Parses `[class]{m,n}` / `[class]{n}` / `[class]` into (alphabet, m, n).
    fn parse_charclass(pat: &str) -> (Vec<char>, usize, usize) {
        let inner_end = pat
            .find(']')
            .unwrap_or_else(|| panic!("proptest shim: unsupported string pattern {pat:?}"));
        assert!(
            pat.starts_with('['),
            "proptest shim: unsupported string pattern {pat:?}"
        );
        let class: Vec<char> = pat[1..inner_end].chars().collect();
        let mut chars = Vec::new();
        let mut i = 0;
        while i < class.len() {
            if i + 2 < class.len() && class[i + 1] == '-' {
                let (lo, hi) = (class[i] as u32, class[i + 2] as u32);
                for c in lo..=hi {
                    chars.push(char::from_u32(c).unwrap());
                }
                i += 3;
            } else {
                chars.push(class[i]);
                i += 1;
            }
        }
        assert!(!chars.is_empty(), "proptest shim: empty charclass {pat:?}");
        let rest = &pat[inner_end + 1..];
        if rest.is_empty() {
            return (chars, 1, 1);
        }
        let spec = rest
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .unwrap_or_else(|| panic!("proptest shim: unsupported quantifier {rest:?}"));
        match spec.split_once(',') {
            Some((m, n)) => (
                chars,
                m.trim().parse().expect("quantifier min"),
                n.trim().parse().expect("quantifier max"),
            ),
            None => {
                let n: usize = spec.trim().parse().expect("quantifier");
                (chars, n, n)
            }
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident : $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy! {
        (A: 0, B: 1)
        (A: 0, B: 1, C: 2)
        (A: 0, B: 1, C: 2, D: 3)
        (A: 0, B: 1, C: 2, D: 3, E: 4)
    }
}

pub mod test_runner {
    //! Deterministic RNG, config, and failure type for the harness.

    /// Harness configuration (`cases` = iterations per property).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` iterations, scaled by `PROPTEST_CASES_SCALE`
        /// when set (a multiplier for deep-fuzz runs; e.g. `10` turns an
        /// explicit `with_cases(300)` into 3000 cases).
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases: cases.saturating_mul(env_u32("PROPTEST_CASES_SCALE", 1).max(1)),
            }
        }
    }

    impl Default for ProptestConfig {
        /// Upstream-compatible: `PROPTEST_CASES` overrides the default case
        /// count (64), and `PROPTEST_CASES_SCALE` multiplies whichever base
        /// applies — CI's deep-fuzz workflow sets these to widen coverage
        /// without code changes.
        fn default() -> Self {
            ProptestConfig {
                cases: env_u32("PROPTEST_CASES", 64)
                    .saturating_mul(env_u32("PROPTEST_CASES_SCALE", 1).max(1)),
            }
        }
    }

    /// Reads an env var as u32, falling back on absence or parse failure.
    fn env_u32(name: &str, default: u32) -> u32 {
        std::env::var(name)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(default)
    }

    /// A failed property assertion.
    #[derive(Debug)]
    pub struct TestCaseError(pub String);

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// SplitMix64 stream seeded from (test name, case index): deterministic
    /// and reproducible, distinct per property.
    pub struct TestRng(u64);

    impl TestRng {
        /// Seeds the stream for one test case.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
            }
            TestRng(h ^ (u64::from(case).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        }

        /// Next raw 64-bit draw.
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}

pub mod collection {
    //! `vec` strategy over a size specification.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Accepted size specifications for [`vec()`].
    pub trait SizeRange {
        /// Inclusive (min, max) lengths.
        fn bounds(&self) -> (usize, usize);
    }

    impl SizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self)
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            assert!(self.start < self.end, "empty vec size range");
            (self.start, self.end - 1)
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn bounds(&self) -> (usize, usize) {
            (*self.start(), *self.end())
        }
    }

    /// Strategy for `Vec`s whose elements come from `element`.
    pub struct VecStrategy<S> {
        element: S,
        min: usize,
        max: usize,
    }

    /// Vector of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        VecStrategy { element, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.max > self.min {
                self.min + (rng.next_u64() % (self.max - self.min + 1) as u64) as usize
            } else {
                self.min
            };
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod bool {
    //! Boolean strategy (`prop::bool::ANY`).

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniform boolean strategy.
    pub struct Any;

    /// The uniform boolean strategy value.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod prop {
    //! `prop::` namespace mirror (`prop::bool::ANY`).
    pub use crate::bool;
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop, prop_assert, prop_assert_eq, proptest};
}

/// Declares property tests; see the crate docs for the supported grammar.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::ProptestConfig = $cfg;
            for case in 0..cfg.cases {
                let mut rng =
                    $crate::test_runner::TestRng::for_case(stringify!($name), case);
                // Sample first, then destructure: `$arg` may be any pattern
                // (e.g. a tuple), so the debug dump is taken from the sampled
                // tuple before binding.
                let __sampled = ($(
                    $crate::strategy::Strategy::sample(&($strat), &mut rng),
                )+);
                let args_debug = format!(
                    concat!(stringify!(($($arg),+)), " = {:?}"),
                    &__sampled
                );
                let ($($arg,)+) = __sampled;
                let result: ::std::result::Result<
                    (),
                    $crate::test_runner::TestCaseError,
                > = (|| {
                    $body
                    Ok(())
                })();
                if let Err(e) = result {
                    panic!(
                        "proptest case {case}/{total} failed: {e}\n  with {args}",
                        total = cfg.cases,
                        e = e,
                        args = args_debug
                    );
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(
            @cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*
        );
    };
}

/// Asserts inside `proptest!` bodies; failure aborts the case with context.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError(
                format!($($fmt)+),
            ));
        }
    };
}

/// Equality assertion inside `proptest!` bodies.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(
            l == r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let l = $left;
        let r = $right;
        $crate::prop_assert!(l == r, $($fmt)+);
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..200 {
            let x = Strategy::sample(&(3usize..7), &mut rng);
            assert!((3..7).contains(&x));
            let f = Strategy::sample(&(-2.0f32..2.0), &mut rng);
            assert!((-2.0..2.0).contains(&f));
            let i = Strategy::sample(&(5u64..=5), &mut rng);
            assert_eq!(i, 5);
        }
    }

    #[test]
    fn string_charclass() {
        let mut rng = TestRng::for_case("strings", 0);
        for _ in 0..100 {
            let s = Strategy::sample(&"[a-c]{2,4}", &mut rng);
            assert!((2..=4).contains(&s.len()));
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    #[test]
    fn vec_and_map_compose() {
        let mut rng = TestRng::for_case("vecs", 0);
        let strat = crate::collection::vec(0usize..10, 3..6).prop_map(|v| v.len());
        for _ in 0..50 {
            let n = Strategy::sample(&strat, &mut rng);
            assert!((3..6).contains(&n));
        }
    }

    #[test]
    fn sampling_is_deterministic_per_case() {
        let a = Strategy::sample(&(0u64..1_000_000), &mut TestRng::for_case("d", 7));
        let b = Strategy::sample(&(0u64..1_000_000), &mut TestRng::for_case("d", 7));
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_roundtrip(x in 0usize..100, flag in prop::bool::ANY) {
            prop_assert!(x < 100);
            prop_assert_eq!(flag, flag);
        }

        #[test]
        fn flat_map_dependent(pair in (1usize..5).prop_flat_map(|a| (a..5).prop_map(move |b| (a, b)))) {
            prop_assert!(pair.0 <= pair.1);
        }
    }
}
