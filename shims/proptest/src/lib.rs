//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach a registry, so this workspace
//! vendors the subset of proptest's API that its test suites use:
//!
//! * the [`Strategy`] trait with `prop_map`, `prop_filter_map`,
//!   `prop_recursive`, and `boxed`;
//! * strategies for integer/float ranges, `&str` character-class
//!   patterns (`"[a-z]{0,6}"`), [`Just`], tuples, and
//!   [`collection::vec`];
//! * [`arbitrary::Arbitrary`] with [`prelude::any`];
//! * the [`proptest!`], [`prop_oneof!`], [`prop_assert!`],
//!   [`prop_assert_eq!`], and [`prop_assume!`] macros.
//!
//! Semantics match upstream where the tests can observe them —
//! generation is random and configurable via `ProptestConfig::cases`,
//! assumptions reject-and-resample, failures report the message —
//! except there is **no shrinking**: a failing case is reported as
//! generated. Runs are deterministic per test-function name.

use std::fmt;
use std::ops::{Range, RangeInclusive};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

/// The generator handed to strategies.
pub struct TestRng(StdRng);

impl TestRng {
    fn from_seed(seed: u64) -> Self {
        TestRng(StdRng::seed_from_u64(seed))
    }

    /// Uniform `u64`.
    pub fn next_u64(&mut self) -> u64 {
        rand::RngCore::next_u64(&mut self.0)
    }

    /// Uniform draw from `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0.gen_range(0..n)
    }

    /// Uniform `usize` from a half-open range.
    pub fn usize_in(&mut self, r: Range<usize>) -> usize {
        self.0.gen_range(r)
    }
}

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// Hard failure: the property is violated.
    Fail(String),
    /// Soft rejection (`prop_assume!`): resample and retry.
    Reject(String),
}

impl TestCaseError {
    /// A hard failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A soft rejection with the given reason.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Runner configuration (subset: case count).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of successful cases required per property.
    pub cases: u32,
    /// Upper bound on rejected samples across the whole run.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig {
            cases: 256,
            max_global_rejects: 65_536,
        }
    }
}

impl ProptestConfig {
    /// Default config with an explicit case count.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig {
            cases,
            ..ProptestConfig::default()
        }
    }
}

/// A source of random values. `generate` returns `None` when the drawn
/// sample was filtered out; the runner resamples.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value, or `None` on a local rejection.
    fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Map-and-filter in one pass: `None` from `f` rejects the sample.
    fn prop_filter_map<U, F>(self, reason: &'static str, f: F) -> FilterMap<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> Option<U>,
    {
        let _ = reason;
        FilterMap { inner: self, f }
    }

    /// Builds recursive values: `recurse` receives a strategy for
    /// sub-values and returns the composite level. `depth` bounds
    /// nesting; the leaf strategy is mixed in at every level so
    /// generation always terminates.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        let mut strat = leaf.clone();
        for _ in 0..depth {
            let level = recurse(strat).boxed();
            strat = Union::new(vec![(1, leaf.clone()), (2, level)]).boxed();
        }
        strat
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// A cheaply clonable type-erased strategy.
pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> Option<T> {
        self.0.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> Option<U> {
        self.inner.generate(rng).map(&self.f)
    }
}

/// See [`Strategy::prop_filter_map`].
pub struct FilterMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> Option<U>> Strategy for FilterMap<S, F> {
    type Value = U;

    fn generate(&self, rng: &mut TestRng) -> Option<U> {
        self.inner.generate(rng).and_then(&self.f)
    }
}

/// Always produces a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> Option<T> {
        Some(self.0.clone())
    }
}

/// Weighted choice between boxed alternatives (what [`prop_oneof!`]
/// builds).
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u32,
}

impl<T> Union<T> {
    /// A union of `(weight, strategy)` arms. Weights must sum > 0.
    pub fn new(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total = arms.iter().map(|&(w, _)| w).sum();
        assert!(total > 0, "prop_oneof! needs at least one weighted arm");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> Option<T> {
        let mut roll = rng.below(self.total as u64) as u32;
        for (w, s) in &self.arms {
            if roll < *w {
                return s.generate(rng);
            }
            roll -= w;
        }
        unreachable!("weights cover the roll")
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),+ $(,)?) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                Some(rng.0.gen_range(self.clone()))
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                Some(rng.0.gen_range(self.clone()))
            }
        }
    )+};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

/// `&str` as a strategy: a character-class pattern of the exact form
/// `[lo-hi]{min,max}` (e.g. `"[a-z]{0,6}"`), the only regex subset this
/// workspace uses. Anything else panics loudly.
impl Strategy for &'static str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> Option<String> {
        let (class, min, max) = parse_char_class_pattern(self)
            .unwrap_or_else(|| panic!("unsupported string strategy pattern: {self:?}"));
        let len = rng.usize_in(min..max + 1);
        Some(
            (0..len)
                .map(|_| class[rng.usize_in(0..class.len())])
                .collect(),
        )
    }
}

/// Parses `[a-z]{0,6}`-style patterns into (alphabet, min, max).
fn parse_char_class_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let (class_src, rest) = rest.split_once(']')?;
    let chars: Vec<char> = class_src.chars().collect();
    let class: Vec<char> = match chars.as_slice() {
        [lo, '-', hi] => (*lo..=*hi).collect(),
        _ if !chars.is_empty() && !chars.contains(&'-') => chars,
        _ => return None,
    };
    if class.is_empty() {
        return None;
    }
    let rest = rest.strip_prefix('{')?;
    let (counts, tail) = rest.split_once('}')?;
    if !tail.is_empty() {
        return None;
    }
    let (min, max) = match counts.split_once(',') {
        Some((a, b)) => (a.trim().parse().ok()?, b.trim().parse().ok()?),
        None => {
            let n = counts.trim().parse().ok()?;
            (n, n)
        }
    };
    if min > max {
        return None;
    }
    Some((class, min, max))
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $v:ident),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                let ($($s,)+) = self;
                $(let $v = $s.generate(rng)?;)+
                Some(($($v,)+))
            }
        }
    )+};
}

impl_tuple_strategy! {
    (A a)
    (A a, B b)
    (A a, B b, C c)
    (A a, B b, C c, D d)
    (A a, B b, C c, D d, E e)
    (A a, B b, C c, D d, E e, F f)
    (A a, B b, C c, D d, E e, F f, G g)
    (A a, B b, C c, D d, E e, F f, G g, H h)
}

pub mod arbitrary {
    //! The [`Arbitrary`] trait: types with a canonical strategy.

    use super::{Strategy, TestRng};
    use std::marker::PhantomData;

    /// Types with a natural full-domain strategy ([`super::prelude::any`]).
    pub trait Arbitrary: Sized {
        /// Draws one value from the type's full domain.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),+ $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $t
                }
            }
        )+};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> Self {
            (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    macro_rules! impl_arbitrary_tuple {
        ($(($($t:ident),+))+) => {$(
            impl<$($t: Arbitrary),+> Arbitrary for ($($t,)+) {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    ($($t::arbitrary(rng),)+)
                }
            }
        )+};
    }

    impl_arbitrary_tuple! {
        (A)
        (A, B)
        (A, B, C)
        (A, B, C, D)
    }

    /// The strategy returned by [`super::prelude::any`].
    pub struct Any<T>(pub(crate) PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> Option<T> {
            Some(T::arbitrary(rng))
        }
    }
}

pub mod collection {
    //! Collection strategies (subset: [`vec`]).

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Ranges and exact counts accepted as a [`vec`] size.
    pub trait SizeRange {
        /// `(min, max_exclusive)` element count.
        fn bounds(&self) -> (usize, usize);
    }

    impl SizeRange for Range<usize> {
        fn bounds(&self) -> (usize, usize) {
            (self.start, self.end)
        }
    }

    impl SizeRange for usize {
        fn bounds(&self) -> (usize, usize) {
            (*self, *self + 1)
        }
    }

    /// See [`vec`].
    pub struct VecStrategy<S> {
        elem: S,
        min: usize,
        max: usize,
    }

    /// A `Vec` of `size`-many values drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: impl SizeRange) -> VecStrategy<S> {
        let (min, max) = size.bounds();
        assert!(min < max, "empty vec size range");
        VecStrategy { elem, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let len = rng.usize_in(self.min..self.max);
            let mut out = Vec::with_capacity(len);
            for _ in 0..len {
                // Tolerate locally rejecting element strategies; give the
                // element a bounded number of redraws before rejecting
                // the whole vector.
                let mut elem = None;
                for _ in 0..16 {
                    if let Some(v) = self.elem.generate(rng) {
                        elem = Some(v);
                        break;
                    }
                }
                out.push(elem?);
            }
            Some(out)
        }
    }
}

pub mod option {
    //! Option strategies (subset: [`of`]).

    use super::{Strategy, TestRng};

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `None` about a quarter of the time, `Some(inner)` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Option<Option<S::Value>> {
            if rng.below(4) == 0 {
                Some(None)
            } else {
                self.inner.generate(rng).map(Some)
            }
        }
    }
}

pub mod test_runner {
    //! The case loop behind [`crate::proptest!`].

    use super::{ProptestConfig, Strategy, TestCaseError, TestRng};

    /// Runs `body` against `config.cases` generated values, resampling
    /// on rejection, panicking on the first failure (no shrinking).
    pub fn run<S, F>(config: &ProptestConfig, test_name: &str, strat: &S, body: F)
    where
        S: Strategy,
        F: Fn(S::Value) -> Result<(), TestCaseError>,
    {
        // Deterministic per test name so failures reproduce.
        let seed = test_name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let mut rng = TestRng::from_seed(seed);
        let mut rejects = 0u32;
        let mut case = 0u32;
        while case < config.cases {
            let Some(value) = strat.generate(&mut rng) else {
                rejects += 1;
                assert!(
                    rejects <= config.max_global_rejects,
                    "{test_name}: too many strategy-level rejections ({rejects})"
                );
                continue;
            };
            match body(value) {
                Ok(()) => case += 1,
                Err(TestCaseError::Reject(_)) => {
                    rejects += 1;
                    assert!(
                        rejects <= config.max_global_rejects,
                        "{test_name}: too many prop_assume rejections ({rejects})"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!("{test_name}: property failed at case {case}: {msg}")
                }
            }
        }
    }
}

pub mod strategy {
    //! Re-exports under upstream's module path.
    pub use super::{BoxedStrategy, Just, Strategy, Union};
}

pub mod prelude {
    //! `use proptest::prelude::*;` — everything the tests name.

    pub use super::arbitrary::{Any, Arbitrary};
    pub use super::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
    pub use super::{BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError};
    /// Upstream exposes the crate under `prop::` inside the prelude.
    pub use crate as prop;
    use std::marker::PhantomData;

    /// The canonical strategy for `T`'s whole domain.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

/// Weighted (`w => strat`) or uniform choice between strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat)),)+
        ])
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond), file!(), line!()
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} at {}:{}: {}",
                stringify!($cond), file!(), line!(), format!($($fmt)+)
            )));
        }
    };
}

/// Fails the current case unless both sides are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` at {}:{}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), file!(), line!(), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(l == r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}` at {}:{}: {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), file!(), line!(),
                format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Rejects the current case (resampled, not counted) unless the
/// condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::reject(format!($($fmt)+)));
        }
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let strat = ($($strat,)+);
            $crate::test_runner::run(
                &config,
                stringify!($name),
                &strat,
                |($($pat,)+)| {
                    $body
                    Ok(())
                },
            );
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn char_class_parsing() {
        let (class, min, max) = super::parse_char_class_pattern("[a-z]{0,6}").unwrap();
        assert_eq!(class.len(), 26);
        assert_eq!((min, max), (0, 6));
        let (class, min, max) = super::parse_char_class_pattern("[0-9]{3}").unwrap();
        assert_eq!(class.len(), 10);
        assert_eq!((min, max), (3, 3));
        assert!(super::parse_char_class_pattern("[a-z]+").is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_generate_in_bounds(x in -50i64..50, y in 0usize..10) {
            prop_assert!((-50..50).contains(&x));
            prop_assert!(y < 10);
        }

        #[test]
        fn filters_are_respected(
            v in (0i32..100).prop_filter_map("even", |n| (n % 2 == 0).then_some(n)),
            s in "[a-c]{1,4}",
        ) {
            prop_assert_eq!(v % 2, 0);
            prop_assert!(!s.is_empty() && s.len() <= 4);
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn oneof_and_vec_compose(
            values in prop::collection::vec(prop_oneof![
                2 => (0i64..10).prop_map(|v| v),
                1 => Just(-1i64),
            ], 1..20),
        ) {
            prop_assert!(!values.is_empty());
            prop_assert!(values.iter().all(|&v| v == -1 || (0..10).contains(&v)));
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Tree {
        Leaf(i64),
        Node(Box<Tree>, Box<Tree>),
    }

    impl Tree {
        fn depth(&self) -> u32 {
            match self {
                Tree::Leaf(_) => 0,
                Tree::Node(a, b) => 1 + a.depth().max(b.depth()),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn recursive_strategies_terminate(
            t in (0i64..10).prop_map(Tree::Leaf).prop_recursive(3, 12, 2, |inner| {
                (inner.clone(), inner)
                    .prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b)))
            }),
        ) {
            prop_assert!(t.depth() <= 3);
        }
    }

    #[test]
    #[should_panic(expected = "property failed")]
    fn failures_panic() {
        let config = ProptestConfig::with_cases(8);
        crate::test_runner::run(&config, "failures_panic", &(0i64..10), |_x| {
            crate::prop_assert!(false);
            #[allow(unreachable_code)]
            Ok(())
        });
    }
}
