//! Offline stand-in for the slice of `proptest` this workspace uses.
//!
//! Provides randomized property testing with the same *call surface* —
//! `proptest!`, `prop_assert*!`, `prop_oneof!`, `Strategy`/`prop_map`,
//! `collection::vec`, `any::<T>()`, integer-range strategies and simple
//! char-class regex string strategies. Cases are generated from a
//! deterministic per-test seed so failures reproduce.
//!
//! A failing case is **shrunk** before it is reported. The runner records
//! every choice a strategy makes ([`TestRunner`]), so a simpler case is
//! the same strategies replayed over edited choices, whatever `prop_map`
//! did to them. Vector lengths are halved first (dropping the tail
//! elements with the choices they consumed), then integers are halved
//! toward the low end of their range; each edit is kept only if the
//! property still fails, until no edit is kept. The report names the
//! minimal case, the case number and the seed.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::cell::Cell;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{self, AssertUnwindSafe};

/// One choice a strategy made: its distance above the low end of the
/// range it was drawn from.
#[derive(Debug, Clone, Copy)]
struct Draw {
    offset: u64,
    /// A vector length: shrunk only together with its elements.
    is_len: bool,
}

/// A vector generated in this case: where its length was drawn, its
/// smallest allowed length, and the choices each element consumed.
#[derive(Debug, Clone)]
struct VecSpan {
    len_at: usize,
    min_len: usize,
    elems: Vec<(usize, usize)>,
}

/// The choices one case was generated from.
#[derive(Debug, Clone, Default)]
struct Record {
    draws: Vec<Draw>,
    vecs: Vec<VecSpan>,
}

impl Record {
    fn choices(&self) -> Vec<u64> {
        self.draws.iter().map(|d| d.offset).collect()
    }
}

/// The generator handed to strategies while a property test runs.
///
/// Every random choice goes through [`TestRunner::choose`] and is
/// recorded, so a failing case can be regenerated from edited choices:
/// that is how the runner shrinks.
pub struct TestRunner {
    rng: StdRng,
    seed: u64,
    /// Choices to replay instead of drawing; `None` while generating.
    forced: Option<Vec<u64>>,
    record: Record,
}

impl TestRunner {
    /// A deterministic runner for the named test.
    pub fn deterministic(name: &str) -> TestRunner {
        // FNV-1a over the test name: stable across runs and platforms.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRunner {
            rng: StdRng::seed_from_u64(h),
            seed: h,
            forced: None,
            record: Record::default(),
        }
    }

    /// The seed the runner's generator started from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Pick a value in `lo..=hi`: drawn by `sample` while generating, the
    /// next recorded choice (clamped into range, or `lo` once they run
    /// out) while replaying.
    fn choose(&mut self, lo: i128, hi: i128, sample: impl FnOnce(&mut StdRng) -> i128) -> i128 {
        assert!(lo <= hi, "empty range");
        let max = (hi - lo) as u64;
        let offset = match &self.forced {
            Some(forced) => forced
                .get(self.record.draws.len())
                .map_or(0, |&o| o.min(max)),
            None => (sample(&mut self.rng) - lo) as u64,
        };
        self.record.draws.push(Draw {
            offset,
            is_len: false,
        });
        lo + i128::from(offset)
    }

    /// A uniform index below `n`.
    fn index(&mut self, n: usize) -> usize {
        self.choose(0, n as i128 - 1, |rng| rng.gen_range(0..n) as i128) as usize
    }

    /// Start generating a case: from the generator, or replaying `forced`.
    fn begin_case(&mut self, forced: Option<Vec<u64>>) {
        self.forced = forced;
        self.record = Record::default();
    }

    fn take_record(&mut self) -> Record {
        std::mem::take(&mut self.record)
    }
}

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` random cases.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// A value generator.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn generate(&self, runner: &mut TestRunner) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Box the strategy (used by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A heap-allocated strategy, as `prop_oneof!` arms produce.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, runner: &mut TestRunner) -> S::Value {
        (**self).generate(runner)
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, runner: &mut TestRunner) -> S::Value {
        (**self).generate(runner)
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, runner: &mut TestRunner) -> O {
        (self.f)(self.inner.generate(runner))
    }
}

/// A strategy producing one fixed value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _runner: &mut TestRunner) -> T {
        self.0.clone()
    }
}

/// Uniform choice among boxed strategies — what `prop_oneof!` builds.
pub struct Union<V> {
    arms: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Build from boxed arms (must be non-empty).
    pub fn new(arms: Vec<BoxedStrategy<V>>) -> Union<V> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, runner: &mut TestRunner) -> V {
        let i = runner.index(self.arms.len());
        self.arms[i].generate(runner)
    }
}

macro_rules! impl_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, runner: &mut TestRunner) -> $t {
                let (lo, hi) = (self.start as i128, self.end as i128 - 1);
                runner.choose(lo, hi, |rng| rng.gen_range(self.clone()) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, runner: &mut TestRunner) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                runner.choose(lo, hi, |rng| rng.gen_range(self.clone()) as i128) as $t
            }
        }
    )*};
}
impl_range_strategies!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategies {
    ($(($($s:ident . $idx:tt),+ ))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, runner: &mut TestRunner) -> Self::Value {
                ($(self.$idx.generate(runner),)+)
            }
        }
    )+};
}
impl_tuple_strategies! {
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// `any::<T>()` support: uniform over the whole domain.
pub trait Arbitrary: Sized {
    /// The canonical strategy for the type.
    fn arbitrary() -> ArbitraryStrategy<Self>;
}

/// Strategy returned by [`any`].
pub struct ArbitraryStrategy<T> {
    gen: fn(&mut TestRunner) -> T,
}

impl<T> Strategy for ArbitraryStrategy<T> {
    type Value = T;
    fn generate(&self, runner: &mut TestRunner) -> T {
        (self.gen)(runner)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary() -> ArbitraryStrategy<$t> {
                // The raw 64 bits, as `Rng::gen` draws them.
                ArbitraryStrategy {
                    gen: |r| r.choose(0, u64::MAX.into(), |rng| rng.next_u64().into()) as u64 as $t,
                }
            }
        }
    )*};
}
impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Arbitrary for bool {
    fn arbitrary() -> ArbitraryStrategy<bool> {
        ArbitraryStrategy {
            gen: |r| r.choose(0, 1, |rng| (rng.next_u64() & 1).into()) == 1,
        }
    }
}

impl Arbitrary for f64 {
    fn arbitrary() -> ArbitraryStrategy<f64> {
        // The 53 bits `Rng::gen::<f64>` scales into [0, 1).
        const UNIT: u64 = 1 << 53;
        ArbitraryStrategy {
            gen: |r| {
                r.choose(0, (UNIT - 1).into(), |rng| (rng.next_u64() >> 11).into()) as f64
                    / UNIT as f64
            },
        }
    }
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> ArbitraryStrategy<T> {
    T::arbitrary()
}

/// Collection strategies.
pub mod collection {
    use super::{Draw, Strategy, TestRunner, VecSpan};
    use rand::Rng;
    use std::ops::Range;

    /// Strategy for vectors with lengths drawn from `len`.
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `vec(element, 0..n)`: a vector of `element` samples.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, runner: &mut TestRunner) -> Vec<S::Value> {
            if self.len.start >= self.len.end {
                return (0..self.len.start)
                    .map(|_| self.element.generate(runner))
                    .collect();
            }
            let (lo, hi) = (self.len.start as i128, self.len.end as i128 - 1);
            let len = self.len.clone();
            let n = runner.choose(lo, hi, |rng| rng.gen_range(len) as i128) as usize;
            let len_at = runner.record.draws.len() - 1;
            runner.record.draws[len_at] = Draw {
                is_len: true,
                ..runner.record.draws[len_at]
            };
            let span = runner.record.vecs.len();
            runner.record.vecs.push(VecSpan {
                len_at,
                min_len: self.len.start,
                elems: Vec::with_capacity(n),
            });
            (0..n)
                .map(|_| {
                    let from = runner.record.draws.len();
                    let value = self.element.generate(runner);
                    let to = runner.record.draws.len();
                    runner.record.vecs[span].elems.push((from, to));
                    value
                })
                .collect()
        }
    }
}

/// Option strategies.
pub mod option {
    use super::{Strategy, TestRunner};

    /// Strategy yielding `None` 25% of the time, as real proptest does by
    /// default.
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// `of(element)`: an optional `element`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, runner: &mut TestRunner) -> Option<S::Value> {
            if runner.index(4) == 0 {
                None
            } else {
                Some(self.inner.generate(runner))
            }
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{ArbitraryStrategy, TestRunner};
    use rand::RngCore;

    fn gen_bool(r: &mut TestRunner) -> bool {
        r.choose(0, 1, |rng| (rng.next_u64() & 1).into()) == 1
    }

    /// Either boolean, uniformly.
    pub const ANY: ArbitraryStrategy<bool> = ArbitraryStrategy { gen: gen_bool };
}

/// String strategies: a tiny regex subset (`[class]{m,n}`).
pub mod string {
    use super::{Strategy, TestRunner};

    /// Error for unsupported patterns.
    #[derive(Debug)]
    pub struct Error(pub String);

    /// Strategy generating strings matching a `[class]{m,n}` pattern.
    pub struct RegexStrategy {
        chars: Vec<char>,
        min: usize,
        max: usize,
    }

    impl Strategy for RegexStrategy {
        type Value = String;
        fn generate(&self, runner: &mut TestRunner) -> String {
            let (min, max) = (self.min, self.max);
            let n = runner.choose(min as i128, max as i128, |rng| {
                rand::Rng::gen_range(rng, min..=max) as i128
            }) as usize;
            (0..n)
                .map(|_| self.chars[runner.index(self.chars.len())])
                .collect()
        }
    }

    /// Parse the subset `[chars]{m,n}` (ranges like `a-z` plus literals).
    pub fn string_regex(pattern: &str) -> Result<RegexStrategy, Error> {
        let err = |m: &str| Error(format!("unsupported pattern `{pattern}`: {m}"));
        let rest = pattern
            .strip_prefix('[')
            .ok_or_else(|| err("expected leading ["))?;
        let close = rest.find(']').ok_or_else(|| err("missing ]"))?;
        let class: Vec<char> = rest[..close].chars().collect();
        let mut chars = Vec::new();
        let mut i = 0;
        while i < class.len() {
            if i + 2 < class.len() && class[i + 1] == '-' {
                let (lo, hi) = (class[i], class[i + 2]);
                if lo > hi {
                    return Err(err("inverted range"));
                }
                for c in lo..=hi {
                    chars.push(c);
                }
                i += 3;
            } else {
                chars.push(class[i]);
                i += 1;
            }
        }
        if chars.is_empty() {
            return Err(err("empty class"));
        }
        let quant = &rest[close + 1..];
        let quant = quant
            .strip_prefix('{')
            .and_then(|q| q.strip_suffix('}'))
            .ok_or_else(|| err("expected {m,n} quantifier"))?;
        let (m, n) = quant.split_once(',').ok_or_else(|| err("expected m,n"))?;
        let min: usize = m.trim().parse().map_err(|_| err("bad min"))?;
        let max: usize = n.trim().parse().map_err(|_| err("bad max"))?;
        if min > max {
            return Err(err("min > max"));
        }
        Ok(RegexStrategy { chars, min, max })
    }
}

/// `&str` literals act as regex strategies, as in real proptest.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, runner: &mut TestRunner) -> String {
        string::string_regex(self)
            .unwrap_or_else(|e| panic!("{}", e.0))
            .generate(runner)
    }
}

/// Everything tests import.
pub mod prelude {
    pub use crate as proptest;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Just,
        ProptestConfig, Strategy,
    };
}

/// Assert inside a property (a panic, which the runner then shrinks).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Equality assert inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Inequality assert inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Uniform choice among strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![ $( $crate::Strategy::boxed($arm) ),+ ])
    };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` random cases through [`check`].
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::check(
                concat!(module_path!(), "::", stringify!($name)),
                stringify!($($arg),+),
                $cfg,
                |runner| ($($crate::Strategy::generate(&($strat), runner),)+),
                |($($arg,)+)| $body,
            );
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Replays a shrinking run may spend before it reports what it has.
const MAX_SHRINK_RUNS: usize = 4096;

/// A failing case of a property, shrunk to a minimal one.
#[derive(Debug)]
pub struct Failure<A> {
    /// The case number (from 0) that failed first.
    pub case: u32,
    /// The runner's seed ([`TestRunner::seed`]).
    pub seed: u64,
    /// The minimal failing input.
    pub input: A,
    /// Shrink edits kept on the way from the first failure to `input`.
    pub steps: usize,
}

thread_local! {
    /// Set while this thread replays candidates, whose panics are expected.
    static SHRINKING: Cell<bool> = const { Cell::new(false) };
}

/// Route panics through a hook that stays silent while the panicking
/// thread is shrinking and defers to the previous hook otherwise.
fn install_quiet_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SHRINKING.with(Cell::get) {
                previous(info);
            }
        }));
    });
}

/// Does `test` panic on `input`?
fn fails<A>(test: &impl Fn(A), input: A) -> bool {
    panic::catch_unwind(AssertUnwindSafe(|| test(input))).is_err()
}

/// Removal sizes for shrinking a quantity by up to `room`: half of it
/// first, then halves of that, down to one.
fn decrements(room: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(room - room / 2), |d| Some(d / 2)).take_while(|d| *d > 0)
}

/// The state of one shrinking run: the simplest failing case so far,
/// and how it regenerates a case from edited choices (returning its
/// record if it still fails).
struct Shrinker<R> {
    best: Record,
    replay: R,
    steps: usize,
    runs: usize,
}

impl<R: FnMut(Vec<u64>) -> Option<Record>> Shrinker<R> {
    /// Keep `choices` if the case they generate still fails.
    fn attempt(&mut self, choices: Vec<u64>) -> bool {
        self.runs += 1;
        match (self.replay)(choices) {
            Some(record) => {
                self.best = record;
                self.steps += 1;
                true
            }
            None => false,
        }
    }

    fn spent(&self) -> bool {
        self.runs >= MAX_SHRINK_RUNS
    }

    /// Shorten vector `v` by dropping tail elements with their choices.
    fn shorten(&mut self, v: usize) -> bool {
        let span = self.best.vecs[v].clone();
        let len = span.elems.len();
        decrements((len - span.min_len) as u64).any(|d| {
            let d = d as usize;
            let mut choices = self.best.choices();
            choices[span.len_at] -= d as u64;
            choices.drain(span.elems[len - d].0..span.elems[len - 1].1);
            self.attempt(choices)
        })
    }

    /// Move choice `i` toward the low end of its range.
    fn lower(&mut self, i: usize) -> bool {
        let draw = self.best.draws[i];
        !draw.is_len
            && decrements(draw.offset).any(|d| {
                let mut choices = self.best.choices();
                choices[i] -= d;
                self.attempt(choices)
            })
    }

    /// Shorten vectors, then lower the other choices, until neither pass
    /// keeps an edit (or the replay budget is spent).
    fn run(mut self) -> (Record, usize) {
        loop {
            let before = self.steps;
            let mut v = 0;
            while v < self.best.vecs.len() && !self.spent() {
                if !self.shorten(v) {
                    v += 1;
                }
            }
            let mut i = 0;
            while i < self.best.draws.len() && !self.spent() {
                if !self.lower(i) {
                    i += 1;
                }
            }
            if self.steps == before || self.spent() {
                return (self.best, self.steps);
            }
        }
    }
}

/// Run `test` on `config.cases` inputs drawn by `generate` from the
/// runner seeded by `name`; on the first failure, shrink it and return
/// the minimal failing input. Panics during shrinking are not printed.
pub fn find_failure<A>(
    name: &str,
    config: ProptestConfig,
    generate: impl Fn(&mut TestRunner) -> A,
    test: impl Fn(A),
) -> Option<Failure<A>> {
    install_quiet_hook();
    let mut runner = TestRunner::deterministic(name);
    for case in 0..config.cases {
        runner.begin_case(None);
        let input = generate(&mut runner);
        let record = runner.take_record();
        if !fails(&test, input) {
            continue;
        }
        SHRINKING.with(|s| s.set(true));
        let (minimal, steps) = Shrinker {
            best: record,
            replay: |choices| {
                runner.begin_case(Some(choices));
                let input = generate(&mut runner);
                let record = runner.take_record();
                fails(&test, input).then_some(record)
            },
            steps: 0,
            runs: 0,
        }
        .run();
        SHRINKING.with(|s| s.set(false));
        runner.begin_case(Some(minimal.choices()));
        return Some(Failure {
            case,
            seed: runner.seed,
            input: generate(&mut runner),
            steps,
        });
    }
    None
}

/// The body of every `proptest!` test: run the property, and on failure
/// report the shrunk case (named by `args`), its case number and seed,
/// then fail with the minimal case's own panic.
pub fn check<A: Debug>(
    name: &str,
    args: &str,
    config: ProptestConfig,
    generate: impl Fn(&mut TestRunner) -> A,
    test: impl Fn(A),
) {
    let Some(failure) = find_failure(name, config, &generate, &test) else {
        return;
    };
    eprintln!(
        "proptest shim: property `{name}` failed at case {} of {} (seed {:#018x}); \
         minimal failing input after {} shrink steps:\n  ({args}) = {:?}",
        failure.case, config.cases, failure.seed, failure.steps, failure.input,
    );
    test(failure.input);
    unreachable!("the minimal case of `{name}` passed when replayed");
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_vec_strategies_generate_in_bounds() {
        let mut r = crate::TestRunner::deterministic("bounds");
        for _ in 0..200 {
            let v = crate::Strategy::generate(&(-60i64..60), &mut r);
            assert!((-60..60).contains(&v));
            let xs = crate::Strategy::generate(&crate::collection::vec(0u8..6, 0..25), &mut r);
            assert!(xs.len() < 25);
            assert!(xs.iter().all(|&x| x < 6));
            let (s, d) = crate::Strategy::generate(&(-50i64..50, 1i64..30), &mut r);
            assert!((-50..50).contains(&s) && (1..30).contains(&d));
        }
    }

    #[test]
    fn string_regex_respects_class_and_length() {
        let mut r = crate::TestRunner::deterministic("regex");
        let strat = crate::string::string_regex("[a-c0-1 ]{2,5}").unwrap();
        for _ in 0..100 {
            let s = crate::Strategy::generate(&strat, &mut r);
            assert!((2..=5).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().all(|c| "abc01 ".contains(c)), "{s:?}");
        }
        assert!(crate::string::string_regex("no-class").is_err());
    }

    #[test]
    fn oneof_uses_every_arm() {
        let mut r = crate::TestRunner::deterministic("oneof");
        let strat = prop_oneof![Just(1u8), Just(2u8), (3u8..5).prop_map(|x| x)];
        let seen: std::collections::BTreeSet<u8> = (0..200)
            .map(|_| crate::Strategy::generate(&strat, &mut r))
            .collect();
        assert!(seen.contains(&1) && seen.contains(&2) && seen.contains(&3));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn the_macro_runs_and_passes(x in 0i64..100, ys in proptest::collection::vec(any::<bool>(), 0..8)) {
            prop_assert!(x >= 0);
            prop_assert_eq!(ys.len(), ys.len());
        }
    }

    #[test]
    fn shrinking_halves_a_vector_to_its_minimal_length() {
        let failure = crate::find_failure(
            "shrink-len",
            ProptestConfig::with_cases(64),
            |r| crate::Strategy::generate(&proptest::collection::vec(0u32..1000, 0..40), r),
            |v: Vec<u32>| assert!(v.len() < 3, "len {}", v.len()),
        )
        .expect("some case is at least 3 long");
        // The length shrinks to the boundary, the elements to the low end.
        assert_eq!(failure.input, vec![0, 0, 0]);
        assert!(failure.steps > 0);
        assert_eq!(
            failure.seed,
            crate::TestRunner::deterministic("shrink-len").seed()
        );
    }

    #[test]
    fn shrinking_finds_an_integer_boundary_through_a_map() {
        let strategy = (0i64..1000, 5i64..10).prop_map(|(x, y)| (x * 2, y));
        let failure = crate::find_failure(
            "shrink-int",
            ProptestConfig::with_cases(64),
            |r| crate::Strategy::generate(&strategy, r),
            |(x, _): (i64, i64)| assert!(x < 74),
        )
        .expect("some case is at least 74");
        assert_eq!(failure.input, (74, 5));
    }

    #[test]
    fn passing_properties_report_nothing() {
        let failure = crate::find_failure(
            "no-failure",
            ProptestConfig::with_cases(32),
            |r| crate::Strategy::generate(&(0u8..10), r),
            |x: u8| assert!(x < 10),
        );
        assert!(failure.is_none());
    }

    #[test]
    fn failing_property_panics() {
        crate::proptest! {
            #![proptest_config(crate::ProptestConfig::with_cases(4))]
            fn always_fails(x in 0i64..10) {
                crate::prop_assert!(x > 100, "x was {}", x);
            }
        }
        assert!(std::panic::catch_unwind(always_fails).is_err());
    }
}
