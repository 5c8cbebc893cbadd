//! Value-generation strategies (no shrinking — see the crate docs).

use crate::test_runner::TestRng;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// A reusable recipe for generating random values.
pub trait Strategy {
    /// The generated type.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U: Debug, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }
}

/// Always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, U: Debug, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.source.generate(rng))
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span + 1) as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        lo + (hi - lo) * rng.unit_f64()
    }
}

macro_rules! tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

impl<S: Strategy, const N: usize> Strategy for [S; N] {
    type Value = [S::Value; N];
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        std::array::from_fn(|i| self[i].generate(rng))
    }
}

/// `prop::collection::vec`: a vector whose length is uniform in `size`
/// and whose elements come from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    assert!(size.start < size.end, "empty vec size range");
    VecStrategy { element, size }
}

/// See [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let span = (self.size.end - self.size.start) as u64;
        let len = self.size.start + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// `prop::option::weighted`: `Some(inner)` with probability `p`.
pub fn weighted<S: Strategy>(p: f64, inner: S) -> OptionStrategy<S> {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    OptionStrategy { p, inner }
}

/// See [`weighted`].
pub struct OptionStrategy<S> {
    p: f64,
    inner: S,
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (rng.unit_f64() < self.p).then(|| self.inner.generate(rng))
    }
}

/// `prop::bool::ANY`: a fair coin.
#[derive(Debug, Clone, Copy)]
pub struct BoolAny;

/// The singleton instance used as `prop::bool::ANY`.
pub const BOOL_ANY: BoolAny = BoolAny;

impl Strategy for BoolAny {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// `prop::sample::select`: a uniformly chosen element of `options`.
pub fn select<T: Clone + Debug>(options: Vec<T>) -> SelectStrategy<T> {
    assert!(!options.is_empty(), "select from empty options");
    SelectStrategy { options }
}

/// See [`select`].
pub struct SelectStrategy<T> {
    options: Vec<T>,
}

impl<T: Clone + Debug> Strategy for SelectStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_and_collections_in_bounds() {
        let mut rng = TestRng::deterministic("shim::self_test");
        let ints = 0i64..7;
        let vecs = vec((0u64..8, 0u64..6), 0..120);
        let opts = weighted(0.5, 0i64..6);
        for _ in 0..500 {
            let i = ints.generate(&mut rng);
            assert!((0..7).contains(&i));
            let v = vecs.generate(&mut rng);
            assert!(v.len() < 120);
            for &(a, b) in &v {
                assert!(a < 8 && b < 6);
            }
            if let Some(x) = opts.generate(&mut rng) {
                assert!((0..6).contains(&x));
            }
        }
    }

    #[test]
    fn prop_map_and_select() {
        let mut rng = TestRng::deterministic("shim::map_test");
        let s = (0u32..10).prop_map(|x| x * 2);
        let sel = select(std::vec![1.5f64, 2.5]);
        for _ in 0..100 {
            assert_eq!(s.generate(&mut rng) % 2, 0);
            let f = sel.generate(&mut rng);
            assert!(f == 1.5 || f == 2.5);
        }
    }
}
