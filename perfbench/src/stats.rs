//! Sample statistics, in one place so every figure the benchmark prints
//! uses the same definitions.
//!
//! * Median and quartiles interpolate linearly between order
//!   statistics at position `q · (n − 1)` (the "inclusive" rule).
//! * The tail is an actual sample, never an interpolation: the highest
//!   percentile up to p99 that still has at least [`TAIL_BEYOND`]
//!   samples strictly beyond it. With 1 000 or more samples that is
//!   p99; with fewer it is a lower percentile, and the percentile used
//!   is reported beside the value.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest tail percentile reported.
pub const TAIL_MAX: f64 = 0.99;

/// A sorted, non-empty set of samples.
#[derive(Debug, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values`; `None` when there are none.
    pub fn new(mut values: Vec<f64>) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        values.sort_by(f64::total_cmp);
        Some(Samples(values))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q` quantile (`0 ≤ q ≤ 1`), linearly interpolated.
    pub fn quantile(&self, q: f64) -> f64 {
        let pos = q.clamp(0.0, 1.0) * (self.0.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.0[lo] + (self.0[hi] - self.0[lo]) * frac
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// First and third quartiles.
    pub fn quartiles(&self) -> (f64, f64) {
        (self.quantile(0.25), self.quantile(0.75))
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// `(percentile, value)` of the tail: the sample at index
    /// `min(⌊TAIL_MAX · (n − 1)⌋, n − 1 − TAIL_BEYOND)`, so at least
    /// [`TAIL_BEYOND`] samples lie beyond it. `None` below
    /// `TAIL_BEYOND + 1` samples.
    pub fn tail(&self) -> Option<(f64, f64)> {
        let n = self.0.len();
        if n <= TAIL_BEYOND {
            return None;
        }
        let idx = ((TAIL_MAX * (n - 1) as f64).floor() as usize).min(n - 1 - TAIL_BEYOND);
        let pct = if n == 1 {
            0.0
        } else {
            idx as f64 / (n - 1) as f64
        };
        Some((pct, self.0[idx]))
    }
}

/// Indices of the `k` shortest of `times` (all of them when there are
/// fewer), shortest first; ties keep their order.
///
/// A run repeats the same unit of work (a round, a pass), so how far
/// the units' times differ is how much other load on the machine
/// disturbed them. Pooling the samples of the `k` fastest units drops
/// the disturbed ones while keeping enough samples for a steady median
/// and tail.
pub fn fastest(times: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..times.len()).collect();
    order.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
    order.truncate(k);
    order
}

/// Median of `values`, or 0 when there are none (a layer a workload
/// never touches reports 0).
pub fn median_or_zero(values: Vec<f64>) -> f64 {
    Samples::new(values).map_or(0.0, |s| s.median())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(v: &[f64]) -> Samples {
        Samples::new(v.to_vec()).unwrap()
    }

    #[test]
    fn empty_has_no_statistics() {
        assert!(Samples::new(Vec::new()).is_none());
        assert_eq!(median_or_zero(Vec::new()), 0.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(samples(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(samples(&[4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert_eq!(samples(&[7.0]).median(), 7.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let s = samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.quartiles(), (2.0, 4.0));
        let s = samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.quartiles(), (1.75, 3.25));
    }

    #[test]
    fn tail_is_p99_once_ten_samples_lie_beyond_it() {
        let s = Samples::new((0..1000).map(f64::from).collect()).unwrap();
        let (pct, v) = s.tail().unwrap();
        assert_eq!(v, 989.0);
        assert!((pct - 989.0 / 999.0).abs() < 1e-12);
        // Exactly ten samples lie beyond it.
        assert_eq!((0..1000).filter(|&x| f64::from(x) > v).count(), 10);
    }

    #[test]
    fn tail_drops_below_p99_with_few_samples() {
        let s = Samples::new((0..100).map(f64::from).collect()).unwrap();
        let (pct, v) = s.tail().unwrap();
        assert_eq!(v, 89.0);
        assert!(pct < 0.99);
        assert_eq!((0..100).filter(|&x| f64::from(x) > v).count(), 10);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert!(samples(&[1.0; 10]).tail().is_none());
        assert_eq!(samples(&[1.0; 11]).tail(), Some((0.0, 1.0)));
    }

    #[test]
    fn fastest_picks_the_shortest_times() {
        let times = [3.0, 1.0, 4.0, 1.0, 5.0];
        assert_eq!(fastest(&times, 3), [1, 3, 0]);
        assert_eq!(fastest(&times, 9), [1, 3, 0, 2, 4]);
        assert!(fastest(&times, 0).is_empty());
        assert!(fastest(&[], 2).is_empty());
    }

    #[test]
    fn tail_truncates_instead_of_rounding() {
        // 0.99 · 1 950 = 1 930.5 -> index 1 930, not 1 931.
        let s = Samples::new((0..1951).map(f64::from).collect()).unwrap();
        assert_eq!(s.tail().unwrap().1, 1930.0);
    }
}
