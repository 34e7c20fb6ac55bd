//! Sample summaries: median, spread and a tail percentile that is only
//! reported when enough samples lie beyond it to mean something.

use std::time::{Duration, Instant};

use crate::json::{obj, Value};

/// Fewest samples for which a tail percentile is reported.
const TAIL_MIN_SAMPLES: usize = 25;
/// Samples that must lie strictly beyond the reported tail value.
const TAIL_BEYOND: usize = 10;

/// The tail of a sample set: the highest percentile that still has
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile rank in `(0, 100)`, e.g. `90.0` for 100 samples.
    pub percentile: f64,
    pub value: f64,
}

/// Median, extremes and count of one timing's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
    pub tail: Option<Tail>,
}

impl Summary {
    /// Summarise `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median =
            if n % 2 == 1 { sorted[n / 2] } else { 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]) };
        let tail = (n >= TAIL_MIN_SAMPLES).then(|| {
            let at_or_below = n - TAIL_BEYOND;
            Tail {
                percentile: 100.0 * at_or_below as f64 / n as f64,
                value: sorted[at_or_below - 1],
            }
        });
        Some(Summary { median, min: sorted[0], max: sorted[n - 1], n, tail })
    }

    /// The same summary in another unit (`factor` multiplies every value).
    pub fn scaled(self, factor: f64) -> Summary {
        Summary {
            median: self.median * factor,
            min: self.min * factor,
            max: self.max * factor,
            n: self.n,
            tail: self.tail.map(|t| Tail { value: t.value * factor, ..t }),
        }
    }

    /// Sum of two independent stages, extremes added pessimistically (the
    /// spread of `setup + solve` is at most the sum of the two spreads).
    pub fn plus(self, other: Summary) -> Summary {
        Summary {
            median: self.median + other.median,
            min: self.min + other.min,
            max: self.max + other.max,
            n: self.n.min(other.n),
            tail: None,
        }
    }

    pub fn to_json(self) -> Value {
        let mut members = vec![
            ("median", Value::from(self.median)),
            ("min", Value::from(self.min)),
            ("max", Value::from(self.max)),
            ("n", Value::from(self.n)),
        ];
        if let Some(tail) = self.tail {
            members.push(("tail_percentile", Value::from(tail.percentile)));
            members.push(("tail_value", Value::from(tail.value)));
        }
        obj(members)
    }
}

/// Median of `samples` (0 when empty — used for metrics that do not apply).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// Seconds per call of `f`: calibrate a batch that lasts at least `floor`,
/// then take `samples` batches of that size.
pub fn time_kernel<F: FnMut()>(mut f: F, floor: Duration, samples: usize) -> Summary {
    let mut calls: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= floor || calls >= 1 << 20 {
            break;
        }
        let projected = (floor.as_nanos() as u64).saturating_mul(calls)
            / (elapsed.as_nanos() as u64).max(1)
            + 1;
        calls = projected.max(calls * 2).min(1 << 20);
    }
    let per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    Summary::of(&per_call).expect("at least one kernel sample")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).unwrap().median, 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 2.0, 3.0]).unwrap().median, 2.5);
        let s = Summary::of(&[5.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.n), (5.0, 5.0, 5.0, 1));
        assert!(Summary::of(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_25_samples_and_keeps_10_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert!(Summary::of(&samples(24)).unwrap().tail.is_none());
        // 25 samples: the 15th is the highest with 10 beyond it → p60.
        let t = Summary::of(&samples(25)).unwrap().tail.unwrap();
        assert_eq!((t.percentile, t.value), (60.0, 15.0));
        let t = Summary::of(&samples(100)).unwrap().tail.unwrap();
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        let t = Summary::of(&samples(1000)).unwrap().tail.unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
    }

    #[test]
    fn scaling_and_adding_keep_the_ordering() {
        let a = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        let b = Summary::of(&[10.0, 20.0]).unwrap();
        let ms = a.scaled(1e3);
        assert_eq!((ms.min, ms.median, ms.max), (1e3, 2e3, 3e3));
        let sum = a.plus(b);
        assert_eq!((sum.min, sum.median, sum.max, sum.n), (11.0, 17.0, 23.0, 2));
    }

    #[test]
    fn time_kernel_counts_every_call() {
        let mut calls = 0u64;
        let s = time_kernel(|| calls += 1, Duration::from_micros(200), 3);
        assert_eq!(s.n, 3);
        assert!(calls >= 4 && s.median >= 0.0);
    }
}
