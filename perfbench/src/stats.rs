//! Order statistics over latency samples.

/// Median: the middle value, or the mean of the two middle values of an
/// even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The tail of a latency distribution: the highest percentile that still
/// has at least [`Tail::MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile (0–100] the value is.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

impl Tail {
    pub const MIN_BEYOND: usize = 10;

    /// The sample of rank `n - 10` (nearest-rank), i.e. the percentile
    /// `100 (n - 10) / n`, with exactly ten samples above it.  Ten samples
    /// or fewer have no such percentile: the maximum stands in, reported
    /// with nothing beyond it.
    pub fn of(sorted: &[f64]) -> Tail {
        assert!(!sorted.is_empty(), "tail of no samples");
        let n = sorted.len();
        let rank = if n > Self::MIN_BEYOND {
            n - Self::MIN_BEYOND
        } else {
            n
        };
        Tail {
            percentile: 100.0 * rank as f64 / n as f64,
            value: sorted[rank - 1],
            beyond: n - rank,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        let tail = Tail::of(&ramp(1000));
        assert_eq!(tail.percentile, 99.0);
        assert_eq!(tail.value, 990.0);
        assert_eq!(tail.beyond, 10);

        let tail = Tail::of(&ramp(40));
        assert_eq!((tail.percentile, tail.value, tail.beyond), (75.0, 30.0, 10));

        // Exactly 20 samples: the 10th is the highest qualifying rank.
        let tail = Tail::of(&ramp(20));
        assert_eq!((tail.percentile, tail.value), (50.0, 10.0));
    }

    #[test]
    fn short_samples_fall_back_to_the_maximum_and_say_so() {
        let tail = Tail::of(&ramp(5));
        assert_eq!((tail.percentile, tail.value, tail.beyond), (100.0, 5.0, 0));
        let tail = Tail::of(&ramp(11));
        assert_eq!((tail.value, tail.beyond), (1.0, 10));
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
