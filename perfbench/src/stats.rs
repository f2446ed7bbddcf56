//! Summaries of timing samples: the median plus the highest percentile
//! that still has at least [`MIN_BEYOND`] samples beyond it, always
//! reported with the sample count.
//!
//! A p99 over 50 samples is the maximum under another name; the rule
//! climbs the percentile ladder only as far as the data supports.

/// Percentiles a tail may be reported at, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float noise in `p·n/100` from bumping an exact
    // rank up by one.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even p75 has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of ascending `sorted` (NaN when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// The median: the middle sample, or the mean of the middle two.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// A median-and-tail summary of one timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// `(percentile, value, samples beyond it)` per the tail rule.
    pub tail: Option<(f64, f64, usize)>,
}

impl Summary {
    /// Summarizes `values` (any order).
    pub fn of(values: &[f64]) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Summary {
            n,
            median: median(&sorted),
            tail: tail_percentile(n).map(|p| (p, percentile(&sorted, p), beyond(n, p))),
        }
    }

    /// `median 1.23 ms, p90 4.56 ms (12 beyond), n=130`.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v, k)) => format!(", p{p} {v:.4} {unit} ({k} beyond)"),
            None => format!(", no tail percentile has {MIN_BEYOND} samples beyond it"),
        };
        format!("median {:.4} {unit}{tail}, n={}", self.median, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        // 40 samples: p75 leaves exactly 10 beyond, p90 only 4.
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [40, 57, 400, 3333] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            let higher = TAIL_LADDER.iter().filter(|&&q| q > p);
            for &q in higher {
                assert!(beyond(n, q) < MIN_BEYOND, "n={n}: p{q} also qualifies");
            }
        }
    }

    #[test]
    fn summary_reports_value_and_count_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).rev().collect();
        let s = Summary::of(&values);
        assert_eq!(s.n, 100);
        assert_eq!(s.median, 50.5);
        assert_eq!(s.tail, Some((90.0, 90.0, 10)));
        assert!(s
            .describe("ms")
            .contains("p90 90.0000 ms (10 beyond), n=100"));
        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.median, few.tail), (2.0, None));
        assert!(few.describe("us").contains("no tail percentile"));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 5.0);
        assert_eq!(percentile(&sorted, 90.0), 9.0);
        assert_eq!(percentile(&sorted, 99.0), 10.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
