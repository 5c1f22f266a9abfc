//! Order statistics for timing samples.
//!
//! Every timing is reported as a median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it, and the sample count
//! travels with both. Percentiles use the nearest-rank definition, so "the
//! samples beyond percentile p" is an exact count: `n - ceil(p/100 * n)`.

/// Percentiles the tail rule may report, highest first. The ladder stops at
/// p99 so a run that happens to collect more samples does not switch to a
/// different percentile than its neighbours.
const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of percentile `pct` among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `pct` of `n` samples.
fn beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// Nearest-rank percentile of already sorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// Sorts a copy of `values` (NaN-free by construction: every sample is a
/// duration or a ratio of positive counts).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile_sorted(&sorted(values), 50.0)
}

/// Median of three timings of `f` (a replay timed in isolation).
pub fn median3(mut f: impl FnMut() -> std::time::Duration) -> std::time::Duration {
    let mut t = [f(), f(), f()];
    t.sort();
    t[1]
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples beyond
/// it, or `None` when `n` is too small for even the median to qualify.
fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median and tail of one timing series, with its sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Percentile the tail value sits at (100 = the maximum, used only when
    /// too few samples exist for any ladder percentile).
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `values`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        let tail_pct = tail_percentile(s.len()).unwrap_or(100.0);
        Summary {
            n: s.len(),
            p50: percentile_sorted(&s, 50.0),
            tail_pct,
            tail: percentile_sorted(&s, tail_pct),
        }
    }

    /// One human-readable line: `p50 … p99 … (n=…)`.
    pub fn describe(&self, unit: &str) -> String {
        let tail =
            if self.tail_pct >= 100.0 { "max".to_string() } else { format!("p{}", self.tail_pct) };
        format!("p50 {:.3} {unit}, {tail} {:.3} {unit} (n={})", self.p50, self.tail, self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_percentile(1000), Some(99.0));
        // One short of a thousand leaves only nine samples beyond p99.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(tail_percentile(999), Some(95.0));
    }

    #[test]
    fn small_series_fall_down_the_ladder() {
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_tail_count_and_falls_back_to_the_max() {
        let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&values);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        // Exactly ten samples (991..=1000) lie beyond the reported tail.
        assert_eq!(values.iter().filter(|&&v| v > s.tail).count(), MIN_BEYOND);

        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail_pct, few.tail), (2.0, 100.0, 3.0));
        assert!(few.describe("ms").contains("max 3.000 ms (n=3)"));
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    }
}
