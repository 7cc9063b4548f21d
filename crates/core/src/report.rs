//! Result summarisation helpers used by the experiment harness.

use serde::{Deserialize, Serialize};

/// Summary of one tuning run in the shape the paper's tables use:
/// default vs. tuned cost, improvement percentage, iterations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuningReport {
    /// Human-readable label (e.g. `"lxyes layout, benchmarking run"`).
    pub label: String,
    /// Cost of the untuned default configuration.
    pub default_cost: f64,
    /// Cost of the best configuration found.
    pub tuned_cost: f64,
    /// Fresh evaluations (application runs) consumed by tuning.
    pub iterations: usize,
    /// Total tuning wall time (runs + restart + warm-up overheads).
    pub tuning_time: f64,
}

impl TuningReport {
    /// Improvement as a percentage (the paper's `57.9%` style numbers).
    pub fn improvement_pct(&self) -> f64 {
        if self.default_cost <= 0.0 {
            return 0.0;
        }
        100.0 * (self.default_cost - self.tuned_cost) / self.default_cost
    }

    /// Speedup factor (the paper's `3.4×` style numbers).
    pub fn speedup(&self) -> f64 {
        if self.tuned_cost <= 0.0 {
            return f64::INFINITY;
        }
        self.default_cost / self.tuned_cost
    }
}

/// Where a value falls within a sampled cost distribution.
///
/// §VI compares Harmony's result against systematic sampling of the whole
/// space: "the configuration found by Active Harmony is within the top 5% of
/// the configurations".
pub fn percentile_rank(samples: &[f64], value: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let below = samples.iter().filter(|&&s| s < value).count();
    100.0 * below as f64 / samples.len() as f64
}

/// Histogram of a cost distribution with `bins` equal-width buckets, for
/// regenerating Figure 6. Returns `(bucket_upper_bounds, counts)`.
pub fn histogram(samples: &[f64], bins: usize) -> (Vec<f64>, Vec<usize>) {
    assert!(bins > 0, "histogram needs at least one bin");
    if samples.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let lo = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let width = ((hi - lo) / bins as f64).max(f64::MIN_POSITIVE);
    let mut counts = vec![0usize; bins];
    for &s in samples {
        let mut b = ((s - lo) / width) as usize;
        if b >= bins {
            b = bins - 1;
        }
        counts[b] += 1;
    }
    let bounds = (1..=bins).map(|i| lo + width * i as f64).collect();
    (bounds, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_and_speedup() {
        let r = TuningReport {
            label: "t".into(),
            default_cost: 43.7,
            tuned_cost: 18.4,
            iterations: 8,
            tuning_time: 300.0,
        };
        assert!((r.improvement_pct() - 57.9).abs() < 0.1);
        assert!((r.speedup() - 2.375).abs() < 0.01);
    }

    #[test]
    fn percentile_rank_counts_strictly_below() {
        let samples = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_rank(&samples, 2.5), 50.0);
        assert_eq!(percentile_rank(&samples, 0.5), 0.0);
        assert_eq!(percentile_rank(&samples, 10.0), 100.0);
        assert_eq!(percentile_rank(&[], 1.0), 0.0);
    }

    #[test]
    fn histogram_covers_all_samples() {
        let samples: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (bounds, counts) = histogram(&samples, 10);
        assert_eq!(bounds.len(), 10);
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert!(counts.iter().all(|&c| c == 10));
    }

    #[test]
    fn histogram_handles_constant_samples() {
        let samples = vec![5.0; 7];
        let (_, counts) = histogram(&samples, 4);
        assert_eq!(counts.iter().sum::<usize>(), 7);
    }
}
