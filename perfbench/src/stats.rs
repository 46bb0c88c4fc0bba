//! Percentiles under the benchmark's reporting rule: a percentile is
//! reported only when at least ten samples lie beyond it, always with
//! the sample count.

/// Percentiles the rule climbs, lowest first.
pub const LADDER: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support quantile `q`.
pub fn supported(q: f64, n: usize) -> bool {
    n > 0 && n - rank(q, n) >= TAIL_SAMPLES
}

/// The highest [`LADDER`] quantile `n` samples support.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.iter().copied().rev().find(|&q| supported(q, n))
}

/// Nearest-rank quantile of ascending `sorted` (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(q, sorted.len()) - 1]
}

/// A sample set summarized under the rule.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    sorted: Vec<f64>,
}

impl Summary {
    pub fn new(mut values: Vec<f64>) -> Summary {
        values.sort_by(f64::total_cmp);
        Summary {
            n: values.len(),
            sorted: values,
        }
    }

    pub fn median(&self) -> f64 {
        quantile(&self.sorted, 0.5)
    }

    /// Quantile `q` when the sample supports it; otherwise the highest
    /// supported one below it (or the median of a tiny sample), with the
    /// quantile actually reported.
    pub fn at_most(&self, q: f64) -> (f64, f64) {
        let used = LADDER
            .iter()
            .copied()
            .rev()
            .find(|&l| l <= q && supported(l, self.n))
            .unwrap_or(0.5);
        (quantile(&self.sorted, used), used)
    }

    /// `p50=… p99=… (n=…)`-style text: the median and the highest
    /// supported percentile, scaled by `scale`.
    pub fn describe(&self, scale: f64) -> String {
        match highest_supported(self.n) {
            Some(q) if q > 0.5 => format!(
                "p50={:.4} p{}={:.4} (n={})",
                self.median() * scale,
                label(q),
                quantile(&self.sorted, q) * scale,
                self.n
            ),
            _ => format!("p50={:.4} (n={})", self.median() * scale, self.n),
        }
    }
}

/// `0.99` → `"99"`, `0.999` → `"99.9"`.
pub fn label(q: f64) -> String {
    let s = format!("{:.2}", q * 100.0);
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::new(values.to_vec()).median()
}

/// Histogram buckets as `telemetry::Histogram::nonzero_buckets` lists
/// them: `(low, high, count)`, ascending.
pub type Buckets = Vec<(u64, u64, u64)>;

/// Observations recorded between two snapshots of one histogram.
pub fn bucket_delta(before: &Buckets, after: &Buckets) -> Buckets {
    after
        .iter()
        .filter_map(|&(lo, hi, c)| {
            let prev = before.iter().find(|b| b.0 == lo).map_or(0, |b| b.2);
            (c > prev).then_some((lo, hi, c - prev))
        })
        .collect()
}

/// Total observations in `buckets`.
pub fn bucket_count(buckets: &Buckets) -> u64 {
    buckets.iter().map(|b| b.2).sum()
}

/// Quantile `q` of bucketed observations: the upper bound of the bucket
/// holding the nearest-rank observation (0 when empty).
pub fn bucket_quantile(buckets: &Buckets, q: f64) -> u64 {
    let n = bucket_count(buckets) as usize;
    if n == 0 {
        return 0;
    }
    let r = rank(q, n) as u64;
    let mut seen = 0;
    for &(_, hi, c) in buckets {
        seen += c;
        if seen >= r {
            return hi;
        }
    }
    buckets.last().map_or(0, |b| b.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert!(!supported(0.5, 19));
        assert!(supported(0.5, 20));
        assert!(!supported(0.99, 999));
        assert!(supported(0.99, 1000));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = Summary::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(s.median(), 500.0);
        assert_eq!(s.at_most(0.99), (990.0, 0.99));
        let small = Summary::new((1..=100).map(f64::from).collect());
        assert_eq!(small.at_most(0.99), (90.0, 0.9));
        assert_eq!(small.describe(1.0), "p50=50.0000 p90=90.0000 (n=100)");
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn bucket_deltas_and_quantiles() {
        let before = vec![(0, 9, 5), (10, 19, 1)];
        let after = vec![(0, 9, 5), (10, 19, 4), (20, 39, 2)];
        let d = bucket_delta(&before, &after);
        assert_eq!(d, vec![(10, 19, 3), (20, 39, 2)]);
        assert_eq!(bucket_count(&d), 5);
        assert_eq!(bucket_quantile(&d, 0.5), 19);
        assert_eq!(bucket_quantile(&d, 0.99), 39);
        assert_eq!(bucket_quantile(&Vec::new(), 0.5), 0);
    }
}
