//! Order statistics over raw samples.
//!
//! Percentiles use the nearest-rank rule on the sorted samples: the
//! `q`-quantile of `n` samples is the value of rank `ceil(q·n)`. A tail
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! strictly beyond its rank; a run too short for that is an error, not a
//! number.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count). `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The `q`-quantile (`0 < q ≤ 1`) of `values` by nearest rank, provided at
/// least `min_beyond` samples lie strictly beyond its rank.
///
/// # Errors
///
/// A message naming the sample count when the run is too short.
pub fn tail_percentile(values: &[f64], q: f64, min_beyond: usize) -> Result<f64, String> {
    let n = values.len();
    if n == 0 {
        return Err("no samples".into());
    }
    let r = rank(n, q);
    if n - r < min_beyond {
        return Err(format!(
            "{n} samples leave {} beyond p{}, need {min_beyond}",
            n - r,
            q * 100.0
        ));
    }
    Ok(sorted(values)[r - 1])
}

/// The arithmetic mean; `0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples 1..=1000: rank 990, ten samples beyond.
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.99, MIN_BEYOND), Ok(990.0));
        // 999 samples: rank ceil(989.01) = 990, only nine beyond.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        let err = tail_percentile(&short, 0.99, MIN_BEYOND).unwrap_err();
        assert!(err.contains("999 samples"), "{err}");
    }

    #[test]
    fn p50_is_nearest_rank_and_order_free() {
        let samples = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(tail_percentile(&samples, 0.5, 0), Ok(3.0));
        assert_eq!(tail_percentile(&samples, 1.0, 0), Ok(5.0));
        assert!(tail_percentile(&[], 0.5, 0).is_err());
    }
}
