//! Order statistics over per-session samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, interpolating linearly
/// between order statistics; `None` when there are no samples.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// The 90th percentile, but only when at least ten samples lie beyond
/// it — fewer than that and the tail is not measured, just guessed.
#[must_use]
pub fn p90_if_measured(samples: &[f64]) -> Option<f64> {
    let p90 = quantile(samples, 0.9)?;
    let beyond = samples.iter().filter(|&&x| x > p90).count();
    (beyond >= 10).then_some(p90)
}

/// The arithmetic mean of `samples`.
#[must_use]
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(p90_if_measured(&few), None);
        let many: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(p90_if_measured(&many), Some(90.0));
    }
}
