//! Small order statistics for the report.

/// Median of `xs` (mean of the two middle values for even counts); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile of `xs` and the number of samples
/// beyond it, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it — such a tail is too thin to report.
pub fn percentile(xs: &[f64], p: f64) -> Option<(f64, usize)> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let beyond = v.len() - rank;
    (beyond >= MIN_BEYOND).then(|| (v[rank - 1], beyond))
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_with_a_thin_tail_is_omitted() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 beyond: reported.
        assert_eq!(percentile(&xs, 90.0), Some((90.0, 10)));
        // p95 leaves 5 beyond: omitted.
        assert_eq!(percentile(&xs, 95.0), None);
        // 672 matrix cells leave 67 beyond p90.
        let cells: Vec<f64> = (0..672).map(f64::from).collect();
        assert_eq!(percentile(&cells, 90.0).map(|(_, b)| b), Some(67));
        // 18 fleet cells are too few for any tail percentile.
        let few: Vec<f64> = (0..18).map(f64::from).collect();
        assert_eq!(percentile(&few, 50.0).map(|(_, b)| b), None);
    }
}
