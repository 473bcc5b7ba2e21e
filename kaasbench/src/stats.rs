//! Order statistics shared by the workloads, the traced pass and the
//! host-clock summaries.

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest rank over a copy of `xs`;
/// 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (mean of the middle pair for even lengths).
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

/// Interquartile range as a share of the median (the run-to-run
/// spread reported in the metadata line).
pub fn spread(xs: &[f64]) -> f64 {
    let m = median(xs);
    if m == 0.0 || xs.len() < 2 {
        return 0.0;
    }
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
