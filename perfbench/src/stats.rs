//! Summary statistics and process measurements.

/// The mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The mean of the largest `frac` share of `values` (at least one value);
/// 0 for an empty slice. Unlike a single high percentile, it moves
/// smoothly when the values near the cut trade places, which keeps it
/// steady over a suite of jobs whose sizes are far apart.
pub fn tail_mean(values: &[f64], frac: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    let k = ((frac * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    mean(&sorted[..k])
}

/// The smallest of `values`; 0 for an empty slice.
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The median of `values` (mean of the middle two for an even count); 0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads computed here match the ones computed from the printed
/// results. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_mean_averages_the_slowest_share() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_mean(&v, 0.1), 19.5);
        assert_eq!(tail_mean(&[1.0, 3.0], 0.1), 3.0);
        assert_eq!(tail_mean(&[], 0.1), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(minimum(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(minimum(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
