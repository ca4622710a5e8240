//! Order statistics over measured samples.

/// Nearest-rank quantile `q` in `[0, 1]` of `values`; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted.get(rank - 1).copied()
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Throughput of one operation, MB/s of virtual time (1 MB = 10^6 bytes,
/// as in the figure benches). A zero-duration op counts as 1 ns.
pub fn mbps(bytes: u64, sim_ns: u64) -> f64 {
    (bytes as f64 / 1e6) / (sim_ns.max(1) as f64 / 1e9)
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.99), Some(99.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
