//! Order statistics and process measurements.

/// Nearest-rank percentile (`q` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The highest percentile, at most `want`, with at least `beyond`
/// samples above it among `n` samples. `None` when even the median
/// lacks that many.
pub fn tail_percentile(n: usize, want: f64, beyond: usize) -> Option<f64> {
    let mut q = want;
    while q >= 50.0 {
        if n - rank(n, q) >= beyond {
            return Some(q);
        }
        q -= 1.0;
    }
    None
}

/// Peak resident set size of this process, MiB, from the kernel's
/// high-water mark.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_beyond() {
        assert_eq!(tail_percentile(2000, 99.0, 10), Some(99.0));
        // 96 samples: p89 is rank 86, ten above it
        assert_eq!(tail_percentile(96, 99.0, 10), Some(89.0));
        assert_eq!(tail_percentile(12, 99.0, 10), None);
    }

    #[test]
    fn rss_is_measured() {
        assert!(peak_rss_mib() > 0.0);
    }
}
