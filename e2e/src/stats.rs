//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `None` for an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of a set of measurements (mean of the middle two for an even
/// count). `None` for an empty set.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Percentiles of one set of latency samples, with the sample count that
/// says how far into the tail they can be trusted.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub samples: usize,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

impl Summary {
    /// Summarises `samples`, sorting them in place.
    pub fn of(samples: &mut [u64]) -> Summary {
        samples.sort_unstable();
        let at = |q| percentile(samples, q).unwrap_or(0);
        Summary {
            samples: samples.len(),
            p50_ns: at(0.50),
            p95_ns: at(0.95),
            p99_ns: at(0.99),
            max_ns: samples.last().copied().unwrap_or(0),
        }
    }
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.95), Some(95));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.95), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn summary_reports_its_sample_count() {
        let mut v = vec![30, 10, 20];
        let s = Summary::of(&mut v);
        assert_eq!((s.samples, s.p50_ns, s.max_ns), (3, 20, 30));
        assert_eq!(Summary::of(&mut []), Summary::default());
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
