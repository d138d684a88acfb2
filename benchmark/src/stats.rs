//! Fixed-size statistics: a log-bucket histogram for latencies and the
//! order statistics taken over per-slice values.

/// Sub-buckets per power of two. A bucket is 1/128 of its value wide, so
/// reporting its midpoint is off by at most 0.4 %.
const SUB: u64 = 128;
const SUB_BITS: u32 = 7;
/// Values up to 2^33 ns (8.6 s) keep their bucket; larger ones clamp
/// into the last.
const BUCKETS: usize = (SUB as usize) * 28;

/// A histogram of nanosecond values with a fixed number of
/// logarithmically spaced buckets: recording neither allocates nor locks,
/// and two histograms merge by adding counts.
#[derive(Clone)]
pub struct LogHist {
    counts: Box<[u32; BUCKETS]>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            counts: Box::new([0; BUCKETS]),
            total: 0,
        }
    }
}

impl std::fmt::Debug for LogHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHist")
            .field("total", &self.total)
            .finish()
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let idx = (shift as u64 + 1) * SUB + ((v >> shift) - SUB);
    (idx as usize).min(BUCKETS - 1)
}

fn bucket_mid(idx: usize) -> f64 {
    let idx = idx as u64;
    if idx < SUB {
        return idx as f64;
    }
    let shift = idx / SUB - 1;
    let low = (SUB + idx % SUB) << shift;
    low as f64 + (1u64 << shift) as f64 / 2.0
}

impl LogHist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.total += other.total;
    }

    /// The value at quantile `q` in `[0, 1]`: the midpoint of the bucket
    /// holding the `ceil(q·n)`-th smallest sample. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return Some(bucket_mid(idx));
            }
        }
        unreachable!("bucket counts sum to total")
    }
}

/// Median and quartiles of a set of per-slice values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistics of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in slice values"));
    sorted
}

/// Linear-interpolated quantile of an already sorted slice.
fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quartiles of `values`.
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn quartiles(values: &[f64]) -> Quartiles {
    let sorted = sorted(values);
    Quartiles {
        q1: sorted_quantile(&sorted, 0.25),
        median: sorted_quantile(&sorted, 0.5),
        q3: sorted_quantile(&sorted, 0.75),
    }
}

/// The linear-interpolated quantile `q` in `[0, 1]` of `values` (see
/// [`quartiles`] for the panics).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    sorted_quantile(&sorted(values), q)
}

/// Median of `values` (see [`quartiles`] for the panics).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_midpoint_is_within_one_percent_of_any_value() {
        let mut v = 1u64;
        while v < 1 << 33 {
            for probe in [v, v + v / 3, v + v / 2, 2 * v - 1] {
                let mid = bucket_mid(bucket_of(probe));
                let err = (mid - probe as f64).abs() / probe as f64;
                assert!(err <= 0.01, "value {probe}: midpoint {mid}, error {err}");
            }
            v *= 2;
        }
    }

    #[test]
    fn buckets_are_monotone_and_contiguous() {
        let mut last = 0usize;
        for v in 0..200_000u64 {
            let b = bucket_of(v);
            assert!(b == last || b == last + 1, "gap at {v}");
            last = b;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_of_a_uniform_ramp() {
        let mut h = LogHist::default();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for (q, want) in [(0.5, 500_000.0), (0.99, 990_000.0), (1.0, 1_000_000.0)] {
            let got = h.quantile(q).expect("samples");
            assert!((got - want).abs() / want <= 0.01, "q{q}: {got} vs {want}");
        }
        assert_eq!(LogHist::default().quantile(0.5), None);
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (LogHist::default(), LogHist::default());
        a.record(100);
        b.record(1_000_000);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        let p99 = a.quantile(0.99).expect("samples");
        assert!((p99 - 1_000_000.0).abs() / 1_000_000.0 <= 0.01);
        a.clear();
        assert_eq!(a.count(), 0);
    }

    #[test]
    fn slice_median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        // One wild slice does not move the median.
        assert_eq!(median(&[10.0, 10.0, 10.0, 10.0, 1e9]), 10.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.0), 1.0);
        assert_eq!(quantile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.1), 1.4);
        assert_eq!(quantile(&[5.0, 1.0, 3.0, 2.0, 4.0], 1.0), 5.0);
    }
}
