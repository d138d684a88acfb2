//! Run-level measurement: counters and latency histograms.
//!
//! Experiments read these after a run to compute empirical availability,
//! security, and overhead numbers.

use std::collections::BTreeMap;

/// A bag of named counters plus named sample sets.
///
/// Counter and histogram names are free-form; the protocol crates document
/// the names they emit (see DESIGN.md §11 for the registry).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// Creates an empty metrics bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        // Look up before allocating: the key exists on all but the
        // first call per name.
        match self.counters.get_mut(name) {
            Some(value) => *value += delta,
            None => {
                self.counters.insert(name.to_owned(), delta);
            }
        }
    }

    /// Increments the named counter by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records one sample into the named histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        match self.histograms.get_mut(name) {
            Some(hist) => hist.record(value),
            None => self.histograms.entry(name.to_owned()).or_default().record(value),
        }
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates over all histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Folds `other` into `self`: counters add, histogram sample sets
    /// concatenate in `other`'s recording order. Merging reports in a
    /// fixed order therefore yields a bit-identical rollup regardless of
    /// how the individual runs were scheduled.
    pub fn merge(&mut self, other: &Metrics) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, hist) in &other.histograms {
            let target = self.histograms.entry(name.clone()).or_default();
            for &sample in &hist.samples {
                target.record(sample);
            }
        }
    }

    /// Clears all counters and histograms.
    pub fn reset(&mut self) {
        self.counters.clear();
        self.histograms.clear();
    }
}

/// An exact-sample histogram (stores every observation).
///
/// Simulation runs record at most a few million samples, so exact storage
/// is affordable and keeps quantile math trivially correct.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

/// Two histograms are equal when they hold the same multiset of samples.
///
/// The comparison sorts copies so that a histogram whose samples were
/// lazily sorted by [`Histogram::quantile`] still equals an untouched
/// recording of the same run — the `sorted` flag is an implementation
/// detail, not data.
impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        if self.samples.len() != other.samples.len() {
            return false;
        }
        let sort = |v: &[f64]| {
            let mut s = v.to_vec();
            s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            s
        };
        sort(&self.samples) == sort(&other.samples)
    }
}

/// Order statistics of one histogram, computed without mutating it.
///
/// Produced by [`Histogram::summary`]; the exporters in [`crate::obs`]
/// render these fields rather than raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of samples.
    pub count: usize,
    /// Sum of all samples (in recording order, so deterministic).
    pub sum: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "histogram samples must not be NaN");
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// The `q`-quantile (nearest-rank), or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1], got {q}");
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            self.sorted = true;
        }
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        Some(self.samples[rank - 1])
    }

    /// Order statistics over the current samples, or `None` when empty.
    ///
    /// Unlike [`Histogram::quantile`] this never reorders the stored
    /// samples (it sorts a copy), so snapshots stay comparable with
    /// untouched recordings of the same run.
    pub fn summary(&self) -> Option<HistogramSummary> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
        let rank = |q: f64| {
            let r = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[r - 1]
        };
        let sum: f64 = self.samples.iter().sum();
        Some(HistogramSummary {
            count: self.samples.len(),
            sum,
            mean: sum / self.samples.len() as f64,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: rank(0.5),
            p90: rank(0.9),
            p99: rank(0.99),
        })
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(m) => Some(m.max(v)),
        })
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().copied().fold(None, |acc, v| match acc {
            None => Some(v),
            Some(m) => Some(m.min(v)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.incr("msgs");
        m.add("msgs", 4);
        assert_eq!(m.counter("msgs"), 5);
        assert_eq!(m.counter("other"), 0);
    }

    #[test]
    fn counters_iterate_in_name_order() {
        let mut m = Metrics::new();
        m.incr("z");
        m.incr("a");
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "z"]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Metrics::new();
        m.incr("x");
        m.observe("h", 1.0);
        m.reset();
        assert_eq!(m.counter("x"), 0);
        assert!(m.histogram("h").is_none());
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Some(2.5));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
    }

    #[test]
    fn empty_histogram_returns_none() {
        let mut h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn histogram_rejects_nan() {
        Histogram::new().record(f64::NAN);
    }

    #[test]
    fn quantile_after_more_records_resorts() {
        let mut h = Histogram::new();
        h.record(5.0);
        assert_eq!(h.quantile(0.5), Some(5.0));
        h.record(1.0);
        assert_eq!(h.quantile(0.0), Some(1.0));
    }

    #[test]
    fn quantile_edges_single_sample() {
        let mut h = Histogram::new();
        h.record(7.5);
        assert_eq!(h.quantile(0.0), Some(7.5));
        assert_eq!(h.quantile(0.5), Some(7.5));
        assert_eq!(h.quantile(1.0), Some(7.5));
        let s = h.summary().expect("non-empty");
        assert_eq!((s.count, s.min, s.max, s.p50, s.p99), (1, 7.5, 7.5, 7.5, 7.5));
    }

    #[test]
    fn quantile_edges_duplicate_values() {
        let mut h = Histogram::new();
        for v in [2.0, 2.0, 2.0, 9.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(2.0));
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(0.75), Some(2.0));
        assert_eq!(h.quantile(1.0), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn quantile_out_of_range_panics() {
        let mut h = Histogram::new();
        h.record(1.0);
        h.quantile(1.5);
    }

    #[test]
    fn reset_allows_reuse() {
        let mut m = Metrics::new();
        m.incr("x");
        m.observe("h", 1.0);
        m.reset();
        m.incr("x");
        m.observe("h", 3.0);
        assert_eq!(m.counter("x"), 1);
        assert_eq!(m.histogram("h").and_then(|h| h.mean()), Some(3.0));
    }

    #[test]
    fn summary_does_not_reorder_samples() {
        let mut h = Histogram::new();
        h.record(5.0);
        h.record(1.0);
        let s = h.summary().expect("non-empty");
        assert_eq!((s.min, s.max, s.count), (1.0, 5.0, 2));
        // Equality with a histogram recorded in the same order must hold
        // (summary sorted a copy, not the samples themselves).
        let mut same = Histogram::new();
        same.record(5.0);
        same.record(1.0);
        assert_eq!(h, same);
    }

    #[test]
    fn equality_ignores_lazy_sort_state() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [3.0, 1.0, 2.0] {
            a.record(v);
            b.record(v);
        }
        let _ = a.quantile(0.5); // sorts a's samples in place
        assert_eq!(a, b, "lazily sorted histogram must equal its untouched twin");
    }

    #[test]
    fn merge_adds_counters_and_concatenates_samples() {
        let mut a = Metrics::new();
        a.add("c", 2);
        a.observe("h", 1.0);
        let mut b = Metrics::new();
        b.add("c", 3);
        b.incr("only_b");
        b.observe("h", 2.0);
        b.observe("h2", 9.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.histogram("h").map(|h| h.count()), Some(2));
        assert_eq!(a.histogram("h2").map(|h| h.count()), Some(1));
    }

    #[test]
    fn observe_via_metrics() {
        let mut m = Metrics::new();
        m.observe("latency", 0.25);
        m.observe("latency", 0.75);
        assert_eq!(m.histogram("latency").map(|h| h.count()), Some(2));
        assert_eq!(m.histogram("latency").and_then(|h| h.mean()), Some(0.5));
    }
}
