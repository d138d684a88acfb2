//! Unified observability: a shared, thread-safe metrics handle plus
//! text exporters, used identically by the deterministic simulator and
//! the live threaded runtime.
//!
//! Protocol nodes emit counters and latency samples through
//! [`crate::node::Context::metric_incr`] /
//! [`crate::node::Context::metric_observe`], by [`crate::metrics::MetricId`]
//! handle. Under simulation the [`crate::world::World`] folds those
//! effects into its run-level [`Metrics`]; under `wanacl-rt` every worker
//! folds them into its own shard of one [`MetricsSink`]. Either way the
//! result is the same bag of names ([`crate::metrics::REGISTRY`], printed
//! in DESIGN.md §11), exportable as:
//!
//! * [`prometheus_text`] — a Prometheus text-format snapshot, and
//! * [`metrics_jsonl`] — one self-describing JSON object per metric,
//!   suitable for campaign artifacts and offline rollups.
//!
//! Both exporters are pure functions of a [`Metrics`] value and never
//! mutate it, so exporting a snapshot cannot perturb later comparisons.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::metrics::{MetricKey, Metrics};

/// A cheap, cloneable, thread-safe handle onto one sharded [`Metrics`]
/// bag.
///
/// Recording takes a short hold of this handle's own shard; reading
/// ([`MetricsSink::counter`], [`MetricsSink::snapshot`]) and
/// [`MetricsSink::reset`] cover every shard, so all handles see the
/// same totals. Cloning shares the shard; [`MetricsSink::shard`] opens
/// a new one. This is the live-runtime counterpart of the simulator's
/// world-owned metrics: each worker of the pool records the
/// `MetricIncr`/`MetricObserve` effects of the nodes it steps into a
/// shard of its own, so recorders never contend with each other.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    /// The shard this handle records into.
    own: Arc<Mutex<Metrics>>,
    /// Every shard of the sink, `own` included, in creation order.
    shards: Arc<Mutex<Vec<Arc<Mutex<Metrics>>>>>,
}

// A panic while holding a lock poisons it; the metrics data itself is
// still coherent (every mutation is atomic under the lock), so keep
// recording rather than losing the run's numbers.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl Default for MetricsSink {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSink {
    /// Creates a sink around an empty metrics bag.
    pub fn new() -> Self {
        let own = Arc::new(Mutex::new(Metrics::new()));
        MetricsSink { shards: Arc::new(Mutex::new(vec![own.clone()])), own }
    }

    /// A handle onto the same sink that records into a fresh shard of
    /// its own: give one to each recording thread.
    pub fn shard(&self) -> MetricsSink {
        let own = Arc::new(Mutex::new(Metrics::new()));
        lock(&self.shards).push(own.clone());
        MetricsSink { own, shards: self.shards.clone() }
    }

    /// Adds `delta` to a counter.
    pub fn add(&self, key: impl MetricKey, delta: u64) {
        lock(&self.own).add(key, delta);
    }

    /// Increments a counter by one.
    pub fn incr(&self, key: impl MetricKey) {
        lock(&self.own).incr(key);
    }

    /// Records one sample into a histogram.
    pub fn observe(&self, key: impl MetricKey, value: f64) {
        lock(&self.own).observe(key, value);
    }

    /// Current value of a counter over all shards (zero if never
    /// touched).
    pub fn counter(&self, key: impl MetricKey) -> u64 {
        lock(&self.shards).iter().map(|shard| lock(shard).counter(key)).sum()
    }

    /// A point-in-time copy of the whole bag: the shards' slots added
    /// up in shard creation order.
    pub fn snapshot(&self) -> Metrics {
        let shards = lock(&self.shards);
        let mut merged = lock(&shards[0]).clone();
        for shard in &shards[1..] {
            merged.merge(&lock(shard));
        }
        merged
    }

    /// Clears all counters and histograms in every shard.
    pub fn reset(&self) {
        for shard in lock(&self.shards).iter() {
            lock(shard).reset();
        }
    }
}

/// Maps a dotted metric name to a Prometheus-legal one:
/// `host.cache_hit` → `wanacl_host_cache_hit`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("wanacl_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

/// Renders a snapshot in the Prometheus text exposition format.
///
/// Counters become `counter` samples; histograms are rendered as
/// summaries (`{quantile="..."}` samples plus `_sum` and `_count`).
/// Output is sorted by metric name and deterministic for a given
/// snapshot.
pub fn prometheus_text(metrics: &Metrics) -> String {
    let mut out = String::new();
    for (name, value) in metrics.counters() {
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p} counter\n{p} {value}\n"));
    }
    for (name, hist) in metrics.histograms() {
        let Some(s) = hist.summary() else { continue };
        let p = prom_name(name);
        out.push_str(&format!("# TYPE {p} summary\n"));
        for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
            out.push_str(&format!("{p}{{quantile=\"{q}\"}} {v}\n"));
        }
        out.push_str(&format!("{p}_sum {}\n{p}_count {}\n", s.sum, s.count));
    }
    out
}

/// Escapes the two characters that can appear in a JSON string we emit.
fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a non-finite-safe JSON number (JSON has no Inf/NaN).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Renders a snapshot as JSON Lines: one object per metric, each
/// tagged with `scope` (e.g. `"seed-7"` or `"rollup"`).
///
/// Counters: `{"scope":..,"kind":"counter","name":..,"value":N}`.
/// Histograms: `{"scope":..,"kind":"histogram","name":..,"count":..,
/// "sum":..,"mean":..,"min":..,"max":..,"p50":..,"p90":..,"p99":..}`.
///
/// Lines are sorted by kind then name; float rendering uses Rust's
/// shortest-roundtrip formatting, so two identical snapshots produce
/// byte-identical output — the property the campaign CI job asserts
/// across `--jobs` values.
pub fn metrics_jsonl(metrics: &Metrics, scope: &str) -> String {
    let scope = json_escape(scope);
    let mut out = String::new();
    for (name, value) in metrics.counters() {
        out.push_str(&format!(
            "{{\"scope\":\"{scope}\",\"kind\":\"counter\",\"name\":\"{}\",\"value\":{value}}}\n",
            json_escape(name),
        ));
    }
    for (name, hist) in metrics.histograms() {
        let Some(s) = hist.summary() else { continue };
        out.push_str(&format!(
            "{{\"scope\":\"{scope}\",\"kind\":\"histogram\",\"name\":\"{}\",\"count\":{},\
             \"sum\":{},\"mean\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}\n",
            json_escape(name),
            s.count,
            json_num(s.sum),
            json_num(s.mean),
            json_num(s.min),
            json_num(s.max),
            json_num(s.p50),
            json_num(s.p90),
            json_num(s.p99),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricId;

    #[test]
    fn sink_records_and_snapshots() {
        let sink = MetricsSink::new();
        sink.incr("a");
        sink.add("a", 4);
        sink.observe("lat", 0.5);
        assert_eq!(sink.counter("a"), 5);
        let snap = sink.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.histogram("lat").map(|h| h.count()), Some(1));
        // The snapshot is a copy: later recording does not change it.
        sink.incr("a");
        assert_eq!(snap.counter("a"), 5);
        sink.reset();
        assert_eq!(sink.counter("a"), 0);
    }

    #[test]
    fn sink_clones_share_the_bag() {
        let sink = MetricsSink::new();
        let other = sink.clone();
        sink.incr("x");
        other.incr("x");
        assert_eq!(sink.counter("x"), 2);
    }

    #[test]
    fn shards_sum_exactly_and_read_the_same_through_every_handle() {
        let sink = MetricsSink::new();
        let (a, b) = (sink.shard(), sink.shard());
        std::thread::scope(|scope| {
            for shard in [&a, &b] {
                scope.spawn(move || {
                    for _ in 0..100_000 {
                        shard.incr("shared");
                    }
                });
            }
        });
        for handle in [&sink, &a, &b, &a.clone()] {
            assert_eq!(handle.counter("shared"), 200_000);
            assert_eq!(handle.snapshot().counter("shared"), 200_000);
        }
        b.reset();
        for handle in [&sink, &a, &b] {
            assert_eq!(handle.counter("shared"), 0, "reset through any handle clears all");
            assert_eq!(handle.snapshot(), Metrics::new());
        }
    }

    #[test]
    fn sharded_and_single_handle_recordings_snapshot_alike() {
        let single = MetricsSink::new();
        let sharded = MetricsSink::new();
        let shards = [sharded.shard(), sharded.shard(), sharded.clone()];
        for i in 0..3_000u32 {
            // An order-scrambled sample stream, dealt round-robin.
            let value = f64::from(i.wrapping_mul(2_654_435_761) % 10_007) / 7.0;
            let name = if i % 5 == 0 { "lat.b" } else { "lat.a" };
            single.observe(name, value);
            single.add("count", u64::from(i % 3));
            let shard = &shards[i as usize % shards.len()];
            shard.observe(name, value);
            shard.add("count", u64::from(i % 3));
        }
        let (one, many) = (single.snapshot(), sharded.snapshot());
        assert_eq!(one.counters().collect::<Vec<_>>(), many.counters().collect::<Vec<_>>());
        // Merging adds bucket counts, so every order statistic agrees
        // exactly; `sum` is a float added up in another order.
        for ((name, a), (_, b)) in one.histograms().zip(many.histograms()) {
            let (a, b) = (a.summary().expect("samples"), b.summary().expect("samples"));
            assert!((a.sum - b.sum).abs() <= a.sum * 1e-12, "{name}: {} vs {}", a.sum, b.sum);
            let (sum, mean) = (a.sum, a.mean);
            assert_eq!(a, crate::metrics::HistogramSummary { sum, mean, ..b }, "{name}");
        }
        assert_eq!(one.histograms().count(), 2);
    }

    #[test]
    fn sink_is_consistent_under_concurrent_recorders() {
        let sink = MetricsSink::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let sink = sink.clone();
                scope.spawn(move || {
                    for i in 0..1_000 {
                        sink.incr("shared");
                        sink.observe("lat", (t * 1_000 + i) as f64);
                    }
                });
            }
        });
        let snap = sink.snapshot();
        assert_eq!(snap.counter("shared"), 8_000);
        let s = snap.histogram("lat").and_then(|h| h.summary()).expect("samples");
        assert_eq!(s.count, 8_000);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 7_999.0);
    }

    #[test]
    fn prometheus_text_renders_counters_and_summaries() {
        let mut m = Metrics::new();
        m.add("host.cache_hit", 3);
        m.observe("host.check_latency_s", 0.25);
        m.observe("host.check_latency_s", 0.75);
        let text = prometheus_text(&m);
        assert!(text.contains("# TYPE wanacl_host_cache_hit counter"), "{text}");
        assert!(text.contains("wanacl_host_cache_hit 3"), "{text}");
        assert!(text.contains("wanacl_host_check_latency_s{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("wanacl_host_check_latency_s_count 2"), "{text}");
        assert!(text.contains("wanacl_host_check_latency_s_sum 1"), "{text}");
    }

    #[test]
    fn jsonl_lines_are_well_formed_and_deterministic() {
        let mut m = Metrics::new();
        m.add("host.cache_hit", 3);
        m.observe("host.check_latency_s", 0.25);
        let a = metrics_jsonl(&m, "seed-1");
        let b = metrics_jsonl(&m.clone(), "seed-1");
        assert_eq!(a, b, "identical snapshots must export byte-identically");
        for line in a.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "line: {line}");
            assert!(line.contains("\"scope\":\"seed-1\""), "line: {line}");
            assert!(line.contains("\"name\":\"host."), "line: {line}");
        }
        assert_eq!(a.lines().count(), 2);
        assert!(a.contains("\"kind\":\"counter\",\"name\":\"host.cache_hit\",\"value\":3"));
        assert!(a.contains("\"kind\":\"histogram\",\"name\":\"host.check_latency_s\",\"count\":1"));
    }

    #[test]
    fn an_export_holds_a_metric_iff_it_was_recorded() {
        let mut m = Metrics::new();
        assert_eq!(prometheus_text(&m) + &metrics_jsonl(&m, "s"), "", "registered is not recorded");
        // A zero delta records; reading does not.
        m.add(MetricId::HOST_DENIED, 0);
        m.add("adhoc", 0);
        assert_eq!(m.counter("host.allowed") + m.counter(MetricId::NET_SENT) + m.counter("other"), 0);
        assert!(m.histogram("host.check_latency_s").is_none());
        assert_eq!(
            prometheus_text(&m),
            "# TYPE wanacl_adhoc counter\nwanacl_adhoc 0\n\
             # TYPE wanacl_host_denied counter\nwanacl_host_denied 0\n"
        );
        assert_eq!(metrics_jsonl(&m, "s").lines().count(), 2);
        m.reset();
        assert_eq!(prometheus_text(&m) + &metrics_jsonl(&m, "s"), "");
    }

    #[test]
    fn jsonl_escapes_quotes_and_backslashes() {
        let mut m = Metrics::new();
        m.incr("weird\"name\\x");
        let out = metrics_jsonl(&m, "s");
        assert!(out.contains("\"name\":\"weird\\\"name\\\\x\""), "{out}");
    }

    #[test]
    fn exporting_does_not_mutate_the_snapshot() {
        let mut m = Metrics::new();
        m.observe("h", 5.0);
        m.observe("h", 1.0);
        let before = m.clone();
        let _ = prometheus_text(&m);
        let _ = metrics_jsonl(&m, "x");
        assert_eq!(m, before);
    }
}
