//! Metrics registry: named counters, gauges, and fixed-bucket histograms.
//!
//! Handles are `Arc`-shared atomics — hot paths update them with relaxed
//! operations and never lock. The registry itself is only locked on
//! get-or-create and on snapshot, both cold.
//!
//! Histograms use fixed bucket upper bounds chosen at construction;
//! recording is one bucket search (over ~30 bounds) plus three relaxed
//! atomic updates, and p50/p95/p99 are estimated by linear interpolation
//! inside the owning bucket, clamped to the observed min/max so a
//! single-sample histogram reports that sample exactly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::{json_number, json_string};

/// Monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable standalone, outside any registry).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (queue depth, live rows, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below it (high-water marks).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-bucket histogram of non-negative samples (latencies, sizes).
///
/// Negative samples are clamped to zero. `bounds` are ascending bucket
/// upper bounds; an implicit overflow bucket catches everything above the
/// last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// Σ samples, stored as `f64` bits and accumulated by CAS.
    sum_bits: AtomicU64,
    /// Smallest sample's bits (non-negative f64 bits order like the values).
    min_bits: AtomicU64,
    /// Largest sample's bits.
    max_bits: AtomicU64,
}

impl Histogram {
    /// A histogram with explicit ascending upper bounds (must be non-empty,
    /// strictly increasing, and non-negative).
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]) && bounds[0] >= 0.0,
            "histogram bounds must be ascending and non-negative"
        );
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// Exponential bounds: `start, start·factor, …` (`n` bounds).
    pub fn exponential(start: f64, factor: f64, n: usize) -> Self {
        assert!(start > 0.0 && factor > 1.0 && n > 0, "bad exponential spec");
        let mut bounds = Vec::with_capacity(n);
        let mut b = start;
        for _ in 0..n {
            bounds.push(b);
            b *= factor;
        }
        Histogram::with_bounds(bounds)
    }

    /// The default latency histogram: 5µs to ~84s in ×2 steps
    /// (milliseconds).
    pub fn time_ms() -> Self {
        Histogram::exponential(0.005, 2.0, 24)
    }

    /// Records one sample (negatives clamp to 0).
    pub fn record(&self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // f64 bits of non-negative values order like the values themselves.
        self.min_bits.fetch_min(v.to_bits(), Ordering::Relaxed);
        self.max_bits.fetch_max(v.to_bits(), Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Records a duration in milliseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64() * 1e3);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimated `q`-quantile (`0.0..=1.0`): linear interpolation inside
    /// the owning bucket, clamped to the observed `[min, max]`. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if (cum + c) as f64 >= target {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    max
                };
                let frac = (target - cum as f64).max(0.0) / c as f64;
                let est = lower + (upper - lower) * frac;
                return est.clamp(min, max);
            }
            cum += c;
        }
        max
    }

    /// Point-in-time summary of this histogram.
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let (min, max) = if count == 0 {
            (0.0, 0.0)
        } else {
            (
                f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
                f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            )
        };
        HistogramSummary {
            count,
            sum: self.sum(),
            min,
            max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Derived histogram statistics, as exported in snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

impl HistogramSummary {
    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Cheap to create; subsystems that are
/// instantiated repeatedly (one scheduler per test, say) own their own so
/// concurrent instances never share counters. Process-wide telemetry uses
/// [`global`].
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Gets or creates the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` already registered with another kind"),
        }
    }

    /// Gets or creates the gauge `name` (same panic contract as
    /// [`Registry::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric `{name}` already registered with another kind"),
        }
    }

    /// Gets or creates the histogram `name` with the default latency
    /// buckets ([`Histogram::time_ms`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, Histogram::time_ms)
    }

    /// Gets or creates the histogram `name`, building it with `make` on
    /// first registration (same panic contract as [`Registry::counter`]).
    pub fn histogram_with(&self, name: &str, make: impl FnOnce() -> Histogram) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(make())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric `{name}` already registered with another kind"),
        }
    }

    /// Point-in-time snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().unwrap();
        let entries = m
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }
}

/// The process-wide registry (kernel, engine, and trainer telemetry).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A metric's exported value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Histogram statistics.
    Histogram(HistogramSummary),
}

/// Point-in-time view of a registry, name-sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs, ascending by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Serializes the snapshot as one JSON object: counters and gauges as
    /// numbers, histograms as `{count, sum, min, max, p50, p95, p99}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(name));
            out.push(':');
            match value {
                MetricValue::Counter(v) => out.push_str(&format!("{v}")),
                MetricValue::Gauge(v) => out.push_str(&format!("{v}")),
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                        h.count,
                        json_number(h.sum),
                        json_number(h.min),
                        json_number(h.max),
                        json_number(h.p50),
                        json_number(h.p95),
                        json_number(h.p99),
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("c");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("g");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
        g.set_max(3);
        assert_eq!(g.get(), 5, "set_max never lowers");
        g.set_max(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn registry_returns_same_handle_for_same_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn histogram_buckets_and_quantiles_uniform() {
        // 1..=100 into 10-wide linear buckets: exact quantiles are known and
        // interpolation must land within one bucket width of them.
        let h = Histogram::with_bounds((1..=10).map(|i| i as f64 * 10.0).collect());
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 100);
        assert!((h.sum() - 5050.0).abs() < 1e-9);
        assert!((h.quantile(0.50) - 50.0).abs() <= 10.0);
        assert!((h.quantile(0.95) - 95.0).abs() <= 10.0);
        assert!((h.quantile(0.99) - 99.0).abs() <= 10.0);
        let s = h.summary();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_single_sample_reports_it_exactly() {
        let h = Histogram::time_ms();
        h.record(3.25);
        // min/max clamping pins every quantile to the lone sample.
        assert_eq!(h.quantile(0.5), 3.25);
        assert_eq!(h.quantile(0.99), 3.25);
    }

    #[test]
    fn histogram_overflow_bucket_uses_observed_max() {
        let h = Histogram::with_bounds(vec![1.0]);
        h.record(50.0);
        h.record(90.0);
        // Interpolation in the overflow bucket runs up to the observed max
        // (not infinity), and clamping keeps it inside [min, max].
        let p99 = h.quantile(0.99);
        assert!((50.0..=90.0).contains(&p99), "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 90.0);
        assert_eq!(h.summary().max, 90.0);
    }

    #[test]
    fn histogram_clamps_negatives_and_empty_is_zero() {
        let h = Histogram::time_ms();
        assert_eq!(h.quantile(0.5), 0.0);
        h.record(-5.0);
        assert_eq!(h.summary().min, 0.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_sorted_lookup_and_json() {
        let r = Registry::new();
        r.counter("b.count").add(2);
        r.gauge("a.depth").set(-3);
        r.histogram("c.lat").record(1.0);
        let s = r.snapshot();
        assert_eq!(s.entries[0].0, "a.depth");
        assert_eq!(s.get("b.count"), Some(&MetricValue::Counter(2)));
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"a.depth\":-3"));
        assert!(j.contains("\"c.lat\":{\"count\":1"));
    }
}
