//! Metrics registry: named counters, gauges, and fixed-bucket histograms.
//!
//! Handles are `Arc`-wrapped atomics, so a hot loop — or a pool of
//! separation workers — clones a handle once and bumps it lock-free; the
//! registry lock is only taken at get-or-create and export time. Names are
//! kept in a `BTreeMap` so every export is deterministically ordered.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing `u64` metric.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins signed metric.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    fn new() -> Self {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    /// Overwrites the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    /// An implicit overflow bucket catches everything above the last bound.
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    total: AtomicU64,
}

/// Fixed-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations `v <= bounds[i]` (and greater than the
/// previous bound); one extra overflow bucket counts `v > bounds.last()`.
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket bound");
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly increasing");
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            counts,
            sum: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self.0.bounds.partition_point(|&b| b < value);
        self.0.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(value, Ordering::Relaxed);
        self.0.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.total.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Bucket upper bounds (the overflow bucket is implicit).
    pub fn bounds(&self) -> &[u64] {
        &self.0.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Named metric store. Get-or-create by name; clones of a handle all feed
/// the same atomic, so workers never touch the registry lock on the hot path.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Counter handle for `name`, created on first use.
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics.entry(name.to_string()).or_insert_with(|| Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Gauge handle for `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Histogram handle for `name` with the given finite bucket bounds,
    /// created on first use. Later calls ignore `bounds` and return the
    /// existing histogram.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Snapshot of every counter as `(name, value)`, name-ordered.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        let metrics = self.metrics.lock().unwrap();
        metrics
            .iter()
            .filter_map(|(name, m)| match m {
                Metric::Counter(c) => Some((name.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// Serializes the whole registry as a deterministic JSON object.
    pub fn to_json(&self) -> String {
        let metrics = self.metrics.lock().unwrap();
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    push_entry(&mut counters, name, &c.get().to_string());
                }
                Metric::Gauge(g) => {
                    push_entry(&mut gauges, name, &g.get().to_string());
                }
                Metric::Histogram(h) => {
                    let bounds: Vec<String> = h.bounds().iter().map(u64::to_string).collect();
                    let counts: Vec<String> =
                        h.bucket_counts().iter().map(u64::to_string).collect();
                    let body = format!(
                        "{{\"bounds\":[{}],\"counts\":[{}],\"sum\":{},\"count\":{}}}",
                        bounds.join(","),
                        counts.join(","),
                        h.sum(),
                        h.count()
                    );
                    push_entry(&mut histograms, name, &body);
                }
            }
        }
        format!(
            "{{\"schema_version\":1,\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\
             \"histograms\":{{{histograms}}}}}"
        )
    }
}

fn push_entry(buf: &mut String, name: &str, value: &str) {
    if !buf.is_empty() {
        buf.push(',');
    }
    buf.push_str(&crate::json::json_string(name));
    buf.push(':');
    buf.push_str(value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("x").get(), 5);
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_bucketing_is_inclusive_upper_bound() {
        let reg = Registry::new();
        let h = reg.histogram("attempts", &[1, 2, 4, 8]);
        for v in [0, 1, 1, 2, 3, 4, 5, 8, 9, 100] {
            h.observe(v);
        }
        // Buckets: <=1, <=2, <=4, <=8, overflow.
        assert_eq!(h.bucket_counts(), vec![3, 1, 2, 2, 2]);
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 133);
    }

    #[test]
    fn histogram_boundary_values_land_low() {
        let reg = Registry::new();
        let h = reg.histogram("b", &[10, 20]);
        h.observe(10);
        h.observe(11);
        h.observe(20);
        h.observe(21);
        assert_eq!(h.bucket_counts(), vec![1, 2, 1]);
    }

    #[test]
    #[should_panic]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn json_export_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("z.late").add(2);
        reg.counter("a.early").add(1);
        reg.gauge("mid").set(-5);
        reg.histogram("h", &[1, 2]).observe(3);
        let json = reg.to_json();
        assert!(json.contains("\"a.early\":1"));
        assert!(json.contains("\"z.late\":2"));
        assert!(json.contains("\"mid\":-5"));
        assert!(json.contains("\"bounds\":[1,2]"));
        assert!(json.contains("\"counts\":[0,0,1]"));
        let a = json.find("a.early").unwrap();
        let z = json.find("z.late").unwrap();
        assert!(a < z, "counters must be name-ordered");
    }
}
