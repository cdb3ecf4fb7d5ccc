//! Metric registry: names → metric handles, with deterministic snapshots.
//!
//! The registry's internal map is behind a `Mutex`, but that lock is only
//! taken at registration and snapshot time. Hot paths register once (at
//! attach time), cache the returned [`Counter`]/[`Gauge`]/[`Histogram`]
//! handle, and from then on record through relaxed atomics without ever
//! touching the registry again.

use crate::event::{Event, Stamp, Value};
use crate::metric::{Counter, Gauge, Histogram, HistogramSummary};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A registered metric of any kind.
#[derive(Clone, Debug)]
pub enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// Point-in-time value of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(f64),
    Histogram(HistogramSummary),
}

/// Name-keyed registry of metrics.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind — that is
    /// a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Get or create the gauge named `name` (panics on kind mismatch).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Get or create the histogram named `name` (panics on kind mismatch).
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.register(name, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name:?} is a {}, not a histogram", other.kind()),
        }
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut map = self.metrics.lock().unwrap();
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Publish an existing handle under `name`: the registry shares the
    /// caller's live cell (handles are `Arc`s), so values recorded before
    /// the call are kept and nothing is copied. Replaces whatever `name`
    /// held before.
    pub fn adopt(&self, name: &str, metric: Metric) {
        self.metrics
            .lock()
            .unwrap()
            .insert(name.to_string(), metric);
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deterministic point-in-time snapshot: metrics sorted by name, values
    /// read atomically per cell.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.lock().unwrap();
        let values = map
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
        Snapshot { values }
    }
}

/// Deterministically ordered snapshot of a [`Registry`].
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs sorted ascending by name.
    pub values: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.values[i].1)
    }

    /// Convenience: counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Render as a `snapshot` event at stamp `t`. Histograms flatten to
    /// `<name>.count/.sum/.max/.p50/.p99/.p999` fields so the whole
    /// snapshot stays one flat JSONL object.
    pub fn to_event(&self, t: Stamp) -> Event {
        let mut ev = Event::new(t, "obs", "snapshot");
        for (name, value) in &self.values {
            match value {
                MetricValue::Counter(v) => {
                    ev = ev.field(name.clone(), Value::U64(*v));
                }
                MetricValue::Gauge(v) => {
                    ev = ev.field(name.clone(), Value::F64(*v));
                }
                MetricValue::Histogram(h) => {
                    ev = ev
                        .field(format!("{name}.count"), Value::U64(h.count))
                        .field(format!("{name}.sum"), Value::U64(h.sum))
                        .field(format!("{name}.max"), Value::U64(h.max))
                        .field(format!("{name}.p50"), Value::U64(h.p50))
                        .field(format!("{name}.p99"), Value::U64(h.p99))
                        .field(format!("{name}.p999"), Value::U64(h.p999));
                }
            }
        }
        ev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_shares_cells() {
        let reg = Registry::new();
        let a = reg.counter("x.count");
        let b = reg.counter("x.count");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("x.count").get(), 2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn adopt_shares_the_live_cell() {
        let reg = Registry::new();
        let h = Histogram::new();
        h.record(9);
        reg.adopt("lat", Metric::Histogram(h.clone()));
        h.record(9);
        assert_eq!(reg.histogram("lat").count(), 2);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = Registry::new();
        reg.gauge("z.depth").set(3.0);
        reg.counter("a.hits").add(7);
        reg.histogram("m.lat").record(100);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.values.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.hits", "m.lat", "z.depth"]);
        assert_eq!(snap.counter("a.hits"), Some(7));
        assert_eq!(snap.gauge("z.depth"), Some(3.0));
        assert!(matches!(
            snap.get("m.lat"),
            Some(MetricValue::Histogram(h)) if h.count == 1
        ));
        assert!(snap.get("nope").is_none());
    }

    #[test]
    fn snapshot_event_flattens_histograms() {
        let reg = Registry::new();
        reg.histogram("lat").record(5);
        reg.counter("n").inc();
        let ev = reg.snapshot().to_event(Stamp::Sim(10));
        assert_eq!(ev.kind, "snapshot");
        assert_eq!(ev.get("n").and_then(Value::as_u64), Some(1));
        assert_eq!(ev.get("lat.count").and_then(Value::as_u64), Some(1));
        // The one sample's bucket is [4, 7]; the percentile is clamped to
        // the exact max.
        assert_eq!(ev.get("lat.p50").and_then(Value::as_u64), Some(5));
        // And it round-trips through JSON like any other event.
        let back = Event::from_json(&ev.to_json()).unwrap();
        assert_eq!(back, ev);
    }
}
