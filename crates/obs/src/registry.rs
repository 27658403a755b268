//! The label-aware [`MetricsRegistry`] and the point-in-time
//! [`MetricsSnapshot`] every exposition format renders from.
//!
//! Registration is the only synchronized operation (one mutex around the
//! entry list); the handles it returns are plain atomics, so the hot path
//! never touches the lock. A registry handle is itself cheap to clone and
//! share — shard workers, the rotator and the CLI all hold clones of one
//! registry and register into the same entry list.

use crate::metric::{Counter, Gauge, Histogram};
use std::sync::{Arc, Mutex};

/// Label pairs attached to a metric, e.g. `&[("shard", "3")]`.
pub type LabelSet = Vec<(String, String)>;

#[derive(Clone, Debug)]
enum Metric {
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

#[derive(Debug)]
struct Entry {
    name: String,
    labels: LabelSet,
    metric: Metric,
}

/// A shared, label-aware collection of metrics.
///
/// `clone()` produces another handle to the same registry (the inner
/// state is reference-counted), so one registry can be threaded through
/// the collector, the shard dispatcher and every worker without copying.
/// Lookups are get-or-create: asking twice for the same `(name, labels)`
/// pair returns handles to the same underlying metric, which makes
/// registration idempotent across epochs and re-built pipeline stages.
///
/// # Examples
///
/// ```
/// use hashflow_obs::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let packets = registry.counter("ingest_packets_total", &[]);
/// packets.add(128);
/// // A second lookup sees the same counter.
/// assert_eq!(registry.counter("ingest_packets_total", &[]).get(), 128);
/// let text = registry.snapshot().to_prometheus();
/// assert!(text.contains("ingest_packets_total 128"));
/// ```
///
/// # Panics
///
/// Re-registering a `(name, labels)` pair under a different metric type
/// (e.g. asking for a gauge where a counter lives) panics: that is a
/// programming error in the instrumentation, not a runtime condition.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    entries: Arc<Mutex<Vec<Entry>>>,
}

fn to_label_set(labels: &[(&str, &str)]) -> LabelSet {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn get_or_insert<T, F, G>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        extract: F,
        insert: G,
    ) -> T
    where
        F: Fn(&Metric) -> Option<T>,
        G: FnOnce() -> (Metric, T),
    {
        let labels = to_label_set(labels);
        let mut entries = self.entries.lock().expect("metrics registry poisoned");
        if let Some(entry) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return extract(&entry.metric).unwrap_or_else(|| {
                panic!(
                    "metric `{name}` already registered as a {}",
                    entry.metric.kind()
                )
            });
        }
        let (metric, handle) = insert();
        entries.push(Entry {
            name: name.to_string(),
            labels,
            metric,
        });
        handle
    }

    /// Returns the counter registered under `(name, labels)`, creating it
    /// at zero on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.get_or_insert(
            name,
            labels,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::new();
                (Metric::Counter(c.clone()), c)
            },
        )
    }

    /// Returns the gauge registered under `(name, labels)`, creating it
    /// at zero on first use.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.get_or_insert(
            name,
            labels,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::new();
                (Metric::Gauge(g.clone()), g)
            },
        )
    }

    /// Returns the histogram registered under `(name, labels)`, creating
    /// an empty one on first use.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.get_or_insert(
            name,
            labels,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::new();
                (Metric::Histogram(h.clone()), h)
            },
        )
    }

    /// Registers an *existing* counter handle under `(name, labels)`, so
    /// state that predates the registry (e.g. a sink's drop counters) is
    /// exposed without copying. Returns a handle to the registered
    /// counter — the given one, or the already-registered one if the pair
    /// exists (the caller's handle is dropped in that case).
    pub fn register_counter(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        counter: Counter,
    ) -> Counter {
        self.get_or_insert(
            name,
            labels,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            move || (Metric::Counter(counter.clone()), counter),
        )
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("metrics registry poisoned")
            .len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Captures every registered metric's current value into an immutable
    /// [`MetricsSnapshot`], sorted by `(name, labels)`.
    ///
    /// Both exposition formats render from the same snapshot, so a report
    /// printed from it and a file exported from it can never disagree.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("metrics registry poisoned");
        let mut samples: Vec<MetricSample> = entries
            .iter()
            .map(|e| MetricSample {
                name: e.name.clone(),
                labels: e.labels.clone(),
                value: match &e.metric {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram(HistogramSnapshot {
                        buckets: h.bucket_counts(),
                        sum: h.sum(),
                        count: h.count(),
                    }),
                },
            })
            .collect();
        samples.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot { samples }
    }
}

/// One metric's value at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricSample {
    /// Metric name, e.g. `hashflow_ingest_packets_total`.
    pub name: String,
    /// Label pairs in registration order.
    pub labels: LabelSet,
    /// The captured value.
    pub value: SampleValue,
}

/// The captured value of a [`MetricSample`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SampleValue {
    /// A cumulative count.
    Counter(u64),
    /// An instantaneous level.
    Gauge(i64),
    /// A bucketed distribution.
    Histogram(HistogramSnapshot),
}

/// A histogram's state at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts, one per
    /// [`crate::HISTOGRAM_BUCKETS`] log2 bucket.
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Total number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `q`, computed from the captured buckets the
    /// same way [`Histogram::value_at_quantile`] computes it from the
    /// live ones. `None` when the snapshot holds no observations.
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        crate::metric::quantile_from_buckets(&self.buckets, q)
    }
}

/// An immutable point-in-time capture of a registry.
///
/// Produced by [`MetricsRegistry::snapshot`]; rendered by
/// [`Self::to_prometheus`] and [`Self::to_jsonl`] (both defined in the
/// exposition module).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub(crate) samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// The captured samples, sorted by `(name, labels)`.
    pub fn samples(&self) -> &[MetricSample] {
        &self.samples
    }

    /// Looks up a counter value by name and labels.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let labels = to_label_set(labels);
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .and_then(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
    }

    /// Looks up a gauge value by name and labels.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let labels = to_label_set(labels);
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels == labels)
            .and_then(|s| match s.value {
                SampleValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// Sums a counter across every label combination it was registered
    /// under (e.g. total packets over all shards).
    pub fn counter_sum(&self, name: &str) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| match s.value {
                SampleValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_is_idempotent_per_label_set() {
        let r = MetricsRegistry::new();
        let a = r.counter("pkts", &[("shard", "0")]);
        let b = r.counter("pkts", &[("shard", "0")]);
        let c = r.counter("pkts", &[("shard", "1")]);
        assert!(a.same_as(&b));
        assert!(!a.same_as(&c));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn clones_share_the_entry_list() {
        let r = MetricsRegistry::new();
        let r2 = r.clone();
        r.counter("a", &[]).inc();
        assert_eq!(r2.snapshot().counter("a", &[]), Some(1));
    }

    #[test]
    fn register_existing_counter_exposes_prior_state() {
        let r = MetricsRegistry::new();
        let c = Counter::new();
        c.add(7);
        let adopted = r.register_counter("drops", &[("component", "sink")], c.clone());
        assert!(adopted.same_as(&c));
        // Re-registering the same pair keeps the first handle.
        let other = Counter::new();
        let kept = r.register_counter("drops", &[("component", "sink")], other);
        assert!(kept.same_as(&c));
        assert_eq!(
            r.snapshot().counter("drops", &[("component", "sink")]),
            Some(7)
        );
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn type_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("x", &[]);
        r.gauge("x", &[]);
    }

    #[test]
    fn snapshot_sorts_and_sums() {
        let r = MetricsRegistry::new();
        r.counter("z", &[]).add(1);
        r.counter("a", &[("shard", "1")]).add(2);
        r.counter("a", &[("shard", "0")]).add(3);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.samples().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "a", "z"]);
        assert_eq!(snap.counter_sum("a"), 5);
        assert_eq!(snap.counter("a", &[("shard", "0")]), Some(3));
        assert_eq!(snap.counter("missing", &[]), None);
    }
}
