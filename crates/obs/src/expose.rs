//! Exposition: rendering a [`MetricsSnapshot`] as Prometheus text format
//! or as JSONL (one JSON object per metric, following the workspace's
//! line-oriented sink conventions).
//!
//! Both renderers consume the *same* snapshot, so the two formats always
//! carry identical values — there is no second read of live atomics that
//! could race ahead. Histograms render identically in both: per-bucket
//! cumulative counts keyed by the inclusive log2 upper bound (`le`),
//! empty buckets skipped, a `+Inf` bucket equal to the total count, plus
//! `sum` and `count`.

use crate::json;
use crate::metric::Histogram;
use crate::registry::{HistogramSnapshot, MetricsSnapshot, SampleValue};
use std::fmt::Write as _;

/// The cumulative `(le, count)` pairs both formats expose for a
/// histogram: non-empty log2 buckets keyed by inclusive upper bound, then
/// `("+Inf", total)`.
fn cumulative_buckets(h: &HistogramSnapshot) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        cumulative += c;
        // The last bucket is unbounded; it is covered by +Inf below.
        if i + 1 < h.buckets.len() {
            out.push((Histogram::bucket_upper_bound(i).to_string(), cumulative));
        }
    }
    out.push(("+Inf".to_string(), h.count));
    out
}

fn prom_escape(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Renders `{k="v",...}` including the braces; empty labels render as "".
fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", prom_escape(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn json_labels(labels: &[(String, String)]) -> String {
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}:{}", json::string(k), json::string(v)))
        .collect();
    format!("{{{}}}", pairs.join(","))
}

impl MetricsSnapshot {
    /// Renders the snapshot in Prometheus text exposition format.
    ///
    /// # Examples
    ///
    /// ```
    /// use hashflow_obs::MetricsRegistry;
    ///
    /// let r = MetricsRegistry::new();
    /// r.counter("pkts_total", &[("shard", "0")]).add(3);
    /// let text = r.snapshot().to_prometheus();
    /// assert!(text.contains("# TYPE pkts_total counter"));
    /// assert!(text.contains("pkts_total{shard=\"0\"} 3"));
    /// ```
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for sample in self.samples() {
            let kind = match sample.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            if last_name != Some(sample.name.as_str()) {
                let _ = writeln!(out, "# TYPE {} {}", sample.name, kind);
                last_name = Some(sample.name.as_str());
            }
            match &sample.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {v}",
                        sample.name,
                        prom_labels(&sample.labels, None)
                    );
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{}{} {v}",
                        sample.name,
                        prom_labels(&sample.labels, None)
                    );
                }
                SampleValue::Histogram(h) => {
                    for (le, cumulative) in cumulative_buckets(h) {
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cumulative}",
                            sample.name,
                            prom_labels(&sample.labels, Some(("le", &le)))
                        );
                    }
                    let suffix = prom_labels(&sample.labels, None);
                    let _ = writeln!(out, "{}_sum{suffix} {}", sample.name, h.sum);
                    let _ = writeln!(out, "{}_count{suffix} {}", sample.name, h.count);
                }
            }
        }
        out
    }

    /// Renders the snapshot as JSONL: one JSON object per metric, in the
    /// same `(name, labels)` order as [`Self::to_prometheus`], carrying
    /// the same values (histogram buckets are the same cumulative
    /// `le`-keyed counts).
    ///
    /// # Examples
    ///
    /// ```
    /// use hashflow_obs::MetricsRegistry;
    ///
    /// let r = MetricsRegistry::new();
    /// r.gauge("queue_depth", &[]).set(4);
    /// let line = r.snapshot().to_jsonl();
    /// assert_eq!(
    ///     line.trim(),
    ///     r#"{"name":"queue_depth","labels":{},"type":"gauge","value":4}"#
    /// );
    /// ```
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for sample in self.samples() {
            let name = json::string(&sample.name);
            let labels = json_labels(&sample.labels);
            match &sample.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(
                        out,
                        "{{\"name\":{name},\"labels\":{labels},\"type\":\"counter\",\"value\":{v}}}"
                    );
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(
                        out,
                        "{{\"name\":{name},\"labels\":{labels},\"type\":\"gauge\",\"value\":{v}}}"
                    );
                }
                SampleValue::Histogram(h) => {
                    let buckets: Vec<String> = cumulative_buckets(h)
                        .into_iter()
                        .map(|(le, c)| format!("{{\"le\":\"{le}\",\"count\":{c}}}"))
                        .collect();
                    let _ = writeln!(
                        out,
                        "{{\"name\":{name},\"labels\":{labels},\"type\":\"histogram\",\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                        h.count,
                        h.sum,
                        buckets.join(",")
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::MetricsRegistry;

    fn sample_registry() -> MetricsRegistry {
        let r = MetricsRegistry::new();
        r.counter("pkts_total", &[("shard", "0")]).add(100);
        r.counter("pkts_total", &[("shard", "1")]).add(50);
        r.gauge("depth", &[]).set(-2);
        let h = r.histogram("lat_ns", &[]);
        for v in [0u64, 1, 5, 5, 900] {
            h.observe(v);
        }
        r
    }

    #[test]
    fn prometheus_renders_types_labels_and_cumulative_buckets() {
        let text = sample_registry().snapshot().to_prometheus();
        assert!(text.contains("# TYPE pkts_total counter"));
        assert!(text.contains("pkts_total{shard=\"0\"} 100"));
        assert!(text.contains("pkts_total{shard=\"1\"} 50"));
        assert!(text.contains("# TYPE depth gauge"));
        assert!(text.contains("depth -2"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        // 0 -> le=0 (1), 1 -> le=1 (2), 5,5 -> le=7 (4), 900 -> le=1023 (5)
        assert!(text.contains("lat_ns_bucket{le=\"0\"} 1"));
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 2"));
        assert!(text.contains("lat_ns_bucket{le=\"7\"} 4"));
        assert!(text.contains("lat_ns_bucket{le=\"1023\"} 5"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("lat_ns_sum 911"));
        assert!(text.contains("lat_ns_count 5"));
        // TYPE emitted once per name even with several label sets.
        assert_eq!(text.matches("# TYPE pkts_total").count(), 1);
    }

    #[test]
    fn jsonl_renders_one_object_per_metric() {
        let lines = sample_registry().snapshot().to_jsonl();
        let lines: Vec<&str> = lines.lines().collect();
        assert_eq!(lines.len(), 4); // 2 counters + 1 gauge + 1 histogram
        assert!(lines.contains(&r#"{"name":"depth","labels":{},"type":"gauge","value":-2}"#));
        assert!(lines.iter().any(|l| l.contains(
            r#"{"name":"pkts_total","labels":{"shard":"1"},"type":"counter","value":50}"#
        )));
        let hist = lines.iter().find(|l| l.contains("histogram")).unwrap();
        assert!(hist.contains(r#""count":5,"sum":911"#));
        assert!(hist.contains(r#"{"le":"+Inf","count":5}"#));
    }

    #[test]
    fn prometheus_and_jsonl_expose_identical_values() {
        // Both formats render from one snapshot; cross-check every value
        // of one format against the other.
        let snap = sample_registry().snapshot();
        let prom = snap.to_prometheus();
        let jsonl = snap.to_jsonl();
        // Counter/gauge values present in prom appear verbatim in jsonl.
        assert!(prom.contains("pkts_total{shard=\"0\"} 100"));
        assert!(jsonl.contains(r#""shard":"0"},"type":"counter","value":100}"#));
        // Histogram buckets carry the same (le, cumulative) pairs.
        for (le, c) in [("0", 1u64), ("1", 2), ("7", 4), ("1023", 5), ("+Inf", 5)] {
            assert!(prom.contains(&format!("lat_ns_bucket{{le=\"{le}\"}} {c}")));
            assert!(jsonl.contains(&format!(r#"{{"le":"{le}","count":{c}}}"#)));
        }
    }

    #[test]
    fn label_values_are_escaped() {
        let r = MetricsRegistry::new();
        r.counter("c", &[("path", "a\"b\\c\nd")]).inc();
        let prom = r.snapshot().to_prometheus();
        assert!(prom.contains(r#"c{path="a\"b\\c\nd"} 1"#));
        let jsonl = r.snapshot().to_jsonl();
        assert!(jsonl.contains(r#""path":"a\"b\\c\nd""#));
    }
}
