//! Sketch introspection: structure-internal saturation metrics sealed
//! into every epoch.
//!
//! Accuracy collapse in a sketch is rarely sudden from the inside: the
//! HashFlow main table fills past the load factor Algorithm 1 was sized
//! for, FlowRadar's pure-cell ratio sinks toward the decode-failure
//! cliff, FCM escalates more and more flows to its second layer, BeauCoup
//! runs out of coupon-table slots. A monitor reports those internals by
//! overriding [`FlowMonitor::introspection`](crate::FlowMonitor::introspection)
//! with a flat list of named [`IntrospectMetric`]s; the epoch
//! layer seals the report into each
//! [`EpochSnapshot`](crate::EpochSnapshot) and exports it as gauges at
//! rotation, so an operator can watch saturation *before* it becomes an
//! accuracy incident.

/// The value of one introspection metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum IntrospectValue {
    /// A fraction in `[0, 1]` (a load factor, a fill ratio). Exported as
    /// an integer gauge in parts-per-million (gauges are `i64`-only).
    Ratio(f64),
    /// A cumulative or instantaneous count (promotions, escalations).
    Count(u64),
    /// A boolean condition (an overflow latch). Exported as `0`/`1`.
    Flag(bool),
}

/// One named structure-internal metric, e.g. the HashFlow main-table
/// load factor or the FCM l1→l2 escalation count.
#[derive(Clone, Debug, PartialEq)]
pub struct IntrospectMetric {
    /// Stable snake_case metric name (e.g. `"main_table_load"`), unique
    /// within one monitor's report. Owned so monitors with a runtime
    /// dimension (e.g. per-stage loads) can name metrics per instance.
    pub name: String,
    /// The captured value.
    pub value: IntrospectValue,
}

impl IntrospectMetric {
    /// A `[0, 1]` ratio metric (clamped).
    pub fn ratio(name: impl Into<String>, value: f64) -> Self {
        IntrospectMetric {
            name: name.into(),
            value: IntrospectValue::Ratio(value.clamp(0.0, 1.0)),
        }
    }

    /// A count metric.
    pub fn count(name: impl Into<String>, value: u64) -> Self {
        IntrospectMetric {
            name: name.into(),
            value: IntrospectValue::Count(value),
        }
    }

    /// A boolean metric.
    pub fn flag(name: impl Into<String>, value: bool) -> Self {
        IntrospectMetric {
            name: name.into(),
            value: IntrospectValue::Flag(value),
        }
    }

    /// The gauge name this metric is exported under at rotation:
    /// `hashflow_introspect_<name>`, with a `_ppm` suffix for ratios
    /// (the exposition gauge is an integer, so fractions ship as
    /// parts-per-million).
    pub fn gauge_name(&self) -> String {
        match self.value {
            IntrospectValue::Ratio(_) => format!("hashflow_introspect_{}_ppm", self.name),
            _ => format!("hashflow_introspect_{}", self.name),
        }
    }

    /// The exported gauge value: ratios in parts-per-million, counts
    /// saturated into `i64`, flags as `0`/`1`.
    pub fn gauge_value(&self) -> i64 {
        match self.value {
            IntrospectValue::Ratio(r) => (r * 1_000_000.0).round() as i64,
            IntrospectValue::Count(c) => i64::try_from(c).unwrap_or(i64::MAX),
            IntrospectValue::Flag(f) => i64::from(f),
        }
    }

    /// The value as a plain float (ratios as-is, counts and flags
    /// converted), for report rendering.
    pub fn as_f64(&self) -> f64 {
        match self.value {
            IntrospectValue::Ratio(r) => r,
            IntrospectValue::Count(c) => c as f64,
            IntrospectValue::Flag(f) => f64::from(u8::from(f)),
        }
    }
}

/// Folds per-shard introspection reports into one, the way a sharded
/// seal folds its per-shard epoch reports: metrics are grouped by name
/// (first-appearance order), ratios average over the shards reporting
/// them, counts sum, flags OR. Shards of one monitor kind report the
/// same metric names, so this is element-wise aggregation in practice.
pub fn merge_introspection(shards: &[Vec<IntrospectMetric>]) -> Vec<IntrospectMetric> {
    let mut order: Vec<&str> = Vec::new();
    for report in shards {
        for metric in report {
            if !order.contains(&metric.name.as_str()) {
                order.push(&metric.name);
            }
        }
    }
    order
        .into_iter()
        .map(|name| {
            let values: Vec<&IntrospectValue> = shards
                .iter()
                .flat_map(|report| report.iter())
                .filter(|m| m.name == name)
                .map(|m| &m.value)
                .collect();
            // The first shard's type decides how the group folds.
            let value = match values[0] {
                IntrospectValue::Ratio(_) => {
                    let (sum, n) = values.iter().fold((0.0f64, 0u32), |(s, n), v| match v {
                        IntrospectValue::Ratio(r) => (s + r, n + 1),
                        _ => (s, n),
                    });
                    IntrospectValue::Ratio(sum / f64::from(n.max(1)))
                }
                IntrospectValue::Count(_) => IntrospectValue::Count(
                    values
                        .iter()
                        .map(|v| match v {
                            IntrospectValue::Count(c) => *c,
                            _ => 0,
                        })
                        .sum(),
                ),
                IntrospectValue::Flag(_) => IntrospectValue::Flag(
                    values
                        .iter()
                        .any(|v| matches!(v, IntrospectValue::Flag(true))),
                ),
            };
            IntrospectMetric {
                name: name.to_owned(),
                value,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_classify_and_clamp() {
        let r = IntrospectMetric::ratio("load", 1.5);
        assert_eq!(r.value, IntrospectValue::Ratio(1.0));
        assert_eq!(r.gauge_name(), "hashflow_introspect_load_ppm");
        assert_eq!(r.gauge_value(), 1_000_000);
        let c = IntrospectMetric::count("promotions", 42);
        assert_eq!(c.gauge_name(), "hashflow_introspect_promotions");
        assert_eq!(c.gauge_value(), 42);
        assert_eq!(c.as_f64(), 42.0);
        let f = IntrospectMetric::flag("overflowed", true);
        assert_eq!(f.gauge_value(), 1);
        assert_eq!(f.as_f64(), 1.0);
    }

    #[test]
    fn ppm_rounds_rather_than_truncates() {
        let m = IntrospectMetric::ratio("x", 0.123_456_7);
        assert_eq!(m.gauge_value(), 123_457);
    }

    #[test]
    fn merge_averages_ratios_sums_counts_ors_flags() {
        let a = vec![
            IntrospectMetric::ratio("load", 0.2),
            IntrospectMetric::count("promotions", 10),
            IntrospectMetric::flag("overflowed", false),
        ];
        let b = vec![
            IntrospectMetric::ratio("load", 0.6),
            IntrospectMetric::count("promotions", 5),
            IntrospectMetric::flag("overflowed", true),
        ];
        let merged = merge_introspection(&[a, b]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].name, "load");
        assert_eq!(merged[0].value, IntrospectValue::Ratio(0.4));
        assert_eq!(merged[1].value, IntrospectValue::Count(15));
        assert_eq!(merged[2].value, IntrospectValue::Flag(true));
    }

    #[test]
    fn merge_handles_empty_and_uneven_reports() {
        assert!(merge_introspection(&[]).is_empty());
        assert!(merge_introspection(&[Vec::new(), Vec::new()]).is_empty());
        // A metric present in only one shard (e.g. the others degraded)
        // still folds — over the shards that reported it.
        let merged = merge_introspection(&[vec![IntrospectMetric::ratio("load", 0.5)], Vec::new()]);
        assert_eq!(merged, vec![IntrospectMetric::ratio("load", 0.5)]);
    }
}
