use hashflow_types::FlowRecord;

/// Summary statistics of a trace — the columns of Table I plus the skew
/// measure quoted in §II.
///
/// # Examples
///
/// ```
/// use hashflow_trace::{TraceGenerator, TraceProfile};
/// let stats = TraceGenerator::new(TraceProfile::Caida, 1).generate(5_000).stats();
/// assert_eq!(stats.flows, 5_000);
/// assert!(stats.max_flow_size >= 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Trace label (Table I "Trace" column).
    pub name: &'static str,
    /// Number of distinct flows in the selection.
    pub flows: usize,
    /// Total packets.
    pub packets: u64,
    /// Largest flow size in packets (Table I "max flow size").
    pub max_flow_size: u64,
    /// Mean flow size in packets (Table I "ave. flow size").
    pub avg_flow_size: f64,
    sorted_sizes: Vec<u32>,
}

impl TraceStats {
    /// Computes statistics from exact per-flow counts.
    pub fn from_ground_truth(name: &'static str, truth: &[FlowRecord]) -> Self {
        let mut sizes: Vec<u32> = truth.iter().map(FlowRecord::count).collect();
        sizes.sort_unstable();
        let packets: u64 = sizes.iter().map(|&s| u64::from(s)).sum();
        let flows = sizes.len();
        TraceStats {
            name,
            flows,
            packets,
            max_flow_size: sizes.last().map(|&s| u64::from(s)).unwrap_or(0),
            avg_flow_size: if flows == 0 {
                0.0
            } else {
                packets as f64 / flows as f64
            },
            sorted_sizes: sizes,
        }
    }

    /// Fraction of all packets contributed by the largest `flow_fraction`
    /// of flows — the skew measure of §II ("7.7 % of the flows contribute
    /// more than 85 % of the packets" in the campus trace).
    ///
    /// # Panics
    ///
    /// Panics if `flow_fraction` is outside `[0, 1]`.
    pub fn packet_share_of_top_flows(&self, flow_fraction: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&flow_fraction),
            "fraction must be in [0, 1]"
        );
        if self.packets == 0 {
            return 0.0;
        }
        let top = ((self.flows as f64) * flow_fraction).round() as usize;
        let top_packets: u64 = self
            .sorted_sizes
            .iter()
            .rev()
            .take(top)
            .map(|&s| u64::from(s))
            .sum();
        top_packets as f64 / self.packets as f64
    }

    /// Cumulative distribution of flow sizes (Fig. 3): fraction of flows
    /// with size `<= s` for each requested `s`.
    pub fn cdf(&self, sizes: &[u64]) -> SizeCdf {
        let points = sizes
            .iter()
            .map(|&s| {
                let below = self.sorted_sizes.partition_point(|&x| u64::from(x) <= s);
                (s, below as f64 / self.flows.max(1) as f64)
            })
            .collect();
        SizeCdf { points }
    }

    /// Standard log-spaced CDF support matching Fig. 3's x-axis
    /// (10^0 .. 10^5, ten points per decade).
    pub fn default_cdf(&self) -> SizeCdf {
        let mut sizes: Vec<u64> = (0..=50)
            .map(|i| 10f64.powf(i as f64 / 10.0).round() as u64)
            .collect();
        sizes.dedup();
        self.cdf(&sizes)
    }
}

/// A sampled cumulative flow-size distribution (the curves of Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct SizeCdf {
    points: Vec<(u64, f64)>,
}

impl SizeCdf {
    /// `(size, fraction of flows <= size)` samples, in increasing size
    /// order.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashflow_types::FlowKey;

    fn records(sizes: &[u32]) -> Vec<FlowRecord> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| FlowRecord::new(FlowKey::from_index(i as u64), s))
            .collect()
    }

    #[test]
    fn basic_stats() {
        let stats = TraceStats::from_ground_truth("T", &records(&[1, 2, 3, 10]));
        assert_eq!(stats.flows, 4);
        assert_eq!(stats.packets, 16);
        assert_eq!(stats.max_flow_size, 10);
        assert!((stats.avg_flow_size - 4.0).abs() < 1e-12);
    }

    #[test]
    fn top_share_measures_skew() {
        // One elephant of 97 packets among 3 mice of 1 packet each.
        let stats = TraceStats::from_ground_truth("T", &records(&[1, 1, 1, 97]));
        let share = stats.packet_share_of_top_flows(0.25);
        assert!((share - 0.97).abs() < 1e-12);
        assert_eq!(stats.packet_share_of_top_flows(1.0), 1.0);
        assert_eq!(stats.packet_share_of_top_flows(0.0), 0.0);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let stats = TraceStats::from_ground_truth("T", &records(&[1, 1, 2, 5, 100]));
        let cdf = stats.cdf(&[1, 2, 5, 50, 100]);
        let pts = cdf.points();
        assert!(pts.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
        assert_eq!(pts[0].0, 1);
        assert!((pts[0].1 - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_truth_is_safe() {
        let stats = TraceStats::from_ground_truth("T", &[]);
        assert_eq!(stats.max_flow_size, 0);
        assert_eq!(stats.avg_flow_size, 0.0);
        assert_eq!(stats.packet_share_of_top_flows(0.5), 0.0);
    }

    #[test]
    fn default_cdf_spans_fig3_axis() {
        let stats = TraceStats::from_ground_truth("T", &records(&[1, 10, 100]));
        let pts = stats.default_cdf();
        assert_eq!(pts.points().first().unwrap().0, 1);
        assert!(pts.points().last().unwrap().0 >= 90_000);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_panics() {
        TraceStats::from_ground_truth("T", &[]).packet_share_of_top_flows(1.5);
    }
}
