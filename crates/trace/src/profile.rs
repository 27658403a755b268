use crate::powerlaw::PowerLawSampler;

/// The four evaluation networks of Table I, with calibration targets taken
/// verbatim from the paper.
///
/// | Trace | Date | Max flow size | Avg flow size |
/// |---|---|---|---|
/// | CAIDA | 2018/03/15 | 110,900 pkts | 3.2 pkts |
/// | Campus | 2014/02/07 | 289,877 pkts | 15.1 pkts |
/// | ISP1 | 2009/04/10 | 84,357 pkts | 5.2 pkts |
/// | ISP2 | 2015/12/31 | 2,441 pkts | 1.3 pkts |
///
/// # Examples
///
/// ```
/// use hashflow_trace::TraceProfile;
/// assert_eq!(TraceProfile::Campus.avg_flow_size(), 15.1);
/// assert_eq!(TraceProfile::Isp2.max_flow_size(), 2_441);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TraceProfile {
    /// 40 Gbps backbone link (CAIDA 2018): many short flows.
    Caida,
    /// 10 Gbps campus uplink (2014): heaviest tail — "7.7 % of the flows
    /// contribute more than 85 % of the packets" (§II).
    Campus,
    /// ISP access network (2009).
    Isp1,
    /// ISP access network (2015), 1:5000 sampled: "more than 99 % of the
    /// flows in it have less than 5 packets" (§IV-A).
    Isp2,
}

/// All four profiles in the order the paper's figures present them.
pub const ALL_PROFILES: [TraceProfile; 4] = [
    TraceProfile::Caida,
    TraceProfile::Campus,
    TraceProfile::Isp1,
    TraceProfile::Isp2,
];

impl TraceProfile {
    /// Display name matching the paper's figure labels.
    pub const fn name(&self) -> &'static str {
        match self {
            TraceProfile::Caida => "CAIDA",
            TraceProfile::Campus => "Campus",
            TraceProfile::Isp1 => "ISP1",
            TraceProfile::Isp2 => "ISP2",
        }
    }

    /// Capture date reported in Table I.
    pub const fn date(&self) -> &'static str {
        match self {
            TraceProfile::Caida => "2018/03/15",
            TraceProfile::Campus => "2014/02/07",
            TraceProfile::Isp1 => "2009/04/10",
            TraceProfile::Isp2 => "2015/12/31",
        }
    }

    /// Maximum flow size of Table I, used as the sampler's truncation cap.
    pub const fn max_flow_size(&self) -> u64 {
        match self {
            TraceProfile::Caida => 110_900,
            TraceProfile::Campus => 289_877,
            TraceProfile::Isp1 => 84_357,
            TraceProfile::Isp2 => 2_441,
        }
    }

    /// Average flow size of Table I, used as the calibration target.
    pub const fn avg_flow_size(&self) -> f64 {
        match self {
            TraceProfile::Caida => 3.2,
            TraceProfile::Campus => 15.1,
            TraceProfile::Isp1 => 5.2,
            TraceProfile::Isp2 => 1.3,
        }
    }

    /// Heavy-hitter threshold sweep used by Fig. 9/10 for this trace
    /// (reading the x-axes of the paper's plots).
    pub fn heavy_hitter_thresholds(&self) -> Vec<u32> {
        match self {
            TraceProfile::Caida => (100..=800).step_by(100).collect(),
            TraceProfile::Campus => (12..=100).step_by(12).map(|t| t as u32).collect(),
            TraceProfile::Isp1 => (25..=200).step_by(25).collect(),
            TraceProfile::Isp2 => (1..=5).collect(),
        }
    }

    /// A flow-size sampler calibrated to this profile's Table I targets.
    ///
    /// The tail exponents are tabled: each is the exact `f64` that
    /// [`crate::calibrate_tail_exponent`] returns for the profile's average
    /// and maximum flow size (a unit test checks the bits), so no trace
    /// re-runs the bisection.
    pub fn sampler(&self) -> PowerLawSampler {
        let bits = match self {
            TraceProfile::Caida => 0x3ff6_16f9_d628_d100,
            TraceProfile::Campus => 0x3fef_48c7_9cfd_48c6,
            TraceProfile::Isp1 => 0x3ff3_14a3_edfa_b918,
            TraceProfile::Isp2 => 0x4004_eeb6_d0bb_0d92,
        };
        PowerLawSampler::new(f64::from_bits(bits), self.max_flow_size())
    }
}

impl std::fmt::Display for TraceProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for TraceProfile {
    type Err = hashflow_types::ConfigError;

    /// Resolves a profile by its [`TraceProfile::name`], ignoring case.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ALL_PROFILES
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                hashflow_types::ConfigError::new(format!(
                    "unknown profile '{s}'; valid profiles: caida, campus, isp1, isp2"
                ))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate_tail_exponent;

    #[test]
    fn tabled_exponents_match_the_bisection() {
        for p in ALL_PROFILES {
            let a = calibrate_tail_exponent(p.avg_flow_size(), p.max_flow_size());
            assert_eq!(
                p.sampler().tail_exponent().to_bits(),
                a.to_bits(),
                "{p}: tabled {} vs calibrated {a}",
                p.sampler().tail_exponent()
            );
        }
    }

    #[test]
    fn sampler_mean_matches_table1() {
        for p in ALL_PROFILES {
            let mean = p.sampler().mean();
            assert!(
                (mean - p.avg_flow_size()).abs() / p.avg_flow_size() < 0.01,
                "{p}: mean {mean} vs target {}",
                p.avg_flow_size()
            );
        }
    }

    #[test]
    fn profiles_are_distinct() {
        let names: std::collections::HashSet<&str> =
            ALL_PROFILES.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn thresholds_match_figure_axes() {
        assert_eq!(TraceProfile::Caida.heavy_hitter_thresholds().len(), 8);
        assert_eq!(
            *TraceProfile::Isp2.heavy_hitter_thresholds().last().unwrap(),
            5
        );
        for p in ALL_PROFILES {
            let t = p.heavy_hitter_thresholds();
            assert!(t.windows(2).all(|w| w[0] < w[1]), "{p} thresholds sorted");
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(TraceProfile::Caida.to_string(), "CAIDA");
    }
}
