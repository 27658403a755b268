//! The algorithm registry: every way the workspace turns an algorithm
//! name or kind plus a [`MemoryBudget`] into a running monitor.

use elastic_sketch::ElasticSketch;
use flowradar::FlowRadar;
use hashflow_core::{HashFlow, HashFlowConfig};
use hashflow_monitor::{FlowMonitor, Instruments, MemoryBudget};
use hashflow_sketches::{BeauCoupMonitor, CountMinMonitor, ExactBaselineMonitor, FcmMonitor};
use hashflow_types::ConfigError;
use hashpipe::HashPipe;
use sampled_netflow::SampledNetFlow;

/// The flow-measurement algorithms the workspace implements.
///
/// This enum is the registry's key: adding an algorithm means adding a
/// variant here and teaching [`MonitorBuilder::build`] to construct it —
/// every consumer (CLI, experiments, benches, switch) picks it up from
/// there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// The paper's algorithm (pipelined main table + ancillary table).
    HashFlow,
    /// HashPipe baseline (SOSR'17).
    HashPipe,
    /// ElasticSketch baseline (SIGCOMM'18).
    Elastic,
    /// FlowRadar baseline (NSDI'16).
    FlowRadar,
    /// Sampled NetFlow reference.
    NetFlow,
    /// Count-Min sketch baseline (estimate-only).
    CountMin,
    /// FCM two-layer escalating-counter sketch (SIGCOMM'21,
    /// estimate-only).
    Fcm,
    /// BeauCoup coupon-collector counting (SIGCOMM'20).
    BeauCoup,
    /// Exact hash-map baseline (ground truth under the shared memory
    /// accounting).
    Exact,
}

impl AlgorithmKind {
    /// Every registered algorithm: the paper's comparison order first,
    /// then the extended sketch zoo.
    pub const ALL: [AlgorithmKind; 9] = [
        AlgorithmKind::HashFlow,
        AlgorithmKind::HashPipe,
        AlgorithmKind::Elastic,
        AlgorithmKind::FlowRadar,
        AlgorithmKind::NetFlow,
        AlgorithmKind::CountMin,
        AlgorithmKind::Fcm,
        AlgorithmKind::BeauCoup,
        AlgorithmKind::Exact,
    ];

    /// The four equal-memory comparison algorithms of §IV (NetFlow is the
    /// sampled reference, evaluated separately in the paper).
    pub const COMPARISON: [AlgorithmKind; 4] = [
        AlgorithmKind::HashFlow,
        AlgorithmKind::HashPipe,
        AlgorithmKind::Elastic,
        AlgorithmKind::FlowRadar,
    ];

    /// Canonical lower-case name, as accepted by [`Self::parse`] and the
    /// CLI `--algorithm` flag.
    pub const fn name(&self) -> &'static str {
        match self {
            AlgorithmKind::HashFlow => "hashflow",
            AlgorithmKind::HashPipe => "hashpipe",
            AlgorithmKind::Elastic => "elastic",
            AlgorithmKind::FlowRadar => "flowradar",
            AlgorithmKind::NetFlow => "netflow",
            AlgorithmKind::CountMin => "countmin",
            AlgorithmKind::Fcm => "fcm",
            AlgorithmKind::BeauCoup => "beaucoup",
            AlgorithmKind::Exact => "exact",
        }
    }

    /// Resolves a user-supplied name (case-insensitive; accepts the
    /// aliases `elasticsketch` and `sampled`).
    ///
    /// # Errors
    ///
    /// Unknown names error with the full list of valid algorithms, so a
    /// typo on any surface (CLI flag, config file, experiment spec) is
    /// self-explaining.
    pub fn parse(name: &str) -> Result<Self, ConfigError> {
        match name.to_ascii_lowercase().as_str() {
            "hashflow" => Ok(AlgorithmKind::HashFlow),
            "hashpipe" => Ok(AlgorithmKind::HashPipe),
            "elastic" | "elasticsketch" => Ok(AlgorithmKind::Elastic),
            "flowradar" => Ok(AlgorithmKind::FlowRadar),
            "netflow" | "sampled" => Ok(AlgorithmKind::NetFlow),
            "countmin" | "cm" => Ok(AlgorithmKind::CountMin),
            "fcm" => Ok(AlgorithmKind::Fcm),
            "beaucoup" => Ok(AlgorithmKind::BeauCoup),
            "exact" | "baseline" => Ok(AlgorithmKind::Exact),
            other => Err(ConfigError::new(format!(
                "unknown algorithm '{other}'; valid algorithms: {}",
                Self::valid_names()
            ))),
        }
    }

    /// The canonical names of all registered algorithms, comma-separated
    /// (the list [`Self::parse`] errors with).
    pub fn valid_names() -> String {
        Self::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Whether the algorithm retains flow keys and can therefore answer
    /// the records-derived applications (flow report, heavy hitters,
    /// top-k). The estimate-only sketches answer point size and
    /// cardinality queries but report an empty record set by design;
    /// [`MonitorBuilder::require_records`] turns that capability gap
    /// into a typed construction error instead of a silently empty
    /// snapshot.
    pub const fn supports_records(&self) -> bool {
        !matches!(self, AlgorithmKind::CountMin | AlgorithmKind::Fcm)
    }

    /// The records-capability error: `Err` for the estimate-only kinds
    /// ([`Self::supports_records`] is `false`). Behind
    /// [`MonitorBuilder::require_records`] and every query-plan attach.
    pub(crate) fn check_records(self) -> Result<(), ConfigError> {
        if self.supports_records() {
            return Ok(());
        }
        Err(ConfigError::new(format!(
            "{self} is estimate-only and cannot answer records-based queries \
             (flow report, heavy hitters, top_k, query plans); use a \
             key-retaining algorithm or drop require_records()"
        )))
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for AlgorithmKind {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s)
    }
}

/// Builds any registered monitor from a memory budget — the single
/// construction path of the workspace.
///
/// Optional knobs: an explicit hash `seed` (experiments re-derive
/// monitors per trial; omitting it keeps each algorithm's stable default
/// seeds) and the [`Instruments`] the built monitor is handed. It builds
/// one monitor over the whole budget; `hashflow_shard::ShardedMonitor`
/// is the library type that splits a budget over flow-partitioned
/// shards, each built here.
/// NetFlow is built unsampled (1-in-1); a sampled one comes from
/// `SampledNetFlow::with_memory(budget, n)`.
///
/// # Examples
///
/// ```
/// use hashflow_collector::{AlgorithmKind, MonitorBuilder};
/// use hashflow_monitor::MemoryBudget;
///
/// let budget = MemoryBudget::from_kib(256)?;
/// // Equal-memory comparison set, seeded per trial:
/// for kind in AlgorithmKind::COMPARISON {
///     let monitor = MonitorBuilder::new(kind).budget(budget).seed(42).build()?;
///     assert!(monitor.memory_bits() <= budget.bits());
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MonitorBuilder {
    kind: AlgorithmKind,
    budget: Option<MemoryBudget>,
    seed: Option<u64>,
    require_records: bool,
    instruments: Instruments,
}

impl MonitorBuilder {
    /// Starts a builder for `kind`.
    pub fn new(kind: AlgorithmKind) -> Self {
        MonitorBuilder {
            kind,
            budget: None,
            seed: None,
            require_records: false,
            instruments: Instruments::default(),
        }
    }

    /// The algorithm this builder constructs.
    pub const fn kind(&self) -> AlgorithmKind {
        self.kind
    }

    /// Sets the memory budget (required).
    #[must_use]
    pub fn budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Sets an explicit master hash seed. Without it each algorithm keeps
    /// its stable default seeds (reproducible across runs).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Declares that the caller will run records-derived queries (flow
    /// report, heavy hitters, `top_k`). [`Self::build`] then rejects the
    /// estimate-only sketches ([`AlgorithmKind::supports_records`] is
    /// `false`) with a typed [`ConfigError`] at construction time,
    /// instead of letting the query surface answer an empty snapshot.
    #[must_use]
    pub fn require_records(mut self) -> Self {
        self.require_records = true;
        self
    }

    /// Sets the observability handles the built monitor is instrumented
    /// with ([`FlowMonitor::instrument`], called once by [`Self::build`]).
    /// HashFlow takes its placement-stage spans from them; monitors with
    /// nothing to report ignore them — the ingest counters live in the
    /// rotation layer ([`hashflow_monitor::EpochRotator`]), the sinks' in
    /// the `Collector`'s [`hashflow_monitor::SinkSet`].
    #[must_use]
    pub fn instruments(mut self, instruments: Instruments) -> Self {
        self.instruments = instruments;
        self
    }

    fn require_budget(&self) -> Result<MemoryBudget, ConfigError> {
        self.budget.ok_or_else(|| {
            ConfigError::new(format!(
                "building a {} monitor requires a memory budget",
                self.kind
            ))
        })
    }

    /// The records-capability gate behind [`Self::require_records`].
    fn check_records(&self) -> Result<(), ConfigError> {
        if self.require_records {
            self.kind.check_records()?;
        }
        Ok(())
    }

    /// Constructs the monitor.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the budget is missing or too small
    /// for the algorithm's minimum geometry.
    pub fn build(&self) -> Result<Box<dyn FlowMonitor + Send>, ConfigError> {
        let budget = self.require_budget()?;
        self.check_records()?;
        let mut monitor = self.build_one(budget)?;
        monitor.instrument(&self.instruments);
        Ok(monitor)
    }

    /// The monitor of [`Self::kind`] over `budget`.
    fn build_one(&self, budget: MemoryBudget) -> Result<Box<dyn FlowMonitor + Send>, ConfigError> {
        Ok(match self.kind {
            AlgorithmKind::HashFlow => {
                let config = HashFlowConfig::with_memory(budget)?;
                Box::new(HashFlow::new(match self.seed {
                    Some(seed) => config.rebuild().seed(seed).build()?,
                    None => config,
                })?)
            }
            AlgorithmKind::HashPipe => Box::new(match self.seed {
                Some(seed) => HashPipe::with_memory_seeded(budget, seed)?,
                None => HashPipe::with_memory(budget)?,
            }),
            AlgorithmKind::Elastic => Box::new(match self.seed {
                Some(seed) => ElasticSketch::with_memory_seeded(budget, seed)?,
                None => ElasticSketch::with_memory(budget)?,
            }),
            AlgorithmKind::FlowRadar => Box::new(match self.seed {
                Some(seed) => FlowRadar::with_memory_seeded(budget, seed)?,
                None => FlowRadar::with_memory(budget)?,
            }),
            AlgorithmKind::NetFlow => Box::new(match self.seed {
                Some(seed) => SampledNetFlow::with_memory_seeded(budget, 1, seed)?,
                None => SampledNetFlow::with_memory(budget, 1)?,
            }),
            AlgorithmKind::CountMin => Box::new(match self.seed {
                Some(seed) => CountMinMonitor::with_memory_seeded(budget, seed)?,
                None => CountMinMonitor::with_memory(budget)?,
            }),
            AlgorithmKind::Fcm => Box::new(match self.seed {
                Some(seed) => FcmMonitor::with_memory_seeded(budget, seed)?,
                None => FcmMonitor::with_memory(budget)?,
            }),
            AlgorithmKind::BeauCoup => Box::new(match self.seed {
                Some(seed) => BeauCoupMonitor::with_memory_seeded(budget, seed)?,
                None => BeauCoupMonitor::with_memory(budget)?,
            }),
            AlgorithmKind::Exact => Box::new(match self.seed {
                Some(seed) => ExactBaselineMonitor::with_memory_seeded(budget, seed)?,
                None => ExactBaselineMonitor::with_memory(budget)?,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> MemoryBudget {
        MemoryBudget::from_kib(256).unwrap()
    }

    /// `unwrap_err` without requiring the (non-Debug) boxed monitor.
    fn expect_err<T>(result: Result<T, ConfigError>) -> ConfigError {
        match result {
            Err(e) => e,
            Ok(_) => panic!("expected a construction error"),
        }
    }

    #[test]
    fn parse_resolves_names_and_aliases() {
        for kind in AlgorithmKind::ALL {
            assert_eq!(AlgorithmKind::parse(kind.name()).unwrap(), kind);
            assert_eq!(
                AlgorithmKind::parse(&kind.name().to_ascii_uppercase()).unwrap(),
                kind
            );
        }
        assert_eq!(
            AlgorithmKind::parse("elasticsketch").unwrap(),
            AlgorithmKind::Elastic
        );
        assert_eq!(
            AlgorithmKind::parse("sampled").unwrap(),
            AlgorithmKind::NetFlow
        );
        assert_eq!(AlgorithmKind::parse("cm").unwrap(), AlgorithmKind::CountMin);
        assert_eq!(
            AlgorithmKind::parse("baseline").unwrap(),
            AlgorithmKind::Exact
        );
        assert_eq!(
            "flowradar".parse::<AlgorithmKind>().unwrap(),
            AlgorithmKind::FlowRadar
        );
    }

    #[test]
    fn unknown_name_errors_with_the_valid_list() {
        let err = AlgorithmKind::parse("quantum").unwrap_err().to_string();
        assert!(err.contains("unknown algorithm 'quantum'"), "{err}");
        for kind in AlgorithmKind::ALL {
            assert!(err.contains(kind.name()), "{err} missing {kind}");
        }
    }

    #[test]
    fn builds_every_algorithm_with_and_without_seed() {
        for kind in AlgorithmKind::ALL {
            let plain = MonitorBuilder::new(kind).budget(budget()).build().unwrap();
            let seeded = MonitorBuilder::new(kind)
                .budget(budget())
                .seed(99)
                .build()
                .unwrap();
            assert_eq!(plain.name(), seeded.name());
            assert!(plain.memory_bits() <= budget().bits(), "{kind}");
            assert!(
                plain.memory_bits() > budget().bits() * 9 / 10,
                "{kind} underuses its budget"
            );
        }
    }

    #[test]
    fn budget_is_required() {
        let err = expect_err(MonitorBuilder::new(AlgorithmKind::HashFlow).build());
        assert!(err.to_string().contains("memory budget"), "{err}");
    }

    #[test]
    fn sharded_builds_split_the_budget() {
        use hashflow_shard::ShardedMonitor;
        for kind in AlgorithmKind::ALL {
            let sharded = ShardedMonitor::with_budget(4, budget(), |_, b| {
                MonitorBuilder::new(kind).budget(b).build()
            })
            .unwrap();
            let single = MonitorBuilder::new(kind).budget(budget()).build().unwrap();
            assert_eq!(sharded.name(), single.name(), "{kind}");
            assert!(sharded.memory_bits() <= budget().bits(), "{kind}");
        }
    }

    #[test]
    fn seed_changes_table_placement_but_not_identity() {
        use hashflow_monitor::FlowMonitor as _;
        use hashflow_types::{FlowKey, Packet};
        // Same trace, different seeds: same flows recorded (HashFlow's
        // main table is exact), different internal placement is invisible
        // at the query surface.
        let mut a = MonitorBuilder::new(AlgorithmKind::HashFlow)
            .budget(budget())
            .seed(1)
            .build()
            .unwrap();
        let mut b = MonitorBuilder::new(AlgorithmKind::HashFlow)
            .budget(budget())
            .seed(2)
            .build()
            .unwrap();
        for i in 0..500u64 {
            let p = Packet::new(FlowKey::from_index(i % 50), i, 64);
            a.process_packet(&p);
            b.process_packet(&p);
        }
        assert_eq!(a.flow_records().len(), b.flow_records().len());
    }

    #[test]
    fn capability_flags_match_the_zoo() {
        use hashflow_monitor::FlowMonitor as _;
        use hashflow_types::{FlowKey, Packet};
        for kind in AlgorithmKind::ALL {
            let mut monitor = MonitorBuilder::new(kind).budget(budget()).build().unwrap();
            for i in 0..200u64 {
                monitor.process_packet(&Packet::new(FlowKey::from_index(i % 20), i, 64));
            }
            assert_eq!(
                !monitor.flow_records().is_empty(),
                kind.supports_records(),
                "{kind}: supports_records flag disagrees with the monitor"
            );
        }
    }

    #[test]
    fn require_records_rejects_estimate_only_kinds() {
        for kind in [AlgorithmKind::CountMin, AlgorithmKind::Fcm] {
            assert!(!kind.supports_records());
            let err = expect_err(
                MonitorBuilder::new(kind)
                    .budget(budget())
                    .require_records()
                    .build(),
            );
            assert!(err.to_string().contains("estimate-only"), "{err}");
        }
        for kind in AlgorithmKind::ALL
            .into_iter()
            .filter(|k| k.supports_records())
        {
            assert!(
                MonitorBuilder::new(kind)
                    .budget(budget())
                    .require_records()
                    .build()
                    .is_ok(),
                "{kind} retains records and must pass the gate"
            );
        }
    }
}
