//! The algorithm registry: every way the workspace turns an algorithm
//! name or kind plus a [`MemoryBudget`] into a running monitor.

use elastic_sketch::ElasticSketch;
use flowradar::FlowRadar;
use hashflow_core::{HashFlow, HashFlowConfig};
use hashflow_monitor::{FlowMonitor, Instruments, MemoryBudget, MergeableMonitor};
use hashflow_shard::ShardedMonitor;
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

    /// Whether the algorithm implements the merge layer
    /// ([`MergeableMonitor`]) and can therefore run sharded.
    pub const fn supports_sharding(&self) -> bool {
        matches!(
            self,
            AlgorithmKind::HashFlow
                | AlgorithmKind::FlowRadar
                | AlgorithmKind::NetFlow
                | AlgorithmKind::CountMin
                | AlgorithmKind::Fcm
                | AlgorithmKind::BeauCoup
                | AlgorithmKind::Exact
        )
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

    /// The canonical names of the merge-layer algorithms, comma-separated
    /// (the list the sharding rejection errors with).
    fn sharded_names() -> String {
        Self::ALL
            .iter()
            .filter(|k| k.supports_sharding())
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
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
/// seeds), a `shards` count (> 1 wraps the monitor in a
/// [`ShardedMonitor`] with the budget split equally, for the merge-layer
/// algorithms), the NetFlow `sampling` rate, and the [`Instruments`]
/// every layer of the built monitor is handed.
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
/// // Sharded ingestion at the same total budget:
/// let sharded = MonitorBuilder::new(AlgorithmKind::HashFlow)
///     .budget(budget)
///     .shards(4)
///     .build()?;
/// assert_eq!(sharded.name(), "HashFlow");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct MonitorBuilder {
    kind: AlgorithmKind,
    budget: Option<MemoryBudget>,
    seed: Option<u64>,
    shards: usize,
    sampling_n: u32,
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
            shards: 1,
            sampling_n: 1,
            require_records: false,
            instruments: Instruments::default(),
        }
    }

    /// Starts a builder from an algorithm name ([`AlgorithmKind::parse`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for unknown names, listing the valid
    /// algorithms.
    pub fn named(name: &str) -> Result<Self, ConfigError> {
        Ok(Self::new(AlgorithmKind::parse(name)?))
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

    /// Sets the shard count. `1` (the default) builds the bare monitor;
    /// `> 1` wraps it in a [`ShardedMonitor`] with the budget split into
    /// equal per-shard budgets summing to at most the total.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets NetFlow's 1-in-N packet sampling rate (ignored by the other
    /// algorithms; default 1, i.e. unsampled).
    #[must_use]
    pub fn sampling(mut self, n: u32) -> Self {
        self.sampling_n = n;
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
    /// Each layer takes what it uses: the sharded merge layer its
    /// per-shard counters, queue gauges, dispatch/merge/seal histograms,
    /// panic and shed events and `dispatch` spans; HashFlow its
    /// placement-stage spans. Monitors with nothing to report ignore
    /// them — pipeline-level counters live in the rotation layer
    /// ([`hashflow_monitor::PipelineMetrics`]).
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

    fn build_hashflow(&self, budget: MemoryBudget) -> Result<HashFlow, ConfigError> {
        let config = HashFlowConfig::with_memory(budget)?;
        HashFlow::new(match self.seed {
            Some(seed) => config.rebuild().seed(seed).build()?,
            None => config,
        })
    }

    fn build_flowradar(&self, budget: MemoryBudget) -> Result<FlowRadar, ConfigError> {
        match self.seed {
            Some(seed) => FlowRadar::with_memory_seeded(budget, seed),
            None => FlowRadar::with_memory(budget),
        }
    }

    fn build_netflow(&self, budget: MemoryBudget) -> Result<SampledNetFlow, ConfigError> {
        match self.seed {
            Some(seed) => SampledNetFlow::with_memory_seeded(budget, self.sampling_n, seed),
            None => SampledNetFlow::with_memory(budget, self.sampling_n),
        }
    }

    fn build_countmin(&self, budget: MemoryBudget) -> Result<CountMinMonitor, ConfigError> {
        match self.seed {
            Some(seed) => CountMinMonitor::with_memory_seeded(budget, seed),
            None => CountMinMonitor::with_memory(budget),
        }
    }

    fn build_fcm(&self, budget: MemoryBudget) -> Result<FcmMonitor, ConfigError> {
        match self.seed {
            Some(seed) => FcmMonitor::with_memory_seeded(budget, seed),
            None => FcmMonitor::with_memory(budget),
        }
    }

    fn build_beaucoup(&self, budget: MemoryBudget) -> Result<BeauCoupMonitor, ConfigError> {
        match self.seed {
            Some(seed) => BeauCoupMonitor::with_memory_seeded(budget, seed),
            None => BeauCoupMonitor::with_memory(budget),
        }
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
    /// for the algorithm's minimum geometry, when `shards == 0`, or when
    /// `shards > 1` is requested for an algorithm without the merge layer
    /// ([`AlgorithmKind::supports_sharding`]).
    pub fn build(&self) -> Result<Box<dyn FlowMonitor + Send>, ConfigError> {
        let mut monitor = self.build_bare()?;
        monitor.instrument(&self.instruments);
        Ok(monitor)
    }

    fn build_bare(&self) -> Result<Box<dyn FlowMonitor + Send>, ConfigError> {
        let budget = self.require_budget()?;
        self.check_records()?;
        if self.shards == 0 {
            return Err(ConfigError::new("shard count must be at least 1"));
        }
        if self.shards > 1 {
            return self.build_sharded(budget);
        }
        Ok(match self.kind {
            AlgorithmKind::HashFlow => Box::new(self.build_hashflow(budget)?),
            AlgorithmKind::HashPipe => Box::new(match self.seed {
                Some(seed) => HashPipe::with_memory_seeded(budget, seed)?,
                None => HashPipe::with_memory(budget)?,
            }),
            AlgorithmKind::Elastic => Box::new(match self.seed {
                Some(seed) => ElasticSketch::with_memory_seeded(budget, seed)?,
                None => ElasticSketch::with_memory(budget)?,
            }),
            AlgorithmKind::FlowRadar => Box::new(self.build_flowradar(budget)?),
            AlgorithmKind::NetFlow => Box::new(self.build_netflow(budget)?),
            AlgorithmKind::CountMin => Box::new(self.build_countmin(budget)?),
            AlgorithmKind::Fcm => Box::new(self.build_fcm(budget)?),
            AlgorithmKind::BeauCoup => Box::new(self.build_beaucoup(budget)?),
            AlgorithmKind::Exact => Box::new(match self.seed {
                Some(seed) => ExactBaselineMonitor::with_memory_seeded(budget, seed)?,
                None => ExactBaselineMonitor::with_memory(budget)?,
            }),
        })
    }

    fn build_sharded(
        &self,
        budget: MemoryBudget,
    ) -> Result<Box<dyn FlowMonitor + Send>, ConfigError> {
        fn shard<M: MergeableMonitor + Send + 'static>(
            builder: &MonitorBuilder,
            budget: MemoryBudget,
            build: impl FnMut(usize, MemoryBudget) -> Result<M, ConfigError>,
        ) -> Result<Box<dyn FlowMonitor + Send>, ConfigError> {
            let monitor = ShardedMonitor::with_budget(builder.shards, budget, build)?;
            Ok(Box::new(monitor))
        }
        match self.kind {
            AlgorithmKind::HashFlow => shard(self, budget, |_, b| self.build_hashflow(b)),
            AlgorithmKind::FlowRadar => shard(self, budget, |_, b| self.build_flowradar(b)),
            AlgorithmKind::NetFlow => shard(self, budget, |_, b| self.build_netflow(b)),
            AlgorithmKind::CountMin => shard(self, budget, |_, b| self.build_countmin(b)),
            AlgorithmKind::Fcm => shard(self, budget, |_, b| self.build_fcm(b)),
            AlgorithmKind::BeauCoup => shard(self, budget, |_, b| self.build_beaucoup(b)),
            AlgorithmKind::Exact => shard(self, budget, |_, b| match self.seed {
                Some(seed) => ExactBaselineMonitor::with_memory_seeded(b, seed),
                None => ExactBaselineMonitor::with_memory(b),
            }),
            AlgorithmKind::HashPipe | AlgorithmKind::Elastic => Err(ConfigError::new(format!(
                "{} does not implement the merge layer and cannot run sharded; \
                 use one of: {}",
                self.kind,
                AlgorithmKind::sharded_names()
            ))),
        }
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
        for kind in AlgorithmKind::ALL
            .into_iter()
            .filter(|k| k.supports_sharding())
        {
            let sharded = MonitorBuilder::new(kind)
                .budget(budget())
                .shards(4)
                .build()
                .unwrap();
            assert!(sharded.memory_bits() <= budget().bits(), "{kind}");
        }
    }

    #[test]
    fn sharding_rejected_for_non_mergeable_algorithms() {
        for kind in [AlgorithmKind::HashPipe, AlgorithmKind::Elastic] {
            assert!(!kind.supports_sharding());
            let err = expect_err(MonitorBuilder::new(kind).budget(budget()).shards(2).build());
            assert!(err.to_string().contains("merge layer"), "{err}");
        }
        let err = expect_err(
            MonitorBuilder::new(AlgorithmKind::HashFlow)
                .budget(budget())
                .shards(0)
                .build(),
        );
        assert!(err.to_string().contains("at least 1"), "{err}");
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

    #[test]
    fn netflow_sampling_knob_applies() {
        let monitor = MonitorBuilder::new(AlgorithmKind::NetFlow)
            .budget(budget())
            .sampling(0)
            .build();
        assert!(monitor.is_err(), "sampling_n = 0 must be rejected");
        assert!(MonitorBuilder::new(AlgorithmKind::NetFlow)
            .budget(budget())
            .sampling(30)
            .build()
            .is_ok());
    }
}
