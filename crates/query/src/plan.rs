//! The query-plan IR: a Sonata-style linear operator pipeline over flow
//! telemetry, with a typed builder and a validated normal form.
//!
//! A plan is a sequence of stages in the fixed order
//! `filter* → map → distinct? → reduce → threshold?` (the normal form
//! every Sonata-style telemetry query compiles to once joins are taken
//! off the table). [`QueryPlan::new`] enforces the order, so every plan
//! an executor sees is well-formed by construction.

use hashflow_types::{ConfigError, FlowKey, Ipv4Addr};
use std::fmt;

/// A five-tuple component a predicate or projection can address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Field {
    /// Source IPv4 address.
    SrcIp,
    /// Destination IPv4 address.
    DstIp,
    /// Source transport port.
    SrcPort,
    /// Destination transport port.
    DstPort,
    /// IP protocol number.
    Protocol,
}

impl Field {
    /// The canonical grammar token (`src`, `dst`, `srcport`, `dstport`,
    /// `proto`).
    pub const fn token(&self) -> &'static str {
        match self {
            Field::SrcIp => "src",
            Field::DstIp => "dst",
            Field::SrcPort => "srcport",
            Field::DstPort => "dstport",
            Field::Protocol => "proto",
        }
    }

    /// Extracts this field of `key` as a plain number (IPs as their
    /// 32-bit value) — the domain every comparison runs in.
    pub fn extract(&self, key: &FlowKey) -> u64 {
        match self {
            Field::SrcIp => u64::from(key.src_ip().to_bits()),
            Field::DstIp => u64::from(key.dst_ip().to_bits()),
            Field::SrcPort => u64::from(key.src_port()),
            Field::DstPort => u64::from(key.dst_port()),
            Field::Protocol => u64::from(key.protocol()),
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// A comparison operator of the predicate grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The grammar token of the operator.
    pub const fn token(&self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Applies the comparison.
    pub fn test(&self, lhs: u64, rhs: u64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One filter condition: a comparison over a key field or over a flow's
/// packet count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Predicate {
    /// Compares a five-tuple field against a constant (IPs by their
    /// numeric value — equality is the meaningful case; ordering enables
    /// crude range checks).
    Key {
        /// Field under test.
        field: Field,
        /// Comparison operator.
        op: CmpOp,
        /// Constant to compare against.
        value: u64,
    },
    /// Compares a flow's **final epoch packet count** — the count in the
    /// sealed record report the plan is executed over ([`crate::execute`]).
    Count {
        /// Comparison operator.
        op: CmpOp,
        /// Packet-count constant.
        value: u64,
    },
}

impl Predicate {
    /// `field op value` over a key field.
    pub const fn key(field: Field, op: CmpOp, value: u64) -> Self {
        Predicate::Key { field, op, value }
    }

    /// `proto = p` — the most common packet-level filter.
    pub const fn proto_eq(proto: u8) -> Self {
        Predicate::Key {
            field: Field::Protocol,
            op: CmpOp::Eq,
            value: proto as u64,
        }
    }

    /// `count op value` over the final epoch packet count.
    pub const fn count(op: CmpOp, value: u64) -> Self {
        Predicate::Count { op, value }
    }

    /// Tests the predicate against a `(key, count)` flow observation.
    pub fn test(&self, key: &FlowKey, count: u64) -> bool {
        match self {
            Predicate::Key { field, op, value } => op.test(field.extract(key), *value),
            Predicate::Count { op, value } => op.test(count, *value),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::Key { field, op, value } => match field {
                Field::SrcIp | Field::DstIp => {
                    write!(f, "{field}{op}{}", Ipv4Addr::new(*value as u32))
                }
                _ => write!(f, "{field}{op}{value}"),
            },
            Predicate::Count { op, value } => write!(f, "count{op}{value}"),
        }
    }
}

/// A key projection: which components of the five-tuple survive into the
/// grouping key (or the distinct sub-key).
///
/// A projected key is represented as a [`FlowKey`] with every
/// non-projected field zeroed, so group keys reuse the workspace's key
/// type, hashing and ordering unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Projection {
    /// The whole five-tuple (identity projection).
    #[default]
    Flow,
    /// Source address only.
    Src,
    /// Destination address only.
    Dst,
    /// Source and destination addresses (the host pair).
    SrcDst,
    /// Source port only.
    SrcPort,
    /// Destination port only.
    DstPort,
    /// Protocol number only.
    Proto,
}

impl Projection {
    /// Every projection, in grammar order.
    pub const ALL: [Projection; 7] = [
        Projection::Flow,
        Projection::Src,
        Projection::Dst,
        Projection::SrcDst,
        Projection::SrcPort,
        Projection::DstPort,
        Projection::Proto,
    ];

    /// The canonical grammar token.
    pub const fn token(&self) -> &'static str {
        match self {
            Projection::Flow => "flow",
            Projection::Src => "src",
            Projection::Dst => "dst",
            Projection::SrcDst => "srcdst",
            Projection::SrcPort => "srcport",
            Projection::DstPort => "dstport",
            Projection::Proto => "proto",
        }
    }

    /// Projects `key`, zeroing every non-projected field.
    pub fn project(&self, key: &FlowKey) -> FlowKey {
        let zero = Ipv4Addr::new(0);
        match self {
            Projection::Flow => *key,
            Projection::Src => FlowKey::new(key.src_ip(), zero, 0, 0, 0),
            Projection::Dst => FlowKey::new(zero, key.dst_ip(), 0, 0, 0),
            Projection::SrcDst => FlowKey::new(key.src_ip(), key.dst_ip(), 0, 0, 0),
            Projection::SrcPort => FlowKey::new(zero, zero, key.src_port(), 0, 0),
            Projection::DstPort => FlowKey::new(zero, zero, 0, key.dst_port(), 0),
            Projection::Proto => FlowKey::new(zero, zero, 0, 0, key.protocol()),
        }
    }

    /// Formats a *projected* key showing only the projected components
    /// (`10.0.0.1`, `10.0.0.1->10.0.0.2`, `:443`, …) — report-friendly,
    /// unlike printing the zero-padded full tuple.
    pub fn format(&self, key: &FlowKey) -> String {
        match self {
            Projection::Flow => key.to_string(),
            Projection::Src => key.src_ip().to_string(),
            Projection::Dst => key.dst_ip().to_string(),
            Projection::SrcDst => format!("{}->{}", key.src_ip(), key.dst_ip()),
            Projection::SrcPort => format!(":{}", key.src_port()),
            Projection::DstPort => format!(":{}", key.dst_port()),
            Projection::Proto => format!("/{}", key.protocol()),
        }
    }
}

impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// The aggregation function of the `reduce` stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Aggregate {
    /// Sum of packet counts per group (total packets).
    Sum,
    /// Number of distinct items per group: distinct flows without a
    /// `distinct` stage, distinct projected sub-keys with one.
    Count,
    /// Largest single flow count in the group.
    Max,
}

impl Aggregate {
    /// The canonical grammar token.
    pub const fn token(&self) -> &'static str {
        match self {
            Aggregate::Sum => "sum",
            Aggregate::Count => "count",
            Aggregate::Max => "max",
        }
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One pipeline stage of a query plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanOp {
    /// Drop flows failing the predicate.
    Filter(Predicate),
    /// Project the grouping key.
    MapKey(Projection),
    /// Deduplicate `(group, projected sub-key)` pairs before reducing:
    /// `distinct src` after `map dst` counts, per destination, each
    /// source once — the superspreader/DDoS shape.
    Distinct(Projection),
    /// Aggregate per group.
    Reduce(Aggregate),
    /// Keep groups whose aggregate is at least the bound.
    Threshold(u64),
}

impl fmt::Display for PlanOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanOp::Filter(p) => write!(f, "filter {p}"),
            PlanOp::MapKey(p) => write!(f, "map {p}"),
            PlanOp::Distinct(p) => write!(f, "distinct {p}"),
            PlanOp::Reduce(a) => write!(f, "reduce {a}"),
            PlanOp::Threshold(t) => write!(f, "threshold {t}"),
        }
    }
}

/// A validated query plan in normal form:
/// `filter* → map → distinct? → reduce → threshold?`.
///
/// Build one with [`QueryPlan::builder`], [`QueryPlan::new`] on raw ops,
/// or parse the compact text form (`"filter proto=6 | map dst | distinct
/// src | reduce count | threshold 40"`) via [`FromStr`](std::str::FromStr).
///
/// # Examples
///
/// ```
/// use hashflow_query::{Aggregate, Predicate, Projection, QueryPlan};
///
/// // Superspreader: sources contacting >= 40 distinct destinations.
/// let plan = QueryPlan::builder()
///     .filter(Predicate::proto_eq(6))
///     .map(Projection::Src)
///     .distinct(Projection::Dst)
///     .reduce(Aggregate::Count)
///     .threshold(40)
///     .build()?;
/// let parsed: QueryPlan = plan.to_string().parse()?;
/// assert_eq!(parsed, plan);
/// # Ok::<(), hashflow_query::hashflow_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    ops: Vec<PlanOp>,
}

impl QueryPlan {
    /// Validates a raw stage sequence into a plan.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when stages are out of normal-form order,
    /// a stage is duplicated, or the mandatory `reduce` stage is missing.
    pub fn new(ops: Vec<PlanOp>) -> Result<Self, ConfigError> {
        // Stage ranks of the normal form; each op must rank strictly
        // after filters and non-strictly after everything it follows.
        fn rank(op: &PlanOp) -> u8 {
            match op {
                PlanOp::Filter(_) => 0,
                PlanOp::MapKey(_) => 1,
                PlanOp::Distinct(_) => 2,
                PlanOp::Reduce(_) => 3,
                PlanOp::Threshold(_) => 4,
            }
        }
        let mut last_rank = 0u8;
        for op in &ops {
            let r = rank(op);
            if r < last_rank || (r == last_rank && r != 0) {
                return Err(ConfigError::new(format!(
                    "plan stage '{op}' out of order; the normal form is \
                     filter* | map | distinct | reduce | threshold"
                )));
            }
            last_rank = r;
        }
        if !ops.iter().any(|op| matches!(op, PlanOp::Reduce(_))) {
            return Err(ConfigError::new(
                "a query plan needs a 'reduce sum|count|max' stage",
            ));
        }
        Ok(QueryPlan { ops })
    }

    /// Starts a typed builder.
    pub fn builder() -> PlanBuilder {
        PlanBuilder { ops: Vec::new() }
    }

    /// The validated stage sequence.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// Filter predicates, in plan order.
    pub fn filters(&self) -> impl Iterator<Item = &Predicate> {
        self.ops.iter().filter_map(|op| match op {
            PlanOp::Filter(p) => Some(p),
            _ => None,
        })
    }

    /// The grouping projection ([`Projection::Flow`] when no `map` stage).
    pub fn group(&self) -> Projection {
        self.ops
            .iter()
            .find_map(|op| match op {
                PlanOp::MapKey(p) => Some(*p),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// The distinct sub-key projection, if the plan deduplicates.
    pub fn distinct(&self) -> Option<Projection> {
        self.ops.iter().find_map(|op| match op {
            PlanOp::Distinct(p) => Some(*p),
            _ => None,
        })
    }

    /// The aggregation function (validation guarantees its presence).
    pub fn aggregate(&self) -> Aggregate {
        self.ops
            .iter()
            .find_map(|op| match op {
                PlanOp::Reduce(a) => Some(*a),
                _ => None,
            })
            .expect("validated plans always carry a reduce stage")
    }

    /// The threshold bound, if any.
    pub fn threshold(&self) -> Option<u64> {
        self.ops.iter().find_map(|op| match op {
            PlanOp::Threshold(t) => Some(*t),
            _ => None,
        })
    }
}

impl fmt::Display for QueryPlan {
    /// Renders the compact text form; parses back to an equal plan.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

/// Typed builder for [`QueryPlan`]; stages may be given in any order and
/// are validated by [`PlanBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct PlanBuilder {
    ops: Vec<PlanOp>,
}

impl PlanBuilder {
    /// Adds a filter stage (repeatable; conditions AND together).
    #[must_use]
    pub fn filter(mut self, predicate: Predicate) -> Self {
        self.ops.push(PlanOp::Filter(predicate));
        self
    }

    /// Sets the grouping projection.
    #[must_use]
    pub fn map(mut self, projection: Projection) -> Self {
        self.ops.push(PlanOp::MapKey(projection));
        self
    }

    /// Adds the distinct stage.
    #[must_use]
    pub fn distinct(mut self, projection: Projection) -> Self {
        self.ops.push(PlanOp::Distinct(projection));
        self
    }

    /// Sets the aggregation function (required).
    #[must_use]
    pub fn reduce(mut self, aggregate: Aggregate) -> Self {
        self.ops.push(PlanOp::Reduce(aggregate));
        self
    }

    /// Sets the threshold bound.
    #[must_use]
    pub fn threshold(mut self, bound: u64) -> Self {
        self.ops.push(PlanOp::Threshold(bound));
        self
    }

    /// Validates and builds the plan.
    ///
    /// # Errors
    ///
    /// Propagates [`QueryPlan::new`] validation errors.
    pub fn build(self) -> Result<QueryPlan, ConfigError> {
        QueryPlan::new(self.ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_normal_form() {
        let plan = QueryPlan::builder()
            .filter(Predicate::proto_eq(6))
            .map(Projection::Src)
            .distinct(Projection::DstPort)
            .reduce(Aggregate::Count)
            .threshold(10)
            .build()
            .unwrap();
        assert_eq!(plan.group(), Projection::Src);
        assert_eq!(plan.distinct(), Some(Projection::DstPort));
        assert_eq!(plan.aggregate(), Aggregate::Count);
        assert_eq!(plan.threshold(), Some(10));
        assert!(plan.filters().eq([&Predicate::proto_eq(6)]));
    }

    #[test]
    fn reduce_is_mandatory() {
        let err = QueryPlan::builder()
            .map(Projection::Dst)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("reduce"), "{err}");
    }

    #[test]
    fn out_of_order_and_duplicate_stages_rejected() {
        for ops in [
            vec![
                PlanOp::Reduce(Aggregate::Sum),
                PlanOp::MapKey(Projection::Src),
            ],
            vec![
                PlanOp::MapKey(Projection::Src),
                PlanOp::Filter(Predicate::proto_eq(6)),
                PlanOp::Reduce(Aggregate::Sum),
            ],
            vec![
                PlanOp::MapKey(Projection::Src),
                PlanOp::MapKey(Projection::Dst),
                PlanOp::Reduce(Aggregate::Sum),
            ],
            vec![
                PlanOp::Reduce(Aggregate::Sum),
                PlanOp::Threshold(1),
                PlanOp::Threshold(2),
            ],
        ] {
            assert!(QueryPlan::new(ops).is_err());
        }
    }

    #[test]
    fn defaults_are_flow_group_no_threshold() {
        let plan = QueryPlan::builder().reduce(Aggregate::Sum).build().unwrap();
        assert_eq!(plan.group(), Projection::Flow);
        assert_eq!(plan.distinct(), None);
        assert_eq!(plan.threshold(), None);
    }

    #[test]
    fn count_filters_are_flagged() {
        let plan = QueryPlan::builder()
            .filter(Predicate::count(CmpOp::Ge, 5))
            .reduce(Aggregate::Count)
            .build()
            .unwrap();
        assert!(plan.filters().eq([&Predicate::count(CmpOp::Ge, 5)]));
    }

    #[test]
    fn projection_zeroes_unselected_fields() {
        let key = FlowKey::new([1, 2, 3, 4].into(), [5, 6, 7, 8].into(), 1000, 2000, 17);
        let s = Projection::Src.project(&key);
        assert_eq!(s.src_ip(), key.src_ip());
        assert_eq!(s.dst_ip(), Ipv4Addr::new(0));
        assert_eq!((s.src_port(), s.dst_port(), s.protocol()), (0, 0, 0));
        assert_eq!(Projection::Flow.project(&key), key);
        let dp = Projection::DstPort.project(&key);
        assert_eq!(dp.dst_port(), 2000);
        assert!(Projection::DstPort.format(&dp).contains("2000"));
    }

    #[test]
    fn predicates_test_fields_and_counts() {
        let key = FlowKey::new([10, 0, 0, 1].into(), [10, 0, 0, 2].into(), 80, 443, 6);
        assert!(Predicate::proto_eq(6).test(&key, 1));
        assert!(!Predicate::proto_eq(17).test(&key, 1));
        assert!(Predicate::key(Field::SrcIp, CmpOp::Eq, 0x0a00_0001).test(&key, 1));
        assert!(Predicate::key(Field::DstIp, CmpOp::Eq, 0x0a00_0002).test(&key, 1));
        assert!(Predicate::key(Field::DstPort, CmpOp::Ge, 400).test(&key, 1));
        assert!(Predicate::count(CmpOp::Gt, 3).test(&key, 4));
        assert!(!Predicate::count(CmpOp::Gt, 3).test(&key, 3));
        assert!(Predicate::count(CmpOp::Le, 3).test(&key, 3));
        assert!(Predicate::count(CmpOp::Lt, 3).test(&key, 2));
        assert!(Predicate::count(CmpOp::Ne, 3).test(&key, 2));
    }
}
