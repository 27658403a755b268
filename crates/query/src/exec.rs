//! Plan execution: one executor, defined over the *flow multiset* of an
//! epoch (each flow a `(key, packet count)` pair):
//!
//! 1. **filter** — a flow passes iff every predicate holds (key
//!    predicates over its five-tuple, count predicates over its final
//!    epoch packet count).
//! 2. **map** — the grouping key is the projected five-tuple.
//! 3. **distinct** — each `(group, projected sub-key)` pair is counted
//!    once, with value 1, regardless of flow sizes.
//! 4. **reduce** — per group: `sum` adds packet counts, `count` counts
//!    distinct items (flows, or pairs after `distinct`), `max` takes the
//!    largest single item.
//! 5. **threshold** — groups whose aggregate is at least the bound
//!    survive.
//!
//! [`execute`] evaluates a plan over a record report. It is exact for
//! the report it is given: over a sealed [`EpochSnapshot`] of an exact
//! monitor (or over ground truth) the answer is exact; over a sketch's
//! report it inherits the sketch's approximation.
//! `tests/query_equivalence.rs` checks it against an independent oracle.

use crate::plan::{Aggregate, Predicate, Projection, QueryPlan};
use hashflow_monitor::EpochSnapshot;
use hashflow_types::{FlowKey, FlowRecord};
use std::collections::{HashMap, HashSet};

/// Identifier of a plan attached to a pipeline (its attach order): the
/// index of its answer in each sealed epoch's entry.
pub type QueryId = usize;

/// One group of a query answer: the projected key and its aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryRow {
    /// Projected grouping key (non-projected fields zeroed).
    pub key: FlowKey,
    /// Aggregate value of the group.
    pub value: u64,
}

/// A query answer: the surviving groups, sorted by aggregate descending
/// (ties by key ascending — the workspace's heavy-hitter report order),
/// tagged with the plan's grouping projection so keys render sensibly.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    group: Projection,
    rows: Vec<QueryRow>,
}

impl QueryResult {
    fn from_groups(plan: &QueryPlan, groups: HashMap<FlowKey, u64>) -> Self {
        let bound = plan.threshold().unwrap_or(0);
        let mut rows: Vec<QueryRow> = groups
            .into_iter()
            .filter(|(_, value)| *value >= bound)
            .map(|(key, value)| QueryRow { key, value })
            .collect();
        rows.sort_unstable_by(|a, b| b.value.cmp(&a.value).then_with(|| a.key.cmp(&b.key)));
        QueryResult {
            group: plan.group(),
            rows,
        }
    }

    /// The plan's grouping projection (how [`QueryRow::key`]s should be
    /// rendered).
    pub const fn group(&self) -> Projection {
        self.group
    }

    /// The surviving groups, largest aggregate first.
    pub fn rows(&self) -> &[QueryRow] {
        &self.rows
    }

    /// Number of surviving groups.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no group survived.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Aggregate of one group, if it survived.
    pub fn get(&self, key: &FlowKey) -> Option<u64> {
        self.rows.iter().find(|r| r.key == *key).map(|r| r.value)
    }
}

/// Evaluates `plan` over a flow record report, post hoc.
///
/// # Examples
///
/// ```
/// use hashflow_query::{execute, QueryPlan};
/// use hashflow_types::{FlowKey, FlowRecord};
///
/// let plan: QueryPlan = "map src | distinct dst | reduce count | threshold 2".parse()?;
/// let mk = |s: [u8; 4], d: [u8; 4]| {
///     FlowRecord::new(FlowKey::new(s.into(), d.into(), 1, 2, 6), 9)
/// };
/// let records = [
///     mk([1, 1, 1, 1], [2, 2, 2, 2]),
///     mk([1, 1, 1, 1], [3, 3, 3, 3]),
///     mk([9, 9, 9, 9], [2, 2, 2, 2]),
/// ];
/// let result = execute(&plan, records.iter());
/// assert_eq!(result.len(), 1); // only 1.1.1.1 reaches 2 distinct dsts
/// assert_eq!(result.rows()[0].value, 2);
/// # Ok::<(), hashflow_query::hashflow_types::ConfigError>(())
/// ```
pub fn execute<'a, I>(plan: &QueryPlan, records: I) -> QueryResult
where
    I: IntoIterator<Item = &'a FlowRecord>,
{
    let filters: Vec<Predicate> = plan.filters().copied().collect();
    let (group_by, distinct, aggregate) = (plan.group(), plan.distinct(), plan.aggregate());
    let mut groups = HashMap::new();
    let mut seen = HashSet::new();
    for rec in records {
        let (key, count) = (rec.key(), u64::from(rec.count()));
        if !filters.iter().all(|p| p.test(&key, count)) {
            continue;
        }
        let group = group_by.project(&key);
        match (distinct, aggregate) {
            // Distinct items all carry value 1: sum == count == number of
            // deduplicated pairs, max == 1 for any non-empty group.
            (Some(sub), aggregate) => {
                if seen.insert((group, sub.project(&key))) {
                    let slot = groups.entry(group).or_insert(0);
                    *slot = if aggregate == Aggregate::Max {
                        1
                    } else {
                        *slot + 1
                    };
                }
            }
            (None, Aggregate::Sum) => *groups.entry(group).or_insert(0) += count,
            // One item per distinct flow key, however often it is
            // reported (approximate reports can duplicate keys).
            (None, Aggregate::Count) => {
                if seen.insert((group, key)) {
                    *groups.entry(group).or_insert(0) += 1;
                }
            }
            (None, Aggregate::Max) => {
                let slot = groups.entry(group).or_insert(0);
                *slot = (*slot).max(count);
            }
        }
    }
    QueryResult::from_groups(plan, groups)
}

/// Evaluates `plan` over a sealed epoch — the post-hoc path of the
/// collector pipeline (`seal()` once, ask any number of questions).
pub fn execute_snapshot(plan: &QueryPlan, snapshot: &EpochSnapshot) -> QueryResult {
    execute(plan, snapshot.as_records())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(src: u8, dst: u8, dport: u16, proto: u8) -> FlowKey {
        FlowKey::new(
            [10, 0, 0, src].into(),
            [10, 9, 9, dst].into(),
            1,
            dport,
            proto,
        )
    }

    /// Runs the plan through both entry points — [`execute`] over the
    /// records and [`execute_snapshot`] over an epoch sealed from them —
    /// and checks they agree.
    fn run(plan_text: &str, flows: &[(FlowKey, u32)]) -> QueryResult {
        let plan: QueryPlan = plan_text.parse().unwrap();
        let records: Vec<FlowRecord> = flows.iter().map(|(k, c)| FlowRecord::new(*k, *c)).collect();
        let over_records = execute(&plan, records.iter());
        let sealed = EpochSnapshot::from_parts(0, None, None, records, 0.0, Default::default());
        assert_eq!(execute_snapshot(&plan, &sealed), over_records, "{plan}");
        over_records
    }

    /// The answer as `(group key, value)` pairs, in report order.
    fn values(result: &QueryResult) -> Vec<(FlowKey, u64)> {
        result.rows().iter().map(|r| (r.key, r.value)).collect()
    }

    #[test]
    fn superspreader_shape_agrees_across_executors() {
        // src 1 contacts 3 dsts, src 2 contacts 1.
        let flows = [
            (key(1, 1, 80, 6), 5),
            (key(1, 2, 80, 6), 1),
            (key(1, 3, 80, 6), 2),
            (key(2, 1, 80, 6), 9),
        ];
        let result = run(
            "map src | distinct dst | reduce count | threshold 3",
            &flows,
        );
        assert_eq!(result.len(), 1);
        assert_eq!(result.rows()[0].value, 3);
        assert_eq!(
            result.rows()[0].key,
            Projection::Src.project(&key(1, 0, 0, 0))
        );
    }

    #[test]
    fn sum_count_max_agree_across_executors() {
        let flows = [
            (key(1, 1, 80, 6), 5),
            (key(1, 2, 443, 6), 3),
            (key(2, 1, 53, 17), 7),
        ];
        let src = |s| Projection::Src.project(&key(s, 0, 0, 0));
        let dst = |d| Projection::Dst.project(&key(0, d, 0, 0));
        for (plan, want) in [
            ("map src | reduce sum", vec![(src(1), 8), (src(2), 7)]),
            ("map src | reduce count", vec![(src(1), 2), (src(2), 1)]),
            ("map src | reduce max", vec![(src(2), 7), (src(1), 5)]),
            ("map dst | reduce max | threshold 4", vec![(dst(1), 7)]),
            (
                "map src | distinct dst | reduce max",
                vec![(src(1), 1), (src(2), 1)],
            ),
            ("filter proto=6 | map src | reduce sum", vec![(src(1), 8)]),
        ] {
            assert_eq!(values(&run(plan, &flows)), want, "{plan}");
        }
        let total = run("reduce sum", &flows);
        assert_eq!(total.rows().iter().map(|r| r.value).sum::<u64>(), 15);
    }

    #[test]
    fn count_filter_defers_but_agrees() {
        let flows = [
            (key(1, 1, 80, 6), 5),
            (key(1, 2, 80, 6), 1),
            (key(2, 1, 80, 6), 2),
        ];
        let result = run("filter count>=2 | map src | reduce count", &flows);
        // src 1 has one flow >= 2 packets, src 2 has one.
        assert_eq!(result.len(), 2);
        assert!(result.rows().iter().all(|r| r.value == 1));
    }

    #[test]
    fn key_filters_drop_before_state() {
        // A filtered flow never opens a group: no zero-valued row appears
        // even without a threshold.
        let flows = [(key(1, 1, 80, 17), 4), (key(2, 1, 80, 6), 1)];
        for plan in [
            "filter proto=6 | map src | reduce max",
            "filter proto=6 | map src | distinct dst | reduce count",
        ] {
            let result = run(plan, &flows);
            assert_eq!(result.len(), 1, "{plan}");
            assert_eq!(
                result.rows()[0].key,
                Projection::Src.project(&key(2, 0, 0, 0))
            );
        }
    }

    #[test]
    fn duplicate_report_keys_count_once() {
        // Approximate reports can carry the same key twice; `reduce
        // count` must not double-count the flow.
        let plan: QueryPlan = "map src | reduce count".parse().unwrap();
        let k = key(1, 1, 80, 6);
        let records = [FlowRecord::new(k, 3), FlowRecord::new(k, 9)];
        let result = execute(&plan, records.iter());
        assert_eq!(result.rows()[0].value, 1);
    }

    #[test]
    fn result_accessors() {
        let flows = [(key(1, 1, 80, 6), 5), (key(2, 1, 80, 6), 2)];
        let result = run("map src | reduce sum", &flows);
        assert_eq!(result.group(), Projection::Src);
        assert_eq!(result.len(), 2);
        assert!(!result.is_empty());
        assert_eq!(result.get(&key(9, 9, 9, 9)), None);
        // Sorted by value descending.
        assert!(result.rows()[0].value >= result.rows()[1].value);
    }

    #[test]
    fn empty_input_empty_answer() {
        let plan: QueryPlan = "map src | reduce sum".parse().unwrap();
        assert!(execute(&plan, &Vec::<FlowRecord>::new()).is_empty());
    }
}
