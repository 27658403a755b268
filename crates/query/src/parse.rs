//! The compact text form of query plans.
//!
//! Grammar (stages separated by `|`, conditions within a `filter` stage
//! separated by whitespace and ANDed):
//!
//! ```text
//! plan      := stage ("|" stage)*
//! stage     := "filter" cond+ | "map" proj | "distinct" proj
//!            | "reduce" agg | "threshold" N
//! cond      := field op value | "count" op N
//! field     := "src" | "dst" | "srcport" | "dstport" | "proto"
//! op        := "=" | "!=" | "<=" | ">=" | "<" | ">"
//! proj      := "flow" | "src" | "dst" | "srcdst" | "srcport"
//!            | "dstport" | "proto"
//! agg       := "sum" | "count" | "max"
//! ```
//!
//! `src`/`dst` values are dotted-quad addresses; everything else is a
//! plain number. Example:
//! `filter proto=6 | map dst | distinct src | reduce count | threshold 40`.

use crate::plan::{Aggregate, CmpOp, Field, PlanOp, Predicate, Projection, QueryPlan};
use hashflow_types::{ConfigError, Ipv4Addr};

fn parse_projection(token: &str) -> Result<Projection, ConfigError> {
    Projection::ALL
        .into_iter()
        .find(|p| p.token() == token)
        .ok_or_else(|| {
            ConfigError::new(format!(
                "unknown projection '{token}'; valid projections: flow, src, dst, \
                 srcdst, srcport, dstport, proto"
            ))
        })
}

fn parse_aggregate(token: &str) -> Result<Aggregate, ConfigError> {
    match token {
        "sum" => Ok(Aggregate::Sum),
        "count" => Ok(Aggregate::Count),
        "max" => Ok(Aggregate::Max),
        other => Err(ConfigError::new(format!(
            "unknown aggregate '{other}'; valid aggregates: sum, count, max"
        ))),
    }
}

/// Splits `cond` at its comparison operator. Two-character operators are
/// matched first so `<=` does not parse as `<` with a dangling `=`.
fn split_condition(cond: &str) -> Result<(&str, CmpOp, &str), ConfigError> {
    const OPS: [(&str, CmpOp); 6] = [
        ("!=", CmpOp::Ne),
        ("<=", CmpOp::Le),
        (">=", CmpOp::Ge),
        ("<", CmpOp::Lt),
        (">", CmpOp::Gt),
        ("=", CmpOp::Eq),
    ];
    for (token, op) in OPS {
        if let Some(idx) = cond.find(token) {
            return Ok((&cond[..idx], op, &cond[idx + token.len()..]));
        }
    }
    Err(ConfigError::new(format!(
        "filter condition '{cond}' has no comparison operator (=, !=, <, <=, >, >=)"
    )))
}

fn parse_condition(cond: &str) -> Result<Predicate, ConfigError> {
    let (lhs, op, rhs) = split_condition(cond)?;
    let number = |what: &str| -> Result<u64, ConfigError> {
        rhs.parse()
            .map_err(|_| ConfigError::new(format!("bad {what} '{rhs}' in condition '{cond}'")))
    };
    match lhs {
        "count" => Ok(Predicate::count(op, number("count")?)),
        "src" | "dst" => {
            let addr: Ipv4Addr = rhs.parse().map_err(|_| {
                ConfigError::new(format!("bad address '{rhs}' in condition '{cond}'"))
            })?;
            let field = if lhs == "src" {
                Field::SrcIp
            } else {
                Field::DstIp
            };
            Ok(Predicate::key(field, op, u64::from(addr.to_bits())))
        }
        "srcport" => Ok(Predicate::key(Field::SrcPort, op, number("port")?)),
        "dstport" => Ok(Predicate::key(Field::DstPort, op, number("port")?)),
        "proto" => Ok(Predicate::key(Field::Protocol, op, number("protocol")?)),
        other => Err(ConfigError::new(format!(
            "unknown filter field '{other}'; valid fields: src, dst, srcport, dstport, \
             proto, count"
        ))),
    }
}

pub(crate) fn parse_plan(text: &str) -> Result<QueryPlan, ConfigError> {
    let mut ops = Vec::new();
    for stage in text.split('|') {
        let stage = stage.trim();
        let mut words = stage.split_whitespace();
        let head = words
            .next()
            .ok_or_else(|| ConfigError::new("empty stage in query plan (stray '|'?)"))?;
        let mut args = words.peekable();
        let one_arg = |args: &mut dyn Iterator<Item = &str>| -> Result<String, ConfigError> {
            let arg = args
                .next()
                .ok_or_else(|| ConfigError::new(format!("stage '{stage}' needs an argument")))?
                .to_owned();
            if args.next().is_some() {
                return Err(ConfigError::new(format!(
                    "stage '{stage}' takes exactly one argument"
                )));
            }
            Ok(arg)
        };
        match head {
            "filter" => {
                if args.peek().is_none() {
                    return Err(ConfigError::new("'filter' needs at least one condition"));
                }
                for cond in args {
                    ops.push(PlanOp::Filter(parse_condition(cond)?));
                }
            }
            "map" => ops.push(PlanOp::MapKey(parse_projection(&one_arg(&mut args)?)?)),
            "distinct" => ops.push(PlanOp::Distinct(parse_projection(&one_arg(&mut args)?)?)),
            "reduce" => ops.push(PlanOp::Reduce(parse_aggregate(&one_arg(&mut args)?)?)),
            "threshold" => {
                let arg = one_arg(&mut args)?;
                let bound = arg.parse().map_err(|_| {
                    ConfigError::new(format!("bad threshold '{arg}' (expected a number)"))
                })?;
                ops.push(PlanOp::Threshold(bound));
            }
            other => {
                return Err(ConfigError::new(format!(
                    "unknown plan stage '{other}'; valid stages: filter, map, distinct, \
                     reduce, threshold"
                )))
            }
        }
    }
    QueryPlan::new(ops)
}

impl std::str::FromStr for QueryPlan {
    type Err = ConfigError;

    /// Parses the compact text form, e.g.
    /// `filter proto=6 | map dst | distinct src | reduce count | threshold 40`
    /// (grammar in this module's source).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] naming the malformed stage or condition,
    /// or propagating normal-form validation.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_plan(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parses(text: &str) -> QueryPlan {
        text.parse().unwrap_or_else(|e| panic!("{text}: {e}"))
    }

    #[test]
    fn issue_example_parses() {
        let plan = parses("filter proto=6 | map dst | distinct src | reduce count | threshold 40");
        assert_eq!(plan.group(), Projection::Dst);
        assert_eq!(plan.distinct(), Some(Projection::Src));
        assert_eq!(plan.aggregate(), Aggregate::Count);
        assert_eq!(plan.threshold(), Some(40));
    }

    #[test]
    fn display_round_trips() {
        for text in [
            "filter proto=6 | map dst | distinct src | reduce count | threshold 40",
            "map src | distinct dstport | reduce count | threshold 10",
            "filter src=10.0.0.1 dstport>=1024 | map srcdst | reduce sum",
            "filter count>3 | reduce count",
            "map flow | reduce max",
            "reduce sum",
        ] {
            let plan = parses(text);
            let round: QueryPlan = plan.to_string().parse().unwrap();
            assert_eq!(round, plan, "{text} -> {plan}");
        }
    }

    #[test]
    fn address_and_multi_condition_filters() {
        let plan = parses("filter src=192.168.0.1 proto!=17 count<=9 | reduce sum");
        let preds: Vec<_> = plan.filters().copied().collect();
        assert_eq!(preds.len(), 3);
        assert_eq!(
            preds[0],
            Predicate::key(Field::SrcIp, CmpOp::Eq, 0xc0a8_0001)
        );
        assert_eq!(preds[1], Predicate::key(Field::Protocol, CmpOp::Ne, 17));
        assert_eq!(preds[2], Predicate::count(CmpOp::Le, 9));
    }

    #[test]
    fn malformed_plans_error_with_context() {
        for (text, needle) in [
            ("", "empty stage"),
            ("map dst", "reduce"),
            ("reduce count | map dst", "out of order"),
            ("frobnicate | reduce sum", "unknown plan stage"),
            ("map inner | reduce sum", "unknown projection"),
            ("reduce median", "unknown aggregate"),
            ("filter | reduce sum", "at least one condition"),
            ("filter proto~6 | reduce sum", "no comparison operator"),
            ("filter warmth=9 | reduce sum", "unknown filter field"),
            ("filter src=10.0.0 | reduce sum", "bad address"),
            ("filter proto=tcp | reduce sum", "bad protocol"),
            ("threshold soon | reduce sum", "bad threshold"),
            ("map src dst | reduce sum", "exactly one argument"),
            ("map | reduce sum", "needs an argument"),
            ("reduce sum | | threshold 1", "empty stage"),
        ] {
            let err = text.parse::<QueryPlan>().unwrap_err().to_string();
            assert!(err.contains(needle), "{text:?}: {err}");
        }
    }
}
