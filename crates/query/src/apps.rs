//! The built-in application library: the paper's four fixed reports
//! (§IV) generalized into plan-shaped detections, plus the cross-epoch
//! state some of them need.
//!
//! Each [`TelemetryApp`] owns one per-epoch [`QueryPlan`] and a fold over
//! the sequence of epoch answers. Attach the plan to a `Collector`
//! (`hashflow-collector`) to have it answered at every seal, or run
//! [`crate::execute_snapshot`] over sealed epochs yourself —
//! the same executor either way — and feed every epoch's
//! [`QueryResult`] to [`TelemetryApp::observe`] in order.
//!
//! | Application | Plan | Cross-epoch state |
//! |---|---|---|
//! | Superspreader | `map src \| distinct dst \| reduce count \| threshold F` | none |
//! | DDoS victim | `map dst \| distinct src \| reduce count \| threshold S` | none |
//! | Port scan | `map src \| distinct dstport \| reduce count \| threshold P` | none |
//! | Heavy changer | `map flow \| reduce sum` | previous epoch's counts |
//! | Size entropy | `map flow \| reduce sum` | none (scalar per epoch) |

use crate::exec::{QueryResult, QueryRow};
use crate::plan::{Aggregate, Projection, QueryPlan};
use std::collections::HashMap;
use std::fmt;

/// The five built-in applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    /// Sources contacting at least `threshold` distinct destinations.
    Superspreader,
    /// Destinations contacted by at least `threshold` distinct sources.
    DdosVictim,
    /// Sources probing at least `threshold` distinct destination ports.
    PortScan,
    /// Flows whose packet count changed by at least `threshold` between
    /// consecutive sealed epochs.
    HeavyChanger,
    /// Shannon entropy (bits) of the epoch's flow-size distribution.
    Entropy,
}

impl AppKind {
    /// Every built-in application.
    pub const ALL: [AppKind; 5] = [
        AppKind::Superspreader,
        AppKind::DdosVictim,
        AppKind::PortScan,
        AppKind::HeavyChanger,
        AppKind::Entropy,
    ];

    /// Canonical lower-case name.
    pub const fn name(&self) -> &'static str {
        match self {
            AppKind::Superspreader => "superspreader",
            AppKind::DdosVictim => "ddos-victim",
            AppKind::PortScan => "port-scan",
            AppKind::HeavyChanger => "heavy-changer",
            AppKind::Entropy => "entropy",
        }
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One epoch's verdict from a [`TelemetryApp`].
#[derive(Debug, Clone, PartialEq)]
pub struct AppVerdict {
    /// Which application produced the verdict.
    pub kind: AppKind,
    /// Zero-based index of the epoch observed (observation order).
    pub epoch: u64,
    /// Offending groups (sources, victims, changed flows), largest value
    /// first, ties by key — empty for [`AppKind::Entropy`] and for the
    /// heavy changer's first epoch (no predecessor to diff against).
    pub offenders: Vec<QueryRow>,
    /// Scalar result ([`AppKind::Entropy`] only): entropy in bits.
    pub scalar: Option<f64>,
}

/// A built-in application instance: a plan plus the cross-epoch fold.
///
/// # Examples
///
/// ```
/// use hashflow_query::{execute, TelemetryApp};
/// use hashflow_types::{FlowKey, FlowRecord};
///
/// let mut app = TelemetryApp::superspreader(3);
/// let records: Vec<FlowRecord> = (0..4)
///     .map(|d| FlowRecord::new(FlowKey::new([1, 1, 1, 1].into(), d.into(), 9, 80, 6), 1))
///     .collect();
/// let verdict = app.observe(&execute(app.plan(), &records));
/// assert_eq!(verdict.offenders.len(), 1); // 1.1.1.1 fanned out to 4 dsts
/// ```
#[derive(Debug, Clone)]
pub struct TelemetryApp {
    kind: AppKind,
    threshold: u64,
    plan: QueryPlan,
    /// Heavy changer only: the previous epoch's per-flow counts.
    previous: Option<HashMap<hashflow_types::FlowKey, u64>>,
    epochs_observed: u64,
}

impl TelemetryApp {
    fn new(kind: AppKind, threshold: u64, plan: QueryPlan) -> Self {
        TelemetryApp {
            kind,
            threshold,
            plan,
            previous: None,
            epochs_observed: 0,
        }
    }

    /// Superspreader detection: sources contacting at least `fanout`
    /// distinct destinations in an epoch.
    pub fn superspreader(fanout: u64) -> Self {
        let plan = QueryPlan::builder()
            .map(Projection::Src)
            .distinct(Projection::Dst)
            .reduce(Aggregate::Count)
            .threshold(fanout)
            .build()
            .expect("static plan is well-formed");
        Self::new(AppKind::Superspreader, fanout, plan)
    }

    /// DDoS victim detection: destinations contacted by at least
    /// `sources` distinct sources in an epoch.
    pub fn ddos_victim(sources: u64) -> Self {
        let plan = QueryPlan::builder()
            .map(Projection::Dst)
            .distinct(Projection::Src)
            .reduce(Aggregate::Count)
            .threshold(sources)
            .build()
            .expect("static plan is well-formed");
        Self::new(AppKind::DdosVictim, sources, plan)
    }

    /// Port-scan detection: sources probing at least `ports` distinct
    /// destination ports in an epoch.
    pub fn port_scan(ports: u64) -> Self {
        let plan = QueryPlan::builder()
            .map(Projection::Src)
            .distinct(Projection::DstPort)
            .reduce(Aggregate::Count)
            .threshold(ports)
            .build()
            .expect("static plan is well-formed");
        Self::new(AppKind::PortScan, ports, plan)
    }

    /// Heavy-changer detection: flows whose packet count moved by at
    /// least `delta` between consecutive sealed epochs (appearing and
    /// disappearing both count as change, from/to zero).
    pub fn heavy_changer(delta: u64) -> Self {
        let plan = QueryPlan::builder()
            .map(Projection::Flow)
            .reduce(Aggregate::Sum)
            .build()
            .expect("static plan is well-formed");
        TelemetryApp {
            previous: Some(HashMap::new()),
            ..Self::new(AppKind::HeavyChanger, delta, plan)
        }
    }

    /// Flow-size entropy: the Shannon entropy (bits) of the epoch's
    /// packet distribution over flows — the standard traffic-anomaly
    /// summary (sudden concentration or dispersion moves it sharply).
    pub fn entropy() -> Self {
        let plan = QueryPlan::builder()
            .map(Projection::Flow)
            .reduce(Aggregate::Sum)
            .build()
            .expect("static plan is well-formed");
        Self::new(AppKind::Entropy, 0, plan)
    }

    /// The full library at the given detection thresholds, in
    /// [`AppKind::ALL`] order.
    pub fn standard_suite(fanout: u64, sources: u64, ports: u64, delta: u64) -> Vec<TelemetryApp> {
        vec![
            Self::superspreader(fanout),
            Self::ddos_victim(sources),
            Self::port_scan(ports),
            Self::heavy_changer(delta),
            Self::entropy(),
        ]
    }

    /// Which application this is.
    pub const fn kind(&self) -> AppKind {
        self.kind
    }

    /// The detection threshold (0 for entropy).
    pub const fn threshold(&self) -> u64 {
        self.threshold
    }

    /// The per-epoch plan to execute over each sealed epoch.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Folds one epoch's plan answer into the application, producing the
    /// epoch's verdict. Epoch answers must arrive in epoch order.
    pub fn observe(&mut self, result: &QueryResult) -> AppVerdict {
        let epoch = self.epochs_observed;
        self.epochs_observed += 1;
        let mut verdict = AppVerdict {
            kind: self.kind,
            epoch,
            offenders: Vec::new(),
            scalar: None,
        };
        match self.kind {
            // The plan already thresholded; its rows are the offenders.
            AppKind::Superspreader | AppKind::DdosVictim | AppKind::PortScan => {
                verdict.offenders = result.rows().to_vec();
            }
            AppKind::HeavyChanger => {
                let previous = self
                    .previous
                    .as_mut()
                    .expect("heavy changer always keeps previous-epoch state");
                let current: HashMap<_, _> =
                    result.rows().iter().map(|r| (r.key, r.value)).collect();
                if epoch > 0 {
                    let mut offenders: Vec<QueryRow> = current
                        .iter()
                        .map(|(k, v)| (*k, *v, previous.get(k).copied().unwrap_or(0)))
                        .chain(previous.iter().filter_map(|(k, v)| {
                            // Flows that vanished this epoch.
                            (!current.contains_key(k)).then_some((*k, 0, *v))
                        }))
                        .filter_map(|(key, now, before)| {
                            let change = now.abs_diff(before);
                            (change >= self.threshold).then_some(QueryRow { key, value: change })
                        })
                        .collect();
                    offenders
                        .sort_unstable_by(|a, b| b.value.cmp(&a.value).then(a.key.cmp(&b.key)));
                    verdict.offenders = offenders;
                }
                *previous = current;
            }
            AppKind::Entropy => {
                verdict.scalar = Some(shannon_entropy_bits(result));
            }
        }
        verdict
    }

    /// Forgets all cross-epoch state (a fresh collection run).
    pub fn reset(&mut self) {
        if let Some(previous) = &mut self.previous {
            previous.clear();
        }
        self.epochs_observed = 0;
    }
}

/// Shannon entropy (bits) of the value distribution of a plan answer:
/// `H = -Σ (vᵢ/N) log2 (vᵢ/N)`. Empty answers (and all-zero ones) have
/// zero entropy by convention.
pub fn shannon_entropy_bits(result: &QueryResult) -> f64 {
    let total: u64 = result.rows().iter().map(|r| r.value).sum();
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    result
        .rows()
        .iter()
        .filter(|r| r.value > 0)
        .map(|r| {
            let p = r.value as f64 / n;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::execute;
    use hashflow_types::{FlowKey, FlowRecord};

    fn rec(src: u8, dst: u8, dport: u16, count: u32) -> FlowRecord {
        FlowRecord::new(
            FlowKey::new([10, 0, 0, src].into(), [10, 9, 9, dst].into(), 5, dport, 6),
            count,
        )
    }

    fn run(app: &mut TelemetryApp, records: &[FlowRecord]) -> AppVerdict {
        app.observe(&execute(app.plan(), records))
    }

    #[test]
    fn superspreader_flags_fanout_sources() {
        let mut app = TelemetryApp::superspreader(3);
        let records = [
            rec(1, 1, 80, 9),
            rec(1, 2, 80, 1),
            rec(1, 3, 80, 1),
            rec(2, 1, 80, 50),
        ];
        let verdict = run(&mut app, &records);
        assert_eq!(verdict.kind, AppKind::Superspreader);
        assert_eq!(verdict.offenders.len(), 1);
        assert_eq!(verdict.offenders[0].value, 3);
        assert_eq!(verdict.scalar, None);
    }

    #[test]
    fn ddos_victim_counts_distinct_sources() {
        let mut app = TelemetryApp::ddos_victim(2);
        let records = [rec(1, 7, 80, 1), rec(2, 7, 443, 1), rec(3, 8, 80, 1)];
        let verdict = run(&mut app, &records);
        assert_eq!(verdict.offenders.len(), 1);
        assert_eq!(
            verdict.offenders[0].key,
            Projection::Dst.project(&rec(1, 7, 80, 1).key())
        );
    }

    #[test]
    fn port_scan_counts_distinct_ports() {
        let mut app = TelemetryApp::port_scan(3);
        // One dst, many ports, single packets each: a vertical scan.
        let records: Vec<FlowRecord> = (1..=5).map(|p| rec(4, 1, p, 1)).collect();
        let verdict = run(&mut app, &records);
        assert_eq!(verdict.offenders.len(), 1);
        assert_eq!(verdict.offenders[0].value, 5);
    }

    #[test]
    fn heavy_changer_diffs_consecutive_epochs() {
        let mut app = TelemetryApp::heavy_changer(10);
        // Epoch 0: baseline; no predecessor, so no offenders.
        let v0 = run(&mut app, &[rec(1, 1, 80, 100), rec(2, 2, 80, 5)]);
        assert!(v0.offenders.is_empty());
        // Epoch 1: flow 1 grows by 50, flow 2 vanishes (|Δ| = 5 < 10),
        // flow 3 appears with 12.
        let v1 = run(&mut app, &[rec(1, 1, 80, 150), rec(3, 3, 80, 12)]);
        let deltas: Vec<u64> = v1.offenders.iter().map(|o| o.value).collect();
        assert_eq!(deltas, vec![50, 12]);
        // Epoch 2: flow 1 drops back: change 50 again; flow 3 vanishes.
        let v2 = run(&mut app, &[rec(1, 1, 80, 100)]);
        assert_eq!(v2.offenders.len(), 2);
        assert_eq!(v2.epoch, 2);
    }

    #[test]
    fn entropy_matches_closed_forms() {
        let mut app = TelemetryApp::entropy();
        // Uniform over 4 flows: H = 2 bits.
        let uniform: Vec<FlowRecord> = (1..=4).map(|i| rec(i, i, 80, 8)).collect();
        let v = run(&mut app, &uniform);
        assert!((v.scalar.unwrap() - 2.0).abs() < 1e-12);
        // One flow: H = 0.
        let v = run(&mut app, &[rec(1, 1, 80, 64)]);
        assert_eq!(v.scalar, Some(0.0));
        // Empty epoch: 0 by convention.
        let v = run(&mut app, &[]);
        assert_eq!(v.scalar, Some(0.0));
    }

    #[test]
    fn reset_forgets_cross_epoch_state() {
        let mut app = TelemetryApp::heavy_changer(1);
        run(&mut app, &[rec(1, 1, 80, 5)]);
        app.reset();
        let v = run(&mut app, &[rec(1, 1, 80, 50)]);
        assert_eq!(v.epoch, 0);
        assert!(v.offenders.is_empty(), "epoch 0 never flags");
    }

    #[test]
    fn standard_suite_covers_all_kinds() {
        let suite = TelemetryApp::standard_suite(40, 40, 30, 100);
        let kinds: Vec<AppKind> = suite.iter().map(TelemetryApp::kind).collect();
        assert_eq!(kinds, AppKind::ALL);
        for app in &suite {
            // Every app's plan parses back from its own text form.
            let text = app.plan().to_string();
            assert_eq!(&text.parse::<QueryPlan>().unwrap(), app.plan(), "{text}");
        }
    }
}
