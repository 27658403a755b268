//! The reader-facing published state: sealed epochs behind an `Arc`
//! swap.
//!
//! The daemon's single writer (the ingest loop) owns the live
//! [`hashflow_collector::Collector`]; HTTP workers never touch it.
//! Instead, each seal rebuilds an immutable [`SealedView`] and publishes
//! it through [`Published`] — one `Arc` pointer swap under a mutex held
//! for nanoseconds. Readers [`Published::load`] a pointer clone and then
//! query frozen snapshots with no locks at all, so a burst of concurrent
//! HTTP clients cannot stall ingest: the writer's critical section is
//! O(1) and independent of reader count, and readers holding an old view
//! keep it alive (and consistent) for as long as they need it.
//!
//! Memory stays bounded because the collector retains at most the
//! configured retention of epochs and their answers — evicted epochs die
//! when the last reader drops its `Arc`.

use hashflow_monitor::{EpochSnapshot, SinkStatus};
use hashflow_query::{QueryId, QueryResult};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One attached query plan, as the API reports it.
#[derive(Debug, Clone)]
pub struct QueryInfo {
    /// Id addressing the plan ([`hashflow_query::QueryId`]).
    pub id: QueryId,
    /// The plan's canonical text form.
    pub plan: String,
}

/// The banked per-plan answers of one sealed epoch.
#[derive(Debug, Clone)]
pub struct EpochAnswers {
    /// Epoch sequence number the answers belong to.
    pub epoch: u64,
    /// One result per attached plan, in attach order.
    pub answers: Arc<[QueryResult]>,
}

/// Pipeline health as of the last publish.
#[derive(Debug, Clone, Default)]
pub struct HealthView {
    /// Per-sink health in attach order.
    pub sinks: Vec<SinkStatus>,
    /// Active monitor-side degradation (e.g. dead shard lanes), one
    /// line each ([`hashflow_monitor::FlowMonitor::faults`]).
    pub faults: Vec<String>,
    /// Whether the daemon has finished (final epoch sealed, sinks
    /// flushed).
    pub finished: bool,
}

impl HealthView {
    /// Whether anything is degraded enough that `/healthz` should turn
    /// the daemon unhealthy: a quarantined sink (epochs are being
    /// skipped) or a monitor fault (the current epoch is losing data).
    pub fn is_unhealthy(&self) -> bool {
        !self.faults.is_empty()
            || self
                .sinks
                .iter()
                .any(|s| s.health == hashflow_monitor::SinkHealth::Quarantined)
    }

    /// Whether any sink is degraded (still delivering, recently
    /// failing).
    pub fn is_degraded(&self) -> bool {
        self.sinks
            .iter()
            .any(|s| s.health != hashflow_monitor::SinkHealth::Healthy)
    }
}

/// One immutable generation of everything the query API serves.
#[derive(Debug, Default)]
pub struct SealedView {
    /// Retained sealed epochs, oldest first. Epoch numbers are stable —
    /// an evicted epoch's number is never reused, so `/epochs/{n}`
    /// returning 404 means *evicted or not yet sealed*, never renamed.
    pub epochs: Vec<Arc<EpochSnapshot>>,
    /// Attached query plans in attach order.
    pub queries: Vec<QueryInfo>,
    /// Banked per-epoch answers for the retained window, oldest first.
    pub answers: Vec<EpochAnswers>,
    /// Sink and monitor health at publish time.
    pub health: HealthView,
    /// Epochs sealed over the daemon's lifetime (≥ `epochs.len()`).
    pub sealed_total: u64,
}

impl SealedView {
    /// Finds a retained epoch by sequence number.
    pub fn epoch(&self, n: u64) -> Option<&Arc<EpochSnapshot>> {
        // The ring is ordered and tiny (retention-bounded); a linear
        // scan beats maintaining an index.
        self.epochs.iter().find(|s| s.epoch() == n)
    }
}

/// The swap cell the writer publishes [`SealedView`]s through.
///
/// `load` and `store` both hold the mutex only to clone or replace one
/// `Arc` — no reader ever blocks the writer for longer than a pointer
/// copy, and readers never block each other on the data itself. Each
/// `store` also wakes every [`Published::wait_for`] caller.
#[derive(Debug)]
pub struct Published {
    current: Mutex<Arc<SealedView>>,
    stored: Condvar,
}

impl Default for Published {
    fn default() -> Self {
        Published::new()
    }
}

impl Published {
    /// Starts with an empty view (no epochs, healthy, not finished).
    pub fn new() -> Self {
        Published {
            current: Mutex::new(Arc::new(SealedView::default())),
            stored: Condvar::new(),
        }
    }

    /// The current view. The returned `Arc` stays valid (and immutable)
    /// however long the caller holds it.
    pub fn load(&self) -> Arc<SealedView> {
        self.current
            .lock()
            .expect("published view poisoned")
            .clone()
    }

    /// Replaces the current view and wakes the waiters.
    pub fn store(&self, view: Arc<SealedView>) {
        *self.current.lock().expect("published view poisoned") = view;
        self.stored.notify_all();
    }

    /// Blocks until the current view satisfies `ready` or `timeout`
    /// elapses, re-checking at each [`Published::store`]. Returns whether
    /// `ready` held.
    pub fn wait_for(&self, timeout: Duration, ready: impl Fn(&SealedView) -> bool) -> bool {
        let current = self.current.lock().expect("published view poisoned");
        let (current, _) = self
            .stored
            .wait_timeout_while(current, timeout, |view| !ready(view))
            .expect("published view poisoned");
        ready(&current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_is_visible_and_old_views_survive() {
        let p = Published::new();
        let before = p.load();
        assert_eq!(before.sealed_total, 0);
        let snap = Arc::new(EpochSnapshot::from_parts(
            7,
            Some(0),
            Some(10),
            Vec::new(),
            0.0,
            Default::default(),
        ));
        p.store(Arc::new(SealedView {
            epochs: vec![snap],
            sealed_total: 8,
            ..Default::default()
        }));
        let after = p.load();
        assert_eq!(after.sealed_total, 8);
        assert!(after.epoch(7).is_some());
        assert!(after.epoch(6).is_none());
        // The pre-swap reader still sees its own consistent generation.
        assert_eq!(before.sealed_total, 0);
    }

    #[test]
    fn a_store_wakes_a_waiter_before_its_timeout() {
        let p = Arc::new(Published::new());
        let writer = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                p.store(Arc::new(SealedView {
                    sealed_total: 1,
                    ..Default::default()
                }));
            })
        };
        let started = std::time::Instant::now();
        assert!(p.wait_for(Duration::from_secs(10), |view| view.sealed_total >= 1));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "woken by the store, not the timeout: {:?}",
            started.elapsed()
        );
        writer.join().unwrap();
        // An unmet condition gives up at its deadline.
        assert!(!p.wait_for(Duration::from_millis(10), |view| view.sealed_total >= 2));
    }

    #[test]
    fn health_rollup_rules() {
        let mut h = HealthView::default();
        assert!(!h.is_unhealthy());
        assert!(!h.is_degraded());
        h.faults.push("shard 0: worker panicked".into());
        assert!(h.is_unhealthy());
    }
}
