//! Deterministic fault injection for chaos-testing the pipeline.
//!
//! Robustness claims ("quarantined sinks recover", "a worker panic never
//! poisons the collector", "accounting is conserved under overload") are
//! only worth something if they are *exercised*. This module provides the
//! injectors: [`FaultInjectingSink`] perturbs the export path with seeded
//! failure/latency/stall schedules, and [`PanicInjector`] blows up a
//! monitor mid-ingest to exercise shard-worker isolation. Both are fully
//! deterministic for a given seed, so a chaos run that finds a bug
//! replays exactly.
//!
//! The injectors are test harness, not runtime: they live here, beside
//! the integration suites that drive them (`fault_injection`,
//! `flight_recorder`, `sharded_equivalence`), and use only the public
//! API of `hashflow-monitor`.

use hashflow_monitor::{
    CostSnapshot, EpochSnapshot, FlowMonitor, Instruments, IntrospectMetric, RecordSink,
};
use hashflow_types::{FlowKey, FlowRecord, Packet};
use std::io;
use std::ops::Range;
use std::time::Duration;

/// splitmix64 over a seed/index pair: the per-export fault draw.
fn draw(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Converts 53 bits of `v` into a uniform draw in `[0, 1)`.
fn unit(v: u64) -> f64 {
    (v >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded schedule of export-path faults, evaluated per export index.
///
/// Fault precedence for export `i` (0-based, counted per sink):
///
/// 1. `i` inside [`outage`](Self::outage) → `ConnectionReset` (transient,
///    models a collector restart — contiguous, so quarantine + probe
///    recovery is exercised end to end);
/// 2. fatal draw → `InvalidData` (fatal: quarantines the sink at once);
/// 3. failure draw → `TimedOut` (transient);
/// 4. stall draw → sleep [`stall`](Self::stall), then deliver (models a
///    slow downstream, exercising sustained-ingest-under-latency).
///
/// All draws are deterministic in `(seed, i)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the deterministic draw stream.
    pub seed: u64,
    /// Probability an export fails with a transient `TimedOut`.
    pub fail_probability: f64,
    /// Probability an export fails with a fatal `InvalidData`.
    pub fatal_probability: f64,
    /// Probability an export stalls for [`stall`](Self::stall) before
    /// succeeding.
    pub stall_probability: f64,
    /// Injected latency of a stalled export.
    pub stall: Duration,
    /// Export indices during which every export fails with
    /// `ConnectionReset` (a hard outage window).
    pub outage: Option<Range<u64>>,
}

impl Default for FaultPlan {
    /// No faults at all — a transparent plan to build from.
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            fail_probability: 0.0,
            fatal_probability: 0.0,
            stall_probability: 0.0,
            stall: Duration::ZERO,
            outage: None,
        }
    }
}

impl FaultPlan {
    /// A transparent plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::default()
        }
    }

    /// Sets the transient-failure probability.
    pub fn with_failures(mut self, probability: f64) -> Self {
        self.fail_probability = probability;
        self
    }

    /// Sets the fatal-failure probability.
    pub fn with_fatal(mut self, probability: f64) -> Self {
        self.fatal_probability = probability;
        self
    }

    /// Sets the stall probability and duration.
    pub fn with_stalls(mut self, probability: f64, stall: Duration) -> Self {
        self.stall_probability = probability;
        self.stall = stall;
        self
    }

    /// Sets a hard outage window over export indices.
    pub fn with_outage(mut self, window: Range<u64>) -> Self {
        self.outage = Some(window);
        self
    }

    /// The fault (if any) this plan injects at export `index`.
    fn fault_at(&self, index: u64) -> Option<InjectedFault> {
        if let Some(outage) = &self.outage {
            if outage.contains(&index) {
                return Some(InjectedFault::Outage);
            }
        }
        let d = unit(draw(self.seed, index));
        if d < self.fatal_probability {
            Some(InjectedFault::Fatal)
        } else if d < self.fatal_probability + self.fail_probability {
            Some(InjectedFault::Transient)
        } else if d < self.fatal_probability + self.fail_probability + self.stall_probability {
            Some(InjectedFault::Stall)
        } else {
            None
        }
    }
}

enum InjectedFault {
    Outage,
    Fatal,
    Transient,
    Stall,
}

/// A [`RecordSink`] decorator injecting the faults of a [`FaultPlan`]
/// into an otherwise healthy sink (see the module docs).
#[derive(Debug)]
pub struct FaultInjectingSink<S> {
    inner: S,
    plan: FaultPlan,
    exports_seen: u64,
    injected_failures: u64,
    injected_stalls: u64,
    delivered: u64,
}

impl<S: RecordSink> FaultInjectingSink<S> {
    /// Wraps `inner` under the given fault plan.
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultInjectingSink {
            inner,
            plan,
            exports_seen: 0,
            injected_failures: 0,
            injected_stalls: 0,
            delivered: 0,
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Consumes the wrapper, returning the wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Exports failed by injection (outage + fatal + transient).
    pub fn injected_failures(&self) -> u64 {
        self.injected_failures
    }

    /// Exports delayed by an injected stall (then delivered).
    pub fn injected_stalls(&self) -> u64 {
        self.injected_stalls
    }

    /// Exports that reached the wrapped sink successfully.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }
}

impl<S: RecordSink> RecordSink for FaultInjectingSink<S> {
    fn export_epoch(&mut self, snapshot: &EpochSnapshot) -> io::Result<()> {
        let index = self.exports_seen;
        self.exports_seen += 1;
        match self.plan.fault_at(index) {
            Some(InjectedFault::Outage) => {
                self.injected_failures += 1;
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("injected outage at export {index}"),
                ));
            }
            Some(InjectedFault::Fatal) => {
                self.injected_failures += 1;
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("injected fatal fault at export {index}"),
                ));
            }
            Some(InjectedFault::Transient) => {
                self.injected_failures += 1;
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("injected transient fault at export {index}"),
                ));
            }
            Some(InjectedFault::Stall) => {
                self.injected_stalls += 1;
                if !self.plan.stall.is_zero() {
                    std::thread::sleep(self.plan.stall);
                }
            }
            None => {}
        }
        self.inner.export_epoch(snapshot)?;
        self.delivered += 1;
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

/// A [`FlowMonitor`] decorator that panics once a cumulative packet
/// count is reached — the worker-side chaos probe for shard panic
/// isolation.
///
/// Forwards every trait method to the wrapped monitor — its own `seal`,
/// introspection and instruments included, so a chaos test
/// drives the code a deployment runs; the panic fires
/// *inside* `process_packet`/`process_batch` on the packet that crosses
/// its `panic_at` threshold, exactly where a buggy algorithm would
/// blow up. Wrapping in `ShardedMonitor` therefore exercises the
/// `catch_unwind` isolation path deterministically: the shard whose
/// partition reaches the threshold first dies, the others keep going.
#[derive(Debug)]
pub struct PanicInjector<M> {
    inner: M,
    /// Cumulative packet count at which the injector panics.
    panic_at: u64,
    processed: u64,
}

impl<M: FlowMonitor> PanicInjector<M> {
    /// Wraps `inner`, panicking when the `panic_at`-th packet (1-based)
    /// is processed.
    pub fn new(inner: M, panic_at: u64) -> Self {
        PanicInjector {
            inner,
            panic_at,
            processed: 0,
        }
    }

    /// Packets processed so far without reaching the threshold.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    fn arm(&mut self) {
        self.processed += 1;
        if self.processed >= self.panic_at {
            panic!(
                "injected worker panic at packet {} (threshold {})",
                self.processed, self.panic_at
            );
        }
    }
}

impl<M: FlowMonitor> FlowMonitor for PanicInjector<M> {
    fn process_packet(&mut self, packet: &Packet) {
        self.arm();
        self.inner.process_packet(packet);
    }

    fn process_batch(&mut self, packets: &[Packet]) {
        // Arm per packet so the panic lands mid-batch, not at a batch
        // boundary — the harder case for in-flight accounting.
        for p in packets {
            self.process_packet(p);
        }
    }

    fn flow_records(&self) -> Vec<FlowRecord> {
        self.inner.flow_records()
    }

    fn estimate_size(&self, key: &FlowKey) -> u32 {
        self.inner.estimate_size(key)
    }

    fn estimate_cardinality(&self) -> f64 {
        self.inner.estimate_cardinality()
    }

    fn memory_bits(&self) -> usize {
        self.inner.memory_bits()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cost(&self) -> CostSnapshot {
        self.inner.cost()
    }

    fn reset(&mut self) {
        // A reset models epoch turnover, not recovery from the injected
        // bug: the packet countdown keeps running across epochs.
        self.inner.reset();
    }

    fn seal(&mut self) -> EpochSnapshot {
        self.inner.seal()
    }

    fn introspection(&self) -> Vec<IntrospectMetric> {
        self.inner.introspection()
    }

    fn instrument(&mut self, instruments: &Instruments) {
        self.inner.instrument(instruments);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashflow_monitor::{CostRecorder, MemorySink};
    use hashflow_types::{FlowKey, FlowRecord};

    fn snapshot(epoch: u64, n: usize) -> EpochSnapshot {
        EpochSnapshot::from_parts(
            epoch,
            None,
            None,
            (0..n as u64)
                .map(|i| FlowRecord::new(FlowKey::from_index(i), 1))
                .collect(),
            n as f64,
            Default::default(),
        )
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let plan = FaultPlan::new(7).with_failures(0.5);
        let mut a = FaultInjectingSink::new(MemorySink::new(), plan.clone());
        let mut b = FaultInjectingSink::new(MemorySink::new(), plan);
        let mut outcomes_a = Vec::new();
        let mut outcomes_b = Vec::new();
        for e in 0..64 {
            outcomes_a.push(a.export_epoch(&snapshot(e, 1)).is_ok());
            outcomes_b.push(b.export_epoch(&snapshot(e, 1)).is_ok());
        }
        assert_eq!(outcomes_a, outcomes_b);
        assert!(a.injected_failures() > 0, "p=0.5 over 64 draws must fail");
        assert!(a.delivered() > 0, "p=0.5 over 64 draws must deliver");
        assert_eq!(a.delivered() + a.injected_failures(), 64);
    }

    #[test]
    fn outage_window_rejects_every_export_inside_it() {
        let plan = FaultPlan::new(1).with_outage(2..5);
        let mut sink = FaultInjectingSink::new(MemorySink::new(), plan);
        for e in 0..8 {
            let result = sink.export_epoch(&snapshot(e, 1));
            if (2..5).contains(&e) {
                let err = result.unwrap_err();
                assert_eq!(err.kind(), std::io::ErrorKind::ConnectionReset);
            } else {
                result.unwrap();
            }
        }
        assert_eq!(sink.injected_failures(), 3);
        assert_eq!(sink.delivered(), 5);
        assert_eq!(sink.inner().epochs().len(), 5);
    }

    #[test]
    fn fatal_draws_use_a_fatal_error_kind() {
        let plan = FaultPlan::new(3).with_fatal(1.0);
        let mut sink = FaultInjectingSink::new(MemorySink::new(), plan);
        let err = sink.export_epoch(&snapshot(0, 1)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn stalls_deliver_after_the_delay() {
        let plan = FaultPlan::new(5).with_stalls(1.0, Duration::from_millis(1));
        let mut sink = FaultInjectingSink::new(MemorySink::new(), plan);
        sink.export_epoch(&snapshot(0, 2)).unwrap();
        assert_eq!(sink.injected_stalls(), 1);
        assert_eq!(sink.delivered(), 1);
        assert_eq!(sink.inner().epochs()[0].len(), 2);
    }

    #[derive(Default)]
    struct Noop {
        cost: CostRecorder,
    }

    impl FlowMonitor for Noop {
        fn process_packet(&mut self, _p: &Packet) {
            self.cost.start_packet();
        }
        fn flow_records(&self) -> Vec<FlowRecord> {
            Vec::new()
        }
        fn estimate_size(&self, _k: &FlowKey) -> u32 {
            0
        }
        fn estimate_cardinality(&self) -> f64 {
            0.0
        }
        fn memory_bits(&self) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "Noop"
        }
        fn cost(&self) -> CostSnapshot {
            self.cost.snapshot()
        }
        fn reset(&mut self) {
            self.cost.reset();
        }
    }

    #[test]
    fn panic_injector_fires_at_the_exact_packet() {
        let mut m = PanicInjector::new(Noop::default(), 3);
        let p = Packet::new(FlowKey::from_index(1), 0, 64);
        m.process_packet(&p);
        m.process_packet(&p);
        assert_eq!(m.processed(), 2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.process_packet(&p);
        }));
        assert!(result.is_err(), "third packet must panic");
    }

    #[test]
    fn panic_countdown_survives_reset() {
        let mut m = PanicInjector::new(Noop::default(), 4);
        let p = Packet::new(FlowKey::from_index(1), 0, 64);
        m.process_batch(&[p, p, p]);
        m.reset();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.process_packet(&p);
        }));
        assert!(result.is_err(), "countdown keeps running across epochs");
    }
}
