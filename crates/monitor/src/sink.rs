//! Streaming export sinks for sealed epochs.
//!
//! A deployed collector does not stop at sealing epochs — every sealed
//! epoch is *shipped*: to a NetFlow collector, a log pipeline, a
//! long-term store. [`RecordSink`] is the contract for that last stage of
//! the pipeline (`source → rotator → Collector → sinks`): the rotator
//! ([`crate::EpochRotator`]) seals and numbers an epoch, and the
//! `hashflow-collector` facade streams each sealed [`EpochSnapshot`]
//! through its [`SinkSet`].
//!
//! Two reference sinks live here (no I/O-format dependencies needed):
//! [`JsonLinesSink`] for log pipelines and [`MemorySink`] for tests and
//! in-process consumers. The NetFlow v5 sink lives in the
//! `netflow-export` crate next to its wire format.

use crate::{
    classify_io_error, EpochSnapshot, ErrorClass, Instruments, SinkErrors, SinkHealth, SinkStatus,
    SINK_PROBE_INTERVAL, SINK_QUARANTINE_AFTER,
};
use hashflow_obs::{Counter, FlightRecorder, Gauge, Histogram, MetricsRegistry, Severity};
use std::io::{self, Write};

/// A destination for sealed measurement epochs.
///
/// Implementations serialize each epoch's record report to their medium.
/// Sinks are driven through a [`SinkSet`] by the `Collector`: one
/// [`export_epoch`](Self::export_epoch) call per sealed epoch, in epoch
/// order, and a final [`finish`](Self::finish) when the collection run
/// ends (flush buffers, write trailers).
pub trait RecordSink {
    /// Ships one sealed epoch.
    ///
    /// # Errors
    ///
    /// Returns any I/O error of the underlying medium.
    fn export_epoch(&mut self, snapshot: &EpochSnapshot) -> io::Result<()>;

    /// Flushes buffered state at the end of a collection run. The default
    /// does nothing.
    ///
    /// # Errors
    ///
    /// Returns any I/O error of the underlying medium.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One managed sink with its health-machine bookkeeping.
struct SinkEntry {
    sink: Box<dyn RecordSink + Send>,
    health: SinkHealth,
    consecutive_failures: u32,
    total_errors: u64,
    skipped_epochs: u64,
    skipped_records: u64,
    recoveries: u64,
    /// Sealed epochs left to skip before the next recovery probe.
    epochs_until_probe: u64,
    last_error: Option<String>,
}

impl SinkEntry {
    fn new(sink: Box<dyn RecordSink + Send>) -> Self {
        SinkEntry {
            sink,
            health: SinkHealth::Healthy,
            consecutive_failures: 0,
            total_errors: 0,
            skipped_epochs: 0,
            skipped_records: 0,
            recoveries: 0,
            epochs_until_probe: 0,
            last_error: None,
        }
    }

    fn status(&self, index: usize) -> SinkStatus {
        SinkStatus {
            index,
            health: self.health,
            consecutive_failures: self.consecutive_failures,
            total_errors: self.total_errors,
            skipped_epochs: self.skipped_epochs,
            skipped_records: self.skipped_records,
            recoveries: self.recoveries,
            last_error: self.last_error.clone(),
        }
    }
}

/// The metric handles of an instrumented [`SinkSet`].
///
/// | Metric | Type | Meaning |
/// |---|---|---|
/// | `hashflow_sink_export_ns` | histogram | sink fan-out time per sealed epoch |
/// | `hashflow_sink_errors_total` | counter | sink export/flush errors |
/// | `hashflow_sink_skipped_epochs_total` | counter | sealed epochs skipped past quarantined sinks |
/// | `hashflow_sinks_quarantined` | gauge | sinks currently quarantined |
#[derive(Clone, Debug)]
struct SinkMetrics {
    export_ns: Histogram,
    errors: Counter,
    skipped_epochs: Counter,
    quarantined: Gauge,
}

impl SinkMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        SinkMetrics {
            export_ns: registry.histogram("hashflow_sink_export_ns", &[]),
            errors: registry.counter("hashflow_sink_errors_total", &[]),
            skipped_epochs: registry.counter("hashflow_sink_skipped_epochs_total", &[]),
            quarantined: registry.gauge("hashflow_sinks_quarantined", &[]),
        }
    }
}

/// A pipeline's sinks with per-sink health tracking: export fan-out,
/// infallible from the caller's side (a broken export target must not
/// stall measurement), with every I/O error classified
/// ([`classify_io_error`]), collected (bounded by
/// [`SinkErrors::MAX_PARKED`]) and driving each sink's
/// healthy → degraded → quarantined state machine ([`SinkHealth`]).
/// Quarantined sinks skip-and-count instead of wedging the sealed side,
/// and recover through periodic probes ([`SINK_PROBE_INTERVAL`]).
#[derive(Default)]
pub struct SinkSet {
    entries: Vec<SinkEntry>,
    parked: Vec<(usize, io::Error)>,
    metrics: Option<SinkMetrics>,
    recorder: Option<FlightRecorder>,
}

impl std::fmt::Debug for SinkSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkSet")
            .field("sinks", &self.entries.len())
            .field("errors", &self.parked.len())
            .field("quarantined", &self.quarantined())
            .finish()
    }
}

impl SinkSet {
    /// Adds a sink (starting [`SinkHealth::Healthy`]).
    pub fn add(&mut self, sink: Box<dyn RecordSink + Send>) {
        self.entries.push(SinkEntry::new(sink));
    }

    /// Whether no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Takes the registry and the flight recorder of `instruments`. With
    /// a registry, each export's fan-out time lands in
    /// `hashflow_sink_export_ns`, every failed export or flush counts in
    /// `hashflow_sink_errors_total`, epochs skipped past quarantined sinks
    /// in `hashflow_sink_skipped_epochs_total`, and
    /// `hashflow_sinks_quarantined` tracks the quarantined count. With a
    /// recorder, every export failure and health transition (degrade,
    /// quarantine, recover) is a structured event, and a sink *entering*
    /// quarantine auto-dumps the recent window — the lead-up is captured
    /// the moment the fault latches. Sinks added before or after report
    /// into the same handles.
    pub fn instrument(&mut self, instruments: &Instruments) {
        self.metrics = instruments.registry.as_ref().map(SinkMetrics::register);
        self.recorder = instruments.recorder.clone();
    }

    /// Point-in-time health of every attached sink, in attach order.
    pub fn health(&self) -> Vec<SinkStatus> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, e)| e.status(i))
            .collect()
    }

    /// Sinks currently quarantined.
    fn quarantined(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.health == SinkHealth::Quarantined)
            .count()
    }

    fn park(&mut self, index: usize, error: io::Error) {
        if self.parked.len() < SinkErrors::MAX_PARKED {
            self.parked.push((index, error));
        }
    }

    fn update_gauge(&self) {
        if let Some(m) = &self.metrics {
            m.quarantined.set(self.quarantined() as i64);
        }
    }

    /// Streams one sealed epoch to every sink, driving each sink's
    /// health machine: healthy and degraded sinks are attempted (a
    /// success heals them), quarantined sinks skip-and-count until their
    /// probe countdown reaches zero, at which point one export is
    /// attempted as a recovery probe. Errors never propagate out of the
    /// sealed side; they are counted, parked (bounded) and reported by
    /// [`Self::finish`] / [`Self::health`]. With no sink attached it does
    /// nothing, and times nothing.
    pub fn export(&mut self, snapshot: &EpochSnapshot) {
        if self.entries.is_empty() {
            return;
        }
        let metrics = self.metrics.as_ref();
        let _timer = metrics.map(|m| m.export_ns.start_timer());
        let recorder = self.recorder.as_ref();
        let mut fresh_errors: Vec<(usize, io::Error)> = Vec::new();
        for (index, entry) in self.entries.iter_mut().enumerate() {
            // A quarantined sink skips-and-counts until its probe
            // countdown reaches zero, then falls through to one real
            // export attempt.
            if entry.health == SinkHealth::Quarantined && entry.epochs_until_probe > 0 {
                entry.epochs_until_probe -= 1;
                entry.skipped_epochs += 1;
                entry.skipped_records += snapshot.len() as u64;
                if let Some(m) = metrics {
                    m.skipped_epochs.inc();
                }
                continue;
            }
            match entry.sink.export_epoch(snapshot) {
                Ok(()) => {
                    if entry.health == SinkHealth::Quarantined {
                        entry.recoveries += 1;
                        if let Some(r) = recorder {
                            r.record_with(
                                Severity::Info,
                                "sink_recovered",
                                format!("sink {index} recovered on probe"),
                                vec![("sink".to_string(), index.to_string())],
                            );
                        }
                    }
                    entry.health = SinkHealth::Healthy;
                    entry.consecutive_failures = 0;
                }
                Err(error) => {
                    entry.total_errors += 1;
                    entry.consecutive_failures = entry.consecutive_failures.saturating_add(1);
                    entry.last_error = Some(error.to_string());
                    let fatal = classify_io_error(&error) == ErrorClass::Fatal;
                    if let Some(r) = recorder {
                        r.record_with(
                            Severity::Warn,
                            "sink_error",
                            format!("sink {index} export failed: {error}"),
                            vec![
                                ("sink".to_string(), index.to_string()),
                                (
                                    "consecutive".to_string(),
                                    entry.consecutive_failures.to_string(),
                                ),
                            ],
                        );
                    }
                    let was = entry.health;
                    if fatal || entry.consecutive_failures >= SINK_QUARANTINE_AFTER {
                        entry.health = SinkHealth::Quarantined;
                        entry.epochs_until_probe = SINK_PROBE_INTERVAL;
                        if was != SinkHealth::Quarantined {
                            if let Some(r) = recorder {
                                r.record_with(
                                    Severity::Error,
                                    "sink_quarantined",
                                    format!(
                                        "sink {index} quarantined after {} failure(s): {error}",
                                        entry.consecutive_failures
                                    ),
                                    vec![("sink".to_string(), index.to_string())],
                                );
                                // The fault just latched: dump the window
                                // that led up to it while it is still in
                                // the ring.
                                r.dump("sink_quarantined");
                            }
                        }
                    } else {
                        entry.health = SinkHealth::Degraded;
                        if was == SinkHealth::Healthy {
                            if let Some(r) = recorder {
                                r.record_with(
                                    Severity::Warn,
                                    "sink_degraded",
                                    format!("sink {index} degraded: {error}"),
                                    vec![("sink".to_string(), index.to_string())],
                                );
                            }
                        }
                    }
                    if let Some(m) = metrics {
                        m.errors.inc();
                    }
                    fresh_errors.push((index, error));
                }
            }
        }
        for (index, error) in fresh_errors {
            self.park(index, error);
        }
        self.update_gauge();
    }

    /// Flushes every sink (end of the collection run); later sinks are
    /// still flushed after a failure, and quarantined sinks are flushed
    /// too (whatever they buffered before failing should still reach
    /// disk if it can).
    ///
    /// # Errors
    ///
    /// Returns **every** collected I/O error — export errors from earlier
    /// epochs and flush errors from this call, in occurrence order
    /// with their sink indices ([`SinkErrors`]).
    pub fn finish(&mut self) -> Result<(), SinkErrors> {
        for index in 0..self.entries.len() {
            let entry = &mut self.entries[index];
            if let Err(error) = entry.sink.finish() {
                entry.total_errors += 1;
                entry.last_error = Some(error.to_string());
                if let Some(m) = &self.metrics {
                    m.errors.inc();
                }
                self.park(index, error);
            }
        }
        let errors = std::mem::take(&mut self.parked);
        if errors.is_empty() {
            Ok(())
        } else {
            Err(SinkErrors::new(errors))
        }
    }
}

/// JSON-lines sink: one self-describing JSON object per flow record,
/// terminated by `\n` — the lingua franca of log shippers.
///
/// Each line carries the epoch number, the five-tuple and the packet
/// count; one epoch therefore contributes exactly
/// [`EpochSnapshot::len`] lines.
///
/// # Examples
///
/// ```
/// use hashflow_monitor::{EpochSnapshot, JsonLinesSink, RecordSink};
/// use hashflow_types::{FlowKey, FlowRecord};
///
/// let snapshot = EpochSnapshot::from_parts(
///     0, None, None,
///     vec![FlowRecord::new(FlowKey::from_index(1), 42)],
///     1.0, Default::default(),
/// );
/// let mut sink = JsonLinesSink::new(Vec::new());
/// sink.export_epoch(&snapshot)?;
/// let text = String::from_utf8(sink.into_inner()).unwrap();
/// assert_eq!(text.lines().count(), 1);
/// assert!(text.contains("\"packets\": 42"));
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct JsonLinesSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonLinesSink { writer }
    }

    /// Unwraps the sink, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> RecordSink for JsonLinesSink<W> {
    fn export_epoch(&mut self, snapshot: &EpochSnapshot) -> io::Result<()> {
        for rec in snapshot.records() {
            let key = rec.key();
            writeln!(
                self.writer,
                "{{\"epoch\": {}, \"src_ip\": \"{}\", \"dst_ip\": \"{}\", \
                 \"src_port\": {}, \"dst_port\": {}, \"protocol\": {}, \"packets\": {}}}",
                snapshot.epoch(),
                key.src_ip(),
                key.dst_ip(),
                key.src_port(),
                key.dst_port(),
                key.protocol(),
                rec.count(),
            )?;
        }
        Ok(())
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// In-memory sink: retains every sealed snapshot it is handed, for tests
/// and in-process consumers (dashboards, anomaly detectors) that want the
/// full query surface of past epochs rather than a serialized stream. It
/// has no cap: to keep only recent history, bound the `Collector`'s
/// retained epochs instead (`CollectorBuilder::retention`).
#[derive(Debug, Default)]
pub struct MemorySink {
    epochs: Vec<EpochSnapshot>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sealed epochs received so far, in arrival order.
    pub fn epochs(&self) -> &[EpochSnapshot] {
        &self.epochs
    }
}

impl RecordSink for MemorySink {
    fn export_epoch(&mut self, snapshot: &EpochSnapshot) -> io::Result<()> {
        self.epochs.push(snapshot.clone());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashflow_types::{FlowKey, FlowRecord};

    fn snapshot(epoch: u64, n: usize) -> EpochSnapshot {
        EpochSnapshot::from_parts(
            epoch,
            None,
            None,
            (0..n as u64)
                .map(|i| FlowRecord::new(FlowKey::from_index(i), i as u32 + 1))
                .collect(),
            n as f64,
            Default::default(),
        )
    }

    #[test]
    fn jsonl_writes_one_line_per_record() {
        let mut sink = JsonLinesSink::new(Vec::new());
        sink.export_epoch(&snapshot(0, 3)).unwrap();
        sink.export_epoch(&snapshot(1, 2)).unwrap();
        sink.finish().unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 5);
        // Every line is a flat JSON object carrying its epoch.
        assert_eq!(
            text.lines().filter(|l| l.contains("\"epoch\": 1")).count(),
            2
        );
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"src_ip\""));
            assert!(line.contains("\"packets\""));
        }
    }

    #[test]
    fn memory_sink_retains_epochs() {
        let mut sink = MemorySink::new();
        sink.export_epoch(&snapshot(0, 4)).unwrap();
        sink.export_epoch(&snapshot(1, 1)).unwrap();
        let epochs = sink.epochs();
        assert_eq!(epochs.len(), 2);
        assert_eq!((epochs[0].len(), epochs[1].len()), (4, 1));
        assert_eq!(epochs[1].epoch(), 1);
    }

    #[test]
    fn unbounded_sink_never_drops() {
        let mut sink = MemorySink::new();
        for e in 0..50 {
            sink.export_epoch(&snapshot(e, 10)).unwrap();
        }
        assert_eq!(sink.epochs().len(), 50);
        assert!(sink.epochs().iter().all(|e| e.len() == 10));
    }

    #[test]
    fn sink_is_object_safe() {
        let mut sinks: Vec<Box<dyn RecordSink>> = vec![
            Box::new(MemorySink::new()),
            Box::new(JsonLinesSink::new(Vec::new())),
        ];
        for s in &mut sinks {
            s.export_epoch(&snapshot(0, 1)).unwrap();
            s.finish().unwrap();
        }
    }

    /// Fails the first `fail_first` exports with the given kind, then
    /// succeeds, counting successful deliveries.
    struct FlakySink {
        fail_first: u64,
        kind: io::ErrorKind,
        attempts: u64,
        delivered: u64,
    }

    impl FlakySink {
        fn new(fail_first: u64, kind: io::ErrorKind) -> Self {
            FlakySink {
                fail_first,
                kind,
                attempts: 0,
                delivered: 0,
            }
        }
    }

    impl RecordSink for FlakySink {
        fn export_epoch(&mut self, _snapshot: &EpochSnapshot) -> io::Result<()> {
            self.attempts += 1;
            if self.attempts <= self.fail_first {
                Err(io::Error::new(self.kind, "injected"))
            } else {
                self.delivered += 1;
                Ok(())
            }
        }
    }

    #[test]
    fn transient_failures_degrade_then_quarantine_then_recover() {
        let strikes = u64::from(SINK_QUARANTINE_AFTER);
        let mut set = SinkSet::default();
        // Fails every export up to quarantine, and the first probe.
        set.add(Box::new(FlakySink::new(
            strikes + 1,
            io::ErrorKind::TimedOut,
        )));
        let snap = snapshot(0, 1);

        for _ in 1..strikes {
            set.export(&snap); // below the threshold → degraded
            assert_eq!(set.health()[0].health, SinkHealth::Degraded);
        }
        set.export(&snap); // the last strike → quarantined
        assert_eq!(set.health()[0].health, SinkHealth::Quarantined);
        assert_eq!(set.quarantined(), 1);

        for _ in 0..SINK_PROBE_INTERVAL {
            set.export(&snap); // skipped until the probe
        }
        let status = &set.health()[0];
        assert_eq!(status.skipped_epochs, SINK_PROBE_INTERVAL);
        assert_eq!(status.skipped_records, SINK_PROBE_INTERVAL);
        assert_eq!(status.health, SinkHealth::Quarantined);

        set.export(&snap); // probe: one more failure, re-quarantined
        assert_eq!(set.health()[0].health, SinkHealth::Quarantined);
        for _ in 0..SINK_PROBE_INTERVAL {
            set.export(&snap); // skipped
        }
        set.export(&snap); // probe succeeds → healthy
        let status = &set.health()[0];
        assert_eq!(status.health, SinkHealth::Healthy);
        assert_eq!(status.recoveries, 1);
        assert_eq!(status.total_errors, strikes + 1);

        set.export(&snap); // healthy again: delivered normally
        let errors = set.finish().unwrap_err();
        assert_eq!(errors.len() as u64, strikes + 1);
    }

    #[test]
    fn fatal_error_quarantines_immediately() {
        let mut set = SinkSet::default();
        set.add(Box::new(FlakySink::new(1, io::ErrorKind::PermissionDenied)));
        set.export(&snapshot(0, 1));
        assert_eq!(set.health()[0].health, SinkHealth::Quarantined);
    }

    #[test]
    fn finish_collects_every_sink_error_and_flushes_all() {
        let mut set = SinkSet::default();
        set.add(Box::new(FlakySink::new(u64::MAX, io::ErrorKind::TimedOut)));
        set.add(Box::new(MemorySink::new()));
        set.add(Box::new(FlakySink::new(
            u64::MAX,
            io::ErrorKind::BrokenPipe,
        )));
        let snap = snapshot(0, 2);
        set.export(&snap);
        set.export(&snap);
        let errors = set.finish().unwrap_err();
        // Two failing sinks × two exports; the healthy MemorySink between
        // them was still exported to and flushed.
        assert_eq!(errors.len(), 4);
        let indices: Vec<usize> = errors.iter().map(|(i, _)| i).collect();
        assert_eq!(indices, vec![0, 2, 0, 2]);
    }

    #[test]
    fn parked_errors_are_bounded() {
        let mut set = SinkSet::default();
        set.add(Box::new(FlakySink::new(u64::MAX, io::ErrorKind::TimedOut)));
        let snap = snapshot(0, 1);
        // Quarantined, the sink still fails once per probe: seal until it
        // has failed more often than the parking bound.
        let failures = (SinkErrors::MAX_PARKED + 10) as u64;
        while set.health()[0].total_errors < failures {
            set.export(&snap);
        }
        let status = &set.health()[0];
        assert_eq!(status.total_errors, failures);
        assert!(status.skipped_epochs > 0);
        let errors = set.finish().unwrap_err();
        assert_eq!(errors.len(), SinkErrors::MAX_PARKED);
    }
}
