//! Streaming export sinks for sealed epochs.
//!
//! A deployed collector does not stop at sealing epochs — every sealed
//! epoch is *shipped*: to a NetFlow collector, a log pipeline, a
//! long-term store. [`RecordSink`] is the contract for that last stage of
//! the pipeline (`source → collector → rotator → sinks`): the rotation
//! layer ([`crate::EpochRotator`], and the `hashflow-collector` facade
//! built on it) streams each sealed [`EpochSnapshot`] to its attached
//! sinks.
//!
//! Two reference sinks live here (no I/O-format dependencies needed):
//! [`JsonLinesSink`] for log pipelines and [`MemorySink`] for tests and
//! in-process consumers. The NetFlow v5 sink lives in the
//! `netflow-export` crate next to its wire format.

use crate::{
    classify_io_error, EpochSnapshot, ErrorClass, HealthPolicy, PipelineMetrics, SinkErrors,
    SinkHealth, SinkStatus,
};
use hashflow_obs::{FlightRecorder, Severity};
use std::io::{self, Write};

/// A destination for sealed measurement epochs.
///
/// Implementations serialize each epoch's record report to their medium.
/// Sinks are driven by the epoch-rotation layer: one
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

/// The sinks of an [`crate::EpochRotator`] with per-sink health tracking:
/// export fan-out, infallible from the caller's side (a broken export
/// target must not stall measurement), with every I/O error classified
/// ([`classify_io_error`]), collected (bounded by
/// [`SinkErrors::MAX_PARKED`]) and driving each sink's
/// healthy → degraded → quarantined state machine ([`SinkHealth`]).
/// Quarantined sinks skip-and-count instead of wedging the rotation
/// path, and recover through periodic probes
/// ([`HealthPolicy::probe_interval`]).
#[derive(Default)]
pub(crate) struct SinkSet {
    entries: Vec<SinkEntry>,
    parked: Vec<(usize, io::Error)>,
    policy: HealthPolicy,
    metrics: Option<PipelineMetrics>,
    recorder: Option<FlightRecorder>,
}

impl std::fmt::Debug for SinkSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkSet")
            .field("sinks", &self.entries.len())
            .field("errors", &self.parked.len())
            .field(
                "quarantined",
                &self
                    .entries
                    .iter()
                    .filter(|e| e.health == SinkHealth::Quarantined)
                    .count(),
            )
            .finish()
    }
}

impl SinkSet {
    /// An empty set with the default [`HealthPolicy`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sink (starting [`SinkHealth::Healthy`]).
    pub fn add(&mut self, sink: Box<dyn RecordSink + Send>) {
        self.entries.push(SinkEntry::new(sink));
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replaces the health-machine thresholds (applies to subsequent
    /// exports; current states are kept).
    pub fn set_health_policy(&mut self, policy: HealthPolicy) {
        assert!(
            policy.quarantine_after >= 1,
            "quarantine_after must be at least 1"
        );
        self.policy = policy;
    }

    /// Attaches the rotator's metric handles and flight recorder. With
    /// metrics, every failed export or flush counts in
    /// `hashflow_sink_errors_total`, epochs skipped past quarantined sinks
    /// in `hashflow_sink_skipped_epochs_total`, and
    /// `hashflow_sinks_quarantined` tracks the quarantined count. With a
    /// recorder, every export failure and health transition (degrade,
    /// quarantine, recover) is a structured event, and a sink *entering*
    /// quarantine auto-dumps the recent window — the lead-up is captured
    /// the moment the fault latches.
    pub fn instrument(
        &mut self,
        metrics: Option<PipelineMetrics>,
        recorder: Option<FlightRecorder>,
    ) {
        self.metrics = metrics;
        self.recorder = recorder;
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
    pub fn quarantined(&self) -> usize {
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
            m.sinks_quarantined.set(self.quarantined() as i64);
        }
    }

    /// Streams one sealed epoch to every sink, driving each sink's
    /// health machine: healthy and degraded sinks are attempted (a
    /// success heals them), quarantined sinks skip-and-count until their
    /// probe countdown reaches zero, at which point one export is
    /// attempted as a recovery probe. Errors never propagate out of the
    /// rotation path; they are counted, parked (bounded) and reported by
    /// [`Self::finish`] / [`Self::health`].
    pub fn export(&mut self, snapshot: &EpochSnapshot) {
        let policy = self.policy;
        let metrics = self.metrics.as_ref();
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
                    m.sink_skipped_epochs.inc();
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
                    if fatal || entry.consecutive_failures >= policy.quarantine_after {
                        entry.health = SinkHealth::Quarantined;
                        entry.epochs_until_probe = policy.probe_interval;
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
                        m.sink_errors.inc();
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
    /// rotations and flush errors from this call, in occurrence order
    /// with their sink indices ([`SinkErrors`]).
    pub fn finish(&mut self) -> Result<(), SinkErrors> {
        for index in 0..self.entries.len() {
            let entry = &mut self.entries[index];
            if let Err(error) = entry.sink.finish() {
                entry.total_errors += 1;
                entry.last_error = Some(error.to_string());
                if let Some(m) = &self.metrics {
                    m.sink_errors.inc();
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
    lines: u64,
}

impl<W: Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonLinesSink { writer, lines: 0 }
    }

    /// Lines (records) written so far.
    pub const fn lines_written(&self) -> u64 {
        self.lines
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
            self.lines += 1;
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
/// has no cap: to keep only recent history, bound the rotator's completed
/// store instead ([`crate::EpochRotator::set_retention`]).
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

    /// Total records across all retained epochs.
    pub fn total_records(&self) -> usize {
        self.epochs.iter().map(EpochSnapshot::len).sum()
    }

    /// Consumes the sink, returning the retained epochs.
    pub fn into_epochs(self) -> Vec<EpochSnapshot> {
        self.epochs
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
        assert_eq!(sink.lines_written(), 5);
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
        assert_eq!(sink.epochs().len(), 2);
        assert_eq!(sink.total_records(), 5);
        let epochs = sink.into_epochs();
        assert_eq!(epochs[1].epoch(), 1);
    }

    #[test]
    fn unbounded_sink_never_drops() {
        let mut sink = MemorySink::new();
        for e in 0..50 {
            sink.export_epoch(&snapshot(e, 10)).unwrap();
        }
        assert_eq!(sink.total_records(), 500);
        assert_eq!(sink.epochs().len(), 50);
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
        let mut set = SinkSet::new();
        set.set_health_policy(HealthPolicy {
            quarantine_after: 2,
            probe_interval: 2,
        });
        set.add(Box::new(FlakySink::new(3, io::ErrorKind::TimedOut)));
        let snap = snapshot(0, 1);

        set.export(&snap); // failure 1 → degraded
        assert_eq!(set.health()[0].health, SinkHealth::Degraded);
        set.export(&snap); // failure 2 → quarantined
        assert_eq!(set.health()[0].health, SinkHealth::Quarantined);
        assert_eq!(set.quarantined(), 1);

        set.export(&snap); // skipped (probe in 2)
        set.export(&snap); // skipped (probe in 1)
        let status = &set.health()[0];
        assert_eq!(status.skipped_epochs, 2);
        assert_eq!(status.skipped_records, 2);
        assert_eq!(status.health, SinkHealth::Quarantined);

        set.export(&snap); // probe: third failure, re-quarantined
        assert_eq!(set.health()[0].health, SinkHealth::Quarantined);
        set.export(&snap); // skipped
        set.export(&snap); // skipped
        set.export(&snap); // probe succeeds → healthy
        let status = &set.health()[0];
        assert_eq!(status.health, SinkHealth::Healthy);
        assert_eq!(status.recoveries, 1);
        assert_eq!(status.total_errors, 3);

        set.export(&snap); // healthy again: delivered normally
        let errors = set.finish().unwrap_err();
        assert_eq!(errors.len(), 3);
    }

    #[test]
    fn fatal_error_quarantines_immediately() {
        let mut set = SinkSet::new();
        set.add(Box::new(FlakySink::new(1, io::ErrorKind::PermissionDenied)));
        set.export(&snapshot(0, 1));
        assert_eq!(set.health()[0].health, SinkHealth::Quarantined);
    }

    #[test]
    fn finish_collects_every_sink_error_and_flushes_all() {
        let mut set = SinkSet::new();
        set.set_health_policy(HealthPolicy {
            quarantine_after: 10,
            probe_interval: 0,
        });
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
        let mut set = SinkSet::new();
        set.set_health_policy(HealthPolicy {
            quarantine_after: u32::MAX,
            probe_interval: 0,
        });
        set.add(Box::new(FlakySink::new(u64::MAX, io::ErrorKind::TimedOut)));
        let snap = snapshot(0, 1);
        for _ in 0..(SinkErrors::MAX_PARKED + 10) {
            set.export(&snap);
        }
        let status = &set.health()[0];
        assert_eq!(status.total_errors, (SinkErrors::MAX_PARKED + 10) as u64);
        let errors = set.finish().unwrap_err();
        assert_eq!(errors.len(), SinkErrors::MAX_PARKED);
    }
}
