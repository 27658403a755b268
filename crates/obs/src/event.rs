//! The structured event log and its bounded [`FlightRecorder`] ring.
//!
//! Metrics answer *how much*; events answer *what happened, in what
//! order*. The recorder is the pipeline's black box: every stage appends
//! timestamped, severity-tagged structured [`Event`]s (epoch sealed, sink
//! quarantined, shard panicked, batch shed) into one bounded
//! overwrite-oldest ring, cheap enough to leave on in production. When a
//! fault transition fires, [`FlightRecorder::dump`] writes the recent
//! window as JSONL to a pre-attached writer, so the post-mortem exists
//! even if nobody was tailing a log when the fault hit.
//!
//! All appends go through one mutex, which buys the three properties the
//! ring promises under concurrent writers: sequence numbers are assigned
//! in one critical section (strictly monotone, no gaps until overwrite),
//! an event is stored whole or not at all (no torn events), and the ring
//! never exceeds its capacity (the oldest event is evicted and counted).
//!
//! # Examples
//!
//! ```
//! use hashflow_obs::{FlightRecorder, Severity};
//!
//! let recorder = FlightRecorder::with_capacity(128);
//! recorder.record(Severity::Info, "epoch_sealed", "epoch 7 sealed");
//! recorder.record_with(
//!     Severity::Error,
//!     "sink_quarantined",
//!     "sink 0 quarantined",
//!     vec![("sink".to_string(), "0".to_string())],
//! );
//! let events = recorder.events_since(0);
//! assert_eq!(events.len(), 2);
//! assert!(events[0].seq < events[1].seq);
//! ```

use std::collections::VecDeque;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json;

/// Default ring capacity of [`FlightRecorder::new`]: enough for the
/// recent history of a busy pipeline without holding a visible amount of
/// memory (events are small; the ring is bounded in *events*, not bytes).
pub const DEFAULT_RECORDER_CAPACITY: usize = 1024;

/// How serious an [`Event`] is. Ordered: `Debug < Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// High-volume diagnostics (per-flow trace spans).
    Debug,
    /// Normal lifecycle (epoch sealed, sink recovered).
    Info,
    /// Degradation that self-heals (sink export error, batch shed).
    Warn,
    /// A fault transition (sink quarantined, shard panicked).
    Error,
}

impl Severity {
    /// Lowercase label used in exposition (`"debug"` .. `"error"`).
    pub const fn label(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One structured entry in the flight-recorder ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Strictly monotone sequence number (1-based), assigned at record
    /// time under the ring lock — the cursor `events_since` pages by.
    pub seq: u64,
    /// Wall-clock timestamp, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// How serious the event is.
    pub severity: Severity,
    /// Stable machine-readable event kind (e.g. `"sink_quarantined"`).
    pub kind: &'static str,
    /// Human-readable one-liner.
    pub message: String,
    /// Structured key/value context (e.g. `("sink", "0")`).
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// The value of `name` among the event's structured fields.
    pub fn field(&self, name: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Renders the event as one self-describing JSON object (no trailing
    /// newline) — the line format of [`FlightRecorder::dump`].
    pub fn to_json(&self) -> String {
        let mut fields = String::new();
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                fields.push(',');
            }
            fields.push_str(&format!("{}:{}", json::string(k), json::string(v)));
        }
        format!(
            "{{\"seq\":{},\"unix_ms\":{},\"severity\":\"{}\",\"kind\":{},\
             \"message\":{},\"fields\":{{{}}}}}",
            self.seq,
            self.unix_ms,
            self.severity.label(),
            json::string(self.kind),
            json::string(&self.message),
            fields,
        )
    }
}

#[derive(Debug)]
struct RecorderState {
    ring: VecDeque<Event>,
    next_seq: u64,
    overwritten: u64,
    dumps: u64,
}

struct RecorderInner {
    capacity: usize,
    state: Mutex<RecorderState>,
    dump_writer: Mutex<Option<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for RecorderInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecorderInner")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// A bounded, overwrite-oldest ring of structured [`Event`]s — the
/// pipeline's flight recorder (see the module docs).
///
/// Cloning produces another handle to the same ring, so one recorder can
/// be threaded through the rotator, the sink set, every shard worker and
/// the HTTP server, all appending into one ordered history.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    inner: Arc<RecorderInner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A recorder with the [`DEFAULT_RECORDER_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_RECORDER_CAPACITY)
    }

    /// A recorder holding at most `capacity` events (at least 1); the
    /// oldest event is overwritten (and counted) once the ring is full.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Arc::new(RecorderInner {
                capacity,
                state: Mutex::new(RecorderState {
                    ring: VecDeque::with_capacity(capacity),
                    next_seq: 1,
                    overwritten: 0,
                    dumps: 0,
                }),
                dump_writer: Mutex::new(None),
            }),
        }
    }

    /// Maximum events the ring retains.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderState> {
        self.inner.state.lock().expect("flight recorder poisoned")
    }

    /// Appends one event without structured fields; returns its sequence
    /// number.
    pub fn record(
        &self,
        severity: Severity,
        kind: &'static str,
        message: impl Into<String>,
    ) -> u64 {
        self.record_with(severity, kind, message, Vec::new())
    }

    /// Appends one event with structured fields; returns its sequence
    /// number. The event is stored whole under the ring lock — readers
    /// never observe a partially-written event.
    pub fn record_with(
        &self,
        severity: Severity,
        kind: &'static str,
        message: impl Into<String>,
        fields: Vec<(String, String)>,
    ) -> u64 {
        let unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        let mut state = self.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        if state.ring.len() == self.inner.capacity {
            state.ring.pop_front();
            state.overwritten += 1;
        }
        state.ring.push_back(Event {
            seq,
            unix_ms,
            severity,
            kind,
            message: message.into(),
            fields,
        });
        seq
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.lock().ring.is_empty()
    }

    /// Events evicted by the overwrite-oldest policy so far.
    pub fn overwritten(&self) -> u64 {
        self.lock().overwritten
    }

    /// Sequence number of the most recent event (0 when none recorded).
    pub fn last_seq(&self) -> u64 {
        self.lock().next_seq - 1
    }

    /// A copy of every retained event, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.lock().ring.iter().cloned().collect()
    }

    /// Retained events with `seq > since`, oldest first — the paging
    /// contract of `GET /debug/events?since=seq` (`since = 0` returns
    /// everything still in the ring).
    pub fn events_since(&self, since: u64) -> Vec<Event> {
        self.lock()
            .ring
            .iter()
            .filter(|e| e.seq > since)
            .cloned()
            .collect()
    }

    /// Attaches the writer automatic fault dumps go to (a file, a socket,
    /// a `Vec<u8>` in tests). Replaces any previous writer.
    pub fn set_dump_writer(&self, writer: Box<dyn Write + Send>) {
        *self.inner.dump_writer.lock().expect("dump writer poisoned") = Some(writer);
    }

    /// Whether a dump writer is attached.
    pub fn has_dump_writer(&self) -> bool {
        self.inner
            .dump_writer
            .lock()
            .expect("dump writer poisoned")
            .is_some()
    }

    /// Dumps triggered so far (attempted, writer attached or not).
    pub fn dumps(&self) -> u64 {
        self.lock().dumps
    }

    /// Writes the current window to `writer` as JSONL: one header object
    /// carrying `reason` and the ring's bookkeeping, then one line per
    /// retained event, oldest first.
    ///
    /// # Errors
    ///
    /// Returns any I/O error of `writer`.
    pub fn dump_to<W: Write>(&self, reason: &str, writer: &mut W) -> io::Result<()> {
        // Copy the window out first so writer latency never extends the
        // time the recording path is blocked.
        let (events, overwritten) = {
            let state = self.lock();
            (
                state.ring.iter().cloned().collect::<Vec<_>>(),
                state.overwritten,
            )
        };
        writeln!(
            writer,
            "{{\"flight_recorder_dump\":{},\"events\":{},\"overwritten\":{}}}",
            json::string(reason),
            events.len(),
            overwritten,
        )?;
        for event in &events {
            writeln!(writer, "{}", event.to_json())?;
        }
        writer.flush()
    }

    /// Triggers an automatic post-mortem dump: writes the current window
    /// to the attached dump writer (see [`Self::set_dump_writer`]) and
    /// counts the attempt. Returns `true` iff a writer was attached and
    /// the write succeeded. A dump must never take the pipeline down, so
    /// I/O errors are swallowed (the failed dump is still counted).
    pub fn dump(&self, reason: &str) -> bool {
        self.lock().dumps += 1;
        let mut guard = self.inner.dump_writer.lock().expect("dump writer poisoned");
        match guard.as_mut() {
            Some(writer) => self.dump_to(reason, writer).is_ok(),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_monotone_seq() {
        let r = FlightRecorder::with_capacity(8);
        assert!(r.is_empty());
        assert_eq!(r.last_seq(), 0);
        let a = r.record(Severity::Info, "epoch_sealed", "sealed 1");
        let b = r.record(Severity::Warn, "batch_shed", "shed 256");
        assert_eq!((a, b), (1, 2));
        let events = r.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "epoch_sealed");
        assert_eq!(events[1].severity, Severity::Warn);
        assert_eq!(r.last_seq(), 2);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let r = FlightRecorder::with_capacity(3);
        for i in 0..5 {
            r.record(Severity::Info, "tick", format!("tick {i}"));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.overwritten(), 2);
        let seqs: Vec<u64> = r.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
    }

    #[test]
    fn events_since_pages_by_cursor() {
        let r = FlightRecorder::with_capacity(16);
        for i in 0..6 {
            r.record(Severity::Info, "tick", format!("tick {i}"));
        }
        assert_eq!(r.events_since(0).len(), 6);
        assert_eq!(r.events_since(4).len(), 2);
        assert!(r.events_since(6).is_empty());
        assert!(r.events_since(99).is_empty());
    }

    #[test]
    fn event_json_escapes_and_carries_fields() {
        let r = FlightRecorder::new();
        r.record_with(
            Severity::Error,
            "sink_quarantined",
            "sink \"0\" down",
            vec![("sink".to_string(), "0".to_string())],
        );
        let e = &r.snapshot()[0];
        assert_eq!(e.field("sink"), Some("0"));
        assert_eq!(e.field("missing"), None);
        let json = e.to_json();
        assert!(json.contains(r#""kind":"sink_quarantined""#));
        assert!(json.contains(r#""message":"sink \"0\" down""#));
        assert!(json.contains(r#""fields":{"sink":"0"}"#));
        assert!(json.contains(r#""severity":"error""#));
    }

    #[test]
    fn dump_writes_header_then_events() {
        let r = FlightRecorder::with_capacity(2);
        for i in 0..3 {
            r.record(Severity::Info, "tick", format!("tick {i}"));
        }
        let mut out = Vec::new();
        r.dump_to("test", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#""flight_recorder_dump":"test","events":2,"overwritten":1"#));
        assert!(lines[1].contains(r#""seq":2"#));
        assert!(lines[2].contains(r#""seq":3"#));
    }

    #[test]
    fn auto_dump_goes_to_the_attached_writer() {
        let r = FlightRecorder::new();
        r.record(Severity::Error, "shard_panic", "worker 2 panicked");
        assert!(!r.dump("no writer attached"));
        assert_eq!(r.dumps(), 1);

        // A shared Vec<u8> writer so the test can read back what the
        // recorder wrote after handing the Box over.
        #[derive(Clone, Default)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = Shared::default();
        r.set_dump_writer(Box::new(sink.clone()));
        assert!(r.has_dump_writer());
        assert!(r.dump("quarantine"));
        assert_eq!(r.dumps(), 2);
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains(r#""flight_recorder_dump":"quarantine""#));
        assert!(text.contains("shard_panic"));
    }

    #[test]
    fn severity_orders_and_labels() {
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::Error.label(), "error");
        assert_eq!(Severity::Debug.label(), "debug");
    }

    #[test]
    fn clones_share_the_ring() {
        let r = FlightRecorder::with_capacity(4);
        let r2 = r.clone();
        r.record(Severity::Info, "a", "from r");
        r2.record(Severity::Info, "b", "from r2");
        assert_eq!(r.len(), 2);
        assert_eq!(r2.last_seq(), 2);
    }
}
