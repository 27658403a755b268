//! Per-sink fault tolerance: error classification, the
//! healthy → degraded → quarantined state machine, and the multi-error
//! report that replaces first-error parking.
//!
//! A collection run that lasts days *will* see export failures — a log
//! shipper restarting, a collector briefly unreachable, a disk filling
//! up. The original sink set parked the first I/O error and silently
//! kept counting later ones; a wedged sink could also never recover.
//! This module gives every sink an explicit health state driven by
//! classified errors:
//!
//! ```text
//!                 transient error              quarantine_after
//!                 ┌─────────────┐          consecutive transients,
//!                 │             │            or any fatal error
//!   ┌─────────┐   │   ┌─────────▼──┐   ┌──────────────┐
//!   │ Healthy ◄───┘   │  Degraded  ├───►  Quarantined │
//!   └────▲────┘       └────────────┘   └──────┬───────┘
//!        │     successful export               │ skip-and-count;
//!        └──────────(probe or retry)◄──────────┘ probe every
//!                                                probe_interval epochs
//! ```
//!
//! Quarantined sinks **skip-and-count**: sealed epochs pass them by
//! (counted in `hashflow_sink_skipped_epochs_total`) instead of paying a
//! doomed export on the rotation path, and every `probe_interval` sealed
//! epochs one real export is attempted as a recovery probe. A probe that
//! succeeds returns the sink to `Healthy` and it receives every epoch
//! again.

use std::io;

/// The health of one attached sink, as maintained by the rotation
/// layer ([`EpochRotator`](crate::EpochRotator)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SinkHealth {
    /// Exports succeed; every sealed epoch is delivered.
    #[default]
    Healthy,
    /// Recent transient failures below the quarantine threshold; every
    /// epoch is still attempted.
    Degraded,
    /// Failed out: epochs are skipped (and counted) except for periodic
    /// recovery probes.
    Quarantined,
}

impl SinkHealth {
    /// Short lowercase label for metrics and reports.
    pub const fn label(self) -> &'static str {
        match self {
            SinkHealth::Healthy => "healthy",
            SinkHealth::Degraded => "degraded",
            SinkHealth::Quarantined => "quarantined",
        }
    }
}

/// Whether an export error is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// Plausibly goes away on its own (timeout, reset, interrupted):
    /// retried by [`RetrySink`](crate::RetrySink), and tolerated
    /// [`quarantine_after`](HealthPolicy::quarantine_after) times in a
    /// row before quarantine.
    Transient,
    /// Will not improve with repetition (permission denied, invalid
    /// data, unsupported): never retried, quarantines immediately.
    Fatal,
}

/// Classifies an I/O error by [`io::ErrorKind`]: connectivity and timing
/// kinds are [`ErrorClass::Transient`]; configuration and data kinds are
/// [`ErrorClass::Fatal`]. Unknown kinds (including [`io::Error::other`])
/// default to transient — optimism costs a few retries, pessimism
/// permanently quarantines a sink over a hiccup.
pub fn classify_io_error(error: &io::Error) -> ErrorClass {
    use io::ErrorKind as K;
    match error.kind() {
        K::NotFound
        | K::PermissionDenied
        | K::AlreadyExists
        | K::InvalidInput
        | K::InvalidData
        | K::Unsupported => ErrorClass::Fatal,
        _ => ErrorClass::Transient,
    }
}

/// Thresholds of the sink health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive transient failures before a sink is quarantined (a
    /// fatal error quarantines immediately). Must be at least 1.
    pub quarantine_after: u32,
    /// Sealed epochs a quarantined sink skips between recovery probes.
    /// `0` probes on every sealed epoch (quarantine then only suppresses
    /// error parking, not export attempts).
    pub probe_interval: u64,
}

impl Default for HealthPolicy {
    /// Three strikes, probe every fourth epoch.
    fn default() -> Self {
        HealthPolicy {
            quarantine_after: 3,
            probe_interval: 4,
        }
    }
}

/// A point-in-time view of one sink's health, returned by
/// [`EpochRotator::sink_health`](crate::EpochRotator::sink_health).
#[derive(Debug, Clone)]
pub struct SinkStatus {
    /// Attach order of the sink in its set.
    pub index: usize,
    /// Current state-machine position.
    pub health: SinkHealth,
    /// Transient failures since the last successful export.
    pub consecutive_failures: u32,
    /// Every failed export or flush, cumulative.
    pub total_errors: u64,
    /// Sealed epochs skipped while quarantined (not attempted).
    pub skipped_epochs: u64,
    /// Records inside skipped epochs — what this sink's consumer lost.
    pub skipped_records: u64,
    /// Times a recovery probe returned the sink to [`SinkHealth::Healthy`].
    pub recoveries: u64,
    /// Message of the most recent error, if any failure was ever seen.
    pub last_error: Option<String>,
}

/// Every sink error of a collection run, in occurrence order — the
/// multi-error result of `finish_sinks` that replaces first-error
/// parking. Converts into [`io::Error`] (carrying the full list in its
/// message) so existing `?`-style call sites keep compiling.
#[derive(Debug)]
pub struct SinkErrors {
    errors: Vec<(usize, io::Error)>,
}

impl SinkErrors {
    /// At most this many errors are parked per run; later ones are still
    /// counted and drive the health machine but their payloads are
    /// discarded, so an unattended sink cannot grow memory without bound.
    pub const MAX_PARKED: usize = 32;

    pub(crate) fn new(errors: Vec<(usize, io::Error)>) -> Self {
        SinkErrors { errors }
    }

    /// Number of parked errors.
    pub fn len(&self) -> usize {
        self.errors.len()
    }

    /// Whether no errors were parked.
    pub fn is_empty(&self) -> bool {
        self.errors.is_empty()
    }

    /// Iterates `(sink_index, error)` in occurrence order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &io::Error)> {
        self.errors.iter().map(|(i, e)| (*i, e))
    }

    /// Consumes the report, returning the parked errors.
    pub fn into_vec(self) -> Vec<(usize, io::Error)> {
        self.errors
    }
}

impl std::fmt::Display for SinkErrors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} sink error(s)", self.errors.len())?;
        for (index, error) in &self.errors {
            write!(f, "; sink {index}: {error}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SinkErrors {}

impl From<SinkErrors> for io::Error {
    fn from(errors: SinkErrors) -> io::Error {
        io::Error::other(errors.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_splits_kinds() {
        let transient = [
            io::ErrorKind::TimedOut,
            io::ErrorKind::Interrupted,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::Other,
        ];
        for kind in transient {
            assert_eq!(
                classify_io_error(&io::Error::new(kind, "x")),
                ErrorClass::Transient,
                "{kind:?}"
            );
        }
        let fatal = [
            io::ErrorKind::NotFound,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::InvalidInput,
            io::ErrorKind::InvalidData,
            io::ErrorKind::Unsupported,
        ];
        for kind in fatal {
            assert_eq!(
                classify_io_error(&io::Error::new(kind, "x")),
                ErrorClass::Fatal,
                "{kind:?}"
            );
        }
    }

    #[test]
    fn sink_errors_render_every_entry() {
        let errs = SinkErrors::new(vec![
            (0, io::Error::other("wire cut")),
            (
                2,
                io::Error::new(io::ErrorKind::PermissionDenied, "readonly"),
            ),
        ]);
        assert_eq!(errs.len(), 2);
        assert!(!errs.is_empty());
        let text = errs.to_string();
        assert!(text.contains("2 sink error(s)"));
        assert!(text.contains("sink 0: wire cut"));
        assert!(text.contains("sink 2: readonly"));
        let io: io::Error = errs.into();
        assert!(io.to_string().contains("wire cut"));
    }

    #[test]
    fn health_labels() {
        assert_eq!(SinkHealth::Healthy.label(), "healthy");
        assert_eq!(SinkHealth::Degraded.label(), "degraded");
        assert_eq!(SinkHealth::Quarantined.label(), "quarantined");
        assert_eq!(SinkHealth::default(), SinkHealth::Healthy);
    }
}
