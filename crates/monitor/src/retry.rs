//! Bounded, deterministic retry for flaky export sinks.
//!
//! [`RetrySink`] wraps any [`RecordSink`] and re-attempts failed exports
//! (and the final flush) with exponential backoff and seeded jitter.
//! Retrying sits *below* the rotation layer's sink health machine:
//! the wrapper absorbs short blips (a collector restarting, a socket
//! reset) so they never surface as errors at all, while persistent
//! failures still bubble up — classified, counted and quarantined — after
//! the attempt budget is spent. Fatal errors ([`ErrorClass::Fatal`]) are
//! never retried: repetition cannot fix a permission problem.
//!
//! Backoff delays are fully deterministic for a given
//! [`RetryPolicy::jitter_seed`], so chaos tests replay exactly and two
//! collectors started with different seeds do not thundering-herd a
//! shared export target in lockstep.

use crate::{classify_io_error, EpochSnapshot, ErrorClass, RecordSink};
use std::io;
use std::time::Duration;

/// splitmix64 step — the same tiny generator the trace synthesizer uses;
/// good enough to decorrelate backoff delays, no dependency needed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Attempt budget and backoff shape for a [`RetrySink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per export, including the first (`1` disables
    /// retrying). Must be at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each subsequent retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff delay (pre-jitter).
    pub max_delay: Duration,
    /// Seed for the deterministic jitter stream. Two sinks with
    /// different seeds back off at decorrelated times.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    /// Three attempts: 10 ms base, capped at 500 ms.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            jitter_seed: 0x4854_464c_4f57_u64, // "HTFLOW"
        }
    }
}

impl RetryPolicy {
    /// A policy that retries `max_attempts` times with **zero** delay —
    /// for tests and chaos harnesses where wall-clock sleeping is noise.
    pub fn no_delay(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: 0,
        }
    }
}

/// A [`RecordSink`] decorator retrying transient failures with bounded,
/// deterministic exponential backoff (see the module docs).
///
/// # Examples
///
/// ```
/// use hashflow_monitor::{MemorySink, RetryPolicy, RetrySink};
///
/// let sink = RetrySink::new(MemorySink::new(), RetryPolicy::no_delay(5));
/// assert_eq!(sink.retries_performed(), 0);
/// ```
#[derive(Debug)]
pub struct RetrySink<S> {
    inner: S,
    policy: RetryPolicy,
    rng_state: u64,
    retries: u64,
    exhausted: u64,
}

impl<S: RecordSink> RetrySink<S> {
    /// Wraps `inner` under the given retry policy.
    pub fn new(inner: S, policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "max_attempts must be at least 1");
        RetrySink {
            inner,
            rng_state: policy.jitter_seed,
            policy,
            retries: 0,
            exhausted: 0,
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

    /// Retry attempts performed so far (excludes first attempts).
    pub fn retries_performed(&self) -> u64 {
        self.retries
    }

    /// Operations that still failed after the full attempt budget (or
    /// failed fatally on the first attempt).
    pub fn budget_exhausted(&self) -> u64 {
        self.exhausted
    }

    /// The deterministic backoff before retry number `retry` (0-based):
    /// `min(base << retry, max)` scaled by a jitter factor in
    /// `[0.5, 1.0)` drawn from the seeded stream.
    fn backoff(&mut self, retry: u32) -> Duration {
        let base = self.policy.base_delay.as_nanos() as u64;
        let cap = self.policy.max_delay.as_nanos() as u64;
        let exp = base.checked_shl(retry).unwrap_or(u64::MAX).min(cap);
        // Jitter in [0.5, 1.0): decorrelates sinks without ever removing
        // more than half the intended backoff.
        let draw = splitmix64(&mut self.rng_state) >> 11; // 53 random bits
        let factor = 0.5 + (draw as f64) / (1u64 << 53) as f64 * 0.5;
        Duration::from_nanos((exp as f64 * factor) as u64)
    }

    /// Runs `op` under the retry budget.
    fn with_retries(&mut self, mut op: impl FnMut(&mut S) -> io::Result<()>) -> io::Result<()> {
        let mut attempt = 0u32;
        loop {
            match op(&mut self.inner) {
                Ok(()) => return Ok(()),
                Err(error) => {
                    let fatal = classify_io_error(&error) == ErrorClass::Fatal;
                    attempt += 1;
                    if fatal || attempt >= self.policy.max_attempts {
                        self.exhausted += 1;
                        return Err(error);
                    }
                    let delay = self.backoff(attempt - 1);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    self.retries += 1;
                }
            }
        }
    }
}

impl<S: RecordSink> RecordSink for RetrySink<S> {
    fn export_epoch(&mut self, snapshot: &EpochSnapshot) -> io::Result<()> {
        self.with_retries(|inner| inner.export_epoch(snapshot))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.with_retries(|inner| inner.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySink;
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

    struct CountingSink {
        fail_first: u64,
        kind: io::ErrorKind,
        attempts: u64,
        delivered: u64,
    }

    impl RecordSink for CountingSink {
        fn export_epoch(&mut self, _s: &EpochSnapshot) -> io::Result<()> {
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
    fn transient_failures_are_retried_within_budget() {
        let inner = CountingSink {
            fail_first: 2,
            kind: io::ErrorKind::TimedOut,
            attempts: 0,
            delivered: 0,
        };
        let mut sink = RetrySink::new(inner, RetryPolicy::no_delay(3));
        sink.export_epoch(&snapshot(0, 1)).unwrap();
        assert_eq!(sink.inner().attempts, 3);
        assert_eq!(sink.inner().delivered, 1);
        assert_eq!(sink.retries_performed(), 2);
        assert_eq!(sink.budget_exhausted(), 0);
    }

    #[test]
    fn budget_exhaustion_surfaces_the_error() {
        let inner = CountingSink {
            fail_first: u64::MAX,
            kind: io::ErrorKind::TimedOut,
            attempts: 0,
            delivered: 0,
        };
        let mut sink = RetrySink::new(inner, RetryPolicy::no_delay(4));
        let err = sink.export_epoch(&snapshot(0, 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(sink.inner().attempts, 4);
        assert_eq!(sink.budget_exhausted(), 1);
    }

    #[test]
    fn fatal_errors_are_not_retried() {
        let inner = CountingSink {
            fail_first: u64::MAX,
            kind: io::ErrorKind::PermissionDenied,
            attempts: 0,
            delivered: 0,
        };
        let mut sink = RetrySink::new(inner, RetryPolicy::no_delay(5));
        assert!(sink.export_epoch(&snapshot(0, 1)).is_err());
        assert_eq!(sink.inner().attempts, 1);
        assert_eq!(sink.retries_performed(), 0);
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            jitter_seed: 42,
        };
        let mut a = RetrySink::new(MemorySink::new(), policy);
        let mut b = RetrySink::new(MemorySink::new(), policy);
        for retry in 0..6 {
            let da = a.backoff(retry);
            let db = b.backoff(retry);
            assert_eq!(da, db, "same seed must replay the same delays");
            assert!(da <= Duration::from_millis(80), "delay {da:?} exceeds cap");
            // Jitter scales by [0.5, 1.0): at least half the pre-jitter
            // exponential delay survives.
            let exp = Duration::from_millis((10u64 << retry).min(80));
            assert!(da >= exp / 2, "jitter must not erase the backoff");
        }
        let mut c = RetrySink::new(
            MemorySink::new(),
            RetryPolicy {
                jitter_seed: 43,
                ..policy
            },
        );
        let delays_a: Vec<Duration> = (0..6).map(|r| a.backoff(r)).collect();
        let delays_c: Vec<Duration> = (0..6).map(|r| c.backoff(r)).collect();
        assert_ne!(delays_a, delays_c, "different seeds must decorrelate");
    }

    #[test]
    fn retry_applies_to_finish_too() {
        struct FlakyFlush {
            flush_attempts: u64,
        }
        impl RecordSink for FlakyFlush {
            fn export_epoch(&mut self, _s: &EpochSnapshot) -> io::Result<()> {
                Ok(())
            }
            fn finish(&mut self) -> io::Result<()> {
                self.flush_attempts += 1;
                if self.flush_attempts < 3 {
                    Err(io::Error::new(io::ErrorKind::Interrupted, "flush blip"))
                } else {
                    Ok(())
                }
            }
        }
        let mut sink = RetrySink::new(FlakyFlush { flush_attempts: 0 }, RetryPolicy::no_delay(3));
        sink.finish().unwrap();
        assert_eq!(sink.inner().flush_attempts, 3);
    }
}
