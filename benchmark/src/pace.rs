//! The open-loop schedule of the load generator.
//!
//! Item `i` is due at `i × period` after the start, whatever the system
//! under test does. A generator that fell behind (a host stall, a slow
//! reply) catches up at no more than [`CATCH_UP`] times the nominal rate,
//! so its own stall is not turned into a burst that overflows a socket
//! buffer; how late it ran is reported, not hidden.

use std::time::{Duration, Instant};

/// Highest send rate while catching up, as a multiple of the nominal rate.
pub const CATCH_UP: u64 = 4;

#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    period_ns: u64,
}

impl Schedule {
    /// `rate` items per second.
    pub fn per_second(rate: f64) -> Self {
        Schedule {
            period_ns: (1e9 / rate).round().max(1.0) as u64,
        }
    }

    /// When item `i` is due, in nanoseconds after the start.
    pub fn due_ns(&self, i: u64) -> u64 {
        i * self.period_ns
    }

    /// When item `i` is to be sent, given when the previous item actually
    /// went out: its due time, or later if that would exceed the
    /// catch-up rate.
    pub fn send_at_ns(&self, i: u64, previous_sent_ns: Option<u64>) -> u64 {
        let earliest = previous_sent_ns.map_or(0, |p| p + self.period_ns / CATCH_UP);
        self.due_ns(i).max(earliest)
    }
}

/// Sleeps until `at_ns` after `origin` (returns at once if already past)
/// and returns the time it actually is.
pub fn sleep_until(origin: Instant, at_ns: u64) -> u64 {
    let now = origin.elapsed().as_nanos() as u64;
    if at_ns > now {
        std::thread::sleep(Duration::from_nanos(at_ns - now));
        return origin.elapsed().as_nanos() as u64;
    }
    now
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate() {
        let s = Schedule::per_second(50.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 20_000_000);
        assert_eq!(s.due_ns(50), 1_000_000_000);
        // 250 kpps in 256-packet datagrams.
        let s = Schedule::per_second(250_000.0 / 256.0);
        assert_eq!(s.due_ns(1), 1_024_000);
    }

    #[test]
    fn an_on_time_generator_sends_at_the_due_times() {
        let s = Schedule::per_second(1000.0);
        let mut previous = None;
        for i in 0..10 {
            let at = s.send_at_ns(i, previous);
            assert_eq!(at, s.due_ns(i));
            previous = Some(at);
        }
    }

    #[test]
    fn catch_up_after_a_stall_is_capped_at_four_times_nominal() {
        // A 1 ms period. Item 0 went out 100 ms late; the generator then
        // runs flat out.
        let s = Schedule::per_second(1000.0);
        let mut previous = Some(100_000_000);
        let mut sent = Vec::new();
        for i in 1..=200 {
            let at = s.send_at_ns(i, previous);
            sent.push(at);
            previous = Some(at);
        }
        // While behind, consecutive sends are exactly a quarter period apart.
        assert_eq!(sent[0], 100_250_000);
        assert_eq!(sent[1] - sent[0], 250_000);
        // Catching up 100 ms at 3 ms gained per 4 sends takes ~133 sends;
        // after that the due times rule again.
        let caught_up = sent
            .iter()
            .enumerate()
            .position(|(k, &at)| at == s.due_ns(k as u64 + 1))
            .expect("catches up");
        assert!((130..=136).contains(&caught_up), "{caught_up}");
        assert_eq!(sent[199], s.due_ns(200));
    }
}
