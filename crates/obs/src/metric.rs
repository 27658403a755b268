//! The three metric primitives: [`Counter`], [`Gauge`] and [`Histogram`],
//! plus the [`ScopedTimer`] guard that feeds histograms.
//!
//! All three are cheap cloneable *handles* over shared atomic state: a
//! clone observes (and updates) the same underlying values, which is what
//! lets one handle live inside a shard worker thread while the registry
//! keeps another for exposition. Updates use relaxed atomics only — the
//! hot path pays one uncontended read-modify-write per update and nothing
//! else (no locks, no allocation, no global state).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonically increasing event count (packets ingested, epochs
/// sealed, answers dropped).
///
/// # Examples
///
/// ```
/// use hashflow_obs::Counter;
///
/// let c = Counter::new();
/// let handle = c.clone(); // same underlying count
/// handle.inc();
/// handle.add(41);
/// assert_eq!(c.get(), 42);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero. Exposition treats counters as cumulative, so this
    /// is only for components whose own `reset()` contract requires
    /// clearing accumulated state (scrape consumers handle counter resets
    /// the same way they handle process restarts).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A value that can go up and down (queue depth, live epoch number).
///
/// # Examples
///
/// ```
/// use hashflow_obs::Gauge;
///
/// let g = Gauge::new();
/// g.set(7);
/// g.sub(2);
/// g.add(1);
/// assert_eq!(g.get(), 6);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` to the gauge.
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from the gauge.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`]: one for zero plus one per power
/// of two up to `2^63`, with the last bucket catching everything above.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket log2 histogram of `u64` observations (latencies in
/// nanoseconds, batch sizes).
///
/// Bucket `0` holds the value `0`; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i)`; the last bucket holds everything from `2^63` up. An
/// observation is three relaxed atomic adds into a fixed array — no
/// locks, no allocation — so histograms are safe on per-batch hot paths
/// and across shard worker threads.
///
/// # Examples
///
/// ```
/// use hashflow_obs::Histogram;
///
/// let h = Histogram::new();
/// h.observe(0); // bucket 0
/// h.observe(5); // [4, 8) -> bucket 3
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.sum(), 5);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Index of the bucket holding `value`: `0` for zero, else
    /// `floor(log2(value)) + 1`, saturating at the last bucket.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// Inclusive upper bound of bucket `index` (`u64::MAX` for the last).
    ///
    /// # Panics
    ///
    /// Panics if `index >= HISTOGRAM_BUCKETS`.
    pub fn bucket_upper_bound(index: usize) -> u64 {
        assert!(index < HISTOGRAM_BUCKETS, "bucket index out of range");
        if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, value: u64) {
        let i = Self::bucket_index(value);
        self.inner.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a [`ScopedTimer`] that records the elapsed nanoseconds into
    /// this histogram when dropped.
    pub fn start_timer(&self) -> ScopedTimer {
        ScopedTimer {
            histogram: self.clone(),
            start: Instant::now(),
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket observation counts (not cumulative).
    ///
    /// Reads are relaxed and per-cell, so a snapshot taken while writers
    /// are active may be torn across cells; totals reconcile once writers
    /// quiesce.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The value at quantile `q` in `[0, 1]`, as the inclusive upper
    /// bound of the log2 bucket holding the `ceil(q·count)`-th smallest
    /// observation — an upper estimate with at most one-bucket (2×)
    /// resolution, like any fixed-bucket quantile. `q <= 0` answers from
    /// the first non-empty bucket, `q >= 1` from the last. Returns `None`
    /// when the histogram is empty.
    ///
    /// # Examples
    ///
    /// ```
    /// use hashflow_obs::Histogram;
    ///
    /// let h = Histogram::new();
    /// for v in [1u64, 2, 3, 1000] {
    ///     h.observe(v);
    /// }
    /// assert_eq!(h.value_at_quantile(0.5), Some(3)); // bucket [2, 4)
    /// assert_eq!(h.value_at_quantile(0.99), Some(1023)); // bucket [512, 1024)
    /// ```
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        quantile_from_buckets(&self.bucket_counts(), q)
    }
}

/// Shared quantile walk over per-bucket (non-cumulative) log2 counts —
/// the single implementation behind [`Histogram::value_at_quantile`] and
/// [`crate::HistogramSnapshot::value_at_quantile`], so live handles and
/// snapshots can never disagree.
pub(crate) fn quantile_from_buckets(buckets: &[u64], q: f64) -> Option<u64> {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    // Rank of the target observation, 1-based: ceil(q * total), clamped
    // so q = 0 still lands on the first observation.
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        cumulative += c;
        if cumulative >= target {
            return Some(Histogram::bucket_upper_bound(i.min(HISTOGRAM_BUCKETS - 1)));
        }
    }
    Some(u64::MAX)
}

/// A drop guard that measures a scope's wall-clock duration and records
/// it (in nanoseconds) into a [`Histogram`].
///
/// Purely `Instant`-based: no thread-locals, no global clock state, so
/// timers on different shard workers never interfere.
///
/// # Examples
///
/// ```
/// use hashflow_obs::Histogram;
///
/// let h = Histogram::new();
/// {
///     let _timer = h.start_timer();
///     // ... timed work ...
/// } // timer drops here and records the elapsed nanoseconds
/// assert_eq!(h.count(), 1);
/// ```
#[derive(Debug)]
pub struct ScopedTimer {
    histogram: Histogram,
    start: Instant,
}

impl ScopedTimer {
    /// Stops the timer early, recording the elapsed nanoseconds now.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_nanos();
        self.histogram
            .observe(u64::try_from(elapsed).unwrap_or(u64::MAX));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_state() {
        let c = Counter::new();
        let h = c.clone();
        c.inc();
        h.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(h.get(), 10);
        c.reset();
        assert_eq!(h.get(), 0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(5);
        g.sub(8);
        assert_eq!(g.get(), -3);
        g.set(12);
        assert_eq!(g.get(), 12);
    }

    #[test]
    fn log2_bucket_boundaries() {
        // Bucket 0 is exactly the value zero.
        assert_eq!(Histogram::bucket_index(0), 0);
        // Bucket i >= 1 covers [2^(i-1), 2^i): both edges land where the
        // closed-form says they must.
        for i in 1..64usize {
            let lo = 1u64 << (i - 1);
            assert_eq!(Histogram::bucket_index(lo), i, "lower edge of bucket {i}");
            let hi = Histogram::bucket_upper_bound(i);
            assert_eq!(hi, (1u64 << i) - 1);
            assert_eq!(Histogram::bucket_index(hi), i, "upper edge of bucket {i}");
            assert_eq!(
                Histogram::bucket_index(hi + 1),
                i + 1,
                "first value past bucket {i}"
            );
        }
        // The last bucket saturates at u64::MAX.
        assert_eq!(Histogram::bucket_index(1u64 << 63), 64);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_accumulates_sum_count_and_buckets() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        let buckets = h.bucket_counts();
        assert_eq!(buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(buckets[0], 1); // 0
        assert_eq!(buckets[1], 1); // 1
        assert_eq!(buckets[2], 2); // 2, 3
        assert_eq!(buckets[3], 1); // 4
        assert_eq!(buckets[10], 1); // 1000 in [512, 1024)
        assert_eq!(buckets.iter().sum::<u64>(), h.count());
    }

    #[test]
    fn quantiles_at_bucket_edges() {
        let h = Histogram::new();
        assert_eq!(h.value_at_quantile(0.5), None, "empty histogram");
        // 4 observations: 0 (bucket 0), 1 (bucket 1), 8 (bucket 4,
        // upper bound 15), 1u64<<63 (last bucket, unbounded).
        for v in [0u64, 1, 8, 1u64 << 63] {
            h.observe(v);
        }
        // Rank math: ceil(q*4) picks observation #1..#4.
        assert_eq!(h.value_at_quantile(0.0), Some(0), "q=0 is the minimum");
        assert_eq!(h.value_at_quantile(0.25), Some(0), "rank 1");
        assert_eq!(h.value_at_quantile(0.26), Some(1), "rank 2");
        assert_eq!(h.value_at_quantile(0.5), Some(1), "rank 2 exactly");
        assert_eq!(h.value_at_quantile(0.75), Some(15), "rank 3: [8,16)");
        assert_eq!(h.value_at_quantile(0.76), Some(u64::MAX), "last bucket");
        assert_eq!(h.value_at_quantile(1.0), Some(u64::MAX));
        assert_eq!(h.value_at_quantile(2.0), Some(u64::MAX), "clamped above");
        assert_eq!(h.value_at_quantile(-1.0), Some(0), "clamped below");
    }

    #[test]
    fn quantile_within_one_bucket_of_exact() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        // p50 exact = 500, bucket [256, 512) upper bound 511.
        assert_eq!(h.value_at_quantile(0.5), Some(511));
        // p99 exact = 990, bucket [512, 1024) upper bound 1023.
        assert_eq!(h.value_at_quantile(0.99), Some(1023));
    }

    #[test]
    fn scoped_timer_records_on_drop() {
        let h = Histogram::new();
        h.start_timer().stop();
        {
            let _t = h.start_timer();
        }
        assert_eq!(h.count(), 2);
    }
}
