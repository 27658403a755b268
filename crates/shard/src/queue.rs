//! A bounded multi-producer/multi-consumer queue of *batches*, built on
//! `Mutex` + `Condvar` only (no unsafe, no external crates).
//!
//! The sharded ingestion path moves packets from one dispatcher thread to
//! `N` worker threads. Handing packets over one at a time would spend more
//! time on lock traffic than on measurement, so the unit of transfer is a
//! batch (a `Vec` of items, or whatever the owner pairs with one — the
//! daemon's batches carry their plans): the dispatcher accumulates
//! [`crate::BATCH_PACKETS`] packets per shard before publishing them, and
//! the queue bounds how many batches may be in flight so a slow shard
//! back-pressures the dispatcher instead of buffering the whole trace.
//!
//! A notify is a syscall (`FUTEX_WAKE`) whether or not a thread waits on
//! the condvar, so the queue counts the threads parked on each condvar
//! and notifies only when one is: a producer and a consumer that keep
//! pace hand batches over without entering the kernel.

use hashflow_monitor::BackpressurePolicy;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long [`BatchQueue::pop_deadline`] polls an empty queue, yielding
/// between looks, before it parks on the condvar.
///
/// A consumer about as fast as its producer finds the queue empty now and
/// then. If it parks at once, the next `offer` has to wake it, the kernel
/// places the woken thread on the waker's core, it handles the one batch
/// and parks again: producer and consumer take turns on one core, one
/// batch per wake-up, while the other core idles, and they stay that way
/// for seconds (the daemon at 16 Mpackets/s: thousands of parks a second,
/// whole 250 ms slots at 10). Polling for a few batch-times first keeps
/// the consumer runnable, so a producer on the same core gets the core by
/// the yield and the idle core takes one of the two. It costs a consumer
/// with nothing to do this much per wake-up.
const POP_POLL: Duration = Duration::from_micros(50);

/// The outcome of a policy-aware [`BatchQueue::offer`].
///
/// Returned batches come back to the *producer* so it can account every
/// shed item (the queue itself never counts — accounting belongs to the
/// [`hashflow_monitor::DropStats`] ledger of the stage that owns the
/// queue).
#[derive(Debug, PartialEq, Eq)]
#[must_use = "rejected batches must be accounted as drops"]
pub enum PushOutcome<B> {
    /// The batch was enqueued (after blocking, for
    /// [`BackpressurePolicy::Block`]).
    Enqueued,
    /// The arriving batch was not enqueued — the queue is closed, or it
    /// was full under [`BackpressurePolicy::DropNewest`] (and `Block`
    /// degrades to rejection on a closed queue).
    Rejected(B),
}

/// The outcome of a bounded wait on [`BatchQueue::pop_deadline`].
#[derive(Debug, PartialEq, Eq)]
pub enum PopOutcome<B> {
    /// A batch was dequeued before the deadline.
    Batch(B),
    /// The wait elapsed with the queue still open and empty. The consumer
    /// should run its periodic work (timer checks, command drains) and
    /// call again.
    TimedOut,
    /// The queue is closed *and* drained — no batch will ever arrive.
    Closed,
}

/// A [`BoundedQueue`] of `Vec<T>` batches: the queue the shard workers
/// and the dispatcher's free-list use.
///
/// # Examples
///
/// ```
/// use hashflow_monitor::BackpressurePolicy;
/// use hashflow_shard::{BatchQueue, PushOutcome};
///
/// let q: BatchQueue<u32> = BatchQueue::new(2);
/// let outcome = q.offer(vec![1, 2, 3], BackpressurePolicy::Block);
/// assert_eq!(outcome, PushOutcome::Enqueued);
/// q.close();
/// assert_eq!(q.pop(), Some(vec![1, 2, 3]));
/// assert_eq!(q.pop(), None); // closed and drained
/// ```
pub type BatchQueue<T> = BoundedQueue<Vec<T>>;

/// A bounded blocking queue of batches with explicit shutdown. A batch is
/// whatever the owner hands over whole: a `Vec` of items
/// ([`BatchQueue`]), or one paired with what travels with it.
#[derive(Debug)]
pub struct BoundedQueue<B> {
    state: Mutex<State<B>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct State<B> {
    batches: VecDeque<B>,
    closed: bool,
    /// Consumers parked on `not_empty` (in `pop` or `pop_deadline`'s
    /// timed wait; not in its yield-poll phase).
    consumers_parked: usize,
    /// Producers parked on `not_full` (in a `Block` `offer`).
    producers_parked: usize,
}

impl<B> BoundedQueue<B> {
    /// Creates a queue holding at most `capacity` in-flight batches.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` (a zero-capacity queue deadlocks by
    /// construction).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "batch queue capacity must be positive");
        BoundedQueue {
            state: Mutex::new(State {
                batches: VecDeque::with_capacity(capacity),
                closed: false,
                consumers_parked: 0,
                producers_parked: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// Maximum number of in-flight batches.
    pub const fn capacity(&self) -> usize {
        self.capacity
    }

    /// Batches currently in flight (pushed, not yet popped). A racing
    /// producer or consumer can change the answer immediately — use it
    /// for diagnostics, not for flow control.
    pub fn len(&self) -> usize {
        self.lock().batches.len()
    }

    /// Whether no batches are currently in flight (same caveat as
    /// [`Self::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dequeues the next batch, blocking while the queue is empty.
    /// Returns `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<B> {
        let mut state = self.lock();
        loop {
            if let Some(batch) = state.batches.pop_front() {
                self.emptied(state);
                return Some(batch);
            }
            if state.closed {
                return None;
            }
            state.consumers_parked += 1;
            state = self.not_empty.wait(state).expect("queue mutex poisoned");
            state.consumers_parked -= 1;
        }
    }

    /// Bounded-wait [`Self::pop`]: dequeues the next batch, waiting at
    /// most `timeout`. This is the loop primitive for a consumer that
    /// must interleave queue service with wall-clock work (an epoch
    /// timer, a command channel): it blocks while idle yet is guaranteed
    /// to return by the deadline even if no producer ever shows up. An
    /// empty queue is polled for 50 µs before the thread parks.
    pub fn pop_deadline(&self, timeout: Duration) -> PopOutcome<B> {
        let start = Instant::now();
        let deadline = start + timeout;
        let park_after = deadline.min(start + POP_POLL);
        let mut state = self.lock();
        loop {
            if let Some(batch) = state.batches.pop_front() {
                self.emptied(state);
                return PopOutcome::Batch(batch);
            }
            if state.closed {
                return PopOutcome::Closed;
            }
            let now = Instant::now();
            if now >= deadline {
                return PopOutcome::TimedOut;
            }
            if now < park_after {
                // A yield, not a pause: the producer may be waiting for
                // this core.
                drop(state);
                std::thread::yield_now();
                state = self.lock();
                continue;
            }
            state.consumers_parked += 1;
            let (next, _timed_out) = self
                .not_empty
                .wait_timeout(state, deadline - now)
                .expect("queue mutex poisoned");
            state = next;
            state.consumers_parked -= 1;
        }
    }

    /// Non-blocking enqueue: only if there is room right now. Returns
    /// `false` — dropping the batch — when the queue is full or closed.
    /// This is what a best-effort recycling path wants: losing a spare
    /// buffer only costs a future allocation.
    pub fn try_push(&self, batch: B) -> bool {
        let mut state = self.lock();
        if state.closed || state.batches.len() >= self.capacity {
            return false;
        }
        state.batches.push_back(batch);
        self.filled(state);
        true
    }

    /// Policy-aware enqueue: the uniform backpressure contract applied
    /// to a live producer/consumer queue.
    ///
    /// - [`BackpressurePolicy::Block`] waits for room, honoured literally
    ///   because a consumer drains this queue concurrently. A queue that
    ///   is (or becomes) closed rejects instead: its consumer is gone, and
    ///   waiting on it would deadlock the producer.
    /// - [`BackpressurePolicy::DropNewest`] behaves like
    ///   [`Self::try_push`] but returns the batch for accounting.
    ///
    /// A closed queue rejects under every policy. The caller owns the
    /// accounting of whatever comes back (see [`PushOutcome`]).
    pub fn offer(&self, batch: B, policy: BackpressurePolicy) -> PushOutcome<B> {
        let mut state = self.lock();
        if let BackpressurePolicy::Block = policy {
            state = self.wait_for_room(state);
        }
        // Past a `Block` wait the queue has room or is closed.
        if state.closed || state.batches.len() >= self.capacity {
            return PushOutcome::Rejected(batch);
        }
        state.batches.push_back(batch);
        self.filled(state);
        PushOutcome::Enqueued
    }

    /// Non-blocking [`Self::pop`]: returns `None` immediately when the
    /// queue is currently empty (whether or not it is closed).
    pub fn try_pop(&self) -> Option<B> {
        let mut state = self.lock();
        let batch = state.batches.pop_front()?;
        self.emptied(state);
        Some(batch)
    }

    /// Marks the queue closed: blocked and future `pop`s return `None`
    /// once the backlog drains, and blocked and future `offer`s reject
    /// their batch.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        drop(state);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    fn lock(&self) -> MutexGuard<'_, State<B>> {
        self.state.lock().expect("queue mutex poisoned")
    }

    /// Parks a producer on `not_full`, counted, until the queue has room
    /// or is closed.
    fn wait_for_room<'a>(&self, mut state: MutexGuard<'a, State<B>>) -> MutexGuard<'a, State<B>> {
        while state.batches.len() >= self.capacity && !state.closed {
            state.producers_parked += 1;
            state = self.not_full.wait(state).expect("queue mutex poisoned");
            state.producers_parked -= 1;
        }
        state
    }

    /// Releases the lock after a batch was enqueued, then wakes one
    /// consumer if any is parked. The count is read under the lock a
    /// consumer increments it under before it waits, so a consumer either
    /// saw the batch or is counted here: no wakeup is lost.
    fn filled(&self, state: MutexGuard<'_, State<B>>) {
        let wake = state.consumers_parked > 0;
        drop(state);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Releases the lock after a batch was dequeued, then wakes one
    /// producer if any is parked (the mirror of [`Self::filled`]).
    fn emptied(&self, state: MutexGuard<'_, State<B>>) {
        let wake = state.producers_parked > 0;
        drop(state);
        if wake {
            self.not_full.notify_one();
        }
    }

    /// `(consumers, producers)` parked right now, for tests that must
    /// know a thread is asleep before they wake it.
    #[cfg(test)]
    fn parked(&self) -> (usize, usize) {
        let state = self.lock();
        (state.consumers_parked, state.producers_parked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A blocking enqueue: whether `offer` under `Block` took the batch.
    fn block<T>(q: &BatchQueue<T>, batch: Vec<T>) -> bool {
        matches!(
            q.offer(batch, BackpressurePolicy::Block),
            PushOutcome::Enqueued
        )
    }

    #[test]
    fn fifo_within_and_across_batches() {
        let q = BatchQueue::new(4);
        assert!(block(&q, vec![1, 2]));
        assert!(block(&q, vec![3]));
        q.close();
        assert_eq!(q.pop(), Some(vec![1, 2]));
        assert_eq!(q.pop(), Some(vec![3]));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None, "pop after drain stays None");
    }

    #[test]
    fn bounded_push_backpressures_until_pop() {
        let q = BatchQueue::new(1);
        let popped = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                assert!(block(&q, vec![1u32]));
                assert!(block(&q, vec![2])); // must block until the consumer pops
                q.close();
            });
            scope.spawn(|| {
                while let Some(batch) = q.pop() {
                    popped.fetch_add(batch.len(), Ordering::SeqCst);
                }
            });
        });
        assert_eq!(popped.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q: BatchQueue<u8> = BatchQueue::new(2);
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| q.pop());
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.close();
            assert_eq!(handle.join().unwrap(), None);
        });
    }

    #[test]
    fn push_after_close_drops_batch() {
        let q = BatchQueue::new(1);
        q.close();
        assert!(!block(&q, vec![1u8]));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_unblocks_a_full_queue_producer() {
        // The panicking-worker scenario: the producer is blocked on a
        // full queue when the consumer dies and closes it. The offer must
        // reject the batch instead of waiting forever.
        let q = BatchQueue::new(1);
        assert!(block(&q, vec![1u8]));
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| block(&q, vec![2]));
            std::thread::sleep(std::time::Duration::from_millis(10));
            q.close();
            assert!(!blocked.join().unwrap());
        });
    }

    #[test]
    fn len_tracks_in_flight_batches() {
        let q = BatchQueue::new(4);
        assert!(q.is_empty());
        assert!(block(&q, vec![1u8]));
        assert!(block(&q, vec![2]));
        assert_eq!(q.len(), 2);
        q.close();
        let _ = q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn try_ops_never_block() {
        let q = BatchQueue::new(1);
        assert_eq!(q.try_pop(), None, "empty queue pops nothing");
        assert!(q.try_push(vec![1u8]));
        assert!(!q.try_push(vec![2]), "full queue drops the batch");
        assert_eq!(q.try_pop(), Some(vec![1]));
        q.close();
        assert!(!q.try_push(vec![3]), "closed queue drops the batch");
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BatchQueue::<u8>::new(0);
    }

    #[test]
    fn offer_drop_newest_rejects_at_capacity() {
        let q = BatchQueue::new(1);
        assert_eq!(
            q.offer(vec![1u8], BackpressurePolicy::DropNewest),
            PushOutcome::Enqueued
        );
        assert_eq!(
            q.offer(vec![2], BackpressurePolicy::DropNewest),
            PushOutcome::Rejected(vec![2]),
            "the arriving batch comes back for accounting"
        );
        assert_eq!(q.try_pop(), Some(vec![1]));
    }

    #[test]
    fn offer_block_waits_for_room() {
        let q = BatchQueue::new(1);
        assert_eq!(
            q.offer(vec![1u8], BackpressurePolicy::Block),
            PushOutcome::Enqueued
        );
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| q.offer(vec![2], BackpressurePolicy::Block));
            std::thread::sleep(std::time::Duration::from_millis(10));
            assert_eq!(q.try_pop(), Some(vec![1]));
            assert_eq!(blocked.join().unwrap(), PushOutcome::Enqueued);
        });
    }

    #[test]
    fn pop_deadline_times_out_on_an_idle_queue() {
        let q: BatchQueue<u8> = BatchQueue::new(1);
        let started = std::time::Instant::now();
        assert_eq!(
            q.pop_deadline(Duration::from_millis(20)),
            PopOutcome::TimedOut
        );
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn pop_deadline_honours_timeouts_shorter_than_its_polling() {
        let q: BatchQueue<u8> = BatchQueue::new(1);
        assert_eq!(q.pop_deadline(Duration::ZERO), PopOutcome::TimedOut);
        let timeout = POP_POLL / 10;
        let started = std::time::Instant::now();
        assert_eq!(q.pop_deadline(timeout), PopOutcome::TimedOut);
        assert!(started.elapsed() >= timeout);
    }

    #[test]
    fn pop_deadline_returns_batches_then_closed() {
        let q = BatchQueue::new(2);
        assert!(block(&q, vec![1u8]));
        q.close();
        assert_eq!(
            q.pop_deadline(Duration::from_secs(1)),
            PopOutcome::Batch(vec![1])
        );
        assert_eq!(q.pop_deadline(Duration::from_secs(1)), PopOutcome::Closed);
    }

    #[test]
    fn pop_deadline_wakes_on_a_concurrent_push() {
        let q = BatchQueue::new(1);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| q.pop_deadline(Duration::from_secs(5)));
            std::thread::sleep(Duration::from_millis(10));
            assert!(block(&q, vec![9u8]));
            assert_eq!(waiter.join().unwrap(), PopOutcome::Batch(vec![9]));
        });
    }

    #[test]
    fn offer_rejects_on_a_closed_queue_under_every_policy() {
        for policy in BackpressurePolicy::ALL {
            let q = BatchQueue::new(1);
            q.close();
            assert_eq!(
                q.offer(vec![7u8], policy),
                PushOutcome::Rejected(vec![7]),
                "{}",
                policy.label()
            );
        }
    }

    /// How long a wake-up test waits for a thread before it calls the
    /// wakeup lost.
    const HANG: Duration = Duration::from_secs(20);

    /// Spins until `q` reports exactly `(consumers, producers)` parked.
    fn await_parked<T>(q: &BatchQueue<T>, parked: (usize, usize)) {
        let start = Instant::now();
        while q.parked() != parked {
            assert!(
                start.elapsed() < HANG,
                "wanted {parked:?} parked, have {:?}",
                q.parked()
            );
            std::thread::yield_now();
        }
    }

    /// Runs `f` on its own thread and returns its result, failing the
    /// test if it has not returned within [`HANG`]. A thread stuck on a
    /// lost wakeup is left behind rather than joined.
    fn spawn_bounded<R: Send + 'static>(
        f: impl FnOnce() -> R + Send + 'static,
    ) -> std::sync::mpsc::Receiver<R> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx
    }

    #[derive(Clone, Copy, Debug)]
    enum Fill {
        Offer(BackpressurePolicy),
        TryPush,
        Close,
    }

    impl Fill {
        const ALL: [Fill; 4] = [
            Fill::Offer(BackpressurePolicy::Block),
            Fill::Offer(BackpressurePolicy::DropNewest),
            Fill::TryPush,
            Fill::Close,
        ];

        /// Applies the operation; returns the batch a consumer should
        /// now receive (`None` after `Close`).
        fn apply(self, q: &BatchQueue<u32>) -> Option<Vec<u32>> {
            let batch = vec![42];
            match self {
                Fill::Offer(policy) => {
                    assert_eq!(q.offer(batch.clone(), policy), PushOutcome::Enqueued);
                }
                Fill::TryPush => assert!(q.try_push(batch.clone())),
                Fill::Close => {
                    q.close();
                    return None;
                }
            }
            Some(batch)
        }
    }

    #[test]
    fn a_parked_pop_is_woken_by_every_enqueue_and_by_close() {
        for fill in Fill::ALL {
            let q = Arc::new(BatchQueue::<u32>::new(2));
            let consumer = spawn_bounded({
                let q = Arc::clone(&q);
                move || q.pop()
            });
            await_parked(&q, (1, 0));
            let expected = fill.apply(&q);
            let got = consumer.recv_timeout(HANG);
            assert_eq!(got, Ok(expected), "{fill:?} lost the wakeup");
            assert_eq!(q.parked(), (0, 0));
        }
    }

    #[test]
    fn a_parked_pop_deadline_is_woken_by_every_enqueue_and_by_close() {
        for fill in Fill::ALL {
            let q = Arc::new(BatchQueue::<u32>::new(2));
            let consumer = spawn_bounded({
                let q = Arc::clone(&q);
                // Far past the test's own timeout: only a wakeup returns it.
                move || q.pop_deadline(HANG * 10)
            });
            // Counted only once past the yield-poll phase, on the condvar.
            await_parked(&q, (1, 0));
            let expected = match fill.apply(&q) {
                Some(batch) => PopOutcome::Batch(batch),
                None => PopOutcome::Closed,
            };
            let got = consumer.recv_timeout(HANG);
            assert_eq!(got, Ok(expected), "{fill:?} lost the wakeup");
            assert_eq!(q.parked(), (0, 0));
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Drain {
        Pop,
        PopDeadline,
        TryPop,
        Close,
    }

    #[test]
    fn a_blocked_producer_is_woken_by_every_dequeue_and_by_close() {
        for drain in [Drain::Pop, Drain::PopDeadline, Drain::TryPop, Drain::Close] {
            let q = Arc::new(BatchQueue::<u32>::new(1));
            assert!(block(&q, vec![1]));
            let producer = spawn_bounded({
                let q = Arc::clone(&q);
                move || block(&q, vec![2])
            });
            await_parked(&q, (0, 1));
            match drain {
                Drain::Pop => assert_eq!(q.pop(), Some(vec![1])),
                Drain::PopDeadline => {
                    assert_eq!(q.pop_deadline(HANG), PopOutcome::Batch(vec![1]));
                }
                Drain::TryPop => assert_eq!(q.try_pop(), Some(vec![1])),
                Drain::Close => q.close(),
            }
            let enqueued = !matches!(drain, Drain::Close);
            let got = producer.recv_timeout(HANG);
            assert_eq!(got, Ok(enqueued), "{drain:?} lost the wakeup");
            assert_eq!(q.parked(), (0, 0));
            if enqueued {
                assert_eq!(q.try_pop(), Some(vec![2]));
            }
        }
    }

    /// SplitMix64: a seeded stream of operation choices, no dependency.
    struct Choices(u64);

    impl Choices {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    /// Several producers and consumers on a two-batch queue, each picking
    /// a random operation per step, under each policy: every batch is
    /// either delivered to a consumer or handed back to its producer
    /// (rejected, or refused by `try_push`), exactly once.
    #[test]
    fn randomised_producers_and_consumers_account_every_batch_exactly_once() {
        const PRODUCERS: u32 = 3;
        const CONSUMERS: u64 = 3;
        const PER_PRODUCER: u32 = 2_000;
        for (round, policy) in BackpressurePolicy::ALL.into_iter().enumerate() {
            let done = spawn_bounded(move || {
                let q = BatchQueue::<u32>::new(2);
                let (mut seen, shed) = std::thread::scope(|scope| {
                    let consumers: Vec<_> = (0..CONSUMERS)
                        .map(|c| {
                            let q = &q;
                            scope.spawn(move || {
                                let mut rng = Choices(c << 8 | round as u64);
                                let mut got = Vec::new();
                                loop {
                                    match rng.below(3) {
                                        0 => match q.pop() {
                                            Some(b) => got.extend(b),
                                            None => return got,
                                        },
                                        1 => {
                                            let wait = Duration::from_micros(rng.below(200));
                                            match q.pop_deadline(wait) {
                                                PopOutcome::Batch(b) => got.extend(b),
                                                PopOutcome::TimedOut => {}
                                                PopOutcome::Closed => return got,
                                            }
                                        }
                                        _ => match q.try_pop() {
                                            Some(b) => got.extend(b),
                                            None => std::thread::yield_now(),
                                        },
                                    }
                                }
                            })
                        })
                        .collect();
                    let producers: Vec<_> = (0..PRODUCERS)
                        .map(|p| {
                            let q = &q;
                            scope.spawn(move || {
                                let mut rng = Choices(u64::from(p) << 16 | round as u64);
                                let mut shed = Vec::new();
                                for i in 0..PER_PRODUCER {
                                    let id = p * PER_PRODUCER + i;
                                    match rng.below(2) {
                                        0 => {
                                            if !q.try_push(vec![id]) {
                                                shed.push(id);
                                            }
                                        }
                                        _ => match q.offer(vec![id], policy) {
                                            PushOutcome::Enqueued => {}
                                            PushOutcome::Rejected(b) => shed.extend(b),
                                        },
                                    }
                                }
                                shed
                            })
                        })
                        .collect();
                    let shed: Vec<u32> = producers
                        .into_iter()
                        .flat_map(|h| h.join().unwrap())
                        .collect();
                    q.close();
                    let seen: Vec<u32> = consumers
                        .into_iter()
                        .flat_map(|h| h.join().unwrap())
                        .collect();
                    (seen, shed)
                });
                let delivered = seen.len();
                seen.extend(&shed);
                seen.sort_unstable();
                let all: Vec<u32> = (0..PRODUCERS * PER_PRODUCER).collect();
                (seen == all, delivered, shed.len(), q.parked())
            });
            let (exact, delivered, shed, parked) = done
                .recv_timeout(HANG * 3)
                .unwrap_or_else(|_| panic!("{}: hung", policy.label()));
            assert!(
                exact,
                "{}: {delivered} delivered + {shed} shed is not every batch once",
                policy.label()
            );
            assert_eq!(parked, (0, 0), "{}", policy.label());
        }
    }
}
