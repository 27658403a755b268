//! Main-table organizations: one multi-hash table or `d` pipelined
//! sub-tables (§III-A).
//!
//! Both variants implement the paper's collision-resolution contract:
//!
//! * probing never evicts an existing record (unlike HashPipe and
//!   ElasticSketch), so a stored flow is never split across cells;
//! * a probe reports either *settled* (inserted into an empty bucket, or
//!   matched an existing record and incremented) or a *collision* carrying
//!   the **sentinel**: the position and count of the smallest record seen
//!   along the probe path (Algorithm 1, lines 9–11), which the promotion
//!   rule may later evict.

use hashflow_hashing::{HashFamily, XxHash64};
use hashflow_types::{ConfigError, FlowKey, FlowRecord, FLOW_KEY_BYTES};
use std::hint::select_unpredictable;

/// How the main table is organized (§III-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TableScheme {
    /// One table of `n` buckets probed by `depth` independent hash
    /// functions.
    MultiHash {
        /// Number of hash functions `d`.
        depth: usize,
    },
    /// `depth` sub-tables where sub-table `k+1` has `alpha` times the
    /// buckets of sub-table `k`; probe `h_k` addresses sub-table `k` only.
    Pipelined {
        /// Number of sub-tables `d`.
        depth: usize,
        /// Geometric size ratio `α ∈ (0, 1)` between consecutive sub-tables.
        alpha: f64,
    },
}

impl TableScheme {
    /// Number of hash functions / sub-tables.
    pub const fn depth(&self) -> usize {
        match self {
            TableScheme::MultiHash { depth } => *depth,
            TableScheme::Pipelined { depth, .. } => *depth,
        }
    }

    /// Checks structural validity of the scheme parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `depth == 0`, or for pipelined schemes if
    /// `alpha` is outside `(0, 1]` or not finite. (`alpha = 1` is accepted
    /// and gives equal-size sub-tables, useful for ablations.)
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.depth() == 0 {
            return Err(ConfigError::new("table depth must be at least 1"));
        }
        if let TableScheme::Pipelined { alpha, .. } = self {
            if !alpha.is_finite() || *alpha <= 0.0 || *alpha > 1.0 {
                return Err(ConfigError::new(format!(
                    "pipeline weight alpha must be in (0, 1], got {alpha}"
                )));
            }
        }
        Ok(())
    }

    /// Splits `total` buckets into per-sub-table sizes.
    ///
    /// For multi-hash the result is a single segment of `total` buckets.
    /// For pipelined tables sub-table `k` gets `α^(k-1) * (1-α)/(1-α^d)` of
    /// the total (§III-B), rounded down, with the remainder given to the
    /// first (largest) sub-table; each sub-table gets at least one bucket.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `total < depth` (cannot give every
    /// sub-table a bucket) or the scheme itself is invalid.
    pub fn segment_sizes(&self, total: usize) -> Result<Vec<usize>, ConfigError> {
        self.validate()?;
        let d = self.depth();
        if total < d {
            return Err(ConfigError::new(format!(
                "{total} buckets cannot be split into {d} sub-tables"
            )));
        }
        match self {
            TableScheme::MultiHash { .. } => Ok(vec![total]),
            TableScheme::Pipelined { depth, alpha } => {
                let d = *depth;
                // Geometric weights alpha^(k-1), normalized. For alpha = 1
                // the closed form (1-a)/(1-a^d) degenerates; equal split.
                let weights: Vec<f64> = (0..d).map(|k| alpha.powi(k as i32)).collect();
                let weight_sum: f64 = weights.iter().sum();
                let mut sizes: Vec<usize> = weights
                    .iter()
                    .map(|w| ((w / weight_sum) * total as f64).floor() as usize)
                    .map(|s| s.max(1))
                    .collect();
                let assigned: usize = sizes.iter().sum();
                if assigned > total {
                    // Rounding plus the >=1 floor can overshoot on tiny
                    // tables; shave the overshoot off the largest segment.
                    let over = assigned - total;
                    if sizes[0] <= over {
                        return Err(ConfigError::new(format!(
                            "{total} buckets too few for depth {d} pipeline"
                        )));
                    }
                    sizes[0] -= over;
                } else {
                    sizes[0] += total - assigned;
                }
                debug_assert_eq!(sizes.iter().sum::<usize>(), total);
                Ok(sizes)
            }
        }
    }
}

impl std::fmt::Display for TableScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableScheme::MultiHash { depth } => write!(f, "multi-hash(d={depth})"),
            TableScheme::Pipelined { depth, alpha } => {
                write!(f, "pipelined(d={depth}, alpha={alpha})")
            }
        }
    }
}

/// Outcome of probing the main table with one packet's flow key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The key was inserted into an empty bucket (count set to 1).
    Inserted,
    /// The key matched an existing record whose count was incremented; the
    /// new count is carried.
    Incremented(u32),
    /// Every probed bucket is held by a different flow. The sentinel is the
    /// slot with the smallest count along the probe path and may be evicted
    /// by the promotion rule.
    Collision {
        /// Flattened index of the sentinel slot.
        sentinel: usize,
        /// Packet count of the sentinel record (the `min` of Algorithm 1).
        min_count: u32,
    },
}

/// Operation counts of a single table access, fed to the cost recorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Hash evaluations performed.
    pub hashes: u64,
    /// Bucket reads performed.
    pub reads: u64,
    /// Bucket writes performed.
    pub writes: u64,
}

impl std::ops::AddAssign for OpCount {
    fn add_assign(&mut self, rhs: OpCount) {
        self.hashes += rhs.hashes;
        self.reads += rhs.reads;
        self.writes += rhs.writes;
    }
}

/// The main table `M`: exact flow records under non-evicting collision
/// resolution, in either [`TableScheme`] organization.
///
/// Buckets hold `(key, count)` with `count == 0` meaning *empty* (counts of
/// live records start at 1, so the sentinel value is unambiguous). They
/// keep an aligned 20-byte layout of their own; records are packed into
/// 17-byte [`FlowRecord`]s only where they leave the table
/// ([`Self::drain`], [`Self::records`]).
///
/// # Examples
///
/// ```
/// use hashflow_core::{MainTable, TableScheme};
/// use hashflow_types::FlowKey;
///
/// let mut table = MainTable::new(TableScheme::MultiHash { depth: 3 }, 100, 7)?;
/// let key = FlowKey::from_index(1);
/// let (outcome, _ops) = table.probe(&key);
/// assert_eq!(outcome, hashflow_core::scheme::ProbeOutcome::Inserted);
/// assert_eq!(table.lookup(&key), Some(1));
/// # Ok::<(), hashflow_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MainTable {
    scheme: TableScheme,
    buckets: Vec<Bucket>,
    sizes: Vec<usize>,
    // Where probe `i` lands in the flattened bucket storage, as
    // `(offset, len)`: pipelined sub-table `i`, or the whole table for
    // every probe of the multi-hash scheme.
    ranges: Vec<(usize, usize)>,
    hashes: HashFamily<XxHash64>,
    occupied: usize,
}

/// One main-table bucket: the 13 key bytes padded to 16, then the count as
/// an aligned `u32` — the layout Algorithm 1's probe loop reads and writes,
/// wider than the 17-byte [`FlowRecord`] the table reports. A bucket whose
/// count is 0 is empty, and its key bytes are never read.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
struct Bucket {
    key: FlowKey,
    count: u32,
}

const _: () = assert!(std::mem::size_of::<Bucket>() == 20 && std::mem::align_of::<Bucket>() == 4);

impl Bucket {
    const EMPTY: Bucket = Bucket {
        key: FlowKey::from_bytes([0; FLOW_KEY_BYTES]),
        count: 0,
    };

    #[inline]
    fn record(self) -> FlowRecord {
        FlowRecord::new(self.key, self.count)
    }
}

/// A key's 13 bytes as two overlapping words, bytes `0..8` and `5..13`:
/// equal pairs, equal keys — two loads and compares per bucket.
#[inline(always)]
fn key_words(key: &FlowKey) -> (u64, u64) {
    let bytes = key.to_bytes();
    let word = |at: usize| {
        let mut word = [0; 8];
        word.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(word)
    };
    (word(0), word(FLOW_KEY_BYTES - 8))
}

/// The one collision-resolution body (Algorithm 1, lines 2–13): reads
/// every bucket of `key`'s probe `path`, then settles the packet with one
/// write or reports the sentinel. The first probe whose bucket is empty or
/// holds `key` takes the packet with one store of `(key, count + 1)` —
/// the insert (count 0 → 1) and the hit alike; with no such probe the
/// sentinel is the smallest record seen, the earliest among equals. The
/// marks, the first mark and the sentinel are all selects, so a packet
/// pays one data-dependent branch: settled or lost. This is the
/// early-exit walk's result by construction — the walk stops at the first
/// probe that is empty or matching and changes nothing before it, however
/// often a slot repeats along the path — and the [`OpCount`] is the walk's
/// too: one hash and one read per bucket up to the settling one, one
/// write if the packet settles.
///
/// A caller whose path length is a constant gets the reads unrolled into
/// straight-line code.
#[inline(always)]
fn settle(
    buckets: &mut [Bucket],
    occupied: &mut usize,
    key: &FlowKey,
    path: impl Iterator<Item = usize>,
) -> (ProbeOutcome, OpCount) {
    // Wider than any count, so the first record probed (a path has at
    // least one: depth >= 1) always becomes the sentinel — a saturated one
    // too — and `<` keeps the earliest among equals after it.
    let mut min_count = u64::MAX;
    let mut sentinel = usize::MAX;
    // The first marked probe (`usize::MAX`: none yet) and its slot.
    let mut first = usize::MAX;
    let mut target = 0;
    let mut probes = 0;
    let want = key_words(key);
    for (m, idx) in path.enumerate() {
        let bucket = buckets[idx];
        let marked = (bucket.count == 0) | (key_words(&bucket.key) == want);
        let take = marked & (first == usize::MAX);
        // Where a packet settles is data, not control: a branch here
        // would be mispredicted on every other packet.
        first = select_unpredictable(take, m, first);
        target = select_unpredictable(take, idx, target);
        let count = u64::from(bucket.count);
        let smaller = count < min_count;
        min_count = select_unpredictable(smaller, count, min_count);
        sentinel = select_unpredictable(smaller, idx, sentinel);
        probes = m as u64 + 1;
    }
    if first == usize::MAX {
        let ops = OpCount {
            hashes: probes,
            reads: probes,
            writes: 0,
        };
        let min_count = min_count as u32;
        return (
            ProbeOutcome::Collision {
                sentinel,
                min_count,
            },
            ops,
        );
    }
    let bucket = &mut buckets[target];
    let count = bucket.count;
    let new = count.saturating_add(1);
    *bucket = Bucket {
        key: *key,
        count: new,
    };
    *occupied += usize::from(count == 0);
    let probes = first as u64 + 1;
    let ops = OpCount {
        hashes: probes,
        reads: probes,
        writes: 1,
    };
    let outcome = if count == 0 {
        ProbeOutcome::Inserted
    } else {
        ProbeOutcome::Incremented(new)
    };
    (outcome, ops)
}

impl MainTable {
    /// Creates an empty main table of `total_cells` buckets.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the scheme is invalid or `total_cells` is
    /// too small for it, or too large for the 32-bit slots of a probe plan.
    pub fn new(scheme: TableScheme, total_cells: usize, seed: u64) -> Result<Self, ConfigError> {
        let sizes = scheme.segment_sizes(total_cells)?;
        if u32::try_from(total_cells).is_err() {
            return Err(ConfigError::new(format!(
                "{total_cells} main-table buckets exceed the 32-bit slot range"
            )));
        }
        let ranges = match scheme {
            TableScheme::MultiHash { depth } => vec![(0, total_cells); depth],
            TableScheme::Pipelined { .. } => sizes
                .iter()
                .scan(0, |offset, &len| {
                    let range = (*offset, len);
                    *offset += len;
                    Some(range)
                })
                .collect(),
        };
        Ok(MainTable {
            scheme,
            buckets: vec![Bucket::EMPTY; total_cells],
            sizes,
            ranges,
            hashes: HashFamily::new(scheme.depth(), seed ^ 0x3a1d_77f0),
            occupied: 0,
        })
    }

    /// The table organization.
    pub const fn scheme(&self) -> TableScheme {
        self.scheme
    }

    /// Total buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Returns `true` if the table has zero buckets (construction forbids
    /// this).
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Number of buckets currently holding a record.
    pub const fn occupied(&self) -> usize {
        self.occupied
    }

    /// Fraction of buckets holding a record — the *utilization* of §III-B.
    pub fn utilization(&self) -> f64 {
        self.occupied as f64 / self.buckets.len() as f64
    }

    /// Per-sub-table sizes (one entry for multi-hash).
    pub fn segment_sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Hash of `key` under `h_1` — reused by the caller to derive the
    /// ancillary digest (§III-A: "a digest can be generated from the hashing
    /// result of the flow ID with any `h_i`") without an extra hash
    /// evaluation.
    pub fn first_hash(&self, key: &FlowKey) -> u64 {
        self.hashes.hash(0, key)
    }

    /// Bucket index probed by `h_{i+1}` for `key`, flattened.
    fn slot(&self, i: usize, key: &FlowKey) -> usize {
        let (offset, len) = self.ranges[i];
        offset + self.hashes.bucket(i, key, len)
    }

    /// The `h_1 .. h_d` lanes of a batch's probe plans
    /// ([`hashflow_hashing::HashLanes::fill_probes`]): each member with the
    /// bucket range its probe lands in. Slots are reduced there, once, and
    /// then serve [`Self::prefetch`] and [`Self::resolve`] alike.
    pub(crate) fn probe_lanes(&self) -> impl Iterator<Item = (&XxHash64, (u32, u32))> + Clone {
        // `new` checked that every bucket index fits 32 bits.
        let ranges = self
            .ranges
            .iter()
            .map(|&(offset, len)| (offset as u32, len as u32));
        self.hashes.members().iter().zip(ranges)
    }

    /// Hints the CPU to pull bucket `slot` toward L1.
    #[inline]
    pub fn prefetch(&self, slot: usize) {
        hashflow_hashing::prefetch_read(&self.buckets, slot);
    }

    /// Runs the collision-resolution step of Algorithm 1 (lines 2–13) for
    /// one packet of `key`: hashes its `d` slots, then settles the packet
    /// with the body [`Self::resolve`] runs. The [`OpCount`] is that of the
    /// lazy schedule — `h_{i+1}` counted only if the first `i` buckets were
    /// held by other flows.
    pub fn probe(&mut self, key: &FlowKey) -> (ProbeOutcome, OpCount) {
        let path = (self.ranges.iter().enumerate())
            .map(|(i, &(offset, len))| offset + self.hashes.bucket(i, key, len));
        settle(&mut self.buckets, &mut self.occupied, key, path)
    }

    /// The same step on a probe path computed beforehand (`path`, the
    /// slots of the packet's probe plan, reduced and prefetched well before
    /// it gets here): loads, compares and selects, then at most one write.
    /// The [`OpCount`] is still that of the lazy schedule — see
    /// [`Self::probe`] — so Fig. 11 accounting does not depend on the path
    /// having been computed up front.
    ///
    /// # Panics
    ///
    /// Panics if `path` does not hold exactly one slot per probe, or a
    /// slot is out of range.
    #[inline(always)]
    pub fn resolve(
        &mut self,
        key: &FlowKey,
        path: impl ExactSizeIterator<Item = usize>,
    ) -> (ProbeOutcome, OpCount) {
        assert_eq!(path.len(), self.ranges.len(), "need one slot per probe");
        settle(&mut self.buckets, &mut self.occupied, key, path)
    }

    /// Replaces the record at flattened index `slot` (the promotion of
    /// Algorithm 1, lines 22–23).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or points at an empty bucket —
    /// promotion only ever targets a sentinel, which is by construction an
    /// occupied bucket.
    pub fn replace(&mut self, slot: usize, key: FlowKey, count: u32) {
        let bucket = &mut self.buckets[slot];
        assert!(
            bucket.count > 0,
            "promotion target {slot} is empty; sentinels are always occupied"
        );
        *bucket = Bucket {
            key,
            count: count.max(1),
        };
    }

    /// Inserts a whole flow record (the collector-side merge counterpart
    /// of [`Self::probe`]): first empty probed bucket takes the record, a
    /// key match adds the counts, and on full collision the record with
    /// the *smaller* count loses — exactly the preference order the
    /// promotion rule enforces during live collection.
    ///
    /// Returns `None` when the record was fully absorbed, or
    /// `Some(loser)` carrying the record that had to be dropped (either
    /// the incoming one or an evicted sentinel), so the caller can fold
    /// it into an ancillary summary instead of losing it silently.
    pub fn insert_record(&mut self, record: FlowRecord) -> Option<FlowRecord> {
        let (key, count) = (record.key(), record.count());
        let mut min_count = u32::MAX;
        let mut sentinel = usize::MAX;
        for i in 0..self.scheme.depth() {
            let idx = self.slot(i, &key);
            let resident = &mut self.buckets[idx];
            if resident.count == 0 {
                *resident = Bucket {
                    key,
                    count: count.max(1),
                };
                self.occupied += 1;
                return None;
            }
            if resident.key == key {
                resident.count = resident.count.saturating_add(count);
                return None;
            }
            if resident.count < min_count {
                min_count = resident.count;
                sentinel = idx;
            }
        }
        if count > min_count {
            let evicted = std::mem::replace(&mut self.buckets[sentinel], Bucket { key, count });
            Some(evicted.record())
        } else {
            Some(record)
        }
    }

    /// Looks up the exact count recorded for `key`, if present.
    pub fn lookup(&self, key: &FlowKey) -> Option<u32> {
        for i in 0..self.scheme.depth() {
            let bucket = self.buckets[self.slot(i, key)];
            if bucket.count > 0 && bucket.key == *key {
                return Some(bucket.count);
            }
        }
        None
    }

    /// Iterates over the stored records.
    pub fn records(&self) -> impl Iterator<Item = FlowRecord> + '_ {
        (self.buckets.iter())
            .filter(|b| b.count > 0)
            .map(|b| b.record())
    }

    /// Clears all buckets.
    pub fn reset(&mut self) {
        for bucket in &mut self.buckets {
            bucket.count = 0;
        }
        self.occupied = 0;
    }

    /// Moves the stored records out, in [`Self::records`] order, and
    /// leaves the table as [`Self::reset`] would — in one sweep over the
    /// buckets instead of one to copy and one to clear.
    pub fn drain(&mut self) -> Vec<FlowRecord> {
        let mut records = Vec::with_capacity(self.occupied);
        for bucket in &mut self.buckets {
            let count = std::mem::take(&mut bucket.count);
            if count > 0 {
                records.push(FlowRecord::new(bucket.key, count));
            }
        }
        self.occupied = 0;
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hashflow_hashing::{probe_slot, HashLanes, KernelCopy};

    fn key(i: u64) -> FlowKey {
        FlowKey::from_index(i)
    }

    #[test]
    fn insert_then_increment() {
        let mut t = MainTable::new(TableScheme::MultiHash { depth: 2 }, 64, 1).unwrap();
        assert_eq!(t.probe(&key(1)).0, ProbeOutcome::Inserted);
        assert_eq!(t.probe(&key(1)).0, ProbeOutcome::Incremented(2));
        assert_eq!(t.lookup(&key(1)), Some(2));
        assert_eq!(t.occupied(), 1);
    }

    #[test]
    fn collision_reports_min_sentinel() {
        // Depth-1 table with 1 bucket: second distinct key must collide with
        // the first, and the sentinel must be the only bucket.
        let mut t = MainTable::new(TableScheme::MultiHash { depth: 1 }, 1, 2).unwrap();
        t.probe(&key(1));
        t.probe(&key(1));
        t.probe(&key(1));
        match t.probe(&key(2)).0 {
            ProbeOutcome::Collision {
                sentinel,
                min_count,
            } => {
                assert_eq!(sentinel, 0);
                assert_eq!(min_count, 3);
            }
            other => panic!("expected collision, got {other:?}"),
        }
    }

    #[test]
    fn saturated_path_still_names_a_sentinel() {
        // One bucket per sub-table, so every key probes buckets 0, 1, ..
        // in order; all of them hold records that cannot count higher.
        for depth in [1usize, 3] {
            let scheme = TableScheme::Pipelined { depth, alpha: 1.0 };
            let mut t = MainTable::new(scheme, depth, 8).unwrap();
            for i in 0..depth as u64 {
                assert!(t.insert_record(FlowRecord::new(key(i), u32::MAX)).is_none());
            }
            let outcome = t.probe(&key(99)).0;
            // The first of the equally small records, and a real bucket.
            assert_eq!(
                outcome,
                ProbeOutcome::Collision {
                    sentinel: 0,
                    min_count: u32::MAX
                },
                "depth {depth}"
            );
            t.replace(0, key(99), 7);
            assert_eq!(t.lookup(&key(99)), Some(7));
            assert_eq!(t.lookup(&key(0)), None);
            assert_eq!(t.occupied(), depth);
        }
    }

    #[test]
    fn probe_never_evicts() {
        let mut t = MainTable::new(TableScheme::MultiHash { depth: 3 }, 16, 3).unwrap();
        for i in 0..200 {
            t.probe(&key(i));
        }
        let before: Vec<FlowRecord> = t.records().collect();
        // Another wave of colliding inserts must not change existing records
        // except via legitimate increments of those same keys.
        for i in 200..400 {
            t.probe(&key(i));
        }
        let after: Vec<FlowRecord> = t.records().collect();
        assert_eq!(before, after, "collision resolution must not evict");
    }

    #[test]
    fn replace_evicts_sentinel() {
        let mut t = MainTable::new(TableScheme::MultiHash { depth: 1 }, 1, 4).unwrap();
        t.probe(&key(1));
        if let ProbeOutcome::Collision { sentinel, .. } = t.probe(&key(2)).0 {
            t.replace(sentinel, key(2), 9);
            assert_eq!(t.lookup(&key(2)), Some(9));
            assert_eq!(t.lookup(&key(1)), None);
            assert_eq!(t.occupied(), 1);
        } else {
            panic!("expected collision");
        }
    }

    #[test]
    #[should_panic(expected = "promotion target")]
    fn replace_into_empty_panics() {
        let mut t = MainTable::new(TableScheme::MultiHash { depth: 1 }, 4, 0).unwrap();
        t.replace(0, key(1), 1);
    }

    #[test]
    fn insert_record_absorbs_and_prefers_heavy() {
        let mut t = MainTable::new(TableScheme::MultiHash { depth: 1 }, 1, 2).unwrap();
        assert!(t.insert_record(FlowRecord::new(key(1), 5)).is_none());
        // Key match adds counts.
        assert!(t.insert_record(FlowRecord::new(key(1), 3)).is_none());
        assert_eq!(t.lookup(&key(1)), Some(8));
        // Lighter colliding record loses and is returned.
        let loser = t.insert_record(FlowRecord::new(key(2), 2)).unwrap();
        assert_eq!(loser.key(), key(2));
        assert_eq!(t.lookup(&key(1)), Some(8));
        // Heavier colliding record evicts the resident sentinel.
        let evicted = t.insert_record(FlowRecord::new(key(3), 100)).unwrap();
        assert_eq!(evicted.key(), key(1));
        assert_eq!(evicted.count(), 8);
        assert_eq!(t.lookup(&key(3)), Some(100));
        assert_eq!(t.occupied(), 1);
    }

    #[test]
    fn pipelined_segments_follow_alpha() {
        let scheme = TableScheme::Pipelined {
            depth: 3,
            alpha: 0.7,
        };
        let sizes = scheme.segment_sizes(21_900).unwrap();
        assert_eq!(sizes.len(), 3);
        assert_eq!(sizes.iter().sum::<usize>(), 21_900);
        // n1 : n2 : n3 = 1 : 0.7 : 0.49
        let ratio21 = sizes[1] as f64 / sizes[0] as f64;
        let ratio32 = sizes[2] as f64 / sizes[1] as f64;
        assert!((ratio21 - 0.7).abs() < 0.01, "ratio {ratio21}");
        assert!((ratio32 - 0.7).abs() < 0.01, "ratio {ratio32}");
    }

    #[test]
    fn alpha_one_gives_equal_segments() {
        let scheme = TableScheme::Pipelined {
            depth: 4,
            alpha: 1.0,
        };
        let sizes = scheme.segment_sizes(100).unwrap();
        assert_eq!(sizes, vec![25, 25, 25, 25]);
    }

    #[test]
    fn pipelined_probe_uses_distinct_segments() {
        let mut t = MainTable::new(
            TableScheme::Pipelined {
                depth: 3,
                alpha: 0.7,
            },
            219,
            5,
        )
        .unwrap();
        // Fill heavily; records must stay consistent.
        for i in 0..1000 {
            t.probe(&key(i));
        }
        assert!(t.occupied() <= 219);
        for rec in t.records() {
            assert!(rec.count() >= 1);
        }
        // Everything stored is findable.
        let stored: Vec<FlowRecord> = t.records().collect();
        for rec in stored {
            assert_eq!(t.lookup(&rec.key()), Some(rec.count()));
        }
    }

    #[test]
    fn invalid_schemes_rejected() {
        assert!(TableScheme::MultiHash { depth: 0 }.validate().is_err());
        assert!(TableScheme::Pipelined {
            depth: 3,
            alpha: 0.0
        }
        .validate()
        .is_err());
        assert!(TableScheme::Pipelined {
            depth: 3,
            alpha: 1.5
        }
        .validate()
        .is_err());
        assert!(TableScheme::Pipelined {
            depth: 3,
            alpha: f64::NAN
        }
        .validate()
        .is_err());
        assert!(TableScheme::MultiHash { depth: 2 }
            .segment_sizes(1)
            .is_err());
    }

    #[test]
    fn reset_clears() {
        let mut t = MainTable::new(TableScheme::MultiHash { depth: 2 }, 32, 6).unwrap();
        for i in 0..10 {
            t.probe(&key(i));
        }
        t.reset();
        assert_eq!(t.occupied(), 0);
        assert_eq!(t.records().count(), 0);
        assert_eq!(t.lookup(&key(1)), None);
    }

    #[test]
    fn utilization_counts_multihash_fill() {
        let mut t = MainTable::new(TableScheme::MultiHash { depth: 3 }, 1000, 7).unwrap();
        for i in 0..1000 {
            t.probe(&key(i));
        }
        // m/n = 1 with d = 3: model predicts ~80% utilization (§III-B).
        let u = t.utilization();
        assert!((0.74..0.86).contains(&u), "utilization {u}");
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            TableScheme::MultiHash { depth: 3 }.to_string(),
            "multi-hash(d=3)"
        );
        assert!(TableScheme::Pipelined {
            depth: 3,
            alpha: 0.7
        }
        .to_string()
        .contains("alpha=0.7"));
    }

    #[test]
    fn planned_step_matches_lazy_probe() {
        for scheme in [
            TableScheme::MultiHash { depth: 3 },
            TableScheme::Pipelined {
                depth: 3,
                alpha: 0.7,
            },
        ] {
            let mut lazy = MainTable::new(scheme, 64, 11).unwrap();
            let mut planned = MainTable::new(scheme, 64, 11).unwrap();
            let mut plans = HashLanes::default();
            for i in 0..500 {
                let k = key(i % 120);
                plans.fill_probes(KernelCopy::best(), [k].into_iter(), planned.probe_lanes());
                let slots: Vec<usize> = (0..3).map(|m| probe_slot(plans.word(m, 0))).collect();
                slots.iter().for_each(|&slot| planned.prefetch(slot));
                let (a, ops_a) = lazy.probe(&k);
                let (b, ops_b) = planned.resolve(&k, slots.iter().copied());
                assert_eq!(a, b, "outcome diverged at packet {i}");
                assert_eq!(ops_a, ops_b, "op accounting diverged at packet {i}");
                // The lazy schedule, worked out from where the packet
                // settled: one hash and one read per bucket probed.
                let settled = slots.iter().position(|&s| planned.buckets[s].key == k);
                let (probes, writes) = match settled {
                    Some(at) => (at as u64 + 1, 1),
                    None => (3, 0),
                };
                assert_eq!(
                    ops_b,
                    OpCount {
                        hashes: probes,
                        reads: probes,
                        writes
                    },
                    "packet {i}"
                );
            }
            let a: Vec<FlowRecord> = lazy.records().collect();
            let b: Vec<FlowRecord> = planned.records().collect();
            assert_eq!(a, b);
            assert_eq!(lazy.occupied(), planned.occupied());
        }
    }

    /// Algorithm 1's collision resolution as the paper writes it: probe
    /// in order and stop at the first empty or matching bucket.
    fn early_exit_walk(
        t: &mut MainTable,
        key: &FlowKey,
        path: &[usize],
    ) -> (ProbeOutcome, OpCount) {
        let mut min_count = u64::MAX;
        let mut sentinel = usize::MAX;
        for (m, &idx) in path.iter().enumerate() {
            let probes = m as u64 + 1;
            let ops = OpCount {
                hashes: probes,
                reads: probes,
                writes: 1,
            };
            let bucket = &mut t.buckets[idx];
            if bucket.count == 0 {
                *bucket = Bucket {
                    key: *key,
                    count: 1,
                };
                t.occupied += 1;
                return (ProbeOutcome::Inserted, ops);
            }
            if bucket.key == *key {
                bucket.count = bucket.count.saturating_add(1);
                return (ProbeOutcome::Incremented(bucket.count), ops);
            }
            if u64::from(bucket.count) < min_count {
                min_count = u64::from(bucket.count);
                sentinel = idx;
            }
        }
        let probes = path.len() as u64;
        let ops = OpCount {
            hashes: probes,
            reads: probes,
            writes: 0,
        };
        let min_count = min_count as u32;
        (
            ProbeOutcome::Collision {
                sentinel,
                min_count,
            },
            ops,
        )
    }

    /// Runs `resolve` on `t` and the early-exit walk on a copy of it, and
    /// asserts the same outcome, cost, buckets and occupancy.
    fn resolve_like_walk(t: &mut MainTable, key: &FlowKey, path: &[usize]) -> ProbeOutcome {
        let mut walked = t.clone();
        let expect = early_exit_walk(&mut walked, key, path);
        let got = t.resolve(key, path.iter().copied());
        assert_eq!(got, expect, "{key:?} along {path:?}");
        let cells = |t: &MainTable| -> Vec<(FlowKey, u32)> {
            t.buckets.iter().map(|b| (b.key, b.count)).collect()
        };
        assert_eq!(cells(t), cells(&walked), "{key:?} along {path:?}");
        assert_eq!(t.occupied(), walked.occupied());
        got.0
    }

    #[test]
    fn resolve_matches_walk_on_repeated_slots() {
        // Paths drawn at random over as many buckets as probes, so most
        // of them repeat a slot.
        for (cells, depth) in [(2, 2), (3, 3)] {
            let mut t = MainTable::new(TableScheme::MultiHash { depth }, cells, 3).unwrap();
            let mut state = 0x2545_f491_4f6c_dd1d_u64 + cells as u64;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut outcomes = [0usize; 3];
            for _ in 0..400 {
                let k = key(next() % 5);
                let path: Vec<usize> = (0..depth)
                    .map(|_| (next() % cells as u64) as usize)
                    .collect();
                let outcome = resolve_like_walk(&mut t, &k, &path);
                outcomes[match outcome {
                    ProbeOutcome::Inserted => 0,
                    ProbeOutcome::Incremented(_) => 1,
                    ProbeOutcome::Collision { .. } => 2,
                }] += 1;
                if next() % 50 == 0 {
                    let _ = t.drain();
                }
            }
            assert!(outcomes.iter().all(|&n| n > 0), "{outcomes:?}");
        }
    }

    #[test]
    fn resolve_inserts_over_a_stale_copy_of_its_own_key() {
        let scheme = TableScheme::Pipelined {
            depth: 3,
            alpha: 1.0,
        };
        let mut t = MainTable::new(scheme, 3, 5).unwrap();
        assert_eq!(
            resolve_like_walk(&mut t, &key(1), &[0, 1, 2]),
            ProbeOutcome::Inserted
        );
        assert_eq!(
            resolve_like_walk(&mut t, &key(2), &[0, 1, 2]),
            ProbeOutcome::Inserted
        );
        assert_eq!(t.drain().len(), 2);
        // Bucket 0 is empty but still holds key(1)'s bytes, and key(2)'s
        // sit in bucket 1 behind it.
        assert_eq!(t.buckets[0].key, key(1));
        for k in [key(1), key(2)] {
            let before = t.occupied();
            let outcome = resolve_like_walk(&mut t, &k, &[0, 1, 2]);
            assert_eq!(outcome, ProbeOutcome::Inserted, "{k:?}");
            assert_eq!(t.occupied(), before + 1);
            assert_eq!(t.lookup(&k), Some(1));
        }
    }

    #[test]
    fn resolve_names_a_saturated_sentinel() {
        let scheme = TableScheme::Pipelined {
            depth: 3,
            alpha: 1.0,
        };
        let mut t = MainTable::new(scheme, 3, 6).unwrap();
        for (i, count) in [(0, u32::MAX), (1, u32::MAX), (2, 7)] {
            assert!(t.insert_record(FlowRecord::new(key(i), count)).is_none());
        }
        let lost = resolve_like_walk(&mut t, &key(9), &[0, 1, 2]);
        assert_eq!(
            lost,
            ProbeOutcome::Collision {
                sentinel: 2,
                min_count: 7
            }
        );
        // A saturated record is still the sentinel when nothing is smaller,
        // and its own flow's packets leave it saturated.
        assert!(t.insert_record(FlowRecord::new(key(2), u32::MAX)).is_none());
        let lost = resolve_like_walk(&mut t, &key(9), &[1, 2, 0]);
        assert_eq!(
            lost,
            ProbeOutcome::Collision {
                sentinel: 1,
                min_count: u32::MAX
            }
        );
        let hit = resolve_like_walk(&mut t, &key(0), &[1, 2, 0]);
        assert_eq!(hit, ProbeOutcome::Incremented(u32::MAX));
    }

    #[test]
    #[should_panic(expected = "one slot per probe")]
    fn step_rejects_short_plans() {
        let mut t = MainTable::new(TableScheme::MultiHash { depth: 3 }, 16, 0).unwrap();
        let _ = t.resolve(&key(1), [1, 2].into_iter());
    }

    #[test]
    #[should_panic(expected = "one slot per probe")]
    fn step_rejects_long_plans() {
        let mut t = MainTable::new(TableScheme::MultiHash { depth: 3 }, 16, 0).unwrap();
        let _ = t.resolve(&key(1), [1, 2, 3, 4].into_iter());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn oversized_table_rejected() {
        let scheme = TableScheme::MultiHash { depth: 1 };
        assert!(MainTable::new(scheme, u32::MAX as usize + 1, 0).is_err());
    }

    #[test]
    fn first_hash_matches_member_zero() {
        let t = MainTable::new(TableScheme::MultiHash { depth: 2 }, 8, 9).unwrap();
        // Determinism smoke check: repeated calls agree.
        assert_eq!(t.first_hash(&key(3)), t.first_hash(&key(3)));
    }
}
