use hashflow_types::ConfigError;

/// A byte budget shared by all algorithms in one experiment.
///
/// §IV-A: "We let these algorithms use the same amount of memory in all the
/// experiments. For each flow record, we use a flow ID of 104 bits and a
/// counter of 32 bits, so 1 MB memory approximately corresponds to 60 K flow
/// records." Each algorithm's config translates a `MemoryBudget` into its
/// own cell geometry using its exact per-cell bit widths.
///
/// # Examples
///
/// ```
/// use hashflow_monitor::MemoryBudget;
/// let budget = MemoryBudget::from_bytes(1 << 20)?; // 1 MB
/// // 136-bit full flow records:
/// assert_eq!(budget.cells(136), 61_680);
/// # Ok::<(), hashflow_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemoryBudget {
    bytes: usize,
}

impl MemoryBudget {
    /// Creates a budget of `bytes` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `bytes == 0`.
    pub fn from_bytes(bytes: usize) -> Result<Self, ConfigError> {
        if bytes == 0 {
            return Err(ConfigError::new("memory budget must be positive"));
        }
        Ok(MemoryBudget { bytes })
    }

    /// Creates a budget of `kib` kibibytes.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `kib == 0`.
    pub fn from_kib(kib: usize) -> Result<Self, ConfigError> {
        Self::from_bytes(kib * 1024)
    }

    /// Budget in bytes.
    pub const fn bytes(&self) -> usize {
        self.bytes
    }

    /// Budget in bits.
    pub const fn bits(&self) -> usize {
        self.bytes * 8
    }

    /// How many cells of `cell_bits` bits fit in this budget.
    ///
    /// # Panics
    ///
    /// Panics if `cell_bits == 0`.
    pub fn cells(&self, cell_bits: usize) -> usize {
        assert!(cell_bits > 0, "cell width must be positive");
        self.bits() / cell_bits
    }

    /// Splits the budget into `shards` equal per-shard budgets for an
    /// RSS-partitioned monitor.
    ///
    /// The split must round-trip: the shard budgets **sum to at most the
    /// parent budget** — never more. Each shard gets exactly
    /// `bytes / shards` bytes (floor); the remainder (< `shards` bytes) is
    /// left unassigned rather than silently inflating any shard, so an
    /// N-shard deployment is never compared against the baselines with
    /// more aggregate memory than the single-monitor budget.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `shards == 0` or the per-shard budget
    /// would be empty.
    pub fn split_shards(&self, shards: usize) -> Result<Vec<MemoryBudget>, ConfigError> {
        if shards == 0 {
            return Err(ConfigError::new("cannot split a budget across zero shards"));
        }
        let per_shard = MemoryBudget::from_bytes(self.bytes / shards)?;
        Ok(vec![per_shard; shards])
    }
}

impl std::fmt::Display for MemoryBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.bytes.is_multiple_of(1 << 20) {
            write!(f, "{} MiB", self.bytes >> 20)
        } else if self.bytes.is_multiple_of(1024) {
            write!(f, "{} KiB", self.bytes >> 10)
        } else {
            write!(f, "{} B", self.bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_mb_is_about_60k_records() {
        let b = MemoryBudget::from_bytes(1 << 20).unwrap();
        let records = b.cells(136);
        assert!((55_000..65_000).contains(&records), "got {records}");
    }

    #[test]
    fn zero_budget_rejected() {
        assert!(MemoryBudget::from_bytes(0).is_err());
        assert!(MemoryBudget::from_kib(0).is_err());
    }

    #[test]
    fn unit_conversions() {
        let b = MemoryBudget::from_kib(64).unwrap();
        assert_eq!(b.bytes(), 65_536);
        assert_eq!(b.bits(), 524_288);
    }

    #[test]
    fn shard_split_round_trips_without_inflation() {
        // The satellite contract: N shard budgets sum to <= the parent
        // budget for every (bytes, N), with no per-shard rounding up.
        for bytes in [1usize, 7, 256, 1000, 1 << 20, (1 << 20) + 3] {
            let parent = MemoryBudget::from_bytes(bytes).unwrap();
            for shards in 1..=8usize {
                match parent.split_shards(shards) {
                    Ok(split) => {
                        assert_eq!(split.len(), shards);
                        let total: usize = split.iter().map(MemoryBudget::bytes).sum();
                        assert!(
                            total <= parent.bytes(),
                            "{shards} shards of {parent} sum to {total} bytes"
                        );
                        // No silent inflation: the loss is only the
                        // integer-division remainder.
                        assert!(parent.bytes() - total < shards);
                        // Equal-memory rule: all shards identical.
                        assert!(split.iter().all(|b| b == &split[0]));
                    }
                    Err(_) => {
                        // Only legal when a shard would be empty.
                        assert!(bytes / shards == 0, "{bytes} bytes / {shards}");
                    }
                }
            }
        }
    }

    #[test]
    fn shard_split_rejects_zero_and_empty() {
        let b = MemoryBudget::from_bytes(4).unwrap();
        assert!(b.split_shards(0).is_err());
        assert!(b.split_shards(8).is_err());
        assert_eq!(b.split_shards(4).unwrap().len(), 4);
        let b = MemoryBudget::from_bytes(1000).unwrap();
        assert_eq!(b.split_shards(4).unwrap()[0].bytes(), 250);
        assert!(b.split_shards(2000).is_err());
    }

    #[test]
    fn display_uses_natural_units() {
        assert_eq!(
            MemoryBudget::from_bytes(1 << 20).unwrap().to_string(),
            "1 MiB"
        );
        assert_eq!(MemoryBudget::from_bytes(2048).unwrap().to_string(), "2 KiB");
        assert_eq!(MemoryBudget::from_bytes(100).unwrap().to_string(), "100 B");
    }

    #[test]
    #[should_panic(expected = "cell width")]
    fn zero_cell_width_panics() {
        let _ = MemoryBudget::from_bytes(8).unwrap().cells(0);
    }
}
