use crate::ancillary::check_widths;
use crate::scheme::TableScheme;
use hashflow_monitor::MemoryBudget;
use hashflow_types::{ConfigError, RECORD_BITS};

/// Configuration of a [`crate::HashFlow`] instance.
///
/// Defaults follow §IV-A: a pipelined main table with depth `d = 3` and
/// weight `α = 0.7`, an ancillary table with the *same number of cells* as
/// the main table, and 8-bit digests and 8-bit counters in the ancillary
/// table.
///
/// # Examples
///
/// ```
/// use hashflow_core::{HashFlowConfig, TableScheme};
/// use hashflow_monitor::MemoryBudget;
///
/// // Paper defaults from a memory budget:
/// let c = HashFlowConfig::with_memory(MemoryBudget::from_kib(128)?)?;
/// assert_eq!(c.scheme(), TableScheme::Pipelined { depth: 3, alpha: 0.7 });
/// assert_eq!(c.main_cells(), c.ancillary_cells());
///
/// // Explicit geometry for model-validation experiments:
/// let c = HashFlowConfig::builder()
///     .main_cells(100_000)
///     .ancillary_cells(100_000)
///     .scheme(TableScheme::MultiHash { depth: 4 })
///     .build()?;
/// assert_eq!(c.main_cells(), 100_000);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HashFlowConfig {
    scheme: TableScheme,
    main_cells: usize,
    ancillary_cells: usize,
    digest_bits: u32,
    ancillary_counter_bits: u32,
    seed: u64,
    promotion_enabled: bool,
}

/// Paper default depth (§III-B: "3 hash functions seems to be a sweet spot").
pub const DEFAULT_DEPTH: usize = 3;

/// Paper default pipeline weight (§III-B: "α = 0.7 seems to be the best
/// choice").
pub const DEFAULT_ALPHA: f64 = 0.7;

/// Paper default digest width (§IV-A: "each digest and counter in the
/// ancillary table costs 8 bits").
pub const DEFAULT_DIGEST_BITS: u32 = 8;

/// Paper default ancillary counter width (§IV-A).
pub const DEFAULT_ANCILLARY_COUNTER_BITS: u32 = 8;

impl HashFlowConfig {
    /// Builds the §IV-A default configuration from a memory budget.
    ///
    /// The budget is split so that the main table and the ancillary table
    /// get the same number of cells: each "cell pair" costs
    /// `RECORD_BITS + digest_bits + counter_bits` = 136 + 16 = 152 bits.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the budget is too small to hold at least
    /// one cell per sub-table.
    pub fn with_memory(budget: MemoryBudget) -> Result<Self, ConfigError> {
        let pair_bits =
            RECORD_BITS + (DEFAULT_DIGEST_BITS + DEFAULT_ANCILLARY_COUNTER_BITS) as usize;
        let cells = budget.bits() / pair_bits;
        Self::builder()
            .main_cells(cells)
            .ancillary_cells(cells)
            .build()
    }

    /// Starts building a configuration with paper defaults.
    pub fn builder() -> HashFlowConfigBuilder {
        HashFlowConfigBuilder::default()
    }

    /// Starts a builder pre-populated with this configuration, for
    /// deriving variants (a different seed per shard, an ablation toggle)
    /// without restating the geometry.
    pub fn rebuild(&self) -> HashFlowConfigBuilder {
        HashFlowConfigBuilder {
            scheme: self.scheme,
            main_cells: self.main_cells,
            ancillary_cells: Some(self.ancillary_cells),
            digest_bits: self.digest_bits,
            ancillary_counter_bits: self.ancillary_counter_bits,
            seed: self.seed,
            promotion_enabled: self.promotion_enabled,
        }
    }

    /// The main-table organization.
    pub const fn scheme(&self) -> TableScheme {
        self.scheme
    }

    /// Total buckets in the main table (across sub-tables when pipelined).
    pub const fn main_cells(&self) -> usize {
        self.main_cells
    }

    /// Buckets in the ancillary table.
    pub const fn ancillary_cells(&self) -> usize {
        self.ancillary_cells
    }

    /// Digest width in bits.
    pub const fn digest_bits(&self) -> u32 {
        self.digest_bits
    }

    /// Ancillary counter width in bits.
    pub const fn ancillary_counter_bits(&self) -> u32 {
        self.ancillary_counter_bits
    }

    /// Master seed for all hash functions.
    pub const fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether the record-promotion rule (Algorithm 1, lines 21-23) is
    /// active. Always `true` for the paper's algorithm; the ablation
    /// experiments disable it to quantify the elephant-rescue effect.
    pub const fn promotion_enabled(&self) -> bool {
        self.promotion_enabled
    }

    /// Logical memory footprint in bits (main records + ancillary
    /// digest/counter pairs).
    pub fn memory_bits(&self) -> usize {
        self.main_cells * RECORD_BITS
            + self.ancillary_cells * (self.digest_bits + self.ancillary_counter_bits) as usize
    }
}

/// Builder for [`HashFlowConfig`]. See [`HashFlowConfig`] for examples.
#[derive(Debug, Clone)]
pub struct HashFlowConfigBuilder {
    scheme: TableScheme,
    main_cells: usize,
    ancillary_cells: Option<usize>,
    digest_bits: u32,
    ancillary_counter_bits: u32,
    seed: u64,
    promotion_enabled: bool,
}

impl Default for HashFlowConfigBuilder {
    fn default() -> Self {
        HashFlowConfigBuilder {
            scheme: TableScheme::Pipelined {
                depth: DEFAULT_DEPTH,
                alpha: DEFAULT_ALPHA,
            },
            main_cells: 0,
            ancillary_cells: None,
            digest_bits: DEFAULT_DIGEST_BITS,
            ancillary_counter_bits: DEFAULT_ANCILLARY_COUNTER_BITS,
            seed: 0x4a5f_0421,
            promotion_enabled: true,
        }
    }
}

impl HashFlowConfigBuilder {
    /// Sets the total number of main-table buckets.
    pub fn main_cells(&mut self, cells: usize) -> &mut Self {
        self.main_cells = cells;
        self
    }

    /// Sets the number of ancillary-table buckets (defaults to the same as
    /// the main table, per §IV-A).
    pub fn ancillary_cells(&mut self, cells: usize) -> &mut Self {
        self.ancillary_cells = Some(cells);
        self
    }

    /// Sets the main-table organization.
    pub fn scheme(&mut self, scheme: TableScheme) -> &mut Self {
        self.scheme = scheme;
        self
    }

    /// Sets the digest width (at least 1 bit; digest and counter share one
    /// 32-bit ancillary cell).
    pub fn digest_bits(&mut self, bits: u32) -> &mut Self {
        self.digest_bits = bits;
        self
    }

    /// Sets the ancillary counter width (at least 1 bit; digest and
    /// counter share one 32-bit ancillary cell).
    pub fn ancillary_counter_bits(&mut self, bits: u32) -> &mut Self {
        self.ancillary_counter_bits = bits;
        self
    }

    /// Sets the master hash seed (experiments vary this across trials).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Enables or disables record promotion (ablation only; the paper's
    /// algorithm always promotes).
    pub fn promotion_enabled(&mut self, enabled: bool) -> &mut Self {
        self.promotion_enabled = enabled;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the scheme is invalid (see
    /// [`TableScheme::validate`]), any table is empty, or a bit width is 0
    /// or the digest and counter widths add up to more than 32 bits.
    pub fn build(&self) -> Result<HashFlowConfig, ConfigError> {
        self.scheme.validate()?;
        if self.main_cells == 0 {
            return Err(ConfigError::new("main table needs at least one cell"));
        }
        let depth = self.scheme.depth();
        if self.main_cells < depth {
            return Err(ConfigError::new(format!(
                "main table of {} cells cannot host {depth} sub-tables",
                self.main_cells
            )));
        }
        let ancillary_cells = self.ancillary_cells.unwrap_or(self.main_cells);
        if ancillary_cells == 0 {
            return Err(ConfigError::new("ancillary table needs at least one cell"));
        }
        check_widths(self.digest_bits, self.ancillary_counter_bits)?;
        Ok(HashFlowConfig {
            scheme: self.scheme,
            main_cells: self.main_cells,
            ancillary_cells,
            digest_bits: self.digest_bits,
            ancillary_counter_bits: self.ancillary_counter_bits,
            seed: self.seed,
            promotion_enabled: self.promotion_enabled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = HashFlowConfig::builder().main_cells(1000).build().unwrap();
        assert_eq!(
            c.scheme(),
            TableScheme::Pipelined {
                depth: 3,
                alpha: 0.7
            }
        );
        assert_eq!(c.ancillary_cells(), 1000);
        assert_eq!(c.digest_bits(), 8);
        assert_eq!(c.ancillary_counter_bits(), 8);
    }

    #[test]
    fn with_memory_splits_evenly() {
        let c = HashFlowConfig::with_memory(MemoryBudget::from_bytes(1 << 20).unwrap()).unwrap();
        // 2^23 bits / 152 bits per pair = 55188 cells.
        assert_eq!(c.main_cells(), (1usize << 23) / 152);
        assert_eq!(c.main_cells(), c.ancillary_cells());
        assert!(c.memory_bits() <= 1 << 23);
        // Paper: "using a small memory of 1 MB, HashFlow can accurately
        // record around 55K flows" — the main table has ~55K cells.
        assert!((54_000..57_000).contains(&c.main_cells()));
    }

    #[test]
    fn invalid_geometry_rejected() {
        assert!(HashFlowConfig::builder().build().is_err());
        assert!(HashFlowConfig::builder()
            .main_cells(2)
            .scheme(TableScheme::MultiHash { depth: 0 })
            .build()
            .is_err());
        assert!(HashFlowConfig::builder()
            .main_cells(100)
            .digest_bits(0)
            .build()
            .is_err());
        assert!(HashFlowConfig::builder()
            .main_cells(100)
            .ancillary_counter_bits(40)
            .build()
            .is_err());
        assert!(HashFlowConfig::builder()
            .main_cells(2)
            .scheme(TableScheme::Pipelined {
                depth: 3,
                alpha: 0.7
            })
            .build()
            .is_err());
    }

    #[test]
    fn builder_setters_apply() {
        let c = HashFlowConfig::builder()
            .main_cells(500)
            .ancillary_cells(100)
            .digest_bits(16)
            .ancillary_counter_bits(12)
            .seed(99)
            .scheme(TableScheme::MultiHash { depth: 2 })
            .build()
            .unwrap();
        assert_eq!(c.ancillary_cells(), 100);
        assert_eq!(c.digest_bits(), 16);
        assert_eq!(c.ancillary_counter_bits(), 12);
        assert_eq!(c.seed(), 99);
        assert_eq!(c.scheme().depth(), 2);
        assert_eq!(c.memory_bits(), 500 * 136 + 100 * 28);
    }
}
