//! One module per paper exhibit, and [`EXHIBITS`], the list every
//! binary and `run_all` go through. The paper's figures and tables expose
//! `run(&RunConfig) -> Vec<Table>`; the perf exhibits return an
//! [`Output`] that also carries their `BENCH_*.json` record and what their
//! `check` rejected.

use crate::output::Output;
use crate::RunConfig;

pub mod ablation_digest;
pub mod ablation_elastic;
pub mod ablation_ordering;
pub mod ablation_promotion;
pub mod ablation_sampling;
pub mod equal_memory;
pub mod fig02_utilization;
pub mod fig04_depth;
pub mod fig05_weights;
pub mod fig06_fsc;
pub mod fig07_cardinality;
pub mod fig08_size_are;
pub mod fig09_hh_f1;
pub mod fig10_hh_are;
pub mod fig11_throughput;
pub mod hotpath;
pub mod overhead;
pub mod overload;
pub mod query;
pub mod queryapps;
pub mod scaling_shards;
pub mod server_load;
pub mod table01_traces;

/// An exhibit: the binary that regenerates it, and how.
#[derive(Debug, Clone, Copy)]
pub struct Exhibit {
    /// Binary name (`cargo run -p experiments --bin <name>`).
    pub name: &'static str,
    /// Regenerates the exhibit.
    pub run: fn(&RunConfig) -> Output,
}

impl Exhibit {
    const fn new(name: &'static str, run: fn(&RunConfig) -> Output) -> Self {
        Exhibit { name, run }
    }
}

/// Every exhibit, in `run_all` order: the paper's table and figures, the
/// exhibits beyond the paper, the ablations, and last the two that
/// inject faults and boot daemons.
pub const EXHIBITS: [Exhibit; 23] = [
    Exhibit::new("table01_traces", |cfg| table01_traces::run(cfg).into()),
    Exhibit::new("fig02_utilization", |cfg| {
        fig02_utilization::run(cfg).into()
    }),
    Exhibit::new("fig04_depth", |cfg| fig04_depth::run(cfg).into()),
    Exhibit::new("fig05_weights", |cfg| fig05_weights::run(cfg).into()),
    Exhibit::new("fig06_fsc", |cfg| fig06_fsc::run(cfg).into()),
    Exhibit::new("fig07_cardinality", |cfg| {
        fig07_cardinality::run(cfg).into()
    }),
    Exhibit::new("fig08_size_are", |cfg| fig08_size_are::run(cfg).into()),
    Exhibit::new("fig09_hh_f1", |cfg| fig09_hh_f1::run(cfg).into()),
    Exhibit::new("fig10_hh_are", |cfg| fig10_hh_are::run(cfg).into()),
    Exhibit::new("fig11_throughput", |cfg| fig11_throughput::run(cfg).into()),
    Exhibit::new("scaling_shards", scaling_shards::run),
    Exhibit::new("hotpath", hotpath::run),
    Exhibit::new("overhead", overhead::run),
    Exhibit::new("query", query::run),
    Exhibit::new("queryapps", queryapps::run),
    Exhibit::new("equal_memory", equal_memory::run),
    Exhibit::new("ablation_digest", |cfg| ablation_digest::run(cfg).into()),
    Exhibit::new("ablation_promotion", |cfg| {
        ablation_promotion::run(cfg).into()
    }),
    Exhibit::new("ablation_sampling", |cfg| {
        ablation_sampling::run(cfg).into()
    }),
    Exhibit::new("ablation_ordering", |cfg| {
        ablation_ordering::run(cfg).into()
    }),
    Exhibit::new("ablation_elastic", |cfg| ablation_elastic::run(cfg).into()),
    Exhibit::new("overload", overload::run),
    Exhibit::new("server_load", server_load::run),
];
