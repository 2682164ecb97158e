//! Experiment harness: regenerates every figure of the SC'04 evaluation.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`scaling`] | Figure 2 (per-MDS throughput vs cluster size) and Figure 3 (prefix cache share vs cluster size) — same runs, two projections |
//! | [`hitrate`] | Figure 4 (cache hit rate vs relative cache size) |
//! | [`shiftrun`] | Figure 5 (throughput range under a workload shift) and Figure 6 (forwarded-request fraction) |
//! | [`flashrun`] | Figure 7 (flash crowd with/without traffic control) |
//! | [`hotspotrun`] | Hotspot absorption: proxy tier vs replication+redirect on adversarial storms |
//! | [`ablation`] | §4.5 / §5.3.2 design-choice ablations (embedded-inode prefetch; load balancing) |
//! | [`scirun`] | §5.2 scientific workload (LLNL-style synchronized bursts) across all strategies |
//!
//! Every experiment has a `quick` variant sized for CI/benches and a full
//! variant sized to show the paper's shapes clearly. All runs are
//! deterministic; independent configurations run in parallel worker
//! threads ([`parallel`]).

pub mod ablation;
pub mod availability;
pub mod cli;
pub mod elasticrun;
pub mod flashrun;
pub mod hitrate;
pub mod hotspotrun;
pub mod parallel;
pub mod params;
pub mod scalerun;
pub mod scaling;
pub mod scirun;
pub mod shiftrun;
#[cfg(test)]
mod tables_test;

pub use params::ExperimentScale;
pub use scalerun::{run_scale, scale_table, ScaleParams, ScalePoint};
