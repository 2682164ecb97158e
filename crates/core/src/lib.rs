//! The dynmds metadata-cluster simulator — the paper's primary
//! contribution (§4) plus the four comparison strategies, in one
//! event-driven model.
//!
//! A [`Simulation`] wires together:
//!
//! * a shared [`Namespace`](dynmds_namespace::Namespace) (ground truth),
//! * a [`Partition`](dynmds_partition::Partition) mapping items to
//!   authoritative servers,
//! * one [`node::MdsNode`] per server — cache with prefix pinning,
//!   decaying popularity counters, bounded journal, and a serial CPU,
//! * a [`client::ClientPool`] — per-client location caches routed by
//!   deepest known prefix (subtree strategies) or the hash function
//!   (hashed strategies),
//! * a [`Workload`](dynmds_workload::Workload) generating operations,
//! * the shared OSD pool both storage tiers live on.
//!
//! Behavioural pieces of §4 and where they live:
//!
//! | Mechanism | Module |
//! |---|---|
//! | hierarchical partition, path traversal, prefix caching | [`cluster`] |
//! | authority, replication, cache coherence | [`cluster`], [`traffic`] |
//! | heartbeat load balancing, subtree export/import | [`balance`] |
//! | traffic control for flash crowds | [`traffic`] |
//! | dynamic directory hashing for huge/hot directories | [`cluster`] |
//! | client ignorance & request forwarding | [`client`], [`cluster`] |

pub mod balance;
pub mod check;
pub mod client;
pub mod cluster;
pub mod config;
pub mod elastic;
pub mod failover;
pub mod fault;
pub mod node;
pub mod obs;
pub mod report;
pub mod request;
pub mod shard;
pub mod sim;
#[cfg(test)]
pub(crate) mod testutil;
pub mod traffic;

pub use failover::FAILOVER_TIMEOUT;

pub use check::{AppliedOp, DstProbe, DstRecord};
pub use cluster::{Cluster, MigrationRecord};
pub use config::{CostModel, ElasticConfig, SimConfig};
pub use dynmds_obs::ObsConfig;
pub use elastic::ElasticState;
pub use fault::{ChurnSpec, DiskScope, FaultEvent, FaultSchedule, NetFaultSpec, RetryPolicy};
pub use obs::{ClusterObs, ObsExport};
pub use report::{NodeSnapshot, SimReport};
pub use request::{Request, SimEvent};
pub use shard::{LatencyAgg, ShardReport, ShardedSimulation};
pub use sim::Simulation;
