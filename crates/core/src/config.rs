//! Simulation configuration.

use dynmds_event::SimDuration;
use dynmds_partition::StrategyKind;
use dynmds_storage::DiskParams;

/// Service-time and latency constants. Defaults model a 2004-era cluster:
/// gigabit LAN hops, a commodity-disk OSD pool, an NVRAM-fronted journal
/// device per MDS (§4.6: "the use of NVRAM … can further mask the latency
/// of writes to the log").
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// MDS CPU time to fully process one metadata operation.
    pub cpu_per_op: SimDuration,
    /// MDS CPU time to forward a request it is not authoritative for.
    pub cpu_forward: SimDuration,
    /// One-way network latency between any two machines.
    pub net_hop: SimDuration,
    /// Mean client think time between receiving a reply and issuing the
    /// next operation (exponentially distributed).
    pub think_mean: SimDuration,
    /// Per-cached-item cost of migrating a subtree between servers.
    pub migrate_per_item: SimDuration,
    /// Journal device behaviour (sequential appends: low latency, high
    /// transactional throughput).
    pub journal_disk: DiskParams,
    /// OSD pool device behaviour (random metadata objects).
    pub osd_disk: DiskParams,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cpu_per_op: SimDuration::from_micros(150),
            cpu_forward: SimDuration::from_micros(20),
            net_hop: SimDuration::from_micros(100),
            think_mean: SimDuration::from_millis(1),
            migrate_per_item: SimDuration::from_micros(10),
            journal_disk: DiskParams { latency: SimDuration::from_micros(500), iops: 5_000.0 },
            osd_disk: DiskParams { latency: SimDuration::from_millis(8), iops: 120.0 },
        }
    }
}

/// Elastic autoscaling knobs (ROADMAP item 3, λFS-style). The controller
/// watches the same smoothed heartbeat load signal the balancer uses and
/// activates / parks nodes between `min_nodes` and `n_mds` (the
/// provisioned pool ceiling). All thresholds are per-*live*-node rates so
/// they are independent of the heartbeat interval.
#[derive(Clone, Copy, Debug)]
pub struct ElasticConfig {
    /// Master switch; off keeps the cluster statically provisioned and
    /// the fast path branch-identical to builds without elasticity.
    pub enabled: bool,
    /// Never park below this many live nodes.
    pub min_nodes: u16,
    /// Scale out when the mean per-live-node load (served +
    /// `miss_weight` × misses, per second) stays above this.
    pub high_load_per_s: f64,
    /// Scale in when it stays below this.
    pub low_load_per_s: f64,
    /// Consecutive heartbeats a watermark must hold before acting —
    /// the controller's analogue of the balancer's `busy_streak`.
    pub sustain: u32,
    /// Heartbeats to hold off after a scaling action, letting the EWMA
    /// and the balancer settle before judging the new population.
    pub cooldown_heartbeats: u32,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            enabled: false,
            min_nodes: 2,
            high_load_per_s: 4_000.0,
            low_load_per_s: 1_500.0,
            sustain: 2,
            cooldown_heartbeats: 2,
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Partitioning strategy under test.
    pub strategy: StrategyKind,
    /// Number of metadata servers.
    pub n_mds: u16,
    /// Number of clients.
    pub n_clients: u32,
    /// Per-MDS cache capacity, in inodes.
    pub cache_capacity: usize,
    /// Per-MDS journal capacity, in entries.
    pub journal_capacity: usize,
    /// Number of OSDs backing the shared metadata store.
    pub n_osds: usize,
    /// Cost constants.
    pub costs: CostModel,

    // --- traffic control (§4.4) --------------------------------------
    /// Enable popularity-driven replication of hot metadata.
    pub traffic_control: bool,
    /// Decayed-popularity value above which an item is replicated
    /// cluster-wide.
    pub replication_threshold: f64,
    /// Half-life of the popularity counters.
    pub popularity_half_life: SimDuration,

    // --- load balancing (§4.3) ---------------------------------------
    /// Enable the heartbeat load balancer (DynamicSubtree only; ignored
    /// otherwise).
    pub balancing: bool,
    /// Heartbeat interval.
    pub heartbeat: SimDuration,
    /// A node whose load exceeds `imbalance_ratio ×` the cluster mean
    /// tries to shed subtrees.
    pub imbalance_ratio: f64,
    /// Weight of cache misses (vs throughput) in the load metric — "a
    /// weighted combination of node throughput and cache misses" (§5.1).
    pub miss_weight: f64,
    /// Cluster-wide cap on subtree migrations per heartbeat; damping
    /// against migration storms ("a small overhead associated with each
    /// delegation", §4.3).
    pub max_migrations_per_heartbeat: usize,

    // --- elastic autoscaling (ElasticSubtree strategy) -----------------
    /// Elastic add/remove of MDS nodes driven by the heartbeat load
    /// signal; see [`ElasticConfig`].
    pub elastic: ElasticConfig,

    // --- dynamic directory hashing (§4.3) -----------------------------
    /// Spread a single directory across the cluster when it grows beyond
    /// this many entries (0 disables).
    pub dir_hash_threshold: usize,

    /// Ablation override: disable near-tail (probationary) insertion of
    /// prefetched metadata (§4.5: "inserted near the tail of the cache's
    /// LRU list to avoid displacing known useful information").
    pub disable_prefetch_probation: bool,

    /// Ablation override: force the per-inode-table tier-2 layout even for
    /// strategies that could embed inodes in directory objects, disabling
    /// whole-directory prefetch (§4.5 ablation).
    pub force_inode_table: bool,

    /// Warm caches from the (shared-storage) journal on failover and
    /// recovery — §4.6's "quickly preloaded … on startup or after a
    /// failure". Disable for the ablation.
    pub journal_warming: bool,

    /// GPFS-style shared writes (§4.2): size/mtime updates to a replicated
    /// *file* are absorbed by whichever replica receives them and pushed
    /// to the authority on the heartbeat, "which retains the maximum value
    /// seen thus far and initiates a callback for the latest information
    /// on client reads". Lets N-to-1 checkpoint writes scale.
    pub shared_writes: bool,

    /// Client metadata leases (§4.2): replies to attribute reads grant the
    /// client a time-bounded right to answer repeat reads from its own
    /// cache without contacting the cluster — the paper's "relatively
    /// simple (and inexpensive) metadata coherence" middle ground between
    /// callback state for 100 000 clients and NFS-style statelessness.
    pub client_leases: bool,
    /// Lease lifetime (staleness bound).
    pub lease_ttl: SimDuration,

    /// Debug switch for the sharded engine: keep executing every
    /// conservative window densely instead of skipping idle spans.
    /// Skipping stays on the window grid, so runs are byte-identical
    /// either way — this exists so tests and CI can prove that, and so
    /// a suspected skip bug can be ruled out with one flag. Ignored by
    /// the legacy serial engine (which is event-driven, never idle).
    pub force_dense: bool,

    /// Metrics sampling interval (time-series bin width).
    pub sample_every: SimDuration,
    /// RNG seed for client think times and routing tie-breaks.
    pub seed: u64,

    /// Client retry behaviour after dead-node timeouts / lost messages.
    pub retry: crate::fault::RetryPolicy,
    /// Fault-injection schedule (empty = fault-free run).
    pub faults: crate::fault::FaultSchedule,

    /// Observability switches (metrics registry, op-trace spans). Off by
    /// default: the disabled path costs one branch per hook.
    pub obs: dynmds_obs::ObsConfig,

    /// Adaptive hotspot proxy tier (ROADMAP item 4). `count == 0` (the
    /// default) keeps the tier completely out of the run: no state, no
    /// extra draws, no new output — proxy-off runs stay byte-identical.
    pub proxy: dynmds_proxy::ProxyConfig,
}

impl SimConfig {
    /// A small, fast-running configuration for tests and examples.
    pub fn small(strategy: StrategyKind) -> Self {
        SimConfig {
            strategy,
            n_mds: 4,
            n_clients: 48,
            cache_capacity: 1_500,
            journal_capacity: 1_500,
            n_osds: 8,
            costs: CostModel::default(),
            traffic_control: strategy.rebalances(),
            replication_threshold: 64.0,
            popularity_half_life: SimDuration::from_secs(10),
            balancing: strategy.rebalances(),
            heartbeat: SimDuration::from_secs(5),
            imbalance_ratio: 1.25,
            miss_weight: 4.0,
            max_migrations_per_heartbeat: 4,
            elastic: ElasticConfig {
                enabled: strategy == StrategyKind::ElasticSubtree,
                ..ElasticConfig::default()
            },
            dir_hash_threshold: 0,
            disable_prefetch_probation: false,
            force_inode_table: false,
            journal_warming: true,
            shared_writes: false,
            client_leases: false,
            lease_ttl: SimDuration::from_secs(2),
            force_dense: false,
            sample_every: SimDuration::from_secs(1),
            seed: 7,
            retry: crate::fault::RetryPolicy::default(),
            faults: crate::fault::FaultSchedule::default(),
            obs: dynmds_obs::ObsConfig::default(),
            proxy: dynmds_proxy::ProxyConfig::default(),
        }
    }

    /// Rejects configurations the engines cannot run (they would panic or
    /// never advance). Messages name the command-line flag that sets the
    /// offending field, so the CLIs print them as they are.
    pub fn validate(&self) -> Result<(), String> {
        let counts = [
            ("n_mds (--mds)", self.n_mds as u64),
            ("n_clients (--clients)", self.n_clients as u64),
            ("cache_capacity (--cache)", self.cache_capacity as u64),
            ("journal_capacity", self.journal_capacity as u64),
            ("n_osds (--osds)", self.n_osds as u64),
            ("costs.think_mean", self.costs.think_mean.as_micros()),
            ("heartbeat", self.heartbeat.as_micros()),
            ("sample_every", self.sample_every.as_micros()),
        ];
        if let Some((name, _)) = counts.iter().find(|&&(_, v)| v == 0) {
            return Err(format!("{name} must be at least 1"));
        }
        for ev in &self.faults.events {
            use crate::fault::FaultEvent::{Crash, Recover};
            if let Crash { mds, .. } | Recover { mds, .. } = ev {
                if mds.0 >= self.n_mds {
                    return Err(format!(
                        "fault schedule names mds{}, but the cluster has {} nodes",
                        mds.0, self.n_mds
                    ));
                }
            }
        }
        Ok(())
    }

    /// Clients per server in this configuration.
    pub fn clients_per_mds(&self) -> f64 {
        self.n_clients as f64 / self.n_mds as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynmds_partition::StrategyKind;

    #[test]
    fn small_config_is_consistent() {
        let c = SimConfig::small(StrategyKind::DynamicSubtree);
        assert!(c.traffic_control);
        assert!(c.balancing);
        assert_eq!(c.clients_per_mds(), 12.0);
        let s = SimConfig::small(StrategyKind::FileHash);
        assert!(!s.balancing, "only dynamic subtree rebalances by default");
    }

    #[test]
    fn validate_names_the_offending_flag() {
        assert_eq!(SimConfig::small(StrategyKind::DirHash).validate(), Ok(()));
        let mut c = SimConfig::small(StrategyKind::DynamicSubtree);
        c.n_mds = 0;
        assert!(c.validate().unwrap_err().contains("--mds"));
        let mut c = SimConfig::small(StrategyKind::DynamicSubtree);
        c.faults.events.push(crate::fault::FaultEvent::Crash {
            at: dynmds_event::SimTime::from_secs(1),
            mds: dynmds_namespace::MdsId(4),
        });
        assert!(c.validate().unwrap_err().contains("mds4"));
    }

    #[test]
    fn default_costs_are_sane() {
        let m = CostModel::default();
        assert!(m.cpu_forward < m.cpu_per_op, "forwarding is cheaper than serving");
        assert!(m.journal_disk.latency < m.osd_disk.latency, "NVRAM journal is fast");
        assert!(m.journal_disk.iops > m.osd_disk.iops);
    }
}
