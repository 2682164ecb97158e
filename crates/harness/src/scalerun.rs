//! The scale tier (ROADMAP item 1): ≥10⁶ simulated clients against a
//! 10⁸-inode-class namespace.
//!
//! The trick that makes this fit in memory is the streaming snapshot
//! generator: the namespace is *logically* sized to the target (every
//! subtree's content is fixed by the deterministic seed), but only the
//! user subtrees the workload actually touches are materialized. A
//! million clients then hammer the materialized sample through
//! [`ScaleWorkload`], whose per-shard copies share their file tables
//! behind `Arc`s.
//!
//! Reported metrics split by determinism:
//!
//! * the CSV ([`scale_table`]) carries only virtual-time-derived values —
//!   ops, latency quantiles, namespace footprint — and is byte-identical
//!   across reruns, shard counts, and thread counts at a fixed seed;
//! * wall-clock throughput and peak RSS are machine-dependent and go to
//!   stdout / `BENCH_sim.json` only, never into the CSV.

use std::sync::Arc;
use std::time::Instant;

use dynmds_core::{ShardReport, ShardedSimulation, SimConfig};
use dynmds_event::SimDuration;
use dynmds_metrics::Table;
use dynmds_namespace::{NamespaceSpec, StreamingGenerator};
use dynmds_partition::StrategyKind;
use dynmds_storage::DiskParams;
use dynmds_workload::ScaleWorkload;

/// Sizing and engine knobs for one scale run.
#[derive(Clone, Debug)]
pub struct ScaleParams {
    /// Simulated clients.
    pub clients: u32,
    /// Logical users in the namespace spec (most stay unmaterialized).
    pub users: usize,
    /// Logical namespace size target (inodes).
    pub target_items: u64,
    /// User subtrees to materialize (the workload's footprint).
    pub materialize_users: usize,
    /// Files per client ring.
    pub ring: u32,
    /// Cluster size.
    pub n_mds: u16,
    /// Per-MDS cache capacity (inodes).
    pub cache_capacity: usize,
    /// Mean think time between a client's operations.
    pub think_mean: SimDuration,
    /// Unmeasured lease-population span.
    pub warmup: SimDuration,
    /// Measured span.
    pub measure: SimDuration,
    /// Event-queue shards.
    pub shards: usize,
    /// Worker threads (`None` = process override / `DYNMDS_THREADS` /
    /// detected).
    pub threads: Option<usize>,
    /// Strategies to run, in order.
    pub strategies: Vec<StrategyKind>,
    /// Base seed.
    pub seed: u64,
}

impl ScaleParams {
    /// CI smoke sizing: ~10⁶ logical inodes, 50k clients — seconds.
    pub fn smoke() -> Self {
        ScaleParams {
            clients: 50_000,
            users: 10_000,
            target_items: 1_000_000,
            materialize_users: 512,
            ring: 2,
            n_mds: 8,
            cache_capacity: 16_384,
            think_mean: SimDuration::from_millis(500),
            warmup: SimDuration::from_secs(4),
            measure: SimDuration::from_secs(2),
            shards: 4,
            threads: None,
            strategies: vec![StrategyKind::DynamicSubtree, StrategyKind::FileHash],
            seed: 42,
        }
    }

    /// Full tier sizing: ≥10⁶ clients, ≥10⁸ logical inodes — minutes.
    /// Excluded from CI; `scripts/test_full.sh` / `experiments scale`
    /// territory.
    pub fn full() -> Self {
        ScaleParams {
            clients: 1_000_000,
            users: 1_000_000,
            target_items: 100_000_000,
            materialize_users: 4_096,
            ring: 2,
            n_mds: 16,
            cache_capacity: 65_536,
            think_mean: SimDuration::from_millis(500),
            warmup: SimDuration::from_secs(8),
            measure: SimDuration::from_secs(2),
            shards: 8,
            threads: None,
            strategies: vec![
                StrategyKind::StaticSubtree,
                StrategyKind::DynamicSubtree,
                StrategyKind::DirHash,
                StrategyKind::FileHash,
                StrategyKind::LazyHybrid,
            ],
            seed: 42,
        }
    }

    /// Rejects sizings the scale run cannot execute; checked once where
    /// `experiments scale` turns its flags into a run. Messages name the
    /// flag that sets the offending field.
    pub fn validate(&self) -> Result<(), String> {
        let counts = [
            ("ring (--ring)", self.ring as u64),
            ("users (--users)", self.users as u64),
            ("materialize_users (--materialize)", self.materialize_users as u64),
            ("think_mean (--think-us)", self.think_mean.as_micros()),
            ("strategies (--strategy)", self.strategies.len() as u64),
            ("threads (--threads)", self.threads.map_or(1, |t| t as u64)),
        ];
        if let Some((name, _)) = counts.iter().find(|&&(_, v)| v == 0) {
            return Err(format!("{name} must be at least 1"));
        }
        if self.materialize_users > self.users {
            return Err(format!(
                "--materialize {} exceeds --users {}",
                self.materialize_users, self.users
            ));
        }
        self.strategies.iter().try_for_each(|&s| scale_config(self, s).validate())
    }

    /// The namespace spec all strategies share.
    pub fn spec(&self) -> NamespaceSpec {
        NamespaceSpec::with_target_items(self.users, self.target_items, self.seed ^ 0xF5)
    }
}

/// One strategy's outcome.
pub struct ScalePoint {
    /// Strategy under test.
    pub strategy: StrategyKind,
    /// Simulated clients the run drove.
    pub clients: u32,
    /// Logical namespace size (what an eager generator would build).
    pub logical_inodes: u64,
    /// Actually-materialized live items.
    pub materialized_inodes: u64,
    /// Namespace heap footprint after `shrink_to_fit`, in bytes.
    pub namespace_heap_bytes: u64,
    /// The engine's (shard-count-invariant) report.
    pub report: ShardReport,
    /// Wall-clock seconds for the measured span (nondeterministic —
    /// stdout/JSON only, never the CSV).
    pub wall_s: f64,
}

impl ScalePoint {
    /// Heap bytes per materialized inode — the SoA compactness metric the
    /// CI gate budgets (≤ 64).
    pub fn bytes_per_inode(&self) -> f64 {
        self.namespace_heap_bytes as f64 / self.materialized_inodes.max(1) as f64
    }

    /// Completed ops per wall-clock second (nondeterministic).
    pub fn wall_ops_per_sec(&self) -> f64 {
        self.report.ops as f64 / self.wall_s.max(1e-9)
    }
}

fn scale_config(p: &ScaleParams, strategy: StrategyKind) -> SimConfig {
    let mut cfg = SimConfig::small(strategy);
    cfg.n_mds = p.n_mds;
    cfg.n_clients = p.clients;
    cfg.cache_capacity = p.cache_capacity;
    cfg.journal_capacity = p.cache_capacity * 4;
    cfg.n_osds = (p.n_mds as usize * 2).max(16);
    // Lease-heavy steady state: leases outlive the run so the measured
    // window is dominated by client-local completions, the regime a
    // million-client deployment must sit in to be viable at all.
    cfg.client_leases = true;
    cfg.lease_ttl = SimDuration::from_secs(600);
    cfg.costs.think_mean = p.think_mean;
    // Modern-hardware cost model (like the flash OSDs below): the 2004
    // default of 150µs CPU per op caps 16 MDS at ~10⁵ ops/s, so merely
    // populating clients×ring leases would take most of a virtual
    // minute. 30µs keeps warmup ∝ clients at a tolerable constant.
    cfg.costs.cpu_per_op = SimDuration::from_micros(30);
    cfg.costs.cpu_forward = SimDuration::from_micros(5);
    // Flash OSD pool; the 2004 commodity-disk default would stretch
    // lease population past any reasonable warmup at this client count.
    cfg.costs.osd_disk = DiskParams { latency: SimDuration::from_micros(200), iops: 20_000.0 };
    cfg.balancing = strategy == StrategyKind::DynamicSubtree;
    cfg.traffic_control = strategy == StrategyKind::DynamicSubtree;
    cfg.seed = p.seed;
    cfg
}

/// Runs every strategy in `p` and returns the per-strategy points.
/// Strategies run sequentially — one sharded engine already fans out
/// across the worker pool, and peak RSS (a reported metric) must not be
/// inflated by concurrent namespaces.
pub fn run_scale(p: &ScaleParams) -> Vec<ScalePoint> {
    assert!(!p.strategies.is_empty(), "need at least one strategy");
    assert!(p.materialize_users >= 1 && p.materialize_users <= p.users);
    crate::parallel::install_shard_driver();
    // Logical size depends only on the spec, not the strategy: count it
    // once (it replays every subtree's draw sequence, which at 10⁶ users
    // is seconds of work worth not repeating).
    let mut logical_inodes = None;
    p.strategies
        .iter()
        .map(|&strategy| {
            eprintln!("scale: {} — materializing namespace sample...", strategy.label());
            let mut generator = StreamingGenerator::new(p.spec());
            for u in 0..p.materialize_users {
                generator.materialize_user(u);
            }
            let logical = *logical_inodes.get_or_insert_with(|| generator.logical_items());
            let mut snap = generator.into_snapshot();
            // Release the Vec-doubling overshoot before measuring the
            // footprint; the budget is on what the run actually holds.
            snap.ns.shrink_to_fit();
            let heap = snap.ns.heap_bytes() as u64;
            let materialized = snap.ns.total_items();
            let (files, ranges) = ScaleWorkload::collect(&snap.ns, &snap.user_homes);

            let cfg = scale_config(p, strategy);
            let n_clients = p.clients as usize;
            let ring = p.ring;
            eprintln!(
                "scale: {} — {n_clients} clients, {materialized} of {logical} inodes \
                 materialized ({:.1} B/inode)...",
                strategy.label(),
                heap as f64 / materialized.max(1) as f64
            );
            let mut sim = ShardedSimulation::new(cfg, p.shards, p.threads, snap, &move |_| {
                Box::new(ScaleWorkload::new(
                    Arc::clone(&files),
                    Arc::clone(&ranges),
                    n_clients,
                    ring,
                ))
            });
            sim.run_until(dynmds_event::SimTime::ZERO + p.warmup);
            sim.reset_measurement();
            let t = Instant::now();
            sim.run_until(dynmds_event::SimTime::ZERO + p.warmup + p.measure);
            let wall_s = t.elapsed().as_secs_f64();
            let report = sim.finish();
            ScalePoint {
                strategy,
                clients: p.clients,
                logical_inodes: logical,
                materialized_inodes: materialized,
                namespace_heap_bytes: heap,
                report,
                wall_s,
            }
        })
        .collect()
}

/// The deterministic results table (and CSV): virtual-time metrics and
/// namespace footprint only — byte-identical across reruns at a fixed
/// seed, any shard count, any thread count.
pub fn scale_table(points: &[ScalePoint]) -> Table {
    let mut t = Table::new(
        "scale",
        &[
            "strategy",
            "mds",
            "clients",
            "logical_inodes",
            "materialized_inodes",
            "namespace_bytes",
            "bytes_per_inode",
            "ops",
            "lease_hit_pct",
            "failed",
            "lat_mean_us",
            "lat_p50_us",
            "lat_p99_us",
            "mds_ops_per_sec",
        ],
    );
    for pt in points {
        let r = &pt.report;
        t.row(&[
            pt.strategy.label().to_string(),
            r.n_mds.to_string(),
            pt.clients.to_string(),
            pt.logical_inodes.to_string(),
            pt.materialized_inodes.to_string(),
            pt.namespace_heap_bytes.to_string(),
            format!("{:.1}", pt.bytes_per_inode()),
            r.ops.to_string(),
            format!("{:.1}", 100.0 * r.lease_hits as f64 / r.ops.max(1) as f64),
            r.failed.to_string(),
            format!("{:.1}", r.latency.mean_us()),
            r.latency.quantile_us(0.50).to_string(),
            r.latency.quantile_us(0.99).to_string(),
            format!("{:.1}", r.avg_mds_throughput()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ScaleParams {
        ScaleParams {
            clients: 200,
            users: 400,
            target_items: 20_000,
            materialize_users: 16,
            ring: 4,
            n_mds: 4,
            cache_capacity: 4_096,
            think_mean: SimDuration::from_millis(50),
            warmup: SimDuration::from_millis(200),
            measure: SimDuration::from_millis(400),
            shards: 2,
            threads: Some(1),
            strategies: vec![StrategyKind::DynamicSubtree],
            seed: 7,
        }
    }

    #[test]
    fn tiny_scale_run_completes_and_stays_compact() {
        let pts = run_scale(&tiny());
        assert_eq!(pts.len(), 1);
        let pt = &pts[0];
        assert!(pt.report.ops > 0, "no ops completed");
        assert!(pt.logical_inodes > pt.materialized_inodes, "streaming saved nothing");
        // The ≤64 budget is gated at smoke scale (≈5×10⁴ inodes) where
        // fixed interner/hash-map overheads amortize; a ~500-inode toy
        // run just has to stay in the same ballpark.
        assert!(pt.bytes_per_inode() < 80.0, "footprint {:.1} B/inode", pt.bytes_per_inode());
    }

    #[test]
    fn validate_rejects_the_shapes_that_used_to_panic() {
        assert_eq!(tiny().validate(), Ok(()));
        let bad: [fn(&mut ScaleParams); 5] = [
            |p| p.clients = 0,
            |p| p.ring = 0,
            |p| p.n_mds = 0,
            |p| p.materialize_users = p.users + 1,
            |p| p.think_mean = SimDuration::ZERO,
        ];
        for (i, edit) in bad.into_iter().enumerate() {
            let mut p = tiny();
            edit(&mut p);
            assert!(p.validate().is_err(), "case {i} passed validation");
        }
    }

    #[test]
    fn scale_csv_is_deterministic_across_shard_counts() {
        let mut a = tiny();
        let mut b = tiny();
        a.shards = 1;
        b.shards = 2;
        let ca = scale_table(&run_scale(&a)).to_csv();
        let cb = scale_table(&run_scale(&b)).to_csv();
        assert_eq!(ca, cb, "CSV must be shard-count-invariant");
    }
}
