//! The four benchmark workloads, each a list of cases: one simulation
//! built from the seed, warmed up, measured and reported.
//!
//! Sizing follows the simulator's own figure configurations
//! (`dynmds_harness::params`, `elasticrun`, `hotspotrun`, `scalerun`),
//! namespace included; the command-line seed drives the client streams
//! and the simulator's RNGs.

use std::sync::Arc;
use std::time::Instant;

use dynmds_core::{LatencyAgg, ShardReport, ShardedSimulation, SimConfig, SimReport, Simulation};
use dynmds_event::{SimDuration, SimTime};
use dynmds_harness::elasticrun::elasticity_config;
use dynmds_harness::hotspotrun::hotspot_config;
use dynmds_harness::params::{scaling_config, ExperimentScale};
use dynmds_harness::ScaleParams;
use dynmds_namespace::{NamespaceSpec, Snapshot, StreamingGenerator};
use dynmds_obs::ObsConfig;
use dynmds_partition::StrategyKind;
use dynmds_storage::DiskParams;
use dynmds_workload::{
    CreateStorm, DiurnalWorkload, GeneralWorkload, RenameStorm, ScaleWorkload, Workload,
    WorkloadConfig,
};

/// Benchmark workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["paper_general", "scale_stat", "diurnal_elastic", "write_storms"];

/// Shards for every sharded-engine workload (one per MDS at 8 MDS).
pub const SHARDS: usize = 8;

/// A boxed client-operation generator as the engines take it.
pub type BoxedWorkload = Box<dyn Workload + Send>;

/// Hook the benchmark passes every workload through before an engine
/// sees it (identity when untraced, a timing wrapper when traced).
pub type Wrap<'a> = &'a (dyn Fn(BoxedWorkload) -> BoxedWorkload + Sync);

/// How one invocation runs its simulations.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Seed of the client streams and the simulator's RNGs.
    pub seed: u64,
    /// Event-queue shards (ignored by the legacy engine).
    pub shards: usize,
    /// Worker threads for the shard fan-out.
    pub threads: usize,
    /// Observability switches (legacy engine only).
    pub obs: ObsConfig,
}

/// One simulation of a workload.
pub struct Case {
    /// Name in error messages.
    pub label: &'static str,
    /// Unmeasured simulated span before the statistics reset.
    pub warmup: SimDuration,
    /// Measured simulated span.
    pub measure: SimDuration,
    build: fn(&Opts, Wrap) -> Built,
}

/// An engine ready to run, with what building it measured.
pub struct Built {
    pub engine: Engine,
    /// Host seconds spent generating the namespace.
    pub namespace_s: f64,
    /// Namespace heap bytes per live inode.
    pub bytes_per_inode: f64,
    /// Clients per event queue: the steady-state pending-event count.
    pub pending_per_queue: usize,
    /// Mean client think time (the queue's delta hint).
    pub think_mean: SimDuration,
}

impl Case {
    /// Builds the namespace, the workload and the engine.
    pub fn build(&self, opts: &Opts, wrap: Wrap) -> Built {
        (self.build)(opts, wrap)
    }
}

/// The cases of a workload, or `None` for an unknown name.
pub fn cases(name: &str) -> Option<Vec<Case>> {
    let full = ExperimentScale::Full;
    Some(match name {
        "paper_general" => vec![Case {
            label: "paper_general",
            warmup: full.warmup(),
            measure: full.measure(),
            build: paper_general,
        }],
        "scale_stat" => {
            let p = ScaleParams::smoke();
            vec![Case {
                label: "scale_stat",
                warmup: p.warmup,
                measure: SimDuration::from_secs(6),
                build: scale_stat,
            }]
        }
        "diurnal_elastic" => vec![Case {
            label: "diurnal_elastic",
            warmup: full.warmup(),
            measure: SimDuration::from_micros(DIURNAL_PERIOD.as_micros() * DIURNAL_DAYS),
            build: diurnal_elastic,
        }],
        "write_storms" => {
            // Full sizing, short spans: four storms per repetition.
            let case = |label, build| Case {
                label,
                warmup: SimDuration::from_secs(2),
                measure: SimDuration::from_secs(2),
                build,
            };
            vec![
                case("create_storm/redirect", |o, w| storm(o, w, "redirect", false)),
                case("create_storm/proxy", |o, w| storm(o, w, "proxy", false)),
                case("rename_storm/redirect", |o, w| storm(o, w, "redirect", true)),
                case("rename_storm/proxy", |o, w| storm(o, w, "proxy", true)),
            ]
        }
        _ => return None,
    })
}

/// Whether a workload runs on the sharded engine.
pub fn is_sharded(name: &str) -> bool {
    name != "paper_general"
}

// ---------------------------------------------------------------------
// builders
// ---------------------------------------------------------------------

fn timed_snapshot(spec: NamespaceSpec) -> (Snapshot, f64, f64) {
    let t = Instant::now();
    let snap = spec.generate();
    let secs = t.elapsed().as_secs_f64();
    let per_inode = snap.ns.heap_bytes() as f64 / snap.ns.total_items().max(1) as f64;
    (snap, secs, per_inode)
}

fn general(cfg: &SimConfig, snap: &Snapshot) -> GeneralWorkload {
    GeneralWorkload::new(
        WorkloadConfig { seed: cfg.seed ^ 0x17, ..Default::default() },
        cfg.n_clients as usize,
        &snap.user_homes,
        &snap.shared_roots,
        &snap.ns,
    )
}

/// The spec `scaling_snapshot` builds for a config. Builders take it from
/// the figure's own config before the benchmark seed replaces
/// `cfg.seed`: each workload's namespace is fixed, and the seed drives
/// the clients and the simulator.
fn scaling_spec(cfg: &SimConfig) -> NamespaceSpec {
    NamespaceSpec::with_target_items(
        cfg.n_clients as usize,
        ExperimentScale::Full.items_per_mds() * cfg.n_mds as u64,
        cfg.seed ^ 0xF5,
    )
}

/// Figure 2/3 scaling point at 12 MDS, paper-shaped sizing, on the
/// legacy engine.
fn paper_general(opts: &Opts, wrap: Wrap) -> Built {
    let mut cfg = scaling_config(StrategyKind::DynamicSubtree, 12, ExperimentScale::Full);
    let spec = scaling_spec(&cfg);
    cfg.seed = opts.seed;
    cfg.obs = opts.obs;
    let (snap, namespace_s, bytes_per_inode) = timed_snapshot(spec);
    let wl = wrap(Box::new(general(&cfg, &snap)));
    let (pending_per_queue, think_mean) = (cfg.n_clients as usize, cfg.costs.think_mean);
    let engine = Engine::Legacy(Box::new(Simulation::new(cfg, snap, wl)));
    Built { engine, namespace_s, bytes_per_inode, pending_per_queue, think_mean }
}

/// The `ScaleParams::smoke` tier (50k clients, streaming 10⁶-item
/// namespace) with the dynamic-subtree strategy, built exactly as
/// `dynmds_harness::run_scale` builds it (whose config builder is
/// private to the harness, hence the copy below).
fn scale_stat(opts: &Opts, wrap: Wrap) -> Built {
    let mut p = ScaleParams::smoke();
    let spec = p.spec();
    p.seed = opts.seed;
    let t = Instant::now();
    let mut generator = StreamingGenerator::new(spec);
    for u in 0..p.materialize_users {
        generator.materialize_user(u);
    }
    let mut snap = generator.into_snapshot();
    snap.ns.shrink_to_fit();
    let namespace_s = t.elapsed().as_secs_f64();
    let bytes_per_inode = snap.ns.heap_bytes() as f64 / snap.ns.total_items().max(1) as f64;
    let (files, ranges) = ScaleWorkload::collect(&snap.ns, &snap.user_homes);

    let mut cfg = SimConfig::small(StrategyKind::DynamicSubtree);
    cfg.n_mds = p.n_mds;
    cfg.n_clients = p.clients;
    cfg.cache_capacity = p.cache_capacity;
    cfg.journal_capacity = p.cache_capacity * 4;
    cfg.n_osds = (p.n_mds as usize * 2).max(16);
    cfg.client_leases = true;
    cfg.lease_ttl = SimDuration::from_secs(600);
    cfg.costs.think_mean = p.think_mean;
    cfg.costs.cpu_per_op = SimDuration::from_micros(30);
    cfg.costs.cpu_forward = SimDuration::from_micros(5);
    cfg.costs.osd_disk = DiskParams { latency: SimDuration::from_micros(200), iops: 20_000.0 };
    cfg.balancing = true;
    cfg.traffic_control = true;
    cfg.seed = p.seed;
    let (n_clients, ring) = (p.clients as usize, p.ring);
    let pending_per_queue = n_clients.div_ceil(opts.shards);
    let engine = sharded(cfg, opts, snap, &move |_| {
        wrap(Box::new(ScaleWorkload::new(Arc::clone(&files), Arc::clone(&ranges), n_clients, ring)))
    });
    Built { engine, namespace_s, bytes_per_inode, pending_per_queue, think_mean: p.think_mean }
}

/// Day length of the diurnal envelope (the elasticity figure's Full
/// shape: 8 s days, nights ×150 slower).
const DIURNAL_PERIOD: SimDuration = SimDuration::from_secs(8);
const DIURNAL_NIGHT_MULT: f64 = 150.0;
/// Simulated days in the measured span.
const DIURNAL_DAYS: u64 = 8;

/// The elasticity figure's ElasticSubtree row.
fn diurnal_elastic(opts: &Opts, wrap: Wrap) -> Built {
    let mut cfg = elasticity_config(StrategyKind::ElasticSubtree, ExperimentScale::Full);
    let spec = scaling_spec(&cfg);
    cfg.seed = opts.seed;
    let (snap, namespace_s, bytes_per_inode) = timed_snapshot(spec);
    let (homes, shared) = (snap.user_homes.clone(), snap.shared_roots.clone());
    let (n_clients, wl_seed) = (cfg.n_clients as usize, cfg.seed ^ 0x17);
    let pending_per_queue = n_clients.div_ceil(opts.shards);
    let think_mean = cfg.costs.think_mean;
    let engine = sharded(cfg, opts, snap, &move |ns| {
        let inner = GeneralWorkload::new(
            WorkloadConfig { seed: wl_seed, ..Default::default() },
            n_clients,
            &homes,
            &shared,
            ns,
        );
        wrap(Box::new(DiurnalWorkload::new(inner, DIURNAL_PERIOD, DIURNAL_NIGHT_MULT)))
    });
    Built { engine, namespace_s, bytes_per_inode, pending_per_queue, think_mean }
}

/// One hotspot-figure storm run (8 MDS; `proxy` mode adds 2 proxies).
fn storm(opts: &Opts, wrap: Wrap, mode: &str, rename: bool) -> Built {
    let mut cfg = hotspot_config(mode, ExperimentScale::Full);
    let spec = scaling_spec(&cfg);
    cfg.seed = opts.seed;
    let (snap, namespace_s, bytes_per_inode) = timed_snapshot(spec);
    let n_clients = cfg.n_clients as usize;
    let shared = snap.shared_roots.clone();
    let pending_per_queue = n_clients.div_ceil(opts.shards);
    let think_mean = cfg.costs.think_mean;
    let engine = sharded(cfg, opts, snap, &move |ns| {
        if rename {
            let dirs = if shared.is_empty() { vec![ns.root()] } else { shared.clone() };
            wrap(Box::new(RenameStorm::new(dirs, n_clients)))
        } else {
            let dir = shared.first().copied().unwrap_or_else(|| ns.root());
            wrap(Box::new(CreateStorm::new(dir, n_clients)))
        }
    });
    Built { engine, namespace_s, bytes_per_inode, pending_per_queue, think_mean }
}

fn sharded(
    cfg: SimConfig,
    opts: &Opts,
    snap: Snapshot,
    make: &dyn Fn(&dynmds_namespace::Namespace) -> BoxedWorkload,
) -> Engine {
    Engine::Sharded(Box::new(ShardedSimulation::new(
        cfg,
        opts.shards,
        Some(opts.threads),
        snap,
        make,
    )))
}

// ---------------------------------------------------------------------
// engines
// ---------------------------------------------------------------------

/// Either simulation engine, behind the calls the benchmark makes.
pub enum Engine {
    Legacy(Box<Simulation>),
    Sharded(Box<ShardedSimulation>),
}

impl Engine {
    /// Advances to `t`; returns the events dispatched (legacy engine
    /// only, 0 for the sharded engine, which does not report them).
    pub fn run_until(&mut self, t: SimTime) -> u64 {
        match self {
            Engine::Legacy(s) => s.run_until(t),
            Engine::Sharded(s) => {
                s.run_until(t);
                0
            }
        }
    }

    /// Ends the warm-up: statistics restart at `now`.
    pub fn reset_measurement(&mut self, now: SimTime) {
        match self {
            Engine::Legacy(s) => s.cluster_mut().reset_measurement(now),
            Engine::Sharded(s) => s.reset_measurement(),
        }
    }

    /// Legacy-engine lifetime counters `(gave_up, migrations)`: ops
    /// abandoned at the retry cap and subtree migrations so far. `None`
    /// on the sharded engine, whose report counts its measured span.
    pub fn counters(&self) -> Option<(u64, u64)> {
        match self {
            Engine::Legacy(s) => Some((s.cluster().gave_up, s.cluster().migrations)),
            Engine::Sharded(_) => None,
        }
    }

    pub fn finish(self) -> Outcome {
        match self {
            Engine::Legacy(s) => Outcome::legacy(s.finish()),
            Engine::Sharded(s) => Outcome::sharded(s.finish()),
        }
    }
}

/// What one case's report says, reduced to what the benchmark checks
/// and records.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Deterministic text render of the report (the digest input).
    pub render: String,
    /// Completed client ops in the measured span.
    pub ops: u64,
    /// Ops abandoned at the retry cap.
    pub failed: u64,
    pub served: u64,
    /// Served ops weighted by each node's cache hit rate.
    pub hits: f64,
    pub forwarded: u64,
    pub disk_fetches: u64,
    pub migrations: u64,
    pub scale_outs: u64,
    pub scale_ins: u64,
    pub proxies: u16,
    pub proxy_absorbed: u64,
    pub proxy_coalesced: u64,
    pub proxy_forwarded: u64,
    pub proxy_flushes: u64,
    /// Latency of completed ops in log2 µs buckets (merged across cases).
    latency: Option<LatencyAgg>,
    /// Exact latency quantiles (p50, p99) in µs, legacy engine only.
    exact_lat_us: Option<(f64, f64)>,
}

impl Outcome {
    fn legacy(r: SimReport) -> Self {
        use std::fmt::Write as _;
        let mut render = String::new();
        let q = |p| r.latency.quantile(p).unwrap_or(0.0);
        let _ = writeln!(
            render,
            "legacy {:?}: {} MDS, {:?}..{:?}\nlatency n={} mean={:?} p50={:?} p99={:?} max={:?}",
            r.strategy,
            r.n_mds,
            r.measure_start,
            r.measure_end,
            r.latency.count(),
            r.latency.mean(),
            q(0.5),
            q(0.99),
            r.latency.max()
        );
        for n in &r.nodes {
            let _ = writeln!(render, "{n:?}");
        }
        for s in r.served_series.iter().chain(&r.forwarded_series).chain(&r.received_series) {
            let _ = writeln!(render, "{s:?}");
        }
        let sum = |f: fn(&dynmds_core::NodeSnapshot) -> u64| r.nodes.iter().map(f).sum::<u64>();
        Outcome {
            render,
            ops: r.latency.count() as u64,
            served: r.total_served(),
            hits: r.nodes.iter().map(|n| n.hit_rate * n.served as f64).sum(),
            forwarded: r.total_forwarded(),
            disk_fetches: sum(|n| n.disk_fetches),
            exact_lat_us: Some((q(0.5) * 1e6, q(0.99) * 1e6)),
            ..Default::default()
        }
    }

    fn sharded(r: ShardReport) -> Self {
        let sum = |f: fn(&dynmds_core::NodeSnapshot) -> u64| r.nodes.iter().map(f).sum::<u64>();
        Outcome {
            render: r.render(),
            ops: r.ops,
            failed: r.failed,
            served: sum(|n| n.served),
            hits: r.nodes.iter().map(|n| n.hit_rate * n.served as f64).sum(),
            forwarded: sum(|n| n.forwarded),
            disk_fetches: sum(|n| n.disk_fetches),
            migrations: r.migrations,
            scale_outs: r.scale_outs,
            scale_ins: r.scale_ins,
            proxies: r.proxies,
            proxy_absorbed: r.proxy_absorbed,
            proxy_coalesced: r.proxy_coalesced,
            proxy_forwarded: r.proxy_forwarded,
            proxy_flushes: r.proxy_flushes,
            exact_lat_us: None,
            latency: Some(r.latency),
        }
    }

    /// Folds another case's outcome into this one (write storms).
    pub fn absorb(&mut self, o: Outcome) {
        self.render.push_str(&o.render);
        self.ops += o.ops;
        self.failed += o.failed;
        self.served += o.served;
        self.hits += o.hits;
        self.forwarded += o.forwarded;
        self.disk_fetches += o.disk_fetches;
        self.migrations += o.migrations;
        self.scale_outs += o.scale_outs;
        self.scale_ins += o.scale_ins;
        self.proxies = self.proxies.max(o.proxies);
        self.proxy_absorbed += o.proxy_absorbed;
        self.proxy_coalesced += o.proxy_coalesced;
        self.proxy_forwarded += o.proxy_forwarded;
        self.proxy_flushes += o.proxy_flushes;
        self.exact_lat_us = self.exact_lat_us.or(o.exact_lat_us);
        self.latency = match (self.latency.take(), o.latency) {
            (Some(mut a), Some(b)) => {
                a.count += b.count;
                a.sum_us += b.sum_us;
                a.min_us = a.min_us.min(b.min_us);
                a.max_us = a.max_us.max(b.max_us);
                for (x, y) in a.buckets.iter_mut().zip(b.buckets.iter()) {
                    *x += y;
                }
                Some(a)
            }
            (a, b) => a.or(b),
        };
    }

    /// Latency quantiles (p50, p99) in µs: exact on the legacy engine,
    /// bucket lower bounds on the sharded one.
    pub fn lat_us(&self) -> (f64, f64) {
        match (&self.exact_lat_us, &self.latency) {
            (Some(q), _) => *q,
            (None, Some(l)) => (l.quantile_us(0.5) as f64, l.quantile_us(0.99) as f64),
            (None, None) => (0.0, 0.0),
        }
    }
}
