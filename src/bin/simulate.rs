//! General-purpose simulation driver: run any strategy/feature
//! combination from the command line and get a full report.
//!
//! ```text
//! simulate [flags]
//!   --strategy  static|dynamic|dirhash|filehash|lazyhybrid|elastic (dynamic)
//!                       (or any strategy label; any case)
//!   --mds N             servers                               (8)
//!   --clients N         clients                               (80)
//!   --items N           metadata items in the snapshot        (32000)
//!   --cache N           per-MDS cache capacity, inodes        (1200)
//!   --osds N            OSD pool size                         (16)
//!   --seconds N         measured virtual seconds              (20)
//!   --warmup N          warm-up virtual seconds               (8)
//!   --seed N            RNG seed                              (7)
//!   --shards N          run the sharded engine on N event queues (0 = legacy serial engine)
//!   --threads N         worker threads for the shard fan-out   (worker policy)
//!   --force-dense       sharded engine: execute every window, never skip idle spans
//!                       (debug/CI knob — output is byte-identical either way)
//!   --workload general|scientific|hotset|diurnal              (general)
//!   --diurnal-period N  diurnal day length, virtual seconds    (4)
//!   --night-mult X      night think-time multiplier            (150)
//!   --leases            enable client metadata leases
//!   --shared-writes     enable GPFS-style shared writes
//!   --proxy N           put N hotspot proxies in front of the cluster (0)
//!   --no-balancing      disable the load balancer
//!   --no-traffic-control  disable flash-crowd replication
//!   --dir-hash N        hash directories beyond N entries
//!   --fail MDS@SECS     kill a node mid-run (repeatable)
//!   --recover MDS@SECS  bring a node back (repeatable)
//!   --faults SPEC       deterministic fault schedule, `;`-separated:
//!                       crash:MDS@T  recover:MDS@T
//!                       churn:mtbf=10s,mttr=2s,seed=9,until=30s[,nodes=A-B]
//!                       disk:lat=4x,iops=0.5x,err=0.01[,scope=osd|journal|all]@FROM..UNTIL
//!                       net:loss=0.02,dup=0.01@FROM..UNTIL
//!   --obs               enable the metrics registry + snapshots
//!   --obs-trace         additionally record per-op lifecycle spans
//!   --obs-out DIR       where the obs JSONL exports go             (.)
//! ```
//!
//! With `--obs`/`--obs-trace` the run ends with a human-readable
//! observability summary and writes `obs_metrics.jsonl`,
//! `obs_snapshots.jsonl` and (tracing only) `obs_trace.jsonl`. All
//! exports are timestamped with the sim clock and byte-identical across
//! runs with the same seed.

use dynmds_core::{FaultEvent, ShardedSimulation, SimConfig, Simulation};
use dynmds_event::{SimDuration, SimTime};
use dynmds_harness::cli::{exit_usage, write_obs, Flags, Shared, SHARED_FLAGS};
use dynmds_metrics::Table;
use dynmds_namespace::{MdsId, Namespace, NamespaceSpec, Snapshot};
use dynmds_partition::StrategyKind;
use dynmds_workload::{
    DiurnalWorkload, GeneralWorkload, HotSetWorkload, ScientificWorkload, Workload, WorkloadConfig,
};

struct Args {
    sh: Shared,
    items: u64,
    osds: usize,
    seconds: u64,
    warmup: u64,
    workload: String,
    diurnal_period: u64,
    night_mult: f64,
    leases: bool,
    shared_writes: bool,
    no_balancing: bool,
    no_traffic_control: bool,
    dir_hash: usize,
    /// `--fail`/`--recover`, in flag order.
    scripted: Vec<FaultEvent>,
    obs_out: String,
}

/// `MDS@SECS` of `--fail`/`--recover`.
fn scripted_fault(f: &mut Flags, recover: bool) -> Result<FaultEvent, String> {
    let v = f.text()?;
    let Some((m, s)) = v.split_once('@') else { return f.err(format!("`{v}`: want MDS@SECS")) };
    let (Ok(m), Ok(s)) = (m.parse(), s.parse()) else {
        return f.err(format!("bad MDS@SECS `{v}`"));
    };
    let (at, mds) = (SimTime::from_secs(s), MdsId(m));
    Ok(if recover { FaultEvent::Recover { at, mds } } else { FaultEvent::Crash { at, mds } })
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        // simulate's cluster defaults: 8 MDS, 80 clients, 1200-inode caches.
        sh: Shared { mds: Some(8), clients: Some(80), cache: Some(1_200), ..Shared::default() },
        items: 32_000,
        osds: 16,
        seconds: 20,
        warmup: 8,
        workload: "general".into(),
        diurnal_period: 4,
        night_mult: 150.0,
        leases: false,
        shared_writes: false,
        no_balancing: false,
        no_traffic_control: false,
        dir_hash: 0,
        scripted: Vec::new(),
        obs_out: ".".into(),
    };
    let mut f = Flags::new(raw);
    while let Some(flag) = f.next_flag() {
        match flag.as_str() {
            "--items" => a.items = f.value()?,
            "--osds" => a.osds = f.value()?,
            "--seconds" => a.seconds = f.value()?,
            "--warmup" => a.warmup = f.value()?,
            "--workload" => a.workload = f.text()?,
            "--diurnal-period" => a.diurnal_period = f.value()?,
            "--night-mult" => a.night_mult = f.value()?,
            "--leases" => a.leases = true,
            "--shared-writes" => a.shared_writes = true,
            "--no-balancing" => a.no_balancing = true,
            "--no-traffic-control" => a.no_traffic_control = true,
            "--dir-hash" => a.dir_hash = f.value()?,
            "--fail" => a.scripted.push(scripted_fault(&mut f, false)?),
            "--recover" => a.scripted.push(scripted_fault(&mut f, true)?),
            "--obs-out" => a.obs_out = f.text()?,
            "-h" | "--help" => {
                eprintln!("see `simulate --help` header comment in the source for flags");
                std::process::exit(0);
            }
            _ if a.sh.read(&flag, SHARED_FLAGS, &mut f)? => {}
            _ => return f.err("unknown flag"),
        }
    }
    Ok(a)
}

/// Per-shard workload builder: each shard gets its own generator over its
/// own namespace replica, all seeded identically. The serial engine
/// builds its one workload through the same factory.
type WorkloadFactory = Box<dyn Fn(&Namespace) -> Box<dyn Workload + Send>>;

/// Flags → validated config, snapshot and workload: every usage or
/// config error surfaces here, before anything runs or prints.
fn build(
    raw: impl IntoIterator<Item = String>,
) -> Result<(Args, SimConfig, Snapshot, WorkloadFactory), String> {
    let a = parse_args(raw)?;
    let strategy = match a.sh.strategies.as_deref() {
        None => StrategyKind::DynamicSubtree,
        Some(&[k]) => k,
        Some(_) => return Err("--strategy: simulate runs one strategy, not `all`".into()),
    };
    let mut cfg = SimConfig::small(strategy);
    a.sh.apply(&mut cfg);
    cfg.n_osds = a.osds;
    cfg.client_leases = a.leases;
    cfg.shared_writes = a.shared_writes;
    cfg.dir_hash_threshold = a.dir_hash;
    cfg.balancing &= !a.no_balancing;
    cfg.traffic_control &= !a.no_traffic_control;
    // `--fail`/`--recover` stay scripted queue events on the serial
    // engine; validate them together with the schedule.
    let mut check = cfg.clone();
    check.faults.events.extend(&a.scripted);
    check.validate()?;
    let sharded = a.sh.shards.unwrap_or(0) > 0;
    if sharded && cfg.obs.trace {
        return Err("--obs-trace is not supported with --shards (no per-op spans)".into());
    }

    let (n_clients, seed) = (cfg.n_clients as usize, cfg.seed);
    let snapshot = NamespaceSpec::with_target_items(n_clients, a.items, seed ^ 0xF5).generate();
    let homes = snapshot.user_homes.clone();
    let shared = snapshot.shared_roots.clone();
    let general = move |ns: &Namespace| {
        let wl = WorkloadConfig { seed: seed ^ 0x17, ..Default::default() };
        GeneralWorkload::new(wl, n_clients, &homes, &shared, ns)
    };
    let factory: WorkloadFactory = match (a.workload.as_str(), sharded) {
        ("general", _) => Box::new(move |ns| Box::new(general(ns))),
        ("diurnal", _) => {
            if a.diurnal_period == 0 {
                return Err("--diurnal-period must be positive".into());
            }
            if a.night_mult.is_nan() || a.night_mult < 1.0 {
                return Err(format!("--night-mult {} is below 1", a.night_mult));
            }
            let (period, mult) = (SimDuration::from_secs(a.diurnal_period), a.night_mult);
            Box::new(move |ns| Box::new(DiurnalWorkload::new(general(ns), period, mult)))
        }
        ("scientific", false) => {
            let roots = snapshot.shared_roots.clone();
            let homes = snapshot.user_homes.clone();
            Box::new(move |ns| {
                let shared_dirs: Vec<_> = roots
                    .iter()
                    .flat_map(|&r| ns.walk(r).filter(|&i| ns.is_dir(i)).take(4))
                    .collect();
                Box::new(ScientificWorkload::new(
                    seed ^ 0x17,
                    n_clients,
                    &homes,
                    &shared_dirs,
                    SimDuration::from_secs(8),
                    SimDuration::from_secs(2),
                ))
            })
        }
        ("hotset", true) => {
            Box::new(move |ns| Box::new(HotSetWorkload::new(ns, n_clients, 32, seed ^ 0x17)))
        }
        (other, false) => return Err(format!("--workload: unknown workload {other}")),
        (other, true) => {
            return Err(format!(
                "--workload: {other} is not supported with --shards (use general|hotset|diurnal)"
            ))
        }
    };
    Ok((a, cfg, snapshot, factory))
}

fn main() {
    let (a, cfg, snapshot, factory) =
        build(std::env::args().skip(1)).unwrap_or_else(|e| exit_usage("simulate", &e));
    dynmds_harness::parallel::set_thread_override(a.sh.threads);
    let stats = snapshot.stats();
    println!(
        "snapshot: {} items ({} dirs, max depth {}); cluster: {} × {}-inode caches; {} clients\n",
        stats.total, stats.dirs, stats.max_depth, cfg.n_mds, cfg.cache_capacity, cfg.n_clients
    );

    if a.sh.shards.unwrap_or(0) > 0 {
        run_sharded(&a, cfg, snapshot, &*factory);
        return;
    }

    let workload = factory(&snapshot.ns);
    let mut sim = Simulation::new(cfg, snapshot, workload);
    for &ev in &a.scripted {
        match ev {
            FaultEvent::Recover { at, mds } => sim.schedule_recovery(at, mds),
            FaultEvent::Crash { at, mds } => sim.schedule_failure(at, mds),
            _ => unreachable!("only --fail/--recover are scripted"),
        }
    }
    sim.run_until(SimTime::from_secs(a.warmup));
    sim.cluster_mut().reset_measurement(SimTime::from_secs(a.warmup));
    sim.run_until(SimTime::from_secs(a.warmup + a.seconds));

    let migrations = sim.cluster().migrations;
    let lease_hits = sim.cluster().clients.lease_hits();
    let absorbed = sim.cluster().shared_write_absorbed;
    let timeouts = sim.cluster().failover_timeouts;
    let (retries, gave_up) = (sim.cluster().retries_total, sim.cluster().gave_up);
    let (net_lost, net_dup) = (sim.cluster().net_lost, sim.cluster().net_dup);
    let (proxy_absorbed, proxy_forwarded) =
        (sim.cluster().proxy_absorbed, sim.cluster().proxy_forwarded);
    let report = sim.finish();

    println!("== results over {:.0} measured seconds ==", report.span_secs());
    println!("per-MDS throughput : {:.0} ops/s", report.avg_mds_throughput());
    println!("cache hit rate     : {:.1} %", report.overall_hit_rate() * 100.0);
    println!("prefix cache share : {:.1} %", report.mean_prefix_pct());
    println!(
        "forwarded requests : {:.2} %",
        100.0 * report.total_forwarded() as f64 / report.total_received().max(1) as f64
    );
    println!(
        "latency mean/p50/p99: {:.2} / {:.2} / {:.2} ms",
        report.latency.mean().unwrap_or(0.0) * 1e3,
        report.latency.median().unwrap_or(0.0) * 1e3,
        report.latency.quantile(0.99).unwrap_or(0.0) * 1e3,
    );
    if migrations > 0 {
        println!("subtree migrations : {migrations}");
    }
    if lease_hits > 0 {
        println!("lease-served reads : {lease_hits}");
    }
    if absorbed > 0 {
        println!("shared writes absorbed: {absorbed}");
    }
    if proxy_absorbed > 0 || proxy_forwarded > 0 {
        println!("proxy absorbed     : {proxy_absorbed} ({proxy_forwarded} forwarded hot)");
    }
    if timeouts > 0 {
        println!("failover timeouts  : {timeouts}");
    }
    if retries > 0 || gave_up > 0 {
        println!("client retries     : {retries} ({gave_up} gave up)");
    }
    if net_lost > 0 || net_dup > 0 {
        println!("network faults     : {net_lost} lost, {net_dup} duplicated");
    }

    println!("\nlatency distribution:");
    print!("{}", report.latency.histogram(0.0005, 8).render(40));

    let mut t =
        Table::new("per-node detail", &["node", "served", "fwd", "hit%", "prefix%", "cache"]);
    for (i, n) in report.nodes.iter().enumerate() {
        t.row(&[
            format!("mds{i}"),
            n.served.to_string(),
            n.forwarded.to_string(),
            format!("{:.1}", n.hit_rate * 100.0),
            format!("{:.1}", n.prefix_fraction * 100.0),
            n.cache_len.to_string(),
        ]);
    }
    println!("\n{}", t.render());

    if let Some(export) = &report.obs {
        println!("\n{}", export.summary);
        write_obs("simulate", "--obs-out", &a.obs_out, export);
    }
}

/// The `--shards N` path: one run over N event queues with deterministic
/// cross-shard exchanges. The report/CSV surface is invariant in N.
fn run_sharded(
    a: &Args,
    mut cfg: SimConfig,
    snapshot: Snapshot,
    factory: &dyn Fn(&Namespace) -> Box<dyn Workload + Send>,
) {
    // The sharded engine consumes one declarative fault schedule.
    cfg.faults.events.extend(&a.scripted);
    dynmds_harness::parallel::install_shard_driver();
    let sim =
        ShardedSimulation::new(cfg, a.sh.shards.unwrap_or(0), a.sh.threads, snapshot, factory);
    let report =
        sim.run_measured(SimDuration::from_secs(a.warmup), SimDuration::from_secs(a.seconds));
    print!("{}", report.render());

    if let Some(export) = &report.obs {
        println!("\n{}", export.summary);
        write_obs("simulate", "--obs-out", &a.obs_out, export);
    }
}
