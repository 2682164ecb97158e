//! Differential tests for the sharded parallel simulation core: the
//! report/CSV/obs surface must be byte-identical (a) across shard
//! counts for a fixed scenario, (b) across worker-thread counts, with
//! windows running inline or fanned out, and (c) across repeat runs for
//! a fixed shard count — including under fault churn, scripted
//! crash/recover, degraded disks and a lossy network, which exercise the
//! barrier-global step path on top of the per-window event exchange.

use std::cell::Cell;

use dynmds::core::{ChurnSpec, DiskScope, FaultEvent, FaultSchedule, ShardedSimulation, SimConfig};
use dynmds::event::{SimDuration, SimTime};
use dynmds::namespace::{MdsId, NamespaceSpec};
use dynmds::partition::StrategyKind;
use dynmds::storage::{DiskFault, DiskParams};
use dynmds::workload::{DiurnalWorkload, GeneralWorkload, Workload, WorkloadConfig};

thread_local! {
    /// Windows this test thread handed to the fan-out driver.
    static FANNED_OUT: Cell<u64> = const { Cell::new(0) };
}

/// The harness pool driver, counting the windows that reach it. The
/// engine calls its driver on the thread that runs the simulation, so a
/// thread-local count is private to one test.
fn counting_driver(n: usize, threads: Option<usize>, body: &(dyn Fn(usize) + Sync)) {
    FANNED_OUT.set(FANNED_OUT.get() + 1);
    dynmds::harness::parallel::parallel_for_indices(n, threads, body);
}

/// Crash/recover script + generated churn + degraded disks + lossy
/// network, all overlapping mid-run.
fn stormy_schedule() -> FaultSchedule {
    FaultSchedule {
        events: vec![
            FaultEvent::Crash { at: SimTime::from_secs(2), mds: MdsId(1) },
            FaultEvent::Recover { at: SimTime::from_secs(5), mds: MdsId(1) },
            FaultEvent::DiskDegrade {
                from: SimTime::from_secs(3),
                until: SimTime::from_secs(6),
                fault: DiskFault { latency_mult: 3.0, iops_mult: 0.5, error_p: 0.01 },
                scope: DiskScope::All,
            },
            FaultEvent::NetFault {
                from: SimTime::from_secs(4),
                until: SimTime::from_secs(8),
                spec: dynmds::core::NetFaultSpec { loss_p: 0.02, dup_p: 0.01 },
            },
        ],
        churn: Some(ChurnSpec {
            mtbf: SimDuration::from_secs(5),
            mttr: SimDuration::from_secs(1),
            seed: 9,
            until: SimTime::from_secs(9),
            nodes: Some((2, 3)),
        }),
    }
}

fn config(strategy: StrategyKind, seed: u64, faults: bool) -> SimConfig {
    let mut cfg = SimConfig::small(strategy);
    cfg.n_mds = 4;
    cfg.n_clients = 24;
    cfg.seed = seed;
    cfg.client_leases = true;
    cfg.obs.metrics = true;
    if faults {
        cfg.faults = stormy_schedule();
    }
    cfg
}

/// One run at shard count `k` and worker count `threads` over a chosen
/// span, on the general workload or, with `diurnal` set to a day length,
/// that workload under a day/night cycle. Returns the rendered report
/// plus the two obs exports, the whole byte surface a run exposes.
fn run_span(
    cfg: SimConfig,
    k: usize,
    threads: Option<usize>,
    warmup: SimDuration,
    measure: SimDuration,
    diurnal: Option<SimDuration>,
) -> (String, String, String) {
    dynmds::core::shard::install_parallel_driver(counting_driver);
    let snap = NamespaceSpec::with_target_items(24, 6_000, cfg.seed ^ 0xF5).generate();
    let n_clients = cfg.n_clients as usize;
    let wl_seed = cfg.seed ^ 0x17;
    let homes = snap.user_homes.clone();
    let shared = snap.shared_roots.clone();
    let sim = ShardedSimulation::new(cfg, k, threads, snap, &move |ns| {
        let general = GeneralWorkload::new(
            WorkloadConfig { seed: wl_seed, ..Default::default() },
            n_clients,
            &homes,
            &shared,
            ns,
        );
        match diurnal {
            Some(period) => Box::new(DiurnalWorkload::new(general, period, 40.0)),
            None => Box::new(general) as Box<dyn Workload + Send>,
        }
    });
    let report = sim.run_measured(warmup, measure);
    let obs = report.obs.as_ref().expect("obs metrics were enabled");
    (report.render(), obs.metrics_jsonl.clone(), obs.snapshots_jsonl.clone())
}

/// One full run at shard count `k` over the standard 2 s + 7 s span.
fn run_k(cfg: SimConfig, k: usize) -> (String, String, String) {
    run_span(cfg, k, None, SimDuration::from_secs(2), SimDuration::from_secs(7), None)
}

#[test]
fn report_and_obs_are_invariant_across_shard_counts_under_faults() {
    // Differential property run: several random workload seeds, each
    // interleaved with the fault storm, executed at 1, 2 and 4 shards.
    for seed in [55u64, 911, 4242] {
        let base = run_k(config(StrategyKind::DynamicSubtree, seed, true), 1);
        assert!(base.0.contains("ops "), "report renders");
        for k in [2usize, 4] {
            let other = run_k(config(StrategyKind::DynamicSubtree, seed, true), k);
            assert_eq!(base.0, other.0, "seed {seed}: report differs at {k} shards");
            assert_eq!(base.1, other.1, "seed {seed}: obs metrics differ at {k} shards");
            assert_eq!(base.2, other.2, "seed {seed}: obs snapshots differ at {k} shards");
        }
    }
}

#[test]
fn every_strategy_is_shard_count_invariant() {
    // The canonical event order may not depend on strategy-specific
    // routing (hashed placement, forwards, replicas), so sweep them all
    // fault-free at the K extremes.
    for strategy in StrategyKind::ALL {
        let a = run_k(config(strategy, 7, false), 1);
        let b = run_k(config(strategy, 7, false), 4);
        assert_eq!(a, b, "{strategy}: surface differs between 1 and 4 shards");
    }
}

#[test]
fn idle_window_skip_is_invisible_for_every_shard_count() {
    // Skip-vs-dense differential sweep. Skipping only ever jumps over
    // provably empty window spans on the same grid, so a skip-on run and
    // a force-dense run (every conservative window executed) must be
    // byte-identical across the whole surface. Each case stresses a
    // different skip hazard:
    //   tie storm  — sub-window think time floods every window with
    //                same-time batches (skip must never engage);
    //   long gaps  — think time ≫ the 100 µs window makes nearly every
    //                window empty (skip does all the work);
    //   fault churn — crash/recover/churn/disk/net events land via the
    //                barrier-global step calendar mid-gap;
    //   elastic    — the autoscaling controller acts on heartbeat steps
    //                that the skip must not jump past;
    //   proxy flush — the heartbeat flush schedules coalesced write
    //                deltas straight into shard queues that hold nothing
    //                due sooner, so the barrier's tracked next event
    //                times must pick them up (K=3 adds uneven node
    //                blocks).
    struct Case {
        label: &'static str,
        strategy: StrategyKind,
        faults: bool,
        proxies: u16,
        think: SimDuration,
        warmup: SimDuration,
        measure: SimDuration,
        shards: &'static [usize],
    }
    let cases = [
        Case {
            label: "tie storm",
            strategy: StrategyKind::DynamicSubtree,
            faults: false,
            proxies: 0,
            think: SimDuration::from_micros(10),
            warmup: SimDuration::from_millis(200),
            measure: SimDuration::from_millis(500),
            shards: &[1, 2, 4],
        },
        Case {
            label: "long gaps",
            strategy: StrategyKind::DynamicSubtree,
            faults: false,
            proxies: 0,
            think: SimDuration::from_millis(200),
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(7),
            shards: &[1, 2, 4],
        },
        Case {
            label: "fault churn",
            strategy: StrategyKind::DynamicSubtree,
            faults: true,
            proxies: 0,
            think: SimDuration::from_millis(1),
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(7),
            shards: &[1, 2, 4],
        },
        Case {
            label: "elastic",
            strategy: StrategyKind::ElasticSubtree,
            faults: false,
            proxies: 0,
            think: SimDuration::from_millis(20),
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(7),
            shards: &[1, 2, 4],
        },
        Case {
            label: "proxy flush",
            strategy: StrategyKind::DynamicSubtree,
            faults: false,
            proxies: 2,
            think: SimDuration::from_millis(20),
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(7),
            shards: &[1, 2, 3, 4],
        },
    ];
    for case in &cases {
        let mut base = None;
        for &k in case.shards {
            let mut skip = config(case.strategy, 99, case.faults);
            skip.costs.think_mean = case.think;
            if case.proxies > 0 {
                // A low bar and a fast heartbeat, so that the general
                // mix's writes reach the proxies and many heartbeats
                // have deltas to flush.
                skip.proxy.count = case.proxies;
                skip.proxy.hot_threshold = 1.0;
                skip.heartbeat = SimDuration::from_millis(250);
            }
            let mut dense = skip.clone();
            dense.force_dense = true;
            let a = run_span(skip, k, None, case.warmup, case.measure, None);
            let b = run_span(dense, k, None, case.warmup, case.measure, None);
            assert_eq!(a, b, "{}: skip vs force-dense surfaces differ at {k} shards", case.label);
            if case.proxies > 0 {
                assert!(
                    !a.0.contains(" flushed 0 "),
                    "{}: nothing was flushed: {}",
                    case.label,
                    a.0
                );
            }
            let base = base.get_or_insert_with(|| a.clone());
            assert_eq!(*base, a, "{}: surface differs at {k} shards", case.label);
        }
    }
}

#[test]
fn report_and_obs_are_invariant_across_thread_counts() {
    // The engine runs a window inline when the previous one popped few
    // events and fans it out to pool workers otherwise; which thread
    // runs a shard must never show in the output. Each case drives the
    // fan-out rule a different way through its workload alone:
    //   tie storm — sub-window think time: nearly every window is
    //               large and fans out;
    //   long gaps — think time ≫ the window: every window is small and
    //               runs inline;
    //   elastic   — a diurnal load under the autoscaler: day windows
    //               fan out, night windows run inline.
    struct Case {
        label: &'static str,
        strategy: StrategyKind,
        clients: u32,
        think: SimDuration,
        warmup: SimDuration,
        measure: SimDuration,
        diurnal: Option<SimDuration>,
        fans_out: bool,
    }
    let cases = [
        Case {
            label: "tie storm",
            strategy: StrategyKind::DynamicSubtree,
            clients: 24,
            think: SimDuration::from_micros(10),
            warmup: SimDuration::from_millis(200),
            measure: SimDuration::from_millis(500),
            diurnal: None,
            fans_out: true,
        },
        Case {
            label: "long gaps",
            strategy: StrategyKind::DynamicSubtree,
            clients: 24,
            think: SimDuration::from_millis(200),
            warmup: SimDuration::from_secs(2),
            measure: SimDuration::from_secs(7),
            diurnal: None,
            fans_out: false,
        },
        Case {
            label: "elastic",
            strategy: StrategyKind::ElasticSubtree,
            clients: 48,
            think: SimDuration::from_micros(50),
            warmup: SimDuration::from_secs(1),
            measure: SimDuration::from_secs(4),
            diurnal: Some(SimDuration::from_secs(2)),
            fans_out: true,
        },
    ];
    for case in &cases {
        let run = |k: usize, threads: usize| {
            let mut cfg = config(case.strategy, 99, false);
            cfg.n_clients = case.clients;
            cfg.costs.think_mean = case.think;
            // Fast servers and flash devices, so that the clients rather
            // than the disks set the event rate and a window can fill up.
            cfg.costs.cpu_per_op = SimDuration::from_micros(5);
            cfg.costs.cpu_forward = SimDuration::from_micros(1);
            let flash = DiskParams { latency: SimDuration::from_micros(50), iops: 200_000.0 };
            cfg.costs.osd_disk = flash;
            cfg.costs.journal_disk = flash;
            FANNED_OUT.set(0);
            let surface = run_span(cfg, k, Some(threads), case.warmup, case.measure, case.diurnal);
            (surface, FANNED_OUT.get())
        };
        let (base, _) = run(1, 1);
        assert!(base.0.contains("ops "), "{}: report renders", case.label);
        for k in [1usize, 4] {
            for threads in [1usize, 2, 4] {
                if (k, threads) == (1, 1) {
                    continue;
                }
                let (other, fanned_out) = run(k, threads);
                let at = format!("{}: {k} shards, {threads} threads", case.label);
                assert_eq!(base.0, other.0, "{at}: report differs");
                assert_eq!(base.1, other.1, "{at}: obs metrics differ");
                assert_eq!(base.2, other.2, "{at}: obs snapshots differ");
                if k > 1 {
                    assert_eq!(
                        fanned_out > 0,
                        case.fans_out,
                        "{at}: {fanned_out} windows fanned out"
                    );
                }
            }
        }
    }
}

#[test]
fn fixed_shard_count_reruns_are_bit_identical() {
    let run = || run_k(config(StrategyKind::DynamicSubtree, 55, true), 4);
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed, same shard count: reruns must be byte-identical");
}
