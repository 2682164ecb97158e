//! Outside timers for the traced run: a timing `Workload` wrapper and a
//! timing shard fan-out driver. Both wrap the simulator's public entry
//! points; nothing inside the simulator changes.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dynmds_event::SimTime;
use dynmds_namespace::{ClientId, Namespace};
use dynmds_workload::{Op, Workload};

use crate::workloads::BoxedWorkload;

/// Calls into one workload copy and the host time they took.
#[derive(Default)]
pub struct CallStats {
    calls: AtomicU64,
    nanos: AtomicU64,
}

/// Forwards to the inner workload, timing every `next_op`.
struct TimedWorkload {
    inner: BoxedWorkload,
    stats: Arc<CallStats>,
}

impl Workload for TimedWorkload {
    fn next_op(&mut self, ns: &Namespace, client: ClientId, now: SimTime) -> Op {
        let t = Instant::now();
        let op = self.inner.next_op(ns, client, now);
        self.stats.nanos.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.stats.calls.fetch_add(1, Relaxed);
        op
    }

    fn clients(&self) -> usize {
        self.inner.clients()
    }

    fn uid_of(&self, client: ClientId) -> u32 {
        self.inner.uid_of(client)
    }

    fn think_scale(&self, now: SimTime) -> f64 {
        self.inner.think_scale(now)
    }
}

/// Every timed workload copy handed to an engine (one per shard).
#[derive(Default)]
pub struct WorkloadTimers {
    copies: Mutex<Vec<Arc<CallStats>>>,
}

impl WorkloadTimers {
    /// Wraps `inner` in a timer registered here.
    pub fn wrap(&self, inner: BoxedWorkload) -> BoxedWorkload {
        let stats = Arc::new(CallStats::default());
        self.copies.lock().expect("no timer holder panics").push(Arc::clone(&stats));
        Box::new(TimedWorkload { inner, stats })
    }

    /// (calls, seconds) summed over every copy so far.
    pub fn totals(&self) -> (u64, f64) {
        let copies = self.copies.lock().expect("no timer holder panics");
        let calls = copies.iter().map(|s| s.calls.load(Relaxed)).sum();
        let nanos: u64 = copies.iter().map(|s| s.nanos.load(Relaxed)).sum();
        (calls, nanos as f64 / 1e9)
    }

    /// Forgets the copies of finished engines.
    pub fn clear(&self) {
        self.copies.lock().expect("no timer holder panics").clear();
    }
}

/// Most shards a traced run may have.
const MAX_SHARDS: usize = 64;

// Statistics only, so `Relaxed`: the main thread reads them after the
// pool call that wrote them has returned, which orders the writes first.
static DISPATCHES: AtomicU64 = AtomicU64::new(0);
static DISPATCH_NS: AtomicU64 = AtomicU64::new(0);
static BUSY_NS: [AtomicU64; MAX_SHARDS] = [const { AtomicU64::new(0) }; MAX_SHARDS];

/// Shard fan-out driver for the traced run: the harness worker pool,
/// with each dispatch and each shard's share of it timed.
fn timed_driver(n: usize, threads: Option<usize>, body: &(dyn Fn(usize) + Sync)) {
    assert!(n <= MAX_SHARDS, "traced run supports at most {MAX_SHARDS} shards");
    let t = Instant::now();
    dynmds_harness::parallel::parallel_for_indices(n, threads, &|i| {
        let s = Instant::now();
        body(i);
        BUSY_NS[i].fetch_add(s.elapsed().as_nanos() as u64, Relaxed);
    });
    DISPATCH_NS.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
    DISPATCHES.fetch_add(1, Relaxed);
}

/// Installs [`timed_driver`] as the sharded engine's fan-out driver. The
/// engine accepts one driver per process, so a traced run is a process
/// of its own.
pub fn install_timed_driver() {
    dynmds_core::shard::install_parallel_driver(timed_driver);
}

/// Driver counters at one instant.
#[derive(Clone, Debug, Default)]
pub struct DriverCounts {
    pub dispatches: u64,
    pub dispatch_s: f64,
    /// Busy seconds per shard index.
    pub busy_s: Vec<f64>,
}

impl DriverCounts {
    pub fn now(shards: usize) -> Self {
        DriverCounts {
            dispatches: DISPATCHES.load(Relaxed),
            dispatch_s: DISPATCH_NS.load(Relaxed) as f64 / 1e9,
            busy_s: BUSY_NS[..shards.min(MAX_SHARDS)]
                .iter()
                .map(|b| b.load(Relaxed) as f64 / 1e9)
                .collect(),
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &DriverCounts) -> Self {
        DriverCounts {
            dispatches: self.dispatches - earlier.dispatches,
            dispatch_s: self.dispatch_s - earlier.dispatch_s,
            busy_s: self.busy_s.iter().zip(&earlier.busy_s).map(|(a, b)| a - b).collect(),
        }
    }

    /// Adds another span's counts (shard by shard).
    pub fn add(&mut self, o: &DriverCounts) {
        self.dispatches += o.dispatches;
        self.dispatch_s += o.dispatch_s;
        if self.busy_s.len() < o.busy_s.len() {
            self.busy_s.resize(o.busy_s.len(), 0.0);
        }
        for (a, b) in self.busy_s.iter_mut().zip(&o.busy_s) {
            *a += b;
        }
    }
}
