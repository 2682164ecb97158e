//! One benchmark process: runs a workload repeatedly for a host-time
//! budget, checks every run's simulated output, and prints one JSON line
//! of results. `run.py` builds this binary and composes its processes
//! into the benchmark's result; see README.md for the metrics.
//!
//! ```text
//! dynbench --workload NAME --seed N --seconds S
//!          [--threads T] [--mode plain|traced|obs-metrics|obs-trace] [--reference]
//! ```

mod affinity;
mod trace;
mod workloads;

use std::time::Instant;

use dynmds_event::{EventQueue, SimDuration, SimRng, SimTime};
use dynmds_obs::ObsConfig;

use trace::{DriverCounts, WorkloadTimers};
use workloads::{Case, Engine, Opts, Outcome, Wrap};

/// Fewest repetitions a run makes, whatever its budget.
const MIN_REPS: usize = 3;

/// Simulated length of one timed `run_until` slice: a whole number of
/// 100 µs conservative windows, and at most a few host milliseconds on
/// every workload, so that many slices fit between two interruptions
/// from other tenants of the host.
const SLICE: SimDuration = SimDuration::from_millis(10);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mode {
    Plain,
    Traced,
    ObsMetrics,
    ObsTrace,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    threads: Option<usize>,
    mode: Mode,
    reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        threads: None,
        mode: Mode::Plain,
        reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--threads" => {
                args.threads = Some(value()?.parse().map_err(|e| format!("--threads: {e}"))?)
            }
            "--mode" => {
                args.mode = match value()?.as_str() {
                    "plain" => Mode::Plain,
                    "traced" => Mode::Traced,
                    "obs-metrics" => Mode::ObsMetrics,
                    "obs-trace" => Mode::ObsTrace,
                    other => return Err(format!("unknown mode `{other}`")),
                }
            }
            "--reference" => args.reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if workloads::cases(&args.workload).is_none() {
        return Err(format!(
            "--workload must be one of {}, got `{}`",
            workloads::NAMES.join(", "),
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let obs = matches!(args.mode, Mode::ObsMetrics | Mode::ObsTrace);
    if obs && workloads::is_sharded(&args.workload) {
        return Err("obs modes run on the legacy engine (paper_general) only".into());
    }
    Ok(args)
}

/// Host-time and trace figures of one case run. Warm-up and measured
/// span run as fixed simulated slices, each timed on its own, so that
/// repetitions can be compared piece by piece.
#[derive(Default)]
struct CaseRun {
    setup_s: f64,
    namespace_s: f64,
    bytes_per_inode: f64,
    warm_slices_s: Vec<f64>,
    slices_s: Vec<f64>,
    finish_s: f64,
    events: u64,
    next_op_calls: u64,
    next_op_s: f64,
    driver: DriverCounts,
    /// (pending events per queue, mean think time) of the case.
    pending: (usize, SimDuration),
}

impl CaseRun {
    fn measure_s(&self) -> f64 {
        self.slices_s.iter().sum()
    }
}

/// One repetition: every case of the workload, in order.
struct Rep {
    cases: Vec<CaseRun>,
    outcome: Outcome,
    /// Per proxy-mode case: (label, ops, coalesced).
    proxy_cases: Vec<(&'static str, u64, u64)>,
}

impl Rep {
    fn sum(&self, f: impl Fn(&CaseRun) -> f64) -> f64 {
        self.cases.iter().map(f).sum()
    }

    /// Completed ops per host second of the measured spans.
    fn rate(&self) -> f64 {
        self.outcome.ops as f64 / self.sum(CaseRun::measure_s).max(1e-9)
    }
}

/// Runs the simulation from `from` to `to` in `SLICE` steps, pushing
/// each step's host seconds; returns the events dispatched.
fn run_sliced(engine: &mut Engine, from: SimTime, to: SimTime, out: &mut Vec<f64>) -> u64 {
    let (mut at, mut events) = (from, 0);
    while at < to {
        at = (at + SLICE).min(to);
        let t = Instant::now();
        events += engine.run_until(at);
        out.push(t.elapsed().as_secs_f64());
    }
    events
}

/// Builds, warms up, measures and reports one case. With `timers`, the
/// workload and driver counters are read around the measured span.
fn run_case(case: &Case, opts: &Opts, timers: Option<&WorkloadTimers>) -> (CaseRun, Outcome) {
    let identity = |w| w;
    let timed = |w| timers.expect("traced").wrap(w);
    let wrap: Wrap = if timers.is_some() { &timed } else { &identity };
    let t0 = Instant::now();
    let built = case.build(opts, wrap);
    let mut run = CaseRun {
        setup_s: t0.elapsed().as_secs_f64(),
        pending: (built.pending_per_queue, built.think_mean),
        namespace_s: built.namespace_s,
        bytes_per_inode: built.bytes_per_inode,
        ..Default::default()
    };
    let mut engine = built.engine;
    let warm_end = SimTime::ZERO + case.warmup;
    run_sliced(&mut engine, SimTime::ZERO, warm_end, &mut run.warm_slices_s);
    engine.reset_measurement(warm_end);
    let counters0 = engine.counters();
    let calls0 = timers.map(|t| t.totals()).unwrap_or_default();
    let driver0 = DriverCounts::now(opts.shards);
    run.events = run_sliced(&mut engine, warm_end, warm_end + case.measure, &mut run.slices_s);
    if let Some(timers) = timers {
        let (calls, secs) = timers.totals();
        run.next_op_calls = calls - calls0.0;
        run.next_op_s = secs - calls0.1;
        run.driver = DriverCounts::now(opts.shards).since(&driver0);
        timers.clear();
    }
    let counters = engine.counters();
    let t = Instant::now();
    let mut outcome = engine.finish();
    run.finish_s = t.elapsed().as_secs_f64();
    if let (Some((gave0, mig0)), Some((gave, mig))) = (counters0, counters) {
        outcome.failed = gave - gave0;
        outcome.migrations = mig - mig0;
    }
    (run, outcome)
}

fn run_rep(cases: &[Case], opts: &Opts, timers: Option<&WorkloadTimers>) -> Rep {
    let mut rep = Rep { cases: Vec::new(), outcome: Outcome::default(), proxy_cases: Vec::new() };
    for case in cases {
        let (run, outcome) = run_case(case, opts, timers);
        if outcome.proxies > 0 {
            rep.proxy_cases.push((case.label, outcome.ops, outcome.proxy_coalesced));
        }
        rep.cases.push(run);
        rep.outcome.absorb(outcome);
    }
    rep
}

/// Host seconds of one piece of every case, taking each fixed simulated
/// slice (or phase) at its fastest repetition. Every repetition does the
/// same work slice for slice, and interference from other processes
/// only ever adds time, so the fastest copy of each slice is the best
/// estimate of what the code itself costs.
fn fastest(reps: &[Rep], piece: impl Fn(&CaseRun) -> &[f64]) -> f64 {
    (0..reps[0].cases.len())
        .map(|c| {
            (0..piece(&reps[0].cases[c]).len())
                .map(|i| reps.iter().map(|r| piece(&r.cases[c])[i]).fold(f64::INFINITY, f64::min))
                .sum::<f64>()
        })
        .sum()
}

/// `num / den`, or 0 where the layer did no work (`den == 0`).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank quantile of a sample (0 when empty).
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// FNV-1a of the report render, cut to 48 bits so a JSON number holds
/// it exactly.
fn digest(render: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in render.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h & ((1 << 48) - 1)
}

/// Peak resident set (VmHWM) in MiB, 0 where /proc is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Steady-state event-queue cost with no simulation around it: a timer
/// wheel holding `pending` events driven through pop-then-reschedule,
/// the cycle the engines impose on it, with deltas spread over twice the
/// mean think time. Returns host ns per queue operation (one schedule or
/// one pop), median of seven passes.
fn event_probe(pending: usize, think_mean: SimDuration, seed: u64) -> f64 {
    const OPS: usize = 400_000;
    const MASK: usize = 8191;
    let spread = (2 * think_mean.as_micros()).max(2);
    let mut rng = SimRng::seed_from_u64(seed ^ 0xD1CE);
    let deltas: Vec<u64> = (0..=MASK).map(|_| 1 + rng.below(spread)).collect();
    let samples = (0..7)
        .map(|_| {
            let mut q: EventQueue<u32> = EventQueue::with_delta_hint(think_mean);
            let mut now = SimTime::ZERO;
            for i in 0..pending.max(1) {
                q.schedule(now + SimDuration::from_micros(deltas[i & MASK]), i as u32);
            }
            let t = Instant::now();
            for i in 0..OPS {
                let ev = q.pop().expect("queue never drains in steady state");
                now = ev.at;
                q.schedule(now + SimDuration::from_micros(deltas[i & MASK]), ev.event);
            }
            let secs = t.elapsed().as_secs_f64();
            std::hint::black_box(&q);
            secs * 1e9 / (2 * OPS) as f64
        })
        .collect();
    quantile(samples, 0.5)
}

/// Repeats the workload until `seconds` have passed, never fewer than
/// `MIN_REPS` times; returns the repetitions and the peak RSS (MiB) after
/// the first. Later repetitions reuse, and fragment, the heap the first
/// one left behind, so their peaks say less about the workload.
fn repeat(
    cases: &[Case],
    opts: &Opts,
    seconds: f64,
    timers: Option<&WorkloadTimers>,
) -> (Vec<Rep>, f64) {
    // Single-threaded runs rotate over the allowed CPUs, one repetition
    // each, so one core's slow spell cannot cover the whole run.
    let cpus = affinity::allowed();
    let rotate = opts.threads == 1 && cpus.len() > 1;
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak = 0.0;
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        if rotate {
            affinity::pin(&cpus[reps.len() % cpus.len()..][..1]);
        }
        reps.push(run_rep(cases, opts, timers));
        if reps.len() == 1 {
            peak = peak_rss_mb();
        }
    }
    if rotate {
        affinity::pin(&cpus);
    }
    (reps, peak)
}

/// Output checks, run outside every timed span; returns what failed.
fn check(
    workload: &str,
    cases: &[Case],
    opts: &Opts,
    reps: &[Rep],
    reference: bool,
) -> Vec<String> {
    let mut errors = Vec::new();
    let first = &reps[0].outcome;
    for (i, r) in reps.iter().enumerate() {
        if r.outcome.render != first.render {
            errors.push(format!("rep {i} report differs from rep 0 at the same seed"));
        }
        if r.outcome.failed != 0 {
            errors.push(format!("rep {i}: {} ops abandoned at the retry cap", r.outcome.failed));
        }
        if r.outcome.ops == 0 {
            errors.push(format!("rep {i} completed no ops"));
        }
    }
    match workload {
        "write_storms" => {
            for &(label, ops, coalesced) in &reps[0].proxy_cases {
                if (coalesced as f64) < 0.99 * ops as f64 {
                    errors.push(format!("{label} coalesced {coalesced} of {ops} ops (< 99%)"));
                }
            }
        }
        "diurnal_elastic" if first.scale_outs == 0 || first.scale_ins == 0 => errors.push(format!(
            "elastic controller idle: {} scale-outs, {} scale-ins",
            first.scale_outs, first.scale_ins
        )),
        _ => {}
    }
    if reference && workloads::is_sharded(workload) {
        let one = Opts { shards: 1, threads: 1, ..*opts };
        if run_rep(cases, &one, None).outcome.render != first.render {
            errors.push("report differs from the 1-shard, 1-thread run at the same seed".into());
        }
    }
    errors
}

/// A named metric with its unit.
type Metric = (&'static str, f64, &'static str);

/// The simulated model's outputs: identical for every run of a seed.
fn model_metrics(o: &Outcome, sim_measure_s: f64) -> Vec<Metric> {
    let (p50, p99) = o.lat_us();
    vec![
        ("model.ops_per_sim_s", o.ops as f64 / sim_measure_s, "1/s"),
        ("model.lat_p50_us", p50, "us"),
        ("model.lat_p99_us", p99, "us"),
        ("model.digest", digest(&o.render) as f64, "hash"),
    ]
}

/// Per-layer figures of a traced run. Counts come from the first
/// repetition (every repetition simulates the same ops), host times are
/// medians over repetitions.
fn layer_metrics(reps: &[Rep], opts: &Opts, measure_s: f64) -> Vec<Metric> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| quantile(reps.iter().map(f).collect(), 0.5);
    let driver = |r: &Rep| {
        let mut total = DriverCounts::default();
        r.cases.iter().for_each(|c| total.add(&c.driver));
        total
    };
    let o = &reps[0].outcome;
    let ops = o.ops.max(1) as f64;
    let served = o.served.max(1) as f64;
    let events = reps[0].sum(|c| c.events as f64);
    let dispatches = reps[0].sum(|c| c.driver.dispatches as f64);
    let busy_s = |r: &Rep| driver(r).busy_s.iter().sum::<f64>();
    let imbalance = |r: &Rep| {
        let d = driver(r);
        let max = d.busy_s.iter().copied().fold(0.0, f64::max);
        ratio(max, busy_s(r) / d.busy_s.len().max(1) as f64)
    };
    let sharded = opts.shards > 1;
    let serial_s = |r: &Rep| {
        if sharded {
            r.sum(CaseRun::measure_s) - driver(r).dispatch_s
        } else {
            0.0
        }
    };
    let slices: Vec<f64> =
        reps.iter().flat_map(|r| r.cases.iter().flat_map(|c| c.slices_s.clone())).collect();
    let (pending, think_mean) = reps[0].cases[0].pending;
    vec![
        ("namespace.generate_s", per_rep(&|r| r.sum(|c| c.namespace_s)), "s"),
        ("namespace.bytes_per_inode", reps[0].cases[0].bytes_per_inode, "B"),
        ("workload.next_op_calls", reps[0].sum(|c| c.next_op_calls as f64), "count"),
        ("workload.next_op_s", per_rep(&|r| r.sum(|c| c.next_op_s)), "s"),
        ("event.ns_per_op", event_probe(pending, think_mean, opts.seed), "ns"),
        ("core.events", events, "count"),
        ("core.events_per_op", events / ops, "count"),
        ("core.ns_per_event", ratio(measure_s * 1e9, events), "ns"),
        ("core.slice_ms_p50", 1e3 * quantile(slices.clone(), 0.5), "ms"),
        ("core.slice_ms_p99", 1e3 * quantile(slices, 0.99), "ms"),
        ("shard.dispatches", dispatches, "count"),
        ("shard.ops_per_dispatch", ratio(ops, dispatches), "count"),
        ("shard.dispatch_s", per_rep(&|r| driver(r).dispatch_s), "s"),
        ("shard.busy_s", per_rep(&busy_s), "s"),
        ("shard.idle_s", per_rep(&|r| opts.threads as f64 * driver(r).dispatch_s - busy_s(r)), "s"),
        ("shard.serial_s", per_rep(&serial_s), "s"),
        ("shard.busy_imbalance", per_rep(&imbalance), "ratio"),
        ("cache.hit_rate", o.hits / served, "ratio"),
        ("partition.forward_ratio", o.forwarded as f64 / served, "ratio"),
        ("partition.migrations", o.migrations as f64, "count"),
        ("storage.disk_fetches_per_op", o.disk_fetches as f64 / ops, "count"),
        ("proxy.absorbed", o.proxy_absorbed as f64, "count"),
        ("proxy.coalesced", o.proxy_coalesced as f64, "count"),
        ("proxy.forwarded", o.proxy_forwarded as f64, "count"),
        ("proxy.flushes", o.proxy_flushes as f64, "count"),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Builds a JSON object from already-encoded values.
fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dynbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let sharded = workloads::is_sharded(&args.workload);
    let threads = args.threads.unwrap_or(nproc);
    if threads == 0 || threads > nproc {
        eprintln!("dynbench: --threads must be in 1..={nproc} (nproc), got {threads}");
        std::process::exit(2);
    }
    let traced = args.mode == Mode::Traced;
    if traced {
        trace::install_timed_driver();
    } else {
        dynmds_harness::parallel::install_shard_driver();
    }
    let cases = workloads::cases(&args.workload).expect("validated");
    let obs = match args.mode {
        Mode::ObsMetrics => ObsConfig::metrics_only(),
        Mode::ObsTrace => ObsConfig::full(),
        _ => ObsConfig::default(),
    };
    // The legacy engine runs on the calling thread alone.
    let (shards, threads) = if sharded { (workloads::SHARDS, threads) } else { (1, 1) };
    let opts = Opts { seed: args.seed, shards, threads, obs };
    let timers = traced.then(WorkloadTimers::default);

    let (reps, peak_rss_mb) = repeat(&cases, &opts, args.seconds, timers.as_ref());
    let errors = check(&args.workload, &cases, &opts, &reps, args.reference);
    for e in &errors {
        eprintln!("dynbench: CHECK FAILED: {e}");
    }
    let correct = errors.is_empty();
    let attempted: u64 = reps.iter().map(|r| r.outcome.ops + r.outcome.failed).sum();
    let failed: u64 = if correct { reps.iter().map(|r| r.outcome.failed).sum() } else { attempted };

    let measure_s = fastest(&reps, |c| &c.slices_s);
    let setup_s = fastest(&reps, |c| std::slice::from_ref(&c.setup_s));
    let total_s = setup_s
        + fastest(&reps, |c| &c.warm_slices_s)
        + measure_s
        + fastest(&reps, |c| std::slice::from_ref(&c.finish_s));
    let median_rate = quantile(reps.iter().map(Rep::rate).collect(), 0.5);
    let secs = |d: SimDuration| d.as_micros() as f64 / 1e6;
    let sim_measure_s: f64 = cases.iter().map(|c| secs(c.measure)).sum();
    let sim_warmup_s: f64 = cases.iter().map(|c| secs(c.warmup)).sum();
    let first = &reps[0].outcome;
    let mut layers = model_metrics(first, sim_measure_s);
    if traced {
        layers.extend(layer_metrics(&reps, &opts, measure_s));
    }
    let layers: Vec<(&str, String)> = layers
        .iter()
        .map(|&(k, v, unit)| (k, json_object(&[("value", json_num(v)), ("unit", json_str(unit))])))
        .collect();
    let errors: Vec<String> = errors.iter().map(|e| json_str(e)).collect();
    let record = json_object(&[
        ("workload", json_str(&args.workload)),
        ("mode", json_str(&format!("{:?}", args.mode).to_lowercase())),
        ("seed", args.seed.to_string()),
        ("nproc", nproc.to_string()),
        ("threads", threads.to_string()),
        ("shards", shards.to_string()),
        ("sim_warmup_s", json_num(sim_warmup_s)),
        ("sim_measure_s", json_num(sim_measure_s)),
        ("reps", reps.len().to_string()),
        ("correct", correct.to_string()),
        ("errors", format!("[{}]", errors.join(", "))),
        ("ops_attempted", attempted.to_string()),
        ("ops_failed", failed.to_string()),
        ("sim_ops_per_s", json_num(first.ops as f64 / measure_s)),
        ("total_s", json_num(total_s)),
        ("setup_s", json_num(setup_s)),
        ("median_rep_sim_ops_per_s", json_num(median_rate)),
        ("peak_rss_mb", json_num(peak_rss_mb)),
        ("digest", digest(&first.render).to_string()),
        ("layers", json_object(&layers)),
    ]);
    println!("{record}");
    std::process::exit(if correct { 0 } else { 1 });
}
