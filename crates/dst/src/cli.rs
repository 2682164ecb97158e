//! The `experiments torture` subcommand: run seeded fuzz scenarios
//! against the oracle, shrink any divergence, and write repro files.
//!
//! ```text
//! experiments torture [--seeds N] [--seed-base B] [--ops K]
//!                     [--strategy NAME|all] [--out DIR]
//!                     [--shrink-budget P] [--no-repeat-check]
//!                     [--threads T] [--shards K] [--proxy P]
//!                     [--force-dense]
//! ```
//!
//! Output is derived entirely from simulation results (no wall-clock, no
//! paths that vary run-to-run), so two invocations with the same flags
//! print byte-identical reports — CI runs the command twice and `cmp`s.
//! Exit code 0 = every scenario clean (and the repeated seed's digest
//! stable); 1 = divergence or digest instability; 2 = usage error.

use std::io::Write as _;

use dynmds_event::SimDuration;
use dynmds_harness::cli::{exit_usage, Flags, Shared};
use dynmds_harness::parallel::parallel_map_threads;
use dynmds_partition::StrategyKind;

use crate::repro::Repro;
use crate::scenario::{run_scenario, Scenario};
use crate::shrink::shrink;

/// The shared flags `torture` accepts (see `dynmds_harness::cli`).
const SHARED: &[&str] = &["--strategy", "--threads", "--proxy", "--force-dense"];

struct TortureArgs {
    seeds: u64,
    seed_base: u64,
    ops: u64,
    out_dir: String,
    shrink_budget: u64,
    repeat_check: bool,
    /// `--strategy` (default: every paper strategy). `--threads` is the
    /// worker count (reports are byte-identical at any count). `--shards
    /// K` additionally runs every scenario through the sharded engine at
    /// 1 and K shards and requires byte-equal reports. `--proxy P` forces
    /// P hotspot proxies on every scenario (0 forces the tier off), and
    /// `--force-dense` makes every sharded cross-check execute each window.
    sh: Shared,
}

fn parse_args(args: &[String]) -> Result<TortureArgs, String> {
    let mut out = TortureArgs {
        seeds: 200,
        seed_base: 1,
        ops: 2_000,
        out_dir: "dst/repros".to_string(),
        shrink_budget: 250,
        repeat_check: true,
        sh: Shared::default(),
    };
    let mut f = Flags::new(args.iter().cloned());
    while let Some(flag) = f.next_flag() {
        match flag.as_str() {
            "--seeds" => out.seeds = f.positive()?,
            "--seed-base" => out.seed_base = f.value()?,
            "--ops" => out.ops = f.value()?,
            "--out" => out.out_dir = f.text()?,
            "--shrink-budget" => out.shrink_budget = f.value()?,
            "--no-repeat-check" => out.repeat_check = false,
            "--shards" => out.sh.shards = Some(f.positive()?),
            _ if out.sh.read(&flag, SHARED, &mut f)? => {}
            _ => return f.err("unknown torture flag"),
        }
    }
    Ok(out)
}

struct ScenarioResult {
    strategy: StrategyKind,
    seed: u64,
    digest: u64,
    ops_completed: u64,
    checkpoints: u64,
    /// `Some` when the run diverged: the finished repro text plus a
    /// summary of the shrink.
    failure: Option<Failure>,
    /// `Some` when the sharded cross-check found the report differing
    /// between 1 shard and K shards (only run with `--shards`).
    shard_mismatch: Option<String>,
}

struct Failure {
    first_divergence: String,
    repro_text: String,
    ops_after: usize,
    probes: u64,
}

/// Runs the scenario through the sharded engine at one shard and at
/// `shards`, and reports the first line where the two reports differ.
/// Both runs are single-threaded — the torture pipeline already fans
/// scenarios across cores, so nesting worker pools would only thrash.
fn shard_cross_check(sc: &Scenario, shards: usize) -> Option<String> {
    let render = |k: usize| {
        let snap = sc.snapshot();
        let homes = snap.user_homes.clone();
        let shared = snap.shared_roots.clone();
        let factory =
            |ns: &dynmds_namespace::Namespace| -> Box<dyn dynmds_workload::Workload + Send> {
                sc.workload_parts(&homes, &shared, ns)
            };
        let sim = dynmds_core::ShardedSimulation::new(sc.config(), k, Some(1), snap, &factory);
        // The fault schedule is front-loaded into the scenario horizon;
        // cap the virtual span so the cross-check stays a smoke-sized
        // addition to the oracle run it rides along with.
        let span = SimDuration::from_micros(sc.horizon_us.min(6_000_000));
        sim.run_measured(SimDuration::from_micros(0), span).render()
    };
    let (one, many) = (render(1), render(shards));
    (one != many).then(|| {
        one.lines()
            .zip(many.lines())
            .find(|(a, b)| a != b)
            .map(|(a, b)| format!("1 shard: `{a}` vs {shards} shards: `{b}`"))
            .unwrap_or_else(|| "reports differ in length".to_string())
    })
}

fn run_one(sc: &Scenario, shrink_budget: u64, shards: usize) -> ScenarioResult {
    let out = run_scenario(sc, true);
    let failure = (!out.divergences.is_empty()).then(|| {
        let (min_sc, min_trace, stats) = shrink(sc, &out.trace, &out.uids, shrink_budget);
        let note = out.divergences.join("\n");
        let repro = Repro { scenario: min_sc, trace: min_trace, uids: out.uids.clone(), note };
        Failure {
            first_divergence: out.divergences[0].clone(),
            repro_text: repro.to_text(),
            ops_after: stats.ops_after,
            probes: stats.probes,
        }
    });
    let shard_mismatch = (shards > 0).then(|| shard_cross_check(sc, shards)).flatten();
    ScenarioResult {
        strategy: sc.strategy,
        seed: sc.seed,
        digest: out.digest,
        ops_completed: out.ops_completed,
        checkpoints: out.checkpoints,
        failure,
        shard_mismatch,
    }
}

/// Entry point for `experiments torture`. Returns the process exit code;
/// a usage error exits the process with code 2.
pub fn run_torture(args: &[String]) -> i32 {
    let args = parse_args(args).unwrap_or_else(|e| exit_usage("torture", &e));
    let strategies = args.sh.strategies.clone().unwrap_or_else(|| StrategyKind::ALL.to_vec());
    let shards = args.sh.shards.unwrap_or(0);

    let scenarios: Vec<Scenario> = (0..args.seeds)
        .flat_map(|i| {
            let seed = args.seed_base.wrapping_add(i);
            strategies.iter().map(move |&s| {
                let mut sc = Scenario::from_seed(seed, s, args.ops);
                sc.n_proxies = args.sh.proxy.unwrap_or(sc.n_proxies);
                sc.force_dense |= args.sh.force_dense;
                sc
            })
        })
        .collect();
    // Seeded scenarios are valid by construction; this checks the overrides.
    if let Some(e) = scenarios.iter().find_map(|sc| sc.config().validate().err()) {
        exit_usage("torture", &e);
    }

    println!(
        "torture: {} scenarios ({} seeds x {} strategies), target {} ops each",
        scenarios.len(),
        args.seeds,
        strategies.len(),
        args.ops
    );

    // Publish `--threads` process-wide so nested pool fan-outs (shard
    // stepping inside the cross-check, any later sub-run in this
    // process) honor it too, not just the top-level map below.
    dynmds_harness::parallel::set_thread_override(args.sh.threads);

    if shards > 0 {
        dynmds_harness::parallel::install_shard_driver();
        println!("torture: sharded cross-check on ({shards} shards vs 1)");
    }

    let results = parallel_map_threads(&scenarios, args.sh.threads, |sc| {
        run_one(sc, args.shrink_budget, shards)
    });

    let mut failures = 0u64;
    for s in &strategies {
        let (mut runs, mut ops, mut cps, mut diverged) = (0u64, 0u64, 0u64, 0u64);
        let mut shard_mismatches = 0u64;
        let mut digest = 0u64;
        for r in results.iter().filter(|r| r.strategy == *s) {
            runs += 1;
            ops += r.ops_completed;
            cps += r.checkpoints;
            diverged += u64::from(r.failure.is_some());
            shard_mismatches += u64::from(r.shard_mismatch.is_some());
            digest = digest.wrapping_mul(0x100_0000_01b3) ^ r.digest;
        }
        let shard_note = if shards > 0 {
            format!(", {shard_mismatches} shard mismatches")
        } else {
            String::new()
        };
        println!(
            "  {:>14}: {runs} runs, {ops} ops, {cps} checkpoints, {diverged} divergences{shard_note}, digest {digest:#018x}",
            s.label()
        );
        failures += diverged + shard_mismatches;
    }

    for r in results.iter().filter(|r| r.shard_mismatch.is_some()) {
        println!(
            "SHARD MISMATCH seed={} strategy={}: {}",
            r.seed,
            r.strategy.label(),
            r.shard_mismatch.as_ref().unwrap()
        );
    }

    for r in results.iter().filter(|r| r.failure.is_some()) {
        let f = r.failure.as_ref().unwrap();
        let path = format!("{}/repro_{}_{}.txt", args.out_dir, r.strategy.label(), r.seed);
        println!(
            "DIVERGENCE seed={} strategy={}: {}",
            r.seed,
            r.strategy.label(),
            f.first_divergence
        );
        println!("  shrunk to {} ops in {} replays -> {path}", f.ops_after, f.probes);
        if let Err(e) = std::fs::create_dir_all(&args.out_dir).and_then(|()| {
            std::fs::File::create(&path).and_then(|mut fh| fh.write_all(f.repro_text.as_bytes()))
        }) {
            eprintln!("torture: writing {path}: {e}");
        }
    }

    let mut unstable = false;
    if args.repeat_check {
        // Determinism spot-check: re-run the first scenario end to end and
        // require a byte-identical digest.
        let sc = &scenarios[0];
        let again = run_scenario(sc, false);
        let first = &results[0];
        if again.digest == first.digest {
            println!(
                "repeat-check: seed {} {} digest {:#018x} stable",
                sc.seed,
                sc.strategy.label(),
                first.digest
            );
        } else {
            println!(
                "repeat-check FAILED: seed {} {} digest {:#018x} vs {:#018x}",
                sc.seed,
                sc.strategy.label(),
                first.digest,
                again.digest
            );
            unstable = true;
        }
    }

    let total_ops: u64 = results.iter().map(|r| r.ops_completed).sum();
    println!("torture: {} scenarios, {total_ops} ops total, {failures} divergences", results.len());
    i32::from(failures > 0 || unstable)
}
