//! Command-line robustness of `simulate`, `experiments` (figure runner
//! and `scale`) and `experiments torture`: random flag vectors go through
//! each CLI's parse → validate → build path, and every one must end in a
//! report (exit 0, or 1 for a failed check) or a one-line usage error
//! (exit 2) — never a panic (exit 101). Run spans stay tiny so the
//! debug-build binaries finish each vector in well under a second.

use std::path::PathBuf;
use std::process::Command;

use dynmds_event::SimRng;

/// Values drawn for any flag: small counts (zero included), junk,
/// strategy names, fault specs, and nothing at all (a flag with no value).
const VALUES: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "x",
    "-1",
    "",
    "all",
    "dynamic",
    "DirHash",
    "elastic",
    "99999999999999999999",
    "crash:9@1s",
    "crash:1@1s;recover:1@2s",
    "churn:mtbf=1s,mttr=1s,until=2s",
    "1@1",
    "9@1",
];

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Up to `max` random picks from `flags`, each usually followed by a
/// random value from [`VALUES`].
fn random_tail(rng: &mut SimRng, flags: &[&str], max: u64) -> Vec<String> {
    let mut out = Vec::new();
    for _ in 0..rng.below(max + 1) {
        out.push(flags[rng.below(flags.len() as u64) as usize].to_string());
        if rng.below(8) != 0 {
            out.push(VALUES[rng.below(VALUES.len() as u64) as usize].to_string());
        }
    }
    out
}

/// Runs `bin args`, asserting it reported or failed cleanly. Returns the
/// exit code.
fn run(bin: &str, args: &[String]) -> i32 {
    let out = Command::new(bin).args(args).output().expect("spawn CLI");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let code = out.status.code().unwrap_or_else(|| panic!("{args:?} died by signal"));
    assert!(matches!(code, 0..=2), "{args:?} exited {code}:\n{stderr}");
    if code == 2 {
        assert_eq!(stderr.lines().count(), 1, "{args:?}: usage error is not one line:\n{stderr}");
    }
    code
}

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

#[test]
fn random_flag_vectors_report_or_error_never_panic() {
    let simulate = env!("CARGO_BIN_EXE_simulate");
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let out = scratch("cli_flags");
    let out = out.to_str().expect("utf-8 path");
    let mut rng = SimRng::seed_from_u64(0xC11);
    let mut codes = [0u32; 3];

    let sim_flags = [
        "--strategy",
        "--mds",
        "--clients",
        "--items",
        "--cache",
        "--osds",
        "--seconds",
        "--warmup",
        "--seed",
        "--shards",
        "--threads",
        "--force-dense",
        "--workload",
        "--diurnal-period",
        "--night-mult",
        "--leases",
        "--shared-writes",
        "--proxy",
        "--no-balancing",
        "--no-traffic-control",
        "--dir-hash",
        "--fail",
        "--recover",
        "--faults",
        "--obs",
        "--obs-trace",
        "--bogus",
    ];
    for _ in 0..60 {
        let mut args = strs(&["--mds", "2", "--clients", "4", "--items", "300", "--seconds", "1"]);
        args.extend(strs(&["--warmup", "0", "--obs-out", out]));
        args.extend(random_tail(&mut rng, &sim_flags, 4));
        if rng.below(3) == 0 {
            args.extend(strs(&[
                "--workload",
                ["diurnal", "hotset", "scientific"][rng.below(3) as usize],
            ]));
        }
        codes[run(simulate, &args) as usize] += 1;
    }

    let scale_flags = [
        "--strategy",
        "--mds",
        "--clients",
        "--cache",
        "--seed",
        "--shards",
        "--threads",
        "--users",
        "--target-inodes",
        "--materialize",
        "--ring",
        "--think-us",
        "--warmup-ms",
        "--measure-ms",
        "--bogus",
    ];
    for _ in 0..25 {
        let mut args = strs(&["scale", "--clients", "20", "--users", "20", "--target-inodes"]);
        args.extend(strs(&["2000", "--materialize", "4", "--warmup-ms", "5", "--measure-ms", "5"]));
        args.extend(strs(&["--strategy", "dynamic", "--out", out]));
        args.extend(random_tail(&mut rng, &scale_flags, 3));
        codes[run(experiments, &args) as usize] += 1;
    }

    let torture_flags = [
        "--seeds",
        "--seed-base",
        "--ops",
        "--strategy",
        "--shrink-budget",
        "--threads",
        "--shards",
        "--proxy",
        "--force-dense",
        "--bogus",
    ];
    for _ in 0..25 {
        let mut args = strs(&["torture", "--seeds", "1", "--ops", "20", "--strategy", "static"]);
        args.extend(strs(&["--no-repeat-check", "--out", out]));
        args.extend(random_tail(&mut rng, &torture_flags, 3));
        codes[run(experiments, &args) as usize] += 1;
    }

    // The figure runner's vectors stop before a figure runs (a quick
    // figure takes seconds in a debug build): each starts with an unknown
    // subcommand, or with `availability` and a schedule outside its
    // cluster that no later flag replaces.
    let figure_flags = ["--quick", "--csv", "--shards", "--obs", "--obs-trace", "--x"];
    for _ in 0..25 {
        let mut args = match rng.below(3) {
            0 => strs(&["bogus"]),
            1 => strs(&["fig9"]),
            _ => strs(&["availability", "--faults", "crash:9@1s"]),
        };
        args.extend(random_tail(&mut rng, &figure_flags, 3));
        assert_eq!(run(experiments, &args), 2, "{args:?} must be a usage error");
    }

    // The vectors must exercise both outcomes, not just one.
    assert!(codes[0] > 10 && codes[2] > 10, "outcome mix {codes:?}");
}

/// The configurations that used to panic deep inside the engines now
/// stop at the CLI with exit 2 and one stderr line naming the flag.
#[test]
fn known_bad_vectors_exit_2_naming_the_flag() {
    let simulate = env!("CARGO_BIN_EXE_simulate");
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let cases: &[(&str, &[&str], &str)] = &[
        (simulate, &["--mds", "0"], "--mds"),
        (simulate, &["--clients", "0"], "--clients"),
        (simulate, &["--cache", "0"], "--cache"),
        (simulate, &["--osds", "0"], "--osds"),
        (simulate, &["--mds", "0", "--shards", "4"], "--mds"),
        (simulate, &["--threads", "0"], "--threads"),
        (simulate, &["--seed"], "--seed"),
        (simulate, &["--strategy", "all"], "--strategy"),
        (experiments, &["scale", "--mds", "0"], "--mds"),
        (experiments, &["scale", "--clients", "0"], "--clients"),
        (experiments, &["scale", "--ring", "0"], "--ring"),
        (experiments, &["scale", "--threads", "0"], "--threads"),
        (experiments, &["torture", "--threads", "0"], "--threads"),
        (experiments, &["torture", "--ops"], "--ops"),
        (experiments, &["bogus"], "bogus"),
        (
            simulate,
            &[
                "--mds",
                "1",
                "--clients",
                "2",
                "--items",
                "300",
                "--obs",
                "--obs-out",
                "/dev/null/x",
                "--seconds",
                "0",
                "--warmup",
                "0",
            ],
            "--obs-out",
        ),
    ];
    for (bin, args, flag) in cases {
        let out = Command::new(bin).args(*args).output().expect("spawn CLI");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: `{stderr}` does not name {flag}");
    }
}
