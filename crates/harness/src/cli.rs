//! The one flag reader behind `simulate`, `experiments`, `experiments
//! scale` and `experiments torture`.
//!
//! Each CLI walks its arguments with [`Flags`], one match arm per flag.
//! The flags several CLIs share are read by [`Shared::read`], so each has
//! one type and one meaning everywhere. A CLI validates the config it
//! built (`SimConfig::validate`, `ScaleParams::validate`) before it runs
//! anything. Every usage or config error comes back as an `Err` naming
//! the flag, and [`exit_usage`] prints it as one stderr line and exits 2.

use std::fmt::Display;
use std::str::FromStr;

use dynmds_core::{FaultSchedule, ObsConfig, ObsExport, SimConfig};
use dynmds_partition::StrategyKind;

use crate::ScaleParams;

/// Every shared flag; a CLI that takes them all passes this to
/// [`Shared::read`].
pub const SHARED_FLAGS: &[&str] = &[
    "--strategy",
    "--mds",
    "--clients",
    "--cache",
    "--seed",
    "--shards",
    "--threads",
    "--force-dense",
    "--proxy",
    "--faults",
    "--obs",
    "--obs-trace",
];

/// Prints `err` as one line on stderr, prefixed with the program name,
/// and exits 2, the exit code of every usage or config error.
pub fn exit_usage(prog: &str, err: &str) -> ! {
    eprintln!("{prog}: {err}");
    std::process::exit(2)
}

/// Writes `body` to `dir/name`, creating `dir`, and logs the path on
/// stderr. An I/O failure is a usage error of `flag`, the flag that named
/// `dir`.
pub fn write_output(prog: &str, flag: &str, dir: &str, name: &str, body: &str) {
    let path = format!("{dir}/{name}");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        exit_usage(prog, &format!("{flag}: cannot write {path}: {e}"));
    }
    eprintln!("wrote {path}");
}

/// Writes a run's observability exports (`obs_metrics.jsonl`,
/// `obs_snapshots.jsonl` and, when traced, `obs_trace.jsonl`) to `dir`.
pub fn write_obs(prog: &str, flag: &str, dir: &str, export: &ObsExport) {
    write_output(prog, flag, dir, "obs_metrics.jsonl", &export.metrics_jsonl);
    write_output(prog, flag, dir, "obs_snapshots.jsonl", &export.snapshots_jsonl);
    if let Some(trace) = &export.trace_jsonl {
        write_output(prog, flag, dir, "obs_trace.jsonl", trace);
    }
}

/// A cursor over one command line. [`next_flag`](Flags::next_flag)
/// moves to the next argument; the value readers consume that flag's
/// value and name the flag in any error.
pub struct Flags {
    args: std::vec::IntoIter<String>,
    flag: String,
}

impl Flags {
    /// A cursor over `args` (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Flags { args: args.into_iter().collect::<Vec<_>>().into_iter(), flag: String::new() }
    }

    /// The next argument, which becomes the flag errors name.
    pub fn next_flag(&mut self) -> Option<String> {
        self.flag = self.args.next()?;
        Some(self.flag.clone())
    }

    /// An error naming the current flag.
    pub fn err<T>(&self, msg: impl Display) -> Result<T, String> {
        Err(format!("{}: {msg}", self.flag))
    }

    /// The current flag's raw value.
    pub fn text(&mut self) -> Result<String, String> {
        match self.args.next() {
            Some(v) => Ok(v),
            None => self.err("missing value"),
        }
    }

    /// The current flag's value, parsed.
    pub fn value<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v = self.text()?;
        v.parse().or_else(|e| self.err(format!("bad value `{v}` ({e})")))
    }

    /// The current flag's value, which must be at least 1.
    pub fn positive<T: FromStr + PartialOrd + From<u8>>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v: T = self.value()?;
        if v < T::from(1) {
            return self.err("must be positive");
        }
        Ok(v)
    }
}

/// The flags more than one CLI accepts. Each CLI lists the ones it takes;
/// [`Shared::read`] reads any of them, and the CLI maps the values onto
/// its config with [`Shared::apply`] or [`Shared::apply_scale`].
#[derive(Clone, Debug, Default)]
pub struct Shared {
    /// `--strategy NAME|all`: one strategy, or every paper strategy.
    pub strategies: Option<Vec<StrategyKind>>,
    /// `--mds N`.
    pub mds: Option<u16>,
    /// `--clients N`.
    pub clients: Option<u32>,
    /// `--cache N` (per-MDS inodes; the journal holds four times that).
    pub cache: Option<usize>,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--shards K`: event-queue shards of the sharded engine.
    pub shards: Option<usize>,
    /// `--threads T`: a positive worker count for every pool fan-out.
    pub threads: Option<usize>,
    /// `--force-dense`: the sharded engine executes every window.
    pub force_dense: bool,
    /// `--proxy P`: hotspot proxies in front of the cluster.
    pub proxy: Option<u16>,
    /// `--faults SPEC`.
    pub faults: Option<FaultSchedule>,
    /// `--obs` (metrics) and `--obs-trace` (metrics and per-op spans).
    pub obs: ObsConfig,
}

impl Shared {
    /// Reads `flag` if it is in `accepted`; `Ok(false)` leaves any other
    /// flag to the caller.
    pub fn read(&mut self, flag: &str, accepted: &[&str], f: &mut Flags) -> Result<bool, String> {
        if !accepted.contains(&flag) {
            return Ok(false);
        }
        match flag {
            "--strategy" => {
                let v = f.text()?;
                self.strategies = Some(if v == "all" {
                    StrategyKind::ALL.to_vec()
                } else {
                    vec![v.parse().or_else(|e| f.err(e))?]
                });
            }
            "--mds" => self.mds = Some(f.value()?),
            "--clients" => self.clients = Some(f.value()?),
            "--cache" => self.cache = Some(f.value()?),
            "--seed" => self.seed = Some(f.value()?),
            "--shards" => self.shards = Some(f.value()?),
            "--threads" => self.threads = Some(f.positive()?),
            "--force-dense" => self.force_dense = true,
            "--proxy" => self.proxy = Some(f.value()?),
            "--faults" => {
                self.faults = Some(FaultSchedule::parse(&f.text()?).or_else(|e| f.err(e))?)
            }
            "--obs" => self.obs.metrics = true,
            "--obs-trace" => (self.obs.metrics, self.obs.trace) = (true, true),
            other => panic!("{other} is not a shared flag"),
        }
        Ok(true)
    }

    /// Applies the cluster-shaped flags to `cfg`; `--strategy` is the
    /// caller's, as it picks the config's base.
    pub fn apply(&self, cfg: &mut SimConfig) {
        cfg.n_mds = self.mds.unwrap_or(cfg.n_mds);
        cfg.n_clients = self.clients.unwrap_or(cfg.n_clients);
        if let Some(c) = self.cache {
            cfg.cache_capacity = c;
            cfg.journal_capacity = c.saturating_mul(4);
        }
        cfg.seed = self.seed.unwrap_or(cfg.seed);
        cfg.proxy.count = self.proxy.unwrap_or(cfg.proxy.count);
        if let Some(f) = &self.faults {
            cfg.faults = f.clone();
        }
        cfg.force_dense |= self.force_dense;
        cfg.obs = self.obs;
    }

    /// Applies the same flags to a scale-tier sizing.
    pub fn apply_scale(&self, p: &mut ScaleParams) {
        if let Some(s) = &self.strategies {
            p.strategies = s.clone();
        }
        p.n_mds = self.mds.unwrap_or(p.n_mds);
        p.clients = self.clients.unwrap_or(p.clients);
        p.cache_capacity = self.cache.unwrap_or(p.cache_capacity);
        p.seed = self.seed.unwrap_or(p.seed);
        p.shards = self.shards.unwrap_or(p.shards);
        p.threads = self.threads.or(p.threads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(args: &[&str]) -> Result<Shared, String> {
        let mut f = Flags::new(args.iter().map(|s| s.to_string()));
        let mut sh = Shared::default();
        while let Some(flag) = f.next_flag() {
            if !sh.read(&flag, SHARED_FLAGS, &mut f)? {
                return f.err("unknown flag");
            }
        }
        Ok(sh)
    }

    #[test]
    fn shared_flags_read_typed_values() {
        let sh = read(&["--strategy", "dirhash", "--mds", "3", "--threads", "2", "--obs-trace"])
            .unwrap();
        assert_eq!(sh.strategies, Some(vec![StrategyKind::DirHash]));
        assert_eq!((sh.mds, sh.threads), (Some(3), Some(2)));
        assert!(sh.obs.metrics && sh.obs.trace);
        assert_eq!(read(&["--strategy", "all"]).unwrap().strategies.unwrap().len(), 5);
    }

    #[test]
    fn errors_name_the_flag() {
        for (args, flag) in [
            (&["--mds", "x"][..], "--mds"),
            (&["--threads", "0"][..], "--threads"),
            (&["--seed"][..], "--seed"),
            (&["--strategy", "bogus"][..], "--strategy"),
            (&["--faults", "crash:1"][..], "--faults"),
            (&["--bogus"][..], "--bogus"),
        ] {
            let e = read(args).unwrap_err();
            assert!(e.starts_with(flag), "`{e}` does not name {flag}");
            assert!(!e.contains('\n'), "`{e}` is not one line");
        }
    }
}
