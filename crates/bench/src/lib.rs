//! Shared helpers for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md's experiment index). They print aligned
//! text tables to stdout so results can be diffed against
//! EXPERIMENTS.md, and with `--out <dir>` additionally write
//! machine-readable CSV/JSON-lines artifacts (via `vlq-sweep`) so
//! future PRs can regression-diff evaluation numbers.

use std::path::{Path, PathBuf};

use vlq_qec::DecoderKind;
use vlq_surface::schedule::Setup;
use vlq_sweep::{
    CsvSink, JsonlSink, RecordSink, ResumeCache, RunOptions, ShardPlan, ShardSpec, SweepEngine,
    SweepExecutor, SweepMeta, SweepRecord, SweepSpec, TimesSink,
};
use vlq_telemetry::Recorder;

/// Tiny argument parser: `--key value` pairs and `--flag`s.
#[derive(Debug, Default)]
pub struct Args {
    pairs: std::collections::HashMap<String, String>,
    flags: std::collections::HashSet<String>,
}

impl Args {
    /// Parses `std::env::args` strictly: `keys` name the flags that take
    /// a value, `flags` the boolean ones. Unknown flags, missing values,
    /// and stray positional arguments print `usage` to stderr and exit
    /// with status 2.
    pub fn parse_validated(usage: &str, keys: &[&str], flags: &[&str]) -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let (args, positionals) = Self::parse_argv(&argv, usage, keys, flags, false);
        debug_assert!(positionals.is_empty());
        args
    }

    /// [`Args::parse_validated`] for the sweep binaries driven through
    /// [`SweepCli`]: `keys` and `flags` name the binary's own options,
    /// and the eight [`SweepCli`] options are accepted on top of them.
    pub fn parse_sweep(usage: &str, keys: &[&str], flags: &[&str]) -> Self {
        let keys = [keys, &SWEEP_KEYS].concat();
        let flags = [flags, &SWEEP_FLAGS].concat();
        Self::parse_validated(usage, &keys, &flags)
    }

    /// [`Args::parse_validated`] for binaries that also take positional
    /// arguments (`sweep-merge`'s shard directories); returns them in
    /// order alongside the parsed flags.
    pub fn parse_validated_positional(
        usage: &str,
        keys: &[&str],
        flags: &[&str],
    ) -> (Self, Vec<String>) {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_argv(&argv, usage, keys, flags, true)
    }

    /// [`Args::parse_validated`] for binaries that forward a verbatim
    /// tail to a child process (`sweep-launch`): everything after the
    /// first bare `--` separator is returned unparsed, everything
    /// before it is validated as usual.
    pub fn parse_validated_passthrough(
        usage: &str,
        keys: &[&str],
        flags: &[&str],
    ) -> (Self, Vec<String>) {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let (head, tail) = match argv.iter().position(|a| a == "--") {
            Some(sep) => (&argv[..sep], argv[sep + 1..].to_vec()),
            None => (&argv[..], Vec::new()),
        };
        let (args, positionals) = Self::parse_argv(head, usage, keys, flags, false);
        debug_assert!(positionals.is_empty());
        (args, tail)
    }

    fn parse_argv(
        argv: &[String],
        usage: &str,
        keys: &[&str],
        flags: &[&str],
        allow_positional: bool,
    ) -> (Self, Vec<String>) {
        let mut out = Args::default();
        let mut positionals = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            let Some(key) = a.strip_prefix("--") else {
                if allow_positional {
                    positionals.push(a.clone());
                    i += 1;
                    continue;
                }
                usage_exit(usage, &format!("unexpected argument {a:?}"));
            };
            if flags.contains(&key) {
                out.flags.insert(key.to_string());
                i += 1;
            } else if keys.contains(&key) {
                // Values may be negative numbers ("-5") but never
                // another option ("--x").
                match argv.get(i + 1) {
                    Some(v) if !v.starts_with("--") => {
                        out.pairs.insert(key.to_string(), v.clone());
                        i += 2;
                    }
                    _ => usage_exit(usage, &format!("--{key} requires a value")),
                }
            } else {
                usage_exit(usage, &format!("unknown flag --{key}"));
            }
        }
        (out, positionals)
    }

    /// Typed lookup with default; an unparseable value prints `usage`
    /// and exits with status 2.
    pub fn get_or_usage<T: std::str::FromStr>(&self, usage: &str, key: &str, default: T) -> T {
        match self.pairs.get(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| usage_exit(usage, &format!("invalid value {v:?} for --{key}"))),
        }
    }

    /// Optional string lookup (no default).
    pub fn pairs_get(&self, key: &str) -> Option<String> {
        self.pairs.get(key).cloned()
    }

    /// String lookup.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.pairs
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Flag presence.
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains(key)
    }
}

/// Prints an error plus usage to stderr and exits with status 2 (the
/// figure binaries' contract for bad invocations).
pub fn usage_exit(usage: &str, error: &str) -> ! {
    eprintln!("error: {error}\n{usage}");
    std::process::exit(2);
}

/// Resolves a `--<key> N|auto` count flag: `None` when absent,
/// `available_parallelism` for `auto` (with a stderr note recording the
/// resolved value — provenance for runs sharing artifacts), the number
/// otherwise. Exits 2 (usage) on `0` or a non-numeric non-`auto` value.
pub fn count_from_args(args: &Args, usage: &str, key: &str) -> Option<usize> {
    let raw = args.pairs_get(key)?;
    let n = if raw == "auto" {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        eprintln!("note: --{key} auto resolved to {n}");
        n
    } else {
        raw.parse()
            .unwrap_or_else(|_| usage_exit(usage, &format!("invalid value {raw:?} for --{key}")))
    };
    if n == 0 {
        usage_exit(usage, &format!("--{key} must be >= 1"));
    }
    Some(n)
}

/// Parses the `--telemetry PATH` flag: an attached recorder (plus the
/// sidecar path) when given, a disabled recorder otherwise. Pair with
/// [`finish_telemetry`] after the run.
pub fn telemetry_from_args(args: &Args) -> (Recorder, Option<PathBuf>) {
    match args.pairs_get("telemetry") {
        Some(path) => (Recorder::attached(), Some(PathBuf::from(path))),
        None => (Recorder::disabled(), None),
    }
}

/// Writes the deterministic telemetry JSONL sidecar and prints the
/// human-readable summary (which includes the runtime-class metrics) to
/// stderr. No-op when `--telemetry` was absent.
///
/// The sidecar holds only deterministic-class metrics, so for a fixed
/// seed it is byte-identical across `--workers` counts — CI pins this.
pub fn finish_telemetry(recorder: &Recorder, path: Option<&Path>, bin: &str, seed: u64) {
    let Some(path) = path else { return };
    std::fs::write(path, recorder.deterministic_jsonl(bin, seed))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprint!("{}", recorder.summary());
    eprintln!("note: telemetry sidecar written to {}", path.display());
}

/// Parses the `--shard i/N` flag of a sweep-backed binary (default: the
/// full `0/1` shard). An unparsable or out-of-range spec prints `usage`
/// and exits with status 2.
pub fn shard_from_args(args: &Args, usage: &str) -> ShardSpec {
    match args.pairs_get("shard") {
        None => ShardSpec::FULL,
        Some(s) => s
            .parse()
            .unwrap_or_else(|e| usage_exit(usage, &format!("--shard: {e}"))),
    }
}

/// The value options every [`SweepCli`] binary accepts.
const SWEEP_KEYS: [&str; 6] = ["workers", "out", "shard", "plan", "times", "telemetry"];
/// The switches every [`SweepCli`] binary accepts.
const SWEEP_FLAGS: [&str; 2] = ["quiet", "resume"];

/// The run front end fig11, fig12, prog1 and tenants1 share: parse with
/// [`Args::parse_sweep`], build each spec of the run, then [`SweepCli::run`]
/// them all.
///
/// It owns the eight options those binaries have in common: `--workers`
/// and `--quiet` (the engine), `--out` (`<stem>.csv`, `<stem>.jsonl` and
/// the `<stem>.meta.json` sidecar), `--resume` (reuse the points already
/// in `<out>/<stem>.jsonl`), `--shard` and `--plan` (which global point
/// indices this run owns), `--times` (per-point wall times for
/// `sweep-launch --shard-by time`) and `--telemetry` (the deterministic
/// sidecar and the stderr summary). A binary keeps only its own grid
/// options and its tables.
pub struct SweepCli {
    /// The `--shard i/N` this run executes (default: the full `0/1`).
    pub shard: ShardSpec,
    /// The `--out` directory, if given.
    pub out: Option<PathBuf>,
    /// The `--telemetry` sidecar path, if given.
    pub telemetry: Option<PathBuf>,
    engine: SweepEngine,
    plan: Option<ShardPlan>,
    cache: ResumeCache,
    sinks: Vec<Box<dyn RecordSink>>,
    stem: String,
    seed: u64,
}

impl SweepCli {
    /// Reads the shared options of a run whose artifacts are named
    /// `stem` and whose points are seeded from `seed`, loading the
    /// `--resume` cache from `<out>/<stem>.jsonl` before the sinks
    /// truncate it.
    ///
    /// Exits 2 with `usage` on `--workers 0`, a bad `--shard`, a
    /// malformed `--plan` or one whose shard count disagrees with
    /// `--shard`, `--resume` without `--out`, and a resume artifact that
    /// is damaged or was sampled under another seed (a missing one means
    /// a full run).
    pub fn new(args: &Args, usage: &str, stem: &str, seed: u64) -> Self {
        let (recorder, telemetry) = telemetry_from_args(args);
        let mut engine = match args.pairs_get("workers") {
            Some(_) => {
                let workers: usize = args.get_or_usage(usage, "workers", 0);
                if workers == 0 {
                    usage_exit(usage, "--workers must be >= 1");
                }
                SweepEngine::with_workers(workers)
            }
            None => SweepEngine::default(),
        };
        engine.progress = !args.has("quiet");
        engine.recorder = recorder;
        let shard = shard_from_args(args, usage);
        let plan = args.pairs_get("plan").map(|path| {
            let plan = ShardPlan::load(Path::new(&path))
                .unwrap_or_else(|e| usage_exit(usage, &format!("--plan: {e}")));
            if plan.count() != shard.count {
                usage_exit(
                    usage,
                    &format!(
                        "--plan has {} shards but --shard says {}/{}",
                        plan.count(),
                        shard.index,
                        shard.count
                    ),
                );
            }
            plan
        });
        let out = args.pairs_get("out").map(PathBuf::from);
        let cache = if args.has("resume") {
            let Some(dir) = &out else {
                usage_exit(
                    usage,
                    "--resume requires --out (the artifact to resume from)",
                );
            };
            load_resume_cache(&dir.join(format!("{stem}.jsonl")), seed)
        } else {
            ResumeCache::new()
        };
        let mut sinks: Vec<Box<dyn RecordSink>> = Vec::new();
        if let Some(dir) = &out {
            sinks.push(Box::new(
                CsvSink::create(&dir.join(format!("{stem}.csv")))
                    .unwrap_or_else(|e| panic!("create {stem}.csv: {e}")),
            ));
            sinks.push(Box::new(
                JsonlSink::create(&dir.join(format!("{stem}.jsonl")))
                    .unwrap_or_else(|e| panic!("create {stem}.jsonl: {e}")),
            ));
        }
        if let Some(p) = args.pairs_get("times") {
            sinks.push(Box::new(
                TimesSink::create(Path::new(&p)).unwrap_or_else(|e| panic!("create {p}: {e}")),
            ));
        }
        SweepCli {
            shard,
            out,
            telemetry,
            engine,
            plan,
            cache,
            sinks,
            stem: stem.to_string(),
            seed,
        }
    }

    /// Runs `specs` in order into one artifact and returns each spec's
    /// records (the points this shard owns, in expansion order).
    ///
    /// Points are numbered globally: each spec's first index follows the
    /// previous spec's last, so `--shard`, `--plan`, `--resume` and
    /// `sweep-merge` see one index space. With `--out`, the
    /// `<stem>.meta.json` sidecar (seed, the fingerprint fold and point
    /// total of every spec, the shard and the plan's fingerprint) is
    /// written before the first point runs, so a shard killed mid-run
    /// still names its sweep to `sweep-merge --verify`.
    ///
    /// # Panics
    ///
    /// Panics if an artifact file cannot be written.
    pub fn run<E: SweepExecutor>(
        &mut self,
        specs: &[SweepSpec],
        executor: &E,
    ) -> Vec<Vec<SweepRecord>> {
        if let Some(dir) = &self.out {
            let meta = SweepMeta {
                seed: self.seed,
                spec_fingerprint: specs.iter().fold(0, |acc, spec| {
                    vlq_sweep::combine_fingerprints(acc, spec.fingerprint())
                }),
                points: specs.iter().map(|spec| spec.len() as u64).sum(),
                shard: self.shard,
                plan: self.plan.as_ref().and_then(ShardPlan::fingerprint),
            };
            meta.write(dir, &self.stem)
                .unwrap_or_else(|e| panic!("write {}.meta.json: {e}", self.stem));
        }
        let mut sinks: Vec<&mut dyn RecordSink> =
            self.sinks.iter_mut().map(|sink| &mut **sink as _).collect();
        let mut index_offset = 0;
        let mut records = Vec::with_capacity(specs.len());
        for spec in specs {
            let opts = RunOptions {
                shard: self.shard,
                index_offset,
                plan: self.plan.clone(),
            };
            let (mut owned, mut skipped) = (0, 0);
            for (i, point) in spec.expand().iter().enumerate() {
                if opts.owns(index_offset + i) {
                    owned += 1;
                    skipped +=
                        usize::from(self.cache.failures_for(point, spec.base_seed).is_some());
                }
            }
            if skipped > 0 {
                eprintln!("note: resume: {skipped}/{owned} points already complete");
            }
            index_offset += spec.len();
            records.push(
                self.engine
                    .run_opts(spec, executor, &mut sinks, &self.cache, &opts)
                    .expect("sweep artifacts"),
            );
        }
        records
    }

    /// Writes the `--telemetry` sidecar under `bin` and prints the
    /// runtime summary (see [`finish_telemetry`]); a no-op without
    /// `--telemetry`.
    pub fn finish_telemetry(&self, bin: &str) {
        let recorder = &self.engine.recorder;
        finish_telemetry(recorder, self.telemetry.as_deref(), bin, self.seed);
    }

    /// Prints the artifact paths (call once, after the tables).
    pub fn announce(&self) {
        if let Some(dir) = &self.out {
            println!(
                "\nartifacts: {} and {}",
                dir.join(format!("{}.csv", self.stem)).display(),
                dir.join(format!("{}.jsonl", self.stem)).display()
            );
        }
    }
}

/// Loads a `--resume` artifact: empty (a full run) when `path` does not
/// exist yet, exit 2 when it is damaged or sampled under another seed.
fn load_resume_cache(path: &Path, seed: u64) -> ResumeCache {
    if !path.exists() {
        eprintln!(
            "note: resume: no {} yet, running the full sweep",
            path.display()
        );
        return ResumeCache::new();
    }
    match ResumeCache::load_jsonl_expecting(path, seed) {
        Ok(cache) => {
            eprintln!(
                "note: resume: loaded {} completed point(s) from {}",
                cache.len(),
                path.display()
            );
            cache
        }
        Err(e) => {
            eprintln!("error: --resume rejected: {e}");
            eprintln!("note: rerun without --resume to regenerate the artifact");
            std::process::exit(2);
        }
    }
}

/// Parses `--setup NAME|all` (fig11, prog1, tenants1): `default` when
/// absent, every setup of [`Setup::ALL`](Setup::ALL)
/// for `all`. An unknown name prints `usage` and exits 2.
pub fn setups_from_args(args: &Args, usage: &str, default: &[Setup]) -> Vec<Setup> {
    let Some(arg) = args.pairs_get("setup") else {
        return default.to_vec();
    };
    if arg == "all" {
        return Setup::ALL.to_vec();
    }
    match Setup::ALL.into_iter().find(|s| s.to_string() == arg) {
        Some(s) => vec![s],
        None => usage_exit(
            usage,
            &format!(
                "unknown --setup {arg:?}; accepted: {}|all",
                Setup::ALL.map(|s| s.to_string()).join("|")
            ),
        ),
    }
}

/// Parses a one-decoder `--decoder NAME` (prog1, tenants1; fig11 also
/// takes `all`): `default` when absent. An unknown name prints `usage`
/// and exits 2.
pub fn decoder_from_args(args: &Args, usage: &str, default: DecoderKind) -> DecoderKind {
    let Some(arg) = args.pairs_get("decoder") else {
        return default;
    };
    DecoderKind::parse(&arg).unwrap_or_else(|| {
        usage_exit(
            usage,
            &format!(
                "unknown --decoder {arg:?}; accepted: \
                 mwpm|blossom|matching, uf|unionfind|union-find"
            ),
        )
    })
}

/// Parses `--dmax D` (every sweep binary): the distances of `all` that
/// are at most D, with D = `default_dmax` when absent. An unparseable D,
/// or one below every distance of `all`, prints `usage` and exits 2.
pub fn distances_from_args(
    args: &Args,
    usage: &str,
    all: &[usize],
    default_dmax: usize,
) -> Vec<usize> {
    let dmax: usize = args.get_or_usage(usage, "dmax", default_dmax);
    let distances: Vec<usize> = all.iter().copied().filter(|&d| d <= dmax).collect();
    if distances.is_empty() {
        usage_exit(usage, &format!("--dmax {dmax} leaves no distances to scan"));
    }
    distances
}

/// Parses `--rates P1,P2,...` (fig11, prog1, tenants1): `default` when
/// absent. Each rate must be finite and in `[0, 0.5]` (above 1/2 a fault
/// is likelier than not, and its matching weight `ln((1-p)/p)` turns
/// negative); any other list prints `usage` and exits 2.
pub fn rates_from_args(args: &Args, usage: &str, default: &[f64]) -> Vec<f64> {
    match args.pairs_get("rates") {
        None => default.to_vec(),
        Some(s) => {
            parse_rates(&s).unwrap_or_else(|| usage_exit(usage, &format!("invalid --rates {s:?}")))
        }
    }
}

/// The rates of a comma-separated `--rates` value, if all are valid.
fn parse_rates(s: &str) -> Option<Vec<f64>> {
    let vals: Result<Vec<f64>, _> = s.split(',').map(|t| t.trim().parse()).collect();
    vals.ok()
        .filter(|v| !v.is_empty() && v.iter().all(|p| (0.0..=0.5).contains(p)))
}

/// Formats a probability in compact scientific notation.
pub fn sci(p: f64) -> String {
    if p == 0.0 {
        "0".to_string()
    } else {
        format!("{p:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn sci_formats() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(0.0123), "1.23e-2");
    }

    #[test]
    fn validated_parse_accepts_known_keys_and_flags() {
        let (a, pos) = Args::parse_argv(
            &argv(&["--trials", "100", "--quiet", "--seed", "-5"]),
            "usage",
            &["trials", "seed"],
            &["quiet"],
            false,
        );
        assert_eq!(a.get_or_usage::<u64>("usage", "trials", 0), 100);
        assert_eq!(a.get_str("seed", ""), "-5");
        assert!(a.has("quiet"));
        assert!(pos.is_empty());
    }

    #[test]
    fn positional_parse_collects_in_order() {
        let (a, pos) = Args::parse_argv(
            &argv(&["shard0", "--stem", "fig11", "shard1", "shard2"]),
            "usage",
            &["stem"],
            &[],
            true,
        );
        assert_eq!(a.get_str("stem", ""), "fig11");
        assert_eq!(pos, vec!["shard0", "shard1", "shard2"]);
    }

    #[test]
    fn f64_list_parses() {
        assert_eq!(parse_rates("1e-3, 2e-3"), Some(vec![1e-3, 2e-3]));
        assert_eq!(parse_rates("1e-3,x"), None);
        assert_eq!(parse_rates(""), None);
        assert_eq!(parse_rates("0,0.5"), Some(vec![0.0, 0.5]));
        for bad in ["nan", "inf", "-1e-3", "0.6", "1e-3,0.6"] {
            assert_eq!(parse_rates(bad), None, "{bad}");
        }
    }
}
