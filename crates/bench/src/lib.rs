//! Shared helpers for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see DESIGN.md's experiment index). They print aligned
//! text tables to stdout so results can be diffed against
//! EXPERIMENTS.md, and with `--out <dir>` additionally write
//! machine-readable CSV/JSON-lines artifacts (via `vlq-sweep`) so
//! future PRs can regression-diff evaluation numbers.

/// Tiny argument parser: `--key value` pairs and `--flag`s.
#[derive(Debug, Default)]
pub struct Args {
    pairs: std::collections::HashMap<String, String>,
    flags: std::collections::HashSet<String>,
}

impl Args {
    /// Parses `std::env::args` permissively (unknown keys are kept,
    /// nothing exits). Prefer [`Args::parse_validated`] in binaries.
    pub fn parse() -> Self {
        let mut pairs = std::collections::HashMap::new();
        let mut flags = std::collections::HashSet::new();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                    pairs.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    flags.insert(key.to_string());
                    i += 1;
                }
            } else {
                i += 1;
            }
        }
        Args { pairs, flags }
    }

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

    /// Typed lookup with default. Silently falls back on parse failure;
    /// prefer [`Args::get_or_usage`] in binaries.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.pairs
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
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

/// Builds the sweep engine a Monte-Carlo binary should use from its
/// `--workers` / `--quiet` flags (shared by fig11, fig12, prog1 and
/// tenants1). `--workers` is a sweep's only worker count.
pub fn engine_from_args(args: &Args, usage: &str) -> vlq_sweep::SweepEngine {
    let mut engine = match args.pairs_get("workers") {
        Some(_) => {
            let workers: usize = args.get_or_usage(usage, "workers", 0);
            if workers == 0 {
                usage_exit(usage, "--workers must be >= 1");
            }
            vlq_sweep::SweepEngine::with_workers(workers)
        }
        None => vlq_sweep::SweepEngine::default(),
    };
    engine.progress = !args.has("quiet");
    engine
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
pub fn telemetry_from_args(args: &Args) -> (vlq_telemetry::Recorder, Option<std::path::PathBuf>) {
    match args.pairs_get("telemetry") {
        Some(path) => (
            vlq_telemetry::Recorder::attached(),
            Some(std::path::PathBuf::from(path)),
        ),
        None => (vlq_telemetry::Recorder::disabled(), None),
    }
}

/// Writes the deterministic telemetry JSONL sidecar and prints the
/// human-readable summary (which includes the runtime-class metrics) to
/// stderr. No-op when `--telemetry` was absent.
///
/// The sidecar holds only deterministic-class metrics, so for a fixed
/// seed it is byte-identical across `--workers` counts — CI pins this.
pub fn finish_telemetry(
    recorder: &vlq_telemetry::Recorder,
    path: Option<&std::path::Path>,
    bin: &str,
    seed: u64,
) {
    let Some(path) = path else { return };
    std::fs::write(path, recorder.deterministic_jsonl(bin, seed))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprint!("{}", recorder.summary());
    eprintln!("note: telemetry sidecar written to {}", path.display());
}

/// Parses the `--shard i/N` flag of a sweep-backed binary (default: the
/// full `0/1` shard). An unparsable or out-of-range spec prints `usage`
/// and exits with status 2.
pub fn shard_from_args(args: &Args, usage: &str) -> vlq_sweep::ShardSpec {
    match args.pairs_get("shard") {
        None => vlq_sweep::ShardSpec::FULL,
        Some(s) => s
            .parse()
            .unwrap_or_else(|e| usage_exit(usage, &format!("--shard: {e}"))),
    }
}

/// Loads the `--resume` cache of a sweep-backed binary: completed grid
/// points from a previous run's `<out>/<stem>.jsonl` artifact.
///
/// Must be called *before* [`OutSinks::from_args`], which truncates the
/// artifact files. Returns an empty cache when `--resume` is absent;
/// exits with usage status 2 when `--resume` is given without `--out`.
/// A missing artifact (nothing to resume from) is fine — the run is
/// simply a full one. A *damaged* artifact (truncated or garbled rows)
/// or one sampled under a different base seed than `expected_seed` is
/// a typed [`vlq_sweep::ArtifactError`]: the binary reports it and
/// exits 2 rather than silently resampling or splicing seeds.
pub fn resume_cache_from_args(
    args: &Args,
    usage: &str,
    stem: &str,
    expected_seed: u64,
) -> vlq_sweep::ResumeCache {
    if !args.has("resume") {
        return vlq_sweep::ResumeCache::new();
    }
    let Some(dir) = args.pairs_get("out") else {
        usage_exit(
            usage,
            "--resume requires --out (the artifact to resume from)",
        );
    };
    let path = std::path::Path::new(&dir).join(format!("{stem}.jsonl"));
    if !path.exists() {
        eprintln!(
            "note: resume: no {} yet, running the full sweep",
            path.display()
        );
        return vlq_sweep::ResumeCache::new();
    }
    match vlq_sweep::ResumeCache::load_jsonl_expecting(&path, expected_seed) {
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

/// How many of the points a sharded run owns the resume cache
/// satisfies (`opts` carries the shard, the plan, and the global
/// numbering offset, exactly as passed to the engine).
pub fn resumed_points(
    spec: &vlq_sweep::SweepSpec,
    cache: &vlq_sweep::ResumeCache,
    opts: &vlq_sweep::RunOptions,
) -> usize {
    if cache.is_empty() {
        return 0;
    }
    spec.expand()
        .iter()
        .enumerate()
        .filter(|(i, _)| opts.owns(opts.index_offset + i))
        .filter(|(_, pt)| cache.failures_for(pt, spec.base_seed).is_some())
        .count()
}

/// Parses the `--plan PATH` flag of a sweep-backed binary: an explicit
/// [`vlq_sweep::ShardPlan`] (written by `sweep-launch --shard-by time`)
/// overriding the default stride sharding. The plan file is
/// self-checking (schema tag + fingerprint); a malformed plan, or one
/// whose shard count disagrees with `--shard i/N`, prints `usage` and
/// exits 2. Returns `None` when the flag is absent.
pub fn plan_from_args(
    args: &Args,
    usage: &str,
    shard: vlq_sweep::ShardSpec,
) -> Option<vlq_sweep::ShardPlan> {
    let path = args.pairs_get("plan")?;
    let plan = vlq_sweep::ShardPlan::load(std::path::Path::new(&path))
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
    Some(plan)
}

/// The optional `--out` CSV + JSON-lines sink pair of a Monte-Carlo
/// binary (shared by fig11, fig12, prog1 and tenants1), plus the
/// optional `--times` wall-time sink feeding the `--shard-by time` cost
/// model.
pub struct OutSinks {
    /// The `--out` directory, if given.
    pub dir: Option<std::path::PathBuf>,
    stem: String,
    csv: Option<vlq_sweep::CsvSink<std::io::LineWriter<std::fs::File>>>,
    jsonl: Option<vlq_sweep::JsonlSink<std::io::LineWriter<std::fs::File>>>,
    times: Option<vlq_sweep::TimesSink<std::io::LineWriter<std::fs::File>>>,
}

impl OutSinks {
    /// Creates `<stem>.csv` / `<stem>.jsonl` sinks under the `--out`
    /// directory (inert when the flag is absent) and a
    /// [`vlq_sweep::TimesSink`] at the `--times` path when given.
    pub fn from_args(args: &Args, stem: &str) -> OutSinks {
        let dir = args.pairs_get("out").map(std::path::PathBuf::from);
        let (csv, jsonl) = match &dir {
            Some(d) => (
                Some(
                    vlq_sweep::CsvSink::create(&d.join(format!("{stem}.csv")))
                        .unwrap_or_else(|e| panic!("create {stem}.csv: {e}")),
                ),
                Some(
                    vlq_sweep::JsonlSink::create(&d.join(format!("{stem}.jsonl")))
                        .unwrap_or_else(|e| panic!("create {stem}.jsonl: {e}")),
                ),
            ),
            None => (None, None),
        };
        let times = args.pairs_get("times").map(|p| {
            vlq_sweep::TimesSink::create(std::path::Path::new(&p))
                .unwrap_or_else(|e| panic!("create {p}: {e}"))
        });
        OutSinks {
            dir,
            stem: stem.to_string(),
            csv,
            jsonl,
            times,
        }
    }

    /// The sink list to hand to the engine (empty when `--out` absent).
    pub fn as_dyn(&mut self) -> Vec<&mut dyn vlq_sweep::RecordSink> {
        let mut sinks: Vec<&mut dyn vlq_sweep::RecordSink> = Vec::new();
        if let Some(s) = self.csv.as_mut() {
            sinks.push(s);
        }
        if let Some(s) = self.jsonl.as_mut() {
            sinks.push(s);
        }
        if let Some(s) = self.times.as_mut() {
            sinks.push(s);
        }
        sinks
    }

    /// Writes the `<stem>.meta.json` sidecar recording the sweep's
    /// identity (seed, spec fingerprint, full point count, shard) so
    /// `sweep-merge` can validate shard compatibility. No-op without
    /// `--out`.
    pub fn write_meta(&self, meta: &vlq_sweep::SweepMeta) {
        if let Some(dir) = &self.dir {
            meta.write(dir, &self.stem)
                .unwrap_or_else(|e| panic!("write {}.meta.json: {e}", self.stem));
        }
    }

    /// Prints the artifact paths (call once, after the sweep).
    pub fn announce(&self) {
        if let Some(dir) = &self.dir {
            println!(
                "\nartifacts: {} and {}",
                dir.join(format!("{}.csv", self.stem)).display(),
                dir.join(format!("{}.jsonl", self.stem)).display()
            );
        }
    }
}

/// Accumulates the `.meta.json` identity of a sweep binary's artifact
/// across the (one or more) specs it streams into it: fig11 absorbs a
/// single spec, fig12 one per panel. The fingerprint chain and point
/// total are over the *full* grids, so every shard of the same
/// invocation writes the same identity.
#[derive(Clone, Copy, Debug)]
pub struct MetaBuilder {
    seed: u64,
    shard: vlq_sweep::ShardSpec,
    fingerprint: u64,
    points: u64,
    plan: Option<u64>,
}

impl MetaBuilder {
    /// A builder for a run under `seed` executing `shard`.
    pub fn new(seed: u64, shard: vlq_sweep::ShardSpec) -> Self {
        MetaBuilder {
            seed,
            shard,
            fingerprint: 0,
            points: 0,
            plan: None,
        }
    }

    /// Records the explicit shard plan's fingerprint (`--plan`), so
    /// `sweep-merge` validates the disjoint cover instead of the
    /// default stride layout. Stride plans have no fingerprint and
    /// leave the sidecar unchanged.
    pub fn with_plan(mut self, plan: Option<&vlq_sweep::ShardPlan>) -> Self {
        self.plan = plan.and_then(vlq_sweep::ShardPlan::fingerprint);
        self
    }

    /// Folds one spec's full grid into the artifact identity.
    pub fn absorb(&mut self, spec: &vlq_sweep::SweepSpec) {
        self.fingerprint = vlq_sweep::combine_fingerprints(self.fingerprint, spec.fingerprint());
        self.points += spec.len() as u64;
    }

    /// The finished sidecar value.
    pub fn build(&self) -> vlq_sweep::SweepMeta {
        vlq_sweep::SweepMeta {
            seed: self.seed,
            spec_fingerprint: self.fingerprint,
            points: self.points,
            shard: self.shard,
            plan: self.plan,
        }
    }
}

/// Parses a `--rates` flag: a comma-separated list of physical error
/// rates, each finite and in `[0, 0.5]`. Above 1/2 a fault is likelier
/// than not, and its matching weight `ln((1-p)/p)` turns negative.
pub fn parse_rates(s: &str) -> Option<Vec<f64>> {
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
        assert_eq!(a.get::<u64>("trials", 0), 100);
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
