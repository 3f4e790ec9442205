//! `sweep-launch`: the self-driving fleet controller for the figure
//! binaries. Takes any single-machine sweep invocation (everything
//! after the bare `--` is forwarded to the child verbatim), fans it out
//! over `--procs` local shard processes, watches their line-buffered
//! artifacts for liveness, restarts dead or stalled shards from their
//! salvaged `--resume` caches, and recombines the shard artifacts so
//! the final CSV/JSONL/`.meta.json` under `--out` are byte-identical to
//! a single-process run — including after a mid-run crash.
//!
//! `--shard-by time` replaces the default `index % N` stride with a
//! cost-balanced plan: a cheap single-process probe pass (or a prior
//! run's `--times` file via `--calibrate`) measures per-point cost, an
//! LPT greedy assignment packs the points into `N` shards, and the
//! fingerprinted plan file is both fed to every child (`--plan`) and
//! validated at merge time. Plans are deterministic functions of the
//! measured costs; the resulting *artifacts* are byte-identical under
//! any plan.
//!
//! `--emit-cmds` prints the exact child command lines instead of
//! running them — for spreading shards across machines by hand and
//! recombining with `sweep-merge`.

use std::path::PathBuf;
use std::time::Duration;

use vlq_bench::{count_from_args, usage_exit, Args};
use vlq_fleet::{render_commands, sibling_binary, supervise, ChaosKill, FleetConfig, FleetSpec};
use vlq_sweep::{load_times, ShardPlan};
use vlq_telemetry::Recorder;

const USAGE: &str = "\
usage: sweep-launch --bin fig11|fig12|prog1|tenants1 --out DIR
                    [--procs N|auto] [--shard-by stride|time]
                    [--probe-trials K | --calibrate PATH] [--emit-cmds]
                    [--poll-ms MS] [--stall-sec S] [--max-restarts R]
                    [--backoff-ms MS] [--chaos-kill I@LINES]
                    [--telemetry] [--quiet] [-- CHILD_FLAGS...]
  --bin           which figure binary to fleet (resolved as a sibling of
                  this executable)
  --out           fleet directory: shard i runs in DIR/shard<i>, merged
                  artifacts byte-identical to a single-process run land
                  in DIR itself (plus a <stem>.fleet.json provenance
                  sidecar)
  --procs         shard processes (default 2; `auto` uses
                  available_parallelism)
  --shard-by      stride (default): grid index % N ownership;
                  time: cost-balanced plan from measured per-point wall
                  times, written to DIR/<stem>.plan.json and validated
                  at merge
  --probe-trials  trials/point for the calibration probe pass that
                  --shard-by time runs when no --calibrate file is given
                  (default 32; appended after CHILD_FLAGS, so it
                  overrides the child's --trials for the probe only)
  --calibrate     reuse an existing vlq-sweep-times-v1 file (from a
                  prior run's --times) instead of probing
  --emit-cmds     print the child command lines instead of running them
                  (recombine by hand with sweep-merge)
  --poll-ms       artifact poll interval (default 50)
  --stall-sec     restart a live shard whose artifact stops growing for
                  this long (default 300)
  --max-restarts  restart budget per shard before giving up (default 3)
  --backoff-ms    first-restart backoff, doubling per restart of the
                  same shard, capped at 10s (default 200)
  --chaos-kill    fault injection: kill shard I once its JSONL reaches
                  LINES lines (exercises crash recovery; the merged
                  artifacts must still be byte-identical)
  --telemetry     collect per-shard deterministic telemetry sidecars and
                  merge them to DIR/<stem>.telemetry.jsonl (byte-equal
                  to a single-process sidecar on clean runs; a killed
                  shard's unflushed metrics are lost)
  --quiet         suppress supervisor stderr notes and the runtime
                  summary
  Everything after a bare `--` is forwarded to every child verbatim
  (seeds, rates, trials, workers...). The supervisor appends its own
  --out/--shard/--resume/--quiet after it, which therefore win.";

/// The artifact stem a child writes: fixed per binary, except prog1's
/// boundary-tagged stems (`prog1-<boundary>` off the default model).
fn stem_for(bin: &str, passthrough: &[String]) -> String {
    if bin != "prog1" {
        return bin.to_string();
    }
    match passthrough_value(passthrough, "boundary") {
        Some(b) if b != "mid-circuit" => format!("prog1-{b}"),
        _ => "prog1".to_string(),
    }
}

/// Last value of `--<key>` in the forwarded child flags (the parser's
/// later-wins rule, applied to the tail we do not otherwise parse).
fn passthrough_value<'a>(passthrough: &'a [String], key: &str) -> Option<&'a str> {
    let flag = format!("--{key}");
    let mut found = None;
    let mut i = 0;
    while i < passthrough.len() {
        if passthrough[i] == flag && i + 1 < passthrough.len() {
            found = Some(passthrough[i + 1].as_str());
            i += 2;
        } else {
            i += 1;
        }
    }
    found
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn main() {
    let (args, passthrough) = Args::parse_validated_passthrough(
        USAGE,
        &[
            "bin",
            "out",
            "procs",
            "shard-by",
            "probe-trials",
            "calibrate",
            "poll-ms",
            "stall-sec",
            "max-restarts",
            "backoff-ms",
            "chaos-kill",
        ],
        &["emit-cmds", "telemetry", "quiet"],
    );
    let Some(bin_name) = args.pairs_get("bin") else {
        usage_exit(USAGE, "--bin is required");
    };
    if !["fig11", "fig12", "prog1", "tenants1"].contains(&bin_name.as_str()) {
        usage_exit(
            USAGE,
            &format!("unknown --bin {bin_name:?}; accepted: fig11|fig12|prog1|tenants1"),
        );
    }
    let Some(out) = args.pairs_get("out") else {
        usage_exit(USAGE, "--out is required");
    };
    let out = PathBuf::from(out);
    let procs = count_from_args(&args, USAGE, "procs").unwrap_or(2);
    let quiet = args.has("quiet");

    let shard_by = args.get_str("shard-by", "stride");
    if !["stride", "time"].contains(&shard_by.as_str()) {
        usage_exit(
            USAGE,
            &format!("unknown --shard-by {shard_by:?}; accepted: stride|time"),
        );
    }
    if shard_by == "stride" {
        for time_only in ["probe-trials", "calibrate"] {
            if args.pairs_get(time_only).is_some() {
                usage_exit(USAGE, &format!("--{time_only} requires --shard-by time"));
            }
        }
    }
    if args.pairs_get("probe-trials").is_some() && args.pairs_get("calibrate").is_some() {
        usage_exit(
            USAGE,
            "--probe-trials and --calibrate are mutually exclusive",
        );
    }

    let bin = sibling_binary(&bin_name).unwrap_or_else(|e| fail(&format!("--bin {bin_name}: {e}")));
    let stem = stem_for(&bin_name, &passthrough);
    std::fs::create_dir_all(&out).unwrap_or_else(|e| fail(&format!("{}: {e}", out.display())));

    let plan = (shard_by == "time").then(|| {
        let times_path = match args.pairs_get("calibrate") {
            Some(path) => PathBuf::from(path),
            None => probe(&args, &bin, &stem, &out, &passthrough, quiet),
        };
        let times = load_times(&times_path)
            .unwrap_or_else(|e| fail(&format!("{}: {e}", times_path.display())));
        // The probe covers every grid point exactly once, so the entry
        // count *is* the grid length (and `costs` validates the cover).
        let costs = times
            .costs(times.entries.len())
            .unwrap_or_else(|e| fail(&format!("{}: {e}", times_path.display())));
        let plan = ShardPlan::from_costs(procs, &costs);
        let plan_path = out.join(format!("{stem}.plan.json"));
        plan.save(&plan_path)
            .unwrap_or_else(|e| fail(&format!("{}: {e}", plan_path.display())));
        if !quiet {
            let fp = plan.fingerprint().expect("cost plans are explicit");
            eprintln!(
                "note: fleet: time-balanced plan over {} points ({} shards, fingerprint {fp:016x})",
                costs.len(),
                procs
            );
        }
        (plan_path, plan)
    });

    let spec = FleetSpec {
        bin,
        bin_name: bin_name.clone(),
        stem: stem.clone(),
        out,
        procs,
        passthrough,
        plan,
        shard_by,
        telemetry: args.has("telemetry"),
        extra_stems: if bin_name == "tenants1" {
            vec!["tenants1-report".to_string()]
        } else {
            Vec::new()
        },
    };

    if args.has("emit-cmds") {
        for cmd in render_commands(&spec) {
            println!("{cmd}");
        }
        return;
    }

    let config = FleetConfig {
        poll: Duration::from_millis(args.get_or_usage(USAGE, "poll-ms", 50u64)),
        stall: Duration::from_secs(args.get_or_usage(USAGE, "stall-sec", 300u64)),
        max_restarts: args.get_or_usage(USAGE, "max-restarts", 3u32),
        backoff_base: Duration::from_millis(args.get_or_usage(USAGE, "backoff-ms", 200u64)),
        backoff_cap: Duration::from_secs(10),
        chaos_kill: args.pairs_get("chaos-kill").map(|s| {
            ChaosKill::parse(&s)
                .unwrap_or_else(|| usage_exit(USAGE, &format!("invalid --chaos-kill {s:?}")))
        }),
        quiet,
    };

    let recorder = Recorder::attached();
    let report = supervise(&spec, &config, &recorder).unwrap_or_else(|e| fail(&e.to_string()));
    if !quiet {
        eprint!("{}", recorder.summary());
    }
    println!(
        "fleet: merged {} shard(s) of {stem} into {}: {} rows, {} restart(s), {} stall(s){}",
        report.procs,
        spec.out.display(),
        report.rows,
        report.restarts,
        report.stalls,
        report
            .plan
            .map_or(String::new(), |fp| format!(", plan {fp:016x}"))
    );
}

/// The calibration probe for `--shard-by time`: one single-process,
/// unsharded child run with `--times` and a small `--trials` override
/// appended after the user's flags (later wins — for the probe only).
/// No `--out`, so the probe writes no artifacts, just the times file.
fn probe(
    args: &Args,
    bin: &std::path::Path,
    stem: &str,
    out: &std::path::Path,
    passthrough: &[String],
    quiet: bool,
) -> PathBuf {
    let trials: u64 = args.get_or_usage(USAGE, "probe-trials", 32u64);
    if trials == 0 {
        usage_exit(USAGE, "--probe-trials must be >= 1");
    }
    let times_path = out.join(format!("{stem}.times.jsonl"));
    if !quiet {
        eprintln!("note: fleet: probing per-point costs at {trials} trials/point");
    }
    let status = std::process::Command::new(bin)
        .args(passthrough)
        .args([
            "--quiet".to_string(),
            "--times".to_string(),
            times_path.display().to_string(),
            "--trials".to_string(),
            trials.to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .status()
        .unwrap_or_else(|e| fail(&format!("probe spawn {}: {e}", bin.display())));
    if !status.success() {
        fail(&format!("probe run failed ({status})"));
    }
    times_path
}
