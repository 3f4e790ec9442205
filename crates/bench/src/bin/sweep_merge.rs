//! `sweep-merge`: recombine sharded sweep artifacts, or verify one
//! artifact's internal consistency — the CI-facing companion of the
//! figure binaries' `--shard i/N` flag.
//!
//! Merge mode takes N shard `--out` directories *in shard order*
//! (`0/N` first) and puts their rows back into global point order,
//! after validating that the shards parse strictly, agree on seed and
//! spec fingerprint (via the `.meta.json` sidecars), and hold exactly
//! the indices they own: the stride rule without `--plan`, the plan's
//! owners with it. Because shard rows are the byte-for-byte rows the
//! full run would have produced, the merged CSV/JSONL (and sidecar) are
//! byte-identical to an unsharded run's — and the merged JSONL is a
//! valid `--resume` cache.
//!
//! Verify mode (`--verify`) checks a single artifact: strict row
//! parsing, row counts, a uniform seed column, byte-level CSV↔JSONL
//! agreement, and the same index-layout check as merge — replacing the
//! python one-liner CI used to carry.
//!
//! Every validation failure is a typed error printed to stderr with
//! exit code 2 (the same contract as bad flags).

use std::path::PathBuf;

use vlq_bench::{usage_exit, Args};
use vlq_sweep::{merge_artifacts, verify_artifact, MergeError, VerifyExpectations};

const USAGE: &str = "\
usage: sweep-merge --stem STEM --out DIR [--plan PATH] SHARD_DIR...
       sweep-merge --verify --stem STEM [--expect-rows N] [--expect-seed S]
                   [--expect-shots N] DIR
  --stem         artifact stem (fig11 reads/writes fig11.csv + fig11.jsonl)
  --out          directory for the merged artifacts (merge mode)
  --plan         shard-plan file the shards ran under (merge mode): each
                 shard must hold exactly its planned points. Without it,
                 shards hold the stride pattern (point g on shard g % N),
                 or, when their sidecars name a plan, any disjoint cover
                 of the grid
  --verify       check one artifact directory instead of merging (a
                 planned shard's indices need only ascend within the grid)
  --expect-rows  verify: require exactly N data rows
  --expect-seed  verify: require the uniform seed column to equal S
  --expect-shots verify: require every record to have run N shots
  Shard directories must be passed in shard order (0/N first). Any
  validation failure (malformed rows, seed or spec-fingerprint
  mismatch, index gaps) prints a typed error and exits 2.";

fn fail(e: &MergeError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

fn main() {
    let (args, dirs) = Args::parse_validated_positional(
        USAGE,
        &[
            "stem",
            "out",
            "plan",
            "expect-rows",
            "expect-seed",
            "expect-shots",
        ],
        &["verify"],
    );
    let Some(stem) = args.pairs_get("stem") else {
        usage_exit(USAGE, "--stem is required");
    };

    if args.has("verify") {
        let [dir] = &dirs[..] else {
            usage_exit(USAGE, "--verify takes exactly one artifact directory");
        };
        for merge_only in ["out", "plan"] {
            if args.pairs_get(merge_only).is_some() {
                usage_exit(USAGE, &format!("--{merge_only} is a merge-mode flag"));
            }
        }
        let expect = VerifyExpectations {
            rows: args
                .pairs_get("expect-rows")
                .map(|_| args.get_or_usage(USAGE, "expect-rows", 0usize)),
            seed: args
                .pairs_get("expect-seed")
                .map(|_| args.get_or_usage(USAGE, "expect-seed", 0u64)),
            shots: args
                .pairs_get("expect-shots")
                .map(|_| args.get_or_usage(USAGE, "expect-shots", 0u64)),
        };
        let dir = PathBuf::from(dir);
        match verify_artifact(&dir, &stem, &expect) {
            Ok(report) => {
                let seed = report.seed.map_or("(empty)".to_string(), |s| s.to_string());
                println!(
                    "verified {stem} in {}: {} rows, seed {seed}, CSV and JSONL agree",
                    dir.display(),
                    report.rows
                );
            }
            Err(e) => fail(&e),
        }
        return;
    }

    for verify_only in ["expect-rows", "expect-seed", "expect-shots"] {
        if args.pairs_get(verify_only).is_some() {
            usage_exit(USAGE, &format!("--{verify_only} requires --verify"));
        }
    }
    let Some(out) = args.pairs_get("out") else {
        usage_exit(USAGE, "merge mode requires --out");
    };
    if dirs.is_empty() {
        usage_exit(USAGE, "merge mode requires at least one shard directory");
    }
    let shard_dirs: Vec<PathBuf> = dirs.iter().map(PathBuf::from).collect();
    let out = PathBuf::from(out);
    let plan = args.pairs_get("plan").map(|path| {
        vlq_sweep::ShardPlan::load(std::path::Path::new(&path)).unwrap_or_else(|e| {
            eprintln!("error: --plan {path}: {e}");
            std::process::exit(2);
        })
    });
    match merge_artifacts(&shard_dirs, &stem, &out, plan.as_ref()) {
        Ok(report) => {
            let seed = report.seed.map_or("(none)".to_string(), |s| s.to_string());
            println!(
                "merged {} shard(s) of {stem} into {}: {} rows, seed {seed}{}",
                report.shards,
                out.display(),
                report.rows,
                if report.meta {
                    ", sidecar validated"
                } else {
                    ""
                }
            );
        }
        Err(e) => fail(&e),
    }
}
