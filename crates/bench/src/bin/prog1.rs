//! Program-level error-rate sweeps: GHZ / teleport / adder workloads
//! scanned across code distance × physical error rate on the
//! `vlq-sweep` work-stealing engine (the ROADMAP's `prog1` surface).
//!
//! Each grid point compiles the named logical program onto a machine at
//! the point's `(setup, d, k)`, then frame-replays the schedule through
//! `vlq::exec::ProgramSweepExecutor`: every instruction samples a
//! boundary-aware syndrome block sized to its actual round span. Under
//! `--boundary mid-circuit`, the quantitative default, only a program's
//! genuine ends charge prep/readout noise; the uniform modes give every
//! block their one boundary (`--boundary full`: a whole memory
//! experiment per exposure) — see `docs/executors.md`.
//!
//! Flags mirror the other figure binaries: `--out` writes CSV/JSONL
//! artifacts, `--resume` reuses completed points, `--shard I/N` splits
//! the grid across machines for `sweep-merge` recombination.

use vlq::exec::{program_by_name, ProgramSweepExecutor};
use vlq::qec::DecoderKind;
use vlq::surface::schedule::{Basis, Boundary, Setup};
use vlq::sweep::{RunOptions, SweepRecord, SweepSpec};
use vlq_bench::{
    engine_from_args, finish_telemetry, parse_rates, plan_from_args, resume_cache_from_args,
    resumed_points, sci, shard_from_args, telemetry_from_args, usage_exit, Args, MetaBuilder,
    OutSinks,
};

const USAGE: &str = "\
usage: prog1 [--trials N] [--dmax D] [--k K] [--seed S]
             [--programs P1,P2,...] [--setup NAME|all] [--decoder mwpm|uf]
             [--boundary mid-circuit|full|prep|readout] [--rates P1,P2,...]
             [--workers N] [--out DIR] [--resume] [--shard I/N]
             [--plan PATH] [--times PATH] [--telemetry PATH] [--quiet]
  --programs  registered workloads (default ghz4,teleport,adder2;
              ghz<N>/adder<N> accept any width)
  --setup     one of baseline|natural-aao|natural-int|compact-aao|compact-int|all
  --k         cavity depth (>= 2: one storage + one free mode per stack)
  --boundary  syndrome-block boundary model (default mid-circuit: interior
              blocks are boundary-light, program ends charge real
              prep/readout noise; full/prep/readout give every exposure's
              block that boundary, full = a memory experiment per exposure)
  --rates     comma-separated physical error rates, each in [0, 0.5]
              (default: 8e-4,2e-3,5e-3)
  --out       write <stem>.csv and <stem>.jsonl sweep artifacts into DIR
              (stem: prog1 for the default boundary, prog1-<boundary>
              otherwise, so different boundary models never mix)
  --resume    skip grid points already present in DIR/<stem>.jsonl (needs --out)
  --shard     run only grid points with index % N == I (same global numbering
              and seeds as the full run; `sweep-merge` restores full artifacts)
  --plan      explicit shard-plan file (from `sweep-launch --shard-by time`):
              this shard runs the grid points the plan assigns it instead of
              the stride rule (needs --shard; seeds and bytes are unchanged)
  --times     record per-point wall times (nanos) to PATH in the
              vlq-sweep-times-v1 format the time-based planner calibrates from
  --telemetry  write a vlq-telemetry JSONL sidecar to PATH and print a runtime
               summary to stderr (sidecar is byte-stable across --workers)";

fn main() {
    let args = Args::parse_validated(
        USAGE,
        &[
            "trials",
            "dmax",
            "k",
            "seed",
            "programs",
            "setup",
            "decoder",
            "boundary",
            "rates",
            "workers",
            "out",
            "shard",
            "plan",
            "times",
            "telemetry",
        ],
        &["quiet", "resume"],
    );
    let quick = std::env::var("VLQ_BENCH_QUICK").is_ok_and(|v| v == "1");
    let trials: u64 = args.get_or_usage(USAGE, "trials", if quick { 200 } else { 2000 });
    let dmax: usize = args.get_or_usage(USAGE, "dmax", if quick { 3 } else { 5 });
    let k: usize = args.get_or_usage(USAGE, "k", 4);
    if k < 2 {
        usage_exit(
            USAGE,
            "--k must be >= 2 (one storage + one free mode per stack)",
        );
    }
    let seed: u64 = args.get_or_usage(USAGE, "seed", 2020);

    let programs: Vec<String> = args
        .get_str("programs", "ghz4,teleport,adder2")
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if programs.is_empty() {
        usage_exit(USAGE, "--programs names no workloads");
    }
    for name in &programs {
        if program_by_name(name).is_none() {
            usage_exit(
                USAGE,
                &format!(
                    "unknown program {name:?}; registered: ghz<N>, adder<N>, teleport (N >= 2/1)"
                ),
            );
        }
    }

    let decoder_arg = args.get_str("decoder", "uf");
    let decoder = DecoderKind::parse(&decoder_arg).unwrap_or_else(|| {
        usage_exit(
            USAGE,
            &format!(
                "unknown --decoder {decoder_arg:?}; accepted: \
                 mwpm|blossom|matching, uf|unionfind|union-find"
            ),
        )
    });

    let boundary_arg = args.get_str("boundary", "mid-circuit");
    let boundary = Boundary::parse(&boundary_arg).unwrap_or_else(|| {
        usage_exit(
            USAGE,
            &format!(
                "unknown --boundary {boundary_arg:?}; accepted: mid-circuit|full|prep|readout"
            ),
        )
    });

    let setup_arg = args.get_str("setup", "compact-int");
    let setups: Vec<Setup> = if setup_arg == "all" {
        Setup::ALL.to_vec()
    } else {
        match Setup::ALL.into_iter().find(|s| s.to_string() == setup_arg) {
            Some(s) => vec![s],
            None => usage_exit(
                USAGE,
                &format!(
                    "unknown --setup {setup_arg:?}; accepted: {}|all",
                    Setup::ALL.map(|s| s.to_string()).join("|")
                ),
            ),
        }
    };

    let distances: Vec<usize> = [3usize, 5, 7, 9]
        .into_iter()
        .filter(|&d| d <= dmax)
        .collect();
    if distances.is_empty() {
        usage_exit(USAGE, &format!("--dmax {dmax} leaves no distances to scan"));
    }
    let rates: Vec<f64> = match args.pairs_get("rates") {
        None => vec![8e-4, 2e-3, 5e-3],
        Some(s) => {
            parse_rates(&s).unwrap_or_else(|| usage_exit(USAGE, &format!("invalid --rates {s:?}")))
        }
    };

    let spec = SweepSpec::new()
        .programs(programs.iter().cloned())
        .setups(setups.iter().copied())
        .bases([Basis::Z])
        .distances(distances.iter().copied())
        .ks([k])
        .decoders([decoder])
        .error_rates(rates.iter().copied())
        .shots(trials)
        .base_seed(seed);

    let (recorder, telemetry_path) = telemetry_from_args(&args);
    let engine = engine_from_args(&args, USAGE).with_recorder(recorder.clone());
    let shard = shard_from_args(&args, USAGE);
    let plan = plan_from_args(&args, USAGE, shard);
    let opts = RunOptions {
        shard,
        index_offset: 0,
        plan,
    };
    // The boundary model changes every sampled value but is not a grid
    // coordinate (not in SweepPoint, so not in the seed/fingerprint
    // identity). Tag it into the artifact stem instead, so a --resume
    // or sweep-merge can never silently splice records sampled under
    // different boundary models: mid-circuit (the default) keeps the
    // plain `prog1` stem, every other model gets `prog1-<boundary>`.
    let stem = if boundary == Boundary::MidCircuit {
        "prog1".to_string()
    } else {
        format!("prog1-{boundary}")
    };
    // Read the previous artifact (if resuming) before the sinks
    // truncate it.
    let cache = resume_cache_from_args(&args, USAGE, &stem, seed);
    let skipped = resumed_points(&spec, &cache, &opts);
    if skipped > 0 {
        let owned = (0..spec.len()).filter(|&i| opts.owns(i)).count();
        eprintln!("note: resume: {skipped}/{owned} points already complete");
    }
    let mut out = OutSinks::from_args(&args, &stem);
    let mut meta = MetaBuilder::new(seed, shard).with_plan(opts.plan.as_ref());
    meta.absorb(&spec);
    out.write_meta(&meta.build());
    let executor = ProgramSweepExecutor::new(boundary);
    let records = engine
        .run_opts(&spec, &executor, &mut out.as_dyn(), &cache, &opts)
        .expect("sweep artifacts");
    finish_telemetry(&recorder, telemetry_path.as_deref(), "prog1", seed);

    println!(
        "prog1: program-level logical error rates ({trials} trials/point, decoder {decoder}, \
         boundary {boundary}, k={k}, {} points)",
        records.len()
    );
    if !shard.is_full() {
        println!(
            "shard {shard}: {} of {} grid points (tables are printed by full runs \
             or after sweep-merge)",
            records.len(),
            spec.len()
        );
        out.announce();
        return;
    }
    let rate_of = |program: &str, setup: Setup, d: usize, p: f64| -> f64 {
        records
            .iter()
            .find(|r: &&SweepRecord| {
                r.point.program.as_deref() == Some(program)
                    && r.point.setup == setup
                    && r.point.d == d
                    && r.point.p == p
            })
            .map_or(f64::NAN, SweepRecord::rate)
    };
    for program in &programs {
        for &setup in &setups {
            println!("\n-- {program} on {setup} --");
            print!("{:>8}", "p \\ d");
            for &d in &distances {
                print!("{d:>12}");
            }
            println!();
            for &p in &rates {
                print!("{:>8}", sci(p));
                for &d in &distances {
                    print!("{:>12}", sci(rate_of(program, setup, d, p)));
                }
                println!();
            }
        }
    }
    out.announce();
}
