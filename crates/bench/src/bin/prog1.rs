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
use vlq::sweep::{SweepRecord, SweepSpec};
use vlq_bench::{
    decoder_from_args, distances_from_args, rates_from_args, sci, setups_from_args, usage_exit,
    Args, SweepCli,
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
    let args = Args::parse_sweep(
        USAGE,
        &[
            "trials", "dmax", "k", "seed", "programs", "setup", "decoder", "boundary", "rates",
        ],
        &[],
    );
    let quick = std::env::var("VLQ_BENCH_QUICK").is_ok_and(|v| v == "1");
    let trials: u64 = args.get_or_usage(USAGE, "trials", if quick { 200 } else { 2000 });
    let distances = distances_from_args(&args, USAGE, &[3, 5, 7, 9], if quick { 3 } else { 5 });
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

    let decoder = decoder_from_args(&args, USAGE, DecoderKind::UnionFind);

    let boundary_arg = args.get_str("boundary", "mid-circuit");
    let boundary = Boundary::parse(&boundary_arg).unwrap_or_else(|| {
        usage_exit(
            USAGE,
            &format!(
                "unknown --boundary {boundary_arg:?}; accepted: mid-circuit|full|prep|readout"
            ),
        )
    });

    let setups = setups_from_args(&args, USAGE, &[Setup::CompactInterleaved]);
    let rates = rates_from_args(&args, USAGE, &[8e-4, 2e-3, 5e-3]);

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
    let mut cli = SweepCli::new(&args, USAGE, &stem, seed);
    let records = cli
        .run(
            std::slice::from_ref(&spec),
            &ProgramSweepExecutor::new(boundary),
        )
        .remove(0);
    cli.finish_telemetry("prog1");

    println!(
        "prog1: program-level logical error rates ({trials} trials/point, decoder {decoder}, \
         boundary {boundary}, k={k}, {} points)",
        records.len()
    );
    if !cli.shard.is_full() {
        println!(
            "shard {}: {} of {} grid points (tables are printed by full runs \
             or after sweep-merge)",
            cli.shard,
            records.len(),
            spec.len()
        );
        cli.announce();
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
    cli.announce();
}
