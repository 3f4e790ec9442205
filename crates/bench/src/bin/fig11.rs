//! Regenerates Figure 11: error-threshold curves for the baseline and
//! the four 2.5D variants.
//!
//! The whole scan — every requested setup × decoder × distance × error
//! rate — expands into ONE `SweepSpec` and runs on the `vlq-sweep`
//! work-stealing engine, so parallelism spans configs × shots. With
//! `--out <dir>` the records additionally stream to `fig11.csv` and
//! `fig11.jsonl`; the printed tables are derived from the same records,
//! so the artifacts always match the text output.
//!
//! The paper runs 2,000,000 trials per point over d in {3..11}; defaults
//! here are laptop-scale (see EXPERIMENTS.md for the recorded runs).

use vlq_bench::{
    distances_from_args, rates_from_args, sci, setups_from_args, usage_exit, Args, SweepCli,
};
use vlq_qec::{estimate_threshold, DecoderKind, MemoryExecutor, ThresholdScan};
use vlq_surface::schedule::{Basis, Setup};
use vlq_sweep::SweepSpec;

const USAGE: &str = "\
usage: fig11 [--trials N] [--dmax D] [--k K] [--seed S]
             [--decoder mwpm|uf|all] [--setup NAME|all] [--basis z|x]
             [--rates P1,P2,...] [--workers N] [--out DIR] [--resume]
             [--shard I/N] [--plan PATH] [--times PATH] [--telemetry PATH]
             [--quiet]
  --decoder  decoder(s) to scan (default mwpm; `all` runs the ablation)
  --setup    one of baseline|natural-aao|natural-int|compact-aao|compact-int|all
  --rates    comma-separated physical error rates, each in [0, 0.5]
             (default: 8 rates, 8e-4..1.6e-2)
  --out      write fig11.csv and fig11.jsonl sweep artifacts into DIR
  --resume   skip grid points already present in DIR/fig11.jsonl (needs --out;
             deterministic seeding keeps resumed artifacts byte-identical)
  --shard    run only grid points with index % N == I (same global numbering
             and seeds as the full run; `sweep-merge` restores full artifacts)
  --plan     explicit shard-plan file (from `sweep-launch --shard-by time`):
             this shard runs the grid points the plan assigns it instead of
             the stride rule (needs --shard; seeds and bytes are unchanged)
  --times    record per-point wall times (nanos) to PATH in the
             vlq-sweep-times-v1 format the time-based planner calibrates from
  --telemetry  write a vlq-telemetry JSONL sidecar to PATH and print a runtime
               summary to stderr (sidecar is byte-stable across --workers)";

fn main() {
    let args = Args::parse_sweep(
        USAGE,
        &[
            "trials", "dmax", "k", "seed", "decoder", "setup", "basis", "rates",
        ],
        &[],
    );
    let trials: u64 = args.get_or_usage(USAGE, "trials", 20_000);
    let distances = distances_from_args(&args, USAGE, &[3, 5, 7, 9, 11], 7);
    let k: usize = args.get_or_usage(USAGE, "k", 10);
    let seed: u64 = args.get_or_usage(USAGE, "seed", 2020);

    let decoder_arg = args.get_str("decoder", "mwpm");
    let decoders: Vec<DecoderKind> = if decoder_arg == "all" {
        DecoderKind::ALL.to_vec()
    } else {
        match DecoderKind::parse(&decoder_arg) {
            Some(d) => vec![d],
            None => usage_exit(
                USAGE,
                &format!(
                    "unknown --decoder {decoder_arg:?}; accepted: \
                     mwpm|blossom|matching, uf|unionfind|union-find, all"
                ),
            ),
        }
    };

    let basis = match args.get_str("basis", "z").as_str() {
        "z" => Basis::Z,
        "x" => Basis::X,
        other => usage_exit(USAGE, &format!("unknown --basis {other:?}; accepted: z|x")),
    };

    let setups = setups_from_args(&args, USAGE, &Setup::ALL);
    // Wide default sweep: the baseline crosses near 1e-2; under this
    // model's conservative memory-serialization timing the 2.5D setups
    // cross lower (1e-3 to 7e-3), so the sweep covers both decades.
    let rates = rates_from_args(
        &args,
        USAGE,
        &[8e-4, 1.2e-3, 2e-3, 3e-3, 5e-3, 8e-3, 1.2e-2, 1.6e-2],
    );

    let spec = SweepSpec::new()
        .setups(setups.iter().copied())
        .bases([basis])
        .distances(distances.iter().copied())
        .ks([k])
        .decoders(decoders.iter().copied())
        .error_rates(rates.iter().copied())
        .shots(trials)
        .base_seed(seed);

    let mut cli = SweepCli::new(&args, USAGE, "fig11", seed);
    let records = cli
        .run(std::slice::from_ref(&spec), &MemoryExecutor::default())
        .remove(0);
    cli.finish_telemetry("fig11");

    println!(
        "Figure 11: thresholds ({} trials/point, decoder {}, basis {:?}, k={k}, {} points)",
        trials,
        decoder_arg,
        basis,
        records.len()
    );
    if !cli.shard.is_full() {
        // A shard holds a strided subset of every threshold curve;
        // printed tables only make sense on the merged artifact.
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
    for setup in &setups {
        for decoder in &decoders {
            let scan = ThresholdScan::from_records(
                *setup, basis, k, *decoder, &distances, &rates, &records,
            );
            println!("\n-- {setup} ({decoder}) --");
            print!("{:>8}", "p \\ d");
            for &d in &distances {
                print!("{d:>12}");
            }
            println!();
            for (pi, &p) in rates.iter().enumerate() {
                print!("{:>8}", sci(p));
                for &d in &distances {
                    let rate = scan.curve(d)[pi];
                    print!("{:>12}", sci(rate));
                }
                println!();
            }
            match estimate_threshold(&scan) {
                Some(th) => {
                    let paper = match setup {
                        Setup::Baseline | Setup::NaturalAllAtOnce => 0.009,
                        _ => 0.008,
                    };
                    println!("threshold ~ {} (paper: {paper})", sci(th));
                }
                None => println!("threshold: no crossing in scanned range"),
            }
        }
    }
    cli.announce();
}
