//! Regenerates Figure 12: sensitivity of the Compact, Interleaved logical
//! error rate to each error source at the p = 2e-3 operating point.
//!
//! Each panel expands into a `SweepSpec` (knob axis) and runs on the
//! `vlq-sweep` work-stealing engine. With `--out <dir>` all panels'
//! records stream into `fig12.csv` / `fig12.jsonl` (the `knob` and
//! `knob_value` columns identify the panel).
//!
//! Panels: sc-sc-error, load-store-error, sc-mode-error, cavity-t1,
//! transmon-t1, load-store-duration, cavity-size.

use vlq_bench::{distances_from_args, sci, usage_exit, Args, SweepCli};
use vlq_qec::{sensitivity_spec, DecoderKind, Knob, MemoryExecutor};
use vlq_surface::schedule::Setup;
use vlq_sweep::SweepRecord;

const USAGE: &str = "\
usage: fig12 [--panel NAME|all] [--trials N] [--dmax D] [--seed S]
             [--extended] [--workers N] [--out DIR] [--resume]
             [--shard I/N] [--plan PATH] [--times PATH] [--telemetry PATH]
             [--quiet]
  --panel    one of sc-sc-error|load-store-error|sc-mode-error|cavity-t1|
             transmon-t1|load-store-duration|cavity-size|all
  --extended push the cavity-size panel past the paper's plotted range
  --out      write fig12.csv and fig12.jsonl sweep artifacts into DIR
  --resume   skip panel points already present in DIR/fig12.jsonl (needs --out;
             deterministic seeding keeps resumed artifacts byte-identical)
  --shard    run only points with global index % N == I (points are numbered
             across all panels; `sweep-merge` restores full artifacts)
  --plan     explicit shard-plan file (from `sweep-launch --shard-by time`):
             this shard runs the points the plan assigns it (needs --shard)
  --times    record per-point wall times (nanos) to PATH in the
             vlq-sweep-times-v1 format the time-based planner calibrates from
  --telemetry  write a vlq-telemetry JSONL sidecar to PATH and print a runtime
               summary to stderr (sidecar is byte-stable across --workers)";

fn values_for(knob: Knob, extended: bool) -> Vec<f64> {
    match knob {
        Knob::ScScError | Knob::LoadStoreError | Knob::ScModeError => {
            vec![1e-5, 1e-4, 1e-3, 2e-3, 5e-3, 1e-2]
        }
        Knob::CavityT1 => vec![1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
        Knob::TransmonT1 => vec![1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
        Knob::LoadStoreDuration => vec![1e-7, 1e-6, 1e-5, 1e-4],
        Knob::CavitySize => {
            if extended {
                // C3: push past the paper's plotted range to find where
                // cavity decoherence starts dominating (paper: k ~ 150).
                vec![5.0, 10.0, 20.0, 30.0, 60.0, 100.0, 150.0, 250.0]
            } else {
                vec![5.0, 10.0, 20.0, 30.0]
            }
        }
    }
}

fn main() {
    let args = Args::parse_sweep(USAGE, &["panel", "trials", "dmax", "seed"], &["extended"]);
    let trials: u64 = args.get_or_usage(USAGE, "trials", 10_000);
    let distances = distances_from_args(&args, USAGE, &[3, 5, 7, 9, 11], 5);
    let seed: u64 = args.get_or_usage(USAGE, "seed", 2020);
    let extended = args.has("extended");

    let panel_arg = args.get_str("panel", "all");
    let knobs: Vec<Knob> = if panel_arg == "all" {
        Knob::ALL.to_vec()
    } else {
        match Knob::parse(&panel_arg) {
            Some(k) => vec![k],
            None => usage_exit(
                USAGE,
                &format!(
                    "unknown --panel {panel_arg:?}; accepted: {}|all",
                    Knob::ALL.map(|k| k.name()).join("|")
                ),
            ),
        }
    };

    // One spec per panel, all streamed into one artifact.
    let values: Vec<Vec<f64>> = knobs.iter().map(|&k| values_for(k, extended)).collect();
    let specs: Vec<_> = knobs
        .iter()
        .zip(&values)
        .map(|(&knob, values)| {
            sensitivity_spec(
                Setup::CompactInterleaved,
                knob,
                values,
                &distances,
                trials,
                seed,
                DecoderKind::Mwpm,
            )
        })
        .collect();
    let mut cli = SweepCli::new(&args, USAGE, "fig12", seed);
    let panels = cli.run(&specs, &MemoryExecutor::default());

    println!(
        "Figure 12: Compact-Interleaved sensitivity at operating point p=2e-3 ({trials} trials/point)"
    );
    for (((knob, values), spec), records) in knobs.iter().zip(&values).zip(&specs).zip(&panels) {
        println!(
            "\n-- panel: {knob} (reference value {}) --",
            sci(knob.reference_value())
        );
        if !cli.shard.is_full() {
            println!(
                "shard {}: {} of {} panel points (tables are printed by full \
                 runs or after sweep-merge)",
                cli.shard,
                records.len(),
                spec.len()
            );
            continue;
        }

        let find = |d: usize, v: f64| -> &SweepRecord {
            records
                .iter()
                .find(|r| r.point.d == d && r.point.knob.as_ref().is_some_and(|kn| kn.value == v))
                .expect("point")
        };
        print!("{:>12}", "value \\ d");
        for &d in &distances {
            print!("{d:>12}");
        }
        println!();
        for &v in values {
            print!("{:>12}", sci(v));
            for &d in &distances {
                print!("{:>12}", sci(find(d, v).rate()));
            }
            println!();
        }
    }
    cli.finish_telemetry("fig12");
    cli.announce();
}
