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

use vlq_bench::{
    engine_from_args, finish_telemetry, plan_from_args, resume_cache_from_args, resumed_points,
    sci, shard_from_args, telemetry_from_args, usage_exit, Args, MetaBuilder, OutSinks,
};
use vlq_qec::{sensitivity_spec, DecoderKind, Knob, MemoryExecutor};
use vlq_surface::schedule::Setup;
use vlq_sweep::{RunOptions, SweepRecord};

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
    let args = Args::parse_validated(
        USAGE,
        &[
            "panel",
            "trials",
            "dmax",
            "seed",
            "workers",
            "out",
            "shard",
            "plan",
            "times",
            "telemetry",
        ],
        &["extended", "quiet", "resume"],
    );
    let trials: u64 = args.get_or_usage(USAGE, "trials", 10_000);
    let dmax: usize = args.get_or_usage(USAGE, "dmax", 5);
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

    let distances: Vec<usize> = [3usize, 5, 7, 9, 11]
        .into_iter()
        .filter(|&d| d <= dmax)
        .collect();
    if distances.is_empty() {
        usage_exit(USAGE, &format!("--dmax {dmax} leaves no distances to scan"));
    }

    let (recorder, telemetry_path) = telemetry_from_args(&args);
    let engine = engine_from_args(&args, USAGE).with_recorder(recorder.clone());
    let executor = MemoryExecutor::default();
    let shard = shard_from_args(&args, USAGE);
    let plan = plan_from_args(&args, USAGE, shard);
    // Read the previous artifact (if resuming) before the sinks
    // truncate it.
    let cache = resume_cache_from_args(&args, USAGE, "fig12", seed);
    let mut out = OutSinks::from_args(&args, "fig12");
    let mut meta = MetaBuilder::new(seed, shard).with_plan(plan.as_ref());

    println!(
        "Figure 12: Compact-Interleaved sensitivity at operating point p=2e-3 ({trials} trials/point)"
    );
    // Points are numbered globally across panels (each panel's spec
    // starts at the running offset), so `--shard`/`sweep-merge` see one
    // consistent index space in the shared artifact.
    let mut index_offset = 0usize;
    for knob in knobs {
        let values = values_for(knob, extended);
        println!(
            "\n-- panel: {knob} (reference value {}) --",
            sci(knob.reference_value())
        );
        let spec = sensitivity_spec(
            Setup::CompactInterleaved,
            knob,
            &values,
            &distances,
            trials,
            seed,
            DecoderKind::Mwpm,
        );
        let opts = RunOptions {
            shard,
            index_offset,
            plan: plan.clone(),
        };
        index_offset += spec.len();
        meta.absorb(&spec);
        let owned = (0..spec.len())
            .filter(|i| opts.owns(opts.index_offset + i))
            .count();
        let skipped = resumed_points(&spec, &cache, &opts);
        if skipped > 0 {
            eprintln!("note: resume: {skipped}/{owned} points already complete");
        }
        let records = engine
            .run_opts(&spec, &executor, &mut out.as_dyn(), &cache, &opts)
            .expect("sweep artifacts");
        if !shard.is_full() {
            println!(
                "shard {shard}: {} of {} panel points (tables are printed by full \
                 runs or after sweep-merge)",
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
        for &v in &values {
            print!("{:>12}", sci(v));
            for &d in &distances {
                print!("{:>12}", sci(find(d, v).rate()));
            }
            println!();
        }
    }
    finish_telemetry(&recorder, telemetry_path.as_deref(), "fig12", seed);
    out.write_meta(&meta.build());
    out.announce();
}
