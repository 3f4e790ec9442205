//! Multi-tenant contention sweeps: the standard tenant workload mix
//! (GHZ-3 / teleport / 1-bit adder slots) merged onto one two-stack
//! machine under each replacement policy, scanned across tenant count ×
//! policy × code distance × physical error rate.
//!
//! Two artifact families come out of one run:
//!
//! * the usual sweep CSV/JSONL (`tenants1.csv` / `tenants1.jsonl`):
//!   program-level logical error rates of the *merged* schedule,
//!   frame-replayed per grid point through
//!   `vlq_tenant::TenantSweepExecutor`;
//! * the contention report (`tenants1-report.csv` / `.jsonl`): one row
//!   per tenant per (setup, d, tenants, policy) cell with queueing
//!   delay, page traffic, refresh-deadline misses, and slowdown — built
//!   deterministically on the main thread, so it is byte-identical
//!   across `--workers` counts.
//!
//! With `--telemetry PATH`, per-tenant sidecars land next to the main
//! one at `PATH`-derived `-tenant<i>` names for the most contended cell.

use vlq::machine::MachineConfig;
use vlq::qec::DecoderKind;
use vlq::surface::schedule::{Basis, Setup};
use vlq::sweep::artifact::{Table, Value};
use vlq::sweep::{SweepPoint, SweepRecord, SweepSpec};
use vlq_bench::{
    decoder_from_args, distances_from_args, rates_from_args, sci, setups_from_args, usage_exit,
    Args, SweepCli,
};
use vlq_telemetry::Recorder;
use vlq_tenant::{
    machine_config_for_tenants, merge_standard_mix, tenant_program_name, MultiProgram, PolicyKind,
    TenantSweepExecutor,
};

const USAGE: &str = "\
usage: tenants1 [--trials N] [--tenants N1,N2,...] [--policies P1,P2,...|all]
                [--dmax D] [--k K] [--seed S] [--setup NAME|all]
                [--decoder mwpm|uf] [--rates P1,P2,...] [--workers N]
                [--out DIR] [--resume] [--shard I/N] [--plan PATH]
                [--times PATH] [--telemetry PATH] [--quiet]
  --tenants   concurrent-program counts to scan (default 2,3; each >= 1;
              slots cycle ghz3,teleport,adder1 with slot 0 the deadline
              tenant)
  --policies  replacement policies (default all =
              refresh-deadline,lru,deadline-priority)
  --setup     one of baseline|natural-aao|natural-int|compact-aao|compact-int|all
  --k         cavity depth (>= 3: two storage + one free mode per stack)
  --rates     comma-separated physical error rates, each in [0, 0.5]
              (default: 8e-4,2e-3,5e-3)
  --out       write tenants1.{csv,jsonl} sweep artifacts plus the
              tenants1-report.{csv,jsonl} per-tenant contention report
              into DIR
  --resume    skip grid points already present in DIR/tenants1.jsonl
              (needs --out)
  --shard     run only grid points with index % N == I and write only
              report rows with row index % N == I (sweep-merge restores
              both artifacts)
  --plan      explicit shard-plan file (from `sweep-launch --shard-by time`):
              this shard runs the grid points the plan assigns it instead of
              the stride rule (needs --shard; the tenants1-report table
              stays stride-sharded; seeds and bytes are unchanged)
  --times     record per-point wall times (nanos) to PATH in the
              vlq-sweep-times-v1 format the time-based planner calibrates from
  --telemetry  write a vlq-telemetry JSONL sidecar to PATH plus per-tenant
               sidecars (<PATH minus .jsonl>-tenant<i>.jsonl) for the most
               contended cell; all sidecars are byte-stable across --workers";

/// The machine a report cell merges onto (same shape the sweep executor
/// uses for its grid points).
fn cell_config(setup: Setup, d: usize, k: usize, decoder: DecoderKind) -> MachineConfig {
    let point = SweepPoint {
        setup,
        basis: Basis::Z,
        d,
        p: 0.0,
        k,
        rounds: None,
        decoder,
        shots: 0,
        knob: None,
        program: None,
    };
    machine_config_for_tenants(&point)
}

fn merged_or_exit(tenants: usize, policy: PolicyKind, config: MachineConfig) -> MultiProgram {
    merge_standard_mix(tenants, policy, config).unwrap_or_else(|e| {
        eprintln!("error: tenant mix failed to merge: {e}");
        std::process::exit(1);
    })
}

const REPORT_COLUMNS: [&str; 20] = [
    "setup",
    "d",
    "k",
    "tenants",
    "policy",
    "tenant",
    "name",
    "priority",
    "deadline",
    "queue_delay",
    "page_ins",
    "page_outs",
    "page_faults",
    "evictions",
    "deadline_misses",
    "refresh_skips",
    "instructions",
    "finish_t",
    "ideal_t",
    "slowdown_permille",
];

fn main() {
    let args = Args::parse_sweep(
        USAGE,
        &[
            "trials", "tenants", "policies", "dmax", "k", "seed", "setup", "decoder", "rates",
        ],
        &[],
    );
    let quick = std::env::var("VLQ_BENCH_QUICK").is_ok_and(|v| v == "1");
    let trials: u64 = args.get_or_usage(USAGE, "trials", if quick { 100 } else { 1000 });
    let distances = distances_from_args(&args, USAGE, &[3, 5, 7, 9], if quick { 3 } else { 5 });
    let k: usize = args.get_or_usage(USAGE, "k", 4);
    if k < 3 {
        usage_exit(
            USAGE,
            "--k must be >= 3 (two storage + one free mode per stack)",
        );
    }
    let seed: u64 = args.get_or_usage(USAGE, "seed", 2020);

    let tenants_arg = args.get_str("tenants", if quick { "2" } else { "2,3" });
    let tenant_counts: Vec<usize> = {
        let parsed: Option<Vec<usize>> = tenants_arg
            .split(',')
            .map(|t| t.trim().parse().ok().filter(|&n| n >= 1))
            .collect();
        match parsed {
            Some(v) if !v.is_empty() => v,
            _ => usage_exit(
                USAGE,
                &format!("invalid --tenants {tenants_arg:?}; expected comma-separated counts >= 1"),
            ),
        }
    };

    let policies_arg = args.get_str("policies", "all");
    let policies: Vec<PolicyKind> = if policies_arg == "all" {
        PolicyKind::ALL.to_vec()
    } else {
        let parsed: Option<Vec<PolicyKind>> = policies_arg
            .split(',')
            .map(|t| PolicyKind::parse(t.trim()))
            .collect();
        match parsed {
            Some(v) if !v.is_empty() => v,
            _ => usage_exit(
                USAGE,
                &format!(
                    "invalid --policies {policies_arg:?}; accepted: {}|all",
                    PolicyKind::ALL.map(|p| p.name()).join(",")
                ),
            ),
        }
    };

    let decoder = decoder_from_args(&args, USAGE, DecoderKind::UnionFind);
    let setups = setups_from_args(&args, USAGE, &[Setup::CompactInterleaved]);
    let rates = rates_from_args(&args, USAGE, &[8e-4, 2e-3, 5e-3]);

    let programs: Vec<String> = tenant_counts
        .iter()
        .flat_map(|&n| policies.iter().map(move |&p| tenant_program_name(n, p)))
        .collect();
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

    let mut cli = SweepCli::new(&args, USAGE, "tenants1", seed);

    // The contention report does not depend on the error rate or the
    // Monte-Carlo trials: the merge is a pure function of the machine
    // shape, tenant count, and policy. Build every cell once on the
    // main thread (deterministic, worker-independent), keeping the
    // merged programs around for the human summary and the per-tenant
    // telemetry sidecars.
    let mut report = Table::new(REPORT_COLUMNS);
    let mut cells: Vec<(Setup, usize, usize, PolicyKind, MultiProgram)> = Vec::new();
    for &setup in &setups {
        for &d in &distances {
            for &n in &tenant_counts {
                for &policy in &policies {
                    let config = cell_config(setup, d, k, decoder);
                    let multi = merged_or_exit(n, policy, config);
                    for (i, t) in multi.tenants.iter().enumerate() {
                        report.row([
                            setup.to_string().into(),
                            d.into(),
                            k.into(),
                            n.into(),
                            policy.name().into(),
                            i.into(),
                            t.name.clone().into(),
                            u64::from(t.priority).into(),
                            t.deadline.map_or(Value::Null, Into::into),
                            t.queue_delay.into(),
                            t.page_ins.into(),
                            t.page_outs.into(),
                            t.page_faults.into(),
                            t.evictions.into(),
                            t.deadline_misses.into(),
                            t.refresh_skips.into(),
                            t.instructions.into(),
                            t.finish_t.into(),
                            t.ideal_t.into(),
                            t.slowdown_permille().into(),
                        ]);
                    }
                    cells.push((setup, d, n, policy, multi));
                }
            }
        }
    }
    if let Some(dir) = &cli.out {
        report
            .shard(cli.shard)
            .write_dir(dir, "tenants1-report")
            .unwrap_or_else(|e| {
                eprintln!("error: write tenants1-report artifacts: {e}");
                std::process::exit(1);
            });
    }

    let records = cli
        .run(std::slice::from_ref(&spec), &TenantSweepExecutor::default())
        .remove(0);
    cli.finish_telemetry("tenants1");

    // Per-tenant sidecars for the most contended cell (max tenant
    // count, first policy, first setup, smallest distance): one
    // recorder per tenant, tenant.* contention counters plus the
    // cost.* replay of that tenant's standalone sub-schedule.
    if let Some(path) = &cli.telemetry {
        let n = *tenant_counts.iter().max().expect("nonempty tenant counts");
        let multi = merged_or_exit(
            n,
            policies[0],
            cell_config(setups[0], distances[0], k, decoder),
        );
        let base = path.to_string_lossy();
        let base = base.strip_suffix(".jsonl").unwrap_or(&base).to_string();
        for (i, t) in multi.tenants.iter().enumerate() {
            let tenant_recorder = Recorder::attached();
            t.record_full(&tenant_recorder).unwrap_or_else(|e| {
                eprintln!("error: tenant {i} sub-schedule replay failed: {e}");
                std::process::exit(1);
            });
            let tenant_path = format!("{base}-tenant{i}.jsonl");
            std::fs::write(
                &tenant_path,
                tenant_recorder.deterministic_jsonl("tenants1", seed),
            )
            .unwrap_or_else(|e| {
                eprintln!("error: write {tenant_path}: {e}");
                std::process::exit(1);
            });
            eprintln!("note: tenant {i} telemetry sidecar written to {tenant_path}");
        }
    }

    println!(
        "tenants1: multi-tenant contention + merged-program error rates \
         ({trials} trials/point, decoder {decoder}, k={k}, {} points)",
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

    for &setup in &setups {
        for &d in &distances {
            println!("\n-- contention on {setup}, d={d} (t0 = deadline tenant) --");
            println!(
                "{:>24} {:>10} {:>8} {:>8} {:>8} {:>9} {:>9}",
                "cell", "t0 queue", "t0 miss", "faults", "evicts", "slowdown", "fairness"
            );
            for (s, cd, n, policy, multi) in &cells {
                if *s != setup || *cd != d {
                    continue;
                }
                let t0 = &multi.tenants[0];
                let faults: u64 = multi.tenants.iter().map(|t| t.page_faults).sum();
                let evictions: u64 = multi.tenants.iter().map(|t| t.evictions).sum();
                println!(
                    "{:>24} {:>10} {:>8} {:>8} {:>8} {:>9} {:>9}",
                    tenant_program_name(*n, *policy),
                    t0.queue_delay,
                    t0.deadline_misses,
                    faults,
                    evictions,
                    t0.slowdown_permille(),
                    multi.fairness_permille()
                );
            }
        }
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
