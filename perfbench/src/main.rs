//! Cold-process worker of the fig11/prog1 benchmark.
//!
//! One invocation runs one workload's sweep once, through the same
//! `SweepSpec`, executor, engine and CSV/JSONL sinks its figure binary
//! uses, on one engine worker with no sample pool. It checks what it
//! wrote and prints one JSON line of measurements. `run.py`, next to
//! this package, starts one worker per repetition and reduces them.
//!
//! ```text
//! perfbench-worker --workload fig11-mwpm|fig11-uf|prog1-uf --seed N --out DIR [--trace]
//! ```
//!
//! With `--trace` the sweep runs through the traced executors instead,
//! which add per-layer spans and counts to the line (see `trace.rs`).

mod exec;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use vlq::exec::ProgramSweepExecutor;
use vlq::qec::{DecoderKind, MemoryExecutor, Parallelism};
use vlq::surface::schedule::{Basis, Boundary, Setup};
use vlq::sweep::merge::load_record_artifact;
use vlq::sweep::{
    combine_fingerprints, verify_artifact, CsvSink, JsonlSink, RecordSink, ShardSpec, SweepEngine,
    SweepExecutor, SweepMeta, SweepRecord, SweepSpec, VerifyExpectations,
};
use vlq_telemetry::{Metric, Recorder};

use exec::{Counts, FailedPoints, Kept, Timed, TracedMemory, TracedProgram};
use trace::Tracer;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Workload {
    Fig11Mwpm,
    Fig11Uf,
    Prog1Uf,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Fig11Mwpm, Workload::Fig11Uf, Workload::Prog1Uf];

    fn name(self) -> &'static str {
        match self {
            Workload::Fig11Mwpm => "fig11-mwpm",
            Workload::Fig11Uf => "fig11-uf",
            Workload::Prog1Uf => "prog1-uf",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Shots per grid point, sized so that one sweep takes a few
    /// seconds on one core and a run holds several sweeps. fig11-uf
    /// runs 64x the shots of fig11-mwpm because union-find decodes a
    /// shot about that much faster.
    fn shots(self) -> u64 {
        match self {
            Workload::Fig11Mwpm => 1024,
            Workload::Fig11Uf => 65_536,
            Workload::Prog1Uf => 4096,
        }
    }

    /// The artifact stem the figure binary writes.
    fn stem(self) -> &'static str {
        match self {
            Workload::Prog1Uf => "prog1",
            _ => "fig11",
        }
    }

    /// The grid, built exactly as `fig11`/`prog1` build it from
    /// [`Workload::cli`]'s flags.
    fn spec(self, seed: u64) -> SweepSpec {
        let spec = match self {
            Workload::Fig11Mwpm | Workload::Fig11Uf => SweepSpec::new()
                .setups([Setup::Baseline])
                .bases([Basis::Z])
                .distances([3, 5, 7])
                .ks([10])
                .decoders([if self == Workload::Fig11Mwpm {
                    DecoderKind::Mwpm
                } else {
                    DecoderKind::UnionFind
                }])
                .error_rates([2e-3, 5e-3, 8e-3]),
            // prog1's defaults, but d=3 only: its d=5 points spend about
            // 20 s per sweep building block graphs, which leaves no room
            // for repeated cold sweeps in one run.
            Workload::Prog1Uf => SweepSpec::new()
                .programs(["ghz4", "teleport", "adder2"])
                .setups([Setup::CompactInterleaved])
                .bases([Basis::Z])
                .distances([3])
                .ks([4])
                .decoders([DecoderKind::UnionFind])
                .error_rates([8e-4, 2e-3, 5e-3]),
        };
        spec.shots(self.shots()).base_seed(seed)
    }

    /// The figure-binary invocation whose `--out` artifacts this
    /// workload reproduces byte for byte (append `--out DIR`).
    fn cli(self, seed: u64) -> Vec<String> {
        let mut args: Vec<&str> = match self {
            Workload::Fig11Mwpm | Workload::Fig11Uf => vec![
                "fig11",
                "--setup",
                "baseline",
                "--dmax",
                "7",
                "--rates",
                "2e-3,5e-3,8e-3",
            ],
            Workload::Prog1Uf => vec!["prog1", "--dmax", "3"],
        };
        if self == Workload::Fig11Uf {
            args.extend(["--decoder", "uf"]);
        }
        let shots = self.shots().to_string();
        let seed = seed.to_string();
        args.extend([
            "--trials",
            &shots,
            "--seed",
            &seed,
            "--workers",
            "1",
            "--quiet",
        ]);
        args.into_iter().map(String::from).collect()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    out: PathBuf,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench-worker --workload fig11-mwpm|fig11-uf|prog1-uf --seed N --out DIR [--trace]";

fn usage_exit(error: &str) -> ! {
    eprintln!("error: {error}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut out, mut trace) = (None, None, None, false);
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .unwrap_or_else(|| usage_exit(&format!("{} requires a value", argv[i])))
        };
        match argv[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value())
                        .unwrap_or_else(|| usage_exit(&format!("unknown workload {:?}", value()))),
                );
            }
            "--seed" => {
                seed = Some(
                    value()
                        .parse()
                        .unwrap_or_else(|_| usage_exit(&format!("invalid seed {:?}", value()))),
                );
            }
            "--out" => out = Some(PathBuf::from(value())),
            "--trace" => {
                trace = true;
                i += 1;
                continue;
            }
            other => usage_exit(&format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    Args {
        workload: workload.unwrap_or_else(|| usage_exit("--workload is required")),
        seed: seed.unwrap_or_else(|| usage_exit("--seed is required")),
        out: out.unwrap_or_else(|| usage_exit("--out is required")),
        trace,
    }
}

/// One named correctness check.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

/// What one sweep measured.
struct Outcome {
    records: Vec<SweepRecord>,
    wall_s: f64,
    setup_s: f64,
    run_s: f64,
    sink_s: f64,
    chunks: u64,
    failed: FailedPoints,
}

/// Runs `spec` through `executor` into fresh `<stem>.{csv,jsonl}` and
/// `<stem>.meta.json` artifacts under `out`, as the figure binaries do,
/// on an engine reporting to `recorder`.
fn sweep<E: SweepExecutor>(
    spec: &SweepSpec,
    stem: &str,
    out: &Path,
    executor: E,
    recorder: Recorder,
) -> std::io::Result<Outcome> {
    let failed = FailedPoints::default();
    let timed = Timed::new(executor, &failed);
    let sink_ns = AtomicU64::new(0);
    let start = Instant::now();
    SweepMeta {
        seed: spec.base_seed,
        spec_fingerprint: combine_fingerprints(0, spec.fingerprint()),
        points: spec.len() as u64,
        shard: ShardSpec::FULL,
        plan: None,
    }
    .write(out, stem)?;
    let mut csv = Kept::new(
        CsvSink::create(&out.join(format!("{stem}.csv")))?,
        &failed,
        &sink_ns,
    );
    let mut jsonl = Kept::new(
        JsonlSink::create(&out.join(format!("{stem}.jsonl")))?,
        &failed,
        &sink_ns,
    );
    let mut sinks: [&mut dyn RecordSink; 2] = [&mut csv, &mut jsonl];
    let records = SweepEngine::with_workers(1)
        .with_recorder(recorder)
        .run(spec, &timed, &mut sinks)?;
    let wall_s = start.elapsed().as_secs_f64();
    let (setup_s, run_s, chunks) = (timed.setup_s(), timed.run_s(), timed.chunks());
    drop(timed);
    Ok(Outcome {
        records,
        wall_s,
        setup_s,
        run_s,
        sink_s: sink_ns.load(Relaxed) as f64 * 1e-9,
        chunks,
        failed,
    })
}

/// Checks that hold for every run of every workload.
fn check(
    w: Workload,
    spec: &SweepSpec,
    out: &Path,
    o: &Outcome,
    kept: &[&SweepRecord],
) -> Vec<Check> {
    let mut checks = vec![Check {
        name: "setup_plus_run_within_wall",
        ok: o.setup_s + o.run_s <= o.wall_s,
        detail: format!("{:.6} + {:.6} <= {:.6}", o.setup_s, o.run_s, o.wall_s),
    }];
    // A run with failed points leaves gaps in the global indices, which
    // verify_artifact rejects by design; the record match below still
    // checks every row that was written.
    if o.failed.len() == 0 {
        let verified = verify_artifact(
            out,
            w.stem(),
            &VerifyExpectations {
                rows: Some(spec.len()),
                seed: Some(spec.base_seed),
                shots: Some(spec.shots),
            },
        );
        checks.push(Check {
            name: "artifact_verified",
            ok: verified.is_ok(),
            detail: verified.map_or_else(|e| e.to_string(), |r| format!("{} rows", r.rows)),
        });
    }
    let matched = load_record_artifact(out, w.stem())
        .map(|a| a.records.len() == kept.len() && a.records.iter().zip(kept).all(|(a, k)| a == *k));
    checks.push(Check {
        name: "artifact_matches_records",
        ok: matches!(matched, Ok(true)),
        detail: match matched {
            Ok(ok) => format!("{} rows, equal: {ok}", kept.len()),
            Err(e) => e.to_string(),
        },
    });
    if w == Workload::Fig11Mwpm {
        checks.push(distance_suppression(kept));
    }
    checks
}

/// Below threshold (p = 2e-3) the failure count must fall as d grows:
/// significantly (2 sigma) from the smallest to the largest distance,
/// and with no significant rise between neighbouring distances. The
/// counts are Poisson-like, so a strict `>` at every step would fail on
/// some seeds by chance.
fn distance_suppression(kept: &[&SweepRecord]) -> Check {
    let mut counts: Vec<(usize, f64)> = kept
        .iter()
        .filter(|r| r.point.p == 2e-3)
        .map(|r| (r.point.d, r.failures as f64))
        .collect();
    counts.sort_by_key(|&(d, _)| d);
    let sigma = |a: f64, b: f64| 2.0 * (a + b + 1.0).sqrt();
    let falls = match (counts.first(), counts.last()) {
        (Some(&(_, at_min_d)), Some(&(_, at_max_d))) if counts.len() >= 2 => {
            at_min_d - at_max_d > sigma(at_min_d, at_max_d)
        }
        _ => false,
    };
    let no_rise = counts
        .windows(2)
        .all(|w| w[1].1 - w[0].1 < sigma(w[0].1, w[1].1));
    Check {
        name: "failures_fall_with_distance",
        ok: falls && no_rise,
        detail: counts
            .iter()
            .map(|(d, f)| format!("d={d}:{f}"))
            .collect::<Vec<_>>()
            .join(" "),
    }
}

/// Per-layer values of a traced sweep, keyed by metric name. Prepare-side
/// times come from the mirror's spans; run-side phase times and work
/// counts from the program's own recorder, which the memory path feeds
/// inside the `qec.run` spans.
fn layer_metrics(
    tracer: &Tracer,
    counts: &Counts,
    recorder: &Recorder,
    o: &Outcome,
) -> Vec<(&'static str, f64)> {
    let self_s = tracer.self_seconds();
    let time = |span: &str| self_s.get(span).copied().unwrap_or(0.0);
    let count = |c: &AtomicU64| c.load(Relaxed) as f64;
    let value = |m: Metric| recorder.value(m) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // qec.decode_nanos spans decode_batch plus the XOR of its
    // predictions with the actual flips.
    let (sample_s, extract_s, decode_phase_s, decode_s) = (
        value(Metric::SampleNanos) * 1e-9,
        value(Metric::ExtractNanos) * 1e-9,
        value(Metric::DecodeNanos) * 1e-9,
        value(Metric::DecodeBatchNanos) * 1e-9,
    );
    let lanes = value(Metric::SampleLanes);
    let defects = recorder
        .hist(Metric::DefectsPerLane)
        .map_or(0.0, |h| h.sum as f64);
    let faults = count(&counts.fault_sites);
    let (blocks, replayed) = (count(&counts.blocks), count(&counts.replayed_shots));
    vec![
        ("surface.circuit_s", time("surface.circuit")),
        ("circuit.noise_s", time("circuit.noise")),
        ("circuit.sample_s", sample_s),
        ("circuit.extract_s", extract_s),
        ("circuit.lanes", lanes),
        ("circuit.defects", defects),
        ("circuit.defects_per_shot", ratio(defects, lanes)),
        ("decoder.graph_build_s", time("decoder.graph_build")),
        ("decoder.fault_sites", faults),
        (
            "decoder.graph_build_ns_per_fault",
            ratio(time("decoder.graph_build") * 1e9, faults),
        ),
        ("decoder.graph_edges", count(&counts.graph_edges)),
        ("decoder.construct_s", time("decoder.construct")),
        ("decoder.decode_s", decode_s),
        (
            "decoder.decode_ns_per_defect",
            ratio(decode_s * 1e9, defects),
        ),
        (
            "decoder.mwpm_blossom_calls",
            value(Metric::MwpmBlossomCalls),
        ),
        ("decoder.uf_growth_steps", value(Metric::UfGrowthSteps)),
        ("qec.prepare_s", time("qec.prepare")),
        (
            "qec.run_s",
            time("qec.run") - sample_s - extract_s - decode_phase_s,
        ),
        ("qec.reduce_s", decode_phase_s - decode_s),
        ("vlq.compile_s", time("vlq.compile")),
        ("vlq.frame_prepare_s", time("vlq.frame_prepare")),
        ("vlq.replay_s", time("vlq.replay")),
        ("vlq.blocks", blocks),
        ("vlq.blocks_per_shot", ratio(blocks, replayed)),
        (
            "vlq.replay_ns_per_block",
            ratio(time("vlq.replay") * 1e9, blocks),
        ),
        ("sweep.sink_s", o.sink_s),
        ("sweep.engine_s", o.wall_s - o.setup_s - o.run_s - o.sink_s),
        ("sweep.points", o.records.len() as f64),
        ("sweep.chunks", o.chunks as f64),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let spec = w.spec(args.seed);
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: create {}: {e}", args.out.display());
        std::process::exit(1);
    }
    let tracer = Tracer::new(&spec.expand());
    let counts = Counts::default();
    // Untraced sweeps keep the engine's recorder disabled, as the
    // figure binaries do without --telemetry.
    let recorder = if args.trace {
        Recorder::attached()
    } else {
        Recorder::disabled()
    };
    let memory = MemoryExecutor::with_parallelism(Parallelism::serial());
    let program = ProgramSweepExecutor::new(Boundary::MidCircuit);
    let outcome = match (w, args.trace) {
        (Workload::Prog1Uf, false) => sweep(&spec, w.stem(), &args.out, program, recorder.clone()),
        (Workload::Prog1Uf, true) => sweep(
            &spec,
            w.stem(),
            &args.out,
            TracedProgram {
                inner: program,
                tracer: &tracer,
                counts: &counts,
            },
            recorder.clone(),
        ),
        (_, false) => sweep(&spec, w.stem(), &args.out, memory, recorder.clone()),
        (_, true) => sweep(
            &spec,
            w.stem(),
            &args.out,
            TracedMemory {
                inner: memory,
                tracer: &tracer,
                counts: &counts,
            },
            recorder.clone(),
        ),
    };
    let o = outcome.unwrap_or_else(|e| {
        eprintln!("error: sweep artifacts under {}: {e}", args.out.display());
        std::process::exit(1);
    });
    let kept: Vec<&SweepRecord> = o
        .records
        .iter()
        .filter(|r| !o.failed.contains(&r.point))
        .collect();
    let checks = check(w, &spec, &args.out, &o, &kept);
    let layers = if args.trace {
        if let Err(e) = tracer.write_jsonl(&args.out.join("spans.jsonl")) {
            eprintln!("error: write spans: {e}");
            std::process::exit(1);
        }
        layer_metrics(&tracer, &counts, &recorder, &o)
    } else {
        Vec::new()
    };

    let failures: Vec<String> = o
        .records
        .iter()
        .map(|r| {
            if o.failed.contains(&r.point) {
                "null".to_string()
            } else {
                r.failures.to_string()
            }
        })
        .collect();
    let kept_shots: u64 = kept.iter().map(|r| r.shots).sum();
    let kept_failures: u64 = kept.iter().map(|r| r.failures).sum();
    let checks_json: Vec<String> = checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                json_str(c.name),
                c.ok,
                json_str(&c.detail)
            )
        })
        .collect();
    let layers_json: Vec<String> = layers
        .iter()
        .map(|(name, v)| format!("{}:{v}", json_str(name)))
        .collect();
    let cli_json: Vec<String> = w.cli(args.seed).iter().map(|a| json_str(a)).collect();
    // A traced sweep's mirrored and real prepare times (0 untraced):
    // run.py compares them to flag a mirror that has drifted.
    let mirror_setup_s = tracer.total_seconds("qec.prepare") + tracer.total_seconds("vlq.prepare");
    let real_setup_s = tracer.total_seconds("trace.real_prepare");
    println!(
        "{{\"workload\":{},\"seed\":{},\"shots_per_point\":{},\"points\":{},\"failed_points\":{},\
         \"chunks\":{},\"wall_s\":{},\"setup_s\":{},\"run_s\":{},\"sink_s\":{},\
         \"mirror_setup_s\":{mirror_setup_s},\"real_setup_s\":{real_setup_s},\"shots\":{kept_shots},\"failures\":{kept_failures},\"point_failures\":[{}],\
         \"checks\":[{}],\"layers\":{{{}}},\"cli\":[{}]}}",
        json_str(w.name()),
        args.seed,
        spec.shots,
        o.records.len(),
        o.failed.len(),
        o.chunks,
        o.wall_s,
        o.setup_s,
        o.run_s,
        o.sink_s,
        failures.join(","),
        checks_json.join(","),
        layers_json.join(","),
        cli_json.join(","),
    );
}
