//! Ratcheted perf trajectory for the batched sample→decode hot path.
//!
//! Measures the end-to-end serial `PreparedBlock::run` cost over the (d, p) grid
//! {3,5,7,9} × {1e-3, 5e-3} with the Union-Find decoder, comparing the
//! scratch-reusing batch pipeline against a faithful reconstruction of
//! the pre-refactor path (allocating `sample_batch`, per-lane
//! `detector_bit` probes, per-lane `decode`), and writes the medians to
//! a schema-stable `BENCH_NNNN.json` so future PRs can ratchet against
//! committed numbers. Both paths must produce identical failure counts
//! (the refactor is bit-identical); the binary asserts this on every
//! grid point before timing.
//!
//! `--threads N` adds the cross-core axis: every point also proves the
//! in-call batch workers bit-identical to the serial path, and the d=9
//! rows gain a `multicore` section timing serial vs pooled at a
//! thread-independent shot count. Schema v2 records the worker count
//! and machine core count as provenance, and `--check` rejects
//! artifacts whose provenance contradicts the checker's expectations
//! (`--threads`, `VLQ_BENCH_QUICK`) with a typed error — v1 artifacts
//! (`BENCH_0006`/`BENCH_0007`) carried no provenance and are still
//! accepted by their legacy rules.
//!
//! `VLQ_BENCH_QUICK=1` shrinks shots/reps for CI smoke runs (the same
//! switch the criterion stub honors). `--check` validates an existing
//! report's schema without running anything.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vlq_bench::{count_from_args, finish_telemetry, telemetry_from_args, usage_exit, Args};
use vlq_circuit::exec::sample_batch;
use vlq_decoder::{Decoder, DecoderKind};
use vlq_qec::{BlockConfig, BlockSpec, Parallelism, PreparedBlock};
use vlq_surface::schedule::{Basis, MemorySpec, Setup};
use vlq_telemetry::{Metric, Recorder};

const USAGE: &str = "usage: bench-report --out PATH [--reps N] [--shots N] [--seed S]
                    [--threads N|auto] [--telemetry PATH] [--check] [--quiet]
  --out PATH   report path (required: the report to write, or with --check
               the report to validate)
  --reps N     timing repetitions per point (median reported)
  --shots N    shots per repetition
  --seed S     base seed (default 2020)
  --threads N  in-call batch workers (default 1; `auto` resolves to
               available_parallelism, and the resolved count is what lands in
               the report's provenance). With N >= 2 every point proves the
               pooled path bit-identical to serial, and the d=9 rows gain a
               timed multicore section. In --check mode this is the *expected*
               worker provenance of the artifact instead.
  --telemetry  write a vlq-telemetry JSONL sidecar to PATH and print a runtime
               summary to stderr (sidecar is byte-stable across invocations)
  --check      validate an existing report at --out, run nothing; exits 1 with
               a typed error when the schema or the recorded provenance
               (threads, quick mode) contradicts expectations
  --quiet      suppress per-point progress lines
VLQ_BENCH_QUICK=1 shrinks the default shots/reps for smoke runs.";

/// Current schema: v2 added `threads`/`cores` provenance, per-point
/// `failures`, and the `multicore` section.
const SCHEMA: &str = "vlq-bench-report/v2";
/// Committed pre-provenance reports (`BENCH_0006`/`BENCH_0007`) still
/// check under their original rules.
const SCHEMA_V1: &str = "vlq-bench-report/v1";
const GRID_D: [usize; 4] = [3, 5, 7, 9];
const GRID_P: [f64; 2] = [1e-3, 5e-3];
/// Ratchet floor for the d=9, p=5e-3 multicore row on a multi-core
/// machine (waived when the artifact records `cores: 1` — a single-core
/// builder cannot honestly measure a speedup).
const MULTICORE_FLOOR: f64 = 1.7;

fn main() {
    let args = Args::parse_validated(
        USAGE,
        &["out", "reps", "shots", "seed", "threads", "telemetry"],
        &["check", "quiet"],
    );
    let out = args
        .pairs_get("out")
        .unwrap_or_else(|| usage_exit(USAGE, "--out is required"));
    // `auto` resolves here (with a stderr note), so both run mode and
    // --check mode see the same concrete worker count.
    let threads = count_from_args(&args, USAGE, "threads");
    let quick = std::env::var("VLQ_BENCH_QUICK").is_ok_and(|v| v == "1");
    if args.has("check") {
        check_report(&out, threads, quick);
        return;
    }
    let threads = threads.unwrap_or(1);
    let par = Parallelism::threads(threads);
    let serial = Parallelism::serial();
    let untraced = Recorder::disabled();
    let (def_shots, def_reps) = if quick { (256u64, 3usize) } else { (2048, 5) };
    let shots: u64 = args.get_or_usage(USAGE, "shots", def_shots);
    let reps: usize = args.get_or_usage(USAGE, "reps", def_reps);
    let seed: u64 = args.get_or_usage(USAGE, "seed", 2020);
    let quiet = args.has("quiet");
    if shots == 0 || reps == 0 {
        usage_exit(USAGE, "--shots and --reps must be >= 1");
    }
    // The multicore rows use a thread-independent shot count (so the
    // failure counts in artifacts from different --threads runs stay
    // `cmp`-comparable) that is large enough to give every worker
    // several 1024-lane batches.
    let mc_shots = if quick {
        shots.max(2048)
    } else {
        shots.max(8192)
    };
    // Phase timings always need an attached recorder; with --telemetry
    // the same recorder also feeds the deterministic sidecar (which
    // holds no timings, so it stays byte-stable across invocations).
    let (sidecar, telemetry_path) = telemetry_from_args(&args);
    let recorder = if sidecar.is_enabled() {
        sidecar.clone()
    } else {
        Recorder::attached()
    };

    let mut points = Vec::new();
    let mut multicore = Vec::new();
    for d in GRID_D {
        for p in GRID_P {
            let spec = MemorySpec::standard(Setup::Baseline, d, 1, Basis::Z);
            let block = PreparedBlock::prepare(
                &BlockConfig::new(BlockSpec::full(spec), p).with_decoder(DecoderKind::UnionFind),
            );
            let decoder = DecoderKind::UnionFind.build(&block.graph);

            // The refactor must be bit-identical before it is fast.
            let f_after = block.run(shots, seed, &serial, &untraced);
            let f_before = run_shots_pre_refactor(&block, decoder.as_ref(), shots, seed);
            assert_eq!(
                f_before, f_after,
                "d{d} p{p}: pre-refactor and batched paths disagree"
            );
            if threads > 1 {
                let f_pooled = block.run(shots, seed, &par, &untraced);
                assert_eq!(
                    f_pooled, f_after,
                    "d{d} p{p}: pooled path (threads={threads}) and serial path disagree"
                );
            }

            let before_ns = median_ns(reps, || {
                run_shots_pre_refactor(&block, decoder.as_ref(), shots, seed)
            });
            let after_ns = median_ns(reps, || block.run(shots, seed, &serial, &untraced));
            let speedup = before_ns as f64 / after_ns.max(1) as f64;

            // One instrumented pass per point: the recorder accumulates
            // across the grid, so per-point phase costs are the deltas.
            let at = |m: Metric| recorder.value(m);
            let (s0, e0, d0) = (
                at(Metric::SampleNanos),
                at(Metric::ExtractNanos),
                at(Metric::DecodeNanos),
            );
            let f_recorded = block.run(shots, seed, &serial, &recorder);
            assert_eq!(
                f_recorded, f_after,
                "d{d} p{p}: recorded and plain paths disagree"
            );
            let sample_ns = at(Metric::SampleNanos) - s0;
            let extract_ns = at(Metric::ExtractNanos) - e0;
            let decode_ns = at(Metric::DecodeNanos) - d0;

            if !quiet {
                eprintln!(
                    "note: d{d} p{p:.0e}: before {:.2} ms, after {:.2} ms, speedup {speedup:.2}x \
                     (sample {:.2} ms, extract {:.2} ms, decode {:.2} ms)",
                    before_ns as f64 / 1e6,
                    after_ns as f64 / 1e6,
                    sample_ns as f64 / 1e6,
                    extract_ns as f64 / 1e6,
                    decode_ns as f64 / 1e6
                );
            }
            points.push(Point {
                d,
                p,
                failures: f_after,
                before_ns,
                after_ns,
                speedup,
                sample_ns,
                extract_ns,
                decode_ns,
            });

            // The ratcheted multi-core rows: d=9 serial vs pooled at a
            // thread-independent shot count, counts proven equal before
            // any timing.
            if d == 9 && threads > 1 {
                let mc_serial = block.run(mc_shots, seed, &serial, &untraced);
                let mc_pooled = block.run(mc_shots, seed, &par, &untraced);
                assert_eq!(
                    mc_serial, mc_pooled,
                    "d{d} p{p}: multicore failure counts diverge at threads={threads}"
                );
                let serial_ns = median_ns(reps, || block.run(mc_shots, seed, &serial, &untraced));
                let pooled_ns = median_ns(reps, || block.run(mc_shots, seed, &par, &untraced));
                let mc_speedup = serial_ns as f64 / pooled_ns.max(1) as f64;
                if !quiet {
                    eprintln!(
                        "note: d{d} p{p:.0e} multicore ({mc_shots} shots, {threads} threads): \
                         serial {:.2} ms, pooled {:.2} ms, speedup {mc_speedup:.2}x",
                        serial_ns as f64 / 1e6,
                        pooled_ns as f64 / 1e6
                    );
                }
                multicore.push(MulticorePoint {
                    d,
                    p,
                    mc_shots,
                    serial_ns,
                    pooled_ns,
                    speedup: mc_speedup,
                    mc_failures: mc_serial,
                });
            }
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = render_report(
        quick, shots, reps, seed, threads, cores, &points, &multicore,
    );
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    finish_telemetry(&sidecar, telemetry_path.as_deref(), "bench-report", seed);
    println!(
        "wrote {out} ({} grid points, {} multicore rows)",
        points.len(),
        multicore.len()
    );
}

struct Point {
    d: usize,
    p: f64,
    failures: u64,
    before_ns: u128,
    after_ns: u128,
    speedup: f64,
    sample_ns: u64,
    extract_ns: u64,
    decode_ns: u64,
}

struct MulticorePoint {
    d: usize,
    p: f64,
    mc_shots: u64,
    serial_ns: u128,
    pooled_ns: u128,
    speedup: f64,
    mc_failures: u64,
}

/// The hot path exactly as it was before this refactor: a freshly
/// allocated `sample_batch` result per batch, per-lane × per-detector
/// `detector_bit` probes, and per-lane `decode` with per-call working
/// memory. Bit-identical to the serial `PreparedBlock::run` (same seeds,
/// same RNG streams), which the caller asserts.
fn run_shots_pre_refactor(
    block: &PreparedBlock,
    decoder: &dyn Decoder,
    shots: u64,
    seed: u64,
) -> u64 {
    const LANES_PER_BATCH: usize = 1024;
    let guard = block.memory.guard_detectors();
    let mut failures = 0u64;
    let mut remaining = shots;
    let mut batch_idx = 0u64;
    while remaining > 0 {
        let lanes = (remaining as usize).min(LANES_PER_BATCH);
        let words = lanes.div_ceil(64).max(1);
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_add(batch_idx));
        let result = sample_batch(&block.noisy, lanes, &mut rng);
        let mut pred = vec![0u64; words];
        for lane in 0..lanes {
            let mut defects: Vec<usize> = Vec::new();
            for (local, &global) in guard.iter().enumerate() {
                if result.detector_bit(global, lane) {
                    defects.push(local);
                }
            }
            if decoder.decode(&defects) {
                pred[lane / 64] |= 1u64 << (lane % 64);
            }
        }
        for (p, a) in pred.iter_mut().zip(result.observable_words(0)) {
            *p ^= a;
        }
        failures += pred.iter().map(|w| w.count_ones() as u64).sum::<u64>();
        remaining -= lanes as u64;
        batch_idx += 1;
    }
    failures
}

fn median_ns(reps: usize, mut f: impl FnMut() -> u64) -> u128 {
    let mut times: Vec<u128> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// Hand-rolled JSON (the repo's artifact discipline: no serde, stable
/// key order, one line per grid point so diffs read cleanly).
#[allow(clippy::too_many_arguments)]
fn render_report(
    quick: bool,
    shots: u64,
    reps: usize,
    seed: u64,
    threads: usize,
    cores: usize,
    points: &[Point],
    multicore: &[MulticorePoint],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    s.push_str("  \"bench\": \"sample-decode-hot-path\",\n");
    s.push_str("  \"decoder\": \"union-find\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!("  \"shots\": {shots},\n"));
    s.push_str(&format!("  \"reps\": {reps},\n"));
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!("  \"threads\": {threads},\n"));
    s.push_str(&format!("  \"cores\": {cores},\n"));
    s.push_str("  \"points\": [\n");
    for (i, pt) in points.iter().enumerate() {
        let sep = if i + 1 < points.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"d\": {}, \"p\": {}, \"failures\": {}, \"before_ns\": {}, \"after_ns\": {}, \
             \"speedup\": {:.3}, \"sample_ns\": {}, \"extract_ns\": {}, \"decode_ns\": {}}}{sep}\n",
            pt.d,
            pt.p,
            pt.failures,
            pt.before_ns,
            pt.after_ns,
            pt.speedup,
            pt.sample_ns,
            pt.extract_ns,
            pt.decode_ns
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"multicore\": [\n");
    for (i, pt) in multicore.iter().enumerate() {
        let sep = if i + 1 < multicore.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"d\": {}, \"p\": {}, \"mc_shots\": {}, \"serial_ns\": {}, \"pooled_ns\": {}, \
             \"speedup\": {:.3}, \"mc_failures\": {}}}{sep}\n",
            pt.d, pt.p, pt.mc_shots, pt.serial_ns, pt.pooled_ns, pt.speedup, pt.mc_failures
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Everything `--check` can reject, typed so CI failures read as exactly
/// one contract violation each.
enum CheckError {
    Unreadable(String),
    SchemaMismatch,
    MissingKey(&'static str),
    MissingGridPoint {
        d: usize,
        p: f64,
    },
    FieldCount {
        field: &'static str,
        want: String,
        got: usize,
    },
    ThreadsMismatch {
        expected: usize,
        found: u64,
    },
    NoThreadsProvenance {
        expected: usize,
    },
    QuickMismatch {
        expected: bool,
    },
    MulticoreRows {
        want: usize,
        got: usize,
    },
    MissingMulticoreRow {
        d: usize,
        p: f64,
    },
    RatchetMiss {
        speedup: f64,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::Unreadable(e) => write!(f, "cannot read report: {e}"),
            CheckError::SchemaMismatch => {
                write!(f, "missing schema tag ({SCHEMA:?} or {SCHEMA_V1:?})")
            }
            CheckError::MissingKey(key) => write!(f, "missing key \"{key}\""),
            CheckError::MissingGridPoint { d, p } => write!(f, "missing grid point d={d} p={p}"),
            CheckError::FieldCount { field, want, got } => {
                write!(f, "expected {want} {field} entries, found {got}")
            }
            CheckError::ThreadsMismatch { expected, found } => write!(
                f,
                "worker provenance mismatch: artifact records threads={found}, checker expects \
                 threads={expected}"
            ),
            CheckError::NoThreadsProvenance { expected } => write!(
                f,
                "checker expects threads={expected} but the artifact is {SCHEMA_V1} and records \
                 no worker provenance (regenerate as {SCHEMA})"
            ),
            CheckError::QuickMismatch { expected } => write!(
                f,
                "quick-mode provenance mismatch: artifact records quick: {}, checker \
                 (VLQ_BENCH_QUICK) expects quick: {expected}",
                !expected
            ),
            CheckError::MulticoreRows { want, got } => {
                write!(f, "expected {want} multicore rows, found {got}")
            }
            CheckError::MissingMulticoreRow { d, p } => {
                write!(f, "missing multicore row d={d} p={p}")
            }
            CheckError::RatchetMiss { speedup } => write!(
                f,
                "multicore ratchet miss: d=9 p=0.005 speedup {speedup:.3} < floor \
                 {MULTICORE_FLOOR} on a multi-core machine"
            ),
        }
    }
}

/// The integer value of a top-level `"key": N` entry.
fn extract_u64(text: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let at = text.find(&needle)? + needle.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The `"speedup": X` value of the multicore row for (d, p), if any.
fn multicore_speedup(text: &str, d: usize, p: f64) -> Option<f64> {
    let section = &text[text.find("\"multicore\": [")?..];
    let row_at = section.find(&format!("{{\"d\": {d}, \"p\": {p}, \"mc_shots\":"))?;
    let row = &section[row_at..];
    let needle = "\"speedup\": ";
    let at = row.find(needle)? + needle.len();
    let num: String = row[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    num.parse().ok()
}

/// Schema + provenance validation for `--check`: the file must exist,
/// carry a known schema tag, contain every (d, p) grid point with sane
/// timings, and (schema v2) record worker/quick provenance consistent
/// with what the checker expects. Exits 1 on drift so CI fails loudly.
fn check_report(path: &str, expect_threads: Option<usize>, expect_quick: bool) {
    let grid = GRID_D.len() * GRID_P.len();
    let mut problems: Vec<CheckError> = Vec::new();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {path}: {}", CheckError::Unreadable(e.to_string()));
            std::process::exit(1);
        }
    };
    let v2 = text.contains(&format!("\"schema\": \"{SCHEMA}\""));
    let v1 = text.contains(&format!("\"schema\": \"{SCHEMA_V1}\""));
    if !v2 && !v1 {
        problems.push(CheckError::SchemaMismatch);
    }
    for key in ["bench", "decoder", "shots", "reps", "seed", "points"] {
        if !text.contains(&format!("\"{key}\":")) {
            problems.push(CheckError::MissingKey(key));
        }
    }
    for d in GRID_D {
        for p in GRID_P {
            if !text.contains(&format!("\"d\": {d}, \"p\": {p},")) {
                problems.push(CheckError::MissingGridPoint { d, p });
            }
        }
    }
    for field in ["before_ns", "after_ns", "speedup"] {
        // v2 also renders one "speedup" per multicore row.
        let extra = if field == "speedup" {
            text.matches("\"mc_shots\":").count()
        } else {
            0
        };
        let count = text.matches(&format!("\"{field}\":")).count();
        if count != grid + extra {
            problems.push(CheckError::FieldCount {
                field,
                want: (grid + extra).to_string(),
                got: count,
            });
        }
    }
    // Phase columns arrived with BENCH_0007; older committed reports
    // legitimately have none, but a report must be all-or-nothing.
    for field in ["sample_ns", "extract_ns", "decode_ns"] {
        let count = text.matches(&format!("\"{field}\":")).count();
        if count != 0 && count != grid {
            problems.push(CheckError::FieldCount {
                field,
                want: format!("0 or {grid}"),
                got: count,
            });
        }
    }
    // Quick-mode provenance: both schema generations record `quick`.
    if !text.contains(&format!("\"quick\": {expect_quick}")) {
        problems.push(CheckError::QuickMismatch {
            expected: expect_quick,
        });
    }
    if v2 {
        check_v2(&text, expect_threads, expect_quick, path, &mut problems);
    } else if v1 {
        if let Some(expected) = expect_threads {
            problems.push(CheckError::NoThreadsProvenance { expected });
        }
    }
    if problems.is_empty() {
        println!("{path}: schema ok ({grid} grid points)");
    } else {
        for p in &problems {
            eprintln!("error: {path}: {p}");
        }
        std::process::exit(1);
    }
}

/// The v2-only rules: worker/core provenance, per-point failure counts,
/// the multicore section, and the ratchet floor.
fn check_v2(
    text: &str,
    expect_threads: Option<usize>,
    expect_quick: bool,
    path: &str,
    problems: &mut Vec<CheckError>,
) {
    let grid = GRID_D.len() * GRID_P.len();
    for key in ["threads", "cores", "multicore"] {
        if !text.contains(&format!("\"{key}\":")) {
            problems.push(CheckError::MissingKey(key));
        }
    }
    let failures = text.matches("\"failures\":").count();
    if failures != grid {
        problems.push(CheckError::FieldCount {
            field: "failures",
            want: grid.to_string(),
            got: failures,
        });
    }
    let threads = extract_u64(text, "threads").unwrap_or(0);
    let cores = extract_u64(text, "cores").unwrap_or(0);
    if let Some(expected) = expect_threads {
        if threads != expected as u64 {
            problems.push(CheckError::ThreadsMismatch {
                expected,
                found: threads,
            });
        }
    }
    // threads >= 2 must have timed one multicore row per d=9 grid
    // column; a serial run must have none (nothing to compare against).
    let mc_rows = text.matches("\"mc_shots\":").count();
    let want_rows = if threads >= 2 { GRID_P.len() } else { 0 };
    if mc_rows != want_rows {
        problems.push(CheckError::MulticoreRows {
            want: want_rows,
            got: mc_rows,
        });
    } else if threads >= 2 {
        for p in GRID_P {
            if multicore_speedup(text, 9, p).is_none() {
                problems.push(CheckError::MissingMulticoreRow { d: 9, p });
            }
        }
        // The ratchet: honest timings only. Quick artifacts time too
        // little work, and a single-core machine cannot speed up.
        if let Some(speedup) = multicore_speedup(text, 9, 5e-3) {
            if expect_quick || cores < 2 {
                println!(
                    "{path}: note: multicore ratchet waived (quick: {expect_quick}, cores: \
                     {cores}); d=9 p=0.005 speedup {speedup:.3}"
                );
            } else if speedup < MULTICORE_FLOOR {
                problems.push(CheckError::RatchetMiss { speedup });
            }
        }
    }
}
