//! Demonstrates the point of the `vlq-sweep` work-stealing engine: a
//! threshold-style scan over many configs parallelizes across
//! *configs × shots*, while the pre-engine path ran configs serially.
//!
//! Runs the same 8-config grid (d ∈ {3,5} × p ∈ {4e-3, 8e-3} × both
//! decoders) three ways and prints wall-clock times:
//!
//!   1. serial per-config loop (one `run_memory_experiment` per config,
//!      single-threaded) — the old scan shape;
//!   2. the sweep engine with 1 worker (overhead check);
//!   3. the sweep engine with N workers (N = available parallelism,
//!      or the `VLQ_SWEEP_WORKERS` env var).
//!
//! On a multi-core machine (3) beats (1) roughly by min(N, #configs)×;
//! on a single-core container all three tie. Either way the records are
//! identical — the engine's seeding is schedule-independent.

use std::time::Instant;

use vlq::decoder::DecoderKind;
use vlq::qec::{config_for_point, run_memory_experiment, MemoryExecutor};
use vlq::surface::schedule::Setup;
use vlq::sweep::{SweepEngine, SweepSpec};

fn main() {
    let shots = 4000;
    let spec = SweepSpec::new()
        .setups([Setup::Baseline])
        .distances([3, 5])
        .error_rates([4e-3, 8e-3])
        .decoders([DecoderKind::Mwpm, DecoderKind::UnionFind])
        .shots(shots)
        .base_seed(2020);
    let points = spec.expand();
    println!(
        "scan: {} configs x {} shots (d in {{3,5}}, two error rates, both decoders)",
        points.len(),
        shots
    );

    // 1. Serial per-config path: what threshold scans did before the
    // engine — each config in sequence, single-threaded.
    let t0 = Instant::now();
    let mut serial_failures = 0u64;
    for pt in &points {
        let cfg = config_for_point(pt).with_threads(1);
        serial_failures += run_memory_experiment(&cfg).failures;
    }
    let t_serial = t0.elapsed();
    println!("serial per-config loop:      {t_serial:>8.2?}");

    // 2. Engine, 1 worker: same schedule shape, engine overhead only.
    let t0 = Instant::now();
    let recs1 = SweepEngine::serial()
        .run(&spec, &MemoryExecutor::default(), &mut [])
        .unwrap();
    let t_one = t0.elapsed();
    println!("sweep engine, 1 worker:      {t_one:>8.2?}");

    // 3. Engine, N workers: work-stealing across configs x shots.
    let workers = std::env::var("VLQ_SWEEP_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    let t0 = Instant::now();
    let recs_n = SweepEngine::with_workers(workers)
        .run(&spec, &MemoryExecutor::default(), &mut [])
        .unwrap();
    let t_many = t0.elapsed();
    println!("sweep engine, {workers} worker(s):   {t_many:>8.2?}");

    assert_eq!(recs1, recs_n, "engine results must not depend on workers");
    println!(
        "\nspeedup vs serial loop: {:.2}x (engine@{workers})",
        t_serial.as_secs_f64() / t_many.as_secs_f64()
    );
    let engine_failures: u64 = recs_n.iter().map(|r| r.failures).sum();
    println!(
        "total failures: serial {serial_failures}, engine {engine_failures} \
         (differ only by seed schedule, not by correctness)"
    );
}
