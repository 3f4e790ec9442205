//! End-to-end pipeline benchmark: one full shot batch + decode per setup
//! (what a Figure 11 data point costs), plus the ablation comparing
//! all-at-once to interleaved extraction, and one program's frame replay
//! (what a prog1 data point costs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vlq::exec::ProgramSweepExecutor;
use vlq_qec::{
    run_memory_experiment, BlockConfig, BlockSpec, DecoderKind, ExperimentConfig, Parallelism,
    PreparedBlock,
};
use vlq_surface::schedule::{Basis, Boundary, MemorySpec, Setup};
use vlq_sweep::{SweepExecutor, SweepSpec};
use vlq_telemetry::Recorder;

fn bench_full_point(c: &mut Criterion) {
    let mut group = c.benchmark_group("threshold-point");
    group.sample_size(10);
    for setup in Setup::ALL {
        let spec = MemorySpec::standard(setup, 3, 10, Basis::Z);
        group.bench_with_input(
            BenchmarkId::new("shots-1024", format!("{setup}")),
            &spec,
            |b, spec| {
                b.iter(|| {
                    let cfg = ExperimentConfig::new(*spec, 5e-3)
                        .with_shots(1024)
                        .with_threads(1);
                    run_memory_experiment(&cfg)
                })
            },
        );
    }
    group.finish();
}

fn bench_decoder_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("decoder-ablation");
    group.sample_size(10);
    for decoder in DecoderKind::ALL {
        let spec = MemorySpec::standard(Setup::CompactInterleaved, 5, 10, Basis::Z);
        group.bench_function(format!("{decoder:?}"), |b| {
            b.iter(|| {
                let cfg = ExperimentConfig::new(spec, 5e-3)
                    .with_shots(512)
                    .with_decoder(decoder)
                    .with_threads(1);
                run_memory_experiment(&cfg)
            })
        });
    }
    group.finish();
}

/// The (d, p) grid of the ratcheted BENCH_*.json perf trajectory: the
/// batched sample→decode hot path (serial `PreparedBlock::run`, one
/// scratch across batches) at every grid point, Union-Find decoded.
fn bench_sample_decode_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("sample-decode-grid");
    group.sample_size(10);
    for d in [3usize, 5, 7, 9] {
        for p in [1e-3, 5e-3] {
            let spec = MemorySpec::standard(Setup::Baseline, d, 1, Basis::Z);
            let block = PreparedBlock::prepare(
                &BlockConfig::new(BlockSpec::full(spec), p).with_decoder(DecoderKind::UnionFind),
            );
            group.bench_with_input(
                BenchmarkId::new(format!("uf-d{d}"), format!("p{p:.0e}")),
                &block,
                |b, block| {
                    b.iter(|| block.run(1024, 7, &Parallelism::serial(), &Recorder::disabled()))
                },
            );
        }
    }
    group.finish();
}

/// Frame replay at prog1-uf's shape: `FramePrepared::run` of `adder2`
/// on compact-interleaved d=3, k=4, mid-circuit blocks, union-find,
/// p=2e-3, one 1024-shot batch (each shot samples and decodes one d=3
/// block per participant of every instruction, in both sectors).
fn bench_frame_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame-replay");
    group.sample_size(10);
    let spec = SweepSpec::new()
        .programs(["adder2"])
        .setups([Setup::CompactInterleaved])
        .bases([Basis::Z])
        .distances([3])
        .ks([4])
        .decoders([DecoderKind::UnionFind])
        .error_rates([2e-3]);
    let point = &spec.expand()[0];
    let prepared = ProgramSweepExecutor::new(Boundary::MidCircuit).prepare(point);
    group.bench_function("adder2-compact-int-d3-uf-p2e-3", |b| {
        b.iter(|| prepared.run(1024, 7, &Parallelism::serial(), &Recorder::disabled()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_full_point,
    bench_decoder_ablation,
    bench_sample_decode_grid,
    bench_frame_replay
);
criterion_main!(benches);
