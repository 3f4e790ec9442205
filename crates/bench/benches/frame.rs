//! Pauli-frame engine throughput: bit-parallel batch sampling of full
//! memory-experiment circuits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use vlq_arch::HardwareParams;
use vlq_circuit::exec::{sample_batch, SampleScratch, SampleTape};
use vlq_circuit::noise::NoiseModel;
use vlq_surface::schedule::{memory_circuit, Basis, MemorySpec, Setup};

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame-sample");
    for setup in [Setup::Baseline, Setup::CompactInterleaved] {
        for d in [3usize, 5] {
            let k = if setup.uses_memory() { 10 } else { 1 };
            let spec = MemorySpec::standard(setup, d, k, Basis::Z);
            let hw = if setup.uses_memory() {
                HardwareParams::with_memory()
            } else {
                HardwareParams::baseline()
            };
            let mc = memory_circuit(spec, &hw);
            let noisy = if setup.uses_memory() {
                NoiseModel::memory_at_scale(2e-3)
            } else {
                NoiseModel::baseline_at_scale(2e-3)
            }
            .apply(&mc.circuit);
            let lanes = 1024usize;
            group.throughput(Throughput::Elements(lanes as u64));
            group.bench_with_input(BenchmarkId::new(format!("{setup}"), d), &d, |b, _| {
                let mut rng = SmallRng::seed_from_u64(7);
                b.iter(|| sample_batch(&noisy, lanes, &mut rng))
            });
        }
    }
    group.finish();
}

/// A tape compiled once, sampled into reused scratch (the batch
/// driver's steady state), against the `sample_batch` wrapper, which
/// compiles and allocates on every call.
fn bench_sampling_scratch(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame-sample-scratch");
    for d in [3usize, 5] {
        let spec = MemorySpec::standard(Setup::Baseline, d, 1, Basis::Z);
        let mc = memory_circuit(spec, &HardwareParams::baseline());
        let noisy = NoiseModel::baseline_at_scale(2e-3).apply(&mc.circuit);
        let lanes = 1024usize;
        group.throughput(Throughput::Elements(lanes as u64));
        group.bench_with_input(BenchmarkId::new("reused", d), &d, |b, _| {
            let mut rng = SmallRng::seed_from_u64(7);
            let (tape, mut scratch) = (SampleTape::compile(&noisy), SampleScratch::new());
            b.iter(|| tape.sample_into(lanes, &mut rng, &mut scratch))
        });
        group.bench_with_input(BenchmarkId::new("allocating", d), &d, |b, _| {
            let mut rng = SmallRng::seed_from_u64(7);
            b.iter(|| sample_batch(&noisy, lanes, &mut rng))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sampling, bench_sampling_scratch);
criterion_main!(benches);
