//! Decoder micro-benchmarks: Blossom MWPM vs Union-Find on realistic
//! defect sets (the A1 ablation's speed axis).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vlq_arch::HardwareParams;
use vlq_circuit::exec::{SampleScratch, SampleTape};
use vlq_circuit::noise::NoiseModel;
use vlq_decoder::{Decoder, DecoderScratch, DecodingGraph, MwpmDecoder, UnionFindDecoder};
use vlq_surface::schedule::{memory_circuit, Basis, Boundary, MemorySpec, Setup};

fn graph_for(d: usize) -> DecodingGraph {
    graph_at(d, 5e-3)
}

fn graph_at(d: usize, p: f64) -> DecodingGraph {
    let spec = MemorySpec::standard(Setup::Baseline, d, 1, Basis::Z);
    let mc = memory_circuit(spec, &HardwareParams::baseline());
    let noisy = NoiseModel::baseline_at_scale(p).apply(&mc.circuit);
    DecodingGraph::build(&noisy, &mc.z_detectors)
}

fn random_defects(g: &DecodingGraph, count: usize, rng: &mut SmallRng) -> Vec<usize> {
    let mut defects = Vec::new();
    while defects.len() < count.min(g.num_nodes()) {
        let d = rng.random_range(0..g.num_nodes());
        if !defects.contains(&d) {
            defects.push(d);
        }
    }
    defects.sort_unstable();
    defects
}

/// fig11's guard-sector graph of `setup` at (d, p) (basis Z, k = 10,
/// `Boundary::Full`) and the defect lists of one sampled `lanes`-lane
/// batch on it.
fn sampled_defects(
    setup: Setup,
    d: usize,
    p: f64,
    lanes: usize,
) -> (DecodingGraph, Vec<Vec<usize>>, Vec<u64>) {
    let noise = if setup.uses_memory() {
        NoiseModel::memory_at_scale(p)
    } else {
        NoiseModel::baseline_at_scale(p)
    };
    let mc = memory_circuit(MemorySpec::standard(setup, d, 10, Basis::Z), &noise.hw);
    let (start, end) = mc.noise_window(Boundary::Full);
    let noisy = noise.apply_window(&mc.circuit, start, end);
    let graph = DecodingGraph::build(&noisy, mc.guard_detectors());
    let mut scratch = SampleScratch::new();
    SampleTape::compile(&noisy).sample_into(lanes, &mut SmallRng::seed_from_u64(1), &mut scratch);
    let (mut lists, mut live) = (Vec::new(), Vec::new());
    scratch
        .result
        .defect_lists_into(mc.guard_detectors(), lanes, &mut lists, &mut live);
    (graph, lists, live)
}

fn bench_decoders(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode");
    for d in [3usize, 5, 7] {
        let g = graph_for(d);
        let mwpm = MwpmDecoder::new(&g);
        let uf = UnionFindDecoder::new(&g);
        let mut rng = SmallRng::seed_from_u64(1);
        let defect_sets: Vec<Vec<usize>> =
            (0..32).map(|_| random_defects(&g, 6, &mut rng)).collect();
        group.bench_with_input(BenchmarkId::new("mwpm", d), &d, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let r = mwpm.decode(&defect_sets[i % defect_sets.len()]);
                i += 1;
                r
            })
        });
        group.bench_with_input(BenchmarkId::new("union-find", d), &d, |b, _| {
            let mut i = 0;
            b.iter(|| {
                let r = uf.decode(&defect_sets[i % defect_sets.len()]);
                i += 1;
                r
            })
        });
    }
    group.finish();
}

/// Graph construction alone (circuit and noise prepared outside the
/// timed loop), under `Boundary::Full` at `p = 5e-3`: baseline d 3-9 and
/// the largest prepare point, compact-interleaved d=11.
fn bench_graph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("graph-build");
    group.sample_size(10);
    let points = [
        (Setup::Baseline, 3usize),
        (Setup::Baseline, 5),
        (Setup::Baseline, 7),
        (Setup::Baseline, 9),
        (Setup::CompactInterleaved, 11),
    ];
    for (setup, d) in points {
        let noise = if setup.uses_memory() {
            NoiseModel::memory_at_scale(5e-3)
        } else {
            NoiseModel::baseline_at_scale(5e-3)
        };
        let mc = memory_circuit(MemorySpec::standard(setup, d, 10, Basis::Z), &noise.hw);
        let noisy = noise.apply(&mc.circuit);
        let id = BenchmarkId::new(setup.to_string(), d);
        group.bench_with_input(id, &d, |b, _| {
            b.iter(|| DecodingGraph::build(&noisy, &mc.z_detectors))
        });
    }
    group.finish();
}

/// Scratch-reusing `decode_batch` vs the per-lane `decode` loop it
/// replaced, over the (d, p) perf-trajectory grid (Union-Find on random
/// lists of at most 6 defects), plus both batch paths on sampled fig11
/// syndromes: MWPM at d=7, p=5e-3 (about 15 defects per shot), MWPM at
/// paper scale on compact-int d=9, p=2e-3 (about 48 defects per shot)
/// and Union-Find at d=7, p=8e-3, the fig11-uf benchmark's heaviest
/// point.
fn bench_decode_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode-batch");
    for d in [3usize, 5, 7, 9] {
        for p in [1e-3, 5e-3] {
            let g = graph_at(d, p);
            let uf = UnionFindDecoder::new(&g);
            let mut rng = SmallRng::seed_from_u64(1);
            let lanes = 256usize;
            let lists: Vec<Vec<usize>> = (0..lanes)
                .map(|_| {
                    let k = rng.random_range(0..7usize);
                    random_defects(&g, k, &mut rng)
                })
                .collect();
            let words = lanes.div_ceil(64);
            let id = format!("d{d}-p{p:.0e}");
            group.bench_with_input(BenchmarkId::new("uf-batch", &id), &d, |b, _| {
                let mut scratch = DecoderScratch::new();
                let mut out = vec![0u64; words];
                let all = vec![!0u64; words];
                b.iter(|| uf.decode_batch(&lists, &all, &mut scratch, &mut out))
            });
            group.bench_with_input(BenchmarkId::new("uf-per-lane", &id), &d, |b, _| {
                let mut out = vec![0u64; words];
                b.iter(|| {
                    out.fill(0);
                    for (lane, defects) in lists.iter().enumerate() {
                        if uf.decode(defects) {
                            out[lane / 64] |= 1u64 << (lane % 64);
                        }
                    }
                })
            });
        }
    }
    let lanes = 256usize;
    for (setup, d, p, id) in [
        (Setup::Baseline, 7, 5e-3, "d7-p5e-3"),
        (Setup::CompactInterleaved, 9, 2e-3, "d9-compact-int-p2e-3"),
    ] {
        let (g, lists, live) = sampled_defects(setup, d, p, lanes);
        let mwpm = MwpmDecoder::new(&g);
        group.bench_with_input(BenchmarkId::new("mwpm-batch", id), &d, |b, _| {
            let mut scratch = DecoderScratch::new();
            let mut out = vec![0u64; lanes.div_ceil(64)];
            b.iter(|| mwpm.decode_batch(&lists, &live, &mut scratch, &mut out))
        });
    }
    let (g, lists, live) = sampled_defects(Setup::Baseline, 7, 8e-3, lanes);
    let uf = UnionFindDecoder::new(&g);
    group.bench_with_input(BenchmarkId::new("uf-batch", "d7-p8e-3"), &7, |b, _| {
        let mut scratch = DecoderScratch::new();
        let mut out = vec![0u64; lanes.div_ceil(64)];
        b.iter(|| uf.decode_batch(&lists, &live, &mut scratch, &mut out))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_decoders,
    bench_graph_build,
    bench_decode_batch
);
criterion_main!(benches);
