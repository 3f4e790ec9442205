//! Golden digests of union-find decoding, captured before its flat
//! rewrite.
//!
//! - **The fig11-uf grid:** fig11's defaults (baseline, basis Z, k = 10,
//!   `Boundary::Full`) at d ∈ {3, 5, 7} × p ∈ {2e-3, 5e-3, 8e-3}, one
//!   sampled 1024-lane batch per graph through `decode_batch`. Pinned:
//!   the predicted flips, the shot and defect counts, and the three
//!   Deterministic UF counters each batch records.
//! - **Seeded random defect lists** (sorted, unsorted, with repeats)
//!   through `decode` on baseline, natural- and compact-interleaved
//!   graphs at d ∈ {3, 5} × {`Full`, `MidCircuit`}. A reused scratch
//!   must agree on every list; the flips and its counters are pinned.
//!
//! Union-find breaks distance ties by visit order, so these digests pin
//! that order too. A change that means to move predictions re-pins them
//! and says how many shots moved.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vlq_circuit::exec::{SampleScratch, SampleTape};
use vlq_circuit::ir::Circuit;
use vlq_circuit::noise::NoiseModel;
use vlq_decoder::{Decoder, DecoderScratch, DecodingGraph, UfScratch, UnionFindDecoder};
use vlq_surface::schedule::{memory_circuit, Basis, Boundary, MemorySpec, Setup};
use vlq_telemetry::{Metric, Recorder};

const LANES: usize = 1024;
const UF_COUNTERS: [Metric; 3] = [
    Metric::UfGrowthSteps,
    Metric::UfTouchedNodes,
    Metric::UfOddClusterPeak,
];
const GRID_FLIP_DIGEST: u64 = 0x84e1_1e1f_3e1b_6451;
const GRID_COUNTER_DIGEST: u64 = 0x37a6_2c3e_a9b9_be25;
const SHOTS: usize = 9 * LANES;
const DEFECTS: usize = 62_559;
/// Every random list's flip, then each graph's three counters.
const RANDOM_DIGEST: u64 = 0x769f_66c3_7831_b6d1;

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A basis-Z memory block's guard-sector graph, noisy circuit and guard
/// detectors, with noise windowed to `boundary`.
fn block(
    setup: Setup,
    d: usize,
    k: usize,
    p: f64,
    b: Boundary,
) -> (DecodingGraph, Circuit, Vec<usize>) {
    let noise = NoiseModel::baseline_at_scale(p);
    let mc = memory_circuit(MemorySpec::standard(setup, d, k, Basis::Z), &noise.hw);
    let (start, end) = mc.noise_window(b);
    let noisy = noise.apply_window(&mc.circuit, start, end);
    let guard = mc.guard_detectors().to_vec();
    (DecodingGraph::build(&noisy, &guard), noisy, guard)
}

#[test]
fn fig11_uf_grid_decodes_match_golden() {
    let (mut flips, mut counters) = (Fnv::new(), Fnv::new());
    let (mut shots, mut defects, mut seed) = (0, 0, 2020);
    for d in [3usize, 5, 7] {
        for p in [2e-3, 5e-3, 8e-3] {
            let (graph, noisy, guard) = block(Setup::Baseline, d, 10, p, Boundary::Full);
            let mut sample = SampleScratch::new();
            SampleTape::compile(&noisy).sample_into(
                LANES,
                &mut SmallRng::seed_from_u64(seed),
                &mut sample,
            );
            seed += 1;
            let (mut lists, mut live) = (Vec::new(), Vec::new());
            sample
                .result
                .defect_lists_into(&guard, LANES, &mut lists, &mut live);

            let decoder = UnionFindDecoder::new(&graph);
            let recorder = Recorder::attached();
            let mut scratch = DecoderScratch::new();
            scratch.set_recorder(&recorder);
            let mut words = vec![0u64; LANES / 64];
            decoder.decode_batch(&lists, &live, &mut scratch, &mut words);
            words.iter().for_each(|&w| flips.word(w));
            for m in UF_COUNTERS {
                counters.word(recorder.value(m));
            }
            shots += lists.len();
            defects += lists.iter().map(Vec::len).sum::<usize>();
        }
    }
    assert_eq!((shots, defects), (SHOTS, DEFECTS), "sampled workload moved");
    assert_eq!(
        flips.0, GRID_FLIP_DIGEST,
        "flips moved: got {:#018x}",
        flips.0
    );
    assert_eq!(
        counters.0, GRID_COUNTER_DIGEST,
        "counters moved: got {:#018x}",
        counters.0
    );
}

/// A random list of 1 to 16 defects: distinct and sorted (`shape` 0),
/// distinct and unsorted (1), or unsorted with repeats (2).
fn random_list(rng: &mut SmallRng, num_nodes: usize, shape: usize) -> Vec<usize> {
    let len = rng.random_range(1..=16usize).min(num_nodes);
    let mut list: Vec<usize> = Vec::with_capacity(len);
    while list.len() < len {
        let node = rng.random_range(0..num_nodes);
        if shape == 2 || !list.contains(&node) {
            list.push(node);
        }
    }
    if shape == 0 {
        list.sort_unstable();
    }
    list
}

#[test]
fn random_defect_lists_match_golden() {
    let mut digest = Fnv::new();
    let mut rng = SmallRng::seed_from_u64(2020);
    let setups = [
        Setup::Baseline,
        Setup::NaturalInterleaved,
        Setup::CompactInterleaved,
    ];
    for setup in setups {
        for d in [3usize, 5] {
            for boundary in [Boundary::Full, Boundary::MidCircuit] {
                let (graph, _, _) = block(setup, d, 3, 5e-3, boundary);
                let decoder = UnionFindDecoder::new(&graph);
                let recorder = Recorder::attached();
                let mut reused = UfScratch::new();
                reused.set_recorder(&recorder);
                for i in 0..600 {
                    let list = random_list(&mut rng, graph.num_nodes(), i % 3);
                    let flip = decoder.decode(&list);
                    let hot = decoder.decode_with(&list, &mut reused);
                    assert_eq!(
                        hot, flip,
                        "{setup} d{d} {boundary:?}: reused scratch on {list:?}"
                    );
                    digest.word(u64::from(flip));
                }
                for m in UF_COUNTERS {
                    digest.word(recorder.value(m));
                }
            }
        }
    }
    assert_eq!(
        digest.0, RANDOM_DIGEST,
        "flips or counters moved: got {:#018x}",
        digest.0
    );
}
