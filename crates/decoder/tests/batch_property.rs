//! `decode_batch` must be bit-identical to per-lane `decode` — for both
//! decoders, at several distances — and one `DecoderScratch` must serve
//! every decoder and graph it is handed exactly as fresh scratch does.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vlq_arch::params::HardwareParams;
use vlq_circuit::noise::NoiseModel;
use vlq_decoder::{Decoder, DecoderKind, DecoderScratch, DecodingGraph};
use vlq_surface::schedule::{memory_circuit, Basis, MemorySpec, Setup};
use vlq_telemetry::{Metric, Recorder};

fn graph_for(d: usize, p: f64) -> DecodingGraph {
    let spec = MemorySpec::standard(Setup::Baseline, d, 1, Basis::Z);
    let mc = memory_circuit(spec, &HardwareParams::baseline());
    let noisy = NoiseModel::baseline_at_scale(p).apply(&mc.circuit);
    DecodingGraph::build(&noisy, &mc.z_detectors)
}

/// Random defect lists for `lanes` lanes (empty lists included).
fn random_defect_lists(rng: &mut SmallRng, lanes: usize, num_nodes: usize) -> Vec<Vec<usize>> {
    (0..lanes)
        .map(|_| {
            let k = rng.random_range(0..7usize);
            let mut defects: Vec<usize> = Vec::new();
            while defects.len() < k {
                let d = rng.random_range(0..num_nodes);
                if !defects.contains(&d) {
                    defects.push(d);
                }
            }
            defects.sort_unstable();
            defects
        })
        .collect()
}

fn packed_per_lane_decode(decoder: &dyn Decoder, lists: &[Vec<usize>]) -> Vec<u64> {
    let words = lists.len().div_ceil(64);
    let mut out = vec![0u64; words];
    for (lane, defects) in lists.iter().enumerate() {
        if decoder.decode(defects) {
            out[lane / 64] |= 1u64 << (lane % 64);
        }
    }
    out
}

#[test]
fn decode_batch_matches_per_lane_decode() {
    let mut rng = SmallRng::seed_from_u64(2020);
    for d in [3usize, 5, 7] {
        let graph = graph_for(d, 2e-3);
        for kind in DecoderKind::ALL {
            let decoder = kind.build(&graph);
            let lists = random_defect_lists(&mut rng, 150, graph.num_nodes());
            let expected = packed_per_lane_decode(decoder.as_ref(), &lists);
            let words = lists.len().div_ceil(64);

            // One scratch, reused twice to cover cross-batch reset.
            let mut scratch = DecoderScratch::new();
            for _ in 0..2 {
                let mut out = vec![0u64; words];
                decoder.decode_batch(&lists, &mut scratch, &mut out);
                assert_eq!(out, expected, "{kind} d{d} batch");
            }
        }
    }
}

/// One batch decoded in `scratch` under a fresh recorder: the
/// prediction words and the Deterministic counters it recorded.
fn batch_recorded(
    decoder: &dyn Decoder,
    lists: &[Vec<usize>],
    scratch: &mut DecoderScratch,
) -> (Vec<u64>, [u64; 5]) {
    let recorder = Recorder::attached();
    scratch.set_recorder(&recorder);
    let mut out = vec![0u64; lists.len().div_ceil(64)];
    decoder.decode_batch(lists, scratch, &mut out);
    let counters = [
        Metric::UfGrowthSteps,
        Metric::UfTouchedNodes,
        Metric::UfOddClusterPeak,
        Metric::MwpmBlossomCalls,
        Metric::MwpmMatchingEdges,
    ]
    .map(|m| recorder.value(m));
    (out, counters)
}

/// One scratch handed both decoders in turn on d = 7, 3 and 5 graphs
/// (largest first, so later graphs use part of its grown buffers) must
/// predict and count exactly as a fresh scratch per batch does.
#[test]
fn one_scratch_serves_both_decoders_on_every_graph() {
    let mut rng = SmallRng::seed_from_u64(4);
    let mut shared = DecoderScratch::new();
    for d in [7usize, 3, 5] {
        let graph = graph_for(d, 2e-3);
        for kind in DecoderKind::ALL {
            let decoder = kind.build(&graph);
            let lists = random_defect_lists(&mut rng, 150, graph.num_nodes());
            let fresh = batch_recorded(decoder.as_ref(), &lists, &mut DecoderScratch::new());
            let reused = batch_recorded(decoder.as_ref(), &lists, &mut shared);
            assert_eq!(reused, fresh, "{kind} d{d}");
            assert!(fresh.1.iter().any(|&c| c > 0), "{kind} d{d}: no counters");
        }
    }
}
