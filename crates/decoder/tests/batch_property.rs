//! `decode_batch` must be bit-identical to per-lane `decode` — for both
//! decoders, at several distances, wherever its live-lane mask leaves
//! empty lanes out — and one `DecoderScratch` must serve every decoder
//! and graph it is handed exactly as fresh scratch does.

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

/// The live-lane mask of `lists`: bit `l` set when lane `l` has a
/// defect, as `BatchResult::defect_lists_into` fills it.
fn live_mask(lists: &[Vec<usize>]) -> Vec<u64> {
    let mut live = vec![0u64; lists.len().div_ceil(64)];
    for (lane, defects) in lists.iter().enumerate() {
        if !defects.is_empty() {
            live[lane / 64] |= 1u64 << (lane % 64);
        }
    }
    live
}

/// UF's three and MWPM's two Deterministic counters.
const COUNTERS: [Metric; 5] = [
    Metric::UfGrowthSteps,
    Metric::UfTouchedNodes,
    Metric::UfOddClusterPeak,
    Metric::MwpmBlossomCalls,
    Metric::MwpmMatchingEdges,
];

/// Every lane, empty ones included, decoded as `decode` does (in fresh
/// scratch), all under one fresh recorder: the prediction words and the
/// Deterministic counters a batch must match.
fn per_lane_recorded(decoder: &dyn Decoder, lists: &[Vec<usize>]) -> (Vec<u64>, [u64; 5]) {
    let recorder = Recorder::attached();
    let mut out = vec![0u64; lists.len().div_ceil(64)];
    for (lane, defects) in lists.iter().enumerate() {
        let mut scratch = DecoderScratch::new();
        scratch.set_recorder(&recorder);
        if decoder.decode_in(defects, &mut scratch) {
            out[lane / 64] |= 1u64 << (lane % 64);
        }
    }
    (out, COUNTERS.map(|m| recorder.value(m)))
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
    decoder.decode_batch(lists, &live_mask(lists), scratch, &mut out);
    (out, COUNTERS.map(|m| recorder.value(m)))
}

/// Random lists, and batches whose empty lanes come first, come last,
/// fill whole 64-lane words or are every lane: the masked batch skips
/// the empty lanes and must still predict and count exactly as decoding
/// every lane does.
#[test]
fn decode_batch_matches_per_lane_decode() {
    let mut rng = SmallRng::seed_from_u64(2020);
    for d in [3usize, 5, 7] {
        let graph = graph_for(d, 2e-3);
        let n = graph.num_nodes();
        let random = random_defect_lists(&mut rng, 150, n);
        let mut busy = |lanes: usize| -> Vec<Vec<usize>> {
            random_defect_lists(&mut rng, 4 * lanes, n)
                .into_iter()
                .filter(|l| !l.is_empty())
                .take(lanes)
                .collect()
        };
        let empty = |lanes: usize| vec![Vec::new(); lanes];
        let layouts = [
            ("random", random),
            ("empty first", [empty(70), busy(80)].concat()),
            ("empty last", [busy(80), empty(120)].concat()),
            (
                "empty words",
                [busy(64), empty(64), busy(64), empty(64), busy(10)].concat(),
            ),
            ("all empty", empty(130)),
        ];
        for kind in DecoderKind::ALL {
            let decoder = kind.build(&graph);
            // One scratch through every layout twice covers cross-batch
            // reset.
            let mut scratch = DecoderScratch::new();
            for (name, lists) in layouts.iter().chain(&layouts) {
                let want = per_lane_recorded(decoder.as_ref(), lists);
                let got = batch_recorded(decoder.as_ref(), lists, &mut scratch);
                assert_eq!(got, want, "{kind} d{d} {name}");
                let idle = *name == "all empty";
                assert_eq!(want.1.iter().all(|&c| c == 0), idle, "{kind} d{d} {name}");
            }
        }
    }
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
