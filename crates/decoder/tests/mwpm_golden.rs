//! Golden digests of MWPM decoding on the fig11 benchmark grid and on
//! the interleaved VLQ embeddings.
//!
//! The fig11 graphs are fig11's defaults (baseline setup, basis Z,
//! k = 10, `Boundary::Full`) at d ∈ {3, 5, 7} × p ∈ {2e-3, 5e-3, 8e-3}.
//! The interleaved graphs are natural-int and compact-int (k = 10,
//! `Boundary::Full`) in both bases at d ∈ {3, 5}, p = 3e-3, whose
//! memory-circuit graphs have other shapes and weights. Each graph
//! decodes one 1024-lane batch sampled at a fixed seed. Each grid pins
//! two digests over its batches: one of the predicted flips (the packed
//! `decode_batch` words), and one of each shot's matching weight in the
//! integer units the matcher minimises.
//!
//! The matcher may break ties between equal-weight matchings however it
//! likes, so a change of matcher may move the flip digest, but never the
//! weight digest: a different weight means a matching that is not
//! minimum. Any re-pin of the flip digest states the number of shots it
//! changed and that their weights were equal.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use vlq_circuit::exec::{SampleScratch, SampleTape};
use vlq_circuit::noise::NoiseModel;
use vlq_decoder::{Decoder, DecoderScratch, DecodingGraph, MwpmDecoder, MwpmScratch};
use vlq_surface::schedule::{memory_circuit, Basis, Boundary, MemorySpec, Setup};

const LANES: usize = 1024;

/// Weight digest, captured from the earlier `BTreeMap` blossom matcher
/// on the complete instance (every pair of boundary copies joined). The
/// index-addressed matcher reproduced it, and so did pruning dominated
/// pairs and the gain instance on the defects alone.
const WEIGHT_DIGEST: u64 = 0x2eef_509d_22dc_c04c;
/// Flip digest. The index-addressed matcher reproduced the old one
/// (`0xe0b9_7a7b_f5f0_48d2`) bit for bit. Pruning dominated pairs
/// changed the prediction of 1 of the 9,216 shots (d=7, p=8e-3), a tie
/// between matchings of equal integer weight (re-pinned to
/// `0xc5a2_f05d_291d_f7eb`). The gain instance changed 1 other shot
/// (d=7, p=8e-3, lane 962, 25 defects), again at equal integer weight,
/// and this is its re-pin.
const FLIP_DIGEST: u64 = 0xd609_3bdb_21a9_bdb7;
/// Shots pinned per digest, and the total defect count they decode.
const SHOTS: usize = 9 * LANES;
const DEFECTS: usize = 62_559;

/// Interleaved-grid weight digest, captured from the 2m-node instance
/// (every defect plus a boundary copy).
const INTERLEAVED_WEIGHT_DIGEST: u64 = 0x5d8c_1e06_90b8_3e62;
/// Interleaved-grid flip digest, captured with the weight digest.
const INTERLEAVED_FLIP_DIGEST: u64 = 0x2581_e4fc_fdc7_6f08;
const INTERLEAVED_SHOTS: usize = 8 * LANES;
const INTERLEAVED_DEFECTS: usize = 42_719;

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

/// One grid point (k = 10, `Boundary::Full`): its guard-sector graph
/// and one sampled batch's per-lane defect lists.
fn sampled_point(
    setup: Setup,
    basis: Basis,
    d: usize,
    p: f64,
    seed: u64,
) -> (DecodingGraph, Vec<Vec<usize>>, Vec<u64>) {
    let noise = if setup.uses_memory() {
        NoiseModel::memory_at_scale(p)
    } else {
        NoiseModel::baseline_at_scale(p)
    };
    let mc = memory_circuit(MemorySpec::standard(setup, d, 10, basis), &noise.hw);
    let (start, end) = mc.noise_window(Boundary::Full);
    let noisy = noise.apply_window(&mc.circuit, start, end);
    let graph = DecodingGraph::build(&noisy, mc.guard_detectors());
    let mut scratch = SampleScratch::new();
    SampleTape::compile(&noisy).sample_into(
        LANES,
        &mut SmallRng::seed_from_u64(seed),
        &mut scratch,
    );
    let (mut lists, mut live) = (Vec::new(), Vec::new());
    scratch
        .result
        .defect_lists_into(mc.guard_detectors(), LANES, &mut lists, &mut live);
    (graph, lists, live)
}

/// Flip and weight digests of a grid's decodes, with its shot and
/// defect counts. Point `i` samples at seed `seed + i`; every lane is
/// decoded by `decode_batch` and again by `decode_detailed_with`, which
/// must agree.
struct Digests {
    flips: u64,
    weights: u64,
    shots: usize,
    defects: usize,
}

fn decode_grid(points: &[(Setup, Basis, usize, f64)], seed: u64) -> Digests {
    let mut flips = Fnv::new();
    let mut weights = Fnv::new();
    let (mut shots, mut defects) = (0, 0);
    for (&(setup, basis, d, p), seed) in points.iter().zip(seed..) {
        let (graph, lists, live) = sampled_point(setup, basis, d, p, seed);
        let decoder = MwpmDecoder::new(&graph);
        let mut batch_scratch = DecoderScratch::new();
        let mut words = vec![0u64; LANES / 64];
        decoder.decode_batch(&lists, &live, &mut batch_scratch, &mut words);
        for &w in &words {
            flips.word(w);
        }
        let mut scratch = MwpmScratch::new();
        for (lane, lane_defects) in lists.iter().enumerate() {
            let out = decoder.decode_detailed_with(lane_defects, &mut scratch);
            assert_eq!(
                out.flip,
                words[lane / 64] >> (lane % 64) & 1 == 1,
                "{setup} {basis:?} d{d} p{p:e} lane {lane}: decode_batch disagrees with decode_detailed_with"
            );
            weights.word(out.scaled_weight as u64);
            shots += 1;
            defects += lane_defects.len();
        }
    }
    Digests {
        flips: flips.0,
        weights: weights.0,
        shots,
        defects,
    }
}

#[test]
fn fig11_grid_decodes_match_golden() {
    let mut points = Vec::new();
    for d in [3usize, 5, 7] {
        for p in [2e-3, 5e-3, 8e-3] {
            points.push((Setup::Baseline, Basis::Z, d, p));
        }
    }
    let got = decode_grid(&points, 2020);
    assert_eq!(
        (got.shots, got.defects),
        (SHOTS, DEFECTS),
        "sampled workload moved"
    );
    assert_eq!(
        got.weights, WEIGHT_DIGEST,
        "matching weights moved: got {:#018x}",
        got.weights
    );
    assert_eq!(
        got.flips, FLIP_DIGEST,
        "predicted flips moved: got {:#018x}",
        got.flips
    );
}

#[test]
fn interleaved_grid_decodes_match_golden() {
    let mut points = Vec::new();
    for setup in [Setup::NaturalInterleaved, Setup::CompactInterleaved] {
        for basis in [Basis::Z, Basis::X] {
            for d in [3usize, 5] {
                points.push((setup, basis, d, 3e-3));
            }
        }
    }
    let got = decode_grid(&points, 4040);
    assert_eq!(
        (got.shots, got.defects),
        (INTERLEAVED_SHOTS, INTERLEAVED_DEFECTS),
        "sampled workload moved"
    );
    assert_eq!(
        got.weights, INTERLEAVED_WEIGHT_DIGEST,
        "matching weights moved: got {:#018x}",
        got.weights
    );
    assert_eq!(
        got.flips, INTERLEAVED_FLIP_DIGEST,
        "predicted flips moved: got {:#018x}",
        got.flips
    );
}
