//! Golden pins for the boundary-aware block redesign.
//!
//! The `BlockSpec` → `PreparedBlock` API replaced the old
//! memory-experiment-shaped `PreparedExperiment` sampling core. These
//! values were captured from the pre-redesign implementation (commit
//! 33c23a3) and pin `Boundary::Full` to it *bit-for-bit*: the windowed
//! noise pass over the full window, the wrapper types, and the batch
//! driver must all reproduce the old RNG streams and decode decisions
//! exactly. Any drift here silently invalidates every
//! recorded fig11/fig12 artifact, so these are hard equality pins, not
//! tolerances.

use vlq_qec::{
    compare_decoders, run_memory_experiment, BlockConfig, BlockScratch, BlockSpec, Boundary,
    DecoderKind, ExperimentConfig, PreparedBlock, PreparedExperiment,
};
use vlq_surface::schedule::{Basis, MemorySpec, Setup};

/// One seeded 192-lane batch through the block's own decoder, on a
/// fresh scratch: the packed failure words the pins below record.
fn failure_words(block: &PreparedBlock, seed: u64) -> Vec<u64> {
    let mut scratch = BlockScratch::new();
    block.sample_failure_words_into(&[block.decoder()], 192, seed, &mut scratch)[0].clone()
}

/// One pinned configuration: (setup, d, k, basis, p, seed, expected
/// 192-lane failure words).
type GoldenWordsRow = (Setup, usize, usize, Basis, f64, u64, [u64; 3]);

/// Pre-redesign `PreparedExperiment` failure words (192 lanes, `seed`)
/// outputs for four configurations covering baseline, natural, and
/// compact setups in both bases.
const GOLDEN_WORDS: [GoldenWordsRow; 4] = [
    (
        Setup::Baseline,
        3,
        1,
        Basis::Z,
        5e-3,
        42,
        [2281703744, 4616190184990444128, 9223937736126243328],
    ),
    (
        Setup::NaturalInterleaved,
        3,
        3,
        Basis::Z,
        3e-3,
        7,
        [
            10952754293766096896,
            2305843009755021440,
            4647719282212339744,
        ],
    ),
    (
        Setup::CompactAllAtOnce,
        3,
        4,
        Basis::X,
        4e-3,
        11,
        [
            9225660945186295809,
            4611686031312289864,
            9799885738192408576,
        ],
    ),
    (
        Setup::CompactInterleaved,
        5,
        4,
        Basis::Z,
        2e-3,
        5,
        [9277767077463064578, 1044835117849141250, 144255947042197504],
    ),
];

#[test]
fn full_boundary_failure_words_match_pre_redesign_bits() {
    for (setup, d, k, basis, p, seed, expected) in GOLDEN_WORDS {
        let memory = MemorySpec::standard(setup, d, k, basis);

        // Through the new block API directly...
        let block = PreparedBlock::prepare(
            &BlockConfig::new(BlockSpec::full(memory), p).with_decoder(DecoderKind::UnionFind),
        );
        assert_eq!(
            failure_words(&block, seed),
            expected,
            "PreparedBlock {setup} d{d} k{k} {basis:?}"
        );

        // ...and through the memory-experiment wrapper.
        let wrapped = PreparedExperiment::prepare(
            &ExperimentConfig::new(memory, p).with_decoder(DecoderKind::UnionFind),
        );
        assert_eq!(
            failure_words(&wrapped.block, seed),
            expected,
            "PreparedExperiment {setup} d{d} k{k} {basis:?}"
        );
    }
}

/// One pinned boundary-mode row: (setup, d, k, basis, p, seed, boundary,
/// expected 192-lane failure words).
type GoldenBoundaryRow = (Setup, usize, usize, Basis, f64, u64, Boundary, [u64; 3]);

/// `PreparedBlock` failure words (192 lanes, `seed`) for the same
/// four configurations under *every* [`Boundary`] mode, captured
/// immediately before the batched sample→decode refactor (scratch-reusing
/// decoders + word-level defect extraction). The refactor must be
/// bit-identical: same RNG draws in the same order, same per-lane defect
/// lists, same decode decisions — for windowed noise passes too, where
/// the noiseless prefix/suffix exercises the empty-defect paths.
const GOLDEN_BOUNDARY_WORDS: [GoldenBoundaryRow; 16] = [
    (
        Setup::Baseline,
        3,
        1,
        Basis::Z,
        5e-3,
        42,
        Boundary::Full,
        [2281703744, 4616190184990444128, 9223937736126243328],
    ),
    (
        Setup::Baseline,
        3,
        1,
        Basis::Z,
        5e-3,
        42,
        Boundary::Prep,
        [2281701632, 4616190184990444128, 9223937735589372416],
    ),
    (
        Setup::Baseline,
        3,
        1,
        Basis::Z,
        5e-3,
        42,
        Boundary::Readout,
        [2281703744, 4616190184990444128, 9223937736126243328],
    ),
    (
        Setup::Baseline,
        3,
        1,
        Basis::Z,
        5e-3,
        42,
        Boundary::MidCircuit,
        [2281701632, 4616190184990444128, 9223937735589372416],
    ),
    (
        Setup::NaturalInterleaved,
        3,
        3,
        Basis::Z,
        3e-3,
        7,
        Boundary::Full,
        [
            10952754293766096896,
            2305843009755021440,
            4647719282212339744,
        ],
    ),
    (
        Setup::NaturalInterleaved,
        3,
        3,
        Basis::Z,
        3e-3,
        7,
        Boundary::Prep,
        [
            10952754293766094848,
            2305843009755021440,
            4647719282212339712,
        ],
    ),
    (
        Setup::NaturalInterleaved,
        3,
        3,
        Basis::Z,
        3e-3,
        7,
        Boundary::Readout,
        [279172875394, 9232383687847575624, 38487202463744],
    ),
    (
        Setup::NaturalInterleaved,
        3,
        3,
        Basis::Z,
        3e-3,
        7,
        Boundary::MidCircuit,
        [279172875394, 9223376454233096264, 36288179208192],
    ),
    (
        Setup::CompactAllAtOnce,
        3,
        4,
        Basis::X,
        4e-3,
        11,
        Boundary::Full,
        [
            9225660945186295809,
            4611686031312289864,
            9799885738192408576,
        ],
    ),
    (
        Setup::CompactAllAtOnce,
        3,
        4,
        Basis::X,
        4e-3,
        11,
        Boundary::Prep,
        [
            9225660670308388865,
            4611694818815377480,
            9799885738192408576,
        ],
    ),
    (
        Setup::CompactAllAtOnce,
        3,
        4,
        Basis::X,
        4e-3,
        11,
        Boundary::Readout,
        [2308288361881732868, 576460889779101720, 5800682639295774722],
    ),
    (
        Setup::CompactAllAtOnce,
        3,
        4,
        Basis::X,
        4e-3,
        11,
        Boundary::MidCircuit,
        [2308288361881741060, 576460889779101720, 5800647454923685890],
    ),
    (
        Setup::CompactInterleaved,
        5,
        4,
        Basis::Z,
        2e-3,
        5,
        Boundary::Full,
        [9277767077463064578, 1044835117849141250, 144255947042197504],
    ),
    (
        Setup::CompactInterleaved,
        5,
        4,
        Basis::Z,
        2e-3,
        5,
        Boundary::Prep,
        [9259752678953582594, 1044835117865918466, 144255947042197505],
    ),
    (
        Setup::CompactInterleaved,
        5,
        4,
        Basis::Z,
        2e-3,
        5,
        Boundary::Readout,
        [9237516156581986304, 54613446943571970, 17592188666384],
    ),
    (
        Setup::CompactInterleaved,
        5,
        4,
        Basis::Z,
        2e-3,
        5,
        Boundary::MidCircuit,
        [9255530555091468288, 54612897187758082, 17592188666385],
    ),
];

#[test]
fn all_boundary_modes_failure_words_are_pinned() {
    for (setup, d, k, basis, p, seed, boundary, expected) in GOLDEN_BOUNDARY_WORDS {
        let memory = MemorySpec::standard(setup, d, k, basis);
        let block = PreparedBlock::prepare(
            &BlockConfig::new(BlockSpec { memory, boundary }, p)
                .with_decoder(DecoderKind::UnionFind),
        );
        assert_eq!(
            failure_words(&block, seed),
            expected,
            "{setup} d{d} k{k} {basis:?} {boundary:?}"
        );
    }
}

#[test]
fn run_memory_experiment_matches_pre_redesign_counts() {
    // (setup, d, k, basis, p, failures), all at 4096 shots, seed 99,
    // MWPM. The count is the pre-redesign single-threaded one at every
    // thread count: batches are seeded by index, never by worker.
    let golden: [(Setup, usize, usize, Basis, f64, u64); 3] = [
        (Setup::Baseline, 3, 1, Basis::Z, 5e-3, 476),
        (Setup::NaturalAllAtOnce, 3, 3, Basis::Z, 3e-3, 317),
        (Setup::CompactInterleaved, 3, 4, Basis::X, 4e-3, 517),
    ];
    for (setup, d, k, basis, p, expected) in golden {
        for threads in [1usize, 2, 3, 8] {
            let cfg = ExperimentConfig::new(MemorySpec::standard(setup, d, k, basis), p)
                .with_shots(4096)
                .with_seed(99)
                .with_threads(threads)
                .with_decoder(DecoderKind::Mwpm);
            let res = run_memory_experiment(&cfg);
            assert_eq!(
                res.failures, expected,
                "{setup} d{d} k{k} {basis:?} threads {threads}"
            );
        }
    }
}

#[test]
fn compare_decoders_matches_pre_redesign_counts() {
    let cfg = ExperimentConfig::new(MemorySpec::standard(Setup::Baseline, 3, 1, Basis::Z), 5e-3)
        .with_shots(4096)
        .with_seed(31)
        .with_threads(2);
    let res = compare_decoders(&cfg, &[DecoderKind::Mwpm, DecoderKind::UnionFind]);
    assert_eq!((res[0].failures, res[1].failures), (462, 482));
}

#[test]
fn full_boundary_noise_window_covers_everything() {
    // The Full window must be the whole circuit — that is what makes
    // the bit-for-bit pins above structural rather than coincidental.
    let memory = MemorySpec::standard(Setup::NaturalInterleaved, 3, 3, Basis::Z);
    let block = PreparedBlock::prepare(&BlockConfig::new(BlockSpec::full(memory), 2e-3));
    let (start, end) = block.memory.noise_window(Boundary::Full);
    assert_eq!(start, 0);
    assert_eq!(end, block.memory.circuit.instructions.len());
    // And the block boundaries are recorded strictly inside it.
    assert!(block.memory.prep_end > 0);
    assert!(block.memory.prep_end < block.memory.body_end);
    assert!(block.memory.body_end < end);
}

/// One `BlockScratch` handed blocks of two setups and two boundaries in
/// turn (a d = 5 block first, so the d = 3 ones use part of its grown
/// buffers), each decoded by both decoders, must give the words a
/// fresh scratch gives.
#[test]
fn one_scratch_serves_blocks_of_every_setup_and_boundary() {
    let blocks: Vec<PreparedBlock> = [
        (Setup::CompactInterleaved, 5, 4, Boundary::Full),
        (Setup::Baseline, 3, 1, Boundary::MidCircuit),
        (Setup::CompactInterleaved, 3, 4, Boundary::MidCircuit),
        (Setup::Baseline, 5, 1, Boundary::Full),
    ]
    .into_iter()
    .map(|(setup, d, k, boundary)| {
        let memory = MemorySpec::standard(setup, d, k, Basis::Z);
        PreparedBlock::prepare(&BlockConfig::new(BlockSpec { memory, boundary }, 4e-3))
    })
    .collect();
    let mut shared = BlockScratch::new();
    let mut failures = 0;
    for seed in 0..3u64 {
        for (i, block) in blocks.iter().enumerate() {
            let decoders: Vec<_> = DecoderKind::ALL
                .iter()
                .map(|kind| kind.build(&block.graph))
                .collect();
            let refs: Vec<_> = decoders.iter().map(|d| d.as_ref()).collect();
            let fresh = block
                .sample_failure_words_into(&refs, 192, seed, &mut BlockScratch::new())
                .to_vec();
            let reused = block.sample_failure_words_into(&refs, 192, seed, &mut shared);
            assert_eq!(reused, fresh, "block {i}, seed {seed}");
            failures += fresh.iter().flatten().map(|w| w.count_ones()).sum::<u32>();
        }
    }
    assert!(failures > 0, "the blocks sampled no failures at all");
}
