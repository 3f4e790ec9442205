//! The batch driver's bit-identity contract, property-style.
//!
//! `PreparedBlock::run` on workers must return the exact failure count
//! of the serial path — and, with a recorder attached, the
//! byte-identical deterministic telemetry sidecar — at *any* worker
//! count, for every `Boundary` mode, across distances. The batches are
//! independently seeded (`seed.wrapping_add(batch_idx)`) and their
//! counts summed, so the schedule (which worker ran which batch, in
//! what order) can never leak into results; this test is the
//! executable form of that claim. Mirrors
//! `crates/sweep/tests/sharding.rs`.

use vlq_decoder::DecoderKind;
use vlq_qec::{BlockConfig, BlockScratch, BlockSpec, Parallelism, PreparedBlock, LANES_PER_BATCH};
use vlq_surface::schedule::{Basis, Boundary, MemorySpec, Setup};
use vlq_telemetry::{Metric, Recorder};

/// Crosses two full 1024-lane batches into a ragged third, so batch
/// claiming, stealing, and the tail batch are all exercised.
const SHOTS: u64 = 2500;
const SEED: u64 = 7_2020;

/// `block.run` without telemetry.
fn run(block: &PreparedBlock, par: &Parallelism) -> u64 {
    block.run(SHOTS, SEED, par, &Recorder::disabled())
}

fn block_for(d: usize, boundary: Boundary) -> PreparedBlock {
    let memory = MemorySpec::standard(Setup::Baseline, d, 1, Basis::Z);
    let spec = BlockSpec { memory, boundary };
    PreparedBlock::prepare(&BlockConfig::new(spec, 4e-3).with_decoder(DecoderKind::UnionFind))
}

#[test]
fn pooled_failure_counts_and_sidecars_match_serial_everywhere() {
    for d in [3usize, 5, 7] {
        for boundary in Boundary::ALL {
            let block = block_for(d, boundary);
            let serial = run(&block, &Parallelism::serial());
            let serial_rec = Recorder::attached();
            let serial_recorded = block.run(SHOTS, SEED, &Parallelism::serial(), &serial_rec);
            assert_eq!(
                serial, serial_recorded,
                "d{d} {boundary:?}: recording changed counts"
            );
            let serial_sidecar = serial_rec.deterministic_jsonl("pool-determinism", SEED);

            for threads in [1usize, 2, 3, 8] {
                let par = Parallelism::threads(threads);
                assert_eq!(
                    run(&block, &par),
                    serial,
                    "d{d} {boundary:?} threads={threads}: failure counts diverged"
                );
                let rec = Recorder::attached();
                assert_eq!(
                    block.run(SHOTS, SEED, &par, &rec),
                    serial,
                    "d{d} {boundary:?} threads={threads}: recorded counts diverged"
                );
                assert_eq!(
                    rec.deterministic_jsonl("pool-determinism", SEED),
                    serial_sidecar,
                    "d{d} {boundary:?} threads={threads}: sidecar bytes diverged"
                );
            }
        }
    }
}

#[test]
fn pooled_multi_decoder_counts_match_serial() {
    let block = block_for(3, Boundary::Full);
    let uf = DecoderKind::UnionFind.build(&block.graph);
    let mwpm = DecoderKind::Mwpm.build(&block.graph);
    let decoders: [&(dyn vlq_decoder::Decoder + Send + Sync); 2] = [uf.as_ref(), mwpm.as_ref()];
    // Both decoders on the identical defect sets, through the batch
    // driver directly (the shape `compare_decoders` runs).
    let run_both = |par: &Parallelism| {
        let mut counts = [0u64; 2];
        par.run_batches(
            SHOTS,
            &Recorder::disabled(),
            &mut counts,
            BlockScratch::new,
            |scratch, batch, lanes, counts| {
                let words = block.sample_failure_words_into(
                    &decoders,
                    lanes,
                    SEED.wrapping_add(batch),
                    scratch,
                );
                for (count, decoder_words) in counts.iter_mut().zip(words) {
                    *count += decoder_words
                        .iter()
                        .map(|w| u64::from(w.count_ones()))
                        .sum::<u64>();
                }
            },
        );
        counts
    };
    let serial = run_both(&Parallelism::serial());
    for threads in [2usize, 3] {
        let par = Parallelism::threads(threads);
        assert_eq!(
            run_both(&par),
            serial,
            "threads={threads}: multi-decoder counts diverged"
        );
    }
}

/// MWPM's deterministic counters (one matcher call per non-empty
/// defect list, and the edges handed to the matcher) must come out the
/// same whether the shots run serially (`--threads 1`) or on workers.
#[test]
fn mwpm_counters_match_across_thread_counts() {
    let memory = MemorySpec::standard(Setup::Baseline, 5, 1, Basis::Z);
    let block = PreparedBlock::prepare(
        &BlockConfig::new(BlockSpec::full(memory), 5e-3).with_decoder(DecoderKind::Mwpm),
    );
    let run = |threads: usize| {
        let rec = Recorder::attached();
        let failures = block.run(SHOTS, SEED, &Parallelism::threads(threads), &rec);
        (
            failures,
            rec.value(Metric::MwpmBlossomCalls),
            rec.value(Metric::MwpmMatchingEdges),
            rec.deterministic_jsonl("pool-determinism", SEED),
        )
    };
    let serial = run(1);
    let (_, calls, edges, _) = &serial;
    assert!(*calls > 0, "no matcher calls recorded");
    assert!(edges > calls, "matching-edge counter not recorded");
    assert_eq!(run(3), serial, "threads=3 changed MWPM counters or sidecar");
}

#[test]
fn one_thread_means_no_pool() {
    assert_eq!(Parallelism::threads(1).workers(), 1);
    assert_eq!(Parallelism::threads(0).workers(), 1);
    assert_eq!(Parallelism::serial().workers(), 1);
    assert_eq!(Parallelism::threads(4).workers(), 4);
}

/// The `# Panics` contract of `run_batches`: a batch that panics on a
/// worker panics the call, rather than hanging or returning the other
/// batches' partial count.
#[test]
#[should_panic(expected = "batch 2 failed")]
fn a_panicking_batch_panics_the_call() {
    let mut counts = [0u64];
    Parallelism::threads(2).run_batches(
        4 * LANES_PER_BATCH as u64,
        &Recorder::disabled(),
        &mut counts,
        || (),
        |_, batch, lanes, counts| {
            assert_ne!(batch, 2, "batch 2 failed");
            counts[0] += lanes as u64;
        },
    );
}

/// One `Parallelism` serving one block, then another, then the first
/// again must match the serial count every time.
#[test]
fn pool_reuse_across_blocks_stays_identical() {
    let par = Parallelism::threads(2);
    let a = block_for(3, Boundary::MidCircuit);
    let b = block_for(5, Boundary::Prep);
    let serial_a = run(&a, &Parallelism::serial());
    let serial_b = run(&b, &Parallelism::serial());
    assert_eq!(run(&a, &par), serial_a);
    assert_eq!(run(&b, &par), serial_b);
    assert_eq!(run(&a, &par), serial_a);
}
