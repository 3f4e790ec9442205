//! The frame path's pool parity: `FramePrepared::run` on in-call
//! workers must reproduce the serial failure counts exactly —
//! including the committed golden pins — because per-exposure batch
//! seeds depend only on the batch index, never on which worker ran it.
//! Its scratch must not matter either: one `FrameScratch` serves any
//! preparation with the counts a fresh one gives.

use vlq::exec::{FramePrepared, FrameScratch};
use vlq::machine::MachineConfig;
use vlq::program::{compile, LogicalCircuit};
use vlq::qec::{Boundary, DecoderKind, Parallelism};
use vlq_telemetry::{Metric, Recorder};

#[test]
fn pooled_frame_runs_match_serial_and_golden_pins() {
    let compiled = compile(&LogicalCircuit::ghz(3), MachineConfig::compact_demo()).unwrap();
    for boundary in [Boundary::Full, Boundary::MidCircuit] {
        let prepared = FramePrepared::new(
            compiled.schedule.clone(),
            5e-3,
            DecoderKind::UnionFind,
            boundary,
        );
        let run = |par: Parallelism| prepared.run(2000, 17, &par, &Recorder::disabled());
        let serial = run(Parallelism::serial());
        for threads in [2usize, 3] {
            assert_eq!(
                run(Parallelism::threads(threads)),
                serial,
                "{boundary:?} threads={threads}: frame failure counts diverged"
            );
        }
        if boundary == Boundary::MidCircuit {
            // The ghz3 golden pin (frame_boundary_golden.rs) must hold
            // pooled as well as serial.
            assert_eq!(serial, 1965);
        }
    }
}

/// One `FrameScratch` handed batches of a d = 5 and a d = 3
/// preparation in turn (largest first, with both decoders) must count
/// exactly what a fresh scratch per batch counts.
#[test]
fn one_frame_scratch_serves_preparations_of_different_distance() {
    let prepare = |d: usize, decoder: DecoderKind| {
        let config = MachineConfig {
            d,
            ..MachineConfig::compact_demo()
        };
        let compiled = compile(&LogicalCircuit::ghz(2), config).unwrap();
        FramePrepared::new(compiled.schedule, 4e-3, decoder, Boundary::MidCircuit)
    };
    let preps = [
        prepare(5, DecoderKind::Mwpm),
        prepare(3, DecoderKind::UnionFind),
        prepare(3, DecoderKind::Mwpm),
        prepare(5, DecoderKind::UnionFind),
    ];
    let mut shared = FrameScratch::new();
    let mut failures = 0;
    for seed in 0..3u64 {
        for (i, prep) in preps.iter().enumerate() {
            let fresh = prep.run_batch(200, seed, &mut FrameScratch::new());
            let reused = prep.run_batch(200, seed, &mut shared);
            assert_eq!(reused, fresh, "preparation {i}, seed {seed}");
            failures += fresh;
        }
    }
    assert!(failures > 0, "the replays sampled no failures at all");
}

/// The seven per-instruction-kind block-exposure counters.
const BLOCK_COUNTERS: [Metric; 7] = [
    Metric::ExecRefreshBlocks,
    Metric::ExecLogical1QBlocks,
    Metric::ExecCnotBlocks,
    Metric::ExecSurgeryBlocks,
    Metric::ExecMoveBlocks,
    Metric::ExecMagicBlocks,
    Metric::ExecMeasureBlocks,
];

/// `FramePrepared::run` with a recorder attached: the failure count
/// and the deterministic sidecar bytes are the same on the calling
/// thread and on a three-worker pool, and the block-exposure counters
/// sum to one replay's blocks per shot for each of the four batches.
#[test]
fn recorded_frame_runs_match_across_thread_counts() {
    let compiled = compile(&LogicalCircuit::teleport(), MachineConfig::compact_demo()).unwrap();
    let prepared = FramePrepared::new(
        compiled.schedule,
        4e-3,
        DecoderKind::UnionFind,
        Boundary::MidCircuit,
    );
    let run = |threads: usize| {
        let recorder = Recorder::attached();
        // Three full batches and a ragged fourth.
        let failures = prepared.run(3500, 23, &Parallelism::threads(threads), &recorder);
        let blocks: u64 = BLOCK_COUNTERS.iter().map(|&m| recorder.value(m)).sum();
        (
            failures,
            recorder.value(Metric::ExecMeasureBlocks),
            blocks,
            recorder.deterministic_jsonl("frame-parity", 23),
        )
    };
    let serial = run(1);
    let (failures, measure_blocks, blocks, _) = &serial;
    assert!(*failures > 0, "the replay sampled no failures at all");
    assert!(*measure_blocks > 0, "exposure counters were not recorded");
    assert_eq!(
        *blocks,
        prepared.blocks_per_shot() * 4,
        "the exposure counters disagree with the replay's blocks per shot"
    );
    assert_eq!(run(3), serial, "threads=3 changed the run");
}
