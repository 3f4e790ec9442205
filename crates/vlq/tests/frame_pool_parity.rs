//! The frame path's pool parity: a `FrameExecutor` with in-block
//! workers attached must reproduce the serial failure counts exactly —
//! including the committed golden pins — because per-exposure batch
//! seeds depend only on the batch index, never on which worker ran it.

use vlq::exec::{Executor, FrameExecutor, FramePrepared};
use vlq::machine::MachineConfig;
use vlq::program::{compile, LogicalCircuit};
use vlq::qec::{Boundary, DecoderKind, Parallelism};
use vlq_telemetry::{Metric, Recorder};

#[test]
fn pooled_frame_runs_match_serial_and_golden_pins() {
    let compiled = compile(&LogicalCircuit::ghz(3), MachineConfig::compact_demo()).unwrap();
    for boundary in [Boundary::Full, Boundary::MidCircuit] {
        let base = FrameExecutor::at_scale(5e-3)
            .with_shots(2000)
            .with_seed(17)
            .with_boundary(boundary);
        let serial = base.clone().run(&compiled.schedule).unwrap();
        for threads in [2usize, 3] {
            let pooled = base
                .clone()
                .with_parallelism(Parallelism::threads(threads))
                .run(&compiled.schedule)
                .unwrap();
            assert_eq!(
                pooled.failures, serial.failures,
                "{boundary:?} threads={threads}: frame failure counts diverged"
            );
        }
        if boundary == Boundary::MidCircuit {
            // The ghz3 golden pin (frame_boundary_golden.rs) must hold
            // pooled as well as serial.
            assert_eq!(serial.failures, 1965);
        }
    }
}

/// `FramePrepared::run` with a recorder attached: the failure count
/// and the deterministic sidecar bytes are the same on the calling
/// thread and on a three-worker pool.
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
        (
            failures,
            recorder.value(Metric::ExecMeasureBlocks),
            recorder.deterministic_jsonl("frame-parity", 23),
        )
    };
    let serial = run(1);
    let (failures, measure_blocks, _) = &serial;
    assert!(*failures > 0, "the replay sampled no failures at all");
    assert!(*measure_blocks > 0, "exposure counters were not recorded");
    assert_eq!(run(3), serial, "threads=3 changed the run");
}
