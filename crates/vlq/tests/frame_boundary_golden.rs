//! Golden pins for the `FrameExecutor` replay under its default
//! `Boundary::MidCircuit` mode.
//!
//! The pins were captured from commit d245d4e, before the frame path's
//! batch loop moved onto the shared `Parallelism` driver: the replay
//! must keep its per-exposure block seeds, its batch seeds and its
//! block accounting bit-for-bit.

use vlq::decoder::DecoderKind;
use vlq::exec::{memory_schedule, Executor, FrameExecutor};
use vlq::machine::MachineConfig;
use vlq::program::{compile, LogicalCircuit};

#[test]
fn mid_circuit_ghz3_counts_are_pinned() {
    let compiled = compile(&LogicalCircuit::ghz(3), MachineConfig::compact_demo()).unwrap();
    let report = FrameExecutor::at_scale(5e-3)
        .with_shots(2000)
        .with_seed(17)
        .run(&compiled.schedule)
        .unwrap();
    assert_eq!(report.failures, 1965);
    assert_eq!(report.blocks_per_shot, 26);
}

#[test]
fn mid_circuit_memory_schedule_counts_are_pinned() {
    let schedule = memory_schedule(MachineConfig::compact_demo(), 10);
    let report = FrameExecutor::at_scale(3e-3)
        .with_shots(3000)
        .with_seed(5)
        .run(&schedule)
        .unwrap();
    assert_eq!(report.failures, 1301);
    assert_eq!(report.blocks_per_shot, 12);
}

#[test]
fn mid_circuit_teleport_counts_are_pinned() {
    // Teleport exercises surgery CNOTs, magic-state consumption, and
    // measurement: every exposure kind of the replay.
    let compiled = compile(&LogicalCircuit::teleport(), MachineConfig::compact_demo()).unwrap();
    let report = FrameExecutor::at_scale(4e-3)
        .with_shots(2000)
        .with_seed(23)
        .with_decoder(DecoderKind::Mwpm)
        .run(&compiled.schedule)
        .unwrap();
    assert_eq!(report.failures, 1858);
    assert_eq!(report.blocks_per_shot, 37);
}
