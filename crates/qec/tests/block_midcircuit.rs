//! Mid-circuit block behavior: boundary noise really is excluded, and
//! the resulting per-round rates are quantitative (below the
//! full-experiment rate, suppressed with distance).

use vlq_circuit::ir::Instruction;
use vlq_qec::{BlockConfig, BlockSpec, Boundary, DecoderKind, Parallelism, PreparedBlock};
use vlq_surface::schedule::{Basis, MemorySpec, Setup};
use vlq_telemetry::Recorder;

fn prepared(setup: Setup, d: usize, k: usize, p: f64, boundary: Boundary) -> PreparedBlock {
    let spec = BlockSpec {
        memory: MemorySpec::standard(setup, d, k, Basis::Z),
        boundary,
    };
    PreparedBlock::prepare(&BlockConfig::new(spec, p).with_decoder(DecoderKind::UnionFind))
}

fn run(block: &PreparedBlock, shots: u64, seed: u64) -> u64 {
    block.run(shots, seed, &Parallelism::serial(), &Recorder::disabled())
}

fn noise_mass(block: &PreparedBlock) -> f64 {
    block
        .noisy
        .instructions
        .iter()
        .map(|i| match *i {
            Instruction::Noise1 { p, .. } | Instruction::Noise2 { p, .. } => p,
            Instruction::Measure { flip_prob, .. } => flip_prob,
            _ => 0.0,
        })
        .sum()
}

/// Each boundary mode strips exactly its ideal end's fault sites: the
/// instruction stream, detector schedule, and decoder-graph node set
/// are identical across modes, but the total noise mass is strictly
/// ordered Full > Prep, Readout > MidCircuit > 0.
#[test]
fn boundary_modes_share_structure_and_order_noise_mass() {
    for setup in [
        Setup::Baseline,
        Setup::NaturalInterleaved,
        Setup::CompactInterleaved,
    ] {
        let get = |b: Boundary| prepared(setup, 3, 3, 2e-3, b);
        let (full, prep, readout, mid) = (
            get(Boundary::Full),
            get(Boundary::Prep),
            get(Boundary::Readout),
            get(Boundary::MidCircuit),
        );
        // Same ideal structure: detectors and graph nodes don't move.
        for b in [&prep, &readout, &mid] {
            assert_eq!(
                b.memory.circuit.detectors.len(),
                full.memory.circuit.detectors.len()
            );
            assert_eq!(b.graph.num_nodes(), full.graph.num_nodes(), "{setup}");
        }
        // Strictly ordered noise mass.
        let (mf, mp, mr, mm) = (
            noise_mass(&full),
            noise_mass(&prep),
            noise_mass(&readout),
            noise_mass(&mid),
        );
        // Readout always carries measurement noise, so stripping it is
        // strict; the prep section can be noiseless (baseline-Z prep is
        // bare resets with p_reset = 0), so those comparisons are >=.
        assert!(mf > mp, "{setup}: full {mf} !> prep {mp}");
        assert!(
            mf >= mr && mr > mm,
            "{setup}: full {mf} >= readout {mr} > mid {mm} violated"
        );
        assert!(mp >= mm, "{setup}: prep {mp} !>= mid {mm}");
        assert!(mf > mm, "{setup}: full {mf} !> mid {mm}");
        assert!(mm > 0.0, "{setup}: mid-circuit body must still be noisy");
        // No fault escapes the decoder in any mode (ideal boundaries
        // keep every remaining fault detectable).
        for boundary in Boundary::ALL {
            assert_eq!(
                get(boundary).graph.undetectable_logical_mass,
                0.0,
                "{setup} {boundary}: undetectable logical faults"
            );
        }
    }
}

/// The redesign's acceptance property: the *per-round* mid-circuit
/// logical error rate sits strictly below the full memory-experiment
/// rate at the same `(d, p)` — short exposures no longer pay the
/// prep/readout boundary tax.
#[test]
fn per_round_mid_circuit_rate_is_below_full_experiment_rate() {
    let shots = 20_000u64;
    for (setup, k, p) in [
        (Setup::Baseline, 1usize, 3e-3),
        (Setup::NaturalInterleaved, 3, 3e-3),
    ] {
        let full = run(&prepared(setup, 3, k, p, Boundary::Full), shots, 2020);
        let mid = run(&prepared(setup, 3, k, p, Boundary::MidCircuit), shots, 2020);
        let full_rate = full as f64 / shots as f64;
        let per_round_mid = (mid as f64 / shots as f64) / 3.0;
        assert!(
            per_round_mid < full_rate,
            "{setup}: per-round mid {per_round_mid:.4e} !< full {full_rate:.4e}"
        );
        // The whole-block rate is below the full experiment too (same
        // rounds, strictly less noise).
        assert!(mid < full, "{setup}: mid block {mid} !< full {full}");
    }
}

/// Mid-circuit per-round rates keep the fundamental QEC property at
/// the paper's operating point: deeper codes are better, p = 1e-3.
#[test]
fn per_round_mid_circuit_rate_decreases_with_distance() {
    let shots = 60_000u64;
    let p = 1e-3;
    let rate = |d: usize| {
        let failures = run(
            &prepared(Setup::Baseline, d, 1, p, Boundary::MidCircuit),
            shots,
            7,
        );
        (failures as f64 / shots as f64) / d as f64
    };
    let (r3, r5) = (rate(3), rate(5));
    assert!(
        r3 > r5,
        "per-round mid-circuit rate must fall with d: d3 {r3:.4e} !> d5 {r5:.4e}"
    );
}
