//! Golden pins for the raw sampled detector/observable words.
//!
//! The single-circuit pins were captured immediately before the batched
//! sample→decode refactor (scratch-reusing `SampleScratch` pipeline +
//! word-level gauge randomization). The scratch path and the word-XOR
//! gauge kernel must draw the same RNG words in the same order and pack
//! the same bits; these values pin that on a real memory circuit
//! (CompactInterleaved, which exercises SWAP-based load/store and gauge
//! randomization). The digest widens the pin to every setup, basis and
//! boundary window, four lane counts (tail words included) and a
//! hand-built circuit with every gate variant and channels at p = 0 and
//! p = 1; it was captured from the per-instruction interpreter, before
//! sampling ran on compiled tapes. The test lives in `vlq-qec` rather
//! than `vlq-circuit` because building a realistic circuit needs the
//! surface/arch layers above it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vlq_arch::params::HardwareParams;
use vlq_circuit::exec::{sample_batch, BatchResult, SampleScratch, SampleTape};
use vlq_circuit::noise::NoiseModel;
use vlq_circuit::{Circuit, GateClass, Instruction, Medium};
use vlq_sim::CliffordGate;
use vlq_surface::schedule::{memory_circuit, Basis, Boundary, MemorySpec, Setup};

const LANES: usize = 130;
const SEED: u64 = 77;
const DETECTORS: usize = 24;
const WORDS_PER_DETECTOR: usize = 3;
const FINGERPRINT: u64 = 11840796706460355150;
const DET0: [u64; 3] = [1206964975013265424, 72067627148738592, 0];
const DET7: [u64; 3] = [2305878797599129601, 4506348448788481, 0];
const OBS0: [u64; 3] = [13430562195096216577, 2974663481700459073, 0];
/// Captured before the sampler was compiled into a tape.
const SWEEP_DIGEST: u64 = 0xc497_3bf8_bfcb_ed79;

fn noisy_circuit() -> vlq_circuit::ir::Circuit {
    let spec = MemorySpec::standard(Setup::CompactInterleaved, 3, 4, Basis::Z);
    let mc = memory_circuit(spec, &HardwareParams::with_memory());
    NoiseModel::memory_at_scale(4e-3).apply(&mc.circuit)
}

fn fingerprint(res: &BatchResult) -> u64 {
    let mut acc = 0u64;
    for d in 0..res.num_detectors() {
        for (w, &word) in res.detector_words(d).iter().enumerate() {
            acc = acc
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(word ^ (d as u64) ^ ((w as u64) << 32));
        }
    }
    acc
}

#[test]
fn sample_batch_words_match_pre_refactor_bits() {
    let noisy = noisy_circuit();
    let mut rng = SmallRng::seed_from_u64(SEED);
    let res = sample_batch(&noisy, LANES, &mut rng);
    assert_eq!(res.num_detectors(), DETECTORS);
    assert_eq!(res.detector_words(0).len(), WORDS_PER_DETECTOR);
    assert_eq!(fingerprint(&res), FINGERPRINT);
    assert_eq!(res.detector_words(0), DET0);
    assert_eq!(res.detector_words(7), DET7);
    assert_eq!(res.observable_words(0), OBS0);
}

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

/// One noisy circuit per setup × basis × boundary window at d = 3.
fn memory_circuits() -> Vec<Circuit> {
    let mut circuits = Vec::new();
    for setup in Setup::ALL {
        let (k, noise) = if setup.uses_memory() {
            (4, NoiseModel::memory_at_scale(4e-3))
        } else {
            (1, NoiseModel::baseline_at_scale(4e-3))
        };
        for basis in [Basis::Z, Basis::X] {
            let mc = memory_circuit(MemorySpec::standard(setup, 3, k, basis), &noise.hw);
            for boundary in Boundary::ALL {
                let (start, end) = mc.noise_window(boundary);
                circuits.push(noise.apply_window(&mc.circuit, start, end));
            }
        }
    }
    circuits
}

/// Every `CliffordGate` variant, an idle marker and a reset, with
/// one- and two-qubit channels and readout flips at p = 0, 0.1 and 1.
fn hand_built_circuit() -> Circuit {
    let mut c = Circuit::new(4);
    let noise1 = |c: &mut Circuit, qubit, p| c.instructions.push(Instruction::Noise1 { qubit, p });
    let noise2 = |c: &mut Circuit, a, b, p| c.instructions.push(Instruction::Noise2 { a, b, p });
    let measure = |c: &mut Circuit, qubit, flip_prob| {
        c.instructions
            .push(Instruction::Measure { qubit, flip_prob });
    };
    noise1(&mut c, 0, 1.0);
    noise1(&mut c, 1, 0.0);
    noise2(&mut c, 2, 3, 1.0);
    noise2(&mut c, 0, 1, 0.0);
    for gate in [
        CliffordGate::H(0),
        CliffordGate::S(1),
        CliffordGate::SDag(2),
        CliffordGate::X(3),
        CliffordGate::Y(0),
        CliffordGate::Z(1),
        CliffordGate::Cnot(0, 2),
        CliffordGate::Cz(1, 3),
        CliffordGate::Swap(2, 1),
        CliffordGate::ISwap(3, 0),
    ] {
        c.gate(gate, GateClass::OneQubit);
        noise1(&mut c, gate.qubits().0, 0.1);
    }
    c.idle(2, 1e-6, Medium::Cavity);
    noise2(&mut c, 3, 1, 0.1);
    measure(&mut c, 0, 0.0);
    measure(&mut c, 1, 1.0);
    measure(&mut c, 2, 0.1);
    c.reset(2);
    c.gate(CliffordGate::H(2), GateClass::OneQubit);
    c.gate(CliffordGate::ISwap(2, 3), GateClass::OneQubit);
    measure(&mut c, 3, 0.0);
    measure(&mut c, 2, 0.0);
    c.detector(vec![0], (0, 0, 0));
    c.detector(vec![1, 2], (0, 0, 0));
    c.detector(vec![2, 3, 4], (0, 0, 0));
    c.detector(vec![4, 4, 1], (0, 0, 0));
    c.observable(vec![0, 3]);
    c.observable(vec![2]);
    c.check().unwrap();
    c
}

/// Every detector and observable word, and the next draw of the RNG,
/// of 40 memory circuits and one hand-built circuit at 1024, 1000, 65
/// and 1 lanes under two seeds each.
#[test]
fn sampled_words_match_digest_across_setups_boundaries_and_lane_counts() {
    let mut circuits = memory_circuits();
    circuits.push(hand_built_circuit());
    let mut digest = Fnv::new();
    for circuit in &circuits {
        for lanes in [1024usize, 1000, 65, 1] {
            for seed in [7u64, 2020] {
                let mut rng = SmallRng::seed_from_u64(seed);
                let res = sample_batch(circuit, lanes, &mut rng);
                res.words().iter().for_each(|&w| digest.word(w));
                digest.word(rng.random());
            }
        }
    }
    assert_eq!(
        digest.0, SWEEP_DIGEST,
        "sampled words moved: got {:#018x}",
        digest.0
    );
}

#[test]
fn reused_sample_scratch_matches_pins_after_other_batches() {
    // A scratch that already sampled other batch shapes (different lane
    // counts, stale accumulator contents) must still reproduce the
    // pinned words exactly: reuse may never leak state across batches.
    let tape = SampleTape::compile(&noisy_circuit());
    let mut scratch = SampleScratch::new();
    for warm_lanes in [7usize, 192, 130] {
        let mut rng = SmallRng::seed_from_u64(99);
        tape.sample_into(warm_lanes, &mut rng, &mut scratch);
    }
    let mut rng = SmallRng::seed_from_u64(SEED);
    tape.sample_into(LANES, &mut rng, &mut scratch);
    let res = &scratch.result;
    assert_eq!(fingerprint(res), FINGERPRINT);
    assert_eq!(res.detector_words(0), DET0);
    assert_eq!(res.detector_words(7), DET7);
    assert_eq!(res.observable_words(0), OBS0);
}
