//! The noise-annotation pass.
//!
//! Takes an ideal circuit (gates + idles + measurements) and a hardware
//! model and produces the noisy circuit the Monte-Carlo engine runs:
//! idles become single-qubit Pauli channels with `p = 1 - exp(-dt/T1)`,
//! gates acquire depolarizing channels according to their [`GateClass`],
//! and measurements acquire readout flip probabilities.

use vlq_arch::params::{ErrorRates, HardwareParams};
use vlq_math::stats::idle_error_probability;

use crate::ir::{Circuit, GateClass, Instruction, Medium};

/// Hardware + error-rate bundle driving the noise pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseModel {
    /// Timing parameters.
    pub hw: HardwareParams,
    /// Error rates.
    pub rates: ErrorRates,
}

impl NoiseModel {
    /// Builds a noise model.
    pub fn new(hw: HardwareParams, rates: ErrorRates) -> Self {
        NoiseModel { hw, rates }
    }

    /// The Table-I memory device at error scale `p` (most common choice).
    pub fn memory_at_scale(p: f64) -> Self {
        NoiseModel::new(HardwareParams::with_memory(), ErrorRates::from_scale(p))
    }

    /// The Table-I baseline device at error scale `p`.
    pub fn baseline_at_scale(p: f64) -> Self {
        NoiseModel::new(HardwareParams::baseline(), ErrorRates::from_scale(p))
    }

    /// Error probability of a gate of the given class.
    pub fn gate_error(&self, class: GateClass) -> f64 {
        match class {
            GateClass::OneQubit => self.rates.p_1q,
            GateClass::TwoQubitTT => self.rates.p_2q_tt,
            GateClass::TwoQubitTM => self.rates.p_2q_tm,
            GateClass::LoadStore => self.rates.p_load_store,
        }
    }

    /// Idle error probability for a duration in the given medium.
    pub fn idle_error(&self, duration: f64, medium: Medium) -> f64 {
        let t1 = match medium {
            Medium::Transmon => self.rates.effective_t1_transmon(&self.hw),
            Medium::Cavity => self.rates.effective_t1_cavity(&self.hw),
        };
        idle_error_probability(duration, t1)
    }

    /// Applies the pass, returning a new circuit with noise instructions
    /// inserted and measurement flip probabilities set.
    ///
    /// Rules:
    /// * `Gate` — a depolarizing channel *after* the gate on its qubits
    ///   (`Noise1` for 1q, `Noise2` for 2q classes);
    /// * `Idle` — replaced by `Noise1` with the T1-derived probability;
    /// * `Measure` — `flip_prob` set to `p_measure`;
    /// * `Reset` — followed by `Noise1` with `p_reset` (if nonzero);
    /// * existing `Noise1`/`Noise2` instructions are preserved.
    pub fn apply(&self, ideal: &Circuit) -> Circuit {
        self.apply_window(ideal, 0, ideal.instructions.len())
    }

    /// [`NoiseModel::apply`] restricted to the ideal-instruction index
    /// window `start..end`: instructions outside the window are emitted
    /// *noiselessly* (gates without channels, measurements with
    /// `flip_prob = 0`, idles and pre-existing noise dropped).
    ///
    /// This is how boundary-aware syndrome blocks are built: the
    /// generator marks where prep ends and readout begins, and a block's
    /// `Boundary` chooses the window, so e.g. a mid-circuit block keeps
    /// the full detector schedule while only its syndrome-round body
    /// carries fault sites. `apply_window(c, 0, len)` is exactly
    /// [`NoiseModel::apply`].
    pub fn apply_window(&self, ideal: &Circuit, start: usize, end: usize) -> Circuit {
        let mut out = Circuit::new(ideal.num_qubits);
        out.qubit_meta = ideal.qubit_meta.clone();
        for (index, inst) in ideal.instructions.iter().enumerate() {
            let noisy = index >= start && index < end;
            match *inst {
                Instruction::Gate { gate, class } => {
                    out.instructions.push(Instruction::Gate { gate, class });
                    let p = if noisy { self.gate_error(class) } else { 0.0 };
                    if p > 0.0 {
                        let (a, b) = gate.qubits();
                        match (class, b) {
                            (GateClass::OneQubit, _) | (_, None) => {
                                out.instructions.push(Instruction::Noise1 { qubit: a, p });
                            }
                            (_, Some(b)) => {
                                out.instructions.push(Instruction::Noise2 { a, b, p });
                            }
                        }
                    }
                }
                Instruction::Measure { qubit, .. } => {
                    out.instructions.push(Instruction::Measure {
                        qubit,
                        flip_prob: if noisy { self.rates.p_measure } else { 0.0 },
                    });
                }
                Instruction::Reset { qubit } => {
                    out.instructions.push(Instruction::Reset { qubit });
                    if noisy && self.rates.p_reset > 0.0 {
                        out.instructions.push(Instruction::Noise1 {
                            qubit,
                            p: self.rates.p_reset,
                        });
                    }
                }
                Instruction::Idle {
                    qubit,
                    duration,
                    medium,
                } => {
                    let p = if noisy {
                        self.idle_error(duration, medium)
                    } else {
                        0.0
                    };
                    if p > 0.0 {
                        out.instructions.push(Instruction::Noise1 { qubit, p });
                    }
                }
                noise @ (Instruction::Noise1 { .. } | Instruction::Noise2 { .. }) => {
                    if noisy {
                        out.instructions.push(noise);
                    }
                }
            }
        }
        out.detectors = ideal.detectors.clone();
        out.observables = ideal.observables.clone();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlq_sim::CliffordGate;

    #[test]
    fn pass_inserts_gate_noise() {
        let mut c = Circuit::new(2);
        c.gate(CliffordGate::H(0), GateClass::OneQubit);
        c.gate(CliffordGate::Cnot(0, 1), GateClass::TwoQubitTT);
        let noisy = NoiseModel::baseline_at_scale(1e-3).apply(&c);
        let noise: Vec<&Instruction> = noisy
            .instructions
            .iter()
            .filter(|i| matches!(i, Instruction::Noise1 { .. } | Instruction::Noise2 { .. }))
            .collect();
        assert_eq!(noise.len(), 2);
        match noise[0] {
            Instruction::Noise1 { qubit: 0, p } => assert!((p - 1e-4).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
        match noise[1] {
            Instruction::Noise2 { a: 0, b: 1, p } => assert!((p - 1e-3).abs() < 1e-12),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pass_sets_measurement_flip() {
        let mut c = Circuit::new(1);
        c.measure(0);
        let noisy = NoiseModel::baseline_at_scale(5e-3).apply(&c);
        match noisy.instructions[0] {
            Instruction::Measure { flip_prob, .. } => assert!((flip_prob - 5e-3).abs() < 1e-12),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn idle_replaced_by_channel() {
        let mut c = Circuit::new(1);
        c.idle(0, 100e-6, Medium::Transmon); // one T1 -> 1 - 1/e
        let model = NoiseModel::memory_at_scale(2e-3); // t1_scale = 1
        let noisy = model.apply(&c);
        match noisy.instructions[0] {
            Instruction::Noise1 { p, .. } => {
                assert!((p - (1.0 - (-1.0f64).exp())).abs() < 1e-9)
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn cavity_idles_are_gentler_than_transmon() {
        let model = NoiseModel::memory_at_scale(2e-3);
        let p_t = model.idle_error(1e-6, Medium::Transmon);
        let p_c = model.idle_error(1e-6, Medium::Cavity);
        assert!(p_c < p_t);
        assert!((p_t / p_c - 10.0).abs() < 0.1); // ~10x coherence ratio
    }

    #[test]
    fn noiseless_pass_is_identity_plus_flips() {
        let mut c = Circuit::new(2);
        c.gate(CliffordGate::Cnot(0, 1), GateClass::TwoQubitTT);
        c.idle(0, 1e-6, Medium::Cavity);
        c.measure(0);
        let model = NoiseModel::new(HardwareParams::with_memory(), ErrorRates::noiseless());
        let noisy = model.apply(&c);
        let (g, m, _, i, n) = noisy.instruction_census();
        assert_eq!((g, m, i, n), (1, 1, 0, 0));
    }

    #[test]
    fn detectors_preserved() {
        let mut c = Circuit::new(1);
        let m = c.measure(0);
        c.detector(vec![m], (0, 0, 0));
        c.observable(vec![m]);
        let noisy = NoiseModel::baseline_at_scale(1e-3).apply(&c);
        assert_eq!(noisy.detectors.len(), 1);
        assert_eq!(noisy.observables.len(), 1);
        noisy.check().unwrap();
    }
}
