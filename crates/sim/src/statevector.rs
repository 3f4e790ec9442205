//! Dense state-vector simulator for small systems.
//!
//! Supports arbitrary single- and two-qubit unitaries plus the shared
//! [`CliffordGate`] vocabulary, measurement, post-selection, and fidelity
//! computations. Capacity is capped at [`StateVector::MAX_QUBITS`] qubits
//! (the distance-3 transversal-CNOT tomography needs 18).

use crate::CliffordGate;
use vlq_pauli::{Pauli, PauliString};

/// A complex number (we avoid external dependencies for this small need).
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl C64 {
    /// Zero.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> C64 {
        C64 { re, im }
    }

    /// Complex conjugate.
    pub fn conj(self) -> C64 {
        C64::new(self.re, -self.im)
    }

    /// Squared magnitude.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }
}

impl std::ops::Add for C64 {
    type Output = C64;
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for C64 {
    type Output = C64;
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for C64 {
    type Output = C64;
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl std::ops::Mul<f64> for C64 {
    type Output = C64;
    fn mul(self, rhs: f64) -> C64 {
        C64::new(self.re * rhs, self.im * rhs)
    }
}

impl std::ops::Neg for C64 {
    type Output = C64;
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

/// A dense pure state on `n` qubits.
///
/// Qubit 0 is the least-significant bit of the basis-state index.
///
/// # Examples
///
/// ```
/// use vlq_sim::{CliffordGate, StateVector};
///
/// let mut sv = StateVector::new(2);
/// sv.apply(CliffordGate::H(0));
/// sv.apply(CliffordGate::Cnot(0, 1));
/// let p = sv.probability_of_bit(1, true);
/// assert!((p - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct StateVector {
    n: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// Maximum supported qubit count (memory ~ 16 B * 2^n).
    pub const MAX_QUBITS: usize = 22;

    /// Creates `|0...0>` on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n > Self::MAX_QUBITS`.
    pub fn new(n: usize) -> Self {
        assert!(
            n <= Self::MAX_QUBITS,
            "statevector limited to {} qubits",
            Self::MAX_QUBITS
        );
        let mut amps = vec![C64::ZERO; 1usize << n];
        amps[0] = C64::ONE;
        StateVector { n, amps }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Borrow the amplitudes (length `2^n`).
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Applies an arbitrary single-qubit unitary `[[a, b], [c, d]]`
    /// (row-major: `new0 = a*old0 + b*old1`).
    pub fn apply_1q(&mut self, q: usize, m: [[C64; 2]; 2]) {
        assert!(q < self.n, "qubit {q} out of range");
        let bit = 1usize << q;
        for i in 0..self.amps.len() {
            if i & bit == 0 {
                let j = i | bit;
                let a0 = self.amps[i];
                let a1 = self.amps[j];
                self.amps[i] = m[0][0] * a0 + m[0][1] * a1;
                self.amps[j] = m[1][0] * a0 + m[1][1] * a1;
            }
        }
    }

    /// Applies a Clifford gate.
    pub fn apply(&mut self, gate: CliffordGate) {
        use CliffordGate::*;
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        let o = C64::ZERO;
        let l = C64::ONE;
        match gate {
            H(q) => self.apply_1q(
                q,
                [
                    [C64::new(inv_sqrt2, 0.0), C64::new(inv_sqrt2, 0.0)],
                    [C64::new(inv_sqrt2, 0.0), C64::new(-inv_sqrt2, 0.0)],
                ],
            ),
            S(q) => self.apply_1q(q, [[l, o], [o, C64::I]]),
            SDag(q) => self.apply_1q(q, [[l, o], [o, -C64::I]]),
            X(q) => self.apply_1q(q, [[o, l], [l, o]]),
            Y(q) => self.apply_1q(q, [[o, -C64::I], [C64::I, o]]),
            Z(q) => self.apply_1q(q, [[l, o], [o, -l]]),
            Cnot(c, t) => {
                let bc = 1usize << c;
                let bt = 1usize << t;
                for i in 0..self.amps.len() {
                    if i & bc != 0 && i & bt == 0 {
                        self.amps.swap(i, i | bt);
                    }
                }
            }
            Cz(a, b) => {
                let ba = 1usize << a;
                let bb = 1usize << b;
                for i in 0..self.amps.len() {
                    if i & ba != 0 && i & bb != 0 {
                        self.amps[i] = -self.amps[i];
                    }
                }
            }
            Swap(a, b) => {
                let ba = 1usize << a;
                let bb = 1usize << b;
                for i in 0..self.amps.len() {
                    if i & ba != 0 && i & bb == 0 {
                        self.amps.swap(i, (i & !ba) | bb);
                    }
                }
            }
            ISwap(a, b) => {
                // |01> -> i|10>, |10> -> i|01>.
                let ba = 1usize << a;
                let bb = 1usize << b;
                for i in 0..self.amps.len() {
                    if i & ba != 0 && i & bb == 0 {
                        let j = (i & !ba) | bb;
                        let (x, y) = (self.amps[i], self.amps[j]);
                        self.amps[i] = C64::I * y;
                        self.amps[j] = C64::I * x;
                    }
                }
            }
        }
    }

    /// Applies a sequence of Clifford gates.
    pub fn apply_all<I: IntoIterator<Item = CliffordGate>>(&mut self, gates: I) {
        for g in gates {
            self.apply(g);
        }
    }

    /// Applies `T = diag(1, e^{i pi/4})`.
    pub fn apply_t(&mut self, q: usize) {
        let phase = C64::new(
            std::f64::consts::FRAC_1_SQRT_2,
            std::f64::consts::FRAC_1_SQRT_2,
        );
        self.apply_1q(q, [[C64::ONE, C64::ZERO], [C64::ZERO, phase]]);
    }

    /// Applies a Pauli string (with its phase).
    pub fn apply_pauli(&mut self, p: &PauliString) {
        assert_eq!(p.len(), self.n, "pauli length mismatch");
        for (q, site) in p.iter_support() {
            match site {
                Pauli::X => self.apply(CliffordGate::X(q)),
                Pauli::Y => self.apply(CliffordGate::Y(q)),
                Pauli::Z => self.apply(CliffordGate::Z(q)),
                Pauli::I => {}
            }
        }
        // Global phase from the string's sign: physically irrelevant for
        // state preparation, but kept for exact operator comparisons.
        let ph = match p.phase() {
            0 => C64::ONE,
            1 => C64::I,
            2 => -C64::ONE,
            3 => -C64::I,
            _ => unreachable!(),
        };
        // iter_support applied Y with its own i bookkeeping; compensate so
        // the net operator equals the PauliString exactly.
        let mut y_count = 0usize;
        for q in 0..self.n {
            if p.pauli(q) == Pauli::Y {
                y_count += 1;
            }
        }
        let y_phase = match y_count % 4 {
            0 => C64::ONE,
            1 => C64::I,
            2 => -C64::ONE,
            _ => -C64::I,
        };
        // net = ph / y_phase (Y gates already contributed y_phase).
        let correction = ph * y_phase.conj(); // |y_phase| = 1
        if correction != C64::ONE {
            for a in &mut self.amps {
                *a = correction * *a;
            }
        }
    }

    /// Probability that `qubit` reads the given bit value in the Z basis.
    pub fn probability_of_bit(&self, qubit: usize, value: bool) -> f64 {
        let bit = 1usize << qubit;
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| ((i & bit) != 0) == value)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Projects `qubit` onto the given bit value and renormalizes.
    ///
    /// Returns the probability of that projection. If the probability is
    /// (numerically) zero the state is left unchanged and `0.0` returned.
    pub fn postselect_bit(&mut self, qubit: usize, value: bool) -> f64 {
        let p = self.probability_of_bit(qubit, value);
        if p < 1e-300 {
            return 0.0;
        }
        let bit = 1usize << qubit;
        let scale = 1.0 / p.sqrt();
        for (i, a) in self.amps.iter_mut().enumerate() {
            if ((i & bit) != 0) == value {
                *a = *a * scale;
            } else {
                *a = C64::ZERO;
            }
        }
        p
    }

    /// Measures `qubit` in the Z basis using `r` (uniform in `[0,1)`) to
    /// choose the branch; collapses and returns the outcome.
    pub fn measure_bit(&mut self, qubit: usize, r: f64) -> bool {
        let p1 = self.probability_of_bit(qubit, true);
        let outcome = r < p1;
        self.postselect_bit(qubit, outcome);
        outcome
    }

    /// Inner product `<self|other>`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn inner_product(&self, other: &StateVector) -> C64 {
        assert_eq!(self.n, other.n, "dimension mismatch");
        let mut acc = C64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc = acc + a.conj() * *b;
        }
        acc
    }

    /// Fidelity `|<self|other>|^2`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Expectation value of a Pauli string (must be Hermitian).
    pub fn pauli_expectation(&self, p: &PauliString) -> f64 {
        let mut moved = self.clone();
        moved.apply_pauli(p);
        self.inner_product(&moved).re
    }

    /// L2 norm of the state (should be 1 for valid states).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Projects onto the +1 eigenspace of a Hermitian Pauli operator
    /// (`(I + P)/2`) and renormalizes. Returns the pre-projection
    /// probability of the +1 outcome.
    ///
    /// Used to prepare code states: projecting a product state onto every
    /// stabilizer yields the encoded logical state.
    ///
    /// # Panics
    ///
    /// Panics if the operator's phase is imaginary (not Hermitian).
    pub fn project_pauli_plus(&mut self, p: &PauliString) -> f64 {
        assert!(
            p.phase().is_multiple_of(2),
            "projector requires a Hermitian Pauli"
        );
        let mut moved = self.clone();
        moved.apply_pauli(p);
        for (a, b) in self.amps.iter_mut().zip(moved.amps.iter()) {
            *a = (*a + *b) * 0.5;
        }
        let norm = self.norm();
        if norm < 1e-300 {
            return 0.0;
        }
        let inv = 1.0 / norm;
        for a in &mut self.amps {
            *a = *a * inv;
        }
        norm * norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        PauliString::from_str_sign(s).unwrap()
    }

    #[test]
    fn fresh_state_norm_one() {
        let sv = StateVector::new(3);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
        assert!((sv.probability_of_bit(0, false) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_superposition() {
        let mut sv = StateVector::new(1);
        sv.apply(CliffordGate::H(0));
        assert!((sv.probability_of_bit(0, true) - 0.5).abs() < 1e-12);
        sv.apply(CliffordGate::H(0));
        assert!((sv.probability_of_bit(0, false) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bell_pair_probabilities() {
        let mut sv = StateVector::new(2);
        sv.apply(CliffordGate::H(0));
        sv.apply(CliffordGate::Cnot(0, 1));
        let amps = sv.amplitudes();
        assert!((amps[0b00].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((amps[0b11].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!(amps[0b01].abs() < 1e-12 && amps[0b10].abs() < 1e-12);
    }

    #[test]
    fn iswap_matrix_action() {
        // iSWAP |01> = i |10> (qubit 0 is the low bit: |01> means q0=1).
        let mut sv = StateVector::new(2);
        sv.apply(CliffordGate::X(0)); // state |01> (q1=0, q0=1) = index 1
        sv.apply(CliffordGate::ISwap(0, 1));
        let amps = sv.amplitudes();
        assert!(amps[0b01].abs() < 1e-12);
        assert!((amps[0b10] - C64::I).abs() < 1e-12);
        // iSWAP |11> = |11>.
        let mut sv = StateVector::new(2);
        sv.apply(CliffordGate::X(0));
        sv.apply(CliffordGate::X(1));
        sv.apply(CliffordGate::ISwap(0, 1));
        assert!((sv.amplitudes()[0b11] - C64::ONE).abs() < 1e-12);
    }

    #[test]
    fn iswap_equals_swap_cz_ss() {
        // Verify the decomposition used by the tableau: iSWAP =
        // SWAP · CZ · (S⊗S) (rightmost applied first).
        for basis in 0..4usize {
            let mut a = StateVector::new(2);
            let mut b = StateVector::new(2);
            for q in 0..2 {
                if (basis >> q) & 1 == 1 {
                    a.apply(CliffordGate::X(q));
                    b.apply(CliffordGate::X(q));
                }
            }
            a.apply(CliffordGate::ISwap(0, 1));
            b.apply(CliffordGate::S(0));
            b.apply(CliffordGate::S(1));
            b.apply(CliffordGate::Cz(0, 1));
            b.apply(CliffordGate::Swap(0, 1));
            for i in 0..4 {
                assert!(
                    (a.amplitudes()[i] - b.amplitudes()[i]).abs() < 1e-12,
                    "mismatch at basis {basis}, index {i}"
                );
            }
        }
    }

    #[test]
    fn postselect_and_measure() {
        let mut sv = StateVector::new(2);
        sv.apply(CliffordGate::H(0));
        sv.apply(CliffordGate::Cnot(0, 1));
        let p = sv.postselect_bit(0, true);
        assert!((p - 0.5).abs() < 1e-12);
        assert!((sv.probability_of_bit(1, true) - 1.0).abs() < 1e-12);
        assert!((sv.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn measure_branches() {
        let mut sv = StateVector::new(1);
        sv.apply(CliffordGate::H(0));
        let outcome = sv.measure_bit(0, 0.99); // r > 0.5 -> outcome false
        assert!(!outcome);
        assert!((sv.probability_of_bit(0, false) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pauli_expectation_values() {
        let mut sv = StateVector::new(2);
        sv.apply(CliffordGate::H(0));
        sv.apply(CliffordGate::Cnot(0, 1));
        assert!((sv.pauli_expectation(&ps("+XX")) - 1.0).abs() < 1e-10);
        assert!((sv.pauli_expectation(&ps("+ZZ")) - 1.0).abs() < 1e-10);
        assert!((sv.pauli_expectation(&ps("+YY")) + 1.0).abs() < 1e-10);
        assert!(sv.pauli_expectation(&ps("+ZI")).abs() < 1e-10);
    }

    #[test]
    fn t_gate_phases() {
        let mut sv = StateVector::new(1);
        sv.apply(CliffordGate::H(0));
        sv.apply_t(0);
        sv.apply_t(0); // T^2 = S
        let mut sv2 = StateVector::new(1);
        sv2.apply(CliffordGate::H(0));
        sv2.apply(CliffordGate::S(0));
        assert!((sv.fidelity(&sv2) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn apply_pauli_exact_operator() {
        // -iY |0> = -i (i|1>) = |1>... check exact amplitude: Y|0> = i|1>.
        let mut sv = StateVector::new(1);
        sv.apply_pauli(&ps("+Y"));
        assert!((sv.amplitudes()[1] - C64::I).abs() < 1e-12);
        let mut sv = StateVector::new(1);
        sv.apply_pauli(&ps("-Y"));
        assert!((sv.amplitudes()[1] + C64::I).abs() < 1e-12);
        // XZ as a string: phase convention X then Z: (XZ)|0> = X|0> = |1>.
        let mut sv = StateVector::new(1);
        sv.apply_pauli(&ps("+X"));
        assert!((sv.amplitudes()[1] - C64::ONE).abs() < 1e-12);
    }

    #[test]
    fn complex_arithmetic() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        assert_eq!(a * b, C64::new(5.0, 5.0));
        assert_eq!(a + b, C64::new(4.0, 1.0));
        assert_eq!(a.conj(), C64::new(1.0, -2.0));
        assert!((a - a).abs() < 1e-15);
    }
}
