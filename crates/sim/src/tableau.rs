//! Aaronson-Gottesman (CHP) stabilizer tableau simulator with exact phase
//! tracking.
//!
//! Rows are stored as phase-tracked [`PauliString`]s, so row products use
//! the exact Pauli algebra instead of the traditional 2-bit phase
//! bookkeeping. The simulator supports measurement of arbitrary Pauli
//! observables, which is what schedule validation and logical-operator
//! verification need.
//!
//! Performance note: this engine is used for *verification*, not for
//! Monte Carlo — the bit-parallel [`crate::frame`] engine handles
//! sampling. Tableau operations are `O(n)` per gate and `O(n^2)` per
//! measurement, which is ample for code distances up to ~11.

use vlq_pauli::{Pauli, PauliString};

use crate::CliffordGate;

/// A stabilizer state on `n` qubits in tableau form.
///
/// The tableau holds `n` destabilizer rows and `n` stabilizer rows; row
/// `i` of each set pair up (`destab[i]` anticommutes with `stab[i]` and
/// commutes with every other row).
///
/// # Examples
///
/// ```
/// use vlq_sim::{CliffordGate, Tableau};
/// use vlq_pauli::PauliString;
///
/// // Prepare a Bell pair and check the stabilizers are XX and ZZ.
/// let mut t = Tableau::new(2);
/// t.apply(CliffordGate::H(0));
/// t.apply(CliffordGate::Cnot(0, 1));
/// let xx = PauliString::from_str_sign("+XX").unwrap();
/// let zz = PauliString::from_str_sign("+ZZ").unwrap();
/// assert!(t.is_stabilized_by(&xx));
/// assert!(t.is_stabilized_by(&zz));
/// ```
#[derive(Clone, Debug)]
pub struct Tableau {
    n: usize,
    destab: Vec<PauliString>,
    stab: Vec<PauliString>,
}

/// Outcome of a Pauli measurement on a stabilizer state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MeasureOutcome {
    /// The observable was already determined; the bool is the outcome
    /// (`true` = eigenvalue −1, i.e. classical result 1).
    Deterministic(bool),
    /// The observable was random; the bool is the outcome that was chosen
    /// and projected into.
    Random(bool),
}

impl MeasureOutcome {
    /// The measurement bit regardless of determinism.
    pub fn bit(self) -> bool {
        match self {
            MeasureOutcome::Deterministic(b) | MeasureOutcome::Random(b) => b,
        }
    }
}

impl Tableau {
    /// Creates the all-zeros state `|0...0>` on `n` qubits.
    pub fn new(n: usize) -> Self {
        let destab = (0..n)
            .map(|i| PauliString::single(n, i, Pauli::X))
            .collect();
        let stab = (0..n)
            .map(|i| PauliString::single(n, i, Pauli::Z))
            .collect();
        Tableau { n, destab, stab }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// The current stabilizer generators (signs included).
    pub fn stabilizers(&self) -> &[PauliString] {
        &self.stab
    }

    /// Applies a Clifford gate by conjugating every row.
    pub fn apply(&mut self, gate: CliffordGate) {
        for row in self.destab.iter_mut().chain(self.stab.iter_mut()) {
            conjugate_row(row, gate);
        }
    }

    /// Measures the single-qubit `Z` observable on `qubit`.
    ///
    /// `random_bit` supplies the outcome when the measurement is random
    /// (pass a closure over your RNG, or a constant for post-selection).
    pub fn measure_z(&mut self, qubit: usize, random_bit: impl FnOnce() -> bool) -> MeasureOutcome {
        let obs = PauliString::single(self.n, qubit, Pauli::Z);
        self.measure_pauli(&obs, random_bit)
    }

    /// Resets `qubit` to `|0>` (measure, then flip if needed).
    pub fn reset_z(&mut self, qubit: usize, random_bit: impl FnOnce() -> bool) {
        if self.measure_z(qubit, random_bit).bit() {
            self.apply(CliffordGate::X(qubit));
        }
    }

    /// Measures an arbitrary Pauli observable.
    ///
    /// # Panics
    ///
    /// Panics if `observable` has an imaginary phase (not Hermitian) or a
    /// length other than the qubit count.
    pub fn measure_pauli(
        &mut self,
        observable: &PauliString,
        random_bit: impl FnOnce() -> bool,
    ) -> MeasureOutcome {
        assert_eq!(observable.len(), self.n, "observable length mismatch");
        assert!(
            observable.phase().is_multiple_of(2),
            "observable must be Hermitian (real sign)"
        );
        // Random case: some stabilizer anticommutes with the observable.
        let anti_stab = (0..self.n).find(|&j| self.stab[j].anticommutes_with(observable));
        if let Some(p) = anti_stab {
            let pivot = self.stab[p].clone();
            for i in 0..self.n {
                if i != p && self.stab[i].anticommutes_with(observable) {
                    self.stab[i].mul_assign(&pivot);
                }
                if self.destab[i].anticommutes_with(observable) && (i != p) {
                    self.destab[i].mul_assign(&pivot);
                }
            }
            // The destabilizer paired with row p becomes the old stabilizer.
            self.destab[p] = pivot;
            let outcome = random_bit();
            let mut new_stab = observable.clone();
            if outcome {
                // Negative eigenvalue: multiply sign by -1.
                let minus = minus_identity(self.n);
                new_stab.mul_assign(&minus);
            }
            self.stab[p] = new_stab;
            return MeasureOutcome::Random(outcome);
        }
        // Deterministic case: express the observable as a product of
        // stabilizers using the destabilizer pairing.
        let mut scratch = PauliString::identity(self.n);
        for k in 0..self.n {
            if self.destab[k].anticommutes_with(observable) {
                scratch.mul_assign(&self.stab[k]);
            }
        }
        debug_assert_eq!(
            (scratch.x_plane(), scratch.z_plane()),
            (observable.x_plane(), observable.z_plane()),
            "deterministic observable must lie in the stabilizer group"
        );
        let rel = (scratch.phase() + 4 - observable.phase()) % 4;
        debug_assert!(rel.is_multiple_of(2), "relative phase must be real");
        MeasureOutcome::Deterministic(rel == 2)
    }

    /// Expectation of a Pauli observable: `Some(false)` for +1,
    /// `Some(true)` for −1, `None` when the outcome would be random.
    ///
    /// Does not modify the state.
    pub fn expectation(&self, observable: &PauliString) -> Option<bool> {
        if (0..self.n).any(|j| self.stab[j].anticommutes_with(observable)) {
            return None;
        }
        let mut scratch = PauliString::identity(self.n);
        for k in 0..self.n {
            if self.destab[k].anticommutes_with(observable) {
                scratch.mul_assign(&self.stab[k]);
            }
        }
        let rel = (scratch.phase() + 4 - observable.phase()) % 4;
        Some(rel == 2)
    }

    /// Returns `true` if `observable` (with its sign) is in the stabilizer
    /// group of the state.
    pub fn is_stabilized_by(&self, observable: &PauliString) -> bool {
        self.expectation(observable) == Some(false)
    }

    /// Applies a Pauli string as a gate (deterministic error injection).
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
    }

    /// Internal consistency check: destabilizer/stabilizer pairing and
    /// commutation structure. Used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.n {
            if !self.destab[i].anticommutes_with(&self.stab[i]) {
                return Err(format!("destab[{i}] must anticommute with stab[{i}]"));
            }
            for j in 0..self.n {
                if i != j {
                    if self.destab[i].anticommutes_with(&self.stab[j]) {
                        return Err(format!("destab[{i}] must commute with stab[{j}]"));
                    }
                    if self.stab[i].anticommutes_with(&self.stab[j]) {
                        return Err(format!("stab[{i}] must commute with stab[{j}]"));
                    }
                    if self.destab[i].anticommutes_with(&self.destab[j]) {
                        return Err(format!("destab[{i}] must commute with destab[{j}]"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// `-I` on `n` qubits (used to flip a row's sign).
fn minus_identity(n: usize) -> PauliString {
    PauliString::from_str_sign(&format!("-{}", "I".repeat(n))).expect("valid pauli literal")
}

/// Conjugates a Pauli row by a Clifford gate: `row <- g row g^dag`.
///
/// The row is in the `i^phase * X(a) Z(b)` convention of
/// [`PauliString`]; the update rules below are derived in that
/// convention (see unit tests which cross-check against the state-vector
/// simulator).
pub fn conjugate_row(row: &mut PauliString, gate: CliffordGate) {
    use CliffordGate::*;
    match gate {
        H(q) => {
            let (x, z) = (row.x_plane().get(q), row.z_plane().get(q));
            // X <-> Z, Y -> -Y.
            let p = row.pauli(q);
            row.set_pauli(
                q,
                match p {
                    Pauli::X => Pauli::Z,
                    Pauli::Z => Pauli::X,
                    other => other,
                },
            );
            if x && z {
                flip_sign(row);
            }
        }
        S(q) => {
            // X -> Y, Y -> -X, Z -> Z.
            match row.pauli(q) {
                Pauli::X => row.set_pauli(q, Pauli::Y),
                Pauli::Y => {
                    row.set_pauli(q, Pauli::X);
                    flip_sign(row);
                }
                _ => {}
            }
        }
        SDag(q) => {
            // X -> -Y, Y -> X, Z -> Z.
            match row.pauli(q) {
                Pauli::X => {
                    row.set_pauli(q, Pauli::Y);
                    flip_sign(row);
                }
                Pauli::Y => row.set_pauli(q, Pauli::X),
                _ => {}
            }
        }
        X(q) => {
            if row.z_plane().get(q) {
                flip_sign(row);
            }
        }
        Y(q) => {
            if row.x_plane().get(q) ^ row.z_plane().get(q) {
                flip_sign(row);
            }
        }
        Z(q) => {
            if row.x_plane().get(q) {
                flip_sign(row);
            }
        }
        Cnot(c, t) => {
            // Sitewise: Pc⊗Pt -> use the exact product formula via small
            // lookup on the two sites, tracking sign.
            let pc = row.pauli(c);
            let pt = row.pauli(t);
            let (npc, npt, sign) = cnot_conjugation(pc, pt);
            row.set_pauli(c, npc);
            row.set_pauli(t, npt);
            if sign {
                flip_sign(row);
            }
        }
        Cz(a, b) => {
            let pa = row.pauli(a);
            let pb = row.pauli(b);
            let (npa, npb, sign) = cz_conjugation(pa, pb);
            row.set_pauli(a, npa);
            row.set_pauli(b, npb);
            if sign {
                flip_sign(row);
            }
        }
        Swap(a, b) => {
            let pa = row.pauli(a);
            let pb = row.pauli(b);
            row.set_pauli(a, pb);
            row.set_pauli(b, pa);
        }
        ISwap(a, b) => {
            // iSWAP = SWAP · CZ · (S ⊗ S), rightmost first.
            conjugate_row(row, CliffordGate::S(a));
            conjugate_row(row, CliffordGate::S(b));
            conjugate_row(row, CliffordGate::Cz(a, b));
            conjugate_row(row, CliffordGate::Swap(a, b));
        }
    }
}

fn flip_sign(row: &mut PauliString) {
    let minus = minus_identity(row.len());
    row.mul_assign(&minus);
}

/// CNOT conjugation on a two-site Pauli: returns (control', target', sign
/// flip). Derived from `X_c -> X_c X_t`, `Z_t -> Z_c Z_t`,
/// `Y_c -> Y_c X_t`, `Y_t -> Z_c Y_t` with exact reordering signs.
fn cnot_conjugation(pc: Pauli, pt: Pauli) -> (Pauli, Pauli, bool) {
    use Pauli::*;
    // Table indexed by (control, target). Verified against the
    // state-vector simulator in tests.
    match (pc, pt) {
        (I, I) => (I, I, false),
        (I, X) => (I, X, false),
        (I, Y) => (Z, Y, false),
        (I, Z) => (Z, Z, false),
        (X, I) => (X, X, false),
        (X, X) => (X, I, false),
        (X, Y) => (Y, Z, false),
        (X, Z) => (Y, Y, true),
        (Y, I) => (Y, X, false),
        (Y, X) => (Y, I, false),
        (Y, Y) => (X, Z, true),
        (Y, Z) => (X, Y, false),
        (Z, I) => (Z, I, false),
        (Z, X) => (Z, X, false),
        (Z, Y) => (I, Y, false),
        (Z, Z) => (I, Z, false),
    }
}

/// CZ conjugation on a two-site Pauli: returns (a', b', sign flip).
fn cz_conjugation(pa: Pauli, pb: Pauli) -> (Pauli, Pauli, bool) {
    use Pauli::*;
    match (pa, pb) {
        (I, I) => (I, I, false),
        (I, X) => (Z, X, false),
        (I, Y) => (Z, Y, false),
        (I, Z) => (I, Z, false),
        (X, I) => (X, Z, false),
        (X, X) => (Y, Y, false),
        (X, Y) => (Y, X, true),
        (X, Z) => (X, I, false),
        (Y, I) => (Y, Z, false),
        (Y, X) => (X, Y, true),
        (Y, Y) => (X, X, false),
        (Y, Z) => (Y, I, false),
        (Z, I) => (Z, I, false),
        (Z, X) => (I, X, false),
        (Z, Y) => (I, Y, false),
        (Z, Z) => (Z, Z, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(s: &str) -> PauliString {
        PauliString::from_str_sign(s).unwrap()
    }

    #[test]
    fn fresh_state_is_all_zero() {
        let t = Tableau::new(3);
        t.check_invariants().unwrap();
        for q in 0..3 {
            let z = PauliString::single(3, q, Pauli::Z);
            assert_eq!(t.expectation(&z), Some(false)); // +Z => |0>
        }
    }

    #[test]
    fn x_flips_measurement() {
        let mut t = Tableau::new(1);
        t.apply(CliffordGate::X(0));
        let m = t.measure_z(0, || panic!("should be deterministic"));
        assert_eq!(m, MeasureOutcome::Deterministic(true));
    }

    #[test]
    fn h_gives_random_then_fixed() {
        let mut t = Tableau::new(1);
        t.apply(CliffordGate::H(0));
        let m = t.measure_z(0, || true);
        assert_eq!(m, MeasureOutcome::Random(true));
        // Second measurement is now deterministic and equal.
        let m2 = t.measure_z(0, || panic!("deterministic now"));
        assert_eq!(m2, MeasureOutcome::Deterministic(true));
        t.check_invariants().unwrap();
    }

    #[test]
    fn bell_pair_correlations() {
        let mut t = Tableau::new(2);
        t.apply(CliffordGate::H(0));
        t.apply(CliffordGate::Cnot(0, 1));
        assert!(t.is_stabilized_by(&ps("+XX")));
        assert!(t.is_stabilized_by(&ps("+ZZ")));
        assert!(!t.is_stabilized_by(&ps("-XX")));
        assert_eq!(t.expectation(&ps("+ZI")), None);
        // Measure qubit 0, then qubit 1 must agree.
        let a = t.measure_z(0, || true).bit();
        let b = t.measure_z(1, || panic!("correlated")).bit();
        assert_eq!(a, b);
    }

    #[test]
    fn ghz_parity() {
        let mut t = Tableau::new(3);
        t.apply(CliffordGate::H(0));
        t.apply(CliffordGate::Cnot(0, 1));
        t.apply(CliffordGate::Cnot(1, 2));
        assert!(t.is_stabilized_by(&ps("+XXX")));
        assert!(t.is_stabilized_by(&ps("+ZZI")));
        assert!(t.is_stabilized_by(&ps("+IZZ")));
        t.check_invariants().unwrap();
    }

    #[test]
    fn s_gate_turns_x_into_y() {
        let mut t = Tableau::new(1);
        t.apply(CliffordGate::H(0)); // |+>, stabilized by +X
        assert!(t.is_stabilized_by(&ps("+X")));
        t.apply(CliffordGate::S(0)); // |+i>, stabilized by +Y
        assert!(t.is_stabilized_by(&ps("+Y")));
        t.apply(CliffordGate::S(0)); // |->, stabilized by -X
        assert!(t.is_stabilized_by(&ps("-X")));
        t.apply(CliffordGate::SDag(0));
        assert!(t.is_stabilized_by(&ps("+Y")));
    }

    #[test]
    fn cz_phase_kickback() {
        // CZ on |+>|1> flips the first qubit to |->.
        let mut t = Tableau::new(2);
        t.apply(CliffordGate::H(0));
        t.apply(CliffordGate::X(1));
        t.apply(CliffordGate::Cz(0, 1));
        assert!(t.is_stabilized_by(&ps("-XI")));
    }

    #[test]
    fn swap_moves_state() {
        let mut t = Tableau::new(2);
        t.apply(CliffordGate::X(0));
        t.apply(CliffordGate::Swap(0, 1));
        assert!(!t.measure_z(0, || panic!()).bit());
        assert!(t.measure_z(1, || panic!()).bit());
    }

    #[test]
    fn iswap_moves_excitation() {
        // iSWAP exchanges |01> and |10> (up to phase): Z-basis populations
        // move across.
        let mut t = Tableau::new(2);
        t.apply(CliffordGate::X(0));
        t.apply(CliffordGate::ISwap(0, 1));
        assert!(!t.measure_z(0, || panic!()).bit());
        assert!(t.measure_z(1, || panic!()).bit());
        t.check_invariants().unwrap();
    }

    #[test]
    fn iswap_phase_structure() {
        // iSWAP X⊗I iSWAP† = -(Z⊗Y)? Verify via conjugate_row against
        // first principles: iSWAP = SWAP · CZ · (S⊗S).
        // S⊗S: X0 -> Y0; CZ: Y0 -> Y0 Z1; SWAP: -> Z0 Y1... with signs
        // tracked by the implementation; here we simply check conjugation
        // preserves the group structure and is an involution on Z⊗Z.
        let mut row = ps("+ZZ");
        conjugate_row(&mut row, CliffordGate::ISwap(0, 1));
        assert_eq!(row, ps("+ZZ"));
        let mut row = ps("+XI");
        conjugate_row(&mut row, CliffordGate::ISwap(0, 1));
        // Result must anticommute with Z on qubit 1 (X moved across).
        assert!(row.anticommutes_with(&ps("+IZ")));
    }

    #[test]
    fn measurement_collapse_updates_invariants() {
        let mut t = Tableau::new(4);
        t.apply(CliffordGate::H(0));
        t.apply(CliffordGate::Cnot(0, 1));
        t.apply(CliffordGate::Cnot(0, 2));
        t.apply(CliffordGate::Cnot(0, 3));
        let _ = t.measure_z(2, || false);
        t.check_invariants().unwrap();
        // All qubits now agree with qubit 2's outcome (GHZ collapse).
        for q in 0..4 {
            assert!(!t.measure_z(q, || panic!()).bit());
        }
    }

    #[test]
    fn measure_multi_qubit_pauli() {
        // Measuring ZZ on |00> is deterministic +1; measuring XX is random
        // and repeatable.
        let mut t = Tableau::new(2);
        let zz = ps("+ZZ");
        assert_eq!(
            t.measure_pauli(&zz, || panic!()),
            MeasureOutcome::Deterministic(false)
        );
        let xx = ps("+XX");
        let m = t.measure_pauli(&xx, || true);
        assert_eq!(m, MeasureOutcome::Random(true));
        assert_eq!(
            t.measure_pauli(&xx, || panic!()),
            MeasureOutcome::Deterministic(true)
        );
        // ZZ is still deterministic +1 (commutes with XX).
        assert_eq!(
            t.measure_pauli(&zz, || panic!()),
            MeasureOutcome::Deterministic(false)
        );
        t.check_invariants().unwrap();
    }

    #[test]
    fn reset_forces_zero() {
        let mut t = Tableau::new(2);
        t.apply(CliffordGate::H(0));
        t.apply(CliffordGate::Cnot(0, 1));
        t.reset_z(0, || true);
        assert!(!t.measure_z(0, || panic!()).bit());
        t.check_invariants().unwrap();
    }

    #[test]
    fn apply_pauli_injects_errors() {
        let mut t = Tableau::new(3);
        t.apply_pauli(&ps("XIX"));
        assert!(t.measure_z(0, || panic!()).bit());
        assert!(!t.measure_z(1, || panic!()).bit());
        assert!(t.measure_z(2, || panic!()).bit());
    }

    /// Ground-truth check of the conjugation rules: for every gate `G`
    /// and two-qubit Pauli `P`, the matrix of `conjugate_row(P, G)` must
    /// equal `G P G†` computed with the state-vector simulator.
    #[test]
    fn conjugation_matches_statevector() {
        use crate::statevector::{StateVector, C64};

        // Matrix of an operator O on 2 qubits via its action on basis
        // states: column j = O |j>.
        fn operator_columns(apply: &dyn Fn(&mut StateVector)) -> Vec<Vec<C64>> {
            (0..4usize)
                .map(|j| {
                    let mut sv = StateVector::new(2);
                    for q in 0..2 {
                        if (j >> q) & 1 == 1 {
                            sv.apply(CliffordGate::X(q));
                        }
                    }
                    apply(&mut sv);
                    sv.amplitudes().to_vec()
                })
                .collect()
        }

        let gates = [
            CliffordGate::H(0),
            CliffordGate::H(1),
            CliffordGate::S(0),
            CliffordGate::SDag(0),
            CliffordGate::X(0),
            CliffordGate::Y(1),
            CliffordGate::Z(0),
            CliffordGate::Cnot(0, 1),
            CliffordGate::Cnot(1, 0),
            CliffordGate::Cz(0, 1),
            CliffordGate::Swap(0, 1),
            CliffordGate::ISwap(0, 1),
        ];
        for gate in gates {
            for pa in Pauli::ALL {
                for pb in Pauli::ALL {
                    let mut row = PauliString::identity(2);
                    row.set_pauli(0, pa);
                    row.set_pauli(1, pb);
                    let original = row.clone();
                    conjugate_row(&mut row, gate);

                    // LHS: matrix of the conjugated row.
                    let conj_row = row.clone();
                    let lhs = operator_columns(&|sv| sv.apply_pauli(&conj_row));
                    // RHS: G P G† = apply G†... easier: G P then G† on the
                    // left: column j of G P G† is G P G† |j>.
                    let orig = original.clone();
                    let rhs = operator_columns(&|sv| {
                        apply_inverse(sv, gate);
                        sv.apply_pauli(&orig);
                        sv.apply(gate);
                    });
                    for j in 0..4 {
                        for i in 0..4 {
                            let d = lhs[j][i] - rhs[j][i];
                            assert!(
                                d.abs() < 1e-10,
                                "gate {gate:?}, pauli ({pa:?},{pb:?}), entry ({i},{j})"
                            );
                        }
                    }
                }
            }
        }

        fn apply_inverse(sv: &mut StateVector, gate: CliffordGate) {
            match gate {
                CliffordGate::S(q) => sv.apply(CliffordGate::SDag(q)),
                CliffordGate::SDag(q) => sv.apply(CliffordGate::S(q)),
                CliffordGate::ISwap(a, b) => {
                    // iSWAP† = iSWAP^3 (iSWAP has order 4 up to phase);
                    // apply the decomposition inverse instead:
                    // (SWAP·CZ·(S⊗S))† = (S†⊗S†)·CZ·SWAP.
                    sv.apply(CliffordGate::Swap(a, b));
                    sv.apply(CliffordGate::Cz(a, b));
                    sv.apply(CliffordGate::SDag(a));
                    sv.apply(CliffordGate::SDag(b));
                }
                g => sv.apply(g), // H, X, Y, Z, CNOT, CZ, SWAP self-inverse
            }
        }
    }

    #[test]
    fn invariants_hold_under_random_circuits() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 6;
        let mut t = Tableau::new(n);
        for _ in 0..200 {
            let choice = rng.random_range(0..7);
            let a = rng.random_range(0..n);
            let mut b = rng.random_range(0..n);
            while b == a {
                b = rng.random_range(0..n);
            }
            let gate = match choice {
                0 => CliffordGate::H(a),
                1 => CliffordGate::S(a),
                2 => CliffordGate::Cnot(a, b),
                3 => CliffordGate::Cz(a, b),
                4 => CliffordGate::Swap(a, b),
                5 => CliffordGate::ISwap(a, b),
                _ => CliffordGate::X(a),
            };
            t.apply(gate);
            if choice == 6 {
                let bit = rng.random::<bool>();
                let _ = t.measure_z(a, || bit);
            }
        }
        t.check_invariants().unwrap();
    }
}
