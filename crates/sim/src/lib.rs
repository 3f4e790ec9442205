//! Quantum simulators for the VLQ reproduction.
//!
//! Three complementary engines, each used for a different job:
//!
//! * [`tableau`] — an Aaronson-Gottesman (CHP) stabilizer simulator with
//!   exact phase tracking. Used to *validate* every syndrome-extraction
//!   schedule (stabilizer measurements on code states must be
//!   deterministic) and to verify logical operations at code scale.
//! * [`statevector`] — a dense state-vector simulator for small systems
//!   (up to ~22 qubits). Used for gate-identity checks (e.g. the
//!   iSWAP decomposition used by load/store) and for process tomography
//!   of the transversal CNOT on distance-3 patches.
//! * [`frame`] — a bit-parallel Pauli-frame Monte-Carlo engine (64 shots
//!   per machine word) plus a scalar single-fault propagator. This is the
//!   workhorse behind every threshold and sensitivity figure.
//!
//! The simulators share the gate vocabulary of [`CliffordGate`].

pub mod frame;
pub mod statevector;
pub mod tableau;

pub use frame::{BernoulliRate, FrameBatch, SingleFrame};
pub use statevector::StateVector;
pub use tableau::Tableau;

/// The Clifford gate vocabulary shared by all three simulators.
///
/// `ISwap` is first-class because the paper's load/store operation is a
/// transmon-mediated iSWAP between a transmon and a cavity mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CliffordGate {
    /// Hadamard.
    H(usize),
    /// Phase gate `diag(1, i)`.
    S(usize),
    /// Inverse phase gate `diag(1, -i)`.
    SDag(usize),
    /// Pauli X.
    X(usize),
    /// Pauli Y.
    Y(usize),
    /// Pauli Z.
    Z(usize),
    /// Controlled-NOT (control, target).
    Cnot(usize, usize),
    /// Controlled-Z (symmetric).
    Cz(usize, usize),
    /// Swap.
    Swap(usize, usize),
    /// iSWAP: swap plus `i` phase on the exchanged excitations.
    ISwap(usize, usize),
}

impl CliffordGate {
    /// The qubits the gate acts on (one or two).
    pub fn qubits(&self) -> (usize, Option<usize>) {
        use CliffordGate::*;
        match *self {
            H(q) | S(q) | SDag(q) | X(q) | Y(q) | Z(q) => (q, None),
            Cnot(a, b) | Cz(a, b) | Swap(a, b) | ISwap(a, b) => (a, Some(b)),
        }
    }
}
