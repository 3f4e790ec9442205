//! Circuit IR, noise annotation, and executors for the VLQ reproduction.
//!
//! The pipeline every experiment follows:
//!
//! 1. a schedule generator (in `vlq-surface`) emits an *ideal* [`Circuit`]
//!    — gates, measurements, resets, and `Idle` markers with durations;
//! 2. [`NoiseModel::apply`](noise::NoiseModel::apply) rewrites it into a
//!    *noisy* circuit (Pauli channels + readout flip probabilities);
//! 3. [`exec::validate_with_tableau`] proves the detector annotations are
//!    deterministic on the ideal circuit;
//! 4. [`exec::FaultSensitivity`] derives every single fault's effect from
//!    one backward pass, to build the decoder's matching graph (in
//!    `vlq-decoder`; [`exec::propagate_fault`] is its reference oracle);
//! 5. [`exec::SampleTape`] compiles the noisy circuit once and runs
//!    bit-parallel Monte Carlo shots from it.

pub mod exec;
pub mod ir;
pub mod noise;

pub use exec::{BatchResult, FaultEffect, FaultSensitivity, FaultSite, ValidationReport};
pub use ir::{Circuit, Detector, GateClass, Instruction, Medium, QubitKind, QubitMeta};
pub use noise::{NoiseChannel, NoiseModel};
