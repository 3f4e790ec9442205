//! Sensitivity sweeps (Figure 12).
//!
//! Fixes the operating point (`p = 2e-3`, cavity depth 10) and varies one
//! error source at a time: SC-SC gate error, load/store error, SC-mode
//! error, cavity T1, transmon T1, load/store duration, or cavity size
//! `k`. Each knob modifies the noise model (or the spec, for `k`) while
//! everything else stays pinned — reproducing the panels of Figure 12
//! for the Compact, Interleaved setup.

use vlq_arch::params::{ErrorRates, HardwareParams, REFERENCE_ERROR_RATE};
use vlq_circuit::noise::NoiseModel;
use vlq_math::stats::BinomialEstimate;
use vlq_surface::schedule::{Basis, Setup};
use vlq_sweep::{SweepEngine, SweepSpec};

use crate::orchestrate::MemoryExecutor;
use crate::DecoderKind;

/// The knob a sensitivity panel varies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Knob {
    /// SC-SC (transmon-transmon) gate error rate.
    ScScError,
    /// Load/store gate error rate.
    LoadStoreError,
    /// SC-mode (transmon-cavity) gate error rate.
    ScModeError,
    /// Cavity coherence time (seconds).
    CavityT1,
    /// Transmon coherence time (seconds).
    TransmonT1,
    /// Load/store gate duration (seconds).
    LoadStoreDuration,
    /// Cavity size `k` (modes per cavity; value is cast to usize).
    CavitySize,
}

impl Knob {
    /// All knobs, in the paper's panel order.
    pub const ALL: [Knob; 7] = [
        Knob::ScScError,
        Knob::LoadStoreError,
        Knob::ScModeError,
        Knob::CavityT1,
        Knob::TransmonT1,
        Knob::LoadStoreDuration,
        Knob::CavitySize,
    ];

    /// Stable knob name (used by `--panel` flags and sweep artifacts).
    pub fn name(self) -> &'static str {
        match self {
            Knob::ScScError => "sc-sc-error",
            Knob::LoadStoreError => "load-store-error",
            Knob::ScModeError => "sc-mode-error",
            Knob::CavityT1 => "cavity-t1",
            Knob::TransmonT1 => "transmon-t1",
            Knob::LoadStoreDuration => "load-store-duration",
            Knob::CavitySize => "cavity-size",
        }
    }

    /// Parses a knob name (the inverse of [`Knob::name`]).
    pub fn parse(s: &str) -> Option<Knob> {
        Knob::ALL
            .into_iter()
            .find(|k| k.name() == s.to_ascii_lowercase())
    }

    /// The paper's marked reference value at the operating point.
    pub fn reference_value(self) -> f64 {
        let hw = HardwareParams::with_memory();
        match self {
            Knob::ScScError | Knob::LoadStoreError | Knob::ScModeError => REFERENCE_ERROR_RATE,
            Knob::CavityT1 => hw.t1_cavity,
            Knob::TransmonT1 => hw.t1_transmon,
            Knob::LoadStoreDuration => hw.t_load_store,
            Knob::CavitySize => 10.0,
        }
    }
}

impl std::fmt::Display for Knob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One sensitivity sample.
#[derive(Clone, Debug)]
pub struct SensitivityPoint {
    /// Code distance.
    pub d: usize,
    /// Knob value.
    pub value: f64,
    /// Logical error rate estimate.
    pub estimate: BinomialEstimate,
}

/// Builds the operating-point noise model with one knob overridden.
///
/// All other error sources stay at the paper's operating point
/// (`p = 2e-3`, Table I timings).
pub fn noise_with_knob(knob: Knob, value: f64) -> (NoiseModel, usize) {
    let mut hw = HardwareParams::with_memory();
    let mut rates = ErrorRates::from_scale(REFERENCE_ERROR_RATE);
    let mut k = 10usize;
    match knob {
        Knob::ScScError => rates.p_2q_tt = value,
        Knob::LoadStoreError => rates.p_load_store = value,
        Knob::ScModeError => rates.p_2q_tm = value,
        Knob::CavityT1 => {
            hw.t1_cavity = value;
            rates.t1_scale = 1.0; // the knob sets the absolute T1
        }
        Knob::TransmonT1 => {
            hw.t1_transmon = value;
            rates.t1_scale = 1.0;
        }
        Knob::LoadStoreDuration => hw.t_load_store = value,
        Knob::CavitySize => k = value.round().max(1.0) as usize,
    }
    (NoiseModel::new(hw, rates), k)
}

/// The sweep spec a sensitivity panel expands to: `p` pinned at the
/// operating point, the named knob swept over `values`.
pub fn sensitivity_spec(
    setup: Setup,
    knob: Knob,
    values: &[f64],
    distances: &[usize],
    shots: u64,
    seed: u64,
    decoder: DecoderKind,
) -> SweepSpec {
    SweepSpec::new()
        .setups([setup])
        .bases([Basis::Z])
        .distances(distances.iter().copied())
        // Nominal depth; the executor recomputes k from the knob (the
        // cavity-size panel overrides it per point).
        .ks([10])
        .decoders([decoder])
        .knob(REFERENCE_ERROR_RATE, knob.name(), values.iter().copied())
        .shots(shots)
        .base_seed(seed)
}

/// Runs one sensitivity panel for the given setup (the paper uses
/// Compact, Interleaved) over `values` of the knob and several code
/// distances.
///
/// Thin adapter over the `vlq-sweep` work-stealing engine; points run
/// in parallel across configs × shots with deterministic seeding.
#[allow(clippy::too_many_arguments)]
pub fn sensitivity_sweep(
    setup: Setup,
    knob: Knob,
    values: &[f64],
    distances: &[usize],
    shots: u64,
    seed: u64,
    decoder: DecoderKind,
) -> Vec<SensitivityPoint> {
    let spec = sensitivity_spec(setup, knob, values, distances, shots, seed, decoder);
    SweepEngine::default()
        .run(&spec, &MemoryExecutor::default(), &mut [])
        .expect("sweep without file sinks cannot fail")
        .into_iter()
        .map(|rec| SensitivityPoint {
            d: rec.point.d,
            value: rec.point.knob.as_ref().expect("knob sweep").value,
            estimate: rec
                .estimate()
                .unwrap_or_else(|| BinomialEstimate::new(0, 1)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_overrides_apply() {
        let (m, k) = noise_with_knob(Knob::ScScError, 5e-3);
        assert_eq!(m.rates.p_2q_tt, 5e-3);
        assert_eq!(m.rates.p_load_store, REFERENCE_ERROR_RATE);
        assert_eq!(k, 10);

        let (m, _) = noise_with_knob(Knob::CavityT1, 1e-4);
        assert_eq!(m.hw.t1_cavity, 1e-4);
        assert_eq!(m.rates.t1_scale, 1.0);

        let (_, k) = noise_with_knob(Knob::CavitySize, 25.0);
        assert_eq!(k, 25);
    }

    #[test]
    fn worse_loadstore_error_hurts() {
        // Compact-Interleaved at d=3: increasing the load/store error by
        // 10x must raise the logical error rate noticeably.
        let points = sensitivity_sweep(
            Setup::CompactInterleaved,
            Knob::LoadStoreError,
            &[2e-3, 2e-2],
            &[3],
            4000,
            5,
            DecoderKind::Mwpm,
        );
        assert_eq!(points.len(), 2);
        let lo = points[0].estimate.rate();
        let hi = points[1].estimate.rate();
        assert!(hi > lo, "lo {lo} hi {hi}");
    }

    #[test]
    fn knob_reference_values_match_table1() {
        assert_eq!(Knob::CavityT1.reference_value(), 1e-3);
        assert_eq!(Knob::TransmonT1.reference_value(), 100e-6);
        assert_eq!(Knob::LoadStoreDuration.reference_value(), 150e-9);
        assert_eq!(Knob::CavitySize.reference_value(), 10.0);
    }
}
