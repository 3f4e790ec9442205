//! The `vlq-sweep` executor for Monte-Carlo memory experiments.
//!
//! [`MemoryExecutor`] is the glue between the domain-generic
//! work-stealing engine and this crate's experiment harness: it turns a
//! [`SweepPoint`] into an [`ExperimentConfig`] (interpreting sensitivity
//! knobs through [`Knob`]), prepares the noisy circuit + decoder once
//! per point, and runs seeded shot chunks against it. The threshold and
//! sensitivity scans in this crate, and the figure binaries, run it on
//! `vlq_sweep::SweepEngine::run` / `run_opts`.

use vlq_sweep::{SweepExecutor, SweepPoint};
use vlq_telemetry::Recorder;

use vlq_surface::schedule::MemorySpec;

use crate::sensitivity::{noise_with_knob, Knob};
use crate::{ExperimentConfig, Parallelism, PreparedExperiment};

/// Builds the experiment configuration a sweep point describes.
///
/// Points without a knob are standard memory experiments at physical
/// error rate `p`. Points with a knob pin `p` at the operating point
/// and override one error source via [`noise_with_knob`]; the
/// `cavity-size` knob also overrides the cavity depth `k`.
///
/// # Panics
///
/// Panics if the point names an unknown knob, or carries a program
/// workload (program points belong to the `vlq` crate's
/// `ProgramSweepExecutor`, not the memory executor) — specs are
/// validated at construction by the figure binaries, so either reaching
/// this executor is a programming error.
pub fn config_for_point(pt: &SweepPoint) -> ExperimentConfig {
    assert!(
        pt.program.is_none(),
        "memory executor got a program point ({:?}); run it on a program executor",
        pt.program
    );
    let cfg = match &pt.knob {
        None => {
            let mut spec = MemorySpec::standard(pt.setup, pt.d, pt.k, pt.basis);
            if let Some(rounds) = pt.rounds {
                spec.rounds = rounds;
            }
            ExperimentConfig::new(spec, pt.p)
        }
        Some(kn) => {
            let knob = Knob::parse(&kn.name)
                .unwrap_or_else(|| panic!("sweep point names unknown knob {:?}", kn.name));
            let (noise, k) = noise_with_knob(knob, kn.value);
            let mut spec = MemorySpec::standard(pt.setup, pt.d, k, pt.basis);
            if let Some(rounds) = pt.rounds {
                spec.rounds = rounds;
            }
            ExperimentConfig::new(spec, pt.p).with_noise(noise)
        }
    };
    cfg.with_shots(pt.shots).with_decoder(pt.decoder)
}

/// [`SweepExecutor`] running this crate's memory experiments.
///
/// A sweep's parallelism comes from the engine's workers (`--workers`):
/// a default-sized chunk is one [`crate::LANES_PER_BATCH`]-lane batch,
/// which the batch driver cannot split, so `MemoryExecutor::default()`
/// samples every chunk serially.
#[derive(Clone, Debug, Default)]
pub struct MemoryExecutor {
    /// Batch-driver worker policy every chunk is sampled under (serial
    /// by default; counts and sidecars are identical at any value).
    pub parallelism: Parallelism,
}

impl MemoryExecutor {
    /// An executor sampling chunks under `parallelism`.
    pub fn with_parallelism(parallelism: Parallelism) -> Self {
        MemoryExecutor { parallelism }
    }
}

impl SweepExecutor for MemoryExecutor {
    type Prepared = PreparedExperiment;

    fn prepare(&self, point: &SweepPoint) -> PreparedExperiment {
        PreparedExperiment::prepare(&config_for_point(point))
    }

    fn run_chunk(
        &self,
        prepared: &PreparedExperiment,
        _point: &SweepPoint,
        shots: u64,
        seed: u64,
    ) -> u64 {
        prepared
            .block
            .run(shots, seed, &self.parallelism, &Recorder::disabled())
    }

    fn run_chunk_recorded(
        &self,
        prepared: &PreparedExperiment,
        _point: &SweepPoint,
        shots: u64,
        seed: u64,
        recorder: &Recorder,
    ) -> u64 {
        prepared.block.run(shots, seed, &self.parallelism, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlq_arch::params::REFERENCE_ERROR_RATE;
    use vlq_decoder::DecoderKind;
    use vlq_surface::schedule::{Basis, Setup};

    #[test]
    fn config_from_plain_point_matches_direct_construction() {
        let pt = SweepPoint {
            setup: Setup::CompactInterleaved,
            basis: Basis::Z,
            d: 5,
            p: 3e-3,
            k: 10,
            rounds: None,
            decoder: DecoderKind::UnionFind,
            shots: 123,
            knob: None,
            program: None,
        };
        let cfg = config_for_point(&pt);
        assert_eq!(cfg.spec.d, 5);
        assert_eq!(cfg.spec.rounds, 5);
        assert_eq!(cfg.spec.k, 10);
        assert_eq!(cfg.shots, 123);
        assert_eq!(cfg.decoder, DecoderKind::UnionFind);
        assert_eq!(cfg.noise.rates.p_2q_tt, 3e-3);
    }

    #[test]
    fn config_from_knob_point_overrides_one_source() {
        let pt = SweepPoint {
            setup: Setup::CompactInterleaved,
            basis: Basis::Z,
            d: 3,
            p: REFERENCE_ERROR_RATE,
            k: 10,
            rounds: None,
            decoder: DecoderKind::Mwpm,
            shots: 10,
            knob: Some(vlq_sweep::KnobSetting {
                name: "cavity-size".to_string(),
                value: 25.0,
            }),
            program: None,
        };
        let cfg = config_for_point(&pt);
        // The cavity-size knob overrides k, not the error rates.
        assert_eq!(cfg.spec.k, 25);
        assert_eq!(cfg.noise.rates.p_2q_tt, REFERENCE_ERROR_RATE);
    }

    #[test]
    fn rounds_override_applies() {
        let pt = SweepPoint {
            setup: Setup::Baseline,
            basis: Basis::Z,
            d: 3,
            p: 1e-3,
            k: 1,
            rounds: Some(7),
            decoder: DecoderKind::Mwpm,
            shots: 1,
            knob: None,
            program: None,
        };
        assert_eq!(config_for_point(&pt).spec.rounds, 7);
    }

    #[test]
    #[should_panic(expected = "program point")]
    fn program_point_is_rejected() {
        let pt = SweepPoint {
            setup: Setup::Baseline,
            basis: Basis::Z,
            d: 3,
            p: 1e-3,
            k: 1,
            rounds: None,
            decoder: DecoderKind::Mwpm,
            shots: 1,
            knob: None,
            program: Some("ghz4".to_string()),
        };
        config_for_point(&pt);
    }

    #[test]
    #[should_panic(expected = "unknown knob")]
    fn unknown_knob_panics() {
        let pt = SweepPoint {
            setup: Setup::Baseline,
            basis: Basis::Z,
            d: 3,
            p: 1e-3,
            k: 1,
            rounds: None,
            decoder: DecoderKind::Mwpm,
            shots: 1,
            knob: Some(vlq_sweep::KnobSetting {
                name: "bogus".to_string(),
                value: 1.0,
            }),
            program: None,
        };
        config_for_point(&pt);
    }
}
