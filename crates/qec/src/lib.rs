//! Monte-Carlo memory experiments, threshold estimation, and sensitivity
//! sweeps — the harness behind Figures 11 and 12 of the paper.
//!
//! A *memory experiment* prepares a logical eigenstate, runs `d` noisy
//! rounds of syndrome extraction under one of the five setups, reads the
//! data out, decodes the guard sector, and counts a failure whenever the
//! decoder's predicted logical flip disagrees with the actual one.
//!
//! # Boundary-aware syndrome blocks
//!
//! The sampling core of the crate is boundary-aware: a [`BlockSpec`]
//! pairs a memory-circuit shape with a [`Boundary`] selecting which of
//! the block's ends carry noise, and [`PreparedBlock`] samples any such
//! block through one sample-and-decode kernel
//! ([`PreparedBlock::sample_failure_words_into`]), batched by the one
//! batch driver ([`Parallelism::run_batches`]). [`Boundary::Full`] *is*
//! the memory experiment — [`run_memory_experiment`],
//! [`compare_decoders`], and [`PreparedExperiment`] are thin wrappers
//! over it, bit-for-bit identical to the pre-block API.
//! [`Boundary::MidCircuit`] keeps the identical circuit and detector
//! schedule but makes the prep/readout boundaries ideal, so the sampled
//! failure rate measures exactly `rounds` rounds of steady-state
//! exposure; schedule-replay backends (`vlq::exec::FrameExecutor`)
//! request such blocks sized to each instruction's real round span,
//! which is what makes *program-level* logical error rates quantitative
//! rather than trend-only.
//!
//! # Examples
//!
//! ```
//! use vlq_qec::{ExperimentConfig, run_memory_experiment};
//! use vlq_surface::schedule::{Basis, MemorySpec, Setup};
//!
//! let cfg = ExperimentConfig::new(
//!     MemorySpec::standard(Setup::Baseline, 3, 1, Basis::Z),
//!     2e-3,
//! )
//! .with_shots(256)
//! .with_seed(7);
//! let result = run_memory_experiment(&cfg);
//! assert_eq!(result.shots, 256);
//! ```
//!
//! Sampling a mid-circuit block directly:
//!
//! ```
//! use vlq_qec::{BlockConfig, BlockSpec, Parallelism, PreparedBlock};
//! use vlq_surface::schedule::{Basis, MemorySpec, Setup};
//! use vlq_telemetry::Recorder;
//!
//! let spec = BlockSpec::mid_circuit(MemorySpec::standard(
//!     Setup::Baseline, 3, 1, Basis::Z,
//! ));
//! let block = PreparedBlock::prepare(&BlockConfig::new(spec, 2e-3));
//! let failures = block.run(256, 7, &Parallelism::serial(), &Recorder::disabled());
//! assert!(failures <= 256);
//! ```

#![forbid(unsafe_code)]

pub mod orchestrate;
pub mod pool;
pub mod sensitivity;
pub mod threshold;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use vlq_circuit::exec::{SampleScratch, SampleTape};
use vlq_circuit::ir::Circuit;
use vlq_circuit::noise::NoiseModel;
use vlq_decoder::{Decoder, DecoderScratch, DecodingGraph};
use vlq_math::stats::BinomialEstimate;
use vlq_surface::schedule::{memory_circuit, MemoryCircuit, MemorySpec};
use vlq_telemetry::{Metric, Recorder};

pub use orchestrate::{config_for_point, MemoryExecutor};
pub use pool::{Parallelism, LANES_PER_BATCH};
pub use sensitivity::{sensitivity_spec, sensitivity_sweep, Knob, SensitivityPoint};
pub use threshold::{estimate_threshold, threshold_scan, threshold_spec, ScanPoint, ThresholdScan};

// The decoder registry lives with the decoders; re-exported here so the
// experiment API stays `vlq_qec::DecoderKind` for downstream users.
pub use vlq_decoder::DecoderKind;

// Boundary modes live with the circuit generators in `vlq-surface`;
// re-exported here so block configs read `vlq_qec::Boundary`.
pub use vlq_surface::schedule::Boundary;

/// Configuration of one Monte-Carlo memory experiment.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// The memory-circuit specification.
    pub spec: MemorySpec,
    /// Noise model (hardware + error rates).
    pub noise: NoiseModel,
    /// Number of Monte-Carlo shots.
    pub shots: u64,
    /// RNG seed (experiments are deterministic given the seed).
    pub seed: u64,
    /// Decoder choice.
    pub decoder: DecoderKind,
    /// Worker threads (1 = single-threaded).
    pub threads: usize,
}

impl ExperimentConfig {
    /// Standard configuration at physical error scale `p` (the SC-SC
    /// two-qubit error rate; all other rates derive from it).
    pub fn new(spec: MemorySpec, p: f64) -> Self {
        let noise = if spec.setup.uses_memory() {
            NoiseModel::memory_at_scale(p)
        } else {
            NoiseModel::baseline_at_scale(p)
        };
        ExperimentConfig {
            spec,
            noise,
            shots: 10_000,
            seed: 2020,
            decoder: DecoderKind::Mwpm,
            threads: default_threads(),
        }
    }

    /// Sets the shot count.
    pub fn with_shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the decoder.
    pub fn with_decoder(mut self, decoder: DecoderKind) -> Self {
        self.decoder = decoder;
        self
    }

    /// Sets the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Replaces the noise model wholesale (sensitivity sweeps).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Result of a memory experiment.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Logical failures observed.
    pub failures: u64,
    /// Shots run.
    pub shots: u64,
    /// Failure-rate estimate with confidence machinery.
    pub estimate: BinomialEstimate,
    /// Number of detector nodes in the guard sector graph.
    pub guard_detectors: usize,
    /// Number of edges in the guard sector graph.
    pub graph_edges: usize,
}

impl ExperimentResult {
    /// The logical error rate per shot (one shot = `rounds` noisy rounds).
    pub fn logical_error_rate(&self) -> f64 {
        self.estimate.rate()
    }
}

/// A boundary-aware syndrome block: a memory-circuit shape plus which
/// of its boundaries carry noise.
///
/// [`Boundary::Full`] is the classic memory experiment;
/// [`Boundary::MidCircuit`] is the same circuit (and detector schedule)
/// with ideal prep/readout boundaries, so its failure rate measures
/// exactly `rounds` rounds of steady-state exposure — the block shape
/// schedule-replay backends (`vlq::exec::FrameExecutor`) request per
/// instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockSpec {
    /// The block's circuit shape (setup, distance, depth, rounds,
    /// basis).
    pub memory: MemorySpec,
    /// Which boundaries are noisy.
    pub boundary: Boundary,
}

impl BlockSpec {
    /// A full memory experiment (noisy prep and readout).
    pub fn full(memory: MemorySpec) -> Self {
        BlockSpec {
            memory,
            boundary: Boundary::Full,
        }
    }

    /// A mid-circuit block: only the syndrome rounds carry noise.
    pub fn mid_circuit(memory: MemorySpec) -> Self {
        BlockSpec {
            memory,
            boundary: Boundary::MidCircuit,
        }
    }
}

/// Configuration of one Monte-Carlo block-sampling run
/// ([`ExperimentConfig`] generalized over [`Boundary`]).
#[derive(Clone, Debug)]
pub struct BlockConfig {
    /// The block specification.
    pub spec: BlockSpec,
    /// Noise model (hardware + error rates).
    pub noise: NoiseModel,
    /// Decoder choice.
    pub decoder: DecoderKind,
}

impl BlockConfig {
    /// Standard configuration at physical error scale `p` (the SC-SC
    /// two-qubit error rate; all other rates derive from it) — the
    /// [`ExperimentConfig::new`] rule viewed under the spec's boundary,
    /// so the setup → noise-model mapping lives in exactly one place.
    pub fn new(spec: BlockSpec, p: f64) -> Self {
        Self::from_experiment(&ExperimentConfig::new(spec.memory, p), spec.boundary)
    }

    /// The block view of a memory-experiment config under a boundary.
    pub fn from_experiment(cfg: &ExperimentConfig, boundary: Boundary) -> Self {
        BlockConfig {
            spec: BlockSpec {
                memory: cfg.spec,
                boundary,
            },
            noise: cfg.noise,
            decoder: cfg.decoder,
        }
    }

    /// Sets the decoder.
    pub fn with_decoder(mut self, decoder: DecoderKind) -> Self {
        self.decoder = decoder;
        self
    }

    /// Replaces the noise model wholesale (sensitivity sweeps).
    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }
}

/// Reusable working set for [`PreparedBlock`]'s sample→decode kernel:
/// the simulator's frame/record buffers, the per-lane defect lists and
/// the mask of lanes that have one, the decoders' scratch, and the
/// packed prediction words. One scratch held across the batches of a
/// run makes the steady state allocation-free under either decoder.
///
/// Every buffer is plain, grows to fit and never shrinks, so one
/// scratch serves any block and any decoder list with the words a fresh
/// scratch would give, and a caller that alternates blocks (the `vlq`
/// crate's frame replay) stops allocating once each buffer has reached
/// its largest block's size.
#[derive(Debug, Default)]
pub struct BlockScratch {
    sample: SampleScratch,
    defect_lists: Vec<Vec<usize>>,
    /// One bit per lane with a defect: the lanes the decoders run on.
    live: Vec<u64>,
    /// Shared by every decoder of a call, one after the other.
    decoder: DecoderScratch,
    predictions: Vec<Vec<u64>>,
    /// Telemetry sink, propagated into the decoder scratch.
    /// Disabled by default; recording never changes the sampled words
    /// (no RNG access, no iteration-order dependence) and the attached
    /// path stays allocation-free in steady state.
    recorder: Recorder,
}

impl BlockScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry recorder, including to the decoder scratch.
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.decoder.set_recorder(recorder);
        self.recorder = recorder.clone();
    }
}

/// A block prepared for repeated seeded sampling: the noisy circuit and
/// its compiled sampling tape, the guard-sector decoding graph, and the
/// configured decoder.
///
/// This is the shared execution core of the crate: memory experiments
/// ([`PreparedExperiment`], a [`Boundary::Full`] wrapper) sum the
/// failure bits, and schedule-replay backends (the `vlq` crate's
/// `FrameExecutor`) XOR them into logical Pauli frames, so both
/// workloads run the identical sample-and-decode path.
pub struct PreparedBlock {
    /// The block circuit (ideal) with sector + boundary metadata.
    pub memory: MemoryCircuit,
    /// The noisy circuit actually sampled (noise windowed to the
    /// block's [`Boundary`]).
    pub noisy: Circuit,
    /// Guard-sector decoding graph.
    pub graph: DecodingGraph,
    /// The boundary the noise window was built from.
    pub boundary: Boundary,
    /// `noisy`, compiled once for sampling.
    tape: SampleTape,
    decoder: Box<dyn Decoder + Send + Sync>,
}

impl PreparedBlock {
    /// Prepares circuits, graph, and decoder for a block config.
    pub fn prepare(cfg: &BlockConfig) -> Self {
        let memory = memory_circuit(cfg.spec.memory, &cfg.noise.hw);
        let (start, end) = memory.noise_window(cfg.spec.boundary);
        let noisy = cfg.noise.apply_window(&memory.circuit, start, end);
        let tape = SampleTape::compile(&noisy);
        let graph = DecodingGraph::build(&noisy, memory.guard_detectors());
        let decoder = cfg.decoder.build(&graph);
        PreparedBlock {
            memory,
            noisy,
            graph,
            boundary: cfg.spec.boundary,
            tape,
            decoder,
        }
    }

    /// The block's configured decoder.
    pub fn decoder(&self) -> &(dyn Decoder + Send + Sync) {
        self.decoder.as_ref()
    }

    /// Samples one seeded batch of `lanes` shots and decodes it with
    /// every decoder in `decoders`, all on the *identical* defect sets
    /// (same circuit, same noise realizations). Returns one packed
    /// failure-word vector per decoder (borrowed from the scratch): bit
    /// `l` is set when decoding lane `l` left a residual logical error
    /// (prediction XOR actual flip).
    ///
    /// Every buffer of the sample→decode pipeline lives in `scratch`
    /// and is reused across calls; the words depend only on the block,
    /// the decoders, `lanes` and `seed`, never on the scratch's history.
    pub fn sample_failure_words_into<'s>(
        &self,
        decoders: &[&(dyn Decoder + Send + Sync)],
        lanes: usize,
        seed: u64,
        scratch: &'s mut BlockScratch,
    ) -> &'s [Vec<u64>] {
        let words = lanes.div_ceil(64).max(1);
        let mut rng = SmallRng::seed_from_u64(seed);
        {
            let _span = scratch.recorder.span(Metric::SampleNanos);
            self.tape.sample_into(lanes, &mut rng, &mut scratch.sample);
        }
        // Word-scan the guard detectors once into per-lane defect lists
        // and the mask of lanes with a defect (replaces a per-lane ×
        // per-detector bit-probe loop).
        {
            let _span = scratch.recorder.span(Metric::ExtractNanos);
            scratch.sample.result.defect_lists_into(
                self.memory.guard_detectors(),
                lanes,
                &mut scratch.defect_lists,
                &mut scratch.live,
            );
        }
        scratch.recorder.incr(Metric::SampleBatches);
        scratch.recorder.add(Metric::SampleLanes, lanes as u64);
        if scratch.recorder.is_enabled() {
            for defects in &scratch.defect_lists[..lanes] {
                scratch
                    .recorder
                    .observe(Metric::DefectsPerLane, defects.len() as u64);
            }
        }
        if scratch.predictions.len() < decoders.len() {
            scratch.predictions.resize_with(decoders.len(), Vec::new);
        }
        let decode_span = scratch.recorder.span(Metric::DecodeNanos);
        let actual = scratch.sample.result.observable_words(0);
        for (fi, decoder) in decoders.iter().enumerate() {
            let pred = &mut scratch.predictions[fi];
            pred.clear();
            pred.resize(words, 0);
            decoder.decode_batch(
                &scratch.defect_lists[..lanes],
                &scratch.live,
                &mut scratch.decoder,
                pred,
            );
            for (p, a) in pred.iter_mut().zip(actual) {
                *p ^= a;
            }
        }
        drop(decode_span);
        if scratch.recorder.is_enabled() {
            let failures: u64 = scratch.predictions[..decoders.len()]
                .iter()
                .map(|pred| popcount(pred))
                .sum();
            scratch.recorder.add(Metric::BlockFailures, failures);
        }
        &scratch.predictions[..decoders.len()]
    }

    /// Runs `shots` shots through the block's own decoder under a
    /// worker policy and returns the failure count. Batch `b` is seeded
    /// `seed + b`, so the count is identical at any worker count;
    /// `recorder` receives the per-phase timings and sampling
    /// statistics, whose Deterministic values are identical too.
    pub fn run(&self, shots: u64, seed: u64, par: &Parallelism, recorder: &Recorder) -> u64 {
        let decoders = [self.decoder()];
        let mut failures = [0u64];
        par.run_batches(
            shots,
            recorder,
            &mut failures,
            BlockScratch::new,
            |scratch, batch, lanes, counts| {
                scratch.set_recorder(recorder);
                let words = self.sample_failure_words_into(
                    &decoders,
                    lanes,
                    seed.wrapping_add(batch),
                    scratch,
                );
                counts[0] += popcount(&words[0]);
            },
        );
        failures[0]
    }
}

/// Set bits across packed failure words.
fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Builds the noisy circuit and guard-sector decoder for a
/// memory-experiment config: a [`PreparedBlock`] pinned to
/// [`Boundary::Full`], the prepared state of the memory sweep executor.
pub struct PreparedExperiment {
    /// The underlying full-boundary block.
    pub block: PreparedBlock,
}

impl PreparedExperiment {
    /// Prepares circuits, graph, and decoder.
    pub fn prepare(cfg: &ExperimentConfig) -> Self {
        PreparedExperiment {
            block: PreparedBlock::prepare(&BlockConfig::from_experiment(cfg, Boundary::Full)),
        }
    }
}

/// Runs the same sampled syndromes through several decoders, returning
/// one result per decoder in `kinds` order.
///
/// Unlike running [`run_memory_experiment`] once per decoder, every
/// decoder sees the *identical* defect sets (same circuit, same noise
/// realizations), so rate differences measure decoding accuracy alone —
/// the honest way to quantify e.g. the union-find first-contact growth
/// approximation against exact MWPM.
///
/// Batch `b` is seeded `splitmix64(cfg.seed ^ splitmix64(b))` (the
/// sweep engine's chunk discipline), so results are identical for any
/// `cfg.threads` / machine core count.
pub fn compare_decoders(cfg: &ExperimentConfig, kinds: &[DecoderKind]) -> Vec<ExperimentResult> {
    let block = PreparedExperiment::prepare(cfg).block;
    let decoders: Vec<Box<dyn Decoder + Send + Sync>> =
        kinds.iter().map(|k| k.build(&block.graph)).collect();
    let decoder_refs: Vec<&(dyn Decoder + Send + Sync)> =
        decoders.iter().map(|d| d.as_ref()).collect();
    let mut failures = vec![0u64; kinds.len()];
    Parallelism::threads(cfg.threads).run_batches(
        cfg.shots,
        &Recorder::disabled(),
        &mut failures,
        BlockScratch::new,
        |scratch, batch, lanes, counts| {
            let seed = vlq_sweep::splitmix64(cfg.seed ^ vlq_sweep::splitmix64(batch));
            let words = block.sample_failure_words_into(&decoder_refs, lanes, seed, scratch);
            for (count, decoder_words) in counts.iter_mut().zip(words) {
                *count += popcount(decoder_words);
            }
        },
    );
    failures
        .into_iter()
        .map(|f| ExperimentResult {
            failures: f,
            shots: cfg.shots,
            estimate: BinomialEstimate::new(f, cfg.shots.max(1)),
            guard_detectors: block.graph.num_nodes(),
            graph_edges: block.graph.num_edges(),
        })
        .collect()
}

/// Runs a complete memory experiment on `cfg.threads` workers. Batch
/// `b` is seeded `cfg.seed + b`, so the result does not depend on the
/// thread count.
pub fn run_memory_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    let block = PreparedExperiment::prepare(cfg).block;
    let failures = block.run(
        cfg.shots,
        cfg.seed,
        &Parallelism::threads(cfg.threads),
        &Recorder::disabled(),
    );
    ExperimentResult {
        failures,
        shots: cfg.shots,
        estimate: BinomialEstimate::new(failures, cfg.shots.max(1)),
        guard_detectors: block.graph.num_nodes(),
        graph_edges: block.graph.num_edges(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlq_arch::params::{ErrorRates, HardwareParams};
    use vlq_surface::schedule::{Basis, Setup};

    #[test]
    fn noiseless_experiment_never_fails() {
        let spec = MemorySpec::standard(Setup::Baseline, 3, 1, Basis::Z);
        let cfg = ExperimentConfig::new(spec, 2e-3)
            .with_noise(NoiseModel::new(
                HardwareParams::baseline(),
                ErrorRates::noiseless(),
            ))
            .with_shots(512)
            .with_threads(1);
        let res = run_memory_experiment(&cfg);
        assert_eq!(res.failures, 0);
    }

    #[test]
    fn results_are_deterministic_given_seed() {
        let spec = MemorySpec::standard(Setup::Baseline, 3, 1, Basis::Z);
        let cfg = ExperimentConfig::new(spec, 5e-3)
            .with_shots(2048)
            .with_seed(99)
            .with_threads(2);
        let a = run_memory_experiment(&cfg);
        let b = run_memory_experiment(&cfg);
        assert_eq!(a.failures, b.failures);
    }

    #[test]
    fn very_noisy_experiment_fails_often() {
        let spec = MemorySpec::standard(Setup::Baseline, 3, 1, Basis::Z);
        let cfg = ExperimentConfig::new(spec, 5e-2)
            .with_shots(2048)
            .with_threads(2);
        let res = run_memory_experiment(&cfg);
        // Far above threshold the failure rate approaches 50%.
        assert!(
            res.logical_error_rate() > 0.15,
            "{}",
            res.logical_error_rate()
        );
    }

    #[test]
    fn below_threshold_d5_beats_d3_baseline() {
        // The fundamental QEC property, end to end: at p well below
        // threshold, distance 5 has a lower logical error rate than
        // distance 3.
        let p = 2e-3;
        let shots = 30_000;
        let d3 = run_memory_experiment(
            &ExperimentConfig::new(MemorySpec::standard(Setup::Baseline, 3, 1, Basis::Z), p)
                .with_shots(shots),
        );
        let d5 = run_memory_experiment(
            &ExperimentConfig::new(MemorySpec::standard(Setup::Baseline, 5, 1, Basis::Z), p)
                .with_shots(shots),
        );
        assert!(
            d5.logical_error_rate() < d3.logical_error_rate(),
            "d5 {} !< d3 {}",
            d5.logical_error_rate(),
            d3.logical_error_rate()
        );
    }

    #[test]
    fn union_find_runs_and_is_close_to_mwpm() {
        let spec = MemorySpec::standard(Setup::Baseline, 3, 1, Basis::Z);
        let base = ExperimentConfig::new(spec, 4e-3).with_shots(20_000);
        let mwpm = run_memory_experiment(&base.clone().with_decoder(DecoderKind::Mwpm));
        let uf = run_memory_experiment(&base.with_decoder(DecoderKind::UnionFind));
        let (rm, ru) = (mwpm.logical_error_rate(), uf.logical_error_rate());
        assert!(ru >= rm * 0.5, "UF {ru} suspiciously better than MWPM {rm}");
        assert!(ru <= rm * 4.0 + 0.01, "UF {ru} far worse than MWPM {rm}");
    }

    #[test]
    fn memory_setups_run_end_to_end() {
        for setup in [Setup::NaturalAllAtOnce, Setup::CompactInterleaved] {
            let spec = MemorySpec::standard(setup, 3, 4, Basis::Z);
            let cfg = ExperimentConfig::new(spec, 2e-3).with_shots(2000);
            let res = run_memory_experiment(&cfg);
            assert!(res.guard_detectors > 0);
            assert!(res.graph_edges > 0);
            // Sane range.
            assert!(res.logical_error_rate() < 0.5);
        }
    }

    #[test]
    fn x_basis_memory_runs() {
        let spec = MemorySpec::standard(Setup::CompactAllAtOnce, 3, 4, Basis::X);
        let cfg = ExperimentConfig::new(spec, 2e-3).with_shots(2000);
        let res = run_memory_experiment(&cfg);
        assert!(res.logical_error_rate() < 0.5);
    }
}
