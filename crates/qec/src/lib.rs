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
//! block through one shared sample-and-decode pipeline (the
//! [`BlockSampler`] trait). [`Boundary::Full`] *is* the memory
//! experiment — [`run_memory_experiment`], [`compare_decoders`], and
//! [`PreparedExperiment`] are thin wrappers over it, bit-for-bit
//! identical to the pre-block API. [`Boundary::MidCircuit`] keeps the
//! identical circuit and detector schedule but makes the prep/readout
//! boundaries ideal, so the sampled failure rate measures exactly
//! `rounds` rounds of steady-state exposure; schedule-replay backends
//! (`vlq::exec::FrameExecutor`) request such blocks sized to each
//! instruction's real round span, which is what makes *program-level*
//! logical error rates quantitative rather than trend-only.
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
//! use vlq_qec::{BlockConfig, BlockSampler, BlockSpec, PreparedBlock};
//! use vlq_surface::schedule::{Basis, MemorySpec, Setup};
//!
//! let spec = BlockSpec::mid_circuit(MemorySpec::standard(
//!     Setup::Baseline, 3, 1, Basis::Z,
//! ));
//! let block = PreparedBlock::prepare(&BlockConfig::new(spec, 2e-3));
//! let failures = block.run_shots(256, 7);
//! assert!(failures <= 256);
//! ```

pub mod lambda;
pub mod orchestrate;
pub mod pool;
pub mod sensitivity;
pub mod threshold;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use vlq_circuit::exec::{sample_batch_into, SampleScratch};
use vlq_circuit::ir::Circuit;
use vlq_circuit::noise::NoiseModel;
use vlq_decoder::{Decoder, DecoderScratch, DecodingGraph};
use vlq_math::stats::BinomialEstimate;
use vlq_surface::schedule::{memory_circuit, MemoryCircuit, MemorySpec};
use vlq_telemetry::{Metric, Recorder};

pub use lambda::{lambda_scan, mean_lambda, LambdaPoint};
pub use orchestrate::{
    block_config_for_point, config_for_point, run_sweep, run_sweep_opts, run_sweep_opts_par,
    run_sweep_resumable, run_sweep_with, BlockExecutor, MemoryExecutor,
};
pub use pool::{Parallelism, SamplePool};
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

/// Anything that samples seeded failure words from a prepared noisy
/// block — the abstraction `orchestrate` executors and schedule-replay
/// backends are generic over.
///
/// The two methods share one contract: bit `l` of the packed result is
/// set when decoding shot lane `l` left a *residual logical error*
/// (decoder prediction XOR actual flip). Implementations must be
/// deterministic given the seed and independent of batching.
pub trait BlockSampler {
    /// Samples one seeded batch of `lanes` shots and returns the packed
    /// per-lane failure words.
    fn sample_failure_words(&self, lanes: usize, seed: u64) -> Vec<u64>;

    /// Runs `shots` shots in fixed-size seeded batches and returns the
    /// failure count (the popcount of every batch's failure words).
    fn run_shots(&self, shots: u64, seed: u64) -> u64 {
        const LANES_PER_BATCH: usize = 1024;
        let mut failures = 0u64;
        let mut remaining = shots;
        let mut batch_idx = 0u64;
        while remaining > 0 {
            let lanes = (remaining as usize).min(LANES_PER_BATCH);
            let words = self.sample_failure_words(lanes, seed.wrapping_add(batch_idx));
            failures += words.iter().map(|w| w.count_ones() as u64).sum::<u64>();
            remaining -= lanes as u64;
            batch_idx += 1;
        }
        failures
    }
}

/// Reusable working set for [`PreparedBlock`]'s sample→decode pipeline:
/// the simulator's frame/record buffers, the per-lane defect lists, the
/// per-decoder scratch, and the packed prediction words. One scratch
/// held across the batches of a [`BlockSampler::run_shots`] run makes
/// the steady state allocation-free under either decoder.
#[derive(Debug, Default)]
pub struct BlockScratch {
    sample: SampleScratch,
    defect_lists: Vec<Vec<usize>>,
    decoder_scratch: Vec<DecoderScratch>,
    predictions: Vec<Vec<u64>>,
    /// Telemetry sink, propagated into the per-decoder scratch.
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

    /// An empty scratch that reports through `recorder`.
    pub fn with_recorder(recorder: Recorder) -> Self {
        let mut s = Self::default();
        s.set_recorder(recorder);
        s
    }

    /// Attaches a telemetry recorder, including to any decoder scratch
    /// already built.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        for ds in &mut self.decoder_scratch {
            ds.set_recorder(&recorder);
        }
        self.recorder = recorder;
    }

    /// Drops any decoder scratch so the next batch rebuilds it. The
    /// sample pool calls this when a persistent worker scratch is about
    /// to serve a different (block, decoder list) than it was built
    /// for: decoder scratch can carry graph-keyed memoisation, and the
    /// length-only rebuild check in `sample_failure_words_into` cannot
    /// see a graph change.
    pub(crate) fn reset_decoder_scratch(&mut self) {
        self.decoder_scratch.clear();
    }
}

/// A block prepared for repeated seeded sampling: the noisy circuit,
/// the guard-sector decoding graph, and the configured decoder.
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
    decoder: Box<dyn Decoder + Send + Sync>,
    guard: Vec<usize>,
    /// Process-unique id (never reused), the key the sample pool uses
    /// to decide whether persistent worker scratch may be carried over.
    identity: u64,
}

impl PreparedBlock {
    /// Prepares circuits, graph, and decoder for a block config.
    pub fn prepare(cfg: &BlockConfig) -> Self {
        static NEXT_IDENTITY: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let memory = memory_circuit(cfg.spec.memory, &cfg.noise.hw);
        let (start, end) = memory.noise_window(cfg.spec.boundary);
        let noisy = cfg.noise.apply_window(&memory.circuit, start, end);
        let guard: Vec<usize> = memory.guard_detectors().to_vec();
        let graph = DecodingGraph::build(&noisy, &guard);
        let decoder = cfg.decoder.build(&graph);
        PreparedBlock {
            memory,
            noisy,
            graph,
            boundary: cfg.spec.boundary,
            decoder,
            guard,
            identity: NEXT_IDENTITY.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        }
    }

    /// The process-unique block id (see the `identity` field).
    pub(crate) fn identity(&self) -> u64 {
        self.identity
    }

    /// [`BlockSampler::sample_failure_words`] for several decoders over
    /// the *identical* defect sets (same circuit, same noise
    /// realizations).
    pub fn sample_failure_words_with(
        &self,
        decoders: &[&(dyn Decoder + Send + Sync)],
        lanes: usize,
        seed: u64,
    ) -> Vec<Vec<u64>> {
        let mut scratch = BlockScratch::new();
        self.sample_failure_words_into(decoders, lanes, seed, &mut scratch);
        scratch.predictions.truncate(decoders.len());
        scratch.predictions
    }

    /// [`PreparedBlock::sample_failure_words_with`] against caller-owned
    /// scratch: bit-identical failure words, with every buffer of the
    /// sample→decode pipeline reused across calls. Returns the per-
    /// decoder prediction words (borrowed from the scratch).
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
            sample_batch_into(&self.noisy, lanes, &mut rng, &mut scratch.sample);
        }
        // Word-scan the guard detectors once into per-lane defect lists
        // (replaces a per-lane × per-detector bit-probe loop).
        {
            let _span = scratch.recorder.span(Metric::ExtractNanos);
            scratch
                .sample
                .result
                .defect_lists_into(&self.guard, lanes, &mut scratch.defect_lists);
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
        // Decoder scratch is keyed to the decoder list; rebuild on any
        // shape change (cheap, and callers keep the list stable).
        if scratch.decoder_scratch.len() != decoders.len() {
            scratch.decoder_scratch.clear();
            scratch
                .decoder_scratch
                .extend(decoders.iter().map(|d| d.make_scratch()));
            for ds in &mut scratch.decoder_scratch {
                ds.set_recorder(&scratch.recorder);
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
                &mut scratch.decoder_scratch[fi],
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
                .flat_map(|pred| pred.iter())
                .map(|w| w.count_ones() as u64)
                .sum();
            scratch.recorder.add(Metric::BlockFailures, failures);
        }
        &scratch.predictions[..decoders.len()]
    }

    /// [`BlockSampler::sample_failure_words`] against caller-owned
    /// scratch: the identical packed failure words through the block's
    /// own configured decoder, with every buffer of the sample→decode
    /// pipeline reused across calls. The scratch must not be shared
    /// across *different* blocks without clearing — decoder scratch can
    /// carry graph-keyed memoisation, and the length-only rebuild check
    /// in [`PreparedBlock::sample_failure_words_into`] cannot see a
    /// graph change (keep one scratch per block, as the `vlq` frame
    /// replay does).
    pub fn sample_failure_words_reusing<'s>(
        &self,
        lanes: usize,
        seed: u64,
        scratch: &'s mut BlockScratch,
    ) -> &'s [u64] {
        let decoders: [&(dyn Decoder + Send + Sync); 1] = [self.decoder.as_ref()];
        &self.sample_failure_words_into(&decoders, lanes, seed, scratch)[0]
    }

    /// Runs `shots` sampled shots through several decoders at once:
    /// every decoder sees the *identical* defect sets. Returns one
    /// failure count per decoder.
    pub fn run_shots_with(
        &self,
        decoders: &[&(dyn Decoder + Send + Sync)],
        shots: u64,
        seed: u64,
    ) -> Vec<u64> {
        const LANES_PER_BATCH: usize = 1024;
        let mut scratch = BlockScratch::new();
        let mut failures = vec![0u64; decoders.len()];
        let mut remaining = shots;
        let mut batch_idx = 0u64;
        while remaining > 0 {
            let lanes = (remaining as usize).min(LANES_PER_BATCH);
            let words = self.sample_failure_words_into(
                decoders,
                lanes,
                seed.wrapping_add(batch_idx),
                &mut scratch,
            );
            for (fi, decoder_words) in words.iter().enumerate() {
                failures[fi] += decoder_words
                    .iter()
                    .map(|w| w.count_ones() as u64)
                    .sum::<u64>();
            }
            remaining -= lanes as u64;
            batch_idx += 1;
        }
        failures
    }

    /// [`BlockSampler::run_shots`] with telemetry: identical batching,
    /// seed schedule, and failure count, with per-phase timings and
    /// sampling statistics reported through `recorder`.
    pub fn run_shots_recorded(&self, shots: u64, seed: u64, recorder: &Recorder) -> u64 {
        const LANES_PER_BATCH: usize = 1024;
        let decoders = [self.decoder.as_ref()];
        let mut scratch = BlockScratch::with_recorder(recorder.clone());
        let mut failures = 0u64;
        let mut remaining = shots;
        let mut batch_idx = 0u64;
        while remaining > 0 {
            let lanes = (remaining as usize).min(LANES_PER_BATCH);
            let words = self.sample_failure_words_into(
                &decoders,
                lanes,
                seed.wrapping_add(batch_idx),
                &mut scratch,
            );
            failures += words[0].iter().map(|w| w.count_ones() as u64).sum::<u64>();
            remaining -= lanes as u64;
            batch_idx += 1;
        }
        failures
    }

    /// [`BlockSampler::run_shots`] under a worker policy: serial when
    /// `par` carries no pool, otherwise the batches are claimed
    /// work-stealing-style by the pool's workers. Bit-identical to the
    /// serial path at any worker count (batches are independently
    /// seeded; counts reduce in batch order — see [`pool::SamplePool`]).
    pub fn run_shots_par(&self, shots: u64, seed: u64, par: &Parallelism) -> u64 {
        match par.pool() {
            None => self.run_shots(shots, seed),
            Some(pool) => {
                let mut failures = [0u64];
                pool.run_block_shots(
                    self,
                    &[self.decoder.as_ref()],
                    shots,
                    seed,
                    None,
                    &mut failures,
                );
                failures[0]
            }
        }
    }

    /// [`PreparedBlock::run_shots_with`] under a worker policy (see
    /// [`PreparedBlock::run_shots_par`]).
    pub fn run_shots_with_par(
        &self,
        decoders: &[&(dyn Decoder + Send + Sync)],
        shots: u64,
        seed: u64,
        par: &Parallelism,
    ) -> Vec<u64> {
        match par.pool() {
            None => self.run_shots_with(decoders, shots, seed),
            Some(pool) => {
                let mut failures = vec![0u64; decoders.len()];
                pool.run_block_shots(self, decoders, shots, seed, None, &mut failures);
                failures
            }
        }
    }

    /// [`PreparedBlock::run_shots_recorded`] under a worker policy:
    /// identical failure count *and* identical deterministic telemetry
    /// (per-worker recorders merge commutatively, so the JSONL sidecar
    /// stays byte-identical at any worker count; steal/busy timings land
    /// in the runtime summary only).
    pub fn run_shots_recorded_par(
        &self,
        shots: u64,
        seed: u64,
        recorder: &Recorder,
        par: &Parallelism,
    ) -> u64 {
        match par.pool() {
            None => self.run_shots_recorded(shots, seed, recorder),
            Some(pool) => {
                let mut failures = [0u64];
                pool.run_block_shots(
                    self,
                    &[self.decoder.as_ref()],
                    shots,
                    seed,
                    Some(recorder),
                    &mut failures,
                );
                failures[0]
            }
        }
    }
}

impl BlockSampler for PreparedBlock {
    fn sample_failure_words(&self, lanes: usize, seed: u64) -> Vec<u64> {
        self.sample_failure_words_with(&[self.decoder.as_ref()], lanes, seed)
            .pop()
            .expect("one decoder in, one word vector out")
    }

    /// Override of the trait default: identical batching and seed
    /// schedule, but one [`BlockScratch`] is held across all batches so
    /// the steady state allocates nothing.
    fn run_shots(&self, shots: u64, seed: u64) -> u64 {
        const LANES_PER_BATCH: usize = 1024;
        let decoders = [self.decoder.as_ref()];
        let mut scratch = BlockScratch::new();
        let mut failures = 0u64;
        let mut remaining = shots;
        let mut batch_idx = 0u64;
        while remaining > 0 {
            let lanes = (remaining as usize).min(LANES_PER_BATCH);
            let words = self.sample_failure_words_into(
                &decoders,
                lanes,
                seed.wrapping_add(batch_idx),
                &mut scratch,
            );
            failures += words[0].iter().map(|w| w.count_ones() as u64).sum::<u64>();
            remaining -= lanes as u64;
            batch_idx += 1;
        }
        failures
    }
}

/// Builds the noisy circuit and guard-sector decoder for a
/// memory-experiment config: a [`PreparedBlock`] pinned to
/// [`Boundary::Full`].
///
/// Sampling goes through the [`BlockSampler`] trait; downstream code
/// that needs other boundary kinds holds a [`PreparedBlock`] directly.
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

    /// Runs `shots` sampled shots with the given base seed, returning the
    /// failure count.
    pub fn run_shots(&self, shots: u64, seed: u64) -> u64 {
        self.block.run_shots(shots, seed)
    }

    /// Runs `shots` sampled shots through several decoders at once (see
    /// [`PreparedBlock::run_shots_with`]).
    pub fn run_shots_with(
        &self,
        decoders: &[&(dyn Decoder + Send + Sync)],
        shots: u64,
        seed: u64,
    ) -> Vec<u64> {
        self.block.run_shots_with(decoders, shots, seed)
    }

    /// [`PreparedExperiment::run_shots`] with telemetry (see
    /// [`PreparedBlock::run_shots_recorded`]).
    pub fn run_shots_recorded(&self, shots: u64, seed: u64, recorder: &Recorder) -> u64 {
        self.block.run_shots_recorded(shots, seed, recorder)
    }

    /// [`PreparedExperiment::run_shots`] under a worker policy (see
    /// [`PreparedBlock::run_shots_par`]).
    pub fn run_shots_par(&self, shots: u64, seed: u64, par: &Parallelism) -> u64 {
        self.block.run_shots_par(shots, seed, par)
    }

    /// [`PreparedExperiment::run_shots_with`] under a worker policy
    /// (see [`PreparedBlock::run_shots_with_par`]).
    pub fn run_shots_with_par(
        &self,
        decoders: &[&(dyn Decoder + Send + Sync)],
        shots: u64,
        seed: u64,
        par: &Parallelism,
    ) -> Vec<u64> {
        self.block.run_shots_with_par(decoders, shots, seed, par)
    }

    /// [`PreparedExperiment::run_shots_recorded`] under a worker policy
    /// (see [`PreparedBlock::run_shots_recorded_par`]).
    pub fn run_shots_recorded_par(
        &self,
        shots: u64,
        seed: u64,
        recorder: &Recorder,
        par: &Parallelism,
    ) -> u64 {
        self.block
            .run_shots_recorded_par(shots, seed, recorder, par)
    }
}

impl BlockSampler for PreparedExperiment {
    fn sample_failure_words(&self, lanes: usize, seed: u64) -> Vec<u64> {
        self.block.sample_failure_words(lanes, seed)
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
/// Shots are split into fixed-size chunks with seeds derived from
/// `cfg.seed` and the chunk index alone (the sweep-engine discipline),
/// so results are identical for any `cfg.threads` / machine core count.
pub fn compare_decoders(cfg: &ExperimentConfig, kinds: &[DecoderKind]) -> Vec<ExperimentResult> {
    let prepared = PreparedExperiment::prepare(cfg);
    let decoders: Vec<Box<dyn Decoder + Send + Sync>> = kinds
        .iter()
        .map(|k| k.build(&prepared.block.graph))
        .collect();
    let decoder_refs: Vec<&(dyn Decoder + Send + Sync)> =
        decoders.iter().map(|d| d.as_ref()).collect();

    const CHUNK_SHOTS: u64 = 1024;
    let n_chunks = cfg.shots.div_ceil(CHUNK_SHOTS);
    let chunk_failures = |c: u64| -> Vec<u64> {
        let shots = CHUNK_SHOTS.min(cfg.shots - c * CHUNK_SHOTS);
        let seed = vlq_sweep::splitmix64(cfg.seed ^ vlq_sweep::splitmix64(c));
        prepared.run_shots_with(&decoder_refs, shots, seed)
    };
    let sum = |mut acc: Vec<u64>, part: Vec<u64>| {
        for (a, p) in acc.iter_mut().zip(part) {
            *a += p;
        }
        acc
    };

    let threads = cfg.threads.clamp(1, n_chunks.max(1) as usize);
    let failures: Vec<u64> = if threads <= 1 {
        (0..n_chunks)
            .map(chunk_failures)
            .fold(vec![0u64; kinds.len()], sum)
    } else {
        // Chunk seeds don't depend on this round-robin assignment, so
        // the thread count only affects wall-clock, never results.
        std::thread::scope(|scope| {
            let chunk_failures = &chunk_failures;
            let handles: Vec<_> = (0..threads as u64)
                .map(|t| {
                    scope.spawn(move || {
                        (t..n_chunks)
                            .step_by(threads)
                            .map(chunk_failures)
                            .fold(vec![0u64; kinds.len()], sum)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .fold(vec![0u64; kinds.len()], sum)
        })
    };

    failures
        .into_iter()
        .map(|f| ExperimentResult {
            failures: f,
            shots: cfg.shots,
            estimate: BinomialEstimate::new(f, cfg.shots.max(1)),
            guard_detectors: prepared.block.graph.num_nodes(),
            graph_edges: prepared.block.graph.num_edges(),
        })
        .collect()
}

/// Runs a complete memory experiment (possibly multi-threaded).
pub fn run_memory_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    let prepared = PreparedExperiment::prepare(cfg);
    let threads = cfg.threads.max(1).min(cfg.shots.max(1) as usize);
    let failures = if threads <= 1 {
        prepared.run_shots(cfg.shots, cfg.seed)
    } else {
        let per = cfg.shots / threads as u64;
        let extra = cfg.shots % threads as u64;
        std::thread::scope(|scope| {
            let prepared = &prepared;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let shots = per + u64::from((t as u64) < extra);
                    // Separate seed streams per worker.
                    let seed = cfg
                        .seed
                        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t as u64 + 1));
                    scope.spawn(move || prepared.run_shots(shots, seed))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker")).sum()
        })
    };
    ExperimentResult {
        failures,
        shots: cfg.shots,
        estimate: BinomialEstimate::new(failures, cfg.shots.max(1)),
        guard_detectors: prepared.block.graph.num_nodes(),
        graph_edges: prepared.block.graph.num_edges(),
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
