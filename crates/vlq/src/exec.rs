//! Pluggable executor backends for typed VLQ schedules.
//!
//! A [`Schedule`] (emitted by [`crate::machine::VlqMachine`] or
//! [`crate::program::compile`]) is pure data; everything that *runs* one
//! implements [`Executor`]:
//!
//! * [`CostExecutor`] — replays the schedule against the paper's latency
//!   model, producing the legacy [`MachineReport`] (timeline, op counts,
//!   refresh staleness, deadline misses). Table-2-style compilation
//!   numbers come from here.
//! * [`FrameExecutor`] — replays the schedule on the Pauli-frame
//!   simulator under a [`vlq_circuit::noise::NoiseModel`]: every refresh
//!   pass and logical operation samples a boundary-aware block of noisy
//!   syndrome rounds through the decoder (the shared
//!   `vlq_qec::PreparedBlock` core, sized to the instruction's actual
//!   round span), and the surviving residual
//!   logical errors accumulate in per-shot logical Pauli frames. The
//!   result is a *program-level* logical error rate — the fig-11-style
//!   Monte-Carlo machinery applied to whole logical programs.
//! * [`TraceExecutor`] — renders the schedule as a
//!   [`vlq_sweep::artifact::Table`] (CSV / JSON-lines) for diffing and
//!   visualization.
//!
//! [`ProgramSweepExecutor`] additionally adapts the frame backend to the
//! `vlq-sweep` work-stealing engine so program workloads (GHZ, teleport,
//! adder) can be scanned across distances and error rates exactly like
//! memory experiments.
//!
//! # Fidelity model
//!
//! The frame backend is a two-level simulation. At the physical level,
//! each exposure of a logical qubit — a background refresh pass, a
//! surgery exposure window, an idle-in-DRAM stretch — is sampled as a
//! seeded Monte-Carlo *block*: a `vlq_qec::PreparedBlock` whose noisy
//! syndrome-extraction circuit (built by `vlq-surface`, noise-windowed
//! by `vlq-circuit`) is run on the bit-parallel Pauli-frame simulator
//! and decoded per shot lane, in both the Z and the X guard sector.
//! Under the default [`vlq_surface::schedule::Boundary::MidCircuit`]
//! mode each block is sized to the instruction's *actual* round span;
//! interior blocks have ideal prep/readout boundaries while the
//! program's genuine ends (first exposure after page-in, destructive
//! measurement) charge their real boundary noise exactly once, so
//! error scales with real exposure. The uniform modes
//! ([`vlq_surface::schedule::Boundary::Full`], `Prep`, `Readout`) size
//! blocks the same way but give every block that one boundary (`Full`:
//! each exposure a whole memory experiment, noisy prep and readout
//! included). At the logical level, each lane keeps
//! one Pauli frame per logical qubit; a block whose decode left a
//! residual logical flip XORs that flip into the lane's frame, and
//! Clifford schedule instructions propagate the frames (a transversal
//! CNOT copies X errors control→target and Z errors target→control,
//! etc.). Blocks are sampled independently (no correlations across block
//! boundaries), a surgery *merge* propagates frames as a logical CNOT
//! (a split only adds exposure), and `ConsumeMagic` counts exposure
//! only (Pauli frames cannot
//! track non-Clifford gates exactly). A shot fails when any measured
//! logical outcome flips, or any qubit still live at the end of the
//! program carries a non-identity frame.

use std::collections::BTreeMap;

use vlq_decoder::DecoderKind;
use vlq_math::stats::BinomialEstimate;
use vlq_qec::{BlockConfig, BlockScratch, BlockSpec, Parallelism, PreparedBlock, LANES_PER_BATCH};
use vlq_sim::{CliffordGate, FrameBatch};
use vlq_surface::schedule::{Basis, Boundary, MemorySpec, Setup};
use vlq_surgery::LogicalOp;
use vlq_sweep::artifact::{Table, Value};
use vlq_sweep::{splitmix64, SweepExecutor, SweepPoint};
use vlq_telemetry::{Metric, Recorder};

use crate::isa::{Instr, LogicalGate1Q, Schedule};
use crate::machine::{
    LogicalId, MachineConfig, MachineError, MachineReport, RefreshPolicy, TimelineEvent,
};
use crate::program::{compile, LogicalCircuit};
use vlq_arch::geometry::Embedding;
use vlq_arch::params::HardwareParams;

/// A backend that consumes a typed schedule.
pub trait Executor {
    /// What the backend produces.
    type Output;

    /// Executes the schedule.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::Schedule`] when the schedule fails
    /// structural validation (hand-built schedules; machine-emitted ones
    /// are valid by construction).
    fn run(&self, schedule: &Schedule) -> Result<Self::Output, MachineError>;
}

/// The `Setup` a machine configuration's memory experiments use.
pub fn setup_for_config(config: &MachineConfig) -> Setup {
    match (config.embedding, config.refresh) {
        (Embedding::Baseline2D, _) => Setup::Baseline,
        (Embedding::Natural, RefreshPolicy::Interleaved) => Setup::NaturalInterleaved,
        (Embedding::Natural, RefreshPolicy::AllAtOnce) => Setup::NaturalAllAtOnce,
        (Embedding::Compact, RefreshPolicy::Interleaved) => Setup::CompactInterleaved,
        (Embedding::Compact, RefreshPolicy::AllAtOnce) => Setup::CompactAllAtOnce,
    }
}

/// The embedding + refresh policy behind a `Setup`.
pub fn config_for_setup(setup: Setup) -> (Embedding, RefreshPolicy) {
    match setup {
        Setup::Baseline => (Embedding::Baseline2D, RefreshPolicy::Interleaved),
        Setup::NaturalInterleaved => (Embedding::Natural, RefreshPolicy::Interleaved),
        Setup::NaturalAllAtOnce => (Embedding::Natural, RefreshPolicy::AllAtOnce),
        Setup::CompactInterleaved => (Embedding::Compact, RefreshPolicy::Interleaved),
        Setup::CompactAllAtOnce => (Embedding::Compact, RefreshPolicy::AllAtOnce),
    }
}

// ---------------------------------------------------------------------
// CostExecutor
// ---------------------------------------------------------------------

/// Replays a schedule against the latency model, reproducing the legacy
/// eager-path [`MachineReport`] exactly (pinned by
/// `tests/executor_golden.rs`).
#[derive(Clone, Copy, Debug, Default)]
pub struct CostExecutor;

impl Executor for CostExecutor {
    type Output = MachineReport;

    fn run(&self, schedule: &Schedule) -> Result<MachineReport, MachineError> {
        schedule.validate()?;
        Ok(replay_costs(schedule))
    }
}

impl CostExecutor {
    /// [`Executor::run`] with telemetry: the identical report, with its
    /// deadline-miss count and the schedule's page traffic recorded
    /// through `recorder` (the memory-hierarchy contention counters the
    /// multi-tenant roadmap item measures against).
    pub fn run_recorded(
        &self,
        schedule: &Schedule,
        recorder: &Recorder,
    ) -> Result<MachineReport, MachineError> {
        let report = self.run(schedule)?;
        record_machine_report(&report, schedule, recorder);
        Ok(report)
    }
}

/// Records a cost replay's contention counters: deadline misses from
/// the report, page-in/out traffic counted from the schedule.
pub fn record_machine_report(report: &MachineReport, schedule: &Schedule, recorder: &Recorder) {
    recorder.add(Metric::CostDeadlineMisses, report.deadline_misses);
    if recorder.is_enabled() {
        let (mut ins, mut outs) = (0u64, 0u64);
        for instr in schedule.instrs() {
            match instr {
                Instr::PageIn { .. } => ins += 1,
                Instr::PageOut { .. } => outs += 1,
                _ => {}
            }
        }
        recorder.add(Metric::CostPageIns, ins);
        recorder.add(Metric::CostPageOuts, outs);
    }
}

/// The lenient (non-validating) cost replay behind both
/// [`CostExecutor`] and [`crate::machine::VlqMachine::finish`].
pub fn replay_costs(schedule: &Schedule) -> MachineReport {
    let k = schedule.config().k as u64;
    let mut report = MachineReport {
        total_timesteps: schedule.duration(),
        ..MachineReport::default()
    };
    // Per-qubit bookkeeping reconstructed from the schedule.
    let mut last_ec: BTreeMap<LogicalId, u64> = BTreeMap::new();
    let mut location: BTreeMap<LogicalId, vlq_arch::address::StackCoord> = BTreeMap::new();
    // Deferred legacy timeline events (ConsumeMagic renders as the two
    // eager-path Initialize ops it replaced, the second one interleaved
    // after the refresh passes of its first timestep).
    let mut deferred: std::collections::VecDeque<(u64, TimelineEvent)> =
        std::collections::VecDeque::new();
    let emit = |timeline: &mut Vec<TimelineEvent>,
                deferred: &mut std::collections::VecDeque<(u64, TimelineEvent)>,
                t: u64,
                event: TimelineEvent| {
        while deferred.front().is_some_and(|(dt, _)| *dt < t) {
            let (_, e) = deferred.pop_front().expect("checked non-empty");
            timeline.push(e);
        }
        timeline.push(event);
    };

    for instr in schedule.instrs() {
        match *instr {
            Instr::PageIn { qubit, addr, t } => {
                last_ec.insert(qubit, t);
                location.insert(qubit, addr.stack);
            }
            Instr::PageOut { qubit, .. } => {
                location.remove(&qubit);
            }
            Instr::Correction { qubit, t } => {
                last_ec.insert(qubit, t);
            }
            Instr::RefreshRound {
                stack,
                qubit,
                rounds,
                t,
            } => {
                emit(
                    &mut report.timeline,
                    &mut deferred,
                    t,
                    TimelineEvent::Refresh(t, stack, rounds),
                );
                report.refresh_passes += 1;
                last_ec.insert(qubit, t);
                for (&q, &s) in &location {
                    if s != stack {
                        continue;
                    }
                    let staleness = t.saturating_sub(*last_ec.entry(q).or_insert(t));
                    if staleness > report.max_staleness {
                        report.max_staleness = staleness;
                    }
                    if staleness > k {
                        report.deadline_misses += 1;
                    }
                }
            }
            Instr::Logical1Q { qubit, t, .. } => {
                emit(
                    &mut report.timeline,
                    &mut deferred,
                    t,
                    TimelineEvent::Op(t, LogicalOp::Initialize, vec![qubit]),
                );
            }
            Instr::TransversalCnot {
                control, target, t, ..
            } => {
                emit(
                    &mut report.timeline,
                    &mut deferred,
                    t,
                    TimelineEvent::Op(t, LogicalOp::TransversalCnot, vec![control, target]),
                );
                report.transversal_cnots += 1;
            }
            Instr::LatticeSurgeryCnot {
                control, target, t, ..
            } => {
                emit(
                    &mut report.timeline,
                    &mut deferred,
                    t,
                    TimelineEvent::Op(t, LogicalOp::LatticeSurgeryCnot, vec![control, target]),
                );
                report.surgery_cnots += 1;
            }
            Instr::SurgeryMerge { a, b, t } => {
                emit(
                    &mut report.timeline,
                    &mut deferred,
                    t,
                    TimelineEvent::Op(t, LogicalOp::Merge, vec![a, b]),
                );
            }
            Instr::SurgerySplit { a, b, t } => {
                emit(
                    &mut report.timeline,
                    &mut deferred,
                    t,
                    TimelineEvent::Op(t, LogicalOp::Split, vec![a, b]),
                );
            }
            Instr::Move {
                qubit,
                from,
                to,
                to_addr,
                t,
            } => {
                emit(
                    &mut report.timeline,
                    &mut deferred,
                    t,
                    TimelineEvent::Move(t, qubit, from, to),
                );
                report.moves += 1;
                last_ec.insert(qubit, t);
                location.insert(qubit, to_addr.stack);
            }
            Instr::ConsumeMagic { qubit, t } => {
                emit(
                    &mut report.timeline,
                    &mut deferred,
                    t,
                    TimelineEvent::Op(t, LogicalOp::Initialize, vec![qubit]),
                );
                deferred.push_back((
                    t + 1,
                    TimelineEvent::Op(t + 1, LogicalOp::Initialize, vec![qubit]),
                ));
            }
            Instr::MeasureLogical { qubit, t, .. } => {
                emit(
                    &mut report.timeline,
                    &mut deferred,
                    t,
                    TimelineEvent::Op(t, LogicalOp::Measure, vec![qubit]),
                );
            }
        }
    }
    for (_, event) in deferred {
        report.timeline.push(event);
    }
    report
}

// ---------------------------------------------------------------------
// TraceExecutor
// ---------------------------------------------------------------------

/// Renders a schedule as a machine-readable table (one row per
/// instruction) for diffing and visualization; write it with
/// [`Table::write_dir`] or the CSV/JSONL writers.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceExecutor;

/// Column names of the trace table.
pub const TRACE_COLUMNS: [&str; 8] = [
    "i", "t", "span", "instr", "qubits", "stack_x", "stack_y", "rounds",
];

impl Executor for TraceExecutor {
    type Output = Table;

    fn run(&self, schedule: &Schedule) -> Result<Table, MachineError> {
        schedule.validate()?;
        let mut table = Table::new(TRACE_COLUMNS);
        for (i, instr) in schedule.instrs().iter().enumerate() {
            let mut qubits = String::new();
            instr.for_each_qubit(|q| {
                if !qubits.is_empty() {
                    qubits.push(' ');
                }
                qubits.push_str(&format!("L{}", q.0));
            });
            let (stack, rounds) = match *instr {
                Instr::PageIn { addr, .. }
                | Instr::PageOut { addr, .. }
                | Instr::MeasureLogical { addr, .. } => (Some(addr.stack), None),
                Instr::RefreshRound { stack, rounds, .. } => (Some(stack), Some(rounds)),
                Instr::TransversalCnot { stack, .. } => (Some(stack), None),
                Instr::Move { to, .. } => (Some(to), None),
                Instr::LatticeSurgeryCnot { control_stack, .. } => (Some(control_stack), None),
                _ => (None, None),
            };
            table.row([
                i.into(),
                instr.t().into(),
                instr.span().into(),
                instr.mnemonic().into(),
                qubits.into(),
                stack.map_or(Value::Null, |s| (s.x as u64).into()),
                stack.map_or(Value::Null, |s| (s.y as u64).into()),
                rounds.map_or(Value::Null, Into::into),
            ]);
        }
        Ok(table)
    }
}

// ---------------------------------------------------------------------
// FrameExecutor
// ---------------------------------------------------------------------

/// Program-level Monte-Carlo result from [`FrameExecutor`].
#[derive(Clone, Debug)]
pub struct ProgramReport {
    /// Monte-Carlo shots run.
    pub shots: u64,
    /// Shots in which the program's logical output was corrupted.
    pub failures: u64,
    /// Syndrome-block samples taken per shot (each one a decoded
    /// Monte-Carlo memory block in both guard sectors).
    pub blocks_per_shot: u64,
}

impl ProgramReport {
    /// The program-level logical error rate.
    pub fn logical_error_rate(&self) -> f64 {
        if self.shots == 0 {
            0.0
        } else {
            self.failures as f64 / self.shots as f64
        }
    }

    /// Binomial estimate with confidence machinery.
    pub fn estimate(&self) -> BinomialEstimate {
        BinomialEstimate::new(self.failures, self.shots.max(1))
    }
}

/// Replays a schedule on the Pauli-frame simulator with a noise model,
/// decoding every syndrome block, and reports the program-level logical
/// error rate.
///
/// # Examples
///
/// ```no_run
/// use vlq::exec::{Executor, FrameExecutor};
/// use vlq::machine::MachineConfig;
/// use vlq::program::{compile, LogicalCircuit};
///
/// let compiled = compile(&LogicalCircuit::ghz(4), MachineConfig::compact_demo()).unwrap();
/// let report = FrameExecutor::at_scale(1e-3)
///     .with_shots(1000)
///     .run(&compiled.schedule)
///     .unwrap();
/// println!("GHZ-4 logical error rate: {:.3e}", report.logical_error_rate());
/// ```
#[derive(Clone, Debug)]
pub struct FrameExecutor {
    /// Physical error scale `p` (the SC-SC two-qubit rate; all other
    /// rates derive from it through the setup's noise model).
    pub p: f64,
    /// Decoder run on every syndrome block.
    pub decoder: DecoderKind,
    /// Monte-Carlo shots.
    pub shots: u64,
    /// Base RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Which block boundary exposures are sampled under.
    ///
    /// Every mode sizes one block to each instruction's actual round
    /// span. Under [`Boundary::MidCircuit`] (the default) interior
    /// blocks are boundary-light while the program's genuine ends
    /// charge their real prep/readout noise exactly once (see
    /// `exposure_boundary`), so error scales with real exposure; the
    /// other modes give every block their one boundary
    /// ([`Boundary::Full`]: noisy prep and readout on every exposure).
    pub boundary: Boundary,
}

impl FrameExecutor {
    /// A frame executor at physical error scale `p` (union-find decoder,
    /// 1024 shots, mid-circuit blocks, the workspace's default seed).
    pub fn at_scale(p: f64) -> Self {
        FrameExecutor {
            p,
            decoder: DecoderKind::UnionFind,
            shots: 1024,
            seed: 2020,
            boundary: Boundary::MidCircuit,
        }
    }

    /// Sets the shot count.
    pub fn with_shots(mut self, shots: u64) -> Self {
        self.shots = shots;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the decoder.
    pub fn with_decoder(mut self, decoder: DecoderKind) -> Self {
        self.decoder = decoder;
        self
    }

    /// Sets the block boundary mode.
    pub fn with_boundary(mut self, boundary: Boundary) -> Self {
        self.boundary = boundary;
        self
    }
}

impl Executor for FrameExecutor {
    type Output = ProgramReport;

    fn run(&self, schedule: &Schedule) -> Result<ProgramReport, MachineError> {
        self.run_recorded(schedule, &Recorder::disabled())
    }
}

impl FrameExecutor {
    /// [`Executor::run`] with telemetry: the identical report, plus
    /// per-instruction-kind block-exposure counters recorded into
    /// `recorder` (see [`FramePrepared::run`]).
    pub fn run_recorded(
        &self,
        schedule: &Schedule,
        recorder: &Recorder,
    ) -> Result<ProgramReport, MachineError> {
        schedule.validate()?;
        let prepared = FramePrepared::new(schedule.clone(), self.p, self.decoder, self.boundary);
        let failures = prepared.run(self.shots, self.seed, &Parallelism::serial(), recorder);
        Ok(ProgramReport {
            shots: self.shots,
            failures,
            blocks_per_shot: prepared.blocks_per_shot(),
        })
    }
}

/// A schedule prepared for repeated seeded frame replay, compiled once
/// into a flat list of replay steps: page traffic resets a slot's
/// frame, logical Cliffords apply to the frames, every exposure samples
/// one prepared block in both guard sectors, and a destructive
/// measurement reads a slot's frame out. The noisy syndrome-block
/// circuits, decoding graphs and decoders are built once per block
/// shape (round count, boundary), in both sectors, and the steps index
/// into them.
///
/// Shared between [`FrameExecutor`] (one-shot runs) and
/// [`ProgramSweepExecutor`] (the engine calls [`FramePrepared::run`]
/// once per shot chunk).
pub struct FramePrepared {
    schedule: Schedule,
    /// Frame-lane slots: one per logical qubit, in order of first use.
    num_slots: usize,
    steps: Vec<Step>,
    /// Prepared (Z-basis, X-basis) blocks, one pair per block shape.
    /// The Z-basis guard failure is a residual logical X flip, and vice
    /// versa.
    blocks: Vec<[PreparedBlock; 2]>,
    /// Slots no instruction measures: a frame left on one at the end of
    /// a batch corrupts the program.
    unmeasured: Vec<usize>,
}

/// One step of a compiled frame replay.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Page-in or page-out: the slot's frame restarts clean.
    Reset(usize),
    /// A logical H, or the CNOT of a transversal or surgery CNOT or of
    /// a surgery merge.
    Gate(CliffordGate),
    /// One sampled block of `blocks[block]` in both guard sectors,
    /// XORed into the slot's frame; seeded by the instruction index and
    /// the operand offset within the instruction.
    Expose {
        slot: usize,
        block: usize,
        instr: u64,
        offset: u64,
    },
    /// A destructive Z readout of the slot.
    Measure(usize),
}

/// Reusable working set for [`FramePrepared`]'s batch replay: the
/// logical Pauli frames, the per-lane failure words, and one
/// [`BlockScratch`] that samples and decodes every block of the replay.
/// Holding one scratch across batches — one per worker of
/// [`FramePrepared::run`] — makes the steady state allocation-free under
/// either decoder.
///
/// Its buffers are plain and are reshaped per batch, so one scratch
/// also serves any number of preparations through
/// [`FramePrepared::run_batch`], with the counts a fresh scratch would
/// give.
#[derive(Default)]
pub struct FrameScratch {
    frames: FrameBatch,
    /// Per-lane program-failure words.
    failed: Vec<u64>,
    block: BlockScratch,
}

impl FrameScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Domain separator of the mid-circuit block-seed derivation.
const BLOCK_SEED_DOMAIN: u64 = 0x626c_6f63_6b73_6565; // "blocksee"

/// The seeded random stream of one sampled block: splitmix64-chained
/// over the batch seed, the instruction index, the guard sector
/// (0 = Z, 1 = X), and the block offset within the instruction (the
/// operand index for two-qubit instructions). Every coordinate passes
/// through a full splitmix64 round, so adjacent instructions — and the
/// two sectors / operands of one instruction — can never share a
/// stream.
fn block_seed(batch_seed: u64, instr: u64, sector: u64, offset: u64) -> u64 {
    let mut h = splitmix64(batch_seed ^ BLOCK_SEED_DOMAIN);
    h = splitmix64(h ^ splitmix64(instr));
    h = splitmix64(h ^ splitmix64(sector));
    splitmix64(h ^ splitmix64(offset))
}

/// The boundary one exposure samples under. In the ends-aware
/// mid-circuit mode, a qubit's *first* exposure after page-in charges
/// real preparation noise (`Prep`), the destructive-measurement
/// exposure charges real readout noise (`Readout`), an exposure that
/// is both at once is the full memory experiment, and interior
/// exposures are boundary-light — so a program charges each physical
/// boundary exactly once, where it actually happens. The uniform
/// modes (`Full`, `Prep`, `Readout`) apply themselves to every block.
fn exposure_boundary(mode: Boundary, first: bool, measures: bool) -> Boundary {
    if mode != Boundary::MidCircuit {
        return mode;
    }
    match (first, measures) {
        (true, true) => Boundary::Full,
        (true, false) => Boundary::Prep,
        (false, true) => Boundary::Readout,
        (false, false) => Boundary::MidCircuit,
    }
}

impl FramePrepared {
    /// Compiles a schedule into replay steps and builds every block
    /// experiment they sample under a boundary mode.
    ///
    /// One block is sized to each instruction's actual round span — a
    /// refresh pass samples exactly its `rounds`, a span-`s` operation
    /// samples one `s * d`-round block per participant (surgery
    /// exposure windows, idle-in-DRAM stretches, magic-state waits).
    /// Under the mid-circuit default the program's genuine ends charge
    /// their real boundary noise via the ends-aware exposure rule
    /// (first exposure after page-in → `Prep`, destructive measurement
    /// → `Readout`) and everything in between is boundary-light; the
    /// uniform modes (`Full`, `Prep`, `Readout`) give every block their
    /// own boundary.
    pub fn new(schedule: Schedule, p: f64, decoder: DecoderKind, boundary: Boundary) -> Self {
        let config = *schedule.config();
        let setup = setup_for_config(&config);
        let prepare = |rounds: usize, basis: Basis, block_boundary: Boundary| {
            let mut spec = MemorySpec::standard(setup, config.d, config.k, basis);
            spec.rounds = rounds;
            PreparedBlock::prepare(
                &BlockConfig::new(
                    BlockSpec {
                        memory: spec,
                        boundary: block_boundary,
                    },
                    p,
                )
                .with_decoder(decoder),
            )
        };
        let mut slots: BTreeMap<LogicalId, usize> = BTreeMap::new();
        let mut steps = Vec::new();
        let mut blocks = Vec::new();
        let mut shapes: BTreeMap<(usize, Boundary), usize> = BTreeMap::new();
        let mut fresh: std::collections::BTreeSet<LogicalId> = Default::default();
        let mut measured = Vec::new();
        for (idx, instr) in schedule.instrs().iter().enumerate() {
            instr.for_each_qubit(|q| {
                let next = slots.len();
                slots.entry(q).or_insert(next);
            });
            let slot = |q: LogicalId| slots[&q];
            match *instr {
                Instr::PageIn { qubit, .. } => {
                    fresh.insert(qubit);
                    steps.push(Step::Reset(slot(qubit)));
                }
                Instr::PageOut { qubit, .. } => {
                    fresh.remove(&qubit);
                    steps.push(Step::Reset(slot(qubit)));
                }
                Instr::Logical1Q {
                    qubit,
                    gate: LogicalGate1Q::H,
                    ..
                } => steps.push(Step::Gate(CliffordGate::H(slot(qubit)))),
                // A merge's joint parity measurement spreads errors
                // between the fused patches; the logical-level view of
                // that spread is CNOT propagation.
                Instr::TransversalCnot {
                    control: a,
                    target: b,
                    ..
                }
                | Instr::LatticeSurgeryCnot {
                    control: a,
                    target: b,
                    ..
                }
                | Instr::SurgeryMerge { a, b, .. } => {
                    steps.push(Step::Gate(CliffordGate::Cnot(slot(a), slot(b))));
                }
                _ => {}
            }
            // One block per refresh pass, one per participant of any
            // other instruction with a nonzero span.
            let rounds = match *instr {
                Instr::RefreshRound { rounds, .. } => Some(rounds),
                _ if instr.span() > 0 => Some(instr.span() as usize * config.d),
                _ => None,
            };
            let measures = matches!(instr, Instr::MeasureLogical { .. });
            if let Some(rounds) = rounds {
                let mut offset = 0;
                instr.for_each_qubit(|q| {
                    let b = exposure_boundary(boundary, fresh.remove(&q), measures);
                    let block = *shapes.entry((rounds, b)).or_insert_with(|| {
                        blocks.push([prepare(rounds, Basis::Z, b), prepare(rounds, Basis::X, b)]);
                        blocks.len() - 1
                    });
                    steps.push(Step::Expose {
                        slot: slot(q),
                        block,
                        instr: idx as u64,
                        offset,
                    });
                    offset += 1;
                });
            }
            if let Instr::MeasureLogical { qubit, .. } = *instr {
                measured.push(slot(qubit));
                steps.push(Step::Measure(slot(qubit)));
            }
        }
        let unmeasured = (0..slots.len()).filter(|s| !measured.contains(s)).collect();
        FramePrepared {
            schedule,
            num_slots: slots.len(),
            steps,
            blocks,
            unmeasured,
        }
    }

    /// Syndrome-block samples per shot (both sectors of one exposure
    /// count as one block): the replay's `Expose` steps.
    pub fn blocks_per_shot(&self) -> u64 {
        self.exposure_instrs().count() as u64
    }

    /// The instruction index of every `Expose` step, in replay order.
    fn exposure_instrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.steps.iter().filter_map(|step| match *step {
            Step::Expose { instr, .. } => Some(instr),
            _ => None,
        })
    }

    /// Runs `shots` seeded shots under a worker policy and returns the
    /// number of corrupted programs.
    ///
    /// Batch `b` replays with seed `splitmix64(seed ^ splitmix64(b))`,
    /// so the count is identical at any worker count; each worker
    /// replays its batches against one [`FrameScratch`], so its steady
    /// state allocates nothing. With `recorder` attached, each
    /// instruction kind's block-exposure count is recorded — one replay
    /// of the schedule per batch, so the values are a pure function of
    /// the schedule and the batch count.
    pub fn run(&self, shots: u64, seed: u64, par: &Parallelism, recorder: &Recorder) -> u64 {
        let mut failures = [0u64];
        par.run_batches(
            shots,
            recorder,
            &mut failures,
            FrameScratch::new,
            |scratch, batch, lanes, counts| {
                counts[0] += self.run_batch(lanes, splitmix64(seed ^ splitmix64(batch)), scratch);
            },
        );
        if recorder.is_enabled() {
            self.record_block_exposures(recorder, shots.div_ceil(LANES_PER_BATCH as u64));
        }
        failures[0]
    }

    /// Adds each `Expose` step, under its instruction kind's counter,
    /// to the recorder, scaled by `batches` (each batch replays the
    /// steps once for all of its lanes).
    fn record_block_exposures(&self, recorder: &Recorder, batches: u64) {
        for instr in self.exposure_instrs() {
            let metric = match self.schedule.instrs()[instr as usize] {
                Instr::RefreshRound { .. } => Metric::ExecRefreshBlocks,
                Instr::Logical1Q { .. } => Metric::ExecLogical1QBlocks,
                Instr::TransversalCnot { .. } | Instr::LatticeSurgeryCnot { .. } => {
                    Metric::ExecCnotBlocks
                }
                Instr::SurgeryMerge { .. } | Instr::SurgerySplit { .. } => {
                    Metric::ExecSurgeryBlocks
                }
                Instr::Move { .. } => Metric::ExecMoveBlocks,
                Instr::ConsumeMagic { .. } => Metric::ExecMagicBlocks,
                Instr::MeasureLogical { .. } => Metric::ExecMeasureBlocks,
                Instr::PageIn { .. } | Instr::PageOut { .. } | Instr::Correction { .. } => continue,
            };
            recorder.add(metric, batches);
        }
    }

    /// Replays one batch of `lanes` shots seeded `batch_seed` against
    /// caller-owned scratch and returns how many of them corrupted the
    /// program. The result depends only on the preparation, `lanes`
    /// and `batch_seed`; the scratch's buffers are reused across calls.
    pub fn run_batch(&self, lanes: usize, batch_seed: u64, scratch: &mut FrameScratch) -> u64 {
        let FrameScratch {
            frames,
            failed,
            block,
        } = scratch;
        frames.reset(self.num_slots.max(1), lanes);
        failed.clear();
        failed.resize(lanes.div_ceil(64).max(1), 0);
        for step in &self.steps {
            match *step {
                Step::Reset(slot) => frames.reset_qubit(slot),
                Step::Gate(gate) => frames.apply(gate),
                Step::Expose {
                    slot,
                    block: b,
                    instr,
                    offset,
                } => {
                    let [z_block, x_block] = &self.blocks[b];
                    // Z-basis guard failure = residual logical X error.
                    let x_flips = &z_block.sample_failure_words_into(
                        &[z_block.decoder()],
                        lanes,
                        block_seed(batch_seed, instr, 0, offset),
                        block,
                    )[0];
                    frames.xor_x_words(slot, x_flips);
                    let z_flips = &x_block.sample_failure_words_into(
                        &[x_block.decoder()],
                        lanes,
                        block_seed(batch_seed, instr, 1, offset),
                        block,
                    )[0];
                    frames.xor_z_words(slot, z_flips);
                }
                Step::Measure(slot) => {
                    // A destructive Z readout is corrupted by the
                    // frame's X component; Z errors are harmless here.
                    for (f, o) in failed.iter_mut().zip(frames.x_words(slot)) {
                        *f |= o;
                    }
                }
            }
        }
        // Qubits still live at the end of the program must carry the
        // identity frame, else the prepared logical state is corrupted.
        for &s in &self.unmeasured {
            for (w, f) in failed.iter_mut().enumerate() {
                *f |= frames.x_words(s)[w] | frames.z_words(s)[w];
            }
        }
        failed.iter().map(|w| w.count_ones() as u64).sum()
    }
}

// ---------------------------------------------------------------------
// Program sweeps on the work-stealing engine
// ---------------------------------------------------------------------

/// Names of the registered program workloads (`SweepSpec::programs`).
/// `ghz<N>` and `adder<N>` accept any width.
pub const PROGRAM_NAMES: [&str; 4] = ["ghz4", "ghz8", "teleport", "adder2"];

/// Looks up a program workload by registry name.
pub fn program_by_name(name: &str) -> Option<LogicalCircuit> {
    if let Some(n) = name.strip_prefix("ghz") {
        let n: usize = n.parse().ok()?;
        return (n >= 2).then(|| LogicalCircuit::ghz(n));
    }
    if let Some(n) = name.strip_prefix("adder") {
        let n: usize = n.parse().ok()?;
        return (n >= 1).then(|| LogicalCircuit::adder(n));
    }
    (name == "teleport").then(LogicalCircuit::teleport)
}

/// The machine shape a program sweep point compiles onto: the point's
/// setup picks embedding + refresh policy, `d`/`k` come straight from
/// the grid, and the stack count grows to fit the program (2 stacks per
/// row, one mode per stack kept free).
///
/// # Panics
///
/// Panics when `point.k < 2`: the machine needs one storage + one free
/// mode per stack, and silently simulating a deeper stack than the
/// point's `k` column records would mislabel the artifact. Program
/// specs must set `SweepSpec::ks` explicitly (the spec default of
/// `ks = [1]` is a memory-experiment convention).
pub fn machine_config_for_point(point: &SweepPoint, num_qubits: usize) -> MachineConfig {
    let (embedding, refresh) = config_for_setup(point.setup);
    assert!(
        point.k >= 2,
        "program sweep points need k >= 2 (one storage + one free mode per stack); \
         got k = {} — set SweepSpec::ks explicitly",
        point.k
    );
    let k = point.k;
    let per_stack = k - 1;
    let stacks = num_qubits.div_ceil(per_stack).max(4);
    MachineConfig {
        stacks_x: 2,
        stacks_y: stacks.div_ceil(2) as u32,
        k,
        d: point.d,
        embedding,
        refresh,
        prefer_transversal: true,
        hw: HardwareParams::with_memory(),
    }
}

/// [`SweepExecutor`] running program workloads through
/// [`FramePrepared`]: `prepare` compiles the point's program at the
/// point's distance/depth and builds the block experiments once;
/// `run_chunk` replays seeded shot chunks.
///
/// Defaults to [`Boundary::MidCircuit`] blocks — the quantitative
/// program-level fidelity model; set `boundary` to a uniform mode (the
/// `prog1` binary's `--boundary` flag) to give every block that
/// boundary, e.g. [`Boundary::Full`] for a whole memory experiment per
/// exposure.
///
/// # Panics
///
/// `prepare` panics when the point carries no program name or an
/// unregistered one — specs are validated at construction, so this
/// mirrors the unknown-knob contract of `vlq-qec`'s `MemoryExecutor`.
#[derive(Clone, Debug)]
pub struct ProgramSweepExecutor {
    /// Block boundary every exposure is sampled under.
    pub boundary: Boundary,
}

impl Default for ProgramSweepExecutor {
    fn default() -> Self {
        Self::new(Boundary::MidCircuit)
    }
}

impl ProgramSweepExecutor {
    /// An executor sampling under `boundary`.
    pub fn new(boundary: Boundary) -> Self {
        ProgramSweepExecutor { boundary }
    }
}

impl SweepExecutor for ProgramSweepExecutor {
    type Prepared = FramePrepared;

    fn prepare(&self, point: &SweepPoint) -> FramePrepared {
        let name = point
            .program
            .as_deref()
            .expect("program sweep point without a program name");
        let circuit = program_by_name(name)
            .unwrap_or_else(|| panic!("sweep point names unknown program {name:?}"));
        let config = machine_config_for_point(point, circuit.num_qubits);
        let compiled = compile(&circuit, config).expect("registered programs fit their machines");
        FramePrepared::new(compiled.schedule, point.p, point.decoder, self.boundary)
    }

    fn run_chunk(
        &self,
        prepared: &FramePrepared,
        _point: &SweepPoint,
        shots: u64,
        seed: u64,
    ) -> u64 {
        prepared.run(shots, seed, &Parallelism::serial(), &Recorder::disabled())
    }

    fn run_chunk_recorded(
        &self,
        prepared: &FramePrepared,
        _point: &SweepPoint,
        shots: u64,
        seed: u64,
        recorder: &Recorder,
    ) -> u64 {
        prepared.run(shots, seed, &Parallelism::serial(), recorder)
    }
}

/// A single-qubit idle-memory schedule: one logical qubit paged in and
/// refreshed for `cycles` scheduler cycles, then measured.
///
/// Replaying it through [`FrameExecutor`] with [`Boundary::Full`]
/// samples every exposure as the same kind of Monte-Carlo block that
/// `vlq_qec::run_memory_experiment` samples — the memory experiment is
/// the degenerate program, which is the point of the shared execution
/// path; the default mid-circuit boundary replays the same schedule
/// charging prep and readout noise once, at its real ends (see
/// `docs/executors.md`).
pub fn memory_schedule(config: MachineConfig, cycles: u64) -> Schedule {
    let mut machine = crate::machine::VlqMachine::new(config);
    let q = machine.alloc().expect("empty machine has room");
    machine.advance(cycles);
    machine.measure(q).expect("qubit is alive");
    machine.into_schedule()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::VlqMachine;
    use vlq_arch::address::StackCoord;

    #[test]
    fn setup_mapping_round_trips() {
        for setup in Setup::ALL {
            let (embedding, refresh) = config_for_setup(setup);
            let cfg = MachineConfig {
                embedding,
                refresh,
                ..MachineConfig::compact_demo()
            };
            assert_eq!(setup_for_config(&cfg), setup);
        }
    }

    #[test]
    fn cost_executor_rejects_invalid_schedules() {
        let mut s = Schedule::new(MachineConfig::compact_demo());
        s.push(Instr::Correction {
            qubit: LogicalId(3),
            t: 0,
        });
        assert!(matches!(
            CostExecutor.run(&s),
            Err(MachineError::Schedule { .. })
        ));
    }

    #[test]
    fn trace_has_one_row_per_instruction() {
        let mut m = VlqMachine::new(MachineConfig::compact_demo());
        let a = m.alloc_in(StackCoord::new(0, 0)).unwrap();
        let b = m.alloc_in(StackCoord::new(0, 0)).unwrap();
        m.cnot(a, b).unwrap();
        let schedule = m.into_schedule();
        let table = TraceExecutor.run(&schedule).unwrap();
        assert_eq!(table.len(), schedule.len());
        let mut csv = Vec::new();
        table.write_csv(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        assert!(text.starts_with("i,t,span,instr,"));
        assert!(text.contains("transversal-cnot"));
        assert!(text.contains("page-in"));
    }

    #[test]
    fn program_registry_parses_names() {
        assert_eq!(program_by_name("ghz4").unwrap().num_qubits, 4);
        assert_eq!(program_by_name("ghz12").unwrap().num_qubits, 12);
        assert_eq!(program_by_name("teleport").unwrap().num_qubits, 3);
        assert!(program_by_name("adder2").unwrap().t_count() > 0);
        assert!(program_by_name("ghz1").is_none());
        assert!(program_by_name("bogus").is_none());
        for name in PROGRAM_NAMES {
            assert!(program_by_name(name).is_some(), "{name} not resolvable");
        }
    }

    #[test]
    fn noiseless_frame_replay_never_fails() {
        let compiled = compile(&LogicalCircuit::ghz(4), MachineConfig::compact_demo()).unwrap();
        let report = FrameExecutor::at_scale(0.0)
            .with_shots(256)
            .run(&compiled.schedule)
            .unwrap();
        assert_eq!(report.failures, 0);
        assert_eq!(report.shots, 256);
        assert!(report.blocks_per_shot > 0);
    }

    #[test]
    fn frame_replay_is_deterministic_and_batch_independent() {
        let compiled = compile(&LogicalCircuit::ghz(3), MachineConfig::compact_demo()).unwrap();
        // p low enough that neither boundary mode saturates (at
        // saturation two seeds can collide on the same failure count).
        for boundary in [Boundary::MidCircuit, Boundary::Full] {
            let prepared = FramePrepared::new(
                compiled.schedule.clone(),
                1e-3,
                DecoderKind::UnionFind,
                boundary,
            );
            let run = |seed| prepared.run(300, seed, &Parallelism::serial(), &Recorder::disabled());
            let a = run(7);
            assert_eq!(a, run(7), "{boundary}: runs must reproduce");
            assert_ne!(run(8), a, "{boundary}: seed must matter");
        }
    }

    #[test]
    fn mid_circuit_blocks_shrink_program_error() {
        // The whole point of the boundary redesign: replaying the same
        // schedule with ends-aware mid-circuit blocks must yield
        // strictly less error than giving every exposure a full memory
        // experiment's noisy prep and readout.
        // p low enough that neither model saturates — at saturation
        // both pin near shots and the comparison is vacuous.
        let compiled = compile(&LogicalCircuit::ghz(3), MachineConfig::compact_demo()).unwrap();
        let run = |boundary: Boundary| {
            FrameExecutor::at_scale(1e-3)
                .with_shots(1500)
                .with_seed(11)
                .with_boundary(boundary)
                .run(&compiled.schedule)
                .unwrap()
                .failures
        };
        let (mid, full) = (run(Boundary::MidCircuit), run(Boundary::Full));
        assert!(mid < full, "mid-circuit {mid} failures !< full {full}");
    }

    #[test]
    fn surgery_merge_propagates_errors_between_patches() {
        // A/B with identical exposure structure: both schedules refresh
        // patch `a` five times, run one span-1 surgery primitive over
        // (a, b), read out `b`, and discard `a` unmeasured. The merge
        // propagates a's accumulated X errors into b's readout; the
        // split exposes identically but propagates nothing.
        use vlq_arch::address::{ModeIndex, VirtAddr};
        let build = |merge: bool| {
            let cfg = MachineConfig::compact_demo();
            let (a, b) = (LogicalId(0), LogicalId(1));
            let addr_a = VirtAddr::new(StackCoord::new(0, 0), ModeIndex(0));
            let addr_b = VirtAddr::new(StackCoord::new(0, 0), ModeIndex(1));
            let mut s = Schedule::new(cfg);
            s.push(Instr::PageIn {
                qubit: a,
                addr: addr_a,
                t: 0,
            });
            s.push(Instr::PageIn {
                qubit: b,
                addr: addr_b,
                t: 0,
            });
            for t in 1..=5 {
                s.push(Instr::RefreshRound {
                    stack: addr_a.stack,
                    qubit: a,
                    rounds: 3,
                    t,
                });
            }
            s.push(if merge {
                Instr::SurgeryMerge { a, b, t: 6 }
            } else {
                Instr::SurgerySplit { a, b, t: 6 }
            });
            s.push(Instr::MeasureLogical {
                qubit: b,
                addr: addr_b,
                t: 7,
            });
            s.push(Instr::PageOut {
                qubit: b,
                addr: addr_b,
                t: 8,
            });
            s.push(Instr::PageOut {
                qubit: a,
                addr: addr_a,
                t: 8,
            });
            s
        };
        let run = |merge: bool| {
            FrameExecutor::at_scale(5e-3)
                .with_shots(4000)
                .with_seed(17)
                .run(&build(merge))
                .expect("valid schedule")
                .failures
        };
        let (with_merge, with_split) = (run(true), run(false));
        assert!(
            with_merge > with_split,
            "merge must copy a's errors into b's readout: merge {with_merge} !> split {with_split}"
        );
    }

    #[test]
    #[should_panic(expected = "need k >= 2 (one storage + one free mode per stack); got k = 1")]
    fn program_points_with_memory_default_depth_are_rejected() {
        // ks = [1] is the memory-experiment default; simulating a deeper
        // stack than the recorded k would mislabel the artifact.
        let pt = SweepPoint {
            setup: Setup::CompactInterleaved,
            basis: vlq_surface::schedule::Basis::Z,
            d: 3,
            p: 1e-3,
            k: 1,
            rounds: None,
            decoder: DecoderKind::UnionFind,
            shots: 10,
            knob: None,
            program: Some("ghz3".to_string()),
        };
        machine_config_for_point(&pt, 3);
    }

    #[test]
    fn memory_schedule_degenerates_to_the_memory_experiment_shape() {
        let schedule = memory_schedule(MachineConfig::compact_demo(), 10);
        schedule.validate().unwrap();
        let refreshes = schedule.count(|i| matches!(i, Instr::RefreshRound { .. }));
        assert!(refreshes >= 10, "one refresh pass per idle cycle");
        assert_eq!(
            schedule.count(|i| matches!(i, Instr::MeasureLogical { .. })),
            1
        );
    }
}
