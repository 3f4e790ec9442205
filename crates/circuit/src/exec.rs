//! Circuit executors.
//!
//! Four ways to run a [`Circuit`]:
//!
//! * [`SampleTape`] — Monte-Carlo: a noisy circuit compiled once, then
//!   sampled in 64-shot-per-word Pauli-frame batches whose measurements
//!   reduce to detection events and observable flips ([`sample_batch`]
//!   compiles and samples once).
//! * [`FaultSensitivity`] — deterministic: one backward pass over the
//!   circuit yields the detectors/observable every single fault flips
//!   (used to build matching graphs).
//! * [`propagate_fault`] — deterministic: injects one fault at a given
//!   site and replays the rest of the circuit forward; the reference
//!   oracle the backward pass is tested against.
//! * [`validate_with_tableau`] — runs the *ideal* part of the circuit on
//!   the stabilizer simulator and checks that every detector is
//!   deterministic (XOR = 0) and every observable is deterministic; this
//!   is the gate every generated schedule must pass.

use rand::Rng;
use vlq_pauli::Pauli;
use vlq_sim::tableau::MeasureOutcome;
use vlq_sim::{BernoulliRate, CliffordGate, FrameBatch, SingleFrame, Tableau};

use crate::ir::{Circuit, Instruction};

/// The result of sampling a batch of shots: one packed row of lane
/// bits per detector, then one per observable, in one word buffer.
///
/// Every row is `stride` words (`n_lanes.div_ceil(64)`, at least 1),
/// and tail bits beyond `n_lanes` are zero. Refilling a result for a
/// smaller circuit keeps the buffer's capacity, so a scratch that
/// alternates circuits of different sizes stops allocating once it
/// has seen the largest.
#[derive(Clone, Debug, Default)]
pub struct BatchResult {
    /// Number of shot lanes.
    pub n_lanes: usize,
    num_detectors: usize,
    stride: usize,
    words: Vec<u64>,
}

impl BatchResult {
    /// The number of detector rows.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Every row's words: detector rows in detector order, then
    /// observable rows, one row's lane words each.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The packed per-lane event words of detector `d`.
    ///
    /// # Panics
    ///
    /// Panics when `d` is not below [`BatchResult::num_detectors`].
    pub fn detector_words(&self, d: usize) -> &[u64] {
        assert!(
            d < self.num_detectors,
            "detector {d} out of range ({} detectors)",
            self.num_detectors
        );
        self.row(d)
    }

    /// The packed per-lane flip words of observable `o`.
    pub fn observable_words(&self, o: usize) -> &[u64] {
        self.row(self.num_detectors + o)
    }

    /// Reads detector `d` for `lane`.
    pub fn detector_bit(&self, d: usize, lane: usize) -> bool {
        self.detector_words(d)[lane / 64] >> (lane % 64) & 1 == 1
    }

    /// Reads observable `o` for `lane`.
    pub fn observable_bit(&self, o: usize, lane: usize) -> bool {
        self.observable_words(o)[lane / 64] >> (lane % 64) & 1 == 1
    }

    /// Word-scan transpose of a detector subset: clears the first
    /// `lanes` entries of `lists` and fills `lists[lane]` with the
    /// *local* indices (positions within `detectors`) of the detectors
    /// whose bit is set for that lane, in increasing local order. Fills
    /// `live` with the OR of the subset's rows, `lanes.div_ceil(64)`
    /// words (at least 1): bit `l` is set exactly when `lists[l]` is
    /// not empty, the mask `vlq_decoder::Decoder::decode_batch` takes.
    ///
    /// This visits only *set* bits (`trailing_zeros` over the packed
    /// columns), so the cost is O(detectors·words + defects) instead of
    /// the O(lanes·detectors) of probing [`BatchResult::detector_bit`]
    /// per lane. Tail bits beyond `n_lanes` are zero by construction,
    /// so every visited lane is `< lanes`.
    pub fn defect_lists_into(
        &self,
        detectors: &[usize],
        lanes: usize,
        lists: &mut Vec<Vec<usize>>,
        live: &mut Vec<u64>,
    ) {
        if lists.len() < lanes {
            // Seed fresh lists with a little capacity: typical defect
            // counts are single-digit, and first-touch growth would
            // otherwise trickle allocations across many steady-state
            // batches (one per lane the first time it sees a defect).
            lists.resize_with(lanes, || Vec::with_capacity(16));
        }
        for list in &mut lists[..lanes] {
            list.clear();
        }
        let words = lanes.div_ceil(64).max(1);
        live.clear();
        live.resize(words, 0);
        for (local, &global) in detectors.iter().enumerate() {
            let row = &self.detector_words(global)[..words];
            for (acc, word) in live.iter_mut().zip(row) {
                *acc |= word;
            }
            for_each_set_lane(row, |lane| {
                debug_assert!(lane < lanes, "tail bit set beyond n_lanes");
                lists[lane].push(local);
            });
        }
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.words[r * self.stride..(r + 1) * self.stride]
    }
}

/// Visits every set bit of a packed lane column as its lane index, in
/// increasing lane order (the word-scan shared by all defect
/// extraction paths).
#[inline]
pub fn for_each_set_lane(words: &[u64], mut visit: impl FnMut(usize)) {
    for (w, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            visit(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// Reusable working memory for [`SampleTape::sample_into`]: the frame
/// batch, the measurement records, and the reduced detector/observable
/// accumulators. Owning one across batches makes steady-state sampling
/// allocation-free (buffers are cleared and refilled, never dropped).
#[derive(Debug, Default)]
pub struct SampleScratch {
    frames: FrameBatch,
    /// Measurement records, one run of lane words per record.
    records: Vec<u64>,
    /// The last batch's reduced result (valid after
    /// [`SampleTape::sample_into`] returns; accumulators are reused).
    pub result: BatchResult,
}

impl SampleScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One step of a [`SampleTape`].
#[derive(Clone, Copy, Debug)]
enum Op {
    /// H, S, CNOT, CZ or SWAP (S† runs as S; iSWAP is expanded).
    Gate(CliffordGate),
    /// Appends the qubit's X plane to the records, flips it at the
    /// readout rate, then draws the qubit's Z gauge.
    Measure(usize, Option<BernoulliRate>),
    Reset(usize),
    Noise1(usize, BernoulliRate),
    Noise2(usize, usize, BernoulliRate),
}

/// A noisy circuit compiled for repeated bit-parallel frame sampling.
///
/// Compiling drops `Idle` markers, Pauli gates (no-ops on frames) and
/// channels with p ≤ 0, runs S† as S, expands iSWAP into S(a), S(b),
/// CZ(a, b), SWAP(a, b) ([`FrameBatch::apply`]'s order), computes each
/// channel's `ln(1 - p)` once, and copies the detector and observable
/// record lists. Sampling a tape draws the same RNG values in the same
/// order, and packs the same bits, as replaying the circuit instruction
/// by instruction; `docs/perf.md` ("Frame replay hot path") gives the
/// argument rule by rule.
#[derive(Clone, Debug)]
pub struct SampleTape {
    num_qubits: usize,
    num_records: usize,
    ops: Vec<Op>,
    detectors: Vec<Vec<usize>>,
    observables: Vec<Vec<usize>>,
}

impl SampleTape {
    /// Compiles a noisy circuit (see [`crate::noise::NoiseModel::apply`]).
    pub fn compile(circuit: &Circuit) -> Self {
        use CliffordGate::*;
        let mut ops = Vec::with_capacity(circuit.instructions.len());
        for inst in &circuit.instructions {
            match *inst {
                Instruction::Gate { gate, .. } => match gate {
                    X(_) | Y(_) | Z(_) => {}
                    SDag(q) => ops.push(Op::Gate(S(q))),
                    ISwap(a, b) => ops.extend([S(a), S(b), Cz(a, b), Swap(a, b)].map(Op::Gate)),
                    H(_) | S(_) | Cnot(..) | Cz(..) | Swap(..) => ops.push(Op::Gate(gate)),
                },
                Instruction::Measure { qubit, flip_prob } => {
                    // A flip probability that is not > 0 (NaN included)
                    // never reached the record-noise draw.
                    let flip = if flip_prob > 0.0 {
                        BernoulliRate::of(flip_prob)
                    } else {
                        None
                    };
                    ops.push(Op::Measure(qubit, flip));
                }
                Instruction::Reset { qubit } => ops.push(Op::Reset(qubit)),
                Instruction::Idle { .. } => {}
                Instruction::Noise1 { qubit, p } => {
                    ops.extend(BernoulliRate::of(p).map(|rate| Op::Noise1(qubit, rate)));
                }
                Instruction::Noise2 { a, b, p } => {
                    ops.extend(BernoulliRate::of(p).map(|rate| Op::Noise2(a, b, rate)));
                }
            }
        }
        SampleTape {
            num_qubits: circuit.num_qubits,
            num_records: circuit.num_measurements(),
            ops,
            detectors: circuit
                .detectors
                .iter()
                .map(|d| d.measurements.clone())
                .collect(),
            observables: circuit.observables.clone(),
        }
    }

    /// Runs `n_lanes` Monte-Carlo shots into `scratch.result`. The
    /// result depends only on the tape, `n_lanes` and the RNG stream,
    /// never on the scratch's history.
    pub fn sample_into<R: Rng + ?Sized>(
        &self,
        n_lanes: usize,
        rng: &mut R,
        scratch: &mut SampleScratch,
    ) {
        let w = n_lanes.div_ceil(64).max(1);
        let SampleScratch {
            frames,
            records,
            result,
        } = scratch;
        frames.reset(self.num_qubits, n_lanes);
        records.clear();
        records.resize(self.num_records * w, 0);
        let mut next = records.chunks_exact_mut(w);
        for op in &self.ops {
            match *op {
                Op::Gate(gate) => frames.apply(gate),
                Op::Measure(qubit, flip) => {
                    let rec = next.next().expect("one record per measurement");
                    rec.copy_from_slice(frames.x_words(qubit));
                    if let Some(rate) = flip {
                        FrameBatch::apply_record_noise(rec, n_lanes, rate, rng);
                    }
                    // Measurement projection gauge: randomize the frame's
                    // Z component on the measured qubit (harmless for our
                    // measure-then-reset ancillas, required in general).
                    frames.randomize_z(qubit, rng);
                }
                Op::Reset(qubit) => frames.reset_qubit(qubit),
                Op::Noise1(qubit, rate) => frames.apply_1q_noise(qubit, rate, rng),
                Op::Noise2(a, b, rate) => frames.apply_2q_noise(a, b, rate, rng),
            }
        }
        self.reduce(n_lanes, records, result);
    }

    /// XORs each detector's and observable's records into its row of
    /// `out` (`clear` then `resize`, so the buffer never shrinks).
    fn reduce(&self, n_lanes: usize, records: &[u64], out: &mut BatchResult) {
        let w = n_lanes.div_ceil(64).max(1);
        out.n_lanes = n_lanes;
        out.num_detectors = self.detectors.len();
        out.stride = w;
        out.words.clear();
        out.words
            .resize((self.detectors.len() + self.observables.len()) * w, 0);
        let rows = out.words.chunks_exact_mut(w);
        for (acc, reads) in rows.zip(self.detectors.iter().chain(&self.observables)) {
            for &m in reads {
                for (a, r) in acc.iter_mut().zip(&records[m * w..(m + 1) * w]) {
                    *a ^= r;
                }
            }
        }
    }
}

/// Runs `n_lanes` Monte-Carlo shots of a noisy circuit: compiles a
/// [`SampleTape`] and samples it into a fresh [`SampleScratch`]. Callers
/// that sample one circuit repeatedly keep the tape and a scratch.
pub fn sample_batch<R: Rng + ?Sized>(
    circuit: &Circuit,
    n_lanes: usize,
    rng: &mut R,
) -> BatchResult {
    let mut scratch = SampleScratch::new();
    SampleTape::compile(circuit).sample_into(n_lanes, rng, &mut scratch);
    scratch.result
}

/// A place in the circuit where a fault can occur.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A Pauli error on one qubit immediately after instruction `at`.
    Pauli1 {
        /// Instruction index.
        at: usize,
        /// Affected qubit.
        qubit: usize,
        /// Injected Pauli.
        pauli: Pauli,
    },
    /// A two-qubit Pauli error after instruction `at`.
    Pauli2 {
        /// Instruction index.
        at: usize,
        /// First qubit and its Pauli.
        a: (usize, Pauli),
        /// Second qubit and its Pauli.
        b: (usize, Pauli),
    },
    /// A recorded-measurement flip of instruction `at`.
    MeasureFlip {
        /// Instruction index (must be a `Measure`).
        at: usize,
    },
}

/// The deterministic effect of one fault.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultEffect {
    /// Flipped detector indices (sorted).
    pub detectors: Vec<usize>,
    /// Flipped observable indices (sorted).
    pub observables: Vec<usize>,
}

/// Propagates a single fault through the circuit and reports which
/// detectors and observables flip.
///
/// This replays the rest of the circuit forward, so it costs
/// O(instructions) per fault. [`FaultSensitivity`] answers every fault
/// from one backward pass instead; this is its reference oracle.
///
/// # Panics
///
/// Panics if the site's instruction index is out of range or a
/// `MeasureFlip` site does not point at a measurement.
pub fn propagate_fault(circuit: &Circuit, site: FaultSite) -> FaultEffect {
    let start = match site {
        FaultSite::Pauli1 { at, .. }
        | FaultSite::Pauli2 { at, .. }
        | FaultSite::MeasureFlip { at } => at,
    };
    assert!(
        start < circuit.instructions.len(),
        "fault site out of range"
    );

    // Measurement indices are global; count how many precede `start`.
    let mut meas_index = circuit.instructions[..start]
        .iter()
        .filter(|i| matches!(i, Instruction::Measure { .. }))
        .count();

    let mut frame = SingleFrame::new(circuit.num_qubits);
    let mut flipped_measurements: Vec<usize> = Vec::new();

    // Inject the fault. Pauli faults apply *after* instruction `start`
    // executes; a MeasureFlip flips that measurement's record.
    match site {
        FaultSite::Pauli1 { qubit, pauli, .. } => {
            run_instruction(
                circuit,
                start,
                &mut frame,
                &mut meas_index,
                &mut flipped_measurements,
            );
            frame.mul_pauli(qubit, pauli);
        }
        FaultSite::Pauli2 { a, b, .. } => {
            run_instruction(
                circuit,
                start,
                &mut frame,
                &mut meas_index,
                &mut flipped_measurements,
            );
            frame.mul_pauli(a.0, a.1);
            frame.mul_pauli(b.0, b.1);
        }
        FaultSite::MeasureFlip { at } => {
            assert!(
                matches!(circuit.instructions[at], Instruction::Measure { .. }),
                "MeasureFlip site must point at a measurement"
            );
            flipped_measurements.push(meas_index);
            meas_index += 1;
            // The frame itself is untouched; skip the instruction.
        }
    }

    for idx in (start + 1)..circuit.instructions.len() {
        run_instruction(
            circuit,
            idx,
            &mut frame,
            &mut meas_index,
            &mut flipped_measurements,
        );
    }

    // Map flipped measurements to flipped detectors/observables.
    let mut effect = FaultEffect::default();
    for (d, det) in circuit.detectors.iter().enumerate() {
        let parity = det
            .measurements
            .iter()
            .filter(|m| flipped_measurements.contains(m))
            .count()
            % 2;
        if parity == 1 {
            effect.detectors.push(d);
        }
    }
    for (o, obs) in circuit.observables.iter().enumerate() {
        let parity = obs
            .iter()
            .filter(|m| flipped_measurements.contains(m))
            .count()
            % 2;
        if parity == 1 {
            effect.observables.push(o);
        }
    }
    effect
}

fn run_instruction(
    circuit: &Circuit,
    idx: usize,
    frame: &mut SingleFrame,
    meas_index: &mut usize,
    flipped: &mut Vec<usize>,
) {
    match circuit.instructions[idx] {
        Instruction::Gate { gate, .. } => frame.apply(gate),
        Instruction::Measure { qubit, .. } => {
            if frame.x_bit(qubit) {
                flipped.push(*meas_index);
            }
            *meas_index += 1;
        }
        Instruction::Reset { qubit } => frame.reset_qubit(qubit),
        Instruction::Idle { .. } | Instruction::Noise1 { .. } | Instruction::Noise2 { .. } => {}
    }
}

/// The effect of every single fault of a noisy circuit on a set of
/// tracked detectors (and, optionally, observable 0), from one backward
/// pass — the construction behind stim's detector error models
/// (Gidney 2021, arXiv:2103.02202).
///
/// The pass walks the circuit in reverse and keeps, per qubit, the
/// sorted set of tracked detectors that an X — and separately a Z — at
/// the current point would flip. A gate applies the transpose of its
/// [`SingleFrame::apply`] rule, a `Measure` XORs the detectors that read
/// its record into the qubit's X set, and a `Reset` clears both sets.
/// Each noise instruction snapshots its qubits' sets, and each
/// measurement its record's detector set, into one flat arena, so a
/// fault's effect is the XOR of at most four snapshots. The pass costs
/// one walk of the circuit, where replaying the circuit per fault with
/// [`propagate_fault`] costs O(faults × instructions); `propagate_fault`
/// stays the reference oracle this pass is tested against.
#[derive(Debug)]
pub struct FaultSensitivity {
    /// Tracked detector ids, ascending. Arena entry `r` names
    /// `tracked[r]`; `r == tracked.len()` names observable 0.
    tracked: Vec<usize>,
    /// Per instruction: the index of its first snapshot (noise and
    /// measure instructions), or `u32::MAX`.
    first: Vec<u32>,
    /// Snapshots below this index are measurement records' reader sets;
    /// the rest are noise instructions' qubit sets.
    num_records: u32,
    /// Snapshot `k` is `arena[bounds[k]..bounds[k + 1]]`.
    bounds: Vec<u32>,
    arena: Vec<u32>,
}

impl FaultSensitivity {
    /// Runs the backward pass over `circuit`, tracking the detectors in
    /// `detectors` (any order) and, if `observable`, observable 0.
    ///
    /// # Panics
    ///
    /// Panics if a detector index is out of range.
    pub fn new(circuit: &Circuit, detectors: &[usize], observable: bool) -> Self {
        let mut tracked = detectors.to_vec();
        tracked.sort_unstable();
        tracked.dedup();
        let obs_entry = tracked.len() as u32;

        // Which tracked entries read each measurement record (an odd
        // number of times), as sorted `(record, entry)` pairs.
        let mut readers: Vec<(usize, u32)> = Vec::new();
        for (r, &d) in tracked.iter().enumerate() {
            readers.extend(
                circuit.detectors[d]
                    .measurements
                    .iter()
                    .map(|&m| (m, r as u32)),
            );
        }
        if observable {
            if let Some(obs) = circuit.observables.first() {
                readers.extend(obs.iter().map(|&m| (m, obs_entry)));
            }
        }
        readers.sort_unstable();
        cancel_pairs(&mut readers);

        let num_records = circuit.num_measurements();
        let mut pass = FaultSensitivity {
            tracked,
            first: vec![u32::MAX; circuit.instructions.len()],
            num_records: num_records as u32,
            bounds: vec![0],
            arena: Vec::new(),
        };
        // Snapshot `m` (for every record `m`): the entries reading it.
        let mut readers = readers.into_iter().peekable();
        for record in 0..num_records {
            while let Some((_, entry)) = readers.next_if(|&(m, _)| m == record) {
                pass.arena.push(entry);
            }
            pass.bounds.push(pass.arena.len() as u32);
        }

        // sets[2q] / sets[2q + 1]: what an X / Z on qubit q flips.
        let mut sets: Vec<Vec<u32>> = vec![Vec::new(); 2 * circuit.num_qubits];
        let mut scratch = Vec::new();
        let mut record = num_records;
        for (at, inst) in circuit.instructions.iter().enumerate().rev() {
            match *inst {
                Instruction::Gate { gate, .. } => transpose_gate(&mut sets, &mut scratch, gate),
                Instruction::Measure { qubit, .. } => {
                    record -= 1;
                    pass.first[at] = record as u32;
                    let read = pass.snapshot_set(record as u32);
                    xor_into(&mut sets[2 * qubit], read, &mut scratch);
                }
                Instruction::Reset { qubit } => {
                    sets[2 * qubit].clear();
                    sets[2 * qubit + 1].clear();
                }
                Instruction::Noise1 { qubit, .. } => {
                    pass.first[at] = pass.snapshot(&sets[2 * qubit..2 * qubit + 2]);
                }
                Instruction::Noise2 { a, b, .. } => {
                    pass.first[at] = pass.snapshot(&sets[2 * a..2 * a + 2]);
                    pass.snapshot(&sets[2 * b..2 * b + 2]);
                }
                Instruction::Idle { .. } => {}
            }
        }
        pass
    }

    /// Appends one snapshot per set to the arena; returns the first
    /// snapshot's index.
    fn snapshot(&mut self, sets: &[Vec<u32>]) -> u32 {
        let first = (self.bounds.len() - 1) as u32;
        for set in sets {
            self.arena.extend_from_slice(set);
            self.bounds.push(self.arena.len() as u32);
        }
        first
    }

    fn snapshot_set(&self, k: u32) -> &[u32] {
        let k = k as usize;
        &self.arena[self.bounds[k] as usize..self.bounds[k + 1] as usize]
    }

    /// Writes the effect of `site` into `out`: the tracked detectors it
    /// flips (ascending) and observable 0 if tracked and flipped —
    /// exactly [`propagate_fault`]'s effect restricted to what the pass
    /// tracks.
    ///
    /// Pauli sites must name their noise instruction's qubits in the
    /// instruction's order, as the decoder's fault enumeration produces
    /// them; this is not checked.
    ///
    /// # Panics
    ///
    /// Panics if a Pauli site is not at a noise instruction or a
    /// measurement flip is not at a measurement.
    pub fn effect_into(&self, site: FaultSite, out: &mut FaultEffect) {
        let (at, picks, at_measure) = match site {
            FaultSite::Pauli1 { at, pauli, .. } => {
                let (x, z) = pauli.xz();
                (at, [x, z, false, false], false)
            }
            FaultSite::Pauli2 { at, a, b, .. } => {
                let ((ax, az), (bx, bz)) = (a.1.xz(), b.1.xz());
                (at, [ax, az, bx, bz], false)
            }
            FaultSite::MeasureFlip { at } => (at, [true, false, false, false], true),
        };
        let first = self.first[at];
        let is_record = first < self.num_records;
        assert!(
            first != u32::MAX && is_record == at_measure,
            "fault site {site:?} does not match its instruction"
        );
        out.detectors.clear();
        out.observables.clear();
        let mut obs = false;
        for k in (0..4).filter(|&k| picks[k]) {
            for &entry in self.snapshot_set(first + k as u32) {
                match self.tracked.get(entry as usize) {
                    Some(&d) => out.detectors.push(d),
                    None => obs = !obs,
                }
            }
        }
        out.detectors.sort_unstable();
        cancel_pairs(&mut out.detectors);
        if obs {
            out.observables.push(0);
        }
    }
}

/// Moves `sets` (X/Z sensitivities per qubit, after `gate`) to before
/// `gate`: the transpose of [`SingleFrame::apply`]'s rule for it.
fn transpose_gate(sets: &mut [Vec<u32>], scratch: &mut Vec<u32>, gate: CliffordGate) {
    use CliffordGate::*;
    let mut xor = |dst: usize, src: usize| {
        let read = std::mem::take(&mut sets[src]);
        xor_into(&mut sets[dst], &read, scratch);
        sets[src] = read;
    };
    let (x, z) = (|q: usize| 2 * q, |q: usize| 2 * q + 1);
    match gate {
        H(q) => sets.swap(x(q), z(q)),
        S(q) | SDag(q) => xor(x(q), z(q)),
        X(_) | Y(_) | Z(_) => {}
        Cnot(c, t) => {
            xor(x(c), x(t));
            xor(z(t), z(c));
        }
        Cz(a, b) => {
            xor(x(a), z(b));
            xor(x(b), z(a));
        }
        Swap(a, b) => {
            sets.swap(x(a), x(b));
            sets.swap(z(a), z(b));
        }
        ISwap(a, b) => {
            // The forward rule is S(a), S(b), Cz, Swap; transpose in
            // reverse.
            transpose_gate(sets, scratch, Swap(a, b));
            transpose_gate(sets, scratch, Cz(a, b));
            transpose_gate(sets, scratch, S(b));
            transpose_gate(sets, scratch, S(a));
        }
    }
}

/// `dst ^= src` on sorted sets.
fn xor_into(dst: &mut Vec<u32>, src: &[u32], scratch: &mut Vec<u32>) {
    scratch.clear();
    scratch.extend_from_slice(dst);
    scratch.extend_from_slice(src);
    scratch.sort_unstable();
    cancel_pairs(scratch);
    std::mem::swap(dst, scratch);
}

/// Keeps one copy of each value that occurs an odd number of times in a
/// sorted vector (the XOR of the multiset), in order.
fn cancel_pairs<T: PartialEq + Copy>(v: &mut Vec<T>) {
    let mut kept = 0;
    let mut i = 0;
    while i < v.len() {
        let run = v[i..].iter().take_while(|&&e| e == v[i]).count();
        if run % 2 == 1 {
            v[kept] = v[i];
            kept += 1;
        }
        i += run;
    }
    v.truncate(kept);
}

/// Outcome of tableau validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationReport {
    /// Number of measurements whose ideal outcome was random.
    pub random_measurements: usize,
    /// Detector indices that came out nonzero (must be empty to pass).
    pub violated_detectors: Vec<usize>,
    /// Observable values (index, bit); all must be deterministic-0 for
    /// memory experiments that prepare the +1 logical eigenstate.
    pub observable_bits: Vec<bool>,
}

impl ValidationReport {
    /// Passing = every detector deterministic-zero.
    pub fn passed(&self) -> bool {
        self.violated_detectors.is_empty()
    }
}

/// Runs the ideal part of the circuit on the stabilizer simulator with
/// randomized outcomes for genuinely random measurements, then checks
/// every detector XORs to zero.
///
/// Any detector that fails here would mis-anchor the decoder, so schedule
/// generators call this before a circuit is eligible for Monte Carlo.
pub fn validate_with_tableau<R: Rng + ?Sized>(circuit: &Circuit, rng: &mut R) -> ValidationReport {
    let mut tableau = Tableau::new(circuit.num_qubits);
    let mut record: Vec<bool> = Vec::with_capacity(circuit.num_measurements());
    let mut random_measurements = 0usize;
    for inst in &circuit.instructions {
        match *inst {
            Instruction::Gate { gate, .. } => tableau.apply(gate),
            Instruction::Measure { qubit, .. } => {
                let out = tableau.measure_z(qubit, || rng.random::<bool>());
                if matches!(out, MeasureOutcome::Random(_)) {
                    random_measurements += 1;
                }
                record.push(out.bit());
            }
            Instruction::Reset { qubit } => tableau.reset_z(qubit, || rng.random::<bool>()),
            Instruction::Idle { .. } | Instruction::Noise1 { .. } | Instruction::Noise2 { .. } => {}
        }
    }
    let violated_detectors = circuit
        .detectors
        .iter()
        .enumerate()
        .filter(|(_, det)| {
            det.measurements
                .iter()
                .fold(false, |acc, &m| acc ^ record[m])
        })
        .map(|(d, _)| d)
        .collect();
    let observable_bits = circuit
        .observables
        .iter()
        .map(|obs| obs.iter().fold(false, |acc, &m| acc ^ record[m]))
        .collect();
    ValidationReport {
        random_measurements,
        violated_detectors,
        observable_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::GateClass;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use vlq_sim::CliffordGate;

    /// A 3-qubit repetition-code memory circuit: two rounds of ZZ parity
    /// checks via two ancillas, then data readout.
    fn repetition_circuit(rounds: usize) -> Circuit {
        // Qubits: data 0,1,2; ancilla 3 (checks 0-1), 4 (checks 1-2).
        let mut c = Circuit::new(5);
        let mut prev: Option<(usize, usize)> = None;
        for r in 0..rounds {
            for &a in &[3usize, 4] {
                c.reset(a);
            }
            c.gate(CliffordGate::Cnot(0, 3), GateClass::TwoQubitTT);
            c.gate(CliffordGate::Cnot(1, 3), GateClass::TwoQubitTT);
            c.gate(CliffordGate::Cnot(1, 4), GateClass::TwoQubitTT);
            c.gate(CliffordGate::Cnot(2, 4), GateClass::TwoQubitTT);
            let m3 = c.measure(3);
            let m4 = c.measure(4);
            match prev {
                None => {
                    c.detector(vec![m3], (0, 0, r as i32));
                    c.detector(vec![m4], (1, 0, r as i32));
                }
                Some((p3, p4)) => {
                    c.detector(vec![m3, p3], (0, 0, r as i32));
                    c.detector(vec![m4, p4], (1, 0, r as i32));
                }
            }
            prev = Some((m3, m4));
        }
        let d0 = c.measure(0);
        let d1 = c.measure(1);
        let d2 = c.measure(2);
        let (p3, p4) = prev.unwrap();
        c.detector(vec![d0, d1, p3], (0, 0, rounds as i32));
        c.detector(vec![d1, d2, p4], (1, 0, rounds as i32));
        c.observable(vec![d0]);
        c.check().unwrap();
        c
    }

    #[test]
    fn tableau_validation_passes_for_repetition_code() {
        let c = repetition_circuit(3);
        let mut rng = SmallRng::seed_from_u64(1);
        let report = validate_with_tableau(&c, &mut rng);
        assert!(
            report.passed(),
            "violations: {:?}",
            report.violated_detectors
        );
        assert_eq!(report.observable_bits, vec![false]);
    }

    #[test]
    fn tableau_validation_catches_bad_detector() {
        let mut c = Circuit::new(1);
        c.gate(CliffordGate::X(0), GateClass::OneQubit);
        let m = c.measure(0);
        c.detector(vec![m], (0, 0, 0)); // outcome is 1, not 0 -> violated
        let mut rng = SmallRng::seed_from_u64(2);
        let report = validate_with_tableau(&c, &mut rng);
        assert!(!report.passed());
    }

    #[test]
    fn noiseless_sampling_has_no_events() {
        let c = repetition_circuit(2);
        let mut rng = SmallRng::seed_from_u64(3);
        let res = sample_batch(&c, 256, &mut rng);
        for d in 0..c.detectors.len() {
            for lane in 0..256 {
                assert!(!res.detector_bit(d, lane));
            }
        }
        for lane in 0..256 {
            assert!(!res.observable_bit(0, lane));
        }
    }

    #[test]
    fn injected_noise_triggers_detectors() {
        let mut c = repetition_circuit(2);
        // Certain random Pauli on data 0 before everything: X and Y lanes
        // (2/3 of them) fire the round-0 detector AND flip the observable;
        // Z lanes are invisible to a Z-parity code.
        c.instructions
            .insert(0, Instruction::Noise1 { qubit: 0, p: 1.0 });
        let mut rng = SmallRng::seed_from_u64(4);
        let lanes = 64 * 64;
        let res = sample_batch(&c, lanes, &mut rng);
        let mut fired = 0usize;
        for lane in 0..lanes {
            assert_eq!(
                res.detector_bit(0, lane),
                res.observable_bit(0, lane),
                "detector and observable must agree lane {lane}"
            );
            if res.detector_bit(0, lane) {
                fired += 1;
            }
        }
        let rate = fired as f64 / lanes as f64;
        assert!((rate - 2.0 / 3.0).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn fault_propagation_data_error() {
        let c = repetition_circuit(2);
        // X on data qubit 1 right after the first instruction (reset of
        // ancilla 3, index 0): flips detectors of both adjacent checks in
        // round 0 — but NOT the observable (observable is data 0).
        let eff = propagate_fault(
            &c,
            FaultSite::Pauli1 {
                at: 0,
                qubit: 1,
                pauli: Pauli::X,
            },
        );
        assert_eq!(eff.detectors, vec![0, 1]);
        assert!(eff.observables.is_empty());
    }

    #[test]
    fn fault_propagation_measure_flip() {
        let c = repetition_circuit(3);
        // Find the first measurement instruction; flipping it flips the
        // round-0 and round-1 detectors of that ancilla.
        let at = c
            .instructions
            .iter()
            .position(|i| matches!(i, Instruction::Measure { .. }))
            .unwrap();
        let eff = propagate_fault(&c, FaultSite::MeasureFlip { at });
        assert_eq!(eff.detectors.len(), 2);
        assert!(eff.observables.is_empty());
    }

    #[test]
    fn fault_propagation_observable_flip() {
        let c = repetition_circuit(1);
        // X on data 0 before round 0: the round-0 check fires; the final
        // detector XORs the (flipped) data readout with the (flipped)
        // round-0 syndrome and cancels. Net: one defect at the time
        // boundary plus a logical flip — exactly what matches to the
        // boundary in decoding.
        let eff = propagate_fault(
            &c,
            FaultSite::Pauli1 {
                at: 0,
                qubit: 0,
                pauli: Pauli::X,
            },
        );
        assert_eq!(eff.observables, vec![0]);
        assert_eq!(eff.detectors, vec![0]);
    }

    /// Every fault site of a noisy circuit, in the decoder's order: the
    /// 3 / 15 Paulis of each noise channel and a flip of every
    /// measurement.
    fn fault_sites(circuit: &Circuit) -> Vec<FaultSite> {
        let mut sites = Vec::new();
        for (at, inst) in circuit.instructions.iter().enumerate() {
            match *inst {
                Instruction::Noise1 { qubit, .. } => {
                    for pauli in Pauli::ERRORS {
                        sites.push(FaultSite::Pauli1 { at, qubit, pauli });
                    }
                }
                Instruction::Noise2 { a, b, .. } => {
                    for pa in Pauli::ALL {
                        for pb in Pauli::ALL {
                            if (pa, pb) != (Pauli::I, Pauli::I) {
                                sites.push(FaultSite::Pauli2 {
                                    at,
                                    a: (a, pa),
                                    b: (b, pb),
                                });
                            }
                        }
                    }
                }
                Instruction::Measure { .. } => sites.push(FaultSite::MeasureFlip { at }),
                _ => {}
            }
        }
        sites
    }

    /// A seeded random noisy circuit over every gate variant, with noisy
    /// mid-circuit measurements, resets, detectors over random records
    /// (one of them lists a record twice) and two observables.
    fn random_noisy_circuit(seed: u64) -> Circuit {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = 5;
        let mut c = Circuit::new(n);
        for _ in 0..150 {
            let a = rng.random_range(0..n);
            let b = (a + rng.random_range(1..n)) % n;
            let gates = [
                CliffordGate::H(a),
                CliffordGate::S(a),
                CliffordGate::SDag(a),
                CliffordGate::X(a),
                CliffordGate::Y(a),
                CliffordGate::Z(a),
                CliffordGate::Cnot(a, b),
                CliffordGate::Cz(a, b),
                CliffordGate::Swap(a, b),
                CliffordGate::ISwap(a, b),
            ];
            match rng.random_range(0..14usize) {
                g @ 0..=9 => {
                    c.gate(gates[g], GateClass::OneQubit);
                }
                10 => c
                    .instructions
                    .push(Instruction::Noise1 { qubit: a, p: 0.01 }),
                11 => c.instructions.push(Instruction::Noise2 { a, b, p: 0.01 }),
                12 => c.instructions.push(Instruction::Measure {
                    qubit: a,
                    flip_prob: 0.02,
                }),
                _ => {
                    c.reset(a);
                }
            }
        }
        let m = c.measure(0);
        let records = m + 1;
        c.detector(vec![m, m, 0], (0, 0, 0));
        for _ in 0..12 {
            let len = rng.random_range(1..4usize);
            let reads = (0..len).map(|_| rng.random_range(0..records)).collect();
            c.detector(reads, (0, 0, 0));
        }
        for _ in 0..2 {
            let len = rng.random_range(1..4usize);
            c.observable((0..len).map(|_| rng.random_range(0..records)).collect());
        }
        c
    }

    /// `propagate_fault`'s effect restricted to what a pass tracks.
    fn restricted(effect: FaultEffect, tracked: &[usize], observable: bool) -> FaultEffect {
        FaultEffect {
            detectors: effect
                .detectors
                .into_iter()
                .filter(|d| tracked.contains(d))
                .collect(),
            observables: effect
                .observables
                .into_iter()
                .filter(|&o| observable && o == 0)
                .collect(),
        }
    }

    #[test]
    fn sensitivity_pass_matches_propagation_on_random_circuits() {
        let mut effect = FaultEffect::default();
        for seed in 0..40 {
            let c = random_noisy_circuit(seed);
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            // A random detector subset, listed out of order.
            let mut tracked: Vec<usize> = (0..c.detectors.len())
                .filter(|_| rng.random_bool(0.6))
                .collect();
            tracked.reverse();
            for observable in [true, false] {
                let pass = FaultSensitivity::new(&c, &tracked, observable);
                for site in fault_sites(&c) {
                    pass.effect_into(site, &mut effect);
                    let want = restricted(propagate_fault(&c, site), &tracked, observable);
                    assert_eq!(effect, want, "seed {seed}, {site:?}, obs {observable}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match its instruction")]
    fn sensitivity_pass_rejects_a_pauli_site_at_a_measurement() {
        let mut c = Circuit::new(1);
        c.instructions
            .push(Instruction::Noise1 { qubit: 0, p: 0.01 });
        let m = c.measure(0);
        c.detector(vec![m], (0, 0, 0));
        let pass = FaultSensitivity::new(&c, &[0], false);
        let site = FaultSite::Pauli1 {
            at: 1,
            qubit: 0,
            pauli: Pauli::X,
        };
        pass.effect_into(site, &mut FaultEffect::default());
    }

    #[test]
    fn monte_carlo_rate_matches_analytic_single_qubit() {
        // One qubit, one noise site with p = 0.3, measured: the observable
        // flip rate must be ~ 2p/3 (X or Y flips the Z measurement).
        let mut c = Circuit::new(1);
        c.instructions
            .push(Instruction::Noise1 { qubit: 0, p: 0.3 });
        let m = c.measure(0);
        c.observable(vec![m]);
        let mut rng = SmallRng::seed_from_u64(5);
        let lanes = 64 * 4000;
        let res = sample_batch(&c, lanes, &mut rng);
        let flips = (0..lanes).filter(|&l| res.observable_bit(0, l)).count();
        let rate = flips as f64 / lanes as f64;
        let expected = 0.2;
        assert!(
            (rate - expected).abs() < 0.01,
            "rate {rate} vs expected {expected}"
        );
    }

    /// A tape reused across lane counts and circuits answers like a
    /// fresh compile into fresh scratch, on every gate variant.
    #[test]
    fn reused_tape_and_scratch_match_fresh_sampling() {
        let mut scratch = SampleScratch::new();
        for seed in 0..8 {
            let c = random_noisy_circuit(seed);
            let tape = SampleTape::compile(&c);
            for lanes in [1usize, 64, 200] {
                let mut rng = SmallRng::seed_from_u64(seed + 100);
                tape.sample_into(lanes, &mut rng, &mut scratch);
                let fresh = sample_batch(&c, lanes, &mut SmallRng::seed_from_u64(seed + 100));
                let reused = &scratch.result;
                assert_eq!(reused.num_detectors(), fresh.num_detectors(), "seed {seed}");
                assert_eq!(reused.words(), fresh.words(), "seed {seed}");
            }
        }
    }
}
