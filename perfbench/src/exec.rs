//! The benchmark's executors and sink.
//!
//! [`Timed`] wraps the executor a figure binary uses: it times every
//! `prepare` and `run_chunk_recorded` call and contains a panic to its
//! own grid point. [`Kept`] wraps an artifact sink: it times every write
//! and drops the records of failed points. [`TracedMemory`] and
//! [`TracedProgram`] are the traced run's executors: they mirror the
//! real executors' `prepare`, call by call, with a span around each
//! call, then run the real `prepare` and run chunks through the real
//! executors, whose sample, extract and decode phases the engine's
//! recorder times.

use std::collections::BTreeSet;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use vlq::decoder::graph::for_each_fault;
use vlq::decoder::DecodingGraph;
use vlq::exec::{machine_config_for_point, program_by_name, ProgramSweepExecutor};
use vlq::qec::{config_for_point, MemoryExecutor, PreparedExperiment};
use vlq::surface::schedule::{memory_circuit, Boundary};
use vlq::sweep::{RecordSink, SweepExecutor, SweepPoint, SweepRecord};
use vlq::{compile, FramePrepared};
use vlq_telemetry::Recorder;

use crate::trace::Tracer;

fn nanos_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Grid points whose `prepare` or `run_chunk` panicked, by fingerprint.
#[derive(Default)]
pub struct FailedPoints(Mutex<BTreeSet<u64>>);

impl FailedPoints {
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeSet<u64>> {
        self.0
            .lock()
            .expect("failed-point set is never held across a panic")
    }

    fn insert(&self, point: &SweepPoint) {
        self.lock().insert(point.fingerprint());
    }

    /// Whether `point` failed.
    pub fn contains(&self, point: &SweepPoint) -> bool {
        self.lock().contains(&point.fingerprint())
    }

    /// How many points failed.
    pub fn len(&self) -> usize {
        self.lock().len()
    }
}

/// Times an executor's calls and contains its panics.
///
/// A point whose `prepare` panicked runs no chunks; a point whose chunk
/// panicked runs no further chunks. Either way it is recorded in the
/// shared [`FailedPoints`], and the engine goes on with the next point.
pub struct Timed<'a, E> {
    inner: E,
    failed: &'a FailedPoints,
    setup_ns: AtomicU64,
    run_ns: AtomicU64,
    chunks: AtomicU64,
}

impl<'a, E: SweepExecutor> Timed<'a, E> {
    pub fn new(inner: E, failed: &'a FailedPoints) -> Self {
        Timed {
            inner,
            failed,
            setup_ns: AtomicU64::new(0),
            run_ns: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
        }
    }

    /// Seconds spent inside `prepare`, summed over points.
    pub fn setup_s(&self) -> f64 {
        self.setup_ns.load(Relaxed) as f64 * 1e-9
    }

    /// Seconds spent running chunks, summed over chunks.
    pub fn run_s(&self) -> f64 {
        self.run_ns.load(Relaxed) as f64 * 1e-9
    }

    /// Chunks that ran.
    pub fn chunks(&self) -> u64 {
        self.chunks.load(Relaxed)
    }

    /// Runs one chunk of `point` through `run`, timed, with a panic
    /// contained to the point.
    fn chunk(
        &self,
        prepared: &Option<E::Prepared>,
        point: &SweepPoint,
        run: impl FnOnce(&E::Prepared) -> u64,
    ) -> u64 {
        let Some(prepared) = prepared else { return 0 };
        if self.failed.contains(point) {
            return 0;
        }
        let start = Instant::now();
        let failures = catch_unwind(AssertUnwindSafe(|| run(prepared)));
        self.run_ns.fetch_add(nanos_since(start), Relaxed);
        self.chunks.fetch_add(1, Relaxed);
        failures.unwrap_or_else(|_| {
            self.failed.insert(point);
            0
        })
    }
}

impl<E: SweepExecutor> SweepExecutor for Timed<'_, E> {
    type Prepared = Option<E::Prepared>;

    fn prepare(&self, point: &SweepPoint) -> Option<E::Prepared> {
        let start = Instant::now();
        let prepared = catch_unwind(AssertUnwindSafe(|| self.inner.prepare(point)));
        self.setup_ns.fetch_add(nanos_since(start), Relaxed);
        prepared.map_err(|_| self.failed.insert(point)).ok()
    }

    fn run_chunk(
        &self,
        prepared: &Option<E::Prepared>,
        point: &SweepPoint,
        shots: u64,
        seed: u64,
    ) -> u64 {
        self.chunk(prepared, point, |p| {
            self.inner.run_chunk(p, point, shots, seed)
        })
    }

    /// The call the engine makes, so chunks take the path the figure
    /// binaries take: with the engine's disabled recorder, exactly
    /// `fig11`/`prog1` without `--telemetry`.
    fn run_chunk_recorded(
        &self,
        prepared: &Option<E::Prepared>,
        point: &SweepPoint,
        shots: u64,
        seed: u64,
        recorder: &Recorder,
    ) -> u64 {
        self.chunk(prepared, point, |p| {
            self.inner
                .run_chunk_recorded(p, point, shots, seed, recorder)
        })
    }
}

/// Times a sink's writes and keeps failed points out of it.
pub struct Kept<'a, S> {
    sink: S,
    failed: &'a FailedPoints,
    nanos: &'a AtomicU64,
}

impl<'a, S: RecordSink> Kept<'a, S> {
    pub fn new(sink: S, failed: &'a FailedPoints, nanos: &'a AtomicU64) -> Self {
        Kept {
            sink,
            failed,
            nanos,
        }
    }

    fn timed(&mut self, op: impl FnOnce(&mut S) -> io::Result<()>) -> io::Result<()> {
        let start = Instant::now();
        let result = op(&mut self.sink);
        self.nanos.fetch_add(nanos_since(start), Relaxed);
        result
    }
}

impl<S: RecordSink> RecordSink for Kept<'_, S> {
    fn write(&mut self, record: &SweepRecord) -> io::Result<()> {
        if self.failed.contains(&record.point) {
            return Ok(());
        }
        self.timed(|sink| sink.write(record))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.timed(|sink| sink.finish())
    }
}

/// Work counts of the traced run that the program's recorder does not
/// keep, summed over points and chunks.
#[derive(Default)]
pub struct Counts {
    pub fault_sites: AtomicU64,
    pub graph_edges: AtomicU64,
    pub blocks: AtomicU64,
    pub replayed_shots: AtomicU64,
}

/// Runs the real `prepare` of `point` under a `trace.real_prepare` span,
/// right after the mirror of the same point: timing both within one
/// sweep shows whether the mirror still does the program's work.
fn real_prepare<E: SweepExecutor>(inner: &E, tracer: &Tracer, point: &SweepPoint) -> E::Prepared {
    let _s = tracer.span("trace.real_prepare", point);
    inner.prepare(point)
}

/// `vlq_qec::MemoryExecutor` with its `prepare` mirrored under spans.
///
/// `PreparedBlock::prepare` has no seam between its steps, and a
/// `PreparedExperiment` cannot be assembled from parts, so the mirror's
/// results are only timed, counted and dropped; the point then runs on
/// the real executor's `prepare` and `run_chunk_recorded`.
pub struct TracedMemory<'t> {
    pub inner: MemoryExecutor,
    pub tracer: &'t Tracer,
    pub counts: &'t Counts,
}

impl SweepExecutor for TracedMemory<'_> {
    type Prepared = PreparedExperiment;

    /// `PreparedExperiment::prepare`, call by call, then the real one.
    fn prepare(&self, point: &SweepPoint) -> PreparedExperiment {
        let span = |name| self.tracer.span(name, point);
        let (memory, noisy, guard, graph, decoder) = {
            let _prepare = span("qec.prepare");
            let cfg = config_for_point(point);
            let memory = {
                let _s = span("surface.circuit");
                memory_circuit(cfg.spec, &cfg.noise.hw)
            };
            let noisy = {
                let _s = span("circuit.noise");
                let (start, end) = memory.noise_window(Boundary::Full);
                cfg.noise.apply_window(&memory.circuit, start, end)
            };
            let guard = memory.guard_detectors().to_vec();
            let graph = {
                let _s = span("decoder.graph_build");
                DecodingGraph::build(&noisy, &guard)
            };
            let decoder = {
                let _s = span("decoder.construct");
                cfg.decoder.build(&graph)
            };
            (memory, noisy, guard, graph, decoder)
        };
        let mut faults = 0u64;
        for_each_fault(&noisy, |_, p| faults += u64::from(p > 0.0));
        self.counts.fault_sites.fetch_add(faults, Relaxed);
        self.counts
            .graph_edges
            .fetch_add(graph.num_edges() as u64, Relaxed);
        drop((memory, noisy, guard, graph, decoder));
        real_prepare(&self.inner, self.tracer, point)
    }

    fn run_chunk(
        &self,
        prepared: &PreparedExperiment,
        point: &SweepPoint,
        shots: u64,
        seed: u64,
    ) -> u64 {
        self.inner.run_chunk(prepared, point, shots, seed)
    }

    fn run_chunk_recorded(
        &self,
        prepared: &PreparedExperiment,
        point: &SweepPoint,
        shots: u64,
        seed: u64,
        recorder: &Recorder,
    ) -> u64 {
        let _s = self.tracer.span("qec.run", point);
        self.inner
            .run_chunk_recorded(prepared, point, shots, seed, recorder)
    }
}

/// `vlq::exec::ProgramSweepExecutor` with its `prepare` mirrored under
/// spans. The per-block work inside `FramePrepared` has no public seam,
/// so the spans stop at compile, frame preparation and replay.
pub struct TracedProgram<'t> {
    pub inner: ProgramSweepExecutor,
    pub tracer: &'t Tracer,
    pub counts: &'t Counts,
}

impl SweepExecutor for TracedProgram<'_> {
    type Prepared = FramePrepared;

    /// `ProgramSweepExecutor::prepare`, call by call, then the real one.
    fn prepare(&self, point: &SweepPoint) -> FramePrepared {
        let mirrored = {
            let _prepare = self.tracer.span("vlq.prepare", point);
            let name = point
                .program
                .as_deref()
                .expect("program sweep point without a program name");
            let circuit = program_by_name(name)
                .unwrap_or_else(|| panic!("sweep point names unknown program {name:?}"));
            let config = machine_config_for_point(point, circuit.num_qubits);
            let compiled = {
                let _s = self.tracer.span("vlq.compile", point);
                compile(&circuit, config).expect("registered programs fit their machines")
            };
            let _s = self.tracer.span("vlq.frame_prepare", point);
            FramePrepared::new(
                compiled.schedule,
                point.p,
                point.decoder,
                self.inner.boundary,
            )
        };
        drop(mirrored);
        real_prepare(&self.inner, self.tracer, point)
    }

    fn run_chunk(
        &self,
        prepared: &FramePrepared,
        point: &SweepPoint,
        shots: u64,
        seed: u64,
    ) -> u64 {
        self.inner.run_chunk(prepared, point, shots, seed)
    }

    fn run_chunk_recorded(
        &self,
        prepared: &FramePrepared,
        point: &SweepPoint,
        shots: u64,
        seed: u64,
        recorder: &Recorder,
    ) -> u64 {
        self.counts
            .blocks
            .fetch_add(prepared.blocks_per_shot() * shots, Relaxed);
        self.counts.replayed_shots.fetch_add(shots, Relaxed);
        let _s = self.tracer.span("vlq.replay", point);
        self.inner
            .run_chunk_recorded(prepared, point, shots, seed, recorder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlq::sweep::{MemorySink, SweepEngine, SweepSpec};

    /// Panics in `prepare` at d=5 and in `run_chunk` at d=7.
    struct Flaky;

    impl SweepExecutor for Flaky {
        type Prepared = usize;

        fn prepare(&self, point: &SweepPoint) -> usize {
            assert!(point.d != 5, "injected prepare panic");
            point.d
        }

        fn run_chunk(&self, d: &usize, _point: &SweepPoint, shots: u64, _seed: u64) -> u64 {
            assert!(*d != 7, "injected run_chunk panic");
            shots / 2
        }
    }

    #[test]
    fn a_panic_is_contained_to_its_point() {
        let spec = SweepSpec::new().distances([3, 5, 7, 9]).shots(3000);
        let failed = FailedPoints::default();
        let sink_ns = AtomicU64::new(0);
        let timed = Timed::new(Flaky, &failed);
        let mut kept = Kept::new(MemorySink::new(), &failed, &sink_ns);
        let records = SweepEngine::with_workers(1)
            .run(&spec, &timed, &mut [&mut kept])
            .expect("memory sink cannot fail");
        assert_eq!(records.len(), 4, "the engine still completes every point");
        assert_eq!(failed.len(), 2);
        let written: Vec<(usize, u64)> = kept
            .sink
            .records()
            .iter()
            .map(|r| (r.point.d, r.failures))
            .collect();
        assert_eq!(written, vec![(3, 1500), (9, 1500)]);
        // d=3 and d=9 ran 3 chunks each; d=7 stopped after its first.
        assert_eq!(timed.chunks(), 7);
    }

    /// Fails every shot on the recorded path and none on the plain one.
    struct TwoPaths;

    impl SweepExecutor for TwoPaths {
        type Prepared = ();

        fn prepare(&self, _point: &SweepPoint) {}

        fn run_chunk(&self, _: &(), _point: &SweepPoint, _shots: u64, _seed: u64) -> u64 {
            0
        }

        fn run_chunk_recorded(
            &self,
            _: &(),
            _point: &SweepPoint,
            shots: u64,
            _seed: u64,
            _recorder: &Recorder,
        ) -> u64 {
            shots
        }
    }

    #[test]
    fn chunks_take_the_engines_recorded_path() {
        let spec = SweepSpec::new().distances([3]).shots(3000);
        let failed = FailedPoints::default();
        let timed = Timed::new(TwoPaths, &failed);
        let records = SweepEngine::with_workers(1)
            .run(&spec, &timed, &mut [])
            .expect("no sinks to fail");
        assert_eq!(records[0].failures, 3000);
        assert_eq!(timed.chunks(), 3);
    }
}
