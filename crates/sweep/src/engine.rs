//! The work-stealing sweep engine.
//!
//! Expanded grid points are split into fixed-size shot chunks, pushed
//! onto a [`StealQueue`] (a shared injector deque), and drained by a
//! pool of workers that keep small local deques and steal from each
//! other when both their deque and the injector run dry. Parallelism
//! therefore spans *configs × shots*: a scan of many small configs
//! saturates the pool just as well as one huge config.
//!
//! Determinism: chunk boundaries and per-chunk seeds depend only on the
//! spec and the engine's `chunk_shots` (never on worker count or steal
//! order), and per-point failure counts are sums of per-chunk counts —
//! a commutative reduction — so any schedule produces identical
//! records. The engine additionally buffers out-of-order completions
//! and emits records to sinks in expansion order, making file artifacts
//! byte-identical across runs.

use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::Instant;

use vlq_telemetry::{Metric, ProgressReporter, Recorder};

use crate::plan::ShardPlan;
use crate::queue::StealQueue;
use crate::shard::ShardSpec;
use crate::sink::{RecordSink, SweepRecord};
use crate::spec::{SweepPoint, SweepSpec};

/// Runs the domain side of a sweep: turning a point into a prepared
/// experiment once, then running seeded shot chunks against it.
///
/// The engine guarantees `prepare` is called at most once per point
/// (workers share the result), and that `run_chunk` sees chunk seeds
/// derived deterministically from the spec.
pub trait SweepExecutor: Sync {
    /// Expensive per-point state shared by all of the point's chunks
    /// (e.g. a noisy circuit plus its decoder).
    type Prepared: Send + Sync;

    /// Builds the per-point state.
    fn prepare(&self, point: &SweepPoint) -> Self::Prepared;

    /// Runs `shots` seeded shots, returning the failure count.
    fn run_chunk(
        &self,
        prepared: &Self::Prepared,
        point: &SweepPoint,
        shots: u64,
        seed: u64,
    ) -> u64;

    /// [`SweepExecutor::run_chunk`] with a telemetry sink. Executors
    /// that can report domain metrics (decoder statistics, phase
    /// timings) override this; the default ignores the recorder, so
    /// recording never changes failure counts — only what gets
    /// observed along the way.
    fn run_chunk_recorded(
        &self,
        prepared: &Self::Prepared,
        point: &SweepPoint,
        shots: u64,
        seed: u64,
        recorder: &Recorder,
    ) -> u64 {
        let _ = recorder;
        self.run_chunk(prepared, point, shots, seed)
    }
}

/// One unit of schedulable work: a chunk of one point's shots.
#[derive(Clone, Copy, Debug)]
struct Task {
    point: usize,
    chunk: u64,
    shots: u64,
}

/// Cross-cutting options of one engine run (see
/// [`SweepEngine::run_opts`]).
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Which shard of the globally-numbered point grid to run
    /// (default: the full `0/1` shard).
    pub shard: ShardSpec,
    /// Global index of the spec's first point. Binaries that stream
    /// several specs into one artifact (fig12's panels) advance this by
    /// each spec's full length so `index` stays globally unique — the
    /// invariant `sweep-merge` merges by.
    pub index_offset: usize,
    /// Optional shard plan (`--shard-by time`); `None` strides. With a
    /// plan, this run owns the global indices the plan assigns to
    /// `shard.index`. The plan must be cut for `shard.count` shards and
    /// cover every global index of the run ([`ShardPlan::check_grid`]);
    /// per-point seeding is unchanged, so any plan recomposes
    /// byte-identically.
    pub plan: Option<ShardPlan>,
}

impl RunOptions {
    /// Whether this run owns global point index `g`: the plan's owner
    /// when there is a plan, the stride rule ([`ShardSpec::owns`])
    /// otherwise. Merge and verify ask the same function.
    pub fn owns(&self, g: usize) -> bool {
        crate::plan::owns(self.plan.as_ref(), self.shard, g)
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            shard: ShardSpec::FULL,
            index_offset: 0,
            plan: None,
        }
    }
}

/// The work-stealing orchestration engine.
#[derive(Clone, Debug)]
pub struct SweepEngine {
    /// Worker thread count (clamped to ≥ 1).
    pub workers: usize,
    /// Shots per task chunk. Part of the deterministic schedule-
    /// independent chunking; changing it re-chunks (and re-seeds) the
    /// sweep.
    pub chunk_shots: u64,
    /// Whether to report progress (completed/total, ETA) on stderr.
    pub progress: bool,
    /// Telemetry sink shared by every worker (disabled by default).
    /// Deterministic work counters (points, chunks, shots, failures,
    /// plus whatever the executor's `run_chunk_recorded` reports)
    /// aggregate identically for any worker count; wall/steal/occupancy
    /// metrics are runtime-class and never enter machine-readable
    /// reports.
    pub recorder: Recorder,
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            chunk_shots: 1024,
            progress: false,
            recorder: Recorder::disabled(),
        }
    }
}

struct Shared<'a, E: SweepExecutor> {
    executor: &'a E,
    points: &'a [SweepPoint],
    base_seed: u64,
    prepared: Vec<OnceLock<E::Prepared>>,
    queue: StealQueue<Task>,
    failures: Vec<AtomicU64>,
    chunks_left: Vec<AtomicUsize>,
    recorder: &'a Recorder,
    /// Per-point busy nanoseconds, summed across the point's chunks
    /// (runtime-class; feeds the per-point wall-time histogram and any
    /// timing-aware sink).
    point_nanos: Vec<AtomicU64>,
    /// Whether a sink asked for per-point wall times (so workers time
    /// chunks even without a telemetry recorder).
    time_points: bool,
}

impl<E: SweepExecutor> Shared<'_, E> {
    fn run_worker(&self, me: usize, done: &mpsc::Sender<usize>) {
        let timing = self.recorder.is_enabled() || self.time_points;
        while let Some((task, stolen)) = self.queue.next(me) {
            if stolen {
                self.recorder.incr(Metric::SweepSteals);
            }
            let start = timing.then(Instant::now);
            let point = &self.points[task.point];
            let prepared = self.prepared[task.point].get_or_init(|| self.executor.prepare(point));
            let seed = point.chunk_seed(self.base_seed, task.chunk);
            let failures =
                self.executor
                    .run_chunk_recorded(prepared, point, task.shots, seed, self.recorder);
            self.failures[task.point].fetch_add(failures, Ordering::Relaxed);
            self.recorder.incr(Metric::SweepChunks);
            if let Some(start) = start {
                let ns = start.elapsed().as_nanos() as u64;
                self.recorder.add(Metric::SweepBusyNanos, ns);
                self.point_nanos[task.point].fetch_add(ns, Ordering::Relaxed);
            }
            if self.chunks_left[task.point].fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last chunk of this point; the receiver may already be
                // gone if a sink error aborted the run.
                let _ = done.send(task.point);
            }
        }
    }
}

/// Reorder buffer: emits completed records to sinks in expansion order.
///
/// Slots are *local* positions in the (possibly sharded) point list;
/// the records themselves carry global indices.
struct InOrderEmitter<'s, 'r> {
    sinks: &'s mut [&'r mut dyn RecordSink],
    pending: Vec<Option<(SweepRecord, u64)>>,
    next: usize,
    emitted: Vec<SweepRecord>,
}

impl<'s, 'r> InOrderEmitter<'s, 'r> {
    fn new(total: usize, sinks: &'s mut [&'r mut dyn RecordSink]) -> Self {
        InOrderEmitter {
            sinks,
            pending: (0..total).map(|_| None).collect(),
            next: 0,
            emitted: Vec::with_capacity(total),
        }
    }

    fn complete(&mut self, slot: usize, record: SweepRecord, nanos: u64) -> io::Result<()> {
        debug_assert!(self.pending[slot].is_none(), "point completed twice");
        self.pending[slot] = Some((record, nanos));
        while self.next < self.pending.len() {
            match self.pending[self.next].take() {
                Some((r, ns)) => {
                    for sink in self.sinks.iter_mut() {
                        sink.write_timed(&r, ns)?;
                    }
                    self.emitted.push(r);
                    self.next += 1;
                }
                None => break,
            }
        }
        Ok(())
    }
}

impl SweepEngine {
    /// A single-threaded engine (useful for determinism baselines).
    pub fn serial() -> Self {
        SweepEngine {
            workers: 1,
            ..SweepEngine::default()
        }
    }

    /// An engine with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        SweepEngine {
            workers: workers.max(1),
            ..SweepEngine::default()
        }
    }

    /// Attaches a telemetry recorder shared by every worker.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Runs the spec to completion, streaming records to `sinks` in
    /// expansion order and returning them in the same order.
    ///
    /// Errors are sink I/O errors only; the sweep itself cannot fail.
    pub fn run<E: SweepExecutor>(
        &self,
        spec: &SweepSpec,
        executor: &E,
        sinks: &mut [&mut dyn RecordSink],
    ) -> io::Result<Vec<SweepRecord>> {
        self.run_opts(
            spec,
            executor,
            sinks,
            &crate::resume::ResumeCache::new(),
            &RunOptions::default(),
        )
    }

    /// Runs one shard of the spec, optionally resuming from `cache` and
    /// numbering points from `opts.index_offset`.
    ///
    /// Points found in the [`crate::resume::ResumeCache`] (loaded from
    /// a previous run's JSONL artifact) are emitted without running any
    /// shots; because per-point seeds are schedule-independent, the
    /// merged record stream — and therefore the final artifacts — is
    /// byte-identical to a full fresh run.
    ///
    /// Points are numbered globally — `index_offset` plus their
    /// position in the spec's expansion — and the run owns exactly
    /// those [`RunOptions::owns`] gives it: its plan's points, or the
    /// stride rule without a plan. Per-chunk seeds depend only on the base
    /// seed and point coordinates, so a shard computes byte-for-byte
    /// the records the full run would have computed for its points, and
    /// `sweep-merge` can put N shard artifacts back into the unsharded
    /// artifact.
    pub fn run_opts<E: SweepExecutor>(
        &self,
        spec: &SweepSpec,
        executor: &E,
        sinks: &mut [&mut dyn RecordSink],
        cache: &crate::resume::ResumeCache,
        opts: &RunOptions,
    ) -> io::Result<Vec<SweepRecord>> {
        let base_seed = spec.base_seed;
        // The points this run owns and their global indices, ascending:
        // emission (and the returned records) follow this order.
        let (indices, points): (Vec<usize>, Vec<SweepPoint>) = spec
            .expand()
            .into_iter()
            .enumerate()
            .map(|(i, pt)| (opts.index_offset + i, pt))
            .filter(|(g, _)| opts.owns(*g))
            .unzip();
        let points = &points[..];
        let workers = self.workers.max(1);
        let chunk_shots = self.chunk_shots.max(1);
        let run_start = self.recorder.is_enabled().then(Instant::now);

        // Chunk every point; zero-shot and cache-satisfied points
        // complete immediately.
        let queue = StealQueue::new(workers);
        let mut chunks_left: Vec<AtomicUsize> = Vec::with_capacity(points.len());
        let prefilled: Vec<Option<u64>> = points
            .iter()
            .map(|pt| cache.failures_for(pt, base_seed))
            .collect();
        for (i, pt) in points.iter().enumerate() {
            let n_chunks = if prefilled[i].is_some() {
                0
            } else {
                pt.shots.div_ceil(chunk_shots)
            };
            queue.extend((0..n_chunks).map(|chunk| Task {
                point: i,
                chunk,
                shots: chunk_shots.min(pt.shots - chunk * chunk_shots),
            }));
            chunks_left.push(AtomicUsize::new(n_chunks as usize));
        }

        let time_points = sinks.iter().any(|s| s.wants_timing());
        let shared = Shared {
            executor,
            points,
            base_seed,
            prepared: (0..points.len()).map(|_| OnceLock::new()).collect(),
            queue,
            failures: (0..points.len()).map(|_| AtomicU64::new(0)).collect(),
            chunks_left,
            recorder: &self.recorder,
            point_nanos: (0..points.len()).map(|_| AtomicU64::new(0)).collect(),
            time_points,
        };

        let (tx, rx) = mpsc::channel::<usize>();
        let mut emitter = InOrderEmitter::new(points.len(), sinks);
        let mut progress = ProgressReporter::new(self.progress, points.len());
        let mut io_result = Ok(());

        std::thread::scope(|scope| {
            let shared = &shared;
            for w in 0..workers {
                let tx = tx.clone();
                scope.spawn(move || shared.run_worker(w, &tx));
            }
            drop(tx);

            // Zero-chunk points (no shots, or satisfied from the resume
            // cache) never pass through a worker.
            let mut completed = 0usize;
            for (i, pt) in points.iter().enumerate() {
                let record = match prefilled[i] {
                    Some(failures) => SweepRecord {
                        index: indices[i],
                        point: pt.clone(),
                        base_seed,
                        shots: pt.shots,
                        failures,
                    },
                    None if pt.shots == 0 => SweepRecord {
                        index: indices[i],
                        point: pt.clone(),
                        base_seed,
                        shots: 0,
                        failures: 0,
                    },
                    None => continue,
                };
                self.recorder.incr(Metric::SweepPoints);
                self.recorder.add(Metric::SweepShots, record.shots);
                self.recorder.add(Metric::SweepFailures, record.failures);
                if let Err(e) = emitter.complete(i, record, 0) {
                    io_result = Err(e);
                    shared.queue.clear();
                    return;
                }
                completed += 1;
            }

            while let Ok(point_idx) = rx.recv() {
                let record = SweepRecord {
                    index: indices[point_idx],
                    point: points[point_idx].clone(),
                    base_seed,
                    shots: points[point_idx].shots,
                    failures: shared.failures[point_idx].load(Ordering::Acquire),
                };
                self.recorder.incr(Metric::SweepPoints);
                self.recorder.add(Metric::SweepShots, record.shots);
                self.recorder.add(Metric::SweepFailures, record.failures);
                let nanos = shared.point_nanos[point_idx].load(Ordering::Relaxed);
                if self.recorder.is_enabled() {
                    self.recorder.observe(Metric::SweepPointNanos, nanos);
                }
                if let Err(e) = emitter.complete(point_idx, record, nanos) {
                    io_result = Err(e);
                    // Drop the unclaimed chunks: each worker stops
                    // after the chunk it holds.
                    shared.queue.clear();
                    return;
                }
                completed += 1;
                progress.update(completed);
            }
        });

        if let Some(start) = run_start {
            self.recorder
                .add(Metric::SweepWallNanos, start.elapsed().as_nanos() as u64);
        }
        io_result?;
        for sink in emitter.sinks.iter_mut() {
            sink.finish()?;
        }
        debug_assert_eq!(emitter.emitted.len(), points.len());
        Ok(emitter.emitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{splitmix64, SweepSpec};

    /// Synthetic executor: failures are a pure function of
    /// (point fingerprint, chunk seed), so any schedule must agree.
    struct HashExecutor;

    impl SweepExecutor for HashExecutor {
        type Prepared = u64;

        fn prepare(&self, point: &SweepPoint) -> u64 {
            point.fingerprint()
        }

        fn run_chunk(&self, prepared: &u64, _point: &SweepPoint, shots: u64, seed: u64) -> u64 {
            splitmix64(*prepared ^ seed) % (shots + 1)
        }
    }

    fn demo_spec() -> SweepSpec {
        SweepSpec::new()
            .distances([3, 5, 7])
            .error_rates([1e-3, 2e-3, 5e-3, 1e-2])
            .shots(5000)
            .base_seed(42)
    }

    #[test]
    fn engine_completes_all_points_in_order() {
        let spec = demo_spec();
        let records = SweepEngine::with_workers(4)
            .run(&spec, &HashExecutor, &mut [])
            .unwrap();
        assert_eq!(records.len(), 12);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.shots, 5000);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let spec = demo_spec();
        let serial = SweepEngine::serial()
            .run(&spec, &HashExecutor, &mut [])
            .unwrap();
        for workers in [2, 4, 8] {
            let parallel = SweepEngine::with_workers(workers)
                .run(&spec, &HashExecutor, &mut [])
                .unwrap();
            assert_eq!(serial, parallel, "{workers} workers diverged from serial");
        }
    }

    #[test]
    fn zero_shot_points_yield_empty_records() {
        let spec = SweepSpec::new().shots(0);
        let records = SweepEngine::default()
            .run(&spec, &HashExecutor, &mut [])
            .unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].shots, 0);
        assert_eq!(records[0].failures, 0);
        assert_eq!(records[0].rate(), 0.0);
    }

    #[test]
    fn resumed_run_reuses_cached_points_and_matches_fresh_run() {
        let spec = demo_spec();
        let engine = SweepEngine::with_workers(4);
        let fresh = engine.run(&spec, &HashExecutor, &mut []).unwrap();

        // Round-trip the first half of the records through a JSONL
        // artifact, then resume: cached points must come back verbatim
        // and the merged stream must equal the fresh run's.
        let mut sink = crate::sink::JsonlSink::new(Vec::new());
        for r in &fresh[..6] {
            use crate::sink::RecordSink;
            sink.write(r).unwrap();
        }
        let dir = std::env::temp_dir().join("vlq-engine-resume-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("partial.jsonl");
        std::fs::write(&path, sink.into_inner()).unwrap();
        let cache = crate::resume::ResumeCache::load_jsonl(&path).expect("strict parse");
        assert_eq!(cache.len(), 6);

        struct PanicOnCached;
        impl SweepExecutor for PanicOnCached {
            type Prepared = u64;
            fn prepare(&self, point: &SweepPoint) -> u64 {
                point.fingerprint()
            }
            fn run_chunk(&self, prepared: &u64, pt: &SweepPoint, shots: u64, seed: u64) -> u64 {
                assert!(pt.d == 7, "cached point {pt:?} was re-run");
                HashExecutor.run_chunk(prepared, pt, shots, seed)
            }
        }
        // demo_spec: d in {3,5,7} x 4 rates; records 0..6 cover d=3 and
        // half of d=5... (records 0..6 are d=3 x4 + d=5 x2).
        let resumed = engine
            .run_opts(
                &SweepSpec {
                    distances: vec![3, 7],
                    ..spec.clone()
                },
                &PanicOnCached,
                &mut [],
                &cache,
                &RunOptions::default(),
            )
            .unwrap();
        assert_eq!(resumed.len(), 8);
        // d=3 rows came from the cache and match the fresh run.
        for (r, f) in resumed[..4].iter().zip(&fresh[..4]) {
            assert_eq!(r.failures, f.failures);
            assert_eq!(r.shots, f.shots);
        }
        // Full resume over the original spec reproduces it exactly.
        let full_cache_sink = {
            let mut s = crate::sink::JsonlSink::new(Vec::new());
            for r in &fresh {
                use crate::sink::RecordSink;
                s.write(r).unwrap();
            }
            s.into_inner()
        };
        std::fs::write(&path, full_cache_sink).unwrap();
        let cache = crate::resume::ResumeCache::load_jsonl(&path).unwrap();
        struct NeverRun;
        impl SweepExecutor for NeverRun {
            type Prepared = ();
            fn prepare(&self, _point: &SweepPoint) {}
            fn run_chunk(&self, _p: &(), pt: &SweepPoint, _shots: u64, _seed: u64) -> u64 {
                panic!("fully-cached sweep ran a chunk for {pt:?}")
            }
        }
        let replayed = engine
            .run_opts(&spec, &NeverRun, &mut [], &cache, &RunOptions::default())
            .unwrap();
        assert_eq!(replayed, fresh);
    }

    #[test]
    fn sharded_runs_partition_the_full_run() {
        let spec = demo_spec();
        let engine = SweepEngine::with_workers(3);
        let full = engine.run(&spec, &HashExecutor, &mut []).unwrap();
        for count in [1, 2, 3, 5] {
            let mut merged: Vec<Option<SweepRecord>> = vec![None; full.len()];
            for index in 0..count {
                let opts = RunOptions {
                    shard: ShardSpec::new(index, count).unwrap(),
                    index_offset: 0,
                    plan: None,
                };
                let recs = engine
                    .run_opts(
                        &spec,
                        &HashExecutor,
                        &mut [],
                        &crate::resume::ResumeCache::new(),
                        &opts,
                    )
                    .unwrap();
                assert_eq!(recs.len(), opts.shard.len_of(full.len()));
                for r in recs {
                    assert_eq!(r.index % count, index, "record in wrong shard");
                    assert!(merged[r.index].replace(r).is_none(), "duplicate index");
                }
            }
            let merged: Vec<SweepRecord> = merged.into_iter().map(Option::unwrap).collect();
            assert_eq!(merged, full, "{count} shards do not recompose the full run");
        }
    }

    #[test]
    fn explicit_plan_partitions_identically_to_full_run() {
        // An arbitrary (non-stride) disjoint cover must recompose the
        // full run record-for-record, because seeds are positional.
        let spec = demo_spec();
        let engine = SweepEngine::with_workers(3);
        let full = engine.run(&spec, &HashExecutor, &mut []).unwrap();
        let owners: Vec<u32> = (0..full.len() as u32).map(|g| (g / 5) % 3).collect();
        let plan = ShardPlan { count: 3, owners };
        let mut merged: Vec<Option<SweepRecord>> = vec![None; full.len()];
        for index in 0..3 {
            let opts = RunOptions {
                shard: ShardSpec::new(index, 3).unwrap(),
                index_offset: 0,
                plan: Some(plan.clone()),
            };
            let recs = engine
                .run_opts(
                    &spec,
                    &HashExecutor,
                    &mut [],
                    &crate::resume::ResumeCache::new(),
                    &opts,
                )
                .unwrap();
            assert_eq!(
                recs.len(),
                plan.owners.iter().filter(|&&o| o as usize == index).count()
            );
            for r in recs {
                assert_eq!(plan.owner_of(r.index), index, "record in wrong shard");
                assert!(merged[r.index].replace(r).is_none(), "duplicate index");
            }
        }
        let merged: Vec<SweepRecord> = merged.into_iter().map(Option::unwrap).collect();
        assert_eq!(merged, full, "planned shards do not recompose the full run");
    }

    #[test]
    fn index_offset_renumbers_globally() {
        let spec = SweepSpec::new().distances([3, 5]).error_rates([1e-3]);
        let engine = SweepEngine::serial();
        let opts = RunOptions {
            shard: ShardSpec::FULL,
            index_offset: 10,
            plan: None,
        };
        let recs = engine
            .run_opts(
                &spec,
                &HashExecutor,
                &mut [],
                &crate::resume::ResumeCache::new(),
                &opts,
            )
            .unwrap();
        assert_eq!(
            recs.iter().map(|r| r.index).collect::<Vec<_>>(),
            vec![10, 11]
        );
        // Offsets shift the shard decision too: with 2 shards, offset
        // 10 puts the first point on shard 0 (10 % 2 == 0).
        let opts = RunOptions {
            shard: ShardSpec::new(1, 2).unwrap(),
            index_offset: 10,
            plan: None,
        };
        let recs = engine
            .run_opts(
                &spec,
                &HashExecutor,
                &mut [],
                &crate::resume::ResumeCache::new(),
                &opts,
            )
            .unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].index, 11);
        assert_eq!(recs[0].point.d, 5);
    }

    #[test]
    fn failing_sink_stops_the_sweep() {
        use std::sync::atomic::AtomicBool;
        use std::time::Duration;

        /// Fails its first write, raising `failed`.
        struct FailingSink<'f>(&'f AtomicBool);
        impl RecordSink for FailingSink<'_> {
            fn write(&mut self, _record: &SweepRecord) -> io::Result<()> {
                self.0.store(true, Ordering::Release);
                Err(io::Error::other("sink full"))
            }
        }
        /// Counts chunks. Every chunk after the first waits until the
        /// sink has failed (plus a grace period for the engine to act
        /// on the error), so the count does not race the failure.
        struct GatedExecutor<'f> {
            failed: &'f AtomicBool,
            ran: AtomicUsize,
        }
        impl SweepExecutor for GatedExecutor<'_> {
            type Prepared = ();
            fn prepare(&self, _point: &SweepPoint) {}
            fn run_chunk(&self, _p: &(), _pt: &SweepPoint, _shots: u64, _seed: u64) -> u64 {
                if self.ran.fetch_add(1, Ordering::SeqCst) > 0 {
                    while !self.failed.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                0
            }
        }

        // 200 one-chunk points.
        let spec = SweepSpec::new()
            .error_rates((1..=200).map(|i| f64::from(i) * 1e-5))
            .shots(10);
        let failed = AtomicBool::new(false);
        let executor = GatedExecutor {
            failed: &failed,
            ran: AtomicUsize::new(0),
        };
        let mut sink = FailingSink(&failed);
        let result = SweepEngine::serial().run(&spec, &executor, &mut [&mut sink]);
        assert!(result.is_err(), "the sink error was swallowed");
        let ran = executor.ran.load(Ordering::SeqCst);
        assert!(
            ran <= 2,
            "{ran} of 200 chunks ran: the sweep outlived its sink"
        );
    }

    #[test]
    fn ragged_final_chunk_covers_all_shots() {
        // shots not a multiple of chunk_shots: the task shot counts must
        // sum to the requested total.
        struct CountingExecutor;
        impl SweepExecutor for CountingExecutor {
            type Prepared = ();
            fn prepare(&self, _point: &SweepPoint) {}
            fn run_chunk(&self, _p: &(), _pt: &SweepPoint, shots: u64, _seed: u64) -> u64 {
                shots // every shot "fails" => failures == shots iff coverage is exact
            }
        }
        let spec = SweepSpec::new().shots(2500);
        let engine = SweepEngine {
            chunk_shots: 1024,
            ..SweepEngine::with_workers(3)
        };
        let records = engine.run(&spec, &CountingExecutor, &mut []).unwrap();
        assert_eq!(records[0].failures, 2500);
        assert_eq!(records[0].rate(), 1.0);
    }
}
