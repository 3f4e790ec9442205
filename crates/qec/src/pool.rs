//! The batch driver and its in-block work-stealing worker pool.
//!
//! [`Parallelism::run_batches`] is the one multi-batch loop of the
//! workspace. It cuts a run of `shots` into [`LANES_PER_BATCH`]-lane
//! batches and sums the counts each batch adds. When serial it runs the
//! batches inline on one caller-typed scratch; otherwise it runs them
//! as [`SamplePool`] tasks, each worker keeping one persistent scratch
//! in its typed state slot. Callers supply the one-batch kernel and
//! their own batch-seed rule: memory blocks seed batch `b` with
//! `seed + b`, frame replays and `compare_decoders` with
//! `splitmix64(seed ^ splitmix64(b))`.
//!
//! `vlq-sweep` parallelizes *across* grid points; the pool parallelizes
//! *inside* one run, over the same [`StealQueue`] scheduler. It keeps
//! three contracts:
//!
//! * **Bit-identical at any worker count.** A batch's result depends
//!   only on its index (its seed comes from the index), and integer
//!   sums do not depend on the order they are added in, so which worker
//!   ran which batch can never leak into a count.
//! * **Zero steady-state allocation.** Workers are long-lived and
//!   parked on a condvar between jobs; the queue, the per-worker
//!   scratches and the per-worker partial counts are pool-owned and
//!   reused. After warm-up a pooled run allocates nothing
//!   (`crates/qec/tests/alloc_probe.rs` pins this).
//! * **Byte-identical telemetry sidecars.** Workers record into the
//!   caller's [`Recorder`]. Deterministic metrics are commutative
//!   reductions of schedule-independent work, so their values — and
//!   the JSONL sidecar — match the serial path byte for byte. The
//!   pool's own steal and busy-time metrics are Runtime-class and land
//!   in the stderr summary only.
//!
//! # Per-worker scratch
//!
//! A worker's scratch outlives the job that built it. A scratch whose
//! contents are keyed to job inputs must therefore re-key itself when
//! handed different inputs: a `BlockScratch` re-keys on (block
//! identity, decoder list), the `vlq` crate's `FrameScratch` on the
//! identity of the prepared schedule. A job that needs a different
//! scratch type replaces the slot's contents.

use std::any::Any;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use vlq_sweep::StealQueue;
use vlq_telemetry::{Metric, Recorder};

/// Shot lanes per batch: the width of one bit-packed sample→decode
/// pass, and the unit the batch driver schedules.
pub const LANES_PER_BATCH: usize = 1024;

/// Worker-count policy of the batch driver.
///
/// `Parallelism::serial()` (the default) runs batches inline on the
/// calling thread; [`Parallelism::threads`] attaches a shared
/// [`SamplePool`]. Cloning shares the pool (an `Arc` bump), so one pool
/// serves every prepared block of a sweep.
#[derive(Clone, Debug, Default)]
pub struct Parallelism {
    pool: Option<Arc<SamplePool>>,
}

impl Parallelism {
    /// Single-threaded execution on the calling thread.
    pub fn serial() -> Self {
        Parallelism { pool: None }
    }

    /// A pool of `threads` workers; `threads <= 1` means serial (no
    /// pool, no worker threads spawned).
    pub fn threads(threads: usize) -> Self {
        if threads <= 1 {
            Self::serial()
        } else {
            Parallelism {
                pool: Some(Arc::new(SamplePool::new(threads))),
            }
        }
    }

    /// Number of workers batches are spread over (1 when serial).
    pub fn workers(&self) -> usize {
        self.pool.as_ref().map_or(1, |p| p.workers())
    }

    /// The attached pool, if any.
    pub fn pool(&self) -> Option<&SamplePool> {
        self.pool.as_deref()
    }

    /// Runs `shots` shots as [`LANES_PER_BATCH`]-lane batches and leaves
    /// the summed per-batch counts in `counts`.
    ///
    /// `batch(scratch, index, lanes, counts)` runs batch `index` (of
    /// `lanes` shots; only the last batch is short) and *adds* its
    /// counts into the `counts.len()` slots it is handed. Serial runs
    /// call it on one `scratch()` in batch order; pooled runs call it
    /// on any worker, in any order, each worker on its own persistent
    /// scratch, so the kernel must derive everything random from
    /// `index` alone. `recorder` receives the pool's runtime metrics;
    /// the kernel records its own.
    ///
    /// # Panics
    ///
    /// Panics when a batch panicked on a pool worker (the pool is then
    /// poisoned and must be discarded).
    pub fn run_batches<S: Any + Send>(
        &self,
        shots: u64,
        recorder: &Recorder,
        counts: &mut [u64],
        scratch: impl Fn() -> S + Sync,
        batch: impl Fn(&mut S, u64, usize, &mut [u64]) + Sync,
    ) {
        counts.fill(0);
        let per_batch = LANES_PER_BATCH as u64;
        let batches = shots.div_ceil(per_batch);
        let lanes = |b: u64| (shots - b * per_batch).min(per_batch) as usize;
        let Some(pool) = self.pool() else {
            let mut s = scratch();
            for b in 0..batches {
                batch(&mut s, b, lanes(b), counts);
            }
            return;
        };
        let width = counts.len();
        pool.run_tasks(
            batches,
            recorder,
            &|b, state| {
                if !state.is::<Worker<S>>() {
                    *state = Box::new(Worker {
                        scratch: scratch(),
                        counts: Vec::new(),
                    });
                }
                let worker = state
                    .downcast_mut::<Worker<S>>()
                    .expect("worker state installed above");
                worker.counts.resize(width, 0);
                batch(&mut worker.scratch, b, lanes(b), &mut worker.counts);
            },
            &mut |state| {
                if let Some(worker) = state.downcast_mut::<Worker<S>>() {
                    for (c, partial) in counts.iter_mut().zip(&mut worker.counts) {
                        *c += std::mem::take(partial);
                    }
                }
            },
        );
    }
}

/// One pool worker's share of a [`Parallelism::run_batches`] job: its
/// persistent scratch and the counts of the batches it ran.
struct Worker<S> {
    scratch: S,
    counts: Vec<u64>,
}

/// A worker's typed state slot (see [`Parallelism::run_batches`]).
type WorkerState = Box<dyn Any + Send>;

/// One submitted job, as seen by the workers.
///
/// The closure lives on the submitter's stack; its lifetime is erased
/// to `'static` for storage. This is sound because the submitter blocks
/// until every worker has finished the job's epoch (the `active`
/// barrier below), so no worker can touch the borrow after submission
/// returns.
#[derive(Clone)]
struct Job {
    run: &'static (dyn Fn(u64, &mut WorkerState) + Sync),
    recorder: Recorder,
}

struct Coord {
    /// Job generation counter; workers run each epoch exactly once.
    epoch: u64,
    job: Option<Job>,
    /// Workers still inside the current epoch. The submitter waits for
    /// zero — the barrier the `Job` lifetime erasure relies on.
    active: usize,
    /// Set when a worker unwinds out of a task; the submitter panics
    /// rather than reduce a partial result.
    poisoned: bool,
    shutdown: bool,
}

/// Worker-shared state: job hand-off, the task queue and the per-worker
/// state slots.
struct Core {
    coord: Mutex<Coord>,
    work_cv: Condvar,
    done_cv: Condvar,
    queue: StealQueue<u64>,
    states: Vec<Mutex<WorkerState>>,
}

/// The long-lived in-block worker pool. Construct via
/// [`Parallelism::threads`]; dropped pools shut their workers down and
/// join them.
pub struct SamplePool {
    core: Arc<Core>,
    /// Held for a whole job, so concurrent submitters (sweep workers
    /// sharing one pool) take turns and never see each other's counts.
    submit: Mutex<()>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for SamplePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SamplePool")
            .field("workers", &self.workers())
            .finish_non_exhaustive()
    }
}

impl SamplePool {
    /// Spawns `threads` parked workers (`threads` is clamped to >= 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let core = Arc::new(Core {
            coord: Mutex::new(Coord {
                epoch: 0,
                job: None,
                active: 0,
                poisoned: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            queue: StealQueue::new(threads),
            states: (0..threads)
                .map(|_| Mutex::new(Box::new(()) as WorkerState))
                .collect(),
        });
        let handles = (0..threads)
            .map(|w| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || worker_main(&core, w))
            })
            .collect();
        SamplePool {
            core,
            submit: Mutex::new(()),
            handles: Mutex::new(handles),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.core.states.len()
    }

    /// Runs tasks `0..tasks` across the workers — `run(task, state)`
    /// on whichever worker claims the task, with that worker's state
    /// slot — then, once every worker has finished, hands each state
    /// slot to `collect` in worker order.
    fn run_tasks(
        &self,
        tasks: u64,
        recorder: &Recorder,
        run: &(dyn Fn(u64, &mut WorkerState) + Sync),
        collect: &mut dyn FnMut(&mut WorkerState),
    ) {
        let _submit = self.submit.lock().expect("pool submitter");
        if tasks == 0 {
            return;
        }
        debug_assert!(self.core.queue.is_empty(), "previous job drained the queue");
        self.core.queue.extend(0..tasks);
        // SAFETY: the borrow escapes only into workers' epoch loops;
        // each worker drops its copy before it leaves the epoch, and the
        // `active` barrier below keeps this frame alive until every
        // worker has left it.
        let run = unsafe {
            std::mem::transmute::<
                &(dyn Fn(u64, &mut WorkerState) + Sync),
                &'static (dyn Fn(u64, &mut WorkerState) + Sync),
            >(run)
        };
        {
            let mut coord = self.core.coord.lock().expect("pool coord");
            coord.epoch += 1;
            coord.job = Some(Job {
                run,
                recorder: recorder.clone(),
            });
            coord.active = self.workers();
            self.core.work_cv.notify_all();
            while coord.active > 0 {
                coord = self.core.done_cv.wait(coord).expect("pool coord");
            }
            coord.job = None;
            assert!(!coord.poisoned, "a pool task panicked on a worker");
        }
        for state in &self.core.states {
            collect(&mut state.lock().expect("worker state"));
        }
    }
}

impl Drop for SamplePool {
    fn drop(&mut self) {
        {
            let mut coord = self.core.coord.lock().expect("pool coord");
            coord.shutdown = true;
        }
        self.core.work_cv.notify_all();
        for handle in self.handles.get_mut().expect("pool handles").drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_main(core: &Core, me: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut coord = core.coord.lock().expect("pool coord");
            loop {
                if coord.shutdown {
                    return;
                }
                if coord.epoch > seen {
                    seen = coord.epoch;
                    // Every worker joins every epoch (the submitter
                    // waits for all of them), so the job is installed.
                    break coord
                        .job
                        .clone()
                        .expect("epoch advanced with a job installed");
                }
                coord = core.work_cv.wait(coord).expect("pool coord");
            }
        };
        let started = job.recorder.is_enabled().then(Instant::now);
        let finished = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut state = core.states[me].lock().expect("worker state");
            while let Some((task, stolen)) = core.queue.next(me) {
                if stolen {
                    job.recorder.incr(Metric::PoolSteals);
                }
                (job.run)(task, &mut state);
            }
        }))
        .is_ok();
        if let Some(started) = started {
            job.recorder
                .add(Metric::PoolBusyNanos, started.elapsed().as_nanos() as u64);
        }
        // Release the erased borrow before leaving the epoch.
        drop(job);
        let mut coord = core.coord.lock().expect("pool coord");
        if !finished {
            coord.poisoned = true;
            // Leave any unclaimed work behind; the submitter panics.
            core.queue.clear();
        }
        coord.active -= 1;
        if coord.active == 0 {
            core.done_cv.notify_all();
        }
    }
}
