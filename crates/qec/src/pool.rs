//! The batch driver.
//!
//! [`Parallelism::run_batches`] is the one multi-batch loop of the
//! workspace. It cuts a run of `shots` into [`LANES_PER_BATCH`]-lane
//! batches and sums the counts each batch adds. When serial it runs the
//! batches inline on one caller-typed scratch; otherwise it spawns
//! scoped workers for the length of the call, which claim batch indices
//! from a [`StealQueue`] and each run theirs on one scratch of their
//! own. Callers supply the one-batch kernel and their own batch-seed
//! rule: memory blocks seed batch `b` with `seed + b`, frame replays
//! and `compare_decoders` with `splitmix64(seed ^ splitmix64(b))`.
//!
//! `vlq-sweep` parallelizes *across* grid points (`--workers`). A sweep
//! chunk is exactly one batch, so there is nothing to split inside it:
//! sweep executors run their chunks serially, and the worker count here
//! serves one-shot callers (`run_memory_experiment`, `compare_decoders`,
//! the `vlq` crate's `FramePrepared::run`, `bench-report --threads`).
//! The driver keeps two contracts:
//!
//! * **Bit-identical at any worker count.** A batch's result depends
//!   only on its index (its seed comes from the index): every scratch
//!   is plain buffers that grow to fit and remember nothing of the
//!   batches before, and integer sums do not depend on the order they
//!   are added in, so which worker ran which batch, on which scratch,
//!   can never leak into a count.
//! * **Byte-identical telemetry sidecars.** Workers record into the
//!   caller's [`Recorder`]. Deterministic metrics are commutative
//!   reductions of schedule-independent work, so their values — and
//!   the JSONL sidecar — match the serial path byte for byte. The
//!   workers' own steal and busy-time metrics are Runtime-class and
//!   land in the stderr summary only.

use std::time::Instant;

use vlq_sweep::StealQueue;
use vlq_telemetry::{Metric, Recorder};

/// Shot lanes per batch: the width of one bit-packed sample→decode
/// pass, and the unit the batch driver schedules.
pub const LANES_PER_BATCH: usize = 1024;

/// Worker-count policy of the batch driver.
///
/// `Parallelism::serial()` (the default) runs batches inline on the
/// calling thread; [`Parallelism::threads`] spreads each call's batches
/// over up to that many scoped workers.
#[derive(Clone, Copy, Debug)]
pub struct Parallelism {
    workers: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::serial()
    }
}

impl Parallelism {
    /// Single-threaded execution on the calling thread.
    pub fn serial() -> Self {
        Parallelism { workers: 1 }
    }

    /// Up to `threads` workers per call; `threads <= 1` means serial
    /// (no worker threads spawned).
    pub fn threads(threads: usize) -> Self {
        Parallelism {
            workers: threads.max(1),
        }
    }

    /// Number of workers batches are spread over (1 when serial).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `shots` shots as [`LANES_PER_BATCH`]-lane batches and leaves
    /// the summed per-batch counts in `counts`.
    ///
    /// `batch(scratch, index, lanes, counts)` runs batch `index` (of
    /// `lanes` shots; only the last batch is short) and *adds* its
    /// counts into the `counts.len()` slots it is handed. Serial runs
    /// call it on one `scratch()` in batch order. Otherwise up to one
    /// scoped worker per batch each builds one `scratch()` and one
    /// partial-count vector and runs whichever batches it claims, in
    /// any order, so the kernel must derive everything random from
    /// `index` alone; the partials are summed after the workers join.
    /// `recorder` receives the workers' runtime metrics; the kernel
    /// records its own.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a batch that panicked on a worker, once
    /// every worker has stopped.
    pub fn run_batches<S>(
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
        let workers = batches.min(self.workers as u64) as usize;
        if workers <= 1 {
            let mut s = scratch();
            for b in 0..batches {
                batch(&mut s, b, lanes(b), counts);
            }
            return;
        }
        let queue = StealQueue::new(workers);
        queue.extend(0..batches);
        let width = counts.len();
        let work = |me: usize| {
            let started = recorder.is_enabled().then(Instant::now);
            let mut s = scratch();
            let mut partial = vec![0u64; width];
            while let Some((b, stolen)) = queue.next(me) {
                if stolen {
                    recorder.incr(Metric::PoolSteals);
                }
                batch(&mut s, b, lanes(b), &mut partial);
            }
            if let Some(started) = started {
                recorder.add(Metric::PoolBusyNanos, started.elapsed().as_nanos() as u64);
            }
            partial
        };
        std::thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (0..workers)
                .map(|me| scope.spawn(move || work(me)))
                .collect();
            for handle in handles {
                let partial = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (c, p) in counts.iter_mut().zip(partial) {
                    *c += p;
                }
            }
        });
    }
}
