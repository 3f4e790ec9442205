//! Steady-state allocation probe for the frame-replay program path.
//!
//! `FramePrepared::run` holds one `FrameScratch` across batches (one
//! per worker on the pool); the serial check drives the one-batch
//! replay `FramePrepared::run_batch` directly. After the first few
//! batches have grown every buffer — the logical Pauli frames, the
//! failure accumulator, and one `BlockScratch` per sampled syndrome
//! block — to its working size, further batches must allocate
//! *nothing*, under either decoder. A counting global allocator
//! makes that a hard test, which is why the probe lives in its own
//! integration-test binary, mirroring `crates/qec/tests/alloc_probe.rs`
//! for the memory-block path.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use vlq::machine::MachineConfig;
use vlq::program::{compile, LogicalCircuit};
use vlq::qec::Parallelism;
use vlq::surface::schedule::Boundary;
use vlq::{decoder::DecoderKind, FramePrepared, FrameScratch};
use vlq_telemetry::Recorder;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

fn prepared(kind: DecoderKind) -> FramePrepared {
    let compiled = compile(&LogicalCircuit::ghz(2), MachineConfig::compact_demo()).unwrap();
    FramePrepared::new(compiled.schedule, 3e-3, kind, Boundary::MidCircuit)
}

#[test]
fn steady_state_frame_batches_do_not_allocate() {
    for kind in DecoderKind::ALL {
        probe(kind);
    }
}

/// The serial and pooled steady-state checks for one decoder.
fn probe(kind: DecoderKind) {
    let prep = prepared(kind);
    const LANES: usize = 256;
    let mut scratch = FrameScratch::new();

    // Warm-up: run the probe seeds once so every buffer (frames,
    // accumulators, per-block sample/decode scratch) reaches the
    // high-water mark this workload needs. All allocation must be such
    // one-time growth — never per-batch or per-exposure overhead — so
    // re-running the identical batches must allocate nothing.
    let mut warm = 0u64;
    for seed in 100..112u64 {
        warm += prep.run_batch(LANES, seed, &mut scratch);
    }

    // Steady state: same seeds again, zero allocator calls allowed.
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let mut steady = 0u64;
    for seed in 100..112u64 {
        steady += prep.run_batch(LANES, seed, &mut scratch);
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "{kind}: steady-state frame batches allocated ({warm} warm-up / {steady} steady failures)"
    );
    assert_eq!(steady, warm, "scratch reuse changed the sampled bits");
    // The batches did real work, and scratch reuse is bit-identical to
    // a fresh scratch.
    assert!(
        warm > 0,
        "{kind}: probe batches produced no failures at all"
    );
    assert_eq!(
        warm,
        (100..112u64)
            .map(|s| prep.run_batch(LANES, s, &mut FrameScratch::new()))
            .sum::<u64>(),
        "scratch reuse diverged from a fresh scratch"
    );

    // The same contract under the in-block worker pool: pool creation
    // and warm-up may allocate (threads, queues, per-worker scratch
    // growth), but once every worker's FrameScratch has grown to the
    // high-water mark in its typed pool slot, re-running identical
    // pooled batches must not allocate. Work stealing does not
    // guarantee a given worker touches a batch on any given pass
    // (under load one worker can sit a whole pass out and first grow
    // its scratch later), so warm-up repeats until a full pass
    // allocates nothing — one-time per-worker growth converges after
    // each worker has participated once, while per-batch allocation
    // never does, which the attempt bound turns into a failure.
    // 2048 shots = 2 equal 1024-lane batches, so every (worker, batch)
    // pairing replays identical shapes.
    let par = Parallelism::threads(2);
    const POOL_SHOTS: u64 = 2048;
    let run = |par: &Parallelism, seed| prep.run(POOL_SHOTS, seed, par, &Recorder::disabled());
    let mut pooled_warm = 0u64;
    for seed in 200..206u64 {
        pooled_warm += run(&par, seed);
    }
    let mut settled = false;
    for _attempt in 0..32 {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let mut pooled = 0u64;
        for seed in 200..206u64 {
            pooled += run(&par, seed);
        }
        let after = ALLOC_CALLS.load(Ordering::Relaxed);
        assert_eq!(
            pooled, pooled_warm,
            "{kind}: pooled runs were not deterministic"
        );
        if after == before {
            settled = true;
            break;
        }
    }
    assert!(
        settled,
        "{kind}: pooled frame batches kept allocating after 32 warm passes ({pooled_warm} failures/pass)"
    );
    let pooled = pooled_warm;
    assert_eq!(
        pooled,
        (200..206u64)
            .map(|s| run(&Parallelism::serial(), s))
            .sum::<u64>(),
        "pooled failure counts diverged from serial"
    );
}
