//! Steady-state allocation probe for the frame-replay program path.
//!
//! `FramePrepared::run` holds one `FrameScratch` across batches (one
//! per worker); the check drives the one-batch replay
//! `FramePrepared::run_batch` directly. After the first few
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
use vlq::surface::schedule::Boundary;
use vlq::{decoder::DecoderKind, FramePrepared, FrameScratch};

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

/// The steady-state check for one decoder.
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
}
