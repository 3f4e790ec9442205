//! Steady-state allocation probe for the batched sample→decode path.
//!
//! `PreparedBlock::run` holds one `BlockScratch` across batches (one
//! per worker); after the first few batches have grown every buffer to
//! its working size, further batches must allocate *nothing*, under
//! either decoder. The check drives the one-batch kernel directly.
//! A counting global allocator makes that a hard test, which is why the
//! probe lives in its own integration-test binary with a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use vlq_qec::{BlockConfig, BlockScratch, BlockSpec, DecoderKind, PreparedBlock};
use vlq_surface::schedule::{Basis, MemorySpec, Setup};
use vlq_telemetry::{Metric, Recorder};

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

#[test]
fn steady_state_batches_do_not_allocate() {
    for kind in DecoderKind::ALL {
        probe(kind);
    }
}

/// The steady-state check for one decoder kind.
fn probe(kind: DecoderKind) {
    let memory = MemorySpec::standard(Setup::Baseline, 5, 1, Basis::Z);
    let block =
        PreparedBlock::prepare(&BlockConfig::new(BlockSpec::full(memory), 3e-3).with_decoder(kind));
    // The one-batch kernel `run` batches over, on the block's decoder.
    let decoders = [block.decoder()];
    let mut scratch = BlockScratch::new();
    // The telemetry contract: an *attached* recorder must not break the
    // zero-steady-state-allocation property (counters are pre-registered
    // atomics; spans and histogram buckets never allocate after setup).
    let recorder = Recorder::attached();
    scratch.set_recorder(&recorder);
    const LANES: usize = 256;

    // Warm-up: run the probe seeds once so every buffer (frames,
    // records, defect lists, decoder scratch, prediction words) reaches
    // the high-water mark this workload needs. All allocation must be
    // such one-time growth — never per-batch overhead — so re-running
    // the identical batches must allocate nothing.
    let mut warm_failures = 0u64;
    for seed in 100..112u64 {
        let words = block.sample_failure_words_into(&decoders, LANES, seed, &mut scratch);
        warm_failures += words[0].iter().map(|w| w.count_ones() as u64).sum::<u64>();
    }

    // Steady state: same seeds again, zero allocator calls allowed.
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    let mut failures = 0u64;
    for seed in 100..112u64 {
        let words = block.sample_failure_words_into(&decoders, LANES, seed, &mut scratch);
        failures += words[0].iter().map(|w| w.count_ones() as u64).sum::<u64>();
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "{kind}: steady-state batches allocated ({warm_failures} warm-up / {failures} steady failures)"
    );
    // The batches did real work (a zero-allocation no-op would also pass
    // the count check).
    assert!(
        failures > 0,
        "{kind}: probe batches produced no failures at all"
    );
    // And the recorder really was live the whole time.
    assert_eq!(
        recorder.value(Metric::SampleBatches),
        24,
        "{kind}: recorder missed batches"
    );
    let work = match kind {
        DecoderKind::UnionFind => Metric::UfGrowthSteps,
        DecoderKind::Mwpm => Metric::MwpmMatchingEdges,
    };
    assert!(
        recorder.value(work) > 0,
        "{kind}: recorder saw no decoder work"
    );
}
