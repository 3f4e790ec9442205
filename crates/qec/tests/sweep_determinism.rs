//! Deterministic-seeding contract of the sweep engine, end to end
//! through the real Monte-Carlo executor: the same `SweepSpec` run with
//! 1 worker and N workers produces byte-identical records.

use vlq_decoder::DecoderKind;
use vlq_qec::{MemoryExecutor, LANES_PER_BATCH};
use vlq_surface::schedule::Setup;
use vlq_sweep::{CsvSink, JsonlSink, SweepEngine, SweepSpec};

fn demo_spec() -> SweepSpec {
    SweepSpec::new()
        .setups([Setup::Baseline, Setup::CompactInterleaved])
        .distances([3])
        .ks([4])
        .error_rates([4e-3, 8e-3])
        .decoders([DecoderKind::Mwpm, DecoderKind::UnionFind])
        .shots(600)
        .base_seed(11)
}

/// Runs the spec under the given worker count and returns the raw CSV
/// and JSON-lines bytes plus the records themselves.
fn run_with_workers(workers: usize) -> (Vec<u8>, Vec<u8>, Vec<vlq_sweep::SweepRecord>) {
    let spec = demo_spec();
    let engine = SweepEngine {
        // Several chunks per point so steal order genuinely varies.
        chunk_shots: 128,
        ..SweepEngine::with_workers(workers)
    };
    let mut csv = CsvSink::new(Vec::new()).unwrap();
    let mut jsonl = JsonlSink::new(Vec::new());
    let records = engine
        .run(
            &spec,
            &MemoryExecutor::default(),
            &mut [&mut csv, &mut jsonl],
        )
        .unwrap();
    let csv_bytes = csv.into_inner();
    let jsonl_bytes = jsonl.into_inner();
    (csv_bytes, jsonl_bytes, records)
}

// A sweep chunk is one batch, which is why a sweep has one worker knob.
#[test]
fn a_sweep_chunk_is_one_batch() {
    assert_eq!(SweepEngine::default().chunk_shots, LANES_PER_BATCH as u64);
}

#[test]
fn one_worker_and_many_workers_agree_byte_for_byte() {
    let (csv1, jsonl1, recs1) = run_with_workers(1);
    for workers in [2, 4, 8] {
        let (csv_n, jsonl_n, recs_n) = run_with_workers(workers);
        assert_eq!(recs1, recs_n, "records diverge at {workers} workers");
        assert_eq!(csv1, csv_n, "CSV artifact diverges at {workers} workers");
        assert_eq!(
            jsonl1, jsonl_n,
            "JSONL artifact diverges at {workers} workers"
        );
    }
    // And the sweep actually did something: all points completed with
    // the requested statistics.
    assert_eq!(recs1.len(), 8);
    assert!(recs1.iter().all(|r| r.shots == 600));
    // Sorted by index already (in-order emission).
    let mut sorted = recs1.clone();
    sorted.sort_by_key(|r| r.index);
    assert_eq!(sorted, recs1);
}

#[test]
fn chunked_and_unchunked_totals_agree() {
    // Chunk size changes the seed schedule (documented), but every
    // chunking must still cover exactly `shots` shots.
    let spec = demo_spec();
    for chunk_shots in [64, 600, 4096] {
        let engine = SweepEngine {
            chunk_shots,
            ..SweepEngine::with_workers(2)
        };
        let records = engine
            .run(&spec, &MemoryExecutor::default(), &mut [])
            .unwrap();
        assert!(records.iter().all(|r| r.shots == 600));
        assert!(records.iter().all(|r| r.failures <= r.shots));
    }
}
