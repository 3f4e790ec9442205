//! Telemetry must observe without perturbing, and its deterministic
//! sidecar must not depend on how work was scheduled.
//!
//! Two contracts pinned here:
//! - `PreparedBlock::run` returns the same failure count with a
//!   recorder attached as without one (recording never touches RNG
//!   streams or iteration order), and
//! - the deterministic JSONL report of a swept workload is
//!   byte-identical across worker counts (every sidecar metric is a
//!   commutative reduction of seed-deterministic per-chunk work).

use vlq_qec::{BlockConfig, BlockSpec, DecoderKind, MemoryExecutor, Parallelism, PreparedBlock};
use vlq_surface::schedule::{Basis, MemorySpec, Setup};
use vlq_sweep::{SweepEngine, SweepSpec};
use vlq_telemetry::{Metric, Recorder};

fn probe_spec() -> SweepSpec {
    SweepSpec::new()
        .setups([Setup::Baseline, Setup::CompactInterleaved])
        .distances([3, 5])
        .error_rates([3e-3, 6e-3])
        .decoders([DecoderKind::UnionFind])
        .shots(1500)
        .base_seed(7)
}

fn sidecar_with_workers(workers: usize) -> (String, Vec<vlq_sweep::SweepRecord>) {
    let recorder = Recorder::attached();
    let engine = SweepEngine::with_workers(workers).with_recorder(recorder.clone());
    let records = engine
        .run(&probe_spec(), &MemoryExecutor::default(), &mut [])
        .expect("no sinks");
    (recorder.deterministic_jsonl("probe", 7), records)
}

#[test]
fn deterministic_sidecar_is_byte_identical_across_worker_counts() {
    let (one, records_one) = sidecar_with_workers(1);
    for workers in [2, 4] {
        let (other, records) = sidecar_with_workers(workers);
        assert_eq!(records_one, records, "{workers} workers changed records");
        assert_eq!(one, other, "{workers} workers changed the sidecar");
    }
    // The sidecar is not vacuous: the swept workload must show up in it.
    assert!(one.contains("\"schema\": \"vlq-telemetry/v1\""));
    assert!(one.contains("\"metric\": \"decoder.defects_per_lane\""));
    assert!(
        one.contains("\"metric\": \"sweep.points_completed\", \"kind\": \"counter\", \"value\": 8")
    );
    // Runtime-class metrics (timings, steal counts) never leak into it.
    assert!(!one.contains("nanos"));
    assert!(!one.contains("sweep.steals"));
}

#[test]
fn recording_never_perturbs_failure_counts() {
    let memory = MemorySpec::standard(Setup::Baseline, 5, 1, Basis::Z);
    let block = PreparedBlock::prepare(
        &BlockConfig::new(BlockSpec::full(memory), 4e-3).with_decoder(DecoderKind::UnionFind),
    );
    let serial = Parallelism::serial();
    let plain = block.run(3000, 11, &serial, &Recorder::disabled());
    let recorder = Recorder::attached();
    let recorded = block.run(3000, 11, &serial, &recorder);
    assert_eq!(plain, recorded, "recording changed the sampled failures");
    assert_eq!(recorder.value(Metric::SampleLanes), 3000);
    assert_eq!(recorder.value(Metric::BlockFailures), plain);
    let defects = recorder
        .hist(Metric::DefectsPerLane)
        .expect("defect histogram recorded");
    assert_eq!(defects.count, 3000, "one histogram entry per lane");
}
