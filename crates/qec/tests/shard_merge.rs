//! Workspace enforcement of the sharding acceptance criterion: for the
//! fig11 CI-scale grid run through the real Monte-Carlo executor,
//! artifacts from any shard count and any per-shard worker count,
//! merged with `vlq_sweep::merge_artifacts`, are **byte-identical** to
//! a single-process run's CSV and JSONL — and the merged JSONL is a
//! valid resume cache that replays the full run without sampling a
//! single shot.

use std::path::PathBuf;

use vlq_decoder::DecoderKind;
use vlq_qec::MemoryExecutor;
use vlq_surface::schedule::Setup;
use vlq_sweep::{
    combine_fingerprints, merge_artifacts, verify_artifact, CsvSink, JsonlSink, ResumeCache,
    RunOptions, ShardSpec, SweepEngine, SweepExecutor, SweepMeta, SweepPoint, SweepRecord,
    SweepSpec, VerifyExpectations,
};

/// The CI smoke grid: 1 setup × d ∈ {3,5} × 2 rates × 2 decoders.
fn ci_spec() -> SweepSpec {
    SweepSpec::new()
        .setups([Setup::Baseline])
        .distances([3, 5])
        .ks([10])
        .decoders(DecoderKind::ALL)
        .error_rates([5e-3, 1e-2])
        .shots(200)
        .base_seed(2020)
}

fn meta_of(spec: &SweepSpec, shard: ShardSpec) -> SweepMeta {
    SweepMeta {
        seed: spec.base_seed,
        spec_fingerprint: combine_fingerprints(0, spec.fingerprint()),
        points: spec.len() as u64,
        shard,
        plan: None,
    }
}

/// Runs one shard with file sinks, exactly like `fig11 --out --shard`.
fn run_to_dir(
    spec: &SweepSpec,
    dir: &PathBuf,
    shard: ShardSpec,
    workers: usize,
) -> Vec<SweepRecord> {
    std::fs::create_dir_all(dir).unwrap();
    let mut csv = CsvSink::create(&dir.join("fig11.csv")).unwrap();
    let mut jsonl = JsonlSink::create(&dir.join("fig11.jsonl")).unwrap();
    meta_of(spec, shard).write(dir, "fig11").unwrap();
    let engine = SweepEngine {
        // Several chunks per point so steal order genuinely varies.
        chunk_shots: 64,
        ..SweepEngine::with_workers(workers)
    };
    engine
        .run_opts(
            spec,
            &MemoryExecutor::default(),
            &mut [&mut csv, &mut jsonl],
            &ResumeCache::new(),
            &RunOptions {
                shard,
                index_offset: 0,
                plan: None,
            },
        )
        .unwrap()
}

#[test]
fn sharded_fig11_merges_byte_identically_and_resumes() {
    let base = std::env::temp_dir().join("vlq-qec-shard-merge");
    let _ = std::fs::remove_dir_all(&base);
    let spec = ci_spec();

    let full_dir = base.join("full");
    let full = run_to_dir(&spec, &full_dir, ShardSpec::FULL, 2);
    assert_eq!(full.len(), 8);

    for count in [2usize, 3] {
        let mut dirs = Vec::new();
        for index in 0..count {
            let shard = ShardSpec::new(index, count).unwrap();
            let dir = base.join(format!("n{count}-s{index}"));
            // Deliberately different worker counts per shard: worker-
            // count independence must survive sharding.
            run_to_dir(&spec, &dir, shard, 1 + index * 2);
            dirs.push(dir);
        }
        let merged = base.join(format!("n{count}-merged"));
        let report = merge_artifacts(&dirs, "fig11", &merged, None).unwrap();
        assert_eq!(report.rows, 8);
        assert_eq!(report.seed, Some(2020));
        for file in ["fig11.csv", "fig11.jsonl", "fig11.meta.json"] {
            assert_eq!(
                std::fs::read(merged.join(file)).unwrap(),
                std::fs::read(full_dir.join(file)).unwrap(),
                "{count} shards: {file} differs from the single-process run"
            );
        }
        verify_artifact(
            &merged,
            "fig11",
            &VerifyExpectations {
                rows: Some(8),
                seed: Some(2020),
                shots: Some(200),
            },
        )
        .unwrap();

        // The merged artifact is a valid resume cache: a fresh full run
        // over it must not sample a single shot.
        struct NeverRun;
        impl SweepExecutor for NeverRun {
            type Prepared = ();
            fn prepare(&self, _point: &SweepPoint) {}
            fn run_chunk(&self, _p: &(), pt: &SweepPoint, _shots: u64, _seed: u64) -> u64 {
                panic!("merged-artifact resume re-ran {pt:?}")
            }
        }
        let cache =
            ResumeCache::load_jsonl_expecting(&merged.join("fig11.jsonl"), spec.base_seed).unwrap();
        let replayed = SweepEngine::with_workers(2)
            .run_opts(&spec, &NeverRun, &mut [], &cache, &RunOptions::default())
            .unwrap();
        assert_eq!(replayed, full);
    }
}
