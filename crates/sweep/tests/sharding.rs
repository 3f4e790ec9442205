//! Property-style seeded tests of the sharding contract: for random
//! small `SweepSpec`s, every shard count, and any worker count, the
//! concatenation of shard records equals the full run's records, shard
//! artifacts merge back byte-identically, and `--shard` composes with
//! `--resume`.

use std::path::PathBuf;

use vlq_decoder::DecoderKind;
use vlq_surface::schedule::{Basis, Setup};
use vlq_sweep::{
    merge_artifacts, splitmix64, CsvSink, JsonlSink, RecordSink, ResumeCache, RunOptions,
    ShardSpec, SweepEngine, SweepExecutor, SweepMeta, SweepPoint, SweepRecord, SweepSpec,
};

/// Synthetic executor: failures are a pure function of (point
/// fingerprint, chunk seed), so every schedule and every shard must
/// agree with the full run.
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

/// A deterministic "random" small spec drawn from `seed`.
fn random_spec(seed: u64) -> SweepSpec {
    let mut state = seed;
    let mut next = |m: u64| {
        state = splitmix64(state);
        state % m
    };
    let setups = [
        Setup::Baseline,
        Setup::CompactInterleaved,
        Setup::NaturalAllAtOnce,
    ];
    let n_setups = 1 + next(2) as usize;
    let n_d = 1 + next(3) as usize;
    let n_rates = 1 + next(3) as usize;
    let decoders: Vec<DecoderKind> = DecoderKind::ALL
        .into_iter()
        .take(1 + next(2) as usize)
        .collect();
    let basis = if next(2) == 0 { Basis::Z } else { Basis::X };
    SweepSpec::new()
        .setups(setups.into_iter().take(n_setups))
        .bases([basis])
        .distances((0..n_d).map(|i| 3 + 2 * i))
        .ks([1 + next(4) as usize])
        .decoders(decoders)
        .error_rates((0..n_rates).map(|i| 1e-3 * (i + 1) as f64))
        .shots(200 + next(2000))
        .base_seed(splitmix64(seed ^ 0xabcd))
}

fn run_full(spec: &SweepSpec, workers: usize) -> Vec<SweepRecord> {
    SweepEngine::with_workers(workers)
        .run(spec, &HashExecutor, &mut [])
        .unwrap()
}

fn run_shard(
    spec: &SweepSpec,
    shard: ShardSpec,
    workers: usize,
    cache: &ResumeCache,
) -> Vec<SweepRecord> {
    SweepEngine::with_workers(workers)
        .run_opts(
            spec,
            &HashExecutor,
            &mut [],
            cache,
            &RunOptions {
                shard,
                index_offset: 0,
                plan: None,
            },
        )
        .unwrap()
}

#[test]
fn shards_concatenate_to_the_full_run_for_random_specs() {
    for trial in 0..8u64 {
        let spec = random_spec(0x5eed_0000 + trial);
        let full = run_full(&spec, 2);
        assert_eq!(full.len(), spec.len());
        for count in [1usize, 2, 3, 5] {
            let mut recomposed: Vec<Option<SweepRecord>> = vec![None; full.len()];
            for index in 0..count {
                let shard = ShardSpec::new(index, count).unwrap();
                // Worker count varies per shard, like machines would.
                let records = run_shard(&spec, shard, 1 + (index % 3), &ResumeCache::new());
                assert_eq!(records.len(), shard.len_of(full.len()), "trial {trial}");
                for r in records {
                    assert!(shard.owns(r.index));
                    assert!(
                        recomposed[r.index].replace(r).is_none(),
                        "duplicate global index (trial {trial})"
                    );
                }
            }
            let recomposed: Vec<SweepRecord> = recomposed.into_iter().map(Option::unwrap).collect();
            assert_eq!(
                recomposed, full,
                "trial {trial}: {count} shards diverge from the full run"
            );
        }
    }
}

/// Writes a run's records as a real artifact directory (CSV + JSONL +
/// sidecar), exactly like a figure binary's `--out`.
fn write_artifact(dir: &PathBuf, stem: &str, records: &[SweepRecord], meta: SweepMeta) {
    std::fs::create_dir_all(dir).unwrap();
    let mut csv = CsvSink::new(Vec::new()).unwrap();
    let mut jsonl = JsonlSink::new(Vec::new());
    for r in records {
        csv.write(r).unwrap();
        jsonl.write(r).unwrap();
    }
    std::fs::write(dir.join(format!("{stem}.csv")), csv.into_inner()).unwrap();
    std::fs::write(dir.join(format!("{stem}.jsonl")), jsonl.into_inner()).unwrap();
    meta.write(dir, stem).unwrap();
}

#[test]
fn shard_artifacts_merge_byte_identically_for_random_specs() {
    let base = std::env::temp_dir().join("vlq-sharding-proptest");
    let _ = std::fs::remove_dir_all(&base);
    for trial in 0..4u64 {
        let spec = random_spec(0xa5a5_0000 + trial);
        let full = run_full(&spec, 3);
        let meta_of = |shard: ShardSpec| SweepMeta {
            seed: spec.base_seed,
            spec_fingerprint: vlq_sweep::combine_fingerprints(0, spec.fingerprint()),
            points: spec.len() as u64,
            shard,
            plan: None,
        };
        let reference = base.join(format!("t{trial}-reference"));
        write_artifact(&reference, "scan", &full, meta_of(ShardSpec::FULL));

        for count in [2usize, 3] {
            let mut dirs = Vec::new();
            for index in 0..count {
                let shard = ShardSpec::new(index, count).unwrap();
                let records = run_shard(&spec, shard, 1 + index, &ResumeCache::new());
                let dir = base.join(format!("t{trial}-n{count}-s{index}"));
                write_artifact(&dir, "scan", &records, meta_of(shard));
                dirs.push(dir);
            }
            let out = base.join(format!("t{trial}-n{count}-merged"));
            let report = merge_artifacts(&dirs, "scan", &out, None).unwrap();
            assert_eq!(report.rows, full.len());
            assert_eq!(report.seed, Some(spec.base_seed));
            for file in ["scan.csv", "scan.jsonl", "scan.meta.json"] {
                assert_eq!(
                    std::fs::read(out.join(file)).unwrap(),
                    std::fs::read(reference.join(file)).unwrap(),
                    "trial {trial}, {count} shards: {file} is not byte-identical"
                );
            }
        }
    }
}

#[test]
fn shard_composes_with_resume() {
    /// Refuses to compute anything: every point must come from the
    /// resume cache.
    struct NeverRun;
    impl SweepExecutor for NeverRun {
        type Prepared = ();
        fn prepare(&self, _point: &SweepPoint) {}
        fn run_chunk(&self, _p: &(), pt: &SweepPoint, _shots: u64, _seed: u64) -> u64 {
            panic!("resumed shard re-ran {pt:?}")
        }
    }

    let base = std::env::temp_dir().join("vlq-sharding-resume");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    for trial in 0..4u64 {
        let spec = random_spec(0xbeef_0000 + trial);
        let full = run_full(&spec, 2);

        // A full-run artifact is a valid cache for any shard...
        let mut jsonl = JsonlSink::new(Vec::new());
        for r in &full {
            jsonl.write(r).unwrap();
        }
        let path = base.join(format!("t{trial}.jsonl"));
        std::fs::write(&path, jsonl.into_inner()).unwrap();
        let cache = ResumeCache::load_jsonl_expecting(&path, spec.base_seed).unwrap();
        for count in [2usize, 3, 5] {
            for index in 0..count {
                let shard = ShardSpec::new(index, count).unwrap();
                let resumed = SweepEngine::with_workers(2)
                    .run_opts(
                        &spec,
                        &NeverRun,
                        &mut [],
                        &cache,
                        &RunOptions {
                            shard,
                            index_offset: 0,
                            plan: None,
                        },
                    )
                    .unwrap();
                let expected: Vec<SweepRecord> = full
                    .iter()
                    .filter(|r| shard.owns(r.index))
                    .cloned()
                    .collect();
                assert_eq!(resumed, expected, "trial {trial}, shard {shard}");
            }
        }

        // ...and a single shard's artifact resumes exactly its own
        // points of a sharded rerun.
        let shard = ShardSpec::new(1, 3).unwrap();
        let shard_records = run_shard(&spec, shard, 2, &ResumeCache::new());
        let mut jsonl = JsonlSink::new(Vec::new());
        for r in &shard_records {
            jsonl.write(r).unwrap();
        }
        let path = base.join(format!("t{trial}-shard.jsonl"));
        std::fs::write(&path, jsonl.into_inner()).unwrap();
        let cache = ResumeCache::load_jsonl_expecting(&path, spec.base_seed).unwrap();
        let resumed = SweepEngine::serial()
            .run_opts(
                &spec,
                &NeverRun,
                &mut [],
                &cache,
                &RunOptions {
                    shard,
                    index_offset: 0,
                    plan: None,
                },
            )
            .unwrap();
        assert_eq!(resumed, shard_records, "trial {trial}");
    }
}
