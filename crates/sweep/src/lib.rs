//! # vlq-sweep — experiment-orchestration engine
//!
//! The paper's headline results (Figures 11–13, Tables 1–2) are all
//! parameter sweeps: code distance × physical error rate × decoder ×
//! setup. This crate turns such a scan into a declarative [`SweepSpec`],
//! expands it into shot-chunk tasks, and executes them on a
//! work-stealing worker pool so parallelism spans *configs × shots*
//! rather than shots within one config.
//!
//! Three guarantees make sweeps reproducible and diffable:
//!
//! 1. **Deterministic seeding** — every chunk's seed derives from the
//!    base seed and the point's grid coordinates
//!    ([`SweepPoint::chunk_seed`]), never from scheduling, so any
//!    worker count or steal order produces identical results.
//! 2. **In-order emission** — completed [`SweepRecord`]s stream to
//!    pluggable [`RecordSink`]s ([`CsvSink`], [`JsonlSink`],
//!    [`MemorySink`]) in expansion order, so file artifacts are
//!    byte-identical across runs.
//! 3. **Machine-readable artifacts** — the [`artifact`] module's CSV /
//!    JSON-lines writers give every figure binary a `--out` format
//!    future PRs can regression-diff.
//!
//! Deterministic seeding also makes sweeps **shardable across
//! machines**: a [`ShardSpec`] `i/N` runs only the grid points with
//! `global_index % N == i` (same global numbering, same per-chunk
//! seeds), and the [`merge`] module interleaves N shard artifacts back
//! into files byte-identical to an unsharded run's.
//!
//! The engine is domain-generic over a [`SweepExecutor`]; `vlq-qec`
//! implements the executor for Monte-Carlo memory experiments and
//! rebuilds its threshold and sensitivity scans on top.
//!
//! # Examples
//!
//! ```
//! use vlq_sweep::{MemorySink, SweepEngine, SweepExecutor, SweepPoint, SweepSpec};
//!
//! // A toy executor: "failures" are a hash of the coordinates + seed.
//! struct Toy;
//! impl SweepExecutor for Toy {
//!     type Prepared = ();
//!     fn prepare(&self, _point: &SweepPoint) {}
//!     fn run_chunk(&self, _prep: &(), _pt: &SweepPoint, shots: u64, seed: u64) -> u64 {
//!         seed % (shots + 1)
//!     }
//! }
//!
//! let spec = SweepSpec::new()
//!     .distances([3, 5])
//!     .error_rates([1e-3, 2e-3])
//!     .shots(2000);
//! let mut sink = MemorySink::new();
//! let records = SweepEngine::with_workers(4)
//!     .run(&spec, &Toy, &mut [&mut sink])
//!     .unwrap();
//! assert_eq!(records.len(), 4);
//! assert_eq!(sink.records(), &records[..]);
//! ```

pub mod artifact;
pub mod engine;
pub mod merge;
pub mod plan;
pub mod queue;
pub mod resume;
pub mod shard;
pub mod sink;
pub mod spec;

pub use engine::{RunOptions, SweepEngine, SweepExecutor};
pub use merge::{
    merge_artifacts, merge_artifacts_with_plan, salvage_jsonl, verify_artifact, ArtifactError,
    MergeError, MergeReport, SweepMeta, VerifyExpectations, VerifyReport,
};
pub use plan::{
    load_times, parse_times, PlanError, ShardPlan, TimesEntry, TimesFile, PLAN_SCHEMA, TIMES_SCHEMA,
};
pub use queue::StealQueue;
pub use resume::{ResumeCache, ResumeKey};
pub use shard::{ShardError, ShardSpec};
pub use sink::{
    CsvSink, JsonlSink, MemorySink, RecordSink, SweepRecord, TimesSink, RECORD_COLUMNS,
};
pub use spec::{
    combine_fingerprints, points_fingerprint, splitmix64, KnobSetting, SweepAxis, SweepPoint,
    SweepSpec,
};
