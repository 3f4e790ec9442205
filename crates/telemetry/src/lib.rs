//! Allocation-free run telemetry for the sample→decode→sweep stack.
//!
//! Every metric the workspace records is **pre-registered** in the
//! [`Metric`] enum; a [`Recorder`] holds one fixed slot per metric
//! (plain-`u64` counters, `fetch_max` gauges, fixed log2-bucket
//! histograms), so the hot path never allocates, never locks, and never
//! formats — it performs one relaxed atomic op per record call. A
//! disabled recorder ([`Recorder::disabled`]) costs exactly one branch
//! per call, which is what lets instrumentation live inside the
//! batched sample→decode loop without violating the zero
//! steady-state-allocation guarantee of `crates/qec/tests/alloc_probe.rs`.
//!
//! # Two metric classes, one determinism contract
//!
//! Telemetry must never perturb results (no RNG access, no iteration-
//! order dependence) — and the machine-readable report must itself be
//! reproducible. Metrics therefore carry a [`MetricClass`]:
//!
//! * [`MetricClass::Deterministic`] — commutative reductions (sums,
//!   maxes, bucket counts) of seed-deterministic work quantities.
//!   Because the work set is schedule-independent and the reductions
//!   commute, these aggregate to identical values for *any* worker
//!   count or steal order. Only these appear in the JSONL report
//!   ([`Recorder::deterministic_jsonl`]), which is byte-identical
//!   across `--workers 1/2/4` for the same seed.
//! * [`MetricClass::Runtime`] — wall-clock spans, steal counts, worker
//!   occupancy. Inherently schedule-dependent; they appear only in the
//!   human summary ([`Recorder::summary`]) on stderr.
//!
//! # Examples
//!
//! ```
//! use vlq_telemetry::{Metric, Recorder};
//!
//! let rec = Recorder::attached();
//! rec.add(Metric::SampleLanes, 1024);
//! rec.observe(Metric::DefectsPerLane, 3);
//! {
//!     let _span = rec.span(Metric::DecodeNanos); // records on drop
//! }
//! assert_eq!(rec.value(Metric::SampleLanes), 1024);
//!
//! let off = Recorder::disabled(); // hot-path cost: one branch
//! off.add(Metric::SampleLanes, 1024);
//! assert_eq!(off.value(Metric::SampleLanes), 0);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema tag of the deterministic JSONL report (first line of every
/// `--telemetry` sidecar; bump on any row-shape change).
pub const SCHEMA: &str = "vlq-telemetry/v1";

/// Histogram bucket count: bucket 0 holds zeros, bucket `b >= 1` holds
/// values with `b` significant bits (`2^(b-1) ..= 2^b - 1`), so bucket
/// 64 holds `2^63 ..= u64::MAX`.
pub const NUM_BUCKETS: usize = 65;

/// The log2 bucket a value lands in (total order, no floats).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Storage/reduction shape of a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone sum (`fetch_add`).
    Counter,
    /// Running maximum (`fetch_max`).
    GaugeMax,
    /// Fixed log2-bucket distribution plus count and sum.
    Histogram,
}

impl MetricKind {
    /// Stable lowercase name used in report rows.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::GaugeMax => "gauge_max",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Whether a metric is reproducible across schedules (see crate docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricClass {
    /// Seed-deterministic, schedule-independent: eligible for the
    /// machine-readable JSONL report.
    Deterministic,
    /// Wall-clock / scheduling dependent: human summary only.
    Runtime,
}

macro_rules! metrics {
    ($( $(#[$doc:meta])* $variant:ident => ($name:expr, $kind:ident, $class:ident) ),+ $(,)?) => {
        /// Every metric the workspace records, pre-registered so the
        /// recorder's storage is fixed at construction (no allocation,
        /// no string lookup on the hot path). Adding a metric means
        /// adding a variant here — see `docs/observability.md` for the
        /// rules that keep the alloc probe and the determinism contract
        /// intact.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Metric {
            $(
                #[doc = $name]
                #[doc = ""]
                $(#[$doc])*
                $variant,
            )+
        }

        impl Metric {
            /// Every registered metric, in report-row order.
            pub const ALL: [Metric; metrics!(@count $($variant)+)] = [
                $(Metric::$variant,)+
            ];

            /// Stable dotted name (`layer.metric`) used in report rows.
            pub fn name(self) -> &'static str {
                match self {
                    $(Metric::$variant => $name,)+
                }
            }

            /// Storage/reduction shape.
            pub fn kind(self) -> MetricKind {
                match self {
                    $(Metric::$variant => MetricKind::$kind,)+
                }
            }

            /// Determinism class (see crate docs).
            pub fn class(self) -> MetricClass {
                match self {
                    $(Metric::$variant => MetricClass::$class,)+
                }
            }
        }
    };
    (@count $($tok:ident)+) => { 0usize $(+ metrics!(@one $tok))+ };
    (@one $tok:ident) => { 1usize };
}

metrics! {
    // -- decoder ------------------------------------------------------
    DefectsPerLane => ("decoder.defects_per_lane", Histogram, Deterministic),
    UfGrowthSteps => ("decoder.uf_growth_steps", Counter, Deterministic),
    UfTouchedNodes => ("decoder.uf_touched_nodes", Counter, Deterministic),
    UfOddClusterPeak => ("decoder.uf_odd_cluster_peak", GaugeMax, Deterministic),
    /// Matcher calls made: one per MWPM decode with a positive-gain
    /// defect pair. A shot without one sends every defect to the
    /// boundary and makes no call.
    MwpmBlossomCalls => ("decoder.mwpm_blossom_calls", Counter, Deterministic),
    /// Positive-gain defect pairs handed to the matcher, summed over its
    /// calls.
    MwpmMatchingEdges => ("decoder.mwpm_matching_edges", Counter, Deterministic),
    // -- qec block sampling -------------------------------------------
    SampleBatches => ("qec.sample_batches", Counter, Deterministic),
    SampleLanes => ("qec.sample_lanes", Counter, Deterministic),
    BlockFailures => ("qec.block_failures", Counter, Deterministic),
    // -- vlq schedule replay ------------------------------------------
    ExecRefreshBlocks => ("exec.blocks_refresh", Counter, Deterministic),
    ExecLogical1QBlocks => ("exec.blocks_logical1q", Counter, Deterministic),
    ExecCnotBlocks => ("exec.blocks_cnot", Counter, Deterministic),
    ExecSurgeryBlocks => ("exec.blocks_surgery", Counter, Deterministic),
    ExecMoveBlocks => ("exec.blocks_move", Counter, Deterministic),
    ExecMagicBlocks => ("exec.blocks_magic", Counter, Deterministic),
    ExecMeasureBlocks => ("exec.blocks_measure", Counter, Deterministic),
    // -- vlq cost replay ----------------------------------------------
    CostDeadlineMisses => ("cost.deadline_misses", Counter, Deterministic),
    CostPageIns => ("cost.page_ins", Counter, Deterministic),
    CostPageOuts => ("cost.page_outs", Counter, Deterministic),
    // -- tenancy (multi-tenant contention accounting) -----------------
    TenantQueueDelay => ("tenant.queue_delay", Counter, Deterministic),
    TenantDeadlineMisses => ("tenant.deadline_misses", Counter, Deterministic),
    TenantEvictions => ("tenant.evictions", Counter, Deterministic),
    TenantPageFaults => ("tenant.page_faults", Counter, Deterministic),
    TenantRefreshSkips => ("tenant.refresh_skips", Counter, Deterministic),
    TenantInstructions => ("tenant.instructions", Counter, Deterministic),
    TenantFinishT => ("tenant.finish_t", GaugeMax, Deterministic),
    TenantIdealT => ("tenant.ideal_t", GaugeMax, Deterministic),
    TenantSlowdownPermille => ("tenant.slowdown_permille", GaugeMax, Deterministic),
    // -- sweep engine (deterministic work accounting) -----------------
    SweepPoints => ("sweep.points_completed", Counter, Deterministic),
    SweepChunks => ("sweep.chunks_completed", Counter, Deterministic),
    SweepShots => ("sweep.shots", Counter, Deterministic),
    SweepFailures => ("sweep.failures", Counter, Deterministic),
    // -- runtime (timings / scheduling; stderr summary only) ----------
    SampleNanos => ("qec.sample_nanos", Counter, Runtime),
    ExtractNanos => ("qec.extract_nanos", Counter, Runtime),
    DecodeNanos => ("qec.decode_nanos", Counter, Runtime),
    DecodeBatchNanos => ("decoder.decode_batch_nanos", Counter, Runtime),
    SweepPointNanos => ("sweep.point_nanos", Histogram, Runtime),
    SweepBusyNanos => ("sweep.worker_busy_nanos", Counter, Runtime),
    SweepSteals => ("sweep.steals", Counter, Runtime),
    SweepWallNanos => ("sweep.wall_nanos", Counter, Runtime),
    PoolSteals => ("pool.steals", Counter, Runtime),
    PoolBusyNanos => ("pool.worker_busy_nanos", Counter, Runtime),
    // -- fleet supervisor (process scheduling; stderr summary only) ----
    FleetProcs => ("fleet.procs", GaugeMax, Runtime),
    FleetPolls => ("fleet.polls", Counter, Runtime),
    FleetRestarts => ("fleet.restarts", Counter, Runtime),
    FleetStalls => ("fleet.stalls", Counter, Runtime),
    FleetBackoffNanos => ("fleet.backoff_nanos", Counter, Runtime),
    FleetShardWallNanos => ("fleet.shard_wall_nanos", Histogram, Runtime),
}

impl Metric {
    /// Looks a metric up by its stable dotted name (report-row inverse
    /// of [`Metric::name`]).
    pub fn parse(name: &str) -> Option<Metric> {
        Metric::ALL.iter().copied().find(|m| m.name() == name)
    }

    /// Dense histogram-storage slot of a `Histogram` metric.
    fn hist_slot(self) -> Option<usize> {
        let mut slot = 0;
        for m in Metric::ALL {
            if m.kind() == MetricKind::Histogram {
                if m == self {
                    return Some(slot);
                }
                slot += 1;
            }
        }
        None
    }

    fn index(self) -> usize {
        Metric::ALL
            .iter()
            .position(|m| *m == self)
            .expect("ALL covers every variant")
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

const NUM_METRICS: usize = Metric::ALL.len();

fn num_hists() -> usize {
    Metric::ALL
        .iter()
        .filter(|m| m.kind() == MetricKind::Histogram)
        .count()
}

/// One histogram's storage: log2 buckets plus exact count and sum.
#[derive(Debug)]
struct Hist {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Hist {
    fn new() -> Self {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// Immutable read of one histogram (see [`Recorder::hist`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Observation count.
    pub count: u64,
    /// Sum of observed values (wrapping on overflow, like the storage).
    pub sum: u64,
    /// Per-bucket observation counts ([`bucket_index`] indexing).
    pub buckets: [u64; NUM_BUCKETS],
}

#[derive(Debug)]
struct Inner {
    /// Counter sums / gauge maxima, indexed by [`Metric::index`].
    /// Histogram metrics keep their scalar slot at zero.
    scalars: [AtomicU64; NUM_METRICS],
    hists: Vec<Hist>,
}

/// Handle to pre-registered telemetry storage.
///
/// Cloning is an `Arc` refcount bump (workers share one storage; all
/// reductions are commutative atomics, so aggregation is free).
/// [`Recorder::disabled`] carries no storage: every record call is one
/// branch, every read returns zero.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// A recorder with live storage (the only allocation telemetry
    /// ever performs, at construction time).
    pub fn attached() -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                scalars: std::array::from_fn(|_| AtomicU64::new(0)),
                hists: (0..num_hists()).map(|_| Hist::new()).collect(),
            })),
        }
    }

    /// The no-op recorder: one branch per call, no storage.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// Whether record calls land anywhere. Hot loops may hoist this to
    /// skip per-item work (e.g. a per-lane histogram pass) entirely.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `v` to a counter.
    #[inline]
    pub fn add(&self, metric: Metric, v: u64) {
        if let Some(inner) = &self.inner {
            debug_assert_eq!(metric.kind(), MetricKind::Counter);
            inner.scalars[metric.index()].fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Adds 1 to a counter.
    #[inline]
    pub fn incr(&self, metric: Metric) {
        self.add(metric, 1);
    }

    /// Raises a max-gauge to at least `v`.
    #[inline]
    pub fn gauge_max(&self, metric: Metric, v: u64) {
        if let Some(inner) = &self.inner {
            debug_assert_eq!(metric.kind(), MetricKind::GaugeMax);
            inner.scalars[metric.index()].fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Records one observation into a histogram.
    #[inline]
    pub fn observe(&self, metric: Metric, v: u64) {
        if let Some(inner) = &self.inner {
            let slot = metric
                .hist_slot()
                .expect("observe() needs a Histogram metric");
            inner.hists[slot].observe(v);
        }
    }

    /// Starts an RAII span timer; its elapsed nanoseconds are added to
    /// `metric` (a counter) when the guard drops. A disabled recorder's
    /// span never reads the clock.
    #[inline]
    pub fn span(&self, metric: Metric) -> Span {
        Span {
            recorder: self.clone(),
            metric,
            start: self.inner.is_some().then(Instant::now),
        }
    }

    /// Current value of a counter or max-gauge (0 when disabled).
    pub fn value(&self, metric: Metric) -> u64 {
        match &self.inner {
            Some(inner) => inner.scalars[metric.index()].load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Current contents of a histogram metric (`None` when disabled or
    /// when `metric` is not a histogram).
    pub fn hist(&self, metric: Metric) -> Option<HistSnapshot> {
        let inner = self.inner.as_ref()?;
        let h = &inner.hists[metric.hist_slot()?];
        Some(HistSnapshot {
            count: h.count.load(Ordering::Relaxed),
            sum: h.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| h.buckets[i].load(Ordering::Relaxed)),
        })
    }

    /// The machine-readable report: a JSONL document with one header
    /// line (schema tag, binary name, seed) and one row per
    /// *deterministic* metric, in [`Metric::ALL`] order. Every
    /// deterministic metric is always present (schema-stable row set),
    /// and every value is a commutative reduction of seed-deterministic
    /// work, so the document is byte-identical across worker counts.
    pub fn deterministic_jsonl(&self, bin: &str, seed: u64) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\"schema\": \"{SCHEMA}\", \"bin\": \"{bin}\", \"seed\": {seed}}}\n"
        ));
        for metric in Metric::ALL {
            if metric.class() != MetricClass::Deterministic {
                continue;
            }
            match metric.kind() {
                MetricKind::Counter | MetricKind::GaugeMax => {
                    s.push_str(&format!(
                        "{{\"metric\": \"{}\", \"kind\": \"{}\", \"value\": {}}}\n",
                        metric.name(),
                        metric.kind().name(),
                        self.value(metric)
                    ));
                }
                MetricKind::Histogram => {
                    let h = self.hist(metric).unwrap_or(HistSnapshot {
                        count: 0,
                        sum: 0,
                        buckets: [0; NUM_BUCKETS],
                    });
                    let buckets: Vec<String> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| **c > 0)
                        .map(|(i, c)| format!("[{i}, {c}]"))
                        .collect();
                    s.push_str(&format!(
                        "{{\"metric\": \"{}\", \"kind\": \"histogram\", \"count\": {}, \"sum\": {}, \"buckets\": [{}]}}\n",
                        metric.name(),
                        h.count,
                        h.sum,
                        buckets.join(", ")
                    ));
                }
            }
        }
        s
    }

    /// The human summary: one aligned line per non-zero metric (both
    /// classes), for stderr. Returns an empty string when disabled.
    pub fn summary(&self) -> String {
        if !self.is_enabled() {
            return String::new();
        }
        let mut s = String::from("telemetry summary:\n");
        for metric in Metric::ALL {
            let class = match metric.class() {
                MetricClass::Deterministic => "det",
                MetricClass::Runtime => "run",
            };
            match metric.kind() {
                MetricKind::Counter | MetricKind::GaugeMax => {
                    let v = self.value(metric);
                    if v == 0 {
                        continue;
                    }
                    s.push_str(&format!(
                        "  {:<28} {:>9} [{}] {}\n",
                        metric.name(),
                        metric.kind().name(),
                        class,
                        v
                    ));
                }
                MetricKind::Histogram => {
                    let Some(h) = self.hist(metric) else { continue };
                    if h.count == 0 {
                        continue;
                    }
                    let mean = h.sum as f64 / h.count as f64;
                    s.push_str(&format!(
                        "  {:<28} {:>9} [{}] count={} sum={} mean={:.2}\n",
                        metric.name(),
                        "histogram",
                        class,
                        h.count,
                        h.sum,
                        mean
                    ));
                }
            }
        }
        s
    }
}

/// RAII span timer from [`Recorder::span`]: adds the elapsed
/// nanoseconds to its counter metric on drop. Holds a recorder handle
/// (an `Arc` clone — no allocation), so it outlives reborrows of the
/// structure it was started from.
#[derive(Debug)]
pub struct Span {
    recorder: Recorder,
    metric: Metric,
    start: Option<Instant>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.recorder
                .add(self.metric, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Everything [`merge_deterministic_jsonl`] can reject, typed so fleet
/// failures name the offending document and line.
#[derive(Debug)]
pub enum SidecarMergeError {
    /// No documents to merge.
    Empty,
    /// A document's header disagrees with the first document's (merging
    /// only makes sense for sidecars of the same binary and seed).
    HeaderMismatch {
        /// Zero-based index of the offending document.
        doc: usize,
    },
    /// A row names a metric this build does not register.
    UnknownMetric {
        /// Zero-based index of the offending document.
        doc: usize,
        /// The unregistered metric name.
        name: String,
    },
    /// A line does not parse as a sidecar header or metric row.
    Malformed {
        /// Zero-based index of the offending document.
        doc: usize,
        /// Zero-based line number within the document.
        line: usize,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for SidecarMergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SidecarMergeError::Empty => write!(f, "no telemetry sidecars to merge"),
            SidecarMergeError::HeaderMismatch { doc } => write!(
                f,
                "sidecar {doc} header disagrees with sidecar 0 (schema, bin, or seed)"
            ),
            SidecarMergeError::UnknownMetric { doc, name } => {
                write!(f, "sidecar {doc} row names unregistered metric {name:?}")
            }
            SidecarMergeError::Malformed { doc, line, reason } => {
                write!(f, "sidecar {doc} line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for SidecarMergeError {}

/// The `"key": "str"` field of a sidecar line (the exact spacing
/// [`Recorder::deterministic_jsonl`] writes).
fn sidecar_str_field(line: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\": \"");
    let at = line.find(&needle)? + needle.len();
    let end = line[at..].find('"')?;
    Some(line[at..at + end].to_string())
}

/// The `"key": N` field of a sidecar line.
fn sidecar_u64_field(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\": ");
    let at = line.find(&needle)? + needle.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Merges deterministic telemetry sidecars (one per shard process) into
/// the single document one shared recorder would have produced: headers
/// must agree byte-for-byte (same schema, binary, seed), counters and
/// histogram contents are summed, max-gauges folded with `max` — the
/// same commutative reductions recorders sharing one storage perform,
/// just across process boundaries via the serialized report. Because every
/// deterministic metric is schedule-independent, merging the sidecars
/// of a clean sharded run reproduces the unsharded run's sidecar
/// byte-for-byte.
pub fn merge_deterministic_jsonl(docs: &[&str]) -> Result<String, SidecarMergeError> {
    let header = docs
        .first()
        .ok_or(SidecarMergeError::Empty)?
        .lines()
        .next()
        .ok_or(SidecarMergeError::Malformed {
            doc: 0,
            line: 0,
            reason: "empty document".to_string(),
        })?;
    if !header.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(SidecarMergeError::Malformed {
            doc: 0,
            line: 0,
            reason: format!("header is not {SCHEMA:?}"),
        });
    }
    let bin = sidecar_str_field(header, "bin").ok_or(SidecarMergeError::Malformed {
        doc: 0,
        line: 0,
        reason: "header has no \"bin\"".to_string(),
    })?;
    let seed = sidecar_u64_field(header, "seed").ok_or(SidecarMergeError::Malformed {
        doc: 0,
        line: 0,
        reason: "header has no \"seed\"".to_string(),
    })?;

    let merged = Recorder::attached();
    let inner = merged.inner.as_deref().expect("attached recorder");
    for (doc_idx, doc) in docs.iter().enumerate() {
        let mut lines = doc.lines().enumerate();
        match lines.next() {
            Some((_, h)) if h == header => {}
            _ => return Err(SidecarMergeError::HeaderMismatch { doc: doc_idx }),
        }
        for (line_idx, line) in lines {
            let malformed = |reason: &str| SidecarMergeError::Malformed {
                doc: doc_idx,
                line: line_idx,
                reason: reason.to_string(),
            };
            let name =
                sidecar_str_field(line, "metric").ok_or_else(|| malformed("no \"metric\""))?;
            let metric = Metric::parse(&name)
                .ok_or(SidecarMergeError::UnknownMetric { doc: doc_idx, name })?;
            let kind = sidecar_str_field(line, "kind").ok_or_else(|| malformed("no \"kind\""))?;
            if kind != metric.kind().name() {
                return Err(malformed(&format!(
                    "kind {kind:?} contradicts registered {:?}",
                    metric.kind().name()
                )));
            }
            match metric.kind() {
                MetricKind::Counter => {
                    let v = sidecar_u64_field(line, "value")
                        .ok_or_else(|| malformed("no \"value\""))?;
                    merged.add(metric, v);
                }
                MetricKind::GaugeMax => {
                    let v = sidecar_u64_field(line, "value")
                        .ok_or_else(|| malformed("no \"value\""))?;
                    merged.gauge_max(metric, v);
                }
                MetricKind::Histogram => {
                    let count = sidecar_u64_field(line, "count")
                        .ok_or_else(|| malformed("no \"count\""))?;
                    let sum =
                        sidecar_u64_field(line, "sum").ok_or_else(|| malformed("no \"sum\""))?;
                    let slot = metric.hist_slot().expect("histogram metric has a slot");
                    let h = &inner.hists[slot];
                    h.count.fetch_add(count, Ordering::Relaxed);
                    h.sum.fetch_add(sum, Ordering::Relaxed);
                    let open = line
                        .find("\"buckets\": [")
                        .ok_or_else(|| malformed("no \"buckets\""))?
                        + "\"buckets\": [".len();
                    let close = line
                        .rfind(']')
                        .ok_or_else(|| malformed("unclosed buckets"))?;
                    let body = &line[open..close];
                    for pair in body.split("],") {
                        let pair = pair.trim().trim_start_matches('[').trim_end_matches(']');
                        if pair.is_empty() {
                            continue;
                        }
                        let (i, c) = pair
                            .split_once(',')
                            .ok_or_else(|| malformed("bucket pair is not [index, count]"))?;
                        let i: usize = i
                            .trim()
                            .parse()
                            .map_err(|_| malformed("bucket index is not an integer"))?;
                        let c: u64 = c
                            .trim()
                            .parse()
                            .map_err(|_| malformed("bucket count is not an integer"))?;
                        if i >= NUM_BUCKETS {
                            return Err(malformed(&format!("bucket index {i} out of range")));
                        }
                        h.buckets[i].fetch_add(c, Ordering::Relaxed);
                    }
                }
            }
        }
    }
    Ok(merged.deterministic_jsonl(&bin, seed))
}

/// Rate-limited stderr progress reporter for long sweeps.
///
/// Replaces the sweep engine's hand-rolled `Progress` struct. The rate
/// limiter is seeded with the construction instant, so the *first*
/// completion only prints once the interval has elapsed (the old
/// behavior printed immediately, spamming stderr with one line per
/// point on sub-millisecond grids); the final completion always
/// prints.
#[derive(Debug)]
pub struct ProgressReporter {
    enabled: bool,
    total: usize,
    started: Instant,
    last_print: Instant,
    interval: Duration,
}

impl ProgressReporter {
    /// A reporter for `total` work items; `enabled = false` makes
    /// `update` a no-op.
    pub fn new(enabled: bool, total: usize) -> Self {
        let now = Instant::now();
        ProgressReporter {
            enabled,
            total,
            started: now,
            last_print: now,
            interval: Duration::from_millis(250),
        }
    }

    /// Reports `completed`/total with ETA, rate-limited to one line per
    /// interval; completion always prints.
    pub fn update(&mut self, completed: usize) {
        if let Some(line) = self.update_line(completed, Instant::now()) {
            eprintln!("{line}");
        }
    }

    /// The testable core of [`ProgressReporter::update`]: the line to
    /// print at `now`, if one is due.
    fn update_line(&mut self, completed: usize, now: Instant) -> Option<String> {
        if !self.enabled {
            return None;
        }
        let due = now.duration_since(self.last_print) >= self.interval;
        if !due && completed < self.total {
            return None;
        }
        self.last_print = now;
        let elapsed = now.duration_since(self.started).as_secs_f64();
        let eta = if completed > 0 && completed < self.total {
            let rate = elapsed / completed as f64;
            format!("{:.1}s", rate * (self.total - completed) as f64)
        } else if completed >= self.total {
            "done".to_string()
        } else {
            "?".to_string()
        };
        Some(format!(
            "sweep: {completed}/{} points ({:.0}%) elapsed {elapsed:.1}s eta {eta}",
            self.total,
            100.0 * completed as f64 / self.total.max(1) as f64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_exact() {
        // Zero gets its own bucket; powers of two open new buckets;
        // u64::MAX lands in the last one.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index((1 << 32) - 1), 32);
        assert_eq!(bucket_index(1 << 32), 33);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(1 << 63), NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_records_edge_values() {
        let rec = Recorder::attached();
        for v in [0, 1, 1, 7, u64::MAX] {
            rec.observe(Metric::DefectsPerLane, v);
        }
        let h = rec.hist(Metric::DefectsPerLane).unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(
            h.sum,
            0u64.wrapping_add(1)
                .wrapping_add(1)
                .wrapping_add(7)
                .wrapping_add(u64::MAX)
        );
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 2); // the two ones
        assert_eq!(h.buckets[3], 1); // 7 -> bucket 3 (4..=7)
        assert_eq!(h.buckets[NUM_BUCKETS - 1], 1); // u64::MAX
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        rec.add(Metric::SampleLanes, 5);
        rec.incr(Metric::SampleBatches);
        rec.gauge_max(Metric::UfOddClusterPeak, 9);
        rec.observe(Metric::DefectsPerLane, 3);
        drop(rec.span(Metric::DecodeNanos));
        assert_eq!(rec.value(Metric::SampleLanes), 0);
        assert_eq!(rec.value(Metric::UfOddClusterPeak), 0);
        assert!(rec.hist(Metric::DefectsPerLane).is_none());
        assert_eq!(rec.summary(), "");
        // The disabled report still carries the stable header + row set.
        let report = rec.deterministic_jsonl("test", 7);
        assert!(report.starts_with(&format!("{{\"schema\": \"{SCHEMA}\"")));
    }

    #[test]
    fn counters_and_gauges_reduce_commutatively() {
        let rec = Recorder::attached();
        let clone = rec.clone(); // shared storage
        rec.add(Metric::SweepShots, 100);
        clone.add(Metric::SweepShots, 23);
        rec.gauge_max(Metric::UfOddClusterPeak, 4);
        clone.gauge_max(Metric::UfOddClusterPeak, 2);
        assert_eq!(rec.value(Metric::SweepShots), 123);
        assert_eq!(rec.value(Metric::UfOddClusterPeak), 4);
    }

    #[test]
    fn span_records_elapsed_nanos() {
        let rec = Recorder::attached();
        {
            let _span = rec.span(Metric::DecodeNanos);
            std::hint::black_box(());
        }
        // Monotone clocks can report 0ns for an empty block; just check
        // that a longer busy-wait records *something*.
        let t0 = Instant::now();
        {
            let _span = rec.span(Metric::SampleNanos);
            while t0.elapsed() < Duration::from_micros(50) {
                std::hint::black_box(());
            }
        }
        assert!(rec.value(Metric::SampleNanos) > 0);
    }

    #[test]
    fn deterministic_report_excludes_runtime_metrics() {
        let rec = Recorder::attached();
        rec.add(Metric::SweepShots, 7);
        rec.add(Metric::SweepBusyNanos, 999); // runtime class
        let report = rec.deterministic_jsonl("unit", 1);
        assert!(report.contains("\"sweep.shots\""));
        assert!(!report.contains("worker_busy_nanos"));
        assert!(!report.contains("sweep.steals"));
        // Row set = header + every deterministic metric, always.
        let det_rows = Metric::ALL
            .iter()
            .filter(|m| m.class() == MetricClass::Deterministic)
            .count();
        assert_eq!(report.lines().count(), det_rows + 1);
    }

    #[test]
    fn deterministic_report_is_stable_across_equal_recordings() {
        let run = || {
            let rec = Recorder::attached();
            rec.add(Metric::SweepShots, 42);
            rec.observe(Metric::DefectsPerLane, 3);
            rec.observe(Metric::DefectsPerLane, 0);
            rec.deterministic_jsonl("unit", 9)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn metric_names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Metric::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate metric name");
        for m in Metric::ALL {
            assert!(m.name().contains('.'), "{} is not layer-dotted", m);
        }
    }

    #[test]
    fn sidecar_merge_matches_shared_recording() {
        // Shared-storage reference: one recorder sees all the work.
        let shared = Recorder::attached();
        shared.add(Metric::SweepShots, 100);
        shared.add(Metric::SweepShots, 23);
        shared.gauge_max(Metric::UfOddClusterPeak, 9);
        shared.gauge_max(Metric::UfOddClusterPeak, 4);
        shared.observe(Metric::DefectsPerLane, 3);
        shared.observe(Metric::DefectsPerLane, 0);
        shared.observe(Metric::DefectsPerLane, 1 << 40);

        // Two "shard processes" each serialize their own sidecar.
        let (a, b) = (Recorder::attached(), Recorder::attached());
        a.add(Metric::SweepShots, 100);
        b.add(Metric::SweepShots, 23);
        a.gauge_max(Metric::UfOddClusterPeak, 9);
        b.gauge_max(Metric::UfOddClusterPeak, 4);
        a.observe(Metric::DefectsPerLane, 3);
        b.observe(Metric::DefectsPerLane, 0);
        b.observe(Metric::DefectsPerLane, 1 << 40);
        let (doc_a, doc_b) = (
            a.deterministic_jsonl("fig11", 2020),
            b.deterministic_jsonl("fig11", 2020),
        );

        let merged = merge_deterministic_jsonl(&[&doc_a, &doc_b]).unwrap();
        assert_eq!(merged, shared.deterministic_jsonl("fig11", 2020));
        // Merging one document is the identity.
        assert_eq!(merge_deterministic_jsonl(&[&doc_a]).unwrap(), doc_a);
    }

    #[test]
    fn sidecar_merge_rejects_bad_inputs() {
        assert!(matches!(
            merge_deterministic_jsonl(&[]),
            Err(SidecarMergeError::Empty)
        ));
        let rec = Recorder::attached();
        let doc = rec.deterministic_jsonl("fig11", 1);
        let other_seed = rec.deterministic_jsonl("fig11", 2);
        assert!(matches!(
            merge_deterministic_jsonl(&[&doc, &other_seed]),
            Err(SidecarMergeError::HeaderMismatch { doc: 1 })
        ));
        let unknown = format!(
            "{}{{\"metric\": \"no.such_metric\", \"kind\": \"counter\", \"value\": 1}}\n",
            doc.lines().next().unwrap().to_owned() + "\n"
        );
        assert!(matches!(
            merge_deterministic_jsonl(&[&unknown]),
            Err(SidecarMergeError::UnknownMetric { doc: 0, .. })
        ));
        assert!(matches!(
            merge_deterministic_jsonl(&["not a header\n"]),
            Err(SidecarMergeError::Malformed {
                doc: 0,
                line: 0,
                ..
            })
        ));
    }

    #[test]
    fn progress_reporter_rate_limits_the_first_update() {
        let mut p = ProgressReporter::new(true, 100);
        let t0 = p.started;
        // Immediately after start: not due, even for the first update
        // (the old Progress struct printed here — the spam bug).
        assert!(p.update_line(1, t0 + Duration::from_millis(1)).is_none());
        // After the interval: due.
        let line = p.update_line(2, t0 + Duration::from_millis(300)).unwrap();
        assert!(line.contains("2/100"));
        // Within the interval of the last print: suppressed again.
        assert!(p.update_line(3, t0 + Duration::from_millis(301)).is_none());
        // Completion always prints.
        let done = p.update_line(100, t0 + Duration::from_millis(302)).unwrap();
        assert!(done.contains("eta done"));
        // Disabled reporter never prints.
        let mut off = ProgressReporter::new(false, 10);
        let t0 = off.started;
        assert!(off.update_line(10, t0 + Duration::from_secs(5)).is_none());
    }
}
