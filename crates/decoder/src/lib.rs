//! Decoders for the VLQ reproduction.
//!
//! The decoding pipeline mirrors the modern detector-error-model
//! approach:
//!
//! 1. [`graph`] builds a per-sector matching graph by enumerating every
//!    possible single fault of the noisy circuit and recording which
//!    detectors (and logical observables) it flips — read from one
//!    backward sensitivity pass — with edge weights `ln((1-p)/p)`. It
//!    lays out, once, the one adjacency both decoders read.
//! 2. [`mwpm`] decodes a defect set by Dijkstra distances on that graph
//!    followed by an exact minimum-weight matching — the paper's "usual
//!    maximum likelihood \[matching\] decoder". It is solved as a
//!    maximum-weight matching ([`blossom`]) on the defects alone, where
//!    two defects join with the weight saved by pairing them instead of
//!    sending both to the boundary, and unmatched defects go to the
//!    boundary.
//! 3. [`unionfind`] is the fast alternative prog1 and tenants1 use by
//!    default: multi-source first-contact growth, a global stop once no
//!    odd cluster remains, and greedy pairing along the contacts. It is
//!    not Delfosse–Nickerson union-find and has no threshold (from d = 3
//!    to 11 at p = 5e-3, MWPM 1.13e-1 → 2.29e-2, UF 1.20e-1 → 3.77e-1);
//!    see ROADMAP.md, "A real union-find decoder".

pub mod blossom;
pub mod graph;
pub mod mwpm;
pub mod unionfind;

pub use graph::{DecodingGraph, GraphEdge};
pub use mwpm::{MwpmDecoder, MwpmOutcome, MwpmScratch};
pub use unionfind::{UfScratch, UnionFindDecoder};

use vlq_circuit::exec::for_each_set_lane;
use vlq_telemetry::{Metric, Recorder};

/// Reusable decoder working memory: every decoder's buffers, owned by
/// the caller and threaded through [`Decoder::decode_in`] so per-shot
/// arrays are reset and reused across the lanes of a batch (and across
/// batches) instead of reallocated per decode.
///
/// The buffers are plain: each grows to fit the largest graph or defect
/// list decoded in it, and each decode resets what it reads, so one
/// scratch serves any decoder on any graph, in any order, with the
/// results a fresh scratch would give.
#[derive(Debug, Default)]
pub struct DecoderScratch {
    uf: UfScratch,
    mwpm: MwpmScratch,
    /// Telemetry sink of [`Decoder::decode_batch`]'s span.
    recorder: Recorder,
}

impl DecoderScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry recorder to the scratch: decodes report
    /// growth/matching statistics and `decode_batch` span timings
    /// through it. Recording never changes predictions, and an attached
    /// recorder keeps the batch path allocation-free (the handle is an
    /// `Arc` clone; all recording is atomic ops).
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.uf.set_recorder(recorder);
        self.mwpm.set_recorder(recorder);
        self.recorder = recorder.clone();
    }
}

/// Common interface for sector decoders: given the defect list (indices
/// into the sector's detector set), predict whether the logical
/// observable flipped.
pub trait Decoder {
    /// Predicts the observable flip for one defect list, working in
    /// `scratch`'s buffers for this decoder.
    fn decode_in(&self, defects: &[usize], scratch: &mut DecoderScratch) -> bool;

    /// Predicts the observable flip for a defect set, in fresh scratch.
    fn decode(&self, defects: &[usize]) -> bool {
        self.decode_in(defects, &mut DecoderScratch::new())
    }

    /// Decodes one defect list per lane into packed prediction words:
    /// bit `l` of `out` is set when lane `l`'s predicted observable
    /// flipped. Overwrites `out[..defects_per_lane.len().div_ceil(64)]`.
    ///
    /// `live` marks, one bit per lane in the same packing, the lanes to
    /// decode; it must mark every lane whose list is not empty
    /// ([`BatchResult::defect_lists_into`] fills such a mask) and no
    /// lane past the last. Only marked lanes are decoded, each in
    /// `scratch`, so its buffers are reused across lanes and calls. An
    /// unmarked lane predicts no flip, as decoding its empty list does,
    /// and records nothing.
    ///
    /// [`BatchResult::defect_lists_into`]: vlq_circuit::exec::BatchResult::defect_lists_into
    fn decode_batch(
        &self,
        defects_per_lane: &[Vec<usize>],
        live: &[u64],
        scratch: &mut DecoderScratch,
        out: &mut [u64],
    ) {
        // The span owns its own recorder handle, so the borrow of
        // `scratch` stays free for the per-lane decode loop.
        let _span = scratch.recorder.span(Metric::DecodeBatchNanos);
        let words = defects_per_lane.len().div_ceil(64);
        debug_assert!(
            defects_per_lane
                .iter()
                .enumerate()
                .all(|(l, defects)| defects.is_empty() || live[l / 64] >> (l % 64) & 1 == 1),
            "a lane with defects is not marked live"
        );
        out[..words].fill(0);
        for_each_set_lane(&live[..words], |lane| {
            if self.decode_in(&defects_per_lane[lane], scratch) {
                out[lane / 64] |= 1u64 << (lane % 64);
            }
        });
    }
}

/// Registry of the available decoder implementations.
///
/// This is the single construction seam: every consumer (the `vlq-qec`
/// Monte-Carlo harness, the figure binaries, the ablation benches) turns
/// a `DecoderKind` into a concrete decoder through [`DecoderKind::build`],
/// so adding a decoder means implementing [`Decoder`] and extending this
/// enum — no downstream matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DecoderKind {
    /// Exact minimum-weight perfect matching (paper default).
    #[default]
    Mwpm,
    /// First-contact cluster growth with greedy pairing ("union-find";
    /// fast, approximate, no threshold).
    UnionFind,
}

impl DecoderKind {
    /// Every registered decoder, in ablation order.
    pub const ALL: [DecoderKind; 2] = [DecoderKind::Mwpm, DecoderKind::UnionFind];

    /// Short stable name (used by CLI flags and report tables).
    pub fn name(self) -> &'static str {
        match self {
            DecoderKind::Mwpm => "mwpm",
            DecoderKind::UnionFind => "union-find",
        }
    }

    /// Parses the names accepted by the figure binaries' `--decoder` flag.
    pub fn parse(s: &str) -> Option<DecoderKind> {
        match s.to_ascii_lowercase().as_str() {
            "mwpm" | "blossom" | "matching" => Some(DecoderKind::Mwpm),
            "uf" | "unionfind" | "union-find" => Some(DecoderKind::UnionFind),
            _ => None,
        }
    }

    /// Constructs the decoder for a built decoding graph.
    pub fn build(self, graph: &DecodingGraph) -> Box<dyn Decoder + Send + Sync> {
        match self {
            DecoderKind::Mwpm => Box::new(MwpmDecoder::new(graph)),
            DecoderKind::UnionFind => Box::new(UnionFindDecoder::new(graph)),
        }
    }
}

impl std::fmt::Display for DecoderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
