//! Decoders for the VLQ reproduction.
//!
//! The decoding pipeline mirrors the modern detector-error-model
//! approach:
//!
//! 1. [`graph`] builds a per-sector matching graph by enumerating every
//!    possible single fault of the noisy circuit and recording which
//!    detectors (and logical observables) it flips — read from one
//!    backward sensitivity pass — with edge weights `ln((1-p)/p)`.
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

/// Reusable decoder working memory, owned by the caller and threaded
/// through [`Decoder::decode_batch`] so per-shot arrays are reset and
/// reused across the lanes of a batch (and across batches) instead of
/// reallocated per decode.
///
/// A closed enum rather than an associated type so batch callers can
/// hold scratch for `dyn Decoder` trait objects. Mismatched scratch
/// (wrong variant or built for a different graph) is never an error:
/// implementations fall back to the plain per-lane path.
#[derive(Debug, Default)]
pub enum DecoderScratch {
    /// For decoders without a native batch path.
    #[default]
    None,
    /// [`unionfind::UnionFindDecoder`] working set (boxed, like the
    /// MWPM one: both are large, and scratch lives behind one allocation
    /// per decoder for a whole run).
    UnionFind(Box<unionfind::UfScratch>),
    /// [`mwpm::MwpmDecoder`] working set.
    Mwpm(Box<mwpm::MwpmScratch>),
}

impl DecoderScratch {
    /// Attaches a telemetry recorder to the scratch: native batch
    /// decodes report growth/matching statistics and `decode_batch`
    /// span timings through it. Recording never changes predictions,
    /// and an attached recorder keeps the batch path allocation-free
    /// (the handle is an `Arc` clone; all recording is atomic ops).
    pub fn set_recorder(&mut self, recorder: &vlq_telemetry::Recorder) {
        match self {
            DecoderScratch::None => {}
            DecoderScratch::UnionFind(s) => s.set_recorder(recorder),
            DecoderScratch::Mwpm(s) => s.set_recorder(recorder),
        }
    }
}

/// Common interface for sector decoders: given the defect list (indices
/// into the sector's detector set), predict whether the logical
/// observable flipped.
pub trait Decoder {
    /// Predicts the observable flip for a defect set.
    fn decode(&self, defects: &[usize]) -> bool;

    /// Creates the scratch this decoder's [`Decoder::decode_batch`]
    /// expects.
    fn make_scratch(&self) -> DecoderScratch {
        DecoderScratch::None
    }

    /// Decodes one defect list per lane into packed prediction words:
    /// bit `l` of `out` is set when lane `l`'s predicted observable
    /// flipped. Overwrites `out[..defects_per_lane.len().div_ceil(64)]`.
    ///
    /// Results are bit-identical to calling [`Decoder::decode`] per
    /// lane; the default implementation does exactly that. Native
    /// implementations reuse `scratch` across lanes.
    fn decode_batch(
        &self,
        defects_per_lane: &[Vec<usize>],
        scratch: &mut DecoderScratch,
        out: &mut [u64],
    ) {
        let _ = scratch;
        decode_batch_fallback(self, defects_per_lane, out);
    }
}

/// The per-lane `decode` loop shared by the trait default and the
/// scratch-mismatch fallbacks of native `decode_batch` impls.
pub(crate) fn decode_batch_fallback<D: Decoder + ?Sized>(
    decoder: &D,
    defects_per_lane: &[Vec<usize>],
    out: &mut [u64],
) {
    let words = defects_per_lane.len().div_ceil(64);
    out[..words].fill(0);
    for (lane, defects) in defects_per_lane.iter().enumerate() {
        if decoder.decode(defects) {
            out[lane / 64] |= 1u64 << (lane % 64);
        }
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
