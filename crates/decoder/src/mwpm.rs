//! Minimum-weight perfect-matching decoder.
//!
//! Decodes a defect set on a [`DecodingGraph`]: Dijkstra shortest paths
//! give the pairwise defect distances (and each defect's distance to the
//! virtual boundary, plus the logical-observable parity along those
//! paths); exact minimum-weight perfect matching over the defects plus
//! mirrored boundary copies (the standard construction) selects the most
//! likely error. The decoder reports only what the harness needs: the
//! predicted logical flip.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use vlq_telemetry::{Metric, Recorder};

use crate::blossom::Matcher;
use crate::graph::{DecodingGraph, BOUNDARY};
use crate::{Decoder, DecoderScratch};

/// Fixed-point scale when converting float weights to integers for the
/// exact matcher.
const WEIGHT_SCALE: f64 = (1u64 << 20) as f64;

/// The MWPM decoder (the paper's maximum-likelihood matching decoder).
///
/// All-pairs shortest paths (distance and observable parity) are
/// precomputed at construction so that per-shot decoding reduces to one
/// exact matching over the defects.
#[derive(Clone, Debug)]
pub struct MwpmDecoder {
    adjacency: Vec<Vec<(usize, f64, bool)>>,
    num_nodes: usize,
    /// `(n+1) x (n+1)` distance table (last row/col = boundary).
    all_dist: Vec<f64>,
    /// Observable parity along those shortest paths.
    all_parity: Vec<bool>,
}

/// Reusable working set for [`MwpmDecoder::decode_detailed_with`]: the
/// defects' scaled boundary weights, the matching-instance edge buffer
/// and the blossom matcher's workspace, all refilled per decode. Once
/// they have grown to the largest defect count seen, decoding allocates
/// nothing.
#[derive(Debug, Default)]
pub struct MwpmScratch {
    boundary: Vec<i64>,
    edges: Vec<(usize, usize, i64)>,
    matcher: Matcher,
    /// Telemetry sink (disabled by default: one branch per record).
    recorder: Recorder,
}

impl MwpmScratch {
    /// Fresh (empty) scratch.
    pub fn new() -> Self {
        MwpmScratch::default()
    }

    /// Attaches a telemetry recorder; see [`DecoderScratch::set_recorder`].
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
    }
}

/// What one MWPM decode found.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MwpmOutcome {
    /// Predicted logical-observable flip.
    pub flip: bool,
    /// Total weight of the chosen matching (sum of shortest-path
    /// log-odds weights).
    pub weight: f64,
    /// The same total in the fixed-point units the matcher minimises:
    /// every matched edge's weight times 2^20, rounded.
    pub scaled_weight: i64,
}

/// Result of a Dijkstra run from one source.
struct ShortestPaths {
    /// `dist[node]`; last entry is the boundary.
    dist: Vec<f64>,
    /// Observable parity along the shortest path.
    parity: Vec<bool>,
}

impl MwpmDecoder {
    /// Builds a decoder for a sector graph, precomputing all-pairs
    /// shortest paths.
    pub fn new(graph: &DecodingGraph) -> Self {
        let mut dec = MwpmDecoder {
            adjacency: graph.adjacency(),
            num_nodes: graph.num_nodes(),
            all_dist: Vec::new(),
            all_parity: Vec::new(),
        };
        let n = dec.num_nodes;
        let stride = n + 1;
        dec.all_dist = vec![f64::INFINITY; stride * stride];
        dec.all_parity = vec![false; stride * stride];
        for src in 0..n {
            let sp = dec.shortest_paths(src);
            for node in 0..stride {
                dec.all_dist[src * stride + node] = sp.dist[node];
                dec.all_parity[src * stride + node] = sp.parity[node];
            }
        }
        dec
    }

    #[inline]
    fn dist_between(&self, a: usize, b: usize) -> f64 {
        self.all_dist[a * (self.num_nodes + 1) + b]
    }

    #[inline]
    fn parity_between(&self, a: usize, b: usize) -> bool {
        self.all_parity[a * (self.num_nodes + 1) + b]
    }

    /// Dijkstra from `src` over nodes `0..n` plus boundary node `n`.
    fn shortest_paths(&self, src: usize) -> ShortestPaths {
        let n = self.num_nodes;
        let boundary = n;
        let mut dist = vec![f64::INFINITY; n + 1];
        let mut parity = vec![false; n + 1];
        let mut done = vec![false; n + 1];
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
        dist[src] = 0.0;
        heap.push(HeapItem {
            dist: 0.0,
            node: src,
        });
        while let Some(HeapItem { dist: d, node }) = heap.pop() {
            if done[node] {
                continue;
            }
            done[node] = true;
            if node == boundary {
                continue; // paths through the boundary are not allowed
            }
            for &(nb, w, obs) in &self.adjacency[node] {
                let nb = if nb == BOUNDARY { boundary } else { nb };
                let nd = d + w;
                if nd < dist[nb] {
                    dist[nb] = nd;
                    parity[nb] = parity[node] ^ obs;
                    heap.push(HeapItem { dist: nd, node: nb });
                }
            }
        }
        ShortestPaths { dist, parity }
    }

    /// Decodes with full output: predicted observable flip and the total
    /// matching weight (useful for diagnostics and tests).
    pub fn decode_detailed(&self, defects: &[usize]) -> MwpmOutcome {
        self.decode_detailed_with(defects, &mut MwpmScratch::new())
    }

    /// [`MwpmDecoder::decode_detailed`] against caller-owned scratch:
    /// bit-identical output, with every buffer reused across calls.
    pub fn decode_detailed_with(
        &self,
        defects: &[usize],
        scratch: &mut MwpmScratch,
    ) -> MwpmOutcome {
        let m = defects.len();
        if m == 0 {
            return MwpmOutcome {
                flip: false,
                weight: 0.0,
                scaled_weight: 0,
            };
        }
        let boundary = self.num_nodes;
        let bnd = &mut scratch.boundary;
        bnd.clear();
        bnd.extend(
            defects
                .iter()
                .map(|&d| scale(self.dist_between(d, boundary))),
        );
        let edges = &mut scratch.edges;
        matching_instance(
            bnd,
            |i, j| scale(self.dist_between(defects[i], defects[j])),
            edges,
        );
        scratch.recorder.incr(Metric::MwpmBlossomCalls);
        scratch
            .recorder
            .add(Metric::MwpmMatchingEdges, edges.len() as u64);
        let mate = scratch
            .matcher
            .min_weight_perfect_matching(edges)
            .expect("decoding graph must admit a perfect matching");
        let mut flip = false;
        let mut total = 0.0;
        let mut scaled_total = 0;
        for i in 0..m {
            let partner = mate[i];
            let other = match partner.cmp(&m) {
                Ordering::Less if partner > i => defects[partner],
                Ordering::Less => continue,
                _ => {
                    // Matched to its boundary copy.
                    debug_assert_eq!(partner, m + i);
                    boundary
                }
            };
            flip ^= self.parity_between(defects[i], other);
            let w = self.dist_between(defects[i], other);
            total += w;
            scaled_total += scale(w);
        }
        MwpmOutcome {
            flip,
            weight: total,
            scaled_weight: scaled_total,
        }
    }
}

/// Fills `edges` with the matching instance of `bnd.len() = m` defects,
/// given each defect's scaled boundary weight `bnd[i]` and the scaled
/// weight `pair(i, j)` of each defect pair (`i < j`), either of them
/// [`UNREACHABLE`] when there is no path.
///
/// Nodes 0..m are defects, m..2m their boundary copies. Defect i joins
/// its own copy at weight b_i. Defects i and j join at weight w_ij,
/// mirrored by a zero-weight edge between their copies (the only way
/// copies pair up). A pair with w_ij > b_i + b_j is left out: sending
/// both defects to the boundary is strictly cheaper, so no minimum
/// matching of the complete instance (every copy pair joined) uses it,
/// and every one that uses only the kept pairs survives here. See
/// docs/perf.md, "MWPM matcher".
fn matching_instance(
    bnd: &[i64],
    pair: impl Fn(usize, usize) -> i64,
    edges: &mut Vec<(usize, usize, i64)>,
) {
    let m = bnd.len();
    edges.clear();
    for i in 0..m {
        for j in (i + 1)..m {
            let w = pair(i, j);
            if w != UNREACHABLE && w <= bnd[i] + bnd[j] {
                edges.push((i, j, w));
                edges.push((m + i, m + j, 0));
            }
        }
        if bnd[i] != UNREACHABLE {
            edges.push((i, m + i, bnd[i]));
        }
    }
}

/// Scaled weight of an infinite distance (no path). Two of them still
/// sum without overflow.
const UNREACHABLE: i64 = i64::MAX / 4;

/// A float weight in the matcher's fixed-point units.
fn scale(w: f64) -> i64 {
    if w.is_finite() {
        (w * WEIGHT_SCALE).round() as i64
    } else {
        UNREACHABLE
    }
}

impl Decoder for MwpmDecoder {
    fn decode(&self, defects: &[usize]) -> bool {
        self.decode_detailed(defects).flip
    }

    fn make_scratch(&self) -> DecoderScratch {
        DecoderScratch::Mwpm(Box::new(MwpmScratch::new()))
    }

    fn decode_batch(
        &self,
        defects_per_lane: &[Vec<usize>],
        scratch: &mut DecoderScratch,
        out: &mut [u64],
    ) {
        match scratch {
            DecoderScratch::Mwpm(s) => {
                // The span owns its own recorder handle, so the borrow
                // of `s` stays free for the per-lane decode loop.
                let _span = s.recorder.span(Metric::DecodeBatchNanos);
                let words = defects_per_lane.len().div_ceil(64);
                out[..words].fill(0);
                for (lane, defects) in defects_per_lane.iter().enumerate() {
                    if self.decode_detailed_with(defects, s).flip {
                        out[lane / 64] |= 1u64 << (lane % 64);
                    }
                }
            }
            _ => crate::decode_batch_fallback(self, defects_per_lane, out),
        }
    }
}

/// Max-heap item ordered by smallest distance first.
struct HeapItem {
    dist: f64,
    node: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap behavior.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DecodingGraph;
    use vlq_arch::params::HardwareParams;
    use vlq_circuit::noise::NoiseModel;
    use vlq_surface::schedule::{memory_circuit, Basis, MemorySpec, Setup};

    fn decoder_for(d: usize, p: f64) -> (MwpmDecoder, DecodingGraph) {
        let spec = MemorySpec::standard(Setup::Baseline, d, 1, Basis::Z);
        let mc = memory_circuit(spec, &HardwareParams::baseline());
        let noisy = NoiseModel::baseline_at_scale(p).apply(&mc.circuit);
        let g = DecodingGraph::build(&noisy, &mc.z_detectors);
        (MwpmDecoder::new(&g), g)
    }

    #[test]
    fn empty_defects_no_flip() {
        let (dec, _) = decoder_for(3, 1e-3);
        assert!(!dec.decode(&[]));
    }

    #[test]
    fn single_edge_defect_pairs_match_their_edge() {
        // For every edge (a, b) of the graph, decoding the defect set it
        // produces must predict exactly that edge's observable parity
        // (a single fault is its own most likely explanation).
        let (dec, g) = decoder_for(3, 1e-3);
        for (&(a, b), e) in g.iter_edges() {
            let defects: Vec<usize> = if b == crate::graph::BOUNDARY {
                vec![a]
            } else {
                vec![a, b]
            };
            let out = dec.decode_detailed(&defects);
            assert_eq!(
                out.flip, e.flips_observable,
                "edge ({a},{b}) decoded wrong parity"
            );
            assert!(out.weight <= e.weight + 1e-9, "matching found heavier path");
        }
    }

    #[test]
    fn two_far_defect_pairs_decode_independently() {
        let (dec, g) = decoder_for(5, 1e-3);
        // Pick two disjoint non-boundary edges far apart; decoding the
        // union must XOR their parities.
        let edges: Vec<(usize, usize, bool)> = g
            .iter_edges()
            .filter(|(&(_, b), _)| b != crate::graph::BOUNDARY)
            .map(|(&(a, b), e)| (a, b, e.flips_observable))
            .collect();
        let mut found = false;
        'outer: for &(a1, b1, o1) in &edges {
            for &(a2, b2, o2) in &edges {
                if [a2, b2].iter().any(|x| *x == a1 || *x == b1) {
                    continue;
                }
                let flip = dec.decode(&[a1, b1, a2, b2]);
                // The decoder may find a cheaper global pairing, but for
                // *some* disjoint pair choice the independent explanation
                // holds; assert at least one instance.
                if flip == (o1 ^ o2) {
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found);
    }

    #[test]
    fn decoding_is_deterministic() {
        let (dec, g) = decoder_for(3, 2e-3);
        let defects: Vec<usize> = (0..g.num_nodes().min(4)).collect();
        let a = dec.decode(&defects);
        for _ in 0..5 {
            assert_eq!(dec.decode(&defects), a);
        }
    }

    /// Minimum weight of a perfect matching of the complete instance
    /// (every pair of boundary copies joined at zero weight), by
    /// exhaustive search; `None` when it has no perfect matching.
    fn brute_force_complete(bnd: &[i64], pair: &[Vec<i64>]) -> Option<i64> {
        let m = bnd.len();
        let edge = |a: usize, b: usize| -> Option<i64> {
            match (a < m, b < m) {
                (true, true) => (pair[a][b] != UNREACHABLE).then_some(pair[a][b]),
                (true, false) => (b == a + m && bnd[a] != UNREACHABLE).then_some(bnd[a]),
                _ => Some(0),
            }
        };
        fn recur(used: &mut [bool], edge: &dyn Fn(usize, usize) -> Option<i64>) -> Option<i64> {
            let Some(a) = used.iter().position(|&u| !u) else {
                return Some(0);
            };
            used[a] = true;
            let mut best: Option<i64> = None;
            for b in a + 1..used.len() {
                if used[b] {
                    continue;
                }
                if let Some(w) = edge(a, b) {
                    used[b] = true;
                    if let Some(rest) = recur(used, edge) {
                        best = Some(best.map_or(w + rest, |x| x.min(w + rest)));
                    }
                    used[b] = false;
                }
            }
            used[a] = false;
            best
        }
        recur(&mut vec![false; 2 * m], &edge)
    }

    #[test]
    fn pruned_instance_keeps_the_complete_instance_optimum() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(14);
        let mut matcher = Matcher::new();
        let mut edges = Vec::new();
        let (mut pruned, mut unmatchable, mut cut_off) = (0, 0, 0);
        for trial in 0..1000 {
            // A small decoding-graph stand-in: nodes 0..nodes plus the
            // boundary node `nodes`, sparse edges of weight 1..=3 (so
            // equal-weight matchings are common), and shortest paths
            // that, as in the decoder, never pass through the boundary.
            // Nodes outside the boundary's component have no path to it.
            let nodes = rng.random_range(2..10usize);
            let mut dist = vec![vec![UNREACHABLE; nodes + 1]; nodes + 1];
            for a in 0..=nodes {
                dist[a][a] = 0;
                for b in a + 1..=nodes {
                    let p = if b == nodes { 0.5 } else { 0.35 };
                    if rng.random::<f64>() < p {
                        let w = rng.random_range(1..4i64);
                        dist[a][b] = w;
                        dist[b][a] = w;
                    }
                }
            }
            for k in 0..nodes {
                for a in 0..=nodes {
                    for b in 0..=nodes {
                        if dist[a][k] != UNREACHABLE && dist[k][b] != UNREACHABLE {
                            dist[a][b] = dist[a][b].min(dist[a][k] + dist[k][b]);
                        }
                    }
                }
            }
            let m = rng.random_range(1..=nodes.min(7));
            let mut defects: Vec<usize> = Vec::new();
            while defects.len() < m {
                let x = rng.random_range(0..nodes);
                if !defects.contains(&x) {
                    defects.push(x);
                }
            }
            let bnd: Vec<i64> = defects.iter().map(|&x| dist[x][nodes]).collect();
            let pair: Vec<Vec<i64>> = defects
                .iter()
                .map(|&x| defects.iter().map(|&y| dist[x][y]).collect())
                .collect();
            cut_off += bnd.iter().filter(|&&b| b == UNREACHABLE).count();
            matching_instance(&bnd, |i, j| pair[i][j], &mut edges);
            let kept = edges.iter().filter(|e| e.0 < m && e.1 < m).count();
            let reachable = (0..m)
                .flat_map(|i| (i + 1..m).map(move |j| (i, j)))
                .filter(|&(i, j)| pair[i][j] != UNREACHABLE)
                .count();
            pruned += reachable - kept;
            let got = match matcher.min_weight_perfect_matching(&edges) {
                Some(mate) if mate.len() == 2 * m => Some(
                    edges
                        .iter()
                        .filter(|&&(a, b, _)| mate[a] == b)
                        .map(|e| e.2)
                        .sum::<i64>(),
                ),
                _ => None,
            };
            let want = brute_force_complete(&bnd, &pair);
            unmatchable += usize::from(want.is_none());
            assert_eq!(
                got, want,
                "trial {trial}: boundary {bnd:?}, pairs {pair:?}, instance {edges:?}"
            );
        }
        // The instances exercised what they are for: pruned pairs,
        // defects cut off from the boundary, and unmatchable sets.
        assert!(pruned > 200, "only {pruned} pairs pruned");
        assert!(
            cut_off > 200,
            "only {cut_off} defects without a boundary path"
        );
        assert!(unmatchable > 0, "every instance had a perfect matching");
    }
}
