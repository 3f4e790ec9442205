//! Minimum-weight matching decoder.
//!
//! Decodes a defect set on a [`DecodingGraph`]: Dijkstra shortest paths
//! give the pairwise defect distances (and each defect's distance to the
//! virtual boundary, plus the logical-observable parity along those
//! paths). The most likely error pairs some defects along shortest paths
//! and sends the rest to the boundary, at least total weight. That
//! choice is solved exactly as a maximum-weight matching on the defects
//! alone: two defects join with the weight saved by pairing them rather
//! than sending both to the boundary, and a defect the matching leaves
//! unmatched goes to the boundary (see `gain_instance`). The decoder
//! reports only what the harness needs: the predicted logical flip.

use std::collections::BinaryHeap;

use vlq_telemetry::{Metric, Recorder};

use crate::blossom::Matcher;
use crate::graph::{DecodingGraph, Front};
use crate::{Decoder, DecoderScratch};

/// Fixed-point scale when converting float weights to integers for the
/// exact matcher.
const WEIGHT_SCALE: f64 = (1u64 << 20) as f64;

/// Largest gain handed to the matcher. It compares doubled weights with
/// sums of doubled duals, so a few such terms must add up inside `i64`.
const MAX_GAIN: i64 = i64::MAX / 64;

/// The MWPM decoder (the paper's maximum-likelihood matching decoder).
///
/// All-pairs shortest paths (distance and observable parity) are
/// precomputed at construction so that per-shot decoding reduces to one
/// exact matching over the defects.
#[derive(Clone, Debug)]
pub struct MwpmDecoder {
    num_nodes: usize,
    /// `(n+1) x (n+1)` distance table (last row/col = boundary).
    all_dist: Vec<f64>,
    /// Observable parity along those shortest paths.
    all_parity: Vec<bool>,
}

/// Reusable working set for [`MwpmDecoder::decode_detailed_with`]: the
/// defects' scaled boundary weights, the gain instance's edge buffer
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
    /// The same total in the fixed-point units the matching minimises:
    /// every chosen path's weight times 2^20, rounded.
    pub scaled_weight: i64,
}

impl MwpmDecoder {
    /// Builds a decoder for a sector graph, precomputing all-pairs
    /// shortest paths: one Dijkstra per detector on the graph's CSR,
    /// written straight into that detector's table rows.
    ///
    /// # Panics
    ///
    /// Panics if an edge weight is too large for exact integer matching
    /// on this many detectors (see `max_path_weight`; no real decoding
    /// graph comes near).
    pub fn new(graph: &DecodingGraph) -> Self {
        let (csr, n) = (graph.csr(), graph.num_nodes());
        let heaviest = csr.arcs.iter().fold(0.0f64, |h, arc| h.max(arc.w));
        // A shortest path has at most n edges; twice their weight bound
        // leaves room for float rounding in Dijkstra's sums.
        assert!(
            scale(2.0 * n as f64 * heaviest) <= max_path_weight(n),
            "edge weight {heaviest} too large for exact matching on {n} detectors"
        );
        let stride = n + 1;
        let mut all_dist = vec![f64::INFINITY; stride * stride];
        let mut all_parity = vec![false; stride * stride];
        let rows = all_dist
            .chunks_exact_mut(stride)
            .zip(all_parity.chunks_exact_mut(stride));
        let mut heap = BinaryHeap::new();
        for (src, (dist, parity)) in rows.take(n).enumerate() {
            dist[src] = 0.0;
            heap.push(Front::new(0.0, src as u32, src as u32));
            while let Some(front) = heap.pop() {
                let (d, node) = (f64::from_bits(front.dist_bits), front.node as usize);
                // Pushes only lower a node's distance, so its first pop
                // carries it and any later one is stale.
                if d > dist[node] {
                    continue;
                }
                for arc in csr.arcs_of(node) {
                    let (to, nd) = (arc.to as usize, d + arc.w);
                    if nd < dist[to] {
                        (dist[to], parity[to]) = (nd, parity[node] ^ arc.obs);
                        heap.push(Front::new(nd, arc.to, front.src));
                    }
                }
            }
        }
        MwpmDecoder {
            num_nodes: n,
            all_dist,
            all_parity,
        }
    }

    #[inline]
    fn dist_between(&self, a: usize, b: usize) -> f64 {
        self.all_dist[a * (self.num_nodes + 1) + b]
    }

    #[inline]
    fn parity_between(&self, a: usize, b: usize) -> bool {
        self.all_parity[a * (self.num_nodes + 1) + b]
    }

    /// Decodes with full output: predicted observable flip and the total
    /// matching weight (useful for diagnostics and tests).
    pub fn decode_detailed(&self, defects: &[usize]) -> MwpmOutcome {
        self.decode_detailed_with(defects, &mut MwpmScratch::new())
    }

    /// [`MwpmDecoder::decode_detailed`] against caller-owned scratch:
    /// bit-identical output, with every buffer reused across calls.
    ///
    /// `defects` are distinct detector indices.
    ///
    /// # Panics
    ///
    /// Panics if some defects have no path to the boundary and cannot
    /// all be paired with each other.
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
        gain_instance(
            bnd,
            |i, j| scale(self.dist_between(defects[i], defects[j])),
            edges,
        );
        // Without a positive-gain pair every defect goes to the boundary.
        let matcher = if edges.is_empty() {
            None
        } else {
            scratch.recorder.incr(Metric::MwpmBlossomCalls);
            scratch
                .recorder
                .add(Metric::MwpmMatchingEdges, edges.len() as u64);
            scratch.matcher.max_weight_matching(edges);
            Some(&scratch.matcher)
        };
        let mut flip = false;
        let mut total = 0.0;
        let mut scaled_total = 0;
        for i in 0..m {
            let other = match matcher.and_then(|mt| mt.mate(i)) {
                Some(j) if j > i => defects[j],
                Some(_) => continue,
                None => boundary,
            };
            // Only finite pairs are edges, so an infinite leg is a defect
            // cut off from the boundary that no matching could pair.
            let w = self.dist_between(defects[i], other);
            assert!(
                w.is_finite(),
                "decoding graph must admit a perfect matching"
            );
            flip ^= self.parity_between(defects[i], other);
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

/// Fills `edges` with the gain instance of `bnd.len() = m` defects, given
/// each defect's scaled boundary weight `bnd[i]` and the scaled weight
/// `pair(i, j)` of each defect pair (`i < j`), either of them
/// [`UNREACHABLE`] when there is no path.
///
/// The nodes are the defects 0..m. Defects i and j join with gain
/// g_ij = b_i + b_j − w_ij when that is positive. A matching M (not
/// necessarily perfect) pairs its defects and sends the rest to the
/// boundary, at cost Σ_M w_ij + Σ_{i∉M} b_i = Σ_i b_i − Σ_M g_ij, so a
/// maximum-weight matching is a minimum-cost decoding, and leaving out a
/// pair with g_ij ≤ 0 never lowers the best gain. Pairs with no path get
/// no edge. A defect cut off from the boundary has its `bnd` entry
/// replaced by [`big_m`]'s weight, so the optimum pairs every such
/// defect whenever some matching can. See docs/perf.md, "MWPM matcher".
fn gain_instance(
    bnd: &mut [i64],
    pair: impl Fn(usize, usize) -> i64,
    edges: &mut Vec<(usize, usize, i64)>,
) {
    let m = bnd.len();
    if bnd.contains(&UNREACHABLE) {
        let big = big_m(bnd, &pair);
        for b in bnd.iter_mut().filter(|b| **b == UNREACHABLE) {
            *b = big;
        }
    }
    edges.clear();
    for i in 0..m {
        for j in (i + 1)..m {
            let w = pair(i, j);
            if w != UNREACHABLE && bnd[i] + bnd[j] > w {
                edges.push((i, j, bnd[i] + bnd[j] - w));
            }
        }
    }
}

/// The boundary weight [`gain_instance`] gives defects cut off from the
/// boundary: 1 + Σ of the finite b_i + ⌊m/2⌋ × the largest finite w_ij.
/// Every decoding that pairs all cut-off defects costs less than that
/// (weights are ≥ 0), and every one that leaves one unmatched costs at
/// least that, so the optimum pairs them all whenever it can.
fn big_m(bnd: &[i64], pair: impl Fn(usize, usize) -> i64) -> i64 {
    let m = bnd.len();
    let mut widest = 0;
    for i in 0..m {
        for j in (i + 1)..m {
            let w = pair(i, j);
            if w != UNREACHABLE {
                widest = widest.max(w);
            }
        }
    }
    let finite: i64 = bnd.iter().filter(|&&b| b != UNREACHABLE).sum();
    1 + finite + (m / 2) as i64 * widest
}

/// Largest finite scaled path weight D a decoder on `n` detectors
/// accepts. A shot has m ≤ n distinct defects, so its [`big_m`] weight
/// is at most 1 + (m + ⌊m/2⌋)·D, and its largest gain, less than two of
/// those, stays within [`MAX_GAIN`].
fn max_path_weight(n: usize) -> i64 {
    let legs = i64::try_from(n + n / 2).unwrap_or(i64::MAX).max(1);
    (MAX_GAIN / 2 - 1) / legs
}

/// Scaled weight of an infinite distance (no path), above every finite
/// weight a decoder accepts (see [`max_path_weight`]).
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
    fn decode_in(&self, defects: &[usize], scratch: &mut DecoderScratch) -> bool {
        self.decode_detailed_with(defects, &mut scratch.mwpm).flip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BOUNDARY;
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

    /// Optimum of the gain instance the decoder builds for these
    /// boundary and pair weights, read out as the decoder does: matched
    /// pairs at w_ij, unmatched defects at b_i. `None` when a defect cut
    /// off from the boundary is left unmatched. Also returns the number
    /// of edges handed to the matcher.
    fn solve_gain_instance(
        bnd: &[i64],
        pair: &[Vec<i64>],
        matcher: &mut Matcher,
        edges: &mut Vec<(usize, usize, i64)>,
    ) -> (Option<i64>, usize) {
        let mut gains = bnd.to_vec();
        gain_instance(&mut gains, |i, j| pair[i][j], edges);
        assert!(
            edges
                .iter()
                .all(|&(i, j, g)| i < j && g > 0 && g <= MAX_GAIN),
            "gain instance {edges:?}"
        );
        matcher.max_weight_matching(edges);
        let mut cost = 0;
        for i in 0..bnd.len() {
            match matcher.mate(i) {
                Some(j) if j > i => cost += pair[i][j],
                Some(_) => {}
                None if bnd[i] == UNREACHABLE => return (None, edges.len()),
                None => cost += bnd[i],
            }
        }
        (Some(cost), edges.len())
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
            let (got, kept) = solve_gain_instance(&bnd, &pair, &mut matcher, &mut edges);
            let reachable = (0..m)
                .flat_map(|i| (i + 1..m).map(move |j| (i, j)))
                .filter(|&(i, j)| pair[i][j] != UNREACHABLE)
                .count();
            pruned += reachable - kept;
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

    /// The big-M weight at the largest path weight the decoder accepts:
    /// every defect (or some) cut off from the boundary, every finite
    /// weight within 3 of `max_path_weight(m)`, so gains reach about
    /// `MAX_GAIN`. The optimum must still equal brute force, which in a
    /// release build (overflow checks off) also catches silent overflow.
    #[test]
    fn big_m_is_exact_at_the_largest_accepted_weights() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(4330);
        let mut matcher = Matcher::new();
        let mut edges = Vec::new();
        let (mut all_cut_off, mut unmatchable, mut top_gain) = (0, 0, 0);
        for trial in 0..500 {
            let m = rng.random_range(1..=8usize);
            let top = max_path_weight(m);
            let every = trial % 2 == 0;
            let bnd: Vec<i64> = (0..m)
                .map(|_| {
                    if every || rng.random::<f64>() < 0.5 {
                        UNREACHABLE
                    } else {
                        top - rng.random_range(0..4i64)
                    }
                })
                .collect();
            let mut pair = vec![vec![0; m]; m];
            for i in 0..m {
                for j in i + 1..m {
                    let w = if rng.random::<f64>() < 0.8 {
                        top - rng.random_range(0..4i64)
                    } else {
                        UNREACHABLE
                    };
                    pair[i][j] = w;
                    pair[j][i] = w;
                }
            }
            all_cut_off += usize::from(bnd.iter().all(|&b| b == UNREACHABLE));
            let (got, _) = solve_gain_instance(&bnd, &pair, &mut matcher, &mut edges);
            top_gain = edges.iter().map(|e| e.2).fold(top_gain, i64::max);
            let want = brute_force_complete(&bnd, &pair);
            unmatchable += usize::from(want.is_none());
            assert_eq!(
                got, want,
                "trial {trial}: boundary {bnd:?}, pairs {pair:?}, instance {edges:?}"
            );
        }
        assert!(all_cut_off >= 250, "only {all_cut_off} all-cut-off shots");
        assert!(unmatchable > 50, "only {unmatchable} unmatchable shots");
        assert!(
            top_gain > MAX_GAIN / 2,
            "largest gain {top_gain} far below MAX_GAIN"
        );
    }

    /// Nodes 0, 1, 2 form a triangle with no path to the boundary
    /// (0–1 at 3, 0–2 and 1–2 at 1, the 0–2 edge flipping the
    /// observable); node 3 has a boundary edge at 1 that flips it.
    fn cut_off_triangle() -> MwpmDecoder {
        MwpmDecoder::new(&DecodingGraph::from_edges(
            4,
            &[
                (0, 1, 3.0, false),
                (0, 2, 1.0, true),
                (1, 2, 1.0, false),
                (3, BOUNDARY, 1.0, true),
            ],
        ))
    }

    #[test]
    fn cut_off_defects_pair_with_each_other() {
        let dec = cut_off_triangle();
        let out = dec.decode_detailed(&[0, 1]);
        assert_eq!((out.flip, out.weight), (true, 2.0));
        // Node 3 has no path to the triangle, so it goes to the boundary.
        let out = dec.decode_detailed(&[0, 3, 1]);
        assert_eq!((out.flip, out.weight), (false, 3.0));
        assert_eq!(out.scaled_weight, 3 << 20);
    }

    /// Three defects cut off from the boundary cannot all pair: no
    /// decoding explains them.
    #[test]
    #[should_panic(expected = "decoding graph must admit a perfect matching")]
    fn perfect_matching_impossible() {
        cut_off_triangle().decode(&[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "too large for exact matching")]
    fn overflowing_weights_are_rejected() {
        MwpmDecoder::new(&DecodingGraph::from_edges(1, &[(0, BOUNDARY, 1e12, false)]));
    }
}
