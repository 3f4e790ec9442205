//! The "union-find" decoder: first-contact cluster growth with greedy
//! pairing.
//!
//! 1. **Multi-source first-contact growth.** One heap grows every
//!    defect's cluster in order of path weight; the first front to reach
//!    a node claims it. Reaching another cluster's node merges the two
//!    at once and records the contact; reaching the boundary makes a
//!    cluster neutral.
//! 2. **Global stop** once no odd, boundary-free cluster remains.
//! 3. **Greedy pairing along the contacts,** cheapest first; leftover
//!    defects go to the boundary.
//!
//! This is not Delfosse–Nickerson union-find (arXiv:1709.06218), and it
//! has no threshold: on shared baseline syndromes at p = 5e-3, MWPM's
//! logical error rate falls from 1.13e-1 at d = 3 to 2.29e-2 at d = 11
//! while this decoder's rises from 1.20e-1 to 3.77e-1. ROADMAP.md's item
//! "A real union-find decoder" tracks its replacement.
//!
//! State is flat: the graph's own CSR arcs, with the boundary as node
//! `n`, node records reset through a touched list, one contact list, and
//! boundary parities built once in [`UnionFindDecoder::new`].
//! `docs/perf.md` ("Union-find hot path") argues why it decodes exactly
//! like the code it replaced.
//!
//! [`UnionFindDecoder::new`] also decodes every single-edge syndrome once
//! with the growth code below: `[v]` for each node with a boundary edge,
//! and `[a, b]` with `a < b` for each interior edge. Those defect lists
//! are then answered from the table, with the same prediction and the
//! same telemetry counters; every other list grows. `docs/perf.md`
//! ("Frame replay hot path") gives the numbers.

use std::collections::BinaryHeap;

use vlq_telemetry::{Metric, Recorder};

use crate::graph::{Csr, DecodingGraph, Front};
use crate::{Decoder, DecoderScratch};

/// An unclaimed node's owner, and a non-defect's list position.
const NONE: u32 = u32::MAX;

/// The union-find decoder.
#[derive(Clone, Debug)]
pub struct UnionFindDecoder {
    num_nodes: usize,
    /// The graph's adjacency; the boundary is node `num_nodes`.
    csr: Csr,
    /// Observable parity of each node's shortest path to the boundary
    /// (false when the boundary is unreachable).
    boundary_parity: Vec<bool>,
    /// Parallel to the arcs: for an arc from `a` to a higher node `b` (the
    /// boundary included), the decode of the single-edge syndrome `[a, b]`
    /// (`[a]` when `b` is the boundary). Unused for arcs to lower nodes.
    known: Vec<Known>,
}

/// One decode's prediction and its three telemetry counters.
#[derive(Clone, Copy, Debug, Default)]
struct Known {
    flip: bool,
    growth_steps: u32,
    touched: u32,
    odd_peak: u32,
}

/// Per-node decode state. `parity` and `boundary` are read at cluster
/// roots only.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// Growth distance from the owning defect.
    dist: f64,
    /// Union-find parent; set when the node is claimed.
    parent: u32,
    /// The defect whose front claimed the node, or [`NONE`].
    owner: u32,
    /// A defect's first position in the defect list, or [`NONE`].
    pos: u32,
    /// Defect-count parity of the cluster.
    parity: bool,
    /// Whether the cluster has reached the boundary.
    boundary: bool,
    /// Observable parity of the growth path from the owner.
    path_parity: bool,
    /// A defect not yet paired.
    unpaired: bool,
}

impl Node {
    const FREE: Node = Node {
        dist: f64::INFINITY,
        parent: NONE,
        owner: NONE,
        pos: NONE,
        parity: false,
        boundary: false,
        path_parity: false,
        unpaired: false,
    };
}

/// One cluster merge: the defects whose fronts met, and their path.
#[derive(Clone, Copy, Debug)]
struct Contact {
    /// Pairing order, unique: the path distance's bits, then the first
    /// list position of `lo` (high half) and the contact's index (low).
    key: (u64, u64),
    lo: u32,
    hi: u32,
    /// Observable parity of the defect-to-defect path.
    parity: bool,
}

/// Reusable working set for [`UnionFindDecoder::decode_with`]: plain
/// buffers that serve a decoder on any graph. On its first decode on a
/// graph of `n` detectors it grows to `n + 1` node records (node `n` is
/// the virtual boundary) and its other buffers to their bound for
/// distinct defects (a node is touched and pushed at most once, a
/// contact merges two clusters), so later decodes on that graph or a
/// smaller one never grow it.
#[derive(Debug, Default)]
pub struct UfScratch {
    /// Node records; every one is `Node::FREE` after a reset.
    nodes: Vec<Node>,
    heap: BinaryHeap<Front>,
    /// Every merge of the current decode, in the order it happened.
    contacts: Vec<Contact>,
    /// Clusters that are odd and boundary-free: zero exactly when every
    /// cluster is neutral, so growth stops without a defect re-scan.
    odd_clusters: usize,
    /// Nodes dirtied by the current decode; reset walks only these.
    touched: Vec<u32>,
    /// Telemetry sink (disabled by default: one branch per record).
    recorder: Recorder,
}

impl UfScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a telemetry recorder; see [`DecoderScratch::set_recorder`].
    pub fn set_recorder(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
    }

    /// Frees only the records the previous decode touched, then grows
    /// the buffers to fit a graph of `n` detectors.
    fn reset(&mut self, n: usize) {
        for &t in &self.touched {
            self.nodes[t as usize] = Node::FREE;
        }
        self.touched.clear();
        self.heap.clear();
        self.contacts.clear();
        self.odd_clusters = 0;
        if self.nodes.len() <= n {
            self.fit(n);
        }
    }

    /// Grows the buffers for a graph of `n` detectors, larger than any
    /// before. Cold: it runs once per graph size, outside the decode's
    /// hot body.
    #[cold]
    fn fit(&mut self, n: usize) {
        self.nodes.resize(n + 1, Node::FREE);
        self.heap.reserve(n + 1);
        self.contacts.reserve(n);
        self.touched.reserve(n + 1);
    }

    /// The root of `x`'s cluster, compressing the path to it.
    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.nodes[root as usize].parent != root {
            root = self.nodes[root as usize].parent;
        }
        let mut x = x;
        while x != root {
            x = std::mem::replace(&mut self.nodes[x as usize].parent, root);
        }
        root
    }

    /// Hangs root `other` below root `root`.
    fn merge(&mut self, root: u32, other: u32) {
        let odd = |n: &Node| usize::from(n.parity && !n.boundary);
        let (a, b) = (self.nodes[root as usize], self.nodes[other as usize]);
        self.nodes[other as usize].parent = root;
        let merged = &mut self.nodes[root as usize];
        merged.parity = a.parity ^ b.parity;
        merged.boundary = a.boundary || b.boundary;
        // Every still-odd root is counted, so the subtraction is safe.
        self.odd_clusters -= odd(&a) + odd(&b);
        self.odd_clusters += odd(merged);
    }
}

impl UnionFindDecoder {
    /// Builds a decoder for a sector graph, on a clone of its CSR. The
    /// graph's layout already asserts what growth needs: finite weights
    /// ≥ 0 (it orders distances by their bits) and ids below `u32::MAX`.
    pub fn new(graph: &DecodingGraph) -> Self {
        let mut decoder = UnionFindDecoder {
            num_nodes: graph.num_nodes(),
            csr: graph.csr().clone(),
            boundary_parity: Vec::new(),
            known: Vec::new(),
        };
        decoder.boundary_parity = decoder.boundary_parities();
        decoder.known = decoder.single_edge_decodes();
        decoder
    }

    /// Grows and pairs every single-edge syndrome once (one growth step
    /// each): the table [`UnionFindDecoder::decode_with`] answers from.
    fn single_edge_decodes(&self) -> Vec<Known> {
        let mut scratch = UfScratch::new();
        let mut known = vec![Known::default(); self.csr.arcs.len()];
        for a in 0..self.num_nodes {
            for i in self.csr.first[a] as usize..self.csr.first[a + 1] as usize {
                let b = self.csr.arcs[i].to as usize;
                if b > a {
                    let pair = [a, b];
                    let defects = if b == self.num_nodes {
                        &pair[..1]
                    } else {
                        &pair
                    };
                    known[i] = self.grow_and_pair(defects, &mut scratch);
                }
            }
        }
        known
    }

    /// The table's decode of `defects`, if it is a single-edge syndrome:
    /// `[v]` for a node with a boundary edge, or `[a, b]` with `a < b`
    /// joined by an edge. Unsorted or repeated lists, non-edge pairs and
    /// longer lists are not in the table: their pairing depends on list
    /// order, or they take more than one growth step.
    fn single_edge(&self, defects: &[usize]) -> Option<Known> {
        let (a, b) = match *defects {
            [v] => (v, self.num_nodes),
            [a, b] if a < b && b < self.num_nodes => (a, b),
            _ => return None,
        };
        let arcs = self.csr.first[a] as usize..self.csr.first[a + 1] as usize;
        let i = arcs
            .into_iter()
            .find(|&i| self.csr.arcs[i].to as usize == b)?;
        self.known.get(i).copied()
    }

    /// Each node's observable parity along its shortest path to the
    /// boundary: Dijkstra from the node, stopping at the boundary's
    /// first pop, ties broken by heap order. The buffers are shared and
    /// reset through the nodes each search reached.
    fn boundary_parities(&self) -> Vec<bool> {
        let n = self.num_nodes;
        let (mut dist, mut parity) = (vec![f64::INFINITY; n + 1], vec![false; n + 1]);
        let (mut reached, mut heap) = (Vec::new(), BinaryHeap::new());
        let mut search = |src: usize| {
            for v in reached.drain(..) {
                (dist[v], parity[v]) = (f64::INFINITY, false);
            }
            heap.clear();
            dist[src] = 0.0;
            reached.push(src);
            heap.push(Front::new(0.0, src as u32, src as u32));
            while let Some(front) = heap.pop() {
                let (d, node) = (f64::from_bits(front.dist_bits), front.node as usize);
                if node == n {
                    return parity[n];
                }
                if d > dist[node] {
                    continue;
                }
                for arc in self.csr.arcs_of(node) {
                    let (to, nd) = (arc.to as usize, d + arc.w);
                    if nd < dist[to] {
                        reached.push(to);
                        (dist[to], parity[to]) = (nd, parity[node] ^ arc.obs);
                        heap.push(Front::new(nd, arc.to, front.src));
                    }
                }
            }
            false
        };
        (0..n).map(&mut search).collect()
    }

    /// [`Decoder::decode`] against caller-owned scratch: bit-identical
    /// prediction, O(nodes reached) reset cost, no allocation in steady
    /// state.
    pub fn decode_with(&self, defects: &[usize], scratch: &mut UfScratch) -> bool {
        if defects.is_empty() {
            return false;
        }
        let known = match self.single_edge(defects) {
            Some(known) => known,
            None => self.grow_and_pair(defects, scratch),
        };
        let recorder = &scratch.recorder;
        if recorder.is_enabled() {
            recorder.add(Metric::UfGrowthSteps, known.growth_steps.into());
            recorder.add(Metric::UfTouchedNodes, known.touched.into());
            recorder.gauge_max(Metric::UfOddClusterPeak, known.odd_peak.into());
        }
        known.flip
    }

    /// Decodes a non-empty defect list by growth and pairing.
    fn grow_and_pair(&self, defects: &[usize], scratch: &mut UfScratch) -> Known {
        scratch.reset(self.num_nodes);
        let (growth_steps, odd_peak) = self.grow(defects, scratch);
        let touched = scratch.touched.len() as u64;
        let count = |v: u64| u32::try_from(v).expect("decode counters fit a u32");
        Known {
            flip: self.pair_and_predict(defects, scratch),
            growth_steps: count(growth_steps),
            touched: count(touched),
            odd_peak: count(odd_peak),
        }
    }

    /// Grows clusters until all are neutral, recording every merge in
    /// `s.contacts`. Returns the number of growth steps (heap pops) and
    /// the peak odd-cluster count, for telemetry.
    fn grow(&self, defects: &[usize], s: &mut UfScratch) -> (u64, u64) {
        let boundary = self.num_nodes as u32;
        for (i, &d) in defects.iter().enumerate() {
            let d = u32::try_from(d).expect("defect index fits a u32");
            s.touched.push(d);
            let node = &mut s.nodes[d as usize];
            if node.owner == NONE {
                *node = Node {
                    dist: 0.0,
                    parent: d,
                    owner: d,
                    pos: i as u32,
                    parity: true,
                    unpaired: true,
                    ..Node::FREE
                };
            }
            s.odd_clusters += 1;
            s.heap.push(Front::new(0.0, d, d));
        }
        let mut growth_steps = 0u64;
        let mut odd_peak = s.odd_clusters as u64;
        while let Some(front) = s.heap.pop() {
            growth_steps += 1;
            odd_peak = odd_peak.max(s.odd_clusters as u64);
            let (dcur, src) = (f64::from_bits(front.dist_bits), front.src);
            // Every merge below keeps this root, so it is found once.
            let root = s.find(src);
            let path_parity = s.nodes[front.node as usize].path_parity;
            for arc in self.csr.arcs_of(front.node as usize) {
                let nd = dcur + arc.w;
                let reached = &mut s.nodes[arc.to as usize];
                let owner = reached.owner;
                if owner == NONE {
                    // An unowned record is untouched, so FREE but for
                    // the fields a claim sets.
                    reached.dist = nd;
                    reached.parent = root;
                    reached.owner = src;
                    reached.path_parity = path_parity ^ arc.obs;
                    s.touched.push(arc.to);
                    if arc.to != boundary {
                        s.heap.push(Front::new(nd, arc.to, src));
                    } else if !s.nodes[root as usize].boundary {
                        // The only claim that can neutralise a cluster.
                        s.nodes[root as usize].boundary = true;
                        s.odd_clusters -= usize::from(s.nodes[root as usize].parity);
                    }
                } else if owner != src {
                    let dist = nd + reached.dist;
                    let parity = path_parity ^ arc.obs ^ reached.path_parity;
                    let other = s.find(owner);
                    if other != root {
                        s.merge(root, other);
                        let (lo, hi) = (src.min(owner), src.max(owner));
                        let order = u64::from(s.nodes[lo as usize].pos) << 32;
                        s.contacts.push(Contact {
                            key: (dist.to_bits(), order | s.contacts.len() as u64),
                            lo,
                            hi,
                            parity,
                        });
                    }
                }
            }
            if s.odd_clusters == 0 {
                break;
            }
        }
        (growth_steps, odd_peak)
    }

    /// Predicts the logical flip: pairs defects greedily along the
    /// contacts, cheapest first, and sends the rest to the boundary.
    fn pair_and_predict(&self, defects: &[usize], s: &mut UfScratch) -> bool {
        s.contacts.sort_unstable_by_key(|c| c.key);
        let mut flip = false;
        for c in &s.contacts {
            let (lo, hi) = (c.lo as usize, c.hi as usize);
            if s.nodes[lo].unpaired && s.nodes[hi].unpaired {
                s.nodes[lo].unpaired = false;
                s.nodes[hi].unpaired = false;
                flip ^= c.parity;
            }
        }
        // The defect whose front claimed the boundary goes there along
        // that front; any other leftover along its shortest path.
        let boundary = s.nodes[self.num_nodes];
        for &d in defects {
            if std::mem::take(&mut s.nodes[d].unpaired) {
                flip ^= if d as u32 == boundary.owner {
                    boundary.path_parity
                } else {
                    self.boundary_parity[d]
                };
            }
        }
        flip
    }
}

impl Decoder for UnionFindDecoder {
    fn decode_in(&self, defects: &[usize], scratch: &mut DecoderScratch) -> bool {
        self.decode_with(defects, &mut scratch.uf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::BOUNDARY;
    use crate::mwpm::MwpmDecoder;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use vlq_arch::params::HardwareParams;
    use vlq_circuit::noise::NoiseModel;
    use vlq_surface::schedule::{memory_circuit, Basis, Boundary, MemorySpec, Setup};
    use vlq_telemetry::Recorder;

    fn graph_for(d: usize, p: f64) -> DecodingGraph {
        let spec = MemorySpec::standard(Setup::Baseline, d, 1, Basis::Z);
        let mc = memory_circuit(spec, &HardwareParams::baseline());
        let noisy = NoiseModel::baseline_at_scale(p).apply(&mc.circuit);
        DecodingGraph::build(&noisy, &mc.z_detectors)
    }

    #[test]
    fn empty_defects_no_flip() {
        let g = graph_for(3, 1e-3);
        let dec = UnionFindDecoder::new(&g);
        assert!(!dec.decode(&[]));
    }

    #[test]
    fn agrees_with_mwpm_on_single_faults() {
        let g = graph_for(3, 1e-3);
        let uf = UnionFindDecoder::new(&g);
        let mw = MwpmDecoder::new(&g);
        for (&(a, b), _) in g.iter_edges() {
            let defects: Vec<usize> = if b == BOUNDARY { vec![a] } else { vec![a, b] };
            assert_eq!(
                uf.decode(&defects),
                mw.decode(&defects),
                "disagree on edge ({a},{b})"
            );
        }
    }

    #[test]
    fn mostly_agrees_with_mwpm_on_random_sparse_defects() {
        let g = graph_for(5, 2e-3);
        let uf = UnionFindDecoder::new(&g);
        let mw = MwpmDecoder::new(&g);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut agree = 0;
        let trials = 200;
        for _ in 0..trials {
            // Sparse random defect sets (2-4 defects).
            let k = rng.random_range(1..3usize) * 2;
            let mut defects: Vec<usize> = Vec::new();
            while defects.len() < k {
                let d = rng.random_range(0..g.num_nodes());
                if !defects.contains(&d) {
                    defects.push(d);
                }
            }
            if uf.decode(&defects) == mw.decode(&defects) {
                agree += 1;
            }
        }
        // UF is approximate, but on sparse defects it should agree with
        // MWPM the vast majority of the time.
        assert!(agree * 10 >= trials * 8, "agreement {agree}/{trials}");
    }

    /// A scratch reused across many decodes must give the same answer
    /// as a fresh scratch per decode (the touched-list reset is exact).
    #[test]
    fn reused_scratch_matches_fresh_scratch() {
        let g = graph_for(5, 2e-3);
        let uf = UnionFindDecoder::new(&g);
        let mut rng = SmallRng::seed_from_u64(17);
        let mut reused = UfScratch::new();
        for _ in 0..300 {
            let k = rng.random_range(0..7usize);
            let mut defects: Vec<usize> = Vec::new();
            while defects.len() < k {
                let d = rng.random_range(0..g.num_nodes());
                if !defects.contains(&d) {
                    defects.push(d);
                }
            }
            defects.sort_unstable();
            let hot = uf.decode_with(&defects, &mut reused);
            assert_eq!(uf.decode(&defects), hot, "defects {defects:?}");
        }
    }

    /// The guard-sector graph of a memory block.
    fn block_graph(spec: MemorySpec, noise: NoiseModel, boundary: Boundary) -> DecodingGraph {
        let mc = memory_circuit(spec, &noise.hw);
        let (start, end) = mc.noise_window(boundary);
        DecodingGraph::build(
            &noise.apply_window(&mc.circuit, start, end),
            mc.guard_detectors(),
        )
    }

    /// `uf_golden.rs`'s random-list graphs, then prog1's block shapes.
    fn table_test_graphs() -> Vec<DecodingGraph> {
        let mut graphs = Vec::new();
        let setups = [
            Setup::Baseline,
            Setup::NaturalInterleaved,
            Setup::CompactInterleaved,
        ];
        for setup in setups {
            for d in [3usize, 5] {
                for boundary in [Boundary::Full, Boundary::MidCircuit] {
                    let spec = MemorySpec::standard(setup, d, 3, Basis::Z);
                    graphs.push(block_graph(
                        spec,
                        NoiseModel::baseline_at_scale(5e-3),
                        boundary,
                    ));
                }
            }
        }
        for rounds in [1usize, 3, 6] {
            for boundary in [Boundary::Prep, Boundary::Readout, Boundary::MidCircuit] {
                for basis in [Basis::Z, Basis::X] {
                    let mut spec = MemorySpec::standard(Setup::CompactInterleaved, 3, 4, basis);
                    spec.rounds = rounds;
                    graphs.push(block_graph(
                        spec,
                        NoiseModel::memory_at_scale(2e-3),
                        boundary,
                    ));
                }
            }
        }
        graphs
    }

    /// One `decode_with` call's flip and the three counters it recorded.
    fn decode_recorded(
        dec: &UnionFindDecoder,
        defects: &[usize],
        scratch: &mut UfScratch,
    ) -> (bool, [u64; 3]) {
        let recorder = Recorder::attached();
        scratch.set_recorder(&recorder);
        let flip = dec.decode_with(defects, scratch);
        let counters = [
            Metric::UfGrowthSteps,
            Metric::UfTouchedNodes,
            Metric::UfOddClusterPeak,
        ]
        .map(|m| recorder.value(m));
        (flip, counters)
    }

    /// Every single-edge syndrome answered from the table decodes exactly
    /// as growth does (a twin decoder with an empty table), on the flip
    /// and on all three counters; the unsorted and repeated forms of each
    /// edge, and every single node, take the growth path and agree too.
    #[test]
    fn single_edge_table_matches_growth() {
        for graph in table_test_graphs() {
            let n = graph.num_nodes();
            let dec = UnionFindDecoder::new(&graph);
            let grower = UnionFindDecoder {
                known: Vec::new(),
                ..dec.clone()
            };
            let (mut fast, mut slow) = (UfScratch::new(), UfScratch::new());
            let mut answered = 0;
            let mut lists: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
            for (&(a, b), _) in graph.iter_edges() {
                if b != BOUNDARY {
                    lists.extend([vec![a, b], vec![b, a], vec![a, a]]);
                }
            }
            for list in &lists {
                let in_table = dec.single_edge(list).is_some();
                let edge = match **list {
                    [v] => graph.iter_edges().any(|(&key, _)| key == (v, BOUNDARY)),
                    [a, b] => a < b,
                    _ => unreachable!(),
                };
                assert_eq!(in_table, edge, "table scope on {list:?}");
                answered += usize::from(in_table);
                assert_eq!(
                    decode_recorded(&dec, list, &mut fast),
                    decode_recorded(&grower, list, &mut slow),
                    "{list:?}"
                );
            }
            assert_eq!(answered, graph.num_edges(), "one table entry per edge");
        }
    }
}
