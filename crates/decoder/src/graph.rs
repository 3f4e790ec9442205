//! Matching-graph construction by exhaustive single-fault enumeration.
//!
//! Every noise instruction of a noisy circuit defines a set of
//! elementary faults (3 Paulis for a 1-qubit channel, 15 for a 2-qubit
//! channel, one flip per measurement). One backward sensitivity pass
//! over the circuit ([`vlq_circuit::exec::FaultSensitivity`]) yields
//! the sector detectors and the observable each fault flips, so the
//! build is linear in circuit size. Within one decoding sector
//! (Z-plaquette or X-plaquette detectors), a fault flips at most two
//! detectors for graphlike noise; faults that flip more are decomposed
//! into known graphlike edges, as modern detector-error-model tooling
//! does.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use vlq_circuit::exec::{FaultEffect, FaultSensitivity, FaultSite};
use vlq_circuit::ir::{Circuit, Instruction};
use vlq_math::stats::{log_odds_weight, xor_probability};
use vlq_pauli::Pauli;

/// Virtual boundary node id inside [`DecodingGraph`].
pub const BOUNDARY: usize = usize::MAX;

/// One edge of the decoding graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphEdge {
    /// Total probability that some fault flips exactly this detector
    /// pair (XOR-accumulated).
    pub probability: f64,
    /// Matching weight `ln((1-p)/p)`.
    pub weight: f64,
    /// Whether traversing this edge flips the logical observable.
    pub flips_observable: bool,
}

/// A per-sector decoding graph over `num_nodes` detectors plus a virtual
/// boundary.
#[derive(Clone, Debug)]
pub struct DecodingGraph {
    num_nodes: usize,
    /// Edge map keyed by `(a, b)` with `a < b` (`b` may be [`BOUNDARY`]).
    ///
    /// Ordered map on purpose: [`DecodingGraph::iter_edges`] and the
    /// CSR laid out from it must yield a deterministic order, because
    /// approximate decoders (union-find's first-contact growth) break
    /// distance ties by visit order — with a hash map, two builds of the
    /// same circuit could decode the same syndrome differently.
    edges: BTreeMap<(usize, usize), GraphEdge>,
    /// The adjacency every decoder reads, laid out once from `edges`.
    csr: Csr,
    /// Count of faults that produced more than two sector detectors and
    /// needed decomposition.
    pub decomposed_faults: usize,
    /// Probability mass of faults that flipped the observable with *no*
    /// sector detectors (should be ~0 for a sound circuit).
    pub undetectable_logical_mass: f64,
}

impl DecodingGraph {
    /// Number of detector nodes (excluding the boundary).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of edges (including boundary edges).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Looks up an edge.
    pub fn edge(&self, a: usize, b: usize) -> Option<&GraphEdge> {
        self.edges.get(&ordered(a, b))
    }

    /// Iterates over `((a, b), edge)` pairs; `b` may be [`BOUNDARY`].
    pub fn iter_edges(&self) -> impl Iterator<Item = (&(usize, usize), &GraphEdge)> {
        self.edges.iter()
    }

    /// The CSR adjacency, with the boundary as node `num_nodes`.
    pub(crate) fn csr(&self) -> &Csr {
        &self.csr
    }

    fn accumulate(&mut self, a: usize, b: usize, p: f64, obs: bool) {
        let key = ordered(a, b);
        let entry = self.edges.entry(key).or_insert(GraphEdge {
            probability: 0.0,
            weight: f64::INFINITY,
            flips_observable: obs,
        });
        // Keep the observable parity of the dominant contribution; in a
        // sound surface-code circuit all contributions to one edge agree.
        entry.probability = xor_probability(entry.probability, p);
    }

    /// Builds the decoding graph for the *guard* sector of a noisy
    /// circuit (the sector whose errors flip the memory observable):
    /// observable flips are attributed to the edges.
    ///
    /// # Panics
    ///
    /// Panics if a fault flips more than two sector detectors and cannot
    /// be decomposed into existing graphlike edges, or if an edge is
    /// likelier than not, so its weight is negative.
    pub fn build(circuit: &Circuit, sector_detectors: &[usize]) -> Self {
        Self::build_with_attribution(circuit, sector_detectors, true)
    }

    /// Builds the decoding graph for a non-guard sector: the observable
    /// is attributed to the other sector's components, so every edge here
    /// carries `flips_observable = false`. Panics as
    /// [`DecodingGraph::build`] does.
    pub fn build_non_guard(circuit: &Circuit, sector_detectors: &[usize]) -> Self {
        Self::build_with_attribution(circuit, sector_detectors, false)
    }

    /// Builds the decoding graph for a sector of a noisy circuit.
    ///
    /// `sector_detectors` lists the global detector indices that belong
    /// to the sector, in the order that defines the graph's node ids.
    ///
    /// A single fault (e.g. a Y error) can flip detectors in both
    /// sectors; its observable flip belongs to the component in the
    /// guard sector (for a Z memory, only the X-error component can flip
    /// the logical Z). `attribute_observable` selects whether this graph
    /// receives those attributions.
    fn build_with_attribution(
        circuit: &Circuit,
        sector_detectors: &[usize],
        attribute_observable: bool,
    ) -> Self {
        let mut sector_index = vec![usize::MAX; circuit.detectors.len()];
        for (i, &d) in sector_detectors.iter().enumerate() {
            sector_index[d] = i;
        }
        let mut graph = DecodingGraph {
            num_nodes: sector_detectors.len(),
            edges: BTreeMap::new(),
            csr: Csr::default(),
            decomposed_faults: 0,
            undetectable_logical_mass: 0.0,
        };
        // Collect (sector detector list, obs flip, probability) per fault;
        // multi-detector faults wait for the second pass. Faults are
        // visited in circuit order with their detectors ascending, so
        // every edge's `xor_probability` fold runs in a fixed order.
        let sensitivity = FaultSensitivity::new(circuit, sector_detectors, attribute_observable);
        let mut effect = FaultEffect::default();
        let mut dets: Vec<usize> = Vec::new();
        let mut pending: Vec<(Vec<usize>, bool, f64)> = Vec::new();
        for_each_fault(circuit, |site, p| {
            if p <= 0.0 {
                return;
            }
            sensitivity.effect_into(site, &mut effect);
            dets.clear();
            dets.extend(effect.detectors.iter().map(|&d| sector_index[d]));
            let obs = effect.observables.contains(&0);
            match dets.len() {
                0 => {
                    if obs {
                        graph.undetectable_logical_mass += p;
                    }
                }
                1 => graph.accumulate(dets[0], BOUNDARY, p, obs),
                2 => graph.accumulate(dets[0], dets[1], p, obs),
                _ => pending.push((dets.clone(), obs, p)),
            }
        });
        // Second pass: decompose multi-detector faults into existing
        // graphlike edges (pairs or boundary singletons) whose combined
        // observable parity matches.
        for (dets, obs, p) in pending {
            graph.decomposed_faults += 1;
            let parts = decompose(&graph, &dets, obs).unwrap_or_else(|| {
                panic!(
                    "fault with detectors {dets:?} (obs {obs}) cannot be \
                     decomposed into graphlike edges"
                )
            });
            for (a, b, part_obs) in parts {
                graph.accumulate(a, b, p, part_obs);
            }
        }
        for edge in graph.edges.values_mut() {
            edge.weight = log_odds_weight(edge.probability);
        }
        graph.csr = Csr::new(graph.num_nodes, &graph.edges);
        graph
    }

    /// A graph on `num_nodes` detectors with the given `(a, b, weight,
    /// flips_observable)` edges, laid out as [`DecodingGraph::build`]
    /// lays out its own.
    #[cfg(test)]
    pub(crate) fn from_edges(num_nodes: usize, edges: &[(usize, usize, f64, bool)]) -> Self {
        let mut edge_map = BTreeMap::new();
        for &(a, b, weight, flips_observable) in edges {
            let probability = 1.0 / (1.0 + weight.exp());
            let edge = GraphEdge {
                probability,
                weight,
                flips_observable,
            };
            edge_map.insert(ordered(a, b), edge);
        }
        DecodingGraph {
            num_nodes,
            csr: Csr::new(num_nodes, &edge_map),
            edges: edge_map,
            decomposed_faults: 0,
            undetectable_logical_mass: 0.0,
        }
    }
}

/// One directed edge of the [`Csr`] adjacency.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Arc {
    pub(crate) w: f64,
    /// Head node; the boundary is node `n`.
    pub(crate) to: u32,
    /// Whether the edge flips the logical observable.
    pub(crate) obs: bool,
}

/// The decoding graph's adjacency in compressed sparse rows: node `v`'s
/// arcs are `arcs[first[v]..first[v + 1]]`, and the boundary is node `n`
/// with no arcs, so no path continues through it.
///
/// Each node's arcs come in edge-key order (ascending `(a, b)` with
/// `a < b`). The order is part of the decoders' output: union-find's
/// growth breaks distance ties by arc order, and its single-edge table
/// is indexed by arc.
#[derive(Clone, Debug, Default)]
pub(crate) struct Csr {
    pub(crate) first: Vec<u32>,
    pub(crate) arcs: Vec<Arc>,
}

impl Csr {
    /// Lays out the edge map of a graph on `n` detectors.
    ///
    /// # Panics
    ///
    /// Panics if an edge weight is negative, NaN or infinite (Dijkstra
    /// and growth order path sums by value, growth by their bits, exact
    /// only for finite weights ≥ 0), or if node or arc ids would not
    /// fit below `u32::MAX`.
    fn new(n: usize, edges: &BTreeMap<(usize, usize), GraphEdge>) -> Self {
        let ids = n.max(2 * edges.len());
        assert!(ids < u32::MAX as usize, "graph too large");
        // Every edge's arcs, tagged with their tail, in key order; the
        // stable sort by tail keeps each node's arcs in key order.
        let mut tagged = Vec::with_capacity(2 * edges.len());
        for (&(a, b), e) in edges {
            let (w, obs) = (e.weight, e.flips_observable);
            assert!(w.is_finite() && w >= 0.0, "edge weight {w} not in [0, inf)");
            let b = if b == BOUNDARY { n } else { b };
            for (from, to) in [(a, b as u32), (b, a as u32)] {
                if from < n {
                    tagged.push((from, Arc { w, to, obs }));
                }
            }
        }
        tagged.sort_by_key(|&(from, _)| from);
        let mut first = vec![0u32; n + 2];
        for &(from, _) in &tagged {
            first[from + 1] += 1;
        }
        for v in 0..=n {
            first[v + 1] += first[v];
        }
        let arcs = tagged.into_iter().map(|(_, arc)| arc).collect();
        Csr { first, arcs }
    }

    /// Node `v`'s arcs; empty for the boundary.
    pub(crate) fn arcs_of(&self, v: usize) -> &[Arc] {
        &self.arcs[self.first[v] as usize..self.first[v + 1] as usize]
    }
}

/// A shortest-path or growth front: a node reached at some distance
/// from a source, ordered by distance alone, smallest first. Distances
/// are sums of finite weights ≥ 0 (the [`Csr`] layout asserts them), and
/// for those the bit patterns order exactly like the values, ties
/// included, so the heap pops in the order a float-keyed heap would.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Front {
    pub(crate) dist_bits: u64,
    pub(crate) node: u32,
    pub(crate) src: u32,
}

impl Front {
    pub(crate) fn new(dist: f64, node: u32, src: u32) -> Self {
        Front {
            dist_bits: dist.to_bits(),
            node,
            src,
        }
    }
}

impl PartialEq for Front {
    fn eq(&self, other: &Self) -> bool {
        self.dist_bits == other.dist_bits
    }
}
impl Eq for Front {}
impl PartialOrd for Front {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Front {
    fn cmp(&self, other: &Self) -> Ordering {
        other.dist_bits.cmp(&self.dist_bits)
    }
}

fn ordered(a: usize, b: usize) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Enumerates every elementary fault of a noisy circuit.
pub fn for_each_fault(circuit: &Circuit, mut visit: impl FnMut(FaultSite, f64)) {
    for (at, inst) in circuit.instructions.iter().enumerate() {
        match *inst {
            Instruction::Noise1 { qubit, p } => {
                for pauli in Pauli::ERRORS {
                    visit(FaultSite::Pauli1 { at, qubit, pauli }, p / 3.0);
                }
            }
            Instruction::Noise2 { a, b, p } => {
                for pa in Pauli::ALL {
                    for pb in Pauli::ALL {
                        if pa == Pauli::I && pb == Pauli::I {
                            continue;
                        }
                        visit(
                            FaultSite::Pauli2 {
                                at,
                                a: (a, pa),
                                b: (b, pb),
                            },
                            p / 15.0,
                        );
                    }
                }
            }
            Instruction::Measure { flip_prob, .. } if flip_prob > 0.0 => {
                visit(FaultSite::MeasureFlip { at }, flip_prob);
            }
            _ => {}
        }
    }
}

/// Tries to split a multi-detector fault into existing edges. Searches
/// pairings of the (<= 4 in practice) detectors, allowing boundary
/// singletons, such that every part is an existing edge and the XOR of
/// part observable-parities equals the fault's.
fn decompose(
    graph: &DecodingGraph,
    dets: &[usize],
    obs: bool,
) -> Option<Vec<(usize, usize, bool)>> {
    fn search(
        graph: &DecodingGraph,
        remaining: &[usize],
        acc: &mut Vec<(usize, usize, bool)>,
        out: &mut Option<Vec<(usize, usize, bool)>>,
        target_obs: bool,
    ) {
        if out.is_some() {
            return;
        }
        if remaining.is_empty() {
            let parity = acc.iter().fold(false, |x, e| x ^ e.2);
            if parity == target_obs {
                *out = Some(acc.clone());
            }
            return;
        }
        let first = remaining[0];
        // Pair `first` with another remaining detector.
        for i in 1..remaining.len() {
            let other = remaining[i];
            if let Some(e) = graph.edge(first, other) {
                let rest: Vec<usize> = remaining
                    .iter()
                    .copied()
                    .filter(|&d| d != first && d != other)
                    .collect();
                acc.push((first, other, e.flips_observable));
                search(graph, &rest, acc, out, target_obs);
                acc.pop();
            }
        }
        // Or send it to the boundary.
        if let Some(e) = graph.edge(first, BOUNDARY) {
            acc.push((first, BOUNDARY, e.flips_observable));
            search(graph, &remaining[1..], acc, out, target_obs);
            acc.pop();
        }
    }
    let mut acc = Vec::new();
    let mut out = None;
    search(graph, dets, &mut acc, &mut out, obs);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlq_arch::params::{ErrorRates, HardwareParams};
    use vlq_circuit::exec::propagate_fault;
    use vlq_circuit::ir::GateClass;
    use vlq_circuit::noise::NoiseModel;
    use vlq_sim::CliffordGate;
    use vlq_surface::schedule::{memory_circuit, Basis, Boundary, MemorySpec, Setup};

    fn noisy_baseline(d: usize, p: f64) -> (Circuit, Vec<usize>, Vec<usize>) {
        let spec = MemorySpec::standard(Setup::Baseline, d, 1, Basis::Z);
        let mc = memory_circuit(spec, &HardwareParams::baseline());
        let noisy = NoiseModel::baseline_at_scale(p).apply(&mc.circuit);
        (noisy, mc.z_detectors, mc.x_detectors)
    }

    #[test]
    fn baseline_graph_structure() {
        let (noisy, z_dets, _) = noisy_baseline(3, 1e-3);
        let g = DecodingGraph::build(&noisy, &z_dets);
        assert_eq!(g.num_nodes(), z_dets.len());
        assert!(
            g.num_edges() > z_dets.len(),
            "graph should be connected-ish"
        );
        // No undetectable logical errors in a sound circuit.
        assert!(g.undetectable_logical_mass == 0.0);
        // Boundary edges must exist (side plaquettes see single-detector
        // faults).
        let has_boundary = g.iter_edges().any(|(&(_, b), _)| b == BOUNDARY);
        assert!(has_boundary);
    }

    #[test]
    fn all_weights_positive_and_finite() {
        let (noisy, z_dets, _) = noisy_baseline(3, 2e-3);
        let g = DecodingGraph::build(&noisy, &z_dets);
        for (_, e) in g.iter_edges() {
            assert!(e.probability > 0.0 && e.probability < 0.5);
            assert!(e.weight.is_finite() && e.weight > 0.0);
        }
    }

    #[test]
    fn observable_edges_touch_logical_support() {
        // Some edges must flip the observable (the logical-Z column data
        // errors), and some must not.
        let (noisy, z_dets, _) = noisy_baseline(3, 1e-3);
        let g = DecodingGraph::build(&noisy, &z_dets);
        let flipping = g.iter_edges().filter(|(_, e)| e.flips_observable).count();
        let silent = g.iter_edges().filter(|(_, e)| !e.flips_observable).count();
        assert!(flipping > 0);
        assert!(silent > 0);
    }

    #[test]
    fn x_sector_never_flips_z_observable() {
        // In a Z-basis memory, the logical flip belongs to the guard
        // (Z-plaquette) sector; the X-sector graph carries none.
        let (noisy, _, x_dets) = noisy_baseline(3, 1e-3);
        let g = DecodingGraph::build_non_guard(&noisy, &x_dets);
        for (_, e) in g.iter_edges() {
            assert!(!e.flips_observable);
        }
        // Y faults on logical-support data make the naive attribution
        // differ: with guard attribution on the X sector, some edges
        // would claim the observable.
        let g_wrong = DecodingGraph::build(&noisy, &x_dets);
        assert!(g_wrong.iter_edges().any(|(_, e)| e.flips_observable));
    }

    #[test]
    fn memory_setups_produce_sound_graphs() {
        for setup in [Setup::NaturalInterleaved, Setup::CompactInterleaved] {
            let spec = MemorySpec::standard(setup, 3, 3, Basis::Z);
            let mc = memory_circuit(spec, &HardwareParams::with_memory());
            let noisy = NoiseModel::memory_at_scale(2e-3).apply(&mc.circuit);
            let g = DecodingGraph::build(&noisy, &mc.z_detectors);
            assert_eq!(
                g.undetectable_logical_mass, 0.0,
                "{setup}: undetectable logical faults"
            );
            for (_, e) in g.iter_edges() {
                assert!(e.weight.is_finite());
            }
        }
    }

    #[test]
    fn higher_noise_means_lower_weights() {
        let (noisy_lo, z_lo, _) = noisy_baseline(3, 1e-3);
        let (noisy_hi, z_hi, _) = noisy_baseline(3, 8e-3);
        let g_lo = DecodingGraph::build(&noisy_lo, &z_lo);
        let g_hi = DecodingGraph::build(&noisy_hi, &z_hi);
        // Compare a common edge.
        let (&key, e_lo) = g_lo.iter_edges().next().unwrap();
        let e_hi = g_hi.edge(key.0, key.1).expect("same structure");
        assert!(e_hi.weight < e_lo.weight);
    }

    #[test]
    #[should_panic(expected = "not in [0, inf)")]
    fn negative_weights_are_rejected() {
        DecodingGraph::from_edges(1, &[(0, BOUNDARY, -1.0, false)]);
    }

    #[test]
    fn fault_enumeration_counts() {
        let mut c = Circuit::new(2);
        c.instructions
            .push(Instruction::Noise1 { qubit: 0, p: 0.1 });
        c.instructions
            .push(Instruction::Noise2 { a: 0, b: 1, p: 0.1 });
        let m = c.measure(0);
        // Give the measurement a flip probability manually.
        if let Instruction::Measure { flip_prob, .. } = &mut c.instructions[2] {
            *flip_prob = 0.05;
        }
        let _ = m;
        let mut count = 0;
        let mut total_p = 0.0;
        for_each_fault(&c, |_, p| {
            count += 1;
            total_p += p;
        });
        assert_eq!(count, 3 + 15 + 1);
        assert!((total_p - (0.1 + 0.1 + 0.05)).abs() < 1e-12);
    }

    #[test]
    fn noiseless_circuit_has_empty_graph() {
        let spec = MemorySpec::standard(Setup::Baseline, 3, 1, Basis::Z);
        let mc = memory_circuit(spec, &HardwareParams::baseline());
        let model = NoiseModel::new(HardwareParams::baseline(), ErrorRates::noiseless());
        let noisy = model.apply(&mc.circuit);
        let g = DecodingGraph::build(&noisy, &mc.z_detectors);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn sensitivity_pass_matches_propagation_on_d3_memory_circuits() {
        let mut effect = FaultEffect::default();
        for setup in [
            Setup::Baseline,
            Setup::NaturalInterleaved,
            Setup::CompactInterleaved,
        ] {
            let noise = if setup.uses_memory() {
                NoiseModel::memory_at_scale(5e-3)
            } else {
                NoiseModel::baseline_at_scale(5e-3)
            };
            for basis in [Basis::Z, Basis::X] {
                let mc = memory_circuit(MemorySpec::standard(setup, 3, 10, basis), &noise.hw);
                for boundary in Boundary::ALL {
                    let (start, end) = mc.noise_window(boundary);
                    let noisy = noise.apply_window(&mc.circuit, start, end);
                    let mut passes = Vec::new();
                    for sector in [&mc.z_detectors, &mc.x_detectors] {
                        for observable in [true, false] {
                            let pass = FaultSensitivity::new(&noisy, sector, observable);
                            passes.push((sector, observable, pass));
                        }
                    }
                    for_each_fault(&noisy, |site, _| {
                        let full = propagate_fault(&noisy, site);
                        for (sector, observable, pass) in &passes {
                            pass.effect_into(site, &mut effect);
                            let dets: Vec<usize> = full
                                .detectors
                                .iter()
                                .copied()
                                .filter(|d| sector.contains(d))
                                .collect();
                            let obs: Vec<usize> = full
                                .observables
                                .iter()
                                .copied()
                                .filter(|&o| *observable && o == 0)
                                .collect();
                            assert_eq!(
                                (&effect.detectors, &effect.observables),
                                (&dets, &obs),
                                "{setup} {basis:?} {boundary:?} {site:?} obs {observable}"
                            );
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn multi_detector_faults_decompose_into_existing_edges() {
        // Data qubits 0..4 are read out into detectors 0..4; observable
        // = record 0. Two-qubit channels on (0, 1) and (2, 3) lay down
        // the graphlike edges. Noise on qubits 4 and 5, fanned out by
        // CNOTs, gives X/Y faults that flip detectors {0, 1, 2, 3} (and
        // the observable) and {1, 2, 3}.
        let (p2, p4, p5) = (0.015, 0.031, 0.067);
        let mut c = Circuit::new(6);
        c.instructions
            .push(Instruction::Noise2 { a: 0, b: 1, p: p2 });
        c.instructions
            .push(Instruction::Noise2 { a: 2, b: 3, p: p2 });
        c.instructions.push(Instruction::Noise1 { qubit: 4, p: p4 });
        c.instructions.push(Instruction::Noise1 { qubit: 5, p: p5 });
        for t in 0..4 {
            c.gate(CliffordGate::Cnot(4, t), GateClass::TwoQubitTT);
        }
        for t in 1..4 {
            c.gate(CliffordGate::Cnot(5, t), GateClass::TwoQubitTT);
        }
        for q in 0..4 {
            let m = c.measure(q);
            c.detector(vec![m], (q as i32, 0, 0));
        }
        c.observable(vec![0]);
        let g = DecodingGraph::build(&c, &[0, 1, 2, 3]);

        // X and Y on qubit 4 and on qubit 5: four decomposed faults.
        assert_eq!(g.decomposed_faults, 4);
        assert_eq!(g.undetectable_logical_mass, 0.0);
        assert_eq!(g.num_edges(), 6);
        // {0,1,2,3} (obs) splits into (0,1) (obs) + (2,3); {1,2,3} into
        // (1,B) + (2,3). Each part receives the fault's probability after
        // its graphlike contributions (4 of the 15 two-qubit Paulis each).
        let fold = |ps: &[f64]| ps.iter().fold(0.0, |acc, &p| xor_probability(acc, p));
        let pair = [p2 / 15.0; 4];
        let (q4, q5) = (p4 / 3.0, p5 / 3.0);
        let e01 = g.edge(0, 1).unwrap();
        let e23 = g.edge(2, 3).unwrap();
        let e1b = g.edge(1, BOUNDARY).unwrap();
        assert_eq!(e01.probability, fold(&[&pair[..], &[q4, q4]].concat()));
        assert_eq!(
            e23.probability,
            fold(&[&pair[..], &[q4, q4, q5, q5]].concat())
        );
        assert_eq!(e1b.probability, fold(&[&pair[..], &[q5, q5]].concat()));
        for untouched in [
            g.edge(0, BOUNDARY),
            g.edge(2, BOUNDARY),
            g.edge(3, BOUNDARY),
        ] {
            assert_eq!(untouched.unwrap().probability, fold(&pair));
        }
        // The parts' observable parity matches each fault's.
        assert!(e01.flips_observable ^ e23.flips_observable);
        assert!(!(e1b.flips_observable ^ e23.flips_observable));
    }
}
