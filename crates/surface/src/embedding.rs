//! Embeddings of the rotated surface code onto hardware.
//!
//! Three embeddings (paper §III):
//!
//! * **Baseline2D** — data and measure qubits are distinct transmons on a
//!   2D grid (Figure 2).
//! * **Natural** — each data transmon has a cavity; the logical qubit's
//!   data live in cavity mode `z`, ancilla transmons have no cavities
//!   (Figure 1/5).
//! * **Compact** — measure ancillas merge into data transmons: each Z
//!   plaquette's ancilla transmon *hosts* its upper-right (NE) data qubit
//!   in its attached cavity; each X plaquette hosts its lower-left (SW)
//!   data (Figure 7/8). Boundary plaquettes whose merge corner does not
//!   exist keep a bare (orphan) transmon; data claimed by no plaquette
//!   keep their own transmon + cavity.
//!
//! The merge bookkeeping here is what the Compact schedule builds on, and
//! the interaction-graph builders quantify the paper's connectivity claim
//! (opposite-corner pairing needs only 4 edge directions and degree 4;
//! same-corner pairing needs 6).

use std::collections::BTreeMap;

use vlq_arch::InteractionGraph;

use crate::layout::{Plaquette, PlaquetteKind, SurfaceLayout};

/// Corner roles of a plaquette, in the canonical order used by
/// [`Plaquette::data`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Lower-left `(-1, -1)`.
    SW,
    /// Lower-right `(+1, -1)`.
    SE,
    /// Upper-left `(-1, +1)`.
    NW,
    /// Upper-right `(+1, +1)`.
    NE,
}

impl Corner {
    /// All corners.
    pub const ALL: [Corner; 4] = [Corner::SW, Corner::SE, Corner::NW, Corner::NE];

    /// Offset from the plaquette center.
    pub fn offset(self) -> (i32, i32) {
        match self {
            Corner::SW => (-1, -1),
            Corner::SE => (1, -1),
            Corner::NW => (-1, 1),
            Corner::NE => (1, 1),
        }
    }
}

/// Returns the coordinate of a plaquette corner.
pub fn corner_coord(p: &Plaquette, corner: Corner) -> (i32, i32) {
    let (cx, cy) = p.center;
    let (dx, dy) = corner.offset();
    (cx + dx, cy + dy)
}

/// Returns `Some(coord)` if the plaquette actually contains that corner.
pub fn corner_data(p: &Plaquette, corner: Corner) -> Option<(i32, i32)> {
    let c = corner_coord(p, corner);
    p.data.contains(&c).then_some(c)
}

/// The merge corner of a plaquette kind in the paper's Compact embedding:
/// Z merges with its NE (upper-right) data, X with its SW (lower-left).
pub fn merge_corner(kind: PlaquetteKind) -> Corner {
    match kind {
        PlaquetteKind::Z => Corner::NE,
        PlaquetteKind::X => Corner::SW,
    }
}

/// Where a data qubit's cavity hangs in the Compact embedding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompactHost {
    /// Hosted by the merged plaquette's transmon (at the plaquette
    /// center); the payload is the plaquette index.
    Plaquette(usize),
    /// Unclaimed: the data keeps its own transmon at its own coordinate.
    OwnTransmon,
}

/// The Compact merge assignment for a layout.
#[derive(Clone, Debug)]
pub struct CompactMerge {
    /// For each plaquette index: the data coordinate it hosts (its merge
    /// corner), or `None` for orphan boundary ancillas.
    pub hosted_data: Vec<Option<(i32, i32)>>,
    /// For each data coordinate: who hosts it.
    pub host_of: BTreeMap<(i32, i32), CompactHost>,
}

impl CompactMerge {
    /// Computes the merge assignment for the paper's opposite-corner rule.
    pub fn new(layout: &SurfaceLayout) -> Self {
        let mut hosted_data = Vec::with_capacity(layout.plaquettes().len());
        let mut host_of: BTreeMap<(i32, i32), CompactHost> = layout
            .data_coords()
            .iter()
            .map(|&c| (c, CompactHost::OwnTransmon))
            .collect();
        for (pi, p) in layout.plaquettes().iter().enumerate() {
            let claimed = corner_data(p, merge_corner(p.kind));
            hosted_data.push(claimed);
            if let Some(c) = claimed {
                let prev = host_of.insert(c, CompactHost::Plaquette(pi));
                assert_eq!(
                    prev,
                    Some(CompactHost::OwnTransmon),
                    "data {c:?} claimed twice"
                );
            }
        }
        CompactMerge {
            hosted_data,
            host_of,
        }
    }

    /// Number of orphan ancilla transmons (plaquettes with no hosted
    /// data).
    pub fn num_orphans(&self) -> usize {
        self.hosted_data.iter().filter(|h| h.is_none()).count()
    }

    /// Number of unclaimed data qubits (keeping their own transmons).
    pub fn num_unclaimed(&self) -> usize {
        self.host_of
            .values()
            .filter(|h| matches!(h, CompactHost::OwnTransmon))
            .count()
    }

    /// Total Compact transmon count: one per plaquette + one per
    /// unclaimed data.
    pub fn num_transmons(&self, layout: &SurfaceLayout) -> usize {
        layout.plaquettes().len() + self.num_unclaimed()
    }

    /// Total cavity count: one per data qubit.
    pub fn num_cavities(&self, layout: &SurfaceLayout) -> usize {
        layout.data_coords().len()
    }
}

/// Builds the transmon-transmon interaction graph required by the Compact
/// embedding with the paper's merge rule (or, for the ablation, a naive
/// rule where both kinds merge with the same corner).
///
/// An edge is needed between a plaquette's transmon and the host transmon
/// of each of its non-hosted data qubits.
pub fn compact_interaction_graph(
    layout: &SurfaceLayout,
    naive_same_corner: bool,
) -> InteractionGraph {
    // Select the merge corner per kind.
    let corner_for = |kind: PlaquetteKind| -> Corner {
        if naive_same_corner {
            Corner::NE
        } else {
            merge_corner(kind)
        }
    };
    // Recompute hosting under the chosen rule.
    let mut host_of: BTreeMap<(i32, i32), (i32, i32)> =
        layout.data_coords().iter().map(|&c| (c, c)).collect();
    for p in layout.plaquettes() {
        if let Some(c) = corner_data(p, corner_for(p.kind)) {
            host_of.insert(c, p.center);
        }
    }
    let mut g = InteractionGraph::new();
    for p in layout.plaquettes() {
        let own = corner_data(p, corner_for(p.kind));
        g.add_node(p.center);
        for &dq in &p.data {
            if Some(dq) == own {
                continue; // in-cavity access, no transmon-transmon edge
            }
            let host = host_of[&dq];
            if host != p.center {
                g.add_edge(p.center, host);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_counts_match_closed_form() {
        for d in [3usize, 5, 7, 9] {
            let layout = SurfaceLayout::new(d);
            let merge = CompactMerge::new(&layout);
            assert_eq!(merge.num_orphans(), d - 1, "orphans at d={d}");
            assert_eq!(
                merge.num_transmons(&layout),
                d * d + d - 1,
                "transmons at d={d}"
            );
            assert_eq!(merge.num_cavities(&layout), d * d);
        }
    }

    #[test]
    fn smallest_instance_11_transmons_9_cavities() {
        let layout = SurfaceLayout::new(3);
        let merge = CompactMerge::new(&layout);
        assert_eq!(merge.num_transmons(&layout), 11);
        assert_eq!(merge.num_cavities(&layout), 9);
    }

    #[test]
    fn every_data_has_exactly_one_host() {
        let layout = SurfaceLayout::new(5);
        let merge = CompactMerge::new(&layout);
        assert_eq!(merge.host_of.len(), 25);
        // Hosted by a plaquette => that plaquette's merge corner is the
        // data itself.
        for (&data, host) in &merge.host_of {
            if let CompactHost::Plaquette(pi) = host {
                let p = &layout.plaquettes()[*pi];
                assert_eq!(corner_data(p, merge_corner(p.kind)), Some(data));
            }
        }
    }

    #[test]
    fn orphans_are_on_the_correct_boundaries() {
        // Z halves on the top edge lack their NE data; X halves on the
        // left edge lack their SW data.
        let layout = SurfaceLayout::new(7);
        let merge = CompactMerge::new(&layout);
        for (pi, hosted) in merge.hosted_data.iter().enumerate() {
            if hosted.is_none() {
                let p = &layout.plaquettes()[pi];
                assert!(p.is_half(), "orphan must be a boundary half");
                match p.kind {
                    PlaquetteKind::Z => assert_eq!(p.center.1, 14, "Z orphan on top edge"),
                    PlaquetteKind::X => assert_eq!(p.center.0, 0, "X orphan on left edge"),
                }
            }
        }
    }

    #[test]
    fn paper_pairing_has_degree_4_and_3_directions() {
        // The paper (§III-C): the opposite-corner pairing is "the best
        // scheme we found to satisfy the hardware connectivity" and keeps
        // 4-way grid connectivity.
        for d in [3usize, 5, 7] {
            let layout = SurfaceLayout::new(d);
            let g = compact_interaction_graph(&layout, false);
            g.check().unwrap();
            assert!(g.max_degree() <= 4, "degree {} at d={d}", g.max_degree());
            // Bulk pattern: grid + one diagonal family (3 directions);
            // boundary data that keep their own transmons add one short
            // anti-diagonal family at the edge.
            assert!(g.num_edge_directions() <= 4);
            // The naive variant must be strictly worse on both counts.
            let naive = compact_interaction_graph(&layout, true);
            assert!(naive.max_degree() > g.max_degree());
            assert!(naive.num_edge_directions() >= g.num_edge_directions());
        }
    }

    #[test]
    fn naive_pairing_needs_degree_6() {
        // Ablation: same-corner merging requires six-way connectivity
        // ("two diagonal to the grid" beyond the 4-way grid).
        let layout = SurfaceLayout::new(7);
        let g = compact_interaction_graph(&layout, true);
        assert!(g.max_degree() >= 5, "naive degree {}", g.max_degree());
        assert!(g.num_edge_directions() > 3);
    }

    #[test]
    fn corner_helpers() {
        let layout = SurfaceLayout::new(3);
        let p = layout.plaquettes().iter().find(|p| !p.is_half()).unwrap();
        for c in Corner::ALL {
            assert_eq!(corner_data(p, c), Some(corner_coord(p, c)));
        }
        let half = layout.plaquettes().iter().find(|p| p.is_half()).unwrap();
        let present = Corner::ALL
            .iter()
            .filter(|&&c| corner_data(half, c).is_some())
            .count();
        assert_eq!(present, 2);
    }
}
