//! Undirected interaction graphs over hardware qubit sites.
//!
//! An [`InteractionGraph`] records which pairs of transmons must support a
//! direct two-qubit gate under a given embedding and schedule. The paper's
//! §III-C argues its Compact merge direction (Z ancillas merge with the
//! *upper-right* data, X ancillas with the *lower-left*) is the one that
//! keeps "4-way grid connectivity", while naive same-corner merging would
//! need six-way connectivity. The surface crate builds these graphs; the
//! degree checks here quantify that claim.

use std::collections::{BTreeMap, BTreeSet};

/// A small undirected graph over `(x, y)` integer sites.
#[derive(Clone, Debug, Default)]
pub struct InteractionGraph {
    nodes: BTreeSet<(i32, i32)>,
    edges: BTreeSet<((i32, i32), (i32, i32))>,
}

impl InteractionGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node (idempotent).
    pub fn add_node(&mut self, site: (i32, i32)) {
        self.nodes.insert(site);
    }

    /// Adds an undirected edge, inserting both endpoints as nodes.
    ///
    /// # Panics
    ///
    /// Panics on self-loops.
    pub fn add_edge(&mut self, a: (i32, i32), b: (i32, i32)) {
        assert_ne!(a, b, "self-loop in interaction graph");
        self.nodes.insert(a);
        self.nodes.insert(b);
        let key = if a < b { (a, b) } else { (b, a) };
        self.edges.insert(key);
    }

    /// Returns `true` if the edge exists.
    pub fn has_edge(&self, a: (i32, i32), b: (i32, i32)) -> bool {
        let key = if a < b { (a, b) } else { (b, a) };
        self.edges.contains(&key)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over the edges.
    pub fn iter_edges(&self) -> impl Iterator<Item = ((i32, i32), (i32, i32))> + '_ {
        self.edges.iter().copied()
    }

    /// Per-node degree map.
    pub fn degrees(&self) -> BTreeMap<(i32, i32), usize> {
        let mut deg: BTreeMap<(i32, i32), usize> = self.nodes.iter().map(|&n| (n, 0)).collect();
        for &(a, b) in &self.edges {
            *deg.get_mut(&a).expect("edge endpoint registered") += 1;
            *deg.get_mut(&b).expect("edge endpoint registered") += 1;
        }
        deg
    }

    /// Maximum degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.degrees().values().copied().max().unwrap_or(0)
    }

    /// The number of distinct *edge directions* used, where a direction is
    /// the normalized offset `b - a` (sign-canonicalized). A planar square
    /// grid uses 2 directions; adding one diagonal makes 3; six-way
    /// connectivity uses 3+ with longer diagonals.
    pub fn num_edge_directions(&self) -> usize {
        let mut dirs = BTreeSet::new();
        for &((ax, ay), (bx, by)) in &self.edges {
            let (mut dx, mut dy) = (bx - ax, by - ay);
            let g = gcd(dx.unsigned_abs(), dy.unsigned_abs()).max(1) as i32;
            dx /= g;
            dy /= g;
            // Canonical sign: first nonzero component positive.
            if dx < 0 || (dx == 0 && dy < 0) {
                dx = -dx;
                dy = -dy;
            }
            dirs.insert((dx, dy));
        }
        dirs.len()
    }

    /// Checks the graph is simple and consistent.
    pub fn check(&self) -> Result<(), String> {
        for &(a, b) in &self.edges {
            if !self.nodes.contains(&a) || !self.nodes.contains(&b) {
                return Err(format!("edge ({a:?}, {b:?}) references missing node"));
            }
            if a == b {
                return Err(format!("self-loop at {a:?}"));
            }
        }
        Ok(())
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = InteractionGraph::new();
        g.add_edge((0, 0), (1, 0));
        g.add_edge((1, 0), (1, 1));
        g.add_edge((0, 0), (1, 0)); // duplicate ignored
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge((1, 0), (0, 0)));
        assert!(!g.has_edge((0, 0), (1, 1)));
        g.check().unwrap();
    }

    #[test]
    fn degrees_and_max() {
        let mut g = InteractionGraph::new();
        g.add_edge((0, 0), (1, 0));
        g.add_edge((0, 0), (0, 1));
        g.add_edge((0, 0), (-1, 0));
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.degrees()[&(1, 0)], 1);
        assert_eq!(InteractionGraph::new().max_degree(), 0);
    }

    #[test]
    fn edge_directions_of_square_grid() {
        let mut g = InteractionGraph::new();
        for x in 0..3 {
            for y in 0..3 {
                if x + 1 < 3 {
                    g.add_edge((x, y), (x + 1, y));
                }
                if y + 1 < 3 {
                    g.add_edge((x, y), (x, y + 1));
                }
            }
        }
        assert_eq!(g.num_edge_directions(), 2);
        assert_eq!(g.max_degree(), 4);
        // Add a diagonal: one more direction.
        g.add_edge((0, 0), (1, 1));
        assert_eq!(g.num_edge_directions(), 3);
    }

    #[test]
    fn direction_sign_canonicalization() {
        let mut g = InteractionGraph::new();
        g.add_edge((0, 0), (2, 2));
        g.add_edge((5, 5), (4, 4)); // same direction, opposite sign
        assert_eq!(g.num_edge_directions(), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let mut g = InteractionGraph::new();
        g.add_edge((1, 1), (1, 1));
    }
}
