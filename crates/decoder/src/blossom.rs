//! Maximum-weight matching in general graphs (the Blossom algorithm).
//!
//! A faithful Rust port of the Galil / van Rantwijk primal-dual
//! implementation in the formulation used by NetworkX's
//! `max_weight_matching` (node-pair label edges rather than endpoint
//! indices). The surface-code MWPM decoder calls it on a gain instance
//! whose maximum-weight matching is the minimum-weight way to pair
//! defects or send them to the boundary (see [`crate::mwpm`]).
//!
//! Weights are `i64`; callers scale float weights (the decoder multiplies
//! log-odds weights by 2^20 and rounds). Vertex duals are stored doubled
//! so that all arithmetic stays integral.
//!
//! All state lives in index-addressed arrays of a reusable `Matcher`.
//! Vertices are `0..n` and blossoms `n..2n`; per-node tables (labels,
//! label edges, least-slack edges, parents, bases, duals) are indexed by
//! node id, and weights and allowed-edge flags by `u * n + v`. Refilling
//! those arrays allocates nothing once they have reached the largest
//! instance seen. Tie-breaking follows the reference formulation's
//! iteration order exactly: neighbours in first-insertion order,
//! blossoms in id order with freed ids reused last-in first-out, and a
//! new blossom's least-slack edges ordered by the neighbouring
//! blossom's id. Equally minimal matchings can differ in logical class,
//! so that order is part of every decoder prediction.

/// Marks an unmatched vertex, a top-level node, or a node without a base.
const NONE: usize = usize::MAX;

/// Weight-table entry of a vertex pair without an edge.
const ABSENT: i64 = i64::MIN;

const S: u8 = 1;
const T: u8 = 2;
const BREADCRUMB: u8 = 5;

/// Computes a maximum-weight matching of an undirected graph.
///
/// `edges` is a list of `(u, v, weight)` with `u != v`; vertices are
/// `0..n` where `n` is one more than the largest endpoint. Duplicate
/// edges keep the last weight. Returns `mate`, where `mate[v] = Some(u)`
/// if `v` is matched to `u`.
///
/// # Panics
///
/// Panics on self-loops.
pub fn max_weight_matching(edges: &[(usize, usize, i64)]) -> Vec<Option<usize>> {
    let mut matcher = Matcher::new();
    matcher.max_weight_matching(edges);
    (0..matcher.mate.len()).map(|v| matcher.mate(v)).collect()
}

/// One blossom's slot. Slots are reused across blossoms and across
/// calls, so their vectors keep their capacity.
#[derive(Debug, Default)]
struct BlossomData {
    /// Ordered sub-blossoms, starting with the base.
    childs: Vec<usize>,
    /// `edges[i] = (v, w)`: v in childs[i], w in childs[wrap(i+1)].
    edges: Vec<(usize, usize)>,
    /// Least-slack edges to neighboring S-blossoms (valid when
    /// `has_best`).
    best: Vec<(usize, usize)>,
    has_best: bool,
    active: bool,
}

/// Reusable blossom-matcher workspace.
///
/// Holds every array the primal-dual search touches, sized to the
/// largest instance seen so far; each call resets only what it uses.
#[derive(Debug, Default)]
pub(crate) struct Matcher {
    n: usize,
    /// Dense `n * n` weight table, symmetric; [`ABSENT`] where no edge.
    wt: Vec<i64>,
    /// Per-edge flag: first occurrence of its vertex pair in the input.
    first: Vec<bool>,
    /// Adjacency in CSR form: the neighbours of `v` are
    /// `adj[adj_start[v]..adj_start[v + 1]]`, in first-insertion order.
    adj_start: Vec<usize>,
    adj: Vec<usize>,
    mate: Vec<usize>,
    label: Vec<u8>,
    labeledge: Vec<Option<(usize, usize)>>,
    inblossom: Vec<usize>,
    blossomparent: Vec<usize>,
    blossombase: Vec<usize>,
    bestedge: Vec<Option<(usize, usize)>>,
    dualvar: Vec<i64>,
    blossomdual: Vec<i64>,
    /// Dense `n * n` allowed-edge flags, keyed `min * n + max`, and the
    /// keys currently set (so a stage clears only those).
    allowedge: Vec<bool>,
    allowed: Vec<usize>,
    queue: Vec<usize>,
    blossoms: Vec<BlossomData>,
    /// Blossom slots in use this call (ids `n..n + nblossoms`).
    nblossoms: usize,
    free_blossoms: Vec<usize>,
    /// Scratch of `scan_blossom` and of the leaf walks.
    path: Vec<usize>,
    leaves: Vec<usize>,
    /// `add_blossom`'s least-slack edge per neighbouring S-blossom, and
    /// the blossoms it has set.
    bestedgeto: Vec<Option<(usize, usize)>>,
    bestedgeto_keys: Vec<usize>,
}

impl Matcher {
    /// An empty workspace; arrays grow on first use.
    pub(crate) fn new() -> Self {
        Matcher::default()
    }

    /// [`max_weight_matching`] in this workspace: loads `edges` and
    /// runs the search. Read the result with [`Matcher::mate`].
    pub(crate) fn max_weight_matching(&mut self, edges: &[(usize, usize, i64)]) {
        let mut n = 0usize;
        for &(i, j, _) in edges {
            assert_ne!(i, j, "self-loop in matching graph");
            n = n.max(i + 1).max(j + 1);
        }
        self.mate.clear();
        if n == 0 {
            return;
        }
        self.n = n;

        self.wt.clear();
        self.wt.resize(n * n, ABSENT);
        self.first.clear();
        self.adj_start.clear();
        self.adj_start.resize(n + 1, 0);
        let mut maxweight = 0i64;
        for &(i, j, w) in edges {
            let fresh = self.wt[i * n + j] == ABSENT;
            self.wt[i * n + j] = w;
            self.wt[j * n + i] = w;
            self.first.push(fresh);
            if fresh {
                self.adj_start[i + 1] += 1;
                self.adj_start[j + 1] += 1;
            }
            maxweight = maxweight.max(w);
        }
        for v in 0..n {
            self.adj_start[v + 1] += self.adj_start[v];
        }
        // Fill each vertex's slice in edge order, using `inblossom` as
        // the write cursors before it takes its real role below.
        self.adj.clear();
        self.adj.resize(self.adj_start[n], 0);
        self.inblossom.clear();
        self.inblossom.extend_from_slice(&self.adj_start[..n]);
        for (&(i, j, _), &fresh) in edges.iter().zip(&self.first) {
            if fresh {
                self.adj[self.inblossom[i]] = j;
                self.inblossom[i] += 1;
                self.adj[self.inblossom[j]] = i;
                self.inblossom[j] += 1;
            }
        }

        let nodes = 2 * n;
        self.mate.resize(n, NONE);
        reset(&mut self.label, nodes, 0);
        reset(&mut self.labeledge, nodes, None);
        self.inblossom.clear();
        self.inblossom.extend(0..n);
        reset(&mut self.blossomparent, nodes, NONE);
        self.blossombase.clear();
        self.blossombase.extend(0..n);
        self.blossombase.resize(nodes, NONE);
        reset(&mut self.bestedge, nodes, None);
        reset(&mut self.dualvar, n, maxweight);
        reset(&mut self.blossomdual, nodes, 0);
        reset(&mut self.allowedge, n * n, false);
        self.allowed.clear();
        self.queue.clear();
        self.nblossoms = 0;
        self.free_blossoms.clear();
        reset(&mut self.bestedgeto, nodes, None);
        self.run();
    }

    /// The vertex the last search matched `v` to; `None` when `v` is
    /// unmatched or not a vertex of that instance.
    pub(crate) fn mate(&self, v: usize) -> Option<usize> {
        self.mate.get(v).copied().filter(|&u| u != NONE)
    }

    /// 2 * slack of edge (v, w); only valid outside blossoms.
    fn slack(&self, v: usize, w: usize) -> i64 {
        self.dualvar[v] + self.dualvar[w] - 2 * self.wt[v * self.n + w]
    }

    fn edge_key(&self, v: usize, w: usize) -> usize {
        v.min(w) * self.n + v.max(w)
    }

    fn is_allowed(&self, v: usize, w: usize) -> bool {
        self.allowedge[self.edge_key(v, w)]
    }

    fn allow(&mut self, v: usize, w: usize) {
        let k = self.edge_key(v, w);
        if !self.allowedge[k] {
            self.allowedge[k] = true;
            self.allowed.push(k);
        }
    }

    fn is_blossom(&self, b: usize) -> bool {
        b >= self.n
    }

    fn neighbors(&self, v: usize) -> std::ops::Range<usize> {
        self.adj_start[v]..self.adj_start[v + 1]
    }

    /// Every blossom id handed out this call, in id order; freed ids
    /// stay in the range (see [`Matcher::is_active`]).
    fn blossom_ids(&self) -> std::ops::Range<usize> {
        self.n..self.n + self.nblossoms
    }

    fn is_active(&self, b: usize) -> bool {
        self.blossoms[b - self.n].active
    }

    fn new_blossom(&mut self) -> usize {
        let b = match self.free_blossoms.pop() {
            Some(b) => b,
            None => {
                self.nblossoms += 1;
                if self.blossoms.len() < self.nblossoms {
                    self.blossoms.push(BlossomData::default());
                }
                self.n + self.nblossoms - 1
            }
        };
        let bd = &mut self.blossoms[b - self.n];
        bd.childs.clear();
        bd.edges.clear();
        bd.best.clear();
        bd.has_best = false;
        bd.active = true;
        b
    }

    fn assign_label(&mut self, w: usize, t: u8, v: Option<usize>) {
        let b = self.inblossom[w];
        debug_assert!(self.label[w] == 0 && self.label[b] == 0);
        self.label[w] = t;
        self.label[b] = t;
        let le = v.map(|v| (v, w));
        self.labeledge[w] = le;
        self.labeledge[b] = le;
        self.bestedge[w] = None;
        self.bestedge[b] = None;
        if t == S {
            push_leaves(&self.blossoms, self.n, b, &mut self.queue);
        } else if t == T {
            let base = self.blossombase[b];
            let mate_base = self.mate[base];
            debug_assert_ne!(mate_base, NONE, "T-blossom base is matched");
            self.assign_label(mate_base, S, Some(base));
        }
    }

    /// Traces back from v and w; returns the base vertex of a new blossom
    /// or None if an augmenting path was found.
    fn scan_blossom(&mut self, v: usize, w: usize) -> Option<usize> {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        let mut base: Option<usize> = None;
        let mut v: Option<usize> = Some(v);
        let mut w: Option<usize> = Some(w);
        while let Some(vv) = v {
            let b = self.inblossom[vv];
            if self.label[b] & 4 != 0 {
                base = Some(self.blossombase[b]);
                break;
            }
            debug_assert_eq!(self.label[b], S);
            path.push(b);
            self.label[b] = BREADCRUMB;
            // Trace one step back.
            match self.labeledge[b] {
                None => {
                    debug_assert_eq!(self.mate[self.blossombase[b]], NONE);
                    v = None;
                }
                Some(le) => {
                    debug_assert_eq!(le.0, self.mate[self.blossombase[b]]);
                    let t = le.0;
                    let bt = self.inblossom[t];
                    debug_assert_eq!(self.label[bt], T);
                    // bt is a T-blossom; trace one more step back.
                    v = Some(self.labeledge[bt].expect("T-blossom has label edge").0);
                }
            }
            // Swap v and w to alternate between both paths.
            if w.is_some() {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for &b in &path {
            self.label[b] = S;
        }
        self.path = path;
        base
    }

    /// Constructs a new blossom with the given base, through S-vertices
    /// v and w with an edge between them.
    fn add_blossom(&mut self, base: usize, v: usize, w: usize) {
        let n = self.n;
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        let b = self.new_blossom();
        self.blossombase[b] = base;
        self.blossomparent[b] = NONE;
        self.blossomparent[bb] = b;
        let mut path = std::mem::take(&mut self.blossoms[b - n].childs);
        let mut edgs = std::mem::take(&mut self.blossoms[b - n].edges);
        edgs.push((v, w));
        // Trace back from v to base.
        while bv != bb {
            self.blossomparent[bv] = b;
            path.push(bv);
            let le = self.labeledge[bv].expect("labeled sub-blossom");
            edgs.push(le);
            debug_assert!(
                self.label[bv] == T
                    || (self.label[bv] == S && le.0 == self.mate[self.blossombase[bv]])
            );
            bv = self.inblossom[le.0];
        }
        path.push(bb);
        path.reverse();
        edgs.reverse();
        // Trace back from w to base.
        while bw != bb {
            self.blossomparent[bw] = b;
            path.push(bw);
            let le = self.labeledge[bw].expect("labeled sub-blossom");
            edgs.push((le.1, le.0));
            debug_assert!(
                self.label[bw] == T
                    || (self.label[bw] == S && le.0 == self.mate[self.blossombase[bw]])
            );
            bw = self.inblossom[le.0];
        }
        debug_assert_eq!(self.label[bb], S);
        self.label[b] = S;
        self.labeledge[b] = self.labeledge[bb];
        self.blossomdual[b] = 0;
        self.blossoms[b - n].childs = path;
        self.blossoms[b - n].edges = edgs;
        // Relabel vertices.
        let mut lv = std::mem::take(&mut self.leaves);
        lv.clear();
        push_leaves(&self.blossoms, n, b, &mut lv);
        for &x in &lv {
            if self.label[self.inblossom[x]] == T {
                self.queue.push(x);
            }
            self.inblossom[x] = b;
        }
        // Compute b's least-slack edges, one per neighbouring S-blossom.
        self.bestedgeto_keys.clear();
        for ci in 0..self.blossoms[b - n].childs.len() {
            let bv = self.blossoms[b - n].childs[ci];
            if !self.is_blossom(bv) {
                for k in self.neighbors(bv) {
                    self.consider_bestedge(b, bv, self.adj[k]);
                }
            } else if self.blossoms[bv - n].has_best {
                let best = std::mem::take(&mut self.blossoms[bv - n].best);
                for &(i, j) in &best {
                    self.consider_bestedge(b, i, j);
                }
                self.blossoms[bv - n].best = best;
                self.blossoms[bv - n].has_best = false;
            } else {
                lv.clear();
                push_leaves(&self.blossoms, n, bv, &mut lv);
                for &x in &lv {
                    for k in self.neighbors(x) {
                        self.consider_bestedge(b, x, self.adj[k]);
                    }
                }
            }
            self.bestedge[bv] = None;
        }
        self.leaves = lv;
        self.bestedgeto_keys.sort_unstable();
        let mut mybest = std::mem::take(&mut self.blossoms[b - n].best);
        let mut best: Option<(usize, usize)> = None;
        for &bj in &self.bestedgeto_keys {
            let (x, y) = self.bestedgeto[bj].take().expect("keyed entry");
            mybest.push((x, y));
            if best.is_none_or(|(bx, by)| self.slack(x, y) < self.slack(bx, by)) {
                best = Some((x, y));
            }
        }
        self.blossoms[b - n].best = mybest;
        self.blossoms[b - n].has_best = true;
        self.bestedge[b] = best;
    }

    /// `add_blossom`'s per-edge step: keeps edge (i0, j0) as new blossom
    /// b's least-slack edge to the S-blossom at its far end.
    fn consider_bestedge(&mut self, b: usize, i0: usize, j0: usize) {
        let (i, j) = if self.inblossom[j0] == b {
            (j0, i0)
        } else {
            (i0, j0)
        };
        let bj = self.inblossom[j];
        if bj != b && self.label[bj] == S {
            let better = match self.bestedgeto[bj] {
                None => {
                    self.bestedgeto_keys.push(bj);
                    true
                }
                Some((x, y)) => self.slack(i, j) < self.slack(x, y),
            };
            if better {
                self.bestedgeto[bj] = Some((i, j));
            }
        }
    }

    /// Expands the given top-level blossom.
    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        let n = self.n;
        let childs = std::mem::take(&mut self.blossoms[b - n].childs);
        let mut edges = std::mem::take(&mut self.blossoms[b - n].edges);
        for &s in &childs {
            self.blossomparent[s] = NONE;
            if !self.is_blossom(s) {
                self.inblossom[s] = s;
            } else if endstage && self.blossomdual[s] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                set_inblossom(&self.blossoms, n, s, s, &mut self.inblossom);
            }
        }
        // If we expand a T-blossom during a stage, relabel sub-blossoms.
        if !endstage && self.label[b] == T {
            let (mut v, mut w) = self.labeledge[b].expect("T-blossom labeled");
            let entrychild = self.inblossom[w];
            let len = childs.len() as i64;
            let at = |j: i64| -> usize { j.rem_euclid(len) as usize };
            // Edge j of the cycle walked in direction `jstep`.
            let step_edge = |j: i64, jstep: i64| -> (usize, usize) {
                if jstep == 1 {
                    edges[at(j)]
                } else {
                    let (x, y) = edges[at(j - 1)];
                    (y, x)
                }
            };
            let mut j = childs
                .iter()
                .position(|&c| c == entrychild)
                .expect("entrychild present") as i64;
            let jstep: i64 = if j & 1 == 1 {
                j -= len;
                1
            } else {
                -1
            };
            while j != 0 {
                // Relabel the T-sub-blossom.
                let (p, q) = step_edge(j, jstep);
                self.label[w] = 0;
                self.label[q] = 0;
                self.assign_label(w, T, Some(v));
                // Step to the next S-sub-blossom; note its forward edge.
                self.allow(p, q);
                j += jstep;
                (v, w) = step_edge(j, jstep);
                // Step to the next T-sub-blossom.
                self.allow(v, w);
                j += jstep;
            }
            // Relabel the base T-sub-blossom (no assign_label: don't step
            // through to its mate).
            let bw = childs[at(j)];
            self.label[w] = T;
            self.label[bw] = T;
            self.labeledge[w] = Some((v, w));
            self.labeledge[bw] = Some((v, w));
            self.bestedge[bw] = None;
            // Continue along the blossom until back at entrychild.
            j += jstep;
            while childs[at(j)] != entrychild {
                let bv = childs[at(j)];
                if self.label[bv] == S {
                    j += jstep;
                    continue;
                }
                if let Some(x) = self.first_labeled_leaf(bv) {
                    debug_assert_eq!(self.label[x], T);
                    debug_assert_eq!(self.inblossom[x], bv);
                    self.label[x] = 0;
                    let base_mate = self.mate[self.blossombase[bv]];
                    debug_assert_ne!(base_mate, NONE, "matched base");
                    self.label[base_mate] = 0;
                    let le = self.labeledge[x].expect("reached vertex has edge");
                    self.assign_label(x, T, Some(le.0));
                }
                j += jstep;
            }
        }
        // Remove the expanded blossom.
        self.label[b] = 0;
        self.labeledge[b] = None;
        self.bestedge[b] = None;
        self.blossomparent[b] = NONE;
        self.blossombase[b] = NONE;
        self.blossomdual[b] = 0;
        let mut childs = childs;
        childs.clear();
        edges.clear();
        let bd = &mut self.blossoms[b - n];
        bd.childs = childs;
        bd.edges = edges;
        bd.has_best = false;
        bd.active = false;
        self.free_blossoms.push(b);
    }

    /// The first leaf of `b`, in leaf order, that carries a label.
    fn first_labeled_leaf(&self, b: usize) -> Option<usize> {
        if !self.is_blossom(b) {
            return (self.label[b] != 0).then_some(b);
        }
        self.blossoms[b - self.n]
            .childs
            .iter()
            .find_map(|&c| self.first_labeled_leaf(c))
    }

    /// Swaps matched/unmatched edges over an alternating path through
    /// blossom b between vertex v and the base vertex.
    fn augment_blossom(&mut self, b: usize, v: usize) {
        let n = self.n;
        // Bubble up from v to an immediate sub-blossom of b.
        let mut t = v;
        while self.blossomparent[t] != b {
            t = self.blossomparent[t];
            debug_assert_ne!(t, NONE, "v inside b");
        }
        if self.is_blossom(t) {
            self.augment_blossom(t, v);
        }
        let len = self.blossoms[b - n].childs.len() as i64;
        let at = |j: i64| -> usize { j.rem_euclid(len) as usize };
        let i = self.blossoms[b - n]
            .childs
            .iter()
            .position(|&c| c == t)
            .expect("child") as i64;
        let mut j = i;
        let jstep: i64 = if i & 1 == 1 {
            j -= len;
            1
        } else {
            -1
        };
        while j != 0 {
            // Step to the next sub-blossom and augment it recursively.
            j += jstep;
            let t1 = self.blossoms[b - n].childs[at(j)];
            let (w, x) = if jstep == 1 {
                self.blossoms[b - n].edges[at(j)]
            } else {
                let (a2, b2) = self.blossoms[b - n].edges[at(j - 1)];
                (b2, a2)
            };
            if self.is_blossom(t1) {
                self.augment_blossom(t1, w);
            }
            // Step to the next sub-blossom and augment it recursively.
            j += jstep;
            let t2 = self.blossoms[b - n].childs[at(j)];
            if self.is_blossom(t2) {
                self.augment_blossom(t2, x);
            }
            // Match the edge connecting those sub-blossoms.
            self.mate[w] = x;
            self.mate[x] = w;
        }
        // Rotate the sub-blossom list to put the new base at the front.
        let iu = i as usize;
        let bd = &mut self.blossoms[b - n];
        bd.childs.rotate_left(iu);
        bd.edges.rotate_left(iu);
        let new_base = self.blossombase[self.blossoms[b - n].childs[0]];
        self.blossombase[b] = new_base;
        debug_assert_eq!(self.blossombase[b], v);
    }

    /// Swaps matched/unmatched edges over an alternating path between two
    /// single vertices, through S-vertices v and w.
    fn augment_matching(&mut self, v: usize, w: usize) {
        for (s0, j0) in [(v, w), (w, v)] {
            let mut s = s0;
            let mut j = j0;
            loop {
                let bs = self.inblossom[s];
                debug_assert_eq!(self.label[bs], S);
                debug_assert!(
                    (self.labeledge[bs].is_none() && self.mate[self.blossombase[bs]] == NONE)
                        || self.labeledge[bs].map(|le| le.0)
                            == Some(self.mate[self.blossombase[bs]])
                );
                if self.is_blossom(bs) {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = j;
                // Trace one step back.
                let Some(le) = self.labeledge[bs] else {
                    break; // single vertex reached
                };
                let t = le.0;
                let bt = self.inblossom[t];
                debug_assert_eq!(self.label[bt], T);
                let (next_s, next_j) = self.labeledge[bt].expect("T labeled");
                debug_assert_eq!(self.blossombase[bt], t);
                if self.is_blossom(bt) {
                    self.augment_blossom(bt, next_j);
                }
                self.mate[next_j] = next_s;
                s = next_s;
                j = next_j;
            }
        }
    }

    /// The primal-dual stages: augment until no augmenting path is left.
    fn run(&mut self) {
        let n = self.n;
        loop {
            // New stage.
            let nodes = n + self.nblossoms;
            self.label[..nodes].fill(0);
            self.labeledge[..nodes].fill(None);
            self.bestedge[..nodes].fill(None);
            for bd in &mut self.blossoms[..self.nblossoms] {
                bd.has_best = false;
            }
            for &k in &self.allowed {
                self.allowedge[k] = false;
            }
            self.allowed.clear();
            self.queue.clear();
            for v in 0..n {
                if self.mate[v] == NONE && self.label[self.inblossom[v]] == 0 {
                    self.assign_label(v, S, None);
                }
            }
            let mut augmented = false;
            loop {
                'queue_loop: while let Some(v) = self.queue.pop() {
                    debug_assert_eq!(self.label[self.inblossom[v]], S);
                    for k in self.neighbors(v) {
                        let w = self.adj[k];
                        let bv = self.inblossom[v];
                        let bw = self.inblossom[w];
                        if bv == bw {
                            continue;
                        }
                        let mut kslack = 0;
                        if !self.is_allowed(v, w) {
                            kslack = self.slack(v, w);
                            if kslack <= 0 {
                                self.allow(v, w);
                            }
                        }
                        if self.is_allowed(v, w) {
                            if self.label[bw] == 0 {
                                self.assign_label(w, T, Some(v));
                            } else if self.label[bw] == S {
                                match self.scan_blossom(v, w) {
                                    Some(base) => self.add_blossom(base, v, w),
                                    None => {
                                        self.augment_matching(v, w);
                                        augmented = true;
                                        break 'queue_loop;
                                    }
                                }
                            } else if self.label[w] == 0 {
                                debug_assert_eq!(self.label[bw], T);
                                self.label[w] = T;
                                self.labeledge[w] = Some((v, w));
                            }
                        } else if self.label[bw] == S {
                            if self.bestedge[bv].is_none_or(|(x, y)| kslack < self.slack(x, y)) {
                                self.bestedge[bv] = Some((v, w));
                            }
                        } else if self.label[w] == 0
                            && self.bestedge[w].is_none_or(|(x, y)| kslack < self.slack(x, y))
                        {
                            self.bestedge[w] = Some((v, w));
                        }
                    }
                }
                if augmented {
                    break;
                }
                // Compute delta.
                let mut deltatype = 1;
                let mut delta = self.dualvar.iter().copied().min().unwrap_or(0);
                let mut deltaedge: Option<(usize, usize)> = None;
                let mut deltablossom = NONE;
                for v in 0..n {
                    if self.label[self.inblossom[v]] == 0 {
                        if let Some((x, y)) = self.bestedge[v] {
                            let d = self.slack(x, y);
                            if d < delta {
                                delta = d;
                                deltatype = 2;
                                deltaedge = Some((x, y));
                            }
                        }
                    }
                }
                let active_blossoms = self.blossom_ids().filter(|&b| self.is_active(b));
                for b in (0..n).chain(active_blossoms) {
                    if self.blossomparent[b] == NONE && self.label[b] == S {
                        if let Some((x, y)) = self.bestedge[b] {
                            let kslack = self.slack(x, y);
                            debug_assert_eq!(kslack % 2, 0);
                            let d = kslack / 2;
                            if d < delta {
                                delta = d;
                                deltatype = 3;
                                deltaedge = Some((x, y));
                            }
                        }
                    }
                }
                for b in self.blossom_ids() {
                    if self.is_active(b)
                        && self.blossomparent[b] == NONE
                        && self.label[b] == T
                        && self.blossomdual[b] < delta
                    {
                        delta = self.blossomdual[b];
                        deltatype = 4;
                        deltablossom = b;
                    }
                }
                // Update dual variables.
                for v in 0..n {
                    match self.label[self.inblossom[v]] {
                        S => self.dualvar[v] -= delta,
                        T => self.dualvar[v] += delta,
                        _ => {}
                    }
                }
                for b in self.blossom_ids() {
                    if self.is_active(b) && self.blossomparent[b] == NONE {
                        match self.label[b] {
                            S => self.blossomdual[b] += delta,
                            T => self.blossomdual[b] -= delta,
                            _ => {}
                        }
                    }
                }
                match deltatype {
                    1 => break,
                    2 | 3 => {
                        let (v, w) = deltaedge.expect("delta edge");
                        debug_assert_eq!(self.label[self.inblossom[v]], S);
                        self.allow(v, w);
                        self.queue.push(v);
                    }
                    4 => self.expand_blossom(deltablossom, false),
                    _ => unreachable!(),
                }
            }
            // Paranoia check.
            #[cfg(debug_assertions)]
            for v in 0..n {
                if self.mate[v] != NONE {
                    debug_assert_eq!(self.mate[self.mate[v]], v);
                }
            }
            if !augmented {
                break;
            }
            // End of stage: expand all S-blossoms with zero dual.
            for b in self.blossom_ids() {
                if self.is_active(b)
                    && self.blossomparent[b] == NONE
                    && self.label[b] == S
                    && self.blossomdual[b] == 0
                {
                    self.expand_blossom(b, true);
                }
            }
        }
    }
}

/// Clears `v` and refills its first `len` entries with `value`.
fn reset<X: Clone>(v: &mut Vec<X>, len: usize, value: X) {
    v.clear();
    v.resize(len, value);
}

/// Appends the vertices of node `b` to `out`, in leaf order (depth
/// first through the sub-blossom lists).
fn push_leaves(blossoms: &[BlossomData], n: usize, b: usize, out: &mut Vec<usize>) {
    if b < n {
        out.push(b);
    } else {
        for &c in &blossoms[b - n].childs {
            push_leaves(blossoms, n, c, out);
        }
    }
}

/// Sets `inblossom[x] = top` for every vertex `x` of node `b`.
fn set_inblossom(
    blossoms: &[BlossomData],
    n: usize,
    b: usize,
    top: usize,
    inblossom: &mut [usize],
) {
    if b < n {
        inblossom[b] = top;
    } else {
        for &c in &blossoms[b - n].childs {
            set_inblossom(blossoms, n, c, top, inblossom);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Maximum matching weight, by brute force over all matchings.
    fn brute_force(edges: &[(usize, usize, i64)]) -> i64 {
        fn recur(edges: &[(usize, usize, i64)], idx: usize, used: &mut Vec<bool>) -> i64 {
            if idx == edges.len() {
                return 0;
            }
            let mut best = recur(edges, idx + 1, used);
            let (u, v, w) = edges[idx];
            if !used[u] && !used[v] {
                used[u] = true;
                used[v] = true;
                best = best.max(w + recur(edges, idx + 1, used));
                used[u] = false;
                used[v] = false;
            }
            best
        }
        let n = edges.iter().map(|e| e.0.max(e.1) + 1).max().unwrap_or(0);
        recur(edges, 0, &mut vec![false; n])
    }

    fn matching_weight(edges: &[(usize, usize, i64)], mate: &[Option<usize>]) -> i64 {
        let mut weight = 0;
        for &(u, v, w) in edges {
            if mate[u] == Some(v) {
                assert_eq!(mate[v], Some(u));
                weight += w;
            }
        }
        weight
    }

    fn check_valid(edges: &[(usize, usize, i64)], mate: &[Option<usize>]) {
        for (v, m) in mate.iter().enumerate() {
            if let Some(u) = m {
                assert_eq!(mate[*u], Some(v), "matching must be symmetric");
                assert!(
                    edges
                        .iter()
                        .any(|&(a, b, _)| (a, b) == (v, *u) || (a, b) == (*u, v)),
                    "matched pair must be an edge"
                );
            }
        }
    }

    #[test]
    fn trivial_cases() {
        assert_eq!(max_weight_matching(&[]), Vec::<Option<usize>>::new());
        let mate = max_weight_matching(&[(0, 1, 5)]);
        assert_eq!(mate, vec![Some(1), Some(0)]);
    }

    #[test]
    fn prefers_heavier_edge() {
        let edges = [(0, 1, 6), (1, 2, 10)];
        let mate = max_weight_matching(&edges);
        assert_eq!(mate, vec![None, Some(2), Some(1)]);
    }

    #[test]
    fn creates_blossom_and_uses_it() {
        // van Rantwijk test suite: create an S-blossom and use it for
        // augmentation.
        let edges = [(0, 1, 8), (0, 2, 9), (1, 2, 10), (2, 3, 7)];
        let mate = max_weight_matching(&edges);
        assert_eq!(mate, vec![Some(1), Some(0), Some(3), Some(2)]);
        let edges2 = [
            (0, 1, 8),
            (0, 2, 9),
            (1, 2, 10),
            (2, 3, 7),
            (0, 5, 5),
            (3, 4, 6),
        ];
        let mate = max_weight_matching(&edges2);
        assert_eq!(
            mate,
            vec![Some(5), Some(2), Some(1), Some(4), Some(3), Some(0)]
        );
    }

    #[test]
    fn t_blossom_relabeling() {
        // Create an S-blossom, relabel as T-blossom, use for augmentation.
        let edges = [
            (0, 1, 9),
            (0, 2, 8),
            (1, 2, 10),
            (0, 3, 5),
            (3, 4, 4),
            (0, 4, 3),
        ];
        let mate = max_weight_matching(&edges);
        check_valid(&edges, &mate);
        assert_eq!(matching_weight(&edges, &mate), brute_force(&edges));
    }

    #[test]
    fn nested_s_blossom() {
        let edges = [
            (0, 1, 9),
            (0, 2, 9),
            (1, 2, 10),
            (1, 3, 8),
            (2, 4, 8),
            (3, 4, 10),
            (4, 5, 6),
        ];
        let mate = max_weight_matching(&edges);
        assert_eq!(
            mate,
            vec![Some(2), Some(3), Some(0), Some(1), Some(5), Some(4)]
        );
    }

    #[test]
    fn nested_s_blossom_expand() {
        let edges = [
            (0, 1, 8),
            (0, 2, 8),
            (1, 2, 10),
            (1, 3, 12),
            (2, 4, 12),
            (3, 4, 14),
            (3, 5, 12),
            (4, 6, 12),
            (5, 6, 14),
            (6, 7, 12),
        ];
        let mate = max_weight_matching(&edges);
        check_valid(&edges, &mate);
        assert_eq!(matching_weight(&edges, &mate), brute_force(&edges));
    }

    #[test]
    fn s_blossom_relabel_expand() {
        let edges = [
            (0, 1, 23),
            (0, 4, 22),
            (0, 5, 15),
            (1, 2, 25),
            (2, 3, 22),
            (3, 4, 25),
            (3, 7, 14),
            (4, 6, 13),
        ];
        let mate = max_weight_matching(&edges);
        check_valid(&edges, &mate);
        assert_eq!(matching_weight(&edges, &mate), brute_force(&edges));
    }

    #[test]
    fn nasty_blossom_cases() {
        // van Rantwijk "nasty" cases exercising blossom expansion paths.
        let cases: Vec<Vec<(usize, usize, i64)>> = vec![
            vec![
                (0, 1, 45),
                (0, 4, 45),
                (1, 2, 50),
                (2, 3, 45),
                (3, 4, 50),
                (0, 5, 30),
                (2, 8, 35),
                (3, 7, 35),
                (4, 6, 26),
            ],
            vec![
                (0, 1, 45),
                (0, 4, 45),
                (1, 2, 50),
                (2, 3, 45),
                (3, 4, 50),
                (0, 5, 30),
                (2, 8, 35),
                (3, 7, 26),
                (4, 6, 40),
            ],
            vec![
                (0, 1, 45),
                (0, 4, 45),
                (1, 2, 50),
                (2, 3, 45),
                (3, 4, 50),
                (0, 5, 30),
                (2, 8, 35),
                (3, 7, 28),
                (4, 6, 26),
            ],
        ];
        for (ci, edges) in cases.iter().enumerate() {
            let mate = max_weight_matching(edges);
            check_valid(edges, &mate);
            assert_eq!(
                matching_weight(edges, &mate),
                brute_force(edges),
                "case {ci}"
            );
        }
    }

    #[test]
    fn random_graphs_match_brute_force() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(1234);
        for trial in 0..400 {
            let n = rng.random_range(2..9usize);
            let mut edges: Vec<(usize, usize, i64)> = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.random::<f64>() < 0.55 {
                        edges.push((u, v, rng.random_range(1..40)));
                    }
                }
            }
            if edges.is_empty() {
                continue;
            }
            let mate = max_weight_matching(&edges);
            check_valid(&edges, &mate);
            assert_eq!(
                matching_weight(&edges, &mate),
                brute_force(&edges),
                "trial {trial} weight, edges {edges:?}"
            );
        }
    }

    /// One workspace reused across instances that grow, shrink, leave
    /// vertices unmatched or have no edges must answer exactly as a
    /// fresh workspace does each time: no state leaks between calls.
    #[test]
    fn reused_workspace_matches_fresh() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(2303);
        let mut matcher = Matcher::new();
        for trial in 0..300 {
            let n = rng.random_range(1..25usize);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.random::<f64>() < 0.4 {
                        edges.push((u, v, rng.random_range(0..20i64)));
                    }
                }
            }
            let mut fresh = max_weight_matching(&edges);
            matcher.max_weight_matching(&edges);
            // Past the instance's last endpoint, the reused workspace must
            // report nothing left over from a larger instance.
            fresh.resize(n, None);
            let reused: Vec<Option<usize>> = (0..n).map(|v| matcher.mate(v)).collect();
            assert_eq!(reused, fresh, "trial {trial}, edges {edges:?}");
        }
    }
}
