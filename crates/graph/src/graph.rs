//! Undirected graph with bitset adjacency.
//!
//! All graphs in the workspace are simple undirected graphs over a dense
//! vertex range `0..n`. Adjacency is stored as one [`VertexSet`] per vertex,
//! which makes the neighborhood-of-a-set, separator, and component
//! computations used by the triangulation algorithms word-parallel.

use crate::vertexset::{Vertex, VertexSet};
use std::fmt;

/// A simple undirected graph over vertices `0..n`.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    n: u32,
    m: usize,
    adj: Vec<VertexSet>,
}

impl Graph {
    /// Creates an edgeless graph with `n` vertices.
    pub fn new(n: u32) -> Self {
        Graph {
            n,
            m: 0,
            adj: (0..n).map(|_| VertexSet::empty(n)).collect(),
        }
    }

    /// Creates the complete graph on `n` vertices.
    pub fn complete(n: u32) -> Self {
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Creates a graph from an edge list.
    ///
    /// Self-loops are ignored; duplicate edges are counted once.
    pub fn from_edges(n: u32, edges: &[(Vertex, Vertex)]) -> Self {
        let mut g = Graph::new(n);
        for &(u, v) in edges {
            if u != v {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> {
        0..self.n
    }

    /// The full vertex set as a [`VertexSet`].
    pub fn vertex_set(&self) -> VertexSet {
        VertexSet::full(self.n)
    }

    /// Adds the edge `{u, v}`. Returns `true` if the edge is new.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) -> bool {
        assert!(u != v, "self-loop {u}");
        assert!(
            u < self.n && v < self.n,
            "edge ({u},{v}) out of range n={}",
            self.n
        );
        let added = self.adj[u as usize].insert(v);
        self.adj[v as usize].insert(u);
        if added {
            self.m += 1;
        }
        added
    }

    /// Removes the edge `{u, v}` if present. Returns `true` if it was removed.
    pub fn remove_edge(&mut self, u: Vertex, v: Vertex) -> bool {
        let removed = self.adj[u as usize].remove(v);
        self.adj[v as usize].remove(u);
        if removed {
            self.m -= 1;
        }
        removed
    }

    /// Edge membership test.
    #[inline]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        u != v && self.adj[u as usize].contains(v)
    }

    /// Open neighborhood `N(v)`.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &VertexSet {
        &self.adj[v as usize]
    }

    /// Closed neighborhood `N[v] = N(v) ∪ {v}`.
    pub fn closed_neighbors(&self, v: Vertex) -> VertexSet {
        let mut s = self.adj[v as usize].clone();
        s.insert(v);
        s
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.adj[v as usize].len()
    }

    /// Open neighborhood of a set: `N(U) = (⋃_{v∈U} N(v)) \ U`.
    pub fn neighborhood_of_set(&self, set: &VertexSet) -> VertexSet {
        let mut out = VertexSet::empty(self.n);
        for v in set.iter() {
            out.union_with(&self.adj[v as usize]);
        }
        out.difference_with(set);
        out
    }

    /// Iterator over all edges as pairs `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.adj[u as usize]
                .iter()
                .filter(move |&v| v > u)
                .map(move |v| (u, v))
        })
    }

    /// `true` iff every two distinct vertices of `set` are adjacent.
    pub fn is_clique(&self, set: &VertexSet) -> bool {
        set.iter().all(|v| {
            let mut required = set.clone();
            required.remove(v);
            required.is_subset_of(&self.closed_neighbors(v))
        })
    }

    /// Number of unordered non-adjacent pairs inside `set` (the edges a
    /// saturation of `set` would add).
    pub fn missing_edges_in(&self, set: &VertexSet) -> usize {
        let k = set.len();
        let total = k * k.saturating_sub(1) / 2;
        let mut present = 0;
        for v in set.iter() {
            present += self.adj[v as usize].intersection_len(set);
        }
        total - present / 2
    }

    /// Adds every missing edge inside `set` (makes `set` a clique).
    /// Returns the number of edges added.
    pub fn saturate(&mut self, set: &VertexSet) -> usize {
        let mut added = 0;
        let vs = set.to_vec();
        for (i, &u) in vs.iter().enumerate() {
            for &v in &vs[i + 1..] {
                if self.add_edge(u, v) {
                    added += 1;
                }
            }
        }
        added
    }

    /// Returns `self ∪ K_set`: a copy of the graph with `set` saturated.
    pub fn saturated(&self, set: &VertexSet) -> Graph {
        let mut g = self.clone();
        g.saturate(set);
        g
    }

    /// Graph union over the same vertex range: edges of `self` plus edges of `other`.
    ///
    /// # Panics
    /// Panics if the vertex counts differ.
    pub fn union(&self, other: &Graph) -> Graph {
        assert_eq!(
            self.n, other.n,
            "graph union requires the same vertex range"
        );
        let mut g = self.clone();
        for (u, v) in other.edges() {
            g.add_edge(u, v);
        }
        g
    }

    /// The subgraph induced by `set`, remapped to vertices `0..set.len()`.
    ///
    /// Returns the induced graph together with the mapping from new indices
    /// to the original vertices (`mapping[new] = old`).
    pub fn induced_subgraph(&self, set: &VertexSet) -> (Graph, Vec<Vertex>) {
        let mapping: Vec<Vertex> = set.to_vec();
        let k = mapping.len() as u32;
        let mut back = vec![u32::MAX; self.n as usize];
        for (new, &old) in mapping.iter().enumerate() {
            back[old as usize] = new as u32;
        }
        let mut g = Graph::new(k);
        for (new_u, &old_u) in mapping.iter().enumerate() {
            for old_v in self.adj[old_u as usize].intersection(set).iter() {
                if old_v > old_u {
                    g.add_edge(new_u as u32, back[old_v as usize]);
                }
            }
        }
        (g, mapping)
    }

    /// The subgraph induced by the vertex prefix `0..k`, keeping vertex indices.
    pub fn induced_prefix(&self, k: u32) -> Graph {
        assert!(k <= self.n);
        let mut g = Graph::new(k);
        let prefix = VertexSet::from_iter(self.n, 0..k);
        for u in 0..k {
            for v in self.adj[u as usize].intersection(&prefix).iter() {
                if v > u {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    /// Connected components of the subgraph induced by `within`, with their
    /// open neighborhoods in the whole graph, written into `out`.
    ///
    /// This is the workspace's one component routine. Each component grows
    /// by word-parallel frontier expansion: the adjacency rows of the
    /// frontier are unioned, then masked by the vertices of `within` not yet
    /// reached. The union of every row a component visits, minus the
    /// component, is its neighborhood `N(C)`; it lies outside `within`.
    /// Components come in order of their smallest vertex. `out` keeps its
    /// buffers across calls, so a caller that reuses it allocates only
    /// when a call finds more components than any call before.
    pub fn components_into(&self, within: &VertexSet, out: &mut Components) {
        debug_assert_eq!(within.universe(), self.n);
        out.reset(self.n);
        let Components {
            comps,
            nbhds,
            len,
            left,
            frontier,
            reach,
        } = out;
        left.copy_from(within);
        while let Some(start) = left.min_vertex() {
            if comps.len() == *len {
                comps.push(VertexSet::empty(self.n));
                nbhds.push(VertexSet::empty(self.n));
            }
            let (comp, nbhd) = (&mut comps[*len], &mut nbhds[*len]);
            *len += 1;
            left.remove(start);
            comp.clear();
            comp.insert(start);
            nbhd.clear();
            frontier.copy_from(comp);
            loop {
                reach.clear();
                for v in frontier.iter() {
                    reach.union_with(&self.adj[v as usize]);
                }
                nbhd.union_with(reach);
                reach.intersect_with(left);
                if reach.is_empty() {
                    break;
                }
                left.difference_with(reach);
                comp.union_with(reach);
                std::mem::swap(frontier, reach);
            }
            nbhd.difference_with(comp);
        }
    }

    /// Connected components of the subgraph induced by `within`.
    ///
    /// Each component is returned as a [`VertexSet`] in the *original* vertex
    /// indexing. Components are returned in order of their smallest vertex.
    /// A one-off wrapper over [`Graph::components_into`].
    pub fn components_within(&self, within: &VertexSet) -> Vec<VertexSet> {
        let mut out = Components::default();
        self.components_into(within, &mut out);
        out.comps.truncate(out.len);
        out.comps
    }

    /// Connected components of `G \ removed` (a `U`-component for `U = removed`).
    pub fn components_excluding(&self, removed: &VertexSet) -> Vec<VertexSet> {
        self.components_within(&removed.complement())
    }

    /// Connected components of the whole graph.
    pub fn components(&self) -> Vec<VertexSet> {
        self.components_within(&self.vertex_set())
    }

    /// `true` iff the graph is connected (the empty graph is connected).
    pub fn is_connected(&self) -> bool {
        self.n == 0 || self.components().len() == 1
    }

    /// `true` iff there is a path between `u` and `v` avoiding `separator`.
    ///
    /// Both endpoints must lie outside the separator for a path to exist.
    pub fn connected_avoiding(&self, u: Vertex, v: Vertex, separator: &VertexSet) -> bool {
        if separator.contains(u) || separator.contains(v) {
            return false;
        }
        if u == v {
            return true;
        }
        let within = separator.complement();
        let mut seen = VertexSet::empty(self.n);
        let mut stack = vec![u];
        seen.insert(u);
        while let Some(x) = stack.pop() {
            if x == v {
                return true;
            }
            for w in self.adj[x as usize].intersection(&within).iter() {
                if seen.insert(w) {
                    stack.push(w);
                }
            }
        }
        false
    }

    /// `true` iff `sep` is a `(u,v)`-separator: removing it disconnects `u` from `v`.
    pub fn separates(&self, sep: &VertexSet, u: Vertex, v: Vertex) -> bool {
        !sep.contains(u) && !sep.contains(v) && !self.connected_avoiding(u, v, sep)
    }

    /// The fill set of a supergraph `h` relative to this graph: the edges of
    /// `h` that are not edges of `self`.
    ///
    /// # Panics
    /// Panics if `h` has a different vertex count or misses an edge of `self`.
    pub fn fill_edges_of(&self, h: &Graph) -> Vec<(Vertex, Vertex)> {
        assert_eq!(self.n, h.n);
        let mut fill = Vec::new();
        for (u, v) in h.edges() {
            if !self.has_edge(u, v) {
                fill.push((u, v));
            }
        }
        debug_assert!(
            self.edges().all(|(u, v)| h.has_edge(u, v)),
            "supergraph is missing an edge of the base graph"
        );
        fill
    }
}

/// The connected components of an induced subgraph and their open
/// neighborhoods, as [`Graph::components_into`] leaves them: buffers that
/// are reused from one call to the next.
#[derive(Clone, Debug, Default)]
pub struct Components {
    /// The components, then spare buffers from earlier calls.
    comps: Vec<VertexSet>,
    /// `nbhds[i] = N(comps[i])`.
    nbhds: Vec<VertexSet>,
    len: usize,
    /// Vertices of `within` no component has reached yet.
    left: VertexSet,
    frontier: VertexSet,
    reach: VertexSet,
}

impl Components {
    /// Empties the result, and fits the buffers to a universe of `n`.
    fn reset(&mut self, n: u32) {
        self.len = 0;
        if self.left.universe() != n {
            self.comps.clear();
            self.nbhds.clear();
            self.left = VertexSet::empty(n);
            self.frontier = VertexSet::empty(n);
            self.reach = VertexSet::empty(n);
        }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there are no components.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Each component with its open neighborhood, in order of the
    /// component's smallest vertex.
    pub fn iter(&self) -> impl Iterator<Item = (&VertexSet, &VertexSet)> {
        self.comps[..self.len].iter().zip(&self.nbhds[..self.len])
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, edges={:?})",
            self.n,
            self.m,
            self.edges().collect::<Vec<_>>()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running-example graph G of the paper (Figure 1(a)):
    /// vertices u=0, v=1, v'=2, w1=3, w2=4, w3=5;
    /// u and v are both adjacent to w1, w2, w3; v' is adjacent to v only.
    pub(crate) fn paper_graph() -> Graph {
        Graph::from_edges(6, &[(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (1, 2)])
    }

    #[test]
    fn basic_construction() {
        let g = paper_graph();
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 7);
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.degree(1), 4);
        assert_eq!(g.degree(2), 1);
    }

    #[test]
    fn add_remove_edges() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0));
        assert_eq!(g.m(), 1);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.m(), 0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loops_panic() {
        let mut g = Graph::new(3);
        g.add_edge(1, 1);
    }

    #[test]
    fn complete_graph() {
        let g = Graph::complete(5);
        assert_eq!(g.m(), 10);
        assert!(g.is_clique(&g.vertex_set()));
        assert_eq!(g.missing_edges_in(&g.vertex_set()), 0);
    }

    #[test]
    fn neighborhood_of_set() {
        let g = paper_graph();
        // N({u, v}) = {w1, w2, w3, v'}
        let uv = VertexSet::from_slice(6, &[0, 1]);
        assert_eq!(g.neighborhood_of_set(&uv).to_vec(), vec![2, 3, 4, 5]);
        // N({w1}) = {u, v}
        let w1 = VertexSet::singleton(6, 3);
        assert_eq!(g.neighborhood_of_set(&w1).to_vec(), vec![0, 1]);
    }

    #[test]
    fn clique_and_missing_edges() {
        let g = paper_graph();
        let s = VertexSet::from_slice(6, &[0, 1, 3]); // u, v, w1: missing edge {u,v}
        assert!(!g.is_clique(&s));
        assert_eq!(g.missing_edges_in(&s), 1);
        let t = VertexSet::from_slice(6, &[1, 2]); // v, v' adjacent
        assert!(g.is_clique(&t));
        // Singletons and the empty set are cliques.
        assert!(g.is_clique(&VertexSet::singleton(6, 0)));
        assert!(g.is_clique(&VertexSet::empty(6)));
        // {w1, w2, w3} is an independent set: 3 missing edges.
        let w = VertexSet::from_slice(6, &[3, 4, 5]);
        assert_eq!(g.missing_edges_in(&w), 3);
    }

    #[test]
    fn saturation() {
        let mut g = paper_graph();
        let w = VertexSet::from_slice(6, &[3, 4, 5]);
        let added = g.saturate(&w);
        assert_eq!(added, 3);
        assert!(g.is_clique(&w));
        assert_eq!(g.m(), 10);
        // Saturating again adds nothing.
        assert_eq!(g.saturate(&w), 0);
    }

    #[test]
    fn graph_union() {
        let a = Graph::from_edges(4, &[(0, 1)]);
        let b = Graph::from_edges(4, &[(1, 2), (0, 1)]);
        let u = a.union(&b);
        assert_eq!(u.m(), 2);
        assert!(u.has_edge(0, 1));
        assert!(u.has_edge(1, 2));
    }

    #[test]
    fn components_and_separators() {
        let g = paper_graph();
        assert!(g.is_connected());
        // Removing S1 = {w1,w2,w3} separates u from v (and v').
        let s1 = VertexSet::from_slice(6, &[3, 4, 5]);
        let comps = g.components_excluding(&s1);
        assert_eq!(comps.len(), 2);
        assert!(g.separates(&s1, 0, 1));
        // S2 = {u, v} separates w1 from w2.
        let s2 = VertexSet::from_slice(6, &[0, 1]);
        assert!(g.separates(&s2, 3, 4));
        // S3 = {v} separates u from v'.
        let s3 = VertexSet::singleton(6, 1);
        assert!(g.separates(&s3, 0, 2));
        // {v} does not separate u from w1.
        assert!(!g.separates(&s3, 0, 3));
    }

    #[test]
    fn components_within_subsets() {
        let g = paper_graph();
        // Within {u, w1, w2} the vertices u-w1 and u-w2 are connected: one component.
        let sub = VertexSet::from_slice(6, &[0, 3, 4]);
        assert_eq!(g.components_within(&sub).len(), 1);
        // Within {w1, w2, w3} there are no edges: three components.
        let ws = VertexSet::from_slice(6, &[3, 4, 5]);
        assert_eq!(g.components_within(&ws).len(), 3);
    }

    /// Components of `g[within]` by a per-vertex depth-first search, in
    /// order of their smallest vertex, each with its neighborhood.
    fn components_by_dfs(g: &Graph, within: &VertexSet) -> Vec<(VertexSet, VertexSet)> {
        let mut seen = VertexSet::empty(g.n());
        let mut out = Vec::new();
        for start in within.iter() {
            if !seen.insert(start) {
                continue;
            }
            let mut comp = VertexSet::singleton(g.n(), start);
            let mut stack = vec![start];
            while let Some(v) = stack.pop() {
                for w in g.neighbors(v).iter() {
                    if within.contains(w) && seen.insert(w) {
                        comp.insert(w);
                        stack.push(w);
                    }
                }
            }
            let mut nbhd = VertexSet::empty(g.n());
            for v in comp.iter() {
                for w in g.neighbors(v).iter() {
                    if !comp.contains(w) {
                        nbhd.insert(w);
                    }
                }
            }
            out.push((comp, nbhd));
        }
        out
    }

    #[test]
    fn components_into_matches_dfs_across_word_boundaries() {
        // A fixed xorshift stream, so the graphs are the same on every run.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // One buffer for every call, across universe sizes too.
        let mut comps = Components::default();
        for n in [63u32, 64, 65, 130] {
            // Expected degrees from 1 (many small components) to 16.
            for degree in [1u64, 2, 4, 16] {
                let mut g = Graph::new(n);
                for u in 0..n {
                    for v in (u + 1)..n {
                        if next() % u64::from(n) < degree {
                            g.add_edge(u, v);
                        }
                    }
                }
                for keep in [1u64, 2, 3] {
                    let within = VertexSet::from_iter(n, (0..n).filter(|_| next() % 4 < keep + 1));
                    let expected = components_by_dfs(&g, &within);
                    g.components_into(&within, &mut comps);
                    let got: Vec<(VertexSet, VertexSet)> = comps
                        .iter()
                        .map(|(c, nb)| (c.clone(), nb.clone()))
                        .collect();
                    assert_eq!(got, expected, "n {n}, degree {degree}, keep {keep}");
                    assert_eq!(comps.len(), expected.len());
                    let plain: Vec<VertexSet> = expected.into_iter().map(|(c, _)| c).collect();
                    assert_eq!(g.components_within(&within), plain);
                }
            }
        }
        // The same buffer, back at a smaller universe: every vertex its own
        // component, then no vertex at all.
        let g = Graph::new(65);
        g.components_into(&g.vertex_set(), &mut comps);
        assert_eq!(comps.len(), 65);
        assert!(comps.iter().all(|(c, nb)| c.len() == 1 && nb.is_empty()));
        g.components_into(&VertexSet::empty(65), &mut comps);
        assert!(comps.is_empty());
    }

    #[test]
    fn induced_subgraph_remaps() {
        let g = paper_graph();
        let set = VertexSet::from_slice(6, &[0, 1, 3, 4]); // u, v, w1, w2
        let (sub, mapping) = g.induced_subgraph(&set);
        assert_eq!(sub.n(), 4);
        assert_eq!(mapping, vec![0, 1, 3, 4]);
        // Edges: u-w1, u-w2, v-w1, v-w2 (no u-v).
        assert_eq!(sub.m(), 4);
        assert!(!sub.has_edge(0, 1));
    }

    #[test]
    fn induced_prefix_keeps_indices() {
        let g = paper_graph();
        let p = g.induced_prefix(4); // u, v, v', w1
        assert_eq!(p.n(), 4);
        assert!(p.has_edge(0, 3));
        assert!(p.has_edge(1, 3));
        assert!(p.has_edge(1, 2));
        assert_eq!(p.m(), 3);
    }

    #[test]
    fn fill_edges() {
        let g = paper_graph();
        let mut h = g.clone();
        h.add_edge(3, 4);
        h.add_edge(0, 1);
        let fill = g.fill_edges_of(&h);
        assert_eq!(fill.len(), 2);
        assert!(fill.contains(&(3, 4)));
        assert!(fill.contains(&(0, 1)));
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = paper_graph();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.m());
        assert!(edges.iter().all(|&(u, v)| u < v));
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = Graph::new(0);
        assert!(g.is_connected());
        assert_eq!(g.components().len(), 0);
        let g1 = Graph::new(1);
        assert!(g1.is_connected());
        assert_eq!(g1.components().len(), 1);
    }
}
