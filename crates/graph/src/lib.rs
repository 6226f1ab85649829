//! `mtr-graph`: the graph substrate for the ranked-triangulations workspace.
//!
//! This crate provides the data structures every other crate builds on:
//!
//! * [`VertexSet`] — a dense bitset over the vertices of one host graph;
//!   minimal separators, blocks, potential maximal cliques and bags are all
//!   represented with it.
//! * [`Graph`] — a simple undirected graph with bitset adjacency and the
//!   neighborhood / component / saturation operations the Bouchitté–Todinca
//!   machinery needs.
//! * [`Hypergraph`] — join queries and constraint scopes, with primal-graph
//!   extraction and exact bag edge covers for hypertree-width-style costs.
//! * [`io`] — parsers and writers for PACE `.gr`, DIMACS `.col` and plain
//!   edge-list files.
//! * [`canonical`] — canonical labeling for small-to-medium graphs
//!   (individualization–refinement with orbit pruning), producing the
//!   stable 128-bit [`CanonicalKey`] content addresses the atom cache of
//!   `mtr-cache` is keyed by.
//!
//! The crate is dependency-free and deliberately small; all triangulation
//! logic lives in the crates layered on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod graph;
pub mod hypergraph;
pub mod io;
pub mod vertexset;

pub use canonical::{AutGroup, CanonicalForm, CanonicalKey};
pub use graph::{Components, Graph};
pub use hypergraph::Hypergraph;
pub use vertexset::{Vertex, VertexSet};

/// Builds the running-example graph of the paper (Figure 1(a)).
///
/// Vertices: `u = 0`, `v = 1`, `v' = 2`, `w1 = 3`, `w2 = 4`, `w3 = 5`.
/// `u` and `v` are adjacent to each of `w1, w2, w3`, and `v'` is adjacent to
/// `v`. The graph has exactly three minimal separators
/// (`{w1,w2,w3}`, `{u,v}`, `{v}`) and two minimal triangulations, which makes
/// it the standard fixture for unit tests across the workspace.
pub fn paper_example_graph() -> Graph {
    Graph::from_edges(6, &[(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (1, 2)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_shape() {
        let g = paper_example_graph();
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 7);
        assert!(g.is_connected());
    }
}
