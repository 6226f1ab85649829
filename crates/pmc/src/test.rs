//! The polynomial-time potential-maximal-clique test.
//!
//! A vertex set `Ω` is a *potential maximal clique* (PMC) of `G` iff it is a
//! maximal clique of some minimal triangulation of `G` — equivalently, a bag
//! of some proper tree decomposition. Bouchitté and Todinca give a local
//! characterization that avoids looking at any triangulation:
//!
//! 1. **No full component**: no component `C` of `G \ Ω` has `N(C) = Ω`.
//! 2. **Cliquish**: for every pair of distinct vertices `x, y ∈ Ω` that are
//!    not adjacent in `G`, some component `C` of `G \ Ω` has both `x` and
//!    `y` in its neighborhood (so saturating the associated minimal
//!    separator `N(C)` adds the missing edge).
//!
//! Both conditions are checked here in `O(n·m)` time, by `PmcTest` on
//! buffers it keeps from one test to the next: one pass of
//! [`Graph::components_into`] gives every component of `G \ Ω` with its
//! neighborhood, and each condition is a few word-parallel set operations.

use mtr_graph::{Components, Graph, VertexSet};

/// `true` iff `omega` is a potential maximal clique of `g`. A one-off
/// wrapper over `PmcTest`, which the enumeration reuses across candidates.
pub fn is_potential_maximal_clique(g: &Graph, omega: &VertexSet) -> bool {
    PmcTest::default().is_pmc(g, &g.vertex_set(), omega)
}

/// The exact PMC test, with the scratch sets and component buffers it
/// reuses across calls.
#[derive(Clone, Debug, Default)]
pub(crate) struct PmcTest {
    comps: Components,
    rest: VertexSet,
    covered: VertexSet,
    need: VertexSet,
}

impl PmcTest {
    /// `true` iff `omega ⊆ within` is a potential maximal clique of the
    /// induced subgraph `g[within]`.
    pub(crate) fn is_pmc(&mut self, g: &Graph, within: &VertexSet, omega: &VertexSet) -> bool {
        debug_assert!(omega.is_subset_of(within));
        if omega.is_empty() {
            return false;
        }
        if self.rest.universe() != g.n() {
            self.rest = VertexSet::empty(g.n());
            self.covered = VertexSet::empty(g.n());
            self.need = VertexSet::empty(g.n());
        }
        self.rest.copy_from(within);
        self.rest.difference_with(omega);
        g.components_into(&self.rest, &mut self.comps);
        // A neighborhood may reach past `within`, but its part inside is
        // within `Ω`; so `Ω ⊆ N(C)` is what makes `C` full in `g[within]`.
        // Condition 1: no full component.
        if self.comps.iter().any(|(_, nb)| omega.is_subset_of(nb)) {
            return false;
        }
        // Condition 2: cliquish, word-parallel. For a fixed `x ∈ Ω` every
        // missing partner `y` must share a component neighborhood with `x`,
        // so the union of the neighborhoods containing `x` must cover all of
        // `Ω \ N(x) \ {x}` — one subset test over bit words per vertex
        // instead of a component scan per non-adjacent pair.
        for x in omega.iter() {
            self.covered.clear();
            for (_, nb) in self.comps.iter() {
                if nb.contains(x) {
                    self.covered.union_with(nb);
                }
            }
            self.need.copy_from(omega);
            self.need.difference_with(g.neighbors(x));
            self.need.remove(x);
            if !self.need.is_subset_of(&self.covered) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtr_graph::paper_example_graph;

    #[test]
    fn paper_example_pmcs() {
        let g = paper_example_graph();
        // Bags of the proper tree decompositions T1 and T2 (Figure 1(c)).
        for omega in [
            VertexSet::from_slice(6, &[0, 3, 4, 5]), // {u,w1,w2,w3}
            VertexSet::from_slice(6, &[1, 3, 4, 5]), // {v,w1,w2,w3}
            VertexSet::from_slice(6, &[1, 2]),       // {v,v'}
            VertexSet::from_slice(6, &[0, 1, 3]),    // {u,v,w1}
            VertexSet::from_slice(6, &[0, 1, 4]),    // {u,v,w2}
            VertexSet::from_slice(6, &[0, 1, 5]),    // {u,v,w3}
        ] {
            assert!(
                is_potential_maximal_clique(&g, &omega),
                "{omega:?} should be a PMC"
            );
        }
        // Non-PMCs: a minimal separator is never a PMC (its component is full),
        // and sets missing the cliquish condition are rejected.
        for omega in [
            VertexSet::from_slice(6, &[3, 4, 5]), // S1
            VertexSet::from_slice(6, &[0, 1]),    // S2
            VertexSet::from_slice(6, &[1]),       // S3
            VertexSet::from_slice(6, &[0, 1, 2]), // {u,v,v'}: u,v not covered together… actually {u,v} is covered; but {u,v'}?
            VertexSet::from_slice(6, &[0, 2]),    // {u,v'} far apart
            VertexSet::full(6),                   // whole graph is not a clique and G\Ω empty
            VertexSet::empty(6),
        ] {
            assert!(
                !is_potential_maximal_clique(&g, &omega),
                "{omega:?} should not be a PMC"
            );
        }
    }

    #[test]
    fn complete_graph_single_pmc() {
        let g = Graph::complete(4);
        assert!(is_potential_maximal_clique(&g, &VertexSet::full(4)));
        assert!(!is_potential_maximal_clique(
            &g,
            &VertexSet::from_slice(4, &[0, 1, 2])
        ));
    }

    #[test]
    fn single_vertex_graph() {
        let g = Graph::new(1);
        assert!(is_potential_maximal_clique(&g, &VertexSet::singleton(1, 0)));
    }

    #[test]
    fn chordal_graph_pmcs_are_its_maximal_cliques() {
        // For a chordal graph the only minimal triangulation is the graph
        // itself, so PMC(G) = MaxClq(G).
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert!(is_potential_maximal_clique(
            &path,
            &VertexSet::from_slice(4, &[0, 1])
        ));
        assert!(is_potential_maximal_clique(
            &path,
            &VertexSet::from_slice(4, &[1, 2])
        ));
        assert!(!is_potential_maximal_clique(
            &path,
            &VertexSet::from_slice(4, &[0, 2])
        ));
        assert!(!is_potential_maximal_clique(
            &path,
            &VertexSet::singleton(4, 1)
        ));
        // A single non-simplicial vertex is not a PMC; a simplicial leaf is not
        // a PMC either because its closed neighborhood strictly contains it.
        assert!(!is_potential_maximal_clique(
            &path,
            &VertexSet::singleton(4, 0)
        ));
    }

    #[test]
    fn cycle_pmcs_are_triples() {
        // PMC(C4) = the four vertex triples (each is a bag of one of the two
        // minimal triangulations).
        let c4 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        for omega in [
            VertexSet::from_slice(4, &[0, 1, 2]),
            VertexSet::from_slice(4, &[1, 2, 3]),
            VertexSet::from_slice(4, &[2, 3, 0]),
            VertexSet::from_slice(4, &[3, 0, 1]),
        ] {
            assert!(is_potential_maximal_clique(&c4, &omega));
        }
        assert!(!is_potential_maximal_clique(
            &c4,
            &VertexSet::from_slice(4, &[0, 1])
        ));
        assert!(!is_potential_maximal_clique(&c4, &VertexSet::full(4)));
    }
}
