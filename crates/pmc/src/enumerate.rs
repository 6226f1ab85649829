//! Enumeration of all potential maximal cliques (Bouchitté–Todinca).
//!
//! The enumeration follows the "one more vertex" scheme of Bouchitté and
//! Todinca (*Listing all potential maximal cliques of a graph*, TCS 2002):
//! vertices are introduced one at a time (`G_1 ⊂ G_2 ⊂ … ⊂ G_n`, each `G_i`
//! induced by the first `i` vertices), and `PMC(G_i)` is computed from
//! `PMC(G_{i-1})`, `MinSep(G_{i-1})` and `MinSep(G_i)`.
//!
//! Soundness is guaranteed by filtering every candidate through the exact
//! polynomial PMC test ([`crate::test::is_potential_maximal_clique`]).
//! For completeness we generate a *superset* of the candidate families of
//! the published theorem:
//!
//! * every `Ω' ∈ PMC(G_{i-1})`, and `Ω' ∪ {a}`;
//! * `S ∪ {a}` for every `S ∈ MinSep(G_i)`;
//! * `S ∪ (T ∩ C)` for `S` ranging over `MinSep(G_i) ∪ MinSep(G_{i-1})`
//!   (with `a ∉ S`), `T ∈ MinSep(G_i)`, and `C` the component of
//!   `G_i \ S` containing the new vertex `a`, as well as the variant using
//!   every full component of `G_i \ S`.
//!
//! The extra variants cost a constant factor and make the generation robust;
//! completeness is additionally cross-validated against the brute-force
//! enumeration by property tests over random graphs (see
//! `tests/substrate_properties.rs` at the workspace root and the unit tests
//! below).
//!
//! **Work per prefix.** Every set lives in the universe of `G`: the prefix
//! graph `G_i` is one `n`-vertex graph that gains vertex `a`'s edges to
//! earlier vertices at step `i`, so no candidate or component is ever
//! projected between universes. Family 3 takes the components of
//! `G_i \ S` and their neighborhoods from one [`Graph::components_into`]
//! pass per `S`, and builds each `S ∪ (T ∩ C)` in one scratch set,
//! skipping the `T` that miss `C`. A candidate is cloned into the
//! per-prefix set only when it is new and within `max_size`, and every
//! candidate goes through one reusable `PmcTest` over `within = V(G_i)`.
//! Only the prefix separators are still computed on a compact copy,
//! `minimal_separators(&g.induced_prefix(i))`. [`PmcEnumeration`] reports
//! how many candidates went through the exact test and how many passed,
//! the deterministic measure of this layer's work.

use crate::test::PmcTest;
use mtr_graph::{Components, Graph, VertexSet};
use mtr_separators::enumerate::minimal_separators;
use std::collections::HashSet;

/// Error returned by [`potential_maximal_cliques_until`] when its stop
/// check fires before the enumeration finishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PmcStopped;

impl std::fmt::Display for PmcStopped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PMC enumeration was stopped before it finished")
    }
}

impl std::error::Error for PmcStopped {}

/// Result of a PMC enumeration: the cliques plus the separator sets of every
/// prefix, which the callers (notably the triangulation DP) reuse.
#[derive(Clone, Debug)]
pub struct PmcEnumeration {
    /// All potential maximal cliques of the input graph, sorted.
    pub pmcs: Vec<VertexSet>,
    /// All minimal separators of the input graph, sorted.
    pub minimal_separators: Vec<VertexSet>,
    /// Candidates handed to the exact PMC test, summed over all prefixes.
    pub candidates_tested: u64,
    /// Candidates the exact test accepted, summed over all prefixes.
    pub candidates_accepted: u64,
}

/// Enumerates all potential maximal cliques of `g`, along with its minimal
/// separators.
pub fn potential_maximal_cliques(g: &Graph) -> PmcEnumeration {
    potential_maximal_cliques_until(g, None, || false).expect("nothing stops it")
}

/// Enumerates the potential maximal cliques of `g` of size at most
/// `max_size`, using only minimal separators of size at most `max_size`
/// during the incremental generation.
///
/// This is the `MinTriangB` variant of the machinery (Section 5.3): when the
/// caller only cares about tree decompositions of width `b`, passing
/// `max_size = b + 1` bounds the work independently of the poly-MS
/// assumption.
pub fn potential_maximal_cliques_bounded(g: &Graph, max_size: usize) -> PmcEnumeration {
    potential_maximal_cliques_until(g, Some(max_size), || false).expect("nothing stops it")
}

/// The enumeration behind every entry point: PMCs of size at most
/// `max_size` when one is given (see [`potential_maximal_cliques_bounded`]),
/// aborting with [`PmcStopped`] once `stop` returns `true`. `stop` is
/// polled before each prefix and every 256 candidate tests; sessions pass a
/// check of their deadline and cancel flag, and the tractability
/// experiments (Figure 5), which classify graphs by whether the PMC
/// computation finishes within a time limit, pass a deadline check.
pub fn potential_maximal_cliques_until(
    g: &Graph,
    max_size: Option<usize>,
    stop: impl Fn() -> bool,
) -> Result<PmcEnumeration, PmcStopped> {
    let n = g.n();
    if n == 0 {
        return Ok(PmcEnumeration {
            pmcs: Vec::new(),
            minimal_separators: Vec::new(),
            candidates_tested: 0,
            candidates_accepted: 0,
        });
    }
    let fits = |s: &VertexSet| max_size.is_none_or(|m| s.len() <= m);
    let (mut tested, mut accepted) = (0, 0);

    // Separators of the previous prefix.
    let mut prev_seps: Vec<VertexSet> = Vec::new();
    // PMCs of the previous prefix.
    let mut prev_pmcs: Vec<VertexSet> = vec![VertexSet::singleton(n, 0)];
    // The prefix graph `G_i` over the full universe: vertex `a` gains its
    // edges to earlier vertices at step `i`, later vertices stay isolated.
    let mut gi = Graph::new(n);
    let mut prefix = VertexSet::singleton(n, 0);
    let mut candidates: HashSet<VertexSet> = HashSet::new();
    // Scratch reused by every prefix.
    let mut cand = VertexSet::empty(n);
    let mut rest = VertexSet::empty(n);
    let mut comps = Components::default();
    let mut test = PmcTest::default();
    // Offers `cand` as a candidate: cloned only when it is new and fits.
    let offer = |cand: &VertexSet, candidates: &mut HashSet<VertexSet>| {
        if fits(cand) && !candidates.contains(cand) {
            candidates.insert(cand.clone());
        }
    };

    for i in 2..=n {
        if stop() {
            return Err(PmcStopped);
        }
        let a = i - 1; // the newly introduced vertex
        for v in g.neighbors(a).iter().take_while(|&v| v < a) {
            gi.add_edge(a, v);
        }
        prefix.insert(a);
        // Minimal separators of the prefix graph, in the full universe.
        let cur_seps: Vec<VertexSet> = minimal_separators(&g.induced_prefix(i))
            .into_iter()
            .map(|s| s.resized(n))
            .filter(|s| fits(s))
            .collect();

        // Family 0: the new vertex on its own (needed when `a` is isolated in
        // the prefix, e.g. while its only neighbors are later vertices).
        cand.clear();
        cand.insert(a);
        offer(&cand, &mut candidates);
        // Family 1: previous PMCs, with and without the new vertex.
        for omega in &prev_pmcs {
            offer(omega, &mut candidates);
            cand.copy_from(omega);
            cand.insert(a);
            offer(&cand, &mut candidates);
        }
        // Family 2: S ∪ {a} for S ∈ MinSep(G_i).
        for s in &cur_seps {
            cand.copy_from(s);
            cand.insert(a);
            offer(&cand, &mut candidates);
        }
        // Family 3: S ∪ (T ∩ C) for S in MinSep(G_i) ∪ MinSep(G_{i-1}),
        // a ∉ S, T ∈ MinSep(G_i), and C either the component of G_i \ S
        // containing a or any full component of G_i \ S. One component
        // pass per S gives every C with its neighborhood.
        for s in cur_seps.iter().chain(prev_seps.iter()) {
            if s.contains(a) {
                continue;
            }
            rest.copy_from(&prefix);
            rest.difference_with(s);
            gi.components_into(&rest, &mut comps);
            for (c, nb) in comps.iter() {
                if !c.contains(a) && !s.is_subset_of(nb) {
                    continue;
                }
                for t in cur_seps.iter().filter(|t| t.intersects(c)) {
                    cand.copy_from(t);
                    cand.intersect_with(c);
                    cand.union_with(s);
                    offer(&cand, &mut candidates);
                }
            }
        }

        // Filter candidates through the exact PMC test on the prefix graph.
        let mut next_pmcs: Vec<VertexSet> = Vec::new();
        for (k, cand) in candidates.drain().enumerate() {
            if (k + 1).is_multiple_of(256) && stop() {
                return Err(PmcStopped);
            }
            tested += 1;
            if test.is_pmc(&gi, &prefix, &cand) {
                accepted += 1;
                next_pmcs.push(cand);
            }
        }
        next_pmcs.sort();
        prev_pmcs = next_pmcs;
        prev_seps = cur_seps;
    }

    // After the last prefix, `prev_seps` holds MinSep(G); for n == 1 the
    // loop body never runs, and the single vertex is the only PMC.
    Ok(PmcEnumeration {
        pmcs: prev_pmcs,
        minimal_separators: prev_seps,
        candidates_tested: tested,
        candidates_accepted: accepted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::potential_maximal_cliques_bruteforce;
    use mtr_graph::paper_example_graph;

    fn check_matches_bruteforce(g: &Graph) {
        let fast = potential_maximal_cliques(g);
        let brute = potential_maximal_cliques_bruteforce(g);
        assert_eq!(fast.pmcs, brute, "PMC mismatch on {g:?}");
    }

    #[test]
    fn paper_example_pmcs() {
        let g = paper_example_graph();
        let result = potential_maximal_cliques(&g);
        assert_eq!(result.pmcs.len(), 6);
        assert_eq!(result.minimal_separators.len(), 3);
        check_matches_bruteforce(&g);
    }

    #[test]
    fn small_fixed_graphs_match_bruteforce() {
        let cases: Vec<Graph> = vec![
            Graph::new(1),
            Graph::new(3),
            Graph::from_edges(2, &[(0, 1)]),
            Graph::complete(5),
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]), // C4
            Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), // C5
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]), // C6
            Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]), // path
            Graph::from_edges(7, &[(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (5, 6)]), // tree
            // K4 minus an edge plus a pendant.
            Graph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]),
            // Two triangles sharing one vertex.
            Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
            // 3x2 grid.
            Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)]),
        ];
        for g in cases {
            check_matches_bruteforce(&g);
        }
    }

    #[test]
    fn disconnected_graph_matches_bruteforce() {
        // Two disjoint paths.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        check_matches_bruteforce(&g);
        // Isolated vertex plus a triangle.
        let g2 = Graph::from_edges(4, &[(1, 2), (2, 3), (1, 3)]);
        check_matches_bruteforce(&g2);
    }

    #[test]
    fn bounded_enumeration_is_a_size_filter() {
        let g = paper_example_graph();
        let all = potential_maximal_cliques(&g);
        for bound in 1..=6 {
            let bounded = potential_maximal_cliques_bounded(&g, bound);
            let expected: Vec<VertexSet> = all
                .pmcs
                .iter()
                .filter(|p| p.len() <= bound)
                .cloned()
                .collect();
            assert_eq!(bounded.pmcs, expected, "bound {bound}");
        }
    }

    #[test]
    fn a_raised_stop_check_aborts_the_enumeration() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        assert_eq!(
            potential_maximal_cliques_until(&g, None, || true).unwrap_err(),
            PmcStopped
        );
        // A check that fires only later stops it at a later checkpoint.
        let polls = std::cell::Cell::new(0);
        let stopped = potential_maximal_cliques_until(&g, None, || {
            polls.set(polls.get() + 1);
            polls.get() > 3
        });
        assert_eq!(stopped.unwrap_err(), PmcStopped);
        assert_eq!(polls.get(), 4);
    }

    #[test]
    fn empty_graph() {
        let result = potential_maximal_cliques(&Graph::new(0));
        assert!(result.pmcs.is_empty());
    }

    #[test]
    fn mildly_dense_graph_matches_bruteforce() {
        // Wheel W5: hub 0 connected to a C5.
        let mut edges = vec![(1u32, 2u32), (2, 3), (3, 4), (4, 5), (5, 1)];
        for v in 1..=5 {
            edges.push((0, v));
        }
        let g = Graph::from_edges(6, &edges);
        check_matches_bruteforce(&g);
    }
}
