//! Property tests for the substrate crates: minimal separators, the
//! crossing relation, potential maximal cliques, and the chordal machinery.
//!
//! These are the cross-validation tests DESIGN.md commits to: every fast
//! algorithm is checked against a brute-force reference on random graphs.

mod common;

use common::arbitrary_graph;
use mtr_chordal::{
    clique_tree, is_chordal, is_minimal_triangulation, lb_triang, maximal_cliques_chordal, mcs_m,
    minimal_separators_from_cliques,
};
use mtr_graph::{Graph, VertexSet};
use mtr_pmc::{potential_maximal_cliques, potential_maximal_cliques_bruteforce};
use mtr_separators::{crosses, minimal_separators, minimal_separators_bruteforce, SeparatorGraph};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The Berry–Bordat–Cogis enumeration agrees with brute force.
    #[test]
    fn minimal_separators_match_bruteforce(g in arbitrary_graph(3, 9)) {
        prop_assert_eq!(minimal_separators(&g), minimal_separators_bruteforce(&g));
    }

    /// Crossing is symmetric (Kloks et al. / Parra–Scheffler).
    #[test]
    fn crossing_is_symmetric(g in arbitrary_graph(3, 9)) {
        let seps = minimal_separators(&g);
        for s in &seps {
            for t in &seps {
                prop_assert_eq!(crosses(&g, s, t), crosses(&g, t, s));
            }
        }
    }

    /// The incremental PMC enumeration agrees with brute force.
    #[test]
    fn pmcs_match_bruteforce(g in arbitrary_graph(3, 9)) {
        let fast = potential_maximal_cliques(&g);
        let brute = potential_maximal_cliques_bruteforce(&g);
        prop_assert_eq!(fast.pmcs, brute);
    }

    /// The bounded PMC enumeration finds every PMC within the size bound.
    #[test]
    fn bounded_pmcs_are_a_size_filter(g in arbitrary_graph(3, 8), bound in 1usize..6) {
        let bounded = mtr_pmc::potential_maximal_cliques_bounded(&g, bound);
        let brute: Vec<VertexSet> = potential_maximal_cliques_bruteforce(&g)
            .into_iter()
            .filter(|p| p.len() <= bound)
            .collect();
        prop_assert_eq!(bounded.pmcs, brute);
    }

    /// LB-Triang produces a minimal triangulation for any ordering (we test
    /// the identity and the reversed ordering).
    #[test]
    fn lb_triang_is_minimal(g in arbitrary_graph(2, 10)) {
        let forward: Vec<u32> = (0..g.n()).collect();
        let backward: Vec<u32> = (0..g.n()).rev().collect();
        for order in [forward, backward] {
            let h = lb_triang(&g, &order);
            prop_assert!(is_minimal_triangulation(&g, &h));
        }
    }

    /// MCS-M produces a minimal triangulation and a PEO of it.
    #[test]
    fn mcs_m_is_minimal(g in arbitrary_graph(2, 10)) {
        let r = mcs_m(&g);
        prop_assert!(is_minimal_triangulation(&g, &r.triangulation));
        prop_assert!(mtr_chordal::is_perfect_elimination_ordering(
            &r.triangulation,
            &r.elimination_order
        ));
    }

    /// Clique trees of minimal triangulations are valid tree decompositions
    /// of the original graph whose bags are the triangulation's cliques.
    #[test]
    fn clique_trees_are_valid_decompositions(g in arbitrary_graph(2, 10)) {
        let h = lb_triang(&g, &(0..g.n()).collect::<Vec<_>>());
        let t = clique_tree(&h).expect("triangulations are chordal");
        prop_assert!(t.is_valid(&g));
        prop_assert!(t.is_clique_tree_of(&h));
        let cliques = maximal_cliques_chordal(&h).unwrap();
        prop_assert_eq!(t.num_bags(), cliques.len());
        // Width/fill of the decomposition match the triangulation.
        prop_assert_eq!(t.fill_in(&g), h.m() - g.m());
    }

    /// Parra–Scheffler: saturating a maximal set of pairwise-parallel minimal
    /// separators yields a minimal triangulation whose separators are exactly
    /// that set.
    #[test]
    fn parra_scheffler_saturation(g in arbitrary_graph(3, 9)) {
        let seps = minimal_separators(&g);
        let sg = SeparatorGraph::build(&g, seps);
        let k = sg.len() as u32;
        let mis = sg.greedy_maximal_independent(&VertexSet::empty(k));
        prop_assert!(sg.is_maximal_independent(&mis));
        let mut h = g.clone();
        for i in mis.iter() {
            h.saturate(&sg.separators()[i as usize]);
        }
        prop_assert!(is_minimal_triangulation(&g, &h));
        // MinSep(H) equals the saturated set.
        let mut expected: Vec<VertexSet> = mis
            .iter()
            .map(|i| sg.separators()[i as usize].clone())
            .collect();
        expected.sort();
        let mut actual = minimal_separators(&h);
        actual.sort();
        prop_assert_eq!(&actual, &expected);
        // So do the adhesions of its clique tree, the source the ranked
        // enumeration takes them from.
        let cliques = maximal_cliques_chordal(&h).expect("H is chordal");
        prop_assert_eq!(minimal_separators_from_cliques(cliques), expected);
    }

    /// Chordality of `G ∪ K_bags` for any valid tree decomposition built by
    /// the library (here: the trivial one and the clique tree of LB-Triang).
    #[test]
    fn saturated_decompositions_are_chordal(g in arbitrary_graph(2, 9)) {
        let trivial = mtr_chordal::TreeDecomposition::trivial(&g);
        prop_assert!(is_chordal(&trivial.saturated_graph(&g)));
    }
}

/// `h` placed on the vertices `start..start + |V(h)|` of an `n`-vertex
/// graph whose other vertices form one clique `K` with no edge to `h`.
/// Returns the graph and `V(K)`.
fn embed_beside_clique(h: &Graph, n: u32, start: u32) -> (Graph, VertexSet) {
    let mut g = Graph::new(n);
    for (u, v) in h.edges() {
        g.add_edge(start + u, start + v);
    }
    let k = VertexSet::from_iter(n, (0..n).filter(|v| !(start..start + h.n()).contains(v)));
    g.saturate(&k);
    (g, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Separators and PMCs past one 64-bit word: `H` sits on vertices that
    /// straddle index 64 of a 72–130-vertex graph, beside a clique `K`.
    /// `K` is never a full component of a nonempty `S ⊆ V(H)`, and is
    /// itself one PMC, so the fast paths must give `H`'s brute-force
    /// separators, lifted, and its PMCs, lifted, plus `V(K)`.
    #[test]
    fn multi_word_universes_match_bruteforce(
        h in arbitrary_graph(3, 9),
        n in 72u32..=130,
        below in 1u32..=8,
        bound in 1usize..6,
    ) {
        // At least one vertex of H below index 64, and one at or above it.
        let start = 64 - below.min(h.n() - 1);
        let (g, k) = embed_beside_clique(&h, n, start);
        let lift = |sets: Vec<VertexSet>| {
            let mut lifted: Vec<VertexSet> = sets
                .iter()
                .map(|s| VertexSet::from_iter(n, s.iter().map(|v| start + v)))
                .collect();
            lifted.sort();
            lifted
        };
        let seps = lift(minimal_separators_bruteforce(&h));
        let mut pmcs = lift(potential_maximal_cliques_bruteforce(&h));
        pmcs.push(k);
        pmcs.sort();

        prop_assert_eq!(&minimal_separators(&g), &seps);
        let e = potential_maximal_cliques(&g);
        prop_assert_eq!(&e.minimal_separators, &seps);
        prop_assert_eq!(&e.pmcs, &pmcs);
        let bounded = mtr_pmc::potential_maximal_cliques_bounded(&g, bound);
        let fits = |sets: &[VertexSet]| -> Vec<VertexSet> {
            sets.iter().filter(|s| s.len() <= bound).cloned().collect()
        };
        prop_assert_eq!(bounded.minimal_separators, fits(&seps));
        prop_assert_eq!(bounded.pmcs, fits(&pmcs));
    }
}

/// Non-proptest regression cases: graphs that exercised bugs during
/// development or that have known exact counts.
#[test]
fn known_counts() {
    // Number of minimal separators of C_n is n(n-3)/2.
    for n in 4..9u32 {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let c = Graph::from_edges(n, &edges);
        assert_eq!(
            minimal_separators(&c).len(),
            (n * (n - 3) / 2) as usize,
            "C{n}"
        );
    }
    // The Petersen graph: every minimal separator has ≥ 3 vertices, and the
    // graph is vertex-transitive with 3-connectivity.
    let petersen = {
        let mut g = Graph::new(10);
        for i in 0..5u32 {
            g.add_edge(i, (i + 1) % 5);
            g.add_edge(5 + i, 5 + (i + 2) % 5);
            g.add_edge(i, 5 + i);
        }
        g
    };
    let seps = minimal_separators(&petersen);
    assert!(!seps.is_empty());
    assert!(seps.iter().all(|s| s.len() >= 3));
    // And the Petersen graph has a non-trivial PMC set.
    assert!(!potential_maximal_cliques(&petersen).pmcs.is_empty());
}
