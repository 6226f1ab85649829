//! Property tests for the cost-function layer: the semantics the ranked
//! enumeration relies on (Section 3 and Lemma 6.2 of the paper), checked
//! empirically over random graphs and over the full set of their minimal
//! triangulations.

mod common;

use common::arbitrary_graph;
use mtr_core::cost::{
    BagCost, Constraints, CostValue, FillIn, WeightedFillIn, WeightedWidth, Width, WidthThenFill,
};
use mtr_core::{all_triangulations_ranked, min_triangulation_with, Enumerate, Preprocessed};
use mtr_graph::Graph;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Evaluating a cost on the bags of an enumerated triangulation agrees
    /// with the direct definition of that cost on the triangulation graph:
    /// width = largest clique - 1, fill = |E(H)| - |E(G)|, and the weighted
    /// variants with unit weights coincide with bag size / plain fill.
    #[test]
    fn classic_costs_agree_with_direct_definitions(g in arbitrary_graph(3, 7)) {
        let scope = g.vertex_set();
        let unit_vertex_weights = WeightedWidth::new(vec![1.0; g.n() as usize]);
        let unit_edge_costs = WeightedFillIn::new(1.0, Vec::new());
        for t in all_triangulations_ranked(&g, &FillIn) {
            let width = Width.cost_of_bags(&g, &scope, &t.bags);
            prop_assert_eq!(width, CostValue::from_usize(t.width()));
            let fill = FillIn.cost_of_bags(&g, &scope, &t.bags);
            prop_assert_eq!(fill, CostValue::from_usize(t.fill_in(&g)));
            // Unit vertex weights: bag weight = bag size, so the cost is
            // width + 1 (no "-1" in the weighted definition).
            let ww = unit_vertex_weights.cost_of_bags(&g, &scope, &t.bags);
            prop_assert_eq!(ww, CostValue::from_usize(t.width() + 1));
            // Unit edge costs: weighted fill equals plain fill.
            let wf = unit_edge_costs.cost_of_bags(&g, &scope, &t.bags);
            prop_assert_eq!(wf, fill);
        }
    }

    /// `WidthThenFill` realizes the lexicographic (width, fill) order over
    /// the minimal triangulations of a graph.
    #[test]
    fn width_then_fill_is_lexicographic(g in arbitrary_graph(3, 7)) {
        let scope = g.vertex_set();
        let all = all_triangulations_ranked(&g, &FillIn);
        for a in &all {
            for b in &all {
                let ca = WidthThenFill.cost_of_bags(&g, &scope, &a.bags);
                let cb = WidthThenFill.cost_of_bags(&g, &scope, &b.bags);
                let lex_a = (a.width(), a.fill_in(&g));
                let lex_b = (b.width(), b.fill_in(&g));
                if lex_a < lex_b {
                    prop_assert!(ca < cb, "lexicographic order not respected: {lex_a:?} vs {lex_b:?}");
                }
                if lex_a == lex_b {
                    prop_assert_eq!(ca, cb);
                }
            }
        }
    }

    /// `MinTriang⟨κ[I, X]⟩` against the ranked stream as an oracle (Lemma
    /// 6.2): under include-only, exclude-only and mixed constraint sets
    /// built from the first result's separators, `min_triangulation_with`
    /// finds a satisfying triangulation exactly when the stream has one,
    /// and its cost is that of the first satisfying member.
    #[test]
    fn constrained_solve_matches_ranked_oracle(g in arbitrary_graph(4, 7)) {
        let pre = Preprocessed::new(&g);
        let all = all_triangulations_ranked(&g, &FillIn);
        prop_assume!(!all.is_empty());
        let seps = &all[0].minimal_separators;
        prop_assume!(!seps.is_empty());
        let mut sets = vec![Constraints::new(seps.clone(), Vec::new())];
        for (k, sep) in seps.iter().enumerate() {
            sets.push(Constraints::new(vec![sep.clone()], Vec::new()));
            sets.push(Constraints::new(Vec::new(), vec![sep.clone()]));
            // The staircase child a Lawler expansion of the first result
            // builds: the earlier separators included, this one excluded.
            sets.push(Constraints::new(seps[..k].to_vec(), vec![sep.clone()]));
        }
        for constraints in &sets {
            let oracle = all.iter().find(|t| constraints.satisfied_by_graph(&t.triangulation));
            let best = min_triangulation_with(&pre, &FillIn, constraints);
            prop_assert_eq!(
                best.as_ref().map(|t| t.cost),
                oracle.map(|t| t.cost),
                "{:?}",
                constraints
            );
            if let Some(best) = best {
                prop_assert!(constraints.satisfied_by_graph(&best.graph));
                prop_assert_eq!(best.cost, CostValue::from_usize(best.fill_in(&g)));
            }
        }
    }

    /// Optimizing one cost never beats the dedicated optimum of another
    /// cost: min-width over the fill-ranked stream is ≥ the width optimum,
    /// and vice versa (a cross-consistency check between `MinTriang` runs).
    #[test]
    fn cross_cost_optima_are_consistent(g in arbitrary_graph(3, 8)) {
        let pre = Preprocessed::new(&g);
        let best_width = mtr_core::min_triangulation(&pre, &Width).unwrap();
        let best_fill = mtr_core::min_triangulation(&pre, &FillIn).unwrap();
        prop_assert!(best_width.width() <= best_fill.width());
        prop_assert!(best_fill.fill_in(&g) <= best_width.fill_in(&g));
        // And the lexicographic optimum has the optimal width with the
        // smallest fill among width-optimal triangulations.
        let lex = mtr_core::min_triangulation(&pre, &WidthThenFill).unwrap();
        prop_assert_eq!(lex.width(), best_width.width());
        let min_fill_at_best_width = all_triangulations_ranked(&g, &FillIn)
            .into_iter()
            .filter(|t| t.width() == best_width.width())
            .map(|t| t.fill_in(&g))
            .min()
            .unwrap();
        prop_assert_eq!(lex.fill_in(&g), min_fill_at_best_width);
    }
}

/// A regression case pinning the exact costs of the paper's two
/// triangulations under every shipped cost function.
#[test]
fn paper_example_costs_are_pinned() {
    let g = mtr_graph::paper_example_graph();
    let all = all_triangulations_ranked(&g, &FillIn);
    assert_eq!(all.len(), 2);
    let (h2, h1) = (&all[0], &all[1]); // fill 1 first, fill 3 second
    let scope = g.vertex_set();
    let table: Vec<(&dyn BagCost, f64, f64)> = vec![
        (&Width, 2.0, 3.0),
        (&FillIn, 1.0, 3.0),
        (&WidthThenFill, 15.0, 24.0), // 7*2+1 and 7*3+3
    ];
    for (cost, expected_h2, expected_h1) in table {
        assert_eq!(
            cost.cost_of_bags(&g, &scope, &h2.bags),
            CostValue::finite(expected_h2),
            "{} on H2",
            cost.name()
        );
        assert_eq!(
            cost.cost_of_bags(&g, &scope, &h1.bags),
            CostValue::finite(expected_h1),
            "{} on H1",
            cost.name()
        );
    }
}

/// The `Graph`-level helpers the costs rely on stay consistent on random
/// inputs generated by the workload crate (a cross-crate smoke check).
#[test]
fn workload_graphs_have_consistent_edge_counts() {
    for seed in 0..5 {
        let g = mtr_workloads::random::gnp_connected(25, 0.15, seed);
        let m_from_edges = g.edges().count();
        assert_eq!(m_from_edges, g.m());
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        assert_eq!(degree_sum, 2 * g.m());
        let missing = g.missing_edges_in(&g.vertex_set());
        assert_eq!(missing + g.m(), 25 * 24 / 2);
    }
}

/// Sanity on an adversarial shape: a graph that is one big clique minus a
/// perfect matching (dense, many separators of size n-2).
#[test]
fn clique_minus_matching() {
    let n = 8u32;
    let mut g = Graph::complete(n);
    for i in 0..n / 2 {
        g.remove_edge(2 * i, 2 * i + 1);
    }
    let pre = Preprocessed::new(&g);
    let results = Enumerate::with(&pre).cost(&FillIn).run().unwrap().results;
    // Each minimal triangulation adds chords for a subset of the "missing"
    // matching edges; there are 2^(n/2) - ... at least one and all are
    // minimal triangulations of fill ≤ n/2.
    assert!(!results.is_empty());
    for r in &results {
        assert!(mtr_chordal::is_minimal_triangulation(&g, &r.triangulation));
        assert!(r.fill_in(&g) <= (n / 2) as usize);
    }
    // Order is by fill.
    for w in results.windows(2) {
        assert!(w[0].cost <= w[1].cost);
    }
}
