//! Property tests for the paper's algorithms: `MinTriang`, `RankedTriang`,
//! the bounded-width variants, the proper-tree-decomposition enumeration and
//! the CKK-style baseline.
//!
//! The key invariants:
//!
//! * soundness — every emitted graph is a minimal triangulation;
//! * optimality — the first ranked result attains the brute-force optimum;
//! * completeness — the ranked enumeration, the baseline and (on very small
//!   graphs) an exhaustive search over fill-edge subsets all produce the
//!   same set of triangulations;
//! * order — costs are non-decreasing along the ranked enumeration;
//! * disjointness — the Lawler–Murty partitions never emit duplicates.

mod common;

use common::{all_minimal_triangulations_exhaustive, arbitrary_graph, fill_key};
use mtr_chordal::is_minimal_triangulation;
use mtr_core::cost::{BagCost, CostValue, ExpBagSum, FillIn, WeightedWidth, Width, WidthThenFill};
use mtr_core::{
    CkkEnumerator, Diversified, DiversityFilter, Enumerate, Preprocessed, RankedEnumerator,
    SimilarityMeasure, StopReason,
};
use mtr_graph::Graph;
use mtr_workloads::structured::{grid, mycielski};
use proptest::prelude::*;
use std::collections::HashSet;
use std::time::Duration;

fn ranked_fill_sets(g: &Graph, cost: &dyn BagCost) -> (Vec<CostValue>, HashSet<Vec<(u32, u32)>>) {
    let pre = Preprocessed::new(g);
    let mut enumerator = RankedEnumerator::new(&pre, cost);
    let mut costs = Vec::new();
    let mut fills = HashSet::new();
    for r in enumerator.by_ref() {
        costs.push(r.cost);
        fills.insert(fill_key(g, &r.triangulation));
    }
    assert_eq!(
        enumerator.duplicates_skipped(),
        0,
        "Lawler–Murty partitions overlapped"
    );
    (costs, fills)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness + order + completeness against the CKK-style baseline.
    #[test]
    fn ranked_enumeration_is_sound_complete_and_ordered(g in arbitrary_graph(3, 8)) {
        let pre = Preprocessed::new(&g);
        let results: Vec<_> = RankedEnumerator::new(&pre, &FillIn).collect();
        // Soundness and order.
        for r in &results {
            prop_assert!(is_minimal_triangulation(&g, &r.triangulation));
            prop_assert_eq!(r.cost, CostValue::from_usize(r.fill_in(&g)));
        }
        for w in results.windows(2) {
            prop_assert!(w[0].cost <= w[1].cost);
        }
        // No duplicates.
        let ranked_fills: HashSet<_> = results.iter().map(|r| fill_key(&g, &r.triangulation)).collect();
        prop_assert_eq!(ranked_fills.len(), results.len());
        // Completeness against the independent baseline implementation.
        let baseline_fills: HashSet<_> = CkkEnumerator::new(&g)
            .map(|r| fill_key(&g, &r.triangulation))
            .collect();
        prop_assert_eq!(ranked_fills, baseline_fills);
    }

    /// On very small graphs, both enumerators match the exhaustive search
    /// over every subset of non-edges.
    #[test]
    fn enumeration_matches_exhaustive_search(g in arbitrary_graph(3, 6)) {
        let exhaustive: HashSet<_> = all_minimal_triangulations_exhaustive(&g)
            .iter()
            .map(|h| fill_key(&g, h))
            .collect();
        let (_, ranked) = ranked_fill_sets(&g, &FillIn);
        prop_assert_eq!(&ranked, &exhaustive);
        let ckk: HashSet<_> = CkkEnumerator::new(&g)
            .map(|r| fill_key(&g, &r.triangulation))
            .collect();
        prop_assert_eq!(&ckk, &exhaustive);
    }

    /// The first result of the ranked enumeration attains the minimum cost
    /// over all minimal triangulations, for several cost functions.
    #[test]
    fn first_result_is_optimal(g in arbitrary_graph(3, 7)) {
        let pre = Preprocessed::new(&g);
        let weights: Vec<f64> = (0..g.n()).map(|v| 1.0 + (v % 3) as f64).collect();
        let weighted = WeightedWidth::new(weights);
        let costs: Vec<&dyn BagCost> = vec![&Width, &FillIn, &WidthThenFill, &ExpBagSum, &weighted];
        for cost in costs {
            let results: Vec<_> = RankedEnumerator::new(&pre, cost).collect();
            prop_assert!(!results.is_empty());
            let best = results.iter().map(|r| r.cost).min().unwrap();
            prop_assert_eq!(results[0].cost, best, "cost {}", cost.name());
            // And it agrees with a direct MinTriang call.
            let direct = mtr_core::min_triangulation(&pre, cost).unwrap();
            prop_assert_eq!(direct.cost, best, "MinTriang vs enumeration for {}", cost.name());
        }
    }

    /// Bounded-width enumeration returns exactly the width-≤ b subset of the
    /// full enumeration.
    #[test]
    fn bounded_width_enumeration_is_a_filter(g in arbitrary_graph(3, 7), bound in 1usize..5) {
        let pre_full = Preprocessed::new(&g);
        let full: Vec<_> = RankedEnumerator::new(&pre_full, &FillIn).collect();
        let expected: HashSet<_> = full
            .iter()
            .filter(|r| r.width() <= bound)
            .map(|r| fill_key(&g, &r.triangulation))
            .collect();
        let pre_bounded = Preprocessed::new_bounded(&g, bound);
        let bounded: HashSet<_> = RankedEnumerator::new(&pre_bounded, &FillIn)
            .map(|r| fill_key(&g, &r.triangulation))
            .collect();
        prop_assert_eq!(bounded, expected);
    }

    /// Proper tree decompositions: each emitted decomposition is valid for
    /// the input graph, is a clique tree of its triangulation, and costs are
    /// non-decreasing.
    #[test]
    fn proper_decompositions_are_valid(g in arbitrary_graph(3, 7)) {
        let pre = Preprocessed::new(&g);
        let results: Vec<_> =
            mtr_core::ProperDecompositionEnumerator::new(&pre, &Width, Some(3)).take(30).collect();
        prop_assert!(!results.is_empty());
        for d in &results {
            prop_assert!(d.decomposition.is_valid(&g));
            prop_assert!(d.decomposition.is_clique_tree_of(&d.triangulation));
        }
        for w in results.windows(2) {
            prop_assert!(w[0].cost <= w[1].cost);
        }
    }

    /// Budget semantics: a `.max_results(k)` session returns exactly the
    /// first `min(k, total)` results of the unbudgeted ranked stream, with
    /// the matching `StopReason`.
    #[test]
    fn max_results_sessions_are_ranked_prefixes(g in arbitrary_graph(3, 7), k in 0usize..8) {
        let pre = Preprocessed::new(&g);
        let full: Vec<_> = RankedEnumerator::new(&pre, &FillIn).collect();
        let run = Enumerate::with(&pre).cost(&FillIn).max_results(k).run().unwrap();
        let expected = k.min(full.len());
        prop_assert_eq!(run.results.len(), expected);
        for (b, f) in run.results.iter().zip(&full) {
            prop_assert_eq!(b.cost, f.cost);
            prop_assert_eq!(fill_key(&g, &b.triangulation), fill_key(&g, &f.triangulation));
        }
        if k <= full.len() {
            prop_assert_eq!(run.stop_reason, StopReason::MaxResults);
        } else {
            prop_assert_eq!(run.stop_reason, StopReason::Exhausted);
        }
    }

    /// Budget semantics: deadline sessions return a prefix of the ranked
    /// stream. A generous deadline exhausts the stream; a zero deadline
    /// stops before the first result with `DeadlineExceeded`.
    #[test]
    fn deadline_sessions_are_ranked_prefixes(g in arbitrary_graph(3, 7)) {
        let pre = Preprocessed::new(&g);
        let full: Vec<_> = RankedEnumerator::new(&pre, &FillIn).collect();
        let generous = Enumerate::with(&pre)
            .cost(&FillIn)
            .deadline(Duration::from_secs(3600))
            .run()
            .unwrap();
        prop_assert_eq!(generous.results.len(), full.len());
        prop_assert_eq!(generous.stop_reason, StopReason::Exhausted);
        let zero = Enumerate::with(&pre)
            .cost(&FillIn)
            .deadline(Duration::ZERO)
            .run()
            .unwrap();
        prop_assert!(zero.results.is_empty());
        prop_assert_eq!(zero.stop_reason, StopReason::DeadlineExceeded);
    }

    /// Budget semantics: a `.node_budget(n)` session returns a prefix of the
    /// unbudgeted stream and reports whether the budget was the binding
    /// constraint.
    #[test]
    fn node_budget_sessions_are_ranked_prefixes(g in arbitrary_graph(3, 7), nodes in 0usize..25) {
        let pre = Preprocessed::new(&g);
        let full: Vec<_> = RankedEnumerator::new(&pre, &FillIn).collect();
        let run = Enumerate::with(&pre).cost(&FillIn).node_budget(nodes).run().unwrap();
        prop_assert!(run.results.len() <= full.len());
        for (b, f) in run.results.iter().zip(&full) {
            prop_assert_eq!(b.cost, f.cost);
            prop_assert_eq!(fill_key(&g, &b.triangulation), fill_key(&g, &f.triangulation));
        }
        match run.stop_reason {
            StopReason::Exhausted => {
                prop_assert_eq!(run.results.len(), full.len());
                // Exhaustion is only reachable while the budget still holds.
                prop_assert!(run.stats.nodes_explored < nodes);
            }
            StopReason::NodeBudgetExhausted => {
                prop_assert!(run.stats.nodes_explored >= nodes);
            }
            other => prop_assert!(false, "unexpected stop reason {other:?}"),
        }
    }

    /// Shim equivalence: every builder configuration yields the same results
    /// as the hand-wired enumerator it replaces.
    #[test]
    fn builder_matches_direct_enumerators(g in arbitrary_graph(3, 7)) {
        let pre = Preprocessed::new(&g);

        // Sequential ranked enumeration.
        let direct: Vec<_> = RankedEnumerator::new(&pre, &FillIn).collect();
        let built = Enumerate::with(&pre).cost(&FillIn).run().unwrap();
        prop_assert_eq!(built.results.len(), direct.len());
        for (b, d) in built.results.iter().zip(&direct) {
            prop_assert_eq!(b.cost, d.cost);
            prop_assert_eq!(fill_key(&g, &b.triangulation), fill_key(&g, &d.triangulation));
        }
        prop_assert_eq!(built.stop_reason, StopReason::Exhausted);
        prop_assert_eq!(built.stats.duplicates_skipped, 0);

        // Pooled session: the same ranked stream as the inline enumerator,
        // in order (ties included).
        let built_par = Enumerate::with(&pre).cost(&FillIn).threads(3).run().unwrap();
        prop_assert_eq!(built_par.results.len(), direct.len());
        for (b, d) in built_par.results.iter().zip(&direct) {
            prop_assert_eq!(b.cost, d.cost);
            prop_assert_eq!(fill_key(&g, &b.triangulation), fill_key(&g, &d.triangulation));
        }

        // Width-bounded preprocessing.
        let bound = 2usize;
        let pre_bounded = Preprocessed::new_bounded(&g, bound);
        let direct_bounded: Vec<_> = RankedEnumerator::new(&pre_bounded, &FillIn).collect();
        let built_bounded = Enumerate::on(&g).width_bound(bound).cost(&FillIn).run().unwrap();
        prop_assert_eq!(built_bounded.results.len(), direct_bounded.len());
        for (b, d) in built_bounded.results.iter().zip(&direct_bounded) {
            prop_assert_eq!(b.cost, d.cost);
            prop_assert_eq!(fill_key(&g, &b.triangulation), fill_key(&g, &d.triangulation));
        }

        // Diversity filtering.
        let filter = DiversityFilter::new(&g, SimilarityMeasure::FillJaccard, 0.5);
        let direct_diverse: Vec<_> =
            Diversified::new(RankedEnumerator::new(&pre, &FillIn), filter).collect();
        let built_diverse = Enumerate::with(&pre)
            .cost(&FillIn)
            .diverse(SimilarityMeasure::FillJaccard, 0.5)
            .run()
            .unwrap();
        prop_assert_eq!(built_diverse.results.len(), direct_diverse.len());
        for (b, d) in built_diverse.results.iter().zip(&direct_diverse) {
            prop_assert_eq!(b.cost, d.cost);
            prop_assert_eq!(fill_key(&g, &b.triangulation), fill_key(&g, &d.triangulation));
        }

        // Proper tree decompositions.
        let direct_decs: Vec<_> =
            mtr_core::ProperDecompositionEnumerator::new(&pre, &Width, Some(2)).take(10).collect();
        let built_decs = Enumerate::with(&pre)
            .cost(&Width)
            .proper_decompositions(Some(2))
            .max_results(10)
            .run_decompositions()
            .unwrap();
        prop_assert_eq!(built_decs.results.len(), direct_decs.len());
        for (b, d) in built_decs.results.iter().zip(&direct_decs) {
            prop_assert_eq!(b.cost, d.cost);
            prop_assert_eq!(b.decomposition.bags(), d.decomposition.bags());
        }
    }

    /// The number of minimal triangulations equals the number of maximal
    /// independent sets of the separator crossing graph (Parra–Scheffler).
    #[test]
    fn count_matches_separator_graph_mis(g in arbitrary_graph(3, 7)) {
        use mtr_separators::{minimal_separators, SeparatorGraph};
        let seps = minimal_separators(&g);
        prop_assume!(seps.len() <= 18);
        let sg = SeparatorGraph::build(&g, seps.clone());
        // Brute-force count of maximal independent sets.
        let k = seps.len() as u32;
        let mut mis_count = 0usize;
        for mask in 0u32..(1u32 << k) {
            let set = mtr_graph::VertexSet::from_iter(k, (0..k).filter(|&i| (mask >> i) & 1 == 1));
            if sg.is_maximal_independent(&set) {
                mis_count += 1;
            }
        }
        let (_, ranked) = ranked_fill_sets(&g, &FillIn);
        prop_assert_eq!(ranked.len(), mis_count);
    }
}

/// Deterministic regression cases with known counts: cycles have
/// Catalan-number many minimal triangulations.
#[test]
fn cycle_triangulation_counts_are_catalan() {
    // A triangulation of the n-cycle is a triangulation of the n-gon, so the
    // count is the Catalan number C(n-2): 2, 5, 14, 42, 132 for n = 4..8.
    let catalan = [2usize, 5, 14, 42, 132];
    for n in 4..=8u32 {
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let c = Graph::from_edges(n, &edges);
        let pre = Preprocessed::new(&c);
        let count = RankedEnumerator::new(&pre, &FillIn).count();
        assert_eq!(count, catalan[(n - 4) as usize], "C{n}");
        let ckk_count = CkkEnumerator::new(&c).count();
        assert_eq!(ckk_count, count, "baseline disagrees on C{n}");
    }
}

/// The paper's Table-2-style quality claim on a fixed graph: every prefix of
/// the ranked enumeration is optimal, whereas the unranked baseline
/// interleaves qualities.
#[test]
fn ranked_prefix_quality_dominates_baseline() {
    // Two 5-cycles sharing a chord structure — enough triangulations to make
    // the ordering meaningful.
    let g = Graph::from_edges(
        8,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 0),
            (3, 5),
            (5, 6),
            (6, 7),
            (7, 4),
        ],
    );
    let pre = Preprocessed::new(&g);
    let ranked: Vec<_> = RankedEnumerator::new(&pre, &Width).collect();
    let baseline: Vec<_> = CkkEnumerator::new(&g).collect();
    assert_eq!(ranked.len(), baseline.len());
    let optimal = ranked[0].width();
    // Every prefix of the ranked output only contains optimal results until
    // the optimal ones are exhausted.
    let optimal_count = ranked.iter().filter(|r| r.width() == optimal).count();
    for (i, r) in ranked.iter().enumerate() {
        if i < optimal_count {
            assert_eq!(r.width(), optimal);
        }
    }
    // The baseline produces the same multiset of widths overall.
    let mut ranked_widths: Vec<usize> = ranked.iter().map(|r| r.width()).collect();
    let mut baseline_widths: Vec<usize> = baseline.iter().map(|r| r.width).collect();
    ranked_widths.sort_unstable();
    baseline_widths.sort_unstable();
    assert_eq!(ranked_widths, baseline_widths);
}

/// Inline and pooled runs are one engine: a session solves its children
/// inline at one thread and as pool batches above one, and either way it
/// emits the same ordered fill sequence (ties included) and does exactly the
/// same work. The counters are pinned, so a change to the Lawler core that
/// shifts work between the two paths — or changes it on both — fails here.
#[test]
fn inline_and_pooled_runs_agree_exactly() {
    // Two 6-cycles joined by a perfect matching.
    let mut prism_edges: Vec<(u32, u32)> = Vec::new();
    for i in 0..6u32 {
        prism_edges.push((i, (i + 1) % 6));
        prism_edges.push((6 + i, 6 + (i + 1) % 6));
        prism_edges.push((i, 6 + i));
    }
    // (nodes_explored, subproblems_replayed, nodes_pruned, max_queue_depth)
    // under width, then under fill-in.
    type Counters = (usize, usize, usize, usize);
    let cases: [(&str, Graph, Counters, Counters); 3] = [
        ("grid(3,3)", grid(3, 3), (70, 0, 0, 38), (61, 2, 5, 30)),
        ("mycielski(4)", mycielski(4), (71, 0, 3, 14), (65, 5, 3, 14)),
        (
            "6-prism",
            Graph::from_edges(12, &prism_edges),
            (98, 0, 0, 61),
            (89, 0, 3, 48),
        ),
    ];
    for (name, g, width_counters, fill_counters) in cases {
        let costs: [(&(dyn BagCost + Sync), Counters); 2] =
            [(&Width, width_counters), (&FillIn, fill_counters)];
        for (cost, expected) in costs {
            let mut inline_fills = None;
            for threads in [1, 2, 4] {
                let run = Enumerate::on(&g)
                    .cost(cost)
                    .threads(threads)
                    .max_results(25)
                    .run()
                    .unwrap();
                let s = &run.stats;
                assert_eq!(
                    (
                        s.nodes_explored,
                        s.subproblems_replayed,
                        s.nodes_pruned,
                        s.max_queue_depth
                    ),
                    expected,
                    "{name}, {}, threads = {threads}",
                    cost.name()
                );
                let fills: Vec<_> = run
                    .results
                    .iter()
                    .map(|r| fill_key(&g, &r.triangulation))
                    .collect();
                match &inline_fills {
                    None => inline_fills = Some(fills),
                    Some(inline) => assert_eq!(
                        &fills,
                        inline,
                        "{name}, {}, threads = {threads}",
                        cost.name()
                    ),
                }
            }
        }
    }
}
