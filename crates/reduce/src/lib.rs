//! `mtr-reduce`: safe reductions and clique-separator atom decomposition
//! with factorized ranked enumeration.
//!
//! The ranked enumeration of minimal triangulations pays for the full
//! minimal-separator/PMC machinery of the *whole* graph — but minimal
//! triangulations factorize over the atoms of the clique minimal-separator
//! decomposition (Tarjan; Leimer; Carmeli, Kenig & Kimelfeld, *On the
//! Enumeration of all Minimal Triangulations*): every minimal triangulation
//! of `G` is the union of exactly one minimal triangulation per atom, with
//! disjoint fill sets. This crate exploits that as a preprocessing
//! subsystem in three layers:
//!
//! * [`decompose()`] — safe reductions (connected-component splitting,
//!   isolated/simplicial vertex elimination) plus the MCS-M based clique
//!   minimal-separator decomposition into [`Atom`]s;
//! * a factorized engine (internal) — one lazy ranked stream per atom,
//!   merged into a single globally ranked stream by a Lawler-style
//!   product-space search, combining costs additively (fill-like) or by
//!   maximum (width-like) as declared by
//!   [`BagCost::atom_combine`](mtr_core::cost::BagCost::atom_combine);
//! * [`EnumerateReduceExt`] — the session wiring: chain
//!   `.reduce(ReductionLevel::Full)` onto any
//!   [`Enumerate`](mtr_core::Enumerate) builder. The default level is
//!   `Off`, so nothing changes unless asked for.
//!
//! On decomposable inputs (graphs glued along cliques, star-of-cliques
//! models, blobs joined by bridges) the preprocessing cost drops from the
//! whole graph to its largest atom — an exponential improvement for the
//! separator/PMC enumeration — while the emitted stream stays equivalent:
//! same triangulations, same cost sequence, costs evaluated on the original
//! graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decompose;
mod merge;
mod plan;
pub mod session;

pub use decompose::{decompose, Atom, Decomposition, ReductionLevel};
pub use session::{EnumerateReduceExt, Reduced};

#[cfg(test)]
mod tests {
    use super::*;
    use mtr_core::cost::{CostValue, ExpBagSum, FillIn, Width};
    use mtr_core::{Enumerate, EnumerationError, Preprocessed, StopReason};
    use mtr_graph::{paper_example_graph, Graph};

    fn glued() -> Graph {
        // Two C4s sharing the cut vertex 0 plus a pendant at vertex 2:
        // decomposes into two cycle atoms and one clique atom.
        Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (0, 4),
                (4, 5),
                (5, 6),
                (6, 0),
                (2, 7),
            ],
        )
    }

    fn costs(run: &mtr_core::EnumerationRun) -> Vec<CostValue> {
        run.results.iter().map(|r| r.cost).collect()
    }

    fn fill_sets(g: &Graph, run: &mtr_core::EnumerationRun) -> Vec<Vec<(u32, u32)>> {
        let mut sets: Vec<Vec<(u32, u32)>> = run
            .results
            .iter()
            .map(|r| {
                let mut f = g.fill_edges_of(&r.triangulation);
                f.sort_unstable();
                f
            })
            .collect();
        sets.sort();
        sets
    }

    #[test]
    fn reduced_run_matches_direct_on_glued_graph() {
        let g = glued();
        for level in [ReductionLevel::Components, ReductionLevel::Full] {
            for cost in [&Width as &(dyn mtr_core::cost::BagCost + Sync), &FillIn] {
                let direct = Enumerate::on(&g).cost(cost).run().unwrap();
                let reduced = Enumerate::on(&g).cost(cost).reduce(level).run().unwrap();
                assert_eq!(costs(&direct), costs(&reduced), "level {level}");
                assert_eq!(fill_sets(&g, &direct), fill_sets(&g, &reduced));
                assert_eq!(reduced.stop_reason, StopReason::Exhausted);
            }
        }
        let reduced = Enumerate::on(&g)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        assert_eq!(reduced.stats.atoms, 3);
        assert_eq!(reduced.stats.duplicates_skipped, 0);
        assert!(reduced.stats.minimal_separators > 0);
    }

    #[test]
    fn off_level_and_single_atom_fall_back_to_direct() {
        let g = paper_example_graph();
        let off = Enumerate::on(&g)
            .cost(&FillIn)
            .reduce(ReductionLevel::Off)
            .run()
            .unwrap();
        assert_eq!(off.stats.atoms, 0, "Off never decomposes");
        assert_eq!(off.results.len(), 2);
        // C6 is 2-connected with no clique separator: one atom, direct run.
        let c6 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let one = Enumerate::on(&c6)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        assert_eq!(one.stats.atoms, 1);
        assert_eq!(one.results.len(), 14);
    }

    #[test]
    fn threaded_reduced_session_matches_sequential_and_reports_threads() {
        let g = glued();
        let sequential = Enumerate::on(&g)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        assert_eq!(sequential.stats.effective_threads, 1);
        for threads in [2, 4] {
            let parallel = Enumerate::on(&g)
                .cost(&FillIn)
                .threads(threads)
                .reduce(ReductionLevel::Full)
                .run()
                .unwrap();
            assert_eq!(costs(&sequential), costs(&parallel), "threads {threads}");
            assert_eq!(fill_sets(&g, &sequential), fill_sets(&g, &parallel));
            assert_eq!(parallel.stats.effective_threads, threads);
            assert_eq!(parallel.stats.atoms, 3);
            assert_eq!(parallel.stats.worker_tasks.len(), threads);
            assert!(parallel.stats.worker_tasks.iter().sum::<usize>() > 0);
        }
        // The knob can be chained after `.reduce(..)` too.
        let chained = Enumerate::on(&g)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .threads(2)
            .run()
            .unwrap();
        assert_eq!(chained.stats.effective_threads, 2);
        assert_eq!(costs(&sequential), costs(&chained));
        // Single-atom fallback: threads flow to the direct engine's pool
        // instead of being silently dropped.
        let c6 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let fallback = Enumerate::on(&c6)
            .cost(&FillIn)
            .threads(2)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        assert_eq!(fallback.stats.atoms, 1);
        assert_eq!(fallback.stats.effective_threads, 2);
        assert_eq!(fallback.results.len(), 14);
    }

    #[test]
    fn non_factorizing_cost_falls_back() {
        let g = glued();
        let direct = Enumerate::on(&g).cost(&ExpBagSum).run().unwrap();
        let reduced = Enumerate::on(&g)
            .cost(&ExpBagSum)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        assert_eq!(reduced.stats.atoms, 0, "fallback leaves atoms at 0");
        assert_eq!(costs(&direct), costs(&reduced));
    }

    #[test]
    fn preprocessed_source_falls_back() {
        let g = glued();
        let pre = Preprocessed::new(&g);
        let run = Enumerate::with(&pre)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        assert_eq!(run.stats.atoms, 0);
        let direct = Enumerate::on(&g).cost(&FillIn).run().unwrap();
        assert_eq!(costs(&direct), costs(&run));
    }

    #[test]
    fn budgets_apply_to_reduced_sessions() {
        let g = glued();
        let all = Enumerate::on(&g)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        assert!(all.results.len() > 3);
        let capped = Enumerate::on(&g)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .max_results(3)
            .run()
            .unwrap();
        assert_eq!(capped.results.len(), 3);
        assert_eq!(capped.stop_reason, StopReason::MaxResults);
        for (a, b) in capped.results.iter().zip(&all.results) {
            assert_eq!(a.cost, b.cost, "budgeted prefix of the same stream");
        }
        let deadline = Enumerate::on(&g)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .deadline(std::time::Duration::ZERO)
            .run()
            .unwrap();
        assert!(deadline.results.is_empty());
        assert_eq!(deadline.stop_reason, StopReason::DeadlineExceeded);
        assert!(!deadline.stats.preprocessing_complete);
        let budgeted = Enumerate::on(&g)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .node_budget(0)
            .run()
            .unwrap();
        assert!(budgeted.results.is_empty());
        assert_eq!(budgeted.stop_reason, StopReason::NodeBudgetExhausted);
    }

    #[test]
    fn width_bound_composes_with_reduction() {
        let g = glued();
        // Every minimal triangulation of the glued graph has width 2.
        let bounded = Enumerate::on(&g)
            .cost(&FillIn)
            .width_bound(2)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        let unbounded = Enumerate::on(&g)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        assert_eq!(costs(&bounded), costs(&unbounded));
        let impossible = Enumerate::on(&g)
            .cost(&FillIn)
            .width_bound(1)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        assert!(impossible.results.is_empty());
        assert_eq!(impossible.stop_reason, StopReason::Exhausted);
    }

    #[test]
    fn invalid_diversity_threshold_still_errors() {
        let g = glued();
        let err = Enumerate::on(&g)
            .cost(&FillIn)
            .diverse(mtr_core::SimilarityMeasure::FillJaccard, 2.0)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap_err();
        assert_eq!(err, EnumerationError::InvalidDiversityThreshold(2.0));
    }

    #[test]
    fn cached_sessions_match_uncached_and_report_cache_stats() {
        let g = glued();
        let store = mtr_cache::AtomStore::in_memory(1 << 20);
        let plain = Enumerate::on(&g)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        assert_eq!(plain.stats.atom_cache_hits, 0);
        assert_eq!(plain.stats.atom_cache_misses, 0);
        assert_eq!(plain.stats.atoms_deduped, 0);
        let cold = Enumerate::on(&g)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .store(store.clone())
            .run()
            .unwrap();
        // The two C4 atoms are isomorphic: one keyed group, looked up once.
        assert_eq!(cold.stats.atom_cache_hits, 0);
        assert_eq!(cold.stats.atom_cache_misses, 1);
        // The two C4 atoms share one stream; the {2,7} edge atom is its
        // own (chordal, unkeyed) group.
        assert_eq!(cold.stats.atoms_deduped, 1);
        assert!(cold.stats.cache_bytes > 0, "cold run published its prefix");
        let warm = Enumerate::on(&g)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .store(store)
            .run()
            .unwrap();
        assert_eq!(warm.stats.atom_cache_hits, 1);
        assert_eq!(warm.stats.atom_cache_misses, 0);
        // All three runs agree on the ranked stream (costs exactly; fills
        // as sets — canonical relabeling may reorder equal-cost ties).
        assert_eq!(costs(&plain), costs(&cold));
        assert_eq!(costs(&cold), costs(&warm));
        assert_eq!(fill_sets(&g, &plain), fill_sets(&g, &cold));
        assert_eq!(fill_sets(&g, &cold), fill_sets(&g, &warm));
    }

    #[test]
    fn cache_policy_in_memory_uses_the_process_store() {
        use mtr_core::CachePolicy;
        let g = glued();
        let first = Enumerate::on(&g)
            .cost(&Width)
            .cache(CachePolicy::in_memory())
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        let second = Enumerate::on(&g)
            .cost(&Width)
            .reduce(ReductionLevel::Full)
            .cache(CachePolicy::in_memory())
            .run()
            .unwrap();
        assert_eq!(costs(&first), costs(&second));
        assert_eq!(
            second.stats.atom_cache_hits, 1,
            "second session hits the process-wide store"
        );
        assert_eq!(fill_sets(&g, &first), fill_sets(&g, &second));
    }

    #[test]
    fn per_atom_orbit_sharing_is_exact_on_glued_graph() {
        use mtr_core::SymmetryPolicy;
        let g = glued();
        // Each C4 atom is a 4-cycle with automorphism group of order 8, so
        // the per-atom probes fire even though they change nothing
        // observable: the merged stream must be bit-for-bit identical.
        let off = Enumerate::on(&g)
            .cost(&FillIn)
            .symmetry(SymmetryPolicy::Off)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        for threads in [1, 4] {
            let shared = Enumerate::on(&g)
                .cost(&FillIn)
                .reduce(ReductionLevel::Full)
                .threads(threads)
                .run()
                .unwrap();
            assert_eq!(costs(&off), costs(&shared), "threads {threads}");
            assert_eq!(fill_sets(&g, &off), fill_sets(&g, &shared));
            assert_eq!(shared.stats.atoms, 3);
            // The factorized path never probes the whole graph: the
            // session-level group order reads as trivial by design.
            assert_eq!(shared.stats.symmetry_group_order, 1);
        }
    }

    #[test]
    fn modulo_symmetry_falls_back_to_direct_engine() {
        use mtr_core::SymmetryPolicy;
        // Two C5 lobes sharing the cut vertex 0: the cut vertex is a clique
        // separator (two atoms), but the whole graph's automorphisms swap
        // the lobes — a quotient the per-atom product stream cannot see,
        // so modulo mode must bypass the factorized engine entirely.
        let g = Graph::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0),
                (0, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 0),
            ],
        );
        let reduced = Enumerate::on(&g)
            .cost(&FillIn)
            .symmetry(SymmetryPolicy::ModuloSymmetry)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        assert_eq!(reduced.stats.atoms, 0, "modulo quotients whole graphs");
        let direct = Enumerate::on(&g)
            .cost(&FillIn)
            .symmetry(SymmetryPolicy::ModuloSymmetry)
            .run()
            .unwrap();
        assert_eq!(costs(&direct), costs(&reduced));
        assert_eq!(fill_sets(&g, &direct), fill_sets(&g, &reduced));
        let full = Enumerate::on(&g)
            .cost(&FillIn)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        assert!(
            reduced.results.len() < full.results.len(),
            "one representative per orbit is a strict quotient here"
        );
        assert!(reduced.stats.orbits_merged > 0);
    }

    #[test]
    fn chordal_graph_reduces_to_single_trivial_result() {
        let path = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let run = Enumerate::on(&path)
            .cost(&Width)
            .reduce(ReductionLevel::Full)
            .run()
            .unwrap();
        assert_eq!(run.results.len(), 1);
        assert_eq!(run.results[0].triangulation, path);
        assert_eq!(run.results[0].cost, CostValue::from_usize(1));
        assert!(run.stats.atoms > 1);
        assert_eq!(run.stats.nodes_explored, 0, "trivial atoms explore nothing");
    }
}
