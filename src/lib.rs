//! # ranked-triangulations
//!
//! A from-scratch Rust implementation of **“Ranked Enumeration of Minimal
//! Triangulations”** (Ravid, Medini, Kimelfeld — PODS 2019): enumerate the
//! minimal triangulations of a graph — equivalently, its proper tree
//! decompositions — in increasing order of any *split-monotone bag cost*
//! (width, fill-in, weighted variants, hypertree-width-like costs, or your
//! own), with polynomial delay on poly-MS graph classes or under a constant
//! width bound.
//!
//! ## Crate map
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`graph`] | `mtr-graph` | bitset vertex sets, graphs, hypergraphs, PACE/DIMACS I/O |
//! | [`chordal`] | `mtr-chordal` | chordality, maximal cliques, clique trees, tree decompositions, LB-Triang, MCS-M |
//! | [`separators`] | `mtr-separators` | minimal separators, crossing relation, blocks, realizations |
//! | [`pmc`] | `mtr-pmc` | potential maximal cliques (test + enumeration) |
//! | [`core`] | `mtr-core` | bag costs, `MinTriang`, `RankedTriang`, proper-decomposition enumeration, CKK baseline |
//! | [`obs`] | `mtr-obs` | zero-dependency metrics registry (counters, gauges, histograms) and span tracing |
//! | [`cache`] | `mtr-cache` | content-addressed atom cache: canonical-form keyed ranked prefixes, LRU + on-disk backend |
//! | [`reduce`] | `mtr-reduce` | safe reductions, clique-separator atom decomposition, factorized ranked enumeration |
//! | [`workloads`] | `mtr-workloads` | dataset generators and the experiment harness |
//!
//! ## Quick start
//!
//! The canonical entry point is the [`Enumerate`](prelude::Enumerate)
//! builder: pick a graph, a cost, optional budgets, and run.
//!
//! ```
//! use ranked_triangulations::prelude::*;
//!
//! // The running example of the paper (Figure 1): u, v joined through
//! // three parallel middle vertices, plus a pendant v'.
//! let g = ranked_triangulations::graph::paper_example_graph();
//!
//! // Enumerate the minimal triangulations by increasing fill-in.
//! let run = Enumerate::on(&g).cost(&FillIn).run()?;
//! assert_eq!(run.results.len(), 2);
//! assert_eq!(run.results[0].fill_in(&g), 1);   // the cheapest comes first
//! assert_eq!(run.results[1].fill_in(&g), 3);
//! assert_eq!(run.stop_reason, StopReason::Exhausted);
//!
//! // Or get proper tree decompositions directly, ranked by width.
//! let decs = Enumerate::on(&g)
//!     .cost(&Width)
//!     .proper_decompositions(Some(1))
//!     .max_results(3)
//!     .run_decompositions()?;
//! assert!(decs.results[0].decomposition.is_valid(&g));
//! # Ok::<(), EnumerationError>(())
//! ```
//!
//! Budgets make any session any-time safe: `.max_results(k)`,
//! `.deadline(duration)` and `.node_budget(n)` each truncate the ranked
//! stream to a prefix and report the typed
//! [`StopReason`](prelude::StopReason); per-run measurements (preprocessing
//! time, per-result delays, queue depth) come back in
//! [`EnumerationStats`](prelude::EnumerationStats).
//!
//! To amortize preprocessing across several enumerations on one graph,
//! build a [`Preprocessed`](prelude::Preprocessed) once and start sessions
//! with `Enumerate::with(&pre)`:
//!
//! ```
//! use ranked_triangulations::prelude::*;
//!
//! let g = ranked_triangulations::graph::paper_example_graph();
//! let pre = Preprocessed::new(&g);             // minimal separators + PMCs
//! let by_width = Enumerate::with(&pre).cost(&Width).run()?;
//! let by_fill = Enumerate::with(&pre).cost(&FillIn).run()?;
//! assert_eq!(by_width.results.len(), by_fill.results.len());
//! # Ok::<(), EnumerationError>(())
//! ```
//!
//! On decomposable inputs — graphs glued along cliques, models with
//! simplicial fringes, blobs joined by bridges — chain
//! `.reduce(ReductionLevel::Full)` to split the graph into the atoms of
//! its clique minimal-separator decomposition, enumerate each atom
//! independently, and merge the per-atom ranked streams into the same
//! globally ranked stream at a fraction of the preprocessing cost:
//!
//! ```
//! use ranked_triangulations::prelude::*;
//!
//! // Two 4-cycles sharing the cut vertex 0: two atoms.
//! let g = Graph::from_edges(
//!     7,
//!     &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
//! );
//! let run = Enumerate::on(&g)
//!     .cost(&FillIn)
//!     .reduce(ReductionLevel::Full)
//!     .run()?;
//! assert_eq!(run.stats.atoms, 2);
//! assert_eq!(run.results.len(), 4, "2 triangulations per C4, combined");
//! assert_eq!(run.results[0].fill_in(&g), 2);
//! # Ok::<(), EnumerationError>(())
//! ```
//!
//! The per-algorithm constructors (`RankedEnumerator::new`,
//! `ProperDecompositionEnumerator::new`, `Diversified::new`) and the one
//! ranked engine underneath them, `RankedState` (inline, or on a worker pool
//! through `RankedState::next_with_pool`), are still exported as the engine
//! layer the session drives — existing code keeps working — but new code
//! should go through `Enumerate`.
//!
//! See the `examples/` directory for end-to-end scenarios (join-query
//! optimization, Bayesian inference, bounded-width sweeps) and the
//! `mtr-bench` crate for the binaries regenerating every table and figure
//! of the paper's evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mtr_cache as cache;
pub use mtr_chordal as chordal;
pub use mtr_core as core;
pub use mtr_fault as fault;
pub use mtr_graph as graph;
pub use mtr_obs as obs;
pub use mtr_pmc as pmc;
pub use mtr_reduce as reduce;
pub use mtr_separators as separators;
pub use mtr_serve as serve;
pub use mtr_workloads as workloads;

/// The most commonly used items, for glob import in applications.
pub mod prelude {
    pub use mtr_cache::{AtomStore, CacheStats};
    pub use mtr_chordal::{clique_tree, is_chordal, is_minimal_triangulation, TreeDecomposition};
    pub use mtr_core::cost::{
        named_cost, BagCost, Constraints, CostValue, CoverWidth, DynBagCost, ExpBagSum, FillIn,
        LinearCombination, WeightedFillIn, WeightedWidth, Width, WidthThenFill,
    };
    pub use mtr_core::{
        all_triangulations_ranked, min_triangulation, min_triangulation_with, resolve_threads,
        top_k_proper_decompositions, top_k_triangulations, CachePolicy, CancelFlag, CkkEnumerator,
        DecompositionRun, Diversified, DiversityFilter, Enumerate, EnumerationError,
        EnumerationRun, EnumerationStats, LbTriangSampler, PoolStats, Preprocessed,
        ProperDecompositionEnumerator, PruningPolicy, RankedDecomposition, RankedEnumerator,
        RankedState, RankedTriangulation, SessionReport, SimilarityMeasure, StopReason,
        Triangulation, WorkerPool,
    };
    pub use mtr_graph::{CanonicalForm, CanonicalKey, Graph, Hypergraph, Vertex, VertexSet};
    pub use mtr_reduce::{decompose, Decomposition, EnumerateReduceExt, Reduced, ReductionLevel};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_quickstart_compiles_and_runs() {
        let g = crate::graph::paper_example_graph();
        let run = Enumerate::on(&g)
            .cost(&Width)
            .max_results(1)
            .run()
            .expect("a width session on a plain graph cannot fail");
        assert_eq!(run.results.len(), 1);
        assert_eq!(run.results[0].width(), 2);
        assert_eq!(run.stop_reason, StopReason::MaxResults);
        // The engine-layer helpers still work (shim status).
        let top = top_k_triangulations(&g, &Width, 1);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].width(), 2);
    }
}
