//! `mtr-core`: ranked enumeration of minimal triangulations and proper tree
//! decompositions — the primary contribution of the reproduced paper.
//!
//! The crate layers four pieces on top of the graph/separator/PMC substrate:
//!
//! * [`cost`] — split-monotone bag costs (width, fill-in, weighted and
//!   lexicographic variants, hyperedge-cover width, `Σ 2^|bag|`, linear
//!   combinations) plus the inclusion/exclusion constraints of Lemma 6.2;
//! * [`mintriang`] — `MinTriang⟨κ⟩` / `MinTriangB⟨b, κ⟩`: the generalized
//!   Bouchitté–Todinca dynamic program computing one minimum-cost minimal
//!   triangulation, with the cost-independent initialization factored into
//!   [`Preprocessed`] so it is paid once per graph;
//! * [`ranked`] — `RankedTriang⟨κ⟩`: Lawler–Murty ranked enumeration of all
//!   minimal triangulations by increasing cost, exposed as a lazy iterator.
//!   One engine serves every thread count: its re-optimizations run inline
//!   or as batches on a worker pool (the delay-reduction extension sketched
//!   in the paper's footnote 3);
//! * [`properdec`] — ranked enumeration of proper tree decompositions (the
//!   clique trees of the minimal triangulations, Proposition 6.1);
//! * [`baseline`] — the unranked complete enumerator the paper compares
//!   against ("CKK") and a zero-initialization LB-Triang sampler;
//! * [`pool`] — the shared work-stealing worker pool both the ranked
//!   engine and the factorized per-atom engine of `mtr-reduce` execute on;
//! * [`diverse`] — diversity-aware filtering of the ranked stream (the
//!   diversification question raised in the paper's conclusions);
//! * [`symmetry`] — enumeration modulo the automorphism group
//!   ([`SymmetryPolicy::ModuloSymmetry`]): one cheapest representative per
//!   orbit of minimal triangulations;
//! * [`session`] — the canonical entry point: the [`Enumerate`]
//!   builder/session API composing all of the above, with budgets
//!   ([`StopReason`]), statistics ([`EnumerationStats`]) and typed errors
//!   ([`EnumerationError`]).
//!
//! # Quick start
//!
//! ```
//! use mtr_core::{cost::Width, Enumerate};
//! use mtr_graph::paper_example_graph;
//!
//! let g = paper_example_graph();
//! let run = Enumerate::on(&g).cost(&Width).max_results(1).run()?;
//! let first = run.best().expect("the graph has a minimal triangulation");
//! assert_eq!(first.width(), 2);               // the optimum comes first
//! # Ok::<(), mtr_core::EnumerationError>(())
//! ```
//!
//! The per-algorithm constructors ([`RankedEnumerator::new`],
//! [`ProperDecompositionEnumerator::new`], [`Diversified::new`]) and the
//! [`RankedState`] engine remain available as the layer underneath the
//! session (its pooled path is [`RankedState::next_with_pool`]); prefer
//! [`Enumerate`] in new code.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod cancel;
pub mod cost;
pub mod diverse;
pub mod mintriang;
pub mod pool;
pub mod properdec;
pub mod ranked;
pub mod session;
pub mod symmetry;

pub use baseline::{BaselineResult, CkkEnumerator, LbTriangSampler};
pub use cancel::CancelFlag;
pub use cost::{named_cost, BagCost, Constraints, CostValue, DynBagCost};
pub use diverse::{Diversified, DiversityFilter, SimilarityMeasure};
pub use mintriang::{min_triangulation, min_triangulation_with, Preprocessed, Triangulation};
pub use pool::{panic_message, resolve_threads, PoolStats, TaskPanic, WorkerPool};
pub use properdec::{
    top_k_proper_decompositions, ProperDecompositionEnumerator, RankedDecomposition,
};
pub use ranked::{
    all_triangulations_ranked, top_k_triangulations, RankedEnumerator, RankedState,
    RankedTriangulation,
};
pub use session::{
    drive_engine, heuristic_incumbent, CachePolicy, DecompositionRun, Enumerate, EnumerationError,
    EnumerationRun, EnumerationStats, PruningPolicy, SessionConfig, SessionEngine, SessionReport,
    StopReason,
};
pub use symmetry::{OrbitContext, SymmetryPolicy};
