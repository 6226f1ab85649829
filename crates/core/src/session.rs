//! The canonical front door to the enumeration stack: a fluent
//! builder/session API with budgets, per-run statistics, and typed errors.
//!
//! Every algorithm of the crate — `RankedTriang` (inline or on a worker
//! pool), width-bounded `MinTriangB` preprocessing, diversity filtering, and
//! the proper-tree-decomposition expansion — is reachable through one
//! composable entry point:
//!
//! ```
//! use mtr_core::session::{Enumerate, StopReason};
//! use mtr_core::cost::FillIn;
//! use mtr_graph::paper_example_graph;
//!
//! let g = paper_example_graph();
//! let run = Enumerate::on(&g).cost(&FillIn).run()?;
//! assert_eq!(run.results.len(), 2);
//! assert_eq!(run.stop_reason, StopReason::Exhausted);
//! assert_eq!(run.stats.duplicates_skipped, 0);
//! # Ok::<(), mtr_core::session::EnumerationError>(())
//! ```
//!
//! Three cross-cutting capabilities distinguish a session from driving the
//! enumerators by hand:
//!
//! * **budgets** — [`Enumerate::max_results`], [`Enumerate::deadline`] and
//!   [`Enumerate::node_budget`] stop the enumeration early; the session
//!   reports *why* it stopped through a typed [`StopReason`], and the
//!   results are always a prefix of the unbudgeted ranked stream;
//! * **statistics** — every run returns [`EnumerationStats`]: preprocessing
//!   time, per-result delays, priority-queue depth, explored Lawler–Murty
//!   nodes, duplicates skipped;
//! * **typed errors** — misconfiguration and bad inputs surface as
//!   [`EnumerationError`] values instead of panics.
//!
//! The pre-existing constructors (`RankedEnumerator::new`,
//! `ProperDecompositionEnumerator::new`, `Diversified::new`) and the
//! [`RankedState`] engine underneath them remain available as the low-level
//! layer the session drives; new code should prefer [`Enumerate`].

use crate::cancel::CancelFlag;
use crate::cost::{named_cost, BagCost, CostValue, DynBagCost, Width};
use crate::diverse::{DiversityFilter, SimilarityMeasure};
use crate::mintriang::{potential_maximal_cliques_counted, Preprocessed};
use crate::pool::{self, resolve_threads, WorkerPool};
use crate::properdec::RankedDecomposition;
use crate::ranked::{RankedState, RankedTriangulation};
use crate::symmetry::{OrbitContext, SymmetryPolicy};
use mtr_chordal::{
    clique_trees_from_cliques, lb_triang_min_degree, maximal_cliques_chordal, mcs_m,
};
use mtr_graph::io::ParseError;
use mtr_graph::Graph;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Session metric handles, resolved once per process. All recording is
/// gated inside `mtr-obs` on the global level — with observability off
/// each hook is one relaxed atomic load.
struct SessionMetrics {
    sessions: mtr_obs::Counter,
    results: mtr_obs::Counter,
    nodes_pruned: mtr_obs::Counter,
    preprocess_ns: mtr_obs::Histogram,
    advance_ns: mtr_obs::Histogram,
    delay_ns: mtr_obs::Histogram,
}

fn session_metrics() -> &'static SessionMetrics {
    static METRICS: std::sync::OnceLock<SessionMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| SessionMetrics {
        sessions: mtr_obs::counter("core.session.sessions"),
        results: mtr_obs::counter("core.session.results"),
        nodes_pruned: mtr_obs::counter("core.session.nodes_pruned"),
        preprocess_ns: mtr_obs::histogram("core.session.preprocess_ns"),
        advance_ns: mtr_obs::histogram("core.session.advance_ns"),
        delay_ns: mtr_obs::histogram("core.session.delay_ns"),
    })
}

/// Nanoseconds of `d`, saturating (u64 holds ~584 years).
fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// Cache policy
// ---------------------------------------------------------------------------

/// Where (and whether) a reduction-enabled session caches per-atom ranked
/// prefixes — see [`Enumerate::cache`].
///
/// The policy is plain configuration: the store it selects lives in the
/// `mtr-cache` crate and is wired up by the reduction layer (`mtr-reduce`).
/// Sessions that run the direct engine (reduction off, non-factorizing
/// cost, single atom, `Preprocessed` source) carry the policy but have no
/// atoms to cache, so it is inert there.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// No caching, no canonicalization: per-atom streams are built from
    /// scratch exactly as before. The default.
    #[default]
    Off,
    /// Cache atom prefixes in the process-wide in-memory store (byte
    /// budget in bytes, LRU beyond it). Enables intra-run dedup of
    /// isomorphic atoms and cross-session reuse within the process. The
    /// store is shared by every in-memory session of the process, and its
    /// budget is the largest any session has requested (it grows, never
    /// shrinks).
    InMemory(usize),
    /// Like [`CachePolicy::InMemory`], additionally persisting published
    /// prefixes into the directory (versioned binary files) and falling
    /// back to it on memory misses — cross-process/cross-run reuse.
    Dir(PathBuf),
}

impl CachePolicy {
    /// The in-memory policy with the default byte budget (64 MiB).
    pub fn in_memory() -> Self {
        CachePolicy::InMemory(64 << 20)
    }

    /// `true` unless the policy is [`CachePolicy::Off`].
    pub fn is_enabled(&self) -> bool {
        !matches!(self, CachePolicy::Off)
    }
}

// ---------------------------------------------------------------------------
// Pruning policy
// ---------------------------------------------------------------------------

/// Whether a session prunes Lawler–Murty partitions against an incumbent
/// cost bound — see [`Enumerate::pruning`].
///
/// Pruning is *exact*: a partition whose admissible lower bound exceeds the
/// incumbent is deferred, not discarded, and is re-optimized lazily if (and
/// only if) the ranked order ever reaches it. The emitted result sequence —
/// costs, triangulations, and tie order — is identical with pruning on or
/// off; only the number of constrained `MinTriang` re-optimizations paid
/// before each emission changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PruningPolicy {
    /// Prune against an incumbent: seeded from a cheap heuristic minimal
    /// triangulation (MCS-M and min-degree `LB-Triang`, whichever is
    /// cheaper under the session cost), then tightened to the cost of the
    /// most recently emitted result. The default.
    #[default]
    Incumbent,
    /// Never defer: every partition is re-optimized eagerly, exactly as in
    /// previous releases (`mtr --no-prune`).
    Off,
}

impl PruningPolicy {
    /// `true` unless the policy is [`PruningPolicy::Off`].
    pub fn is_enabled(&self) -> bool {
        !matches!(self, PruningPolicy::Off)
    }
}

/// The incumbent seed for [`PruningPolicy::Incumbent`]: the cheaper of two
/// heuristic minimal triangulations (MCS-M and min-degree `LB-Triang`)
/// under `cost`, skipping candidates a [`Enumerate::width_bound`] session
/// could never emit. `None` when no candidate qualifies — pruning then
/// starts from the first emitted result instead.
///
/// Public so alternative engines (the factorized per-atom enumerator of
/// `mtr-reduce`) can seed their own incumbents — globally and per atom —
/// with the same heuristic the direct session uses.
pub fn heuristic_incumbent<K: BagCost + ?Sized>(
    g: &Graph,
    cost: &K,
    width_bound: Option<usize>,
) -> Option<CostValue> {
    if g.n() == 0 {
        return None;
    }
    let scope = g.vertex_set();
    let candidates = [mcs_m(g).triangulation, lb_triang_min_degree(g)];
    let mut best: Option<CostValue> = None;
    for h in &candidates {
        let Some(bags) = maximal_cliques_chordal(h) else {
            continue;
        };
        let width = bags.iter().map(|b| b.len()).max().unwrap_or(1) - 1;
        if width_bound.is_some_and(|b| width > b) {
            continue;
        }
        let value = cost.cost_of_bags(g, &scope, &bags);
        if value.is_finite() && best.is_none_or(|b| value < b) {
            best = Some(value);
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Typed errors
// ---------------------------------------------------------------------------

/// A typed error for every way a session (or a caller feeding one, like the
/// `mtr` CLI) can be misconfigured or handed bad input.
#[derive(Debug, Clone, PartialEq)]
pub enum EnumerationError {
    /// The input graph file could not be parsed; the wrapped
    /// [`ParseError`] carries the offending line number.
    Parse(ParseError),
    /// The input graph file could not be read at all.
    Io {
        /// The path that failed to load.
        path: String,
        /// The operating-system error message.
        message: String,
    },
    /// [`Enumerate::cost_named`] was given a name no shipped cost answers
    /// to.
    UnknownCost(String),
    /// The diversity threshold passed to [`Enumerate::diverse`] is outside
    /// `[0, 1]`.
    InvalidDiversityThreshold(f64),
    /// [`Enumerate::width_bound`] was combined with
    /// [`Enumerate::with`]: the width bound is a *preprocessing* restriction,
    /// so it must be chosen when the [`Preprocessed`] value is built (or by
    /// starting from the graph with [`Enumerate::on`]).
    WidthBoundOnPreprocessed,
    /// A worker-pool task died mid-session — a panicking cost function or
    /// an injected `pool.task` fault. The unwind was contained on its
    /// worker (the pool, sibling sessions, and the process all survive);
    /// the session that owned the batch fails with the panic's message.
    WorkerPanicked(String),
}

impl std::fmt::Display for EnumerationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnumerationError::Parse(e) => write!(f, "graph parse error: {e}"),
            EnumerationError::Io { path, message } => {
                write!(f, "cannot read {path}: {message}")
            }
            EnumerationError::UnknownCost(name) => write!(
                f,
                "unknown cost {name:?} (expected width|fill|width-fill|expbags)"
            ),
            EnumerationError::InvalidDiversityThreshold(t) => {
                write!(f, "diversity threshold {t} is outside [0, 1]")
            }
            EnumerationError::WorkerPanicked(message) => {
                write!(f, "a worker task panicked: {message}")
            }
            EnumerationError::WidthBoundOnPreprocessed => write!(
                f,
                "a width bound cannot be applied to an existing Preprocessed value; \
                 build it with Preprocessed::new_bounded or start from the graph \
                 with Enumerate::on"
            ),
        }
    }
}

impl std::error::Error for EnumerationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EnumerationError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for EnumerationError {
    fn from(e: ParseError) -> Self {
        EnumerationError::Parse(e)
    }
}

// ---------------------------------------------------------------------------
// Stop reasons and statistics
// ---------------------------------------------------------------------------

/// Why a session stopped producing results.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The graph has no further minimal triangulations (or proper tree
    /// decompositions) under the session's restrictions.
    Exhausted,
    /// The [`Enumerate::max_results`] budget was reached.
    MaxResults,
    /// The [`Enumerate::deadline`] wall-clock budget expired (possibly
    /// already during preprocessing — see
    /// [`EnumerationStats::preprocessing_complete`]).
    DeadlineExceeded,
    /// The [`Enumerate::node_budget`] on explored Lawler–Murty partitions
    /// was exhausted.
    NodeBudgetExhausted,
    /// The [`Enumerate::drive`] callback requested an early stop.
    Stopped,
    /// The session's [`CancelFlag`] was raised (see
    /// [`Enumerate::cancel_flag`]) — typically by a service handler whose
    /// client disconnected. The results emitted before the flag was
    /// observed are a valid ranked prefix.
    Cancelled,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopReason::Exhausted => "exhausted",
            StopReason::MaxResults => "max-results",
            StopReason::DeadlineExceeded => "deadline-exceeded",
            StopReason::NodeBudgetExhausted => "node-budget-exhausted",
            StopReason::Stopped => "stopped",
            StopReason::Cancelled => "cancelled",
        })
    }
}

/// Aggregate and per-result measurements of one session run.
#[derive(Clone, Debug, Default)]
pub struct EnumerationStats {
    /// Name of the bag cost the session ranked by.
    pub cost: String,
    /// Wall-clock time spent on preprocessing (zero when the session reused
    /// an existing [`Preprocessed`]).
    pub preprocessing: Duration,
    /// Whether preprocessing ran to completion. `false` only when a
    /// [`Enumerate::deadline`] expired during the initialization itself, in
    /// which case the run carries zero results.
    pub preprocessing_complete: bool,
    /// Total wall-clock time of the run, preprocessing included.
    pub total: Duration,
    /// Number of emitted results. For [`Enumerate::run_decompositions`]
    /// this counts the underlying *triangulations*, not the clique trees
    /// expanded from them.
    pub results: usize,
    /// Per-result delay: `delays[i]` is the wall-clock time between result
    /// `i-1` and result `i` (for `i = 0`, since the end of preprocessing).
    pub delays: Vec<Duration>,
    /// Largest observed depth of the Lawler–Murty priority queue.
    pub max_queue_depth: usize,
    /// Queue depth when the session stopped.
    pub final_queue_depth: usize,
    /// Explored Lawler–Murty partitions (constrained `MinTriang` calls).
    pub nodes_explored: usize,
    /// Duplicate results skipped by the engine (expected to be zero).
    pub duplicates_skipped: usize,
    /// Results rejected by the [`Enumerate::diverse`] filter.
    pub diversity_rejected: usize,
    /// Minimal separators found during preprocessing.
    pub minimal_separators: usize,
    /// Potential maximal cliques found during preprocessing.
    pub pmcs: usize,
    /// Full blocks of the Bouchitté–Todinca dynamic program.
    pub full_blocks: usize,
    /// Atoms found by a reduction-enabled session (`mtr-reduce`): `0` when
    /// no decomposition was attempted (reduction off, non-factorizing cost,
    /// or a `Preprocessed` source); `1` when the decomposition found a
    /// single atom — the direct engine ran, there was nothing to factorize;
    /// `≥ 2` when the factorized per-atom engine actually ran.
    pub atoms: usize,
    /// Worker threads the run actually executed on: `1` for the sequential
    /// engine, the resolved pool width otherwise (`.threads(0)` resolves to
    /// the detected hardware parallelism). This reports what really ran —
    /// `.threads(t)` is never silently dropped, including under reduction.
    pub effective_threads: usize,
    /// Pool tasks executed per worker (index 0 is the session thread
    /// itself) on the *enumeration* pool — the short-lived preprocessing
    /// pool is not included. Empty for sequential runs.
    pub worker_tasks: Vec<usize>,
    /// Pool tasks a worker stole from a sibling's deque — nonzero steals
    /// mean the work-stealing actually balanced an uneven batch.
    pub steals: usize,
    /// Atom groups whose ranked prefix was served from the atom cache
    /// (memory or disk). Zero when caching is off or the factorized engine
    /// did not run.
    pub atom_cache_hits: usize,
    /// Atom groups looked up in the atom cache and not found (they
    /// computed cold and published their prefix on completion).
    pub atom_cache_misses: usize,
    /// Atoms that shared another isomorphic atom's stream within this run
    /// (intra-run dedup): `atoms - atoms_deduped` streams actually ran.
    pub atoms_deduped: usize,
    /// Approximate bytes resident in the atom cache when the session
    /// finished (the store is shared, so this is a store-wide figure).
    pub cache_bytes: usize,
    /// Constrained re-optimizations the incumbent bound deferred and never
    /// paid for — work a [`PruningPolicy::Off`] run would have done. Zero
    /// when pruning is off or never fired.
    pub nodes_pruned: usize,
    /// The incumbent cost bound when the session stopped: the heuristic
    /// seed, tightened to the most recently emitted cost. `None` when
    /// pruning is off or no bound was ever established.
    pub incumbent_cost: Option<f64>,
    /// Order of the *discovered* automorphism group of the input graph
    /// (a subgroup of the full group when the canonical search truncated).
    /// Only [`SymmetryPolicy::ModuloSymmetry`] with a label-invariant cost
    /// probes the group; `1` when it did not run or the group is trivial,
    /// and `0` when the session never reached the probe (aborted
    /// preprocessing).
    pub symmetry_group_order: u128,
    /// Branches dropped and results suppressed as orbit duplicates in
    /// [`SymmetryPolicy::ModuloSymmetry`] mode. Zero otherwise.
    pub orbits_merged: usize,
    /// Always `0`: no engine replays a subproblem's cost. Kept so that
    /// readers of the `symmetry` object of [`EnumerationStats::to_json`]
    /// find the key they read.
    pub subproblems_replayed: usize,
}

impl EnumerationStats {
    /// Average delay per result, excluding preprocessing; `None` when the
    /// run produced no results.
    pub fn average_delay(&self) -> Option<Duration> {
        if self.delays.is_empty() {
            return None;
        }
        Some(self.delays.iter().sum::<Duration>() / self.delays.len() as u32)
    }

    /// Largest single-result delay; `None` when the run produced no results.
    pub fn max_delay(&self) -> Option<Duration> {
        self.delays.iter().max().copied()
    }

    /// Renders the statistics as a single JSON object whose keys mirror the
    /// field names — the `mtr --stats-json` output and the per-response
    /// stats footer of the `mtr serve` daemon share this implementation.
    pub fn to_json(&self, stop_reason: StopReason) -> String {
        let opt_secs = |d: Option<Duration>| {
            d.map(|d| format!("{:.6}", d.as_secs_f64()))
                .unwrap_or_else(|| "null".into())
        };
        let delays: Vec<String> = self
            .delays
            .iter()
            .map(|d| format!("{:.3}", d.as_secs_f64() * 1000.0))
            .collect();
        let worker_tasks: Vec<String> = self.worker_tasks.iter().map(|t| t.to_string()).collect();
        format!(
            concat!(
                "{{\"cost\": \"{}\", \"stop_reason\": \"{}\", \"results\": {}, ",
                "\"preprocessing_secs\": {:.6}, \"preprocessing_complete\": {}, ",
                "\"total_secs\": {:.6}, \"atoms\": {}, \"minimal_separators\": {}, ",
                "\"pmcs\": {}, \"full_blocks\": {}, \"nodes_explored\": {}, ",
                "\"nodes_pruned\": {}, \"incumbent_cost\": {}, ",
                "\"max_queue_depth\": {}, \"final_queue_depth\": {}, ",
                "\"duplicates_skipped\": {}, \"diversity_rejected\": {}, ",
                "\"effective_threads\": {}, \"worker_tasks\": [{}], \"steals\": {}, ",
                "\"atom_cache_hits\": {}, \"atom_cache_misses\": {}, ",
                "\"atoms_deduped\": {}, \"cache_bytes\": {}, ",
                "\"average_delay_secs\": {}, \"max_delay_secs\": {}, ",
                "\"delays_ms\": [{}], ",
                "\"symmetry\": {{\"group_order\": {}, \"orbits_merged\": {}, ",
                "\"subproblems_replayed\": {}}}}}"
            ),
            self.cost,
            stop_reason,
            self.results,
            self.preprocessing.as_secs_f64(),
            self.preprocessing_complete,
            self.total.as_secs_f64(),
            self.atoms,
            self.minimal_separators,
            self.pmcs,
            self.full_blocks,
            self.nodes_explored,
            self.nodes_pruned,
            self.incumbent_cost
                .map_or_else(|| "null".into(), |c| format!("{c}")),
            self.max_queue_depth,
            self.final_queue_depth,
            self.duplicates_skipped,
            self.diversity_rejected,
            self.effective_threads,
            worker_tasks.join(", "),
            self.steals,
            self.atom_cache_hits,
            self.atom_cache_misses,
            self.atoms_deduped,
            self.cache_bytes,
            opt_secs(self.average_delay()),
            opt_secs(self.max_delay()),
            delays.join(", "),
            self.symmetry_group_order,
            self.orbits_merged,
            self.subproblems_replayed,
        )
    }
}

/// What [`Enumerate::drive`] returns: everything about the run except the
/// results themselves (those went to the callback).
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// Measurements of the run.
    pub stats: EnumerationStats,
    /// Why the session stopped.
    pub stop_reason: StopReason,
}

/// The outcome of [`Enumerate::run`]: ranked minimal triangulations plus
/// the session report.
#[derive(Clone, Debug)]
pub struct EnumerationRun {
    /// The emitted triangulations, cheapest first.
    pub results: Vec<RankedTriangulation>,
    /// Measurements of the run.
    pub stats: EnumerationStats,
    /// Why the session stopped.
    pub stop_reason: StopReason,
}

impl EnumerationRun {
    /// The cheapest result, if any.
    pub fn best(&self) -> Option<&RankedTriangulation> {
        self.results.first()
    }
}

/// The outcome of [`Enumerate::run_decompositions`]: ranked proper tree
/// decompositions plus the session report.
#[derive(Clone, Debug)]
pub struct DecompositionRun {
    /// The emitted proper tree decompositions, cheapest first.
    pub results: Vec<RankedDecomposition>,
    /// Measurements of the run (results/delays count triangulations).
    pub stats: EnumerationStats,
    /// Why the session stopped.
    pub stop_reason: StopReason,
}

// ---------------------------------------------------------------------------
// The builder
// ---------------------------------------------------------------------------

/// Where the session gets its preprocessing from.
enum Source<'a> {
    /// Preprocess this graph inside the session.
    Graph(&'a Graph),
    /// Reuse preprocessing the caller already paid for.
    Pre(&'a Preprocessed),
}

/// A cost that is either borrowed from the caller or owned by the builder
/// (the [`Enumerate::cost_named`] path).
enum CostHolder<'a, K: ?Sized> {
    Borrowed(&'a K),
    Owned(Box<K>),
}

impl<K: ?Sized> CostHolder<'_, K> {
    fn get(&self) -> &K {
        match self {
            CostHolder::Borrowed(c) => c,
            CostHolder::Owned(b) => b,
        }
    }
}

/// The deconstructed configuration of an [`Enumerate`] builder.
///
/// This is the hook that lets *higher* layers of the stack drive
/// alternative engines with the same fluent configuration: the
/// `mtr-reduce` crate turns a builder into a `SessionConfig` (via
/// [`Enumerate::into_config`]), inspects the source graph, cost, and
/// budgets, and either runs its factorized per-atom engine or rebuilds the
/// direct session with [`Enumerate::from_config`].
pub struct SessionConfig<'a, K: BagCost + Sync + ?Sized = Width> {
    source: Source<'a>,
    cost: CostHolder<'a, K>,
    /// The width bound, if one was set with [`Enumerate::width_bound`].
    pub width_bound: Option<usize>,
    /// Worker threads requested with [`Enumerate::threads`].
    pub threads: usize,
    /// Diversity filter configuration from [`Enumerate::diverse`].
    pub diversity: Option<(SimilarityMeasure, f64)>,
    /// Per-triangulation cap from [`Enumerate::proper_decompositions`].
    pub per_triangulation: Option<usize>,
    /// Result budget from [`Enumerate::max_results`].
    pub max_results: Option<usize>,
    /// Wall-clock budget from [`Enumerate::deadline`].
    pub deadline: Option<Duration>,
    /// Exploration budget from [`Enumerate::node_budget`].
    pub node_budget: Option<usize>,
    /// Atom cache policy from [`Enumerate::cache`].
    pub cache: CachePolicy,
    /// Incumbent pruning policy from [`Enumerate::pruning`].
    pub pruning: PruningPolicy,
    /// Symmetry policy from [`Enumerate::symmetry`].
    pub symmetry: SymmetryPolicy,
    /// Cooperative cancellation flag from [`Enumerate::cancel_flag`].
    pub cancel: Option<CancelFlag>,
}

impl<'a, K: BagCost + Sync + ?Sized> SessionConfig<'a, K> {
    /// The graph the session was started on with [`Enumerate::on`], or
    /// `None` when it reuses an existing [`Preprocessed`]
    /// ([`Enumerate::with`]).
    pub fn graph(&self) -> Option<&'a Graph> {
        match self.source {
            Source::Graph(g) => Some(g),
            Source::Pre(_) => None,
        }
    }

    /// The cost the session ranks by.
    pub fn cost(&self) -> &K {
        self.cost.get()
    }
}

/// Fluent builder for one enumeration session — the canonical entry point
/// of the crate. See the [module documentation](self) for an overview and
/// the method docs for the individual knobs.
pub struct Enumerate<'a, K: BagCost + Sync + ?Sized = Width> {
    config: SessionConfig<'a, K>,
}

impl<K: BagCost + Sync + ?Sized> std::fmt::Debug for Enumerate<'_, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = &self.config;
        f.debug_struct("Enumerate")
            .field("cost", &c.cost().name())
            .field("width_bound", &c.width_bound)
            .field("threads", &c.threads)
            .field("diversity", &c.diversity)
            .field("per_triangulation", &c.per_triangulation)
            .field("max_results", &c.max_results)
            .field("deadline", &c.deadline)
            .field("node_budget", &c.node_budget)
            .field("cache", &c.cache)
            .field("pruning", &c.pruning)
            .field("symmetry", &c.symmetry)
            .finish_non_exhaustive()
    }
}

impl<'a> Enumerate<'a, Width> {
    /// Starts a session on `graph`; preprocessing (minimal separators,
    /// PMCs, block structure) happens inside [`Enumerate::run`] and is
    /// included in the session's deadline and statistics.
    pub fn on(graph: &'a Graph) -> Self {
        Self::from_source(Source::Graph(graph))
    }

    /// Starts a session on preprocessing the caller already built — the
    /// way to amortize initialization across many sessions (different
    /// costs, budgets, or diversity settings) on one graph.
    pub fn with(pre: &'a Preprocessed) -> Self {
        Self::from_source(Source::Pre(pre))
    }

    fn from_source(source: Source<'a>) -> Self {
        Enumerate {
            config: SessionConfig {
                source,
                cost: CostHolder::Borrowed(&Width),
                width_bound: None,
                threads: 1,
                diversity: None,
                per_triangulation: None,
                max_results: None,
                deadline: None,
                node_budget: None,
                cache: CachePolicy::Off,
                pruning: PruningPolicy::default(),
                symmetry: SymmetryPolicy::default(),
                cancel: None,
            },
        }
    }
}

impl<'a, K: BagCost + Sync + ?Sized> Enumerate<'a, K> {
    /// Ranks by `cost` instead of the default [`Width`]. Accepts any
    /// (possibly unsized) split-monotone bag cost, including trait objects.
    pub fn cost<K2: BagCost + Sync + ?Sized>(self, cost: &'a K2) -> Enumerate<'a, K2> {
        self.with_cost(CostHolder::Borrowed(cost))
    }

    /// Ranks by the shipped cost registered under `name` (see
    /// [`named_cost`] for the accepted names) — the path for CLI and
    /// configuration-driven callers.
    pub fn cost_named(self, name: &str) -> Result<Enumerate<'a, DynBagCost>, EnumerationError> {
        let cost = named_cost(name).ok_or_else(|| EnumerationError::UnknownCost(name.into()))?;
        Ok(self.with_cost(CostHolder::Owned(cost)))
    }

    /// Re-types the session for another cost, keeping every other knob.
    fn with_cost<K2: BagCost + Sync + ?Sized>(self, cost: CostHolder<'a, K2>) -> Enumerate<'a, K2> {
        let c = self.config;
        Enumerate {
            config: SessionConfig {
                source: c.source,
                cost,
                width_bound: c.width_bound,
                threads: c.threads,
                diversity: c.diversity,
                per_triangulation: c.per_triangulation,
                max_results: c.max_results,
                deadline: c.deadline,
                node_budget: c.node_budget,
                cache: c.cache,
                pruning: c.pruning,
                symmetry: c.symmetry,
                cancel: c.cancel,
            },
        }
    }

    /// Restricts the enumeration to minimal triangulations of width at most
    /// `bound` (the `MinTriangB` preprocessing of Section 5.3). Only valid
    /// on sessions started with [`Enumerate::on`]; combining it with
    /// [`Enumerate::with`] yields
    /// [`EnumerationError::WidthBoundOnPreprocessed`].
    pub fn width_bound(mut self, bound: usize) -> Self {
        self.config.width_bound = Some(bound);
        self
    }

    /// Fans the partition re-optimizations out over `threads` workers of a
    /// shared work-stealing pool (see [`pool`]), spawned once per session.
    /// `0` auto-detects the hardware parallelism
    /// ([`std::thread::available_parallelism`]); any other value is used
    /// as-is. The result stream is identical to the sequential one; only
    /// the delay changes. [`EnumerationStats::effective_threads`] reports
    /// the resolved count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Keeps only results whose similarity to every previously kept result
    /// is at most `threshold` under `measure` (see [`DiversityFilter`]).
    /// `threshold` must lie in `[0, 1]`.
    pub fn diverse(mut self, measure: SimilarityMeasure, threshold: f64) -> Self {
        self.config.diversity = Some((measure, threshold));
        self
    }

    /// For [`Enumerate::run_decompositions`]: emit at most
    /// `per_triangulation` clique trees per minimal triangulation (`None` =
    /// all of them — beware, that can be exponential in the number of bags).
    pub fn proper_decompositions(mut self, per_triangulation: Option<usize>) -> Self {
        self.config.per_triangulation = per_triangulation;
        self
    }

    /// Budget: stop after `k` results with [`StopReason::MaxResults`].
    pub fn max_results(mut self, k: usize) -> Self {
        self.config.max_results = Some(k);
        self
    }

    /// Budget: stop with [`StopReason::DeadlineExceeded`] once `deadline`
    /// wall-clock time has elapsed since the run started. The deadline
    /// covers preprocessing too: on sessions started with
    /// [`Enumerate::on`] the PMC enumeration itself (bounded or not) is
    /// aborted when the deadline expires, yielding an empty result prefix
    /// with [`EnumerationStats::preprocessing_complete`] `== false`.
    ///
    /// The deadline is checked between results, so the session overshoots
    /// by at most one result delay.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Budget: stop with [`StopReason::NodeBudgetExhausted`] once `nodes`
    /// Lawler–Murty partitions have been explored (each costs one
    /// constrained `MinTriang` re-optimization — the dominant unit of work).
    /// Checked between results, like the deadline.
    pub fn node_budget(mut self, nodes: usize) -> Self {
        self.config.node_budget = Some(nodes);
        self
    }

    /// Atom cache policy for reduction-enabled sessions (chain
    /// `.reduce(..)` from `mtr-reduce` to activate the factorized engine):
    /// per-atom ranked prefixes are keyed by the canonical form of the
    /// atom graph, so isomorphic atoms share one stream within a run and
    /// repeated sessions on overlapping or evolving graphs reuse each
    /// other's work. The default is [`CachePolicy::Off`] (no
    /// canonicalization, identical behavior to previous releases).
    ///
    /// [`EnumerationStats::atom_cache_hits`],
    /// [`EnumerationStats::atom_cache_misses`],
    /// [`EnumerationStats::atoms_deduped`] and
    /// [`EnumerationStats::cache_bytes`] report what the cache did. On
    /// sessions that end up running the direct engine the policy is inert.
    pub fn cache(mut self, policy: CachePolicy) -> Self {
        self.config.cache = policy;
        self
    }

    /// Incumbent-bounded pruning policy (see [`PruningPolicy`]). The
    /// default, [`PruningPolicy::Incumbent`], defers partitions that
    /// provably cannot beat the incumbent cost; the emitted results are
    /// identical either way, so [`PruningPolicy::Off`] exists for
    /// measurement and debugging (`mtr --no-prune`).
    ///
    /// [`EnumerationStats::nodes_pruned`] and
    /// [`EnumerationStats::incumbent_cost`] report what pruning did.
    pub fn pruning(mut self, policy: PruningPolicy) -> Self {
        self.config.pruning = policy;
        self
    }

    /// Symmetry policy (see [`SymmetryPolicy`]). The default,
    /// [`SymmetryPolicy::Full`], enumerates every minimal triangulation and
    /// runs no automorphism probe. [`SymmetryPolicy::ModuloSymmetry`]
    /// probes the automorphism group once per session (for label-invariant
    /// costs) and quotients the stream to one cheapest representative per
    /// orbit of minimal triangulations (`mtr --modulo-symmetry`).
    ///
    /// [`EnumerationStats::symmetry_group_order`] and
    /// [`EnumerationStats::orbits_merged`] report what the quotient did.
    pub fn symmetry(mut self, policy: SymmetryPolicy) -> Self {
        self.config.symmetry = policy;
        self
    }

    /// Attaches a cooperative cancellation flag: raising `flag` (from any
    /// thread) stops the session with [`StopReason::Cancelled`] at the next
    /// demand boundary — between Lawler–Murty partition expansions, never
    /// mid-re-optimization — so the results already emitted remain a valid
    /// ranked prefix. This is how a long-lived service cancels a session
    /// whose client disconnected.
    pub fn cancel_flag(mut self, flag: CancelFlag) -> Self {
        self.config.cancel = Some(flag);
        self
    }

    /// Deconstructs the builder into its [`SessionConfig`] — the hook for
    /// alternative engines (see the `SessionConfig` docs). Most callers
    /// never need this; they call [`Enumerate::run`] directly.
    pub fn into_config(self) -> SessionConfig<'a, K> {
        self.config
    }

    /// Rebuilds a builder from a [`SessionConfig`] — the inverse of
    /// [`Enumerate::into_config`], used by alternative engines to fall back
    /// to the direct session.
    pub fn from_config(config: SessionConfig<'a, K>) -> Self {
        Enumerate { config }
    }

    /// Runs the session, collecting the ranked minimal triangulations.
    pub fn run(self) -> Result<EnumerationRun, EnumerationError> {
        let mut results = Vec::new();
        let report = self.drive(|t| {
            results.push(t);
            ControlFlow::Continue(())
        })?;
        Ok(EnumerationRun {
            results,
            stats: report.stats,
            stop_reason: report.stop_reason,
        })
    }

    /// Runs the session, expanding each minimal triangulation into its
    /// clique trees — the ranked enumeration of proper tree decompositions
    /// (Proposition 6.1). [`Enumerate::max_results`] counts
    /// *decompositions* here; [`Enumerate::proper_decompositions`] caps the
    /// clique trees taken per triangulation.
    pub fn run_decompositions(mut self) -> Result<DecompositionRun, EnumerationError> {
        let per = self.config.per_triangulation.unwrap_or(usize::MAX);
        let max = self.config.max_results;
        // The triangulation-level drive must not stop at `max` triangulations:
        // the budget counts expanded decompositions instead.
        self.config.max_results = None;
        let mut results: Vec<RankedDecomposition> = Vec::new();
        let mut reached_max = max == Some(0);
        let report = self.drive(|t| {
            let remaining = max.map_or(usize::MAX, |k| k.saturating_sub(results.len()));
            if remaining == 0 {
                reached_max = true;
                return ControlFlow::Break(());
            }
            let limit = per.min(remaining);
            let trees = clique_trees_from_cliques(&t.triangulation, t.bags.clone(), limit);
            for tree in trees {
                results.push(RankedDecomposition {
                    decomposition: tree,
                    triangulation: t.triangulation.clone(),
                    cost: t.cost,
                });
            }
            if max.is_some_and(|k| results.len() >= k) {
                reached_max = true;
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        })?;
        let stop_reason = if reached_max {
            StopReason::MaxResults
        } else {
            report.stop_reason
        };
        Ok(DecompositionRun {
            results,
            stats: report.stats,
            stop_reason,
        })
    }

    /// Streams the session's results into `on_result` without collecting
    /// them — the any-time interface. Returning
    /// [`ControlFlow::Break`] stops the session with
    /// [`StopReason::Stopped`]; the configured budgets apply as usual.
    pub fn drive<F>(self, on_result: F) -> Result<SessionReport, EnumerationError>
    where
        F: FnMut(RankedTriangulation) -> ControlFlow<()>,
    {
        let started = Instant::now();
        let SessionConfig {
            source,
            cost,
            width_bound,
            threads,
            diversity,
            per_triangulation: _,
            max_results,
            deadline,
            node_budget,
            // Inert on the direct engine: there are no atoms to cache.
            cache: _,
            pruning,
            symmetry,
            cancel,
        } = self.config;

        if let Some((_, threshold)) = diversity {
            if !(0.0..=1.0).contains(&threshold) {
                return Err(EnumerationError::InvalidDiversityThreshold(threshold));
            }
        }

        let threads = resolve_threads(threads);
        let cost_name = cost.get().name();
        session_metrics().sessions.incr();
        let mut pre_span = mtr_obs::span("session.preprocess");
        pre_span.attr("cost", cost_name.as_str());
        let owned_pre: Preprocessed;
        let pre: &Preprocessed = match source {
            Source::Pre(p) => {
                if width_bound.is_some() {
                    return Err(EnumerationError::WidthBoundOnPreprocessed);
                }
                p
            }
            Source::Graph(g) => {
                // The PMC enumeration is inherently incremental (prefix by
                // prefix) and stops at the session deadline; the
                // candidate-structure build behind `from_parts_threaded`
                // fans out over the pool workers.
                let deadline_at = deadline.and_then(|d| started.checked_add(d));
                let max_size = width_bound.map(|b| b + 1);
                let Ok(e) = potential_maximal_cliques_counted(g, max_size, deadline_at) else {
                    let elapsed = started.elapsed();
                    let stats = EnumerationStats {
                        cost: cost_name,
                        preprocessing: elapsed,
                        preprocessing_complete: false,
                        total: elapsed,
                        effective_threads: threads,
                        ..EnumerationStats::default()
                    };
                    return Ok(SessionReport {
                        stats,
                        stop_reason: StopReason::DeadlineExceeded,
                    });
                };
                owned_pre = Preprocessed::from_parts_threaded(
                    g,
                    e.minimal_separators,
                    e.pmcs,
                    width_bound,
                    threads,
                );
                &owned_pre
            }
        };

        let cost_ref = cost.get();
        let filter = diversity
            .map(|(measure, threshold)| DiversityFilter::new(pre.graph(), measure, threshold));
        // Seed the incumbent from a heuristic minimal triangulation before
        // any partition is expanded — children of the very first expansion
        // can already be deferred against it.
        let incumbent = match pruning {
            PruningPolicy::Incumbent => heuristic_incumbent(pre.graph(), cost_ref, width_bound),
            PruningPolicy::Off => None,
        };
        // Only modulo symmetry probes the automorphism group, once per
        // session, and only for label-invariant costs (an automorphism need
        // not preserve a label-dependent ranking). A trivial group probes
        // to `None` and the stream is the full one.
        let modulo = symmetry == SymmetryPolicy::ModuloSymmetry && cost_ref.label_invariant();
        let orbit_ctx = modulo.then(|| OrbitContext::probe(pre.graph())).flatten();

        let mut stats = EnumerationStats {
            cost: cost_name,
            preprocessing: started.elapsed(),
            preprocessing_complete: true,
            minimal_separators: pre.minimal_separators().len(),
            pmcs: pre.pmcs().len(),
            full_blocks: pre.full_blocks().len(),
            effective_threads: threads,
            symmetry_group_order: orbit_ctx.as_ref().map_or(1, |c| c.group_order()),
            ..EnumerationStats::default()
        };
        drop(pre_span);
        session_metrics()
            .preprocess_ns
            .record(saturating_ns(stats.preprocessing));
        let mut state = RankedState::new();
        if pruning.is_enabled() {
            state.enable_pruning(incumbent);
        }
        if let Some(flag) = cancel.clone() {
            state.bind_cancel(flag);
        }
        if let Some(ctx) = orbit_ctx {
            state.enable_modulo_symmetry(ctx);
        }
        // One pool for the whole session. With more than one thread its
        // workers serve every expansion batch; a single-threaded session
        // solves inline.
        let (stop_reason, engine_failure) = pool::scoped(threads, |p| {
            let pool = (threads > 1).then_some(p);
            let mut engine = DirectEngine {
                pre,
                cost: cost_ref,
                pool,
                state,
            };
            let stop_reason = drive_engine(
                &mut engine,
                filter,
                &mut stats,
                started,
                max_results,
                deadline,
                node_budget,
                cancel.as_ref(),
                on_result,
            );
            if let Some(p) = pool {
                let pool_stats = p.stats();
                stats.worker_tasks = pool_stats.worker_tasks;
                stats.steals = pool_stats.steals;
            }
            (stop_reason, engine.failure())
        });
        if let Some(message) = engine_failure {
            // The engine went quiet because a pool task died, not because
            // the space was exhausted: fail the session, typed.
            return Err(EnumerationError::WorkerPanicked(message));
        }
        Ok(SessionReport { stats, stop_reason })
    }
}

/// The interface between the generic session loop and a result-producing
/// engine. The direct engine (a [`RankedState`], inline or on the session
/// pool) implements it behind the scenes, and alternative engines (the
/// factorized per-atom enumerator of `mtr-reduce`) implement it to reuse
/// the *exact* budget, diversity, and statistics semantics of a session
/// through [`drive_engine`].
pub trait SessionEngine {
    /// Produces the next ranked result, or `None` when exhausted.
    fn next_result(&mut self) -> Option<RankedTriangulation>;
    /// Entries currently pending in the engine's priority queue.
    fn queue_depth(&self) -> usize;
    /// Work units (Lawler–Murty partitions) explored so far — the quantity
    /// [`Enumerate::node_budget`] is checked against.
    fn nodes_explored(&self) -> usize;
    /// Duplicate results skipped (`0` for engines that cannot emit them).
    fn duplicates_skipped(&self) -> usize;
    /// Re-optimizations deferred by incumbent pruning and never paid for
    /// (`0` for engines without pruning).
    fn nodes_pruned(&self) -> usize {
        0
    }
    /// The engine's current incumbent cost bound, if pruning is active.
    fn incumbent_cost(&self) -> Option<CostValue> {
        None
    }
    /// Branches/results the engine merged into their orbit representative
    /// (`0` for engines without modulo-symmetry).
    fn orbits_merged(&self) -> usize {
        0
    }
    /// The message of a contained worker-pool task failure that aborted
    /// the engine, if one did. An engine that failed returns `None` from
    /// [`SessionEngine::next_result`] (the emitted prefix stays valid);
    /// the session checks this afterwards and converts the apparent
    /// exhaustion into [`EnumerationError::WorkerPanicked`].
    fn failure(&self) -> Option<String> {
        None
    }
}

/// The shared emission loop of every session: drives `engine` until it is
/// exhausted, a budget trips, or `on_result` breaks, recording per-result
/// delays, queue depths, and rejection counts into `stats` (including the
/// final `total`/`final_queue_depth`/`nodes_explored` bookkeeping).
///
/// `started` anchors both the deadline and `stats.total`, so it must be
/// the instant the session (including preprocessing) began. This is the
/// single source of truth for budget semantics — alternative engines must
/// go through it rather than reimplementing the loop.
#[allow(clippy::too_many_arguments)] // mirrors the session's knobs 1:1
pub fn drive_engine<E, F>(
    engine: &mut E,
    mut filter: Option<DiversityFilter>,
    stats: &mut EnumerationStats,
    started: Instant,
    max_results: Option<usize>,
    deadline: Option<Duration>,
    node_budget: Option<usize>,
    cancel: Option<&CancelFlag>,
    mut on_result: F,
) -> StopReason
where
    E: SessionEngine,
    F: FnMut(RankedTriangulation) -> ControlFlow<()>,
{
    // `Instant + Duration` can overflow for practically-infinite
    // deadlines; a non-representable deadline is simply never hit.
    let deadline_at = deadline.and_then(|d| started.checked_add(d));
    let mut last_emit = Instant::now();
    let cancelled = || cancel.is_some_and(|c| c.is_cancelled());
    let metrics = session_metrics();
    let mut emit_span = mtr_obs::span("session.emit");

    let stop_reason = loop {
        if cancelled() {
            break StopReason::Cancelled;
        }
        if max_results.is_some_and(|k| stats.results >= k) {
            break StopReason::MaxResults;
        }
        if deadline_at.is_some_and(|at| Instant::now() >= at) {
            break StopReason::DeadlineExceeded;
        }
        if node_budget.is_some_and(|n| engine.nodes_explored() >= n) {
            break StopReason::NodeBudgetExhausted;
        }
        let advance_started = mtr_obs::clock();
        let next = engine.next_result();
        metrics.advance_ns.record_elapsed(advance_started);
        let Some(result) = next else {
            // An engine holding the same flag bails out mid-demand with
            // `None`; that is a cancellation, not exhaustion.
            break if cancelled() {
                StopReason::Cancelled
            } else {
                StopReason::Exhausted
            };
        };
        stats.max_queue_depth = stats.max_queue_depth.max(engine.queue_depth());
        if let Some(f) = filter.as_mut() {
            if !f.admit(&result) {
                stats.diversity_rejected += 1;
                continue;
            }
        }
        let now = Instant::now();
        let delay = now.duration_since(last_emit);
        stats.delays.push(delay);
        last_emit = now;
        stats.results += 1;
        metrics.results.incr();
        metrics.delay_ns.record(saturating_ns(delay));
        if on_result(result).is_break() {
            break StopReason::Stopped;
        }
    };

    stats.final_queue_depth = engine.queue_depth();
    stats.nodes_explored = engine.nodes_explored();
    stats.duplicates_skipped = engine.duplicates_skipped();
    stats.nodes_pruned = engine.nodes_pruned();
    stats.incumbent_cost = engine
        .incumbent_cost()
        .filter(|c| c.is_finite())
        .map(|c| c.value());
    stats.orbits_merged = engine.orbits_merged();
    metrics.nodes_pruned.add(stats.nodes_pruned as u64);
    stats.total = started.elapsed();
    if emit_span.is_active() {
        emit_span.attr("results", stats.results.to_string());
        emit_span.attr("stop", stop_reason.to_string());
    }
    drop(emit_span);
    stop_reason
}

/// The direct engine a session drives: one [`RankedState`] over the
/// session's preprocessing, solving on the session pool when it has one.
struct DirectEngine<'e, 'p, K: ?Sized> {
    pre: &'e Preprocessed,
    cost: &'e K,
    pool: Option<WorkerPool<'e, 'p>>,
    state: RankedState,
}

impl<K: BagCost + Sync + ?Sized> SessionEngine for DirectEngine<'_, '_, K> {
    fn next_result(&mut self) -> Option<RankedTriangulation> {
        self.state.next_with_pool(self.pre, self.cost, self.pool)
    }

    fn queue_depth(&self) -> usize {
        self.state.queue_depth()
    }

    fn nodes_explored(&self) -> usize {
        self.state.nodes_explored()
    }

    fn duplicates_skipped(&self) -> usize {
        self.state.duplicates_skipped()
    }

    fn nodes_pruned(&self) -> usize {
        self.state.nodes_pruned()
    }

    fn incumbent_cost(&self) -> Option<CostValue> {
        self.state.incumbent()
    }

    fn orbits_merged(&self) -> usize {
        self.state.orbits_merged()
    }

    fn failure(&self) -> Option<String> {
        // Inline, a panic propagates on the calling thread and is the
        // caller's to catch; only a pooled batch can fail contained.
        self.state.failure().map(str::to_string)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostValue, FillIn};
    use mtr_chordal::is_minimal_triangulation;
    use mtr_graph::paper_example_graph;

    fn c6() -> Graph {
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    }

    #[test]
    fn default_cost_is_width() {
        let g = paper_example_graph();
        let run = Enumerate::on(&g).run().unwrap();
        assert_eq!(run.stats.cost, "width");
        assert_eq!(run.results.len(), 2);
        assert_eq!(run.best().unwrap().width(), 2);
        assert_eq!(run.stop_reason, StopReason::Exhausted);
    }

    #[test]
    fn max_results_budget_truncates_with_reason() {
        let g = c6();
        let run = Enumerate::on(&g)
            .cost(&FillIn)
            .max_results(3)
            .run()
            .unwrap();
        assert_eq!(run.results.len(), 3);
        assert_eq!(run.stop_reason, StopReason::MaxResults);
        for w in run.results.windows(2) {
            assert!(w[0].cost <= w[1].cost);
        }
        // A zero budget yields an empty prefix.
        let none = Enumerate::on(&g)
            .cost(&FillIn)
            .max_results(0)
            .run()
            .unwrap();
        assert!(none.results.is_empty());
        assert_eq!(none.stop_reason, StopReason::MaxResults);
    }

    #[test]
    fn generous_budgets_do_not_truncate() {
        let g = c6();
        let run = Enumerate::on(&g)
            .cost(&FillIn)
            .max_results(1000)
            .deadline(Duration::from_secs(3600))
            .node_budget(1_000_000)
            .run()
            .unwrap();
        assert_eq!(run.results.len(), 14, "C6 has 14 minimal triangulations");
        assert_eq!(run.stop_reason, StopReason::Exhausted);
    }

    #[test]
    fn zero_deadline_on_preprocessed_yields_empty_prefix() {
        let g = c6();
        let pre = Preprocessed::new(&g);
        let run = Enumerate::with(&pre)
            .cost(&FillIn)
            .deadline(Duration::ZERO)
            .run()
            .unwrap();
        assert!(run.results.is_empty());
        assert_eq!(run.stop_reason, StopReason::DeadlineExceeded);
        assert!(run.stats.preprocessing_complete);
    }

    #[test]
    fn node_budget_stops_early() {
        let g = c6();
        let all = Enumerate::on(&g).cost(&FillIn).run().unwrap();
        let budgeted = Enumerate::on(&g)
            .cost(&FillIn)
            .node_budget(1)
            .run()
            .unwrap();
        assert_eq!(budgeted.stop_reason, StopReason::NodeBudgetExhausted);
        assert!(budgeted.results.len() < all.results.len());
        // The budgeted results are a prefix of the full stream.
        for (b, f) in budgeted.results.iter().zip(&all.results) {
            assert_eq!(b.cost, f.cost);
        }
        let zero = Enumerate::on(&g)
            .cost(&FillIn)
            .node_budget(0)
            .run()
            .unwrap();
        assert!(zero.results.is_empty());
        assert_eq!(zero.stop_reason, StopReason::NodeBudgetExhausted);
    }

    #[test]
    fn stats_are_populated() {
        let g = c6();
        let run = Enumerate::on(&g).cost(&FillIn).run().unwrap();
        let s = &run.stats;
        assert_eq!(s.cost, "fill-in");
        assert_eq!(s.results, 14);
        assert_eq!(s.delays.len(), 14);
        assert!(s.preprocessing_complete);
        assert!(s.total >= s.preprocessing);
        assert!(s.minimal_separators > 0);
        assert!(s.pmcs > 0);
        assert!(s.full_blocks > 0);
        assert!(s.max_queue_depth > 0);
        assert!(s.nodes_explored > 0);
        assert_eq!(s.duplicates_skipped, 0);
        assert!(s.average_delay().is_some());
        assert!(s.max_delay().unwrap() >= s.average_delay().unwrap());
        // An exhausted run drains its queue of satisfiable partitions.
        assert!(s.final_queue_depth <= s.max_queue_depth);
    }

    #[test]
    fn threads_match_sequential_output() {
        let g = c6();
        let sequential = Enumerate::on(&g).cost(&FillIn).run().unwrap();
        let parallel = Enumerate::on(&g).cost(&FillIn).threads(4).run().unwrap();
        assert_eq!(sequential.results.len(), parallel.results.len());
        let seq_costs: Vec<CostValue> = sequential.results.iter().map(|r| r.cost).collect();
        let par_costs: Vec<CostValue> = parallel.results.iter().map(|r| r.cost).collect();
        assert_eq!(seq_costs, par_costs);
    }

    #[test]
    fn thread_stats_report_what_ran() {
        let g = c6();
        let sequential = Enumerate::on(&g).cost(&FillIn).run().unwrap();
        assert_eq!(sequential.stats.effective_threads, 1);
        assert!(sequential.stats.worker_tasks.is_empty());
        assert_eq!(sequential.stats.steals, 0);

        let four = Enumerate::on(&g).cost(&FillIn).threads(4).run().unwrap();
        assert_eq!(four.stats.effective_threads, 4);
        assert_eq!(four.stats.worker_tasks.len(), 4);
        // Every explored Lawler–Murty partition is exactly one pool task.
        assert_eq!(
            four.stats.worker_tasks.iter().sum::<usize>(),
            four.stats.nodes_explored
        );

        // `threads(0)` auto-detects and reports the resolved width.
        let auto = Enumerate::on(&g).cost(&FillIn).threads(0).run().unwrap();
        let detected = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(auto.stats.effective_threads, detected);
        assert_eq!(auto.results.len(), sequential.results.len());
    }

    #[test]
    fn named_cost_and_unknown_cost() {
        let g = paper_example_graph();
        let run = Enumerate::on(&g).cost_named("fill").unwrap().run().unwrap();
        assert_eq!(run.stats.cost, "fill-in");
        assert_eq!(run.results[0].fill_in(&g), 1);
        let err = Enumerate::on(&g).cost_named("bogus").unwrap_err();
        assert_eq!(err, EnumerationError::UnknownCost("bogus".into()));
    }

    #[test]
    fn invalid_diversity_threshold_is_an_error() {
        let g = c6();
        let err = Enumerate::on(&g)
            .cost(&FillIn)
            .diverse(SimilarityMeasure::FillJaccard, 1.5)
            .run()
            .unwrap_err();
        assert_eq!(err, EnumerationError::InvalidDiversityThreshold(1.5));
    }

    #[test]
    fn width_bound_on_preprocessed_is_an_error() {
        let g = c6();
        let pre = Preprocessed::new(&g);
        let err = Enumerate::with(&pre).width_bound(2).run().unwrap_err();
        assert_eq!(err, EnumerationError::WidthBoundOnPreprocessed);
    }

    #[test]
    fn width_bound_restricts_results() {
        let g = c6();
        let bounded = Enumerate::on(&g)
            .cost(&FillIn)
            .width_bound(2)
            .run()
            .unwrap();
        assert_eq!(bounded.results.len(), 14);
        let impossible = Enumerate::on(&g)
            .cost(&FillIn)
            .width_bound(1)
            .run()
            .unwrap();
        assert!(impossible.results.is_empty());
        assert_eq!(impossible.stop_reason, StopReason::Exhausted);
    }

    #[test]
    fn width_bound_and_deadline_compose() {
        let g = c6();
        // A generous deadline changes nothing about the bounded session.
        let generous = Enumerate::on(&g)
            .cost(&FillIn)
            .width_bound(2)
            .deadline(Duration::from_secs(3600))
            .run()
            .unwrap();
        assert_eq!(generous.results.len(), 14);
        assert_eq!(generous.stop_reason, StopReason::Exhausted);
        // A zero deadline aborts the bounded preprocessing itself.
        let aborted = Enumerate::on(&g)
            .cost(&FillIn)
            .width_bound(2)
            .deadline(Duration::ZERO)
            .run()
            .unwrap();
        assert!(aborted.results.is_empty());
        assert_eq!(aborted.stop_reason, StopReason::DeadlineExceeded);
        assert!(!aborted.stats.preprocessing_complete);
    }

    #[test]
    fn diversity_filters_and_counts_rejections() {
        let g = c6();
        let run = Enumerate::on(&g)
            .cost(&FillIn)
            .diverse(SimilarityMeasure::FillJaccard, 0.3)
            .run()
            .unwrap();
        assert!(!run.results.is_empty());
        assert!(run.results.len() < 14);
        assert_eq!(run.results.len() + run.stats.diversity_rejected, 14);
        assert_eq!(run.stats.results, run.results.len());
    }

    #[test]
    fn drive_callback_can_stop() {
        let g = c6();
        let mut seen = 0usize;
        let report = Enumerate::on(&g)
            .cost(&FillIn)
            .drive(|_| {
                seen += 1;
                if seen == 5 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap();
        assert_eq!(seen, 5);
        assert_eq!(report.stats.results, 5);
        assert_eq!(report.stop_reason, StopReason::Stopped);
    }

    #[test]
    fn decompositions_with_budgets() {
        let g = paper_example_graph();
        let one_each = Enumerate::on(&g)
            .cost(&FillIn)
            .proper_decompositions(Some(1))
            .run_decompositions()
            .unwrap();
        assert_eq!(one_each.results.len(), 2);
        assert_eq!(one_each.stop_reason, StopReason::Exhausted);
        for d in &one_each.results {
            assert!(d.decomposition.is_valid(&g));
            assert!(d.decomposition.is_clique_tree_of(&d.triangulation));
        }
        let capped = Enumerate::on(&g)
            .cost(&FillIn)
            .max_results(3)
            .run_decompositions()
            .unwrap();
        assert_eq!(capped.results.len(), 3);
        assert_eq!(capped.stop_reason, StopReason::MaxResults);
        assert!(capped.results.windows(2).all(|w| w[0].cost <= w[1].cost));
    }

    #[test]
    fn results_are_sound_minimal_triangulations() {
        let g = c6();
        let run = Enumerate::on(&g)
            .cost(&FillIn)
            .max_results(5)
            .run()
            .unwrap();
        for r in &run.results {
            assert!(is_minimal_triangulation(&g, &r.triangulation));
        }
    }

    #[test]
    fn pruning_on_and_off_emit_identical_runs() {
        let g = c6();
        for threads in [1, 4] {
            let pruned = Enumerate::on(&g)
                .cost(&FillIn)
                .threads(threads)
                .run()
                .unwrap();
            let plain = Enumerate::on(&g)
                .cost(&FillIn)
                .threads(threads)
                .pruning(PruningPolicy::Off)
                .run()
                .unwrap();
            assert_eq!(pruned.results.len(), plain.results.len());
            let pruned_costs: Vec<CostValue> = pruned.results.iter().map(|r| r.cost).collect();
            let plain_costs: Vec<CostValue> = plain.results.iter().map(|r| r.cost).collect();
            assert_eq!(pruned_costs, plain_costs);
            // Pruning is the default; opting out zeroes its stats.
            assert_eq!(plain.stats.nodes_pruned, 0);
            assert_eq!(plain.stats.incumbent_cost, None);
            // An exhausted pruned run paid every re-optimization eventually,
            // and ends with the incumbent at the costliest emitted result.
            assert_eq!(
                pruned.stats.incumbent_cost,
                Some(pruned.results.last().unwrap().cost.value())
            );
        }
    }

    #[test]
    fn pruned_prefix_defers_work() {
        // A 3x3 grid has non-uniform fill-in costs, so the heuristic seed
        // and the emitted frontier both defer real work in a top-3 run.
        let g = Graph::from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (3, 4),
                (4, 5),
                (6, 7),
                (7, 8),
                (0, 3),
                (3, 6),
                (1, 4),
                (4, 7),
                (2, 5),
                (5, 8),
            ],
        );
        let pruned = Enumerate::on(&g)
            .cost(&FillIn)
            .max_results(3)
            .run()
            .unwrap();
        let plain = Enumerate::on(&g)
            .cost(&FillIn)
            .max_results(3)
            .pruning(PruningPolicy::Off)
            .run()
            .unwrap();
        let pruned_costs: Vec<CostValue> = pruned.results.iter().map(|r| r.cost).collect();
        let plain_costs: Vec<CostValue> = plain.results.iter().map(|r| r.cost).collect();
        assert_eq!(pruned_costs, plain_costs);
        assert!(pruned.stats.nodes_pruned > 0);
        assert!(pruned.stats.nodes_explored < plain.stats.nodes_explored);
    }

    #[test]
    fn heuristic_incumbent_is_a_sound_upper_bound() {
        let g = c6();
        let best = Enumerate::on(&g)
            .cost(&FillIn)
            .max_results(1)
            .run()
            .unwrap();
        let seed = heuristic_incumbent(&g, &FillIn, None).unwrap();
        assert!(seed >= best.results[0].cost);
        // A width bound below every heuristic candidate leaves no seed.
        assert_eq!(heuristic_incumbent(&g, &FillIn, Some(0)), None);
    }

    #[test]
    fn error_display_is_informative() {
        let e = EnumerationError::UnknownCost("nope".into());
        assert!(e.to_string().contains("nope"));
        let p: EnumerationError = ParseError::BadEdge {
            line_number: 7,
            line: "x y".into(),
        }
        .into();
        assert!(p.to_string().contains("line 7"));
        let io = EnumerationError::Io {
            path: "missing.gr".into(),
            message: "no such file".into(),
        };
        assert!(io.to_string().contains("missing.gr"));
        assert!(EnumerationError::WidthBoundOnPreprocessed
            .to_string()
            .contains("width bound"));
    }
}
