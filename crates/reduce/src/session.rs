//! Wiring the reduction subsystem into the [`Enumerate`] session builder.
//!
//! The entry point is [`EnumerateReduceExt::reduce`]:
//!
//! ```
//! use mtr_core::{cost::FillIn, Enumerate};
//! use mtr_reduce::{EnumerateReduceExt, ReductionLevel};
//! use mtr_graph::Graph;
//!
//! // Two triangles glued on an edge next to a disjoint C4: three atoms.
//! let g = Graph::from_edges(
//!     8,
//!     &[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (4, 5), (5, 6), (6, 7), (7, 4)],
//! );
//! let run = Enumerate::on(&g)
//!     .cost(&FillIn)
//!     .reduce(ReductionLevel::Full)
//!     .run()?;
//! assert_eq!(run.stats.atoms, 3);
//! assert_eq!(run.results[0].fill_in(&g), 1); // the C4's single chord
//! # Ok::<(), mtr_core::EnumerationError>(())
//! ```
//!
//! A reduced session behaves exactly like the direct one — same results,
//! same cost order, same budgets and statistics — but preprocesses each
//! atom of the clique-separator decomposition independently and merges the
//! per-atom ranked streams. When the reduction cannot apply it falls back
//! to the direct engine transparently:
//!
//! * [`ReductionLevel::Off`] (the default) always runs direct;
//! * sessions started from an existing `Preprocessed` value have already
//!   paid the whole-graph initialization, so there is nothing to reduce;
//! * costs that do not declare an [`AtomCombine`] (see
//!   [`BagCost::atom_combine`]) cannot be ranked per-atom soundly;
//! * decompositions with a single atom gain nothing.
//!
//! [`EnumerationStats::atoms`] reports what happened: `0` — no
//! decomposition was attempted (one of the fallbacks above); `1` — the
//! decomposition found a single atom, so the direct engine ran; `≥ 2` —
//! the factorized engine ran. `.threads(t)` is honored on every path:
//! with the factorized engine active, the per-atom preprocessing and the
//! per-atom ranked streams run on a shared work-stealing
//! [`pool`] (atoms are independent subproblems); on every
//! fallback the thread count flows through to the direct engine's pool.
//! [`EnumerationStats::effective_threads`] reports what actually ran.
//!
//! # Atom caching
//!
//! With a cache active — [`Enumerate::cache`] /
//! [`Reduced::cache`] set to a non-`Off` [`CachePolicy`], or an explicit
//! [`Reduced::store`] — atoms are grouped by the canonical form of their
//! remapped subgraph before streams are built:
//!
//! * **intra-run dedup** — isomorphic atoms within one decomposition share
//!   a single stream enumerated in the canonical labeling, each atom
//!   relabeling the shared fill edges on emission;
//! * **cross-session reuse** — non-chordal groups look their
//!   `(canonical key, cost, width bound)` address up in the
//!   [`AtomStore`]; a hit seeds the stream's memo buffer (no per-atom
//!   preprocessing until demand outruns the prefix), a miss computes cold
//!   and publishes everything it learned — including speculative prefetch
//!   results computed on pool workers — when the run ends.
//!
//! Cached and cold runs emit equivalent ranked streams: the same cost
//! sequence, and the same triangulations up to the recorded canonical
//! relabeling (equal-cost results may tie-break differently than a
//! cache-*off* run, whose streams are enumerated in atom-local labeling).
//! [`EnumerationStats::atom_cache_hits`] /
//! [`EnumerationStats::atom_cache_misses`] /
//! [`EnumerationStats::atoms_deduped`] / [`EnumerationStats::cache_bytes`]
//! report what the cache did.

use crate::decompose::{decompose, ReductionLevel};
use crate::merge::{AtomStream, FactorizedEnumerator};
use crate::plan::{plan_canonical, plan_identity, StreamPlan};
use mtr_cache::{AtomKey, AtomStore, CachedPrefix, DEFAULT_BYTE_BUDGET};
use mtr_core::cost::{AtomCombine, BagCost};
use mtr_core::diverse::DiversityFilter;
use mtr_core::mintriang::{potential_maximal_cliques_counted, Preprocessed};
use mtr_core::pool::{self, resolve_threads, WorkerPool};
use mtr_core::ranked::RankedTriangulation;
use mtr_core::session::{
    drive_engine, heuristic_incumbent, CachePolicy, Enumerate, EnumerationError, EnumerationRun,
    EnumerationStats, PruningPolicy, SessionConfig, SessionReport, StopReason,
};
use mtr_core::symmetry::SymmetryPolicy;
use mtr_graph::Graph;
use mtr_pmc::enumerate::PmcDeadlineExceeded;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Extension trait adding [`reduce`](EnumerateReduceExt::reduce) to the
/// [`Enumerate`] session builder. Import it (or the facade prelude) and
/// chain `.reduce(level)` like any other builder knob.
pub trait EnumerateReduceExt<'a, K: BagCost + Sync + ?Sized> {
    /// Enables safe reductions and clique-separator atom decomposition for
    /// this session. `ReductionLevel::Off` keeps the direct engine; see the
    /// [module documentation](self) for the fallback rules.
    fn reduce(self, level: ReductionLevel) -> Reduced<'a, K>;
}

impl<'a, K: BagCost + Sync + ?Sized> EnumerateReduceExt<'a, K> for Enumerate<'a, K> {
    fn reduce(self, level: ReductionLevel) -> Reduced<'a, K> {
        Reduced {
            config: self.into_config(),
            level,
            store: None,
        }
    }
}

/// A reduction-enabled session: an [`Enumerate`] configuration plus a
/// [`ReductionLevel`]. Terminal methods mirror the direct session's.
pub struct Reduced<'a, K: BagCost + Sync + ?Sized> {
    config: SessionConfig<'a, K>,
    level: ReductionLevel,
    /// An explicit atom store, overriding the configured [`CachePolicy`].
    store: Option<Arc<AtomStore>>,
}

impl<'a, K: BagCost + Sync + ?Sized> Reduced<'a, K> {
    /// Budget: stop after `k` results (mirrors [`Enumerate::max_results`]),
    /// so budgets can be chained after `.reduce(..)` too.
    pub fn max_results(mut self, k: usize) -> Self {
        self.config.max_results = Some(k);
        self
    }

    /// Budget: wall-clock deadline covering the per-atom preprocessing too
    /// (mirrors [`Enumerate::deadline`]).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Budget: cap on explored Lawler–Murty partitions, summed across the
    /// per-atom streams (mirrors [`Enumerate::node_budget`]).
    pub fn node_budget(mut self, nodes: usize) -> Self {
        self.config.node_budget = Some(nodes);
        self
    }

    /// Restricts every atom's enumeration to width ≤ `bound` — equivalent
    /// to the whole-graph bound, since a triangulation's width is the
    /// maximum over its atoms (mirrors [`Enumerate::width_bound`]).
    pub fn width_bound(mut self, bound: usize) -> Self {
        self.config.width_bound = Some(bound);
        self
    }

    /// Worker threads for the per-atom preprocessing and stream advancement
    /// (`0` auto-detects; mirrors [`Enumerate::threads`], so the knob can
    /// also be chained after `.reduce(..)`).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Atom cache policy (mirrors [`Enumerate::cache`], so the knob can be
    /// chained after `.reduce(..)` too).
    pub fn cache(mut self, policy: CachePolicy) -> Self {
        self.config.cache = policy;
        self
    }

    /// Incumbent-bounded pruning policy (mirrors [`Enumerate::pruning`]):
    /// applies both to the product-space merge and to every per-atom
    /// stream's own Lawler–Murty search. Exact either way.
    pub fn pruning(mut self, policy: PruningPolicy) -> Self {
        self.config.pruning = policy;
        self
    }

    /// Symmetry policy (mirrors [`Enumerate::symmetry`], so the knob can
    /// be chained after `.reduce(..)` too). `ModuloSymmetry` falls back to
    /// the direct engine, because a whole-graph automorphism may permute
    /// atoms — a quotient the per-atom product stream cannot see.
    pub fn symmetry(mut self, policy: SymmetryPolicy) -> Self {
        self.config.symmetry = policy;
        self
    }

    /// Cooperative cancellation flag (mirrors [`Enumerate::cancel_flag`]):
    /// raising it stops the merge and every per-atom stream at their next
    /// demand boundary with [`StopReason::Cancelled`], and the run
    /// publishes only fully computed prefixes to the atom store.
    pub fn cancel_flag(mut self, flag: mtr_core::CancelFlag) -> Self {
        self.config.cancel = Some(flag);
        self
    }

    /// Uses `store` as the atom cache for this session, overriding the
    /// configured [`CachePolicy`] — the programmatic way to share one
    /// in-memory store across chosen sessions (clone the `Arc`):
    ///
    /// ```
    /// use mtr_cache::AtomStore;
    /// use mtr_core::{cost::FillIn, Enumerate};
    /// use mtr_reduce::{EnumerateReduceExt, ReductionLevel};
    /// use mtr_graph::Graph;
    ///
    /// let g = Graph::from_edges(
    ///     7,
    ///     &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
    /// );
    /// let store = AtomStore::in_memory(1 << 20);
    /// let cold = Enumerate::on(&g)
    ///     .cost(&FillIn)
    ///     .reduce(ReductionLevel::Full)
    ///     .store(store.clone())
    ///     .run()?;
    /// let warm = Enumerate::on(&g)
    ///     .cost(&FillIn)
    ///     .reduce(ReductionLevel::Full)
    ///     .store(store)
    ///     .run()?;
    /// assert!(warm.stats.atom_cache_hits > 0);
    /// assert_eq!(cold.results.len(), warm.results.len());
    /// # Ok::<(), mtr_core::EnumerationError>(())
    /// ```
    pub fn store(mut self, store: Arc<AtomStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Runs the session, collecting the ranked minimal triangulations
    /// (mirrors [`Enumerate::run`]).
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

    /// Streams the session's results into `on_result` (mirrors
    /// [`Enumerate::drive`]).
    pub fn drive<F>(self, on_result: F) -> Result<SessionReport, EnumerationError>
    where
        F: FnMut(RankedTriangulation) -> ControlFlow<()>,
    {
        let started = Instant::now();
        let Reduced {
            config,
            level,
            store,
        } = self;

        // Decide whether the factorized engine applies; otherwise fall back
        // to the direct session, which also performs all the validation —
        // and which honors `config.threads` through its own worker pool,
        // so the thread count is never dropped on a fallback.
        let combine = config.cost().atom_combine();
        let graph = config.graph();
        // Modulo-symmetry quotients by the automorphism group of the *whole*
        // graph, which the per-atom product stream cannot see (an
        // automorphism may permute atoms); the direct engine handles it.
        let applicable = level != ReductionLevel::Off
            && combine.is_some()
            && graph.is_some()
            && config.symmetry != SymmetryPolicy::ModuloSymmetry;
        if !applicable {
            return Enumerate::from_config(config).drive(on_result);
        }
        let (graph, combine) = (graph.expect("checked"), combine.expect("checked"));

        if let Some((_, threshold)) = config.diversity {
            if !(0.0..=1.0).contains(&threshold) {
                return Err(EnumerationError::InvalidDiversityThreshold(threshold));
            }
        }

        let decomposition = decompose(graph, level);
        let atom_count = decomposition.atoms.len();
        if atom_count <= 1 {
            // Nothing factorized out: the direct engine is strictly better
            // (the merge layer would only duplicate per-result work). The
            // atom count is still reported so callers can see why. The
            // cache has nothing to key here either (no atoms ran).
            let mut report = Enumerate::from_config(config).drive(on_result)?;
            report.stats.atoms = atom_count.max(1);
            return Ok(report);
        }

        // Resolve the atom store: an explicit `.store(..)` wins, then the
        // configured policy. Canonicalization (and intra-run dedup) is on
        // exactly when a store is attached.
        let store = match store {
            Some(s) => Some(s),
            None => match &config.cache {
                CachePolicy::Off => None,
                CachePolicy::InMemory(bytes) => Some(mtr_cache::global_store(*bytes)),
                CachePolicy::Dir(path) => Some(
                    AtomStore::persistent(path, DEFAULT_BYTE_BUDGET).map_err(|e| {
                        EnumerationError::Io {
                            path: path.display().to_string(),
                            message: e.to_string(),
                        }
                    })?,
                ),
            },
        };

        // Plan the streams (grouping isomorphic atoms when caching) and
        // look up every keyed group — all ahead of the pool scope, so the
        // plan can be borrowed by pool tasks.
        let cost_id = config.cost().name();
        let plan = if store.is_some() {
            plan_canonical(&decomposition.atoms, &cost_id, config.width_bound)
        } else {
            plan_identity(&decomposition.atoms)
        };
        let seeds: Vec<Option<CachedPrefix>> = plan
            .specs
            .iter()
            .map(|spec| match (&store, &spec.key) {
                (Some(store), Some(key)) => store.lookup(key),
                _ => None,
            })
            .collect();
        let setup = FactorizedSetup { plan, seeds, store };

        let threads = resolve_threads(config.threads);
        if threads > 1 {
            // One pool for the whole reduced session: the per-atom
            // preprocessing fans out over it first, then the factorized
            // engine advances the per-atom streams on the same workers.
            pool::scoped(threads, |p| {
                drive_factorized(
                    graph,
                    &setup,
                    atom_count,
                    &config,
                    combine,
                    threads,
                    Some(p),
                    started,
                    on_result,
                )
            })
        } else {
            drive_factorized(
                graph, &setup, atom_count, &config, combine, threads, None, started, on_result,
            )
        }
    }
}

/// Everything the factorized drive needs beyond the session config: the
/// stream plan, the per-group cache seeds, and the store to publish into.
struct FactorizedSetup {
    plan: StreamPlan,
    seeds: Vec<Option<CachedPrefix>>,
    store: Option<Arc<AtomStore>>,
}

/// The single place reduce-path statistics are stamped from, normal
/// completion and aborted initialization alike — so a newly added stats
/// field cannot silently stay zero on one path (it either appears here or
/// the field review catches it).
struct StatsContext {
    cost_name: String,
    atoms: usize,
    threads: usize,
    cache_hits: usize,
    cache_misses: usize,
    atoms_deduped: usize,
    store: Option<Arc<AtomStore>>,
}

impl StatsContext {
    fn new(setup: &FactorizedSetup, cost_name: String, atoms: usize, threads: usize) -> Self {
        let keyed = setup.plan.specs.iter().filter(|s| s.key.is_some()).count();
        let cache_hits = setup.seeds.iter().filter(|s| s.is_some()).count();
        StatsContext {
            cost_name,
            atoms,
            threads,
            cache_hits,
            cache_misses: keyed - cache_hits,
            atoms_deduped: setup.plan.deduped,
            store: setup.store.clone(),
        }
    }

    fn cache_bytes(&self) -> usize {
        self.store.as_ref().map_or(0, |s| s.stats().bytes)
    }

    /// Base statistics for this run; the caller fills in the
    /// preprocessing counters and lets [`drive_engine`] own the rest.
    fn stats(&self, started: &Instant, preprocessing_complete: bool) -> EnumerationStats {
        let elapsed = started.elapsed();
        EnumerationStats {
            cost: self.cost_name.clone(),
            preprocessing: elapsed,
            preprocessing_complete,
            total: elapsed,
            atoms: self.atoms,
            effective_threads: self.threads,
            atom_cache_hits: self.cache_hits,
            atom_cache_misses: self.cache_misses,
            atoms_deduped: self.atoms_deduped,
            cache_bytes: self.cache_bytes(),
            // The factorized path runs no automorphism probe.
            symmetry_group_order: 1,
            ..EnumerationStats::default()
        }
    }
}

/// Builds one non-chordal group's cold ranked stream: its own (possibly
/// width-bounded) `Preprocessed`, stopped at the session deadline. A plain
/// function (not a closure) so pool tasks can call it while borrowing only
/// the stream's graph.
fn build_stream(
    graph: &Graph,
    key: Option<AtomKey>,
    width_bound: Option<usize>,
    deadline_at: Option<Instant>,
) -> Result<AtomStream, PmcDeadlineExceeded> {
    let e = potential_maximal_cliques_counted(graph, width_bound.map(|b| b + 1), deadline_at)?;
    let pre =
        Preprocessed::from_parts_threaded(graph, e.minimal_separators, e.pmcs, width_bound, 1);
    Ok(AtomStream::cold(pre, key))
}

/// The factorized half of [`Reduced::drive`], parameterized over an
/// optional worker pool (pulled out of the method so the pool scope can
/// wrap it with the right lifetimes).
#[allow(clippy::too_many_arguments)] // internal seam mirroring the session knobs
fn drive_factorized<'env, 'p, K, F>(
    graph: &'env Graph,
    setup: &'env FactorizedSetup,
    atom_count: usize,
    config: &'env SessionConfig<'_, K>,
    combine: AtomCombine,
    threads: usize,
    worker_pool: Option<WorkerPool<'env, 'p>>,
    started: Instant,
    on_result: F,
) -> Result<SessionReport, EnumerationError>
where
    K: BagCost + Sync + ?Sized,
    F: FnMut(RankedTriangulation) -> ControlFlow<()>,
{
    let ctx = StatsContext::new(setup, config.cost().name(), atom_count, threads);
    let deadline_at = config.deadline.and_then(|d| started.checked_add(d));
    let width_bound = config.width_bound;
    let aborted_init = |started: &Instant| SessionReport {
        stats: ctx.stats(started, false),
        stop_reason: StopReason::DeadlineExceeded,
    };

    // Per-group stream construction: chordal groups get trivial streams,
    // cache hits are seeded (no preprocessing yet), and the remaining cold
    // groups are independent subproblems — with a pool they are
    // preprocessed concurrently (the deadline applies inside each task).
    // Sequentially the deadline covers the whole sequence as before.
    let specs = &setup.plan.specs;
    let mut slots: Vec<Option<AtomStream>> = Vec::with_capacity(specs.len());
    let mut pending: Vec<usize> = Vec::new();
    for (g, spec) in specs.iter().enumerate() {
        if spec.chordal {
            slots.push(Some(AtomStream::trivial(spec.graph.clone())));
        } else if let Some(prefix) = &setup.seeds[g] {
            let key = spec.key.clone().expect("seeded specs are keyed");
            slots.push(Some(AtomStream::seeded(
                spec.graph.clone(),
                width_bound,
                key,
                prefix,
            )));
        } else {
            slots.push(None);
            pending.push(g);
        }
    }
    match worker_pool {
        Some(p) if pending.len() > 1 => {
            let tasks: Vec<_> = pending
                .iter()
                .map(|&g| {
                    let spec = &specs[g];
                    move || {
                        (
                            g,
                            build_stream(&spec.graph, spec.key.clone(), width_bound, deadline_at),
                        )
                    }
                })
                .collect();
            let built_streams = p
                .run_batch(tasks)
                .map_err(|panic| EnumerationError::WorkerPanicked(panic.message))?;
            for (g, built) in built_streams {
                match built {
                    Ok(stream) => slots[g] = Some(stream),
                    Err(PmcDeadlineExceeded) => return Ok(aborted_init(&started)),
                }
            }
        }
        _ => {
            for &g in &pending {
                let spec = &specs[g];
                match build_stream(&spec.graph, spec.key.clone(), width_bound, deadline_at) {
                    Ok(stream) => slots[g] = Some(stream),
                    Err(PmcDeadlineExceeded) => return Ok(aborted_init(&started)),
                }
            }
        }
    }
    let mut streams: Vec<AtomStream> = slots
        .into_iter()
        .map(|s| s.expect("every group got a stream"))
        .collect();

    // Incumbent-bounded pruning, both per atom (each stream's own
    // Lawler–Murty search gets a heuristic seed for its atom graph) and
    // across the merge (a whole-graph heuristic seed bounds the product
    // space before the first result is even emitted).
    let prune = config.pruning.is_enabled();
    for stream in &mut streams {
        stream.arm(config.cost(), width_bound, prune);
    }

    let mut engine = FactorizedEnumerator::new(
        graph,
        config.cost(),
        combine,
        width_bound,
        &setup.plan.members,
        streams,
        worker_pool,
    );
    if prune {
        engine.enable_pruning(heuristic_incumbent(graph, config.cost(), width_bound));
    }
    if let Some(flag) = &config.cancel {
        engine.bind_cancel(flag.clone());
    }
    let filter = config
        .diversity
        .map(|(measure, threshold)| DiversityFilter::new(graph, measure, threshold));

    let (minimal_separators, pmcs, full_blocks) = engine.preprocessing_counts();
    let mut stats = ctx.stats(&started, true);
    stats.minimal_separators = minimal_separators;
    stats.pmcs = pmcs;
    stats.full_blocks = full_blocks;
    // The shared session loop owns all budget/diversity/statistics
    // semantics; the factorized engine only supplies results.
    let stop_reason = drive_engine(
        &mut engine,
        filter,
        &mut stats,
        started,
        config.max_results,
        config.deadline,
        config.node_budget,
        config.cancel.as_ref(),
        on_result,
    );
    if let Some(message) = mtr_core::SessionEngine::failure(&engine) {
        // A stream-advancing batch died and took its stream slots with it:
        // nothing below (publishing included) is sound. Fail typed.
        return Err(EnumerationError::WorkerPanicked(message));
    }
    if let Some(store) = &setup.store {
        // Publish everything the streams learned (cold computation and
        // speculative prefetch alike), then refresh the resident size.
        engine.publish_into(store);
        stats.cache_bytes = store.stats().bytes;
    }
    if let Some(p) = worker_pool {
        let pool_stats = p.stats();
        stats.worker_tasks = pool_stats.worker_tasks;
        stats.steals = pool_stats.steals;
    }
    Ok(SessionReport { stats, stop_reason })
}
