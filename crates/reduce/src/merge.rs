//! The factorized ranked enumerator: one lazy ranked stream per *stream
//! group* (isomorphism class of atoms), merged into a single globally
//! ranked stream over the product space.
//!
//! Minimal triangulations factorize over the atoms of a clique-separator
//! decomposition: every minimal triangulation of the input is the union of
//! exactly one minimal triangulation per atom, with pairwise-disjoint fill
//! sets. The merge therefore ranks *tuples* `(j_1, …, j_k)` — "take the
//! `j_i`-th cheapest triangulation of atom `i`" — in a Lawler-style best
//! first search: a priority queue keyed by the combined cost (additive for
//! fill-like costs, max for width-like costs, per
//! [`AtomCombine`]), popping a tuple emits its materialized
//! triangulation and pushes the `k` tuples that increment one coordinate.
//! Per-atom streams are pulled lazily and memoized, so atom `i` only ever
//! computes as many of its own triangulations as the global ranking needs.
//!
//! With the atom cache active ([`CachePolicy`](mtr_core::CachePolicy)),
//! atoms are first grouped by the [`CanonicalForm`](mtr_graph::canonical)
//! of their remapped subgraph: isomorphic atoms share a *single* stream
//! enumerated in the canonical labeling, and each atom carries only a
//! [`MemberBinding`] — the composition `canonical → atom-local → original`
//! that translates the shared stream's fill edges back to original vertex
//! ids on emission. Each keyed group can additionally be *seeded* with a
//! prefix from an [`AtomStore`] (cross-session reuse) and publishes the
//! entries it computed back to the store when the run ends. A stream that
//! is demanded past its seeded prefix lazily materializes its own
//! preprocessing and replays the enumeration (which is deterministic) to
//! catch up — a warm session never does more work than a cold one for the
//! same demand, and usually far less.
//!
//! Emitted triangulations are fill-edge sets of the *original* graph: the
//! per-stream fill edges are remapped through the member binding, the
//! union graph is rebuilt, and the reported cost is re-evaluated on the
//! full bag set — so results are bit-for-bit comparable with the direct
//! engine's.
//!
//! With a [`WorkerPool`] attached, the per-group streams advance as pool
//! tasks: groups are independent subproblems, so after each pop the cold
//! coordinates of the successor tuples are pulled concurrently, and every
//! pull speculatively prefetches a small bounded lookahead of further
//! `(cost, fill)` entries into the group's memo buffer — the product-space
//! merge then never blocks on a cold stream for tuples it is about to
//! rank. The emitted sequence is identical to the sequential merge; only
//! the wall-clock delay (and the amount of speculative work) changes.

use mtr_cache::{AtomKey, AtomStore, CacheEntry, CachedPrefix};
use mtr_chordal::{maximal_cliques_chordal, minimal_separators_from_cliques};
use mtr_core::cost::{AtomCombine, BagCost, CostValue};
use mtr_core::pool::WorkerPool;
use mtr_core::ranked::{RankedQueue, Ticket};
use mtr_core::{heuristic_incumbent, CancelFlag, Preprocessed, RankedState, RankedTriangulation};
use mtr_graph::{Graph, Vertex};
use std::collections::HashSet;

/// How many results beyond the immediately needed index a pooled stream
/// pull fetches ahead — the bounded speculative prefetch. Small on purpose:
/// each extra result is one constrained re-optimization of the atom, so a
/// large lookahead would trade latency for wasted work near exhaustion.
/// Speculation is only enabled when the pool does not oversubscribe the
/// hardware (see [`FactorizedEnumerator::new`]): on fewer cores than
/// workers the speculative pulls cannot overlap with needed work, they can
/// only serialize after it.
const PREFETCH: usize = 2;

/// Handles into the [`mtr_obs`] registry for per-atom stream advancement,
/// resolved once so the hot demand path only touches atomics.
struct StreamMetrics {
    /// `reduce.stream.advances`: results pulled out of per-atom engines
    /// (seeded cache hits excluded — they cost nothing to serve).
    advances: mtr_obs::Counter,
    /// `reduce.stream.advance_ns`: wall time of one demand that actually
    /// advanced a stream (may cover several results when demand jumps).
    advance_ns: mtr_obs::Histogram,
}

fn stream_metrics() -> &'static StreamMetrics {
    static METRICS: std::sync::OnceLock<StreamMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| StreamMetrics {
        advances: mtr_obs::counter("reduce.stream.advances"),
        advance_ns: mtr_obs::histogram("reduce.stream.advance_ns"),
    })
}

/// One memoized per-stream result: its cost (evaluated on the stream's
/// graph — relabel-invariant for every factorizing cost) and its fill
/// edges in the *stream-local* labeling (atom-local without the cache,
/// canonical with it).
struct CachedResult {
    cost: CostValue,
    fill: Vec<(Vertex, Vertex)>,
}

/// The engine behind one group's ranked stream.
enum AtomEngine {
    /// Chordal atom: exactly one minimal triangulation (the atom itself,
    /// zero fill). No preprocessing, no Lawler–Murty machinery.
    Trivial { graph: Graph },
    /// A cache-seeded stream whose preprocessing has not been paid yet: it
    /// serves entries from the memo buffer and only materializes into
    /// [`AtomEngine::Ranked`] if demand runs past the seeded prefix.
    Lazy {
        graph: Graph,
        width_bound: Option<usize>,
    },
    /// General atom: a full ranked enumeration over its own preprocessing
    /// (boxed — `Preprocessed` is large compared to the other variants).
    /// `produced` counts the results the engine itself has emitted, which
    /// lags `cached.len()` while replaying over a seeded prefix.
    Ranked {
        pre: Box<Preprocessed>,
        state: Box<RankedState>,
        produced: usize,
    },
}

/// A lazily pulled, memoized ranked stream shared by one group of
/// isomorphic atoms.
pub(crate) struct AtomStream {
    engine: AtomEngine,
    cached: Vec<CachedResult>,
    exhausted: bool,
    /// `state.nodes_explored()` snapshot right after result `r` was
    /// produced — a deterministic function of `r`, independent of how far
    /// ahead speculation pulled. Seeded entries start at zero (they cost
    /// nothing) and are upgraded to real counts if a replay recomputes
    /// them.
    nodes_after: Vec<usize>,
    /// Results genuinely demanded by the merge so far (speculative
    /// prefetch pulls don't count), as a high-water index + 1.
    demanded: usize,
    /// Entries seeded from the atom store (prefix of `cached`).
    seeded: usize,
    /// The seeded prefix was already marked complete in the store.
    was_complete: bool,
    /// The content address of this stream, when cache-keyed; publishing
    /// and seeding both go through it.
    key: Option<AtomKey>,
    /// Incumbent-bounded pruning for the stream's own Lawler–Murty search
    /// (exact — the emitted stream is identical either way). Set by
    /// [`AtomStream::arm`] before the first pull; a lazily materialized
    /// engine is armed the same way.
    prune: bool,
    /// Cooperative cancellation: when raised, [`AtomStream::ensure`] bails
    /// out *without* marking the stream exhausted, so a partial prefix is
    /// still publishable (as incomplete) and never poisons the store.
    cancel: Option<CancelFlag>,
}

impl AtomStream {
    /// A stream backed by the trivial single-result engine (chordal
    /// atoms). `graph` is the stream-local graph the members map onto.
    pub(crate) fn trivial(graph: Graph) -> Self {
        AtomStream::with_engine(AtomEngine::Trivial { graph }, None)
    }

    /// A stream backed by a ranked enumeration over `pre` (the
    /// preprocessing of the stream-local graph), built eagerly — the cold
    /// path. `key` attaches the cache address its results publish under.
    pub(crate) fn cold(pre: Preprocessed, key: Option<AtomKey>) -> Self {
        AtomStream::with_engine(
            AtomEngine::Ranked {
                pre: Box::new(pre),
                state: Box::new(RankedState::new()),
                produced: 0,
            },
            key,
        )
    }

    /// A stream seeded from a cached prefix — the warm path. No
    /// preprocessing happens unless demand outruns the prefix, in which
    /// case the stream materializes lazily and replays (deterministically)
    /// to catch up.
    pub(crate) fn seeded(
        graph: Graph,
        width_bound: Option<usize>,
        key: AtomKey,
        prefix: &CachedPrefix,
    ) -> Self {
        let mut stream =
            AtomStream::with_engine(AtomEngine::Lazy { graph, width_bound }, Some(key));
        stream.cached = prefix
            .entries
            .iter()
            .map(|e: &CacheEntry| CachedResult {
                cost: if e.cost.is_infinite() {
                    CostValue::INFINITE
                } else {
                    CostValue::finite(e.cost)
                },
                fill: e.fill.clone(),
            })
            .collect();
        stream.nodes_after = vec![0; stream.cached.len()];
        stream.seeded = stream.cached.len();
        stream.was_complete = prefix.complete;
        stream.exhausted = prefix.complete;
        stream
    }

    fn with_engine(engine: AtomEngine, key: Option<AtomKey>) -> Self {
        AtomStream {
            engine,
            cached: Vec::new(),
            exhausted: false,
            nodes_after: Vec::new(),
            demanded: 0,
            seeded: 0,
            was_complete: false,
            key,
            prune: false,
            cancel: None,
        }
    }

    /// Binds a cooperative cancellation flag checked at every pull of the
    /// stream's engine (the per-atom demand boundary).
    pub(crate) fn bind_cancel(&mut self, flag: CancelFlag) {
        self.cancel = Some(flag);
    }

    /// Arms this stream's own enumeration with incumbent-bounded pruning,
    /// seeded with a heuristic minimal triangulation of the stream graph.
    /// Call before the first pull; seeded (lazy) streams arm their engine
    /// when (and if) demand materializes it.
    pub(crate) fn arm<K: BagCost + ?Sized>(
        &mut self,
        cost: &K,
        width_bound: Option<usize>,
        prune: bool,
    ) {
        self.prune = prune;
        if let AtomEngine::Ranked { pre, state, .. } = &mut self.engine {
            **state = armed_state(pre, cost, width_bound, prune);
        }
    }

    /// Re-optimizations the stream's own pruning deferred and never paid.
    fn nodes_pruned(&self) -> usize {
        match &self.engine {
            AtomEngine::Ranked { state, .. } => state.nodes_pruned(),
            _ => 0,
        }
    }

    /// Lawler–Murty partitions a *sequential* merge would have explored to
    /// satisfy the demand so far. Speculative prefetch work is excluded on
    /// purpose: node budgets must stop at the same result on every host
    /// and at every thread count, and the prefetch window varies with
    /// both. Cache-served entries count zero (no work was done for them).
    fn nodes_explored(&self) -> usize {
        match &self.engine {
            AtomEngine::Trivial { .. } | AtomEngine::Lazy { .. } => 0,
            AtomEngine::Ranked { state, .. } => {
                if self.demanded > self.cached.len() && self.exhausted {
                    // The demand ran past the stream's end, so the whole
                    // exploration (including the exhausting pull) was
                    // demanded — and its total is the same whether it was
                    // reached lazily or speculatively.
                    state.nodes_explored()
                } else {
                    match self.demanded.min(self.cached.len()) {
                        0 => 0,
                        upto => self.nodes_after[upto - 1],
                    }
                }
            }
        }
    }

    /// Records that the merge genuinely needs result `j` (or discovered
    /// exhaustion while trying to reach it).
    fn note_demand(&mut self, j: usize) {
        self.demanded = self.demanded.max(j + 1);
    }

    /// Number of results already sitting in the memo buffer.
    fn cached_len(&self) -> usize {
        self.cached.len()
    }

    fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    fn preprocessing_counts(&self) -> (usize, usize, usize) {
        match &self.engine {
            AtomEngine::Trivial { .. } | AtomEngine::Lazy { .. } => (0, 0, 0),
            AtomEngine::Ranked { pre, .. } => (
                pre.minimal_separators().len(),
                pre.pmcs().len(),
                pre.full_blocks().len(),
            ),
        }
    }

    /// What this stream should write back to the atom store: everything it
    /// knows, when that exceeds what the store already had. `None` when
    /// the stream is unkeyed or learned nothing new.
    pub(crate) fn publishable(&self) -> Option<(AtomKey, CachedPrefix)> {
        let key = self.key.clone()?;
        let learned_more =
            self.cached.len() > self.seeded || (self.exhausted && !self.was_complete);
        if !learned_more {
            return None;
        }
        Some((
            key,
            CachedPrefix {
                entries: self
                    .cached
                    .iter()
                    .map(|r| CacheEntry {
                        cost: r.cost.value(),
                        fill: r.fill.clone(),
                    })
                    .collect(),
                complete: self.exhausted,
            },
        ))
    }

    /// Makes sure result `j` is cached (pulling the engine as needed).
    /// Returns `false` when the stream is exhausted before `j`.
    fn ensure<K: BagCost + ?Sized>(
        &mut self,
        j: usize,
        cost: &K,
        width_bound: Option<usize>,
    ) -> bool {
        if self.cached.len() > j {
            // Already memoized: no engine work, no metrics traffic.
            return true;
        }
        let started = mtr_obs::clock();
        let before = self.cached.len();
        let ok = self.ensure_inner(j, cost, width_bound);
        let advanced = (self.cached.len() - before) as u64;
        if advanced > 0 {
            let metrics = stream_metrics();
            metrics.advances.add(advanced);
            metrics.advance_ns.record_elapsed(started);
        }
        ok
    }

    fn ensure_inner<K: BagCost + ?Sized>(
        &mut self,
        j: usize,
        cost: &K,
        width_bound: Option<usize>,
    ) -> bool {
        while self.cached.len() <= j {
            if self.exhausted {
                return false;
            }
            // The per-atom demand boundary. Crucially this does NOT set
            // `exhausted`: the memo buffer stays a valid (incomplete)
            // prefix, so a cancelled run publishes only what it truly knows.
            if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                return false;
            }
            if let AtomEngine::Lazy {
                graph,
                width_bound: bound,
            } = &self.engine
            {
                // Demand ran past the seeded prefix: pay the preprocessing
                // now and replay the (deterministic) enumeration below to
                // catch up with the seeded entries.
                let pre = match bound {
                    Some(b) => Preprocessed::new_bounded(graph, *b),
                    None => Preprocessed::new(graph),
                };
                let state = armed_state(&pre, cost, width_bound, self.prune);
                self.engine = AtomEngine::Ranked {
                    pre: Box::new(pre),
                    state: Box::new(state),
                    produced: 0,
                };
            }
            match &mut self.engine {
                AtomEngine::Lazy { .. } => unreachable!("materialized above"),
                AtomEngine::Trivial { graph } => {
                    self.exhausted = true;
                    let bags = maximal_cliques_chordal(graph)
                        .expect("trivial atoms are chordal by construction");
                    let width = bags.iter().map(|b| b.len()).max().unwrap_or(1) - 1;
                    if width_bound.is_some_and(|b| width > b) {
                        return false;
                    }
                    let value = cost.cost_of_bags(graph, &graph.vertex_set(), &bags);
                    self.cached.push(CachedResult {
                        cost: value,
                        fill: Vec::new(),
                    });
                }
                AtomEngine::Ranked {
                    pre,
                    state,
                    produced,
                } => match state.next(pre, cost) {
                    Some(result) => {
                        let idx = *produced;
                        *produced += 1;
                        if idx < self.cached.len() {
                            // Replaying over a seeded prefix: the engine
                            // recomputed a cache-served entry. Upgrade its
                            // node count; the result itself must match.
                            debug_assert_eq!(
                                self.cached[idx].cost, result.cost,
                                "cached prefix diverges from the enumeration"
                            );
                            self.nodes_after[idx] = state.nodes_explored();
                        } else {
                            let fill = pre.graph().fill_edges_of(&result.triangulation);
                            self.cached.push(CachedResult {
                                cost: result.cost,
                                fill,
                            });
                            self.nodes_after.push(state.nodes_explored());
                        }
                    }
                    None => {
                        debug_assert!(
                            *produced >= self.cached.len(),
                            "cached prefix is longer than the actual stream"
                        );
                        self.exhausted = true;
                        return false;
                    }
                },
            }
        }
        true
    }
}

/// A fresh ranked state for a stream over `pre`, armed as
/// [`AtomStream::arm`] asked.
fn armed_state<K: BagCost + ?Sized>(
    pre: &Preprocessed,
    cost: &K,
    width_bound: Option<usize>,
    prune: bool,
) -> RankedState {
    let mut state = RankedState::new();
    if prune {
        state.enable_pruning(heuristic_incumbent(pre.graph(), cost, width_bound));
    }
    state
}

/// How one atom of the decomposition maps onto its (possibly shared)
/// stream: the group index plus the vertex translation used on emission.
pub(crate) struct MemberBinding {
    /// Index into the enumerator's stream table.
    pub group: usize,
    /// `emit_map[stream_local] = original`: translates the stream's fill
    /// edges back to original-graph vertex ids. Without the cache this is
    /// the atom's own mapping; with it, the composition through the
    /// canonical relabeling.
    pub emit_map: Vec<Vertex>,
}

/// One pending tuple of per-atom stream indices. Solved tuples are queued
/// at their exact combined cost; deferred ones only at an admissible lower
/// bound (the cost of the tuple they were generated from), and have not
/// demanded anything from the per-atom streams yet.
struct PendingTuple {
    tuple: Vec<u32>,
    solved: bool,
}

/// The merged, globally ranked enumerator over the product of the per-atom
/// streams. Tuples are indexed per *atom* (members); the backing streams
/// are per *group*, so isomorphic atoms share memoized work.
///
/// The `Option` wrapping of the streams exists for the pooled mode: a
/// stream is temporarily *moved* into a pool task while it advances on a
/// worker and put back when the batch completes, so the engine needs no
/// shared mutable state (and no locks) across threads. Outside a batch
/// every slot is occupied.
pub(crate) struct FactorizedEnumerator<'a, 'p, K: BagCost + Sync + ?Sized> {
    graph: &'a Graph,
    cost: &'a K,
    combine: AtomCombine,
    width_bound: Option<usize>,
    members: &'a [MemberBinding],
    streams: Vec<Option<AtomStream>>,
    pool: Option<WorkerPool<'a, 'p>>,
    prefetch: usize,
    queue: RankedQueue<PendingTuple>,
    seen: HashSet<Vec<u32>>,
    started: bool,
    prune: bool,
    incumbent: Option<CostValue>,
    nodes_deferred: usize,
    cancel: Option<CancelFlag>,
    /// First pool-task failure (contained panic or injected fault) seen by
    /// a stream-advancing batch. Once set the merge stops producing: the
    /// batch consumed stream slots it can no longer restore, so every
    /// later demand would be unsound — the session surfaces the typed
    /// failure instead.
    failed: Option<String>,
}

impl<'a, 'p, K: BagCost + Sync + ?Sized> FactorizedEnumerator<'a, 'p, K> {
    pub(crate) fn new(
        graph: &'a Graph,
        cost: &'a K,
        combine: AtomCombine,
        width_bound: Option<usize>,
        members: &'a [MemberBinding],
        streams: Vec<AtomStream>,
        pool: Option<WorkerPool<'a, 'p>>,
    ) -> Self {
        let hardware = std::thread::available_parallelism().map_or(1, |n| n.get());
        let prefetch = match &pool {
            Some(p) if p.threads() <= hardware => PREFETCH,
            _ => 0,
        };
        FactorizedEnumerator {
            graph,
            cost,
            combine,
            width_bound,
            members,
            streams: streams.into_iter().map(Some).collect(),
            pool,
            prefetch,
            queue: RankedQueue::default(),
            seen: HashSet::new(),
            started: false,
            prune: false,
            incumbent: None,
            nodes_deferred: 0,
            cancel: None,
            failed: None,
        }
    }

    /// Binds a cooperative cancellation flag to the merge and to every
    /// per-group stream: the iterator returns `None` at its next tuple pop,
    /// and in-flight stream pulls (pooled or lazy) stop at their own demand
    /// boundaries.
    pub(crate) fn bind_cancel(&mut self, flag: CancelFlag) {
        for slot in &mut self.streams {
            if let Some(stream) = slot.as_mut() {
                stream.bind_cancel(flag.clone());
            }
        }
        self.cancel = Some(flag);
    }

    /// Enables incumbent-bounded pruning of the product-space merge,
    /// optionally seeded with the cost of a heuristic triangulation of the
    /// whole graph. Successor tuples of a popped tuple that is already
    /// costlier than the incumbent are deferred: they enter the queue on the
    /// parent's cost (a valid lower bound — per-atom streams are
    /// nondecreasing and both combines are monotone) without demanding
    /// anything from the per-atom streams, and are only priced if the
    /// ranked order reaches them. Exact: the emitted sequence is unchanged.
    pub(crate) fn enable_pruning(&mut self, incumbent: Option<CostValue>) {
        debug_assert!(!self.started, "enable pruning before iterating");
        self.prune = true;
        self.incumbent = incumbent;
    }

    /// Deferred work never paid for: queued tuples still unpriced plus the
    /// per-atom streams' own deferred re-optimizations.
    pub(crate) fn nodes_pruned(&self) -> usize {
        self.nodes_deferred
            + (0..self.streams.len())
                .map(|g| self.stream(g).nodes_pruned())
                .sum::<usize>()
    }

    /// The current global incumbent bound, if pruning is active.
    pub(crate) fn incumbent(&self) -> Option<CostValue> {
        self.incumbent
    }

    fn stream(&self, group: usize) -> &AtomStream {
        self.streams[group]
            .as_ref()
            .expect("stream present outside batch")
    }

    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Lawler–Murty partitions explored across all streams, counting
    /// only *demanded* work (see [`AtomStream::nodes_explored`]): node
    /// budgets therefore stop at the same result sequentially, in
    /// parallel, and on any host, regardless of speculative prefetch.
    /// (With the cache active, served entries count zero — warm sessions
    /// genuinely explore less.)
    pub(crate) fn nodes_explored(&self) -> usize {
        (0..self.streams.len())
            .map(|g| self.stream(g).nodes_explored())
            .sum()
    }

    /// `(minimal separators, PMCs, full blocks)` summed over the per-group
    /// preprocessings (cache-served streams that never materialized count
    /// zero).
    pub(crate) fn preprocessing_counts(&self) -> (usize, usize, usize) {
        (0..self.streams.len())
            .map(|g| self.stream(g).preprocessing_counts())
            .fold((0, 0, 0), |(a, b, c), (x, y, z)| (a + x, b + y, c + z))
    }

    /// Writes every stream's newly computed entries back to `store` —
    /// called once by the session when the run ends, so prefetch results
    /// computed speculatively on pool workers are published too.
    pub(crate) fn publish_into(&self, store: &AtomStore) {
        for g in 0..self.streams.len() {
            if let Some((key, prefix)) = self.stream(g).publishable() {
                store.publish(&key, prefix);
            }
        }
    }

    /// Pool mode: advances the streams behind every `(member, index)`
    /// target concurrently (one task per cold group, at the group's
    /// maximum demanded index), each pull prefetching [`PREFETCH`] results
    /// beyond its target. Sequential mode: no-op —
    /// [`FactorizedEnumerator::combined_cost`] pulls lazily as before.
    fn ensure_batch(&mut self, targets: &[(usize, usize)]) {
        let Some(pool) = self.pool else { return };
        let cost = self.cost;
        let width_bound = self.width_bound;
        let prefetch = self.prefetch;
        // Aggregate member targets into one per group (members sharing a
        // group demand the maximum of their coordinates).
        let mut group_target: Vec<Option<usize>> = vec![None; self.streams.len()];
        for &(i, j) in targets {
            let g = self.members[i].group;
            group_target[g] = Some(group_target[g].map_or(j, |prev: usize| prev.max(j)));
        }
        let cold: Vec<(usize, usize)> = group_target
            .iter()
            .enumerate()
            .filter_map(|(g, target)| target.map(|j| (g, j)))
            .filter(|&(g, j)| {
                let s = self.stream(g);
                !s.is_exhausted() && s.cached_len() <= j
            })
            .collect();
        let tasks: Vec<_> = cold
            .into_iter()
            .map(|(g, j)| {
                let mut stream = self.streams[g]
                    .take()
                    .expect("stream present outside batch");
                move || {
                    stream.ensure(j + prefetch, cost, width_bound);
                    (g, stream)
                }
            })
            .collect();
        match pool.run_batch(tasks) {
            Ok(advanced) => {
                for (g, stream) in advanced {
                    self.streams[g] = Some(stream);
                }
            }
            Err(panic) => {
                // The batch's stream slots are unrecoverable (they moved
                // into the dead tasks); record the failure and let `next`
                // refuse further work before any slot is dereferenced.
                self.failed = Some(panic.message);
            }
        }
    }

    /// The combined cost of a tuple, pulling streams as needed;
    /// `None` when some coordinate is past the end of its (finite) stream.
    fn combined_cost(&mut self, tuple: &[u32]) -> Option<CostValue> {
        let cost = self.cost;
        let width_bound = self.width_bound;
        let mut acc: Option<CostValue> = None;
        for (i, &j) in tuple.iter().enumerate() {
            let group = self.members[i].group;
            let stream = self.streams[group]
                .as_mut()
                .expect("stream present outside batch");
            // This is the genuine demand point (speculative prefetch goes
            // through `ensure_batch` instead): record it whether or not
            // the stream can satisfy it, for the node accounting.
            stream.note_demand(j as usize);
            if !stream.ensure(j as usize, cost, width_bound) {
                return None;
            }
            let c = stream.cached[j as usize].cost;
            acc = Some(match (acc, self.combine) {
                (None, _) => c,
                (Some(a), AtomCombine::Additive) => a.plus(c),
                (Some(a), AtomCombine::Max) => a.max(c),
            });
        }
        Some(acc.unwrap_or(CostValue::ZERO))
    }

    fn push_tuple(&mut self, tuple: Vec<u32>) {
        if !self.seen.insert(tuple.clone()) {
            return;
        }
        if let Some(cost) = self.combined_cost(&tuple) {
            let solved = true;
            self.queue.push(cost, PendingTuple { tuple, solved });
        }
    }

    /// Queues `tuple` on its parent's cost alone, without demanding
    /// anything from the per-atom streams. Its place in the tie order is
    /// fixed now (generation order), so if the tuple is later solved and
    /// survives it ranks exactly where an eager push would have ranked it.
    fn defer_tuple(&mut self, tuple: Vec<u32>, lower_bound: CostValue) {
        if !self.seen.insert(tuple.clone()) {
            return;
        }
        self.nodes_deferred += 1;
        let solved = false;
        self.queue.push(lower_bound, PendingTuple { tuple, solved });
    }

    /// Pays for a deferred tuple that reached the queue front: prices it
    /// against the per-atom streams (pool-warming cold coordinates first)
    /// and reinserts it at its exact cost in its original tie position.
    /// Dropped if some coordinate is past the end of its stream.
    fn solve_deferred(&mut self, ticket: Ticket, lower_bound: CostValue, tuple: Vec<u32>) {
        self.nodes_deferred -= 1;
        let wanted: Vec<(usize, usize)> = tuple
            .iter()
            .enumerate()
            .map(|(i, &j)| (i, j as usize))
            .collect();
        self.ensure_batch(&wanted);
        if self.failed.is_some() {
            return;
        }
        if let Some(cost) = self.combined_cost(&tuple) {
            debug_assert!(
                cost >= lower_bound,
                "deferred tuple lower bound was not admissible"
            );
            let solved = true;
            self.queue
                .reinsert(ticket, cost, PendingTuple { tuple, solved });
        }
    }

    /// Rebuilds the original-graph triangulation a tuple denotes.
    fn materialize(&self, tuple: &[u32], key: CostValue) -> RankedTriangulation {
        let mut h = self.graph.clone();
        for (i, &j) in tuple.iter().enumerate() {
            let member = &self.members[i];
            for &(u, v) in &self.stream(member.group).cached[j as usize].fill {
                h.add_edge(member.emit_map[u as usize], member.emit_map[v as usize]);
            }
        }
        let bags = maximal_cliques_chordal(&h)
            .expect("the union of per-atom minimal triangulations is chordal");
        let cost = self
            .cost
            .cost_of_bags(self.graph, &self.graph.vertex_set(), &bags);
        // The combined queue key must equal the true cost — that is exactly
        // the contract of `AtomCombine` — otherwise the stream would not be
        // globally sorted.
        debug_assert_eq!(cost, key, "atom_combine() contract violated");
        // H is chordal, so its minimal separators are the clique-tree
        // adhesions — a fraction of the cost of a separator enumeration,
        // which used to dominate the per-result delay of the merge.
        let seps = minimal_separators_from_cliques(bags.clone());
        RankedTriangulation {
            minimal_separators: seps,
            triangulation: h,
            bags,
            cost,
        }
    }
}

impl<K: BagCost + Sync + ?Sized> Iterator for FactorizedEnumerator<'_, '_, K> {
    type Item = RankedTriangulation;

    fn next(&mut self) -> Option<RankedTriangulation> {
        if self.failed.is_some() {
            return None;
        }
        if !self.started {
            self.started = true;
            // The all-zeros tuple: every atom's optimum. For the empty
            // product (zero atoms, i.e. the empty graph) this is the empty
            // tuple whose materialization is the graph itself. In pool mode
            // the per-group optima are computed concurrently first.
            let first: Vec<(usize, usize)> = (0..self.members.len()).map(|i| (i, 0)).collect();
            self.ensure_batch(&first);
            if self.failed.is_some() {
                return None;
            }
            self.push_tuple(vec![0; self.members.len()]);
        }
        loop {
            // The merge's demand boundary: between tuple pops, so a
            // cancelled (or batch-failed) session never prices or
            // materializes another tuple.
            if self.failed.is_some() || self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                return None;
            }
            let (key, ticket, PendingTuple { tuple, solved }) = self.queue.pop()?;
            if !solved {
                // A deferred tuple reached the top: its exact cost is now
                // needed to decide the order, so pay for it and re-rank.
                self.solve_deferred(ticket, key, tuple);
                continue;
            }
            // Every successor's lower bound is this tuple's cost (per-atom
            // streams are nondecreasing and both combines monotone), so
            // when that already exceeds the incumbent, defer all of them
            // without touching the streams.
            let defer_children = self.prune && self.incumbent.is_some_and(|inc| key > inc);
            if !defer_children {
                // Pool mode: warm every successor coordinate concurrently
                // before the (sequential) queue pushes read the memoized
                // costs.
                let wanted: Vec<(usize, usize)> = tuple
                    .iter()
                    .enumerate()
                    .map(|(i, &j)| (i, j as usize + 1))
                    .collect();
                self.ensure_batch(&wanted);
                if self.failed.is_some() {
                    return None;
                }
            }
            let result = self.materialize(&tuple, key);
            for i in 0..tuple.len() {
                let mut successor = tuple.clone();
                successor[i] += 1;
                if defer_children {
                    self.defer_tuple(successor, key);
                } else {
                    self.push_tuple(successor);
                }
            }
            if self.prune {
                self.incumbent = Some(result.cost);
            }
            return Some(result);
        }
    }
}

impl<K: BagCost + Sync + ?Sized> mtr_core::SessionEngine for FactorizedEnumerator<'_, '_, K> {
    fn next_result(&mut self) -> Option<RankedTriangulation> {
        self.next()
    }

    fn queue_depth(&self) -> usize {
        self.queue_depth()
    }

    fn nodes_explored(&self) -> usize {
        self.nodes_explored()
    }

    fn duplicates_skipped(&self) -> usize {
        // Distinct tuples materialize distinct fill unions (per-atom fill
        // sets are disjoint), and the `seen` set keeps tuples unique.
        0
    }

    fn nodes_pruned(&self) -> usize {
        self.nodes_pruned()
    }

    fn incumbent_cost(&self) -> Option<CostValue> {
        self.incumbent()
    }

    fn failure(&self) -> Option<String> {
        self.failed.clone()
    }
}
