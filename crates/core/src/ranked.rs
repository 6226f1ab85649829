//! `RankedTriang⟨κ⟩` — ranked enumeration of minimal triangulations
//! (Section 6, Figure 4 of the paper).
//!
//! The enumerator adapts the Lawler–Murty procedure: the space of minimal
//! triangulations is partitioned by inclusion/exclusion constraints over
//! minimal separators (by Parra–Scheffler, a minimal triangulation is
//! identified by its set of minimal separators). A priority queue holds one
//! entry per partition, keyed by the cost of the partition's best member,
//! which is computed by `MinTriang⟨κ[I, X]⟩` under the partition's
//! constraints. Popping the cheapest entry emits its triangulation and
//! splits the remainder of its partition into sub-partitions.
//!
//! The paper notes (Section 7.1, footnote 3) that the loop parallelizes at
//! exactly that split: the constrained re-optimizations of one popped
//! partition's children are independent of each other. [`RankedState`] is
//! the one loop for both cases. It solves the children of each expansion as
//! one batch — inline, or one task per child on a [`WorkerPool`] passed to
//! [`RankedState::next_with_pool`] — and queues them in generation order,
//! so the stream (ties included) and every work counter are the same at any
//! thread count; only the delay changes.
//!
//! Every child is solved as soon as it is generated, as in Figure 4, and
//! queued at the exact cost of its best member. A queued partition keeps
//! the DP table of its solve rather than that member: the member is rebuilt
//! from the table when the partition pops, and the partition's children are
//! solved from that table, so a child decides again only the blocks its new
//! constraints touch (see [`crate::mintriang`]).
//!
//! The enumerator is exposed as a lazy [`Iterator`], so callers get any-time
//! top-k semantics: stop pulling and no further work is done. With a
//! poly-MS class of graphs (or a constant width bound) the delay between
//! consecutive results is polynomial.

use crate::cancel::CancelFlag;
use crate::cost::{BagCost, Constraints, CostValue};
use crate::mintriang::{DpTable, DpWork, Preprocessed, Triangulation};
use crate::pool::{TaskPanic, WorkerPool};
use crate::symmetry::{ModuloDedup, OrbitContext};
use mtr_chordal::minimal_separators_from_cliques;
use mtr_graph::{Graph, VertexSet};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

/// One result of the ranked enumeration.
#[derive(Clone, Debug)]
pub struct RankedTriangulation {
    /// The minimal triangulation (chordal supergraph of the input).
    pub triangulation: Graph,
    /// Its maximal cliques (the bags of its proper tree decompositions).
    pub bags: Vec<VertexSet>,
    /// Its cost under the enumeration's bag cost.
    pub cost: CostValue,
    /// Its minimal separators (the maximal set of pairwise-parallel minimal
    /// separators of the input graph it corresponds to).
    pub minimal_separators: Vec<VertexSet>,
}

impl RankedTriangulation {
    /// Width of the triangulation.
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(1)
            .saturating_sub(1)
    }

    /// Fill-in relative to `g`.
    pub fn fill_in(&self, g: &Graph) -> usize {
        self.triangulation.m() - g.m()
    }
}

/// The Lawler–Murty priority queue: the cheapest entry pops first, and
/// entries of equal cost pop in the order they were pushed. That tie rule
/// keeps a ranked stream reproducible.
#[derive(Debug)]
pub struct RankedQueue<P> {
    heap: BinaryHeap<Queued<P>>,
    sequence: u64,
}

#[derive(Debug)]
struct Queued<P> {
    cost: CostValue,
    sequence: u64,
    payload: P,
}

impl<P> PartialEq for Queued<P> {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.sequence == other.sequence
    }
}
impl<P> Eq for Queued<P> {}
impl<P> PartialOrd for Queued<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Queued<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: reverse so the cheapest cost (then the
        // oldest entry) is popped first.
        other
            .cost
            .cmp(&self.cost)
            .then_with(|| other.sequence.cmp(&self.sequence))
    }
}

impl<P> Default for RankedQueue<P> {
    fn default() -> Self {
        RankedQueue {
            heap: BinaryHeap::new(),
            sequence: 0,
        }
    }
}

impl<P> RankedQueue<P> {
    /// Queues `payload` at `cost`, behind every entry already queued at the
    /// same cost.
    pub fn push(&mut self, cost: CostValue, payload: P) {
        self.sequence += 1;
        self.heap.push(Queued {
            cost,
            sequence: self.sequence,
            payload,
        });
    }

    /// Removes the cheapest entry (the oldest among equal costs), with the
    /// cost it was keyed by.
    pub fn pop(&mut self) -> Option<(CostValue, P)> {
        self.heap.pop().map(|q| (q.cost, q.payload))
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no entry is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// A queued partition, keyed by the exact cost of its best member: the DP
/// table that member is rebuilt from when the node pops (and its children
/// are solved from), plus the constraints `(I, X)` that carve it out.
#[derive(Debug)]
struct Node {
    table: DpTable,
    constraints: Constraints,
}

/// One re-optimized child partition: its constraints, the exact cost and
/// DP table of its best member (`None` when the partition is empty), and
/// the DP work of the solve.
struct Solved {
    constraints: Constraints,
    best: Option<(CostValue, DpTable)>,
    work: DpWork,
}

/// Solves `MinTriang⟨κ[I, X]⟩` for one child, from its parent's table when
/// it has one. Guards against a best solution that silently violates the
/// constraints (line 12 of the algorithm), so only non-empty partitions are
/// ever queued.
fn solve_child<K: BagCost + ?Sized>(
    pre: &Preprocessed,
    cost: &K,
    parent: Option<&DpTable>,
    constraints: Constraints,
) -> Solved {
    let (table, work) = DpTable::solve(pre, cost, &constraints, parent);
    let best = table
        .triangulation(pre, cost)
        .filter(|best| constraints.satisfied_by_graph(&best.graph))
        .map(|best| (best.cost, table));
    Solved {
        constraints,
        best,
        work,
    }
}

/// The mutable engine state of one Lawler–Murty ranked enumeration —
/// priority queue, emitted set, and counters — decoupled from *where* the
/// preprocessing and cost live, and from where the re-optimizations run.
///
/// [`RankedEnumerator`] is the common borrowing wrapper; callers that need
/// to own their [`Preprocessed`] next to the enumeration state (the
/// per-atom streams of the `mtr-reduce` factorized enumerator) drive a
/// `RankedState` directly, passing the same `pre`/`cost` pair to every
/// [`RankedState::next`] call. The session layer drives one through
/// [`RankedState::next_with_pool`], which solves on its worker pool.
#[derive(Debug, Default)]
pub struct RankedState {
    queue: RankedQueue<Node>,
    emitted_fills: HashSet<Vec<(u32, u32)>>,
    duplicates_skipped: usize,
    nodes_explored: usize,
    /// DP work summed over every solve so far.
    work: DpWork,
    started: bool,
    /// Cooperative cancellation: when raised, the state bails out with
    /// `None` at its demand boundary (before popping the next partition),
    /// leaving the emitted sequence a valid ranked prefix.
    cancel: Option<CancelFlag>,
    /// Orbit quotienting (modulo-symmetry mode); see [`crate::symmetry`].
    modulo: Option<ModuloDedup>,
    /// First pool-task failure (a panicking cost function or an injected
    /// `pool.task` fault) seen by a pooled batch. Once set the state
    /// produces nothing more, and the session reports the failure as a
    /// typed error instead of exhaustion.
    failed: Option<String>,
}

impl RankedState {
    /// Creates a fresh (not yet started) enumeration state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a cooperative cancellation flag: once raised (from any thread),
    /// [`RankedState::next`] returns `None` at its next demand boundary.
    pub fn bind_cancel(&mut self, flag: CancelFlag) {
        self.cancel = Some(flag);
    }

    /// Switches the stream to one cheapest representative per
    /// automorphism-orbit of minimal triangulations, pruning orbit-duplicate
    /// branches during the search. Only sound for label-invariant costs.
    /// Must be called before the first [`RankedState::next`].
    pub fn enable_modulo_symmetry(&mut self, ctx: Arc<OrbitContext>) {
        debug_assert!(!self.started, "symmetry must be configured up front");
        self.modulo = Some(ModuloDedup::new(ctx));
    }

    /// Number of branches and results merged into their orbit
    /// representative so far (modulo-symmetry mode).
    pub fn orbits_merged(&self) -> usize {
        self.modulo.as_ref().map_or(0, |dedup| dedup.merged)
    }

    /// Number of results skipped because an identical triangulation was
    /// already emitted. Lawler–Murty partitions are disjoint, so this should
    /// always be zero; it is tracked as a self-check and asserted by the
    /// test suite.
    pub fn duplicates_skipped(&self) -> usize {
        self.duplicates_skipped
    }

    /// Number of Lawler–Murty partitions explored so far. Every partition
    /// costs one constrained `MinTriang` re-optimization, so this is the
    /// natural work unit for node budgets.
    pub fn nodes_explored(&self) -> usize {
        self.nodes_explored
    }

    /// Number of DP table entries (full blocks and top-level components)
    /// decided over their candidates, summed over every solve so far. An
    /// entry a child keeps from its parent's table is not counted. Like
    /// every work counter, it is the same at any thread count.
    pub fn blocks_recomputed(&self) -> usize {
        self.work.blocks_recomputed
    }

    /// Number of candidates visited while deciding those entries, summed
    /// over every solve so far: only the candidates that keep every
    /// constraint of their solve are visited.
    pub fn candidates_visited(&self) -> usize {
        self.work.candidates_visited
    }

    /// Number of partitions currently pending in the priority queue.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The message of the pool-task panic (or injected `pool.task` fault)
    /// that stopped a pooled enumeration, if one did. The emitted prefix
    /// stays a valid ranked prefix, but the caller must report the failure
    /// rather than exhaustion.
    pub fn failure(&self) -> Option<&str> {
        self.failed.as_deref()
    }

    /// Advances the enumeration by one result, solving every
    /// re-optimization inline.
    ///
    /// Every call on one `RankedState` must pass the *same* `pre` and
    /// `cost`; the state is meaningless across different graphs or costs.
    pub fn next<K: BagCost + ?Sized>(
        &mut self,
        pre: &Preprocessed,
        cost: &K,
    ) -> Option<RankedTriangulation> {
        self.advance(pre, |parent, batch| {
            Ok(batch
                .into_iter()
                .map(|c| solve_child(pre, cost, parent.as_deref(), c))
                .collect())
        })
    }

    /// [`RankedState::next`] with an optional worker pool. With a pool, the
    /// children of each expansion are solved as one
    /// [`WorkerPool::run_batch`] (one task per child). The stream and every
    /// work counter are those of the inline run. A task
    /// that panics (or an injected `pool.task` fault) stops the state: this
    /// and every later call return `None`, and [`RankedState::failure`]
    /// reports the message.
    pub fn next_with_pool<'env, K: BagCost + Sync + ?Sized>(
        &mut self,
        pre: &'env Preprocessed,
        cost: &'env K,
        pool: Option<WorkerPool<'env, '_>>,
    ) -> Option<RankedTriangulation> {
        let Some(pool) = pool else {
            return self.next(pre, cost);
        };
        self.advance(pre, |parent, batch| {
            let tasks: Vec<_> = batch
                .into_iter()
                .map(|c| {
                    let parent = parent.clone();
                    move || solve_child(pre, cost, parent.as_deref(), c)
                })
                .collect();
            pool.run_batch(tasks)
        })
    }

    /// The Lawler–Murty loop: pop the cheapest partition, emit its best
    /// member, and split the rest of the partition into children, whose
    /// re-optimizations `solve` runs as one batch from the popped table.
    fn advance<S>(&mut self, pre: &Preprocessed, mut solve: S) -> Option<RankedTriangulation>
    where
        S: FnMut(Option<Arc<DpTable>>, Vec<Constraints>) -> Result<Vec<Solved>, TaskPanic>,
    {
        if !self.started {
            self.started = true;
            self.enqueue(None, vec![Constraints::none()], &mut solve);
        }
        loop {
            // The demand boundary: between partition pops, never inside a
            // re-optimization, so cancellation is prompt but the emitted
            // prefix stays exact. A failed pool batch stops here too.
            if self.failed.is_some() || self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                return None;
            }
            let (key, Node { table, constraints }) = self.queue.pop()?;
            // The best member, rebuilt from the table; the entry is keyed by
            // its exact cost.
            let (graph, bags) = table.rebuild(pre);
            let best = Triangulation {
                graph,
                bags,
                cost: key,
            };
            let fill = best.fill_edges(pre.graph());
            // Modulo-symmetry: a result orbit-equivalent to an earlier
            // emission is suppressed, but its partition is still expanded —
            // its children may hold orbit representatives of their own.
            let orbit_new = self
                .modulo
                .as_mut()
                .is_none_or(|dedup| dedup.admit_result(&fill));
            let is_new = self.emitted_fills.insert(fill);
            // The minimal separators of H feed both the partition expansion
            // and the emitted result: compute them once and share. H is
            // chordal, so they come from its maximal cliques, which the
            // rebuild has just listed.
            let seps_of_h = minimal_separators_from_cliques(best.bags.clone());
            let children = self.expand(&seps_of_h, &constraints);
            self.enqueue(Some(Arc::new(table)), children, &mut solve);
            if self.failed.is_some() {
                // The expansion batch died: `best` was computed, but the
                // enumeration is failing — emit nothing past the fault.
                return None;
            }
            if !is_new {
                // Should not happen (partitions are disjoint); counted so the
                // tests can assert on it, and skipped to preserve soundness.
                self.duplicates_skipped += 1;
                continue;
            }
            if !orbit_new {
                continue;
            }
            return Some(RankedTriangulation {
                minimal_separators: seps_of_h,
                triangulation: best.graph,
                bags: best.bags,
                cost: best.cost,
            });
        }
    }

    /// The children of a popped partition, in generation order: the
    /// staircase over the separators of its best member that its
    /// constraints do not already include.
    fn expand(&mut self, seps_of_h: &[VertexSet], constraints: &Constraints) -> Vec<Constraints> {
        // Minimal separators of the emitted triangulation H; those not
        // already forced define the sub-partitions.
        let new_seps: Vec<&VertexSet> = seps_of_h
            .iter()
            .filter(|s| !constraints.include.contains(s))
            .collect();
        // Modulo-symmetry: branch separators in the same orbit under the
        // stabilizer of this node's constraints spawn one child — the
        // dropped cells' triangulations are σ-images of solutions in
        // earlier kept cells. The plan reorders the staircase (any order
        // is a valid partition) so dropped cells sit as early — as large
        // — as possible; its prefixes still range over *all* earlier
        // separators, dropped or not, so kept cells keep their original
        // disjoint solution sets.
        let plan = self
            .modulo
            .as_mut()
            .and_then(|dedup| dedup.branch_plan(constraints, &new_seps));
        let order: Vec<(usize, bool)> =
            plan.unwrap_or_else(|| (0..new_seps.len()).map(|i| (i, true)).collect());
        let mut children = Vec::with_capacity(order.len());
        for pos in 0..order.len() {
            let (idx, kept) = order[pos];
            if !kept {
                continue;
            }
            let mut include = constraints.include.clone();
            include.extend(order[..pos].iter().map(|&(k, _)| new_seps[k].clone()));
            let mut exclude = constraints.exclude.clone();
            exclude.push(new_seps[idx].clone());
            children.push(Constraints::new(include, exclude));
        }
        children
    }

    /// Solves child partitions as one batch from the `parent` table and
    /// queues them in generation order; empty partitions are dropped.
    fn enqueue<S>(
        &mut self,
        parent: Option<Arc<DpTable>>,
        children: Vec<Constraints>,
        solve: &mut S,
    ) where
        S: FnMut(Option<Arc<DpTable>>, Vec<Constraints>) -> Result<Vec<Solved>, TaskPanic>,
    {
        self.nodes_explored += children.len();
        let solved = match solve(parent, children) {
            Ok(solved) => solved,
            Err(panic) => {
                self.failed = Some(panic.message);
                return;
            }
        };
        for child in solved {
            self.work += child.work;
            if let Some((exact, table)) = child.best {
                let constraints = child.constraints;
                self.queue.push(exact, Node { table, constraints });
            }
        }
    }
}

/// Lazy ranked enumerator of the minimal triangulations of a graph.
pub struct RankedEnumerator<'a, K: BagCost + ?Sized> {
    pre: &'a Preprocessed,
    cost: &'a K,
    state: RankedState,
}

impl<'a, K: BagCost + ?Sized> RankedEnumerator<'a, K> {
    /// Creates an enumerator over the preprocessed graph, ranked by `cost`.
    ///
    /// Preprocessing (minimal separators, PMCs, block structure) is shared:
    /// build [`Preprocessed`] once and reuse it across cost functions.
    pub fn new(pre: &'a Preprocessed, cost: &'a K) -> Self {
        RankedEnumerator {
            pre,
            cost,
            state: RankedState::new(),
        }
    }

    /// Binds a cooperative cancellation flag; see
    /// [`RankedState::bind_cancel`].
    pub fn with_cancel(mut self, flag: CancelFlag) -> Self {
        self.state.bind_cancel(flag);
        self
    }

    /// Quotients the stream by the automorphism group; see
    /// [`RankedState::enable_modulo_symmetry`].
    pub fn with_modulo_symmetry(mut self, ctx: Arc<OrbitContext>) -> Self {
        self.state.enable_modulo_symmetry(ctx);
        self
    }

    /// Number of branches/results merged into their orbit representative;
    /// see [`RankedState::orbits_merged`].
    pub fn orbits_merged(&self) -> usize {
        self.state.orbits_merged()
    }

    /// Number of duplicate results skipped; see
    /// [`RankedState::duplicates_skipped`].
    pub fn duplicates_skipped(&self) -> usize {
        self.state.duplicates_skipped()
    }

    /// Number of Lawler–Murty partitions explored so far; see
    /// [`RankedState::nodes_explored`].
    pub fn nodes_explored(&self) -> usize {
        self.state.nodes_explored()
    }

    /// Number of partitions currently pending in the priority queue.
    pub fn queue_depth(&self) -> usize {
        self.state.queue_depth()
    }
}

impl<K: BagCost + ?Sized> Iterator for RankedEnumerator<'_, K> {
    type Item = RankedTriangulation;

    fn next(&mut self) -> Option<RankedTriangulation> {
        self.state.next(self.pre, self.cost)
    }
}

/// Convenience: the `k` cheapest minimal triangulations of `g` under `cost`
/// (fewer if the graph has fewer minimal triangulations).
pub fn top_k_triangulations<K: BagCost + ?Sized>(
    g: &Graph,
    cost: &K,
    k: usize,
) -> Vec<RankedTriangulation> {
    let pre = Preprocessed::new(g);
    RankedEnumerator::new(&pre, cost).take(k).collect()
}

/// Convenience: all minimal triangulations of `g` by increasing `cost`.
///
/// Only sensible for graphs with manageably many minimal triangulations;
/// prefer driving [`RankedEnumerator`] lazily otherwise.
pub fn all_triangulations_ranked<K: BagCost + ?Sized>(
    g: &Graph,
    cost: &K,
) -> Vec<RankedTriangulation> {
    let pre = Preprocessed::new(g);
    RankedEnumerator::new(&pre, cost).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{FillIn, WeightedWidth, Width, WidthThenFill};
    use mtr_chordal::verify::is_minimal_triangulation;
    use mtr_graph::paper_example_graph;

    #[test]
    fn paper_example_enumeration_by_fill() {
        let g = paper_example_graph();
        let pre = Preprocessed::new(&g);
        let mut enumerator = RankedEnumerator::new(&pre, &FillIn);
        let results: Vec<_> = enumerator.by_ref().collect();
        assert_eq!(
            results.len(),
            2,
            "the paper's example has two minimal triangulations"
        );
        assert_eq!(enumerator.duplicates_skipped(), 0);
        // Ordered by fill: H2 (1 fill edge) before H1 (3 fill edges).
        assert_eq!(results[0].fill_in(&g), 1);
        assert_eq!(results[1].fill_in(&g), 3);
        for r in &results {
            assert!(is_minimal_triangulation(&g, &r.triangulation));
        }
        // The separator sets match Parra–Scheffler: {S2, S3} and {S1, S3}.
        assert_eq!(results[0].minimal_separators.len(), 2);
        assert!(results[0]
            .minimal_separators
            .contains(&VertexSet::from_slice(6, &[0, 1])));
        assert!(results[1]
            .minimal_separators
            .contains(&VertexSet::from_slice(6, &[3, 4, 5])));
    }

    #[test]
    fn paper_example_enumeration_by_weighted_width() {
        // Make w1,w2,w3 cheap and u,v expensive: now H1 (bags {u,w*},{v,w*})
        // costs less than H2 (bags {u,v,wi}), flipping the order.
        let g = paper_example_graph();
        let pre = Preprocessed::new(&g);
        let cost = WeightedWidth::new(vec![10.0, 10.0, 1.0, 0.1, 0.1, 0.1]);
        let results: Vec<_> = RankedEnumerator::new(&pre, &cost).collect();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].fill_in(&g), 3, "H1 should now come first");
        assert!(results[0].cost <= results[1].cost);
    }

    #[test]
    fn costs_are_non_decreasing() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]);
        let pre = Preprocessed::new(&g);
        for cost in [&Width as &dyn BagCost, &FillIn, &WidthThenFill] {
            let results: Vec<_> = RankedEnumerator::new(&pre, cost).collect();
            assert!(!results.is_empty());
            for w in results.windows(2) {
                assert!(w[0].cost <= w[1].cost, "{} order violated", cost.name());
            }
            for r in &results {
                assert!(is_minimal_triangulation(&g, &r.triangulation));
            }
        }
    }

    #[test]
    fn enumeration_is_complete_on_c5() {
        // C5 has exactly 5 minimal triangulations (the polygon triangulations).
        let c5 = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let pre = Preprocessed::new(&c5);
        let mut e = RankedEnumerator::new(&pre, &FillIn);
        let results: Vec<_> = e.by_ref().collect();
        assert_eq!(results.len(), 5);
        assert_eq!(e.duplicates_skipped(), 0);
        // All have exactly 2 fill edges and width 2.
        for r in &results {
            assert_eq!(r.fill_in(&c5), 2);
            assert_eq!(r.width(), 2);
        }
        // All distinct.
        let fills: HashSet<Vec<(u32, u32)>> = results
            .iter()
            .map(|r| {
                let mut f = c5.fill_edges_of(&r.triangulation);
                f.sort_unstable();
                f
            })
            .collect();
        assert_eq!(fills.len(), 5);
    }

    #[test]
    fn chordal_input_has_single_result() {
        let path = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let results = all_triangulations_ranked(&path, &FillIn);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].triangulation, path);
        assert_eq!(results[0].cost, CostValue::ZERO);
    }

    #[test]
    fn top_k_stops_early() {
        let c6 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let top2 = top_k_triangulations(&c6, &FillIn, 2);
        assert_eq!(top2.len(), 2);
        let all = all_triangulations_ranked(&c6, &FillIn);
        // C6 has 14 minimal triangulations (polygon triangulations: Catalan(4)).
        assert_eq!(all.len(), 14);
        assert_eq!(top2[0].cost, all[0].cost);
        assert_eq!(top2[1].cost, all[1].cost);
    }

    #[test]
    fn bounded_width_enumeration() {
        // C6: every minimal triangulation has width 2, so a bound of 2 keeps
        // all 14 and a bound of 1 keeps none.
        let c6 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let pre2 = Preprocessed::new_bounded(&c6, 2);
        let results2: Vec<_> = RankedEnumerator::new(&pre2, &FillIn).collect();
        assert_eq!(results2.len(), 14);
        let pre1 = Preprocessed::new_bounded(&c6, 1);
        let results1: Vec<_> = RankedEnumerator::new(&pre1, &FillIn).collect();
        assert!(results1.is_empty());
    }

    #[test]
    fn modulo_symmetry_on_c6_quotients_the_stream() {
        // C6's 14 minimal triangulations fall into 3 orbits under the
        // dihedral group of order 12 (triangulations of the hexagon up to
        // rotation/reflection: 14 = 6 + 6 + 2 → orbits of the "fan",
        // "zigzag", and "center-free" shapes).
        let c6 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let pre = Preprocessed::new(&c6);
        let ctx = OrbitContext::probe(&c6).unwrap();
        let all: Vec<_> = RankedEnumerator::new(&pre, &FillIn).collect();
        assert_eq!(all.len(), 14);
        let mut modulo = RankedEnumerator::new(&pre, &FillIn).with_modulo_symmetry(ctx);
        let reps: Vec<_> = modulo.by_ref().collect();
        assert_eq!(reps.len(), 3, "C6 triangulations form 3 orbits");
        assert!(modulo.orbits_merged() > 0);
        // Each representative is cheapest in its orbit ⇒ rank-r rep costs
        // no more than the rank-r full result.
        for (r, rep) in reps.iter().enumerate() {
            assert!(rep.cost <= all[r].cost);
        }
    }

    #[test]
    fn ranked_queue_ties_pop_in_push_order() {
        let mut queue = RankedQueue::default();
        queue.push(CostValue::from_usize(1), "a");
        queue.push(CostValue::from_usize(1), "b");
        queue.push(CostValue::ZERO, "cheapest");
        queue.push(CostValue::from_usize(1), "c");
        let order: Vec<_> = std::iter::from_fn(|| queue.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["cheapest", "a", "b", "c"]);
        assert!(queue.is_empty());
    }

    /// Drains up to `take` results from `state`, solving every
    /// re-optimization on a `threads`-worker pool.
    fn drain_pooled(
        pre: &Preprocessed,
        cost: &(dyn BagCost + Sync),
        threads: usize,
        state: &mut RankedState,
        take: usize,
    ) -> Vec<RankedTriangulation> {
        crate::pool::scoped(threads, |p| {
            std::iter::from_fn(|| state.next_with_pool(pre, cost, Some(p)))
                .take(take)
                .collect()
        })
    }

    #[test]
    fn pooled_modulo_symmetry_quotients_like_inline() {
        let c6 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let pre = Preprocessed::new(&c6);
        let ctx = OrbitContext::probe(&c6).unwrap();
        let inline: Vec<_> = RankedEnumerator::new(&pre, &FillIn)
            .with_modulo_symmetry(ctx.clone())
            .collect();
        assert_eq!(inline.len(), 3);
        for threads in [1, 4] {
            let mut state = RankedState::new();
            state.enable_modulo_symmetry(ctx.clone());
            let pooled = drain_pooled(&pre, &FillIn, threads, &mut state, usize::MAX);
            assert!(state.orbits_merged() > 0, "threads = {threads}");
            assert_eq!(pooled.len(), inline.len(), "threads = {threads}");
            for (a, b) in inline.iter().zip(&pooled) {
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.triangulation, b.triangulation);
            }
        }
    }

    #[test]
    fn dp_work_counters_are_pinned_at_every_pool_width() {
        // grid(3, 3) has 40 full blocks and one component, so a solve that
        // kept nothing from its parent would decide 41 entries.
        let g = mtr_workloads::structured::grid(3, 3);
        let pre = Preprocessed::new(&g);
        let pins = [
            (&FillIn as &(dyn BagCost + Sync), 68, (999, 2169)),
            (&Width, 70, (1097, 2365)),
        ];
        for (cost, solves, pinned) in pins {
            let mut inline = RankedState::new();
            let results: Vec<_> = std::iter::from_fn(|| inline.next(&pre, cost))
                .take(25)
                .collect();
            assert_eq!(results.len(), 25);
            assert_eq!(inline.nodes_explored(), solves, "{}", cost.name());
            let counts = (inline.blocks_recomputed(), inline.candidates_visited());
            assert_eq!(counts, pinned, "{}", cost.name());
            for threads in [1, 4] {
                let mut pooled = RankedState::new();
                drain_pooled(&pre, cost, threads, &mut pooled, 25);
                let counts = (pooled.blocks_recomputed(), pooled.candidates_visited());
                assert_eq!(counts, pinned, "{} at threads = {threads}", cost.name());
            }
        }
    }

    #[test]
    fn disconnected_graph_enumeration() {
        // C4 plus a disjoint edge: the C4 has 2 minimal triangulations, the
        // edge is already chordal, so the whole graph has 2.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)]);
        let results = all_triangulations_ranked(&g, &FillIn);
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(is_minimal_triangulation(&g, &r.triangulation));
            assert_eq!(r.fill_in(&g), 1);
        }
    }
}
