//! `MinTriang⟨κ⟩` — computing a minimum-cost minimal triangulation
//! (Section 5, Figure 3 of the paper), generalized Bouchitté–Todinca.
//!
//! The dynamic program processes the full blocks `(S, C)` of the graph in
//! ascending `|S ∪ C|` order. For each block it chooses the potential
//! maximal clique `Ω` with `S ⊂ Ω ⊆ S ∪ C` that minimizes the cost of the
//! triangulation assembled from `Ω` and the previously computed optimal
//! triangulations of the sub-blocks (Equation (1)); the top level picks the
//! best `Ω ∈ PMC(G)` for the whole graph. Any split-monotone bag cost can be
//! plugged in. The inclusion/exclusion constraints `[I, X]` of the ranked
//! enumeration are decided inside the program, from block structure alone
//! (see [`crate::cost::Constraints`]): each minimal separator carries a
//! bitset of the candidates that keep it, and a solve visits only the
//! candidates every one of its constraints keeps.
//!
//! The table holds back-pointers only: per full block and per connected
//! component, its optimal cost and the index of the first candidate that
//! attains it, 16 bytes an entry. Bags are walked from those back-pointers
//! when they are needed — for the top-level winners, and for costs that
//! price candidates through the default [`BagCost::combine`].
//!
//! **Tables across Lawler nodes.** A queued node of the ranked enumeration
//! keeps its table in place of its triangulation, and each of its children
//! is solved from it: the child's constraints are the parent's plus a few
//! more. An entry keeps the parent's cost and winner unless the child's
//! constraints rule the winner out, or an entry below the winner *changed*
//! — its cost or winner differs from the parent's, or an entry below its
//! own winner changed. Otherwise it is decided again over its admitted
//! candidates, as in a solve from scratch. Keeping an entry is exact:
//!
//! * new constraints only remove admitted candidates, and by split
//!   monotonicity only raise the value of the rest;
//! * a kept winner has the same children with the same bags, so its value
//!   is unchanged;
//! * every candidate before it was strictly costlier in the parent and
//!   still is, every later one is no cheaper, so it is still the first
//!   minimum.
//!
//! Bags matter as well as costs, for costs that use the default `combine`.
//! The rule relies on the same split-monotone contract the program itself
//! does; a cost that breaks it loses exactness either way.
//!
//! The expensive part — minimal separators, potential maximal cliques, full
//! blocks, and the combinatorial structure of which PMCs can realize which
//! blocks — does not depend on the cost function, so it is computed once
//! into a [`Preprocessed`] value and shared by every `MinTriang` invocation
//! (exactly the "initialization step" the paper's experiments report).

use crate::cancel::CancelFlag;
use crate::cost::{BagCost, ChildSolution, Constraints, CostValue};
use crate::pool;
use mtr_chordal::cliques::maximal_cliques_chordal;
use mtr_graph::{Components, Graph, VertexSet};
use mtr_pmc::enumerate::{potential_maximal_cliques_until, PmcEnumeration, PmcStopped};
use mtr_separators::blocks::{full_blocks, Block};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

/// A minimal triangulation together with its bag structure and cost.
#[derive(Clone, Debug)]
pub struct Triangulation {
    /// The triangulation `H` itself (a chordal supergraph of the input).
    pub graph: Graph,
    /// The maximal cliques of `H` (the bags of its clique trees).
    pub bags: Vec<VertexSet>,
    /// The cost assigned by the bag cost that produced this triangulation.
    pub cost: CostValue,
}

impl Triangulation {
    /// Width of the triangulation: largest bag size minus one.
    pub fn width(&self) -> usize {
        self.bags
            .iter()
            .map(|b| b.len())
            .max()
            .unwrap_or(1)
            .saturating_sub(1)
    }

    /// Fill-in relative to `g`: number of edges of the triangulation absent
    /// from `g`.
    pub fn fill_in(&self, g: &Graph) -> usize {
        self.graph.m() - g.m()
    }

    /// The fill edges relative to `g`, as a canonical sorted list. Two
    /// minimal triangulations of the same graph are equal iff their fill
    /// sets are equal, so this doubles as an identity key.
    pub fn fill_edges(&self, g: &Graph) -> Vec<(u32, u32)> {
        let mut fill = g.fill_edges_of(&self.graph);
        fill.sort_unstable();
        fill
    }
}

/// One candidate choice of `Ω` for a block (or for the top level): the PMC
/// index plus the indices of the full blocks its components induce.
#[derive(Clone, Debug)]
struct Candidate {
    pmc: usize,
    children: Vec<usize>,
}

/// The candidates one separator `u` admits, as an include and as an
/// exclude, by the rule of [`Constraints`]: sets over the numbering of
/// [`Preprocessed::first_candidate`].
#[derive(Clone, Debug)]
struct SeparatorMasks {
    include: VertexSet,
    exclude: VertexSet,
}

/// The cost-independent initialization shared by all `MinTriang` /
/// `RankedTriang` invocations on one graph: minimal separators, potential
/// maximal cliques, full blocks, and the candidate structure of the dynamic
/// program.
///
/// The program has one subproblem per full block, in processing order,
/// then one per connected component (the top level); each owns one entry
/// of a solve's table.
#[derive(Clone, Debug)]
pub struct Preprocessed {
    graph: Graph,
    minimal_separators: Vec<VertexSet>,
    /// The position of each minimal separator in `minimal_separators`.
    separator_index: HashMap<VertexSet, usize>,
    pmcs: Vec<VertexSet>,
    blocks: Vec<Block>,
    /// The scope of every subproblem: `S ∪ C` for a block, the vertex set
    /// of a component at the top level.
    scopes: Vec<VertexSet>,
    /// For every subproblem, its candidate PMCs (with their child blocks).
    candidates: Vec<Vec<Candidate>>,
    /// Where each subproblem's candidates start in one numbering of all
    /// candidates, followed by the total count.
    first_candidate: Vec<usize>,
    /// Per minimal separator, its candidate masks, built on first use.
    masks: Vec<OnceLock<SeparatorMasks>>,
    /// The width bound used during preprocessing, if any.
    width_bound: Option<usize>,
}

impl Preprocessed {
    /// Full (unbounded) preprocessing of `g`: all minimal separators and all
    /// potential maximal cliques. Polynomial under the poly-MS assumption.
    pub fn new(g: &Graph) -> Self {
        let e = potential_maximal_cliques_counted(g, None, None, None).expect("nothing stops it");
        Self::from_parts_threaded(g, e.minimal_separators, e.pmcs, None, 1)
    }

    /// Width-bounded preprocessing (`MinTriangB`): only separators of size
    /// `≤ width_bound` and PMCs of size `≤ width_bound + 1` are considered,
    /// which bounds the work without the poly-MS assumption (Section 5.3).
    pub fn new_bounded(g: &Graph, width_bound: usize) -> Self {
        let e = potential_maximal_cliques_counted(g, Some(width_bound + 1), None, None)
            .expect("nothing stops it");
        Self::from_parts_threaded(g, e.minimal_separators, e.pmcs, Some(width_bound), 1)
    }

    /// Builds the candidate structure from precomputed separators and PMCs
    /// (for example from `mtr_pmc::potential_maximal_cliques_until`). With
    /// `width_bound` set, separators larger than the bound are dropped
    /// (mirroring [`Preprocessed::new_bounded`]) and the bound is recorded.
    /// The per-block candidate resolution — the embarrassingly parallel
    /// part of the initialization — fans out over `threads` pool workers.
    pub fn from_parts_threaded(
        g: &Graph,
        minimal_separators: Vec<VertexSet>,
        pmcs: Vec<VertexSet>,
        width_bound: Option<usize>,
        threads: usize,
    ) -> Self {
        let minimal_separators: Vec<VertexSet> = match width_bound {
            Some(b) => minimal_separators
                .into_iter()
                .filter(|s| s.len() <= b)
                .collect(),
            None => minimal_separators,
        };
        let blocks = full_blocks(g, &minimal_separators);
        let block_index: HashMap<VertexSet, usize> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (b.component.clone(), i))
            .collect();

        // Candidates per block: PMCs Ω with S ⊂ Ω ⊆ S ∪ C, each with the
        // child blocks induced by the components of (S ∪ C) \ Ω. Blocks are
        // independent of each other, so with `threads > 1` the resolution
        // runs as chunked work-stealing pool tasks.
        let mut candidates: Vec<Vec<Candidate>> = if threads > 1 && blocks.len() > 1 {
            let chunk = blocks.len().div_ceil(threads * 4).max(1);
            let ranges: Vec<std::ops::Range<usize>> = (0..blocks.len())
                .step_by(chunk)
                .map(|start| start..(start + chunk).min(blocks.len()))
                .collect();
            let chunked: Vec<Vec<Vec<Candidate>>> = pool::scoped(threads, |p| {
                let tasks: Vec<_> = ranges
                    .into_iter()
                    .map(|range| {
                        let blocks = &blocks;
                        let pmcs = &pmcs;
                        let block_index = &block_index;
                        move || {
                            let mut resolver = ChildResolver::new(g, block_index);
                            range
                                .map(|bi| resolver.candidates_for_block(&blocks[bi], pmcs))
                                .collect::<Vec<_>>()
                        }
                    })
                    .collect();
                // These tasks run only workspace code (no user cost
                // function), so a panic here is a bug, not tenant input;
                // re-raise it on the calling thread with its message.
                p.run_batch(tasks)
                    .unwrap_or_else(|panic| std::panic::panic_any(panic.message))
            });
            chunked.into_iter().flatten().collect()
        } else {
            let mut resolver = ChildResolver::new(g, &block_index);
            blocks
                .iter()
                .map(|b| resolver.candidates_for_block(b, &pmcs))
                .collect()
        };

        // Top-level candidates per connected component (few components, so
        // this stays sequential).
        let mut scopes: Vec<VertexSet> = blocks.iter().map(Block::vertices).collect();
        let mut resolver = ChildResolver::new(g, &block_index);
        for comp in g.components() {
            let mut top = Vec::new();
            for (pi, omega) in pmcs.iter().enumerate() {
                if omega.is_empty() || !omega.is_subset_of(&comp) {
                    continue;
                }
                if let Some(children) = resolver.children(&comp, omega, None) {
                    top.push(Candidate { pmc: pi, children });
                }
            }
            candidates.push(top);
            scopes.push(comp);
        }

        let first_candidate = std::iter::once(0)
            .chain(candidates.iter().scan(0, |total, c| {
                *total += c.len();
                Some(*total)
            }))
            .collect();
        let separator_index = minimal_separators
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i))
            .collect();
        Preprocessed {
            graph: g.clone(),
            masks: minimal_separators.iter().map(|_| OnceLock::new()).collect(),
            separator_index,
            minimal_separators,
            pmcs,
            blocks,
            scopes,
            candidates,
            first_candidate,
            width_bound,
        }
    }

    /// The graph this preprocessing belongs to.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The minimal separators found during preprocessing.
    pub fn minimal_separators(&self) -> &[VertexSet] {
        &self.minimal_separators
    }

    /// The potential maximal cliques found during preprocessing.
    pub fn pmcs(&self) -> &[VertexSet] {
        &self.pmcs
    }

    /// The full blocks, in the DP processing order.
    pub fn full_blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The width bound used during preprocessing, if any.
    pub fn width_bound(&self) -> Option<usize> {
        self.width_bound
    }

    /// The candidates of subproblem `i`, in its slice of the numbering.
    fn candidate_range(&self, i: usize) -> Range<usize> {
        self.first_candidate[i]..self.first_candidate[i + 1]
    }

    /// The number of candidates, over all subproblems.
    fn candidate_count(&self) -> u32 {
        let total = self.first_candidate[self.scopes.len()];
        u32::try_from(total).expect("candidates are numbered by PMC and block indices")
    }

    /// The masks of `u`: an indexed separator's are built once and kept,
    /// any other set's are built for this call.
    fn masks(&self, u: &VertexSet) -> Cow<'_, SeparatorMasks> {
        match self.separator_index.get(u) {
            Some(&i) => Cow::Borrowed(self.masks[i].get_or_init(|| self.build_masks(u))),
            None => Cow::Owned(self.build_masks(u)),
        }
    }

    /// Evaluates the rule of [`Constraints`] for `u` on every candidate.
    fn build_masks(&self, u: &VertexSet) -> SeparatorMasks {
        let total = self.candidate_count();
        let mut masks = SeparatorMasks {
            include: VertexSet::empty(total),
            exclude: VertexSet::empty(total),
        };
        let all = self.scopes.iter().zip(&self.candidates);
        let numbered =
            all.flat_map(|(scope, candidates)| candidates.iter().map(move |c| (scope, c)));
        for (i, (scope, cand)) in (0..).zip(numbered) {
            let children = cand.children.iter().map(|&c| &self.scopes[c]);
            let keeps = Constraints::keeps(u, scope, &self.pmcs[cand.pmc], children);
            if keeps.include {
                masks.include.insert(i);
            }
            if keeps.exclude {
                masks.exclude.insert(i);
            }
        }
        masks
    }

    /// The candidates that keep every constraint: the intersection of the
    /// constraints' masks.
    fn admitted(&self, constraints: &Constraints) -> VertexSet {
        let mut admitted = VertexSet::full(self.candidate_count());
        for u in &constraints.include {
            admitted.intersect_with(&self.masks(u).include);
        }
        for u in &constraints.exclude {
            admitted.intersect_with(&self.masks(u).exclude);
        }
        admitted
    }
}

/// [`potential_maximal_cliques_until`] stopped by a session's two stop
/// signals, with its work added to the obs registry. It returns
/// [`PmcStopped`] once the wall clock reaches `deadline` or `cancel` is
/// raised, whichever its checkpoints see first. The enumeration's
/// [`PmcEnumeration::candidates_tested`] and
/// [`PmcEnumeration::candidates_accepted`] go to the `pmc.candidates_tested`
/// and `pmc.candidates_accepted` counters, once per completed enumeration.
/// Every preprocessing path of the engines enumerates through it.
pub fn potential_maximal_cliques_counted(
    g: &Graph,
    max_size: Option<usize>,
    deadline: Option<Instant>,
    cancel: Option<&CancelFlag>,
) -> Result<PmcEnumeration, PmcStopped> {
    static METRICS: OnceLock<[mtr_obs::Counter; 2]> = OnceLock::new();
    let [tested, accepted] = METRICS.get_or_init(|| {
        [
            mtr_obs::counter("pmc.candidates_tested"),
            mtr_obs::counter("pmc.candidates_accepted"),
        ]
    });
    let stop = || {
        cancel.is_some_and(CancelFlag::is_cancelled)
            || deadline.is_some_and(|at| Instant::now() >= at)
    };
    let e = potential_maximal_cliques_until(g, max_size, stop)?;
    tested.add(e.candidates_tested);
    accepted.add(e.candidates_accepted);
    Ok(e)
}

/// Resolves candidate PMCs to the child blocks they induce, on component
/// buffers reused from one candidate to the next.
struct ChildResolver<'a> {
    g: &'a Graph,
    /// Full blocks by component: a full block is determined by its
    /// component, since `S = N(C)`.
    block_index: &'a HashMap<VertexSet, usize>,
    rest: VertexSet,
    comps: Components,
}

impl<'a> ChildResolver<'a> {
    fn new(g: &'a Graph, block_index: &'a HashMap<VertexSet, usize>) -> Self {
        ChildResolver {
            g,
            block_index,
            rest: VertexSet::empty(g.n()),
            comps: Components::default(),
        }
    }

    /// Resolves all candidate PMCs of one full block — the unit of work the
    /// threaded initialization distributes over the pool.
    fn candidates_for_block(&mut self, block: &Block, pmcs: &[VertexSet]) -> Vec<Candidate> {
        let block_vertices = block.vertices();
        let mut candidates = Vec::new();
        for (pi, omega) in pmcs.iter().enumerate() {
            if !block.separator.is_proper_subset_of(omega) || !omega.is_subset_of(&block_vertices) {
                continue;
            }
            if let Some(children) = self.children(&block_vertices, omega, Some(block)) {
                candidates.push(Candidate { pmc: pi, children });
            }
        }
        candidates
    }

    /// Resolves the child blocks of choosing `omega` inside `scope`: the
    /// components of `scope \ omega` with their neighborhoods. Returns `None`
    /// when some child block is not a known full block (which, per Theorems
    /// 5.3 and 5.4, does not happen for genuine PMCs — `None` simply drops
    /// the candidate).
    ///
    /// `scope` is a full block's `S ∪ C` with `S ⊂ Ω`, or a connected
    /// component, so every child's neighborhood lies inside it, and a child
    /// is the full block `(N(C'), C')` of its component `C'` if it is one at
    /// all.
    fn children(
        &mut self,
        scope: &VertexSet,
        omega: &VertexSet,
        parent: Option<&Block>,
    ) -> Option<Vec<usize>> {
        self.rest.copy_from(scope);
        self.rest.difference_with(omega);
        self.g.components_into(&self.rest, &mut self.comps);
        let mut children = Vec::with_capacity(self.comps.len());
        for (c, nb) in self.comps.iter() {
            debug_assert!(nb.is_subset_of(scope));
            // Progress check: the child must be strictly smaller than the
            // parent block so the DP's processing order is respected.
            if parent.is_some_and(|parent| nb.len() + c.len() >= parent.size()) {
                return None;
            }
            children.push(*self.block_index.get(c)?);
        }
        Some(children)
    }
}

/// One entry of the DP table: the optimal cost of a subproblem, and the
/// index (into its candidates) of the first candidate attaining it, or
/// [`Entry::UNSOLVED`] when no admitted candidate has solved children.
/// 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Entry {
    cost: CostValue,
    winner: u32,
}

impl Entry {
    const UNSOLVED: Entry = Entry {
        cost: CostValue::INFINITE,
        winner: u32::MAX,
    };

    fn is_solved(self) -> bool {
        self.winner != u32::MAX
    }
}

/// Read access to a (partly filled) DP table: enough to price a candidate
/// and to walk any solved block's bags back from its winner.
#[derive(Clone, Copy)]
pub(crate) struct Table<'a> {
    pre: &'a Preprocessed,
    entries: &'a [Entry],
}

impl fmt::Debug for Table<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("entries", &self.entries.len())
            .finish_non_exhaustive()
    }
}

impl<'a> Table<'a> {
    /// The solutions of the child blocks `blocks`, or `None` when one of
    /// them has no solution.
    fn children(self, blocks: &[usize]) -> Option<Vec<ChildSolution<'a>>> {
        blocks
            .iter()
            .map(|&block| {
                let entry = self.entries[block];
                entry.is_solved().then(|| ChildSolution {
                    separator: &self.pre.blocks[block].separator,
                    vertices: &self.pre.scopes[block],
                    cost: entry.cost,
                    table: self,
                    block,
                })
            })
            .collect()
    }

    /// The first cheapest of subproblem `i`'s `admitted` candidates whose
    /// children are solved.
    fn best<K: BagCost + ?Sized>(
        self,
        cost: &K,
        admitted: &VertexSet,
        i: usize,
        work: &mut DpWork,
    ) -> Entry {
        let pre = self.pre;
        let first = pre.first_candidate[i];
        let mut best = Entry::UNSOLVED;
        work.blocks_recomputed += 1;
        let visited = pre
            .candidate_range(i)
            .filter(|&index| admitted.contains(index as u32));
        for index in visited {
            work.candidates_visited += 1;
            let cand = &pre.candidates[i][index - first];
            let Some(children) = self.children(&cand.children) else {
                continue;
            };
            let value = cost.combine(&pre.graph, &pre.scopes[i], &pre.pmcs[cand.pmc], &children);
            if !best.is_solved() || value < best.cost {
                best = Entry {
                    cost: value,
                    winner: (index - first) as u32,
                };
            }
        }
        best
    }

    /// The winning candidate of a solved subproblem.
    fn winner(self, i: usize) -> &'a Candidate {
        let entry = self.entries[i];
        assert!(entry.is_solved(), "only solved subproblems are walked");
        &self.pre.candidates[i][entry.winner as usize]
    }

    /// The bags of the triangulation stored for the solved subproblem `i`:
    /// each child's bags in candidate order, then the winner's `Ω` (a
    /// post-order walk).
    pub(crate) fn bags(self, i: usize) -> impl Iterator<Item = &'a VertexSet> + 'a {
        let pmcs = &self.pre.pmcs;
        let mut stack = vec![(self.winner(i), 0)];
        std::iter::from_fn(move || loop {
            let (cand, next) = stack.pop()?;
            match cand.children.get(next) {
                Some(&child) => {
                    stack.push((cand, next + 1));
                    stack.push((self.winner(child), 0));
                }
                None => return Some(&pmcs[cand.pmc]),
            }
        })
    }
}

/// DP metric handles, resolved once per process (`mtr-obs` names are
/// interned in a global registry; the hot path only touches atomics).
struct DpMetrics {
    blocks_recomputed: mtr_obs::Counter,
    candidates_visited: mtr_obs::Counter,
}

fn dp_metrics() -> &'static DpMetrics {
    static METRICS: OnceLock<DpMetrics> = OnceLock::new();
    METRICS.get_or_init(|| DpMetrics {
        blocks_recomputed: mtr_obs::counter("core.dp.blocks_recomputed"),
        candidates_visited: mtr_obs::counter("core.dp.candidates_visited"),
    })
}

/// The work of one or more solves, in deterministic counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct DpWork {
    /// Table entries (full blocks and components) decided over their
    /// candidates rather than kept from the parent's table.
    pub(crate) blocks_recomputed: usize,
    /// Candidates visited while deciding them: only the ones every
    /// constraint of the solve keeps.
    pub(crate) candidates_visited: usize,
}

impl std::ops::AddAssign for DpWork {
    fn add_assign(&mut self, other: DpWork) {
        self.blocks_recomputed += other.blocks_recomputed;
        self.candidates_visited += other.candidates_visited;
    }
}

/// The DP table of one solve: an [`Entry`] per full block, then one per
/// connected component. A queued Lawler node keeps its table in place of
/// its triangulation; see the module docs.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct DpTable(Box<[Entry]>);

impl DpTable {
    /// Fills the table under `constraints`: every full block in ascending
    /// size order, so each child is solved before its parents, then the
    /// top level of every connected component.
    ///
    /// With a `parent` — the table of a solve under a subset of
    /// `constraints` — an entry keeps the parent's unless its winner no
    /// longer keeps every constraint, or an entry below its winner changed
    /// (see the module docs for why that is exact).
    pub(crate) fn solve<K: BagCost + ?Sized>(
        pre: &Preprocessed,
        cost: &K,
        constraints: &Constraints,
        parent: Option<&DpTable>,
    ) -> (DpTable, DpWork) {
        let admitted = pre.admitted(constraints);
        let mut work = DpWork::default();
        let mut entries = Vec::with_capacity(pre.scopes.len());
        // Per entry filled so far, whether it or an entry below its winner
        // differs from the parent's: its bags may differ then, so no entry
        // above it can be kept.
        let mut changed = Vec::new();
        for i in 0..pre.scopes.len() {
            let changed_below = |entry: Entry, changed: &[bool]| {
                entry.is_solved()
                    && pre.candidates[i][entry.winner as usize]
                        .children
                        .iter()
                        .any(|&c| changed[c])
            };
            let inherited = parent.map(|p| p.0[i]);
            let entry = match inherited {
                Some(kept)
                    if !kept.is_solved()
                        || (admitted.contains(pre.first_candidate[i] as u32 + kept.winner)
                            && !changed_below(kept, &changed)) =>
                {
                    kept
                }
                _ => {
                    let table = Table {
                        pre,
                        entries: &entries,
                    };
                    table.best(cost, &admitted, i, &mut work)
                }
            };
            if let Some(kept) = inherited {
                changed.push(entry != kept || changed_below(entry, &changed));
            }
            entries.push(entry);
        }
        let metrics = dp_metrics();
        metrics.blocks_recomputed.add(work.blocks_recomputed as u64);
        metrics
            .candidates_visited
            .add(work.candidates_visited as u64);
        (DpTable(entries.into_boxed_slice()), work)
    }

    /// The triangulation the table's top-level winners assemble, priced by
    /// `cost`. `None` when a component has no finite solution, or the total
    /// cost is infinite.
    pub(crate) fn triangulation<K: BagCost + ?Sized>(
        &self,
        pre: &Preprocessed,
        cost: &K,
    ) -> Option<Triangulation> {
        let top = &self.0[pre.blocks.len()..];
        if top.iter().any(|e| !e.is_solved() || e.cost.is_infinite()) {
            return None;
        }
        let (graph, bags) = self.rebuild(pre);
        let g = &pre.graph;
        let total_cost = cost.cost_of_bags(g, &g.vertex_set(), &bags);
        (!total_cost.is_infinite()).then_some(Triangulation {
            graph,
            bags,
            cost: total_cost,
        })
    }

    /// The chordal graph the top-level winners assemble — their bags,
    /// walked back from the table and saturated into the input graph — and
    /// its maximal cliques. Every component must be solved.
    pub(crate) fn rebuild(&self, pre: &Preprocessed) -> (Graph, Vec<VertexSet>) {
        let table = Table {
            pre,
            entries: &self.0,
        };
        let mut h = pre.graph.clone();
        for i in pre.blocks.len()..pre.scopes.len() {
            for bag in table.bags(i) {
                h.saturate(bag);
            }
        }
        // Canonicalize the bags as the maximal cliques of the chordal graph.
        let bags = maximal_cliques_chordal(&h)
            .expect("saturating the bags of a block decomposition must give a chordal graph");
        (h, bags)
    }
}

/// Computes a minimum-cost minimal triangulation of the preprocessed graph
/// under the bag cost `cost` (`MinTriang⟨κ⟩(G)`).
///
/// Returns `None` only when the graph admits no triangulation within the
/// preprocessing restrictions — i.e. when a width bound was used and the
/// graph has no minimal triangulation of that width — or when every
/// candidate has infinite cost.
pub fn min_triangulation<K: BagCost + ?Sized>(
    pre: &Preprocessed,
    cost: &K,
) -> Option<Triangulation> {
    min_triangulation_with(pre, cost, &Constraints::none())
}

/// `MinTriang⟨κ[I, X]⟩` (Section 6.1, Lemma 6.2): a minimum-cost minimal
/// triangulation among those in which every include of `constraints` is a
/// clique and no exclude is; `None` when there is none.
///
/// The program decides each constraint in the blocks whose scope contains
/// it and visits only the candidates that keep it (see [`Constraints`]),
/// so the table never holds an infeasible winner. A constraint inside no
/// connected component — never a minimal separator — is not decided;
/// callers passing such sets check the result with
/// [`Constraints::satisfied_by_graph`], as the ranked enumeration does.
pub fn min_triangulation_with<K: BagCost + ?Sized>(
    pre: &Preprocessed,
    cost: &K,
    constraints: &Constraints,
) -> Option<Triangulation> {
    let (table, _) = DpTable::solve(pre, cost, constraints, None);
    table.triangulation(pre, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CoverWidth, ExpBagSum, FillIn, WeightedWidth, Width, WidthThenFill};
    use mtr_chordal::verify::is_minimal_triangulation;
    use mtr_graph::{paper_example_graph, Hypergraph};
    use mtr_separators::enumerate::minimal_separators;
    use mtr_workloads::random::gnp_connected;
    use mtr_workloads::structured::{grid, mycielski};
    use proptest::prelude::*;

    fn cycle(n: u32) -> Graph {
        Graph::from_edges(n, &(0..n).map(|i| (i, (i + 1) % n)).collect::<Vec<_>>())
    }

    #[test]
    fn paper_example_width_and_fill_optima() {
        let g = paper_example_graph();
        let pre = Preprocessed::new(&g);
        assert_eq!(pre.minimal_separators().len(), 3);
        assert_eq!(pre.pmcs().len(), 6);
        assert_eq!(pre.full_blocks().len(), 7);

        // Width: the optimum is H2 (add {u,v}), width 2.
        let by_width = min_triangulation(&pre, &Width).unwrap();
        assert_eq!(by_width.cost, CostValue::from_usize(2));
        assert_eq!(by_width.width(), 2);
        assert!(is_minimal_triangulation(&g, &by_width.graph));

        // Fill-in: the optimum is also H2 with a single fill edge.
        let by_fill = min_triangulation(&pre, &FillIn).unwrap();
        assert_eq!(by_fill.cost, CostValue::from_usize(1));
        assert_eq!(by_fill.fill_in(&g), 1);
        assert!(by_fill.graph.has_edge(0, 1));
        assert!(is_minimal_triangulation(&g, &by_fill.graph));

        // The lexicographic cost agrees with width-first.
        let lex = min_triangulation(&pre, &WidthThenFill).unwrap();
        assert_eq!(lex.width(), 2);
        assert_eq!(lex.fill_in(&g), 1);
    }

    #[test]
    fn chordal_graph_is_returned_unchanged() {
        let path = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let pre = Preprocessed::new(&path);
        let t = min_triangulation(&pre, &FillIn).unwrap();
        assert_eq!(t.graph, path);
        assert_eq!(t.cost, CostValue::ZERO);
        let complete = Graph::complete(5);
        let pre_c = Preprocessed::new(&complete);
        let t_c = min_triangulation(&pre_c, &Width).unwrap();
        assert_eq!(t_c.graph, complete);
        assert_eq!(t_c.cost, CostValue::from_usize(4));
    }

    #[test]
    fn cycles_get_optimal_width_two() {
        for n in 4..9u32 {
            let c = cycle(n);
            let pre = Preprocessed::new(&c);
            let t = min_triangulation(&pre, &Width).unwrap();
            assert_eq!(t.width(), 2, "C{n} has treewidth 2");
            assert!(is_minimal_triangulation(&c, &t.graph));
            let t_fill = min_triangulation(&pre, &FillIn).unwrap();
            assert_eq!(t_fill.fill_in(&c), (n - 3) as usize);
        }
    }

    #[test]
    fn grid_treewidth() {
        // The k x k grid has treewidth k.
        for k in 2..4u32 {
            let idx = |r: u32, c: u32| r * k + c;
            let mut edges = Vec::new();
            for r in 0..k {
                for c in 0..k {
                    if c + 1 < k {
                        edges.push((idx(r, c), idx(r, c + 1)));
                    }
                    if r + 1 < k {
                        edges.push((idx(r, c), idx(r + 1, c)));
                    }
                }
            }
            let g = Graph::from_edges(k * k, &edges);
            let pre = Preprocessed::new(&g);
            let t = min_triangulation(&pre, &Width).unwrap();
            assert_eq!(t.width(), k as usize, "treewidth of the {k}x{k} grid");
            assert!(is_minimal_triangulation(&g, &t.graph));
        }
    }

    #[test]
    fn disconnected_graphs_are_handled_per_component() {
        // A C4 plus a disjoint triangle: optimal width is max(2, 2) = 2 and
        // optimal fill is 1 (one chord in the C4).
        let mut edges = vec![(0u32, 1u32), (1, 2), (2, 3), (3, 0)];
        edges.extend([(4, 5), (5, 6), (4, 6)]);
        let g = Graph::from_edges(7, &edges);
        let pre = Preprocessed::new(&g);
        let t = min_triangulation(&pre, &FillIn).unwrap();
        assert_eq!(t.fill_in(&g), 1);
        assert!(is_minimal_triangulation(&g, &t.graph));
        let w = min_triangulation(&pre, &Width).unwrap();
        assert_eq!(w.width(), 2);
    }

    #[test]
    fn exp_bag_sum_cost_optimum_is_minimal() {
        let g = paper_example_graph();
        let pre = Preprocessed::new(&g);
        let t = min_triangulation(&pre, &ExpBagSum).unwrap();
        assert!(is_minimal_triangulation(&g, &t.graph));
        // T2's bags (three triangles + one edge) cost 28 < T1's 36.
        assert_eq!(t.cost, CostValue::finite(28.0));
    }

    #[test]
    fn constrained_cost_forces_and_forbids_separators() {
        let g = paper_example_graph();
        let pre = Preprocessed::new(&g);
        let s1 = VertexSet::from_slice(6, &[3, 4, 5]);
        let s2 = VertexSet::from_slice(6, &[0, 1]);

        // Force S1: the only satisfying minimal triangulation is H1.
        let force_s1 = Constraints::new(vec![s1.clone()], vec![]);
        let t = min_triangulation_with(&pre, &FillIn, &force_s1).unwrap();
        assert_eq!(t.fill_in(&g), 3);
        assert!(force_s1.satisfied_by_graph(&t.graph));

        // Forbid S2: again only H1 remains.
        let forbid_s2 = Constraints::new(vec![], vec![s2.clone()]);
        let t2 = min_triangulation_with(&pre, &FillIn, &forbid_s2).unwrap();
        assert_eq!(t2.fill_in(&g), 3);

        // Forbidding both S1 and S2 leaves no minimal triangulation at all:
        // every maximal parallel set contains one of them.
        let impossible = Constraints::new(vec![], vec![s1, s2]);
        assert!(min_triangulation_with(&pre, &FillIn, &impossible).is_none());
    }

    #[test]
    fn bounded_width_preprocessing() {
        let g = paper_example_graph();
        // Width bound 2 admits only H2.
        let pre2 = Preprocessed::new_bounded(&g, 2);
        assert_eq!(pre2.width_bound(), Some(2));
        let t = min_triangulation(&pre2, &FillIn).unwrap();
        assert_eq!(t.width(), 2);
        assert_eq!(t.fill_in(&g), 1);
        // Width bound 1 admits nothing (the graph has treewidth 2).
        let pre1 = Preprocessed::new_bounded(&g, 1);
        assert!(min_triangulation(&pre1, &FillIn).is_none());
        // Width bound 3 admits both; fill optimum is still 1.
        let pre3 = Preprocessed::new_bounded(&g, 3);
        let t3 = min_triangulation(&pre3, &FillIn).unwrap();
        assert_eq!(t3.fill_in(&g), 1);
    }

    #[test]
    fn threaded_preprocessing_matches_sequential() {
        use mtr_pmc::enumerate::potential_maximal_cliques;
        let cases = vec![
            paper_example_graph(),
            cycle(6),
            Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6)]),
        ];
        for g in cases {
            let e = potential_maximal_cliques(&g);
            let sequential = Preprocessed::new(&g);
            let threaded =
                Preprocessed::from_parts_threaded(&g, e.minimal_separators, e.pmcs, None, 4);
            assert_eq!(sequential.full_blocks().len(), threaded.full_blocks().len());
            for cost in [&Width as &dyn BagCost, &FillIn] {
                let a = min_triangulation(&sequential, cost).unwrap();
                let b = min_triangulation(&threaded, cost).unwrap();
                assert_eq!(a.cost, b.cost);
                assert_eq!(a.graph, b.graph);
            }
        }
        // The bounded filter applies identically through the threaded path.
        let g = paper_example_graph();
        let e = potential_maximal_cliques(&g);
        let bounded =
            Preprocessed::from_parts_threaded(&g, e.minimal_separators, e.pmcs, Some(2), 2);
        assert_eq!(bounded.width_bound(), Some(2));
        let t = min_triangulation(&bounded, &FillIn).unwrap();
        assert_eq!(t.width(), 2);
    }

    #[test]
    fn single_vertices_and_empty_graphs() {
        let empty = Graph::new(0);
        let pre = Preprocessed::new(&empty);
        let t = min_triangulation(&pre, &Width).unwrap();
        assert!(t.bags.is_empty());

        let single = Graph::new(1);
        let pre1 = Preprocessed::new(&single);
        let t1 = min_triangulation(&pre1, &Width).unwrap();
        assert_eq!(t1.bags.len(), 1);
        assert_eq!(t1.width(), 0);

        let isolated = Graph::new(3);
        let pre3 = Preprocessed::new(&isolated);
        let t3 = min_triangulation(&pre3, &FillIn).unwrap();
        assert_eq!(t3.bags.len(), 3);
        assert_eq!(t3.cost, CostValue::ZERO);
    }

    /// Calls `visit(index, scope, Ω, children)` for every candidate of
    /// `pre`, at block and top level, whose child blocks are solved in
    /// `entries`; `index` is the candidate's bit in the masks.
    fn for_each_solved_candidate(
        pre: &Preprocessed,
        entries: &[Entry],
        mut visit: impl FnMut(usize, &VertexSet, &VertexSet, &[ChildSolution<'_>]),
    ) {
        let table = Table { pre, entries };
        for (i, scope) in pre.scopes.iter().enumerate() {
            for (index, cand) in pre.candidate_range(i).zip(&pre.candidates[i]) {
                if let Some(children) = table.children(&cand.children) {
                    visit(index, scope, &pre.pmcs[cand.pmc], &children);
                }
            }
        }
    }

    /// The bags a candidate assembles: its children's bags, then `Ω`.
    fn assembled(omega: &VertexSet, children: &[ChildSolution<'_>]) -> Vec<VertexSet> {
        let mut bags: Vec<VertexSet> = children.iter().flat_map(|c| c.bags()).cloned().collect();
        bags.push(omega.clone());
        bags
    }

    #[test]
    fn combine_matches_cost_of_bags_over_dp_tables() {
        for g in [paper_example_graph(), cycle(6), grid(3, 3), mycielski(4)] {
            let pre = Preprocessed::new(&g);
            let weights =
                WeightedWidth::new((0..g.n()).map(|v| 1.0 + f64::from(v) / 2.0).collect());
            let mut edges = Hypergraph::new(g.n());
            for (u, v) in g.edges() {
                edges.add_edge_slice(&[u, v]);
            }
            let cover = CoverWidth::new(edges);
            // The overriding costs, and one that prices through the
            // default `combine`.
            let costs: [&dyn BagCost; 6] = [
                &Width,
                &FillIn,
                &ExpBagSum,
                &weights,
                &cover,
                &WidthThenFill,
            ];
            for cost in costs {
                let (table, _) = DpTable::solve(&pre, cost, &Constraints::none(), None);
                let mut checked = 0;
                for_each_solved_candidate(&pre, &table.0, |_, scope, omega, children| {
                    let bags = assembled(omega, children);
                    assert_eq!(
                        cost.combine(&g, scope, omega, children),
                        cost.cost_of_bags(&g, scope, &bags),
                        "{} on {} vertices",
                        cost.name(),
                        g.n()
                    );
                    checked += 1;
                });
                assert!(checked > pre.full_blocks().len(), "{}", cost.name());
            }
        }
    }

    /// Test-only reference: whether `u` is a clique of `g` plus the bags,
    /// pair by pair.
    fn is_clique_pairwise(g: &Graph, bags: &[VertexSet], u: &VertexSet) -> bool {
        let members = u.to_vec();
        members.iter().enumerate().all(|(i, &x)| {
            members[i + 1..]
                .iter()
                .all(|&y| g.has_edge(x, y) || bags.iter().any(|b| b.contains(x) && b.contains(y)))
        })
    }

    /// The constraints of Lawler-tree nodes under `cost`, breadth first,
    /// until at least `limit` are known: each solved node's children are
    /// the staircase `RankedState::expand` builds from its best member's
    /// separators. Every table is solved from its parent's, as the ranked
    /// enumeration solves it, and `check(child, table)` sees each child's.
    fn lawler_tree(
        pre: &Preprocessed,
        cost: &dyn BagCost,
        limit: usize,
        mut check: impl FnMut(&Constraints, &DpTable),
    ) -> Vec<Constraints> {
        let root = Constraints::none();
        let (table, _) = DpTable::solve(pre, cost, &root, None);
        check(&root, &table);
        let mut nodes = vec![(root, table)];
        let mut next = 0;
        while next < nodes.len() && nodes.len() < limit {
            let (node, table) = nodes[next].clone();
            next += 1;
            let Some(best) = table
                .triangulation(pre, cost)
                .filter(|best| node.satisfied_by_graph(&best.graph))
            else {
                continue;
            };
            let seps: Vec<VertexSet> = minimal_separators(&best.graph)
                .into_iter()
                .filter(|s| !node.include.contains(s))
                .collect();
            for (k, sep) in seps.iter().enumerate() {
                let mut include = node.include.clone();
                include.extend(seps[..k].iter().cloned());
                let mut exclude = node.exclude.clone();
                exclude.push(sep.clone());
                let child = Constraints::new(include, exclude);
                let (child_table, _) = DpTable::solve(pre, cost, &child, Some(&table));
                check(&child, &child_table);
                nodes.push((child, child_table));
            }
        }
        nodes.into_iter().map(|(node, _)| node).collect()
    }

    /// Graphs on 1 to 11 vertices of edge density 1/8 to 5/8,
    /// disconnected ones included.
    fn small_graph() -> impl Strategy<Value = Graph> {
        (1u32..12)
            .prop_flat_map(|n| {
                let pairs = (n * (n - 1) / 2) as usize;
                (Just(n), prop::collection::vec(0u8..8, pairs), 1u8..6)
            })
            .prop_map(|(n, bits, threshold)| {
                let pairs = (0..n).flat_map(|u| (u + 1..n).map(move |v| (u, v)));
                let edges: Vec<_> = pairs
                    .zip(bits)
                    .filter(|&(_, bit)| bit < threshold)
                    .map(|(edge, _)| edge)
                    .collect();
                Graph::from_edges(n, &edges)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A child's table solved from its parent's equals the table solved
        /// from scratch, entry by entry (cost and winner, top level
        /// included), along chains of Lawler nodes, with and without a
        /// width bound, for overriding costs and one that prices through
        /// the default `combine`.
        #[test]
        fn incremental_tables_equal_from_scratch(g in small_graph(), bound in 1usize..6) {
            let pres = [Preprocessed::new(&g), Preprocessed::new_bounded(&g, bound)];
            for pre in &pres {
                for cost in [&Width as &dyn BagCost, &FillIn, &WidthThenFill] {
                    let mut mismatch = None;
                    lawler_tree(pre, cost, 40, |child, table| {
                        let (scratch, _) = DpTable::solve(pre, cost, child, None);
                        if mismatch.is_none() && *table != scratch {
                            mismatch = Some(child.clone());
                        }
                    });
                    prop_assert!(mismatch.is_none(), "{} on {g:?}: {mismatch:?}", cost.name());
                }
            }
        }
    }

    #[test]
    fn structural_constraint_rule_matches_pairwise_reference() {
        let graphs = [
            paper_example_graph(),
            cycle(7),
            grid(3, 3),
            gnp_connected(12, 0.2, 1),
            gnp_connected(16, 0.2, 2),
        ];
        for g in graphs {
            let pre = Preprocessed::new(&g);
            // How often the reference admits and rejects: both must occur.
            let mut verdicts = [0usize; 2];
            for constraints in lawler_tree(&pre, &FillIn, 24, |_, _| {}) {
                let admitted = pre.admitted(&constraints);
                let (table, _) = DpTable::solve(&pre, &FillIn, &constraints, None);
                for_each_solved_candidate(&pre, &table.0, |index, scope, omega, children| {
                    let bags = assembled(omega, children);
                    let clique = |u: &&VertexSet| is_clique_pairwise(&g, &bags, u);
                    let inside = |u: &&VertexSet| u.is_subset_of(scope);
                    let reference = constraints
                        .include
                        .iter()
                        .filter(inside)
                        .all(|u| clique(&u))
                        && !constraints
                            .exclude
                            .iter()
                            .filter(inside)
                            .any(|u| clique(&u));
                    assert_eq!(
                        admitted.contains(index as u32),
                        reference,
                        "{constraints:?} at Ω = {omega:?}"
                    );
                    verdicts[usize::from(reference)] += 1;
                });
            }
            assert!(verdicts.iter().all(|&v| v > 0), "{verdicts:?} on {g:?}");
        }

        // A constraint outside a block's scope is left to the blocks above:
        // the paper graph's block ({v}, {v'}) stays solved under the include
        // {w1, w2, w3}, which its own bags do not saturate.
        let pre = Preprocessed::new(&paper_example_graph());
        let include = Constraints::new(vec![VertexSet::from_slice(6, &[3, 4, 5])], vec![]);
        let leaf = pre
            .scopes
            .iter()
            .position(|b| *b == VertexSet::from_slice(6, &[1, 2]))
            .expect("({v}, {v'}) is a full block");
        let admitted = pre.admitted(&include);
        assert!(pre
            .candidate_range(leaf)
            .all(|index| admitted.contains(index as u32)));
        let (table, _) = DpTable::solve(&pre, &FillIn, &include, None);
        assert!(table.0[leaf].is_solved());
    }
}
