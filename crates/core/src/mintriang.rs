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
//! (see [`crate::cost::Constraints`]): a candidate that violates one is
//! skipped rather than priced.
//!
//! The table holds back-pointers only: per full block, its optimal cost and
//! the index of the candidate that attains it. Bags are walked from those
//! back-pointers when they are needed — once for the root winner, and for
//! costs that price candidates through the default [`BagCost::combine`].
//!
//! The expensive part — minimal separators, potential maximal cliques, full
//! blocks, and the combinatorial structure of which PMCs can realize which
//! blocks — does not depend on the cost function, so it is computed once
//! into a [`Preprocessed`] value and shared by every `MinTriang` invocation
//! (exactly the "initialization step" the paper's experiments report).

use crate::cost::{BagCost, ChildSolution, Constraints, CostValue};
use crate::pool;
use mtr_chordal::cliques::maximal_cliques_chordal;
use mtr_graph::{Graph, VertexSet};
use mtr_pmc::enumerate::{potential_maximal_cliques, potential_maximal_cliques_bounded};
use mtr_separators::blocks::{full_blocks, Block};
use std::collections::HashMap;
use std::fmt;

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

/// The cost-independent initialization shared by all `MinTriang` /
/// `RankedTriang` invocations on one graph: minimal separators, potential
/// maximal cliques, full blocks, and the candidate structure of the dynamic
/// program.
#[derive(Clone, Debug)]
pub struct Preprocessed {
    graph: Graph,
    minimal_separators: Vec<VertexSet>,
    pmcs: Vec<VertexSet>,
    blocks: Vec<Block>,
    /// `blocks[i].vertices()`, cached (used as the DP scope of block `i`).
    block_vertices: Vec<VertexSet>,
    /// For every full block, the candidate PMCs (with their child blocks).
    block_candidates: Vec<Vec<Candidate>>,
    /// Connected components of the graph.
    components: Vec<VertexSet>,
    /// For every connected component, the top-level candidates.
    top_candidates: Vec<Vec<Candidate>>,
    /// The width bound used during preprocessing, if any.
    width_bound: Option<usize>,
}

impl Preprocessed {
    /// Full (unbounded) preprocessing of `g`: all minimal separators and all
    /// potential maximal cliques. Polynomial under the poly-MS assumption.
    pub fn new(g: &Graph) -> Self {
        let e = potential_maximal_cliques(g);
        Self::from_parts_threaded(g, e.minimal_separators, e.pmcs, None, 1)
    }

    /// Width-bounded preprocessing (`MinTriangB`): only separators of size
    /// `≤ width_bound` and PMCs of size `≤ width_bound + 1` are considered,
    /// which bounds the work without the poly-MS assumption (Section 5.3).
    pub fn new_bounded(g: &Graph, width_bound: usize) -> Self {
        let e = potential_maximal_cliques_bounded(g, width_bound + 1);
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
        let block_vertices: Vec<VertexSet> = blocks.iter().map(Block::vertices).collect();
        let block_index: HashMap<Block, usize> = blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (b.clone(), i))
            .collect();

        // Candidates per block: PMCs Ω with S ⊂ Ω ⊆ S ∪ C, each with the
        // child blocks induced by the components of (S ∪ C) \ Ω. Blocks are
        // independent of each other, so with `threads > 1` the resolution
        // runs as chunked work-stealing pool tasks.
        let block_candidates: Vec<Vec<Candidate>> = if threads > 1 && blocks.len() > 1 {
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
                            range
                                .map(|bi| candidates_for_block(g, &blocks[bi], pmcs, block_index))
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
            blocks
                .iter()
                .map(|b| candidates_for_block(g, b, &pmcs, &block_index))
                .collect()
        };

        // Top-level candidates per connected component (few components, so
        // this stays sequential).
        let components = g.components();
        let mut top_candidates: Vec<Vec<Candidate>> = Vec::with_capacity(components.len());
        for comp in &components {
            let mut candidates = Vec::new();
            for (pi, omega) in pmcs.iter().enumerate() {
                if omega.is_empty() || !omega.is_subset_of(comp) {
                    continue;
                }
                if let Some(children) = resolve_children(g, comp, omega, &block_index, None) {
                    candidates.push(Candidate { pmc: pi, children });
                }
            }
            top_candidates.push(candidates);
        }

        Preprocessed {
            graph: g.clone(),
            minimal_separators,
            pmcs,
            blocks,
            block_vertices,
            block_candidates,
            components,
            top_candidates,
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
}

/// Resolves all candidate PMCs of one full block — the unit of work the
/// threaded initialization distributes over the pool.
fn candidates_for_block(
    g: &Graph,
    block: &Block,
    pmcs: &[VertexSet],
    block_index: &HashMap<Block, usize>,
) -> Vec<Candidate> {
    let block_vertices = block.vertices();
    let mut candidates = Vec::new();
    for (pi, omega) in pmcs.iter().enumerate() {
        if !block.separator.is_proper_subset_of(omega) || !omega.is_subset_of(&block_vertices) {
            continue;
        }
        if let Some(children) =
            resolve_children(g, &block_vertices, omega, block_index, Some(block))
        {
            candidates.push(Candidate { pmc: pi, children });
        }
    }
    candidates
}

/// Resolves the child blocks of choosing `omega` inside `scope`: the
/// components of `scope \ omega` with their neighborhoods. Returns `None`
/// when some child block is not a known full block (which, per Theorems 5.3
/// and 5.4, does not happen for genuine PMCs — `None` simply drops the
/// candidate).
fn resolve_children(
    g: &Graph,
    scope: &VertexSet,
    omega: &VertexSet,
    block_index: &HashMap<Block, usize>,
    parent: Option<&Block>,
) -> Option<Vec<usize>> {
    let mut children = Vec::new();
    for c in g.components_within(&scope.difference(omega)) {
        let sep = g.neighborhood_of_set(&c).intersection(scope);
        let child = Block::new(sep, c);
        // Progress check: the child must be strictly smaller than the
        // parent block so the DP's processing order is respected.
        if parent.is_some_and(|parent| child.size() >= parent.size()) {
            return None;
        }
        children.push(*block_index.get(&child)?);
    }
    Some(children)
}

/// One entry of the DP table: the optimal cost of a full block, and the
/// index (into the block's candidates) of the first candidate attaining it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BlockSolution {
    cost: CostValue,
    winner: usize,
}

/// Read access to a (partly filled) DP table: enough to price a candidate
/// and to walk any solved block's bags back from its winner.
#[derive(Clone, Copy)]
pub(crate) struct Table<'a> {
    pre: &'a Preprocessed,
    solutions: &'a [Option<BlockSolution>],
}

impl fmt::Debug for Table<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("blocks", &self.solutions.len())
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
                let solution = self.solutions[block]?;
                Some(ChildSolution {
                    separator: &self.pre.blocks[block].separator,
                    vertices: &self.pre.block_vertices[block],
                    cost: solution.cost,
                    table: self,
                    block,
                })
            })
            .collect()
    }

    /// The first cheapest of `candidates` for `scope` among those whose
    /// children are solved and which satisfy `constraints`.
    fn best<K: BagCost + ?Sized>(
        self,
        cost: &K,
        constraints: &Constraints,
        scope: &VertexSet,
        candidates: &[Candidate],
    ) -> Option<BlockSolution> {
        let in_scope = constraints.within(scope);
        let mut best: Option<BlockSolution> = None;
        for (winner, cand) in candidates.iter().enumerate() {
            let omega = &self.pre.pmcs[cand.pmc];
            let Some(children) = self.children(&cand.children) else {
                continue;
            };
            if !in_scope.admit(omega, &children) {
                continue;
            }
            let value = cost.combine(&self.pre.graph, scope, omega, &children);
            if best.is_none_or(|b| value < b.cost) {
                best = Some(BlockSolution {
                    cost: value,
                    winner,
                });
            }
        }
        best
    }

    /// The winning candidate of a solved block.
    fn winner(self, block: usize) -> &'a Candidate {
        let solution = self.solutions[block].expect("only solved blocks are walked");
        &self.pre.block_candidates[block][solution.winner]
    }

    /// The bags of the triangulation `top` assembles: each child's bags in
    /// candidate order, then `top`'s `Ω` (a post-order walk).
    fn candidate_bags(self, top: &'a Candidate) -> impl Iterator<Item = &'a VertexSet> + 'a {
        let pmcs = &self.pre.pmcs;
        let mut stack = vec![(top, 0)];
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

    /// The bags of the triangulation stored for the solved block `block`.
    pub(crate) fn bags(self, block: usize) -> impl Iterator<Item = &'a VertexSet> + 'a {
        self.candidate_bags(self.winner(block))
    }
}

/// Fills the DP table: every full block, in ascending size order, so each
/// child is solved before its parents.
fn solve_blocks<K: BagCost + ?Sized>(
    pre: &Preprocessed,
    cost: &K,
    constraints: &Constraints,
) -> Vec<Option<BlockSolution>> {
    let mut solutions = vec![None; pre.blocks.len()];
    for bi in 0..pre.blocks.len() {
        let table = Table {
            pre,
            solutions: &solutions,
        };
        let scope = &pre.block_vertices[bi];
        solutions[bi] = table.best(cost, constraints, scope, &pre.block_candidates[bi]);
    }
    solutions
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
/// it and skips the candidates that violate it (see [`Constraints`]), so
/// the table never holds an infeasible winner. A constraint inside no
/// connected component — never a minimal separator — is not decided;
/// callers passing such sets check the result with
/// [`Constraints::satisfied_by_graph`], as the ranked enumeration does.
pub fn min_triangulation_with<K: BagCost + ?Sized>(
    pre: &Preprocessed,
    cost: &K,
    constraints: &Constraints,
) -> Option<Triangulation> {
    let g = &pre.graph;
    if g.n() == 0 {
        return Some(Triangulation {
            graph: Graph::new(0),
            bags: Vec::new(),
            cost: cost.cost_of_bags(g, &VertexSet::empty(0), &[]),
        });
    }
    let solutions = solve_blocks(pre, cost, constraints);
    let table = Table {
        pre,
        solutions: &solutions,
    };

    // Top level: the best candidate per connected component, whose bags
    // are walked back from the table and saturated into the triangulation.
    let mut h = g.clone();
    for (comp, candidates) in pre.components.iter().zip(&pre.top_candidates) {
        let best = table.best(cost, constraints, comp, candidates)?;
        if best.cost.is_infinite() {
            return None;
        }
        for bag in table.candidate_bags(&candidates[best.winner]) {
            h.saturate(bag);
        }
    }

    // Canonicalize the bags as the maximal cliques of the chordal graph.
    let bags = maximal_cliques_chordal(&h)
        .expect("saturating the bags of a block decomposition must give a chordal graph");
    let total_cost = cost.cost_of_bags(g, &g.vertex_set(), &bags);
    if total_cost.is_infinite() {
        return None;
    }
    Some(Triangulation {
        graph: h,
        bags,
        cost: total_cost,
    })
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

    /// Calls `visit(scope, Ω, children)` for every candidate of `pre`, at
    /// block and top level, whose child blocks are solved in `solutions`.
    fn for_each_solved_candidate(
        pre: &Preprocessed,
        solutions: &[Option<BlockSolution>],
        mut visit: impl FnMut(&VertexSet, &VertexSet, &[ChildSolution<'_>]),
    ) {
        let table = Table { pre, solutions };
        let blocks = pre.block_vertices.iter().zip(&pre.block_candidates);
        let tops = pre.components.iter().zip(&pre.top_candidates);
        for (scope, candidates) in blocks.chain(tops) {
            for cand in candidates {
                if let Some(children) = table.children(&cand.children) {
                    visit(scope, &pre.pmcs[cand.pmc], &children);
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
                let solutions = solve_blocks(&pre, cost, &Constraints::none());
                let mut checked = 0;
                for_each_solved_candidate(&pre, &solutions, |scope, omega, children| {
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

    /// The constraints of Lawler-tree nodes, breadth first, until at least
    /// `limit` are known: each solved node's children are the staircase
    /// `RankedState::expand` builds from its best member's separators.
    fn lawler_nodes(pre: &Preprocessed, limit: usize) -> Vec<Constraints> {
        let mut nodes = vec![Constraints::none()];
        let mut next = 0;
        while next < nodes.len() && nodes.len() < limit {
            let node = nodes[next].clone();
            next += 1;
            let Some(best) = min_triangulation_with(pre, &FillIn, &node)
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
                nodes.push(Constraints::new(include, exclude));
            }
        }
        nodes
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
            for constraints in lawler_nodes(&pre, 24) {
                let solutions = solve_blocks(&pre, &FillIn, &constraints);
                for_each_solved_candidate(&pre, &solutions, |scope, omega, children| {
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
                        constraints.within(scope).admit(omega, children),
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
            .block_vertices
            .iter()
            .position(|b| *b == VertexSet::from_slice(6, &[1, 2]))
            .expect("({v}, {v'}) is a full block");
        assert!(include
            .within(&pre.block_vertices[leaf])
            .admit(&VertexSet::from_slice(6, &[1, 2]), &[]));
        assert!(solve_blocks(&pre, &FillIn, &include)[leaf].is_some());
    }
}
