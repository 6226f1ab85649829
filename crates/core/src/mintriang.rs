//! `MinTriang⟨κ⟩` — computing a minimum-cost minimal triangulation
//! (Section 5, Figure 3 of the paper), generalized Bouchitté–Todinca.
//!
//! The dynamic program processes the full blocks `(S, C)` of the graph in
//! ascending `|S ∪ C|` order. For each block it chooses the potential
//! maximal clique `Ω` with `S ⊂ Ω ⊆ S ∪ C` that minimizes the cost of the
//! triangulation assembled from `Ω` and the previously computed optimal
//! triangulations of the sub-blocks (Equation (1)); the top level picks the
//! best `Ω ∈ PMC(G)` for the whole graph. Any split-monotone bag cost can be
//! plugged in, including the constrained costs `κ[I, X]` used by the ranked
//! enumeration.
//!
//! The expensive part — minimal separators, potential maximal cliques, full
//! blocks, and the combinatorial structure of which PMCs can realize which
//! blocks — does not depend on the cost function, so it is computed once
//! into a [`Preprocessed`] value and shared by every `MinTriang` invocation
//! (exactly the "initialization step" the paper's experiments report).

use crate::cost::{BagCost, ChildSolution, CostValue};
use crate::pool::{self, Scratch};
use mtr_chordal::cliques::maximal_cliques_chordal;
use mtr_graph::{Graph, VertexSet};
use mtr_pmc::enumerate::{potential_maximal_cliques, potential_maximal_cliques_bounded};
use mtr_separators::blocks::{full_blocks, Block};
use std::collections::HashMap;

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
        let mut scratch = Scratch::default();
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
                        move |scratch: &mut Scratch| {
                            range
                                .map(|bi| {
                                    candidates_for_block(g, &blocks[bi], pmcs, block_index, scratch)
                                })
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
                .map(|b| candidates_for_block(g, b, &pmcs, &block_index, &mut scratch))
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
                if let Some(children) =
                    resolve_children(g, comp, omega, &block_index, None, &mut scratch)
                {
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
    scratch: &mut Scratch,
) -> Vec<Candidate> {
    let block_vertices = block.vertices();
    let mut candidates = Vec::new();
    for (pi, omega) in pmcs.iter().enumerate() {
        if !block.separator.is_proper_subset_of(omega) || !omega.is_subset_of(&block_vertices) {
            continue;
        }
        if let Some(children) =
            resolve_children(g, &block_vertices, omega, block_index, Some(block), scratch)
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
    scratch: &mut Scratch,
) -> Option<Vec<usize>> {
    let mut rest = scratch.take(scope.universe());
    rest.copy_from(scope);
    rest.difference_with(omega);
    let mut children = Vec::new();
    let mut resolved = true;
    for c in g.components_within(&rest) {
        let sep = g.neighborhood_of_set(&c).intersection(scope);
        let child = Block::new(sep, c);
        if let Some(parent) = parent {
            // Progress check: the child must be strictly smaller than the
            // parent block so the DP's processing order is respected.
            if child.size() >= parent.size() {
                resolved = false;
                break;
            }
        }
        match block_index.get(&child) {
            Some(&idx) => children.push(idx),
            None => {
                resolved = false;
                break;
            }
        }
    }
    scratch.recycle(rest);
    resolved.then_some(children)
}

/// The stored optimal solution of one block.
#[derive(Clone, Debug)]
struct BlockSolution {
    bags: Vec<VertexSet>,
    cost: CostValue,
}

/// Computes a minimum-cost minimal triangulation of the preprocessed graph
/// under the bag cost `cost` (`MinTriang⟨κ⟩(G)`).
///
/// Returns `None` only when the graph admits no triangulation within the
/// preprocessing restrictions — i.e. when a width bound was used and the
/// graph has no minimal triangulation of that width, or when every candidate
/// has infinite cost (all of them violate the constraints compiled into the
/// cost).
pub fn min_triangulation<K: BagCost + ?Sized>(
    pre: &Preprocessed,
    cost: &K,
) -> Option<Triangulation> {
    thread_local! {
        // The arena only pays off when it survives across invocations (the
        // bound on Scratch::recycle keeps it small); a fresh arena per call
        // would be strictly slower than plain clones.
        static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch::default());
    }
    SCRATCH.with(|s| min_triangulation_in(pre, cost, &mut s.borrow_mut()))
}

/// [`min_triangulation`] with an explicit scratch arena.
///
/// The dynamic program assembles and discards many intermediate bag lists
/// (one per candidate improvement); this variant routes those `VertexSet`s
/// through `scratch` so repeated invocations — one per Lawler–Murty node in
/// the ranked engines — stop churning the allocator. The returned
/// [`Triangulation`] owns its sets and does not borrow the scratch.
pub fn min_triangulation_in<K: BagCost + ?Sized>(
    pre: &Preprocessed,
    cost: &K,
    scratch: &mut Scratch,
) -> Option<Triangulation> {
    let g = &pre.graph;
    if g.n() == 0 {
        return Some(Triangulation {
            graph: Graph::new(0),
            bags: Vec::new(),
            cost: cost.cost_of_bags(g, &VertexSet::empty(0), &[]),
        });
    }

    // Dynamic program over full blocks in ascending size order.
    let mut solutions: Vec<Option<BlockSolution>> = vec![None; pre.blocks.len()];
    for bi in 0..pre.blocks.len() {
        let scope = &pre.block_vertices[bi];
        let mut best: Option<BlockSolution> = None;
        for cand in &pre.block_candidates[bi] {
            let omega = &pre.pmcs[cand.pmc];
            let Some(children) = gather_children(pre, &solutions, &cand.children) else {
                continue;
            };
            let value = cost.combine(g, scope, omega, &children);
            if best.as_ref().is_none_or(|b| value < b.cost) {
                let bags = assemble_bags_in(&children, omega, scratch);
                if let Some(replaced) = best.replace(BlockSolution { bags, cost: value }) {
                    recycle_bags(scratch, replaced.bags);
                }
            }
        }
        solutions[bi] = best;
    }

    // Top level: per connected component, then combine.
    let mut all_bags: Vec<VertexSet> = Vec::new();
    for (ci, comp) in pre.components.iter().enumerate() {
        let mut best: Option<BlockSolution> = None;
        for cand in &pre.top_candidates[ci] {
            let omega = &pre.pmcs[cand.pmc];
            let Some(children) = gather_children(pre, &solutions, &cand.children) else {
                continue;
            };
            let value = cost.combine(g, comp, omega, &children);
            if best.as_ref().is_none_or(|b| value < b.cost) {
                let bags = assemble_bags_in(&children, omega, scratch);
                if let Some(replaced) = best.replace(BlockSolution { bags, cost: value }) {
                    recycle_bags(scratch, replaced.bags);
                }
            }
        }
        let comp_solution = best?;
        if comp_solution.cost.is_infinite() {
            return None;
        }
        all_bags.extend(comp_solution.bags);
    }

    // Materialize the triangulation and canonicalize its bags as the maximal
    // cliques of the chordal graph.
    let mut h = g.clone();
    for bag in &all_bags {
        h.saturate(bag);
    }
    // Everything the DP assembled is scratch material from here on.
    recycle_bags(scratch, all_bags);
    for sol in solutions.into_iter().flatten() {
        recycle_bags(scratch, sol.bags);
    }
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

fn gather_children<'a>(
    pre: &'a Preprocessed,
    solutions: &'a [Option<BlockSolution>],
    child_indices: &[usize],
) -> Option<Vec<ChildSolution<'a>>> {
    let mut children = Vec::with_capacity(child_indices.len());
    for &ci in child_indices {
        let sol = solutions[ci].as_ref()?;
        children.push(ChildSolution {
            separator: &pre.blocks[ci].separator,
            vertices: &pre.block_vertices[ci],
            cost: sol.cost,
            bags: &sol.bags,
        });
    }
    Some(children)
}

/// Like cloning the child bags plus `omega` into a fresh list, but the
/// backing sets come from the arena.
fn assemble_bags_in(
    children: &[ChildSolution<'_>],
    omega: &VertexSet,
    scratch: &mut Scratch,
) -> Vec<VertexSet> {
    let mut bags: Vec<VertexSet> =
        Vec::with_capacity(1 + children.iter().map(|c| c.bags.len()).sum::<usize>());
    for c in children {
        for b in c.bags {
            let mut copy = scratch.take(b.universe());
            copy.copy_from(b);
            bags.push(copy);
        }
    }
    let mut top = scratch.take(omega.universe());
    top.copy_from(omega);
    bags.push(top);
    bags
}

fn recycle_bags(scratch: &mut Scratch, bags: Vec<VertexSet>) {
    for b in bags {
        scratch.recycle(b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{Constrained, Constraints, ExpBagSum, FillIn, Width, WidthThenFill};
    use mtr_chordal::verify::is_minimal_triangulation;
    use mtr_graph::paper_example_graph;

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
        let k = Constrained::new(&FillIn, &force_s1);
        let t = min_triangulation(&pre, &k).unwrap();
        assert_eq!(t.fill_in(&g), 3);
        assert!(force_s1.satisfied_by_graph(&t.graph));

        // Forbid S2: again only H1 remains.
        let forbid_s2 = Constraints::new(vec![], vec![s2.clone()]);
        let k2 = Constrained::new(&FillIn, &forbid_s2);
        let t2 = min_triangulation(&pre, &k2).unwrap();
        assert_eq!(t2.fill_in(&g), 3);

        // Forbidding both S1 and S2 leaves no minimal triangulation at all:
        // every maximal parallel set contains one of them.
        let impossible = Constraints::new(vec![], vec![s1, s2]);
        let k3 = Constrained::new(&FillIn, &impossible);
        assert!(min_triangulation(&pre, &k3).is_none());
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
}
