//! Split-monotone bag costs (Section 3 of the paper).
//!
//! A *bag cost* assigns a numeric cost to a tree decomposition that depends
//! only on its set of bags; it is *split monotone* when replacing a subtree
//! of the decomposition with a cheaper subtree never increases the total
//! cost. The paper shows that the Bouchitté–Todinca dynamic program
//! optimizes any such cost, also under the inclusion/exclusion constraints
//! that Lawler–Murty needs (Lemma 6.2); the program decides those
//! constraints itself ([`Constraints`]).
//!
//! The [`BagCost`] trait captures this interface:
//!
//! * [`BagCost::cost_of_bags`] evaluates the cost of a triangulation
//!   presented as its bag list (the maximal cliques of the triangulation);
//! * [`BagCost::combine`] is the compositional hook the dynamic program
//!   uses to price "children blocks + one new bag Ω"; the default
//!   implementation walks the children's bags ([`ChildSolution::bags`]),
//!   assembles the bag list and calls `cost_of_bags`, which is correct for
//!   every bag cost, while the classic costs override it with
//!   O(#children) arithmetic.
//!
//! The provided implementations are the costs discussed in the paper:
//! width, fill-in, the weighted variants of Furuse and Yamazaki, the
//! lexicographic `|E|·width + fill`, the state-space cost `Σ 2^|bag|`,
//! hyperedge-cover width (hypertree-width-like), and linear combinations.

mod classic;
mod constrained;
mod value;

pub use classic::{
    CoverWidth, ExpBagSum, FillIn, LinearCombination, WeightedFillIn, WeightedWidth, Width,
    WidthThenFill,
};
pub use constrained::Constraints;
pub use value::CostValue;

#[cfg(test)]
mod atom_combine_tests {
    use super::*;

    #[test]
    fn shipped_costs_declare_their_factorization() {
        assert_eq!(Width.atom_combine(), Some(AtomCombine::Max));
        assert_eq!(FillIn.atom_combine(), Some(AtomCombine::Additive));
        // Vertex-identity-dependent and non-factorizing costs stay opted out.
        assert_eq!(WeightedWidth::new(vec![1.0]).atom_combine(), None);
        assert_eq!(WidthThenFill.atom_combine(), None);
        assert_eq!(ExpBagSum.atom_combine(), None);
        // The CLI-facing boxed costs carry the declaration through.
        assert_eq!(
            named_cost("width").unwrap().atom_combine(),
            Some(AtomCombine::Max)
        );
        assert_eq!(
            named_cost("fill").unwrap().atom_combine(),
            Some(AtomCombine::Additive)
        );
        assert_eq!(named_cost("expbags").unwrap().atom_combine(), None);
    }
}

use crate::mintriang::Table;
use mtr_graph::{Graph, VertexSet};

/// How a bag cost combines across the *atoms* of a clique-separator
/// decomposition (and across connected components, the special case of an
/// empty clique separator).
///
/// When a graph is decomposed by clique minimal separators into atoms
/// `A_1, …, A_k`, its minimal triangulations are exactly the unions of one
/// minimal triangulation per atom, with pairwise-disjoint fill sets, and
/// every maximal clique of the combined triangulation lies inside a single
/// atom. A cost declares here — via [`BagCost::atom_combine`] — how its
/// value on the combined triangulation follows from the per-atom values,
/// which is what lets `mtr-reduce` rank the product space of per-atom
/// streams without ever materializing a non-optimal combination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtomCombine {
    /// `cost(H) = Σ_i cost(H_i)` — fill-like costs, whose value is a sum
    /// over fill edges (per-atom fill sets are disjoint).
    Additive,
    /// `cost(H) = max_i cost(H_i)` — width-like costs, whose value is a
    /// maximum of a ⊆-monotone bag price (every bag lives inside an atom).
    Max,
}

/// The stored solution of one child block, as seen by [`BagCost::combine`].
#[derive(Clone, Copy, Debug)]
pub struct ChildSolution<'a> {
    /// The minimal separator of the child block (`S_i`).
    pub separator: &'a VertexSet,
    /// The vertex set of the child block (`S_i ∪ C_i`).
    pub vertices: &'a VertexSet,
    /// The stored cost of the child's optimal triangulation
    /// (of the realization `R(S_i, C_i)` relative to `G[S_i ∪ C_i]`).
    pub cost: CostValue,
    /// The table the child's bags are walked from, and the child's block.
    pub(crate) table: Table<'a>,
    pub(crate) block: usize,
}

impl<'a> ChildSolution<'a> {
    /// The bags of the child's stored triangulation, walked back from the
    /// dynamic program's table: the bags of each child of the child's
    /// winning candidate in candidate order, then that candidate's `Ω`.
    pub fn bags(&self) -> impl Iterator<Item = &'a VertexSet> + 'a {
        self.table.bags(self.block)
    }
}

/// A thread-safe boxed bag cost, as produced by [`named_cost`] and consumed
/// by configuration-driven callers (the `mtr` CLI, experiment harnesses).
pub type DynBagCost = dyn BagCost + Send + Sync;

/// Looks up one of the parameter-free shipped costs by its CLI/config name.
///
/// Recognized names (with aliases): `width`, `fill` / `fill-in`,
/// `width-fill` / `width-then-fill`, `expbags` / `exp-bag-sum`. Costs that
/// need parameters (weighted variants, cover width, linear combinations)
/// must be constructed programmatically.
pub fn named_cost(name: &str) -> Option<Box<DynBagCost>> {
    match name {
        "width" => Some(Box::new(Width)),
        "fill" | "fill-in" => Some(Box::new(FillIn)),
        "width-fill" | "width-then-fill" => Some(Box::new(WidthThenFill)),
        "expbags" | "exp-bag-sum" => Some(Box::new(ExpBagSum)),
        _ => None,
    }
}

/// A bag cost over tree decompositions / triangulations.
///
/// Implementations must be *split monotone* for the optimizer to be exact;
/// all the costs shipped in this module are (see Section 3 of the paper).
/// The ranked enumeration relies on it a second time: a Lawler child keeps
/// its parent's table entries wherever its new constraints leave the
/// winner in place, which is exact only because a cheaper sub-solution
/// never makes a candidate costlier.
pub trait BagCost {
    /// A short human-readable name used in reports.
    fn name(&self) -> String;

    /// The cost of the triangulation of `g[scope]` whose maximal cliques are
    /// `bags`.
    ///
    /// `g` is always the full host graph; `scope` is the vertex set of the
    /// (sub)graph being decomposed — the full vertex set at the top level,
    /// or `S ∪ C` when the dynamic program prices a block.
    fn cost_of_bags(&self, g: &Graph, scope: &VertexSet, bags: &[VertexSet]) -> CostValue;

    /// The cost of the triangulation of `g[scope]` assembled from the child
    /// block solutions plus the new bag `omega` (Equation (1) of the paper).
    ///
    /// The default implementation collects every child's
    /// [`ChildSolution::bags`] followed by `omega` and calls
    /// [`BagCost::cost_of_bags`]; override it when the cost can be combined
    /// arithmetically from the child costs.
    fn combine(
        &self,
        g: &Graph,
        scope: &VertexSet,
        omega: &VertexSet,
        children: &[ChildSolution<'_>],
    ) -> CostValue {
        let mut bags: Vec<VertexSet> = children.iter().flat_map(|c| c.bags()).cloned().collect();
        bags.push(omega.clone());
        self.cost_of_bags(g, scope, &bags)
    }

    /// How (and whether) this cost factorizes over the atoms of a
    /// clique-separator decomposition; see [`AtomCombine`].
    ///
    /// Return `Some` only when **both** hold:
    ///
    /// * the cost is invariant under vertex relabeling (atoms are evaluated
    ///   as remapped induced subgraphs), and
    /// * the combined value follows the declared rule exactly.
    ///
    /// The default is `None`, which makes reduction-enabled sessions fall
    /// back to direct enumeration — always sound, never faster.
    fn atom_combine(&self) -> Option<AtomCombine> {
        None
    }

    /// Inert: no engine calls it, and no shipped cost overrides it. It
    /// once lower-bounded a Lawler–Murty partition for incumbent-bounded
    /// pruning, which is gone; the method stays so that existing
    /// implementations (the perfbench harness's counting wrapper among
    /// them) keep compiling. The default returns `None`.
    fn include_lower_bound(&self, _g: &Graph, _include: &[VertexSet]) -> Option<CostValue> {
        None
    }

    /// Whether the cost is invariant under vertex relabeling: for every
    /// permutation `σ` of the vertices and every triangulation `H`,
    /// `cost(σ(H)) = cost(H)`. Equivalently, [`BagCost::cost_of_bags`]
    /// depends only on the isomorphism type of `(g[scope], bags)`.
    ///
    /// Symmetry-aware machinery (orbit-canonical subproblem sharing,
    /// `--modulo-symmetry`) is only sound for label-invariant costs — an
    /// automorphism of the graph must map optimal solutions to equally
    /// optimal solutions. The default is `false`, which simply disables
    /// those optimizations; declaring `true` for a cost that does depend
    /// on vertex identities (e.g. per-vertex weights) would corrupt the
    /// ranked order.
    fn label_invariant(&self) -> bool {
        false
    }
}

/// Number of edges of the subgraph of `g` induced by `scope`.
pub(crate) fn induced_edge_count(g: &Graph, scope: &VertexSet) -> usize {
    let mut twice = 0usize;
    for v in scope.iter() {
        twice += g.neighbors(v).intersection_len(scope);
    }
    twice / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtr_graph::paper_example_graph;

    #[test]
    fn named_costs_resolve_with_aliases() {
        assert_eq!(named_cost("width").unwrap().name(), "width");
        assert_eq!(named_cost("fill").unwrap().name(), "fill-in");
        assert_eq!(named_cost("fill-in").unwrap().name(), "fill-in");
        assert_eq!(named_cost("width-fill").unwrap().name(), "width-then-fill");
        assert_eq!(named_cost("expbags").unwrap().name(), "exp-bag-sum");
        assert!(named_cost("no-such-cost").is_none());
    }

    #[test]
    fn induced_edge_count_matches_subgraph() {
        let g = paper_example_graph();
        assert_eq!(induced_edge_count(&g, &g.vertex_set()), g.m());
        let sub = VertexSet::from_slice(6, &[0, 1, 3]);
        assert_eq!(induced_edge_count(&g, &sub), 2);
        assert_eq!(induced_edge_count(&g, &VertexSet::empty(6)), 0);
    }
}
