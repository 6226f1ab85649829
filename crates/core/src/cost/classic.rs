//! The classic split-monotone bag costs of Section 3.

use super::{induced_edge_count, AtomCombine, BagCost, ChildSolution, CostValue};
use mtr_graph::{Graph, Hypergraph, Vertex, VertexSet};
use std::collections::HashMap;

/// Width: the cardinality of the largest bag minus one.
#[derive(Clone, Copy, Debug, Default)]
pub struct Width;

impl BagCost for Width {
    fn name(&self) -> String {
        "width".into()
    }

    fn cost_of_bags(&self, _g: &Graph, _scope: &VertexSet, bags: &[VertexSet]) -> CostValue {
        let w = bags.iter().map(|b| b.len()).max().unwrap_or(1);
        CostValue::from_usize(w.saturating_sub(1))
    }

    fn combine(
        &self,
        _g: &Graph,
        _scope: &VertexSet,
        omega: &VertexSet,
        children: &[ChildSolution<'_>],
    ) -> CostValue {
        let mut cost = CostValue::from_usize(omega.len().saturating_sub(1));
        for c in children {
            cost = cost.max(c.cost);
        }
        cost
    }

    fn atom_combine(&self) -> Option<AtomCombine> {
        // Width is the maximum of a ⊆-monotone bag price and ignores vertex
        // identities, so it max-combines exactly across atoms.
        Some(AtomCombine::Max)
    }

    fn label_invariant(&self) -> bool {
        true
    }
}

/// Fill-in: the number of distinct non-edges of the graph that saturating
/// every bag adds.
#[derive(Clone, Copy, Debug, Default)]
pub struct FillIn;

impl BagCost for FillIn {
    fn name(&self) -> String {
        "fill-in".into()
    }

    fn cost_of_bags(&self, g: &Graph, _scope: &VertexSet, bags: &[VertexSet]) -> CostValue {
        // Count each added edge once even if several bags cover it.
        let mut h = g.clone();
        let mut added = 0usize;
        for b in bags {
            added += h.saturate(b);
        }
        CostValue::from_usize(added)
    }

    fn combine(
        &self,
        g: &Graph,
        _scope: &VertexSet,
        omega: &VertexSet,
        children: &[ChildSolution<'_>],
    ) -> CostValue {
        // fill(assembled) = fill(Ω) + Σ_i (fill_i − fill(S_i)): the fill
        // edges of child i inside S_i ⊆ Ω are exactly the ones counted twice.
        let mut cost = CostValue::from_usize(g.missing_edges_in(omega));
        for c in children {
            let overlap = CostValue::from_usize(g.missing_edges_in(c.separator));
            cost = cost.plus(c.cost).plus(CostValue::finite(-overlap.value()));
        }
        cost
    }

    fn atom_combine(&self) -> Option<AtomCombine> {
        // Fill sets of the per-atom triangulations are pairwise disjoint
        // (clique separators have no missing edges), so fill adds up.
        Some(AtomCombine::Additive)
    }

    fn label_invariant(&self) -> bool {
        true
    }
}

/// Weighted width (Furuse–Yamazaki): each bag is priced by the sum of its
/// vertex weights, and the cost of a decomposition is the maximum bag price.
#[derive(Clone, Debug)]
pub struct WeightedWidth {
    weights: Vec<f64>,
}

impl WeightedWidth {
    /// Creates the cost from per-vertex weights (one entry per vertex).
    ///
    /// # Panics
    /// Panics if any weight is NaN or negative.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "vertex weights must be finite and non-negative"
        );
        WeightedWidth { weights }
    }

    fn bag_weight(&self, bag: &VertexSet) -> f64 {
        bag.iter().map(|v| self.weights[v as usize]).sum()
    }
}

impl BagCost for WeightedWidth {
    fn name(&self) -> String {
        "weighted-width".into()
    }

    fn cost_of_bags(&self, _g: &Graph, _scope: &VertexSet, bags: &[VertexSet]) -> CostValue {
        let w = bags
            .iter()
            .map(|b| self.bag_weight(b))
            .fold(0.0f64, f64::max);
        CostValue::finite(w)
    }

    fn combine(
        &self,
        _g: &Graph,
        _scope: &VertexSet,
        omega: &VertexSet,
        children: &[ChildSolution<'_>],
    ) -> CostValue {
        let mut cost = CostValue::finite(self.bag_weight(omega));
        for c in children {
            cost = cost.max(c.cost);
        }
        cost
    }
}

/// Weighted fill-in (Furuse–Yamazaki): every added edge `{u, v}` costs
/// `w(u, v)`, and the cost of a decomposition is the total cost of the
/// edges saturating every bag adds.
#[derive(Clone, Debug)]
pub struct WeightedFillIn {
    costs: HashMap<(Vertex, Vertex), f64>,
    default: f64,
}

impl WeightedFillIn {
    /// Creates the cost with a default per-edge cost and explicit overrides.
    ///
    /// # Panics
    /// Panics if any cost is NaN or negative.
    pub fn new(default: f64, overrides: impl IntoIterator<Item = ((Vertex, Vertex), f64)>) -> Self {
        assert!(default.is_finite() && default >= 0.0);
        let mut costs = HashMap::new();
        for ((u, v), c) in overrides {
            assert!(
                c.is_finite() && c >= 0.0,
                "edge costs must be finite and non-negative"
            );
            costs.insert((u.min(v), u.max(v)), c);
        }
        WeightedFillIn { costs, default }
    }

    fn edge_cost(&self, u: Vertex, v: Vertex) -> f64 {
        *self
            .costs
            .get(&(u.min(v), u.max(v)))
            .unwrap_or(&self.default)
    }
}

impl BagCost for WeightedFillIn {
    fn name(&self) -> String {
        "weighted-fill-in".into()
    }

    fn cost_of_bags(&self, g: &Graph, _scope: &VertexSet, bags: &[VertexSet]) -> CostValue {
        let mut h = g.clone();
        let mut total = 0.0;
        for b in bags {
            let vs = b.to_vec();
            for (i, &u) in vs.iter().enumerate() {
                for &v in &vs[i + 1..] {
                    if h.add_edge(u, v) {
                        total += self.edge_cost(u, v);
                    }
                }
            }
        }
        CostValue::finite(total)
    }
}

/// The paper's lexicographic combination `|E(G)| · width + fill-in`, which
/// orders primarily by width and breaks ties by fill-in.
#[derive(Clone, Copy, Debug, Default)]
pub struct WidthThenFill;

impl BagCost for WidthThenFill {
    fn name(&self) -> String {
        "width-then-fill".into()
    }

    fn cost_of_bags(&self, g: &Graph, scope: &VertexSet, bags: &[VertexSet]) -> CostValue {
        let m = induced_edge_count(g, scope);
        let width = Width.cost_of_bags(g, scope, bags);
        let fill = FillIn.cost_of_bags(g, scope, bags);
        CostValue::finite(m as f64 * width.value() + fill.value())
    }

    fn label_invariant(&self) -> bool {
        true
    }
}

/// The junction-tree state-space cost `Σ_bags 2^|bag|` (capped to stay
/// finite), a natural cost for probabilistic inference where the work per
/// bag is exponential in the bag size.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExpBagSum;

impl BagCost for ExpBagSum {
    fn name(&self) -> String {
        "exp-bag-sum".into()
    }

    fn cost_of_bags(&self, _g: &Graph, _scope: &VertexSet, bags: &[VertexSet]) -> CostValue {
        let total: f64 = bags
            .iter()
            .map(|b| 2f64.powi(b.len().min(1000) as i32))
            .sum();
        CostValue::finite(total)
    }

    fn combine(
        &self,
        _g: &Graph,
        _scope: &VertexSet,
        omega: &VertexSet,
        children: &[ChildSolution<'_>],
    ) -> CostValue {
        let mut cost = CostValue::finite(2f64.powi(omega.len().min(1000) as i32));
        for c in children {
            cost = cost.plus(c.cost);
        }
        cost
    }

    fn label_invariant(&self) -> bool {
        true
    }
}

/// Hyperedge-cover width: each bag is priced by the minimum number of
/// hyperedges of a fixed hypergraph needed to cover it, and the cost is the
/// maximum bag price — the (generalized) hypertree-width-style cost for
/// decompositions of primal graphs of join queries.
///
/// Bags that cannot be covered at all get an infinite price.
#[derive(Clone, Debug)]
pub struct CoverWidth {
    hypergraph: Hypergraph,
}

impl CoverWidth {
    /// Creates the cost for the given hypergraph (whose primal graph is the
    /// graph being decomposed).
    pub fn new(hypergraph: Hypergraph) -> Self {
        CoverWidth { hypergraph }
    }

    fn bag_price(&self, bag: &VertexSet) -> CostValue {
        match self.hypergraph.cover_number(bag) {
            Some(k) => CostValue::from_usize(k),
            None => CostValue::INFINITE,
        }
    }
}

impl BagCost for CoverWidth {
    fn name(&self) -> String {
        "cover-width".into()
    }

    fn cost_of_bags(&self, _g: &Graph, _scope: &VertexSet, bags: &[VertexSet]) -> CostValue {
        bags.iter()
            .map(|b| self.bag_price(b))
            .fold(CostValue::ZERO, CostValue::max)
    }

    fn combine(
        &self,
        _g: &Graph,
        _scope: &VertexSet,
        omega: &VertexSet,
        children: &[ChildSolution<'_>],
    ) -> CostValue {
        let mut cost = self.bag_price(omega);
        for c in children {
            cost = cost.max(c.cost);
        }
        cost
    }
}

/// A non-negative linear combination of other bag costs.
///
/// Sums and non-negative scalings of split-monotone bag costs are split
/// monotone, so any such combination remains exact under the optimizer.
pub struct LinearCombination {
    terms: Vec<(f64, Box<dyn BagCost>)>,
}

impl LinearCombination {
    /// Creates a combination `Σ coefficient · cost`.
    ///
    /// # Panics
    /// Panics if a coefficient is negative or NaN.
    pub fn new(terms: Vec<(f64, Box<dyn BagCost>)>) -> Self {
        assert!(
            terms.iter().all(|(c, _)| c.is_finite() && *c >= 0.0),
            "coefficients must be finite and non-negative"
        );
        LinearCombination { terms }
    }
}

impl BagCost for LinearCombination {
    fn name(&self) -> String {
        let parts: Vec<String> = self
            .terms
            .iter()
            .map(|(c, k)| format!("{c}*{}", k.name()))
            .collect();
        parts.join(" + ")
    }

    fn cost_of_bags(&self, g: &Graph, scope: &VertexSet, bags: &[VertexSet]) -> CostValue {
        let mut total = 0.0;
        for (c, k) in &self.terms {
            let v = k.cost_of_bags(g, scope, bags);
            if v.is_infinite() {
                return CostValue::INFINITE;
            }
            total += c * v.value();
        }
        CostValue::finite(total)
    }

    fn label_invariant(&self) -> bool {
        self.terms.iter().all(|(_, k)| k.label_invariant())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtr_graph::paper_example_graph;

    /// Bags of the clique tree T1 of the paper: {u,w1,w2,w3}, {v,w1,w2,w3}, {v,v'}.
    fn t1_bags() -> Vec<VertexSet> {
        vec![
            VertexSet::from_slice(6, &[0, 3, 4, 5]),
            VertexSet::from_slice(6, &[1, 3, 4, 5]),
            VertexSet::from_slice(6, &[1, 2]),
        ]
    }

    /// Bags of the clique tree T2: {u,v,w1}, {u,v,w2}, {u,v,w3}, {v,v'}.
    fn t2_bags() -> Vec<VertexSet> {
        vec![
            VertexSet::from_slice(6, &[0, 1, 3]),
            VertexSet::from_slice(6, &[0, 1, 4]),
            VertexSet::from_slice(6, &[0, 1, 5]),
            VertexSet::from_slice(6, &[1, 2]),
        ]
    }

    #[test]
    fn width_of_paper_decompositions() {
        let g = paper_example_graph();
        let scope = g.vertex_set();
        assert_eq!(
            Width.cost_of_bags(&g, &scope, &t1_bags()),
            CostValue::from_usize(3)
        );
        assert_eq!(
            Width.cost_of_bags(&g, &scope, &t2_bags()),
            CostValue::from_usize(2)
        );
    }

    #[test]
    fn fill_of_paper_decompositions() {
        let g = paper_example_graph();
        let scope = g.vertex_set();
        assert_eq!(
            FillIn.cost_of_bags(&g, &scope, &t1_bags()),
            CostValue::from_usize(3)
        );
        assert_eq!(
            FillIn.cost_of_bags(&g, &scope, &t2_bags()),
            CostValue::from_usize(1)
        );
    }

    #[test]
    fn width_then_fill_orders_lexicographically() {
        let g = paper_example_graph();
        let scope = g.vertex_set();
        let c1 = WidthThenFill.cost_of_bags(&g, &scope, &t1_bags());
        let c2 = WidthThenFill.cost_of_bags(&g, &scope, &t2_bags());
        // T2 has smaller width, so it must win despite having nonzero fill.
        assert!(c2 < c1);
        assert_eq!(c1, CostValue::finite(7.0 * 3.0 + 3.0));
        assert_eq!(c2, CostValue::finite(7.0 * 2.0 + 1.0));
    }

    #[test]
    fn weighted_width_uses_vertex_weights() {
        let g = paper_example_graph();
        let scope = g.vertex_set();
        // Make w1, w2, w3 heavy so T1 (which groups them with u or v) is
        // penalized.
        let w = WeightedWidth::new(vec![1.0, 1.0, 1.0, 10.0, 10.0, 10.0]);
        let c1 = w.cost_of_bags(&g, &scope, &t1_bags());
        let c2 = w.cost_of_bags(&g, &scope, &t2_bags());
        assert_eq!(c1, CostValue::finite(31.0));
        assert_eq!(c2, CostValue::finite(12.0));
        assert!(c2 < c1);
    }

    #[test]
    fn weighted_fill_in_respects_edge_costs() {
        let g = paper_example_graph();
        let scope = g.vertex_set();
        // Make the edge {u, v} = (0, 1) very expensive: T2 becomes costly.
        let k = WeightedFillIn::new(1.0, vec![((0, 1), 100.0)]);
        let c1 = k.cost_of_bags(&g, &scope, &t1_bags());
        let c2 = k.cost_of_bags(&g, &scope, &t2_bags());
        assert_eq!(c1, CostValue::finite(3.0));
        assert_eq!(c2, CostValue::finite(100.0));
        assert!(c1 < c2);
    }

    #[test]
    fn exp_bag_sum() {
        let g = paper_example_graph();
        let scope = g.vertex_set();
        let c1 = ExpBagSum.cost_of_bags(&g, &scope, &t1_bags());
        let c2 = ExpBagSum.cost_of_bags(&g, &scope, &t2_bags());
        assert_eq!(c1, CostValue::finite(16.0 + 16.0 + 4.0));
        assert_eq!(c2, CostValue::finite(8.0 * 3.0 + 4.0));
        assert!(c2 < c1);
    }

    #[test]
    fn cover_width_on_primal_graph() {
        // Query R(u,w1), S(u,w2), T(u,w3), U(v,w1), V(v,w2), W(v,w3), X(v,v').
        let h = Hypergraph::from_edges(
            6,
            &[
                &[0, 3],
                &[0, 4],
                &[0, 5],
                &[1, 3],
                &[1, 4],
                &[1, 5],
                &[1, 2],
            ],
        );
        let g = h.primal_graph();
        assert_eq!(g, paper_example_graph());
        let k = CoverWidth::new(h);
        let scope = g.vertex_set();
        // T1's big bags need 3 binary hyperedges each; T2's bags need 2.
        assert_eq!(
            k.cost_of_bags(&g, &scope, &t1_bags()),
            CostValue::from_usize(3)
        );
        assert_eq!(
            k.cost_of_bags(&g, &scope, &t2_bags()),
            CostValue::from_usize(2)
        );
    }

    #[test]
    fn cover_width_uncoverable_bag_is_infinite() {
        let h = Hypergraph::from_edges(3, &[&[0, 1]]);
        let k = CoverWidth::new(h);
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let bags = vec![VertexSet::from_slice(3, &[1, 2])];
        assert!(k.cost_of_bags(&g, &g.vertex_set(), &bags).is_infinite());
    }

    #[test]
    fn linear_combination() {
        let g = paper_example_graph();
        let scope = g.vertex_set();
        let combo = LinearCombination::new(vec![
            (10.0, Box::new(Width) as Box<dyn BagCost>),
            (1.0, Box::new(FillIn)),
        ]);
        assert_eq!(
            combo.cost_of_bags(&g, &scope, &t1_bags()),
            CostValue::finite(33.0)
        );
        assert_eq!(
            combo.cost_of_bags(&g, &scope, &t2_bags()),
            CostValue::finite(21.0)
        );
        assert!(combo.name().contains("width"));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        WeightedWidth::new(vec![-1.0]);
    }

    #[test]
    fn label_invariance_declarations() {
        assert!(Width.label_invariant());
        assert!(FillIn.label_invariant());
        assert!(WidthThenFill.label_invariant());
        assert!(ExpBagSum.label_invariant());
        // Vertex-identity-dependent costs must stay opted out.
        assert!(!WeightedWidth::new(vec![1.0]).label_invariant());
        assert!(!WeightedFillIn::new(1.0, vec![]).label_invariant());
        let clean = LinearCombination::new(vec![
            (10.0, Box::new(Width) as Box<dyn BagCost>),
            (1.0, Box::new(FillIn)),
        ]);
        assert!(clean.label_invariant());
        let tainted = LinearCombination::new(vec![
            (1.0, Box::new(Width) as Box<dyn BagCost>),
            (1.0, Box::new(WeightedWidth::new(vec![1.0]))),
        ]);
        assert!(!tainted.label_invariant());
    }
}
