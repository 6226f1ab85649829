//! The inclusion/exclusion constraints `[I, X]` (Section 6.1, Lemma 6.2).
//!
//! The Lawler–Murty procedure reduces ranked enumeration to optimization
//! under *inclusion* and *exclusion* constraints over minimal separators:
//! every separator of `I` must be a clique of the triangulation and no
//! separator of `X` may be. The paper compiles them into the cost; here the
//! dynamic program decides them itself, from block structure alone
//! ([`crate::mintriang::min_triangulation_with`]).
//!
//! **The rule.** A candidate `Ω` of a block over `scope`, with child blocks
//! `(S_i, C_i)`, only decides the constraints `u ⊆ scope`:
//!
//! * it is skipped when an include `u` is neither `⊆ Ω` nor `⊆ S_i ∪ C_i`
//!   for any child;
//! * it is skipped when an exclude `u` has `u ⊆ Ω`.
//!
//! **Its precondition.** Each child's stored winner already satisfies
//! every constraint inside that child's scope — which the program
//! guarantees, since it never stores a skipped candidate.
//!
//! **Why it is exact.** Two vertices in different components of
//! `scope ∖ Ω` share no edge and no bag, and neither do a vertex of `C_i`
//! and one of `Ω ∖ S_i`. So `u` is a clique of the assembled triangulation
//! exactly when `u ⊆ Ω`, or when `u` lies in one child, which has already
//! decided it. Constraints not inside `scope` are left to the blocks above.
//!
//! **Where it runs.** The rule depends only on the separator and the
//! candidate, never on the costs, so it is evaluated once per separator
//! and candidate ([`Constraints::keeps`]) into two bitsets over all
//! candidates: the candidates that keep the separator as an include, and
//! those that keep it as an exclude. `Preprocessed` builds them for each
//! minimal separator on first use and keeps them; a solve intersects the
//! bitsets of its constraints and visits only the candidates left. A
//! constraint that is not one of the indexed minimal separators gets its
//! bitsets built for that solve, by the same rule.

use mtr_graph::{Graph, VertexSet};

/// A set of inclusion/exclusion constraints over minimal separators.
#[derive(Clone, Debug, Default)]
pub struct Constraints {
    /// Separators that must be cliques of (i.e. minimal separators of) the
    /// triangulation.
    pub include: Vec<VertexSet>,
    /// Separators that must *not* be cliques of the triangulation.
    pub exclude: Vec<VertexSet>,
}

impl Constraints {
    /// The empty constraint set (satisfied by every triangulation).
    pub fn none() -> Self {
        Constraints::default()
    }

    /// Creates a constraint set from inclusion and exclusion lists.
    pub fn new(include: Vec<VertexSet>, exclude: Vec<VertexSet>) -> Self {
        Constraints { include, exclude }
    }

    /// `true` when there are no constraints at all.
    pub fn is_empty(&self) -> bool {
        self.include.is_empty() && self.exclude.is_empty()
    }

    /// Checks whether a *complete* triangulation `h` of `g` satisfies the
    /// constraints, in the sense of line 12 of the enumeration algorithm:
    /// every inclusion separator is a clique of `h` and every exclusion
    /// separator is not.
    pub fn satisfied_by_graph(&self, h: &Graph) -> bool {
        self.include.iter().all(|u| h.is_clique(u)) && self.exclude.iter().all(|u| !h.is_clique(u))
    }

    /// Whether a candidate `omega` of a block over `scope`, whose child
    /// blocks have the vertex sets `children`, keeps the separator `u` as
    /// an include and as an exclude: the rule of the module docs.
    pub(crate) fn keeps<'a>(
        u: &VertexSet,
        scope: &VertexSet,
        omega: &VertexSet,
        mut children: impl Iterator<Item = &'a VertexSet>,
    ) -> Keeps {
        if !u.is_subset_of(scope) {
            return Keeps {
                include: true,
                exclude: true,
            };
        }
        let in_omega = u.is_subset_of(omega);
        Keeps {
            include: in_omega || children.any(|c| u.is_subset_of(c)),
            exclude: !in_omega,
        }
    }
}

/// How one candidate decides one separator (see [`Constraints::keeps`]).
pub(crate) struct Keeps {
    /// The candidate keeps the separator as an include.
    pub(crate) include: bool,
    /// The candidate keeps the separator as an exclude.
    pub(crate) exclude: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtr_graph::paper_example_graph;

    #[test]
    fn satisfied_by_graph_matches_definition() {
        let g = paper_example_graph();
        let mut h1 = g.clone();
        h1.add_edge(3, 4);
        h1.add_edge(3, 5);
        h1.add_edge(4, 5);
        let mut h2 = g.clone();
        h2.add_edge(0, 1);
        let s1 = VertexSet::from_slice(6, &[3, 4, 5]);
        let s2 = VertexSet::from_slice(6, &[0, 1]);
        let require_s1 = Constraints::new(vec![s1.clone()], vec![]);
        assert!(require_s1.satisfied_by_graph(&h1));
        assert!(!require_s1.satisfied_by_graph(&h2));
        let forbid_s2 = Constraints::new(vec![], vec![s2]);
        assert!(forbid_s2.satisfied_by_graph(&h1));
        assert!(!forbid_s2.satisfied_by_graph(&h2));
        let both = Constraints::new(vec![s1], vec![VertexSet::from_slice(6, &[0, 1])]);
        assert!(both.satisfied_by_graph(&h1));
        assert!(!both.satisfied_by_graph(&h2));
    }
}
