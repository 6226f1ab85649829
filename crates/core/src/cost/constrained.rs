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

use super::ChildSolution;
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

    /// The constraints inside `scope`: the ones a block over `scope`
    /// decides.
    pub(crate) fn within(&self, scope: &VertexSet) -> InScope<'_> {
        let inside = |u: &&VertexSet| u.is_subset_of(scope);
        InScope {
            include: self.include.iter().filter(inside).collect(),
            exclude: self.exclude.iter().filter(inside).collect(),
        }
    }
}

/// The constraints inside one block's scope (see the module docs).
pub(crate) struct InScope<'a> {
    include: Vec<&'a VertexSet>,
    exclude: Vec<&'a VertexSet>,
}

impl InScope<'_> {
    /// Whether the candidate `omega` with the solved `children` keeps every
    /// constraint: the rule of the module docs.
    pub(crate) fn admit(&self, omega: &VertexSet, children: &[ChildSolution<'_>]) -> bool {
        self.exclude.iter().all(|u| !u.is_subset_of(omega))
            && self.include.iter().all(|u| {
                u.is_subset_of(omega) || children.iter().any(|c| u.is_subset_of(c.vertices))
            })
    }
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
