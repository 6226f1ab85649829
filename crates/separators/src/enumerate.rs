//! Minimal separator enumeration.
//!
//! The paper (and the Bouchitté–Todinca machinery it generalizes) needs the
//! set `MinSep(G)` of all minimal separators. We implement the generation
//! algorithm of Berry, Bordat and Cogis (WG 1999): seed with the "close"
//! separators `N(C)` for components `C` of `G \ N[v]`, then repeatedly, for
//! an already-found separator `S` and a vertex `x ∈ S`, add `N(C)` for every
//! component `C` of `G \ (S ∪ N(x))`. The process is a fixpoint computation
//! whose total work is polynomial per produced separator.
//!
//! Each step builds the vertices left after removing `S ∪ N[x]` in one
//! scratch set and takes every `N(C)` straight from one
//! [`Graph::components_into`] pass over them, on buffers reused by every
//! step; a separator is cloned only when it is new.
//!
//! A brute-force enumerator over all vertex subsets is provided for
//! cross-validation on small graphs, together with the standard
//! characterization used by both: `S` is a minimal separator iff `G \ S` has
//! at least two components whose neighborhood is exactly `S` ("full"
//! components).

use mtr_graph::{Components, Graph, VertexSet};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// `true` iff `s` is a minimal separator of `g`.
///
/// Uses the full-component characterization: `G \ S` must have at least two
/// components `C` with `N(C) = S`.
pub fn is_minimal_separator(g: &Graph, s: &VertexSet) -> bool {
    if s.is_empty() || s.len() == g.n() as usize {
        return false;
    }
    let mut full = 0;
    for c in g.components_excluding(s) {
        if g.neighborhood_of_set(&c) == *s {
            full += 1;
            if full >= 2 {
                return true;
            }
        }
    }
    false
}

/// Enumerates all minimal separators of `g` (Berry–Bordat–Cogis).
///
/// The result is returned in a deterministic order (sorted by the total
/// order on [`VertexSet`]). An optional `limit` aborts the enumeration once
/// more than `limit` separators have been found — callers use this to bound
/// work on graphs that violate the poly-MS assumption; `None` means
/// unbounded. When the limit is hit, `Err(MinSepLimitExceeded)` is returned.
pub fn minimal_separators_bounded(
    g: &Graph,
    limit: Option<usize>,
) -> Result<Vec<VertexSet>, MinSepLimitExceeded> {
    minimal_separators_with_limits(g, limit, None)
}

/// Enumerates the minimal separators of `g` under both an optional count
/// limit and an optional wall-clock budget. Exceeding either aborts with
/// [`MinSepLimitExceeded`]; the tractability experiments (Figures 5 and 7)
/// use this to mirror the paper's per-graph time limits.
pub fn minimal_separators_with_limits(
    g: &Graph,
    limit: Option<usize>,
    time_budget: Option<Duration>,
) -> Result<Vec<VertexSet>, MinSepLimitExceeded> {
    let start = Instant::now();
    let mut found: HashSet<VertexSet> = HashSet::new();
    let mut queue: Vec<VertexSet> = Vec::new();
    // Scratch reused by every step: the vertices left after removing
    // `S ∪ N[x]`, and the components of what is left.
    let all = g.vertex_set();
    let mut rest = VertexSet::empty(g.n());
    let mut comps = Components::default();

    // Pushes `N(C)` for every component `C` of `G[rest]`.
    let mut push_neighborhoods =
        |rest: &VertexSet, found: &mut HashSet<VertexSet>, queue: &mut Vec<VertexSet>| {
            g.components_into(rest, &mut comps);
            for (_, s) in comps.iter() {
                if !s.is_empty() && !found.contains(s) {
                    found.insert(s.clone());
                    queue.push(s.clone());
                }
            }
        };

    // Initialization: close separators around every vertex.
    for v in g.vertices() {
        rest.copy_from(&all);
        rest.difference_with(g.neighbors(v));
        rest.remove(v);
        push_neighborhoods(&rest, &mut found, &mut queue);
    }

    // Generation step.
    let mut popped = 0usize;
    while let Some(s) = queue.pop() {
        if let Some(limit) = limit {
            if found.len() > limit {
                return Err(MinSepLimitExceeded { limit });
            }
        }
        popped += 1;
        if popped.is_multiple_of(64) {
            if let Some(budget) = time_budget {
                if start.elapsed() > budget {
                    return Err(MinSepLimitExceeded { limit: found.len() });
                }
            }
        }
        for x in s.iter() {
            rest.copy_from(&all);
            rest.difference_with(&s);
            rest.difference_with(g.neighbors(x));
            push_neighborhoods(&rest, &mut found, &mut queue);
        }
    }

    if let Some(limit) = limit {
        if found.len() > limit {
            return Err(MinSepLimitExceeded { limit });
        }
    }
    let mut out: Vec<VertexSet> = found.into_iter().collect();
    out.sort();
    Ok(out)
}

/// Enumerates all minimal separators of `g` with no bound.
pub fn minimal_separators(g: &Graph) -> Vec<VertexSet> {
    minimal_separators_bounded(g, None).expect("unbounded enumeration cannot exceed a limit")
}

/// Error returned by [`minimal_separators_bounded`] when the separator count
/// exceeds the caller's limit (the graph is not "poly-MS manageable" at that
/// budget).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MinSepLimitExceeded {
    /// The limit that was exceeded.
    pub limit: usize,
}

impl std::fmt::Display for MinSepLimitExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "more than {} minimal separators", self.limit)
    }
}

impl std::error::Error for MinSepLimitExceeded {}

/// Brute-force minimal separator enumeration by testing every vertex subset.
///
/// Exponential; intended for cross-validating [`minimal_separators`] on
/// graphs with at most ~20 vertices in tests.
pub fn minimal_separators_bruteforce(g: &Graph) -> Vec<VertexSet> {
    let n = g.n();
    assert!(n <= 24, "brute force is limited to small graphs");
    let mut out = Vec::new();
    for mask in 0u32..(1u32 << n) {
        let s = VertexSet::from_iter(n, (0..n).filter(|&v| (mask >> v) & 1 == 1));
        if is_minimal_separator(g, &s) {
            out.push(s);
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtr_graph::paper_example_graph;

    #[test]
    fn paper_graph_has_exactly_three_minimal_separators() {
        let g = paper_example_graph();
        let seps = minimal_separators(&g);
        let expected = vec![
            VertexSet::from_slice(6, &[3, 4, 5]), // S1 = {w1, w2, w3}
            VertexSet::from_slice(6, &[0, 1]),    // S2 = {u, v}
            VertexSet::from_slice(6, &[1]),       // S3 = {v}
        ];
        assert_eq!(seps.len(), 3);
        for e in &expected {
            assert!(seps.contains(e), "missing separator {e:?}");
        }
    }

    #[test]
    fn minimal_separator_predicate() {
        let g = paper_example_graph();
        assert!(is_minimal_separator(
            &g,
            &VertexSet::from_slice(6, &[3, 4, 5])
        ));
        assert!(is_minimal_separator(&g, &VertexSet::from_slice(6, &[0, 1])));
        assert!(is_minimal_separator(&g, &VertexSet::singleton(6, 1)));
        // {u, v, w1} separates w2 from v' but is not minimal.
        assert!(!is_minimal_separator(
            &g,
            &VertexSet::from_slice(6, &[0, 1, 3])
        ));
        // The empty set and the full set are never minimal separators.
        assert!(!is_minimal_separator(&g, &VertexSet::empty(6)));
        assert!(!is_minimal_separator(&g, &VertexSet::full(6)));
    }

    #[test]
    fn matches_bruteforce_on_small_graphs() {
        let cases: Vec<Graph> = vec![
            paper_example_graph(),
            Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]), // C4
            Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), // C5
            Graph::complete(5),
            Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]), // path
            Graph::from_edges(7, &[(0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (5, 6)]), // tree
            Graph::new(4),                                                   // edgeless
        ];
        for g in cases {
            assert_eq!(
                minimal_separators(&g),
                minimal_separators_bruteforce(&g),
                "mismatch on {g:?}"
            );
        }
    }

    #[test]
    fn cycle_separators() {
        // In C_n every pair of non-adjacent vertices is a minimal separator.
        let c5 = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let seps = minimal_separators(&c5);
        assert_eq!(seps.len(), 5);
        assert!(seps.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn complete_graph_has_no_separators() {
        assert!(minimal_separators(&Graph::complete(6)).is_empty());
        assert!(minimal_separators(&Graph::new(1)).is_empty());
        assert!(minimal_separators(&Graph::new(0)).is_empty());
    }

    #[test]
    fn disconnected_graph_separators() {
        // Two triangles sharing no vertex: no separator separates within a
        // triangle, and the empty set is excluded by definition here
        // (we require at least two *full* components of G \ S with N(C)=S,
        // which the empty set does satisfy in a disconnected graph — but the
        // empty set is explicitly excluded as degenerate).
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let seps = minimal_separators(&g);
        assert!(seps.is_empty());
        // A path plus an isolated vertex still has its path separators.
        let g2 = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let seps2 = minimal_separators(&g2);
        assert_eq!(seps2, vec![VertexSet::singleton(4, 1)]);
    }

    #[test]
    fn limit_aborts_enumeration() {
        // C8 has 8*5/2 = 20 minimal separators; a limit of 5 must trip.
        let edges: Vec<(u32, u32)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
        let c8 = Graph::from_edges(8, &edges);
        assert_eq!(
            minimal_separators_bounded(&c8, Some(5)),
            Err(MinSepLimitExceeded { limit: 5 })
        );
        assert!(minimal_separators_bounded(&c8, Some(1000)).is_ok());
    }

    #[test]
    fn star_graph_center_is_only_separator() {
        let star = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let seps = minimal_separators(&star);
        assert_eq!(seps, vec![VertexSet::singleton(5, 0)]);
    }
}
