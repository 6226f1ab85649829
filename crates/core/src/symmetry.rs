//! Enumeration modulo the automorphism group of the input graph.
//!
//! An automorphism `σ` of the input maps the Lawler–Murty partition
//! constrained by `(I, X)` bijectively onto the partition constrained by
//! `(σI, σX)`, preserving every label-invariant cost
//! ([`crate::BagCost::label_invariant`]). Under
//! [`SymmetryPolicy::ModuloSymmetry`] the stream is quotiented by pruning
//! branch generation: when a node is expanded, its branch separators are
//! grouped into orbits under the *stabilizer* of the node's committed
//! constraints, and each orbit spawns one child. Dropping the cell of
//! `S_j = σ(S_i)` (with `i < j` and `σ` fixing both constraint families) is
//! sound because any solution `T` of that cell maps to `σ⁻¹T` — same cost,
//! same orbit — which avoids `S_i` and therefore lives in a cell of index
//! `≤ i`; descending induction covers chains of drops, so the kept subtrees
//! stay orbit-complete. A result whose fill-edge set is orbit-equivalent to
//! an earlier emission is also suppressed (orbit-mates can still surface
//! inside one kept cell). The output is one cheapest representative per
//! automorphism-orbit of minimal triangulations.
//!
//! Only this mode probes the automorphism group; the default
//! [`SymmetryPolicy::Full`] stream runs the plain Lawler–Murty loop.
//!
//! Orbits are those of the *discovered* group (see
//! [`mtr_graph::AutGroup`]): a subgroup merges fewer orbits but is always
//! sound. Orbit closures (of a fill set under the generators, of a branch
//! separator under a stabilizer) are bounded by the orbit size, not the
//! group order, and capped; past the cap an object merges with fewer of
//! its orbit-mates, which is also sound.

use crate::cost::Constraints;
use mtr_graph::{Graph, Vertex, VertexSet};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Cap on the breadth-first orbit closure of one fill set (under the
/// generators) or one branch separator (under a stabilizer). The orbits
/// that arise in practice have at most group-order size (8–24 on the
/// symmetric benchmark instances); a closure that exceeds the cap stops
/// early and merges fewer orbit-mates, which is always sound.
const ORBIT_CLOSURE_CAP: usize = 512;

/// Cap on materializing the discovered group's element list at probe
/// time. Stabilizer computations filter the element list when it fits
/// (the exact stabilizer) and fall back to filtering the generators
/// otherwise (a subgroup of it — fewer merges, still sound). The
/// symmetric instances that matter here have group orders 8–48; the cap
/// only bounds the one-time probe work on combinatorially huge groups.
const GROUP_ELEMENT_CAP: usize = 512;

/// How an enumeration session treats the automorphism group of its input.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SymmetryPolicy {
    /// Enumerate every minimal triangulation (the default). No
    /// automorphism probe runs.
    #[default]
    Full,
    /// Emit one cheapest representative per automorphism-orbit of minimal
    /// triangulations, pruning orbit-duplicate branches during the search.
    /// Requires a label-invariant cost; otherwise the session silently
    /// degrades to `Full` (a non-invariant cost can rank orbit members
    /// differently, so quotienting would be lossy).
    ModuloSymmetry,
}

/// The probed symmetry context of one modulo-symmetry session: the
/// discovered generators plus summary figures for the stats surface.
#[derive(Debug)]
pub struct OrbitContext {
    generators: Vec<Vec<Vertex>>,
    /// The full element list (identity excluded) when the group order
    /// fits [`GROUP_ELEMENT_CAP`]; `None` for huge groups.
    elements: Option<Vec<Vec<Vertex>>>,
    group_order: u128,
    orbit_count: usize,
}

impl OrbitContext {
    /// Probes the discovered automorphism group of `g`. Returns `None`
    /// when the group is trivial — there is nothing to collapse, and the
    /// engines then run exactly as without the probe.
    pub fn probe(g: &Graph) -> Option<Arc<OrbitContext>> {
        let aut = g.automorphisms();
        if aut.is_trivial() {
            return None;
        }
        let elements = aut.elements(GROUP_ELEMENT_CAP).map(|els| {
            els.into_iter()
                .filter(|p| p.iter().enumerate().any(|(i, &v)| v as usize != i))
                .collect()
        });
        Some(Arc::new(OrbitContext {
            generators: aut.generators().to_vec(),
            elements,
            group_order: aut.order(),
            orbit_count: aut.orbit_count(),
        }))
    }

    /// Order of the discovered group (saturating `u128`).
    pub fn group_order(&self) -> u128 {
        self.group_order
    }

    /// Number of vertex orbits of the discovered group.
    pub fn orbit_count(&self) -> usize {
        self.orbit_count
    }

    fn apply_to_set(sigma: &[Vertex], s: &VertexSet) -> VertexSet {
        VertexSet::from_iter(s.universe(), s.iter().map(|v| sigma[v as usize]))
    }

    /// Canonical representative of the orbit of a fill-edge set. `None`
    /// when the closure exceeds the cap.
    fn canonical_fill(&self, fill: &[(u32, u32)]) -> Option<Vec<(u32, u32)>> {
        let mut start: Vec<(u32, u32)> = fill.to_vec();
        start.sort_unstable();
        // With the element list materialized the orbit minimum is a
        // single pass over the elements — no closure, no hashing. This
        // is the hot shape (it runs once per solved node in modulo
        // mode), so images are packed into edge bitsets: any fixed total
        // order yields a canonical representative, and word-wise bitset
        // comparison avoids sorting each image. The winning bitset is
        // decoded back to a pair list at the end.
        if let Some(elements) = &self.elements {
            let n = elements.first().map_or(0, Vec::len);
            let words = (n * n).div_ceil(64);
            let pack = |edges: &[(u32, u32)], sigma: Option<&[Vertex]>, out: &mut Vec<u64>| {
                out.clear();
                out.resize(words, 0);
                for &(u, v) in edges {
                    let (a, b) = match sigma {
                        Some(p) => (p[u as usize], p[v as usize]),
                        None => (u, v),
                    };
                    let idx = a.min(b) as usize * n + a.max(b) as usize;
                    out[idx / 64] |= 1u64 << (idx % 64);
                }
            };
            let mut best = Vec::new();
            pack(&start, None, &mut best);
            let mut img = Vec::new();
            for sigma in elements {
                pack(&start, Some(sigma), &mut img);
                if img < best {
                    std::mem::swap(&mut best, &mut img);
                }
            }
            let mut decoded: Vec<(u32, u32)> = Vec::with_capacity(start.len());
            for (w, bits) in best.iter().enumerate() {
                let mut bits = *bits;
                while bits != 0 {
                    let idx = w * 64 + bits.trailing_zeros() as usize;
                    decoded.push(((idx / n) as u32, (idx % n) as u32));
                    bits &= bits - 1;
                }
            }
            return Some(decoded);
        }
        let mut best = start.clone();
        let mut seen: HashSet<Vec<(u32, u32)>> = HashSet::new();
        seen.insert(start.clone());
        let mut frontier = vec![start];
        while let Some(cur) = frontier.pop() {
            for sigma in &self.generators {
                let mut img: Vec<(u32, u32)> = cur
                    .iter()
                    .map(|&(u, v)| {
                        let (a, b) = (sigma[u as usize], sigma[v as usize]);
                        (a.min(b), a.max(b))
                    })
                    .collect();
                img.sort_unstable();
                if !seen.contains(&img) {
                    if seen.len() >= ORBIT_CLOSURE_CAP {
                        return None;
                    }
                    if img < best {
                        best = img.clone();
                    }
                    seen.insert(img.clone());
                    frontier.push(img);
                }
            }
        }
        Some(best)
    }

    /// The (non-identity elements of the) stabilizer of a constraint
    /// configuration: the group elements fixing both constraint families
    /// setwise. Filters the materialized element list when the group was
    /// small enough to enumerate — the exact stabilizer — and falls back
    /// to filtering the generators on huge groups, which yields a
    /// subgroup of it: fewer merges, still sound.
    ///
    /// A bijection fixes a finite family setwise iff every member's image
    /// is a member, so each candidate is checked by hash membership and
    /// rejected at its first miss — this runs once per expansion on the
    /// modulo hot path, and almost every element fails on the first set.
    fn stabilizer(&self, c: &Constraints) -> Vec<&Vec<Vertex>> {
        let include: HashSet<&VertexSet> = c.include.iter().collect();
        let exclude: HashSet<&VertexSet> = c.exclude.iter().collect();
        self.elements
            .as_deref()
            .unwrap_or(&self.generators)
            .iter()
            .filter(|sigma| {
                c.include
                    .iter()
                    .all(|s| include.contains(&Self::apply_to_set(sigma, s)))
                    && c.exclude
                        .iter()
                        .all(|s| exclude.contains(&Self::apply_to_set(sigma, s)))
            })
            .collect()
    }
}

/// Order-independent hash of a constraint configuration's two families,
/// used to memoize symmetry-dead nodes. A collision merely treats an
/// alive node as dead — fewer merges, never unsoundness.
fn family_hash<'a>(
    include: impl Iterator<Item = &'a VertexSet>,
    exclude: impl Iterator<Item = &'a VertexSet>,
) -> u64 {
    let mut inc: Vec<&VertexSet> = include.collect();
    inc.sort_unstable();
    let mut exc: Vec<&VertexSet> = exclude.collect();
    exc.sort_unstable();
    let mut h = DefaultHasher::new();
    for s in inc {
        s.hash(&mut h);
    }
    // Family separator, so include/exclude splits cannot alias.
    u64::MAX.hash(&mut h);
    for s in exc {
        s.hash(&mut h);
    }
    h.finish()
}

/// Orbit-quotient bookkeeping for [`SymmetryPolicy::ModuloSymmetry`].
#[derive(Debug)]
pub(crate) struct ModuloDedup {
    ctx: Arc<OrbitContext>,
    emitted: HashSet<Vec<(u32, u32)>>,
    /// Family hashes of nodes known (or inherited) to have an empty
    /// stabilizer. Committed constraints only accumulate along a branch,
    /// so once the stabilizer dies the whole subtree below is treated as
    /// dead and skips the per-expansion element filter. This is a
    /// heuristic under-approximation — a descendant's stabilizer can in
    /// principle revive when a new separator completes a symmetric
    /// family — and therefore only ever costs merges, never soundness.
    dead: HashSet<u64>,
    /// Sibling branches merged into their stabilizer-orbit representative
    /// plus results suppressed as orbit duplicates (cumulative).
    pub(crate) merged: usize,
}

impl ModuloDedup {
    pub(crate) fn new(ctx: Arc<OrbitContext>) -> Self {
        ModuloDedup {
            ctx,
            emitted: HashSet::new(),
            dead: HashSet::new(),
            merged: 0,
        }
    }

    /// Records every child of a symmetry-dead expansion as dead. The
    /// children here must mirror the natural-order staircase the caller
    /// generates when no plan is returned: child `i` includes
    /// `seps[..i]` and excludes `seps[i]`.
    fn mark_children_dead(&mut self, parent: &Constraints, seps: &[&VertexSet]) {
        for i in 0..seps.len() {
            let include = parent.include.iter().chain(seps[..i].iter().copied());
            let exclude = parent.exclude.iter().chain(std::iter::once(seps[i]));
            self.dead.insert(family_hash(include, exclude));
        }
    }

    /// Branch plan for one node expansion: the separators reordered so
    /// that each stabilizer orbit's members are consecutive, with only
    /// the orbit representative marked `true` (spawned). `None` when
    /// nothing can merge (fewer than two separators, or an empty
    /// stabilizer) — the caller then expands in natural order.
    ///
    /// Two choices make the drops *matter*, not just be sound:
    ///
    /// * The Lawler–Murty cell structure is valid for any separator
    ///   order, and cell sizes shrink along the staircase (later cells
    ///   carry longer include prefixes). Placing orbit-mates right after
    ///   their representative puts the dropped cells as early — as
    ///   *large* — as the soundness argument allows.
    /// * The staircase prefixes still range over dropped separators, so
    ///   the kept cells keep their exact (mutually disjoint) solution
    ///   sets; dropping a cell removes its whole subtree from the search.
    pub(crate) fn branch_plan(
        &mut self,
        parent: &Constraints,
        seps: &[&VertexSet],
    ) -> Option<Vec<(usize, bool)>> {
        if seps.is_empty() {
            return None;
        }
        let parent_dead = self
            .dead
            .contains(&family_hash(parent.include.iter(), parent.exclude.iter()));
        let stab = if parent_dead {
            Vec::new()
        } else {
            self.ctx.stabilizer(parent)
        };
        if stab.is_empty() {
            self.mark_children_dead(parent, seps);
            return None;
        }
        if seps.len() < 2 {
            return None;
        }
        let mut plan = Vec::with_capacity(seps.len());
        let mut visited = vec![false; seps.len()];
        for j in 0..seps.len() {
            if visited[j] {
                continue;
            }
            visited[j] = true;
            plan.push((j, true));
            // Orbit closure of the representative under the stabilizer; a
            // capped closure stops early, merging fewer siblings (sound).
            let mut orbit: HashSet<VertexSet> = HashSet::new();
            orbit.insert(seps[j].clone());
            let mut frontier = vec![seps[j].clone()];
            while let Some(cur) = frontier.pop() {
                for sigma in &stab {
                    let img = OrbitContext::apply_to_set(sigma, &cur);
                    if !orbit.contains(&img) {
                        if orbit.len() >= ORBIT_CLOSURE_CAP {
                            frontier.clear();
                            break;
                        }
                        orbit.insert(img.clone());
                        frontier.push(img);
                    }
                }
            }
            for k in j + 1..seps.len() {
                if !visited[k] && orbit.contains(seps[k]) {
                    visited[k] = true;
                    plan.push((k, false));
                    self.merged += 1;
                }
            }
        }
        Some(plan)
    }

    /// Whether a solved result should be emitted: false when a result
    /// with an orbit-equivalent fill set was already emitted.
    pub(crate) fn admit_result(&mut self, fill: &[(u32, u32)]) -> bool {
        match self.ctx.canonical_fill(fill) {
            None => true,
            Some(key) => {
                if self.emitted.insert(key) {
                    true
                } else {
                    self.merged += 1;
                    false
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtr_graph::Graph;

    fn c6() -> Graph {
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    }

    #[test]
    fn probe_trivial_group_is_none() {
        let asym = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (2, 5)]);
        assert!(OrbitContext::probe(&asym).is_none());
        let ctx = OrbitContext::probe(&c6()).expect("C6 is symmetric");
        assert_eq!(ctx.group_order(), 12);
        assert_eq!(ctx.orbit_count(), 1);
    }

    #[test]
    fn canonical_fill_is_orbit_invariant() {
        let g = c6();
        let ctx = OrbitContext::probe(&g).unwrap();
        let elements = g.automorphisms().elements(64).unwrap();
        let fill: Vec<(u32, u32)> = vec![(0, 2), (0, 4)];
        let key = ctx.canonical_fill(&fill).unwrap();
        for sigma in &elements {
            let image: Vec<(u32, u32)> = fill
                .iter()
                .map(|&(u, v)| {
                    let (a, b) = (sigma[u as usize], sigma[v as usize]);
                    (a.min(b), a.max(b))
                })
                .collect();
            assert_eq!(ctx.canonical_fill(&image).unwrap(), key);
        }
    }

    #[test]
    fn dedup_bookkeeping() {
        let ctx = OrbitContext::probe(&c6()).unwrap();
        let mut dedup = ModuloDedup::new(ctx);
        // At the root (empty constraints) the stabilizer is the whole
        // group: the two rotated separators are siblings in one orbit and
        // spawn one child.
        let root = Constraints::new(vec![], vec![]);
        let s13 = VertexSet::from_slice(6, &[1, 3]);
        let s24 = VertexSet::from_slice(6, &[2, 4]);
        let plan = dedup.branch_plan(&root, &[&s13, &s24]);
        assert_eq!(
            plan,
            Some(vec![(0, true), (1, false)]),
            "same stabilizer orbit must merge"
        );
        assert_eq!(dedup.merged, 1);
        assert!(dedup.admit_result(&[(0, 2)]));
        assert!(!dedup.admit_result(&[(1, 3)]), "rotated fill must merge");
    }

    #[test]
    fn stabilizer_shrinks_with_committed_constraints() {
        let g = c6();
        let ctx = OrbitContext::probe(&g).unwrap();
        let s13 = VertexSet::from_slice(6, &[1, 3]);
        let s35 = VertexSet::from_slice(6, &[3, 5]);
        // Committing {0,2} kills the rotations; the surviving stabilizer
        // is the reflection through vertex 1, which cannot reach {1,3}
        // from {3,5} — both siblings must survive.
        let node = Constraints::new(vec![VertexSet::from_slice(6, &[0, 2])], vec![]);
        let mut dedup = ModuloDedup::new(ctx.clone());
        assert_eq!(
            dedup.branch_plan(&node, &[&s13, &s35]),
            Some(vec![(0, true), (1, true)]),
            "separators split by the stabilizer must both survive"
        );
        assert_eq!(dedup.merged, 0);
        // Whereas {1,5} ↔ {1,3} under that reflection (1 fixed, 0↔2,
        // 5↔3): one child.
        let s15 = VertexSet::from_slice(6, &[1, 5]);
        assert_eq!(
            dedup.branch_plan(&node, &[&s15, &s13]),
            Some(vec![(0, true), (1, false)])
        );
        assert_eq!(dedup.merged, 1);
    }
}
