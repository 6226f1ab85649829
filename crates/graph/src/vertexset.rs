//! Dense bitset over the vertices of a fixed universe `0..n`.
//!
//! Every algorithm in this workspace (minimal separators, blocks, potential
//! maximal cliques, bags of tree decompositions) manipulates subsets of the
//! vertex set of one host graph. [`VertexSet`] is the shared representation:
//! a heap-allocated bitset whose universe size is fixed at construction.
//!
//! Operations between two sets require the same universe size; this is
//! checked with `debug_assert!` so release builds pay no cost.

use std::fmt;
use std::hash::{Hash, Hasher};

/// A vertex is a dense index into the host graph's vertex range `0..n`.
pub type Vertex = u32;

const BITS: usize = 64;

/// A set of vertices of a fixed universe `0..universe()`.
///
/// The set is backed by `⌈n/64⌉` machine words. Cloning is an allocation;
/// the enumeration algorithms reuse scratch sets where that matters.
#[derive(Clone, PartialEq, Eq)]
pub struct VertexSet {
    universe: u32,
    words: Box<[u64]>,
}

#[inline]
fn word_count(universe: u32) -> usize {
    (universe as usize).div_ceil(BITS)
}

impl VertexSet {
    /// Creates an empty set over the universe `0..universe`.
    pub fn empty(universe: u32) -> Self {
        VertexSet {
            universe,
            words: vec![0u64; word_count(universe)].into_boxed_slice(),
        }
    }

    /// Creates the full set `{0, …, universe-1}`.
    pub fn full(universe: u32) -> Self {
        let mut s = Self::empty(universe);
        if let Some((last, rest)) = s.words.split_last_mut() {
            for w in rest {
                *w = !0u64;
            }
            let tail = universe as usize % BITS;
            *last = if tail == 0 { !0u64 } else { (1u64 << tail) - 1 };
        }
        s
    }

    /// Creates a singleton set `{v}`.
    pub fn singleton(universe: u32, v: Vertex) -> Self {
        let mut s = Self::empty(universe);
        s.insert(v);
        s
    }

    /// Builds a set from an iterator of vertices.
    pub fn from_iter<I: IntoIterator<Item = Vertex>>(universe: u32, iter: I) -> Self {
        let mut s = Self::empty(universe);
        for v in iter {
            s.insert(v);
        }
        s
    }

    /// Builds a set from a slice of vertices.
    pub fn from_slice(universe: u32, vs: &[Vertex]) -> Self {
        Self::from_iter(universe, vs.iter().copied())
    }

    /// The size of the universe this set ranges over.
    #[inline]
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// Number of vertices in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` when the set has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: Vertex) -> bool {
        debug_assert!(
            v < self.universe,
            "vertex {v} outside universe {}",
            self.universe
        );
        let (w, b) = (v as usize / BITS, v as usize % BITS);
        (self.words[w] >> b) & 1 == 1
    }

    /// Inserts a vertex; returns `true` if it was newly added.
    #[inline]
    pub fn insert(&mut self, v: Vertex) -> bool {
        debug_assert!(
            v < self.universe,
            "vertex {v} outside universe {}",
            self.universe
        );
        let (w, b) = (v as usize / BITS, v as usize % BITS);
        let had = (self.words[w] >> b) & 1 == 1;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes a vertex; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, v: Vertex) -> bool {
        debug_assert!(
            v < self.universe,
            "vertex {v} outside universe {}",
            self.universe
        );
        let (w, b) = (v as usize / BITS, v as usize % BITS);
        let had = (self.words[w] >> b) & 1 == 1;
        self.words[w] &= !(1 << b);
        had
    }

    /// Overwrites this set with the contents of `other` (same universe)
    /// without reallocating — the cheap path for scratch-set reuse.
    #[inline]
    pub fn copy_from(&mut self, other: &VertexSet) {
        debug_assert_eq!(self.universe, other.universe);
        self.words.copy_from_slice(&other.words);
    }

    /// Removes all vertices.
    pub fn clear(&mut self) {
        for w in self.words.iter_mut() {
            *w = 0;
        }
    }

    /// In-place union.
    #[inline]
    pub fn union_with(&mut self, other: &VertexSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
    }

    /// In-place intersection.
    #[inline]
    pub fn intersect_with(&mut self, other: &VertexSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= *b;
        }
    }

    /// In-place set difference (`self \ other`).
    #[inline]
    pub fn difference_with(&mut self, other: &VertexSet) {
        debug_assert_eq!(self.universe, other.universe);
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !*b;
        }
    }

    /// Returns the union as a new set.
    pub fn union(&self, other: &VertexSet) -> VertexSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns the intersection as a new set.
    pub fn intersection(&self, other: &VertexSet) -> VertexSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns the set difference `self \ other` as a new set.
    pub fn difference(&self, other: &VertexSet) -> VertexSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// Returns the complement within the universe.
    pub fn complement(&self) -> VertexSet {
        let mut s = Self::empty(self.universe);
        for (i, (a, b)) in s.words.iter_mut().zip(self.words.iter()).enumerate() {
            *a = !*b;
            // Mask off bits beyond the universe in the last word.
            let base = i * BITS;
            if base + BITS > self.universe as usize {
                let valid = self.universe as usize - base;
                if valid == 0 {
                    *a = 0;
                } else if valid < BITS {
                    *a &= (1u64 << valid) - 1;
                }
            }
        }
        s
    }

    /// `true` iff the two sets share no vertex.
    #[inline]
    pub fn is_disjoint(&self, other: &VertexSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & b == 0)
    }

    /// `true` iff `self ⊆ other`.
    #[inline]
    pub fn is_subset_of(&self, other: &VertexSet) -> bool {
        debug_assert_eq!(self.universe, other.universe);
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// `true` iff `self ⊆ other` and `self ≠ other`.
    pub fn is_proper_subset_of(&self, other: &VertexSet) -> bool {
        self.is_subset_of(other) && self != other
    }

    /// `true` iff `self ⊇ other`.
    #[inline]
    pub fn is_superset_of(&self, other: &VertexSet) -> bool {
        other.is_subset_of(self)
    }

    /// Number of vertices in the intersection, without materializing it.
    #[inline]
    pub fn intersection_len(&self, other: &VertexSet) -> usize {
        debug_assert_eq!(self.universe, other.universe);
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// `true` iff the intersection is non-empty.
    #[inline]
    pub fn intersects(&self, other: &VertexSet) -> bool {
        !self.is_disjoint(other)
    }

    /// The smallest vertex of the set, if any. (Named to avoid clashing with `Ord::min`.)
    pub fn min_vertex(&self) -> Option<Vertex> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some((i * BITS + w.trailing_zeros() as usize) as Vertex);
            }
        }
        None
    }

    /// The largest vertex of the set, if any.
    pub fn max_vertex(&self) -> Option<Vertex> {
        for (i, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some((i * BITS + (BITS - 1 - w.leading_zeros() as usize)) as Vertex);
            }
        }
        None
    }

    /// Returns a copy of this set embedded into a (possibly larger) universe.
    ///
    /// Panics if any member would fall outside the new universe.
    pub fn resized(&self, new_universe: u32) -> VertexSet {
        let mut s = VertexSet::empty(new_universe);
        for v in self.iter() {
            assert!(
                v < new_universe,
                "vertex {v} does not fit in universe {new_universe}"
            );
            s.insert(v);
        }
        s
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> VertexSetIter<'_> {
        VertexSetIter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Collects the members into a sorted `Vec`.
    pub fn to_vec(&self) -> Vec<Vertex> {
        self.iter().collect()
    }
}

impl Default for VertexSet {
    /// The empty set over the empty universe, a placeholder for scratch
    /// sets that are sized on first use.
    fn default() -> Self {
        VertexSet::empty(0)
    }
}

impl fmt::Debug for VertexSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl Hash for VertexSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The universe is implied by context (one host graph per computation),
        // so only the word content participates in the hash.
        self.words.hash(state);
    }
}

impl PartialOrd for VertexSet {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for VertexSet {
    /// Lexicographic order on the word representation. This is an arbitrary
    /// but total order, used only to canonicalize collections of sets.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.words
            .iter()
            .cmp(other.words.iter())
            .then(self.universe.cmp(&other.universe))
    }
}

/// Iterator over the members of a [`VertexSet`] in increasing order.
pub struct VertexSetIter<'a> {
    set: &'a VertexSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for VertexSetIter<'_> {
    type Item = Vertex;

    fn next(&mut self) -> Option<Vertex> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some((self.word_idx * BITS + bit) as Vertex);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a VertexSet {
    type Item = Vertex;
    type IntoIter = VertexSetIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = VertexSet::empty(70);
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        let f = VertexSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(f.contains(0));
        assert!(f.contains(69));
        assert_eq!(f.complement(), e);
        assert_eq!(e.complement(), f);
    }

    #[test]
    fn full_is_exact_at_word_boundaries() {
        // The word-filling fast path must match bit-by-bit construction
        // exactly around the 64-bit word boundary.
        for n in [0u32, 1, 63, 64, 65, 127, 128, 129] {
            let fast = VertexSet::full(n);
            let slow = VertexSet::from_iter(n, 0..n);
            assert_eq!(fast, slow, "universe {n}");
            assert_eq!(fast.len(), n as usize, "universe {n}");
            if n > 0 {
                assert!(fast.contains(0));
                assert!(fast.contains(n - 1));
            }
            assert!(fast.complement().is_empty(), "universe {n}");
            // No stray bits beyond the universe: the complement within a
            // larger embedding must contain exactly the missing vertices.
            let resized = fast.resized(n + 64);
            assert_eq!(resized.len(), n as usize);
        }
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let a = VertexSet::from_slice(130, &[0, 64, 129]);
        let mut b = VertexSet::from_slice(130, &[5, 6, 7]);
        b.copy_from(&a);
        assert_eq!(a, b);
        assert_eq!(b.to_vec(), vec![0, 64, 129]);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = VertexSet::empty(130);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.insert(127));
        assert!(s.insert(128));
        assert!(s.contains(5));
        assert!(s.contains(127));
        assert!(s.contains(128));
        assert!(!s.contains(6));
        assert_eq!(s.len(), 3);
        assert!(s.remove(127));
        assert!(!s.remove(127));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_algebra() {
        let a = VertexSet::from_slice(10, &[1, 2, 3, 4]);
        let b = VertexSet::from_slice(10, &[3, 4, 5, 6]);
        assert_eq!(a.union(&b).to_vec(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(a.intersection(&b).to_vec(), vec![3, 4]);
        assert_eq!(a.difference(&b).to_vec(), vec![1, 2]);
        assert_eq!(b.difference(&a).to_vec(), vec![5, 6]);
        assert_eq!(a.intersection_len(&b), 2);
        assert!(a.intersects(&b));
        assert!(!a.is_disjoint(&b));
        let c = VertexSet::from_slice(10, &[7, 8]);
        assert!(a.is_disjoint(&c));
    }

    #[test]
    fn subset_relations() {
        let a = VertexSet::from_slice(10, &[1, 2]);
        let b = VertexSet::from_slice(10, &[1, 2, 3]);
        assert!(a.is_subset_of(&b));
        assert!(a.is_proper_subset_of(&b));
        assert!(b.is_superset_of(&a));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(!a.is_proper_subset_of(&a));
    }

    #[test]
    fn complement_respects_universe_boundary() {
        // Universe 65 exercises the partially-filled last word.
        let s = VertexSet::from_slice(65, &[0, 64]);
        let c = s.complement();
        assert_eq!(c.len(), 63);
        assert!(!c.contains(0));
        assert!(!c.contains(64));
        assert!(c.contains(1));
        assert!(c.contains(63));
    }

    #[test]
    fn iteration_order_and_minmax() {
        let s = VertexSet::from_slice(200, &[150, 3, 64, 65, 199]);
        assert_eq!(s.to_vec(), vec![3, 64, 65, 150, 199]);
        assert_eq!(s.min_vertex(), Some(3));
        assert_eq!(s.max_vertex(), Some(199));
        assert_eq!(VertexSet::empty(5).min_vertex(), None);
        assert_eq!(VertexSet::empty(5).max_vertex(), None);
    }

    #[test]
    fn singleton_and_resize() {
        let s = VertexSet::singleton(8, 3);
        assert_eq!(s.to_vec(), vec![3]);
        let bigger = s.resized(100);
        assert_eq!(bigger.universe(), 100);
        assert_eq!(bigger.to_vec(), vec![3]);
    }

    #[test]
    fn ordering_is_total_and_consistent_with_eq() {
        let a = VertexSet::from_slice(10, &[1]);
        let b = VertexSet::from_slice(10, &[2]);
        let c = VertexSet::from_slice(10, &[1]);
        assert_eq!(a.cmp(&c), std::cmp::Ordering::Equal);
        assert_ne!(a.cmp(&b), std::cmp::Ordering::Equal);
        let mut v = [b.clone(), a.clone()];
        v.sort();
        assert_eq!(v[0], a);
    }

    #[test]
    fn clear_resets() {
        let mut s = VertexSet::from_slice(10, &[1, 5, 9]);
        s.clear();
        assert!(s.is_empty());
    }
}
