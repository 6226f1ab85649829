//! Enumeration modulo symmetry must be a sound quotient of the full stream.
//!
//! Modulo mode quotients the stream to one representative per automorphism
//! orbit of minimal triangulations. The representatives must be pairwise
//! orbit-inequivalent, orbit-complete (every baseline result is an
//! automorphism image of some emitted representative), and each
//! representative must be cheapest in its orbit (equivalently: it is the
//! first member of its orbit the baseline stream would have emitted). The
//! baseline is the default, full stream, which runs no automorphism probe.

mod common;

use common::{arbitrary_graph, fill_key};
use mtr_core::cost::{CostValue, FillIn};
use mtr_core::{BagCost, CancelFlag, Enumerate, EnumerationRun, StopReason, SymmetryPolicy};
use mtr_graph::{Graph, Vertex};
use mtr_reduce::{EnumerateReduceExt, ReductionLevel};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn run(
    g: &Graph,
    cost: &(dyn BagCost + Sync),
    threads: usize,
    level: ReductionLevel,
    symmetry: SymmetryPolicy,
    k: Option<usize>,
) -> EnumerationRun {
    let mut session = Enumerate::on(g)
        .cost(cost)
        .threads(threads)
        .symmetry(symmetry);
    if let Some(k) = k {
        session = session.max_results(k);
    }
    session
        .reduce(level)
        .run()
        .expect("session cannot fail on a plain graph")
}

/// The full ranked sequence, in emission order, identified by fill set.
fn fill_sequence(g: &Graph, run: &EnumerationRun) -> Vec<Vec<(u32, u32)>> {
    run.results
        .iter()
        .map(|r| fill_key(g, &r.triangulation))
        .collect()
}

/// Canonical representative (lexicographic minimum) of the orbit of a fill
/// set under the generators of the discovered automorphism group — two
/// fill sets are automorphism-equivalent iff their canonical forms agree.
/// BFS over generator images; test graphs are small enough that no orbit
/// comes near the safety cap.
fn canonical_fill(generators: &[Vec<Vertex>], fill: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut start = fill.to_vec();
    start.sort_unstable();
    let mut best = start.clone();
    let mut seen: HashSet<Vec<(u32, u32)>> = HashSet::new();
    seen.insert(start.clone());
    let mut frontier = vec![start];
    while let Some(cur) = frontier.pop() {
        for sigma in generators {
            let mut img: Vec<(u32, u32)> = cur
                .iter()
                .map(|&(u, v)| {
                    let (a, b) = (sigma[u as usize], sigma[v as usize]);
                    (a.min(b), a.max(b))
                })
                .collect();
            img.sort_unstable();
            if !seen.contains(&img) {
                assert!(seen.len() < 100_000, "orbit closure blew the test cap");
                if img < best {
                    best = img.clone();
                }
                seen.insert(img.clone());
                frontier.push(img);
            }
        }
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Modulo mode is a sound quotient of the baseline stream: the
    /// representatives are pairwise orbit-inequivalent, every baseline
    /// result maps into some emitted representative (orbit-completeness),
    /// and each representative is the cheapest member of its orbit.
    #[test]
    fn modulo_symmetry_quotients_soundly(g in arbitrary_graph(3, 7)) {
        let baseline = run(&g, &FillIn, 1, ReductionLevel::Off, SymmetryPolicy::Full, None);
        let quotient = run(
            &g,
            &FillIn,
            1,
            ReductionLevel::Off,
            SymmetryPolicy::ModuloSymmetry,
            None,
        );
        let aut = g.automorphisms();
        let gens = aut.generators();
        let rep_keys: Vec<Vec<(u32, u32)>> = fill_sequence(&g, &quotient)
            .iter()
            .map(|f| canonical_fill(gens, f))
            .collect();
        let distinct: HashSet<&Vec<(u32, u32)>> = rep_keys.iter().collect();
        prop_assert_eq!(
            distinct.len(),
            rep_keys.len(),
            "representatives must be pairwise orbit-inequivalent"
        );
        // Cheapest cost per orbit across the full stream.
        let mut orbit_min: HashMap<Vec<(u32, u32)>, CostValue> = HashMap::new();
        for r in &baseline.results {
            let key = canonical_fill(gens, &fill_key(&g, &r.triangulation));
            let entry = orbit_min.entry(key).or_insert(r.cost);
            if r.cost < *entry {
                *entry = r.cost;
            }
        }
        prop_assert_eq!(
            rep_keys.iter().collect::<HashSet<_>>(),
            orbit_min.keys().collect::<HashSet<_>>(),
            "every baseline orbit must be represented exactly once"
        );
        for (rep, key) in quotient.results.iter().zip(&rep_keys) {
            prop_assert_eq!(
                rep.cost, orbit_min[key],
                "each representative must be cheapest in its orbit"
            );
        }
        // The quotient stream stays ranked.
        for pair in quotient.results.windows(2) {
            prop_assert!(pair[0].cost <= pair[1].cost);
        }
    }

    /// In every mode, a `max_results` run emits exactly a prefix of the
    /// unbudgeted stream, and a pre-raised cancel flag stops a symmetric
    /// run before any result.
    #[test]
    fn budgets_and_cancel_compose_with_symmetry(g in arbitrary_graph(3, 8)) {
        for level in [ReductionLevel::Off, ReductionLevel::Full] {
            for symmetry in [SymmetryPolicy::Full, SymmetryPolicy::ModuloSymmetry] {
                let whole = run(&g, &FillIn, 1, level, symmetry, None);
                let k = (whole.results.len() / 2).max(1);
                let budgeted = run(&g, &FillIn, 1, level, symmetry, Some(k));
                let prefix: Vec<_> = fill_sequence(&g, &whole)
                    .into_iter()
                    .take(budgeted.results.len())
                    .collect();
                prop_assert_eq!(fill_sequence(&g, &budgeted), prefix);
            }
        }
        for symmetry in [SymmetryPolicy::Full, SymmetryPolicy::ModuloSymmetry] {
            let flag = CancelFlag::new();
            flag.cancel();
            let cancelled = Enumerate::on(&g)
                .cost(&FillIn)
                .symmetry(symmetry)
                .cancel_flag(flag)
                .run()
                .expect("cancellation is not an error");
            prop_assert_eq!(cancelled.stop_reason, StopReason::Cancelled);
            prop_assert!(cancelled.results.is_empty());
        }
    }
}

/// The quotient actually fires on a symmetric corpus — and the stats
/// surface it: C6 quotients 14 → 3. The default stream never probes the
/// group, so it reports the trivial order.
#[test]
fn symmetry_fires_on_symmetric_corpus() {
    let c6 = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
    let baseline = run(
        &c6,
        &FillIn,
        1,
        ReductionLevel::Off,
        SymmetryPolicy::Full,
        None,
    );
    assert_eq!(baseline.results.len(), 14);
    assert_eq!(baseline.stats.symmetry_group_order, 1);
    assert_eq!(baseline.stats.orbits_merged, 0);
    let quotient = run(
        &c6,
        &FillIn,
        1,
        ReductionLevel::Off,
        SymmetryPolicy::ModuloSymmetry,
        None,
    );
    assert_eq!(quotient.results.len(), 3, "C6 has 3 orbit classes");
    assert_eq!(quotient.stats.symmetry_group_order, 12);
    assert!(quotient.stats.orbits_merged > 0);
}
