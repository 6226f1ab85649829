//! Benchmarks for enumeration modulo symmetry, on instances with large
//! automorphism groups (cycle C12, grid4x4, myciel4, and the decomposable
//! star-of-cliques) plus a random control whose group is trivial.
//!
//! * **Quotient speedup** — "give me 10 *meaningfully different* results".
//!   `modulo_distinct10` asks the engine (`--modulo-symmetry`,
//!   `max_results(10)`), which drops orbit-duplicate children before their
//!   eager re-optimization. `client_distinct10` is what a consumer must do
//!   without it: stream the default enumeration and deduplicate fill sets
//!   by automorphism orbit until 10 distinct orbits have been seen. Same
//!   deliverable, so the ratio is the honest price of post-hoc dedup.
//! * **Probe cost** — `symmetry_probe` times the automorphism probe that
//!   modulo mode pays once per session.
//!
//! Each instance logs its discovered group order and the merged counter
//! once, so the snapshot note can record how often the quotient actually
//! fires.
//!
//! Snapshot with `MTR_BENCH_JSON=BENCH_symmetry.json cargo bench -p
//! mtr-bench --bench symmetry`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtr_core::cost::FillIn;
use mtr_core::{Enumerate, SymmetryPolicy};
use mtr_graph::{Graph, Vertex};
use mtr_workloads::decomposable::star_of_cliques;
use mtr_workloads::random::gnp_connected;
use mtr_workloads::structured::{grid, mycielski};
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::time::Duration;

fn cycle(n: u32) -> Graph {
    let edges: Vec<(u32, u32)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
    Graph::from_edges(n, &edges)
}

/// The 3-dimensional hypercube Q3: |Aut| = 48, and the cheap
/// triangulations concentrate in a few large orbits.
fn hypercube3() -> Graph {
    let mut edges = vec![];
    for u in 0u32..8 {
        for b in 0..3 {
            let v = u ^ (1 << b);
            if u < v {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(8, &edges)
}

/// The hexagonal prism C6 × K2: |Aut| = 24, many orbit-duplicated
/// low-cost triangulations.
fn prism(n: u32) -> Graph {
    let mut edges: Vec<(u32, u32)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
    edges.extend((0..n).map(|u| (n + u, n + (u + 1) % n)));
    edges.extend((0..n).map(|u| (u, n + u)));
    Graph::from_edges(2 * n, &edges)
}

/// The Möbius ladder M_n: C_n plus the n/2 antipodal rungs. Few
/// triangulation orbits, so the baseline stream chews through many
/// orbit-duplicates before it has seen ten distinct ones.
fn mobius_ladder(n: u32) -> Graph {
    let mut edges: Vec<(u32, u32)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
    edges.extend((0..n / 2).map(|u| (u, u + n / 2)));
    Graph::from_edges(n, &edges)
}

/// The Paley graph on GF(q), q prime: u ~ v iff v - u is a quadratic
/// residue. Self-complementary and arc-transitive; its minimal
/// triangulations fall into a handful of large orbits.
fn paley(q: u32) -> Graph {
    let residues: HashSet<u32> = (1..q).map(|x| (x * x) % q).collect();
    let mut edges = vec![];
    for u in 0..q {
        for v in u + 1..q {
            if residues.contains(&(v - u)) || residues.contains(&(q - (v - u))) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(q, &edges)
}

fn instances() -> Vec<(&'static str, Graph)> {
    vec![
        ("cycle12", cycle(12)),
        ("grid4x4", grid(4, 4)),
        ("myciel4", mycielski(4)),
        ("q3", hypercube3()),
        ("prism6", prism(6)),
        ("mobius14", mobius_ladder(14)),
        ("paley13", paley(13)),
        ("star_of_cliques", star_of_cliques(4, 4, 2)),
        // Control: a seeded random graph with a trivial automorphism
        // group, so full mode pays exactly one failed probe.
        ("gnp20_020", gnp_connected(20, 0.20, 7)),
    ]
}

/// Canonical representative of a fill set's orbit under `generators` —
/// the client-side dedup a consumer needs to get "distinct up to
/// symmetry" out of the baseline stream.
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
            if seen.insert(img.clone()) {
                if img < best {
                    best = img.clone();
                }
                frontier.push(img);
            }
        }
    }
    best
}

/// Ten orbit-distinct results the hard way: stream the default
/// enumeration and deduplicate client-side.
fn client_distinct_10(g: &Graph) -> usize {
    let generators = g.automorphisms().generators().to_vec();
    let mut orbits: HashSet<Vec<(u32, u32)>> = HashSet::new();
    Enumerate::on(g)
        .cost(&FillIn)
        .drive(|r| {
            let fill = {
                let mut f = g.fill_edges_of(&r.triangulation);
                f.sort_unstable();
                f
            };
            orbits.insert(canonical_fill(&generators, &fill));
            if orbits.len() >= 10 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .expect("session is well-configured");
    orbits.len()
}

/// Ten orbit-distinct results the engine's way.
fn modulo_distinct_10(g: &Graph) -> usize {
    Enumerate::on(g)
        .cost(&FillIn)
        .max_results(10)
        .symmetry(SymmetryPolicy::ModuloSymmetry)
        .run()
        .expect("session is well-configured")
        .results
        .len()
}

fn bench_symmetry(c: &mut Criterion) {
    let mut group = c.benchmark_group("symmetry_ranked_first_10");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for (name, g) in instances() {
        // One diagnostic run per (instance, mode): group order and how much
        // the quotient fired, for the snapshot's note.
        for (mode, policy) in [
            ("full", SymmetryPolicy::Full),
            ("modulo", SymmetryPolicy::ModuloSymmetry),
        ] {
            let run = Enumerate::on(&g)
                .cost(&FillIn)
                .max_results(10)
                .symmetry(policy)
                .run()
                .expect("session is well-configured");
            eprintln!(
                "{name}/{mode}: |Aut|={} merged={} results={} nodes_explored={}",
                run.stats.symmetry_group_order,
                run.stats.orbits_merged,
                run.results.len(),
                run.stats.nodes_explored,
            );
        }
        // Quotient rows: same deliverable (10 orbit-distinct results),
        // engine quotient vs client-side dedup of the baseline stream.
        group.bench_with_input(BenchmarkId::new("modulo_distinct10", name), &g, |b, g| {
            b.iter(|| modulo_distinct_10(g))
        });
        group.bench_with_input(BenchmarkId::new("client_distinct10", name), &g, |b, g| {
            b.iter(|| client_distinct_10(g))
        });
    }
    group.finish();

    // The probe in isolation, for the two instances where its relative
    // cost is the question: the trivial-group control, where the probe
    // finds nothing, and the star of cliques, whose huge group makes the
    // probe costly next to its tiny workload.
    let mut probe = c.benchmark_group("symmetry_probe");
    probe
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for (name, g) in instances() {
        if name != "gnp20_020" && name != "star_of_cliques" {
            continue;
        }
        probe.bench_with_input(BenchmarkId::new("automorphisms", name), &g, |b, g| {
            b.iter(|| g.automorphisms().order())
        });
    }
    probe.finish();
}

criterion_group!(benches, bench_symmetry);
criterion_main!(benches);
