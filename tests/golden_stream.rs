//! Golden ranked-stream digests: the exact top-25 stream of a fixed input
//! set, pinned by hash.
//!
//! The equivalence suites compare engines with each other, so a change to
//! the DP's candidate order or tie-break that moves every engine the same
//! way passes them. This suite compares against digests recorded once: any
//! change to a cost, a fill set or the order of ties fails here. A change
//! that alters a digest on purpose must say why in its change log.
//!
//! Each stream is hashed with the FNV-1a encoding of the repository
//! benchmark's stream digest (`perfbench/src/validate.rs`): the input index
//! and the stream length, then per result the cost bits, the fill length and
//! each sorted fill edge as `(u << 32) | v`, all as little-endian `u64`.

use mtr_chordal::treewidth_upper_bound;
use mtr_core::cost::{BagCost, FillIn, Width};
use mtr_core::{Enumerate, EnumerationRun, SymmetryPolicy};
use mtr_graph::Graph;
use mtr_reduce::{EnumerateReduceExt, ReductionLevel};
use mtr_workloads::decomposable::{glued_grids, gnp_with_bridges};
use mtr_workloads::random::gnp_connected;
use mtr_workloads::structured::{grid, mycielski};

/// Results per stream.
const TOP: usize = 25;

/// FNV-1a over little-endian `u64` words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn stream(&mut self, key: u64, g: &Graph, run: &EnumerationRun) {
        self.word(key);
        self.word(run.results.len() as u64);
        for r in &run.results {
            let mut fill = g.fill_edges_of(&r.triangulation);
            fill.sort_unstable();
            self.word(r.cost.value().to_bits());
            self.word(fill.len() as u64);
            for (u, v) in fill {
                self.word((u64::from(u) << 32) | u64::from(v));
            }
        }
    }
}

/// How one input is enumerated.
#[derive(Clone, Copy)]
enum Mode {
    Direct,
    /// Through the factorized engine; the input must split into atoms.
    Reduced,
    WidthBounded(usize),
    Modulo,
}

/// Two 6-cycles joined by a perfect matching.
fn prism6() -> Graph {
    let mut edges = Vec::new();
    for i in 0..6u32 {
        edges.push((i, (i + 1) % 6));
        edges.push((6 + i, 6 + (i + 1) % 6));
        edges.push((i, 6 + i));
    }
    Graph::from_edges(12, &edges)
}

/// One pinned input: its name, the graph, how it is enumerated, and the
/// digest recorded for it when this suite was added, over the fill-in
/// stream and then the width stream.
struct Golden {
    name: String,
    graph: Graph,
    mode: Mode,
    digest: &'static str,
}

fn golden(name: impl Into<String>, graph: Graph, mode: Mode, digest: &'static str) -> Golden {
    Golden {
        name: name.into(),
        graph,
        mode,
        digest,
    }
}

/// Seeded `gnp_connected(n, 0.2, seed)` draws with their digests.
const GNP_DRAWS: [(u32, u64, &str); 12] = [
    (12, 2, "ca7313504d3b80f5"),
    (12, 10, "977225ae3bdd2a51"),
    (13, 1, "6d1870a8b13d8675"),
    (13, 2, "beaa21562155003d"),
    (13, 12, "6296029ae0a0f529"),
    (14, 2, "084abe4a5fb66855"),
    (14, 8, "21665d2e959e3a59"),
    (14, 10, "45dd56260c0ea6e9"),
    (15, 5, "2dd089f657165dd5"),
    (15, 10, "c91e694ef37877f0"),
    (16, 3, "1917f5f4ed4480e5"),
    (16, 12, "46c07d9dae64f6e7"),
];

/// The pinned inputs, in input-index order.
fn inputs() -> Vec<Golden> {
    let mut inputs = vec![
        golden("grid(3,3)", grid(3, 3), Mode::Direct, "c28f8f9b3143a214"),
        golden(
            "mycielski(4)",
            mycielski(4),
            Mode::Direct,
            "748ed4f00bcf7171",
        ),
        golden("6-prism", prism6(), Mode::Direct, "83e797061d0407fe"),
    ];
    for (n, seed, digest) in GNP_DRAWS {
        inputs.push(golden(
            format!("gnp_connected({n}, 0.2, {seed})"),
            gnp_connected(n, 0.2, seed),
            Mode::Direct,
            digest,
        ));
    }
    inputs.push(golden(
        "gnp_with_bridges(3, 9, 0.3, 1)",
        gnp_with_bridges(3, 9, 0.3, 1),
        Mode::Reduced,
        "ccf2a620576d83e7",
    ));
    inputs.push(golden(
        "glued_grids(3, 3, 2)",
        glued_grids(3, 3, 2),
        Mode::Reduced,
        "5cf248b8e76d943f",
    ));
    // Bounded by a heuristic width, so the bound admits a triangulation.
    let bounded = gnp_connected(15, 0.2, 2);
    let bound = treewidth_upper_bound(&bounded).width;
    inputs.push(golden(
        format!("gnp_connected(15, 0.2, 2), width <= {bound}"),
        bounded,
        Mode::WidthBounded(bound),
        "67946a00d96ca808",
    ));
    inputs.push(golden(
        "6-prism modulo symmetry",
        prism6(),
        Mode::Modulo,
        "f82e3c5b36bf688d",
    ));
    inputs
}

fn run(g: &Graph, cost: &(dyn BagCost + Sync), mode: Mode) -> EnumerationRun {
    let session = Enumerate::on(g).cost(cost).max_results(TOP);
    let run = match mode {
        Mode::Direct => session.run(),
        Mode::Reduced => session.reduce(ReductionLevel::Full).run(),
        Mode::WidthBounded(bound) => session.width_bound(bound).run(),
        Mode::Modulo => session.symmetry(SymmetryPolicy::ModuloSymmetry).run(),
    };
    run.expect("golden sessions cannot fail")
}

#[test]
fn ranked_streams_match_recorded_digests() {
    let mut changed = Vec::new();
    for (index, input) in inputs().iter().enumerate() {
        let name = &input.name;
        let mut digest = Digest::new();
        for cost in [&FillIn as &(dyn BagCost + Sync), &Width] {
            let run = run(&input.graph, cost, input.mode);
            assert!(
                run.results.len() >= 2,
                "{name}, {}: {} results; a golden stream needs at least 2",
                cost.name(),
                run.results.len()
            );
            if matches!(input.mode, Mode::Reduced) {
                assert!(run.stats.atoms >= 2, "{name} must split into atoms");
            }
            digest.stream(index as u64, &input.graph, &run);
        }
        let got = format!("{:016x}", digest.0);
        if got != input.digest {
            changed.push(format!("{name}: recorded {}, now {got}", input.digest));
        }
    }
    assert!(
        changed.is_empty(),
        "ranked streams changed:\n{}",
        changed.join("\n")
    );
}
