//! Per-layer probes for the traced run: each layer's public entry point,
//! timed from the benchmark on one graph, along the path a session takes.

use crate::ms;
use crate::stats::{mean, Metrics};
use mtr_core::{min_triangulation, DynBagCost, Preprocessed};
use mtr_graph::Graph;
use mtr_pmc::{potential_maximal_cliques, potential_maximal_cliques_bounded};
use mtr_separators::minimal_separators;
use std::time::Instant;

pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ms(start.elapsed()))
}

/// Layer readings, one entry per probed graph.
#[derive(Default)]
pub struct Probes {
    minseps_ms: Vec<f64>,
    minseps: Vec<f64>,
    pmc_ms: Vec<f64>,
    pmc_bounded_ms: Vec<f64>,
    pmcs: Vec<f64>,
    blocks_ms: Vec<f64>,
    blocks: Vec<f64>,
    root_ms: Vec<f64>,
    automorphisms_ms: Vec<f64>,
    canonical_ms: Vec<f64>,
}

impl Probes {
    /// Probes `g` as a session with `width_bound` and `threads` would
    /// preprocess and solve it; unbounded graphs are also probed on the
    /// bounded path at their elimination width. Returns the time of the
    /// session's own preprocessing path (PMCs plus block build).
    pub fn graph(
        &mut self,
        g: &Graph,
        cost: &DynBagCost,
        width_bound: Option<usize>,
        threads: usize,
    ) -> f64 {
        let (seps, t) = time(|| minimal_separators(g));
        self.minseps_ms.push(t);
        self.minseps.push(seps.len() as f64);

        let (enumeration, pmc_ms) = match width_bound {
            Some(b) => {
                let (e, t) = time(|| potential_maximal_cliques_bounded(g, b + 1));
                self.pmc_bounded_ms.push(t);
                (e, t)
            }
            None => {
                let (e, t) = time(|| potential_maximal_cliques(g));
                self.pmc_ms.push(t);
                let upper = mtr_chordal::treewidth_upper_bound(g).width;
                let (_, bounded) = time(|| potential_maximal_cliques_bounded(g, upper + 1));
                self.pmc_bounded_ms.push(bounded);
                (e, t)
            }
        };
        self.pmcs.push(enumeration.pmcs.len() as f64);
        let (pre, blocks_ms) = time(|| {
            Preprocessed::from_parts_threaded(
                g,
                enumeration.minimal_separators,
                enumeration.pmcs,
                width_bound,
                threads,
            )
        });
        self.blocks_ms.push(blocks_ms);
        self.blocks.push(pre.full_blocks().len() as f64);
        let (_, root) = time(|| min_triangulation(&pre, cost));
        self.root_ms.push(root);
        let (_, aut) = time(|| g.automorphisms());
        self.automorphisms_ms.push(aut);
        let (_, canon) = time(|| g.canonical_form());
        self.canonical_ms.push(canon);
        pmc_ms + blocks_ms
    }

    /// Per-graph means.
    pub fn report(&self, m: &mut Metrics) {
        m.set("pmc.minseps_ms", mean(&self.minseps_ms), "ms");
        m.set("pmc.minseps.count", mean(&self.minseps), "count");
        m.set("pmc.enumerate_ms", mean(&self.pmc_ms), "ms");
        m.set("pmc.enumerate_bounded_ms", mean(&self.pmc_bounded_ms), "ms");
        m.set("pmc.count", mean(&self.pmcs), "count");
        m.set("core.prepare.blocks_ms", mean(&self.blocks_ms), "ms");
        m.set("core.prepare.blocks.count", mean(&self.blocks), "count");
        m.set("core.dp.root_solve_ms", mean(&self.root_ms), "ms");
        m.set("graph.automorphisms_ms", mean(&self.automorphisms_ms), "ms");
        m.set("graph.canonical_ms", mean(&self.canonical_ms), "ms");
    }
}
