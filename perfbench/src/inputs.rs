//! Seeded inputs. Everything a run measures is derived from `--seed`
//! through these functions, so equal seeds give equal inputs.

use crate::config::{COLD_START, RANKED_SEQ, SERVED_MIX};
use mtr_core::cost::{FillIn, Width};
use mtr_core::DynBagCost;
use mtr_graph::Graph;
use mtr_separators::minimal_separators_bounded;
use mtr_workloads::random::gnp_connected;
use mtr_workloads::structured::{dbn_like, grid, mycielski, noisy_grid};
use mtr_workloads::traffic::{self, TrafficMix, TrafficRequest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static FILL: FillIn = FillIn;
static WIDTH: Width = Width;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CostKind {
    Fill,
    Width,
}

impl CostKind {
    /// Costs alternate by position: even positions rank by fill.
    pub fn alternating(position: usize) -> CostKind {
        if position.is_multiple_of(2) {
            CostKind::Fill
        } else {
            CostKind::Width
        }
    }

    pub fn cost(self) -> &'static DynBagCost {
        match self {
            CostKind::Fill => &FILL,
            CostKind::Width => &WIDTH,
        }
    }

    /// The name the daemon's wire protocol and `named_cost` accept.
    pub fn wire_name(self) -> &'static str {
        match self {
            CostKind::Fill => "fill",
            CostKind::Width => "width",
        }
    }
}

/// One request of a direct (in-process `Enumerate::on`) workload.
pub struct DirectRequest {
    pub label: String,
    pub graph: Graph,
    pub cost: CostKind,
    pub width_bound: Option<usize>,
}

/// A stream of sub-seeds for the generators, salted per workload so two
/// workloads never draw the same graphs from one seed.
fn sub_seeds(seed: u64, salt: u64) -> impl FnMut() -> u64 {
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    move || rng.next_u64()
}

/// Nanoseconds this process spent in `draw_in_band`. Choosing inputs by
/// their separator count is the benchmark's own work, not set-up a user of
/// the program pays, so the set-up time leaves it out.
static SELECTION_NS: AtomicU64 = AtomicU64::new(0);

pub fn selection_s() -> f64 {
    SELECTION_NS.load(Ordering::Relaxed) as f64 / 1e9
}

/// The first `count` graphs from `generate` whose minimal-separator count
/// lies in `band`. The count drives PMC enumeration and the DP's block
/// count, so request cost spans 30x over unconditioned draws; holding it
/// in a band makes seeds differ in which graphs they draw, not in how hard
/// the workload is. At least four candidates per graph are tested, so the
/// set-up work barely depends on how lucky a seed's draws are.
fn draw_in_band(
    next: &mut impl FnMut() -> u64,
    count: usize,
    band: [usize; 2],
    generate: impl Fn(u64) -> Graph,
) -> Vec<Graph> {
    let start = Instant::now();
    let mut kept = Vec::with_capacity(count);
    let mut tested = 0;
    while kept.len() < count || tested < 4 * count {
        assert!(
            tested < 10_000 * count.max(1),
            "separator band {band:?} is out of reach"
        );
        tested += 1;
        let g = generate(next());
        let in_band =
            minimal_separators_bounded(&g, Some(band[1])).is_ok_and(|seps| seps.len() >= band[0]);
        if in_band && kept.len() < count {
            kept.push(g);
        }
    }
    SELECTION_NS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    kept
}

/// `grid(4,4)` and `mycielski(4)` under both costs, then the seeded
/// `G(n, p)` draws with alternating costs.
pub fn ranked_seq(seed: u64) -> Vec<DirectRequest> {
    let cfg = &RANKED_SEQ;
    let mut out = Vec::new();
    for (label, graph) in [("grid4x4", grid(4, 4)), ("myciel4", mycielski(4))] {
        for cost in [CostKind::Fill, CostKind::Width] {
            out.push(DirectRequest {
                label: label.to_string(),
                graph: graph.clone(),
                cost,
                width_bound: None,
            });
        }
    }
    let mut next = sub_seeds(seed, 0x5241_4E4B_5345_5100);
    let draws = draw_in_band(&mut next, cfg.gnp_draws, cfg.minseps_band, |s| {
        gnp_connected(cfg.gnp_n, cfg.gnp_p, s)
    });
    for (k, graph) in draws.into_iter().enumerate() {
        out.push(DirectRequest {
            label: format!("gnp{}_{k}", cfg.gnp_n),
            graph,
            cost: CostKind::alternating(k),
            width_bound: None,
        });
    }
    out
}

/// Rounds of one `G(n, p)`, one noisy grid and one DBN-like graph; every
/// other request is bounded by the min-degree/min-fill elimination width,
/// which the graph always meets, so each request has a result.
pub fn cold_start(seed: u64) -> Vec<DirectRequest> {
    let cfg = &COLD_START;
    let mut next = sub_seeds(seed, 0x434F_4C44_5354_4100);
    let count = cfg.draws_per_family;
    let gnp = draw_in_band(&mut next, count, cfg.gnp_minseps_band, |s| {
        gnp_connected(cfg.gnp_n, cfg.gnp_p, s)
    });
    let grids = draw_in_band(&mut next, count, cfg.grid_minseps_band, |s| {
        noisy_grid(cfg.grid_side, cfg.grid_side, cfg.grid_noise, s)
    });
    let dbns = draw_in_band(&mut next, count, cfg.dbn_minseps_band, |s| {
        dbn_like(cfg.dbn_slices, cfg.dbn_per_slice, 0.4, 0.15, s)
    });
    let mut out = Vec::new();
    for (k, ((g, grid), dbn)) in gnp.into_iter().zip(grids).zip(dbns).enumerate() {
        let family = [
            (format!("gnp{}_{k}", cfg.gnp_n), g),
            (format!("noisygrid{}_{k}", cfg.grid_side), grid),
            (
                format!("dbn{}x{}_{k}", cfg.dbn_slices, cfg.dbn_per_slice),
                dbn,
            ),
        ];
        for (label, graph) in family {
            let width_bound =
                (out.len() % 2 == 1).then(|| mtr_chordal::treewidth_upper_bound(&graph).width);
            out.push(DirectRequest {
                label,
                graph,
                cost: CostKind::Width,
                width_bound,
            });
        }
    }
    out
}

/// The served-mix trace: `traffic::trace` with the default mix, plus
/// Poisson arrival offsets (seconds from the start) at `rate_per_s`.
pub fn served_mix(seed: u64, seconds: f64) -> (Vec<TrafficRequest>, Vec<f64>) {
    let cfg = &SERVED_MIX;
    let expected = cfg.rate_per_s * seconds;
    let requests = (expected * 1.5) as usize + 64;
    let trace = traffic::trace(
        requests,
        cfg.blobs,
        cfg.blob_n,
        TrafficMix::default_mix(),
        seed,
    );
    let mut next = sub_seeds(seed, 0x5345_5256_4544_4D00);
    let mut at = 0.0;
    let arrivals = (0..requests)
        .map(|_| {
            // Exponential gaps: -ln(U)/rate with U uniform in (0, 1].
            let u = ((next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
            at += -u.ln() / cfg.rate_per_s;
            at
        })
        .collect();
    (trace, arrivals)
}
