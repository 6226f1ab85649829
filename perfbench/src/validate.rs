//! The independent result validator and the stream digest.
//!
//! Results are checked from what a client sees — the cost and the fill
//! edges — so direct and served streams go through the same checks, none
//! of which reuse the engine's own bags.

use mtr_chordal::{is_minimal_triangulation, maximal_cliques_chordal};
use mtr_core::{min_triangulation, DynBagCost, Preprocessed};
use mtr_graph::Graph;
use std::collections::HashSet;

/// One ranked result as a client sees it.
#[derive(Clone, Debug, PartialEq)]
pub struct Ranked {
    pub cost: f64,
    pub fill: Vec<(u32, u32)>,
}

/// The minimum cost over all minimal triangulations (of width at most
/// `width_bound`, when set), from a fresh `min_triangulation` solve.
pub fn optimum(g: &Graph, cost: &DynBagCost, width_bound: Option<usize>) -> Option<f64> {
    let pre = match width_bound {
        Some(b) => Preprocessed::new_bounded(g, b),
        None => Preprocessed::new(g),
    };
    min_triangulation(&pre, cost).map(|t| t.cost.value())
}

/// Checks a ranked stream of `g`: every result is a minimal triangulation
/// whose cost, recomputed from its maximal cliques, equals the reported
/// cost; costs never decrease; no fill set repeats; and rank 0 costs
/// `optimum`. Returns the first violation.
pub fn check_stream(
    g: &Graph,
    cost: &DynBagCost,
    optimum: Option<f64>,
    stream: &[Ranked],
) -> Result<(), String> {
    match (optimum, stream.first()) {
        (Some(best), Some(first)) if first.cost.to_bits() != best.to_bits() => {
            return Err(format!(
                "rank 0 costs {} but the optimum is {best}",
                first.cost
            ));
        }
        (Some(_), None) => return Err("no result although a triangulation exists".into()),
        (None, Some(_)) => return Err("results although no triangulation exists".into()),
        _ => {}
    }
    let scope = g.vertex_set();
    let mut seen = HashSet::new();
    for (rank, r) in stream.iter().enumerate() {
        let mut h = g.clone();
        for &(u, v) in &r.fill {
            if u >= g.n() || v >= g.n() || !h.add_edge(u, v) {
                return Err(format!(
                    "rank {rank}: fill edge ({u}, {v}) is not a new edge"
                ));
            }
        }
        if !is_minimal_triangulation(g, &h) {
            return Err(format!("rank {rank}: not a minimal triangulation"));
        }
        let bags = maximal_cliques_chordal(&h).expect("a triangulation is chordal");
        let recomputed = cost.cost_of_bags(g, &scope, &bags).value();
        if recomputed.to_bits() != r.cost.to_bits() {
            return Err(format!(
                "rank {rank}: reported cost {} but its bags cost {recomputed}",
                r.cost
            ));
        }
        if rank > 0 && r.cost < stream[rank - 1].cost {
            return Err(format!("rank {rank}: cost decreases"));
        }
        let mut key = r.fill.clone();
        key.sort_unstable();
        if !seen.insert(key) {
            return Err(format!("rank {rank}: duplicate fill set"));
        }
    }
    Ok(())
}

/// The served ≡ direct contract of the equivalence suites for cached
/// sessions: the same costs bit for bit, and the same fill sets on every
/// plateau of equal cost that the prefix holds completely. Within a
/// plateau the order may differ (the atom cache enumerates in canonical
/// labeling), and a plateau cut by the `top` budget may hold different
/// members of the same cost.
pub fn same_ranking(served: &[Ranked], direct: &[Ranked], top: usize) -> Result<(), String> {
    if served.len() != direct.len() {
        return Err(format!(
            "{} results, direct has {}",
            served.len(),
            direct.len()
        ));
    }
    if let Some(rank) =
        (0..served.len()).find(|&i| served[i].cost.to_bits() != direct[i].cost.to_bits())
    {
        return Err(format!(
            "rank {rank} costs {}, direct {}",
            served[rank].cost, direct[rank].cost
        ));
    }
    let fill_set = |stream: &[Ranked]| {
        let mut set: Vec<Vec<(u32, u32)>> = stream
            .iter()
            .map(|r| {
                let mut fill = r.fill.clone();
                fill.sort_unstable();
                fill
            })
            .collect();
        set.sort_unstable();
        set
    };
    let mut start = 0;
    while start < served.len() {
        let end = (start..served.len())
            .find(|&i| served[i].cost.to_bits() != served[start].cost.to_bits())
            .unwrap_or(served.len());
        let cut = end == served.len() && served.len() >= top;
        if !cut && fill_set(&served[start..end]) != fill_set(&direct[start..end]) {
            return Err(format!("ranks {start}..{end} hold other triangulations"));
        }
        start = end;
    }
    Ok(())
}

/// FNV-1a over every validated stream in input order, so two runs (or two
/// commits) with one seed can be compared for bit-for-bit equal output.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn stream(&mut self, key: u64, stream: &[Ranked]) {
        self.word(key);
        self.word(stream.len() as u64);
        for r in stream {
            self.word(r.cost.to_bits());
            self.word(r.fill.len() as u64);
            for &(u, v) in &r.fill {
                self.word((u64::from(u) << 32) | u64::from(v));
            }
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtr_core::cost::FillIn;
    use mtr_graph::paper_example_graph;

    #[test]
    fn accepts_the_engine_stream_and_rejects_tampering() {
        let g = paper_example_graph();
        let run = mtr_core::Enumerate::on(&g)
            .cost(&FillIn)
            .run()
            .expect("paper example enumerates");
        let stream: Vec<Ranked> = run
            .results
            .iter()
            .map(|r| Ranked {
                cost: r.cost.value(),
                fill: g.fill_edges_of(&r.triangulation),
            })
            .collect();
        let best = optimum(&g, &FillIn, None);
        assert_eq!(check_stream(&g, &FillIn, best, &stream), Ok(()));

        let mut wrong_cost = stream.clone();
        wrong_cost[0].cost += 1.0;
        assert!(check_stream(&g, &FillIn, best, &wrong_cost).is_err());

        let mut reordered = stream.clone();
        reordered.swap(0, 1);
        assert!(check_stream(&g, &FillIn, best, &reordered).is_err());

        let mut duplicated = stream.clone();
        duplicated[1] = duplicated[0].clone();
        assert!(check_stream(&g, &FillIn, best, &duplicated).is_err());

        let mut not_minimal = stream;
        let (u, v) = not_minimal[1].fill[0];
        not_minimal[0].fill.push((u, v));
        assert!(check_stream(&g, &FillIn, best, &not_minimal).is_err());
    }
}
