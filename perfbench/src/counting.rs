//! A `BagCost` wrapper that counts `combine` calls, the unit of DP work.
//! Used by the traced run only.

use mtr_core::cost::{AtomCombine, ChildSolution};
use mtr_core::{BagCost, CostValue, DynBagCost};
use mtr_graph::{Graph, VertexSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards every `BagCost` method to `inner`, so pruning bounds, symmetry
/// and atom factorization decide exactly as for the unwrapped cost; only
/// `combine` is counted.
pub struct Counting<'a> {
    inner: &'a DynBagCost,
    combines: AtomicU64,
}

impl<'a> Counting<'a> {
    pub fn new(inner: &'a DynBagCost) -> Self {
        Counting {
            inner,
            combines: AtomicU64::new(0),
        }
    }

    pub fn combines(&self) -> u64 {
        // A statistic read after the session's threads have joined.
        self.combines.load(Ordering::Relaxed)
    }
}

impl BagCost for Counting<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn cost_of_bags(&self, g: &Graph, scope: &VertexSet, bags: &[VertexSet]) -> CostValue {
        self.inner.cost_of_bags(g, scope, bags)
    }

    fn combine(
        &self,
        g: &Graph,
        scope: &VertexSet,
        omega: &VertexSet,
        children: &[ChildSolution<'_>],
    ) -> CostValue {
        self.combines.fetch_add(1, Ordering::Relaxed);
        self.inner.combine(g, scope, omega, children)
    }

    fn atom_combine(&self) -> Option<AtomCombine> {
        self.inner.atom_combine()
    }

    fn include_lower_bound(&self, g: &Graph, include: &[VertexSet]) -> Option<CostValue> {
        self.inner.include_lower_bound(g, include)
    }

    fn label_invariant(&self) -> bool {
        self.inner.label_invariant()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Workload, SERVED_MIX};
    use crate::inputs::{self, CostKind, DirectRequest};
    use mtr_core::Enumerate;
    use mtr_reduce::{EnumerateReduceExt, ReductionLevel};
    use std::ops::ControlFlow;

    type Stream = Vec<(u64, Vec<(u32, u32)>)>;

    fn stream<K: BagCost + Sync + ?Sized>(req: &DirectRequest, cost: &K, threads: usize) -> Stream {
        let mut session = Enumerate::on(&req.graph)
            .cost(cost)
            .threads(threads)
            .max_results(10);
        if let Some(b) = req.width_bound {
            session = session.width_bound(b);
        }
        let mut out = Vec::new();
        session
            .drive(|r| {
                out.push((
                    r.cost.value().to_bits(),
                    req.graph.fill_edges_of(&r.triangulation),
                ));
                ControlFlow::Continue(())
            })
            .expect("benchmark requests are well-formed");
        out
    }

    fn first_direct_inputs(workload: Workload) -> Vec<DirectRequest> {
        let seed = 1;
        let all = match workload {
            Workload::RankedSeq => inputs::ranked_seq(seed),
            Workload::ColdStart => inputs::cold_start(seed),
            Workload::ServedMix => unreachable!("served-mix requests go through the daemon"),
        };
        all.into_iter().take(6).collect()
    }

    #[test]
    fn counting_leaves_direct_streams_unchanged() {
        for (workload, threads) in [(Workload::RankedSeq, 1), (Workload::ColdStart, 2)] {
            for req in first_direct_inputs(workload) {
                let plain = stream(&req, req.cost.cost(), threads);
                let counting = Counting::new(req.cost.cost());
                let wrapped = stream(&req, &counting, threads);
                assert_eq!(plain, wrapped, "{} {}", workload.name(), req.label);
                assert!(counting.combines() > 0, "{}", req.label);
            }
        }
    }

    #[test]
    fn counting_leaves_reduced_streams_unchanged() {
        let (trace, _) = inputs::served_mix(1, 0.05);
        for (i, req) in trace.iter().take(6).enumerate() {
            let kind = CostKind::alternating(i);
            let run = |cost: &DynBagCost| -> Stream {
                Enumerate::on(&req.graph)
                    .cost(cost)
                    .reduce(ReductionLevel::Full)
                    .max_results(SERVED_MIX.top)
                    .run()
                    .expect("traffic requests are well-formed")
                    .results
                    .iter()
                    .map(|r| {
                        (
                            r.cost.value().to_bits(),
                            req.graph.fill_edges_of(&r.triangulation),
                        )
                    })
                    .collect()
            };
            let counting = Counting::new(kind.cost());
            assert_eq!(run(kind.cost()), run(&counting), "trace request {i}");
        }
    }
}
