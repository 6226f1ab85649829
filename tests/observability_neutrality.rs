//! Observability must be invisible: turning the `mtr-obs` level up to
//! full tracing must not change a single emitted result — same costs
//! (bit-for-bit), same fill edges, same tie order, same stop reason —
//! for both engines (direct Lawler–Murty and the factorized per-atom
//! engine under `ReductionLevel::Full`) and for sequential and parallel
//! execution. Instrumentation reads the stream; it never steers it.
//!
//! And the registry must agree with the per-run statistics: after a
//! reset, the `core.session.results` counter equals the summed
//! [`EnumerationStats::results`] across every driven session, and the
//! per-result delay histogram saw exactly that many samples.

mod common;

use common::{arbitrary_graph, fill_key};
use mtr_core::cost::{FillIn, Width};
use mtr_core::{BagCost, Enumerate, EnumerationRun};
use mtr_graph::Graph;
use mtr_reduce::{EnumerateReduceExt, ReductionLevel};
use proptest::prelude::*;
use ranked_triangulations::obs;
use std::sync::{Mutex, MutexGuard};

/// The obs level, registry, and span ring are process-global; every test
/// that mutates them holds this lock so assertions see only their own
/// traffic.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn run(
    g: &Graph,
    cost: &(dyn BagCost + Sync),
    threads: usize,
    level: ReductionLevel,
) -> Fingerprint {
    let run = Enumerate::on(g)
        .cost(cost)
        .threads(threads)
        .reduce(level)
        .run()
        .expect("session cannot fail on a plain graph");
    fingerprint(g, &run)
}

/// Everything observable about a run's output: the exact emission order
/// of (cost bits, fill edges), the stop reason, and the headline stats.
type Fingerprint = (Vec<(u64, Vec<(u32, u32)>)>, String, usize, usize);

fn fingerprint(g: &Graph, run: &EnumerationRun) -> Fingerprint {
    let stream = run
        .results
        .iter()
        .map(|r| (r.cost.value().to_bits(), fill_key(g, &r.triangulation)))
        .collect();
    (
        stream,
        run.stop_reason.to_string(),
        run.stats.results,
        run.stats.duplicates_skipped,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Full tracing ≡ no instrumentation, for both engines × both costs
    /// × sequential and 4-way parallel execution.
    #[test]
    fn tracing_changes_no_result(g in arbitrary_graph(3, 8)) {
        let _guard = obs_lock();
        for level in [ReductionLevel::Off, ReductionLevel::Full] {
            for threads in [1usize, 4] {
                for cost in [&FillIn as &(dyn BagCost + Sync), &Width] {
                    obs::set_level(obs::Level::Off);
                    let silent = run(&g, cost, threads, level);
                    obs::set_level(obs::Level::Trace);
                    let traced = run(&g, cost, threads, level);
                    obs::set_level(obs::Level::Off);
                    prop_assert_eq!(
                        &silent, &traced,
                        "tracing changed the output at threads={}, level={}, cost={}",
                        threads, level, cost.name()
                    );
                }
            }
        }
    }
}

/// After a reset, the registry's `core.session.results` counter equals
/// the summed `EnumerationStats.results` over every driven session, and
/// the per-result delay histogram recorded exactly one sample per
/// result — for the direct engine, the factorized engine, and parallel
/// runs alike.
#[test]
fn registry_counters_reconcile_with_session_stats() {
    let _guard = obs_lock();
    obs::set_level(obs::Level::Metrics);
    obs::reset();

    let two_c4 = Graph::from_edges(
        7,
        &[
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 0),
            (0, 4),
            (4, 5),
            (5, 6),
            (6, 0),
        ],
    );
    let paper = mtr_graph::paper_example_graph();

    let mut expected = 0usize;
    for (g, level) in [
        (&paper, ReductionLevel::Off),
        (&paper, ReductionLevel::Full),
        (&two_c4, ReductionLevel::Off),
        (&two_c4, ReductionLevel::Full),
    ] {
        for threads in [1usize, 4] {
            let run = Enumerate::on(g)
                .cost(&FillIn)
                .threads(threads)
                .reduce(level)
                .run()
                .expect("plain session");
            assert!(run.stats.results > 0, "fixture must emit something");
            expected += run.stats.results;
        }
    }

    let counted = obs::counter_value("core.session.results")
        .expect("the session layer must register its results counter");
    assert_eq!(
        counted as usize, expected,
        "registry total must equal the summed per-run stats"
    );

    // The delay histogram is recorded next to the counter: one sample
    // per emitted result, never more, never fewer.
    let delays = obs::snapshot()
        .into_iter()
        .find(|m| m.name == "core.session.delay_ns")
        .expect("delay histogram must be registered");
    match delays.value {
        obs::MetricValue::Histogram(h) => assert_eq!(h.count as usize, expected),
        other => panic!("core.session.delay_ns must be a histogram, got {other:?}"),
    }

    obs::set_level(obs::Level::Off);
}

/// With the level at `Off` (the default), running sessions leaves no
/// trace at all: counters stay frozen and the span ring stays empty.
#[test]
fn disabled_level_records_nothing() {
    let _guard = obs_lock();
    obs::set_level(obs::Level::Off);
    obs::reset();

    let g = mtr_graph::paper_example_graph();
    let run = Enumerate::on(&g)
        .cost(&FillIn)
        .run()
        .expect("plain session");
    assert_eq!(run.results.len(), 2);

    assert_eq!(obs::counter_value("core.session.results"), Some(0));
    assert!(
        obs::recent_spans().is_empty(),
        "no spans may be recorded at Level::Off"
    );
}

/// Spans really are captured when tracing: a traced session leaves its
/// `session.preprocess` and `session.emit` spans in the ring, with the
/// emit span carrying the result count.
#[test]
fn traced_session_leaves_its_spans_in_the_ring() {
    let _guard = obs_lock();
    obs::set_level(obs::Level::Trace);
    obs::reset();

    let g = mtr_graph::paper_example_graph();
    Enumerate::on(&g)
        .cost(&FillIn)
        .run()
        .expect("plain session");
    obs::set_level(obs::Level::Off);

    let spans = obs::recent_spans();
    assert!(
        spans.iter().any(|s| s.name == "session.preprocess"),
        "missing preprocess span; got {:?}",
        spans.iter().map(|s| s.name.as_str()).collect::<Vec<_>>()
    );
    let emit = spans
        .iter()
        .find(|s| s.name == "session.emit")
        .expect("missing emit span");
    assert!(
        emit.attrs
            .iter()
            .any(|(k, v)| k.as_str() == "results" && v.as_str() == "2"),
        "emit span must carry the result count; attrs: {:?}",
        emit.attrs
    );
}

/// PMC enumeration reports its work: `pmc.candidates_tested` counts the
/// candidates handed to the exact test and `pmc.candidates_accepted`
/// those that pass, summed over all prefixes, for every preprocessing
/// path (unbounded, width-bounded, and a session's own). The exact test
/// filters the candidate families, so a change to them would not show in
/// the enumeration's output; the counts are pinned so that it shows here.
#[test]
fn pmc_enumeration_counts_its_candidates() {
    use mtr_core::Preprocessed;
    use mtr_workloads::random::gnp_connected;
    use mtr_workloads::structured::{grid, mycielski};
    let _guard = obs_lock();
    obs::set_level(obs::Level::Metrics);
    let count = |name| obs::counter_value(name).expect("PMC counters are registered");

    obs::reset();
    Preprocessed::new(&grid(4, 4));
    assert_eq!(count("pmc.candidates_tested"), 6_557, "grid(4,4)");
    assert_eq!(count("pmc.candidates_accepted"), 1_303, "grid(4,4)");

    obs::reset();
    Enumerate::on(&mycielski(4))
        .cost(&FillIn)
        .max_results(1)
        .run()
        .expect("plain session");
    assert_eq!(count("pmc.candidates_tested"), 524, "mycielski(4)");
    assert_eq!(count("pmc.candidates_accepted"), 168, "mycielski(4)");

    // Width bound 4: PMCs of at most 5 vertices.
    obs::reset();
    Preprocessed::new_bounded(&gnp_connected(20, 0.2, 7), 4);
    assert_eq!(count("pmc.candidates_tested"), 3_161, "gnp(20,0.2,7)");
    assert_eq!(count("pmc.candidates_accepted"), 835, "gnp(20,0.2,7)");

    obs::set_level(obs::Level::Off);
}
