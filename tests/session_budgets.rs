//! Integration tests for the `Enumerate` session budgets on realistic
//! `mtr-workloads` instances: deadline-budgeted sessions must terminate
//! early with the right [`StopReason`] and hand back a valid, correctly
//! ranked prefix of the result stream.

use ranked_triangulations::prelude::*;
use ranked_triangulations::workloads::{random, structured};
use std::time::Duration;

/// The 24-cycle: its minimal triangulations are the triangulations of a
/// 24-gon, Catalan(22) ≈ 1.3·10^11 of them — far too many to exhaust under
/// any deadline below. (Mycielski-5 is no such input: its 4,656 are
/// exhausted within seconds.)
fn cycle_24() -> Graph {
    Graph::from_edges(24, &(0..24).map(|i| (i, (i + 1) % 24)).collect::<Vec<_>>())
}

/// The acceptance scenario: a large instance (the 24-cycle) under a
/// wall-clock deadline. The session must stop with
/// [`StopReason::DeadlineExceeded`] and the partial results must be sound
/// and ranked. Preprocessing is paid outside the deadline so the test is
/// immune to slow machines: the whole budget is available for results.
#[test]
fn deadline_terminates_early_with_valid_partial_results() {
    let g = cycle_24();
    let pre = Preprocessed::new(&g);
    let deadline = Duration::from_secs(2);
    let run = Enumerate::with(&pre)
        .cost(&FillIn)
        .deadline(deadline)
        .run()
        .expect("a deadline-only session cannot be misconfigured");

    assert_eq!(run.stop_reason, StopReason::DeadlineExceeded);
    assert!(run.stats.preprocessing_complete);
    assert!(
        !run.results.is_empty(),
        "a 2s deadline leaves time for at least one result"
    );
    // The deadline is checked between results, so the overshoot is bounded
    // by one result delay (generously bounded here for slow machines).
    assert!(run.stats.total >= deadline);
    assert!(run.stats.total < deadline + Duration::from_secs(60));
    // Partial results are valid minimal triangulations, ranked by cost.
    for r in &run.results {
        assert!(is_minimal_triangulation(&g, &r.triangulation));
    }
    for w in run.results.windows(2) {
        assert!(w[0].cost <= w[1].cost);
    }
    assert_eq!(run.stats.results, run.results.len());
    assert_eq!(run.stats.delays.len(), run.results.len());
    assert_eq!(run.stats.duplicates_skipped, 0);
}

/// The same scenario with preprocessing inside the deadline
/// (`Enumerate::on`): the session still stops with `DeadlineExceeded`, and
/// whatever prefix it produced is sound — on a fast machine some results,
/// on a slow one possibly none (or an aborted initialization).
#[test]
fn deadline_covers_in_session_preprocessing() {
    let g = cycle_24();
    let deadline = Duration::from_secs(3);
    let run = Enumerate::on(&g)
        .cost(&FillIn)
        .deadline(deadline)
        .run()
        .expect("a deadline-only session cannot be misconfigured");
    assert_eq!(run.stop_reason, StopReason::DeadlineExceeded);
    for r in &run.results {
        assert!(is_minimal_triangulation(&g, &r.triangulation));
    }
    for w in run.results.windows(2) {
        assert!(w[0].cost <= w[1].cost);
    }
}

/// A deadline too small for the initialization itself: the session reports
/// the aborted preprocessing instead of hanging or panicking.
#[test]
fn deadline_can_abort_preprocessing() {
    // Dense-ish G(n, p) with an expensive PMC enumeration.
    let g = random::gnp_connected(30, 0.15, 5);
    let run = Enumerate::on(&g)
        .cost(&Width)
        .deadline(Duration::from_millis(1))
        .run()
        .expect("a deadline-only session cannot be misconfigured");
    assert_eq!(run.stop_reason, StopReason::DeadlineExceeded);
    assert!(!run.stats.preprocessing_complete);
    assert!(run.results.is_empty());
}

/// The cancel flag stops preprocessing too: PMC enumeration polls it where
/// it polls the deadline, so a session cancelled before it starts reports
/// the aborted initialization as `Cancelled` — directly, and through the
/// factorized engine, whose per-atom preprocessing runs inline or on the
/// pool.
#[test]
fn cancel_flag_can_abort_preprocessing() {
    let g = random::gnp_connected(30, 0.15, 5);
    let mut two_copies: Vec<(u32, u32)> = Vec::new();
    for u in 0..30 {
        for v in g.neighbors(u).iter().filter(|&v| v > u) {
            two_copies.extend([(u, v), (u + 30, v + 30)]);
        }
    }
    let two_copies = Graph::from_edges(60, &two_copies);
    for threads in [1, 2] {
        let flag = CancelFlag::new();
        flag.cancel();
        let direct = Enumerate::on(&g)
            .cost(&Width)
            .threads(threads)
            .cancel_flag(flag.clone())
            .run()
            .expect("a cancelled session cannot be misconfigured");
        let reduced = Enumerate::on(&two_copies)
            .cost(&Width)
            .threads(threads)
            .cancel_flag(flag)
            .reduce(ReductionLevel::Full)
            .run()
            .expect("a cancelled session cannot be misconfigured");
        assert!(reduced.stats.atoms >= 2, "the factorized engine ran");
        for run in [direct, reduced] {
            assert_eq!(run.stop_reason, StopReason::Cancelled);
            assert!(!run.stats.preprocessing_complete, "threads = {threads}");
            assert!(run.results.is_empty());
        }
    }
}

/// Budgets compose: whichever budget trips first determines the reason, and
/// the results are a prefix of the unbudgeted stream in every case.
#[test]
fn composed_budgets_report_the_binding_constraint() {
    let g = structured::grid(3, 3);
    let pre = Preprocessed::new(&g);
    let full = Enumerate::with(&pre)
        .cost(&FillIn)
        .run()
        .expect("session is well-configured");
    assert_eq!(full.stop_reason, StopReason::Exhausted);

    let capped = Enumerate::with(&pre)
        .cost(&FillIn)
        .max_results(4)
        .deadline(Duration::from_secs(3600))
        .node_budget(1_000_000)
        .run()
        .expect("session is well-configured");
    assert_eq!(capped.stop_reason, StopReason::MaxResults);
    assert_eq!(capped.results.len(), 4);
    for (c, f) in capped.results.iter().zip(&full.results) {
        assert_eq!(c.cost, f.cost);
    }

    let node_bound = Enumerate::with(&pre)
        .cost(&FillIn)
        .max_results(usize::MAX)
        .node_budget(2)
        .run()
        .expect("session is well-configured");
    assert_eq!(node_bound.stop_reason, StopReason::NodeBudgetExhausted);
    assert!(node_bound.results.len() <= full.results.len());
    for (b, f) in node_bound.results.iter().zip(&full.results) {
        assert_eq!(b.cost, f.cost);
    }
}

/// Cooperative cancellation: raising the [`CancelFlag`] mid-stream stops
/// the session with [`StopReason::Cancelled`], and the partial results are
/// a valid ranked prefix of the unbudgeted stream — the daemon's contract
/// for client disconnects.
#[test]
fn cancelled_session_returns_valid_partial_results() {
    let g = structured::grid(3, 3);
    let pre = Preprocessed::new(&g);
    let full = Enumerate::with(&pre)
        .cost(&FillIn)
        .run()
        .expect("session is well-configured");
    assert_eq!(full.stop_reason, StopReason::Exhausted);
    assert!(full.results.len() > 4, "grid(3,3) has many triangulations");

    let flag = CancelFlag::new();
    let cancel_after = 3;
    let mut seen = Vec::new();
    let trigger = flag.clone();
    let report = Enumerate::with(&pre)
        .cost(&FillIn)
        .cancel_flag(flag)
        .drive(|r| {
            seen.push(r);
            if seen.len() == cancel_after {
                // Raised from inside the stream, observed at the next
                // demand boundary — exactly the disconnect pattern.
                trigger.cancel();
            }
            std::ops::ControlFlow::Continue(())
        })
        .expect("session is well-configured");

    assert_eq!(report.stop_reason, StopReason::Cancelled);
    assert_eq!(seen.len(), cancel_after);
    for r in &seen {
        assert!(is_minimal_triangulation(&g, &r.triangulation));
    }
    // The cancelled prefix matches the unbudgeted stream rank-for-rank.
    for (c, f) in seen.iter().zip(&full.results) {
        assert_eq!(c.cost, f.cost);
    }

    // A flag raised before the run starts yields an empty Cancelled run.
    let pre_raised = CancelFlag::new();
    pre_raised.cancel();
    let run = Enumerate::with(&pre)
        .cost(&FillIn)
        .cancel_flag(pre_raised)
        .run()
        .expect("session is well-configured");
    assert_eq!(run.stop_reason, StopReason::Cancelled);
    assert!(run.results.is_empty());
}

/// Cancellation reaches the parallel engine's demand boundary too.
#[test]
fn cancelled_parallel_session_stops() {
    let g = structured::mycielski(5);
    let flag = CancelFlag::new();
    let trigger = flag.clone();
    let mut seen = 0usize;
    let report = Enumerate::on(&g)
        .cost(&FillIn)
        .threads(2)
        .cancel_flag(flag)
        .drive(|_| {
            seen += 1;
            if seen == 2 {
                trigger.cancel();
            }
            std::ops::ControlFlow::Continue(())
        })
        .expect("session is well-configured");
    assert_eq!(report.stop_reason, StopReason::Cancelled);
    assert!(seen >= 2);
}

/// The deadline applies to proper-tree-decomposition sessions too.
#[test]
fn decomposition_sessions_respect_deadlines() {
    let g = structured::mycielski(4);
    let run = Enumerate::on(&g)
        .cost(&Width)
        .proper_decompositions(Some(2))
        .deadline(Duration::from_millis(1500))
        .run_decompositions()
        .expect("session is well-configured");
    assert!(matches!(
        run.stop_reason,
        StopReason::DeadlineExceeded | StopReason::Exhausted
    ));
    for d in &run.results {
        assert!(d.decomposition.is_valid(&g));
    }
    for w in run.results.windows(2) {
        assert!(w[0].cost <= w[1].cost);
    }
}
