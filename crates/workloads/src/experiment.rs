//! The experiment harness: everything needed to regenerate the paper's
//! tables and figures at laptop scale.
//!
//! Each study mirrors one part of Section 7:
//!
//! * [`tractability_study`] — Figure 5: can `MinSep(G)` / `PMC(G)` be
//!   computed within a time budget?
//! * [`minsep_distribution`] — Figure 6: #minimal separators vs #edges for
//!   the MS-tractable instances.
//! * [`random_minsep_study`] — Figure 7: #minimal separators of `G(n, p)`.
//! * [`compare_on_graph`] — Table 2 / Figure 8: `RankedTriang` vs the CKK
//!   baseline under a fixed wall-clock budget, reporting result counts,
//!   delays and the width/fill quality columns of Table 2.
//! * [`timeline_study`] — Figure 9: results-over-time case studies.
//!
//! All functions return plain data rows; the `mtr-bench` binaries render
//! them as CSV and Markdown.

use crate::datasets::Dataset;
use crate::random::gnp;
use mtr_core::cost::{BagCost, FillIn, Width};
use mtr_core::{CkkEnumerator, Enumerate, StopReason};
use mtr_graph::Graph;
use mtr_pmc::enumerate::potential_maximal_cliques_until;
use mtr_separators::enumerate::minimal_separators_with_limits;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Figure 5: tractability of the poly-MS assumption
// ---------------------------------------------------------------------------

/// Outcome of the initialization attempt on one graph (Figure 5 categories).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TractabilityStatus {
    /// Both the minimal separators and the PMCs were computed in budget.
    Terminated,
    /// Minimal separators finished, PMC enumeration did not.
    MsTerminated,
    /// Even the minimal separators did not finish in budget.
    NotTerminated,
}

impl TractabilityStatus {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            TractabilityStatus::Terminated => "terminated",
            TractabilityStatus::MsTerminated => "ms-terminated",
            TractabilityStatus::NotTerminated => "not-terminated",
        }
    }
}

/// One row of the tractability study.
#[derive(Clone, Debug)]
pub struct TractabilityRow {
    /// Dataset family name.
    pub dataset: String,
    /// Instance name.
    pub instance: String,
    /// Number of vertices.
    pub n: u32,
    /// Number of edges.
    pub m: usize,
    /// The Figure-5 category.
    pub status: TractabilityStatus,
    /// Number of minimal separators, when known.
    pub num_minseps: Option<usize>,
    /// Number of potential maximal cliques, when known.
    pub num_pmcs: Option<usize>,
    /// Wall-clock time spent on the separator enumeration.
    pub minsep_time: Duration,
    /// Wall-clock time spent on the PMC enumeration (zero when skipped).
    pub pmc_time: Duration,
}

/// Budgets controlling the tractability study.
#[derive(Clone, Copy, Debug)]
pub struct TractabilityBudget {
    /// Wall-clock budget for the separator enumeration.
    pub minsep_time: Duration,
    /// Hard cap on the number of separators (a proxy for the paper's
    /// one-minute limit that also protects against memory blow-ups).
    pub minsep_limit: usize,
    /// Wall-clock budget for the PMC enumeration.
    pub pmc_time: Duration,
}

impl Default for TractabilityBudget {
    fn default() -> Self {
        TractabilityBudget {
            minsep_time: Duration::from_secs(2),
            minsep_limit: 200_000,
            pmc_time: Duration::from_secs(10),
        }
    }
}

/// Classifies one graph.
pub fn classify_graph(
    g: &Graph,
    budget: &TractabilityBudget,
) -> (
    TractabilityStatus,
    Option<usize>,
    Option<usize>,
    Duration,
    Duration,
) {
    let start = Instant::now();
    let seps =
        minimal_separators_with_limits(g, Some(budget.minsep_limit), Some(budget.minsep_time));
    let minsep_time = start.elapsed();
    let seps = match seps {
        Ok(s) if minsep_time <= budget.minsep_time => s,
        _ => {
            return (
                TractabilityStatus::NotTerminated,
                None,
                None,
                minsep_time,
                Duration::ZERO,
            )
        }
    };
    let pmc_start = Instant::now();
    let pmc = potential_maximal_cliques_until(g, None, Some(pmc_start + budget.pmc_time));
    let pmc_time = pmc_start.elapsed();
    match pmc {
        Ok(enumeration) => (
            TractabilityStatus::Terminated,
            Some(seps.len()),
            Some(enumeration.pmcs.len()),
            minsep_time,
            pmc_time,
        ),
        Err(_) => (
            TractabilityStatus::MsTerminated,
            Some(seps.len()),
            None,
            minsep_time,
            pmc_time,
        ),
    }
}

/// Runs the tractability study over whole dataset families.
pub fn tractability_study(
    datasets: &[Dataset],
    budget: &TractabilityBudget,
) -> Vec<TractabilityRow> {
    let mut rows = Vec::new();
    for d in datasets {
        for inst in &d.instances {
            let (status, num_minseps, num_pmcs, minsep_time, pmc_time) =
                classify_graph(&inst.graph, budget);
            rows.push(TractabilityRow {
                dataset: d.name.clone(),
                instance: inst.name.clone(),
                n: inst.graph.n(),
                m: inst.graph.m(),
                status,
                num_minseps,
                num_pmcs,
                minsep_time,
                pmc_time,
            });
        }
    }
    rows
}

/// Figure 6: the (#edges, #minimal separators) pairs of the MS-tractable
/// rows of a tractability study.
pub fn minsep_distribution(rows: &[TractabilityRow]) -> Vec<(String, String, usize, usize)> {
    rows.iter()
        .filter_map(|r| {
            r.num_minseps
                .map(|k| (r.dataset.clone(), r.instance.clone(), r.m, k))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 7: minimal separators of random graphs
// ---------------------------------------------------------------------------

/// One point of the random-graph separator study.
#[derive(Clone, Debug)]
pub struct RandomMinsepRow {
    /// Number of vertices.
    pub n: u32,
    /// Edge probability.
    pub p: f64,
    /// RNG seed of the sampled graph.
    pub seed: u64,
    /// Number of edges of the sampled graph.
    pub m: usize,
    /// Number of minimal separators, if the enumeration finished.
    pub num_minseps: Option<usize>,
    /// Wall-clock time of the enumeration attempt.
    pub time: Duration,
}

/// Samples `seeds_per_point` graphs for every `(n, p)` pair and counts their
/// minimal separators, marking the point as timed out when the count limit
/// or the time budget is exceeded (the red marks of Figure 7).
pub fn random_minsep_study(
    ns: &[u32],
    ps: &[f64],
    seeds_per_point: u64,
    limit: usize,
    time_budget: Duration,
) -> Vec<RandomMinsepRow> {
    let mut rows = Vec::new();
    for &n in ns {
        for &p in ps {
            for seed in 0..seeds_per_point {
                let graph_seed = (n as u64) << 32 | (p * 1000.0) as u64 ^ seed;
                let g = gnp(n, p, graph_seed);
                let start = Instant::now();
                let result = minimal_separators_with_limits(&g, Some(limit), Some(time_budget));
                let time = start.elapsed();
                let num = match result {
                    Ok(s) if time <= time_budget => Some(s.len()),
                    _ => None,
                };
                rows.push(RandomMinsepRow {
                    n,
                    p,
                    seed: graph_seed,
                    m: g.m(),
                    num_minseps: num,
                    time,
                });
            }
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Table 2 / Figures 8-9: RankedTriang vs CKK under a time budget
// ---------------------------------------------------------------------------

/// One enumerated result with its timing and quality.
#[derive(Clone, Copy, Debug)]
pub struct ResultSample {
    /// Time elapsed since the enumeration started when this result arrived.
    pub elapsed: Duration,
    /// Width of the triangulation.
    pub width: usize,
    /// Fill-in of the triangulation.
    pub fill: usize,
}

/// Aggregated outcome of one algorithm on one graph under a budget — the
/// per-graph ingredients of the paper's Table 2 columns.
#[derive(Clone, Debug)]
pub struct AlgorithmRun {
    /// Algorithm label.
    pub algorithm: String,
    /// Initialization time (separators + PMCs + block structure for
    /// `RankedTriang`, essentially zero for the baseline).
    pub init: Duration,
    /// The per-result samples, in emission order.
    pub samples: Vec<ResultSample>,
    /// Total wall-clock time consumed (≤ budget unless the enumeration
    /// finished early).
    pub total: Duration,
    /// Whether the enumeration ran out of results before the budget ended.
    pub exhausted: bool,
}

impl AlgorithmRun {
    /// Number of results produced.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Average delay between results, counting initialization.
    pub fn average_delay(&self) -> Duration {
        if self.samples.is_empty() {
            self.total
        } else {
            self.total / self.samples.len() as u32
        }
    }

    /// Average delay between results, not counting initialization.
    pub fn average_delay_no_init(&self) -> Duration {
        if self.samples.is_empty() {
            return self.total.saturating_sub(self.init);
        }
        self.total.saturating_sub(self.init) / self.samples.len() as u32
    }

    /// Minimum width among the produced results.
    pub fn min_width(&self) -> Option<usize> {
        self.samples.iter().map(|s| s.width).min()
    }

    /// Minimum fill among the produced results.
    pub fn min_fill(&self) -> Option<usize> {
        self.samples.iter().map(|s| s.fill).min()
    }

    /// Number of results whose width is within `factor` of `reference`
    /// (e.g. `reference = optimal width`, `factor = 1.1` for the paper's
    /// `#≤1.1·min-w` column).
    pub fn count_width_within(&self, reference: usize, factor: f64) -> usize {
        let bound = (reference as f64 * factor).floor() as usize;
        self.samples.iter().filter(|s| s.width <= bound).count()
    }

    /// Number of results whose fill is within `factor` of `reference`.
    pub fn count_fill_within(&self, reference: usize, factor: f64) -> usize {
        let bound = (reference as f64 * factor).floor() as usize;
        self.samples.iter().filter(|s| s.fill <= bound).count()
    }
}

/// Which classic cost the ranked enumeration optimizes in a comparison run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostKind {
    /// Optimize width.
    Width,
    /// Optimize fill-in.
    Fill,
}

impl CostKind {
    /// The cost object.
    pub fn cost(&self) -> Box<dyn BagCost + Sync> {
        match self {
            CostKind::Width => Box::new(Width),
            CostKind::Fill => Box::new(FillIn),
        }
    }

    /// Short label.
    pub fn label(&self) -> &'static str {
        match self {
            CostKind::Width => "width",
            CostKind::Fill => "fill",
        }
    }
}

/// Runs `RankedTriang` on `g` for at most `budget` wall-clock time,
/// optimizing `kind`, as a deadline-budgeted [`Enumerate`] session.
/// Returns `None` when the initialization itself does not fit in the budget
/// (the graph would be "not terminated" in Figure 5).
pub fn run_ranked(g: &Graph, kind: CostKind, budget: Duration) -> Option<AlgorithmRun> {
    let start = Instant::now();
    let cost = kind.cost();
    let mut samples = Vec::new();
    let report = Enumerate::on(g)
        .cost(cost.as_ref())
        .deadline(budget)
        .drive(|result| {
            samples.push(ResultSample {
                elapsed: start.elapsed(),
                width: result.width(),
                fill: result.fill_in(g),
            });
            ControlFlow::Continue(())
        })
        .expect("a deadline-only session on a plain graph cannot be misconfigured");
    // "Not terminated" (Figure 5): the PMC enumeration was aborted, or the
    // remaining initialization (block construction) overran the budget.
    if !report.stats.preprocessing_complete || report.stats.preprocessing > budget {
        return None;
    }
    Some(AlgorithmRun {
        algorithm: format!("ranked-{}", kind.label()),
        init: report.stats.preprocessing,
        samples,
        total: start.elapsed(),
        exhausted: report.stop_reason == StopReason::Exhausted,
    })
}

/// Runs the CKK-style baseline on `g` for at most `budget` wall-clock time.
pub fn run_ckk(g: &Graph, budget: Duration) -> AlgorithmRun {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut exhausted = true;
    let mut enumerator = CkkEnumerator::new(g);
    let init = start.elapsed();
    loop {
        if start.elapsed() >= budget {
            exhausted = false;
            break;
        }
        match enumerator.next() {
            Some(result) => {
                samples.push(ResultSample {
                    elapsed: start.elapsed(),
                    width: result.width,
                    fill: result.fill_in,
                });
            }
            None => break,
        }
    }
    AlgorithmRun {
        algorithm: "ckk".to_string(),
        init,
        samples,
        total: start.elapsed(),
        exhausted,
    }
}

/// The outcome of comparing the algorithms on a single graph (the raw
/// material of one Table 2 row and of the Figure 8 series).
#[derive(Clone, Debug)]
pub struct GraphComparison {
    /// Instance name.
    pub instance: String,
    /// Number of vertices and edges.
    pub n: u32,
    /// Number of edges.
    pub m: usize,
    /// RankedTriang optimizing width, if its initialization fit the budget.
    pub ranked_width: Option<AlgorithmRun>,
    /// RankedTriang optimizing fill-in, if its initialization fit the budget.
    pub ranked_fill: Option<AlgorithmRun>,
    /// The CKK baseline run.
    pub ckk: AlgorithmRun,
}

/// Compares the algorithms on one graph with a per-run wall-clock budget.
pub fn compare_on_graph(name: &str, g: &Graph, budget: Duration) -> GraphComparison {
    GraphComparison {
        instance: name.to_string(),
        n: g.n(),
        m: g.m(),
        ranked_width: run_ranked(g, CostKind::Width, budget),
        ranked_fill: run_ranked(g, CostKind::Fill, budget),
        ckk: run_ckk(g, budget),
    }
}

/// Figure 9: the results-over-time series of both algorithms on one graph,
/// reported as (elapsed, width) samples.
pub fn timeline_study(g: &Graph, budget: Duration) -> (Option<AlgorithmRun>, AlgorithmRun) {
    (run_ranked(g, CostKind::Width, budget), run_ckk(g, budget))
}

// ---------------------------------------------------------------------------
// Rendering helpers
// ---------------------------------------------------------------------------

/// Renders rows as CSV (headers plus one line per row).
pub fn render_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&headers.join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Renders rows as a GitHub-flavored Markdown table.
pub fn render_markdown(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Formats a duration as fractional seconds with millisecond precision.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{all_datasets, DatasetScale};
    use mtr_graph::paper_example_graph;

    #[test]
    fn classify_easy_graph_terminates() {
        let g = paper_example_graph();
        let budget = TractabilityBudget::default();
        let (status, seps, pmcs, _, _) = classify_graph(&g, &budget);
        assert_eq!(status, TractabilityStatus::Terminated);
        assert_eq!(seps, Some(3));
        assert_eq!(pmcs, Some(6));
    }

    #[test]
    fn classify_with_tiny_budget_fails() {
        let g = crate::random::gnp_connected(40, 0.3, 1);
        let budget = TractabilityBudget {
            minsep_time: Duration::from_micros(1),
            minsep_limit: 10,
            pmc_time: Duration::from_micros(1),
        };
        let (status, _, _, _, _) = classify_graph(&g, &budget);
        assert_eq!(status, TractabilityStatus::NotTerminated);
    }

    #[test]
    fn tractability_study_covers_all_instances() {
        let datasets = all_datasets(DatasetScale::Smoke);
        let budget = TractabilityBudget {
            minsep_time: Duration::from_millis(500),
            minsep_limit: 20_000,
            pmc_time: Duration::from_secs(2),
        };
        let rows = tractability_study(&datasets[..3], &budget);
        let expected: usize = datasets[..3].iter().map(|d| d.len()).sum();
        assert_eq!(rows.len(), expected);
        let dist = minsep_distribution(&rows);
        assert!(dist.len() <= rows.len());
    }

    #[test]
    fn random_minsep_study_produces_grid() {
        let rows = random_minsep_study(&[10, 12], &[0.1, 0.5], 2, 50_000, Duration::from_secs(5));
        assert_eq!(rows.len(), 2 * 2 * 2);
        assert!(rows.iter().all(|r| r.num_minseps.is_some()));
    }

    #[test]
    fn comparison_on_paper_example() {
        let g = paper_example_graph();
        let cmp = compare_on_graph("paper", &g, Duration::from_secs(5));
        let rw = cmp.ranked_width.expect("init fits easily");
        let rf = cmp.ranked_fill.expect("init fits easily");
        assert_eq!(rw.count(), 2);
        assert_eq!(rf.count(), 2);
        assert_eq!(cmp.ckk.count(), 2);
        // The ranked run's first result is optimal.
        assert_eq!(rw.samples[0].width, 2);
        assert_eq!(rf.samples[0].fill, 1);
        assert_eq!(rw.min_width(), Some(2));
        assert_eq!(rf.min_fill(), Some(1));
        assert_eq!(rw.count_width_within(2, 1.1), 1);
        assert!(rw.exhausted && rf.exhausted && cmp.ckk.exhausted);
    }

    #[test]
    fn budget_cuts_off_enumeration() {
        // A graph with many minimal triangulations and a microscopic budget:
        // the enumeration must stop early without panicking.
        let g = crate::random::gnp_connected(25, 0.25, 3);
        let run = run_ckk(&g, Duration::from_millis(1));
        assert!(!run.exhausted || run.count() > 0);
        assert!(run.total < Duration::from_secs(2));
    }

    #[test]
    fn rendering_helpers() {
        let rows = vec![vec!["a".to_string(), "1".to_string()]];
        let csv = render_csv(&["name", "value"], &rows);
        assert_eq!(csv, "name,value\na,1\n");
        let md = render_markdown(&["name", "value"], &rows);
        assert!(md.contains("| a | 1 |"));
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
    }

    #[test]
    fn algorithm_run_statistics() {
        let run = AlgorithmRun {
            algorithm: "test".into(),
            init: Duration::from_millis(100),
            samples: vec![
                ResultSample {
                    elapsed: Duration::from_millis(150),
                    width: 3,
                    fill: 5,
                },
                ResultSample {
                    elapsed: Duration::from_millis(200),
                    width: 2,
                    fill: 7,
                },
                ResultSample {
                    elapsed: Duration::from_millis(300),
                    width: 4,
                    fill: 5,
                },
            ],
            total: Duration::from_millis(300),
            exhausted: true,
        };
        assert_eq!(run.count(), 3);
        assert_eq!(run.min_width(), Some(2));
        assert_eq!(run.min_fill(), Some(5));
        assert_eq!(run.count_width_within(2, 1.1), 1);
        assert_eq!(run.count_width_within(3, 1.1), 2);
        assert_eq!(run.count_fill_within(5, 1.1), 2);
        assert_eq!(run.average_delay(), Duration::from_millis(100));
        assert!(run.average_delay_no_init() < run.average_delay());
    }
}
