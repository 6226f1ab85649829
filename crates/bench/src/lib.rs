//! `mtr-bench`: the benchmark harness that regenerates every table and
//! figure of the paper's evaluation (Section 7) on the synthetic dataset
//! stand-ins, plus Criterion micro-benchmarks and ablations.
//!
//! Binaries (each prints a Markdown table and writes a CSV under
//! `results/`):
//!
//! | target | paper artifact |
//! |---|---|
//! | `fig5_tractability` | Figure 5 — tractability of MinSep/PMC per dataset |
//! | `fig6_minsep_distribution` | Figure 6 — #minimal separators vs #edges |
//! | `fig7_random_minseps` | Figure 7 — #minimal separators of `G(n,p)` |
//! | `table2_comparison` | Table 2 — RankedTriang vs CKK under a time budget |
//! | `fig8_random_comparison` | Figure 8 — delay and quality on random graphs |
//! | `fig9_case_study` | Figure 9 — results-over-time case studies |
//!
//! Budgets are scaled down from the paper's 30-minute server runs to
//! laptop-friendly defaults; set the environment variables
//! `MTR_BUDGET_SECS`, `MTR_SCALE` (`smoke`/`standard`/`large`) to adjust.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mtr_graph::Graph;
use mtr_workloads::experiment::AlgorithmRun;
use mtr_workloads::random::gnp_connected;
use mtr_workloads::structured::{grid, mycielski};
use mtr_workloads::DatasetScale;
use std::path::PathBuf;
use std::time::Duration;

/// The inputs of the `ranked_first_10_results` workload, by bench ID,
/// shared by the `enumeration`, `obs_overhead` and `fault_overhead`
/// benches so that their rows in `BENCH_baseline.json`, `BENCH_obs.json`
/// and `BENCH_fault.json` compare directly.
pub fn baseline_instances() -> Vec<(&'static str, Graph)> {
    vec![
        ("grid4x4", grid(4, 4)),
        ("myciel4", mycielski(4)),
        ("gnp20_020", gnp_connected(20, 0.20, 7)),
    ]
}

/// Reads the experiment scale from `MTR_SCALE` (default: standard).
pub fn scale_from_env() -> DatasetScale {
    match std::env::var("MTR_SCALE")
        .unwrap_or_default()
        .to_lowercase()
        .as_str()
    {
        "smoke" => DatasetScale::Smoke,
        "large" => DatasetScale::Large,
        _ => DatasetScale::Standard,
    }
}

/// Reads the per-run time budget from `MTR_BUDGET_SECS` (default given by
/// the caller).
pub fn budget_from_env(default_secs: f64) -> Duration {
    let secs = std::env::var("MTR_BUDGET_SECS")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(default_secs);
    Duration::from_secs_f64(secs)
}

/// Hardware threads the recording host actually exposes. Thread-scaling
/// snapshots are only meaningful relative to this number, so it belongs in
/// every recorded JSON's `host` section as `host_parallelism`.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prints a loud warning when a thread-scaling benchmark is about to run
/// more worker threads than the host has hardware threads: every
/// oversubscribed row measures scheduling overhead, not speedup, and the
/// snapshot must be interpreted (and ideally re-recorded) accordingly.
/// Returns the detected parallelism so callers can embed it in notes.
pub fn warn_if_oversubscribed(max_threads: usize) -> usize {
    let host = host_parallelism();
    if host < max_threads {
        eprintln!(
            "WARNING: this host exposes host_parallelism = {host} hardware thread(s), \
             but the benchmark scales up to {max_threads} workers. Rows with \
             threads > {host} measure pool oversubscription overhead, not speedup; \
             record host_parallelism in the snapshot's host section and re-record \
             on a wider host to observe scaling."
        );
    }
    host
}

/// Writes a report file under `results/`, creating the directory if needed.
/// Returns the path written.
pub fn write_report(name: &str, contents: &str) -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("cannot create results/ directory");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("cannot write report");
    path
}

/// One aggregated Table-2 row for one algorithm on one dataset family.
#[derive(Clone, Debug, Default)]
pub struct Table2Row {
    /// Dataset family name.
    pub dataset: String,
    /// Algorithm label.
    pub algorithm: String,
    /// Number of graphs aggregated.
    pub graphs: usize,
    /// Total number of triangulations returned.
    pub trng: usize,
    /// Average initialization time in seconds.
    pub init: f64,
    /// Average delay (including initialization) in seconds.
    pub delay: f64,
    /// Average delay excluding initialization in seconds.
    pub delay_no_init: f64,
    /// Average minimum width found.
    pub min_w: f64,
    /// Total number of width-optimal results (width = per-graph optimum).
    pub n_min_w: usize,
    /// Total number of results within 1.1× of the per-graph optimal width.
    pub n_near_w: usize,
    /// Average minimum fill found.
    pub min_f: f64,
    /// Total number of fill-optimal results.
    pub n_min_f: usize,
    /// Total number of results within 1.1× of the per-graph optimal fill.
    pub n_near_f: usize,
}

impl Table2Row {
    /// Renders the row as strings in the column order of the paper's table.
    pub fn to_cells(&self) -> Vec<String> {
        vec![
            self.dataset.clone(),
            self.algorithm.clone(),
            self.graphs.to_string(),
            self.trng.to_string(),
            format!("{:.3}", self.init),
            format!("{:.4}", self.delay),
            format!("{:.4}", self.delay_no_init),
            format!("{:.1}", self.min_w),
            self.n_min_w.to_string(),
            self.n_near_w.to_string(),
            format!("{:.1}", self.min_f),
            self.n_min_f.to_string(),
            self.n_near_f.to_string(),
        ]
    }

    /// The column headers matching [`Table2Row::to_cells`].
    pub fn headers() -> Vec<&'static str> {
        vec![
            "dataset",
            "algorithm",
            "#graphs",
            "#trng",
            "init",
            "delay",
            "delay_no_init",
            "min-w",
            "#min-w",
            "#<=1.1min-w",
            "min-f",
            "#min-f",
            "#<=1.1min-f",
        ]
    }
}

/// Accumulates one graph's runs into a Table-2 aggregate.
///
/// `width_run` and `fill_run` are the runs whose *result streams* are scored
/// for width and fill quality respectively (for the ranked algorithm these
/// are two separate runs; the unranked baseline reuses the same run for
/// both). `best_width` / `best_fill` are the per-graph optima used as the
/// reference for the `#min` and `#≤1.1·min` columns — the paper uses the
/// best value found by either algorithm.
pub fn accumulate_row(
    row: &mut Table2Row,
    width_run: &AlgorithmRun,
    fill_run: &AlgorithmRun,
    init: Duration,
    best_width: usize,
    best_fill: usize,
) {
    row.graphs += 1;
    row.trng += width_run.count();
    row.init += init.as_secs_f64();
    row.delay += width_run.average_delay().as_secs_f64();
    row.delay_no_init += width_run.average_delay_no_init().as_secs_f64();
    row.min_w += width_run.min_width().unwrap_or(0) as f64;
    row.n_min_w += width_run.count_width_within(best_width, 1.0);
    row.n_near_w += width_run.count_width_within(best_width, 1.1);
    row.min_f += fill_run.min_fill().unwrap_or(0) as f64;
    row.n_min_f += fill_run.count_fill_within(best_fill, 1.0);
    row.n_near_f += fill_run.count_fill_within(best_fill, 1.1);
}

/// Divides the averaged fields by the number of graphs (call once after all
/// graphs have been accumulated).
pub fn finalize_row(row: &mut Table2Row) {
    if row.graphs == 0 {
        return;
    }
    let k = row.graphs as f64;
    row.init /= k;
    row.delay /= k;
    row.delay_no_init /= k;
    row.min_w /= k;
    row.min_f /= k;
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtr_workloads::experiment::ResultSample;

    fn fake_run(widths: &[usize]) -> AlgorithmRun {
        AlgorithmRun {
            algorithm: "fake".into(),
            init: Duration::from_millis(10),
            samples: widths
                .iter()
                .enumerate()
                .map(|(i, &w)| ResultSample {
                    elapsed: Duration::from_millis(10 * (i as u64 + 1)),
                    width: w,
                    fill: w * 2,
                })
                .collect(),
            total: Duration::from_millis(100),
            exhausted: true,
        }
    }

    #[test]
    fn table2_row_accumulation() {
        let mut row = Table2Row {
            dataset: "d".into(),
            algorithm: "a".into(),
            ..Default::default()
        };
        let run = fake_run(&[2, 3, 2]);
        accumulate_row(&mut row, &run, &run, Duration::from_millis(10), 2, 4);
        accumulate_row(&mut row, &run, &run, Duration::from_millis(30), 2, 4);
        finalize_row(&mut row);
        assert_eq!(row.graphs, 2);
        assert_eq!(row.trng, 6);
        assert!((row.init - 0.02).abs() < 1e-9);
        assert_eq!(row.n_min_w, 4);
        assert_eq!(row.n_near_w, 4);
        assert_eq!(row.n_min_f, 4);
        assert_eq!(row.to_cells().len(), Table2Row::headers().len());
    }

    #[test]
    fn env_helpers_have_defaults() {
        assert_eq!(budget_from_env(1.5), Duration::from_secs_f64(1.5));
        let _ = scale_from_env();
    }
}
