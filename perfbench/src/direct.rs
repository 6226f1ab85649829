//! The in-process workloads (ranked-seq, cold-start): a closed loop of
//! `Enumerate::on` requests, cycling through the seeded inputs for the
//! measurement window.

use crate::config::Tails;
use crate::counting::Counting;
use crate::inputs::DirectRequest;
use crate::probe::{time, Probes};
use crate::stats::{mean, ratio, Metrics};
use crate::validate::{self, Digest, Ranked};
use crate::{ms, peak_rss_mb, Outcome};
use mtr_core::{BagCost, Enumerate, EnumerationError, EnumerationStats, RankedTriangulation};
use mtr_graph::Graph;
use mtr_obs::{Level, MetricValue};
use mtr_reduce::{decompose, ReductionLevel};
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Session knobs shared by every request of a workload, and the tail
/// quantiles it reports.
pub struct Settings {
    pub threads: usize,
    pub top: usize,
    pub tails: Tails,
}

/// One request's timings (milliseconds from the `drive` call) and output.
struct Timed {
    request_ms: f64,
    first_ms: Option<f64>,
    delays_ms: Vec<f64>,
    results: Vec<RankedTriangulation>,
    stats: EnumerationStats,
}

fn timed<K: BagCost + Sync + ?Sized>(
    req: &DirectRequest,
    cost: &K,
    settings: &Settings,
) -> Result<Timed, EnumerationError> {
    let mut session = Enumerate::on(&req.graph)
        .cost(cost)
        .threads(settings.threads)
        .max_results(settings.top);
    if let Some(bound) = req.width_bound {
        session = session.width_bound(bound);
    }
    let mut results = Vec::with_capacity(settings.top);
    let mut stamps = Vec::with_capacity(settings.top);
    let start = Instant::now();
    let report = session.drive(|r| {
        stamps.push(Instant::now());
        results.push(r);
        ControlFlow::Continue(())
    })?;
    let request_ms = ms(start.elapsed());
    Ok(Timed {
        request_ms,
        first_ms: stamps.first().map(|&t| ms(t - start)),
        delays_ms: stamps.windows(2).map(|w| ms(w[1] - w[0])).collect(),
        results,
        stats: report.stats,
    })
}

fn ranked(g: &Graph, results: &[RankedTriangulation]) -> Vec<Ranked> {
    results
        .iter()
        .map(|r| Ranked {
            cost: r.cost.value(),
            fill: g.fill_edges_of(&r.triangulation),
        })
        .collect()
}

/// Per-input bookkeeping: the first stream seen, and how its executions
/// went. Every later execution must reproduce the first stream exactly.
#[derive(Default)]
struct Seen {
    stream: Option<Vec<Ranked>>,
    executions: usize,
    bad: usize,
}

impl Seen {
    fn record(
        &mut self,
        outcome: Result<Vec<Ranked>, String>,
        label: &str,
        notes: &mut Vec<String>,
    ) {
        self.executions += 1;
        match (outcome, &self.stream) {
            (Err(e), _) => {
                self.bad += 1;
                notes.push(format!("FAILED {label}: {e}"));
            }
            (Ok(stream), None) => self.stream = Some(stream),
            (Ok(stream), Some(first)) => {
                if &stream != first {
                    self.bad += 1;
                    notes.push(format!("FAILED {label}: stream differs from its first run"));
                }
            }
        }
    }
}

/// Runs every input the window did not reach once, so that the digest
/// covers every input whatever the window. Returns how many ran.
fn run_unreached(
    inputs: &[DirectRequest],
    seen: &mut [Seen],
    settings: &Settings,
    notes: &mut Vec<String>,
) -> usize {
    let mut extra = 0;
    for (req, s) in inputs.iter().zip(seen.iter_mut()) {
        if s.executions == 0 {
            extra += 1;
            let outcome = timed(req, req.cost.cost(), settings)
                .map(|t| ranked(&req.graph, &t.results))
                .map_err(|e| e.to_string());
            s.record(outcome, &req.label, notes);
        }
    }
    extra
}

/// Validates each input's stream (two validator threads) and returns the
/// requests that failed plus the digest over all streams in input order.
fn validate_seen(
    inputs: &[DirectRequest],
    seen: &[Seen],
    notes: &mut Vec<String>,
) -> (usize, String) {
    let verdicts: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let half = inputs.len().div_ceil(2);
        let workers: Vec<_> = inputs
            .chunks(half)
            .zip(seen.chunks(half))
            .map(|(reqs, seen)| {
                scope.spawn(move || {
                    reqs.iter()
                        .zip(seen)
                        .map(|(req, s)| match &s.stream {
                            None => Ok(()),
                            Some(stream) => {
                                let cost = req.cost.cost();
                                let best = validate::optimum(&req.graph, cost, req.width_bound);
                                validate::check_stream(&req.graph, cost, best, stream)
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("validator thread"))
            .collect()
    });
    let mut failed = 0;
    let mut digest = Digest::new();
    for (i, ((req, s), verdict)) in inputs.iter().zip(seen).zip(verdicts).enumerate() {
        match verdict {
            Ok(()) => failed += s.bad,
            Err(e) => {
                failed += s.executions;
                notes.push(format!("INVALID {}: {e}", req.label));
            }
        }
        digest.stream(i as u64, s.stream.as_deref().unwrap_or(&[]));
    }
    (failed, digest.hex())
}

/// The measured run: tracing off, end-to-end metrics only.
pub fn measure(inputs: &[DirectRequest], settings: &Settings, seconds: f64) -> Outcome {
    mtr_obs::set_level(Level::Off);
    let mut seen: Vec<Seen> = inputs.iter().map(|_| Seen::default()).collect();
    let mut notes = Vec::new();
    let (mut first, mut delays, mut requests) = (Vec::new(), Vec::new(), Vec::new());
    let mut results = 0usize;
    let mut attempted = 0usize;
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < window {
        let req = &inputs[attempted % inputs.len()];
        let slot = attempted % inputs.len();
        attempted += 1;
        let outcome = timed(req, req.cost.cost(), settings).map(|t| {
            requests.push(t.request_ms);
            first.extend(t.first_ms);
            delays.extend(t.delays_ms);
            results += t.results.len();
            ranked(&req.graph, &t.results)
        });
        seen[slot].record(outcome.map_err(|e| e.to_string()), &req.label, &mut notes);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    let extra = run_unreached(inputs, &mut seen, settings, &mut notes);
    let (failed, digest) = validate_seen(inputs, &seen, &mut notes);
    let mut metrics = Metrics::default();
    let tails = settings.tails;
    metrics.latency("first_result_ms", &first, tails.first_result);
    metrics.latency("delay_ms", &delays, tails.delay);
    metrics.latency("request_ms", &requests, tails.request);
    metrics.set("results_per_s", results as f64 / wall_s, "1/s");
    metrics.set("peak_rss_mb", rss, "MB");
    metrics.notes.extend(notes);
    metrics.notes.push(format!(
        "{attempted} requests over {} inputs in {wall_s:.2} s, {extra} more run only for the digest",
        inputs.len()
    ));
    Outcome {
        metrics,
        attempted: attempted + extra,
        failed,
        digest: Some(digest),
    }
}

/// Per-request readings of the traced run.
#[derive(Default)]
struct Layers {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    lawler_ms: Vec<f64>,
    accounted_ms: Vec<f64>,
    decompose_ms: Vec<f64>,
    atoms: Vec<f64>,
    solves: f64,
    combines: f64,
    results: f64,
    pruned: f64,
    replayed: f64,
    max_queue: Vec<f64>,
    worker_tasks: Vec<f64>,
}

/// The traced run: each request once with tracing off (timed), once with
/// the obs level at Trace and a counting cost (work counts), then the
/// per-layer probes on its graph. The untraced streams are validated as in
/// the measured run; a traced stream that differs from its untraced one is
/// a failure too.
pub fn trace(inputs: &[DirectRequest], settings: &Settings, seconds: f64) -> Outcome {
    mtr_obs::set_level(Level::Off);
    mtr_obs::reset();
    let mut layers = Layers::default();
    let mut probes = Probes::default();
    let mut seen: Vec<Seen> = inputs.iter().map(|_| Seen::default()).collect();
    let mut notes = Vec::new();
    let mut attempted = 0usize;
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while start.elapsed() < window {
        let req = &inputs[attempted % inputs.len()];
        let slot = attempted % inputs.len();
        attempted += 1;
        let cost = req.cost.cost();
        let counting = Counting::new(cost);
        let plain = timed(req, cost, settings);
        mtr_obs::set_level(Level::Trace);
        let traced = timed(req, &counting, settings);
        mtr_obs::set_level(Level::Off);
        let (plain, traced) = match (plain, traced) {
            (Ok(p), Ok(t)) => (p, t),
            (p, t) => {
                let err = p.err().or(t.err()).expect("one side failed");
                seen[slot].record(Err(err.to_string()), &req.label, &mut notes);
                continue;
            }
        };
        let stream = ranked(&req.graph, &plain.results);
        let outcome = if stream == ranked(&req.graph, &traced.results) {
            Ok(stream)
        } else {
            Err("traced stream differs".to_string())
        };
        seen[slot].record(outcome, &req.label, &mut notes);
        let stats = &plain.stats;
        let lawler = ms(stats.total.saturating_sub(stats.preprocessing));
        let preprocessing = probes.graph(&req.graph, cost, req.width_bound, settings.threads);
        let (d, decompose_ms) = time(|| decompose(&req.graph, ReductionLevel::Full));
        layers.decompose_ms.push(decompose_ms);
        layers.atoms.push(d.atoms.len() as f64);
        layers.untraced_ms.push(plain.request_ms);
        layers.traced_ms.push(traced.request_ms);
        layers.lawler_ms.push(lawler);
        layers.accounted_ms.push(preprocessing + lawler);
        layers.solves += stats.nodes_explored as f64;
        layers.combines += counting.combines() as f64;
        layers.results += stats.results as f64;
        layers.pruned += stats.nodes_pruned as f64;
        layers.replayed += stats.subproblems_replayed as f64;
        layers.max_queue.push(stats.max_queue_depth as f64);
        let tasks = &traced.stats.worker_tasks;
        if layers.worker_tasks.len() < tasks.len() {
            layers.worker_tasks.resize(tasks.len(), 0.0);
        }
        for (sum, &t) in layers.worker_tasks.iter_mut().zip(tasks) {
            *sum += t as f64;
        }
    }

    let (failed, _) = validate_seen(inputs, &seen, &mut notes);
    let mut m = Metrics::default();
    let n = attempted.max(1) as f64;
    let untraced = mean(&layers.untraced_ms);
    let accounted = mean(&layers.accounted_ms);
    m.set("trace.request_ms", untraced, "ms");
    m.set("trace.traced_request_ms", mean(&layers.traced_ms), "ms");
    m.set(
        "trace.overhead_frac",
        ratio(mean(&layers.traced_ms), untraced) - 1.0,
        "fraction",
    );
    m.set("trace.accounted_ms", accounted, "ms");
    m.set("trace.unaccounted_ms", untraced - accounted, "ms");
    probes.report(&mut m);
    m.set("core.dp.solves", layers.solves / n, "count");
    m.set("core.dp.combines", layers.combines / n, "count");
    m.set(
        "core.dp.combines_per_solve",
        ratio(layers.combines, layers.solves),
        "count",
    );
    m.set("core.lawler.enumerate_ms", mean(&layers.lawler_ms), "ms");
    m.set(
        "core.lawler.results_per_solve",
        ratio(layers.results, layers.solves),
        "ratio",
    );
    m.set("core.lawler.pruned", layers.pruned / n, "count");
    m.set("core.lawler.replayed", layers.replayed / n, "count");
    m.set(
        "core.lawler.max_queue_depth",
        mean(&layers.max_queue),
        "count",
    );
    pool_metrics(&mut m, &layers.worker_tasks, n);
    m.set("reduce.decompose_ms", mean(&layers.decompose_ms), "ms");
    m.set("reduce.atoms", mean(&layers.atoms), "count");
    m.notes.extend(notes);
    m.notes.push(format!(
        "traced {attempted} requests: request_ms {untraced:.3} = pmc + blocks + lawler {accounted:.3} \
         + unaccounted {:.3} ({:.1}%)",
        untraced - accounted,
        100.0 * ratio(untraced - accounted, untraced)
    ));
    Outcome {
        metrics: m,
        attempted,
        failed,
        digest: None,
    }
}

/// `core.pool.*` from the obs registry (per request), plus the spread of
/// tasks over workers: the busiest worker's share relative to an even
/// split (1.0 = perfectly even, 0 when no pool ran).
fn pool_metrics(m: &mut Metrics, worker_tasks: &[f64], requests: f64) {
    for metric in mtr_obs::snapshot() {
        match (metric.name.as_str(), metric.value) {
            ("core.pool.tasks", MetricValue::Counter(v)) => {
                m.set("core.pool.tasks", v as f64 / requests, "count")
            }
            ("core.pool.steals", MetricValue::Counter(v)) => {
                m.set("core.pool.steals", v as f64 / requests, "count")
            }
            ("core.pool.task_ns", MetricValue::Histogram(h)) => m.set(
                "core.pool.task_ns",
                ratio(h.sum as f64, h.count as f64),
                "ns",
            ),
            _ => {}
        }
    }
    let total: f64 = worker_tasks.iter().sum();
    let busiest = worker_tasks.iter().copied().fold(0.0, f64::max);
    let even = ratio(total, worker_tasks.len() as f64);
    m.set("core.pool.worker_spread", ratio(busiest, even), "ratio");
}
