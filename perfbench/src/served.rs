//! served-mix: an open loop of independent tenants sending the traffic
//! trace to an in-process `mtr-serve` daemon over TCP.

use crate::config::{ServedMix, Tails, SERVED_MIX};
use crate::inputs::{self, CostKind};
use crate::probe::{time, Probes};
use crate::stats::{mean, ratio, tail, Metrics};
use crate::validate::{self, Ranked};
use crate::{ms, peak_rss_mb, Outcome};
use mtr_cache::AtomStore;
use mtr_core::{min_triangulation, Enumerate, Preprocessed};
use mtr_graph::{CanonicalForm, CanonicalKey, Graph};
use mtr_serve::json::Json;
use mtr_serve::{serve_ephemeral, Client, EnumerateRequest, ServerConfig, ServerHandle};
use mtr_workloads::traffic::TrafficRequest;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The daemon and its inputs, ready for the first arrival.
pub struct Setup {
    trace: Vec<TrafficRequest>,
    arrivals: Vec<f64>,
    handle: ServerHandle,
    clients: Vec<Client>,
}

/// Generates the trace and arrival schedule, starts a daemon with its own
/// byte-budgeted store, and opens the client connections.
pub fn setup(seed: u64, seconds: f64) -> Setup {
    let cfg = &SERVED_MIX;
    let (trace, arrivals) = inputs::served_mix(seed, seconds);
    let handle = serve_ephemeral(ServerConfig {
        workers: cfg.runners,
        store: Some(AtomStore::in_memory(cfg.store_budget_bytes)),
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind a loopback daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();
    let clients = (0..cfg.connections)
        .map(|_| Client::connect_tcp(&addr).expect("connect to the daemon"))
        .collect();
    Setup {
        trace,
        arrivals,
        handle,
        clients,
    }
}

/// One request as the generator saw it; times in ms.
struct Record {
    index: usize,
    cost: CostKind,
    lag_ms: f64,
    /// From the arrival's due time.
    first_ms: Option<f64>,
    /// From the moment the request was sent.
    first_from_send_ms: Option<f64>,
    delays_ms: Vec<f64>,
    request_ms: f64,
    outcome: Result<Served, String>,
}

struct Served {
    stream: Vec<Ranked>,
    warm: bool,
    stats: Json,
}

fn request(cfg: &ServedMix, index: usize, graph: &Graph) -> EnumerateRequest {
    EnumerateRequest {
        tenant: format!("tenant-{}", index % cfg.tenants),
        n: graph.n(),
        edges: graph.edges().collect(),
        cost: CostKind::alternating(index).wire_name().into(),
        width_bound: None,
        max_results: Some(cfg.top),
        deadline_ms: None,
        node_budget: None,
        threads: 1,
        cache: true,
        binary: true,
    }
}

/// One client connection's share of the open loop: take the next arrival,
/// wait for its due time, send it, stream the answer.
fn drive_connection(
    cfg: &ServedMix,
    setup_trace: &[TrafficRequest],
    arrivals: &[f64],
    next: &AtomicUsize,
    start: Instant,
    window: f64,
    mut client: Client,
) -> Vec<Record> {
    let mut records = Vec::new();
    // Requests due in the window are all sent; past this the run is
    // overloaded and the rest are dropped so the benchmark still ends.
    let give_up = start + Duration::from_secs_f64(window * 3.0 + 10.0);
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= setup_trace.len() || arrivals[index] >= window {
            return records;
        }
        let due = start + Duration::from_secs_f64(arrivals[index]);
        let now = Instant::now();
        if now > give_up {
            return records;
        }
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let req = request(cfg, index, &setup_trace[index].graph);
        let mut stamps = Vec::with_capacity(cfg.top);
        let mut stream = Vec::with_capacity(cfg.top);
        let mut ranks_ok = true;
        let done = client.enumerate_streaming(&req, |r| {
            stamps.push(Instant::now());
            ranks_ok &= r.rank == stream.len() as u64;
            stream.push(Ranked {
                cost: r.cost,
                fill: r.fill,
            });
        });
        let end = Instant::now();
        let outcome = match done {
            Ok(done) if !ranks_ok => Err(format!("out-of-order ranks ({})", done.results)),
            Ok(done) if done.results != stream.len() => Err(format!(
                "done frame counts {} results, {} arrived",
                done.results,
                stream.len()
            )),
            Ok(done) => Ok(Served {
                stream,
                warm: done.queue == "warm",
                stats: done.stats,
            }),
            Err(e) => Err(e.to_string()),
        };
        records.push(Record {
            index,
            cost: CostKind::alternating(index),
            lag_ms: ms(sent.saturating_duration_since(due)),
            first_ms: stamps.first().map(|&t| ms(t - due)),
            first_from_send_ms: stamps.first().map(|&t| ms(t - sent)),
            delays_ms: stamps.windows(2).map(|w| ms(w[1] - w[0])).collect(),
            request_ms: ms(end - due),
            outcome,
        });
    }
}

/// Plays the trace's arrivals that fall in the window; returns the
/// records in arrival order and the wall time until the last reply.
fn play(cfg: &ServedMix, setup: &mut Setup, window: f64) -> (Vec<Record>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let clients = std::mem::take(&mut setup.clients);
    let (trace, arrivals) = (&setup.trace, &setup.arrivals);
    let mut records: Vec<Record> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    drive_connection(cfg, trace, arrivals, next, start, window, client)
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    records.sort_by_key(|r| r.index);
    (records, wall_s)
}

fn graph_key(g: &Graph) -> (u32, Vec<(u32, u32)>) {
    (g.n(), g.edges().collect())
}

/// `stream` with every fill edge renamed into canonical labels.
fn to_canonical(stream: &[Ranked], inverse: &[u32]) -> Vec<Ranked> {
    stream
        .iter()
        .map(|r| Ranked {
            cost: r.cost,
            fill: r
                .fill
                .iter()
                .map(|&(u, v)| {
                    let (a, b) = (inverse[u as usize], inverse[v as usize]);
                    (a.min(b), a.max(b))
                })
                .collect(),
        })
        .collect()
}

/// The direct engine's answer for one isomorphism class and cost, in
/// canonical labels: the `min_triangulation` optimum and the top stream.
struct Reference {
    optimum: Option<f64>,
    stream: Vec<Ranked>,
}

/// Runs the direct sequential engine on one representative graph per
/// isomorphism class, for each cost the class was requested under. The
/// two costs share one `Preprocessed`, which is what `Enumerate::on`
/// builds for a threads-1 session, so the streams are `Enumerate::on`'s.
fn references(
    cfg: &ServedMix,
    classes: &[(&Graph, &CanonicalForm, Vec<CostKind>)],
) -> Vec<Vec<Reference>> {
    std::thread::scope(|scope| {
        let half = classes.len().div_ceil(2).max(1);
        let workers: Vec<_> = classes
            .chunks(half)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|(g, form, kinds)| {
                            let pre = Preprocessed::new(g);
                            let inverse = form.inverse();
                            kinds
                                .iter()
                                .map(|kind| {
                                    let run = Enumerate::with(&pre)
                                        .cost(kind.cost())
                                        .max_results(cfg.top)
                                        .run()
                                        .expect("traffic requests are well-formed");
                                    let stream: Vec<Ranked> = run
                                        .results
                                        .iter()
                                        .map(|r| Ranked {
                                            cost: r.cost.value(),
                                            fill: g.fill_edges_of(&r.triangulation),
                                        })
                                        .collect();
                                    Reference {
                                        optimum: min_triangulation(&pre, kind.cost())
                                            .map(|t| t.cost.value()),
                                        stream: to_canonical(&stream, &inverse),
                                    }
                                })
                                .collect()
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("validator thread"))
            .collect()
    })
}

/// Checks every served stream and compares it with the direct
/// `Enumerate::on` stream of its graph and cost. Requests on isomorphic
/// graphs share one reference, compared in canonical labels: the
/// comparison (`validate::same_ranking`) looks only at costs and at the
/// sets of triangulations per completed cost plateau, both of which an
/// isomorphism carries over. Returns the failed request count and the
/// digest over all served streams in arrival order.
fn validate_records(
    cfg: &ServedMix,
    trace: &[TrafficRequest],
    records: &[Record],
    notes: &mut Vec<String>,
) -> (usize, String) {
    let mut forms: HashMap<(u32, Vec<(u32, u32)>), CanonicalForm> = HashMap::new();
    for r in records {
        let g = &trace[r.index].graph;
        forms
            .entry(graph_key(g))
            .or_insert_with(|| g.canonical_form());
    }
    let mut class_of: HashMap<CanonicalKey, usize> = HashMap::new();
    let mut classes: Vec<(&Graph, &CanonicalForm, Vec<CostKind>)> = Vec::new();
    for r in records {
        let g = &trace[r.index].graph;
        let form = &forms[&graph_key(g)];
        let class = *class_of.entry(form.key).or_insert_with(|| {
            classes.push((g, form, Vec::new()));
            classes.len() - 1
        });
        if !classes[class].2.contains(&r.cost) {
            classes[class].2.push(r.cost);
        }
    }
    let references = references(cfg, &classes);

    let mut failed = 0;
    let mut exact = 0;
    let mut digest = validate::Digest::new();
    for r in records {
        let g = &trace[r.index].graph;
        let form = &forms[&graph_key(g)];
        let class = class_of[&form.key];
        let slot = classes[class].2.iter().position(|&k| k == r.cost);
        let reference = &references[class][slot.expect("cost recorded for its class")];
        let verdict = r.outcome.as_ref().map_err(Clone::clone).and_then(|served| {
            validate::check_stream(g, r.cost.cost(), reference.optimum, &served.stream)?;
            let canonical = to_canonical(&served.stream, &form.inverse());
            validate::same_ranking(&canonical, &reference.stream, cfg.top)
                .map_err(|e| format!("differs from the direct Enumerate::on stream: {e}"))?;
            if canonical == reference.stream {
                exact += 1;
            }
            Ok(&served.stream)
        });
        match verdict {
            Ok(stream) => digest.stream(r.index as u64, stream),
            Err(e) => {
                failed += 1;
                if failed <= 10 {
                    notes.push(format!("FAILED request {}: {e}", r.index));
                }
            }
        }
    }
    notes.push(format!(
        "{exact} of {} served streams also match the direct tie order; {} isomorphism classes",
        records.len(),
        classes.len()
    ));
    (failed, digest.hex())
}

fn end_to_end(m: &mut Metrics, records: &[Record], wall_s: f64, tails: Tails) {
    let first: Vec<f64> = records.iter().filter_map(|r| r.first_ms).collect();
    let delays: Vec<f64> = records
        .iter()
        .flat_map(|r| r.delays_ms.iter().copied())
        .collect();
    let requests: Vec<f64> = records.iter().map(|r| r.request_ms).collect();
    let results: usize = records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .map(|s| s.stream.len())
        .sum();
    m.latency("first_result_ms", &first, tails.first_result);
    m.latency("delay_ms", &delays, tails.delay);
    m.latency("request_ms", &requests, tails.request);
    m.set("results_per_s", results as f64 / wall_s, "1/s");
}

/// The measured run: end-to-end metrics, validation, digest.
pub fn measure(seed: u64, seconds: f64) -> Outcome {
    let cfg = &SERVED_MIX;
    let mut setup = setup(seed, seconds);
    let (records, wall_s) = play(cfg, &mut setup, seconds);
    let rss = peak_rss_mb();
    setup.handle.shutdown();

    let mut m = Metrics::default();
    end_to_end(&mut m, &records, wall_s, cfg.tails);
    m.set("peak_rss_mb", rss, "MB");
    let mut notes = Vec::new();
    let (failed, digest) = validate_records(cfg, &setup.trace, &records, &mut notes);
    let (label, lag) = tail(&records.iter().map(|r| r.lag_ms).collect::<Vec<_>>());
    m.notes.extend(notes);
    m.notes.push(format!(
        "{} requests at {} /s over {} connections in {wall_s:.2} s; generator lag {label} {lag:.3} ms",
        records.len(),
        cfg.rate_per_s,
        cfg.connections
    ));
    Outcome {
        metrics: m,
        attempted: records.len(),
        failed,
        digest: Some(digest),
    }
}

fn histogram_mean(registry: &Json, name: &str) -> f64 {
    let h = registry.get(name);
    let field = |k: &str| {
        h.and_then(|h| h.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    ratio(field("sum"), field("count"))
}

fn number(doc: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |node, key| node.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The traced run: the trace played twice on fresh daemons, first with
/// the daemon's default obs level (timed), then at Trace level; the layer
/// numbers come from the second pass's `metrics` frame, store counters and
/// done frames, plus client-side probes of the distinct atoms. Both passes
/// are validated as in the measured run.
pub fn trace(seed: u64, seconds: f64) -> Outcome {
    let cfg = &SERVED_MIX;
    let half = seconds / 2.0;
    let mut plain = setup(seed, half);
    let (plain_records, _) = play(cfg, &mut plain, half);
    plain.handle.shutdown();

    mtr_obs::reset();
    mtr_obs::set_level(mtr_obs::Level::Trace);
    let mut traced = setup(seed, half);
    let addr = traced.handle.local_addr().expect("tcp daemon").to_string();
    let (records, _) = play(cfg, &mut traced, half);
    let frame = Client::connect_tcp(&addr)
        .and_then(|mut c| c.metrics())
        .expect("metrics frame");
    traced.handle.shutdown();
    mtr_obs::set_level(mtr_obs::Level::Off);
    let mut notes = Vec::new();
    let (plain_failed, _) = validate_records(cfg, &plain.trace, &plain_records, &mut notes);
    let (traced_failed, _) = validate_records(cfg, &traced.trace, &records, &mut notes);

    let mut m = Metrics::default();
    // Per-atom probes first: the request-level work counts from the done
    // frames below replace the probes' per-atom counts.
    probe_atoms(&mut m, &traced.trace, &records);
    let registry = frame.get("metrics").cloned().unwrap_or(Json::Null);
    let served: Vec<&Served> = records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .collect();
    let n = served.len().max(1) as f64;
    let per_request = |key: &str| served.iter().map(|s| number(&s.stats, &[key])).sum::<f64>() / n;
    let mean_of =
        |f: fn(&Record) -> Option<f64>| mean(&records.iter().filter_map(f).collect::<Vec<_>>());

    let plain_ms = mean(
        &plain_records
            .iter()
            .map(|r| r.request_ms)
            .collect::<Vec<_>>(),
    );
    let traced_ms = mean_of(|r| Some(r.request_ms));
    let lag = mean_of(|r| Some(r.lag_ms));
    let admission = histogram_mean(&registry, "serve.admission_wait_ns") / 1e6;
    let daemon_first = histogram_mean(&registry, "serve.first_result_ns") / 1e6;
    let session_ms = per_request("total_secs") * 1e3;
    let accounted = lag + admission + session_ms;
    m.set("trace.request_ms", plain_ms, "ms");
    m.set("trace.traced_request_ms", traced_ms, "ms");
    m.set(
        "trace.overhead_frac",
        ratio(traced_ms, plain_ms) - 1.0,
        "fraction",
    );
    m.set("trace.accounted_ms", accounted, "ms");
    m.set("trace.unaccounted_ms", traced_ms - accounted, "ms");
    let (_, lag_tail) = tail(&records.iter().map(|r| r.lag_ms).collect::<Vec<_>>());
    m.set("load.generator_lag_ms.tail", lag_tail, "ms");

    m.set("serve.admission_wait_ms", admission, "ms");
    m.set("serve.first_result_ms", daemon_first, "ms");
    m.set(
        "serve.transport_ms",
        mean_of(|r| r.first_from_send_ms) - daemon_first,
        "ms",
    );
    m.set(
        "serve.warm_frac",
        served.iter().filter(|s| s.warm).count() as f64 / n,
        "fraction",
    );
    m.set(
        "serve.backpressure_stalls",
        number(&registry, &["serve.backpressure_stalls"]),
        "count",
    );

    let store = |key: &str| number(&frame, &["store", key]);
    m.set("cache.hits", store("hits"), "count");
    m.set("cache.misses", store("misses"), "count");
    m.set(
        "cache.hit_ratio",
        ratio(store("hits"), store("hits") + store("misses")),
        "ratio",
    );
    m.set("cache.publishes", store("publishes"), "count");
    m.set("cache.evictions", store("evictions"), "count");
    m.set(
        "cache.lookup_ns",
        histogram_mean(&registry, "cache.lookup_ns"),
        "ns",
    );
    m.set(
        "cache.publish_ns",
        histogram_mean(&registry, "cache.publish_ns"),
        "ns",
    );

    m.set("reduce.atoms", per_request("atoms"), "count");
    m.set(
        "reduce.atoms_deduped",
        per_request("atoms_deduped"),
        "count",
    );
    m.set(
        "reduce.stream.advances",
        number(&registry, &["reduce.stream.advances"]) / n,
        "count",
    );
    m.set(
        "reduce.stream.advance_ns",
        histogram_mean(&registry, "reduce.stream.advance_ns"),
        "ns",
    );
    m.set("core.dp.solves", per_request("nodes_explored"), "count");
    m.set("core.lawler.pruned", per_request("nodes_pruned"), "count");
    m.set(
        "core.lawler.enumerate_ms",
        (per_request("total_secs") - per_request("preprocessing_secs")) * 1e3,
        "ms",
    );
    m.set(
        "core.lawler.results_per_solve",
        ratio(per_request("results"), per_request("nodes_explored")),
        "ratio",
    );
    m.set(
        "core.lawler.max_queue_depth",
        per_request("max_queue_depth"),
        "count",
    );
    m.set("pmc.count", per_request("pmcs"), "count");
    m.set(
        "pmc.minseps.count",
        per_request("minimal_separators"),
        "count",
    );
    m.set(
        "core.prepare.blocks.count",
        per_request("full_blocks"),
        "count",
    );
    m.set(
        "core.lawler.replayed",
        served
            .iter()
            .map(|s| number(&s.stats, &["symmetry", "subproblems_replayed"]))
            .sum::<f64>()
            / n,
        "count",
    );

    m.notes.extend(notes);
    m.notes.push(format!(
        "traced {} requests: request_ms {traced_ms:.3} = lag + admission + session {accounted:.3} \
         + unaccounted {:.3}",
        records.len(),
        traced_ms - accounted
    ));
    m.notes.push(format!(
        "store: {} entries, {} of {} bytes after {} evictions",
        store("entries"),
        store("bytes"),
        cfg.store_budget_bytes,
        store("evictions")
    ));
    Outcome {
        metrics: m,
        attempted: records.len() + plain_records.len(),
        failed: plain_failed + traced_failed,
        digest: None,
    }
}

/// Client-side probes of the layers below the daemon: decomposition per
/// distinct request graph, and the graph, PMC and DP layers per distinct
/// non-chordal atom (the unit the daemon enumerates and caches), on the
/// session's path (threads 1, no width bound).
fn probe_atoms(m: &mut Metrics, trace: &[TrafficRequest], records: &[Record]) {
    use mtr_reduce::{decompose, ReductionLevel};
    let mut graphs = HashSet::new();
    let mut atoms = HashSet::new();
    let mut probes = Probes::default();
    let mut decompose_ms = Vec::new();
    for r in records {
        let g = &trace[r.index].graph;
        if !graphs.insert(graph_key(g)) {
            continue;
        }
        let (d, t) = time(|| decompose(g, ReductionLevel::Full));
        decompose_ms.push(t);
        for atom in d.atoms.iter().filter(|a| !a.chordal) {
            if atoms.insert((graph_key(&atom.graph), r.cost)) {
                probes.graph(&atom.graph, r.cost.cost(), None, 1);
            }
        }
    }
    probes.report(m);
    m.set("reduce.decompose_ms", mean(&decompose_ms), "ms");
}
