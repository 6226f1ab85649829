//! Observability overhead: the `mtr-obs` hooks are on every hot path, so
//! their cost must be measured, not assumed.
//!
//! * `obs_overhead` — the `ranked_first_10_results` workload (same
//!   instances as the `enumeration` bench, so rows compare directly
//!   against `BENCH_baseline.json`) at each instrumentation level:
//!   `off` (every hook is one relaxed atomic load — the ≤2% budget),
//!   `metrics` (counters and histograms live — the ≤10% budget), and
//!   `trace` (spans recorded to the bounded ring on top of metrics).
//! * `metrics_frame` — round-trip latency of the daemon's `metrics`
//!   introspection frame over a live connection, with registry and
//!   tenant table populated by prior traffic.
//!
//! Snapshot with `MTR_BENCH_JSON=BENCH_obs.json cargo bench -p
//! mtr-bench --bench obs_overhead`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtr_bench::baseline_instances;
use mtr_core::cost::Width;
use mtr_core::{Enumerate, Preprocessed};
use mtr_serve::{serve_ephemeral, Client, EnumerateRequest, ServerConfig};
use std::time::Duration;

/// The baseline workload of `BENCH_baseline.json`'s
/// `ranked_first_10_results` suite, repeated at every obs level.
fn bench_levels(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs_overhead");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for (mode, level) in [
        ("off", mtr_obs::Level::Off),
        ("metrics", mtr_obs::Level::Metrics),
        ("trace", mtr_obs::Level::Trace),
    ] {
        mtr_obs::set_level(level);
        for (name, g) in baseline_instances() {
            let pre = Preprocessed::new(&g);
            group.bench_with_input(BenchmarkId::new(mode, name), &pre, |b, pre| {
                b.iter(|| {
                    Enumerate::with(pre)
                        .cost(&Width)
                        .max_results(10)
                        .run()
                        .expect("session is well-configured")
                        .results
                        .len()
                })
            });
        }
    }
    mtr_obs::set_level(mtr_obs::Level::Off);
    group.finish();
}

/// Round-trip latency of the `metrics` frame against a live daemon whose
/// registry, store, and tenant table already hold traffic.
fn bench_metrics_frame(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics_frame");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));

    let handle = serve_ephemeral(ServerConfig {
        workers: 2,
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind bench daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    // Populate every section of the frame: a cached request (store
    // traffic + tenant row) served twice (cold, then warm).
    let g = mtr_workloads::decomposable::gnp_with_bridges(2, 6, 0.35, 42);
    let req = EnumerateRequest {
        tenant: "bench".into(),
        n: g.n(),
        edges: g.edges().collect(),
        cost: "fill".into(),
        width_bound: None,
        max_results: Some(5),
        deadline_ms: None,
        node_budget: None,
        threads: 1,
        cache: true,
        binary: false,
    };
    let mut warmup = Client::connect_tcp(&addr).expect("connect");
    warmup.enumerate(&req).expect("cold warm-up request");
    warmup.enumerate(&req).expect("warm warm-up request");

    let mut client = Client::connect_tcp(&addr).expect("connect");
    group.bench_with_input(BenchmarkId::from_parameter("roundtrip"), &(), |b, ()| {
        b.iter(|| client.metrics().expect("metrics frame"))
    });
    group.finish();

    drop(client);
    drop(warmup);
    handle.shutdown();
    mtr_obs::set_level(mtr_obs::Level::Off);
}

criterion_group!(benches, bench_levels, bench_metrics_frame);
criterion_main!(benches);
