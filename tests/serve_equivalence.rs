//! Served ≡ direct: the `mtr-serve` daemon must be a transparent
//! transport around the enumeration engines.
//!
//! * For **direct** (cache-off) requests the streamed prefix is
//!   bit-for-bit the `Enumerate::on` output — same costs, same fill
//!   edges, same tie order — because the daemon runs the very same
//!   sequential engine.
//! * For **cached** requests sharing the daemon's one [`AtomStore`],
//!   equality follows the cache-equivalence semantics (see
//!   `tests/cache_equivalence.rs`): identical cost sequences, and on
//!   full streams identical triangulation sets (tie plateaus may be
//!   ordered differently).
//! * Disconnects cancel the session without hurting the daemon, and a
//!   graceful shutdown drains every in-flight stream completely — no
//!   lost, truncated, or duplicated results.

mod common;

use common::arbitrary_graph;
use proptest::prelude::*;
use ranked_triangulations::prelude::*;
use ranked_triangulations::serve::{
    serve_ephemeral, Client, ClientError, EnumerateRequest, ServerConfig, ServerHandle, TenantQuota,
};
use ranked_triangulations::workloads::decomposable;
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::ops::ControlFlow;
use std::sync::OnceLock;

/// One daemon shared by the proptest cases (starting a daemon per case
/// would dominate the runtime). The handle lives for the whole test
/// process; the OS reaps the threads at exit.
fn shared_daemon() -> &'static ServerHandle {
    static DAEMON: OnceLock<ServerHandle> = OnceLock::new();
    DAEMON.get_or_init(|| {
        serve_ephemeral(ServerConfig {
            workers: 4,
            allow_remote_shutdown: false,
            ..ServerConfig::default()
        })
        .expect("bind ephemeral daemon")
    })
}

fn request_for(g: &Graph, cost: &str, cache: bool, max_results: Option<usize>) -> EnumerateRequest {
    EnumerateRequest {
        tenant: "test".into(),
        n: g.n(),
        edges: g.edges().collect(),
        cost: cost.into(),
        width_bound: None,
        max_results,
        deadline_ms: None,
        node_budget: None,
        threads: 1,
        cache,
        binary: false,
    }
}

/// A stream as `(cost, fill)` pairs in emission order.
type Stream = Vec<(f64, Vec<(u32, u32)>)>;

/// The reference stream: the direct sequential engine.
fn direct_stream(g: &Graph, cost: &str, max_results: Option<usize>) -> Stream {
    let mut session = Enumerate::on(g).cost_named(cost).expect("known cost");
    if let Some(k) = max_results {
        session = session.max_results(k);
    }
    let mut out = Vec::new();
    session
        .drive(|r| {
            out.push((r.cost.value(), g.fill_edges_of(&r.triangulation)));
            ControlFlow::Continue(())
        })
        .expect("well-configured session");
    out
}

fn served_stream(addr: &str, req: &EnumerateRequest) -> (Stream, String, String) {
    let mut client = Client::connect_tcp(addr).expect("connect");
    let (results, done) = client.enumerate(req).expect("served request");
    (
        results.into_iter().map(|r| (r.cost, r.fill)).collect(),
        done.stop_reason,
        done.queue,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Direct requests: the streamed prefix equals `Enumerate::on`
    /// bit-for-bit — cost bits, fill edges, and tie order included.
    #[test]
    fn served_direct_equals_enumerate_on(g in arbitrary_graph(4, 8)) {
        let addr = shared_daemon()
            .local_addr()
            .expect("tcp daemon")
            .to_string();
        for cost in ["fill", "width"] {
            for top in [Some(4), None] {
                let reference = direct_stream(&g, cost, top);
                let (served, _, queue) =
                    served_stream(&addr, &request_for(&g, cost, false, top));
                prop_assert_eq!(&queue, "cold", "direct requests never probe warm");
                prop_assert_eq!(served.len(), reference.len());
                for (s, r) in served.iter().zip(&reference) {
                    prop_assert_eq!(s.0.to_bits(), r.0.to_bits(), "cost must match bit-for-bit");
                    prop_assert_eq!(&s.1, &r.1, "fill edges and tie order must match");
                }
            }
        }
    }

    /// Binary framing carries the identical stream.
    #[test]
    fn binary_framing_is_transparent(g in arbitrary_graph(4, 7)) {
        let addr = shared_daemon()
            .local_addr()
            .expect("tcp daemon")
            .to_string();
        let reference = direct_stream(&g, "fill", Some(6));
        let mut req = request_for(&g, "fill", false, Some(6));
        req.binary = true;
        let (served, _, _) = served_stream(&addr, &req);
        prop_assert_eq!(served.len(), reference.len());
        for (s, r) in served.iter().zip(&reference) {
            prop_assert_eq!(s.0.to_bits(), r.0.to_bits());
            prop_assert_eq!(&s.1, &r.1);
        }
    }
}

/// The canonical fill-set key of a full stream (order-insensitive), used
/// for cached comparisons where tie plateaus may reorder.
fn fill_set(stream: &[(f64, Vec<(u32, u32)>)]) -> BTreeSet<Vec<(u32, u32)>> {
    let set: BTreeSet<Vec<(u32, u32)>> = stream
        .iter()
        .map(|(_, fill)| {
            let mut fill = fill.clone();
            fill.sort_unstable();
            fill
        })
        .collect();
    assert_eq!(set.len(), stream.len(), "no duplicate triangulations");
    set
}

/// Acceptance scenario: ≥4 concurrent clients multiplexed onto one
/// shared store. Every full cached stream must carry exactly the direct
/// engine's triangulation set and cost sequence, and repeats of the same
/// graph must eventually classify warm.
#[test]
fn concurrent_clients_share_one_store() {
    let handle = serve_ephemeral(ServerConfig {
        workers: 4,
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    // Multi-atom instance (the cache only engages on factorizable
    // graphs); full unbudgeted streams so set-equality is sound.
    let g = decomposable::gnp_with_bridges(2, 6, 0.35, 42);
    let reference = direct_stream(&g, "fill", None);
    let reference_costs: Vec<u64> = reference.iter().map(|(c, _)| c.to_bits()).collect();
    let reference_set = fill_set(&reference);

    // Warm the store once, then fan out concurrent clients.
    let (first, stop, queue) = served_stream(&addr, &request_for(&g, "fill", true, None));
    assert_eq!(stop, "exhausted");
    assert_eq!(queue, "cold", "nothing cached before the first request");
    assert_eq!(fill_set(&first), reference_set);

    let threads: Vec<_> = (0..4)
        .map(|i| {
            let addr = addr.clone();
            let g = g.clone();
            std::thread::spawn(move || {
                let mut req = request_for(&g, "fill", true, None);
                req.tenant = format!("tenant-{i}");
                served_stream(&addr, &req)
            })
        })
        .collect();
    for t in threads {
        let (stream, stop, queue) = t.join().expect("client thread");
        assert_eq!(stop, "exhausted");
        assert_eq!(queue, "warm", "repeat of a cached graph must admit warm");
        let costs: Vec<u64> = stream.iter().map(|(c, _)| c.to_bits()).collect();
        assert_eq!(costs, reference_costs, "cost sequence must match direct");
        assert_eq!(fill_set(&stream), reference_set);
    }

    let stats = handle.store().stats();
    assert!(
        stats.hits > 0,
        "concurrent repeats must hit the shared store"
    );
    handle.shutdown();
}

/// A client that vanishes mid-stream must cancel its session (the daemon
/// stays healthy and drains instantly afterwards).
#[test]
fn disconnect_mid_stream_cancels_the_session() {
    let handle = serve_ephemeral(ServerConfig {
        workers: 1,
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    // A stream that outlasts the four frames read below: Mycielski-5,
    // unbudgeted, with 4,656 results.
    let g = ranked_triangulations::workloads::structured::mycielski(5);
    {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(ranked_triangulations::serve::protocol::hello_frame().as_bytes())
            .expect("send hello");
        let req = request_for(&g, "fill", false, None);
        stream
            .write_all(ranked_triangulations::serve::protocol::enumerate_frame(&req).as_bytes())
            .expect("send request");
        let mut reader = BufReader::new(stream);
        // Read hello-ack, accepted, and a couple of results, then vanish.
        for _ in 0..4 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read frame");
            assert!(!line.is_empty(), "daemon closed early");
        }
        // Dropping the stream here is the mid-stream disconnect.
    }

    // The single worker must be free again: a fresh request completes.
    let small = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let reference = direct_stream(&small, "fill", None);
    let (served, stop, _) = served_stream(&addr, &request_for(&small, "fill", false, None));
    assert_eq!(stop, "exhausted");
    assert_eq!(served.len(), reference.len());

    // And shutdown drains immediately — it would hang here if the
    // cancelled session were still running.
    handle.shutdown();
}

/// Graceful shutdown drains in-flight sessions: every stream admitted
/// before the signal is delivered completely — identical to the direct
/// engine, with its done frame — despite the daemon refusing new work.
#[test]
fn graceful_shutdown_drains_in_flight_sessions() {
    let handle = serve_ephemeral(ServerConfig {
        workers: 2,
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    let g = decomposable::gnp_with_bridges(2, 6, 0.3, 17);
    let reference = direct_stream(&g, "fill", None);

    let (tx, rx) = std::sync::mpsc::channel();
    let clients: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            let g = g.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).expect("connect");
                let mut req = request_for(&g, "fill", false, None);
                req.tenant = format!("drain-{i}");
                let mut results = Vec::new();
                let mut signalled = false;
                let done = client
                    .enumerate_streaming(&req, |r| {
                        if !signalled {
                            // First result seen → the session is admitted
                            // and running; safe to signal shutdown.
                            tx.send(()).expect("signal");
                            signalled = true;
                        }
                        results.push((r.cost, r.fill));
                    })
                    .expect("stream survives the shutdown");
                (results, done)
            })
        })
        .collect();
    drop(tx);

    // Wait until every client is mid-stream, then drain.
    for _ in 0..3 {
        rx.recv().expect("all clients admitted");
    }
    handle.shutdown();

    for t in clients {
        let (results, done) = t.join().expect("client thread");
        assert_eq!(done.stop_reason, "exhausted", "no stream may be truncated");
        assert_eq!(
            results.len(),
            reference.len(),
            "no lost or duplicated results"
        );
        for (s, r) in results.iter().zip(&reference) {
            assert_eq!(s.0.to_bits(), r.0.to_bits());
            assert_eq!(&s.1, &r.1);
        }
    }
}

/// Live introspection: after serving traffic, the daemon answers a
/// `metrics` frame with per-tenant request counts, the shared store's
/// hit/miss totals, warm/cold classification counters, and a non-empty
/// first-result latency histogram — all from the same connection a
/// client streams results over.
#[test]
fn metrics_frame_reports_live_introspection() {
    let handle = serve_ephemeral(ServerConfig {
        workers: 2,
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    // Traffic: tenant `obs-a` sends the same cached request twice (cold
    // then warm), tenant `obs-b` one direct request.
    let g = decomposable::gnp_with_bridges(2, 6, 0.35, 42);
    let mut cached = request_for(&g, "fill", true, None);
    cached.tenant = "obs-a".into();
    let (_, _, first_queue) = served_stream(&addr, &cached);
    assert_eq!(first_queue, "cold");
    let (_, _, repeat_queue) = served_stream(&addr, &cached);
    assert_eq!(repeat_queue, "warm");
    let small = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let mut direct = request_for(&small, "fill", false, Some(2));
    direct.tenant = "obs-b".into();
    served_stream(&addr, &direct);

    let mut client = Client::connect_tcp(&addr).expect("connect");
    let doc = client.metrics().expect("metrics frame");

    // Per-tenant request counts are exact: the tenant table is this
    // daemon's own.
    let tenant = |name: &str| {
        doc.get("tenants")
            .and_then(|t| t.get(name))
            .and_then(|v| v.as_u64())
    };
    assert_eq!(tenant("obs-a"), Some(2), "got: {}", doc.render());
    assert_eq!(tenant("obs-b"), Some(1), "got: {}", doc.render());

    // The shared store saw the warm repeat.
    let store = |field: &str| {
        doc.get("store")
            .and_then(|s| s.get(field))
            .and_then(|v| v.as_u64())
    };
    assert!(store("hits").expect("store.hits") > 0);
    assert!(store("misses").expect("store.misses") > 0);

    // Registry counters and histograms (process-global, so other tests
    // in this binary may have added to them — lower bounds only).
    let metric = |name: &str| doc.get("metrics").and_then(|m| m.get(name));
    let counter = |name: &str| metric(name).and_then(|v| v.as_u64());
    assert!(counter("serve.warm").expect("serve.warm") >= 1);
    assert!(counter("serve.cold").expect("serve.cold") >= 2);
    assert!(counter("serve.requests").expect("serve.requests") >= 3);

    let first_result = metric("serve.first_result_ns").expect("first-result histogram");
    assert!(
        first_result
            .get("count")
            .and_then(|v| v.as_u64())
            .expect("count")
            >= 3,
        "every streamed request records a first-result latency"
    );
    let buckets = first_result
        .get("buckets")
        .and_then(|b| b.as_arr())
        .expect("buckets array");
    assert!(!buckets.is_empty(), "latency histogram must have samples");
    for pair in buckets {
        let pair = pair.as_arr().expect("bucket pair");
        assert_eq!(pair.len(), 2, "buckets are [le, count] pairs");
    }

    handle.shutdown();
}

/// Version handshake: a mismatched hello is refused with a typed error,
/// exactly like a version-skewed cache file reads as a miss.
#[test]
fn version_mismatch_is_rejected() {
    let handle = serve_ephemeral(ServerConfig {
        workers: 1,
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"{\"frame\": \"hello\", \"magic\": \"MTRW\", \"version\": 999}\n")
        .expect("send hello");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    assert!(line.contains("\"error\""), "got: {line}");
    assert!(line.contains("version-mismatch"), "got: {line}");
    // The daemon closes the connection afterwards.
    let mut rest = String::new();
    reader.read_line(&mut rest).expect("read eof");
    assert!(rest.is_empty());
    handle.shutdown();
}

/// Hostile input must not kill the daemon: a deeply nested JSON bomb
/// (which would overflow the parser's stack without a depth limit) and
/// an over-long line (which would grow `inbuf` without bound) both get a
/// typed error and a close, and the daemon keeps serving afterwards.
#[test]
fn hostile_frames_are_refused_and_the_daemon_survives() {
    let handle = serve_ephemeral(ServerConfig {
        workers: 1,
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    let refused_with = |payload: &[u8], code: &str| {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(payload).expect("send hostile payload");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read error frame");
        assert!(line.contains("\"error\""), "got: {line}");
        assert!(line.contains(code), "expected {code}, got: {line}");
        // The daemon closes the connection afterwards.
        let mut rest = String::new();
        reader.read_line(&mut rest).expect("read eof");
        assert!(rest.is_empty());
    };

    // 100k nested arrays in one line, sent before any handshake.
    let mut bomb = vec![b'['; 100_000];
    bomb.push(b'\n');
    refused_with(&bomb, "bad-json");

    // A line exactly at the daemon's input cap with no newline can never
    // complete. (Exactly at, so the daemon consumes every byte and its
    // close is a clean FIN — a longer payload risks an RST discarding
    // the error frame before the client reads it.)
    let cap = ranked_triangulations::serve::server::MAX_INBUF;
    refused_with(&vec![b'x'; cap], "frame-too-large");

    // The daemon is still healthy: a normal session completes.
    let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let reference = direct_stream(&g, "fill", None);
    let (served, stop, _) = served_stream(&addr, &request_for(&g, "fill", false, None));
    assert_eq!(stop, "exhausted");
    assert_eq!(served.len(), reference.len());
    handle.shutdown();
}

/// Graph-size quotas: a request whose `n` exceeds the cap is refused at
/// admission, before any graph is materialized, and the connection
/// stays usable.
#[test]
fn graph_size_quota_is_enforced() {
    let handle = serve_ephemeral(ServerConfig {
        workers: 1,
        quota: TenantQuota {
            max_vertices: Some(8),
            max_edges: Some(4),
            ..TenantQuota::default()
        },
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    let mut client = Client::connect_tcp(&addr).expect("connect");
    let big = Graph::from_edges(16, &[(0, 1)]);
    match client.enumerate(&request_for(&big, "fill", false, None)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "quota-exceeded"),
        other => panic!("expected a vertex-cap refusal, got {other:?}"),
    }
    let dense = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
    match client.enumerate(&request_for(&dense, "fill", false, None)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "quota-exceeded"),
        other => panic!("expected an edge-cap refusal, got {other:?}"),
    }
    // Within the caps, the same connection still serves.
    let small = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let (results, done) = client
        .enumerate(&request_for(&small, "fill", false, None))
        .expect("request within quota");
    assert_eq!(done.stop_reason, "exhausted");
    assert_eq!(results.len(), direct_stream(&small, "fill", None).len());
    handle.shutdown();
}

/// Per-tenant quotas: a tenant at its concurrency cap is refused with a
/// `quota-exceeded` error frame and the connection stays usable.
#[test]
fn tenant_quota_is_enforced() {
    let handle = serve_ephemeral(ServerConfig {
        workers: 1,
        quota: TenantQuota {
            max_concurrent_sessions: 0,
            ..TenantQuota::default()
        },
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    match client.enumerate(&request_for(&g, "fill", false, None)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "quota-exceeded"),
        other => panic!("expected a quota refusal, got {other:?}"),
    }
    handle.shutdown();
}

/// Budget clamping: the daemon caps `max_results` at the configured
/// quota even when the client asks for an unbounded stream.
#[test]
fn quota_caps_clamp_requested_budgets() {
    let handle = serve_ephemeral(ServerConfig {
        workers: 1,
        quota: TenantQuota {
            max_results_cap: Some(2),
            ..TenantQuota::default()
        },
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    let g = ranked_triangulations::workloads::structured::grid(3, 3);
    let reference = direct_stream(&g, "fill", Some(2));
    let (served, stop, _) = served_stream(&addr, &request_for(&g, "fill", false, None));
    assert_eq!(stop, "max-results");
    assert_eq!(served.len(), 2);
    for (s, r) in served.iter().zip(&reference) {
        assert_eq!(s.0.to_bits(), r.0.to_bits());
        assert_eq!(&s.1, &r.1);
    }
    handle.shutdown();
}

/// A client that vanishes *during admission* — request sent, connection
/// dropped before the accepted frame — must not strand a phantom
/// in-flight session: the admission worker observes the cancel, the
/// daemon keeps serving, and a graceful shutdown drains instantly.
#[test]
fn disconnect_during_admission_leaves_no_phantom_session() {
    let handle = serve_ephemeral(ServerConfig {
        workers: 1,
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    let g = decomposable::gnp_with_bridges(2, 6, 0.3, 99);
    let req = request_for(&g, "fill", false, None);
    for _ in 0..8 {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(ranked_triangulations::serve::protocol::hello_frame().as_bytes())
            .expect("send hello");
        let mut reply = String::new();
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        reader.read_line(&mut reply).expect("hello ack");
        stream
            .write_all(ranked_triangulations::serve::protocol::enumerate_frame(&req).as_bytes())
            .expect("send request");
        // Drop without reading the accepted frame: the request may still
        // be sitting in the admission queue when the disconnect lands.
        drop(reader);
        drop(stream);
    }

    // The daemon is healthy and the worker free: a fresh request
    // completes in full.
    let reference = direct_stream(&g, "fill", None);
    let (served, stop, _) = served_stream(&addr, &request_for(&g, "fill", false, None));
    assert_eq!(stop, "exhausted");
    assert_eq!(served.len(), reference.len());

    // Shutdown would hang on any phantom in-flight session.
    handle.shutdown();
}

/// A request racing the shutdown signal has exactly two sane outcomes —
/// refused with `shutting-down`, or admitted and drained to a complete
/// stream. Never a hang, never a truncated stream.
#[test]
fn shutdown_while_request_pending_refuses_or_drains() {
    let g = decomposable::gnp_with_bridges(2, 6, 0.3, 7);
    let reference = direct_stream(&g, "fill", None);
    // The race window is sub-millisecond; iterate a few daemons with the
    // shutdown signal landing at staggered delays to land on both sides.
    for delay_us in [0u64, 50, 200, 800] {
        let handle = serve_ephemeral(ServerConfig {
            workers: 1,
            allow_remote_shutdown: false,
            ..ServerConfig::default()
        })
        .expect("bind daemon");
        let addr = handle.local_addr().expect("tcp daemon").to_string();

        let mut client = Client::connect_tcp(&addr).expect("connect");
        let shutdown = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            handle.shutdown();
        });
        match client.enumerate(&request_for(&g, "fill", false, None)) {
            Ok((results, done)) => {
                // Admitted before the signal: the drain must deliver the
                // complete stream.
                assert_eq!(done.stop_reason, "exhausted", "no truncated streams");
                assert_eq!(results.len(), reference.len());
            }
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, "shutting-down", "the only valid refusal");
            }
            Err(ClientError::Io(_)) => {
                // The listener may already be gone mid-handshake or the
                // socket closed while the request was in flight — a
                // transport-level close is a fair outcome of losing the
                // race, as long as the shutdown itself completes.
            }
            Err(other) => panic!("unexpected failure mode: {other}"),
        }
        shutdown.join().expect("shutdown completes — no hang");
    }
}
