//! Chaos suite: fault injection against every hardened layer.
//!
//! The `mtr-fault` failpoints let these tests inject panics, I/O errors,
//! and transient failures at the exact seams the robustness work
//! hardened, and pin the invariants that must survive them:
//!
//! * A **panicking in-flight session** (a worker-pool task blowing up
//!   mid-request) fails that one request with a typed `internal-error`
//!   frame — concurrent clients stream bit-for-bit the direct engine's
//!   results and a fresh connection succeeds immediately after.
//! * **Disk faults never change results**: with `cache.disk.read` /
//!   `cache.disk.write` erroring probabilistically, cached sessions
//!   still return exactly the fault-free stream (failed writes are
//!   skipped publishes, failed reads are typed misses).
//! * **Torn files are quarantined and re-fetched**: a truncated cache
//!   file trips the payload checksum, moves aside as `.corrupt`, reads
//!   as a miss, and the slot heals on the next publish.
//! * **Retry converges**: a client with `RetryPolicy` rides out
//!   transient daemon-side faults and ends with the exact stream.
//!
//! The failpoint registry is process-global, so every test that arms it
//! holds [`FAULT_LOCK`] — the suite lives in its own test binary
//! precisely so arming a failpoint cannot race another suite's
//! fault-free sessions.

mod common;

use common::arbitrary_graph;
use proptest::prelude::*;
use ranked_triangulations::cache::{DiskBackend, DiskError};
use ranked_triangulations::fault::{self, Outcome};
use ranked_triangulations::prelude::*;
use ranked_triangulations::serve::{
    enumerate_with_retry, serve_ephemeral, Client, ClientError, EnumerateRequest, RetryPolicy,
    ServerConfig,
};
use ranked_triangulations::workloads::decomposable;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serializes every fault-arming test: the registry is process-global,
/// and an armed point would otherwise leak into a concurrent test's
/// supposedly fault-free run. The guard clears the registry on both
/// acquisition and drop, so a panicking test cannot strand an armed
/// failpoint for the next one.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

struct FaultGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for FaultGuard {
    fn drop(&mut self) {
        fault::clear_all();
    }
}

fn fault_guard() -> FaultGuard {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    fault::clear_all();
    FaultGuard(guard)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtr_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request_for(g: &Graph, cache: bool, threads: usize) -> EnumerateRequest {
    EnumerateRequest {
        tenant: "chaos".into(),
        n: g.n(),
        edges: g.edges().collect(),
        cost: "fill".into(),
        width_bound: None,
        max_results: None,
        deadline_ms: None,
        node_budget: None,
        threads,
        cache,
        binary: false,
    }
}

/// A stream as `(cost bits, fill)` pairs in emission order.
type Stream = Vec<(u64, Vec<(u32, u32)>)>;

/// The reference stream: the direct sequential engine, no faults armed.
fn direct_stream(g: &Graph) -> Stream {
    let mut out = Vec::new();
    Enumerate::on(g)
        .cost(&FillIn)
        .drive(|r| {
            out.push((r.cost.value().to_bits(), g.fill_edges_of(&r.triangulation)));
            ControlFlow::Continue(())
        })
        .expect("well-configured session");
    out
}

/// Order-insensitive identity of a full stream (cached runs may reorder
/// cost-tie plateaus).
fn fill_set(stream: &Stream) -> BTreeSet<Vec<(u32, u32)>> {
    let set: BTreeSet<_> = stream
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

// ---------------------------------------------------------------------------
// Daemon: panic isolation
// ---------------------------------------------------------------------------

/// The acceptance scenario: a worker-pool task panics mid-request while
/// concurrent clients stream. The faulted request gets a typed
/// `internal-error` frame, every concurrent stream is bit-for-bit the
/// direct engine's, and a fresh connection succeeds — the daemon never
/// notices beyond the one failed session.
#[test]
fn panicking_session_spares_concurrent_clients() {
    let _guard = fault_guard();
    let handle = serve_ephemeral(ServerConfig {
        workers: 4,
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    let g = decomposable::gnp_with_bridges(2, 6, 0.35, 42);
    let reference = direct_stream(&g);

    // Only multi-threaded sessions run pool tasks, so arming the
    // failpoint faults exactly the `threads: 2` request below while the
    // single-threaded concurrent clients run fault-free.
    fault::configure("pool.task", Outcome::Panic);

    let healthy: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let g = g.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).expect("connect");
                let mut out: Stream = Vec::new();
                let done = client
                    .enumerate_streaming(&request_for(&g, false, 1), |r| {
                        out.push((r.cost.to_bits(), r.fill));
                    })
                    .expect("healthy stream");
                (out, done.stop_reason)
            })
        })
        .collect();

    let mut faulted = Client::connect_tcp(&addr).expect("connect");
    let err = faulted
        .enumerate(&request_for(&g, false, 2))
        .expect_err("the panicking session must fail");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, "internal-error"),
        other => panic!("expected a typed internal-error frame, got: {other}"),
    }
    assert!(
        fault::trips("pool.task") > 0,
        "the failpoint must have fired"
    );

    for t in healthy {
        let (stream, stop) = t.join().expect("client thread");
        assert_eq!(stop, "exhausted");
        assert_eq!(
            stream, reference,
            "concurrent streams must be bit-for-bit the direct engine's"
        );
    }

    // The failed request's connection stays usable...
    fault::clear_all();
    let (retry, done) = faulted
        .enumerate(&request_for(&g, false, 2))
        .expect("the connection survives its failed session");
    assert_eq!(done.stop_reason, "exhausted");
    assert_eq!(
        fill_set(
            &retry
                .iter()
                .map(|r| (r.cost.to_bits(), r.fill.clone()))
                .collect()
        ),
        fill_set(&reference)
    );

    // ...and so does a fresh one.
    let mut fresh = Client::connect_tcp(&addr).expect("fresh connect");
    let (stream, done) = fresh
        .enumerate(&request_for(&g, false, 1))
        .expect("fresh connection succeeds");
    assert_eq!(done.stop_reason, "exhausted");
    let stream: Stream = stream
        .into_iter()
        .map(|r| (r.cost.to_bits(), r.fill))
        .collect();
    assert_eq!(stream, reference);

    handle.shutdown();
}

/// The `serve.session.run` failpoint surfaces as a typed frame and the
/// same connection serves the next request — per-request containment,
/// not per-connection.
#[test]
fn injected_session_fault_is_a_typed_frame() {
    let _guard = fault_guard();
    let handle = serve_ephemeral(ServerConfig {
        workers: 1,
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();
    let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let reference = direct_stream(&g);

    for outcome in [Outcome::Error, Outcome::Panic] {
        fault::configure("serve.session.run", outcome);
        let mut client = Client::connect_tcp(&addr).expect("connect");
        let err = client
            .enumerate(&request_for(&g, false, 1))
            .expect_err("armed failpoint must fail the request");
        match err {
            ClientError::Server { code, message } => {
                assert_eq!(code, "internal-error");
                assert!(
                    message.contains("serve.session.run"),
                    "the frame names the failpoint: {message}"
                );
            }
            other => panic!("expected a typed internal-error frame, got: {other}"),
        }
        fault::clear("serve.session.run");
        // Same connection, next request: healthy.
        let (stream, done) = client
            .enumerate(&request_for(&g, false, 1))
            .expect("connection survives the fault");
        assert_eq!(done.stop_reason, "exhausted");
        let stream: Stream = stream
            .into_iter()
            .map(|r| (r.cost.to_bits(), r.fill))
            .collect();
        assert_eq!(stream, reference);
    }

    handle.shutdown();
}

/// A client retry policy converges through transient daemon-side faults
/// (`fail:2` = the first two attempts fail, the third succeeds) and the
/// final stream is exactly the direct engine's.
#[test]
fn retry_converges_after_transient_faults() {
    let _guard = fault_guard();
    let handle = serve_ephemeral(ServerConfig {
        workers: 2,
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();
    let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
    let reference = direct_stream(&g);

    fault::configure("serve.session.run", Outcome::FailFirstK(2));
    let policy = RetryPolicy {
        retries: 3,
        backoff_ms: 1,
        seed: 7,
    };
    let (results, done) = enumerate_with_retry(
        || Client::connect_tcp(&addr),
        &request_for(&g, false, 1),
        &policy,
    )
    .expect("retry must converge once the transient fault clears");
    assert_eq!(done.stop_reason, "exhausted");
    assert_eq!(
        fault::trips("serve.session.run"),
        2,
        "exactly the first two attempts were faulted"
    );
    let stream: Stream = results
        .into_iter()
        .map(|r| (r.cost.to_bits(), r.fill))
        .collect();
    assert_eq!(stream, reference);

    // Zero-retry clients see the fault as-is: no silent retries.
    fault::configure("serve.session.run", Outcome::FailFirstK(1));
    let err = enumerate_with_retry(
        || Client::connect_tcp(&addr),
        &request_for(&g, false, 1),
        &RetryPolicy::default(),
    )
    .expect_err("no retries requested");
    assert!(matches!(err, ClientError::Server { ref code, .. } if code == "internal-error"));

    handle.shutdown();
}

/// The daemon-side watchdog cancels a runaway session at the cap; the
/// stream ends with a clean `cancelled` done frame (anytime semantics —
/// results already streamed are kept) and the daemon serves on.
#[test]
fn watchdog_cancels_runaway_sessions() {
    // The session must end by the watchdog, not by a fault another test
    // armed on `serve.session.run`.
    let _guard = fault_guard();
    let handle = serve_ephemeral(ServerConfig {
        workers: 1,
        max_session_ms: Some(50),
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    // Its 4,656 minimal triangulations take seconds to exhaust, far longer
    // than the cap.
    let big = ranked_triangulations::workloads::structured::mycielski(5);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let (_, done) = client
        .enumerate(&request_for(&big, false, 1))
        .expect("a watchdog cancel is a clean stop, not an error");
    assert_eq!(done.stop_reason, "cancelled");

    // The single worker is free again immediately.
    let small = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
    let (_, done) = client
        .enumerate(&request_for(&small, false, 1))
        .expect("daemon serves on after a watchdog cancel");
    assert_eq!(done.stop_reason, "exhausted");

    handle.shutdown();
}

/// The session cap holds through a graceful drain. With one runner, a
/// second runaway session is still queued when shutdown begins; it must be
/// cancelled at the cap like the first, so the drain finishes.
#[test]
fn watchdog_cancels_sessions_queued_during_drain() {
    // Both sessions must end by the watchdog, not by a fault another test
    // armed on `serve.session.run`.
    let _guard = fault_guard();
    const TENANT: &str = "drain-watchdog";
    let handle = serve_ephemeral(ServerConfig {
        workers: 1,
        max_session_ms: Some(100),
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    // Its 4,656 minimal triangulations take seconds to exhaust, far longer
    // than the cap.
    let big = ranked_triangulations::workloads::structured::mycielski(5);
    let request = EnumerateRequest {
        tenant: TENANT.into(),
        ..request_for(&big, false, 1)
    };
    let clients: Vec<_> = (0..2)
        .map(|_| {
            let (addr, request) = (addr.clone(), request.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect_tcp(&addr).expect("connect");
                client.enumerate(&request).map(|(_, done)| done.stop_reason)
            })
        })
        .collect();

    // Signal shutdown only once the daemon has admitted both requests.
    let mut observer = Client::connect_tcp(&addr).expect("connect");
    let admitted_by = Instant::now() + Duration::from_secs(10);
    loop {
        let doc = observer.metrics().expect("metrics frame");
        let admitted = doc
            .get("tenants")
            .and_then(|t| t.get(TENANT))
            .and_then(|n| n.as_u64())
            .unwrap_or(0);
        if admitted >= 2 {
            break;
        }
        assert!(Instant::now() < admitted_by, "requests were not admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(observer);

    // A drain that strands a session never returns: bound the wait so the
    // test fails instead of hanging.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        handle.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("graceful shutdown must finish within 10 s");
    for client in clients {
        let stop_reason = client
            .join()
            .expect("client thread")
            .expect("a watchdog cancel is a clean stop, not an error");
        assert_eq!(stop_reason, "cancelled");
    }
}

/// The watchdog stops a session inside PMC enumeration, the part of
/// preprocessing that polls the cancel flag: the done frame reports
/// `cancelled` with no result and incomplete preprocessing, long before
/// preprocessing could have finished.
#[test]
fn watchdog_cancels_sessions_in_pmc_enumeration() {
    // The session must end by the watchdog, not by a fault another test
    // armed on `serve.session.run`.
    let _guard = fault_guard();
    let handle = serve_ephemeral(ServerConfig {
        workers: 1,
        max_session_ms: Some(50),
        allow_remote_shutdown: false,
        ..ServerConfig::default()
    })
    .expect("bind daemon");
    let addr = handle.local_addr().expect("tcp daemon").to_string();

    // 1,091 minimal separators and 7,172 PMCs: uncapped, PMC enumeration
    // takes about 1.9 s in a release build and 14 s in a debug one, where
    // the flag is polled at least every 30 ms over the first 100 ms.
    let g = ranked_triangulations::workloads::random::gnp_connected(30, 0.15, 5);
    let request = request_for(&g, false, 1);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let mut client = Client::connect_tcp(&addr).expect("connect");
        let _ = done_tx.send(client.enumerate(&request));
    });
    let (results, done) = done_rx
        .recv_timeout(Duration::from_millis(500))
        .expect("the done frame must arrive within 500 ms")
        .expect("a watchdog cancel is a clean stop, not an error");
    assert_eq!(done.stop_reason, "cancelled");
    assert!(results.is_empty());
    assert_eq!(
        done.stats
            .get("preprocessing_complete")
            .and_then(|v| v.as_bool()),
        Some(false),
        "got: {}",
        done.stats.render()
    );

    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Disk cache: crash safety
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Probabilistic read/write faults on the disk tier never change
    /// enumeration results: cold with failing writes, rerun with failing
    /// reads, and a fault-free healing run all produce the fault-free
    /// stream (failed writes are skipped publishes, failed reads typed
    /// misses).
    #[test]
    fn disk_faults_never_change_results(
        g in arbitrary_graph(4, 7),
        seed in 1u64..u64::MAX,
    ) {
        let _guard = fault_guard();
        let dir = tmpdir(&format!("prop_{seed}"));
        let reference = {
            let run = Enumerate::on(&g)
                .cost(&FillIn)
                .reduce(ReductionLevel::Full)
                .run()
                .expect("fault-free reduced session");
            run.results
        };
        let run_cached = |g: &Graph| {
            Enumerate::on(g)
                .cost(&FillIn)
                .cache(CachePolicy::Dir(dir.clone()))
                .reduce(ReductionLevel::Full)
                .run()
                .expect("cached sessions absorb disk faults")
                .results
        };

        fault::set_seed(seed);
        fault::configure_with("cache.disk.write", Outcome::Error, 50);
        fault::configure_with("cache.disk.read", Outcome::Error, 50);
        let faulted_cold = run_cached(&g);
        let faulted_warm = run_cached(&g);
        fault::clear_all();
        let healed = run_cached(&g);

        for (label, stream) in [
            ("cold+faults", &faulted_cold),
            ("warm+faults", &faulted_warm),
            ("healed", &healed),
        ] {
            prop_assert_eq!(
                stream.len(), reference.len(),
                "{}: result count differs", label
            );
            for (s, r) in stream.iter().zip(&reference) {
                prop_assert_eq!(
                    s.cost.value().to_bits(), r.cost.value().to_bits(),
                    "{}: cost sequence differs", label
                );
            }
            let key = |list: &[RankedTriangulation]| -> BTreeSet<Vec<(u32, u32)>> {
                list.iter()
                    .map(|r| {
                        let mut fill = g.fill_edges_of(&r.triangulation);
                        fill.sort_unstable();
                        fill
                    })
                    .collect()
            };
            prop_assert_eq!(key(stream), key(&reference), "{}: fill sets differ", label);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Torn (truncated) cache files trip the payload checksum, quarantine as
/// `.corrupt`, read as typed misses, and the slots heal on republish —
/// results never change.
#[test]
fn torn_files_are_quarantined_and_refetched() {
    // The cold run must persist its atoms: no other test may have
    // `cache.disk.write` armed meanwhile.
    let _guard = fault_guard();
    let dir = tmpdir("torn");
    let g = decomposable::gnp_with_bridges(2, 10, 0.4, 802);
    let run_dir = |g: &Graph| {
        Enumerate::on(g)
            .cost(&FillIn)
            .max_results(10)
            .cache(CachePolicy::Dir(dir.clone()))
            .reduce(ReductionLevel::Full)
            .run()
            .expect("dir-cached session cannot fail")
    };
    let cold = run_dir(&g);
    assert!(cold.stats.cache_bytes > 0);

    // Tear every persisted file: keep the headers, drop the tails.
    let mut torn = 0;
    for entry in std::fs::read_dir(&dir).expect("cache dir") {
        let path = entry.expect("dir entry").path();
        let bytes = std::fs::read(&path).expect("read cache file");
        std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).expect("tear file");
        torn += 1;
    }
    assert!(torn > 0, "the cold run persisted at least one atom");

    let repaired = run_dir(&g);
    assert_eq!(repaired.stats.atom_cache_hits, 0, "torn files never hit");
    let costs = |run: &EnumerationRun| -> Vec<u64> {
        run.results
            .iter()
            .map(|r| r.cost.value().to_bits())
            .collect()
    };
    assert_eq!(costs(&cold), costs(&repaired), "results survive the tears");

    // Every torn file moved aside as `.corrupt` (nothing deleted
    // silently), and the repaired run re-published good files that hit.
    let mut corrupt = 0;
    for entry in std::fs::read_dir(&dir).expect("cache dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "corrupt") {
            corrupt += 1;
        }
    }
    assert_eq!(corrupt, torn, "each torn file is quarantined exactly once");
    let warm = run_dir(&g);
    assert!(warm.stats.atom_cache_hits > 0, "re-published files hit");
    std::fs::remove_dir_all(&dir).ok();
}

/// An I/O-level read fault (disk flake, not corruption) is surfaced
/// without quarantining: the file is intact and serves again once the
/// fault clears.
#[test]
fn io_read_faults_do_not_quarantine() {
    let _guard = fault_guard();
    let dir = tmpdir("io_read");
    let backend = DiskBackend::open(&dir).expect("open backend");
    let key = ranked_triangulations::cache::AtomKey {
        graph: ranked_triangulations::graph::CanonicalKey::from_words([3, 14]),
        cost_id: "fill-in".into(),
        width_bound: None,
    };
    backend
        .store(
            &key,
            &ranked_triangulations::cache::CachedPrefix {
                entries: vec![ranked_triangulations::cache::CacheEntry {
                    cost: 2.0,
                    fill: vec![(0, 2)],
                }],
                complete: true,
            },
        )
        .expect("store");
    let path = backend.path_of(&key);

    fault::configure("cache.disk.read", Outcome::Error);
    assert!(
        matches!(backend.load(&key), Err(DiskError::Io(_))),
        "the injected fault is a typed I/O error"
    );
    assert!(path.exists(), "an I/O error must not quarantine the file");
    fault::clear_all();
    let loaded = backend.load(&key).expect("load").expect("hit");
    assert_eq!(loaded.entries.len(), 1, "the file served untouched");
}

/// A write fault surfaces as a typed error and leaves no temp files: the
/// write-to-temp/rename discipline means a failed publish is invisible.
#[test]
fn write_faults_surface_and_leave_no_temp_files() {
    let _guard = fault_guard();
    let dir = tmpdir("io_write");
    let backend = DiskBackend::open(&dir).expect("open backend");
    let key = ranked_triangulations::cache::AtomKey {
        graph: ranked_triangulations::graph::CanonicalKey::from_words([2, 71]),
        cost_id: "width".into(),
        width_bound: None,
    };
    let prefix = ranked_triangulations::cache::CachedPrefix {
        entries: vec![ranked_triangulations::cache::CacheEntry {
            cost: 1.0,
            fill: vec![(1, 3)],
        }],
        complete: false,
    };

    fault::configure("cache.disk.write", Outcome::Error);
    assert!(backend.store(&key, &prefix).is_err(), "the fault surfaces");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert!(
        leftovers.is_empty(),
        "a failed write leaves nothing behind: {leftovers:?}"
    );
    assert!(
        backend.load(&key).expect("load").is_none(),
        "the slot reads as a clean miss"
    );

    fault::clear_all();
    backend.store(&key, &prefix).expect("healed write");
    assert!(backend.load(&key).expect("load").is_some(), "slot heals");
    std::fs::remove_dir_all(&dir).ok();
}
