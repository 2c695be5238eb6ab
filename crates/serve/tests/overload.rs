//! Synthetic-overload and fault-injection suite: a real server with a
//! tiny admission budget, burst traffic at 4x that budget, and an armed
//! [`FaultPlan`] forcing worker panics, stalls and reservation
//! abandonment — proving the overload invariants:
//!
//! * every request receives exactly one *typed* reply (result, error, or
//!   `overloaded` with `retry_after_ms`) — nothing is lost, nothing hangs;
//! * exactly-once computation survives injected panics (a replacement
//!   worker recomputes, concurrent waiters still get one result);
//! * the daemon stays live while shedding: control-plane ops (`estimate`,
//!   `stats`) answer during full budget occupancy, and fresh work is
//!   served after the burst (no worker is permanently pinned);
//! * the metrics line reports sheds, queue depth and budget occupancy,
//!   and the cache exactly-once counters still balance;
//! * shutdown is clean with traffic in flight.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use mve_kernels::Scale;
use mve_serve::client::{Client, ClientError};
use mve_serve::json::Json;
use mve_serve::protocol::scale_name;
use mve_serve::server::{ArtefactFn, ArtefactRegistry, ServeOptions, Server};
use mve_serve::{CostModel, FaultPlan, Request};

/// Distinct artefact names for the burst: each is a unique cache key, so
/// cache accounting is exact (no same-key coalescing in phase one).
const BURST_NAMES: [&str; 10] = ["b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9"];

/// A registry where every artefact render sleeps `hold_ms` (so budget
/// occupancy is observable) and bumps the shared render counter.
fn slow_registry(renders: Arc<AtomicU64>, hold_ms: u64) -> ArtefactRegistry {
    let mut entries: Vec<(&'static str, ArtefactFn)> = Vec::new();
    for name in BURST_NAMES {
        let renders = Arc::clone(&renders);
        entries.push((
            name,
            Arc::new(move |scale| {
                renders.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(hold_ms));
                format!("{name} at {} scale\n", scale_name(scale))
            }),
        ));
    }
    ArtefactRegistry::new(entries)
}

fn boot(
    opts: ServeOptions,
    registry: ArtefactRegistry,
) -> (
    u16,
    mve_serve::ShutdownHandle,
    std::thread::JoinHandle<Json>,
) {
    let server = Server::bind(&opts, registry).expect("bind ephemeral port");
    let port = server.port();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (port, handle, join)
}

fn stat(stats: &Json, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats lack `{key}`: {stats:?}"))
}

fn artefact_req(name: &str) -> Request {
    Request::Artefact {
        name: name.to_owned(),
        scale: Scale::Test,
    }
}

/// The tentpole scenario: a burst of 4x the budget with injected panics
/// and stalls. Every request gets exactly one typed reply, sheds flow
/// while the daemon stays live, cache counters balance, shutdown is
/// clean.
#[test]
fn burst_at_4x_budget_with_faults_sheds_but_loses_nothing() {
    let model = CostModel::committed();
    let unit_cost = model.artefact_cost(Scale::Test);
    // Budget fits 2 concurrent artefacts; the 10-request burst asks for
    // 10 units — 5x the in-flight capacity, 4x+ the budget either way.
    let budget = 2 * unit_cost;
    let faults = FaultPlan::new();
    // The first compute stalls then panics; the second panics outright.
    faults.panic_next(2);
    faults.stall_next(1, Duration::from_millis(30));
    let renders = Arc::new(AtomicU64::new(0));
    let (port, _handle, join) = boot(
        ServeOptions {
            workers: BURST_NAMES.len() + 2,
            cost_budget: budget,
            queue_cap: 2,
            queue_deadline: Duration::from_millis(100),
            faults: faults.clone(),
            ..ServeOptions::default()
        },
        slow_registry(Arc::clone(&renders), 80),
    );

    // Phase 1: the burst. One request per connection, all released
    // together; classify every outcome.
    let ok_names = Mutex::new(Vec::new());
    let (mut ok, mut errors, mut sheds) = (0u64, 0u64, 0u64);
    let start = Barrier::new(BURST_NAMES.len());
    let outcomes: Vec<&str> = std::thread::scope(|s| {
        let handles: Vec<_> = BURST_NAMES
            .iter()
            .map(|name| {
                let (start, ok_names) = (&start, &ok_names);
                s.spawn(move || {
                    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
                    start.wait();
                    match client.request(&artefact_req(name)) {
                        Ok(_) => {
                            ok_names.lock().unwrap().push(*name);
                            "ok"
                        }
                        Err(ClientError::Overloaded { retry_after_ms, .. }) => {
                            assert!(retry_after_ms >= 1, "hint must be actionable");
                            "overloaded"
                        }
                        Err(ClientError::Server(msg)) => {
                            assert!(msg.contains("failed"), "only injected faults error: {msg}");
                            "error"
                        }
                        Err(other) => panic!("request lost (untyped outcome): {other}"),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });
    for outcome in &outcomes {
        match *outcome {
            "ok" => ok += 1,
            "error" => errors += 1,
            "overloaded" => sheds += 1,
            other => unreachable!("{other}"),
        }
    }
    // Exactly one typed reply per request — the no-request-lost invariant.
    assert_eq!(ok + errors + sheds, BURST_NAMES.len() as u64);
    assert_eq!(errors, 2, "both injected panics surfaced as typed errors");
    assert!(sheds >= 1, "a 4x burst must shed: {outcomes:?}");
    assert!(ok >= 2, "the budget admits work throughout: {outcomes:?}");
    let (panics, stalls, abandons) = faults.injected();
    assert_eq!((panics, stalls, abandons), (2, 1, 0));

    // The daemon is live after the burst: fresh work and control-plane
    // ops are served (no worker permanently pinned by stalls or panics).
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect post-burst");
    let stats = client.stats().expect("stats answers");
    assert_eq!(stat(&stats, "sheds"), sheds, "metrics agree with replies");
    assert_eq!(
        stat(&stats, "sheds"),
        stat(&stats, "shed_oversize")
            + stat(&stats, "shed_queue_full")
            + stat(&stats, "shed_deadline")
            + stat(&stats, "shed_closed")
    );
    assert_eq!(stat(&stats, "budget"), budget);
    assert_eq!(stat(&stats, "in_flight"), 0, "burst fully drained");
    assert_eq!(stat(&stats, "queue_depth"), 0, "no parked waiters");
    assert!(stat(&stats, "peak_in_flight") >= unit_cost);
    assert_eq!(stat(&stats, "faults_injected"), 3);
    assert_eq!(stat(&stats, "worker_panics"), 2, "both panics were caught");
    assert_eq!(stat(&stats, "admitted"), ok + errors);

    // Cache accounting: distinct names, so phase 1 had no coalescing —
    // every admitted request took a reservation (ok renders plus the two
    // panicked attempts), nothing hit or waited.
    assert_eq!(stat(&stats, "misses"), ok + errors);
    assert_eq!(stat(&stats, "hits"), 0);
    assert_eq!(stat(&stats, "waits"), 0);
    assert_eq!(renders.load(Ordering::SeqCst), ok, "one render per ok");

    // Phase 2: repeating the successful names is pure cache hits —
    // misses do not move, proving each unique request computed once.
    let succeeded = ok_names.into_inner().unwrap();
    for name in &succeeded {
        client.request(&artefact_req(name)).expect("cached");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "misses"), ok + errors, "no recomputation");
    assert_eq!(stat(&stats, "hits"), succeeded.len() as u64);
    assert_eq!(renders.load(Ordering::SeqCst), ok);

    // Clean shutdown with the connection still open.
    client.shutdown().expect("shutdown");
    let final_stats = join.join().expect("server thread joins");
    assert_eq!(stat(&final_stats, "queue_depth"), 0);
    assert_eq!(stat(&final_stats, "in_flight"), 0);
}

/// Exactly-once computation under an injected panic with same-key
/// concurrency: the first worker stalls (so waiters pile up) and dies;
/// one waiter takes over, computes once, and everyone else gets its
/// result.
#[test]
fn injected_panic_hands_computation_to_a_waiter_exactly_once() {
    const CLIENTS: usize = 6;
    let faults = FaultPlan::new();
    faults.stall_next(1, Duration::from_millis(80));
    faults.panic_next(1);
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(
        ServeOptions {
            workers: CLIENTS + 1,
            faults: faults.clone(),
            ..ServeOptions::default()
        },
        slow_registry(Arc::clone(&renders), 30),
    );

    let start = Barrier::new(CLIENTS);
    let outcomes: Vec<Result<String, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let start = &start;
                s.spawn(move || {
                    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
                    start.wait();
                    match client.request(&artefact_req("b0")) {
                        Ok(doc) => Ok(doc
                            .get("bytes")
                            .and_then(Json::as_str)
                            .expect("bytes")
                            .to_owned()),
                        Err(ClientError::Server(msg)) => Err(msg),
                        Err(other) => panic!("untyped outcome: {other}"),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("thread"))
            .collect()
    });

    let failed: Vec<_> = outcomes.iter().filter_map(|o| o.as_ref().err()).collect();
    let served: Vec<_> = outcomes.iter().filter_map(|o| o.as_ref().ok()).collect();
    assert_eq!(failed.len(), 1, "exactly the panicked leader errors");
    assert!(failed[0].contains("injected fault"), "{}", failed[0]);
    assert_eq!(served.len(), CLIENTS - 1);
    assert!(served.iter().all(|text| *text == served[0]), "one result");
    assert_eq!(
        renders.load(Ordering::SeqCst),
        1,
        "the successful render ran exactly once despite the panic"
    );

    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    let stats = client.stats().expect("stats");
    // Two reservations (panicked leader + recovering waiter); the other
    // clients waited or hit, never computed.
    assert_eq!(stat(&stats, "misses"), 2);
    assert_eq!(
        stat(&stats, "waits") + stat(&stats, "hits"),
        CLIENTS as u64 - 1
    );

    handle.shutdown();
    join.join().expect("server thread");
}

/// Injected reservation abandonment (a worker dying between reserving a
/// key and computing it) fails the one request with a typed error and
/// leaves the cache healthy: the retry recomputes normally.
#[test]
fn injected_abandonment_fails_once_and_recovers() {
    let faults = FaultPlan::new();
    faults.abandon_next(1);
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(
        ServeOptions {
            faults: faults.clone(),
            ..ServeOptions::default()
        },
        slow_registry(Arc::clone(&renders), 5),
    );

    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    let err = client
        .request(&artefact_req("b3"))
        .expect_err("armed abandonment");
    match err {
        ClientError::Server(msg) => assert!(msg.contains("injected abandonment"), "{msg}"),
        other => panic!("untyped outcome: {other}"),
    }
    assert_eq!(
        renders.load(Ordering::SeqCst),
        0,
        "abandoned before compute"
    );

    // The same request now computes normally — the abandoned reservation
    // did not wedge the key.
    let doc = client.request(&artefact_req("b3")).expect("retry");
    assert!(doc
        .get("bytes")
        .and_then(Json::as_str)
        .unwrap()
        .contains("b3"));
    assert_eq!(renders.load(Ordering::SeqCst), 1);
    assert_eq!(faults.injected(), (0, 0, 1));

    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "misses"), 2, "both attempts reserved");
    assert_eq!(stat(&stats, "faults_injected"), 1);
    assert_eq!(
        stat(&stats, "worker_panics"),
        0,
        "abandonment is not a panic"
    );

    handle.shutdown();
    join.join().expect("server thread");
}

/// Backoff end-to-end at budget capacity one: a held budget sheds the
/// second client immediately (queue capacity zero), the `estimate` op
/// still answers during full occupancy with `admit_now == false`, and
/// `request_with_backoff` honors `retry_after_ms` until capacity frees.
#[test]
fn backoff_client_retries_through_overload_to_success() {
    let model = CostModel::committed();
    let unit_cost = model.artefact_cost(Scale::Test);
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(
        ServeOptions {
            workers: 4,
            cost_budget: unit_cost, // one artefact at a time
            queue_cap: 0,           // shed immediately, never queue
            faults: FaultPlan::new(),
            ..ServeOptions::default()
        },
        slow_registry(Arc::clone(&renders), 200),
    );

    std::thread::scope(|s| {
        // Holder: occupies the whole budget for ~200 ms.
        s.spawn(|| {
            let mut holder = Client::connect(("127.0.0.1", port)).expect("connect");
            holder.request(&artefact_req("b7")).expect("holder served");
        });
        std::thread::sleep(Duration::from_millis(60));

        let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
        // Control plane during full occupancy: estimate answers, matches
        // the committed table, and reports the request would not admit.
        let est = client.estimate(&artefact_req("b8")).expect("estimate");
        assert_eq!(est.get("cost").and_then(Json::as_u64), Some(unit_cost));
        assert_eq!(
            est.get("admit_now").and_then(Json::as_bool),
            Some(false),
            "budget is fully occupied: {est:?}"
        );

        // A plain request sheds with a typed, actionable hint...
        match client.request(&artefact_req("b8")) {
            Err(ClientError::Overloaded { retry_after_ms, .. }) => {
                assert!(retry_after_ms >= 1)
            }
            other => panic!("expected a shed, got {other:?}"),
        }
        // ...and the backoff loop rides the hint to eventual success.
        let doc = client
            .request_with_backoff(&artefact_req("b8"), 20)
            .expect("admitted once the holder drains");
        assert!(doc.get("bytes").is_some());
    });

    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(stat(&stats, "sheds") >= 2, "{stats:?}");
    assert_eq!(stat(&stats, "shed_queue_full"), stat(&stats, "sheds"));
    assert_eq!(renders.load(Ordering::SeqCst), 2);

    handle.shutdown();
    join.join().expect("server thread");
}

/// ISSUE-9 trace completeness under overload: the shed (queue-deadline
/// expired), the truncated teardown (a partial line on a connection the
/// idle reaper closes — EOF would instead serve the tail), and the
/// served occupier all leave complete records in the trace ring, each
/// satisfying the lifecycle invariants — monotone phases and
/// `queue_wait_us == dispatched_us - admitted_us`.
#[test]
fn overload_and_truncation_leave_complete_trace_records() {
    use std::time::Instant;

    let model = CostModel::committed();
    let budget = model.artefact_cost(Scale::Test); // fits exactly one
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(
        ServeOptions {
            workers: 2,
            cost_budget: budget,
            queue_cap: 4,
            queue_deadline: Duration::from_millis(80),
            // Short enough to reap the mid-line connection while the
            // test runs; executing and parked connections cancel their
            // idle timer, so the occupier is safe.
            idle_timeout: Duration::from_millis(200),
            ..ServeOptions::default()
        },
        slow_registry(Arc::clone(&renders), 500),
    );

    // Conn A occupies the whole budget for ~500 ms.
    let occupier = std::thread::spawn(move || {
        let mut a = Client::connect(("127.0.0.1", port)).expect("connect A");
        a.request(&artefact_req(BURST_NAMES[0])).expect("A serves")
    });
    std::thread::sleep(Duration::from_millis(120)); // A admitted, executing

    // Conn B parks in the admission queue, then sheds at the deadline.
    let mut b = Client::connect(("127.0.0.1", port)).expect("connect B");
    match b.request(&artefact_req(BURST_NAMES[1])) {
        Err(ClientError::Overloaded { retry_after_ms, .. }) => {
            assert!(retry_after_ms >= 1, "hint must be actionable")
        }
        other => panic!("B must shed at the queue deadline: {other:?}"),
    }

    // Conn C sends a partial request (no newline) and then just sits
    // there holding the socket open: the idle reaper closes it mid-line,
    // which must synthesize a complete `truncated` record. (Closing the
    // socket ourselves would send EOF, and the daemon deliberately serves
    // a final unterminated request at EOF instead of discarding it.)
    let mut c = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect C");
    {
        use std::io::Write;
        c.write_all(b"{\"op\":\"sta").expect("partial line");
    }

    occupier.join().expect("occupier thread");

    // The truncated record lands asynchronously when the event loop reaps
    // conn C; poll the ring until all three outcomes are present.
    let mut t = Client::connect(("127.0.0.1", port)).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(5);
    let traces = loop {
        let traces = t.trace().expect("trace");
        let has = |outcome: &str| {
            traces
                .iter()
                .any(|r| r.get("outcome").and_then(Json::as_str) == Some(outcome))
        };
        if has("ok") && has("overloaded") && has("truncated") {
            break traces;
        }
        assert!(
            Instant::now() < deadline,
            "missing expected outcomes in {traces:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };

    let us = |r: &Json, key: &str| {
        r.get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("trace record lacks `{key}`: {r:?}"))
    };
    for r in &traces {
        let phases = [
            us(r, "received_us"),
            us(r, "parsed_us"),
            us(r, "admitted_us"),
            us(r, "dispatched_us"),
            us(r, "executed_us"),
            us(r, "flushed_us"),
        ];
        assert!(phases.windows(2).all(|w| w[0] <= w[1]), "{r:?}");
        assert_eq!(
            us(r, "queue_wait_us"),
            us(r, "dispatched_us") - us(r, "admitted_us"),
            "{r:?}"
        );
    }
    fn outcome(r: &Json) -> &str {
        r.get("outcome").and_then(Json::as_str).unwrap_or("")
    }
    let shed = traces
        .iter()
        .find(|r| outcome(r) == "overloaded")
        .expect("shed record");
    assert_eq!(shed.get("op").and_then(Json::as_str), Some("artefact"));
    // The shed collapses at the shed instant, after the ~80 ms park.
    assert_eq!(us(shed, "queue_wait_us"), 0);
    assert!(
        us(shed, "admitted_us") - us(shed, "parsed_us") >= 40_000,
        "the deadline park must be visible between parsed and the shed \
         instant: {shed:?}"
    );
    let truncated = traces
        .iter()
        .find(|r| outcome(r) == "truncated")
        .expect("truncated record");
    assert_eq!(truncated.get("op").and_then(Json::as_str), Some("unknown"));
    assert_eq!(us(truncated, "queue_wait_us"), 0);
    let served = traces
        .iter()
        .find(|r| outcome(r) == "ok" && r.get("op").and_then(Json::as_str) == Some("artefact"))
        .expect("served record");
    assert_eq!(served.get("cache").and_then(Json::as_str), Some("miss"));
    // A real execution: the worker phase has nonzero width.
    assert!(
        us(served, "executed_us") > us(served, "dispatched_us"),
        "{served:?}"
    );

    drop(c); // the reaper beat us to it; this is just cleanup
    handle.shutdown();
    join.join().expect("server thread");
}
