//! Event-loop I/O core suite: admission parking without worker pinning,
//! slow-reader backpressure and the write-stall reaper, many-connections
//! correctness on a small worker pool, per-class latency histograms, and
//! the open-loop throughput driver, all over the daemon's `poll(2)` event
//! loop.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mve_kernels::Scale;
use mve_serve::client::{open_loop, Client};
use mve_serve::json::Json;
use mve_serve::protocol::scale_name;
use mve_serve::server::{ArtefactFn, ArtefactRegistry, ServeOptions, Server};
use mve_serve::{CostModel, Request};

fn registry(renders: Arc<AtomicU64>) -> ArtefactRegistry {
    let alpha: ArtefactFn = {
        let renders = Arc::clone(&renders);
        Arc::new(move |scale| {
            renders.fetch_add(1, Ordering::SeqCst);
            format!("alpha at {} scale\n", scale_name(scale))
        })
    };
    let slow: ArtefactFn = {
        let renders = Arc::clone(&renders);
        Arc::new(move |scale| {
            renders.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(600));
            format!("slow at {} scale\n", scale_name(scale))
        })
    };
    // ~1 MiB of payload per reply: enough to overwhelm kernel socket
    // buffers within a few replies and make write backpressure real.
    let big: ArtefactFn = Arc::new(move |_scale| "x".repeat(1 << 20));
    ArtefactRegistry::new(vec![("alpha", alpha), ("big", big), ("slow", slow)])
}

fn boot(
    opts: ServeOptions,
    renders: Arc<AtomicU64>,
) -> (
    u16,
    mve_serve::ShutdownHandle,
    std::thread::JoinHandle<Json>,
) {
    let server = Server::bind(&opts, registry(renders)).expect("bind ephemeral port");
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

/// The PR 7 non-claim, closed: with ONE worker and a budget that fits one
/// request, an admission-queued request parks in the event loop — the
/// control plane keeps answering and the queued request is finally served,
/// not shed. Under the old design the queued request occupied the only
/// worker while it waited, so nothing else could be served at all.
#[test]
fn parked_requests_do_not_hold_the_only_worker() {
    let model = CostModel::committed();
    let renders = Arc::new(AtomicU64::new(0));
    let (port, _handle, join) = boot(
        ServeOptions {
            workers: 1,
            cost_budget: model.artefact_cost(Scale::Test),
            queue_deadline: Duration::from_secs(3),
            ..ServeOptions::default()
        },
        Arc::clone(&renders),
    );

    std::thread::scope(|s| {
        // A: holds the whole budget on the only worker for ~600 ms.
        let a = s.spawn(move || {
            let mut c = Client::connect(("127.0.0.1", port)).expect("connect A");
            c.artefact("slow", Scale::Test).expect("slow artefact")
        });
        std::thread::sleep(Duration::from_millis(150));
        // B: over budget → parked in the event loop (nowhere else to be:
        // the one worker is busy with A).
        let b = s.spawn(move || {
            let mut c = Client::connect(("127.0.0.1", port)).expect("connect B");
            c.artefact("alpha", Scale::Test).expect("parked artefact")
        });
        std::thread::sleep(Duration::from_millis(150));

        // C: control plane must answer promptly while A executes and B is
        // parked — the regression this test pins down.
        let mut c = Client::connect(("127.0.0.1", port)).expect("connect C");
        c.set_request_timeout(Some(Duration::from_secs(2)))
            .expect("deadline");
        let t0 = Instant::now();
        let stats = c.stats().expect("stats while the pool is saturated");
        let est = c
            .estimate(&Request::Artefact {
                name: "alpha".to_owned(),
                scale: Scale::Test,
            })
            .expect("estimate while the pool is saturated");
        assert!(
            t0.elapsed() < Duration::from_millis(400),
            "control plane stalled behind a parked request: {:?}",
            t0.elapsed()
        );
        assert_eq!(stat(&stats, "queue_depth"), 1, "B is parked: {stats:?}");
        assert_eq!(stat(&stats, "executing_requests"), 1, "A is executing");
        assert_eq!(
            est.get("admit_now").and_then(Json::as_bool),
            Some(false),
            "budget is fully held"
        );

        assert_eq!(a.join().expect("A"), "slow at test scale\n");
        assert_eq!(b.join().expect("B"), "alpha at test scale\n");
    });

    let mut c = Client::connect(("127.0.0.1", port)).expect("connect");
    let stats = c.stats().expect("stats");
    assert_eq!(stat(&stats, "queued"), 1, "{stats:?}");
    assert_eq!(stat(&stats, "sheds"), 0, "nothing shed: {stats:?}");
    assert_eq!(stat(&stats, "errors"), 0);
    c.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

/// Slow-reader backpressure: a client floods artefact requests and never
/// reads replies. Daemon memory stays bounded — once the write buffer
/// crosses the high-water mark the loop stops consuming that connection's
/// requests — and the write-stall timer reaps the peer with
/// `stalled_writes` accounting. The daemon stays healthy throughout.
#[test]
fn slow_readers_are_bounded_and_reaped_by_the_write_stall_timer() {
    use std::io::Write;
    const FLOOD: usize = 64;
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(
        ServeOptions {
            workers: 2,
            write_stall_timeout: Duration::from_millis(300),
            ..ServeOptions::default()
        },
        renders,
    );

    // Pipeline 64 requests for a ~1 MiB artefact (64 MiB of replies) and
    // then stop participating entirely.
    let mut greedy = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let line = r#"{"op":"artefact","name":"big","scale":"test"}"#;
    for _ in 0..FLOOD {
        greedy
            .write_all(format!("{line}\n").as_bytes())
            .expect("pipelined send");
    }
    greedy.flush().expect("flush");

    // Wait out the stall window (plus slack for the timer tick).
    std::thread::sleep(Duration::from_millis(900));

    let mut c = Client::connect(("127.0.0.1", port)).expect("daemon still accepts");
    let stats = c.stats().expect("daemon still answers");
    assert_eq!(
        stat(&stats, "stalled_writes"),
        1,
        "the unread connection must be reaped as a write stall: {stats:?}"
    );
    let served = stat(&stats, "artefact_requests");
    assert!(
        served < FLOOD as u64 / 2,
        "backpressure must stop consuming a slow reader's pipeline well \
         short of the flood ({served} of {FLOOD} served)"
    );
    // The daemon survived a 64 MiB reply obligation with a ~2 MiB bound;
    // it still serves a well-behaved client.
    let text = c.artefact("alpha", Scale::Test).expect("healthy");
    assert_eq!(text, "alpha at test scale\n");

    handle.shutdown();
    join.join().expect("server thread");
}

/// 64 concurrent connections on a 4-worker pool: every request is served
/// correctly — connections beyond the pool size wait as poller-tracked
/// sockets, not threads — and the gauges drain back to zero.
#[test]
fn sixty_four_connections_on_four_workers_all_serve_correctly() {
    const CONNS: usize = 64;
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(
        ServeOptions {
            workers: 4,
            ..ServeOptions::default()
        },
        Arc::clone(&renders),
    );

    std::thread::scope(|s| {
        for i in 0..CONNS {
            s.spawn(move || {
                let mut c = Client::connect(("127.0.0.1", port)).expect("connect");
                for _ in 0..3 {
                    let text = c.artefact("alpha", Scale::Test).expect("artefact");
                    assert_eq!(text, "alpha at test scale\n");
                }
                if i % 8 == 0 {
                    c.stats().expect("interleaved stats");
                }
            });
        }
    });

    let mut c = Client::connect(("127.0.0.1", port)).expect("connect");
    let stats = c.stats().expect("stats");
    assert_eq!(stat(&stats, "artefact_requests"), CONNS as u64 * 3);
    assert_eq!(stat(&stats, "errors"), 0);
    assert_eq!(stat(&stats, "executing_requests"), 0, "gauge drains");
    assert_eq!(
        stat(&stats, "open_connections"),
        1,
        "only this stats client remains: {stats:?}"
    );
    assert_eq!(renders.load(Ordering::SeqCst), 1, "single-flight held");

    handle.shutdown();
    join.join().expect("server thread");
}

/// The `stats` reply exposes per-op-class service-time and queue-wait
/// histograms with ordered percentiles, and inline control-plane ops
/// record zero queue wait.
#[test]
fn stats_reply_carries_per_class_latency_histograms() {
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(ServeOptions::default(), renders);
    let mut c = Client::connect(("127.0.0.1", port)).expect("connect");

    for _ in 0..5 {
        c.artefact("alpha", Scale::Test).expect("artefact");
    }
    c.stats().expect("a stats sample");
    let stats = c.stats().expect("stats");

    let latency = stats.get("latency").expect("stats carry `latency`");
    let artefact = latency.get("artefact").expect("artefact class");
    let service = artefact.get("service").expect("service histogram");
    assert_eq!(service.get("count").and_then(Json::as_u64), Some(5));
    let p50 = service.get("p50_us").and_then(Json::as_u64).expect("p50");
    let p99 = service.get("p99_us").and_then(Json::as_u64).expect("p99");
    let max = service.get("max_us").and_then(Json::as_u64).expect("max");
    assert!(p50 <= p99 && p99 <= max, "{service:?}");
    let wait = artefact.get("queue_wait").expect("queue_wait histogram");
    assert_eq!(wait.get("count").and_then(Json::as_u64), Some(5));

    // Inline ops are measured too, with zero queue wait by construction.
    let stats_class = latency.get("stats").expect("stats class");
    assert!(
        stats_class
            .get("service")
            .and_then(|s| s.get("count"))
            .and_then(Json::as_u64)
            .is_some_and(|n| n >= 1),
        "{stats_class:?}"
    );
    assert_eq!(
        stats_class
            .get("queue_wait")
            .and_then(|s| s.get("max_us"))
            .and_then(Json::as_u64),
        Some(0),
        "inline ops never wait in the job queue"
    );

    handle.shutdown();
    join.join().expect("server thread");
}

/// The shared open-loop driver against a live daemon: every request gets
/// a typed reply (zero lost), throughput and percentiles are populated.
#[test]
fn open_loop_driver_loses_nothing_at_32_connections() {
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(
        ServeOptions {
            workers: 4,
            ..ServeOptions::default()
        },
        renders,
    );

    let report = open_loop(
        ("127.0.0.1", port),
        32,
        Duration::from_millis(300),
        |_conn, _seq| Request::Artefact {
            name: "alpha".to_owned(),
            scale: Scale::Test,
        },
    )
    .expect("open loop");
    assert_eq!(report.connections, 32);
    assert_eq!(report.lost, 0, "no request may go unanswered: {report:?}");
    assert!(report.ok > 0, "{report:?}");
    assert_eq!(report.ok + report.overloaded, report.requests);
    assert!(report.req_per_s() > 0.0);
    assert!(report.latency.p50_us <= report.latency.p99_us);
    let doc = report.to_json();
    assert_eq!(doc.get("lost").and_then(Json::as_u64), Some(0));
    assert!(doc.encode().contains("\"req_per_s\":"));

    handle.shutdown();
    join.join().expect("server thread");
}

/// Asserts the lifecycle invariants every completed trace record must
/// satisfy: phases monotone in wire order, `queue_wait_us` exactly
/// `dispatched_us - admitted_us`, `total_us` exactly
/// `flushed_us - received_us`.
fn assert_trace_invariants(t: &Json) {
    let us = |key: &str| {
        t.get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("trace record lacks `{key}`: {t:?}"))
    };
    let phases = [
        us("received_us"),
        us("parsed_us"),
        us("admitted_us"),
        us("dispatched_us"),
        us("executed_us"),
        us("flushed_us"),
    ];
    assert!(
        phases.windows(2).all(|w| w[0] <= w[1]),
        "phases not monotone: {t:?}"
    );
    assert_eq!(
        us("queue_wait_us"),
        us("dispatched_us") - us("admitted_us"),
        "queue_wait must equal dispatched - admitted: {t:?}"
    );
    assert_eq!(
        us("total_us"),
        us("flushed_us") - us("received_us"),
        "total must equal flushed - received: {t:?}"
    );
}

/// The `metrics` op's Prometheus exposition round-trips through the
/// strict `mve_obs` parser, and its counters agree with the `stats` reply
/// fetched immediately after on the same connection. `requests` itself
/// differs by exactly one (the stats request), because the counter
/// increments before the reply body is built.
#[test]
fn metrics_exposition_parses_and_cross_checks_stats() {
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(ServeOptions::default(), renders);
    let mut c = Client::connect(("127.0.0.1", port)).expect("connect");

    for _ in 0..3 {
        c.artefact("alpha", Scale::Test).expect("artefact");
    }
    let text = c.metrics().expect("metrics");
    let exp = mve_obs::metrics::parse_exposition(&text)
        .unwrap_or_else(|e| panic!("exposition must parse: {e}\n{text}"));
    let stats = c.stats().expect("stats");

    // Counters no control-plane op touches must agree exactly.
    for key in [
        "artefact_requests",
        "sim_requests",
        "compile_requests",
        "hits",
        "misses",
        "evictions",
        "admitted",
        "sheds",
    ] {
        let exposed = exp
            .value(&format!("mve_serve_{key}"), &[])
            .unwrap_or_else(|| panic!("exposition lacks mve_serve_{key}:\n{text}"));
        assert_eq!(exposed, stat(&stats, key) as f64, "counter {key} drifted");
    }
    // One hit path sanity check: 3 identical renders = 1 miss + 2 hits.
    assert_eq!(exp.value("mve_serve_hits", &[]), Some(2.0));
    assert_eq!(exp.value("mve_serve_misses", &[]), Some(1.0));
    // `requests` advances with every op; the later stats reply counts the
    // exposition's own request plus itself.
    assert_eq!(
        stat(&stats, "requests") as f64,
        exp.value("mve_serve_requests", &[]).expect("requests") + 1.0
    );

    // The latency histograms render as real Prometheus histograms with
    // per-class labels and cumulative buckets capped by +Inf == _count.
    assert_eq!(
        exp.family_type("mve_serve_request_service_us"),
        Some("histogram")
    );
    let count = exp
        .value(
            "mve_serve_request_service_us_count",
            &[("class", "artefact")],
        )
        .expect("artefact service count");
    assert_eq!(count, 3.0);
    let inf = exp
        .value(
            "mve_serve_request_service_us_bucket",
            &[("class", "artefact"), ("le", "+Inf")],
        )
        .expect("+Inf bucket");
    assert_eq!(inf, count, "+Inf bucket must equal _count");

    handle.shutdown();
    join.join().expect("server thread");
}

/// Every served request — chargeable and control-plane alike — leaves a
/// complete, invariant-satisfying record in the trace ring, with ids
/// strictly increasing and cache hit/miss attribution on artefact ops.
#[test]
fn trace_ring_records_complete_lifecycles_for_served_requests() {
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(ServeOptions::default(), renders);
    let mut c = Client::connect(("127.0.0.1", port)).expect("connect");

    c.artefact("alpha", Scale::Test).expect("miss render");
    c.artefact("alpha", Scale::Test).expect("hit render");
    c.stats().expect("stats");
    let traces = c.trace().expect("trace");

    // The three completed requests above are all flushed before the
    // `trace` request was even received, so all three must be present.
    assert!(traces.len() >= 3, "expected >= 3 records, got {traces:?}");
    for t in &traces {
        assert_trace_invariants(t);
        assert_eq!(t.get("outcome").and_then(Json::as_str), Some("ok"));
    }
    let op = |t: &Json| t.get("op").and_then(Json::as_str).map(str::to_owned);
    let cache = |t: &Json| t.get("cache").and_then(Json::as_str).map(str::to_owned);
    let artefacts: Vec<&Json> = traces
        .iter()
        .filter(|t| op(t).as_deref() == Some("artefact"))
        .collect();
    assert_eq!(artefacts.len(), 2, "{traces:?}");
    assert_eq!(cache(artefacts[0]).as_deref(), Some("miss"));
    assert_eq!(cache(artefacts[1]).as_deref(), Some("hit"));
    assert!(
        traces.iter().any(|t| op(t).as_deref() == Some("stats")
            && t.get("queue_wait_us").and_then(Json::as_u64) == Some(0)),
        "inline stats op must trace with zero queue wait: {traces:?}"
    );
    let ids: Vec<u64> = traces
        .iter()
        .filter_map(|t| t.get("id").and_then(Json::as_u64))
        .collect();
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "ids must be strictly increasing: {ids:?}"
    );

    handle.shutdown();
    join.join().expect("server thread");
}
