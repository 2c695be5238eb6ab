//! Loopback integration tests: a real server on an ephemeral port, real
//! TCP clients, a rigged artefact registry (so timing is controllable) and
//! real kernel simulations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mve_core::sim::simulate;
use mve_insram::Scheme;
use mve_kernels::registry::kernel_by_name;
use mve_kernels::Scale;
use mve_serve::client::Client;
use mve_serve::json::Json;
use mve_serve::protocol::{report_to_json, scale_name, SimSpec};
use mve_serve::server::{ArtefactFn, ArtefactRegistry, ServeOptions, Server};

/// A registry of two deterministic artefacts; `renders` counts invocations
/// so tests can prove the exactly-once property independently of the
/// counters.
fn rigged_registry(renders: Arc<AtomicU64>) -> ArtefactRegistry {
    let alpha: ArtefactFn = {
        let renders = Arc::clone(&renders);
        Arc::new(move |scale| {
            renders.fetch_add(1, Ordering::SeqCst);
            format!(
                "alpha artefact at {} scale\nsecond line ≥µ\n",
                scale_name(scale)
            )
        })
    };
    let slow: ArtefactFn = {
        let renders = Arc::clone(&renders);
        Arc::new(move |scale| {
            renders.fetch_add(1, Ordering::SeqCst);
            // Long enough that concurrent requesters pile onto the
            // in-flight slot instead of each rendering.
            std::thread::sleep(std::time::Duration::from_millis(30));
            format!("slow artefact at {} scale\n", scale_name(scale))
        })
    };
    ArtefactRegistry::new(vec![("alpha", alpha), ("slow", slow)])
}

fn boot(
    workers: usize,
    cache_cap: usize,
    renders: Arc<AtomicU64>,
) -> (
    u16,
    mve_serve::ShutdownHandle,
    std::thread::JoinHandle<Json>,
) {
    let server = Server::bind(
        &ServeOptions {
            port: 0,
            workers,
            cache_cap,
            ..ServeOptions::default()
        },
        rigged_registry(renders),
    )
    .expect("bind ephemeral port");
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

/// N concurrent clients with overlapping artefact and sim request sets:
/// every response is byte-identical to the direct computation and every
/// unique (request, config) is computed exactly once.
#[test]
fn concurrent_overlapping_clients_share_one_computation_per_unique_request() {
    const CLIENTS: u64 = 6;
    let renders = Arc::new(AtomicU64::new(0));
    let (port, _handle, join) = boot(4, 256, Arc::clone(&renders));

    // Direct ground truth for the sim responses: same kernel, two configs.
    let specs = [
        SimSpec::default(),
        SimSpec {
            scheme: Scheme::BitParallel,
            ooo_dispatch: true,
            ..SimSpec::default()
        },
    ];
    let expected_reports: Vec<String> = specs
        .iter()
        .map(|spec| {
            let run = kernel_by_name("csum")
                .expect("csum exists")
                .run_mve(Scale::Test);
            assert!(run.checked.ok());
            report_to_json(&simulate(&run.trace, &spec.to_config())).encode()
        })
        .collect();

    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let expected_reports = expected_reports.clone();
            let specs = specs.clone();
            s.spawn(move || {
                let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
                // Overlapping artefact set, both scales of one name.
                for _ in 0..2 {
                    let text = client.artefact("slow", Scale::Test).expect("slow");
                    assert_eq!(text, "slow artefact at test scale\n");
                    let text = client.artefact("alpha", Scale::Test).expect("alpha");
                    assert_eq!(text, "alpha artefact at test scale\nsecond line ≥µ\n");
                    let text = client.artefact("alpha", Scale::Paper).expect("alpha paper");
                    assert_eq!(text, "alpha artefact at paper scale\nsecond line ≥µ\n");
                }
                // Overlapping sims: same kernel, two configs.
                for (spec, want) in specs.iter().zip(&expected_reports) {
                    let report = client.sim("csum", Scale::Test, spec.clone()).expect("sim");
                    assert_eq!(report.encode(), *want, "server must match direct simulate");
                }
            });
        }
    });

    // 4 unique keys: slow@test, alpha@test, alpha@paper, 2 sim configs = 5.
    assert_eq!(
        renders.load(Ordering::SeqCst),
        3,
        "each unique artefact rendered exactly once"
    );
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stat(&stats, "misses"),
        5,
        "5 unique keys computed once each"
    );
    let total_cacheable = CLIENTS * (6 + 2); // 6 artefact + 2 sim requests each
    assert_eq!(
        stat(&stats, "hits") + stat(&stats, "waits"),
        total_cacheable - 5,
        "everything else was served from cache or by waiting"
    );
    assert_eq!(stat(&stats, "errors"), 0);
    assert_eq!(stat(&stats, "worker_panics"), 0);
    assert_eq!(stat(&stats, "artefact_requests"), CLIENTS * 6);
    assert_eq!(stat(&stats, "sim_requests"), CLIENTS * 2);

    client.shutdown().expect("shutdown");
    let final_stats = join.join().expect("server thread");
    assert!(stat(&final_stats, "requests") >= total_cacheable);
}

/// Error replies are typed, keep the connection open, and quote the shared
/// sorted vocabularies.
#[test]
fn typed_error_replies_keep_the_connection_usable() {
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(2, 16, Arc::clone(&renders));
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");

    // Unknown artefact: sorted vocabulary.
    let err = client.artefact("beta", Scale::Test).expect_err("unknown");
    let msg = err.to_string();
    assert!(msg.contains("unknown artefact `beta`"), "{msg}");
    assert!(msg.contains("alpha, slow"), "{msg}");

    // Unknown kernel: the registry's message, sorted.
    let err = client
        .sim("gemmm", Scale::Test, SimSpec::default())
        .expect_err("typo");
    let msg = err.to_string();
    assert!(msg.contains("unknown kernel `gemmm`"), "{msg}");
    assert!(msg.contains("adler32"), "{msg}");
    let pos_csum = msg.find("csum").expect("csum listed");
    let pos_gemm = msg.find("gemm,").expect("gemm listed");
    assert!(pos_csum < pos_gemm, "sorted vocabulary");

    // Malformed JSON and unknown ops are errors, not disconnects.
    for (bad, needle) in [
        ("{not json", "invalid JSON"),
        (r#"{"op":"simulate"}"#, "unknown op"),
        (r#"{"kernel":"x"}"#, "`op`"),
    ] {
        let msg = expect_error_reply(port, bad);
        assert!(msg.contains(needle), "{bad}: {msg}");
    }

    // The same connection still serves good requests afterwards.
    let text = client.artefact("alpha", Scale::Test).expect("still usable");
    assert!(text.starts_with("alpha artefact"));
    let stats = client.stats().expect("stats");
    assert!(stat(&stats, "errors") >= 5);

    handle.shutdown();
    join.join().expect("server thread");
}

/// Sends one raw line on a fresh connection; the server must answer with a
/// typed error reply (not a disconnect) whose message is returned.
fn expect_error_reply(port: u16, line: &str) -> String {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut reply = String::new();
    let n = BufReader::new(stream).read_line(&mut reply).expect("read");
    assert!(n > 0, "server closed the connection on: {line}");
    match mve_serve::protocol::parse_response(reply.trim_end()) {
        Ok(doc) => panic!("expected an error reply for {line}, got {doc:?}"),
        Err(msg) => msg,
    }
}

/// The LRU cap bounds resident results; evicted artefacts re-render.
#[test]
fn cache_cap_evicts_and_recomputes() {
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(2, 1, Arc::clone(&renders));
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");

    client.artefact("alpha", Scale::Test).expect("alpha");
    client
        .artefact("slow", Scale::Test)
        .expect("slow evicts alpha");
    client.artefact("alpha", Scale::Test).expect("alpha again");
    assert_eq!(
        renders.load(Ordering::SeqCst),
        3,
        "cap 1 forces a re-render of the evicted artefact"
    );
    let stats = client.stats().expect("stats");
    assert!(stat(&stats, "evictions") >= 1);

    handle.shutdown();
    join.join().expect("server thread");
}

/// An idle connection is closed at the idle deadline, freeing its worker
/// for other clients instead of pinning it forever.
#[test]
fn idle_connections_are_released_at_the_deadline() {
    use std::io::Read;
    let renders = Arc::new(AtomicU64::new(0));
    let server = Server::bind(
        &ServeOptions {
            port: 0,
            workers: 1, // a single worker: an unpinned pool is observable
            cache_cap: 16,
            idle_timeout: std::time::Duration::from_millis(200),
            ..ServeOptions::default()
        },
        rigged_registry(Arc::clone(&renders)),
    )
    .expect("bind");
    let port = server.port();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    // A silent connection occupies the only worker...
    let mut silent = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect");
    // ...until the deadline passes and the server closes it (EOF on read).
    let mut buf = [0u8; 8];
    silent
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("timeout");
    assert_eq!(silent.read(&mut buf).expect("closed cleanly"), 0);

    // The freed worker now serves a real client.
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    let text = client.artefact("alpha", Scale::Test).expect("served");
    assert!(text.starts_with("alpha artefact"));

    handle.shutdown();
    join.join().expect("server thread");
}

/// Two idle connections whose deadlines overlap are both reaped, and the
/// event loop survives them: reaping one must not disarm the other's
/// timer (the loop cancels the timer that fired as it closes a
/// connection).
#[test]
fn overlapping_idle_deadlines_are_both_reaped() {
    use std::io::Read;
    use std::time::Duration;
    let renders = Arc::new(AtomicU64::new(0));
    let server = Server::bind(
        &ServeOptions {
            port: 0,
            workers: 1,
            cache_cap: 16,
            idle_timeout: Duration::from_millis(100),
            ..ServeOptions::default()
        },
        rigged_registry(renders),
    )
    .expect("bind");
    let port = server.port();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let first = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect");
    std::thread::sleep(Duration::from_millis(50));
    let second = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect");
    for mut silent in [first, second] {
        silent
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        assert_eq!(silent.read(&mut [0u8; 8]).expect("reaped cleanly"), 0);
    }

    // A dead event loop would leave this request unanswered: time out
    // instead of hanging.
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    client
        .set_request_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let text = client.artefact("alpha", Scale::Test).expect("served");
    assert!(text.starts_with("alpha artefact"));

    handle.shutdown();
    let stats = join.join().expect("event loop survives both reaps");
    assert_eq!(stat(&stats, "connections"), 3);
    assert_eq!(stat(&stats, "open_connections"), 0);
}

/// The shutdown handle (the SIGTERM/stdin-EOF path) stops a server that
/// has live idle connections.
#[test]
fn shutdown_handle_stops_a_server_with_idle_connections() {
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(2, 16, renders);
    let mut idle = Client::connect(("127.0.0.1", port)).expect("connect");
    idle.artefact("alpha", Scale::Test).expect("alpha");
    // Leave the connection open and idle; shutdown must still complete.
    handle.shutdown();
    let stats = join.join().expect("server thread joins despite idle conn");
    assert_eq!(stat(&stats, "artefact_requests"), 1);
}

/// The `compile` op end-to-end: a client ships DSL source, the daemon
/// parses/lowers/executes/times it behind the single-flight cache keyed on
/// source digest + config, and diagnostics come back typed with line/col.
#[test]
fn compile_op_caches_by_source_digest_and_config() {
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(2, 64, renders);
    let addr = ("127.0.0.1", port);
    let mut client = Client::connect(addr).expect("connect");

    let source = r#"
kernel scale3(x: buf<i32>[512], out: mut buf<i32>[512]) {
    shape [512];
    let v = load x [1];
    store v * 3 -> out [1];
}
"#;
    let first = client.compile(source, SimSpec::default()).expect("compile");
    assert!(first.contains("mvel kernel `scale3`"), "{first}");
    assert!(first.contains("mismatches=0"), "{first}");

    // Same source + same config: a cache hit with identical bytes.
    let again = client.compile(source, SimSpec::default()).expect("hit");
    assert_eq!(again, first);

    // Same source, different scheme: a distinct computation.
    let bp = client
        .compile(
            source,
            SimSpec {
                scheme: Scheme::BitParallel,
                ..SimSpec::default()
            },
        )
        .expect("BP compile");
    assert_ne!(bp, first);
    assert!(bp.contains("scheme=BP"), "{bp}");

    // And the local render is byte-identical to the daemon's (one shared
    // render function, like the artefact registry).
    let local = mve_lang::compile_and_render(source, &SimSpec::default().to_config())
        .expect("local render");
    assert_eq!(local, first);

    // A parse error carries its position as typed members, and the
    // connection stays usable afterwards.
    let broken = "kernel b(o: mut buf<i32>[4]) {\n    store z -> o [1];\n}";
    let err = client
        .compile(broken, SimSpec::default())
        .expect_err("unknown value");
    let msg = err.to_string();
    assert!(msg.contains("2:"), "diag must carry line 2: {msg}");
    assert!(msg.contains("unknown value `z`"), "{msg}");

    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "compile_requests"), 4);
    assert_eq!(stat(&stats, "errors"), 1);
    // 2 unique compile computations + 1 abandoned error reservation = 3
    // misses; the repeat was the 1 hit.
    assert_eq!(stat(&stats, "misses"), 3);
    assert_eq!(stat(&stats, "hits"), 1);

    handle.shutdown();
    join.join().expect("server thread");
}

/// A newline-less byte stream larger than the request-line cap is cut off
/// *while being read* — connection buffers stay bounded, the connection
/// drops, and the daemon keeps serving others.
#[test]
fn oversized_request_lines_are_rejected_while_reading() {
    use std::io::{Read, Write};
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(2, 16, renders);
    let addr = ("127.0.0.1", port);

    let mut hostile = std::net::TcpStream::connect(addr).expect("connect");
    let chunk = vec![b'x'; 1 << 20];
    let mut dropped = false;
    for _ in 0..12 {
        if hostile.write_all(&chunk).is_err() {
            dropped = true; // server closed mid-send: limit enforced
            break;
        }
    }
    if !dropped {
        // Server consumed up to the cap then closed; the read side must
        // see the (best-effort) error reply or EOF/reset, never a hang.
        hostile
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("timeout");
        let mut buf = [0u8; 256];
        match hostile.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => {
                let reply = String::from_utf8_lossy(&buf[..n]);
                assert!(reply.contains("size limit"), "{reply}");
            }
        }
    }
    drop(hostile);

    // The daemon is still healthy for well-behaved clients.
    let mut client = Client::connect(addr).expect("connect after hostile peer");
    let text = client.artefact("alpha", Scale::Test).expect("artefact");
    assert!(text.contains("alpha artefact"));

    handle.shutdown();
    let stats = join.join().expect("server thread");
    // The rejection is an error reply like any other.
    assert_eq!(stat(&stats, "errors"), 1);
}

/// A partial request line pending at shutdown is discarded — but no
/// longer silently: the `truncated_requests` counter records it.
#[test]
fn partial_line_at_shutdown_is_counted_not_silently_dropped() {
    use std::io::Write;
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(2, 16, renders);

    // A healthy request first, so the worker is demonstrably serving this
    // connection when the partial line arrives.
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    client.artefact("alpha", Scale::Test).expect("alpha");

    // Half a request, no newline — then shutdown while the server is
    // mid-line. The teardown must account for the discarded partial.
    let mut raw = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect raw");
    raw.write_all(br#"{"op":"artefact","name":"al"#)
        .expect("send partial");
    raw.flush().expect("flush");
    std::thread::sleep(std::time::Duration::from_millis(150));
    handle.shutdown();
    let stats = join.join().expect("server thread");
    assert_eq!(
        stat(&stats, "truncated_requests"),
        1,
        "the discarded partial line must be counted: {stats:?}"
    );
    // It was never parsed, so it is not a request or an error.
    assert_eq!(stat(&stats, "requests"), 1, "only the artefact request");
    assert_eq!(stat(&stats, "errors"), 0);
}

/// The client-side request deadline: a daemon that accepts but never
/// replies produces a typed `TimedOut`, not an eternal block.
#[test]
fn client_request_timeout_is_typed() {
    use std::time::Duration;
    // A listener that accepts and then ignores the socket entirely.
    let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let port = listener.local_addr().expect("addr").port();
    let hold = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        std::thread::sleep(Duration::from_secs(2));
        drop(stream);
    });

    let mut client = Client::connect_with_timeout(("127.0.0.1", port), Duration::from_millis(200))
        .expect("connect");
    let err = client
        .request(&mve_serve::Request::Stats)
        .expect_err("no reply is coming");
    match err {
        mve_serve::ClientError::TimedOut { after } => {
            assert_eq!(after, Duration::from_millis(200));
        }
        other => panic!("expected TimedOut, got {other}"),
    }
    hold.join().expect("holder thread");
}

/// The `estimate` op prices without executing: the render counter stays
/// at zero, the reported cost matches the committed table, and the real
/// request is then admitted and served.
#[test]
fn estimate_op_prices_without_executing() {
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(2, 16, Arc::clone(&renders));
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");

    let req = mve_serve::Request::Artefact {
        name: "slow".to_owned(),
        scale: Scale::Paper,
    };
    let est = client.estimate(&req).expect("estimate");
    assert_eq!(est.get("class").and_then(Json::as_str), Some("artefact"));
    let model = mve_serve::CostModel::committed();
    assert_eq!(
        est.get("cost").and_then(Json::as_u64),
        Some(model.artefact_cost(Scale::Paper)),
        "estimate reply must match the committed cost table"
    );
    assert_eq!(
        est.get("admit_now").and_then(Json::as_bool),
        Some(true),
        "an idle default-budget daemon admits anything"
    );
    assert_eq!(
        renders.load(Ordering::SeqCst),
        0,
        "estimate must not execute"
    );

    // Sim estimates price without executing too; an `arrays` override
    // is charged as the default geometry.
    let sim = mve_serve::Request::Sim {
        kernel: "csum".to_owned(),
        scale: Scale::Test,
        spec: SimSpec {
            arrays: Some(64),
            ..SimSpec::default()
        },
    };
    let est = client.estimate(&sim).expect("sim estimate");
    assert_eq!(
        est.get("cost").and_then(Json::as_u64),
        Some(model.sim_cost(Scale::Test))
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stat(&stats, "estimate_requests"), 2);
    assert_eq!(stat(&stats, "sim_requests"), 0);
    assert_eq!(stat(&stats, "artefact_requests"), 0);

    // The priced request then actually runs.
    let text = client.artefact("slow", Scale::Paper).expect("artefact");
    assert!(text.contains("slow artefact"));
    assert_eq!(renders.load(Ordering::SeqCst), 1);

    handle.shutdown();
    join.join().expect("server thread");
}

/// A fresh daemon has made zero cache fetches; `hit_rate` must still be a
/// finite JSON number (the 0/0 case is clamped to 0.0, never NaN→null),
/// and must move to the exact expected ratio once traffic arrives.
#[test]
fn fresh_daemon_hit_rate_is_finite_and_tracks_traffic() {
    let renders = Arc::new(AtomicU64::new(0));
    let (port, handle, join) = boot(2, 64, Arc::clone(&renders));

    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    let stats = client.stats().expect("stats");
    let rate = stats
        .get("hit_rate")
        .and_then(Json::as_f64)
        .expect("hit_rate is a number even before any fetch");
    assert!(rate.is_finite(), "hit_rate must never be NaN/Inf: {rate}");
    assert_eq!(rate, 0.0, "no fetches yet → rate clamps to zero");
    // The wire encoding is a numeric literal, not null.
    assert!(
        !stats.encode().contains("\"hit_rate\":null"),
        "hit_rate must encode as a number: {}",
        stats.encode()
    );

    // One miss then one hit: rate becomes exactly 1/2.
    for _ in 0..2 {
        client.artefact("alpha", Scale::Test).expect("artefact");
    }
    let stats = client.stats().expect("stats");
    let rate = stats
        .get("hit_rate")
        .and_then(Json::as_f64)
        .expect("hit_rate present");
    assert_eq!(rate, 0.5, "1 hit of 2 fetches: {stats:?}");

    handle.shutdown();
    join.join().expect("server thread");
}
