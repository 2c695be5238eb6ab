//! `mve-client`: drives a running `serve` daemon.
//!
//! The command line is `mve_bench::cli::client` (DESIGN.md, "Command
//! line"): a mistake exits 2 with the reason and the usage line before
//! any connection is made.
//!
//! `metrics` prints the daemon's Prometheus text exposition; `--check`
//! additionally validates it with the strict `mve_obs` parser and
//! cross-checks the stable counters and the per-class service and
//! queue-wait histogram counts of every chargeable class against the
//! `stats` reply (the CI scrape step). `trace` prints the request trace
//! ring, one JSON record per line; `--chrome OUT.json` instead writes the
//! ring as Chrome trace-event JSON (one track per connection, queue wait
//! as its own slice) for `chrome://tracing` / Perfetto. `stats --watch
//! SECS` polls the `metrics` op every SECS seconds and prints one compact
//! delta line per interval (req/s, hit rate, p99 service µs computed
//! client-side from the exposition's histogram buckets); `--samples N`
//! stops after N lines.
//!
//! `compile` and `profile` ship the `.mvel` source to the daemon, which
//! compiles, runs and times it (single-flight cached on the source digest
//! and configuration). `compile` prints the rendered compile artefact,
//! `profile` the perf-annotate-style annotated source (cycle share,
//! instruction counts, spill traffic per line). Parse/type errors print
//! as `FILE:line:col: message` and exit non-zero.
//!
//! `estimate` prices the wrapped request against the daemon's calibrated
//! cost model without executing it, printing the
//! `{"class":…,"cost":…,"admit_now":…}` object.
//!
//! `--flood N` sends the request N times concurrently on N connections
//! (the CI overload probe): every reply is classified as `ok`,
//! `overloaded` (a typed shed carrying `retry_after_ms`), or
//! `server_error`, and a JSON tally is printed. Any request that gets no
//! typed reply counts as `lost` and fails the run — the daemon's
//! no-request-lost invariant, asserted from the outside.
//!
//! Adding `--duration-ms M` (with `--connections N` or `--flood N` for
//! the connection count) switches to the *open-loop* throughput mode: N
//! connections send the request back-to-back for M milliseconds and one
//! JSON line with req/s and latency percentiles is printed. `lost` must
//! still be zero or the run fails.
//!
//! `--replay-smoke` renders every artefact at test scale through the
//! server and writes `DIR/<name>.txt` — CI diffs that tree byte-for-byte
//! against `reproduce --smoke`.

use std::path::Path;
use std::time::{Duration, Instant};

use mve_bench::cli::client::Op;
use mve_bench::{artefacts, cli};
use mve_kernels::Scale;
use mve_obs::log::FieldValue;
use mve_obs::metrics::{parse_exposition, quantile_from_log2_buckets, Exposition};
use mve_obs::ChromeTrace;
use mve_serve::client::{replay_artefacts, Client, ClientError};
use mve_serve::{Json, Request};

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("mve-client: {e}");
    std::process::exit(1);
}

/// The reply's `key` member; its absence is a protocol error.
fn member<'a>(reply: &'a Json, key: &str) -> &'a Json {
    reply
        .get(key)
        .unwrap_or_else(|| fail(format!("reply lacks `{key}`")))
}

/// The reply's `key` member as text.
fn text<'a>(reply: &'a Json, key: &str) -> &'a str {
    member(reply, key)
        .as_str()
        .unwrap_or_else(|| fail(format!("reply's `{key}` is not text")))
}

/// Sums the exposition's per-class `request_service_us` cumulative
/// buckets into one raw (de-cumulated) log2 histogram, indexed so bucket
/// `i` covers `[2^i, 2^(i+1))` µs — the layout
/// `quantile_from_log2_buckets` reads.
fn service_buckets(exp: &Exposition) -> [u64; 64] {
    let mut out = [0u64; 64];
    // Buckets are cumulative within each labelled series; de-cumulate by
    // tracking the previous cumulative count per class label.
    let mut prev: Vec<(String, f64)> = Vec::new();
    for s in exp
        .samples
        .iter()
        .filter(|s| s.name == "mve_serve_request_service_us_bucket")
    {
        let le = s
            .labels
            .iter()
            .find(|(k, _)| k == "le")
            .map(|(_, v)| v.as_str())
            .unwrap_or("");
        let Ok(bound) = le.parse::<f64>() else {
            continue; // "+Inf" duplicates _count
        };
        let class = s
            .labels
            .iter()
            .find(|(k, _)| k == "class")
            .map(|(_, v)| v.clone())
            .unwrap_or_default();
        let before = match prev.iter_mut().find(|(c, _)| *c == class) {
            Some(entry) => {
                let p = entry.1;
                entry.1 = s.value;
                p
            }
            None => {
                prev.push((class, s.value));
                0.0
            }
        };
        // le of log2 bucket i is 2^(i+1), so i = log2(le) - 1.
        let idx = (bound.log2().round() as i64 - 1).max(0) as usize;
        if idx < out.len() {
            out[idx] += (s.value - before).max(0.0) as u64;
        }
    }
    out
}

/// Converts the trace-ring records into Chrome trace-event JSON: one
/// track (`tid`) per connection, one stacked slice per request phase, so
/// queue wait (`admitted -> dispatched`) is visible as its own slice
/// under the request's outer span.
fn chrome_from_traces(records: &[Json]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    let mut named_conns: Vec<u64> = Vec::new();
    for rec in records {
        let field = |key: &str| rec.get(key).and_then(Json::as_u64).unwrap_or(0);
        let text = |key: &str| rec.get(key).and_then(Json::as_str).unwrap_or("?");
        let conn = field("conn");
        if !named_conns.contains(&conn) {
            named_conns.push(conn);
            trace.name_thread(1, conn, &format!("conn {conn}"));
        }
        let op = text("op");
        let (received, flushed) = (field("received_us"), field("flushed_us"));
        trace.complete(
            op,
            "request",
            received as f64,
            flushed.saturating_sub(received) as f64,
            1,
            conn,
            &[
                ("id", FieldValue::U64(field("id"))),
                ("outcome", FieldValue::Str(text("outcome").to_owned())),
                ("cache", FieldValue::Str(text("cache").to_owned())),
            ],
        );
        let phases = [
            ("parse", field("received_us"), field("parsed_us")),
            ("admit", field("parsed_us"), field("admitted_us")),
            ("queue_wait", field("admitted_us"), field("dispatched_us")),
            ("execute", field("dispatched_us"), field("executed_us")),
            ("flush", field("executed_us"), field("flushed_us")),
        ];
        for (name, start, end) in phases {
            trace.complete(
                name,
                "phase",
                start as f64,
                end.saturating_sub(start) as f64,
                1,
                conn,
                &[],
            );
        }
    }
    trace
}

/// `stats --watch SECS`: polls the `metrics` op and prints one compact
/// delta line per interval. The first poll is the baseline.
fn watch_stats(client: &mut Client, secs: u64, samples: Option<u64>) -> ! {
    let period = Duration::from_secs(secs.max(1));
    let mut printed = 0u64;
    let mut prev: Option<(Instant, f64, f64, f64, [u64; 64])> = None;
    loop {
        let text = client.metrics().unwrap_or_else(|e| fail(e));
        let now = Instant::now();
        let exp = parse_exposition(&text)
            .unwrap_or_else(|e| fail(format!("daemon sent an invalid exposition: {e}")));
        let value = |name: &str| exp.value(name, &[]).unwrap_or(0.0);
        let (requests, hits, misses) = (
            value("mve_serve_requests"),
            value("mve_serve_hits"),
            value("mve_serve_misses"),
        );
        let buckets = service_buckets(&exp);
        match prev.take() {
            None => println!(
                "watching every {}s: requests={requests:.0} hits={hits:.0} misses={misses:.0}",
                period.as_secs()
            ),
            Some((t0, req0, hits0, misses0, buckets0)) => {
                let dt = now.duration_since(t0).as_secs_f64().max(1e-9);
                let dreq = (requests - req0).max(0.0);
                let (dh, dm) = ((hits - hits0).max(0.0), (misses - misses0).max(0.0));
                let hit_rate = if dh + dm > 0.0 {
                    100.0 * dh / (dh + dm)
                } else {
                    0.0
                };
                let delta: Vec<u64> = buckets
                    .iter()
                    .zip(buckets0.iter())
                    .map(|(n, o)| n.saturating_sub(*o))
                    .collect();
                let p99 = quantile_from_log2_buckets(&delta, 0.99);
                println!(
                    "{:8.1} req/s  hit_rate {hit_rate:5.1}%  p99 {p99:8} us  (+{dreq:.0} req)",
                    dreq / dt
                );
            }
        }
        printed += 1;
        if samples.is_some_and(|n| printed >= n) {
            std::process::exit(0);
        }
        prev = Some((now, requests, hits, misses, buckets));
        std::thread::sleep(period);
    }
}

/// `metrics --check`: validates the exposition with the strict parser and
/// cross-checks it against the `stats` reply fetched on the same
/// connection. Counters no control-plane op touches must agree exactly;
/// `requests` itself advances with every op (the exposition counts its
/// own request), so it is only checked as monotone. The service and
/// queue-wait histogram counts of each chargeable class must equal the
/// `stats` reply's `latency.<class>` counts: no chargeable request runs
/// between the scrape and the `stats` call on one connection.
fn check_metrics(text: &str, stats: &Json) {
    const STABLE: &[&str] = &[
        "artefact_requests",
        "sim_requests",
        "compile_requests",
        "profile_requests",
        "hits",
        "misses",
        "evictions",
        "admitted",
        "queued",
        "sheds",
        "truncated_requests",
        "faults_injected",
        "worker_panics",
    ];
    let exp = parse_exposition(text)
        .unwrap_or_else(|e| fail(format!("daemon sent an invalid exposition: {e}")));
    let stat_counter = |key: &str| {
        stats
            .get(key)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| fail(format!("stats reply lacks counter `{key}`")))
    };
    for key in STABLE {
        let name = format!("mve_serve_{key}");
        let exposed = exp
            .value(&name, &[])
            .unwrap_or_else(|| fail(format!("exposition lacks `{name}`")));
        let stat = stat_counter(key);
        if exposed != stat as f64 {
            fail(format!(
                "counter `{key}` disagrees: metrics={exposed} stats={stat}"
            ));
        }
    }
    let exposed_requests = exp
        .value("mve_serve_requests", &[])
        .unwrap_or_else(|| fail("exposition lacks `mve_serve_requests`"));
    let stat_requests = stat_counter("requests") as f64;
    if stat_requests < exposed_requests {
        fail(format!(
            "`requests` went backwards: metrics={exposed_requests} then stats={stat_requests}"
        ));
    }
    if exp.family_type("mve_serve_request_service_us") != Some("histogram") {
        fail("`mve_serve_request_service_us` is not exposed as a histogram");
    }
    const CHARGEABLE: &[&str] = &["artefact", "sim", "compile", "profile"];
    for class in CHARGEABLE {
        for (family, member) in [
            ("request_service_us", "service"),
            ("request_queue_wait_us", "queue_wait"),
        ] {
            let name = format!("mve_serve_{family}_count");
            let exposed = exp
                .value(&name, &[("class", class)])
                .unwrap_or_else(|| fail(format!("exposition lacks `{name}{{class=\"{class}\"}}`")));
            let stat = stats
                .get("latency")
                .and_then(|l| l.get(class))
                .and_then(|c| c.get(member))
                .and_then(|h| h.get("count"))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| fail(format!("stats lacks `latency.{class}.{member}.count`")));
            if exposed != stat as f64 {
                fail(format!(
                    "`{name}{{class=\"{class}\"}}` disagrees: metrics={exposed} stats={stat}"
                ));
            }
        }
    }
    eprintln!(
        "metrics check ok: {} families, {} samples, {} counters and {} class histograms match stats",
        exp.families.len(),
        exp.samples.len(),
        STABLE.len(),
        CHARGEABLE.len()
    );
}

/// Reads a `compile` or `profile` request's source from `path`.
fn load(mut req: Request, path: Option<&str>) -> Request {
    if let (Request::Compile { source, .. } | Request::Profile { source, .. }, Some(path)) =
        (&mut req, path)
    {
        *source = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
    }
    req
}

/// Sends `req` on `count` concurrent connections and prints the typed
/// tally. Exits non-zero if any request is lost (no typed reply).
fn flood(addr: (&str, u16), req: &Request, count: usize) -> ! {
    let outcomes: Vec<&str> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..count)
            .map(|_| {
                s.spawn(move || {
                    let Ok(mut client) = Client::connect(addr) else {
                        return "lost";
                    };
                    match client.request(req) {
                        Ok(_) => "ok",
                        // A shed without an actionable hint counts as lost.
                        Err(ClientError::Overloaded {
                            retry_after_ms: 1..,
                            ..
                        }) => "overloaded",
                        Err(ClientError::Server(_)) => "server_error",
                        Err(_) => "lost",
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or("lost"))
            .collect()
    });
    let tally = |outcome| outcomes.iter().filter(|&&o| o == outcome).count();
    let (ok, overloaded, server_errors) = (tally("ok"), tally("overloaded"), tally("server_error"));
    let lost = count - ok - overloaded - server_errors;
    println!(
        "{{\"flood\":{count},\"ok\":{ok},\"overloaded\":{overloaded},\
         \"server_errors\":{server_errors},\"lost\":{lost}}}"
    );
    if lost > 0 {
        eprintln!("mve-client: {lost} of {count} flood requests got no typed reply");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let c = cli::from_env(cli::client::USAGE, cli::client::parse);
    let addr = ("127.0.0.1", c.port);
    let connect = || Client::connect(addr).unwrap_or_else(|e| fail(e));
    match c.op {
        Op::Replay(dir) => {
            let files = replay_artefacts(addr, &artefacts::NAMES, Scale::Test, Path::new(&dir))
                .unwrap_or_else(|e| fail(e));
            for (name, bytes) in &files {
                eprintln!("  {dir}/{name}.txt ({bytes} bytes)");
            }
            println!("replayed {} artefacts into {dir}/", files.len());
        }
        Op::Stats => {
            let mut client = connect();
            if let Some(secs) = c.watch {
                watch_stats(&mut client, secs, c.samples);
            }
            let stats = client.stats().unwrap_or_else(|e| fail(e));
            println!("{}", stats.encode());
        }
        Op::Metrics => {
            let mut client = connect();
            let text = client.metrics().unwrap_or_else(|e| fail(e));
            print!("{text}");
            if c.check {
                let stats = client.stats().unwrap_or_else(|e| fail(e));
                check_metrics(&text, &stats);
            }
        }
        Op::Trace => {
            let traces = connect().trace().unwrap_or_else(|e| fail(e));
            if let Some(out) = c.chrome {
                let chrome = chrome_from_traces(&traces);
                std::fs::write(&out, chrome.render())
                    .unwrap_or_else(|e| fail(format!("cannot write {out}: {e}")));
                eprintln!(
                    "{} trace records -> {out} ({} trace events)",
                    traces.len(),
                    chrome.len()
                );
                return;
            }
            for t in &traces {
                println!("{}", t.encode());
            }
            eprintln!("{} trace records", traces.len());
        }
        Op::Shutdown => {
            connect().shutdown().unwrap_or_else(|e| fail(e));
            println!("server shutting down");
        }
        Op::Estimate(req) => {
            let req = load(req, c.path.as_deref());
            let est = connect().estimate(&req).unwrap_or_else(|e| fail(e));
            println!("{}", est.encode());
        }
        Op::Send(req) => {
            let req = load(req, c.path.as_deref());
            if let Some(ms) = c.duration_ms {
                // Open-loop throughput mode; `--connections` names the
                // fan-out, or reuse the `--flood` count so the CI overload
                // step and the perf harness share one invocation shape.
                let conns = c.connections.or(c.flood).unwrap_or(32);
                let report = mve_serve::client::open_loop(
                    addr,
                    conns,
                    std::time::Duration::from_millis(ms),
                    |_conn, _seq| req.clone(),
                )
                .unwrap_or_else(|e| fail(e));
                println!("{}", report.to_json().encode());
                if report.lost > 0 {
                    eprintln!(
                        "mve-client: {} of {} open-loop requests got no typed reply",
                        report.lost, report.requests
                    );
                    std::process::exit(1);
                }
                return;
            }
            if let Some(count) = c.flood {
                flood(addr, &req, count);
            }
            // A compile or profile error names its source file.
            let at = c.path.map(|p| format!("{p}: ")).unwrap_or_default();
            let reply = connect()
                .request(&req)
                .unwrap_or_else(|e| fail(format!("{at}{e}")));
            match req {
                Request::Sim { .. } => println!("{}", member(&reply, "report").encode()),
                // The annotated source is the human-facing artefact;
                // print it byte-for-byte so CI can diff two runs.
                Request::Profile { .. } => print!("{}", text(member(&reply, "profile"), "text")),
                _ => print!("{}", text(&reply, "bytes")),
            }
        }
    }
}
