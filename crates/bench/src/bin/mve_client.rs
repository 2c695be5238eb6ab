//! `mve-client`: drives a running `serve` daemon.
//!
//! ```text
//! mve-client [--port N] --replay-smoke DIR     # full 16-artefact smoke set
//! mve-client [--port N] [--flood N] artefact NAME [--paper]
//! mve-client [--port N] [--flood N] sim KERNEL [--paper] [--scheme BS|BH|BP|AC]
//!            [--arrays N] [--ooo] [--no-mode-switch] [--no-cache-warming]
//! mve-client [--port N] [--flood N] compile FILE.mvel [--scheme S] [--ooo]
//!            [--no-mode-switch] [--no-cache-warming]
//! mve-client [--port N] [--flood N] profile FILE.mvel [--scheme S] [--ooo]
//!            [--no-mode-switch] [--no-cache-warming]
//! mve-client [--port N] estimate (artefact NAME | sim KERNEL | compile FILE) [...]
//! mve-client [--port N] stats [--watch SECS] [--samples N]
//! mve-client [--port N] metrics [--check]
//! mve-client [--port N] trace [--chrome OUT.json]
//! mve-client [--port N] shutdown
//! ```
//!
//! Each subcommand accepts only the tail shown above: an unknown flag, a
//! flag missing its value, or a word left over after `--replay-smoke DIR`
//! exits 2 with the usage line before any connection is made.
//!
//! `metrics` prints the daemon's Prometheus text exposition; `--check`
//! additionally validates it with the strict `mve_obs` parser and
//! cross-checks the stable counters and the per-class service and
//! queue-wait histogram counts of every chargeable class against the
//! `stats` reply (the CI scrape step). `trace` prints the request trace
//! ring, one JSON record per line; `--chrome OUT.json` instead writes the
//! ring as Chrome trace-event JSON (one track per connection, queue wait
//! as its own slice) for `chrome://tracing` / Perfetto.
//! `stats --watch SECS` polls the `metrics` op
//! every SECS seconds and prints one compact delta line per interval
//! (req/s, hit rate, p99 service µs computed client-side from the
//! exposition's histogram buckets); `--samples N` stops after N lines.
//!
//! `compile` ships the `.mvel` source to the daemon, which parses, lowers,
//! schedules, allocates, executes, checks and times it (single-flight
//! cached on the source digest + configuration), and prints the rendered
//! compile artefact. Parse/type errors print as `FILE:line:col: message`
//! and exit non-zero.
//!
//! `profile` does the same but asks for the per-source-line engine
//! profile: the daemon compiles, executes with line markers, replays the
//! trace through the profiling sink and timing simulator, and the client
//! prints the perf-annotate-style annotated source (cycle share,
//! instruction counts, spill traffic per line). Replies are single-flight
//! cached like `compile`, so a repeated `profile` is byte-identical.
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

use std::collections::HashMap;
use std::time::{Duration, Instant};

use mve_bench::artefacts;
use mve_insram::Scheme;
use mve_kernels::Scale;
use mve_obs::log::FieldValue;
use mve_obs::metrics::{parse_exposition, quantile_from_log2_buckets, Exposition};
use mve_obs::ChromeTrace;
use mve_serve::client::{replay_artefacts, Client, ClientError};
use mve_serve::{Json, Request, SimSpec};

fn usage() -> ! {
    eprintln!(
        "usage: mve-client [--port N] (--replay-smoke DIR | [--flood N] \
         [--connections N --duration-ms M] artefact NAME [--paper] | [--flood N] \
         [--connections N --duration-ms M] sim KERNEL [--paper] [--scheme S] [--arrays N] \
         [--ooo] [--no-mode-switch] [--no-cache-warming] | [--flood N] \
         (compile|profile) FILE.mvel [--scheme S] [--ooo] [--no-mode-switch] \
         [--no-cache-warming] | estimate (artefact|sim|compile|profile) ... | \
         stats [--watch SECS] [--samples N] | metrics [--check] | \
         trace [--chrome OUT.json] | shutdown)"
    );
    std::process::exit(2);
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("mve-client: {e}");
    std::process::exit(1);
}

/// Parses a control subcommand's tail (everything after the subcommand
/// word) against exactly the flags its usage line documents: `values`
/// take a value (`--flag V` or `--flag=V`), `switches` take none. An
/// unknown flag, a stray word, or a value flag without its value exits 2
/// with usage — before any connection is made. Switches map to `""`.
fn parse_tail(
    tail: &[String],
    values: &[&'static str],
    switches: &[&'static str],
) -> HashMap<&'static str, String> {
    let mut out = HashMap::new();
    let mut tail = tail.iter();
    while let Some(arg) = tail.next() {
        if let Some(&switch) = switches.iter().find(|&&s| s == arg) {
            out.insert(switch, String::new());
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_owned())),
            None => (arg.as_str(), None),
        };
        let Some(&flag) = values.iter().find(|&&f| f == name) else {
            usage()
        };
        let value = inline
            .or_else(|| tail.next().filter(|v| !v.starts_with("--")).cloned())
            .unwrap_or_else(|| usage());
        out.insert(flag, value);
    }
    out
}

/// A parsed tail flag's integer value, `None` if absent.
fn num_flag(flags: &HashMap<&'static str, String>, flag: &str) -> Option<u64> {
    flags
        .get(flag)
        .map(|v| v.parse().unwrap_or_else(|_| usage()))
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

/// Parses the request-shaped tail of the command line (`artefact …`,
/// `sim …`, `compile …`). Returns the request plus the compile source
/// path, if any, for error-message prefixes.
fn build_request(args: &[String]) -> (Request, Option<String>) {
    let scale = if args.iter().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Test
    };
    let parse_spec = |args: &[String], start: usize, allow_arrays: bool| -> SimSpec {
        let mut spec = SimSpec::default();
        let mut j = start;
        while j < args.len() {
            match args[j].as_str() {
                "--paper" => j += 1,
                "--ooo" => {
                    spec.ooo_dispatch = true;
                    j += 1;
                }
                "--no-mode-switch" => {
                    spec.mode_switch = false;
                    j += 1;
                }
                "--no-cache-warming" => {
                    spec.cache_warming = false;
                    j += 1;
                }
                "--scheme" => {
                    let scheme = args.get(j + 1).and_then(|name| {
                        Scheme::ALL.iter().copied().find(|s| s.short_name() == name)
                    });
                    let Some(scheme) = scheme else { usage() };
                    spec.scheme = scheme;
                    j += 2;
                }
                "--arrays" if allow_arrays => {
                    let Some(v) = args.get(j + 1).and_then(|v| v.parse().ok()) else {
                        usage()
                    };
                    spec.arrays = Some(v);
                    j += 2;
                }
                _ => usage(),
            }
        }
        spec
    };
    match args.first().map(String::as_str) {
        Some("artefact") => {
            let Some(name) = args.get(1).filter(|a| !a.starts_with("--")) else {
                usage()
            };
            if args.len() > 2 && args[2..].iter().any(|a| a != "--paper") {
                usage()
            }
            (
                Request::Artefact {
                    name: name.clone(),
                    scale,
                },
                None,
            )
        }
        Some("sim") => {
            let Some(kernel) = args.get(1).filter(|a| !a.starts_with("--")) else {
                usage()
            };
            (
                Request::Sim {
                    kernel: kernel.clone(),
                    scale,
                    spec: parse_spec(args, 2, true),
                },
                None,
            )
        }
        Some(op @ ("compile" | "profile")) => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                usage()
            };
            let source = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            let spec = parse_spec(args, 2, false);
            let req = if op == "profile" {
                Request::Profile { source, spec }
            } else {
                Request::Compile { source, spec }
            };
            (req, Some(path.clone()))
        }
        _ => usage(),
    }
}

/// Sends `req` on `count` concurrent connections and prints the typed
/// tally. Exits non-zero if any request is lost (no typed reply).
fn flood(addr: (&str, u16), req: &Request, count: usize) -> ! {
    let (mut ok, mut overloaded, mut server_errors, mut lost) = (0u64, 0u64, 0u64, 0u64);
    let outcomes: Vec<&str> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..count)
            .map(|_| {
                s.spawn(move || {
                    let Ok(mut client) = Client::connect(addr) else {
                        return "lost";
                    };
                    match client.request(req) {
                        Ok(_) => "ok",
                        Err(ClientError::Overloaded { retry_after_ms, .. }) => {
                            if retry_after_ms >= 1 {
                                "overloaded"
                            } else {
                                "lost" // a shed without an actionable hint
                            }
                        }
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
    for outcome in outcomes {
        match outcome {
            "ok" => ok += 1,
            "overloaded" => overloaded += 1,
            "server_error" => server_errors += 1,
            _ => lost += 1,
        }
    }
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
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut port: u16 = 7878;
    let mut replay_dir: Option<String> = None;
    let mut flood_count: Option<usize> = None;
    let mut connections: Option<usize> = None;
    let mut duration_ms: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--port" => {
                let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                port = v;
                args.drain(i..=i + 1);
            }
            "--replay-smoke" => {
                let Some(dir) = args.get(i + 1) else { usage() };
                replay_dir = Some(dir.clone());
                args.drain(i..=i + 1);
            }
            "--flood" => {
                let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                flood_count = Some(v);
                args.drain(i..=i + 1);
            }
            "--connections" => {
                let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                connections = Some(v);
                args.drain(i..=i + 1);
            }
            "--duration-ms" => {
                let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) else {
                    usage()
                };
                duration_ms = Some(v);
                args.drain(i..=i + 1);
            }
            _ => i += 1,
        }
    }
    let addr = ("127.0.0.1", port);
    // The connection-fan-out flags belong to the request subcommands only.
    let fan_out = flood_count.is_some() || connections.is_some() || duration_ms.is_some();

    if let Some(dir) = replay_dir {
        if !args.is_empty() || fan_out {
            usage()
        }
        let written = replay_artefacts(
            addr,
            &artefacts::NAMES,
            Scale::Test,
            std::path::Path::new(&dir),
        )
        .unwrap_or_else(|e| fail(e));
        for (name, bytes) in &written {
            eprintln!("  {dir}/{name}.txt ({bytes} bytes)");
        }
        println!("replayed {} artefacts into {dir}/", written.len());
        return;
    }

    let sub = args.first().map(String::as_str);
    let control = matches!(
        sub,
        Some("stats" | "metrics" | "trace" | "shutdown" | "estimate")
    );
    if control && fan_out {
        usage()
    }
    let tail = args.get(1..).unwrap_or_default();
    match sub {
        Some("stats") => {
            let flags = parse_tail(tail, &["--watch", "--samples"], &[]);
            let (watch, samples) = (num_flag(&flags, "--watch"), num_flag(&flags, "--samples"));
            let mut client = Client::connect(addr).unwrap_or_else(|e| fail(e));
            if let Some(secs) = watch {
                watch_stats(&mut client, secs, samples);
            }
            let stats = client.stats().unwrap_or_else(|e| fail(e));
            println!("{}", stats.encode());
        }
        Some("metrics") => {
            let check = parse_tail(tail, &[], &["--check"]).contains_key("--check");
            let mut client = Client::connect(addr).unwrap_or_else(|e| fail(e));
            let text = client.metrics().unwrap_or_else(|e| fail(e));
            print!("{text}");
            if check {
                let stats = client.stats().unwrap_or_else(|e| fail(e));
                check_metrics(&text, &stats);
            }
        }
        Some("trace") => {
            let chrome = parse_tail(tail, &["--chrome"], &[]).remove("--chrome");
            let mut client = Client::connect(addr).unwrap_or_else(|e| fail(e));
            let traces = client.trace().unwrap_or_else(|e| fail(e));
            if let Some(out) = chrome {
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
        Some("shutdown") => {
            parse_tail(tail, &[], &[]);
            let mut client = Client::connect(addr).unwrap_or_else(|e| fail(e));
            client.shutdown().unwrap_or_else(|e| fail(e));
            println!("server shutting down");
        }
        Some("estimate") => {
            let (req, _) = build_request(tail);
            let mut client = Client::connect(addr).unwrap_or_else(|e| fail(e));
            let est = client.estimate(&req).unwrap_or_else(|e| fail(e));
            println!("{}", est.encode());
        }
        Some(_) => {
            let (req, source_path) = build_request(&args);
            if let Some(ms) = duration_ms {
                // Open-loop throughput mode; `--connections` names the
                // fan-out, or reuse the `--flood` count so the CI overload
                // step and the perf harness share one invocation shape.
                let conns = connections.or(flood_count).unwrap_or(32);
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
            if let Some(count) = flood_count {
                flood(addr, &req, count);
            }
            let mut client = Client::connect(addr).unwrap_or_else(|e| fail(e));
            match req {
                Request::Artefact { name, scale } => {
                    let text = client.artefact(&name, scale).unwrap_or_else(|e| fail(e));
                    print!("{text}");
                }
                Request::Sim {
                    kernel,
                    scale,
                    spec,
                } => {
                    let report = client.sim(&kernel, scale, spec).unwrap_or_else(|e| fail(e));
                    println!("{}", report.encode());
                }
                Request::Compile { source, spec } => {
                    let path = source_path.expect("compile keeps its path");
                    let text = client
                        .compile(&source, spec)
                        .unwrap_or_else(|e| fail(format!("{path}: {e}")));
                    print!("{text}");
                }
                Request::Profile { source, spec } => {
                    let path = source_path.expect("profile keeps its path");
                    let profile = client
                        .profile(&source, spec)
                        .unwrap_or_else(|e| fail(format!("{path}: {e}")));
                    // The annotated source is the human-facing artefact;
                    // print it byte-for-byte so CI can diff two runs.
                    let text = profile
                        .get("text")
                        .and_then(Json::as_str)
                        .unwrap_or_else(|| fail("profile reply lacks `text`"));
                    print!("{text}");
                }
                _ => unreachable!("build_request yields chargeable requests"),
            }
        }
        None => usage(),
    }
}
