//! Service-layer integration over the REAL artefact registry: boots the
//! daemon on an ephemeral port, fires concurrent clients with overlapping
//! request sets, and asserts (a) responses are byte-identical to direct
//! `reproduce` output and (b) the cache counters prove each unique
//! request was computed exactly once.
//!
//! The set under test is the cheap half of the smoke artefacts (the full
//! 16-artefact replay runs in CI against release binaries); the sharing
//! machinery is identical for the expensive ones.

use mve_bench::artefacts;
use mve_core::sim::simulate;
use mve_insram::Scheme;
use mve_kernels::registry::kernel_by_name;
use mve_kernels::Scale;
use mve_serve::client::Client;
use mve_serve::json::Json;
use mve_serve::protocol::{report_to_json, SimSpec};
use mve_serve::server::{ServeOptions, Server};

/// Cheap artefacts (scale-independent tables + one kernel-driven figure).
const ARTEFACTS: [&str; 7] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig11",
    "ablations",
];

fn stat(stats: &Json, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats lack `{key}`: {stats:?}"))
}

#[test]
fn concurrent_replay_is_byte_identical_and_simulates_each_unique_request_once() {
    const CLIENTS: u64 = 4;
    let server = Server::bind(
        &ServeOptions {
            port: 0,
            workers: 3,
            cache_cap: 64,
            ..ServeOptions::default()
        },
        artefacts::registry(),
    )
    .expect("bind ephemeral port");
    let port = server.port();
    let join = std::thread::spawn(move || server.run());

    // Ground truth once, up front: the shared render functions (exactly
    // what `reproduce --smoke` writes) and two direct sim reports.
    let expected: Vec<(&str, String)> = ARTEFACTS
        .iter()
        .map(|&name| (name, artefacts::render(name, Scale::Test).expect(name)))
        .collect();
    let specs = [
        SimSpec::default(),
        SimSpec {
            scheme: Scheme::BitHybrid,
            ..SimSpec::default()
        },
    ];
    let expected_reports: Vec<String> = specs
        .iter()
        .map(|spec| {
            let run = kernel_by_name("memset")
                .expect("memset")
                .run_mve(Scale::Test);
            assert!(run.checked.ok());
            report_to_json(&simulate(&run.trace, &spec.to_config())).encode()
        })
        .collect();

    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let expected = expected.clone();
            let expected_reports = expected_reports.clone();
            let specs = specs.clone();
            s.spawn(move || {
                let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
                // Overlap: every client requests every artefact, rotated so
                // concurrent clients collide on different names at once.
                for i in 0..expected.len() {
                    let (name, want) = &expected[(i + c as usize) % expected.len()];
                    let got = client.artefact(name, Scale::Test).expect(name);
                    assert_eq!(
                        got, *want,
                        "{name}: server bytes must equal direct reproduce output"
                    );
                }
                for (spec, want) in specs.iter().zip(&expected_reports) {
                    let got = client
                        .sim("memset", Scale::Test, spec.clone())
                        .expect("sim");
                    assert_eq!(got.encode(), *want);
                }
            });
        }
    });

    let unique = ARTEFACTS.len() as u64 + specs.len() as u64;
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stat(&stats, "misses"),
        unique,
        "each unique (artefact|kernel, config) computed exactly once: {stats:?}"
    );
    assert_eq!(
        stat(&stats, "hits") + stat(&stats, "waits"),
        CLIENTS * unique - unique,
        "every duplicate served without recomputation: {stats:?}"
    );
    assert_eq!(stat(&stats, "errors"), 0);
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

/// The server's artefact bytes equal the in-process renders, which are
/// exactly what `reproduce --smoke` writes. (CI's replay step diffs the
/// full 16-artefact tree on disk.)
#[test]
fn served_artefacts_match_the_in_process_renders() {
    let server = Server::bind(&ServeOptions::default(), artefacts::registry()).expect("bind");
    let port = server.port();
    let join = std::thread::spawn(move || server.run());

    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    for name in ["table1", "table3", "table5", "ablations"] {
        let rendered = artefacts::render(name, Scale::Test).expect(name);
        let served = client.artefact(name, Scale::Test).expect(name);
        assert_eq!(
            served, rendered,
            "{name}: served bytes differ from the render"
        );
    }
    client.shutdown().expect("shutdown");
    join.join().expect("server thread");
}

/// The `serve` binary rejects what it does not understand instead of
/// running with defaults: an unknown flag, such as the retired poller
/// backend switch, or a value flag without its value exits 2 with usage.
#[test]
fn serve_rejects_unknown_flags_and_missing_values() {
    for args in [
        &["--port", "0", "--poller", "epoll"][..],
        &["--port", "0", "--bogus"],
        &["--port", "0", "--workers"],
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("spawn serve");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let usage = stderr
            .lines()
            .find(|l| l.starts_with("usage: serve [--port N]"))
            .unwrap_or_else(|| panic!("{args:?}: no usage line in {stderr}"));
        assert!(!usage.contains("poller"), "{usage}");
    }
}

/// `reproduce` is as strict as `serve`: a mistyped flag, a `--jobs` value
/// that is not a positive integer, or `--only` without a name exits 2 with
/// usage instead of running a paper-scale pass or panicking.
#[test]
fn reproduce_rejects_unknown_flags_and_malformed_values() {
    for args in [&["--smok"][..], &["--jobs", "abc"], &["--only"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("spawn reproduce");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("usage: reproduce")),
            "{args:?}: no usage line in {stderr}"
        );
    }
}

/// `calibrate` is as strict too: a mistyped flag, or `--write` without a
/// path (`--write --check` once took `--check` as the path, wrote nothing
/// and ran the drift check), exits 2 with usage before any probe runs.
#[test]
fn calibrate_rejects_unknown_flags_and_missing_values() {
    for args in [&["--chek"][..], &["--write"], &["--write", "--check"]] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_calibrate"))
            .args(args)
            .output()
            .expect("spawn calibrate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("usage: calibrate")),
            "{args:?}: no usage line in {stderr}"
        );
        assert!(
            !stderr.contains("calibrating"),
            "{args:?}: probes ran before the flag error: {stderr}"
        );
    }
}
