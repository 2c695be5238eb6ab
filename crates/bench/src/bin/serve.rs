//! The `mve-serve` daemon: a long-running simulation service over the
//! JSON-lines-over-TCP protocol (see `mve_serve` and DESIGN.md, "Service
//! layer"), wired to the shared artefact registry.
//!
//! ```text
//! serve [--port N] [--workers N] [--cache-cap N] [--no-stdin-watch]
//!       [--budget-units N] [--queue-cap N] [--queue-deadline-ms N]
//!       [--fair-share-pct N] [--idle-timeout-ms N] [--write-stall-ms N]
//!       [--trace-ring N] [--log-level error|warn|info|debug|off]
//! ```
//!
//! The command line is `mve_bench::cli::serve` (DESIGN.md, "Command
//! line"): a mistake exits 2 with the reason and the usage line.
//!
//! `--log-level` sets the structured NDJSON log threshold on stderr
//! (overriding the `MVE_LOG` environment variable); with neither set,
//! logging is off and every log site is a single atomic load.
//!
//! The admission flags bound what the daemon accepts (see DESIGN.md,
//! "Overload behavior"): `--budget-units` caps the total in-flight cost
//! (calibrated cost units; unlimited when absent), `--queue-cap` and
//! `--queue-deadline-ms` size the bounded FIFO over-budget requests wait
//! in, and `--fair-share-pct` caps any one connection's share of the
//! budget. Requests beyond all of that are shed with a typed
//! `overloaded` reply carrying `retry_after_ms`.
//!
//! Graceful shutdown on SIGTERM, on stdin EOF (disable with
//! `--no-stdin-watch` when running detached, e.g. in CI where stdin is
//! /dev/null), or on a client's `{"op":"shutdown"}` — in-flight requests
//! finish, the final `serve-metrics {…}` line (the `stats` reply's JSON)
//! is printed, and the process exits 0.

use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use mve_bench::{artefacts, cli};
use mve_serve::Server;

/// SIGTERM sets a flag the watcher thread polls (the handler body must be
/// async-signal-safe, so it only stores an atomic). Raw `signal(2)`
/// binding — the workspace vendors no libc crate.
static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    SIGTERM_RECEIVED.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

fn main() {
    let cli::serve::Serve {
        opts,
        watch_stdin,
        log_level,
    } = cli::from_env(cli::serve::USAGE, cli::serve::parse);
    if let Some(level) = log_level {
        mve_obs::log::set_level(level);
    }

    let server = Server::bind(&opts, artefacts::registry()).unwrap_or_else(|e| {
        eprintln!("failed to bind 127.0.0.1:{}: {e}", opts.port);
        std::process::exit(1);
    });
    let budget = if opts.cost_budget >= mve_serve::admission::UNLIMITED_BUDGET {
        "unlimited".to_owned()
    } else {
        format!(
            "{} units (queue {} / {} ms)",
            opts.cost_budget,
            opts.queue_cap,
            opts.queue_deadline.as_millis()
        )
    };
    println!(
        "mve-serve listening on 127.0.0.1:{} ({} workers, cache cap {}, budget {budget})",
        server.port(),
        opts.workers,
        opts.cache_cap
    );

    // 15 is SIGTERM.
    unsafe { signal(15, on_sigterm) };
    {
        let handle = server.handle();
        std::thread::spawn(move || loop {
            if SIGTERM_RECEIVED.load(Ordering::SeqCst) {
                eprintln!("SIGTERM received; shutting down");
                handle.shutdown();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
    if watch_stdin {
        let handle = server.handle();
        std::thread::spawn(move || {
            // Block until stdin closes (EOF), then shut down gracefully.
            let mut sink = [0u8; 256];
            while let Ok(1..) = std::io::stdin().read(&mut sink) {}
            eprintln!("stdin closed; shutting down");
            handle.shutdown();
        });
    }

    // The final `stats` snapshot, as the JSON a `stats` request returns.
    let stats = server.run();
    println!("serve-metrics {}", stats.encode());
}
