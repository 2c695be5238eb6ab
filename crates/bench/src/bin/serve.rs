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
//! An unknown flag, or a flag missing its value, exits 2 with the usage
//! line.
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
//! finish, the final metrics line is printed, and the process exits 0.

use std::collections::HashMap;
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use mve_bench::artefacts;
use mve_serve::{ServeOptions, Server};

const USAGE: &str = "usage: serve [--port N] [--workers N] [--cache-cap N] [--no-stdin-watch] \
     [--budget-units N] [--queue-cap N] [--queue-deadline-ms N] [--fair-share-pct N] \
     [--idle-timeout-ms N] [--write-stall-ms N] [--trace-ring N] \
     [--log-level error|warn|info|debug|off]";

/// Flags that take a value, as `--flag N` or `--flag=N`.
const VALUE_FLAGS: &[&str] = &[
    "--port",
    "--workers",
    "--cache-cap",
    "--budget-units",
    "--queue-cap",
    "--queue-deadline-ms",
    "--fair-share-pct",
    "--idle-timeout-ms",
    "--write-stall-ms",
    "--trace-ring",
    "--log-level",
];

/// Prints `msg` and the usage line, then exits 2.
fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The parsed command line: every value flag given, and whether stdin is
/// watched. An unknown flag, or a value flag without its value, exits 2.
struct Flags {
    values: HashMap<&'static str, String>,
    watch_stdin: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut flags = Flags {
            values: HashMap::new(),
            watch_stdin: true,
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--no-stdin-watch" {
                flags.watch_stdin = false;
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value.to_owned())),
                None => (arg.as_str(), None),
            };
            let Some(&flag) = VALUE_FLAGS.iter().find(|&&f| f == name) else {
                usage(&format!("unknown flag `{arg}`"));
            };
            let value = inline
                .or_else(|| args.next().filter(|v| !v.starts_with("--")).cloned())
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
            flags.values.insert(flag, value);
        }
        flags
    }

    /// The flag's integer value, `None` if absent — so absent admission
    /// flags keep `ServeOptions`' defaults (unlimited budget).
    fn num(&self, flag: &str) -> Option<u64> {
        self.values.get(flag).map(|v| {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a non-negative integer")))
        })
    }
}

/// SIGTERM sets a flag the watcher thread polls (the handler body must be
/// async-signal-safe, so it only stores an atomic). Raw `signal(2)`
/// binding — the workspace vendors no libc crate.
#[cfg(unix)]
mod sigterm {
    use super::*;

    pub static RECEIVED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigterm(_sig: i32) {
        RECEIVED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_sigterm);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args);
    // `--log-level LEVEL` overrides the `MVE_LOG` environment variable.
    if let Some(value) = flags.values.get("--log-level") {
        match mve_obs::Level::parse(value) {
            Some(level) => mve_obs::log::set_level(level),
            None => usage("--log-level must be one of error|warn|info|debug|off"),
        }
    }
    let default_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    let port = flags.num("--port").unwrap_or(7878);
    let Ok(port) = u16::try_from(port) else {
        eprintln!("--port {port} is out of range (0..=65535)");
        std::process::exit(2);
    };
    let defaults = ServeOptions::default();
    let opts = ServeOptions {
        port,
        workers: flags
            .num("--workers")
            .map_or(default_workers, |v| v as usize),
        cache_cap: flags.num("--cache-cap").map_or(256, |v| v as usize),
        cost_budget: flags.num("--budget-units").unwrap_or(defaults.cost_budget),
        queue_cap: flags
            .num("--queue-cap")
            .map_or(defaults.queue_cap, |v| v as usize),
        queue_deadline: flags
            .num("--queue-deadline-ms")
            .map_or(defaults.queue_deadline, Duration::from_millis),
        fair_share: flags
            .num("--fair-share-pct")
            .map_or(defaults.fair_share, |pct| pct as f64 / 100.0),
        idle_timeout: flags
            .num("--idle-timeout-ms")
            .map_or(defaults.idle_timeout, Duration::from_millis),
        write_stall_timeout: flags
            .num("--write-stall-ms")
            .map_or(defaults.write_stall_timeout, Duration::from_millis),
        trace_ring: {
            let n = flags
                .num("--trace-ring")
                .map_or(defaults.trace_ring, |v| v as usize);
            if !(16..=65536).contains(&n) {
                eprintln!("--trace-ring {n} is out of range (16..=65536)");
                std::process::exit(2);
            }
            n
        },
        ..ServeOptions::default()
    };

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

    #[cfg(unix)]
    sigterm::install();
    {
        let handle = server.handle();
        std::thread::spawn(move || loop {
            #[cfg(unix)]
            if sigterm::RECEIVED.load(Ordering::SeqCst) {
                eprintln!("SIGTERM received; shutting down");
                handle.shutdown();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });
    }
    if flags.watch_stdin {
        let handle = server.handle();
        std::thread::spawn(move || {
            // Block until stdin closes (EOF), then shut down gracefully.
            let mut sink = [0u8; 256];
            let mut stdin = std::io::stdin().lock();
            loop {
                match stdin.read(&mut sink) {
                    Ok(0) | Err(_) => {
                        eprintln!("stdin closed; shutting down");
                        handle.shutdown();
                        return;
                    }
                    Ok(_) => {}
                }
            }
        });
    }

    let stats = server.run();
    println!("{}", mve_serve::server::metrics_line(&stats));
}
