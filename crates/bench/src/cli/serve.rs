//! `serve`'s command line.

use std::time::Duration;

use super::ANY;
use mve_obs::Level;
use mve_serve::ServeOptions;

/// The usage line.
pub const USAGE: &str = "usage: serve [--port N] [--workers N] [--cache-cap N] [--no-stdin-watch] \
     [--budget-units N] [--queue-cap N] [--queue-deadline-ms N] [--fair-share-pct N] \
     [--idle-timeout-ms N] [--write-stall-ms N] [--trace-ring N] \
     [--log-level error|warn|info|debug|off]";

/// What one `serve` run does.
#[derive(Debug)]
pub struct Serve {
    pub opts: ServeOptions,
    /// Shut down when stdin closes; off with `--no-stdin-watch`.
    pub watch_stdin: bool,
    /// `--log-level`, which overrides the `MVE_LOG` environment variable
    /// (`Some(None)` is `off`).
    pub log_level: Option<Option<Level>>,
}

/// Parses `serve`'s arguments. An absent flag keeps `ServeOptions`'
/// default (an unlimited budget), except `--port` (7878) and
/// `--workers` (the available parallelism).
pub fn parse(args: &[String]) -> Result<Serve, String> {
    let spec = "--port=N --workers=N --cache-cap=N --budget-units=N --queue-cap=N \
        --queue-deadline-ms=N --fair-share-pct=N --idle-timeout-ms=N --write-stall-ms=N \
        --trace-ring=N --log-level=LEVEL --no-stdin-watch";
    let a = super::parse(args, spec)?;
    a.no_words()?;
    let num = |flag| a.int(flag, ANY);
    let ms = |flag, default| Ok::<_, String>(num(flag)?.map_or(default, Duration::from_millis));
    let cores = || std::thread::available_parallelism().map_or(2, |n| n.get());
    let d = ServeOptions::default();
    let opts = ServeOptions {
        port: a.int("--port", 0..=65535)?.map_or(7878, |p| p as u16),
        workers: num("--workers")?.map_or_else(cores, |n| n as usize),
        cache_cap: num("--cache-cap")?.map_or(d.cache_cap, |n| n as usize),
        cost_budget: num("--budget-units")?.unwrap_or(d.cost_budget),
        queue_cap: num("--queue-cap")?.map_or(d.queue_cap, |n| n as usize),
        queue_deadline: ms("--queue-deadline-ms", d.queue_deadline)?,
        fair_share: num("--fair-share-pct")?.map_or(d.fair_share, |pct| pct as f64 / 100.0),
        idle_timeout: ms("--idle-timeout-ms", d.idle_timeout)?,
        write_stall_timeout: ms("--write-stall-ms", d.write_stall_timeout)?,
        trace_ring: a
            .int("--trace-ring", 16..=65536)?
            .map_or(d.trace_ring, |n| n as usize),
        ..d
    };
    let log_level = a
        .value("--log-level")
        .map(|v| Level::parse(v).ok_or("--log-level must be one of error|warn|info|debug|off"));
    Ok(Serve {
        opts,
        watch_stdin: !a.has("--no-stdin-watch"),
        log_level: log_level.transpose()?,
    })
}
