//! mve-obs: the workspace's observability plane.
//!
//! Everything here is std-only and dependency-free so every other crate
//! (core, lang, serve, bench) can sit on top of it without cycles:
//!
//! * [`log`] — leveled structured logging. Events are NDJSON objects on
//!   stderr, gated by `MVE_LOG=error|warn|info|debug` (or
//!   [`log::set_level`] from a `--log-level` flag). The [`logev!`] macro
//!   evaluates its field expressions only after the level gate passes, so
//!   a disabled log site costs one relaxed atomic load.
//! * [`metrics`] — a [`metrics::MetricsRegistry`] snapshot container that
//!   renders to Prometheus text exposition format, the workspace's one
//!   log2 latency histogram ([`metrics::AtomicLog2Histogram`]) and its
//!   quantile function, plus a strict parser for that format so tests and
//!   CI can validate live daemons without external tooling.
//! * [`chrome`] — a Chrome trace-event (catapult) JSON builder, so one
//!   kernel execution or one serve request can be opened as a timeline in
//!   `chrome://tracing` / Perfetto.

pub mod chrome;
pub mod log;
pub mod metrics;

pub use chrome::ChromeTrace;
pub use log::Level;
pub use metrics::MetricsRegistry;
