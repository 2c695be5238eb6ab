//! # mve-serve — the concurrent simulation service
//!
//! Every prior entry point was a one-shot CLI: each invocation rebuilt
//! hierarchies, re-executed kernels and exited. This crate turns the
//! reproduction into a long-running daemon serving artefact, `(kernel ×
//! SimConfig)`, DSL compile and profile requests — each unique one
//! computed once behind a single-flight result cache — over a std-only,
//! JSON-lines-over-TCP protocol (the workspace vendors no crates.io
//! dependencies; see DESIGN.md).
//!
//! Layers (bottom-up):
//!
//! * [`json`] — a hand-rolled minimal JSON reader/writer with exact
//!   integer round-tripping and deterministic output.
//! * [`protocol`] — request/response documents, typed error replies, and
//!   the content-addressed key scheme built on
//!   [`mve_core::sim::SimConfig::canonical_bytes`].
//! * [`cache`] — the single-flight LRU result cache: every unique request
//!   is computed exactly once, concurrent duplicates block for the result.
//! * [`cost`] — the calibrated per-op-class cost model pricing every
//!   request before it runs (`COST_MODEL.json`, regenerated by the
//!   `calibrate` binary and drift-checked in CI).
//! * [`admission`] — the bounded global cost budget with per-connection
//!   fairness and a bounded FIFO wait queue; over-budget requests are
//!   shed with typed `overloaded` replies carrying `retry_after_ms`.
//! * [`fault`] — test-only fault injection (worker panics, stalls,
//!   reservation abandonment) behind an inert-by-default [`fault::FaultPlan`].
//! * [`poller`] — raw-fd readiness polling over `poll(2)`, declared by
//!   direct FFI in the workspace's std-only style, plus the self-pipe
//!   wake mechanism.
//! * [`timer`] — one deadline-ordered map holding the idle reaper, the
//!   admission parking deadline, and write-stall detection.
//! * [`histogram`] — per-op-class service-time and queue-wait recording
//!   on `mve_obs`'s atomic log2 histogram, and the `stats` reply's
//!   `latency` object read back from the metrics registry.
//! * [`trace`] — per-request lifecycle traces (monotonic ids, phase
//!   timestamps received → parsed → admitted → dispatched → executed →
//!   flushed) retained in a bounded ring the `trace` op snapshots.
//! * [`server`] — the TCP daemon: a nonblocking event loop owning every
//!   connection state machine (bounded read/write buffers with explicit
//!   backpressure), a fixed worker pool that only ever holds *executing*
//!   requests, counters, graceful shutdown.
//! * [`client`] — the blocking client (with request deadline and
//!   overload-aware capped backoff), the smoke-set replay driver, and the
//!   open-loop throughput driver behind `mve-client --duration-ms`.
//!
//! The `serve` and `mve-client` binaries live in `mve-bench`, which owns
//! the artefact render functions and injects them via
//! [`server::ArtefactRegistry`] (dependency direction: bench → serve, so
//! the service hot paths stay benchmarkable from `mve_bench::perf`).

pub mod admission;
pub mod cache;
pub mod client;
pub mod cost;
pub mod digest;
pub mod fault;
pub mod histogram;
pub mod json;
pub mod poller;
pub mod protocol;
pub mod server;
pub mod timer;
pub mod trace;

pub use admission::{AdmissionController, AdmissionOptions, AdmissionSnapshot};
pub use cache::{CacheStats, ResultCache};
pub use client::{open_loop, Client, ClientError, OpenLoopReport};
pub use cost::CostModel;
pub use fault::FaultPlan;
pub use json::Json;
pub use protocol::{Request, SimSpec};
pub use server::{ArtefactFn, ArtefactRegistry, ServeOptions, Server, ShutdownHandle};
pub use trace::{RequestTrace, TraceRing};
