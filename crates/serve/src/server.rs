//! The simulation daemon: a nonblocking event loop owning every
//! connection, a fixed worker pool that only ever holds *executing*
//! requests, and the request handlers that tie the protocol to the cache
//! and the batching scheduler.
//!
//! Concurrency model (the PR 8 I/O core): one event-loop thread drives a
//! level-triggered `poll(2)` [`Poller`] over the listener, a self-pipe,
//! and every connection. Connections are per-fd state machines
//! with bounded read and write buffers — a peer that drains slowly stops
//! being *read from* once its write buffer crosses the high-water mark
//! (explicit backpressure), and a peer that stops draining entirely is
//! reaped by a write-stall timer. Requests parse on the loop; control
//! plane ops (`stats`, `estimate`, `shutdown`) execute inline, chargeable
//! ops are priced and admitted *on the loop* — admission-queued requests
//! park in the loop under a [`crate::timer::TimerWheel`] deadline without
//! holding a worker — and only admitted requests travel (with their
//! admission [`Charge`]) to the worker pool. Workers push completions and
//! wake the loop through the pipe.
//!
//! Cross-connection coordination happens in exactly two places — the
//! content-addressed [`ResultCache`] (single flight: every unique
//! `(kernel, config)` or `(artefact, scale)` is computed exactly once,
//! concurrent duplicates block for the result) and the [`Batcher`]
//! (concurrent sim requests sharing a kernel execute it once and fan
//! their configurations out over one trace walk).
//!
//! Shutdown is cooperative: the flag plus a wake byte stop the loop from
//! accepting, shed parked requests as typed `closed` overloads, let
//! in-flight executions finish, flush what can be flushed, and account
//! for any partially-received request lines.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mve_core::sim::simulate_sweep;
use mve_kernels::registry::kernel_by_name;
use mve_kernels::Scale;
use mve_lang::CompilePhases;
use mve_obs::logev;
use mve_obs::metrics::{Log2Histogram, MetricsRegistry, Scalar};
use mve_obs::Level;

use crate::admission::{
    AdmissionController, AdmissionOptions, Charge, HeadClaim, ShedReason, Ticket, TryAdmit,
    UNLIMITED_BUDGET,
};
use crate::cache::{Fetch, ResultCache};
use crate::cost::{CostModel, OpClass};
use crate::fault::FaultPlan;
use crate::histogram::{Histogram, LatencyMetrics, MetricClass};
use crate::json::Json;
use crate::poller::{wake_pipe, Event, Interest, Poller, WakeRx, WakeTx};
use crate::protocol::{
    artefact_key, compile_key, error_reply, error_reply_at, ok_artefact, ok_compile, ok_estimate,
    ok_metrics, ok_profile, ok_shutdown, ok_sim, ok_stats, ok_traces, op_name, overloaded_reply,
    parse_request, profile_key, profile_payload, report_to_json, scale_name, sim_key, Request,
    SimSpec,
};
use crate::scheduler::{BatchEntry, Batcher};
use crate::timer::{TimerId, TimerWheel};
use crate::trace::{PendingTrace, TraceRing};

/// An artefact renderer: scale in, the artefact's exact text out.
pub type ArtefactFn = Arc<dyn Fn(Scale) -> String + Send + Sync>;

/// The artefact vocabulary the server can render, injected by the binary
/// (the harness crate owns the render functions; the service stays
/// protocol-only and the two cannot cyclically depend).
#[derive(Clone, Default)]
pub struct ArtefactRegistry {
    entries: Vec<(&'static str, ArtefactFn)>,
    index: HashMap<&'static str, usize>,
}

impl ArtefactRegistry {
    /// A registry over `entries`; names must be unique.
    pub fn new(entries: Vec<(&'static str, ArtefactFn)>) -> Self {
        let index = entries
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (*name, i))
            .collect::<HashMap<_, _>>();
        assert_eq!(index.len(), entries.len(), "duplicate artefact names");
        Self { entries, index }
    }

    /// The renderer registered under `name`.
    pub fn get(&self, name: &str) -> Option<&ArtefactFn> {
        self.index.get(name).map(|&i| &self.entries[i].1)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(n, _)| *n).collect()
    }

    /// Registered names, sorted — the unknown-artefact help vocabulary.
    pub fn names_sorted(&self) -> Vec<&'static str> {
        let mut names = self.names();
        names.sort_unstable();
        names
    }
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Listen port (0 = ephemeral, query via [`Server::port`]).
    pub port: u16,
    /// Worker threads executing admitted requests.
    pub workers: usize,
    /// LRU bound on completed cache entries.
    pub cache_cap: usize,
    /// A connection that completes no request for this long is closed by
    /// the event loop's timer wheel, so idle connections cannot pin
    /// daemon resources indefinitely (the deadline applies only while
    /// *waiting* for a request — an executing or parked request is busy,
    /// not idle).
    pub idle_timeout: Duration,
    /// A connection whose peer accepts no reply bytes for this long is
    /// closed and counted under `stalled_writes` — the write-side twin of
    /// `idle_timeout`.
    pub write_stall_timeout: Duration,
    /// Admission-control cost budget in cost units (calibrated
    /// microseconds of worker compute; see [`crate::cost`]). The default
    /// is effectively unlimited — admission control is opt-in via
    /// `serve --budget-units`.
    pub cost_budget: u64,
    /// Bounded-FIFO admission queue capacity.
    pub queue_cap: usize,
    /// How long an over-budget request may wait (parked in the event
    /// loop) before it is shed.
    pub queue_deadline: Duration,
    /// Fraction of the budget one connection may hold in flight.
    pub fair_share: f64,
    /// Fault-injection plan (inert by default; tests arm it).
    pub faults: FaultPlan,
    /// Completed-request trace ring capacity (`serve --trace-ring`;
    /// validated to 16..=65536 by the CLI, clamped to ≥ 1 here).
    pub trace_ring: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let adm = AdmissionOptions::default();
        Self {
            port: 0,
            workers: 4,
            cache_cap: 256,
            idle_timeout: Duration::from_secs(60),
            write_stall_timeout: Duration::from_secs(10),
            cost_budget: UNLIMITED_BUDGET,
            queue_cap: adm.queue_cap,
            queue_deadline: adm.queue_deadline,
            fair_share: adm.fair_share,
            faults: FaultPlan::new(),
            trace_ring: crate::trace::TRACE_RING_CAPACITY,
        }
    }
}

/// Request/error counters (cache and batch counters live with their
/// structures).
#[derive(Debug, Default)]
pub struct Counters {
    /// Request lines received.
    pub requests: AtomicU64,
    /// Artefact requests.
    pub artefact_requests: AtomicU64,
    /// Simulation requests.
    pub sim_requests: AtomicU64,
    /// DSL compile requests.
    pub compile_requests: AtomicU64,
    /// Error replies sent (excluding typed `overloaded` sheds, which the
    /// admission counters track).
    pub errors: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// `estimate` requests (priced, never executed).
    pub estimate_requests: AtomicU64,
    /// Connection teardowns that discarded a partially-received request
    /// line (read error, reaping, or shutdown mid-line) — previously a
    /// silent drop.
    pub truncated_requests: AtomicU64,
    /// Connections reaped because the peer stopped draining replies past
    /// the write-stall deadline.
    pub stalled_writes: AtomicU64,
    /// Gauge: connections currently open.
    pub open_connections: AtomicU64,
    /// Gauge: requests currently executing on a worker.
    pub executing_requests: AtomicU64,
    /// `metrics` requests (Prometheus exposition renders).
    pub metrics_requests: AtomicU64,
    /// `trace` requests (trace-ring snapshots).
    pub trace_requests: AtomicU64,
    /// DSL per-line profile requests.
    pub profile_requests: AtomicU64,
}

/// An admitted request in transit to the worker pool. Only *executing*
/// work ever reaches this queue — parked/queued requests stay in the
/// event loop.
struct Job {
    token: u64,
    request: Request,
    charge: Charge,
    class: OpClass,
    ready_at: Instant,
    trace: PendingTrace,
}

/// A finished execution headed back to the event loop.
struct Completion {
    token: u64,
    reply: String,
    trace: PendingTrace,
}

/// Shared server state.
pub struct ServerState {
    cache: ResultCache,
    batcher: Batcher,
    artefacts: ArtefactRegistry,
    counters: Counters,
    admission: AdmissionController,
    faults: FaultPlan,
    shutdown: AtomicBool,
    latency: LatencyMetrics,
    /// Daemon start instant — the zero point of every trace timestamp.
    epoch: Instant,
    /// Monotonic request-id source.
    next_request_id: AtomicU64,
    /// Completed-request traces (bounded ring; the `trace` op snapshot).
    traces: TraceRing,
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    completions: Mutex<Vec<Completion>>,
    wake: WakeTx,
}

impl ServerState {
    /// Trips the shutdown flag and wakes everything: the event loop (via
    /// the self-pipe), the workers, and any admission-queue waiter, which
    /// sheds as `closed`.
    pub fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.admission.close();
        self.jobs_cv.notify_all();
        self.wake.wake();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The unified metrics snapshot: the single place every counter,
    /// gauge, and histogram is enumerated. Both the `stats` JSON reply
    /// (via [`ServerState::stats_json`], which preserves the historical
    /// member order CI greps) and the `metrics` op's Prometheus text
    /// exposition render from this registry, so the two views cannot
    /// drift apart.
    pub fn registry(&self) -> MetricsRegistry {
        let c = &self.counters;
        let cache = self.cache.stats();
        let (batches, batched_sims, joined) = self.batcher.stats.snapshot();
        let adm = self.admission.snapshot();
        let load = |a: &AtomicU64| a.load(Ordering::SeqCst);
        let mut reg = MetricsRegistry::new();
        // Scalar insertion order here IS the `stats` JSON member order —
        // append new metrics at the end of the scalars, never in the
        // middle (downstream tooling pattern-matches serialized runs).
        reg.counter("requests", "Request lines received.", load(&c.requests));
        reg.counter(
            "artefact_requests",
            "Artefact render requests executed.",
            load(&c.artefact_requests),
        );
        reg.counter(
            "sim_requests",
            "Simulation requests executed.",
            load(&c.sim_requests),
        );
        reg.counter(
            "compile_requests",
            "DSL compile requests executed.",
            load(&c.compile_requests),
        );
        reg.counter(
            "errors",
            "Error replies sent (excluding typed overload sheds).",
            load(&c.errors),
        );
        reg.counter("connections", "Connections accepted.", load(&c.connections));
        reg.counter(
            "batches",
            "Batched sim executions (one kernel run each).",
            batches,
        );
        reg.counter(
            "batched_sims",
            "Sim requests served through a batch.",
            batched_sims,
        );
        reg.counter("joined", "Requests that joined an existing batch.", joined);
        reg.counter("hits", "Result-cache hits.", cache.hits);
        reg.counter("waits", "Result-cache single-flight waits.", cache.waits);
        reg.counter(
            "misses",
            "Result-cache misses (unique computations).",
            cache.misses,
        );
        reg.counter("evictions", "Result-cache LRU evictions.", cache.evictions);
        reg.gauge_f("hit_rate", "Cache hits over lookups.", cache.hit_rate());
        reg.counter(
            "estimate_requests",
            "Estimate requests (priced, never executed).",
            load(&c.estimate_requests),
        );
        reg.counter(
            "truncated_requests",
            "Teardowns that discarded a partial request line.",
            load(&c.truncated_requests),
        );
        reg.gauge("budget", "Admission cost budget, cost units.", adm.budget);
        reg.gauge(
            "in_flight",
            "Admitted cost currently in flight.",
            adm.in_flight,
        );
        reg.gauge(
            "peak_in_flight",
            "Peak admitted cost in flight.",
            adm.peak_in_flight,
        );
        reg.counter(
            "admitted",
            "Requests admitted by the controller.",
            adm.admitted,
        );
        reg.counter(
            "queued",
            "Requests that waited in the admission queue.",
            adm.queued,
        );
        reg.gauge(
            "queue_depth",
            "Requests parked in the admission queue.",
            adm.queue_depth,
        );
        reg.counter(
            "sheds",
            "Requests shed with typed overload replies.",
            adm.sheds,
        );
        reg.counter(
            "shed_oversize",
            "Sheds: cost exceeds the whole budget.",
            adm.shed_oversize,
        );
        reg.counter(
            "shed_queue_full",
            "Sheds: admission queue full.",
            adm.shed_queue_full,
        );
        reg.counter(
            "shed_deadline",
            "Sheds: queue deadline expired.",
            adm.shed_deadline,
        );
        reg.counter(
            "shed_closed",
            "Sheds: server shutting down.",
            adm.shed_closed,
        );
        reg.counter(
            "faults_injected",
            "Injected faults (test-only fault plan).",
            self.faults.injected_total(),
        );
        reg.counter(
            "stalled_writes",
            "Connections reaped for not draining replies.",
            load(&c.stalled_writes),
        );
        reg.gauge(
            "open_connections",
            "Connections currently open.",
            load(&c.open_connections),
        );
        reg.gauge(
            "executing_requests",
            "Requests currently executing on a worker.",
            load(&c.executing_requests),
        );
        reg.counter(
            "metrics_requests",
            "Metrics (Prometheus exposition) requests.",
            load(&c.metrics_requests),
        );
        reg.counter(
            "trace_requests",
            "Trace-ring snapshot requests.",
            load(&c.trace_requests),
        );
        reg.counter(
            "traces_recorded",
            "Completed request traces recorded.",
            self.traces.recorded(),
        );
        reg.counter(
            "profile_requests",
            "DSL per-line profile requests executed.",
            load(&c.profile_requests),
        );
        for class in MetricClass::ALL {
            // The measured-cost EWMA the `estimate` op reports as
            // `measured_cost_us`, exposed as a per-class gauge family so
            // scrapers see model-vs-observed drift without a request.
            reg.gauge_f_with(
                "measured_cost_us",
                "Observed mean service time per op class, µs (EWMA).",
                &[("class", class.name())],
                self.latency.mean_service_us(class),
            );
            let (service, queue_wait) = self.latency.class_histograms(class);
            let labels = [("class", class.name())];
            reg.histogram(
                "request_service_us",
                "Request service time per op class, µs (log2 buckets).",
                &labels,
                log2_snapshot(service),
            );
            reg.histogram(
                "request_queue_wait_us",
                "Runnable-to-picked-up wait per op class, µs (log2 buckets).",
                &labels,
                log2_snapshot(queue_wait),
            );
        }
        reg
    }

    /// Flat counter snapshot — the `stats` reply and the metrics line.
    /// Derived from [`ServerState::registry`]: scalars in registry order,
    /// then the nested `latency` object.
    pub fn stats_json(&self) -> Json {
        let reg = self.registry();
        let mut members: Vec<(String, Json)> = reg
            .scalars()
            .map(|(name, v)| {
                let value = match v {
                    Scalar::U64(n) => Json::U64(n),
                    Scalar::F64(f) => Json::F64(f),
                };
                (name.to_owned(), value)
            })
            .collect();
        members.push(("latency".to_owned(), self.latency.to_json()));
        Json::Obj(members)
    }

    /// The `metrics` op body: the registry rendered as Prometheus text
    /// exposition under the `mve_serve` namespace.
    pub fn prometheus_text(&self) -> String {
        self.registry().render_prometheus("mve_serve")
    }

    fn next_request_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Finalizes a trace at reply-flush time: records it in the ring and
    /// emits the structured `serve.request` log event.
    fn finish_trace(&self, trace: PendingTrace, flushed: Instant) {
        let record = trace.finish(flushed, self.epoch);
        let level = if record.outcome == "ok" {
            Level::Debug
        } else {
            Level::Info
        };
        logev!(
            level,
            "serve.request",
            id = record.id,
            conn = record.conn,
            op = record.op,
            outcome = record.outcome,
            cache = record.cache,
            queue_wait_us = record.queue_wait_us(),
            service_us = record.executed_us - record.dispatched_us,
            total_us = record.flushed_us - record.received_us,
        );
        self.traces.push(record);
    }

    /// One-line human/CI-readable metrics summary of the current state.
    pub fn metrics_line(&self) -> String {
        metrics_line(&self.stats_json())
    }
}

/// Snapshot a serve histogram into the registry's raw-bucket form.
fn log2_snapshot(h: &Histogram) -> Log2Histogram {
    Log2Histogram {
        counts: h.bucket_counts().to_vec(),
        count: h.count(),
        sum: h.sum(),
    }
}

/// Renders a stats snapshot (from [`ServerState::stats_json`] or a final
/// [`Server::run`] result) as the one-line `serve-metrics k=v …` summary —
/// the single formatter behind the line CI greps for and uploads.
pub fn metrics_line(stats: &Json) -> String {
    let fields: Vec<String> = match stats {
        Json::Obj(members) => members
            .iter()
            .map(|(k, v)| format!("{k}={}", v.encode()))
            .collect(),
        _ => Vec::new(),
    };
    format!("serve-metrics {}", fields.join(" "))
        .trim_end()
        .to_owned()
}

/// A handle that can stop a running server from another thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<ServerState>,
}

impl ShutdownHandle {
    /// Requests a graceful shutdown.
    pub fn shutdown(&self) {
        self.state.trigger_shutdown();
    }
}

/// Event-loop timing knobs carried from [`ServeOptions`] into the loop.
#[derive(Debug, Clone, Copy)]
struct LoopConfig {
    idle_timeout: Duration,
    write_stall: Duration,
    queue_deadline: Duration,
}

/// A bound (not yet running) server.
pub struct Server {
    listener: TcpListener,
    workers: usize,
    state: Arc<ServerState>,
    wake_rx: WakeRx,
    cfg: LoopConfig,
}

impl Server {
    /// Binds `127.0.0.1:port`, opens the self-pipe, and prepares the
    /// shared state.
    pub fn bind(opts: &ServeOptions, artefacts: ArtefactRegistry) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", opts.port))?;
        listener.set_nonblocking(true)?;
        let (wake_tx, wake_rx) = wake_pipe()?;
        Ok(Self {
            listener,
            workers: opts.workers.max(1),
            state: Arc::new(ServerState {
                cache: ResultCache::new(opts.cache_cap),
                batcher: Batcher::new(),
                artefacts,
                counters: Counters::default(),
                admission: AdmissionController::new(AdmissionOptions {
                    budget: opts.cost_budget,
                    queue_cap: opts.queue_cap,
                    queue_deadline: opts.queue_deadline,
                    fair_share: opts.fair_share,
                }),
                faults: opts.faults.clone(),
                shutdown: AtomicBool::new(false),
                latency: LatencyMetrics::new(),
                epoch: Instant::now(),
                next_request_id: AtomicU64::new(0),
                traces: TraceRing::new(opts.trace_ring),
                jobs: Mutex::new(VecDeque::new()),
                jobs_cv: Condvar::new(),
                completions: Mutex::new(Vec::new()),
                wake: wake_tx,
            }),
            wake_rx,
            cfg: LoopConfig {
                idle_timeout: opts.idle_timeout,
                write_stall: opts.write_stall_timeout,
                queue_deadline: opts.queue_deadline,
            },
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.listener.local_addr().map(|a| a.port()).unwrap_or(0)
    }

    /// A shutdown handle usable from other threads.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Runs the event loop (on the calling thread) plus the worker pool
    /// until shutdown; returns the final counter snapshot.
    pub fn run(self) -> Json {
        let Server {
            listener,
            workers,
            state,
            wake_rx,
            cfg,
        } = self;
        let state_ref: &ServerState = &state;
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(move || worker_loop(state_ref));
            }
            let mut el = EventLoop {
                state: state_ref,
                listener: &listener,
                poller: Poller::new(),
                wake_rx,
                cfg,
                conns: HashMap::new(),
                parked: HashMap::new(),
                timers: TimerWheel::new(Instant::now(), TIMER_TICK, TIMER_SLOTS),
                outstanding: 0,
                events: Vec::new(),
                fired: Vec::new(),
                shutdown_at: None,
            };
            el.run();
            // Normally a no-op; on a fatal poller error it releases the
            // workers so the scope can join.
            state_ref.trigger_shutdown();
        });
        state.stats_json()
    }
}

fn worker_loop(state: &ServerState) {
    loop {
        let job = {
            let mut jobs = state.jobs.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = jobs.pop_front() {
                    break Some(job);
                }
                if state.is_shutting_down() {
                    break None;
                }
                let (guard, _timeout) = state
                    .jobs_cv
                    .wait_timeout(jobs, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                jobs = guard;
            }
        };
        let Some(mut job) = job else { return };
        let started = Instant::now();
        job.trace.mark_dispatched(started);
        state
            .latency
            .record_queue_wait(job.class.into(), started.duration_since(job.ready_at));
        state
            .counters
            .executing_requests
            .fetch_add(1, Ordering::SeqCst);
        let (reply, cache_outcome, ok) = {
            // Re-attach the charge as an RAII permit here, at the point of
            // execution: a panicking handler releases budget on unwind.
            let _permit = state.admission.resume(job.charge);
            match catch_unwind(AssertUnwindSafe(|| execute_chargeable(state, &job.request))) {
                Ok(done) => done,
                Err(payload) => {
                    state.counters.errors.fetch_add(1, Ordering::SeqCst);
                    let reply =
                        error_reply(&format!("request failed: {}", panic_message(&*payload)));
                    (reply, "none", false)
                }
            }
        };
        job.trace.mark_executed(Instant::now());
        job.trace.cache = cache_outcome;
        if !ok {
            job.trace.outcome = "error";
        }
        state
            .counters
            .executing_requests
            .fetch_sub(1, Ordering::SeqCst);
        state
            .latency
            .record_service(job.class.into(), started.elapsed());
        state
            .completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Completion {
                token: job.token,
                reply,
                trace: job.trace,
            });
        state.wake.wake();
    }
}

/// Hard cap on one buffered request line. The largest legitimate request
/// is a `compile` op (1 MiB of source, ≤ 6× inflation under JSON `\uXXXX`
/// escaping); beyond this the connection is dropped, so a newline-less
/// byte stream cannot balloon daemon memory before the protocol-layer
/// checks ever run. The same constant bounds a connection's read buffer.
const MAX_REQUEST_LINE_BYTES: usize = 8 << 20;

/// Write-buffer high-water mark: above this the event loop stops
/// consuming requests from (and stops reading) the connection until the
/// peer drains replies. One reply larger than the mark is still buffered
/// whole, so the true per-connection write bound is the high-water mark
/// plus the largest single reply.
const WRITE_HIGH_WATER: usize = 1 << 20;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
const READ_CHUNK: usize = 16 * 1024;
const TIMER_TICK: Duration = Duration::from_millis(5);
const TIMER_SLOTS: usize = 256;
/// After shutdown, stuck flushes are abandoned past this grace window.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimerKind {
    Idle,
    WriteStall,
    ParkDeadline,
}

/// What a connection is doing. At most one request per connection is in
/// flight at a time; pipelined requests wait as bytes in the bounded
/// read buffer. `Parked` is deliberately fat (the pending request rides
/// in it) — there is exactly one `ConnPhase` per connection, not a
/// collection of them, so boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
enum ConnPhase {
    /// Parsing lines / waiting for bytes.
    Ready,
    /// One request is executing on a worker.
    Executing,
    /// One request is parked in the admission queue — in the event loop,
    /// not on a worker thread.
    Parked {
        ticket: Ticket,
        request: Request,
        class: OpClass,
        ready_at: Instant,
        timer: TimerId,
        trace: PendingTrace,
    },
}

struct Conn {
    stream: TcpStream,
    /// Fairness-accounting id (the accept ordinal).
    conn_id: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    phase: ConnPhase,
    idle_timer: Option<TimerId>,
    stall_timer: Option<TimerId>,
    /// Peer sent FIN; serve any final unterminated request, then close.
    eof: bool,
    /// Close once the write buffer drains (oversize line, EOF tail).
    close_after_flush: bool,
    interest: Interest,
    /// Traces whose reply bytes are queued in `write_buf` but not yet
    /// drained to the peer — finalized (flushed-stamped) when the buffer
    /// empties, or at teardown.
    unflushed: Vec<PendingTrace>,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }
}

struct EventLoop<'a> {
    state: &'a ServerState,
    listener: &'a TcpListener,
    poller: Poller,
    wake_rx: WakeRx,
    cfg: LoopConfig,
    conns: HashMap<u64, Conn>,
    /// ticket.raw() → token for requests parked in the admission queue.
    parked: HashMap<u64, u64>,
    timers: TimerWheel<(u64, TimerKind)>,
    /// Jobs dispatched to workers and not yet completed.
    outstanding: usize,
    events: Vec<Event>,
    fired: Vec<(TimerId, (u64, TimerKind))>,
    shutdown_at: Option<Instant>,
}

impl EventLoop<'_> {
    fn run(&mut self) {
        self.poller
            .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ);
        self.poller
            .register(self.wake_rx.fd(), TOKEN_WAKE, Interest::READ);
        loop {
            let now = Instant::now();
            let mut timeout = self
                .timers
                .next_deadline(now)
                .unwrap_or(Duration::from_millis(500))
                .min(Duration::from_millis(500));
            if self.shutdown_at.is_some() {
                timeout = timeout.min(Duration::from_millis(50));
            }
            if self.poller.wait(&mut self.events, Some(timeout)).is_err() {
                break;
            }
            for i in 0..self.events.len() {
                let ev = self.events[i];
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.wake_rx.drain(),
                    token => self.conn_event(token, ev),
                }
            }
            self.drain_completions();
            self.expire_timers(Instant::now());
            self.advance_parked();
            if self.state.is_shutting_down() {
                if self.shutdown_at.is_none() {
                    self.shutdown_at = Some(Instant::now());
                    self.begin_shutdown();
                }
                self.shutdown_sweep();
                let grace_over = self
                    .shutdown_at
                    .is_some_and(|t| t.elapsed() > SHUTDOWN_GRACE);
                if (self.outstanding == 0 && self.conns.is_empty()) || grace_over {
                    break;
                }
            }
        }
        self.finish();
    }

    fn accept_ready(&mut self) {
        loop {
            if self.state.is_shutting_down() {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    // The accept ordinal doubles as the fairness id.
                    let conn_id = self
                        .state
                        .counters
                        .connections
                        .fetch_add(1, Ordering::SeqCst);
                    let token = FIRST_CONN_TOKEN + conn_id;
                    self.poller
                        .register(stream.as_raw_fd(), token, Interest::READ);
                    self.state
                        .counters
                        .open_connections
                        .fetch_add(1, Ordering::SeqCst);
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            conn_id,
                            read_buf: Vec::new(),
                            write_buf: Vec::new(),
                            write_pos: 0,
                            phase: ConnPhase::Ready,
                            idle_timer: None,
                            stall_timer: None,
                            eof: false,
                            close_after_flush: false,
                            interest: Interest::READ,
                            unflushed: Vec::new(),
                        },
                    );
                    logev!(Level::Debug, "serve.accept", conn = conn_id);
                    self.rearm_idle(token);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, token: u64, ev: Event) {
        if !self.conns.contains_key(&token) {
            return;
        }
        if ev.error {
            self.close_conn(token, true);
            return;
        }
        if ev.writable {
            self.flush_writes(token);
        }
        if ev.readable {
            self.read_ready(token);
        }
        self.after_io(token);
    }

    fn want_read(&self, conn: &Conn) -> bool {
        !conn.eof
            && !conn.close_after_flush
            && !self.state.is_shutting_down()
            && conn.pending_write() < WRITE_HIGH_WATER
            && conn.read_buf.len() <= MAX_REQUEST_LINE_BYTES
    }

    fn read_ready(&mut self, token: u64) {
        let mut failed = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.eof
                || conn.close_after_flush
                || conn.pending_write() >= WRITE_HIGH_WATER
                || conn.read_buf.len() > MAX_REQUEST_LINE_BYTES
            {
                return;
            }
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&chunk[..n]);
                        if n < chunk.len() || conn.read_buf.len() > MAX_REQUEST_LINE_BYTES {
                            break;
                        }
                    }
                    Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            self.close_conn(token, true);
        }
    }

    /// Parse and dispatch as many buffered requests as backpressure and
    /// the one-in-flight rule allow.
    fn process_conn(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !matches!(conn.phase, ConnPhase::Ready) || conn.close_after_flush {
                return;
            }
            if conn.pending_write() >= WRITE_HIGH_WATER {
                return; // backpressure: the peer must drain replies first
            }
            let nl = conn.read_buf.iter().position(|&b| b == b'\n');
            let line: Vec<u8> = match nl {
                Some(pos) => {
                    let mut line: Vec<u8> = conn.read_buf.drain(..=pos).collect();
                    line.pop();
                    line
                }
                None if conn.read_buf.len() > MAX_REQUEST_LINE_BYTES => {
                    // Reply (best effort) and drop the connection: the
                    // sender is either broken or hostile.
                    conn.read_buf.clear();
                    conn.close_after_flush = true;
                    self.push_reply(token, error_reply("request line exceeds the size limit"));
                    return;
                }
                None if conn.eof && !conn.read_buf.is_empty() => {
                    // EOF followed a final (unterminated) request: serve
                    // it, then close.
                    conn.close_after_flush = true;
                    std::mem::take(&mut conn.read_buf)
                }
                None => return,
            };
            let text = String::from_utf8_lossy(&line);
            let text = text.trim();
            if text.is_empty() {
                if self.conns.get(&token).is_some_and(|c| c.close_after_flush) {
                    // The EOF tail was pure whitespace: a clean EOF.
                    self.close_conn(token, false);
                    return;
                }
                continue;
            }
            let text = text.to_owned();
            self.handle_line(token, &text);
        }
    }

    /// One parsed request line: control plane executes inline, chargeable
    /// ops are priced + admitted here and executed on a worker.
    fn handle_line(&mut self, token: u64, line: &str) {
        let state = self.state;
        state.counters.requests.fetch_add(1, Ordering::SeqCst);
        let t0 = Instant::now();
        let conn_id = self.conns.get(&token).map_or(0, |c| c.conn_id);
        let mut trace = PendingTrace::new(state.next_request_id(), conn_id, t0);
        let req = match parse_request(line) {
            Ok(req) => req,
            Err(msg) => {
                state.counters.errors.fetch_add(1, Ordering::SeqCst);
                trace.outcome = "error";
                trace.collapse_remaining(Instant::now());
                self.push_reply_traced(token, error_reply(&msg), trace);
                return;
            }
        };
        trace.op = op_name(&req);
        trace.mark_parsed(Instant::now());
        // Inline (control-plane) ops never queue or execute on a worker:
        // their remaining phases collapse to the reply instant.
        let inline_reply = |state: &ServerState, class: MetricClass, reply: String| {
            state.latency.record_queue_wait(class, Duration::ZERO);
            state.latency.record_service(class, t0.elapsed());
            reply
        };
        match req {
            Request::Stats => {
                let reply = inline_reply(state, MetricClass::Stats, ok_stats(state.stats_json()));
                trace.collapse_remaining(Instant::now());
                self.push_reply_traced(token, reply, trace);
            }
            Request::Metrics => {
                state
                    .counters
                    .metrics_requests
                    .fetch_add(1, Ordering::SeqCst);
                let reply = inline_reply(
                    state,
                    MetricClass::Metrics,
                    ok_metrics(&state.prometheus_text()),
                );
                trace.collapse_remaining(Instant::now());
                self.push_reply_traced(token, reply, trace);
            }
            Request::Trace => {
                state.counters.trace_requests.fetch_add(1, Ordering::SeqCst);
                let reply =
                    inline_reply(state, MetricClass::Trace, ok_traces(state.traces.to_json()));
                trace.collapse_remaining(Instant::now());
                self.push_reply_traced(token, reply, trace);
            }
            Request::Shutdown => {
                trace.collapse_remaining(Instant::now());
                self.push_reply_traced(token, ok_shutdown(), trace);
                logev!(Level::Info, "serve.shutdown", conn = conn_id);
                state.trigger_shutdown();
            }
            Request::Estimate(inner) => {
                state
                    .counters
                    .estimate_requests
                    .fetch_add(1, Ordering::SeqCst);
                // The parser only admits chargeable inner requests, and
                // the reply uses the same `charge` the controller levies —
                // the estimate and the eventual admission charge cannot
                // diverge.
                let est = CostModel::committed()
                    .charge(&inner)
                    .expect("estimate inner request is chargeable");
                let reply = ok_estimate(
                    est.class.name(),
                    est.cost,
                    state.admission.would_admit(conn_id, est.cost),
                    state.latency.mean_service_us(est.class.into()),
                );
                let reply = inline_reply(state, MetricClass::Estimate, reply);
                trace.collapse_remaining(Instant::now());
                self.push_reply_traced(token, reply, trace);
            }
            chargeable => self.dispatch_chargeable(token, chargeable, t0, trace),
        }
    }

    fn dispatch_chargeable(
        &mut self,
        token: u64,
        req: Request,
        ready_at: Instant,
        mut trace: PendingTrace,
    ) {
        // Admission happens before any compute: a shed request costs the
        // daemon one formula evaluation, nothing more.
        let est = CostModel::committed()
            .charge(&req)
            .expect("artefact/sim/compile are chargeable");
        let Some(conn_id) = self.conns.get(&token).map(|c| c.conn_id) else {
            return;
        };
        match self.state.admission.try_admit(conn_id, est.cost) {
            TryAdmit::Admitted(permit) => {
                trace.mark_admitted(Instant::now());
                let charge = permit.into_charge();
                self.dispatch_job(token, req, charge, est.class, ready_at, trace);
            }
            TryAdmit::Queued(ticket) => {
                // Park in the event loop: no worker thread is held while
                // this request waits for budget. The admission decision is
                // stamped when the queue head is eventually claimed (or
                // the request sheds), so park time shows up between
                // `parsed` and `admitted`.
                let timer = self.timers.insert(
                    Instant::now(),
                    self.cfg.queue_deadline,
                    (token, TimerKind::ParkDeadline),
                );
                let conn = self.conns.get_mut(&token).expect("checked above");
                if let Some(id) = conn.idle_timer.take() {
                    self.timers.cancel(id);
                }
                conn.phase = ConnPhase::Parked {
                    ticket,
                    request: req,
                    class: est.class,
                    ready_at,
                    timer,
                    trace,
                };
                self.parked.insert(ticket.raw(), token);
            }
            TryAdmit::Shed(shed) => {
                self.shed_reply(token, trace, shed.reason, shed.retry_after_ms);
            }
        }
    }

    /// The typed overload reply plus its complete trace record: a shed
    /// request's remaining phases collapse to the shed instant.
    fn shed_reply(
        &mut self,
        token: u64,
        mut trace: PendingTrace,
        reason: ShedReason,
        retry_after_ms: u64,
    ) {
        trace.outcome = "overloaded";
        trace.collapse_remaining(Instant::now());
        logev!(
            Level::Info,
            "serve.shed",
            id = trace.id,
            conn = trace.conn,
            op = trace.op,
            reason = shed_reason_text(reason),
            retry_after_ms = retry_after_ms,
        );
        self.push_reply_traced(
            token,
            overloaded_reply(shed_reason_text(reason), retry_after_ms),
            trace,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch_job(
        &mut self,
        token: u64,
        request: Request,
        charge: Charge,
        class: OpClass,
        ready_at: Instant,
        trace: PendingTrace,
    ) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.phase = ConnPhase::Executing;
            if let Some(id) = conn.idle_timer.take() {
                self.timers.cancel(id);
            }
        }
        self.outstanding += 1;
        let mut jobs = self
            .state
            .jobs
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        jobs.push_back(Job {
            token,
            request,
            charge,
            class,
            ready_at,
            trace,
        });
        drop(jobs);
        self.state.jobs_cv.notify_one();
    }

    fn drain_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut guard = self
                .state
                .completions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *guard)
        };
        for c in done {
            self.outstanding -= 1;
            let Some(conn) = self.conns.get_mut(&c.token) else {
                // Connection died while its request executed: the reply is
                // undeliverable but the trace record still completes.
                let mut trace = c.trace;
                trace.outcome = "closed";
                self.state.finish_trace(trace, Instant::now());
                continue;
            };
            if matches!(conn.phase, ConnPhase::Executing) {
                conn.phase = ConnPhase::Ready;
            }
            self.push_reply_traced(c.token, c.reply, c.trace);
            self.after_io(c.token);
        }
    }

    /// Queue the reply bytes and flush opportunistically.
    fn push_reply(&mut self, token: u64, reply: String) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.write_buf.extend_from_slice(reply.as_bytes());
            conn.write_buf.push(b'\n');
        }
        self.flush_writes(token);
        self.rearm_idle(token);
    }

    /// [`Self::push_reply`], plus the request's trace: the trace finishes
    /// when the reply bytes fully drain to the socket — immediately if
    /// this flush empties the write buffer, otherwise from a later
    /// [`Self::flush_writes`] (or connection teardown).
    fn push_reply_traced(&mut self, token: u64, reply: String, trace: PendingTrace) {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                self.state.finish_trace(trace, Instant::now());
                return;
            };
            conn.write_buf.extend_from_slice(reply.as_bytes());
            conn.write_buf.push(b'\n');
            conn.unflushed.push(trace);
        }
        self.flush_writes(token);
        self.rearm_idle(token);
    }

    fn flush_writes(&mut self, token: u64) {
        let mut failed = false;
        let mut progressed = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            while conn.write_pos < conn.write_buf.len() {
                match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                    Ok(0) => {
                        failed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.write_pos += n;
                        progressed = true;
                    }
                    Err(ref e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(ref e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            self.close_conn(token, true);
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.write_pos == conn.write_buf.len() {
            conn.write_buf.clear();
            conn.write_pos = 0;
            if !conn.unflushed.is_empty() {
                let now = Instant::now();
                for trace in conn.unflushed.drain(..) {
                    self.state.finish_trace(trace, now);
                }
            }
            if let Some(id) = conn.stall_timer.take() {
                self.timers.cancel(id);
            }
        } else if progressed || conn.stall_timer.is_none() {
            // (Re)arm the stall clock on first residue and on progress, so
            // only a peer making *no* progress for the full window is
            // reaped.
            if let Some(id) = conn.stall_timer.take() {
                self.timers.cancel(id);
            }
            let id = self.timers.insert(
                Instant::now(),
                self.cfg.write_stall,
                (token, TimerKind::WriteStall),
            );
            conn.stall_timer = Some(id);
        }
    }

    /// Post-I/O bookkeeping: parse what arrived, close what is due,
    /// resync poller interest.
    fn after_io(&mut self, token: u64) {
        self.process_conn(token);
        self.finalize_conn(token);
    }

    fn finalize_conn(&mut self, token: u64) {
        let close_now = {
            let Some(conn) = self.conns.get(&token) else {
                return;
            };
            let flushed = conn.pending_write() == 0;
            let ready = matches!(conn.phase, ConnPhase::Ready);
            // Two clean-close cases, neither discarding anything: a due
            // close whose reply has drained, or flushed EOF with no tail.
            let due = conn.close_after_flush || (conn.eof && conn.read_buf.is_empty());
            if due && flushed && ready {
                Some(false)
            } else {
                None
            }
        };
        if let Some(count_partial) = close_now {
            self.close_conn(token, count_partial);
            return;
        }
        self.update_interest(token);
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let want = Interest {
            read: self.want_read(conn),
            write: conn.pending_write() > 0,
        };
        if want != conn.interest {
            self.poller.register(conn.stream.as_raw_fd(), token, want);
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.interest = want;
            }
        }
    }

    /// Reset the idle deadline — called at accept and after every
    /// completed request, never on partial bytes, so a trickling sender
    /// cannot dodge the reaper.
    fn rearm_idle(&mut self, token: u64) {
        let now = Instant::now();
        let idle = self.cfg.idle_timeout;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !matches!(conn.phase, ConnPhase::Ready) || conn.close_after_flush {
            return;
        }
        if let Some(id) = conn.idle_timer.take() {
            self.timers.cancel(id);
        }
        conn.idle_timer = Some(self.timers.insert(now, idle, (token, TimerKind::Idle)));
    }

    fn expire_timers(&mut self, now: Instant) {
        let mut fired = std::mem::take(&mut self.fired);
        self.timers.poll_expired(now, &mut fired);
        for &(id, (token, kind)) in &fired {
            match kind {
                TimerKind::Idle => {
                    // Guard against stale ids: the timer must still be the
                    // connection's current one.
                    if self
                        .conns
                        .get(&token)
                        .is_some_and(|c| c.idle_timer == Some(id))
                    {
                        self.close_conn(token, true);
                    }
                }
                TimerKind::WriteStall => {
                    if self
                        .conns
                        .get(&token)
                        .is_some_and(|c| c.stall_timer == Some(id))
                    {
                        self.state
                            .counters
                            .stalled_writes
                            .fetch_add(1, Ordering::SeqCst);
                        self.close_conn(token, true);
                    }
                }
                TimerKind::ParkDeadline => self.park_deadline(token, id),
            }
        }
        self.fired = fired;
    }

    fn park_deadline(&mut self, token: u64, id: TimerId) {
        let (ticket, trace) = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let matches_timer =
                matches!(&conn.phase, ConnPhase::Parked { timer, .. } if *timer == id);
            if !matches_timer {
                return;
            }
            let ConnPhase::Parked { ticket, trace, .. } =
                std::mem::replace(&mut conn.phase, ConnPhase::Ready)
            else {
                unreachable!("checked parked above");
            };
            (ticket, trace)
        };
        self.parked.remove(&ticket.raw());
        if let Some(shed) = self.state.admission.shed_ticket(ticket) {
            self.shed_reply(token, trace, shed.reason, shed.retry_after_ms);
        } else {
            // Cannot race with claim_head (same thread); defensive only.
            self.state.finish_trace(trace, Instant::now());
            self.rearm_idle(token);
        }
        self.after_io(token);
    }

    /// Admit parked requests from the queue head while budget allows —
    /// the event-loop counterpart of the blocking waiter wake-up.
    fn advance_parked(&mut self) {
        loop {
            match self.state.admission.claim_head() {
                HeadClaim::Empty | HeadClaim::Pending => return,
                HeadClaim::Admitted { ticket, permit } => {
                    let Some(token) = self.parked.remove(&ticket.raw()) else {
                        drop(permit); // releases the charge
                        continue;
                    };
                    let Some(conn) = self.conns.get_mut(&token) else {
                        drop(permit);
                        continue;
                    };
                    let phase = std::mem::replace(&mut conn.phase, ConnPhase::Executing);
                    let ConnPhase::Parked {
                        request,
                        class,
                        ready_at,
                        timer,
                        mut trace,
                        ..
                    } = phase
                    else {
                        unreachable!("parked map points at a non-parked conn");
                    };
                    self.timers.cancel(timer);
                    trace.mark_admitted(Instant::now());
                    self.dispatch_job(token, request, permit.into_charge(), class, ready_at, trace);
                }
                HeadClaim::Shed { ticket, shed } => {
                    let Some(token) = self.parked.remove(&ticket.raw()) else {
                        continue;
                    };
                    let Some(conn) = self.conns.get_mut(&token) else {
                        continue;
                    };
                    let phase = std::mem::replace(&mut conn.phase, ConnPhase::Ready);
                    let ConnPhase::Parked { timer, trace, .. } = phase else {
                        unreachable!("parked map points at a non-parked conn");
                    };
                    self.timers.cancel(timer);
                    self.shed_reply(token, trace, shed.reason, shed.retry_after_ms);
                    self.after_io(token);
                }
            }
        }
    }

    fn begin_shutdown(&mut self) {
        self.poller.deregister(self.listener.as_raw_fd());
        // Admission is closed: every parked request sheds as `closed`
        // with a typed reply before its connection is swept.
        self.advance_parked();
    }

    /// Close every connection that has nothing left to do: reply flushed,
    /// no request in flight. Buffered complete lines are still served
    /// (chargeable ones shed as `closed`); a partial tail counts as
    /// truncated.
    fn shutdown_sweep(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.process_conn(token);
            let done = self
                .conns
                .get(&token)
                .is_some_and(|c| matches!(c.phase, ConnPhase::Ready) && c.pending_write() == 0);
            if done {
                self.close_conn(token, true);
            }
        }
    }

    /// Final teardown: best-effort blocking flush with a short timeout,
    /// then close and account for discarded partial lines.
    fn finish(&mut self) {
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                if conn.pending_write() > 0 {
                    let pending = conn.write_buf[conn.write_pos..].to_vec();
                    let _ = conn.stream.set_nonblocking(false);
                    let _ = conn
                        .stream
                        .set_write_timeout(Some(Duration::from_millis(250)));
                    let _ = conn.stream.write_all(&pending);
                    conn.write_pos = conn.write_buf.len();
                }
            }
            self.close_conn(token, true);
        }
    }

    fn close_conn(&mut self, token: u64, count_partial: bool) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let now = Instant::now();
        if let Some(id) = conn.idle_timer {
            self.timers.cancel(id);
        }
        if let Some(id) = conn.stall_timer {
            self.timers.cancel(id);
        }
        // Replies whose bytes never fully drained still complete their
        // trace records at teardown.
        for trace in conn.unflushed {
            self.state.finish_trace(trace, now);
        }
        if let ConnPhase::Parked {
            ticket,
            timer,
            mut trace,
            ..
        } = conn.phase
        {
            self.timers.cancel(timer);
            self.parked.remove(&ticket.raw());
            // The connection died while parked: nobody to answer, so no
            // shed accounting either.
            self.state.admission.forget_ticket(ticket);
            trace.outcome = "closed";
            trace.collapse_remaining(now);
            self.state.finish_trace(trace, now);
        }
        self.poller.deregister(conn.stream.as_raw_fd());
        if count_partial && !conn.read_buf.is_empty() {
            self.state
                .counters
                .truncated_requests
                .fetch_add(1, Ordering::SeqCst);
            // A partial line never reached `handle_line`, so synthesize
            // its complete trace record here.
            let mut trace = PendingTrace::new(self.state.next_request_id(), conn.conn_id, now);
            trace.outcome = "truncated";
            trace.collapse_remaining(now);
            self.state.finish_trace(trace, now);
        }
        logev!(Level::Debug, "serve.close", conn = conn.conn_id);
        self.state
            .counters
            .open_connections
            .fetch_sub(1, Ordering::SeqCst);
    }
}

/// Prose for the typed `overloaded` reply.
fn shed_reason_text(reason: ShedReason) -> &'static str {
    match reason {
        ShedReason::Oversize => "request cost exceeds the admission budget",
        ShedReason::QueueFull => "admission queue full",
        ShedReason::Deadline => "admission queue deadline expired",
        ShedReason::Closed => "server shutting down",
    }
}

/// Executes one admitted chargeable request on a worker thread. The
/// admission permit is held by the caller ([`worker_loop`]) across this
/// call, covering cache waits and batched execution alike. Returns the
/// reply line plus the trace attribution: cache outcome
/// (`"hit"`/`"miss"`/`"none"`) and whether the request succeeded.
fn execute_chargeable(state: &ServerState, req: &Request) -> (String, &'static str, bool) {
    let fail = |msg: &str| {
        state.counters.errors.fetch_add(1, Ordering::SeqCst);
        (error_reply(msg), "none", false)
    };
    let cache_name = |hit: bool| if hit { "hit" } else { "miss" };
    match req {
        Request::Artefact { name, scale } => {
            state
                .counters
                .artefact_requests
                .fetch_add(1, Ordering::SeqCst);
            match serve_artefact(state, name, *scale) {
                Ok((bytes, hit)) => match std::str::from_utf8(&bytes) {
                    Ok(text) => (ok_artefact(name, text), cache_name(hit), true),
                    Err(_) => fail("artefact bytes are not UTF-8"),
                },
                Err(msg) => fail(&msg),
            }
        }
        Request::Compile { source, spec } => {
            state
                .counters
                .compile_requests
                .fetch_add(1, Ordering::SeqCst);
            match serve_compile(state, source, spec) {
                Ok((bytes, phases)) => match std::str::from_utf8(&bytes) {
                    Ok(text) => (
                        ok_compile(text, phases.as_ref()),
                        cache_name(phases.is_none()),
                        true,
                    ),
                    Err(_) => fail("compile bytes are not UTF-8"),
                },
                Err((msg, line, col)) => {
                    state.counters.errors.fetch_add(1, Ordering::SeqCst);
                    (error_reply_at(&msg, line, col), "none", false)
                }
            }
        }
        Request::Profile { source, spec } => {
            state
                .counters
                .profile_requests
                .fetch_add(1, Ordering::SeqCst);
            match serve_profile(state, source, spec) {
                Ok((bytes, hit)) => match std::str::from_utf8(&bytes) {
                    Ok(fragment) => (ok_profile(fragment), cache_name(hit), true),
                    Err(_) => fail("profile bytes are not UTF-8"),
                },
                Err((msg, line, col)) => {
                    state.counters.errors.fetch_add(1, Ordering::SeqCst);
                    (error_reply_at(&msg, line, col), "none", false)
                }
            }
        }
        Request::Sim {
            kernel,
            scale,
            spec,
        } => {
            state.counters.sim_requests.fetch_add(1, Ordering::SeqCst);
            match serve_sim(state, kernel, *scale, spec) {
                Ok((bytes, hit)) => match std::str::from_utf8(&bytes) {
                    Ok(fragment) => (ok_sim(kernel, fragment), cache_name(hit), true),
                    Err(_) => fail("report bytes are not UTF-8"),
                },
                Err(msg) => fail(&msg),
            }
        }
        Request::Estimate(_)
        | Request::Stats
        | Request::Metrics
        | Request::Trace
        | Request::Shutdown => {
            unreachable!("control-plane ops are served inline by the event loop")
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "worker panicked".to_owned())
}

fn serve_artefact(
    state: &ServerState,
    name: &str,
    scale: Scale,
) -> Result<(Arc<Vec<u8>>, bool), String> {
    let Some(render) = state.artefacts.get(name) else {
        let names = state.artefacts.names_sorted();
        let suggestion = mve_kernels::registry::did_you_mean(name, &names)
            .map(|s| format!(" did you mean `{s}`?"))
            .unwrap_or_default();
        return Err(format!(
            "unknown artefact `{name}`;{suggestion} valid artefacts: {}",
            names.join(", ")
        ));
    };
    match state.cache.fetch(artefact_key(name, scale)) {
        Fetch::Hit(bytes) => Ok((bytes, true)),
        Fetch::Miss => {
            let key = artefact_key(name, scale);
            if state.faults.should_abandon_reservation() {
                state.cache.abandon(key);
                return Err(format!("artefact `{name}` failed: injected abandonment"));
            }
            match catch_unwind(AssertUnwindSafe(|| {
                state.faults.on_compute();
                render(scale)
            })) {
                Ok(text) => Ok((state.cache.fulfill(key, text.into_bytes()), false)),
                Err(payload) => {
                    state.cache.abandon(key);
                    Err(format!(
                        "artefact `{name}` failed: {}",
                        panic_message(&*payload)
                    ))
                }
            }
        }
    }
}

/// Compiles, executes, checks and times a client-submitted kernel behind
/// the single-flight cache, keyed on the source digest plus the canonical
/// configuration encoding. Diagnostics come back with their source
/// position (`line`/`col`) for the typed error reply. A cache miss also
/// returns the per-phase compile timings (the cached bytes stay exactly
/// the golden render, so hits carry no timings).
type CompileOutcome = Result<(Arc<Vec<u8>>, Option<CompilePhases>), (String, u32, u32)>;
/// A served `profile` fragment plus the cache-hit flag, or a positioned
/// diagnostic.
type ProfileOutcome = Result<(Arc<Vec<u8>>, bool), (String, u32, u32)>;

fn serve_compile(state: &ServerState, source: &str, spec: &SimSpec) -> CompileOutcome {
    let cfg = spec.to_config();
    let key = compile_key(source, &cfg);
    match state.cache.fetch(key) {
        Fetch::Hit(bytes) => Ok((bytes, None)),
        Fetch::Miss => {
            if state.faults.should_abandon_reservation() {
                state.cache.abandon(key);
                return Err(("compile failed: injected abandonment".to_owned(), 0, 0));
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                state.faults.on_compute();
                mve_lang::compile_and_render_timed(source, &cfg)
            }));
            match result {
                Ok(Ok((text, phases))) => {
                    Ok((state.cache.fulfill(key, text.into_bytes()), Some(phases)))
                }
                Ok(Err(diag)) => {
                    state.cache.abandon(key);
                    Err((diag.message.clone(), diag.span.line, diag.span.col))
                }
                Err(payload) => {
                    state.cache.abandon(key);
                    Err((
                        format!("compile failed: {}", panic_message(&*payload)),
                        0,
                        0,
                    ))
                }
            }
        }
    }
}

/// Serves one `profile` request behind the single-flight cache. The
/// cached bytes are the serialized [`profile_payload`] fragment —
/// annotated text plus the per-line attribution rows — keyed by
/// [`profile_key`] (a domain distinct from `compile`, so the two ops
/// never alias). Returns the fragment plus the hit flag; diagnostics
/// carry their source position like `compile`'s.
fn serve_profile(state: &ServerState, source: &str, spec: &SimSpec) -> ProfileOutcome {
    let cfg = spec.to_config();
    let key = profile_key(source, &cfg);
    match state.cache.fetch(key) {
        Fetch::Hit(bytes) => Ok((bytes, true)),
        Fetch::Miss => {
            if state.faults.should_abandon_reservation() {
                state.cache.abandon(key);
                return Err(("profile failed: injected abandonment".to_owned(), 0, 0));
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                state.faults.on_compute();
                mve_lang::profile_and_render(source, &cfg)
            }));
            match result {
                Ok(Ok((text, report))) => {
                    let fragment = profile_payload(&text, &report);
                    Ok((state.cache.fulfill(key, fragment.into_bytes()), false))
                }
                Ok(Err(diag)) => {
                    state.cache.abandon(key);
                    Err((diag.message.clone(), diag.span.line, diag.span.col))
                }
                Err(payload) => {
                    state.cache.abandon(key);
                    Err((
                        format!("profile failed: {}", panic_message(&*payload)),
                        0,
                        0,
                    ))
                }
            }
        }
    }
}

fn serve_sim(
    state: &ServerState,
    kernel: &str,
    scale: Scale,
    spec: &SimSpec,
) -> Result<(Arc<Vec<u8>>, bool), String> {
    // Resolve the name first: the unknown-kernel reply is the registry's
    // own sorted-vocabulary message, shared with the CLI front-ends.
    let kernel_impl = kernel_by_name(kernel).map_err(|e| e.to_string())?;
    let cfg = spec.to_config();
    let key = sim_key(kernel, scale, &cfg);
    match state.cache.fetch(key) {
        Fetch::Hit(bytes) => Ok((bytes, true)),
        Fetch::Miss => {
            if state.faults.should_abandon_reservation() {
                state.cache.abandon(key);
                return Err(format!("sim `{kernel}` failed: injected abandonment"));
            }
            // The batch group is the functional execution identity: kernel,
            // scale, and the engine geometry the kernel must run under (an
            // `arrays` override changes the trace itself, exactly as in the
            // Figure 12(b) sweep — such requests get their own group).
            let arrays = cfg.geometry.arrays;
            let group = format!("{kernel}@{}@{arrays}", scale_name(scale));
            let faults = state.faults.clone();
            let result = catch_unwind(AssertUnwindSafe(|| {
                state.batcher.submit(
                    &group,
                    BatchEntry { cfg, key },
                    &state.cache,
                    move || {
                        faults.on_compute();
                        // Guard, not set/restore: a panicking kernel must
                        // not leave the worker's thread-local poisoned for
                        // later requests on the same thread.
                        let _arrays = mve_kernels::common::EngineArraysGuard::new(arrays);
                        let run = kernel_impl.run_mve(scale);
                        assert!(
                            run.checked.ok(),
                            "{kernel}: functional check failed {:?}",
                            run.checked
                        );
                        run.trace
                    },
                    |trace, entries| {
                        let cfgs: Vec<_> = entries.iter().map(|e| e.cfg.clone()).collect();
                        simulate_sweep(trace, &cfgs)
                            .iter()
                            .map(|report| report_to_json(report).encode().into_bytes())
                            .collect()
                    },
                )
            }));
            result.map(|bytes| (bytes, false)).map_err(|payload| {
                // The batcher's leader guard has already abandoned every
                // registered reservation.
                format!("sim `{kernel}` failed: {}", panic_message(&*payload))
            })
        }
    }
}
