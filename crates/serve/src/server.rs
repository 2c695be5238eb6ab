//! The simulation daemon: a nonblocking event loop owning every
//! connection, a fixed worker pool that only ever holds *executing*
//! requests, and the request handlers that tie the protocol to the cache.
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
//! park in the loop under a [`crate::timer::Timers`] deadline without
//! holding a worker — and only admitted requests travel (with their
//! admission [`Charge`]) to the worker pool. Workers push completions and
//! wake the loop through the pipe.
//!
//! Cross-connection result sharing happens in exactly one place — the
//! content-addressed [`ResultCache`] (single flight: every unique
//! `(kernel, config)`, `(artefact, scale)` or DSL source and config is
//! computed exactly once, concurrent duplicates block for the result).
//! Every request computes its cache miss through one function, `cached`,
//! which alone fulfils or abandons the reservation.
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

use mve_core::sim::simulate;
use mve_kernels::registry::{kernel_by_name, unknown_name_message};
use mve_kernels::Scale;
use mve_obs::logev;
use mve_obs::metrics::{MetricsRegistry, Scalar};
use mve_obs::Level;

use crate::admission::{
    AdmissionController, AdmissionOptions, Charge, HeadClaim, ShedReason, Ticket, TryAdmit,
    UNLIMITED_BUDGET,
};
use crate::cache::{Fetch, ResultCache};
use crate::cost::{CostModel, OpClass};
use crate::fault::FaultPlan;
use crate::histogram::{latency_json, LatencyMetrics, MetricClass};
use crate::json::Json;
use crate::poller::{wake_pipe, Event, Interest, Poller, WakeRx, WakeTx};
use crate::protocol::{
    artefact_key, compile_key, error_reply, error_reply_at, ok_artefact, ok_compile, ok_estimate,
    ok_metrics, ok_profile, ok_shutdown, ok_sim, ok_stats, ok_traces, op_name, overloaded_reply,
    parse_request, profile_key, profile_payload, report_to_json, sim_key, Request, SimSpec,
};
use crate::timer::{TimerId, Timers};
use crate::trace::{PendingTrace, TraceRing};

/// An artefact renderer: scale in, the artefact's exact text out.
pub type ArtefactFn = Arc<dyn Fn(Scale) -> String + Send + Sync>;

/// The artefact vocabulary the server can render, injected by the binary
/// (the harness crate owns the render functions; the service stays
/// protocol-only and the two cannot cyclically depend).
#[derive(Clone, Default)]
pub struct ArtefactRegistry {
    entries: Vec<(&'static str, ArtefactFn)>,
}

impl ArtefactRegistry {
    /// A registry over `entries`; names must be unique.
    pub fn new(entries: Vec<(&'static str, ArtefactFn)>) -> Self {
        for (i, (name, _)) in entries.iter().enumerate() {
            assert!(
                entries[..i].iter().all(|(seen, _)| seen != name),
                "duplicate artefact name `{name}`"
            );
        }
        Self { entries }
    }

    /// The renderer registered under `name` (a linear scan: the registry
    /// holds the paper's 16 artefacts).
    pub fn get(&self, name: &str) -> Option<&ArtefactFn> {
        let (_, render) = self.entries.iter().find(|(n, _)| *n == name)?;
        Some(render)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(n, _)| *n).collect()
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
    /// the event loop's idle timer, so idle connections cannot pin
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
            queue_deadline: Duration::from_millis(500),
            fair_share: adm.fair_share,
            faults: FaultPlan::new(),
            trace_ring: crate::trace::TRACE_RING_CAPACITY,
        }
    }
}

/// Request/error counters (cache counters live with the cache).
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
    /// Panics caught on a worker — in a cache-miss computation or anywhere
    /// else in a request's execution — each answered with a typed error.
    pub worker_panics: AtomicU64,
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
    /// Trips the shutdown flag, closes admission (parked requests shed as
    /// `closed`), and wakes the event loop (via the self-pipe) and the
    /// workers.
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
        reg.counter(
            "worker_panics",
            "Worker panics caught and answered with a typed error.",
            load(&c.worker_panics),
        );
        self.latency.register(&mut reg);
        reg
    }

    /// Flat counter snapshot — the `stats` reply and the `serve` binary's
    /// final `serve-metrics` line.
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
        members.push(("latency".to_owned(), latency_json(&reg)));
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
                artefacts,
                counters: Counters::default(),
                admission: AdmissionController::new(AdmissionOptions {
                    budget: opts.cost_budget,
                    queue_cap: opts.queue_cap,
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
        with_workers(&state, workers, || {
            let mut el = EventLoop {
                state: &state,
                listener: &listener,
                poller: Poller::new(),
                wake_rx,
                cfg,
                conns: HashMap::new(),
                parked: HashMap::new(),
                timers: Timers::default(),
                outstanding: 0,
                events: Vec::new(),
                fired: Vec::new(),
                shutdown_at: None,
            };
            el.run();
        });
        state.stats_json()
    }
}

/// Runs `body` on the calling thread beside `workers` worker threads and
/// joins them. Shutdown is triggered when `body` ends, whether it returns
/// (normally a no-op, as the event loop exits on shutdown; on a fatal
/// poller error it releases the workers) or panics, so the workers always
/// exit and a panic propagates instead of hanging the join.
fn with_workers(state: &ServerState, workers: usize, body: impl FnOnce()) {
    struct ShutdownOnDrop<'a>(&'a ServerState);
    impl Drop for ShutdownOnDrop<'_> {
        fn drop(&mut self) {
            self.0.trigger_shutdown();
        }
    }
    std::thread::scope(|s| {
        let _shutdown = ShutdownOnDrop(state);
        for _ in 0..workers {
            s.spawn(move || worker_loop(state));
        }
        body();
    });
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
                    state.counters.worker_panics.fetch_add(1, Ordering::SeqCst);
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
    timers: Timers<(u64, TimerKind)>,
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
                    let id = self.state.next_request_id();
                    let trace = PendingTrace::new(id, conn.conn_id, Instant::now());
                    self.reject_line(token, trace, "request line exceeds the size limit");
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
            Err(msg) => return self.reject_line(token, trace, &msg),
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
                );
                let reply = inline_reply(state, MetricClass::Estimate, reply);
                trace.collapse_remaining(Instant::now());
                self.push_reply_traced(token, reply, trace);
            }
            chargeable => self.dispatch_chargeable(token, chargeable, t0, trace),
        }
    }

    /// The error reply to a line that never became a request (unparsable
    /// or oversized), counted under `errors`.
    fn reject_line(&mut self, token: u64, mut trace: PendingTrace, msg: &str) {
        self.state.counters.errors.fetch_add(1, Ordering::SeqCst);
        trace.outcome = "error";
        trace.collapse_remaining(Instant::now());
        self.push_reply_traced(token, error_reply(msg), trace);
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

    /// Queue the reply bytes with the request's trace and flush
    /// opportunistically: the trace finishes when the reply bytes fully
    /// drain to the socket — immediately if this flush empties the write
    /// buffer, otherwise from a later [`Self::flush_writes`] (or
    /// connection teardown).
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

    /// Admit parked requests from the queue head while budget allows.
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
/// call, covering cache waits and computation alike. Returns the reply
/// line plus the trace attribution: cache outcome (`"hit"`/`"miss"`/
/// `"none"`) and whether the request succeeded.
fn execute_chargeable(state: &ServerState, req: &Request) -> (String, &'static str, bool) {
    let c = &state.counters;
    let requests = match req {
        Request::Artefact { .. } => &c.artefact_requests,
        Request::Sim { .. } => &c.sim_requests,
        Request::Compile { .. } => &c.compile_requests,
        Request::Profile { .. } => &c.profile_requests,
        Request::Estimate(_)
        | Request::Stats
        | Request::Metrics
        | Request::Trace
        | Request::Shutdown => {
            unreachable!("control-plane ops are served inline by the event loop")
        }
    };
    requests.fetch_add(1, Ordering::SeqCst);
    // Each arm yields the reply plus whether the cache already held it.
    let served: Result<(String, bool), Failure> = match req {
        Request::Artefact { name, scale } => {
            serve_artefact(state, name, *scale).and_then(|(bytes, miss)| {
                Ok((ok_artefact(name, utf8(&bytes, "artefact")?), miss.is_none()))
            })
        }
        Request::Sim {
            kernel,
            scale,
            spec,
        } => serve_sim(state, kernel, *scale, spec).and_then(|(bytes, miss)| {
            Ok((ok_sim(kernel, utf8(&bytes, "report")?), miss.is_none()))
        }),
        // A compile miss also returns the per-phase timings (the cached
        // bytes stay exactly the golden render, so hits carry none).
        Request::Compile { source, spec } => {
            let cfg = spec.to_config();
            cached(state, compile_key(source, &cfg), "compile", || {
                let (text, phases) =
                    mve_lang::compile_and_render_timed(source, &cfg).map_err(diag_failure)?;
                Ok((text.into_bytes(), phases))
            })
            .and_then(|(bytes, phases)| {
                let reply = ok_compile(utf8(&bytes, "compile")?, phases.as_ref());
                Ok((reply, phases.is_none()))
            })
        }
        // The cached bytes are the serialized [`profile_payload`] fragment
        // (annotated text plus per-line attribution rows) under a key
        // domain distinct from `compile`'s, so the two ops never alias.
        Request::Profile { source, spec } => {
            let cfg = spec.to_config();
            cached(state, profile_key(source, &cfg), "profile", || {
                let (text, report) =
                    mve_lang::profile_and_render(source, &cfg).map_err(diag_failure)?;
                Ok((profile_payload(&text, &report).into_bytes(), ()))
            })
            .and_then(|(bytes, miss)| Ok((ok_profile(utf8(&bytes, "profile")?), miss.is_none())))
        }
        _ => unreachable!("matched above"),
    };
    match served {
        Ok((reply, hit)) => (reply, if hit { "hit" } else { "miss" }, true),
        Err((msg, line, col)) => {
            c.errors.fetch_add(1, Ordering::SeqCst);
            (error_reply_at(&msg, line, col), "none", false)
        }
    }
}

/// A failed request: the message plus its source position (`0, 0` when
/// it has none, which [`error_reply_at`] renders as a plain error).
type Failure = (String, u32, u32);

/// Cached bytes plus the value the computation returned beside them —
/// `None` on a cache hit, so `is_none()` is the hit flag.
type Served<T> = Result<(Arc<Vec<u8>>, Option<T>), Failure>;

/// A positioned DSL diagnostic as a [`Failure`].
fn diag_failure(diag: mve_lang::Diag) -> Failure {
    (diag.message, diag.span.line, diag.span.col)
}

/// Cached bytes as text; `what` names them in the error.
fn utf8<'a>(bytes: &'a [u8], what: &str) -> Result<&'a str, Failure> {
    std::str::from_utf8(bytes).map_err(|_| (format!("{what} bytes are not UTF-8"), 0, 0))
}

/// Serves `key` from the result cache, running `compute` on a miss. This
/// is the one place the server meets the [`Fetch::Miss`] obligation: an
/// injected abandonment, a `compute` error or a panic abandons the
/// reservation (a waiter takes over), success fulfils it. Abandonments
/// and panics fail as `{what} failed: …`; a caught panic also counts
/// under `worker_panics`.
fn cached<T>(
    state: &ServerState,
    key: u64,
    what: &str,
    compute: impl FnOnce() -> Result<(Vec<u8>, T), Failure>,
) -> Served<T> {
    if let Fetch::Hit(bytes) = state.cache.fetch(key) {
        return Ok((bytes, None));
    }
    if state.faults.should_abandon_reservation() {
        state.cache.abandon(key);
        return Err((format!("{what} failed: injected abandonment"), 0, 0));
    }
    let computed = catch_unwind(AssertUnwindSafe(|| {
        state.faults.on_compute();
        compute()
    }))
    .unwrap_or_else(|payload| {
        state.counters.worker_panics.fetch_add(1, Ordering::SeqCst);
        Err((format!("{what} failed: {}", panic_message(&*payload)), 0, 0))
    });
    match computed {
        Ok((bytes, extra)) => Ok((state.cache.fulfill(key, bytes), Some(extra))),
        Err(failure) => {
            state.cache.abandon(key);
            Err(failure)
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

fn serve_artefact(state: &ServerState, name: &str, scale: Scale) -> Served<()> {
    let Some(render) = state.artefacts.get(name) else {
        let msg = unknown_name_message("artefact", name, state.artefacts.names());
        return Err((msg, 0, 0));
    };
    cached(
        state,
        artefact_key(name, scale),
        &format!("artefact `{name}`"),
        || Ok((render(scale).into_bytes(), ())),
    )
}

fn serve_sim(state: &ServerState, kernel: &str, scale: Scale, spec: &SimSpec) -> Served<()> {
    // Resolve the name first: the unknown-kernel reply is the registry's
    // own sorted-vocabulary message, shared with the CLI front-ends.
    let kernel_impl = kernel_by_name(kernel).map_err(|e| (e.to_string(), 0, 0))?;
    let cfg = spec.to_config();
    cached(
        state,
        sim_key(kernel, scale, &cfg),
        &format!("sim `{kernel}`"),
        || {
            // An `arrays` override changes the trace itself, exactly as in
            // the Figure 12(b) sweep, so the kernel runs under the
            // requested geometry. Guard, not set/restore: a panicking
            // kernel must not leave the worker's thread-local poisoned for
            // later requests on the same thread.
            let run = {
                let _arrays = mve_kernels::common::EngineArraysGuard::new(cfg.geometry.arrays);
                kernel_impl.run_mve(scale)
            };
            assert!(
                run.checked.ok(),
                "{kernel}: functional check failed {:?}",
                run.checked
            );
            let report = report_to_json(&simulate(&run.trace, &cfg));
            Ok((report.encode().into_bytes(), ()))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A panic in the event loop's place still stops the workers, so the
    /// panic reaches the caller instead of the scope waiting forever.
    #[test]
    fn panicking_event_loop_releases_the_workers() {
        let server = Server::bind(&ServeOptions::default(), ArtefactRegistry::new(Vec::new()))
            .expect("bind an ephemeral port");
        let state = Arc::clone(&server.state);
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                with_workers(&state, 2, || panic!("event loop failed"));
            }));
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("workers were not released within 10 s");
        assert!(panicked, "the event loop's panic must propagate");
    }
}
