//! Tracked engine hot-path micro-benchmarks.
//!
//! One canonical list of functional-engine workloads ([`engine_hot_benches`])
//! is shared by two consumers so they can never drift apart:
//!
//! * `benches/engine_hot.rs` wraps each workload in the vendored criterion
//!   harness (`cargo bench -p mve-bench --bench engine_hot`), and
//! * `reproduce --json` times the same workloads in-process and writes the
//!   machine-readable trajectory file `BENCH_engine.json`, so every PR
//!   records where the hot path stands (see DESIGN.md, "Performance
//!   architecture").
//!
//! Methodology mirrors the vendored criterion: short warm-up, then
//! `samples` timed batches, reporting the median per-iteration wall time.
//! `MVE_BENCH_FAST=1` shrinks the budgets for CI smoke runs.
//!
//! Since PR 8 the file also carries [`run_serve_throughput`]: an open-loop
//! daemon-capacity harness (N concurrent connections of cache-hit and
//! cache-miss traffic against an in-process loopback server) whose req/s
//! and latency percentiles land in `BENCH_engine.json` next to the
//! micro-benchmarks.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mve_core::dtype::{BinOp, CmpOp};
use mve_core::engine::Engine;
use mve_core::isa::{Opcode, StrideMode};
use mve_core::sim::{simulate_sweep, SimConfig, TimingSim};
use mve_core::trace::CountingSink;
use mve_insram::Scheme;
use mve_kernels::Scale;
use mve_serve::cache::{Fetch, ResultCache};
use mve_serve::client::open_loop;
use mve_serve::protocol::scale_name;
use mve_serve::server::{ArtefactFn, ArtefactRegistry, ServeOptions, Server};
use mve_serve::{AdmissionController, AdmissionOptions, CostModel, Request, SimSpec};

/// One named hot-path workload over a pre-built engine.
pub struct HotBench {
    /// Stable identifier (also the criterion bench id).
    pub name: &'static str,
    /// Elements processed per iteration (for Melem/s reporting).
    pub elems: u64,
    /// The workload; every call is one steady-state iteration.
    pub run: Box<dyn FnMut()>,
}

/// One measured result.
#[derive(Debug, Clone)]
pub struct HotResult {
    /// Workload name.
    pub name: &'static str,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: f64,
    /// Derived throughput in millions of elements per second.
    pub melems_per_s: f64,
}

const LANES: usize = 8192;

/// The canonical engine hot-path workloads at full 8192-lane scale:
/// strided load, random load, integer binop, compare (Tag write), and a
/// predicated store — the five operation classes the ISSUE-2 refactor
/// targets — plus two ISSUE-3 streaming-pipeline workloads: the binop
/// emitted into a counting sink (`stream_count_…`, isolating the
/// `TraceSink` dispatch overhead against `binop_add_8192`) and the fused
/// engine→`TimingSim` pipeline (`stream_timing_…`, execution and timing
/// in one pass with no materialized trace) — plus two ISSUE-4 service
/// workloads tracking the `mve-serve` hot paths: `serve_cache_hit` (the
/// content-addressed lookup a repeat request rides) and
/// `serve_batched_sweep` (one trace fanned across the four scheme
/// configurations, the coalesced-batch execution path) — plus two ISSUE-5
/// DSL workloads: `dsl_parse_lower` (the full mve-lang compile pipeline
/// over the strip-mined saxpy corpus source, the per-unique-source cost of
/// the serve `compile` op) and `dsl_compiled_binop_8192` (a pre-compiled
/// element-wise kernel re-executed on its persistent `Executor`, the
/// execution-bridge overhead against the native `binop_add_8192`) — plus
/// the ISSUE-6 `dsl_executor_setup` workload (bindings + `Executor::new`
/// for the same kernel), so the setup cost the steady-state number
/// excludes is tracked in its own right rather than lost — plus the
/// ISSUE-7 `serve_admission_roundtrip` workload (one cost-model charge +
/// budget admit + permit release), the per-request overhead admission
/// control adds ahead of every chargeable op — plus the ISSUE-9
/// `log_gate_disabled_add_8192` workload, `binop_add_8192` with structured
/// logging forced off, proving the per-event log gate (one relaxed atomic
/// load) costs nothing when logging is disabled — plus the replicated
/// (`[Zero, Cr]`, `[One, Zero]`) and CR-strided loads, the stride patterns
/// the engine's row-based memory path serves without a per-lane walk.
pub fn engine_hot_benches() -> Vec<HotBench> {
    let mut out = Vec::new();

    // Strided 2-D load, 128 × 64 with a CR row stride.
    {
        let mut e = Engine::default_mobile();
        e.vsetdimc(2);
        e.vsetdiml(0, 128);
        e.vsetdiml(1, 64);
        e.vsetldstr(1, 128);
        let a = e.mem_alloc_typed::<i32>(128 * 64);
        out.push(HotBench {
            name: "strided_load_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                let v = e.vsld_dw(a, &[StrideMode::One, StrideMode::Cr]);
                e.free(v);
                e.clear_trace();
            }),
        });
    }

    // The paper's signature replication patterns (Section III-C mode 0) on
    // the same 128 × 64 shape: column replication `[Zero, Cr]` (one
    // element broadcast per row, the GEMM operand pattern) and row
    // replication `[One, Zero]` (one 128-element row repeated 64 times).
    for (name, modes, stride) in [
        (
            "replicated_load_8192",
            [StrideMode::Zero, StrideMode::Cr],
            1,
        ),
        (
            "replicated_row_load_8192",
            [StrideMode::One, StrideMode::Zero],
            0,
        ),
    ] {
        let mut e = Engine::default_mobile();
        e.vsetdimc(2);
        e.vsetdiml(0, 128);
        e.vsetdiml(1, 64);
        e.vsetldstr(1, stride);
        let a = e.mem_alloc_typed::<i32>(128);
        out.push(HotBench {
            name,
            elems: LANES as u64,
            run: Box::new(move || {
                let v = e.vsld_dw(a, &modes);
                e.free(v);
                e.clear_trace();
            }),
        });
    }

    // CR-strided gather (mode 3 on both dimensions): every other element
    // of 64 rows 512 elements apart — no dimension is contiguous.
    {
        let mut e = Engine::default_mobile();
        e.vsetdimc(2);
        e.vsetdiml(0, 128);
        e.vsetdiml(1, 64);
        e.vsetldstr(0, 2);
        e.vsetldstr(1, 512);
        let a = e.mem_alloc_typed::<i32>(512 * 64);
        out.push(HotBench {
            name: "cr_strided_load_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                let v = e.vsld_dw(a, &[StrideMode::Cr, StrideMode::Cr]);
                e.free(v);
                e.clear_trace();
            }),
        });
    }

    // Random-base load: 32 scattered row pointers × 256 elements each.
    {
        let mut e = Engine::default_mobile();
        e.vsetdimc(2);
        e.vsetdiml(0, 256);
        e.vsetdiml(1, 32);
        let rows: Vec<u64> = (0..32).map(|_| e.mem_alloc_typed::<i32>(256)).collect();
        let ptrs = e.mem_alloc_typed::<u64>(32);
        e.mem_fill(ptrs, &rows);
        out.push(HotBench {
            name: "random_load_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                let v = e.vrld_dw(ptrs, &[StrideMode::One]);
                e.free(v);
                e.clear_trace();
            }),
        });
    }

    // Element-wise i32 add over all 8192 lanes.
    {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, LANES);
        let x = e.vsetdup_dw(3);
        let y = e.vsetdup_dw(4);
        out.push(HotBench {
            name: "binop_add_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                let r = e.binop(Opcode::Add, BinOp::Add, x, y);
                e.free(r);
                e.clear_trace();
            }),
        });
    }

    // Compare writing the Tag latch on every lane.
    {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, LANES);
        let x = e.vsetdup_dw(3);
        let y = e.vsetdup_dw(4);
        out.push(HotBench {
            name: "compare_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                e.compare(CmpOp::Gt, x, y);
                e.clear_trace();
            }),
        });
    }

    // Streaming sink overhead: the same i32 add, but emitted into a
    // CountingSink instead of the owned Trace. The delta against
    // binop_add_8192 is the cost of the TraceSink indirection (and the
    // saving from not materializing events).
    {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, LANES);
        let x = e.vsetdup_dw(3);
        let y = e.vsetdup_dw(4);
        e.clear_trace();
        let mut sink = Some(CountingSink::new());
        out.push(HotBench {
            name: "stream_count_binop_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                let ((), s) = e.with_sink(sink.take().expect("sink"), |e| {
                    let r = e.binop(Opcode::Add, BinOp::Add, x, y);
                    e.free(r);
                });
                sink = Some(s);
            }),
        });
    }

    // Fused streaming pipeline: the engine feeds an incremental TimingSim
    // directly, so every iteration executes *and* times the instruction
    // with O(1) memory — the ISSUE-3 tentpole path.
    {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, LANES);
        let x = e.vsetdup_dw(3);
        let y = e.vsetdup_dw(4);
        e.clear_trace();
        let cfg = SimConfig::default()
            .without_cache_warming()
            .without_mode_switch();
        let mut sim = Some(TimingSim::new(cfg));
        out.push(HotBench {
            name: "stream_timing_binop_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                let ((), s) = e.with_sink(sim.take().expect("sim"), |e| {
                    let r = e.binop(Opcode::Add, BinOp::Add, x, y);
                    e.free(r);
                });
                sim = Some(s);
            }),
        });
    }

    // Service hot path 1: the content-addressed cache lookup a repeat
    // request rides — canonical SimConfig encoding + FNV digest + the
    // single-flight map hit — for all four scheme configurations per
    // iteration. This is what makes repeat requests O(lookup).
    {
        let cache = ResultCache::new(64);
        let cfgs: Vec<SimConfig> = Scheme::ALL
            .iter()
            .map(|&s| SimConfig::default().with_scheme(s))
            .collect();
        for cfg in &cfgs {
            match cache.fetch(cfg.cache_key()) {
                Fetch::Miss => {
                    cache.fulfill(cfg.cache_key(), vec![0u8; 512]);
                }
                Fetch::Hit(_) => unreachable!("fresh cache"),
            }
        }
        out.push(HotBench {
            name: "serve_cache_hit",
            elems: Scheme::ALL.len() as u64,
            run: Box::new(move || {
                for cfg in &cfgs {
                    match cache.fetch(cfg.cache_key()) {
                        Fetch::Hit(bytes) => assert_eq!(bytes.len(), 512),
                        Fetch::Miss => unreachable!("pre-filled key"),
                    }
                }
            }),
        });
    }

    // Service hot path 2: the batching scheduler's sweep — one captured
    // trace (8192-lane load → mul → store) fanned out across the four
    // scheme configurations in a single walk, exactly what a coalesced
    // batch of sim requests executes per kernel.
    {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, LANES);
        let a = e.mem_alloc_typed::<i32>(LANES);
        let v = e.vsld_dw(a, &[StrideMode::One]);
        let r = e.binop(Opcode::Mul, BinOp::Mul, v, v);
        let o = e.mem_alloc_typed::<i32>(LANES);
        e.store(r, o, &[StrideMode::One]);
        let trace = e.take_trace();
        let cfgs: Vec<SimConfig> = Scheme::ALL
            .iter()
            .map(|&s| {
                SimConfig::default()
                    .with_scheme(s)
                    .without_mode_switch()
                    .without_cache_warming()
            })
            .collect();
        out.push(HotBench {
            name: "serve_batched_sweep",
            elems: (Scheme::ALL.len() * LANES) as u64,
            run: Box::new(move || {
                let reports = simulate_sweep(&trace, &cfgs);
                assert_eq!(reports.len(), Scheme::ALL.len());
            }),
        });
    }

    // ISSUE-5 DSL front-end: the full compile pipeline (lex → parse →
    // typed lowering with loop unrolling → list scheduling → spill-aware
    // allocation) over the strip-mined saxpy corpus kernel. Tracks the
    // service's per-unique-source cost — repeat requests ride the cache.
    {
        let source = crate::dslcorpus::source("saxpy").expect("corpus kernel");
        out.push(HotBench {
            name: "dsl_parse_lower",
            elems: source.len() as u64,
            run: Box::new(move || {
                let ck = mve_lang::compile(source).expect("corpus kernel compiles");
                assert!(ck.spill_stores == 0);
            }),
        });
    }

    // ISSUE-5 DSL execution bridge: a pre-compiled element-wise kernel
    // re-executed on its persistent Executor (buffers allocated once).
    // The delta against binop_add_8192 is the interpretation overhead of
    // driving the engine from allocated IR instead of native code.
    {
        let source = "kernel b(x: buf<i32>[8192], y: buf<i32>[8192], o: mut buf<i32>[8192]) {\n\
                      shape [8192];\nlet xv = load x [1];\nlet yv = load y [1];\n\
                      store xv + yv -> o [1];\n}";
        let ck = mve_lang::compile(source).expect("binop kernel compiles");
        let bindings = mve_lang::Bindings::deterministic(&ck.program);
        let mut ex = mve_lang::Executor::new(&ck, &bindings);
        out.push(HotBench {
            name: "dsl_compiled_binop_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                ex.run();
                ex.engine_mut().clear_trace();
            }),
        });
    }

    // ISSUE-6 reference for the executor gap: the same 4-instruction
    // sequence the DSL kernel compiles to (two contiguous loads, an add,
    // a contiguous store), hand-written against the raw engine. The
    // honest executor-overhead ratio is `dsl_compiled_binop_8192` over
    // *this* — a 4-op memory-touching sequence can never cost what the
    // single register-to-register `binop_add_8192` does.
    {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, LANES);
        let a = e.mem_alloc_typed::<i32>(LANES);
        let b = e.mem_alloc_typed::<i32>(LANES);
        let o = e.mem_alloc_typed::<i32>(LANES);
        let vals: Vec<i32> = (0..LANES as i32).collect();
        e.mem_fill(a, &vals);
        e.mem_fill(b, &vals);
        out.push(HotBench {
            name: "handwritten_binop_seq_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                let x = e.vsld_dw(a, &[StrideMode::One]);
                let y = e.vsld_dw(b, &[StrideMode::One]);
                let r = e.binop(Opcode::Add, BinOp::Add, x, y);
                e.store(r, o, &[StrideMode::One]);
                e.free(x);
                e.free(y);
                e.free(r);
                e.clear_trace();
            }),
        });
    }

    // ISSUE-6 DSL executor setup: binding generation plus `Executor::new`
    // (buffer allocation, input fill, dense value-table planning) for the
    // same element-wise kernel — the one-time cost `dsl_compiled_binop_8192`
    // deliberately excludes, tracked separately so the steady-state number
    // stays honest.
    {
        let source = "kernel b(x: buf<i32>[8192], y: buf<i32>[8192], o: mut buf<i32>[8192]) {\n\
                      shape [8192];\nlet xv = load x [1];\nlet yv = load y [1];\n\
                      store xv + yv -> o [1];\n}";
        let ck = mve_lang::compile(source).expect("binop kernel compiles");
        out.push(HotBench {
            name: "dsl_executor_setup",
            elems: LANES as u64,
            run: Box::new(move || {
                let bindings = mve_lang::Bindings::deterministic(&ck.program);
                let ex = mve_lang::Executor::new(&ck, &bindings);
                std::hint::black_box(&ex);
            }),
        });
    }

    // ISSUE-7 admission hot path: one cost-model charge plus a bounded
    // admit/release round trip — the fixed overhead the controller adds
    // ahead of every chargeable request. The budget is ample, so this
    // times the uncontended fast path (a queue wait would time the
    // *workload*, not the controller).
    {
        let model = CostModel::committed();
        let controller = AdmissionController::new(AdmissionOptions {
            budget: u64::MAX / 8,
            ..AdmissionOptions::default()
        });
        let req = Request::Sim {
            kernel: "csum".to_owned(),
            scale: Scale::Test,
            spec: SimSpec::default(),
        };
        out.push(HotBench {
            name: "serve_admission_roundtrip",
            elems: 1,
            run: Box::new(move || {
                let est = model.charge(&req).expect("sim is chargeable");
                let permit = controller.admit(0, est.cost).expect("ample budget");
                drop(permit);
            }),
        });
    }

    // ISSUE-9 log gate: `binop_add_8192` re-run with structured logging
    // explicitly off — every engine event still executes its
    // `mve_obs::log::enabled(Debug)` check (one relaxed atomic load), so
    // the delta against `binop_add_8192` is the cost of instrumenting the
    // hot path when nobody is listening. The acceptance bar is "within
    // noise of zero".
    {
        mve_obs::log::set_level(None);
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, LANES);
        let x = e.vsetdup_dw(3);
        let y = e.vsetdup_dw(4);
        out.push(HotBench {
            name: "log_gate_disabled_add_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                let r = e.binop(Opcode::Add, BinOp::Add, x, y);
                e.free(r);
                e.clear_trace();
            }),
        });
    }

    // Predicated store: ~half the lanes pass the Tag, full-width addresses.
    {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, LANES);
        let a = e.mem_alloc_typed::<i32>(LANES);
        let vals: Vec<i32> = (0..LANES as i32).collect();
        e.mem_fill(a, &vals);
        let v = e.vsld_dw(a, &[StrideMode::One]);
        let thr = e.vsetdup_dw(LANES as i32 / 2);
        e.compare(CmpOp::Gt, v, thr);
        e.set_predication(true);
        let outbuf = e.mem_alloc_typed::<i32>(LANES);
        out.push(HotBench {
            name: "predicated_store_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                e.store(v, outbuf, &[StrideMode::One]);
                e.clear_trace();
            }),
        });
    }

    out
}

/// Whether fast (CI smoke) budgets are active.
pub fn fast_mode() -> bool {
    std::env::var_os("MVE_BENCH_FAST").is_some()
}

/// Times one workload: warm-up, then `samples` batches, median ns/iter.
pub fn measure(bench: &mut HotBench) -> HotResult {
    let (warm_up, measurement, samples) = if fast_mode() {
        (Duration::from_millis(5), Duration::from_millis(50), 3)
    } else {
        (Duration::from_millis(100), Duration::from_millis(600), 11)
    };
    let warm_start = Instant::now();
    loop {
        (bench.run)();
        if warm_start.elapsed() >= warm_up {
            break;
        }
    }
    let probe = Instant::now();
    (bench.run)();
    let one = probe.elapsed().max(Duration::from_nanos(1));
    let per_sample = measurement / samples as u32;
    let iters = (per_sample.as_nanos() / one.as_nanos()).clamp(1, 1_000_000) as u64;
    let mut timings: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters {
            (bench.run)();
        }
        timings.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    timings.sort_by(|a, b| a.total_cmp(b));
    let median_ns = timings[timings.len() / 2];
    HotResult {
        name: bench.name,
        median_ns,
        melems_per_s: bench.elems as f64 / median_ns * 1e3,
    }
}

/// Runs every hot-path workload and collects results.
pub fn run_engine_hot() -> Vec<HotResult> {
    engine_hot_benches()
        .into_iter()
        .map(|mut b| measure(&mut b))
        .collect()
}

/// One tracked daemon-capacity measurement from [`run_serve_throughput`].
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Scenario name (`serve_throughput_hit` / `serve_throughput_miss`).
    pub name: &'static str,
    /// Concurrent open-loop connections.
    pub connections: usize,
    /// Requests sent over the run.
    pub requests: u64,
    /// Typed replies per second.
    pub req_per_s: f64,
    /// Median request-to-reply latency, µs.
    pub p50_us: u64,
    /// 99th-percentile request-to-reply latency, µs.
    pub p99_us: u64,
    /// Requests with no typed reply — must be zero for a valid run.
    pub lost: u64,
}

/// Connections driven by each throughput scenario.
const THROUGHPUT_CONNECTIONS: usize = 32;
/// Distinct artefact names in the throughput registry.
const THROUGHPUT_NAMES: usize = 256;

/// A registry of [`THROUGHPUT_NAMES`] cheap deterministic artefacts
/// (`w0`..`w255`), each rendering a few-KiB payload so replies carry
/// realistic weight without the render dominating the wire path.
fn throughput_registry() -> ArtefactRegistry {
    let mut entries: Vec<(&'static str, ArtefactFn)> = Vec::new();
    for i in 0..THROUGHPUT_NAMES {
        let name: &'static str = Box::leak(format!("w{i}").into_boxed_str());
        let render: ArtefactFn = Arc::new(move |scale| {
            format!(
                "{name} throughput artefact at {} scale\n",
                scale_name(scale)
            )
            .repeat(64)
        });
        entries.push((name, render));
    }
    ArtefactRegistry::new(entries)
}

/// Boots a loopback daemon, drives it open-loop, and tears it down.
fn run_throughput_scenario(
    name: &'static str,
    cache_cap: usize,
    duration: Duration,
    make_request: impl Fn(usize, u64) -> Request + Sync,
) -> ThroughputResult {
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .min(8);
    let server = Server::bind(
        &ServeOptions {
            port: 0,
            workers,
            cache_cap,
            ..ServeOptions::default()
        },
        throughput_registry(),
    )
    .expect("bind loopback daemon");
    let port = server.port();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    let report = open_loop(
        ("127.0.0.1", port),
        THROUGHPUT_CONNECTIONS,
        duration,
        make_request,
    )
    .expect("open-loop run");
    handle.shutdown();
    join.join().expect("daemon thread");
    ThroughputResult {
        name,
        connections: report.connections,
        requests: report.requests,
        req_per_s: report.req_per_s(),
        p50_us: report.latency.p50_us,
        p99_us: report.latency.p99_us,
        lost: report.lost,
    }
}

/// Measures daemon capacity as a tracked number: an open-loop harness
/// drives [`THROUGHPUT_CONNECTIONS`] concurrent connections of cache-hit
/// traffic (every connection requests the same artefact — after the first
/// render the wire path plus one cache lookup is the whole request) and
/// cache-miss traffic (a small cache against a rotating 256-key working
/// set, so most requests render) through an in-process loopback daemon.
pub fn run_serve_throughput() -> Vec<ThroughputResult> {
    let duration = if fast_mode() {
        Duration::from_millis(300)
    } else {
        Duration::from_secs(2)
    };
    vec![
        run_throughput_scenario("serve_throughput_hit", 1024, duration, |_conn, _seq| {
            Request::Artefact {
                name: "w0".to_owned(),
                scale: Scale::Test,
            }
        }),
        run_throughput_scenario("serve_throughput_miss", 16, duration, |conn, seq| {
            // Each connection strides a disjoint 8-name slice of the
            // 256-key set; cap 16 keeps the cache churning.
            let idx = (conn * 8 + seq as usize % 8) % THROUGHPUT_NAMES;
            Request::Artefact {
                name: format!("w{idx}"),
                scale: Scale::Test,
            }
        }),
    ]
}

/// Renders results as the `BENCH_engine.json` trajectory document.
///
/// Hand-rolled JSON (the workspace vendors no serde); the schema is frozen
/// so successive PRs can be diffed: one object per bench with median
/// nanoseconds per iteration and derived element throughput, plus — since
/// `mve-engine-hot-v2` — one object per serve-throughput scenario with
/// open-loop req/s and latency percentiles.
pub fn to_json(results: &[HotResult], throughput: &[ThroughputResult]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"mve-engine-hot-v2\",");
    let _ = writeln!(s, "  \"fast_mode\": {},", fast_mode());
    s.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"median_ns_per_iter\": {:.1}, \"melems_per_s\": {:.1}}}",
            r.name, r.median_ns, r.melems_per_s
        );
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"serve_throughput\": [\n");
    for (i, t) in throughput.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"connections\": {}, \"requests\": {}, \
             \"req_per_s\": {:.1}, \"p50_us\": {}, \"p99_us\": {}, \"lost\": {}}}",
            t.name, t.connections, t.requests, t.req_per_s, t.p50_us, t.p99_us, t.lost
        );
        s.push_str(if i + 1 < throughput.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_run_and_json_is_well_formed() {
        // One iteration of each workload must be side-effect-stable (the
        // measurement loop calls them thousands of times).
        for mut b in engine_hot_benches() {
            (b.run)();
            (b.run)();
        }
        let results = vec![
            HotResult {
                name: "a",
                median_ns: 1.5,
                melems_per_s: 2.0,
            },
            HotResult {
                name: "b",
                median_ns: 3.0,
                melems_per_s: 4.5,
            },
        ];
        let throughput = vec![ThroughputResult {
            name: "serve_throughput_hit",
            connections: 32,
            requests: 1000,
            req_per_s: 3333.3,
            p50_us: 120,
            p99_us: 900,
            lost: 0,
        }];
        let json = to_json(&results, &throughput);
        assert!(json.contains("\"schema\": \"mve-engine-hot-v2\""));
        assert!(json.contains("\"name\": \"a\""));
        assert!(json.contains("\"serve_throughput\""));
        assert!(json.contains("\"req_per_s\": 3333.3"));
        assert!(json.contains("\"lost\": 0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn serve_throughput_harness_serves_and_loses_nothing() {
        // One short hit-scenario run end-to-end (fast regardless of
        // MVE_BENCH_FAST: the duration here is the test's own).
        let result = run_throughput_scenario(
            "serve_throughput_hit",
            1024,
            Duration::from_millis(200),
            |_conn, _seq| Request::Artefact {
                name: "w0".to_owned(),
                scale: Scale::Test,
            },
        );
        assert_eq!(result.connections, THROUGHPUT_CONNECTIONS);
        assert_eq!(result.lost, 0, "{result:?}");
        assert!(result.requests > 0 && result.req_per_s > 0.0, "{result:?}");
        assert!(result.p50_us <= result.p99_us, "{result:?}");
    }
}
