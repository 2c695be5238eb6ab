//! Tracked engine hot-path micro-benchmarks.
//!
//! One canonical list of functional-engine workloads ([`engine_hot_benches`])
//! is timed in-process by `reproduce --json`, which writes the
//! machine-readable trajectory file `BENCH_engine.json`, so every PR
//! records where the hot path stands (see DESIGN.md, "Performance
//! architecture"). End-to-end time, serve latency and throughput are
//! perfbench's job, not this file's.
//!
//! Methodology: short warm-up, then `samples` timed batches, reporting the
//! median per-iteration wall time and the fastest and slowest batch.
//! `MVE_BENCH_FAST=1` shrinks the budgets for CI smoke runs.

use std::time::{Duration, Instant};

use mve_core::dtype::{BinOp, CmpOp};
use mve_core::engine::Engine;
use mve_core::isa::{Opcode, StrideMode};
use mve_core::sim::SimConfig;
use mve_insram::Scheme;
use mve_kernels::Scale;
use mve_serve::admission::TryAdmit;
use mve_serve::cache::{Fetch, ResultCache};
use mve_serve::{AdmissionController, AdmissionOptions, CostModel, Request, SimSpec};

/// One named hot-path workload over a pre-built engine.
pub struct HotBench {
    /// Stable identifier (the `name` in `BENCH_engine.json`).
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
    /// Fastest sample's wall time per iteration, nanoseconds.
    pub min_ns: f64,
    /// Slowest sample's wall time per iteration, nanoseconds.
    pub max_ns: f64,
    /// Derived throughput in millions of elements per second.
    pub melems_per_s: f64,
}

const LANES: usize = 8192;

/// The canonical hot-path workloads, in `BENCH_engine.json` order. The
/// engine probes run on 8192 lanes and clear the trace each iteration:
///
/// * `strided_load_8192`, `replicated_load_8192`,
///   `replicated_row_load_8192`, `cr_strided_load_8192`: 128 × 64 i32
///   loads with a CR row stride, `[Zero, Cr]`, `[One, Zero]` and `[Cr, Cr]`
///   modes, the stride patterns of the row-based memory path;
/// * `random_load_8192`: 32 row pointers × 256 elements, plus the pointer
///   fetch;
/// * `binop_add_8192`, `binop_f16_8192`, `binop_i16_8192`, `load_u8_8192`:
///   an i32 add (execute and record), the binary16 conversions and the
///   narrow lane storage;
/// * `narrow_binop_256_of_8192`: a 256-lane add, the dirty-bound zeroing;
/// * `compare_8192`: a compare writing the Tag latch;
/// * `serve_cache_hit`: serve's result-cache lookup for all four schemes;
/// * `dsl_parse_lower`: the mve-lang compile of the saxpy corpus source;
/// * `dsl_compiled_binop_8192` over `handwritten_binop_seq_8192`: the
///   executor's overhead on a load-load-add-store kernel;
/// * `dsl_executor_setup`: bindings plus `Executor::new`;
/// * `serve_admission_roundtrip`: one cost-model charge, admit and release;
/// * `log_gate_disabled_add_8192`: `binop_add_8192` with logging off, the
///   per-event log gate;
/// * `predicated_store_8192`: a store with half the lanes passing the Tag.
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

    // Element-wise f16 add over all 8192 lanes: the binary16 conversions
    // around every lane op.
    {
        let mut e = Engine::default_mobile();
        e.vsetwidth(16);
        e.vsetdimc(1);
        e.vsetdiml(0, LANES);
        let x = e.vsetdup_hf(1.5);
        let y = e.vsetdup_hf(0.25);
        out.push(HotBench {
            name: "binop_f16_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                let r = e.binop(Opcode::Add, BinOp::Add, x, y);
                e.free(r);
                e.clear_trace();
            }),
        });
    }

    // Contiguous u8 load over all 8192 lanes: registers hold one byte per
    // lane, so this is a plain byte copy.
    {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, LANES);
        let a = e.mem_alloc_typed::<u8>(LANES);
        out.push(HotBench {
            name: "load_u8_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                let v = e.vsld_ub(a, &[StrideMode::One]);
                e.free(v);
                e.clear_trace();
            }),
        });
    }

    // Element-wise i16 add over all 8192 lanes, on two-byte lanes.
    {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, LANES);
        let x = e.vsetdup_w(3);
        let y = e.vsetdup_w(-4);
        out.push(HotBench {
            name: "binop_i16_8192",
            elems: LANES as u64,
            run: Box::new(move || {
                let r = e.binop(Opcode::Add, BinOp::Add, x, y);
                e.free(r);
                e.clear_trace();
            }),
        });
    }

    // A 256-lane i32 add on the 8192-lane engine (the libpng paeth shape):
    // the destination's reused buffer is zeroed only below its dirty
    // bound, not across all 8192 lanes.
    {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, 256);
        let x = e.vsetdup_dw(3);
        let y = e.vsetdup_dw(4);
        out.push(HotBench {
            name: "narrow_binop_256_of_8192",
            elems: 256,
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

    // Service hot path: the content-addressed cache lookup a repeat
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

    // DSL front-end: the full compile pipeline (lex → parse →
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

    // DSL execution bridge: a pre-compiled element-wise kernel
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

    // Reference for the executor gap: the same 4-instruction
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

    // DSL executor setup: binding generation plus `Executor::new`
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

    // Admission hot path: one cost-model charge plus a `try_admit` →
    // `TryAdmit::Admitted` → drop round trip, the fixed overhead the
    // controller adds ahead of every chargeable request. The budget is
    // ample, so this times the uncontended path the daemon takes (a queue
    // wait would time the *workload*, not the controller).
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
                let TryAdmit::Admitted(permit) = controller.try_admit(0, est.cost) else {
                    panic!("ample budget admits");
                };
                drop(permit);
            }),
        });
    }

    // Log gate: `binop_add_8192` re-run with structured logging
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

/// Times one workload: warm-up, then `samples` batches; the median
/// ns/iter plus the fastest and slowest batch.
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
        min_ns: timings[0],
        max_ns: timings[timings.len() - 1],
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

/// Renders results as the `BENCH_engine.json` trajectory document.
///
/// Hand-rolled JSON (the workspace vendors no serde); the schema is frozen
/// so successive PRs can be diffed: one object per bench with the median,
/// fastest and slowest sample in nanoseconds per iteration — the min–max
/// band is the noise a later run is compared against — and the derived
/// element throughput at the median.
pub fn to_json(results: &[HotResult]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"mve-engine-hot-v3\",");
    let _ = writeln!(s, "  \"fast_mode\": {},", fast_mode());
    s.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"median_ns_per_iter\": {:.1}, \"min_ns_per_iter\": {:.1}, \
             \"max_ns_per_iter\": {:.1}, \"melems_per_s\": {:.1}}}",
            r.name, r.median_ns, r.min_ns, r.max_ns, r.melems_per_s
        );
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
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
        let mut benches = engine_hot_benches();
        for b in &mut benches {
            (b.run)();
            (b.run)();
        }
        let binop = benches
            .iter_mut()
            .find(|b| b.name == "binop_add_8192")
            .expect("binop_add_8192 is tracked");
        let measured = measure(binop);
        assert!(
            measured.min_ns <= measured.median_ns && measured.median_ns <= measured.max_ns,
            "{measured:?}"
        );
        let results = vec![
            measured,
            HotResult {
                name: "b",
                median_ns: 3.0,
                min_ns: 2.5,
                max_ns: 4.0,
                melems_per_s: 4.5,
            },
        ];
        let json = to_json(&results);
        assert!(json.contains("\"schema\": \"mve-engine-hot-v3\""));
        assert!(json.contains("\"name\": \"binop_add_8192\""));
        assert!(json.contains(
            "\"median_ns_per_iter\": 3.0, \"min_ns_per_iter\": 2.5, \"max_ns_per_iter\": 4.0"
        ));
        assert!(!json.contains("serve_throughput"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    /// The committed `BENCH_engine.json` lists the probes this file
    /// defines, in order, so a deleted or renamed probe forces the file to
    /// be regenerated (`MVE_BENCH_FAST=1 reproduce --json`).
    #[test]
    fn committed_bench_file_names_every_probe_in_order() {
        let committed = include_str!("../../../BENCH_engine.json");
        let names: Vec<&str> = committed
            .lines()
            .filter_map(|l| l.trim().strip_prefix("{\"name\": \""))
            .filter_map(|l| l.split('"').next())
            .collect();
        let probes: Vec<&str> = engine_hot_benches().iter().map(|b| b.name).collect();
        assert_eq!(names, probes);
    }
}
