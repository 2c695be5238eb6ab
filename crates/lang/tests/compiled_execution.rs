//! End-to-end properties of the compiled-kernel pipeline:
//!
//! * a compiled `.mvel` dot product produces cycle/energy stats
//!   **identical** to the equivalent hand-written engine sequence run
//!   through `simulate()` with the same `SimConfig`;
//! * a register-pressured kernel demonstrably emits spill/reload memory
//!   traffic that shows up in the trace instruction mix — and still
//!   computes the right answer;
//! * the functional check holds across the DSL feature surface
//!   (multi-dim strided loads, dim blocks, reductions, shifts, min/max).

use mve_core::dtype::{BinOp, DType};
use mve_core::engine::Engine;
use mve_core::isa::{Opcode, StrideMode};
use mve_core::sim::{simulate, SimConfig};
use mve_lang::{compile, run_checked, Bindings};

const DOT: &str = r#"
kernel dot(x: buf<i32>[8192], y: buf<i32>[8192], out: mut buf<i32>[1]) {
    shape [8192];
    let xv = load x [1];
    let yv = load y [1];
    let s = reduce add (xv * yv);
    shape [1];
    store s -> out [1];
}
"#;

/// The hand-written engine sequence a human would write for `dot` —
/// mirroring what a Table III registry kernel's `run_mve` body looks like,
/// including the Section IV vertical tree reduction.
fn hand_written_dot(x: &[u64], y: &[u64]) -> (mve_core::trace::Trace, u64) {
    let mut e = Engine::default_mobile();
    let n = 8192usize;
    let xa = e.mem_alloc(n as u64 * 4);
    let ya = e.mem_alloc(n as u64 * 4);
    let oa = e.mem_alloc(4);
    for (i, &v) in x.iter().enumerate() {
        e.mem_mut().write_raw(xa + i as u64 * 4, 4, v);
    }
    for (i, &v) in y.iter().enumerate() {
        e.mem_mut().write_raw(ya + i as u64 * 4, 4, v);
    }
    e.vsetwidth(32);
    e.vsetdimc(1);
    e.vsetdiml(0, n);
    let xv = e.load(DType::I32, xa, &[StrideMode::One]);
    let yv = e.load(DType::I32, ya, &[StrideMode::One]);
    let p = e.binop(Opcode::Mul, BinOp::Mul, xv, yv);
    e.free(xv);
    e.free(yv);
    // Vertical tree reduction: halve 8192 → 256 partials in one
    // [m/2, 2] fold shape, then finish on the scalar core.
    let scratch = e.mem_alloc(e.lanes() as u64 * 4);
    e.vsetdimc(2);
    e.vsetdiml(0, n / 2);
    e.vsetdiml(1, 2);
    let mut m = n;
    let mut cur = p;
    while m > 256 {
        if m != n {
            e.vsetdiml(0, m / 2);
        }
        e.vunsetmask(0);
        e.store(cur, scratch, &[StrideMode::One, StrideMode::Seq]);
        e.vresetmask();
        let upper = e.load(
            DType::I32,
            scratch + (m / 2) as u64 * 4,
            &[StrideMode::One, StrideMode::Zero],
        );
        let sum = e.binop(Opcode::Add, BinOp::Add, cur, upper);
        if cur != p {
            e.free(cur);
        }
        e.free(upper);
        cur = sum;
        m /= 2;
        e.scalar(8);
    }
    // Dim 0 already holds 256 when the loop exits; only the dimension
    // count changes for the scalar finish.
    e.vsetdimc(1);
    e.store(cur, scratch, &[StrideMode::One]);
    e.free(cur);
    e.scalar(2 * 256);
    let mut acc = 0u64;
    for i in 0..256 {
        let raw = e.mem().read_raw(scratch + i as u64 * 4, 4);
        acc = if i == 0 {
            raw
        } else {
            DType::I32.binop(BinOp::Add, acc, raw)
        };
    }
    e.vsetdiml(0, n);
    let s = e.setdup(DType::I32, acc);
    e.free(p);
    e.vsetdiml(0, 1);
    e.store(s, oa, &[StrideMode::One]);
    e.free(s);
    let out = e.mem().read_raw(oa, 4);
    (e.take_trace(), out)
}

#[test]
fn compiled_dot_matches_hand_written_stats_exactly() {
    let ck = compile(DOT).unwrap();
    assert_eq!(ck.spill_stores, 0, "dot must not spill");
    let bindings = Bindings::deterministic(&ck.program);
    let (mut ex, want, check) = run_checked(&ck, &bindings);
    assert_eq!(check.mismatches, 0, "{check:?}");
    let dsl_trace = ex.engine_mut().take_trace();

    let (hand_trace, hand_out) = hand_written_dot(&bindings.inputs[0], &bindings.inputs[1]);

    // Functional equality: compiled == hand-written == interpreter.
    assert_eq!(ex.outputs()[2].as_ref().unwrap()[0], hand_out);
    assert_eq!(want[2].as_ref().unwrap()[0], hand_out);

    // Identical instruction mixes...
    assert_eq!(dsl_trace.instr_mix(), hand_trace.instr_mix());

    // ...and identical cycle/energy stats under the same SimConfig — the
    // compiled path is indistinguishable from the hand-written kernel.
    for cfg in [
        SimConfig::default(),
        SimConfig::default().with_ooo_dispatch(),
        SimConfig::default()
            .without_mode_switch()
            .without_cache_warming(),
    ] {
        let a = simulate(&dsl_trace, &cfg);
        let b = simulate(&hand_trace, &cfg);
        assert_eq!(a, b, "reports diverge under {cfg:?}");
        assert!(a.total_cycles > 0);
    }
}

const SPILLSTORM: &str = r#"
# Four long-lived 64-bit loads, each consumed by all three outputs: at
# width 64 the register file holds 4 registers and the runner reserves 1,
# so the allocator must spill.
kernel spillstorm(x: buf<i64>[4096], out: mut buf<i64>[3072]) {
    shape [1024];
    let l0 = load x @ 0 [1];
    let l1 = load x @ 1024 [1];
    let l2 = load x @ 2048 [1];
    let l3 = load x @ 3072 [1];
    store (l0 + l1) + (l2 + l3) -> out @ 0 [1];
    store (l0 + l3) + (l1 + l2) -> out @ 1024 [1];
    store (l0 + l2) + (l1 + l3) -> out @ 2048 [1];
}
"#;

#[test]
fn register_pressure_emits_real_spill_traffic_and_stays_correct() {
    let ck = compile(SPILLSTORM).unwrap();
    assert_eq!(ck.kernel_width, 64);
    assert_eq!(ck.capacity, 4);
    assert_eq!(ck.budget, 3);
    assert!(ck.spill_stores > 0, "must spill under a 3-register budget");
    assert!(ck.reloads >= ck.spill_stores);

    let bindings = Bindings::deterministic(&ck.program);
    let (mut ex, _want, check) = run_checked(&ck, &bindings);
    assert_eq!(
        check.mismatches, 0,
        "spilled values must survive the round-trip"
    );
    // The spill/reload ops are real memory instructions in the trace: the
    // mix shows exactly the program's 7 accesses plus one per spill store
    // and one per reload.
    let trace = ex.engine_mut().take_trace();
    let mix = trace.instr_mix();
    assert_eq!(
        mix.mem_access,
        7 + (ck.spill_stores + ck.reloads) as u64,
        "{mix:?}"
    );

    // And the timing simulation charges them: the same kernel with a
    // comfortable budget (32-bit elements halve the width, doubling the
    // file) spills nothing and moves strictly fewer elements.
    let relaxed = compile(&SPILLSTORM.replace("i64", "i32")).unwrap();
    assert_eq!(relaxed.spill_stores, 0);
    let rb = Bindings::deterministic(&relaxed.program);
    let (mut rex, _, rcheck) = run_checked(&relaxed, &rb);
    assert_eq!(rcheck.mismatches, 0);
    let cfg = SimConfig::default();
    let spilled = simulate(&trace, &cfg);
    let clean = simulate(&rex.engine_mut().take_trace(), &cfg);
    assert!(
        spilled.energy.tmu_element_transfers > clean.energy.tmu_element_transfers,
        "spill traffic must move more elements ({} vs {})",
        spilled.energy.tmu_element_transfers,
        clean.energy.tmu_element_transfers
    );
}

#[test]
fn feature_surface_matches_the_interpreter() {
    // Strided 2-D stencil with a CR row stride, shifts, min/max, an f32
    // strip-mined dim block, and a non-power-of-two reduction.
    for src in [
        r#"
kernel stencil(img: buf<i16>[4161], out: mut buf<i16>[4096]) {
    shape [64, 64];
    let c = load img @ 0 [1, 65];
    let e = load img @ 1 [1, 65];
    let w = load img @ 2 [1, 65];
    let blur = (c >> 1) + ((e + w) >> 2);
    store blur -> out [1, seq];
}
"#,
        r#"
kernel saxpy(a: f32 = 2.5, x: buf<f32>[4096], y: buf<f32>[4096], out: mut buf<f32>[4096]) {
    for i in 0..4 {
        shape [1024];
        let xv = load x @ i * 1024 [1];
        let yv = load y @ i * 1024 [1];
        store xv * a + yv -> out @ i * 1024 [1];
    }
}
"#,
        r#"
kernel oddsum(v: buf<u32>[1000], out: mut buf<u32>[2]) {
    shape [1000];
    let s = reduce add (load v [1]);
    let m = reduce max (load v [1]);
    shape [1];
    store s -> out @ 0 [1];
    store min(m, 4095) -> out @ 1 [1];
}
"#,
    ] {
        let ck = compile(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let b = Bindings::deterministic(&ck.program);
        let (_ex, _want, check) = run_checked(&ck, &b);
        assert_eq!(check.mismatches, 0, "{src}");
        assert!(check.compared > 0);
    }
}

#[test]
fn reduction_fold_is_bit_exact_for_floats() {
    // The interpreter mirrors the engine's vertical-tree order, so even
    // float reductions compare bit-exactly (not just within tolerance).
    let src = r#"
kernel fsum(v: buf<f32>[8192], out: mut buf<f32>[1]) {
    shape [8192];
    let s = reduce add (load v [1]);
    shape [1];
    store s -> out [1];
}
"#;
    let ck = compile(src).unwrap();
    let b = Bindings::deterministic(&ck.program);
    let (_ex, _want, check) = run_checked(&ck, &b);
    assert_eq!(check.mismatches, 0);
    assert_eq!(check.compared, 1);
}

#[test]
fn hostile_inputs_get_diagnostics_not_panics() {
    // Client-controlled strides, shapes and buffer lengths must surface
    // as diagnostics — never debug-overflow panics or wrapped bounds
    // math that lets an access alias back into range.
    let cases = [
        // Giant stride: previously overflowed the i64 bounds arithmetic.
        (
            "kernel k(x: buf<i32>[16], o: mut buf<i32>[16]) {\n    shape [2, 3];\n    \
             store load x [1, 4611686018427387904] -> o [1, seq];\n}",
            "stride",
        ),
        // Negative monster stride.
        (
            "kernel k(x: buf<i32>[16], o: mut buf<i32>[16]) {\n    shape [2, 2];\n    \
             store load x [1, -4611686018427387904] -> o [1, seq];\n}",
            "stride",
        ),
        // Shape whose usize product would wrap back under the lane bound.
        (
            "kernel k(o: mut buf<i32>[4]) {\n    shape [4294967296, 4294967296];\n    \
             store 1 + 0 -> o [1, 1];\n}",
            "dimension length",
        ),
        // Buffer larger than the functional-memory budget (previously an
        // engine allocation panic at execution time).
        (
            "kernel k(x: buf<i64>[999999999], o: mut buf<i32>[4]) {\n    shape [4];\n    \
             store (load x [1]) + 0 -> o [1];\n}",
            "memory budget",
        ),
        // Constant-expression overflow in an offset.
        (
            "kernel k(x: buf<i32>[16], o: mut buf<i32>[4]) {\n    shape [4];\n    \
             store load x @ 9223372036854775807 * 9223372036854775807 [1] -> o [1];\n}",
            "overflows",
        ),
    ];
    for (src, needle) in cases {
        let Err(err) = compile(src) else {
            panic!("must not compile:\n{src}");
        };
        assert!(
            err.message.contains(needle),
            "{src}\nwanted `{needle}` in: {err}"
        );
    }
    // A buffer comfortably inside the budget still compiles.
    let ok = "kernel k(x: buf<i8>[8388608], o: mut buf<i8>[128]) {\n    shape [128];\n    \
              store (load x [1]) + 0 -> o [1];\n}";
    compile(ok).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn executor_geometry_override_is_validated() {
    let ck = compile(DOT).unwrap();
    let b = Bindings::deterministic(&ck.program);
    // 8 arrays → 2048 lanes: the 8192-lane dot product cannot run there.
    let geom = mve_insram::scheme::EngineGeometry::with_arrays(8);
    let Err(err) = mve_lang::Executor::with_geometry(&ck, &b, geom) else {
        panic!("8192-lane kernel must not fit a 2048-lane geometry");
    };
    assert!(err.message.contains("8192-lane shape"), "{err}");
    // A small kernel runs fine on the narrow geometry and its trace
    // reflects it.
    let small = compile(
        "kernel s(x: buf<i32>[1024], o: mut buf<i32>[1024]) {\n    shape [1024];\n    \
         let v = load x [1];\n    store v + v -> o [1];\n}",
    )
    .unwrap();
    let sb = Bindings::deterministic(&small.program);
    let mut ex = mve_lang::Executor::with_geometry(&small, &sb, geom).unwrap();
    ex.run();
    assert_eq!(ex.engine().lanes(), 2048);
    let want = mve_lang::interpret(&small.ast, &small.program.params, &sb);
    assert_eq!(
        mve_lang::compare_outputs(&ex.outputs(), &want).mismatches,
        0
    );
}

#[test]
fn scratch_hungry_kernels_are_rejected_at_compile_time() {
    // Each reduction needs a full-register scratch slot at execution
    // time; a kernel with thousands of them would exhaust the 64 MiB
    // functional memory mid-run. That must be a compile diagnostic, not
    // an execution panic.
    let mut src = String::from(
        "kernel many(x: buf<i32>[8192], o: mut buf<i32>[3000]) {\n    shape [8192];\n    \
         let v = load x [1];\n",
    );
    for i in 0..3000 {
        src.push_str(&format!("    let r{i} = reduce add (v);\n"));
    }
    src.push_str("    shape [1];\n");
    for i in 0..3000 {
        src.push_str(&format!("    store r{i} -> o @ {i} [1];\n"));
    }
    src.push_str("}\n");
    let Err(err) = compile(&src) else {
        panic!("3000 reductions must not fit the scratch budget");
    };
    assert!(err.message.contains("scratch"), "{err}");

    // A handful of reductions stays comfortably within budget.
    let ok = compile(
        "kernel few(x: buf<i32>[8192], o: mut buf<i32>[4]) {\n    shape [8192];\n    \
         let v = load x [1];\n    let a = reduce add (v);\n    let b = reduce max (v);\n    \
         shape [1];\n    store a -> o @ 0 [1];\n    store b -> o @ 1 [1];\n}",
    );
    ok.unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn deep_and_huge_expressions_are_diagnostics_not_stack_overflows() {
    // Deep nesting and massive operator chains must be parse diagnostics:
    // recursive descent (and the recursive lowering behind it) burns
    // stack per level, and a stack overflow aborts the whole process —
    // the daemon's catch_unwind cannot contain it.
    let deep = format!(
        "kernel k(x: buf<i32>[4], o: mut buf<i32>[4]) {{\n    shape [4];\n    store {}load x [1]{} -> o [1];\n}}",
        "(".repeat(500),
        ")".repeat(500)
    );
    let Err(err) = compile(&deep) else {
        panic!("500-deep nesting must not parse");
    };
    assert!(err.message.contains("nesting"), "{err}");

    let huge = format!(
        "kernel k(x: buf<i32>[4], o: mut buf<i32>[4]) {{\n    shape [4];\n    let v = load x [1];\n    store v{} -> o [1];\n}}",
        " + v".repeat(5000)
    );
    let Err(err) = compile(&huge) else {
        panic!("5000-term chain must not parse");
    };
    assert!(err.message.contains("nodes"), "{err}");
}

/// ISSUE-9 phase timing: `compile_timed` / `compile_and_render_timed`
/// report per-phase durations without perturbing the compile — the
/// rendered artefact is byte-identical to the untimed path, and every
/// phase slot is populated with a name the observability docs promise.
#[test]
fn timed_compile_reports_phases_and_identical_bytes() {
    let (ck, phases) = mve_lang::compile_timed(DOT).expect("compiles");
    let untimed = compile(DOT).expect("compiles");
    assert_eq!(
        ck.program, untimed.program,
        "timing must not change codegen"
    );
    let names: Vec<&str> = phases.phases().iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        ["lex", "parse", "lower", "schedule", "allocate"],
        "stable phase vocabulary"
    );
    let total: std::time::Duration = phases.phases().iter().map(|(_, d)| *d).sum();
    assert!(total > std::time::Duration::ZERO, "phases must be measured");

    let cfg = SimConfig::default();
    let (timed_text, _) = mve_lang::compile_and_render_timed(DOT, &cfg).expect("renders");
    let untimed_text = mve_lang::compile_and_render(DOT, &cfg).expect("renders");
    assert_eq!(timed_text, untimed_text, "rendered bytes must be identical");
}
