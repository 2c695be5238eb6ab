//! `calibrate`: measures the per-op-class cost coefficients behind
//! `mve-serve` admission control and regenerates the committed
//! `crates/serve/COST_MODEL.json` table.
//!
//! ```text
//! calibrate                 # measure, print the table to stdout
//! calibrate --write PATH    # measure, write the table to PATH
//! calibrate --check         # measure, compare against the committed
//!                           # table, exit 1 if any formula drifts > 2x
//! ```
//!
//! The command line is `mve_bench::cli::calibrate` (DESIGN.md, "Command
//! line"): a mistake exits 2 with the reason and the usage line.
//!
//! The probes time the same code paths the daemon charges for: an
//! artefact render from the shared registry, a functional kernel
//! execution (`run_mve`) at both scales, a single-configuration timing
//! walk at the default 32 arrays, and the DSL front-end over a short and
//! a long source (fitting the per-byte slope). Every probe is the median
//! of 5 samples, or of 3 under `MVE_BENCH_FAST=1` for the CI drift check;
//! the committed table itself should be regenerated without it.
//!
//! `--check` compares *formula outputs* (representative charges per op
//! class), not raw coefficients — two tables that price every request
//! within 2x of each other agree, even if they split base/slope terms
//! differently. Tiny charges (< 25 units) are noise-dominated and exempt.

use std::time::Instant;

use mve_bench::{artefacts, cli, dslcorpus, figures, perf};
use mve_kernels::registry::kernel_by_name;
use mve_kernels::Scale;
use mve_serve::cost::CostModel;
use mve_serve::SimSpec;

/// The kernel every sim-class probe runs: cheap enough to execute at
/// paper scale in CI, in the selected Figure 8–13 set, exercising loads,
/// arithmetic and a reduction.
const PROBE_KERNEL: &str = "csum";

/// Short DSL source for the compile fixed-cost probe.
const SMALL_KERNEL: &str =
    "kernel b(x: buf<i32>[8192], y: buf<i32>[8192], o: mut buf<i32>[8192]) {\n\
     shape [8192];\nlet xv = load x [1];\nlet yv = load y [1];\n\
     store xv + yv -> o [1];\n}";

/// Times `f` (after one warm-up call) and returns the median wall time
/// in microseconds over `reps` measured calls.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / 1_000.0
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Measures every coefficient. `reps` is the per-probe sample count.
fn calibrate(reps: usize) -> CostModel {
    // Artefact: median per-render cost across the full registry at test
    // scale — the same distribution the daemon serves. Each sample renders
    // cold: the daemon charges a cache miss, not a results-memo hit.
    let mut renders: Vec<f64> = artefacts::NAMES
        .iter()
        .map(|name| {
            median_us(reps, || {
                figures::clear_memo();
                let text = artefacts::render(name, Scale::Test).expect("registered");
                assert!(!text.is_empty());
            })
        })
        .collect();
    renders.sort_by(|a, b| a.total_cmp(b));
    let artefact_test_us = renders[renders.len() / 2];

    // Functional execution at both scales; the ratio is the scale
    // multiplier every class shares.
    let kernel = kernel_by_name(PROBE_KERNEL).expect("probe kernel");
    let exec_test = median_us(reps, || {
        let run = kernel.run_mve(Scale::Test);
        assert!(run.checked.ok());
    });
    let exec_paper = median_us(reps, || {
        let run = kernel.run_mve(Scale::Paper);
        assert!(run.checked.ok());
    });
    let scale_paper_mult = (exec_paper / exec_test.max(1e-9)).max(1.0);

    // One timing walk (single configuration) at the calibration
    // geometry, the default 32 arrays.
    let run = kernel.run_mve(Scale::Test);
    assert!(run.checked.ok(), "probe kernel functional check");
    let cfg = SimSpec::default().to_config();
    let sweep_per_config_us = median_us(reps, || {
        let report = mve_core::sim::simulate(&run.trace, &cfg);
        assert!(report.total_cycles > 0);
    });

    // DSL front-end: a short and a long source fit the per-byte slope;
    // the intercept is the fixed lex/parse/schedule/allocate cost.
    let large = dslcorpus::source("saxpy").expect("corpus kernel");
    let t_small = median_us(reps, || {
        mve_lang::compile(SMALL_KERNEL).expect("probe kernel compiles");
    });
    let t_large = median_us(reps, || {
        mve_lang::compile(large).expect("corpus kernel compiles");
    });
    let (len_small, len_large) = (SMALL_KERNEL.len() as f64, large.len() as f64);
    let compile_per_byte_us = if len_large > len_small {
        ((t_large - t_small) / (len_large - len_small)).max(0.0)
    } else {
        0.0
    };
    let compile_base_us = (t_small - compile_per_byte_us * len_small).max(0.0);

    CostModel {
        artefact_test_us,
        scale_paper_mult,
        sim_exec_test_us: exec_test,
        sweep_per_config_us,
        compile_base_us,
        compile_per_byte_us,
    }
}

/// Representative charges per op class — the probe set `--check`
/// compares across tables.
fn probe_charges(m: &CostModel) -> Vec<(&'static str, u64)> {
    vec![
        ("artefact@test", m.artefact_cost(Scale::Test)),
        ("artefact@paper", m.artefact_cost(Scale::Paper)),
        ("sim@test/32", m.sim_cost(Scale::Test)),
        ("sim@paper/32", m.sim_cost(Scale::Paper)),
        ("sweep@test/32x4", m.sweep_cost(Scale::Test, 4)),
        ("compile@200B", m.compile_cost(200)),
        ("compile@4096B", m.compile_cost(4096)),
    ]
}

fn main() {
    let (check, write_path) = cli::from_env(cli::calibrate::USAGE, cli::calibrate::parse);
    // Fast mode still takes a median of 3: a single sample per probe
    // tripped the 2x drift gate on a noisy host.
    let reps = if perf::fast_mode() { 3 } else { 5 };
    eprintln!(
        "calibrating ({} mode, {reps} sample(s) per probe)...",
        if perf::fast_mode() { "fast" } else { "full" }
    );
    let model = calibrate(reps);
    let table = model.to_json();

    if check {
        let committed = CostModel::committed();
        let mut drifted = false;
        for ((name, fresh), (_, baked)) in probe_charges(&model)
            .into_iter()
            .zip(probe_charges(committed))
        {
            let (lo, hi) = (fresh.min(baked), fresh.max(baked));
            // 2x band with a 25-unit noise floor for near-free charges.
            let ok = hi <= 2 * lo.max(25);
            eprintln!(
                "  {name}: measured {fresh} vs committed {baked} units{}",
                if ok { "" } else { "  <-- DRIFT > 2x" }
            );
            drifted |= !ok;
        }
        if drifted {
            eprintln!("cost model drift: recalibrate with `calibrate --write crates/serve/COST_MODEL.json` on a quiet host");
            std::process::exit(1);
        }
        eprintln!("cost model agrees with the committed table (within 2x)");
        return;
    }

    match write_path {
        Some(path) => {
            std::fs::write(&path, format!("{table}\n")).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {path}");
        }
        None => println!("{table}"),
    }
}
