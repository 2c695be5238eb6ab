//! One-shot reproduction: regenerates every table, figure and ablation into
//! `results/` (paper scale) through the shared artefact registry
//! (`mve_bench::artefacts`) — the same render functions the `serve` daemon
//! caches, so both front-ends are byte-identical by construction.
//!
//! `--smoke` runs the same pipeline at test scale into `results-smoke/`,
//! in seconds instead of minutes — used by CI so this entry point cannot
//! silently rot.
//!
//! `--only NAME` (repeatable) renders a subset; an unknown name exits
//! 2 with the sorted artefact vocabulary. The command line is
//! `mve_bench::cli::reproduce` (DESIGN.md, "Command line"): a mistake
//! exits 2 with the reason and the usage line.
//!
//! `--jobs N` renders on N worker threads (a work queue over
//! `std::thread::scope`; `--jobs` alone uses the available parallelism).
//! Every artefact renders independently into its own output file, so the
//! results are byte-identical to a serial run at any job count — CI
//! asserts exactly that.
//!
//! `--dsl` additionally compiles and runs the committed `.mvel` corpus
//! (`mve_bench::dslcorpus`) through the full mve-lang pipeline — parse →
//! lower → schedule → allocate → execute → check → simulate — writing one
//! `dsl_<name>.txt` render per kernel. The same bytes are committed as
//! `crates/bench/corpus/<name>.golden.txt` and served by the daemon's
//! `compile` op.
//!
//! `--json` instead times the engine and service hot-path micro-benchmarks
//! (`mve_bench::perf`) and writes the machine-readable trajectory file
//! `BENCH_engine.json` into the current directory: each bench's median
//! ns/iter and its min–max band. `MVE_BENCH_FAST=1` shrinks the timing
//! budgets for CI.
//!
//! `--profile` instead profiles the selected kernel set
//! (`mve_bench::profiling`): the deterministic per-opcode-class report
//! plus the per-source-line profiles of the DSL corpus go to
//! `PROFILE_engine.txt` (committed, byte-diffed in CI) and a Chrome
//! trace-event export — real wall-clock slices per kernel plus
//! cycle-denominated per-line slices per DSL kernel — goes to
//! `PROFILE_engine.chrome.json` (gitignored). `--paper` raises the scale.

use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering};

use mve_bench::{artefacts, cli};
use mve_kernels::Scale;

fn main() {
    let flags = cli::from_env(cli::reproduce::USAGE, cli::reproduce::parse);
    if flags.profile {
        // Engine profiling over the selected kernel set: the committed,
        // deterministic per-class report plus a Chrome trace-event export
        // (wall-clock; never committed — load it in chrome://tracing).
        let scale = if flags.paper {
            Scale::Paper
        } else {
            Scale::Test
        };
        let profiles = mve_bench::profiling::profile_selected(scale);
        for p in &profiles {
            eprintln!(
                "  {:12} {:>9} events  {:>11} cycles  run {:>8.1?}  sim {:>8.1?}",
                p.name,
                p.sink.total_events(),
                p.total_cycles,
                p.run_wall,
                p.sim_wall
            );
        }
        let dsl = mve_bench::profiling::profile_dsl_corpus();
        for p in &dsl {
            eprintln!(
                "  dsl {:9} {:>9} cycles over {} attributed lines",
                p.name,
                p.report.total_cycles,
                p.report.lines.iter().filter(|l| l.cycles > 0).count()
            );
        }
        let mut report = mve_bench::profiling::render_report(&profiles, scale);
        report.push_str(&mve_bench::profiling::render_dsl_lines(&dsl));
        fs::write("PROFILE_engine.txt", report.as_bytes()).expect("write PROFILE_engine.txt");
        let chrome = mve_bench::profiling::chrome_trace(&profiles, &dsl);
        fs::write("PROFILE_engine.chrome.json", chrome.as_bytes())
            .expect("write PROFILE_engine.chrome.json");
        eprintln!(
            "wrote PROFILE_engine.txt ({} kernels + {} dsl per-line profiles) \
             and PROFILE_engine.chrome.json",
            profiles.len(),
            dsl.len()
        );
        return;
    }
    if flags.json {
        let results = mve_bench::perf::run_engine_hot();
        for r in &results {
            eprintln!(
                "  {:28} {:>12.1} ns/iter  [{:.1}, {:.1}]  {:>10.1} Melem/s",
                r.name, r.median_ns, r.min_ns, r.max_ns, r.melems_per_s
            );
        }
        let json = mve_bench::perf::to_json(&results);
        fs::write("BENCH_engine.json", &json).expect("write BENCH_engine.json");
        print!("{json}");
        eprintln!("wrote BENCH_engine.json ({} benches)", results.len());
        return;
    }
    let (scale, out_dir) = if flags.smoke {
        (Scale::Test, "results-smoke")
    } else {
        (Scale::Paper, "results")
    };
    let names = &flags.only;
    let jobs = flags.jobs.unwrap_or(1).min(names.len());
    fs::create_dir_all(out_dir).expect("create results dir");

    if flags.dsl {
        for (name, _) in mve_bench::dslcorpus::CORPUS {
            eprintln!("compiling dsl corpus kernel {name}...");
            let text = mve_bench::dslcorpus::render(name)
                .expect("corpus name")
                .unwrap_or_else(|e| panic!("corpus kernel {name} failed to compile: {e}"));
            let path = format!("{out_dir}/dsl_{name}.txt");
            fs::write(&path, text.as_bytes())
                .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
            eprintln!("  -> {path} ({} bytes)", text.len());
        }
    }

    // Work queue: each worker claims the next unstarted artefact (one
    // worker runs them in order). A failing artefact panics its worker;
    // the scope propagates the panic so the run still exits non-zero.
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(name) = names.get(i) else { break };
                eprintln!("running {name}...");
                let text = artefacts::render(name, scale).expect("validated artefact name");
                let path = format!("{out_dir}/{name}.txt");
                fs::write(&path, text.as_bytes())
                    .unwrap_or_else(|e| panic!("failed to write {path}: {e}"));
                eprintln!("  -> {path} ({} bytes)", text.len());
            });
        }
    });
    eprintln!(
        "done: {} artefacts under {out_dir}/ ({jobs} jobs)",
        names.len()
    );
}
