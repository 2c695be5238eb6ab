//! `reproduce --profile` — per-kernel engine profiles.
//!
//! Runs the selected kernel set and replays each trace into a
//! [`ProfilingSink`], attributing simulated events, active lanes and
//! touched cache lines to the Figure 11 opcode classes, plus per-opcode
//! dynamic counts and the timing simulator's cycle totals.
//!
//! Two renders come out of one profiling pass:
//!
//! * [`render_report`] — fully deterministic (no wall-clock anywhere),
//!   committed at the repo root as `PROFILE_engine.txt` and byte-diffed
//!   in CI (two consecutive runs must agree, and the regenerated file
//!   must match the committed copy);
//! * [`chrome_trace`] — a Chrome trace-event (catapult) JSON document
//!   with real wall-clock slices per kernel (execute + simulate), loadable
//!   in `chrome://tracing`/Perfetto. Wall times vary run to run, so this
//!   render is schema-validated in tests but never committed.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use mve_core::profile::ProfilingSink;
use mve_core::sim::{simulate, SimConfig};
use mve_kernels::registry::selected_kernels;
use mve_kernels::Scale;
use mve_lang::LineReport;
use mve_obs::log::FieldValue;
use mve_obs::ChromeTrace;

/// One kernel's profile: deterministic attribution plus wall-clock.
pub struct KernelProfile {
    pub name: &'static str,
    /// Per-class / per-opcode attribution (replayed from the trace, so
    /// the counts are exactly the engine's emitted stream).
    pub sink: ProfilingSink,
    /// Wall-clock of the functional run (trace production + check).
    pub run_wall: Duration,
    /// Wall-clock of the timing simulation over the trace.
    pub sim_wall: Duration,
    /// Simulated total cycles under the default configuration.
    pub total_cycles: u64,
    /// Dynamic vector / scalar instruction counts.
    pub vector_instrs: u64,
    pub scalar_instrs: u64,
}

/// Profiles every selected kernel at `scale`.
pub fn profile_selected(scale: Scale) -> Vec<KernelProfile> {
    selected_kernels()
        .iter()
        .map(|k| {
            let name = k.info().name;
            let t0 = Instant::now();
            let run = k.run_mve(scale);
            let run_wall = t0.elapsed();
            assert!(
                run.checked.ok(),
                "{name}: functional check failed {:?}",
                run.checked
            );
            let mut sink = ProfilingSink::new();
            run.trace.replay_into(&mut sink);
            let t1 = Instant::now();
            let report = simulate(&run.trace, &SimConfig::default());
            let sim_wall = t1.elapsed();
            let mix = run.trace.instr_mix();
            KernelProfile {
                name,
                sink,
                run_wall,
                sim_wall,
                total_cycles: report.total_cycles,
                vector_instrs: report.vector_instrs,
                scalar_instrs: mix.scalar,
            }
        })
        .collect()
}

/// The committed profile report: per-kernel class attribution, opcode
/// counts and simulated cycles. Deterministic for a fixed kernel set and
/// scale — no wall-clock figure appears anywhere in these bytes.
pub fn render_report(profiles: &[KernelProfile], scale: Scale) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "engine profile — selected kernel set @ {} scale (default SimConfig)",
        scale_label(scale)
    );
    let _ = writeln!(
        s,
        "columns: events / active-lane sum / touched cache lines per Figure 11 class"
    );
    for p in profiles {
        let _ = writeln!(s);
        let _ = writeln!(
            s,
            "kernel {}: events={} vector_instrs={} scalar_instrs={} sim_cycles={}",
            p.name,
            p.sink.total_events(),
            p.vector_instrs,
            p.scalar_instrs,
            p.total_cycles
        );
        for (class, c) in p.sink.classes() {
            let _ = writeln!(
                s,
                "  class {class:<10} events={} lanes={} lines={}",
                c.events, c.active_lanes, c.cache_lines
            );
        }
        let _ = writeln!(
            s,
            "  class {:<10} events={} instrs={}",
            "scalar",
            p.sink.scalar_blocks(),
            p.sink.scalar_instrs()
        );
        let ops: Vec<String> = p
            .sink
            .opcode_counts()
            .map(|(op, n)| format!("{op}={n}"))
            .collect();
        let _ = writeln!(s, "  opcodes: {}", ops.join(" "));
    }
    s
}

/// One DSL-corpus kernel's per-source-line profile: the structured
/// report plus the perf-annotate-style render (the same bytes committed
/// as `corpus/<name>.lines.golden.txt` and served by the `profile` op).
pub struct DslLineProfile {
    pub name: &'static str,
    pub report: LineReport,
    pub annotated: String,
}

/// Profiles every DSL-corpus kernel per source line under the default
/// `SimConfig` — fully deterministic (engine trace replay + timing
/// simulation; no wall-clock).
pub fn profile_dsl_corpus() -> Vec<DslLineProfile> {
    crate::dslcorpus::CORPUS
        .iter()
        .map(|(name, _)| {
            let (annotated, report) = crate::dslcorpus::profile(name)
                .expect("corpus name")
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            DslLineProfile {
                name,
                report,
                annotated,
            }
        })
        .collect()
}

/// The per-source-line section appended to `PROFILE_engine.txt`: the
/// annotated render of every DSL-corpus kernel. Deterministic — the same
/// bytes as the committed `.lines.golden.txt` files.
pub fn render_dsl_lines(profiles: &[DslLineProfile]) -> String {
    let mut s = String::new();
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "dsl per-line profiles — committed corpus @ default SimConfig"
    );
    let _ = writeln!(
        s,
        "(per-line cycles sum exactly to each kernel's simulated total; \
         unattributed work lands in <toplevel>)"
    );
    for p in profiles {
        let _ = writeln!(s);
        s.push_str(&p.annotated);
    }
    s
}

/// The Chrome trace-event export: one track per kernel, a `run` slice
/// (functional execution) followed by a `simulate` slice, each annotated
/// with the deterministic counters, plus one track per DSL-corpus kernel
/// whose slices are that kernel's *source lines* laid end to end with
/// simulated cycles as the duration unit (1 cycle = 1 µs in the viewer).
/// The wall-clock slices are real, so these bytes change run to run; the
/// per-line slices are deterministic.
pub fn chrome_trace(profiles: &[KernelProfile], dsl: &[DslLineProfile]) -> String {
    const PID: u64 = 1;
    let mut t = ChromeTrace::new();
    let mut cursor = 0.0f64;
    for (i, p) in dsl.iter().enumerate() {
        // DSL tracks come first on their own pid so cycle-denominated
        // slices never share a timeline with wall-clock ones.
        let tid = i as u64 + 1;
        t.name_thread(2, tid, &format!("dsl {} (cycles)", p.name));
        let mut at = 0.0f64;
        for l in &p.report.lines {
            if l.cycles == 0 {
                continue;
            }
            let name = if l.line == 0 {
                "<toplevel>".to_owned()
            } else {
                format!("line {}", l.line)
            };
            t.complete(
                &name,
                "dsl_line",
                at,
                l.cycles as f64,
                2,
                tid,
                &[
                    ("events", FieldValue::U64(l.events)),
                    ("scalar_instrs", FieldValue::U64(l.scalar_instrs)),
                    ("spill_stores", FieldValue::U64(l.spill_stores)),
                    ("reloads", FieldValue::U64(l.reloads)),
                ],
            );
            at += l.cycles as f64;
        }
    }
    for (i, p) in profiles.iter().enumerate() {
        let tid = i as u64 + 1;
        t.name_thread(PID, tid, p.name);
        let run_us = p.run_wall.as_secs_f64() * 1e6;
        let sim_us = p.sim_wall.as_secs_f64() * 1e6;
        t.complete(
            "run",
            "engine",
            cursor,
            run_us,
            PID,
            tid,
            &[
                ("events", FieldValue::U64(p.sink.total_events())),
                ("vector_instrs", FieldValue::U64(p.vector_instrs)),
                ("scalar_instrs", FieldValue::U64(p.scalar_instrs)),
            ],
        );
        t.complete(
            "simulate",
            "sim",
            cursor + run_us,
            sim_us,
            PID,
            tid,
            &[("total_cycles", FieldValue::U64(p.total_cycles))],
        );
        t.instant(
            "done",
            "sim",
            cursor + run_us + sim_us,
            PID,
            tid,
            &[("kernel", FieldValue::Str(p.name.to_owned()))],
        );
        cursor += run_us + sim_us;
    }
    t.render()
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Paper => "paper",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_profile() -> Vec<KernelProfile> {
        let all = profile_selected(Scale::Test);
        assert!(!all.is_empty());
        all
    }

    #[test]
    fn report_is_deterministic_and_wall_free() {
        let a = render_report(&one_profile(), Scale::Test);
        let b = render_report(&one_profile(), Scale::Test);
        assert_eq!(a, b, "profile report must be byte-stable across runs");
        assert!(
            !a.contains("wall"),
            "no wall-clock may leak into the report"
        );
        assert!(a.contains("kernel csum:") || a.contains("kernel "));
        assert!(a.contains("class arithmetic"));
        assert!(a.contains("opcodes: "));
    }

    #[test]
    fn dsl_line_section_is_deterministic_and_conserves_cycles() {
        let a = profile_dsl_corpus();
        let b = profile_dsl_corpus();
        assert_eq!(render_dsl_lines(&a), render_dsl_lines(&b));
        for p in &a {
            let totals = p.report.totals();
            assert_eq!(
                totals.cycles, p.report.total_cycles,
                "{}: per-line cycles must sum to the simulated total",
                p.name
            );
        }
    }

    #[test]
    fn chrome_export_is_valid_trace_event_json() {
        let doc = chrome_trace(&one_profile(), &profile_dsl_corpus());
        assert!(doc.contains("dsl_line"), "per-line slices must be present");
        // Validate against the trace-event JSON object format: the
        // document must parse, expose a traceEvents array, and every
        // event must carry the required members (complete events add a
        // numeric dur; metadata events are thread_name records).
        let parsed = mve_serve::json::Json::parse(&doc).expect("chrome trace must be valid JSON");
        let events = match parsed.get("traceEvents") {
            Some(mve_serve::json::Json::Arr(items)) => items,
            other => panic!("traceEvents must be an array, got {other:?}"),
        };
        assert!(!events.is_empty());
        for e in events {
            let ph = e
                .get("ph")
                .and_then(mve_serve::json::Json::as_str)
                .expect("event lacks ph");
            assert!(e.get("pid").is_some() && e.get("tid").is_some());
            match ph {
                "X" => {
                    assert!(e.get("ts").is_some() && e.get("dur").is_some());
                    assert!(e.get("name").is_some() && e.get("cat").is_some());
                }
                "i" => {
                    assert!(e.get("ts").is_some());
                    assert_eq!(
                        e.get("s").and_then(mve_serve::json::Json::as_str),
                        Some("t")
                    );
                }
                "M" => {
                    assert_eq!(
                        e.get("name").and_then(mve_serve::json::Json::as_str),
                        Some("thread_name")
                    );
                }
                other => panic!("unexpected phase {other}"),
            }
        }
    }
}
