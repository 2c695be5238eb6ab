//! The artefact registry: one render function per paper artefact, shared
//! by every front-end so they cannot drift apart.
//!
//! Two consumers produce byte-identical output from these functions:
//!
//! * `reproduce` renders the whole set, or the `--only NAME` subset,
//!   in-process (serially or on its `--jobs` work queue) into `results/` /
//!   `results-smoke/`,
//! * the `serve` daemon renders them on demand behind its
//!   content-addressed cache, and `mve-client --replay-smoke` writes them
//!   back to disk — CI diffs that tree against `reproduce --smoke`
//!   byte-for-byte.
//!
//! Render functions take the [`Scale`] and return the artefact's exact
//! text (tables and the fixed-size Figure 9 sweeps ignore the scale).

use std::fmt::Write as _;

use crate::{ablations, figures, pct, platform, tables};
use mve_energy::area::{CORE_AREA_MM2, GPU_AREA_MM2, NEON_AREA_MM2};
use mve_kernels::registry::selected_kernels;
use mve_kernels::Scale;
use mve_serve::server::{ArtefactFn, ArtefactRegistry};

/// Writes one line into the artefact buffer (string-side `println!`).
macro_rules! w {
    ($dst:expr) => {{
        let _ = writeln!($dst);
    }};
    ($dst:expr, $($arg:tt)*) => {{
        let _ = writeln!($dst, $($arg)*);
    }};
}

/// All artefact names, in `reproduce`'s rendering order.
pub const NAMES: [&str; 16] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12a",
    "fig12b",
    "fig12c",
    "fig13",
    "ablations",
    "ext_pumice",
];

/// Renders one artefact; `None` for unknown names.
pub fn render(name: &str, scale: Scale) -> Option<String> {
    Some(match name {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "table4" => table4(),
        "table5" => table5(),
        "fig7" => fig7(scale),
        "fig8" => fig8(scale),
        "fig9" => fig9(),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "fig12a" => fig12a(scale),
        "fig12b" => fig12b(scale),
        "fig12c" => fig12c(scale),
        "fig13" => fig13(scale),
        "ablations" => ablations_artefact(),
        "ext_pumice" => ext_pumice(scale),
        _ => return None,
    })
}

/// The help message for a name `render` rejects: a nearest-name
/// suggestion (the registry's shared edit-distance policy, so
/// `reproduce --only` and the serve error replies behave the same on
/// typos) plus the sorted vocabulary.
pub fn unknown_artefact_message(name: &str) -> String {
    mve_kernels::registry::unknown_name_message("artefact", name, NAMES.to_vec())
}

/// The full registry, ready to inject into `mve_serve::Server`.
pub fn registry() -> ArtefactRegistry {
    ArtefactRegistry::new(
        NAMES
            .iter()
            .map(|&name| {
                let f: ArtefactFn = std::sync::Arc::new(move |scale| {
                    render(name, scale).expect("registered artefact")
                });
                (name, f)
            })
            .collect(),
    )
}

fn table1() -> String {
    let mut s = String::new();
    w!(s, "Table I — Vector ISA Extension Comparison");
    w!(
        s,
        "{:<18} {:<12} {:<14} {:<30} {:<28}",
        "ISA",
        "Max VL",
        "Strided",
        "Random Access",
        "Masked Execution"
    );
    for r in tables::table1() {
        w!(
            s,
            "{:<18} {:<12} {:<14} {:<30} {:<28}",
            r.name,
            r.max_vector_length,
            r.strided_access,
            r.random_access,
            r.masked_execution
        );
    }
    s
}

fn table2() -> String {
    let mut s = String::new();
    w!(
        s,
        "Table II — MVE Instructions (bit-serial latency in cycles)"
    );
    w!(
        s,
        "{:<14} {:<14} {:>6} {:>6} {:>8} {:>8}",
        "Class",
        "Assembly",
        "n=8",
        "n=16",
        "n=32",
        "n=64"
    );
    for r in tables::table2() {
        match r.latency {
            Some(l) => w!(
                s,
                "{:<14} {:<14} {:>6} {:>6} {:>8} {:>8}",
                r.class,
                r.assembly,
                l[0],
                l[1],
                l[2],
                l[3]
            ),
            None => w!(s, "{:<14} {:<14} {:>6}", r.class, r.assembly, "-"),
        }
    }
    s
}

fn table3() -> String {
    let mut s = String::new();
    w!(s, "Table III — Evaluated Libraries");
    w!(
        s,
        "{:<26} {:<14} {:>8} {:<16} {:<6}",
        "Domain",
        "Library",
        "#Kernels",
        "Dataset",
        "Dim"
    );
    let rows = tables::table3();
    for r in &rows {
        w!(
            s,
            "{:<26} {:<14} {:>8} {:<16} {:<6}",
            r.domain,
            r.library,
            r.kernels,
            r.dataset,
            r.dims
        );
    }
    w!(
        s,
        "Total kernels: {}",
        rows.iter().map(|r| r.kernels).sum::<usize>()
    );
    s
}

fn table4() -> String {
    let mut s = String::new();
    w!(
        s,
        "Table IV — Platform Configuration (Snapdragon 855 class)"
    );
    for r in platform::table4_rows() {
        w!(s, "{:<14} {}", r.component, r.detail);
    }
    s
}

fn table5() -> String {
    let mut s = String::new();
    w!(
        s,
        "Table V — Overhead to the scalar core area ({CORE_AREA_MM2} mm2)"
    );
    w!(
        s,
        "{:<18} {:<8} {:>12} {:>12}",
        "Module",
        "Source",
        "Area (mm2)",
        "Overhead %"
    );
    w!(
        s,
        "{:<18} {:<8} {:>12.4} {:>12.3}",
        "Arm Neon",
        "[21]",
        NEON_AREA_MM2,
        NEON_AREA_MM2 / CORE_AREA_MM2 * 100.0
    );
    let (rows, total, _) = tables::table5();
    for r in &rows {
        w!(
            s,
            "{:<18} {:<8} {:>12.4} {:>12.3}",
            r.module,
            r.source,
            r.area_mm2,
            r.overhead_pct
        );
    }
    w!(
        s,
        "{:<18} {:<8} {:>12.4} {:>12.3}",
        "MVE Total",
        "-",
        total,
        total / CORE_AREA_MM2 * 100.0
    );
    w!(
        s,
        "{:<18} {:<8} {:>12.4} {:>12}",
        "Adreno 640 GPU",
        "[41]",
        GPU_AREA_MM2,
        "-"
    );
    s
}

fn fig7(scale: Scale) -> String {
    let mut s = String::new();
    let (rows, avg) = figures::fig7(scale);
    w!(
        s,
        "Figure 7(a) — MVE/Neon execution time (%), breakdown of MVE time"
    );
    w!(
        s,
        "{:<14} {:>10} {:>8} {:>9} {:>7}",
        "Library",
        "Time %",
        "Idle",
        "Compute",
        "Data"
    );
    for r in &rows {
        w!(
            s,
            "{:<14} {:>10} {:>8} {:>9} {:>7}",
            r.library.name(),
            pct(r.time_frac),
            pct(r.breakdown.0),
            pct(r.breakdown.1),
            pct(r.breakdown.2)
        );
    }
    w!(
        s,
        "{:<14} {:>10}   (paper: 34.5% => 2.9x speedup)",
        "Average",
        pct(avg.time_frac)
    );
    w!(s, "  measured speedup: {:.2}x", 1.0 / avg.time_frac);

    w!(s);
    w!(s, "Figure 7(b) — MVE/Neon energy (%)");
    w!(
        s,
        "{:<14} {:>10} {:>9} {:>8} {:>7}",
        "Library",
        "Energy %",
        "Compute",
        "Data",
        "CPU"
    );
    for r in &rows {
        w!(
            s,
            "{:<14} {:>10} {:>9} {:>8} {:>7}",
            r.library.name(),
            pct(r.energy_frac),
            pct(r.energy_split.0),
            pct(r.energy_split.1),
            pct(r.energy_split.2)
        );
    }
    w!(
        s,
        "{:<14} {:>10}   (paper: 11.4% => 8.8x reduction)",
        "Average",
        pct(avg.energy_frac)
    );
    w!(s, "  measured reduction: {:.2}x", 1.0 / avg.energy_frac);
    s
}

fn fig8(scale: Scale) -> String {
    let mut s = String::new();
    let rows = figures::fig8(scale);
    w!(s, "Figure 8 — GPU/MVE normalized execution time and energy");
    w!(
        s,
        "{:<8} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "Kernel",
        "GPU exec us",
        "GPU xfer us",
        "MVE us",
        "Time x",
        "Energy x"
    );
    let mut time_ratios = Vec::new();
    let mut energy_ratios = Vec::new();
    for r in &rows {
        w!(
            s,
            "{:<8} {:>12.1} {:>12.1} {:>10.1} {:>10.2} {:>10.2}",
            r.name,
            r.gpu_kernel_us,
            r.gpu_transfer_us,
            r.mve_us,
            r.time_ratio,
            r.energy_ratio
        );
        time_ratios.push(r.time_ratio);
        energy_ratios.push(r.energy_ratio);
    }
    w!(
        s,
        "AVG time {:.2}x (paper 9.3x)   energy {:.2}x (paper 5.2x)",
        crate::geomean(&time_ratios),
        crate::geomean(&energy_ratios)
    );
    s
}

fn fig9() -> String {
    let mut s = String::new();
    for (name, rows, paper) in [
        ("GEMM", figures::fig9_gemm(), 6.0e6),
        ("SpMM", figures::fig9_spmm(), 4.6e6),
    ] {
        w!(s, "Figure 9 — {name} execution time vs FLOPs");
        w!(s, "{:>12} {:>12} {:>12}", "FLOPs", "GPU us", "MVE us");
        for r in &rows {
            w!(s, "{:>12} {:>12.1} {:>12.1}", r.flops, r.gpu_us, r.mve_us);
        }
        match figures::crossover_flops(&rows) {
            Some(x) => w!(
                s,
                "crossover at {:.2}M FLOPs (paper ~{:.1}M)",
                x / 1e6,
                paper / 1e6
            ),
            None => w!(
                s,
                "MVE wins across the sweep (paper crossover ~{:.1}M)",
                paper / 1e6
            ),
        }
        w!(s);
    }
    s
}

fn fig10(scale: Scale) -> String {
    let mut s = String::new();
    let rows = figures::fig10_11(scale);
    w!(
        s,
        "Figure 10 — MVE vs RVV execution time (normalized to RVV)"
    );
    w!(
        s,
        "{:<8} {:>8} {:>8} {:>9} {:>7} | {:>8} {:>9} {:>7}",
        "Kernel",
        "MVE/RVV",
        "m.idle",
        "m.comp",
        "m.data",
        "r.idle",
        "r.comp",
        "r.data"
    );
    let mut ratios = Vec::new();
    for r in &rows {
        let frac = r.mve.total_cycles as f64 / r.rvv.total_cycles as f64;
        ratios.push(1.0 / frac);
        let (mi, mc, md) = r.mve.breakdown();
        let (ri, rc, rd) = r.rvv.breakdown();
        w!(
            s,
            "{:<8} {:>8} {:>8} {:>9} {:>7} | {:>8} {:>9} {:>7}",
            r.name,
            pct(frac),
            pct(mi),
            pct(mc),
            pct(md),
            pct(ri),
            pct(rc),
            pct(rd)
        );
    }
    w!(
        s,
        "AVG speedup {:.2}x (paper 2.0x)",
        crate::geomean(&ratios)
    );
    s
}

fn fig11(scale: Scale) -> String {
    let mut s = String::new();
    let rows = figures::fig10_11(scale);
    w!(
        s,
        "Figure 11 — dynamic instruction mix (vector) and scalar counts"
    );
    w!(
        s,
        "{:<8} {:<4} {:>8} {:>6} {:>6} {:>7} {:>9} | {:>9}",
        "Kernel",
        "ISA",
        "Config",
        "Move",
        "Mem",
        "Arith",
        "VecTotal",
        "Scalar"
    );
    let mut vec_ratio = Vec::new();
    let mut sca_ratio = Vec::new();
    for r in &rows {
        for (isa, m) in [("MVE", &r.mve_mix), ("RVV", &r.rvv_mix)] {
            w!(
                s,
                "{:<8} {:<4} {:>8} {:>6} {:>6} {:>7} {:>9} | {:>9}",
                r.name,
                isa,
                m.config,
                m.moves,
                m.mem_access,
                m.arithmetic,
                m.vector_total(),
                m.scalar
            );
        }
        vec_ratio.push(r.rvv_mix.vector_total() as f64 / r.mve_mix.vector_total().max(1) as f64);
        sca_ratio.push(r.rvv_mix.scalar as f64 / r.mve_mix.scalar.max(1) as f64);
    }
    w!(
        s,
        "AVG: RVV/MVE vector instrs {:.2}x (paper 2.3x), scalar instrs {:.2}x (paper 2.0x)",
        crate::geomean(&vec_ratio),
        crate::geomean(&sca_ratio)
    );
    s
}

fn fig12a(scale: Scale) -> String {
    let mut s = String::new();
    let rows = figures::fig12a(scale);
    w!(
        s,
        "Figure 12(a) — Duality Cache (SIMT) vs MVE execution breakdown"
    );
    w!(
        s,
        "{:<8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "Kernel",
        "DC ctrl",
        "DC addr",
        "DC arith",
        "DC data",
        "DC total",
        "DC/MVE"
    );
    let mut ratios = Vec::new();
    for r in &rows {
        let ratio = r.dc.total_cycles() as f64 / r.mve.total_cycles as f64;
        ratios.push(ratio);
        w!(
            s,
            "{:<8} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8.2}",
            r.name,
            r.dc.control_cycles,
            r.dc.addr_cycles,
            r.dc.arith_cycles,
            r.dc.data_cycles,
            r.dc.total_cycles(),
            ratio
        );
    }
    w!(s, "AVG DC/MVE {:.2}x (paper 1.5x)", crate::geomean(&ratios));
    s
}

fn fig12b(scale: Scale) -> String {
    use std::collections::BTreeMap;
    let mut s = String::new();
    let rows = figures::fig12b(scale);
    w!(
        s,
        "Figure 12(b) — execution time normalized to 8 SRAM arrays"
    );
    let mut by_kernel: BTreeMap<&str, BTreeMap<usize, u64>> = BTreeMap::new();
    for r in &rows {
        by_kernel
            .entry(r.name)
            .or_default()
            .insert(r.arrays, r.cycles);
    }
    w!(
        s,
        "{:<8} {:>8} {:>8} {:>8} {:>8}",
        "Kernel",
        "8",
        "16",
        "32",
        "64"
    );
    for (name, cols) in &by_kernel {
        let base = cols[&8] as f64;
        w!(
            s,
            "{:<8} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            name,
            1.0,
            base / cols[&16] as f64,
            base / cols[&32] as f64,
            base / cols[&64] as f64,
        );
    }
    w!(
        s,
        "(paper: 8x more arrays gives 3.0x (SpMM) to 6.7x (FIR-L) speedup)"
    );
    s
}

fn fig12c(scale: Scale) -> String {
    use std::collections::BTreeMap;
    let mut s = String::new();
    let rows = figures::fig12c(scale);
    w!(
        s,
        "Figure 12(c) — execution time normalized to F32, and Neon/MVE speedup"
    );
    w!(
        s,
        "{:<8} {:<5} {:>9} {:>8} {:>9} {:>7} {:>10}",
        "Kernel",
        "Prec",
        "Time/F32",
        "Idle",
        "Compute",
        "Data",
        "Neon/MVE"
    );
    let mut f32_base: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &rows {
        if r.precision.label() == "F32" {
            f32_base.insert(r.name, r.report.total_cycles);
        }
    }
    for r in &rows {
        let base = f32_base[r.name] as f64;
        let (i, c, d) = r.report.breakdown();
        w!(
            s,
            "{:<8} {:<5} {:>9.3} {:>8} {:>9} {:>7} {:>10.2}",
            r.name,
            r.precision.label(),
            r.report.total_cycles as f64 / base,
            pct(i),
            pct(c),
            pct(d),
            r.neon_cycles as f64 / r.report.total_cycles as f64
        );
    }
    w!(
        s,
        "(paper: lower precision helps MVE quadratically, Neon only linearly)"
    );
    s
}

fn fig13(scale: Scale) -> String {
    let mut s = String::new();
    let rows = figures::fig13(scale);
    w!(s, "Figure 13 — MVE speedup over RVV per in-SRAM scheme");
    w!(
        s,
        "{:<6} {:>9} {:>10} {:>10} | MVE breakdown (idle/comp/data)",
        "Scheme",
        "Speedup",
        "MVE util",
        "RVV util"
    );
    for r in &rows {
        let (i, c, d) = r.mve_breakdown;
        w!(
            s,
            "{:<6} {:>8.2}x {:>10} {:>10} | {} {} {}",
            r.scheme.short_name(),
            r.speedup,
            pct(r.mve_util),
            pct(r.rvv_util),
            pct(i),
            pct(c),
            pct(d)
        );
    }
    w!(
        s,
        "(paper: BS 3.8x, BH 2.8x, BP 1.8x, AC 1.2x; BS util 23% -> 60%)"
    );
    s
}

fn ablations_artefact() -> String {
    let mut s = String::new();
    let m = ablations::mask_ablation();
    w!(
        s,
        "Ablation 1 — dimension-level masking vs predicate emulation"
    );
    w!(
        s,
        "  dim-level: {} cycles / {} vec instrs;  predicate: {} cycles / {} vec instrs  ({:.1}x win)",
        m.dim_level_cycles,
        m.dim_level_instrs,
        m.predicate_cycles,
        m.predicate_instrs,
        m.predicate_cycles as f64 / m.dim_level_cycles as f64
    );

    let st = ablations::stride_ablation();
    w!(s, "Ablation 2 — 2-bit stride modes vs CR-only strides");
    w!(
        s,
        "  modes: {} config instrs / {} cycles;  CR-only: {} config instrs / {} cycles",
        st.mode_config_instrs,
        st.mode_cycles,
        st.cr_config_instrs,
        st.cr_cycles
    );

    w!(s, "Ablation 3 — control-block granularity (arrays per FSM)");
    w!(
        s,
        "{:>12} {:>14} {:>10}",
        "arrays/CB",
        "FSM area mm2",
        "cycles"
    );
    for r in ablations::cb_ablation() {
        w!(
            s,
            "{:>12} {:>14.4} {:>10}",
            r.arrays_per_cb,
            r.fsm_area_mm2,
            r.cycles
        );
    }

    let f = ablations::flush_ablation();
    w!(s, "Ablation 4 — compute-mode switch flush cost");
    w!(
        s,
        "  flush {} cycles vs kernel {} cycles = {:.2}% (paper: < 2%)",
        f.flush_cycles,
        f.kernel_cycles,
        f.overhead() * 100.0
    );
    s
}

fn ext_pumice(scale: Scale) -> String {
    figures::ext_pumice_report(scale, &selected_kernels())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_cover_the_smoke_set_and_render_resolves_them() {
        assert_eq!(NAMES.len(), 16);
        // Cheap artefacts render non-empty, newline-terminated text.
        for name in ["table1", "table2", "table3", "table4", "table5"] {
            let text = render(name, Scale::Test).expect(name);
            assert!(text.ends_with('\n'), "{name} must end with a newline");
            assert!(text.lines().count() >= 3, "{name} looks truncated");
        }
        assert!(render("fig99", Scale::Test).is_none());
        let msg = unknown_artefact_message("fig99");
        assert!(msg.contains("unknown artefact `fig99`"));
        assert!(msg.contains("ablations, ext_pumice, fig10"), "{msg}");
    }

    #[test]
    fn registry_matches_the_name_list() {
        let reg = registry();
        assert_eq!(reg.names(), NAMES.to_vec());
        let table4_direct = render("table4", Scale::Test).unwrap();
        let via_registry = (reg.get("table4").expect("registered"))(Scale::Test);
        assert_eq!(table4_direct, via_registry);
    }
}
