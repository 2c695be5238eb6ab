//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (Section VII). Each figure has one function here returning
//! typed rows; `reproduce` and the `serve` daemon render them through
//! [`artefacts`].
//!
//! | Entry point | Paper artefact |
//! |---|---|
//! | [`tables::table1`]   | Table I — ISA feature comparison |
//! | [`tables::table2`]   | Table II — MVE instructions + BS latency |
//! | [`tables::table3`]   | Table III — evaluated libraries |
//! | [`tables::table4`]   | Table IV — platform configuration |
//! | [`tables::table5`]   | Table V — area overhead |
//! | [`figures::fig7`]    | Figure 7 — MVE vs Neon time & energy |
//! | [`figures::fig8`]    | Figure 8 — MVE vs GPU per kernel |
//! | [`figures::fig9_gemm`] / [`figures::fig9_spmm`] | Figure 9 — crossover sweeps |
//! | [`figures::fig10_11`] | Figures 10/11 — MVE vs RVV time + instruction mix |
//! | [`figures::fig12a`]  | Figure 12(a) — vs Duality Cache SIMT |
//! | [`figures::fig12b`]  | Figure 12(b) — SRAM-array scalability |
//! | [`figures::fig12c`]  | Figure 12(c) — precision sensitivity |
//! | [`figures::fig13`]   | Figure 13 — in-SRAM schemes × ISA |
//! | [`ablations`]        | design-choice ablations called out in DESIGN.md |

pub mod ablations;
pub mod artefacts;
pub mod cli;
pub mod dslcorpus;
pub mod figures;
pub mod perf;
pub mod platform;
pub mod profiling;
pub mod tables;

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// Geometric mean of a nonempty slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
