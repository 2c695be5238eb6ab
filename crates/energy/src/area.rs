//! The Table V area model (7 nm, mm²).
//!
//! Per-module areas are expressed as per-unit constants times the quantity
//! implied by the engine geometry, calibrated so that the paper's default
//! configuration (32 arrays, 8 CBs, 46 MSHRs) reproduces Table V exactly:
//!
//! | Module          | Paper source | Area (mm²) |
//! |-----------------|--------------|------------|
//! | Controller      | RTL          | 0.0043     |
//! | MSHR            | CACTI        | 0.0018     |
//! | TMU             | \[31\]       | 0.0053     |
//! | XB              | \[35\]       | 0.0039     |
//! | FSM             | \[35\]       | 0.0123     |
//! | Peripheral      | \[35\]       | 0.0063     |
//! | Address Decoder | RTL          | 0.0042     |
//! | **Total**       |              | **0.0382** |
//!
//! against a 1.07 mm² Cortex-A76-class scalar core, i.e. a 3.59% overhead —
//! versus 16.3% for the 2×128-bit Neon unit and 11.19 mm² for the Adreno
//! 640 GPU.

use mve_insram::scheme::EngineGeometry;

/// Scalar core area at 7 nm (Kirin 990 die shot, Table V heading).
pub const CORE_AREA_MM2: f64 = 1.07;
/// Arm Neon 2×128-bit unit area (Ara-derived estimate, Table V).
pub const NEON_AREA_MM2: f64 = 0.1741;
/// Adreno 640 GPU area (die shot, Table V).
pub const GPU_AREA_MM2: f64 = 11.1908;

/// One row of Table V.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaRow {
    /// Module name.
    pub module: &'static str,
    /// Where the paper took the number from.
    pub source: &'static str,
    /// Area in mm² at 7 nm.
    pub area_mm2: f64,
    /// Overhead relative to the scalar core, percent.
    pub overhead_pct: f64,
}

/// Per-unit area constants (mm², 7 nm), calibrated to Table V at the
/// default geometry.
mod unit {
    /// Controller: fixed block (instruction queue, CR file, sequencing).
    pub const CONTROLLER: f64 = 0.0043;
    /// Per MSHR entry (Table V: 46 entries → 0.0018).
    pub const MSHR_ENTRY: f64 = 0.0018 / 46.0;
    /// Per CB TMU (1024×32 8T cells; 8 CBs → 0.0053).
    pub const TMU_PER_CB: f64 = 0.0053 / 8.0;
    /// Per CB crossbar (8 CBs → 0.0039).
    pub const XB_PER_CB: f64 = 0.0039 / 8.0;
    /// Per CB FSM (8 FSMs → 0.0123).
    pub const FSM_PER_CB: f64 = 0.0123 / 8.0;
    /// Per compute-enabled array's bit-line peripheral (32 → 0.0063).
    pub const PERIPHERAL_PER_ARRAY: f64 = 0.0063 / 32.0;
    /// LSQ address decoder: fixed block.
    pub const ADDRESS_DECODER: f64 = 0.0042;
}

/// Builds the Table V rows for a given geometry and MSHR count.
pub fn area_table(geometry: &EngineGeometry, mshrs: usize) -> Vec<AreaRow> {
    let cbs = geometry.control_blocks() as f64;
    let arrays = geometry.arrays as f64;
    let rows = vec![
        ("Controller", "RTL", unit::CONTROLLER),
        ("MSHR", "CACTI", unit::MSHR_ENTRY * mshrs as f64),
        ("TMU", "[31]", unit::TMU_PER_CB * cbs),
        ("XB", "[35]", unit::XB_PER_CB * cbs),
        ("FSM", "[35]", unit::FSM_PER_CB * cbs),
        ("Peripheral", "[35]", unit::PERIPHERAL_PER_ARRAY * arrays),
        ("Address Decoder", "RTL", unit::ADDRESS_DECODER),
    ];
    rows.into_iter()
        .map(|(module, source, area_mm2)| AreaRow {
            module,
            source,
            area_mm2,
            overhead_pct: area_mm2 / CORE_AREA_MM2 * 100.0,
        })
        .collect()
}

/// Total MVE area for a geometry.
pub fn total_area_mm2(geometry: &EngineGeometry, mshrs: usize) -> f64 {
    area_table(geometry, mshrs).iter().map(|r| r.area_mm2).sum()
}

/// Total MVE overhead relative to the scalar core, percent.
pub fn total_overhead_pct(geometry: &EngineGeometry, mshrs: usize) -> f64 {
    total_area_mm2(geometry, mshrs) / CORE_AREA_MM2 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_reproduces_table_v() {
        let g = EngineGeometry::default();
        let total = total_area_mm2(&g, 46);
        assert!((total - 0.0382).abs() < 5e-4, "total {total} ≠ 0.0382");
        let pct = total_overhead_pct(&g, 46);
        assert!((pct - 3.588).abs() < 0.05, "overhead {pct}% ≠ 3.588%");
    }

    #[test]
    fn rows_match_paper_values() {
        let rows = area_table(&EngineGeometry::default(), 46);
        let get = |m: &str| rows.iter().find(|r| r.module == m).expect("row").area_mm2;
        assert!((get("Controller") - 0.0043).abs() < 1e-6);
        assert!((get("MSHR") - 0.0018).abs() < 1e-6);
        assert!((get("TMU") - 0.0053).abs() < 1e-6);
        assert!((get("XB") - 0.0039).abs() < 1e-6);
        assert!((get("FSM") - 0.0123).abs() < 1e-6);
        assert!((get("Peripheral") - 0.0063).abs() < 1e-6);
        assert!((get("Address Decoder") - 0.0042).abs() < 1e-6);
    }

    #[test]
    fn area_scales_with_geometry() {
        let small = total_area_mm2(&EngineGeometry::with_arrays(8), 46);
        let big = total_area_mm2(&EngineGeometry::with_arrays(64), 46);
        assert!(big > small);
        // Fixed blocks (controller, address decoder) do not scale.
        assert!(big < 4.0 * small);
    }

    #[test]
    fn mve_is_far_cheaper_than_neon_and_gpu() {
        let mve = total_area_mm2(&EngineGeometry::default(), 46);
        assert!(NEON_AREA_MM2 > 4.0 * mve);
        assert!(GPU_AREA_MM2 > 100.0 * mve);
    }
}
