//! Per-event energy constants (7 nm, picojoules).
//!
//! Sources and calibration:
//!
//! * In-SRAM op energy follows Neural Cache's observation that a bit-serial
//!   op cycle costs roughly one array access (two word-line activations +
//!   bit-line swing on 256 columns). CACTI-class numbers for an 8 KB array
//!   at 7 nm put one access around 4–8 pJ; we use 6 pJ per active array per
//!   engine cycle (`CALIBRATED`).
//! * Cache line energies are CACTI-6.0-style values scaled to 7 nm with the
//!   Stillmaker–Baas equations the paper also uses: ~25 pJ per 64 B L2 line,
//!   ~60 pJ LLC, ~2.5 nJ per 64 B of LPDDR4X (≈ 40 pJ/bit including PHY).
//! * CPU energies target an A76-class core at 2.8 GHz burning ~0.75 W at
//!   IPC 3: ~90 pJ per scalar instruction including its share of fetch/
//!   decode/bypass. A 128-bit Neon µop costs ~2.2× a scalar op. It was
//!   `CALIBRATED` to reproduce Figure 7(b)'s 8.8× average energy reduction
//!   together with the instruction-count reduction, but that calibration
//!   is stale: the model now gives 3.40× (MVE at 29.4% of Neon's energy
//!   against the paper's 11.4%). ROADMAP item 1's claims ledger is where
//!   that gap gets tracked; the value stays until a documented source
//!   replaces it.

/// Per-event energies in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// One active SRAM array for one engine cycle (bit-serial op slice).
    pub e_array_cycle_pj: f64,
    /// One element moved through TMU + crossbar.
    pub e_tmu_element_pj: f64,
    /// One 64 B line read/written in the L2 (regular half).
    pub e_l2_line_pj: f64,
    /// One 64 B line from the LLC.
    pub e_llc_line_pj: f64,
    /// One 64 B line from DRAM.
    pub e_dram_line_pj: f64,
    /// One retired scalar instruction.
    pub e_scalar_instr_pj: f64,
    /// Issuing one MVE instruction core→controller.
    pub e_vec_issue_pj: f64,
    /// One 128-bit Neon compute µop.
    pub e_neon_op_pj: f64,
    /// One 128-bit Neon load/store (L1 access included).
    pub e_neon_mem_pj: f64,
    /// Background core power while actively running SIMD code, pJ/cycle
    /// (≈0.7 W at 2.8 GHz: clock tree, fetch, rename, L1 activity — what
    /// Batterystats attributes to the busy core).
    pub e_core_active_pj_per_cycle: f64,
    /// Background core power while the core mostly waits on the in-cache
    /// engine (issue loop + MVE controller), pJ/cycle.
    pub e_core_wait_pj_per_cycle: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self {
            e_array_cycle_pj: 6.0,
            e_tmu_element_pj: 1.2,
            e_l2_line_pj: 25.0,
            e_llc_line_pj: 60.0,
            e_dram_line_pj: 2500.0,
            e_scalar_instr_pj: 90.0,
            e_vec_issue_pj: 30.0,
            e_neon_op_pj: 200.0,
            e_neon_mem_pj: 140.0,
            e_core_active_pj_per_cycle: 250.0,
            e_core_wait_pj_per_cycle: 60.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_of_magnitudes() {
        let p = EnergyParams::default();
        // DRAM per line dwarfs SRAM per line.
        assert!(p.e_dram_line_pj > 10.0 * p.e_llc_line_pj);
        assert!(p.e_llc_line_pj > p.e_l2_line_pj);
        // A Neon op costs more than a scalar op; an in-SRAM array-cycle is
        // far cheaper per lane (6 pJ / 256 lanes vs 200 pJ / 4 lanes).
        assert!(p.e_neon_op_pj > p.e_scalar_instr_pj);
        let per_lane_insram = p.e_array_cycle_pj / 256.0;
        let per_lane_neon = p.e_neon_op_pj / 4.0;
        assert!(per_lane_neon > 100.0 * per_lane_insram);
    }
}
