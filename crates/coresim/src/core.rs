//! Scalar-core issue model (Section V-A).
//!
//! MVE instructions are fetched/decoded by the core, pushed to the ROB and
//! LSQ, and issued to the L2 **in program order at the head of the ROB** —
//! there is no speculative or out-of-order issue of MVE instructions. Scalar
//! instructions between them retire at the core's sustained IPC.
//!
//! The paper also parks MVE stores in a write buffer and stalls a younger
//! scalar load whose address falls inside a parked store's range (the LSQ
//! Address Decoder of Equation 2). That stall is not modelled: a trace's
//! scalar blocks carry an instruction count but no addresses, so the timing
//! simulator has no load to check against a store's range (see DESIGN.md,
//! substitution table).

/// Cortex-A76-class core parameters (Table IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Clock frequency in GHz; all simulator times are cycles of this clock.
    pub freq_ghz: f64,
    /// Decode/issue width.
    pub issue_width: u32,
    /// Reorder-buffer capacity.
    pub rob_entries: u32,
    /// Sustained scalar IPC on the data-parallel kernels' glue code.
    ///
    /// CALIBRATED: 3.0 of the 4-wide machine; loop-control and address
    /// arithmetic on an A76-class core sustains close to its width.
    pub scalar_ipc: f64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            freq_ghz: 2.8,
            issue_width: 4,
            rob_entries: 128,
            scalar_ipc: 3.0,
        }
    }
}

impl CoreConfig {
    /// Cycles for a block of `instrs` scalar instructions to retire.
    pub fn scalar_block_cycles(&self, instrs: u64) -> u64 {
        (instrs as f64 / self.scalar_ipc).ceil() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_block_retires_at_ipc() {
        let cfg = CoreConfig::default();
        assert_eq!(cfg.scalar_block_cycles(30), 10);
        assert_eq!(cfg.scalar_block_cycles(1), 1);
        assert_eq!(cfg.scalar_block_cycles(0), 0);
    }
}
