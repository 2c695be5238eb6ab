//! Duality Cache SIMT cost model (Figure 12(a)).
//!
//! Duality Cache executes CUDA/PTX kernels on the in-SRAM engine under a
//! SIMT model: *every* operation — control flow, address calculation,
//! arithmetic — is performed in-SRAM by all lanes, and all scalar and vector
//! variables live in the scarce in-cache physical registers. Section VII-C
//! attributes MVE's 1.5× advantage to two effects, both modelled here:
//!
//! 1. **More in-SRAM operations**: MVE runs control flow and base-address
//!    arithmetic once on the scalar core and generates per-lane addresses in
//!    the controller, while the SIMT model burns engine cycles on them. We
//!    charge per memory access a configurable number of in-SRAM 32-bit
//!    address ops, and per loop iteration a compare + increment.
//! 2. **Register spills/fills**: the SIMT model keeps everything in in-cache
//!    registers, so data access time inflates (the paper measures 1.6×).
//!
//! In exchange, the SIMT model has essentially no idle time — the engine is
//! always the one doing the work — which is why it wins on server-class
//! caches but loses on latency-sensitive mobile kernels.

use mve_core::sim::SimReport;
use mve_core::trace::{InstrMix, Trace};
use mve_insram::{AluOp, LatencyModel};

/// Duality-Cache model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualityConfig {
    /// In-SRAM 32-bit integer ops charged per vector memory access for
    /// per-lane address calculation (base + scaled index; PTX typically
    /// needs 2–4).
    pub addr_ops_per_access: u64,
    /// In-SRAM ops charged per loop iteration for control flow (loop
    /// counter add + predicate compare).
    pub control_ops_per_iter: u64,
    /// Spill/fill inflation of data-access time (Section VII-C: 1.6×).
    pub spill_inflation: f64,
}

impl Default for DualityConfig {
    fn default() -> Self {
        Self {
            addr_ops_per_access: 3,
            control_ops_per_iter: 2,
            spill_inflation: 1.6,
        }
    }
}

/// Execution-time breakdown of the SIMT model, in core cycles — the four
/// buckets of Figure 12(a).
#[derive(Debug, Clone, Copy, Default)]
pub struct DualityReport {
    /// In-SRAM control-flow cycles.
    pub control_cycles: u64,
    /// In-SRAM address-calculation cycles.
    pub addr_cycles: u64,
    /// Arithmetic cycles (same work as MVE's compute).
    pub arith_cycles: u64,
    /// Data access incl. spills/fills.
    pub data_cycles: u64,
}

impl DualityReport {
    /// Total execution time (the SIMT engine pipeline has no idle bucket).
    pub fn total_cycles(&self) -> u64 {
        self.control_cycles + self.addr_cycles + self.arith_cycles + self.data_cycles
    }
}

/// Derives the Duality-Cache cost from an MVE run of the same kernel.
///
/// The kernel's arithmetic and data footprint are identical; the SIMT model
/// adds in-SRAM overhead ops (counted from the trace's memory accesses and
/// loop structure) and inflates data access by the spill factor.
pub fn duality_from_mve(trace: &Trace, mve: &SimReport, cfg: &DualityConfig) -> DualityReport {
    duality_from_mix(&trace.instr_mix(), mve, cfg)
}

/// [`duality_from_mve`] from the run's instruction mix alone, which is all
/// of the trace the model reads.
pub fn duality_from_mix(mix: &InstrMix, mve: &SimReport, cfg: &DualityConfig) -> DualityReport {
    let lat = LatencyModel::BitSerial;
    let add32 = lat.op_latency(AluOp::Add, 32);
    let cmp32 = lat.op_latency(AluOp::Cmp, 32);

    // Loop iterations approximated by vector instruction count: the SIMT
    // kernel re-executes its loop preamble per vector step.
    let iters = mix.vector_total().max(1);
    let control_cycles = iters * cfg.control_ops_per_iter * cmp32;
    let addr_cycles = mix.mem_access * cfg.addr_ops_per_access * add32;
    let arith_cycles = mve.compute_cycles;
    let data_cycles = (mve.data_cycles as f64 * cfg.spill_inflation) as u64;

    DualityReport {
        control_cycles,
        addr_cycles,
        arith_cycles,
        data_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mve_core::engine::Engine;
    use mve_core::isa::StrideMode;
    use mve_core::sim::{simulate, SimConfig};

    fn kernel_run(loads: usize, muls: usize) -> (Trace, SimReport) {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, 8192);
        let a = e.mem_alloc_typed::<i32>(8192);
        let mut v = e.vsld_dw(a, &[StrideMode::One]);
        for _ in 1..loads {
            e.free(v);
            v = e.vsld_dw(a, &[StrideMode::One]);
        }
        e.scalar(32);
        for _ in 0..muls {
            let p = e.vmul_dw(v, v);
            e.free(p);
        }
        let trace = e.take_trace();
        let report = simulate(&trace, &SimConfig::default().without_mode_switch());
        (trace, report)
    }

    #[test]
    fn simt_inflates_data_access() {
        let (trace, mve) = kernel_run(8, 4);
        let dc = duality_from_mve(&trace, &mve, &DualityConfig::default());
        assert!(
            dc.data_cycles as f64 >= 1.5 * mve.data_cycles as f64,
            "spills must inflate data access"
        );
        assert_eq!(dc.arith_cycles, mve.compute_cycles);
    }

    #[test]
    fn simt_charges_overhead_ops() {
        let (trace, mve) = kernel_run(8, 1);
        let dc = duality_from_mve(&trace, &mve, &DualityConfig::default());
        assert!(dc.addr_cycles > 0);
        assert!(dc.control_cycles > 0);
        // 8 loads × 3 addr ops × 32 cycles.
        assert_eq!(dc.addr_cycles, (8 + 1) * 3 * 32 - 3 * 32); // 8 loads only
        let _ = mve;
    }

    #[test]
    fn mobile_kernels_prefer_mve() {
        // A memory-heavy kernel with modest compute: the SIMT model's spill
        // inflation plus overhead ops should make it slower overall —
        // Figure 12(a)'s average is DC/MVE ≈ 1.5×.
        let (trace, mve) = kernel_run(16, 2);
        let dc = duality_from_mve(&trace, &mve, &DualityConfig::default());
        let ratio = dc.total_cycles() as f64 / mve.total_cycles as f64;
        assert!(ratio > 1.0, "DC/MVE ratio {ratio} should exceed 1");
    }
}
