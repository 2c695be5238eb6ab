//! Arm-Neon-class packed-SIMD baseline model.
//!
//! Table IV: the baseline core has **2 × 128-bit Advanced SIMD units** (plus
//! crypto and FP16 extensions). Kernels describe their dynamic instruction
//! mix as a [`NeonProfile`]; [`NeonModel::execute`] converts the profile into
//! cycles against the shared [`mve_memsim::Hierarchy`].
//!
//! The timing model is a standard throughput/latency bound for a well-fed
//! out-of-order machine:
//!
//! * **issue bound** — total 128-bit µops over 2 pipes;
//! * **dependency bound** — the profile's longest dependence chain times the
//!   per-class result latency (A76-class: 2 cycles simple, 4 cycles
//!   multiply/MAC, 2/3/4 for FP add/mul/MAC);
//! * **scalar bound** — interleaved scalar instructions at the core's IPC;
//! * **memory** — 2 load/store ports of 16 B each; line misses walk the
//!   hierarchy, with overlap capped by the L1 MSHRs.
//!
//! The final cycle count is `max(bounds) + exposed-miss stalls`, a model
//! shape that matches how the paper's Neon baselines were measured (real
//! silicon, fully pipelined).

use mve_memsim::{Hierarchy, HierarchyConfig};

use crate::core::CoreConfig;

/// Classes of 128-bit Neon operations, each with its own result latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeonOpClass {
    /// Integer add/sub/logic/compare/min/max.
    IntSimple,
    /// Integer multiply / multiply-accumulate.
    IntMul,
    /// Shifts and immediate shifts.
    Shift,
    /// Floating-point add/sub.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Fused multiply-accumulate.
    FpMac,
    /// Permutes, zips, table lookups, widen/narrow.
    Permute,
    /// Cross-lane reductions (ADDV-class); also serialising.
    Reduce,
}

impl NeonOpClass {
    /// Result latency in cycles (Cortex-A76 software-optimisation-guide
    /// class values).
    pub fn latency(&self) -> u64 {
        match self {
            NeonOpClass::IntSimple => 2,
            NeonOpClass::IntMul => 4,
            NeonOpClass::Shift => 2,
            NeonOpClass::FpAdd => 2,
            NeonOpClass::FpMul => 3,
            NeonOpClass::FpMac => 4,
            NeonOpClass::Permute => 2,
            NeonOpClass::Reduce => 3,
        }
    }
}

/// Dynamic profile of one kernel invocation on the Neon baseline.
#[derive(Debug, Clone, Default)]
pub struct NeonProfile {
    /// `(class, dynamic 128-bit instruction count)` pairs.
    pub ops: Vec<(NeonOpClass, u64)>,
    /// Dynamic ops on the kernel's critical dependence chain (e.g. the
    /// accumulator chain of a reduction): these serialise at class latency.
    pub chain_ops: Vec<(NeonOpClass, u64)>,
    /// 128-bit vector loads.
    pub loads: u64,
    /// 128-bit vector stores.
    pub stores: u64,
    /// Interleaved scalar instructions (loop control, addressing).
    pub scalar_instrs: u64,
    /// Distinct bytes the kernel streams through (for cache behaviour, the
    /// model touches `touched_bytes / 64` sequential lines).
    pub touched_bytes: u64,
    /// First byte address of the streamed region.
    pub base_addr: u64,
}

impl NeonProfile {
    /// Total dynamic vector instructions (compute + memory).
    pub fn vector_instrs(&self) -> u64 {
        self.ops.iter().map(|(_, c)| c).sum::<u64>() + self.loads + self.stores
    }

    /// Sequential lines the model streams from `base_addr`.
    pub fn stream_lines(&self) -> u64 {
        self.touched_bytes / mve_memsim::LINE_BYTES
    }
}

/// Result of running a profile through the model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NeonResult {
    /// Total kernel cycles.
    pub cycles: u64,
    /// Cycles attributed to SIMD compute (the binding compute bound).
    pub compute_cycles: u64,
    /// Cycles attributed to memory (port occupancy + exposed stalls).
    pub memory_cycles: u64,
    /// Dynamic vector instruction count.
    pub vector_instrs: u64,
    /// Dynamic scalar instruction count.
    pub scalar_instrs: u64,
}

/// The Neon execution model.
#[derive(Debug, Clone)]
pub struct NeonModel {
    core: CoreConfig,
    /// Number of 128-bit ASIMD pipes (Table IV: 2).
    pipes: u64,
    /// Load/store ports (A76: 2 × 16 B).
    mem_ports: u64,
    /// Sustained fraction of peak issue throughput.
    ///
    /// CALIBRATED: 0.45 — measured mobile SIMD kernels sustain roughly half
    /// of the 2-pipe peak once load-use stalls, accumulator dependences and
    /// issue-slot competition with address arithmetic are paid (the paper's
    /// Neon baselines are silicon measurements, not peak-throughput
    /// estimates).
    sustain: f64,
}

impl Default for NeonModel {
    fn default() -> Self {
        Self::new(CoreConfig::default())
    }
}

impl NeonModel {
    /// Builds the Table IV Neon configuration.
    pub fn new(core: CoreConfig) -> Self {
        Self {
            core,
            pipes: 2,
            mem_ports: 2,
            sustain: 0.45,
        }
    }

    /// Core configuration used by the model.
    pub fn core(&self) -> &CoreConfig {
        &self.core
    }

    /// Executes a profile against `hier`, starting at cycle `now`: the
    /// profile's line stream ([`NeonModel::walk_stream`]) and then the
    /// closed-form bounds ([`NeonModel::finish`]).
    pub fn execute(&self, profile: &NeonProfile, hier: &mut Hierarchy, now: u64) -> NeonResult {
        let stream_cycles = self.walk_stream(profile.base_addr, profile.stream_lines(), hier, now);
        self.finish(profile, hier.config(), stream_cycles)
    }

    /// Walks `lines` sequential lines from `base_addr` through `hier`,
    /// issuing one per cycle from `now`, and returns the cycles until the
    /// last one is served. This is the only part of [`NeonModel::execute`]
    /// that touches the hierarchy.
    ///
    /// The OoO window and prefetcher overlap miss latencies, but outstanding
    /// L1 misses are bounded by the 20 L1 MSHRs (Table IV) — this is
    /// precisely why the in-L2 engine, sitting next to the data with 46
    /// MSHRs, wins on cache-resident working sets (Section VII-A).
    pub fn walk_stream(&self, base_addr: u64, lines: u64, hier: &mut Hierarchy, now: u64) -> u64 {
        let l1_mshrs = hier.config().l1d.mshrs;
        let l1_latency = hier.config().l1d.latency;
        let mut outstanding: std::collections::VecDeque<u64> =
            std::collections::VecDeque::with_capacity(l1_mshrs);
        let mut t_issue = now;
        let mut last_done = now;
        for i in 0..lines {
            let addr = base_addr + i * mve_memsim::LINE_BYTES;
            if outstanding.len() >= l1_mshrs {
                if let Some(f) = outstanding.pop_front() {
                    t_issue = t_issue.max(f);
                }
            }
            let lat = hier.core_access(addr, false, t_issue);
            let done = t_issue + lat;
            if lat > l1_latency {
                outstanding.push_back(done);
            }
            last_done = last_done.max(done);
            t_issue += 1;
        }
        last_done - now
    }

    /// The rest of [`NeonModel::execute`] once the profile's line stream
    /// took `stream_cycles` on a hierarchy configured as `cfg`: closed-form
    /// arithmetic on the profile.
    pub fn finish(
        &self,
        profile: &NeonProfile,
        cfg: &HierarchyConfig,
        stream_cycles: u64,
    ) -> NeonResult {
        // Throughput bound over the SIMD pipes.
        let total_ops: u64 = profile.ops.iter().map(|(_, c)| c).sum();
        let issue_bound = (total_ops as f64 / (self.pipes as f64 * self.sustain)).ceil() as u64;
        // Dependence-chain bound.
        let dep_bound: u64 = profile
            .chain_ops
            .iter()
            .map(|(class, c)| class.latency() * c)
            .sum();
        let compute = issue_bound.max(dep_bound);

        // Scalar glue retires in parallel on the scalar pipes.
        let scalar = self.core.scalar_block_cycles(profile.scalar_instrs);

        // Memory: port occupancy vs stream-completion time.
        let port_cycles = (profile.loads + profile.stores).div_ceil(self.mem_ports);
        // Streamed stores drain through the same DRAM channel as the read
        // stream (write-allocate + eventual writeback).
        let store_lines = profile.stores * 16 / mve_memsim::LINE_BYTES;
        let writeback_cycles = store_lines * cfg.dram.burst_cycles;
        let memory = port_cycles.max(stream_cycles + writeback_cycles);

        let cycles = compute.max(scalar).max(memory).max(1);
        NeonResult {
            cycles,
            compute_cycles: compute,
            memory_cycles: memory,
            vector_instrs: profile.vector_instrs(),
            scalar_instrs: profile.scalar_instrs,
        }
    }
}

/// Elements per 128-bit vector for a given element width.
pub fn lanes_per_vector(bits: u32) -> u64 {
    (128 / bits) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(ops: u64, loads: u64, bytes: u64) -> NeonProfile {
        NeonProfile {
            ops: vec![(NeonOpClass::IntSimple, ops)],
            chain_ops: vec![],
            loads,
            stores: 0,
            scalar_instrs: ops / 2,
            touched_bytes: bytes,
            base_addr: 0x10_0000,
        }
    }

    #[test]
    fn lanes_scale_with_precision() {
        assert_eq!(lanes_per_vector(8), 16);
        assert_eq!(lanes_per_vector(16), 8);
        assert_eq!(lanes_per_vector(32), 4);
    }

    #[test]
    fn two_pipes_with_sustain_factor() {
        let model = NeonModel::default();
        let mut h = Hierarchy::default();
        let r = model.execute(&profile(1000, 0, 0), &mut h, 0);
        // 1000 ops over 2 pipes at 0.45 sustained throughput.
        assert_eq!(r.compute_cycles, (1000.0f64 / 0.9).ceil() as u64);
    }

    #[test]
    fn dependence_chain_binds_reductions() {
        let model = NeonModel::default();
        let mut h = Hierarchy::default();
        let mut p = profile(100, 0, 0);
        p.chain_ops = vec![(NeonOpClass::FpAdd, 100)]; // fully serial chain
        let r = model.execute(&p, &mut h, 0);
        assert_eq!(r.compute_cycles, 200, "chain of 100 FpAdds at latency 2");
    }

    #[test]
    fn memory_bound_kernel_charges_misses() {
        let model = NeonModel::default();
        let mut h = Hierarchy::default();
        // Cold streaming over 1 MB with trivial compute.
        let r = model.execute(&profile(10, 10, 1 << 20), &mut h, 0);
        assert!(
            r.memory_cycles > r.compute_cycles,
            "streaming kernel must be memory-bound: {r:?}"
        );
        assert_eq!(r.cycles, r.memory_cycles);
    }

    #[test]
    fn warm_rerun_is_faster() {
        let model = NeonModel::default();
        let mut h = Hierarchy::default();
        let cold = model.execute(&profile(10, 10, 1 << 16), &mut h, 0).cycles;
        let warm = model
            .execute(&profile(10, 10, 1 << 16), &mut h, 1_000_000)
            .cycles;
        assert!(warm <= cold, "warm {warm} vs cold {cold}");
    }
}
