//! Property suite pinning the streaming timing pipeline (ISSUE 3) against
//! the batch semantics it replaced.
//!
//! [`mve_core::sim::TimingSim`] consumes events incrementally (online
//! interval union, coalesced scalar retirement, lazily-charged mode
//! switch), and [`mve_core::sim::Fanout`] broadcasts one stream into many
//! sims with a shared warm pass. These properties prove, over arbitrary
//! generated event streams and configuration corners, that every report is
//! **bit-identical** to `simulate`'s — so the streaming rewrite is proven
//! equivalent, not just spot-checked on the smoke artefacts.
//!
//! The vendored proptest offers integer ranges and `vec` only, so each
//! event is generated as one `u64` seed and decoded by bit-slicing — the
//! decode covers every event class, the fully-masked memory corner
//! (`active_lanes == 0`, with and without pointer-fetch lines), zero-lane
//! compute, and scalar blocks that the batch trace coalesces.

use mve_core::dtype::DType;
use mve_core::isa::Opcode;
use mve_core::sim::{simulate, simulate_sweep, SimConfig, TimingSim};
use mve_core::trace::{alu_op_for, Event, Trace};
use mve_insram::Scheme;
use mve_memsim::LineSet;
use proptest::collection::vec;
use proptest::prelude::*;

/// Compute opcodes with a defined ALU class.
const COMPUTE_OPS: [Opcode; 8] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Min,
    Opcode::Xor,
    Opcode::Compare,
    Opcode::Copy,
    Opcode::SetDup,
];

const DTYPES: [DType; 6] = [
    DType::U8,
    DType::I8,
    DType::I16,
    DType::I32,
    DType::F16,
    DType::F32,
];

/// Decodes one generated `u64` into an event.
fn decode(seed: u64) -> Event {
    let dtype = DTYPES[(seed >> 5) as usize % DTYPES.len()];
    // ~1 in 6 events is fully masked (zero active lanes).
    let active_lanes = if (seed >> 21).is_multiple_of(6) {
        0
    } else {
        1 + ((seed >> 8) % 8191) as u32
    };
    let cb_mask = (seed >> 24) & 0xFF;
    match seed & 3 {
        0 => Event::Config {
            opcode: Opcode::SetDimLength,
        },
        1 => {
            let opcode = COMPUTE_OPS[(seed >> 2) as usize % COMPUTE_OPS.len()];
            Event::Compute {
                opcode,
                alu: alu_op_for(opcode, dtype),
                dtype,
                active_lanes,
                cb_mask,
            }
        }
        2 => {
            let write = seed >> 32 & 1 == 1;
            let n_lines = ((seed >> 33) & 0xF) as usize;
            // Fully-masked accesses usually touch no lines; keep some with
            // a pointer-array fetch (random access) to cover that corner.
            let n_lines = if active_lanes == 0 && seed >> 37 & 1 == 0 {
                0
            } else {
                n_lines
            };
            // Cheap LCG over the seed for line addresses, sorted and
            // deduplicated as every producer's line set is.
            let mut x = seed | 1;
            let mut lines: Vec<u64> = (0..n_lines)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    x % 4096
                })
                .collect();
            lines.sort_unstable();
            lines.dedup();
            Event::Memory {
                opcode: if write {
                    Opcode::StridedStore
                } else {
                    Opcode::RandomLoad
                },
                dtype,
                active_lanes,
                cb_mask,
                lines: LineSet::from_sorted(&lines),
                write,
            }
        }
        _ => Event::Scalar {
            instrs: 1 + (seed >> 40) % 4096,
        },
    }
}

fn build_trace(seeds: &[u64]) -> Trace {
    let mut t = Trace::new();
    for &s in seeds {
        t.push(decode(s));
    }
    t
}

/// Configuration corners: default warm platform, cold start, alternate
/// schemes, PUMICE dispatch, a tiny Instruction-Q (backpressure), and a
/// different geometry with a 1-cycle issue gap.
fn cfg_variant(idx: usize) -> SimConfig {
    let base = SimConfig::default();
    match idx % 6 {
        0 => base,
        1 => base.without_cache_warming(),
        2 => base.with_scheme(Scheme::BitParallel).without_mode_switch(),
        3 => base.with_ooo_dispatch(),
        4 => {
            let mut c = base.with_scheme(Scheme::Associative);
            c.queue_entries = 4;
            c
        }
        _ => {
            let mut c = base.with_scheme(Scheme::BitHybrid).with_arrays(16);
            c.issue_gap_cycles = 1;
            c
        }
    }
}

proptest! {
    /// Event-by-event streaming into a [`TimingSim`] (two-phase when the
    /// config warms) reports bit-identically to batch [`simulate`].
    #[test]
    fn streaming_is_bit_identical_to_batch(
        seeds in vec(0u64..u64::MAX, 0..60),
        cfg_idx in 0usize..6,
    ) {
        let trace = build_trace(&seeds);
        let cfg = cfg_variant(cfg_idx);
        let batch = simulate(&trace, &cfg);
        let mut sim = TimingSim::new(cfg);
        if sim.is_warming() {
            for event in trace.events() {
                sim.on_event(event);
            }
            sim.start_timing();
        }
        for event in trace.events() {
            sim.on_event(event);
        }
        prop_assert_eq!(sim.finish(), batch);
    }

    /// Raw (uncoalesced) event streams, fed event by event to `on_event`, time
    /// identically to the coalesced trace the batch path captures.
    #[test]
    fn uncoalesced_scalar_stream_matches_coalesced_trace(
        seeds in vec(0u64..u64::MAX, 0..60),
        cfg_idx in 0usize..6,
    ) {
        let trace = build_trace(&seeds);
        let cfg = cfg_variant(cfg_idx);
        let batch = simulate(&trace, &cfg);
        let mut sim = TimingSim::new(cfg);
        let raw: Vec<Event> = seeds.iter().map(|&s| decode(s)).collect();
        if sim.is_warming() {
            for event in &raw {
                sim.on_event(event);
            }
            sim.start_timing();
        }
        for event in &raw {
            sim.on_event(event);
        }
        prop_assert_eq!(sim.finish(), batch);
    }

    /// One fanned-out trace walk equals N independent batch simulations,
    /// across warm-leader sharing, mixed warming, and scheme variation.
    #[test]
    fn fanout_sweep_is_bit_identical_per_config(
        seeds in vec(0u64..u64::MAX, 0..40),
        picks in vec(0usize..6, 1..5),
    ) {
        let trace = build_trace(&seeds);
        let cfgs: Vec<SimConfig> = picks.iter().map(|&i| cfg_variant(i)).collect();
        let swept = simulate_sweep(&trace, &cfgs);
        prop_assert_eq!(swept.len(), cfgs.len());
        for (cfg, got) in cfgs.iter().zip(swept) {
            prop_assert_eq!(got, simulate(&trace, cfg));
        }
    }

    /// The streaming working set stays bounded by the configuration, not
    /// the stream: the O(1)-memory claim, checked on generated streams.
    #[test]
    fn resident_intervals_stay_bounded(
        seeds in vec(0u64..u64::MAX, 0..120),
    ) {
        let cfg = SimConfig::default().without_cache_warming();
        let bound = cfg.queue_entries + cfg.geometry.control_blocks() + 1;
        let mut sim = TimingSim::new(cfg);
        for &s in &seeds {
            sim.on_event(&decode(s));
            prop_assert!(sim.resident_intervals() <= bound);
        }
        let _ = sim.finish();
    }
}
