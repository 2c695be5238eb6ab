//! Property suite pinning the timing drivers against each other on
//! generated traces.
//!
//! [`simulate_sweep`] times one trace under many
//! configurations with a shared warm pass per hierarchy; every report must
//! be **bit-identical** to an independent [`simulate`] run of its
//! configuration. Source-line markers split scalar blocks that
//! [`Trace::push`] would merge, and the sim coalesces them again, so a
//! marked trace must time exactly as the unmarked one under every driver.
//!
//! The vendored proptest offers integer ranges and `vec` only, so each
//! event is generated as one `u64` seed and decoded by bit-slicing — the
//! decode covers every event class, the fully-masked memory corner
//! (`active_lanes == 0`, with and without pointer-fetch lines), zero-lane
//! compute, and scalar blocks that the trace coalesces.

use mve_core::dtype::DType;
use mve_core::isa::Opcode;
use mve_core::sim::{simulate, simulate_lines, simulate_sweep, SimConfig};
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

/// `build_trace`, with a source-line marker after about half the events,
/// so consecutive scalar blocks reach the trace unmerged.
fn build_marked_trace(seeds: &[u64]) -> Trace {
    let mut t = Trace::new();
    for &s in seeds {
        t.push(decode(s));
        if s >> 63 == 1 {
            t.push(Event::SrcLine {
                line: (s >> 60 & 7) as u32,
            });
        }
    }
    t
}

proptest! {
    /// One sweep equals N independent simulations, across shared warm
    /// passes, mixed warming, and scheme variation.
    #[test]
    fn sweep_is_bit_identical_per_config(
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

    /// A marked trace reports what the unmarked one does under
    /// `simulate`, every `simulate_sweep` member and `simulate_lines`, whose
    /// per-line cycles sum to the total.
    #[test]
    fn marked_traces_time_like_unmarked_ones(
        seeds in vec(0u64..u64::MAX, 0..60),
        picks in vec(0usize..6, 1..4),
    ) {
        let (trace, marked) = (build_trace(&seeds), build_marked_trace(&seeds));
        let cfgs: Vec<SimConfig> = picks.iter().map(|&i| cfg_variant(i)).collect();
        let swept = simulate_sweep(&marked, &cfgs);
        for (cfg, got) in cfgs.iter().zip(swept) {
            let want = simulate(&trace, cfg);
            prop_assert_eq!(&simulate(&marked, cfg), &want);
            prop_assert_eq!(&got, &want);
            let (lined, per_line) = simulate_lines(&marked, cfg);
            prop_assert_eq!(per_line.values().sum::<u64>(), want.total_cycles);
            prop_assert_eq!(lined, want);
        }
    }
}
