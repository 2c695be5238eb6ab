//! Engine profiling.
//!
//! [`ProfilingSink`] is a [`TraceSink`] that attributes work to the
//! Figure 11 opcode classes, per-opcode counters and source lines as a
//! recorded trace is replayed into it: simulated-event counts,
//! active-lane totals and touched cache lines, all deterministic for a
//! fixed kernel. They feed the committed `reproduce --profile` report
//! (byte-diffed in CI) and the DSL's per-line profile. The sink takes no
//! wall-clock readings; the Chrome trace-event export times whole kernel
//! runs and simulations instead (`mve_bench::profiling`).

use std::collections::BTreeMap;

use crate::isa::OpClass;
use crate::trace::{Event, TraceSink};

/// Profile-report names of the [`OpClass`] buckets, in enum order.
pub const CLASS_NAMES: [&str; 4] = ["config", "move", "mem_access", "arithmetic"];

/// Per-class attribution accumulated by [`ProfilingSink`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ClassProfile {
    /// Events observed.
    pub events: u64,
    /// Sum of active SIMD lanes across compute/memory events.
    pub active_lanes: u64,
    /// Deduplicated cache lines touched (memory events only).
    pub cache_lines: u64,
}

/// Per-source-line attribution accumulated by [`ProfilingSink`] from
/// [`Event::SrcLine`] markers. Line 0 is the `<toplevel>` bucket:
/// events emitted before any marker (engine/geometry setup) land there
/// rather than being dropped, which is what keeps the conservation
/// invariant exact — per-line sums equal the per-class totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineProfile {
    /// Vector events observed (config + move + mem + arith).
    pub events: u64,
    /// Dynamic scalar instructions.
    pub scalar_instrs: u64,
    /// Scalar block events.
    pub scalar_blocks: u64,
    /// Sum of active SIMD lanes across compute/memory events.
    pub active_lanes: u64,
    /// Deduplicated cache lines touched (memory events only).
    pub cache_lines: u64,
}

/// A per-opcode-class profiler, fed by replaying a recorded trace
/// ([`crate::trace::Trace::replay_into`]).
#[derive(Debug, Default)]
pub struct ProfilingSink {
    classes: [ClassProfile; 4],
    /// Dynamic scalar instructions (from scalar blocks).
    scalar_instrs: u64,
    /// Scalar block events.
    scalar_blocks: u64,
    /// Per-opcode event counts, keyed by mnemonic (deterministic order).
    opcodes: BTreeMap<&'static str, u64>,
    /// Per-source-line attribution; empty when the stream carries no
    /// [`Event::SrcLine`] markers and no events at all.
    lines: BTreeMap<u32, LineProfile>,
    /// Bucket the next event is attributed to (0 = `<toplevel>`).
    current_line: u32,
}

impl ProfilingSink {
    /// A fresh profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The attribution for one opcode class.
    pub fn class(&self, class: OpClass) -> ClassProfile {
        self.classes[class_idx(class)]
    }

    /// `(class name, profile)` in [`CLASS_NAMES`] order.
    pub fn classes(&self) -> [(&'static str, ClassProfile); 4] {
        [
            (CLASS_NAMES[0], self.classes[0]),
            (CLASS_NAMES[1], self.classes[1]),
            (CLASS_NAMES[2], self.classes[2]),
            (CLASS_NAMES[3], self.classes[3]),
        ]
    }

    /// Dynamic scalar instruction count.
    pub fn scalar_instrs(&self) -> u64 {
        self.scalar_instrs
    }

    /// Scalar block events observed.
    pub fn scalar_blocks(&self) -> u64 {
        self.scalar_blocks
    }

    /// Total events observed (vector classes + scalar blocks).
    pub fn total_events(&self) -> u64 {
        self.classes.iter().map(|c| c.events).sum::<u64>() + self.scalar_blocks
    }

    /// Per-opcode event counts in deterministic (mnemonic) order.
    pub fn opcode_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.opcodes.iter().map(|(&name, &count)| (name, count))
    }

    /// Per-source-line attribution, keyed by 1-based line (0 =
    /// `<toplevel>`), in ascending line order.
    pub fn lines(&self) -> &BTreeMap<u32, LineProfile> {
        &self.lines
    }

    /// Checks the conservation invariant: per-line counts sum exactly to
    /// the per-class totals (nothing attributed twice, nothing dropped).
    /// Returns the first violated quantity's name, or `None` when
    /// conservation holds.
    pub fn conservation_violation(&self) -> Option<&'static str> {
        let sum = |f: fn(&LineProfile) -> u64| self.lines.values().map(f).sum::<u64>();
        let class_events = self.classes.iter().map(|c| c.events).sum::<u64>();
        let class_lanes = self.classes.iter().map(|c| c.active_lanes).sum::<u64>();
        let class_lines = self.classes.iter().map(|c| c.cache_lines).sum::<u64>();
        if sum(|l| l.events) != class_events {
            Some("events")
        } else if sum(|l| l.scalar_instrs) != self.scalar_instrs {
            Some("scalar_instrs")
        } else if sum(|l| l.scalar_blocks) != self.scalar_blocks {
            Some("scalar_blocks")
        } else if sum(|l| l.active_lanes) != class_lanes {
            Some("active_lanes")
        } else if sum(|l| l.cache_lines) != class_lines {
            Some("cache_lines")
        } else {
            None
        }
    }
}

fn class_idx(class: OpClass) -> usize {
    match class {
        OpClass::Config => 0,
        OpClass::Move => 1,
        OpClass::MemAccess => 2,
        OpClass::Arithmetic => 3,
    }
}

impl TraceSink for ProfilingSink {
    fn on_event(&mut self, event: &Event) {
        // Markers switch the line bucket and count as no event.
        if let Event::SrcLine { line } = event {
            self.current_line = *line;
            return;
        }
        let line = self.lines.entry(self.current_line).or_default();
        match event {
            Event::Config { .. } | Event::Compute { .. } | Event::Memory { .. } => line.events += 1,
            Event::Scalar { instrs } => {
                line.scalar_blocks += 1;
                line.scalar_instrs += instrs;
            }
            Event::SrcLine { .. } => unreachable!("handled above"),
        }
        if let Event::Compute { active_lanes, .. } | Event::Memory { active_lanes, .. } = event {
            line.active_lanes += u64::from(*active_lanes);
        }
        if let Event::Memory { lines, .. } = event {
            line.cache_lines += lines.len() as u64;
        }
        match event {
            Event::Config { opcode } => {
                let c = &mut self.classes[0];
                c.events += 1;
                *self.opcodes.entry(opcode.mnemonic()).or_insert(0) += 1;
            }
            Event::Compute {
                opcode,
                active_lanes,
                ..
            } => {
                let c = &mut self.classes[class_idx(opcode.class())];
                c.events += 1;
                c.active_lanes += u64::from(*active_lanes);
                *self.opcodes.entry(opcode.mnemonic()).or_insert(0) += 1;
            }
            Event::Memory {
                opcode,
                active_lanes,
                lines,
                ..
            } => {
                let c = &mut self.classes[class_idx(opcode.class())];
                c.events += 1;
                c.active_lanes += u64::from(*active_lanes);
                c.cache_lines += lines.len() as u64;
                *self.opcodes.entry(opcode.mnemonic()).or_insert(0) += 1;
            }
            Event::Scalar { instrs } => {
                self.scalar_blocks += 1;
                self.scalar_instrs += instrs;
            }
            Event::SrcLine { .. } => unreachable!("markers return early"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtype::DType;
    use crate::isa::Opcode;
    use mve_insram::AluOp;

    #[test]
    fn attributes_events_to_classes_and_opcodes() {
        let mut p = ProfilingSink::new();
        p.on_event(&Event::Config {
            opcode: Opcode::SetDimCount,
        });
        p.on_event(&Event::Compute {
            opcode: Opcode::Add,
            alu: AluOp::Add,
            dtype: DType::I32,
            active_lanes: 128,
            cb_mask: 1,
        });
        p.on_event(&Event::Memory {
            opcode: Opcode::StridedLoad,
            dtype: DType::I32,
            active_lanes: 64,
            cb_mask: 1,
            lines: mve_memsim::LineSet::from_sorted(&[0, 64, 128]),
            write: false,
        });
        p.on_event(&Event::Scalar { instrs: 7 });
        assert_eq!(p.class(OpClass::Config).events, 1);
        assert_eq!(p.class(OpClass::Arithmetic).events, 1);
        assert_eq!(p.class(OpClass::Arithmetic).active_lanes, 128);
        assert_eq!(p.class(OpClass::MemAccess).cache_lines, 3);
        assert_eq!(p.scalar_instrs(), 7);
        assert_eq!(p.total_events(), 4);
        let ops: Vec<_> = p.opcode_counts().collect();
        // BTreeMap keys: mnemonic order is deterministic.
        assert_eq!(ops.len(), 3);
        assert!(ops.iter().all(|&(_, n)| n == 1));
    }
}
