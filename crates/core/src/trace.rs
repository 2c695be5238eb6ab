//! Dynamic instruction traces.
//!
//! Every intrinsic executed on the functional [`crate::engine::Engine`]
//! appends an [`Event`] to the engine's [`Trace`]. Consumers read a
//! finished trace by replay ([`Trace::replay_into`] into a [`TraceSink`]):
//! the timing simulator ([`crate::sim`]) replays it against the
//! micro-architecture model, twice when it warms the caches first, which
//! is why the engine records rather than streams. This replaces the
//! paper's DynamoRIO-based trace capture (see `DESIGN.md`, "Streaming
//! pipeline").

use crate::dtype::DType;
use crate::isa::{OpClass, Opcode};
use mve_insram::AluOp;

/// A consumer of dynamic trace events, fed by [`Trace::replay_into`]:
/// the timing simulator ([`crate::sim::TimingSim`]), its sweep broadcaster
/// ([`crate::sim::Fanout`]) and the source-line profiler
/// ([`crate::profile::ProfilingSink`]).
pub trait TraceSink {
    /// Consumes one dynamic event.
    fn on_event(&mut self, event: &Event);
}

/// One dynamic trace event.
#[derive(Debug, Clone)]
pub enum Event {
    /// A controller-only config instruction.
    Config {
        /// Which config opcode.
        opcode: Opcode,
    },
    /// A compute instruction executed on the SRAM arrays.
    Compute {
        /// Which opcode.
        opcode: Opcode,
        /// The ALU operation class (drives the latency model).
        alu: AluOp,
        /// Element type.
        dtype: DType,
        /// Active SIMD lanes after masking/predication.
        active_lanes: u32,
        /// Bitmask of Control Blocks with at least one active lane.
        cb_mask: u64,
    },
    /// A vector load or store.
    Memory {
        /// Which opcode (strided/random load/store).
        opcode: Opcode,
        /// Element type.
        dtype: DType,
        /// Active SIMD lanes after masking.
        active_lanes: u32,
        /// Bitmask of Control Blocks with at least one active lane.
        cb_mask: u64,
        /// Deduplicated cache-line addresses touched (including pointer-array
        /// fetches for random accesses).
        lines: Vec<u64>,
        /// Whether this is a store.
        write: bool,
    },
    /// A block of scalar instructions interleaved between vector code.
    Scalar {
        /// Dynamic scalar instruction count.
        instrs: u64,
    },
    /// A source-attribution marker: subsequent events were emitted by
    /// code lowered from source line `line` (1-based; 0 = unattributed).
    /// Markers are not instructions — every counting/timing consumer
    /// ignores them, so a trace with markers is observationally
    /// identical to one without for everything except attribution.
    SrcLine {
        /// 1-based source line; 0 = `<toplevel>`.
        line: u32,
    },
}

impl Event {
    /// The instruction-class bucket of Figure 11 (`None` for scalar blocks).
    pub fn op_class(&self) -> Option<OpClass> {
        match self {
            Event::Config { opcode }
            | Event::Compute { opcode, .. }
            | Event::Memory { opcode, .. } => Some(opcode.class()),
            Event::Scalar { .. } | Event::SrcLine { .. } => None,
        }
    }
}

/// Dynamic instruction-mix statistics (Figure 11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstrMix {
    /// Config instructions.
    pub config: u64,
    /// Move instructions (`vcvt`, `vcpy`).
    pub moves: u64,
    /// Vector memory accesses.
    pub mem_access: u64,
    /// Arithmetic instructions.
    pub arithmetic: u64,
    /// Scalar instructions.
    pub scalar: u64,
}

impl InstrMix {
    /// Total dynamic vector instructions.
    pub fn vector_total(&self) -> u64 {
        self.config + self.moves + self.mem_access + self.arithmetic
    }

    /// Accounts one event into its Figure 11 bucket.
    pub fn count(&mut self, event: &Event) {
        match event.op_class() {
            Some(OpClass::Config) => self.config += 1,
            Some(OpClass::Move) => self.moves += 1,
            Some(OpClass::MemAccess) => self.mem_access += 1,
            Some(OpClass::Arithmetic) => self.arithmetic += 1,
            None => {
                if let Event::Scalar { instrs } = event {
                    self.scalar += instrs;
                }
            }
        }
    }
}

/// A dynamic instruction trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<Event>,
    /// Figure 11 buckets, maintained incrementally on push so the
    /// per-kernel `instr_mix()` query is O(1) instead of a trace walk.
    mix: InstrMix,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event. Consecutive scalar blocks are coalesced.
    pub fn push(&mut self, event: Event) {
        self.mix.count(&event);
        if let (Some(Event::Scalar { instrs: last }), Event::Scalar { instrs }) =
            (self.events.last_mut(), &event)
        {
            *last += instrs;
            return;
        }
        self.events.push(event);
    }

    /// The recorded events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Feeds every recorded event into a sink, in order (a
    /// [`crate::sim::TimingSim`], a [`crate::sim::Fanout`] of many, or a
    /// [`crate::profile::ProfilingSink`]).
    pub fn replay_into<S: TraceSink + ?Sized>(&self, sink: &mut S) {
        for event in &self.events {
            sink.on_event(event);
        }
    }

    /// Number of events (after coalescing).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Clears the trace.
    pub fn clear(&mut self) {
        self.events.clear();
        self.mix = InstrMix::default();
    }

    /// The Figure 11 instruction mix (maintained incrementally; O(1)).
    pub fn instr_mix(&self) -> InstrMix {
        self.mix
    }
}

/// Maps an array-executed opcode and element type to its ALU operation class
/// for the latency model.
///
/// # Panics
///
/// Panics for config opcodes (they never reach the arrays).
pub fn alu_op_for(opcode: Opcode, dtype: DType) -> AluOp {
    use Opcode::*;
    let float = dtype.is_float();
    match opcode {
        Add => {
            if float {
                AluOp::FAdd
            } else {
                AluOp::Add
            }
        }
        Sub => {
            if float {
                AluOp::FAdd
            } else {
                AluOp::Sub
            }
        }
        Mul => {
            if float {
                AluOp::FMul
            } else {
                AluOp::Mul
            }
        }
        Min | Max => {
            if float {
                AluOp::FCmp
            } else {
                AluOp::MinMax
            }
        }
        Xor | And | Or => AluOp::Logic,
        Compare => {
            if float {
                AluOp::FCmp
            } else {
                AluOp::Cmp
            }
        }
        ShiftImm | RotateImm => AluOp::ShiftImm,
        ShiftReg => AluOp::ShiftReg,
        SetDup => AluOp::SetDup,
        Copy => AluOp::Copy,
        Convert => AluOp::Convert,
        StridedLoad | RandomLoad | StridedStore | RandomStore => {
            panic!("memory opcodes have no ALU class")
        }
        _ => panic!("config opcode {opcode:?} has no ALU class"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_blocks_coalesce() {
        let mut t = Trace::new();
        t.push(Event::Scalar { instrs: 5 });
        t.push(Event::Scalar { instrs: 7 });
        t.push(Event::Config {
            opcode: Opcode::SetDimCount,
        });
        t.push(Event::Scalar { instrs: 1 });
        assert_eq!(t.len(), 3);
        assert_eq!(t.instr_mix().scalar, 13);
    }

    #[test]
    fn instr_mix_buckets() {
        let mut t = Trace::new();
        t.push(Event::Config {
            opcode: Opcode::SetDimLength,
        });
        t.push(Event::Compute {
            opcode: Opcode::Add,
            alu: AluOp::Add,
            dtype: DType::I32,
            active_lanes: 100,
            cb_mask: 0xFF,
        });
        t.push(Event::Memory {
            opcode: Opcode::StridedLoad,
            dtype: DType::I32,
            active_lanes: 100,
            cb_mask: 0xFF,
            lines: vec![1, 2],
            write: false,
        });
        t.push(Event::Compute {
            opcode: Opcode::Copy,
            alu: AluOp::Copy,
            dtype: DType::I32,
            active_lanes: 100,
            cb_mask: 0xFF,
        });
        let mix = t.instr_mix();
        assert_eq!(mix.config, 1);
        assert_eq!(mix.arithmetic, 1);
        assert_eq!(mix.mem_access, 1);
        assert_eq!(mix.moves, 1);
        assert_eq!(mix.vector_total(), 4);
    }

    #[test]
    fn alu_mapping_follows_types() {
        assert_eq!(alu_op_for(Opcode::Add, DType::I32), AluOp::Add);
        assert_eq!(alu_op_for(Opcode::Add, DType::F32), AluOp::FAdd);
        assert_eq!(alu_op_for(Opcode::Mul, DType::F16), AluOp::FMul);
        assert_eq!(alu_op_for(Opcode::Sub, DType::U8), AluOp::Sub);
        assert_eq!(alu_op_for(Opcode::Min, DType::I16), AluOp::MinMax);
    }

    #[test]
    #[should_panic(expected = "no ALU class")]
    fn config_has_no_alu_class() {
        alu_op_for(Opcode::SetWidth, DType::I32);
    }
}
