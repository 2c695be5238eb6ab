//! In-SRAM computing substrate for the MVE reproduction.
//!
//! This crate models the compute-capable SRAM arrays that the paper
//! (Section II-B, Figure 1) builds its in-cache vector engine from:
//!
//! * [`array::SramArray`] — a bit-level functional model of a 256×256 SRAM
//!   array with a second row decoder. Activating two word-lines produces the
//!   logical `AND` and `NOR` of the two rows on the bit-line sense amplifiers,
//!   exactly as in Neural Cache / Compute Caches.
//! * [`bitserial`] — bit-serial arithmetic algorithms (add, subtract,
//!   multiply, shift, compare) built only from word-line activations and the
//!   per-bit-line peripheral latches (Carry `C` and Tag `T`). These validate
//!   the word-level fast path used by the full-speed simulator in `mve-core`.
//! * [`latency`] — cycle-latency models for the four in-SRAM computing
//!   schemes the paper evaluates (Figure 13): bit-serial (BS), bit-hybrid
//!   (BH), bit-parallel (BP) and associative computing (AC).
//! * [`scheme`] — the scheme descriptor tying lane counts, frequency
//!   derating, and latency together.
//! * [`tmu`] — the cycle cost of streaming data through the Transpose
//!   Memory Unit that converts between horizontal (memory) and vertical
//!   (bit-line) data layouts.
//!
//! # Example
//!
//! ```
//! use mve_insram::array::SramArray;
//! use mve_insram::bitserial::BitSerialAlu;
//!
//! let mut array = SramArray::new();
//! let mut alu = BitSerialAlu::new(&mut array);
//! // Store 8-bit operands vertically: element `i` lives in bit-line `i`.
//! alu.write_vertical(0, 8, &[3, 250, 17, 96]);
//! alu.write_vertical(8, 8, &[5, 10, 40, 200]);
//! let cycles = alu.add(0, 8, 16, 8);
//! assert_eq!(cycles, 8); // n-cycle bit-serial addition
//! assert_eq!(alu.read_vertical(16, 8, 4), vec![8, 4, 57, 40]); // wrapping
//! ```

pub mod array;
pub mod bitserial;
pub mod fsm;
pub mod latency;
pub mod scheme;
pub mod tmu;

pub use latency::{AluOp, LatencyModel};
pub use scheme::Scheme;
