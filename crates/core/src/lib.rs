//! # MVE — Multi-dimensional Vector ISA Extension
//!
//! This crate is the reproduction of the paper's primary contribution
//! (HPCA 2025): a long-vector, multi-dimensional vector ISA extension for
//! mobile in-cache computing, together with the cache-side architecture that
//! executes it.
//!
//! ## Layered design
//!
//! * [`dtype`] — the six element types of Section III-F (`b`, `w`, `dw`,
//!   `qw`, `hf`, `f`) and their wrap-around arithmetic semantics.
//! * [`isa`] — instruction opcodes (Table II), stride modes (Section III-C)
//!   and the Table I feature matrix.
//! * [`config`] — the controller's Control Registers: dimension count and
//!   lengths, load/store stride CRs, the 256-entry dimension-level mask,
//!   and the kernel width.
//! * [`layout`] — the logical-register abstraction: `PR[w][z][y][x]`
//!   flattened onto the engine's SIMD lanes (Figure 2/3/4/5).
//! * [`addrgen`] — Algorithm 1 (strided) and Equation 1 (random-base)
//!   address generation.
//! * [`mem`] — a functional byte-addressable memory with a bump allocator,
//!   so kernels can build realistic pointer-based data structures.
//! * [`engine`] — the functional vector engine: physical register file,
//!   Tag-latch predication, dimension-level masking, and trace emission.
//! * [`intrinsics`] — the `__mdv`-style programming model (Section III-F):
//!   `vsld_dw`, `vadd_f`, `vrld_b`, … methods on [`engine::Engine`].
//! * [`trace`] — the dynamic instruction trace the timing simulator replays.
//! * [`sim`] — the trace-driven timing model of the core + MVE controller +
//!   control blocks + memory hierarchy (Section V / Figure 6), producing the
//!   idle/compute/data-access breakdown of Figure 7.
//!
//! ## Quick start
//!
//! ```
//! use mve_core::engine::Engine;
//! use mve_core::isa::StrideMode;
//!
//! let mut e = Engine::default_mobile();
//! // 16 rows x 64 columns of i32 in memory.
//! let a = e.mem_alloc_typed::<i32>(16 * 64);
//! e.mem_fill::<i32>(a, &(0..16 * 64).map(|i| i as i32).collect::<Vec<_>>());
//!
//! // Configure a 2D view: 64 columns (dim0), 16 rows (dim1).
//! e.vsetdimc(2);
//! e.vsetdiml(0, 64);
//! e.vsetdiml(1, 16);
//!
//! // Load the whole tile with row-major sequential strides and double it.
//! let v = e.vsld_dw(a, &[StrideMode::One, StrideMode::Seq]);
//! let two = e.vsetdup_dw(2);
//! let out = e.vmul_dw(v, two);
//!
//! let o = e.mem_alloc_typed::<i32>(16 * 64);
//! e.vsst_dw(out, o, &[StrideMode::One, StrideMode::Seq]);
//! assert_eq!(e.mem_read::<i32>(o, 3), 6);
//! ```

pub mod addrgen;
pub mod compiler;
pub mod config;
pub mod dtype;
pub mod engine;
pub mod intrinsics;
pub mod isa;
pub mod layout;
pub mod mem;
pub mod profile;
pub mod sim;
pub mod trace;

pub use dtype::DType;
pub use engine::{Engine, Reg};
pub use isa::StrideMode;
pub use sim::{SimConfig, SimReport};
pub use trace::Trace;
