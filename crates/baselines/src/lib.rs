//! Baseline execution models the paper compares MVE against.
//!
//! * [`rvv`] — a RISC-V-RVV-style **1-D** long-vector ISA layer driving the
//!   *same* in-cache engine (Figures 10/11/13). Multi-dimensional accesses
//!   must be emulated with per-segment masked 1-D loads, register packing
//!   moves and scalar address arithmetic — exactly the overhead Section
//!   VII-B quantifies.
//! * [`gpu`] — an Adreno-640-class mobile GPU analytic model with OpenCL
//!   kernel-launch and host↔device copy overheads (Figures 8/9).
//! * [`duality`] — the Duality Cache SIMT cost model: control flow and
//!   address arithmetic execute *in-SRAM* per lane, and register pressure
//!   causes spill/fill traffic (Figure 12(a)).

pub mod duality;
pub mod gpu;
pub mod rvv;

pub use duality::{DualityConfig, DualityReport};
pub use gpu::{GpuConfig, GpuKernelCost, GpuResult};
