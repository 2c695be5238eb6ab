//! Mobile-core substrate: the scalar-core issue model that feeds MVE
//! instructions to the cache controller, and the Arm-Neon-class packed-SIMD
//! baseline used throughout the paper's evaluation.
//!
//! * [`core`] — Cortex-A76-class parameters (Table IV: 2.8 GHz, 4-wide
//!   out-of-order, 128-entry ROB) and the scalar-block retirement model.
//!   Section V-A's store-to-load ordering (the LSQ address decoder of
//!   Equation 2 and the write buffer) is not modelled.
//! * [`neon`] — a 2×128-bit ASIMD pipe cost model: kernels describe their
//!   dynamic operation mix as a [`neon::NeonProfile`]; the model converts it
//!   to cycles against the shared memory hierarchy.

pub mod core;
pub mod neon;

pub use crate::core::CoreConfig;
pub use crate::neon::{NeonModel, NeonOpClass, NeonProfile, NeonResult};
