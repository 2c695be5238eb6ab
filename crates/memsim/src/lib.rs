//! Memory-hierarchy substrate for the MVE reproduction.
//!
//! Models the Snapdragon-855-class hierarchy of Table IV:
//!
//! | Level | Size   | Ways | Latency | MSHRs |
//! |-------|--------|------|---------|-------|
//! | L1-D  | 64 KB  | 4    | 4 cyc   | 20    |
//! | L2    | 512 KB | 8    | 12 cyc  | 46    |
//! | LLC   | 2 MB   | 8    | 31 cyc  | 64/way|
//!
//! plus an LPDDR4X-class DRAM bank/row model standing in for Ramulator
//! (see `DESIGN.md`, substitution table).
//!
//! Two access paths exist, mirroring Section V of the paper:
//!
//! * [`Hierarchy::core_access`] — scalar loads/stores from the core, going
//!   through L1 → L2 → LLC → DRAM.
//! * [`Hierarchy::vector_access`] — gathers/scatters issued by the MVE
//!   controller directly against the *regular half* of the L2 (the in-cache
//!   engine bypasses L1). Inclusive-presence-bit coherence evicts lines from
//!   L1 when the vector engine touches them (Section V-C).
//!
//! All times are in scalar-core cycles at 2.8 GHz.

pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod lineset;

pub use cache::{CacheConfig, SetAssocCache};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{BatchResult, Hierarchy, HierarchyConfig, MemStats};
pub use lineset::LineSet;

/// Cache line size used throughout the model (bytes).
pub const LINE_BYTES: u64 = 64;

/// Converts a byte address to its cache-line address.
pub fn line_of(addr: u64) -> u64 {
    addr / LINE_BYTES
}
