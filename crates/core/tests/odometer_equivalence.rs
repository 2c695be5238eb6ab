//! Property suite pinning the division-free odometer fast path (ISSUE 2)
//! against the original per-lane reference semantics.
//!
//! The per-lane address generators in `addrgen` — the reference the
//! engine's row path is tested against — walk [`LogicalShape::iter_lanes`]
//! (carry-propagating coordinates, mask re-evaluated only on highest-dim
//! carries) instead of calling `coords()` + `lane_active()` per lane. These
//! tests prove the two formulations equivalent over arbitrary 1–4-D shapes,
//! dimension-level masks, stride modes (including negative CR strides), and
//! lane caps.

use mve_core::addrgen::{self, StrideBank};
use mve_core::config::{ControlRegs, MAX_DIMS};
use mve_core::isa::StrideMode;
use mve_core::layout::LogicalShape;
use proptest::collection::vec;
use proptest::prelude::*;

/// Builds CRs for `count` dimensions of the given lengths, with the listed
/// highest-dimension mask indices switched off.
fn crs_with(lens: &[usize; MAX_DIMS], count: usize, masked_off: &[usize]) -> ControlRegs {
    let mut crs = ControlRegs::new();
    crs.set_dim_count(count);
    for d in 0..count {
        crs.set_dim_len(d, lens[d]);
    }
    for &m in masked_off {
        crs.unset_mask(m % 256);
    }
    crs
}

fn mode_of(i: usize) -> StrideMode {
    match i % 4 {
        0 => StrideMode::Zero,
        1 => StrideMode::One,
        2 => StrideMode::Seq,
        _ => StrideMode::Cr,
    }
}

/// The pre-odometer reference: per-lane `coords()` (4 div/mods) and
/// `lane_active()` exactly as `addrgen::strided_addresses` computed them
/// before this refactor.
fn reference_strided(
    base: u64,
    elem_bytes: u64,
    strides: &[i64; MAX_DIMS],
    shape: &LogicalShape,
    crs: &ControlRegs,
    max_lanes: usize,
) -> Vec<Option<u64>> {
    let total = shape.total().min(max_lanes);
    let mut out = vec![None; total];
    for (lane, slot) in out.iter_mut().enumerate() {
        if !shape.lane_active(lane, crs) {
            continue;
        }
        let coords = shape.coords(lane);
        let mut offset: i64 = 0;
        for d in 0..MAX_DIMS {
            offset += coords[d] as i64 * strides[d];
        }
        *slot = Some((base as i64 + offset * elem_bytes as i64) as u64);
    }
    out
}

/// The pre-odometer reference for `addrgen::random_addresses`.
fn reference_random(
    bases: &[u64],
    elem_bytes: u64,
    strides: &[i64; MAX_DIMS],
    shape: &LogicalShape,
    crs: &ControlRegs,
    max_lanes: usize,
) -> Vec<Option<u64>> {
    let highest = shape.highest_dim();
    let total = shape.total().min(max_lanes);
    let mut out = vec![None; total];
    for (lane, slot) in out.iter_mut().enumerate() {
        if !shape.lane_active(lane, crs) {
            continue;
        }
        let coords = shape.coords(lane);
        let mut offset: i64 = 0;
        for d in 0..highest {
            offset += coords[d] as i64 * strides[d];
        }
        *slot = Some((bases[coords[highest]] as i64 + offset * elem_bytes as i64) as u64);
    }
    out
}

proptest! {
    /// `ShapeIter` yields exactly `(lane, coords(lane), lane_active(lane))`
    /// for every lane under the cap, in order.
    #[test]
    fn shape_iter_matches_coords_and_lane_active(
        d0 in 1usize..6, d1 in 1usize..6, d2 in 1usize..6, d3 in 1usize..5,
        count in 1usize..5,
        masked in vec(0usize..256usize, 0..8),
        cap in 0usize..700,
    ) {
        let mut lens = [d0, d1, d2, d3];
        for d in count..MAX_DIMS {
            lens[d] = 1;
        }
        let crs = crs_with(&lens, count, &masked);
        let shape = crs.shape();
        let got: Vec<_> = shape.iter_lanes(&crs, cap).collect();
        let total = shape.total().min(cap);
        prop_assert_eq!(got.len(), total);
        for (lane, coords, active) in got {
            prop_assert_eq!(coords, shape.coords(lane));
            prop_assert_eq!(active, shape.lane_active(lane, &crs));
        }
    }

    /// The odometer-driven strided address generator matches the per-lane
    /// reference over arbitrary stride modes and (possibly negative) CR
    /// strides.
    #[test]
    fn strided_addresses_match_reference(
        d0 in 1usize..6, d1 in 1usize..6, d2 in 1usize..5, d3 in 1usize..4,
        count in 1usize..5,
        masked in vec(0usize..256usize, 0..6),
        modes in vec(0usize..4usize, 4),
        crs_strides in vec(-8i64..9i64, 4),
        elem_shift in 0u32..4,
        base in 0u64..1_000_000u64,
        cap in 0usize..600,
    ) {
        let mut lens = [d0, d1, d2, d3];
        for d in count..MAX_DIMS {
            lens[d] = 1;
        }
        let mut crs = crs_with(&lens, count, &masked);
        for d in 0..MAX_DIMS {
            crs.set_load_stride(d, crs_strides[d]);
        }
        let shape = crs.shape();
        let modes: Vec<StrideMode> = modes[..count].iter().map(|&m| mode_of(m)).collect();
        let strides = addrgen::resolve_strides(&modes, &shape, &crs, StrideBank::Load);
        let elem_bytes = 1u64 << elem_shift;
        let fast = addrgen::strided_addresses(base, elem_bytes, &strides, &shape, &crs, cap);
        let reference = reference_strided(base, elem_bytes, &strides, &shape, &crs, cap);
        prop_assert_eq!(fast, reference);
    }

    /// The odometer-driven random-base address generator matches the
    /// per-lane reference.
    #[test]
    fn random_addresses_match_reference(
        d0 in 1usize..6, d1 in 1usize..6, d2 in 1usize..5, d3 in 1usize..4,
        count in 1usize..5,
        masked in vec(0usize..256usize, 0..6),
        crs_strides in vec(-8i64..9i64, 4),
        elem_shift in 0u32..4,
        base_seed in 1u64..50_000u64,
        cap in 0usize..600,
    ) {
        let mut lens = [d0, d1, d2, d3];
        for d in count..MAX_DIMS {
            lens[d] = 1;
        }
        let mut crs = crs_with(&lens, count, &masked);
        for d in 0..MAX_DIMS {
            crs.set_store_stride(d, crs_strides[d]);
        }
        let shape = crs.shape();
        let nbases = shape.dim(shape.highest_dim());
        // Scattered, deterministic row pointers.
        let bases: Vec<u64> = (0..nbases as u64).map(|w| base_seed + w * 7919).collect();
        let modes: Vec<StrideMode> = (0..count).map(|_| StrideMode::Cr).collect();
        let strides = addrgen::resolve_strides(&modes, &shape, &crs, StrideBank::Store);
        let elem_bytes = 1u64 << elem_shift;
        let fast = addrgen::random_addresses(&bases, elem_bytes, &strides, &shape, &crs, cap);
        let reference = reference_random(&bases, elem_bytes, &strides, &shape, &crs, cap);
        prop_assert_eq!(fast, reference);
    }
}
