//! A Neon line stream walks a fresh hierarchy the same way when moved by
//! a multiple of the hierarchy's address period: the property that lets
//! the figures memoize a stream's steady state by its first byte modulo
//! the period and its length.

use mve_coresim::neon::NeonModel;
use mve_memsim::{Hierarchy, HierarchyConfig, LINE_BYTES};
use proptest::prelude::*;

/// The Swan-style two-pass walk the figures time: a warming pass at cycle
/// 0, then the measured pass at 1e9, on a fresh Table IV hierarchy.
/// Returns both passes' cycles.
fn two_pass(base_addr: u64, lines: u64) -> (u64, u64) {
    let model = NeonModel::default();
    let mut hier = Hierarchy::default();
    let warm = model.walk_stream(base_addr, lines, &mut hier, 0);
    let measured = model.walk_stream(base_addr, lines, &mut hier, 1_000_000_000);
    (warm, measured)
}

fn period_bytes() -> u64 {
    HierarchyConfig::default().address_period_lines() * LINE_BYTES
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prop_streams_a_period_apart_walk_alike(
        lines in 0u64..100_000,
        base in 0u64..(1 << 36),
        periods in 1u64..(1 << 20),
    ) {
        prop_assert_eq!(
            two_pass(base + periods * period_bytes(), lines),
            two_pass(base, lines)
        );
    }
}

/// Negative control: moving a stream by less than a period may change its
/// walk, so the period (not the length alone) is part of the memo key. A
/// 98,304-line stream (the size of lpack's and the audio kernels') moved by
/// one line crosses DRAM rows at other points.
#[test]
fn a_stream_moved_off_the_period_walks_differently() {
    let base = 0x3000_0000;
    assert_ne!(two_pass(base + LINE_BYTES, 98_304), two_pass(base, 98_304));
}
