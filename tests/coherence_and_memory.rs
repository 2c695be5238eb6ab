//! Integration across `mve-core` and `mve-memsim`: the vector path and the
//! scalar path share one functional memory, and the presence-bit coherence
//! protocol of Section V-C fires when both touch the same lines.

use mve_core::engine::Engine;
use mve_core::isa::StrideMode;
use mve_core::sim::{simulate, SimConfig};
use mve_memsim::{Hierarchy, LineSet};

#[test]
fn scalar_writes_are_visible_to_vector_loads() {
    let mut e = Engine::default_mobile();
    e.vsetdimc(1);
    e.vsetdiml(0, 64);
    let a = e.mem_alloc_typed::<i32>(64);
    // "Scalar" writes through the functional memory.
    for i in 0..64 {
        e.mem_mut().write::<i32>(a, i, i as i32 * 3);
    }
    let v = e.vsld_dw(a, &[StrideMode::One]);
    assert_eq!(e.lane_value(v, 10), 30);
    // Vector store, then scalar read-back.
    let out = e.mem_alloc_typed::<i32>(64);
    e.vsst_dw(v, out, &[StrideMode::One]);
    assert_eq!(e.mem_read::<i32>(out, 63), 63 * 3);
}

#[test]
fn presence_bits_trigger_coherence_evictions_in_timing() {
    let mut h = Hierarchy::default();
    // The core pulls lines into L1 (presence bits set in L2)...
    for i in 0..32u64 {
        h.core_access(0x8000 + i * 64, true, i);
    }
    // ...then the vector engine touches the same region.
    let lines: Vec<u64> = (0..32).map(|i| (0x8000 + i * 64) / 64).collect();
    h.vector_access(&LineSet::from_sorted(&lines), false, 1_000);
    assert_eq!(h.stats().coherence_evictions, 32);
}

#[test]
fn timing_sim_consumes_memory_traffic() {
    let mut e = Engine::default_mobile();
    e.vsetdimc(1);
    e.vsetdiml(0, 8192);
    let a = e.mem_alloc_typed::<i32>(8192);
    let v = e.vsld_dw(a, &[StrideMode::One]);
    e.vsst_dw(v, a, &[StrideMode::One]);
    let report = simulate(&e.take_trace(), &SimConfig::default());
    // 8192 i32 = 512 lines each way.
    assert_eq!(report.mem.vector_lines_read, 512);
    assert_eq!(report.mem.vector_lines_written, 512);
    assert!(report.data_cycles > 0);
}

#[test]
fn cold_caches_cost_more_than_warm() {
    let build = || {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, 8192);
        let a = e.mem_alloc_typed::<i32>(8192);
        for _ in 0..4 {
            let v = e.vsld_dw(a, &[StrideMode::One]);
            e.free(v);
        }
        e.take_trace()
    };
    let trace = build();
    let warm = simulate(&trace, &SimConfig::default());
    let cold = simulate(&trace, &SimConfig::default().without_cache_warming());
    assert!(
        cold.total_cycles > warm.total_cycles,
        "cold {} must exceed warm {}",
        cold.total_cycles,
        warm.total_cycles
    );
}
