//! End-to-end integration: every kernel of the 44-kernel suite computes the
//! right answer, produces a replayable trace, and simulates to a consistent
//! cycle breakdown; the selected kernels' RVV variants match too.

use mve_core::sim::{simulate, SimConfig};
use mve_kernels::registry::all_kernels;
use mve_kernels::Scale;

#[test]
fn every_kernel_is_functionally_correct_and_simulates() {
    for k in all_kernels() {
        let info = k.info();
        let run = k.run_mve(Scale::Test);
        assert!(
            run.checked.ok(),
            "{}: functional mismatch {:?}",
            info.name,
            run.checked
        );
        assert!(!run.trace.is_empty(), "{}: empty trace", info.name);
        let report = simulate(&run.trace, &SimConfig::default());
        assert!(report.total_cycles > 0, "{}: zero cycles", info.name);
        assert_eq!(
            report.idle_cycles + report.compute_cycles + report.data_cycles,
            report.total_cycles,
            "{}: breakdown must partition the makespan",
            info.name
        );
        assert!(
            report.utilization() <= 1.0 + 1e-9,
            "{}: utilization {} out of range",
            info.name,
            report.utilization()
        );
    }
}

#[test]
fn selected_rvv_variants_match_their_references() {
    for k in all_kernels().iter().filter(|k| k.info().selected) {
        let run = k.run_rvv(Scale::Test).expect("selected kernels have RVV");
        assert!(
            run.checked.ok(),
            "{}: RVV mismatch {:?}",
            k.info().name,
            run.checked
        );
        // Both bodies of a pair solve one problem: they check the same,
        // nonzero number of outputs.
        let mve = k.run_mve(Scale::Test).checked;
        assert!(
            mve.compared > 0 && mve.compared == run.checked.compared,
            "{}: MVE compares {} outputs, RVV {}",
            k.info().name,
            mve.compared,
            run.checked.compared
        );
    }
}

#[test]
fn multi_dimensional_kernels_issue_fewer_instructions_than_rvv() {
    // The Figure 11 claim, checked end-to-end for every selected kernel
    // with 2 or more dimensions.
    for k in all_kernels()
        .iter()
        .filter(|k| k.info().selected && k.info().dims >= 2)
    {
        let mve = k.run_mve(Scale::Test).trace.instr_mix();
        let rvv = k.run_rvv(Scale::Test).expect("rvv").trace.instr_mix();
        assert!(
            rvv.vector_total() > mve.vector_total(),
            "{}: RVV {} should exceed MVE {}",
            k.info().name,
            rvv.vector_total(),
            mve.vector_total()
        );
    }
}

#[test]
fn neon_profiles_are_plausible() {
    for k in all_kernels() {
        let p = k.neon_profile(Scale::Test);
        assert!(
            p.vector_instrs() > 0,
            "{}: Neon profile has no work",
            k.info().name
        );
        assert!(
            p.touched_bytes > 0,
            "{}: Neon profile touches no memory",
            k.info().name
        );
    }
}
