//! The timing drivers over the real artefact workloads: a
//! `simulate_sweep` of every kernel trace of the 44-kernel suite (MVE) and
//! of the 11 selected RVV traces reports, per configuration,
//! **bit-identically** to an independent `simulate` of that configuration.
//! Configurations that warm over one hierarchy share a warm pass inside a
//! sweep, so these pin the shared pass to the independent one. Together
//! with CI's `reproduce --smoke --jobs` diff against the serial run, this
//! pins the smoke artefacts to one timing driver.

use mve_core::sim::{simulate, simulate_sweep, SimConfig};
use mve_core::trace::Trace;
use mve_insram::Scheme;
use mve_kernels::registry::{all_kernels, selected_kernels};
use mve_kernels::Scale;

/// Every simulator configuration the artefact harness exercises: the
/// Table IV default (fig 7/8/9/10/11/12a/12c), the four-scheme sweep
/// (fig 13), the array sweep (fig 12b), PUMICE dispatch (ext_pumice), and
/// the quiet ablation config.
fn artefact_configs() -> Vec<SimConfig> {
    let mut cfgs = vec![SimConfig::default()];
    cfgs.extend(
        Scheme::ALL
            .iter()
            .map(|&s| SimConfig::default().with_scheme(s)),
    );
    cfgs.extend(
        [8usize, 16, 64]
            .iter()
            .map(|&a| SimConfig::default().with_arrays(a)),
    );
    cfgs.push(SimConfig::default().with_ooo_dispatch());
    cfgs.push(SimConfig::default().without_mode_switch());
    cfgs
}

/// Asserts that one sweep of `trace` equals a `simulate` per configuration.
fn assert_sweep_matches_per_config(name: &str, trace: &Trace, cfgs: &[SimConfig]) {
    let swept = simulate_sweep(trace, cfgs);
    assert_eq!(swept.len(), cfgs.len());
    for (cfg, got) in cfgs.iter().zip(&swept) {
        assert_eq!(
            *got,
            simulate(trace, cfg),
            "{name}: sweep diverged from a lone run (scheme {:?}, arrays {}, ooo {})",
            cfg.scheme,
            cfg.geometry.arrays,
            cfg.ooo_dispatch
        );
    }
}

#[test]
fn every_mve_trace_times_alike_with_a_shared_warm_pass() {
    // Same hierarchy, so the second configuration takes a clone of the
    // first one's warmed hierarchy.
    let cfgs = [
        SimConfig::default(),
        SimConfig::default().with_scheme(Scheme::BitHybrid),
    ];
    for k in all_kernels() {
        let run = k.run_mve(Scale::Test);
        assert!(run.checked.ok(), "{}: functional mismatch", k.info().name);
        assert_sweep_matches_per_config(k.info().name, &run.trace, &cfgs);
    }
}

#[test]
fn artefact_config_sweep_matches_per_config_simulation() {
    let cfgs = artefact_configs();
    for k in selected_kernels() {
        let run = k.run_mve(Scale::Test);
        assert!(run.checked.ok(), "{}", k.info().name);
        assert_sweep_matches_per_config(k.info().name, &run.trace, &cfgs);
    }
}

#[test]
fn rvv_artefact_config_sweep_matches_per_config_simulation() {
    let cfgs = artefact_configs();
    for k in selected_kernels() {
        let run = k.run_rvv(Scale::Test).expect("selected kernels have RVV");
        assert!(run.checked.ok(), "{}", k.info().name);
        assert_sweep_matches_per_config(k.info().name, &run.trace, &cfgs);
    }
}
