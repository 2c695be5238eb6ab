//! The results memo's plan: one functional run of each kernel feeds every
//! timing a pass reads. fig7 runs fig13's RVV kernels too, and times each
//! MVE and RVV run under the configurations fig10, fig13 and ext_pumice
//! read, so they run no kernel again; a lone fig10 still runs only what it
//! needs.
//!
//! The memo and the kernel-run counter are process-wide, so this file is
//! its own test binary and its checks run in one test, in order.

use mve_bench::{artefacts, figures};
use mve_kernels::Scale;

/// Kernel runs `(MVE, RVV)` made while rendering `name`.
fn runs_for(name: &str) -> (usize, usize) {
    let count = || {
        (
            figures::kernel_runs(figures::Isa::Mve),
            figures::kernel_runs(figures::Isa::Rvv),
        )
    };
    let before = count();
    artefacts::render(name, Scale::Test).expect("registered artefact");
    let after = count();
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn fig7_runs_every_kernel_once_for_the_later_figures() {
    figures::clear_memo();
    assert_eq!(
        runs_for("fig7"),
        (44, 9),
        "fig7 runs all 44 MVE kernels and fig13's nine RVV kernels"
    );
    assert_eq!(runs_for("fig10"), (0, 0), "fig10 reads fig7's");
    assert_eq!(runs_for("fig13"), (0, 0), "fig13 reads fig7's");
    assert_eq!(runs_for("ext_pumice"), (0, 0), "ext_pumice reads fig7's");

    // A lone fig10 (serve's common cold request) runs its nine kernels
    // once per ISA and times nothing it does not render.
    figures::clear_memo();
    assert_eq!(runs_for("fig10"), (9, 9), "lone fig10");
}
