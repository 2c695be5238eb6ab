//! The figure drivers' results memo must be invisible: every artefact
//! renders the same bytes whether the memo is cold, warmed in either
//! order, or shared by concurrent renders, and a failed functional check
//! fails every call, not only the one that ran the kernel.
//!
//! The memo is process-wide, so these tests share it with each other; that
//! is harmless because it must not change any result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

use mve_bench::{artefacts, figures, platform};
use mve_coresim::neon::NeonProfile;
use mve_kernels::registry::{kernel_by_name, KernelInfo};
use mve_kernels::{Kernel, KernelRun, Scale};

fn render(name: &str) -> String {
    artefacts::render(name, Scale::Test).expect("registered artefact")
}

#[test]
fn artefacts_render_identically_cold_warm_and_concurrently() {
    let cold: Vec<String> = artefacts::NAMES
        .iter()
        .map(|name| {
            figures::clear_memo();
            render(name)
        })
        .collect();

    figures::clear_memo();
    let warm: Vec<String> = artefacts::NAMES.iter().map(|name| render(name)).collect();
    assert_eq!(warm, cold, "warm renders in registry order");

    figures::clear_memo();
    let mut reverse: Vec<String> = artefacts::NAMES
        .iter()
        .rev()
        .map(|name| render(name))
        .collect();
    reverse.reverse();
    assert_eq!(reverse, cold, "warm renders in reverse order");

    // Four threads pull artefacts off one queue, as `reproduce --jobs 4`
    // does: the figures that share kernels miss on the same keys at once.
    figures::clear_memo();
    let next = AtomicUsize::new(0);
    let start = Barrier::new(4);
    let concurrent: Vec<(usize, String)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let mut texts = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(name) = artefacts::NAMES.get(i) else {
                            return texts;
                        };
                        texts.push((i, render(name)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("render thread"))
            .collect()
    });
    assert_eq!(concurrent.len(), cold.len());
    for (i, text) in concurrent {
        assert_eq!(
            text,
            cold[i],
            "{} rendered concurrently",
            artefacts::NAMES[i]
        );
    }
}

/// `csum`, with its functional check reported as failed.
struct Miscompared;

impl Kernel for Miscompared {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "csum_miscompared",
            ..csum().info()
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let mut run = csum().run_mve(scale);
        run.checked.mismatches += 1;
        run
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        csum().neon_profile(scale)
    }
}

fn csum() -> Box<dyn Kernel> {
    kernel_by_name("csum").expect("registered kernel")
}

#[test]
fn a_failed_check_fails_every_call() {
    let cfgs = [platform::mve_config()];
    for call in 0..3 {
        let ev = figures::evaluate(&Miscompared, figures::Isa::Mve, Scale::Test, &cfgs);
        assert!(!ev.checked.ok(), "call {call} returned a passing check");
        assert_eq!(ev.checked.mismatches, 1, "call {call}");
    }
    let kernels: Vec<Box<dyn Kernel>> = vec![Box::new(Miscompared)];
    for call in 0..2 {
        let report = catch_unwind(AssertUnwindSafe(|| {
            figures::ext_pumice_report(Scale::Test, &kernels)
        }));
        assert!(report.is_err(), "call {call} rendered from a failed check");
    }
}
