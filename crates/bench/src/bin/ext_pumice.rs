//! Extension study: PUMICE-style out-of-order dispatch (Section VIII) —
//! vector memory accesses stall only the control blocks they touch.
//!
//! `--kernel NAME` (repeatable) restricts the study to named kernels from
//! the selected set. An unknown name exits non-zero with the registry's
//! sorted kernel vocabulary — the same message the `serve` daemon replies
//! with — instead of the old unhelpful failure mode.

use mve_bench::figures;
use mve_kernels::registry::{kernel_by_name, selected_kernels};
use mve_kernels::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--test-scale") {
        Scale::Test
    } else {
        Scale::Paper
    };

    let mut requested: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--kernel" => match args.get(i + 1) {
                Some(name) if !name.starts_with("--") => {
                    requested.push(name.clone());
                    i += 2;
                }
                _ => {
                    eprintln!("--kernel needs a kernel name");
                    std::process::exit(2);
                }
            },
            other => {
                if let Some(name) = other.strip_prefix("--kernel=") {
                    requested.push(name.to_owned());
                }
                i += 1;
            }
        }
    }

    let mut kernels = selected_kernels();
    if !requested.is_empty() {
        for name in &requested {
            // O(1) vocabulary check first: a typo gets the full sorted list.
            if let Err(unknown) = kernel_by_name(name) {
                eprintln!("{unknown}");
                std::process::exit(2);
            }
            if !kernels.iter().any(|k| k.info().name == *name) {
                let names: Vec<&str> = kernels.iter().map(|k| k.info().name).collect();
                eprintln!(
                    "kernel `{name}` is not in the selected extension-study set; \
                     selected kernels: {}",
                    names.join(", ")
                );
                std::process::exit(2);
            }
        }
        kernels.retain(|k| requested.iter().any(|n| n == k.info().name));
    }

    print!("{}", figures::ext_pumice_report(scale, &kernels));
}
