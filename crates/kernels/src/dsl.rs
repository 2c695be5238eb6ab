//! The [`Kernel`]-trait adapter for compiled `.mvel` kernels, so
//! client-submitted programs flow through the same machinery as the 44
//! hand-written Table III kernels: `simulate`/`simulate_sweep` and the
//! trace tooling consume a [`KernelRun`] without knowing whether a
//! compiler produced it.
//!
//! DSL kernels declare their own shapes, so [`Scale`] is ignored — a
//! `.mvel` file is its own dataset description. They are never registered
//! in the Table III suite ([`crate::registry::all_kernels`] stays at 44);
//! the adapter exists for ad-hoc execution paths.

use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

use crate::common::{Checked, KernelRun, Scale};
use crate::registry::{Kernel, KernelInfo, Library};
use mve_coresim::neon::{NeonOpClass, NeonProfile};
use mve_insram::scheme::EngineGeometry;
use mve_lang::{compare_outputs, compile, interpret, Bindings, CompiledKernel, Diag, Executor};

/// Interns a kernel name as `&'static str` ([`KernelInfo::name`] requires
/// a static lifetime). Repeated compiles of the same name reuse the
/// interned copy, so a long-running daemon leaks at most one string per
/// distinct kernel name, not per compile.
fn intern(name: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(&existing) = set.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

/// A compiled `.mvel` kernel behind the [`Kernel`] trait.
pub struct DslKernel {
    compiled: CompiledKernel,
    info: KernelInfo,
}

impl DslKernel {
    /// Compiles `source` and wraps it as a [`Kernel`].
    pub fn compile(source: &str) -> Result<Self, Diag> {
        let compiled = compile(source)?;
        let dims = compiled
            .program
            .ops
            .iter()
            .filter_map(|op| op.sem.as_ref().map(|s| s.shape.len()))
            .max()
            .unwrap_or(1);
        let info = KernelInfo {
            name: intern(&compiled.program.name),
            library: Library::Dsl,
            dims,
            dtype_bits: compiled.kernel_width,
            selected: false,
        };
        Ok(Self { compiled, info })
    }

    /// The underlying compiled kernel (metadata, allocated code).
    pub fn compiled(&self) -> &CompiledKernel {
        &self.compiled
    }
}

impl Kernel for DslKernel {
    fn info(&self) -> KernelInfo {
        self.info
    }

    /// Executes the compiled program on a fresh engine with deterministic
    /// bindings and checks it against the AST interpreter. `scale` is
    /// ignored (the kernel's declared shapes are its dataset), but the
    /// thread's [`crate::common::set_engine_arrays`] override is honored
    /// like every registry kernel.
    ///
    /// # Panics
    ///
    /// Panics when the thread's engine-arrays override provides fewer
    /// lanes than the kernel's widest shape needs — a DSL kernel cannot
    /// shrink its declared shapes the way hand-written kernels do.
    fn run_mve(&self, _scale: Scale) -> KernelRun {
        let bindings = Bindings::deterministic(&self.compiled.program);
        let geometry = EngineGeometry::with_arrays(crate::common::engine_arrays());
        let mut ex = Executor::with_geometry(&self.compiled, &bindings, geometry)
            .unwrap_or_else(|e| panic!("{e}"));
        ex.run();
        let want = interpret(&self.compiled.ast, &self.compiled.program.params, &bindings);
        let check = compare_outputs(&ex.outputs(), &want);
        KernelRun {
            trace: ex.engine_mut().take_trace(),
            checked: Checked {
                compared: check.compared,
                mismatches: check.mismatches,
            },
        }
    }

    /// A coarse synthetic Neon estimate (DSL kernels never appear in the
    /// Figure 7 suite comparison; the profile only keeps generic tooling
    /// total-agnostic): one 128-bit op per 4 lanes per lowered compute op,
    /// one load/store per 4 lanes per memory op.
    fn neon_profile(&self, _scale: Scale) -> NeonProfile {
        let mut ops = 0u64;
        let mut loads = 0u64;
        let mut stores = 0u64;
        let mut touched = 0u64;
        for op in &self.compiled.program.ops {
            let Some(sem) = &op.sem else { continue };
            let total: u64 = sem.shape.iter().product::<usize>() as u64;
            let vecs = total.div_ceil(4).max(1);
            use mve_core::compiler::Action;
            match &sem.action {
                Action::Load { .. } => {
                    loads += vecs;
                    touched += total * sem.dtype.bytes();
                }
                Action::Store { .. } => {
                    stores += vecs;
                    touched += total * sem.dtype.bytes();
                }
                Action::Reduce { .. } => ops += 2 * vecs,
                _ => ops += vecs,
            }
        }
        NeonProfile {
            ops: vec![(NeonOpClass::IntSimple, ops.max(1))],
            chain_ops: vec![],
            loads,
            stores,
            scalar_instrs: (loads + stores + ops) / 2,
            touched_bytes: touched.max(64),
            base_addr: 0x200_0000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE2: &str = r#"
kernel scale2(x: buf<i32>[2048], out: mut buf<i32>[2048]) {
    shape [2048];
    let v = load x [1];
    store v + v -> out [1];
}
"#;

    #[test]
    fn dsl_kernel_runs_through_the_kernel_trait() {
        let k = DslKernel::compile(SCALE2).unwrap();
        assert_eq!(k.info().name, "scale2");
        assert_eq!(k.info().library, Library::Dsl);
        assert_eq!(k.info().dtype_bits, 32);
        let run = k.run_mve(Scale::Test);
        assert!(run.checked.ok(), "{:?}", run.checked);
        assert!(run.trace.instr_mix().mem_access >= 2);
        // Scale is declared in the source, not by the harness.
        let paper = k.run_mve(Scale::Paper);
        assert_eq!(paper.checked, run.checked);
        assert!(k.neon_profile(Scale::Test).loads > 0);
    }

    #[test]
    fn engine_arrays_override_is_honored_like_registry_kernels() {
        let k = DslKernel::compile(SCALE2).unwrap();
        // 16 arrays → 4096 lanes: the 2048-lane kernel fits and runs on
        // the overridden geometry, exactly like the fig12b sweep expects.
        let _guard = crate::common::EngineArraysGuard::new(16);
        let run = k.run_mve(Scale::Test);
        assert!(run.checked.ok(), "{:?}", run.checked);
    }

    #[test]
    fn too_narrow_engine_override_panics_with_a_diagnostic() {
        let k = DslKernel::compile(SCALE2).unwrap();
        // 4 arrays → 1024 lanes: the 2048-lane kernel cannot shrink.
        let _guard = crate::common::EngineArraysGuard::new(4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| k.run_mve(Scale::Test)))
            .expect_err("must refuse the narrow geometry");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("2048-lane shape"), "{msg}");
    }

    #[test]
    fn interning_is_stable_across_compiles() {
        let a = DslKernel::compile(SCALE2).unwrap();
        let b = DslKernel::compile(SCALE2).unwrap();
        assert!(std::ptr::eq(a.info().name, b.info().name));
    }

    #[test]
    fn compile_errors_surface_with_positions() {
        let Err(err) =
            DslKernel::compile("kernel broken(x: buf<i32>[4]) {\n    store y -> x [1];\n}")
        else {
            panic!("broken kernel must not compile");
        };
        assert_eq!(err.span.line, 2);
    }
}
