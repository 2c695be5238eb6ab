//! Linpack — `daxpy` (the paper's LPACK kernel, 1-D, f32).
//!
//! The MVE and RVV bodies solve one problem: `Daxpy::solve` generates the
//! operands and the reference once, writes them to a fresh engine, runs
//! the body and checks its output.

use crate::common::{chunks, engine, finish, gen_f32, KernelRun, Scale, Within};
use crate::registry::{Kernel, KernelInfo, Library};
use mve_baselines::gpu::GpuKernelCost;
use mve_baselines::rvv;
use mve_core::dtype::DType;
use mve_core::engine::Engine;
use mve_core::isa::StrideMode;
use mve_coresim::neon::{NeonOpClass, NeonProfile};

/// `y[i] += a * x[i]` over a long vector.
pub struct Daxpy;

/// The scalar `a` of every run.
const A: f32 = 2.5;

impl Daxpy {
    fn n(scale: Scale) -> usize {
        match scale {
            Scale::Test => 16 * 1024,
            Scale::Paper => 512 * 1024,
        }
    }

    /// Scalar reference.
    pub fn scalar_ref(a: f32, x: &[f32], y: &[f32]) -> Vec<f32> {
        x.iter().zip(y).map(|(xi, yi)| a * xi + yi).collect()
    }

    /// The problem both bodies solve: writes `x` and `y` to a fresh
    /// engine, runs `body(e, n, [x, y, out])` with the arrays' addresses,
    /// and checks the output it stores against the reference.
    fn solve(scale: Scale, body: impl FnOnce(&mut Engine, usize, [u64; 3])) -> KernelRun {
        let n = Self::n(scale);
        let x = gen_f32(0x11, n);
        let y = gen_f32(0x12, n);
        let want = Self::scalar_ref(A, &x, &y);

        let mut e = engine();
        let [xa, ya, oa] = [(); 3].map(|_| e.mem_alloc_typed::<f32>(n));
        e.mem_fill(xa, &x);
        e.mem_fill(ya, &y);
        body(&mut e, n, [xa, ya, oa]);
        finish(e, oa, &Within(&want, 1e-6))
    }
}

impl Kernel for Daxpy {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "lpack",
            library: Library::Linpack,
            dims: 1,
            dtype_bits: 32,
            selected: true,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        Self::solve(scale, |e, n, [xa, ya, oa]| {
            let lanes = e.lanes();
            e.vsetdimc(1);
            e.vsetdiml(0, lanes.min(n));
            let av = e.vsetdup_f(A);
            for (base, chunk) in chunks(n, lanes) {
                let off = base as u64 * 4;
                e.vsetdiml(0, chunk);
                e.scalar(6); // loop control + address updates
                let xv = e.vsld_f(xa + off, &[StrideMode::One]);
                let yv = e.vsld_f(ya + off, &[StrideMode::One]);
                let p = e.vmul_f(xv, av);
                let s = e.vadd_f(p, yv);
                e.vsst_f(s, oa + off, &[StrideMode::One]);
                for r in [xv, yv, p, s] {
                    e.free(r);
                }
            }
        })
    }

    fn run_rvv(&self, scale: Scale) -> Option<KernelRun> {
        Some(Self::solve(scale, |e, n, [xa, ya, oa]| {
            rvv::setvlmax(e);
            for (base, chunk) in chunks(n, e.lanes()) {
                let off = base as u64 * 4;
                rvv::setvl(e, chunk);
                e.scalar(6);
                let xv = rvv::load_1d(e, DType::F32, xa + off, 1);
                let yv = rvv::load_1d(e, DType::F32, ya + off, 1);
                let av = e.vsetdup_f(A);
                let p = e.vmul_f(xv, av);
                let s = e.vadd_f(p, yv);
                rvv::store_1d(e, s, oa + off, 1);
                for r in [xv, yv, av, p, s] {
                    e.free(r);
                }
            }
        }))
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let n = Self::n(scale) as u64;
        let vecs = n / 4; // 4 f32 lanes per 128-bit vector
        NeonProfile {
            ops: vec![(NeonOpClass::FpMac, vecs)],
            chain_ops: vec![],
            loads: 2 * vecs,
            stores: vecs,
            scalar_instrs: 2 * vecs,
            touched_bytes: 3 * n * 4,
            base_addr: 0x100_0000,
        }
    }

    fn gpu_cost(&self, scale: Scale) -> Option<GpuKernelCost> {
        let n = Self::n(scale) as u64;
        Some(GpuKernelCost {
            ops: 2 * n,
            bytes_in: 2 * n * 4,
            bytes_out: n * 4,
            launches: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mve_matches_reference() {
        let run = Daxpy.run_mve(Scale::Test);
        assert!(run.checked.ok(), "{:?}", run.checked);
        assert!(run.trace.instr_mix().mem_access > 0);
    }

    #[test]
    fn rvv_matches_reference() {
        let run = Daxpy.run_rvv(Scale::Test).expect("selected kernel");
        assert!(run.checked.ok(), "{:?}", run.checked);
    }

    #[test]
    fn rvv_and_mve_cost_similarly_in_1d() {
        // LPACK is 1-D: RVV should not blow up the instruction count
        // (Figure 10 shows near-parity for 1-D kernels).
        let mve = Daxpy.run_mve(Scale::Test);
        let rvv = Daxpy.run_rvv(Scale::Test).expect("rvv");
        let m = mve.trace.instr_mix().vector_total();
        let r = rvv.trace.instr_mix().vector_total();
        assert!((r as f64) < 1.5 * m as f64, "rvv {r} vs mve {m}");
    }
}
