//! XNNPACK — `gemm` (dense, the Section IV replication listing) and `spmm`
//! (sparse × dense, the Section IV irregular-access listing).
//!
//! The registry kernels run in **fp16** — XNNPACK's FP16 inference mode, the
//! common configuration on Armv8.2 mobile cores (Table IV lists the FP16
//! extension). The Figure 9 sweep runs the same MVE bodies
//! ([`crate::precision`]) in f32 at arbitrary sizes (`run_mve_sized`) and
//! prices them against the fp32 CLBlast/clSPARSE OpenCL libraries
//! (`gpu_cost_sized`), exactly as the paper does.
//!
//! The fp16 RVV bodies here solve the MVE bodies' problems: the GEMM runs
//! inside the same setup and check (`precision::solve_gemm`), and the
//! SpMM generates the same native operands (`precision::SpmmOperands`) but
//! keeps its own memory layout, since MVE's adds value and pointer arrays.

use crate::common::{chunks, engine, finish, gen_f32, KernelRun, Lanes, Scale};
use crate::precision::{self, Native, Precision, SpmmOperands, F16};
use crate::registry::{Kernel, KernelInfo, Library};
use mve_baselines::gpu::GpuKernelCost;
use mve_baselines::rvv;
use mve_core::dtype::DType;
use mve_coresim::neon::{NeonOpClass, NeonProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Row-major dense GEMM with multi-dimensional replication (Section IV).
pub struct Gemm;

/// GEMM problem size (N×K input, K×M weight, N×M output).
#[derive(Debug, Clone, Copy)]
pub struct GemmSize {
    /// Input rows.
    pub n: usize,
    /// Reduction depth.
    pub k: usize,
    /// Output columns.
    pub m: usize,
}

impl Gemm {
    /// Problem size per scale (Paper: a MobileNet-class 1×1-conv layer).
    pub fn size(scale: Scale) -> GemmSize {
        match scale {
            Scale::Test => GemmSize {
                n: 16,
                k: 24,
                m: 64,
            },
            Scale::Paper => GemmSize {
                n: 64,
                k: 128,
                m: 128,
            },
        }
    }

    /// Runs the MVE GEMM of the Section IV listing in f32 for an
    /// arbitrary size (the Figure 9 sweep).
    pub fn run_mve_sized(s: GemmSize) -> KernelRun {
        precision::run_gemm_dims(Precision::F32, s.n, s.k, s.m)
    }
}

impl Kernel for Gemm {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "gemm",
            library: Library::Xnnpack,
            dims: 2,
            dtype_bits: 32,
            selected: true,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let s = Self::size(scale);
        precision::run_gemm_dims(Precision::F16, s.n, s.k, s.m)
    }

    fn run_rvv(&self, scale: Scale) -> Option<KernelRun> {
        // fp16, matching the MVE variant: same data, same accumulation order.
        let s = Self::size(scale);
        let (dt, eb) = (DType::F16, DType::F16.bytes());
        let run = precision::solve_gemm(Precision::F16, s.n, s.k, s.m, |e, [ia, wa, oa]| {
            let rows_per_tile = (e.lanes() / s.m).max(1);
            rvv::setvlmax(e);
            for (n, rows) in chunks(s.n, rows_per_tile) {
                rvv::setvl(e, rows * s.m);
                e.scalar(8);
                let mut acc = e.vsetdup_hf(0.0);
                for k in 0..s.k {
                    e.scalar(6);
                    // Input column replication needs an index-vector gather;
                    // the gather cost model covers any pattern, so patch the
                    // strided-column values in afterwards.
                    let col = ia + ((n * s.k + k) as u64) * eb;
                    let iv = rvv::replicated_load(e, dt, col, rows, s.m);
                    for r in 0..rows {
                        let v = e.mem().read_raw(col + (r * s.k) as u64 * eb, eb);
                        for m in 0..s.m {
                            e.set_lane_raw(iv, r * s.m + m, v);
                        }
                    }
                    // Weight row tiled per segment (stride-0 segments).
                    let row = wa + ((k * s.m) as u64) * eb;
                    let wv = rvv::segmented_load_2d(e, dt, row, s.m, rows, 0);
                    let p = e.vmul_hf(iv, wv);
                    let acc2 = e.vadd_hf(acc, p);
                    for r in [iv, wv, p, acc] {
                        e.free(r);
                    }
                    acc = acc2;
                }
                // Output rows are contiguous: a single unit-stride store.
                rvv::store_1d(e, acc, oa + ((n * s.m) as u64) * eb, 1);
                e.free(acc);
            }
        });
        Some(run)
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        // fp16: 8 lanes per 128-bit vector.
        let s = Self::size(scale);
        let (n, k, m) = (s.n as u64, s.k as u64, s.m as u64);
        let fmacs = n * k * m / 8;
        NeonProfile {
            ops: vec![
                (NeonOpClass::FpMac, fmacs),
                (NeonOpClass::Permute, n * k / 8),
            ],
            chain_ops: vec![(NeonOpClass::FpMac, k)],
            loads: n * k / 8 + n * k * m / 32,
            stores: n * m / 8,
            scalar_instrs: fmacs,
            touched_bytes: (n * k + k * m + n * m) * 2,
            base_addr: 0x200_0000,
        }
    }

    fn gpu_cost(&self, scale: Scale) -> Option<GpuKernelCost> {
        // fp16 on the GPU: double ALU rate (ops halved), half the bytes.
        let s = Self::size(scale);
        let (n, k, m) = (s.n as u64, s.k as u64, s.m as u64);
        Some(GpuKernelCost {
            ops: n * k * m,
            bytes_in: (n * k + k * m) * 2,
            bytes_out: n * m * 2,
            launches: 1,
        })
    }
}

impl Gemm {
    /// GPU cost for an arbitrary size (Figure 9 sweep).
    pub fn gpu_cost_sized(s: GemmSize) -> GpuKernelCost {
        let (n, k, m) = (s.n as u64, s.k as u64, s.m as u64);
        GpuKernelCost {
            ops: 2 * n * k * m,
            bytes_in: (n * k + k * m) * 4,
            bytes_out: n * m * 4,
            launches: 1,
        }
    }
}

/// Sparse (CSR) × dense matrix multiplication with random-base vector loads.
pub struct Spmm;

/// SpMM problem description.
#[derive(Debug, Clone, Copy)]
pub struct SpmmSize {
    /// Sparse rows.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Dense output columns (must be a power of two for the in-cache fold).
    pub m: usize,
    /// Nonzero density of the sparse matrix.
    pub density: f64,
}

/// A CSR matrix plus its dense operand.
pub struct SpmmData {
    /// CSR row offsets (len n+1).
    pub row_ptr: Vec<usize>,
    /// CSR column indices.
    pub col_idx: Vec<usize>,
    /// CSR values.
    pub values: Vec<f32>,
    /// Dense K×M weight.
    pub weight: Vec<f32>,
}

impl Spmm {
    /// Problem size per scale.
    pub fn size(scale: Scale) -> SpmmSize {
        match scale {
            Scale::Test => SpmmSize {
                n: 6,
                k: 48,
                m: 32,
                density: 0.3,
            },
            // An XNNPACK CNN-layer shape: wide output (M), sparse input.
            Scale::Paper => SpmmSize {
                n: 16,
                k: 256,
                m: 512,
                density: 0.3,
            },
        }
    }

    /// Deterministic CSR + weight generation.
    pub fn gen_data(s: SpmmSize, seed: u64) -> SpmmData {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut row_ptr = vec![0usize];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for _ in 0..s.n {
            for k in 0..s.k {
                if rng.gen_bool(s.density) {
                    col_idx.push(k);
                    values.push(rng.gen_range(-1.0f32..1.0));
                }
            }
            row_ptr.push(col_idx.len());
        }
        let weight = gen_f32(seed ^ 0x5555, s.k * s.m);
        SpmmData {
            row_ptr,
            col_idx,
            values,
            weight,
        }
    }

    /// MVE SpMM in f32 for an arbitrary size (the Figure 9 sweep).
    pub fn run_mve_sized(s: SpmmSize) -> KernelRun {
        precision::run_spmm_sized(Precision::F32, s, 0x31)
    }
}

impl Kernel for Spmm {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "spmm",
            library: Library::Xnnpack,
            dims: 2,
            dtype_bits: 32,
            selected: true,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        precision::run_spmm(Precision::F16, scale)
    }

    fn run_rvv(&self, scale: Scale) -> Option<KernelRun> {
        // RVV processes one nonzero at a time with M-lane 1-D operations —
        // the low-DLP path Section VII-A describes for SpMM. fp16, matching
        // the MVE variant's operands; checked against a sequential-order f16
        // reference. Only the weight is in memory: the nonzero values are
        // scalar operands.
        let (prec, dt) = (Precision::F16, DType::F16);
        let s = Self::size(scale);
        let ops = SpmmOperands::<F16>::generate(prec, s, 0xE5);
        let want = ops.sequential_ref();

        let mut e = engine();
        let wa = e.mem_alloc((s.k * s.m * 2) as u64);
        let oa = e.mem_alloc((s.n * s.m * 2) as u64);
        precision::store_native(&mut e, wa, dt, &ops.weight);

        rvv::setvlmax(&mut e);
        rvv::setvl(&mut e, s.m);
        for n in 0..s.n {
            e.scalar(10);
            let mut acc = e.vsetdup_hf(0.0);
            for j in ops.row_ptr[n]..ops.row_ptr[n + 1] {
                e.scalar(8); // pointer chase + loop
                let wv = rvv::load_1d(&mut e, dt, wa + (ops.col_idx[j] * s.m * 2) as u64, 1);
                let sv = e.setdup(dt, ops.values[j].to_lane());
                let p = e.vmul_hf(wv, sv);
                let acc2 = e.vadd_hf(acc, p);
                for r in [wv, sv, p, acc] {
                    e.free(r);
                }
                acc = acc2;
            }
            rvv::store_1d(&mut e, acc, oa + (n * s.m * 2) as u64, 1);
            e.free(acc);
        }
        Some(finish(e, oa, &Lanes(dt, &want)))
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        // fp16: 8 lanes per 128-bit vector.
        let s = Self::size(scale);
        let nnz = (s.n * s.k) as f64 * s.density;
        let per_nz = s.m as u64 / 8;
        let fmacs = (nnz * per_nz as f64) as u64;
        NeonProfile {
            ops: vec![(NeonOpClass::FpMac, fmacs)],
            chain_ops: vec![],
            loads: fmacs + nnz as u64,
            stores: (s.n * s.m / 8) as u64,
            scalar_instrs: 6 * nnz as u64 + fmacs,
            touched_bytes: ((s.k * s.m + s.n * s.m) * 2) as u64,
            base_addr: 0x300_0000,
        }
    }

    fn gpu_cost(&self, scale: Scale) -> Option<GpuKernelCost> {
        // fp16 on the GPU: double ALU rate, half the bytes.
        let s = Self::size(scale);
        let nnz = ((s.n * s.k) as f64 * s.density) as u64;
        Some(GpuKernelCost {
            ops: nnz * s.m as u64,
            bytes_in: nnz * 6 + (s.k * s.m * 2) as u64,
            bytes_out: (s.n * s.m * 2) as u64,
            launches: 1,
        })
    }
}

impl Spmm {
    /// GPU cost for an arbitrary size (Figure 9 sweep).
    pub fn gpu_cost_sized(s: SpmmSize) -> GpuKernelCost {
        let nnz = ((s.n * s.k) as f64 * s.density) as u64;
        GpuKernelCost {
            ops: 2 * nnz * s.m as u64,
            bytes_in: nnz * 8 + (s.k * s.m * 4) as u64,
            bytes_out: (s.n * s.m * 4) as u64,
            launches: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_mve_matches_reference() {
        let run = Gemm.run_mve(Scale::Test);
        assert!(run.checked.ok(), "{:?}", run.checked);
    }

    #[test]
    fn gemm_rvv_matches_reference() {
        let run = Gemm.run_rvv(Scale::Test).expect("selected");
        assert!(run.checked.ok(), "{:?}", run.checked);
    }

    #[test]
    fn gemm_rvv_needs_many_more_instructions() {
        // The Figure 11 claim: RVV's per-segment emulation inflates the
        // dynamic vector instruction count on 2-D kernels.
        let mve = Gemm.run_mve(Scale::Test).trace.instr_mix();
        let rvv = Gemm.run_rvv(Scale::Test).expect("rvv").trace.instr_mix();
        assert!(
            rvv.vector_total() > 2 * mve.vector_total(),
            "rvv {} vs mve {}",
            rvv.vector_total(),
            mve.vector_total()
        );
        assert!(rvv.scalar > mve.scalar);
    }

    #[test]
    fn spmm_mve_matches_reference() {
        let run = Spmm.run_mve(Scale::Test);
        assert!(run.checked.ok(), "{:?}", run.checked);
    }

    #[test]
    fn spmm_rvv_matches_reference() {
        let run = Spmm.run_rvv(Scale::Test).expect("selected");
        assert!(run.checked.ok(), "{:?}", run.checked);
    }

    #[test]
    fn spmm_mve_uses_random_loads() {
        let run = Spmm.run_mve(Scale::Test);
        let has_random = run.trace.events().iter().any(|ev| {
            matches!(
                ev,
                mve_core::trace::Event::Memory {
                    opcode: mve_core::isa::Opcode::RandomLoad,
                    ..
                }
            )
        });
        assert!(has_random, "SpMM must use vrld");
    }
}
