//! CMSIS-DSP — the three FIR variants of the paper's selected set.
//!
//! CMSIS-DSP is Arm's fixed-point DSP library, so the variants use its
//! fixed-point types: FIR-V (q15/i16, 32 taps), FIR-S (q7/i8, 16 taps),
//! FIR-L (q31/i32, 128 taps). Low precision is where bit-serial in-cache
//! computing shines (Figure 12(c)): arithmetic latency is quadratic in the
//! element width.

use crate::common::{check_exact, engine, gen_i16, KernelRun, Scale};
use crate::registry::{Kernel, KernelInfo, Library};
use mve_baselines::gpu::GpuKernelCost;
use mve_baselines::rvv::Rvv;
use mve_core::dtype::{BinOp, DType};
use mve_core::isa::{Opcode, StrideMode};
use mve_coresim::neon::{NeonOpClass, NeonProfile};

/// The FIR filter family; variant selects precision and tap count.
#[derive(Debug, Clone, Copy)]
pub enum Fir {
    /// q15 (i16), 32 taps.
    V,
    /// q7 (i8), 16 taps.
    S,
    /// q31 (i32), 128 taps.
    L,
}

impl Fir {
    fn taps(&self) -> usize {
        match self {
            Fir::V => 32,
            Fir::S => 16,
            Fir::L => 128,
        }
    }

    fn dtype(&self) -> DType {
        match self {
            Fir::V => DType::I16,
            Fir::S => DType::I8,
            Fir::L => DType::I32,
        }
    }

    fn samples(scale: Scale) -> usize {
        match scale {
            Scale::Test => 8 * 1024,
            Scale::Paper => 192 * 1024,
        }
    }

    /// Deterministic sample/coefficient data as canonical lane values.
    fn gen_lanes(&self, seed: u64, n: usize) -> Vec<u64> {
        let dt = self.dtype();
        gen_i16(seed, n)
            .iter()
            .map(|&v| dt.from_i64(i64::from(v)))
            .collect()
    }

    /// Scalar reference in the variant's exact wrap-around semantics:
    /// `y[i] = Σ_t h[t]·x[i+t]` (mod 2^width). A native u32 wrapping dot
    /// product is exact for every variant: the lanes are at most 32 bits
    /// wide, and the low bits of a wrapping sum of products depend only on
    /// the low bits of the operands.
    pub fn scalar_ref(&self, x: &[u64], h: &[u64]) -> Vec<u64> {
        let mask = self.dtype().lane_mask();
        x.windows(h.len())
            .map(|w| {
                let dot = w.iter().zip(h).fold(0u32, |acc, (&xv, &c)| {
                    acc.wrapping_add((c as u32).wrapping_mul(xv as u32))
                });
                u64::from(dot) & mask
            })
            .collect()
    }

    fn run_mve_impl(&self, scale: Scale) -> KernelRun {
        let dt = self.dtype();
        let eb = dt.bytes();
        let n = Self::samples(scale);
        let taps = self.taps();
        let x = self.gen_lanes(0x41, n);
        let h = self.gen_lanes(0x42, taps);
        let want = self.scalar_ref(&x, &h);
        let n_out = want.len();

        let mut e = engine();
        e.vsetwidth(dt.bits().max(8));
        let xa = e.mem_alloc(n as u64 * eb);
        let oa = e.mem_alloc(n_out as u64 * eb);
        for (i, &v) in x.iter().enumerate() {
            e.mem_mut().write_raw(xa + i as u64 * eb, eb, v);
        }

        let lanes = e.lanes();
        e.vsetdimc(1);
        let mut base = 0usize;
        while base < n_out {
            let chunk = lanes.min(n_out - base);
            e.vsetdiml(0, chunk);
            e.scalar(6);
            let mut acc = e.setdup(dt, 0);
            for (t, &c) in h.iter().enumerate() {
                e.scalar(4);
                let xv = e.load(dt, xa + ((base + t) as u64) * eb, &[StrideMode::One]);
                let cv = e.setdup(dt, c);
                let p = e.binop(Opcode::Mul, BinOp::Mul, xv, cv);
                let acc2 = e.binop(Opcode::Add, BinOp::Add, acc, p);
                for r in [xv, cv, p, acc] {
                    e.free(r);
                }
                acc = acc2;
            }
            e.store(acc, oa + (base as u64) * eb, &[StrideMode::One]);
            e.free(acc);
            base += chunk;
        }
        let got: Vec<u64> = (0..n_out)
            .map(|i| e.mem().read_raw(oa + i as u64 * eb, eb))
            .collect();
        KernelRun {
            checked: check_exact(&got, &want),
            trace: e.take_trace(),
        }
    }

    fn run_rvv_impl(&self, scale: Scale) -> KernelRun {
        // FIR is 1-D, so the RVV version mirrors the MVE structure with
        // 1-D loads — near parity, as Figure 10 shows.
        let dt = self.dtype();
        let eb = dt.bytes();
        let n = Self::samples(scale);
        let taps = self.taps();
        let x = self.gen_lanes(0x41, n);
        let h = self.gen_lanes(0x42, taps);
        let want = self.scalar_ref(&x, &h);
        let n_out = want.len();

        let mut e = engine();
        e.vsetwidth(dt.bits().max(8));
        let xa = e.mem_alloc(n as u64 * eb);
        let oa = e.mem_alloc(n_out as u64 * eb);
        for (i, &v) in x.iter().enumerate() {
            e.mem_mut().write_raw(xa + i as u64 * eb, eb, v);
        }

        let lanes = e.lanes();
        let mut rvv = Rvv::new(&mut e);
        let mut base = 0usize;
        while base < n_out {
            let chunk = lanes.min(n_out - base);
            rvv.setvl(chunk);
            rvv.engine().scalar(6);
            let mut acc = rvv.engine().setdup(dt, 0);
            for (t, &c) in h.iter().enumerate() {
                rvv.engine().scalar(4);
                let xv = rvv.load_1d(dt, xa + ((base + t) as u64) * eb, 1);
                let en = rvv.engine();
                let cv = en.setdup(dt, c);
                let p = en.binop(Opcode::Mul, BinOp::Mul, xv, cv);
                let acc2 = en.binop(Opcode::Add, BinOp::Add, acc, p);
                for r in [xv, cv, p, acc] {
                    en.free(r);
                }
                acc = acc2;
            }
            rvv.store_1d(acc, oa + (base as u64) * eb, 1);
            rvv.engine().free(acc);
            base += chunk;
        }
        let got: Vec<u64> = (0..n_out)
            .map(|i| e.mem().read_raw(oa + i as u64 * eb, eb))
            .collect();
        KernelRun {
            checked: check_exact(&got, &want),
            trace: e.take_trace(),
        }
    }
}

impl Kernel for Fir {
    fn info(&self) -> KernelInfo {
        let (name, bits) = match self {
            Fir::V => ("fir_v", 16),
            Fir::S => ("fir_s", 8),
            Fir::L => ("fir_l", 32),
        };
        KernelInfo {
            name,
            library: Library::CmsisDsp,
            dims: 1,
            dtype_bits: bits,
            selected: true,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        self.run_mve_impl(scale)
    }

    fn run_rvv(&self, scale: Scale) -> Option<KernelRun> {
        Some(self.run_rvv_impl(scale))
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let n = Self::samples(scale) as u64;
        let taps = self.taps() as u64;
        let lanes = u64::from(128 / self.dtype().bits());
        let macs = n * taps / lanes;
        NeonProfile {
            ops: vec![(NeonOpClass::IntMul, macs)],
            chain_ops: vec![(NeonOpClass::IntMul, taps)],
            loads: macs,
            stores: n / lanes,
            scalar_instrs: macs,
            touched_bytes: n * self.dtype().bytes(),
            base_addr: 0x400_0000,
        }
    }

    fn gpu_cost(&self, scale: Scale) -> Option<GpuKernelCost> {
        let n = Self::samples(scale) as u64;
        let taps = self.taps() as u64;
        let esize = self.dtype().bytes();
        Some(GpuKernelCost {
            ops: 2 * n * taps,
            bytes_in: n * esize,
            bytes_out: n * esize,
            launches: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Checked;

    fn assert_ok(c: &Checked) {
        assert!(c.ok(), "{c:?}");
    }

    #[test]
    fn fir_v_mve_and_rvv_match() {
        assert_ok(&Fir::V.run_mve(Scale::Test).checked);
        assert_ok(&Fir::V.run_rvv(Scale::Test).expect("rvv").checked);
    }

    #[test]
    fn fir_s_mve_and_rvv_match() {
        assert_ok(&Fir::S.run_mve(Scale::Test).checked);
        assert_ok(&Fir::S.run_rvv(Scale::Test).expect("rvv").checked);
    }

    #[test]
    fn fir_l_mve_matches() {
        assert_ok(&Fir::L.run_mve(Scale::Test).checked);
        assert_ok(&Fir::L.run_rvv(Scale::Test).expect("rvv").checked);
    }

    #[test]
    fn tap_counts_scale_instruction_count() {
        let v = Fir::V.run_mve(Scale::Test).trace.instr_mix().vector_total();
        let l = Fir::L.run_mve(Scale::Test).trace.instr_mix().vector_total();
        assert!(l > 3 * v, "128 taps must cost more than 32: {l} vs {v}");
    }

    #[test]
    fn scalar_ref_wraps_like_fixed_point() {
        // q7 products wrap at 8 bits, matching the engine's semantics.
        let f = Fir::S;
        let x = vec![DType::I8.from_i64(100), DType::I8.from_i64(50)];
        let h = vec![DType::I8.from_i64(3)];
        let y = f.scalar_ref(&x, &h);
        assert_eq!(DType::I8.to_i64(y[0]), i64::from(100i8.wrapping_mul(3)));
    }

    /// The generic `DType::binop` fold the native dot product replaced.
    fn binop_fold_ref(dt: DType, x: &[u64], h: &[u64]) -> Vec<u64> {
        (0..=x.len() - h.len())
            .map(|i| {
                h.iter().enumerate().fold(0u64, |acc, (t, &c)| {
                    let p = dt.binop(BinOp::Mul, c, x[i + t]);
                    dt.binop(BinOp::Add, acc, p)
                })
            })
            .collect()
    }

    /// Deterministic full-range canonical lanes (xorshift).
    fn raw_lanes(dt: DType, seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                dt.truncate(s)
            })
            .collect()
    }

    proptest::proptest! {
        /// The native reference equals the `DType::binop` fold for every
        /// variant on generated full-range samples and tap counts.
        #[test]
        fn native_scalar_ref_matches_binop_fold(
            variant in 0usize..3,
            taps in 1usize..=160,
            extra in 0usize..96,
            seed: u64,
        ) {
            let f = [Fir::V, Fir::S, Fir::L][variant];
            let dt = f.dtype();
            let x = raw_lanes(dt, seed, taps + extra);
            let h = raw_lanes(dt, seed.rotate_left(17) ^ 0x9E37, taps);
            proptest::prop_assert_eq!(f.scalar_ref(&x, &h), binop_fold_ref(dt, &x, &h));
        }
    }
}
