//! Skia — 2-D graphics kernels: source-over blending with per-pixel alpha
//! replication, 32-bit fills, horizontal convolution and the multiply
//! transfer mode.
//!
//! The multiply transfer mode computes what libwebp's alpha
//! premultiplication does, `(a·b + 255) >> 8` per byte, at the same sizes,
//! so both kernels run one body, `multiply_bytes`, on their own seeds.

use crate::common::{chunks, engine, finish, gen_u8, KernelRun, Scale};
use crate::registry::{Kernel, KernelInfo, Library};
use mve_core::dtype::DType;
use mve_core::isa::StrideMode;
use mve_coresim::neon::{NeonOpClass, NeonProfile};

fn npix(scale: Scale) -> usize {
    match scale {
        Scale::Test => 2 * 1024,
        Scale::Paper => 320 * 180,
    }
}

/// Source-over blit of premultiplied RGBA rows: per byte,
/// `out = src + ((dst · (255 - srcA)) >> 8)` with the pixel's alpha
/// replicated across its four channels (a stride-0 dimension).
pub struct BlitRow;

impl Kernel for BlitRow {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "skia_blit_row",
            library: Library::Skia,
            dims: 2,
            dtype_bits: 16,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let px = npix(scale);
        let src = gen_u8(0x91, 4 * px);
        let dst = gen_u8(0x92, 4 * px);
        let want: Vec<u8> = (0..4 * px)
            .map(|i| {
                let a = u16::from(src[i / 4 * 4 + 3]);
                let d = u16::from(dst[i]);
                (u16::from(src[i]) + ((d * (255 - a)) >> 8)) as u8
            })
            .collect();

        let mut e = engine();
        e.vsetwidth(16);
        let sa = e.mem_alloc_typed::<u8>(4 * px);
        let da = e.mem_alloc_typed::<u8>(4 * px);
        let oa = e.mem_alloc_typed::<u8>(4 * px);
        e.mem_fill(sa, &src);
        e.mem_fill(da, &dst);

        let lanes = e.lanes();
        let px_per_tile = (lanes / 4).min(px);
        // 2-D: channel (DIM0, 4 lanes), pixel (DIM1).
        e.vsetdimc(2);
        e.vsetdiml(0, 4);
        e.vsetldstr(1, 4);
        e.vsetststr(1, 4);
        for (p, np) in chunks(px, px_per_tile) {
            e.vsetdiml(1, np);
            e.scalar(8);
            let m = [StrideMode::One, StrideMode::Cr];
            let s8 = e.vsld_ub(sa + (4 * p) as u64, &m);
            let d8 = e.vsld_ub(da + (4 * p) as u64, &m);
            // Alpha replicated across the channel dimension (stride 0).
            let a8 = e.vsld_ub(sa + (4 * p + 3) as u64, &[StrideMode::Zero, StrideMode::Cr]);
            let d = e.vcvt(d8, DType::U16);
            e.free(d8);
            let a = e.vcvt(a8, DType::U16);
            e.free(a8);
            let c255 = e.vsetdup_uw(255);
            let inv = e.vsub_uw(c255, a);
            e.free(c255);
            e.free(a);
            let t = e.vmul_uw(d, inv);
            e.free(d);
            e.free(inv);
            let sh = e.vshir_uw(t, 8);
            e.free(t);
            let s = e.vcvt(s8, DType::U16);
            e.free(s8);
            let o = e.vadd_uw(s, sh);
            e.free(s);
            e.free(sh);
            let o8 = e.vcvt(o, DType::U8);
            e.free(o);
            e.vsst_ub(o8, oa + (4 * p) as u64, &m);
            e.free(o8);
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = npix(scale) as u64 / 2; // 16-bit math, 8 lanes, 4 ch
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntMul, v),
                (NeonOpClass::IntSimple, v * 2),
                (NeonOpClass::Shift, v),
                (NeonOpClass::Permute, v * 2), // alpha duplication
            ],
            chain_ops: vec![],
            loads: v,
            stores: v / 2,
            scalar_instrs: v,
            touched_bytes: npix(scale) as u64 * 12,
            base_addr: 0x1800_0000,
        }
    }
}

/// 32-bit colour fill (`sk_memset32`).
pub struct Memset32;

impl Kernel for Memset32 {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "skia_memset32",
            library: Library::Skia,
            dims: 1,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let n = npix(scale);
        let colour: u32 = 0xFF00_7F3C;
        let want = vec![colour; n];

        let mut e = engine();
        let oa = e.mem_alloc_typed::<u32>(n);
        let lanes = e.lanes();
        e.vsetdimc(1);
        for (base, chunk) in chunks(n, lanes) {
            e.vsetdiml(0, chunk);
            e.scalar(4);
            let v = e.vsetdup_udw(colour);
            e.vsst_udw(v, oa + (base * 4) as u64, &[StrideMode::One]);
            e.free(v);
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = npix(scale) as u64 / 4;
        NeonProfile {
            ops: vec![],
            chain_ops: vec![],
            loads: 0,
            stores: v,
            scalar_instrs: v / 2,
            touched_bytes: npix(scale) as u64 * 4,
            base_addr: 0x1900_0000,
        }
    }
}

/// 4-tap horizontal convolution (`convolve_horizontally`), 8-bit pixels with
/// 16.16-style fixed-point weights accumulated in 32 bits.
pub struct ConvolveHoriz;

impl Kernel for ConvolveHoriz {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "skia_convolve",
            library: Library::Skia,
            dims: 1,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let n = npix(scale);
        let src = gen_u8(0x93, n + 4);
        let weights: [i32; 4] = [410, 1638, 1229, 819]; // Σ = 4096 (1 << 12)
        let want: Vec<u8> = (0..n)
            .map(|i| {
                let acc: i32 = (0..4).map(|t| i32::from(src[i + t]) * weights[t]).sum();
                ((acc + 2048) >> 12).clamp(0, 255) as u8
            })
            .collect();

        let mut e = engine();
        let sa = e.mem_alloc_typed::<u8>(n + 4);
        let oa = e.mem_alloc_typed::<u8>(n);
        e.mem_fill(sa, &src);

        let lanes = e.lanes();
        e.vsetdimc(1);
        for (base, chunk) in chunks(n, lanes) {
            e.vsetdiml(0, chunk);
            e.scalar(6);
            let mut acc = e.vsetdup_dw(2048);
            for (t, &wt) in weights.iter().enumerate() {
                let p8 = e.vsld_ub(sa + (base + t) as u64, &[StrideMode::One]);
                let p = e.vcvt(p8, DType::I32);
                e.free(p8);
                let k = e.vsetdup_dw(wt);
                let m = e.vmul_dw(p, k);
                e.free(p);
                e.free(k);
                let acc2 = e.vadd_dw(acc, m);
                e.free(m);
                e.free(acc);
                acc = acc2;
            }
            let sh = e.vshir_dw(acc, 12);
            e.free(acc);
            let zero = e.vsetdup_dw(0);
            let lo = e.vmax_dw(sh, zero);
            e.free(sh);
            e.free(zero);
            let cap = e.vsetdup_dw(255);
            let hi = e.vmin_dw(lo, cap);
            e.free(lo);
            e.free(cap);
            let o8 = e.vcvt(hi, DType::U8);
            e.free(hi);
            e.vsst_ub(o8, oa + base as u64, &[StrideMode::One]);
            e.free(o8);
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = npix(scale) as u64 / 4;
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntMul, v * 4),
                (NeonOpClass::IntSimple, v * 6),
                (NeonOpClass::Shift, v),
            ],
            chain_ops: vec![(NeonOpClass::IntMul, 4)],
            loads: v * 4,
            stores: v / 4,
            scalar_instrs: v * 2,
            touched_bytes: npix(scale) as u64 * 2,
            base_addr: 0x1A00_0000,
        }
    }
}

/// `out = (a·b + 255) >> 8` per byte over `n` bytes of the inputs seeded
/// `seeds`: the one body of Skia's multiply transfer mode and libwebp's
/// alpha premultiplication. Each tile widens both bytes to 32 bits for the
/// product and narrows the shifted result back.
pub(crate) fn multiply_bytes(n: usize, seeds: [u64; 2]) -> KernelRun {
    let [a, b] = seeds.map(|seed| gen_u8(seed, n));
    let want: Vec<u8> = (0..n)
        .map(|i| (((u32::from(a[i]) * u32::from(b[i])) + 255) >> 8) as u8)
        .collect();

    let mut e = engine();
    e.vsetwidth(32);
    let [aa, ba, oa] = [(); 3].map(|_| e.mem_alloc_typed::<u8>(n));
    e.mem_fill(aa, &a);
    e.mem_fill(ba, &b);

    let lanes = e.lanes();
    e.vsetdimc(1);
    for (base, chunk) in chunks(n, lanes) {
        e.vsetdiml(0, chunk);
        e.scalar(6);
        let a8 = e.vsld_ub(aa + base as u64, &[StrideMode::One]);
        let av = e.vcvt(a8, DType::U32);
        e.free(a8);
        let b8 = e.vsld_ub(ba + base as u64, &[StrideMode::One]);
        let bv = e.vcvt(b8, DType::U32);
        e.free(b8);
        let p = e.vmul_udw(av, bv);
        e.free(av);
        e.free(bv);
        let c = e.vsetdup_udw(255);
        let pc = e.vadd_udw(p, c);
        e.free(p);
        e.free(c);
        let sh = e.vshir_udw(pc, 8);
        e.free(pc);
        let o8 = e.vcvt(sh, DType::U8);
        e.free(sh);
        e.vsst_ub(o8, oa + base as u64, &[StrideMode::One]);
        e.free(o8);
    }
    finish(e, oa, &want[..])
}

/// Multiply transfer mode: `out = (s · d + 255) >> 8` per byte.
pub struct XfermodeMultiply;

impl Kernel for XfermodeMultiply {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "skia_xfermode_mul",
            library: Library::Skia,
            dims: 1,
            dtype_bits: 16,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        multiply_bytes(4 * npix(scale), [0x94, 0x95])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = npix(scale) as u64; // 4 bytes/px, 8 u16 lanes → px/2 × 4
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntMul, v / 2),
                (NeonOpClass::IntSimple, v / 2),
                (NeonOpClass::Shift, v / 2),
                (NeonOpClass::Permute, v),
            ],
            chain_ops: vec![],
            loads: v / 2,
            stores: v / 4,
            scalar_instrs: v / 2,
            touched_bytes: npix(scale) as u64 * 12,
            base_addr: 0x1B00_0000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blit_row_matches() {
        assert!(BlitRow.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn memset32_matches() {
        let run = Memset32.run_mve(Scale::Test);
        assert!(run.checked.ok());
        // Fill kernels have no loads.
        let mix = run.trace.instr_mix();
        assert!(mix.mem_access > 0);
    }

    #[test]
    fn convolve_matches() {
        assert!(ConvolveHoriz.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn xfermode_matches() {
        assert!(XfermodeMultiply.run_mve(Scale::Test).checked.ok());
    }
}
