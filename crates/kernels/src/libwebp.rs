//! libwebp — seven kernels spanning sharp-YUV refinement, bilinear
//! upsampling, alpha premultiplication, the two lossless prediction filters,
//! per-block distortion (SSE) and coefficient quantisation.
//!
//! Alpha premultiplication runs Skia's multiply transfer-mode body
//! (`skia::multiply_bytes`) on its own seeds: both compute
//! `(a·b + 255) >> 8` per byte at the same sizes.

use crate::common::{chunks, engine, finish, gen_i16, gen_u8, tree_halve, KernelRun, Scale};
use crate::registry::{Kernel, KernelInfo, Library};
use mve_core::dtype::DType;
use mve_core::isa::StrideMode;
use mve_coresim::neon::{NeonOpClass, NeonProfile};

fn npix(scale: Scale) -> usize {
    match scale {
        Scale::Test => 8 * 1024,
        Scale::Paper => 640 * 360,
    }
}

/// Sharp-YUV update step: `out = clamp(ref + (a - b), 0, 16383)` on 16-bit
/// luma samples.
pub struct SharpUpdate;

impl Kernel for SharpUpdate {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "webp_sharp_update",
            library: Library::Libwebp,
            dims: 1,
            dtype_bits: 16,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let n = npix(scale);
        let refv: Vec<i16> = gen_i16(0x81, n)
            .iter()
            .map(|v| v.unsigned_abs() as i16)
            .collect();
        let av = gen_i16(0x82, n);
        let bv = gen_i16(0x83, n);
        let want: Vec<i16> = (0..n)
            .map(|i| (refv[i] as i32 + (av[i] as i32 - bv[i] as i32)).clamp(0, 16383) as i16)
            .collect();

        let mut e = engine();
        e.vsetwidth(16);
        let ra = e.mem_alloc_typed::<i16>(n);
        let aa = e.mem_alloc_typed::<i16>(n);
        let ba = e.mem_alloc_typed::<i16>(n);
        let oa = e.mem_alloc_typed::<i16>(n);
        e.mem_fill(ra, &refv);
        e.mem_fill(aa, &av);
        e.mem_fill(ba, &bv);

        let lanes = e.lanes();
        e.vsetdimc(1);
        for (base, chunk) in chunks(n, lanes) {
            e.vsetdiml(0, chunk);
            e.scalar(6);
            let r = e.vsld_w(ra + (base * 2) as u64, &[StrideMode::One]);
            let a = e.vsld_w(aa + (base * 2) as u64, &[StrideMode::One]);
            let b = e.vsld_w(ba + (base * 2) as u64, &[StrideMode::One]);
            let d = e.vsub_w(a, b);
            e.free(a);
            e.free(b);
            let s = e.vadd_w(r, d);
            e.free(r);
            e.free(d);
            let zero = e.vsetdup_w(0);
            let lo = e.vmax_w(s, zero);
            e.free(s);
            e.free(zero);
            let cap = e.vsetdup_w(16383);
            let hi = e.vmin_w(lo, cap);
            e.free(lo);
            e.free(cap);
            e.vsst_w(hi, oa + (base * 2) as u64, &[StrideMode::One]);
            e.free(hi);
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = npix(scale) as u64 / 8;
        NeonProfile {
            ops: vec![(NeonOpClass::IntSimple, v * 4)],
            chain_ops: vec![],
            loads: v * 3,
            stores: v,
            scalar_instrs: v * 2,
            touched_bytes: npix(scale) as u64 * 8,
            base_addr: 0x1100_0000,
        }
    }
}

/// Horizontal bilinear 2× upsampling: `out[2i]=a[i]`,
/// `out[2i+1]=(a[i]+a[i+1]+1)>>1`.
pub struct UpsampleBilinear;

impl Kernel for UpsampleBilinear {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "webp_upsample",
            library: Library::Libwebp,
            dims: 2,
            dtype_bits: 8,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let n = npix(scale);
        let src = gen_u8(0x84, n + 1);
        let mut want = vec![0u8; 2 * n];
        for i in 0..n {
            want[2 * i] = src[i];
            want[2 * i + 1] = (((u16::from(src[i]) + u16::from(src[i + 1])) + 1) >> 1) as u8;
        }

        let mut e = engine();
        e.vsetwidth(16);
        let sa = e.mem_alloc_typed::<u8>(n + 1);
        let oa = e.mem_alloc_typed::<u8>(2 * n);
        e.mem_fill(sa, &src);

        let lanes = e.lanes();
        e.vsetdimc(1);
        e.vsetststr(0, 2); // interleaved output positions
        for (base, chunk) in chunks(n, lanes) {
            e.vsetdiml(0, chunk);
            e.scalar(6);
            let a = e.vsld_ub(sa + base as u64, &[StrideMode::One]);
            // Even outputs: straight copy.
            e.vsst_ub(a, oa + (2 * base) as u64, &[StrideMode::Cr]);
            let b = e.vsld_ub(sa + (base + 1) as u64, &[StrideMode::One]);
            let aw = e.vcvt(a, DType::U16);
            e.free(a);
            let bw = e.vcvt(b, DType::U16);
            e.free(b);
            let s = e.vadd_uw(aw, bw);
            e.free(aw);
            e.free(bw);
            let one = e.vsetdup_uw(1);
            let s1 = e.vadd_uw(s, one);
            e.free(s);
            e.free(one);
            let avg = e.vshir_uw(s1, 1);
            e.free(s1);
            let avg8 = e.vcvt(avg, DType::U8);
            e.free(avg);
            e.vsst_ub(avg8, oa + (2 * base + 1) as u64, &[StrideMode::Cr]);
            e.free(avg8);
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = npix(scale) as u64 / 16;
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntSimple, v * 3),
                (NeonOpClass::Permute, v * 2),
            ],
            chain_ops: vec![],
            loads: v * 2,
            stores: v * 2,
            scalar_instrs: v * 2,
            touched_bytes: npix(scale) as u64 * 3,
            base_addr: 0x1200_0000,
        }
    }
}

/// Alpha premultiplication: `out = (x·a + 255) >> 8`.
pub struct AlphaMultiply;

impl Kernel for AlphaMultiply {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "webp_alpha_mult",
            library: Library::Libwebp,
            dims: 1,
            dtype_bits: 16,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        crate::skia::multiply_bytes(npix(scale), [0x85, 0x86])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = npix(scale) as u64 / 8;
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntMul, v),
                (NeonOpClass::IntSimple, v),
                (NeonOpClass::Shift, v),
                (NeonOpClass::Permute, v * 2),
            ],
            chain_ops: vec![],
            loads: v,
            stores: v / 2,
            scalar_instrs: v,
            touched_bytes: npix(scale) as u64 * 3,
            base_addr: 0x1300_0000,
        }
    }
}

fn image(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (64, 48),
        Scale::Paper => (640, 360),
    }
}

/// Lossless vertical filter: `out[y][x] = in[y][x] - in[y-1][x]` — reads
/// only inputs, so it is one fully-parallel 2-D pass.
pub struct VerticalFilter;

impl Kernel for VerticalFilter {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "webp_vertical_filter",
            library: Library::Libwebp,
            dims: 2,
            dtype_bits: 8,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let (w, h) = image(scale);
        let img = gen_u8(0x87, w * h);
        let mut want = vec![0u8; w * h];
        want[..w].copy_from_slice(&img[..w]);
        for y in 1..h {
            for x in 0..w {
                want[y * w + x] = img[y * w + x].wrapping_sub(img[(y - 1) * w + x]);
            }
        }

        let mut e = engine();
        e.vsetwidth(8);
        let ia = e.mem_alloc_typed::<u8>(w * h);
        let oa = e.mem_alloc_typed::<u8>(w * h);
        e.mem_fill(ia, &img);
        // Row 0 passes through on the scalar side.
        for x in 0..w {
            let v = e.mem_read::<u8>(ia, x);
            e.mem_mut().write::<u8>(oa, x, v);
        }
        e.scalar(2 * w as u64);

        let lanes = e.lanes();
        let rows_per_tile = (lanes / w).clamp(1, 256);
        e.vsetdimc(2);
        e.vsetdiml(0, w);
        e.vsetldstr(1, w as i64);
        e.vsetststr(1, w as i64);
        for (y, rows) in chunks(h - 1, rows_per_tile).map(|(y, rows)| (y + 1, rows)) {
            e.vsetdiml(1, rows);
            e.scalar(6);
            let cur = e.vsld_ub(ia + (y * w) as u64, &[StrideMode::One, StrideMode::Cr]);
            let above = e.vsld_ub(
                ia + ((y - 1) * w) as u64,
                &[StrideMode::One, StrideMode::Cr],
            );
            let d = e.vsub_ub(cur, above);
            e.vsst_ub(d, oa + (y * w) as u64, &[StrideMode::One, StrideMode::Cr]);
            for r in [cur, above, d] {
                e.free(r);
            }
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let (w, h) = image(scale);
        let v = (w * h / 16) as u64;
        NeonProfile {
            ops: vec![(NeonOpClass::IntSimple, v)],
            chain_ops: vec![],
            loads: v * 2,
            stores: v,
            scalar_instrs: v,
            touched_bytes: (w * h * 2) as u64,
            base_addr: 0x1400_0000,
        }
    }
}

/// Lossless gradient filter: `out = in - clamp(left + above - upleft)`;
/// like [`VerticalFilter`], it reads only inputs.
pub struct GradientFilter;

impl Kernel for GradientFilter {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "webp_gradient_filter",
            library: Library::Libwebp,
            dims: 2,
            dtype_bits: 16,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let (w, h) = image(scale);
        let img = gen_u8(0x88, w * h);
        let grad =
            |l: u8, a: u8, c: u8| (i16::from(l) + i16::from(a) - i16::from(c)).clamp(0, 255) as u8;
        let mut want = vec![0u8; w * h];
        for y in 0..h {
            for x in 0..w {
                let pred = if y == 0 || x == 0 {
                    0
                } else {
                    grad(
                        img[y * w + x - 1],
                        img[(y - 1) * w + x],
                        img[(y - 1) * w + x - 1],
                    )
                };
                want[y * w + x] = img[y * w + x].wrapping_sub(pred);
            }
        }
        // Edge rows/cols handled by the scalar core.
        let mut e = engine();
        e.vsetwidth(16);
        let ia = e.mem_alloc_typed::<u8>(w * h);
        let oa = e.mem_alloc_typed::<u8>(w * h);
        e.mem_fill(ia, &img);
        for x in 0..w {
            let v = e.mem_read::<u8>(ia, x);
            e.mem_mut().write::<u8>(oa, x, v);
        }
        for y in 1..h {
            let v = e.mem_read::<u8>(ia, y * w);
            e.mem_mut().write::<u8>(oa, y * w, v);
        }
        e.scalar(2 * (w + h) as u64);

        let lanes = e.lanes();
        let wi = w - 1; // interior width
        let rows_per_tile = (lanes / wi).clamp(1, 256);
        e.vsetdimc(2);
        e.vsetdiml(0, wi);
        e.vsetldstr(1, w as i64);
        e.vsetststr(1, w as i64);
        let m = [StrideMode::One, StrideMode::Cr];
        for (y, rows) in chunks(h - 1, rows_per_tile).map(|(y, rows)| (y + 1, rows)) {
            e.vsetdiml(1, rows);
            e.scalar(8);
            let base = ia + (y * w + 1) as u64;
            let cur8 = e.vsld_ub(base, &m);
            let l8 = e.vsld_ub(base - 1, &m);
            let a8 = e.vsld_ub(base - w as u64, &m);
            let c8 = e.vsld_ub(base - w as u64 - 1, &m);
            let l = e.vcvt(l8, DType::I16);
            e.free(l8);
            let a = e.vcvt(a8, DType::I16);
            e.free(a8);
            let c = e.vcvt(c8, DType::I16);
            e.free(c8);
            let la = e.vadd_w(l, a);
            e.free(l);
            e.free(a);
            let p = e.vsub_w(la, c);
            e.free(la);
            e.free(c);
            let zero = e.vsetdup_w(0);
            let p0 = e.vmax_w(p, zero);
            e.free(p);
            e.free(zero);
            let cap = e.vsetdup_w(255);
            let p1 = e.vmin_w(p0, cap);
            e.free(p0);
            e.free(cap);
            let cur = e.vcvt(cur8, DType::I16);
            e.free(cur8);
            let d = e.vsub_w(cur, p1);
            e.free(cur);
            e.free(p1);
            let d8 = e.vcvt(d, DType::U8);
            e.free(d);
            e.vsst_ub(d8, oa + (y * w + 1) as u64, &m);
            e.free(d8);
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let (w, h) = image(scale);
        let v = (w * h / 8) as u64;
        NeonProfile {
            ops: vec![(NeonOpClass::IntSimple, v * 6), (NeonOpClass::Permute, v)],
            chain_ops: vec![],
            loads: v * 4,
            stores: v,
            scalar_instrs: v * 2,
            touched_bytes: (w * h * 2) as u64,
            base_addr: 0x1500_0000,
        }
    }
}

/// Per-4×4-block sum of squared differences (distortion metric).
pub struct Sse4x4;

impl Kernel for Sse4x4 {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "webp_sse4x4",
            library: Library::Libwebp,
            dims: 2,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let blocks = match scale {
            Scale::Test => 256,
            Scale::Paper => 4096,
        };
        let a = gen_u8(0x89, blocks * 16);
        let b = gen_u8(0x8A, blocks * 16);
        let want: Vec<i32> = (0..blocks)
            .map(|blk| {
                (0..16)
                    .map(|p| {
                        let d = i32::from(a[blk * 16 + p]) - i32::from(b[blk * 16 + p]);
                        d * d
                    })
                    .sum()
            })
            .collect();

        let mut e = engine();
        let aa = e.mem_alloc_typed::<u8>(blocks * 16);
        let ba = e.mem_alloc_typed::<u8>(blocks * 16);
        let oa = e.mem_alloc_typed::<i32>(blocks);
        e.mem_fill(aa, &a);
        e.mem_fill(ba, &b);

        let lanes = e.lanes();
        let bpt = (lanes / 16).min(blocks).max(1);
        for (blk, nb) in chunks(blocks, bpt) {
            // Block-transposed layout [B, 16]: lane = b + B·p, so the
            // halving fold sums within each block.
            e.vsetdimc(2);
            e.vsetdiml(0, nb);
            e.vsetdiml(1, 16);
            e.vsetldstr(0, 16);
            e.vsetldstr(1, 1);
            e.scalar(8);
            let m = [StrideMode::Cr, StrideMode::Cr];
            let av8 = e.vsld_ub(aa + (blk * 16) as u64, &m);
            let av = e.vcvt(av8, DType::I32);
            e.free(av8);
            let bv8 = e.vsld_ub(ba + (blk * 16) as u64, &m);
            let bv = e.vcvt(bv8, DType::I32);
            e.free(bv8);
            let d = e.vsub_dw(av, bv);
            e.free(av);
            e.free(bv);
            let sq = e.vmul_dw(d, d);
            e.free(d);
            e.vsetdimc(1);
            e.vsetdiml(0, nb * 16);
            let sums = tree_halve(&mut e, sq, nb * 16, nb);
            e.vsetdimc(1);
            e.vsetdiml(0, nb);
            e.vsst_dw(sums, oa + (blk * 4) as u64, &[StrideMode::One]);
            e.free(sums);
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let blocks = match scale {
            Scale::Test => 256u64,
            Scale::Paper => 4096,
        };
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntMul, blocks * 4),
                (NeonOpClass::IntSimple, blocks * 4),
                (NeonOpClass::Reduce, blocks),
            ],
            chain_ops: vec![(NeonOpClass::Reduce, blocks / 16)],
            loads: blocks * 2,
            stores: blocks / 4,
            scalar_instrs: blocks * 4,
            touched_bytes: blocks * 36,
            base_addr: 0x1600_0000,
        }
    }
}

/// Coefficient quantisation with sign restore: `q = sign(c)·((|c|·iq) >> 17)`.
pub struct QuantizeCoeffs;

impl Kernel for QuantizeCoeffs {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "webp_quantize",
            library: Library::Libwebp,
            dims: 1,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let n = npix(scale);
        let coefs = gen_i16(0x8B, n);
        let iq: i32 = 3567; // fixed-point 1/q
        let want: Vec<i16> = coefs
            .iter()
            .map(|&c| {
                let q = ((i32::from(c).abs() * iq) >> 17) as i16;
                if c < 0 {
                    -q
                } else {
                    q
                }
            })
            .collect();

        let mut e = engine();
        let ca = e.mem_alloc_typed::<i16>(n);
        let oa = e.mem_alloc_typed::<i16>(n);
        e.mem_fill(ca, &coefs);

        let lanes = e.lanes();
        e.vsetdimc(1);
        for (base, chunk) in chunks(n, lanes) {
            e.vsetdiml(0, chunk);
            e.scalar(6);
            let c16 = e.vsld_w(ca + (base * 2) as u64, &[StrideMode::One]);
            let c = e.vcvt(c16, DType::I32);
            e.free(c16);
            let zero = e.vsetdup_dw(0);
            let neg = e.vsub_dw(zero, c);
            let abs = e.vmax_dw(c, neg);
            e.free(neg);
            let k = e.vsetdup_dw(iq);
            let p = e.vmul_dw(abs, k);
            e.free(abs);
            e.free(k);
            let q = e.vshir_dw(p, 17);
            e.free(p);
            // Restore sign where c < 0 via predicated copy of -q.
            let nq = e.vsub_dw(zero, q);
            e.vlt_dw(c, zero);
            e.set_predication(true);
            e.copy_into(q, nq);
            e.set_predication(false);
            for r in [c, zero, nq] {
                e.free(r);
            }
            let q16 = e.vcvt(q, DType::I16);
            e.free(q);
            e.vsst_w(q16, oa + (base * 2) as u64, &[StrideMode::One]);
            e.free(q16);
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = npix(scale) as u64 / 4;
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntMul, v),
                (NeonOpClass::IntSimple, v * 3),
                (NeonOpClass::Shift, v),
            ],
            chain_ops: vec![],
            loads: v,
            stores: v,
            scalar_instrs: v,
            touched_bytes: npix(scale) as u64 * 4,
            base_addr: 0x1700_0000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharp_update_matches() {
        assert!(SharpUpdate.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn upsample_matches() {
        assert!(UpsampleBilinear.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn alpha_multiply_matches() {
        assert!(AlphaMultiply.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn vertical_filter_matches() {
        assert!(VerticalFilter.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn gradient_filter_matches() {
        assert!(GradientFilter.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn sse4x4_matches() {
        assert!(Sse4x4.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn quantize_coeffs_matches() {
        assert!(QuantizeCoeffs.run_mve(Scale::Test).checked.ok());
    }
}
