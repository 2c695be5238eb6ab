//! libjpeg — five kernels, including the Figure 4 `h2v2_upsample` random
//! row-pointer pattern (libjpeg allocates image rows in separate memory).

use crate::common::{check, chunks, engine, finish, gen_i16, gen_u8, KernelRun, Scale};
use crate::registry::{Kernel, KernelInfo, Library};
use mve_core::dtype::DType;
use mve_core::isa::StrideMode;
use mve_coresim::neon::{NeonOpClass, NeonProfile};

fn plane(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (64, 32),
        Scale::Paper => (640, 360),
    }
}

/// 2×2 pixel replication from randomly-allocated rows (Figure 4).
pub struct H2v2Upsample;

impl Kernel for H2v2Upsample {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "h2v2_upsample",
            library: Library::Libjpeg,
            dims: 3,
            dtype_bits: 8,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let (m, r) = plane(scale);
        let rows: Vec<Vec<u8>> = (0..r).map(|i| gen_u8(0x61 + i as u64, m)).collect();
        // Reference: each input row produces two output rows of doubled
        // pixels.
        let want: Vec<Vec<u8>> = rows
            .iter()
            .flat_map(|row| {
                let doubled: Vec<u8> = row.iter().flat_map(|&p| [p, p]).collect();
                [doubled.clone(), doubled]
            })
            .collect();

        let mut e = engine();
        e.vsetwidth(8);
        // Rows live at scattered addresses (libjpeg row allocator).
        let mut in_ptrs_v = Vec::with_capacity(r);
        for row in &rows {
            let a = e.mem_alloc_typed::<u8>(m + 192); // scatter with slack
            e.mem_fill(a, row);
            in_ptrs_v.push(a);
        }
        let mut out_ptrs_v = Vec::with_capacity(2 * r);
        for _ in 0..2 * r {
            out_ptrs_v.push(e.mem_alloc_typed::<u8>(2 * m));
        }

        // The scalar core doubles the input pointer list so one 3-D random
        // load covers both output rows of each input row.
        let dup_ptrs: Vec<u64> = in_ptrs_v.iter().flat_map(|&p| [p, p]).collect();
        let ptr_in = e.mem_alloc_typed::<u64>(2 * r);
        let ptr_out = e.mem_alloc_typed::<u64>(2 * r);
        e.mem_fill(ptr_in, &dup_ptrs);
        e.mem_fill(ptr_out, &out_ptrs_v);
        e.scalar(4 * r as u64);

        let lanes = e.lanes();
        let rows_per_tile = (lanes / (2 * m)).clamp(1, 256);
        for (k, chunk) in chunks(2 * r, rows_per_tile) {
            // 3-D: duplicate pixels (DIM0), M columns (DIM1), rows (DIM2).
            e.vsetdimc(3);
            e.vsetdiml(0, 2);
            e.vsetdiml(1, m);
            e.vsetdiml(2, chunk);
            e.scalar(8);
            let v = e.vrld_ub(
                ptr_in + (k * 8) as u64,
                &[StrideMode::Zero, StrideMode::One],
            );
            e.vrst_ub(
                v,
                ptr_out + (k * 8) as u64,
                &[StrideMode::One, StrideMode::Seq],
            );
            e.free(v);
        }
        // One check per output row: the rows are separate allocations.
        let checked = out_ptrs_v
            .iter()
            .zip(&want)
            .map(|(&row, w)| check(&e, row, &w[..]))
            .sum();
        KernelRun::new(e, checked)
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let (m, r) = plane(scale);
        let px = (m * r) as u64;
        NeonProfile {
            ops: vec![(NeonOpClass::Permute, px / 16 * 4)],
            chain_ops: vec![],
            loads: px / 16,
            stores: px / 16 * 4,
            scalar_instrs: px / 16 * 6 + 4 * r as u64,
            touched_bytes: px * 5,
            base_addr: 0x800_0000,
        }
    }
}

/// 2×2 box-filter downsampling.
pub struct H2v2Downsample;

impl Kernel for H2v2Downsample {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "h2v2_downsample",
            library: Library::Libjpeg,
            dims: 2,
            dtype_bits: 8,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let (m_out, r_out) = plane(scale);
        let (w_in, h_in) = (2 * m_out, 2 * r_out);
        let img = gen_u8(0x62, w_in * h_in);
        let want: Vec<u8> = (0..r_out)
            .flat_map(|y| {
                let img = &img;
                (0..m_out).map(move |x| {
                    let s = u16::from(img[2 * y * w_in + 2 * x])
                        + u16::from(img[2 * y * w_in + 2 * x + 1])
                        + u16::from(img[(2 * y + 1) * w_in + 2 * x])
                        + u16::from(img[(2 * y + 1) * w_in + 2 * x + 1]);
                    ((s + 2) >> 2) as u8
                })
            })
            .collect();

        let mut e = engine();
        e.vsetwidth(16);
        let ia = e.mem_alloc_typed::<u8>(w_in * h_in);
        let oa = e.mem_alloc_typed::<u8>(m_out * r_out);
        e.mem_fill(ia, &img);

        let lanes = e.lanes();
        let rows_per_tile = (lanes / m_out).clamp(1, 256);
        e.vsetdimc(2);
        e.vsetdiml(0, m_out);
        e.vsetldstr(0, 2);
        e.vsetldstr(1, 2 * w_in as i64);
        e.vsetststr(1, m_out as i64);
        for (y, rows) in chunks(r_out, rows_per_tile) {
            e.vsetdiml(1, rows);
            e.scalar(8);
            let base = ia + (2 * y * w_in) as u64;
            let modes = [StrideMode::Cr, StrideMode::Cr];
            let p00 = e.vsld_ub(base, &modes);
            let p01 = e.vsld_ub(base + 1, &modes);
            let p10 = e.vsld_ub(base + w_in as u64, &modes);
            let p11 = e.vsld_ub(base + w_in as u64 + 1, &modes);
            // Widen to 16-bit for the sum.
            let w00 = e.vcvt(p00, DType::U16);
            let w01 = e.vcvt(p01, DType::U16);
            let s0 = e.vadd_uw(w00, w01);
            for rg in [p00, p01, w00, w01] {
                e.free(rg);
            }
            let w10 = e.vcvt(p10, DType::U16);
            let w11 = e.vcvt(p11, DType::U16);
            let s1 = e.vadd_uw(w10, w11);
            for rg in [p10, p11, w10, w11] {
                e.free(rg);
            }
            let s = e.vadd_uw(s0, s1);
            let two = e.vsetdup_uw(2);
            let s2 = e.vadd_uw(s, two);
            let sh = e.vshir_uw(s2, 2);
            let out8 = e.vcvt(sh, DType::U8);
            e.vsst_ub(
                out8,
                oa + (y * m_out) as u64,
                &[StrideMode::One, StrideMode::Cr],
            );
            for rg in [s0, s1, s, two, s2, sh, out8] {
                e.free(rg);
            }
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let (m, r) = plane(scale);
        let out_px = (m * r) as u64;
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntSimple, out_px / 8 * 5),
                (NeonOpClass::Permute, out_px / 8 * 2),
                (NeonOpClass::Shift, out_px / 8),
            ],
            chain_ops: vec![],
            loads: out_px / 8 * 4,
            stores: out_px / 16,
            scalar_instrs: out_px / 8 * 3,
            touched_bytes: out_px * 5,
            base_addr: 0x900_0000,
        }
    }
}

const FIX_R_CR: i32 = 91881; // 1.402 << 16
const FIX_G_CB: i32 = 22554; // 0.344 << 16
const FIX_G_CR: i32 = 46802; // 0.714 << 16
const FIX_B_CB: i32 = 116130; // 1.772 << 16

fn clamp_u8(v: i32) -> u8 {
    v.clamp(0, 255) as u8
}

/// Planar YCbCr → interleaved-free RGB conversion (fixed point).
pub struct YcbcrToRgb;

impl Kernel for YcbcrToRgb {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "ycbcr_to_rgb",
            library: Library::Libjpeg,
            dims: 1,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let (w, h) = plane(scale);
        let n = w * h;
        let yp = gen_u8(0x63, n);
        let cbp = gen_u8(0x64, n);
        let crp = gen_u8(0x65, n);
        let mut want = Vec::with_capacity(3 * n);
        for i in 0..n {
            let (y, cb, cr) = (
                i32::from(yp[i]),
                i32::from(cbp[i]) - 128,
                i32::from(crp[i]) - 128,
            );
            want.push(clamp_u8(y + ((FIX_R_CR * cr) >> 16)));
            want.push(clamp_u8(y - ((FIX_G_CB * cb + FIX_G_CR * cr) >> 16)));
            want.push(clamp_u8(y + ((FIX_B_CB * cb) >> 16)));
        }

        let mut e = engine();
        let ya = e.mem_alloc_typed::<u8>(n);
        let cba = e.mem_alloc_typed::<u8>(n);
        let cra = e.mem_alloc_typed::<u8>(n);
        let oa = e.mem_alloc_typed::<u8>(3 * n);
        e.mem_fill(ya, &yp);
        e.mem_fill(cba, &cbp);
        e.mem_fill(cra, &crp);

        let lanes = e.lanes();
        e.vsetdimc(1);
        for (base, chunk) in chunks(n, lanes) {
            e.vsetdiml(0, chunk);
            e.scalar(8);
            // The 128 bias constant lives only while centring chroma — the
            // 8-register file (256 word-lines / 32-bit) forces this reuse
            // discipline, exactly as the paper's register allocator would.
            let c128 = e.vsetdup_dw(128);
            let y8 = e.vsld_ub(ya + base as u64, &[StrideMode::One]);
            let y = e.vcvt(y8, DType::I32);
            e.free(y8);
            let cb8 = e.vsld_ub(cba + base as u64, &[StrideMode::One]);
            let cb0 = e.vcvt(cb8, DType::I32);
            e.free(cb8);
            let cb = e.vsub_dw(cb0, c128);
            e.free(cb0);
            let cr8 = e.vsld_ub(cra + base as u64, &[StrideMode::One]);
            let cr0 = e.vcvt(cr8, DType::I32);
            e.free(cr8);
            let cr = e.vsub_dw(cr0, c128);
            e.free(cr0);
            e.free(c128);

            let zero = e.vsetdup_dw(0);
            let maxv = e.vsetdup_dw(255);
            // Channel helper: clamp(v) then store strided every 3rd byte.
            // Frees the input eagerly to stay inside the register file.
            let emit = |e: &mut mve_core::engine::Engine, v, off: u64| {
                let lo = e.vmax_dw(v, zero);
                e.free(v);
                let hi = e.vmin_dw(lo, maxv);
                e.free(lo);
                let b8 = e.vcvt(hi, DType::U8);
                e.free(hi);
                e.vsetststr(0, 3);
                e.vsst_ub(b8, oa + 3 * base as u64 + off, &[StrideMode::Cr]);
                e.free(b8);
            };
            // R = y + (FIX_R_CR * cr >> 16)
            let k = e.vsetdup_dw(FIX_R_CR);
            let t = e.vmul_dw(k, cr);
            e.free(k);
            let ts = e.vshir_dw(t, 16);
            e.free(t);
            let r = e.vadd_dw(y, ts);
            e.free(ts);
            emit(&mut e, r, 0);
            // G = y - ((FIX_G_CB*cb + FIX_G_CR*cr) >> 16)
            let k1 = e.vsetdup_dw(FIX_G_CB);
            let t1 = e.vmul_dw(k1, cb);
            e.free(k1);
            let k2 = e.vsetdup_dw(FIX_G_CR);
            let t2 = e.vmul_dw(k2, cr);
            e.free(k2);
            let t3 = e.vadd_dw(t1, t2);
            e.free(t1);
            e.free(t2);
            let t4 = e.vshir_dw(t3, 16);
            e.free(t3);
            let g = e.vsub_dw(y, t4);
            e.free(t4);
            emit(&mut e, g, 1);
            // B = y + (FIX_B_CB*cb >> 16)
            let k3 = e.vsetdup_dw(FIX_B_CB);
            let t5 = e.vmul_dw(k3, cb);
            e.free(k3);
            let t6 = e.vshir_dw(t5, 16);
            e.free(t5);
            let b = e.vadd_dw(y, t6);
            e.free(t6);
            emit(&mut e, b, 2);

            for rg in [y, cb, cr, zero, maxv] {
                e.free(rg);
            }
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let (w, h) = plane(scale);
        let px = (w * h) as u64;
        let v = px / 4; // widened to 32-bit lanes
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntMul, v * 4),
                (NeonOpClass::IntSimple, v * 8),
                (NeonOpClass::Shift, v * 4),
                (NeonOpClass::Permute, v * 4),
            ],
            chain_ops: vec![],
            loads: 3 * px / 16,
            stores: 3 * px / 16,
            scalar_instrs: v * 2,
            touched_bytes: px * 6,
            base_addr: 0xA00_0000,
        }
    }
}

const FIX_Y_R: i32 = 19595;
const FIX_Y_G: i32 = 38470;
const FIX_Y_B: i32 = 7471;

/// RGB → Y plane conversion (the luma part of `rgb_ycc_convert`).
pub struct RgbToYcbcr;

impl Kernel for RgbToYcbcr {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "rgb_to_ycbcr",
            library: Library::Libjpeg,
            dims: 2,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let (w, h) = plane(scale);
        let n = w * h;
        let rgb = gen_u8(0x66, 3 * n);
        let want: Vec<u8> = (0..n)
            .map(|i| {
                let (r, g, b) = (
                    i32::from(rgb[3 * i]),
                    i32::from(rgb[3 * i + 1]),
                    i32::from(rgb[3 * i + 2]),
                );
                ((FIX_Y_R * r + FIX_Y_G * g + FIX_Y_B * b + 32768) >> 16) as u8
            })
            .collect();

        let mut e = engine();
        let ia = e.mem_alloc_typed::<u8>(3 * n);
        let oa = e.mem_alloc_typed::<u8>(n);
        e.mem_fill(ia, &rgb);

        let lanes = e.lanes();
        e.vsetdimc(1);
        e.vsetldstr(0, 3); // interleaved RGB: every 3rd byte
        for (base, chunk) in chunks(n, lanes) {
            e.vsetdiml(0, chunk);
            e.scalar(8);
            let mut acc = e.vsetdup_dw(32768);
            for (ch, k) in [(0u64, FIX_Y_R), (1, FIX_Y_G), (2, FIX_Y_B)] {
                let p8 = e.vsld_ub(ia + 3 * base as u64 + ch, &[StrideMode::Cr]);
                let p = e.vcvt(p8, DType::I32);
                e.free(p8);
                let kv = e.vsetdup_dw(k);
                let t = e.vmul_dw(p, kv);
                let acc2 = e.vadd_dw(acc, t);
                for rg in [p, kv, t, acc] {
                    e.free(rg);
                }
                acc = acc2;
            }
            let sh = e.vshir_dw(acc, 16);
            e.free(acc);
            let y8 = e.vcvt(sh, DType::U8);
            e.free(sh);
            e.vsetststr(0, 1);
            e.vsst_ub(y8, oa + base as u64, &[StrideMode::Cr]);
            e.free(y8);
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let (w, h) = plane(scale);
        let px = (w * h) as u64;
        let v = px / 4;
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntMul, v * 3),
                (NeonOpClass::IntSimple, v * 3),
                (NeonOpClass::Shift, v),
                (NeonOpClass::Permute, v * 3),
            ],
            chain_ops: vec![],
            loads: 3 * px / 16,
            stores: px / 16,
            scalar_instrs: v * 2,
            touched_bytes: px * 4,
            base_addr: 0xB00_0000,
        }
    }
}

/// Per-coefficient quantisation of 8×8 DCT blocks via reciprocal multiply.
pub struct Quantize;

impl Kernel for Quantize {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "jpeg_quantize",
            library: Library::Libjpeg,
            dims: 2,
            dtype_bits: 16,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let blocks = match scale {
            Scale::Test => 128,
            Scale::Paper => 2048,
        };
        let coefs = gen_i16(0x67, blocks * 64);
        // Reciprocal table: recip[i] = (1<<16)/divisor[i].
        let divisors: Vec<i32> = (0..64).map(|i| 8 + (i % 16) * 2).collect();
        let recip: Vec<i32> = divisors.iter().map(|&d| (1 << 16) / d).collect();
        let want: Vec<i16> = coefs
            .iter()
            .enumerate()
            .map(|(i, &c)| ((i32::from(c) * recip[i % 64] + 32768) >> 16) as i16)
            .collect();

        let mut e = engine();
        let ca = e.mem_alloc_typed::<i16>(blocks * 64);
        let ra = e.mem_alloc_typed::<i32>(64);
        let oa = e.mem_alloc_typed::<i16>(blocks * 64);
        e.mem_fill(ca, &coefs);
        e.mem_fill(ra, &recip);

        let lanes = e.lanes();
        let bpt = (lanes / 64).min(256);
        e.vsetdimc(2);
        e.vsetdiml(0, 64);
        for (b, nb) in chunks(blocks, bpt) {
            e.vsetdiml(1, nb);
            e.scalar(6);
            let c16 = e.vsld_w(
                ca + (b * 64 * 2) as u64,
                &[StrideMode::One, StrideMode::Seq],
            );
            let c = e.vcvt(c16, DType::I32);
            e.free(c16);
            // Reciprocals replicated across blocks (DIM1 stride 0).
            let rv = e.vsld_dw(ra, &[StrideMode::One, StrideMode::Zero]);
            let p = e.vmul_dw(c, rv);
            e.free(c);
            e.free(rv);
            let rnd = e.vsetdup_dw(32768);
            let pr = e.vadd_dw(p, rnd);
            e.free(p);
            e.free(rnd);
            let q = e.vshir_dw(pr, 16);
            e.free(pr);
            let q16 = e.vcvt(q, DType::I16);
            e.free(q);
            e.vsst_w(
                q16,
                oa + (b * 64 * 2) as u64,
                &[StrideMode::One, StrideMode::Seq],
            );
            e.free(q16);
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let blocks = match scale {
            Scale::Test => 128u64,
            Scale::Paper => 2048,
        };
        let v = blocks * 64 / 8;
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntMul, v * 2),
                (NeonOpClass::Shift, v),
                (NeonOpClass::IntSimple, v),
            ],
            chain_ops: vec![],
            loads: v + blocks * 64 / 4,
            stores: v,
            scalar_instrs: v,
            touched_bytes: blocks * 64 * 4,
            base_addr: 0xC00_0000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsample_matches_reference() {
        let run = H2v2Upsample.run_mve(Scale::Test);
        assert!(run.checked.ok(), "{:?}", run.checked);
        // Must use the Figure 4 random-access path.
        let randoms = run
            .trace
            .events()
            .iter()
            .filter(|ev| {
                matches!(
                    ev,
                    mve_core::trace::Event::Memory {
                        opcode: mve_core::isa::Opcode::RandomLoad
                            | mve_core::isa::Opcode::RandomStore,
                        ..
                    }
                )
            })
            .count();
        assert!(randoms >= 2, "upsample must use vrld/vrst");
    }

    #[test]
    fn downsample_matches_reference() {
        assert!(H2v2Downsample.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn ycbcr_to_rgb_matches_reference() {
        assert!(YcbcrToRgb.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn rgb_to_ycbcr_matches_reference() {
        assert!(RgbToYcbcr.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn quantize_matches_reference() {
        assert!(Quantize.run_mve(Scale::Test).checked.ok());
    }
}
