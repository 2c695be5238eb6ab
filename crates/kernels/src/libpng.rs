//! libpng — row defiltering kernels. PNG reconstruction has serial
//! dependences along one axis, so each kernel vectorises along the *other*
//! axis: `filter_sub` across rows (lanes = rows, marching along columns),
//! `filter_up` across columns (lanes = columns, marching down rows), and
//! `filter_paeth` across rows with its predictor select built from Tag-latch
//! predication (Section III-E).

use crate::common::{chunks, engine, finish, gen_u8, tag_to_data, KernelRun, Scale};
use crate::registry::{Kernel, KernelInfo, Library};
use mve_core::dtype::DType;
use mve_core::isa::StrideMode;
use mve_coresim::neon::{NeonOpClass, NeonProfile};

fn image(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Test => (48, 64),
        Scale::Paper => (640, 720),
    }
}

/// `recon[y][x] = filt[y][x] + recon[y][x-1]` — serial in x, parallel in y.
pub struct FilterSub;

impl Kernel for FilterSub {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "png_filter_sub",
            library: Library::Libpng,
            dims: 1,
            dtype_bits: 8,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let (w, h) = image(scale);
        let filt = gen_u8(0x71, w * h);
        let mut want = vec![0u8; w * h];
        for y in 0..h {
            let mut left = 0u8;
            for x in 0..w {
                left = filt[y * w + x].wrapping_add(left);
                want[y * w + x] = left;
            }
        }

        let mut e = engine();
        e.vsetwidth(8);
        let fa = e.mem_alloc_typed::<u8>(w * h);
        let oa = e.mem_alloc_typed::<u8>(w * h);
        e.mem_fill(fa, &filt);

        let lanes = e.lanes();
        let rows_per_tile = lanes.min(h).min(256);
        e.vsetdimc(1);
        e.vsetldstr(0, w as i64);
        e.vsetststr(0, w as i64);
        for (y, rows) in chunks(h, rows_per_tile) {
            e.vsetdiml(0, rows);
            e.scalar(6);
            // `left` accumulates in-register across the column march.
            let mut left = e.vsetdup_ub(0);
            for x in 0..w {
                e.scalar(3);
                let f = e.vsld_ub(fa + (y * w + x) as u64, &[StrideMode::Cr]);
                let rec = e.vadd_ub(f, left);
                e.vsst_ub(rec, oa + (y * w + x) as u64, &[StrideMode::Cr]);
                e.free(f);
                e.free(left);
                left = rec;
            }
            e.free(left);
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let (w, h) = image(scale);
        // Serial in x: Neon cannot parallelise within a row; libpng's Neon
        // sub filter processes 4 bytes per dependent step.
        let steps = (w * h / 16) as u64;
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntSimple, steps),
                (NeonOpClass::Permute, steps),
            ],
            chain_ops: vec![(NeonOpClass::IntSimple, (w * h / 4) as u64)],
            loads: steps,
            stores: steps,
            scalar_instrs: steps * 3,
            touched_bytes: (w * h * 2) as u64,
            base_addr: 0xD00_0000,
        }
    }
}

/// `recon[y][x] = filt[y][x] + recon[y-1][x]` — serial in y, parallel in x.
pub struct FilterUp;

impl Kernel for FilterUp {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "png_filter_up",
            library: Library::Libpng,
            dims: 1,
            dtype_bits: 8,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let (w, h) = image(scale);
        let filt = gen_u8(0x72, w * h);
        let mut want = vec![0u8; w * h];
        for y in 0..h {
            for x in 0..w {
                let above = if y == 0 { 0 } else { want[(y - 1) * w + x] };
                want[y * w + x] = filt[y * w + x].wrapping_add(above);
            }
        }

        let mut e = engine();
        e.vsetwidth(8);
        let fa = e.mem_alloc_typed::<u8>(w * h);
        let oa = e.mem_alloc_typed::<u8>(w * h);
        e.mem_fill(fa, &filt);

        assert!(w <= e.lanes(), "row wider than the engine");
        e.vsetdimc(1);
        e.vsetdiml(0, w);
        let mut above = e.vsetdup_ub(0);
        for y in 0..h {
            e.scalar(4);
            let f = e.vsld_ub(fa + (y * w) as u64, &[StrideMode::One]);
            let rec = e.vadd_ub(f, above);
            e.vsst_ub(rec, oa + (y * w) as u64, &[StrideMode::One]);
            e.free(f);
            e.free(above);
            above = rec;
        }
        e.free(above);
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let (w, h) = image(scale);
        let steps = (w * h / 16) as u64;
        NeonProfile {
            ops: vec![(NeonOpClass::IntSimple, steps)],
            chain_ops: vec![],
            loads: steps * 2,
            stores: steps,
            scalar_instrs: steps * 2,
            touched_bytes: (w * h * 2) as u64,
            base_addr: 0xE00_0000,
        }
    }
}

fn paeth_predict(a: i16, b: i16, c: i16) -> i16 {
    let p = a + b - c;
    let pa = (p - a).abs();
    let pb = (p - b).abs();
    let pc = (p - c).abs();
    if pa <= pb && pa <= pc {
        a
    } else if pb <= pc {
        b
    } else {
        c
    }
}

/// Paeth defilter: the predictor select is a two-level Tag-latch
/// predication sequence.
///
/// Paeth depends on *left*, *above* and *upper-left*, so neither rows nor
/// columns are independent — the parallel set is the anti-diagonal
/// wavefront. Lane `y` at step `t` reconstructs pixel `(y, t-y)`; the three
/// predictors were produced at steps `t-1`/`t-2` and come back from memory
/// with stride `w` (MVE moves data between lanes through the cache,
/// Table II). Wavefront activation/retirement is two dimension-level mask
/// instructions per step (Section III-E) — the pattern that motivates
/// MVE's cheap masking.
pub struct FilterPaeth;

impl Kernel for FilterPaeth {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "png_filter_paeth",
            library: Library::Libpng,
            dims: 1,
            dtype_bits: 16,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let (w, h) = image(scale);
        let filt = gen_u8(0x73, w * h);
        // Padded reconstruction buffer: guard row above, guard column left.
        let stride = w + 1;
        let mut want = vec![0u8; (h + 1) * stride];
        for y in 0..h {
            for x in 0..w {
                let a = i16::from(want[(y + 1) * stride + x]); // left
                let b = i16::from(want[y * stride + x + 1]); // above
                let c = i16::from(want[y * stride + x]); // upper-left
                let pred = paeth_predict(a, b, c) as u8;
                want[(y + 1) * stride + x + 1] = filt[y * w + x].wrapping_add(pred);
            }
        }

        let mut e = engine();
        e.vsetwidth(16);
        let fa = e.mem_alloc_typed::<u8>(w * h);
        let ra = e.mem_alloc_typed::<u8>((h + 1) * stride);
        e.mem_fill(fa, &filt);

        // Rows are tiled to the 256-entry mask CR; the tile's top guard row
        // is the previous tile's last reconstructed row (already in memory).
        let rows_per_tile = 256.min(h);
        e.vsetdimc(1);
        e.vsetdiml(0, rows_per_tile);
        // All wavefront accesses stride by `stride-1` lanes apart... the
        // padded row pitch minus one column per row step.
        let wf = stride as i64 - 1;
        e.vsetldstr(0, wf);
        e.vsetststr(0, wf);
        for (y0, rows) in chunks(h, rows_per_tile) {
            e.vsetdiml(0, rows);
            // Start with every wavefront lane off.
            for lane in 0..rows {
                e.vunsetmask(lane);
            }
            let tile = ra + (y0 * stride) as u64; // padded guard row of tile
            for t in 0..(w + rows - 1) {
                e.scalar(8);
                // Advance the wavefront: lane t enters, lane t-w retires.
                if t < rows {
                    e.vsetmask(t);
                }
                if t >= w && t - w < rows {
                    e.vunsetmask(t - w);
                }
                let lanebase = |col_off: u64, row_off: u64| {
                    tile + row_off * stride as u64 + t as u64 + col_off
                };
                // a = left, b = above, c = upper-left (stride w apart).
                let a8 = e.vsld_ub(lanebase(0, 1), &[StrideMode::Cr]);
                let a = e.vcvt(a8, DType::I16);
                e.free(a8);
                let b8 = e.vsld_ub(lanebase(1, 0), &[StrideMode::Cr]);
                let b = e.vcvt(b8, DType::I16);
                e.free(b8);
                let c8 = e.vsld_ub(lanebase(0, 0), &[StrideMode::Cr]);
                let c = e.vcvt(c8, DType::I16);
                e.free(c8);
                // pa=|b-c|, pb=|a-c|, pc=|a+b-2c|.
                let zero = e.vsetdup_w(0);
                let bc = e.vsub_w(b, c);
                let nbc = e.vsub_w(zero, bc);
                let pa = e.vmax_w(bc, nbc);
                e.free(bc);
                e.free(nbc);
                let ac = e.vsub_w(a, c);
                let nac = e.vsub_w(zero, ac);
                let pb = e.vmax_w(ac, nac);
                e.free(ac);
                e.free(nac);
                let ab = e.vadd_w(a, b);
                let c2 = e.vadd_w(c, c);
                let abc = e.vsub_w(ab, c2);
                e.free(ab);
                e.free(c2);
                let nabc = e.vsub_w(zero, abc);
                let pc = e.vmax_w(abc, nabc);
                e.free(abc);
                e.free(nabc);
                e.free(zero);
                // pred = c; if pb<=pc pred = b; if pa<=pb && pa<=pc pred = a.
                let pred = e.vcpy_w(c);
                e.free(c);
                e.vlte_w(pb, pc);
                e.set_predication(true);
                e.copy_into(pred, b);
                e.set_predication(false);
                e.free(b);
                e.vlte_w(pa, pb);
                let m1 = tag_to_data(&mut e, DType::I16);
                e.vlte_w(pa, pc);
                let m2 = tag_to_data(&mut e, DType::I16);
                for r in [pa, pb, pc] {
                    e.free(r);
                }
                let both = e.vand_w(m1, m2);
                let one = e.vsetdup_w(1);
                e.veq_w(both, one);
                e.set_predication(true);
                e.copy_into(pred, a);
                e.set_predication(false);
                for r in [m1, m2, both, one, a] {
                    e.free(r);
                }
                // recon = filt + pred (mod 256). filt[y][x] at lane y:
                // fa + y0*w + y*w + (t-y) = fa + y0*w + t + y*(w-1).
                e.vsetldstr(0, w as i64 - 1);
                let f8 = e.vsld_ub(fa + (y0 * w + t) as u64, &[StrideMode::Cr]);
                e.vsetldstr(0, wf);
                let f = e.vcvt(f8, DType::I16);
                e.free(f8);
                let sum = e.vadd_w(f, pred);
                e.free(f);
                e.free(pred);
                let rec8 = e.vcvt(sum, DType::U8);
                e.free(sum);
                e.vsst_ub(rec8, lanebase(1, 1), &[StrideMode::Cr]);
                e.free(rec8);
            }
            e.vresetmask();
        }
        finish(e, ra, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let (w, h) = image(scale);
        let steps = (w * h / 8) as u64; // widened to 16-bit lanes
                                        // Paeth is serial in both x and y on a SIMD machine: libpng's Neon
                                        // paeth handles one 4-byte pixel per ~10-op dependent step.
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntSimple, steps * 12),
                (NeonOpClass::Permute, steps * 2),
            ],
            chain_ops: vec![(NeonOpClass::IntSimple, (w * h / 4 * 3) as u64)],
            loads: steps * 3,
            stores: steps,
            scalar_instrs: steps * 4,
            touched_bytes: (w * h * 2) as u64,
            base_addr: 0xF00_0000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_sub_matches_reference() {
        assert!(FilterSub.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn filter_up_matches_reference() {
        assert!(FilterUp.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn paeth_predictor_scalar_sanity() {
        assert_eq!(paeth_predict(0, 0, 0), 0);
        assert_eq!(paeth_predict(10, 200, 10), 200); // p=200, closest to b
        assert_eq!(paeth_predict(200, 10, 10), 200);
        assert_eq!(paeth_predict(100, 100, 1), 100);
    }

    #[test]
    fn filter_paeth_matches_reference() {
        let run = FilterPaeth.run_mve(Scale::Test);
        assert!(run.checked.ok(), "{:?}", run.checked);
    }
}
