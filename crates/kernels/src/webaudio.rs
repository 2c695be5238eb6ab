//! WebAudio (Blink) — f32 audio-chunk kernels. WebAudio processes audio in
//! 128-sample render quanta across multiple channels, which is exactly the
//! "limited 1-D parallelism" motivating example of the paper's introduction:
//! MVE batches `chunk × channel` into one 2-D/3-D shape.

use crate::common::{
    check_f32, chunks, engine, finish, gen_f32, tree_reduce, KernelRun, Scale, Within,
};
use crate::registry::{Kernel, KernelInfo, Library};
use mve_core::engine::{Engine, Reg};
use mve_core::isa::StrideMode;
use mve_coresim::neon::{NeonOpClass, NeonProfile};

/// WebAudio render quantum.
const FRAMES: usize = 128;

/// Render quanta per channel.
fn quanta(scale: Scale) -> usize {
    match scale {
        Scale::Test => 32,
        Scale::Paper => 1024,
    }
}
const CHANNELS: usize = 4;

fn total(scale: Scale) -> usize {
    FRAMES * CHANNELS * quanta(scale)
}

/// Generic element-wise audio op runner shared by vsmul/vadd/vclip.
fn run_elementwise(
    scale: Scale,
    seed: u64,
    want_fn: impl Fn(f32, f32) -> f32,
    op: impl Fn(&mut Engine, Reg, Reg) -> Reg,
) -> KernelRun {
    let n = total(scale);
    let x = gen_f32(seed, n);
    let y = gen_f32(seed ^ 0xFF, n);
    let want: Vec<f32> = x.iter().zip(&y).map(|(&a, &b)| want_fn(a, b)).collect();

    let mut e = engine();
    let xa = e.mem_alloc_typed::<f32>(n);
    let ya = e.mem_alloc_typed::<f32>(n);
    let oa = e.mem_alloc_typed::<f32>(n);
    e.mem_fill(xa, &x);
    e.mem_fill(ya, &y);

    let lanes = e.lanes();
    // 3-D shape: frames × channels × chunks (all contiguous here, but the
    // multi-dimensional config is what lets one instruction span chunks).
    let chunks_per_tile = (lanes / (FRAMES * CHANNELS)).max(1);
    e.vsetdimc(3);
    e.vsetdiml(0, FRAMES);
    e.vsetdiml(1, CHANNELS);
    let m = [StrideMode::One, StrideMode::Seq, StrideMode::Seq];
    for (c, nc) in chunks(quanta(scale), chunks_per_tile) {
        e.vsetdiml(2, nc);
        e.scalar(6);
        let off = (c * FRAMES * CHANNELS * 4) as u64;
        let xv = e.vsld_f(xa + off, &m);
        let yv = e.vsld_f(ya + off, &m);
        let r = op(&mut e, xv, yv);
        e.vsst_f(r, oa + off, &m);
        for rg in [xv, yv, r] {
            e.free(rg);
        }
    }
    finish(e, oa, &Within(&want, 1e-6))
}

fn audio_profile(scale: Scale, ops_per_elem: u64, loads_per_elem_x4: u64) -> NeonProfile {
    let v = total(scale) as u64 / 4;
    NeonProfile {
        ops: vec![(NeonOpClass::FpAdd, v * ops_per_elem)],
        chain_ops: vec![],
        loads: v * loads_per_elem_x4,
        stores: v,
        scalar_instrs: v * 2,
        touched_bytes: total(scale) as u64 * 12,
        base_addr: 0x1C00_0000,
    }
}

/// Scale a buffer by a constant (`VectorMath::vsmul`).
pub struct Vsmul;

impl Kernel for Vsmul {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "audio_vsmul",
            library: Library::Webaudio,
            dims: 3,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let k = std::f32::consts::FRAC_1_SQRT_2;
        run_elementwise(
            scale,
            0xA1,
            |a, _| a * k,
            |e, x, _| {
                let kv = e.vsetdup_f(k);
                let r = e.vmul_f(x, kv);
                e.free(kv);
                r
            },
        )
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        audio_profile(scale, 1, 1)
    }
}

/// Element-wise buffer addition (`VectorMath::vadd`).
pub struct VaddAudio;

impl Kernel for VaddAudio {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "audio_vadd",
            library: Library::Webaudio,
            dims: 3,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        run_elementwise(scale, 0xA2, |a, b| a + b, |e, x, y| e.vadd_f(x, y))
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        audio_profile(scale, 1, 2)
    }
}

/// Clamp samples to [-1, 1] (`VectorMath::vclip`).
pub struct Vclip;

impl Kernel for Vclip {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "audio_vclip",
            library: Library::Webaudio,
            dims: 3,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        run_elementwise(
            scale,
            0xA3,
            |a, b| (a + b).clamp(-1.0, 1.0),
            |e, x, y| {
                let s = e.vadd_f(x, y); // mix, then clip
                let lo = e.vsetdup_f(-1.0);
                let a = e.vmax_f(s, lo);
                e.free(s);
                e.free(lo);
                let hi = e.vsetdup_f(1.0);
                let r = e.vmin_f(a, hi);
                e.free(a);
                e.free(hi);
                r
            },
        )
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        audio_profile(scale, 3, 2)
    }
}

/// Energy sum of a buffer (`VectorMath::sum`), via the Section IV tree
/// reduction.
pub struct SumAudio;

impl Kernel for SumAudio {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "audio_sum",
            library: Library::Webaudio,
            dims: 2,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let n = total(scale);
        let x = gen_f32(0xA4, n);
        let mut e = engine();
        let xa = e.mem_alloc_typed::<f32>(n);
        e.mem_fill(xa, &x);

        let lanes = e.lanes();
        let mut sums = Vec::new();
        let mut want = Vec::new();
        e.vsetdimc(1);
        for (base, chunk) in chunks(n, lanes) {
            assert!(chunk.is_power_of_two(), "audio tiles are powers of two");
            e.vsetdiml(0, chunk);
            e.scalar(6);
            let v = e.vsld_f(xa + (base * 4) as u64, &[StrideMode::One]);
            let raw = tree_reduce(&mut e, v, chunk);
            sums.push(f32::from_bits(raw as u32));
            // Reference reduced in the same pairwise order.
            let mut vals: Vec<f32> = x[base..base + chunk].to_vec();
            while vals.len() > 1 {
                let half = vals.len() / 2;
                for i in 0..half {
                    vals[i] += vals[i + half];
                }
                vals.truncate(half);
            }
            want.push(vals[0]);
        }
        KernelRun::new(e, check_f32(&sums, &want, 1e-3))
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = total(scale) as u64 / 4;
        NeonProfile {
            ops: vec![(NeonOpClass::FpAdd, v), (NeonOpClass::Reduce, 4)],
            chain_ops: vec![(NeonOpClass::FpAdd, v / 4)],
            loads: v,
            stores: 1,
            scalar_instrs: v,
            touched_bytes: total(scale) as u64 * 4,
            base_addr: 0x1D00_0000,
        }
    }
}

/// Planar → interleaved channel conversion: a pure layout transpose done by
/// one strided load + one strided store per tile (Section IV matrix
/// transposition pattern).
pub struct Interleave;

impl Kernel for Interleave {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "audio_interleave",
            library: Library::Webaudio,
            dims: 2,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let frames = FRAMES * quanta(scale);
        let n = frames * CHANNELS;
        let planar = gen_f32(0xA5, n); // planar[c * frames + f]
        let mut want = vec![0.0f32; n];
        for f in 0..frames {
            for c in 0..CHANNELS {
                want[f * CHANNELS + c] = planar[c * frames + f];
            }
        }

        let mut e = engine();
        let ia = e.mem_alloc_typed::<f32>(n);
        let oa = e.mem_alloc_typed::<f32>(n);
        e.mem_fill(ia, &planar);

        let lanes = e.lanes();
        let frames_per_tile = lanes / CHANNELS;
        e.vsetdimc(2);
        e.vsetdiml(0, CHANNELS);
        e.vsetldstr(0, frames as i64); // channel plane stride
        e.vsetldstr(1, 1);
        e.vsetststr(0, 1);
        e.vsetststr(1, CHANNELS as i64);
        for (f, nf) in chunks(frames, frames_per_tile) {
            e.vsetdiml(1, nf);
            e.scalar(6);
            // Load: lane [c][f] = planar[c·F + f]; store: out[f·C + c].
            let v = e.vsld_f(ia + (f * 4) as u64, &[StrideMode::Cr, StrideMode::Cr]);
            e.vsst_f(
                v,
                oa + (f * CHANNELS * 4) as u64,
                &[StrideMode::Cr, StrideMode::Cr],
            );
            e.free(v);
        }
        finish(e, oa, &Within(&want, 0.0))
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = total(scale) as u64 / 4;
        NeonProfile {
            ops: vec![(NeonOpClass::Permute, v * 2)],
            chain_ops: vec![],
            loads: v,
            stores: v,
            scalar_instrs: v * 2,
            touched_bytes: total(scale) as u64 * 8,
            base_addr: 0x1E00_0000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vsmul_matches() {
        assert!(Vsmul.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn vadd_matches() {
        assert!(VaddAudio.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn vclip_matches() {
        assert!(Vclip.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn sum_matches() {
        assert!(SumAudio.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn interleave_matches_and_is_two_instructions_per_tile() {
        let run = Interleave.run_mve(Scale::Test);
        assert!(run.checked.ok());
        let mix = run.trace.instr_mix();
        // Pure transpose: memory accesses dominate, no arithmetic.
        assert_eq!(mix.arithmetic, 0);
    }
}
