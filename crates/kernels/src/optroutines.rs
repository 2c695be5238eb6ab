//! Arm Optimized Routines — string/network utilities: memcpy, memset,
//! strlen, memchr and the Internet checksum (the paper's selected CSUM).
//!
//! CSUM's MVE and RVV bodies solve one problem: `Csum::solve` writes the
//! buffer to a fresh engine, runs the body, which returns the word sum,
//! folds it on the scalar core and checks the checksum.

use crate::common::{
    check_exact, chunks, engine, finish, gen_u8, tag_to_data, tree_reduce, KernelRun, Scale,
};
use crate::registry::{Kernel, KernelInfo, Library};
use mve_baselines::gpu::GpuKernelCost;
use mve_baselines::rvv;
use mve_core::dtype::DType;
use mve_core::engine::Engine;
use mve_core::isa::StrideMode;
use mve_coresim::neon::{NeonOpClass, NeonProfile};

fn buf_len(scale: Scale) -> usize {
    match scale {
        Scale::Test => 16 * 1024,
        Scale::Paper => 128 * 1024,
    }
}

/// Bulk copy.
pub struct Memcpy;

impl Kernel for Memcpy {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "memcpy",
            library: Library::OptRoutines,
            dims: 1,
            dtype_bits: 8,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let n = buf_len(scale);
        let src = gen_u8(0xD1, n);
        let mut e = engine();
        e.vsetwidth(8);
        let sa = e.mem_alloc_typed::<u8>(n);
        let da = e.mem_alloc_typed::<u8>(n);
        e.mem_fill(sa, &src);
        let lanes = e.lanes();
        e.vsetdimc(1);
        for (base, chunk) in chunks(n, lanes) {
            e.vsetdiml(0, chunk);
            e.scalar(4);
            let v = e.vsld_ub(sa + base as u64, &[StrideMode::One]);
            e.vsst_ub(v, da + base as u64, &[StrideMode::One]);
            e.free(v);
        }
        finish(e, da, &src[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = buf_len(scale) as u64 / 16;
        NeonProfile {
            ops: vec![],
            chain_ops: vec![],
            loads: v,
            stores: v,
            scalar_instrs: v,
            touched_bytes: buf_len(scale) as u64 * 2,
            base_addr: 0x2400_0000,
        }
    }
}

/// Bulk fill.
pub struct Memset;

impl Kernel for Memset {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "memset",
            library: Library::OptRoutines,
            dims: 1,
            dtype_bits: 8,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let n = buf_len(scale);
        let fill = 0xA5u8;
        let want = vec![fill; n];
        let mut e = engine();
        e.vsetwidth(8);
        let da = e.mem_alloc_typed::<u8>(n);
        let lanes = e.lanes();
        e.vsetdimc(1);
        for (base, chunk) in chunks(n, lanes) {
            e.vsetdiml(0, chunk);
            e.scalar(3);
            let v = e.vsetdup_ub(fill);
            e.vsst_ub(v, da + base as u64, &[StrideMode::One]);
            e.free(v);
        }
        finish(e, da, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = buf_len(scale) as u64 / 16;
        NeonProfile {
            ops: vec![],
            chain_ops: vec![],
            loads: 0,
            stores: v,
            scalar_instrs: v / 2,
            touched_bytes: buf_len(scale) as u64,
            base_addr: 0x2500_0000,
        }
    }
}

/// Shared scan kernel: find the first occurrence of `target` using compare
/// + Tag materialisation + scalar scan of the flag tile.
fn scan_for_byte(data: &[u8], target: u8) -> KernelRun {
    let n = data.len();
    let mut e = engine();
    e.vsetwidth(8);
    let da = e.mem_alloc_typed::<u8>(n);
    let fa = e.mem_alloc_typed::<u8>(e.lanes());
    e.mem_fill(da, data);

    let lanes = e.lanes();
    e.vsetdimc(1);
    let mut found = n;
    for (base, chunk) in chunks(n, lanes) {
        e.vsetdiml(0, chunk);
        e.scalar(5);
        let v = e.vsld_ub(da + base as u64, &[StrideMode::One]);
        let t = e.vsetdup_ub(target);
        e.veq_ub(v, t);
        e.free(v);
        e.free(t);
        let flags = tag_to_data(&mut e, DType::U8);
        e.vsst_ub(flags, fa, &[StrideMode::One]);
        e.free(flags);
        // Scalar scan of the flag tile (early-exit strlen-style loop).
        e.scalar(chunk as u64 / 16);
        let mut hit = None;
        for i in 0..chunk {
            if e.mem_read::<u8>(fa, i) == 1 {
                hit = Some(base + i);
                break;
            }
        }
        if let Some(h) = hit {
            found = h;
            break;
        }
    }
    let want = data.iter().position(|&b| b == target).unwrap_or(n);
    KernelRun::new(e, check_exact(&[found], &[want]))
}

/// C string length (find the first NUL).
pub struct Strlen;

impl Kernel for Strlen {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "strlen",
            library: Library::OptRoutines,
            dims: 1,
            dtype_bits: 8,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let n = buf_len(scale);
        let mut s: Vec<u8> = gen_u8(0xD2, n).iter().map(|&b| b | 1).collect();
        s[n * 3 / 4] = 0; // the terminator
        scan_for_byte(&s, 0)
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = (buf_len(scale) * 3 / 4 / 16) as u64;
        NeonProfile {
            ops: vec![(NeonOpClass::IntSimple, v), (NeonOpClass::Reduce, v / 4)],
            chain_ops: vec![],
            loads: v,
            stores: 0,
            scalar_instrs: v,
            touched_bytes: (buf_len(scale) * 3 / 4) as u64,
            base_addr: 0x2600_0000,
        }
    }
}

/// Find a byte in a buffer.
pub struct Memchr;

impl Kernel for Memchr {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "memchr",
            library: Library::OptRoutines,
            dims: 1,
            dtype_bits: 8,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let n = buf_len(scale);
        let mut s: Vec<u8> = gen_u8(0xD3, n).iter().map(|&b| b % 250).collect();
        s[n / 2 + 17] = 0xFE;
        scan_for_byte(&s, 0xFE)
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = (buf_len(scale) / 2 / 16) as u64;
        NeonProfile {
            ops: vec![(NeonOpClass::IntSimple, v), (NeonOpClass::Reduce, v / 4)],
            chain_ops: vec![],
            loads: v,
            stores: 0,
            scalar_instrs: v,
            touched_bytes: (buf_len(scale) / 2) as u64,
            base_addr: 0x2700_0000,
        }
    }
}

/// RFC 1071 Internet checksum (the paper's CSUM selected kernel): 16-bit
/// ones'-complement sum of a buffer.
pub struct Csum;

impl Csum {
    /// Scalar reference.
    pub fn scalar_ref(data: &[u8]) -> u16 {
        let mut sum: u64 = 0;
        for pair in data.chunks(2) {
            let w = u64::from(pair[0]) | (u64::from(*pair.get(1).unwrap_or(&0)) << 8);
            sum += w;
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// The problem both bodies solve: writes the buffer to a fresh engine
    /// and runs `body(e, base, words)`, which returns the sum of the
    /// buffer's 16-bit words. The ones'-complement folds run on the scalar
    /// core, and the checksum is checked against the reference.
    fn solve(scale: Scale, body: impl FnOnce(&mut Engine, u64, usize) -> u64) -> KernelRun {
        let n = buf_len(scale);
        let data = gen_u8(0xD4, n);
        let want = Self::scalar_ref(&data);

        let mut e = engine();
        let da = e.mem_alloc_typed::<u8>(n);
        e.mem_fill(da, &data);
        let mut total = body(&mut e, da, n / 2);
        while total >> 16 != 0 {
            total = (total & 0xFFFF) + (total >> 16);
        }
        e.scalar(6);
        KernelRun::new(e, check_exact(&[!(total as u16)], &[want]))
    }
}

impl Kernel for Csum {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "csum",
            library: Library::OptRoutines,
            dims: 1,
            dtype_bits: 32,
            selected: true,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        Self::solve(scale, |e, da, words| {
            e.vsetdimc(1);
            let mut total = 0;
            for (base, chunk) in chunks(words, e.lanes()) {
                e.vsetdiml(0, chunk);
                e.scalar(5);
                let w16 = e.vsld_uw(da + (base * 2) as u64, &[StrideMode::One]);
                let w32 = e.vcvt(w16, DType::U32);
                e.free(w16);
                total += tree_reduce(e, w32, chunk);
                e.scalar(4);
            }
            total
        })
    }

    fn run_rvv(&self, scale: Scale) -> Option<KernelRun> {
        // CSUM is 1-D: the RVV version is structurally identical.
        Some(Self::solve(scale, |e, da, words| {
            let mut total = 0;
            for (base, chunk) in chunks(words, e.lanes()) {
                rvv::setvlmax(e);
                rvv::setvl(e, chunk);
                e.scalar(5);
                let w16 = rvv::load_1d(e, DType::U16, da + (base * 2) as u64, 1);
                let w32 = e.vcvt(w16, DType::U32);
                e.free(w16);
                e.vsetdimc(1);
                e.vsetdiml(0, chunk);
                total += tree_reduce(e, w32, chunk);
                e.scalar(4);
            }
            total
        }))
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = buf_len(scale) as u64 / 16;
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntSimple, v * 2),
                (NeonOpClass::Reduce, v / 8),
            ],
            chain_ops: vec![(NeonOpClass::IntSimple, v / 8)],
            loads: v,
            stores: 0,
            scalar_instrs: v,
            touched_bytes: buf_len(scale) as u64,
            base_addr: 0x2800_0000,
        }
    }

    fn gpu_cost(&self, scale: Scale) -> Option<GpuKernelCost> {
        let n = buf_len(scale) as u64;
        Some(GpuKernelCost {
            ops: n,
            bytes_in: n,
            bytes_out: 4,
            launches: 2, // reduce + fold passes
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memcpy_matches() {
        assert!(Memcpy.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn memset_matches() {
        assert!(Memset.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn strlen_finds_terminator() {
        assert!(Strlen.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn memchr_finds_byte() {
        assert!(Memchr.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn csum_reference_sanity() {
        // RFC 1071 example: bytes 00 01 f2 03 f4 f5 f6 f7 → sum 0xddf2,
        // checksum 0x220d (little-endian word interpretation).
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        let c = Csum::scalar_ref(&data);
        let sum = !c;
        let mut check: u64 = 0;
        for p in data.chunks(2) {
            check += u64::from(p[0]) | (u64::from(p[1]) << 8);
        }
        while check >> 16 != 0 {
            check = (check & 0xFFFF) + (check >> 16);
        }
        assert_eq!(u64::from(sum), check);
    }

    #[test]
    fn csum_mve_matches() {
        assert!(Csum.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn csum_rvv_matches() {
        assert!(Csum.run_rvv(Scale::Test).expect("selected").checked.ok());
    }
}
