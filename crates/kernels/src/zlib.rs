//! zlib — `adler32` (weighted reduction) and `compare258` (longest-match
//! scan over multiple candidates via random-base loads + predication).

use crate::common::{
    check_exact, chunks, engine, gen_u8, tag_to_data, tree_halve, KernelRun, Scale,
};
use crate::registry::{Kernel, KernelInfo, Library};
use mve_core::dtype::DType;
use mve_core::isa::StrideMode;
use mve_coresim::neon::{NeonOpClass, NeonProfile};

const ADLER_MOD: u64 = 65521;

fn buf_len(scale: Scale) -> usize {
    match scale {
        Scale::Test => 8 * 1024,
        Scale::Paper => 128 * 1024,
    }
}

/// Adler-32 checksum. `s1 = 1 + Σ d[i]`, `s2 = n + Σ (n-i)·d[i]` — the
/// weighted sum vectorises with a precomputed weight vector and two tree
/// reductions; the modulo folds run on the scalar core.
pub struct Adler32;

impl Adler32 {
    /// Scalar reference.
    pub fn scalar_ref(data: &[u8]) -> u32 {
        let mut s1: u64 = 1;
        let mut s2: u64 = 0;
        for &b in data {
            s1 = (s1 + u64::from(b)) % ADLER_MOD;
            s2 = (s2 + s1) % ADLER_MOD;
        }
        ((s2 << 16) | s1) as u32
    }
}

impl Kernel for Adler32 {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "adler32",
            library: Library::Zlib,
            dims: 1,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let n = buf_len(scale);
        let data = gen_u8(0xB1, n);
        let want = vec![Self::scalar_ref(&data)];

        let mut e = engine();
        let da = e.mem_alloc_typed::<u8>(n);
        e.mem_fill(da, &data);
        // Weight vector w[i] = chunk-relative (chunk - i); built once by the
        // scalar core. Per-lane products stay within i32 (8192 x 255); the
        // partial sums are folded in-cache to 256 values and summed in u64
        // on the core (zlib's NMAX deferred-modulo trick, vector-sized).
        let lanes = e.lanes();
        let wa = e.mem_alloc_typed::<i32>(lanes);
        let weights: Vec<i32> = (0..lanes).map(|i| (lanes - i) as i32).collect();
        e.mem_fill(wa, &weights);
        e.scalar(2 * lanes as u64);

        // Process in full-lane chunks: for each chunk,
        //   s1 += Σ d[i];  s2 += chunk·s1_prev + Σ (chunk-i)·d[i].
        let mut s1: u64 = 1;
        let mut s2: u64 = 0;
        e.vsetdimc(1);
        for (base, chunk) in chunks(n, lanes) {
            assert!(chunk.is_power_of_two(), "chunk the tail on the CPU");
            e.vsetdiml(0, chunk);
            e.scalar(10);
            let d8 = e.vsld_ub(da + base as u64, &[StrideMode::One]);
            let d = e.vcvt(d8, DType::I32);
            e.free(d8);
            let w = e.vsld_dw(wa, &[StrideMode::One]);
            let wd = e.vmul_dw(d, w);
            e.free(w);
            let dsum_reg = e.vcpy_dw(d);
            e.free(d);
            let reduce_u64 = |e: &mut mve_core::engine::Engine, v, chunk: usize| -> u64 {
                let stop = chunk.min(256);
                let partials = tree_halve(e, v, chunk, stop);
                e.vsetdimc(1);
                e.vsetdiml(0, stop);
                let tmp = e.mem_alloc(stop as u64 * 4);
                e.store(partials, tmp, &[StrideMode::One]);
                e.free(partials);
                e.scalar(2 * stop as u64);
                (0..stop)
                    .map(|i| e.mem().read_raw(tmp + i as u64 * 4, 4))
                    .sum()
            };
            let dsum = reduce_u64(&mut e, dsum_reg, chunk);
            let wsum = reduce_u64(&mut e, wd, chunk);
            // Scalar folds (exactly the zlib NMAX deferred-modulo trick).
            s2 = (s2 + (chunk as u64 % ADLER_MOD) * (s1 % ADLER_MOD) + wsum) % ADLER_MOD;
            s1 = (s1 + dsum) % ADLER_MOD;
            e.scalar(12);
        }
        let got = vec![((s2 << 16) | s1) as u32];
        KernelRun::new(e, check_exact(&got, &want))
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = buf_len(scale) as u64 / 16;
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntSimple, v * 3),
                (NeonOpClass::IntMul, v),
                (NeonOpClass::Reduce, v / 8),
            ],
            // zlib's NEON adler32 carries s1/s2 across every 16-byte step:
            // the accumulator chain serialises the whole buffer.
            chain_ops: vec![(NeonOpClass::IntSimple, v * 2)],
            loads: v,
            stores: 0,
            scalar_instrs: v * 3,
            touched_bytes: buf_len(scale) as u64,
            base_addr: 0x1F00_0000,
        }
    }
}

/// zlib's `compare258`: for a batch of match candidates (hash-chain hits),
/// count how many of up to 258 bytes match the current window. MVE loads
/// the candidates with random-base strided loads, compares, materialises
/// the per-lane match bits and lets the scalar core find each first
/// mismatch.
pub struct Compare258;

const MATCH_LEN: usize = 256; // power-of-two stand-in for zlib's 258
const CANDIDATES: usize = 24;

impl Compare258 {
    fn scalar_ref(window: &[u8], data: &[u8], cands: &[usize]) -> Vec<u32> {
        cands
            .iter()
            .map(|&c| {
                let mut len = 0u32;
                while (len as usize) < MATCH_LEN && window[len as usize] == data[c + len as usize] {
                    len += 1;
                }
                len
            })
            .collect()
    }
}

impl Kernel for Compare258 {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "compare258",
            library: Library::Zlib,
            dims: 2,
            dtype_bits: 8,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let n = buf_len(scale);
        let data = gen_u8(0xB2, n + MATCH_LEN);
        // The window partially matches candidate 0 to make lengths varied.
        let mut window = gen_u8(0xB3, MATCH_LEN);
        window[..40].copy_from_slice(&data[100..140]);
        let cands: Vec<usize> = (0..CANDIDATES)
            .map(|i| 100 + i * (n / CANDIDATES))
            .collect();
        let want = Self::scalar_ref(&window, &data, &cands);

        let mut e = engine();
        e.vsetwidth(8);
        let da = e.mem_alloc_typed::<u8>(n + MATCH_LEN);
        let wa = e.mem_alloc_typed::<u8>(MATCH_LEN);
        let fa = e.mem_alloc_typed::<u8>(CANDIDATES * MATCH_LEN);
        e.mem_fill(da, &data);
        e.mem_fill(wa, &window);
        // Candidate base pointers (computed by the scalar core's hash chain).
        let pa = e.mem_alloc_typed::<u64>(CANDIDATES);
        let ptrs: Vec<u64> = cands.iter().map(|&c| da + c as u64).collect();
        e.mem_fill(pa, &ptrs);
        e.scalar(6 * CANDIDATES as u64);

        // 2-D: [byte (dim0), candidate (dim1, random base)].
        e.vsetdimc(2);
        e.vsetdiml(0, MATCH_LEN);
        e.vsetdiml(1, CANDIDATES);
        let cand_bytes = e.vrld_ub(pa, &[StrideMode::One]);
        // Window replicated across candidates.
        let win = e.vsld_ub(wa, &[StrideMode::One, StrideMode::Zero]);
        e.veq_ub(cand_bytes, win);
        e.free(cand_bytes);
        e.free(win);
        let flags = tag_to_data(&mut e, DType::U8);
        e.vsst_ub(flags, fa, &[StrideMode::One, StrideMode::Seq]);
        e.free(flags);
        // Scalar scan for the first zero flag per candidate.
        e.scalar(8 * CANDIDATES as u64);
        let got: Vec<u32> = (0..CANDIDATES)
            .map(|c| {
                let mut len = 0u32;
                while (len as usize) < MATCH_LEN
                    && e.mem_read::<u8>(fa, c * MATCH_LEN + len as usize) == 1
                {
                    len += 1;
                }
                len
            })
            .collect();
        KernelRun::new(e, check_exact(&got, &want))
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let _ = scale;
        let v = (CANDIDATES * MATCH_LEN / 16) as u64;
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntSimple, v * 2),
                (NeonOpClass::Reduce, CANDIDATES as u64),
            ],
            chain_ops: vec![],
            loads: v * 2,
            stores: 0,
            scalar_instrs: v * 4,
            touched_bytes: (CANDIDATES * MATCH_LEN * 2) as u64,
            base_addr: 0x2000_0000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adler32_matches_reference() {
        assert!(Adler32.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn adler32_reference_sanity() {
        // Known vector: adler32 of "Wikipedia" = 0x11E60398.
        assert_eq!(Adler32::scalar_ref(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn compare258_matches_reference() {
        let run = Compare258.run_mve(Scale::Test);
        assert!(run.checked.ok(), "{:?}", run.checked);
    }

    #[test]
    fn compare258_finds_partial_match() {
        // The seeded window guarantees candidate 0 matches ≥ 40 bytes.
        let n = buf_len(Scale::Test);
        let data = gen_u8(0xB2, n + MATCH_LEN);
        let mut window = gen_u8(0xB3, MATCH_LEN);
        window[..40].copy_from_slice(&data[100..140]);
        let lens = Compare258::scalar_ref(&window, &data, &[100]);
        assert!(lens[0] >= 40);
    }
}
