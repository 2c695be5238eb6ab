//! BoringSSL — block-parallel cryptography. ChaCha20 and the SHA-256
//! message schedule parallelise across independent blocks (one block per
//! SIMD lane); the 8-register in-cache file forces their 16-word working
//! sets through memory, which is exactly the register-pressure behaviour
//! Section III-G describes.

use crate::common::{chunks, engine, finish, gen_u8, KernelRun, Scale};
use crate::registry::{Kernel, KernelInfo, Library};
use mve_core::isa::StrideMode;
use mve_coresim::neon::{NeonOpClass, NeonProfile};

fn nblocks(scale: Scale) -> usize {
    match scale {
        Scale::Test => 128,
        Scale::Paper => 2048, // 128 KB of keystream
    }
}

/// Scalar ChaCha20 quarter round.
fn qr(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// Scalar ChaCha20 block function.
fn chacha_block(key: &[u32; 8], counter: u32, nonce: &[u32; 3]) -> [u32; 16] {
    let mut s = [0u32; 16];
    s[0..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
    s[4..12].copy_from_slice(key);
    s[12] = counter;
    s[13..16].copy_from_slice(nonce);
    let init = s;
    for _ in 0..10 {
        qr(&mut s, 0, 4, 8, 12);
        qr(&mut s, 1, 5, 9, 13);
        qr(&mut s, 2, 6, 10, 14);
        qr(&mut s, 3, 7, 11, 15);
        qr(&mut s, 0, 5, 10, 15);
        qr(&mut s, 1, 6, 11, 12);
        qr(&mut s, 2, 7, 8, 13);
        qr(&mut s, 3, 4, 9, 14);
    }
    for i in 0..16 {
        s[i] = s[i].wrapping_add(init[i]);
    }
    s
}

/// Multi-block ChaCha20 keystream generation: state word `w` of block `b`
/// lives at `state[w·B + b]`, so each quarter-round step is a handful of
/// 1-D vector ops; the 16-word state spills through memory by construction.
pub struct Chacha20;

impl Kernel for Chacha20 {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "chacha20",
            library: Library::Boringssl,
            dims: 1,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let b = nblocks(scale);
        let key: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 0xdead_beef];
        let nonce: [u32; 3] = [0x0102_0304, 0, 42];
        // Word-major, as the kernel stores it: word `w` of block `blk` at
        // `w·B + blk`.
        let blocks: Vec<[u32; 16]> = (0..b)
            .map(|blk| chacha_block(&key, blk as u32, &nonce))
            .collect();
        let want: Vec<u32> = (0..16)
            .flat_map(|w| blocks.iter().map(move |blk| blk[w]))
            .collect();

        let mut e = engine();
        assert!(b <= e.lanes(), "blocks exceed the lane count");
        // state[w][b] and init[w][b], word-major.
        let sa = e.mem_alloc_typed::<u32>(16 * b);
        let ia = e.mem_alloc_typed::<u32>(16 * b);
        let oa = e.mem_alloc_typed::<u32>(16 * b);
        let mut init = vec![0u32; 16 * b];
        for blk in 0..b {
            let consts = [0x6170_7865u32, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];
            for w in 0..4 {
                init[w * b + blk] = consts[w];
            }
            for w in 0..8 {
                init[(4 + w) * b + blk] = key[w];
            }
            init[12 * b + blk] = blk as u32;
            for w in 0..3 {
                init[(13 + w) * b + blk] = nonce[w];
            }
        }
        e.mem_fill(sa, &init);
        e.mem_fill(ia, &init);
        e.scalar(8 * b as u64);

        e.vsetdimc(1);
        e.vsetdiml(0, b);
        let word = |w: usize| sa + (w * b * 4) as u64;
        // In-register quarter round: loads 4 state words, stores 4 back.
        let vqr = |e: &mut mve_core::engine::Engine, a: usize, bb: usize, c: usize, d: usize| {
            e.scalar(4);
            let m = [StrideMode::One];
            let mut va = e.vsld_udw(word(a), &m);
            let mut vb = e.vsld_udw(word(bb), &m);
            let mut vc = e.vsld_udw(word(c), &m);
            let mut vd = e.vsld_udw(word(d), &m);
            for (rot1, rot2) in [(16u32, 12u32), (8, 7)] {
                let t = e.vadd_udw(va, vb);
                e.free(va);
                va = t;
                let x = e.vxor_udw(vd, va);
                e.free(vd);
                vd = e.vrotil_udw(x, rot1);
                e.free(x);
                let t = e.vadd_udw(vc, vd);
                e.free(vc);
                vc = t;
                let x = e.vxor_udw(vb, vc);
                e.free(vb);
                vb = e.vrotil_udw(x, rot2);
                e.free(x);
            }
            e.vsst_udw(va, word(a), &m);
            e.vsst_udw(vb, word(bb), &m);
            e.vsst_udw(vc, word(c), &m);
            e.vsst_udw(vd, word(d), &m);
            for r in [va, vb, vc, vd] {
                e.free(r);
            }
        };
        for _ in 0..10 {
            vqr(&mut e, 0, 4, 8, 12);
            vqr(&mut e, 1, 5, 9, 13);
            vqr(&mut e, 2, 6, 10, 14);
            vqr(&mut e, 3, 7, 11, 15);
            vqr(&mut e, 0, 5, 10, 15);
            vqr(&mut e, 1, 6, 11, 12);
            vqr(&mut e, 2, 7, 8, 13);
            vqr(&mut e, 3, 4, 9, 14);
        }
        // Final feed-forward addition.
        for w in 0..16 {
            e.scalar(3);
            let s = e.vsld_udw(word(w), &[StrideMode::One]);
            let i0 = e.vsld_udw(ia + (w * b * 4) as u64, &[StrideMode::One]);
            let o = e.vadd_udw(s, i0);
            e.vsst_udw(o, oa + (w * b * 4) as u64, &[StrideMode::One]);
            for r in [s, i0, o] {
                e.free(r);
            }
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let b = nblocks(scale) as u64;
        // 4-block Neon ChaCha: 20 rounds × 4 QRs × 12 ops per 4 blocks.
        let v = b / 4;
        NeonProfile {
            ops: vec![
                (NeonOpClass::IntSimple, v * 20 * 4 * 8),
                (NeonOpClass::Shift, v * 20 * 4 * 8),
            ],
            chain_ops: vec![(NeonOpClass::IntSimple, 20 * 12)],
            loads: v * 16,
            stores: v * 16,
            scalar_instrs: v * 60,
            touched_bytes: b * 64 * 2,
            base_addr: 0x2100_0000,
        }
    }
}

/// Scalar SHA-256 sigma functions.
fn sigma0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}
fn sigma1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

/// SHA-256 message-schedule expansion (`W[16..64]`) across many blocks.
pub struct Sha256Msched;

impl Kernel for Sha256Msched {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "sha256_msched",
            library: Library::Boringssl,
            dims: 1,
            dtype_bits: 32,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let b = nblocks(scale);
        let msg = gen_u8(0xC1, b * 64);
        // W[t][blk] layout; first 16 words from the message (big-endian).
        let mut w = vec![0u32; 64 * b];
        for blk in 0..b {
            for t in 0..16 {
                let o = blk * 64 + t * 4;
                w[t * b + blk] = u32::from_be_bytes([msg[o], msg[o + 1], msg[o + 2], msg[o + 3]]);
            }
        }
        let mut want = w.clone();
        for t in 16..64 {
            for blk in 0..b {
                want[t * b + blk] = sigma1(want[(t - 2) * b + blk])
                    .wrapping_add(want[(t - 7) * b + blk])
                    .wrapping_add(sigma0(want[(t - 15) * b + blk]))
                    .wrapping_add(want[(t - 16) * b + blk]);
            }
        }

        let mut e = engine();
        assert!(b <= e.lanes(), "blocks exceed the lane count");
        let wa = e.mem_alloc_typed::<u32>(64 * b);
        e.mem_fill(wa, &w);
        e.scalar(20 * b as u64); // endianness prep on the scalar core

        e.vsetdimc(1);
        e.vsetdiml(0, b);
        let word = |t: usize| wa + (t * b * 4) as u64;
        let m = [StrideMode::One];
        // In-register sigma: rot^rot^shift.
        let sigma = |e: &mut mve_core::engine::Engine, v, r1: u32, r2: u32, sh: u32| {
            let a = e.vrotir_udw(v, r1);
            let bb = e.vrotir_udw(v, r2);
            let c = e.vshir_udw(v, sh);
            let x = e.vxor_udw(a, bb);
            e.free(a);
            e.free(bb);
            let out = e.vxor_udw(x, c);
            e.free(x);
            e.free(c);
            out
        };
        for t in 16..64 {
            e.scalar(5);
            let w2 = e.vsld_udw(word(t - 2), &m);
            let s1 = sigma(&mut e, w2, 17, 19, 10);
            e.free(w2);
            let w7 = e.vsld_udw(word(t - 7), &m);
            let sum1 = e.vadd_udw(s1, w7);
            e.free(s1);
            e.free(w7);
            let w15 = e.vsld_udw(word(t - 15), &m);
            let s0 = sigma(&mut e, w15, 7, 18, 3);
            e.free(w15);
            let sum2 = e.vadd_udw(sum1, s0);
            e.free(sum1);
            e.free(s0);
            let w16 = e.vsld_udw(word(t - 16), &m);
            let out = e.vadd_udw(sum2, w16);
            e.free(sum2);
            e.free(w16);
            e.vsst_udw(out, word(t), &m);
            e.free(out);
        }
        finish(e, wa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let b = nblocks(scale) as u64;
        let v = b / 4 * 48;
        NeonProfile {
            ops: vec![(NeonOpClass::IntSimple, v * 5), (NeonOpClass::Shift, v * 6)],
            chain_ops: vec![(NeonOpClass::IntSimple, 48)],
            loads: v * 4,
            stores: v,
            scalar_instrs: v * 2,
            touched_bytes: b * 256,
            base_addr: 0x2200_0000,
        }
    }
}

/// Keystream XOR (the cipher application pass).
pub struct XorCipher;

impl Kernel for XorCipher {
    fn info(&self) -> KernelInfo {
        KernelInfo {
            name: "xor_cipher",
            library: Library::Boringssl,
            dims: 1,
            dtype_bits: 8,
            selected: false,
        }
    }

    fn run_mve(&self, scale: Scale) -> KernelRun {
        let n = nblocks(scale) * 64;
        let data = gen_u8(0xC2, n);
        let ks = gen_u8(0xC3, n);
        let want: Vec<u8> = data.iter().zip(&ks).map(|(&d, &k)| d ^ k).collect();

        let mut e = engine();
        e.vsetwidth(8);
        let da = e.mem_alloc_typed::<u8>(n);
        let ka = e.mem_alloc_typed::<u8>(n);
        let oa = e.mem_alloc_typed::<u8>(n);
        e.mem_fill(da, &data);
        e.mem_fill(ka, &ks);

        let lanes = e.lanes();
        e.vsetdimc(1);
        for (base, chunk) in chunks(n, lanes) {
            e.vsetdiml(0, chunk);
            e.scalar(5);
            let d = e.vsld_ub(da + base as u64, &[StrideMode::One]);
            let k = e.vsld_ub(ka + base as u64, &[StrideMode::One]);
            let x = e.vxor_ub(d, k);
            e.vsst_ub(x, oa + base as u64, &[StrideMode::One]);
            for r in [d, k, x] {
                e.free(r);
            }
        }
        finish(e, oa, &want[..])
    }

    fn neon_profile(&self, scale: Scale) -> NeonProfile {
        let v = (nblocks(scale) * 64 / 16) as u64;
        NeonProfile {
            ops: vec![(NeonOpClass::IntSimple, v)],
            chain_ops: vec![],
            loads: v * 2,
            stores: v,
            scalar_instrs: v,
            touched_bytes: (nblocks(scale) * 64 * 3) as u64,
            base_addr: 0x2300_0000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chacha_reference_rfc_vector() {
        // RFC 8439 §2.3.2 test vector.
        let key: [u32; 8] = [
            0x0302_0100,
            0x0706_0504,
            0x0b0a_0908,
            0x0f0e_0d0c,
            0x1312_1110,
            0x1716_1514,
            0x1b1a_1918,
            0x1f1e_1d1c,
        ];
        let nonce: [u32; 3] = [0x0900_0000, 0x4a00_0000, 0];
        let out = chacha_block(&key, 1, &nonce);
        assert_eq!(out[0], 0xe4e7_f110);
        assert_eq!(out[15], 0x4e3c_50a2);
    }

    #[test]
    fn chacha_mve_matches() {
        assert!(Chacha20.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn sha256_msched_matches() {
        assert!(Sha256Msched.run_mve(Scale::Test).checked.ok());
    }

    #[test]
    fn xor_cipher_matches() {
        assert!(XorCipher.run_mve(Scale::Test).checked.ok());
    }
}
