//! Pins the trace of every kernel run at test scale: the 44 MVE kernels and
//! the 11 selected kernels' RVV bodies.
//!
//! Each run is summarised by an FNV-1a digest over an explicit encoding of
//! every event's fields (a memory event's cache lines included, in order),
//! its event count and the number of outputs its check compared. A
//! refactor of the kernel bodies must leave this table unchanged. A
//! deliberate trace change replaces the table with the one the failing
//! test prints.

use mve_core::sim::fnv1a_64;
use mve_core::trace::{Event, Trace};
use mve_kernels::registry::all_kernels;
use mve_kernels::{KernelRun, Scale};

/// `(isa, kernel, digest, events, compared)` per run.
const PINNED: &[(&str, &str, u64, usize, usize)] = &[
    ("mve", "lpack", 0xe3cc419f1a8e3226, 17, 16384),
    ("rvv", "lpack", 0xf91908da8d3c41d0, 18, 16384),
    ("mve", "gemm", 0xba562b168ba9aaff, 128, 1024),
    ("rvv", "gemm", 0x7313d380a7698b75, 1662, 1024),
    ("mve", "spmm", 0x1ed55949e50fb4d6, 271, 192),
    ("rvv", "spmm", 0x772f57aaf0269865, 371, 192),
    ("mve", "fir_v", 0x71906abcfaa31445, 166, 8161),
    ("rvv", "fir_v", 0xb472ec5cd8d0c154, 167, 8161),
    ("mve", "fir_s", 0x62db88d57cb14530, 86, 8177),
    ("rvv", "fir_s", 0xd7208fb433f3fdb5, 87, 8177),
    ("mve", "fir_l", 0xc3a2eb247d1f9566, 646, 8065),
    ("rvv", "fir_l", 0x4d6f099959b3a67f, 647, 8065),
    ("mve", "satd", 0x421d141cc0487428, 177, 1),
    ("rvv", "satd", 0x7e7aa80e0289ff55, 24702, 1),
    ("mve", "intra", 0x228c436ab7377b52, 56, 8192),
    ("rvv", "intra", 0x9a9e2f00b61d08c5, 4618, 8192),
    ("mve", "dct", 0x10928a96190a9336, 98, 8192),
    ("rvv", "dct", 0x928166952a5b7016, 12820, 8192),
    ("mve", "idct", 0xecd74113ccd2ae76, 98, 8192),
    ("rvv", "idct", 0x928166952a5b7016, 12820, 8192),
    ("mve", "h2v2_upsample", 0xbd9459a2b414d968, 9, 8192),
    ("mve", "h2v2_downsample", 0xb8ada366fbec6d53, 24, 2048),
    ("mve", "ycbcr_to_rgb", 0x9b4bd8d622aeb359, 44, 6144),
    ("mve", "rgb_to_ycbcr", 0x446913f4fd8fee27, 24, 2048),
    ("mve", "jpeg_quantize", 0x402a7be36e775d97, 13, 8192),
    ("mve", "png_filter_sub", 0xddb28b004a00f5c9, 199, 3072),
    ("mve", "png_filter_up", 0xf69920c4fdc4d3f9, 260, 3072),
    ("mve", "png_filter_paeth", 0xff971707ad2fe80f, 4305, 3185),
    ("mve", "webp_sharp_update", 0x6aea9dd4657fb871, 14, 8192),
    ("mve", "webp_upsample", 0x8be39784411f4aa5, 16, 16384),
    ("mve", "webp_alpha_mult", 0x4c64453b5791d0d9, 14, 8192),
    ("mve", "webp_vertical_filter", 0xfc214bd7a5598454, 12, 3072),
    ("mve", "webp_gradient_filter", 0x5fd1e9ac0d13ec90, 25, 3072),
    ("mve", "webp_sse4x4", 0xaab7d9e331d767ed, 47, 256),
    ("mve", "webp_quantize", 0xad029658d5924a32, 16, 8192),
    ("mve", "skia_blit_row", 0xb0934f629d03e6ba, 20, 8192),
    ("mve", "skia_memset32", 0x010640b88b7c3697, 5, 2048),
    ("mve", "skia_convolve", 0x78b2173bf9f3b00d, 31, 2048),
    ("mve", "skia_xfermode_mul", 0x4c64453b5791d0d9, 14, 8192),
    ("mve", "audio_vsmul", 0x5ce6b76d04cc15e1, 17, 16384),
    ("mve", "audio_vadd", 0x49ed05937c40d257, 15, 16384),
    ("mve", "audio_vclip", 0xe6ea937b3c04c3a5, 23, 16384),
    ("mve", "audio_sum", 0x9488aa3cc8b01631, 89, 2),
    ("mve", "audio_interleave", 0xd60c6911187e04d0, 14, 16384),
    ("mve", "adler32", 0x0a78fb7481b36b04, 91, 1),
    ("mve", "compare258", 0xdf06a3a297b17109, 11, 24),
    ("mve", "chacha20", 0x4645f39e742b36ae, 1763, 2048),
    ("mve", "sha256_msched", 0xcd542b57dbbdac59, 915, 8192),
    ("mve", "xor_cipher", 0x9878dee5877842ec, 8, 8192),
    ("mve", "memcpy", 0x34a24209960fc8b9, 10, 16384),
    ("mve", "memset", 0x52dc3166d141f084, 10, 16384),
    ("mve", "strlen", 0x9f416e69e677aa63, 18, 1),
    ("mve", "memchr", 0xd799b42303767034, 18, 1),
    ("mve", "csum", 0x808fc6db05915754, 46, 1),
    ("rvv", "csum", 0xe1347d51ac288026, 49, 1),
];

/// The explicit byte encoding the digest runs over: a tag per event kind,
/// then every field in declaration order, little-endian.
fn encode(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    for event in trace.events() {
        match event {
            Event::Config { opcode } => out.extend([0, *opcode as u8]),
            Event::Compute {
                opcode,
                alu,
                dtype,
                active_lanes,
                cb_mask,
            } => {
                out.extend([1, *opcode as u8, *alu as u8, *dtype as u8]);
                out.extend(active_lanes.to_le_bytes());
                out.extend(cb_mask.to_le_bytes());
            }
            Event::Memory {
                opcode,
                dtype,
                active_lanes,
                cb_mask,
                lines,
                write,
            } => {
                out.extend([2, *opcode as u8, *dtype as u8]);
                out.extend(active_lanes.to_le_bytes());
                out.extend(cb_mask.to_le_bytes());
                out.push(u8::from(*write));
                out.extend((lines.len() as u64).to_le_bytes());
                for line in lines.iter() {
                    out.extend(line.to_le_bytes());
                }
            }
            Event::Scalar { instrs } => {
                out.push(3);
                out.extend(instrs.to_le_bytes());
            }
            Event::SrcLine { line } => {
                out.push(4);
                out.extend(line.to_le_bytes());
            }
        }
    }
    out
}

fn summary(
    isa: &'static str,
    name: &'static str,
    run: &KernelRun,
) -> (&'static str, &'static str, u64, usize, usize) {
    let events = run.trace.events().len();
    (
        isa,
        name,
        fnv1a_64(&encode(&run.trace)),
        events,
        run.checked.compared,
    )
}

#[test]
fn every_test_scale_trace_matches_its_pinned_digest() {
    let mut actual = Vec::new();
    for k in all_kernels() {
        let name = k.info().name;
        actual.push(summary("mve", name, &k.run_mve(Scale::Test)));
        if let Some(run) = k.run_rvv(Scale::Test) {
            actual.push(summary("rvv", name, &run));
        }
    }
    assert_eq!(actual.len(), 55, "44 MVE and 11 RVV runs");
    if actual != PINNED {
        let mut table = String::from("const PINNED: &[(&str, &str, u64, usize, usize)] = &[\n");
        for (isa, name, digest, events, compared) in &actual {
            table.push_str(&format!(
                "    (\"{isa}\", \"{name}\", {digest:#018x}, {events}, {compared}),\n"
            ));
        }
        table.push_str("];");
        panic!("trace digests differ from the pinned table; actual:\n{table}");
    }
}
