//! The Swan mobile data-parallel benchmark suite, reimplemented for the MVE
//! reproduction (Table III: 12 libraries, 44 kernels).
//!
//! Every kernel provides:
//!
//! * a **scalar reference** — plain Rust, the ground truth;
//! * an **MVE implementation** — written with the `__mdv` intrinsics of
//!   `mve-core`, functionally checked against the reference on every run;
//! * a **Neon profile** — the dynamic 2×128-bit instruction mix of a
//!   hand-vectorised Arm implementation (the Figure 7 baseline);
//! * for the 11 selected kernels (Figures 8–13): an **RVV implementation**
//!   (1-D instructions only, via `mve-baselines::rvv`) and a **GPU cost**
//!   descriptor for the Adreno model.
//!
//! | Library | Domain | Kernels |
//! |---|---|---|
//! | Linpack | Linear algebra | daxpy |
//! | XNNPACK | Machine learning | gemm, spmm |
//! | CMSIS-DSP | Signal processing | fir_v, fir_s, fir_l |
//! | Kvazaar | Video coding | satd, intra, dct, idct |
//! | libjpeg | Image codec | upsample, downsample, ycbcr→rgb, rgb→ycbcr, quantize |
//! | libpng | Image codec | expand_palette, filter_sub, filter_paeth |
//! | libwebp | Image codec | sharp_update, upsample_bilinear, alpha_mult, vertical_filter, gradient_filter, sse4x4, quantize_coeffs |
//! | Skia | Graphics | blit_row, memset32, convolve_horiz, xfermode_multiply |
//! | WebAudio | Audio | vsmul, vadd, vclip, sum, interleave |
//! | zlib | Compression | adler32, compare258 |
//! | boringssl | Cryptography | chacha20_block, sha256_msched, xor_cipher |
//! | Arm Opt. Routines | String/network | memcpy, memset, strlen, memchr, csum |

pub mod boringssl;
pub mod cmsis;
pub mod common;
pub mod kvazaar;
pub mod libjpeg;
pub mod libpng;
pub mod libwebp;
pub mod linpack;
pub mod optroutines;
pub mod precision;
pub mod registry;
pub mod skia;
pub mod webaudio;
pub mod xnnpack;
pub mod zlib;

pub use common::{Checked, KernelRun, Scale};
pub use registry::{all_kernels, selected_kernels, Kernel, KernelInfo, Library};
