//! Kernel metadata and the suite registry (Table III).

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::common::{KernelRun, Scale};
use mve_baselines::gpu::GpuKernelCost;
use mve_coresim::neon::NeonProfile;

/// The twelve mobile libraries of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Library {
    /// Linpack — linear algebra.
    Linpack,
    /// XNNPACK — machine-learning inference operators.
    Xnnpack,
    /// CMSIS-DSP — embedded signal processing.
    CmsisDsp,
    /// Kvazaar — HEVC video encoding.
    Kvazaar,
    /// libjpeg — JPEG codec.
    Libjpeg,
    /// libpng — PNG codec.
    Libpng,
    /// libwebp — WebP codec.
    Libwebp,
    /// Skia — 2-D graphics.
    Skia,
    /// WebAudio (Blink) — audio processing.
    Webaudio,
    /// zlib — data compression.
    Zlib,
    /// BoringSSL — cryptography.
    Boringssl,
    /// Arm Optimized Routines — string/network utilities.
    OptRoutines,
}

impl Library {
    /// All libraries in Table III order.
    pub const ALL: [Library; 12] = [
        Library::Linpack,
        Library::Xnnpack,
        Library::CmsisDsp,
        Library::Kvazaar,
        Library::Libjpeg,
        Library::Libpng,
        Library::Libwebp,
        Library::Skia,
        Library::Webaudio,
        Library::Zlib,
        Library::Boringssl,
        Library::OptRoutines,
    ];

    /// Display name used in the figures.
    pub fn name(&self) -> &'static str {
        match self {
            Library::Linpack => "Linpack",
            Library::Xnnpack => "XNNPACK",
            Library::CmsisDsp => "CMSIS-DSP",
            Library::Kvazaar => "Kvazaar",
            Library::Libjpeg => "libjpeg",
            Library::Libpng => "libpng",
            Library::Libwebp => "libwebp",
            Library::Skia => "Skia",
            Library::Webaudio => "Webaudio",
            Library::Zlib => "zlib",
            Library::Boringssl => "boringssl",
            Library::OptRoutines => "Opt. Routines",
        }
    }

    /// Application domain (Table III).
    pub fn domain(&self) -> &'static str {
        match self {
            Library::Linpack => "Linear Algebra",
            Library::Xnnpack => "Machine Learning",
            Library::CmsisDsp => "Signal Processing",
            Library::Kvazaar => "Video Processing",
            Library::Libjpeg | Library::Libpng | Library::Libwebp => "Image Processing",
            Library::Skia => "Graphics",
            Library::Webaudio => "Audio Processing",
            Library::Zlib => "Data Compression",
            Library::Boringssl => "Cryptography",
            Library::OptRoutines => "String/Network Utilities",
        }
    }

    /// Dataset description (Table III).
    pub fn dataset(&self) -> &'static str {
        match self {
            Library::Linpack => "512K",
            Library::Xnnpack => "CNN layers",
            Library::CmsisDsp => "192K",
            Library::Kvazaar
            | Library::Libjpeg
            | Library::Libpng
            | Library::Libwebp
            | Library::Skia => "1280x720",
            Library::Webaudio => "32S x 44.1kHz",
            Library::Zlib | Library::Boringssl | Library::OptRoutines => "128KB",
        }
    }
}

/// Static description of one kernel.
#[derive(Debug, Clone, Copy)]
pub struct KernelInfo {
    /// Kernel name (lower-case, as used in CSV outputs).
    pub name: &'static str,
    /// Owning library.
    pub library: Library,
    /// Logical dimensions the MVE implementation uses.
    pub dims: usize,
    /// Dominant element width in bits.
    pub dtype_bits: u32,
    /// Member of the 11-kernel selected set (Figures 8–13).
    pub selected: bool,
}

/// A benchmark kernel with all its backends.
pub trait Kernel {
    /// Metadata.
    fn info(&self) -> KernelInfo;

    /// Runs the MVE implementation on a fresh engine and checks the output
    /// against the scalar reference.
    fn run_mve(&self, scale: Scale) -> KernelRun;

    /// Runs the RVV (1-D) implementation, for the selected kernels.
    fn run_rvv(&self, _scale: Scale) -> Option<KernelRun> {
        None
    }

    /// The dynamic Neon instruction profile of the Arm baseline.
    fn neon_profile(&self, scale: Scale) -> NeonProfile;

    /// The GPU offload descriptor, for the selected kernels.
    fn gpu_cost(&self, _scale: Scale) -> Option<GpuKernelCost> {
        None
    }
}

/// All 44 kernels of the suite.
pub fn all_kernels() -> Vec<Box<dyn Kernel>> {
    vec![
        Box::new(crate::linpack::Daxpy),
        Box::new(crate::xnnpack::Gemm),
        Box::new(crate::xnnpack::Spmm),
        Box::new(crate::cmsis::Fir::V),
        Box::new(crate::cmsis::Fir::S),
        Box::new(crate::cmsis::Fir::L),
        Box::new(crate::kvazaar::Satd),
        Box::new(crate::kvazaar::Intra),
        Box::new(crate::kvazaar::Dct),
        Box::new(crate::kvazaar::Idct),
        Box::new(crate::libjpeg::H2v2Upsample),
        Box::new(crate::libjpeg::H2v2Downsample),
        Box::new(crate::libjpeg::YcbcrToRgb),
        Box::new(crate::libjpeg::RgbToYcbcr),
        Box::new(crate::libjpeg::Quantize),
        Box::new(crate::libpng::FilterSub),
        Box::new(crate::libpng::FilterUp),
        Box::new(crate::libpng::FilterPaeth),
        Box::new(crate::libwebp::SharpUpdate),
        Box::new(crate::libwebp::UpsampleBilinear),
        Box::new(crate::libwebp::AlphaMultiply),
        Box::new(crate::libwebp::VerticalFilter),
        Box::new(crate::libwebp::GradientFilter),
        Box::new(crate::libwebp::Sse4x4),
        Box::new(crate::libwebp::QuantizeCoeffs),
        Box::new(crate::skia::BlitRow),
        Box::new(crate::skia::Memset32),
        Box::new(crate::skia::ConvolveHoriz),
        Box::new(crate::skia::XfermodeMultiply),
        Box::new(crate::webaudio::Vsmul),
        Box::new(crate::webaudio::VaddAudio),
        Box::new(crate::webaudio::Vclip),
        Box::new(crate::webaudio::SumAudio),
        Box::new(crate::webaudio::Interleave),
        Box::new(crate::zlib::Adler32),
        Box::new(crate::zlib::Compare258),
        Box::new(crate::boringssl::Chacha20),
        Box::new(crate::boringssl::Sha256Msched),
        Box::new(crate::boringssl::XorCipher),
        Box::new(crate::optroutines::Memcpy),
        Box::new(crate::optroutines::Memset),
        Box::new(crate::optroutines::Strlen),
        Box::new(crate::optroutines::Memchr),
        Box::new(crate::optroutines::Csum),
    ]
}

/// The 11 selected kernels of Figures 8–13 (CSUM, LPACK, FIR-V/S/L, GEMM,
/// SPMM, SATD, INTRA, DCT, IDCT).
pub fn selected_kernels() -> Vec<Box<dyn Kernel>> {
    all_kernels()
        .into_iter()
        .filter(|k| k.info().selected)
        .collect()
}

/// Lazily-built name → registry-position index, so every front-end (the
/// CLI binaries and the simulation service) resolves kernel names in O(1)
/// instead of scanning the suite.
fn name_index() -> &'static HashMap<&'static str, usize> {
    static INDEX: OnceLock<HashMap<&'static str, usize>> = OnceLock::new();
    INDEX.get_or_init(|| {
        all_kernels()
            .iter()
            .enumerate()
            .map(|(i, k)| (k.info().name, i))
            .collect()
    })
}

/// All kernel names, sorted — the vocabulary quoted by [`UnknownKernel`].
pub fn kernel_names_sorted() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = name_index().keys().copied().collect();
    names.sort_unstable();
    names
}

/// Case-sensitive Levenshtein distance (iterative two-row form).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The nearest name to `name` among `candidates` (a "did you mean?"
/// suggestion), if one is close enough to plausibly be a typo: edit
/// distance at most `max(1, len/3)`, ties broken by iteration order —
/// pass a sorted vocabulary for deterministic output. Shared by every
/// vocabulary front-end: [`UnknownKernel`] (so the serve error reply
/// inherits it) and the artefact vocabulary behind `reproduce --only`.
pub fn did_you_mean<'a>(name: &str, candidates: &[&'a str]) -> Option<&'a str> {
    let budget = (name.chars().count() / 3).max(1);
    candidates
        .iter()
        .map(|&c| (edit_distance(name, c), c))
        .filter(|&(d, _)| d > 0 && d <= budget)
        .min_by_key(|&(d, _)| d)
        .map(|(_, c)| c)
}

/// The help message for a `kind` name (`kernel`, `artefact`) outside
/// the vocabulary `names`: "unknown kernel `x`;", a [`did_you_mean`]
/// suggestion when one is close, and the sorted vocabulary.
pub fn unknown_name_message(kind: &str, name: &str, mut names: Vec<&str>) -> String {
    names.sort_unstable();
    let suggestion = did_you_mean(name, &names)
        .map(|s| format!(" did you mean `{s}`?"))
        .unwrap_or_default();
    format!(
        "unknown {kind} `{name}`;{suggestion} valid {kind}s: {}",
        names.join(", ")
    )
}

/// A kernel name that is not in the Table III suite. Its `Display` output
/// is the help message the `mve-serve` error reply carries, so the failure
/// mode of a typo'd kernel is a nearest-name suggestion plus the sorted
/// list of valid names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownKernel {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = kernel_names_sorted();
        f.write_str(&unknown_name_message("kernel", &self.name, names))
    }
}

impl std::error::Error for UnknownKernel {}

/// Resolves one kernel by its registry name via the lazily-built lookup
/// map (no linear name scan).
pub fn kernel_by_name(name: &str) -> Result<Box<dyn Kernel>, UnknownKernel> {
    let &i = name_index().get(name).ok_or_else(|| UnknownKernel {
        name: name.to_owned(),
    })?;
    let mut kernels = all_kernels();
    Ok(kernels.swap_remove(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_44_kernels() {
        assert_eq!(all_kernels().len(), 44);
    }

    #[test]
    fn selected_set_has_11_kernels() {
        let sel = selected_kernels();
        assert_eq!(sel.len(), 11);
        for k in &sel {
            assert!(
                k.run_rvv(Scale::Test).is_some(),
                "{} needs RVV",
                k.info().name
            );
            assert!(
                k.gpu_cost(Scale::Test).is_some(),
                "{} needs GPU",
                k.info().name
            );
        }
    }

    #[test]
    fn per_library_kernel_counts_match_table_iii() {
        let all = all_kernels();
        let count = |lib: Library| all.iter().filter(|k| k.info().library == lib).count();
        assert_eq!(count(Library::Linpack), 1);
        assert_eq!(count(Library::Xnnpack), 2);
        assert_eq!(count(Library::CmsisDsp), 3);
        assert_eq!(count(Library::Kvazaar), 4);
        assert_eq!(count(Library::Libjpeg), 5);
        assert_eq!(count(Library::Libpng), 3);
        assert_eq!(count(Library::Libwebp), 7);
        assert_eq!(count(Library::Skia), 4);
        assert_eq!(count(Library::Webaudio), 5);
        assert_eq!(count(Library::Zlib), 2);
        assert_eq!(count(Library::Boringssl), 3);
        assert_eq!(count(Library::OptRoutines), 5);
    }

    #[test]
    fn kernel_by_name_resolves_every_registered_kernel() {
        for k in all_kernels() {
            let name = k.info().name;
            let found = kernel_by_name(name).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(found.info().name, name);
            assert_eq!(found.info().library, k.info().library);
        }
    }

    #[test]
    fn unknown_kernel_lists_the_sorted_vocabulary() {
        let Err(err) = kernel_by_name("gemmm") else {
            panic!("gemmm is a typo and must not resolve");
        };
        let msg = err.to_string();
        assert!(msg.contains("unknown kernel `gemmm`"), "{msg}");
        let sorted = kernel_names_sorted();
        assert_eq!(sorted.len(), 44);
        assert!(sorted.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        // Every valid name appears in the help message, in sorted order.
        let list = msg.split("valid kernels: ").nth(1).expect("list");
        assert_eq!(list, sorted.join(", "));
    }

    #[test]
    fn typos_get_nearest_name_suggestions() {
        // One help message, one suggestion policy, every front-end.
        for (typo, want) in [
            ("gemmm", "gemm"),
            ("gemn", "gemm"),
            ("adler23", "adler32"),
            ("memst", "memset"),
            ("strlen1", "strlen"),
            ("chacha21", "chacha20"),
            ("webp_upsampl", "webp_upsample"),
        ] {
            let Err(err) = kernel_by_name(typo) else {
                panic!("{typo} must not resolve");
            };
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("did you mean `{want}`?")),
                "{typo}: {msg}"
            );
        }
        // Nothing near: no suggestion, just the vocabulary.
        let Err(err) = kernel_by_name("zzzzzzzz") else {
            panic!("zzzzzzzz must not resolve");
        };
        let msg = err.to_string();
        assert!(!msg.contains("did you mean"), "{msg}");
        assert!(msg.contains("valid kernels: "), "{msg}");
    }

    #[test]
    fn did_you_mean_respects_the_distance_budget() {
        let vocab = ["gemm", "spmm", "satd"];
        assert_eq!(did_you_mean("gemmm", &vocab), Some("gemm"));
        assert_eq!(did_you_mean("spm", &vocab), Some("spmm"));
        // An exact match is not a typo.
        assert_eq!(did_you_mean("gemm", &vocab), None);
        // Too far from everything (budget = len/3).
        assert_eq!(did_you_mean("quicksort", &vocab), None);
        // Deterministic tie-break: first candidate in (sorted) order.
        assert_eq!(did_you_mean("gexm", &["geam", "gebm"]), Some("geam"));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = all_kernels().iter().map(|k| k.info().name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate kernel names");
    }
}
