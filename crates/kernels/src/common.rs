//! Shared kernel scaffolding: deterministic data generation, the
//! strip-mining loop and the output check every kernel uses, the
//! tree-reduction building block of Section IV, and the run-result types
//! the harness consumes.
//!
//! Every tile loop of the suite walks [`chunks`]: it yields each tile's base
//! and length and emits nothing, so a kernel's config instructions
//! (`vsetdiml` per tile, strides and dimension counts) stay in its own body.
//! Every kernel whose output lands in engine memory ends in [`finish`],
//! which checks that output in place against the scalar reference and takes
//! the trace; kernels whose result is a scalar the core folds (checksums,
//! searches, SATD sums) compare it with [`check_exact`] or [`check_f32`]
//! and end in [`KernelRun::new`].

use mve_core::dtype::DType;
use mve_core::engine::{Engine, Reg};
use mve_core::isa::StrideMode;
use mve_core::mem::{MemScalar, Memory};
use mve_core::trace::Trace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Problem-size selector: small shapes for unit tests, Table III shapes for
/// the benchmark harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Reduced datasets so the functional engine runs fast in debug tests.
    Test,
    /// The paper's Table III dataset sizes.
    Paper,
}

/// Outcome of checking an implementation against the scalar reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checked {
    /// Elements compared.
    pub compared: usize,
    /// Elements that disagreed.
    pub mismatches: usize,
}

impl Checked {
    /// Whether the outputs matched.
    pub fn ok(&self) -> bool {
        self.compared > 0 && self.mismatches == 0
    }
}

/// The check of several output arrays: their counts add up.
impl std::iter::Sum for Checked {
    fn sum<I: Iterator<Item = Checked>>(iter: I) -> Self {
        iter.fold(Checked::default(), |a, c| Checked {
            compared: a.compared + c.compared,
            mismatches: a.mismatches + c.mismatches,
        })
    }
}

/// One kernel execution: the dynamic trace plus the functional check.
#[derive(Debug)]
pub struct KernelRun {
    /// The recorded instruction trace.
    pub trace: Trace,
    /// Functional comparison against the scalar reference.
    pub checked: Checked,
}

impl KernelRun {
    /// The end of a kernel run: takes `e`'s trace beside the run's check.
    pub fn new(mut e: Engine, checked: Checked) -> Self {
        Self {
            trace: e.take_trace(),
            checked,
        }
    }
}

use std::cell::Cell;

thread_local! {
    /// Array-count override for the Figure 12(b) scalability sweep.
    static ENGINE_ARRAYS: Cell<usize> = const { Cell::new(32) };
}

/// Overrides the number of compute-enabled SRAM arrays used by
/// [`engine`] on this thread (Figure 12(b) sweeps 8–64). Returns the
/// previous value so sweeps can restore it.
pub fn set_engine_arrays(arrays: usize) -> usize {
    ENGINE_ARRAYS.with(|c| c.replace(arrays))
}

/// The array count [`engine`] currently uses on this thread.
pub fn engine_arrays() -> usize {
    ENGINE_ARRAYS.with(Cell::get)
}

/// RAII form of [`set_engine_arrays`]: restores the previous count on
/// drop, **including unwinds** — a panicking kernel must not leave the
/// thread-local poisoned for whatever runs on the thread next (the
/// simulation service reuses worker threads across requests and recovers
/// from kernel panics with `catch_unwind`).
pub struct EngineArraysGuard {
    prev: usize,
}

impl EngineArraysGuard {
    /// Overrides the engine array count until the guard drops.
    pub fn new(arrays: usize) -> Self {
        Self {
            prev: set_engine_arrays(arrays),
        }
    }
}

impl Drop for EngineArraysGuard {
    fn drop(&mut self) {
        set_engine_arrays(self.prev);
    }
}

/// A fresh engine with the paper's mobile geometry (or the thread's
/// [`set_engine_arrays`] override).
pub fn engine() -> Engine {
    let arrays = engine_arrays();
    if arrays == 32 {
        Engine::default_mobile()
    } else {
        Engine::new(
            mve_insram::scheme::EngineGeometry::with_arrays(arrays),
            mve_core::mem::Memory::default(),
        )
    }
}

/// Deterministic byte data.
pub fn gen_u8(seed: u64, n: usize) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

/// Deterministic 16-bit data in a comfortable range for transforms.
pub fn gen_i16(seed: u64, n: usize) -> Vec<i16> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-512i16..512)).collect()
}

/// Deterministic 32-bit integer data.
pub fn gen_i32(seed: u64, n: usize) -> Vec<i32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| rng.gen_range(-100_000i32..100_000))
        .collect()
}

/// Deterministic floats in [-1, 1).
pub fn gen_f32(seed: u64, n: usize) -> Vec<f32> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// The `(base, len)` tiles a strip-mined loop over `n` items takes, `step`
/// items per tile (lanes, rows or blocks) and a shorter last tile. A loop
/// that starts at item `lo` offsets the bases of `chunks(n - lo, step)`.
pub fn chunks(n: usize, step: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n)
        .step_by(step)
        .map(move |base| (base, step.min(n - base)))
}

/// A scalar reference output that [`check`] matches, element by element,
/// against the output a kernel left in engine memory.
pub trait Reference {
    /// The number of output elements.
    fn elements(&self) -> usize;
    /// Whether element `i` of the output array at `out` in `mem` matches.
    fn matches(&self, mem: &Memory, out: u64, i: usize) -> bool;
}

/// Exact equality with the `T` elements of the output array.
impl<T: MemScalar + PartialEq> Reference for [T] {
    fn elements(&self) -> usize {
        self.len()
    }
    fn matches(&self, mem: &Memory, out: u64, i: usize) -> bool {
        mem.read::<T>(out, i) == self[i]
    }
}

/// `f32` outputs within a relative tolerance of the reference (see
/// [`check_f32`]).
pub struct Within<'a>(pub &'a [f32], pub f32);

impl Reference for Within<'_> {
    fn elements(&self) -> usize {
        self.0.len()
    }
    fn matches(&self, mem: &Memory, out: u64, i: usize) -> bool {
        within(mem.read::<f32>(out, i), self.0[i], self.1)
    }
}

/// Canonical lanes of a data type known only at run time (the precision
/// study's outputs), compared exactly.
pub struct Lanes<'a>(pub DType, pub &'a [u64]);

impl Reference for Lanes<'_> {
    fn elements(&self) -> usize {
        self.1.len()
    }
    fn matches(&self, mem: &Memory, out: u64, i: usize) -> bool {
        let eb = self.0.bytes();
        mem.read_raw(out + i as u64 * eb, eb) == self.1[i]
    }
}

/// Counts the elements of the output array at `out` that differ from
/// `want`, reading each from engine memory in place.
pub fn check(e: &Engine, out: u64, want: &(impl Reference + ?Sized)) -> Checked {
    let mem = e.mem();
    let compared = want.elements();
    Checked {
        compared,
        mismatches: (0..compared)
            .filter(|&i| !want.matches(mem, out, i))
            .count(),
    }
}

/// The end of a kernel run: [`check`]s the output at `out` against `want`
/// and takes the trace.
pub fn finish(e: Engine, out: u64, want: &(impl Reference + ?Sized)) -> KernelRun {
    let checked = check(&e, out, want);
    KernelRun::new(e, checked)
}

/// Exact element-wise comparison.
pub fn check_exact<T: PartialEq>(got: &[T], want: &[T]) -> Checked {
    let compared = got.len().min(want.len());
    let mismatches = got[..compared]
        .iter()
        .zip(&want[..compared])
        .filter(|(g, w)| g != w)
        .count()
        + got.len().abs_diff(want.len());
    Checked {
        compared,
        mismatches,
    }
}

/// Float comparison with relative tolerance (vector reduction order and f16
/// repacking legitimately reorder rounding). An element matches only when
/// its difference is within tolerance, so a NaN on either side mismatches.
pub fn check_f32(got: &[f32], want: &[f32], rel_tol: f32) -> Checked {
    let compared = got.len().min(want.len());
    let mismatches = got[..compared]
        .iter()
        .zip(&want[..compared])
        .filter(|&(&g, &w)| !within(g, w, rel_tol))
        .count()
        + got.len().abs_diff(want.len());
    Checked {
        compared,
        mismatches,
    }
}

fn within(got: f32, want: f32, rel_tol: f32) -> bool {
    (got - want).abs() <= rel_tol * want.abs().max(1.0)
}

/// The Section IV vertical halving step, generalised: reduces `len` lanes of
/// `v` to `stop` partial sums by repeatedly masking off the lower half,
/// storing the upper half to scratch memory, reloading it at half length and
/// adding (the paper's `vertical_reduction_step`). Frees `v` and returns the
/// register holding the `stop` partials.
///
/// # Panics
///
/// Panics unless `len` and `stop` are powers of two with
/// `stop <= len <= lanes`.
pub fn tree_halve(e: &mut Engine, v: Reg, len: usize, stop: usize) -> Reg {
    assert!(
        len.is_power_of_two() && stop.is_power_of_two() && stop <= len,
        "tree reduction needs power-of-two lengths (len {len}, stop {stop})"
    );
    assert!(len <= e.lanes(), "length exceeds engine lanes");
    let dtype = v.dtype();
    let tmp = e.mem_alloc(len as u64 * dtype.bytes());
    let mut m = len;
    let mut cur = v;
    // The whole fold runs in one [M/2, 2] shape: only dim 0 shrinks per
    // step, so the dimension count and the 2-element split dimension are
    // configured once. This halves the dynamic config-instruction count
    // versus reprogramming a 2-D store shape and a 1-D load shape on every
    // step — the CR-amortisation the ISA is designed around.
    if m > stop {
        e.vsetdimc(2);
        e.vsetdiml(1, 2);
    }
    while m > stop {
        // Split M lanes into two M/2-element halves (Section IV listing).
        e.vsetdiml(0, m / 2);
        // Mask off the first half (element 0 of the highest dimension) and
        // store the second half to temporary memory.
        e.vunsetmask(0);
        e.store(cur, tmp, &[StrideMode::One, StrideMode::Seq]);
        e.vresetmask();
        // Reload the stored upper half with a stride-0 replicated highest
        // dimension: lanes 0..M/2 receive it, and only those feed the next
        // step (the upper copy is dropped when dim 0 halves again).
        let upper = e.load(
            dtype,
            tmp + (m / 2) as u64 * dtype.bytes(),
            &[StrideMode::One, StrideMode::Zero],
        );
        let sum = e.binop(
            mve_core::isa::Opcode::Add,
            mve_core::dtype::BinOp::Add,
            cur,
            upper,
        );
        e.free(cur);
        e.free(upper);
        cur = sum;
        m /= 2;
        e.scalar(8);
    }
    cur
}

/// The Section IV vertical tree reduction: reduces `len` lanes of `v` down
/// to at most 256 partial sums in-cache, then finishes on the scalar core
/// (Section IV: below 256 elements, in-cache latency stops paying off).
/// Returns the raw reduced value in the register's data type. Frees `v`.
///
/// ```
/// use mve_core::{DType, StrideMode};
/// use mve_kernels::common::{engine, tree_reduce};
///
/// let mut e = engine();
/// e.vsetdimc(1);
/// e.vsetdiml(0, 1024);
/// let buf = e.mem_alloc_typed::<i32>(1024);
/// e.mem_fill(buf, &vec![2i32; 1024]);
/// let v = e.load(DType::I32, buf, &[StrideMode::One]);
/// let sum = tree_reduce(&mut e, v, 1024);
/// assert_eq!(DType::I32.to_i64(sum), 2048);
/// ```
///
/// # Panics
///
/// Panics if `len` is not a power of two or exceeds the engine lanes.
pub fn tree_reduce(e: &mut Engine, v: Reg, len: usize) -> u64 {
    let dtype = v.dtype();
    let stop = len.min(256);
    let cur = tree_halve(e, v, len, stop);
    // Store the ≤256 partials and finish on the CPU core.
    e.vsetdimc(1);
    e.vsetdiml(0, stop);
    let tmp = e.mem_alloc(stop as u64 * dtype.bytes());
    e.store(cur, tmp, &[StrideMode::One]);
    e.free(cur);
    e.scalar(2 * stop as u64);
    let mut acc: u64 = 0;
    let mut first = true;
    for i in 0..stop {
        let raw = e
            .mem()
            .read_raw(tmp + i as u64 * dtype.bytes(), dtype.bytes());
        if first {
            acc = raw;
            first = false;
        } else {
            acc = dtype.binop(mve_core::dtype::BinOp::Add, acc, raw);
        }
    }
    acc
}

/// Materialises the Tag latch as 0/1 data: with predication on, a broadcast
/// of 1 writes only tagged lanes of a zero-initialised fresh register. This
/// is how search kernels (strlen/memchr/compare258) export compare results.
pub fn tag_to_data(e: &mut Engine, dtype: DType) -> Reg {
    e.set_predication(true);
    let ones = e.setdup(dtype, 1);
    e.set_predication(false);
    ones
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(gen_u8(7, 32), gen_u8(7, 32));
        assert_ne!(gen_u8(7, 32), gen_u8(8, 32));
        assert_eq!(gen_f32(1, 8), gen_f32(1, 8));
    }

    #[test]
    fn check_exact_counts_mismatches() {
        let c = check_exact(&[1, 2, 3], &[1, 9, 3]);
        assert_eq!(c.mismatches, 1);
        assert!(!c.ok());
        assert!(check_exact(&[1, 2], &[1, 2]).ok());
        // Length mismatch is a failure.
        assert!(!check_exact(&[1, 2], &[1, 2, 3]).ok());
    }

    #[test]
    fn check_f32_tolerates_rounding() {
        let c = check_f32(&[1.0, 2.0003], &[1.0, 2.0], 1e-3);
        assert!(c.ok());
        let c = check_f32(&[1.0, 2.5], &[1.0, 2.0], 1e-3);
        assert!(!c.ok());
    }

    #[test]
    fn check_f32_counts_a_nan_output_as_a_mismatch() {
        let c = check_f32(&[f32::NAN, 2.0], &[1.0, 2.0], 1e-3);
        assert_eq!(c.mismatches, 1);
        // Control: an in-tolerance output is no mismatch.
        assert_eq!(check_f32(&[1.0005, 2.0], &[1.0, 2.0], 1e-3).mismatches, 0);
    }

    #[test]
    fn check_reads_each_reference_kind_in_place() {
        let mut e = engine();
        let out = e.mem_alloc_typed::<i16>(4);
        e.mem_fill(out, &[1i16, -2, 3, 4]);
        assert_eq!(
            check(&e, out, &[1i16, -2, 3, 4][..]),
            Checked {
                compared: 4,
                mismatches: 0
            }
        );
        assert_eq!(check(&e, out, &[1i16, 2, 3, 5][..]).mismatches, 2);
        let lanes = [1, DType::I16.from_i64(-2), 3, 4];
        assert_eq!(check(&e, out, &Lanes(DType::I16, &lanes)).mismatches, 0);
        assert_eq!(check(&e, out, &Lanes(DType::I16, &[1, 2])).mismatches, 1);
        let f = e.mem_alloc_typed::<f32>(2);
        e.mem_fill(f, &[1.0005f32, f32::NAN]);
        assert_eq!(check(&e, f, &Within(&[1.0, 2.0], 1e-3)).mismatches, 1);
        // Rows checked one by one add up.
        let rows = [
            check(&e, out, &[1i16][..]),
            check(&e, f, &Within(&[1.0], 0.0)),
        ];
        assert_eq!(
            rows.into_iter().sum::<Checked>(),
            Checked {
                compared: 2,
                mismatches: 1
            }
        );
    }

    #[test]
    fn tree_reduce_i32_matches_scalar_sum() {
        let mut e = engine();
        let n = 4096usize;
        let data = gen_i32(3, n);
        let a = e.mem_alloc_typed::<i32>(n);
        e.mem_fill(a, &data);
        e.vsetdimc(1);
        e.vsetdiml(0, n);
        let v = e.load(DType::I32, a, &[StrideMode::One]);
        let raw = tree_reduce(&mut e, v, n);
        let want: i32 = data.iter().fold(0i32, |s, &x| s.wrapping_add(x));
        assert_eq!(DType::I32.to_i64(raw) as i32, want);
    }

    #[test]
    fn tree_reduce_f32_close_to_scalar_sum() {
        let mut e = engine();
        let n = 2048usize;
        let data = gen_f32(5, n);
        let a = e.mem_alloc_typed::<f32>(n);
        e.mem_fill(a, &data);
        e.vsetdimc(1);
        e.vsetdiml(0, n);
        let v = e.load(DType::F32, a, &[StrideMode::One]);
        let raw = tree_reduce(&mut e, v, n);
        let got = f32::from_bits(raw as u32);
        let want: f32 = data.iter().sum();
        assert!((got - want).abs() < 1e-2, "{got} vs {want}");
    }

    #[test]
    fn tree_reduce_small_input_goes_straight_to_cpu() {
        let mut e = engine();
        let data = [5i32, 7, -2, 10];
        let a = e.mem_alloc_typed::<i32>(4);
        e.mem_fill(a, &data);
        e.vsetdimc(1);
        e.vsetdiml(0, 4);
        let v = e.load(DType::I32, a, &[StrideMode::One]);
        let raw = tree_reduce(&mut e, v, 4);
        assert_eq!(DType::I32.to_i64(raw), 20);
    }
}
