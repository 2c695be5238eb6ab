//! The MVE GEMM, SpMM and FIR, each written once and run at any element
//! type: the registry's fp16 XNNPACK GEMM/SpMM, Figure 9's f32 sweep, CMSIS
//! FIR-V/S/L (i16/i8/i32) and the Figure 12(c) bit-precision study (F32 /
//! I32 / F16 / I16).
//!
//! Bit-serial arithmetic latency is quadratic in the element width, so the
//! four [`Precision`]s are the paper's probe into the precision/performance
//! trade-off. Every run computes functionally and is checked in place
//! against a same-precision scalar reference.
//!
//! The references run on native lane types (`Native`): one generic loop
//! per kernel keeps every output's accumulation order and walks the output
//! dimension innermost, so it vectorizes. GEMM and SpMM operands are
//! generated once at their native type and written to engine memory from
//! there. The XNNPACK fp16 and CMSIS RVV variants solve the same problems:
//! `solve_gemm` and `solve_fir` set up the engine and check the output for
//! both bodies, and the RVV SpMM shares `SpmmOperands`.

use crate::common::{chunks, engine, finish, gen_f32, tree_halve, KernelRun, Lanes, Scale};
use crate::xnnpack::{Spmm, SpmmSize};
use mve_core::dtype::{f16_to_f32, f32_to_f16, BinOp, DType};
use mve_core::engine::Engine;
use mve_core::isa::{Opcode, StrideMode};

/// The four precisions of Figure 12(c).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// 32-bit float.
    F32,
    /// 32-bit signed integer.
    I32,
    /// 16-bit float.
    F16,
    /// 16-bit signed integer.
    I16,
}

impl Precision {
    /// All four, in the paper's plot order.
    pub const ALL: [Precision; 4] = [
        Precision::F32,
        Precision::I32,
        Precision::F16,
        Precision::I16,
    ];

    /// The engine data type.
    pub fn dtype(&self) -> DType {
        match self {
            Precision::F32 => DType::F32,
            Precision::I32 => DType::I32,
            Precision::F16 => DType::F16,
            Precision::I16 => DType::I16,
        }
    }

    /// Label used in CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            Precision::F32 => "F32",
            Precision::I32 => "I32",
            Precision::F16 => "F16",
            Precision::I16 => "I16",
        }
    }

    /// Packs an f32 sample into this precision's canonical lane value.
    fn pack(&self, v: f32) -> u64 {
        match self {
            Precision::F32 => DType::F32.from_f32(v),
            Precision::F16 => DType::F16.from_f32(v),
            // Integers: scale [-1,1) samples to a fixed-point range.
            Precision::I32 => DType::I32.from_i64((v * 1024.0) as i64),
            Precision::I16 => DType::I16.from_i64((v * 127.0) as i64),
        }
    }
}

/// One precision's lane arithmetic on native values, bit-identical to the
/// engine's [`DType::binop`] on canonical lanes.
pub(crate) trait Native: Copy {
    const ZERO: Self;
    fn from_lane(raw: u64) -> Self;
    fn to_lane(self) -> u64;
    fn add(self, b: Self) -> Self;
    fn mul(self, b: Self) -> Self;
}

impl Native for f32 {
    const ZERO: Self = 0.0;
    fn from_lane(raw: u64) -> Self {
        f32::from_bits(raw as u32)
    }
    fn to_lane(self) -> u64 {
        u64::from(self.to_bits())
    }
    fn add(self, b: Self) -> Self {
        self + b
    }
    fn mul(self, b: Self) -> Self {
        self * b
    }
}

impl Native for i32 {
    const ZERO: Self = 0;
    fn from_lane(raw: u64) -> Self {
        raw as i32
    }
    fn to_lane(self) -> u64 {
        u64::from(self as u32)
    }
    fn add(self, b: Self) -> Self {
        self.wrapping_add(b)
    }
    fn mul(self, b: Self) -> Self {
        self.wrapping_mul(b)
    }
}

impl Native for i16 {
    const ZERO: Self = 0;
    fn from_lane(raw: u64) -> Self {
        raw as i16
    }
    fn to_lane(self) -> u64 {
        u64::from(self as u16)
    }
    fn add(self, b: Self) -> Self {
        self.wrapping_add(b)
    }
    fn mul(self, b: Self) -> Self {
        self.wrapping_mul(b)
    }
}

/// A binary16 value held exactly in an `f32`: each op computes in `f32`
/// and rounds back to binary16, as the engine's `F16` lanes do.
#[derive(Clone, Copy)]
pub(crate) struct F16(f32);

impl F16 {
    fn round(v: f32) -> Self {
        F16(f16_to_f32(f32_to_f16(v)))
    }
}

impl Native for F16 {
    const ZERO: Self = F16(0.0);
    fn from_lane(raw: u64) -> Self {
        F16(f16_to_f32(raw as u16))
    }
    fn to_lane(self) -> u64 {
        u64::from(f32_to_f16(self.0))
    }
    fn add(self, b: Self) -> Self {
        F16::round(self.0 + b.0)
    }
    fn mul(self, b: Self) -> Self {
        F16::round(self.0 * b.0)
    }
}

/// Calls `$f::<T>($args)` with `T` the [`Native`] type of `$prec`.
macro_rules! native {
    ($prec:expr, $f:ident($($arg:expr),* $(,)?)) => {
        match $prec {
            Precision::F32 => $f::<f32>($($arg),*),
            Precision::I32 => $f::<i32>($($arg),*),
            Precision::F16 => $f::<F16>($($arg),*),
            Precision::I16 => $f::<i16>($($arg),*),
        }
    };
}

/// Samples packed into `prec` and held as its native type `T`.
fn pack<T: Native>(prec: Precision, samples: Vec<f32>) -> Vec<T> {
    samples
        .into_iter()
        .map(|v| T::from_lane(prec.pack(v)))
        .collect()
}

fn to_lanes<T: Native>(vals: &[T]) -> impl Iterator<Item = u64> + '_ {
    vals.iter().map(|v| v.to_lane())
}

/// `acc[i] += a · b[i]` over a row, in the order every output of the
/// references accumulates: `acc + a·b`.
fn mac_row<T: Native>(acc: &mut [T], a: T, b: &[T]) {
    for (o, &w) in acc.iter_mut().zip(b) {
        *o = o.add(a.mul(w));
    }
}

/// Row-major `n×k · k×m` GEMM reference: output `(r, c)` sums `j = 0..k`
/// in order.
fn gemm_ref<T: Native>(input: &[T], weight: &[T], n: usize, k: usize, m: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(n * m);
    let mut acc = vec![T::ZERO; m];
    for r in 0..n {
        acc.fill(T::ZERO);
        for j in 0..k {
            mac_row(&mut acc, input[r * k + j], &weight[j * m..(j + 1) * m]);
        }
        out.extend(to_lanes(&acc));
    }
    out
}

/// FIR reference: `y[i] = Σ_t h[t]·x[i+t]`, summed over `t` in order.
fn fir_ref<T: Native>(x: &[T], h: &[T]) -> Vec<u64> {
    let n_out = x.len() - h.len() + 1;
    let mut acc = vec![T::ZERO; n_out];
    for (t, &c) in h.iter().enumerate() {
        mac_row(&mut acc, c, &x[t..t + n_out]);
    }
    to_lanes(&acc).collect()
}

/// SpMM operands at one precision's native type `T`: a CSR sparse `n×k`
/// matrix and a dense row-major `k×m` weight.
pub(crate) struct SpmmOperands<T> {
    /// CSR row offsets (len n+1).
    pub(crate) row_ptr: Vec<usize>,
    /// CSR column indices.
    pub(crate) col_idx: Vec<usize>,
    /// Nonzero values.
    pub(crate) values: Vec<T>,
    /// Dense weight.
    pub(crate) weight: Vec<T>,
    m: usize,
}

impl<T: Native> SpmmOperands<T> {
    /// [`Spmm::gen_data`]`(s, seed)`'s samples packed into `prec`.
    pub(crate) fn generate(prec: Precision, s: SpmmSize, seed: u64) -> Self {
        let d = Spmm::gen_data(s, seed);
        Self {
            row_ptr: d.row_ptr,
            col_idx: d.col_idx,
            values: pack(prec, d.values),
            weight: pack(prec, d.weight),
            m: s.m,
        }
    }

    /// The reference of the batched kernel: the `i`-th nonzero of a row
    /// accumulates into partial-sum row `i mod batch`, and the `batch`
    /// partial rows then fold pairwise (`tree_halve` order).
    fn batched_ref(&self, batch: usize) -> Vec<u64> {
        let m = self.m;
        let mut out = Vec::with_capacity((self.row_ptr.len() - 1) * m);
        let mut acc = vec![T::ZERO; batch * m];
        for w in self.row_ptr.windows(2) {
            acc.fill(T::ZERO);
            for (i, j) in (w[0]..w[1]).enumerate() {
                let b = i % batch;
                let row = &self.weight[self.col_idx[j] * m..(self.col_idx[j] + 1) * m];
                mac_row(&mut acc[b * m..(b + 1) * m], self.values[j], row);
            }
            let mut len = batch;
            while len > 1 {
                let (lo, hi) = acc[..len * m].split_at_mut(len / 2 * m);
                for (o, &v) in lo.iter_mut().zip(&*hi) {
                    *o = o.add(v);
                }
                len /= 2;
            }
            out.extend(to_lanes(&acc[..m]));
        }
        out
    }

    /// The reference of the one-nonzero-at-a-time kernel: output `(r, c)`
    /// sums row `r`'s nonzeros in order, a batch of one.
    pub(crate) fn sequential_ref(&self) -> Vec<u64> {
        self.batched_ref(1)
    }
}

/// Writes canonical `dt` lanes to memory at `base`, one element each.
fn store_lanes(e: &mut Engine, base: u64, dt: DType, lanes: impl IntoIterator<Item = u64>) {
    let eb = dt.bytes();
    for (i, v) in lanes.into_iter().enumerate() {
        e.mem_mut().write_raw(base + i as u64 * eb, eb, v);
    }
}

/// Writes native values to memory at `base` as canonical `dt` lanes.
pub(crate) fn store_native<T: Native>(e: &mut Engine, base: u64, dt: DType, vals: &[T]) {
    store_lanes(e, base, dt, to_lanes(vals));
}

/// GEMM at an arbitrary precision (Figure 12(c) sizes: 64×64×64).
pub fn run_gemm(prec: Precision, scale: Scale) -> KernelRun {
    let (n, k, m) = match scale {
        Scale::Test => (8, 12, 32),
        Scale::Paper => (64, 64, 64),
    };
    run_gemm_dims(prec, n, k, m)
}

/// The GEMM problem both the MVE and the RVV bodies solve: writes the
/// `n×k` input and the `k×m` weight at `prec` to a fresh engine, runs
/// `body(e, [input, weight, out])` with their addresses and that of the
/// `n×m` output, and checks the output it stores against the reference.
pub(crate) fn solve_gemm(
    prec: Precision,
    n: usize,
    k: usize,
    m: usize,
    body: impl FnOnce(&mut Engine, [u64; 3]),
) -> KernelRun {
    fn operands<T: Native>(
        prec: Precision,
        e: &mut Engine,
        bufs: [u64; 2],
        n: usize,
        k: usize,
        m: usize,
    ) -> Vec<u64> {
        let input = pack::<T>(prec, gen_f32(0xE1, n * k));
        let weight = pack::<T>(prec, gen_f32(0xE2, k * m));
        store_native(e, bufs[0], prec.dtype(), &input);
        store_native(e, bufs[1], prec.dtype(), &weight);
        gemm_ref(&input, &weight, n, k, m)
    }
    let mut e = engine();
    let dt = prec.dtype();
    let [ia, wa, oa] = [n * k, k * m, n * m].map(|len| e.mem_alloc(len as u64 * dt.bytes()));
    let want = native!(prec, operands(prec, &mut e, [ia, wa], n, k, m));
    body(&mut e, [ia, wa, oa]);
    finish(e, oa, &Lanes(dt, &want))
}

/// The MVE GEMM of the Section IV replication listing at an arbitrary
/// precision and size (the registry's fp16 kernel, Figure 9's f32 sweep
/// and Figure 12(c)). Its trace does not depend on the operand values.
pub fn run_gemm_dims(prec: Precision, n: usize, k: usize, m: usize) -> KernelRun {
    solve_gemm(prec, n, k, m, |e, [ia, wa, oa]| {
        let (dt, eb) = (prec.dtype(), prec.dtype().bytes());
        e.vsetwidth(32);
        let rows_per_tile = (e.lanes() / m).max(1);
        // 2D: M output columns (DIM0), rows-per-tile rows (DIM1).
        e.vsetdimc(2);
        e.vsetdiml(0, m);
        e.vsetldstr(1, k as i64); // input row stride for mode 3
        for (r, rows) in chunks(n, rows_per_tile) {
            e.vsetdiml(1, rows);
            e.scalar(8);
            let mut acc = e.setdup(dt, 0);
            for j in 0..k {
                e.scalar(6);
                // Input column, replicated horizontally (DIM0 stride 0).
                let iv = e.load(
                    dt,
                    ia + ((r * k + j) as u64) * eb,
                    &[StrideMode::Zero, StrideMode::Cr],
                );
                // Weight row, replicated vertically (DIM1 stride 0).
                let wv = e.load(
                    dt,
                    wa + ((j * m) as u64) * eb,
                    &[StrideMode::One, StrideMode::Zero],
                );
                let p = e.binop(Opcode::Mul, BinOp::Mul, iv, wv);
                let acc2 = e.binop(Opcode::Add, BinOp::Add, acc, p);
                for rg in [iv, wv, p, acc] {
                    e.free(rg);
                }
                acc = acc2;
            }
            // Store rows sequentially.
            e.store(
                acc,
                oa + ((r * m) as u64) * eb,
                &[StrideMode::One, StrideMode::Seq],
            );
            e.free(acc);
        }
    })
}

/// FIR at an arbitrary precision (Figure 12(c)).
pub fn run_fir(prec: Precision, scale: Scale, taps: usize) -> KernelRun {
    fn operands<T: Native>(prec: Precision, n: usize, taps: usize) -> [Vec<u64>; 3] {
        let x = pack::<T>(prec, gen_f32(0xE3, n));
        let h = pack::<T>(prec, gen_f32(0xE4, taps));
        let want = fir_ref(&x, &h);
        [to_lanes(&x).collect(), to_lanes(&h).collect(), want]
    }
    let n = match scale {
        Scale::Test => 4 * 1024,
        Scale::Paper => 64 * 1024,
    };
    let [x, h, want] = native!(prec, operands(prec, n, taps));
    run_fir_lanes(prec.dtype(), 32, &x, &h, &want)
}

/// The FIR problem both the MVE and the RVV bodies solve,
/// `y[i] = Σ_t h[t]·x[i+t]` on canonical `dt` lanes at kernel width
/// `width`: writes `x` to a fresh engine, runs `body(e, [x, out])` with its
/// address and that of the `x.len() + 1 - h.len()` outputs, and checks the
/// outputs it stores against `want`.
pub(crate) fn solve_fir(
    dt: DType,
    width: u32,
    x: &[u64],
    h: &[u64],
    want: &[u64],
    body: impl FnOnce(&mut Engine, [u64; 2]),
) -> KernelRun {
    let mut e = engine();
    e.vsetwidth(width);
    let [xa, oa] = [x.len(), x.len() + 1 - h.len()].map(|len| e.mem_alloc(len as u64 * dt.bytes()));
    store_lanes(&mut e, xa, dt, x.iter().copied());
    body(&mut e, [xa, oa]);
    finish(e, oa, &Lanes(dt, want))
}

/// The MVE FIR on canonical `dt` lanes at kernel width `width`, checked
/// against `want` (CMSIS FIR-V/S/L and Figure 12(c)): one 1-D chunk of
/// outputs per pass, one broadcast coefficient per tap.
pub fn run_fir_lanes(dt: DType, width: u32, x: &[u64], h: &[u64], want: &[u64]) -> KernelRun {
    solve_fir(dt, width, x, h, want, |e, [xa, oa]| {
        let eb = dt.bytes();
        e.vsetdimc(1);
        for (base, chunk) in chunks(x.len() + 1 - h.len(), e.lanes()) {
            e.vsetdiml(0, chunk);
            e.scalar(6);
            let mut acc = e.setdup(dt, 0);
            for (t, &c) in h.iter().enumerate() {
                e.scalar(4);
                let xv = e.load(dt, xa + ((base + t) as u64) * eb, &[StrideMode::One]);
                let cv = e.setdup(dt, c);
                let p = e.binop(Opcode::Mul, BinOp::Mul, xv, cv);
                let acc2 = e.binop(Opcode::Add, BinOp::Add, acc, p);
                for rg in [xv, cv, p, acc] {
                    e.free(rg);
                }
                acc = acc2;
            }
            e.store(acc, oa + (base as u64) * eb, &[StrideMode::One]);
            e.free(acc);
        }
    })
}

/// SpMM at an arbitrary precision (the registry's fp16 kernel and Figure
/// 12(c)).
pub fn run_spmm(prec: Precision, scale: Scale) -> KernelRun {
    run_spmm_sized(prec, Spmm::size(scale), 0xE5)
}

/// The MVE SpMM of the Section IV irregular-access listing at an arbitrary
/// precision and size, on [`Spmm::gen_data`]`(s, seed)`; the sparsity
/// pattern shapes the trace, so the seed does too. `s.m` must be a power
/// of two for the in-cache fold.
///
/// Per row: the scalar core materialises pointer arrays for the nonzero
/// values and the matching weight rows; MVE random-loads both — values
/// replicated across M (stride-0 DIM0), weight rows sequential —
/// multiplies, accumulates `[M × batch]` partial products across batches
/// and folds the batch dimension in-cache once per row. The reference
/// (`SpmmOperands::batched_ref`) follows the same order exactly.
pub fn run_spmm_sized(prec: Precision, s: SpmmSize, seed: u64) -> KernelRun {
    native!(prec, spmm_mve(prec, s, seed))
}

fn spmm_mve<T: Native>(prec: Precision, s: SpmmSize, seed: u64) -> KernelRun {
    let ops = SpmmOperands::<T>::generate(prec, s, seed);

    let mut e = engine();
    e.vsetwidth(32);
    let dt = prec.dtype();
    let eb = dt.bytes();
    let va = e.mem_alloc((ops.values.len().max(1) as u64) * eb);
    let wa = e.mem_alloc((s.k * s.m) as u64 * eb);
    let oa = e.mem_alloc((s.n * s.m) as u64 * eb);
    // Padding target: fresh memory reads zero, so padded lanes add nothing.
    let zero_val = e.mem_alloc(eb);
    store_native(&mut e, va, dt, &ops.values);
    store_native(&mut e, wa, dt, &ops.weight);

    let lanes = e.lanes();
    let max_nnz = ops
        .row_ptr
        .windows(2)
        .map(|w| w[1] - w[0])
        .max()
        .unwrap_or(1)
        .max(1);
    // <= lanes/m, power of two, no larger than the densest row needs.
    let batch = ((lanes / s.m).next_power_of_two() / 2)
        .clamp(2, 256)
        .min(max_nnz.next_power_of_two());
    let want = ops.batched_ref(batch);

    let vptr = e.mem_alloc_typed::<u64>(batch);
    let wptr = e.mem_alloc_typed::<u64>(batch);
    for n in 0..s.n {
        e.scalar(10);
        e.vsetdimc(2);
        e.vsetdiml(0, s.m);
        e.vsetdiml(1, batch);
        let mut acc2d = e.setdup(dt, 0);
        let (lo, hi) = (ops.row_ptr[n], ops.row_ptr[n + 1]);
        for (j, take) in chunks(hi - lo, batch).map(|(j, take)| (lo + j, take)) {
            // Scalar core computes the pointer arrays (charged per nnz).
            e.scalar(4 * take as u64);
            let (vp, wp): (Vec<u64>, Vec<u64>) = (0..batch)
                .map(|b| {
                    if b < take {
                        let w = wa + (ops.col_idx[j + b] * s.m) as u64 * eb;
                        (va + ((j + b) as u64) * eb, w)
                    } else {
                        (zero_val, wa)
                    }
                })
                .unzip();
            e.mem_fill(vptr, &vp);
            e.mem_fill(wptr, &wp);
            // 2D: [M (dim0), batch (dim1, random bases)].
            let vv = e.rload(dt, vptr, &[StrideMode::Zero]);
            let wv = e.rload(dt, wptr, &[StrideMode::One]);
            let p = e.binop(Opcode::Mul, BinOp::Mul, vv, wv);
            e.free(vv);
            e.free(wv);
            let acc2 = e.binop(Opcode::Add, BinOp::Add, acc2d, p);
            e.free(acc2d);
            e.free(p);
            acc2d = acc2;
        }
        e.vsetdimc(1);
        e.vsetdiml(0, s.m * batch);
        let folded = tree_halve(&mut e, acc2d, s.m * batch, s.m);
        e.vsetdimc(1);
        e.vsetdiml(0, s.m);
        e.store(folded, oa + (n * s.m) as u64 * eb, &[StrideMode::One]);
        e.free(folded);
    }
    finish(e, oa, &Lanes(dt, &want))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mve_core::dtype::BinOp;

    #[test]
    fn gemm_all_precisions_match() {
        for prec in Precision::ALL {
            let run = run_gemm(prec, Scale::Test);
            assert!(run.checked.ok(), "{}: {:?}", prec.label(), run.checked);
        }
    }

    #[test]
    fn fir_all_precisions_match() {
        for prec in Precision::ALL {
            let run = run_fir(prec, Scale::Test, 16);
            assert!(run.checked.ok(), "{}: {:?}", prec.label(), run.checked);
        }
    }

    #[test]
    fn spmm_all_precisions_match() {
        for prec in Precision::ALL {
            let run = run_spmm(prec, Scale::Test);
            assert!(run.checked.ok(), "{}: {:?}", prec.label(), run.checked);
        }
    }

    // The generic `DType::binop` folds the native references replaced,
    // kept as oracles.

    /// Scalar multiply-accumulate in this precision's exact semantics.
    fn mac(prec: Precision, acc: u64, a: u64, b: u64) -> u64 {
        let dt = prec.dtype();
        let p = dt.binop(BinOp::Mul, a, b);
        dt.binop(BinOp::Add, acc, p)
    }

    fn gemm_fold(
        prec: Precision,
        input: &[u64],
        weight: &[u64],
        n: usize,
        k: usize,
        m: usize,
    ) -> Vec<u64> {
        let mut want = vec![prec.pack(0.0); n * m];
        for r in 0..n {
            for c in 0..m {
                let mut acc = prec.pack(0.0);
                for j in 0..k {
                    acc = mac(prec, acc, input[r * k + j], weight[j * m + c]);
                }
                want[r * m + c] = acc;
            }
        }
        want
    }

    fn fir_fold(prec: Precision, x: &[u64], h: &[u64]) -> Vec<u64> {
        let mut want = vec![prec.pack(0.0); x.len() - h.len() + 1];
        for (i, w) in want.iter_mut().enumerate() {
            let mut acc = prec.pack(0.0);
            for t in 0..h.len() {
                acc = mac(prec, acc, h[t], x[i + t]);
            }
            *w = acc;
        }
        want
    }

    fn spmm_batched_fold(prec: Precision, s: &SpmmOperands<u64>, batch: usize) -> Vec<u64> {
        let dt = prec.dtype();
        let (values, weight) = (&s.values, &s.weight);
        let n_rows = s.row_ptr.len() - 1;
        let mut want = vec![prec.pack(0.0); n_rows * s.m];
        for n in 0..n_rows {
            let (lo, hi) = (s.row_ptr[n], s.row_ptr[n + 1]);
            // acc2d[b][m] accumulates products across batch passes.
            let mut acc2d = vec![vec![prec.pack(0.0); s.m]; batch];
            for (j, take) in chunks(hi - lo, batch).map(|(j, take)| (lo + j, take)) {
                for b in 0..take {
                    for m in 0..s.m {
                        let p = dt.binop(
                            BinOp::Mul,
                            values[j + b],
                            weight[s.col_idx[j + b] * s.m + m],
                        );
                        acc2d[b][m] = dt.binop(BinOp::Add, acc2d[b][m], p);
                    }
                }
            }
            // Pairwise fold of the batch dimension (tree_halve order).
            let mut len = batch;
            while len > 1 {
                for b in 0..len / 2 {
                    for m in 0..s.m {
                        acc2d[b][m] = dt.binop(BinOp::Add, acc2d[b][m], acc2d[b + len / 2][m]);
                    }
                }
                len /= 2;
            }
            want[n * s.m..(n + 1) * s.m].copy_from_slice(&acc2d[0]);
        }
        want
    }

    fn spmm_sequential_fold(prec: Precision, s: &SpmmOperands<u64>) -> Vec<u64> {
        let n_rows = s.row_ptr.len() - 1;
        let mut want = vec![prec.pack(0.0); n_rows * s.m];
        for n in 0..n_rows {
            for m in 0..s.m {
                let mut acc = prec.pack(0.0);
                for j in s.row_ptr[n]..s.row_ptr[n + 1] {
                    acc = mac(prec, acc, s.values[j], s.weight[s.col_idx[j] * s.m + m]);
                }
                want[n * s.m + m] = acc;
            }
        }
        want
    }

    /// Deterministic full-range lanes (xorshift): the kernels' modest
    /// samples, raw bit patterns and, with `specials`, rare edge values.
    /// Integer lanes cover the whole wrapping range and its extremes. Float
    /// raw patterns keep every mantissa and the subnormals but stay below
    /// 2.0, and the edges (NaNs with payloads, infinities, extreme
    /// subnormals, the largest finite value) are rare, since one NaN or
    /// overflow absorbs a whole dot product.
    fn raw_lanes(prec: Precision, seed: u64, n: usize, specials: bool) -> Vec<u64> {
        let (edges, keep): (&[u64], u64) = match prec {
            Precision::F32 => (
                &[
                    0x7F80_0000,
                    0xFF80_0000,
                    0x7FC0_0001,
                    0xFFBF_FFFF,
                    0x0000_0001,
                    0x8000_0000,
                    0x7F7F_FFFF,
                ],
                0xBFFF_FFFF,
            ),
            Precision::F16 => (
                &[
                    0x7C00, 0xFC00, 0x7C01, 0xFE00, 0x0001, 0x83FF, 0x8000, 0x7BFF,
                ],
                0xBFFF,
            ),
            Precision::I32 => (&[0x8000_0000, 0x7FFF_FFFF, 0xFFFF_FFFF, 1], u64::MAX),
            Precision::I16 => (&[0x8000, 0x7FFF, 0xFFFF, 1], u64::MAX),
        };
        let dt = prec.dtype();
        let int = !dt.is_float();
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                let r = s >> 16;
                match s % 64 {
                    0 if specials => edges[r as usize % edges.len()],
                    1..=7 if int => edges[r as usize % edges.len()],
                    0..=15 => dt.truncate(r) & keep,
                    16..=31 if int => dt.truncate(r),
                    _ => prec.pack(((s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as f32),
                }
            })
            .collect()
    }

    fn natives<T: Native>(lanes: &[u64]) -> Vec<T> {
        lanes.iter().map(|&v| T::from_lane(v)).collect()
    }

    /// The native references on raw lanes, each converted with
    /// `Native::from_lane`.
    fn fir_on_lanes<T: Native>(x: &[u64], h: &[u64]) -> Vec<u64> {
        fir_ref(&natives::<T>(x), &natives::<T>(h))
    }

    fn gemm_on_lanes<T: Native>(
        input: &[u64],
        weight: &[u64],
        n: usize,
        k: usize,
        m: usize,
    ) -> Vec<u64> {
        gemm_ref(&natives::<T>(input), &natives::<T>(weight), n, k, m)
    }

    /// The batched and the sequential SpMM references.
    fn spmm_on_lanes<T: Native>(s: &SpmmOperands<u64>, batch: usize) -> [Vec<u64>; 2] {
        let ops = SpmmOperands::<T> {
            row_ptr: s.row_ptr.clone(),
            col_idx: s.col_idx.clone(),
            values: natives(&s.values),
            weight: natives(&s.weight),
            m: s.m,
        };
        [ops.batched_ref(batch), ops.sequential_ref()]
    }

    /// Lane equality, except that all NaNs of a float precision are one
    /// value: IEEE 754 leaves a NaN result's sign and payload open, and
    /// the compiler may commute float operands.
    fn same_lanes(prec: Precision, got: &[u64], want: &[u64]) -> bool {
        let nan = |v: u64| prec.dtype().is_float() && prec.dtype().to_f64(v).is_nan();
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(&g, &w)| g == w || (nan(g) && nan(w)))
    }

    proptest::proptest! {
        /// For all four precisions, the native references equal the
        /// generic folds on generated shapes and full-range lanes.
        #[test]
        fn native_references_match_generic_folds(
            taps in 1usize..=160,
            extra in 0usize..64,
            n in 1usize..6,
            k in 1usize..24,
            m in 1usize..40,
            batch_log in 0u32..5,
            density_pct in 0u64..100,
            seed: u64,
        ) {
            // A CSR pattern over an n × k sparse matrix.
            let (mut row_ptr, mut col_idx) = (vec![0usize], Vec::new());
            let mut bits = seed.rotate_left(29) | 1;
            for _ in 0..n {
                for c in 0..k {
                    bits ^= bits << 13;
                    bits ^= bits >> 7;
                    bits ^= bits << 17;
                    if bits % 100 < density_pct {
                        col_idx.push(c);
                    }
                }
                row_ptr.push(col_idx.len());
            }
            for (i, prec) in Precision::ALL.into_iter().enumerate() {
                let seed = seed ^ (i as u64) << 60;
                let specials = seed & 1 == 1;
                let x = raw_lanes(prec, seed, taps + extra, specials);
                let h = raw_lanes(prec, seed.rotate_left(17) ^ 0x9E37, taps, specials);
                let (got, want) = (native!(prec, fir_on_lanes(&x, &h)), fir_fold(prec, &x, &h));
                proptest::prop_assert!(same_lanes(prec, &got, &want), "fir {}", prec.label());

                let input = raw_lanes(prec, seed ^ 0xA1, n * k, specials);
                let weight = raw_lanes(prec, seed ^ 0xA2, k * m, specials);
                let got = native!(prec, gemm_on_lanes(&input, &weight, n, k, m));
                let want = gemm_fold(prec, &input, &weight, n, k, m);
                proptest::prop_assert!(same_lanes(prec, &got, &want), "gemm {}", prec.label());

                let ops = SpmmOperands {
                    row_ptr: row_ptr.clone(),
                    col_idx: col_idx.clone(),
                    values: raw_lanes(prec, seed ^ 0xA3, col_idx.len(), specials),
                    weight,
                    m,
                };
                let batch = 1 << batch_log;
                let [batched, sequential] = native!(prec, spmm_on_lanes(&ops, batch));
                let (got, want) = (batched, spmm_batched_fold(prec, &ops, batch));
                proptest::prop_assert!(same_lanes(prec, &got, &want), "batched spmm {}", prec.label());
                let (got, want) = (sequential, spmm_sequential_fold(prec, &ops));
                proptest::prop_assert!(same_lanes(prec, &got, &want), "sequential spmm {}", prec.label());
            }
        }
    }

    proptest::proptest! {
        /// The one MVE body of each kernel passes its own check at
        /// generated shapes, seeds and array counts (2048-8192 lanes, so
        /// GEMM tiles and FIR chunks split); a run checked against a
        /// perturbed `want` reports the mismatch.
        #[test]
        fn shared_bodies_pass_their_checks(
            arrays_log in 3u32..=5,
            n in 1usize..=24,
            k in 1usize..=8,
            m in 1usize..=160,
            m_log in 0u32..=7,
            density in 0.0f64..1.0,
            taps in 1usize..=24,
            extra in 0usize..=4500,
            seed: u64,
        ) {
            let _arrays = crate::common::EngineArraysGuard::new(1 << arrays_log);
            let s = SpmmSize { n, k: 8 * k, m: 1 << m_log, density };
            for prec in Precision::ALL {
                let run = run_gemm_dims(prec, n, k, m);
                proptest::prop_assert!(run.checked.ok(), "gemm {} {:?}", prec.label(), run.checked);
                let run = run_spmm_sized(prec, s, seed);
                proptest::prop_assert!(run.checked.ok(), "spmm {} {:?}", prec.label(), run.checked);
                let x = raw_lanes(prec, seed, taps + extra, false);
                let h = raw_lanes(prec, seed.rotate_left(17) ^ 0x9E37, taps, false);
                let want = native!(prec, fir_on_lanes(&x, &h));
                let run = run_fir_lanes(prec.dtype(), 32, &x, &h, &want);
                proptest::prop_assert!(run.checked.ok(), "fir {} {:?}", prec.label(), run.checked);
            }
            use crate::cmsis::Fir;
            for (f, dt) in [(Fir::S, DType::I8), (Fir::V, DType::I16), (Fir::L, DType::I32)] {
                let mut bits = seed | 1;
                let mut lanes = |len| -> Vec<u64> {
                    (0..len)
                        .map(|_| {
                            bits ^= bits << 13;
                            bits ^= bits >> 7;
                            bits ^= bits << 17;
                            dt.truncate(bits)
                        })
                        .collect()
                };
                let (x, h) = (lanes(taps + extra), lanes(taps));
                let mut want = f.scalar_ref(&x, &h);
                let run = run_fir_lanes(dt, dt.bits().max(8), &x, &h, &want);
                proptest::prop_assert!(run.checked.ok(), "fir {dt} {:?}", run.checked);
                // Negative control: one wrong lane is one mismatch.
                let i = seed as usize % want.len();
                want[i] = dt.truncate(want[i] ^ 1);
                let run = run_fir_lanes(dt, dt.bits().max(8), &x, &h, &want);
                proptest::prop_assert_eq!(run.checked.mismatches, 1);
            }
        }
    }

    #[test]
    fn lower_precision_emits_same_instruction_count() {
        // Precision changes latency, not instruction count.
        let a = run_gemm(Precision::F32, Scale::Test).trace.instr_mix();
        let b = run_gemm(Precision::I16, Scale::Test).trace.instr_mix();
        assert_eq!(a.vector_total(), b.vector_total());
    }
}
