//! RISC-V-RVV-style 1-D long-vector ISA layer over the in-cache engine.
//!
//! Section VI: "To compare MVE with RISC-V RVV, we implement workloads using
//! optimized algorithms for only 1D vector instructions." This module is
//! that ISA layer: it drives the *same* functional engine and emits traces
//! into the same format, but only through RVV's one-dimensional facilities:
//!
//! * unit-stride and strided 1-D loads/stores (`vle`/`vlse`);
//! * indexed gathers from a base + offset-vector (`vluxei`), where the
//!   offset vector itself must first be computed by scalar code, stored to
//!   memory and loaded;
//! * predicate masks in vector registers, likewise computed by scalar code
//!   and loaded from memory;
//! * register moves for packing partial 1-D segments into a long register
//!   (`vslideup`-style).
//!
//! Multi-dimensional patterns therefore expand into per-segment sequences —
//! mask config, partial 1-D access, pack move, scalar address arithmetic —
//! which is exactly the dynamic-instruction blow-up Figures 10/11 quantify.

use mve_core::dtype::DType;
use mve_core::engine::{Engine, Reg, Row};
use mve_core::isa::Opcode;
use mve_core::trace::Event;
use mve_insram::AluOp;

/// Scalar instructions charged per segment for address arithmetic and loop
/// control (base update, bounds check, branch; Section VII-B notes "more
/// partial memory accesses require more scalar address calculation
/// instructions").
const SCALARS_PER_SEGMENT: u64 = 6;

/// Scalar instructions charged per mask recomputation (computing the mask
/// value in the scalar core before loading it, Section III-E).
const SCALARS_PER_MASK: u64 = 8;

/// The RVV emulation layer. Borrows the engine; every method performs the
/// functional work *and* emits the RVV-shaped trace events.
///
/// ```
/// use mve_baselines::rvv::Rvv;
/// use mve_core::{DType, Engine};
///
/// let mut e = Engine::default_mobile();
/// let buf = e.mem_alloc_typed::<i32>(128);
/// e.mem_fill(buf, &(0..128).collect::<Vec<i32>>());
/// let mut rvv = Rvv::new(&mut e);
/// rvv.setvl(128);
/// let v = rvv.load_1d(DType::I32, buf, 1);
/// assert_eq!(e.lane_value(v, 99), 99);
/// ```
#[derive(Debug)]
pub struct Rvv<'e> {
    e: &'e mut Engine,
    vl: usize,
}

impl<'e> Rvv<'e> {
    /// Wraps an engine; configures it as a flat 1-D machine.
    pub fn new(e: &'e mut Engine) -> Self {
        let lanes = e.lanes();
        e.vsetdimc(1);
        e.vsetdiml(0, lanes);
        Self { e, vl: lanes }
    }

    /// `vsetvl`: sets the active vector length.
    pub fn setvl(&mut self, vl: usize) {
        assert!(vl <= self.e.lanes(), "vl {vl} exceeds engine lanes");
        self.vl = vl;
        self.e.vsetdiml(0, vl);
    }

    /// Current vector length.
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Access to the underlying engine (for arithmetic ops, which RVV and
    /// MVE share one-to-one once data is in registers).
    pub fn engine(&mut self) -> &mut Engine {
        &mut *self.e
    }

    /// Emits a Memory event built from a row primitive's `(lines, cb_mask)`.
    fn memory_event(
        &mut self,
        opcode: Opcode,
        dtype: DType,
        active_lanes: usize,
        (lines, cb_mask): (Vec<u64>, u64),
        write: bool,
    ) {
        self.e.push_raw_event(Event::Memory {
            opcode,
            dtype,
            active_lanes: active_lanes as u32,
            cb_mask,
            lines,
            write,
        });
    }

    /// Emits the per-segment pack/unpack move (`vslideup`-style).
    fn move_event(&mut self, dtype: DType, active_lanes: usize, cb_mask: u64) {
        self.e.push_raw_event(Event::Compute {
            opcode: Opcode::Copy,
            alu: AluOp::Copy,
            dtype,
            active_lanes: active_lanes as u32,
            cb_mask,
        });
    }

    /// Scalar address arithmetic plus the segment-window mask config that
    /// opens every per-segment sequence.
    fn segment_prologue(&mut self, scalars: u64) {
        self.e.scalar(scalars);
        self.e.push_raw_event(Event::Config {
            opcode: Opcode::SetMask,
        });
    }

    /// Unit-stride / strided 1-D load of `vl` elements (`vle`/`vlse`).
    pub fn load_1d(&mut self, dtype: DType, base: u64, stride_elems: i64) -> Reg {
        let dst = self.e.alloc(dtype);
        let row = Row::new(0, self.vl, base, stride_elems);
        let access = self.e.load_rows(dst, [row]);
        self.memory_event(Opcode::StridedLoad, dtype, self.vl, access, false);
        dst
    }

    /// Unit-stride / strided 1-D store.
    pub fn store_1d(&mut self, src: Reg, base: u64, stride_elems: i64) {
        let row = Row::new(0, self.vl, base, stride_elems);
        let access = self.e.store_rows(src, [row]);
        self.memory_event(Opcode::StridedStore, src.dtype(), self.vl, access, true);
    }

    /// Emulates a 2-D load (`rows` segments of `cols` elements, row base
    /// advancing by `row_stride_elems`) with RVV 1-D instructions.
    ///
    /// Per segment this costs: scalar address arithmetic, a mask
    /// recomputation + config, one masked partial 1-D load (only the
    /// segment's lanes active), and one pack move — the expansion
    /// Section VII-B describes for GEMM on RVV.
    pub fn segmented_load_2d(
        &mut self,
        dtype: DType,
        base: u64,
        cols: usize,
        rows: usize,
        row_stride_elems: i64,
    ) -> Reg {
        self.segmented_load_2d_strided(dtype, base, cols, 1, rows, row_stride_elems)
    }

    /// [`Rvv::segmented_load_2d`] with an explicit per-column element stride
    /// (stride 0 broadcasts one value across the segment — RVV needs this
    /// for per-row constants like intra-prediction DC values).
    pub fn segmented_load_2d_strided(
        &mut self,
        dtype: DType,
        base: u64,
        cols: usize,
        col_stride_elems: i64,
        rows: usize,
        row_stride_elems: i64,
    ) -> Reg {
        assert!(cols * rows <= self.vl, "segments exceed vector length");
        let dst = self.e.alloc(dtype);
        for r in 0..rows {
            self.segment_prologue(SCALARS_PER_SEGMENT + SCALARS_PER_MASK);
            // Partial masked 1-D load: only `cols` lanes active.
            let row = Row::new(
                r * cols,
                cols,
                element_addr(base, r as i64 * row_stride_elems, dtype),
                col_stride_elems,
            );
            let access = self.e.load_rows(dst, [row]);
            let cb_mask = access.1;
            self.memory_event(Opcode::StridedLoad, dtype, cols, access, false);
            self.move_event(dtype, cols, cb_mask);
        }
        dst
    }

    /// Emulates a 2-D store with per-segment masked 1-D stores.
    pub fn segmented_store_2d(
        &mut self,
        src: Reg,
        base: u64,
        cols: usize,
        rows: usize,
        row_stride_elems: i64,
    ) {
        assert!(cols * rows <= self.vl, "segments exceed vector length");
        let dtype = src.dtype();
        for r in 0..rows {
            self.segment_prologue(SCALARS_PER_SEGMENT + SCALARS_PER_MASK);
            let row = Row::new(
                r * cols,
                cols,
                element_addr(base, r as i64 * row_stride_elems, dtype),
                1,
            );
            let access = self.e.store_rows(src, [row]);
            // Unpack move (slide the segment down before the partial store).
            self.move_event(dtype, cols, access.1);
            self.memory_event(Opcode::StridedStore, dtype, cols, access, true);
        }
    }

    /// Emulates MVE's stride-0 replication: loads `unique` elements from
    /// `base` and replicates each across `rep` consecutive lanes.
    ///
    /// RVV needs an index-vector gather for this: scalar code computes the
    /// indices, stores them, a 1-D load brings them into a register, and an
    /// indexed gather (`vluxei`) fetches the data.
    pub fn replicated_load(&mut self, dtype: DType, base: u64, unique: usize, rep: usize) -> Reg {
        let total = unique * rep;
        assert!(total <= self.vl, "replication exceeds vector length");
        // Scalar index computation + index-vector store/load round trip.
        self.e.scalar(4 * total as u64 / 8 + SCALARS_PER_SEGMENT);
        // The gather itself: one broadcast row per unique element.
        let dst = self.e.alloc(dtype);
        let rows =
            (0..unique).map(|u| Row::new(u * rep, rep, element_addr(base, u as i64, dtype), 0));
        let access = self.e.load_rows(dst, rows);
        let idx_lines = (total as u64 * 4).div_ceil(mve_memsim::LINE_BYTES);
        // The index vector occupies fresh lines near the data.
        let index_lines = (0..idx_lines)
            .map(|i| (base / mve_memsim::LINE_BYTES) + 1024 + i)
            .collect();
        let index_access = (index_lines, access.1);
        self.memory_event(Opcode::StridedLoad, DType::U32, total, index_access, false);
        self.memory_event(Opcode::RandomLoad, dtype, total, access, false);
        dst
    }

    /// Emulates a random-row-pointer 2-D load: RVV loads each row with a
    /// separate masked 1-D access after scalar code chases the pointer.
    pub fn pointer_rows_load(
        &mut self,
        dtype: DType,
        ptr_base: u64,
        rows: usize,
        cols: usize,
    ) -> Reg {
        assert!(rows * cols <= self.vl, "rows exceed vector length");
        let dst = self.e.alloc(dtype);
        for r in 0..rows {
            // Scalar pointer chase + mask computation.
            self.segment_prologue(SCALARS_PER_SEGMENT + SCALARS_PER_MASK + 2);
            let row = Row::new(r * cols, cols, self.e.mem().read::<u64>(ptr_base, r), 1);
            let access = self.e.load_rows(dst, [row]);
            let cb_mask = access.1;
            self.memory_event(Opcode::StridedLoad, dtype, cols, access, false);
            self.move_event(dtype, cols, cb_mask);
        }
        dst
    }
}

/// Byte address of element `index` of a `dtype` array at `base`.
fn element_addr(base: u64, index: i64, dtype: DType) -> u64 {
    (base as i64 + index * dtype.bytes() as i64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mve_core::isa::StrideMode;
    use mve_core::trace::InstrMix;

    fn engine() -> Engine {
        Engine::default_mobile()
    }

    #[test]
    fn load_1d_matches_mve_load() {
        let mut e = engine();
        let a = e.mem_alloc_typed::<i32>(256);
        let vals: Vec<i32> = (0..256).collect();
        e.mem_fill(a, &vals);
        let mut rvv = Rvv::new(&mut e);
        rvv.setvl(256);
        let r = rvv.load_1d(DType::I32, a, 1);
        assert_eq!(e.lane_value(r, 0), 0);
        assert_eq!(e.lane_value(r, 255), 255);
    }

    #[test]
    fn segmented_2d_load_is_functionally_equal_but_costlier() {
        // A 49-column × 16-row tile (the ShuffleNet-style small matrix).
        let (cols, rows, stride) = (49usize, 16usize, 100i64);
        let mut mve = engine();
        let a = mve.mem_alloc_typed::<i32>(rows * 100);
        let vals: Vec<i32> = (0..rows * 100).map(|i| i as i32 * 3).collect();
        mve.mem_fill(a, &vals);
        mve.vsetdimc(2);
        mve.vsetdiml(0, cols);
        mve.vsetdiml(1, rows);
        mve.vsetldstr(1, stride);
        let vm = mve.vsld_dw(a, &[StrideMode::One, StrideMode::Cr]);
        let mve_mix = mve.trace().instr_mix();

        let mut re = engine();
        let b = re.mem_alloc_typed::<i32>(rows * 100);
        re.mem_fill(b, &vals);
        let mut rvv = Rvv::new(&mut re);
        rvv.setvl(8192);
        let vr = rvv.segmented_load_2d(DType::I32, b, cols, rows, stride);
        let rvv_mix = re.trace().instr_mix();

        for lane in 0..cols * rows {
            assert_eq!(
                mve.lane_value(vm, lane),
                re.lane_value(vr, lane),
                "lane {lane}"
            );
        }
        // RVV needs a load per row plus moves and masks; MVE needs one.
        assert_eq!(mve_mix.mem_access, 1);
        assert_eq!(rvv_mix.mem_access, rows as u64);
        assert_eq!(rvv_mix.moves, rows as u64);
        assert!(rvv_mix.scalar > mve_mix.scalar);
        assert!(rvv_mix.vector_total() > 3 * mve_mix.vector_total());
    }

    #[test]
    fn replicated_load_matches_stride0() {
        let mut e = engine();
        let a = e.mem_alloc_typed::<f32>(8);
        let vals: Vec<f32> = (0..8).map(|i| i as f32 + 0.5).collect();
        e.mem_fill(a, &vals);
        let mut rvv = Rvv::new(&mut e);
        rvv.setvl(8192);
        let r = rvv.replicated_load(DType::F32, a, 8, 4);
        for u in 0..8 {
            for k in 0..4 {
                assert_eq!(
                    f32::from_bits(e.lane_value(r, u * 4 + k) as u32),
                    u as f32 + 0.5
                );
            }
        }
    }

    #[test]
    fn pointer_rows_load_chases_pointers() {
        let mut e = engine();
        let row0 = e.mem_alloc_typed::<u8>(16);
        let row1 = e.mem_alloc_typed::<u8>(16);
        e.mem_fill(row0, &[10u8; 16]);
        e.mem_fill(row1, &[20u8; 16]);
        let ptrs = e.mem_alloc_typed::<u64>(2);
        e.mem_fill(ptrs, &[row1, row0]); // deliberately swapped
        let mut rvv = Rvv::new(&mut e);
        rvv.setvl(8192);
        let r = rvv.pointer_rows_load(DType::U8, ptrs, 2, 16);
        assert_eq!(e.lane_value(r, 0), 20);
        assert_eq!(e.lane_value(r, 16), 10);
    }

    #[test]
    fn instr_mix_shape_matches_figure_11() {
        // For a 2D pattern, RVV's mix should be mask-config + partial-mem +
        // move heavy, while MVE is a single memory access (Figure 11).
        let mut e = engine();
        let a = e.mem_alloc_typed::<i32>(64 * 64);
        e.mem_fill(a, &vec![7i32; 64 * 64]);
        let mut rvv = Rvv::new(&mut e);
        rvv.setvl(4096);
        let _ = rvv.segmented_load_2d(DType::I32, a, 64, 64, 64);
        let mix: InstrMix = e.trace().instr_mix();
        assert!(mix.config >= 64);
        assert!(mix.mem_access >= 64);
        assert!(mix.moves >= 64);
    }
}
