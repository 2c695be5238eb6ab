//! Equivalence of the RVV layer's memory operations with their original
//! lane-by-lane bodies.
//!
//! `Rvv`'s six memory ops now run on the engine's row primitive
//! (`Engine::load_rows` / `Engine::store_rows`). The `Oracle` below keeps
//! the per-lane bodies they replaced, verbatim: explicit address lists,
//! `read_raw`/`set_lane_raw` loops, `lines_for` and `cb_mask_for_lanes`.
//! Generated vector lengths, strides (0, ±1, ±k) and segment shapes must
//! give identical registers, memory and event streams.

use mve_baselines::rvv::Rvv;
use mve_core::dtype::DType;
use mve_core::engine::{Engine, Reg};
use mve_core::isa::Opcode;
use mve_core::mem::Memory;
use mve_core::trace::Event;
use mve_insram::scheme::EngineGeometry;
use mve_insram::AluOp;
use mve_memsim::LineSet;
use proptest::prelude::*;

// The layer's per-segment scalar charges, mirrored so the oracle's event
// stream pins them too.
const SCALARS_PER_SEGMENT: u64 = 6;
const SCALARS_PER_MASK: u64 = 8;

/// The RVV memory ops as they were before the row primitive: one address,
/// one `read_raw`/`write_raw` and one `set_lane_raw` per lane.
struct Oracle<'e> {
    e: &'e mut Engine,
    vl: usize,
}

impl Oracle<'_> {
    fn cb_mask_for_lanes(&self, lo: usize, hi: usize) -> u64 {
        let per_cb = self.e.geometry().bitlines_per_cb();
        let mut m = 0u64;
        for lane in (lo..hi).step_by(per_cb.max(1)) {
            m |= 1 << (lane / per_cb);
        }
        if hi > lo {
            m |= 1 << ((hi - 1) / per_cb);
        }
        m
    }

    fn lines_for(addrs: impl Iterator<Item = u64>, bytes: u64) -> LineSet {
        let mut lines: Vec<u64> = addrs
            .flat_map(|a| {
                let first = a / mve_memsim::LINE_BYTES;
                let last = (a + bytes - 1) / mve_memsim::LINE_BYTES;
                first..=last
            })
            .collect();
        lines.sort_unstable();
        lines.dedup();
        LineSet::from_sorted(&lines)
    }

    fn load_1d(&mut self, dtype: DType, base: u64, stride_elems: i64) -> Reg {
        let dst = self.e.alloc(dtype);
        let bytes = dtype.bytes();
        let mut addrs = Vec::with_capacity(self.vl);
        for i in 0..self.vl {
            let a = (base as i64 + i as i64 * stride_elems * bytes as i64) as u64;
            let v = self.e.mem().read_raw(a, bytes);
            self.e.set_lane_raw(dst, i, v);
            addrs.push(a);
        }
        let cb_mask = self.cb_mask_for_lanes(0, self.vl);
        let lines = Self::lines_for(addrs.into_iter(), bytes);
        self.e.push_raw_event(Event::Memory {
            opcode: Opcode::StridedLoad,
            dtype,
            active_lanes: self.vl as u32,
            cb_mask,
            lines,
            write: false,
        });
        dst
    }

    fn store_1d(&mut self, src: Reg, base: u64, stride_elems: i64) {
        let dtype = src.dtype();
        let bytes = dtype.bytes();
        let mut values = self.e.reg_lanes(src);
        values.truncate(self.vl);
        let mut addrs = Vec::with_capacity(self.vl);
        for (i, &v) in values.iter().enumerate() {
            let a = (base as i64 + i as i64 * stride_elems * bytes as i64) as u64;
            self.e.mem_mut().write_raw(a, bytes, v);
            addrs.push(a);
        }
        let cb_mask = self.cb_mask_for_lanes(0, self.vl);
        let lines = Self::lines_for(addrs.into_iter(), bytes);
        self.e.push_raw_event(Event::Memory {
            opcode: Opcode::StridedStore,
            dtype,
            active_lanes: self.vl as u32,
            cb_mask,
            lines,
            write: true,
        });
    }

    fn segmented_load_2d(
        &mut self,
        dtype: DType,
        base: u64,
        cols: usize,
        rows: usize,
        row_stride_elems: i64,
    ) -> Reg {
        self.segmented_load_2d_strided(dtype, base, cols, 1, rows, row_stride_elems)
    }

    fn segmented_load_2d_strided(
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
        let bytes = dtype.bytes();
        for r in 0..rows {
            // Scalar address arithmetic + mask value computation.
            self.e.scalar(SCALARS_PER_SEGMENT + SCALARS_PER_MASK);
            // Mask config (set the segment window).
            self.e.push_raw_event(Event::Config {
                opcode: Opcode::SetMask,
            });
            // Partial masked 1-D load: only `cols` lanes active.
            let seg_base = (base as i64 + r as i64 * row_stride_elems * bytes as i64) as u64;
            let mut addrs = Vec::with_capacity(cols);
            for c in 0..cols {
                let a = (seg_base as i64 + c as i64 * col_stride_elems * bytes as i64) as u64;
                let v = self.e.mem().read_raw(a, bytes);
                self.e.set_lane_raw(dst, r * cols + c, v);
                addrs.push(a);
            }
            let lo = r * cols;
            let cb_mask = self.cb_mask_for_lanes(lo, lo + cols);
            let lines = Self::lines_for(addrs.into_iter(), bytes);
            self.e.push_raw_event(Event::Memory {
                opcode: Opcode::StridedLoad,
                dtype,
                active_lanes: cols as u32,
                cb_mask,
                lines,
                write: false,
            });
            // Pack move into the long register (vslideup-style).
            self.e.push_raw_event(Event::Compute {
                opcode: Opcode::Copy,
                alu: AluOp::Copy,
                dtype,
                active_lanes: cols as u32,
                cb_mask,
            });
        }
        dst
    }

    fn segmented_store_2d(
        &mut self,
        src: Reg,
        base: u64,
        cols: usize,
        rows: usize,
        row_stride_elems: i64,
    ) {
        assert!(cols * rows <= self.vl, "segments exceed vector length");
        let dtype = src.dtype();
        let bytes = dtype.bytes();
        let mut values = self.e.reg_lanes(src);
        values.truncate(cols * rows);
        for r in 0..rows {
            self.e.scalar(SCALARS_PER_SEGMENT + SCALARS_PER_MASK);
            self.e.push_raw_event(Event::Config {
                opcode: Opcode::SetMask,
            });
            // Unpack move (slide the segment down before the partial store).
            let lo = r * cols;
            let cb_mask = self.cb_mask_for_lanes(lo, lo + cols);
            self.e.push_raw_event(Event::Compute {
                opcode: Opcode::Copy,
                alu: AluOp::Copy,
                dtype,
                active_lanes: cols as u32,
                cb_mask,
            });
            let seg_base = (base as i64 + r as i64 * row_stride_elems * bytes as i64) as u64;
            let mut addrs = Vec::with_capacity(cols);
            for c in 0..cols {
                let a = seg_base + c as u64 * bytes;
                self.e.mem_mut().write_raw(a, bytes, values[r * cols + c]);
                addrs.push(a);
            }
            let lines = Self::lines_for(addrs.into_iter(), bytes);
            self.e.push_raw_event(Event::Memory {
                opcode: Opcode::StridedStore,
                dtype,
                active_lanes: cols as u32,
                cb_mask,
                lines,
                write: true,
            });
        }
    }

    fn replicated_load(&mut self, dtype: DType, base: u64, unique: usize, rep: usize) -> Reg {
        let total = unique * rep;
        assert!(total <= self.vl, "replication exceeds vector length");
        let bytes = dtype.bytes();
        // Scalar index computation + index-vector store/load round trip.
        self.e.scalar(4 * total as u64 / 8 + SCALARS_PER_SEGMENT);
        let idx_lines = (total as u64 * 4).div_ceil(mve_memsim::LINE_BYTES);
        let cb_mask = self.cb_mask_for_lanes(0, total);
        self.e.push_raw_event(Event::Memory {
            opcode: Opcode::StridedLoad,
            dtype: DType::U32,
            active_lanes: total as u32,
            cb_mask,
            // The index vector occupies fresh lines near the data.
            lines: LineSet::from_sorted(
                &(0..idx_lines)
                    .map(|i| (base / mve_memsim::LINE_BYTES) + 1024 + i)
                    .collect::<Vec<u64>>(),
            ),
            write: false,
        });
        // The gather itself.
        let dst = self.e.alloc(dtype);
        let mut addrs = Vec::with_capacity(total);
        for u in 0..unique {
            let a = base + u as u64 * bytes;
            let v = self.e.mem().read_raw(a, bytes);
            for r in 0..rep {
                self.e.set_lane_raw(dst, u * rep + r, v);
            }
            addrs.push(a);
        }
        let lines = Self::lines_for(addrs.into_iter(), bytes);
        self.e.push_raw_event(Event::Memory {
            opcode: Opcode::RandomLoad,
            dtype,
            active_lanes: total as u32,
            cb_mask,
            lines,
            write: false,
        });
        dst
    }
}

/// Functional memory of the test engines; accesses are based mid-way so
/// negative strides stay in bounds.
const MEM_BYTES: u64 = 1 << 20;
const MID: u64 = MEM_BYTES / 2;

/// Deterministic xorshift stream.
fn xorshift(seed: u64, n: usize) -> Vec<u64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        })
        .collect()
}

/// A 2048-lane engine with 32-lane Control Blocks (so `cb_mask` resolves
/// short segments) over a 1 MiB memory of deterministic bytes.
fn engine(seed: u64) -> Engine {
    let geom = EngineGeometry {
        arrays: 64,
        bitlines_per_array: 32,
        wordlines: 256,
        arrays_per_cb: 1,
    };
    let mut e = Engine::new(geom, Memory::with_capacity(MEM_BYTES));
    let fill = e.mem_alloc(MEM_BYTES - 64);
    let bytes: Vec<u8> = xorshift(seed, (MEM_BYTES / 8) as usize)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    e.mem_mut()
        .slice_mut(fill, MEM_BYTES - 64)
        .copy_from_slice(&bytes[..(MEM_BYTES - 64) as usize]);
    e.vsetwidth(64);
    e
}

/// A stride drawn from {0, ±1, ±k}.
fn stride(kind: u64, k: i64) -> i64 {
    match kind % 5 {
        0 => 0,
        1 => 1,
        2 => -1,
        3 => k,
        _ => -k,
    }
}

/// One generated memory op, parameterised from a raw draw.
#[derive(Debug, Clone, Copy)]
enum Op {
    Load1d {
        dtype: DType,
        off: u64,
        stride: i64,
    },
    Store1d {
        off: u64,
        stride: i64,
    },
    Seg2d {
        dtype: DType,
        off: u64,
        cols: usize,
        rows: usize,
        row_stride: i64,
    },
    SegStrided {
        dtype: DType,
        off: u64,
        cols: usize,
        col_stride: i64,
        rows: usize,
        row_stride: i64,
    },
    SegStore {
        off: u64,
        cols: usize,
        rows: usize,
        row_stride: i64,
    },
    Replicated {
        dtype: DType,
        off: u64,
        unique: usize,
        rep: usize,
    },
}

fn op_from(draw: &[u64], vl: usize) -> Op {
    let dtype = DType::ALL[(draw[1] % 10) as usize];
    let off = draw[2] % 4096;
    let k = 2 + (draw[3] % 40) as i64;
    let cols = 1 + (draw[4] as usize % 32).min(vl - 1);
    let rows = 1 + draw[5] as usize % (vl / cols).clamp(1, 16);
    let row_stride = stride(draw[6], 16 + k);
    match draw[0] % 6 {
        0 => Op::Load1d {
            dtype,
            off,
            stride: stride(draw[7], k),
        },
        1 => Op::Store1d {
            off,
            stride: stride(draw[7], k),
        },
        2 => Op::Seg2d {
            dtype,
            off,
            cols,
            rows,
            row_stride,
        },
        3 => Op::SegStrided {
            dtype,
            off,
            cols,
            col_stride: stride(draw[7], k),
            rows,
            row_stride,
        },
        4 => Op::SegStore {
            off,
            cols,
            rows,
            row_stride,
        },
        _ => Op::Replicated {
            dtype,
            off,
            unique: cols,
            rep: 1 + draw[8] as usize % (vl / cols).clamp(1, 8),
        },
    }
}

/// Register operand of a store: `vl` deterministic lanes written without
/// emitting events.
fn store_source(e: &mut Engine, vl: usize, seed: u64) -> Reg {
    let dtype = DType::ALL[(seed % 10) as usize];
    let r = e.alloc(dtype);
    for (l, v) in xorshift(seed, vl).into_iter().enumerate() {
        e.set_lane_raw(r, l, v);
    }
    r
}

/// Runs `op` through the `Rvv` layer. Returns the register it loaded.
fn run_rvv(e: &mut Engine, vl: usize, op: Op, seed: u64) -> Option<Reg> {
    let src = store_source(e, vl, seed);
    let mut rvv = Rvv::new(e);
    rvv.setvl(vl);
    let got = match op {
        Op::Load1d { dtype, off, stride } => Some(rvv.load_1d(dtype, MID + off, stride)),
        Op::Store1d { off, stride } => {
            rvv.store_1d(src, MID + off, stride);
            None
        }
        Op::Seg2d {
            dtype,
            off,
            cols,
            rows,
            row_stride,
        } => Some(rvv.segmented_load_2d(dtype, MID + off, cols, rows, row_stride)),
        Op::SegStrided {
            dtype,
            off,
            cols,
            col_stride,
            rows,
            row_stride,
        } => Some(rvv.segmented_load_2d_strided(
            dtype,
            MID + off,
            cols,
            col_stride,
            rows,
            row_stride,
        )),
        Op::SegStore {
            off,
            cols,
            rows,
            row_stride,
        } => {
            rvv.segmented_store_2d(src, MID + off, cols, rows, row_stride);
            None
        }
        Op::Replicated {
            dtype,
            off,
            unique,
            rep,
        } => Some(rvv.replicated_load(dtype, MID + off, unique, rep)),
    };
    e.free(src);
    got
}

/// Runs `op` through the per-lane oracle on an identically configured
/// engine.
fn run_oracle(e: &mut Engine, vl: usize, op: Op, seed: u64) -> Option<Reg> {
    let src = store_source(e, vl, seed);
    // Same CR configuration (and Config events) as the layer.
    Rvv::new(e).setvl(vl);
    let mut o = Oracle { e, vl };
    let got = match op {
        Op::Load1d { dtype, off, stride } => Some(o.load_1d(dtype, MID + off, stride)),
        Op::Store1d { off, stride } => {
            o.store_1d(src, MID + off, stride);
            None
        }
        Op::Seg2d {
            dtype,
            off,
            cols,
            rows,
            row_stride,
        } => Some(o.segmented_load_2d(dtype, MID + off, cols, rows, row_stride)),
        Op::SegStrided {
            dtype,
            off,
            cols,
            col_stride,
            rows,
            row_stride,
        } => {
            Some(o.segmented_load_2d_strided(dtype, MID + off, cols, col_stride, rows, row_stride))
        }
        Op::SegStore {
            off,
            cols,
            rows,
            row_stride,
        } => {
            o.segmented_store_2d(src, MID + off, cols, rows, row_stride);
            None
        }
        Op::Replicated {
            dtype,
            off,
            unique,
            rep,
        } => Some(o.replicated_load(dtype, MID + off, unique, rep)),
    };
    e.free(src);
    got
}

fn events(e: &Engine) -> Vec<String> {
    // `Event` has no `PartialEq`; its derived `Debug` prints every field.
    e.trace()
        .events()
        .iter()
        .map(|ev| format!("{ev:?}"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A short program of generated memory ops — loads after stores, so
    /// written bytes are read back — leaves both engines identical.
    #[test]
    fn rvv_memory_ops_match_their_per_lane_bodies(
        vl in 1usize..700,
        draws in proptest::collection::vec(any::<u64>(), 36),
        seed: u64,
    ) {
        let mut e = engine(seed);
        let mut r = engine(seed);
        for (i, draw) in draws.chunks(9).enumerate() {
            let op = op_from(draw, vl);
            let step_seed = seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9);
            let got = run_rvv(&mut e, vl, op, step_seed);
            let want = run_oracle(&mut r, vl, op, step_seed);
            if let (Some(g), Some(w)) = (got, want) {
                prop_assert_eq!(e.reg_lanes(g), r.reg_lanes(w), "{:?}", op);
                e.free(g);
                r.free(w);
            }
            let span = MEM_BYTES - 64;
            prop_assert!(e.mem().slice(64, span) == r.mem().slice(64, span), "memory: {:?}", op);
            prop_assert_eq!(events(&e), events(&r), "{:?}", op);
        }
    }
}
