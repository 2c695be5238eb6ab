//! Property suite pinning the engine's single row-based memory path
//! against the lane-by-lane semantics of Algorithm 1 and Equation 1.
//!
//! `load`/`store`/`rload`/`rstore` split every access into rows of the
//! innermost (merged) dimension — block copies, broadcasts and strided
//! gathers/scatters, masked through the enabled-lane spans. Here each one
//! is replayed against a per-lane reference built from
//! `addrgen::strided_addresses` / `random_addresses`: register lanes,
//! memory bytes and the emitted `Event::Memory` must agree exactly, over
//! 1–4-D shapes, every stride-mode combination (negative CR strides
//! included), every dtype, adversarial dimension masks, and random Tag
//! patterns with predication on and off. Overlapping stride-0 stores must
//! keep the last active lane's value, and faulting accesses must panic
//! with the message the per-lane walk produces.

use std::panic::{catch_unwind, AssertUnwindSafe};

use mve_core::addrgen::{self, StrideBank};
use mve_core::config::MAX_DIMS;
use mve_core::dtype::{CmpOp, DType};
use mve_core::engine::{Engine, Reg};
use mve_core::isa::{Opcode, StrideMode};
use mve_core::mem::Memory;
use mve_core::trace::Event;
use mve_insram::scheme::EngineGeometry;
use proptest::collection::vec;
use proptest::prelude::*;

/// Functional memory of the test engines; accesses are based mid-way so
/// negative strides stay in bounds.
const MEM_BYTES: u64 = 1 << 18;
const MID: u64 = MEM_BYTES / 2;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Load,
    Store,
    RLoad,
    RStore,
}

/// One generated access.
#[derive(Debug, Clone)]
struct Case {
    op: Op,
    dtype: DType,
    lens: Vec<usize>,
    modes: Vec<StrideMode>,
    crs_strides: Vec<i64>,
    masked_off: Vec<usize>,
    /// Tag pattern per lane, seeded under a full mask.
    tag: Vec<bool>,
    /// Whether stores honour the Tag latch.
    pred: bool,
    /// Control-Block width in lanes (the geometry's bit-lines per array).
    per_cb: usize,
    seed: u64,
}

fn mode_of(i: usize) -> StrideMode {
    [
        StrideMode::Zero,
        StrideMode::One,
        StrideMode::Seq,
        StrideMode::Cr,
    ][i % 4]
}

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

/// An engine of 64 one-array Control Blocks of `per_cb` lanes (so
/// `cb_mask` resolves small shapes), a 256 KiB memory filled with a
/// deterministic byte pattern, the case's shape, Tag pattern and masks.
fn engine_for(c: &Case) -> Engine {
    let geom = EngineGeometry {
        arrays: 64,
        bitlines_per_array: c.per_cb,
        wordlines: 256,
        arrays_per_cb: 1,
    };
    let mut e = Engine::new(geom, Memory::with_capacity(MEM_BYTES));
    let fill = e.mem_alloc(MEM_BYTES - 64);
    let bytes: Vec<u8> = xorshift(c.seed, (MEM_BYTES / 8) as usize)
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    e.mem_mut()
        .slice_mut(fill, MEM_BYTES - 64)
        .copy_from_slice(&bytes[..(MEM_BYTES - 64) as usize]);
    e.vsetwidth(64);
    e.vsetdimc(c.lens.len());
    for (d, &len) in c.lens.iter().enumerate() {
        e.vsetdiml(d, len);
        e.vsetldstr(d, c.crs_strides[d]);
        e.vsetststr(d, -c.crs_strides[(d + 1) % MAX_DIMS]);
    }
    // The Tag is seeded under a full mask, so masked-off lanes may carry a
    // set Tag: they must still be skipped.
    let raw: Vec<u64> = c.tag.iter().map(|&b| u64::from(b)).collect();
    let t = reg_with(&mut e, DType::U8, &raw);
    let z = e.setdup(DType::U8, 0);
    e.compare(CmpOp::Gt, t, z);
    e.free(t);
    e.free(z);
    for &m in &c.masked_off {
        e.vunsetmask(m);
    }
    e.set_predication(c.pred);
    e.clear_trace();
    e
}

fn reg_with(e: &mut Engine, dtype: DType, vals: &[u64]) -> Reg {
    let r = e.setdup(dtype, 0);
    for (l, &v) in vals.iter().enumerate() {
        e.set_lane_raw(r, l, v);
    }
    r
}

/// Row pointers of a random access: scattered around the middle of
/// memory, deliberately overlapping, written into an 8-byte-aligned array.
fn write_row_pointers(e: &mut Engine, c: &Case) -> (u64, Vec<u64>) {
    let nbases = c.lens[c.lens.len() - 1];
    let ptrs = 64 + 8 * (c.seed % 512);
    let bases: Vec<u64> = xorshift(c.seed ^ 0xB45E, nbases)
        .iter()
        .map(|&v| MID - 2048 + v % 4096)
        .collect();
    e.mem_fill(ptrs, &bases);
    (ptrs, bases)
}

/// The per-lane address of every lane (`None` = masked off).
fn reference_addresses(e: &Engine, c: &Case, bases: &[u64]) -> Vec<Option<u64>> {
    let shape = e.crs().shape();
    let bank = match c.op {
        Op::Load | Op::RLoad => StrideBank::Load,
        Op::Store | Op::RStore => StrideBank::Store,
    };
    let strides = addrgen::resolve_strides(&c.modes, &shape, e.crs(), bank);
    let eb = c.dtype.bytes();
    match c.op {
        Op::Load | Op::Store => {
            addrgen::strided_addresses(bases[0], eb, &strides, &shape, e.crs(), e.lanes())
        }
        Op::RLoad | Op::RStore => {
            addrgen::random_addresses(bases, eb, &strides, &shape, e.crs(), e.lanes())
        }
    }
}

fn cb_mask_of(lanes: impl Iterator<Item = usize>, per_cb: usize) -> u64 {
    lanes.fold(0, |m, l| m | 1 << (l / per_cb))
}

/// Runs the case on the engine and on the per-lane reference, and
/// compares registers, memory and the Memory event.
fn check(c: &Case) -> Result<(), TestCaseError> {
    let mut e = engine_for(c);
    let mut r = engine_for(c);
    let eb = c.dtype.bytes();
    let base = MID + (c.seed % 64) * eb;
    let (ptrs, bases) = match c.op {
        Op::RLoad | Op::RStore => {
            write_row_pointers(&mut r, c);
            write_row_pointers(&mut e, c)
        }
        Op::Load | Op::Store => (0, vec![base]),
    };
    let addrs = reference_addresses(&r, c, &bases);
    let tag = r.tag_lanes();
    let vals: Vec<u64> = xorshift(c.seed ^ 0x5EED, e.lanes())
        .iter()
        .map(|&v| c.dtype.truncate(v))
        .collect();
    let (opcode, write) = match c.op {
        Op::Load => (Opcode::StridedLoad, false),
        Op::RLoad => (Opcode::RandomLoad, false),
        Op::Store => (Opcode::StridedStore, true),
        Op::RStore => (Opcode::RandomStore, true),
    };
    // The lanes the reference accesses, in ascending order.
    let enabled: Vec<(usize, u64)> = addrs
        .iter()
        .enumerate()
        .filter_map(|(l, a)| a.map(|a| (l, a)))
        .filter(|&(l, _)| !write || !c.pred || tag[l])
        .collect();
    let mut want_lines = addrgen::touched_lines(
        &enabled.iter().map(|&(_, a)| Some(a)).collect::<Vec<_>>(),
        eb,
    );
    if c.op == Op::RLoad {
        let n = bases.len() as u64;
        want_lines.extend(ptrs / 64..=(ptrs + n * 8 - 1) / 64);
        addrgen::finish_lines(&mut want_lines);
    }
    let want_event = Event::Memory {
        opcode,
        dtype: c.dtype,
        active_lanes: enabled.len() as u32,
        cb_mask: cb_mask_of(enabled.iter().map(|&(l, _)| l), c.per_cb),
        lines: want_lines,
        write,
    };

    if write {
        let src = reg_with(&mut e, c.dtype, &vals);
        e.clear_trace();
        match c.op {
            Op::Store => e.store(src, base, &c.modes),
            _ => e.rstore(src, ptrs, &c.modes),
        }
        prop_assert_eq!(e.reg_lanes(src), &vals[..]);
        for &(l, a) in &enabled {
            r.mem_mut().write_raw(a, eb, vals[l]);
        }
    } else {
        let dst = match c.op {
            Op::Load => e.load(c.dtype, base, &c.modes),
            _ => e.rload(c.dtype, ptrs, &c.modes),
        };
        let mut want = vec![0u64; e.lanes()];
        for &(l, a) in &enabled {
            want[l] = c.dtype.truncate(r.mem().read_raw(a, eb));
        }
        prop_assert_eq!(e.reg_lanes(dst), want);
    }
    let span = MEM_BYTES - 64;
    prop_assert!(
        e.mem().slice(64, span) == r.mem().slice(64, span),
        "memory differs"
    );
    // `Event` has no `PartialEq`; its derived `Debug` prints every field.
    let events = e.trace().events();
    prop_assert_eq!(events.len(), 1);
    prop_assert_eq!(format!("{:?}", events[0]), format!("{want_event:?}"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Short shapes of every rank under every mode, mask and Tag mix.
    #[test]
    fn row_path_matches_per_lane_reference(
        op in 0usize..4,
        dtype in 0usize..10,
        count in 1usize..5,
        lens in vec(1usize..7, 4),
        modes in vec(0usize..4, 4),
        crs_strides in vec(-9i64..10, 4),
        mask_kind in 0usize..5,
        masked in vec(0usize..8, 0..5),
        tag_kind in 0usize..4,
        pred: bool,
        per_cb_kind in 0usize..3,
        seed: u64,
    ) {
        let lens = lens[..count].to_vec();
        let dlen = lens[count - 1];
        // Adversarial dimension masks: none, all, alternating, all but the
        // last element, or a random set.
        let masked_off: Vec<usize> = match mask_kind {
            0 => Vec::new(),
            1 => (0..dlen).collect(),
            2 => (0..dlen).step_by(2).collect(),
            3 => (0..dlen.saturating_sub(1)).collect(),
            _ => masked,
        };
        let total: usize = lens.iter().product();
        let bits = xorshift(seed ^ 0x7A6, total);
        let tag: Vec<bool> = (0..total)
            .map(|l| match tag_kind {
                0 => true,
                1 => false,
                2 => l % 64 != 0 && l % 7 != 3,
                _ => bits[l] & 1 == 1,
            })
            .collect();
        let case = Case {
            op: [Op::Load, Op::Store, Op::RLoad, Op::RStore][op],
            dtype: DType::ALL[dtype],
            lens,
            modes: modes[..count].iter().map(|&m| mode_of(m)).collect(),
            crs_strides,
            masked_off,
            tag,
            pred,
            per_cb: [32, 24, 64][per_cb_kind],
            seed,
        };
        check(&case)?;
    }

    /// Long rows: block copies and broadcasts of hundreds of lanes, under
    /// straggler-heavy Tag patterns.
    #[test]
    fn long_rows_match_per_lane_reference(
        op in 0usize..4,
        dtype in 0usize..10,
        inner in 100usize..700,
        outer in 1usize..3,
        modes in vec(0usize..4, 2),
        crs_stride in -3i64..4,
        pred: bool,
        seed: u64,
    ) {
        let total = inner * outer;
        let bits = xorshift(seed, total);
        let case = Case {
            op: [Op::Load, Op::Store, Op::RLoad, Op::RStore][op],
            dtype: DType::ALL[dtype],
            lens: vec![inner, outer],
            modes: modes.iter().map(|&m| mode_of(m)).collect(),
            crs_strides: vec![crs_stride, crs_stride, 1, 1],
            masked_off: Vec::new(),
            tag: (0..total).map(|l| !bits[l].is_multiple_of(5)).collect(),
            pred,
            per_cb: 32,
            seed,
        };
        check(&case)?;
    }
}

fn case(op: Op, lens: &[usize], modes: &[StrideMode], crs: &[i64]) -> Case {
    let total = lens.iter().product();
    Case {
        op,
        dtype: DType::I32,
        lens: lens.to_vec(),
        modes: modes.to_vec(),
        crs_strides: crs
            .iter()
            .copied()
            .chain([1; MAX_DIMS])
            .take(MAX_DIMS)
            .collect(),
        masked_off: Vec::new(),
        tag: vec![true; total],
        pred: false,
        per_cb: 128,
        seed: 7,
    }
}

#[test]
fn overlapping_stride0_stores_keep_the_last_active_lane() {
    use StrideMode::{One, Zero};
    // Every lane of a [5, 3] store hits one element per row ([Zero, One]),
    // or the same element outright ([Zero, Zero]); under predication only
    // Tag-set lanes count, so the last *active* lane must win.
    for modes in [[Zero, One], [Zero, Zero], [One, Zero]] {
        for pred in [false, true] {
            let mut c = case(Op::Store, &[5, 3], &modes, &[]);
            c.pred = pred;
            c.tag = (0..15).map(|l| l % 5 != 4 && l != 13).collect();
            check(&c).unwrap();
        }
    }
    let mut e = engine_for(&case(Op::Store, &[4], &[Zero], &[]));
    let src = reg_with(&mut e, DType::I32, &[10, 20, 30, 40]);
    e.store(src, MID, &[Zero]);
    assert_eq!(e.mem().read::<i32>(MID, 0), 40);
}

#[test]
fn dimension_merging_covers_the_paper_patterns() {
    use StrideMode::{Cr, One, Seq, Zero};
    // Figure 3 intra prediction, column/row replication, CR-strided rows,
    // a backwards walk and an Equation-1 upsample.
    let cases = [
        case(Op::Load, &[3, 2, 3], &[One, Zero, Cr], &[1, 0, 3]),
        case(Op::Load, &[128, 64], &[Zero, Cr], &[0, 1]),
        case(Op::Load, &[128, 64], &[One, Zero], &[]),
        case(Op::Store, &[128, 64], &[One, Cr], &[0, 0]),
        case(Op::Load, &[16, 8, 4], &[One, Seq, Seq], &[]),
        case(Op::Load, &[16, 8], &[Cr, Cr], &[-1, -16]),
        case(Op::RLoad, &[2, 2, 2, 3], &[Zero, One, Zero], &[]),
        case(Op::RStore, &[64, 4], &[One], &[]),
    ];
    for c in &cases {
        check(c).unwrap_or_else(|err| panic!("{c:?}: {err:?}"));
    }
}

/// The panic message of `f`, or `None` if it returns.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let err = catch_unwind(AssertUnwindSafe(f)).err()?;
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
}

#[test]
fn faulting_accesses_panic_like_the_per_lane_walk() {
    use StrideMode::{Cr, One, Zero};
    let eb = 4u64;
    // (modes, load stride CR, base): block rows running off either end of
    // memory or into the zero page, a broadcast from the zero page, and
    // strided rows that fault part-way through.
    let cases: [(&[StrideMode], i64, u64); 6] = [
        (&[One], 0, MEM_BYTES - 40 * eb),
        (&[One], 0, 16),
        (&[Zero], 0, 8),
        (&[Cr], 3, MEM_BYTES - 100),
        (&[Cr], -5, 64 + 30 * eb),
        (&[Cr], -1, 60),
    ];
    for (modes, stride, base) in cases {
        for write in [false, true] {
            let mut c = case(Op::Load, &[64], modes, &[stride]);
            c.crs_strides = vec![stride; MAX_DIMS];
            let mut e = engine_for(&c);
            e.vsetststr(0, stride);
            let bank = if write {
                StrideBank::Store
            } else {
                StrideBank::Load
            };
            let shape = e.crs().shape();
            let strides = addrgen::resolve_strides(modes, &shape, e.crs(), bank);
            let addrs = addrgen::strided_addresses(base, eb, &strides, &shape, e.crs(), e.lanes());
            let mut mem = Memory::with_capacity(MEM_BYTES);
            let want = panic_message(|| {
                for a in addrs.iter().flatten() {
                    if write {
                        mem.write_raw(*a, eb, 0);
                    } else {
                        mem.read_raw(*a, eb);
                    }
                }
            });
            let got = if write {
                let src = e.setdup(DType::I32, 1);
                panic_message(|| e.store(src, base, modes))
            } else {
                panic_message(|| {
                    e.load(DType::I32, base, modes);
                })
            };
            assert!(want.is_some(), "case {modes:?} {base:#x} must fault");
            assert_eq!(
                got, want,
                "{modes:?} stride {stride} base {base:#x} write {write}"
            );
        }
    }
}

/// A register freed at one lane width, then one allocated at another:
/// every lane a zeroing allocation must clear reads zero, whichever width
/// dirtied the freed one, and a load fills exactly its own shape.
#[test]
fn registers_allocated_after_a_freed_one_of_another_width_read_zero() {
    let widths = [DType::U8, DType::I16, DType::F32, DType::I64];
    for first in widths {
        for second in widths {
            let mut e = Engine::new(EngineGeometry::default(), Memory::with_capacity(MEM_BYTES));
            let lanes = e.lanes();
            e.vsetwidth(64);
            e.vsetdimc(1);
            e.vsetdiml(0, lanes);
            // Dirty every lane of a slot at the first width, plus a raw
            // write at the top lane, then free it.
            let dirty = e.setdup(first, u64::MAX);
            e.set_lane_raw(dirty, lanes - 1, 1);
            e.free(dirty);
            let fresh = e.alloc(second);
            assert!(
                e.reg_lanes(fresh).iter().all(|&v| v == 0),
                "{first:?} then {second:?}: stale lanes"
            );
            e.free(fresh);
            // A partial-shape load into the recycled slot: lanes past the
            // shape stay zero.
            let a = e.mem_alloc(100 * second.bytes());
            let bytes: Vec<u8> = (0..100 * second.bytes()).map(|b| b as u8 | 1).collect();
            e.mem_mut()
                .slice_mut(a, 100 * second.bytes())
                .copy_from_slice(&bytes);
            e.vsetdiml(0, 100);
            let v = e.load(second, a, &[StrideMode::One]);
            let got = e.reg_lanes(v);
            for (l, &g) in got.iter().enumerate() {
                let want = if l < 100 {
                    second.truncate(
                        e.mem()
                            .read_raw(a + l as u64 * second.bytes(), second.bytes()),
                    )
                } else {
                    0
                };
                assert_eq!(g, want, "{first:?} then {second:?}: lane {l}");
            }
            // The store writes back exactly the loaded bytes.
            let out = e.mem_alloc(100 * second.bytes());
            e.store(v, out, &[StrideMode::One]);
            assert_eq!(
                e.mem().slice(out, 100 * second.bytes()),
                &bytes[..],
                "{first:?} then {second:?}"
            );
        }
    }
}
