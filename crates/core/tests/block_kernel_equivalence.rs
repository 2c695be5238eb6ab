//! Property suite pinning the ISSUE-6 word-block compute kernels against
//! the per-lane scalar reference they monomorphize.
//!
//! The engine's compute inner loops now run over bitset-masked spans
//! (`dtype.rs` block kernels driven by `enabled_spans`): full mask words
//! execute as contiguous block loops, partial words fall back to per-bit
//! scanning. These tests prove that equivalent to calling the scalar
//! `DType::binop`/`cmp`/shift/convert reference lane by lane — over every
//! dtype, every opcode, and adversarial mask shapes (all-set, all-clear,
//! single-straggler, random), with and without Tag predication — and pin
//! one trace-level property: a fully-masked compute sequence emits the
//! same instruction mix as an active one (with `active_lanes == 0`).

use mve_core::dtype::{BinOp, CmpOp, DType};
use mve_core::engine::{Engine, Reg};
use mve_core::isa::Opcode;
use mve_core::trace::Event;
use proptest::collection::vec;
use proptest::prelude::*;

/// Lanes per test register: spans two mask words with a partial tail, so
/// block runs, word boundaries and straggler bits are all exercised.
const N: usize = 67;

const ALL_BINOPS: [BinOp; 8] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Min,
    BinOp::Max,
    BinOp::Xor,
    BinOp::And,
    BinOp::Or,
];

const ALL_CMPS: [CmpOp; 6] = [
    CmpOp::Gt,
    CmpOp::Gte,
    CmpOp::Lt,
    CmpOp::Lte,
    CmpOp::Eq,
    CmpOp::Neq,
];

fn binop_opcode(op: BinOp) -> Opcode {
    match op {
        BinOp::Add => Opcode::Add,
        BinOp::Sub => Opcode::Sub,
        BinOp::Mul => Opcode::Mul,
        BinOp::Min => Opcode::Min,
        BinOp::Max => Opcode::Max,
        BinOp::Xor => Opcode::Xor,
        BinOp::And => Opcode::And,
        BinOp::Or => Opcode::Or,
    }
}

/// Deterministic raw lane values (xorshift), canonicalised per dtype.
fn lane_values(dtype: DType, seed: u64, n: usize) -> Vec<u64> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            dtype.truncate(s)
        })
        .collect()
}

/// Engine with shape `[1, n]`: every lane is its own highest-dimension
/// element, so the CR dimension mask reaches single-lane granularity.
fn lane_shaped_engine(n: usize) -> Engine {
    let mut e = Engine::default_mobile();
    e.vsetwidth(64);
    e.vsetdimc(2);
    e.vsetdiml(0, 1);
    e.vsetdiml(1, n);
    e
}

/// Fills a fresh register with the given canonical lane values.
fn reg_with(e: &mut Engine, dtype: DType, vals: &[u64]) -> Reg {
    let r = e.setdup(dtype, 0);
    for (l, &v) in vals.iter().enumerate() {
        e.set_lane_raw(r, l, v);
    }
    r
}

/// Seeds the Tag latches with `pat` (nonzero → set) under a full mask.
fn seed_tag(e: &mut Engine, pat: &[bool]) {
    let raw: Vec<u64> = pat.iter().map(|&b| u64::from(b)).collect();
    let t = reg_with(e, DType::U8, &raw);
    let z = e.setdup(DType::U8, 0);
    e.compare(CmpOp::Gt, t, z);
    e.free(t);
    e.free(z);
}

/// The adversarial mask set: all-set, all-clear, single straggler at a
/// word boundary, and the caller's random pattern.
fn mask_cases(n: usize, random: &[usize]) -> Vec<Vec<usize>> {
    vec![
        Vec::new(),
        (0..n).collect(),
        (0..n).filter(|&l| l != 64).collect(),
        random.to_vec(),
    ]
}

#[allow(clippy::too_many_arguments)]
fn check_binop(
    dtype: DType,
    op: BinOp,
    masked_off: &[usize],
    pred: Option<&[bool]>,
    av: &[u64],
    bv: &[u64],
) {
    let mut e = lane_shaped_engine(N);
    if let Some(pat) = pred {
        seed_tag(&mut e, pat);
        e.set_predication(true);
    }
    for &m in masked_off {
        e.vunsetmask(m);
    }
    let a = reg_with(&mut e, dtype, av);
    let b = reg_with(&mut e, dtype, bv);
    let r = e.binop(binop_opcode(op), op, a, b);
    let got = e.reg_lanes(r);
    for l in 0..N {
        let enabled = !masked_off.contains(&l) && pred.is_none_or(|pat| pat[l]);
        // Disabled destination lanes read as zero: the engine zeroes the
        // allocation whenever any lane can be skipped.
        let want = if enabled {
            dtype.binop(op, av[l], bv[l])
        } else {
            0
        };
        assert_eq!(
            got[l],
            want,
            "{dtype:?} {op:?} lane {l} (pred {})",
            pred.is_some()
        );
    }
}

/// Compares `av` with `bv` over `av.len()` lanes.
fn check_cmp(dtype: DType, op: CmpOp, masked_off: &[usize], tag0: &[bool], av: &[u64], bv: &[u64]) {
    let n = av.len();
    let mut e = lane_shaped_engine(n);
    seed_tag(&mut e, tag0);
    for &m in masked_off {
        e.vunsetmask(m);
    }
    let a = reg_with(&mut e, dtype, av);
    let b = reg_with(&mut e, dtype, bv);
    e.compare(op, a, b);
    let tags = e.tag_lanes();
    for l in 0..n {
        let enabled = !masked_off.contains(&l);
        // Masked-off lanes keep their previous Tag bit.
        let want = if enabled {
            dtype.cmp(op, av[l], bv[l])
        } else {
            tag0[l]
        };
        assert_eq!(tags[l], want, "{dtype:?} {op:?} lane {l}");
    }
}

/// Every dtype × binop opcode × adversarial mask, unpredicated.
#[test]
fn binop_blocks_match_scalar_reference() {
    let random_mask: Vec<usize> = (0..N).filter(|l| l % 3 == 1 || l % 7 == 0).collect();
    for (di, &dtype) in DType::ALL.iter().enumerate() {
        let av = lane_values(dtype, 0x9E37 + di as u64, N);
        let bv = lane_values(dtype, 0x79B9 + di as u64, N);
        for &op in &ALL_BINOPS {
            for masked_off in mask_cases(N, &random_mask) {
                check_binop(dtype, op, &masked_off, None, &av, &bv);
            }
        }
    }
}

/// Every dtype × binop opcode under Tag predication (mask ∧ tag).
#[test]
fn predicated_binop_blocks_match_scalar_reference() {
    let random_mask: Vec<usize> = (0..N).filter(|l| l % 5 == 2).collect();
    let tag: Vec<bool> = (0..N).map(|l| l % 2 == 0 || l == 64).collect();
    for (di, &dtype) in DType::ALL.iter().enumerate() {
        let av = lane_values(dtype, 0x1234 + di as u64, N);
        let bv = lane_values(dtype, 0x5678 + di as u64, N);
        for &op in &ALL_BINOPS {
            for masked_off in mask_cases(N, &random_mask) {
                check_binop(dtype, op, &masked_off, Some(&tag), &av, &bv);
            }
        }
    }
}

/// Every dtype × comparison opcode × adversarial mask, checking that
/// masked-off lanes preserve their previous Tag bits. Besides `N`, lane
/// counts whose last mask word ends inside an eight-lane group (13) and
/// past a whole one (100), since Tag words are packed eight lanes at a time.
#[test]
fn compare_blocks_match_scalar_reference() {
    for n in [N, 13, 100] {
        let random_mask: Vec<usize> = (0..n).filter(|l| l % 4 == 3).collect();
        let tag0: Vec<bool> = (0..n).map(|l| l % 3 == 0).collect();
        for (di, &dtype) in DType::ALL.iter().enumerate() {
            let av = lane_values(dtype, 0xABCD + di as u64, n);
            let bv = lane_values(dtype, 0xEF01 + di as u64, n);
            for &op in &ALL_CMPS {
                for masked_off in mask_cases(n, &random_mask) {
                    check_cmp(dtype, op, &masked_off, &tag0, &av, &bv);
                }
            }
        }
    }
}

/// Shifts (immediate and per-lane register amounts) and conversions over
/// every dtype (and every dtype pair for `vcvt`) under a partial mask.
#[test]
fn shift_and_convert_blocks_match_scalar_reference() {
    let masked_off: Vec<usize> = (0..N).filter(|l| l % 6 == 4).collect();
    for (di, &dtype) in DType::ALL.iter().enumerate() {
        let av = lane_values(dtype, 0x7777 + di as u64, N);
        let amounts = lane_values(DType::U8, 0x8888 + di as u64, N);
        // Shifts and rotates are integer-only instructions.
        for (left, rotate) in (!dtype.is_float())
            .then_some([(true, false), (false, false), (true, true), (false, true)])
            .into_iter()
            .flatten()
        {
            let mut e = lane_shaped_engine(N);
            for &m in &masked_off {
                e.vunsetmask(m);
            }
            let a = reg_with(&mut e, dtype, &av);
            let r = e.shift_imm(a, 3, left, rotate);
            for l in 0..N {
                let scalar = match (left, rotate) {
                    (true, false) => dtype.shl(av[l], 3),
                    (false, false) => dtype.shr(av[l], 3),
                    (true, true) => dtype.rotl(av[l], 3),
                    (false, true) => dtype.rotr(av[l], 3),
                };
                let want = if masked_off.contains(&l) { 0 } else { scalar };
                assert_eq!(e.reg_lanes(r)[l], want, "{dtype:?} shift lane {l}");
            }
        }
        for left in (!dtype.is_float())
            .then_some([true, false])
            .into_iter()
            .flatten()
        {
            let mut e = lane_shaped_engine(N);
            for &m in &masked_off {
                e.vunsetmask(m);
            }
            let a = reg_with(&mut e, dtype, &av);
            let s = reg_with(&mut e, DType::U8, &amounts);
            let r = e.shift_reg(a, s, left);
            for l in 0..N {
                let sh = (amounts[l] & 0xFF) as u32;
                let scalar = if left {
                    dtype.shl(av[l], sh)
                } else {
                    dtype.shr(av[l], sh)
                };
                let want = if masked_off.contains(&l) { 0 } else { scalar };
                assert_eq!(e.reg_lanes(r)[l], want, "{dtype:?} vshift lane {l}");
            }
        }
        for &to in &DType::ALL {
            let mut e = lane_shaped_engine(N);
            for &m in &masked_off {
                e.vunsetmask(m);
            }
            let a = reg_with(&mut e, dtype, &av);
            let r = e.convert(a, to);
            for l in 0..N {
                let want = if masked_off.contains(&l) {
                    0
                } else {
                    dtype.convert_to(to, av[l])
                };
                assert_eq!(e.reg_lanes(r)[l], want, "{dtype:?}→{to:?} lane {l}");
            }
        }
    }
}

proptest! {
    /// Random dtype, opcode, values and mask/predication patterns.
    #[test]
    fn prop_binop_blocks_match_reference(
        di in 0usize..10,
        oi in 0usize..8,
        seed in any::<u64>(),
        masked_off in vec(0usize..N, 0..N),
        use_pred in any::<bool>(),
        tag_seed in any::<u64>(),
    ) {
        let dtype = DType::ALL[di];
        let op = ALL_BINOPS[oi];
        let av = lane_values(dtype, seed, N);
        let bv = lane_values(dtype, seed.wrapping_mul(3), N);
        let tag: Vec<bool> = (0..N).map(|l| (tag_seed >> (l % 64)) & 1 == 1).collect();
        let pred = if use_pred { Some(tag.as_slice()) } else { None };
        check_binop(dtype, op, &masked_off, pred, &av, &bv);
    }

    /// Random comparison against the per-lane reference.
    #[test]
    fn prop_compare_blocks_match_reference(
        di in 0usize..10,
        oi in 0usize..6,
        seed in any::<u64>(),
        masked_off in vec(0usize..N, 0..N),
        tag_seed in any::<u64>(),
    ) {
        let dtype = DType::ALL[di];
        let op = ALL_CMPS[oi];
        let av = lane_values(dtype, seed, N);
        let bv = lane_values(dtype, seed.wrapping_mul(5), N);
        let tag0: Vec<bool> = (0..N).map(|l| (tag_seed >> (l % 64)) & 1 == 1).collect();
        check_cmp(dtype, op, &masked_off, &tag0, &av, &bv);
    }
}

/// ISSUE-6 satellite: a fully-masked (`active_lanes == 0`) compute
/// sequence must skip all lane work yet emit exactly the instruction mix
/// of the active sequence — the controller still issues the instructions;
/// only the arrays sit idle. Pins both the mix and the per-event
/// `active_lanes`/`cb_mask` zeros at the trace level.
#[test]
fn fully_masked_compute_pins_instruction_mix() {
    let run = |mask_all: bool| -> (mve_core::trace::InstrMix, Vec<Event>) {
        let mut e = Engine::default_mobile();
        e.vsetwidth(64);
        e.vsetdimc(2);
        e.vsetdiml(0, 64);
        e.vsetdiml(1, 4);
        let a = e.setdup(DType::I32, 5);
        let b = e.setdup(DType::I32, 7);
        if mask_all {
            for m in 0..4 {
                e.vunsetmask(m);
            }
        }
        // Clear after masking: the mask-config events are setup, and the
        // instruction mix under comparison is the compute stream alone.
        e.clear_trace();
        // The 64-bit register file holds 4 registers; free each result
        // immediately (frees are bookkeeping only, not trace events).
        let r = e.binop(Opcode::Add, BinOp::Add, a, b);
        e.free(r);
        e.compare(CmpOp::Gt, a, b);
        let c = e.convert(a, DType::I64);
        e.free(c);
        let s = e.shift_imm(a, 2, true, false);
        e.free(s);
        let d = e.setdup(DType::I32, 9);
        e.free(d);
        let cp = e.copy(a);
        e.free(cp);
        let trace = e.take_trace();
        (trace.instr_mix(), trace.events().to_vec())
    };
    let (active_mix, _) = run(false);
    let (masked_mix, masked_events) = run(true);
    // Identical dynamic instruction stream: masking lanes off must never
    // drop (or add) instructions, or timing comparisons become skewed.
    assert_eq!(masked_mix, active_mix);
    assert!(
        masked_mix.arithmetic >= 3,
        "binop + compare + shift present"
    );
    assert!(masked_mix.moves >= 2, "convert + copy present");
    let mut computes = 0;
    for ev in &masked_events {
        if let Event::Compute {
            active_lanes,
            cb_mask,
            ..
        } = ev
        {
            computes += 1;
            assert_eq!(*active_lanes, 0, "fully-masked compute reports no lanes");
            assert_eq!(*cb_mask, 0, "no control block is active");
        }
    }
    assert!(computes >= 6, "all compute ops still emit events");
}

/// Registers store lanes at their element width, so a conversion pairs
/// two storage widths. Every `(from, to)` pair, beside a freed register of
/// a third width with every lane set, under a full mask (one block run)
/// and a ragged one (runs plus stragglers).
#[test]
fn convert_every_pair_across_storage_widths() {
    let ragged: Vec<usize> = (0..N).filter(|l| l % 5 == 3 || *l == 64).collect();
    for (fi, &from) in DType::ALL.iter().enumerate() {
        let av = lane_values(from, 0x4242 + fi as u64, N);
        for &to in &DType::ALL {
            for masked_off in [Vec::new(), ragged.clone()] {
                let mut e = lane_shaped_engine(N);
                // Leave a freed slot of a third width with every lane set.
                let other = if to.bytes() == 8 {
                    DType::U8
                } else {
                    DType::U64
                };
                let junk = e.setdup(other, u64::MAX);
                e.free(junk);
                for &m in &masked_off {
                    e.vunsetmask(m);
                }
                let a = reg_with(&mut e, from, &av);
                let r = e.convert(a, to);
                let want: Vec<u64> = (0..e.lanes())
                    .map(|l| {
                        if l < N && !masked_off.contains(&l) {
                            from.convert_to(to, av[l])
                        } else {
                            0
                        }
                    })
                    .collect();
                assert_eq!(e.reg_lanes(r), want, "{from:?}→{to:?}");
            }
        }
    }
}

/// `vshiftr` reads the low byte of each amount lane, whatever the amount
/// register's width: amounts of every integer width, with high bytes set
/// and low bytes past the element width.
#[test]
fn shift_reg_amounts_of_every_width() {
    let ints: Vec<DType> = DType::ALL.into_iter().filter(|d| !d.is_float()).collect();
    for (di, &dtype) in ints.iter().enumerate() {
        let av = lane_values(dtype, 0x3141 + di as u64, N);
        for (ai, &amount_type) in ints.iter().enumerate() {
            // Low bytes 0..=72 (past every width) under random high bytes.
            let amounts: Vec<u64> = lane_values(DType::U64, 0x2718 + ai as u64, N)
                .iter()
                .enumerate()
                .map(|(l, &hi)| amount_type.truncate((hi & !0xFF) | ((l as u64 * 9) % 73)))
                .collect();
            for left in [true, false] {
                let mut e = lane_shaped_engine(N);
                e.vunsetmask(5);
                let a = reg_with(&mut e, dtype, &av);
                let s = reg_with(&mut e, amount_type, &amounts);
                let r = e.shift_reg(a, s, left);
                for l in 0..N {
                    let sh = (amounts[l] & 0xFF) as u32;
                    let want = match (l, left) {
                        (5, _) => 0,
                        (_, true) => dtype.shl(av[l], sh),
                        (_, false) => dtype.shr(av[l], sh),
                    };
                    assert_eq!(
                        e.lane_value(r, l),
                        want,
                        "{dtype:?} by {amount_type:?} left={left} lane {l}"
                    );
                }
            }
        }
    }
}

/// `set_lane_raw` keeps the low element-width bits of its value, and
/// `lane_value` reads them back zero-extended, at every width.
#[test]
fn set_lane_raw_truncates_at_every_width() {
    let raw = 0xFEDC_BA98_7654_3210u64;
    for dtype in DType::ALL {
        let mut e = lane_shaped_engine(N);
        let r = e.alloc(dtype);
        let top = e.lanes() - 1;
        for (l, v) in [(0, raw), (1, !raw), (63, 0x80), (top, raw.rotate_left(8))] {
            e.set_lane_raw(r, l, v);
            assert_eq!(e.lane_value(r, l), dtype.truncate(v), "{dtype:?} lane {l}");
        }
        assert_eq!(e.lane_value(r, 2), 0, "{dtype:?}: untouched lane");
        let mut want = vec![0u64; e.lanes()];
        for (l, v) in [(0, raw), (1, !raw), (63, 0x80), (top, raw.rotate_left(8))] {
            want[l] = dtype.truncate(v);
        }
        assert_eq!(e.reg_lanes(r), want, "{dtype:?}");
    }
}
