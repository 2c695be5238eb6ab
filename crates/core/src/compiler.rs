//! Compiler support for MVE (Section III-G).
//!
//! The paper's compiler faces one unusual constraint: the physical register
//! file is *variable-sized* — 256 word-lines divided by the kernel width —
//! and spills of 8192-element registers are extremely expensive. Its answer
//! is threefold, and this module implements all three on a virtual-register
//! straight-line IR:
//!
//! 1. **Kernel-width selection** — liveness analysis finds the widest live
//!    type; one `vsetwidth` is emitted and the PR count follows
//!    (Section III-G "Register Count").
//! 2. **List scheduling** — a bottom-up list scheduler that keeps the live
//!    set under the PR budget by preferring instructions whose operands die
//!    ("list-hybrid" scheduling in the paper).
//! 3. **Greedy register allocation** — live ranges are assigned to physical
//!    registers by a linear-scan over the scheduled order; when pressure
//!    exceeds the budget, the range with the furthest next use is spilled
//!    and reload/spill code is inserted (the spill cost the Duality Cache
//!    comparison in Section VII-C turns on).

use std::collections::{HashMap, HashSet};

use crate::dtype::{BinOp, DType};
use crate::isa::{Opcode, StrideMode};

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VReg(pub u32);

/// Mnemonic of the allocator-inserted spill store (`uses[0]` → its slot).
pub const SPILL_STORE: &str = "spill.store";
/// Mnemonic of the allocator-inserted reload (`def` ← its slot).
pub const SPILL_RELOAD: &str = "spill.reload";

/// The scalar a [`Action::Splat`] broadcasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplatSource {
    /// An immediate, as the raw lane encoding of the op's element type.
    Imm(u64),
    /// A scalar kernel parameter, bound at execution time.
    Param(usize),
}

/// Execution semantics a front-end (the `mve-lang` lowering) attaches to an
/// [`IrOp`]. The scheduler and allocator never look inside — they operate
/// on the dataflow alone — but the semantics travel with the op through
/// reordering and spill rewriting, so the scheduled + allocated program
/// stays executable on the functional engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Broadcast a scalar into the def register (`vsetdup`).
    Splat(SplatSource),
    /// Multi-dimensional strided load from buffer parameter `param`.
    Load {
        /// Buffer-parameter index in the program's [`ParamDecl`] list.
        param: usize,
        /// Element offset into the buffer.
        elem_offset: u64,
        /// Per-dimension stride modes (innermost first).
        modes: Vec<StrideMode>,
        /// `(dim, stride)` pairs for dimensions using [`StrideMode::Cr`].
        cr_strides: Vec<(usize, i64)>,
    },
    /// Multi-dimensional strided store of `uses[0]` into parameter `param`.
    Store {
        /// Buffer-parameter index in the program's [`ParamDecl`] list.
        param: usize,
        /// Element offset into the buffer.
        elem_offset: u64,
        /// Per-dimension stride modes (innermost first).
        modes: Vec<StrideMode>,
        /// `(dim, stride)` pairs for dimensions using [`StrideMode::Cr`].
        cr_strides: Vec<(usize, i64)>,
    },
    /// Element-wise binary op over `uses[0]`, `uses[1]`.
    Binop {
        /// The ISA opcode (drives trace classification and timing).
        opcode: Opcode,
        /// The lane arithmetic.
        op: BinOp,
    },
    /// Shift/rotate `uses[0]` by an immediate.
    ShiftImm {
        /// Shift amount in bits.
        amount: u32,
        /// Left (`true`) or right shift.
        left: bool,
    },
    /// Full reduction of `uses[0]`; the def register holds the reduced
    /// value broadcast across every lane (the Section IV vertical tree).
    Reduce {
        /// The combining operation (add/min/max).
        op: BinOp,
    },
}

/// The execution context of one semantic op: what to do, under which
/// logical shape, at which element type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sem {
    /// The operation semantics.
    pub action: Action,
    /// Dimension lengths (innermost first) the op executes under.
    pub shape: Vec<usize>,
    /// Element type of the defined/used value.
    pub dtype: DType,
}

/// How a kernel parameter is bound at execution time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamKind {
    /// A read-only input buffer of `len` elements.
    BufIn {
        /// Element count.
        len: usize,
    },
    /// A write-only output buffer of `len` elements.
    BufOut {
        /// Element count.
        len: usize,
    },
    /// A scalar, with an optional default raw value from the source.
    Scalar {
        /// Raw lane encoding of the declared default, if any.
        default: Option<u64>,
    },
}

/// One kernel parameter declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDecl {
    /// Source-level name.
    pub name: String,
    /// Element type.
    pub dtype: DType,
    /// Binding kind.
    pub kind: ParamKind,
}

/// A lowered straight-line program with its entry metadata — the container
/// a front-end hands to [`schedule`]/[`allocate`] and an executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Kernel name from the source.
    pub name: String,
    /// Parameter declarations, in source order.
    pub params: Vec<ParamDecl>,
    /// The straight-line IR.
    pub ops: Vec<IrOp>,
}

/// A source position an [`IrOp`] was lowered from: 1-based line and
/// column, `(0, 0)` for IR with no source (bare dataflow programs,
/// allocator-internal ops with no pressure-causing ancestor). Core
/// cannot depend on the front-end's diagnostics crate, so this mirrors
/// `mve_lang::diag::Span`'s convention rather than importing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SrcSpan {
    /// 1-based source line; 0 = unattributed.
    pub line: u32,
    /// 1-based source column; 0 = unattributed.
    pub col: u32,
}

impl SrcSpan {
    /// The "no source position" span.
    pub const NONE: SrcSpan = SrcSpan { line: 0, col: 0 };

    /// A span at `line:col`.
    pub fn new(line: u32, col: u32) -> SrcSpan {
        SrcSpan { line, col }
    }

    /// Whether this span carries a real source position.
    pub fn is_some(&self) -> bool {
        self.line != 0
    }
}

/// One straight-line IR operation.
#[derive(Debug, Clone, Eq)]
pub struct IrOp {
    /// Mnemonic (free-form; the allocator only needs the dataflow).
    pub name: String,
    /// Defined register, if any (loads, arithmetic).
    pub def: Option<VReg>,
    /// Used registers.
    pub uses: Vec<VReg>,
    /// Element width in bits (drives the kernel-width selection).
    pub width: u32,
    /// Execution semantics, for IR produced by a front-end; `None` for
    /// bare dataflow-only IR (this module's original closed-world uses).
    pub sem: Option<Sem>,
    /// Source position this op was lowered from; [`SrcSpan::NONE`] for
    /// IR with no front-end. Allocator-inserted spill ops inherit the
    /// span of the op whose register pressure forced them.
    pub span: SrcSpan,
}

/// Equality ignores `span`, mirroring the front-end's `Spanned<T>`
/// idiom: two ops that compute the same thing are the same op, wherever
/// they were written. Dataflow tests compare op sequences and must not
/// become position-sensitive.
impl PartialEq for IrOp {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.def == other.def
            && self.uses == other.uses
            && self.width == other.width
            && self.sem == other.sem
    }
}

impl IrOp {
    /// Convenience constructor (dataflow only, no semantics).
    pub fn new(name: &str, def: Option<VReg>, uses: &[VReg], width: u32) -> Self {
        Self {
            name: name.to_owned(),
            def,
            uses: uses.to_vec(),
            width,
            sem: None,
            span: SrcSpan::NONE,
        }
    }

    /// Attaches execution semantics.
    pub fn with_sem(mut self, sem: Sem) -> Self {
        self.sem = Some(sem);
        self
    }

    /// Attaches a source position.
    pub fn at(mut self, span: SrcSpan) -> Self {
        self.span = span;
        self
    }
}

/// A typed compilation failure from the scheduling/allocation pipeline.
///
/// Until PR 5 the allocator `assert!`ed on these conditions, which was
/// tolerable while the only callers were this module's own tests; with
/// arbitrary client-submitted kernels flowing in through `mve-lang`, a
/// malformed program must surface as an error reply, not a daemon panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The physical register budget cannot hold the widest instruction's
    /// operands (or is below the allocator's minimum of 2).
    BudgetTooSmall {
        /// The budget requested.
        budget: usize,
        /// The minimum workable budget for this program.
        required: usize,
    },
    /// An op reads a virtual register no earlier op defines.
    UndefinedVReg {
        /// The undefined register.
        vreg: VReg,
        /// Index of the offending op.
        op_index: usize,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::BudgetTooSmall { budget, required } => write!(
                f,
                "register budget {budget} too small: this program needs at least \
                 {required} physical registers"
            ),
            CompileError::UndefinedVReg { vreg, op_index } => write!(
                f,
                "op {op_index} uses virtual register v{} which no earlier op defines",
                vreg.0
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Per-program liveness result.
#[derive(Debug, Clone)]
pub struct Liveness {
    /// Index of the last use of each virtual register.
    pub last_use: HashMap<VReg, usize>,
    /// Index of the definition of each virtual register.
    pub def_at: HashMap<VReg, usize>,
    /// Maximum number of simultaneously live registers.
    pub max_pressure: usize,
    /// Widest element width used (the kernel width, Section III-G).
    pub kernel_width: u32,
}

/// Computes liveness over a straight-line program.
pub fn liveness(ops: &[IrOp]) -> Liveness {
    let mut last_use = HashMap::new();
    let mut def_at = HashMap::new();
    let mut kernel_width = 8;
    for (i, op) in ops.iter().enumerate() {
        kernel_width = kernel_width.max(op.width);
        if let Some(d) = op.def {
            def_at.insert(d, i);
            // A def with no later use still lives through its own op.
            last_use.entry(d).or_insert(i);
        }
        for &u in &op.uses {
            last_use.insert(u, i);
        }
    }
    // Pressure sweep.
    let mut max_pressure = 0;
    let mut live = 0usize;
    let mut deaths: HashMap<usize, usize> = HashMap::new();
    for (&r, &at) in &last_use {
        if def_at.contains_key(&r) {
            *deaths.entry(at).or_default() += 1;
        }
        let _ = r;
    }
    for (i, op) in ops.iter().enumerate() {
        if op.def.is_some() {
            live += 1;
            max_pressure = max_pressure.max(live);
        }
        live -= deaths.get(&i).copied().unwrap_or(0).min(live);
    }
    Liveness {
        last_use,
        def_at,
        max_pressure,
        kernel_width,
    }
}

/// Physical registers available for a kernel width (Section III-G:
/// word-lines ÷ width).
pub fn register_budget(wordlines: u32, kernel_width: u32) -> usize {
    (wordlines / kernel_width.max(1)) as usize
}

/// The result of register allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Physical register assigned to each virtual register (spilled vregs
    /// may map to several over their lifetime; this is the first).
    pub assignment: HashMap<VReg, usize>,
    /// Number of spill stores inserted.
    pub spill_stores: usize,
    /// Number of reload loads inserted.
    pub reloads: usize,
    /// The rewritten program including spill/reload pseudo-ops.
    pub code: Vec<IrOp>,
}

/// Greedy linear-scan allocation with furthest-next-use spilling
/// (Belady's choice, which the paper's "Greedy Register Allocation" with
/// live-range splitting approximates).
///
/// Returns a typed [`CompileError`] — never panics or loops — when the
/// budget cannot hold the widest instruction's operand set, or when the IR
/// uses a virtual register nothing defines.
pub fn allocate(ops: &[IrOp], budget: usize) -> Result<Allocation, CompileError> {
    // An op's distinct operands must be resident simultaneously; below
    // that (or below the structural minimum of 2) eviction has no legal
    // victim and the old code path asserted.
    let required = ops
        .iter()
        .map(|op| {
            let distinct: HashSet<VReg> = op.uses.iter().copied().collect();
            distinct.len()
        })
        .max()
        .unwrap_or(0)
        .max(2);
    if budget < required {
        return Err(CompileError::BudgetTooSmall { budget, required });
    }
    // Every use must be dominated by a def: an undefined vreg is neither
    // in a register nor spilled, which the reload path below could only
    // "handle" by inventing a value.
    let mut defined: HashSet<VReg> = HashSet::new();
    for (i, op) in ops.iter().enumerate() {
        for &u in &op.uses {
            if !defined.contains(&u) {
                return Err(CompileError::UndefinedVReg {
                    vreg: u,
                    op_index: i,
                });
            }
        }
        if let Some(d) = op.def {
            defined.insert(d);
        }
    }
    let lv = liveness(ops);

    // next_use[i][r]: the next index ≥ i where r is used.
    let mut assignment: HashMap<VReg, usize> = HashMap::new();
    let mut in_reg: HashMap<VReg, usize> = HashMap::new(); // vreg -> phys
    let mut phys_free: Vec<usize> = (0..budget).rev().collect();
    let mut spilled: HashMap<VReg, bool> = HashMap::new();
    let mut code: Vec<IrOp> = Vec::with_capacity(ops.len());
    let mut spill_stores = 0usize;
    let mut reloads = 0usize;

    let next_use_after = |ops: &[IrOp], r: VReg, i: usize| -> usize {
        ops[i..]
            .iter()
            .position(|op| op.uses.contains(&r))
            .map(|p| i + p)
            .unwrap_or(usize::MAX)
    };

    for (i, op) in ops.iter().enumerate() {
        // Reload any spilled operands (the def-domination check above
        // guarantees a value not in a register was spilled).
        for &u in &op.uses {
            if !in_reg.contains_key(&u) {
                debug_assert!(spilled.get(&u).copied().unwrap_or(false));
                // Find a register: free, or evict furthest-next-use.
                let phys = if let Some(p) = phys_free.pop() {
                    p
                } else {
                    let (&victim, &p) = in_reg
                        .iter()
                        .filter(|(v, _)| !op.uses.contains(v))
                        .max_by_key(|(v, _)| next_use_after(ops, **v, i))
                        .expect("some evictable register");
                    if next_use_after(ops, victim, i) != usize::MAX {
                        spill_stores += 1;
                        spilled.insert(victim, true);
                        code.push(IrOp::new(SPILL_STORE, None, &[victim], op.width).at(op.span));
                    }
                    in_reg.remove(&victim);
                    p
                };
                in_reg.insert(u, phys);
                reloads += 1;
                code.push(IrOp::new(SPILL_RELOAD, Some(u), &[], op.width).at(op.span));
            }
        }
        // Free registers whose contents die at this op.
        let dying: Vec<VReg> = op
            .uses
            .iter()
            .copied()
            .filter(|u| lv.last_use.get(u) == Some(&i))
            .collect();
        code.push(op.clone());
        for u in dying {
            if let Some(p) = in_reg.remove(&u) {
                phys_free.push(p);
            }
        }
        // Place the definition.
        if let Some(d) = op.def {
            let phys = if let Some(p) = phys_free.pop() {
                p
            } else {
                let (&victim, &p) = in_reg
                    .iter()
                    .max_by_key(|(v, _)| next_use_after(ops, **v, i + 1))
                    .expect("some register to evict");
                if next_use_after(ops, victim, i + 1) != usize::MAX {
                    spill_stores += 1;
                    spilled.insert(victim, true);
                    code.push(IrOp::new(SPILL_STORE, None, &[victim], op.width).at(op.span));
                }
                in_reg.remove(&victim);
                p
            };
            in_reg.insert(d, phys);
            assignment.entry(d).or_insert(phys);
        }
    }

    Ok(Allocation {
        assignment,
        spill_stores,
        reloads,
        code,
    })
}

/// Bottom-up list scheduling that reduces register pressure: independent
/// operations are reordered so that uses follow their definitions closely
/// (the paper's "list-hybrid instruction scheduler \[60\]" that "shorten\[s\]
/// register live ranges").
///
/// Dependences are the IR's def-use edges; the scheduler never reorders
/// across them. Among ready ops it prefers the one that kills the most
/// live registers, then the one that defines none.
pub fn schedule(ops: &[IrOp]) -> Vec<IrOp> {
    let n = ops.len();
    // Build def-site map and dependence edges (RAW only; the IR is SSA-ish:
    // each vreg defined once).
    let mut def_site: HashMap<VReg, usize> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        if let Some(d) = op.def {
            def_site.insert(d, i);
        }
    }
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, op) in ops.iter().enumerate() {
        for &u in &op.uses {
            if let Some(&s) = def_site.get(&u) {
                if s != i {
                    preds[i].push(s);
                }
            }
        }
    }
    let mut remaining_preds: Vec<usize> = preds.iter().map(Vec::len).collect();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ps) in preds.iter().enumerate() {
        for &p in ps {
            succs[p].push(i);
        }
    }

    let lv = liveness(ops);
    let mut scheduled = Vec::with_capacity(n);
    let mut ready: Vec<usize> = (0..n).filter(|&i| remaining_preds[i] == 0).collect();
    let mut emitted = vec![false; n];
    while let Some(pos) = {
        // Prefer ops that kill operands (frees registers), then ops without
        // defs, then program order for determinism.
        ready
            .iter()
            .enumerate()
            .max_by_key(|(_, &i)| {
                let kills = ops[i]
                    .uses
                    .iter()
                    .filter(|u| lv.last_use.get(u) == Some(&i))
                    .count() as i64;
                let no_def = i64::from(ops[i].def.is_none());
                (kills, no_def, -(i as i64))
            })
            .map(|(pos, _)| pos)
    } {
        let i = ready.swap_remove(pos);
        emitted[i] = true;
        scheduled.push(ops[i].clone());
        for &s in &succs[i] {
            remaining_preds[s] -= 1;
            if remaining_preds[s] == 0 && !emitted[s] {
                ready.push(s);
            }
        }
    }
    assert_eq!(scheduled.len(), n, "scheduling must preserve all ops");
    scheduled
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VReg {
        VReg(i)
    }

    /// A GEMM-like inner loop body: two loads, a multiply, an accumulate.
    fn gemm_body(k: u32) -> Vec<IrOp> {
        let mut ops = vec![IrOp::new("vsetdup", Some(v(0)), &[], 32)];
        let mut acc = v(0);
        for i in 0..k {
            let iv = v(3 * i + 1);
            let wv = v(3 * i + 2);
            let p = v(3 * i + 3);
            let acc2 = v(1000 + i);
            ops.push(IrOp::new("vsld", Some(iv), &[], 32));
            ops.push(IrOp::new("vsld", Some(wv), &[], 32));
            ops.push(IrOp::new("vmul", Some(p), &[iv, wv], 32));
            ops.push(IrOp::new("vadd", Some(acc2), &[acc, p], 32));
            acc = acc2;
        }
        ops.push(IrOp::new("vsst", None, &[acc], 32));
        ops
    }

    #[test]
    fn liveness_finds_width_and_pressure() {
        let ops = gemm_body(4);
        let lv = liveness(&ops);
        assert_eq!(lv.kernel_width, 32);
        // acc + iv + wv + p (+ new acc overlapping old) = 5.
        assert!(lv.max_pressure <= 5, "pressure {}", lv.max_pressure);
        assert!(lv.max_pressure >= 4);
    }

    #[test]
    fn register_budget_follows_width() {
        assert_eq!(register_budget(256, 32), 8);
        assert_eq!(register_budget(256, 8), 32);
        assert_eq!(register_budget(256, 64), 4);
    }

    #[test]
    fn allocation_without_pressure_never_spills() {
        let ops = gemm_body(8);
        let alloc = allocate(&ops, 8).unwrap();
        assert_eq!(alloc.spill_stores, 0);
        assert_eq!(alloc.reloads, 0);
        // Physical registers stay within budget.
        assert!(alloc.assignment.values().all(|&p| p < 8));
    }

    #[test]
    fn allocation_under_pressure_spills_and_reloads() {
        // 12 long-lived values consumed pairwise much later: at most 4
        // physical registers force spills at definition time and reloads at
        // use time.
        let mut ops: Vec<IrOp> = (0..12)
            .map(|i| IrOp::new("vsld", Some(v(i)), &[], 32))
            .collect();
        for i in 0..6 {
            ops.push(IrOp::new("vadd", Some(v(100 + i)), &[v(i), v(11 - i)], 32));
            ops.push(IrOp::new("vsst", None, &[v(100 + i)], 32));
        }
        let alloc = allocate(&ops, 4).unwrap();
        assert!(alloc.spill_stores > 0, "must spill");
        assert!(alloc.reloads >= alloc.spill_stores);
        // Spill code appears in the rewritten program.
        assert!(alloc.code.iter().any(|o| o.name == SPILL_STORE));
        assert!(alloc.code.iter().any(|o| o.name == SPILL_RELOAD));
    }

    #[test]
    fn narrow_kernels_get_more_registers_and_fewer_spills() {
        // The same program at 8-bit width fits the budget that the 64-bit
        // version overflows — the variable-register-count effect of
        // Section III-B.
        let mk = |width: u32| -> Vec<IrOp> {
            let mut ops: Vec<IrOp> = (0..6)
                .map(|i| IrOp::new("vsld", Some(v(i)), &[], width))
                .collect();
            for i in 0..3 {
                ops.push(IrOp::new("vadd", Some(v(10 + i)), &[v(i), v(5 - i)], width));
                ops.push(IrOp::new("vsst", None, &[v(10 + i)], width));
            }
            ops
        };
        let wide = mk(64);
        let narrow = mk(8);
        let wide_alloc =
            allocate(&wide, register_budget(256, liveness(&wide).kernel_width)).unwrap();
        let narrow_alloc = allocate(
            &narrow,
            register_budget(256, liveness(&narrow).kernel_width),
        )
        .unwrap();
        assert!(wide_alloc.spill_stores > 0);
        assert_eq!(narrow_alloc.spill_stores, 0);
    }

    #[test]
    fn scheduling_respects_dependences_and_reduces_pressure() {
        // Interleaved producer/consumer pairs scheduled far apart: the list
        // scheduler should pull consumers next to producers.
        let mut ops = Vec::new();
        for i in 0..6 {
            ops.push(IrOp::new("vsld", Some(v(i)), &[], 32));
        }
        for i in 0..6 {
            ops.push(IrOp::new("vshi", Some(v(10 + i)), &[v(i)], 32));
            ops.push(IrOp::new("vsst", None, &[v(10 + i)], 32));
        }
        let before = liveness(&ops).max_pressure;
        let sched = schedule(&ops);
        let after = liveness(&sched).max_pressure;
        assert!(
            after <= before,
            "pressure {after} should not exceed {before}"
        );
        assert!(
            after <= 3,
            "scheduler should chain producer→consumer: {after}"
        );
        // All defs still precede their uses.
        let mut defined = std::collections::HashSet::new();
        for op in &sched {
            for u in &op.uses {
                assert!(defined.contains(u), "use before def after scheduling");
            }
            if let Some(d) = op.def {
                defined.insert(d);
            }
        }
    }

    #[test]
    fn zero_or_tiny_budget_is_a_typed_error_not_a_panic() {
        let ops = gemm_body(4);
        for budget in [0, 1] {
            match allocate(&ops, budget) {
                Err(CompileError::BudgetTooSmall {
                    budget: b,
                    required,
                }) => {
                    assert_eq!(b, budget);
                    assert!(required >= 2, "required {required}");
                }
                other => panic!("budget {budget}: expected BudgetTooSmall, got {other:?}"),
            }
        }
        // A 3-operand-wide op raises the structural minimum above 2.
        let wide = vec![
            IrOp::new("vsld", Some(v(0)), &[], 32),
            IrOp::new("vsld", Some(v(1)), &[], 32),
            IrOp::new("vsld", Some(v(2)), &[], 32),
            IrOp::new("fma3", Some(v(3)), &[v(0), v(1), v(2)], 32),
        ];
        match allocate(&wide, 2) {
            Err(CompileError::BudgetTooSmall { required, .. }) => assert_eq!(required, 3),
            other => panic!("expected BudgetTooSmall, got {other:?}"),
        }
        assert!(allocate(&wide, 3).is_ok());
    }

    #[test]
    fn undefined_vreg_is_a_typed_error_not_a_panic() {
        // v(7) is used but never defined; pre-hardening this tripped an
        // internal assert deep in the reload path.
        let ops = vec![
            IrOp::new("vsld", Some(v(0)), &[], 32),
            IrOp::new("vadd", Some(v(1)), &[v(0), v(7)], 32),
        ];
        match allocate(&ops, 8) {
            Err(CompileError::UndefinedVReg { vreg, op_index }) => {
                assert_eq!(vreg, v(7));
                assert_eq!(op_index, 1);
            }
            other => panic!("expected UndefinedVReg, got {other:?}"),
        }
        // The error message names the register and the op.
        let err = allocate(&ops, 8).unwrap_err();
        assert!(err.to_string().contains("v7"), "{err}");
        assert!(err.to_string().contains("op 1"), "{err}");
    }

    #[test]
    fn scheduled_gemm_fits_paper_budget() {
        // The Section IV GEMM listing must fit the 8-register file at
        // 32-bit width after scheduling + allocation.
        let ops = schedule(&gemm_body(16));
        let alloc = allocate(&ops, register_budget(256, 32)).unwrap();
        assert_eq!(alloc.spill_stores, 0, "paper's GEMM must not spill");
    }
}
