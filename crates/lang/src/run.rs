//! The compiled-kernel pipeline and runner.
//!
//! [`compile`] takes `.mvel` source through parse → typed lowering →
//! list scheduling → spill-aware linear-scan allocation
//! (`mve_core::compiler`), producing a [`CompiledKernel`] whose allocated
//! code an [`Executor`] drives through the functional [`Engine`] — the
//! bridge that turns the Section III-G compiler from dead weight into a
//! live front-end.
//!
//! **Spills are real memory traffic.** Allocator-inserted
//! `spill.store`/`spill.reload` ops execute as full-width engine stores
//! and loads to per-register spill slots (the whole 8192-lane register,
//! as the paper's §VII-C spill-cost comparison assumes), so a
//! register-pressured kernel's trace shows the extra `MemAccess`
//! instructions and the timing simulation charges them.
//!
//! **Register budget.** The engine's physical file holds
//! `wordlines / kernel_width` registers. The allocator is given that
//! capacity minus a small reserve: 1 register for the in-flight
//! destination of the executing op (the engine allocates an op's result
//! while its dying operands are still live), plus 3 while any reduction
//! is live (the vertical tree holds the source, the reloaded upper half
//! and the partial sum simultaneously).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::ast::{dtype_name, KernelAst};
use crate::diag::Diag;
use crate::eval::interpret;
use crate::lex::lex;
use crate::lower::lower;
use crate::parse::parse_tokens;
use mve_core::compiler::{
    allocate, liveness, register_budget, schedule, Action, IrOp, ParamKind, Program, Sem,
    SplatSource, VReg, SPILL_RELOAD, SPILL_STORE,
};
use mve_core::config::MAX_DIMS;
use mve_core::dtype::{BinOp, DType};
use mve_core::engine::{Engine, Reg};
use mve_core::isa::{Opcode, StrideMode};
use mve_core::sim::{fnv1a_64, simulate, SimConfig};

/// Raw output elements per parameter index (`None` for non-outputs) —
/// the shape both [`Executor::outputs`] and the interpreter return.
pub type RawOutputs = Vec<Option<Vec<u64>>>;

/// Functional-memory budget for everything one executor allocates:
/// declared buffers plus spill slots and per-reduction scratch (the
/// engine's memory is 64 MiB; the margin absorbs allocator slack). Both
/// [`compile`] (default geometry) and [`Executor::with_geometry`] (actual
/// geometry) enforce it, so a validated kernel can never exhaust
/// functional memory at execution time.
pub const MEMORY_BUDGET_BYTES: u128 = 56 << 20;

/// Bytes of executor scratch `code` needs on a `lanes`-lane engine: one
/// full-register slot per distinct spilled vreg, one per reduce op.
fn scratch_bytes(code: &[IrOp], lanes: usize) -> u128 {
    let mut spilled: std::collections::HashSet<VReg> = std::collections::HashSet::new();
    let mut bytes: u128 = 0;
    for op in code {
        if op.name == SPILL_RELOAD {
            if let Some(def) = op.def {
                if spilled.insert(def) {
                    // A spill op's width is the *triggering* op's, not
                    // necessarily the victim's — budget the worst case
                    // (8-byte lanes) so the estimate never undershoots.
                    bytes += lanes as u128 * 8;
                }
            }
        } else if matches!(
            op.sem,
            Some(Sem {
                action: Action::Reduce { .. },
                ..
            })
        ) {
            bytes += lanes as u128 * u128::from(op.width) / 8;
        }
    }
    bytes
}

/// Declared buffer bytes of a program's parameter list.
fn buffer_bytes(program: &Program) -> u128 {
    program
        .params
        .iter()
        .map(|p| match p.kind {
            ParamKind::BufIn { len } | ParamKind::BufOut { len } => {
                len as u128 * u128::from(p.dtype.bytes())
            }
            ParamKind::Scalar { .. } => 0,
        })
        .sum()
}

/// A fully compiled kernel: lowered, scheduled and register-allocated.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The parsed tree (the interpreter's input and the pretty-printer's).
    pub ast: KernelAst,
    /// The lowered program (pre-scheduling), with entry metadata.
    pub program: Program,
    /// Scheduled + allocated code, including spill/reload ops.
    pub code: Vec<IrOp>,
    /// Selected kernel width in bits (widest live type).
    pub kernel_width: u32,
    /// Physical registers the file holds at that width.
    pub capacity: usize,
    /// Registers reserved for the runner (in-flight def + reduction temps).
    pub reserved: usize,
    /// Registers handed to the allocator.
    pub budget: usize,
    /// Spill stores the allocator inserted.
    pub spill_stores: usize,
    /// Reloads the allocator inserted.
    pub reloads: usize,
    /// FNV-1a digest of the exact source text (the service cache key).
    pub source_digest: u64,
}

/// Wall-clock spent in each compile phase, as measured by
/// [`compile_timed`]. Liveness analysis and the register-budget check
/// count toward `schedule` (they are scheduling prep); the post-allocation
/// scratch-budget check counts toward `allocate`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompilePhases {
    pub lex: Duration,
    pub parse: Duration,
    pub lower: Duration,
    pub schedule: Duration,
    pub allocate: Duration,
}

impl CompilePhases {
    /// `(phase name, duration)` pairs in pipeline order.
    pub fn phases(&self) -> [(&'static str, Duration); 5] {
        [
            ("lex", self.lex),
            ("parse", self.parse),
            ("lower", self.lower),
            ("schedule", self.schedule),
            ("allocate", self.allocate),
        ]
    }
}

/// Compiles `.mvel` source end-to-end.
pub fn compile(source: &str) -> Result<CompiledKernel, Diag> {
    compile_timed(source).map(|(ck, _)| ck)
}

/// [`compile`], plus per-phase wall-clock timings — the serve `compile`
/// reply surfaces these for cache-miss compiles.
pub fn compile_timed(source: &str) -> Result<(CompiledKernel, CompilePhases), Diag> {
    let mut phases = CompilePhases::default();
    let mut mark = Instant::now();
    let mut stamp = |slot: &mut Duration| {
        let now = Instant::now();
        *slot = now.duration_since(mark);
        mark = now;
    };
    let toks = lex(source)?;
    stamp(&mut phases.lex);
    let ast = parse_tokens(toks)?;
    stamp(&mut phases.parse);
    let program = lower(&ast)?;
    stamp(&mut phases.lower);
    let lv = liveness(&program.ops);
    let kernel_width = lv.kernel_width;
    let capacity = register_budget(
        mve_insram::scheme::EngineGeometry::default().wordlines as u32,
        kernel_width,
    );
    let has_reduce = program.ops.iter().any(|op| {
        matches!(
            op.sem,
            Some(Sem {
                action: Action::Reduce { .. },
                ..
            })
        )
    });
    let reserved = 1 + if has_reduce { 3 } else { 0 };
    let budget = capacity.saturating_sub(reserved);
    if budget < 2 {
        return Err(Diag::nowhere(format!(
            "kernel width {kernel_width} gives a {capacity}-register file, and the runner \
             reserves {reserved}; fewer than 2 registers remain for allocation — narrow the \
             element types{}",
            if has_reduce {
                " or drop the reduction"
            } else {
                ""
            }
        )));
    }
    let scheduled = schedule(&program.ops);
    stamp(&mut phases.schedule);
    let alloc = allocate(&scheduled, budget)
        .map_err(|e| Diag::nowhere(format!("register allocation failed: {e}")))?;
    // Total functional-memory demand — buffers plus the executor's spill
    // slots and reduction scratch — must fit the engine, so execution can
    // never hit an allocation failure on validated input.
    let lanes = mve_insram::scheme::EngineGeometry::default().total_bitlines();
    let scratch = scratch_bytes(&alloc.code, lanes);
    if buffer_bytes(&program) + scratch > MEMORY_BUDGET_BYTES {
        return Err(Diag::nowhere(format!(
            "kernel needs {} KiB of spill/reduction scratch on top of its buffers, \
             exceeding the {} MiB functional-memory budget — reduce the number of \
             reductions or the register pressure",
            scratch >> 10,
            MEMORY_BUDGET_BYTES >> 20
        )));
    }
    stamp(&mut phases.allocate);
    Ok((
        CompiledKernel {
            source_digest: fnv1a_64(source.as_bytes()),
            ast,
            code: alloc.code,
            kernel_width,
            capacity,
            reserved,
            budget,
            spill_stores: alloc.spill_stores,
            reloads: alloc.reloads,
            program,
        },
        phases,
    ))
}

/// Runtime parameter bindings: one raw scalar and one raw element vector
/// per parameter index (unused slots empty).
#[derive(Debug, Clone)]
pub struct Bindings {
    /// Raw scalar value per parameter (0 for buffers).
    pub scalars: Vec<u64>,
    /// Raw input elements per parameter (empty for scalars and outputs).
    pub inputs: Vec<Vec<u64>>,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic raw lane value of `dtype` (floats land in [-1, 1)).
fn raw_value(dtype: DType, x: u64) -> u64 {
    if dtype.is_float() {
        let f = ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        dtype.from_f32(f as f32)
    } else {
        x & dtype.lane_mask()
    }
}

impl Bindings {
    /// Deterministic bindings derived from the program's parameter list
    /// (name-seeded, so reordering-insensitive content): the values every
    /// front-end — `reproduce --dsl`, the serve `compile` op, the corpus
    /// tests — executes a given kernel with.
    pub fn deterministic(program: &Program) -> Self {
        let mut scalars = Vec::with_capacity(program.params.len());
        let mut inputs = Vec::with_capacity(program.params.len());
        for p in &program.params {
            let mut state = fnv1a_64(p.name.as_bytes()) ^ 0x6d76_656c_5f62_696e;
            match &p.kind {
                ParamKind::Scalar { default } => {
                    let raw = default.unwrap_or_else(|| raw_value(p.dtype, splitmix64(&mut state)));
                    scalars.push(raw);
                    inputs.push(Vec::new());
                }
                ParamKind::BufIn { len } => {
                    scalars.push(0);
                    inputs.push(
                        (0..*len)
                            .map(|_| raw_value(p.dtype, splitmix64(&mut state)))
                            .collect(),
                    );
                }
                ParamKind::BufOut { .. } => {
                    scalars.push(0);
                    inputs.push(Vec::new());
                }
            }
        }
        Self { scalars, inputs }
    }
}

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

/// Precomputed per-op execution plan: the dense value-table slots of the
/// op's operands and definition, plus the slots whose last use this op is.
/// Built once at construction from the liveness analysis, so the `run`
/// replay loop touches only vector indexing — no hash lookups and no
/// per-run allocation on the steady-state path.
struct OpPlan {
    uses: Vec<u32>,
    def: Option<u32>,
    frees: Vec<u32>,
}

/// Executes a [`CompiledKernel`] on an owned engine. Buffers are allocated
/// and inputs written once at construction; [`Executor::run`] replays the
/// allocated code, so steady-state re-execution (the perf workloads) does
/// not grow the functional memory.
pub struct Executor {
    engine: Engine,
    code: Vec<IrOp>,
    plans: Vec<OpPlan>,
    /// Live engine registers per dense value slot (all `None` between runs).
    values: Vec<Option<Reg>>,
    /// Element type per dense value slot (static: from the defining op).
    slot_dtype: Vec<DType>,
    scalars: Vec<u64>,
    buf_base: Vec<u64>,
    buf_len: Vec<usize>,
    buf_dtype: Vec<DType>,
    out_params: Vec<usize>,
    /// Lazily allocated spill-slot base address per dense value slot.
    spill_slots: Vec<Option<u64>>,
    /// Lazily allocated reduction scratch base per op index.
    reduce_scratch: Vec<Option<u64>>,
    // Tracked CR state, so config instructions are emitted only on change
    // (as a hand-written kernel hoists them out of loops).
    dimc: Option<usize>,
    lens: [Option<usize>; MAX_DIMS],
    ld_str: [Option<i64>; MAX_DIMS],
    st_str: [Option<i64>; MAX_DIMS],
    /// When set, [`Executor::run`] emits an [`Event::SrcLine`] marker
    /// whenever the active op's source line changes, so downstream sinks
    /// can attribute events per line. Off by default: an unmarked run's
    /// event stream is byte-identical to pre-attribution builds.
    line_markers: bool,
}

impl Executor {
    /// Builds an executor over a fresh mobile-geometry engine (the
    /// geometry the lowering validated shapes against), allocating and
    /// filling every parameter buffer, and selects the kernel width (one
    /// `vsetwidth`, Section III-G).
    pub fn new(ck: &CompiledKernel, bindings: &Bindings) -> Self {
        Self::with_geometry(ck, bindings, mve_insram::scheme::EngineGeometry::default())
            .expect("the lowering validated every shape against the default geometry")
    }

    /// [`Executor::new`] over an explicit engine geometry (e.g. the
    /// Figure 12(b) array-count sweep). Fails with a diagnostic when a
    /// shape in the compiled code needs more lanes than the geometry
    /// provides — DSL kernels declare fixed shapes and cannot shrink to a
    /// narrower engine the way the hand-written registry kernels do.
    pub fn with_geometry(
        ck: &CompiledKernel,
        bindings: &Bindings,
        geometry: mve_insram::scheme::EngineGeometry,
    ) -> Result<Self, Diag> {
        let lanes = geometry.total_bitlines();
        for op in &ck.code {
            if let Some(sem) = &op.sem {
                let total: usize = sem.shape.iter().product();
                if total > lanes {
                    return Err(Diag::nowhere(format!(
                        "kernel `{}` uses a {total}-lane shape but the {}-array geometry \
                         provides only {lanes} lanes",
                        ck.program.name, geometry.arrays
                    )));
                }
            }
        }
        // Wider geometries grow every spill/reduction slot; re-check the
        // memory budget with the actual lane count.
        if buffer_bytes(&ck.program) + scratch_bytes(&ck.code, lanes) > MEMORY_BUDGET_BYTES {
            return Err(Diag::nowhere(format!(
                "kernel `{}` needs more spill/reduction scratch at {lanes} lanes than the \
                 functional memory provides",
                ck.program.name
            )));
        }
        let mut engine = Engine::new(geometry, mve_core::mem::Memory::default());
        let mut buf_base = Vec::with_capacity(ck.program.params.len());
        let mut buf_len = Vec::with_capacity(ck.program.params.len());
        let mut buf_dtype = Vec::with_capacity(ck.program.params.len());
        let mut out_params = Vec::new();
        for (i, p) in ck.program.params.iter().enumerate() {
            buf_dtype.push(p.dtype);
            match &p.kind {
                ParamKind::Scalar { .. } => {
                    buf_base.push(0);
                    buf_len.push(0);
                }
                ParamKind::BufIn { len } => {
                    let base = engine.mem_alloc(*len as u64 * p.dtype.bytes());
                    let bytes = p.dtype.bytes();
                    for (j, &raw) in bindings.inputs[i].iter().enumerate() {
                        engine
                            .mem_mut()
                            .write_raw(base + j as u64 * bytes, bytes, raw);
                    }
                    buf_base.push(base);
                    buf_len.push(*len);
                }
                ParamKind::BufOut { len } => {
                    let base = engine.mem_alloc(*len as u64 * p.dtype.bytes());
                    buf_base.push(base);
                    buf_len.push(*len);
                    out_params.push(i);
                }
            }
        }
        engine.vsetwidth(ck.kernel_width);
        // Dense value numbering: every VReg the code mentions gets a slot
        // in first-appearance order, and each op's uses/def/last-use frees
        // are resolved to slots up front (spill reloads redefine the
        // spilled value's own slot, so the dtype recorded at the original
        // definition carries over).
        let lv = liveness(&ck.code);
        let mut slot_of: HashMap<VReg, u32> = HashMap::new();
        let mut slot_dtype: Vec<DType> = Vec::new();
        let mut slot = |v: VReg, dtypes: &mut Vec<DType>| -> u32 {
            *slot_of.entry(v).or_insert_with(|| {
                dtypes.push(DType::U8); // overwritten at the defining op
                (dtypes.len() - 1) as u32
            })
        };
        let mut plans = Vec::with_capacity(ck.code.len());
        for (i, op) in ck.code.iter().enumerate() {
            let uses: Vec<u32> = op.uses.iter().map(|&u| slot(u, &mut slot_dtype)).collect();
            let def = op.def.map(|d| slot(d, &mut slot_dtype));
            if let (Some(sem), Some(d)) = (&op.sem, def) {
                slot_dtype[d as usize] = sem.dtype;
            }
            let mut frees: Vec<u32> = op
                .uses
                .iter()
                .zip(&uses)
                .filter(|(u, _)| lv.last_use.get(u) == Some(&i))
                .map(|(_, &s)| s)
                .collect();
            frees.dedup();
            plans.push(OpPlan { uses, def, frees });
        }
        Ok(Self {
            engine,
            values: vec![None; slot_dtype.len()],
            spill_slots: vec![None; slot_dtype.len()],
            reduce_scratch: vec![None; ck.code.len()],
            plans,
            slot_dtype,
            code: ck.code.clone(),
            scalars: bindings.scalars.clone(),
            buf_base,
            buf_len,
            buf_dtype,
            out_params,
            dimc: None,
            lens: [None; MAX_DIMS],
            ld_str: [None; MAX_DIMS],
            st_str: [None; MAX_DIMS],
            line_markers: false,
        })
    }

    /// Enables per-source-line attribution markers for subsequent runs
    /// (see the `line_markers` field). The engine-construction events
    /// already emitted (geometry `vsetwidth`) stay unattributed — they
    /// land in the line-0 `<toplevel>` bucket by design.
    pub fn set_line_markers(&mut self, on: bool) {
        self.line_markers = on;
    }

    /// The engine (trace access, memory inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (taking the trace between runs).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn ensure_shape(&mut self, dims: &[usize]) {
        if self.dimc != Some(dims.len()) {
            self.engine.vsetdimc(dims.len());
            self.dimc = Some(dims.len());
        }
        for (d, &len) in dims.iter().enumerate() {
            if self.lens[d] != Some(len) {
                self.engine.vsetdiml(d, len);
                self.lens[d] = Some(len);
            }
        }
    }

    fn ensure_cr_strides(&mut self, cr: &[(usize, i64)], store: bool) {
        for &(dim, stride) in cr {
            let slot = if store {
                &mut self.st_str[dim]
            } else {
                &mut self.ld_str[dim]
            };
            if *slot != Some(stride) {
                if store {
                    self.engine.vsetststr(dim, stride);
                } else {
                    self.engine.vsetldstr(dim, stride);
                }
                *slot = Some(stride);
            }
        }
    }

    /// The whole-register spill shape: 1-D across every engine lane.
    fn full_shape(&mut self) {
        let lanes = self.engine.lanes();
        self.ensure_shape(&[lanes]);
    }

    /// The Section IV vertical tree reduction, mirrored from the
    /// hand-written kernels' `tree_reduce` (halve while the length stays a
    /// power of two above 256, then finish on the scalar core) — except
    /// the source register is *not* freed (the generic last-use accounting
    /// owns that), and the result is broadcast under `shape`.
    fn reduce(
        &mut self,
        op_index: usize,
        src: Reg,
        shape: &[usize],
        op: BinOp,
        dtype: DType,
    ) -> Reg {
        let total: usize = shape.iter().product();
        let opcode = binop_opcode(op);
        let lanes = self.engine.lanes();
        let scratch = match self.reduce_scratch[op_index] {
            Some(s) => s,
            None => {
                let s = self.engine.mem_alloc(lanes as u64 * dtype.bytes());
                self.reduce_scratch[op_index] = Some(s);
                s
            }
        };
        let stop = if total.is_power_of_two() {
            total.min(256)
        } else {
            total
        };
        let mut m = total;
        let mut cur = src;
        if m > stop {
            // One [m/2, 2] fold shape for the whole halving loop (the
            // CR-amortisation the ISA is designed around).
            self.ensure_shape(&[m / 2, 2]);
            while m > stop {
                if self.lens[0] != Some(m / 2) {
                    self.engine.vsetdiml(0, m / 2);
                    self.lens[0] = Some(m / 2);
                }
                self.engine.vunsetmask(0);
                self.engine
                    .store(cur, scratch, &[StrideMode::One, StrideMode::Seq]);
                self.engine.vresetmask();
                let upper = self.engine.load(
                    dtype,
                    scratch + (m / 2) as u64 * dtype.bytes(),
                    &[StrideMode::One, StrideMode::Zero],
                );
                let sum = self.engine.binop(opcode, op, cur, upper);
                if cur != src {
                    self.engine.free(cur);
                }
                self.engine.free(upper);
                cur = sum;
                m /= 2;
                self.engine.scalar(8);
            }
        }
        // Store the ≤`stop` partials and finish on the scalar core.
        self.ensure_shape(&[stop]);
        self.engine.store(cur, scratch, &[StrideMode::One]);
        if cur != src {
            self.engine.free(cur);
        }
        self.engine.scalar(2 * stop as u64);
        let bytes = dtype.bytes();
        let mut acc = 0u64;
        for i in 0..stop {
            let raw = self
                .engine
                .mem()
                .read_raw(scratch + i as u64 * bytes, bytes);
            acc = if i == 0 {
                raw
            } else {
                dtype.binop(op, acc, raw)
            };
        }
        // Broadcast the result under the op's own shape, so every lane a
        // later use can read holds the reduced value.
        self.ensure_shape(shape);
        self.engine.setdup(dtype, acc)
    }

    /// Executes the allocated code once.
    ///
    /// # Panics
    ///
    /// Panics only on internal invariant violations (the compile pipeline
    /// validates everything user-controlled).
    pub fn run(&mut self) {
        let code = std::mem::take(&mut self.code);
        let plans = std::mem::take(&mut self.plans);
        // Attribution state for this run: 0 = `<toplevel>` (construction
        // events before the first marked op). A marker is emitted only on
        // a line *change*, so straight-line runs of same-line ops cost
        // one marker, and a disabled executor emits none at all.
        let mut cur_line = 0u32;
        for (i, (op, plan)) in code.iter().zip(&plans).enumerate() {
            if self.line_markers && op.span.line != cur_line {
                cur_line = op.span.line;
                self.engine.mark_line(cur_line);
            }
            match (&op.sem, op.name.as_str()) {
                (None, SPILL_STORE) => {
                    let victim = plan.uses[0] as usize;
                    let reg = self.values[victim]
                        .take()
                        .expect("spilled value is in a register");
                    let lanes = self.engine.lanes();
                    let dtype = self.slot_dtype[victim];
                    let slot = match self.spill_slots[victim] {
                        Some(s) => s,
                        None => {
                            let s = self.engine.mem_alloc(lanes as u64 * dtype.bytes());
                            self.spill_slots[victim] = Some(s);
                            s
                        }
                    };
                    // The allocator spills whole registers: all lanes, so
                    // the value survives any later shape.
                    self.full_shape();
                    self.engine.store(reg, slot, &[StrideMode::One]);
                    self.engine.free(reg);
                }
                (None, SPILL_RELOAD) => {
                    let def = plan.def.expect("reload defines its register") as usize;
                    let dtype = self.slot_dtype[def];
                    let slot = self.spill_slots[def].expect("reload follows its spill");
                    self.full_shape();
                    let reg = self.engine.load(dtype, slot, &[StrideMode::One]);
                    self.values[def] = Some(reg);
                }
                (Some(sem), _) => {
                    // `code` was moved out of `self`, so borrowing the op's
                    // Sem conflicts with nothing — no per-op clone of the
                    // shape/stride vectors on the execution hot path.
                    let reg = match &sem.action {
                        Action::Splat(source) => {
                            self.ensure_shape(&sem.shape);
                            let raw = match source {
                                SplatSource::Imm(raw) => *raw,
                                SplatSource::Param(p) => self.scalars[*p],
                            };
                            Some(self.engine.setdup(sem.dtype, raw))
                        }
                        Action::Load {
                            param,
                            elem_offset,
                            modes,
                            cr_strides,
                        } => {
                            self.ensure_shape(&sem.shape);
                            self.ensure_cr_strides(cr_strides, false);
                            let base = self.buf_base[*param] + elem_offset * sem.dtype.bytes();
                            Some(self.engine.load(sem.dtype, base, modes))
                        }
                        Action::Store {
                            param,
                            elem_offset,
                            modes,
                            cr_strides,
                        } => {
                            self.ensure_shape(&sem.shape);
                            self.ensure_cr_strides(cr_strides, true);
                            let base = self.buf_base[*param] + elem_offset * sem.dtype.bytes();
                            let src = self.values[plan.uses[0] as usize].expect("store source");
                            self.engine.store(src, base, modes);
                            None
                        }
                        Action::Binop { opcode, op: binop } => {
                            self.ensure_shape(&sem.shape);
                            let a = self.values[plan.uses[0] as usize].expect("binop lhs");
                            let b = self.values[plan.uses[1] as usize].expect("binop rhs");
                            Some(self.engine.binop(*opcode, *binop, a, b))
                        }
                        Action::ShiftImm { amount, left } => {
                            self.ensure_shape(&sem.shape);
                            let a = self.values[plan.uses[0] as usize].expect("shift source");
                            Some(self.engine.shift_imm(a, *amount, *left, false))
                        }
                        Action::Reduce { op: rop } => {
                            self.ensure_shape(&sem.shape);
                            let src = self.values[plan.uses[0] as usize].expect("reduce source");
                            Some(self.reduce(i, src, &sem.shape, *rop, sem.dtype))
                        }
                    };
                    if let (Some(def), Some(reg)) = (plan.def, reg) {
                        self.values[def as usize] = Some(reg);
                    }
                }
                (None, other) => unreachable!("op `{other}` has no execution semantics"),
            }
            // Free values whose last use this op was (the allocator freed
            // the physical register at the same point).
            for &f in &plan.frees {
                if let Some(reg) = self.values[f as usize].take() {
                    self.engine.free(reg);
                }
            }
        }
        self.code = code;
        self.plans = plans;
        // Any still-live registers are dead program results (impossible
        // after DCE) — free defensively so repeated runs cannot leak.
        for v in &mut self.values {
            if let Some(reg) = v.take() {
                self.engine.free(reg);
            }
        }
    }

    /// Raw output elements per parameter index (`None` for non-outputs).
    pub fn outputs(&self) -> RawOutputs {
        let mut out = vec![None; self.buf_base.len()];
        for &p in &self.out_params {
            let bytes = self.buf_dtype[p].bytes();
            let base = self.buf_base[p];
            out[p] = Some(
                (0..self.buf_len[p])
                    .map(|j| self.engine.mem().read_raw(base + j as u64 * bytes, bytes))
                    .collect(),
            );
        }
        out
    }
}

/// The functional-check outcome of one compiled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Output elements compared against the interpreter.
    pub compared: usize,
    /// Elements that disagreed.
    pub mismatches: usize,
}

/// Exact raw comparison of executor outputs against the interpreter's —
/// the one comparison rule every checked path shares.
pub fn compare_outputs(got: &RawOutputs, want: &RawOutputs) -> CheckOutcome {
    let mut compared = 0usize;
    let mut mismatches = 0usize;
    for (g, w) in got.iter().zip(want) {
        if let (Some(g), Some(w)) = (g, w) {
            compared += g.len().min(w.len());
            mismatches += g.iter().zip(w).filter(|(a, b)| a != b).count();
            mismatches += g.len().abs_diff(w.len());
        }
    }
    CheckOutcome {
        compared,
        mismatches,
    }
}

/// Compiles, executes and checks a kernel, returning the executor (with
/// its trace still attached), the interpreter's reference outputs and the
/// comparison.
pub fn run_checked(
    ck: &CompiledKernel,
    bindings: &Bindings,
) -> (Executor, RawOutputs, CheckOutcome) {
    let mut ex = Executor::new(ck, bindings);
    ex.run();
    let want = interpret(&ck.ast, &ck.program.params, bindings);
    let check = compare_outputs(&ex.outputs(), &want);
    (ex, want, check)
}

/// Compiles `source`, executes it with deterministic bindings, checks it
/// against the interpreter, times the trace under `cfg`, and renders the
/// deterministic text artefact every front-end shares: the corpus goldens,
/// `reproduce --dsl` outputs and the serve `compile` reply are all this
/// function's bytes.
pub fn compile_and_render(source: &str, cfg: &SimConfig) -> Result<String, Diag> {
    compile_and_render_timed(source, cfg).map(|(text, _)| text)
}

/// [`compile_and_render`], plus the per-phase compile timings. The
/// rendered text is byte-identical to [`compile_and_render`] — timings
/// ride alongside, never inside, the deterministic artefact.
pub fn compile_and_render_timed(
    source: &str,
    cfg: &SimConfig,
) -> Result<(String, CompilePhases), Diag> {
    use std::fmt::Write as _;
    let (ck, phases) = compile_timed(source)?;
    let bindings = Bindings::deterministic(&ck.program);
    // Execute under the *timing* configuration's geometry, so the trace
    // and the simulation always agree on the array count (the serve
    // protocol pins compile requests to the default geometry; the library
    // API honors whatever the caller asks for, or fails cleanly).
    let mut ex = Executor::with_geometry(&ck, &bindings, cfg.geometry)?;
    ex.run();
    let want = interpret(&ck.ast, &ck.program.params, &bindings);
    let outs = ex.outputs();
    let check = compare_outputs(&outs, &want);
    if check.mismatches != 0 {
        return Err(Diag::nowhere(format!(
            "internal consistency failure: compiled kernel diverges from the reference \
             interpreter on {} of {} elements",
            check.mismatches, check.compared
        )));
    }
    let trace = ex.engine_mut().take_trace();
    let mix = trace.instr_mix();
    let report = simulate(&trace, cfg);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "mvel kernel `{}` — compiled by mve-lang",
        ck.program.name
    );
    let _ = writeln!(s, "digest: {:#018x}", ck.source_digest);
    let mut params = String::new();
    for (i, p) in ck.program.params.iter().enumerate() {
        if i > 0 {
            params.push_str(", ");
        }
        match &p.kind {
            ParamKind::Scalar { .. } => {
                let _ = write!(params, "{}: {}", p.name, dtype_name(p.dtype));
            }
            ParamKind::BufIn { len } => {
                let _ = write!(params, "{}: buf<{}>[{len}]", p.name, dtype_name(p.dtype));
            }
            ParamKind::BufOut { len } => {
                let _ = write!(
                    params,
                    "{}: mut buf<{}>[{len}]",
                    p.name,
                    dtype_name(p.dtype)
                );
            }
        }
    }
    let _ = writeln!(s, "params: {params}");
    let _ = writeln!(
        s,
        "width: {} bits; registers: capacity={} budget={} reserved={}",
        ck.kernel_width, ck.capacity, ck.budget, ck.reserved
    );
    let _ = writeln!(
        s,
        "ops: lowered={} allocated={} spill_stores={} reloads={}",
        ck.program.ops.len(),
        ck.code.len(),
        ck.spill_stores,
        ck.reloads
    );
    let _ = writeln!(
        s,
        "mix: config={} moves={} mem={} arith={} scalar={}",
        mix.config, mix.moves, mix.mem_access, mix.arithmetic, mix.scalar
    );
    let _ = writeln!(
        s,
        "check: compared={} mismatches={}",
        check.compared, check.mismatches
    );
    for (i, p) in ck.program.params.iter().enumerate() {
        if let ParamKind::BufOut { .. } = p.kind {
            let out = outs[i].as_ref().expect("output buffer");
            let digest = {
                let mut bytes = Vec::with_capacity(out.len() * 8);
                for v in out {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                fnv1a_64(&bytes)
            };
            let head: Vec<String> = out.iter().take(4).map(|v| format!("{:#x}", v)).collect();
            let _ = writeln!(
                s,
                "out `{}`: digest={digest:#018x} head=[{}]",
                p.name,
                head.join(", ")
            );
        }
    }
    let _ = writeln!(
        s,
        "timing: scheme={} arrays={} ooo={} mode_switch={} cache_warming={}",
        cfg.scheme.short_name(),
        cfg.geometry.arrays,
        cfg.ooo_dispatch,
        cfg.include_mode_switch,
        cfg.warm_caches
    );
    let _ = writeln!(
        s,
        "cycles: total={} compute={} data={} idle={} cb_busy={} cbs={}",
        report.total_cycles,
        report.compute_cycles,
        report.data_cycles,
        report.idle_cycles,
        report.cb_busy_cycles,
        report.control_blocks
    );
    let _ = writeln!(
        s,
        "instrs: vector={} scalar={}",
        report.vector_instrs, report.scalar_instrs
    );
    let _ = writeln!(
        s,
        "energy: array_cycles={} tmu_transfers={}",
        report.energy.array_active_cycles, report.energy.tmu_element_transfers
    );
    let _ = writeln!(s, "util: {:.6}", report.utilization());
    Ok((s, phases))
}
