//! The functional MVE vector engine.
//!
//! Holds the physical register file (Section III-B: a *variable* number of
//! registers bounded by the 256 word-lines divided by the kernel width), the
//! Tag-latch predicate state, the controller CRs, the functional memory and
//! the dynamic trace. Every operation computes functionally (word-level fast
//! path, validated against the bit-serial array model of `mve-insram`) and
//! appends a trace event for the timing simulator.
//!
//! The typed `__mdv`-style intrinsics (`vadd_dw`, `vsld_f`, …) live in
//! [`crate::intrinsics`]; this module provides the untyped core operations
//! they wrap.

use crate::addrgen::{self, RowPlan, StrideBank};
use crate::config::{ControlRegs, MAX_MASK_LEN};
use crate::dtype::{BinOp, CmpOp, DType, Lane};
use crate::isa::{Opcode, StrideMode};
use crate::layout::LogicalShape;
use crate::mem::{MemScalar, Memory};
use crate::trace::{alu_op_for, Event, Trace};
use mve_insram::scheme::EngineGeometry;
use mve_memsim::LineSet;
use mve_obs::{logev, Level};

/// A handle to a live in-cache physical register.
///
/// Handles are `Copy` for ergonomics (mirroring C intrinsic variables);
/// release registers with [`Engine::free`] when the kernel is done with a
/// temporary — the physical register file is small (Section III-G).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reg {
    idx: usize,
    dtype: DType,
}

impl Reg {
    /// Element type of the register.
    pub fn dtype(&self) -> DType {
        self.dtype
    }
}

/// A register's lanes, stored at the element width of its dtype
/// ([`Lane`]): an i8 register moves one byte per lane, not eight.
#[derive(Debug, Clone)]
enum LaneBuf {
    W8(Vec<u8>),
    W16(Vec<u16>),
    W32(Vec<u32>),
    W64(Vec<u64>),
}

/// Evaluates `$body` with `$v` bound to the typed lane vector of `$buf`.
macro_rules! on_lanes {
    ($buf:expr, $v:ident => $body:expr) => {
        match $buf {
            LaneBuf::W8($v) => $body,
            LaneBuf::W16($v) => $body,
            LaneBuf::W32($v) => $body,
            LaneBuf::W64($v) => $body,
        }
    };
}

/// Evaluates `$body` with the type `$t` naming the lane storage of
/// elements `$bytes` wide: the one width dispatch of an instruction.
macro_rules! by_width {
    ($bytes:expr, $t:ident => $body:expr) => {
        match $bytes {
            1 => {
                type $t = u8;
                $body
            }
            2 => {
                type $t = u16;
                $body
            }
            4 => {
                type $t = u32;
                $body
            }
            _ => {
                type $t = u64;
                $body
            }
        }
    };
}

impl LaneBuf {
    /// `n` zero lanes of `bytes` bytes each.
    fn zeroed(bytes: u64, n: usize) -> Self {
        by_width!(bytes, T => T::wrap(vec![0; n]))
    }

    /// Lane width in bytes.
    fn width(&self) -> u64 {
        match self {
            LaneBuf::W8(_) => 1,
            LaneBuf::W16(_) => 2,
            LaneBuf::W32(_) => 4,
            LaneBuf::W64(_) => 8,
        }
    }

    /// The canonical value of one lane.
    #[inline]
    fn get(&self, lane: usize) -> u64 {
        on_lanes!(self, v => v[lane].widen())
    }

    /// Stores the low bytes of `raw` into one lane.
    #[inline]
    fn set(&mut self, lane: usize, raw: u64) {
        on_lanes!(self, v => v[lane] = Lane::narrow(raw))
    }
}

impl Default for LaneBuf {
    /// The allocation-free placeholder [`Engine::take_lanes`] leaves.
    fn default() -> Self {
        LaneBuf::W8(Vec::new())
    }
}

/// A lane storage type and its [`LaneBuf`] variant.
trait Storage: Lane {
    fn wrap(v: Vec<Self>) -> LaneBuf;
    fn of(buf: &LaneBuf) -> &[Self];
    fn of_mut(buf: &mut LaneBuf) -> &mut [Self];
}

macro_rules! storage_impl {
    ($t:ty, $var:ident) => {
        impl Storage for $t {
            fn wrap(v: Vec<Self>) -> LaneBuf {
                LaneBuf::$var(v)
            }

            fn of(buf: &LaneBuf) -> &[Self] {
                match buf {
                    LaneBuf::$var(v) => v,
                    _ => unreachable!("register lanes are {} bytes wide", buf.width()),
                }
            }

            fn of_mut(buf: &mut LaneBuf) -> &mut [Self] {
                match buf {
                    LaneBuf::$var(v) => v,
                    _ => unreachable!("register lanes are {} bytes wide", buf.width()),
                }
            }
        }
    };
}

storage_impl!(u8, W8);
storage_impl!(u16, W16);
storage_impl!(u32, W32);
storage_impl!(u64, W64);

#[derive(Debug, Clone)]
struct Slot {
    dtype: DType,
    lanes: LaneBuf,
    live: bool,
    /// Dirty bound: every lane at or above it is zero, so a zeroing alloc
    /// that reuses the buffer clears only `lanes[..dirty]`. Each writer
    /// raises it past the highest lane it can touch.
    dirty: usize,
}

/// Cached packed lane-activity bitset, derived from the CRs' shape and
/// dimension-level mask (Section III-E) and invalidated by the CR
/// [`ControlRegs::generation`] counter. One bit per lane; masking checks on
/// the compute hot path become word-ops on this set instead of per-lane
/// coordinate recomputation.
#[derive(Debug)]
struct LaneMask {
    /// CR generation this cache was built against (`u64::MAX` = never).
    gen: u64,
    /// One bit per lane of the current shape, 1 = active under the mask.
    words: Vec<u64>,
    /// Lanes covered (`shape.total()` capped to the engine width).
    total: usize,
    /// Popcount of `words`.
    active: u32,
    /// Control Blocks with at least one active lane.
    cb_mask: u64,
}

impl LaneMask {
    fn empty() -> Self {
        Self {
            gen: u64::MAX,
            words: Vec::new(),
            total: 0,
            active: 0,
            cb_mask: 0,
        }
    }
}

/// Sets bits `[start, end)` of a packed bitset.
fn set_bit_range(words: &mut [u64], start: usize, end: usize) {
    let (first_w, last_w) = (start / 64, (end - 1) / 64);
    let lo = !0u64 << (start % 64);
    let hi = !0u64 >> (63 - (end - 1) % 64);
    if first_w == last_w {
        words[first_w] |= lo & hi;
    } else {
        words[first_w] |= lo;
        for w in &mut words[first_w + 1..last_w] {
            *w = !0;
        }
        words[last_w] |= hi;
    }
}

/// Reads bit `lane` of a packed bitset.
#[inline]
fn bit(words: &[u64], lane: usize) -> bool {
    words[lane / 64] >> (lane % 64) & 1 == 1
}

/// Calls `f` for every set bit, by word-level bit scanning.
#[inline]
fn for_each_set_bit(words: impl Iterator<Item = u64>, mut f: impl FnMut(usize)) {
    for (w, word) in words.enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// A decomposition unit of the enabled-lane bitset (see
/// [`for_each_enabled_span`]).
enum Span {
    /// `[start, end)` — every lane enabled; handled by a block kernel.
    Run(usize, usize),
    /// A straggler lane from a partially-enabled mask word.
    Lane(usize),
}

/// Decomposes an enabled-lane bitset into maximal fully-enabled
/// [`Span::Run`] ranges (word-coalesced) and [`Span::Lane`] stragglers
/// from partially-enabled words. Spans are produced in ascending lane
/// order, so consumers observe lanes exactly as the per-lane walk would;
/// [`for_each_enabled_run`] merges adjacent ones.
fn enabled_spans(words: impl Iterator<Item = u64>, total: usize, mut f: impl FnMut(Span)) {
    let mut run_start: Option<usize> = None;
    let mut covered = 0usize;
    for (w, word) in words.enumerate() {
        let base = w * 64;
        if base >= total {
            break;
        }
        let span = (total - base).min(64);
        let full = if span == 64 {
            !0u64
        } else {
            (1u64 << span) - 1
        };
        let word = word & full;
        covered = base + span;
        if word == full {
            run_start.get_or_insert(base);
            continue;
        }
        if let Some(s) = run_start.take() {
            f(Span::Run(s, base));
        }
        let mut bits = word;
        while bits != 0 {
            f(Span::Lane(base + bits.trailing_zeros() as usize));
            bits &= bits - 1;
        }
    }
    if let Some(s) = run_start.take() {
        f(Span::Run(s, covered));
    }
}

/// [`enabled_spans`] over the cached mask (and, when `pred`, the Tag
/// latch).
fn for_each_enabled_span(
    mask_words: &[u64],
    tag_words: &[u64],
    pred: bool,
    total: usize,
    f: impl FnMut(Span),
) {
    if pred {
        enabled_spans(
            mask_words.iter().zip(tag_words).map(|(&m, &t)| m & t),
            total,
            f,
        );
    } else {
        enabled_spans(mask_words.iter().copied(), total, f);
    }
}

/// The Control-Block occupancy mask of a packed lane bitset.
fn cb_mask_of(words: &[u64], per_cb: usize) -> u64 {
    let mut cb_mask = 0u64;
    for (w, &word) in words.iter().enumerate() {
        if word == 0 {
            continue;
        }
        let first_cb = w * 64 / per_cb;
        if (w * 64 + 63) / per_cb == first_cb {
            cb_mask |= 1 << first_cb;
        } else {
            // A word straddling a CB boundary (per_cb not a multiple of 64):
            // fall back to per-bit attribution within this word only.
            let mut bits = word;
            while bits != 0 {
                let lane = w * 64 + bits.trailing_zeros() as usize;
                cb_mask |= 1 << (lane / per_cb);
                bits &= bits - 1;
            }
        }
    }
    cb_mask
}

/// Control Blocks covering lanes `[lo, hi)` (`hi > lo`).
fn cb_range(lo: usize, hi: usize, per_cb: usize) -> u64 {
    let (first, last) = (lo / per_cb, (hi - 1) / per_cb);
    (u64::MAX >> (63 - last)) & (u64::MAX << first)
}

/// One row of a memory access as an ISA layer describes it to
/// [`Engine::load_rows`] / [`Engine::store_rows`]: `len` lanes from `lane`
/// on, lane `lane + k` at byte address `addr + k·stride·element_bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// First lane.
    pub lane: usize,
    /// Lanes in the row.
    pub len: usize,
    /// Byte address of the first lane's element.
    pub addr: u64,
    /// Element stride along the row (may be zero or negative).
    pub stride: i64,
}

impl Row {
    /// A row of `len` lanes from `lane` on, at `addr` with element `stride`.
    pub fn new(lane: usize, len: usize, addr: u64, stride: i64) -> Self {
        Self {
            lane,
            len,
            addr,
            stride,
        }
    }
}

/// Walks the row segments of an access: calls `f(lo, hi, addr)` for every
/// maximal run `[lo, hi)` of enabled lanes (the mask's spans and, when
/// `pred`, the Tag latch's) inside one row of `plan`, in ascending lane
/// order, with `addr` the byte address of lane `lo`.
fn for_each_row_segment(
    mask: &LaneMask,
    tag: &[u64],
    pred: bool,
    plan: &RowPlan,
    bases: &[u64],
    elem_bytes: u64,
    f: &mut dyn FnMut(usize, usize, u64),
) {
    let (row_len, step) = (
        plan.row_len(),
        plan.stride().wrapping_mul(elem_bytes as i64),
    );
    let mut row_start = (usize::MAX, 0u64);
    let mut split = |mut lo: usize, hi: usize| {
        while lo < hi {
            let row = lo / row_len;
            if row_start.0 != row {
                row_start = (row, plan.row_addr(row, bases, elem_bytes));
            }
            let end = hi.min((row + 1) * row_len);
            let k = (lo - row * row_len) as i64;
            f(
                lo,
                end,
                row_start.1.wrapping_add(k.wrapping_mul(step) as u64),
            );
            lo = end;
        }
    };
    for_each_enabled_run(mask, tag, pred, &mut split);
}

/// Calls `f(lo, hi)` for every maximal run `[lo, hi)` of enabled lanes
/// (the mask's spans and, when `pred`, the Tag latch's), in ascending
/// lane order: adjacent spans and straggler lanes merge into one run.
/// Compiled once, not once per caller and lane width.
#[inline(never)]
fn for_each_enabled_run(mask: &LaneMask, tag: &[u64], pred: bool, f: &mut dyn FnMut(usize, usize)) {
    if !pred && mask.active as usize == mask.total {
        // A fully active shape is one run; skip the word scan.
        if mask.total > 0 {
            f(0, mask.total);
        }
        return;
    }
    let mut run: Option<(usize, usize)> = None;
    for_each_enabled_span(&mask.words, tag, pred, mask.total, |sp| {
        let (s, e) = match sp {
            Span::Run(s, e) => (s, e),
            Span::Lane(l) => (l, l + 1),
        };
        match &mut run {
            Some((_, hi)) if *hi == s => *hi = e,
            _ => {
                if let Some((lo, hi)) = run.replace((s, e)) {
                    f(lo, hi);
                }
            }
        }
    });
    if let Some((lo, hi)) = run {
        f(lo, hi);
    }
}

/// Appends the cache lines of the byte span `[addr, addr + len)`, `len > 0`.
fn push_span_lines(lines: &mut Vec<u64>, addr: u64, len: u64) {
    lines.extend(addr / mve_memsim::LINE_BYTES..=(addr + len - 1) / mve_memsim::LINE_BYTES);
}

/// The lanes a row segment moves: loaded into, or stored from.
enum Lanes<'a, T> {
    Load(&'a mut [T]),
    Store(&'a [T]),
}

/// Copies one non-empty row segment between memory and lanes and appends
/// its touched lines: stride 1 is a block copy, stride 0 a broadcast (a
/// store keeps the last lane, as every lane writes the same element), any
/// other stride a lane-by-lane gather or scatter. A block that would fault
/// takes the lane-by-lane walk instead, so the fault names the same
/// address.
fn copy_row<T: Lane>(
    mem: &mut Memory,
    lanes: Lanes<T>,
    addr: u64,
    stride: i64,
    lines: &mut Vec<u64>,
) {
    let eb = T::BYTES as u64;
    let n = match &lanes {
        Lanes::Load(out) => out.len(),
        Lanes::Store(vals) => vals.len(),
    };
    let len = n as u64 * eb;
    match (stride, lanes) {
        (1, Lanes::Load(out)) if mem.fits(addr, len) => {
            T::load_block(mem.slice(addr, len), out);
            push_span_lines(lines, addr, len);
        }
        (1, Lanes::Store(vals)) if mem.fits(addr, len) => {
            T::store_block(vals, mem.slice_mut(addr, len));
            push_span_lines(lines, addr, len);
        }
        (0, Lanes::Load(out)) => {
            out.fill(T::narrow(mem.read_raw(addr, eb)));
            push_span_lines(lines, addr, eb);
        }
        (0, Lanes::Store(vals)) => {
            mem.write_raw(addr, eb, vals[n - 1].widen());
            push_span_lines(lines, addr, eb);
        }
        (_, mut lanes) => {
            let step = stride.wrapping_mul(eb as i64) as u64;
            let (mut a, mut prev) = (addr, u64::MAX);
            for k in 0..n {
                match &mut lanes {
                    Lanes::Load(out) => out[k] = T::narrow(mem.read_raw(a, eb)),
                    Lanes::Store(vals) => mem.write_raw(a, eb, vals[k].widen()),
                }
                addrgen::push_line_range(lines, &mut prev, a, eb);
                a = a.wrapping_add(step);
            }
        }
    }
}

/// The functional engine.
#[derive(Debug)]
pub struct Engine {
    geom: EngineGeometry,
    crs: ControlRegs,
    slots: Vec<Slot>,
    /// Tag-latch predicate state, one bit per lane.
    tag: Vec<u64>,
    pred: bool,
    mem: Memory,
    /// Every event executed so far, in order.
    trace: Trace,
    mask: LaneMask,
    /// Reused per-instruction scratch (zero steady-state allocation):
    /// touched-line accumulation and random-access base pointers.
    line_scratch: Vec<u64>,
    base_scratch: Vec<u64>,
}

impl Engine {
    /// An engine with the paper's mobile configuration: 32 arrays → 8192
    /// lanes, and a 64 MiB functional memory.
    pub fn default_mobile() -> Self {
        Self::new(EngineGeometry::default(), Memory::default())
    }

    /// An engine over explicit geometry and memory.
    pub fn new(geom: EngineGeometry, mem: Memory) -> Self {
        let lanes = geom.total_bitlines();
        Self {
            geom,
            crs: ControlRegs::new(),
            slots: Vec::new(),
            tag: vec![0; lanes.div_ceil(64)],
            pred: false,
            mem,
            trace: Trace::new(),
            mask: LaneMask::empty(),
            line_scratch: Vec::new(),
            base_scratch: Vec::new(),
        }
    }

    /// SIMD lane count (8192 for the default geometry).
    pub fn lanes(&self) -> usize {
        self.geom.total_bitlines()
    }

    /// Engine geometry.
    pub fn geometry(&self) -> &EngineGeometry {
        &self.geom
    }

    /// Read-only view of the control registers.
    pub fn crs(&self) -> &ControlRegs {
        &self.crs
    }

    /// Records one event in the trace.
    ///
    /// With `MVE_LOG=debug` every event also emits a structured log line;
    /// otherwise the hook is a single relaxed atomic load (the `logev!`
    /// gate), which the `log_gate_disabled` perf workload pins.
    fn emit(&mut self, event: Event) {
        if mve_obs::log::enabled(mve_obs::Level::Debug) {
            match &event {
                Event::Config { opcode } => {
                    logev!(
                        Level::Debug,
                        "engine.event",
                        kind = "config",
                        op = opcode.mnemonic()
                    );
                }
                Event::Compute {
                    opcode,
                    active_lanes,
                    ..
                } => {
                    logev!(
                        Level::Debug,
                        "engine.event",
                        kind = "compute",
                        op = opcode.mnemonic(),
                        lanes = u64::from(*active_lanes),
                    );
                }
                Event::Memory {
                    opcode,
                    active_lanes,
                    lines,
                    write,
                    ..
                } => {
                    logev!(
                        Level::Debug,
                        "engine.event",
                        kind = "memory",
                        op = opcode.mnemonic(),
                        lanes = u64::from(*active_lanes),
                        lines = lines.len() as u64,
                        write = *write,
                    );
                }
                Event::Scalar { instrs } => {
                    logev!(
                        Level::Debug,
                        "engine.event",
                        kind = "scalar",
                        instrs = *instrs
                    );
                }
                Event::SrcLine { line } => {
                    logev!(
                        Level::Debug,
                        "engine.event",
                        kind = "src_line",
                        line = u64::from(*line)
                    );
                }
            }
        }
        self.trace.push(event);
    }

    /// Emits a source-attribution marker: subsequent events were emitted
    /// by code lowered from source line `line` (1-based; 0 resets to the
    /// `<toplevel>` bucket). A marker is not an instruction (the mix and
    /// timing models ignore it), so an executor that never calls this
    /// produces the exact event stream it always did.
    pub fn mark_line(&mut self, line: u32) {
        self.emit(Event::SrcLine { line });
    }

    /// The dynamic trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Takes the trace, leaving an empty one.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Clears the recorded trace.
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }

    // ------------------------------------------------------------------
    // Functional memory access (host-side, not traced).
    // ------------------------------------------------------------------

    /// Allocates raw bytes in the functional memory.
    pub fn mem_alloc(&mut self, bytes: u64) -> u64 {
        self.mem.alloc(bytes)
    }

    /// Allocates `count` elements of `T`.
    pub fn mem_alloc_typed<T: MemScalar>(&mut self, count: usize) -> u64 {
        self.mem.alloc_typed::<T>(count)
    }

    /// Fills memory at `base` from a slice.
    pub fn mem_fill<T: MemScalar>(&mut self, base: u64, values: &[T]) {
        self.mem.fill(base, values);
    }

    /// Reads element `idx` of a `T` array at `base`.
    pub fn mem_read<T: MemScalar>(&self, base: u64, idx: usize) -> T {
        self.mem.read(base, idx)
    }

    /// Reads `count` elements at `base`.
    pub fn mem_read_vec<T: MemScalar>(&self, base: u64, count: usize) -> Vec<T> {
        self.mem.read_vec(base, count)
    }

    /// Convenience for the doc examples: fill with `i32`s.
    pub fn mem_fill_i32(&mut self, base: u64, values: &[i32]) {
        self.mem.fill(base, values);
    }

    /// Convenience for the doc examples: read one `i32`.
    pub fn mem_read_i32(&self, base: u64, idx: usize) -> i32 {
        self.mem.read(base, idx)
    }

    /// Direct access to the functional memory (e.g. for scalar reference
    /// implementations sharing buffers with the vector kernel).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to the functional memory.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    // ------------------------------------------------------------------
    // Config instructions.
    // ------------------------------------------------------------------

    fn config_event(&mut self, opcode: Opcode) {
        self.emit(Event::Config { opcode });
    }

    /// `vsetdimc`: sets the dimension count.
    pub fn vsetdimc(&mut self, count: usize) {
        self.crs.set_dim_count(count);
        self.config_event(Opcode::SetDimCount);
    }

    /// `vsetdiml`: sets the length of dimension `dim`.
    pub fn vsetdiml(&mut self, dim: usize, len: usize) {
        self.crs.set_dim_len(dim, len);
        self.config_event(Opcode::SetDimLength);
    }

    /// `vsetwidth`: sets the kernel register width in bits (Section III-G).
    pub fn vsetwidth(&mut self, bits: u32) {
        self.crs.set_kernel_width(bits);
        self.config_event(Opcode::SetWidth);
    }

    /// `vsetmask`: enables one highest-dimension element.
    pub fn vsetmask(&mut self, idx: usize) {
        self.crs.set_mask(idx);
        self.config_event(Opcode::SetMask);
    }

    /// `vunsetmask`: masks off one highest-dimension element.
    pub fn vunsetmask(&mut self, idx: usize) {
        self.crs.unset_mask(idx);
        self.config_event(Opcode::UnsetMask);
    }

    /// Re-enables all highest-dimension elements (a `vsetmask` broadcast).
    pub fn vresetmask(&mut self) {
        self.crs.reset_mask();
        self.config_event(Opcode::SetMask);
    }

    /// `vsetldstr`: sets the load-stride CR of `dim` (in elements).
    pub fn vsetldstr(&mut self, dim: usize, stride: i64) {
        self.crs.set_load_stride(dim, stride);
        self.config_event(Opcode::SetLoadStride);
    }

    /// `vsetststr`: sets the store-stride CR of `dim` (in elements).
    pub fn vsetststr(&mut self, dim: usize, stride: i64) {
        self.crs.set_store_stride(dim, stride);
        self.config_event(Opcode::SetStoreStride);
    }

    // ------------------------------------------------------------------
    // Register management.
    // ------------------------------------------------------------------

    /// Physical registers available at the current kernel width
    /// (Section III-G: word-lines ÷ width).
    pub fn reg_capacity(&self) -> usize {
        self.geom.wordlines / self.crs.kernel_width() as usize
    }

    /// Currently live registers.
    pub fn live_regs(&self) -> usize {
        self.slots.iter().filter(|s| s.live).count()
    }

    /// Allocates a register of `dtype`.
    ///
    /// # Panics
    ///
    /// Panics if `dtype` is wider than the configured kernel width, or if
    /// the physical register file is exhausted — free temporaries with
    /// [`Engine::free`], as the paper's register allocator would.
    pub fn alloc(&mut self, dtype: DType) -> Reg {
        self.alloc_impl(dtype, true)
    }

    /// [`Engine::alloc`], optionally skipping the zero-fill when the caller
    /// proves every lane will be overwritten (full-coverage fast path).
    fn alloc_impl(&mut self, dtype: DType, zero: bool) -> Reg {
        assert!(
            dtype.bits() <= self.crs.kernel_width(),
            "{dtype} is wider than the kernel width {}; call vsetwidth first",
            self.crs.kernel_width()
        );
        let capacity = self.reg_capacity();
        assert!(
            self.live_regs() < capacity,
            "physical register file exhausted ({capacity} registers of {} bits live); \
             free temporaries (Section III-G register pressure)",
            self.crs.kernel_width()
        );
        let (lanes, bytes) = (self.lanes(), dtype.bytes());
        let free = self
            .slots
            .iter()
            .position(|s| !s.live && s.lanes.width() == bytes);
        if let Some(idx) = free {
            // Reuse a freed slot's buffer of the same width (capacity
            // survives `free`), so a steady-state alloc/free cycle never
            // touches the allocator. Slots keep their width: re-sizing one
            // would free and allocate a buffer at every width change.
            let slot = &mut self.slots[idx];
            slot.dtype = dtype;
            slot.live = true;
            if zero {
                let dirty = slot.dirty;
                on_lanes!(&mut slot.lanes, v => v[..dirty].fill(0));
                slot.dirty = 0;
            } else {
                slot.dirty = lanes;
            }
            Reg { idx, dtype }
        } else {
            self.slots.push(Slot {
                dtype,
                lanes: LaneBuf::zeroed(bytes, lanes),
                live: true,
                dirty: if zero { 0 } else { lanes },
            });
            Reg {
                idx: self.slots.len() - 1,
                dtype,
            }
        }
    }

    /// Allocates a compute/load destination register: when the cached lane
    /// mask proves every engine lane will be written (fully active shape,
    /// no predication filter), the stale-buffer zero-fill is skipped.
    /// Requires a fresh lane mask.
    fn alloc_dst(&mut self, dtype: DType, respect_pred: bool) -> Reg {
        debug_assert_eq!(self.mask.gen, self.crs.generation(), "stale lane mask");
        let full = self.mask.active as usize == self.lanes() && !(respect_pred && self.pred);
        self.alloc_impl(dtype, !full)
    }

    /// Releases a register. The lane buffer is kept for reuse by the next
    /// [`Engine::alloc`] (registers are physical SRAM — the storage never
    /// goes away, only the allocation).
    ///
    /// # Panics
    ///
    /// Panics on double free.
    pub fn free(&mut self, reg: Reg) {
        let slot = &mut self.slots[reg.idx];
        assert!(slot.live, "double free of register {reg:?}");
        slot.live = false;
    }

    fn slot(&self, reg: Reg) -> &Slot {
        let slot = &self.slots[reg.idx];
        assert!(slot.live, "use of freed register {reg:?}");
        debug_assert_eq!(slot.dtype, reg.dtype);
        slot
    }

    /// Canonical lane values of a register, widened to `u64`
    /// (tests/inspection; allocates).
    pub fn reg_lanes(&self, reg: Reg) -> Vec<u64> {
        on_lanes!(&self.slot(reg).lanes, v => v.iter().map(|x| x.widen()).collect())
    }

    /// Directly writes a raw lane value — simulator-internal API used by
    /// baseline ISA layers (e.g. the RVV emulation in `mve-baselines`) that
    /// perform their own functional execution and trace emission.
    /// `raw` is truncated to the element width.
    pub fn set_lane_raw(&mut self, reg: Reg, lane: usize, raw: u64) {
        let slot = &mut self.slots[reg.idx];
        assert!(slot.live, "use of freed register {reg:?}");
        slot.lanes.set(lane, raw);
        slot.dirty = slot.dirty.max(lane + 1);
    }

    /// Appends a raw trace event — simulator-internal API for baseline ISA
    /// layers that model instruction sequences the MVE intrinsics would
    /// never emit (e.g. RVV partial loads and register packing).
    pub fn push_raw_event(&mut self, event: Event) {
        self.emit(event);
    }

    /// One canonical lane value.
    pub fn lane_value(&self, reg: Reg, lane: usize) -> u64 {
        self.slot(reg).lanes.get(lane)
    }

    // ------------------------------------------------------------------
    // Predication.
    // ------------------------------------------------------------------

    /// Turns Tag-latch predication on or off for subsequent compute/store
    /// operations (Section III-E, conventional predicated execution).
    pub fn set_predication(&mut self, on: bool) {
        self.pred = on;
    }

    /// Current per-lane Tag values (tests/inspection; allocates — the
    /// internal representation is a packed bitset).
    pub fn tag_lanes(&self) -> Vec<bool> {
        (0..self.lanes()).map(|l| bit(&self.tag, l)).collect()
    }

    // ------------------------------------------------------------------
    // Shared lane bookkeeping.
    // ------------------------------------------------------------------

    fn shape(&self) -> LogicalShape {
        self.crs.shape()
    }

    /// Rebuilds the cached lane-activity bitset if any CR write touched the
    /// shape or mask since it was last derived (generation mismatch).
    fn refresh_mask(&mut self, shape: &LogicalShape) {
        if self.mask.gen == self.crs.generation() {
            return;
        }
        let total = shape.total().min(self.lanes());
        let highest = shape.highest_dim();
        let dlen = shape.dim(highest);
        let inner = shape.total() / dlen;
        let m = &mut self.mask;
        m.total = total;
        m.words.clear();
        m.words.resize(total.div_ceil(64), 0);
        // Lane activity is constant across each highest-dimension element
        // (a run of `inner` consecutive lanes), and each mask bit covers one
        // element, or a group of consecutive elements when the highest
        // dimension is longer than the mask CR
        // ([`ControlRegs::mask_bit_for`]). Bit `b` covers the elements
        // `[ceil(b * dlen / bits), ceil((b + 1) * dlen / bits))`, so the
        // bitset is built from at most 256 range fills, not per-lane tests.
        let bits = dlen.min(MAX_MASK_LEN);
        let first_coord = |b: usize| (b * dlen).div_ceil(bits);
        for b in 0..bits {
            let start = first_coord(b) * inner;
            if start >= total {
                break;
            }
            if !self.crs.mask_bit(b) {
                continue;
            }
            set_bit_range(&mut m.words, start, (first_coord(b + 1) * inner).min(total));
        }
        m.active = m.words.iter().map(|w| w.count_ones()).sum();
        m.cb_mask = cb_mask_of(&m.words, self.geom.bitlines_per_cb());
        m.gen = self.crs.generation();
    }

    /// `(active lane count, CB occupancy)` for a compute event. Requires a
    /// fresh lane mask ([`Engine::refresh_mask`]).
    fn active_stats(&self, respect_pred: bool) -> (u32, u64) {
        debug_assert_eq!(self.mask.gen, self.crs.generation(), "stale lane mask");
        if !(respect_pred && self.pred) {
            return (self.mask.active, self.mask.cb_mask);
        }
        let mut count = 0u32;
        let mut cb_mask = 0u64;
        let per_cb = self.geom.bitlines_per_cb();
        for (w, (&m, &t)) in self.mask.words.iter().zip(&self.tag).enumerate() {
            let word = m & t;
            if word == 0 {
                continue;
            }
            count += word.count_ones();
            let first_cb = w * 64 / per_cb;
            if (w * 64 + 63) / per_cb == first_cb {
                cb_mask |= 1 << first_cb;
            } else {
                for_each_set_bit(std::iter::once(word), |b| {
                    cb_mask |= 1 << ((w * 64 + b) / per_cb)
                });
            }
        }
        (count, cb_mask)
    }

    fn assert_shape_fits(&self, shape: &LogicalShape) {
        assert!(
            shape.total() <= self.lanes(),
            "logical shape of {} elements exceeds the {}-lane engine; tile the kernel",
            shape.total(),
            self.lanes()
        );
    }

    /// Records a block of `instrs` scalar instructions (loop control,
    /// address computation) between vector instructions.
    pub fn scalar(&mut self, instrs: u64) {
        if instrs > 0 {
            self.emit(Event::Scalar { instrs });
        }
    }

    // ------------------------------------------------------------------
    // Vector memory access.
    // ------------------------------------------------------------------

    /// Multi-dimensional strided load (Algorithm 1). `base` is a byte
    /// address; `modes` gives one stride mode per configured dimension.
    pub fn load(&mut self, dtype: DType, base: u64, modes: &[StrideMode]) -> Reg {
        let plan = self.plan_access(modes, StrideBank::Load, base, false);
        let dst = self.alloc_dst(dtype, false);
        self.access(dst, Opcode::StridedLoad, &plan, false, None);
        dst
    }

    /// Random-base load (Equation 1): `ptr_base` addresses an array of
    /// 64-bit row pointers, one per highest-dimension element; `modes`
    /// configures the inner-dimension strides.
    pub fn rload(&mut self, dtype: DType, ptr_base: u64, modes: &[StrideMode]) -> Reg {
        let plan = self.plan_access(modes, StrideBank::Load, ptr_base, true);
        let dst = self.alloc_dst(dtype, false);
        self.access(dst, Opcode::RandomLoad, &plan, false, Some(ptr_base));
        dst
    }

    /// Multi-dimensional strided store.
    pub fn store(&mut self, src: Reg, base: u64, modes: &[StrideMode]) {
        let plan = self.plan_access(modes, StrideBank::Store, base, false);
        self.access(src, Opcode::StridedStore, &plan, true, None);
    }

    /// Random-base store.
    pub fn rstore(&mut self, src: Reg, ptr_base: u64, modes: &[StrideMode]) {
        let plan = self.plan_access(modes, StrideBank::Store, ptr_base, true);
        self.access(src, Opcode::RandomStore, &plan, true, None);
    }

    /// Splits an access into rows ([`RowPlan`]) and refreshes the lane
    /// mask. Its base pointers are left in `base_scratch`: the one `base`
    /// of a strided access, or the row pointers a `random` access reads
    /// from the array at `base`.
    fn plan_access(
        &mut self,
        modes: &[StrideMode],
        bank: StrideBank,
        base: u64,
        random: bool,
    ) -> RowPlan {
        let shape = self.shape();
        self.assert_shape_fits(&shape);
        let mut bases = std::mem::take(&mut self.base_scratch);
        bases.clear();
        if random {
            let n = shape.dim(shape.highest_dim());
            bases.extend((0..n).map(|w| self.mem.read::<u64>(base, w)));
        } else {
            bases.push(base);
        }
        self.base_scratch = bases;
        let strides = addrgen::resolve_strides(modes, &shape, &self.crs, bank);
        self.refresh_mask(&shape);
        RowPlan::new(&shape, &strides, random)
    }

    /// The row path behind every vector load and store: moves each enabled
    /// row segment of `plan` between memory and `reg`, then emits one
    /// Memory event. Loads ignore Tag predication. Stores write in
    /// ascending lane order, so overlapping addresses keep the last active
    /// lane's value, and their disabled lanes write nothing and touch no
    /// cache lines (see the predicated-store regression test). A random
    /// load also fetches its row-pointer array at `ptr_base` (Equation 1).
    fn access(
        &mut self,
        reg: Reg,
        opcode: Opcode,
        plan: &RowPlan,
        write: bool,
        ptr_base: Option<u64>,
    ) {
        assert!(self.slots[reg.idx].live, "use of freed register {reg:?}");
        let stats = self.active_stats(write);
        let (dtype, eb) = (reg.dtype, reg.dtype.bytes());
        let mut lanes = self.take_lanes(reg);
        let mut lines = std::mem::take(&mut self.line_scratch);
        lines.clear();
        let Engine {
            mem,
            mask,
            tag,
            pred,
            base_scratch: bases,
            ..
        } = self;
        let pred = write && *pred;
        let mut segments = 0usize;
        by_width!(eb, T => {
            let lanes = T::of_mut(&mut lanes);
            for_each_row_segment(mask, tag, pred, plan, bases, eb, &mut |lo, hi, addr| {
                segments += 1;
                let seg = if write {
                    Lanes::Store(&lanes[lo..hi])
                } else {
                    Lanes::Load(&mut lanes[lo..hi])
                };
                copy_row::<T>(mem, seg, addr, plan.stride(), &mut lines);
            });
        });
        if let Some(ptr_base) = ptr_base {
            push_span_lines(&mut lines, ptr_base, bases.len() as u64 * 8);
        }
        self.put_back(reg, lanes);
        // One ascending segment already yields a sorted, duplicate-free set.
        if segments > 1 || plan.stride() < 0 || ptr_base.is_some() {
            addrgen::finish_lines(&mut lines);
        }
        // The trace keeps the line set as strided segments; the scratch
        // keeps its capacity for the next instruction.
        self.emit(Event::Memory {
            opcode,
            dtype,
            active_lanes: stats.0,
            cb_mask: stats.1,
            lines: LineSet::from_sorted(&lines),
            write,
        });
        self.line_scratch = lines;
    }

    /// The row primitive for ISA layers that emit their own trace events
    /// (the RVV baseline in `mve-baselines`): copies each row into `dst`
    /// with the same block, broadcast and gather kinds as [`Engine::load`].
    /// Returns the touched cache lines and the Control Blocks covering the
    /// rows' lanes; emits nothing. Lanes outside the rows keep their value.
    pub fn load_rows(&mut self, dst: Reg, rows: impl IntoIterator<Item = Row>) -> (LineSet, u64) {
        self.copy_rows(dst, rows, false)
    }

    /// The store counterpart of [`Engine::load_rows`]: writes each row of
    /// `src` in order, so a later row overwrites an earlier one.
    pub fn store_rows(&mut self, src: Reg, rows: impl IntoIterator<Item = Row>) -> (LineSet, u64) {
        self.copy_rows(src, rows, true)
    }

    fn copy_rows(
        &mut self,
        reg: Reg,
        rows: impl IntoIterator<Item = Row>,
        write: bool,
    ) -> (LineSet, u64) {
        assert!(self.slots[reg.idx].live, "use of freed register {reg:?}");
        let per_cb = self.geom.bitlines_per_cb();
        let mut lanes = self.take_lanes(reg);
        let mut lines = std::mem::take(&mut self.line_scratch);
        lines.clear();
        let (mut cb_mask, mut end) = (0u64, 0usize);
        by_width!(reg.dtype.bytes(), T => {
            let lanes = T::of_mut(&mut lanes);
            for r in rows.into_iter().filter(|r| r.len > 0) {
                let span = r.lane..r.lane + r.len;
                let seg = if write {
                    Lanes::Store(&lanes[span])
                } else {
                    Lanes::Load(&mut lanes[span])
                };
                copy_row::<T>(&mut self.mem, seg, r.addr, r.stride, &mut lines);
                cb_mask |= cb_range(r.lane, r.lane + r.len, per_cb);
                end = end.max(r.lane + r.len);
            }
        });
        self.put_back_upto(reg, lanes, end);
        addrgen::finish_lines(&mut lines);
        let set = LineSet::from_sorted(&lines);
        self.line_scratch = lines;
        (set, cb_mask)
    }

    // ------------------------------------------------------------------
    // Compute.
    // ------------------------------------------------------------------

    /// Emits the Compute event from precomputed [`Engine::active_stats`] —
    /// every compute op derives the stats up front so a fully-masked
    /// instruction (`active == 0`) can skip its lane work entirely while
    /// still issuing the identical event.
    fn emit_compute(&mut self, opcode: Opcode, dtype: DType, (active, cb_mask): (u32, u64)) {
        self.emit(Event::Compute {
            opcode,
            alu: alu_op_for(opcode, dtype),
            dtype,
            active_lanes: active,
            cb_mask,
        });
    }

    /// Common prologue of every compute op: derive the shape, check it fits,
    /// refresh the cached lane mask.
    fn prepare_compute(&mut self) -> LogicalShape {
        let shape = self.shape();
        self.assert_shape_fits(&shape);
        self.refresh_mask(&shape);
        shape
    }

    /// Takes a destination register's lane buffer out of the slot arena so
    /// source slots can be read by reference while it is written (no operand
    /// clones). Pair with [`Engine::put_back`].
    fn take_lanes(&mut self, reg: Reg) -> LaneBuf {
        std::mem::take(&mut self.slots[reg.idx].lanes)
    }

    /// Returns a buffer taken by [`Engine::take_lanes`] after a write
    /// through the lane mask, which touches no lane past `mask.total`.
    fn put_back(&mut self, reg: Reg, lanes: LaneBuf) {
        self.put_back_upto(reg, lanes, self.mask.total);
    }

    /// [`Engine::put_back`] after a write that touched no lane at or above
    /// `end`.
    fn put_back_upto(&mut self, reg: Reg, lanes: LaneBuf, end: usize) {
        let slot = &mut self.slots[reg.idx];
        slot.lanes = lanes;
        slot.dirty = slot.dirty.max(end);
    }

    /// Calls `f(lo, hi)` for every maximal run of lanes enabled by the
    /// current lane mask (and, under predication, the Tag latch); the
    /// block kernels serve runs of any length. Requires a fresh lane mask.
    fn spans(&self, f: &mut dyn FnMut(usize, usize)) {
        for_each_enabled_run(&self.mask, &self.tag, self.pred, f);
    }

    /// Element-wise binary operation into a fresh register.
    pub fn binop(&mut self, opcode: Opcode, op: BinOp, a: Reg, b: Reg) -> Reg {
        assert_eq!(
            a.dtype, b.dtype,
            "operand type mismatch: {} vs {}",
            a.dtype, b.dtype
        );
        let dtype = a.dtype;
        self.prepare_compute();
        let stats = self.active_stats(true);
        let dst = self.alloc_dst(dtype, true);
        if stats.0 > 0 {
            let mut out = self.take_lanes(dst);
            by_width!(dtype.bytes(), T => {
                let (av, bv) = (T::of(&self.slot(a).lanes), T::of(&self.slot(b).lanes));
                let out = T::of_mut(&mut out);
                let kernel = T::binop_kernel(dtype, op);
                self.spans(&mut |s, e| kernel(&av[s..e], &bv[s..e], &mut out[s..e]));
            });
            self.put_back(dst, out);
        }
        self.emit_compute(opcode, dtype, stats);
        dst
    }

    /// Comparison writing the per-lane Tag latch (Section III-E).
    pub fn compare(&mut self, op: CmpOp, a: Reg, b: Reg) {
        assert_eq!(
            a.dtype, b.dtype,
            "operand type mismatch: {} vs {}",
            a.dtype, b.dtype
        );
        let dtype = a.dtype;
        self.prepare_compute();
        let stats = self.active_stats(false);
        if stats.0 > 0 {
            let mut tag = std::mem::take(&mut self.tag);
            by_width!(dtype.bytes(), T => {
                let (av, bv) = (T::of(&self.slot(a).lanes), T::of(&self.slot(b).lanes));
                let kernel = T::cmp_kernel(dtype, op);
                let total = self.mask.total;
                // Whole-word kernel, then a masked merge: enabled bits take
                // the comparison result, disabled (and beyond-total) bits
                // keep their Tag value — identical to per-bit updates, since
                // the comparison is pure and mask words carry no bits past
                // `total`.
                for (w, &m) in self.mask.words.iter().enumerate() {
                    if m == 0 {
                        continue;
                    }
                    let base = w * 64;
                    let span = (total - base).min(64);
                    let bits = kernel(&av[base..base + span], &bv[base..base + span]);
                    tag[w] = (tag[w] & !m) | (bits & m);
                }
            });
            self.tag = tag;
        }
        self.emit_compute(Opcode::Compare, dtype, stats);
    }

    /// Shift/rotate by an immediate. `left` selects the direction;
    /// `rotate` selects rotation over shifting.
    pub fn shift_imm(&mut self, a: Reg, amount: u32, left: bool, rotate: bool) -> Reg {
        let dtype = a.dtype;
        self.prepare_compute();
        let stats = self.active_stats(true);
        let dst = self.alloc_dst(dtype, true);
        if stats.0 > 0 {
            let mut out = self.take_lanes(dst);
            by_width!(dtype.bytes(), T => {
                let av = T::of(&self.slot(a).lanes);
                let out = T::of_mut(&mut out);
                let kernel = T::shift_imm_kernel(dtype, left, rotate);
                self.spans(&mut |s, e| kernel(&av[s..e], &mut out[s..e], amount));
            });
            self.put_back(dst, out);
        }
        let opcode = if rotate {
            Opcode::RotateImm
        } else {
            Opcode::ShiftImm
        };
        self.emit_compute(opcode, dtype, stats);
        dst
    }

    /// Shift by per-lane amounts held in `amounts` (the low byte of each
    /// lane; `amounts` may have another width than `a`).
    pub fn shift_reg(&mut self, a: Reg, amounts: Reg, left: bool) -> Reg {
        let dtype = a.dtype;
        self.prepare_compute();
        let stats = self.active_stats(true);
        let dst = self.alloc_dst(dtype, true);
        if stats.0 > 0 {
            let mut out = self.take_lanes(dst);
            by_width!(dtype.bytes(), T => by_width!(amounts.dtype.bytes(), A => {
                let av = T::of(&self.slot(a).lanes);
                let sv = A::of(&self.slot(amounts).lanes);
                let out = T::of_mut(&mut out);
                let kernel = T::shift_reg_kernel::<A>(dtype, left);
                self.spans(&mut |s, e| kernel(&av[s..e], &sv[s..e], &mut out[s..e]));
            }));
            self.put_back(dst, out);
        }
        self.emit_compute(Opcode::ShiftReg, dtype, stats);
        dst
    }

    /// Broadcast a canonical lane value to all active lanes.
    pub fn setdup(&mut self, dtype: DType, raw: u64) -> Reg {
        self.prepare_compute();
        let stats = self.active_stats(true);
        let dst = self.alloc_dst(dtype, true);
        if stats.0 > 0 {
            let mut out = self.take_lanes(dst);
            by_width!(dtype.bytes(), T => {
                let (out, v) = (T::of_mut(&mut out), T::narrow(raw));
                self.spans(&mut |s, e| out[s..e].fill(v));
            });
            self.put_back(dst, out);
        }
        self.emit_compute(Opcode::SetDup, dtype, stats);
        dst
    }

    /// Copies the enabled lanes of `src` into the buffer `out` of the same
    /// width.
    fn copy_enabled(&self, src: Reg, out: &mut LaneBuf) {
        by_width!(src.dtype.bytes(), T => {
            let (sv, out) = (T::of(&self.slot(src).lanes), T::of_mut(out));
            self.spans(&mut |s, e| out[s..e].copy_from_slice(&sv[s..e]));
        });
    }

    /// Register copy into a fresh register.
    pub fn copy(&mut self, src: Reg) -> Reg {
        let dtype = src.dtype;
        self.prepare_compute();
        let stats = self.active_stats(true);
        let dst = self.alloc_dst(dtype, true);
        if stats.0 > 0 {
            let mut out = self.take_lanes(dst);
            self.copy_enabled(src, &mut out);
            self.put_back(dst, out);
        }
        self.emit_compute(Opcode::Copy, dtype, stats);
        dst
    }

    /// Predicate-aware merge copy: writes `src` lanes into `dst` where the
    /// lane is enabled (honouring the Tag latch when predication is on).
    /// This is how select/blend patterns are built (Section III-E).
    pub fn copy_into(&mut self, dst: Reg, src: Reg) {
        assert_eq!(dst.dtype, src.dtype, "operand type mismatch");
        self.prepare_compute();
        let stats = self.active_stats(true);
        assert!(self.slots[dst.idx].live, "use of freed register {dst:?}");
        if stats.0 > 0 && dst.idx != src.idx {
            let mut out = self.take_lanes(dst);
            self.copy_enabled(src, &mut out);
            self.put_back(dst, out);
        }
        self.emit_compute(Opcode::Copy, dst.dtype, stats);
    }

    /// Type conversion (`vcvt`) into a fresh register of `to`.
    pub fn convert(&mut self, src: Reg, to: DType) -> Reg {
        let from = src.dtype;
        self.prepare_compute();
        let stats = self.active_stats(true);
        let dst = self.alloc_dst(to, true);
        if stats.0 > 0 {
            let mut out = self.take_lanes(dst);
            by_width!(from.bytes(), S => by_width!(to.bytes(), D => {
                let sv = S::of(&self.slot(src).lanes);
                let out = D::of_mut(&mut out);
                let kernel = S::convert_kernel::<D>(from, to);
                self.spans(&mut |s, e| kernel(&sv[s..e], &mut out[s..e]));
            }));
            self.put_back(dst, out);
        }
        self.emit_compute(Opcode::Convert, to, stats);
        dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_1d(len: usize) -> Engine {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, len);
        e
    }

    #[test]
    fn load_compute_store_roundtrip() {
        let mut e = engine_1d(128);
        let a = e.mem_alloc_typed::<i32>(128);
        let vals: Vec<i32> = (0..128).map(|i| i - 64).collect();
        e.mem_fill(a, &vals);
        let v = e.load(DType::I32, a, &[StrideMode::One]);
        let d = e.setdup(DType::I32, 3);
        let s = e.binop(Opcode::Mul, BinOp::Mul, v, d);
        let out = e.mem_alloc_typed::<i32>(128);
        e.store(s, out, &[StrideMode::One]);
        let got = e.mem_read_vec::<i32>(out, 128);
        let want: Vec<i32> = vals.iter().map(|x| x * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn dimension_mask_gates_lanes() {
        let mut e = Engine::default_mobile();
        e.vsetdimc(2);
        e.vsetdiml(0, 4);
        e.vsetdiml(1, 2);
        let a = e.mem_alloc_typed::<i32>(8);
        e.mem_fill(a, &[1i32; 8]);
        let v = e.load(DType::I32, a, &[StrideMode::One, StrideMode::Seq]);
        e.vunsetmask(1); // mask the second dim-1 element → lanes 4..8
        let two = e.setdup(DType::I32, 2);
        let r = e.binop(Opcode::Add, BinOp::Add, v, two);
        // Lanes 0..4 computed 1+2; lanes 4..8 untouched (0 in the fresh dst).
        assert_eq!(e.lane_value(r, 0), 3);
        assert_eq!(e.lane_value(r, 5), 0);
        e.vresetmask();
    }

    #[test]
    fn predication_gates_stores_and_copies() {
        let mut e = engine_1d(8);
        let a = e.mem_alloc_typed::<i32>(8);
        e.mem_fill(a, &[5i32, 1, 7, 2, 9, 0, 3, 8]);
        let v = e.load(DType::I32, a, &[StrideMode::One]);
        let thr = e.setdup(DType::I32, 4);
        e.compare(CmpOp::Gt, v, thr); // tag = v > 4
        e.set_predication(true);
        let out = e.mem_alloc_typed::<i32>(8);
        e.mem_fill(out, &[-1i32; 8]);
        e.store(v, out, &[StrideMode::One]);
        e.set_predication(false);
        assert_eq!(
            e.mem_read_vec::<i32>(out, 8),
            vec![5, -1, 7, -1, 9, -1, -1, 8]
        );
    }

    #[test]
    fn register_capacity_enforced() {
        let mut e = engine_1d(8);
        e.vsetwidth(64);
        let cap = e.reg_capacity();
        assert_eq!(cap, 4); // 256 word-lines / 64-bit
        let regs: Vec<Reg> = (0..cap).map(|_| e.alloc(DType::I64)).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            e.alloc(DType::I64);
        }));
        assert!(result.is_err(), "allocation beyond capacity must panic");
        for r in regs {
            e.free(r);
        }
        assert_eq!(e.live_regs(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut e = engine_1d(8);
        let r = e.alloc(DType::I32);
        e.free(r);
        e.free(r);
    }

    #[test]
    #[should_panic(expected = "wider than the kernel width")]
    fn width_check_on_alloc() {
        let mut e = engine_1d(8);
        e.vsetwidth(16);
        e.alloc(DType::I32);
    }

    #[test]
    fn trace_records_classes() {
        let mut e = engine_1d(16);
        let a = e.mem_alloc_typed::<i32>(16);
        let v = e.load(DType::I32, a, &[StrideMode::One]);
        let w = e.copy(v);
        let x = e.binop(Opcode::Add, BinOp::Add, v, w);
        e.scalar(12);
        e.store(x, a, &[StrideMode::One]);
        let mix = e.trace().instr_mix();
        assert_eq!(mix.config, 2); // vsetdimc + vsetdiml
        assert_eq!(mix.mem_access, 2);
        assert_eq!(mix.moves, 1);
        assert_eq!(mix.arithmetic, 1);
        assert_eq!(mix.scalar, 12);
    }

    #[test]
    fn cb_mask_reflects_active_lanes() {
        // 1024 lanes per CB: a 100-lane shape touches only CB 0.
        let mut e = engine_1d(100);
        let z = e.setdup(DType::I32, 1);
        let _ = z;
        match e.trace().events().last().expect("event") {
            Event::Compute {
                cb_mask,
                active_lanes,
                ..
            } => {
                assert_eq!(*cb_mask, 0b1);
                assert_eq!(*active_lanes, 100);
            }
            other => panic!("unexpected event {other:?}"),
        }
        // A 3000-lane shape spans 3 CBs.
        let mut e = engine_1d(250);
        e.vsetdimc(2);
        e.vsetdiml(0, 250);
        e.vsetdiml(1, 12);
        let z = e.setdup(DType::I32, 1);
        let _ = z;
        match e.trace().events().last().expect("event") {
            Event::Compute { cb_mask, .. } => assert_eq!(*cb_mask, 0b111),
            other => panic!("unexpected event {other:?}"),
        }
    }

    /// The cached lane bitset, rebuilt from one per-coordinate
    /// [`ControlRegs::mask_bit_for`] test per highest-dimension element.
    fn reference_lane_mask(e: &Engine) -> Vec<u64> {
        let shape = e.shape();
        let dlen = shape.dim(shape.highest_dim());
        let inner = shape.total() / dlen;
        let total = shape.total().min(e.lanes());
        let mut words = vec![0u64; total.div_ceil(64)];
        for coord in 0..dlen {
            if e.crs.mask_bit_for(coord, dlen) {
                for lane in (coord * inner..(coord + 1) * inner).take_while(|&l| l < total) {
                    words[lane / 64] |= 1 << (lane % 64);
                }
            }
        }
        words
    }

    #[test]
    fn lane_mask_rebuild_matches_per_coordinate_mask_bits() {
        // (dims, lowest first): 1-D highest dims longer than the 256-bit
        // mask CR, 2-D and 3-D shapes with inner > 1 on both sides of 256,
        // and one shape wider than the engine.
        let shapes: [&[usize]; 13] = [
            &[257],
            &[300],
            &[1000],
            &[4096],
            &[8192],
            &[100],
            &[2, 4096],
            &[4, 2048],
            &[3, 1000],
            &[8, 300],
            &[32, 256],
            &[32, 257],
            &[2, 3, 600],
        ];
        let mut rng = 0x5eed_u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for dims in shapes {
            let mut e = Engine::default_mobile();
            e.vsetdimc(dims.len());
            for (d, &len) in dims.iter().enumerate() {
                e.vsetdiml(d, len);
            }
            for round in 0..6 {
                match round {
                    0 => {}
                    1 => (0..256).for_each(|b| e.vunsetmask(b)),
                    _ => {
                        for _ in 0..next() % 200 {
                            let b = (next() % 256) as usize;
                            if next() % 2 == 0 {
                                e.vsetmask(b);
                            } else {
                                e.vunsetmask(b);
                            }
                        }
                    }
                }
                let shape = e.shape();
                e.refresh_mask(&shape);
                let want = reference_lane_mask(&e);
                assert_eq!(e.mask.words, want, "{dims:?} round {round}");
                let active: u32 = want.iter().map(|w| w.count_ones()).sum();
                assert_eq!(e.mask.active, active, "{dims:?} round {round}");
                assert_eq!(
                    e.mask.cb_mask,
                    cb_mask_of(&want, e.geom.bitlines_per_cb()),
                    "{dims:?} round {round}"
                );
            }
        }
    }

    #[test]
    fn convert_changes_width_and_value() {
        let mut e = engine_1d(4);
        let a = e.mem_alloc_typed::<i8>(4);
        e.mem_fill(a, &[-1i8, 2, -3, 4]);
        let v = e.load(DType::I8, a, &[StrideMode::One]);
        let w = e.convert(v, DType::I32);
        assert_eq!(DType::I32.to_i64(e.lane_value(w, 0)), -1);
        assert_eq!(DType::I32.to_i64(e.lane_value(w, 2)), -3);
        let f = e.convert(w, DType::F32);
        assert_eq!(DType::F32.to_f64(e.lane_value(f, 3)), 4.0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::dtype::CmpOp;

    fn engine_1d(len: usize) -> Engine {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, len);
        e
    }

    #[test]
    fn random_load_and_store_roundtrip() {
        let mut e = Engine::default_mobile();
        // Three "rows" at scattered addresses.
        let rows: Vec<u64> = (0..3).map(|_| e.mem_alloc_typed::<i16>(40)).collect();
        for (r, &addr) in rows.iter().enumerate() {
            let vals: Vec<i16> = (0..8).map(|c| (r * 100 + c) as i16).collect();
            e.mem_fill(addr, &vals);
        }
        let ptr_in = e.mem_alloc_typed::<u64>(3);
        e.mem_fill(ptr_in, &rows);
        e.vsetdimc(2);
        e.vsetdiml(0, 8);
        e.vsetdiml(1, 3);
        let v = e.vrld_w(ptr_in, &[StrideMode::One]);
        assert_eq!(DType::I16.to_i64(e.lane_value(v, 0)), 0);
        assert_eq!(DType::I16.to_i64(e.lane_value(v, 8)), 100);
        assert_eq!(DType::I16.to_i64(e.lane_value(v, 17)), 201);

        // Random store back to fresh rows, reversed pointers.
        let outs: Vec<u64> = (0..3).map(|_| e.mem_alloc_typed::<i16>(8)).collect();
        let ptr_out = e.mem_alloc_typed::<u64>(3);
        e.mem_fill(ptr_out, &[outs[2], outs[1], outs[0]]);
        e.vrst_w(v, ptr_out, &[StrideMode::One]);
        assert_eq!(e.mem_read::<i16>(outs[2], 3), 3); // row 0 landed in out 2
        assert_eq!(e.mem_read::<i16>(outs[0], 3), 203);
    }

    #[test]
    fn predicated_convert_and_setdup_respect_tag() {
        let mut e = engine_1d(4);
        let a = e.mem_alloc_typed::<i32>(4);
        e.mem_fill(a, &[1i32, 5, 1, 5]);
        let v = e.vsld_dw(a, &[StrideMode::One]);
        let three = e.vsetdup_dw(3);
        e.compare(CmpOp::Gt, v, three); // tag = [0,1,0,1]
        e.set_predication(true);
        let dup = e.vsetdup_dw(9);
        e.set_predication(false);
        assert_eq!(e.lane_value(dup, 0), 0, "masked lane untouched");
        assert_eq!(e.lane_value(dup, 1), 9);
        assert_eq!(e.lane_value(dup, 3), 9);
    }

    #[test]
    fn reg_capacity_scales_with_width() {
        let mut e = engine_1d(8);
        e.vsetwidth(8);
        assert_eq!(e.reg_capacity(), 32);
        e.vsetwidth(16);
        assert_eq!(e.reg_capacity(), 16);
        e.vsetwidth(32);
        assert_eq!(e.reg_capacity(), 8);
        e.vsetwidth(64);
        assert_eq!(e.reg_capacity(), 4);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut e = engine_1d(8);
        let a = e.alloc(DType::I32);
        e.free(a);
        let b = e.alloc(DType::I32);
        // Slot reuse keeps the register file compact.
        assert_eq!(e.live_regs(), 1);
        let _ = b;
    }

    #[test]
    fn group_masking_on_long_highest_dim() {
        // 8192-long 1-D shape: each of the 256 mask bits covers 32 lanes.
        let mut e = engine_1d(8192);
        e.vunsetmask(0);
        let v = e.vsetdup_dw(5);
        assert_eq!(e.lane_value(v, 0), 0);
        assert_eq!(e.lane_value(v, 31), 0);
        assert_eq!(e.lane_value(v, 32), 5);
        e.vresetmask();
    }

    #[test]
    #[should_panic(expected = "exceeds the 8192-lane engine")]
    fn oversized_shape_rejected() {
        let mut e = Engine::default_mobile();
        e.vsetdimc(2);
        e.vsetdiml(0, 8192);
        e.vsetdiml(1, 2);
        let _ = e.vsetdup_dw(0);
    }

    #[test]
    #[should_panic(expected = "use of freed register")]
    fn use_after_free_is_caught() {
        let mut e = engine_1d(4);
        let a = e.alloc(DType::I32);
        e.free(a);
        let _ = e.reg_lanes(a);
    }
}

#[cfg(test)]
mod issue2_tests {
    use super::*;
    use crate::dtype::CmpOp;

    fn engine_1d(len: usize) -> Engine {
        let mut e = Engine::default_mobile();
        e.vsetdimc(1);
        e.vsetdiml(0, len);
        e
    }

    #[test]
    fn predicated_store_charges_only_written_lines() {
        // 32 i32 lanes span exactly two cache lines from a line-aligned
        // allocation. Predication passes only lanes 0..16 (the first line):
        // the store's memory event must charge one line, not two — the old
        // accounting counted addresses of predicated-off lanes too.
        let mut e = engine_1d(32);
        let a = e.mem_alloc_typed::<i32>(32);
        let vals: Vec<i32> = (0..32).collect();
        e.mem_fill(a, &vals);
        let v = e.vsld_dw(a, &[StrideMode::One]);
        let thr = e.vsetdup_dw(15);
        e.compare(CmpOp::Lte, v, thr); // tag = value <= 15 → lanes 0..16
        e.set_predication(true);
        let out = e.mem_alloc_typed::<i32>(32);
        assert_eq!(out % mve_memsim::LINE_BYTES, 0, "allocs are line-aligned");
        e.store(v, out, &[StrideMode::One]);
        e.set_predication(false);
        match e.trace().events().last().expect("store event") {
            Event::Memory {
                lines,
                active_lanes,
                write: true,
                ..
            } => {
                assert_eq!(*active_lanes, 16);
                assert_eq!(
                    lines.iter().collect::<Vec<_>>(),
                    [out / mve_memsim::LINE_BYTES]
                );
            }
            other => panic!("unexpected event {other:?}"),
        }
        // The second line was never written.
        assert_eq!(e.mem_read::<i32>(out, 0), 0);
        assert_eq!(e.mem_read::<i32>(out, 20), 0);
    }

    #[test]
    fn rotate_right_by_multiple_of_width_is_identity() {
        let mut e = engine_1d(4);
        let a = e.mem_alloc_typed::<i32>(4);
        e.mem_fill(a, &[0x1234_5678i32, -1, 7, 0]);
        let v = e.vsld_dw(a, &[StrideMode::One]);
        // The old formulation `rotl(v, bits - amount % bits)` handed the
        // full element width to the left-rotation when `amount % bits == 0`.
        for amount in [0u32, 32, 64, 96] {
            let r = e.shift_imm(v, amount, false, true);
            for lane in 0..4 {
                assert_eq!(
                    e.lane_value(r, lane),
                    e.lane_value(v, lane),
                    "rotate right by {amount} must be the identity"
                );
            }
            e.free(r);
        }
        // A genuine rotation still rotates.
        let r = e.shift_imm(v, 8, false, true);
        assert_eq!(e.lane_value(r, 0), 0x7812_3456);
    }

    #[test]
    fn lane_mask_cache_follows_cr_mutations() {
        // 256-long highest dimension → one mask bit per element. The cached
        // bitset must be rebuilt across vunsetmask/vresetmask (generation
        // bumps), not frozen at first use.
        let mut e = engine_1d(256);
        let v = e.vsetdup_dw(1);
        match e.trace().events().last().expect("event") {
            Event::Compute { active_lanes, .. } => assert_eq!(*active_lanes, 256),
            other => panic!("unexpected event {other:?}"),
        }
        e.vunsetmask(3);
        let w = e.vadd_dw(v, v);
        match e.trace().events().last().expect("event") {
            Event::Compute { active_lanes, .. } => assert_eq!(*active_lanes, 255),
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(e.lane_value(w, 3), 0, "masked lane untouched");
        assert_eq!(e.lane_value(w, 4), 2);
        e.vresetmask();
        let x = e.vadd_dw(v, v);
        match e.trace().events().last().expect("event") {
            Event::Compute { active_lanes, .. } => assert_eq!(*active_lanes, 256),
            other => panic!("unexpected event {other:?}"),
        }
        e.free(x);
    }

    /// Asserts every lane of `r` from `from` on reads zero.
    fn assert_zero_from(e: &Engine, r: Reg, from: usize) {
        if let Some(i) = e.reg_lanes(r)[from..].iter().position(|&v| v != 0) {
            panic!("stale value leaked at lane {}", from + i);
        }
    }

    #[test]
    fn freed_register_buffers_are_reused_without_leaking_values() {
        // A freed slot's buffer is recycled by the next alloc, which zeroes
        // only the lanes below the slot's dirty bound; a fresh register
        // must still read all-zeroes on every lane no write reached.
        let mut e = engine_1d(8);
        let a = e.mem_alloc_typed::<i32>(8);
        e.mem_fill(a, &[7i32; 8]);
        let v = e.vsld_dw(a, &[StrideMode::One]);
        e.free(v);
        e.vsetdiml(0, 4); // shrink the shape: lanes 4..8 now inactive
        let w = e.vsetdup_dw(1);
        for lane in 0..4 {
            assert_eq!(e.lane_value(w, lane), 1);
        }
        assert_zero_from(&e, w, 4);
        e.free(w);

        // Wide write, narrow reuse, wide reuse: the narrow alloc clears the
        // wide write's lanes, not only its own.
        let mut e = engine_1d(1024);
        let a = e.mem_alloc_typed::<i32>(1024);
        e.mem_fill(a, &[7i32; 1024]);
        let v = e.vsld_dw(a, &[StrideMode::One]);
        e.free(v);
        e.vsetdiml(0, 64);
        let w = e.vsetdup_dw(1);
        e.free(w);
        e.vsetdiml(0, 1024);
        let x = e.alloc(DType::I32);
        assert_zero_from(&e, x, 0);
        e.free(x);

        // A row load writes lanes past the shape's `mask.total`.
        let mut e = engine_1d(4);
        let a = e.mem_alloc_typed::<i32>(8);
        e.mem_fill(a, &[7i32; 8]);
        let r = e.alloc(DType::I32);
        e.load_rows(r, [Row::new(100, 8, a, 1)]);
        assert_eq!(e.lane_value(r, 107), 7);
        e.free(r);
        let r = e.alloc(DType::I32);
        assert_zero_from(&e, r, 0);
        e.free(r);

        // A raw lane write far above the shape.
        let high = e.lanes() - 5;
        let r = e.alloc(DType::I32);
        e.set_lane_raw(r, high, 9);
        e.free(r);
        let r = e.alloc(DType::I32);
        assert_zero_from(&e, r, 0);
        e.free(r);

        // The full-coverage alloc skips the zero-fill; a narrow reuse
        // after it still reads zero past its shape.
        let mut e = engine_1d(8);
        let lanes = e.lanes();
        e.vsetdiml(0, lanes);
        let a = e.mem_alloc_typed::<i32>(lanes);
        e.mem_fill(a, &vec![7i32; lanes]);
        let v = e.vsld_dw(a, &[StrideMode::One]);
        e.free(v);
        e.vsetdiml(0, 16);
        let w = e.vsetdup_dw(1);
        assert_eq!(e.lane_value(w, 15), 1);
        assert_zero_from(&e, w, 16);
    }
}
