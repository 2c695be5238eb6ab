//! MVE element data types and their arithmetic semantics.
//!
//! Section III-F: MVE supports 8/16/32/64-bit un/signed integers and
//! 16/32-bit floating point, denoted by the `b`/`w`/`dw`/`qw` and `hf`/`f`
//! assembly suffixes. Canonical lane values are raw bit patterns
//! zero-extended to `u64`; the operations here interpret them per type.
//! Registers store each lane at its element width (the `Lane` trait).
//!
//! Integer arithmetic wraps at the element width, exactly like the
//! bit-serial hardware (validated against `mve_insram::bitserial`). The
//! 16-bit float is a software half-precision implementation (IEEE 754
//! binary16, round-to-nearest-even on repack); arithmetic is performed in
//! `f32` and repacked, matching how the bit-serial FP units of Duality Cache
//! normalise after every operation.

/// An MVE element type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// Unsigned 8-bit (`b` with unsigned ops).
    U8,
    /// Signed 8-bit (`b`).
    I8,
    /// Unsigned 16-bit (`w` unsigned).
    U16,
    /// Signed 16-bit (`w`).
    I16,
    /// Unsigned 32-bit (`dw` unsigned).
    U32,
    /// Signed 32-bit (`dw`).
    I32,
    /// Unsigned 64-bit (`qw` unsigned).
    U64,
    /// Signed 64-bit (`qw`).
    I64,
    /// IEEE binary16 (`hf`).
    F16,
    /// IEEE binary32 (`f`).
    F32,
}

/// Binary operations on lane values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication (low half).
    Mul,
    /// Minimum (signedness-aware).
    Min,
    /// Maximum (signedness-aware).
    Max,
    /// Bit-wise XOR.
    Xor,
    /// Bit-wise AND.
    And,
    /// Bit-wise OR.
    Or,
}

/// Comparison predicates (Table II: `vgt(e)/lt(e)/(n)eq`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Gte,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Lte,
    /// Equal.
    Eq,
    /// Not equal.
    Neq,
}

impl DType {
    /// All supported types.
    pub const ALL: [DType; 10] = [
        DType::U8,
        DType::I8,
        DType::U16,
        DType::I16,
        DType::U32,
        DType::I32,
        DType::U64,
        DType::I64,
        DType::F16,
        DType::F32,
    ];

    /// Element width in bits.
    #[inline]
    pub fn bits(&self) -> u32 {
        match self {
            DType::U8 | DType::I8 => 8,
            DType::U16 | DType::I16 | DType::F16 => 16,
            DType::U32 | DType::I32 | DType::F32 => 32,
            DType::U64 | DType::I64 => 64,
        }
    }

    /// Element width in bytes.
    #[inline]
    pub fn bytes(&self) -> u64 {
        u64::from(self.bits()) / 8
    }

    /// Whether the type is floating point.
    #[inline]
    pub fn is_float(&self) -> bool {
        matches!(self, DType::F16 | DType::F32)
    }

    /// Whether the type is a signed integer.
    #[inline]
    pub fn is_signed_int(&self) -> bool {
        matches!(self, DType::I8 | DType::I16 | DType::I32 | DType::I64)
    }

    /// The assembly suffix of Section III-F.
    pub fn suffix(&self) -> &'static str {
        match self {
            DType::U8 | DType::I8 => "b",
            DType::U16 | DType::I16 => "w",
            DType::U32 | DType::I32 => "dw",
            DType::U64 | DType::I64 => "qw",
            DType::F16 => "hf",
            DType::F32 => "f",
        }
    }

    /// Mask selecting the low `bits()` of a raw lane value.
    #[inline(always)]
    pub fn lane_mask(&self) -> u64 {
        match self.bits() {
            64 => u64::MAX,
            b => (1u64 << b) - 1,
        }
    }

    /// Truncates a raw value to the element width (canonical lane form).
    #[inline(always)]
    pub fn truncate(&self, v: u64) -> u64 {
        v & self.lane_mask()
    }

    /// Sign-extends a canonical lane value to `i64` (integers only).
    ///
    /// Branchless (shift-pair) so the word-block kernels autovectorize: a
    /// data-dependent sign test here would cost a misprediction per lane on
    /// random data and block SIMD codegen.
    #[inline(always)]
    pub fn to_i64(&self, v: u64) -> i64 {
        let bits = self.bits();
        let v = self.truncate(v);
        if self.is_signed_int() && bits < 64 {
            let shift = 64 - bits;
            ((v << shift) as i64) >> shift
        } else {
            v as i64
        }
    }

    /// Interprets a canonical lane value as `f64` for checking purposes.
    pub fn to_f64(&self, v: u64) -> f64 {
        match self {
            DType::F16 => f64::from(f16_to_f32(v as u16)),
            DType::F32 => f64::from(f32::from_bits(v as u32)),
            _ => self.to_i64(v) as f64,
        }
    }

    /// Packs an `i64` into a canonical lane value (integers only).
    #[inline(always)]
    pub fn from_i64(&self, v: i64) -> u64 {
        debug_assert!(!self.is_float(), "from_i64 on float type");
        self.truncate(v as u64)
    }

    /// Packs an `f32` into a canonical lane value (floats only).
    #[inline(always)]
    pub fn from_f32(&self, v: f32) -> u64 {
        match self {
            DType::F16 => u64::from(f32_to_f16(v)),
            DType::F32 => u64::from(v.to_bits()),
            _ => panic!("from_f32 on integer type {self:?}"),
        }
    }

    #[inline(always)]
    fn float_of(&self, v: u64) -> f32 {
        match self {
            DType::F16 => f16_to_f32(v as u16),
            DType::F32 => f32::from_bits(v as u32),
            _ => unreachable!(),
        }
    }

    /// Applies a binary operation to two canonical lane values.
    #[inline(always)]
    pub fn binop(&self, op: BinOp, a: u64, b: u64) -> u64 {
        if self.is_float() {
            let (x, y) = (self.float_of(a), self.float_of(b));
            let r = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Min => x.min(y),
                BinOp::Max => x.max(y),
                BinOp::Xor => return self.truncate(a ^ b),
                BinOp::And => return self.truncate(a & b),
                BinOp::Or => return self.truncate(a | b),
            };
            self.from_f32(r)
        } else {
            let (x, y) = (self.to_i64(a), self.to_i64(b));
            let r = match op {
                BinOp::Add => x.wrapping_add(y),
                BinOp::Sub => x.wrapping_sub(y),
                BinOp::Mul => x.wrapping_mul(y),
                BinOp::Min => {
                    if self.is_signed_int() {
                        x.min(y)
                    } else {
                        (self.truncate(a).min(self.truncate(b))) as i64
                    }
                }
                BinOp::Max => {
                    if self.is_signed_int() {
                        x.max(y)
                    } else {
                        (self.truncate(a).max(self.truncate(b))) as i64
                    }
                }
                BinOp::Xor => x ^ y,
                BinOp::And => x & y,
                BinOp::Or => x | y,
            };
            self.truncate(r as u64)
        }
    }

    /// Evaluates a comparison between two canonical lane values.
    #[inline(always)]
    pub fn cmp(&self, op: CmpOp, a: u64, b: u64) -> bool {
        if self.is_float() {
            let (x, y) = (self.float_of(a), self.float_of(b));
            match op {
                CmpOp::Gt => x > y,
                CmpOp::Gte => x >= y,
                CmpOp::Lt => x < y,
                CmpOp::Lte => x <= y,
                CmpOp::Eq => x == y,
                CmpOp::Neq => x != y,
            }
        } else if self.is_signed_int() {
            let (x, y) = (self.to_i64(a), self.to_i64(b));
            match op {
                CmpOp::Gt => x > y,
                CmpOp::Gte => x >= y,
                CmpOp::Lt => x < y,
                CmpOp::Lte => x <= y,
                CmpOp::Eq => x == y,
                CmpOp::Neq => x != y,
            }
        } else {
            let (x, y) = (self.truncate(a), self.truncate(b));
            match op {
                CmpOp::Gt => x > y,
                CmpOp::Gte => x >= y,
                CmpOp::Lt => x < y,
                CmpOp::Lte => x <= y,
                CmpOp::Eq => x == y,
                CmpOp::Neq => x != y,
            }
        }
    }

    /// Logical/arithmetic shift left by `sh` (zero fill), wrapping at width.
    #[inline(always)]
    pub fn shl(&self, a: u64, sh: u32) -> u64 {
        debug_assert!(!self.is_float(), "shift on float type");
        if sh >= self.bits() {
            0
        } else {
            self.truncate(self.truncate(a) << sh)
        }
    }

    /// Shift right by `sh`: arithmetic for signed types, logical otherwise.
    #[inline(always)]
    pub fn shr(&self, a: u64, sh: u32) -> u64 {
        debug_assert!(!self.is_float(), "shift on float type");
        let bits = self.bits();
        if self.is_signed_int() {
            let x = self.to_i64(a);
            let sh = sh.min(63);
            self.truncate((x >> sh) as u64)
        } else if sh >= bits {
            0
        } else {
            self.truncate(self.truncate(a) >> sh)
        }
    }

    /// Rotate left by `sh` within the element width.
    #[inline(always)]
    pub fn rotl(&self, a: u64, sh: u32) -> u64 {
        debug_assert!(!self.is_float(), "rotate on float type");
        let bits = self.bits();
        let sh = sh % bits;
        let v = self.truncate(a);
        if sh == 0 {
            v
        } else {
            self.truncate((v << sh) | (v >> (bits - sh)))
        }
    }

    /// Rotate right by `sh` within the element width.
    ///
    /// Implemented as a left-rotation by the complement, with an explicit
    /// guard for `sh % bits == 0`: the naïve `rotl(v, bits - sh % bits)`
    /// would pass `bits` itself to the left-rotation (rotating right by 0,
    /// 8, 16, … must be the identity, not reach for the full element
    /// width).
    #[inline(always)]
    pub fn rotr(&self, a: u64, sh: u32) -> u64 {
        let bits = self.bits();
        let sh = sh % bits;
        if sh == 0 {
            self.truncate(a)
        } else {
            self.rotl(a, bits - sh)
        }
    }

    /// Converts a canonical lane value of `self` into `dst`'s representation
    /// (the `vcvt` semantics: int↔int resize with sign/zero extension,
    /// int↔float numeric conversion, float↔float precision change).
    #[inline(always)]
    pub fn convert_to(&self, dst: DType, v: u64) -> u64 {
        match (self.is_float(), dst.is_float()) {
            (false, false) => dst.truncate(self.to_i64(v) as u64),
            (false, true) => dst.from_f32(self.to_i64(v) as f32),
            (true, false) => dst.from_i64(self.float_of(v) as i64),
            (true, true) => dst.from_f32(self.float_of(v)),
        }
    }
}

// ---------------------------------------------------------------------------
// Word-block kernels (data-parallel backend)
// ---------------------------------------------------------------------------
//
// The engine's block driver hands contiguous runs of enabled lanes to the
// function pointers below. Each pointer is a monomorphized loop over the
// scalar reference semantics above — the `DType` and the operation are
// compile-time constants inside the loop body, so the per-lane `match`es
// constant-fold away and LLVM can unroll and autovectorize the loop — which
// makes bit-identity with the per-lane reference true by construction
// rather than by reimplementation. Registers store lanes at their element
// width ([`Lane`]); every kernel widens its operands to `u64`, applies the
// reference op and narrows the canonical result back, which is lossless.

/// Contiguous-block binary op: `out[i] = dt.binop(op, a[i], b[i])`.
pub(crate) type BinopKernel<T> = fn(&[T], &[T], &mut [T]);
/// Comparison over ≤ 64 lanes, result bits packed lane-minor into a word.
pub(crate) type CmpKernel<T> = fn(&[T], &[T]) -> u64;
/// Contiguous-block conversion from lanes of width `S` into width `D`.
pub(crate) type ConvertKernel<S, D> = fn(&[S], &mut [D]);
/// Contiguous-block shift/rotate by a shared immediate amount.
pub(crate) type ShiftImmKernel<T> = fn(&[T], &mut [T], u32);
/// Contiguous-block shift by per-lane amounts (low byte of the amount
/// lane, whose register may have another width `A`).
pub(crate) type ShiftRegKernel<T, A> = fn(&[T], &[A], &mut [T]);

/// A register lane at its element width: a canonical lane value
/// ([`DType::truncate`], zero-extended) held in the unsigned integer of
/// [`DType::bytes`] bytes, so [`Lane::widen`] and [`Lane::narrow`] are
/// lossless. The kernel getters accept exactly the dtypes of that width.
pub(crate) trait Lane: Copy {
    /// Width in bytes.
    const BYTES: usize;

    /// The canonical `u64` lane value.
    fn widen(self) -> u64;

    /// The low `BYTES` bytes of `v`.
    fn narrow(v: u64) -> Self;

    /// Decodes one little-endian element of `BYTES` bytes.
    fn from_le(bytes: &[u8]) -> Self;

    /// Encodes into `BYTES` little-endian bytes.
    fn write_le(self, out: &mut [u8]);

    /// The monomorphized contiguous-block kernel for `(dt, op)`.
    fn binop_kernel(dt: DType, op: BinOp) -> BinopKernel<Self>;

    /// The monomorphized ≤ 64-lane comparison kernel for `(dt, op)`.
    fn cmp_kernel(dt: DType, op: CmpOp) -> CmpKernel<Self>;

    /// The monomorphized shift/rotate-by-immediate kernel (`left`/`rotate`
    /// select between [`DType::shl`], [`DType::shr`], [`DType::rotl`] and
    /// [`DType::rotr`]).
    fn shift_imm_kernel(dt: DType, left: bool, rotate: bool) -> ShiftImmKernel<Self>;

    /// The monomorphized shift-by-register kernel (per-lane amounts, low
    /// byte — the `vshiftr` semantics).
    fn shift_reg_kernel<A: Lane>(dt: DType, left: bool) -> ShiftRegKernel<Self, A>;

    /// The monomorphized `from → to` conversion kernel; `D` is `to`'s
    /// lane width.
    fn convert_kernel<D: Lane>(from: DType, to: DType) -> ConvertKernel<Self, D>;

    /// Copies `out.len()` packed little-endian elements from `src` into
    /// lanes — bit-identical to per-lane `truncate(Memory::read_raw(..))`
    /// over ascending addresses.
    fn load_block(src: &[u8], out: &mut [Self]) {
        debug_assert_eq!(src.len(), out.len() * Self::BYTES);
        for (o, c) in out.iter_mut().zip(src.chunks_exact(Self::BYTES)) {
            *o = Self::from_le(c);
        }
    }

    /// Copies lanes into packed little-endian elements — the inverse of
    /// [`Lane::load_block`], bit-identical to per-lane `Memory::write_raw`.
    fn store_block(lanes: &[Self], dst: &mut [u8]) {
        debug_assert_eq!(dst.len(), lanes.len() * Self::BYTES);
        for (c, &v) in dst.chunks_exact_mut(Self::BYTES).zip(lanes) {
            v.write_le(c);
        }
    }
}

/// Expands `$mac!(<DTypeIdent> $(, extra)*)` for the matching variant.
macro_rules! dtype_match {
    ($dt:expr, $mac:ident $(, $extra:ident)*) => {
        match $dt {
            DType::U8 => $mac!(U8 $(, $extra)*),
            DType::I8 => $mac!(I8 $(, $extra)*),
            DType::U16 => $mac!(U16 $(, $extra)*),
            DType::I16 => $mac!(I16 $(, $extra)*),
            DType::U32 => $mac!(U32 $(, $extra)*),
            DType::I32 => $mac!(I32 $(, $extra)*),
            DType::U64 => $mac!(U64 $(, $extra)*),
            DType::I64 => $mac!(I64 $(, $extra)*),
            DType::F16 => $mac!(F16 $(, $extra)*),
            DType::F32 => $mac!(F32 $(, $extra)*),
        }
    };
}

macro_rules! binop_arm {
    ($dt:ident, $op:ident) => {{
        fn k<T: Lane>(a: &[T], b: &[T], out: &mut [T]) {
            const DT: DType = DType::$dt;
            const OP: BinOp = BinOp::$op;
            for (o, (&x, &y)) in out.iter_mut().zip(a.iter().zip(b)) {
                *o = T::narrow(DT.binop(OP, x.widen(), y.widen()));
            }
        }
        k
    }};
}

/// Packs 64 0/1 bytes into a word, byte `i` into bit `i`. Eight bytes at a
/// time: the multiply moves byte `j`'s bit to bit `56 + j`, and no two
/// partial products overlap, so nothing carries.
fn pack_flags(flags: &[u8; 64]) -> u64 {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    flags
        .chunks_exact(8)
        .enumerate()
        .fold(0, |bits, (i, bytes)| {
            let word = u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
            bits | ((word.wrapping_mul(GATHER) >> 56) << (8 * i))
        })
}

macro_rules! cmp_arm {
    ($dt:ident, $op:ident) => {{
        fn k<T: Lane>(a: &[T], b: &[T]) -> u64 {
            const DT: DType = DType::$dt;
            const OP: CmpOp = CmpOp::$op;
            let mut flags = [0u8; 64];
            for (f, (&x, &y)) in flags.iter_mut().zip(a.iter().zip(b)) {
                *f = u8::from(DT.cmp(OP, x.widen(), y.widen()));
            }
            pack_flags(&flags)
        }
        k
    }};
}

macro_rules! shift_imm_arm {
    ($dt:ident, $method:ident) => {{
        fn k<T: Lane>(src: &[T], out: &mut [T], sh: u32) {
            const DT: DType = DType::$dt;
            for (o, &v) in out.iter_mut().zip(src) {
                *o = T::narrow(DT.$method(v.widen(), sh));
            }
        }
        k
    }};
}

macro_rules! shift_reg_arm {
    ($dt:ident, $method:ident) => {{
        fn k<T: Lane, A: Lane>(src: &[T], amounts: &[A], out: &mut [T]) {
            const DT: DType = DType::$dt;
            for (o, (&v, &s)) in out.iter_mut().zip(src.iter().zip(amounts)) {
                *o = T::narrow(DT.$method(v.widen(), (s.widen() & 0xFF) as u32));
            }
        }
        k
    }};
}

macro_rules! convert_arm {
    ($to:ident, $from:ident) => {{
        fn k<S: Lane, D: Lane>(src: &[S], out: &mut [D]) {
            const FROM: DType = DType::$from;
            const TO: DType = DType::$to;
            // Only the instantiation at `TO`'s width may run; the others
            // fold to this panic.
            if D::BYTES as u64 != TO.bytes() {
                wrong_width(TO, D::BYTES);
            }
            for (o, &v) in out.iter_mut().zip(src) {
                *o = D::narrow(FROM.convert_to(TO, v.widen()));
            }
        }
        k
    }};
}

/// A kernel request for a dtype whose lanes are not `bytes` wide.
#[cold]
fn wrong_width(dt: DType, bytes: usize) -> ! {
    panic!("{dt} lanes are {} bytes wide, not {bytes}", dt.bytes())
}

/// Implements [`Lane`] for `$t`, the storage of the dtypes `$dt`.
macro_rules! lane_impl {
    ($t:ty, $($dt:ident),+) => {
        impl Lane for $t {
            const BYTES: usize = std::mem::size_of::<$t>();

            #[inline(always)]
            fn widen(self) -> u64 {
                u64::from(self)
            }

            #[inline(always)]
            fn narrow(v: u64) -> Self {
                v as $t
            }

            #[inline(always)]
            fn from_le(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("element width"))
            }

            #[inline(always)]
            fn write_le(self, out: &mut [u8]) {
                out.copy_from_slice(&self.to_le_bytes());
            }

            fn binop_kernel(dt: DType, op: BinOp) -> BinopKernel<Self> {
                macro_rules! by_op {
                    ($d:ident) => {
                        match op {
                            BinOp::Add => binop_arm!($d, Add),
                            BinOp::Sub => binop_arm!($d, Sub),
                            BinOp::Mul => binop_arm!($d, Mul),
                            BinOp::Min => binop_arm!($d, Min),
                            BinOp::Max => binop_arm!($d, Max),
                            BinOp::Xor => binop_arm!($d, Xor),
                            BinOp::And => binop_arm!($d, And),
                            BinOp::Or => binop_arm!($d, Or),
                        }
                    };
                }
                match dt {
                    $(DType::$dt => by_op!($dt),)+
                    _ => wrong_width(dt, Self::BYTES),
                }
            }

            fn cmp_kernel(dt: DType, op: CmpOp) -> CmpKernel<Self> {
                macro_rules! by_op {
                    ($d:ident) => {
                        match op {
                            CmpOp::Gt => cmp_arm!($d, Gt),
                            CmpOp::Gte => cmp_arm!($d, Gte),
                            CmpOp::Lt => cmp_arm!($d, Lt),
                            CmpOp::Lte => cmp_arm!($d, Lte),
                            CmpOp::Eq => cmp_arm!($d, Eq),
                            CmpOp::Neq => cmp_arm!($d, Neq),
                        }
                    };
                }
                match dt {
                    $(DType::$dt => by_op!($dt),)+
                    _ => wrong_width(dt, Self::BYTES),
                }
            }

            fn shift_imm_kernel(dt: DType, left: bool, rotate: bool) -> ShiftImmKernel<Self> {
                macro_rules! by_variant {
                    ($d:ident) => {
                        match (left, rotate) {
                            (true, false) => shift_imm_arm!($d, shl),
                            (false, false) => shift_imm_arm!($d, shr),
                            (true, true) => shift_imm_arm!($d, rotl),
                            (false, true) => shift_imm_arm!($d, rotr),
                        }
                    };
                }
                match dt {
                    $(DType::$dt => by_variant!($dt),)+
                    _ => wrong_width(dt, Self::BYTES),
                }
            }

            fn shift_reg_kernel<A: Lane>(dt: DType, left: bool) -> ShiftRegKernel<Self, A> {
                macro_rules! by_dir {
                    ($d:ident) => {
                        if left {
                            shift_reg_arm!($d, shl)
                        } else {
                            shift_reg_arm!($d, shr)
                        }
                    };
                }
                match dt {
                    $(DType::$dt => by_dir!($dt),)+
                    _ => wrong_width(dt, Self::BYTES),
                }
            }

            fn convert_kernel<D: Lane>(from: DType, to: DType) -> ConvertKernel<Self, D> {
                match from {
                    $(DType::$dt => dtype_match!(to, convert_arm, $dt),)+
                    _ => wrong_width(from, Self::BYTES),
                }
            }
        }
    };
}

lane_impl!(u8, U8, I8);
lane_impl!(u16, U16, I16, F16);
lane_impl!(u32, U32, I32, F32);
lane_impl!(u64, U64, I64);

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            DType::U8 => "u8",
            DType::I8 => "i8",
            DType::U16 => "u16",
            DType::I16 => "i16",
            DType::U32 => "u32",
            DType::I32 => "i32",
            DType::U64 => "u64",
            DType::I64 => "i64",
            DType::F16 => "f16",
            DType::F32 => "f32",
        };
        f.write_str(name)
    }
}

/// All ones when `b`, else zero: the select of the branch-free binary16
/// conversions.
#[inline(always)]
fn mask(b: bool) -> u32 {
    0u32.wrapping_sub(u32::from(b))
}

/// Converts an IEEE binary16 bit pattern to `f32`. Exact for every
/// pattern; a NaN keeps its sign and payload.
///
/// Branch-free: the magnitude bits shifted into `f32` position read as a
/// value 2^-112 times too small (subnormal halves land on `f32`
/// subnormals), so one exact multiply by 2^112 rebiases the exponent and
/// normalises subnormals; an inf/NaN half then gets the all-ones exponent.
#[inline(always)]
pub fn f16_to_f32(h: u16) -> f32 {
    let h = u32::from(h);
    let scaled = f32::from_bits((h & 0x7FFF) << 13) * f32::from_bits((127 + 112) << 23);
    let infnan = mask(h & 0x7C00 == 0x7C00) & 0x7F80_0000;
    f32::from_bits(scaled.to_bits() | infnan | (h & 0x8000) << 16)
}

/// Converts an `f32` to an IEEE binary16 bit pattern with
/// round-to-nearest-even: overflow gives inf, underflow a signed zero, and
/// every NaN the quiet NaN `0x7E00` with the input's sign.
///
/// Branch-free: all three candidate results are computed and the
/// magnitude selects one with masks.
#[inline(always)]
pub fn f32_to_f16(f: f32) -> u16 {
    const MIN_NORMAL: u32 = 113 << 23; // 2^-14, the smallest normal half
    const OVERFLOW: u32 = 143 << 23; // 2^16, rounds to inf from here up
    let bits = f.to_bits();
    let abs = bits & 0x7FFF_FFFF;
    // Normal half: rebias the exponent and round the 13 dropped fraction
    // bits to nearest even; a carry into the exponent is correct rounding.
    // (Below the normal range the subtraction wraps; that candidate is
    // then not selected.)
    let normal = abs
        .wrapping_sub((112 << 23) - 0xFFF)
        .wrapping_add((abs >> 13) & 1)
        >> 13;
    // Subnormal half: adding 0.5 makes the f32 ulp 2^-24, the half's
    // subnormal step, so the FPU's own round-to-nearest-even does the
    // rounding and the fraction bits are the result.
    let subnormal = (f32::from_bits(abs) + 0.5).to_bits() - 0x3F00_0000;
    let special = 0x7C00 | u32::from(abs > 0x7F80_0000) << 9;
    let is_sub = mask(abs < MIN_NORMAL);
    let is_special = mask(abs >= OVERFLOW);
    let finite = (subnormal & is_sub) | (normal & !is_sub);
    let h = (special & is_special) | (finite & !is_special);
    (h | (bits >> 16) & 0x8000) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The branchy conversions the branch-free ones replaced, kept verbatim
    // as oracles.

    /// Converts an IEEE binary16 bit pattern to `f32`.
    fn f16_to_f32_oracle(h: u16) -> f32 {
        let sign = u32::from(h >> 15) << 31;
        let exp = u32::from((h >> 10) & 0x1F);
        let frac = u32::from(h & 0x3FF);
        let bits = if exp == 0 {
            if frac == 0 {
                sign // signed zero
            } else {
                // Subnormal: normalise.
                let mut e = 127 - 15 + 1;
                let mut f = frac;
                while f & 0x400 == 0 {
                    f <<= 1;
                    e -= 1;
                }
                sign | ((e as u32) << 23) | ((f & 0x3FF) << 13)
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (frac << 13) // inf / NaN
        } else {
            sign | ((exp + 127 - 15) << 23) | (frac << 13)
        };
        f32::from_bits(bits)
    }

    /// Converts an `f32` to an IEEE binary16 bit pattern with
    /// round-to-nearest-even.
    fn f32_to_f16_oracle(f: f32) -> u16 {
        let bits = f.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x7F_FFFF;

        if exp == 0xFF {
            // Inf or NaN.
            return sign | 0x7C00 | if frac != 0 { 0x200 } else { 0 };
        }
        let unbiased = exp - 127;
        if unbiased > 15 {
            return sign | 0x7C00; // overflow → inf
        }
        if unbiased >= -14 {
            // Normal range: round the 23-bit fraction to 10 bits.
            let mut h = ((unbiased + 15) as u32) << 10 | (frac >> 13);
            let round_bits = frac & 0x1FFF;
            if round_bits > 0x1000 || (round_bits == 0x1000 && (h & 1) == 1) {
                h += 1; // may carry into the exponent — that is correct rounding
            }
            return sign | h as u16;
        }
        if unbiased >= -25 {
            // Subnormal half.
            let shift = (-14 - unbiased) as u32;
            let mant = (frac | 0x80_0000) >> (13 + shift);
            let rem = (frac | 0x80_0000) & ((1 << (13 + shift)) - 1);
            let half = 1u32 << (12 + shift);
            let mut h = mant;
            if rem > half || (rem == half && (h & 1) == 1) {
                h += 1;
            }
            return sign | h as u16;
        }
        sign // underflow → signed zero
    }

    #[test]
    fn widths_and_suffixes() {
        assert_eq!(DType::I8.bits(), 8);
        assert_eq!(DType::F16.bits(), 16);
        assert_eq!(DType::I32.suffix(), "dw");
        assert_eq!(DType::F32.suffix(), "f");
        assert_eq!(DType::U64.bytes(), 8);
        assert_eq!(DType::ALL.len(), 10);
    }

    #[test]
    fn signed_wrapping_semantics() {
        let t = DType::I8;
        assert_eq!(t.binop(BinOp::Add, 127, 1), 0x80); // i8 overflow wraps
        assert_eq!(t.to_i64(0x80), -128);
        assert_eq!(t.binop(BinOp::Sub, 0, 1), 0xFF);
        assert_eq!(t.to_i64(t.binop(BinOp::Mul, 0xFF, 0xFF)), 1); // (-1)*(-1)
    }

    #[test]
    fn unsigned_min_max() {
        let t = DType::U8;
        assert_eq!(t.binop(BinOp::Min, 0xFF, 1), 1);
        assert_eq!(t.binop(BinOp::Max, 0xFF, 1), 0xFF);
        let s = DType::I8;
        assert_eq!(s.binop(BinOp::Min, 0xFF, 1), 0xFF); // -1 < 1
    }

    #[test]
    fn signed_compare() {
        let t = DType::I16;
        let a = t.from_i64(-5);
        let b = t.from_i64(3);
        assert!(t.cmp(CmpOp::Lt, a, b));
        assert!(!t.cmp(CmpOp::Gt, a, b));
        assert!(t.cmp(CmpOp::Neq, a, b));
        let u = DType::U16;
        assert!(u.cmp(CmpOp::Gt, a, b)); // 0xFFFB > 3 unsigned
    }

    #[test]
    fn shifts_and_rotates() {
        let t = DType::U8;
        assert_eq!(t.shl(0b1011_0001, 3), 0b1000_1000);
        assert_eq!(t.shr(0b1011_0001, 3), 0b0001_0110);
        assert_eq!(t.rotl(0b1011_0001, 4), 0b0001_1011);
        let s = DType::I8;
        assert_eq!(s.to_i64(s.shr(s.from_i64(-64), 2)), -16); // arithmetic
        assert_eq!(t.shl(0xFF, 8), 0);
    }

    #[test]
    fn rotate_right_guards_width_multiples() {
        let t = DType::U8;
        assert_eq!(t.rotr(0b1011_0001, 4), 0b0001_1011);
        // Rotation by 0 or any multiple of the width is the identity — the
        // naïve `rotl(v, bits - sh % bits)` formulation would rotate left by
        // the full width instead.
        assert_eq!(t.rotr(0b1011_0001, 0), 0b1011_0001);
        assert_eq!(t.rotr(0b1011_0001, 8), 0b1011_0001);
        assert_eq!(t.rotr(0b1011_0001, 16), 0b1011_0001);
        assert_eq!(DType::U32.rotr(0x1234_5678, 32), 0x1234_5678);
        assert_eq!(DType::U32.rotr(0x1234_5678, 8), 0x7812_3456);
        // rotr is rotl's inverse.
        assert_eq!(t.rotr(t.rotl(0xA7, 3), 3), 0xA7);
    }

    #[test]
    fn conversions() {
        assert_eq!(DType::I8.convert_to(DType::I32, 0xFF), 0xFFFF_FFFF); // -1
        assert_eq!(DType::U8.convert_to(DType::I32, 0xFF), 0xFF); // 255
        assert_eq!(DType::I32.convert_to(DType::I8, 0x1_234), 0x34);
        let f = DType::I32.convert_to(DType::F32, 7);
        assert_eq!(f32::from_bits(f as u32), 7.0);
        assert_eq!(
            DType::F32.convert_to(DType::I32, (3.9f32).to_bits() as u64),
            3
        );
    }

    #[test]
    fn f16_special_values() {
        assert_eq!(f16_to_f32(0x0000), 0.0);
        assert_eq!(f16_to_f32(0x3C00), 1.0);
        assert_eq!(f16_to_f32(0xC000), -2.0);
        assert!(f16_to_f32(0x7C00).is_infinite());
        assert!(f16_to_f32(0x7E00).is_nan());
        assert_eq!(f32_to_f16(1.0), 0x3C00);
        assert_eq!(f32_to_f16(-2.0), 0xC000);
        assert_eq!(f32_to_f16(65504.0), 0x7BFF); // max finite half
        assert_eq!(f32_to_f16(1e6), 0x7C00); // overflow → inf
        assert_eq!(f32_to_f16(6e-8), 0x0001); // smallest subnormal
    }

    #[test]
    fn f16_to_f32_matches_oracle_on_every_pattern() {
        for h in 0..=u16::MAX {
            let (got, want) = (f16_to_f32(h), f16_to_f32_oracle(h));
            assert_eq!(got.to_bits(), want.to_bits(), "f16 {h:#06x}");
            // Every half, NaN payloads included, repacks to the oracle's
            // pattern.
            assert_eq!(f32_to_f16(got), f32_to_f16_oracle(want), "f16 {h:#06x}");
        }
    }

    /// `f32` patterns where binary16 rounding can go wrong: every exponent
    /// boundary ±2 ulp in both signs, every half's exact value and the
    /// midpoints to its neighbour ±1 ulp (the rounding ties, subnormal and
    /// overflow ones included), NaN payloads, and a strided sweep of the
    /// whole space.
    fn f32_boundary_sample() -> Vec<u32> {
        let mut out = Vec::new();
        for sign in [0u32, 0x8000_0000] {
            for exp in 0u32..=255 {
                let b = sign | exp << 23;
                out.extend((0..=2).map(|d| b.wrapping_add(d)));
                out.extend((1..=2).map(|d| b.wrapping_sub(d)));
            }
            for h in 0u32..0x7C00 {
                let lo = f16_to_f32_oracle(h as u16).to_bits();
                let mid = (lo + f16_to_f32_oracle(h as u16 + 1).to_bits()) / 2;
                for v in [lo, mid - 1, mid, mid + 1] {
                    out.push(sign | v);
                }
            }
            for payload in [1u32, 2, 0x1FFF, 0x2000, 0x40_0000, 0x7F_FFFF] {
                out.push(sign | 0x7F80_0000 | payload);
            }
            out.extend((1u32..0x80_0000).step_by(4093).map(|v| sign | v));
        }
        out.extend((0..=u32::MAX).step_by(65_521));
        out
    }

    #[test]
    fn f32_to_f16_matches_oracle_on_boundary_sample() {
        let sample = f32_boundary_sample();
        assert!(sample.len() > 300_000);
        for bits in sample {
            let f = f32::from_bits(bits);
            assert_eq!(f32_to_f16(f), f32_to_f16_oracle(f), "f32 {bits:#010x}");
        }
    }

    /// All 2^32 `f32` patterns (about half a minute in release:
    /// `cargo test --release -p mve-core -- --ignored`).
    #[test]
    #[ignore]
    fn f32_to_f16_matches_oracle_on_every_pattern() {
        let mismatches = (0..=u32::MAX)
            .filter(|&bits| {
                let f = f32::from_bits(bits);
                f32_to_f16(f) != f32_to_f16_oracle(f)
            })
            .count();
        assert_eq!(mismatches, 0);
    }

    #[test]
    fn f16_arithmetic_through_dtype() {
        let t = DType::F16;
        let a = t.from_f32(1.5);
        let b = t.from_f32(2.25);
        assert_eq!(t.to_f64(t.binop(BinOp::Add, a, b)), 3.75);
        assert_eq!(t.to_f64(t.binop(BinOp::Mul, a, b)), 3.375);
        assert!(t.cmp(CmpOp::Lt, a, b));
    }

    proptest! {
        #[test]
        fn prop_f16_roundtrip_exact_for_representable(v in -1000i32..1000) {
            // Small integers are exactly representable in binary16.
            let h = f32_to_f16(v as f32);
            prop_assert_eq!(f16_to_f32(h), v as f32);
        }

        #[test]
        fn prop_f16_roundtrip_monotone(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let flo = f16_to_f32(f32_to_f16(lo));
            let fhi = f16_to_f32(f32_to_f16(hi));
            prop_assert!(flo <= fhi, "rounding must preserve order: {} {}", flo, fhi);
        }

        #[test]
        fn prop_int_ops_match_reference(a: u32, b: u32) {
            let t = DType::I32;
            let (av, bv) = (u64::from(a), u64::from(b));
            prop_assert_eq!(t.binop(BinOp::Add, av, bv), u64::from(a.wrapping_add(b)));
            prop_assert_eq!(t.binop(BinOp::Sub, av, bv), u64::from(a.wrapping_sub(b)));
            prop_assert_eq!(t.binop(BinOp::Mul, av, bv), u64::from(a.wrapping_mul(b)));
            prop_assert_eq!(
                t.cmp(CmpOp::Gt, av, bv),
                (a as i32) > (b as i32)
            );
        }

        #[test]
        fn prop_truncate_idempotent(v: u64) {
            for t in DType::ALL {
                prop_assert_eq!(t.truncate(t.truncate(v)), t.truncate(v));
            }
        }
    }
}
