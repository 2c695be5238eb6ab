//! The MVE instruction set: opcodes (Table II), stride modes (Section III-C)
//! and the Table I feature comparison matrix.

use crate::dtype::DType;

/// The 2-bit per-dimension stride mode encoding of Section III-C.
///
/// Encoding multiple absolute 16-bit strides would blow up the instruction
/// width, so MVE encodes each dimension's stride as a 2-bit *mode*:
///
/// * mode 0 (`Zero`) — stride 0: replicate across this dimension;
/// * mode 1 (`One`) — stride 1: sequential elements;
/// * mode 2 (`Seq`) — continue the lower dimension:
///   `Sᵢ = Sᵢ₋₁ × Dimᵢ₋₁.Length` (for dim 0 this degenerates to 1);
/// * mode 3 (`Cr`) — use the per-dimension load/store stride CR set by a
///   `vsetldstr`/`vsetststr` config instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrideMode {
    /// Stride 0 — replication.
    Zero,
    /// Stride 1 — sequential.
    One,
    /// Sequential continuation of the lower dimension.
    Seq,
    /// Take the stride from the dimension's stride CR.
    Cr,
}

/// Instruction categories used by the Figure 11 instruction-distribution
/// analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Controller configuration (`vsetdimc`, `vsetdiml`, masks, width, CRs).
    Config,
    /// Register move/convert.
    Move,
    /// Vector loads and stores (strided or random).
    MemAccess,
    /// Everything executed on the SRAM arrays.
    Arithmetic,
}

/// MVE opcodes, one per Table II row (plus the stride-CR setters the
/// Section IV listings use).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// `vsetdimc rs` — set dimension count.
    SetDimCount,
    /// `vsetdiml rs1 rs2` — set one dimension's length.
    SetDimLength,
    /// `vsetmask rs` — enable the highest-dimension element `rs`.
    SetMask,
    /// `vunsetmask rs` — mask off the highest-dimension element `rs`.
    UnsetMask,
    /// `vsetwidth imm8` — set kernel register width.
    SetWidth,
    /// `vsetldstr rs1 rs2` — set a load-stride CR (Section IV listings).
    SetLoadStride,
    /// `vsetststr rs1 rs2` — set a store-stride CR.
    SetStoreStride,
    /// `vcvt vd vs` — precision/type conversion.
    Convert,
    /// `vcpy vd vs` — register copy.
    Copy,
    /// `vsld vd rs1 rs2` — multi-dimensional strided load.
    StridedLoad,
    /// `vrld vd rs1 rs2` — random-base load with strided inner dims.
    RandomLoad,
    /// `vsst vs rs1 rs2` — multi-dimensional strided store.
    StridedStore,
    /// `vrst vs rs1 rs2` — random-base store.
    RandomStore,
    /// `vsetdup vd rs` — broadcast a scalar.
    SetDup,
    /// `vshi(l/r) vd vs rs` — shift by immediate.
    ShiftImm,
    /// `vroti(l/r) vd vs rs` — rotate by immediate.
    RotateImm,
    /// `vshr(l/r) vd vs1 vs2` — shift by per-lane register amount.
    ShiftReg,
    /// `vadd vd vs1 vs2`.
    Add,
    /// `vsub vd vs1 vs2`.
    Sub,
    /// `vmul vd vs1 vs2`.
    Mul,
    /// `vmin vd vs1 vs2`.
    Min,
    /// `vmax vd vs1 vs2`.
    Max,
    /// `vxor vd vs1 vs2`.
    Xor,
    /// `vand vd vs1 vs2`.
    And,
    /// `vor vd vs1 vs2`.
    Or,
    /// `vgt/vgte/vlt/vlte/veq/vneq vs1 vs2` — predicate compare into Tag.
    Compare,
}

impl Opcode {
    /// The instruction category (Figure 11 buckets).
    pub fn class(&self) -> OpClass {
        use Opcode::*;
        match self {
            SetDimCount | SetDimLength | SetMask | UnsetMask | SetWidth | SetLoadStride
            | SetStoreStride => OpClass::Config,
            Convert | Copy => OpClass::Move,
            StridedLoad | RandomLoad | StridedStore | RandomStore => OpClass::MemAccess,
            SetDup | ShiftImm | RotateImm | ShiftReg | Add | Sub | Mul | Min | Max | Xor | And
            | Or | Compare => OpClass::Arithmetic,
        }
    }

    /// Assembly mnemonic (Table II).
    pub fn mnemonic(&self) -> &'static str {
        use Opcode::*;
        match self {
            SetDimCount => "vsetdimc",
            SetDimLength => "vsetdiml",
            SetMask => "vsetmask",
            UnsetMask => "vunsetmask",
            SetWidth => "vsetwidth",
            SetLoadStride => "vsetldstr",
            SetStoreStride => "vsetststr",
            Convert => "vcvt",
            Copy => "vcpy",
            StridedLoad => "vsld",
            RandomLoad => "vrld",
            StridedStore => "vsst",
            RandomStore => "vrst",
            SetDup => "vsetdup",
            ShiftImm => "vshi",
            RotateImm => "vroti",
            ShiftReg => "vshr",
            Add => "vadd",
            Sub => "vsub",
            Mul => "vmul",
            Min => "vmin",
            Max => "vmax",
            Xor => "vxor",
            And => "vand",
            Or => "vor",
            Compare => "vcmp",
        }
    }

    /// Full assembly name with a data-type suffix, e.g. `vadd_dw`.
    pub fn assembly(&self, dtype: DType) -> String {
        if self.class() == OpClass::Config {
            self.mnemonic().to_owned()
        } else {
            format!("{}_{}", self.mnemonic(), dtype.suffix())
        }
    }
}

/// One row of the Table I ISA comparison.
#[derive(Debug, Clone)]
pub struct IsaFeatures {
    /// ISA name.
    pub name: &'static str,
    /// Maximum architectural vector length.
    pub max_vector_length: &'static str,
    /// Strided-access flexibility.
    pub strided_access: &'static str,
    /// Random-access form.
    pub random_access: &'static str,
    /// Masking support.
    pub masked_execution: &'static str,
}

/// The Table I feature matrix.
pub fn feature_table() -> Vec<IsaFeatures> {
    vec![
        IsaFeatures {
            name: "MVE (this work)",
            max_vector_length: "infinite",
            strided_access: "Flexible 4D",
            random_access: "Random Base + Strided Offset",
            masked_execution: "Predicate / Dimension-Level",
        },
        IsaFeatures {
            name: "RISC-V RVV",
            max_vector_length: "infinite",
            strided_access: "Flexible 1D",
            random_access: "Random Offset",
            masked_execution: "Predicate",
        },
        IsaFeatures {
            name: "Arm SVE",
            max_vector_length: "2048 bits",
            strided_access: "-",
            random_access: "Random Base / Random Offset",
            masked_execution: "Predicate",
        },
        IsaFeatures {
            name: "NEC",
            max_vector_length: "16384 bits",
            strided_access: "Constant 2D",
            random_access: "-",
            masked_execution: "Predicate",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_classes_match_table_ii() {
        assert_eq!(Opcode::SetDimCount.class(), OpClass::Config);
        assert_eq!(Opcode::Convert.class(), OpClass::Move);
        assert_eq!(Opcode::StridedLoad.class(), OpClass::MemAccess);
        assert_eq!(Opcode::Mul.class(), OpClass::Arithmetic);
    }

    #[test]
    fn assembly_names() {
        assert_eq!(Opcode::Add.assembly(DType::I32), "vadd_dw");
        assert_eq!(Opcode::StridedLoad.assembly(DType::F32), "vsld_f");
        assert_eq!(Opcode::SetDimCount.assembly(DType::I8), "vsetdimc");
        assert_eq!(Opcode::RandomLoad.assembly(DType::U8), "vrld_b");
    }

    #[test]
    fn feature_table_has_four_isas() {
        let t = feature_table();
        assert_eq!(t.len(), 4);
        assert!(t[0].name.contains("MVE"));
        assert!(t[0].masked_execution.contains("Dimension-Level"));
    }
}
