//! Address generation: Algorithm 1 (multi-dimensional strided access) and
//! Equation 1 (random-base access with strided inner dimensions).
//!
//! Strides are expressed in *elements* (like typed C pointers); byte
//! addresses are formed by scaling with the element size. Stride modes are
//! resolved per Section III-C:
//!
//! * mode 0 → 0 (replication),
//! * mode 1 → 1 (sequential),
//! * mode 2 → `Sᵢ = Sᵢ₋₁ × Dimᵢ₋₁.Length` (sequential continuation;
//!   `S₋₁ = 1` so mode 2 on dimension 0 is plain sequential),
//! * mode 3 → the dimension's stride CR.
//!
//! The engine executes every resolved access through one path: a
//! [`RowPlan`] splits it into rows of the innermost dimension (block copy,
//! broadcast or strided gather/scatter per row), and the outer dimensions
//! only move each row's address. [`strided_addresses`] and
//! [`random_addresses`] give the same addresses lane by lane; they are the
//! reference the row path is tested against.

use crate::config::{ControlRegs, MAX_DIMS};
use crate::layout::LogicalShape;

/// Which stride CR bank a resolution should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrideBank {
    /// Load-stride CRs (`vsetldstr`).
    Load,
    /// Store-stride CRs (`vsetststr`).
    Store,
}

/// Resolves per-dimension stride modes into element strides.
///
/// # Panics
///
/// Panics if more modes than dimensions are supplied.
pub fn resolve_strides(
    modes: &[crate::isa::StrideMode],
    shape: &LogicalShape,
    crs: &ControlRegs,
    bank: StrideBank,
) -> [i64; MAX_DIMS] {
    assert!(
        modes.len() <= MAX_DIMS,
        "at most {MAX_DIMS} stride modes, got {}",
        modes.len()
    );
    let mut strides = [0i64; MAX_DIMS];
    for (d, mode) in modes.iter().enumerate() {
        strides[d] = match mode {
            crate::isa::StrideMode::Zero => 0,
            crate::isa::StrideMode::One => 1,
            crate::isa::StrideMode::Seq => {
                if d == 0 {
                    1
                } else {
                    strides[d - 1] * shape.dim(d - 1) as i64
                }
            }
            crate::isa::StrideMode::Cr => match bank {
                StrideBank::Load => crs.load_stride(d),
                StrideBank::Store => crs.store_stride(d),
            },
        };
    }
    strides
}

/// An access split into rows of its innermost dimension — the unit the
/// engine's single memory-access path copies.
///
/// Length-1 dimensions carry no address term and are dropped; adjacent
/// dimensions merge when `strideᵈ⁺¹ = strideᵈ · lenᵈ` (one longer row, or
/// one longer outer walk). Lanes stay in logical order, so row `r` covers
/// lanes `[r·row_len, (r+1)·row_len)` and lane `k` of a row sits at
/// element offset `k · stride` from the row's address. The outer merged
/// dimensions — or, for Equation 1, the row pointer of the highest
/// dimension — only move that address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowPlan {
    /// Merged dimensions `(length, element stride)`, innermost first:
    /// `dims[0]` is the row (`(1, 0)` when every dimension has length 1).
    dims: [(usize, i64); MAX_DIMS],
    count: usize,
    /// Rows sharing one base pointer.
    rows_per_base: usize,
}

impl RowPlan {
    /// Plans an access of `shape` under `strides`: Algorithm 1 from one
    /// base, or, when `random`, Equation 1 — the highest dimension's
    /// coordinate selects the base pointer and lower dimensions stride.
    pub fn new(shape: &LogicalShape, strides: &[i64; MAX_DIMS], random: bool) -> Self {
        let highest = shape.highest_dim();
        let (upto, lanes_per_base) = if random {
            (highest, shape.total() / shape.dim(highest))
        } else {
            (MAX_DIMS, shape.total())
        };
        let mut p = Self {
            dims: [(1, 0); MAX_DIMS],
            count: 0,
            rows_per_base: 0,
        };
        for d in (0..upto).filter(|&d| shape.dim(d) > 1) {
            let (len, stride) = (shape.dim(d), strides[d]);
            match p.count.checked_sub(1) {
                Some(i) if p.dims[i].1.checked_mul(p.dims[i].0 as i64) == Some(stride) => {
                    p.dims[i].0 *= len;
                }
                _ => {
                    p.dims[p.count] = (len, stride);
                    p.count += 1;
                }
            }
        }
        p.rows_per_base = lanes_per_base / p.row_len();
        p
    }

    /// Lanes per row.
    pub fn row_len(&self) -> usize {
        self.dims[0].0
    }

    /// Element stride along a row: 1 is a block copy, 0 a broadcast, any
    /// other value a strided gather/scatter.
    pub fn stride(&self) -> i64 {
        self.dims[0].1
    }

    /// Byte address of the first lane of row `row`: `bases` holds the one
    /// base of a strided plan, or one row pointer per highest-dimension
    /// element.
    pub fn row_addr(&self, row: usize, bases: &[u64], elem_bytes: u64) -> u64 {
        let mut rest = row % self.rows_per_base;
        let mut offset = 0i64;
        for &(len, stride) in &self.dims[1..self.count.max(1)] {
            offset = offset.wrapping_add(((rest % len) as i64).wrapping_mul(stride));
            rest /= len;
        }
        bases[row / self.rows_per_base].wrapping_add(offset.wrapping_mul(elem_bytes as i64) as u64)
    }
}

/// Algorithm 1, lane by lane: the byte address of every lane of a strided
/// access, `base + Σ_d coord_d · stride_d · elem_bytes`; masked lanes yield
/// `None`. The per-lane oracle the row path is checked against.
pub fn strided_addresses(
    base: u64,
    elem_bytes: u64,
    strides: &[i64; MAX_DIMS],
    shape: &LogicalShape,
    crs: &ControlRegs,
    max_lanes: usize,
) -> Vec<Option<u64>> {
    lane_addresses(shape, crs, max_lanes, |coords| {
        let offset: i64 = (0..MAX_DIMS).map(|d| coords[d] as i64 * strides[d]).sum();
        (base as i64 + offset * elem_bytes as i64) as u64
    })
}

/// Equation 1, lane by lane: the highest dimension's coordinate selects
/// `bases[w]`; lower dimensions apply their resolved strides.
///
/// # Panics
///
/// Panics if fewer bases are supplied than the highest dimension's length.
pub fn random_addresses(
    bases: &[u64],
    elem_bytes: u64,
    strides: &[i64; MAX_DIMS],
    shape: &LogicalShape,
    crs: &ControlRegs,
    max_lanes: usize,
) -> Vec<Option<u64>> {
    let highest = shape.highest_dim();
    assert!(
        bases.len() >= shape.dim(highest),
        "need {} base pointers, got {}",
        shape.dim(highest),
        bases.len()
    );
    lane_addresses(shape, crs, max_lanes, |coords| {
        let offset: i64 = (0..highest).map(|d| coords[d] as i64 * strides[d]).sum();
        (bases[coords[highest]] as i64 + offset * elem_bytes as i64) as u64
    })
}

/// Walks the lane odometer, addressing active lanes with `addr_of`.
fn lane_addresses(
    shape: &LogicalShape,
    crs: &ControlRegs,
    max_lanes: usize,
    addr_of: impl Fn(&[usize; MAX_DIMS]) -> u64,
) -> Vec<Option<u64>> {
    shape
        .iter_lanes(crs, max_lanes)
        .map(|(_, coords, active)| active.then(|| addr_of(&coords)))
        .collect()
}

/// Deduplicated cache lines touched by an address set (for the trace).
pub fn touched_lines(addrs: &[Option<u64>], elem_bytes: u64) -> Vec<u64> {
    let mut lines = Vec::new();
    let mut prev = u64::MAX;
    for &a in addrs.iter().flatten() {
        push_line_range(&mut lines, &mut prev, a, elem_bytes);
    }
    finish_lines(&mut lines);
    lines
}

/// Appends the line range of one address, collapsing a run of consecutive
/// equal lines via the caller-held `prev` (initialise it to `u64::MAX`):
/// strided rows visit each line `LINE_BYTES / elem_bytes` lanes in a row,
/// which shrinks the [`finish_lines`] sort by that factor.
#[inline]
pub fn push_line_range(lines: &mut Vec<u64>, prev: &mut u64, addr: u64, elem_bytes: u64) {
    let first = addr / mve_memsim::LINE_BYTES;
    let last = (addr + elem_bytes - 1) / mve_memsim::LINE_BYTES;
    for line in first..=last {
        if line != *prev {
            lines.push(line);
            *prev = line;
        }
    }
}

/// Sorts and deduplicates an accumulated line set in place.
pub fn finish_lines(lines: &mut Vec<u64>) {
    lines.sort_unstable();
    lines.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::StrideMode;

    fn crs_for(shape: &[usize]) -> ControlRegs {
        let mut crs = ControlRegs::new();
        crs.set_dim_count(shape.len());
        for (d, &len) in shape.iter().enumerate() {
            crs.set_dim_len(d, len);
        }
        crs
    }

    #[test]
    fn figure3_intra_prediction_addresses() {
        // Figure 3: 3D load, S0=1, S1=0 (replicate), S2=3; 2D source of
        // 3 rows × 3 cols. Logical [3,2,3]: 18 lanes.
        let crs = crs_for(&[3, 2, 3]);
        let shape = crs.shape();
        let strides = [1, 0, 3, 0];
        let addrs = strided_addresses(0, 1, &strides, &shape, &crs, 8192);
        let got: Vec<u64> = addrs.iter().map(|a| a.unwrap()).collect();
        // Paper's flattened physical layout: [0 1 2][0 1 2][3 4 5][3 4 5]...
        assert_eq!(
            got,
            vec![0, 1, 2, 0, 1, 2, 3, 4, 5, 3, 4, 5, 6, 7, 8, 6, 7, 8]
        );
    }

    #[test]
    fn mode2_seq_continues_lower_dimension() {
        // 2D [4, 3] with modes [One, Seq]: stride1 = 1 × 4 = 4 → a plain
        // row-major 4×3 tile.
        let crs = crs_for(&[4, 3]);
        let shape = crs.shape();
        let strides = resolve_strides(
            &[StrideMode::One, StrideMode::Seq],
            &shape,
            &crs,
            StrideBank::Load,
        );
        assert_eq!(strides[..2], [1, 4]);
        let addrs = strided_addresses(100, 4, &strides, &shape, &crs, 8192);
        assert_eq!(addrs[0], Some(100));
        assert_eq!(addrs[4], Some(100 + 4 * 4)); // next row
    }

    #[test]
    fn mode3_reads_the_right_cr_bank() {
        let mut crs = crs_for(&[4, 3]);
        crs.set_load_stride(1, 49);
        crs.set_store_stride(1, 7);
        let shape = crs.shape();
        let ld = resolve_strides(
            &[StrideMode::One, StrideMode::Cr],
            &shape,
            &crs,
            StrideBank::Load,
        );
        let st = resolve_strides(
            &[StrideMode::One, StrideMode::Cr],
            &shape,
            &crs,
            StrideBank::Store,
        );
        assert_eq!(ld[1], 49);
        assert_eq!(st[1], 7);
    }

    #[test]
    fn figure4_random_upsample_addresses() {
        // Figure 4: 4D [2(dup), 2(pixels), 2(dup), 3(random rows)];
        // strides 0, 1, 0 for the inner dims; row pointers are random.
        let crs = crs_for(&[2, 2, 2, 3]);
        let shape = crs.shape();
        let strides = [0, 1, 0, 0];
        let bases = [1000, 5000, 2000];
        let addrs = random_addresses(&bases, 1, &strides, &shape, &crs, 8192);
        let got: Vec<u64> = addrs.iter().map(|a| a.unwrap()).collect();
        assert_eq!(
            got,
            vec![
                1000, 1000, 1001, 1001, 1000, 1000, 1001, 1001, // row ptr 0 twice
                5000, 5000, 5001, 5001, 5000, 5000, 5001, 5001, // row ptr 1
                2000, 2000, 2001, 2001, 2000, 2000, 2001, 2001, // row ptr 2
            ]
        );
    }

    #[test]
    fn masked_lanes_have_no_address() {
        let mut crs = crs_for(&[4, 2]);
        crs.unset_mask(1); // kill the second dim-1 element → lanes 4..8
        let shape = crs.shape();
        let strides = [1, 4, 0, 0];
        let addrs = strided_addresses(0, 4, &strides, &shape, &crs, 8192);
        assert!(addrs[..4].iter().all(Option::is_some));
        assert!(addrs[4..].iter().all(Option::is_none));
    }

    #[test]
    fn touched_lines_dedup_and_straddle() {
        // Two 4-byte elements in the same line plus one straddling a line
        // boundary.
        let addrs = vec![Some(0), Some(4), Some(62), None];
        let lines = touched_lines(&addrs, 4);
        assert_eq!(lines, vec![0, 1]);
    }

    #[test]
    fn negative_cr_stride_walks_backwards() {
        let mut crs = crs_for(&[4]);
        crs.set_load_stride(0, -1);
        let shape = crs.shape();
        let strides = resolve_strides(&[StrideMode::Cr], &shape, &crs, StrideBank::Load);
        let addrs = strided_addresses(1000, 4, &strides, &shape, &crs, 8192);
        let got: Vec<u64> = addrs.iter().map(|a| a.unwrap()).collect();
        assert_eq!(got, vec![1000, 996, 992, 988]);
    }
}
