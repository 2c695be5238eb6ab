//! The logical-register abstraction (Figures 2–5).
//!
//! MVE treats a physical register as a multi-dimensional logical register
//! `PR[w][z][y][x]`. The controller flattens logical indices onto the flat
//! SIMD-lane space: dimension 0 (`x`) is the fastest varying, the highest
//! configured dimension (`w`) the slowest — lane = `x + y·|x| + z·|x||y| +
//! w·|x||y||z|`. Dimension-level masking (Section III-E) masks all lanes
//! under one element of the *highest* dimension.

use crate::config::{ControlRegs, MAX_DIMS};

/// A configured logical shape: up to four dimension lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogicalShape {
    dims: [usize; MAX_DIMS],
    count: usize,
}

impl LogicalShape {
    /// Creates a shape. Dimensions above `count` must be 1.
    ///
    /// # Panics
    ///
    /// Panics if `count` is outside `1..=4`, if any dimension in range is
    /// zero, or if higher dimensions are not 1.
    pub fn new(dims: [usize; MAX_DIMS], count: usize) -> Self {
        assert!((1..=MAX_DIMS).contains(&count), "invalid dimension count");
        for (d, &len) in dims.iter().enumerate() {
            if d < count {
                assert!(len > 0, "dimension {d} must be nonzero");
            } else {
                assert_eq!(len, 1, "dimension {d} above the count must be 1");
            }
        }
        Self { dims, count }
    }

    /// 1-D shape of `len` elements.
    pub fn linear(len: usize) -> Self {
        Self::new([len, 1, 1, 1], 1)
    }

    /// Dimension count.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Length of dimension `d` (1 above the count).
    pub fn dim(&self, d: usize) -> usize {
        self.dims[d]
    }

    /// Total element count (= active SIMD lanes before masking).
    pub fn total(&self) -> usize {
        self.dims.iter().product()
    }

    /// Index of the highest configured dimension.
    pub fn highest_dim(&self) -> usize {
        self.count - 1
    }

    /// Decomposes a flat lane index into `[x, y, z, w]` coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= total()`.
    pub fn coords(&self, lane: usize) -> [usize; MAX_DIMS] {
        assert!(lane < self.total(), "lane {lane} outside shape");
        let mut c = [0usize; MAX_DIMS];
        let mut rest = lane;
        for d in 0..MAX_DIMS {
            c[d] = rest % self.dims[d];
            rest /= self.dims[d];
        }
        c
    }

    /// Flattens coordinates back to a lane index.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of range.
    pub fn lane(&self, coords: [usize; MAX_DIMS]) -> usize {
        let mut lane = 0;
        let mut scale = 1;
        for d in 0..MAX_DIMS {
            assert!(coords[d] < self.dims[d], "coordinate {d} out of range");
            lane += coords[d] * scale;
            scale *= self.dims[d];
        }
        lane
    }

    /// The highest-dimension coordinate of a lane — the index the
    /// dimension-level mask applies to.
    pub fn mask_coord(&self, lane: usize) -> usize {
        self.coords(lane)[self.highest_dim()]
    }

    /// Whether `lane` is active under the CRs' dimension-level mask.
    pub fn lane_active(&self, lane: usize, crs: &ControlRegs) -> bool {
        lane < self.total() && crs.mask_bit_for(self.mask_coord(lane), self.dim(self.highest_dim()))
    }

    /// Iterates over active lanes under the CR mask, up to `max_lanes`.
    pub fn active_lanes<'a>(
        &'a self,
        crs: &'a ControlRegs,
        max_lanes: usize,
    ) -> impl Iterator<Item = usize> + 'a {
        let len = self.dim(self.highest_dim());
        (0..self.total().min(max_lanes)).filter(move |&l| crs.mask_bit_for(self.mask_coord(l), len))
    }

    /// Division-free odometer over the first `max_lanes` lanes of the shape,
    /// yielding `(lane, coords, active)` per lane.
    ///
    /// The per-lane address oracles in `addrgen` walk this instead of calling
    /// [`LogicalShape::coords`] (4 div/mods) and [`LogicalShape::lane_active`]
    /// (4 more) per lane: coordinates advance by carry propagation, and the
    /// mask bit is re-evaluated only when the highest-dimension coordinate
    /// changes. Equivalence with the reference pair is pinned by the
    /// `odometer_equivalence` property suite.
    pub fn iter_lanes<'a>(&self, crs: &'a ControlRegs, max_lanes: usize) -> ShapeIter<'a> {
        let highest = self.highest_dim();
        ShapeIter {
            dims: self.dims,
            coords: [0; MAX_DIMS],
            lane: 0,
            total: self.total().min(max_lanes),
            highest,
            highest_len: self.dim(highest),
            active: crs.mask_bit_for(0, self.dim(highest)),
            crs,
        }
    }
}

/// Carry-propagating lane iterator — see [`LogicalShape::iter_lanes`].
#[derive(Debug, Clone)]
pub struct ShapeIter<'a> {
    dims: [usize; MAX_DIMS],
    coords: [usize; MAX_DIMS],
    lane: usize,
    total: usize,
    highest: usize,
    highest_len: usize,
    active: bool,
    crs: &'a ControlRegs,
}

impl Iterator for ShapeIter<'_> {
    /// `(flat lane index, [x, y, z, w] coordinates, mask-active)`.
    type Item = (usize, [usize; MAX_DIMS], bool);

    fn next(&mut self) -> Option<Self::Item> {
        if self.lane >= self.total {
            return None;
        }
        let item = (self.lane, self.coords, self.active);
        self.lane += 1;
        // Odometer increment: bump dimension 0, carry upwards. The mask only
        // depends on the highest-dimension coordinate, so `active` is
        // refreshed exactly when a carry reaches it.
        for d in 0..MAX_DIMS {
            self.coords[d] += 1;
            if self.coords[d] < self.dims[d] {
                if d >= self.highest {
                    self.active = self
                        .crs
                        .mask_bit_for(self.coords[self.highest], self.highest_len);
                }
                break;
            }
            self.coords[d] = 0;
        }
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.total - self.lane;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ShapeIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn figure3_intra_prediction_layout() {
        // DIM0 len 3, DIM1 len 2, DIM2 len 3 → 18 lanes (Figure 3).
        let s = LogicalShape::new([3, 2, 3, 1], 3);
        assert_eq!(s.total(), 18);
        // Lane 0 = [0][0][0]; lane 5 = x=2,y=1,z=0; lane 6 = x=0,y=0,z=1.
        assert_eq!(s.coords(0), [0, 0, 0, 0]);
        assert_eq!(s.coords(5), [2, 1, 0, 0]);
        assert_eq!(s.coords(6), [0, 0, 1, 0]);
        assert_eq!(s.mask_coord(6), 1);
        assert_eq!(s.mask_coord(17), 2);
    }

    #[test]
    fn figure4_upsample_layout() {
        // 4D: DIM0 len 2 (replicate), DIM1 len 2 (row pixels), DIM2 len 2
        // (replicate rows), DIM3 len 3 (random rows) → 24 lanes (Figure 4).
        let s = LogicalShape::new([2, 2, 2, 3], 4);
        assert_eq!(s.total(), 24);
        assert_eq!(s.mask_coord(0), 0);
        assert_eq!(s.mask_coord(8), 1);
        assert_eq!(s.mask_coord(23), 2);
    }

    #[test]
    fn masking_hits_highest_dimension_only() {
        // Figure 5: 3D [2, 3, 2]; masking element 1 of Dim2 kills lanes 6-11.
        let s = LogicalShape::new([2, 3, 2, 1], 3);
        let mut crs = ControlRegs::new();
        crs.unset_mask(1);
        let active: Vec<usize> = s.active_lanes(&crs, 8192).collect();
        assert_eq!(active, vec![0, 1, 2, 3, 4, 5]);
        assert!(!s.lane_active(6, &crs));
        assert!(s.lane_active(5, &crs));
        assert!(!s.lane_active(12, &crs), "lane outside shape");
    }

    #[test]
    #[should_panic(expected = "above the count must be 1")]
    fn upper_dims_must_be_one() {
        LogicalShape::new([4, 4, 2, 1], 2);
    }

    proptest! {
        #[test]
        fn prop_coords_lane_roundtrip(
            d0 in 1usize..8, d1 in 1usize..8, d2 in 1usize..8, d3 in 1usize..4,
        ) {
            let s = LogicalShape::new([d0, d1, d2, d3], 4);
            for lane in 0..s.total() {
                prop_assert_eq!(s.lane(s.coords(lane)), lane);
            }
        }

        #[test]
        fn prop_flattening_is_row_major_in_dim0(
            d0 in 2usize..16, d1 in 1usize..8,
        ) {
            let s = LogicalShape::new([d0, d1, 1, 1], 2);
            // Consecutive lanes within a dim-1 row differ only in x.
            for lane in 0..s.total() - 1 {
                let a = s.coords(lane);
                let b = s.coords(lane + 1);
                if a[0] + 1 < d0 {
                    prop_assert_eq!(b[0], a[0] + 1);
                    prop_assert_eq!(b[1], a[1]);
                }
            }
        }
    }
}
