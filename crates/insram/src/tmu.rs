//! Transpose Memory Unit (TMU) timing.
//!
//! Section V-B: gathered data words arrive from the MSHRs in the horizontal
//! (memory) layout and must be rotated into the vertical (bit-line) layout
//! before they can be written into the compute arrays. The TMU is built from
//! 8T transpose bit-cells that are readable/writable in both directions; one
//! TMU is sized to hold a physical register's worth of data for one Control
//! Block (1024 elements by default). A crossbar (XB) routes each incoming
//! word to its bit-line column.
//!
//! The transpose itself is not modelled bit by bit: the word-level engine in
//! `mve-core` keeps lanes horizontal, and the bit-serial layout is checked
//! separately by [`crate::bitserial`]. What the simulator needs is the cycle
//! count to stream data through the unit, [`transfer_cycles`].

/// Cycles to fill a TMU with `elements` words of `bits` width through
/// the crossbar and drain it into the arrays as bit-slices.
///
/// Fill: the XB routes `xb_words_per_cycle` words per cycle; drain: one
/// bit-slice (word-line write) per cycle, `bits` slices total.
pub fn transfer_cycles(elements: usize, bits: usize, xb_words_per_cycle: usize) -> u64 {
    let fill = elements.div_ceil(xb_words_per_cycle.max(1)) as u64;
    let drain = bits as u64;
    fill + drain
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_cycle_model() {
        // 1024 elements, 32-bit, 8 words/cycle crossbar: 128 fill + 32 drain.
        assert_eq!(transfer_cycles(1024, 32, 8), 160);
        // Narrower data drains faster.
        assert!(transfer_cycles(1024, 8, 8) < transfer_cycles(1024, 32, 8));
    }
}
