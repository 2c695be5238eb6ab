//! Functional byte-addressable memory with a bump allocator.
//!
//! Kernels allocate buffers here and build realistic data structures —
//! including arrays of row pointers for the random-access patterns of
//! Section III-D (libjpeg allocates each image row separately).
//!
//! Address 0 is reserved (never allocated) so that null-pointer style bugs
//! in kernels fault loudly.

/// Scalar types that can live in the functional memory.
pub trait MemScalar: Copy {
    /// Size in bytes.
    const BYTES: u64;
    /// Raw little-endian lane representation.
    fn to_raw(self) -> u64;
    /// Back from the raw representation.
    fn from_raw(raw: u64) -> Self;
}

macro_rules! impl_mem_scalar {
    ($($t:ty => $bytes:expr),* $(,)?) => {
        $(impl MemScalar for $t {
            const BYTES: u64 = $bytes;
            fn to_raw(self) -> u64 {
                // Cast through the unsigned form to avoid sign extension
                // beyond the element width.
                (self as u64) & if $bytes == 8 { u64::MAX } else { (1u64 << ($bytes * 8)) - 1 }
            }
            fn from_raw(raw: u64) -> Self {
                raw as Self
            }
        })*
    };
}

impl_mem_scalar!(u8 => 1, i8 => 1, u16 => 2, i16 => 2, u32 => 4, i32 => 4, u64 => 8, i64 => 8);

impl MemScalar for f32 {
    const BYTES: u64 = 4;
    fn to_raw(self) -> u64 {
        u64::from(self.to_bits())
    }
    fn from_raw(raw: u64) -> Self {
        f32::from_bits(raw as u32)
    }
}

/// The functional memory.
#[derive(Debug, Clone)]
pub struct Memory {
    data: Vec<u8>,
    brk: u64,
}

impl Default for Memory {
    fn default() -> Self {
        Self::with_capacity(64 << 20)
    }
}

impl Memory {
    /// Creates a memory of `capacity` bytes.
    pub fn with_capacity(capacity: u64) -> Self {
        Self {
            data: vec![0; capacity as usize],
            brk: 64, // reserve the zero page head
        }
    }

    /// Allocates `bytes` with 64-byte (cache-line) alignment; returns the
    /// base address.
    ///
    /// # Panics
    ///
    /// Panics if the memory is exhausted.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = (self.brk + 63) & !63;
        assert!(
            base + bytes <= self.data.len() as u64,
            "functional memory exhausted: need {bytes} at {base}"
        );
        self.brk = base + bytes;
        base
    }

    /// Allocates space for `count` elements of `T`.
    pub fn alloc_typed<T: MemScalar>(&mut self, count: usize) -> u64 {
        self.alloc(count as u64 * T::BYTES)
    }

    /// Reads `bytes` (1..=8) little-endian at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access or access to the reserved zero page.
    #[inline]
    pub fn read_raw(&self, addr: u64, bytes: u64) -> u64 {
        assert!(addr >= 64, "read through null/reserved page at {addr:#x}");
        assert!(
            addr + bytes <= self.data.len() as u64,
            "read past end of memory at {addr:#x}"
        );
        let at = addr as usize;
        if at + 8 <= self.data.len() {
            // Fast path: one unaligned 8-byte load, masked to width.
            let v = u64::from_le_bytes(self.data[at..at + 8].try_into().unwrap());
            if bytes == 8 {
                v
            } else {
                v & ((1u64 << (8 * bytes)) - 1)
            }
        } else {
            let src = &self.data[at..at + bytes as usize];
            let mut buf = [0u8; 8];
            buf[..src.len()].copy_from_slice(src);
            u64::from_le_bytes(buf)
        }
    }

    /// Writes `bytes` (1..=8) little-endian at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access or access to the reserved zero page.
    #[inline]
    pub fn write_raw(&mut self, addr: u64, bytes: u64, value: u64) {
        assert!(addr >= 64, "write through null/reserved page at {addr:#x}");
        assert!(
            addr + bytes <= self.data.len() as u64,
            "write past end of memory at {addr:#x}"
        );
        let dst = &mut self.data[addr as usize..(addr + bytes) as usize];
        dst.copy_from_slice(&value.to_le_bytes()[..dst.len()]);
    }

    /// Whether `len` bytes at `addr` lie outside the reserved zero page and
    /// inside memory — i.e. whether [`Memory::slice`] would succeed.
    #[inline]
    pub fn fits(&self, addr: u64, len: u64) -> bool {
        addr >= 64
            && addr
                .checked_add(len)
                .is_some_and(|end| end <= self.data.len() as u64)
    }

    /// Borrows `len` raw bytes at `addr` — the block-kernel view the
    /// engine copies contiguous rows through.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access or access to the reserved zero page,
    /// with the same faults as [`Memory::read_raw`].
    #[inline]
    pub fn slice(&self, addr: u64, len: u64) -> &[u8] {
        assert!(addr >= 64, "read through null/reserved page at {addr:#x}");
        assert!(
            addr + len <= self.data.len() as u64,
            "read past end of memory at {addr:#x}"
        );
        &self.data[addr as usize..(addr + len) as usize]
    }

    /// Mutably borrows `len` raw bytes at `addr` — the block-kernel view
    /// the engine stores contiguous rows through.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access or access to the reserved zero page,
    /// with the same faults as [`Memory::write_raw`].
    #[inline]
    pub fn slice_mut(&mut self, addr: u64, len: u64) -> &mut [u8] {
        assert!(addr >= 64, "write through null/reserved page at {addr:#x}");
        assert!(
            addr + len <= self.data.len() as u64,
            "write past end of memory at {addr:#x}"
        );
        &mut self.data[addr as usize..(addr + len) as usize]
    }

    /// Reads element `idx` of a `T` array at `base`.
    pub fn read<T: MemScalar>(&self, base: u64, idx: usize) -> T {
        T::from_raw(self.read_raw(base + idx as u64 * T::BYTES, T::BYTES))
    }

    /// Writes element `idx` of a `T` array at `base`.
    pub fn write<T: MemScalar>(&mut self, base: u64, idx: usize, value: T) {
        self.write_raw(base + idx as u64 * T::BYTES, T::BYTES, value.to_raw());
    }

    /// Copies a slice into memory at `base`.
    pub fn fill<T: MemScalar>(&mut self, base: u64, values: &[T]) {
        for (i, &v) in values.iter().enumerate() {
            self.write(base, i, v);
        }
    }

    /// Reads `count` elements starting at `base`.
    pub fn read_vec<T: MemScalar>(&self, base: u64, count: usize) -> Vec<T> {
        (0..count).map(|i| self.read(base, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let mut m = Memory::with_capacity(1 << 16);
        let a = m.alloc(100);
        let b = m.alloc(1);
        let c = m.alloc(64);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
        assert!(c > b);
    }

    #[test]
    fn typed_roundtrip() {
        let mut m = Memory::with_capacity(1 << 16);
        let a = m.alloc_typed::<i32>(8);
        m.fill(a, &[-1i32, 2, -3, 4, 5, -6, 7, 8]);
        assert_eq!(m.read::<i32>(a, 0), -1);
        assert_eq!(m.read::<i32>(a, 2), -3);
        assert_eq!(m.read_vec::<i32>(a, 4), vec![-1, 2, -3, 4]);

        let f = m.alloc_typed::<f32>(2);
        m.fill(f, &[1.5f32, -2.25]);
        assert_eq!(m.read::<f32>(f, 1), -2.25);

        let p = m.alloc_typed::<u64>(2);
        m.fill(p, &[a, f]);
        assert_eq!(m.read::<u64>(p, 0), a);
    }

    #[test]
    fn narrow_types_do_not_clobber_neighbours() {
        let mut m = Memory::with_capacity(1 << 12);
        let a = m.alloc_typed::<u8>(4);
        m.fill(a, &[1u8, 2, 3, 4]);
        m.write::<u8>(a, 1, 0xFF);
        assert_eq!(m.read_vec::<u8>(a, 4), vec![1, 0xFF, 3, 4]);
        // Negative i8 must not sign-extend into the next byte.
        let b = m.alloc_typed::<i8>(2);
        m.fill(b, &[-1i8, 7]);
        assert_eq!(m.read::<i8>(b, 0), -1);
        assert_eq!(m.read::<i8>(b, 1), 7);
    }

    #[test]
    #[should_panic(expected = "null/reserved page")]
    fn null_reads_fault() {
        let m = Memory::with_capacity(1 << 12);
        m.read_raw(0, 4);
    }

    #[test]
    #[should_panic(expected = "past end of memory")]
    fn oob_writes_fault() {
        let mut m = Memory::with_capacity(1 << 12);
        m.write_raw((1 << 12) - 2, 4, 0);
    }
}
