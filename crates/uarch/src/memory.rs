//! Sparse simulated physical memory.
//!
//! The side channel never depends on data values, but a library that
//! executes loads and stores should actually move bytes; examples and the
//! Fig. 1 fault-suppression demo read back what they wrote.

use std::collections::HashMap;

use avx_mmu::PhysAddr;

/// Byte-addressable sparse memory; unwritten bytes read as zero.
#[derive(Clone, Debug, Default)]
pub struct SparseMemory {
    bytes: HashMap<u64, u8>,
}

impl SparseMemory {
    /// Creates empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads `buf.len()` bytes starting at `pa`.
    pub fn read(&self, pa: PhysAddr, buf: &mut [u8]) {
        for (i, slot) in buf.iter_mut().enumerate() {
            *slot = self
                .bytes
                .get(&pa.as_u64().wrapping_add(i as u64))
                .copied()
                .unwrap_or(0);
        }
    }

    /// Writes `data` starting at `pa`.
    pub fn write(&mut self, pa: PhysAddr, data: &[u8]) {
        for (i, &b) in data.iter().enumerate() {
            let addr = pa.as_u64().wrapping_add(i as u64);
            if b == 0 {
                self.bytes.remove(&addr);
            } else {
                self.bytes.insert(addr, b);
            }
        }
    }

    /// Zeroes all memory, keeping the allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
    }

    /// Number of non-zero bytes stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` when entirely zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let mem = SparseMemory::new();
        let mut buf = [0xffu8; 8];
        mem.read(PhysAddr::new(0x1000), &mut buf);
        assert_eq!(buf, [0; 8]);
    }

    #[test]
    fn write_read_round_trip() {
        let mut mem = SparseMemory::new();
        mem.write(PhysAddr::new(0x2000), &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        mem.read(PhysAddr::new(0x2000), &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn zero_writes_reclaim_storage() {
        let mut mem = SparseMemory::new();
        mem.write(PhysAddr::new(0x3000), &[7, 7]);
        assert_eq!(mem.len(), 2);
        mem.write(PhysAddr::new(0x3000), &[0, 0]);
        assert!(mem.is_empty());
    }

    #[test]
    fn partial_overlap() {
        let mut mem = SparseMemory::new();
        mem.write(PhysAddr::new(0x100), &[1, 2, 3, 4]);
        mem.write(PhysAddr::new(0x102), &[9]);
        let mut buf = [0u8; 4];
        mem.read(PhysAddr::new(0x100), &mut buf);
        assert_eq!(buf, [1, 2, 9, 4]);
    }
}
