//! Address-range sweeps: the shape shared by every scan attack.
//!
//! Fig. 4 (512 × 2 MiB kernel slots), Fig. 5 (16384 × 4 KiB module
//! pages), Fig. 7 (user pages) and the §IV-G Windows region scan all
//! walk an arithmetic progression of candidate addresses and time one
//! masked op per candidate. [`AddrRange`] describes such a progression,
//! and [`TileSource`] hands either it or an address slice to the sweep
//! engines one probe-pipeline tile at a time, so the probe backend sees
//! whole batches instead of one address at a time.
//!
//! ```
//! use avx_channel::AddrRange;
//! use avx_mmu::VirtAddr;
//!
//! // The Fig. 4 candidate set: 512 slots at 2 MiB stride.
//! let range = AddrRange::new(
//!     VirtAddr::new_truncate(0xffff_ffff_8000_0000),
//!     2 * 1024 * 1024,
//!     512,
//! );
//! assert_eq!(range.len(), 512);
//! assert_eq!(range.addr(1).as_u64() - range.addr(0).as_u64(), 0x20_0000);
//! // Chunked iteration is what the batched probe pipeline consumes.
//! assert_eq!(range.chunks(16).count(), 32);
//! ```

use avx_mmu::VirtAddr;

use crate::prober::ProbeStrategy;

/// An arithmetic progression of candidate addresses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AddrRange {
    /// First candidate.
    pub start: VirtAddr,
    /// Distance between candidates in bytes.
    pub stride: u64,
    /// Number of candidates.
    pub count: u64,
}

impl AddrRange {
    /// A range of `count` candidates at `stride` from `start`.
    #[must_use]
    pub fn new(start: VirtAddr, stride: u64, count: u64) -> Self {
        Self {
            start,
            stride,
            count,
        }
    }

    /// A range of 4 KiB-aligned pages.
    #[must_use]
    pub fn pages(start: VirtAddr, count: u64) -> Self {
        Self::new(start, 4096, count)
    }

    /// The `i`-th candidate address (wrapping).
    #[must_use]
    pub fn addr(&self, i: u64) -> VirtAddr {
        self.start.wrapping_add(i.wrapping_mul(self.stride))
    }

    /// Number of candidates as `usize`.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::try_from(self.count).expect("sweep fits in memory")
    }

    /// `true` for an empty range.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Iterates the candidate addresses.
    pub fn iter(&self) -> impl Iterator<Item = VirtAddr> + '_ {
        (0..self.count).map(|i| self.addr(i))
    }

    /// Materializes all candidates.
    #[must_use]
    pub fn to_vec(&self) -> Vec<VirtAddr> {
        self.iter().collect()
    }

    /// Replaces the contents of `out` with the candidate addresses —
    /// the streaming alternative to [`AddrRange::to_vec`]: sweeps reuse
    /// one tile-sized buffer instead of materializing the whole range.
    pub fn fill(&self, out: &mut Vec<VirtAddr>) {
        out.clear();
        out.extend(self.iter());
    }

    /// Splits the range into consecutive sub-ranges of at most
    /// `chunk` candidates — the streaming shape used by early-exit
    /// scans (Windows §IV-G), which probe chunk by chunk and stop as
    /// soon as the target pattern is confirmed.
    pub fn chunks(&self, chunk: u64) -> impl Iterator<Item = AddrRange> + '_ {
        assert!(chunk > 0, "chunk must be positive");
        (0..self.count.div_ceil(chunk)).map(move |c| {
            let first = c * chunk;
            AddrRange::new(self.addr(first), self.stride, chunk.min(self.count - first))
        })
    }

    /// The probe-pipeline tile decomposition:
    /// [`AddrRange::chunks`] at
    /// [`crate::ProbeStrategy::BATCH_TILE`]-sized steps. Every sweep
    /// engine — fixed, adaptive, and the closed-loop
    /// [`crate::recal::Recalibrating`] driver — iterates this exact
    /// shape through [`TileSource`], which is what makes their probe
    /// orders (and therefore their noise streams) interchangeable.
    pub fn tiles(&self) -> impl Iterator<Item = AddrRange> + '_ {
        self.chunks(ProbeStrategy::BATCH_TILE as u64)
    }
}

mod sealed {
    pub trait Sealed {}
    impl<T: AsRef<[avx_mmu::VirtAddr]> + ?Sized> Sealed for T {}
    impl Sealed for super::AddrRange {}
}

/// The candidate shapes every sweep engine takes: an address slice
/// (a `[VirtAddr]`, an array or a `Vec`) or an [`AddrRange`].
///
/// [`TileSource::for_each_tile`] is the one tile loop of the sweep
/// engines: a slice is chunked in place, a range is generated into one
/// tile buffer on the stack. Both yield the [`AddrRange::tiles`] shape, so a
/// range and its `to_vec()` sweep probe for probe alike. Sealed: the
/// engines rely on that tile shape.
pub trait TileSource: sealed::Sealed {
    /// Number of candidates.
    fn candidate_count(&self) -> usize;

    /// Calls `f` on consecutive tiles of at most
    /// [`ProbeStrategy::BATCH_TILE`] candidates, in order.
    fn for_each_tile(&self, f: impl FnMut(&[VirtAddr]));
}

impl<T: AsRef<[VirtAddr]> + ?Sized> TileSource for T {
    fn candidate_count(&self) -> usize {
        self.as_ref().len()
    }

    fn for_each_tile(&self, f: impl FnMut(&[VirtAddr])) {
        self.as_ref().chunks(ProbeStrategy::BATCH_TILE).for_each(f);
    }
}

impl TileSource for AddrRange {
    fn candidate_count(&self) -> usize {
        self.len()
    }

    fn for_each_tile(&self, mut f: impl FnMut(&[VirtAddr])) {
        let mut tile = [VirtAddr::default(); ProbeStrategy::BATCH_TILE];
        for chunk in self.tiles() {
            let tile = &mut tile[..chunk.len()];
            for (i, slot) in tile.iter_mut().enumerate() {
                *slot = chunk.addr(i as u64);
            }
            f(tile);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_step_by_stride() {
        let r = AddrRange::new(VirtAddr::new_truncate(0x1000), 0x2000, 4);
        let addrs: Vec<u64> = r.iter().map(VirtAddr::as_u64).collect();
        assert_eq!(addrs, vec![0x1000, 0x3000, 0x5000, 0x7000]);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
    }

    #[test]
    fn chunking_covers_exactly_once() {
        let r = AddrRange::pages(VirtAddr::new_truncate(0x7f00_0000_0000), 10);
        let chunks: Vec<AddrRange> = r.chunks(4).collect();
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].count, 4);
        assert_eq!(chunks[2].count, 2);
        let flat: Vec<VirtAddr> = chunks.iter().flat_map(|c| c.to_vec()).collect();
        assert_eq!(flat, r.to_vec());
    }

    #[test]
    fn empty_range_has_no_chunks() {
        let r = AddrRange::pages(VirtAddr::new_truncate(0), 0);
        assert!(r.is_empty());
        assert_eq!(r.chunks(8).count(), 0);
        assert!(r.to_vec().is_empty());
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn chunk_sizes_at_and_above_count_yield_one_chunk() {
        let r = AddrRange::pages(VirtAddr::new_truncate(0x1000), 5);
        // chunk == count: exactly one full chunk.
        let exact: Vec<AddrRange> = r.chunks(5).collect();
        assert_eq!(exact.len(), 1);
        assert_eq!(exact[0].count, 5);
        // chunk > count: one short chunk, nothing invented.
        let over: Vec<AddrRange> = r.chunks(64).collect();
        assert_eq!(over.len(), 1);
        assert_eq!(over[0].count, 5);
        assert_eq!(over[0].to_vec(), r.to_vec());
        // chunk == 1: count chunks of one candidate each.
        assert_eq!(r.chunks(1).count(), 5);
    }

    #[test]
    fn non_dividing_chunks_partition_without_overlap() {
        // Every (count, chunk) pair must partition the range exactly —
        // the Windows streaming scan depends on no candidate being
        // probed twice or skipped at chunk seams.
        for count in [1u64, 2, 7, 16, 17, 31] {
            for chunk in [1u64, 2, 3, 5, 16] {
                let r = AddrRange::new(VirtAddr::new_truncate(0x7f00_0000_0000), 0x2000, count);
                let chunks: Vec<AddrRange> = r.chunks(chunk).collect();
                assert_eq!(
                    chunks.len() as u64,
                    count.div_ceil(chunk),
                    "{count}/{chunk}"
                );
                let flat: Vec<VirtAddr> = chunks.iter().flat_map(|c| c.to_vec()).collect();
                assert_eq!(flat, r.to_vec(), "{count}/{chunk}");
                assert!(chunks.iter().all(|c| c.count > 0), "{count}/{chunk}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn zero_chunk_size_is_rejected() {
        let r = AddrRange::pages(VirtAddr::new_truncate(0x1000), 4);
        let _ = r.chunks(0).count();
    }

    #[test]
    fn stride_across_the_canonical_boundary_sign_extends() {
        // A sweep that runs past the top of the user half lands on
        // canonical kernel-half addresses (bit 47 sign-extended), not on
        // non-canonical garbage — and chunking still covers the range
        // exactly once.
        let r = AddrRange::pages(VirtAddr::new_truncate(0x0000_7fff_ffff_e000), 4);
        let addrs: Vec<u64> = r.iter().map(VirtAddr::as_u64).collect();
        assert_eq!(addrs[0], 0x0000_7fff_ffff_e000);
        assert_eq!(addrs[1], 0x0000_7fff_ffff_f000);
        assert_eq!(addrs[2], 0xffff_8000_0000_0000, "sign-extended");
        assert_eq!(addrs[3], 0xffff_8000_0000_1000);
        assert!(VirtAddr::new_truncate(addrs[2]).is_kernel_half());
        let flat: Vec<VirtAddr> = r.chunks(3).flat_map(|c| c.to_vec()).collect();
        assert_eq!(flat, r.to_vec());
    }

    #[test]
    fn index_times_stride_overflow_wraps_instead_of_panicking() {
        // i × stride can exceed u64 for pathological strides; addr() is
        // documented as wrapping, so the sweep stays total.
        let r = AddrRange::new(VirtAddr::new_truncate(0x1000), u64::MAX / 2, 5);
        let addrs: Vec<VirtAddr> = r.iter().collect();
        assert_eq!(addrs.len(), 5);
        // Explicit wrap check: 2 × (u64::MAX/2) wraps to u64::MAX - 1.
        let expected =
            VirtAddr::new_truncate(0x1000u64.wrapping_add((u64::MAX / 2).wrapping_mul(2)));
        assert_eq!(r.addr(2), expected);
    }
}
