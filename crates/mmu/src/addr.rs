//! Virtual and physical address newtypes.
//!
//! x86-64 virtual addresses are 64 bits wide but only 48 bits are
//! translated (4-level paging); bits 63..48 must be a sign extension of
//! bit 47 ("canonical form"). The kernel half of the address space
//! therefore starts at `0xffff_8000_0000_0000`.

use core::fmt;

use crate::error::MmuError;
use crate::table::{Level, ENTRIES_PER_TABLE};

/// Mask of the bits that participate in 4-level translation.
const VADDR_BITS: u64 = 48;
/// log2 of the 4 KiB page and frame size: the last level's shift.
const PAGE_SHIFT: u32 = Level::Pt.shift();
/// Bits 63..47 of a canonical address are all equal.
const CANONICAL_MASK: u64 = !((1u64 << (VADDR_BITS - 1)) - 1);

/// A canonical 48-bit x86-64 virtual address.
///
/// The type guarantees canonicality: every constructed value satisfies
/// the sign-extension rule, so downstream code never has to re-validate.
///
/// ```
/// use avx_mmu::VirtAddr;
/// let va = VirtAddr::new(0xffff_ffff_8000_0000).unwrap();
/// assert!(va.is_kernel_half());
/// assert_eq!(va.index_for(avx_mmu::Level::Pml4), 511);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address, checking canonical form.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::NonCanonical`] if bits 63..48 are not the sign
    /// extension of bit 47.
    pub fn new(raw: u64) -> Result<Self, MmuError> {
        let truncated = Self::new_truncate(raw);
        if truncated.0 == raw {
            Ok(truncated)
        } else {
            Err(MmuError::NonCanonical { addr: raw })
        }
    }

    /// Creates a virtual address by sign-extending bit 47, discarding the
    /// upper bits of `raw`.
    #[must_use]
    pub const fn new_truncate(raw: u64) -> Self {
        // Shift left then arithmetic-shift right to sign-extend bit 47.
        const SIGN: u64 = 64 - VADDR_BITS;
        Self(((raw << SIGN) as i64 >> SIGN) as u64)
    }

    /// Creates a virtual address from a value already known canonical.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `raw` is not canonical.
    #[must_use]
    pub const fn new_unchecked(raw: u64) -> Self {
        debug_assert!(Self::new_truncate(raw).0 == raw);
        Self(raw)
    }

    /// The zero address.
    #[must_use]
    pub const fn zero() -> Self {
        Self(0)
    }

    /// Raw 64-bit value.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// `true` if the address lies in the upper (kernel) half.
    #[must_use]
    pub const fn is_kernel_half(self) -> bool {
        self.0 & CANONICAL_MASK == CANONICAL_MASK
    }

    /// Paging-structure index for `level`: the 9 address bits from
    /// [`Level::shift`] up.
    #[must_use]
    pub const fn index_for(self, level: Level) -> usize {
        ((self.0 >> level.shift()) & (ENTRIES_PER_TABLE as u64 - 1)) as usize
    }

    /// Offset within a 4 KiB page (bits 11..0).
    #[must_use]
    pub const fn page_offset(self) -> u64 {
        self.0 & ((1 << PAGE_SHIFT) - 1)
    }

    /// The 4 KiB virtual page number (address >> 12).
    #[must_use]
    pub const fn vpn(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Rounds down to the given power-of-two alignment.
    #[must_use]
    pub const fn align_down(self, align: u64) -> Self {
        debug_assert!(align.is_power_of_two());
        Self::new_truncate(self.0 & !(align - 1))
    }

    /// `true` if aligned to the given power-of-two alignment.
    #[must_use]
    pub const fn is_aligned(self, align: u64) -> bool {
        debug_assert!(align.is_power_of_two());
        self.0 & (align - 1) == 0
    }

    /// Adds a byte offset, canonicalizing the result.
    ///
    /// Canonical arithmetic wraps through the non-canonical hole exactly
    /// like hardware sign extension would; callers probing linear ranges
    /// stay inside one half as long as they do not cross it.
    #[must_use]
    pub const fn wrapping_add(self, offset: u64) -> Self {
        Self::new_truncate(self.0.wrapping_add(offset))
    }

    /// Checked addition that fails when the result is non-canonical.
    ///
    /// # Errors
    ///
    /// Returns [`MmuError::NonCanonical`] when the sum leaves canonical space.
    pub fn checked_add(self, offset: u64) -> Result<Self, MmuError> {
        Self::new(self.0.wrapping_add(offset))
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtAddr({:#018x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<VirtAddr> for u64 {
    fn from(va: VirtAddr) -> u64 {
        va.as_u64()
    }
}

/// A physical address (up to 52 bits on x86-64).
///
/// ```
/// use avx_mmu::PhysAddr;
/// let pa = PhysAddr::new(0x1000);
/// assert_eq!(pa.frame_number(), 1);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

/// Maximum supported physical address bits.
pub const PHYS_ADDR_BITS: u64 = 52;

impl PhysAddr {
    /// Creates a physical address.
    ///
    /// # Panics
    ///
    /// Panics if bits above [`PHYS_ADDR_BITS`] are set.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        assert!(raw < (1u64 << PHYS_ADDR_BITS), "physical address too wide");
        Self(raw)
    }

    /// The zero physical address.
    #[must_use]
    pub const fn zero() -> Self {
        Self(0)
    }

    /// Raw value.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The 4 KiB physical frame number.
    #[must_use]
    pub const fn frame_number(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Physical address of the given 4 KiB frame.
    #[must_use]
    pub const fn from_frame_number(frame: u64) -> Self {
        Self::new(frame << PAGE_SHIFT)
    }

    /// Adds a byte offset.
    #[must_use]
    pub const fn wrapping_add(self, offset: u64) -> Self {
        Self(self.0.wrapping_add(offset) & ((1u64 << PHYS_ADDR_BITS) - 1))
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysAddr({:#014x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#014x}", self.0)
    }
}

impl fmt::LowerHex for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<PhysAddr> for u64 {
    fn from(pa: PhysAddr) -> u64 {
        pa.as_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_low_half_accepted() {
        assert!(VirtAddr::new(0).is_ok());
        assert!(VirtAddr::new(0x7fff_ffff_ffff).is_ok());
    }

    #[test]
    fn canonical_high_half_accepted() {
        assert!(VirtAddr::new(0xffff_8000_0000_0000).is_ok());
        assert!(VirtAddr::new(0xffff_ffff_ffff_ffff).is_ok());
    }

    #[test]
    fn non_canonical_rejected() {
        assert!(VirtAddr::new(0x8000_0000_0000).is_err());
        assert!(VirtAddr::new(0x1234_0000_0000_0000).is_err());
        assert!(VirtAddr::new(0xfffe_8000_0000_0000).is_err());
    }

    #[test]
    fn truncate_sign_extends_bit_47() {
        let va = VirtAddr::new_truncate(0x0000_8000_0000_0000);
        assert_eq!(va.as_u64(), 0xffff_8000_0000_0000);
        let va = VirtAddr::new_truncate(0x0000_7fff_ffff_ffff);
        assert_eq!(va.as_u64(), 0x0000_7fff_ffff_ffff);
    }

    #[test]
    fn kernel_half_detection() {
        assert!(VirtAddr::new_truncate(0xffff_ffff_8000_0000).is_kernel_half());
        assert!(!VirtAddr::new_truncate(0x5555_5555_4000).is_kernel_half());
    }

    #[test]
    fn index_extraction_matches_manual_decomposition() {
        // 0xffff_ffff_8000_0000 is the canonical Linux kernel text start:
        // PML4 511, PDPT 510, PD 0, PT 0.
        let va = VirtAddr::new_truncate(0xffff_ffff_8000_0000);
        assert_eq!(va.index_for(Level::Pml4), 511);
        assert_eq!(va.index_for(Level::Pdpt), 510);
        assert_eq!(va.index_for(Level::Pd), 0);
        assert_eq!(va.index_for(Level::Pt), 0);
        assert_eq!(va.page_offset(), 0);
    }

    #[test]
    fn alignment_helpers() {
        let va = VirtAddr::new_truncate(0x1234_5678);
        assert_eq!(va.align_down(0x1000).as_u64(), 0x1234_5000);
        assert!(va.align_down(0x20_0000).is_aligned(0x20_0000));
        assert!(!va.is_aligned(0x1000));
    }

    #[test]
    fn wrapping_add_stays_canonical() {
        let va = VirtAddr::new_truncate(0x7fff_ffff_f000);
        let bumped = va.wrapping_add(0x2000);
        assert_eq!(bumped, VirtAddr::new_truncate(va.as_u64() + 0x2000));
        // Crossing into the non-canonical hole sign-extends.
        let edge = VirtAddr::new_truncate(0x0000_7fff_ffff_f000);
        let wrapped = edge.wrapping_add(0x10000);
        assert!(VirtAddr::new(wrapped.as_u64()).is_ok());
    }

    #[test]
    fn checked_add_rejects_hole() {
        let edge = VirtAddr::new_truncate(0x0000_7fff_ffff_f000);
        assert!(edge.checked_add(0x10000).is_err());
        let fine = VirtAddr::new_truncate(0x1000);
        assert_eq!(fine.checked_add(0x1000).unwrap().as_u64(), 0x2000);
    }

    #[test]
    fn phys_frame_round_trip() {
        let pa = PhysAddr::from_frame_number(0xabcde);
        assert_eq!(pa.frame_number(), 0xabcde);
        assert_eq!(pa.as_u64(), 0xabcde << 12);
    }

    #[test]
    #[should_panic(expected = "physical address too wide")]
    fn phys_too_wide_panics() {
        let _ = PhysAddr::new(1u64 << 53);
    }

    #[test]
    fn display_formats_hex() {
        let va = VirtAddr::new_truncate(0xffff_ffff_a1e0_0000);
        assert_eq!(format!("{va}"), "0xffffffffa1e00000");
        assert_eq!(format!("{va:x}"), "ffffffffa1e00000");
    }

    #[test]
    fn vpn_is_shifted_address() {
        let va = VirtAddr::new_truncate(0xffff_ffff_a1e0_3123);
        assert_eq!(va.vpn(), 0xffff_ffff_a1e0_3123u64 >> 12);
    }
}
