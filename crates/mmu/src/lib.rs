//! # avx-mmu — x86-64 address-translation substrate
//!
//! A bit-accurate simulator of the pieces of the x86-64 memory-management
//! unit that the AVX masked load/store timing side channel observes
//! (Choi, Kim, Shin, *AVX Timing Side-Channel Attacks against Address Space
//! Layout Randomization*, DAC 2023):
//!
//! * [`VirtAddr`]/[`PhysAddr`] — canonical 48-bit virtual addresses and
//!   52-bit physical addresses with per-level index extraction,
//! * [`PteFlags`]/[`Pte`] — page-table entries with the architectural
//!   Present / Writable / User / Accessed / Dirty / Huge / Global / NX bits,
//! * [`AddressSpace`] — a four-level page-table hierarchy (PML4 → PDPT →
//!   PD → PT) supporting 4 KiB, 2 MiB and 1 GiB mappings,
//! * [`Walker`] — a page-table walker that reports the level at which a
//!   walk terminates and how many paging-structure accesses it performed
//!   (the quantities leaked by attack primitives P2/P3 of the paper),
//! * [`Tlb`] — a set-associative translation look-aside buffer with
//!   eviction, `INVLPG` and global-entry semantics (primitive P4),
//! * [`PagingStructureCache`] — Intel-style paging-structure caches that
//!   hold PML4E/PDPTE/PDE (but, crucially, **not** PTE) partial
//!   translations; this asymmetry is why 4 KiB-backed walks are slower
//!   than huge-page walks in §III-B of the paper.
//!
//! ## Example
//!
//! ```
//! use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr, Walker};
//!
//! # fn main() -> Result<(), avx_mmu::MmuError> {
//! let mut space = AddressSpace::new();
//! let va = VirtAddr::new(0x5555_5555_4000)?;
//! space.map(va, PageSize::Size4K, PteFlags::user_rw())?;
//!
//! let walk = Walker::new().walk(&space, va);
//! assert!(walk.is_mapped());
//! assert_eq!(walk.terminal_level, avx_mmu::Level::Pt);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod addr;
pub mod error;
pub mod flags;
pub mod psc;
pub mod pte;
pub mod shadow;
pub mod space;
pub mod table;
mod tagidx;
pub mod tlb;
pub mod walk;

pub use addr::{PhysAddr, VirtAddr};
pub use error::MmuError;
pub use flags::PteFlags;
pub use psc::{PagingStructureCache, PscConfig};
pub use pte::Pte;
pub use shadow::{NonpresentRun, ResumeMemo, ShadowIndex, ShadowLookup, ShadowWalk, SharedShadow};
pub use space::{AddressSpace, MappedRegion, PageSize};
pub use table::{FrameId, Level, PageTable, ENTRIES_PER_TABLE};
pub use tlb::{Tlb, TlbConfig, TlbEntry, TlbLookup};
pub use walk::{EffectivePerms, WalkAccessList, WalkOutcome, Walker};
