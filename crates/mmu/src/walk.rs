//! The page-table walker.
//!
//! The walker reproduces the two observable quantities the AVX timing
//! channel extracts from a translation:
//!
//! 1. **where the walk terminates** — the level at which a non-present
//!    entry (or a leaf) is found (paper primitives P2/P3), and
//! 2. **how many paging-structure accesses were performed** — fewer when
//!    the paging-structure cache can resume the walk below the PML4.

use core::fmt;

use crate::addr::VirtAddr;
use crate::flags::PteFlags;
use crate::psc::{PagingStructureCache, PscEntry};
use crate::pte::Pte;
use crate::space::{AddressSpace, MappedRegion, PageSize};
use crate::table::{FrameId, Level};

/// Permissions accumulated across all levels of a walk.
///
/// x86 computes the effective permission of a translation as the AND of
/// the U/S and R/W bits along the walk, and the OR of the XD bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EffectivePerms {
    /// User-mode accesses allowed (all levels had U/S = 1).
    pub user: bool,
    /// Writes allowed (all levels had R/W = 1).
    pub writable: bool,
    /// Instruction fetch forbidden (any level had XD = 1).
    pub no_execute: bool,
    /// Leaf was marked global.
    pub global: bool,
    /// Leaf dirty bit at walk time.
    pub dirty: bool,
}

impl EffectivePerms {
    /// The identity element for permission accumulation.
    #[must_use]
    pub const fn most_permissive() -> Self {
        Self {
            user: true,
            writable: true,
            no_execute: false,
            global: false,
            dirty: false,
        }
    }

    /// Typical kernel-text permissions (supervisor, read-only, executable).
    #[must_use]
    pub const fn kernel_default() -> Self {
        Self {
            user: false,
            writable: false,
            no_execute: false,
            global: true,
            dirty: false,
        }
    }

    /// Accumulates one level's entry flags.
    #[must_use]
    pub fn and_level(self, flags: PteFlags) -> Self {
        Self {
            user: self.user && flags.is_user(),
            writable: self.writable && flags.is_writable(),
            no_execute: self.no_execute || flags.is_no_execute(),
            global: flags.is_global(), // leaf overwrite; meaningful on leaves only
            dirty: flags.is_dirty(),
        }
    }
}

/// The ordered list of paging-structure entries a walk read, at most one
/// per level. Used by timing models to decide which accesses were
/// cache-hot.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalkAccessList {
    items: [(FrameId, u16); 4],
    len: u8,
}

impl WalkAccessList {
    pub(crate) fn push(&mut self, table: FrameId, index: usize) {
        debug_assert!(self.len < 4, "a 4-level walk reads at most 4 entries");
        self.items[self.len as usize] = (table, index as u16);
        self.len += 1;
    }

    /// Number of recorded accesses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when no accesses were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates `(table, entry_index)` pairs in walk order.
    pub fn iter(&self) -> impl Iterator<Item = (FrameId, usize)> + '_ {
        self.items[..self.len as usize]
            .iter()
            .map(|&(t, i)| (t, i as usize))
    }
}

/// Result of walking the page tables for one address.
#[derive(Clone, Copy, Debug)]
pub struct WalkOutcome {
    /// The address that was translated.
    pub va: VirtAddr,
    /// Level of the structure whose entry terminated the walk: a leaf
    /// (present) or the first non-present entry.
    pub terminal_level: Level,
    /// Number of paging-structure memory accesses performed (1..=4;
    /// lower when the PSC skipped upper levels).
    pub structures_accessed: u8,
    /// Which `(table, entry)` slots were read, in order.
    pub accesses: WalkAccessList,
    /// Deepest PSC level that provided a cached entry, if any.
    pub psc_resume_level: Option<Level>,
    /// The terminating entry (zero / non-present when unmapped).
    pub entry: Pte,
    /// The mapped page, when the walk found a present leaf.
    pub mapping: Option<MappedRegion>,
    /// Accumulated permissions (meaningful when `mapping.is_some()`).
    pub perms: EffectivePerms,
}

impl WalkOutcome {
    /// `true` when a present leaf was found.
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        self.mapping.is_some()
    }

    /// Page size of the found mapping, if mapped.
    #[must_use]
    pub fn page_size(&self) -> Option<PageSize> {
        self.mapping.map(|m| m.size)
    }

    /// `true` when the translation exists and user mode may read it.
    #[must_use]
    pub fn user_readable(&self) -> bool {
        self.is_mapped() && self.perms.user
    }

    /// `true` when the translation exists and user mode may write it.
    #[must_use]
    pub fn user_writable(&self) -> bool {
        self.is_mapped() && self.perms.user && self.perms.writable
    }
}

impl fmt::Display for WalkOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_mapped() {
            write!(
                f,
                "{} mapped at {} ({} accesses)",
                self.va, self.terminal_level, self.structures_accessed
            )
        } else {
            write!(
                f,
                "{} unmapped (walk ended at {}, {} accesses)",
                self.va, self.terminal_level, self.structures_accessed
            )
        }
    }
}

/// Page-table walker.
///
/// Stateless apart from configuration; the translation caches are passed
/// in explicitly so one walker can serve many cores.
#[derive(Clone, Copy, Debug, Default)]
pub struct Walker {
    _private: (),
}

impl Walker {
    /// Creates a walker.
    #[must_use]
    pub fn new() -> Self {
        Self { _private: () }
    }

    /// Walks `va` starting from the PML4 (no paging-structure cache).
    #[must_use]
    pub fn walk(&self, space: &AddressSpace, va: VirtAddr) -> WalkOutcome {
        self.walk_inner(space, va, None)
    }

    /// Walks `va`, resuming from and filling the paging-structure cache.
    #[must_use]
    pub fn walk_with_psc(
        &self,
        space: &AddressSpace,
        va: VirtAddr,
        psc: &mut PagingStructureCache,
    ) -> WalkOutcome {
        self.walk_inner(space, va, Some(psc))
    }

    fn walk_inner(
        &self,
        space: &AddressSpace,
        va: VirtAddr,
        mut psc: Option<&mut PagingStructureCache>,
    ) -> WalkOutcome {
        // Resume from the deepest cached partial translation, if any.
        let mut start_level = Level::Pml4;
        let mut table_id = space.root();
        let mut perms = EffectivePerms::most_permissive();
        let mut psc_resume_level = None;

        if let Some(psc) = psc.as_deref_mut() {
            if let Some((cached_level, entry)) = psc.lookup_deepest(va) {
                psc_resume_level = Some(cached_level);
                perms = entry.perms;
                table_id = entry.next_table;
                start_level = cached_level
                    .next()
                    .expect("PSC never caches PT entries, so next() exists");
            }
        }

        self.walk_from(
            space,
            va,
            start_level,
            table_id,
            perms,
            psc_resume_level,
            psc,
        )
    }

    /// The walk continuation: descends from (`start_level`, `table_id`)
    /// with `perms` already accumulated. This is the single source of
    /// truth for walk semantics — the PSC-resume path above and the
    /// shadow index's stale-PSC fallback both funnel through it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn walk_from(
        &self,
        space: &AddressSpace,
        va: VirtAddr,
        start_level: Level,
        start_table: FrameId,
        start_perms: EffectivePerms,
        psc_resume_level: Option<Level>,
        mut psc: Option<&mut PagingStructureCache>,
    ) -> WalkOutcome {
        let mut table_id = start_table;
        let mut perms = start_perms;
        let mut accesses = 0u8;
        let mut access_list = WalkAccessList::default();
        let mut level = start_level;
        loop {
            accesses += 1;
            let idx = va.index_for(level);
            access_list.push(table_id, idx);
            let entry = space.table(table_id).entry(idx);

            let is_leaf = match level {
                Level::Pt => true,
                Level::Pml4 => false,
                _ => entry.is_huge_leaf(),
            };

            if !entry.is_present() {
                return WalkOutcome {
                    va,
                    terminal_level: level,
                    structures_accessed: accesses,
                    accesses: access_list,
                    psc_resume_level,
                    entry,
                    mapping: None,
                    perms,
                };
            }

            perms = perms.and_level(entry.flags());

            if is_leaf {
                let size = PageSize::from_leaf_level(level)
                    .expect("leaf levels always map to a page size");
                let mapping = MappedRegion {
                    start: va.align_down(size.bytes()),
                    size,
                    flags: entry.flags(),
                    phys: entry.addr(),
                };
                return WalkOutcome {
                    va,
                    terminal_level: level,
                    structures_accessed: accesses,
                    accesses: access_list,
                    psc_resume_level,
                    entry,
                    mapping: Some(mapping),
                    perms,
                };
            }

            // Present intermediate entry: cache it and descend.
            let next_id = FrameId(
                u32::try_from(entry.addr().frame_number()).expect("table frame id fits u32"),
            );
            if let Some(psc) = psc.as_deref_mut() {
                psc.insert(
                    level,
                    va,
                    PscEntry {
                        next_table: next_id,
                        perms,
                    },
                );
            }
            table_id = next_id;
            level = level.next().expect("non-leaf level always has a next");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psc::PscConfig;

    fn va(raw: u64) -> VirtAddr {
        VirtAddr::new_truncate(raw)
    }

    fn kernel_space() -> AddressSpace {
        let mut s = AddressSpace::new();
        s.map(
            va(0xffff_ffff_a1e0_0000),
            PageSize::Size2M,
            PteFlags::kernel_rx(),
        )
        .unwrap();
        s.map(
            va(0xffff_ffff_c012_3000),
            PageSize::Size4K,
            PteFlags::kernel_rx(),
        )
        .unwrap();
        s.map(va(0x5555_5555_4000), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        s
    }

    #[test]
    fn walk_mapped_2m_terminates_at_pd() {
        let s = kernel_space();
        let w = Walker::new().walk(&s, va(0xffff_ffff_a1e0_0000));
        assert!(w.is_mapped());
        assert_eq!(w.terminal_level, Level::Pd);
        assert_eq!(w.structures_accessed, 3);
        assert_eq!(w.page_size(), Some(PageSize::Size2M));
    }

    #[test]
    fn walk_mapped_4k_terminates_at_pt() {
        let s = kernel_space();
        let w = Walker::new().walk(&s, va(0xffff_ffff_c012_3000));
        assert!(w.is_mapped());
        assert_eq!(w.terminal_level, Level::Pt);
        assert_eq!(w.structures_accessed, 4);
    }

    #[test]
    fn walk_unmapped_terminates_early() {
        let s = kernel_space();
        // Nothing mapped in this PML4 slot → one access.
        let w = Walker::new().walk(&s, va(0x1234_5678_9000));
        assert!(!w.is_mapped());
        assert_eq!(w.terminal_level, Level::Pml4);
        assert_eq!(w.structures_accessed, 1);
    }

    #[test]
    fn walk_unmapped_sibling_reaches_deeper() {
        let s = kernel_space();
        // Same PML4/PDPT as the 2 MiB kernel page but a different PD slot.
        let w = Walker::new().walk(&s, va(0xffff_ffff_a000_0000));
        assert!(!w.is_mapped());
        assert_eq!(w.terminal_level, Level::Pd);
        assert_eq!(w.structures_accessed, 3);
    }

    #[test]
    fn perms_accumulate_user_and_writable() {
        let s = kernel_space();
        let user = Walker::new().walk(&s, va(0x5555_5555_4000));
        assert!(user.user_readable());
        assert!(user.user_writable());
        let kern = Walker::new().walk(&s, va(0xffff_ffff_a1e0_0000));
        assert!(kern.is_mapped());
        assert!(!kern.user_readable());
    }

    #[test]
    fn non_present_leaf_is_unmapped_at_pt() {
        let mut s = kernel_space();
        let a = va(0x5555_5555_4000);
        s.protect(a, PageSize::Size4K, PteFlags::none_guard())
            .unwrap();
        let w = Walker::new().walk(&s, a);
        assert!(!w.is_mapped());
        assert_eq!(w.terminal_level, Level::Pt);
        assert_eq!(w.structures_accessed, 4);
    }

    #[test]
    fn psc_reduces_accesses_on_second_walk() {
        let s = kernel_space();
        let mut psc = PagingStructureCache::new(PscConfig::default());
        let a = va(0xffff_ffff_c012_3000);
        let first = Walker::new().walk_with_psc(&s, a, &mut psc);
        assert_eq!(first.structures_accessed, 4);
        assert_eq!(first.psc_resume_level, None);
        let second = Walker::new().walk_with_psc(&s, a, &mut psc);
        // PDE cached → only the PT access remains.
        assert_eq!(second.structures_accessed, 1);
        assert_eq!(second.psc_resume_level, Some(Level::Pd));
    }

    #[test]
    fn psc_helps_neighbouring_addresses() {
        let s = kernel_space();
        let mut psc = PagingStructureCache::new(PscConfig::default());
        let a = va(0xffff_ffff_a1e0_0000);
        let _ = Walker::new().walk_with_psc(&s, a, &mut psc);
        // A different 2 MiB slot under the same PDPT: PDPTE is cached,
        // so only the PD access happens.
        let sibling = va(0xffff_ffff_a000_0000);
        let w = Walker::new().walk_with_psc(&s, sibling, &mut psc);
        assert_eq!(w.structures_accessed, 1);
        assert_eq!(w.psc_resume_level, Some(Level::Pdpt));
    }

    #[test]
    fn psc_never_caches_pt_so_4k_pays_one_access_minimum() {
        let s = kernel_space();
        let mut psc = PagingStructureCache::new(PscConfig::default());
        let a = va(0xffff_ffff_c012_3000);
        for _ in 0..3 {
            let w = Walker::new().walk_with_psc(&s, a, &mut psc);
            assert!(w.structures_accessed >= 1);
        }
        let w = Walker::new().walk_with_psc(&s, a, &mut psc);
        assert_eq!(w.structures_accessed, 1, "PDE cached, PT never cached");
        assert_eq!(w.terminal_level, Level::Pt);
    }

    #[test]
    fn access_list_matches_structures_accessed() {
        let s = kernel_space();
        let w = Walker::new().walk(&s, va(0xffff_ffff_c012_3000));
        assert_eq!(w.accesses.len(), w.structures_accessed as usize);
        assert_eq!(w.accesses.len(), 4);
        // First access is always the root for a PSC-less walk.
        let first = w.accesses.iter().next().unwrap();
        assert_eq!(first.0, s.root());
        assert_eq!(first.1, 511, "PML4 slot of the kernel half's top");
    }

    #[test]
    fn access_list_shrinks_with_psc_resume() {
        let s = kernel_space();
        let mut psc = PagingStructureCache::new(PscConfig::default());
        let a = va(0xffff_ffff_c012_3000);
        let _ = Walker::new().walk_with_psc(&s, a, &mut psc);
        let second = Walker::new().walk_with_psc(&s, a, &mut psc);
        assert_eq!(second.accesses.len(), 1);
        assert!(!second.accesses.is_empty());
    }

    #[test]
    fn walk_outcome_display() {
        let s = kernel_space();
        let w = Walker::new().walk(&s, va(0xffff_ffff_a1e0_0000));
        let text = w.to_string();
        assert!(text.contains("mapped at PD"));
    }

    #[test]
    fn effective_perms_and_level() {
        let p = EffectivePerms::most_permissive()
            .and_level(PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::USER)
            .and_level(PteFlags::PRESENT | PteFlags::USER | PteFlags::NO_EXECUTE);
        assert!(p.user);
        assert!(!p.writable, "second level lacked R/W");
        assert!(p.no_execute, "NX ORs in");
    }
}
