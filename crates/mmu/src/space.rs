//! The four-level page-table address space.

use core::fmt;
use core::ops::Range;
use std::sync::Arc;

use crate::addr::{PhysAddr, VirtAddr};
use crate::error::MmuError;
use crate::flags::PteFlags;
use crate::pte::Pte;
use crate::table::{FrameId, Level, PageTable, ENTRIES_PER_TABLE};

/// Supported architectural page sizes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum PageSize {
    /// 4 KiB page mapped by a PT entry.
    Size4K,
    /// 2 MiB page mapped by a PD entry with PS set.
    Size2M,
    /// 1 GiB page mapped by a PDPT entry with PS set.
    Size1G,
}

impl PageSize {
    /// Size in bytes: the span of one entry at its leaf level.
    #[must_use]
    pub const fn bytes(self) -> u64 {
        self.leaf_level().entry_span()
    }

    /// log2 of the size in bytes.
    #[must_use]
    pub const fn shift(self) -> u32 {
        self.leaf_level().shift()
    }

    /// The paging-structure level whose entry maps a leaf of this size.
    #[must_use]
    pub const fn leaf_level(self) -> Level {
        match self {
            PageSize::Size4K => Level::Pt,
            PageSize::Size2M => Level::Pd,
            PageSize::Size1G => Level::Pdpt,
        }
    }

    /// The page size mapped by a leaf at `level`, if leaves are legal there.
    #[must_use]
    pub const fn from_leaf_level(level: Level) -> Option<Self> {
        match level {
            Level::Pt => Some(PageSize::Size4K),
            Level::Pd => Some(PageSize::Size2M),
            Level::Pdpt => Some(PageSize::Size1G),
            Level::Pml4 => None,
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PageSize::Size4K => "4KiB",
            PageSize::Size2M => "2MiB",
            PageSize::Size1G => "1GiB",
        };
        write!(f, "{name}")
    }
}

/// One leaf mapping, as yielded by [`AddressSpace::iter_regions`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MappedRegion {
    /// First virtual address of the page.
    pub start: VirtAddr,
    /// Page size of the leaf entry.
    pub size: PageSize,
    /// Leaf entry flags.
    pub flags: PteFlags,
    /// Backing physical address.
    pub phys: PhysAddr,
}

impl MappedRegion {
    /// One past the last byte of the page.
    #[must_use]
    pub fn end(&self) -> VirtAddr {
        self.start.wrapping_add(self.size.bytes())
    }
}

/// A simulated x86-64 address space: a PML4 root plus the paging
/// structures hanging off it, with auto-allocated backing frames.
///
/// Mapping semantics follow the architecture: a leaf may live at PT
/// (4 KiB), PD (2 MiB, PS=1) or PDPT (1 GiB, PS=1); intermediate entries
/// carry the union of the permissions required below them (as OS kernels
/// configure them in practice).
///
/// ```
/// use avx_mmu::{AddressSpace, PageSize, PteFlags, VirtAddr};
/// # fn main() -> Result<(), avx_mmu::MmuError> {
/// let mut space = AddressSpace::new();
/// let text = VirtAddr::new(0xffff_ffff_a1e0_0000)?;
/// space.map(text, PageSize::Size2M, PteFlags::kernel_rx() | PteFlags::HUGE)?;
/// assert!(space.lookup(text).is_some());
/// # Ok(())
/// # }
/// ```
///
/// # Snapshots and copy-on-write
///
/// The paging-structure arena is reference-counted per table:
/// [`Clone`]ing an `AddressSpace` is a cheap snapshot (one `Arc` bump
/// per table, no page data copied), and the first write to any table in
/// a clone copies just that structure. A [`PageTable`] is stored by its
/// live entries — sparse (a presence bitmap and the live entries
/// packed) below 64 of them, the dense 512-entry array from 64 on — so
/// that copy is only as large as the table's live entries. Campaign
/// engines exploit this to build a randomized layout once and hand
/// every trial its own isolated O(1) copy.
///
/// # Mutation epoch
///
/// Every *effective* PTE change (map, unmap, protect, A/D-bit update
/// that actually flips bits) bumps [`AddressSpace::epoch`]. The range
/// operations ([`AddressSpace::map_range`],
/// [`AddressSpace::unmap_range`], [`AddressSpace::protect_range`],
/// [`AddressSpace::mark_accessed_range`]) write a leaf table's span of
/// slots at a time — one descent, one copy-on-write, one run write —
/// and count one epoch bump per changed slot, exactly like their
/// per-page loops. Derived
/// structures — notably the shadow translation index the execution
/// engine keeps — use the epoch to invalidate themselves; rewriting an
/// entry with its current value is a no-op and leaves the epoch alone.
pub struct AddressSpace {
    tables: Vec<Arc<PageTable>>,
    root: FrameId,
    /// Next simulated physical frame number handed to data pages.
    next_data_frame: u64,
    mapped_pages: usize,
    epoch: u64,
    shape_epoch: u64,
}

impl Clone for AddressSpace {
    fn clone(&self) -> Self {
        Self {
            tables: self.tables.clone(),
            root: self.root,
            next_data_frame: self.next_data_frame,
            mapped_pages: self.mapped_pages,
            epoch: self.epoch,
            shape_epoch: self.shape_epoch,
        }
    }

    /// Snapshots `source` into `self`, reusing the table list's
    /// allocation: machines that are reset onto one fixture after
    /// another re-snapshot without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.tables.clone_from(&source.tables);
        self.root = source.root;
        self.next_data_frame = source.next_data_frame;
        self.mapped_pages = source.mapped_pages;
        self.epoch = source.epoch;
        self.shape_epoch = source.shape_epoch;
    }
}

/// Data-page physical frames are handed out from this base so they never
/// collide with the paging-structure arena (which uses small indices).
const DATA_FRAME_BASE: u64 = 0x10_0000;

impl AddressSpace {
    /// Creates an empty address space with a zeroed PML4.
    #[must_use]
    pub fn new() -> Self {
        Self {
            tables: vec![Arc::new(PageTable::new())],
            root: FrameId(0),
            next_data_frame: DATA_FRAME_BASE,
            mapped_pages: 0,
            epoch: 0,
            shape_epoch: 0,
        }
    }

    /// Monotonic mutation counter: bumped exactly when some PTE's raw
    /// value actually changed (or a new paging structure was allocated).
    /// Rewriting an entry with its current value is a no-op.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Monotonic *walk-shape* counter: bumped only by mutations that can
    /// change where a walk goes or terminates — entry zero↔non-zero
    /// transitions, Present flips, huge-leaf flips, and new paging
    /// structures. Flags-only rewrites (Accessed/Dirty settling, `USER`
    /// upgrades, `mprotect` permission changes that keep Present) leave
    /// it alone, so shape-derived caches like
    /// [`crate::ShadowIndex`] survive the A/D-bit churn of steady-state
    /// probing.
    #[must_use]
    pub fn shape_epoch(&self) -> u64 {
        self.shape_epoch
    }

    /// Number of paging structures physically shared with `other`
    /// (diagnostics for the copy-on-write snapshot tests).
    #[must_use]
    pub fn shared_tables_with(&self, other: &Self) -> usize {
        self.tables
            .iter()
            .zip(other.tables.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count()
    }

    /// Bytes the paging structures occupy: each table's inline size plus
    /// its entry storage, tables shared with a snapshot counted in full
    /// (diagnostics for the footprint tests).
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        self.tables.iter().map(|t| t.bytes()).sum()
    }

    /// Writes `pte` into slot `idx` of table `id`, copy-on-write,
    /// skipping the write (and the epoch bumps) when the slot already
    /// holds exactly that raw value.
    fn write_entry(&mut self, id: FrameId, idx: usize, pte: Pte) {
        let old = self.tables[id.index()].entry(idx);
        if old.raw() == pte.raw() {
            return;
        }
        self.epoch += 1;
        if changes_shape(old, pte) {
            self.shape_epoch += 1;
        }
        Arc::make_mut(&mut self.tables[id.index()]).set_entry(idx, pte);
    }

    /// The span writer: rewrites each slot `i` of `run` in table `id`
    /// to `f(i, old)`, bumping both epochs as one [`AddressSpace::write_entry`]
    /// per slot would, and copying the table (copy-on-write) only when
    /// some slot changes.
    fn write_run(&mut self, id: FrameId, run: Range<usize>, f: impl Fn(usize, Pte) -> Pte) {
        let table = &self.tables[id.index()];
        let mut changed = 0;
        for i in run.clone() {
            let old = table.entry(i);
            let new = f(i, old);
            if old.raw() != new.raw() {
                changed += 1;
                if changes_shape(old, new) {
                    self.shape_epoch += 1;
                }
            }
        }
        if changed > 0 {
            self.epoch += changed;
            Arc::make_mut(&mut self.tables[id.index()]).update_run(run, f);
        }
    }

    /// The root (PML4) table id.
    #[must_use]
    pub fn root(&self) -> FrameId {
        self.root
    }

    /// Read access to a paging structure.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name an allocated table.
    #[must_use]
    pub fn table(&self, id: FrameId) -> &PageTable {
        &self.tables[id.index()]
    }

    /// Number of live leaf mappings.
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.mapped_pages
    }

    /// Number of allocated paging structures (incl. the PML4).
    #[must_use]
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    fn alloc_table(&mut self) -> Result<FrameId, MmuError> {
        let id = u32::try_from(self.tables.len()).map_err(|_| MmuError::OutOfFrames)?;
        self.tables.push(Arc::new(PageTable::new()));
        self.epoch += 1;
        self.shape_epoch += 1;
        Ok(FrameId(id))
    }

    fn alloc_data_frame(&mut self, size: PageSize) -> PhysAddr {
        let frames = size.bytes() / PageSize::Size4K.bytes();
        // Align the allocation cursor to the page size.
        let align = frames;
        self.next_data_frame = (self.next_data_frame + align - 1) & !(align - 1);
        let frame = self.next_data_frame;
        self.next_data_frame += frames;
        PhysAddr::from_frame_number(frame)
    }

    /// Maps one page of `size` at `va`, auto-allocating a backing frame.
    ///
    /// The `HUGE` flag is set automatically for 2 MiB / 1 GiB sizes and
    /// must not be set for 4 KiB pages. Returns the backing physical
    /// address.
    ///
    /// # Errors
    ///
    /// * [`MmuError::Misaligned`] — `va` not aligned to `size`,
    /// * [`MmuError::AlreadyMapped`] — a leaf already exists at `va`,
    /// * [`MmuError::HugePageConflict`] — a huge leaf covers `va` at a
    ///   higher level, or a lower-level table is already populated where a
    ///   huge leaf should go.
    pub fn map(
        &mut self,
        va: VirtAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<PhysAddr, MmuError> {
        let pa = self.alloc_data_frame(size);
        self.map_at(va, pa, size, flags)?;
        Ok(pa)
    }

    /// Maps `va` → `pa` with the given size and flags.
    ///
    /// # Errors
    ///
    /// See [`AddressSpace::map`]; additionally the physical address must be
    /// aligned to `size`.
    pub fn map_at(
        &mut self,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), MmuError> {
        check_alignment(va, pa, size)?;
        let table_id = self.descend_for_map(va, size.leaf_level(), flags)?;
        self.map_leaf(table_id, va, pa, size, flags)
    }

    /// Descends from the root to the `leaf_level` table covering `va`,
    /// allocating missing intermediate tables and upgrading intermediate
    /// permissions to what a mapping with `flags` needs.
    fn descend_for_map(
        &mut self,
        va: VirtAddr,
        leaf_level: Level,
        flags: PteFlags,
    ) -> Result<FrameId, MmuError> {
        let path = self.path(va, leaf_level);
        if flags.is_user() {
            self.grant_user(&path);
        }
        let mut at = path.stop;
        while at.level < leaf_level {
            if at.entry.raw() != 0 {
                // A leaf above the mapping: a present huge page, or a
                // guard left by mprotect(PROT_NONE) on one.
                return Err(MmuError::HugePageConflict { addr: va.as_u64() });
            }
            let new_id = self.alloc_table()?;
            let mut inter = PteFlags::PRESENT | PteFlags::WRITABLE | PteFlags::ACCESSED;
            if flags.is_user() {
                inter |= PteFlags::USER;
            }
            let link = Pte::new(PhysAddr::from_frame_number(new_id.0.into()), inter);
            self.write_entry(at.table, at.idx, link);
            at = self.slot(new_id, at.level.next().expect("above the leaf level"), va);
        }
        Ok(at.table)
    }

    /// Writes the leaf `va` → `pa` into its slot of the leaf-level table
    /// `table_id`, which must be free.
    fn map_leaf(
        &mut self,
        table_id: FrameId,
        va: VirtAddr,
        pa: PhysAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), MmuError> {
        let idx = va.index_for(size.leaf_level());
        let existing = self.tables[table_id.index()].entry(idx);
        if existing.raw() != 0 {
            return Err(if existing.is_huge_leaf() || size == PageSize::Size4K {
                MmuError::AlreadyMapped { addr: va.as_u64() }
            } else {
                // A next-level table hangs here; cannot place a huge
                // leaf over it.
                MmuError::HugePageConflict { addr: va.as_u64() }
            });
        }
        let mut leaf_flags = flags;
        if size != PageSize::Size4K {
            leaf_flags |= PteFlags::HUGE;
        } else if leaf_flags.is_huge() {
            // On PT entries bit 7 is PAT, not PS; reject to avoid
            // silently mapping something surprising.
            return Err(MmuError::HugePageConflict { addr: va.as_u64() });
        }
        self.write_entry(table_id, idx, Pte::new(pa, leaf_flags));
        self.mapped_pages += 1;
        Ok(())
    }

    /// Maps `count` consecutive pages of `size` starting at `va`.
    ///
    /// Exactly the per-page [`AddressSpace::map`] loop — same entries,
    /// backing frames, epochs and first error — written a leaf-table
    /// span at a time.
    ///
    /// # Errors
    ///
    /// Fails fast on the first page that cannot be mapped (earlier pages
    /// stay mapped; the failing page still consumes its frame, as
    /// [`AddressSpace::map`] does).
    pub fn map_range(
        &mut self,
        va: VirtAddr,
        count: u64,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), MmuError> {
        self.by_spans(
            (va, count, size),
            |s, first, n| s.map_span(first, n, size, flags),
            |s, page| s.map(page, size, flags).map(drop),
        )
    }

    /// Unmaps `count` consecutive pages of `size` starting at `va`.
    ///
    /// Exactly the per-page [`AddressSpace::unmap`] loop, prunes
    /// included, written a leaf-table span at a time.
    ///
    /// # Errors
    ///
    /// Fails fast on the first page that cannot be unmapped (earlier
    /// pages stay unmapped).
    pub fn unmap_range(
        &mut self,
        va: VirtAddr,
        count: u64,
        size: PageSize,
    ) -> Result<(), MmuError> {
        self.by_spans(
            (va, count, size),
            |s, first, n| s.unmap_span(first, n, size),
            |s, page| s.unmap(page, size),
        )
    }

    /// Re-protects `count` consecutive pages of `size` starting at `va`
    /// (an `mprotect` over a whole VMA).
    ///
    /// Exactly the per-page [`AddressSpace::protect`] loop, written a
    /// leaf-table span at a time.
    ///
    /// # Errors
    ///
    /// Fails fast on the first page that cannot be re-protected.
    pub fn protect_range(
        &mut self,
        va: VirtAddr,
        count: u64,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), MmuError> {
        self.by_spans(
            (va, count, size),
            |s, first, n| s.protect_span(first, n, size, flags),
            |s, page| s.protect(page, size, flags),
        )
    }

    /// Runs a range operation over `count` consecutive pages of `size`
    /// from `va`, one leaf-table span at a time. `span(self, first, n)`
    /// writes the longest prefix of the span's `n` pages that it proves
    /// the per-page operation would write, and returns its length; the
    /// page after that prefix goes through the per-page operation
    /// `page`, which writes it or returns the error the per-page loop
    /// would.
    fn by_spans(
        &mut self,
        (va, count, size): (VirtAddr, u64, PageSize),
        mut span: impl FnMut(&mut Self, VirtAddr, usize) -> usize,
        mut page: impl FnMut(&mut Self, VirtAddr) -> Result<(), MmuError>,
    ) -> Result<(), MmuError> {
        let mut i = 0;
        while i < count {
            let first = va.wrapping_add(i * size.bytes());
            let room = ENTRIES_PER_TABLE - first.index_for(size.leaf_level());
            let n = usize::try_from(count - i).map_or(room, |left| left.min(room));
            let done = span(self, first, n);
            i += done as u64;
            if done < n {
                page(self, va.wrapping_add(i * size.bytes()))?;
                i += 1;
            }
        }
        Ok(())
    }

    /// The span step of [`AddressSpace::map_range`]: maps the free slots
    /// at the start of the `n`-page span from `first`, their frames
    /// handed out in one step.
    fn map_span(&mut self, first: VirtAddr, n: usize, size: PageSize, flags: PteFlags) -> usize {
        let leaf_flags = match size {
            // Refused after the descent: the per-page path reports it.
            PageSize::Size4K if flags.is_huge() => return 0,
            PageSize::Size4K => flags,
            _ => flags | PteFlags::HUGE,
        };
        if !first.is_aligned(size.bytes()) {
            return 0;
        }
        let Ok(id) = self.descend_for_map(first, size.leaf_level(), flags) else {
            return 0;
        };
        let start = first.index_for(size.leaf_level());
        let free = self.tables[id.index()].run_len(start, n, false);
        if free == 0 {
            return 0;
        }
        let frames = size.bytes() / PageSize::Size4K.bytes();
        let base = self.alloc_data_frame(size).frame_number();
        self.next_data_frame += (free as u64 - 1) * frames;
        self.mapped_pages += free;
        self.write_run(id, start..start + free, |i, _| {
            let frame = base + (i - start) as u64 * frames;
            Pte::new(PhysAddr::from_frame_number(frame), leaf_flags)
        });
        free
    }

    /// The span step of [`AddressSpace::unmap_range`]: unmaps the leaves
    /// at the start of the `n`-page span from `first`, then prunes once,
    /// where the per-page loop's prune after the span's last page would.
    fn unmap_span(&mut self, first: VirtAddr, n: usize, size: PageSize) -> usize {
        if !first.is_aligned(size.bytes()) {
            return 0;
        }
        let Some((id, start, run)) = self.leaf_span(first, n, size, false) else {
            return 0;
        };
        self.mapped_pages -= run;
        self.write_run(id, start..start + run, |_, _| Pte::zero());
        // Only the span's last page can leave its leaf table empty, and
        // every page of the span shares the walk path above it.
        self.prune_empty_tables(first);
        run
    }

    /// The span step of [`AddressSpace::protect_range`].
    fn protect_span(
        &mut self,
        first: VirtAddr,
        n: usize,
        size: PageSize,
        flags: PteFlags,
    ) -> usize {
        let Some((id, start, run)) = self.leaf_span(first, n, size, false) else {
            return 0;
        };
        let new_flags = leaf_flags(size, flags);
        self.write_run(id, start..start + run, |_, old| old.with_flags(new_flags));
        // The intermediates above a leaf table are shared by its whole
        // span: one upgrade covers them.
        if flags.is_user() {
            self.upgrade_intermediates_to_user(first);
        }
        run
    }

    /// The leaf table a walk for `first` ends in, if it is the table of
    /// `size` leaves, with `first`'s slot there and the number of slots
    /// from it on, at most `n`, that each hold a leaf (a present one if
    /// `present`). `None` if that number is 0.
    fn leaf_span(
        &self,
        first: VirtAddr,
        n: usize,
        size: PageSize,
        present: bool,
    ) -> Option<(FrameId, usize, usize)> {
        let leaf = self.locate_any_leaf(first)?;
        let (id, start, level) = (leaf.table, leaf.idx, leaf.level);
        if level != size.leaf_level() {
            return None;
        }
        let table = &self.tables[id.index()];
        // Leaves are non-zero; in the last level every live entry is one.
        let mut run = table.run_len(start, n, true);
        if present || level.next().is_some() {
            run = (start..start + run)
                .take_while(|&i| {
                    let entry = table.entry(i);
                    level.is_leaf(entry) && (entry.is_present() || !present)
                })
                .count();
        }
        (run > 0).then_some((id, start, run))
    }

    /// Removes the leaf mapping of `size` at `va`.
    ///
    /// # Errors
    ///
    /// * [`MmuError::Misaligned`] — `va` not aligned to `size`,
    /// * [`MmuError::NotMapped`] — nothing mapped there,
    /// * [`MmuError::SizeMismatch`] — mapped with a different page size.
    pub fn unmap(&mut self, va: VirtAddr, size: PageSize) -> Result<(), MmuError> {
        if !va.is_aligned(size.bytes()) {
            return Err(MmuError::Misaligned {
                addr: va.as_u64(),
                size,
            });
        }
        let leaf = self.locate_leaf_slot(va, size)?;
        self.write_entry(leaf.table, leaf.idx, Pte::zero());
        self.mapped_pages -= 1;
        // Free empty paging structures, as OS kernels do on munmap —
        // otherwise a stale empty PT/PD would block a later huge-page
        // mapping of the same range.
        self.prune_empty_tables(va);
        Ok(())
    }

    /// Clears pointers to now-empty child tables along the walk path of
    /// `va`, bottom-up. (Arena slots are not recycled; correctness only
    /// needs the links gone.)
    fn prune_empty_tables(&mut self, va: VirtAddr) {
        let path = self.path(va, Level::Pt);
        for link in path.links().rev() {
            let child = link.level.link(link.entry).expect("a followed link");
            if !self.tables[child.index()].is_empty() {
                break;
            }
            self.write_entry(link.table, link.idx, Pte::zero());
        }
    }

    /// Replaces the flags of the existing leaf at `va` (e.g. `mprotect`).
    ///
    /// The `HUGE` bit is managed automatically and the physical target is
    /// preserved. As with [`AddressSpace::map`], granting `USER` upgrades
    /// the intermediate entries on the path so the *effective* permission
    /// (the AND across levels) actually becomes user-accessible.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AddressSpace::unmap`].
    pub fn protect(
        &mut self,
        va: VirtAddr,
        size: PageSize,
        flags: PteFlags,
    ) -> Result<(), MmuError> {
        let leaf = self.locate_leaf_slot(va, size)?;
        let new = leaf.entry.with_flags(leaf_flags(size, flags));
        self.write_entry(leaf.table, leaf.idx, new);
        if flags.is_user() {
            self.upgrade_intermediates_to_user(va);
        }
        Ok(())
    }

    /// Sets `USER` on every table link on the walk path of `va`.
    fn upgrade_intermediates_to_user(&mut self, va: VirtAddr) {
        let path = self.path(va, Level::Pt);
        self.grant_user(&path);
    }

    /// Sets `USER` on each link of `path` that lacks it.
    fn grant_user(&mut self, path: &Path) {
        for link in path.links() {
            if !link.entry.flags().is_user() {
                let upgraded = link.entry.with_flags_set(PteFlags::USER);
                self.write_entry(link.table, link.idx, upgraded);
            }
        }
    }

    /// Sets the Accessed (and optionally Dirty) bit on the leaf at `va`,
    /// as the MMU does on a successful translation.
    ///
    /// Returns the previous flags so callers (the timing engine) can see
    /// whether a dirty-bit microcode assist was required.
    ///
    /// # Errors
    ///
    /// [`MmuError::NotMapped`] if no present leaf covers `va`.
    pub fn mark_accessed(&mut self, va: VirtAddr, write: bool) -> Result<PteFlags, MmuError> {
        let leaf = self
            .locate_any_leaf(va)
            .filter(|leaf| leaf.entry.is_present())
            .ok_or(MmuError::NotMapped { addr: va.as_u64() })?;
        // Steady-state probes re-set already-set bits; `write_entry`
        // recognizes the no-op and leaves the epoch untouched.
        let marked = leaf.entry.with_flags_set(accessed_flags(write));
        self.write_entry(leaf.table, leaf.idx, marked);
        Ok(leaf.entry.flags())
    }

    /// [`AddressSpace::mark_accessed`] on `count` consecutive pages of
    /// `size` starting at `va`, descending once per leaf table.
    ///
    /// # Errors
    ///
    /// Fails fast on the first page no present leaf covers (earlier
    /// pages stay marked).
    pub fn mark_accessed_range(
        &mut self,
        va: VirtAddr,
        count: u64,
        size: PageSize,
        write: bool,
    ) -> Result<(), MmuError> {
        let set = accessed_flags(write);
        self.by_spans(
            (va, count, size),
            |s, first, n| {
                let Some((id, start, run)) = s.leaf_span(first, n, size, true) else {
                    return 0;
                };
                s.write_run(id, start..start + run, |_, old| old.with_flags_set(set));
                run
            },
            |s, page| s.mark_accessed(page, write).map(drop),
        )
    }

    /// Clears Accessed/Dirty on the leaf covering `va` (used by tests and
    /// by OS-model page reclaim).
    ///
    /// # Errors
    ///
    /// [`MmuError::NotMapped`] if no leaf covers `va`.
    pub fn clear_accessed_dirty(&mut self, va: VirtAddr) -> Result<(), MmuError> {
        let leaf = self
            .locate_any_leaf(va)
            .ok_or(MmuError::NotMapped { addr: va.as_u64() })?;
        let cleared = leaf
            .entry
            .with_flags_cleared(PteFlags::ACCESSED | PteFlags::DIRTY);
        self.write_entry(leaf.table, leaf.idx, cleared);
        Ok(())
    }

    /// Returns the leaf mapping covering `va`, if one is present.
    #[must_use]
    pub fn lookup(&self, va: VirtAddr) -> Option<MappedRegion> {
        let leaf = self.locate_any_leaf(va)?;
        if !leaf.entry.is_present() {
            return None;
        }
        let size = PageSize::from_leaf_level(leaf.level)?;
        Some(MappedRegion {
            start: va.align_down(size.bytes()),
            size,
            flags: leaf.entry.flags(),
            phys: leaf.entry.addr(),
        })
    }

    /// Iterates every leaf mapping in ascending virtual-address order.
    pub fn iter_regions(&self) -> Vec<MappedRegion> {
        let mut out = Vec::with_capacity(self.mapped_pages);
        self.collect_regions(self.root, Level::Pml4, 0, &mut out);
        out.sort_by_key(|r| r.start);
        out
    }

    /// Appends the present leaves under `table_id`, a `level` table
    /// whose first slot maps `va_prefix`, following table links only.
    fn collect_regions(
        &self,
        table_id: FrameId,
        level: Level,
        va_prefix: u64,
        out: &mut Vec<MappedRegion>,
    ) {
        for (idx, entry) in self.tables[table_id.index()].iter_live() {
            let va = VirtAddr::new_truncate(va_prefix | (idx as u64) << level.shift());
            if let Some(child) = level.link(entry) {
                let next = level.next().expect("a link's level has a next");
                self.collect_regions(child, next, va.as_u64(), out);
            } else if entry.is_present() {
                let size = PageSize::from_leaf_level(level).expect("a present non-link is a leaf");
                out.push(MappedRegion {
                    start: va,
                    size,
                    flags: entry.flags(),
                    phys: entry.addr(),
                });
            }
        }
    }

    /// Finds the leaf slot for (`va`, `size`), verifying the mapping
    /// exists with exactly that size.
    fn locate_leaf_slot(&self, va: VirtAddr, size: PageSize) -> Result<Slot, MmuError> {
        let not_mapped = MmuError::NotMapped { addr: va.as_u64() };
        let leaf = self.locate_any_leaf(va).ok_or(not_mapped)?;
        let found = PageSize::from_leaf_level(leaf.level).ok_or(not_mapped)?;
        if found != size {
            return Err(MmuError::SizeMismatch {
                addr: va.as_u64(),
                found,
                expected: size,
            });
        }
        Ok(leaf)
    }

    /// The leaf slot (possibly non-present) that terminates the walk for
    /// `va`; `None` when the walk ends at a zero entry.
    fn locate_any_leaf(&self, va: VirtAddr) -> Option<Slot> {
        let stop = self.descend(va, Level::Pt, |_| {});
        (stop.entry.raw() != 0 && stop.level.is_leaf(stop.entry)).then_some(stop)
    }

    /// `va`'s slot in table `table` at `level`.
    fn slot(&self, table: FrameId, level: Level, va: VirtAddr) -> Slot {
        let idx = va.index_for(level);
        Slot {
            table,
            level,
            idx,
            entry: self.tables[table.index()].entry(idx),
        }
    }

    /// The cursor: follows `va`'s walk path from the root through table
    /// links ([`Level::link`]: present, not a leaf), handing each link it
    /// follows to `on_link`, root first, and returns the first slot that
    /// is no link, or the slot at the `until` level.
    fn descend(&self, va: VirtAddr, until: Level, mut on_link: impl FnMut(Slot)) -> Slot {
        let mut at = self.slot(self.root, Level::Pml4, va);
        while at.level < until {
            let Some(child) = at.level.link(at.entry) else {
                break;
            };
            on_link(at);
            let next = at.level.next().expect("a link's level has a next");
            at = self.slot(child, next, va);
        }
        at
    }

    /// [`AddressSpace::descend`] with the links it followed.
    fn path(&self, va: VirtAddr, until: Level) -> Path {
        let mut links = [None; MAX_LINKS];
        let stop = self.descend(va, until, |link| links[link.level] = Some(link));
        Path { links, stop }
    }
}

/// One slot on an address's walk path: the table, its level, the
/// address's index there and the entry it held when read.
#[derive(Clone, Copy)]
struct Slot {
    table: FrameId,
    level: Level,
    idx: usize,
    entry: Pte,
}

/// At most one link per level above the last.
const MAX_LINKS: usize = Level::WALK_ORDER.len() - 1;

/// A walk path as [`AddressSpace::path`] followed it.
struct Path {
    /// The table links followed, indexed by level.
    links: [Option<Slot>; MAX_LINKS],
    /// The slot the descent stopped at.
    stop: Slot,
}

impl Path {
    /// The links followed, root first.
    fn links(&self) -> impl DoubleEndedIterator<Item = &Slot> {
        self.links.iter().flatten()
    }
}

/// `true` if rewriting `old` as `new` can change where a walk goes or
/// terminates (see [`AddressSpace::shape_epoch`]).
fn changes_shape(old: Pte, new: Pte) -> bool {
    (old.raw() == 0) != (new.raw() == 0)
        || old.is_present() != new.is_present()
        || old.is_huge_leaf() != new.is_huge_leaf()
}

/// The flags a protection to `flags` leaves on a leaf of `size`.
fn leaf_flags(size: PageSize, flags: PteFlags) -> PteFlags {
    if size == PageSize::Size4K {
        flags
    } else {
        flags | PteFlags::HUGE
    }
}

/// The bits a translation sets on its leaf: Accessed, and Dirty on a
/// write.
fn accessed_flags(write: bool) -> PteFlags {
    if write {
        PteFlags::ACCESSED | PteFlags::DIRTY
    } else {
        PteFlags::ACCESSED
    }
}

/// Checks that `va` and `pa` are both aligned to `size`.
fn check_alignment(va: VirtAddr, pa: PhysAddr, size: PageSize) -> Result<(), MmuError> {
    for addr in [va.as_u64(), pa.as_u64()] {
        if addr & (size.bytes() - 1) != 0 {
            return Err(MmuError::Misaligned { addr, size });
        }
    }
    Ok(())
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AddressSpace({} pages, {} tables)",
            self.mapped_pages,
            self.tables.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn va(raw: u64) -> VirtAddr {
        VirtAddr::new_truncate(raw)
    }

    #[test]
    fn map_and_lookup_4k() {
        let mut s = AddressSpace::new();
        let a = va(0x5555_5555_4000);
        let pa = s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        let m = s.lookup(a).unwrap();
        assert_eq!(m.start, a);
        assert_eq!(m.size, PageSize::Size4K);
        assert_eq!(m.phys, pa);
        assert!(m.flags.is_user());
        assert_eq!(s.mapped_pages(), 1);
    }

    #[test]
    fn map_and_lookup_2m_huge() {
        let mut s = AddressSpace::new();
        let a = va(0xffff_ffff_a1e0_0000);
        s.map(a, PageSize::Size2M, PteFlags::kernel_rx()).unwrap();
        let m = s.lookup(a).unwrap();
        assert_eq!(m.size, PageSize::Size2M);
        assert!(m.flags.is_huge());
        // Interior addresses resolve to the same page.
        let inner = va(0xffff_ffff_a1e1_2345);
        let mi = s.lookup(inner).unwrap();
        assert_eq!(mi.start, a);
    }

    #[test]
    fn map_1g_page() {
        let mut s = AddressSpace::new();
        let a = va(0xffff_c000_0000_0000);
        s.map(a, PageSize::Size1G, PteFlags::kernel_rw()).unwrap();
        let m = s.lookup(va(0xffff_c000_3fff_f000)).unwrap();
        assert_eq!(m.size, PageSize::Size1G);
        assert_eq!(m.start, a);
    }

    #[test]
    fn misaligned_map_rejected() {
        let mut s = AddressSpace::new();
        assert_eq!(
            s.map(va(0x1000), PageSize::Size2M, PteFlags::user_rw()),
            Err(MmuError::Misaligned {
                addr: 0x1000,
                size: PageSize::Size2M
            })
        );
    }

    #[test]
    fn double_map_rejected() {
        let mut s = AddressSpace::new();
        let a = va(0x7f00_0000_0000);
        s.map(a, PageSize::Size4K, PteFlags::user_ro()).unwrap();
        assert_eq!(
            s.map(a, PageSize::Size4K, PteFlags::user_ro()),
            Err(MmuError::AlreadyMapped { addr: a.as_u64() })
        );
    }

    #[test]
    fn huge_leaf_blocks_4k_below_it() {
        let mut s = AddressSpace::new();
        let big = va(0xffff_ffff_8000_0000);
        s.map(big, PageSize::Size2M, PteFlags::kernel_rx()).unwrap();
        let small = va(0xffff_ffff_8000_3000);
        assert_eq!(
            s.map(small, PageSize::Size4K, PteFlags::kernel_rx()),
            Err(MmuError::HugePageConflict {
                addr: small.as_u64()
            })
        );
    }

    #[test]
    fn populated_pt_blocks_huge_leaf_above_it() {
        let mut s = AddressSpace::new();
        let small = va(0xffff_ffff_8000_3000);
        s.map(small, PageSize::Size4K, PteFlags::kernel_rx())
            .unwrap();
        let big = va(0xffff_ffff_8000_0000);
        assert_eq!(
            s.map(big, PageSize::Size2M, PteFlags::kernel_rx()),
            Err(MmuError::HugePageConflict { addr: big.as_u64() })
        );
    }

    #[test]
    fn explicit_huge_flag_on_4k_rejected() {
        let mut s = AddressSpace::new();
        assert!(s
            .map(
                va(0x1000),
                PageSize::Size4K,
                PteFlags::user_rw() | PteFlags::HUGE
            )
            .is_err());
    }

    #[test]
    fn unmap_then_lookup_none() {
        let mut s = AddressSpace::new();
        let a = va(0x4000_0000);
        s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        s.unmap(a, PageSize::Size4K).unwrap();
        assert!(s.lookup(a).is_none());
        assert_eq!(s.mapped_pages(), 0);
    }

    #[test]
    fn unmap_wrong_size_reports_mismatch() {
        let mut s = AddressSpace::new();
        let a = va(0x4000_0000);
        s.map(a, PageSize::Size2M, PteFlags::user_rw()).unwrap();
        assert_eq!(
            s.unmap(a, PageSize::Size4K),
            Err(MmuError::SizeMismatch {
                addr: a.as_u64(),
                found: PageSize::Size2M,
                expected: PageSize::Size4K
            })
        );
    }

    #[test]
    fn unmap_not_mapped_errors() {
        let mut s = AddressSpace::new();
        assert_eq!(
            s.unmap(va(0x9000), PageSize::Size4K),
            Err(MmuError::NotMapped { addr: 0x9000 })
        );
    }

    #[test]
    fn protect_changes_flags_keeps_phys() {
        let mut s = AddressSpace::new();
        let a = va(0x7f12_3456_7000);
        let pa = s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        s.protect(a, PageSize::Size4K, PteFlags::user_ro()).unwrap();
        let m = s.lookup(a).unwrap();
        assert_eq!(m.phys, pa);
        assert!(!m.flags.is_writable());
    }

    #[test]
    fn protect_to_non_present_makes_lookup_fail() {
        let mut s = AddressSpace::new();
        let a = va(0x7f12_3456_7000);
        s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        s.protect(a, PageSize::Size4K, PteFlags::none_guard())
            .unwrap();
        // Entry exists but is non-present: lookup (present leaf) fails...
        assert!(s.lookup(a).is_none());
        // ...yet re-protecting back to present works (VMA semantics).
        s.protect(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        assert!(s.lookup(a).is_some());
    }

    #[test]
    fn protect_to_user_upgrades_intermediates() {
        // Map as supervisor-only, then mprotect to user: the effective
        // permission (AND across levels) must become user-accessible.
        let mut s = AddressSpace::new();
        let a = va(0x6000_0000_0000);
        s.map(a, PageSize::Size4K, PteFlags::PRESENT).unwrap();
        s.protect(a, PageSize::Size4K, PteFlags::user_ro()).unwrap();
        let walk = crate::walk::Walker::new().walk(&s, a);
        assert!(walk.is_mapped());
        assert!(walk.perms.user, "intermediates upgraded");
    }

    #[test]
    fn mark_accessed_sets_a_and_d_bits() {
        let mut s = AddressSpace::new();
        let a = va(0x6000_0000);
        s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        let before = s.mark_accessed(a, true).unwrap();
        assert!(!before.is_dirty());
        let m = s.lookup(a).unwrap();
        assert!(m.flags.contains(PteFlags::ACCESSED | PteFlags::DIRTY));
        // Second write reports the dirty state from the first.
        let before2 = s.mark_accessed(a, true).unwrap();
        assert!(before2.is_dirty());
    }

    #[test]
    fn clear_accessed_dirty_resets() {
        let mut s = AddressSpace::new();
        let a = va(0x6000_0000);
        s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        s.mark_accessed(a, true).unwrap();
        s.clear_accessed_dirty(a).unwrap();
        let m = s.lookup(a).unwrap();
        assert!(!m.flags.is_dirty());
        assert!(!m.flags.contains(PteFlags::ACCESSED));
    }

    #[test]
    fn map_range_maps_consecutive_pages() {
        let mut s = AddressSpace::new();
        let a = va(0xffff_ffff_c000_0000);
        s.map_range(a, 5, PageSize::Size4K, PteFlags::kernel_rx())
            .unwrap();
        for i in 0..5 {
            assert!(s.lookup(a.wrapping_add(i * 4096)).is_some(), "page {i}");
        }
        assert!(s.lookup(a.wrapping_add(5 * 4096)).is_none());
    }

    #[test]
    fn unmap_range_clears_all_pages() {
        let mut s = AddressSpace::new();
        let a = va(0xffff_ffff_c000_0000);
        s.map_range(a, 8, PageSize::Size4K, PteFlags::kernel_rx())
            .unwrap();
        s.unmap_range(a, 8, PageSize::Size4K).unwrap();
        for i in 0..8 {
            assert!(s.lookup(a.wrapping_add(i * 4096)).is_none(), "page {i}");
        }
        assert_eq!(s.mapped_pages(), 0);
    }

    #[test]
    fn guarded_huge_page_is_not_mistaken_for_a_table() {
        // mprotect(PROT_NONE) on a 2 MiB page keeps the PS bit but
        // clears Present; a later 4 KiB map (or unmap-driven prune)
        // below it must treat the slot as a conflict, not follow its
        // data-frame address as a paging-structure pointer.
        let mut s = AddressSpace::new();
        let big = va(0x6000_0000_0000);
        s.map(big, PageSize::Size2M, PteFlags::user_rw()).unwrap();
        s.protect(big, PageSize::Size2M, PteFlags::none_guard())
            .unwrap();
        let small = va(0x6000_0000_3000);
        assert_eq!(
            s.map(small, PageSize::Size4K, PteFlags::user_rw()),
            Err(MmuError::HugePageConflict {
                addr: small.as_u64()
            })
        );
        // Prune paths triggered by a sibling unmap stay on the tables.
        let sibling = va(0x6000_0020_0000);
        s.map(sibling, PageSize::Size2M, PteFlags::user_rw())
            .unwrap();
        s.unmap(sibling, PageSize::Size2M).unwrap();
        assert!(s.lookup(big).is_none(), "guard stays non-present");
    }

    /// A 2 MiB or 1 GiB page mprotected to PROT_NONE keeps PS and
    /// loses Present: it maps nothing, yet it is still the page's leaf,
    /// so it can be re-protected, unmapped and mapped again, and
    /// `mapped_pages` counts it until it is unmapped.
    #[test]
    fn huge_guards_can_be_reprotected_unmapped_and_remapped() {
        let guard = PteFlags::kernel_rx().difference(PteFlags::PRESENT);
        for size in [PageSize::Size2M, PageSize::Size1G] {
            let mut s = AddressSpace::new();
            let a = va(0xffff_ffff_c000_0000);
            s.map(a, size, PteFlags::kernel_rx()).unwrap();
            s.protect(a, size, guard).unwrap();
            assert!(s.lookup(a).is_none(), "{size}: a guard maps nothing");
            assert!(s.iter_regions().is_empty(), "{size}: regions omit a guard");
            assert_eq!(s.mapped_pages(), 1, "{size}: the guard is still a page");
            s.protect(a, size, PteFlags::kernel_rx()).unwrap();
            assert_eq!(s.lookup(a).map(|m| m.size), Some(size), "{size}");
            assert_eq!(s.iter_regions().len(), 1, "{size}");
            s.protect(a, size, guard).unwrap();
            s.unmap(a, size).unwrap();
            assert_eq!(s.mapped_pages(), 0, "{size}: unmapping frees the guard");
            s.map(a, size, PteFlags::kernel_rx()).unwrap();
            assert_eq!(s.mapped_pages(), 1, "{size}");
            assert_eq!(s.lookup(a).map(|m| m.size), Some(size), "{size}");
            // The range forms take the same leaf-slot rule.
            s.protect_range(a, 1, size, guard).unwrap();
            s.unmap_range(a, 1, size).unwrap();
            assert_eq!(s.mapped_pages(), 0, "{size}");
            assert!(s.iter_regions().is_empty(), "{size}");
        }
    }

    #[test]
    fn unmap_prunes_empty_tables_for_later_huge_maps() {
        // 2 MiB map + unmap leaves an empty PD behind; a subsequent
        // 1 GiB map over the same range must succeed (OS kernels free
        // empty tables on munmap).
        let mut s = AddressSpace::new();
        let a = va(0x6000_0000_0000);
        s.map(a, PageSize::Size2M, PteFlags::user_rw()).unwrap();
        s.unmap(a, PageSize::Size2M).unwrap();
        s.map(a, PageSize::Size1G, PteFlags::user_rw()).unwrap();
        assert_eq!(s.lookup(a).unwrap().size, PageSize::Size1G);
        // And the other direction: 4 KiB after an unmapped 2 MiB works
        // because the huge leaf is really gone.
        let b = va(0x6080_0000_0000);
        s.map(b, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        s.unmap(b, PageSize::Size4K).unwrap();
        s.map(b, PageSize::Size2M, PteFlags::user_rw()).unwrap();
    }

    #[test]
    fn prune_stops_at_non_empty_tables() {
        let mut s = AddressSpace::new();
        let a = va(0x6000_0000_0000);
        let sibling = va(0x6000_0020_0000); // same PD, next 2 MiB slot
        s.map(a, PageSize::Size2M, PteFlags::user_rw()).unwrap();
        s.map(sibling, PageSize::Size2M, PteFlags::user_rw())
            .unwrap();
        s.unmap(a, PageSize::Size2M).unwrap();
        // Sibling must survive the prune.
        assert!(s.lookup(sibling).is_some());
        // And a 1 GiB map over the range is still (correctly) blocked.
        assert!(s
            .map(a.align_down(1 << 30), PageSize::Size1G, PteFlags::user_rw())
            .is_err());
    }

    #[test]
    fn unmap_range_fails_fast_on_hole() {
        let mut s = AddressSpace::new();
        let a = va(0x4000_0000);
        s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        // Second page missing: range unmap of 2 fails after the first.
        assert!(s.unmap_range(a, 2, PageSize::Size4K).is_err());
        assert!(s.lookup(a).is_none(), "first page already unmapped");
    }

    #[test]
    fn protect_range_rewrites_flags() {
        let mut s = AddressSpace::new();
        let a = va(0x7f00_0000_0000);
        s.map_range(a, 4, PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        s.protect_range(a, 4, PageSize::Size4K, PteFlags::user_ro())
            .unwrap();
        for i in 0..4 {
            let m = s.lookup(a.wrapping_add(i * 4096)).unwrap();
            assert!(!m.flags.is_writable(), "page {i}");
        }
    }

    #[test]
    fn iter_regions_sorted_and_complete() {
        let mut s = AddressSpace::new();
        s.map(
            va(0xffff_ffff_a000_0000),
            PageSize::Size2M,
            PteFlags::kernel_rx(),
        )
        .unwrap();
        s.map(va(0x5555_5555_4000), PageSize::Size4K, PteFlags::user_rx())
            .unwrap();
        s.map(va(0x7fff_f7a0_0000), PageSize::Size4K, PteFlags::user_ro())
            .unwrap();
        let regions = s.iter_regions();
        assert_eq!(regions.len(), 3);
        assert!(regions.windows(2).all(|w| w[0].start < w[1].start));
        assert_eq!(regions[0].start, va(0x5555_5555_4000));
        assert_eq!(regions[2].size, PageSize::Size2M);
    }

    #[test]
    fn iter_regions_skips_non_present_guards() {
        let mut s = AddressSpace::new();
        let a = va(0x7f00_0000_0000);
        s.map(a, PageSize::Size4K, PteFlags::user_rw()).unwrap();
        s.protect(a, PageSize::Size4K, PteFlags::none_guard())
            .unwrap();
        assert!(s.iter_regions().is_empty());
    }

    #[test]
    fn user_and_kernel_mappings_coexist() {
        let mut s = AddressSpace::new();
        s.map(va(0x5555_5555_4000), PageSize::Size4K, PteFlags::user_rx())
            .unwrap();
        s.map(
            va(0xffff_ffff_a1e0_0000),
            PageSize::Size2M,
            PteFlags::kernel_rx(),
        )
        .unwrap();
        assert_eq!(s.mapped_pages(), 2);
        assert!(s.lookup(va(0x5555_5555_4000)).unwrap().flags.is_user());
        assert!(!s.lookup(va(0xffff_ffff_a1e0_0000)).unwrap().flags.is_user());
    }

    #[test]
    fn data_frames_do_not_collide_across_sizes() {
        let mut s = AddressSpace::new();
        let p1 = s
            .map(va(0x1000), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        let p2 = s
            .map(va(0x20_0000), PageSize::Size2M, PteFlags::user_rw())
            .unwrap();
        let p3 = s
            .map(va(0x2000), PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        assert!(p2.as_u64() >= p1.as_u64() + 4096);
        assert!(p3.as_u64() >= p2.as_u64() + PageSize::Size2M.bytes());
        assert_eq!(p2.as_u64() % PageSize::Size2M.bytes(), 0);
    }
}
