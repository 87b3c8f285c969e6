//! Paging-structure tables and levels.

use core::fmt;
use core::ops::{Index, IndexMut, Range};

use crate::pte::Pte;

/// Number of entries in every paging structure (512 × 8 bytes = 4 KiB).
pub const ENTRIES_PER_TABLE: usize = 512;

/// Identifier of a simulated physical frame holding a paging structure.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FrameId(pub(crate) u32);

impl FrameId {
    /// Creates a frame id from a raw arena index (useful for tests and
    /// for timing models that key caches by frame).
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Raw index value.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame#{}", self.0)
    }
}

/// The four levels of 4-level paging, ordered from root to leaf.
///
/// A level's position in walk order (root = 0) indexes per-level arrays
/// (`chain[level]`). One geometry table in this module writes each
/// level's shift and whether it may hold a leaf; every other property
/// derives from it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Level {
    /// Page-map level 4 (root), bits 47..39.
    Pml4,
    /// Page-directory-pointer table, bits 38..30. 1 GiB leaves live here.
    Pdpt,
    /// Page directory, bits 29..21. 2 MiB leaves live here.
    Pd,
    /// Page table, bits 20..12. 4 KiB leaves live here.
    Pt,
}

/// One level's row of the paging geometry.
struct Geometry {
    /// The lowest address bit of the level's 9-bit index.
    shift: u32,
    /// Whether an entry at the level may map a page.
    leaf: bool,
}

impl Level {
    /// All levels in walk order (root → leaf).
    pub const WALK_ORDER: [Level; 4] = [Level::Pml4, Level::Pdpt, Level::Pd, Level::Pt];

    /// The paging geometry, one row per level: the one place each
    /// level's shift and leaf permission are written.
    #[rustfmt::skip]
    const fn geometry(self) -> Geometry {
        match self {
            Level::Pml4 => Geometry { shift: 39, leaf: false },
            Level::Pdpt => Geometry { shift: 30, leaf: true }, // 1 GiB pages
            Level::Pd => Geometry { shift: 21, leaf: true },   // 2 MiB pages
            Level::Pt => Geometry { shift: 12, leaf: true },   // 4 KiB pages
        }
    }

    /// Position in walk order: 0 for the root.
    const fn depth(self) -> usize {
        self as usize
    }

    /// The next level towards the leaf, if any.
    #[must_use]
    pub const fn next(self) -> Option<Level> {
        match self {
            Level::Pml4 => Some(Level::Pdpt),
            Level::Pdpt => Some(Level::Pd),
            Level::Pd => Some(Level::Pt),
            Level::Pt => None,
        }
    }

    /// The level above, towards the root, if any.
    #[must_use]
    pub const fn parent(self) -> Option<Level> {
        match self {
            Level::Pml4 => None,
            Level::Pdpt => Some(Level::Pml4),
            Level::Pd => Some(Level::Pdpt),
            Level::Pt => Some(Level::Pd),
        }
    }

    /// The lowest address bit of this level's 9-bit table index, and
    /// log2 of [`Level::entry_span`].
    #[must_use]
    pub const fn shift(self) -> u32 {
        self.geometry().shift
    }

    /// Size of the region one entry at this level spans.
    #[must_use]
    pub const fn entry_span(self) -> u64 {
        1 << self.shift()
    }

    /// `true` if a leaf mapping may terminate at this level.
    #[must_use]
    pub const fn supports_leaf(self) -> bool {
        self.geometry().leaf
    }

    /// `true` if the paging-structure cache holds entries of this
    /// level: every level whose entries may link a table, so all but
    /// the last (PTEs go to the TLB only).
    #[must_use]
    pub const fn psc_cached(self) -> bool {
        self.next().is_some()
    }

    /// The leaf-slot rule: `true` if `entry`, read at this level, maps
    /// a page rather than linking a table, present or not. Every entry
    /// of the last level does; above it, an entry with PS where a leaf
    /// may sit. The reference walker keeps its own copy of this rule.
    #[must_use]
    pub(crate) const fn is_leaf(self, entry: Pte) -> bool {
        self.next().is_none() || (self.supports_leaf() && entry.flags().is_huge())
    }

    /// The descent rule: the table `entry`, read at this level, links
    /// to — `Some` exactly when the entry is present and no leaf. A
    /// non-present leaf (a guard) carries a data frame, never a table.
    #[must_use]
    pub(crate) fn link(self, entry: Pte) -> Option<FrameId> {
        (entry.is_present() && !self.is_leaf(entry)).then(|| {
            FrameId(u32::try_from(entry.addr().frame_number()).expect("table frame id fits u32"))
        })
    }
}

impl<T, const N: usize> Index<Level> for [T; N] {
    type Output = T;
    fn index(&self, level: Level) -> &T {
        &self[level.depth()]
    }
}

impl<T, const N: usize> IndexMut<Level> for [T; N] {
    fn index_mut(&mut self, level: Level) -> &mut T {
        &mut self[level.depth()]
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Level::Pml4 => "PML4",
            Level::Pdpt => "PDPT",
            Level::Pd => "PD",
            Level::Pt => "PT",
        };
        write!(f, "{name}")
    }
}

/// Live entries at which a sparse table turns dense (and stays dense).
const DENSE_AT: usize = 64;

/// Bitmap words covering one table's 512 slots.
const WORDS: usize = ENTRIES_PER_TABLE / 64;

/// A paging structure's 512 entries, stored by its live entries.
///
/// Most paging structures of a simulated layout hold a handful of live
/// entries (a KASLR'd kernel uses a few PML4/PDPT/PD slots, one 2 MiB
/// image and a few 4 KiB-split slots), so a table stays *sparse* until
/// it holds 64 live entries: a presence bitmap, the number of live
/// entries before each bitmap word, and the live entries packed in
/// index order. A read is a bit test plus one `count_ones`. From 64
/// live entries on it is the dense 512-entry array (one load per read)
/// and stays dense. Either way it reads exactly like 512 raw entries.
#[derive(Clone)]
pub struct PageTable {
    /// Bit `i % 64` of word `i / 64` is set exactly when entry `i` is
    /// non-zero.
    present: [u64; WORDS],
    slots: Slots,
}

#[derive(Clone)]
enum Slots {
    /// Fewer than [`DENSE_AT`] live entries: `rank[w]` counts the live
    /// entries in bitmap words before `w`, and `packed` holds the live
    /// entries in index order.
    Sparse { rank: [u8; WORDS], packed: Vec<Pte> },
    /// Every entry, zero or not.
    Dense(Box<[Pte; ENTRIES_PER_TABLE]>),
}

/// The all-zero entry a sparse table reads for a slot it does not store.
static ZERO: Pte = Pte::zero();

impl PageTable {
    /// An empty (all zero) table.
    #[must_use]
    pub fn new() -> Self {
        Self {
            present: [0; WORDS],
            slots: Slots::Sparse {
                rank: [0; WORDS],
                packed: Vec::new(),
            },
        }
    }

    /// The entry at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 512`.
    #[must_use]
    // Every probe reads entries through here; without the hint the
    // sparse arm measured 5–11 % slower end to end (perfbench).
    #[inline]
    pub fn entry(&self, index: usize) -> Pte {
        self.stored(index).copied().unwrap_or_default()
    }

    /// The stored entry at `index`; `None` for a slot a sparse table
    /// does not store (a zero entry).
    #[inline]
    fn stored(&self, index: usize) -> Option<&Pte> {
        match &self.slots {
            Slots::Dense(entries) => Some(&entries[index]),
            Slots::Sparse { rank, packed } => {
                let (word, bit) = (index / 64, index % 64);
                let bits = self.present[word];
                if bits >> bit & 1 == 0 {
                    return None;
                }
                let below = (bits & ((1u64 << bit) - 1)).count_ones() as usize;
                Some(&packed[usize::from(rank[word]) + below])
            }
        }
    }

    /// Overwrites the entry at `index`, maintaining the live-entry count.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 512`.
    pub fn set_entry(&mut self, index: usize, pte: Pte) {
        let (word, bit) = (index / 64, 1u64 << (index % 64));
        let before = self.present[word];
        let (was, is) = (before & bit != 0, pte.raw() != 0);
        self.present[word] = if is { before | bit } else { before & !bit };
        match &mut self.slots {
            Slots::Dense(entries) => entries[index] = pte,
            Slots::Sparse { rank, packed } => {
                let pos = usize::from(rank[word]) + (before & (bit - 1)).count_ones() as usize;
                match (was, is) {
                    (true, true) => packed[pos] = pte,
                    (false, true) => {
                        packed.insert(pos, pte);
                        rank[word + 1..].iter_mut().for_each(|r| *r += 1);
                    }
                    (true, false) => {
                        packed.remove(pos);
                        rank[word + 1..].iter_mut().for_each(|r| *r -= 1);
                    }
                    (false, false) => {}
                }
                if packed.len() >= DENSE_AT {
                    self.densify();
                }
            }
        }
    }

    /// Rewrites slots `run` in one pass, slot `i` becoming `f(i, old)`.
    ///
    /// Reads afterwards exactly as [`PageTable::set_entry`] on each slot
    /// in turn would leave them. A sparse table the run leaves with 64
    /// or more live entries turns dense; for a run that only fills or
    /// only clears slots, that is also the representation the per-slot
    /// writes would leave. `f` may be called more than once per slot.
    ///
    /// # Panics
    ///
    /// Panics if `run` reaches past slot 511.
    pub fn update_run(&mut self, run: Range<usize>, f: impl Fn(usize, Pte) -> Pte) {
        assert!(run.end <= ENTRIES_PER_TABLE, "run past the table");
        if run.is_empty() {
            return;
        }
        if let Slots::Sparse { rank, packed } = &mut self.slots {
            let old = self.present;
            let (word, bit) = (run.start / 64, run.start % 64);
            let pos =
                usize::from(rank[word]) + (old[word] & ((1u64 << bit) - 1)).count_ones() as usize;
            let mut taken = 0;
            let mut present = old;
            // The run's new live entries, while they still fit a sparse
            // table: `DENSE_AT` of them already turn it dense.
            let mut live = [Pte::zero(); DENSE_AT];
            let mut fresh = 0;
            for i in run.clone() {
                let (word, bit) = (i / 64, 1u64 << (i % 64));
                let before = if old[word] & bit != 0 {
                    taken += 1;
                    packed[pos + taken - 1]
                } else {
                    Pte::zero()
                };
                let pte = f(i, before);
                if pte.raw() == 0 {
                    present[word] &= !bit;
                    continue;
                }
                present[word] |= bit;
                if fresh == DENSE_AT {
                    break;
                }
                live[fresh] = pte;
                fresh += 1;
            }
            let len = packed.len() - taken + fresh;
            if len < DENSE_AT {
                // Grow the storage as one insert at a time would. The
                // same capacities keep allocation sizes to a few
                // classes: exact ones measured 1–1.5 MiB more peak RSS
                // on perfbench fleet-base, with the same live bytes.
                let mut cap = packed.capacity();
                while cap < len {
                    cap = (cap * 2).max(4);
                }
                packed.reserve_exact(cap - packed.len());
                packed.splice(pos..pos + taken, live[..fresh].iter().copied());
                self.present = present;
                let mut below = 0;
                for (word, r) in rank.iter_mut().enumerate() {
                    *r = below;
                    // At most 63 live entries: the sum fits a `u8`.
                    below += present[word].count_ones() as u8;
                }
                return;
            }
            self.densify();
        }
        let Slots::Dense(entries) = &mut self.slots else {
            unreachable!("densified above");
        };
        for i in run {
            let pte = f(i, entries[i]);
            entries[i] = pte;
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            if pte.raw() == 0 {
                self.present[word] &= !bit;
            } else {
                self.present[word] |= bit;
            }
        }
    }

    /// Number of consecutive slots from `start` on, at most `max`, that
    /// are all live (`live`) or all zero (`!live`): one bitmap test per
    /// 64 slots.
    #[must_use]
    pub(crate) fn run_len(&self, start: usize, max: usize, live: bool) -> usize {
        let mut len = 0;
        while len < max && start + len < ENTRIES_PER_TABLE {
            let i = start + len;
            // The bits that end the run, from slot `i` on.
            let word = self.present[i / 64];
            let stops = if live { !word } else { word } >> (i % 64);
            let room = 64 - i % 64;
            let run = (stops.trailing_zeros() as usize).min(room);
            len += run;
            if run < room {
                break;
            }
        }
        len.min(max)
    }

    /// Turns a sparse table dense.
    fn densify(&mut self) {
        if let Slots::Sparse { packed, .. } = &self.slots {
            let mut entries = Box::new([Pte::zero(); ENTRIES_PER_TABLE]);
            for (idx, &e) in set_bits(self.present).zip(packed.iter()) {
                entries[idx] = e;
            }
            self.slots = Slots::Dense(entries);
        }
    }

    /// Number of non-zero entries; an empty table can be reclaimed.
    #[must_use]
    pub fn live_entries(&self) -> usize {
        match &self.slots {
            Slots::Sparse { packed, .. } => packed.len(),
            Slots::Dense(_) => self.present.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// `true` if every entry is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.present == [0; WORDS]
    }

    /// Iterates over `(index, entry)` pairs of non-zero entries in index
    /// order, in O(live entries).
    pub fn iter_live(&self) -> impl Iterator<Item = (usize, Pte)> + '_ {
        set_bits(self.present)
            .enumerate()
            .map(move |(rank, idx)| match &self.slots {
                Slots::Sparse { packed, .. } => (idx, packed[rank]),
                Slots::Dense(entries) => (idx, entries[idx]),
            })
    }

    /// Bytes this table occupies: its inline size plus its entry storage.
    pub(crate) fn bytes(&self) -> usize {
        core::mem::size_of::<Self>()
            + match &self.slots {
                Slots::Sparse { packed, .. } => packed.capacity() * core::mem::size_of::<Pte>(),
                Slots::Dense(_) => core::mem::size_of::<[Pte; ENTRIES_PER_TABLE]>(),
            }
    }
}

/// The indices of the set bits of `words`, ascending.
fn set_bits(mut words: [u64; WORDS]) -> impl Iterator<Item = usize> {
    let mut word = 0;
    core::iter::from_fn(move || {
        while word < WORDS {
            let bits = words[word];
            if bits != 0 {
                words[word] = bits & (bits - 1);
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
        }
        None
    })
}

impl Default for PageTable {
    fn default() -> Self {
        Self::new()
    }
}

impl Index<usize> for PageTable {
    type Output = Pte;
    fn index(&self, index: usize) -> &Pte {
        self.stored(index).unwrap_or(&ZERO)
    }
}

impl fmt::Debug for PageTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageTable({} live entries)", self.live_entries())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{PhysAddr, VirtAddr};
    use crate::flags::PteFlags;

    /// The geometry table against the architecture, in literals: a
    /// wrong shift would move the shadow index and the reference walker
    /// together, so only values not derived from the table catch it.
    #[test]
    fn level_table_pins_architectural_geometry() {
        let shifts = Level::WALK_ORDER.map(Level::shift);
        assert_eq!(shifts, [39, 30, 21, 12]);
        let spans = Level::WALK_ORDER.map(Level::entry_span);
        assert_eq!(spans, [512 << 30, 1 << 30, 2 << 20, 4 << 10]);
        // 0xffff_ffff_8000_0000, the canonical Linux kernel text start:
        // PML4 511, PDPT 510, PD 0, PT 0.
        let va = VirtAddr::new_truncate(0xffff_ffff_8000_0000);
        assert_eq!(Level::WALK_ORDER.map(|l| va.index_for(l)), [511, 510, 0, 0]);
        let va = VirtAddr::new_truncate(0xffff_ffff_c123_4567);
        assert_eq!(
            Level::WALK_ORDER.map(|l| va.index_for(l)),
            [511, 511, 9, 52]
        );
    }

    #[test]
    fn walk_order_is_root_to_leaf() {
        assert_eq!(
            Level::WALK_ORDER,
            [Level::Pml4, Level::Pdpt, Level::Pd, Level::Pt]
        );
        assert_eq!(Level::Pml4.next(), Some(Level::Pdpt));
        assert_eq!(Level::Pt.next(), None);
        assert_eq!(Level::Pml4.parent(), None);
        assert_eq!(Level::Pt.parent(), Some(Level::Pd));
        let chain = [10, 11, 12, 13];
        assert_eq!(Level::WALK_ORDER.map(|l| chain[l]), chain);
    }

    #[test]
    fn leaf_support() {
        assert!(!Level::Pml4.supports_leaf());
        assert!(Level::Pdpt.supports_leaf());
        assert!(Level::Pd.supports_leaf());
        assert!(Level::Pt.supports_leaf());
    }

    /// The leaf-slot and descent rules at every level: PT entries are
    /// leaves, PS makes a PDPT/PD entry a leaf whether present or not,
    /// and PS means nothing at the PML4; only a present non-leaf links.
    #[test]
    fn leaf_and_link_rules_by_level() {
        let at = PhysAddr::new(7 << 12);
        let table = Pte::new(at, PteFlags::PRESENT | PteFlags::WRITABLE);
        let huge = Pte::new(at, PteFlags::PRESENT | PteFlags::HUGE);
        let guard = Pte::new(at, PteFlags::HUGE);
        for level in Level::WALK_ORDER {
            let (table_leaf, huge_leaf) = match level {
                Level::Pml4 => (false, false),
                Level::Pdpt | Level::Pd => (false, true),
                Level::Pt => (true, true),
            };
            assert_eq!(level.is_leaf(table), table_leaf, "{level}");
            assert_eq!(level.is_leaf(huge), huge_leaf, "{level}");
            assert_eq!(level.is_leaf(guard), huge_leaf, "{level}: presence ignored");
            let linked = (!table_leaf).then_some(FrameId(7));
            assert_eq!(level.link(table), linked, "{level}");
            let linked = (!huge_leaf).then_some(FrameId(7));
            assert_eq!(level.link(huge), linked, "{level}");
            assert_eq!(level.link(guard), None, "{level}: a guard never links");
        }
    }

    #[test]
    fn table_live_entry_accounting() {
        let mut t = PageTable::new();
        assert!(t.is_empty());
        let pte = Pte::new(PhysAddr::new(0x1000), PteFlags::PRESENT);
        t.set_entry(3, pte);
        t.set_entry(7, pte);
        assert_eq!(t.live_entries(), 2);
        t.set_entry(3, pte); // overwrite with non-zero: count unchanged
        assert_eq!(t.live_entries(), 2);
        t.set_entry(3, Pte::zero());
        assert_eq!(t.live_entries(), 1);
        t.set_entry(7, Pte::zero());
        assert!(t.is_empty());
    }

    #[test]
    fn iter_live_yields_only_nonzero() {
        let mut t = PageTable::new();
        let pte = Pte::new(PhysAddr::new(0x2000), PteFlags::PRESENT);
        t.set_entry(511, pte);
        let collected: Vec<_> = t.iter_live().collect();
        assert_eq!(collected, vec![(511, pte)]);
    }

    #[test]
    fn display_names() {
        assert_eq!(Level::Pml4.to_string(), "PML4");
        assert_eq!(Level::Pt.to_string(), "PT");
    }
}
