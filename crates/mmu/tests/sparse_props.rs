//! Differential suite for the live-entry storage of paging structures
//! and the span-at-a-time range operations.
//!
//! A [`PageTable`] stores a sparse table by its live entries and turns
//! dense at 64; it must read exactly like a flat 512-entry array after
//! any sequence of single and run writes. The range operations of
//! [`AddressSpace`] write a leaf table's span of slots at a time; they
//! must leave exactly what the per-page loops leave: the same tables,
//! epochs, mapped-page count, next data frame and first error.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use avx_mmu::{
    AddressSpace, FrameId, MmuError, PageSize, PageTable, PhysAddr, Pte, PteFlags, VirtAddr,
    ENTRIES_PER_TABLE,
};

/// Every read of `table` agrees with the flat `model`.
fn assert_reads_like(table: &PageTable, model: &[u64; ENTRIES_PER_TABLE], step: usize) {
    for (idx, &raw) in model.iter().enumerate() {
        assert_eq!(table.entry(idx).raw(), raw, "step {step}, entry {idx}");
        assert_eq!(table[idx].raw(), raw, "step {step}, index {idx}");
    }
    let live: Vec<(usize, u64)> = table.iter_live().map(|(i, e)| (i, e.raw())).collect();
    let expected: Vec<(usize, u64)> = model
        .iter()
        .enumerate()
        .filter(|(_, &raw)| raw != 0)
        .map(|(i, &raw)| (i, raw))
        .collect();
    assert_eq!(live, expected, "step {step}: iter_live");
    assert_eq!(table.live_entries(), expected.len(), "step {step}");
    assert_eq!(table.is_empty(), expected.is_empty(), "step {step}");
}

/// The neighbourhoods the range operations run in, each just below a
/// leaf-table boundary or the canonical hole, so ranges cross it.
const SITES: [u64; 4] = [
    0x7f00_001f_c000,      // user, 4 slots below a PT boundary
    0xffff_ffff_c03f_e000, // kernel, 2 slots below a PT boundary
    0x6000_3fc0_0000,      // user, 2 MiB slots below a PD boundary
    0x7fff_ffff_d000,      // 3 pages below the canonical hole
];

/// A page no operation of the suite touches: mapping it reveals the
/// next data frame each space would hand out.
const PROBE_PAGE: u64 = 0x1000_0000_0000;

fn random_range(rng: &mut StdRng) -> (VirtAddr, u64, PageSize) {
    let site = SITES[rng.gen_range(0..SITES.len())];
    if rng.gen_range(0u32..4) == 0 {
        let va = VirtAddr::new_truncate(site).align_down(PageSize::Size2M.bytes());
        return (va, rng.gen_range(0u64..5), PageSize::Size2M);
    }
    let va = VirtAddr::new_truncate(site.wrapping_add(rng.gen_range(0u64..8) * 4096));
    // Now and then a misaligned start, which fails on the first page.
    let va = if rng.gen_range(0u32..16) == 0 {
        va.wrapping_add(0x800)
    } else {
        va
    };
    (va, rng.gen_range(0u64..600), PageSize::Size4K)
}

fn random_flags(rng: &mut StdRng) -> PteFlags {
    match rng.gen_range(0u32..5) {
        0 => PteFlags::user_rw(),
        1 => PteFlags::user_ro(),
        2 => PteFlags::kernel_rx(),
        3 => PteFlags::none_guard(),
        // A HUGE flag on 4 KiB pages is refused after the descent.
        _ => PteFlags::kernel_rw() | PteFlags::HUGE,
    }
}

fn per_page(
    space: &mut AddressSpace,
    (va, count, size): (VirtAddr, u64, PageSize),
    mut op: impl FnMut(&mut AddressSpace, VirtAddr) -> Result<(), MmuError>,
) -> Result<(), MmuError> {
    for i in 0..count {
        op(space, va.wrapping_add(i * size.bytes()))?;
    }
    Ok(())
}

/// Both spaces hold the same tables, entry for entry, and agree on the
/// epochs, the mapped-page count and the next data frame.
fn assert_same_space(a: &AddressSpace, b: &AddressSpace, step: usize) {
    assert_eq!(a.table_count(), b.table_count(), "step {step}");
    for t in 0..a.table_count() {
        let id = FrameId::new(u32::try_from(t).unwrap());
        for idx in 0..ENTRIES_PER_TABLE {
            assert_eq!(
                a.table(id).entry(idx).raw(),
                b.table(id).entry(idx).raw(),
                "step {step}, {id} entry {idx}"
            );
        }
    }
    assert_eq!(a.epoch(), b.epoch(), "step {step}");
    assert_eq!(a.shape_epoch(), b.shape_epoch(), "step {step}");
    assert_eq!(a.mapped_pages(), b.mapped_pages(), "step {step}");
    let next_frame = |s: &AddressSpace| {
        s.clone().map(
            VirtAddr::new_truncate(PROBE_PAGE),
            PageSize::Size4K,
            PteFlags::user_rw(),
        )
    };
    assert_eq!(next_frame(a), next_frame(b), "step {step}: next data frame");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random writes — clustered so tables cross 64 live entries and
    /// turn dense, with zeroing and overwrites — read exactly like a
    /// flat 512-entry array at every step, through `entry`, `Index`,
    /// `iter_live` (order included), `live_entries` and `is_empty`; so
    /// does a copy taken mid-sequence.
    #[test]
    fn page_table_reads_like_a_dense_array(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ba5e);
        let mut table = PageTable::new();
        let mut model = [0u64; ENTRIES_PER_TABLE];
        let span = [16, 96, ENTRIES_PER_TABLE][rng.gen_range(0usize..3)];
        let mut snapshot = None;
        for step in 0..240 {
            let idx = rng.gen_range(0..span);
            let raw = if rng.gen_range(0u32..4) == 0 {
                0
            } else {
                Pte::new(
                    PhysAddr::from_frame_number(rng.gen_range(1u64..1 << 20)),
                    PteFlags::user_rw(),
                )
                .raw()
            };
            table.set_entry(idx, Pte::from_raw(raw));
            model[idx] = raw;
            assert_reads_like(&table, &model, step);
            if step == 120 {
                snapshot = Some((table.clone(), model));
            }
        }
        let (copy, copy_model) = snapshot.expect("taken at step 120");
        assert_reads_like(&copy, &copy_model, 240);
    }

    /// `map_range`, `protect_range` and `mark_accessed_range` leave
    /// exactly what their per-page loops leave, across leaf-table
    /// boundaries and the canonical hole, with collisions and holes
    /// mid-range: every table, both epochs, `mapped_pages`, the next
    /// data frame and the returned error.
    #[test]
    fn range_operations_match_per_page_loops(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a49e);
        let mut ranged = AddressSpace::new();
        // Scattered pages so ranges collide with them mid-range. Kernel
        // pages leave their intermediates without USER, for `USER`
        // protections to upgrade.
        for _ in 0..6 {
            let site = SITES[rng.gen_range(0..SITES.len())];
            let va = VirtAddr::new_truncate(site.wrapping_add(rng.gen_range(0u64..600) * 4096));
            let flags = if va.is_kernel_half() {
                PteFlags::kernel_rx()
            } else {
                PteFlags::user_rw()
            };
            let _ = ranged.map(va, PageSize::Size4K, flags);
        }
        let mut looped = ranged.clone();
        let mut range = random_range(&mut rng);
        for step in 0..16 {
            // Half the time the next operation covers the last range
            // again, so protections and marks meet what was just mapped.
            if rng.gen_range(0u32..2) == 0 {
                range = random_range(&mut rng);
            }
            let (va, count, size) = range;
            let (got, want) = match rng.gen_range(0u32..3) {
                0 => {
                    let flags = random_flags(&mut rng);
                    (
                        ranged.map_range(va, count, size, flags),
                        per_page(&mut looped, range, |s, page| s.map(page, size, flags).map(drop)),
                    )
                }
                1 => {
                    let flags = random_flags(&mut rng);
                    (
                        ranged.protect_range(va, count, size, flags),
                        per_page(&mut looped, range, |s, page| s.protect(page, size, flags)),
                    )
                }
                _ => {
                    let write = rng.gen_range(0u32..2) == 0;
                    (
                        ranged.mark_accessed_range(va, count, size, write),
                        per_page(&mut looped, range, |s, page| {
                            s.mark_accessed(page, write).map(drop)
                        }),
                    )
                }
            };
            prop_assert_eq!(got, want);
            assert_same_space(&ranged, &looped, step);
        }
    }

    /// Run writes (`update_run`) mixed with single writes read exactly
    /// like a flat 512-entry array at every step: runs that fill a
    /// partly filled sparse table past 64 live entries (sparse → dense),
    /// runs that clear, overwrite or mix both, in sparse and dense
    /// tables alike.
    #[test]
    fn page_table_run_writes_read_like_a_dense_array(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2a11);
        let mut table = PageTable::new();
        let mut model = [0u64; ENTRIES_PER_TABLE];
        let span = [96, ENTRIES_PER_TABLE][rng.gen_range(0usize..2)];
        let random_pte = |rng: &mut StdRng| {
            Pte::new(
                PhysAddr::from_frame_number(rng.gen_range(1u64..1 << 20)),
                PteFlags::user_rw(),
            )
            .raw()
        };
        for step in 0..64 {
            if rng.gen_range(0u32..3) == 0 {
                // A few single writes partly fill the table first.
                let idx = rng.gen_range(0..span);
                let raw = random_pte(&mut rng);
                table.set_entry(idx, Pte::from_raw(raw));
                model[idx] = raw;
            } else {
                let start = rng.gen_range(0..span);
                let end = rng.gen_range(start..=span.min(start + 80));
                // 0: fill, 1: clear, 2: overwrite live slots, 3: mixed.
                let kind = rng.gen_range(0u32..4);
                let salt = rng.gen_range(1u64..1 << 20);
                let new = |i: usize, old: Pte| match kind {
                    0 => Pte::new(PhysAddr::from_frame_number(salt + i as u64), PteFlags::kernel_rx()),
                    1 => Pte::zero(),
                    2 if old.raw() != 0 => old.with_flags_set(PteFlags::DIRTY),
                    2 => old,
                    _ if (salt + i as u64).is_multiple_of(3) => Pte::zero(),
                    _ => Pte::new(PhysAddr::from_frame_number(salt ^ i as u64), PteFlags::user_ro()),
                };
                table.update_run(start..end, new);
                for (i, raw) in model.iter_mut().enumerate().take(end).skip(start) {
                    *raw = new(i, Pte::from_raw(*raw)).raw();
                }
            }
            assert_reads_like(&table, &model, step);
        }
    }

    /// All four range operations — `unmap_range` included, with the
    /// prunes of the leaf tables it empties — leave exactly what their
    /// per-page loops leave: every table and its storage, both epochs,
    /// `mapped_pages`, the next data frame and the returned error.
    #[test]
    fn range_operations_with_unmap_match_per_page_loops(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0dd5);
        let scattered: Vec<VirtAddr> = (0..3)
            .map(|_| {
                let site = SITES[rng.gen_range(0..SITES.len())];
                VirtAddr::new_truncate(site.wrapping_add(rng.gen_range(0u64..600) * 4096))
            })
            .collect();
        // Two spaces built alike, not a snapshot and its source: the
        // first write to a shared table copies it at its live size, so
        // only unshared spaces can agree on storage capacity.
        let build = || {
            let mut space = AddressSpace::new();
            for &va in &scattered {
                let _ = space.map(va, PageSize::Size4K, PteFlags::user_rw());
            }
            space
        };
        let (mut ranged, mut looped) = (build(), build());
        let mut range = random_range(&mut rng);
        for step in 0..24 {
            if rng.gen_range(0u32..2) == 0 {
                range = random_range(&mut rng);
            }
            let (va, count, size) = range;
            let (got, want) = match rng.gen_range(0u32..6) {
                // Unmapping half the time empties the tables the maps
                // filled, so the prunes run.
                0..=2 => (
                    ranged.unmap_range(va, count, size),
                    per_page(&mut looped, range, |s, page| s.unmap(page, size)),
                ),
                3 => {
                    let flags = if rng.gen_range(0u32..4) == 0 {
                        random_flags(&mut rng)
                    } else {
                        PteFlags::user_rw()
                    };
                    (
                        ranged.map_range(va, count, size, flags),
                        per_page(&mut looped, range, |s, page| s.map(page, size, flags).map(drop)),
                    )
                }
                4 => {
                    let flags = random_flags(&mut rng);
                    (
                        ranged.protect_range(va, count, size, flags),
                        per_page(&mut looped, range, |s, page| s.protect(page, size, flags)),
                    )
                }
                _ => (
                    ranged.mark_accessed_range(va, count, size, true),
                    per_page(&mut looped, range, |s, page| s.mark_accessed(page, true).map(drop)),
                ),
            };
            prop_assert_eq!(got, want);
            assert_same_space(&ranged, &looped, step);
            // The same representation too: sparse or dense, and the
            // same storage capacity.
            assert_eq!(ranged.table_bytes(), looped.table_bytes(), "step {step}");
        }
    }
}
