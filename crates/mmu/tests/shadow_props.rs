//! Property suite pinning the shadow translation index to the reference
//! walker, and the copy-on-write snapshot isolation contract.
//!
//! The shadow index is only allowed to exist because its one walk,
//! [`ShadowIndex::walk_costed`] (the walk every probe runs), is
//! observably identical to [`Walker`]: the same [`ShadowWalk`] as the
//! walker's [`WalkOutcome`] reduces to (termination level, access
//! count, PSC resume, leaf, perms, page size, frame; all but the
//! analytic `clean_replay`), the same access list streamed through
//! `on_access`, and the same PSC evolution (length, hit/miss counters),
//! at every step of *any* interleaving of structural mutations,
//! flags-only mutations and probes — including the stale-PSC resumes
//! that arise when the tables mutate without `INVLPG`, exactly as on
//! hardware. The reference walker's own PSC is in turn checked, walk by
//! walk, against an independent model (`support/psc_model.rs`), and a
//! reset PSC and TLB must replay any trace exactly like fresh ones.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use avx_mmu::psc::PscEntry;
use avx_mmu::{
    AddressSpace, EffectivePerms, FrameId, Level, PageSize, PagingStructureCache, PscConfig,
    PteFlags, ShadowIndex, ShadowWalk, Tlb, TlbConfig, TlbEntry, VirtAddr, WalkOutcome, Walker,
};

#[path = "support/psc_model.rs"]
mod psc_model;
#[path = "support/shadow_reference.rs"]
mod shadow_reference;

use psc_model::PscModel;

/// Candidate page bases the mutation driver works over: a mix of user,
/// kernel-text, module-area and wild addresses, various alignments.
const SITES: [u64; 8] = [
    0x5555_5555_4000,      // user 4K
    0x7f00_0000_0000,      // user 4K
    0x6000_0000_0000,      // user, also used at 2M/1G alignment
    0xffff_ffff_8000_0000, // kernel-text region start (2M)
    0xffff_ffff_a1e0_0000, // kernel 2M slot
    0xffff_ffff_c012_3000, // module-area 4K
    0xffff_c000_0000_0000, // 1G-aligned kernel
    0x1234_5678_9000,      // wild hole
];

/// Sites either side of the canonical hole: the top 4 KiB, 2 MiB and
/// 1 GiB of PML4 slot 255 and the bottom of slot 256.
const HOLE_SITES: [u64; 4] = [
    0x7fff_ffff_f000,
    0x7fff_ffe0_0000,
    0x7fff_c000_0000,
    0xffff_8000_0000_0000,
];

/// Asserts the shadow walk `fast`, which streamed `accesses`, matches
/// the walker's `slow` outcome on every [`ShadowWalk`] field but
/// `clean_replay` and on the access list.
fn assert_same_walk(
    fast: &ShadowWalk,
    accesses: &[(FrameId, usize)],
    slow: &WalkOutcome,
    step: usize,
) {
    let want = ShadowWalk::from(slow);
    assert_eq!(fast.terminal_level, want.terminal_level, "step {step}");
    assert_eq!(
        fast.structures_accessed, want.structures_accessed,
        "step {step}"
    );
    assert_eq!(fast.resumed, want.resumed, "step {step}");
    assert_eq!(fast.present_leaf, want.present_leaf, "step {step}");
    assert_eq!(fast.perms, want.perms, "step {step}");
    assert_eq!(fast.page_size, want.page_size, "step {step}");
    assert_eq!(fast.frame_number, want.frame_number, "step {step}");
    let slow_accesses: Vec<_> = slow.accesses.iter().collect();
    assert_eq!(accesses, slow_accesses, "step {step}");
}

/// Applies one random mutation or probe step; probes compare the shadow
/// index (rebuilt only on shape-epoch change, like the engine does)
/// against the reference walker on the same evolving PSC pair, and the
/// reference walker's PSC against the independent model.
fn drive(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut space = AddressSpace::new();
    let walker = Walker::new();
    let mut psc_slow = PagingStructureCache::new(PscConfig::default());
    let mut psc_fast = PagingStructureCache::new(PscConfig::default());
    let mut model = PscModel::new();
    let mut shadow = ShadowIndex::build(&space);
    let mut hint = 0usize;

    for step in 0..steps {
        let site = SITES[rng.gen_range(0..SITES.len())];
        match rng.gen_range(0u32..10) {
            // Structural mutations (shape epoch bumps).
            0 | 1 => {
                let size = match rng.gen_range(0u32..4) {
                    0 => PageSize::Size2M,
                    1 if site.is_multiple_of(1 << 30) => PageSize::Size1G,
                    _ => PageSize::Size4K,
                };
                let flags = match rng.gen_range(0u32..3) {
                    0 => PteFlags::user_rw(),
                    1 => PteFlags::user_ro(),
                    _ => PteFlags::kernel_rx(),
                };
                let va = VirtAddr::new_truncate(site).align_down(size.bytes());
                let _ = space.map(va, size, flags);
            }
            2 => {
                for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
                    let va = VirtAddr::new_truncate(site).align_down(size.bytes());
                    if space.unmap(va, size).is_ok() {
                        break;
                    }
                }
            }
            // Flags-only and Present-flipping mutations.
            3 => {
                let flags = if rng.gen_range(0u32..4) == 0 {
                    PteFlags::none_guard()
                } else {
                    PteFlags::user_ro()
                };
                for size in [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G] {
                    let va = VirtAddr::new_truncate(site).align_down(size.bytes());
                    if space.protect(va, size, flags).is_ok() {
                        break;
                    }
                }
            }
            // A/D-bit churn (must never invalidate the index).
            4 => {
                let va = VirtAddr::new_truncate(site);
                let _ = space.mark_accessed(va, rng.gen_range(0u32..2) == 0);
            }
            5 => {
                let va = VirtAddr::new_truncate(site);
                let _ = space.clear_accessed_dirty(va);
            }
            // INVLPG-style PSC invalidation, applied to both PSCs.
            6 => {
                let va = VirtAddr::new_truncate(site);
                psc_slow.invlpg(va);
                psc_fast.invlpg(va);
                model.invlpg(va);
            }
            // Probes: walk and compare.
            _ => {
                let offset = rng.gen_range(0u64..0x40_0000);
                let va = VirtAddr::new_truncate(site.wrapping_add(offset));
                if !shadow.is_current(&space) {
                    shadow = ShadowIndex::build(&space);
                }
                let mut accesses = Vec::new();
                let mut on_access = |table, idx| accesses.push((table, idx));
                let (slow, fast) = if rng.gen_range(0u32..4) == 0 {
                    (
                        walker.walk(&space, va),
                        shadow.walk_costed(&space, va, None, &mut hint, &mut on_access),
                    )
                } else {
                    let slow = walker.walk_with_psc(&space, va, &mut psc_slow);
                    model.walk(va, &slow, step);
                    let fast = shadow.walk_costed(
                        &space,
                        va,
                        Some(&mut psc_fast),
                        &mut hint,
                        &mut on_access,
                    );
                    (slow, fast)
                };
                assert_same_walk(&fast, &accesses, &slow, step);
                assert_eq!(psc_fast.len(), psc_slow.len(), "step {step}");
                assert_eq!(psc_fast.hits(), psc_slow.hits(), "step {step}");
                assert_eq!(psc_fast.misses(), psc_slow.misses(), "step {step}");
                assert_eq!(model.len(), psc_slow.len(), "step {step}");
                assert_eq!(model.hits(), psc_slow.hits(), "step {step}");
                assert_eq!(model.misses(), psc_slow.misses(), "step {step}");
            }
        }
    }
}

/// A random trace step over the translation caches.
#[derive(Clone, Copy, Debug)]
enum CacheOp {
    Lookup(VirtAddr),
    Insert(VirtAddr, PageSize, bool),
    Invlpg(VirtAddr),
    Flush(bool),
    Evict(VirtAddr),
}

/// A trace of `len` steps over a small address pool, so lookups hit,
/// arrays fill and evict, and invalidations find their entries.
fn cache_trace(rng: &mut StdRng, len: usize) -> Vec<CacheOp> {
    (0..len)
        .map(|_| {
            let site = SITES[rng.gen_range(0..SITES.len())];
            let va = VirtAddr::new_truncate(site.wrapping_add(rng.gen_range(0u64..24) << 21));
            match rng.gen_range(0u32..16) {
                0..=6 => CacheOp::Lookup(va),
                7..=11 => {
                    let size = [PageSize::Size4K, PageSize::Size2M, PageSize::Size1G]
                        [rng.gen_range(0..3usize)];
                    CacheOp::Insert(va, size, rng.gen_range(0u32..2) == 0)
                }
                12 | 13 => CacheOp::Invlpg(va),
                14 => CacheOp::Evict(va),
                _ => CacheOp::Flush(rng.gen_range(0u32..2) == 0),
            }
        })
        .collect()
}

/// Runs `trace` on a TLB and a PSC, recording every observable result.
fn replay(tlb: &mut Tlb, psc: &mut PagingStructureCache, trace: &[CacheOp]) -> Vec<String> {
    trace
        .iter()
        .map(|&op| {
            let result = match op {
                CacheOp::Lookup(va) => format!("{:?} {:?}", tlb.lookup(va), psc.lookup_deepest(va)),
                CacheOp::Insert(va, size, global) => {
                    let perms = EffectivePerms {
                        global,
                        ..EffectivePerms::kernel_default()
                    };
                    tlb.insert(TlbEntry {
                        vpn: va.as_u64() >> size.shift(),
                        size,
                        pfn: va.as_u64() >> 12,
                        perms,
                    });
                    let level =
                        [Level::Pml4, Level::Pdpt, Level::Pd][(va.as_u64() >> 21) as usize % 3];
                    let next_table = FrameId::default();
                    psc.insert(level, va, PscEntry { next_table, perms });
                    String::new()
                }
                CacheOp::Invlpg(va) => {
                    tlb.invlpg(va);
                    psc.invlpg(va);
                    String::new()
                }
                CacheOp::Flush(keep_global) => {
                    tlb.flush(keep_global);
                    psc.flush_all();
                    String::new()
                }
                CacheOp::Evict(va) => tlb.evict_address(va).to_string(),
            };
            format!(
                "{result} | {:?} {} {} {} {} {}",
                tlb.stats(),
                tlb.len(),
                psc.len(),
                psc.hits(),
                psc.misses(),
                psc.generation(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A TLB and a PSC reset after an arbitrary history replay any
    /// trace exactly like freshly built ones: same lookups, evictions,
    /// counters, lengths and PSC generation.
    #[test]
    fn reset_caches_replay_like_fresh_ones(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e5e7);
        let (history, trace) = (cache_trace(&mut rng, 300), cache_trace(&mut rng, 300));
        let config = TlbConfig::default();
        let (mut tlb, mut psc) = (Tlb::new(config), PagingStructureCache::new(PscConfig::default()));
        let _ = replay(&mut tlb, &mut psc, &history);
        tlb.reset();
        psc.reset();
        let reused = replay(&mut tlb, &mut psc, &trace);
        let fresh = replay(
            &mut Tlb::new(config),
            &mut PagingStructureCache::new(PscConfig::default()),
            &trace,
        );
        prop_assert_eq!(reused, fresh);
    }

    /// Shadow walk ≡ reference walker — verdict, access list and PSC
    /// evolution — under randomized map/unmap/protect/A-D/probe
    /// interleavings with hardware-style stale PSC state.
    #[test]
    fn shadow_index_is_bit_exact_with_walker(seed in 0u64..1 << 32) {
        drive(seed, 160);
    }

    /// The live-entry build prints exactly like the per-entry reference
    /// build after every step of a random structural history: 4 KiB,
    /// 2 MiB and 1 GiB leaves, non-present guard entries, unmaps that
    /// prune tables, in both halves and on the PML4 slots 255 and 256
    /// either side of the canonical hole.
    #[test]
    fn shadow_build_matches_the_per_entry_build(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb01d);
        let mut space = AddressSpace::new();
        shadow_reference::assert_build_matches_reference(&space, "empty space");
        for step in 0..48 {
            let site = if rng.gen_range(0u32..3) == 0 {
                HOLE_SITES[rng.gen_range(0..HOLE_SITES.len())]
            } else {
                SITES[rng.gen_range(0..SITES.len())]
            };
            let size = match rng.gen_range(0u32..4) {
                0 => PageSize::Size2M,
                1 => PageSize::Size1G,
                _ => PageSize::Size4K,
            };
            let va = VirtAddr::new_truncate(site).align_down(size.bytes());
            match rng.gen_range(0u32..4) {
                0 | 1 => {
                    let flags = if va.is_kernel_half() {
                        PteFlags::kernel_rx()
                    } else {
                        PteFlags::user_rw()
                    };
                    let _ = space.map(va, size, flags);
                }
                2 => {
                    let _ = space.unmap(va, size);
                }
                _ => {
                    let _ = space.protect(va, size, PteFlags::none_guard());
                }
            }
            shadow_reference::assert_build_matches_reference(
                &space,
                &format!("seed {seed}, step {step}"),
            );
        }
    }

    /// The point query agrees with the walker's view after arbitrary
    /// mutation histories.
    #[test]
    fn shadow_lookup_agrees_with_walker(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ab);
        let mut space = AddressSpace::new();
        for _ in 0..24 {
            let site = SITES[rng.gen_range(0..SITES.len())];
            let size = if rng.gen_range(0u32..3) == 0 {
                PageSize::Size2M
            } else {
                PageSize::Size4K
            };
            let va = VirtAddr::new_truncate(site).align_down(size.bytes());
            let _ = space.map(va, size, PteFlags::user_rw());
        }
        let shadow = ShadowIndex::build(&space);
        let walker = Walker::new();
        for _ in 0..64 {
            let site = SITES[rng.gen_range(0..SITES.len())];
            let va = VirtAddr::new_truncate(site.wrapping_add(rng.gen_range(0u64..0x20_0000)));
            let walk = walker.walk(&space, va);
            let hit = shadow.lookup(&space, va);
            prop_assert_eq!(hit.terminal_level, walk.terminal_level);
            prop_assert_eq!(hit.mapping, walk.mapping);
            if walk.is_mapped() {
                prop_assert_eq!(hit.perms, walk.perms);
            }
        }
    }

    /// Copy-on-write snapshot isolation: mutating a clone never changes
    /// the parent or a sibling, while unmutated structures stay
    /// physically shared.
    #[test]
    fn cow_snapshots_isolate_clones(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0e0);
        let mut parent = AddressSpace::new();
        for _ in 0..16 {
            let site = SITES[rng.gen_range(0..SITES.len())];
            let _ = parent.map(
                VirtAddr::new_truncate(site),
                PageSize::Size4K,
                PteFlags::user_rw(),
            );
        }
        let parent_regions = parent.iter_regions();

        let mut a = parent.clone();
        let b = parent.clone();
        prop_assert_eq!(a.shared_tables_with(&parent), parent.table_count());

        // Mutate clone A heavily: new mappings, unmaps, A/D churn.
        for _ in 0..32 {
            let site = SITES[rng.gen_range(0..SITES.len())];
            let va = VirtAddr::new_truncate(site.wrapping_add(rng.gen_range(0u64..8) * 0x1000));
            match rng.gen_range(0u32..3) {
                0 => {
                    let _ = a.map(va, PageSize::Size4K, PteFlags::user_rw());
                }
                1 => {
                    let _ = a.unmap(va.align_down(4096), PageSize::Size4K);
                }
                _ => {
                    let _ = a.mark_accessed(va, true);
                }
            }
        }

        // Parent and sibling B are untouched, bit for bit.
        prop_assert_eq!(parent.iter_regions(), parent_regions.clone());
        prop_assert_eq!(b.iter_regions(), parent_regions);
        // The walker agrees: B translates exactly like the parent.
        let walker = Walker::new();
        for &site in &SITES {
            let va = VirtAddr::new_truncate(site);
            let pw = walker.walk(&parent, va);
            let bw = walker.walk(&b, va);
            prop_assert_eq!(pw.mapping, bw.mapping);
            prop_assert_eq!(pw.terminal_level, bw.terminal_level);
        }
    }
}
