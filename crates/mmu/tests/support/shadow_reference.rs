//! A verbatim copy of the per-entry `ShadowIndex::build` that reads all
//! 512 entries of every table, kept as the oracle of the live-entry
//! build. Its types mirror the private ones of `avx_mmu::shadow` name
//! for name and field for field, so the derived `{:?}` output of the
//! two indexes is equal exactly when their intervals are.
//! `crates/mmu/tests/shadow_props.rs` and the OS-fixture suite of
//! `avx-os` (`crates/os/tests/fast_path_fixtures.rs`) include this
//! file.

use avx_mmu::{AddressSpace, FrameId, Level, VirtAddr, ENTRIES_PER_TABLE};

#[allow(dead_code)] // read through the derived `Debug` only
#[derive(Clone, Copy, Debug)]
struct ShadowInterval {
    start: u64,
    last: u64,
    tables: [FrameId; 4],
    depth: u8,
}

#[allow(dead_code)] // read through the derived `Debug` only
#[derive(Debug)]
struct ShadowIndex {
    shape_epoch: u64,
    intervals: Vec<ShadowInterval>,
}

/// Asserts that `ShadowIndex::build(space)` prints exactly like the
/// per-entry reference build of the same space.
pub fn assert_build_matches_reference(space: &AddressSpace, ctx: &str) {
    let mut intervals = Vec::with_capacity(64);
    let mut chain = [FrameId::default(); 4];
    build_table(space, space.root(), 0, 0, &mut chain, &mut intervals);
    let reference = ShadowIndex {
        shape_epoch: space.shape_epoch(),
        intervals,
    };
    assert_eq!(
        format!("{:?}", avx_mmu::ShadowIndex::build(space)),
        format!("{reference:?}"),
        "{ctx}: shadow index vs the per-entry build"
    );
}

const fn level_shift(level: Level) -> u32 {
    match level {
        Level::Pml4 => 39,
        Level::Pdpt => 30,
        Level::Pd => 21,
        Level::Pt => 12,
    }
}

/// Emits intervals for every slot of `table_id`, recursing into present
/// intermediates. Consecutive slots that terminate the walk at this
/// level — zero, guard, or leaf alike — merge into one interval: the
/// walk shape is identical across them and values are read live.
fn build_table(
    space: &AddressSpace,
    table_id: FrameId,
    depth_idx: usize,
    va_prefix: u64,
    chain: &mut [FrameId; 4],
    out: &mut Vec<ShadowInterval>,
) {
    let level = Level::WALK_ORDER[depth_idx];
    let shift = level_shift(level);
    let span = level.entry_span();
    chain[depth_idx] = table_id;

    let mut run: Option<(u64, u64)> = None; // (start, last) of a terminal run
    for idx in 0..ENTRIES_PER_TABLE {
        // Canonicalize: at the PML4 level bit 47 sign-extends.
        let va = VirtAddr::new_truncate(va_prefix | (idx as u64) << shift).as_u64();
        let last = va + (span - 1);
        let entry = space.table(table_id).entry(idx);

        let descends = entry.is_present()
            && match level {
                Level::Pt => false,
                Level::Pml4 => true,
                _ => !entry.is_huge_leaf(),
            };

        if !descends {
            run = match run {
                Some((start, prev_last)) if prev_last.wrapping_add(1) == va => Some((start, last)),
                Some(done) => {
                    flush_run(done, depth_idx, chain, out);
                    Some((va, last))
                }
                None => Some((va, last)),
            };
            continue;
        }

        if let Some(done) = run.take() {
            flush_run(done, depth_idx, chain, out);
        }
        let next =
            FrameId::new(u32::try_from(entry.addr().frame_number()).expect("table frame id"));
        build_table(space, next, depth_idx + 1, va, chain, out);
        chain[depth_idx] = table_id;
    }
    if let Some(done) = run {
        flush_run(done, depth_idx, chain, out);
    }
}

fn flush_run(
    (start, last): (u64, u64),
    depth_idx: usize,
    chain: &[FrameId; 4],
    out: &mut Vec<ShadowInterval>,
) {
    out.push(ShadowInterval {
        start,
        last,
        tables: *chain,
        depth: depth_idx as u8 + 1,
    });
}
