//! Model-based testing of `AddressSpace`: random operation sequences
//! are applied both to the real page tables and to a flat reference
//! model; every observable must agree after every step.

use std::collections::HashMap;

use proptest::prelude::*;

use avx_mmu::{AddressSpace, MmuError, PageSize, PteFlags, VirtAddr, Walker};

/// One reference entry: what we believe is mapped at a base address.
#[derive(Clone, Copy, Debug, PartialEq)]
struct RefEntry {
    size: PageSize,
    flags: PteFlags,
}

/// The reference model: base address → mapping, no overlap tracking
/// beyond exact bases (the generator only produces aligned, size-homed
/// addresses so overlaps can be checked structurally).
#[derive(Default)]
struct RefModel {
    entries: HashMap<u64, RefEntry>,
}

impl RefModel {
    /// The reference "would this overlap" check: any existing entry
    /// whose span intersects the candidate span.
    fn overlaps(&self, base: u64, size: PageSize) -> bool {
        let end = base + size.bytes();
        self.entries.iter().any(|(&b, e)| {
            let e_end = b + e.size.bytes();
            b < end && base < e_end
        })
    }

    fn lookup(&self, addr: u64) -> Option<(u64, RefEntry)> {
        self.entries
            .iter()
            .find(|(&b, e)| addr >= b && addr < b + e.size.bytes())
            .map(|(&b, &e)| (b, e))
    }
}

/// Operations the generator can issue.
#[derive(Clone, Debug)]
enum Op {
    Map {
        slot: u64,
        size: PageSize,
        user: bool,
        writable: bool,
    },
    Unmap {
        slot: u64,
        size: PageSize,
    },
    Protect {
        slot: u64,
        size: PageSize,
        writable: bool,
        present: bool,
    },
    Lookup {
        slot: u64,
        size: PageSize,
    },
}

/// Slots are homed per size class so alignment is always valid, and
/// classes are interleaved within one PML4 region so huge/small
/// conflicts actually occur.
fn addr_of(slot: u64, size: PageSize) -> u64 {
    match size {
        // 4 KiB pages live in the low half of each 1 GiB window.
        PageSize::Size4K => 0x6000_0000_0000 + (slot % 64) * 0x1000,
        // 2 MiB pages overlap the same window.
        PageSize::Size2M => 0x6000_0000_0000 + (slot % 8) * 0x20_0000,
        // 1 GiB pages cover whole windows.
        PageSize::Size1G => 0x6000_0000_0000 + (slot % 2) * 0x4000_0000,
    }
}

fn arb_size() -> impl Strategy<Value = PageSize> {
    prop_oneof![
        4 => Just(PageSize::Size4K),
        2 => Just(PageSize::Size2M),
        1 => Just(PageSize::Size1G),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u64>(), arb_size(), any::<bool>(), any::<bool>()).prop_map(
            |(slot, size, user, writable)| Op::Map {
                slot,
                size,
                user,
                writable
            }
        ),
        (any::<u64>(), arb_size()).prop_map(|(slot, size)| Op::Unmap { slot, size }),
        (any::<u64>(), arb_size(), any::<bool>(), any::<bool>()).prop_map(
            |(slot, size, writable, present)| Op::Protect {
                slot,
                size,
                writable,
                present
            }
        ),
        (any::<u64>(), arb_size()).prop_map(|(slot, size)| Op::Lookup { slot, size }),
    ]
}

/// Leaf flags; without `present` the leaf is a PROT_NONE guard.
fn flags_for(user: bool, writable: bool, present: bool) -> PteFlags {
    let mut f = PteFlags::empty();
    if present {
        f |= PteFlags::PRESENT;
    }
    if user {
        f |= PteFlags::USER;
    }
    if writable {
        f |= PteFlags::WRITABLE;
    }
    f
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn address_space_agrees_with_reference_model(ops in prop::collection::vec(arb_op(), 1..120)) {
        let mut space = AddressSpace::new();
        let mut model = RefModel::default();
        let walker = Walker::new();

        for op in ops {
            match op {
                Op::Map { slot, size, user, writable } => {
                    let base = addr_of(slot, size);
                    let va = VirtAddr::new_truncate(base);
                    let result = space.map(va, size, flags_for(user, writable, true));
                    if model.overlaps(base, size) {
                        prop_assert!(
                            matches!(
                                result,
                                Err(MmuError::AlreadyMapped { .. })
                                    | Err(MmuError::HugePageConflict { .. })
                            ),
                            "overlap must be rejected at {base:#x} {size}"
                        );
                    } else {
                        prop_assert!(result.is_ok(), "free slot must map: {result:?}");
                        model.entries.insert(base, RefEntry {
                            size,
                            flags: flags_for(user, writable, true),
                        });
                    }
                }
                Op::Unmap { slot, size } => {
                    let base = addr_of(slot, size);
                    let va = VirtAddr::new_truncate(base);
                    let result = space.unmap(va, size);
                    match model.entries.get(&base).copied() {
                        Some(e) if e.size == size => {
                            prop_assert!(result.is_ok());
                            model.entries.remove(&base);
                        }
                        Some(e) => {
                            prop_assert_eq!(
                                result,
                                Err(MmuError::SizeMismatch {
                                    addr: base,
                                    found: e.size,
                                    expected: size
                                })
                            );
                        }
                        None => {
                            prop_assert!(result.is_err(), "unmapping nothing must fail");
                        }
                    }
                }
                Op::Protect { slot, size, writable, present } => {
                    let base = addr_of(slot, size);
                    let va = VirtAddr::new_truncate(base);
                    let new_flags = flags_for(true, writable, present);
                    let result = space.protect(va, size, new_flags);
                    match model.entries.get_mut(&base) {
                        Some(e) if e.size == size => {
                            prop_assert!(result.is_ok());
                            e.flags = new_flags;
                        }
                        _ => prop_assert!(result.is_err()),
                    }
                }
                Op::Lookup { slot, size } => {
                    // Check agreement at the base and at an interior point.
                    let base = addr_of(slot, size);
                    for probe in [base, base + size.bytes() / 2] {
                        let va = VirtAddr::new_truncate(probe);
                        let walk = walker.walk(&space, va);
                        match model.lookup(probe).filter(|(_, e)| e.flags.is_present()) {
                            Some((mbase, e)) => {
                                prop_assert!(walk.is_mapped(), "model has {mbase:#x}");
                                let mapping = walk.mapping.unwrap();
                                prop_assert_eq!(mapping.start.as_u64(), mbase);
                                prop_assert_eq!(mapping.size, e.size);
                                prop_assert_eq!(
                                    walk.perms.writable,
                                    e.flags.is_writable()
                                );
                                prop_assert_eq!(walk.perms.user, e.flags.is_user());
                            }
                            None => prop_assert!(
                                !walk.is_mapped(),
                                "model empty at {probe:#x} but walk found a page"
                            ),
                        }
                    }
                }
            }

            // Global invariant: live mapping count agrees, guards
            // included.
            prop_assert_eq!(space.mapped_pages(), model.entries.len());
        }

        // Final invariant: region enumeration equals the model's
        // present entries exactly.
        let regions = space.iter_regions();
        let present = model.entries.values().filter(|e| e.flags.is_present()).count();
        prop_assert_eq!(regions.len(), present);
        for r in regions {
            let e = model.entries.get(&r.start.as_u64()).copied();
            prop_assert!(e.is_some_and(|e| e.flags.is_present()), "extra region at {}", r.start);
            prop_assert_eq!(e.unwrap().size, r.size);
        }
    }
}
