//! Windows 10 kernel memory-layout simulator (§IV-G).
//!
//! The kernel and drivers live between `0xfffff80000000000` and
//! `0xfffff88000000000` with 2 MiB granularity — 262144 possible offsets
//! (18 bits of entropy). The kernel image occupies five consecutive
//! 2 MiB pages; its entry point is additionally randomized at 4 KiB
//! granularity inside the image (the remaining 9 bits the paper breaks
//! with the TLB attack). With KVAS (the Windows Meltdown mitigation),
//! only the shadow entry region — three consecutive 4 KiB pages at
//! offset `0x298000` from the base (Windows 10 1709) — stays visible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use avx_mmu::{AddressSpace, PageSize, PteFlags, SharedShadow, VirtAddr};
use avx_uarch::{CpuProfile, Machine};

/// Start of the Windows kernel randomization region.
pub const WIN_KERNEL_REGION_START: u64 = 0xffff_f800_0000_0000;
/// End (exclusive) of the region.
pub const WIN_KERNEL_REGION_END: u64 = 0xffff_f880_0000_0000;
/// Randomization granularity.
pub const WIN_KASLR_ALIGN: u64 = 0x20_0000;
/// Number of candidate offsets (262144 → 18 bits of entropy).
pub const WIN_KERNEL_SLOTS: u64 =
    (WIN_KERNEL_REGION_END - WIN_KERNEL_REGION_START) / WIN_KASLR_ALIGN;
/// 2 MiB pages occupied by the kernel image.
pub const WIN_KERNEL_IMAGE_SLOTS: u64 = 5;
/// `KiSystemCall64Shadow` offset from the kernel base (Win10 1709).
pub const KVAS_SHADOW_OFFSET: u64 = 0x29_8000;
/// Size of the KVAS shadow region: three consecutive 4 KiB pages.
pub const KVAS_SHADOW_PAGES: u64 = 3;

/// Windows version, which fixes the KVAS shadow offset semantics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WindowsVersion {
    /// Windows 10 1709 (KVAS testbed of §IV-G).
    V1709,
    /// Windows 10 21H2 (Azure testbed of §IV-H).
    V21H2,
}

/// Build options for the Windows model.
#[derive(Clone, Debug)]
pub struct WindowsConfig {
    /// OS version.
    pub version: WindowsVersion,
    /// Kernel Virtual Address Shadow (Meltdown mitigation): hide the
    /// kernel, expose only the shadow entry pages.
    pub kvas: bool,
    /// Pin the 2 MiB slot (tests); random otherwise.
    pub fixed_slot: Option<u64>,
    /// Layout seed.
    pub seed: u64,
}

impl Default for WindowsConfig {
    fn default() -> Self {
        Self {
            version: WindowsVersion::V21H2,
            kvas: false,
            fixed_slot: None,
            seed: 0,
        }
    }
}

/// Ground truth of the built Windows machine.
#[derive(Clone, Copy, Debug)]
pub struct WindowsTruth {
    /// Base of the five-slot kernel image region.
    pub kernel_base: VirtAddr,
    /// 2 MiB slot index of the base.
    pub slot: u64,
    /// Kernel entry point (4 KiB-randomized inside the image).
    pub entry: VirtAddr,
    /// First KVAS shadow page, when KVAS is enabled.
    pub shadow: Option<VirtAddr>,
    /// Attacker scratch page (user rw).
    pub user_scratch: VirtAddr,
}

/// A built Windows machine model.
#[derive(Clone, Debug)]
pub struct WindowsSystem {
    space: AddressSpace,
    /// The shadow index every snapshot machine shares, built by the
    /// first walk that needs it.
    shadow_index: Arc<SharedShadow>,
    truth: WindowsTruth,
    config: WindowsConfig,
}

impl WindowsSystem {
    /// Builds the attacker-visible address space.
    ///
    /// # Panics
    ///
    /// Panics if `fixed_slot` exceeds the randomization range.
    #[must_use]
    pub fn build(config: WindowsConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5749_4e4b_4153_4c52); // "WINKASLR"
        let max_slot = WIN_KERNEL_SLOTS - WIN_KERNEL_IMAGE_SLOTS;
        let slot = match config.fixed_slot {
            Some(s) => {
                assert!(s <= max_slot, "fixed slot out of range");
                s
            }
            None => rng.gen_range(0..=max_slot),
        };
        let kernel_base = VirtAddr::new_truncate(WIN_KERNEL_REGION_START + slot * WIN_KASLR_ALIGN);
        let entry = kernel_base.wrapping_add(rng.gen_range(0..WIN_KASLR_ALIGN / 0x1000) * 0x1000);

        let mut space = AddressSpace::new();
        let shadow = if config.kvas {
            let shadow_base = kernel_base.wrapping_add(KVAS_SHADOW_OFFSET);
            space
                .map_range(
                    shadow_base,
                    KVAS_SHADOW_PAGES,
                    PageSize::Size4K,
                    PteFlags::kernel_rx(),
                )
                .expect("KVAS shadow mapping");
            Some(shadow_base)
        } else {
            for s in 0..WIN_KERNEL_IMAGE_SLOTS {
                let flags = if s < 2 {
                    PteFlags::kernel_rx()
                } else {
                    PteFlags::kernel_rw()
                };
                let slot_base = kernel_base.wrapping_add(s * WIN_KASLR_ALIGN);
                if s == 0 {
                    // The image head (PE headers + entry sections) is
                    // 4 KiB-mapped, like the section boundaries of real
                    // ntoskrnl images. This is what lets the TLB attack
                    // resolve the 4 KiB-randomized entry point — the
                    // "remaining 9 bits of entropy" of §IV-G.
                    space
                        .map_range(slot_base, 512, PageSize::Size4K, flags)
                        .expect("kernel head 4 KiB mapping");
                } else {
                    space
                        .map(slot_base, PageSize::Size2M, flags)
                        .expect("kernel image mapping");
                }
            }
            None
        };

        // Attacker user pages.
        let user_scratch =
            VirtAddr::new_truncate(0x0000_7ff6_0000_0000 + (rng.gen_range(0u64..1 << 24) << 12));
        space
            .map_range(user_scratch, 4, PageSize::Size4K, PteFlags::user_rw())
            .expect("user scratch");

        Self {
            shadow_index: Arc::new(SharedShadow::new(&space)),
            space,
            truth: WindowsTruth {
                kernel_base,
                slot,
                entry,
                shadow,
                user_scratch,
            },
            config,
        }
    }

    /// The built address space.
    #[must_use]
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Ground truth for scoring.
    #[must_use]
    pub fn truth(&self) -> &WindowsTruth {
        &self.truth
    }

    /// The configuration used.
    #[must_use]
    pub fn config(&self) -> &WindowsConfig {
        &self.config
    }

    /// Consumes into a [`Machine`] plus ground truth.
    #[must_use]
    pub fn into_machine(self, profile: CpuProfile, seed: u64) -> (Machine, WindowsTruth) {
        (Machine::new(profile, self.space, seed), self.truth)
    }

    /// Builds a [`Machine`] from a copy-on-write snapshot of this
    /// system, leaving the system reusable across trials: a new machine
    /// through [`WindowsSystem::snapshot_into`].
    #[must_use]
    pub fn machine(&self, profile: CpuProfile, seed: u64) -> (Machine, WindowsTruth) {
        let mut machine = Machine::new(profile.clone(), AddressSpace::new(), seed);
        let truth = *self.snapshot_into(&mut machine, &profile, seed);
        (machine, truth)
    }

    /// Resets `machine` onto a copy-on-write snapshot of this system
    /// (see [`crate::linux::LinuxSystem::snapshot_into`]) and returns
    /// the ground truth.
    pub fn snapshot_into(
        &self,
        machine: &mut Machine,
        profile: &CpuProfile,
        seed: u64,
    ) -> &WindowsTruth {
        machine.reset(profile, &self.space, seed);
        machine.share_shadow(&self.shadow_index);
        &self.truth
    }
}

/// Simulates one victim syscall: the kernel executes its entry code,
/// caching the entry page's translation in the shared TLB. The driver
/// for the §IV-G entry-point refinement.
pub fn perform_syscall(machine: &mut Machine, truth: &WindowsTruth) {
    machine.touch_as_kernel(truth.entry.align_down(4096));
}

#[cfg(test)]
mod tests {
    use super::*;
    use avx_mmu::Walker;

    #[test]
    fn entropy_constants_match_paper() {
        assert_eq!(WIN_KERNEL_SLOTS, 262_144, "18 bits of entropy");
        assert_eq!(WIN_KERNEL_IMAGE_SLOTS, 5);
        assert_eq!(KVAS_SHADOW_OFFSET, 0x29_8000);
        assert_eq!(KVAS_SHADOW_PAGES, 3);
    }

    #[test]
    fn kernel_occupies_five_consecutive_slots() {
        let sys = WindowsSystem::build(WindowsConfig {
            fixed_slot: Some(1000),
            ..WindowsConfig::default()
        });
        let t = sys.truth();
        let walker = Walker::new();
        for s in 0..5 {
            let va = t.kernel_base.wrapping_add(s * WIN_KASLR_ALIGN);
            assert!(walker.walk(sys.space(), va).is_mapped(), "slot {s}");
        }
        let before = VirtAddr::new_truncate(t.kernel_base.as_u64() - WIN_KASLR_ALIGN);
        let after = t.kernel_base.wrapping_add(5 * WIN_KASLR_ALIGN);
        assert!(!walker.walk(sys.space(), before).is_mapped());
        assert!(!walker.walk(sys.space(), after).is_mapped());
    }

    #[test]
    fn entry_is_4k_randomized_inside_image() {
        let mut entries = std::collections::HashSet::new();
        for seed in 0..12 {
            let sys = WindowsSystem::build(WindowsConfig {
                fixed_slot: Some(7),
                seed,
                ..WindowsConfig::default()
            });
            let t = sys.truth();
            let off = t.entry.as_u64() - t.kernel_base.as_u64();
            assert_eq!(off % 0x1000, 0);
            assert!(off < WIN_KASLR_ALIGN);
            entries.insert(off);
        }
        assert!(entries.len() > 6, "entry offset varies across seeds");
    }

    #[test]
    fn kvas_hides_kernel_but_maps_three_shadow_pages() {
        let sys = WindowsSystem::build(WindowsConfig {
            version: WindowsVersion::V1709,
            kvas: true,
            fixed_slot: Some(5000),
            seed: 1,
        });
        let t = sys.truth();
        let walker = Walker::new();
        assert!(!walker.walk(sys.space(), t.kernel_base).is_mapped());
        let shadow = t.shadow.expect("shadow mapped");
        assert_eq!(shadow.as_u64(), t.kernel_base.as_u64() + KVAS_SHADOW_OFFSET);
        for p in 0..3 {
            assert!(walker
                .walk(sys.space(), shadow.wrapping_add(p * 4096))
                .is_mapped());
        }
        assert!(!walker
            .walk(sys.space(), shadow.wrapping_add(3 * 4096))
            .is_mapped());
    }

    #[test]
    fn random_slot_in_range_and_varies() {
        let mut slots = std::collections::HashSet::new();
        for seed in 0..10 {
            let sys = WindowsSystem::build(WindowsConfig {
                seed,
                ..WindowsConfig::default()
            });
            let t = sys.truth();
            assert!(t.slot <= WIN_KERNEL_SLOTS - 5);
            assert!(t.kernel_base.as_u64() >= WIN_KERNEL_REGION_START);
            assert!(t.kernel_base.as_u64() < WIN_KERNEL_REGION_END);
            slots.insert(t.slot);
        }
        assert!(slots.len() >= 8);
    }

    #[test]
    fn user_scratch_is_writable_user_memory() {
        let sys = WindowsSystem::build(WindowsConfig::default());
        let m = sys.space().lookup(sys.truth().user_scratch).unwrap();
        assert!(m.flags.is_user());
        assert!(m.flags.is_writable());
    }

    #[test]
    #[should_panic(expected = "fixed slot out of range")]
    fn oversized_slot_panics() {
        let _ = WindowsSystem::build(WindowsConfig {
            fixed_slot: Some(WIN_KERNEL_SLOTS),
            ..WindowsConfig::default()
        });
    }
}
