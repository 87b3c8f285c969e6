//! Linux memory-layout simulator.
//!
//! Builds the attacker-visible address space of an x86-64 Linux machine:
//! KASLR-randomized kernel image (§II-B: 2 MiB-aligned slide within
//! `0xffffffff80000000–0xffffffffc0000000`, 512 slots), the module area
//! (`0xffffffffc0000000–0xffffffffc4000000`, 4 KiB aligned, guard-page
//! separated), optional KPTI (only the trampoline pages remain visible),
//! optional FLARE dummy mappings, optional FGKASLR function shuffling,
//! and the attacker's own user-space pages.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use avx_mmu::{AddressSpace, MmuError, PageSize, PteFlags, SharedShadow, VirtAddr};
use avx_uarch::{CpuProfile, Machine};

use crate::modules::{default_module_set, ModuleSpec};

/// Start of the kernel-text randomization range.
pub const KERNEL_TEXT_REGION_START: u64 = 0xffff_ffff_8000_0000;
/// End (exclusive) of the kernel-text randomization range.
pub const KERNEL_TEXT_REGION_END: u64 = 0xffff_ffff_c000_0000;
/// KASLR slide granularity.
pub const KASLR_ALIGN: u64 = 0x20_0000;
/// Number of possible kernel base slots (9 bits of entropy).
pub const KERNEL_SLOTS: u64 = (KERNEL_TEXT_REGION_END - KERNEL_TEXT_REGION_START) / KASLR_ALIGN;
/// Start of the kernel-module area.
pub const MODULE_REGION_START: u64 = 0xffff_ffff_c000_0000;
/// End (exclusive) of the kernel-module area.
pub const MODULE_REGION_END: u64 = 0xffff_ffff_c400_0000;
/// Module placement granularity.
pub const MODULE_ALIGN: u64 = 0x1000;
/// Number of probeable module-area slots (16384).
pub const MODULE_SLOTS: u64 = (MODULE_REGION_END - MODULE_REGION_START) / MODULE_ALIGN;
/// Default KPTI trampoline offset from the kernel base (Ubuntu kernels;
/// §IV-D observed `0xc00000`).
pub const KPTI_TRAMPOLINE_OFFSET: u64 = 0xc0_0000;

/// A kernel symbol with its offset from the kernel base.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KernelFunction {
    /// Symbol name.
    pub name: &'static str,
    /// Offset from the kernel text base.
    pub offset: u64,
}

/// Nominal (FGKASLR-off) function offsets used by the countermeasure
/// study; values are representative, not copied from a real build.
pub const DEFAULT_FUNCTIONS: [KernelFunction; 8] = [
    KernelFunction {
        name: "do_syscall_64",
        offset: 0x00_2340,
    },
    KernelFunction {
        name: "__x64_sys_read",
        offset: 0x0e_1200,
    },
    KernelFunction {
        name: "__x64_sys_write",
        offset: 0x0e_3480,
    },
    KernelFunction {
        name: "commit_creds",
        offset: 0x10_5a00,
    },
    KernelFunction {
        name: "prepare_kernel_cred",
        offset: 0x10_7c40,
    },
    KernelFunction {
        name: "bprm_execve",
        offset: 0x15_9e80,
    },
    KernelFunction {
        name: "ksys_mmap_pgoff",
        offset: 0x1b_0d00,
    },
    KernelFunction {
        name: "entry_SYSCALL_64",
        offset: KPTI_TRAMPOLINE_OFFSET,
    },
];

/// Build-time options for a simulated Linux machine.
#[derive(Clone, Debug)]
pub struct LinuxConfig {
    /// Randomize the kernel base (off = `nokaslr`).
    pub kaslr: bool,
    /// Pin the slide to a specific slot (e.g. 8 → base
    /// `0xffffffff81000000`, the §IV-D setup). Overrides `kaslr`.
    pub fixed_slide: Option<u64>,
    /// Kernel image size in 2 MiB slots.
    pub kernel_slots: u64,
    /// Fraction of leading slots mapped executable (text); the rest are
    /// data/rodata (strict W^X, \[19\]).
    pub text_slots: u64,
    /// Slots (relative to base) backed by 4 KiB pages instead of one
    /// 2 MiB page — the splits the AMD page-table attack detects (§IV-B:
    /// "Linux's kernel-mapped area contains 4-KiB pages"). Real kernels
    /// split at section-permission boundaries (end of text, rodata,
    /// data), i.e. in the image interior, not at the base.
    pub split_slots: Vec<u64>,
    /// Kernel Page-Table Isolation: hide the kernel, expose trampoline.
    pub kpti: bool,
    /// Trampoline offset from base when KPTI is on.
    pub trampoline_offset: u64,
    /// Modules to load.
    pub modules: Vec<ModuleSpec>,
    /// Guard pages between consecutive modules.
    pub module_gap_pages: u64,
    /// Randomize module-area start within this many leading bytes.
    pub module_area_window: u64,
    /// FLARE defense: dummy-map everything unmapped in kernel ranges.
    pub flare: bool,
    /// FGKASLR: shuffle function offsets within the text region.
    pub fgkaslr: bool,
    /// Layout RNG seed (kernel base, module order/placement, user ASLR).
    pub seed: u64,
}

impl Default for LinuxConfig {
    /// Ubuntu-like defaults: KASLR on, KPTI off (Meltdown-resistant CPU),
    /// 125 modules, no defense extensions.
    fn default() -> Self {
        Self {
            kaslr: true,
            fixed_slide: None,
            kernel_slots: 20,
            text_slots: 8,
            split_slots: vec![8, 9, 10, 18, 19],
            kpti: false,
            trampoline_offset: KPTI_TRAMPOLINE_OFFSET,
            modules: default_module_set(),
            module_gap_pages: 1,
            module_area_window: 8 * 1024 * 1024,
            flare: false,
            fgkaslr: false,
            seed: 0,
        }
    }
}

impl LinuxConfig {
    /// Shorthand: default config with a given seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// A placed kernel module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadedModule {
    /// Name and nominal size.
    pub spec: ModuleSpec,
    /// First mapped address.
    pub base: VirtAddr,
}

impl LoadedModule {
    /// One past the last mapped byte.
    #[must_use]
    pub fn end(&self) -> VirtAddr {
        self.base.wrapping_add(self.spec.size)
    }
}

/// The attacker's own user-space anchors.
#[derive(Clone, Copy, Debug)]
pub struct UserContext {
    /// Attacker code (r-x).
    pub text: VirtAddr,
    /// General-purpose writable scratch (rw-, dirtied).
    pub scratch: VirtAddr,
    /// Calibration page: writable, never written, D = 0 (the §IV-B
    /// threshold source).
    pub calibration: VirtAddr,
}

/// Ground truth about the built machine — the simulation's stand-in for
/// `/proc/kallsyms`, `/proc/modules` and the boot log, used to score
/// attack accuracy.
#[derive(Clone, Debug)]
pub struct LinuxTruth {
    /// Randomized kernel text base.
    pub kernel_base: VirtAddr,
    /// Slide in 2 MiB slots from the region start.
    pub slide_slots: u64,
    /// Kernel image size in slots.
    pub kernel_slots: u64,
    /// Loaded modules in ascending address order.
    pub modules: Vec<LoadedModule>,
    /// First trampoline page, when KPTI is enabled.
    pub trampoline: Option<VirtAddr>,
    /// Bases of the 4 KiB-split slots (AMD page-table-attack anchors).
    pub split_slot_bases: Vec<VirtAddr>,
    /// Kernel functions with their (possibly FGKASLR-shuffled) offsets.
    pub functions: Vec<KernelFunction>,
    /// Whether FLARE dummies were installed.
    pub flare: bool,
    /// The attacker's user pages.
    pub user: UserContext,
}

impl LinuxTruth {
    /// Looks up a module by name.
    #[must_use]
    pub fn module(&self, name: &str) -> Option<&LoadedModule> {
        self.modules.iter().find(|m| m.spec.name == name)
    }

    /// The virtual address of a kernel function (base + offset).
    #[must_use]
    pub fn function_addr(&self, name: &str) -> Option<VirtAddr> {
        self.functions
            .iter()
            .find(|f| f.name == name)
            .map(|f| self.kernel_base.wrapping_add(f.offset))
    }
}

/// A fully built Linux machine model: address space + ground truth.
#[derive(Clone, Debug)]
pub struct LinuxSystem {
    space: AddressSpace,
    /// The shadow index every snapshot machine shares, built by the
    /// first walk that needs it (never by [`LinuxSystem::build`]).
    shadow_index: Arc<SharedShadow>,
    truth: LinuxTruth,
    config: LinuxConfig,
}

impl LinuxSystem {
    /// Builds the attacker-visible address space for `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (e.g. the
    /// image does not fit the randomization range) — configs are
    /// programmer input, not runtime data.
    #[must_use]
    pub fn build(config: LinuxConfig) -> Self {
        assert!(
            config.kernel_slots <= KERNEL_SLOTS,
            "kernel image larger than the randomization range"
        );
        assert!(
            config.text_slots <= config.kernel_slots,
            "text cannot exceed the image"
        );
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x4b41_534c_525f_4c58); // "KASLR_LX"
        let mut space = AddressSpace::new();

        let max_slide = KERNEL_SLOTS - config.kernel_slots;
        let slide_slots = match config.fixed_slide {
            Some(s) => {
                assert!(s <= max_slide, "fixed slide out of range");
                s
            }
            None if config.kaslr => rng.gen_range(0..=max_slide),
            None => 0,
        };
        let kernel_base =
            VirtAddr::new_truncate(KERNEL_TEXT_REGION_START + slide_slots * KASLR_ALIGN);

        // --- kernel image -------------------------------------------------
        let mut split_slot_bases = Vec::new();
        if !config.kpti {
            for slot in 0..config.kernel_slots {
                let base = kernel_base.wrapping_add(slot * KASLR_ALIGN);
                let flags = if slot < config.text_slots {
                    PteFlags::kernel_rx()
                } else if slot < config.text_slots + 2 {
                    PteFlags::kernel_ro()
                } else {
                    PteFlags::kernel_rw()
                };
                let split = config.split_slots.contains(&slot)
                    // FGKASLR forces section-granular (4 KiB) text
                    // mappings, which the TLB-template bypass relies on.
                    || (config.fgkaslr && slot < config.text_slots);
                if split {
                    // Split into 512 × 4 KiB pages (page-permission
                    // boundaries force PT-level mappings here).
                    space
                        .map_range(base, 512, PageSize::Size4K, flags)
                        .expect("kernel 4 KiB split mapping");
                    if config.split_slots.contains(&slot) {
                        split_slot_bases.push(base);
                    }
                } else {
                    space
                        .map(base, PageSize::Size2M, flags)
                        .expect("kernel 2 MiB mapping");
                }
            }
        }

        // --- KPTI trampoline ----------------------------------------------
        let trampoline = if config.kpti {
            let tramp = kernel_base.wrapping_add(config.trampoline_offset);
            space
                .map_range(tramp, 2, PageSize::Size4K, PteFlags::kernel_rx())
                .expect("KPTI trampoline mapping");
            Some(tramp)
        } else {
            None
        };

        // --- modules --------------------------------------------------------
        let mut modules = Vec::new();
        if !config.kpti {
            let mut order = config.modules.clone();
            order.shuffle(&mut rng);
            let window_pages = (config.module_area_window / MODULE_ALIGN).max(1);
            let mut cursor = MODULE_REGION_START + rng.gen_range(0..window_pages) * MODULE_ALIGN;
            for spec in order {
                let base = VirtAddr::new_truncate(cursor);
                assert!(
                    cursor + spec.size <= MODULE_REGION_END,
                    "module area overflow"
                );
                space
                    .map_range(base, spec.pages(), PageSize::Size4K, PteFlags::kernel_rx())
                    .expect("module mapping");
                modules.push(LoadedModule { spec, base });
                cursor += spec.size + config.module_gap_pages * MODULE_ALIGN;
            }
            modules.sort_by_key(|m| m.base);
        }

        // --- FLARE dummy mappings -------------------------------------------
        if config.flare {
            install_flare_dummies(&mut space, kernel_base, &config);
        }

        // --- FGKASLR ---------------------------------------------------------
        let mut functions = DEFAULT_FUNCTIONS.to_vec();
        if config.fgkaslr {
            let text_bytes = config.text_slots * KASLR_ALIGN;
            for f in &mut functions {
                if f.name == "entry_SYSCALL_64" {
                    continue; // entry code is not reordered by FGKASLR
                }
                f.offset = rng.gen_range(0..text_bytes / 0x1000) * 0x1000 + (f.offset & 0xfff);
            }
        }

        // --- attacker user pages ----------------------------------------------
        let user = map_user_context(&mut space, &mut rng).expect("user mappings");

        let truth = LinuxTruth {
            kernel_base,
            slide_slots,
            kernel_slots: config.kernel_slots,
            modules,
            trampoline,
            split_slot_bases,
            functions,
            flare: config.flare,
            user,
        };
        Self {
            shadow_index: Arc::new(SharedShadow::new(&space)),
            space,
            truth,
            config,
        }
    }

    /// The built address space (attacker's CR3 view).
    #[must_use]
    pub fn space(&self) -> &AddressSpace {
        &self.space
    }

    /// Ground truth for scoring.
    #[must_use]
    pub fn truth(&self) -> &LinuxTruth {
        &self.truth
    }

    /// The configuration the system was built from.
    #[must_use]
    pub fn config(&self) -> &LinuxConfig {
        &self.config
    }

    /// Consumes the system into a [`Machine`] plus the ground truth.
    #[must_use]
    pub fn into_machine(self, profile: CpuProfile, seed: u64) -> (Machine, LinuxTruth) {
        (Machine::new(profile, self.space, seed), self.truth)
    }

    /// Builds a [`Machine`] from a copy-on-write snapshot of this
    /// system, leaving the system reusable: a new machine through
    /// [`LinuxSystem::snapshot_into`], plus a copy of the ground truth.
    #[must_use]
    pub fn machine(&self, profile: CpuProfile, seed: u64) -> (Machine, LinuxTruth) {
        let mut machine = Machine::new(profile.clone(), AddressSpace::new(), seed);
        let truth = self.snapshot_into(&mut machine, &profile, seed).clone();
        (machine, truth)
    }

    /// Resets `machine` ([`Machine::reset`]) onto a copy-on-write
    /// snapshot of this system and returns the ground truth, borrowed.
    /// The paging-structure arena is shared until the machine first
    /// writes to it (A/D-bit settling), and so is the system's shadow
    /// index until the machine's space changes shape, so campaign
    /// engines construct one layout per seed and hand every (CPU,
    /// noise) trial its own isolated O(1) copy on a reused machine.
    pub fn snapshot_into(
        &self,
        machine: &mut Machine,
        profile: &CpuProfile,
        seed: u64,
    ) -> &LinuxTruth {
        machine.reset(profile, &self.space, seed);
        machine.share_shadow(&self.shadow_index);
        &self.truth
    }
}

/// FLARE ([5]): map dummy pages over every unmapped kernel-text slot and
/// module-area page so the page-table attack sees a uniform "mapped"
/// picture. Dummy translations are never used by the kernel, so they
/// stay TLB-cold — which is exactly how the paper bypasses the defense.
fn install_flare_dummies(space: &mut AddressSpace, kernel_base: VirtAddr, config: &LinuxConfig) {
    for slot in 0..KERNEL_SLOTS {
        let base = VirtAddr::new_truncate(KERNEL_TEXT_REGION_START + slot * KASLR_ALIGN);
        let inside_image = base >= kernel_base
            && base < kernel_base.wrapping_add(config.kernel_slots * KASLR_ALIGN);
        if !inside_image {
            space
                .map(base, PageSize::Size2M, PteFlags::kernel_ro())
                .expect("FLARE kernel dummy");
        }
    }
    let mut page = MODULE_REGION_START;
    while page < MODULE_REGION_END {
        let va = VirtAddr::new_truncate(page);
        if space.lookup(va).is_none() {
            space
                .map(va, PageSize::Size4K, PteFlags::kernel_ro())
                .expect("FLARE module dummy");
        }
        page += MODULE_ALIGN;
    }
}

/// Maps the attacker's text, scratch and calibration pages with 28-bit
/// user ASLR (§IV-F: code text within `0x55XXXXXXX000`).
fn map_user_context(space: &mut AddressSpace, rng: &mut StdRng) -> Result<UserContext, MmuError> {
    let text_base = VirtAddr::new_truncate(0x5500_0000_0000 + (rng.gen_range(0u64..1 << 28) << 12));
    space.map_range(text_base, 2, PageSize::Size4K, PteFlags::user_rx())?;
    let scratch = text_base.wrapping_add(0x10_0000);
    space.map_range(scratch, 4, PageSize::Size4K, PteFlags::user_rw())?;
    let calibration = scratch.wrapping_add(0x4000);
    space.map(calibration, PageSize::Size4K, PteFlags::user_rw())?;
    Ok(UserContext {
        text: text_base,
        scratch,
        calibration,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use avx_mmu::Walker;

    #[test]
    fn region_constants_match_paper() {
        assert_eq!(KERNEL_SLOTS, 512);
        assert_eq!(MODULE_SLOTS, 16384);
        assert_eq!(KPTI_TRAMPOLINE_OFFSET, 0xc0_0000);
    }

    #[test]
    fn default_build_has_kernel_and_modules() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(1));
        let t = sys.truth();
        assert!(t.kernel_base.as_u64() >= KERNEL_TEXT_REGION_START);
        assert_eq!(t.modules.len(), 125);
        assert!(t.trampoline.is_none());
    }

    #[test]
    fn slide_is_2mib_aligned_and_in_range() {
        for seed in 0..20 {
            let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
            let base = sys.truth().kernel_base.as_u64();
            assert_eq!(base % KASLR_ALIGN, 0);
            assert!(base >= KERNEL_TEXT_REGION_START);
            assert!(
                base + sys.truth().kernel_slots * KASLR_ALIGN <= KERNEL_TEXT_REGION_END,
                "image fits"
            );
        }
    }

    #[test]
    fn seeds_change_the_slide() {
        let a = LinuxSystem::build(LinuxConfig::seeded(1))
            .truth()
            .slide_slots;
        let b = LinuxSystem::build(LinuxConfig::seeded(2))
            .truth()
            .slide_slots;
        let c = LinuxSystem::build(LinuxConfig::seeded(3))
            .truth()
            .slide_slots;
        assert!(a != b || b != c, "different seeds should move the base");
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = LinuxSystem::build(LinuxConfig::seeded(9));
        let b = LinuxSystem::build(LinuxConfig::seeded(9));
        assert_eq!(a.truth().kernel_base, b.truth().kernel_base);
        assert_eq!(a.truth().modules.len(), b.truth().modules.len());
        for (ma, mb) in a.truth().modules.iter().zip(b.truth().modules.iter()) {
            assert_eq!(ma, mb);
        }
    }

    #[test]
    fn fixed_slide_pins_base() {
        let cfg = LinuxConfig {
            fixed_slide: Some(8),
            ..LinuxConfig::seeded(4)
        };
        let sys = LinuxSystem::build(cfg);
        assert_eq!(sys.truth().kernel_base.as_u64(), 0xffff_ffff_8100_0000);
    }

    #[test]
    fn fig4_slide_271_reproduces_paper_base() {
        let cfg = LinuxConfig {
            fixed_slide: Some(271),
            ..LinuxConfig::seeded(0)
        };
        let sys = LinuxSystem::build(cfg);
        assert_eq!(sys.truth().kernel_base.as_u64(), 0xffff_ffff_a1e0_0000);
    }

    #[test]
    fn kernel_slots_are_mapped_others_not() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(5));
        let t = sys.truth();
        let walker = Walker::new();
        for slot in 0..t.kernel_slots {
            let va = t.kernel_base.wrapping_add(slot * KASLR_ALIGN);
            assert!(walker.walk(sys.space(), va).is_mapped(), "slot {slot}");
        }
        // Just before the image and just after: unmapped (unless slide=0).
        if t.slide_slots > 0 {
            let prev = VirtAddr::new_truncate(t.kernel_base.as_u64() - KASLR_ALIGN);
            assert!(!walker.walk(sys.space(), prev).is_mapped());
        }
        let after = t.kernel_base.wrapping_add(t.kernel_slots * KASLR_ALIGN);
        if after.as_u64() < KERNEL_TEXT_REGION_END {
            assert!(!walker.walk(sys.space(), after).is_mapped());
        }
    }

    #[test]
    fn split_slots_terminate_at_pt() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(6));
        let walker = Walker::new();
        assert_eq!(sys.truth().split_slot_bases.len(), 5);
        for &base in &sys.truth().split_slot_bases {
            let walk = walker.walk(sys.space(), base);
            assert!(walk.is_mapped());
            assert_eq!(walk.terminal_level, avx_mmu::Level::Pt);
        }
    }

    #[test]
    fn strict_wx_no_page_both_writable_and_executable() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(7));
        for region in sys.space().iter_regions() {
            let f = region.flags;
            if f.is_writable() {
                assert!(f.is_no_execute(), "W^X violated at {}", region.start);
            }
        }
    }

    #[test]
    fn modules_within_region_sorted_and_gap_separated() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(8));
        let mods = &sys.truth().modules;
        assert_eq!(mods.len(), 125);
        for m in mods {
            assert!(m.base.as_u64() >= MODULE_REGION_START);
            assert!(m.end().as_u64() <= MODULE_REGION_END);
            assert!(m.base.is_aligned(MODULE_ALIGN));
        }
        for pair in mods.windows(2) {
            assert!(
                pair[1].base.as_u64() >= pair[0].end().as_u64() + MODULE_ALIGN,
                "guard page between {} and {}",
                pair[0].spec.name,
                pair[1].spec.name
            );
        }
    }

    #[test]
    fn module_pages_all_mapped_guards_not() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(9));
        let walker = Walker::new();
        let m = &sys.truth().modules[3];
        for page in 0..m.spec.pages() {
            let va = m.base.wrapping_add(page * 4096);
            assert!(walker.walk(sys.space(), va).is_mapped());
        }
        let guard = m.end();
        assert!(!walker.walk(sys.space(), guard).is_mapped());
    }

    #[test]
    fn kpti_hides_kernel_and_modules_but_maps_trampoline() {
        let cfg = LinuxConfig {
            kpti: true,
            fixed_slide: Some(8),
            ..LinuxConfig::seeded(10)
        };
        let sys = LinuxSystem::build(cfg);
        let t = sys.truth();
        let walker = Walker::new();
        assert!(!walker.walk(sys.space(), t.kernel_base).is_mapped());
        assert!(t.modules.is_empty());
        let tramp = t.trampoline.expect("trampoline mapped");
        assert_eq!(tramp.as_u64(), 0xffff_ffff_81c0_0000);
        assert!(walker.walk(sys.space(), tramp).is_mapped());
    }

    #[test]
    fn flare_makes_everything_look_mapped() {
        let cfg = LinuxConfig {
            flare: true,
            ..LinuxConfig::seeded(11)
        };
        let sys = LinuxSystem::build(cfg);
        let walker = Walker::new();
        // Every 2 MiB kernel slot and every module page is now present.
        for slot in (0..KERNEL_SLOTS).step_by(37) {
            let va = VirtAddr::new_truncate(KERNEL_TEXT_REGION_START + slot * KASLR_ALIGN);
            assert!(walker.walk(sys.space(), va).is_mapped(), "slot {slot}");
        }
        for page in (0..MODULE_SLOTS).step_by(971) {
            let va = VirtAddr::new_truncate(MODULE_REGION_START + page * MODULE_ALIGN);
            assert!(walker.walk(sys.space(), va).is_mapped(), "page {page}");
        }
    }

    #[test]
    fn fgkaslr_shuffles_function_offsets_but_not_entry() {
        let base_cfg = LinuxConfig {
            fixed_slide: Some(100),
            ..LinuxConfig::seeded(12)
        };
        let plain = LinuxSystem::build(base_cfg.clone());
        let fg = LinuxSystem::build(LinuxConfig {
            fgkaslr: true,
            ..base_cfg
        });
        let moved = DEFAULT_FUNCTIONS
            .iter()
            .filter(|f| f.name != "entry_SYSCALL_64")
            .filter(|f| plain.truth().function_addr(f.name) != fg.truth().function_addr(f.name))
            .count();
        assert!(moved >= 5, "most functions should move under FGKASLR");
        assert_eq!(
            plain.truth().function_addr("entry_SYSCALL_64"),
            fg.truth().function_addr("entry_SYSCALL_64"),
        );
    }

    #[test]
    fn user_context_pages_mapped_with_expected_permissions() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(13));
        let u = sys.truth().user;
        let text = sys.space().lookup(u.text).expect("text mapped");
        assert!(text.flags.is_user());
        assert!(!text.flags.is_writable());
        let scratch = sys.space().lookup(u.scratch).expect("scratch mapped");
        assert!(scratch.flags.is_writable());
        let calib = sys.space().lookup(u.calibration).expect("calib mapped");
        assert!(calib.flags.is_writable());
        assert!(!calib.flags.is_dirty(), "calibration page starts clean");
        // 28-bit entropy window.
        assert_eq!(u.text.as_u64() >> 40, 0x55);
        assert_eq!(u.text.as_u64() & 0xfff, 0);
    }

    #[test]
    fn truth_module_lookup_and_function_addr() {
        let cfg = LinuxConfig {
            fixed_slide: Some(271),
            ..LinuxConfig::seeded(14)
        };
        let sys = LinuxSystem::build(cfg);
        let t = sys.truth();
        assert!(t.module("bluetooth").is_some());
        assert!(t.module("nonexistent").is_none());
        let f = t.function_addr("do_syscall_64").unwrap();
        assert_eq!(f.as_u64(), 0xffff_ffff_a1e0_0000 + 0x2340);
    }

    #[test]
    fn into_machine_preserves_truth() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(15));
        let base = sys.truth().kernel_base;
        let (machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 1);
        assert_eq!(truth.kernel_base, base);
        assert!(machine.space().mapped_pages() > 0);
    }

    #[test]
    #[should_panic(expected = "fixed slide out of range")]
    fn oversized_fixed_slide_panics() {
        let _ = LinuxSystem::build(LinuxConfig {
            fixed_slide: Some(KERNEL_SLOTS),
            ..LinuxConfig::default()
        });
    }
}
