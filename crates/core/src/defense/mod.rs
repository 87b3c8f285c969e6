//! The defense axis — victim-side countermeasures as first-class
//! campaign citizens.
//!
//! §V of the paper evaluates countermeasures as static point checks
//! (FLARE, FGKASLR — now living in [`point_checks`], the same
//! evaluation site). The two strongest defense families from the
//! related work are dynamic, though, and this module models them as
//! *victims*: a [`Defense`] is installed on the machine an attack is
//! about to probe, and every attack × CPU × noise campaign cell can be
//! re-run under it to measure efficacy as the attack-success rate it
//! leaves behind.
//!
//! * [`DefenseKind::None`] — the undefended victim. Installing it does
//!   nothing at all (invariant 12: `Defense::None` is silent), so every
//!   pre-defense golden row is bit-exact by construction.
//! * [`DefenseKind::MaskedTranslation`] — an Oreo-style masked address
//!   space ([`avx_uarch::AddressMask`]): the walked address is an
//!   involutive slot permutation of the architecturally visible one,
//!   decoupling the attacker's timing picture from the real layout.
//! * [`DefenseKind::Rerandomizing`] — live re-randomization
//!   ([`avx_uarch::Rerandomizer`]): the protected image re-slides to a
//!   fresh slot every [`DEFAULT_RERANDOMIZE_PERIOD`] probes *during*
//!   the scan, turning every attack into a race. This is layout drift,
//!   the analogue of [`avx_uarch::NoiseProfile::Drift`]'s noise drift.
//!
//! Installation is per-machine and per-trial: fixtures stay immutable
//! (a re-randomizing victim re-randomizes its copy-on-write clone,
//! never the shared pool — invariants 5 and 11), and the defense's
//! randomness is derived from the trial seed through its own SplitMix64
//! stream, never from the machine's measurement RNG.
//!
//! ```
//! use avx_channel::attacks::campaign::{CampaignConfig, Scenario};
//! use avx_channel::defense::DefenseKind;
//! use avx_uarch::CpuProfile;
//!
//! let config = CampaignConfig::new(2, 0).with_defense(DefenseKind::MaskedTranslation);
//! let row = Scenario::KernelBase.campaign(&CpuProfile::alder_lake_i5_12400f(), config);
//! assert_eq!(row.defense, "masked");
//! assert!(row.accuracy.rate() < 0.5, "the mask decouples the scan: {row}");
//! ```

pub mod point_checks;

pub use point_checks::{evaluate_fgkaslr, evaluate_flare, FgkaslrEval, FlareEval};

use core::fmt;

use avx_os::linux::{
    KASLR_ALIGN, KERNEL_TEXT_REGION_END, KERNEL_TEXT_REGION_START, MODULE_REGION_END,
    MODULE_REGION_START,
};
use avx_os::windows::{WIN_KASLR_ALIGN, WIN_KERNEL_REGION_END, WIN_KERNEL_REGION_START};
use avx_uarch::defense::splitmix64;
use avx_uarch::{AddressMask, Machine, Rerandomizer, VictimDefense};

/// Default probe-count trigger of the re-randomizing victim: 24 probe
/// tiles. Short enough to fire several times inside one 512-slot
/// kernel-base scan (2 probes per slot), so the mid-scan race is the
/// common case, not an edge case.
pub const DEFAULT_RERANDOMIZE_PERIOD: u64 = 384;

/// The defense menu — the fourth campaign axis.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum DefenseKind {
    /// No defense: the bit-exact historical victim.
    #[default]
    None,
    /// Oreo-style masked address space over the victim's randomization
    /// regions.
    MaskedTranslation,
    /// Live layout re-randomization on a probe-count trigger.
    Rerandomizing,
}

impl DefenseKind {
    /// All defenses, grid order.
    pub const ALL: [DefenseKind; 3] = [
        DefenseKind::None,
        DefenseKind::MaskedTranslation,
        DefenseKind::Rerandomizing,
    ];

    /// The row/CLI label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DefenseKind::None => "none",
            DefenseKind::MaskedTranslation => "masked",
            DefenseKind::Rerandomizing => "rerandomizing",
        }
    }

    /// Parses a CLI/env name (`--defense <name>` / `AVX_DEFENSE`).
    #[must_use]
    pub fn parse(name: &str) -> Option<DefenseKind> {
        match name {
            "none" | "off" => Some(DefenseKind::None),
            "masked" | "masked-translation" | "oreo" => Some(DefenseKind::MaskedTranslation),
            "rerandomizing" | "rerand" | "moving-target" => Some(DefenseKind::Rerandomizing),
            _ => None,
        }
    }

    /// Installs this defense on `machine` over `regions`, with
    /// randomness derived from `seed`. The single installation
    /// chokepoint every campaign trial and point check goes through.
    pub fn install(self, machine: &mut Machine, regions: &[DefenseRegion], seed: u64) {
        match self {
            DefenseKind::None => NoDefense.install(machine, regions, seed),
            DefenseKind::MaskedTranslation => MaskedTranslation.install(machine, regions, seed),
            DefenseKind::Rerandomizing => Rerandomizing::default().install(machine, regions, seed),
        }
    }
}

impl fmt::Display for DefenseKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One randomization region a defense protects: where the to-be-hidden
/// image lives and at what slot granularity it randomizes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DefenseRegion {
    /// First address of the region.
    pub start: u64,
    /// One past the last address.
    pub end: u64,
    /// Randomization slot size (a power of two; the slot count must be
    /// a power of two for the masked-translation XOR to stay
    /// in-region).
    pub slot_align: u64,
}

impl DefenseRegion {
    /// The Linux kernel-text randomization range (512 × 2 MiB slots).
    #[must_use]
    pub const fn linux_kernel_text() -> Self {
        Self {
            start: KERNEL_TEXT_REGION_START,
            end: KERNEL_TEXT_REGION_END,
            slot_align: KASLR_ALIGN,
        }
    }

    /// The Linux module area (16384 × 4 KiB slots).
    #[must_use]
    pub const fn linux_modules() -> Self {
        Self {
            start: MODULE_REGION_START,
            end: MODULE_REGION_END,
            slot_align: avx_os::linux::MODULE_ALIGN,
        }
    }

    /// The Windows kernel randomization range (§IV-G's 18-bit region).
    #[must_use]
    pub const fn windows_kernel() -> Self {
        Self {
            start: WIN_KERNEL_REGION_START,
            end: WIN_KERNEL_REGION_END,
            slot_align: WIN_KASLR_ALIGN,
        }
    }

    /// A per-region defense seed: the trial seed mixed with the region
    /// base, so multi-region installs draw independent keys.
    #[must_use]
    fn region_seed(&self, seed: u64) -> u64 {
        splitmix64(seed ^ 0xdefe_7a11 ^ self.start)
    }
}

/// A victim-side defense: something installed on the machine before
/// the attack's first probe.
pub trait Defense {
    /// Which menu entry this is.
    fn kind(&self) -> DefenseKind;

    /// Installs the defense on `machine` over `regions`. Must be a
    /// no-op for [`DefenseKind::None`] and must never mutate anything
    /// but the machine itself (fixture pools are shared).
    fn install(&self, machine: &mut Machine, regions: &[DefenseRegion], seed: u64);
}

/// The undefended victim. Installing it is architecturally silent: no
/// machine state changes, no RNG draws, nothing — which is what makes
/// every pre-defense golden row bit-exact by construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoDefense;

impl Defense for NoDefense {
    fn kind(&self) -> DefenseKind {
        DefenseKind::None
    }

    fn install(&self, _machine: &mut Machine, _regions: &[DefenseRegion], _seed: u64) {}
}

/// Oreo-style masked translation: one involutive slot permutation per
/// protected region, installed at the machine level so every walk,
/// TLB fill and shadow-index lookup of an attacker-issued address sees
/// the masked view (kernel-side accesses keep the real one).
#[derive(Clone, Copy, Debug, Default)]
pub struct MaskedTranslation;

impl Defense for MaskedTranslation {
    fn kind(&self) -> DefenseKind {
        DefenseKind::MaskedTranslation
    }

    fn install(&self, machine: &mut Machine, regions: &[DefenseRegion], seed: u64) {
        let mut defense = VictimDefense::new();
        for region in regions {
            defense = defense.with_mask(AddressMask::new(
                region.start,
                region.end,
                region.slot_align,
                region.region_seed(seed),
            ));
        }
        if defense.is_active() {
            machine.set_defense(Some(defense));
        }
    }
}

/// Live re-randomization: every `period` executed probes, each
/// protected image re-slides to a fresh random slot and the machine
/// performs the OS's TLB shootdown. Regions that hold no image at
/// install time (e.g. the kernel range of a KPTI victim exposes only
/// the trampoline — which *is* captured — or an empty range) simply
/// contribute nothing.
#[derive(Clone, Copy, Debug)]
pub struct Rerandomizing {
    /// Probe-count trigger period.
    pub period: u64,
}

impl Default for Rerandomizing {
    fn default() -> Self {
        Self {
            period: DEFAULT_RERANDOMIZE_PERIOD,
        }
    }
}

impl Defense for Rerandomizing {
    fn kind(&self) -> DefenseKind {
        DefenseKind::Rerandomizing
    }

    fn install(&self, machine: &mut Machine, regions: &[DefenseRegion], seed: u64) {
        let mut defense = VictimDefense::new();
        for region in regions {
            if let Some(r) = Rerandomizer::capture(
                machine.space(),
                region.start,
                region.end,
                region.slot_align,
                self.period,
                region.region_seed(seed),
            ) {
                defense = defense.with_rerandomizer(r);
            }
        }
        if defense.is_active() {
            machine.set_defense(Some(defense));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avx_mmu::VirtAddr;
    use avx_os::linux::{LinuxConfig, LinuxSystem};
    use avx_uarch::{CpuProfile, NoiseModel, OpKind};

    fn machine(seed: u64) -> Machine {
        let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
        let (mut m, _) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
        m.set_noise(NoiseModel::none());
        m
    }

    #[test]
    fn kind_names_round_trip_through_parse() {
        for kind in DefenseKind::ALL {
            assert_eq!(DefenseKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(
            DefenseKind::parse("oreo"),
            Some(DefenseKind::MaskedTranslation)
        );
        assert_eq!(
            DefenseKind::parse("moving-target"),
            Some(DefenseKind::Rerandomizing)
        );
        assert_eq!(DefenseKind::parse("bogus"), None);
        assert_eq!(DefenseKind::default(), DefenseKind::None);
    }

    #[test]
    fn none_install_is_architecturally_silent() {
        let mut defended = machine(3);
        DefenseKind::None.install(&mut defended, &[DefenseRegion::linux_kernel_text()], 3);
        assert!(defended.defense().is_none(), "None never installs anything");
        assert_eq!(defended.rerandomizations(), 0);
    }

    #[test]
    fn masked_translation_covers_every_requested_region() {
        let mut m = machine(4);
        DefenseKind::MaskedTranslation.install(
            &mut m,
            &[
                DefenseRegion::linux_kernel_text(),
                DefenseRegion::linux_modules(),
            ],
            4,
        );
        let d = m.defense().expect("mask installed");
        assert_eq!(d.masks.len(), 2);
        let kva = VirtAddr::new_truncate(KERNEL_TEXT_REGION_START + 5 * KASLR_ALIGN);
        let mva = VirtAddr::new_truncate(MODULE_REGION_START + 0x7000);
        assert_ne!(d.masked(kva), kva);
        assert_ne!(d.masked(mva), mva);
        // Distinct per-region keys: the two regions permute differently.
        let k_off = d.masked(kva).as_u64() ^ kva.as_u64();
        let m_off = d.masked(mva).as_u64() ^ mva.as_u64();
        assert_ne!(k_off, m_off, "independent keys per region");
    }

    #[test]
    fn masked_machine_decouples_the_mapped_signal() {
        // The same victim, probed by the same scan: undefended it leaks
        // the true base, masked it leaks only the permuted image (the
        // calibration page sits outside the protected region, so the
        // attacker's threshold is as good as ever — and still loses).
        use crate::attacks::kaslr::KernelBaseFinder;
        use crate::calibrate::Threshold;
        use crate::prober::SimProber;

        let sys = LinuxSystem::build(LinuxConfig::seeded(9));
        let (plain, truth) = sys.machine(CpuProfile::alder_lake_i5_12400f(), 9);
        let (mut masked, _) = sys.machine(CpuProfile::alder_lake_i5_12400f(), 9);
        DefenseKind::MaskedTranslation.install(
            &mut masked,
            &[DefenseRegion::linux_kernel_text()],
            9,
        );

        let mut p = SimProber::new(plain);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
        let scan = KernelBaseFinder::new(th).scan(&mut p);
        assert_eq!(scan.base, Some(truth.kernel_base), "undefended scan works");

        let mut p = SimProber::new(masked);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
        let scan = KernelBaseFinder::new(th).scan(&mut p);
        assert_ne!(
            scan.base,
            Some(truth.kernel_base),
            "masked scan must not recover the true base"
        );
    }

    #[test]
    fn rerandomizing_fires_on_schedule_and_counts_events() {
        let mut m = machine(5);
        Rerandomizing { period: 10 }.install(&mut m, &[DefenseRegion::linux_kernel_text()], 5);
        assert!(m.defense().is_some());
        assert_eq!(m.rerandomizations(), 0);
        let probe_at = VirtAddr::new_truncate(KERNEL_TEXT_REGION_START);
        for _ in 0..25 {
            let _ = m.probe(OpKind::Load, probe_at);
        }
        assert_eq!(m.rerandomizations(), 2, "25 ops / period 10");
    }

    #[test]
    fn rerandomizing_skips_empty_regions() {
        let mut m = machine(6);
        Rerandomizing::default().install(&mut m, &[DefenseRegion::windows_kernel()], 6);
        assert!(
            m.defense().is_none(),
            "a Linux victim has nothing in the Windows range"
        );
    }

    #[test]
    fn defense_trait_objects_report_their_kind() {
        let menu: [&dyn Defense; 3] = [&NoDefense, &MaskedTranslation, &Rerandomizing::default()];
        let kinds: Vec<DefenseKind> = menu.iter().map(|d| d.kind()).collect();
        assert_eq!(kinds, DefenseKind::ALL);
    }

    #[test]
    fn region_presets_are_power_of_two_sloted() {
        for region in [
            DefenseRegion::linux_kernel_text(),
            DefenseRegion::linux_modules(),
            DefenseRegion::windows_kernel(),
        ] {
            let slots = (region.end - region.start) / region.slot_align;
            assert!(slots.is_power_of_two(), "{region:?}");
            assert!(region.slot_align.is_power_of_two());
        }
    }
}
