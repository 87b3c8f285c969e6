//! CPU profiles: the per-microarchitecture latency anchors.
//!
//! Every profile corresponds to one of the processors evaluated in the
//! paper. The latency parameters are *fitted* to the means the paper
//! reports (Fig. 2, Fig. 3, §III-B, Table I), not derived from first
//! principles; each [`TimingParams`] field names the figure or section
//! it is fitted to.

use core::fmt;

use avx_mmu::{PscConfig, TlbConfig};

/// CPU vendor, which selects the kernel-probe translation behaviour.
///
/// The paper observes that on AMD Zen 3 "accessing kernel addresses
/// always triggers page table walks regardless of page mappings"
/// (§IV-B), so mapped and unmapped kernel pages are indistinguishable by
/// the TLB shortcut and only the walk-termination level leaks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Vendor {
    /// Intel: supervisor translations are cached and reused.
    Intel,
    /// AMD: kernel-half probes from user mode bypass the TLB/PSC.
    Amd,
}

/// Identifiers for the concrete CPUs used in the paper's evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum CpuModel {
    /// Intel Core i7-1065G7 (Ice Lake, mobile, Q3'19).
    IceLakeI7_1065G7,
    /// Intel Core i9-9900 (Coffee Lake, desktop) — §III-B testbed.
    CoffeeLakeI9_9900,
    /// Intel Core i5-12400F (Alder Lake, desktop, Q1'22).
    AlderLakeI5_12400F,
    /// Intel Core i7-6600U (Skylake, mobile) — Windows KVAS testbed.
    SkylakeI7_6600U,
    /// AMD Ryzen 5 5600X (Zen 3, desktop, Q2'20).
    Zen3Ryzen5_5600X,
    /// Intel Xeon E5-2676 (Haswell) — Amazon EC2.
    XeonE5_2676,
    /// Intel Xeon Cascade Lake — Google GCE.
    XeonCascadeLake,
    /// Intel Xeon Platinum 8171M — Microsoft Azure.
    XeonPlatinum8171M,
    /// Composite desktop part used for the Fig. 3 permission study.
    GenericDesktop,
}

impl fmt::Display for CpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CpuModel::IceLakeI7_1065G7 => "Intel Core i7-1065G7 (Ice Lake)",
            CpuModel::CoffeeLakeI9_9900 => "Intel Core i9-9900 (Coffee Lake)",
            CpuModel::AlderLakeI5_12400F => "Intel Core i5-12400F (Alder Lake)",
            CpuModel::SkylakeI7_6600U => "Intel Core i7-6600U (Skylake)",
            CpuModel::Zen3Ryzen5_5600X => "AMD Ryzen 5 5600X (Zen 3)",
            CpuModel::XeonE5_2676 => "Intel Xeon E5-2676 (Haswell, EC2)",
            CpuModel::XeonCascadeLake => "Intel Xeon Cascade Lake (GCE)",
            CpuModel::XeonPlatinum8171M => "Intel Xeon Platinum 8171M (Azure)",
            CpuModel::GenericDesktop => "Generic desktop x86-64",
        };
        write!(f, "{name}")
    }
}

/// Latency anchors of the masked-op timing model (cycles).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimingParams {
    /// Base cost of a masked load that needs no assist and hits the TLB.
    pub base_load: f64,
    /// Base cost of a masked store under the same conditions.
    pub base_store: f64,
    /// Microcode-assist cost added to a masked load whose translation is
    /// invalid or inaccessible (paper Fig. 2: KERNEL-M = base + assist).
    pub assist_load: f64,
    /// Assist cost for a masked store (≈16–18 cycles cheaper, §III-B P6).
    pub assist_store: f64,
    /// Extra cycles when the translation comes from the STLB instead of
    /// the first-level TLB.
    pub stlb_hit_extra: f64,
    /// Cost of one paging-structure access whose line is cache-hot.
    pub walk_step_warm: f64,
    /// Cost of one paging-structure access that misses the data caches.
    pub walk_step_cold: f64,
    /// Termination-level extras, applied only to walks that start at the
    /// PML4 root (no PSC resume); fitted to the §III-B P3 ordering
    /// PD < PDPT < PML4, with PT off the line because the PSC never
    /// caches PTEs.
    pub level_extra_pt: f64,
    /// See [`TimingParams::level_extra_pt`].
    pub level_extra_pd: f64,
    /// See [`TimingParams::level_extra_pt`].
    pub level_extra_pdpt: f64,
    /// See [`TimingParams::level_extra_pt`].
    pub level_extra_pml4: f64,
    /// How many times the walker re-walks a non-present translation while
    /// the assist determines suppression (Fig. 2 PMC: 2 completed walks).
    pub nonpresent_retries: u8,
    /// Additional cycles for non-present *user-half* loads (Fig. 2:
    /// USER-U is ~3 cycles above KERNEL-U).
    pub user_nonpresent_load_extra: f64,
    /// Architectural #PF delivery cost (only hit when an unmasked lane
    /// faults; the attack never pays this).
    pub fault_cost: f64,
    /// Gaussian timing-noise sigma.
    pub noise_sigma: f64,
    /// Probability that a probe is disturbed by an interrupt-style spike.
    pub spike_prob: f64,
    /// Spike magnitude range (uniform), cycles.
    pub spike_range: (f64, f64),
}

/// A complete CPU description: identity, clocks, cache geometry, timing.
#[derive(Clone, Debug)]
pub struct CpuProfile {
    /// Which concrete part this models.
    pub model: CpuModel,
    /// Vendor behaviour class.
    pub vendor: Vendor,
    /// Effective clock while probing, GHz (used to convert cycle counts
    /// into the wall-clock runtimes of Table I).
    pub freq_ghz: f64,
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// Paging-structure-cache geometry.
    pub psc: PscConfig,
    /// Latency anchors.
    pub timing: TimingParams,
    /// `true` if the part supports AVX2 (all evaluated parts do).
    pub has_avx2: bool,
    /// Per-probe loop overhead in cycles (rdtsc serialization, branches),
    /// used for "Total" vs "Probing" runtime accounting in Table I.
    pub probe_overhead: f64,
}

impl CpuProfile {
    /// Intel Core i7-1065G7 (Ice Lake). Anchors from paper Fig. 2:
    /// USER-M 13, KERNEL-M 93, KERNEL-U 107, USER-U 110; P6: store 76
    /// vs load 92 on KERNEL-M; Fig. 6 idle level ≈ 430.
    #[must_use]
    pub fn ice_lake_i7_1065g7() -> Self {
        Self {
            model: CpuModel::IceLakeI7_1065G7,
            vendor: Vendor::Intel,
            freq_ghz: 1.3,
            tlb: TlbConfig::default(),
            psc: PscConfig::default(),
            timing: TimingParams {
                base_load: 13.0,
                base_store: 12.0,
                assist_load: 80.0,
                assist_store: 64.0,
                stlb_hit_extra: 6.0,
                walk_step_warm: 7.0,
                walk_step_cold: 80.0,
                level_extra_pt: 18.0,
                level_extra_pd: 0.0,
                level_extra_pdpt: 12.0,
                level_extra_pml4: 24.0,
                nonpresent_retries: 2,
                user_nonpresent_load_extra: 3.0,
                fault_cost: 1800.0,
                noise_sigma: 1.1,
                spike_prob: 0.003,
                spike_range: (200.0, 1800.0),
            },
            has_avx2: true,
            probe_overhead: 160.0,
        }
    }

    /// Intel Core i9-9900 (Coffee Lake). Anchors from §III-B P4: TLB hit
    /// 147 vs miss 381 on a kernel-mapped 2 MiB page.
    #[must_use]
    pub fn coffee_lake_i9_9900() -> Self {
        Self {
            model: CpuModel::CoffeeLakeI9_9900,
            vendor: Vendor::Intel,
            freq_ghz: 3.6,
            tlb: TlbConfig::default(),
            psc: PscConfig::default(),
            timing: TimingParams {
                base_load: 13.0,
                base_store: 12.0,
                assist_load: 134.0,
                assist_store: 118.0,
                stlb_hit_extra: 6.0,
                walk_step_warm: 7.0,
                walk_step_cold: 78.0,
                level_extra_pt: 18.0,
                level_extra_pd: 0.0,
                level_extra_pdpt: 12.0,
                level_extra_pml4: 24.0,
                nonpresent_retries: 2,
                user_nonpresent_load_extra: 3.0,
                fault_cost: 1800.0,
                noise_sigma: 1.5,
                spike_prob: 0.003,
                spike_range: (200.0, 1800.0),
            },
            has_avx2: true,
            probe_overhead: 140.0,
        }
    }

    /// Intel Core i5-12400F (Alder Lake). Anchors from Fig. 4: kernel
    /// mapped ≈ 93, unmapped ≈ 107 cycles; fastest Table I runtimes.
    #[must_use]
    pub fn alder_lake_i5_12400f() -> Self {
        Self {
            model: CpuModel::AlderLakeI5_12400F,
            vendor: Vendor::Intel,
            freq_ghz: 4.4,
            tlb: TlbConfig::default(),
            psc: PscConfig::default(),
            timing: TimingParams {
                base_load: 13.0,
                base_store: 12.0,
                assist_load: 80.0,
                assist_store: 64.0,
                stlb_hit_extra: 6.0,
                walk_step_warm: 7.0,
                walk_step_cold: 65.0,
                level_extra_pt: 18.0,
                level_extra_pd: 0.0,
                level_extra_pdpt: 12.0,
                level_extra_pml4: 24.0,
                nonpresent_retries: 2,
                user_nonpresent_load_extra: 3.0,
                fault_cost: 1500.0,
                noise_sigma: 1.0,
                spike_prob: 0.002,
                spike_range: (200.0, 1500.0),
            },
            has_avx2: true,
            probe_overhead: 120.0,
        }
    }

    /// Intel Core i7-6600U (Skylake) — the Windows KVAS testbed (§IV-G).
    #[must_use]
    pub fn skylake_i7_6600u() -> Self {
        Self {
            model: CpuModel::SkylakeI7_6600U,
            vendor: Vendor::Intel,
            freq_ghz: 2.6,
            tlb: TlbConfig::default(),
            psc: PscConfig::default(),
            timing: TimingParams {
                base_load: 14.0,
                base_store: 13.0,
                assist_load: 90.0,
                assist_store: 74.0,
                stlb_hit_extra: 6.0,
                walk_step_warm: 7.0,
                walk_step_cold: 75.0,
                level_extra_pt: 18.0,
                level_extra_pd: 0.0,
                level_extra_pdpt: 12.0,
                level_extra_pml4: 24.0,
                nonpresent_retries: 2,
                user_nonpresent_load_extra: 3.0,
                fault_cost: 2000.0,
                noise_sigma: 1.4,
                spike_prob: 0.003,
                spike_range: (200.0, 1800.0),
            },
            has_avx2: true,
            probe_overhead: 170.0,
        }
    }

    /// AMD Ryzen 5 5600X (Zen 3). Kernel probes always walk (§IV-B);
    /// discrimination works through the walk-termination level only.
    #[must_use]
    pub fn zen3_ryzen5_5600x() -> Self {
        Self {
            model: CpuModel::Zen3Ryzen5_5600X,
            vendor: Vendor::Amd,
            freq_ghz: 4.6,
            tlb: TlbConfig::default(),
            psc: PscConfig::default(),
            timing: TimingParams {
                base_load: 15.0,
                base_store: 14.0,
                assist_load: 90.0,
                assist_store: 74.0,
                stlb_hit_extra: 6.0,
                walk_step_warm: 7.0,
                walk_step_cold: 60.0,
                level_extra_pt: 22.0,
                level_extra_pd: 0.0,
                level_extra_pdpt: 12.0,
                level_extra_pml4: 24.0,
                nonpresent_retries: 2,
                user_nonpresent_load_extra: 3.0,
                fault_cost: 1700.0,
                noise_sigma: 1.8,
                spike_prob: 0.003,
                spike_range: (200.0, 1800.0),
            },
            has_avx2: true,
            probe_overhead: 150.0,
        }
    }

    /// Intel Xeon E5-2676 (Haswell) — the Amazon EC2 guest (§IV-H).
    /// Meltdown-vulnerable, so the guest kernel runs KPTI.
    #[must_use]
    pub fn xeon_e5_2676() -> Self {
        Self {
            model: CpuModel::XeonE5_2676,
            vendor: Vendor::Intel,
            freq_ghz: 2.4,
            tlb: TlbConfig::default(),
            psc: PscConfig::default(),
            timing: TimingParams {
                base_load: 14.0,
                base_store: 13.0,
                assist_load: 95.0,
                assist_store: 79.0,
                stlb_hit_extra: 6.0,
                walk_step_warm: 7.0,
                walk_step_cold: 80.0,
                level_extra_pt: 18.0,
                level_extra_pd: 0.0,
                level_extra_pdpt: 12.0,
                level_extra_pml4: 24.0,
                nonpresent_retries: 2,
                user_nonpresent_load_extra: 3.0,
                fault_cost: 2200.0,
                noise_sigma: 2.0,
                spike_prob: 0.004,
                spike_range: (250.0, 2500.0),
            },
            has_avx2: true,
            probe_overhead: 180.0,
        }
    }

    /// Intel Xeon Cascade Lake — the Google GCE guest (§IV-H).
    /// Meltdown-resistant: KASLR probed directly.
    #[must_use]
    pub fn xeon_cascade_lake() -> Self {
        Self {
            model: CpuModel::XeonCascadeLake,
            vendor: Vendor::Intel,
            freq_ghz: 2.8,
            tlb: TlbConfig::default(),
            psc: PscConfig::default(),
            timing: TimingParams {
                base_load: 13.0,
                base_store: 12.0,
                assist_load: 85.0,
                assist_store: 69.0,
                stlb_hit_extra: 6.0,
                walk_step_warm: 7.0,
                walk_step_cold: 72.0,
                level_extra_pt: 18.0,
                level_extra_pd: 0.0,
                level_extra_pdpt: 12.0,
                level_extra_pml4: 24.0,
                nonpresent_retries: 2,
                user_nonpresent_load_extra: 3.0,
                fault_cost: 2000.0,
                noise_sigma: 1.6,
                spike_prob: 0.004,
                spike_range: (250.0, 2200.0),
            },
            has_avx2: true,
            probe_overhead: 160.0,
        }
    }

    /// Intel Xeon Platinum 8171M — the Microsoft Azure guest (§IV-H),
    /// running Windows 10 21H2.
    #[must_use]
    pub fn xeon_platinum_8171m() -> Self {
        Self {
            model: CpuModel::XeonPlatinum8171M,
            vendor: Vendor::Intel,
            freq_ghz: 2.6,
            tlb: TlbConfig::default(),
            psc: PscConfig::default(),
            timing: TimingParams {
                base_load: 13.0,
                base_store: 12.0,
                assist_load: 88.0,
                assist_store: 72.0,
                stlb_hit_extra: 6.0,
                walk_step_warm: 7.0,
                walk_step_cold: 75.0,
                level_extra_pt: 18.0,
                level_extra_pd: 0.0,
                level_extra_pdpt: 12.0,
                level_extra_pml4: 24.0,
                nonpresent_retries: 2,
                user_nonpresent_load_extra: 3.0,
                fault_cost: 2100.0,
                noise_sigma: 1.5,
                spike_prob: 0.004,
                spike_range: (250.0, 2200.0),
            },
            has_avx2: true,
            probe_overhead: 170.0,
        }
    }

    /// The unnamed desktop part of the Fig. 3 permission study: load
    /// 16/16/16/115 and store 82/82/16/96 cycles on r--, r-x, rw-, ---.
    #[must_use]
    pub fn generic_desktop() -> Self {
        Self {
            model: CpuModel::GenericDesktop,
            vendor: Vendor::Intel,
            freq_ghz: 3.8,
            tlb: TlbConfig::default(),
            psc: PscConfig::default(),
            timing: TimingParams {
                base_load: 16.0,
                base_store: 16.0,
                assist_load: 80.0,
                assist_store: 66.0,
                stlb_hit_extra: 6.0,
                walk_step_warm: 7.0,
                walk_step_cold: 70.0,
                level_extra_pt: 18.0,
                level_extra_pd: 0.0,
                level_extra_pdpt: 12.0,
                level_extra_pml4: 24.0,
                nonpresent_retries: 2,
                user_nonpresent_load_extra: 5.0,
                fault_cost: 1800.0,
                noise_sigma: 1.2,
                spike_prob: 0.002,
                spike_range: (200.0, 1500.0),
            },
            has_avx2: true,
            probe_overhead: 140.0,
        }
    }

    /// All paper-evaluation profiles, for sweeps.
    #[must_use]
    pub fn all_evaluated() -> Vec<Self> {
        vec![
            Self::alder_lake_i5_12400f(),
            Self::ice_lake_i7_1065g7(),
            Self::coffee_lake_i9_9900(),
            Self::skylake_i7_6600u(),
            Self::zen3_ryzen5_5600x(),
            Self::xeon_e5_2676(),
            Self::xeon_cascade_lake(),
            Self::xeon_platinum_8171m(),
        ]
    }

    /// `true` when kernel-half probes bypass the TLB/PSC (AMD behaviour).
    #[must_use]
    pub fn kernel_walks_uncached(&self) -> bool {
        matches!(self.vendor, Vendor::Amd)
    }

    /// The dirty-bit microcode-assist cost for masked stores on clean
    /// writable pages.
    ///
    /// Chosen so that `base_store + dirty_assist = base_load +
    /// assist_load`: the paper's calibration identity (§IV-B — "the
    /// execution time of the masked store on the user-mapped page with no
    /// dirty bit set is the same as the execution time on the
    /// kernel-mapped page").
    #[must_use]
    pub fn dirty_assist(&self) -> f64 {
        self.timing.base_load + self.timing.assist_load - self.timing.base_store
    }

    /// Converts a cycle count into seconds at this profile's clock.
    #[must_use]
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Expected steady-state masked-load cycles on a kernel-mapped page
    /// (TLB hit + assist) — the lower band of Fig. 4.
    #[must_use]
    pub fn expect_kernel_mapped_load(&self) -> f64 {
        self.timing.base_load + self.timing.assist_load
    }

    /// Expected steady-state masked-load cycles on an unmapped kernel
    /// page (assist + retried warm walk) — the upper band of Fig. 4.
    #[must_use]
    pub fn expect_kernel_unmapped_load(&self) -> f64 {
        self.timing.base_load
            + self.timing.assist_load
            + f64::from(self.timing.nonpresent_retries) * self.timing.walk_step_warm
    }
}

impl fmt::Display for CpuProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {:.1} GHz", self.model, self.freq_ghz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ice_lake_matches_fig2_anchors() {
        let p = CpuProfile::ice_lake_i7_1065g7();
        assert_eq!(p.expect_kernel_mapped_load(), 93.0);
        assert_eq!(p.expect_kernel_unmapped_load(), 107.0);
        // USER-U = KERNEL-U + 3 (Fig. 2).
        assert_eq!(p.timing.user_nonpresent_load_extra, 3.0);
    }

    #[test]
    fn alder_lake_matches_fig4_bands() {
        let p = CpuProfile::alder_lake_i5_12400f();
        assert_eq!(p.expect_kernel_mapped_load(), 93.0);
        assert_eq!(p.expect_kernel_unmapped_load(), 107.0);
    }

    #[test]
    fn p6_store_is_16_to_18_cycles_faster() {
        for p in CpuProfile::all_evaluated() {
            let load = p.timing.base_load + p.timing.assist_load;
            let store = p.timing.base_store + p.timing.assist_store;
            let delta = load - store;
            assert!(
                (16.0..=18.0).contains(&delta),
                "{}: load-store delta {delta}",
                p.model
            );
        }
    }

    #[test]
    fn calibration_identity_holds() {
        for p in CpuProfile::all_evaluated() {
            let clean_store = p.timing.base_store + p.dirty_assist();
            assert!(
                (clean_store - p.expect_kernel_mapped_load()).abs() < 1e-9,
                "{}",
                p.model
            );
        }
    }

    #[test]
    fn level_extras_are_linear_pd_to_pml4() {
        for p in CpuProfile::all_evaluated() {
            let t = &p.timing;
            assert!(t.level_extra_pd < t.level_extra_pdpt);
            assert!(t.level_extra_pdpt < t.level_extra_pml4);
            assert!(t.level_extra_pt > t.level_extra_pd, "PT off the line");
        }
    }

    #[test]
    fn amd_is_the_only_uncached_kernel_walker() {
        for p in CpuProfile::all_evaluated() {
            assert_eq!(
                p.kernel_walks_uncached(),
                matches!(p.vendor, Vendor::Amd),
                "{}",
                p.model
            );
        }
    }

    #[test]
    fn coffee_lake_matches_p4_anchors() {
        let p = CpuProfile::coffee_lake_i9_9900();
        // TLB hit on KERNEL-M: 147 cycles.
        assert_eq!(p.expect_kernel_mapped_load(), 147.0);
        // Full cold walk of a 2 MiB kernel page: hit + 3 cold steps = 381.
        let miss = p.expect_kernel_mapped_load() + 3.0 * p.timing.walk_step_cold;
        assert_eq!(miss, 381.0);
    }

    #[test]
    fn generic_desktop_matches_fig3_anchors() {
        let p = CpuProfile::generic_desktop();
        let t = &p.timing;
        assert_eq!(t.base_load, 16.0); // r--/r-x/rw- load
        assert_eq!(t.base_store + t.assist_store, 82.0); // r--/r-x store
                                                         // --- store: base + assist + retried warm walk = 96.
        let none_store =
            t.base_store + t.assist_store + f64::from(t.nonpresent_retries) * t.walk_step_warm;
        assert_eq!(none_store, 96.0);
        // --- load: +user extra = 115.
        let none_load = t.base_load
            + t.assist_load
            + f64::from(t.nonpresent_retries) * t.walk_step_warm
            + t.user_nonpresent_load_extra;
        assert_eq!(none_load, 115.0);
    }

    #[test]
    fn cycles_to_seconds_uses_frequency() {
        let p = CpuProfile::alder_lake_i5_12400f();
        let s = p.cycles_to_seconds(4_400_000_000);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn display_includes_model_and_clock() {
        let p = CpuProfile::zen3_ryzen5_5600x();
        let s = p.to_string();
        assert!(s.contains("5600X"));
        assert!(s.contains("4.6"));
    }

    #[test]
    fn all_evaluated_has_eight_parts() {
        assert_eq!(CpuProfile::all_evaluated().len(), 8);
    }
}
