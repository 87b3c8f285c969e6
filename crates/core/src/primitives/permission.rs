//! The permission attack primitive (P5).
//!
//! Combines a masked load (readable vs `---`/unmapped) with a masked
//! store (writable vs not: stores to non-writable pages take a
//! microcode assist, Fig. 3) to classify user-space pages into the three
//! timing-distinguishable classes of Fig. 7.

use core::fmt;

use avx_mmu::VirtAddr;
use avx_uarch::OpKind;

use crate::adaptive::{AdaptiveConfig, AdaptiveSampler};
use crate::prober::{ProbeStrategy, Prober};

/// What the timing channel can say about a user page's permissions.
///
/// `r--` and `r-x` are indistinguishable (loads time identically and NX
/// does not affect data accesses) — the paper reports them as the merged
/// class `(r--|r-x)`; likewise `---` and unmapped merge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ProbedPerm {
    /// Readable but not writable: `r--` or `r-x`.
    ReadLike,
    /// Readable and writable (`rw-` with D set — i.e. in-use data).
    ReadWrite,
    /// `PROT_NONE` or unmapped.
    NoneOrUnmapped,
}

impl ProbedPerm {
    /// The paper's Fig. 7 notation for the class.
    #[must_use]
    pub const fn notation(self) -> &'static str {
        match self {
            ProbedPerm::ReadLike => "(r--|r-x)",
            ProbedPerm::ReadWrite => "rw-",
            ProbedPerm::NoneOrUnmapped => "(---|unmap)",
        }
    }
}

impl fmt::Display for ProbedPerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.notation())
    }
}

/// Half-width of the calibrated decision corridor: the boundary sits 30
/// cycles above the fast path and the assist level ≥ 30 above that.
const BOUNDARY_SLACK: f64 = 30.0;

/// P5: permission classifier.
#[derive(Clone, Copy, Debug)]
pub struct PermissionAttack {
    /// Loads at or below this are "readable" (≈ base-op latency + slack).
    pub load_boundary: f64,
    /// Stores at or below this are "writable".
    pub store_boundary: f64,
    /// Measurement strategy per probe.
    pub strategy: ProbeStrategy,
    /// When set, the batched *load pass* (readable vs none/unmapped)
    /// runs through the adaptive sequential engine; the store pass only
    /// touches the readable minority and stays on the fixed strategy.
    pub sampler: Option<AdaptiveSampler>,
}

impl PermissionAttack {
    /// Calibrates both boundaries from one own readable page: fast-path
    /// latency + 30 cycles of slack (the assist adds ≥ 60).
    pub fn calibrate<P: Prober + ?Sized>(p: &mut P, own_readable_page: VirtAddr) -> Self {
        let strategy = ProbeStrategy::SecondOfTwo;
        let fast = strategy.measure(p, OpKind::Load, own_readable_page);
        Self {
            load_boundary: fast as f64 + BOUNDARY_SLACK,
            store_boundary: fast as f64 + BOUNDARY_SLACK,
            strategy,
            sampler: None,
        }
    }

    /// Number of timed samples [`PermissionAttack::calibrate_with`]
    /// collects for the robust estimators.
    pub const ROBUST_CALIBRATION_SAMPLES: usize = 16;

    /// Calibrates with an explicit threshold estimator, also returning
    /// the [`crate::CalibrationFit`] behind the boundaries (its σ is
    /// the environment dispersion the adaptive load pass should
    /// assume, via [`crate::Sampling::sampler_for_calibration`]).
    ///
    /// This is the one calibration path that does NOT share
    /// [`crate::Threshold::calibrate_with`]'s probe schedule: the
    /// permission corridor is anchored on the *fast* load level, not
    /// the dirty-assist level. [`crate::CalibratorKind::Legacy`]
    /// reproduces [`PermissionAttack::calibrate`] bit-exactly (one
    /// second-of-two fast-path measurement, σ reported as 0); the
    /// robust estimators time [`Self::ROBUST_CALIBRATION_SAMPLES`]
    /// loads after one warm-up and fit the floor from the series, so a
    /// wide-σ environment cannot drag the corridor down via an unlucky
    /// single measurement.
    pub fn calibrate_with<P: Prober + ?Sized>(
        p: &mut P,
        own_readable_page: VirtAddr,
        calibrator: crate::CalibratorKind,
    ) -> (Self, crate::CalibrationFit) {
        use crate::calibrate::Calibrator;
        if calibrator == crate::CalibratorKind::Legacy {
            let attack = Self::calibrate(p, own_readable_page);
            let fit = crate::CalibrationFit {
                threshold: crate::Threshold::new(
                    attack.load_boundary - BOUNDARY_SLACK,
                    BOUNDARY_SLACK,
                ),
                sigma: 0.0,
                estimator: "legacy",
            };
            return (attack, fit);
        }
        let _ = p.probe(OpKind::Load, own_readable_page); // warm the TLB
        let series: Vec<u64> = (0..Self::ROBUST_CALIBRATION_SAMPLES)
            .map(|_| p.probe(OpKind::Load, own_readable_page))
            .collect();
        let fit = calibrator.fit(&series);
        let attack = Self {
            load_boundary: fit.threshold.value + BOUNDARY_SLACK,
            store_boundary: fit.threshold.value + BOUNDARY_SLACK,
            strategy: ProbeStrategy::SecondOfTwo,
            sampler: None,
        };
        (attack, fit)
    }

    /// Builds with explicit boundaries.
    #[must_use]
    pub fn with_boundaries(load_boundary: f64, store_boundary: f64) -> Self {
        Self {
            load_boundary,
            store_boundary,
            strategy: ProbeStrategy::SecondOfTwo,
            sampler: None,
        }
    }

    /// Switches the load pass to adaptive sequential sampling: the two
    /// hypotheses straddle the calibrated load boundary symmetrically,
    /// so forced decisions coincide with the fixed boundary rule.
    #[must_use]
    pub fn with_adaptive(mut self, sigma: f64, config: AdaptiveConfig) -> Self {
        self.sampler = Some(AdaptiveSampler {
            mapped_mean: self.load_boundary - BOUNDARY_SLACK,
            unmapped_mean: self.load_boundary + BOUNDARY_SLACK,
            sigma,
            config,
        });
        self
    }

    /// Classifies one page with a load probe and, when readable, a
    /// store probe (the two-pass combination of §IV-F).
    pub fn classify_page<P: Prober + ?Sized>(&self, p: &mut P, page: VirtAddr) -> ProbedPerm {
        let load = self.strategy.measure(p, OpKind::Load, page);
        if load as f64 > self.load_boundary {
            return ProbedPerm::NoneOrUnmapped;
        }
        let store = self.strategy.measure(p, OpKind::Store, page);
        if store as f64 <= self.store_boundary {
            ProbedPerm::ReadWrite
        } else {
            ProbedPerm::ReadLike
        }
    }

    /// Classifies a batch of pages: one batched load pass over all of
    /// them, then one batched store pass over only the pages the load
    /// pass found readable — the same per-page decision procedure as
    /// [`PermissionAttack::classify_page`], restructured so the probe
    /// backend sees whole batches. Results come back in input order.
    pub fn classify_batch<P: Prober + ?Sized>(
        &self,
        p: &mut P,
        pages: &[VirtAddr],
    ) -> Vec<ProbedPerm> {
        let load_readable: Vec<bool> = match self.sampler {
            None => {
                let loads = self.strategy.measure_batch(p, OpKind::Load, pages);
                loads
                    .iter()
                    .map(|&cycles| cycles as f64 <= self.load_boundary)
                    .collect()
            }
            // Adaptive load pass: "mapped" in SPRT terms = fast =
            // readable.
            Some(sampler) => sampler.classify(p, OpKind::Load, pages).mapped,
        };
        let readable: Vec<(usize, VirtAddr)> = load_readable
            .iter()
            .enumerate()
            .filter(|&(_, &is_readable)| is_readable)
            .map(|(i, _)| (i, pages[i]))
            .collect();
        let store_addrs: Vec<VirtAddr> = readable.iter().map(|&(_, page)| page).collect();
        let stores = self.strategy.measure_batch(p, OpKind::Store, &store_addrs);

        let mut classes = vec![ProbedPerm::NoneOrUnmapped; pages.len()];
        for (&(index, _), store) in readable.iter().zip(stores) {
            classes[index] = if store as f64 <= self.store_boundary {
                ProbedPerm::ReadWrite
            } else {
                ProbedPerm::ReadLike
            };
        }
        classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::SimProber;
    use avx_mmu::{AddressSpace, PageSize, PteFlags};
    use avx_uarch::{CpuProfile, Machine, NoiseModel};

    fn fig3_prober() -> (SimProber, [VirtAddr; 5]) {
        let mut space = AddressSpace::new();
        let ro = VirtAddr::new_truncate(0x7f00_0000_0000);
        let rx = VirtAddr::new_truncate(0x7f00_0000_1000);
        let rw = VirtAddr::new_truncate(0x7f00_0000_2000);
        let none = VirtAddr::new_truncate(0x7f00_0000_3000);
        let own = VirtAddr::new_truncate(0x7f00_0000_4000);
        space
            .map(ro, PageSize::Size4K, PteFlags::user_ro())
            .unwrap();
        space
            .map(rx, PageSize::Size4K, PteFlags::user_rx())
            .unwrap();
        space
            .map(rw, PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        space.mark_accessed(rw, true).unwrap(); // in-use data page
        space
            .map(none, PageSize::Size4K, PteFlags::user_rw())
            .unwrap();
        space
            .protect(none, PageSize::Size4K, PteFlags::none_guard())
            .unwrap();
        space
            .map(own, PageSize::Size4K, PteFlags::user_ro())
            .unwrap();
        let mut m = Machine::new(CpuProfile::generic_desktop(), space, 11);
        m.set_noise(NoiseModel::none());
        (SimProber::new(m), [ro, rx, rw, none, own])
    }

    #[test]
    fn classifies_all_fig7_classes() {
        let (mut p, [ro, rx, rw, none, own]) = fig3_prober();
        let attack = PermissionAttack::calibrate(&mut p, own);
        assert_eq!(attack.classify_page(&mut p, ro), ProbedPerm::ReadLike);
        assert_eq!(attack.classify_page(&mut p, rx), ProbedPerm::ReadLike);
        assert_eq!(attack.classify_page(&mut p, rw), ProbedPerm::ReadWrite);
        assert_eq!(
            attack.classify_page(&mut p, none),
            ProbedPerm::NoneOrUnmapped
        );
        // A fully unmapped page merges with PROT_NONE.
        let wild = VirtAddr::new_truncate(0x7f00_1234_5000);
        assert_eq!(
            attack.classify_page(&mut p, wild),
            ProbedPerm::NoneOrUnmapped
        );
    }

    #[test]
    fn rx_and_ro_collapse_to_read_like() {
        let (mut p, [ro, rx, _, _, own]) = fig3_prober();
        let attack = PermissionAttack::calibrate(&mut p, own);
        assert_eq!(
            attack.classify_page(&mut p, ro),
            attack.classify_page(&mut p, rx),
            "paper: r-- and r-x are indistinguishable"
        );
    }

    #[test]
    fn calibrated_boundaries_are_near_base_cost() {
        let (mut p, [.., own]) = fig3_prober();
        let attack = PermissionAttack::calibrate(&mut p, own);
        assert!(attack.load_boundary > 16.0 && attack.load_boundary < 60.0);
    }

    #[test]
    fn adaptive_load_pass_classifies_identically_with_fewer_probes() {
        let (mut p, pages) = fig3_prober();
        let attack = PermissionAttack::calibrate(&mut p, pages[4]);
        let mut fixed_attack = attack;
        fixed_attack.strategy = ProbeStrategy::MinOf(8);
        let adaptive_attack = attack.with_adaptive(1.0, AdaptiveConfig::default());

        let candidates: Vec<VirtAddr> = pages[..4].to_vec();
        let fixed_before = p.probes_issued();
        let fixed = fixed_attack.classify_batch(&mut p, &candidates);
        let fixed_probes = p.probes_issued() - fixed_before;
        let adaptive_before = p.probes_issued();
        let adaptive = adaptive_attack.classify_batch(&mut p, &candidates);
        let adaptive_probes = p.probes_issued() - adaptive_before;
        assert_eq!(adaptive, fixed);
        assert!(
            adaptive_probes < fixed_probes,
            "adaptive {adaptive_probes} vs fixed {fixed_probes}"
        );
    }

    #[test]
    fn notation_matches_fig7() {
        assert_eq!(ProbedPerm::ReadLike.notation(), "(r--|r-x)");
        assert_eq!(ProbedPerm::ReadWrite.to_string(), "rw-");
        assert_eq!(ProbedPerm::NoneOrUnmapped.notation(), "(---|unmap)");
    }
}
