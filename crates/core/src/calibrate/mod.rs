//! Threshold calibration (§IV-B) — now a swappable subsystem.
//!
//! The attack needs a cycle threshold separating kernel-mapped from
//! unmapped probe times *without ever having seen a known kernel page*.
//! The paper's trick: a masked store to a user page whose dirty bit is
//! clear triggers the dirty-bit microcode assist, and its latency equals
//! the kernel-mapped masked-load latency. Timing a few such stores on
//! an own, never-written page yields the reference level directly.
//!
//! Turning those raw timings into a [`Threshold`] is an *estimation*
//! problem, and the right estimator depends on the noise environment:
//!
//! * [`Legacy`] — the original min-pulled floor (`min(mean, min + 2)`).
//!   Optimal on a quiet host where the minimum IS the floor, but on a
//!   wide-σ machine (the `laptop` DVFS preset, σ×6) the minimum of n
//!   Gaussian samples drifts ≈ 1.7 σ *below* the true level, dragging
//!   the decision boundary with it — the calibration bottleneck the
//!   ROADMAP recorded after PR 2.
//! * [`Trimmed`] — midmean (25 % trimmed mean) location with a MAD
//!   scale estimate: unbiased under symmetric jitter of any width,
//!   immune to one-sided interrupt-spike contamination (NetSpectre's
//!   difference-of-means lesson, applied to the floor estimate).
//! * [`Bimodal`] — a deterministic two-component Gaussian EM re-fit
//!   that recovers the mapped/unmapped means *and* the environment σ
//!   from a sample set that contains both populations (e.g. one full
//!   512-slot sweep), falling back to [`Trimmed`] on single-mode input.
//! * [`NoiseAware`] — the auto-selector: measures the dispersion of the
//!   calibration samples ([`crate::stats::mad_sigma`]) and picks
//!   [`Legacy`] below [`NOISE_AWARE_SIGMA_CUTOFF`], [`Trimmed`] above
//!   it. Quiet-host calibrations remain bit-exact with the historical
//!   code; wide-σ environments get the robust floor.
//!
//! Estimators implement the [`Calibrator`] trait; [`CalibratorKind`] is
//! the `Copy` handle that campaign configs, attacks and the `repro
//! --calibrator <name>` flag thread around.
//!
//! # Example: one calibration, four estimators
//!
//! ```
//! use avx_channel::calibrate::{CalibratorKind, Threshold};
//! use avx_channel::SimProber;
//! use avx_os::linux::{LinuxConfig, LinuxSystem};
//! use avx_uarch::CpuProfile;
//!
//! let sys = LinuxSystem::build(LinuxConfig::seeded(7));
//! let (machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 7);
//! let mut p = SimProber::new(machine);
//!
//! // The historical entry point is the Legacy estimator, bit-exact:
//! let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
//!
//! // The full subsystem returns a CalibrationFit: threshold + robust
//! // dispersion estimate + which estimator actually produced it.
//! let fit = Threshold::calibrate_with(
//!     &mut p,
//!     truth.user.calibration,
//!     16,
//!     CalibratorKind::NoiseAware,
//! );
//! assert_eq!(fit.estimator, "legacy"); // quiet host → Legacy selected
//! assert!(fit.threshold.is_mapped(93));
//! assert!(!fit.threshold.is_mapped(107));
//! assert!((fit.threshold.value - th.value).abs() < 1e-12);
//! ```

use core::fmt;

use avx_mmu::VirtAddr;
use avx_uarch::OpKind;

use crate::prober::Prober;
use crate::stats::{mad_sigma, two_means_threshold, SampleRuns};

mod em;
mod legacy;
mod robust;

pub use em::{fit_two_gaussians, Bimodal, GaussianMixFit};
pub use legacy::Legacy;
pub use robust::Trimmed;

/// A mapped/unmapped decision threshold in cycles.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Threshold {
    /// The calibrated reference latency (≈ the kernel-mapped level).
    pub value: f64,
    /// Acceptance margin above `value` (defaults to half the
    /// mapped↔unmapped gap the paper reports, 14/2 = 7 cycles).
    pub margin: f64,
}

/// Default acceptance margin in cycles.
pub const DEFAULT_MARGIN: f64 = 7.0;

/// One fitted calibration: the threshold plus the evidence behind it.
///
/// Produced by [`Calibrator::fit`] / [`Threshold::calibrate_with`]. The
/// extra fields feed the adaptive engine:
/// [`crate::AdaptiveSampler::from_fit`] builds its SPRT hypotheses from
/// `threshold` and its likelihood σ from `sigma`, so a robustly
/// calibrated attack also models the environment it measured instead of
/// assuming a quiet host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CalibrationFit {
    /// The fitted decision threshold.
    pub threshold: Threshold,
    /// Robust dispersion estimate of the calibration samples (cycles);
    /// what the environment's Gaussian σ looks like from the attacker's
    /// seat.
    pub sigma: f64,
    /// Name of the estimator that actually produced the fit (for
    /// [`NoiseAware`] / [`Bimodal`] this reports the concrete fallback
    /// taken, not the selector).
    pub estimator: &'static str,
}

/// A threshold estimator: turns raw calibration-page timings into a
/// [`CalibrationFit`].
///
/// Implementations must be deterministic pure functions of the sample
/// slice — the campaign golden suite pins their outputs — and must
/// accept degenerate input (empty, single-sample, zero-variance)
/// without panicking.
pub trait Calibrator {
    /// Stable estimator name (what `repro --calibrator` accepts).
    fn name(&self) -> &'static str;

    /// Fits a threshold from calibration samples, in probe order.
    fn fit(&self, samples: &[u64]) -> CalibrationFit;
}

/// MAD-σ above which [`NoiseAware`] abandons the min-pulled [`Legacy`]
/// floor for the robust [`Trimmed`] estimator.
///
/// The quiet and SMT presets of the evaluated profiles sit at σ ≈ 1 and
/// σ ≈ 3; the expected min-pull bias of n = 16 samples (≈ 1.7 σ) stays
/// inside the legacy `min + 2` clamp for σ ⪅ 1.2, so anything clearly
/// above that needs the robust floor. 2.0 splits the presets with slack
/// on both sides.
pub const NOISE_AWARE_SIGMA_CUTOFF: f64 = 2.0;

/// Dispersion-driven estimator auto-selection: [`Legacy`] in
/// low-dispersion environments (bit-exact with the historical
/// calibration), [`Trimmed`] once the measured MAD-σ exceeds
/// [`NOISE_AWARE_SIGMA_CUTOFF`].
///
/// The selection is data-driven — the attacker needs no oracle
/// knowledge of the victim's [`avx_uarch::NoiseProfile`]; the
/// calibration samples themselves reveal the dispersion.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoiseAware;

impl Calibrator for NoiseAware {
    fn name(&self) -> &'static str {
        "noise-aware"
    }

    fn fit(&self, samples: &[u64]) -> CalibrationFit {
        let dispersion = mad_sigma(samples).unwrap_or(0.0);
        if dispersion <= NOISE_AWARE_SIGMA_CUTOFF {
            Legacy.fit(samples)
        } else {
            Trimmed.fit(samples)
        }
    }
}

/// `Copy` handle naming one of the built-in estimators — what
/// [`crate::attacks::campaign::CampaignConfig`] and the
/// `repro --calibrator` flag carry around.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CalibratorKind {
    /// The historical min-pulled floor ([`Legacy`]); the default, and
    /// bit-exact with the pre-subsystem `Threshold::calibrate`.
    #[default]
    Legacy,
    /// Midmean/MAD robust floor ([`Trimmed`]).
    Trimmed,
    /// Two-component Gaussian EM re-fit ([`Bimodal`]).
    Bimodal,
    /// Dispersion-driven auto-selection ([`NoiseAware`]).
    NoiseAware,
}

impl CalibratorKind {
    /// All built-in estimators, default first.
    pub const ALL: [CalibratorKind; 4] = [
        CalibratorKind::Legacy,
        CalibratorKind::Trimmed,
        CalibratorKind::Bimodal,
        CalibratorKind::NoiseAware,
    ];

    /// Stable identifier (also what [`CalibratorKind::parse`] accepts).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            CalibratorKind::Legacy => "legacy",
            CalibratorKind::Trimmed => "trimmed",
            CalibratorKind::Bimodal => "bimodal",
            CalibratorKind::NoiseAware => "noise-aware",
        }
    }

    /// Parses an estimator name (`legacy`, `trimmed`, `bimodal`,
    /// `noise-aware`, plus the aliases `min`, `midmean`, `em`, `auto`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "legacy" | "min" => Some(CalibratorKind::Legacy),
            "trimmed" | "midmean" => Some(CalibratorKind::Trimmed),
            "bimodal" | "em" => Some(CalibratorKind::Bimodal),
            "noise-aware" | "noiseaware" | "auto" => Some(CalibratorKind::NoiseAware),
            _ => None,
        }
    }
}

impl Calibrator for CalibratorKind {
    fn name(&self) -> &'static str {
        (*self).name()
    }

    fn fit(&self, samples: &[u64]) -> CalibrationFit {
        match self {
            CalibratorKind::Legacy => Legacy.fit(samples),
            CalibratorKind::Trimmed => Trimmed.fit(samples),
            CalibratorKind::Bimodal => Bimodal.fit(samples),
            CalibratorKind::NoiseAware => NoiseAware.fit(samples),
        }
    }
}

impl fmt::Display for CalibratorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// Collects the §IV-B calibration series: warm the translation with a
/// masked load (TLB hit for every timed sample), then time `samples`
/// all-zero-mask stores. The zero mask never sets D, so every store
/// replays the dirty assist and the series sits on the kernel-mapped
/// latency level.
fn collect_reference_series<P: Prober + ?Sized>(
    p: &mut P,
    page: VirtAddr,
    samples: usize,
) -> Vec<u64> {
    let _ = p.probe(OpKind::Load, page);
    (0..samples.max(1))
        .map(|_| p.probe(OpKind::Store, page))
        .collect()
}

impl Threshold {
    /// Builds a threshold from an explicit reference value.
    #[must_use]
    pub fn new(value: f64, margin: f64) -> Self {
        Self { value, margin }
    }

    /// Calibrates per the paper with the default [`Legacy`] estimator:
    /// warm the calibration page's translation with a masked load, then
    /// time `samples` all-zero-mask stores and take the min-pulled
    /// floor. Bit-exact with the pre-subsystem implementation.
    ///
    /// `calibration_page` must be a writable, never-written (D = 0) page
    /// owned by the attacker — [`avx_os::linux::UserContext::calibration`]
    /// provides one. See [`Threshold::calibrate_with`] to choose the
    /// estimator.
    pub fn calibrate<P: Prober + ?Sized>(
        p: &mut P,
        calibration_page: VirtAddr,
        samples: usize,
    ) -> Self {
        Self::calibrate_with(p, calibration_page, samples, CalibratorKind::Legacy).threshold
    }

    /// Calibrates with an explicit estimator; identical probe schedule
    /// to [`Threshold::calibrate`] (one warm-up load + `samples` timed
    /// stores), the estimators differ only in how they turn the series
    /// into a threshold.
    pub fn calibrate_with<P: Prober + ?Sized, C: Calibrator>(
        p: &mut P,
        calibration_page: VirtAddr,
        samples: usize,
        calibrator: C,
    ) -> CalibrationFit {
        calibrator.fit(&collect_reference_series(p, calibration_page, samples))
    }

    /// Store-probe calibration (P6) with the default [`Legacy`]
    /// estimator: a masked *store* to an own non-writable page pays
    /// `base_store + assist_store` — exactly the kernel-mapped
    /// masked-store latency, i.e. the reference level for store-based
    /// scans (§IV-F probes with stores to save the 16–18 cycle
    /// load/store delta on every probe).
    ///
    /// `read_only_page` must be an own mapped page without write
    /// permission (the attacker's text section works).
    pub fn calibrate_store<P: Prober + ?Sized>(
        p: &mut P,
        read_only_page: VirtAddr,
        samples: usize,
    ) -> Self {
        Self::calibrate_store_with(p, read_only_page, samples, CalibratorKind::Legacy).threshold
    }

    /// [`Threshold::calibrate_store`] with an explicit estimator.
    pub fn calibrate_store_with<P: Prober + ?Sized, C: Calibrator>(
        p: &mut P,
        read_only_page: VirtAddr,
        samples: usize,
        calibrator: C,
    ) -> CalibrationFit {
        calibrator.fit(&collect_reference_series(p, read_only_page, samples))
    }

    /// The historical k-means bootstrap: split a bimodal sample set
    /// (e.g. one full 512-slot scan) into two clusters and threshold at
    /// the midpoint.
    ///
    /// **Superseded** by [`Threshold::refit_bimodal`] for the
    /// no-calibration-page path (Windows guests) and for in-scan
    /// recalibration ([`crate::recal::Recalibrating`]): the EM re-fit
    /// places the boundary at the same midpoint on clean input (pinned
    /// within tolerance by `crates/core/tests/recal_props.rs`) and
    /// additionally recovers the environment σ the adaptive engine
    /// needs. Kept as a fallback for landscapes the EM
    /// separation-honesty check rejects.
    ///
    /// Interrupt spikes would otherwise form their own far-away cluster
    /// and swallow both real bands, so the top few percent of samples
    /// are trimmed before clustering.
    #[must_use]
    pub fn from_bimodal_samples(samples: &[u64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let keep = (sorted.len() * 97).div_ceil(100).max(1);
        let trimmed = &sorted[..keep];
        two_means_threshold(trimmed).map(|mid| Self {
            // `is_mapped` accepts value + margin; center the midpoint.
            value: mid - DEFAULT_MARGIN,
            margin: DEFAULT_MARGIN,
        })
    }

    /// Re-fits the threshold from a sweep's *bimodal* sample set via
    /// the two-component EM estimator: value lands on the fitted mapped
    /// mean, margin on half the fitted mode gap, and the returned fit
    /// carries the recovered environment σ. `None` when the samples do
    /// not separate into two modes (see [`fit_two_gaussians`]).
    ///
    /// This is the in-scan re-estimation primitive: a sweep's own raw
    /// series contains both timing populations, so an attack can keep
    /// its calibration honest without ever revisiting a calibration
    /// page — the closed-loop [`crate::recal::Recalibrating`] driver
    /// calls this on its drift window, and a Windows guest with no
    /// clean calibration page can bootstrap from a first blind pass:
    ///
    /// ```
    /// use avx_channel::{KernelBaseFinder, SimProber, Threshold};
    /// use avx_os::linux::{LinuxConfig, LinuxSystem};
    /// use avx_uarch::CpuProfile;
    ///
    /// let sys = LinuxSystem::build(LinuxConfig::seeded(62));
    /// let (machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 62);
    /// let mut p = SimProber::new(machine);
    ///
    /// // A blind first pass (threshold irrelevant) just collects the series...
    /// let bootstrap = KernelBaseFinder::new(Threshold::new(0.0, 0.0)).scan(&mut p);
    /// // ...and the EM re-fit recovers threshold, margin and live σ from it.
    /// let fit = Threshold::refit_bimodal(&bootstrap.samples).expect("two bands");
    /// assert!(fit.threshold.is_mapped(93) && !fit.threshold.is_mapped(107));
    /// assert!(fit.sigma > 0.0);
    /// let scan = KernelBaseFinder::new(fit.threshold).scan(&mut p);
    /// assert_eq!(scan.base, Some(truth.kernel_base));
    /// ```
    #[must_use]
    pub fn refit_bimodal(samples: &[u64]) -> Option<CalibrationFit> {
        Self::refit_bimodal_runs(SampleRuns::from_unsorted(samples.iter().copied()).runs())
    }

    /// [`Threshold::refit_bimodal`] over samples already sorted into
    /// runs (a [`SampleRuns`]).
    pub(crate) fn refit_bimodal_runs(runs: &[(u64, usize)]) -> Option<CalibrationFit> {
        let mix = em::fit_runs(runs)?;
        mix.is_separated().then(|| CalibrationFit {
            threshold: Threshold::new(mix.lo_mean, (mix.hi_mean - mix.lo_mean) / 2.0),
            sigma: mix.sigma,
            estimator: "bimodal",
        })
    }

    /// Classifies one measured latency.
    #[must_use]
    pub fn is_mapped(&self, cycles: u64) -> bool {
        (cycles as f64) <= self.value + self.margin
    }

    /// The effective decision boundary.
    #[must_use]
    pub fn boundary(&self) -> f64 {
        self.value + self.margin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prober::SimProber;
    use avx_os::linux::{LinuxConfig, LinuxSystem};
    use avx_uarch::{CpuProfile, NoiseModel, NoiseProfile};

    fn prober(seed: u64) -> (SimProber, avx_os::linux::LinuxTruth) {
        let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
        let (mut machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
        machine.set_noise(NoiseModel::none());
        (SimProber::new(machine), truth)
    }

    fn noisy_prober(seed: u64, noise: NoiseProfile) -> (SimProber, avx_os::linux::LinuxTruth) {
        let sys = LinuxSystem::build(LinuxConfig::seeded(seed));
        let (mut machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), seed);
        machine.set_noise_profile(noise);
        (SimProber::new(machine), truth)
    }

    #[test]
    fn calibrated_threshold_separates_mapped_from_unmapped() {
        let (mut p, truth) = prober(1);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
        // Kernel-mapped steady load = 93, unmapped = 107 on Alder Lake.
        assert!(th.is_mapped(93), "boundary {}", th.boundary());
        assert!(!th.is_mapped(107), "boundary {}", th.boundary());
    }

    #[test]
    fn calibrated_value_matches_identity() {
        let (mut p, truth) = prober(2);
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 16);
        // base_load + assist_load = 93 on this profile.
        assert!((th.value - 93.0).abs() <= 2.0, "value {}", th.value);
    }

    #[test]
    fn calibration_survives_noise() {
        let sys = LinuxSystem::build(LinuxConfig::seeded(3));
        let (machine, truth) = sys.into_machine(CpuProfile::alder_lake_i5_12400f(), 3);
        let mut p = SimProber::new(machine); // profile noise stays on
        let th = Threshold::calibrate(&mut p, truth.user.calibration, 32);
        assert!(th.value > 85.0 && th.value < 101.0, "value {}", th.value);
    }

    #[test]
    fn bimodal_fallback() {
        let mut samples = Vec::new();
        for i in 0..200u64 {
            samples.push(92 + (i % 3));
            samples.push(106 + (i % 3));
        }
        let th = Threshold::from_bimodal_samples(&samples).unwrap();
        assert!(th.is_mapped(93));
        assert!(!th.is_mapped(107));
        assert!(Threshold::from_bimodal_samples(&[5, 5, 5]).is_none());
    }

    #[test]
    fn explicit_threshold_boundary() {
        let th = Threshold::new(93.0, 7.0);
        assert!(th.is_mapped(100));
        assert!(!th.is_mapped(101));
        assert_eq!(th.boundary(), 100.0);
    }

    #[test]
    fn calibrate_with_legacy_is_bit_identical_to_calibrate() {
        for seed in [1, 9, 23] {
            let (mut p1, truth1) = prober(seed);
            let th = Threshold::calibrate(&mut p1, truth1.user.calibration, 16);
            let (mut p2, truth2) = prober(seed);
            let fit = Threshold::calibrate_with(
                &mut p2,
                truth2.user.calibration,
                16,
                CalibratorKind::Legacy,
            );
            assert_eq!(fit.threshold, th, "seed {seed}");
            assert_eq!(fit.estimator, "legacy");
            assert_eq!(p1.probes_issued(), p2.probes_issued(), "probe schedule");
        }
    }

    #[test]
    fn every_estimator_lands_on_the_reference_level_when_quiet() {
        let (mut p, truth) = prober(5);
        for kind in CalibratorKind::ALL {
            let fit = Threshold::calibrate_with(&mut p, truth.user.calibration, 16, kind);
            assert!(
                (fit.threshold.value - 93.0).abs() <= 2.0,
                "{kind}: value {}",
                fit.threshold.value
            );
            assert!(fit.sigma >= 0.0, "{kind}");
        }
    }

    #[test]
    fn noise_aware_picks_legacy_quiet_and_trimmed_on_the_laptop() {
        let (mut p, truth) = noisy_prober(11, NoiseProfile::Quiet);
        let quiet = Threshold::calibrate_with(
            &mut p,
            truth.user.calibration,
            16,
            CalibratorKind::NoiseAware,
        );
        assert_eq!(quiet.estimator, "legacy");

        let (mut p, truth) = noisy_prober(11, NoiseProfile::LaptopDvfs);
        let laptop = Threshold::calibrate_with(
            &mut p,
            truth.user.calibration,
            16,
            CalibratorKind::NoiseAware,
        );
        assert_eq!(laptop.estimator, "trimmed");
        // The robust floor stays on the reference level even at σ×6;
        // the min-pulled floor would have drifted several cycles low.
        assert!(
            (laptop.threshold.value - 93.0).abs() <= 5.0,
            "laptop value {}",
            laptop.threshold.value
        );
        assert!(laptop.sigma > NOISE_AWARE_SIGMA_CUTOFF, "{}", laptop.sigma);
    }

    #[test]
    fn legacy_floor_drifts_low_on_the_laptop_preset() {
        // The documented limitation this subsystem exists to fix: the
        // min-pulled floor under σ×6 lands well below the robust floor.
        let (mut p, truth) = noisy_prober(13, NoiseProfile::LaptopDvfs);
        let legacy =
            Threshold::calibrate_with(&mut p, truth.user.calibration, 16, CalibratorKind::Legacy);
        let (mut p, truth) = noisy_prober(13, NoiseProfile::LaptopDvfs);
        let trimmed =
            Threshold::calibrate_with(&mut p, truth.user.calibration, 16, CalibratorKind::Trimmed);
        assert!(
            legacy.threshold.value < trimmed.threshold.value - 3.0,
            "legacy {} vs trimmed {}",
            legacy.threshold.value,
            trimmed.threshold.value
        );
    }

    #[test]
    fn refit_bimodal_recovers_both_modes_and_sigma() {
        let mut samples = Vec::new();
        for i in 0..300u64 {
            samples.push(91 + (i % 5)); // 91..95, mean 93
            samples.push(105 + (i % 5)); // 105..109, mean 107
        }
        let fit = Threshold::refit_bimodal(&samples).unwrap();
        assert!((fit.threshold.value - 93.0).abs() < 1.0, "{fit:?}");
        assert!((fit.threshold.boundary() - 100.0).abs() < 1.5, "{fit:?}");
        assert!(fit.sigma < 3.0, "{fit:?}");
        assert!(Threshold::refit_bimodal(&[93, 93, 93]).is_none());
    }

    #[test]
    fn kind_names_round_trip_through_parse() {
        for kind in CalibratorKind::ALL {
            assert_eq!(CalibratorKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(CalibratorKind::parse("EM"), Some(CalibratorKind::Bimodal));
        assert_eq!(
            CalibratorKind::parse("auto"),
            Some(CalibratorKind::NoiseAware)
        );
        assert_eq!(CalibratorKind::parse("min"), Some(CalibratorKind::Legacy));
        assert_eq!(CalibratorKind::parse("bogus"), None);
        assert_eq!(CalibratorKind::default(), CalibratorKind::Legacy);
    }
}
