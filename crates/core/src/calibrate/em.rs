//! Two-component Gaussian mixture re-fit (EM), deterministic.

use crate::stats::{SampleRuns, Welford};

use super::{CalibrationFit, Calibrator, Threshold, Trimmed};

/// σ floor during EM: keeps responsibilities finite when a component
/// tries to collapse onto duplicated samples.
const EM_SIGMA_FLOOR: f64 = 0.25;

/// Maximum EM iterations; convergence is typically < 30.
const EM_MAX_ITERATIONS: u32 = 200;

/// Mean shift below which the fit counts as converged.
const EM_TOLERANCE: f64 = 1e-9;

/// A converged two-component, shared-σ Gaussian mixture fit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaussianMixFit {
    /// Mean of the low-latency (mapped) component.
    pub lo_mean: f64,
    /// Mean of the high-latency (unmapped) component.
    pub hi_mean: f64,
    /// Shared within-component standard deviation.
    pub sigma: f64,
    /// Mixture weight of the low component, in `(0, 1)`.
    pub lo_weight: f64,
    /// Number of samples the fit consumed.
    pub n: usize,
    /// EM iterations until convergence.
    pub iterations: u32,
}

impl GaussianMixFit {
    /// Distance between the two fitted modes (cycles, ≥ 0).
    #[must_use]
    pub fn gap(&self) -> f64 {
        self.hi_mean - self.lo_mean
    }

    /// The decision midpoint between the modes.
    #[must_use]
    pub fn midpoint(&self) -> f64 {
        (self.lo_mean + self.hi_mean) / 2.0
    }

    /// The total standard deviation the fitted mixture implies:
    /// `√(w·(1−w)·gap² + σ²)` — what a single-mode estimator would have
    /// reported for the same data.
    #[must_use]
    pub fn implied_total_sigma(&self) -> f64 {
        let w = self.lo_weight;
        (w * (1.0 - w) * self.gap() * self.gap() + self.sigma * self.sigma).sqrt()
    }

    /// Whether the fit describes two genuinely separate modes rather
    /// than an unimodal sample set EM split down the middle.
    ///
    /// EM bisects *any* unimodal set into two overlapping halves: a
    /// single Gaussian yields a spurious gap of ≈ 1.6 × its total σ, a
    /// uniform band ≈ 1.73 ×. A genuinely bimodal set puts most of the
    /// total dispersion *into* the gap, so requiring
    /// `gap ≥ 1.9 × implied_total_sigma` rejects every unimodal
    /// artifact while accepting real mapped/unmapped structure; both
    /// components must also carry ≥ 3 effective samples (one stray
    /// reading is not a mode).
    #[must_use]
    pub fn is_separated(&self) -> bool {
        let min_mass = self.lo_weight.min(1.0 - self.lo_weight) * self.n as f64;
        min_mass >= 3.0 && self.gap() >= 1.9 * self.implied_total_sigma()
    }
}

/// Fits a two-component, shared-σ Gaussian mixture to `samples` by
/// expectation-maximization. Fully deterministic: initialization splits
/// the sorted samples at the median (lower-half mean vs upper-half
/// mean), so the same input always converges to the same fit.
///
/// Returns `None` on inputs EM cannot say anything about: fewer than 4
/// samples or fewer than 2 distinct values (zero variance). Single-mode
/// inputs *do* return a fit — EM happily bisects one Gaussian — which
/// is why consumers must check [`GaussianMixFit::is_separated`] before
/// trusting the modes.
///
/// # Run-length evaluation
///
/// Cycle counts repeat heavily (a 128-sample window holds a few dozen
/// distinct values), so the samples are sorted once into `(value,
/// count)` runs (`stats::SampleRuns`) and each E-step evaluates the
/// responsibility and the three per-sample sufficient-statistic terms
/// once per *run*, then adds them once per sample, in sample order. The
/// terms are pure functions of the sample value, and the sums see the
/// same addends in the same order as a per-sample loop, so every
/// iterate — and with it the convergence test and the iteration count —
/// is bit-identical to it. The two `ln(weight)` terms are hoisted out
/// of the loop, and the larger of the two log-densities skips its
/// `exp`: shifted by itself it is exactly `exp(0.0) = 1.0`.
#[must_use]
pub fn fit_two_gaussians(samples: &[u64]) -> Option<GaussianMixFit> {
    fit_runs(SampleRuns::from_unsorted(samples.iter().copied()).runs())
}

/// [`fit_two_gaussians`] over samples already sorted into runs (a
/// [`SampleRuns`]): the drift window hands its runs over as they are.
pub(crate) fn fit_runs(runs: &[(u64, usize)]) -> Option<GaussianMixFit> {
    let count: usize = runs.iter().map(|&(_, count)| count).sum();
    if count < 4 || runs.len() < 2 {
        return None; // too few samples, or zero variance: nothing to split
    }
    // The sorted samples, one addend per sample, as the Welford
    // accumulations below see them.
    let sorted = || {
        runs.iter()
            .flat_map(|&(x, count)| std::iter::repeat_n(x as f64, count))
    };

    fn welford(part: impl Iterator<Item = f64>) -> Welford {
        let mut w = Welford::new();
        w.extend(part);
        w
    }

    // Deterministic initialization: median split.
    let mid = count / 2;
    let mut lo = welford(sorted().take(mid)).mean();
    let mut hi = welford(sorted().skip(mid)).mean();
    let mut sigma = (welford(sorted()).stddev() / 2.0).max(EM_SIGMA_FLOOR);
    let mut lo_weight = 0.5f64;
    let n = count as f64;

    for iteration in 1..=EM_MAX_ITERATIONS {
        // E-step: responsibility of the *high* component per sample,
        // computed against the max exponent for stability.
        let inv_two_var = 1.0 / (2.0 * sigma * sigma);
        let ln_lo = lo_weight.max(1e-12).ln();
        let ln_hi = (1.0 - lo_weight).max(1e-12).ln();
        let (mut sum_r, mut sum_x_lo, mut sum_x_hi, mut sum_sq) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for &(x, count) in runs {
            let x = x as f64;
            let log_lo = ln_lo - (x - lo) * (x - lo) * inv_two_var;
            let log_hi = ln_hi - (x - hi) * (x - hi) * inv_two_var;
            let (p_lo, p_hi) = if log_lo >= log_hi {
                (1.0, (log_hi - log_lo).exp())
            } else {
                ((log_lo - log_hi).exp(), 1.0)
            };
            let r_hi = p_hi / (p_lo + p_hi);
            let x_lo = (1.0 - r_hi) * x;
            let x_hi = r_hi * x;
            let sq = (1.0 - r_hi) * (x - lo) * (x - lo) + r_hi * (x - hi) * (x - hi);
            for _ in 0..count {
                sum_r += r_hi;
                sum_x_lo += x_lo;
                sum_x_hi += x_hi;
                sum_sq += sq;
            }
        }

        // M-step.
        let w_hi = sum_r / n;
        let w_lo = 1.0 - w_hi;
        let new_lo = if w_lo * n > 1e-9 {
            sum_x_lo / (w_lo * n)
        } else {
            lo
        };
        let new_hi = if w_hi * n > 1e-9 {
            sum_x_hi / (w_hi * n)
        } else {
            hi
        };
        let new_sigma = (sum_sq / n).sqrt().max(EM_SIGMA_FLOOR);

        let shift = (new_lo - lo).abs() + (new_hi - hi).abs();
        lo = new_lo;
        hi = new_hi;
        sigma = new_sigma;
        lo_weight = w_lo;
        if shift < EM_TOLERANCE {
            return Some(finish(lo, hi, sigma, lo_weight, count, iteration));
        }
    }
    Some(finish(lo, hi, sigma, lo_weight, count, EM_MAX_ITERATIONS))
}

/// Orders the components and packages the fit.
fn finish(
    lo: f64,
    hi: f64,
    sigma: f64,
    lo_weight: f64,
    n: usize,
    iterations: u32,
) -> GaussianMixFit {
    let (lo_mean, hi_mean, lo_weight) = if lo <= hi {
        (lo, hi, lo_weight)
    } else {
        (hi, lo, 1.0 - lo_weight)
    };
    GaussianMixFit {
        lo_mean,
        hi_mean,
        sigma,
        lo_weight,
        n,
        iterations,
    }
}

/// EM-based calibrator: re-fits both timing modes from the samples.
///
/// Fed a genuinely bimodal series (a sweep containing mapped *and*
/// unmapped candidates), the fit recovers the mapped mean (threshold
/// value), half the mode gap (margin — so the decision boundary lands
/// exactly between the modes) and the environment σ. The top 3 % of
/// samples are discarded first so interrupt spikes cannot masquerade as
/// the high mode, mirroring [`Threshold::from_bimodal_samples`].
///
/// Fed the *unimodal* calibration-page series, the separation check
/// rejects EM's artificial split and the fit falls back to the robust
/// [`Trimmed`] estimator (the reported
/// [`CalibrationFit::estimator`] says which path was taken).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Bimodal;

impl Calibrator for Bimodal {
    fn name(&self) -> &'static str {
        "bimodal"
    }

    fn fit(&self, samples: &[u64]) -> CalibrationFit {
        let mut despiked = SampleRuns::from_unsorted(samples.iter().copied());
        despiked.truncate((samples.len() * 97).div_ceil(100));
        if let Some(mix) = fit_runs(despiked.runs()) {
            if mix.is_separated() {
                return CalibrationFit {
                    threshold: Threshold::new(mix.lo_mean, mix.gap() / 2.0),
                    sigma: mix.sigma,
                    estimator: "bimodal",
                };
            }
        }
        Trimmed.fit(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_bands(per_band: u64) -> Vec<u64> {
        let mut samples = Vec::new();
        for i in 0..per_band {
            samples.push(91 + (i % 5)); // mean 93
            samples.push(105 + (i % 5)); // mean 107
        }
        samples
    }

    /// The same EM evaluated sample by sample, with both `exp`s and
    /// both `ln`s per sample: the oracle of the differential test below.
    fn per_sample_em(samples: &[u64]) -> Option<GaussianMixFit> {
        if samples.len() < 4 {
            return None;
        }
        let mut sorted: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        sorted.sort_unstable_by(f64::total_cmp);
        if sorted.first() == sorted.last() {
            return None; // zero variance: nothing to split
        }

        // Deterministic initialization: median split.
        let mid = sorted.len() / 2;
        let half_mean = |part: &[f64]| {
            let mut w = Welford::new();
            w.extend(part.iter().copied());
            w.mean()
        };
        let mut lo = half_mean(&sorted[..mid]);
        let mut hi = half_mean(&sorted[mid..]);
        let mut sigma = {
            let mut w = Welford::new();
            w.extend(sorted.iter().copied());
            (w.stddev() / 2.0).max(EM_SIGMA_FLOOR)
        };
        let mut lo_weight = 0.5f64;
        let n = sorted.len() as f64;

        for iteration in 1..=EM_MAX_ITERATIONS {
            // E-step: responsibility of the *high* component per sample,
            // computed against the max exponent for stability.
            let inv_two_var = 1.0 / (2.0 * sigma * sigma);
            let (mut sum_r, mut sum_x_lo, mut sum_x_hi, mut sum_sq) =
                (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for &x in &sorted {
                let log_lo = lo_weight.max(1e-12).ln() - (x - lo) * (x - lo) * inv_two_var;
                let log_hi = (1.0 - lo_weight).max(1e-12).ln() - (x - hi) * (x - hi) * inv_two_var;
                let m = log_lo.max(log_hi);
                let p_lo = (log_lo - m).exp();
                let p_hi = (log_hi - m).exp();
                let r_hi = p_hi / (p_lo + p_hi);
                sum_r += r_hi;
                sum_x_lo += (1.0 - r_hi) * x;
                sum_x_hi += r_hi * x;
                sum_sq += (1.0 - r_hi) * (x - lo) * (x - lo) + r_hi * (x - hi) * (x - hi);
            }

            // M-step.
            let w_hi = sum_r / n;
            let w_lo = 1.0 - w_hi;
            let new_lo = if w_lo * n > 1e-9 {
                sum_x_lo / (w_lo * n)
            } else {
                lo
            };
            let new_hi = if w_hi * n > 1e-9 {
                sum_x_hi / (w_hi * n)
            } else {
                hi
            };
            let new_sigma = (sum_sq / n).sqrt().max(EM_SIGMA_FLOOR);

            let shift = (new_lo - lo).abs() + (new_hi - hi).abs();
            lo = new_lo;
            hi = new_hi;
            sigma = new_sigma;
            lo_weight = w_lo;
            if shift < EM_TOLERANCE {
                return Some(finish(lo, hi, sigma, lo_weight, sorted.len(), iteration));
            }
        }
        Some(finish(
            lo,
            hi,
            sigma,
            lo_weight,
            sorted.len(),
            EM_MAX_ITERATIONS,
        ))
    }

    /// Every field of a fit as raw bits, so `-0.0`/`0.0` or NaN payload
    /// differences cannot hide behind `f64` equality.
    fn fit_bits(fit: Option<GaussianMixFit>) -> Option<[u64; 6]> {
        fit.map(|f| {
            [
                f.lo_mean.to_bits(),
                f.hi_mean.to_bits(),
                f.sigma.to_bits(),
                f.lo_weight.to_bits(),
                f.n as u64,
                u64::from(f.iterations),
            ]
        })
    }

    #[test]
    fn run_length_em_is_bit_identical_to_the_per_sample_loop() {
        let mut state = 0x5eed_0e11_u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(1);
            crate::fleet::splitmix64(state) % bound
        };
        let (mut fits, mut capped) = (0u32, 0u32);
        for case in 0..10_000u64 {
            let n = 1 + next(128) as usize;
            let spread = 1 + next(8);
            let samples: Vec<u64> = (0..n)
                .map(|_| {
                    let band = match case % 8 {
                        // One band: EM splits it, often up to the cap.
                        6 => 107,
                        // Balanced bands with a gap comparable to σ.
                        7 => 100 + 4 * next(2),
                        // Mapped/unmapped sweep window: 1 in 8 mapped.
                        _ if next(8) == 0 => 93,
                        _ => 107,
                    };
                    let wobble = next(2 * spread + 1);
                    // Occasional interrupt spike.
                    let spike = if next(64) == 0 { 400 + next(4000) } else { 0 };
                    band + wobble + spike - spread
                })
                .collect();
            let new = fit_two_gaussians(&samples);
            assert_eq!(
                fit_bits(new),
                fit_bits(per_sample_em(&samples)),
                "{samples:?}"
            );
            if let Some(fit) = new {
                fits += 1;
                capped += u32::from(fit.iterations == EM_MAX_ITERATIONS);
            }
        }
        assert!(fits > 9_000, "{fits} fits");
        assert!(
            capped > 1_000,
            "only {capped} fits reached the iteration cap"
        );
    }

    #[test]
    fn em_recovers_two_clean_bands() {
        let mix = fit_two_gaussians(&two_bands(200)).unwrap();
        assert!((mix.lo_mean - 93.0).abs() < 0.5, "{mix:?}");
        assert!((mix.hi_mean - 107.0).abs() < 0.5, "{mix:?}");
        assert!((mix.midpoint() - 100.0).abs() < 0.5);
        assert!(mix.sigma < 2.5, "{mix:?}");
        assert!(mix.is_separated());
        assert!((mix.lo_weight - 0.5).abs() < 0.05);
    }

    #[test]
    fn em_is_deterministic() {
        let samples = two_bands(64);
        assert_eq!(fit_two_gaussians(&samples), fit_two_gaussians(&samples));
    }

    #[test]
    fn em_handles_unbalanced_mixtures() {
        // 1 mapped slot among 63 unmapped — the kernel-base scan shape.
        let mut samples = vec![93u64; 8];
        samples.extend(std::iter::repeat_n(107u64, 504));
        // Wiggle so variance is non-zero in both bands.
        for (i, s) in samples.iter_mut().enumerate() {
            *s += (i as u64) % 3;
        }
        let mix = fit_two_gaussians(&samples).unwrap();
        assert!((mix.lo_mean - 94.0).abs() < 1.5, "{mix:?}");
        assert!((mix.hi_mean - 108.0).abs() < 1.5, "{mix:?}");
        assert!(mix.lo_weight < 0.1, "{mix:?}");
    }

    #[test]
    fn em_degenerate_inputs_return_none() {
        assert_eq!(fit_two_gaussians(&[]), None);
        assert_eq!(fit_two_gaussians(&[93]), None, "tiny n");
        assert_eq!(fit_two_gaussians(&[93, 107, 93]), None, "n < 4");
        assert_eq!(fit_two_gaussians(&[93, 93, 93, 93]), None, "zero variance");
    }

    #[test]
    fn em_single_mode_is_not_separated() {
        // A unimodal Gaussian-ish band: EM bisects it, the separation
        // check must reject the artificial split.
        let samples: Vec<u64> = (0..64).map(|i| 93 + (i % 7)).collect();
        let mix = fit_two_gaussians(&samples).unwrap();
        assert!(!mix.is_separated(), "{mix:?}");
    }

    #[test]
    fn bimodal_calibrator_falls_back_to_trimmed_on_single_mode() {
        let samples: Vec<u64> = (0..16).map(|i| 91 + (i % 5)).collect();
        let fit = Bimodal.fit(&samples);
        assert_eq!(fit.estimator, "trimmed");
        assert!((fit.threshold.value - 93.0).abs() < 1.0, "{fit:?}");
    }

    #[test]
    fn bimodal_calibrator_centers_the_boundary_between_modes() {
        let fit = Bimodal.fit(&two_bands(200));
        assert_eq!(fit.estimator, "bimodal");
        assert!((fit.threshold.value - 93.0).abs() < 0.5, "{fit:?}");
        assert!((fit.threshold.boundary() - 100.0).abs() < 0.5, "{fit:?}");
    }

    #[test]
    fn bimodal_calibrator_sheds_interrupt_spikes() {
        let mut samples = two_bands(100);
        for spike in [1500u64, 2200, 2900] {
            samples.push(spike);
        }
        let fit = Bimodal.fit(&samples);
        assert_eq!(fit.estimator, "bimodal");
        assert!((fit.threshold.boundary() - 100.0).abs() < 1.0, "{fit:?}");
    }
}
