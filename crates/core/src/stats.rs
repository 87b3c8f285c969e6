//! Small statistics toolkit for timing samples.
//!
//! Everything the attacks and benches need: running mean/σ (Welford),
//! order statistics, robust location/scale estimators (median, MAD,
//! trimmed mean — the numeric core of the [`crate::calibrate`]
//! subsystem), a 1-D two-means split for automatic thresholding, a
//! sequential probability-ratio accumulator ([`SequentialLlr`], the
//! decision core of the adaptive probing engine), and accuracy
//! bookkeeping.
//!
//! # Example: sequential decisions over a calibrated channel
//!
//! ```
//! use avx_channel::stats::{SeqDecision, SequentialLlr};
//!
//! // Alder Lake-style channel: mapped ≈ 93 cycles, unmapped ≈ 107,
//! // Gaussian jitter σ = 1, target error rate 1e-4.
//! let mut acc = SequentialLlr::new(93.0, 107.0, 1.0, 1e-4);
//! assert_eq!(acc.push(93), SeqDecision::Undecided); // one sample never decides
//! assert_eq!(acc.push(93), SeqDecision::Mapped);    // two concordant ones do
//! assert_eq!(acc.count(), 2);
//! ```

use core::fmt;

/// Numerically stable running mean/variance accumulator.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with <2 samples).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
}

impl Extend<f64> for Welford {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Summary statistics of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: u64,
    /// Median (lower of the two mid elements for even n).
    pub median: u64,
    /// Maximum.
    pub max: u64,
}

impl Summary {
    /// Computes summary statistics of `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice — a summary of nothing is a bug upstream.
    #[must_use]
    pub fn of(samples: &[u64]) -> Self {
        assert!(!samples.is_empty(), "summary of empty sample set");
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let mut w = Welford::new();
        w.extend(samples.iter().map(|&x| x as f64));
        Self {
            n: samples.len(),
            mean: w.mean(),
            stddev: w.stddev(),
            min: sorted[0],
            median: sorted[(sorted.len() - 1) / 2],
            max: *sorted.last().expect("non-empty"),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1}±{:.2} (min {}, med {}, max {}, n={})",
            self.mean, self.stddev, self.min, self.median, self.max, self.n
        )
    }
}

/// Median of a sample set (mean of the two mid elements for even n —
/// note [`Summary::of`] reports the *lower* mid instead, a deliberately
/// cheaper convention for display purposes). `None` when empty.
///
/// ```
/// assert_eq!(avx_channel::stats::median(&[9, 1, 5]), Some(5.0));
/// assert_eq!(avx_channel::stats::median(&[1, 2, 3, 4]), Some(2.5));
/// assert_eq!(avx_channel::stats::median(&[]), None);
/// ```
#[must_use]
pub fn median(samples: &[u64]) -> Option<f64> {
    let runs = SampleRuns::from_unsorted(samples.iter().copied());
    let (lower, upper) = middle_of_runs(runs.runs().iter().copied(), samples.len())?;
    // Each mid element converts exactly as a sorted `f64` copy would
    // hold it (the conversion is monotone); an odd count averages the
    // middle element with itself, which is exact.
    Some((lower as f64 + upper as f64) / 2.0)
}

/// Consistency factor making the MAD an unbiased σ estimator under a
/// Gaussian: `1 / Φ⁻¹(3/4)`.
pub const MAD_CONSISTENCY: f64 = 1.4826;

/// Robust Gaussian-σ estimate via the median absolute deviation:
/// `MAD_CONSISTENCY × median(|x − median(x)|)`.
///
/// Unlike the sample standard deviation, the MAD has a 50 % breakdown
/// point: interrupt spikes in up to half the samples cannot move it.
/// The [`crate::calibrate::NoiseAware`] selector keys off this number
/// to decide whether the environment needs a robust floor estimator.
/// `None` when empty. Samples must lie below [`MAD_EXACT_LIMIT`].
#[must_use]
pub fn mad_sigma(samples: &[u64]) -> Option<f64> {
    mad_sigma_runs(SampleRuns::from_unsorted(samples.iter().copied()).runs())
}

/// Exclusive upper bound of the sample domain on which
/// [`mad_sigma`] is exact: 2⁵².
///
/// Below it, the textbook `f64` evaluation (median, then deviations,
/// then their median) makes no rounding error at all: the median is a
/// multiple of ½ below 2⁵², so is every deviation, and the two middle
/// deviations share their fractional part, so their sum is an integer
/// below 2⁵³. Every intermediate is representable, both evaluations
/// compute the exact MAD, and their results agree bit for bit. Cycle
/// counts are many orders of magnitude below the limit.
pub const MAD_EXACT_LIMIT: u64 = 1 << 52;

/// A multiset of samples kept as `(value, count)` runs sorted by value:
/// the one sorted-sample form every order statistic here reads
/// ([`median`], [`mad_sigma`], the EM of
/// [`crate::calibrate::fit_two_gaussians`]). The sliding windows of
/// [`crate::recal`] hold a dozen to a few dozen distinct cycle counts
/// among 128 samples: they update it with one binary search per sample
/// (plus a shift when a run appears or empties) and read its MAD in
/// O(runs) with [`mad_sigma_runs`]; one-shot estimates sort their
/// samples into it once ([`SampleRuns::from_unsorted`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct SampleRuns {
    runs: Vec<(u64, usize)>,
}

impl SampleRuns {
    /// The multiset of `samples`, sorted once.
    pub(crate) fn from_unsorted(samples: impl IntoIterator<Item = u64>) -> Self {
        let mut sorted: Vec<u64> = samples.into_iter().collect();
        sorted.sort_unstable();
        Self {
            runs: sorted
                .chunk_by(|a, b| a == b)
                .map(|run| (run[0], run.len()))
                .collect(),
        }
    }

    /// Adds one sample. Samples must lie below [`MAD_EXACT_LIMIT`]
    /// (debug-asserted), the domain where [`mad_sigma_runs`] is exact.
    pub(crate) fn insert(&mut self, x: u64) {
        debug_assert!(
            x < MAD_EXACT_LIMIT,
            "SampleRuns: sample outside the exact domain (< 2^52)"
        );
        match self.runs.binary_search_by_key(&x, |&(v, _)| v) {
            Ok(i) => self.runs[i].1 += 1,
            Err(i) => self.runs.insert(i, (x, 1)),
        }
    }

    /// Removes one copy of a sample the multiset holds.
    pub(crate) fn remove(&mut self, x: u64) {
        let i = self
            .runs
            .binary_search_by_key(&x, |&(v, _)| v)
            .expect("removing a sample the window does not hold");
        self.runs[i].1 -= 1;
        if self.runs[i].1 == 0 {
            self.runs.remove(i);
        }
    }

    pub(crate) fn clear(&mut self) {
        self.runs.clear();
    }

    /// Keeps the `n` smallest samples (all of them when there are
    /// fewer).
    pub(crate) fn truncate(&mut self, mut n: usize) {
        self.runs.retain_mut(|(_, count)| {
            *count = (*count).min(n);
            n -= *count;
            *count > 0
        });
    }

    /// The runs, sorted by value, every count ≥ 1.
    pub(crate) fn runs(&self) -> &[(u64, usize)] {
        &self.runs
    }
}

/// The two middle order statistics (ranks `⌊(n−1)/2⌋` and `⌊n/2⌋`,
/// equal for odd `n`) of the multiset whose `n` values arrive as
/// `(value, count)` runs in ascending order. `None` when `n` is 0.
fn middle_of_runs(sorted: impl Iterator<Item = (u64, usize)>, n: usize) -> Option<(u64, u64)> {
    let (lower_rank, upper_rank) = (n.checked_sub(1)? / 2, n / 2);
    let mut seen = 0;
    let mut lower = None;
    for (x, count) in sorted {
        seen += count;
        if seen > lower_rank {
            let lower = *lower.get_or_insert(x);
            if seen > upper_rank {
                return Some((lower, x));
            }
        }
    }
    None
}

/// [`mad_sigma`] over a sorted run-length multiset (a [`SampleRuns`]
/// or a slice of one), in doubled integer units: `center2 =
/// 2·median(x)`, each deviation is `|2x − center2|`, and the result is
/// `MAD_CONSISTENCY × (2·median(|2x − center2|)) / 4`. The result is
/// exact, and bit-identical to the sort-based `f64` evaluation, for
/// samples below [`MAD_EXACT_LIMIT`] (debug-asserted).
///
/// The doubled center comes from one ascending walk; the deviations
/// `|2x − center2|` of the runs below and above the center each rise
/// away from it, so merging the two outward walks yields them in
/// ascending order for the second. O(d) in the number of runs.
pub(crate) fn mad_sigma_runs(runs: &[(u64, usize)]) -> Option<f64> {
    debug_assert!(
        runs.last().is_none_or(|&(x, _)| x < MAD_EXACT_LIMIT),
        "mad_sigma_runs: sample outside the exact domain (< 2^52)"
    );
    let n = runs.iter().map(|&(_, count)| count).sum();
    let (lower, upper) = middle_of_runs(runs.iter().copied(), n)?;
    let center2 = lower + upper;
    let split = runs.partition_point(|&(x, _)| 2 * x < center2);
    let mut below = runs[..split].iter().rev().peekable();
    let mut above = runs[split..].iter().peekable();
    let deviations = std::iter::from_fn(|| {
        let low = below.peek().map(|&&(x, count)| (center2 - 2 * x, count));
        let high = above.peek().map(|&&(x, count)| (2 * x - center2, count));
        match (low, high) {
            (Some(l), Some(h)) if l.0 <= h.0 => below.next().and(low),
            (Some(_), None) => below.next().and(low),
            _ => above.next().and(high),
        }
    });
    let (lower, upper) = middle_of_runs(deviations, n)?;
    let dev4 = lower + upper;
    Some(MAD_CONSISTENCY * (dev4 as f64 / 4.0))
}

/// Symmetrically trimmed mean: sorts the samples, drops the `trim`
/// fraction from *each* tail (at least keeping one sample) and averages
/// the rest. `trim = 0.25` yields the midmean (interquartile mean),
/// which is unbiased for symmetric distributions yet immune to the
/// one-sided interrupt-spike contamination of timing data. `None` when
/// empty; `trim` is clamped into `[0, 0.5)`.
#[must_use]
pub fn trimmed_mean(samples: &[u64], trim: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let trim = trim.clamp(0.0, 0.499);
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let drop_each = ((sorted.len() as f64) * trim).floor() as usize;
    let kept = &sorted[drop_each..sorted.len() - drop_each];
    let mut w = Welford::new();
    w.extend(kept.iter().map(|&x| x as f64));
    Some(w.mean())
}

/// Splits 1-D samples into two clusters (Lloyd's algorithm, k = 2) and
/// returns the midpoint between the converged centroids — an automatic
/// mapped/unmapped threshold when no calibration page is available.
///
/// Returns `None` when the samples cannot be split (fewer than 2
/// distinct values).
#[must_use]
pub fn two_means_threshold(samples: &[u64]) -> Option<f64> {
    let mut lo = *samples.iter().min()? as f64;
    let mut hi = *samples.iter().max()? as f64;
    if lo == hi {
        return None;
    }
    for _ in 0..32 {
        let mid = (lo + hi) / 2.0;
        let mut wl = Welford::new();
        let mut wh = Welford::new();
        for &s in samples {
            if (s as f64) <= mid {
                wl.push(s as f64);
            } else {
                wh.push(s as f64);
            }
        }
        if wl.count() == 0 || wh.count() == 0 {
            return Some(mid);
        }
        let new_lo = wl.mean();
        let new_hi = wh.mean();
        if (new_lo - lo).abs() < 1e-9 && (new_hi - hi).abs() < 1e-9 {
            break;
        }
        lo = new_lo;
        hi = new_hi;
    }
    Some((lo + hi) / 2.0)
}

/// Which hypothesis a [`SequentialLlr`] has settled on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeqDecision {
    /// The samples support the mapped (low-latency) hypothesis.
    Mapped,
    /// The samples support the unmapped (high-latency) hypothesis.
    Unmapped,
    /// Neither boundary crossed yet — keep sampling.
    Undecided,
}

/// Wald's sequential probability-ratio test over the two calibrated
/// timing hypotheses of the mapped/unmapped channel.
///
/// Each probe latency `x` updates the accumulated log-likelihood ratio
/// between two Gaussians `N(μ_unmapped, σ²)` and `N(μ_mapped, σ²)`:
///
/// ```text
/// Λ += (μ₁ − μ₀) · (2x − μ₀ − μ₁) / (2σ²)      (μ₀ mapped, μ₁ unmapped)
/// ```
///
/// Sampling stops as soon as `Λ` escapes `(−A, +A)` with
/// `A = ln((1−ε)/ε)` for the target per-address error rate `ε` — on a
/// quiet machine that is after one or two samples, while a noisy
/// environment automatically buys more evidence. Interrupt spikes are
/// arbitrarily far into the "unmapped" tail, so the per-sample increment
/// is clamped to `±A/2`: no single disturbed reading can decide alone,
/// which is the sequential analogue of the min-filter's spike rejection.
#[derive(Clone, Copy, Debug)]
pub struct SequentialLlr {
    mapped_mean: f64,
    unmapped_mean: f64,
    sigma: f64,
    threshold: f64,
    clamp: f64,
    llr: f64,
    n: u64,
}

/// σ floor: a noiseless machine would otherwise make the per-sample
/// increment infinite and the test degenerate.
const SIGMA_FLOOR: f64 = 0.5;

impl SequentialLlr {
    /// Builds the accumulator for the two hypothesis means, the noise
    /// σ of the environment and a per-address error-rate target
    /// (clamped into `[1e-12, 0.25]`).
    ///
    /// # Panics
    ///
    /// Panics unless `mapped_mean < unmapped_mean` — the channel's
    /// polarity (mapped is faster) is a structural invariant.
    #[must_use]
    pub fn new(mapped_mean: f64, unmapped_mean: f64, sigma: f64, error_rate: f64) -> Self {
        assert!(
            mapped_mean < unmapped_mean,
            "mapped hypothesis must be the faster one ({mapped_mean} vs {unmapped_mean})"
        );
        let error = error_rate.clamp(1e-12, 0.25);
        let threshold = ((1.0 - error) / error).ln();
        Self {
            mapped_mean,
            unmapped_mean,
            sigma: sigma.max(SIGMA_FLOOR),
            threshold,
            clamp: threshold / 2.0,
            llr: 0.0,
            n: 0,
        }
    }

    /// Adds one probe latency; returns the updated decision state.
    pub fn push(&mut self, cycles: u64) -> SeqDecision {
        let x = cycles as f64;
        let gap = self.unmapped_mean - self.mapped_mean;
        let raw = gap * (2.0 * x - self.mapped_mean - self.unmapped_mean)
            / (2.0 * self.sigma * self.sigma);
        self.llr += raw.clamp(-self.clamp, self.clamp);
        self.n += 1;
        self.decision()
    }

    /// Current decision state against the SPRT boundaries.
    #[must_use]
    pub fn decision(&self) -> SeqDecision {
        if self.llr >= self.threshold {
            SeqDecision::Unmapped
        } else if self.llr <= -self.threshold {
            SeqDecision::Mapped
        } else {
            SeqDecision::Undecided
        }
    }

    /// Forced call once the probe budget is exhausted: the sign of the
    /// accumulated evidence. `Λ = 0` (e.g. a sample pinned exactly on
    /// the midpoint) resolves to mapped, matching the `≤`-boundary
    /// convention of [`crate::Threshold::is_mapped`].
    #[must_use]
    pub fn forced(&self) -> SeqDecision {
        if self.llr <= 0.0 {
            SeqDecision::Mapped
        } else {
            SeqDecision::Unmapped
        }
    }

    /// Accumulated log-likelihood ratio (positive favors unmapped).
    #[must_use]
    pub fn llr(&self) -> f64 {
        self.llr
    }

    /// Samples consumed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The decision midpoint `(μ₀ + μ₁)/2` — where a single sample
    /// contributes zero evidence.
    #[must_use]
    pub fn midpoint(&self) -> f64 {
        (self.mapped_mean + self.unmapped_mean) / 2.0
    }
}

/// Fraction of positions where `detected` matches `truth`.
///
/// # Panics
///
/// Panics when lengths differ.
#[must_use]
pub fn agreement(detected: &[bool], truth: &[bool]) -> f64 {
    assert_eq!(detected.len(), truth.len(), "length mismatch");
    if detected.is_empty() {
        return 1.0;
    }
    let same = detected.iter().zip(truth).filter(|(d, t)| d == t).count();
    same as f64 / detected.len() as f64
}

/// Bernoulli success-rate tracker (attack accuracy over trials).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Trials {
    /// Successful trials.
    pub successes: u64,
    /// Total trials.
    pub total: u64,
}

impl Trials {
    /// Empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one trial.
    pub fn record(&mut self, success: bool) {
        self.total += 1;
        if success {
            self.successes += 1;
        }
    }

    /// Success rate in [0, 1]; 0 for no trials.
    #[must_use]
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.successes as f64 / self.total as f64
        }
    }

    /// Success rate in percent.
    #[must_use]
    pub fn percent(&self) -> f64 {
        self.rate() * 100.0
    }
}

impl fmt::Display for Trials {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ({:.2}%)",
            self.successes,
            self.total,
            self.percent()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        w.extend(xs);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.stddev() - 2.0).abs() < 1e-12);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.stddev(), 0.0);
        w.push(42.0);
        assert_eq!(w.mean(), 42.0);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn summary_order_statistics() {
        let s = Summary::of(&[9, 1, 5, 3, 7]);
        assert_eq!(s.min, 1);
        assert_eq!(s.median, 5);
        assert_eq!(s.max, 9);
        assert_eq!(s.n, 5);
        assert!((s.mean - 5.0).abs() < 1e-12);
    }

    #[test]
    fn summary_even_count_takes_lower_mid() {
        let s = Summary::of(&[1, 2, 3, 4]);
        assert_eq!(s.median, 2);
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn summary_empty_panics() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3]), Some(3.0));
        assert_eq!(median(&[93, 107]), Some(100.0));
        assert_eq!(median(&[9, 1, 5, 3, 7]), Some(5.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mad_sigma_matches_gaussian_scale_and_resists_spikes() {
        // ±k around a center: MAD is exactly k × 1.4826.
        let samples = [90u64, 93, 93, 93, 96];
        let mad = mad_sigma(&samples).unwrap();
        assert!(mad.abs() < 1e-12, "tight cluster: {mad}");
        let spread = [87u64, 90, 93, 96, 99];
        let mad = mad_sigma(&spread).unwrap();
        assert!((mad - 3.0 * MAD_CONSISTENCY).abs() < 1e-9, "{mad}");
        // A 2000-cycle interrupt spike cannot move the estimate.
        let spiked = [87u64, 90, 93, 96, 2099];
        let mad = mad_sigma(&spiked).unwrap();
        assert!((mad - 3.0 * MAD_CONSISTENCY).abs() < 1e-9, "{mad}");
        assert_eq!(mad_sigma(&[]), None);
    }

    /// Median of an `f64` slice that is already sorted ascending;
    /// averages the two mid elements for even counts. `None` when empty.
    fn median_of_sorted(sorted: &[f64]) -> Option<f64> {
        match sorted.len() {
            0 => None,
            n if n % 2 == 1 => Some(sorted[n / 2]),
            n => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
        }
    }

    /// The textbook sort-based `f64` MAD (median, deviations, their
    /// median): the oracle of the two differential tests below.
    fn sorted_f64_mad(samples: impl Iterator<Item = f64>, scratch: &mut Vec<f64>) -> Option<f64> {
        scratch.clear();
        scratch.extend(samples);
        scratch.sort_unstable_by(f64::total_cmp);
        let center = median_of_sorted(scratch)?;
        for v in scratch.iter_mut() {
            *v = (*v - center).abs();
        }
        scratch.sort_unstable_by(f64::total_cmp);
        median_of_sorted(scratch).map(|d| MAD_CONSISTENCY * d)
    }

    #[test]
    fn integer_mad_is_bit_identical_to_the_sorted_f64_mad() {
        let mut state = 0x3ad_5eed_u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(1);
            crate::fleet::splitmix64(state) % bound
        };
        let top = MAD_EXACT_LIMIT - 1;
        let mut oracle = Vec::new();
        let mut check = |samples: &[u64]| {
            let runs = SampleRuns::from_unsorted(samples.iter().copied());
            let new = mad_sigma(samples);
            let old = sorted_f64_mad(samples.iter().map(|&x| x as f64), &mut oracle);
            assert_eq!(new.map(f64::to_bits), old.map(f64::to_bits), "{samples:?}");
            let count: usize = runs.runs().iter().map(|&(_, count)| count).sum();
            assert_eq!(count, samples.len(), "count reported via the runs");
            let mut sorted = samples.to_vec();
            sorted.sort_unstable();
            let keep = (samples.len() * 97).div_ceil(100);
            let mut truncated = runs.clone();
            truncated.truncate(keep);
            let prefix = SampleRuns::from_unsorted(sorted[..keep].iter().copied());
            assert_eq!(truncated.runs(), prefix.runs(), "{samples:?}");
            oracle.clear();
            oracle.extend(samples.iter().map(|&x| x as f64));
            oracle.sort_unstable_by(f64::total_cmp);
            let (new, old) = (median(samples), median_of_sorted(&oracle));
            assert_eq!(new.map(f64::to_bits), old.map(f64::to_bits), "{samples:?}");
        };
        for samples in [
            vec![],
            vec![93],
            vec![0],
            vec![top],
            vec![93, 107],
            vec![0, top],
        ] {
            check(&samples);
        }
        for case in 0..20_000u64 {
            let n = 3 + next(298) as usize;
            let samples: Vec<u64> = (0..n)
                .map(|_| match case % 4 {
                    // A timing band with interrupt spikes.
                    0 => {
                        90 + next(30)
                            + if next(16) == 0 {
                                2_000 + next(50_000)
                            } else {
                                0
                            }
                    }
                    // Two bands, as a sweep window holds them.
                    1 => [93, 107][next(2) as usize] + next(5),
                    // Near the top of the exact domain.
                    2 => top - next(1 << 20),
                    // Both ends of the domain: middle deviations near
                    // 2⁵¹, their sum beyond 2⁵².
                    _ if next(2) == 0 => next(1 << 20),
                    _ => top - next(1 << 20),
                })
                .collect();
            check(&samples);
        }
    }

    #[test]
    fn run_length_mad_is_bit_identical_to_the_selection_mad() {
        let mut state = 0x5e1_ec7_u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(1);
            crate::fleet::splitmix64(state) % bound
        };
        let top = MAD_EXACT_LIMIT - 1;
        let mut oracle = Vec::new();
        for case in 0..1_500u64 {
            // A sliding window over a stream: every removal and
            // insertion keeps the runs equal to the window's multiset.
            let window = 1 + next(150) as usize;
            let mut fifo = std::collections::VecDeque::new();
            let mut runs = SampleRuns::default();
            for _ in 0..window + next(64) as usize {
                let x = match case % 4 {
                    0 => 90 + next(30) + if next(16) == 0 { 4_000 } else { 0 },
                    1 => [93, 107][next(2) as usize] + next(3),
                    2 => top - next(8),
                    _ => [next(4), top - next(4)][next(2) as usize],
                };
                if fifo.len() == window {
                    runs.remove(fifo.pop_front().unwrap());
                }
                fifo.push_back(x);
                runs.insert(x);
                assert!(runs.runs().windows(2).all(|w| w[0].0 < w[1].0));
                let textbook = sorted_f64_mad(fifo.iter().map(|&x| x as f64), &mut oracle);
                let walked = mad_sigma_runs(runs.runs());
                assert_eq!(
                    walked.map(f64::to_bits),
                    textbook.map(f64::to_bits),
                    "{fifo:?}"
                );
            }
        }
        assert_eq!(mad_sigma_runs(&[]), None);
        assert_eq!(mad_sigma_runs(&[(top, 1)]), Some(0.0));
    }

    #[test]
    fn trimmed_mean_sheds_tail_contamination() {
        // Midmean of a clean symmetric set is the mean.
        let clean = [91u64, 92, 93, 94, 95];
        assert!((trimmed_mean(&clean, 0.25).unwrap() - 93.0).abs() < 1e-12);
        // One interrupt spike among eight samples: the mean moves by
        // 250 cycles, the midmean does not move at all.
        let spiked = [92u64, 92, 93, 93, 93, 94, 94, 2093];
        let mm = trimmed_mean(&spiked, 0.25).unwrap();
        assert!((mm - 93.0).abs() < 0.5, "midmean {mm}");
        // trim = 0 is the plain mean; extreme trims are clamped sane.
        assert!((trimmed_mean(&clean, 0.0).unwrap() - 93.0).abs() < 1e-12);
        assert!(trimmed_mean(&clean, 0.9).unwrap().is_finite());
        assert_eq!(trimmed_mean(&[], 0.25), None);
        assert_eq!(trimmed_mean(&[42], 0.25), Some(42.0));
    }

    #[test]
    fn two_means_separates_bimodal() {
        // 93-ish vs 107-ish clusters, as in Fig. 4.
        let mut samples = Vec::new();
        for i in 0..100u64 {
            samples.push(92 + i % 3);
            samples.push(106 + i % 3);
        }
        let t = two_means_threshold(&samples).unwrap();
        assert!(t > 94.0 && t < 106.0, "threshold {t}");
    }

    #[test]
    fn two_means_degenerate_cases() {
        assert!(two_means_threshold(&[]).is_none());
        assert!(two_means_threshold(&[5, 5, 5]).is_none());
        assert!(two_means_threshold(&[5, 6]).is_some());
    }

    #[test]
    fn agreement_counts_matches() {
        let d = [true, false, true, true];
        let t = [true, true, true, false];
        assert!((agreement(&d, &t) - 0.5).abs() < 1e-12);
        assert_eq!(agreement(&[], &[]), 1.0);
    }

    #[test]
    fn trials_rate() {
        let mut t = Trials::new();
        for i in 0..1000 {
            t.record(i % 250 != 0);
        }
        assert_eq!(t.total, 1000);
        assert_eq!(t.successes, 996);
        assert!((t.percent() - 99.6).abs() < 1e-9);
        assert_eq!(t.to_string(), "996/1000 (99.60%)");
    }

    #[test]
    fn summary_display_is_compact() {
        let s = Summary::of(&[93, 93, 94]);
        let text = s.to_string();
        assert!(text.contains("93"));
        assert!(text.contains("n=3"));
    }

    #[test]
    fn welford_zero_and_one_sample_moments_are_exact() {
        // 0 samples: everything is 0, not NaN.
        let w = Welford::new();
        assert_eq!(w.count(), 0);
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.stddev(), 0.0);
        assert!(!w.variance().is_nan());
        // 1 sample: mean is the sample, variance is defined as 0.
        let mut w = Welford::new();
        w.push(-17.5);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), -17.5);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.stddev(), 0.0);
        // The transition 1 → 2 samples turns variance on.
        w.push(-17.5);
        assert_eq!(w.variance(), 0.0, "two equal samples: zero variance");
        w.push(-11.5);
        assert!(w.variance() > 0.0);
    }

    fn sprt() -> SequentialLlr {
        // Alder Lake-style channel: mapped 93, unmapped 107, σ 1.
        SequentialLlr::new(93.0, 107.0, 1.0, 1e-4)
    }

    #[test]
    fn sequential_llr_decides_fast_on_clean_samples() {
        let mut acc = sprt();
        assert_eq!(acc.decision(), SeqDecision::Undecided);
        // Clamping means one sample is never enough on its own...
        assert_eq!(acc.push(93), SeqDecision::Undecided);
        // ...but two concordant samples decide.
        assert_eq!(acc.push(93), SeqDecision::Mapped);
        assert_eq!(acc.count(), 2);

        let mut acc = sprt();
        acc.push(107);
        assert_eq!(acc.push(107), SeqDecision::Unmapped);
    }

    #[test]
    fn sequential_llr_single_spike_cannot_decide_unmapped() {
        let mut acc = sprt();
        // A 900-cycle interrupt spike on a mapped page: clamped to +A/2.
        assert_eq!(acc.push(900), SeqDecision::Undecided);
        // Honest mapped samples outvote it (spike +A/2 takes three
        // −A/2 samples to reach the −A boundary).
        assert_eq!(acc.push(93), SeqDecision::Undecided);
        assert_eq!(acc.push(93), SeqDecision::Undecided);
        assert_eq!(acc.push(93), SeqDecision::Mapped);
    }

    #[test]
    fn sequential_llr_forced_matches_midpoint_rule() {
        // Forced decision at budget exhaustion = threshold comparison.
        for x in [90u64, 99, 100, 101, 110] {
            let mut acc = sprt();
            acc.push(x);
            let expect = if (x as f64) <= acc.midpoint() {
                SeqDecision::Mapped
            } else {
                SeqDecision::Unmapped
            };
            assert_eq!(acc.forced(), expect, "sample {x}");
        }
        assert_eq!(sprt().midpoint(), 100.0);
    }

    #[test]
    fn sequential_llr_is_order_invariant_in_accumulated_evidence() {
        // Λ is a sum of per-sample terms: any permutation of the same
        // multiset ends at the same Λ (and thus the same forced call).
        let samples = [93u64, 107, 95, 600, 94, 108, 93];
        let mut fwd = sprt();
        let mut rev = sprt();
        for &s in &samples {
            fwd.push(s);
        }
        for &s in samples.iter().rev() {
            rev.push(s);
        }
        assert!((fwd.llr() - rev.llr()).abs() < 1e-12);
        assert_eq!(fwd.forced(), rev.forced());
    }

    #[test]
    fn sequential_llr_noisier_sigma_needs_more_samples() {
        let mut quiet = SequentialLlr::new(93.0, 107.0, 1.0, 1e-4);
        let mut noisy = SequentialLlr::new(93.0, 107.0, 6.0, 1e-4);
        let mut quiet_n = 0;
        let mut noisy_n = 0;
        for n in 1..=64 {
            if quiet_n == 0 && quiet.push(93) != SeqDecision::Undecided {
                quiet_n = n;
            }
            if noisy_n == 0 && noisy.push(93) != SeqDecision::Undecided {
                noisy_n = n;
            }
        }
        assert!(quiet_n > 0 && noisy_n > 0);
        assert!(
            noisy_n > quiet_n,
            "σ=6 must demand more evidence: {noisy_n} vs {quiet_n}"
        );
    }

    #[test]
    fn sequential_llr_degenerate_sigma_is_floored() {
        let mut acc = SequentialLlr::new(93.0, 107.0, 0.0, 1e-4);
        acc.push(93);
        assert!(acc.llr().is_finite());
    }

    #[test]
    #[should_panic(expected = "faster")]
    fn sequential_llr_rejects_inverted_hypotheses() {
        let _ = SequentialLlr::new(107.0, 93.0, 1.0, 1e-4);
    }
}
