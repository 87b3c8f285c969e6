//! A verbatim copy of the selection-based `DriftMonitor` that re-read
//! the whole window on every check (two passes per band, four
//! `select_nth_unstable`s per check), kept as the oracle of the
//! run-length window in `avx_channel::recal`, together with its own
//! verbatim copy of the selection MAD it read the window with
//! (`mad_sigma_scratch` and `doubled_median`, once in
//! `avx_channel::stats`, whose MAD now reads sorted runs only). Only
//! three things differ from the originals: the private
//! `rescan_targets` is left out (the driver's rescan is pinned by the
//! output and event equalities of `recal_props.rs`),
//! `MIN_BAND_SAMPLES`, `MAD_CONSISTENCY` and `MAD_EXACT_LIMIT` are
//! imported instead of defined, and the MAD's docs are trimmed to what
//! this copy is. `crates/core/tests/recal_props.rs` includes this
//! file.

use std::collections::VecDeque;

use avx_channel::recal::{DriftSignal, RecalConfig, MIN_BAND_SAMPLES};
use avx_channel::stats::{MAD_CONSISTENCY, MAD_EXACT_LIMIT};
use avx_mmu::VirtAddr;

/// Twice the median of `v` (the sum of the two middle order statistics
/// for even lengths), reordering `v` by selection. `None` when empty.
fn doubled_median(v: &mut [u64]) -> Option<u64> {
    let n = v.len();
    if n == 0 {
        return None;
    }
    let (lower, &mut upper, _) = v.select_nth_unstable(n / 2);
    let below = if n.is_multiple_of(2) {
        *lower.iter().max().expect("even n ≥ 2 leaves a lower half")
    } else {
        upper
    };
    Some(below + upper)
}

/// The selection MAD-σ with all intermediate values kept in the
/// caller's reused `scratch` buffer. On return only the length of
/// `scratch` is meaningful — the sample count, which callers use for
/// minimum-band-size checks; its contents are in no particular order.
///
/// Works in doubled integer units with two O(n) selections instead of
/// two `f64` sorts: `center2 = 2·median(x)`, each deviation is
/// `|2x − center2|`, and the result is
/// `MAD_CONSISTENCY × (2·median(|2x − center2|)) / 4`. The result is
/// exact, and bit-identical to the sort-based `f64` evaluation, for
/// samples below [`MAD_EXACT_LIMIT`] (debug-asserted).
pub fn mad_sigma_scratch(
    samples: impl Iterator<Item = u64>,
    scratch: &mut Vec<u64>,
) -> Option<f64> {
    scratch.clear();
    scratch.extend(samples);
    debug_assert!(
        scratch.iter().all(|&x| x < MAD_EXACT_LIMIT),
        "mad_sigma_scratch: sample outside the exact domain (< 2^52)"
    );
    let center2 = doubled_median(scratch)?;
    for v in scratch.iter_mut() {
        *v = (2 * *v).abs_diff(center2);
    }
    let dev4 = doubled_median(scratch)?;
    Some(MAD_CONSISTENCY * (dev4 as f64 / 4.0))
}

/// One window entry: a candidate's representative sample plus how its
/// decision was reached.
#[allow(dead_code)] // `index` and `addr` fed the dropped `rescan_targets`
#[derive(Clone, Copy, Debug)]
struct WindowEntry {
    index: usize,
    addr: VirtAddr,
    sample: u64,
    settled: bool,
}

/// The sliding-window drift detector.
///
/// Samples in a sweep are *bimodal* (mapped and unmapped candidates
/// interleave), so a window-wide dispersion estimate would read the
/// band gap as noise. The monitor therefore splits the window at the
/// current decision boundary and measures each band's MAD-σ separately;
/// under a stationary environment that matches the fit's σ, and under
/// `NoiseModel::none()` it is exactly zero, so the trigger can never
/// fire on a noiseless scan (property-pinned).
#[derive(Clone, Debug)]
pub struct DriftMonitor {
    config: RecalConfig,
    /// σ the current fit claims; the dispersion limit scales from it.
    baseline_sigma: f64,
    entries: VecDeque<WindowEntry>,
    since_refit: usize,
    /// Reused MAD buffer — the monitor runs once per probe tile and
    /// must not put allocations back on the zero-alloc sweep path.
    scratch: Vec<u64>,
}

impl DriftMonitor {
    /// A monitor against the σ of the calibration currently in effect.
    #[must_use]
    pub fn new(config: RecalConfig, baseline_sigma: f64) -> Self {
        Self {
            config,
            baseline_sigma,
            entries: VecDeque::with_capacity(config.window.max(1)),
            // The initial fit needs no cooldown: trigger as soon as the
            // window has evidence.
            since_refit: config.cooldown,
            scratch: Vec::with_capacity(config.window.max(1)),
        }
    }

    /// Streams one candidate's representative sample into the window.
    pub fn observe(&mut self, index: usize, addr: VirtAddr, sample: u64, settled: bool) {
        if self.entries.len() >= self.config.window.max(1) {
            self.entries.pop_front();
        }
        self.entries.push_back(WindowEntry {
            index,
            addr,
            sample,
            settled,
        });
        self.since_refit = self.since_refit.saturating_add(1);
    }

    /// The one band-partition rule of the monitor: split the window
    /// (skipping the oldest `skip` entries) at `boundary` and return
    /// the larger per-band MAD-σ (bands with fewer than
    /// [`MIN_BAND_SAMPLES`] entries read as 0). Both the dispersion
    /// trigger and the σ-refresh route through here so the band
    /// convention cannot fork; the reused scratch buffer keeps the
    /// per-tile check allocation-free.
    fn band_mad(&mut self, skip: usize, boundary: f64) -> f64 {
        let Self {
            entries, scratch, ..
        } = self;
        let mut band = |fast: bool| {
            let samples = entries
                .iter()
                .skip(skip)
                .map(|e| e.sample)
                .filter(|&s| (s as f64 <= boundary) == fast);
            match mad_sigma_scratch(samples, scratch) {
                Some(mad) if scratch.len() >= MIN_BAND_SAMPLES => mad,
                _ => 0.0,
            }
        };
        band(true).max(band(false))
    }

    /// The windowed per-band dispersion: the larger MAD-σ of the two
    /// bands the decision boundary splits the window into (bands with
    /// fewer than [`MIN_BAND_SAMPLES`] entries are skipped).
    #[must_use]
    pub fn band_dispersion(&mut self, boundary: f64) -> f64 {
        self.band_mad(0, boundary)
    }

    /// Fraction of window entries whose decision was forced at the
    /// probe budget.
    #[must_use]
    pub fn unsettled_fraction(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let forced = self.entries.iter().filter(|e| !e.settled).count();
        forced as f64 / self.entries.len() as f64
    }

    /// Checks the triggers against the current decision boundary.
    #[must_use]
    pub fn check(&mut self, boundary: f64) -> Option<DriftSignal> {
        if self.entries.len() < self.config.min_samples.max(1)
            || self.since_refit < self.config.cooldown
        {
            return None;
        }
        let limit = self.config.dispersion_ratio * self.baseline_sigma.max(self.config.sigma_floor);
        let measured = self.band_dispersion(boundary);
        if measured > limit {
            return Some(DriftSignal::Dispersion { measured, limit });
        }
        let rate = self.unsettled_fraction();
        if rate > self.config.unsettled_rate {
            return Some(DriftSignal::Unsettled { rate });
        }
        None
    }

    /// The window's samples in arrival order (what the re-fit consumes).
    #[must_use]
    pub fn samples(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.sample).collect()
    }

    /// Per-band MAD-σ of the *freshest half* of the window. While a
    /// ramp is still in progress the window mixes noise levels, so a
    /// full-window estimate lags the live σ; the freshest half tracks
    /// it, and a continuing ramp simply re-trips the (re-based) trigger
    /// and walks the estimate up step by step.
    #[must_use]
    pub fn fresh_sigma(&mut self, boundary: f64) -> f64 {
        let half = self.entries.len().div_ceil(2);
        let skip = self.entries.len() - half;
        let per_band = self.band_mad(skip, boundary);
        if per_band > 0.0 {
            per_band
        } else {
            // Both bands too thin to split: fall back to the half's
            // overall MAD (still spike-robust).
            let Self {
                entries, scratch, ..
            } = self;
            mad_sigma_scratch(entries.iter().skip(skip).map(|e| e.sample), scratch).unwrap_or(0.0)
        }
    }

    /// Resets the window around a fresh fit: the old samples were drawn
    /// under the stale calibration and must not re-trip the new one.
    pub fn note_refit(&mut self, new_sigma: f64) {
        self.baseline_sigma = new_sigma;
        self.entries.clear();
        self.since_refit = 0;
    }
}
