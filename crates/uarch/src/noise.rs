//! Measurement-noise model and the named noise-scenario presets.
//!
//! Real `rdtsc`-based timing of a single instruction carries two noise
//! components: small Gaussian jitter (pipeline state, clock domain
//! crossings) and rare large positive spikes (interrupts, SMIs,
//! frequency transitions). Both matter for reproducing the paper's
//! *accuracy* numbers: without spikes the simulated attacks would be a
//! flat 100 % instead of the reported 99.3–99.8 %.
//!
//! [`NoiseProfile`] promotes the raw [`NoiseModel`] parameters into a
//! small set of *named environments* — quiet host, SMT-contended
//! sibling, frequency-scaling laptop, noisy-neighbor cloud — so that
//! campaigns can treat "how noisy is the machine" as a first-class
//! scenario axis (NetSpectre showed the required probe budget moves by
//! orders of magnitude with exactly this axis).
//!
//! ```
//! use avx_uarch::{CpuProfile, NoiseProfile};
//!
//! let timing = CpuProfile::alder_lake_i5_12400f().timing;
//! let laptop = NoiseProfile::parse("laptop").unwrap();
//! // The preset is a fixed multiplier over the profile's baseline σ...
//! assert_eq!(laptop.effective_sigma(&timing), timing.noise_sigma * 6.0);
//! // ...and induces a concrete generator for the machine to sample.
//! let model = laptop.model_for(&timing);
//! assert_eq!(model.sigma, laptop.effective_sigma(&timing));
//! ```

use core::fmt;

use rand::Rng;

use crate::profile::TimingParams;
use width::KernelWidth;

/// Gaussian + spike noise generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseModel {
    /// Standard deviation of the Gaussian jitter (cycles).
    pub sigma: f64,
    /// Per-sample probability of an interrupt-style spike.
    pub spike_prob: f64,
    /// Uniform spike magnitude range (cycles).
    pub spike_range: (f64, f64),
}

impl NoiseModel {
    /// Creates a noise model.
    #[must_use]
    pub fn new(sigma: f64, spike_prob: f64, spike_range: (f64, f64)) -> Self {
        Self {
            sigma,
            spike_prob,
            spike_range,
        }
    }

    /// A noiseless model, for deterministic tests.
    #[must_use]
    pub fn none() -> Self {
        Self {
            sigma: 0.0,
            spike_prob: 0.0,
            spike_range: (0.0, 0.0),
        }
    }

    /// Draws one noise sample (may be negative; spikes are positive).
    ///
    /// This is the **v1 observables** path: the exact historical draw
    /// sequence (Box–Muller Gaussian, then an `f64` spike-decision
    /// uniform, then the spike magnitude), pinned bit-for-bit by the
    /// golden suites. The v2 path ([`NoiseModel::sample_v2`]) produces
    /// the same distribution from a different, cheaper stream.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.draw_v1(rng).noise()
    }

    /// Takes the RNG draws of one v1 sample — the single definition of
    /// the v1 draw order, shared by [`NoiseModel::sample`] and the
    /// tiled batch path ([`V1Tile`]).
    fn draw_v1<R: Rng + ?Sized>(&self, rng: &mut R) -> V1Draws {
        let (sigma, u1, u2) = if self.sigma > 0.0 {
            let (u1, u2) = box_muller_uniforms(rng);
            (self.sigma, u1, u2)
        } else {
            V1Draws::NO_GAUSSIAN
        };
        let spike = (self.spike_prob > 0.0 && rng.gen::<f64>() < self.spike_prob)
            .then(|| self.spike_magnitude(rng));
        V1Draws {
            sigma,
            u1,
            u2,
            spike,
        }
    }

    /// Applies noise to a deterministic cycle cost, clamping at 1 cycle.
    pub fn perturb<R: Rng + ?Sized>(&self, rng: &mut R, cycles: f64) -> u64 {
        let noisy = cycles + self.sample(rng);
        noisy.round().max(1.0) as u64
    }

    /// Draws the magnitude of one spike — the single source of truth
    /// shared by the v1 per-sample path and the v2 block path (only the
    /// spike *decision* differs between regimes; the magnitude draw is
    /// identical, which `noise_props.rs` pins by property test).
    fn spike_magnitude<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (lo, hi) = self.spike_range;
        if hi > lo {
            rng.gen_range(lo..hi)
        } else {
            lo
        }
    }

    /// The v2 spike-decision threshold: `spike_prob` mapped onto the
    /// full `u64` range so the per-sample decision is one integer
    /// compare against a raw RNG word instead of an `f64` conversion.
    /// Kept in `u128` so `spike_prob >= 1.0` saturates to *always*
    /// rather than losing the top probability ulp.
    fn spike_threshold(&self) -> u128 {
        if self.spike_prob <= 0.0 {
            0
        } else {
            (self.spike_prob * 18_446_744_073_709_551_616.0) as u128
        }
    }

    /// Draws one noise sample under the **v2 observables** regime: a
    /// ziggurat Gaussian (single RNG word in the common case) and a
    /// fixed-point spike decision. Distribution-equivalent to
    /// [`NoiseModel::sample`]; bit-identical only to itself.
    pub fn sample_v2<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let threshold = self.spike_threshold();
        let mut noise = if self.sigma > 0.0 {
            crate::ziggurat::tables().sample(rng) * self.sigma
        } else {
            0.0
        };
        if threshold != 0 && u128::from(rng.next_u64()) < threshold {
            noise += self.spike_magnitude(rng);
        }
        noise
    }

    /// Fills `out` with consecutive v2 noise samples — the per-tile
    /// noise block of the batched probe path. The samples are drawn in
    /// order, so the RNG stream is identical to `out.len()` scalar
    /// [`NoiseModel::sample_v2`] calls (the scalar/batch bit-equality
    /// the engine property tests assert); the ziggurat tables and the
    /// spike threshold are resolved once per block.
    ///
    /// The block draws from a local copy of `rng`, written back once,
    /// so the generator state stays in registers. Per sample the loop
    /// inlines the ziggurat's in-layer test on the raw word and the
    /// spike decision; the rare rest (wedge, tail, retry) and the spike
    /// magnitude run out of line on a temporary copy (`drawn_on_copy`),
    /// so the local copy never has its address taken.
    pub fn fill_block<R: Rng + Clone>(&self, rng: &mut R, out: &mut [f64]) {
        let tables = crate::ziggurat::tables();
        let threshold = self.spike_threshold();
        let mut local = rng.clone();
        for slot in out.iter_mut() {
            let mut noise = 0.0;
            if self.sigma > 0.0 {
                let bits = local.next_u64();
                let z = match tables.in_layer(bits) {
                    Some(z) => z,
                    None => {
                        let (z, advanced) =
                            drawn_on_copy(local, |r| tables.sample_rejected(bits, r));
                        local = advanced;
                        z
                    }
                };
                noise = z * self.sigma;
            }
            if threshold != 0 && u128::from(local.next_u64()) < threshold {
                let (magnitude, advanced) = drawn_on_copy(local, |r| self.spike_magnitude(r));
                local = advanced;
                noise += magnitude;
            }
            *slot = noise;
        }
        *rng = local;
    }
}

/// Runs a rare draw out of line on `rng`, a copy of the caller's
/// generator, and hands back the value with the advanced copy.
#[cold]
#[inline(never)]
fn drawn_on_copy<R: Rng, T>(mut rng: R, draw: impl FnOnce(&mut R) -> T) -> (T, R) {
    let value = draw(&mut rng);
    (value, rng)
}

/// The two uniforms of one Box–Muller standard-normal sample — the v1
/// observables Gaussian.
///
/// `rand` is in the dependency set, `rand_distr` deliberately is not; a
/// two-line Box–Muller keeps the footprint minimal.
///
/// Interval conventions, pinned here because the v1 golden suites
/// depend on the exact draw sequence:
///
/// * `u1` is drawn from the **open-at-zero** interval
///   `[f64::MIN_POSITIVE, 1.0)` — `ln(0)` must never be reached, so the
///   radius term is always finite.
/// * `u2` is drawn from the standard **half-open** `[0, 1)` uniform.
///   `cos(TAU·u2)` is total and periodic, so the closed-at-zero
///   endpoint is harmless (`u2 = 0` gives `cos(0) = 1`, a valid angle);
///   widening it to an open interval would change the bit-exact v1
///   stream for no numerical benefit, which the v1 bit-exactness pin in
///   `noise_props.rs` forbids. The v2 regime does not use this
///   function at all (see [`crate::ziggurat`]).
fn box_muller_uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (u1, u2)
}

/// The exact v1 Box–Muller transform through libm: the one home of the
/// expression every v1 measurement is defined by.
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// The RNG draws behind one v1 sample, in [`NoiseModel::sample`]'s
/// order.
#[derive(Clone, Copy, Debug)]
struct V1Draws {
    /// The model's σ, or 0 when σ ≤ 0 and no uniforms were drawn.
    sigma: f64,
    /// Box–Muller uniforms ([`V1Draws::NO_GAUSSIAN`]'s when σ = 0).
    u1: f64,
    u2: f64,
    /// The spike magnitude, when the spike decision fired.
    spike: Option<f64>,
}

impl V1Draws {
    /// `(sigma, u1, u2)` of a sample that draws no Gaussian: a zero
    /// scale over uniforms whose transform is the finite `-0.0`, so
    /// the tile kernel can evaluate every lane branch-free.
    const NO_GAUSSIAN: (f64, f64, f64) = (0.0, 1.0, 0.0);

    /// The exact v1 noise value of these draws — what
    /// [`NoiseModel::sample`] returns.
    fn noise(&self) -> f64 {
        let mut noise = if self.sigma > 0.0 {
            box_muller(self.u1, self.u2) * self.sigma
        } else {
            0.0
        };
        if let Some(magnitude) = self.spike {
            noise += magnitude;
        }
        noise
    }

    /// The exact v1 measurement of a `cycles`-cost op under these draws
    /// — what [`NoiseModel::perturb`] returns.
    fn perturb(&self, cycles: f64) -> u64 {
        (cycles + self.noise()).round().max(1.0) as u64
    }
}

/// Probes per tile: the v1 tile ([`V1Tile`]) and the v2 noise block
/// ([`NoiseModel::fill_block`] in the batched machine path) both hold
/// this many consecutive probes. Pinned equal to the probe pipeline's
/// batch tile (`ProbeStrategy::BATCH_TILE` in `avx-channel`, asserted
/// by a cross-crate test there) so tiles align with
/// `AddrRange::tiles()` and every sweep engine fills whole tiles.
pub const NOISE_BLOCK: usize = 16;

/// Documented bound of the tile kernel, per unit of radius:
/// `|box_muller_fast(u1, u2) − box_muller(u1, u2)| ≤ r · BOX_MULLER_ERR`
/// with `r = √(−2·ln u1)`, for every `u1 ∈ [f64::MIN_POSITIVE, 1)` and
/// `u2 ∈ [0, 1)`.
///
/// Derivation: both sides evaluate the same rounded angle `TAU·u2`, and
/// every error term scales with the radius. The kernel's `ln` keeps 5
/// terms of the atanh series; for `z = s² ≤ 0.0295` the dropped tail is
/// `z⁶/13 ≈ 2⁻³⁴·²` relative (exact `m − 1`, a few ulp of rounding), so
/// its radius is `r·(1 ± 2⁻³⁵·²)`. Its `cos` keeps the Taylor terms
/// through `r¹⁶/16!` after an exact Cody–Waite reduction to `|r| ≤ π/2`;
/// the dropped tail is below `(π/2)¹⁸/18! ≈ 2⁻⁴⁰·⁸` absolute. glibc's
/// `ln`, `sqrt`, `cos` and the final product are within an ulp or two,
/// each relative to the radius. The total is below `r · 2⁻³⁵`; the
/// constant keeps 4× headroom over that. The largest error seen over
/// the edge inputs and 2·10⁵ random draws in the tests is about
/// `2⁻³⁵·² · r`.
pub const BOX_MULLER_ERR: f64 = 1.0 / (1u64 << 33) as f64;

/// Bound on `|cycles + noise|`, on the spike magnitude and on `σ·r`
/// inside the fast path, in cycles; larger values always fall back.
const FAST_MAGNITUDE_MAX: f64 = 65_536.0;

/// One ulp at `2 · FAST_MAGNITUDE_MAX` for each of the three roundings
/// (`·σ`, `+ spike`, `cycles +`) whose input moved between a fast and an
/// exact measurement: every rounded value the fast path keeps is below
/// that magnitude.
const ROUNDING_ERR: f64 = 3.0 * (2.0 * FAST_MAGNITUDE_MAX) * f64::EPSILON;

/// How many times the worst fast-vs-exact distance of a lane its tie
/// margin is.
const TIE_FACTOR: f64 = 1000.0;

const _: () = assert!(TIE_FACTOR >= 1000.0);

/// The tie margin of a lane whose `σ · r` is `sigma_radius`:
/// [`TIE_FACTOR`] times the lane's worst distance between a fast
/// measurement `cycles + noise` and the exact one, the kernel bound
/// scaled by `σ · r` plus [`ROUNDING_ERR`].
#[inline(always)]
fn tie_margin(sigma_radius: f64) -> f64 {
    sigma_radius * (TIE_FACTOR * BOX_MULLER_ERR) + TIE_FACTOR * ROUNDING_ERR
}

/// A tile of up to [`NOISE_BLOCK`] v1 measurements whose Box–Muller
/// transcendentals are evaluated together.
///
/// [`V1Tile::push`] takes each probe's RNG draws in the exact order of
/// [`NoiseModel::perturb`]; [`V1Tile::flush`] then evaluates the whole
/// tile with a branch-free polynomial kernel that LLVM vectorizes, at
/// the widest vector width the host supports (`KernelWidth`), and
/// recomputes through the exact libm expression every probe whose fast
/// value lands within its lane's tie margin of a rounding tie. The
/// margin is 1000 times the lane's worst fast-vs-exact distance,
/// `σ · r ·` [`BOX_MULLER_ERR`] plus three roundings, so the
/// nearest integer is the same for every probe kept on the fast path:
/// each measurement equals the [`NoiseModel::perturb`] result
/// bit-for-bit, and the RNG ends in the same state.
///
/// ```
/// use avx_uarch::{NoiseModel, V1Tile};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let model = NoiseModel::new(1.5, 0.01, (200.0, 1500.0));
/// let (mut tiled, mut scalar) = (StdRng::seed_from_u64(7), StdRng::seed_from_u64(7));
/// let mut tile = V1Tile::new();
/// for i in 0..16 {
///     tile.push(&model, &mut tiled, 90.0 + f64::from(i));
/// }
/// for (i, &measured) in tile.flush().iter().enumerate() {
///     assert_eq!(measured, model.perturb(&mut scalar, 90.0 + i as f64));
/// }
/// ```
#[derive(Clone, Debug)]
pub struct V1Tile {
    len: usize,
    lanes: V1Lanes,
    measured: [u64; NOISE_BLOCK],
    fallbacks: u64,
    /// The kernel instantiation [`V1Tile::flush`] runs.
    width: KernelWidth,
}

/// The pending probes' costs and draws, one array per field so the
/// kernel loop loads whole vectors.
#[derive(Clone, Debug)]
struct V1Lanes {
    cycles: [f64; NOISE_BLOCK],
    sigma: [f64; NOISE_BLOCK],
    u1: [f64; NOISE_BLOCK],
    u2: [f64; NOISE_BLOCK],
    /// Spike magnitude, 0 when the spike decision did not fire.
    spike: [f64; NOISE_BLOCK],
}

impl Default for V1Tile {
    fn default() -> Self {
        Self::new()
    }
}

impl V1Tile {
    /// An empty tile.
    #[must_use]
    pub fn new() -> Self {
        Self::at_width(KernelWidth::host())
    }

    /// An empty tile whose flushes run the `width` instantiation.
    fn at_width(width: KernelWidth) -> Self {
        let (sigma, u1, u2) = V1Draws::NO_GAUSSIAN;
        Self {
            len: 0,
            lanes: V1Lanes {
                cycles: [0.0; NOISE_BLOCK],
                sigma: [sigma; NOISE_BLOCK],
                u1: [u1; NOISE_BLOCK],
                u2: [u2; NOISE_BLOCK],
                spike: [0.0; NOISE_BLOCK],
            },
            measured: [0; NOISE_BLOCK],
            fallbacks: 0,
            width,
        }
    }

    /// Probes recomputed through the exact expression so far.
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Queues one measurement of a `cycles`-cost op under `model`,
    /// drawing its noise from `rng` exactly as [`NoiseModel::perturb`]
    /// would.
    ///
    /// # Panics
    ///
    /// Panics if the tile already holds [`NOISE_BLOCK`] probes.
    pub fn push<R: Rng + ?Sized>(&mut self, model: &NoiseModel, rng: &mut R, cycles: f64) {
        assert!(self.len < NOISE_BLOCK, "tile full: flush first");
        self.push_unchecked(model, rng, cycles);
    }

    /// Queues one measurement per cost in `cycles`, all under `model`:
    /// the draws of [`V1Tile::push`] once per cost, in order.
    ///
    /// # Panics
    ///
    /// Panics if the tile cannot hold `cycles.len()` more probes.
    pub fn push_run<R: Rng + ?Sized>(&mut self, model: &NoiseModel, rng: &mut R, cycles: &[f64]) {
        assert!(
            self.len + cycles.len() <= NOISE_BLOCK,
            "tile full: flush first"
        );
        for &c in cycles {
            self.push_unchecked(model, rng, c);
        }
    }

    /// [`V1Tile::push`] after its capacity check.
    #[inline(always)]
    fn push_unchecked<R: Rng + ?Sized>(&mut self, model: &NoiseModel, rng: &mut R, cycles: f64) {
        let (i, lanes) = (self.len, &mut self.lanes);
        let d = model.draw_v1(rng);
        lanes.cycles[i] = cycles;
        lanes.sigma[i] = d.sigma;
        lanes.u1[i] = d.u1;
        lanes.u2[i] = d.u2;
        lanes.spike[i] = d.spike.unwrap_or(0.0);
        self.len += 1;
    }

    /// Measures every pending probe and empties the tile; the
    /// measurements come back in push order.
    ///
    /// The kernel (`v1_kernel`) runs over all [`NOISE_BLOCK`] lanes.
    /// Lanes past the pending probes still hold an earlier tile's draws
    /// (or the empty tile's no-Gaussian draws), always valid kernel
    /// inputs; their results are never read. Only the pending lanes the
    /// kernel's fallback mask flags are recomputed through the exact
    /// expression and counted as fallbacks.
    pub fn flush(&mut self) -> &[u64] {
        let n = core::mem::take(&mut self.len);
        // Only the width-equivalence test reads the fast values.
        let mut fast = [0.0f64; NOISE_BLOCK];
        let mask = self
            .width
            .evaluate(&self.lanes, &mut fast, &mut self.measured);
        let mut pending = mask & ((1 << n) - 1);
        while pending != 0 {
            let i = pending.trailing_zeros() as usize;
            pending &= pending - 1;
            self.fallbacks += 1;
            // A spike that did not fire is stored as +0, and adding +0
            // moves no rounded measurement.
            let draws = V1Draws {
                sigma: self.lanes.sigma[i],
                u1: self.lanes.u1[i],
                u2: self.lanes.u2[i],
                spike: Some(self.lanes.spike[i]),
            };
            self.measured[i] = draws.perturb(self.lanes.cycles[i]);
        }
        &self.measured[..n]
    }
}

/// The tile kernel over all [`NOISE_BLOCK`] lanes: each lane's fast
/// value `cycles + noise` into `fast`, its nearest integer clamped at 1
/// into `measured`, and the returned fallback mask, one bit per lane,
/// set where the fast path cannot be trusted.
///
/// Its passes have a fixed trip count that LLVM vectorizes whole: the
/// fast values and the lanes' `σ · r`, then their nearest integers and
/// the mask. This one body is compiled at every [`KernelWidth`], and
/// every width computes the same bits: IEEE-754 add, sub, mul, div and
/// sqrt are correctly rounded in every vector width, Rust never
/// contracts `a * b + c` into a fused multiply-add, and `round`, `max`
/// and the 2⁵² integer conversion are exact.
#[inline(always)]
fn v1_kernel(
    lanes: &V1Lanes,
    fast: &mut [f64; NOISE_BLOCK],
    measured: &mut [u64; NOISE_BLOCK],
) -> u32 {
    let mut sigma_radius = [0.0f64; NOISE_BLOCK];
    for i in 0..NOISE_BLOCK {
        let radius = radius_fast(lanes.u1[i]);
        let cos = cos_fast(core::f64::consts::TAU * lanes.u2[i]);
        fast[i] = lanes.cycles[i] + (radius * cos * lanes.sigma[i] + lanes.spike[i]);
        sigma_radius[i] = lanes.sigma[i] * radius;
    }
    let mut fallback = [0u32; NOISE_BLOCK];
    for (i, (measured, bit)) in measured.iter_mut().zip(&mut fallback).enumerate() {
        let (fast, sigma_radius, spike) = (fast[i], sigma_radius[i], lanes.spike[i]);
        let nearest = fast.round();
        // `&`, not `&&`: the whole test stays branch-free.
        let trusted = (sigma_radius < FAST_MAGNITUDE_MAX)
            & (spike.abs() < FAST_MAGNITUDE_MAX)
            & (fast.abs() < FAST_MAGNITUDE_MAX)
            & ((fast - nearest).abs() < 0.5 - tie_margin(sigma_radius));
        *bit = u32::from(!trusted) << i;
        // `as u64` through the 2⁵² bias, exact for trusted lanes
        // (0 < nearest < 2¹⁷); the others are overwritten by the
        // fallback or never read.
        *measured = (nearest.max(1.0) + TWO_52).to_bits() - TWO_52.to_bits();
    }
    fallback.iter().fold(0, |mask, &bit| mask | bit)
}

/// The instantiations of [`v1_kernel`] and the choice between them: the
/// one `unsafe` call of the crate and every line its argument rests on.
mod width {
    use super::{v1_kernel, V1Lanes, NOISE_BLOCK};

    /// A vector width [`v1_kernel`] is compiled for, and that this CPU
    /// runs. The build's baseline stays the portable one (SSE4.2 on
    /// x86-64); a wider one is chosen at run time, from what the CPU
    /// reports. Only [`KernelWidth::supported`] makes a value, so a
    /// wide one exists only on a CPU with its target features.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(super) struct KernelWidth(Width);

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Width {
        /// The build's own target features.
        Portable,
        /// [`v1_kernel_avx2`].
        #[cfg(target_arch = "x86_64")]
        Avx2,
        /// [`v1_kernel_avx512`].
        #[cfg(target_arch = "x86_64")]
        Avx512,
    }

    impl KernelWidth {
        /// The build's own width, which every host runs.
        #[cfg(test)]
        pub(super) const PORTABLE: Self = Self(Width::Portable);

        /// Every width this host runs, narrowest first: the portable
        /// one, then each wider one whose target features
        /// `is_x86_feature_detected!` finds. `avx512f` implies `avx2`,
        /// `fma` and `f16c` in Rust's feature model, so AVX-512 needs
        /// all four.
        pub(super) fn supported() -> Vec<Self> {
            let mut widths = vec![Self(Width::Portable)];
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected as has;
                if has!("avx2") {
                    widths.push(Self(Width::Avx2));
                    if has!("avx512f") && has!("fma") && has!("f16c") {
                        widths.push(Self(Width::Avx512));
                    }
                }
            }
            widths
        }

        /// The widest of [`KernelWidth::supported`], detected once.
        pub(super) fn host() -> Self {
            static HOST: std::sync::OnceLock<KernelWidth> = std::sync::OnceLock::new();
            *HOST.get_or_init(|| {
                Self::supported()
                    .pop()
                    .expect("the portable width is always supported")
            })
        }

        /// Runs [`v1_kernel`] compiled at this width.
        #[inline(always)]
        pub(super) fn evaluate(
            self,
            lanes: &V1Lanes,
            fast: &mut [f64; NOISE_BLOCK],
            measured: &mut [u64; NOISE_BLOCK],
        ) -> u32 {
            #[cfg(target_arch = "x86_64")]
            #[allow(unsafe_code)]
            // SAFETY: only `KernelWidth::supported` makes a
            // `KernelWidth`, and it makes `Avx2` only when
            // `is_x86_feature_detected!` finds `avx2`, and `Avx512` only
            // when it also finds `avx512f`, `fma` and `f16c`. So the CPU
            // running this call has every target feature of the
            // instantiation it enters.
            unsafe {
                match self.0 {
                    Width::Avx512 => return v1_kernel_avx512(lanes, fast, measured),
                    Width::Avx2 => return v1_kernel_avx2(lanes, fast, measured),
                    Width::Portable => {}
                }
            }
            v1_kernel(lanes, fast, measured)
        }
    }

    /// [`v1_kernel`] compiled for 256-bit AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn v1_kernel_avx2(
        lanes: &V1Lanes,
        fast: &mut [f64; NOISE_BLOCK],
        measured: &mut [u64; NOISE_BLOCK],
    ) -> u32 {
        v1_kernel(lanes, fast, measured)
    }

    /// [`v1_kernel`] compiled for 512-bit AVX-512F.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn v1_kernel_avx512(
        lanes: &V1Lanes,
        fast: &mut [f64; NOISE_BLOCK],
        measured: &mut [u64; NOISE_BLOCK],
    ) -> u32 {
        v1_kernel(lanes, fast, measured)
    }
}

/// `2⁵²`: the exponent bias of the integer ↔ `f64` conversions below.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `1.5 · 2⁵²`: adding it to any `|x| < 2⁵¹` leaves `round(x)` (ties
/// to even) in the low mantissa bits; subtracting it again yields that
/// integer as an `f64`.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `ln 2` split so that `k · LN2_HI` is exact for `|k| < 2¹¹`
/// (fdlibm's constants, bit patterns 0x3fe62e42_fee00000 and
/// 0x3dea39ef_35793c76).
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// `π` split so that `k · PI_HI` is exact for `k < 2²⁰` (the leading
/// 33 bits, and the rounded remainder; twice fdlibm's `pio2_1`/`pio2_1t`).
const PI_HI: f64 = f64::from_bits(0x4009_21fb_5440_0000);
const PI_LO: f64 = f64::from_bits(0x3de0_b461_1a62_6331);

/// `ln((1+s)/(1−s)) = 2s + s·R(s²)` with `R(z) = Σ 2z^j/(2j+1)`,
/// `j = 1..=5`; for `|s| ≤ 0.1716` the dropped tail is below `z⁶/13 ≈
/// 2⁻³⁴·²` relative ([`BOX_MULLER_ERR`]).
const LN_SERIES: [f64; 5] = [2.0 / 3.0, 2.0 / 5.0, 2.0 / 7.0, 2.0 / 9.0, 2.0 / 11.0];

/// `cos r = 1 + z·P(z)`, `z = r²`, Taylor terms through `r¹⁶/16!`;
/// for `|r| ≤ π/2` the dropped tail is below `(π/2)¹⁸/18! ≈ 2⁻⁴⁰·⁸`.
const COS_SERIES: [f64; 8] = [
    -1.0 / 2.0,
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40_320.0,
    -1.0 / 3_628_800.0,
    1.0 / 479_001_600.0,
    -1.0 / 87_178_291_200.0,
    1.0 / 20_922_789_888_000.0,
];

/// `Σ coeffs[j]·x^j`, evaluated as Horner's rule in `x²` over the pairs
/// `coeffs[2i] + coeffs[2i+1]·x`: the pairs are independent, so the
/// dependency chain is half of plain Horner's.
#[inline(always)]
fn poly(x: f64, coeffs: &[f64]) -> f64 {
    let x2 = x * x;
    let term = |pair: &[f64]| match pair {
        [c0, c1] => c0 + c1 * x,
        _ => pair[0],
    };
    let mut pairs = coeffs.chunks(2).rev();
    let top = term(pairs.next().expect("a polynomial has a coefficient"));
    pairs.fold(top, |acc, pair| acc * x2 + term(pair))
}

/// Branch-free `ln x` for `x ∈ [f64::MIN_POSITIVE, 1]` (normal inputs
/// only), after fdlibm's `e_log.c`: `x = 2^k · m` with `m ∈ [√½, √2)`,
/// `f = m − 1` exact, and the atanh series in `s = f/(2+f)`.
#[inline(always)]
fn ln_fast(x: f64) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    let bits = x.to_bits();
    let mantissa = bits & MANTISSA;
    // Mantissas at or above √2 − 1 are halved into [√½, 1), bumping k.
    let halve = ((mantissa + (0x95f64 << 32)) >> 52) & 1;
    let m = f64::from_bits(mantissa | ((0x3ff - halve) << 52));
    // k = exponent + halve − 1023, converted through the 2⁵² bias.
    let k = f64::from_bits(TWO_52.to_bits() | ((bits >> 52) + halve)) - (TWO_52 + 1023.0);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let r = z * poly(z, &LN_SERIES);
    let hfsq = 0.5 * f * f;
    k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
}

/// Branch-free `cos x` for `x ∈ [0, 2π]`: Cody–Waite reduction by the
/// nearest multiple of π, then the cos series of the remainder with
/// the multiple's sign.
#[inline(always)]
fn cos_fast(x: f64) -> f64 {
    let shifted = x * core::f64::consts::FRAC_1_PI + ROUND_MAGIC;
    let parity = shifted.to_bits() & 1;
    let k = shifted - ROUND_MAGIC;
    // Exact: k·PI_HI fits in 53 bits and x − k·PI_HI cancels (Sterbenz).
    let r = (x - k * PI_HI) - k * PI_LO;
    let z = r * r;
    let cos_r = 1.0 + z * poly(z, &COS_SERIES);
    f64::from_bits(cos_r.to_bits() ^ (parity << 63))
}

/// The tile kernel's Box–Muller radius `√(−2·ln u1)`.
#[inline(always)]
fn radius_fast(u1: f64) -> f64 {
    (-2.0 * ln_fast(u1)).sqrt()
}

/// The tile kernel's Box–Muller transform: the exact expression's
/// shape with [`ln_fast`] and [`cos_fast`] in place of libm, within
/// `r ·` [`BOX_MULLER_ERR`] of [`box_muller`].
#[cfg(test)]
fn box_muller_fast(u1: f64, u2: f64) -> f64 {
    radius_fast(u1) * cos_fast(core::f64::consts::TAU * u2)
}

/// A named noise environment: fixed multipliers applied on top of a CPU
/// profile's baseline [`TimingParams`] noise anchors.
///
/// The four *static* presets are *pinned distributions*, not free-form
/// config blobs: each maps a profile's `(noise_sigma, spike_prob,
/// spike_range)` to a concrete [`NoiseModel`] through constant factors,
/// and the unit tests assert the resulting moments, so a preset cannot
/// silently drift.
///
/// | preset | σ factor | spike-rate factor | spike-magnitude factor |
/// |---|---|---|---|
/// | [`NoiseProfile::Quiet`] | 1 | 1 | 1 |
/// | [`NoiseProfile::SmtSibling`] | 3 | 6 | 0.5 |
/// | [`NoiseProfile::LaptopDvfs`] | 6 | 3 | 2 |
/// | [`NoiseProfile::NoisyNeighbor`] | 4 | 12 | 1.5 |
///
/// [`NoiseProfile::Drift`] is the non-stationary exception: the
/// environment *ramps* from one static preset to another mid-scan
/// (probe-indexed, see [`DriftRamp`]) — the DVFS-transition /
/// co-tenant-arrival scenario in which a one-shot calibration silently
/// goes stale.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum NoiseProfile {
    /// A quiescent host — the paper's measurement setup. Baseline
    /// profile noise, unscaled.
    #[default]
    Quiet,
    /// An SMT sibling hammering the shared core: persistent extra
    /// pipeline jitter and frequent small preemption spikes.
    SmtSibling,
    /// A frequency-scaling laptop: DVFS transitions smear the cycle
    /// scale (wide Gaussian) and add long transition stalls.
    LaptopDvfs,
    /// A noisy-neighbor cloud tenant: scheduler steal time makes
    /// interrupt-style spikes an order of magnitude more frequent.
    NoisyNeighbor,
    /// A mid-scan environment ramp between two static presets (e.g.
    /// quiet → laptop when DVFS kicks in). Built via
    /// [`NoiseProfile::drift`]; the victim machine interpolates the two
    /// induced models over the ramp's probe-index span.
    Drift(DriftRamp),
}

/// Probe index at which the default [`NoiseProfile::drift`] ramp starts
/// leaving its `from` preset. 256 probes sits safely after the §IV-B
/// calibration series (17 probes) but early enough that the bulk of a
/// 512-slot sweep runs in the drifted environment.
pub const DRIFT_DEFAULT_ONSET: u64 = 256;

/// Probe index at which the default [`NoiseProfile::drift`] ramp has
/// fully reached its `to` preset.
pub const DRIFT_DEFAULT_FULL: u64 = 512;

/// The probe-indexed ramp of a [`NoiseProfile::Drift`] environment.
///
/// Endpoints are two *static* presets; the ramp linearly interpolates
/// their induced [`NoiseModel`]s between the `onset`-th and `full`-th
/// probe the victim machine executes (`onset == full` is a step).
/// Probe-indexed rather than wall-clock so campaign trials stay
/// deterministic and independent of the sampling policy's runtime.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DriftRamp {
    /// Index of the starting preset in [`NoiseProfile::ALL`].
    from: u8,
    /// Index of the target preset in [`NoiseProfile::ALL`].
    to: u8,
    /// Probe index where the environment starts leaving `from`.
    onset: u64,
    /// Probe index from which `to` fully applies.
    full: u64,
}

impl DriftRamp {
    /// The static preset the environment starts in.
    #[must_use]
    pub fn from_profile(self) -> NoiseProfile {
        NoiseProfile::ALL[self.from as usize]
    }

    /// The static preset the environment ramps to.
    #[must_use]
    pub fn to_profile(self) -> NoiseProfile {
        NoiseProfile::ALL[self.to as usize]
    }

    /// Probe index where the ramp starts.
    #[must_use]
    pub fn onset(self) -> u64 {
        self.onset
    }

    /// Probe index from which the target preset fully applies.
    #[must_use]
    pub fn full(self) -> u64 {
        self.full
    }
}

/// A probe-indexed noise trajectory: the concrete per-machine form of a
/// [`DriftRamp`] (endpoint presets already resolved against one CPU's
/// timing anchors).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NoiseSchedule {
    /// Model in effect before `onset`.
    pub from: NoiseModel,
    /// Model in effect from `full` on.
    pub to: NoiseModel,
    /// Probe index where interpolation starts.
    pub onset: u64,
    /// Probe index where `to` fully applies.
    pub full: u64,
}

impl NoiseSchedule {
    /// The noise model in effect for the `probe_index`-th probe:
    /// `from` before `onset`, `to` from `full` on, linear interpolation
    /// of σ, spike rate and spike magnitudes in between.
    #[must_use]
    pub fn model_at(&self, probe_index: u64) -> NoiseModel {
        if probe_index < self.onset {
            return self.from;
        }
        if probe_index >= self.full {
            return self.to;
        }
        let t = (probe_index - self.onset) as f64 / (self.full - self.onset) as f64;
        let lerp = |a: f64, b: f64| a + (b - a) * t;
        NoiseModel::new(
            lerp(self.from.sigma, self.to.sigma),
            lerp(self.from.spike_prob, self.to.spike_prob),
            (
                lerp(self.from.spike_range.0, self.to.spike_range.0),
                lerp(self.from.spike_range.1, self.to.spike_range.1),
            ),
        )
    }
}

impl NoiseProfile {
    /// The four static presets, quietest first. [`NoiseProfile::Drift`]
    /// is deliberately absent: it is a scenario *modifier* built from
    /// two of these, not a fifth stationary environment — grid code
    /// iterating `ALL` keeps its historical row counts.
    pub const ALL: [NoiseProfile; 4] = [
        NoiseProfile::Quiet,
        NoiseProfile::SmtSibling,
        NoiseProfile::LaptopDvfs,
        NoiseProfile::NoisyNeighbor,
    ];

    /// A drifting environment ramping from one static preset to another
    /// over the default probe-index span
    /// ([`DRIFT_DEFAULT_ONSET`]..[`DRIFT_DEFAULT_FULL`]).
    ///
    /// ```
    /// use avx_uarch::{CpuProfile, NoiseProfile};
    ///
    /// let timing = CpuProfile::alder_lake_i5_12400f().timing;
    /// let drift = NoiseProfile::drift(NoiseProfile::Quiet, NoiseProfile::LaptopDvfs);
    /// // One-shot calibration (the first ~17 probes) sees the quiet σ...
    /// assert_eq!(drift.effective_sigma(&timing), timing.noise_sigma);
    /// // ...but the machine's schedule ends on the laptop model.
    /// let schedule = drift.schedule_for(&timing).unwrap();
    /// assert_eq!(schedule.model_at(0), NoiseProfile::Quiet.model_for(&timing));
    /// assert_eq!(
    ///     schedule.model_at(u64::MAX),
    ///     NoiseProfile::LaptopDvfs.model_for(&timing),
    /// );
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is itself a drift (ramps do not nest).
    #[must_use]
    pub fn drift(from: NoiseProfile, to: NoiseProfile) -> Self {
        Self::drift_with(from, to, DRIFT_DEFAULT_ONSET, DRIFT_DEFAULT_FULL)
    }

    /// [`NoiseProfile::drift`] with an explicit probe-index ramp;
    /// `onset == full` models an abrupt step (e.g. a co-tenant landing
    /// on the core).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is a drift or `full < onset`.
    #[must_use]
    pub fn drift_with(from: NoiseProfile, to: NoiseProfile, onset: u64, full: u64) -> Self {
        let index = |p: NoiseProfile| {
            Self::ALL
                .iter()
                .position(|&s| s == p)
                .expect("drift endpoints must be static presets") as u8
        };
        assert!(full >= onset, "ramp must not end before it starts");
        NoiseProfile::Drift(DriftRamp {
            from: index(from),
            to: index(to),
            onset,
            full,
        })
    }

    /// The pinned drifting-noise scenario of the campaign matrix: a
    /// quiet host whose environment ramps to the laptop-DVFS preset
    /// mid-scan (what `repro --noise drift` selects).
    #[must_use]
    pub fn drift_quiet_to_laptop() -> Self {
        Self::drift(NoiseProfile::Quiet, NoiseProfile::LaptopDvfs)
    }

    /// `(sigma, spike_prob, spike_magnitude)` multipliers of the preset.
    /// For [`NoiseProfile::Drift`] these are the *starting* preset's
    /// factors — what the environment looks like while the attacker
    /// calibrates.
    #[must_use]
    pub const fn factors(self) -> (f64, f64, f64) {
        match self {
            NoiseProfile::Quiet => (1.0, 1.0, 1.0),
            NoiseProfile::SmtSibling => (3.0, 6.0, 0.5),
            NoiseProfile::LaptopDvfs => (6.0, 3.0, 2.0),
            NoiseProfile::NoisyNeighbor => (4.0, 12.0, 1.5),
            // One level of recursion at most: ALL holds only static
            // presets (DriftRamp endpoints are constructed from it),
            // so the table above is the single source of the factors.
            NoiseProfile::Drift(ramp) => Self::ALL[ramp.from as usize].factors(),
        }
    }

    /// Stable identifier (also what [`NoiseProfile::parse`] accepts).
    /// All drift ramps report `"drift"`; the endpoints show up in
    /// [`fmt::Display`].
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            NoiseProfile::Quiet => "quiet",
            NoiseProfile::SmtSibling => "smt",
            NoiseProfile::LaptopDvfs => "laptop",
            NoiseProfile::NoisyNeighbor => "cloud",
            NoiseProfile::Drift(_) => "drift",
        }
    }

    /// Parses a preset name (`quiet`, `smt`, `laptop`, `cloud`, plus
    /// the long aliases `smt-sibling`, `dvfs`, `noisy-neighbor`, and
    /// `drift` for the pinned quiet→laptop ramp).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "quiet" => Some(NoiseProfile::Quiet),
            "smt" | "smt-sibling" => Some(NoiseProfile::SmtSibling),
            "laptop" | "dvfs" => Some(NoiseProfile::LaptopDvfs),
            "cloud" | "noisy-neighbor" => Some(NoiseProfile::NoisyNeighbor),
            "drift" | "quiet-laptop" => Some(NoiseProfile::drift_quiet_to_laptop()),
            _ => None,
        }
    }

    /// The concrete noise model this preset induces on a CPU whose
    /// baseline anchors are `timing`. Spike probability is capped at
    /// 0.5 — past that the "spike" is the common case and the model
    /// stops being a spike model. For [`NoiseProfile::Drift`] this is
    /// the *starting* model; [`NoiseProfile::schedule_for`] carries the
    /// trajectory.
    #[must_use]
    pub fn model_for(self, timing: &TimingParams) -> NoiseModel {
        if let NoiseProfile::Drift(ramp) = self {
            return ramp.from_profile().model_for(timing);
        }
        let (sigma_f, spike_f, magnitude_f) = self.factors();
        let (lo, hi) = timing.spike_range;
        NoiseModel::new(
            timing.noise_sigma * sigma_f,
            (timing.spike_prob * spike_f).min(0.5),
            (lo * magnitude_f, hi * magnitude_f),
        )
    }

    /// The probe-indexed noise trajectory this profile induces: `None`
    /// for the stationary presets, the resolved ramp for
    /// [`NoiseProfile::Drift`].
    #[must_use]
    pub fn schedule_for(self, timing: &TimingParams) -> Option<NoiseSchedule> {
        match self {
            NoiseProfile::Drift(ramp) => Some(NoiseSchedule {
                from: ramp.from_profile().model_for(timing),
                to: ramp.to_profile().model_for(timing),
                onset: ramp.onset,
                full: ramp.full,
            }),
            _ => None,
        }
    }

    /// Effective Gaussian σ of this preset on `timing` — what the
    /// adaptive sampler's likelihood model should assume. For
    /// [`NoiseProfile::Drift`] this is the *starting* σ: exactly what a
    /// one-shot calibration phase observes (and why it goes stale — the
    /// closed-loop recalibration engine in `avx-channel` exists to
    /// re-estimate it mid-scan).
    #[must_use]
    pub fn effective_sigma(self, timing: &TimingParams) -> f64 {
        timing.noise_sigma * self.factors().0
    }
}

impl fmt::Display for NoiseProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseProfile::Drift(ramp) => f.pad(&format!(
                "drift({}→{})",
                ramp.from_profile().name(),
                ramp.to_profile().name()
            )),
            _ => f.pad(self.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn none_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = NoiseModel::none();
        for _ in 0..100 {
            assert_eq!(m.perturb(&mut rng, 93.0), 93);
        }
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = NoiseModel::new(2.0, 0.0, (0.0, 0.0));
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| m.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd {}", var.sqrt());
    }

    #[test]
    fn spikes_appear_at_expected_rate_and_are_positive() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = NoiseModel::new(0.0, 0.05, (500.0, 1000.0));
        let n = 40_000;
        let spikes = (0..n)
            .map(|_| m.sample(&mut rng))
            .filter(|&x| x > 0.0)
            .count();
        let rate = spikes as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn spike_magnitude_in_range() {
        let mut rng = StdRng::seed_from_u64(13);
        let m = NoiseModel::new(0.0, 1.0, (500.0, 1000.0));
        for _ in 0..1000 {
            let s = m.sample(&mut rng);
            assert!((500.0..1000.0).contains(&s), "spike {s}");
        }
    }

    #[test]
    fn perturb_never_returns_zero() {
        let mut rng = StdRng::seed_from_u64(17);
        let m = NoiseModel::new(50.0, 0.0, (0.0, 0.0));
        for _ in 0..1000 {
            assert!(m.perturb(&mut rng, 1.0) >= 1);
        }
    }

    #[test]
    fn degenerate_spike_range_uses_lower_bound() {
        let mut rng = StdRng::seed_from_u64(19);
        let m = NoiseModel::new(0.0, 1.0, (250.0, 250.0));
        assert_eq!(m.sample(&mut rng), 250.0);
    }

    #[test]
    fn v2_moments_match_v1_distribution() {
        let mut rng = StdRng::seed_from_u64(23);
        let m = NoiseModel::new(2.0, 0.0, (0.0, 0.0));
        let n = 30_000;
        let samples: Vec<f64> = (0..n).map(|_| m.sample_v2(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sd {}", var.sqrt());
    }

    #[test]
    fn v2_spike_rate_matches_the_probability() {
        let mut rng = StdRng::seed_from_u64(29);
        let m = NoiseModel::new(0.0, 0.05, (500.0, 1000.0));
        let n = 40_000;
        let spikes = (0..n)
            .map(|_| m.sample_v2(&mut rng))
            .filter(|&x| x > 0.0)
            .count();
        let rate = spikes as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn v2_certain_spike_always_fires() {
        // spike_prob = 1.0 saturates the u128 threshold to "always":
        // the fixed-point compare must not lose the top probability ulp.
        let mut rng = StdRng::seed_from_u64(31);
        let m = NoiseModel::new(0.0, 1.0, (500.0, 1000.0));
        for _ in 0..1000 {
            let s = m.sample_v2(&mut rng);
            assert!((500.0..1000.0).contains(&s), "spike {s}");
        }
    }

    #[test]
    fn fill_block_is_the_scalar_v2_stream() {
        // The block path must consume the RNG exactly like consecutive
        // scalar sample_v2 calls — that equality is what makes the v2
        // batched machine bit-identical to the v2 scalar machine.
        let m = NoiseModel::new(1.3, 0.05, (200.0, 900.0));
        let mut block_rng = StdRng::seed_from_u64(37);
        let mut scalar_rng = StdRng::seed_from_u64(37);
        let mut block = [0.0; 16];
        for _ in 0..64 {
            m.fill_block(&mut block_rng, &mut block);
            for &b in &block {
                assert_eq!(b, m.sample_v2(&mut scalar_rng));
            }
        }
        // The out-of-line paths, in blocks of 1 to 16 samples: no
        // Gaussian word (σ = 0), a spike magnitude on every sample, and
        // a stream long enough for wedge and tail draws. The generators
        // end in the same state.
        use rand::RngCore;
        let tables = crate::ziggurat::tables();
        for (seed, m, samples) in [
            (43, NoiseModel::new(0.0, 0.05, (200.0, 900.0)), 2_000),
            (47, NoiseModel::new(1.3, 1.0, (200.0, 900.0)), 2_000),
            (53, NoiseModel::new(1.3, 0.0, (0.0, 0.0)), 40_000),
        ] {
            let mut block_rng = StdRng::seed_from_u64(seed);
            let mut scalar_rng = StdRng::seed_from_u64(seed);
            let (mut drawn, mut rejected, mut tails) = (0, 0, 0);
            for len in (1..=NOISE_BLOCK).cycle() {
                if drawn >= samples {
                    break;
                }
                let block = &mut [0.0; NOISE_BLOCK][..len];
                m.fill_block(&mut block_rng, block);
                for &b in block.iter() {
                    // The first word of a Gaussian sample: the rare path
                    // takes it when it fails the in-layer test, as a tail
                    // draw in layer 0 and a wedge draw elsewhere.
                    let bits = scalar_rng.clone().next_u64();
                    if m.sigma > 0.0 && tables.in_layer(bits).is_none() {
                        rejected += 1;
                        tails += usize::from(bits & 0xff == 0);
                    }
                    assert_eq!(b, m.sample_v2(&mut scalar_rng), "{m:?}");
                }
                drawn += len;
            }
            assert_eq!(block_rng.next_u64(), scalar_rng.next_u64(), "{m:?}");
            if samples > 10_000 {
                assert!(tails > 0 && rejected > tails, "{tails} tails of {rejected}");
            }
        }
    }

    #[test]
    fn v2_none_model_draws_nothing() {
        // A noiseless model must not consume RNG words in either regime.
        use rand::RngCore;
        let m = NoiseModel::none();
        let mut rng = StdRng::seed_from_u64(41);
        let mut reference = StdRng::seed_from_u64(41);
        assert_eq!(m.sample_v2(&mut rng), 0.0);
        let mut block = [1.0; 8];
        m.fill_block(&mut rng, &mut block);
        assert_eq!(block, [0.0; 8]);
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    /// `u1` edge inputs: the interval ends, the `[√½, √2)` split
    /// point ± 1 ulp, and the first draw above `MIN_POSITIVE`.
    fn u1_edges() -> Vec<f64> {
        let half_sqrt = core::f64::consts::FRAC_1_SQRT_2;
        vec![
            f64::MIN_POSITIVE,
            f64::EPSILON / 2.0,
            0.5,
            half_sqrt.next_down(),
            half_sqrt,
            half_sqrt.next_up(),
            1.0 - f64::EPSILON / 2.0,
        ]
    }

    /// `u2` edge inputs: 0, every octant of the angle (the reduction's
    /// quadrant boundaries at odd eighths, the zeros and extrema of
    /// cos at even ones) ± 1 ulp, and the last draw below 1.
    fn u2_edges() -> Vec<f64> {
        let mut edges = vec![0.0, f64::from_bits(1), 1.0 - f64::EPSILON / 2.0];
        for j in 1..8 {
            let b = f64::from(j) / 8.0;
            edges.extend([b.next_down(), b, b.next_up()]);
        }
        edges
    }

    #[test]
    fn ln_fast_stays_within_its_truncation_bound() {
        // The dropped tail at the largest `z = s²`, `Σ_{j≥6} z^j/(2j+1)
        // ≤ z⁶/(13·(1 − z))` relative, plus a few ulp of rounding.
        let z = ((2f64.sqrt() - 1.0) / (2f64.sqrt() + 1.0)).powi(2);
        assert!(z <= 0.0295);
        let bound = z.powi(6) / (13.0 * (1.0 - z)) + 4.0 * f64::EPSILON;
        let mut rng = StdRng::seed_from_u64(43);
        let random = (0..200_000).map(|_| rng.gen_range(f64::MIN_POSITIVE..1.0));
        for u1 in u1_edges().into_iter().chain(random) {
            let (fast, exact) = (ln_fast(u1), u1.ln());
            assert!(
                (fast - exact).abs() <= bound * exact.abs(),
                "ln({u1:e}): {fast:e} vs {exact:e}"
            );
        }
        assert_eq!(ln_fast(1.0), 0.0);
    }

    #[test]
    fn cos_fast_stays_within_its_truncation_bound() {
        // The dropped tail, `(π/2)¹⁸/18!` absolute, plus a few ulp.
        let tail = (1..=18).fold(1.0, |acc, k| {
            acc * core::f64::consts::FRAC_PI_2 / f64::from(k)
        });
        let bound = tail + 4.0 * f64::EPSILON;
        let mut rng = StdRng::seed_from_u64(47);
        let random = (0..200_000).map(|_| rng.gen::<f64>());
        for u2 in u2_edges().into_iter().chain(random) {
            let x = core::f64::consts::TAU * u2;
            let (fast, exact) = (cos_fast(x), x.cos());
            assert!(
                (fast - exact).abs() <= bound,
                "cos({x:e}): {fast:e} vs {exact:e}"
            );
        }
    }

    #[test]
    fn box_muller_fast_stays_within_the_documented_bound() {
        // The error per unit of radius, `|fast − exact| / r`.
        let mut worst = 0.0f64;
        let mut check = |u1: f64, u2: f64| {
            let r = (-2.0 * u1.ln()).sqrt();
            let err = (box_muller_fast(u1, u2) - box_muller(u1, u2)).abs();
            assert!(
                err <= r * BOX_MULLER_ERR,
                "({u1:e}, {u2:e}): error {err:e} at r = {r}"
            );
            worst = worst.max(err / r);
        };
        for u1 in u1_edges() {
            for u2 in u2_edges() {
                check(u1, u2);
            }
        }
        let mut rng = StdRng::seed_from_u64(53);
        for _ in 0..200_000 {
            let (u1, u2) = box_muller_uniforms(&mut rng);
            check(u1, u2);
        }
        // The constant keeps ≥ 4× headroom over what the kernel shows.
        assert!(worst * 4.0 <= BOX_MULLER_ERR, "worst error {worst:e} · r");
        // A lane that drew no Gaussian transforms to a finite zero.
        let (_, u1, u2) = V1Draws::NO_GAUSSIAN;
        assert_eq!(box_muller_fast(u1, u2), 0.0);
    }

    #[test]
    fn split_constants_sum_to_their_targets() {
        assert_eq!(LN2_HI + LN2_LO, core::f64::consts::LN_2);
        assert_eq!(PI_HI + PI_LO, core::f64::consts::PI);
        assert_eq!(LN2_HI.to_bits() & 0x1f_ffff, 0, "k·LN2_HI must be exact");
        assert_eq!(PI_HI.to_bits() & 0xf_ffff, 0, "k·PI_HI must be exact");
    }

    /// Runs `cycles` through one tile per [`NOISE_BLOCK`] probes and
    /// through scalar `perturb`, asserting equal measurements and RNG
    /// states; returns the tile's fallback count.
    fn assert_tile_matches_perturb(model: &NoiseModel, cycles: &[f64], seed: u64) -> u64 {
        use rand::RngCore;
        let mut tiled = StdRng::seed_from_u64(seed);
        let mut scalar = StdRng::seed_from_u64(seed);
        let mut tile = V1Tile::new();
        for chunk in cycles.chunks(NOISE_BLOCK) {
            for &c in chunk {
                tile.push(model, &mut tiled, c);
            }
            let measured = tile.flush().to_vec();
            assert_eq!(measured.len(), chunk.len());
            assert!(tile.flush().is_empty(), "flush empties the tile");
            for (&m, &c) in measured.iter().zip(chunk) {
                assert_eq!(m, model.perturb(&mut scalar, c), "{model:?} at {c}");
            }
        }
        assert_eq!(tiled.next_u64(), scalar.next_u64(), "RNG streams diverged");
        tile.fallbacks()
    }

    #[test]
    fn tile_matches_perturb_across_models() {
        let cycles: Vec<f64> = (0..4096)
            .map(|i| 13.0 + f64::from(i % 500) * 0.37)
            .collect();
        for (i, model) in [
            NoiseModel::new(1.1, 0.003, (200.0, 1800.0)),
            NoiseModel::new(6.6, 0.009, (400.0, 3600.0)),
            NoiseModel::new(0.0, 0.05, (500.0, 1000.0)),
            NoiseModel::new(2.5, 0.0, (0.0, 0.0)),
            NoiseModel::new(3.0, 1.0, (250.0, 250.0)),
            NoiseModel::none(),
        ]
        .iter()
        .enumerate()
        {
            assert_tile_matches_perturb(model, &cycles, 60 + i as u64);
        }
    }

    #[test]
    fn ties_and_out_of_range_inputs_fall_back_to_the_exact_expression() {
        // σ = 0 with a certain integer-valued spike on x.5 cycles: every
        // fast value is an exact tie, which the filter must send down
        // the exact path (round() ties away from zero).
        let ties: Vec<f64> = (0..40).map(|i| f64::from(i) + 0.5).collect();
        let spiked = NoiseModel::new(0.0, 1.0, (300.0, 300.0));
        assert_eq!(assert_tile_matches_perturb(&spiked, &ties, 1), 40);
        assert_eq!(
            assert_tile_matches_perturb(&NoiseModel::none(), &ties, 2),
            40
        );
        // Far beyond the fast path's magnitude range, and with
        // measurements that clamp at 1 cycle.
        let huge_sigma = NoiseModel::new(1.0e9, 0.0, (0.0, 0.0));
        assert_eq!(assert_tile_matches_perturb(&huge_sigma, &ties, 3), 40);
        let huge_cost = vec![1.0e9; 20];
        let fallbacks =
            assert_tile_matches_perturb(&NoiseModel::new(1.0, 0.0, (0.0, 0.0)), &huge_cost, 4);
        assert_eq!(fallbacks, 20);
        let negative = vec![-5.0; 20];
        assert_tile_matches_perturb(&NoiseModel::new(1.0, 0.0, (0.0, 0.0)), &negative, 5);
    }

    /// Models for lanes at their tie margins: two σ and a spiking one.
    const MARGIN_MODELS: [NoiseModel; 3] = [
        NoiseModel {
            sigma: 1.5,
            spike_prob: 0.0,
            spike_range: (0.0, 0.0),
        },
        NoiseModel {
            sigma: 12.0,
            spike_prob: 0.0,
            spike_range: (0.0, 0.0),
        },
        NoiseModel {
            sigma: 0.3,
            spike_prob: 0.5,
            spike_range: (200.0, 900.0),
        },
    ];

    /// 64 costs whose `model` measurements from `seed` lie alternately
    /// at 0.9× and 1.1× their lane's tie margin from a rounding tie.
    fn cycles_at_tie_margins(model: &NoiseModel, seed: u64) -> Vec<f64> {
        let mut peek = StdRng::seed_from_u64(seed);
        (0..64)
            .map(|i| {
                let (noise, margin) = fast_noise_and_margin(model, &mut peek);
                let offset = if i % 2 == 0 { 0.9 } else { 1.1 } * margin;
                (100.5 + f64::from(i)) - offset - noise
            })
            .collect()
    }

    /// Each lane is placed at 0.9× or 1.1× its own tie margin from a
    /// rounding tie: exactly the lanes inside their margin fall back.
    #[test]
    fn lanes_fall_back_inside_their_own_tie_margin_only() {
        for (seed, model) in MARGIN_MODELS.iter().enumerate() {
            let seed = 6 + seed as u64;
            let cycles = cycles_at_tie_margins(model, seed);
            assert_eq!(
                assert_tile_matches_perturb(model, &cycles, seed),
                32,
                "{model:?}"
            );
        }
    }

    /// Runs `cycles` from `seed` through a portable tile and a `width`
    /// tile in tiles of 1, 2, …, 16 probes. Before each flush the two
    /// kernels' outputs over all lanes are bit-identical, fast values
    /// included; the flushed measurements and the fallback counts are
    /// equal.
    fn assert_width_matches_portable(
        width: KernelWidth,
        model: &NoiseModel,
        cycles: &[f64],
        seed: u64,
    ) {
        let mut tiles = [
            V1Tile::at_width(KernelWidth::PORTABLE),
            V1Tile::at_width(width),
        ];
        let mut rngs = [StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed)];
        let mut rest = cycles;
        for len in (1..=NOISE_BLOCK).cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(len.min(rest.len()));
            rest = tail;
            let mut kernels = Vec::new();
            for (tile, rng) in tiles.iter_mut().zip(&mut rngs) {
                tile.push_run(model, rng, chunk);
                let (mut fast, mut measured) = ([0.0; NOISE_BLOCK], [0; NOISE_BLOCK]);
                let mask = tile.width.evaluate(&tile.lanes, &mut fast, &mut measured);
                kernels.push((fast.map(f64::to_bits), measured, mask));
            }
            assert_eq!(kernels[0], kernels[1], "{width:?} kernel, {model:?}");
            let [portable, wide] = tiles.each_mut().map(|tile| tile.flush().to_vec());
            assert_eq!(portable, wide, "{width:?} measurements, {model:?}");
        }
        assert_eq!(tiles[0].fallbacks(), tiles[1].fallbacks(), "{width:?}");
    }

    /// Every wider kernel instantiation the host runs equals the
    /// portable one: every static preset on the nine CPU profiles and
    /// lanes at 0.9× and 1.1× their tie margin, in tiles of 1 to 16
    /// probes.
    #[test]
    fn every_kernel_width_measures_what_the_portable_one_does() {
        let widths = KernelWidth::supported();
        println!("v1 tile kernel widths on this host: {widths:?}");
        assert_eq!(widths[0], KernelWidth::PORTABLE);
        assert_eq!(widths.last(), Some(&KernelWidth::host()));
        let mut cpus = crate::CpuProfile::all_evaluated();
        cpus.push(crate::CpuProfile::generic_desktop());
        let cycles: Vec<f64> = (0..2_000)
            .map(|i| 13.0 + f64::from(i % 997) * 0.25)
            .collect();
        for &width in &widths[1..] {
            for (p, profile) in NoiseProfile::ALL.into_iter().enumerate() {
                for (c, cpu) in cpus.iter().enumerate() {
                    let model = profile.model_for(&cpu.timing);
                    assert_width_matches_portable(width, &model, &cycles, (p * 100 + c) as u64);
                }
            }
            for (seed, model) in MARGIN_MODELS.iter().enumerate() {
                let seed = 6 + seed as u64;
                let cycles = cycles_at_tie_margins(model, seed);
                assert_width_matches_portable(width, model, &cycles, seed);
            }
        }
    }

    /// Every static preset on every CPU profile (σ up to 2.0 × 6 = 12)
    /// keeps its probes on the fast path: the tiles equal `perturb`, and
    /// fewer than 10⁻⁴ of the probes fall back.
    #[test]
    fn every_preset_stays_on_the_fast_path() {
        let mut cpus = crate::CpuProfile::all_evaluated();
        cpus.push(crate::CpuProfile::generic_desktop());
        let per_cpu = 200_000 / cpus.len() + NOISE_BLOCK;
        let cycles: Vec<f64> = (0..per_cpu)
            .map(|i| 13.0 + (i % 997) as f64 * 0.25)
            .collect();
        for (p, profile) in NoiseProfile::ALL.into_iter().enumerate() {
            let mut fallbacks = 0;
            for (c, cpu) in cpus.iter().enumerate() {
                let model = profile.model_for(&cpu.timing);
                fallbacks += assert_tile_matches_perturb(&model, &cycles, (p * 100 + c) as u64);
            }
            let rate = fallbacks as f64 / (per_cpu * cpus.len()) as f64;
            assert!(rate < 1e-4, "{profile}: fallback rate {rate:.2e}");
        }
    }

    /// A short tile after a full one: lanes past the pending probes
    /// still hold the full tile's draws, all rounding ties here, and the
    /// fixed-width kernel evaluates them too. Only the pending lanes
    /// count as fallbacks, and every measurement is `perturb`'s.
    #[test]
    fn short_tile_after_ties_counts_live_lanes_only() {
        use rand::RngCore;
        let spiked = NoiseModel::new(0.0, 1.0, (300.0, 300.0));
        let quiet = NoiseModel::new(1.5, 0.0, (0.0, 0.0));
        let (mut tiled, mut scalar) = (StdRng::seed_from_u64(11), StdRng::seed_from_u64(11));
        let mut tile = V1Tile::new();
        let ties: Vec<f64> = (0..NOISE_BLOCK).map(|i| i as f64 + 0.5).collect();
        for &c in &ties {
            tile.push(&spiked, &mut tiled, c);
        }
        for (&m, &c) in tile.flush().to_vec().iter().zip(&ties) {
            assert_eq!(m, spiked.perturb(&mut scalar, c));
        }
        assert_eq!(tile.fallbacks(), NOISE_BLOCK as u64, "every tie falls back");
        for n in [1, 5, NOISE_BLOCK - 1] {
            let before = tile.fallbacks();
            let cycles: Vec<f64> = (0..n).map(|i| 40.0 + i as f64).collect();
            for &c in &cycles {
                tile.push(&quiet, &mut tiled, c);
            }
            let measured = tile.flush().to_vec();
            assert_eq!(measured.len(), n);
            let mut ties = 0;
            for (&m, &c) in measured.iter().zip(&cycles) {
                let exact = quiet.perturb(&mut scalar.clone(), c);
                let (noise, margin) = fast_noise_and_margin(&quiet, &mut scalar);
                let fast = c + noise;
                ties += u64::from((fast - fast.round()).abs() >= 0.5 - margin);
                assert_eq!(m, exact, "n = {n}");
            }
            assert_eq!(tile.fallbacks() - before, ties, "n = {n}: live lanes only");
        }
        assert_eq!(tiled.next_u64(), scalar.next_u64(), "RNG streams diverged");
    }

    /// The tile kernel's noise for `model`'s next v1 draw from `rng`,
    /// and that lane's tie margin, `TIE_FACTOR · (σ·r·ERR + ROUNDING_ERR)`.
    fn fast_noise_and_margin(model: &NoiseModel, rng: &mut StdRng) -> (f64, f64) {
        let d = model.draw_v1(rng);
        let noise = box_muller_fast(d.u1, d.u2) * d.sigma + d.spike.unwrap_or(0.0);
        let radius = (-2.0 * d.u1.ln()).sqrt();
        let margin = TIE_FACTOR * (d.sigma * radius * BOX_MULLER_ERR + ROUNDING_ERR);
        (noise, margin)
    }

    #[test]
    #[should_panic(expected = "tile full")]
    fn tile_refuses_a_seventeenth_probe() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut tile = V1Tile::new();
        for _ in 0..=NOISE_BLOCK {
            tile.push(&NoiseModel::none(), &mut rng, 1.0);
        }
    }

    /// Baseline anchors the preset moment tests scale from.
    fn reference_timing() -> TimingParams {
        TimingParams {
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
        }
    }

    #[test]
    fn profile_factors_are_pinned() {
        // The presets are distributions, not tunables: changing a factor
        // must be a deliberate, test-visible act.
        assert_eq!(NoiseProfile::Quiet.factors(), (1.0, 1.0, 1.0));
        assert_eq!(NoiseProfile::SmtSibling.factors(), (3.0, 6.0, 0.5));
        assert_eq!(NoiseProfile::LaptopDvfs.factors(), (6.0, 3.0, 2.0));
        assert_eq!(NoiseProfile::NoisyNeighbor.factors(), (4.0, 12.0, 1.5));
    }

    #[test]
    fn quiet_profile_is_the_baseline_model() {
        let t = reference_timing();
        let m = NoiseProfile::Quiet.model_for(&t);
        assert_eq!(
            m,
            NoiseModel::new(t.noise_sigma, t.spike_prob, t.spike_range)
        );
        assert_eq!(NoiseProfile::Quiet.effective_sigma(&t), 1.0);
    }

    #[test]
    fn preset_moments_match_their_factors() {
        // Fixed-seed empirical moment check per preset: the Gaussian σ
        // and the spike rate of the induced model must land on the
        // factor-scaled baseline within sampling tolerance.
        let t = reference_timing();
        for (i, profile) in NoiseProfile::ALL.into_iter().enumerate() {
            let (sigma_f, spike_f, magnitude_f) = profile.factors();
            let m = profile.model_for(&t);

            // σ, isolated from spikes.
            let jitter = NoiseModel::new(m.sigma, 0.0, (0.0, 0.0));
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            let n = 30_000;
            let samples: Vec<f64> = (0..n).map(|_| jitter.sample(&mut rng)).collect();
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
            let expect_sigma = t.noise_sigma * sigma_f;
            assert!(mean.abs() < 0.15, "{profile}: jitter mean {mean}");
            assert!(
                (var.sqrt() - expect_sigma).abs() < 0.15 * expect_sigma.max(1.0),
                "{profile}: σ {} vs expected {expect_sigma}",
                var.sqrt()
            );

            // Spike rate, isolated from jitter.
            let spikes_only = NoiseModel::new(0.0, m.spike_prob, m.spike_range);
            let mut rng = StdRng::seed_from_u64(200 + i as u64);
            let n = 200_000;
            let spikes = (0..n)
                .map(|_| spikes_only.sample(&mut rng))
                .filter(|&x| x > 0.0)
                .count();
            let rate = spikes as f64 / n as f64;
            let expect_rate = (t.spike_prob * spike_f).min(0.5);
            assert!(
                (rate - expect_rate).abs() < 0.35 * expect_rate,
                "{profile}: spike rate {rate} vs expected {expect_rate}"
            );

            // Spike magnitude window scales with the preset.
            assert_eq!(m.spike_range.0, t.spike_range.0 * magnitude_f, "{profile}");
            assert_eq!(m.spike_range.1, t.spike_range.1 * magnitude_f, "{profile}");
        }
    }

    #[test]
    fn spike_probability_is_capped() {
        let mut t = reference_timing();
        t.spike_prob = 0.2;
        let m = NoiseProfile::NoisyNeighbor.model_for(&t); // 0.2 × 12 = 2.4
        assert_eq!(m.spike_prob, 0.5);
    }

    #[test]
    fn names_round_trip_through_parse() {
        for profile in NoiseProfile::ALL {
            assert_eq!(NoiseProfile::parse(profile.name()), Some(profile));
            assert_eq!(profile.to_string(), profile.name());
        }
        assert_eq!(
            NoiseProfile::parse("SMT-Sibling"),
            Some(NoiseProfile::SmtSibling)
        );
        assert_eq!(NoiseProfile::parse("dvfs"), Some(NoiseProfile::LaptopDvfs));
        assert_eq!(
            NoiseProfile::parse("noisy-neighbor"),
            Some(NoiseProfile::NoisyNeighbor)
        );
        assert_eq!(NoiseProfile::parse("bogus"), None);
        assert_eq!(NoiseProfile::default(), NoiseProfile::Quiet);
    }

    #[test]
    fn drift_ramp_interpolates_between_its_endpoints() {
        let t = reference_timing();
        let drift =
            NoiseProfile::drift_with(NoiseProfile::Quiet, NoiseProfile::LaptopDvfs, 100, 300);
        let schedule = drift.schedule_for(&t).expect("drift has a schedule");
        let quiet = NoiseProfile::Quiet.model_for(&t);
        let laptop = NoiseProfile::LaptopDvfs.model_for(&t);
        assert_eq!(schedule.model_at(0), quiet);
        assert_eq!(schedule.model_at(99), quiet);
        assert_eq!(schedule.model_at(300), laptop);
        assert_eq!(schedule.model_at(u64::MAX), laptop);
        // Halfway through the ramp the σ sits halfway between.
        let mid = schedule.model_at(200);
        assert!((mid.sigma - (quiet.sigma + laptop.sigma) / 2.0).abs() < 1e-12);
        assert!(mid.spike_prob > quiet.spike_prob && mid.spike_prob < laptop.spike_prob);
        // The profile's one-shot view is the starting preset.
        assert_eq!(drift.model_for(&t), quiet);
        assert_eq!(drift.effective_sigma(&t), quiet.sigma);
        assert_eq!(drift.name(), "drift");
        assert_eq!(drift.to_string(), "drift(quiet→laptop)");
    }

    #[test]
    fn drift_step_switches_at_the_onset() {
        let t = reference_timing();
        let step = NoiseProfile::drift_with(NoiseProfile::Quiet, NoiseProfile::LaptopDvfs, 50, 50);
        let schedule = step.schedule_for(&t).unwrap();
        assert_eq!(schedule.model_at(49), NoiseProfile::Quiet.model_for(&t));
        assert_eq!(
            schedule.model_at(50),
            NoiseProfile::LaptopDvfs.model_for(&t)
        );
    }

    #[test]
    fn drift_parses_and_static_presets_have_no_schedule() {
        let t = reference_timing();
        assert_eq!(
            NoiseProfile::parse("drift"),
            Some(NoiseProfile::drift_quiet_to_laptop())
        );
        let drift = NoiseProfile::drift_quiet_to_laptop();
        let NoiseProfile::Drift(ramp) = drift else {
            panic!("drift constructor must build the Drift variant");
        };
        assert_eq!(ramp.from_profile(), NoiseProfile::Quiet);
        assert_eq!(ramp.to_profile(), NoiseProfile::LaptopDvfs);
        assert_eq!(ramp.onset(), DRIFT_DEFAULT_ONSET);
        assert_eq!(ramp.full(), DRIFT_DEFAULT_FULL);
        for profile in NoiseProfile::ALL {
            assert_eq!(profile.schedule_for(&t), None, "{profile}");
        }
    }

    #[test]
    #[should_panic(expected = "static presets")]
    fn nested_drift_endpoints_are_rejected() {
        let inner = NoiseProfile::drift_quiet_to_laptop();
        let _ = NoiseProfile::drift(inner, NoiseProfile::Quiet);
    }

    #[test]
    fn presets_order_by_effective_sigma_above_quiet() {
        let t = reference_timing();
        let quiet = NoiseProfile::Quiet.effective_sigma(&t);
        for profile in [
            NoiseProfile::SmtSibling,
            NoiseProfile::LaptopDvfs,
            NoiseProfile::NoisyNeighbor,
        ] {
            assert!(
                profile.effective_sigma(&t) > quiet,
                "{profile} must be noisier than quiet"
            );
        }
    }
}
