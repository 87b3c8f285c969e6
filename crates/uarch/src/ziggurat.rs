//! Table-driven standard-normal sampler (Marsaglia–Tsang ziggurat).
//!
//! The v2 observables regime replaces the per-sample Box–Muller
//! transform (one `ln`, one `sqrt`, one `cos` and two uniform draws per
//! sample) with the 256-layer ziggurat: in the ~98.8 % common case a
//! sample costs a single 64-bit RNG draw, one table lookup and one
//! multiply — no transcendentals. The rare wedge/tail cases fall back
//! to exact rejection sampling, so the produced distribution is the
//! standard normal to floating-point accuracy, not an approximation.
//!
//! The tables are built once at first use ([`tables`]) from the
//! published 256-layer constants `R` and `V`; the moment and tail
//! property tests in `noise_props.rs` pin the output distribution.
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let tables = avx_uarch::ziggurat::tables();
//! let n = 100_000;
//! let mean: f64 = (0..n).map(|_| tables.sample(&mut rng)).sum::<f64>() / n as f64;
//! assert!(mean.abs() < 0.02);
//! ```

use std::sync::OnceLock;

use rand::Rng;

/// Number of ziggurat layers.
const LAYERS: usize = 256;

/// Rightmost layer edge of the 256-layer standard-normal ziggurat
/// (Marsaglia & Tsang; the tail starts here).
const R: f64 = 3.654_152_885_361_009;

/// Common area of every layer (rectangle, plus base strip + tail for
/// layer 0) of the 256-layer standard-normal ziggurat.
const V: f64 = 0.004_928_673_233_992_336;

/// The standard-normal density without its normalizing constant:
/// `f(x) = exp(-x²/2)`.
#[inline]
fn pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// Precomputed layer tables: `x[i]` are the layer edges (decreasing,
/// `x[0] = V / f(R)` spans the base strip, `x[LAYERS] = 0`), `f[i]`
/// their densities.
#[derive(Debug)]
pub struct Tables {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

impl Tables {
    /// Builds the tables from `R` and `V` by the standard downward
    /// recurrence `f(x[i+1]) = f(x[i]) + V / x[i]`.
    fn build() -> Self {
        let mut x = [0.0; LAYERS + 1];
        let mut f = [0.0; LAYERS + 1];
        x[0] = V / pdf(R);
        x[1] = R;
        f[0] = pdf(x[0]);
        f[1] = pdf(R);
        for i in 2..LAYERS {
            // Clamp: accumulated rounding can push the density a hair
            // past 1.0 near the mode, whose ln would go NaN.
            let fi = (f[i - 1] + V / x[i - 1]).min(1.0);
            x[i] = (-2.0 * fi.ln()).max(0.0).sqrt();
            f[i] = fi;
        }
        x[LAYERS] = 0.0;
        f[LAYERS] = 1.0;
        Self { x, f }
    }

    /// Draws one standard-normal sample.
    ///
    /// Layout of the single hot-path draw: low 8 bits pick the layer,
    /// the top 53 bits form the uniform position within it (the same
    /// 53-bit mantissa convention as the `rand` shim's `f64` draw).
    #[inline]
    pub fn sample<R2: Rng + ?Sized>(&self, rng: &mut R2) -> f64 {
        loop {
            let bits = rng.next_u64();
            let (i, x) = self.position(bits);
            if x.abs() < self.x[i + 1] {
                return x; // strictly inside the layer: accept
            }
            if i == 0 {
                return self.tail(rng, x.is_sign_negative());
            }
            if self.wedge_accepts(i, x, rng) {
                return x;
            }
        }
    }

    /// The layer a raw word picks and its position `x` in that layer.
    #[inline(always)]
    fn position(&self, bits: u64) -> (usize, f64) {
        let i = (bits & 0xff) as usize;
        // Uniform in [0, 1) from the top 53 bits, then (-1, 1).
        let u = 2.0 * ((bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) - 1.0;
        (i, u * self.x[i])
    }

    /// The sample of a raw word that lies strictly inside its layer:
    /// [`Tables::sample`]'s first test, which takes no further draw.
    #[inline(always)]
    pub(crate) fn in_layer(&self, bits: u64) -> Option<f64> {
        let (i, x) = self.position(bits);
        (x.abs() < self.x[i + 1]).then_some(x)
    }

    /// The rest of [`Tables::sample`] after its first word `bits`
    /// failed [`Tables::in_layer`]: that word's tail or wedge draw, and
    /// on a wedge rejection a fresh [`Tables::sample`]. The RNG stream
    /// is the one `sample` takes.
    pub(crate) fn sample_rejected<R2: Rng + ?Sized>(&self, bits: u64, rng: &mut R2) -> f64 {
        let (i, x) = self.position(bits);
        if i == 0 {
            return self.tail(rng, x.is_sign_negative());
        }
        if self.wedge_accepts(i, x, rng) {
            return x;
        }
        self.sample(rng)
    }

    /// Wedge test of layer `i` at `x`: one uniform draw accepted
    /// against the true density.
    #[inline(always)]
    fn wedge_accepts<R2: Rng + ?Sized>(&self, i: usize, x: f64, rng: &mut R2) -> bool {
        let y: f64 = rng.gen();
        self.f[i + 1] + (self.f[i] - self.f[i + 1]) * y < pdf(x)
    }

    /// Exact samples from the normal tail beyond `R` (Marsaglia's
    /// exponential-rejection method). `u = 0` draws produce infinities
    /// that fail the acceptance test, so the loop is total without any
    /// open-interval fix-up.
    #[inline(never)]
    fn tail<R2: Rng + ?Sized>(&self, rng: &mut R2, negative: bool) -> f64 {
        loop {
            let u1: f64 = rng.gen();
            let u2: f64 = rng.gen();
            let x = -u1.ln() / R;
            let y = -u2.ln();
            if 2.0 * y > x * x {
                let t = R + x;
                return if negative { -t } else { t };
            }
        }
    }
}

/// The process-wide ziggurat tables, built on first use. Hot loops
/// fetch this once per noise block so the per-sample cost is the table
/// lookup alone.
#[must_use]
pub fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(Tables::build)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn layer_edges_decrease_from_base_to_mode() {
        let t = tables();
        assert!(t.x[0] > R, "base strip edge spans past R: {}", t.x[0]);
        assert_eq!(t.x[1], R);
        for i in 1..LAYERS {
            assert!(t.x[i] > t.x[i + 1], "x[{i}] {} > x[{}]", t.x[i], i + 1);
        }
        assert_eq!(t.x[LAYERS], 0.0);
        // Densities increase toward the mode and end at f(0) = 1.
        for i in 0..LAYERS {
            assert!(t.f[i] < t.f[i + 1] + 1e-15, "f[{i}]");
        }
        assert_eq!(t.f[LAYERS], 1.0);
        // The recurrence must land on the published table's final edge
        // (X[255] of the canonical 256-layer normal ziggurat).
        assert!(
            (t.x[LAYERS - 1] - 0.215_241_895_9).abs() < 1e-9,
            "x[255] = {}",
            t.x[LAYERS - 1]
        );
    }

    #[test]
    fn moments_match_the_standard_normal() {
        let mut rng = StdRng::seed_from_u64(42);
        let t = tables();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| t.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let skew = samples.iter().map(|x| x.powi(3)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(skew.abs() < 0.05, "skew {skew}");
    }

    #[test]
    fn tail_mass_beyond_r_matches_the_normal() {
        // P(|X| > R) for R = 3.654... is ≈ 2.58e-4; at n = 400k expect
        // ≈ 103 tail samples. A broken tail path would yield 0 or a
        // wildly different count.
        let mut rng = StdRng::seed_from_u64(77);
        let t = tables();
        let n = 400_000;
        let tail = (0..n).filter(|_| t.sample(&mut rng).abs() > R).count();
        assert!(
            (30..400).contains(&tail),
            "tail count {tail} out of plausible range"
        );
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let t = tables();
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert_eq!(t.sample(&mut a), t.sample(&mut b));
        }
    }
}
