//! Measurement-noise models.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Multiplicative log-normal measurement noise.
///
/// Real benchmark measurements fluctuate run to run; the paper quotes
/// MLPerf's ±2.5% (stable vision) and ±5% (higher-variance) classes and
/// builds the whole criteria machinery around coping with this variance.
/// `NoiseModel` draws factors `exp(σ·z)` with `z ~ N(0, 1)` so measurements
/// stay positive and the relative spread is `≈ σ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Log-scale standard deviation (≈ relative standard deviation).
    pub sigma: f64,
}

impl NoiseModel {
    /// A tight micro-benchmark noise profile (±0.3%).
    pub const MICRO: Self = Self { sigma: 0.003 };
    /// A stable end-to-end training-step profile (±0.6%).
    pub const TRAINING_STEP: Self = Self { sigma: 0.006 };
    /// A higher-variance profile for network benchmarks (±2%).
    pub const NETWORK: Self = Self { sigma: 0.02 };

    /// Creates a model with the given relative standard deviation.
    pub fn new(sigma: f64) -> Self {
        Self {
            sigma: sigma.max(0.0),
        }
    }

    /// Draws one multiplicative noise factor.
    pub fn factor(&self, rng: &mut ChaCha8Rng) -> f64 {
        (self.sigma * standard_normal(rng)).exp()
    }

    /// Applies noise to a nominal value.
    pub fn apply(&self, nominal: f64, rng: &mut ChaCha8Rng) -> f64 {
        nominal * self.factor(rng)
    }
}

/// Draws a standard normal via the Box–Muller transform.
///
/// `rand` core ships no Gaussian sampler (that lives in `rand_distr`, which
/// is outside the sanctioned dependency set), so we implement the classic
/// two-uniform transform here.
pub fn standard_normal(rng: &mut ChaCha8Rng) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open (0, 1].
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws from a log-normal with median `exp(mu)`.
pub fn log_normal(rng: &mut ChaCha8Rng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * standard_normal(rng)).exp()
}

/// Draws from an exponential distribution with the given rate.
#[expect(
    clippy::disallowed_macros,
    reason = "debug-only check that the parameters are positive"
)]
pub fn exponential(rng: &mut ChaCha8Rng, rate: f64) -> f64 {
    debug_assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = 1.0 - rng.random::<f64>();
    -u.ln() / rate
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> ChaCha8Rng {
        crate::testutil::seeded_rng(12345)
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = rng();
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn noise_factor_stays_near_one() {
        let mut rng = rng();
        let model = NoiseModel::new(0.01);
        for _ in 0..1000 {
            let f = model.factor(&mut rng);
            assert!(f > 0.9 && f < 1.1, "1% noise factor out of range: {f}");
        }
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let mut rng = rng();
        let model = NoiseModel::new(0.0);
        assert_eq!(model.apply(123.0, &mut rng), 123.0);
    }

    #[test]
    fn negative_sigma_clamped() {
        assert_eq!(NoiseModel::new(-0.5).sigma, 0.0);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = rng();
        let rate = 0.25;
        let n = 20_000;
        let mean = (0..n).map(|_| exponential(&mut rng, rate)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean {mean}");
    }
}
