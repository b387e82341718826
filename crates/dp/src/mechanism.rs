//! The Gaussian mechanism (paper Definition 2).

use dpbfl_stats::normal::{fill_gaussian, fill_standard_normal, NORMAL_CHUNK};
use rand::Rng;

/// Gaussian mechanism: adds `N(0, (σ·Δ)² I)` noise to a vector-valued query
/// with ℓ2-sensitivity `Δ` and noise multiplier `σ`.
///
/// In the paper's protocol the per-example contribution is *normalized* to
/// unit ℓ2 norm, so the noise added to the per-batch sum uses sensitivity 1 in
/// the add/remove adjacency convention the accountant assumes (the paper's
/// remark that replacing one example moves the sum by at most 2 is the
/// replace-one convention; both are supported via `sensitivity`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianMechanism {
    /// Noise multiplier σ (noise std divided by sensitivity).
    pub noise_multiplier: f64,
    /// ℓ2-sensitivity Δ₂ of the query.
    pub sensitivity: f64,
}

impl GaussianMechanism {
    /// Mechanism with the given multiplier and unit sensitivity.
    pub fn with_multiplier(noise_multiplier: f64) -> Self {
        GaussianMechanism { noise_multiplier, sensitivity: 1.0 }
    }

    /// Standard deviation of the injected noise, `σ·Δ₂`.
    #[inline]
    pub fn noise_std(&self) -> f64 {
        self.noise_multiplier * self.sensitivity
    }

    /// Adds i.i.d. Gaussian noise to `value` in place.
    pub fn privatize<R: Rng + ?Sized>(&self, rng: &mut R, value: &mut [f32]) {
        let std = self.noise_std();
        if std == 0.0 {
            return;
        }
        let mut z = [0.0f64; NORMAL_CHUNK];
        for chunk in value.chunks_mut(NORMAL_CHUNK) {
            let z = &mut z[..chunk.len()];
            fill_standard_normal(rng, z);
            for (x, &z) in chunk.iter_mut().zip(z.iter()) {
                *x += (z * std) as f32;
            }
        }
    }

    /// Returns a pure noise vector `N(0, (σΔ)² I_d)` — what a Gaussian
    /// attacker uploads, and the reference distribution of the server's
    /// first-stage tests.
    pub fn noise_vector<R: Rng + ?Sized>(&self, rng: &mut R, d: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; d];
        fill_gaussian(rng, self.noise_std(), &mut v);
        v
    }

    /// Classical calibration (Definition 2): the multiplier that gives
    /// `(ε, δ)`-DP for a *single* release when `ε ≤ 1`:
    /// `σ = √(2 ln(1.25/δ))/ε`.
    pub fn calibrate_single_release(epsilon: f64, delta: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon <= 1.0, "classical bound requires 0 < ε ≤ 1");
        assert!(delta > 0.0 && delta < 1.0);
        let sigma = (2.0 * (1.25 / delta).ln()).sqrt() / epsilon;
        GaussianMechanism { noise_multiplier: sigma, sensitivity: 1.0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbfl_tensor_shim::l2_norm_sq;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Local micro-helper so this crate does not depend on dpbfl-tensor.
    mod dpbfl_tensor_shim {
        pub fn l2_norm_sq(v: &[f32]) -> f64 {
            v.iter().map(|&x| (x as f64) * (x as f64)).sum()
        }
    }

    #[test]
    fn noise_std_combines_multiplier_and_sensitivity() {
        let m = GaussianMechanism { noise_multiplier: 0.8, sensitivity: 2.0 };
        assert!((m.noise_std() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn privatize_changes_values_with_right_scale() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = GaussianMechanism::with_multiplier(0.5);
        let d = 50_000;
        let mut v = vec![0.0f32; d];
        m.privatize(&mut rng, &mut v);
        let norm_sq = l2_norm_sq(&v);
        let expected = 0.25 * d as f64;
        assert!((norm_sq / expected - 1.0).abs() < 0.05, "norm_sq={norm_sq}");
    }

    #[test]
    fn zero_noise_is_identity() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = GaussianMechanism::with_multiplier(0.0);
        let mut v = vec![1.0f32, 2.0, 3.0];
        m.privatize(&mut rng, &mut v);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn classical_calibration_formula() {
        let m = GaussianMechanism::calibrate_single_release(1.0, 1e-5);
        let want = (2.0 * (1.25 / 1e-5f64).ln()).sqrt();
        assert!((m.noise_multiplier - want).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "classical bound")]
    fn classical_calibration_rejects_large_epsilon() {
        let _ = GaussianMechanism::calibrate_single_release(2.0, 1e-5);
    }
}
