//! The honest worker's local step (paper Algorithm 1, lines 4–12).
//!
//! Per iteration, an honest worker:
//! 1. loads the broadcast model `w^{t−1}`;
//! 2. samples a size-`b_c` mini-batch;
//! 3. computes a **per-example** gradient for each batch slot and folds it
//!    into the slot's momentum, `φ[j] ← (1−β)·g_j + β·φ[j]`;
//! 4. **normalizes** each momentum slot to unit ℓ2 norm (the sensitivity
//!    bound that replaces DP-SGD's clipping), sums them, adds `N(0, σ²I)`,
//!    and scales by `1/b_c`;
//! 5. uploads the result and resets the momentum list to the noisy upload
//!    (line 11 as written; see [`MomentumReset`]). After that reset every
//!    slot holds the same vector, so under `PaperReset` the worker keeps a
//!    single `d`-vector for the whole list (resident state `1·d`); only
//!    `Keep` holds `b_c` slots (`b_c·d`).
//!
//! Steps 3 and 4 run as one loop over the batch: slot `j` is formed in the
//! gradient buffer, its norm accumulates in the same pass, and it is folded
//! into the sum before the next example's gradient overwrites it.
//!
//! A Byzantine *label-flipping* worker is exactly this worker run on poisoned
//! data — it follows the protocol, so its uploads pass the first-stage tests
//! and must be caught by the second stage.

use crate::config::{DpSgdConfig, MomentumReset};
use dpbfl_data::{sample_batch, Dataset};
use dpbfl_nn::{CrossEntropyLoss, Sequential};
use dpbfl_stats::normal::{fill_standard_normal, NORMAL_CHUNK};
use dpbfl_tensor::vecops;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A worker running the paper's DP protocol on its local dataset.
#[derive(Debug, Clone)]
pub struct DpWorker {
    model: Sequential,
    data: Dataset,
    cfg: DpSgdConfig,
    /// Momentum list `φ`: one `d`-dimensional slot per batch position under
    /// [`MomentumReset::Keep`]; a single slot standing for all `b_c` of them
    /// under [`MomentumReset::PaperReset`], whose line 11 makes them equal.
    momentum: Vec<Vec<f32>>,
    rng: StdRng,
    loss_fn: CrossEntropyLoss,
    /// Scratch per-example gradient buffer; `local_step` forms each momentum
    /// slot in it.
    grad_buf: Vec<f32>,
    /// Scratch f64 accumulator for the sum of normalized momentum slots
    /// (each folded in as soon as it is formed), reused across iterations so
    /// the rayon hot loop allocates only the returned upload.
    sum_buf: Vec<f64>,
}

/// The simulation fans workers out with rayon, which requires `Send`; this
/// fails to compile if a future field (an `Rc`, a raw pointer) breaks that.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<DpWorker>();
};

impl DpWorker {
    /// Builds a worker over `data` with its own deterministic RNG stream.
    pub fn new(model: Sequential, data: Dataset, cfg: DpSgdConfig, seed: u64) -> Self {
        assert!(
            data.len() >= cfg.batch_size,
            "worker dataset ({} examples) smaller than batch size {}",
            data.len(),
            cfg.batch_size
        );
        let d = model.param_len();
        let slots = match cfg.momentum_reset {
            MomentumReset::PaperReset => 1,
            MomentumReset::Keep => cfg.batch_size,
        };
        let momentum = vec![vec![0.0f32; d]; slots];
        DpWorker {
            model,
            data,
            momentum,
            rng: StdRng::seed_from_u64(seed),
            cfg,
            loss_fn: CrossEntropyLoss,
            grad_buf: vec![0.0f32; d],
            sum_buf: vec![0.0f64; d],
        }
    }

    /// Model dimension `d`.
    pub fn param_len(&self) -> usize {
        self.model.param_len()
    }

    /// The local dataset (used by omniscient attackers in tests).
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// One local iteration: receives the broadcast parameters, returns the
    /// privatized upload `g_i^t` (Algorithm 1 lines 5–11).
    pub fn local_step(&mut self, params: &[f32]) -> Vec<f32> {
        let d = params.len();
        assert_eq!(d, self.model.param_len(), "broadcast parameter length mismatch");
        self.model.set_params(params);
        let b_c = self.cfg.batch_size;
        let batch = sample_batch(&mut self.rng, self.data.len(), b_c);

        // Lines 6–9 and the normalized sum of line 10, one slot at a time.
        let beta = self.cfg.momentum;
        let keep = self.cfg.momentum_reset == MomentumReset::Keep;
        self.sum_buf.fill(0.0);
        for (j, &idx) in batch.iter().enumerate() {
            let x = self.data.example(idx);
            let y = self.data.label(idx);
            self.model.example_gradient(&self.loss_fn, x, y, &mut self.grad_buf);
            // φ[j] ← (1−β)·g + β·φ[j], formed over g in place; its squared
            // norm accumulates in `vecops::l2_norm`'s order.
            let prev = &mut self.momentum[if keep { j } else { 0 }];
            let mut norm_sq = 0.0f64;
            for (m, &p) in self.grad_buf.iter_mut().zip(prev.iter()) {
                *m = (1.0 - beta) * *m + beta * p;
                norm_sq += (*m as f64) * (*m as f64);
            }
            let norm = norm_sq.sqrt();
            if norm > 0.0 {
                let inv = 1.0 / norm;
                for (u, &m) in self.sum_buf.iter_mut().zip(&self.grad_buf) {
                    *u += m as f64 * inv;
                }
            }
            if keep {
                prev.copy_from_slice(&self.grad_buf);
            }
        }
        let out = noisy_mean(&mut self.rng, &self.sum_buf, self.cfg.noise_multiplier, b_c);

        // Line 11: reset momentum slots to the uploaded (noisy) gradient.
        if !keep {
            self.momentum[0].copy_from_slice(&out);
        }
        out
    }

    /// A non-private upload (plain mean batch gradient) — used by the
    /// non-DP ablation (supp. Tables 15/16) and by baseline protocols.
    pub fn plain_step(&mut self, params: &[f32]) -> Vec<f32> {
        self.model.set_params(params);
        let batch = sample_batch(&mut self.rng, self.data.len(), self.cfg.batch_size);
        let examples: Vec<(&[f32], usize)> =
            batch.iter().map(|&i| (self.data.example(i), self.data.label(i))).collect();
        let mut grad = vec![0.0f32; self.model.param_len()];
        self.model.batch_gradient(&self.loss_fn, &examples, &mut grad);
        grad
    }

    /// A clipping-DP-SGD upload (vanilla DP-SGD, the \[30\]-style baseline):
    /// per-example gradients clipped to `clip_norm`, summed, noised with
    /// `N(0, (σ·C)² I)`, averaged over the batch. No momentum.
    pub fn clipped_dp_step(&mut self, params: &[f32], clip_norm: f64) -> Vec<f32> {
        self.model.set_params(params);
        let b_c = self.cfg.batch_size;
        let batch = sample_batch(&mut self.rng, self.data.len(), b_c);
        self.sum_buf.fill(0.0);
        for &idx in &batch {
            let x = self.data.example(idx);
            let y = self.data.label(idx);
            self.model.example_gradient(&self.loss_fn, x, y, &mut self.grad_buf);
            vecops::clip(&mut self.grad_buf, clip_norm);
            for (s, &g) in self.sum_buf.iter_mut().zip(&self.grad_buf) {
                *s += g as f64;
            }
        }
        noisy_mean(&mut self.rng, &self.sum_buf, self.cfg.noise_multiplier * clip_norm, b_c)
    }
}

/// `(sum + N(0, std²I)) / b_c` rounded to `f32`: the noise and scaling of
/// Algorithm 1 line 10, one normal per coordinate in ascending order.
fn noisy_mean(rng: &mut StdRng, sum: &[f64], std: f64, b_c: usize) -> Vec<f32> {
    let inv_bc = 1.0 / b_c as f64;
    let mut out = vec![0.0f32; sum.len()];
    let mut z = [0.0f64; NORMAL_CHUNK];
    for (o, s) in out.chunks_mut(NORMAL_CHUNK).zip(sum.chunks(NORMAL_CHUNK)) {
        let z = &mut z[..o.len()];
        fill_standard_normal(rng, z);
        for ((o, &s), &z) in o.iter_mut().zip(s).zip(z.iter()) {
            *o = ((s + z * std) * inv_bc) as f32;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpbfl_data::SyntheticSpec;
    use dpbfl_nn::zoo;

    fn worker(sigma: f64, seed: u64) -> DpWorker {
        let mut rng = StdRng::seed_from_u64(0);
        let model = zoo::mlp(&mut rng, 784, 8, 10);
        let data = SyntheticSpec::mnist_like().generate(64, 5);
        let cfg = DpSgdConfig { noise_multiplier: sigma, ..Default::default() };
        DpWorker::new(model, data, cfg, seed)
    }

    #[test]
    fn upload_norm_is_noise_dominated() {
        // With σ = 0.79 and d ≈ 6 k, ‖upload‖² should sit near σ²d/b_c²
        // (the basis of the first-stage norm test).
        let mut w = worker(0.79, 1);
        let params = vec![0.0f32; w.param_len()];
        let up = w.local_step(&params);
        let d = up.len() as f64;
        let sigma_eff = 0.79 / 16.0;
        let norm_sq = vecops::l2_norm_sq(&up);
        let expected = sigma_eff * sigma_eff * d;
        // Signal contributes at most (b_c/b_c)² = 1 plus cross terms.
        assert!(
            (norm_sq - expected).abs() < 6.0 * sigma_eff * sigma_eff * (2.0 * d).sqrt() + 1.5,
            "norm_sq={norm_sq} expected≈{expected}"
        );
    }

    #[test]
    fn zero_noise_upload_is_bounded_by_one() {
        // Without noise the upload is (Σ_j unit vectors)/b_c: norm ≤ 1.
        let mut w = worker(0.0, 2);
        let params = vec![0.0f32; w.param_len()];
        let up = w.local_step(&params);
        assert!(vecops::l2_norm(&up) <= 1.0 + 1e-5);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = worker(0.5, 7);
        let mut b = worker(0.5, 7);
        let params = vec![0.01f32; a.param_len()];
        assert_eq!(a.local_step(&params), b.local_step(&params));
        // Different seed → different upload.
        let mut c = worker(0.5, 8);
        assert_ne!(a.local_step(&params), c.local_step(&params));
    }

    #[test]
    fn momentum_reset_changes_second_round() {
        let mk = |reset: MomentumReset| {
            let mut rng = StdRng::seed_from_u64(0);
            let model = zoo::mlp(&mut rng, 784, 8, 10);
            let data = SyntheticSpec::mnist_like().generate(64, 5);
            let cfg =
                DpSgdConfig { noise_multiplier: 0.5, momentum_reset: reset, ..Default::default() };
            DpWorker::new(model, data, cfg, 3)
        };
        let params = vec![0.0f32; 784 * 8 + 8 + 8 * 10 + 10];
        let mut a = mk(MomentumReset::PaperReset);
        let mut b = mk(MomentumReset::Keep);
        // First rounds agree (momentum starts at zero either way)…
        assert_eq!(a.local_step(&params), b.local_step(&params));
        // …second rounds differ.
        assert_ne!(a.local_step(&params), b.local_step(&params));
    }

    #[test]
    fn plain_step_has_no_noise() {
        let mut a = worker(0.79, 9);
        let params = vec![0.0f32; a.param_len()];
        let g1 = a.plain_step(&params);
        // Plain gradients are small and smooth, nothing like σ√d/b_c noise.
        let norm = vecops::l2_norm(&g1);
        assert!(norm < 5.0, "plain gradient norm {norm}");
        assert!(vecops::all_finite(&g1));
    }

    /// `(bits of coordinates 0, d/2, d−1; wrapping sum of every bit pattern)`
    /// — enough to pin an upload bit for bit. The pins below change only with
    /// a deliberate arithmetic or RNG-stream break, which must re-pin them.
    fn fingerprint(up: &[f32]) -> ([u32; 3], u64) {
        let d = up.len();
        let sum = up.iter().fold(0u64, |acc, x| acc.wrapping_add(x.to_bits() as u64));
        ([up[0].to_bits(), up[d / 2].to_bits(), up[d - 1].to_bits()], sum)
    }

    fn golden_params(d: usize) -> Vec<f32> {
        (0..d).map(|i| ((i % 7) as f32 - 3.0) * 0.01).collect()
    }

    fn golden_uploads(reset: MomentumReset) -> Vec<([u32; 3], u64)> {
        let mut rng = StdRng::seed_from_u64(0);
        let model = zoo::mlp(&mut rng, 784, 8, 10);
        let data = SyntheticSpec::mnist_like().generate(64, 5);
        let cfg = DpSgdConfig { momentum_reset: reset, ..Default::default() };
        let mut w = DpWorker::new(model, data, cfg, 11);
        let params = golden_params(w.param_len());
        (0..3).map(|_| fingerprint(&w.local_step(&params))).collect()
    }

    #[test]
    fn golden_uploads_paper_reset() {
        let want = vec![
            ([3171732991, 1025641073, 3184688949], 13309266637552),
            ([3143815903, 3172270020, 3182710848], 13350893605739),
            ([3171251869, 1031545718, 995123349], 13395332992010),
        ];
        assert_eq!(golden_uploads(MomentumReset::PaperReset), want);
    }

    #[test]
    fn golden_uploads_keep() {
        let want = vec![
            ([3171732991, 1025641073, 3184688949], 13309266637552),
            ([3131930855, 3172960398, 3182599607], 13351123012892),
            ([3171256690, 1032103038, 3145346688], 13418830502011),
        ];
        assert_eq!(golden_uploads(MomentumReset::Keep), want);
    }

    #[test]
    fn golden_clipped_upload() {
        let mut w = worker(0.79, 12);
        let params = golden_params(w.param_len());
        let want = ([3173225427, 3166496410, 1032508863], 13281166150718);
        assert_eq!(fingerprint(&w.clipped_dp_step(&params, 0.5)), want);
    }

    #[test]
    fn clipped_step_bounds_signal() {
        let mut a = worker(0.0, 10); // no noise: observe pure clipped signal
        let params = vec![0.0f32; a.param_len()];
        let g = a.clipped_dp_step(&params, 0.1);
        // Mean of b_c clipped-to-0.1 vectors has norm ≤ 0.1.
        assert!(vecops::l2_norm(&g) <= 0.1 + 1e-5);
    }
}
