//! Unit costs: public functions replayed on a workload's own model and
//! inputs, outside any round. Each returns the median time per call over
//! batches of calls. Every replay runs on every workload, also where the
//! workload's rounds never call it (quantization off `million`, the upload
//! codec off `served`): it then reads what the call would cost on that
//! workload's upload.

use crate::workload::Workload;
use dpbfl::prelude::*;
use dpbfl_nn::CrossEntropyLoss;
use dpbfl_stats::gaussian_vector;
use dpbfl_stats::normal::standard_normal_sample;
use dpbfl_tensor::quant::QuantizedVec;
use dpbfl_transport::Message;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Wall time each replay spends measuring.
const BUDGET_S: f64 = 0.25;

/// Noise draws tried for one the fast screen accepts (each fails with a
/// probability of a few percent).
const NOISE_DRAWS: usize = 64;

/// Median seconds per call of `f`, timed in batches of `batch` calls.
fn per_call(batch: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < BUDGET_S {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() / batch as f64);
    }
    crate::median(&samples)
}

/// `(metric, value, unit)` for every replayed unit cost.
pub fn unit_costs(w: &Workload) -> Vec<(&'static str, f64, &'static str)> {
    let cfg = &w.cfg;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut dp = cfg.dp.clone();
    dp.noise_multiplier = w.sigma;
    let mut model = cfg.model.build(&mut rng, &cfg.dataset);
    let params = model.params();
    let d = params.len();
    let data = cfg.dataset.generate(cfg.per_worker, cfg.seed);

    let mut worker = DpWorker::new(model.clone(), data.clone(), dp.clone(), cfg.seed);
    let local_step = per_call(4, || {
        black_box(worker.local_step(black_box(&params)));
    });
    let upload = worker.local_step(&params);

    let mut grad = vec![0.0f32; d];
    let b_c = dp.batch_size;
    let example_gradient = per_call(4, || {
        for i in 0..b_c {
            model.example_gradient(&CrossEntropyLoss, data.example(i), data.label(i), &mut grad);
        }
        black_box(&grad);
    });

    let normal = per_call(1, || {
        let mut acc = 0.0;
        for _ in 0..d {
            acc += standard_normal_sample(&mut rng);
        }
        black_box(acc);
    }) / d as f64;

    let mut shard_seed = cfg.seed;
    let generate_shard = per_call(1, || {
        shard_seed = shard_seed.wrapping_add(1);
        black_box(cfg.dataset.generate(cfg.per_worker, shard_seed));
    });

    let quant = per_call(8, || {
        black_box(QuantizedVec::encode(black_box(&upload)));
    });

    let first = FirstStage::new(
        dp.effective_noise_std(),
        d,
        cfg.defense_cfg.ks_significance,
        cfg.defense_cfg.norm_test_stds,
    );
    let mut scratch = KsScratch::new();
    // Pure noise at the expected std that passes the whole check and that
    // the screen decides without sorting. A few percent of such draws land
    // in the screen's borderline band or outside the norm interval, so draw
    // from a stream of the seed's own until one does not. `rng` is no use
    // here: the timed replays above advance it a time-dependent amount.
    let mut noise_rng = StdRng::seed_from_u64(cfg.seed ^ 0x6e6f_6973_6521);
    let noise = (0..NOISE_DRAWS)
        .map(|_| gaussian_vector(&mut noise_rng, dp.effective_noise_std(), d))
        .find(|noise| {
            let info = first.check_with_info(noise, &mut scratch);
            info.verdict == FirstStageVerdict::Accepted && !info.ks_exact
        })
        .expect("some noise draw passes the fast screen");
    let check_fast = per_call(8, || {
        black_box(first.check_with_info(black_box(&noise), &mut scratch));
    });
    let check_exact = per_call(2, || {
        black_box(first.check_reference_info(black_box(&noise)));
    });

    let codec = per_call(8, || {
        let frame = Message::Upload { round: 0, worker: 0, data: upload.clone() }.encode();
        black_box(Message::decode(&frame).expect("upload frame decodes"));
    });

    vec![
        ("core.worker.local_step_us", local_step * 1e6, "us"),
        ("nn.example_gradient_us", example_gradient * 1e6, "us"),
        ("stats.normal_sample_ns", normal * 1e9, "ns"),
        ("data.generate_shard_us", generate_shard * 1e6, "us"),
        ("tensor.quant_encode_us", quant * 1e6, "us"),
        ("core.first_stage.check_fast_us", check_fast * 1e6, "us"),
        ("core.first_stage.check_exact_us", check_exact * 1e6, "us"),
        ("transport.upload_codec_us", codec * 1e6, "us"),
    ]
}
