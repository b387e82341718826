//! Per-example gradient cost — the worker-side hot loop. DP-SGD computes one
//! of these per batch slot per iteration; the paper's MLP (`d = 25 450`) and
//! MNIST CNN (`d = 21 802`) differ by ~40× here, which is why reduced-scale
//! experiments default to the MLP. `dp_worker_local_step` times the whole
//! client step around it (b_c of these gradients, the momentum/norm pass and
//! `d` Gaussian draws).

use criterion::{criterion_group, criterion_main, Criterion};
use dpbfl::config::DpSgdConfig;
use dpbfl::worker::DpWorker;
use dpbfl_data::SyntheticSpec;
use dpbfl_nn::{zoo, CrossEntropyLoss};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_gradients(c: &mut Criterion) {
    let mut group = c.benchmark_group("per_example_gradient");
    group.sample_size(20);
    let loss = CrossEntropyLoss;

    let mut rng = StdRng::seed_from_u64(1);
    let mut mlp = zoo::mlp_784(&mut rng);
    let x_mlp = vec![0.5f32; 784];
    let mut g_mlp = vec![0.0f32; mlp.param_len()];
    group.bench_function("mlp_784_d25450", |b| {
        b.iter(|| std::hint::black_box(mlp.example_gradient(&loss, &x_mlp, 3, &mut g_mlp)))
    });

    let mut cnn = zoo::mnist_cnn(&mut rng);
    let x_cnn = vec![0.5f32; 784];
    let mut g_cnn = vec![0.0f32; cnn.param_len()];
    group.bench_function("mnist_cnn_d21802", |b| {
        b.iter(|| std::hint::black_box(cnn.example_gradient(&loss, &x_cnn, 3, &mut g_cnn)))
    });

    let mut colo = zoo::colorectal_cnn(&mut rng);
    let x_colo = vec![0.5f32; 3 * 32 * 32];
    let mut g_colo = vec![0.0f32; colo.param_len()];
    group.bench_function("colorectal_cnn_d25144", |b| {
        b.iter(|| std::hint::black_box(colo.example_gradient(&loss, &x_colo, 3, &mut g_colo)))
    });
    group.finish();
}

fn bench_local_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("dp_worker_local_step");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(2);
    let model = zoo::mlp_784(&mut rng);
    let params = model.params();
    let data = SyntheticSpec::mnist_like().generate(64, 3);
    let cfg = DpSgdConfig { batch_size: 16, ..Default::default() };
    let mut worker = DpWorker::new(model, data, cfg, 4);
    group.bench_function("mlp_784_bc16", |b| {
        b.iter(|| std::hint::black_box(worker.local_step(&params)))
    });
    group.finish();
}

criterion_group!(benches, bench_gradients, bench_local_step);
criterion_main!(benches);
