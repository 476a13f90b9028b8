//! Benches for the beyond-the-paper extensions: band-specialized
//! ("JIT") kernels and SPD Cholesky. Host wall-clock of the real
//! numerics.

use criterion::{criterion_group, criterion_main, Criterion};
use gbatch_core::batch::{InfoArray, PivotBatch};
use gbatch_gpu_sim::DeviceSpec;
use gbatch_kernels::pbtrf::{pbtrf_batch_window, PbBatch};
use gbatch_kernels::specialized::specialized_gbtrf;
use gbatch_kernels::window::{gbtrf_batch_window, WindowParams};
use gbatch_workloads::random::{random_band_batch, BandDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_specialized(c: &mut Criterion) {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kl, ku) = (32usize, 128usize, 2usize, 3usize);
    let mut rng = StdRng::seed_from_u64(1);
    let a0 = random_band_batch(&mut rng, batch, n, kl, ku, BandDistribution::Uniform);
    let mut group = c.benchmark_group("ext_specialized_vs_window");
    group.bench_function("specialized_2_3", |b| {
        b.iter_batched(
            || {
                (
                    a0.clone(),
                    PivotBatch::new(batch, n, n),
                    InfoArray::new(batch),
                )
            },
            |(mut a, mut piv, mut info)| {
                specialized_gbtrf(&dev, &mut a, &mut piv, &mut info, 32)
                    .unwrap()
                    .unwrap()
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("window_2_3", |b| {
        b.iter_batched(
            || {
                (
                    a0.clone(),
                    PivotBatch::new(batch, n, n),
                    InfoArray::new(batch),
                )
            },
            |(mut a, mut piv, mut info)| {
                gbtrf_batch_window(
                    &dev,
                    &mut a,
                    &mut piv,
                    &mut info,
                    WindowParams {
                        nb: 8,
                        threads: 32,
                        ..Default::default()
                    },
                )
                .unwrap()
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_cholesky(c: &mut Criterion) {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kd) = (24usize, 192usize, 9usize);
    let a0 = PbBatch::from_fn(batch, n, kd, |id, l, ab| {
        let mut v = 0.31 + id as f64 * 1e-3;
        for j in 0..n {
            let kn = kd.min(n - 1 - j);
            let mut sum = 0.0;
            for k in 1..=kn {
                v = (v * 2.1 + 0.07).fract();
                ab[l.idx(j + k, j)] = v - 0.5;
                sum += (v - 0.5).abs();
            }
            ab[l.idx(j, j)] = 2.0 * sum + 2.0;
        }
    });
    c.bench_function("ext_cholesky_window", |bench| {
        bench.iter_batched(
            || (a0.clone(), InfoArray::new(batch)),
            |(mut a, mut info)| pbtrf_batch_window(&dev, &mut a, &mut info, 8, 32).unwrap(),
            criterion::BatchSize::LargeInput,
        );
    });
}

/// Bounded-time criterion config: the numerics are deterministic and the
/// host box is a single core, so small samples suffice.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group!(name = benches; config = quick(); targets = bench_specialized, bench_cholesky);
criterion_main!(benches);
