//! Figure 7 bench: single-kernel fused GBSV versus the standard separate
//! `dgbtrf_batch` + `dgbtrs_batch` (`ColumnMajor`), across small orders.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gbatch_core::batch::{InfoArray, PivotBatch, RhsBatch};
use gbatch_core::gbtrs::Transpose;
use gbatch_gpu_sim::DeviceSpec;
use gbatch_kernels::dispatch::{dgbtrf_batch, dgbtrs_batch, FactorAlgo, GbsvOptions};
use gbatch_kernels::fused::FusedParams;
use gbatch_kernels::gbsv_fused::gbsv_batch_fused;
use gbatch_workloads::random::{random_band_batch, BandDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_fig7(c: &mut Criterion) {
    let dev = DeviceSpec::h100_pcie();
    let batch = 64;
    let (kl, ku) = (2usize, 3usize);
    let mut group = c.benchmark_group("fig7_fused_vs_standard_gbsv");
    for n in [16usize, 48, 96] {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let a0 = random_band_batch(&mut rng, batch, n, kl, ku, BandDistribution::Uniform);
        let b0 = RhsBatch::from_fn(batch, n, 1, |id, i, _| ((id + i) as f64 * 0.29).sin()).unwrap();
        group.bench_with_input(BenchmarkId::new("fused", n), &n, |bench, _| {
            bench.iter_batched(
                || {
                    (
                        a0.clone(),
                        b0.clone(),
                        PivotBatch::new(batch, n, n),
                        InfoArray::new(batch),
                    )
                },
                |(mut a, mut b, mut piv, mut info)| {
                    gbsv_batch_fused(
                        &dev,
                        &mut a,
                        &mut piv,
                        &mut b,
                        &mut info,
                        FusedParams::auto(&dev, kl).threads,
                        gbatch_gpu_sim::ParallelPolicy::Serial,
                    )
                    .unwrap()
                },
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("standard", n), &n, |bench, _| {
            let opts = GbsvOptions {
                algo: FactorAlgo::ColumnMajor,
                ..Default::default()
            };
            bench.iter_batched(
                || {
                    (
                        a0.clone(),
                        b0.clone(),
                        PivotBatch::new(batch, n, n),
                        InfoArray::new(batch),
                    )
                },
                |(mut a, mut b, mut piv, mut info)| {
                    let f = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &opts).unwrap();
                    let l = a.layout();
                    let s = dgbtrs_batch(&dev, Transpose::No, &l, a.data(), &piv, &mut b, &opts);
                    (f, s.unwrap())
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

/// Bounded-time criterion config: the numerics are deterministic and the
/// host box is a single core, so small samples suffice.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group!(name = benches; config = quick(); targets = bench_fig7);
criterion_main!(benches);
