//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! - in-kernel window shifting vs one launch per window step (§5.3);
//! - the fused GBSV driver below its size cutoff (§7, paper picks 64);
//! - blocked vs unblocked CPU factorization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gbatch_core::batch::{InfoArray, PivotBatch, RhsBatch};
use gbatch_gpu_sim::DeviceSpec;
use gbatch_kernels::dispatch::{dgbsv_batch, FactorAlgo, GbsvOptions};
use gbatch_kernels::window::{gbtrf_batch_window, gbtrf_batch_window_relaunch, WindowParams};
use gbatch_workloads::random::{random_band_batch, BandDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ablation_window_shift(c: &mut Criterion) {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kl, ku) = (24usize, 256usize, 2usize, 3usize);
    let mut rng = StdRng::seed_from_u64(1);
    let a0 = random_band_batch(&mut rng, batch, n, kl, ku, BandDistribution::Uniform);
    let params = WindowParams {
        nb: 8,
        threads: 32,
        ..Default::default()
    };

    let mut group = c.benchmark_group("ablation_window_shift");
    group.bench_function("in_kernel_shift", |bench| {
        bench.iter_batched(
            || {
                (
                    a0.clone(),
                    PivotBatch::new(batch, n, n),
                    InfoArray::new(batch),
                )
            },
            |(mut a, mut piv, mut info)| {
                gbtrf_batch_window(&dev, &mut a, &mut piv, &mut info, params).unwrap()
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("relaunch_per_step", |bench| {
        bench.iter_batched(
            || {
                (
                    a0.clone(),
                    PivotBatch::new(batch, n, n),
                    InfoArray::new(batch),
                )
            },
            |(mut a, mut piv, mut info)| {
                gbtrf_batch_window_relaunch(&dev, &mut a, &mut piv, &mut info, params).unwrap()
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();

    // Also report the modeled times once (the actual ablation result).
    let mut a1 = a0.clone();
    let mut p1 = PivotBatch::new(batch, n, n);
    let mut i1 = InfoArray::new(batch);
    let single = gbtrf_batch_window(&dev, &mut a1, &mut p1, &mut i1, params).unwrap();
    let mut a2 = a0.clone();
    let mut p2 = PivotBatch::new(batch, n, n);
    let mut i2 = InfoArray::new(batch);
    let multi = gbtrf_batch_window_relaunch(&dev, &mut a2, &mut p2, &mut i2, params).unwrap();
    let multi_ms: f64 = multi.iter().map(|r| r.time.ms()).sum();
    eprintln!(
        "[ablation_window_shift modeled] in-kernel {:.4} ms vs relaunch {:.4} ms ({} launches)",
        single.time.ms(),
        multi_ms,
        multi.len()
    );
}

fn ablation_gbsv_cutoff(c: &mut Criterion) {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kl, ku) = (32usize, 48usize, 2usize, 3usize);
    let mut group = c.benchmark_group("ablation_gbsv_cutoff");
    let mut rng = StdRng::seed_from_u64(2);
    let a0 = random_band_batch(&mut rng, batch, n, kl, ku, BandDistribution::Uniform);
    let b0 = RhsBatch::from_fn(batch, n, 1, |id, i, _| (id + i) as f64 * 0.01).unwrap();
    for (name, algo) in [
        ("fused_gbsv", FactorAlgo::FusedGbsv),
        ("factor_then_solve", FactorAlgo::Fused),
    ] {
        let opts = GbsvOptions {
            algo,
            ..Default::default()
        };
        group.bench_function(name, |bench| {
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
                    dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts).unwrap()
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn ablation_cpu_blocked(c: &mut Criterion) {
    let (n, kl, ku) = (512usize, 10usize, 7usize);
    let mut rng = StdRng::seed_from_u64(3);
    let a0 = random_band_batch(&mut rng, 4, n, kl, ku, BandDistribution::Uniform);
    let l = a0.layout();
    let mut group = c.benchmark_group("ablation_cpu_blocked");
    group.bench_function("gbtf2_unblocked", |bench| {
        bench.iter_batched(
            || a0.matrix(0).data.to_vec(),
            |mut ab| {
                let mut piv = vec![0i32; n];
                gbatch_core::gbtf2::gbtf2(&l, &mut ab, &mut piv)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    for nb in [8usize, 32, 64] {
        group.bench_with_input(BenchmarkId::new("gbtrf_blocked", nb), &nb, |bench, &nb| {
            bench.iter_batched(
                || a0.matrix(0).data.to_vec(),
                |mut ab| {
                    let mut piv = vec![0i32; n];
                    gbatch_core::gbtrf::gbtrf_blocked(&l, &mut ab, &mut piv, nb)
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

criterion_group!(name = benches; config = quick(); targets = ablation_window_shift, ablation_gbsv_cutoff, ablation_cpu_blocked);
criterion_main!(benches);
