//! Layout bench: interleaved (batch-major) versus column-major GBTRF
//! across a `(batch, n, kl, ku)` grid.
//!
//! Two contenders per grid point:
//!
//! - `column` — the dispatched column-major path (fused / window per §5.4),
//!   forced with [`MatrixLayout::ColumnMajor`];
//! - `interleaved` — the dispatched interleaved path, forced with
//!   [`MatrixLayout::Interleaved`]. Every grid point's factor window fits
//!   shared memory, so this is the windowed factor launch alone, with no
//!   pack or unpack pass.
//!
//! Criterion measures host wall-clock; the modeled `SimTime` per contender
//! is deterministic, so the summary at the end records it into a
//! `report::Figure` (the same serde container `repro` uses) at
//! `results/interleaved_layout.json` and asserts the ISSUE acceptance
//! criterion: the interleaved layout beats column-major on the
//! large-batch/small-n configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gbatch_bench::report::Figure;
use gbatch_core::batch::{InfoArray, PivotBatch};
use gbatch_gpu_sim::DeviceSpec;
use gbatch_kernels::dispatch::{dgbtrf_batch, GbsvOptions, MatrixLayout};
use gbatch_workloads::random::{random_band_batch, BandDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(batch, n, kl, ku)` grid: the Gloster-style large-batch/small-n corner
/// (where interleaving must win), the paper's mid-size band, and two
/// shapes the column-major path runs with the window kernel.
const GRID: [(usize, usize, usize, usize); 4] = [
    (4096, 16, 1, 2),
    (1024, 48, 2, 3),
    (256, 256, 8, 8),
    (64, 512, 8, 8),
];

/// The acceptance configuration: large batch, small n.
const ACCEPT: (usize, usize, usize, usize) = GRID[0];

fn opts(layout: MatrixLayout) -> GbsvOptions {
    GbsvOptions {
        layout,
        ..Default::default()
    }
}

/// Modeled `SimTime` (ms) of the dispatched factorization under a forced
/// layout.
fn dispatch_ms(dev: &DeviceSpec, a0: &gbatch_core::BandBatch, layout: MatrixLayout) -> f64 {
    let mut a = a0.clone();
    let mut piv = PivotBatch::new(a0.batch(), a0.layout().m, a0.layout().n);
    let mut info = InfoArray::new(a0.batch());
    let rep = dgbtrf_batch(dev, &mut a, &mut piv, &mut info, &opts(layout)).unwrap();
    rep.time.secs() * 1e3
}

fn bench_layouts(c: &mut Criterion) {
    let dev = DeviceSpec::h100_pcie();
    let mut group = c.benchmark_group("interleaved_layout_gbtrf");
    for &(batch, n, kl, ku) in &GRID {
        let mut rng = StdRng::seed_from_u64(7);
        let a0 = random_band_batch(&mut rng, batch, n, kl, ku, BandDistribution::Uniform);
        let label = format!("b{batch}_n{n}_kl{kl}_ku{ku}");
        for (name, layout) in [
            ("column", MatrixLayout::ColumnMajor),
            ("interleaved", MatrixLayout::Interleaved),
        ] {
            group.bench_with_input(BenchmarkId::new(name, &label), &layout, |bench, &layout| {
                bench.iter_batched(
                    || {
                        (
                            a0.clone(),
                            PivotBatch::new(batch, n, n),
                            InfoArray::new(batch),
                        )
                    },
                    |(mut a, mut piv, mut info)| {
                        dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &opts(layout)).unwrap()
                    },
                    criterion::BatchSize::LargeInput,
                );
            });
        }
    }
    group.finish();

    summarize(&dev);
}

/// Deterministic modeled-time summary: record the figure JSON and enforce
/// the acceptance criterion.
fn summarize(dev: &DeviceSpec) {
    let mut fig = Figure::with_unit(
        format!(
            "Interleaved vs column-major GBTRF (modeled), {} — grid {:?}",
            dev.name, GRID
        ),
        "n",
        "ms",
    );
    let mut col = gbatch_bench::report::Series::new("column-major dispatch");
    let mut inter = gbatch_bench::report::Series::new("interleaved dispatch");
    let mut accept: Option<(f64, f64)> = None;
    for &(batch, n, kl, ku) in &GRID {
        let mut rng = StdRng::seed_from_u64(7);
        let a0 = random_band_batch(&mut rng, batch, n, kl, ku, BandDistribution::Uniform);
        let c_ms = dispatch_ms(dev, &a0, MatrixLayout::ColumnMajor);
        let i_ms = dispatch_ms(dev, &a0, MatrixLayout::Interleaved);
        col.push(n, c_ms);
        inter.push(n, i_ms);
        eprintln!(
            "[interleaved_layout] batch {batch} n {n} (kl,ku)=({kl},{ku}): \
             column {c_ms:.4} ms, interleaved {i_ms:.4} ms"
        );
        if (batch, n, kl, ku) == ACCEPT {
            accept = Some((c_ms, i_ms));
        }
    }
    fig.series.push(col);
    fig.series.push(inter);

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/interleaved_layout.json"
    );
    let json = serde_json::to_string_pretty(&fig).unwrap();
    std::fs::write(path, json + "\n").unwrap();
    eprintln!("[interleaved_layout] wrote {path}");

    let (c_ms, i_ms) = accept.expect("acceptance config is in the grid");
    assert!(
        i_ms < c_ms,
        "large-batch/small-n acceptance: interleaved ({i_ms:.4} ms) must beat \
         column-major ({c_ms:.4} ms) at (batch,n,kl,ku)={ACCEPT:?}"
    );
    eprintln!(
        "[interleaved_layout] acceptance (batch,n,kl,ku)={ACCEPT:?}: \
         interleaved speedup {:.2}x over column-major",
        c_ms / i_ms
    );
}

/// Bounded-time criterion config: the numerics are deterministic and the
/// host box is a single core, so small samples suffice.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group!(name = benches; config = quick(); targets = bench_layouts);
criterion_main!(benches);
