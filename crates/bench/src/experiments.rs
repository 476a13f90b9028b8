//! Experiment runners — one per figure/table of the paper.
//!
//! Numerics always execute for real (and are residual-checked) on an
//! execution batch of up to [`EXEC_BATCH`] matrices; the reported time is
//! the modeled time of the *full* paper batch (default 1000), obtained by
//! re-pricing the measured per-block counters at the paper's grid size.
//! This keeps the repro binary fast without ever reporting a time for
//! numerics that did not run.

use crate::platforms::Platforms;
use crate::report::{Figure, Series, SpeedupSummary};
use gbatch_core::batch::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch_core::gbtrs::Transpose;
use gbatch_core::residual::backward_error;
use gbatch_cpu::{cpu_gbsv_batch, cpu_gbtrf_batch, CpuSpec};
use gbatch_gpu_sim::stream::simulate_streams;
use gbatch_gpu_sim::timing::estimate;
use gbatch_gpu_sim::{DeviceSpec, FlopPrecision, KernelCounters, LaunchConfig, SimTime};
use gbatch_kernels::cost::predict_time;
use gbatch_kernels::dispatch::{dgbsv_batch, dgbtrf_batch, dgbtrs_batch, FactorAlgo, GbsvOptions};
use gbatch_kernels::fused::{fused_smem_bytes, gbtrf_batch_fused, FusedParams};
use gbatch_kernels::gemm::{gemm_block_counters, gemm_gflops, gemm_smem_bytes};
use gbatch_kernels::gemv::{gemv_block_counters, gemv_gflops, measure_sustained_bandwidth};
use gbatch_kernels::window::{gbtrf_batch_window, window_smem_bytes, WindowParams};
use gbatch_workloads::random::{random_band_batch, BandDistribution};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Matrices actually executed per measurement (timing is re-priced to the
/// full paper batch).
pub const EXEC_BATCH: usize = 48;
/// The paper's batch size ("a batch of 1,000 matrices").
pub const PAPER_BATCH: usize = 1000;
/// The paper's two band shapes.
pub const PAPER_BANDS: [(usize, usize); 2] = [(2, 3), (10, 7)];
/// Size sweep matching the figures' x-range (up to 1024).
pub const PAPER_SIZES: [usize; 12] = [32, 64, 96, 128, 192, 256, 320, 448, 512, 640, 832, 1024];
/// Size sweep of the fused-GBSV comparison (Figure 7, small systems).
pub const FIG7_SIZES: [usize; 8] = [16, 32, 48, 64, 80, 96, 128, 160];

fn seeded(n: usize, kl: usize, ku: usize, nrhs: usize) -> StdRng {
    StdRng::seed_from_u64((n as u64) << 32 | (kl as u64) << 16 | (ku as u64) << 8 | nrhs as u64)
}

/// Re-price a launch at the paper's grid size: counters scale linearly in
/// the grid (uniform batches), the critical path stays per-block.
fn reprice(
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    agg: &KernelCounters,
    exec_grid: usize,
    target_grid: usize,
) -> Option<SimTime> {
    let occ = gbatch_gpu_sim::engine::validate(dev, cfg).ok()?;
    let scale = target_grid as f64 / exec_grid as f64;
    let scaled = KernelCounters {
        global_read: (agg.global_read as f64 * scale) as u64,
        global_write: (agg.global_write as f64 * scale) as u64,
        flops: (agg.flops as f64 * scale) as u64,
        ..*agg
    };
    Some(estimate(
        dev,
        &occ,
        target_grid,
        &scaled,
        FlopPrecision::Fp64,
        dev.launch_overhead_s,
    ))
}

/// GPU GBTRF measurement: runs the requested design on a seeded random
/// batch, validates one solve, returns the modeled full-batch time in ms
/// (`None` = the kernel cannot run, e.g. fused out of shared memory).
pub fn gbtrf_gpu_ms(
    dev: &DeviceSpec,
    n: usize,
    kl: usize,
    ku: usize,
    algo: FactorAlgo,
    window: Option<WindowParams>,
) -> Option<f64> {
    let mut rng = seeded(n, kl, ku, 0);
    let mut a = random_band_batch(&mut rng, EXEC_BATCH, n, kl, ku, BandDistribution::Uniform);
    let orig = a.matrix(0).to_owned();
    let l = a.layout();
    let mut piv = PivotBatch::new(EXEC_BATCH, n, n);
    let mut info = InfoArray::new(EXEC_BATCH);
    // The paper experiments force the column-major designs; the layout
    // dimension has its own bench (`benches/interleaved_layout.rs`).
    let opts = GbsvOptions {
        algo,
        window,
        ..Default::default()
    };

    // A forced kernel that cannot launch fails the call (`None`).
    let rep = dgbtrf_batch(dev, &mut a, &mut piv, &mut info, &opts).ok()?;
    assert!(info.all_ok(), "factorization failed: {:?}", info.failures());

    // Residual spot check through a solve on matrix 0.
    let x_true: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
    let mut b = vec![0.0; n];
    gbatch_core::blas2::gbmv(1.0, orig.as_ref(), &x_true, 0.0, &mut b);
    let b0 = b.clone();
    gbatch_core::gbtrs::gbtrs(
        gbatch_core::gbtrs::Transpose::No,
        &l,
        a.matrix(0).data,
        piv.pivots(0),
        &mut b,
        n,
        1,
    );
    let berr = backward_error(orig.as_ref(), &b, &b0);
    assert!(berr < 1e-10, "n={n} kl={kl} ku={ku}: berr {berr:.2e}");

    // Multi-launch designs (reference) report their summed time directly —
    // per-launch overhead dominates and is batch-size independent;
    // single-launch designs are re-priced to the paper batch.
    if rep.launches > 2 {
        Some(rep.time.ms())
    } else {
        // Re-run pricing from the counters is not available through
        // BatchReport; recompute via a direct launch report. For
        // single-kernel paths the dispatcher's launch is the whole cost, so
        // we re-measure through the underlying kernel for exact counters.
        let mut a2 = random_band_batch(
            &mut seeded(n, kl, ku, 1),
            EXEC_BATCH,
            n,
            kl,
            ku,
            BandDistribution::Uniform,
        );
        let mut piv2 = PivotBatch::new(EXEC_BATCH, n, n);
        let mut info2 = InfoArray::new(EXEC_BATCH);
        let (cfg, raw) = match algo {
            FactorAlgo::Fused => {
                let p = FusedParams::auto(dev, kl);
                let smem = fused_smem_bytes::<f64>(l.ldab, n);
                let raw = gbtrf_batch_fused(dev, &mut a2, &mut piv2, &mut info2, p).ok()?;
                (LaunchConfig::new(p.threads, smem as u32), raw)
            }
            _ => {
                let p = window.unwrap_or_else(|| WindowParams::auto(dev, kl));
                let smem = window_smem_bytes::<f64>(&l, p.nb);
                let raw = gbtrf_batch_window(dev, &mut a2, &mut piv2, &mut info2, p).ok()?;
                (LaunchConfig::new(p.threads, smem as u32), raw)
            }
        };
        reprice(dev, &cfg, &raw.counters, EXEC_BATCH, PAPER_BATCH).map(SimTime::ms)
    }
}

/// CPU GBTRF model time for the full paper batch, in ms (numerics execute
/// on the exec batch for validation).
pub fn gbtrf_cpu_ms(cpu: &CpuSpec, n: usize, kl: usize, ku: usize) -> f64 {
    let mut rng = seeded(n, kl, ku, 2);
    let mut a = random_band_batch(
        &mut rng,
        EXEC_BATCH.min(16),
        n,
        kl,
        ku,
        BandDistribution::Uniform,
    );
    let mut piv = PivotBatch::new(a.batch(), n, n);
    let mut info = InfoArray::new(a.batch());
    cpu_gbtrf_batch(cpu, &mut a, &mut piv, &mut info);
    assert!(info.all_ok());
    let l = a.layout();
    cpu.batch_time(
        PAPER_BATCH,
        gbatch_cpu::model::gbtrf_flops(&l),
        gbatch_cpu::model::gbtrf_bytes(&l),
    ) * 1e3
}

/// GPU GBSV measurement under the paper's policy
/// ([`FactorAlgo::ColumnMajor`]), modeled full-batch ms. With `fused_gbsv`
/// the call is `dgbsv_batch`, which runs the §7 fused kernel where the
/// policy picks it; without, the standard path of Figure 7:
/// `dgbtrf_batch`, then `dgbtrs_batch`.
pub fn gbsv_gpu_ms(
    dev: &DeviceSpec,
    n: usize,
    kl: usize,
    ku: usize,
    nrhs: usize,
    window: Option<WindowParams>,
    fused_gbsv: bool,
) -> Option<f64> {
    let mut rng = seeded(n, kl, ku, nrhs);
    let mut a = random_band_batch(&mut rng, EXEC_BATCH, n, kl, ku, BandDistribution::Uniform);
    let orig = a.clone();
    let mut b = gbatch_workloads::rhs::manufactured_rhs(&mut rng, EXEC_BATCH, n, nrhs);
    let b0 = b.clone();
    let mut piv = PivotBatch::new(EXEC_BATCH, n, n);
    let mut info = InfoArray::new(EXEC_BATCH);
    let opts = GbsvOptions {
        algo: FactorAlgo::ColumnMajor,
        window,
        ..Default::default()
    };
    // Modeled time of one solve of the batch.
    let gbsv = |a: &mut BandBatch, piv: &mut PivotBatch, b: &mut RhsBatch, info: &mut InfoArray| {
        if fused_gbsv {
            return Some(dgbsv_batch(dev, a, piv, b, info, &opts).ok()?.time);
        }
        let f = dgbtrf_batch(dev, a, piv, info, &opts).ok()?;
        let s = dgbtrs_batch(dev, Transpose::No, &a.layout(), a.data(), piv, b, &opts).ok()?;
        Some(f.time + s.time)
    };
    let small = gbsv(&mut a, &mut piv, &mut b, &mut info)?.ms();
    assert!(info.all_ok());
    for id in [0, EXEC_BATCH - 1] {
        for c in 0..nrhs {
            let x = &b.block(id)[c * n..c * n + n];
            let r0 = &b0.block(id)[c * n..c * n + n];
            let berr = backward_error(orig.matrix(id), x, r0);
            assert!(
                berr < 1e-10,
                "gbsv berr {berr:.2e} (n={n} kl={kl} ku={ku} nrhs={nrhs})"
            );
        }
    }
    // The dispatcher's modeled time is for EXEC_BATCH; scale the traffic
    // linearly by re-running cost at the paper grid. For the (at most two)
    // launches involved the time scales with the wave count, which is
    // linear in the batch once the device is full — measure directly at
    // both grids and extrapolate.
    // Second measurement at half the exec batch to recover the linear
    // coefficient: time(batch) ~= a + b * batch.
    let half = EXEC_BATCH / 2;
    let mut a2 = BandBatch::from_fn(half, n, n, kl, ku, |id, m| {
        let src = orig.matrix(id);
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                m.set(i, j, src.get(i, j));
            }
        }
    })
    .ok()?;
    let mut b2 = RhsBatch::from_fn(half, n, nrhs, |id, i, c| b0.get(id, i, c)).ok()?;
    let mut piv2 = PivotBatch::new(half, n, n);
    let mut info2 = InfoArray::new(half);
    let halved = gbsv(&mut a2, &mut piv2, &mut b2, &mut info2)?.ms();
    let slope = (small - halved) / (EXEC_BATCH - half) as f64;
    let intercept = small - slope * EXEC_BATCH as f64;
    Some(intercept + slope * PAPER_BATCH as f64)
}

/// CPU GBSV model time, full batch, ms.
pub fn gbsv_cpu_ms(cpu: &CpuSpec, n: usize, kl: usize, ku: usize, nrhs: usize) -> f64 {
    let mut rng = seeded(n, kl, ku, nrhs + 100);
    let mut a = random_band_batch(&mut rng, 8, n, kl, ku, BandDistribution::Uniform);
    let mut b = gbatch_workloads::rhs::manufactured_rhs(&mut rng, 8, n, nrhs);
    let mut piv = PivotBatch::new(8, n, n);
    let mut info = InfoArray::new(8);
    cpu_gbsv_batch(cpu, &mut a, &mut piv, &mut b, &mut info);
    assert!(info.all_ok());
    let l = a.layout();
    let flops = gbatch_cpu::model::gbtrf_flops(&l) + gbatch_cpu::model::gbtrs_flops(&l, nrhs);
    let bytes = gbatch_cpu::model::gbtrf_bytes(&l) + gbatch_cpu::model::gbtrs_bytes(&l, nrhs);
    cpu.batch_time(PAPER_BATCH, flops, bytes) * 1e3
}

/// Figure 1: batched vs 16-stream gemm (top) and gemv (bottom), batch 500,
/// achieved Gflop/s.
pub fn fig1(p: &Platforms) -> Vec<Figure> {
    let dev = &p.h100;
    let batch = 500;
    let sizes: Vec<usize> = (1..=16).map(|k| k * 32).collect();
    let mut out = Vec::new();
    for kernel in ["dgemm", "dgemv"] {
        let mut batched = Series::new(format!("batch-{kernel}"));
        let mut streamed = Series::new(format!("streamed-{kernel} (16)"));
        for &n in &sizes {
            let (cfg, per_block) = if kernel == "dgemm" {
                (
                    LaunchConfig::new(256, gemm_smem_bytes() as u32),
                    gemm_block_counters(n, 256),
                )
            } else {
                (LaunchConfig::new(128, 0), gemv_block_counters(n, 128))
            };
            let t_batch = predict_time(dev, &cfg, batch, &per_block).expect("cfg");
            let t_stream = simulate_streams(dev, &cfg, batch, 16, &per_block);
            let (gb, gs) = if kernel == "dgemm" {
                (
                    gemm_gflops(n, batch, t_batch.secs()),
                    gemm_gflops(n, batch, t_stream.secs()),
                )
            } else {
                (
                    gemv_gflops(n, batch, t_batch.secs()),
                    gemv_gflops(n, batch, t_stream.secs()),
                )
            };
            batched.push(n, gb);
            streamed.push(n, gs);
        }
        let mut f = Figure::with_unit(
            format!("Figure 1 ({kernel}): batched vs 16-stream, batch {batch}"),
            "n",
            "GF/s",
        );
        f.series.push(batched);
        f.series.push(streamed);
        out.push(f);
    }
    out
}

/// Figure 3: fully fused GBTRF across sizes, both bands, three platforms.
pub fn fig3(p: &Platforms) -> Vec<Figure> {
    PAPER_BANDS
        .iter()
        .map(|&(kl, ku)| {
            let mut f = Figure::new(
                format!("Figure 3: fully fused GBTRF, (kl,ku)=({kl},{ku}), batch {PAPER_BATCH}"),
                "n",
            );
            for (dev, _) in p.gpus() {
                let mut s = Series::new(dev.name.clone());
                for &n in &PAPER_SIZES {
                    match gbtrf_gpu_ms(dev, n, kl, ku, FactorAlgo::Fused, None) {
                        Some(ms) => s.push(n, ms),
                        None => s.push_fail(n),
                    }
                }
                f.series.push(s);
            }
            let mut c = Series::new("mkl+openmp (modeled)");
            for &n in &PAPER_SIZES {
                c.push(n, gbtrf_cpu_ms(&p.cpu, n, kl, ku));
            }
            f.series.push(c);
            f
        })
        .collect()
}

/// Figure 5: final (dispatched, tuned) GBTRF across sizes.
pub fn fig5(p: &Platforms) -> Vec<Figure> {
    PAPER_BANDS
        .iter()
        .map(|&(kl, ku)| {
            let mut f = Figure::new(
                format!("Figure 5: final GBTRF, (kl,ku)=({kl},{ku}), batch {PAPER_BATCH}"),
                "n",
            );
            for (dev, _) in p.gpus() {
                let params = p.window_params(dev, kl, ku);
                let mut s = Series::new(dev.name.clone());
                for &n in &PAPER_SIZES {
                    // §5.4: fused for small sizes, window otherwise.
                    let algo = if n <= 64 {
                        FactorAlgo::Fused
                    } else {
                        FactorAlgo::Window
                    };
                    match gbtrf_gpu_ms(dev, n, kl, ku, algo, params) {
                        Some(ms) => s.push(n, ms),
                        None => s.push_fail(n),
                    }
                }
                f.series.push(s);
            }
            let mut c = Series::new("mkl+openmp (modeled)");
            for &n in &PAPER_SIZES {
                c.push(n, gbtrf_cpu_ms(&p.cpu, n, kl, ku));
            }
            f.series.push(c);
            f
        })
        .collect()
}

/// Table 1: GBTRF speedups vs the CPU, per band, per GPU.
pub fn table1(p: &Platforms) -> Vec<(String, SpeedupSummary)> {
    speedup_table(fig5(p))
}

/// Figure 7: fused GBSV vs standard factor+solve, small systems, 1 RHS.
pub fn fig7(p: &Platforms) -> Vec<Figure> {
    PAPER_BANDS
        .iter()
        .map(|&(kl, ku)| {
            let mut f = Figure::new(
                format!("Figure 7: fused vs standard GBSV, (kl,ku)=({kl},{ku}), 1 RHS"),
                "n",
            );
            for (dev, _) in p.gpus() {
                let params = p.window_params(dev, kl, ku);
                let mut fused = Series::new(format!("Fused - {}", dev.name));
                let mut std = Series::new(format!("Std - {}", dev.name));
                for &n in &FIG7_SIZES {
                    // Fused path: force a generous cutoff so it covers the
                    // whole figure range (the paper plots both well past
                    // the production cutoff of 64).
                    let mut rng = seeded(n, kl, ku, 31);
                    let mut a = random_band_batch(
                        &mut rng,
                        EXEC_BATCH,
                        n,
                        kl,
                        ku,
                        BandDistribution::Uniform,
                    );
                    let mut b = gbatch_workloads::rhs::manufactured_rhs(&mut rng, EXEC_BATCH, n, 1);
                    let mut piv = PivotBatch::new(EXEC_BATCH, n, n);
                    let mut info = InfoArray::new(EXEC_BATCH);
                    match gbatch_kernels::gbsv_fused::gbsv_batch_fused(
                        dev,
                        &mut a,
                        &mut piv,
                        &mut b,
                        &mut info,
                        FusedParams::auto(dev, kl).threads,
                        gbatch_gpu_sim::ParallelPolicy::Serial,
                    ) {
                        Ok(rep) => {
                            let cfg = LaunchConfig::new(
                                FusedParams::auto(dev, kl).threads.max((kl + 1) as u32),
                                gbatch_kernels::gbsv_fused::gbsv_smem_bytes::<f64>(&a.layout(), 1)
                                    as u32,
                            );
                            match reprice(dev, &cfg, &rep.counters, EXEC_BATCH, PAPER_BATCH) {
                                Some(t) => fused.push(n, t.ms()),
                                None => fused.push_fail(n),
                            }
                        }
                        Err(_) => fused.push_fail(n),
                    }
                    match gbsv_gpu_ms(dev, n, kl, ku, 1, params, false) {
                        Some(ms) => std.push(n, ms),
                        None => std.push_fail(n),
                    }
                }
                f.series.push(fused);
                f.series.push(std);
            }
            f
        })
        .collect()
}

/// Figures 8/9: final GBSV across sizes, `nrhs` right-hand sides.
pub fn fig_gbsv(p: &Platforms, nrhs: usize) -> Vec<Figure> {
    PAPER_BANDS
        .iter()
        .map(|&(kl, ku)| {
            let mut f = Figure::new(
                format!(
                    "Figure {}: final GBSV, (kl,ku)=({kl},{ku}), #RHS={nrhs}, batch {PAPER_BATCH}",
                    if nrhs == 1 { 8 } else { 9 }
                ),
                "n",
            );
            for (dev, _) in p.gpus() {
                let params = p.window_params(dev, kl, ku);
                let mut s = Series::new(dev.name.clone());
                for &n in &PAPER_SIZES {
                    match gbsv_gpu_ms(dev, n, kl, ku, nrhs, params, true) {
                        Some(ms) => s.push(n, ms),
                        None => s.push_fail(n),
                    }
                }
                f.series.push(s);
            }
            let mut c = Series::new("mkl+openmp (modeled)");
            for &n in &PAPER_SIZES {
                c.push(n, gbsv_cpu_ms(&p.cpu, n, kl, ku, nrhs));
            }
            f.series.push(c);
            f
        })
        .collect()
}

/// Figure 8 (single RHS).
pub fn fig8(p: &Platforms) -> Vec<Figure> {
    fig_gbsv(p, 1)
}

/// Figure 9 (ten RHS).
pub fn fig9(p: &Platforms) -> Vec<Figure> {
    fig_gbsv(p, 10)
}

/// Tables 2/3: GBSV speedups vs the CPU.
pub fn table_gbsv(p: &Platforms, nrhs: usize) -> Vec<(String, SpeedupSummary)> {
    speedup_table(fig_gbsv(p, nrhs))
}

/// §8 bandwidth probe: sustained bandwidth of both GPUs via a large gemv.
pub fn bandwidth(p: &Platforms) -> Vec<(String, f64)> {
    [&p.h100, &p.mi250x]
        .iter()
        .map(|d| {
            let bw = measure_sustained_bandwidth(d, 16384).expect("probe");
            (d.name.clone(), bw)
        })
        .collect()
}

/// §5.3 tuning sweep summary for the paper's band shapes plus a sample of
/// the grid.
pub fn tuning_sweep(p: &Platforms) -> String {
    let mut out = String::new();
    for (dev, table) in p.gpus() {
        out.push_str(&format!(
            "# {} — calibrated n={}, batch={}\n",
            dev.name, 512, 1000
        ));
        for &(kl, ku) in &[(2, 3), (10, 7), (0, 0), (1, 1), (4, 4), (8, 8)] {
            if let Some(e) = table.lookup(kl, ku) {
                out.push_str(&format!(
                    "  gbtrf (kl={kl:>2}, ku={ku:>2}) -> nb={:>3}, threads={:>3}, predicted {:.4} ms\n",
                    e.nb, e.threads, e.predicted_ms
                ));
            }
        }
        // Solve-kernel tuning (Section 9's "more robust tuning framework").
        let cfg = gbatch_tuning::SweepConfig::default();
        for &(kl, ku, nrhs) in &[
            (2usize, 3usize, 1usize),
            (2, 3, 10),
            (10, 7, 1),
            (10, 7, 10),
        ] {
            if let Some(e) = gbatch_tuning::sweep::sweep_solve_band(dev, &cfg, kl, ku, nrhs) {
                out.push_str(&format!(
                    "  gbtrs (kl={kl:>2}, ku={ku:>2}, nrhs={nrhs:>2}) -> nb={:>3}, threads={:>3}, predicted {:.4} ms\n",
                    e.nb, e.threads, e.predicted_ms
                ));
            }
        }
    }
    out
}

/// Beyond-the-paper extensions report: specialized ("JIT") kernels,
/// SPD Cholesky, the streamed-GBSV counterfactual, multi-GCD.
pub fn extensions(p: &Platforms) -> String {
    use gbatch_core::layout::BandLayout;
    use gbatch_gpu_sim::multi::DeviceGroup;
    let mut out = String::new();

    // 1. Specialized register kernels vs the generic window (both GPUs).
    out.push_str(
        "# Band-specialized (JIT-style) kernels vs generic window, (kl,ku)=(2,3), n=256\n",
    );
    for (dev, _) in p.gpus() {
        let mut rng = seeded(256, 2, 3, 41);
        let a0 = random_band_batch(&mut rng, EXEC_BATCH, 256, 2, 3, BandDistribution::Uniform);
        let mut a1 = a0.clone();
        let mut p1 = PivotBatch::new(EXEC_BATCH, 256, 256);
        let mut i1 = InfoArray::new(EXEC_BATCH);
        let spec =
            gbatch_kernels::specialized::specialized_gbtrf(dev, &mut a1, &mut p1, &mut i1, 32)
                .expect("compiled shape")
                .expect("launch");
        let mut a2 = a0.clone();
        let mut p2 = PivotBatch::new(EXEC_BATCH, 256, 256);
        let mut i2 = InfoArray::new(EXEC_BATCH);
        let gen = gbtrf_batch_window(
            dev,
            &mut a2,
            &mut p2,
            &mut i2,
            p.window_params(dev, 2, 3)
                .unwrap_or_else(|| WindowParams::auto(dev, 2)),
        )
        .expect("launch");
        assert_eq!(a1.data(), a2.data());
        out.push_str(&format!(
            "  {:<26} specialized {:.4} ms vs window {:.4} ms -> {:.2}x\n",
            dev.name,
            spec.time.ms(),
            gen.time.ms(),
            gen.time.secs() / spec.time.secs()
        ));
    }

    // 2. SPD Cholesky vs LU on an XGC-like symmetric batch.
    out.push_str("# SPD Cholesky vs LU, n=192, kd=9 (XGC-like)\n");
    for (dev, _) in p.gpus() {
        let a0 = gbatch_kernels::pbtrf::PbBatch::from_fn(EXEC_BATCH, 192, 9, |id, l, ab| {
            let mut v = 0.17 + id as f64 * 1e-3;
            for j in 0..192 {
                let kn = 9usize.min(191 - j);
                let mut sum = 0.0;
                for k in 1..=kn {
                    v = (v * 2.3 + 0.083) % 1.0;
                    ab[l.idx(j + k, j)] = v - 0.5;
                    sum += (v - 0.5f64).abs();
                }
                ab[l.idx(j, j)] = 2.0 * sum + 2.0;
            }
        });
        let mut a = a0.clone();
        let mut info = InfoArray::new(EXEC_BATCH);
        let chol = gbatch_kernels::pbtrf::pbtrf_batch_window(dev, &mut a, &mut info, 8, 32)
            .expect("launch");
        let mut g = BandBatch::from_fn(EXEC_BATCH, 192, 192, 9, 9, |id, m| {
            let l = a0.layout();
            let ab = a0.matrix(id);
            for j in 0..192 {
                let kn = 9usize.min(191 - j);
                m.set(j, j, ab[l.idx(j, j)]);
                for k in 1..=kn {
                    m.set(j + k, j, ab[l.idx(j + k, j)]);
                    m.set(j, j + k, ab[l.idx(j + k, j)]);
                }
            }
        })
        .unwrap();
        let mut piv = PivotBatch::new(EXEC_BATCH, 192, 192);
        let mut ginfo = InfoArray::new(EXEC_BATCH);
        let lu = gbtrf_batch_window(
            dev,
            &mut g,
            &mut piv,
            &mut ginfo,
            p.window_params(dev, 9, 9)
                .unwrap_or_else(|| WindowParams::auto(dev, 9)),
        )
        .expect("launch");
        out.push_str(&format!(
            "  {:<26} Cholesky {:.4} ms vs LU {:.4} ms -> {:.2}x\n",
            dev.name,
            chol.time.ms(),
            lu.time.ms(),
            lu.time.secs() / chol.time.secs()
        ));
    }

    // 3. The streamed counterfactual: the paper notes a stream-based
    // batched GBSV "is not possible since the band matrix processing is
    // absent from the single matrix API" — our simulator can price the
    // hypothetical anyway: one fused-GBSV kernel per matrix over 16
    // streams vs the real batched kernel.
    out.push_str("# Streamed-GBSV counterfactual (16 streams), (2,3), n=64, 1 RHS\n");
    for (dev, _) in p.gpus() {
        let n = 64usize;
        let mut rng = seeded(n, 2, 3, 53);
        let mut a = random_band_batch(&mut rng, EXEC_BATCH, n, 2, 3, BandDistribution::Uniform);
        let mut b = gbatch_workloads::rhs::manufactured_rhs(&mut rng, EXEC_BATCH, n, 1);
        let mut piv = PivotBatch::new(EXEC_BATCH, n, n);
        let mut info = InfoArray::new(EXEC_BATCH);
        let rep = gbatch_kernels::gbsv_fused::gbsv_batch_fused(
            dev,
            &mut a,
            &mut piv,
            &mut b,
            &mut info,
            FusedParams::auto(dev, 2).threads,
            gbatch_gpu_sim::ParallelPolicy::Serial,
        )
        .expect("launch");
        let l = a.layout();
        let cfg = LaunchConfig::new(
            FusedParams::auto(dev, 2).threads,
            gbatch_kernels::gbsv_fused::gbsv_smem_bytes::<f64>(&l, 1) as u32,
        );
        let batched = reprice(dev, &cfg, &rep.counters, EXEC_BATCH, PAPER_BATCH)
            .expect("price")
            .ms();
        // Per-kernel counters = aggregate / grid (uniform batch).
        let per_block = KernelCounters {
            global_read: rep.counters.global_read / EXEC_BATCH as u64,
            global_write: rep.counters.global_write / EXEC_BATCH as u64,
            flops: rep.counters.flops / EXEC_BATCH as u64,
            ..rep.counters
        };
        let streamed = simulate_streams(dev, &cfg, PAPER_BATCH, 16, &per_block);
        out.push_str(&format!(
            "  {:<26} batched {batched:.4} ms vs hypothetical streamed {:.4} ms ({:.0}x)\n",
            dev.name,
            streamed.ms(),
            streamed.ms() / batched
        ));
    }

    // 4. Multi-GCD MI250x: visible once the batch needs multiple waves
    // (a wave-saturating configuration — big batch, wide band).
    out.push_str("# Full MI250x (2 GCDs) vs a single GCD, GBTRF (10,7), n=512, batch 8000\n");
    {
        let big_batch = 8 * PAPER_BATCH;
        let group = DeviceGroup::mi250x_full();
        let params = p
            .window_params(&p.mi250x, 10, 7)
            .unwrap_or_else(|| WindowParams::auto(&p.mi250x, 10));
        let l = BandLayout::factor(512, 512, 10, 7).unwrap();
        let cfg = LaunchConfig::new(
            params.threads,
            window_smem_bytes::<f64>(&l, params.nb) as u32,
        );
        // Measure one partition's counters once and re-price per grid size.
        let mut rng = seeded(512, 10, 7, 3);
        let mut a = random_band_batch(&mut rng, EXEC_BATCH, 512, 10, 7, BandDistribution::Uniform);
        let mut piv = PivotBatch::new(EXEC_BATCH, 512, 512);
        let mut info = InfoArray::new(EXEC_BATCH);
        let raw =
            gbtrf_batch_window(&p.mi250x, &mut a, &mut piv, &mut info, params).expect("launch");
        let price = |dev: &DeviceSpec, grid: usize| {
            reprice(dev, &cfg, &raw.counters, EXEC_BATCH, grid).expect("cfg")
        };
        let single = price(&p.mi250x, big_batch);
        let split = group
            .run_split::<std::convert::Infallible>(big_batch, |dev, lo, hi| Ok(price(dev, hi - lo)))
            .unwrap();
        out.push_str(&format!(
            "  single GCD {:.4} ms vs 2 GCDs {:.4} ms -> {:.2}x\n",
            single.ms(),
            split.ms(),
            single.secs() / split.secs()
        ));
    }
    out
}

/// Multi-GCD scaling figure: the full MI250x (both GCDs, split via
/// [`DeviceGroup::partition`](gbatch_gpu_sim::multi::DeviceGroup)) against
/// a single GCD on batched GBSV over the XGC-like shape, across a batch
/// sweep. Numerics execute for real at every point (each partition runs
/// its own `dgbsv_batch` dispatch) and are residual-checked; serialized to
/// `results/multi_gcd.json` by the `repro` binary.
pub fn multi_gcd(p: &Platforms) -> Figure {
    use gbatch_gpu_sim::multi::DeviceGroup;
    let (n, kl, ku, nrhs) = (192usize, 9usize, 9usize, 1usize);
    let mut fig = Figure::new(
        "Extension: full MI250x (2 GCDs) vs single GCD, GBSV (9,9), n=192, 1 RHS",
        "batch",
    );
    let mut single = Series::new("MI250x single GCD");
    let mut dual = Series::new("MI250x 2 GCDs (split batch)");
    let group = DeviceGroup::mi250x_full();
    let opts = GbsvOptions {
        window: p.window_params(&p.mi250x, kl, ku),
        ..Default::default()
    };
    for &batch in &[500usize, 1000, 2000, 4000, 8000] {
        let mut rng = seeded(n, kl, ku, nrhs);
        let a0 = random_band_batch(
            &mut rng,
            batch,
            n,
            kl,
            ku,
            BandDistribution::DiagonallyDominant { margin: 1.0 },
        );
        let b0 = gbatch_workloads::rhs::manufactured_rhs(&mut rng, batch, n, nrhs);

        // Single GCD: one dispatch over the whole batch.
        let mut a = a0.clone();
        let mut b = b0.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let t1 = dgbsv_batch(&p.mi250x, &mut a, &mut piv, &mut b, &mut info, &opts)
            .expect("launch")
            .time;
        assert!(info.all_ok(), "diagonally dominant batch factorizes");
        let berr = backward_error(a0.matrix(0), b.block(0), b0.block(0));
        assert!(berr < 1e-12, "residual check: berr {berr:e}");

        // Both GCDs: the bandwidth-proportional split, one dispatch per
        // partition, makespan of the group.
        let stride = a0.matrix_stride();
        let t2 = group
            .run_split(batch, |dev, lo, hi| {
                let count = hi - lo;
                let mut pa = BandBatch::zeros_with_layout(a0.layout(), count).unwrap();
                pa.data_mut()
                    .copy_from_slice(&a0.data()[lo * stride..hi * stride]);
                let mut pb = RhsBatch::zeros(count, n, nrhs).unwrap();
                pb.data_mut()
                    .copy_from_slice(&b0.data()[lo * b0.block_stride()..hi * b0.block_stride()]);
                let mut ppiv = PivotBatch::new(count, n, n);
                let mut pinfo = InfoArray::new(count);
                let rep = dgbsv_batch(dev, &mut pa, &mut ppiv, &mut pb, &mut pinfo, &opts)?;
                assert!(pinfo.all_ok());
                // The split must reproduce the single-GCD solution
                // bitwise: identical kernels on identical lanes.
                assert_eq!(
                    pb.data(),
                    &b.data()[lo * b.block_stride()..hi * b.block_stride()],
                    "partition [{lo}, {hi}) diverged from the unsplit solve"
                );
                Ok::<_, gbatch_gpu_sim::LaunchError>(rep.time)
            })
            .expect("launch");

        single.push(batch, t1.ms());
        dual.push(batch, t2.ms());
    }
    fig.series.push(single);
    fig.series.push(dual);
    fig
}

/// Turn GPU-vs-CPU figures into the paper's speedup tables. The CPU series
/// must be the last series of each figure.
fn speedup_table(figs: Vec<Figure>) -> Vec<(String, SpeedupSummary)> {
    let mut rows = Vec::new();
    for f in figs {
        let cpu = f.series.last().expect("cpu series").clone();
        for s in &f.series[..f.series.len() - 1] {
            if let Some(sum) = SpeedupSummary::from_series(&cpu, s) {
                rows.push((format!("{} | {}", f.title, s.label), sum));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn platforms() -> Platforms {
        // Small tuning grid keeps the tests quick; the paper bands are
        // covered by nearest-neighbour lookup.
        Platforms::tuned(3)
    }

    #[test]
    fn gbtrf_measurements_are_positive_and_validated() {
        let p = platforms();
        let ms = gbtrf_gpu_ms(&p.h100, 64, 2, 3, FactorAlgo::Fused, None).unwrap();
        assert!(ms > 0.0);
        let ms = gbtrf_gpu_ms(&p.h100, 128, 2, 3, FactorAlgo::Window, None).unwrap();
        assert!(ms > 0.0);
        assert!(gbtrf_cpu_ms(&p.cpu, 64, 2, 3) > 0.0);
    }

    #[test]
    fn fused_fails_gracefully_past_shared_memory() {
        let p = platforms();
        // (10, 7): ldab = 28; MI250x fits 65536 / (28 * 8) = 292 columns.
        assert!(gbtrf_gpu_ms(&p.mi250x, 256, 10, 7, FactorAlgo::Fused, None).is_some());
        assert!(gbtrf_gpu_ms(&p.mi250x, 320, 10, 7, FactorAlgo::Fused, None).is_none());
        // The H100 still runs it.
        assert!(gbtrf_gpu_ms(&p.h100, 320, 10, 7, FactorAlgo::Fused, None).is_some());
    }

    #[test]
    fn gbsv_measurement_scales_with_rhs() {
        let p = platforms();
        let t1 = gbsv_gpu_ms(&p.h100, 96, 2, 3, 1, None, true).unwrap();
        let t10 = gbsv_gpu_ms(&p.h100, 96, 2, 3, 10, None, true).unwrap();
        assert!(t10 > t1, "10 RHS should cost more: {t1} vs {t10}");
        let c1 = gbsv_cpu_ms(&p.cpu, 96, 2, 3, 1);
        let c10 = gbsv_cpu_ms(&p.cpu, 96, 2, 3, 10);
        assert!(c10 > 1.5 * c1);
    }

    #[test]
    fn fig1_produces_batch_advantage() {
        let p = platforms();
        let figs = fig1(&p);
        assert_eq!(figs.len(), 2);
        for f in &figs {
            let batched = &f.series[0];
            let streamed = &f.series[1];
            let n = 32;
            assert!(
                batched.at(n).unwrap() > 3.0 * streamed.at(n).unwrap(),
                "{}: batch should be much faster at n={n}",
                f.title
            );
        }
    }

    #[test]
    fn multi_gcd_splits_agree_and_scale() {
        let p = platforms();
        let fig = multi_gcd(&p);
        assert_eq!(fig.series.len(), 2);
        let single = &fig.series[0];
        let dual = &fig.series[1];
        for x in fig.xs() {
            let (t1, t2) = (single.at(x).unwrap(), dual.at(x).unwrap());
            assert!(t2 < t1, "batch {x}: 2 GCDs ({t2} ms) vs 1 ({t1} ms)");
        }
        // At the largest batch the split should approach 2x.
        let big = *fig.xs().last().unwrap();
        let speedup = single.at(big).unwrap() / dual.at(big).unwrap();
        assert!(speedup > 1.6, "large-batch multi-GCD speedup {speedup:.2}x");
    }

    #[test]
    fn bandwidth_probe_matches_paper() {
        let p = platforms();
        let bw = bandwidth(&p);
        let ratio = bw[0].1 / bw[1].1;
        assert!(
            (ratio - 1.47).abs() < 0.12,
            "H100/MI250x bandwidth ratio {ratio:.2}"
        );
    }
}
