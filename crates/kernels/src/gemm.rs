//! Batched dense matrix multiply — the compute-bound workload of the
//! paper's Figure 1 (batched `cublas-dgemm` vs. 16-stream execution).
//!
//! A simple shared-memory-tiled `C = A * B` kernel, one block per matrix.
//! Real numerics (delegated to `gbatch_core::dense::gemm` per block) with
//! tile-accurate traffic accounting: every element of `A` and `B` is read
//! `n / tile` times, the classic tiled-GEMM reuse factor.

use gbatch_core::dense;
use gbatch_gpu_sim::{launch, DeviceSpec, KernelCounters, LaunchConfig, LaunchError, LaunchReport};

/// Tile edge used by the simulated kernel.
pub const GEMM_TILE: usize = 16;

/// Shared bytes for two tiles.
pub fn gemm_smem_bytes() -> usize {
    2 * GEMM_TILE * GEMM_TILE * 8
}

/// Per-block (one matrix) counters of the tiled kernel, used both by the
/// batched launch and by the streamed simulation.
pub fn gemm_block_counters(n: usize, threads: u32) -> KernelCounters {
    let tiles = n.div_ceil(GEMM_TILE);
    let reads = 2 * n * n * tiles * 8; // A and B, re-read once per tile row/col
    let flops = 2 * n * n * n;
    KernelCounters {
        global_read: reads as u64,
        global_write: (n * n * 8) as u64,
        flops: flops as u64,
        smem_trips: tiles as u64,
        syncs: 2 * tiles as u64,
        cycles: (flops as f64 / threads as f64).max(1.0),
        smem_elems: (2 * n * n) as f64 / threads as f64,
        ..Default::default()
    }
}

/// Batched `C = A * B` over `batch` independent `n x n` triples stored
/// contiguously (column-major each).
pub fn gemm_batch(
    dev: &DeviceSpec,
    n: usize,
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    threads: u32,
) -> Result<LaunchReport, LaunchError> {
    let len = n * n;
    assert_eq!(a.len() % len, 0, "batch payload must be a multiple of n*n");
    let batch = a.len() / len;
    assert_eq!(b.len(), batch * len);
    assert_eq!(c.len(), batch * len);
    let cfg = LaunchConfig::new(threads, gemm_smem_bytes() as u32).with_label("gemm");
    let model = gemm_block_counters(n, threads);

    struct Prob<'a> {
        a: &'a [f64],
        b: &'a [f64],
        c: &'a mut [f64],
    }
    let mut probs: Vec<Prob<'_>> = c
        .chunks_mut(len)
        .enumerate()
        .map(|(id, cc)| Prob {
            a: &a[id * len..(id + 1) * len],
            b: &b[id * len..(id + 1) * len],
            c: cc,
        })
        .collect();

    launch(dev, &cfg, &mut probs, |p, ctx| {
        dense::gemm(n, n, n, 1.0, p.a, n, p.b, n, 0.0, p.c, n);
        ctx.gld(model.global_read as usize);
        ctx.gst(model.global_write as usize);
        ctx.par_work(n * n * n, 2);
        ctx.smem_work(2 * n * n, 0); // tile staging through shared memory
        for _ in 0..model.syncs {
            ctx.sync();
        }
        for _ in 0..model.smem_trips {
            ctx.smem_trip();
        }
    })
}

/// Achieved Gflop/s of a batched run (the paper's Figure 1 y-axis).
pub fn gemm_gflops(n: usize, batch: usize, time_s: f64) -> f64 {
    (2.0 * (n as f64).powi(3) * batch as f64) / time_s / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_gpu_sim::stream::simulate_streams;

    fn fill(len: usize, seed: f64) -> Vec<f64> {
        let mut v = seed;
        (0..len)
            .map(|_| {
                v = (v * 1.3 + 0.177).fract();
                v - 0.5
            })
            .collect()
    }

    #[test]
    fn computes_correct_products() {
        let dev = DeviceSpec::h100_pcie();
        let (n, batch) = (8, 3);
        let a = fill(n * n * batch, 0.1);
        let b = fill(n * n * batch, 0.2);
        let mut c = vec![0.0; n * n * batch];
        let _ = gemm_batch(&dev, n, &a, &b, &mut c, 64).unwrap();
        for id in 0..batch {
            let mut expect = vec![0.0; n * n];
            dense::gemm(
                n,
                n,
                n,
                1.0,
                &a[id * n * n..(id + 1) * n * n],
                n,
                &b[id * n * n..(id + 1) * n * n],
                n,
                0.0,
                &mut expect,
                n,
            );
            assert_eq!(&c[id * n * n..(id + 1) * n * n], &expect[..]);
        }
    }

    #[test]
    fn figure1_shape_batch_beats_streams_small_sizes() {
        // Paper Figure 1 (top): batch-500 dgemm vs 16 streams; the gap is
        // large for small n and shrinks as n grows.
        let dev = DeviceSpec::h100_pcie();
        let batch = 500;
        let mut gaps = Vec::new();
        for n in [32usize, 512] {
            let a = fill(n * n * batch.min(4), 0.3); // numerics only need a few
            let _ = a;
            let cfg = LaunchConfig::new(256, gemm_smem_bytes() as u32);
            let per_block = gemm_block_counters(n, 256);
            // Batched launch time from the analytic path (avoid the O(n^3)
            // host compute for n = 512 here).
            let batched = crate::cost::predict_time(&dev, &cfg, batch, &per_block).unwrap();
            let streamed = simulate_streams(&dev, &cfg, batch, 16, &per_block);
            gaps.push(streamed.secs() / batched.secs());
        }
        assert!(
            gaps[0] > 5.0,
            "small-size gap should be large, got {:.1}x",
            gaps[0]
        );
        assert!(gaps[1] < gaps[0], "gap must shrink with size: {gaps:?}");
    }

    #[test]
    fn gflops_helper() {
        let g = gemm_gflops(100, 500, 1e-3);
        assert!((g - 2.0 * 1e6 * 500.0 / 1e-3 / 1e9).abs() < 1e-6);
    }
}
