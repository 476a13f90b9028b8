//! Batched dense matrix–vector multiply — the memory-bound workload of the
//! paper's Figure 1 (bottom), and the instrument the paper uses in §8 to
//! measure sustained memory bandwidth ("by running very large dense matrix
//! vector products, we are able to estimate the sustained peak memory
//! bound": 1.92 TB/s on H100-PCIe, 1.31 TB/s on an MI250x GCD).

use gbatch_core::blas2;
use gbatch_gpu_sim::{launch, DeviceSpec, KernelCounters, LaunchConfig, LaunchError, LaunchReport};

/// Per-block (one matrix) counters: `y = A x` streams the whole matrix once.
pub fn gemv_block_counters(n: usize, threads: u32) -> KernelCounters {
    let reads = (n * n + n) * 8;
    let flops = 2 * n * n;
    KernelCounters {
        global_read: reads as u64,
        global_write: (n * 8) as u64,
        flops: flops as u64,
        smem_trips: 1,
        syncs: 1,
        cycles: (flops as f64 / threads as f64).max(1.0),
        smem_elems: 0.0,
        ..Default::default()
    }
}

/// Batched `y = A x` over `batch` independent `n x n` systems stored
/// contiguously.
pub fn gemv_batch(
    dev: &DeviceSpec,
    n: usize,
    a: &[f64],
    x: &[f64],
    y: &mut [f64],
    threads: u32,
) -> Result<LaunchReport, LaunchError> {
    let len = n * n;
    assert_eq!(a.len() % len, 0);
    let batch = a.len() / len;
    assert_eq!(x.len(), batch * n);
    assert_eq!(y.len(), batch * n);
    let cfg = LaunchConfig::new(threads, 0).with_label("gemv");
    let model = gemv_block_counters(n, threads);

    struct Prob<'a> {
        a: &'a [f64],
        x: &'a [f64],
        y: &'a mut [f64],
    }
    let mut probs: Vec<Prob<'_>> = y
        .chunks_mut(n)
        .enumerate()
        .map(|(id, yy)| Prob {
            a: &a[id * len..(id + 1) * len],
            x: &x[id * n..(id + 1) * n],
            y: yy,
        })
        .collect();

    launch(dev, &cfg, &mut probs, |p, ctx| {
        blas2::gemv(n, n, 1.0, p.a, n, p.x, 0.0, p.y);
        ctx.gld(model.global_read as usize);
        ctx.gst(model.global_write as usize);
        ctx.par_work(n * n, 2);
        ctx.sync();
    })
}

/// Sustained-bandwidth probe (§8): run one very large `gemv` that fills the
/// device and report achieved bytes/second from the timing model. On both
/// simulated devices this recovers the descriptor's sustained bandwidth,
/// reproducing the paper's 1.47x H100/MI250x ratio.
pub fn measure_sustained_bandwidth(dev: &DeviceSpec, n: usize) -> Result<f64, LaunchError> {
    // Split the big matrix into one row-panel per block so the launch fills
    // every SM: grid = 4 waves worth of blocks.
    let grid = (dev.sms * dev.max_blocks_per_sm) as usize;
    let rows_per_block = n.div_ceil(grid).max(1);
    let cfg = LaunchConfig::new(256, 0);
    let bytes_per_block = (rows_per_block * n + n + rows_per_block) * 8;
    let mut ids: Vec<usize> = (0..grid).collect();
    let rep = launch(dev, &cfg, &mut ids, |_, ctx| {
        ctx.gld(bytes_per_block - rows_per_block * 8);
        ctx.gst(rows_per_block * 8);
        ctx.par_work(rows_per_block * n, 2);
    })?;
    let total_bytes = rep.counters.global_bytes() as f64;
    Ok(total_bytes / (rep.time.secs() - dev.launch_overhead_s))
}

/// Achieved Gflop/s for a batched gemv run.
pub fn gemv_gflops(n: usize, batch: usize, time_s: f64) -> f64 {
    (2.0 * (n as f64).powi(2) * batch as f64) / time_s / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_gpu_sim::stream::simulate_streams;

    fn fill(len: usize, seed: f64) -> Vec<f64> {
        let mut v = seed;
        (0..len)
            .map(|_| {
                v = (v * 2.1 + 0.043).fract();
                v - 0.5
            })
            .collect()
    }

    #[test]
    fn computes_correct_products() {
        let dev = DeviceSpec::mi250x_gcd();
        let (n, batch) = (16, 4);
        let a = fill(n * n * batch, 0.6);
        let x = fill(n * batch, 0.8);
        let mut y = vec![0.0; n * batch];
        let _ = gemv_batch(&dev, n, &a, &x, &mut y, 64).unwrap();
        for id in 0..batch {
            let mut expect = vec![0.0; n];
            blas2::gemv(
                n,
                n,
                1.0,
                &a[id * n * n..(id + 1) * n * n],
                n,
                &x[id * n..(id + 1) * n],
                0.0,
                &mut expect,
            );
            assert_eq!(&y[id * n..(id + 1) * n], &expect[..]);
        }
    }

    #[test]
    fn bandwidth_probe_reproduces_paper_ratio() {
        let h = DeviceSpec::h100_pcie();
        let m = DeviceSpec::mi250x_gcd();
        let bw_h = measure_sustained_bandwidth(&h, 16384).unwrap();
        let bw_m = measure_sustained_bandwidth(&m, 16384).unwrap();
        // Large gemv saturates: within 10% of the descriptor numbers.
        assert!(
            (bw_h / 1.92e12 - 1.0).abs() < 0.1,
            "H100 sustained {bw_h:.3e}"
        );
        assert!(
            (bw_m / 1.31e12 - 1.0).abs() < 0.1,
            "MI250x sustained {bw_m:.3e}"
        );
        let ratio = bw_h / bw_m;
        assert!(
            (ratio - 1.47).abs() < 0.1,
            "paper quotes 1.47x, got {ratio:.2}x"
        );
    }

    #[test]
    fn figure1_shape_for_memory_bound_kernel() {
        let dev = DeviceSpec::h100_pcie();
        let batch = 500;
        let cfg = LaunchConfig::new(128, 0);
        let mut gaps = Vec::new();
        for n in [32usize, 512] {
            let per_block = gemv_block_counters(n, 128);
            let batched = crate::cost::predict_time(&dev, &cfg, batch, &per_block).unwrap();
            let streamed = simulate_streams(&dev, &cfg, batch, 16, &per_block);
            gaps.push(streamed.secs() / batched.secs());
        }
        assert!(gaps[0] > 3.0, "small-size gap, got {:.2}x", gaps[0]);
        assert!(gaps[1] < gaps[0], "gap shrinks with size: {gaps:?}");
    }
}
