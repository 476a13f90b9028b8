//! Fully fused band LU factorization (paper §5.2).
//!
//! One kernel launch factors the whole batch: each block loads its entire
//! band matrix into shared memory, factors it column by column, and writes
//! it back — optimal global traffic (each matrix moves exactly once in each
//! direction). The shared-memory footprint is `ldab * n * size_of::<S>()`
//! bytes (half as large for `f32` as for `f64`) and
//! therefore **grows with the matrix size**: occupancy decreases in steps
//! (the Fig. 3 staircase) and the launch eventually fails when one matrix
//! no longer fits — which is precisely what motivates the sliding-window
//! design of [`crate::window`].

use crate::step::{smem_bytes_for_cols, smem_column_step, smem_fillin_prologue, SmemBand};
use gbatch_core::batch::{BandBatch, InfoArray, PivotBatch};
use gbatch_core::gbtf2::ColumnStepState;
use gbatch_core::scalar::Scalar;
use gbatch_gpu_sim::{launch, DeviceSpec, LaunchConfig, LaunchError, LaunchReport, ParallelPolicy};

/// Tunable parameters of the fused kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedParams {
    /// Threads per block (per matrix). Minimum `kl + 1` (the paper's
    /// constraint: the longest column has `kl + 1` pivot candidates).
    pub threads: u32,
    /// Host scheduling of the per-matrix blocks (results are
    /// bitwise-identical for every policy).
    pub parallel: ParallelPolicy,
}

impl Default for FusedParams {
    fn default() -> Self {
        FusedParams {
            threads: 32,
            parallel: ParallelPolicy::Serial,
        }
    }
}

impl FusedParams {
    /// Paper-minimum thread count rounded up to a full warp.
    pub fn auto(dev: &DeviceSpec, kl: usize) -> Self {
        let min = (kl + 1) as u32;
        let warp = dev.warp_size;
        FusedParams {
            threads: min.div_ceil(warp) * warp,
            parallel: ParallelPolicy::Serial,
        }
    }

    /// Builder: set the host scheduling policy.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }
}

/// Shared-memory bytes the fused kernel needs for one matrix of `S`
/// elements.
pub fn fused_smem_bytes<S: Scalar>(ldab: usize, n: usize) -> usize {
    smem_bytes_for_cols::<S>(ldab, n)
}

/// Batched fully fused band LU factorization.
///
/// Factors every matrix of `a` in place (LAPACK factor storage), filling
/// `piv` and `info`. Fails with [`LaunchError::SharedMemExceeded`] when one
/// matrix does not fit in shared memory — callers (the §5.4 dispatch layer)
/// fall back to the sliding-window kernel.
pub fn gbtrf_batch_fused<S: Scalar>(
    dev: &DeviceSpec,
    a: &mut BandBatch<S>,
    piv: &mut PivotBatch,
    info: &mut InfoArray,
    params: FusedParams,
) -> Result<LaunchReport, LaunchError> {
    let l = a.layout();
    assert_eq!(piv.batch(), a.batch(), "pivot batch mismatch");
    assert_eq!(info.len(), a.batch(), "info batch mismatch");
    let smem = fused_smem_bytes::<S>(l.ldab, l.n);
    let cfg = LaunchConfig::new(params.threads.max((l.kl + 1) as u32), smem as u32)
        .with_parallel(params.parallel)
        .with_label("gbtrf_fused")
        .with_precision(crate::flop_class::<S>());

    struct Problem<'a, S> {
        ab: &'a mut [S],
        piv: &'a mut [i32],
        info: &'a mut i32,
    }

    let mut problems: Vec<Problem<'_, S>> = a
        .chunks_mut()
        .zip(piv.chunks_mut())
        .zip(info.as_mut_slice().iter_mut())
        .map(|((ab, piv), info)| Problem { ab, piv, info })
        .collect();

    launch(dev, &cfg, &mut problems, |p, ctx| {
        let bytes = l.len() * S::BYTES;
        // Load the whole band matrix to shared memory (one coalesced pass).
        // The arena stays f64-grained; the scalar allocation reserves the
        // same capacity the launch declared, the tracker sees the striped
        // store, and the block factors a working copy of the band.
        let off = ctx.smem.alloc_scalar(l.len(), S::BYTES);
        let mut scratch = ctx.take_scratch();
        let local = scratch.stale::<S>(l.len());
        local.copy_from_slice(p.ab);
        if let Some(t) = ctx.smem.tracker() {
            t.striped_write(off, l.len(), ctx.threads);
        }
        ctx.gld(bytes);
        ctx.sync();

        {
            let mut w = SmemBand {
                data: &mut *local,
                ldab: l.ldab,
                col0: 0,
                width: l.n,
                provenance: Some(l),
            };
            let mut st = ColumnStepState::default();
            smem_fillin_prologue(&l, &mut w, ctx);
            for j in 0..l.m.min(l.n) {
                smem_column_step(&l, &mut w, p.piv, j, &mut st, ctx);
            }
            *p.info = st.info;
        }

        // Write the factors (and pivots) back to global memory.
        p.ab.copy_from_slice(local);
        ctx.put_scratch(scratch);
        if let Some(t) = ctx.smem.tracker() {
            t.striped_read(off, l.len(), ctx.threads);
        }
        ctx.gst(bytes);
        ctx.gst(l.m.min(l.n) * std::mem::size_of::<i32>());
        ctx.sync();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::gbtf2::gbtf2;
    use gbatch_gpu_sim::engine::validate;

    fn random_batch(batch: usize, n: usize, kl: usize, ku: usize) -> BandBatch {
        let mut v = 0.23f64;
        BandBatch::from_fn(batch, n, n, kl, ku, |id, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    v = (v * 1.9 + 0.083 + id as f64 * 1e-4).fract();
                    m.set(i, j, v - 0.5);
                }
            }
        })
        .unwrap()
    }

    #[test]
    fn matches_sequential_reference_bitwise() {
        for (n, kl, ku) in [(9, 2, 3), (32, 2, 3), (24, 10, 7), (16, 0, 3), (16, 3, 0)] {
            let dev = DeviceSpec::h100_pcie();
            let batch = 5;
            let mut a = random_batch(batch, n, kl, ku);
            let expected: Vec<(Vec<f64>, Vec<i32>, i32)> = (0..batch)
                .map(|id| {
                    let mut ab = a.matrix(id).data.to_vec();
                    let mut p = vec![0i32; n];
                    let info = gbtf2(&a.layout(), &mut ab, &mut p);
                    (ab, p, info)
                })
                .collect();

            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let rep = gbtrf_batch_fused(
                &dev,
                &mut a,
                &mut piv,
                &mut info,
                FusedParams::auto(&dev, kl),
            )
            .unwrap();
            assert_eq!(rep.grid, batch);
            for id in 0..batch {
                assert_eq!(
                    a.matrix(id).data,
                    &expected[id].0[..],
                    "factors (n={n},kl={kl},ku={ku})"
                );
                assert_eq!(piv.pivots(id), &expected[id].1[..], "pivots");
                assert_eq!(info.get(id), expected[id].2, "info");
            }
        }
    }

    #[test]
    fn large_matrix_fails_on_small_shared_memory() {
        // (kl, ku) = (2, 3): ldab = 8; MI250x LDS = 64 KB -> fails above
        // n = 1024 columns (8 * 1024 * 8 B = 64 KB exactly fills it, and
        // H100 still fits). This is the paper's "failing to run" regime.
        let mi = DeviceSpec::mi250x_gcd();
        let h100 = DeviceSpec::h100_pcie();
        let n_fail = 1056; // 8 * 1056 * 8 = 67.6 KB > 64 KB
        let smem = fused_smem_bytes::<f64>(8, n_fail) as u32;
        assert!(validate(&mi, &LaunchConfig::new(32, smem)).is_err());
        assert!(validate(&h100, &LaunchConfig::new(32, smem)).is_ok());
    }

    #[test]
    fn staircase_when_occupancy_drops() {
        // Same batch, growing n: crossing the half-LDS boundary on MI250x
        // must produce a superlinear jump in modeled time. The paper sees
        // this between n = 416 and 448 for (2, 3); with our exact
        // `ldab * n * 8` footprint (no extra per-block workspace) the
        // boundary sits at n = 512 -> 544 — same mechanism, same shape.
        let dev = DeviceSpec::mi250x_gcd();
        let (kl, ku) = (2usize, 3usize);
        let batch = 1000;
        let mut times = Vec::new();
        for n in [512, 544] {
            let mut a = random_batch(batch, n, kl, ku);
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let rep = gbtrf_batch_fused(
                &dev,
                &mut a,
                &mut piv,
                &mut info,
                FusedParams::auto(&dev, kl),
            )
            .unwrap();
            times.push((n, rep.time.secs(), rep.occupancy.blocks_per_sm));
        }
        let (n1, t1, o1) = times[0];
        let (n2, t2, o2) = times[1];
        assert_eq!(o1, 2, "n={n1} should fit 2 blocks/CU");
        assert_eq!(o2, 1, "n={n2} should fit 1 block/CU");
        let jump = t2 / t1;
        let size_ratio = n2 as f64 / n1 as f64;
        assert!(
            jump > 1.5 * size_ratio,
            "expected a staircase jump, got {jump:.2}x for a {size_ratio:.2}x size increase"
        );
    }

    #[test]
    fn auto_threads_respects_minimum_and_warp() {
        let h = DeviceSpec::h100_pcie();
        assert_eq!(FusedParams::auto(&h, 2).threads, 32);
        assert_eq!(FusedParams::auto(&h, 33).threads, 64);
        let m = DeviceSpec::mi250x_gcd();
        assert_eq!(FusedParams::auto(&m, 10).threads, 64);
    }

    #[test]
    fn singular_matrix_reports_info() {
        let dev = DeviceSpec::h100_pcie();
        let n = 8;
        let mut a = random_batch(3, n, 1, 1);
        // Zero out the entire pivot-candidate column 0 of matrix 1.
        {
            let mut m = a.matrix_mut(1);
            m.set(0, 0, 0.0);
            m.set(1, 0, 0.0);
        }
        let mut piv = PivotBatch::new(3, n, n);
        let mut info = InfoArray::new(3);
        let _ = gbtrf_batch_fused(
            &dev,
            &mut a,
            &mut piv,
            &mut info,
            FusedParams::auto(&dev, 1),
        )
        .unwrap();
        assert_eq!(info.get(0), 0);
        assert_eq!(info.get(1), 1);
        assert_eq!(info.get(2), 0);
        assert_eq!(info.failures(), vec![1]);
    }
}
