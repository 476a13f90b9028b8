//! Fully fused batched factorize-and-solve (paper Section 7).
//!
//! For small systems a single kernel performs the band LU on the augmented
//! system `[A|B]` in shared memory: applying each column's pivot swap and
//! rank-1 update to `B` as soon as the column is factored implicitly
//! performs the forward triangular solve; the backward solve then runs in
//! shared memory as well, and each matrix plus its RHS moves through global
//! memory exactly once. Following the paper's empirical cutoff, the
//! dispatch layer enables this kernel for systems of order 64 or less with
//! a single right-hand side; the kernel itself supports any `nrhs`.
//!
//! Numerically identical (bit-for-bit) to the separate factorization and
//! solve, because the forward updates use exactly the values the separate
//! `GBTRS` would read.

use crate::step::{smem_bytes_for_cols, smem_column_step, smem_fillin_prologue, SmemBand};
use gbatch_core::batch::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch_core::gbtf2::ColumnStepState;
use gbatch_core::layout::BandLayout;
use gbatch_core::scalar::Scalar;
use gbatch_gpu_sim::{launch, DeviceSpec, LaunchConfig, LaunchError, LaunchReport, ParallelPolicy};

/// System-order cutoff below which the dispatch layer uses this kernel
/// ("we enable the fused kernel for systems of order 64 or less, and for a
/// single right hand side" — paper §7).
pub const FUSED_GBSV_MAX_N: usize = 64;

/// Shared bytes for the augmented system `[A|B]` in `S` elements.
///
/// The band and RHS are two distinct allocations, and the simulated arena
/// hands out whole 8-byte grains per allocation — so each component is
/// aligned up to the grain here. For `f64` both terms are already
/// grain-multiples and the formula is unchanged.
pub fn gbsv_smem_bytes<S: Scalar>(l: &BandLayout, nrhs: usize) -> usize {
    let grain = std::mem::size_of::<f64>();
    smem_bytes_for_cols::<S>(l.ldab, l.n).div_ceil(grain) * grain
        + (l.n * nrhs * S::BYTES).div_ceil(grain) * grain
}

/// Batched fused `GBSV`: factorizes every matrix (factors and pivots are
/// returned, like `DGBSV`) and overwrites `rhs` with the solutions.
/// Matrices with a zero pivot get their `info` code set and their RHS is
/// left in the partially-updated state (the solve is not completed), like
/// LAPACK. `parallel` selects the host-side scheduling of the per-matrix
/// blocks (results are bitwise-identical for every policy).
pub fn gbsv_batch_fused<S: Scalar>(
    dev: &DeviceSpec,
    a: &mut BandBatch<S>,
    piv: &mut PivotBatch,
    rhs: &mut RhsBatch<S>,
    info: &mut InfoArray,
    threads: u32,
    parallel: ParallelPolicy,
) -> Result<LaunchReport, LaunchError> {
    let l = a.layout();
    assert_eq!(l.m, l.n, "gbsv requires square systems");
    let n = l.n;
    let batch = a.batch();
    assert_eq!(piv.batch(), batch);
    assert_eq!(rhs.batch(), batch);
    assert_eq!(rhs.n(), n);
    assert_eq!(info.len(), batch);
    let nrhs = rhs.nrhs();
    let ldb = rhs.ldb();
    let kv = l.kv();
    let kl = l.kl;

    let smem = gbsv_smem_bytes::<S>(&l, nrhs);
    let cfg = LaunchConfig::new(threads.max((kl + 1) as u32), smem as u32)
        .with_parallel(parallel)
        .with_label("gbsv_fused")
        .with_precision(crate::flop_class::<S>());

    struct Problem<'a, S> {
        ab: &'a mut [S],
        piv: &'a mut [i32],
        b: &'a mut [S],
        info: &'a mut i32,
    }
    let mut problems: Vec<Problem<'_, S>> = a
        .chunks_mut()
        .zip(piv.chunks_mut())
        .zip(rhs.blocks_mut())
        .zip(info.as_mut_slice().iter_mut())
        .map(|(((ab, piv), b), info)| Problem { ab, piv, b, info })
        .collect();

    launch(dev, &cfg, &mut problems, |p, ctx| {
        let band_len = l.len();
        let rhs_len = n * nrhs;
        let a_off = ctx.smem.alloc_scalar(band_len, S::BYTES);
        let b_off = ctx.smem.alloc_scalar(rhs_len, S::BYTES);

        // Load the augmented system.
        let mut scratch = ctx.take_scratch();
        let (band, bx) = scratch
            .stale::<S>(band_len + rhs_len)
            .split_at_mut(band_len);
        band.copy_from_slice(p.ab);
        for c in 0..nrhs {
            bx[c * n..(c + 1) * n].copy_from_slice(&p.b[c * ldb..c * ldb + n]);
        }
        if let Some(t) = ctx.smem.tracker() {
            t.striped_write(a_off, band_len, ctx.threads);
            t.striped_write(b_off, rhs_len, ctx.threads);
        }
        ctx.gld((band_len + rhs_len) * S::BYTES);
        ctx.sync();

        // Factorize, forward-solving B on the fly.
        let mut st = ColumnStepState::default();
        {
            let mut w = SmemBand {
                data: &mut *band,
                ldab: l.ldab,
                col0: 0,
                width: n,
                provenance: Some(l),
            };
            smem_fillin_prologue(&l, &mut w, ctx);
            for j in 0..n {
                smem_column_step(&l, &mut w, p.piv, j, &mut st, ctx);
                if st.info != 0 && st.info as usize == j + 1 {
                    continue; // zero pivot: no forward update from this column
                }
                if j < n - 1 && kl > 0 {
                    // Forward step on B: swap + rank-1 with the multipliers.
                    let pr = p.piv[j] as usize;
                    if pr != j {
                        if let Some(t) = ctx.smem.tracker() {
                            // RHS column c is swapped entirely by lane c.
                            for c in 0..nrhs {
                                let lane = (c % ctx.threads as usize) as u32;
                                t.read(lane, b_off + c * n + pr);
                                t.read(lane, b_off + c * n + j);
                                t.write(lane, b_off + c * n + pr);
                                t.write(lane, b_off + c * n + j);
                            }
                        }
                        for c in 0..nrhs {
                            bx.swap(c * n + pr, c * n + j);
                        }
                        ctx.smem_work(nrhs, 0);
                        // The rank-1 update below broadcast-reads b[j],
                        // which the swap just wrote from another lane — on
                        // hardware the swap must drain first. `pr != j` is
                        // uniform across the block (one matrix per block),
                        // so the conditional barrier is legal.
                        ctx.sync();
                    }
                    let lm = kl.min(n - 1 - j);
                    if lm > 0 {
                        let base = w.idx(kv, j);
                        if let Some(t) = ctx.smem.tracker() {
                            for c in 0..nrhs {
                                // Every row lane needs the pivot RHS value;
                                // row j + i is updated by lane (i - 1) —
                                // the lane that scaled multiplier i, so the
                                // multiplier read stays lane-local.
                                t.broadcast_read(b_off + c * n + j);
                                if bx[c * n + j] != S::ZERO {
                                    t.striped_read(a_off + base + 1, lm, ctx.threads);
                                    t.striped_read(b_off + c * n + j + 1, lm, ctx.threads);
                                    t.striped_write(b_off + c * n + j + 1, lm, ctx.threads);
                                }
                            }
                        }
                        for c in 0..nrhs {
                            let bj = bx[c * n + j];
                            if bj == S::ZERO {
                                continue;
                            }
                            for i in 1..=lm {
                                bx[c * n + j + i] -= w.data[base + i] * bj;
                            }
                        }
                        ctx.smem_work(nrhs * lm, 2);
                    }
                    ctx.sync();
                }
            }
        }
        *p.info = st.info;

        // Backward solve in shared memory (skipped on singular systems,
        // like DGBSV).
        if st.info == 0 {
            if let Some(t) = ctx.smem.tracker() {
                // The backward recurrence is sequential in j but parallel
                // over right-hand sides: lane c owns RHS column c outright
                // (its reads and writes never cross lanes), and the factor
                // columns are shared read-only.
                for c in 0..nrhs {
                    let lane = (c % ctx.threads as usize) as u32;
                    t.range_read(lane, b_off + c * n, n);
                    t.range_write(lane, b_off + c * n, n);
                    t.range_read(lane, a_off, band_len);
                }
            }
            for c in 0..nrhs {
                for j in (0..n).rev() {
                    let bj = bx[c * n + j] / band[j * l.ldab + kv];
                    bx[c * n + j] = bj;
                    if bj != S::ZERO {
                        let reach = kv.min(j);
                        for i in 1..=reach {
                            bx[c * n + j - i] -= band[j * l.ldab + kv - i] * bj;
                        }
                    }
                }
            }
            ctx.smem_work(nrhs * n * (kv + 1), 2);
            ctx.seq_cycles(n as f64); // the column recurrence is sequential
            ctx.sync();
        }

        // Write everything back: factors, pivots, solution.
        p.ab.copy_from_slice(band);
        for c in 0..nrhs {
            p.b[c * ldb..c * ldb + n].copy_from_slice(&bx[c * n..(c + 1) * n]);
        }
        ctx.put_scratch(scratch);
        if let Some(t) = ctx.smem.tracker() {
            t.striped_read(a_off, band_len, ctx.threads);
            t.striped_read(b_off, rhs_len, ctx.threads);
        }
        ctx.gst((band_len + rhs_len) * S::BYTES + n * 4);
        ctx.sync();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::gbsv::gbsv;

    fn random_batch(batch: usize, n: usize, kl: usize, ku: usize) -> (BandBatch, RhsBatch) {
        let mut v = 0.71f64;
        let a = BandBatch::from_fn(batch, n, n, kl, ku, |id, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    v = (v * 3.3 + 0.019 + id as f64 * 7e-4).fract();
                    m.set(i, j, v - 0.5);
                }
            }
        })
        .unwrap();
        let b = RhsBatch::from_fn(batch, n, 1, |id, i, _| ((id + i) as f64 * 0.37).sin()).unwrap();
        (a, b)
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn matches_separate_factor_and_solve_bitwise() {
        let dev = DeviceSpec::h100_pcie();
        for (n, kl, ku) in [(8, 2, 3), (32, 2, 3), (64, 10, 7), (16, 1, 0), (16, 0, 2)] {
            let batch = 4;
            let (mut a, mut b) = random_batch(batch, n, kl, ku);
            let expected: Vec<(Vec<f64>, Vec<i32>, Vec<f64>, i32)> = (0..batch)
                .map(|id| {
                    let mut ab = a.matrix(id).data.to_vec();
                    let mut p = vec![0i32; n];
                    let mut x = b.block(id).to_vec();
                    let info = gbsv(&a.layout(), &mut ab, &mut p, &mut x, n, 1);
                    (ab, p, x, info)
                })
                .collect();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let _ = gbsv_batch_fused(
                &dev,
                &mut a,
                &mut piv,
                &mut b,
                &mut info,
                32,
                ParallelPolicy::Serial,
            )
            .unwrap();
            for id in 0..batch {
                assert_eq!(
                    a.matrix(id).data,
                    &expected[id].0[..],
                    "factors n={n} kl={kl} ku={ku}"
                );
                assert_eq!(piv.pivots(id), &expected[id].1[..]);
                assert_eq!(
                    b.block(id),
                    &expected[id].2[..],
                    "solution n={n} kl={kl} ku={ku}"
                );
                assert_eq!(info.get(id), expected[id].3);
            }
        }
    }

    #[test]
    fn multiple_rhs_supported() {
        let dev = DeviceSpec::h100_pcie();
        let (n, kl, ku, nrhs, batch) = (24, 2, 3, 5, 3);
        let (mut a, _) = random_batch(batch, n, kl, ku);
        let mut b = RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
            ((id * 3 + c * 11 + i) as f64 * 0.21).cos()
        })
        .unwrap();
        let expected: Vec<Vec<f64>> = (0..batch)
            .map(|id| {
                let mut ab = a.matrix(id).data.to_vec();
                let mut p = vec![0i32; n];
                let mut x = b.block(id).to_vec();
                assert_eq!(gbsv(&a.layout(), &mut ab, &mut p, &mut x, n, nrhs), 0);
                x
            })
            .collect();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let _ = gbsv_batch_fused(
            &dev,
            &mut a,
            &mut piv,
            &mut b,
            &mut info,
            32,
            ParallelPolicy::Serial,
        )
        .unwrap();
        assert!(info.all_ok());
        for id in 0..batch {
            assert_eq!(b.block(id), &expected[id][..]);
        }
    }

    #[test]
    fn singular_system_skips_backward_solve() {
        let dev = DeviceSpec::h100_pcie();
        let n = 8;
        let (mut a, mut b) = random_batch(2, n, 1, 1);
        {
            let mut m = a.matrix_mut(0);
            m.set(0, 0, 0.0);
            m.set(1, 0, 0.0);
        }
        let mut piv = PivotBatch::new(2, n, n);
        let mut info = InfoArray::new(2);
        let _ = gbsv_batch_fused(
            &dev,
            &mut a,
            &mut piv,
            &mut b,
            &mut info,
            32,
            ParallelPolicy::Serial,
        )
        .unwrap();
        assert_eq!(info.get(0), 1);
        assert_eq!(info.get(1), 0);
    }

    #[test]
    fn smem_footprint_includes_rhs() {
        let l = BandLayout::factor(64, 64, 2, 3).unwrap();
        assert_eq!(gbsv_smem_bytes::<f64>(&l, 1), l.ldab * 64 * 8 + 64 * 8);
        assert_eq!(
            gbsv_smem_bytes::<f64>(&l, 10),
            l.ldab * 64 * 8 + 64 * 10 * 8
        );
        assert_eq!(
            gbsv_smem_bytes::<f32>(&l, 1),
            gbsv_smem_bytes::<f64>(&l, 1) / 2,
            "f32 halves the augmented footprint"
        );
    }
}
