//! Sliding-window band LU factorization (paper §5.3, Figure 4).
//!
//! Instead of caching the whole matrix, each block caches only the columns
//! the current iteration can touch: a *factor window* of `nb` columns plus
//! the widest possible *update window*, `kv + 1` more columns (`kv = kl +
//! ku`, the worst case when the pivot sits at offset `kl`). The shared
//! footprint is therefore `(nb + kv + 1) * ldab * size_of::<S>()` bytes
//! (half as large for `f32` as for `f64`) — **constant in
//! the matrix size** — which removes the fused kernel's occupancy staircase
//! and its launch failures.
//!
//! After factoring `nb` columns the kernel writes them back, shifts the
//! remaining resident columns left in shared memory, and loads the next
//! `nb` columns — all inside one kernel, avoiding both per-iteration launch
//! overhead and redundant global traffic (the paper found in-kernel
//! shifting faster than one launch per window step; the multi-launch
//! variant is kept as [`gbtrf_batch_window_relaunch`] for the ablation
//! benchmark).

use crate::step::{smem_bytes_for_cols, smem_column_step, smem_fillin_prologue, SmemBand};
use gbatch_core::batch::{BandBatch, InfoArray, PivotBatch};
use gbatch_core::gbtf2::ColumnStepState;
use gbatch_core::layout::BandLayout;
use gbatch_core::scalar::Scalar;
use gbatch_gpu_sim::{
    launch, BlockContext, DeviceSpec, LaunchConfig, LaunchError, LaunchReport, ParallelPolicy,
};

/// Tunable parameters of the sliding-window kernel: the paper's two tuning
/// knobs (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowParams {
    /// Columns factored per window iteration (`nb`).
    pub nb: usize,
    /// Threads per block (per matrix); minimum `kl + 1`.
    pub threads: u32,
    /// Host scheduling of the per-matrix blocks (results are
    /// bitwise-identical for every policy).
    pub parallel: ParallelPolicy,
}

impl Default for WindowParams {
    fn default() -> Self {
        WindowParams {
            nb: 8,
            threads: 32,
            parallel: ParallelPolicy::Serial,
        }
    }
}

impl WindowParams {
    /// Reasonable untuned defaults: `nb = 8`, one warp (or enough warps to
    /// cover `kl + 1` threads).
    pub fn auto(dev: &DeviceSpec, kl: usize) -> Self {
        let min = (kl + 1) as u32;
        let warp = dev.warp_size;
        WindowParams {
            nb: 8,
            threads: min.div_ceil(warp) * warp,
            ..Default::default()
        }
    }

    /// Builder: set the host scheduling policy.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }
}

/// Number of columns the sliding window holds: `nb + kv + 1`.
pub fn window_cols(kl: usize, ku: usize, nb: usize) -> usize {
    nb + kl + ku + 1
}

/// Shared-memory bytes of the sliding window — constant in `n`
/// (`(nb + kv + 1) x ldab` elements of `S`).
pub fn window_smem_bytes<S: Scalar>(l: &BandLayout, nb: usize) -> usize {
    smem_bytes_for_cols::<S>(l.ldab, window_cols(l.kl, l.ku, nb).min(l.n))
}

struct Problem<'a, S> {
    ab: &'a mut [S],
    piv: &'a mut [i32],
    info: &'a mut i32,
}

fn make_problems<'a, S: Scalar>(
    a: &'a mut BandBatch<S>,
    piv: &'a mut PivotBatch,
    info: &'a mut InfoArray,
) -> Vec<Problem<'a, S>> {
    a.chunks_mut()
        .zip(piv.chunks_mut())
        .zip(info.as_mut_slice().iter_mut())
        .map(|((ab, piv), info)| Problem { ab, piv, info })
        .collect()
}

/// Load global band columns `[c0, c1)` into window-local positions starting
/// at local offset `dst_local` of `buf`.
fn load_cols<S: Scalar>(
    l: &BandLayout,
    ab: &[S],
    buf: &mut [S],
    dst_local: usize,
    c0: usize,
    c1: usize,
    ctx: &mut BlockContext,
) {
    let ldab = l.ldab;
    for (k, c) in (c0..c1).enumerate() {
        let dst = (dst_local + k) * ldab;
        buf[dst..dst + ldab].copy_from_slice(&ab[c * ldab..(c + 1) * ldab]);
    }
    let elems = (c1 - c0) * ldab;
    if let Some(t) = ctx.smem.tracker() {
        t.striped_write(dst_local * ldab, elems, ctx.threads);
    }
    ctx.gld(elems * S::BYTES);
}

/// Store window-local columns back to global band columns `[c0, c1)`.
fn store_cols<S: Scalar>(
    l: &BandLayout,
    ab: &mut [S],
    buf: &[S],
    src_local: usize,
    c0: usize,
    c1: usize,
    ctx: &mut BlockContext,
) {
    let ldab = l.ldab;
    for (k, c) in (c0..c1).enumerate() {
        let src = (src_local + k) * ldab;
        ab[c * ldab..(c + 1) * ldab].copy_from_slice(&buf[src..src + ldab]);
    }
    let elems = (c1 - c0) * ldab;
    if let Some(t) = ctx.smem.tracker() {
        t.striped_read(src_local * ldab, elems, ctx.threads);
    }
    ctx.gst(elems * S::BYTES);
}

/// The per-matrix sliding-window factorization body (shared by the
/// single-kernel and multi-launch variants via the `relaunch` flag handled
/// by the callers).
fn window_body<S: Scalar>(
    l: &BandLayout,
    nb: usize,
    p: &mut Problem<'_, S>,
    ctx: &mut BlockContext,
) {
    let ldab = l.ldab;
    let _kv = l.kv();
    let n = l.n;
    let kmin = l.m.min(l.n);
    let wcols = window_cols(l.kl, l.ku, nb).min(n);
    let wlen = wcols * ldab;

    let _off = ctx.smem.alloc_scalar(wlen, S::BYTES);
    // Every window column is loaded before it is read.
    let mut scratch = ctx.take_scratch();
    let buf = scratch.stale::<S>(wlen);

    // Initial fill of the window.
    let mut loaded_end = wcols.min(n);
    load_cols(l, p.ab, buf, 0, 0, loaded_end, ctx);
    ctx.sync();
    {
        let mut w = SmemBand {
            data: &mut *buf,
            ldab,
            col0: 0,
            width: loaded_end,
            provenance: Some(*l),
        };
        smem_fillin_prologue(l, &mut w, ctx);
    }

    let mut st = ColumnStepState::default();
    let mut j0 = 0usize;
    while j0 < kmin {
        let jb = nb.min(kmin - j0);
        {
            let mut w = SmemBand {
                data: &mut *buf,
                ldab,
                col0: j0,
                width: loaded_end - j0,
                provenance: Some(*l),
            };
            for j in j0..j0 + jb {
                smem_column_step(l, &mut w, p.piv, j, &mut st, ctx);
            }
        }
        // Write the factored columns back.
        store_cols(l, p.ab, buf, 0, j0, j0 + jb, ctx);
        ctx.sync();

        let next_j0 = j0 + jb;
        if next_j0 >= kmin {
            // Flush trailing resident columns that received updates or
            // fill-in zeroing but will not themselves be factored (the
            // wide-matrix case, n > m).
            if loaded_end > next_j0 {
                store_cols(l, p.ab, buf, jb, next_j0, loaded_end, ctx);
            }
            break;
        }

        // Shift the remaining resident columns left by jb (in-kernel shift,
        // §5.3: cheaper than relaunching and reloading the overlap).
        let resident = loaded_end - j0;
        let keep = resident - jb;
        if let Some(t) = ctx.smem.tracker() {
            t.striped_read(jb * ldab, keep * ldab, ctx.threads);
        }
        if keep > jb {
            // Source and destination ranges overlap: each lane reads its
            // elements into registers, a barrier drains the reads, then
            // the lanes write — a single-epoch in-place shift would race.
            ctx.sync();
        }
        buf.copy_within(jb * ldab..resident * ldab, 0);
        if let Some(t) = ctx.smem.tracker() {
            t.striped_write(0, keep * ldab, ctx.threads);
        }
        ctx.smem_work(keep * ldab, 0); // in-shared shift: LDS traffic
        ctx.sync();

        // Load the next columns into the tail of the window.
        let new_end = (next_j0 + wcols).min(n);
        if new_end > loaded_end {
            load_cols(l, p.ab, buf, loaded_end - next_j0, loaded_end, new_end, ctx);
            loaded_end = new_end;
        }
        ctx.sync();
        j0 = next_j0;
    }
    ctx.put_scratch(scratch);
    *p.info = st.info;
    ctx.gst(kmin * std::mem::size_of::<i32>()); // pivot vector write-back
}

/// Batched sliding-window band LU factorization (single kernel, in-kernel
/// window shifting — the paper's preferred variant).
pub fn gbtrf_batch_window<S: Scalar>(
    dev: &DeviceSpec,
    a: &mut BandBatch<S>,
    piv: &mut PivotBatch,
    info: &mut InfoArray,
    params: WindowParams,
) -> Result<LaunchReport, LaunchError> {
    let l = a.layout();
    assert!(params.nb > 0, "nb must be positive");
    assert_eq!(piv.batch(), a.batch());
    assert_eq!(info.len(), a.batch());
    let smem = window_smem_bytes::<S>(&l, params.nb);
    let cfg = LaunchConfig::new(params.threads.max((l.kl + 1) as u32), smem as u32)
        .with_parallel(params.parallel)
        .with_label("gbtrf_window")
        .with_precision(crate::flop_class::<S>());
    let mut problems = make_problems(a, piv, info);
    launch(dev, &cfg, &mut problems, |p, ctx| {
        window_body(&l, params.nb, p, ctx)
    })
}

/// Ablation variant: one kernel launch per window iteration, reloading the
/// whole window from global memory each time (no in-kernel shift). The
/// paper reports this is slower due to launch overhead and redundant
/// traffic; kept for the `ablation_window_shift` benchmark.
pub fn gbtrf_batch_window_relaunch<S: Scalar>(
    dev: &DeviceSpec,
    a: &mut BandBatch<S>,
    piv: &mut PivotBatch,
    info: &mut InfoArray,
    params: WindowParams,
) -> Result<Vec<LaunchReport>, LaunchError> {
    let l = a.layout();
    assert!(params.nb > 0);
    let batch = a.batch();
    let smem = window_smem_bytes::<S>(&l, params.nb);
    let cfg = LaunchConfig::new(params.threads.max((l.kl + 1) as u32), smem as u32)
        .with_parallel(params.parallel)
        .with_label("gbtrf_window_relaunch")
        .with_precision(crate::flop_class::<S>());
    let kmin = l.m.min(l.n);
    let n_iters = kmin.div_ceil(params.nb);
    let mut reports = Vec::with_capacity(n_iters);

    // Persistent per-matrix factorization state across launches.
    let mut states = vec![ColumnStepState::default(); batch];

    let mut j0 = 0usize;
    while j0 < kmin {
        let jb = params.nb.min(kmin - j0);
        struct Iter<'a, S> {
            ab: &'a mut [S],
            piv: &'a mut [i32],
            st: &'a mut ColumnStepState,
        }
        let mut problems: Vec<Iter<'_, S>> = a
            .chunks_mut()
            .zip(piv.chunks_mut())
            .zip(states.iter_mut())
            .map(|((ab, piv), st)| Iter { ab, piv, st })
            .collect();
        let rep = launch(dev, &cfg, &mut problems, |p, ctx| {
            let ldab = l.ldab;
            let kv = l.kv();
            let wcols = window_cols(l.kl, l.ku, params.nb).min(l.n - j0);
            let wlen = wcols * ldab;
            let _off = ctx.smem.alloc_scalar(wlen, S::BYTES);
            let mut scratch = ctx.take_scratch();
            let buf = scratch.stale::<S>(wlen);
            let loaded_end = (j0 + wcols).min(l.n);
            load_cols(&l, p.ab, buf, 0, j0, loaded_end, ctx);
            ctx.sync();
            {
                let mut w = SmemBand {
                    data: &mut *buf,
                    ldab,
                    col0: j0,
                    width: loaded_end - j0,
                    provenance: Some(l),
                };
                if j0 == 0 {
                    smem_fillin_prologue(&l, &mut w, ctx);
                }
                for j in j0..j0 + jb {
                    smem_column_step(&l, &mut w, p.piv, j, p.st, ctx);
                }
            }
            // Without a persistent window, everything loaded must go back
            // (updates and fill-in zeroing may have touched any resident
            // column) — the redundant traffic the in-kernel shift avoids.
            store_cols(&l, p.ab, buf, 0, j0, loaded_end, ctx);
            ctx.put_scratch(scratch);
            ctx.sync();
            let _ = kv;
        })?;
        reports.push(rep);
        j0 += jb;
    }
    for (id, st) in states.iter().enumerate() {
        info.set(id, st.info);
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::gbtf2::gbtf2;
    use gbatch_core::gbtrs::{gbtrs, Transpose};

    fn random_batch(batch: usize, n: usize, kl: usize, ku: usize) -> BandBatch {
        let mut v = 0.61f64;
        BandBatch::from_fn(batch, n, n, kl, ku, |id, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    v = (v * 2.3 + 0.029 + id as f64 * 3e-4).fract();
                    m.set(i, j, v - 0.5);
                }
            }
        })
        .unwrap()
    }

    fn check_bitwise(n: usize, kl: usize, ku: usize, nb: usize) {
        let dev = DeviceSpec::h100_pcie();
        let batch = 4;
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
        let params = WindowParams {
            nb,
            threads: 32,
            ..Default::default()
        };
        let _ = gbtrf_batch_window(&dev, &mut a, &mut piv, &mut info, params).unwrap();
        for id in 0..batch {
            assert_eq!(
                piv.pivots(id),
                &expected[id].1[..],
                "pivots n={n} kl={kl} ku={ku} nb={nb}"
            );
            assert_eq!(info.get(id), expected[id].2, "info");
            assert_eq!(
                a.matrix(id).data,
                &expected[id].0[..],
                "factors n={n} kl={kl} ku={ku} nb={nb}"
            );
        }
    }

    #[test]
    fn matches_sequential_reference_bitwise() {
        for nb in [1, 2, 3, 8, 16] {
            check_bitwise(32, 2, 3, nb);
        }
        check_bitwise(48, 10, 7, 8);
        check_bitwise(17, 1, 1, 4);
        check_bitwise(9, 2, 3, 4);
        check_bitwise(40, 0, 3, 8); // no subdiagonals
        check_bitwise(40, 3, 0, 8); // no superdiagonals
        check_bitwise(33, 2, 3, 32); // nb close to n
        check_bitwise(8, 2, 3, 16); // nb > n
    }

    #[test]
    fn constant_shared_memory_in_matrix_size() {
        let l512 = BandLayout::factor(512, 512, 2, 3).unwrap();
        let l1024 = BandLayout::factor(1024, 1024, 2, 3).unwrap();
        assert_eq!(
            window_smem_bytes::<f64>(&l512, 8),
            window_smem_bytes::<f64>(&l1024, 8)
        );
        // And it is dramatically smaller than the fused footprint.
        let fused = crate::fused::fused_smem_bytes::<f64>(l1024.ldab, 1024);
        assert!(window_smem_bytes::<f64>(&l1024, 8) * 10 < fused);
    }

    #[test]
    fn factors_are_usable_for_solves() {
        let dev = DeviceSpec::mi250x_gcd();
        let n = 200;
        let (kl, ku) = (10usize, 7usize);
        let batch = 3;
        let mut a = random_batch(batch, n, kl, ku);
        let orig = a.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let _ = gbtrf_batch_window(
            &dev,
            &mut a,
            &mut piv,
            &mut info,
            WindowParams::auto(&dev, kl),
        )
        .unwrap();
        assert!(info.all_ok());
        for id in 0..batch {
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin()).collect();
            let mut b = vec![0.0; n];
            gbatch_core::blas2::gbmv(1.0, orig.matrix(id), &x_true, 0.0, &mut b);
            gbtrs(
                Transpose::No,
                &a.layout(),
                a.matrix(id).data,
                piv.pivots(id),
                &mut b,
                n,
                1,
            );
            for i in 0..n {
                assert!((b[i] - x_true[i]).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn relaunch_variant_matches_and_costs_more_launches() {
        let dev = DeviceSpec::h100_pcie();
        let n = 64;
        let (kl, ku, nb) = (2usize, 3usize, 8usize);
        let batch = 4;
        let mut a1 = random_batch(batch, n, kl, ku);
        let mut a2 = a1.clone();
        let mut p1 = PivotBatch::new(batch, n, n);
        let mut p2 = PivotBatch::new(batch, n, n);
        let mut i1 = InfoArray::new(batch);
        let mut i2 = InfoArray::new(batch);
        let params = WindowParams {
            nb,
            threads: 32,
            ..Default::default()
        };
        let single = gbtrf_batch_window(&dev, &mut a1, &mut p1, &mut i1, params).unwrap();
        let multi = gbtrf_batch_window_relaunch(&dev, &mut a2, &mut p2, &mut i2, params).unwrap();
        // Numerics identical.
        assert_eq!(a1.data(), a2.data());
        assert_eq!(p1, p2);
        // One launch vs ceil(n / nb) launches; total modeled time larger.
        assert_eq!(multi.len(), n.div_ceil(nb));
        let multi_time: f64 = multi.iter().map(|r| r.time.secs()).sum();
        assert!(
            multi_time > single.time.secs(),
            "relaunch {multi_time} should exceed single {s}",
            s = single.time.secs()
        );
    }

    #[test]
    fn window_occupancy_beats_fused_for_large_matrices() {
        // On the MI250x the fused kernel at n = 448 (kl, ku) = (2, 3) drops
        // to 1 block/CU; the window kernel keeps much higher residency.
        let dev = DeviceSpec::mi250x_gcd();
        let n = 448;
        let batch = 100;
        let mut a = random_batch(batch, n, 2, 3);
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let rep = gbtrf_batch_window(
            &dev,
            &mut a,
            &mut piv,
            &mut info,
            WindowParams {
                nb: 8,
                threads: 64,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            rep.occupancy.blocks_per_sm >= 8,
            "got {}",
            rep.occupancy.blocks_per_sm
        );
    }
}
