//! Interleaved (batch-major) band LU kernels: `GBTRF`/`GBTRS` priced as
//! if the batch sat in device memory with band element `(r, j)` of every
//! matrix contiguous, run on the caller's column-major [`BandBatch`].
//!
//! The column-major designs (§5.1–§5.3) parallelize across matrices only at
//! block granularity; inside one matrix the column-step primitives stride
//! within a small `ldab x n` panel. With the batch transposed to
//! interleaved order, every primitive — IAMAX, SWAP, SCAL, the rank-1
//! update, the triangular-solve updates — becomes a sweep over a
//! contiguous lane of `batch` values: the coalesced access pattern of
//! "Efficient Interleaved Batch Matrix Solvers" (Gloster et al.,
//! arXiv:1909.04539). One simulated block owns a contiguous chunk of
//! lanes, so the whole batch needs only `ceil(batch / lanes_per_block)`
//! blocks, no shared memory traffic between lanes, and **no barriers**:
//! lanes never communicate.
//!
//! Memory model — two traffic modes, chosen per launch from the device's
//! shared-memory capacity ([`LaneTrafficMode`]):
//!
//! - **Windowed**: the factorization's active window spans at most
//!   `kv + 2` columns (fill-in injection at `j + kv`, swap/update reach
//!   `j + kv`), so the block keeps that window of its lanes resident in
//!   shared memory — lane-private, hence still barrier-free — and each
//!   band element streams through DRAM exactly once in and once out, like
//!   the fused kernel. The solve keeps its chunk's whole RHS panel
//!   resident, so it reads each L and U column once and applies it to
//!   every RHS column. The window footprint
//!   ([`factor_smem_bytes`]/[`solve_smem_bytes`]) is the launch's
//!   shared-memory request: it prices occupancy honestly and makes wide
//!   bands clamp `lanes_per_block` down.
//! - **Streaming**: when even one lane's window exceeds the block limit
//!   (very wide bands), the kernel runs with *zero* shared memory and
//!   every primitive touches DRAM directly — roughly 3× the once-through
//!   traffic, and the solve re-reads each U column per RHS column, but
//!   still one launch with no barriers. This is precisely the
//!   regime where the column-major designs have already fallen off their
//!   own shared-memory cliff onto the per-column `reference` path (one
//!   launch overhead *per column*), which the streaming mode undercuts —
//!   the wide-band corner of the layout crossover.
//!
//! Layout passes only around streaming: a windowed launch moves each
//! lane's data in contiguous runs — the factor streams the lane's band
//! slab in and out, the solve reads the lane's column runs and gathers its
//! RHS from column-major storage — so it works on the caller's
//! column-major batch directly. Only a streaming launch, which touches
//! DRAM element by element, needs the batch in interleaved order: then a
//! dispatch plan adds a pack pass ([`interleave_launch`]) before, and an
//! unpack pass ([`deinterleave_launch`]) after a factorization.
//! [`needs_layout_passes`] is that rule, shared by the plan, its price and
//! its execution.
//!
//! Cost recording: a SIMT machine runs the lanes in lockstep and pays
//! every masked sweep at the worst lane's reach, so the modeled cost is
//! *structural* (data-independent). Each block records it in one
//! [`BlockContext::record`](gbatch_gpu_sim::BlockContext::record) call
//! from [`crate::cost::predict_interleaved_factor`] /
//! [`crate::cost::predict_interleaved_solve`] /
//! [`crate::cost::predict_interleave_pass`] — the same predictors the
//! dispatch plan prices the layout with, so plan and launch cannot drift
//! apart.
//!
//! Host execution: the interleaved layout is a device layout that only
//! the model sees; host storage stays column-major. The kernels are
//! lane-private (no lane ever reads another lane's data), so the lockstep
//! order of the device is not observable in the results, and a lane chunk
//! of a column-major batch is already the lane-major strip the block
//! works on. Each block therefore borrows its chunk of the caller's batch
//! and runs [`gbatch_core::gbtf2`] / [`gbatch_core::gbtrs::gbtrs`] on each
//! lane to completion, in place. Factors, pivots, info codes and
//! solutions are **bitwise identical** to the sequential reference on
//! every lane, singular or not, by construction. The pack and unpack
//! passes are priced launches over the same chunk grid that move no host
//! data.

use gbatch_core::batch::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch_core::gbtf2::gbtf2;
use gbatch_core::gbtrs::{gbtrs, Transpose};
use gbatch_core::layout::BandLayout;
use gbatch_core::scalar::Scalar;
use gbatch_gpu_sim::{launch, DeviceSpec, LaunchConfig, LaunchError, LaunchReport, ParallelPolicy};

use crate::cost::{predict_interleave_pass, predict_interleaved_factor, predict_interleaved_solve};

/// Tunable parameters of the interleaved kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterleavedParams {
    /// Batch lanes per simulated block (= per executor work item). The
    /// grid has `ceil(batch / lanes_per_block)` blocks; within a block the
    /// lane sweeps stripe over the threads.
    pub lanes_per_block: usize,
    /// Threads per block.
    pub threads: u32,
    /// Host scheduling of the lane-chunk blocks (results are
    /// bitwise-identical for every policy).
    pub parallel: ParallelPolicy,
}

impl Default for InterleavedParams {
    fn default() -> Self {
        InterleavedParams {
            lanes_per_block: 256,
            threads: 256,
            parallel: ParallelPolicy::Serial,
        }
    }
}

/// Shared-memory footprint of the factor kernel's resident lane window:
/// `kv + 2` columns (capped at `n`) of `ldab` band rows for `lanes` lanes
/// of `S` elements.
pub fn factor_smem_bytes<S: Scalar>(l: &BandLayout, lanes: usize) -> usize {
    (l.kv() + 2).min(l.n) * l.ldab * lanes * S::BYTES
}

/// Shared-memory footprint of the solve kernel's resident RHS scratch:
/// the chunk's full `n x nrhs` solution panel of `S` elements.
pub fn solve_smem_bytes<S: Scalar>(l: &BandLayout, nrhs: usize, lanes: usize) -> usize {
    l.n * nrhs * lanes * S::BYTES
}

/// DRAM traffic mode of an interleaved kernel launch (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneTrafficMode {
    /// Lane window resident in shared memory; each band element streams
    /// through DRAM once in, once out.
    Windowed,
    /// Window exceeds the block's shared-memory limit: zero shared memory,
    /// every primitive reads/writes DRAM directly.
    Streaming,
}

/// Mode [`gbtrf_batch_interleaved`] will run in on `dev` with `lanes`
/// lanes per block.
pub fn factor_mode<S: Scalar>(dev: &DeviceSpec, l: &BandLayout, lanes: usize) -> LaneTrafficMode {
    if factor_smem_bytes::<S>(l, lanes) <= dev.max_smem_per_block as usize {
        LaneTrafficMode::Windowed
    } else {
        LaneTrafficMode::Streaming
    }
}

/// Mode [`gbtrs_batch_interleaved`] will run in on `dev` with `lanes`
/// lanes per block.
pub fn solve_mode<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    nrhs: usize,
    lanes: usize,
) -> LaneTrafficMode {
    if solve_smem_bytes::<S>(l, nrhs, lanes) <= dev.max_smem_per_block as usize {
        LaneTrafficMode::Windowed
    } else {
        LaneTrafficMode::Streaming
    }
}

/// Whether an interleaved plan over `batch` lanes needs the pack and
/// unpack passes ([`interleave_launch`] / [`deinterleave_launch`]): true
/// when one of its launches streams — the factor launch if the call
/// factors, the solve launch if `nrhs > 0`. A windowed launch moves its
/// lanes' band and RHS in contiguous per-lane runs, so it works on the
/// caller's column-major batch directly.
pub fn needs_layout_passes<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    batch: usize,
    nrhs: usize,
    factor: bool,
    params: &InterleavedParams,
) -> bool {
    let lpb = params.lanes_clamped(batch);
    (factor && factor_mode::<S>(dev, l, lpb) == LaneTrafficMode::Streaming)
        || (nrhs > 0 && solve_mode::<S>(dev, l, nrhs, lpb) == LaneTrafficMode::Streaming)
}

impl InterleavedParams {
    /// Lane-chunk geometry fitted to the device: as many lanes per block
    /// as the resident window allows (factor window, and the solve scratch
    /// when `nrhs > 0`), capped at one lane per thread. Wide bands shrink
    /// the chunk; when even one lane's window exceeds the block's
    /// shared-memory limit the kernels run in [`LaneTrafficMode::Streaming`]
    /// and the chunk goes back to one lane per thread (no window to fit).
    pub fn auto(dev: &DeviceSpec, l: &BandLayout, nrhs: usize) -> Self {
        Self::auto_for::<f64>(dev, l, nrhs)
    }

    /// Precision-aware variant of [`Self::auto`]: the resident windows
    /// shrink with `S::BYTES`, so f32 fits twice the lanes per block.
    pub fn auto_for<S: Scalar>(dev: &DeviceSpec, l: &BandLayout, nrhs: usize) -> Self {
        let threads = 256u32.min(dev.max_threads_per_block).max(dev.warp_size);
        let cap = dev.max_smem_per_block as usize;
        // Only windows that *can* fit one lane constrain the chunk: a
        // kernel whose single-lane window already exceeds the block limit
        // runs in streaming mode whatever the lane count, so its footprint
        // must not drag the sibling kernel out of windowed mode.
        let per_lane = [
            factor_smem_bytes::<S>(l, 1),
            solve_smem_bytes::<S>(l, nrhs, 1),
        ]
        .into_iter()
        .filter(|&b| b > 0 && b <= cap)
        .max();
        let lanes = match per_lane {
            Some(b) => (cap / b).clamp(1, threads as usize),
            None => threads as usize,
        };
        InterleavedParams {
            lanes_per_block: lanes,
            threads,
            parallel: ParallelPolicy::Serial,
        }
    }

    /// Builder: set the host scheduling policy.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    pub(crate) fn lanes_clamped(&self, batch: usize) -> usize {
        self.lanes_per_block.max(1).min(batch)
    }
}

/// Contiguous `(lo, lanes)` chunks covering `batch` lanes.
fn lane_chunks(batch: usize, lanes_per_block: usize) -> Vec<(usize, usize)> {
    (0..batch)
        .step_by(lanes_per_block)
        .map(|lo| (lo, lanes_per_block.min(batch - lo)))
        .collect()
}

/// Batched band LU factorization, priced in the interleaved layout.
///
/// Factors every matrix of `a` in place (LAPACK factor storage), filling
/// `piv` and `info` exactly like [`gbatch_core::gbtf2::gbtf2`] would per
/// matrix — bitwise-identical pivots, factors and info codes, under every
/// [`ParallelPolicy`].
pub fn gbtrf_batch_interleaved<S: Scalar>(
    dev: &DeviceSpec,
    a: &mut BandBatch<S>,
    piv: &mut PivotBatch,
    info: &mut InfoArray,
    params: InterleavedParams,
) -> Result<LaunchReport, LaunchError> {
    let l = a.layout();
    let batch = a.batch();
    assert_eq!(piv.batch(), batch, "pivot batch mismatch");
    assert_eq!(info.len(), batch, "info batch mismatch");
    assert_eq!(
        l.row_offset,
        l.kv(),
        "interleaved gbtrf requires factor storage"
    );
    let per = l.m.min(l.n);
    assert_eq!(piv.per_matrix(), per, "pivot length mismatch");
    let lpb = params.lanes_clamped(batch);
    let windowed = factor_mode::<S>(dev, &l, lpb) == LaneTrafficMode::Windowed;
    let smem = if windowed {
        u32::try_from(factor_smem_bytes::<S>(&l, lpb)).unwrap_or(u32::MAX)
    } else {
        0
    };
    let cfg = LaunchConfig::new(params.threads, smem)
        .with_parallel(params.parallel)
        .with_label("gbtrf_interleaved")
        .with_precision(crate::flop_class::<S>());

    struct Chunk<'a, S> {
        ab: &'a mut [S],
        piv: &'a mut [i32],
        info: &'a mut [i32],
    }

    let elems = l.len();
    let mut chunks: Vec<Chunk<'_, S>> = a
        .data_mut()
        .chunks_mut(elems * lpb)
        .zip(piv.as_mut_slice().chunks_mut(per * lpb))
        .zip(info.as_mut_slice().chunks_mut(lpb))
        .map(|((ab, piv), info)| Chunk { ab, piv, info })
        .collect();

    launch(dev, &cfg, &mut chunks, |p, ctx| {
        ctx.record(&predict_interleaved_factor::<S>(
            &l,
            p.info.len(),
            ctx.threads,
            windowed,
        ));
        for ((ab, piv), info) in
            p.ab.chunks_exact_mut(elems)
                .zip(p.piv.chunks_exact_mut(per))
                .zip(p.info.iter_mut())
        {
            *info = gbtf2(&l, ab, piv);
        }
    })
}

/// Batched band triangular solve (`A x = b`, no transpose), priced in the
/// interleaved layout, over the factored band `factors` (`batch`
/// contiguous matrices of layout `l`, the storage
/// [`crate::gbtrs_blocked::gbtrs_batch_blocked`] takes).
///
/// Lanes whose `info` code is non-zero (singular factorization) are masked
/// out entirely: their RHS blocks are left untouched, siblings are solved
/// normally — no divide-by-zero, no caller-side RHS restore needed. On
/// every healthy lane the solution is bitwise-identical to
/// [`gbatch_core::gbtrs::gbtrs`].
pub fn gbtrs_batch_interleaved<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    factors: &[S],
    piv: &PivotBatch,
    rhs: &mut RhsBatch<S>,
    info: &InfoArray,
    params: InterleavedParams,
) -> Result<LaunchReport, LaunchError> {
    let batch = rhs.batch();
    assert_eq!(l.m, l.n, "interleaved gbtrs requires square factorizations");
    assert_eq!(factors.len(), l.len() * batch, "factor batch mismatch");
    assert_eq!(piv.batch(), batch, "pivot batch mismatch");
    assert_eq!(info.len(), batch, "info batch mismatch");
    assert_eq!(rhs.n(), l.n, "rhs order mismatch");
    let n = l.n;
    let (ldb, nrhs, bs) = (rhs.ldb(), rhs.nrhs(), rhs.block_stride());
    let lpb = params.lanes_clamped(batch);
    let windowed = solve_mode::<S>(dev, l, nrhs, lpb) == LaneTrafficMode::Windowed;
    let smem = if windowed {
        u32::try_from(solve_smem_bytes::<S>(l, nrhs, lpb)).unwrap_or(u32::MAX)
    } else {
        0
    };
    let cfg = LaunchConfig::new(params.threads, smem)
        .with_parallel(params.parallel)
        .with_label("gbtrs_interleaved")
        .with_precision(crate::flop_class::<S>());

    struct Chunk<'a, S> {
        ab: &'a [S],
        piv: &'a [i32],
        info: &'a [i32],
        rhs: &'a mut [S],
    }

    let elems = l.len();
    let mut chunks: Vec<Chunk<'_, S>> = factors
        .chunks(elems * lpb)
        .zip(rhs.data_mut().chunks_mut(bs * lpb))
        .zip(piv.as_slice().chunks(n * lpb))
        .zip(info.as_slice().chunks(lpb))
        .map(|(((ab, rhs), piv), info)| Chunk { ab, piv, info, rhs })
        .collect();

    launch(dev, &cfg, &mut chunks, |p, ctx| {
        ctx.record(&predict_interleaved_solve::<S>(
            l,
            nrhs,
            p.info.len(),
            ctx.threads,
            windowed,
        ));
        let lanes =
            p.ab.chunks_exact(elems)
                .zip(p.piv.chunks_exact(n))
                .zip(p.rhs.chunks_exact_mut(bs))
                .zip(p.info);
        for (((ab, piv), b), &info) in lanes {
            if info == 0 {
                gbtrs(Transpose::No, l, ab, piv, b, ldb, nrhs);
            }
        }
    })
}

/// The pack pass of a dispatch-level layout switch (column-major to
/// interleaved) over the band `factors` (contiguous matrices of layout
/// `l`) as a priced launch. Host storage stays column-major, so the launch
/// moves no data; it records the pass's modeled traffic per lane chunk.
pub fn interleave_launch<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    factors: &[S],
    params: InterleavedParams,
) -> Result<LaunchReport, LaunchError> {
    layout_pass(dev, l, factors, params, "interleave")
}

/// The unpack pass of a dispatch-level layout switch (interleaved back to
/// column-major) as a priced launch; like [`interleave_launch`] it moves
/// no host data.
pub fn deinterleave_launch<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    factors: &[S],
    params: InterleavedParams,
) -> Result<LaunchReport, LaunchError> {
    layout_pass(dev, l, factors, params, "deinterleave")
}

fn layout_pass<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    factors: &[S],
    params: InterleavedParams,
    label: &'static str,
) -> Result<LaunchReport, LaunchError> {
    let batch = factors.len() / l.len().max(1);
    let cfg = LaunchConfig::new(params.threads, 0)
        .with_parallel(params.parallel)
        .with_label(label)
        .with_precision(crate::flop_class::<S>());
    let mut chunks = lane_chunks(batch, params.lanes_clamped(batch));
    launch(dev, &cfg, &mut chunks, |&mut (_, lanes), ctx| {
        ctx.record(&predict_interleave_pass::<S>(l, lanes, ctx.threads));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const F64: usize = std::mem::size_of::<f64>();

    fn random_batch(batch: usize, m: usize, n: usize, kl: usize, ku: usize) -> BandBatch {
        let mut v = 0.29f64;
        BandBatch::from_fn(batch, m, n, kl, ku, |id, mat| {
            for j in 0..n {
                let (s, e) = mat.layout.col_rows(j);
                for i in s..e {
                    v = (v * 2.1 + 0.063 + id as f64 * 1e-4).fract();
                    mat.set(i, j, v - 0.5);
                }
            }
        })
        .unwrap()
    }

    fn gbtf2_oracle(a: &BandBatch) -> (Vec<Vec<f64>>, Vec<Vec<i32>>, Vec<i32>) {
        let l = a.layout();
        let per = l.m.min(l.n);
        let mut fs = Vec::new();
        let mut ps = Vec::new();
        let mut is = Vec::new();
        for id in 0..a.batch() {
            let mut ab = a.matrix(id).data.to_vec();
            let mut p = vec![0i32; per];
            is.push(gbtf2(&l, &mut ab, &mut p));
            fs.push(ab);
            ps.push(p);
        }
        (fs, ps, is)
    }

    fn factor_interleaved(
        a: &BandBatch,
        params: InterleavedParams,
    ) -> (BandBatch, PivotBatch, InfoArray, LaunchReport) {
        let dev = DeviceSpec::h100_pcie();
        let l = a.layout();
        let mut fa = a.clone();
        let mut piv = PivotBatch::new(a.batch(), l.m, l.n);
        let mut info = InfoArray::new(a.batch());
        let rep = gbtrf_batch_interleaved(&dev, &mut fa, &mut piv, &mut info, params).unwrap();
        (fa, piv, info, rep)
    }

    #[test]
    fn factor_matches_gbtf2_bitwise() {
        for (m, n, kl, ku) in [
            (9, 9, 2, 3),
            (32, 32, 2, 3),
            (24, 24, 10, 7),
            (16, 16, 0, 3),
            (16, 16, 3, 0),
            (12, 12, 1, 1),
            (9, 6, 1, 2),
            (6, 9, 2, 1),
        ] {
            let batch = 7;
            let a = random_batch(batch, m, n, kl, ku);
            let (fs, ps, is) = gbtf2_oracle(&a);
            let (back, piv, info, rep) = factor_interleaved(&a, InterleavedParams::default());
            assert_eq!(rep.grid, 1, "7 lanes fit one chunk");
            for id in 0..batch {
                assert_eq!(back.matrix(id).data, &fs[id][..], "factors m={m} n={n}");
                assert_eq!(piv.pivots(id), &ps[id][..], "pivots m={m} n={n}");
                assert_eq!(info.get(id), is[id], "info m={m} n={n}");
            }
        }
    }

    #[test]
    fn factor_handles_mixed_singular_batch() {
        let n = 12;
        let mut a = random_batch(6, n, n, 2, 1);
        // Lane 2: zero the whole first pivot-candidate column.
        {
            let mut m = a.matrix_mut(2);
            for i in 0..=2usize {
                m.set(i, 0, 0.0);
            }
        }
        // Lane 4: zero column 5's candidates to hit a mid-factorization
        // singularity.
        {
            let mut m = a.matrix_mut(4);
            for i in 5..=(5 + 2usize).min(n - 1) {
                m.set(i, 5, 0.0);
            }
        }
        let (fs, ps, is) = gbtf2_oracle(&a);
        assert!(is.iter().any(|&i| i != 0), "test setup produces failures");
        let (back, piv, info, _) = factor_interleaved(&a, InterleavedParams::default());
        for id in 0..6 {
            assert_eq!(info.get(id), is[id], "info lane {id}");
            assert_eq!(back.matrix(id).data, &fs[id][..], "factors lane {id}");
            assert_eq!(piv.pivots(id), &ps[id][..], "pivots lane {id}");
        }
    }

    #[test]
    fn chunking_and_parallel_policies_are_bitwise_identical() {
        let (batch, n, kl, ku) = (37usize, 16usize, 2usize, 3usize);
        let a = random_batch(batch, n, n, kl, ku);
        let baseline = factor_interleaved(
            &a,
            InterleavedParams {
                lanes_per_block: 8,
                ..Default::default()
            },
        );
        for (lpb, policy) in [
            (8, ParallelPolicy::threads(2)),
            (8, ParallelPolicy::threads(8)),
            (5, ParallelPolicy::Serial),
            (37, ParallelPolicy::threads(4)),
            (64, ParallelPolicy::Serial),
        ] {
            let params = InterleavedParams {
                lanes_per_block: lpb,
                parallel: policy,
                ..Default::default()
            };
            let (fa, piv, info, _) = factor_interleaved(&a, params);
            assert_eq!(fa, baseline.0, "factors lpb={lpb} policy={policy:?}");
            assert_eq!(piv, baseline.1, "pivots lpb={lpb}");
            assert_eq!(info, baseline.2, "info lpb={lpb}");
        }
        // Same chunk geometry => identical counters for any policy.
        let serial = factor_interleaved(
            &a,
            InterleavedParams {
                lanes_per_block: 8,
                ..Default::default()
            },
        );
        let threaded = factor_interleaved(
            &a,
            InterleavedParams {
                lanes_per_block: 8,
                parallel: ParallelPolicy::threads(8),
                ..Default::default()
            },
        );
        // `threads_spawned` is deliberately policy-variant provenance
        // (serial spawns none); everything else must match exactly.
        assert_eq!(serial.3.counters.threads_spawned, 0);
        assert_eq!(threaded.3.counters.threads_spawned, 5, "5 chunks of 8");
        let mut tc = threaded.3.counters;
        tc.threads_spawned = serial.3.counters.threads_spawned;
        assert_eq!(serial.3.counters, tc);
    }

    #[test]
    fn lane_modes_are_bitwise_identical() {
        use gbatch_core::lanes::{with_lane_mode, LaneMode};
        // Chunk sizes straddling LANE_WIDTH (remainder lanes included) and
        // a mid-batch singular lane: the per-lane `gbtf2`/`gbtrs` calls
        // must produce the same bits whichever loop shape the calling
        // thread's lane mode selects.
        let (batch, n, kl, ku, nrhs) = (37usize, 16usize, 2usize, 3usize, 2usize);
        let dev = DeviceSpec::h100_pcie();
        let mut a = random_batch(batch, n, n, kl, ku);
        {
            let mut m = a.matrix_mut(13);
            for i in 0..=kl {
                m.set(i, 0, 0.0);
            }
        }
        let rhs0 = RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
            ((id * 17 + c * 5 + i) as f64 * 0.73).sin()
        })
        .unwrap();
        for lpb in [5usize, 8, 37] {
            let params = InterleavedParams {
                lanes_per_block: lpb,
                ..Default::default()
            };
            let runs: Vec<_> = [LaneMode::Scalar, LaneMode::Chunked]
                .into_iter()
                .map(|mode| {
                    with_lane_mode(mode, || {
                        let (fa, piv, info, rep) = factor_interleaved(&a, params);
                        let mut rhs = rhs0.clone();
                        let srep = gbtrs_batch_interleaved(
                            &dev,
                            &fa.layout(),
                            fa.data(),
                            &piv,
                            &mut rhs,
                            &info,
                            params,
                        )
                        .unwrap();
                        (fa, piv, info, rhs, rep.counters, srep.counters)
                    })
                })
                .collect();
            assert_ne!(runs[0].2.get(13), 0, "lane 13 is singular");
            assert_eq!(runs[0], runs[1], "lpb={lpb}");
        }
    }

    #[test]
    fn solve_matches_gbtrs_bitwise() {
        for (n, kl, ku, nrhs) in [(12, 2, 3, 1), (20, 1, 1, 3), (16, 10, 7, 2), (9, 0, 2, 1)] {
            let dev = DeviceSpec::h100_pcie();
            let batch = 9;
            let a = random_batch(batch, n, n, kl, ku);
            let rhs0 = RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
                ((id * 31 + c * 7 + i) as f64 * 0.57).sin()
            })
            .unwrap();
            let (fs, ps, is) = gbtf2_oracle(&a);
            let (fa, piv, info, _) = factor_interleaved(&a, InterleavedParams::default());
            let mut rhs = rhs0.clone();
            let _ = gbtrs_batch_interleaved(
                &dev,
                &fa.layout(),
                fa.data(),
                &piv,
                &mut rhs,
                &info,
                InterleavedParams::default(),
            )
            .unwrap();
            let l = a.layout();
            for id in 0..batch {
                assert_eq!(is[id], 0);
                let mut expect = rhs0.block(id).to_vec();
                gbtrs(Transpose::No, &l, &fs[id], &ps[id], &mut expect, n, nrhs);
                assert_eq!(
                    rhs.block(id),
                    &expect[..],
                    "solution n={n} kl={kl} ku={ku} id={id}"
                );
            }
        }
    }

    #[test]
    fn solve_masks_singular_lanes() {
        let dev = DeviceSpec::h100_pcie();
        let n = 10;
        let batch = 5;
        let mut a = random_batch(batch, n, n, 1, 1);
        {
            let mut m = a.matrix_mut(3);
            m.set(0, 0, 0.0);
            m.set(1, 0, 0.0);
        }
        let (fs, ps, is) = gbtf2_oracle(&a);
        let (fa, piv, info, _) = factor_interleaved(&a, InterleavedParams::default());
        assert_eq!(info.get(3), is[3]);
        assert_ne!(info.get(3), 0);
        let rhs0 = RhsBatch::from_fn(batch, n, 2, |id, i, c| (id + i + c) as f64 * 0.1).unwrap();
        let mut rhs = rhs0.clone();
        let _ = gbtrs_batch_interleaved(
            &dev,
            &fa.layout(),
            fa.data(),
            &piv,
            &mut rhs,
            &info,
            InterleavedParams {
                lanes_per_block: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let l = a.layout();
        for id in 0..batch {
            if id == 3 {
                assert_eq!(rhs.block(id), rhs0.block(id), "singular lane untouched");
            } else {
                let mut expect = rhs0.block(id).to_vec();
                gbtrs(Transpose::No, &l, &fs[id], &ps[id], &mut expect, n, 2);
                assert_eq!(rhs.block(id), &expect[..], "healthy lane {id}");
            }
        }
    }

    #[test]
    fn conversion_launches_are_priced_passes() {
        let dev = DeviceSpec::h100_pcie();
        let a = random_batch(11, 9, 9, 2, 3);
        let params = InterleavedParams {
            lanes_per_block: 4,
            ..Default::default()
        };
        let bytes = (a.layout().len() * 11 * F64) as u64;
        let rep_in = interleave_launch(&dev, &a.layout(), a.data(), params).unwrap();
        assert_eq!(rep_in.grid, 3, "chunks of 4, 4, 3");
        assert_eq!(rep_in.counters.global_read, bytes);
        assert_eq!(rep_in.counters.global_write, bytes);
        let rep_out = deinterleave_launch(&dev, &a.layout(), a.data(), params).unwrap();
        assert_eq!(rep_out.grid, 3);
        assert_eq!(rep_out.counters, rep_in.counters);
        assert_eq!(rep_out.time, rep_in.time);
    }

    #[test]
    fn records_lane_utilization() {
        let (batch, n) = (64usize, 12usize);
        let a = random_batch(batch, n, n, 2, 1);
        let (_, _, _, rep) = factor_interleaved(
            &a,
            InterleavedParams {
                lanes_per_block: 64,
                ..Default::default()
            },
        );
        let c = rep.counters;
        assert!(c.lane_sweeps > 0, "lane sweeps recorded");
        // 64-lane chunks divide the width-8 vectors exactly.
        assert_eq!(c.lane_utilization(8), Some(1.0));
        assert_eq!(c.syncs, 0, "interleaved kernel needs no barriers");
        assert_eq!(c.smem_trips, 0, "no shared-memory round trips");
    }

    #[test]
    fn auto_params_respect_device_limits() {
        let dev = DeviceSpec::h100_pcie();
        // Narrow band: the window is tiny, one lane per thread.
        let tri = BandLayout::factor(64, 64, 1, 1).unwrap();
        let p = InterleavedParams::auto(&dev, &tri, 0);
        assert!(p.threads <= dev.max_threads_per_block);
        assert_eq!(p.lanes_per_block, p.threads as usize);
        // Wide band: the resident window clamps the chunk well below the
        // thread count.
        let wide = BandLayout::factor(512, 512, 24, 24).unwrap();
        let pw = InterleavedParams::auto(&dev, &wide, 0);
        assert!(pw.lanes_per_block < p.lanes_per_block);
        assert_eq!(
            pw.lanes_per_block,
            dev.max_smem_per_block as usize / factor_smem_bytes::<f64>(&wide, 1)
        );
        // A large solve scratch tightens the clamp further…
        let ps = InterleavedParams::auto(&dev, &wide, 32);
        assert!(solve_smem_bytes::<f64>(&wide, 32, 1) <= dev.max_smem_per_block as usize);
        assert!(ps.lanes_per_block < pw.lanes_per_block);
        // …but one that cannot fit even a single lane streams regardless
        // and must not shrink the factor's windowed chunk.
        assert!(solve_smem_bytes::<f64>(&wide, 128, 1) > dev.max_smem_per_block as usize);
        let px = InterleavedParams::auto(&dev, &wide, 128);
        assert_eq!(px.lanes_per_block, pw.lanes_per_block);
        // Absurd bandwidth: even one lane's window exceeds the block limit,
        // so the kernels will run in streaming mode — the chunk goes back
        // to one lane per thread.
        let huge = BandLayout::factor(4096, 4096, 512, 512).unwrap();
        assert!(factor_smem_bytes::<f64>(&huge, 1) > dev.max_smem_per_block as usize);
        let ph = InterleavedParams::auto(&dev, &huge, 0);
        assert_eq!(ph.lanes_per_block, ph.threads as usize);
        assert_eq!(
            factor_mode::<f64>(&dev, &tri, 256),
            LaneTrafficMode::Windowed
        );
        assert_eq!(
            factor_mode::<f64>(&dev, &huge, ph.lanes_per_block),
            LaneTrafficMode::Streaming
        );
        assert_eq!(lane_chunks(10, 4), vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(lane_chunks(4, 8), vec![(0, 4)]);
    }

    #[test]
    fn oversized_window_streams_with_identical_numerics() {
        let dev = DeviceSpec::test_device(); // 16 KiB shared memory
        let n = 128;
        let batch = 4;
        let a = random_batch(batch, n, n, 40, 40);
        let l = a.layout();
        let mut fa = a.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let params = InterleavedParams {
            lanes_per_block: 4,
            threads: dev.max_threads_per_block,
            ..Default::default()
        };
        // The resident window does not fit, so the launch drops to
        // streaming mode: zero shared memory, per-primitive DRAM traffic,
        // same numerics.
        assert!(factor_smem_bytes::<f64>(&l, 4) > dev.max_smem_per_block as usize);
        assert_eq!(factor_mode::<f64>(&dev, &l, 4), LaneTrafficMode::Streaming);
        let rep = gbtrf_batch_interleaved(&dev, &mut fa, &mut piv, &mut info, params)
            .expect("streaming mode must not require shared memory");
        // More traffic than the once-through windowed stream…
        let once_through = 2 * l.len() * batch * std::mem::size_of::<f64>();
        assert!(rep.counters.global_bytes() as usize > once_through);
        // …but bitwise-identical factors, pivots and info codes.
        let (fs, ps, is) = gbtf2_oracle(&a);
        for id in 0..batch {
            assert_eq!(fa.matrix(id).data, &fs[id][..]);
            assert_eq!(piv.pivots(id), &ps[id][..]);
            assert_eq!(info.get(id), is[id]);
        }
        // The solve scratch does not fit either: the solve streams too and
        // still matches the reference bitwise.
        let nrhs = 33;
        assert_eq!(
            solve_mode::<f64>(&dev, &l, nrhs, 4),
            LaneTrafficMode::Streaming
        );
        let rhs0 = RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
            ((id * 31 + c * 7 + i) as f64 * 0.137).sin()
        })
        .unwrap();
        let mut rhs = rhs0.clone();
        let _ =
            gbtrs_batch_interleaved(&dev, &fa.layout(), fa.data(), &piv, &mut rhs, &info, params)
                .expect("streaming solve must not require shared memory");
        for id in 0..batch {
            let mut expect = rhs0.block(id).to_vec();
            gbtrs(Transpose::No, &l, &fs[id], &ps[id], &mut expect, n, nrhs);
            assert_eq!(rhs.block(id), &expect[..]);
        }
    }

    #[test]
    fn small_chunks_under_threads_match_gbtf2() {
        // 5 lanes split into chunks of 2 => ranges [0,2), [2,4), [4,5),
        // factored concurrently under the threaded policy.
        let dev = DeviceSpec::h100_pcie();
        let (n, kl, ku, batch) = (4usize, 1usize, 1usize, 5usize);
        let mut seed = 0.37f64;
        let aos = BandBatch::from_fn(batch, n, n, kl, ku, |id, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    seed = (seed * 1.7 + 0.11 + id as f64 * 1e-3).fract();
                    m.set(i, j, seed - 0.5 + if i == j { 1.0 } else { 0.0 });
                }
            }
        })
        .unwrap();
        let (fs, ps, is) = gbtf2_oracle(&aos);
        let mut fa = aos.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let params = InterleavedParams {
            lanes_per_block: 2,
            parallel: ParallelPolicy::threads(3),
            ..Default::default()
        };
        let _ = gbtrf_batch_interleaved(&dev, &mut fa, &mut piv, &mut info, params).unwrap();
        for id in 0..batch {
            assert_eq!(fa.matrix(id).data, &fs[id][..]);
            assert_eq!(piv.pivots(id), &ps[id][..]);
            assert_eq!(info.get(id), is[id]);
        }
    }

    #[test]
    fn single_lane_chunks_factor_a_healthy_batch() {
        // Degenerate chunking: one lane per block, every block on its own
        // worker task.
        let dev = DeviceSpec::h100_pcie();
        let (n, batch) = (3usize, 4usize);
        let aos = BandBatch::from_fn(batch, n, n, 1, 1, |id, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    m.set(i, j, 1.0 + (id + i + 2 * j) as f64 * 0.25);
                }
            }
        })
        .unwrap();
        let mut fa = aos.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let params = InterleavedParams {
            lanes_per_block: 1,
            parallel: ParallelPolicy::threads(2),
            ..Default::default()
        };
        let rep = gbtrf_batch_interleaved(&dev, &mut fa, &mut piv, &mut info, params).unwrap();
        assert_eq!(rep.grid, batch);
        assert!(info.all_ok());
    }
}
