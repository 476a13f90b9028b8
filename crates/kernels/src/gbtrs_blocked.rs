//! Blocked batched band triangular solves (paper §6, Figure 6).
//!
//! One kernel per direction. At each iteration `nb` columns of the factor
//! are processed while a window of the RHS lives in shared memory:
//!
//! - **forward**: the solver caches `nb + kl` RHS rows — enough for all the
//!   pivot swaps (`ipiv[j] <= j + kl`) and rank-1 updates of the `nb`
//!   columns of `L`; finished rows are written back and the remainder is
//!   shifted up;
//! - **backward**: starts from the *last* `nb` columns of `U` with the
//!   bottom RHS rows cached; each iteration solves `nb` rows, updating up
//!   to `kv = kl + ku` rows above them (`nb + kv` cached), writes the
//!   solved rows back and shifts the remainder down.
//!
//! The paper runs one thread block per system, and so do the public entry
//! points. The SPIKE driver ([`crate::spike`]) also splits each system's
//! RHS columns into contiguous column groups, one block per
//! `(system, group)`, each caching only its own columns: its small batch
//! then fills more of the device. Every column's arithmetic is the same
//! at any group count.
//!
//! Numerically identical (bit-for-bit) to `gbatch_core::gbtrs::gbtrs`.
//! [`gbtrs_batch_blocked_from`] also skips the forward steps above each
//! RHS column's structural leading zeros, exactly.

use gbatch_core::batch::{PivotBatch, RhsBatch};
use gbatch_core::layout::BandLayout;
use gbatch_core::scalar::Scalar;
use gbatch_gpu_sim::{
    launch, DeviceSpec, LaunchConfig, LaunchError, LaunchReport, ParallelPolicy, SimTime,
};

/// Tunables for the blocked solve kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveParams {
    /// Factor columns processed per window iteration.
    pub nb: usize,
    /// Threads per block.
    pub threads: u32,
    /// Host scheduling of the per-matrix blocks (results are
    /// bitwise-identical for every policy).
    pub parallel: ParallelPolicy,
}

impl Default for SolveParams {
    fn default() -> Self {
        SolveParams {
            nb: 8,
            threads: 32,
            parallel: ParallelPolicy::Serial,
        }
    }
}

impl SolveParams {
    /// Defaults mirroring [`crate::window::WindowParams::auto`].
    pub fn auto(dev: &DeviceSpec, kl: usize) -> Self {
        let min = (kl + 1) as u32;
        SolveParams {
            nb: 8,
            threads: min.div_ceil(dev.warp_size) * dev.warp_size,
            ..Default::default()
        }
    }

    /// Builder: set the host scheduling policy.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }
}

/// The split of `cols` RHS columns into `groups` contiguous groups, as
/// `(width, count)`: every group is `width` columns wide but the last,
/// which holds the rest. `groups` is clamped to `1..=cols`, and `count`
/// can fall below it (17 columns asked for 7 groups run as 6 groups of 3,
/// the last of 2).
pub(crate) fn column_groups(cols: usize, groups: usize) -> (usize, usize) {
    if cols == 0 {
        return (0, 1);
    }
    let width = cols.div_ceil(groups.clamp(1, cols));
    (width, cols.div_ceil(width))
}

/// Shared bytes for the forward RHS cache (`S` elements) of a block
/// holding `nrhs` columns.
pub fn forward_smem_bytes<S: Scalar>(l: &BandLayout, nb: usize, nrhs: usize) -> usize {
    (nb + l.kl).min(l.n) * nrhs * S::BYTES
}

/// Shared bytes for the backward RHS cache (`S` elements) of a block
/// holding `nrhs` columns.
pub fn backward_smem_bytes<S: Scalar>(l: &BandLayout, nb: usize, nrhs: usize) -> usize {
    (nb + l.kv()).min(l.n) * nrhs * S::BYTES
}

/// Combined report for the two blocked-solve launches.
#[derive(Debug, Clone)]
pub struct BlockedSolveReport {
    /// Forward launch (absent when `kl == 0`: `L` is the identity).
    pub forward: Option<LaunchReport>,
    /// Backward launch.
    pub backward: LaunchReport,
}

impl BlockedSolveReport {
    /// Total modeled time.
    pub fn time(&self) -> SimTime {
        let f = self
            .forward
            .as_ref()
            .map(|r| r.time)
            .unwrap_or(SimTime::ZERO);
        f + self.backward.time
    }
}

/// One block's share of the RHS: columns `[c0, c0 + b.len() / ldb)` of
/// system `id`.
struct Prob<'a, S> {
    id: usize,
    c0: usize,
    b: &'a mut [S],
}

/// The blocks of one launch, system-major: each system's columns in
/// groups of `width`.
fn problems<S: Scalar>(rhs: &mut RhsBatch<S>, width: usize) -> Vec<Prob<'_, S>> {
    let (chunk, groups) = (width * rhs.ldb(), rhs.nrhs().div_ceil(width));
    let mut probs = Vec::with_capacity(rhs.batch() * groups);
    for (id, b) in rhs.blocks_mut().enumerate() {
        let blocks = b.chunks_mut(chunk).enumerate();
        probs.extend(blocks.map(|(g, b)| Prob {
            id,
            c0: g * width,
            b,
        }));
    }
    probs
}

/// Batched blocked `GBTRS` (no transpose). `factors` holds the batch of
/// factored band arrays contiguously; `rhs` is overwritten with solutions.
pub fn gbtrs_batch_blocked<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    factors: &[S],
    piv: &PivotBatch,
    rhs: &mut RhsBatch<S>,
    params: SolveParams,
) -> Result<BlockedSolveReport, LaunchError> {
    blocked_solve(dev, l, factors, piv, rhs, None, params, 1)
}

/// [`gbtrs_batch_blocked`] over RHS columns with structural leading zeros:
/// the forward sweep of column `c` starts at step `first[c]`. The caller
/// guarantees that column `c` of every problem is zero in its leading
/// `first[c] + kl` rows. Above `first[c]` every pivot swap of that column
/// would exchange two zeros and every update would be skipped
/// (`b_j == 0`), so skipping those steps is exact: the answer is bitwise
/// the one of the full sweep. Swap and update work, and their
/// hazard-tracker calls, are recorded for the active columns only, the
/// rule the blocked-solve prices in [`crate::cost`] follow.
pub fn gbtrs_batch_blocked_from<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    factors: &[S],
    piv: &PivotBatch,
    rhs: &mut RhsBatch<S>,
    first: &[usize],
    params: SolveParams,
) -> Result<BlockedSolveReport, LaunchError> {
    blocked_solve(dev, l, factors, piv, rhs, Some(first), params, 1)
}

/// The solve pair with each system's RHS columns split into `groups`
/// contiguous column groups ([`column_groups`]), one block per
/// `(system, group)`; `first` is `None` when every column starts at row 0.
#[allow(clippy::too_many_arguments)]
pub(crate) fn blocked_solve<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    factors: &[S],
    piv: &PivotBatch,
    rhs: &mut RhsBatch<S>,
    first: Option<&[usize]>,
    params: SolveParams,
    groups: usize,
) -> Result<BlockedSolveReport, LaunchError> {
    if let Some(f) = first {
        assert_eq!(f.len(), rhs.nrhs(), "one first row per RHS column");
    }
    let n = l.n;
    assert_eq!(l.m, n, "gbtrs requires square factors");
    let batch = rhs.batch();
    assert_eq!(piv.batch(), batch);
    let stride = l.len();
    assert_eq!(factors.len(), stride * batch);
    assert!(params.nb > 0);
    let (width, _) = column_groups(rhs.nrhs(), groups);
    let start = |c: usize| first.map_or(0, |f| f[c]);
    let ldb = rhs.ldb();
    let kv = l.kv();
    let kl = l.kl;
    let nb = params.nb;
    let threads = params.threads.max((kl + 1) as u32);

    // Hazard-model lane attribution for both solve directions: lane
    // `c % threads` owns the block's column `c` outright (cache column `c`
    // is a disjoint shared region, and the factor columns stay in
    // registers), so the solver is race-free with only the per-iteration
    // barriers.
    let owner = move |c: usize| (c % threads as usize) as u32;

    // ---------------- forward ----------------
    let forward = if kl > 0 && n > 1 {
        let cfg = LaunchConfig::new(threads, forward_smem_bytes::<S>(l, nb, width) as u32)
            .with_parallel(params.parallel)
            .with_label("gbtrs_forward")
            .with_precision(crate::flop_class::<S>());
        let cache_rows = (nb + kl).min(n);
        // Each group's columns by first step (ties by column), as indices
        // into the group: the columns live at step `j` are always a
        // prefix of its order.
        let mut order: Vec<usize> = (0..rhs.nrhs()).map(|c| c % width).collect();
        for (g, group) in order.chunks_mut(width).enumerate() {
            group.sort_unstable_by_key(|&c| (start(g * width + c), c));
        }
        let mut probs = problems(rhs, width);
        let rep = launch(dev, &cfg, &mut probs, |p, ctx| {
            let ab = &factors[p.id * stride..(p.id + 1) * stride];
            let ipiv = piv.pivots(p.id);
            let (c0, k) = (p.c0, p.b.len() / ldb);
            let off = ctx.smem.alloc_scalar(cache_rows * k, S::BYTES);
            // The cache is filled before it is read.
            let mut scratch = ctx.take_scratch();
            let cache = scratch.stale::<S>(cache_rows * k);
            let order = &order[c0..c0 + k];
            let mut active = 0;
            // Initial fill: rows [0, loaded).
            let mut loaded = cache_rows;
            for (c, col) in cache.chunks_exact_mut(cache_rows).enumerate() {
                col[..loaded].copy_from_slice(&p.b[c * ldb..c * ldb + loaded]);
            }
            if let Some(t) = ctx.smem.tracker() {
                for c in 0..k {
                    t.range_write(owner(c), off + c * cache_rows, loaded);
                }
            }
            ctx.gld(loaded * k * S::BYTES);
            ctx.sync();

            let mut j0 = 0usize;
            while j0 < n {
                let jb = nb.min(n - j0);
                for j in j0..j0 + jb {
                    if j >= n - 1 {
                        break; // the last row is never a forward pivot row
                    }
                    // Columns whose sweep has started by step `j`.
                    let live = |c: &usize| start(c0 + *c) <= j;
                    while active < k && start(c0 + order[active]) <= j {
                        active += 1;
                    }
                    let live_cols = &order[..active];
                    let pr = ipiv[j] as usize;
                    let (lj, lp) = (j - j0, pr - j0);
                    debug_assert!(lp < cache_rows, "pivot outside cache");
                    if pr != j {
                        if let Some(t) = ctx.smem.tracker() {
                            for c in (0..k).filter(live) {
                                let (lane, colbase) = (owner(c), off + c * cache_rows);
                                t.read(lane, colbase + lj);
                                t.read(lane, colbase + lp);
                                t.write(lane, colbase + lj);
                                t.write(lane, colbase + lp);
                            }
                        }
                        for &c in live_cols {
                            cache.swap(c * cache_rows + lj, c * cache_rows + lp);
                        }
                        ctx.smem_work(active, 0);
                    }
                    let lm = kl.min(n - 1 - j);
                    if lm > 0 {
                        let base = l.idx(kv, j);
                        let mult = &ab[base + 1..=base + lm];
                        ctx.gld(lm * S::BYTES); // the multiplier column (register file)
                        if let Some(t) = ctx.smem.tracker() {
                            // The swap above and this update touch the cache
                            // through the same owning lane, so no extra
                            // barrier is needed between them.
                            for c in (0..k).filter(live) {
                                let (lane, colbase) = (owner(c), off + c * cache_rows);
                                t.read(lane, colbase + lj);
                                if cache[c * cache_rows + lj] != S::ZERO {
                                    t.range_read(lane, colbase + lj + 1, lm);
                                    t.range_write(lane, colbase + lj + 1, lm);
                                }
                            }
                        }
                        // Columns are indexed, not chunked: a chunk iterator
                        // pays an integer division per step and block.
                        for &c in live_cols {
                            let col = &mut cache[c * cache_rows..(c + 1) * cache_rows];
                            let bj = col[lj];
                            if bj == S::ZERO {
                                continue;
                            }
                            for (x, &m) in col[lj + 1..=lj + lm].iter_mut().zip(mult) {
                                *x -= m * bj;
                            }
                        }
                        ctx.smem_work(active * lm, 2);
                    }
                    ctx.sync();
                }
                // Write the finished top jb rows back.
                if let Some(t) = ctx.smem.tracker() {
                    for c in 0..k {
                        t.range_read(owner(c), off + c * cache_rows, jb);
                    }
                }
                for (c, col) in cache.chunks_exact(cache_rows).enumerate() {
                    p.b[c * ldb + j0..c * ldb + j0 + jb].copy_from_slice(&col[..jb]);
                }
                ctx.gst(jb * k * S::BYTES);
                let next_j0 = j0 + jb;
                if next_j0 >= n {
                    break;
                }
                // Shift the remaining rows up and load the next rows.
                let keep = loaded - next_j0;
                if let Some(t) = ctx.smem.tracker() {
                    // The shift ranges overlap, but the owning lane both
                    // reads and writes its own column, so the in-place move
                    // is ordered within that thread — no barrier required
                    // (unlike the cross-lane striped shift in `window`).
                    for c in 0..k {
                        let (lane, colbase) = (owner(c), off + c * cache_rows);
                        t.range_read(lane, colbase + jb, keep);
                        t.range_write(lane, colbase, keep);
                    }
                }
                for col in cache.chunks_exact_mut(cache_rows) {
                    col.copy_within(jb..jb + keep, 0);
                }
                ctx.smem_work(keep * k, 0);
                let new_end = (next_j0 + cache_rows).min(n);
                if new_end > loaded {
                    let (dst, len) = (loaded - next_j0, new_end - loaded);
                    if let Some(t) = ctx.smem.tracker() {
                        for c in 0..k {
                            t.range_write(owner(c), off + c * cache_rows + dst, len);
                        }
                    }
                    for (c, col) in cache.chunks_exact_mut(cache_rows).enumerate() {
                        col[dst..dst + len]
                            .copy_from_slice(&p.b[c * ldb + loaded..c * ldb + new_end]);
                    }
                    ctx.gld(len * k * S::BYTES);
                    loaded = new_end;
                }
                ctx.sync();
                j0 = next_j0;
            }
            ctx.put_scratch(scratch);
        })?;
        Some(rep)
    } else {
        None
    };

    // ---------------- backward ----------------
    let cfg = LaunchConfig::new(threads, backward_smem_bytes::<S>(l, nb, width) as u32)
        .with_parallel(params.parallel)
        .with_label("gbtrs_backward")
        .with_precision(crate::flop_class::<S>());
    let cache_rows = (nb + kv).min(n);
    let mut probs = problems(rhs, width);
    let backward = launch(dev, &cfg, &mut probs, |p, ctx| {
        let ab = &factors[p.id * stride..(p.id + 1) * stride];
        let k = p.b.len() / ldb;
        let off = ctx.smem.alloc_scalar(cache_rows * k, S::BYTES);
        let mut scratch = ctx.take_scratch();
        let cache = scratch.stale::<S>(cache_rows * k);
        // Cache covers global rows [lo, lo + cache_rows); start at the
        // bottom of the RHS.
        let mut lo = n - cache_rows;
        for (c, col) in cache.chunks_exact_mut(cache_rows).enumerate() {
            col.copy_from_slice(&p.b[c * ldb + lo..c * ldb + n]);
        }
        if let Some(t) = ctx.smem.tracker() {
            for c in 0..k {
                t.range_write(owner(c), off + c * cache_rows, cache_rows);
            }
        }
        ctx.gld(cache_rows * k * S::BYTES);
        ctx.sync();

        // Blocks of rows [j0, j0 + jb), processed last-first.
        let mut j1 = n; // exclusive end of the current block
        while j1 > 0 {
            let jb = nb.min(j1);
            let j0 = j1 - jb;
            debug_assert!(j0 >= lo, "block escapes the cache");
            for j in (j0..j1).rev() {
                let reach = kv.min(j);
                // The U column, diagonal last (register file).
                let ucol = &ab[l.idx(kv - reach, j)..=l.idx(kv, j)];
                let diag = ucol[reach];
                ctx.gld((reach + 1) * S::BYTES);
                let lj = j - lo;
                if let Some(t) = ctx.smem.tracker() {
                    // Division result and the axpy into the rows above both
                    // stay inside the owning lane's column.
                    for c in 0..k {
                        let (lane, colbase) = (owner(c), off + c * cache_rows);
                        t.read(lane, colbase + lj);
                        t.write(lane, colbase + lj);
                        if cache[c * cache_rows + lj] != S::ZERO && reach > 0 {
                            t.range_read(lane, colbase + lj - reach, reach);
                            t.range_write(lane, colbase + lj - reach, reach);
                        }
                    }
                }
                for c in 0..k {
                    let col = &mut cache[c * cache_rows..(c + 1) * cache_rows];
                    let bj = col[lj] / diag;
                    col[lj] = bj;
                    if bj != S::ZERO {
                        // Row `lj - reach + i` meets U entry `i`; each row
                        // is updated once, so the order is free.
                        for (x, &u) in col[lj - reach..lj].iter_mut().zip(&ucol[..reach]) {
                            *x -= u * bj;
                        }
                    }
                }
                ctx.smem_work(k * (reach + 1), 2);
                ctx.sync();
            }
            // Write the solved bottom jb rows back.
            let top = j0 - lo;
            if let Some(t) = ctx.smem.tracker() {
                for c in 0..k {
                    t.range_read(owner(c), off + c * cache_rows + top, jb);
                }
            }
            for (c, col) in cache.chunks_exact(cache_rows).enumerate() {
                p.b[c * ldb + j0..c * ldb + j1].copy_from_slice(&col[top..top + jb]);
            }
            ctx.gst(jb * k * S::BYTES);
            if j0 == 0 {
                break;
            }
            // Shift the remaining rows down to the bottom of the cache and
            // load the rows the next block needs: the new window ends at
            // `j0` (everything above is solved) and spans `cache_rows` rows.
            let new_lo = j0.saturating_sub(cache_rows);
            // Rows still needed: [new_lo, j0). Move existing [lo, j0) to the
            // tail of the new window, then load [new_lo, lo).
            let keep = j0 - lo;
            let shift_to = lo - new_lo; // how far down the kept rows move
            if keep > 0 && shift_to > 0 {
                if let Some(t) = ctx.smem.tracker() {
                    // In-place downward move, ordered within the owning lane.
                    for c in 0..k {
                        let (lane, colbase) = (owner(c), off + c * cache_rows);
                        t.range_read(lane, colbase, keep);
                        t.range_write(lane, colbase + shift_to, keep);
                    }
                }
                for col in cache.chunks_exact_mut(cache_rows) {
                    col.copy_within(..keep, shift_to);
                }
                ctx.smem_work(keep * k, 0);
            }
            if lo > new_lo {
                if let Some(t) = ctx.smem.tracker() {
                    for c in 0..k {
                        t.range_write(owner(c), off + c * cache_rows, lo - new_lo);
                    }
                }
                for (c, col) in cache.chunks_exact_mut(cache_rows).enumerate() {
                    col[..lo - new_lo].copy_from_slice(&p.b[c * ldb + new_lo..c * ldb + lo]);
                }
                ctx.gld((lo - new_lo) * k * S::BYTES);
            }
            lo = new_lo;
            ctx.sync();
            j1 = j0;
        }
        ctx.put_scratch(scratch);
    })?;

    Ok(BlockedSolveReport { forward, backward })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::batch::{BandBatch, InfoArray};
    use gbatch_core::gbtrs::{gbtrs, Transpose};

    fn factored(batch: usize, n: usize, kl: usize, ku: usize) -> (BandBatch, PivotBatch) {
        let mut v = 0.13f64;
        let mut fac = BandBatch::from_fn(batch, n, n, kl, ku, |id, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    v = (v * 2.7 + 0.093 + id as f64 * 5e-4).fract();
                    m.set(i, j, v - 0.5 + if i == j { 1.0 } else { 0.0 });
                }
            }
        })
        .unwrap();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let dev = DeviceSpec::h100_pcie();
        let _ = crate::fused::gbtrf_batch_fused(
            &dev,
            &mut fac,
            &mut piv,
            &mut info,
            crate::fused::FusedParams::auto(&dev, kl),
        )
        .unwrap();
        assert!(info.all_ok());
        (fac, piv)
    }

    fn check(n: usize, kl: usize, ku: usize, nrhs: usize, nb: usize) {
        let dev = DeviceSpec::h100_pcie();
        let batch = 3;
        let (fac, piv) = factored(batch, n, kl, ku);
        let l = fac.layout();
        let mut rhs = RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
            ((id * 17 + c * 5 + i) as f64 * 0.29).cos()
        })
        .unwrap();
        let mut expect = rhs.clone();
        for id in 0..batch {
            gbtrs(
                Transpose::No,
                &l,
                fac.matrix(id).data,
                piv.pivots(id),
                expect.block_mut(id),
                n,
                nrhs,
            );
        }
        let params = SolveParams {
            nb,
            threads: 32,
            ..Default::default()
        };
        gbtrs_batch_blocked(&dev, &l, fac.data(), &piv, &mut rhs, params).unwrap();
        assert_eq!(
            rhs.data(),
            expect.data(),
            "n={n} kl={kl} ku={ku} nrhs={nrhs} nb={nb}"
        );
    }

    #[test]
    fn matches_core_gbtrs_bitwise() {
        for nb in [1, 2, 4, 8, 32] {
            check(20, 2, 3, 1, nb);
        }
        check(20, 10, 7, 1, 8);
        check(20, 2, 3, 10, 8); // the paper's ten-RHS configuration
        check(33, 1, 1, 3, 5);
        check(8, 0, 3, 2, 4); // kl = 0: no forward pass at all
        check(8, 3, 0, 2, 4);
        check(64, 2, 3, 1, 64); // nb >= n: single iteration
        check(3, 2, 2, 1, 2); // kv >= n: full-width reach
    }

    #[test]
    fn forward_skipped_for_upper_triangular() {
        let dev = DeviceSpec::h100_pcie();
        let (fac, piv) = factored(2, 12, 0, 3);
        let l = fac.layout();
        let mut rhs = RhsBatch::from_fn(2, 12, 1, |_, i, _| i as f64).unwrap();
        let rep = gbtrs_batch_blocked(
            &dev,
            &l,
            fac.data(),
            &piv,
            &mut rhs,
            SolveParams {
                nb: 4,
                threads: 32,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(rep.forward.is_none());
        assert!(rep.time().secs() > 0.0);
    }

    #[test]
    fn smem_sizes_follow_paper_formulas() {
        let l = BandLayout::factor(100, 100, 10, 7).unwrap();
        // forward: (nb + kl) elements per RHS; backward: (nb + kv).
        assert_eq!(forward_smem_bytes::<f64>(&l, 8, 1), (8 + 10) * 8);
        assert_eq!(backward_smem_bytes::<f64>(&l, 8, 1), (8 + 17) * 8);
        assert_eq!(backward_smem_bytes::<f32>(&l, 8, 1), (8 + 17) * 4);
        assert_eq!(forward_smem_bytes::<f64>(&l, 8, 10), (8 + 10) * 10 * 8);
    }

    #[test]
    fn blocked_beats_columnwise_in_modeled_time() {
        let dev = DeviceSpec::h100_pcie();
        let (n, kl, ku) = (128usize, 2usize, 3usize);
        let batch = 200;
        let (fac, piv) = factored(batch, n, kl, ku);
        let l = fac.layout();
        let mut r1 = RhsBatch::from_fn(batch, n, 1, |_, i, _| i as f64).unwrap();
        let mut r2 = r1.clone();
        let blocked = gbtrs_batch_blocked(
            &dev,
            &l,
            fac.data(),
            &piv,
            &mut r1,
            SolveParams {
                nb: 8,
                threads: 32,
                ..Default::default()
            },
        )
        .unwrap();
        let cols = crate::gbtrs_cols::gbtrs_batch_cols(
            &dev,
            &l,
            fac.data(),
            &piv,
            &mut r2,
            ParallelPolicy::Serial,
        )
        .unwrap();
        assert_eq!(r1.data(), r2.data(), "both designs agree numerically");
        assert!(
            cols.time.secs() > 3.0 * blocked.time().secs(),
            "columnwise {:.3} ms should dwarf blocked {:.3} ms",
            cols.time.ms(),
            blocked.time().ms()
        );
    }

    /// A factored batch of three pivoting operators of layout `(37, kl, ku)`.
    fn factored_for_groups<S: Scalar>(kl: usize, ku: usize) -> (BandBatch<S>, PivotBatch) {
        let (batch, n) = (3, 37);
        let mut v = 0.31f64;
        let mut a = BandBatch::<S>::from_fn(batch, n, n, kl, ku, |_, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    v = (v * 2.9 + 0.137).fract();
                    let diag = if i == j { 0.25 } else { 0.0 };
                    m.set(i, j, S::from_f64(v - 0.5 + diag));
                }
            }
        })
        .unwrap();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let params = crate::window::WindowParams {
            nb: 4,
            threads: 32,
            ..Default::default()
        };
        let dev = DeviceSpec::h100_pcie();
        let _ =
            crate::window::gbtrf_batch_window(&dev, &mut a, &mut piv, &mut info, params).unwrap();
        assert!(info.all_ok());
        (a, piv)
    }

    /// Every group count of seven columns against one group, bitwise, over
    /// two-sided, lower-only and upper-only (`kl = 0`, no forward launch)
    /// bands, with and without ragged starts (one past the last row), under
    /// both host policies. Groups of 2 and 3 leave an uneven last group; 5
    /// groups run as 4 of width 2.
    fn grouped_solve_is_bitwise_one_group<S: Scalar>() {
        let dev = DeviceSpec::h100_pcie();
        let (n, nrhs) = (37, 7);
        let ragged = [0, 9, n - 1, 3, n + 4, 20, 0];
        for (kl, ku) in [(2, 3), (5, 1), (3, 0), (0, 4)] {
            let (a, piv) = factored_for_groups::<S>(kl, ku);
            let l = a.layout();
            for first in [None, Some(&ragged[..])] {
                for parallel in [ParallelPolicy::Serial, ParallelPolicy::threads(2)] {
                    let run = |groups: usize| {
                        let mut b = RhsBatch::<S>::from_fn(3, n, nrhs, |id, i, c| {
                            if first.is_some_and(|f| i < f[c] + kl) {
                                S::ZERO
                            } else {
                                S::from_f64(((id * 17 + c * 5 + i) as f64 * 0.29).cos())
                            }
                        })
                        .unwrap();
                        let params = SolveParams {
                            nb: 5,
                            threads: 32,
                            parallel,
                        };
                        let rep =
                            blocked_solve(&dev, &l, a.data(), &piv, &mut b, first, params, groups)
                                .unwrap();
                        let bits: Vec<u64> =
                            b.data().iter().map(|x| x.to_f64().to_bits()).collect();
                        (bits, rep)
                    };
                    let (want, _) = run(1);
                    for groups in 1..=nrhs {
                        let case = format!(
                            "{} ({kl},{ku}) first={first:?} {parallel:?} groups={groups}",
                            S::PRECISION
                        );
                        let (got, rep) = run(groups);
                        assert!(got == want, "{case}: answers moved");
                        let (_, count) = column_groups(nrhs, groups);
                        assert_eq!(rep.forward.is_some(), kl > 0, "{case}");
                        for r in rep.forward.iter().chain([&rep.backward]) {
                            assert_eq!(r.grid, 3 * count, "{case}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn grouped_solve_is_bitwise_one_group_f64() {
        grouped_solve_is_bitwise_one_group::<f64>();
    }

    #[test]
    fn grouped_solve_is_bitwise_one_group_f32() {
        grouped_solve_is_bitwise_one_group::<f32>();
    }

    #[test]
    fn grouped_columns_cover_every_column_once() {
        for cols in 1..=20 {
            for groups in 0..=cols + 2 {
                let (width, count) = column_groups(cols, groups);
                assert!(count <= groups.clamp(1, cols), "{cols} / {groups}");
                assert!(width * (count - 1) < cols && cols <= width * count);
            }
        }
        assert_eq!(column_groups(17, 3), (6, 3));
        assert_eq!(column_groups(17, 7), (3, 6));
    }

    /// FNV-1a over 64-bit words.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            w.to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
        })
    }

    /// Every counter field of a launch (the f64 ones by their bits) and
    /// its modeled time.
    fn counter_words(r: &LaunchReport) -> [u64; 12] {
        let c = &r.counters;
        [
            c.global_read,
            c.global_write,
            c.flops,
            c.smem_trips,
            c.syncs,
            c.cycles.to_bits(),
            c.smem_elems.to_bits(),
            c.lane_sweeps,
            c.lane_elems,
            c.hazards,
            c.threads_spawned,
            r.time.secs().to_bits(),
        ]
    }

    /// `(n, kl, ku, nb, threads)` of the pinned grid: no forward launch
    /// (`kl == 0`), `nb < kv`, `nb >= n`, a thread count whose shared-work
    /// divisor `min(threads, lds_lanes)` is not a power of two, and a
    /// plain two-sided band.
    const PIN_SHAPES: [(usize, usize, usize, usize, u32); 5] = [
        (37, 0, 4, 5, 32),
        (41, 6, 5, 3, 32),
        (13, 3, 2, 16, 32),
        (45, 4, 3, 6, 20),
        (50, 2, 3, 8, 32),
    ];

    /// One digest per shape and start pattern over every group count
    /// `1..=6` of six columns: the answers' bits and every counter field
    /// of both launches.
    fn pin_digests<S: Scalar>() -> Vec<u64> {
        let dev = DeviceSpec::h100_pcie();
        let nrhs = 6;
        let mut out = Vec::new();
        for (n, kl, ku, nb, threads) in PIN_SHAPES {
            let mut v = 0.37f64;
            let mut a = BandBatch::<S>::from_fn(2, n, n, kl, ku, |_, m| {
                for j in 0..n {
                    let (s, e) = m.layout.col_rows(j);
                    for i in s..e {
                        v = (v * 2.9 + 0.137).fract();
                        let diag = if i == j { 0.25 } else { 0.0 };
                        m.set(i, j, S::from_f64(v - 0.5 + diag));
                    }
                }
            })
            .unwrap();
            let mut piv = PivotBatch::new(2, n, n);
            let mut info = InfoArray::new(2);
            let wp = crate::window::WindowParams {
                nb: 4,
                threads: 32,
                ..Default::default()
            };
            let _ =
                crate::window::gbtrf_batch_window(&dev, &mut a, &mut piv, &mut info, wp).unwrap();
            assert!(info.all_ok());
            let l = a.layout();
            // Row 0, mid-block, the last row, past the end.
            let mixed = [0, n / 2 + 1, n - 1, 0, n + 3, nb + 1];
            for first in [None, Some(&mixed[..])] {
                let mut words = Vec::new();
                for groups in 1..=nrhs {
                    let mut b = RhsBatch::<S>::from_fn(2, n, nrhs, |id, i, c| {
                        if first.is_some_and(|f| i < f[c] + kl) {
                            S::ZERO
                        } else {
                            S::from_f64(((id * 13 + c * 7 + i) as f64 * 0.41).sin())
                        }
                    })
                    .unwrap();
                    let params = SolveParams {
                        nb,
                        threads,
                        parallel: ParallelPolicy::Serial,
                    };
                    let rep =
                        blocked_solve(&dev, &l, a.data(), &piv, &mut b, first, params, groups)
                            .unwrap();
                    words.extend(b.data().iter().map(|x| x.to_f64().to_bits()));
                    for r in rep.forward.iter().chain([&rep.backward]) {
                        words.extend(counter_words(r));
                    }
                }
                out.push(fnv(words));
            }
        }
        out
    }

    /// Answers and counters of the blocked solve, pinned over a shape grid
    /// in both precisions and under both the untracked and the recording
    /// hazard mode: a rewrite of the sweeps' host loops must move no bit.
    #[test]
    fn blocked_solve_pins() {
        use gbatch_gpu_sim::HazardMode;
        const F64: [u64; 10] = [
            0xdb68fa130aa7110c,
            0xf6d1d17dd6d0c3c4,
            0x366ca507748eea4f,
            0x473b1427c773ef05,
            0x74b0322bd0bdb576,
            0x08e582f20897c7ab,
            0x6acfa58eb6702d5b,
            0xf96d59dd9d29c4f5,
            0x9137d252480924a2,
            0xec47c14459b77737,
        ];
        const F32: [u64; 10] = [
            0x8f7e28fd61da8c1d,
            0xc7d08c038f7c105d,
            0x1177194274212016,
            0x18f5438c49f71a60,
            0xb1f409634eca2a7b,
            0xa09c60ac8f112b72,
            0x6f184c913ea4dec7,
            0xd2d992f5ed1f51a9,
            0x632e4e8cbf05ce0f,
            0xbbf39d75200fea06,
        ];
        for mode in [HazardMode::Off, HazardMode::Record] {
            let _scope = crate::conformance::global_mode_scope(mode);
            assert_eq!(pin_digests::<f64>(), F64, "f64 under {mode:?}");
            assert_eq!(pin_digests::<f32>(), F32, "f32 under {mode:?}");
        }
    }
}
