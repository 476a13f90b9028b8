//! Analytic cost prediction (dry-run counters) for the factorization
//! kernels.
//!
//! The offline tuner (paper §5.3: "a benchmark sweep ... fed to a
//! post-processing phase that extracts the best tuning parameters") needs
//! kernel costs for hundreds of `(kl, ku, nb, threads)` combinations; this
//! module predicts the per-block counters *without executing numerics*,
//! assuming worst-case pivoting (`jp = kl`, so every column updates the
//! full `kv + 1`-column window). Global traffic predictions are exact;
//! critical-path cycles are an upper bound on what the executing kernels
//! record.
//!
//! The SPIKE and interleaved plans are **launch lists** ([`Launch`], in
//! driver order: [`spike_launches`], [`interleaved_launches`]). A plan's
//! price is the launch-order sum of its list ([`total_time`]), and the
//! driver reports the list it ran. A blocked solve is its forward and
//! backward launches, the forward one only when `kl > 0`.

use crate::interleaved::InterleavedParams;
use gbatch_core::layout::BandLayout;
use gbatch_core::scalar::Scalar;
use gbatch_core::spike::SpikePartition;
use gbatch_gpu_sim::{
    BlockContext, DeviceSpec, KernelCounters, LaunchConfig, LaunchReport, SimTime,
};

/// Kernel family of one [`Launch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// `spike_extract`: the coupling corners of every cut.
    Extract,
    /// Sliding-window factorization (§5.3).
    Window,
    /// Fully fused factorization (§5.2).
    Fused,
    /// Forward launch of the blocked solve.
    Forward,
    /// Backward launch of the blocked solve.
    Backward,
    /// `spike_combine`: back-substitution of the interface values.
    Combine,
    /// `spike_residual`: the residual guard and refinement residuals.
    Residual,
    /// Pack pass of an interleaved plan.
    Pack,
    /// Interleaved factorization.
    InterleavedFactor,
    /// Interleaved solve.
    InterleavedSolve,
    /// Unpack pass of an interleaved plan.
    Unpack,
}

/// One device launch: planned, with its predicted time, or run, with the
/// engine's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Launch {
    /// What the launch runs.
    pub kernel: Kernel,
    /// Blocks of the launch.
    pub grid: usize,
    /// Column groups per system of a blocked solve; 1 for other launches.
    pub groups: usize,
    /// Modeled time, launch overhead included.
    pub time: SimTime,
}

impl Launch {
    /// The record of a launch that ran as `rep`, in `groups` column groups.
    pub fn ran(kernel: Kernel, rep: &LaunchReport, groups: usize) -> Self {
        Launch {
            kernel,
            grid: rep.grid,
            groups,
            time: rep.time,
        }
    }
}

/// Launch-order sum of a list's times: a plan's price, or a run's time.
pub fn total_time(list: &[Launch]) -> SimTime {
    list.iter().fold(SimTime::ZERO, |t, l| t + l.time)
}

#[inline]
fn frac(a: usize, t: usize) -> f64 {
    a as f64 / t as f64
}

/// Worst-case per-column factorization cost, matching the recording calls
/// of [`crate::step::smem_column_step`] one for one.
fn column_cost(l: &BandLayout, j: usize, threads: usize, c: &mut KernelCounters) {
    let n = l.n;
    let kv = l.kv();
    let km = l.km(j);
    // SET_FILLIN
    if j + kv < n {
        c.smem_elems += frac(l.kl, threads);
    }
    // IAMAX + winner broadcast + barrier
    c.smem_elems += frac(km + 1, threads);
    c.smem_trips += 1;
    c.syncs += 1;
    // Worst-case update reach.
    let ju = (j + kv).min(n - 1);
    let w = ju - j;
    // SWAP (assume a pivot interchange every column)
    if km > 0 {
        c.smem_elems += frac(w + 1, threads);
    }
    c.syncs += 1;
    if km > 0 {
        // SCAL
        c.smem_elems += frac(km, threads);
        c.flops += km as u64;
        c.smem_trips += 1;
        // RANK-1 UPDATE
        if w > 0 {
            c.smem_elems += frac(w * km, threads);
            c.flops += (2 * w * km) as u64;
        }
        c.syncs += 1;
    }
}

/// Predicted per-block counters of the fully fused kernel (§5.2).
/// `lanes` is the effective shared-memory parallelism:
/// `min(threads, device.lds_lanes)`.
pub fn predict_fused<S: Scalar>(l: &BandLayout, lanes: u32) -> KernelCounters {
    let t = lanes as usize;
    let mut c = KernelCounters::default();
    let bytes = l.len() * S::BYTES;
    c.global_read += bytes as u64;
    c.syncs += 1;
    for j in 0..l.m.min(l.n) {
        column_cost(l, j, t, &mut c);
    }
    c.global_write += (bytes + l.m.min(l.n) * 4) as u64;
    c.syncs += 1;
    c
}

/// Predicted per-block counters of the sliding-window kernel (§5.3).
/// `lanes` is the effective shared-memory parallelism:
/// `min(threads, device.lds_lanes)`.
pub fn predict_window<S: Scalar>(l: &BandLayout, nb: usize, lanes: u32) -> KernelCounters {
    let t = lanes as usize;
    let ldab = l.ldab;
    let n = l.n;
    let kmin = l.m.min(n);
    let wcols = crate::window::window_cols(l.kl, l.ku, nb).min(n);
    let mut c = KernelCounters::default();

    // Initial load.
    let mut loaded_end = wcols.min(n);
    c.global_read += (loaded_end * ldab * S::BYTES) as u64;
    c.syncs += 1;

    let mut j0 = 0usize;
    while j0 < kmin {
        let jb = nb.min(kmin - j0);
        for j in j0..j0 + jb {
            column_cost(l, j, t, &mut c);
        }
        // Store the factored block.
        c.global_write += (jb * ldab * S::BYTES) as u64;
        c.syncs += 1;
        let next_j0 = j0 + jb;
        if next_j0 >= kmin {
            if loaded_end > next_j0 {
                c.global_write += ((loaded_end - next_j0) * ldab * S::BYTES) as u64;
            }
            break;
        }
        // Shift + tail load.
        let keep = loaded_end - next_j0;
        c.smem_elems += frac(keep * ldab, t);
        c.syncs += 1;
        let new_end = (next_j0 + wcols).min(n);
        if new_end > loaded_end {
            c.global_read += ((new_end - loaded_end) * ldab * S::BYTES) as u64;
            loaded_end = new_end;
        }
        c.syncs += 1;
        j0 = next_j0;
    }
    c.global_write += (kmin * 4) as u64; // pivots
    c
}

/// Predicted per-block counters of the blocked forward+backward solve
/// (`gbtrs_batch_blocked`), single launch pair combined. `lanes` is
/// `min(threads, device.lds_lanes)`.
pub fn predict_gbtrs_blocked<S: Scalar>(
    l: &BandLayout,
    nb: usize,
    nrhs: usize,
    lanes: u32,
) -> KernelCounters {
    let mut c = KernelCounters::default();
    predict_forward_sweep::<S>(l, nb, nrhs, None, lanes, true, &mut c);
    predict_backward_sweep::<S>(l, nb, nrhs, lanes, &mut c);
    c
}

/// Forward-sweep counters of the blocked solve over `nrhs` columns
/// starting at `first`, sorted ascending (all at row 0 when `None`);
/// nothing when `kl == 0`. `swaps` prices a pivot interchange at every
/// step, the worst case a plan assumes; without it the counters are
/// exactly what a swap-free operator records.
fn predict_forward_sweep<S: Scalar>(
    l: &BandLayout,
    nb: usize,
    nrhs: usize,
    first: Option<&[usize]>,
    lanes: u32,
    swaps: bool,
    c: &mut KernelCounters,
) {
    let t = lanes as usize;
    let n = l.n;
    let kl = l.kl;
    if kl == 0 || n <= 1 {
        return;
    }
    let cache_rows = (nb + kl).min(n);
    c.global_read += (cache_rows * nrhs * S::BYTES) as u64;
    c.syncs += 1;
    // `live` of the sorted starts are at most step `j`.
    let mut live = 0usize;
    let mut j0 = 0usize;
    let mut loaded = cache_rows;
    while j0 < n {
        let jb = nb.min(n - j0);
        for j in j0..j0 + jb {
            if j >= n - 1 {
                break;
            }
            let active = match first {
                Some(s) => {
                    while live < s.len() && s[live] <= j {
                        live += 1;
                    }
                    live
                }
                None => nrhs,
            };
            let lm = kl.min(n - 1 - j);
            if swaps {
                c.smem_elems += frac(active, t);
            }
            if lm > 0 {
                c.global_read += (lm * S::BYTES) as u64;
                c.smem_elems += frac(active * lm, t);
                c.flops += (2 * active * lm) as u64;
            }
            c.syncs += 1;
        }
        c.global_write += (jb * nrhs * S::BYTES) as u64;
        let next_j0 = j0 + jb;
        if next_j0 >= n {
            break;
        }
        let keep = loaded - next_j0;
        c.smem_elems += frac(keep * nrhs, t);
        let new_end = (next_j0 + cache_rows).min(n);
        if new_end > loaded {
            c.global_read += ((new_end - loaded) * nrhs * S::BYTES) as u64;
            loaded = new_end;
        }
        c.syncs += 1;
        j0 = next_j0;
    }
}

/// Backward-sweep counters of the blocked solve.
fn predict_backward_sweep<S: Scalar>(
    l: &BandLayout,
    nb: usize,
    nrhs: usize,
    lanes: u32,
    c: &mut KernelCounters,
) {
    let t = lanes as usize;
    let n = l.n;
    let kv = l.kv();
    let cache_rows = (nb + kv).min(n);
    c.global_read += (cache_rows * nrhs * S::BYTES) as u64;
    c.syncs += 1;
    let mut j1 = n;
    while j1 > 0 {
        let jb = nb.min(j1);
        let j0 = j1 - jb;
        for j in (j0..j1).rev() {
            let reach = kv.min(j);
            c.global_read += ((reach + 1) * S::BYTES) as u64;
            c.smem_elems += frac(nrhs * (reach + 1), t);
            c.flops += (2 * nrhs * (reach + 1)) as u64;
            c.syncs += 1;
        }
        c.global_write += (jb * nrhs * S::BYTES) as u64;
        if j0 == 0 {
            break;
        }
        let keep = jb.min(cache_rows);
        c.smem_elems += frac(keep * nrhs, t);
        c.global_read += (nb.min(j0) * nrhs * S::BYTES) as u64;
        c.syncs += 1;
        j1 = j0;
    }
}

/// One system's counters of a launch whose blocks each hold one column
/// group ([`crate::gbtrs_blocked::column_groups`]) of `cols` columns
/// starting at `first`, merged over the groups as the engine merges
/// blocks: traffic and flops summed, the latency terms the slowest
/// group's. `group(width, starts)` predicts one block from its width and
/// its columns' sorted starts; blocks alike are predicted once.
fn merge_groups(
    cols: usize,
    groups: usize,
    first: Option<&[usize]>,
    group: impl Fn(usize, Option<&[usize]>) -> KernelCounters,
) -> KernelCounters {
    let (width, count) = crate::gbtrs_blocked::column_groups(cols, groups);
    let mut seen: Vec<((usize, Vec<usize>), KernelCounters)> = Vec::new();
    let mut c = KernelCounters::default();
    for g in 0..count {
        let r = g * width..((g + 1) * width).min(cols);
        let mut starts = first.map_or_else(Vec::new, |f| f[r.clone()].to_vec());
        starts.sort_unstable();
        let key = (r.len(), starts);
        let one = match seen.iter().find(|(k, _)| *k == key) {
            Some(&(_, one)) => one,
            None => {
                let one = group(key.0, first.map(|_| &key.1[..]));
                seen.push((key, one));
                one
            }
        };
        c.merge_wave(&one);
    }
    c
}

/// Per-system counters of the blocked solve's forward launch over `cols`
/// columns in `groups` groups, starting at `first` (all at row 0 when
/// `None`); `swaps` as in [`predict_forward_sweep`].
fn grouped_forward<S: Scalar>(
    l: &BandLayout,
    nb: usize,
    cols: usize,
    first: Option<&[usize]>,
    groups: usize,
    lanes: u32,
    swaps: bool,
) -> KernelCounters {
    merge_groups(cols, groups, first, |width, starts| {
        let mut c = KernelCounters::default();
        predict_forward_sweep::<S>(l, nb, width, starts, lanes, swaps, &mut c);
        c
    })
}

/// Per-system counters of the blocked solve's backward launch over
/// `cols` columns in `groups` groups.
fn grouped_backward<S: Scalar>(
    l: &BandLayout,
    nb: usize,
    cols: usize,
    groups: usize,
    lanes: u32,
) -> KernelCounters {
    merge_groups(cols, groups, None, |width, _| {
        let mut c = KernelCounters::default();
        predict_backward_sweep::<S>(l, nb, width, lanes, &mut c);
        c
    })
}

/// The launches of a blocked solve of `batch` systems of layout `l` over
/// `cols` RHS columns whose forward sweeps start at `first` (all at row 0
/// when `None`), run with `params` in `groups` column groups per system:
/// each launch has `batch` times the groups' count blocks, each caching
/// its own group. The forward launch, priced for a pivot swap at every
/// step, is listed only when `kl > 0` and `n > 1`, as the kernel runs it.
/// `None` when a launch cannot run.
fn predict_blocked_launches<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    batch: usize,
    cols: usize,
    first: Option<&[usize]>,
    params: &crate::gbtrs_blocked::SolveParams,
    groups: usize,
) -> Option<Vec<Launch>> {
    use crate::gbtrs_blocked::{backward_smem_bytes, column_groups, forward_smem_bytes};
    let nb = params.nb;
    let threads = params.threads.max((l.kl + 1) as u32);
    let lanes = threads.min(dev.lds_lanes);
    let (width, count) = column_groups(cols, groups);
    let launch = |kernel, smem: usize, c: &KernelCounters| {
        let cfg = LaunchConfig::new(threads, smem as u32).with_precision(crate::flop_class::<S>());
        let time = predict_grid_time(dev, &cfg, batch, count, c)?;
        Some(Launch {
            kernel,
            grid: batch * count,
            groups,
            time,
        })
    };
    let mut list = Vec::with_capacity(2);
    if l.kl > 0 && l.n > 1 {
        let c = grouped_forward::<S>(l, nb, cols, first, groups, lanes, true);
        let smem = forward_smem_bytes::<S>(l, nb, width);
        list.push(launch(Kernel::Forward, smem, &c)?);
    }
    let c = grouped_backward::<S>(l, nb, cols, groups, lanes);
    let smem = backward_smem_bytes::<S>(l, nb, width);
    list.push(launch(Kernel::Backward, smem, &c)?);
    Some(list)
}

/// The launches the SPIKE driver runs a blocked solve of `batch` systems
/// of layout `l` over `cols` columns (forward sweeps starting at `first`,
/// all at row 0 when `None`) as: those of the column-group count `g` in
/// `1..=min(cols, dev.sms / batch)` priced cheapest, ties keeping the
/// smaller `g`. The cap leaves
/// every split launch at most one block per SM: beyond the SMs a small
/// batch leaves idle, extra blocks only share an SM's shared-memory
/// throughput, which the timing model does not yet charge per SM. `None`
/// when no launch fits.
pub fn solve_groups<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    batch: usize,
    cols: usize,
    first: Option<&[usize]>,
    params: &crate::gbtrs_blocked::SolveParams,
) -> Option<Vec<Launch>> {
    let top = cols.min(dev.sms as usize / batch.max(1)).max(1);
    let mut best: Option<Vec<Launch>> = None;
    let mut seen = None;
    for g in 1..=top {
        // Group counts that split the columns alike price alike.
        let split = crate::gbtrs_blocked::column_groups(cols, g);
        if seen.replace(split) == Some(split) {
            continue;
        }
        let Some(list) = predict_blocked_launches::<S>(dev, l, batch, cols, first, params, g)
        else {
            continue;
        };
        if best
            .as_ref()
            .is_none_or(|b| total_time(&list).secs() < total_time(b).secs())
        {
            best = Some(list);
        }
    }
    best
}

/// Mirror of [`BlockContext::vec_work`] recording into a plain counter
/// struct (the interleaved kernels are barrier-free, so their whole
/// critical path is vector-sweep cycles).
fn vec(c: &mut KernelCounters, lanes: usize, flops_per_item: usize, threads: u32) {
    if lanes == 0 {
        return;
    }
    c.flops += (lanes * flops_per_item) as u64;
    c.cycles += lanes as f64 / threads as f64;
    c.lane_sweeps += lanes.div_ceil(BlockContext::SIMD_WIDTH as usize) as u64;
    c.lane_elems += lanes as u64;
}

/// Predicted per-block counters of the interleaved factorization
/// ([`crate::interleaved::gbtrf_batch_interleaved`]) for a chunk of
/// `lanes` batch lanes in the given traffic mode (`windowed = true` for
/// [`crate::interleaved::LaneTrafficMode::Windowed`]). The lockstep cost
/// is *structural* (mask-independent) and each block of the kernel records
/// exactly these counters, so this prediction is **exact**, not a bound.
pub fn predict_interleaved_factor<S: Scalar>(
    l: &BandLayout,
    lanes: usize,
    threads: u32,
    windowed: bool,
) -> KernelCounters {
    let mut c = KernelCounters::default();
    let kv = l.kv();
    let (n, kl) = (l.n, l.kl);
    if windowed {
        // Stream the band panel in.
        c.global_read += (l.len() * lanes * S::BYTES) as u64;
        vec(&mut c, l.len() * lanes, 0, threads);
    }
    // Prologue fill.
    let mut fill_items = 0usize;
    for j in (l.ku + 1)..kv.min(n) {
        fill_items += kl.saturating_sub(kv - j);
    }
    vec(&mut c, fill_items * lanes, 0, threads);
    if !windowed {
        c.global_write += (fill_items * lanes * S::BYTES) as u64;
    }
    for j in 0..l.m.min(n) {
        let km = l.km(j);
        let w = kv.min(n - 1 - j);
        if j + kv < n {
            vec(&mut c, kl * lanes, 0, threads); // fill-in column
            if !windowed {
                c.global_write += (kl * lanes * S::BYTES) as u64;
            }
        }
        // IAMAX + pivot store.
        vec(&mut c, (km + 1) * lanes, 0, threads);
        if !windowed {
            c.global_read += ((km + 1) * lanes * S::BYTES) as u64;
        }
        c.global_write += (lanes * 4) as u64;
        if !windowed {
            c.global_read += (lanes * S::BYTES) as u64; // pivot value re-read
        }
        // SWAP sweep.
        vec(&mut c, (w + 1) * lanes, 0, threads);
        if !windowed {
            c.global_read += (2 * (w + 1) * lanes * S::BYTES) as u64;
            c.global_write += (2 * (w + 1) * lanes * S::BYTES) as u64;
        }
        if km > 0 {
            vec(&mut c, km * lanes, 1, threads); // SCAL
            if !windowed {
                c.global_read += (km * lanes * S::BYTES) as u64;
                c.global_write += (km * lanes * S::BYTES) as u64;
            }
            vec(&mut c, w * lanes, 0, threads); // u-row loads
            vec(&mut c, w * km * lanes, 2, threads); // RANK-1
            if !windowed {
                c.global_read += (w * (1 + 2 * km) * lanes * S::BYTES) as u64;
                c.global_write += (w * km * lanes * S::BYTES) as u64;
            }
        }
    }
    if windowed {
        // Stream the factored panel out.
        c.global_write += (l.len() * lanes * S::BYTES) as u64;
        vec(&mut c, l.len() * lanes, 0, threads);
    }
    c.global_write += (lanes * 4) as u64; // info codes
    c
}

/// Predicted per-block counters of the interleaved solve
/// ([`crate::interleaved::gbtrs_batch_interleaved`]) for a chunk of
/// `lanes` batch lanes in the given traffic mode. Exact, like the factor
/// prediction: each block of the kernel records these counters.
pub fn predict_interleaved_solve<S: Scalar>(
    l: &BandLayout,
    nrhs: usize,
    lanes: usize,
    threads: u32,
    windowed: bool,
) -> KernelCounters {
    let mut c = KernelCounters::default();
    let kv = l.kv();
    let (n, kl) = (l.n, l.kl);
    if windowed {
        // Transposing gather of the RHS blocks into the resident scratch.
        c.global_read += (n * nrhs * lanes * S::BYTES) as u64;
        vec(&mut c, n * nrhs * lanes, 0, threads);
    }
    if kl > 0 {
        for j in 0..n - 1 {
            let lm = kl.min(n - 1 - j);
            c.global_read += (lanes * 4) as u64; // pivot row
            vec(&mut c, nrhs * lanes, 0, threads);
            if !windowed {
                c.global_read += (2 * nrhs * lanes * S::BYTES) as u64; // swap rows
                c.global_write += (2 * nrhs * lanes * S::BYTES) as u64;
            }
            if lm > 0 {
                c.global_read += (lm * lanes * S::BYTES) as u64; // L multipliers
                vec(&mut c, lm * nrhs * lanes, 2, threads);
                if !windowed {
                    c.global_read += ((1 + lm) * nrhs * lanes * S::BYTES) as u64;
                    c.global_write += (lm * nrhs * lanes * S::BYTES) as u64;
                }
            }
        }
    }
    for c_rhs in 0..nrhs {
        // Windowed, the whole RHS panel is resident, so each U column
        // (diagonal plus reach) is read once and applied to every RHS
        // column; streaming re-reads it per column.
        let read_u = !windowed || c_rhs == 0;
        for j in (0..n).rev() {
            let reach = kv.min(j);
            if read_u {
                c.global_read += ((reach + 1) * lanes * S::BYTES) as u64; // U column
            }
            vec(&mut c, lanes, 1, threads);
            if !windowed {
                c.global_read += (lanes * S::BYTES) as u64; // x[j] RMW
                c.global_write += (lanes * S::BYTES) as u64;
            }
            if reach > 0 {
                vec(&mut c, reach * lanes, 2, threads);
                if !windowed {
                    c.global_read += (reach * lanes * S::BYTES) as u64; // dst RMW
                    c.global_write += (reach * lanes * S::BYTES) as u64;
                }
            }
        }
    }
    if windowed {
        // Scatter back.
        c.global_write += (n * nrhs * lanes * S::BYTES) as u64;
        vec(&mut c, n * nrhs * lanes, 0, threads);
    }
    c
}

/// Predicted per-block counters of one layout-conversion pass
/// ([`crate::interleaved::interleave_launch`] /
/// [`crate::interleaved::deinterleave_launch`]) over `lanes` lanes.
pub fn predict_interleave_pass<S: Scalar>(
    l: &BandLayout,
    lanes: usize,
    threads: u32,
) -> KernelCounters {
    let mut c = KernelCounters::default();
    let elems = l.len();
    c.global_read += (elems * lanes * S::BYTES) as u64;
    c.global_write += (elems * lanes * S::BYTES) as u64;
    vec(&mut c, elems * lanes, 0, threads);
    c
}

/// Aggregate a per-chunk prediction over the lane chunks of a whole batch
/// (the grid has `ceil(batch / lanes_per_block)` blocks; the last one may
/// be partial) and price the launch exactly as the engine would.
pub fn predict_interleaved_time<S: Scalar>(
    dev: &DeviceSpec,
    batch: usize,
    params: &InterleavedParams,
    smem_bytes: u32,
    per_chunk: impl Fn(usize) -> KernelCounters,
) -> Option<SimTime> {
    let lpb = params.lanes_clamped(batch);
    let cfg = LaunchConfig::new(params.threads, smem_bytes);
    let occ = gbatch_gpu_sim::engine::validate(dev, &cfg).ok()?;
    let grid = batch.div_ceil(lpb);
    let full = per_chunk(lpb);
    let mut total = KernelCounters::default();
    for _ in 0..batch / lpb {
        total.merge_wave(&full);
    }
    let rem = batch % lpb;
    if rem > 0 {
        total.merge_wave(&per_chunk(rem));
    }
    Some(gbatch_gpu_sim::timing::estimate(
        dev,
        &occ,
        grid,
        &total,
        crate::flop_class::<S>(),
        dev.launch_overhead_s,
    ))
}

/// The launch list of the interleaved path: what [`crate::dispatch`] runs
/// for [`crate::dispatch::FactorAlgo::Interleaved`], in order. With
/// `factor`, a `gbtrf` (`nrhs == 0`) or `gbsv` call: factor, then solve
/// when `nrhs > 0`. Without, a solve-only `gbtrs` call over a factored
/// band: the solve. When a launch streams
/// ([`crate::interleaved::needs_layout_passes`]) a pack pass comes first,
/// and an unpack pass last when the call factors (a solve-only band is
/// read-only). Every time is the exact price of its launch. `None` when a
/// launch cannot run.
pub fn interleaved_launches<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    batch: usize,
    nrhs: usize,
    factor: bool,
    params: &InterleavedParams,
) -> Option<Vec<Launch>> {
    use crate::interleaved::{factor_mode, needs_layout_passes, solve_mode, LaneTrafficMode};
    let t = params.threads;
    let lpb = params.lanes_clamped(batch);
    let launch = |kernel, smem: usize, per_chunk: &dyn Fn(usize) -> KernelCounters| {
        let smem = u32::try_from(smem).ok()?;
        Some(Launch {
            kernel,
            grid: batch.div_ceil(lpb),
            groups: 1,
            time: predict_interleaved_time::<S>(dev, batch, params, smem, per_chunk)?,
        })
    };
    let pass = |k| launch(k, 0, &|lanes| predict_interleave_pass::<S>(l, lanes, t));
    let passes = needs_layout_passes::<S>(dev, l, batch, nrhs, factor, params);
    let mut list = Vec::with_capacity(4);
    if passes {
        list.push(pass(Kernel::Pack)?);
    }
    if factor {
        let win = factor_mode::<S>(dev, l, lpb) == LaneTrafficMode::Windowed;
        let smem = win.then(|| crate::interleaved::factor_smem_bytes::<S>(l, lpb));
        let smem = smem.unwrap_or(0);
        list.push(launch(Kernel::InterleavedFactor, smem, &|lanes| {
            predict_interleaved_factor::<S>(l, lanes, t, win)
        })?);
    }
    if nrhs > 0 {
        let win = solve_mode::<S>(dev, l, nrhs, lpb) == LaneTrafficMode::Windowed;
        let smem = win.then(|| crate::interleaved::solve_smem_bytes::<S>(l, nrhs, lpb));
        let smem = smem.unwrap_or(0);
        list.push(launch(Kernel::InterleavedSolve, smem, &|lanes| {
            predict_interleaved_solve::<S>(l, nrhs, lanes, t, win)
        })?);
    }
    if passes && factor {
        list.push(pass(Kernel::Unpack)?);
    }
    Some(list)
}

/// Per-launch prices of the SPIKE driver ([`crate::spike`]) over one
/// partition of one lane, each priced exactly as the engine would.
struct SpikePrices<'a, S> {
    dev: &'a DeviceSpec,
    params: &'a crate::spike::SpikeParams,
    part: SpikePartition,
    _s: std::marker::PhantomData<S>,
}

impl<S: Scalar> SpikePrices<'_, S> {
    /// A launch of `grid` blocks of `threads` threads and `smem` shared
    /// bytes, each recording `c`.
    fn launch(
        &self,
        kernel: Kernel,
        threads: u32,
        smem: usize,
        grid: usize,
        c: &KernelCounters,
    ) -> Option<Launch> {
        let cfg = LaunchConfig::new(threads, smem as u32).with_precision(crate::flop_class::<S>());
        let time = predict_time(self.dev, &cfg, grid, c)?;
        let groups = 1;
        Some(Launch {
            kernel,
            grid,
            groups,
            time,
        })
    }

    /// Coupling extraction: one block per interface, corners staged
    /// through shared memory.
    fn extract(&self) -> Option<Launch> {
        let (kl, ku, t) = (self.part.kl, self.part.ku, self.params.threads);
        let elems = kl * kl + ku * ku;
        let mut c = KernelCounters::default();
        c.global_read += (elems * S::BYTES) as u64;
        c.global_write += (elems * S::BYTES) as u64;
        c.smem_elems += 2.0 * frac(elems, t.min(self.dev.lds_lanes) as usize);
        c.syncs += 2;
        let smem = crate::spike::extract_smem_bytes::<S>(kl, ku);
        self.launch(Kernel::Extract, t, smem, self.part.interfaces(), &c)
    }

    /// Window factorization of `batch` systems of layout `l`.
    fn window(&self, l: &BandLayout, batch: usize) -> Option<Launch> {
        let p = self.params.window(l);
        let smem = crate::window::window_smem_bytes::<S>(l, p.nb);
        let c = predict_window::<S>(l, p.nb, p.threads.min(self.dev.lds_lanes));
        self.launch(Kernel::Window, p.threads, smem, batch, &c)
    }

    /// The blocked sweep of `batch` systems of layout `l` over `cols`
    /// columns whose forward sweeps start at `first` (all at row 0 when
    /// `None`), in the column groups [`solve_groups`] picks.
    fn sweep_launches(
        &self,
        l: &BandLayout,
        batch: usize,
        cols: usize,
        first: Option<&[usize]>,
    ) -> Option<Vec<Launch>> {
        let p = self.params.solve(l);
        solve_groups::<S>(self.dev, l, batch, cols, first, &p)
    }

    /// Combine: stage the interface slice, broadcast it, sweep owned rows.
    fn combine(&self, nrhs: usize) -> Option<Launch> {
        let (kl, ku, blk, t) = (
            self.part.kl,
            self.part.ku,
            self.part.block,
            self.params.threads,
        );
        let slice = (kl + ku) * nrhs;
        let mut c = KernelCounters::default();
        c.global_read += ((slice + blk * (nrhs + ku + kl)) * S::BYTES) as u64;
        c.global_write += (blk * nrhs * S::BYTES) as u64;
        c.smem_elems += 2.0 * frac(slice, t.min(self.dev.lds_lanes) as usize);
        c.syncs += 2;
        c.flops += (2 * blk * nrhs * (ku + kl)) as u64;
        c.cycles += frac(blk * nrhs * (ku + kl), t as usize);
        let smem = crate::spike::combine_smem_bytes::<S>(kl, ku, nrhs);
        self.launch(Kernel::Combine, t, smem, self.part.parts, &c)
    }

    /// Residual: lane-private row sweep over the block rows.
    fn residual(&self, nrhs: usize) -> Option<Launch> {
        let (kl, ku, blk, t) = (
            self.part.kl,
            self.part.ku,
            self.part.block,
            self.params.threads,
        );
        let w = kl + ku + 1;
        let mut c = KernelCounters::default();
        c.global_read += (blk * (w * (1 + nrhs) + nrhs) * S::BYTES) as u64;
        c.global_write += (blk * nrhs * S::BYTES) as u64;
        c.flops += (2 * blk * w * nrhs) as u64;
        c.cycles += frac(blk * w * nrhs, t as usize);
        self.launch(Kernel::Residual, t, 0, self.part.parts, &c)
    }

    /// Fused factorization of `batch` systems of layout `l`.
    fn fused(&self, l: &BandLayout, batch: usize) -> Option<Launch> {
        let t = self.params.threads_for(l);
        let smem = crate::fused::fused_smem_bytes::<S>(l.ldab, l.n);
        let c = predict_fused::<S>(l, t.min(self.dev.lds_lanes));
        self.launch(Kernel::Fused, t, smem, batch, &c)
    }
}

/// A path one lane of the SPIKE driver ([`crate::spike`]) runs, as
/// [`spike_launches`] lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpikePath {
    /// The decay probe of an `Auto` lane: extract, the window factorization
    /// of one sample block per cut, the sweep of their spike columns.
    Probe,
    /// The factor phase of every split lane: extract, the window
    /// factorization of the `P` blocks, the sweep of the augmented columns
    /// ([`crate::spike::augmented_starts`]).
    Front,
    /// The front, the reduced band's window factorization and sweep,
    /// combine and the residual guard: the worst case given the shape.
    Exact,
    /// The front, the fused factorization and sweep of the `P - 1`
    /// interface blocks, combine and one residual: no refinement round.
    Truncated,
    /// One refinement round: the block sweep of the residual, the
    /// interface sweep, combine and the next residual.
    Refine,
    /// A retained split factor: the front over the spikes, the reduced LU.
    Factor,
    /// A warm solve over retained factors: the two sweeps and combine.
    Warm,
    /// The unsplit fallback: the whole lane's window factor and solve.
    Unsplit,
}

/// The launches one lane of layout `l` runs on `path` at `params` against
/// `nrhs` RHS columns, in the driver's order, each priced exactly as the
/// engine would; the path's price is their [`total_time`]. Every split
/// sweep runs in the column groups [`solve_groups`] picks. `None` when
/// the partition degenerates to one block (every path but `Unsplit`), the
/// blocks are shorter than a probe sample, or a launch cannot fit.
pub fn spike_launches<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    nrhs: usize,
    params: &crate::spike::SpikeParams,
    path: SpikePath,
) -> Option<Vec<Launch>> {
    let part = SpikePartition::new(l.n, l.kl, l.ku, params.parts);
    let p = SpikePrices::<S> {
        dev,
        params,
        part,
        _s: std::marker::PhantomData,
    };
    let (parts, ifaces) = (part.parts, part.interfaces());
    let front = |cols: usize| {
        let bl = part.block_layout().ok()?;
        let first = crate::spike::augmented_starts(&part, cols);
        let sweep = p.sweep_launches(&bl, parts, first.len(), Some(&first))?;
        Some([vec![p.extract()?, p.window(&bl, parts)?], sweep].concat())
    };
    let list = match path {
        SpikePath::Unsplit => {
            let solve = predict_blocked_launches::<S>(dev, l, 1, nrhs, None, &params.solve(l), 1);
            [vec![p.window(l, 1)?], solve?].concat()
        }
        _ if parts < 2 => return None,
        SpikePath::Probe => {
            let (kl, ku) = (part.kl, part.ku);
            let rows = crate::spike::probe_rows(kl, ku);
            if part.block < rows {
                return None;
            }
            let sl = BandLayout::factor(rows, rows, kl, ku).ok()?;
            let first = crate::spike::spike_starts(rows, kl, ku, 0);
            let sweep = p.sweep_launches(&sl, ifaces, first.len(), Some(&first))?;
            [vec![p.extract()?, p.window(&sl, ifaces)?], sweep].concat()
        }
        SpikePath::Front => front(nrhs)?,
        SpikePath::Exact => {
            let rl = part.reduced_layout()?;
            let tail = vec![p.combine(nrhs)?, p.residual(nrhs)?];
            let sweep = p.sweep_launches(&rl, 1, nrhs, None)?;
            [front(nrhs)?, vec![p.window(&rl, 1)?], sweep, tail].concat()
        }
        SpikePath::Truncated => {
            let il = part.interface_layout()?;
            let tail = vec![p.combine(nrhs)?, p.residual(nrhs)?];
            let sweep = p.sweep_launches(&il, ifaces, nrhs, None)?;
            [front(nrhs)?, vec![p.fused(&il, ifaces)?], sweep, tail].concat()
        }
        SpikePath::Refine => {
            let (bl, il) = (part.block_layout().ok()?, part.interface_layout()?);
            let tail = vec![p.combine(nrhs)?, p.residual(nrhs)?];
            let blocks = p.sweep_launches(&bl, parts, nrhs, None)?;
            [blocks, p.sweep_launches(&il, ifaces, nrhs, None)?, tail].concat()
        }
        SpikePath::Factor => [front(0)?, vec![p.window(&part.reduced_layout()?, 1)?]].concat(),
        SpikePath::Warm => {
            let (bl, rl) = (part.block_layout().ok()?, part.reduced_layout()?);
            let blocks = p.sweep_launches(&bl, parts, nrhs, None)?;
            [
                blocks,
                p.sweep_launches(&rl, 1, nrhs, None)?,
                vec![p.combine(nrhs)?],
            ]
            .concat()
        }
    };
    Some(list)
}

/// The block sizes `nb` the paper's §5.3 tuning sweep tries.
pub const NB_GRID: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The SPIKE plan for one lane of layout `l`: the block count `P` (a
/// power of two `>= 2` within the partition clamp `P * (kl + ku + 1) <=
/// n`) and the stage block size `nb` (one of [`NB_GRID`]) whose exact
/// path ([`SpikePath::Exact`]) is priced cheapest, with that price.
/// Every other field comes from `base`. Splitting finer shortens the
/// block sweeps as `1/P` while the reduced band grows as `P`; `nb` trades
/// barriers against window traffic in every stage. Ties keep the smaller
/// `P`, then the smaller `nb`. `None` when no split can be priced.
///
/// The sweep prices about a hundred candidates, so its outcome is
/// memoized per device, shape, precision, `nrhs` and `base.threads`,
/// the only inputs the prices read.
pub fn choose_spike_params<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    nrhs: usize,
    base: &crate::spike::SpikeParams,
) -> Option<(crate::spike::SpikeParams, SimTime)> {
    static MEMO: SpikeMemo = std::sync::Mutex::new(Vec::new());
    let range = [2, spike_max_parts(l)];
    let key = spike_key::<S>(dev, l, nrhs, base.threads, range);
    let best = memoized(&MEMO, key, || {
        spike_argmin(range, |(parts, nb)| {
            let params = base.with_parts(parts).with_nb(nb);
            let list = spike_launches::<S>(dev, l, nrhs, &params, SpikePath::Exact)?;
            Some(total_time(&list))
        })
    });
    best.map(|(parts, nb, t)| (base.with_parts(parts).with_nb(nb), t))
}

/// The plan of a lane that takes the truncated path: the block count `P`
/// (a power of two from `exact.parts` up to `max_parts`) and `nb` (one of
/// [`NB_GRID`]) whose truncated path ([`SpikePath::Truncated`])
/// is priced cheapest, with that price. `exact` is the lane's exact plan
/// ([`choose_spike_params`]); every other field comes from it. Ties keep
/// the smaller `P`, then the smaller `nb`; memoized like
/// [`choose_spike_params`], with `exact.parts` and `max_parts` in the key.
/// `None` when no candidate can be priced.
pub fn choose_spike_truncated_params<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    nrhs: usize,
    exact: &crate::spike::SpikeParams,
    max_parts: usize,
) -> Option<(crate::spike::SpikeParams, SimTime)> {
    static MEMO: SpikeMemo = std::sync::Mutex::new(Vec::new());
    let range = [exact.parts, max_parts.min(spike_max_parts(l))];
    let key = spike_key::<S>(dev, l, nrhs, exact.threads, range);
    let best = memoized(&MEMO, key, || {
        spike_argmin(range, |(parts, nb)| {
            let params = exact.with_parts(parts).with_nb(nb);
            let list = spike_launches::<S>(dev, l, nrhs, &params, SpikePath::Truncated)?;
            Some(total_time(&list))
        })
    });
    best.map(|(parts, nb, t)| (exact.with_parts(parts).with_nb(nb), t))
}

/// Whether an `Auto` lane planned at `exact` should run the decay probe:
/// its price must be below the most sizing can save, the truncated price
/// at `exact` minus the cheapest truncated price up to the top of the
/// partition clamp.
pub fn spike_probe_pays<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    nrhs: usize,
    exact: &crate::spike::SpikeParams,
) -> bool {
    let price = |path| spike_launches::<S>(dev, l, nrhs, exact, path).map(|l| total_time(&l));
    let prices = (
        price(SpikePath::Probe),
        price(SpikePath::Truncated),
        choose_spike_truncated_params::<S>(dev, l, nrhs, exact, usize::MAX),
    );
    match prices {
        (Some(probe), Some(at_exact), Some((_, best))) => {
            probe.secs() < at_exact.secs() - best.secs()
        }
        _ => false,
    }
}

/// The largest block count the partition clamp allows, rounded down to a
/// power of two: `P * (kl + ku + 1) <= n`.
pub fn spike_max_parts(l: &BandLayout) -> usize {
    let cap = l.n / (l.kl + l.ku + 1);
    if cap == 0 {
        0
    } else {
        1 << cap.ilog2()
    }
}

/// Memo key of a SPIKE argmin: device, `[n, kl, ku, nrhs]`, precision,
/// `threads` and the `[from, to]` block-count range, the only inputs the
/// prices read.
type SpikeKey = (
    DeviceSpec,
    [usize; 4],
    gbatch_core::scalar::Precision,
    u32,
    [usize; 2],
);
type SpikeMemo = std::sync::Mutex<Vec<(SpikeKey, Option<(usize, usize, SimTime)>)>>;

fn spike_key<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    nrhs: usize,
    threads: u32,
    range: [usize; 2],
) -> SpikeKey {
    (
        dev.clone(),
        [l.n, l.kl, l.ku, nrhs],
        S::PRECISION,
        threads,
        range,
    )
}

/// Look `key` up in `memo`, or compute and insert it (the oldest of
/// `MEMO_CAP` entries gives way).
fn memoized(
    memo: &SpikeMemo,
    key: SpikeKey,
    sweep: impl FnOnce() -> Option<(usize, usize, SimTime)>,
) -> Option<(usize, usize, SimTime)> {
    const MEMO_CAP: usize = 64;
    let lock = || memo.lock().expect("no thread panics holding the plan memo");
    if let Some(hit) = lock().iter().find(|(k, _)| *k == key) {
        return hit.1;
    }
    let best = sweep();
    let mut m = lock();
    if m.len() == MEMO_CAP {
        m.remove(0);
    }
    m.push((key, best));
    best
}

/// The sweep behind both SPIKE argmins: `(P, nb, price)` over the powers
/// of two `P` in `from..=to` and [`NB_GRID`], cheapest first found.
fn spike_argmin(
    [from, to]: [usize; 2],
    price: impl Fn((usize, usize)) -> Option<SimTime>,
) -> Option<(usize, usize, SimTime)> {
    let mut best: Option<(usize, usize, SimTime)> = None;
    for parts in (1..usize::BITS)
        .map(|k| 1usize << k)
        .skip_while(|&p| p < from)
        .take_while(|&p| p <= to)
    {
        for nb in NB_GRID {
            let Some(t) = price((parts, nb)) else {
                continue;
            };
            if best.is_none_or(|(_, _, b)| t.secs() < b.secs()) {
                best = Some((parts, nb, t));
            }
        }
    }
    best
}

/// Lower bound on the §5.1 fork–join reference factorization:
/// `2 * min(m, n) + 1` launch overheads plus one once-through pass over
/// the band panels at full bandwidth. The real path is data-dependent and
/// strictly slower (per-column traffic, partial-bandwidth launches), so a
/// floor is all the layout decision needs — it only ever compares a
/// candidate *against* this path, and beating the floor beats the path.
pub fn predict_reference_floor<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    batch: usize,
) -> SimTime {
    let launches = 2 * l.m.min(l.n) + 1;
    let bytes = (2 * l.len() * batch * S::BYTES) as f64;
    SimTime(launches as f64 * dev.launch_overhead_s + bytes / dev.mem_bw)
}

/// Predicted modeled time of a uniform batched launch of `batch` blocks
/// that each record `per_block`: validates the configuration and prices
/// the launch exactly as the engine would (cold launch overhead). Returns
/// `None` when the launch cannot run (shared memory).
pub fn predict_time(
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    batch: usize,
    per_block: &KernelCounters,
) -> Option<gbatch_gpu_sim::SimTime> {
    predict_grid_time(dev, cfg, batch, 1, per_block)
}

/// [`predict_time`] of a launch of `batch` systems that each run `blocks`
/// blocks, whose counters merged over one system's blocks are
/// `per_system`: the grid is `batch * blocks`.
fn predict_grid_time(
    dev: &DeviceSpec,
    cfg: &LaunchConfig,
    batch: usize,
    blocks: usize,
    per_system: &KernelCounters,
) -> Option<gbatch_gpu_sim::SimTime> {
    let occ = gbatch_gpu_sim::engine::validate(dev, cfg).ok()?;
    let total = KernelCounters {
        global_read: per_system.global_read * batch as u64,
        global_write: per_system.global_write * batch as u64,
        flops: per_system.flops * batch as u64,
        ..*per_system
    };
    Some(gbatch_gpu_sim::timing::estimate(
        dev,
        &occ,
        batch * blocks,
        &total,
        cfg.precision,
        dev.launch_overhead_s,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::batch::{BandBatch, InfoArray, PivotBatch};
    use gbatch_gpu_sim::DeviceSpec;

    fn random_batch(batch: usize, n: usize, kl: usize, ku: usize) -> BandBatch {
        let mut v = 0.37f64;
        BandBatch::from_fn(batch, n, n, kl, ku, |_, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    v = (v * 2.2 + 0.111).fract();
                    m.set(i, j, v - 0.5);
                }
            }
        })
        .unwrap()
    }

    #[test]
    fn fused_traffic_prediction_is_exact() {
        let dev = DeviceSpec::h100_pcie();
        let (n, kl, ku, batch) = (32usize, 2usize, 3usize, 4usize);
        let mut a = random_batch(batch, n, kl, ku);
        let l = a.layout();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let rep = crate::fused::gbtrf_batch_fused(
            &dev,
            &mut a,
            &mut piv,
            &mut info,
            crate::fused::FusedParams {
                threads: 32,
                ..Default::default()
            },
        )
        .unwrap();
        let pred = predict_fused::<f64>(&l, 32);
        assert_eq!(rep.counters.global_read, pred.global_read * batch as u64);
        assert_eq!(rep.counters.global_write, pred.global_write * batch as u64);
    }

    #[test]
    fn window_traffic_prediction_is_exact() {
        let dev = DeviceSpec::h100_pcie();
        let (n, kl, ku, nb, batch) = (48usize, 2usize, 3usize, 8usize, 3usize);
        let mut a = random_batch(batch, n, kl, ku);
        let l = a.layout();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let rep = crate::window::gbtrf_batch_window(
            &dev,
            &mut a,
            &mut piv,
            &mut info,
            crate::window::WindowParams {
                nb,
                threads: 32,
                ..Default::default()
            },
        )
        .unwrap();
        let pred = predict_window::<f64>(&l, nb, 32);
        assert_eq!(rep.counters.global_read, pred.global_read * batch as u64);
        assert_eq!(rep.counters.global_write, pred.global_write * batch as u64);
    }

    #[test]
    fn predicted_cycles_upper_bound_actual() {
        // Worst-case pivoting assumption => predicted critical path must be
        // at least the recorded one, and not absurdly larger.
        let dev = DeviceSpec::h100_pcie();
        for (n, kl, ku) in [(32usize, 2usize, 3usize), (48, 10, 7)] {
            let batch = 3;
            let mut a = random_batch(batch, n, kl, ku);
            let l = a.layout();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let rep = crate::fused::gbtrf_batch_fused(
                &dev,
                &mut a,
                &mut piv,
                &mut info,
                crate::fused::FusedParams {
                    threads: 32,
                    ..Default::default()
                },
            )
            .unwrap();
            let pred = predict_fused::<f64>(&l, 32.min(dev.lds_lanes));
            assert!(
                pred.smem_elems >= rep.counters.smem_elems,
                "prediction must upper-bound"
            );
            assert!(
                pred.smem_elems <= 3.0 * rep.counters.smem_elems,
                "prediction too loose"
            );
            assert!(pred.syncs >= rep.counters.syncs);
        }
    }

    #[test]
    fn interleaved_predictions_are_exact() {
        // The interleaved kernels record structurally (mask-independent),
        // so the analytic model must reproduce the launch report *exactly*
        // — counters and modeled time — even with a partial tail chunk.
        use crate::interleaved::{
            gbtrf_batch_interleaved, gbtrs_batch_interleaved, interleave_launch, InterleavedParams,
        };
        use gbatch_core::batch::RhsBatch;
        let dev = DeviceSpec::h100_pcie();
        let (n, kl, ku, batch, nrhs) = (20usize, 2usize, 3usize, 11usize, 2usize);
        let mut a = random_batch(batch, n, kl, ku);
        let l = a.layout();
        let params = InterleavedParams {
            lanes_per_block: 4, // chunks of 4, 4, 3
            threads: 32,
            ..Default::default()
        };
        let t = params.threads;

        let conv_rep = interleave_launch(&dev, &a.layout(), a.data(), params).unwrap();
        let conv_time = predict_interleaved_time::<f64>(&dev, batch, &params, 0, |lanes| {
            predict_interleave_pass::<f64>(&l, lanes, t)
        })
        .unwrap();
        assert_eq!(conv_time, conv_rep.time, "conversion time exact");

        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let rep = gbtrf_batch_interleaved(&dev, &mut a, &mut piv, &mut info, params).unwrap();
        let mut agg = KernelCounters::default();
        for lanes in [4usize, 4, 3] {
            agg.merge_wave(&predict_interleaved_factor::<f64>(&l, lanes, t, true));
        }
        assert_eq!(agg, rep.counters, "factor counters exact");
        let fsmem = crate::interleaved::factor_smem_bytes::<f64>(&l, 4) as u32;
        let time = predict_interleaved_time::<f64>(&dev, batch, &params, fsmem, |lanes| {
            predict_interleaved_factor::<f64>(&l, lanes, t, true)
        })
        .unwrap();
        assert_eq!(time, rep.time, "factor time exact");

        let mut rhs = RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
            (id + i * 3 + c) as f64 * 0.01 + 0.5
        })
        .unwrap();
        let srep =
            gbtrs_batch_interleaved(&dev, &a.layout(), a.data(), &piv, &mut rhs, &info, params)
                .unwrap();
        let mut sagg = KernelCounters::default();
        for lanes in [4usize, 4, 3] {
            sagg.merge_wave(&predict_interleaved_solve::<f64>(&l, nrhs, lanes, t, true));
        }
        assert_eq!(sagg, srep.counters, "solve counters exact");
    }

    #[test]
    fn streaming_predictions_are_exact() {
        // Same exactness claim for the streaming traffic mode: a band too
        // wide for the test device's 16 KiB shared memory drops both
        // kernels to per-primitive DRAM traffic, and the model follows.
        use crate::interleaved::{
            factor_mode, gbtrf_batch_interleaved, gbtrs_batch_interleaved, solve_mode,
            InterleavedParams, LaneTrafficMode,
        };
        use gbatch_core::batch::RhsBatch;
        let dev = DeviceSpec::test_device();
        let (n, kl, ku, batch, nrhs) = (64usize, 12usize, 12usize, 6usize, 16usize);
        let mut a = random_batch(batch, n, kl, ku);
        let l = a.layout();
        let params = InterleavedParams {
            lanes_per_block: 4, // chunks of 4, 2
            threads: 32,
            ..Default::default()
        };
        let t = params.threads;
        assert_eq!(factor_mode::<f64>(&dev, &l, 4), LaneTrafficMode::Streaming);
        assert_eq!(
            solve_mode::<f64>(&dev, &l, nrhs, 4),
            LaneTrafficMode::Streaming
        );

        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let rep = gbtrf_batch_interleaved(&dev, &mut a, &mut piv, &mut info, params).unwrap();
        let mut agg = KernelCounters::default();
        for lanes in [4usize, 2] {
            agg.merge_wave(&predict_interleaved_factor::<f64>(&l, lanes, t, false));
        }
        assert_eq!(agg, rep.counters, "streaming factor counters exact");
        let time = predict_interleaved_time::<f64>(&dev, batch, &params, 0, |lanes| {
            predict_interleaved_factor::<f64>(&l, lanes, t, false)
        })
        .unwrap();
        assert_eq!(time, rep.time, "streaming factor time exact");

        let mut rhs = RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
            (id + i * 3 + c) as f64 * 0.01 + 0.5
        })
        .unwrap();
        let srep =
            gbtrs_batch_interleaved(&dev, &a.layout(), a.data(), &piv, &mut rhs, &info, params)
                .unwrap();
        let mut sagg = KernelCounters::default();
        for lanes in [4usize, 2] {
            sagg.merge_wave(&predict_interleaved_solve::<f64>(&l, nrhs, lanes, t, false));
        }
        assert_eq!(sagg, srep.counters, "streaming solve counters exact");
    }

    #[test]
    fn windowed_solve_reads_u_once_for_all_rhs_columns() {
        // Windowed, the RHS panel is resident, so one more RHS column adds
        // only its own gather; streaming re-reads every U column (diagonal
        // plus reach) per RHS column, with the RHS read-modify-writes.
        let (lanes, t) = (8usize, 64u32);
        let b = (lanes * std::mem::size_of::<f64>()) as u64;
        for (n, kl, ku) in [(64usize, 2usize, 3usize), (40, 10, 7), (9, 0, 2)] {
            let l = BandLayout::factor(n, n, kl, ku).unwrap();
            let kv = l.kv() as u64;
            let reads = |nrhs, windowed| {
                predict_interleaved_solve::<f64>(&l, nrhs, lanes, t, windowed).global_read
            };
            let mut streaming_per_rhs = 0u64;
            for j in 0..n as u64 {
                let reach = kv.min(j);
                streaming_per_rhs += (reach + 1) + 1 + reach; // U column, x[j] RMW, dst RMW
                if kl > 0 && j + 1 < n as u64 {
                    let lm = (kl as u64).min(n as u64 - 1 - j);
                    streaming_per_rhs += 2 + if lm > 0 { 1 + lm } else { 0 }; // swap, axpy
                }
            }
            for nrhs in 1..5 {
                let grow = |windowed| reads(nrhs + 1, windowed) - reads(nrhs, windowed);
                assert_eq!(grow(true), n as u64 * b, "n={n} ({kl},{ku}) windowed");
                assert_eq!(
                    grow(false),
                    streaming_per_rhs * b,
                    "n={n} ({kl},{ku}) streaming"
                );
            }
        }
    }

    #[test]
    fn crossover_has_three_regimes() {
        // The layout dimension of the §5.4 selection logic has three
        // regimes on the calibration grid:
        //
        // 1. small n, large batch: the fused kernel pays 3 barriers per
        //    column, the interleaved kernel pays none — interleaved wins
        //    (the Gloster et al. regime). Its factor launch is windowed, so
        //    the column-major API adds no conversion pass;
        // 2. mid-size bands at large batch: the sliding window wins even
        //    against the pass-free windowed interleaved factor;
        // 3. very wide bands: no column-major kernel fits shared memory, so
        //    the column path is the 2n+1-launch reference fallback, and
        //    streaming interleaved wins *despite* paying both conversion
        //    passes.
        let dev = DeviceSpec::h100_pcie();

        // Regime 1: the factor launch alone.
        let small = BandLayout::factor(16, 16, 1, 1).unwrap();
        let params = InterleavedParams::auto(&dev, &small, 0);
        let fused_cfg = LaunchConfig::new(32, (small.len() * 8) as u32);
        let column =
            predict_time(&dev, &fused_cfg, 10_000, &predict_fused::<f64>(&small, 32)).unwrap();
        let lanes = params.lanes_clamped(10_000);
        let windowed = crate::interleaved::factor_mode::<f64>(&dev, &small, lanes)
            == crate::interleaved::LaneTrafficMode::Windowed;
        let smem = match windowed {
            true => crate::interleaved::factor_smem_bytes::<f64>(&small, lanes) as u32,
            false => 0,
        };
        let inter = predict_interleaved_time::<f64>(&dev, 10_000, &params, smem, |lanes| {
            predict_interleaved_factor::<f64>(&small, lanes, params.threads, windowed)
        })
        .unwrap();
        assert!(
            inter.secs() < column.secs(),
            "batch=10000 n=16 tridiagonal (native): interleaved {:.1}us should beat fused {:.1}us",
            inter.us(),
            column.us()
        );

        // ... and through the column-major API the plan prices exactly that
        // launch: a windowed factor needs no pack or unpack pass.
        assert!(!crate::interleaved::needs_layout_passes::<f64>(
            &dev, &small, 10_000, 0, true, &params
        ));
        let dispatch = |l: &BandLayout, batch: usize, params: &InterleavedParams| {
            total_time(&interleaved_launches::<f64>(&dev, l, batch, 0, true, params).unwrap())
        };
        let inter_api = dispatch(&small, 10_000, &params);
        assert_eq!(inter_api, inter, "batch=10000 n=16: no conversion passes");

        // Regime 2: mid-size band at large batch — the sliding window
        // wins. Its per-block barrier/LDS latency is paid once per
        // occupancy wave, so it amortizes across a full device.
        let big = BandLayout::factor(512, 512, 8, 8).unwrap();
        let params_big = InterleavedParams::auto(&dev, &big, 0);
        let wide_cfg = LaunchConfig::new(
            128,
            crate::window::window_smem_bytes::<f64>(&big, 16) as u32,
        );
        let column_big =
            predict_time(&dev, &wide_cfg, 4000, &predict_window::<f64>(&big, 16, 128)).unwrap();
        let inter_big = dispatch(&big, 4000, &params_big);
        assert!(
            inter_big.secs() >= column_big.secs(),
            "batch=4000 n=512 kl=ku=8: window {:.1}us should beat interleaved {:.1}us",
            column_big.us(),
            inter_big.us()
        );

        // Regime 3: band too wide for any column-major kernel (fused and
        // window both exceed shared memory), so the column side is the
        // reference fallback paying 2n+1 launch overheads — which never
        // amortize over a small batch. Streaming interleaved (one launch)
        // wins despite the conversion and its ~3x per-primitive traffic.
        let huge = BandLayout::factor(512, 512, 200, 200).unwrap();
        let fused_huge = LaunchConfig::new(
            128,
            crate::fused::fused_smem_bytes::<f64>(huge.ldab, huge.n) as u32,
        );
        assert!(gbatch_gpu_sim::engine::validate(&dev, &fused_huge).is_err());
        let window_huge = LaunchConfig::new(
            128,
            crate::window::window_smem_bytes::<f64>(&huge, 1) as u32,
        );
        assert!(gbatch_gpu_sim::engine::validate(&dev, &window_huge).is_err());
        let params_huge = InterleavedParams::auto(&dev, &huge, 0);
        let inter_huge = dispatch(&huge, 4, &params_huge);
        // The streaming factor pays both conversion passes.
        assert!(crate::interleaved::needs_layout_passes::<f64>(
            &dev,
            &huge,
            4,
            0,
            true,
            &params_huge
        ));
        let t = params_huge.threads;
        let pass = predict_interleaved_time::<f64>(&dev, 4, &params_huge, 0, |lanes| {
            predict_interleave_pass::<f64>(&huge, lanes, t)
        })
        .unwrap();
        let factor_huge = predict_interleaved_time::<f64>(&dev, 4, &params_huge, 0, |lanes| {
            predict_interleaved_factor::<f64>(&huge, lanes, t, false)
        })
        .unwrap();
        assert_eq!(
            inter_huge,
            pass + factor_huge + pass,
            "pack + factor + unpack"
        );
        let reference_floor = predict_reference_floor::<f64>(&dev, &huge, 4);
        assert!(
            inter_huge.secs() < reference_floor.secs(),
            "batch=4 n=512 kl=ku=200: streaming interleaved {:.1}us should beat the \
             reference floor {:.1}us",
            inter_huge.us(),
            reference_floor.us()
        );
        // At large batch the traffic term takes over and the ranking flips
        // back — the layout decision sees both sides of the regime.
        let inter_many = dispatch(&huge, 256, &params_huge);
        let floor_many = predict_reference_floor::<f64>(&dev, &huge, 256);
        assert!(
            inter_many.secs() >= floor_many.secs(),
            "batch=256 n=512 kl=ku=200: the reference floor {:.1}us should beat \
             streaming interleaved {:.1}us",
            floor_many.us(),
            inter_many.us()
        );
    }

    /// The [`total_time`] of [`spike_launches`].
    fn spike_price<S: Scalar>(
        dev: &DeviceSpec,
        l: &BandLayout,
        nrhs: usize,
        params: &crate::spike::SpikeParams,
        path: SpikePath,
    ) -> Option<SimTime> {
        spike_launches::<S>(dev, l, nrhs, params, path).map(|list| total_time(&list))
    }

    #[test]
    fn chosen_spike_params_stay_in_the_clamp_and_beat_nb_eight() {
        use crate::spike::SpikeParams;
        for dev in [DeviceSpec::h100_pcie(), DeviceSpec::mi250x_gcd()] {
            for n in [crate::dispatch::SPIKE_MIN_N, 10_000, 65_536] {
                for (kl, ku) in [(2, 2), (8, 8), (3, 5), (16, 4), (1, 0)] {
                    let l = BandLayout::factor(n, n, kl, ku).unwrap();
                    let base = SpikeParams::auto(&dev, kl);
                    let (params, t) = choose_spike_params::<f64>(&dev, &l, 1, &base).unwrap();
                    let parts = params.parts;
                    assert!(
                        parts.is_power_of_two() && parts >= 2,
                        "{n} ({kl},{ku}): P={parts}"
                    );
                    assert!(
                        parts * (kl + ku + 1) <= n,
                        "{n} ({kl},{ku}): P={parts} past the clamp"
                    );
                    assert!(NB_GRID.contains(&params.nb));
                    assert_eq!(params, base.with_parts(parts).with_nb(params.nb));
                    let exact =
                        |p: &SpikeParams| spike_price::<f64>(&dev, &l, 1, p, SpikePath::Exact);
                    assert_eq!(exact(&params), Some(t));
                    // The untuned `nb = 8` at every block count is one of
                    // the candidates, so it never prices below the choice.
                    for p in (1..usize::BITS)
                        .map(|k| 1usize << k)
                        .take_while(|&p| p * (kl + ku + 1) <= n)
                    {
                        let at8 = base.with_parts(p).with_nb(8);
                        if let Some(t8) = exact(&at8) {
                            assert!(
                                t.secs() <= t8.secs(),
                                "{n} ({kl},{ku}): chosen {params:?} above P={p} nb=8"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn headline_spike_plan_is_pinned() {
        // n = 65536, kl = ku = 8: the block sweeps shrink as 1/P until the
        // reduced band LU (order 16 (P - 1)) takes over, at P = 32 on both
        // devices. Every stage gets cheaper with fewer, longer window
        // iterations up to the top of the grid, so the untuned nb = 8
        // gives way to nb = 64 (H100 exact path 7.93 -> 6.86 ms).
        let l = BandLayout::factor(65_536, 65_536, 8, 8).unwrap();
        for (dev, want) in [
            (DeviceSpec::h100_pcie(), (32, 64)),
            (DeviceSpec::mi250x_gcd(), (32, 64)),
        ] {
            let base = crate::spike::SpikeParams::auto(&dev, 8);
            let (params, _) = choose_spike_params::<f64>(&dev, &l, 1, &base).unwrap();
            assert_eq!((params.parts, params.nb), want, "{}", dev.name);
        }
    }

    /// One random operator of layout `(n, kl, ku)`, its diagonal raised
    /// above the column sum when `dominant`.
    fn operator(n: usize, kl: usize, ku: usize, dominant: bool) -> BandBatch {
        let mut a = random_batch(1, n, kl, ku);
        if dominant {
            let mut m = a.matrix_mut(0);
            for j in 0..n {
                let d = m.get(j, j);
                m.set(j, j, d + (kl + ku + 1) as f64);
            }
        }
        a
    }

    #[test]
    fn probe_launches_are_priced() {
        // The probe runs its planned list launch for launch. Extract
        // records data-independent work, so its price equals its report
        // bitwise. The window factorization and the forward sweep are
        // priced for a pivot swap at every step, and the backward sweep
        // for a full cache shift per block, so their prices bound what
        // any operator records.
        use crate::spike::{decay_probe, SpikeParams};
        use gbatch_core::spike::SpikePartition;
        for dev in [DeviceSpec::h100_pcie(), DeviceSpec::mi250x_gcd()] {
            for (n, kl, ku, parts) in [
                (2048, 8, 8, 16),
                (4096, 2, 2, 32),
                (1024, 0, 4, 8),
                (1024, 4, 0, 8),
            ] {
                for dominant in [true, false] {
                    let a = operator(n, kl, ku, dominant);
                    let l = a.layout();
                    let params = SpikeParams::auto(&dev, kl).with_parts(parts).with_nb(16);
                    let part = SpikePartition::new(n, kl, ku, parts);
                    let mut got = Vec::new();
                    let block = decay_probe(&dev, &a, 0, &part, &params, &mut got).unwrap();
                    let case = format!("{} n={n} ({kl},{ku}) dominant={dominant}", dev.name);
                    assert_eq!(block.is_some(), dominant, "{case}: {block:?}");
                    let want = spike_launches::<f64>(&dev, &l, 1, &params, SpikePath::Probe);
                    let want = want.unwrap();
                    assert_eq!(got.len(), want.len(), "{case}: one price per launch");
                    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                        let shape = |x: &Launch| (x.kernel, x.grid, x.groups);
                        assert_eq!(shape(g), shape(w), "{case}: launch {k}");
                        assert!(g.time.secs() <= w.time.secs(), "{case}: launch {k}");
                    }
                    let extract = |x: &[Launch]| x[0].time.secs().to_bits();
                    assert_eq!(extract(&got), extract(&want), "{case}");
                    assert!(
                        total_time(&got).secs() <= total_time(&want).secs(),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_price_bounds_the_zero_round_truncated_path() {
        use crate::spike::{spike_gbsv_batch, SpikeOutcome, SpikeParams};
        use gbatch_core::batch::RhsBatch;
        for dev in [DeviceSpec::h100_pcie(), DeviceSpec::mi250x_gcd()] {
            for (n, kl, ku, parts, nb) in [
                (4096, 8, 8, 32, 64),
                (4096, 2, 2, 128, 16),
                (2048, 0, 4, 32, 8),
                (2048, 4, 0, 32, 32),
            ] {
                let a0 = operator(n, kl, ku, true);
                let params = SpikeParams::auto(&dev, kl).with_parts(parts).with_nb(nb);
                let mut a = a0.clone();
                let mut piv = PivotBatch::new(1, n, n);
                let mut info = InfoArray::new(1);
                let mut rhs = RhsBatch::from_fn(1, n, 1, |_, i, _| (i % 7) as f64 - 3.0).unwrap();
                let rep =
                    spike_gbsv_batch(&dev, &mut a, &mut piv, &mut rhs, &mut info, params).unwrap();
                let case = format!("{} n={n} ({kl},{ku}) P={parts} nb={nb}", dev.name);
                assert_eq!(
                    rep.outcomes,
                    vec![SpikeOutcome::Truncated { refine_iters: 0 }],
                    "{case}"
                );
                let l = a0.layout();
                let want = spike_launches::<f64>(&dev, &l, 1, &params, SpikePath::Truncated);
                let want = want.unwrap();
                let shape = |x: &Launch| (x.kernel, x.grid, x.groups);
                let got: Vec<_> = rep.launches.iter().map(shape).collect();
                assert_eq!(got, want.iter().map(shape).collect::<Vec<_>>(), "{case}");
                let price = total_time(&want);
                assert!(
                    rep.time().secs() <= price.secs(),
                    "{case}: ran {:.4} ms, priced {:.4} ms",
                    rep.time().ms(),
                    price.ms()
                );
            }
        }
    }

    #[test]
    fn sized_spike_plan_is_pinned() {
        // The lone_large shape: the exact plan stays (32, 64) on both
        // devices. Its dominant lanes' probe allows blocks of 128 rows
        // (P = 512), where the truncated path, with no reduced band to
        // grow, is cheapest at the top of the range.
        let l = BandLayout::factor(65_536, 65_536, 8, 8).unwrap();
        for (dev, sized) in [
            (DeviceSpec::h100_pcie(), (512, 64)),
            (DeviceSpec::mi250x_gcd(), (512, 32)),
        ] {
            let base = crate::spike::SpikeParams::auto(&dev, 8);
            let (exact, _) = choose_spike_params::<f64>(&dev, &l, 1, &base).unwrap();
            assert_eq!((exact.parts, exact.nb), (32, 64), "{}", dev.name);
            assert!(spike_probe_pays::<f64>(&dev, &l, 1, &exact), "{}", dev.name);
            let (params, t) =
                choose_spike_truncated_params::<f64>(&dev, &l, 1, &exact, 512).unwrap();
            assert_eq!((params.parts, params.nb), sized, "{}", dev.name);
            assert_eq!(params, exact.with_parts(sized.0).with_nb(sized.1));
            assert_eq!(
                spike_price::<f64>(&dev, &l, 1, &params, SpikePath::Truncated),
                Some(t)
            );
        }
    }

    #[test]
    fn grouped_sweeps_price_what_a_swap_free_operator_records() {
        // Diagonally dominant blocks never pivot, so the forward launch
        // records no swap work; everything else the grouped predictor
        // prices for each block's active columns, bit for bit, at every
        // group count, and the launch time follows from the counters. The
        // backward predictor charges an `nb`-row cache shift per block,
        // while the kernel moves the `kv` rows it keeps, so it bounds the
        // launch only where `nb >= kv`.
        use crate::gbtrs_blocked::{blocked_solve, column_groups, SolveParams};
        use gbatch_core::batch::RhsBatch;
        let dev = DeviceSpec::h100_pcie();
        for (n, kl, ku, nb) in [
            (40usize, 3usize, 2usize, 8usize),
            (64, 8, 8, 4),
            (33, 2, 5, 32),
        ] {
            let batch = 2;
            let mut a = random_batch(batch, n, kl, ku);
            for id in 0..batch {
                let mut m = a.matrix_mut(id);
                for j in 0..n {
                    let d = m.get(j, j);
                    m.set(j, j, d + 10.0);
                }
            }
            let l = a.layout();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let _ = crate::window::gbtrf_batch_window(
                &dev,
                &mut a,
                &mut piv,
                &mut info,
                crate::window::WindowParams::auto(&dev, kl),
            )
            .unwrap();
            assert!((0..batch).all(|id| {
                let p = piv.pivots(id);
                (0..n).all(|j| p[j] as usize == j)
            }));
            let first = [0, n - 10, n / 2, 0, 3];
            let cols = first.len();
            for groups in 1..=cols {
                let case = format!("n={n} ({kl},{ku}) nb={nb} groups={groups}");
                let mut rhs = RhsBatch::from_fn(batch, n, cols, |_, i, c| {
                    if i < first[c] + kl {
                        0.0
                    } else {
                        (i + c) as f64 * 0.1 - 1.0
                    }
                })
                .unwrap();
                let params = SolveParams {
                    nb,
                    threads: 32,
                    ..Default::default()
                };
                let rep = blocked_solve(
                    &dev,
                    &l,
                    a.data(),
                    &piv,
                    &mut rhs,
                    Some(&first),
                    params,
                    groups,
                )
                .unwrap();
                let (width, count) = column_groups(cols, groups);
                let fwd = rep.forward.unwrap();
                assert_eq!(fwd.grid, batch * count, "{case}");
                let got = fwd.counters;
                let want = grouped_forward::<f64>(&l, nb, cols, Some(&first), groups, 32, false);
                assert_eq!(got.global_read, want.global_read * batch as u64, "{case}");
                assert_eq!(got.global_write, want.global_write * batch as u64, "{case}");
                assert_eq!(got.flops, want.flops * batch as u64, "{case}");
                assert_eq!(got.syncs, want.syncs, "{case}");
                assert_eq!(
                    got.smem_elems.to_bits(),
                    want.smem_elems.to_bits(),
                    "{case}"
                );
                let cfg = LaunchConfig::new(
                    32,
                    crate::gbtrs_blocked::forward_smem_bytes::<f64>(&l, nb, width) as u32,
                )
                .with_precision(crate::flop_class::<f64>());
                let time = predict_grid_time(&dev, &cfg, batch, count, &want).unwrap();
                assert_eq!(fwd.time.secs().to_bits(), time.secs().to_bits(), "{case}");
                let planned = predict_blocked_launches::<f64>(
                    &dev,
                    &l,
                    batch,
                    cols,
                    Some(&first),
                    &params,
                    groups,
                )
                .unwrap();
                let backward = planned.last().unwrap().time;
                assert_eq!(rep.backward.grid, batch * count, "{case}");
                if nb >= l.kv() {
                    assert!(rep.backward.time.secs() <= backward.secs(), "{case}");
                }
            }
        }
    }

    #[test]
    fn predict_time_rejects_impossible_configs() {
        let dev = DeviceSpec::mi250x_gcd();
        let c = KernelCounters::default();
        let bad = LaunchConfig::new(32, dev.max_smem_per_block + 1);
        assert!(predict_time(&dev, &bad, 10, &c).is_none());
        let ok = LaunchConfig::new(32, 1024);
        assert!(predict_time(&dev, &ok, 10, &c).is_some());
    }

    #[test]
    fn window_cost_grows_linearly_with_n() {
        let l1 = BandLayout::factor(256, 256, 2, 3).unwrap();
        let l2 = BandLayout::factor(512, 512, 2, 3).unwrap();
        let c1 = predict_window::<f64>(&l1, 8, 32);
        let c2 = predict_window::<f64>(&l2, 8, 32);
        let r = c2.smem_elems / c1.smem_elems;
        assert!(
            (r - 2.0).abs() < 0.15,
            "smem work should scale ~linearly, got {r:.2}"
        );
        let rt = c2.global_bytes() as f64 / c1.global_bytes() as f64;
        assert!(
            (rt - 2.0).abs() < 0.15,
            "traffic should scale ~linearly, got {rt:.2}"
        );
    }
}
