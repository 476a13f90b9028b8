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

use crate::interleaved::InterleavedParams;
use gbatch_core::layout::BandLayout;
use gbatch_core::scalar::Scalar;
use gbatch_gpu_sim::{BlockContext, DeviceSpec, KernelCounters, LaunchConfig, SimTime};

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
    let t = lanes as usize;
    let n = l.n;
    let kv = l.kv();
    let kl = l.kl;
    let mut c = KernelCounters::default();

    // ---- forward sweep (skipped when kl == 0) ----
    if kl > 0 && n > 1 {
        let cache_rows = (nb + kl).min(n);
        c.global_read += (cache_rows.min(n) * nrhs * S::BYTES) as u64;
        c.syncs += 1;
        let mut j0 = 0usize;
        let mut loaded = cache_rows.min(n);
        while j0 < n {
            let jb = nb.min(n - j0);
            for j in j0..j0 + jb {
                if j >= n - 1 {
                    break;
                }
                let lm = kl.min(n - 1 - j);
                c.smem_elems += frac(nrhs, t); // pivot swap (worst case)
                if lm > 0 {
                    c.global_read += (lm * S::BYTES) as u64;
                    c.smem_elems += frac(nrhs * lm, t);
                    c.flops += (2 * nrhs * lm) as u64;
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

    // ---- backward sweep ----
    let cache_rows = (nb + kv).min(n);
    c.global_read += (cache_rows.min(n) * nrhs * S::BYTES) as u64;
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
    c
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

/// Predicted cost of the whole interleaved dispatch path — the launches
/// [`crate::dispatch`] issues for
/// [`crate::dispatch::FactorAlgo::Interleaved`]. With `factor`, a
/// `gbtrf` (`nrhs == 0`) or `gbsv` call: factor, then solve when
/// `nrhs > 0`. Without, a solve-only `gbtrs` call over a factored band:
/// the solve. When a launch streams
/// ([`crate::interleaved::needs_layout_passes`]) the plan adds a pack
/// pass, and an unpack pass when it factors (a solve-only band is
/// read-only). Every term is the exact price of its launch. `None` when a
/// launch cannot run.
pub fn predict_interleaved_dispatch<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    batch: usize,
    nrhs: usize,
    factor: bool,
    params: &InterleavedParams,
) -> Option<SimTime> {
    use crate::interleaved::{factor_mode, needs_layout_passes, solve_mode, LaneTrafficMode};
    let t = params.threads;
    let lpb = params.lanes_clamped(batch);
    let pass = if needs_layout_passes::<S>(dev, l, batch, nrhs, factor, params) {
        let pass = predict_interleaved_time::<S>(dev, batch, params, 0, |lanes| {
            predict_interleave_pass::<S>(l, lanes, t)
        })?;
        Some(pass)
    } else {
        None
    };
    // Summed in launch order, so the price equals the executed report's
    // time bitwise.
    let mut total = SimTime(0.0);
    if let Some(pack) = pass {
        total += pack;
    }
    if factor {
        let fwin = factor_mode::<S>(dev, l, lpb) == LaneTrafficMode::Windowed;
        let fsmem = if fwin {
            u32::try_from(crate::interleaved::factor_smem_bytes::<S>(l, lpb)).ok()?
        } else {
            0
        };
        total += predict_interleaved_time::<S>(dev, batch, params, fsmem, |lanes| {
            predict_interleaved_factor::<S>(l, lanes, t, fwin)
        })?;
    }
    if nrhs > 0 {
        let swin = solve_mode::<S>(dev, l, nrhs, lpb) == LaneTrafficMode::Windowed;
        let ssmem = if swin {
            u32::try_from(crate::interleaved::solve_smem_bytes::<S>(l, nrhs, lpb)).ok()?
        } else {
            0
        };
        total += predict_interleaved_time::<S>(dev, batch, params, ssmem, |lanes| {
            predict_interleaved_solve::<S>(l, nrhs, lanes, t, swin)
        })?;
    }
    if let (Some(unpack), true) = (pass, factor) {
        total += unpack;
    }
    Some(total)
}

/// Per-launch prices of the SPIKE driver ([`crate::spike`]) over one
/// partition of one lane, each priced exactly as the engine would.
struct SpikePrices<'a, S> {
    dev: &'a DeviceSpec,
    params: &'a crate::spike::SpikeParams,
    part: gbatch_core::spike::SpikePartition,
    /// Diagonal-block layout.
    bl: BandLayout,
    /// Exact reduced band layout (factored and solved at batch 1).
    rl: BandLayout,
    _s: std::marker::PhantomData<S>,
}

impl<'a, S: Scalar> SpikePrices<'a, S> {
    /// `None` when the partition degenerates to one block.
    fn new(
        dev: &'a DeviceSpec,
        l: &BandLayout,
        params: &'a crate::spike::SpikeParams,
    ) -> Option<Self> {
        let part = gbatch_core::spike::SpikePartition::new(l.n, l.kl, l.ku, params.parts);
        if part.parts < 2 {
            return None;
        }
        Some(SpikePrices {
            dev,
            params,
            part,
            bl: part.block_layout().ok()?,
            rl: part.reduced_layout()?,
            _s: std::marker::PhantomData,
        })
    }

    fn cfg(&self, threads: u32, smem: usize) -> LaunchConfig {
        LaunchConfig::new(threads, smem as u32).with_precision(crate::flop_class::<S>())
    }

    /// Coupling extraction: one block per interface, corners staged
    /// through shared memory.
    fn extract(&self) -> Option<SimTime> {
        let (kl, ku, t) = (self.part.kl, self.part.ku, self.params.threads);
        let elems = kl * kl + ku * ku;
        let mut c = KernelCounters::default();
        c.global_read += (elems * S::BYTES) as u64;
        c.global_write += (elems * S::BYTES) as u64;
        c.smem_elems += 2.0 * frac(elems, t as usize);
        c.syncs += 2;
        let cfg = self.cfg(t, crate::spike::extract_smem_bytes::<S>(kl, ku));
        predict_time(self.dev, &cfg, self.part.interfaces(), &c)
    }

    /// The shared-memory parallelism a launch of `threads` records.
    fn lanes(&self, threads: u32) -> u32 {
        threads.min(self.dev.lds_lanes)
    }

    /// Window factorization of `batch` systems of layout `l`.
    fn window(&self, l: &BandLayout, batch: usize) -> Option<SimTime> {
        let p = self.params.window(l);
        let cfg = self.cfg(p.threads, crate::window::window_smem_bytes::<S>(l, p.nb));
        predict_time(
            self.dev,
            &cfg,
            batch,
            &predict_window::<S>(l, p.nb, self.lanes(p.threads)),
        )
    }

    /// Blocked solve of `batch` systems of layout `l` over `cols` columns.
    fn solve(&self, l: &BandLayout, batch: usize, cols: usize) -> Option<SimTime> {
        let p = self.params.solve(l);
        let smem = crate::gbtrs_blocked::forward_smem_bytes::<S>(l, p.nb, cols).max(
            crate::gbtrs_blocked::backward_smem_bytes::<S>(l, p.nb, cols),
        );
        let cfg = self.cfg(p.threads, smem);
        predict_time(
            self.dev,
            &cfg,
            batch,
            &predict_gbtrs_blocked::<S>(l, p.nb, cols, self.lanes(p.threads)),
        )
    }

    /// Combine: stage the interface slice, broadcast it, sweep owned rows.
    fn combine(&self, nrhs: usize) -> Option<SimTime> {
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
        c.smem_elems += 2.0 * frac(slice, t as usize);
        c.syncs += 2;
        c.flops += (2 * blk * nrhs * (ku + kl)) as u64;
        c.cycles += frac(blk * nrhs * (ku + kl), t as usize);
        let cfg = self.cfg(t, crate::spike::combine_smem_bytes::<S>(kl, ku, nrhs));
        predict_time(self.dev, &cfg, self.part.parts, &c)
    }

    /// Residual: lane-private row sweep over the block rows.
    fn residual(&self, nrhs: usize) -> Option<SimTime> {
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
        predict_time(self.dev, &self.cfg(t, 0), self.part.parts, &c)
    }

    /// The factor phase every split lane runs before its reduced solve:
    /// extract, the window factorization of the `P` diagonal blocks as
    /// one launch, the blocked sweep over `cols` augmented columns (the
    /// true RHS plus both spikes).
    fn factor_phase(&self, cols: usize) -> Option<SimTime> {
        let parts = self.part.parts;
        Some(self.extract()? + self.window(&self.bl, parts)? + self.solve(&self.bl, parts, cols)?)
    }
}

/// Predicted modeled time of the SPIKE split solve of **one** lane
/// ([`crate::spike::spike_gbsv_batch`]) on its **exact** path: extract,
/// the window factorization of the `P` diagonal blocks, the blocked solve
/// over the augmented RHS (`nrhs + kl + ku` columns), the batch-1 window
/// factorization and blocked solve of the reduced band, combine and the
/// residual guard. This is the worst case a lane can take given only its
/// shape: a lane whose spikes decay takes the cheaper truncated path
/// (a fused factorization and blocked solve over the `P - 1` interface
/// blocks instead of the reduced band). `None` when the partition
/// degenerates to one block or a launch cannot fit.
pub fn predict_spike_time<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    nrhs: usize,
    params: &crate::spike::SpikeParams,
) -> Option<SimTime> {
    let p = SpikePrices::<S>::new(dev, l, params)?;
    Some(
        p.factor_phase(nrhs + l.kl + l.ku)?
            + p.window(&p.rl, 1)?
            + p.solve(&p.rl, 1, nrhs)?
            + p.combine(nrhs)?
            + p.residual(nrhs)?,
    )
}

/// Predicted modeled time of one lane's exact SPIKE *factorization* — what
/// a retained split factor costs: extract, the block window
/// factorization, the spike sweep over the `kl + ku` corner columns and
/// the reduced band LU. `None` when the partition degenerates to one
/// block or a launch cannot fit.
pub fn predict_spike_factor_time<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    params: &crate::spike::SpikeParams,
) -> Option<SimTime> {
    let p = SpikePrices::<S>::new(dev, l, params)?;
    Some(p.factor_phase(l.kl + l.ku)? + p.window(&p.rl, 1)?)
}

/// Predicted modeled time of one lane's warm SPIKE solve over retained
/// factors: the blocked solve of the `P` diagonal blocks over the true
/// RHS columns, the reduced band solve, then the combine sweep. `None`
/// when the partition degenerates to one block or a launch cannot fit.
pub fn predict_spike_warm_time<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    nrhs: usize,
    params: &crate::spike::SpikeParams,
) -> Option<SimTime> {
    let p = SpikePrices::<S>::new(dev, l, params)?;
    Some(p.solve(&p.bl, p.part.parts, nrhs)? + p.solve(&p.rl, 1, nrhs)? + p.combine(nrhs)?)
}

/// The SPIKE block count for one lane of layout `l`: the power of two
/// `P >= 2` within the partition clamp (`P * (kl + ku + 1) <= n`) whose
/// exact path ([`predict_spike_time`]) is priced cheapest, with that
/// price. Splitting finer shortens the block sweeps as `1/P` while the
/// reduced band grows as `P`; the argmin balances the two. Ties keep the
/// smaller `P`. `None` when no split can be priced.
pub fn choose_spike_parts<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    nrhs: usize,
    params: &crate::spike::SpikeParams,
) -> Option<(usize, SimTime)> {
    let max_parts = l.n / (l.kl + l.ku + 1);
    let mut best: Option<(usize, SimTime)> = None;
    for parts in (1..usize::BITS)
        .map(|k| 1usize << k)
        .take_while(|&p| p <= max_parts)
    {
        let Some(t) = predict_spike_time::<S>(dev, l, nrhs, &params.with_parts(parts)) else {
            continue;
        };
        if best.is_none_or(|(_, b)| t.secs() < b.secs()) {
            best = Some((parts, t));
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
    let occ = gbatch_gpu_sim::engine::validate(dev, cfg).ok()?;
    let total = KernelCounters {
        global_read: per_block.global_read * batch as u64,
        global_write: per_block.global_write * batch as u64,
        flops: per_block.flops * batch as u64,
        ..*per_block
    };
    Some(gbatch_gpu_sim::timing::estimate(
        dev,
        &occ,
        batch,
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
        let inter_api =
            predict_interleaved_dispatch::<f64>(&dev, &small, 10_000, 0, true, &params).unwrap();
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
        let inter_big =
            predict_interleaved_dispatch::<f64>(&dev, &big, 4000, 0, true, &params_big).unwrap();
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
        let inter_huge =
            predict_interleaved_dispatch::<f64>(&dev, &huge, 4, 0, true, &params_huge).unwrap();
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
        let inter_many =
            predict_interleaved_dispatch::<f64>(&dev, &huge, 256, 0, true, &params_huge).unwrap();
        let floor_many = predict_reference_floor::<f64>(&dev, &huge, 256);
        assert!(
            inter_many.secs() >= floor_many.secs(),
            "batch=256 n=512 kl=ku=200: the reference floor {:.1}us should beat \
             streaming interleaved {:.1}us",
            floor_many.us(),
            inter_many.us()
        );
    }

    #[test]
    fn chosen_spike_parts_stay_in_the_clamp_and_beat_eight() {
        use crate::spike::SpikeParams;
        for dev in [DeviceSpec::h100_pcie(), DeviceSpec::mi250x_gcd()] {
            for n in [crate::dispatch::SPIKE_MIN_N, 10_000, 65_536] {
                for (kl, ku) in [(2, 2), (8, 8), (3, 5), (16, 4), (1, 0)] {
                    let l = BandLayout::factor(n, n, kl, ku).unwrap();
                    let params = SpikeParams::auto(&dev, kl);
                    let (parts, t) = choose_spike_parts::<f64>(&dev, &l, 1, &params).unwrap();
                    let at =
                        |p: usize| predict_spike_time::<f64>(&dev, &l, 1, &params.with_parts(p));
                    assert!(
                        parts.is_power_of_two() && parts >= 2,
                        "{n} ({kl},{ku}): P={parts}"
                    );
                    assert!(
                        parts * (kl + ku + 1) <= n,
                        "{n} ({kl},{ku}): P={parts} past the clamp"
                    );
                    assert_eq!(at(parts), Some(t));
                    let p8 = at(8).unwrap();
                    assert!(
                        t.secs() <= p8.secs(),
                        "{n} ({kl},{ku}): P={parts} above P=8"
                    );
                }
            }
        }
    }

    #[test]
    fn headline_spike_parts_are_pinned() {
        // n = 65536, kl = ku = 8: the block sweeps shrink as 1/P until the
        // reduced band LU (order 16 (P - 1)) takes over.
        let l = BandLayout::factor(65_536, 65_536, 8, 8).unwrap();
        for (dev, want) in [
            (DeviceSpec::h100_pcie(), 32),
            (DeviceSpec::mi250x_gcd(), 32),
        ] {
            let params = crate::spike::SpikeParams::auto(&dev, 8);
            let (parts, _) = choose_spike_parts::<f64>(&dev, &l, 1, &params).unwrap();
            assert_eq!(parts, want, "{}", dev.name);
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
