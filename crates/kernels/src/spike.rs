//! SPIKE-style split solve of one large band system on the device
//! (Li/Serban/Negrut, arXiv:1509.07919) — the workspace's third dispatch
//! regime, parallelizing *inside* a matrix instead of across the batch.
//!
//! The host-side math (partitioning, reduced-system assembly) lives in
//! [`gbatch_core::spike`]; this module adds the device choreography:
//!
//! 1. the `P` diagonal blocks of one operator ride a single
//!    [`gbtrf_batch_window`] launch as an intra-matrix batch, so the
//!    existing window kernel factors all blocks concurrently;
//! 2. one [`gbtrs_batch_blocked`] launch over the **augmented** RHS
//!    (`nrhs` true columns + the coupling corners) produces every block
//!    solution `g_p` and both spikes `V_p`, `W_p` at once;
//!    like every blocked sweep of the split, it spreads each block's
//!    columns over the SMs the `P` blocks leave idle, in the column
//!    groups [`crate::cost::solve_groups`] prices cheapest;
//! 3. the reduced system over the interfaces runs on the same batched
//!    band kernels: the exact one as a batch-1 window factorization plus
//!    blocked solve of its band form, the truncated one as a fused
//!    factorization plus blocked solve batched over its `P - 1` interface
//!    blocks;
//! 4. two small coupling kernels — `spike_extract` (stages the cut
//!    corners through shared memory) and `spike_combine` (broadcasts the
//!    solved interface values and back-substitutes) — carry the new
//!    communication pattern, with lane annotations for the runtime
//!    hazard detector and declarative access models for
//!    `cargo xtask verify-kernels`;
//! 5. a lane-private `spike_residual` kernel prices the residual guard and
//!    the refinement residuals of the truncated mode.
//!
//! **Mode choice.** Truncation drops the interface-to-interface coupling
//! of the reduced system (keeping only each cut's own `kl + ku` square
//! block — the classic truncated-SPIKE `DS` approximation), which is
//! accurate when the spikes decay. Each lane reads the decay off the full
//! spikes it already computed: when every dropped tip is at most
//! [`DECAY_BOUND`] the lane takes the truncated path, wrapped in
//! iterative refinement; otherwise it goes straight to the exact reduced
//! system. A residual-based guarantee makes the API never worse than the
//! sequential driver: refinement that stalls falls back to the exact
//! reduced system (reusing the factored blocks and spikes), and any
//! remaining failure falls back to the unsplit window+blocked path that
//! dispatch would have run anyway, on the pristine right-hand side.
//! `P = 1` *is* that unsplit path, bit for bit.
//!
//! **Sizing.** The exact plan `P_e` ([`crate::cost::choose_spike_params`])
//! is priced on the exact path, whose reduced band grows with `P`; a lane
//! whose spikes decay runs the truncated path, which splits finer for
//! less. Under `Auto` dispatch, when the probe is priced below the most
//! sizing can save ([`crate::cost::spike_probe_pays`]), each lane first
//! runs a decay probe: one sample block of [`probe_rows`] rows ending at
//! each cut of `P_e`, factored and swept over its spike columns by the
//! same extract, window and blocked-solve launches (batch `P_e - 1`).
//! Each sample's spike tips against its corner rows give a decay rate per
//! row; extrapolated geometrically, the slowest sample names the shortest
//! block whose tips reach [`DECAY_BOUND`]. The lane then runs the
//! truncated-path argmin ([`crate::cost::choose_spike_truncated_params`])
//! up to the block count that length allows. A sized lane that leaves
//! the truncated path for any reason reruns the exact plan at `P_e` from
//! its pristine band and right-hand side, with the full chain above; it
//! never solves the exact reduced system at the sized `P`. A lane whose
//! sample tips do not decay is not sized and runs `P_e` unchanged.
//!
//! **Launch lists.** Each path is priced as the list
//! [`crate::cost::spike_launches`] builds for it; the driver records the
//! launches it runs in the same form ([`SpikeReport::launches`]), from
//! which the report's time and launch count come.

use crate::cost::{total_time, Kernel, Launch};
use crate::dispatch::{agree, check_pivots, check_rhs};
use crate::fused::{gbtrf_batch_fused, FusedParams};
use crate::gbtrs_blocked::{blocked_solve, gbtrs_batch_blocked, BlockedSolveReport, SolveParams};
use crate::window::{gbtrf_batch_window, WindowParams};
use gbatch_core::batch::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch_core::layout::BandLayout;
use gbatch_core::scalar::Scalar;
use gbatch_core::spike::{
    assemble_reduced, assemble_reduced_rhs, assemble_truncated, augmented_rhs, extract_blocks,
    extract_samples, SpikeCoupling, SpikePartition,
};
use gbatch_gpu_sim::{
    launch, DeviceSpec, LaunchConfig, LaunchError, LaunchReport, ParallelPolicy, SimTime,
};

// ---- Acceptance thresholds of the split driver ----

/// Largest coupling truncation may drop: a lane whose dropped spike tips
/// (the top `ku` rows of every interior `V_p`, the bottom `kl` rows of
/// every interior `W_p`) are all at most this in magnitude takes the
/// truncated path. The tips are scale-free (`A_p^{-1}` times a corner of
/// the same operator), and refinement contracts the truncation error by
/// roughly their size per round, so below `1e-8` a lane needs no round in
/// `f32` and at most one in `f64`. Anything larger — or a NaN — goes
/// straight to the exact reduced system.
pub const DECAY_BOUND: f64 = 1e-8;

/// Truncated-mode target, in units of `eps · ‖f‖∞`: refinement stops once
/// `‖f - A x‖∞ <= TRUNCATED_TARGET · eps · ‖f‖∞` (a zero `‖f‖` reads
/// as 1).
pub const TRUNCATED_TARGET: f64 = 10.0;

/// [`TRUNCATED_TARGET`] applied to a lane with right-hand side norm `f`.
fn truncated_tol<S: Scalar>(f: S) -> S {
    let f = if f == S::ZERO { S::ONE } else { f };
    S::from_f64(TRUNCATED_TARGET) * S::EPSILON * f
}

/// Exact-path residual guard: an exact split answer is committed only
/// when `‖f - A x‖∞ <= sqrt(eps) · max(‖f‖∞, 1)`; anything worse falls
/// back to the unsplit path.
fn exact_guard<S: Scalar>(f: S) -> S {
    S::EPSILON.sqrt() * f.max(S::ONE)
}

/// Whether the reduced system keeps the full interface coupling or may
/// truncate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpikeMode {
    /// Solve the exact reduced system: the answer matches the sequential
    /// driver to working accuracy.
    Exact,
    /// Let each lane choose from its spike decay: truncated-SPIKE
    /// preconditioner + iterative refinement when the dropped tips are
    /// below [`DECAY_BOUND`] (falling back to [`SpikeMode::Exact`], then
    /// to the unsplit path, when refinement stalls), the exact reduced
    /// system otherwise.
    Truncated,
}

/// Tunables of the split solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpikeParams {
    /// Requested number of diagonal blocks (clamped by
    /// [`SpikePartition::new`]).
    pub parts: usize,
    /// Reduced-system treatment.
    pub mode: SpikeMode,
    /// Refinement-iteration cap of the truncated mode.
    pub max_refine: usize,
    /// Window/solve block size forwarded to the per-block kernels.
    pub nb: usize,
    /// Threads per block for every launch (raised to `kl + 1` of the
    /// system a launch factors or solves).
    pub threads: u32,
    /// Host scheduling of the per-block lanes (results are
    /// bitwise-identical for every policy).
    pub parallel: ParallelPolicy,
}

impl Default for SpikeParams {
    fn default() -> Self {
        SpikeParams {
            parts: 8,
            mode: SpikeMode::Truncated,
            max_refine: 8,
            nb: 8,
            threads: 32,
            parallel: ParallelPolicy::Serial,
        }
    }
}

impl SpikeParams {
    /// Untuned defaults for a bandwidth: one warp (or enough to cover
    /// `kl + 1` threads), eight blocks, per-lane mode choice with
    /// refinement. Dispatch replaces the block count and `nb` with the
    /// pair [`crate::cost::choose_spike_params`] prices cheapest.
    pub fn auto(dev: &DeviceSpec, kl: usize) -> Self {
        SpikeParams {
            threads: ((kl + 1) as u32).div_ceil(dev.warp_size) * dev.warp_size,
            ..Default::default()
        }
    }

    /// Builder: set the block count.
    pub fn with_parts(mut self, parts: usize) -> Self {
        self.parts = parts;
        self
    }

    /// Builder: set the window/solve block size of every stage.
    pub fn with_nb(mut self, nb: usize) -> Self {
        self.nb = nb;
        self
    }

    /// Builder: set the reduced-system mode.
    pub fn with_mode(mut self, mode: SpikeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder: set the host scheduling policy.
    pub fn with_parallel(mut self, parallel: ParallelPolicy) -> Self {
        self.parallel = parallel;
        self
    }

    /// Threads of a launch over systems of layout `l`.
    pub(crate) fn threads_for(&self, l: &BandLayout) -> u32 {
        self.threads.max((l.kl + 1) as u32)
    }

    pub(crate) fn window(&self, l: &BandLayout) -> WindowParams {
        WindowParams {
            nb: self.nb,
            threads: self.threads_for(l),
            parallel: self.parallel,
        }
    }

    /// Blocked-solve params over systems of layout `l`.
    pub(crate) fn solve(&self, l: &BandLayout) -> SolveParams {
        SolveParams {
            nb: self.nb,
            threads: self.threads_for(l),
            parallel: self.parallel,
        }
    }
}

/// Which path answered for one lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpikeOutcome {
    /// Exact reduced system, split solve: forced by [`SpikeMode::Exact`],
    /// or chosen because the lane's spikes do not decay.
    Exact,
    /// Truncated preconditioner converged after this many refinement
    /// iterations.
    Truncated {
        /// Refinement iterations taken.
        refine_iters: usize,
    },
    /// Truncated refinement stalled; the exact reduced system answered.
    ExactFallback {
        /// Refinement iterations spent before falling back.
        refine_iters: usize,
    },
    /// Split solve unavailable (one-block partition, a singular block, or
    /// a singular reduced system): the unsplit window+blocked path
    /// answered — bitwise what dispatch runs today.
    Unsplit,
}

/// The partition one lane answered from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpikeLanePlan {
    /// Effective block count after partition clamping.
    pub parts: usize,
    /// Window/solve block size of every stage.
    pub nb: usize,
    /// The sized `(P, nb)` the lane tried first and abandoned when it left
    /// the truncated path; `None` when the lane was not sized or its sized
    /// attempt answered.
    pub abandoned: Option<(usize, usize)>,
}

/// Aggregate report of a [`spike_gbsv_batch`] call.
#[derive(Debug, Clone)]
pub struct SpikeReport {
    /// Effective block count of the plan the call was given, after
    /// partition clamping.
    pub parts: usize,
    /// Per-lane outcome.
    pub outcomes: Vec<SpikeOutcome>,
    /// Per-lane partition.
    pub lanes: Vec<SpikeLanePlan>,
    /// Every launch of the call: the decay probes' in order, then the
    /// split solves' in order.
    pub launches: Vec<Launch>,
    /// How many of [`Self::launches`] are the decay probes'.
    pub probe_launches: usize,
}

impl SpikeReport {
    /// Modeled time of the decay probes.
    pub fn probe_time(&self) -> SimTime {
        total_time(&self.launches[..self.probe_launches])
    }

    /// Total modeled time across every launch of every lane: the decay
    /// probes' time plus the split solves'.
    pub fn time(&self) -> SimTime {
        self.probe_time() + total_time(&self.launches[self.probe_launches..])
    }
}

/// First forward-sweep step of each augmented column
/// ([`augmented_rhs`]: `nrhs` true columns, `ku` right-spike, `kl`
/// left-spike), the `first` of
/// [`crate::gbtrs_blocked::gbtrs_batch_blocked_from`]. A right-spike
/// column holds its `B` corner in the block's bottom `ku` true rows (and
/// nothing in the last block), so its leading `block - ku` rows are zero
/// and its sweep starts at `block - ku - kl`, saturating at 0. Every
/// other column starts at 0.
pub fn augmented_starts(part: &SpikePartition, nrhs: usize) -> Vec<usize> {
    spike_starts(part.block, part.kl, part.ku, nrhs)
}

/// [`augmented_starts`] for blocks of `block` rows and bandwidths
/// `(kl, ku)`.
pub fn spike_starts(block: usize, kl: usize, ku: usize, nrhs: usize) -> Vec<usize> {
    let mut first = vec![0; nrhs + ku + kl];
    first[nrhs..nrhs + ku].fill(block.saturating_sub(ku + kl));
    first
}

/// Rows of one decay-probe sample block: twice the coupling width, so
/// each spike runs `kl + ku` rows or more from its corner to the rows
/// truncation would drop.
pub fn probe_rows(kl: usize, ku: usize) -> usize {
    2 * (kl + ku)
}

/// Shared bytes of the `spike_extract` kernel: both coupling corners of
/// one interface (`kl^2 + ku^2` elements of `S`).
pub fn extract_smem_bytes<S: Scalar>(kl: usize, ku: usize) -> usize {
    (kl * kl + ku * ku) * S::BYTES
}

/// Shared bytes of the `spike_combine` kernel: the interface slice one
/// block consumes (`(kl + ku) * nrhs` elements of `S`).
pub fn combine_smem_bytes<S: Scalar>(kl: usize, ku: usize, nrhs: usize) -> usize {
    (kl + ku) * nrhs * S::BYTES
}

struct ExtractProb<'a, S> {
    iface: usize,
    b: &'a mut [S],
    c: &'a mut [S],
}

/// Split a corner array into one chunk per interface, tolerating the
/// zero-width side of a one-sided band (`kl == 0` or `ku == 0`).
fn corner_chunks<S>(v: &mut [S], size: usize, count: usize) -> Vec<&mut [S]> {
    if size == 0 {
        (0..count).map(|_| -> &mut [S] { &mut [] }).collect()
    } else {
        v.chunks_mut(size).take(count).collect()
    }
}

/// Device extraction of the coupling corners: one block per interface
/// stages its `B`/`C` corner entries through shared memory (a
/// striped-write / barrier / striped-read echo of the real kernel's
/// gather-then-scatter) and writes them to the corner arrays.
pub(crate) fn spike_extract_launch<S: Scalar>(
    dev: &DeviceSpec,
    a: &BandBatch<S>,
    lane: usize,
    part: &SpikePartition,
    params: &SpikeParams,
) -> Result<(SpikeCoupling<S>, LaunchReport), LaunchError> {
    let (kl, ku) = (part.kl, part.ku);
    let ifaces = part.interfaces();
    let mut b = vec![S::ZERO; ifaces * ku * ku];
    let mut c = vec![S::ZERO; ifaces * kl * kl];
    let aref = a.matrix(lane);
    let elems = kl * kl + ku * ku;
    let cfg = LaunchConfig::new(params.threads, extract_smem_bytes::<S>(kl, ku) as u32)
        .with_parallel(params.parallel)
        .with_label("spike_extract")
        .with_precision(crate::flop_class::<S>());
    let mut probs: Vec<ExtractProb<'_, S>> = corner_chunks(&mut b, ku * ku, ifaces)
        .into_iter()
        .zip(corner_chunks(&mut c, kl * kl, ifaces))
        .enumerate()
        .map(|(iface, (b, c))| ExtractProb { iface, b, c })
        .collect();
    let rep = launch(dev, &cfg, &mut probs, |p, ctx| {
        let e = part.start(p.iface + 1);
        // Gather the cut corners from the global band and stage them.
        for cc in 0..ku {
            for r in 0..ku {
                p.b[cc * ku + r] = aref.get(e - ku + r, e + cc);
            }
        }
        for cc in 0..kl {
            for r in 0..kl {
                p.c[cc * kl + r] = aref.get(e + r, e - kl + cc);
            }
        }
        let _off = ctx.smem.alloc_scalar(elems, S::BYTES);
        ctx.gld(elems * S::BYTES);
        if let Some(t) = ctx.smem.tracker() {
            t.striped_write(0, ku * ku, ctx.threads);
            t.striped_write(ku * ku, kl * kl, ctx.threads);
        }
        ctx.smem_work(elems, 0);
        ctx.sync();
        // Drain the staged corners to the coupling arrays.
        if let Some(t) = ctx.smem.tracker() {
            t.striped_read(0, ku * ku, ctx.threads);
            t.striped_read(ku * ku, kl * kl, ctx.threads);
        }
        ctx.smem_work(elems, 0);
        ctx.gst(elems * S::BYTES);
        ctx.sync();
    })?;
    Ok((
        SpikeCoupling {
            kl,
            ku,
            interfaces: ifaces,
            b,
            c,
        },
        rep,
    ))
}

struct CombineProb<'a, S> {
    p: usize,
    x: &'a mut [S],
}

/// Device back-substitution `x_p = g_p - V_p t_{p+1} - W_p b_{p-1}`: one
/// block per partition stages its interface slice of the solved reduced
/// vector in shared memory (each element broadcast-read once into
/// registers), then runs the owned global row work. `g` supplies the
/// block solutions (columns `0..nrhs`); `spikes` supplies the spike
/// columns starting at `spike_off` (`ku` right then `kl` left). Returns
/// the block solutions as one contiguous `block * nrhs` lane per
/// partition.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spike_combine_launch<S: Scalar>(
    dev: &DeviceSpec,
    part: &SpikePartition,
    g: &RhsBatch<S>,
    spikes: &RhsBatch<S>,
    spike_off: usize,
    nrhs: usize,
    y: &[S],
    params: &SpikeParams,
) -> Result<(Vec<S>, LaunchReport), LaunchError> {
    let (kl, ku, blk) = (part.kl, part.ku, part.block);
    let kb = kl + ku;
    let r = part.reduced_order();
    let slice_elems = kb * nrhs;
    let mut x = vec![S::ZERO; part.parts * blk * nrhs];
    let cfg = LaunchConfig::new(params.threads, combine_smem_bytes::<S>(kl, ku, nrhs) as u32)
        .with_parallel(params.parallel)
        .with_label("spike_combine")
        .with_precision(crate::flop_class::<S>());
    let mut probs: Vec<CombineProb<'_, S>> = x
        .chunks_mut(blk * nrhs)
        .enumerate()
        .map(|(p, x)| CombineProb { p, x })
        .collect();
    let rep = launch(dev, &cfg, &mut probs, |pr, ctx| {
        let p = pr.p;
        let len = part.len(p);
        let gb = g.block(p);
        let gl = g.ldb();
        let sb = spikes.block(p);
        let sl = spikes.ldb();
        // Stage the interface values this block consumes — `b_{p-1}` then
        // `t_{p+1}` per RHS column, zero-padded at the outer blocks so
        // every lane stages the same uniform slice.
        let mut slice = vec![S::ZERO; slice_elems];
        for cc in 0..nrhs {
            if p > 0 {
                for e in 0..kl {
                    slice[cc * kb + e] = y[cc * r + (p - 1) * kb + e];
                }
            }
            if p + 1 < part.parts {
                for e in 0..ku {
                    slice[cc * kb + kl + e] = y[cc * r + p * kb + kl + e];
                }
            }
        }
        let _off = ctx.smem.alloc_scalar(slice_elems, S::BYTES);
        ctx.gld(slice_elems * S::BYTES);
        if let Some(t) = ctx.smem.tracker() {
            for cc in 0..nrhs {
                t.striped_write(cc * kb, kb, ctx.threads);
            }
        }
        ctx.smem_work(slice_elems, 0);
        ctx.sync();
        // Every thread broadcast-reads each staged element once into
        // registers, then sweeps its owned rows against the spikes.
        if let Some(t) = ctx.smem.tracker() {
            for off in 0..slice_elems {
                t.broadcast_read(off);
            }
        }
        ctx.smem_work(slice_elems, 0);
        for row in 0..len {
            for cc in 0..nrhs {
                let mut val = gb[cc * gl + row];
                if p + 1 < part.parts {
                    for e in 0..ku {
                        val -= sb[(spike_off + e) * sl + row] * slice[cc * kb + kl + e];
                    }
                }
                if p > 0 {
                    for e in 0..kl {
                        val -= sb[(spike_off + ku + e) * sl + row] * slice[cc * kb + e];
                    }
                }
                pr.x[cc * blk + row] = val;
            }
        }
        ctx.gld(len * (nrhs + ku + kl) * S::BYTES);
        ctx.par_work(len * nrhs * (ku + kl), 2);
        ctx.gst(len * nrhs * S::BYTES);
        ctx.sync();
    })?;
    Ok((x, rep))
}

struct ResidProb<'a, S> {
    p: usize,
    r: &'a mut [S],
}

/// Device residual `r = f - A x` over the block rows: one block per
/// partition, entirely lane-private (no shared memory, no barriers — the
/// access-model registry records it template-free). `x` and `f` are
/// column-major `n x nrhs`; the residual comes back as one contiguous
/// `block * nrhs` lane per partition.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spike_residual_launch<S: Scalar>(
    dev: &DeviceSpec,
    a: &BandBatch<S>,
    lane: usize,
    part: &SpikePartition,
    x: &[S],
    f: &[S],
    nrhs: usize,
    params: &SpikeParams,
) -> Result<(Vec<S>, LaunchReport), LaunchError> {
    let (kl, ku, blk, n) = (part.kl, part.ku, part.block, part.n);
    let aref = a.matrix(lane);
    let mut res = vec![S::ZERO; part.parts * blk * nrhs];
    let cfg = LaunchConfig::new(params.threads, 0)
        .with_parallel(params.parallel)
        .with_label("spike_residual")
        .with_precision(crate::flop_class::<S>());
    let mut probs: Vec<ResidProb<'_, S>> = res
        .chunks_mut(blk * nrhs)
        .enumerate()
        .map(|(p, r)| ResidProb { p, r })
        .collect();
    // Row `i` of the band runs through the array with stride `ldab - 1`.
    let (band, ldab) = (aref.data, aref.layout.ldab);
    let rep = launch(dev, &cfg, &mut probs, |pr, ctx| {
        let s = part.start(pr.p);
        let len = part.len(pr.p);
        for row in 0..len {
            let i = s + row;
            let j0 = i.saturating_sub(kl);
            let j1 = (i + ku + 1).min(n);
            let first = aref.layout.idx_full(i, j0).expect("band entry");
            for cc in 0..nrhs {
                let mut acc = f[cc * n + i];
                let row_entries = band[first..].iter().step_by(ldab - 1);
                for (&aij, &xj) in row_entries.zip(&x[cc * n + j0..cc * n + j1]) {
                    acc -= aij * xj;
                }
                pr.r[cc * blk + row] = acc;
            }
            ctx.gld(((j1 - j0) * (1 + nrhs) + nrhs) * S::BYTES);
            ctx.par_work((j1 - j0) * nrhs, 2);
        }
        ctx.gst(len * nrhs * S::BYTES);
    })?;
    Ok((res, rep))
}

/// Record a blocked solve run in `groups` column groups per system as
/// the launches it ran, in order.
fn record_solve(ran: &mut Vec<Launch>, rep: &BlockedSolveReport, groups: usize) {
    if let Some(r) = &rep.forward {
        ran.push(Launch::ran(Kernel::Forward, r, groups));
    }
    ran.push(Launch::ran(Kernel::Backward, &rep.backward, groups));
}

/// One blocked sweep of the split over the systems of layout `l` in
/// `factors` / `piv` against `rhs`, forward sweeps starting at `first`
/// (all at row 0 when `None`), in the column groups
/// [`crate::cost::solve_groups`] prices cheapest (one when none fits).
#[allow(clippy::too_many_arguments)]
fn sweep<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    factors: &[S],
    piv: &PivotBatch,
    rhs: &mut RhsBatch<S>,
    first: Option<&[usize]>,
    params: &SpikeParams,
    ran: &mut Vec<Launch>,
) -> Result<(), LaunchError> {
    let p = params.solve(l);
    let (batch, cols) = (rhs.batch(), rhs.nrhs());
    let groups = crate::cost::solve_groups::<S>(dev, l, batch, cols, first, &p)
        .map_or(1, |list| list[0].groups);
    let rep = blocked_solve(dev, l, factors, piv, rhs, first, p, groups)?;
    record_solve(ran, &rep, groups);
    Ok(())
}

/// A launch refused for shared memory (a reduced system whose band is too
/// wide for the device) reads as "split unavailable": the lane falls back
/// instead of failing the call.
fn fitted<T>(r: Result<T, LaunchError>) -> Result<Option<T>, LaunchError> {
    match r {
        Ok(t) => Ok(Some(t)),
        Err(LaunchError::SharedMemExceeded { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// A factored reduced system: the exact band (one lane) or the truncated
/// interface blocks (`P - 1` lanes).
struct ReducedLu<S: Scalar> {
    lu: BandBatch<S>,
    piv: PivotBatch,
}

/// Factor a reduced system on the device — the window kernel for the
/// exact band, the fused kernel for the small dense interface blocks.
/// `None` when it is singular or does not fit.
fn factor_reduced<S: Scalar>(
    dev: &DeviceSpec,
    mut lu: BandBatch<S>,
    exact: bool,
    params: &SpikeParams,
    ran: &mut Vec<Launch>,
) -> Result<Option<ReducedLu<S>>, LaunchError> {
    let l = lu.layout();
    let mut piv = PivotBatch::new(lu.batch(), l.n, l.n);
    let mut info = InfoArray::new(lu.batch());
    let rep = if exact {
        gbtrf_batch_window(dev, &mut lu, &mut piv, &mut info, params.window(&l))
    } else {
        let fused = FusedParams {
            threads: params.threads_for(&l),
            parallel: params.parallel,
        };
        gbtrf_batch_fused(dev, &mut lu, &mut piv, &mut info, fused)
    };
    let Some(rep) = fitted(rep)? else {
        return Ok(None);
    };
    let kernel = if exact { Kernel::Window } else { Kernel::Fused };
    ran.push(Launch::ran(kernel, &rep, 1));
    Ok(info.all_ok().then_some(ReducedLu { lu, piv }))
}

/// Solve a factored reduced system in place against `y` (column-major
/// `reduced_order x nrhs`, split evenly across the factor's lanes) with
/// one blocked solve.
fn solve_reduced<S: Scalar>(
    dev: &DeviceSpec,
    f: &ReducedLu<S>,
    y: &mut [S],
    nrhs: usize,
    params: &SpikeParams,
    ran: &mut Vec<Launch>,
) -> Result<(), LaunchError> {
    let l = f.lu.layout();
    let (rows, r) = (l.n, l.n * f.lu.batch());
    let mut rb = RhsBatch::from_fn(f.lu.batch(), rows, nrhs, |id, i, c| {
        y[c * r + id * rows + i]
    })
    .expect("valid reduced rhs");
    sweep(dev, &l, f.lu.data(), &f.piv, &mut rb, None, params, ran)?;
    for (k, v) in y.iter_mut().enumerate() {
        let (c, i) = (k / r, k % r);
        *v = rb.get(i / rows, i % rows, c);
    }
    Ok(())
}

/// One lane's bookkeeping shared by the split paths.
struct LaneState<S: Scalar> {
    part: SpikePartition,
    blocks: BandBatch<S>,
    bpiv: PivotBatch,
    /// Augmented solve output: columns `0..nrhs` hold `g_p`, then `ku`
    /// right-spike and `kl` left-spike columns.
    aug: RhsBatch<S>,
    nrhs: usize,
    /// The lane's right-hand side as a dense column-major `n x nrhs`
    /// panel.
    f: Vec<S>,
}

impl<S: Scalar> LaneState<S> {
    fn g(&self, p: usize, row: usize, c: usize) -> S {
        self.aug.get(p, row, c)
    }
    fn v(&self, p: usize, row: usize, c: usize) -> S {
        self.aug.get(p, row, self.nrhs + c)
    }
    fn w(&self, p: usize, row: usize, c: usize) -> S {
        self.aug.get(p, row, self.nrhs + self.part.ku + c)
    }

    /// Largest coupling the truncated reduced system drops: the top-`ku`
    /// rows of `V_p` and the bottom-`kl` rows of `W_p` for every interior
    /// block (`0 < p < P - 1`). A NaN tip reads as infinite.
    fn dropped_coupling(&self) -> f64 {
        let part = &self.part;
        let (kl, ku) = (part.kl, part.ku);
        let mut m = 0.0f64;
        let mut see = |x: S| {
            let x = x.to_f64().abs();
            m = if x.is_nan() { f64::INFINITY } else { m.max(x) };
        };
        for p in 1..part.parts.saturating_sub(1) {
            let len = part.len(p);
            for c in 0..ku {
                (0..ku).for_each(|row| see(self.v(p, row, c)));
            }
            for c in 0..kl {
                (len - kl..len).for_each(|row| see(self.w(p, row, c)));
            }
        }
        m
    }
}

/// Infinity norm of a column-major panel.
fn inf_norm<S: Scalar>(v: &[S]) -> S {
    v.iter().fold(S::ZERO, |m, &x| m.max(x.abs()))
}

/// Split-solve driver: factor and solve every lane of `a` against `rhs`
/// through the SPIKE decomposition at exactly `params`, falling back per
/// lane to the unsplit window+blocked path whenever the split cannot
/// answer (so the result is never worse than dispatch's column-major
/// path — and `P = 1` *is* that path, bitwise). On success each lane's
/// band storage holds its block factors column-for-column
/// (block-partitioned, same minimal `ldab`) and `piv` holds
/// globally-indexed block-local pivots; `info` follows the `gbsv`
/// convention per lane. Pivots, `info` or right-hand sides that disagree
/// with `a` fail with [`LaunchError::ArgMismatch`] before any launch.
pub fn spike_gbsv_batch<S: Scalar>(
    dev: &DeviceSpec,
    a: &mut BandBatch<S>,
    piv: &mut PivotBatch,
    rhs: &mut RhsBatch<S>,
    info: &mut InfoArray,
    params: SpikeParams,
) -> Result<SpikeReport, LaunchError> {
    run_split(dev, a, piv, rhs, info, params, false)
}

/// [`spike_gbsv_batch`] as `Auto` dispatch runs it: `params` is the
/// exact plan `P_e`, and each lane may first be sized from its decay
/// probe (see the module doc).
pub(crate) fn spike_gbsv_batch_sized<S: Scalar>(
    dev: &DeviceSpec,
    a: &mut BandBatch<S>,
    piv: &mut PivotBatch,
    rhs: &mut RhsBatch<S>,
    info: &mut InfoArray,
    params: SpikeParams,
) -> Result<SpikeReport, LaunchError> {
    run_split(dev, a, piv, rhs, info, params, true)
}

fn run_split<S: Scalar>(
    dev: &DeviceSpec,
    a: &mut BandBatch<S>,
    piv: &mut PivotBatch,
    rhs: &mut RhsBatch<S>,
    info: &mut InfoArray,
    params: SpikeParams,
    sizing: bool,
) -> Result<SpikeReport, LaunchError> {
    let l = a.layout();
    assert_eq!(l.m, l.n, "spike requires square systems");
    assert_eq!(
        l.row_offset,
        l.kv(),
        "spike requires factor band storage (fill-in rows present)"
    );
    assert!(
        l.kl + l.ku >= 1,
        "diagonal systems have no coupling to split"
    );
    assert!(rhs.nrhs() >= 1, "spike solve needs at least one RHS column");
    let batch = a.batch();
    check_pivots(&l, batch, piv)?;
    agree("info length", batch, info.len())?;
    check_rhs(&l, batch, rhs)?;
    let part = SpikePartition::new(l.n, l.kl, l.ku, params.parts);
    let bl = part.block_layout().expect("valid block layout");
    assert_eq!(
        bl.ldab, l.ldab,
        "spike requires the minimal factor ldab (block columns must tile the band)"
    );
    let nrhs = rhs.nrhs();
    let probe = sizing
        && params.mode == SpikeMode::Truncated
        && crate::cost::spike_probe_pays::<S>(dev, &l, nrhs, &params);

    // Room for 64 launches a lane, reserved before the lanes' large
    // buffers come and go: a record grown while they do leaves small
    // chunks among them, and a caller's next band of their size faults
    // its pages in afresh.
    let mut ran = Vec::with_capacity(64 * batch);
    let mut probes = Vec::new();
    let mut outcomes = Vec::with_capacity(batch);
    let mut lanes = Vec::with_capacity(batch);
    for lane in 0..batch {
        let mut io = LaneIo {
            a: &mut *a,
            piv: &mut *piv,
            rhs: &mut *rhs,
            info: &mut *info,
            lane,
        };
        let sized = if probe {
            size_lane(dev, io.a, lane, &part, &params, nrhs, &mut probes)?
        } else {
            None
        };
        let mut abandoned = None;
        if let Some(sp) = sized {
            let sp_part = SpikePartition::new(l.n, l.kl, l.ku, sp.parts);
            if let Some(oc) = sized_attempt(dev, &mut io, &sp_part, &sp, &mut ran)? {
                outcomes.push(oc);
                lanes.push(SpikeLanePlan {
                    parts: sp_part.parts,
                    nb: sp.nb,
                    abandoned: None,
                });
                continue;
            }
            abandoned = Some((sp_part.parts, sp.nb));
        }
        outcomes.push(solve_lane(dev, &mut io, &part, &params, &mut ran)?);
        lanes.push(SpikeLanePlan {
            parts: part.parts,
            nb: params.nb,
            abandoned,
        });
    }
    let probe_launches = probes.len();
    probes.append(&mut ran);
    Ok(SpikeReport {
        parts: part.parts,
        outcomes,
        lanes,
        launches: probes,
        probe_launches,
    })
}

/// The caller's containers and the lane being solved.
struct LaneIo<'a, S: Scalar> {
    a: &'a mut BandBatch<S>,
    piv: &'a mut PivotBatch,
    rhs: &'a mut RhsBatch<S>,
    info: &'a mut InfoArray,
    lane: usize,
}

/// The sized plan of one lane planned at `exact` (partition `part`): run
/// the decay probe, take the largest power-of-two block count whose
/// blocks are at least as long as the probe asks, and return the
/// truncated-path argmin up to it. `None` when the lane is not sized:
/// the probe measured no decay, or the argmin keeps `exact`.
fn size_lane<S: Scalar>(
    dev: &DeviceSpec,
    a: &BandBatch<S>,
    lane: usize,
    part: &SpikePartition,
    exact: &SpikeParams,
    nrhs: usize,
    ran: &mut Vec<Launch>,
) -> Result<Option<SpikeParams>, LaunchError> {
    let Some(block) = decay_probe(dev, a, lane, part, exact, ran)? else {
        return Ok(None);
    };
    let l = a.layout();
    let mut top = crate::cost::spike_max_parts(&l);
    while top > exact.parts && l.n.div_ceil(top) < block {
        top /= 2;
    }
    if top <= exact.parts {
        return Ok(None);
    }
    let sized = crate::cost::choose_spike_truncated_params::<S>(dev, &l, nrhs, exact, top)
        .map(|(p, _)| p)
        .filter(|p| (p.parts, p.nb) != (exact.parts, exact.nb));
    Ok(sized)
}

/// The decay probe of one lane at partition `part`: one sample block of
/// [`probe_rows`] rows ending at each cut, factored by one window launch
/// and swept over its right-spike (`B` corner in the bottom `ku` rows)
/// and left-spike (`C` corner in the top `kl` rows) columns by one
/// blocked solve, after the extract launch stages the cut corners. Each
/// spike's tip (the rows truncation drops) against its head (the corner
/// rows) gives a geometric decay rate per row; the result is the shortest
/// block length at which the slowest sample's extrapolated tip reaches
/// [`DECAY_BOUND`]. `None` when any sample's tip is at least its head or
/// NaN, a sample is singular, or the blocks are shorter than a sample.
pub(crate) fn decay_probe<S: Scalar>(
    dev: &DeviceSpec,
    a: &BandBatch<S>,
    lane: usize,
    part: &SpikePartition,
    params: &SpikeParams,
    ran: &mut Vec<Launch>,
) -> Result<Option<usize>, LaunchError> {
    let (kl, ku) = (part.kl, part.ku);
    let rows = probe_rows(kl, ku);
    if part.parts < 2 || part.block < rows {
        return Ok(None);
    }
    let (coupling, rep) = spike_extract_launch(dev, a, lane, part, params)?;
    ran.push(Launch::ran(Kernel::Extract, &rep, 1));

    let mut samples = extract_samples(&a.matrix(lane), part, rows).expect("valid sample batch");
    let sl = samples.layout();
    let count = part.interfaces();
    let mut spiv = PivotBatch::new(count, rows, rows);
    let mut sinfo = InfoArray::new(count);
    let rep = gbtrf_batch_window(dev, &mut samples, &mut spiv, &mut sinfo, params.window(&sl))?;
    ran.push(Launch::ran(Kernel::Window, &rep, 1));
    if !sinfo.all_ok() {
        return Ok(None);
    }
    let mut spikes = RhsBatch::zeros(count, rows, ku + kl).expect("valid probe rhs");
    for i in 0..count {
        let dst = spikes.block_mut(i);
        let (b, c) = (coupling.b_corner(i), coupling.c_corner(i));
        for cc in 0..ku {
            dst[cc * rows + rows - ku..(cc + 1) * rows].copy_from_slice(&b[cc * ku..(cc + 1) * ku]);
        }
        for cc in 0..kl {
            let col = (ku + cc) * rows;
            dst[col..col + kl].copy_from_slice(&c[cc * kl..(cc + 1) * kl]);
        }
    }
    let first = spike_starts(rows, kl, ku, 0);
    let (first, factors) = (Some(&first[..]), samples.data());
    sweep(dev, &sl, factors, &spiv, &mut spikes, first, params, ran)?;

    // Largest magnitude over `rows` of spike columns `cols` of sample `i`;
    // a NaN reads as infinite.
    let peak = |i: usize, cols: std::ops::Range<usize>, rs: std::ops::Range<usize>| {
        cols.flat_map(|c| rs.clone().map(move |r| (c, r)))
            .fold(0.0f64, |m, (c, r)| {
                let x = spikes.get(i, r, c).to_f64().abs();
                if x.is_nan() {
                    f64::INFINITY
                } else {
                    m.max(x)
                }
            })
    };
    let mut need = 0.0f64;
    for i in 0..count {
        // (head, tip, corner width) of the right then the left spike.
        for (head, tip, k) in [
            (peak(i, 0..ku, rows - ku..rows), peak(i, 0..ku, 0..ku), ku),
            (
                peak(i, ku..ku + kl, 0..kl),
                peak(i, ku..ku + kl, rows - kl..rows),
                kl,
            ),
        ] {
            if head == 0.0 && tip == 0.0 {
                continue; // no coupling on this side
            }
            if tip >= head || head.is_infinite() {
                return Ok(None);
            }
            if head > DECAY_BOUND {
                // head * (tip / head)^((len - k) / (rows - k)) <= DECAY_BOUND
                let span = (DECAY_BOUND / head).ln() / (tip / head).ln();
                need = need.max(k as f64 + (rows - k) as f64 * span);
            }
        }
    }
    Ok(Some((need.ceil() as usize).max(kl + ku + 1)))
}

/// One sized lane's truncated attempt at `part`: `Some` when it
/// converged, its factors and answer written back. `None` when the lane
/// leaves the truncated path — a singular block, tips above
/// [`DECAY_BOUND`], a failed interface LU or stalled refinement — with
/// the lane's band, pivots, right-hand side and `info` untouched.
fn sized_attempt<S: Scalar>(
    dev: &DeviceSpec,
    io: &mut LaneIo<'_, S>,
    part: &SpikePartition,
    params: &SpikeParams,
    ran: &mut Vec<Launch>,
) -> Result<Option<SpikeOutcome>, LaunchError> {
    let Some(st) = split_front(dev, io, part, params, ran)? else {
        return Ok(None);
    };
    if st.dropped_coupling() > DECAY_BOUND {
        return Ok(None);
    }
    Ok(match truncated_solve(dev, io, &st, params, ran)? {
        Ok(oc) => {
            write_back(io, part, &st);
            Some(oc)
        }
        Err(_) => None,
    })
}

fn solve_lane<S: Scalar>(
    dev: &DeviceSpec,
    io: &mut LaneIo<'_, S>,
    part: &SpikePartition,
    params: &SpikeParams,
    ran: &mut Vec<Launch>,
) -> Result<SpikeOutcome, LaunchError> {
    let front = if part.parts == 1 {
        None
    } else {
        split_front(dev, io, part, params, ran)?
    };
    let Some(st) = front else {
        unsplit_lane(dev, io, params, ran)?;
        return Ok(SpikeOutcome::Unsplit);
    };

    // Mode choice from the spike decay, then the reduced solve.
    let truncate = params.mode == SpikeMode::Truncated && st.dropped_coupling() <= DECAY_BOUND;
    let outcome = if truncate {
        match truncated_solve(dev, io, &st, params, ran)? {
            Ok(oc) => Some(oc),
            Err(refine_iters) => exact_solve(dev, io, &st, params, ran)?
                .then_some(SpikeOutcome::ExactFallback { refine_iters }),
        }
    } else {
        exact_solve(dev, io, &st, params, ran)?.then_some(SpikeOutcome::Exact)
    };
    match outcome {
        Some(oc) => {
            write_back(io, part, &st);
            Ok(oc)
        }
        None => {
            unsplit_lane(dev, io, params, ran)?;
            Ok(SpikeOutcome::Unsplit)
        }
    }
}

/// The factor phase of one lane at `part`: gather its RHS, extract the
/// coupling corners, factor the `P` diagonal blocks as one batched window
/// launch and sweep the augmented RHS for `g`, `V` and `W`. `None` when
/// a block is singular. Reads the lane's band and RHS, writes neither.
fn split_front<S: Scalar>(
    dev: &DeviceSpec,
    io: &LaneIo<'_, S>,
    part: &SpikePartition,
    params: &SpikeParams,
    ran: &mut Vec<Launch>,
) -> Result<Option<LaneState<S>>, LaunchError> {
    let n = part.n;
    let nrhs = io.rhs.nrhs();

    // Gather the lane's RHS as a dense column-major n x nrhs panel (host
    // assembly pass, unpriced — same convention as the serve lane gather).
    let mut f = vec![S::ZERO; n * nrhs];
    {
        let b = io.rhs.block(io.lane);
        let ldb = io.rhs.ldb();
        for c in 0..nrhs {
            f[c * n..(c + 1) * n].copy_from_slice(&b[c * ldb..c * ldb + n]);
        }
    }

    // (1) Coupling corners through the extract kernel.
    let (coupling, rep) = spike_extract_launch(dev, io.a, io.lane, part, params)?;
    ran.push(Launch::ran(Kernel::Extract, &rep, 1));

    // (2) All P diagonal blocks factor concurrently as one batched
    // window launch.
    let mut blocks = extract_blocks(&io.a.matrix(io.lane), part).expect("valid block batch");
    let bl = blocks.layout();
    let mut bpiv = PivotBatch::new(part.parts, part.block, part.block);
    let mut binfo = InfoArray::new(part.parts);
    let rep = gbtrf_batch_window(dev, &mut blocks, &mut bpiv, &mut binfo, params.window(&bl))?;
    ran.push(Launch::ran(Kernel::Window, &rep, 1));
    if !binfo.all_ok() {
        return Ok(None);
    }

    // (3) One blocked solve over the augmented RHS yields g, V and W; the
    // right-spike columns skip the sweep steps above their corner.
    let mut aug = augmented_rhs(part, &coupling, &f, nrhs).expect("valid augmented rhs");
    let first = augmented_starts(part, nrhs);
    let (first, factors) = (Some(&first[..]), blocks.data());
    sweep(dev, &bl, factors, &bpiv, &mut aug, first, params, ran)?;

    let st = LaneState {
        part: *part,
        blocks,
        bpiv,
        aug,
        nrhs,
        f,
    };
    Ok(Some(st))
}

/// Exact reduced solve + combine; `false` when the reduced system is
/// singular or does not fit the device, or the answer fails the residual
/// guard.
fn exact_solve<S: Scalar>(
    dev: &DeviceSpec,
    io: &mut LaneIo<'_, S>,
    st: &LaneState<S>,
    params: &SpikeParams,
    ran: &mut Vec<Launch>,
) -> Result<bool, LaunchError> {
    let (part, f) = (&st.part, &st.f);
    let reduced = assemble_reduced(
        part,
        |p, row, c| st.v(p, row, c),
        |p, row, c| st.w(p, row, c),
    )
    .expect("split lanes have interfaces");
    let Some(lu) = factor_reduced(dev, reduced, true, params, ran)? else {
        return Ok(false);
    };
    let mut y = assemble_reduced_rhs(part, |p, row, c| st.g(p, row, c), st.nrhs);
    solve_reduced(dev, &lu, &mut y, st.nrhs, params, ran)?;
    let (xb, rep) =
        spike_combine_launch(dev, part, &st.aug, &st.aug, st.nrhs, st.nrhs, &y, params)?;
    ran.push(Launch::ran(Kernel::Combine, &rep, 1));
    // Residual guard on a scratch panel: the exact split answer must be
    // as good as a direct solve before it is committed. The lane's RHS
    // still holds the original right-hand side on the `false` path,
    // which the unsplit fallback consumes verbatim.
    let x = unpack_block_solution(part, st.nrhs, &xb);
    let (res, rep) = spike_residual_launch(dev, io.a, io.lane, part, &x, f, st.nrhs, params)?;
    ran.push(Launch::ran(Kernel::Residual, &rep, 1));
    if inf_norm(&res) > exact_guard(inf_norm(f)) {
        return Ok(false);
    }
    write_lane(io.rhs, io.lane, st.nrhs, &x);
    Ok(true)
}

/// Truncated preconditioner + iterative refinement. `Ok` with the
/// outcome once refinement meets [`TRUNCATED_TARGET`], the answer written
/// to the lane's RHS; `Err` with the rounds spent when the lane must
/// leave the truncated path (the interface LU failed, or refinement
/// stalled), the lane's RHS untouched.
fn truncated_solve<S: Scalar>(
    dev: &DeviceSpec,
    io: &mut LaneIo<'_, S>,
    st: &LaneState<S>,
    params: &SpikeParams,
    ran: &mut Vec<Launch>,
) -> Result<Result<SpikeOutcome, usize>, LaunchError> {
    let (part, f) = (&st.part, &st.f);
    let (n, blk) = (part.n, part.block);
    let nrhs = st.nrhs;
    let blocks = assemble_truncated(
        part,
        |p, row, c| st.v(p, row, c),
        |p, row, c| st.w(p, row, c),
    )
    .expect("split lanes have interfaces");
    let Some(lu) = factor_reduced(dev, blocks, false, params, ran)? else {
        return Ok(Err(0));
    };

    // Initial truncated solve from the already-computed g.
    let mut y = assemble_reduced_rhs(part, |p, row, c| st.g(p, row, c), nrhs);
    solve_reduced(dev, &lu, &mut y, nrhs, params, ran)?;
    let (xb, rep) = spike_combine_launch(dev, part, &st.aug, &st.aug, nrhs, nrhs, &y, params)?;
    ran.push(Launch::ran(Kernel::Combine, &rep, 1));
    let mut x = unpack_block_solution(part, nrhs, &xb);

    let tol = truncated_tol(inf_norm(f));
    let mut prev = S::from_f64(f64::INFINITY);
    for iter in 0..=params.max_refine {
        let (res, rep) = spike_residual_launch(dev, io.a, io.lane, part, &x, f, nrhs, params)?;
        ran.push(Launch::ran(Kernel::Residual, &rep, 1));
        let rnorm = inf_norm(&res);
        if rnorm <= tol {
            write_lane(io.rhs, io.lane, nrhs, &x);
            return Ok(Ok(SpikeOutcome::Truncated { refine_iters: iter }));
        }
        // Stall detection: refinement must keep contracting or the lane
        // leaves the truncated path. The negated comparison is
        // deliberate: a NaN residual must read as "stalled".
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if iter == params.max_refine || !(rnorm.to_f64() < 0.5 * prev.to_f64()) {
            return Ok(Err(iter));
        }
        prev = rnorm;
        // Preconditioner application: dx = M^{-1} r.
        let mut rb = RhsBatch::zeros(part.parts, blk, nrhs).expect("valid refinement rhs");
        for p in 0..part.parts {
            let len = part.len(p);
            let dst = rb.block_mut(p);
            for c in 0..nrhs {
                dst[c * blk..c * blk + len].copy_from_slice(
                    &res[p * blk * nrhs + c * blk..p * blk * nrhs + c * blk + len],
                );
            }
        }
        let bl = st.blocks.layout();
        sweep(
            dev,
            &bl,
            st.blocks.data(),
            &st.bpiv,
            &mut rb,
            None,
            params,
            ran,
        )?;
        let mut yr = assemble_reduced_rhs(part, |p, row, c| rb.get(p, row, c), nrhs);
        solve_reduced(dev, &lu, &mut yr, nrhs, params, ran)?;
        let (dxb, rep) = spike_combine_launch(dev, part, &rb, &st.aug, nrhs, nrhs, &yr, params)?;
        ran.push(Launch::ran(Kernel::Combine, &rep, 1));
        for p in 0..part.parts {
            let s = part.start(p);
            let len = part.len(p);
            for c in 0..nrhs {
                for row in 0..len {
                    x[c * n + s + row] += dxb[p * blk * nrhs + c * blk + row];
                }
            }
        }
    }
    unreachable!("loop exits via convergence or fallback");
}

/// Unsplit fallback: the window factorization + blocked solve dispatch
/// runs today, on this lane alone — copied out so the lane's numerics are
/// untouched by any partial split state.
fn unsplit_lane<S: Scalar>(
    dev: &DeviceSpec,
    io: &mut LaneIo<'_, S>,
    params: &SpikeParams,
    ran: &mut Vec<Launch>,
) -> Result<(), LaunchError> {
    let (lane, l) = (io.lane, io.a.layout());
    let n = l.n;
    let nrhs = io.rhs.nrhs();
    let stride = io.a.matrix_stride();
    let mut one = BandBatch::zeros_with_layout(l, 1).expect("valid lane batch");
    one.data_mut()
        .copy_from_slice(&io.a.data()[lane * stride..(lane + 1) * stride]);
    let mut opiv = PivotBatch::new(1, n, n);
    let mut oinfo = InfoArray::new(1);
    let rep = gbtrf_batch_window(dev, &mut one, &mut opiv, &mut oinfo, params.window(&l))?;
    ran.push(Launch::ran(Kernel::Window, &rep, 1));
    io.a.data_mut()[lane * stride..(lane + 1) * stride].copy_from_slice(one.data());
    io.piv.pivots_mut(lane).copy_from_slice(opiv.pivots(0));
    io.info.set(lane, oinfo.get(0));
    if oinfo.get(0) != 0 {
        return Ok(()); // gbsv convention: no solve over singular factors
    }
    let mut orhs = RhsBatch::zeros(1, n, nrhs).expect("valid lane rhs");
    {
        let src = io.rhs.block(lane);
        let ldb = io.rhs.ldb();
        let dst = orhs.block_mut(0);
        for c in 0..nrhs {
            dst[c * n..(c + 1) * n].copy_from_slice(&src[c * ldb..c * ldb + n]);
        }
    }
    let rep = gbtrs_batch_blocked(dev, &l, one.data(), &opiv, &mut orhs, params.solve(&l))?;
    record_solve(ran, &rep, 1);
    write_lane(io.rhs, lane, nrhs, orhs.block(0));
    Ok(())
}

/// Unpack per-block combine output (stride `block` per part) into a
/// dense column-major `n x nrhs` panel.
fn unpack_block_solution<S: Scalar>(part: &SpikePartition, nrhs: usize, xb: &[S]) -> Vec<S> {
    let (n, blk) = (part.n, part.block);
    let mut x = vec![S::ZERO; n * nrhs];
    for p in 0..part.parts {
        let s = part.start(p);
        let len = part.len(p);
        for c in 0..nrhs {
            x[c * n + s..c * n + s + len]
                .copy_from_slice(&xb[p * blk * nrhs + c * blk..p * blk * nrhs + c * blk + len]);
        }
    }
    x
}

/// Write a dense column-major panel into a lane's RHS columns.
fn write_lane<S: Scalar>(rhs: &mut RhsBatch<S>, lane: usize, nrhs: usize, x: &[S]) {
    let n = rhs.n();
    let ldb = rhs.ldb();
    let dst = rhs.block_mut(lane);
    for c in 0..nrhs {
        dst[c * ldb..c * ldb + n].copy_from_slice(&x[c * n..(c + 1) * n]);
    }
}

/// Write block factors back into the lane's band storage column for
/// column (identical minimal `ldab`, pad columns dropped) and the
/// block-local pivots as global row indices.
fn write_back<S: Scalar>(io: &mut LaneIo<'_, S>, part: &SpikePartition, st: &LaneState<S>) {
    let ldab = io.a.layout().ldab;
    let stride = io.a.matrix_stride();
    let lane = io.lane;
    let dst = &mut io.a.data_mut()[lane * stride..(lane + 1) * stride];
    let bdata = st.blocks.data();
    let bstride = part.block * ldab;
    for p in 0..part.parts {
        let s = part.start(p);
        let len = part.len(p);
        dst[s * ldab..(s + len) * ldab]
            .copy_from_slice(&bdata[p * bstride..p * bstride + len * ldab]);
    }
    let pv = io.piv.pivots_mut(lane);
    for p in 0..part.parts {
        let s = part.start(p);
        let len = part.len(p);
        let bp = st.bpiv.pivots(p);
        for j in 0..len {
            pv[s + j] = s as i32 + bp[j];
        }
    }
    io.info.set(lane, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::residual::backward_error;

    fn random_batch(batch: usize, n: usize, kl: usize, ku: usize, dominant: bool) -> BandBatch {
        let mut v = 0.29f64;
        BandBatch::from_fn(batch, n, n, kl, ku, |id, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    v = (v * 1.9 + 0.113 + id as f64 * 2e-4).fract();
                    let boost = if i == j && dominant { 4.0 } else { 0.0 };
                    m.set(i, j, v - 0.5 + boost);
                }
            }
        })
        .unwrap()
    }

    fn random_rhs(batch: usize, n: usize, nrhs: usize) -> RhsBatch {
        RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
            ((id * 31 + i * 7 + c * 13) % 23) as f64 * 0.1 - 1.0
        })
        .unwrap()
    }

    fn run_spike(
        a: &BandBatch,
        rhs: &RhsBatch,
        params: SpikeParams,
    ) -> (BandBatch, PivotBatch, RhsBatch, InfoArray, SpikeReport) {
        let dev = DeviceSpec::h100_pcie();
        let mut a = a.clone();
        let n = a.layout().n;
        let mut piv = PivotBatch::new(a.batch(), n, n);
        let mut rhs = rhs.clone();
        let mut info = InfoArray::new(a.batch());
        let rep = spike_gbsv_batch(&dev, &mut a, &mut piv, &mut rhs, &mut info, params).unwrap();
        (a, piv, rhs, info, rep)
    }

    fn check_residuals(a: &BandBatch, rhs0: &RhsBatch, x: &RhsBatch, tol: f64) {
        let n = a.layout().n;
        for id in 0..a.batch() {
            for c in 0..x.nrhs() {
                let xs: Vec<f64> = (0..n).map(|i| x.get(id, i, c)).collect();
                let bs: Vec<f64> = (0..n).map(|i| rhs0.get(id, i, c)).collect();
                let berr = backward_error(a.matrix(id), &xs, &bs);
                assert!(berr < tol, "lane {id} col {c}: berr {berr:.2e}");
            }
        }
    }

    #[test]
    fn exact_mode_matches_direct_solve() {
        for (n, kl, ku, parts, nrhs) in [(96, 2, 3, 4, 2), (129, 3, 2, 8, 1), (200, 5, 5, 3, 3)] {
            let a = random_batch(2, n, kl, ku, true);
            let rhs = random_rhs(2, n, nrhs);
            let params = SpikeParams {
                parts,
                mode: SpikeMode::Exact,
                ..Default::default()
            };
            let (_, _, x, info, rep) = run_spike(&a, &rhs, params);
            assert!(info.all_ok());
            assert!(rep
                .outcomes
                .iter()
                .all(|o| matches!(o, SpikeOutcome::Exact)));
            check_residuals(&a, &rhs, &x, 1e-12);
        }
    }

    #[test]
    fn one_part_is_bitwise_unsplit() {
        let (n, kl, ku, nrhs) = (64, 2, 3, 2);
        let dev = DeviceSpec::h100_pcie();
        let a0 = random_batch(3, n, kl, ku, false);
        let rhs0 = random_rhs(3, n, nrhs);
        // Reference: plain window factor + blocked solve over the batch.
        let mut ar = a0.clone();
        let mut pr = PivotBatch::new(3, n, n);
        let mut ir = InfoArray::new(3);
        let wp = WindowParams {
            nb: 8,
            threads: 32,
            ..Default::default()
        };
        let _ = gbtrf_batch_window(&dev, &mut ar, &mut pr, &mut ir, wp).unwrap();
        let mut xr = rhs0.clone();
        gbtrs_batch_blocked(
            &dev,
            &ar.layout(),
            ar.data(),
            &pr,
            &mut xr,
            SolveParams {
                nb: 8,
                threads: 32,
                ..Default::default()
            },
        )
        .unwrap();
        // Spike at P=1 (clamped by a tiny n/parts ratio would also do it).
        let params = SpikeParams {
            parts: 1,
            ..Default::default()
        };
        let (a1, p1, x1, i1, rep) = run_spike(&a0, &rhs0, params);
        assert_eq!(rep.parts, 1);
        assert!(rep
            .outcomes
            .iter()
            .all(|o| matches!(o, SpikeOutcome::Unsplit)));
        assert!(i1.all_ok() && ir.all_ok());
        assert_eq!(a1.data(), ar.data(), "factors bitwise");
        assert_eq!(p1.as_slice(), pr.as_slice(), "pivots bitwise");
        assert_eq!(x1.data(), xr.data(), "solutions bitwise");
    }

    #[test]
    fn truncated_mode_converges_on_dominant_operators() {
        let (n, kl, ku, nrhs) = (160, 2, 2, 2);
        let a = random_batch(2, n, kl, ku, true);
        let rhs = random_rhs(2, n, nrhs);
        let params = SpikeParams {
            parts: 4,
            mode: SpikeMode::Truncated,
            ..Default::default()
        };
        let (_, _, x, info, rep) = run_spike(&a, &rhs, params);
        assert!(info.all_ok());
        for o in &rep.outcomes {
            assert!(
                matches!(o, SpikeOutcome::Truncated { .. }),
                "expected truncated convergence, got {o:?}"
            );
        }
        check_residuals(&a, &rhs, &x, 1e-13);
    }

    #[test]
    fn truncated_mode_falls_back_on_non_dominant_operators() {
        // Without dominance the spikes do not decay; the lanes skip the
        // truncated path (or stall in it) and must still answer exactly.
        let (n, kl, ku, nrhs) = (120, 3, 3, 1);
        let a = random_batch(2, n, kl, ku, false);
        let rhs = random_rhs(2, n, nrhs);
        let params = SpikeParams {
            parts: 4,
            mode: SpikeMode::Truncated,
            max_refine: 2,
            ..Default::default()
        };
        let (_, _, x, info, _rep) = run_spike(&a, &rhs, params);
        assert!(info.all_ok());
        check_residuals(&a, &rhs, &x, 1e-10);
    }

    #[test]
    fn singular_block_falls_back_to_unsplit() {
        let (n, kl, ku) = (64, 1, 1);
        let mut a = random_batch(1, n, kl, ku, true);
        let part = SpikePartition::new(n, kl, ku, 2);
        let s = part.start(1);
        {
            let mut m = a.matrix_mut(0);
            m.set(s, s, 0.0);
            m.set(s + 1, s, 0.0);
        }
        let rhs = random_rhs(1, n, 1);
        let params = SpikeParams {
            parts: 2,
            mode: SpikeMode::Exact,
            ..Default::default()
        };
        let (_, _, x, info, rep) = run_spike(&a, &rhs, params);
        assert!(info.all_ok(), "unsplit fallback must answer");
        assert!(matches!(rep.outcomes[0], SpikeOutcome::Unsplit));
        check_residuals(&a, &rhs, &x, 1e-12);
    }

    #[test]
    fn reduced_band_too_wide_for_the_device_falls_back_to_unsplit() {
        // (24,24) at P = 4: the blocks' window fits the H100, but the
        // reduced band (71 sub- and super-diagonals) does not.
        let (n, kl, ku) = (400, 24, 24);
        let part = SpikePartition::new(n, kl, ku, 4);
        let rl = part.reduced_layout().unwrap();
        let dev = DeviceSpec::h100_pcie();
        let smem = crate::window::window_smem_bytes::<f64>(&rl, 8);
        assert!(smem > dev.max_smem_per_block as usize);
        let a = random_batch(1, n, kl, ku, true);
        let rhs = random_rhs(1, n, 1);
        let params = SpikeParams {
            parts: 4,
            mode: SpikeMode::Exact,
            ..Default::default()
        };
        let (_, _, x, info, rep) = run_spike(&a, &rhs, params);
        assert!(info.all_ok());
        assert_eq!(rep.outcomes, vec![SpikeOutcome::Unsplit]);
        check_residuals(&a, &rhs, &x, 1e-12);
    }

    #[test]
    fn factors_and_pivots_write_back_block_partitioned() {
        let (n, kl, ku, parts) = (96, 2, 3, 4);
        let a0 = random_batch(1, n, kl, ku, true);
        let rhs = random_rhs(1, n, 1);
        let params = SpikeParams {
            parts,
            mode: SpikeMode::Exact,
            ..Default::default()
        };
        let (a1, p1, _, info, rep) = run_spike(&a0, &rhs, params);
        assert!(info.all_ok());
        assert_eq!(rep.parts, parts);
        // Factors must equal an independent per-block factorization.
        let part = SpikePartition::new(n, kl, ku, parts);
        let mut blocks = extract_blocks(&a0.matrix(0), &part).unwrap();
        let bl = blocks.layout();
        let mut bp = PivotBatch::new(part.parts, part.block, part.block);
        for p in 0..part.parts {
            let info = gbatch_core::gbtrf::gbtrf(&bl, blocks.matrix_mut(p).data, bp.pivots_mut(p));
            assert_eq!(info, 0);
        }
        let ldab = a1.layout().ldab;
        for p in 0..part.parts {
            let s = part.start(p);
            let len = part.len(p);
            let lane = &a1.data()[s * ldab..(s + len) * ldab];
            let blk = &blocks.data()[p * part.block * ldab..p * part.block * ldab + len * ldab];
            assert_eq!(lane, blk, "block {p} factors");
            for j in 0..len {
                assert_eq!(p1.pivots(0)[s + j], s as i32 + bp.pivots(p)[j]);
            }
        }
    }

    #[test]
    fn f32_lanes_solve() {
        let (n, kl, ku, nrhs) = (128usize, 2usize, 2usize, 1usize);
        let mut v = 0.41f32;
        let a0 = BandBatch::<f32>::from_fn(2, n, n, kl, ku, |_, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    v = (v * 1.7 + 0.219).fract();
                    m.set(i, j, v - 0.5 + if i == j { 4.0 } else { 0.0 });
                }
            }
        })
        .unwrap();
        let mut a = a0.clone();
        let mut rhs = RhsBatch::<f32>::from_fn(2, n, nrhs, |id, i, c| {
            ((id + i * 3 + c) % 11) as f32 * 0.2 - 1.0
        })
        .unwrap();
        let rhs0 = rhs.clone();
        let dev = DeviceSpec::h100_pcie();
        let mut piv = PivotBatch::new(2, n, n);
        let mut info = InfoArray::new(2);
        let params = SpikeParams {
            parts: 4,
            ..Default::default()
        };
        let rep = spike_gbsv_batch(&dev, &mut a, &mut piv, &mut rhs, &mut info, params).unwrap();
        assert!(info.all_ok());
        assert!(rep.time().secs() > 0.0);
        for id in 0..2 {
            for c in 0..nrhs {
                let x: Vec<f32> = (0..n).map(|i| rhs.get(id, i, c)).collect();
                let mut ax = vec![0.0f32; n];
                gbatch_core::blas2::gbmv(1.0, a0.matrix(id), &x, 0.0, &mut ax);
                let err = (0..n)
                    .map(|i| (ax[i] - rhs0.get(id, i, c)).abs())
                    .fold(0.0f32, f32::max);
                assert!(err < 1e-4, "lane {id} col {c}: residual {err}");
            }
        }
    }

    #[test]
    fn report_accounts_time_and_launches() {
        let (n, kl, ku) = (96, 2, 2);
        let a = random_batch(1, n, kl, ku, true);
        let rhs = random_rhs(1, n, 1);
        let params = SpikeParams {
            parts: 4,
            mode: SpikeMode::Exact,
            ..Default::default()
        };
        let (_, _, _, _, rep) = run_spike(&a, &rhs, params);
        // extract + factor + fwd/bwd solve + reduced factor + reduced
        // fwd/bwd solve + combine + residual = 9.
        assert_eq!(rep.launches.len(), 9);
        assert_eq!(rep.time(), total_time(&rep.launches));
        assert!(rep.time().secs() > 0.0);
    }

    #[test]
    fn split_sweeps_fill_only_idle_sms() {
        // The SPIKE cases of the dispatch pin grid: Auto at n = 4096 (2,2),
        // the forced two-RHS split at P = 4, and the forced splits at
        // n = 16 and 48. No launch split into column groups has more
        // blocks than the device has SMs.
        use crate::dispatch::{gbsv_batch, ChosenAlgo, FactorAlgo, GbsvOptions};
        use gbatch_gpu_sim::registry;
        let forced = GbsvOptions {
            algo: FactorAlgo::Spike,
            ..Default::default()
        };
        let four = GbsvOptions {
            spike: Some(SpikeParams::default().with_parts(4)),
            ..forced
        };
        let cases = [
            (4096, 2, 2, 1, 1, GbsvOptions::default()),
            (120, 2, 3, 2, 2, four),
            (16, 2, 3, 4, 1, forced),
            (48, 2, 3, 4, 1, forced),
        ];
        let mut split = 0;
        for &name in registry::device_names() {
            let dev = registry::device(name).unwrap();
            for (n, kl, ku, batch, nrhs, opts) in cases {
                let mut a = random_batch(batch, n, kl, ku, true);
                let mut b = random_rhs(batch, n, nrhs);
                let mut piv = PivotBatch::new(batch, n, n);
                let mut info = InfoArray::new(batch);
                let rep = gbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts).unwrap();
                assert_eq!(rep.algo, ChosenAlgo::Spike, "{name} n={n}");
                for c in rep.spike.unwrap().launches.iter().filter(|c| c.groups > 1) {
                    split += 1;
                    assert!(
                        c.grid <= dev.sms as usize,
                        "{name} n={n} ({kl},{ku}): a split sweep of {} blocks on {} SMs",
                        c.grid,
                        dev.sms
                    );
                }
            }
        }
        assert!(split > 0, "no sweep of the grid was split");
    }
}
