//! The batched band routines' user interface (paper Section 4) and the
//! kernel-selection logic of §5.4 ("The Complete Picture").
//!
//! The paper's selection policy, [`FactorAlgo::ColumnMajor`]:
//!
//! - **fused** for very small matrices (`n <= 64`): no window shifting, no
//!   extra synchronization;
//! - **sliding window** for everything else ("in most cases the sliding
//!   window approach is selected, since it covers a very wide range of band
//!   sizes regardless of the matrix size");
//! - **reference** as the safety net when even one window column set cannot
//!   fit in shared memory;
//! - for the driver, the fused factor+solve kernel handles `n <= 64`,
//!   `nrhs == 1` (§7).
//!
//! The C-style interface of the paper (`dgbtrf_batch`, `dgbtrs_batch`,
//! `dgbsv_batch` over `double**` pointer arrays) maps to the batch
//! containers of `gbatch_core`; the `info` array and per-matrix pivot
//! vectors are preserved verbatim; containers that disagree fail with
//! [`LaunchError::ArgMismatch`] before any launch.
//!
//! The default, [`FactorAlgo::Auto`], adds the SPIKE split of
//! [`crate::spike`] for large single systems and the batch-major
//! interleaved kernels of [`crate::interleaved`] to that policy. Each
//! call — factor, factor-and-solve, or solve-only over factors the caller
//! kept — is decided once, by a pure plan that reads only the shape and
//! the options and issues no launch; the entry points then execute that
//! plan. [`GbsvOptions::algo`] is the one forcing option. The plan prices
//! the candidates with the exact launch predictors of [`crate::cost`],
//! with no fitted constants; only an interleaved plan with a streaming
//! launch ([`crate::interleaved::needs_layout_passes`]) pays conversion
//! passes. The interleaved and SPIKE plans are launch lists: the price
//! is the launch-order sum of the list, the runner executes it, and the
//! report carries what ran ([`BatchReport::list`],
//! [`SpikeReport::launches`]).

use crate::cost::{
    choose_spike_params, interleaved_launches, predict_fused, predict_gbtrs_blocked,
    predict_reference_floor, predict_time, predict_window, total_time, Kernel, Launch,
};
use crate::fused::{fused_smem_bytes, gbtrf_batch_fused, FusedParams};
use crate::gbsv_fused::{gbsv_batch_fused, gbsv_smem_bytes, FUSED_GBSV_MAX_N};
use crate::gbtrs_blocked::{
    backward_smem_bytes, forward_smem_bytes, gbtrs_batch_blocked, SolveParams,
};
use crate::gbtrs_cols::gbtrs_batch_cols;
use crate::gbtrs_trans::gbtrs_batch_blocked_trans;
use crate::interleaved::{
    deinterleave_launch, gbtrf_batch_interleaved, gbtrs_batch_interleaved, interleave_launch,
    InterleavedParams,
};
use crate::reference::gbtrf_batch_reference;
use crate::spike::{spike_gbsv_batch, spike_gbsv_batch_sized, SpikeParams, SpikeReport};
use crate::window::{gbtrf_batch_window, window_smem_bytes, WindowParams};
use gbatch_core::batch::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch_core::gbtrs::Transpose;
use gbatch_core::layout::BandLayout;
use gbatch_core::scalar::Scalar;
use gbatch_gpu_sim::engine::validate;
use gbatch_gpu_sim::{
    DeviceSpec, EngineMode, EngineScope, LaunchConfig, LaunchError, ParallelPolicy, SimTime,
};

/// The plan of a batched call: the one forcing option of [`GbsvOptions`].
///
/// `Auto` and `ColumnMajor` select (see the module doc). Every other value
/// forces the candidate it names: on `gbsv` nothing preempts it, and one
/// that does not fit the device returns its [`LaunchError`]. A call that
/// cannot offer the forced candidate runs a substitute:
///
/// - a solve-only call runs the column solve, except that `Interleaved`
///   over factor storage (`row_offset == kv`) runs the interleaved solve;
/// - the transpose solve runs the blocked transpose pair;
/// - `FusedGbsv` or `Spike` on [`gbtrf_batch`], `Spike` on storage the
///   split does not support (square LAPACK factor storage with
///   `kl + ku >= 1`), and `Interleaved` when its launch list cannot be
///   priced, run the `ColumnMajor` plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FactorAlgo {
    /// The full cascade, SPIKE and the interleaved layout included.
    #[default]
    Auto,
    /// The paper's policy (§5.4, §7): the cascade without SPIKE and
    /// without the interleaved layout.
    ColumnMajor,
    /// Force the single-kernel factorize-and-solve (§7).
    FusedGbsv,
    /// Force the fully fused factorization (§5.2).
    Fused,
    /// Force the sliding-window factorization (§5.3).
    Window,
    /// Force the fork–join reference (§5.1).
    Reference,
    /// Force the batch-major interleaved kernels ([`crate::interleaved`]).
    Interleaved,
    /// Force the SPIKE split driver ([`crate::spike`]) with exactly the
    /// parameters [`GbsvOptions::spike`] carries.
    Spike,
}

/// Which kernel the dispatcher actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChosenAlgo {
    /// Fully fused factorization.
    Fused,
    /// Sliding-window factorization.
    Window,
    /// Fork–join reference factorization.
    Reference,
    /// Single-kernel factorize-and-solve (`GBSV` only).
    FusedGbsv,
    /// Batch-major interleaved kernels ([`crate::interleaved`]): one
    /// launch per factor or solve, plus pack/unpack conversion passes
    /// when one of them streams.
    Interleaved,
    /// SPIKE-style split solve for large single systems
    /// ([`crate::spike`]): `P` diagonal blocks factored as an
    /// intra-matrix batch plus a small reduced coupling system.
    Spike,
}

/// Options for the batched routines. `Default` runs [`FactorAlgo::Auto`];
/// the paper's published policy is [`FactorAlgo::ColumnMajor`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GbsvOptions {
    /// The plan (default: [`FactorAlgo::Auto`]).
    pub algo: FactorAlgo,
    /// Sliding-window tuning parameters (default: [`WindowParams::auto`];
    /// the `gbatch-tuning` crate produces better values per band shape).
    pub window: Option<WindowParams>,
    /// Blocked-solve tuning parameters (default: [`SolveParams::auto`]).
    pub solve: Option<SolveParams>,
    /// Host-side scheduling of the per-matrix blocks inside the simulated
    /// engine (default: serial). Results are bitwise-identical for every
    /// policy; `Some(_)` overrides the policy carried by explicit
    /// `window`/`solve`/`spike` parameter structs.
    pub parallel: Option<ParallelPolicy>,
    /// SPIKE split-solve parameters (default: [`SpikeParams::auto`]). A
    /// forced [`FactorAlgo::Spike`] runs exactly these; `Auto` replaces
    /// their block count and `nb` with the pair [`choose_spike_params`]
    /// prices cheapest, then sizes each lane whose spikes decay
    /// ([`crate::spike`], "Sizing").
    pub spike: Option<SpikeParams>,
    /// Engine mode for every launch this dispatch issues (default: the
    /// caller's ambient mode, i.e. [`EngineMode::PerLaunch`] unless the
    /// caller opened an [`EngineScope`]). `Some(Resident)` routes the
    /// launches through the persistent worker pool and prices them with
    /// the warm overhead; results stay bitwise-identical either way.
    pub engine: Option<EngineMode>,
}

impl GbsvOptions {
    /// Ambient engine scope for this dispatch, if the options pin a mode.
    /// Held across the kernel calls so every internally-built
    /// `LaunchConfig` sees one engine mode.
    fn engine_scope(&self) -> Option<EngineScope> {
        self.engine.map(EngineScope::enter)
    }

    /// Blocked-solve parameters with the `parallel` override applied.
    fn solve_params(&self, dev: &DeviceSpec, kl: usize) -> SolveParams {
        let p = self.solve.unwrap_or_else(|| SolveParams::auto(dev, kl));
        self.parallel.map_or(p, |pol| p.with_parallel(pol))
    }

    /// The no-transpose solve kernel for `nrhs` columns: blocked, or the
    /// per-column kernels when the blocked solve's RHS caches cannot fit
    /// shared memory. Decided before either launch, so the fallback
    /// always starts from the caller's untouched RHS.
    fn column_solve<S: Scalar>(&self, dev: &DeviceSpec, l: &BandLayout, nrhs: usize) -> Solve {
        let p = self.solve_params(dev, l.kl);
        if blocked_solve_smem::<S>(l, &p, nrhs) > dev.max_smem_per_block as usize {
            Solve::PerColumn(self.parallel.unwrap_or_default())
        } else {
            Solve::Blocked(p)
        }
    }
}

/// Shared bytes of the larger of the two blocked-solve launches.
fn blocked_solve_smem<S: Scalar>(l: &BandLayout, p: &SolveParams, nrhs: usize) -> usize {
    forward_smem_bytes::<S>(l, p.nb, nrhs).max(backward_smem_bytes::<S>(l, p.nb, nrhs))
}

/// Minimum matrix order for the SPIKE split regime in the selection
/// cascade. Below this the per-matrix parallelism a split exposes cannot
/// amortize its extra launches (extract, combine, residual guard); a
/// forced [`FactorAlgo::Spike`] bypasses the floor.
pub const SPIKE_MIN_N: usize = 4096;

/// The work one batched call asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    /// `gbtrf`: factor the band.
    Factor,
    /// `gbsv`: factor the band, then solve `nrhs` columns.
    FactorSolve(usize),
    /// `gbtrs`: solve `nrhs` columns over a band the caller factored.
    Solve(usize),
}

/// What one batched call runs, with every parameter resolved.
#[derive(Debug, Clone)]
enum Plan {
    /// Single-kernel factorize-and-solve.
    FusedGbsv {
        threads: u32,
        parallel: ParallelPolicy,
    },
    /// SPIKE split driver at `params`; `sized` lets each lane first be
    /// sized from its decay probe (`Auto` only).
    Spike { params: SpikeParams, sized: bool },
    /// The interleaved kernels, run as the launch list
    /// [`interleaved_launches`] prices.
    Interleaved {
        params: InterleavedParams,
        launches: Vec<Launch>,
    },
    /// The paper's column-major kernels: a factorization, a solve, or
    /// both, as the call asks.
    Column { factor: Factor, solve: Solve },
}

/// Column-major factorization kernel.
#[derive(Debug, Clone, Copy)]
enum Factor {
    Fused(FusedParams),
    Window(WindowParams),
    Reference(ParallelPolicy),
}

/// Column-major no-transpose solve kernel.
#[derive(Debug, Clone, Copy)]
enum Solve {
    Blocked(SolveParams),
    PerColumn(ParallelPolicy),
}

/// Decide one call on a batch of `batch` matrices of layout `l`. Pure:
/// reads no matrix data and issues no launch.
///
/// A forced [`FactorAlgo`] maps straight to its candidate, or to the
/// substitute its doc lists when the call cannot offer it. `Auto` and
/// `ColumnMajor` run the cascade, in order:
///
/// 1. **Fused GBSV** for single-RHS `gbsv` systems up to
///    [`FUSED_GBSV_MAX_N`] whose working set fits shared memory.
/// 2. **SPIKE** (`Auto` only) for `gbsv` on square LAPACK-storage
///    systems with a nonempty band, from [`SPIKE_MIN_N`] on, when the
///    split — at the block count and `nb` [`choose_spike_params`] prices
///    cheapest, on the exact path a lane takes at worst — is priced below
///    90% of the unsplit window factorization plus blocked solve. The
///    split driver then sizes each lane from its spike decay.
/// 3. **Layout** (`Auto` only, factor storage `row_offset == kv` only):
///    the interleaved path when its price (conversion passes included when
///    a launch streams) beats the column-major price, the solve's alone
///    for a solve-only call. A column path that cannot be priced exactly
///    is priced by a floor (reference factorization, per-column solve),
///    which biases the decision toward column-major.
/// 4. **§5.4 algorithm**: fused below the cutoff, window otherwise,
///    fused when only it fits, reference as the safety net; the solve is
///    blocked unless its RHS caches cannot fit.
fn plan<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    batch: usize,
    call: Call,
    opts: &GbsvOptions,
) -> Plan {
    let (nrhs, factoring) = match call {
        Call::Factor => (0, true),
        Call::FactorSolve(nrhs) => (nrhs, true),
        Call::Solve(nrhs) => (nrhs, false),
    };
    let factor_storage = l.row_offset == l.kv();
    let parallel = opts.parallel.unwrap_or_default();
    let mut fused = FusedParams::auto(dev, l.kl);
    let mut window = opts.window.unwrap_or_else(|| WindowParams::auto(dev, l.kl));
    let mut spike = opts.spike.unwrap_or_else(|| SpikeParams::auto(dev, l.kl));
    let mut interleaved = InterleavedParams::auto(dev, l, nrhs);
    if let Some(p) = opts.parallel {
        fused = fused.with_parallel(p);
        window = window.with_parallel(p);
        spike = spike.with_parallel(p);
        interleaved = interleaved.with_parallel(p);
    }
    let solve = opts.column_solve::<S>(dev, l, nrhs);
    let interleaved_list =
        || interleaved_launches::<S>(dev, l, batch, nrhs, factoring, &interleaved);
    let interleaved_plan = |launches| Plan::Interleaved {
        params: interleaved,
        launches,
    };
    let fused_gbsv = Plan::FusedGbsv {
        threads: fused.threads,
        parallel,
    };
    let spike_storage = factoring
        && nrhs > 0
        && l.m == l.n
        && factor_storage
        && l.kl + l.ku > 0
        && BandLayout::factor(l.n, l.n, l.kl, l.ku).is_ok_and(|min| min.ldab == l.ldab);

    let prec = crate::flop_class::<S>();
    let fused_cfg = LaunchConfig::new(fused.threads, fused_smem_bytes::<S>(l.ldab, l.n) as u32)
        .with_precision(prec);
    let window_cfg = LaunchConfig::new(window.threads, window_smem_bytes::<S>(l, window.nb) as u32)
        .with_precision(prec);
    let fused_fits = validate(dev, &fused_cfg).is_ok();
    let window_fits = validate(dev, &window_cfg).is_ok();
    let factor = if fused_fits && (l.n.max(l.m) <= FUSED_GBSV_MAX_N || !window_fits) {
        Factor::Fused(fused)
    } else if window_fits {
        Factor::Window(window)
    } else {
        Factor::Reference(parallel)
    };
    let column = |factor| Plan::Column { factor, solve };

    match opts.algo {
        FactorAlgo::Auto | FactorAlgo::ColumnMajor => {}
        FactorAlgo::Interleaved if factoring || factor_storage => {
            if let Some(launches) = interleaved_list() {
                return interleaved_plan(launches);
            }
        }
        _ if !factoring => return column(factor),
        FactorAlgo::FusedGbsv if nrhs > 0 => return fused_gbsv,
        FactorAlgo::Spike if spike_storage => {
            return Plan::Spike {
                params: spike,
                sized: false,
            }
        }
        FactorAlgo::Fused => return column(Factor::Fused(fused)),
        FactorAlgo::Window => return column(Factor::Window(window)),
        FactorAlgo::Reference => return column(Factor::Reference(parallel)),
        // A forced value the call cannot offer: the `ColumnMajor` cascade.
        FactorAlgo::FusedGbsv | FactorAlgo::Spike | FactorAlgo::Interleaved => {}
    }

    if call == Call::FactorSolve(1)
        && l.n <= FUSED_GBSV_MAX_N
        && validate(
            dev,
            &LaunchConfig::new(fused.threads, gbsv_smem_bytes::<S>(l, nrhs) as u32),
        )
        .is_ok()
    {
        return fused_gbsv;
    }

    // The column-major price, shared by the SPIKE and layout tests. The
    // predictors take the shared-memory parallelism the kernels record,
    // `min(threads, lds_lanes)`.
    let lanes = |threads: u32| threads.min(dev.lds_lanes);
    let factor_time = match factor {
        Factor::Fused(p) => predict_time(
            dev,
            &fused_cfg,
            batch,
            &predict_fused::<S>(l, lanes(p.threads)),
        ),
        Factor::Window(p) => predict_time(
            dev,
            &window_cfg,
            batch,
            &predict_window::<S>(l, p.nb, lanes(p.threads)),
        ),
        Factor::Reference(_) => Some(predict_reference_floor::<S>(dev, l, batch)),
    };
    let solve_time = match solve {
        Solve::Blocked(p) if nrhs > 0 => predict_time(
            dev,
            &LaunchConfig::new(p.threads, blocked_solve_smem::<S>(l, &p, nrhs) as u32)
                .with_precision(prec),
            batch,
            &predict_gbtrs_blocked::<S>(l, p.nb, nrhs, lanes(p.threads)),
        ),
        _ => None,
    };

    let auto = opts.algo == FactorAlgo::Auto;
    if auto && spike_storage && l.n >= SPIKE_MIN_N && matches!(factor, Factor::Window(_)) {
        if let (Some(f), Some(s), Some((params, lane))) = (
            factor_time,
            solve_time,
            choose_spike_params::<S>(dev, l, nrhs, &spike),
        ) {
            if lane.secs() * (batch as f64) < 0.9 * (f + s).secs() {
                return Plan::Spike {
                    params,
                    sized: true,
                };
            }
        }
    }

    if !auto || !factor_storage {
        return column(factor);
    }
    // An unpriced blocked solve means the per-column kernels (~2n
    // launches): their launch floor plus one pass over factors and RHS.
    let solve_time = (nrhs > 0).then(|| {
        solve_time.unwrap_or_else(|| {
            let bytes = ((l.len() + 2 * l.n * nrhs) * batch * S::BYTES) as f64;
            SimTime(2.0 * l.n as f64 * dev.launch_overhead_s + bytes / dev.mem_bw)
        })
    });
    let column_time = match call {
        Call::Solve(_) => solve_time,
        _ => factor_time.map(|f| solve_time.map_or(f, |s| f + s)),
    };
    match (interleaved_list(), column_time) {
        (Some(launches), Some(col)) if total_time(&launches).secs() < col.secs() => {
            interleaved_plan(launches)
        }
        _ => column(factor),
    }
}

/// Outcome of a batched routine: which kernel ran, what it cost, and which
/// lanes (if any) hit a zero pivot.
#[derive(Debug, Clone)]
#[must_use = "carries per-lane singularity and modeled cost"]
pub struct BatchReport {
    /// Kernel design the dispatcher selected.
    pub algo: ChosenAlgo,
    /// Total modeled time (all launches).
    pub time: SimTime,
    /// Number of kernel launches issued.
    pub launches: usize,
    /// Problem ids whose factorization hit a zero pivot, ascending — the
    /// same lanes `info` flags, surfaced on the report so callers get
    /// per-problem granularity without re-scanning the `info` array. A
    /// singular lane is *not* a batch failure: its batchmates factor and
    /// solve normally (every kernel family masks singular lanes), so the
    /// routine still returns `Ok`. Solve-only entries
    /// ([`dgbtrs_batch`]) report the lanes the caller's `info` already
    /// flagged as skipped, or empty when all factors were healthy.
    pub singular: Vec<usize>,
    /// The split driver's own report when the call ran SPIKE: each lane's
    /// outcome and partition, and the decay probes' launches.
    pub spike: Option<SpikeReport>,
    /// Every launch an interleaved plan ran, in order (a SPIKE call's are
    /// [`SpikeReport::launches`]); empty for the other plans.
    pub list: Vec<Launch>,
}

impl BatchReport {
    /// The report of a plan that reports its launch count alone.
    fn counted(algo: ChosenAlgo, time: SimTime, launches: usize, singular: Vec<usize>) -> Self {
        BatchReport {
            algo,
            time,
            launches,
            singular,
            spike: None,
            list: Vec::new(),
        }
    }

    /// True when every lane factored without a zero pivot.
    #[must_use]
    pub fn all_lanes_ok(&self) -> bool {
        self.singular.is_empty()
    }

    /// Number of lanes flagged singular.
    #[must_use]
    pub fn singular_lanes(&self) -> usize {
        self.singular.len()
    }
}

/// The band an interleaved plan runs over.
enum Band<'a, S: Scalar> {
    /// Factored in place (`gbtrf`, `gbsv`), with its pivots and `info`.
    Factor(&'a mut BandBatch<S>, &'a mut PivotBatch, &'a mut InfoArray),
    /// Factors a solve-only call vouches for, so no lane is masked.
    Factored(&'a [S], &'a PivotBatch, InfoArray),
}

impl<S: Scalar> Band<'_, S> {
    fn read(&self) -> (&[S], &PivotBatch, &InfoArray) {
        match self {
            Band::Factor(a, piv, info) => (a.data(), piv, info),
            Band::Factored(factors, piv, info) => (factors, piv, info),
        }
    }
}

/// Run an interleaved plan's launches in order over `band` and `rhs`
/// (which a plan with a solve launch has). The kernels run on the
/// caller's column-major storage; pack and unpack are priced passes that
/// move no host data.
fn run_interleaved<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    mut band: Band<'_, S>,
    mut rhs: Option<&mut RhsBatch<S>>,
    params: InterleavedParams,
    launches: &[Launch],
) -> Result<BatchReport, LaunchError> {
    let mut ran = Vec::with_capacity(launches.len());
    for step in launches {
        let rep = match (step.kernel, &mut band) {
            (Kernel::InterleavedFactor, Band::Factor(a, piv, info)) => {
                gbtrf_batch_interleaved(dev, a, piv, info, params)?
            }
            (Kernel::InterleavedSolve, band) => {
                let (factors, piv, info) = band.read();
                let rhs = rhs.as_deref_mut().expect("a solve launch has a RHS");
                gbtrs_batch_interleaved(dev, l, factors, piv, rhs, info, params)?
            }
            (Kernel::Pack, band) => interleave_launch(dev, l, band.read().0, params)?,
            (Kernel::Unpack, band) => deinterleave_launch(dev, l, band.read().0, params)?,
            (kernel, _) => unreachable!("{kernel:?} in an interleaved plan"),
        };
        ran.push(Launch::ran(step.kernel, &rep, step.groups));
    }
    Ok(BatchReport {
        algo: ChosenAlgo::Interleaved,
        time: total_time(&ran),
        launches: ran.len(),
        singular: band.read().2.failures(),
        spike: None,
        list: ran,
    })
}

/// Run one column-major factorization kernel.
fn run_factor<S: Scalar>(
    dev: &DeviceSpec,
    a: &mut BandBatch<S>,
    piv: &mut PivotBatch,
    info: &mut InfoArray,
    factor: Factor,
) -> Result<BatchReport, LaunchError> {
    let (algo, time, launches) = match factor {
        Factor::Fused(p) => (
            ChosenAlgo::Fused,
            gbtrf_batch_fused(dev, a, piv, info, p)?.time,
            1,
        ),
        Factor::Window(p) => (
            ChosenAlgo::Window,
            gbtrf_batch_window(dev, a, piv, info, p)?.time,
            1,
        ),
        Factor::Reference(pol) => {
            let rep = gbtrf_batch_reference(dev, a, piv, info, pol)?;
            (ChosenAlgo::Reference, rep.time, rep.launches)
        }
    };
    Ok(BatchReport::counted(algo, time, launches, info.failures()))
}

/// Run one column-major no-transpose solve kernel.
fn run_solve<S: Scalar>(
    dev: &DeviceSpec,
    l: &BandLayout,
    factors: &[S],
    piv: &PivotBatch,
    rhs: &mut RhsBatch<S>,
    solve: Solve,
) -> Result<BatchReport, LaunchError> {
    let (algo, time, launches) = match solve {
        Solve::Blocked(p) => {
            let rep = gbtrs_batch_blocked(dev, l, factors, piv, rhs, p)?;
            (
                ChosenAlgo::Window,
                rep.time(),
                1 + rep.forward.is_some() as usize,
            )
        }
        Solve::PerColumn(pol) => {
            let rep = gbtrs_batch_cols(dev, l, factors, piv, rhs, pol)?;
            (ChosenAlgo::Reference, rep.time, rep.launches)
        }
    };
    Ok(BatchReport::counted(algo, time, launches, Vec::new()))
}

/// `Err(ArgMismatch)` unless the caller's `got` equals `expected`.
pub(crate) fn agree(arg: &'static str, expected: usize, got: usize) -> Result<(), LaunchError> {
    if got == expected {
        Ok(())
    } else {
        Err(LaunchError::ArgMismatch { arg, expected, got })
    }
}

/// Check the pivots of `batch` factorizations of layout `l`.
pub(crate) fn check_pivots(
    l: &BandLayout,
    batch: usize,
    piv: &PivotBatch,
) -> Result<(), LaunchError> {
    agree("pivot batch", batch, piv.batch())?;
    agree("pivots per matrix", l.m.min(l.n), piv.per_matrix())
}

/// Check the right-hand sides of `batch` systems of layout `l`.
pub(crate) fn check_rhs<S: Scalar>(
    l: &BandLayout,
    batch: usize,
    rhs: &RhsBatch<S>,
) -> Result<(), LaunchError> {
    agree("rhs batch", batch, rhs.batch())?;
    agree("rhs rows", l.n, rhs.n())
}

/// Batched band LU factorization (`dgbtrf_batch`, paper Section 4).
pub fn dgbtrf_batch(
    dev: &DeviceSpec,
    a: &mut BandBatch,
    piv: &mut PivotBatch,
    info: &mut InfoArray,
    opts: &GbsvOptions,
) -> Result<BatchReport, LaunchError> {
    gbtrf_batch::<f64>(dev, a, piv, info, opts)
}

/// Single-precision batched band LU factorization (`sgbtrf_batch`): the
/// same §5.4 selection logic instantiated over `f32` — halved shared
/// footprints shift every fit test and crossover.
pub fn sgbtrf_batch(
    dev: &DeviceSpec,
    a: &mut BandBatch<f32>,
    piv: &mut PivotBatch,
    info: &mut InfoArray,
    opts: &GbsvOptions,
) -> Result<BatchReport, LaunchError> {
    gbtrf_batch::<f32>(dev, a, piv, info, opts)
}

/// Precision-generic batched band LU factorization; `dgbtrf_batch` /
/// `sgbtrf_batch` are its two instantiations.
pub fn gbtrf_batch<S: Scalar>(
    dev: &DeviceSpec,
    a: &mut BandBatch<S>,
    piv: &mut PivotBatch,
    info: &mut InfoArray,
    opts: &GbsvOptions,
) -> Result<BatchReport, LaunchError> {
    let l = a.layout();
    check_pivots(&l, a.batch(), piv)?;
    agree("info length", a.batch(), info.len())?;
    let _engine = opts.engine_scope();
    match plan::<S>(dev, &l, a.batch(), Call::Factor, opts) {
        Plan::Interleaved { params, launches } => {
            let band = Band::Factor(a, piv, info);
            run_interleaved(dev, &l, band, None, params, &launches)
        }
        Plan::Column { factor, .. } => run_factor(dev, a, piv, info, factor),
        Plan::FusedGbsv { .. } | Plan::Spike { .. } => {
            unreachable!("a plan without right-hand sides never solves")
        }
    }
}

/// Batched band triangular solve (`dgbtrs_batch`, paper Section 4), with
/// the interface's `transpose_t transA` argument. Under `Auto` the
/// no-transpose solve is the cheaper of the blocked column-major kernels
/// (column-wise when the RHS cache cannot fit in shared memory) and the
/// interleaved solve, after one pack pass when it streams; the transpose
/// solve always runs the blocked transpose kernels.
pub fn dgbtrs_batch(
    dev: &DeviceSpec,
    trans: Transpose,
    l: &BandLayout,
    factors: &[f64],
    piv: &PivotBatch,
    rhs: &mut RhsBatch,
    opts: &GbsvOptions,
) -> Result<BatchReport, LaunchError> {
    gbtrs_batch::<f64>(dev, trans, l, factors, piv, rhs, opts)
}

/// Single-precision batched band triangular solve (`sgbtrs_batch`).
pub fn sgbtrs_batch(
    dev: &DeviceSpec,
    trans: Transpose,
    l: &BandLayout,
    factors: &[f32],
    piv: &PivotBatch,
    rhs: &mut RhsBatch<f32>,
    opts: &GbsvOptions,
) -> Result<BatchReport, LaunchError> {
    gbtrs_batch::<f32>(dev, trans, l, factors, piv, rhs, opts)
}

/// Precision-generic batched band triangular solve; `dgbtrs_batch` /
/// `sgbtrs_batch` are its two instantiations.
pub fn gbtrs_batch<S: Scalar>(
    dev: &DeviceSpec,
    trans: Transpose,
    l: &BandLayout,
    factors: &[S],
    piv: &PivotBatch,
    rhs: &mut RhsBatch<S>,
    opts: &GbsvOptions,
) -> Result<BatchReport, LaunchError> {
    let batch = rhs.batch();
    agree("factor length", l.len() * batch, factors.len())?;
    check_pivots(l, batch, piv)?;
    check_rhs(l, batch, rhs)?;
    let _engine = opts.engine_scope();
    match trans {
        Transpose::No => match plan::<S>(dev, l, batch, Call::Solve(rhs.nrhs()), opts) {
            Plan::Interleaved { params, launches } => {
                let band = Band::Factored(factors, piv, InfoArray::new(batch));
                run_interleaved(dev, l, band, Some(rhs), params, &launches)
            }
            Plan::Column { solve, .. } => run_solve(dev, l, factors, piv, rhs, solve),
            Plan::FusedGbsv { .. } | Plan::Spike { .. } => {
                unreachable!("a solve-only plan never factors")
            }
        },
        Transpose::Yes => {
            let params = opts.solve_params(dev, l.kl);
            let rep = gbtrs_batch_blocked_trans(dev, l, factors, piv, rhs, params)?;
            let launches = 1 + rep.lt.is_some() as usize;
            let algo = ChosenAlgo::Window;
            Ok(BatchReport::counted(algo, rep.time(), launches, Vec::new()))
        }
    }
}

/// Batched band triangular solve over **retained per-lane factors** —
/// the serving layer's factorization-reuse hot path.
///
/// Each lane arrives as `(factored band, 0-based pivots)` harvested from
/// an earlier `gbtrf_batch` run (e.g. out of a serve-layer factor
/// cache). The lanes are gathered into one contiguous batch, and
/// [`gbtrs_batch`] executes its plan on it, so a cached-factor solve is
/// bitwise-identical to the solve that would have followed a fresh
/// factorization of the same operators. The gather is the one host-side
/// copy of the band (every kernel reads the gathered slice in place), and
/// like every other host-side batch assembly in the workspace it is
/// unpriced — the returned time is the device solve.
pub fn gbtrs_batch_lanes<S: Scalar>(
    dev: &DeviceSpec,
    trans: Transpose,
    l: &BandLayout,
    lanes: &[(&[S], &[i32])],
    rhs: &mut RhsBatch<S>,
    opts: &GbsvOptions,
) -> Result<BatchReport, LaunchError> {
    let batch = lanes.len();
    check_rhs(l, batch, rhs)?;
    let stride = l.len();
    let mut factors = vec![S::ZERO; stride * batch];
    let mut piv = PivotBatch::new(batch, l.m, l.n);
    let npiv = piv.per_matrix();
    for (k, (ab, ipiv)) in lanes.iter().enumerate() {
        agree("factor length per lane", stride, ab.len())?;
        agree("pivots per lane", npiv, ipiv.len())?;
        factors[k * stride..(k + 1) * stride].copy_from_slice(ab);
        piv.pivots_mut(k).copy_from_slice(ipiv);
    }
    gbtrs_batch::<S>(dev, trans, l, &factors, &piv, rhs, opts)
}

/// Batched band factorize-and-solve (`dgbsv_batch`, paper Section 4 and
/// Section 7): a single fused kernel for small single-RHS systems,
/// otherwise `dgbtrf_batch` followed by `dgbtrs_batch`.
pub fn dgbsv_batch(
    dev: &DeviceSpec,
    a: &mut BandBatch,
    piv: &mut PivotBatch,
    rhs: &mut RhsBatch,
    info: &mut InfoArray,
    opts: &GbsvOptions,
) -> Result<BatchReport, LaunchError> {
    gbsv_batch::<f64>(dev, a, piv, rhs, info, opts)
}

/// Single-precision batched band factorize-and-solve (`sgbsv_batch`): the
/// f32 working set halves every shared-memory footprint, so the fused and
/// window kernels stay resident to roughly twice the bandwidth (§8).
pub fn sgbsv_batch(
    dev: &DeviceSpec,
    a: &mut BandBatch<f32>,
    piv: &mut PivotBatch,
    rhs: &mut RhsBatch<f32>,
    info: &mut InfoArray,
    opts: &GbsvOptions,
) -> Result<BatchReport, LaunchError> {
    gbsv_batch::<f32>(dev, a, piv, rhs, info, opts)
}

/// Precision-generic batched band factorize-and-solve; `dgbsv_batch` /
/// `sgbsv_batch` are its two instantiations.
///
/// Every path returns a singular lane's RHS untouched: the SPIKE driver
/// and the interleaved solve skip such lanes themselves, while the fused
/// GBSV kernel and the column-major solve run on them and get their RHS
/// restored afterwards.
pub fn gbsv_batch<S: Scalar>(
    dev: &DeviceSpec,
    a: &mut BandBatch<S>,
    piv: &mut PivotBatch,
    rhs: &mut RhsBatch<S>,
    info: &mut InfoArray,
    opts: &GbsvOptions,
) -> Result<BatchReport, LaunchError> {
    let l = a.layout();
    agree("rows of a square system", l.n, l.m)?;
    check_pivots(&l, a.batch(), piv)?;
    agree("info length", a.batch(), info.len())?;
    check_rhs(&l, a.batch(), rhs)?;
    let _engine = opts.engine_scope();
    match plan::<S>(dev, &l, a.batch(), Call::FactorSolve(rhs.nrhs()), opts) {
        Plan::FusedGbsv { threads, parallel } => {
            // The fused kernel eliminates the RHS in lockstep with the
            // factorization, so a lane that hits a zero pivot mid-sweep
            // has already scrambled part of its RHS.
            let saved = rhs.data().to_vec();
            let rep = gbsv_batch_fused(dev, a, piv, rhs, info, threads, parallel)?;
            restore_failed(rhs, info, &saved);
            let algo = ChosenAlgo::FusedGbsv;
            Ok(BatchReport::counted(algo, rep.time, 1, info.failures()))
        }
        Plan::Spike { params, sized } => {
            let rep = if sized {
                spike_gbsv_batch_sized(dev, a, piv, rhs, info, params)?
            } else {
                spike_gbsv_batch(dev, a, piv, rhs, info, params)?
            };
            Ok(BatchReport {
                algo: ChosenAlgo::Spike,
                time: rep.time(),
                launches: rep.launches.len(),
                singular: info.failures(),
                spike: Some(rep),
                list: Vec::new(),
            })
        }
        Plan::Interleaved { params, launches } => {
            let band = Band::Factor(a, piv, info);
            run_interleaved(dev, &l, band, Some(rhs), params, &launches)
        }
        Plan::Column { factor, solve } => {
            let f = run_factor(dev, a, piv, info, factor)?;
            // DGBSV is per-system: solve only the healthy systems. The
            // triangular kernels would divide by zero on singular ones, so
            // their zero diagonals are patched to one for the solve and
            // their RHS restored afterwards.
            let s = if f.singular.is_empty() {
                run_solve(dev, &l, a.data(), piv, rhs, solve)?
            } else {
                let saved = rhs.data().to_vec();
                let patched = patch_zero_diagonals(&l, a.data(), &f.singular);
                let s = run_solve(dev, &l, &patched, piv, rhs, solve)?;
                restore_failed(rhs, info, &saved);
                s
            };
            let (time, launches) = (f.time + s.time, f.launches + s.launches);
            Ok(BatchReport::counted(f.algo, time, launches, f.singular))
        }
    }
}

/// Copy the saved RHS blocks of every lane `info` flags back into `rhs`.
fn restore_failed<S: Scalar>(rhs: &mut RhsBatch<S>, info: &InfoArray, saved: &[S]) {
    let stride = rhs.block_stride();
    for id in info.failures() {
        rhs.block_mut(id)
            .copy_from_slice(&saved[id * stride..(id + 1) * stride]);
    }
}

/// A copy of `factors` with the zero diagonals of the `failed` lanes set
/// to one, so the solve kernels run on them without dividing by zero.
fn patch_zero_diagonals<S: Scalar>(l: &BandLayout, factors: &[S], failed: &[usize]) -> Vec<S> {
    let mut patched = factors.to_vec();
    let stride = l.len();
    let kv = l.kv();
    for &id in failed {
        let ab = &mut patched[id * stride..(id + 1) * stride];
        for j in 0..l.n {
            if ab[l.idx(kv, j)] == S::ZERO {
                ab[l.idx(kv, j)] = S::ONE;
            }
        }
    }
    patched
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::residual::backward_error;

    fn random_system(
        batch: usize,
        n: usize,
        kl: usize,
        ku: usize,
        nrhs: usize,
    ) -> (BandBatch, RhsBatch) {
        let mut v = 0.53f64;
        let a = BandBatch::from_fn(batch, n, n, kl, ku, |id, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    v = (v * 2.6 + 0.077 + id as f64 * 1e-4).fract();
                    m.set(i, j, v - 0.5 + if i == j { 2.0 } else { 0.0 });
                }
            }
        })
        .unwrap();
        let b = RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
            ((id + c * 3 + i) as f64 * 0.41).sin()
        })
        .unwrap();
        (a, b)
    }

    fn solve_and_check(
        n: usize,
        kl: usize,
        ku: usize,
        nrhs: usize,
        opts: &GbsvOptions,
    ) -> ChosenAlgo {
        let dev = DeviceSpec::h100_pcie();
        let batch = 5;
        let (mut a, mut b) = random_system(batch, n, kl, ku, nrhs);
        let orig_a = a.clone();
        let orig_b = b.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let rep = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, opts).unwrap();
        assert!(info.all_ok());
        for id in 0..batch {
            for c in 0..nrhs {
                let x = &b.block(id)[c * n..c * n + n];
                let rhs0 = &orig_b.block(id)[c * n..c * n + n];
                let berr = backward_error(orig_a.matrix(id), x, rhs0);
                // Strict on purpose: these diagonally-dominant systems are
                // well-conditioned and the kernels are bitwise-equal to
                // sequential gbtf2/gbtrs, so 1e-11 has margin; loosen only
                // if the test matrices change.
                assert!(
                    berr < 1e-11,
                    "n={n} kl={kl} ku={ku} id={id} c={c}: berr {berr:.2e}"
                );
            }
        }
        rep.algo
    }

    #[test]
    fn auto_uses_fused_gbsv_for_small_single_rhs() {
        let algo = solve_and_check(32, 2, 3, 1, &GbsvOptions::default());
        assert_eq!(algo, ChosenAlgo::FusedGbsv);
    }

    #[test]
    fn auto_uses_window_for_large_matrices() {
        // Pin the layout: this test exercises the §5.4 *algorithm* choice
        // among the column-major kernels (at batch = 5 the layout
        // dimension would pick interleaved).
        let opts = GbsvOptions {
            algo: FactorAlgo::ColumnMajor,
            ..Default::default()
        };
        let algo = solve_and_check(200, 2, 3, 1, &opts);
        assert_eq!(algo, ChosenAlgo::Window);
    }

    #[test]
    fn multi_rhs_uses_separate_factor_and_solve() {
        let algo = solve_and_check(32, 2, 3, 4, &GbsvOptions::default());
        assert_ne!(algo, ChosenAlgo::FusedGbsv);
    }

    #[test]
    fn forcing_algorithms_works() {
        for (force, expect) in [
            (FactorAlgo::Fused, ChosenAlgo::Fused),
            (FactorAlgo::Window, ChosenAlgo::Window),
            (FactorAlgo::Reference, ChosenAlgo::Reference),
        ] {
            let opts = GbsvOptions {
                algo: force,
                ..Default::default()
            };
            let algo = solve_and_check(48, 2, 3, 1, &opts);
            assert_eq!(algo, expect);
        }
    }

    #[test]
    fn forced_spike_routes_through_split_driver() {
        // Explicit `spike` bypasses the size floor and pricing; the split
        // driver must still deliver the dispatcher's accuracy contract.
        let opts = GbsvOptions {
            algo: FactorAlgo::Spike,
            spike: Some(SpikeParams::default().with_parts(4)),
            ..Default::default()
        };
        let algo = solve_and_check(120, 2, 3, 2, &opts);
        assert_eq!(algo, ChosenAlgo::Spike);
    }

    #[test]
    fn auto_spike_takes_the_chosen_params_and_forcing_bypasses_them() {
        let l = BandLayout::factor(65_536, 65_536, 8, 8).unwrap();
        for dev in [DeviceSpec::h100_pcie(), DeviceSpec::mi250x_gcd()] {
            let auto = SpikeParams::auto(&dev, 8);
            let (chosen, _) = choose_spike_params::<f64>(&dev, &l, 1, &auto).unwrap();
            assert_ne!((chosen.parts, chosen.nb), (4, 8));
            let planned = plan::<f64>(&dev, &l, 1, Call::FactorSolve(1), &GbsvOptions::default());
            assert!(
                matches!(planned, Plan::Spike { params, sized: true } if params == chosen),
                "Auto runs the exact plan, sized per lane"
            );
            let given = SpikeParams::default().with_parts(4);
            let forced = GbsvOptions {
                algo: FactorAlgo::Spike,
                spike: Some(given),
                ..Default::default()
            };
            let planned = plan::<f64>(&dev, &l, 1, Call::FactorSolve(1), &forced);
            assert!(
                matches!(planned, Plan::Spike { params, sized: false } if params == given),
                "a forced split runs exactly its parameters"
            );
        }
    }

    #[test]
    fn column_major_never_splits() {
        // At the SPIKE floor `Auto` splits this shape; the paper's policy
        // runs the window kernel.
        let dev = DeviceSpec::h100_pcie();
        let (batch, n) = (2, SPIKE_MIN_N);
        let (a0, b0) = random_system(batch, n, 8, 8, 1);
        for (algo, want) in [
            (FactorAlgo::Auto, ChosenAlgo::Spike),
            (FactorAlgo::ColumnMajor, ChosenAlgo::Window),
        ] {
            let (mut a, mut b) = (a0.clone(), b0.clone());
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let opts = GbsvOptions {
                algo,
                ..Default::default()
            };
            let rep = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts).unwrap();
            assert_eq!(rep.algo, want, "{algo:?}");
            assert!(info.all_ok());
        }
    }

    #[test]
    fn solve_only_plans_interleave_only_factor_storage() {
        let dev = DeviceSpec::h100_pcie();
        let interleaved = GbsvOptions {
            algo: FactorAlgo::Interleaved,
            ..Default::default()
        };
        let factor = BandLayout::factor(128, 128, 2, 3).unwrap();
        let pure = BandLayout::pure(128, 128, 2, 3).unwrap();
        for opts in [GbsvOptions::default(), interleaved] {
            let planned = plan::<f64>(&dev, &factor, 64, Call::Solve(1), &opts);
            assert!(matches!(planned, Plan::Interleaved { .. }), "{opts:?}");
            let planned = plan::<f64>(&dev, &pure, 64, Call::Solve(1), &opts);
            assert!(matches!(planned, Plan::Column { .. }), "{opts:?}");
        }
    }

    #[test]
    fn auto_routes_large_systems_through_spike() {
        let dev = DeviceSpec::h100_pcie();
        let batch = 2;
        let (n, kl, ku, nrhs) = (4096, 8, 8, 1);
        let (mut a, mut b) = random_system(batch, n, kl, ku, nrhs);
        let orig_a = a.clone();
        let orig_b = b.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let opts = GbsvOptions::default();
        let rep = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts).unwrap();
        assert_eq!(rep.algo, ChosenAlgo::Spike);
        assert!(info.all_ok());
        for id in 0..batch {
            let x = &b.block(id)[..n];
            let berr = backward_error(orig_a.matrix(id), x, &orig_b.block(id)[..n]);
            assert!(berr < 1e-11, "id={id}: berr {berr:.2e}");
        }
    }

    #[test]
    fn auto_stays_unsplit_below_spike_floor() {
        let opts = GbsvOptions {
            algo: FactorAlgo::ColumnMajor,
            ..Default::default()
        };
        let algo = solve_and_check(1024, 4, 4, 1, &opts);
        assert_eq!(algo, ChosenAlgo::Window);
    }

    #[test]
    fn solve_falls_back_before_the_forward_sweep_when_only_it_fits() {
        // (2,60) with 500 RHS on the H100: the forward RHS cache (10 rows)
        // fits shared memory, the backward one (70 rows) does not. The
        // per-column fallback must start from the caller's RHS, not from
        // one the blocked forward sweep already overwrote.
        let opts = GbsvOptions {
            algo: FactorAlgo::ColumnMajor,
            ..Default::default()
        };
        assert_eq!(solve_and_check(100, 2, 60, 500, &opts), ChosenAlgo::Window);
    }

    #[test]
    fn all_algorithms_agree_bitwise() {
        let dev = DeviceSpec::h100_pcie();
        let (n, kl, ku, batch) = (40usize, 3usize, 2usize, 3usize);
        let (a0, _) = random_system(batch, n, kl, ku, 1);
        let mut results = Vec::new();
        for force in [FactorAlgo::Fused, FactorAlgo::Window, FactorAlgo::Reference] {
            let mut a = a0.clone();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let opts = GbsvOptions {
                algo: force,
                ..Default::default()
            };
            let _ = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &opts).unwrap();
            results.push((a, piv));
        }
        for k in 1..results.len() {
            assert_eq!(results[0].0.data(), results[k].0.data(), "factors differ");
            assert_eq!(results[0].1, results[k].1, "pivots differ");
        }
    }

    #[test]
    fn mi250x_falls_back_to_window_when_fused_cannot_fit() {
        // n = 2000 with (2, 3): fused needs 2000 * 8 * 8 B = 125 KB — over
        // the MI250x 64 KB LDS, but the window still runs.
        let dev = DeviceSpec::mi250x_gcd();
        let (n, kl, ku, batch) = (2000usize, 2usize, 3usize, 2usize);
        let (mut a, _) = random_system(batch, n, kl, ku, 1);
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let opts = GbsvOptions {
            algo: FactorAlgo::ColumnMajor,
            ..Default::default()
        };
        let rep = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &opts).unwrap();
        assert_eq!(rep.algo, ChosenAlgo::Window);
        assert!(info.all_ok());
    }

    #[test]
    fn reference_picked_when_nothing_fits() {
        // A pathological band so wide no window fits the 64 KB LDS:
        // kl = ku = 500 -> ldab = 1501, window cols >= kv + 2 = 1002 ->
        // far beyond LDS. Auto must fall back to the reference kernels.
        let dev = DeviceSpec::mi250x_gcd();
        let (n, kl, ku) = (1200usize, 500usize, 500usize);
        let mut v = 0.3f64;
        let mut a = BandBatch::from_fn(2, n, n, kl, ku, |_, m| {
            // Sparse fill for speed: diagonal plus a few bands.
            for j in 0..n {
                v = (v * 1.1 + 0.21).fract();
                m.set(j, j, 3.0 + v);
                if j + 200 < n {
                    m.set(j + 200, j, v - 0.5);
                }
                if j >= 300 {
                    m.set(j - 300, j, v - 0.25);
                }
            }
        })
        .unwrap();
        let mut piv = PivotBatch::new(2, n, n);
        let mut info = InfoArray::new(2);
        // Pin the layout: with `Auto` the streaming interleaved kernels
        // take this regime over (see
        // `auto_layout_picks_interleaved_when_nothing_column_major_fits`).
        let opts = GbsvOptions {
            algo: FactorAlgo::ColumnMajor,
            ..Default::default()
        };
        let rep = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &opts).unwrap();
        assert_eq!(rep.algo, ChosenAlgo::Reference);
        assert!(info.all_ok());
    }

    #[test]
    fn forced_interleaved_layout_matches_column_major_bitwise() {
        let dev = DeviceSpec::h100_pcie();
        let (n, kl, ku, batch, nrhs) = (48usize, 3usize, 2usize, 6usize, 2usize);
        let (a0, b0) = random_system(batch, n, kl, ku, nrhs);

        let mut a_col = a0.clone();
        let mut b_col = b0.clone();
        let mut piv_col = PivotBatch::new(batch, n, n);
        let mut info_col = InfoArray::new(batch);
        let col_opts = GbsvOptions {
            algo: FactorAlgo::ColumnMajor,
            ..Default::default()
        };
        let _ = dgbsv_batch(
            &dev,
            &mut a_col,
            &mut piv_col,
            &mut b_col,
            &mut info_col,
            &col_opts,
        )
        .unwrap();

        let mut a_int = a0.clone();
        let mut b_int = b0.clone();
        let mut piv_int = PivotBatch::new(batch, n, n);
        let mut info_int = InfoArray::new(batch);
        let int_opts = GbsvOptions {
            algo: FactorAlgo::Interleaved,
            ..Default::default()
        };
        let rep = dgbsv_batch(
            &dev,
            &mut a_int,
            &mut piv_int,
            &mut b_int,
            &mut info_int,
            &int_opts,
        )
        .unwrap();
        assert_eq!(rep.algo, ChosenAlgo::Interleaved);
        assert_eq!(rep.launches, 2, "windowed: factor and solve, no passes");
        assert_eq!(a_col.data(), a_int.data(), "factors differ across layouts");
        assert_eq!(piv_col, piv_int, "pivots differ across layouts");
        assert_eq!(
            b_col.data(),
            b_int.data(),
            "solutions differ across layouts"
        );
        assert!(info_int.all_ok());

        // Factor-only entry point round-trips the same way.
        let mut a_f = a0.clone();
        let mut piv_f = PivotBatch::new(batch, n, n);
        let mut info_f = InfoArray::new(batch);
        let rep = dgbtrf_batch(&dev, &mut a_f, &mut piv_f, &mut info_f, &int_opts).unwrap();
        assert_eq!(rep.algo, ChosenAlgo::Interleaved);
        assert_eq!(rep.launches, 1);
        assert_eq!(a_col.data(), a_f.data());
        assert_eq!(piv_col, piv_f);
    }

    #[test]
    fn auto_layout_picks_interleaved_when_nothing_column_major_fits() {
        // kl = ku = 40 at n = 96 on the MI250x: the fused kernel needs
        // 93 KB and a one-column window 79 KB — both over the 64 KB LDS,
        // so the column path is the 2n+1-launch reference fallback. At a
        // small batch the streaming interleaved kernels win despite the
        // pack/unpack conversion.
        let dev = DeviceSpec::mi250x_gcd();
        let (n, kl, ku, batch) = (96usize, 40usize, 40usize, 8usize);
        let (a0, _) = random_system(batch, n, kl, ku, 1);

        let mut a = a0.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let rep = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &GbsvOptions::default()).unwrap();
        assert_eq!(rep.algo, ChosenAlgo::Interleaved);
        assert!(info.all_ok());

        // Bitwise-identical to the reference path it displaced.
        let mut a_ref = a0.clone();
        let mut piv_ref = PivotBatch::new(batch, n, n);
        let mut info_ref = InfoArray::new(batch);
        let opts = GbsvOptions {
            algo: FactorAlgo::Reference,
            ..Default::default()
        };
        let _ = dgbtrf_batch(&dev, &mut a_ref, &mut piv_ref, &mut info_ref, &opts).unwrap();
        assert_eq!(a.data(), a_ref.data());
        assert_eq!(piv, piv_ref);
    }

    #[test]
    fn auto_layout_never_picks_a_much_slower_layout() {
        // Acceptance gate for the layout decision: on a grid spanning all
        // three regimes, run both forced layouts and the auto decision;
        // the auto pick's executed time must be within 10% of the faster
        // forced side.
        let grid: &[(DeviceSpec, usize, usize, usize, usize)] = &[
            (DeviceSpec::h100_pcie(), 24, 1, 1, 64),
            (DeviceSpec::h100_pcie(), 96, 2, 3, 40),
            (DeviceSpec::h100_pcie(), 200, 6, 6, 16),
            (DeviceSpec::mi250x_gcd(), 96, 40, 40, 8),
            (DeviceSpec::mi250x_gcd(), 64, 3, 2, 48),
        ];
        for (dev, n, kl, ku, batch) in grid {
            let (a0, _) = random_system(*batch, *n, *kl, *ku, 1);
            let mut times = Vec::new();
            for algo in [
                FactorAlgo::Auto,
                FactorAlgo::ColumnMajor,
                FactorAlgo::Interleaved,
            ] {
                let mut a = a0.clone();
                let mut piv = PivotBatch::new(*batch, *n, *n);
                let mut info = InfoArray::new(*batch);
                let opts = GbsvOptions {
                    algo,
                    ..Default::default()
                };
                let rep = dgbtrf_batch(dev, &mut a, &mut piv, &mut info, &opts).unwrap();
                times.push(rep.time.secs());
            }
            let (auto, best) = (times[0], times[1].min(times[2]));
            assert!(
                auto <= best * 1.10,
                "n={n} kl={kl} ku={ku} batch={batch}: auto layout {:.1}us vs best forced {:.1}us",
                auto * 1e6,
                best * 1e6
            );
        }
    }

    #[test]
    fn resident_engine_option_is_bitwise_identical_and_prices_warm_launches() {
        let dev = DeviceSpec::h100_pcie();
        let (n, kl, ku, batch) = (100usize, 2usize, 3usize, 6usize);
        let (a0, b0) = random_system(batch, n, kl, ku, 1);
        let mut runs = Vec::new();
        for engine in [EngineMode::PerLaunch, EngineMode::Resident] {
            let mut a = a0.clone();
            let mut b = b0.clone();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            // Pin layout and algorithm so both modes run the same plan;
            // the engine dimension must not change the numerics anyway.
            let opts = GbsvOptions {
                algo: FactorAlgo::ColumnMajor,
                engine: Some(engine),
                ..Default::default()
            };
            let rep = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts).unwrap();
            assert!(info.all_ok());
            runs.push((a, b, piv, rep));
        }
        let (cold, warm) = (&runs[0], &runs[1]);
        assert_eq!(
            cold.0.data(),
            warm.0.data(),
            "factors differ across engines"
        );
        assert_eq!(cold.1.data(), warm.1.data(), "solutions differ");
        assert_eq!(cold.2, warm.2, "pivots differ");
        assert_eq!(cold.3.algo, warm.3.algo);
        assert_eq!(cold.3.launches, warm.3.launches);
        // Every launch trades the cold overhead for the warm one.
        let delta = dev.launch_overhead_s - dev.warm_launch_overhead_s;
        let expect = cold.3.launches as f64 * delta;
        let got = cold.3.time.secs() - warm.3.time.secs();
        assert!(
            (got - expect).abs() < 1e-15,
            "expected {expect:.3e}s saved, got {got:.3e}s over {} launches",
            cold.3.launches
        );
    }

    #[test]
    fn interleaved_dgbsv_masks_singular_systems_natively() {
        let dev = DeviceSpec::h100_pcie();
        let (n, batch) = (100usize, 4usize);
        let (mut a, mut b) = random_system(batch, n, 1, 1, 1);
        {
            let mut m = a.matrix_mut(2);
            m.set(0, 0, 0.0);
            m.set(1, 0, 0.0);
        }
        let b_orig = b.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let opts = GbsvOptions {
            algo: FactorAlgo::Interleaved,
            ..Default::default()
        };
        let rep = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts).unwrap();
        assert_eq!(rep.algo, ChosenAlgo::Interleaved);
        assert_eq!(info.get(2), 1);
        assert_eq!(b.block(2), b_orig.block(2), "failed system's RHS preserved");
        assert_eq!(info.get(0), 0);
        assert_ne!(b.block(0), b_orig.block(0), "healthy systems are solved");
    }

    #[test]
    fn one_singular_lane_in_a_batch_of_64_is_isolated() {
        // Error-granularity regression: a single poisoned matrix must be
        // reported per-lane (info + report.singular) while its 63
        // batchmates factor and solve normally — not as one coarse batch
        // failure. Exercised across the §5.4 regimes: fused-GBSV (n=32),
        // separate factor+solve (n=100), and the forced interleaved path.
        let dev = DeviceSpec::h100_pcie();
        let batch = 64usize;
        let poisoned = 17usize;
        for (n, opts) in [
            (32usize, GbsvOptions::default()),
            (100, GbsvOptions::default()),
            (
                100,
                GbsvOptions {
                    algo: FactorAlgo::Interleaved,
                    ..Default::default()
                },
            ),
        ] {
            let (mut a, mut b) = random_system(batch, n, 2, 3, 1);
            {
                // Zero the entire first column of one matrix: the first
                // pivot search finds no nonzero, info = 1.
                let mut m = a.matrix_mut(poisoned);
                for i in 0..=2usize {
                    m.set(i, 0, 0.0);
                }
            }
            let orig_a = a.clone();
            let orig_b = b.clone();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let rep = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts)
                .expect("one singular lane must not fail the batch");
            assert_eq!(rep.singular, vec![poisoned], "n={n}");
            assert_eq!(rep.singular_lanes(), 1);
            assert!(!rep.all_lanes_ok());
            assert_eq!(info.failures(), vec![poisoned]);
            assert_eq!(info.get(poisoned), 1, "first zero pivot at column 1");
            assert_eq!(
                b.block(poisoned),
                orig_b.block(poisoned),
                "poisoned lane's RHS preserved (n={n})"
            );
            for id in (0..batch).filter(|&id| id != poisoned) {
                assert_eq!(info.get(id), 0);
                let x = &b.block(id)[..n];
                let berr = backward_error(orig_a.matrix(id), x, &orig_b.block(id)[..n]);
                assert!(berr < 1e-11, "n={n} lane {id}: berr {berr:.2e}");
            }
        }
    }

    #[test]
    fn factor_report_surfaces_singular_lanes() {
        let dev = DeviceSpec::h100_pcie();
        let (n, batch) = (48usize, 8usize);
        let (mut a, _) = random_system(batch, n, 2, 3, 1);
        for id in [2usize, 5] {
            let mut m = a.matrix_mut(id);
            for i in 0..=2usize {
                m.set(i, 0, 0.0);
            }
        }
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let rep = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &GbsvOptions::default()).unwrap();
        assert_eq!(rep.singular, vec![2, 5]);
        assert_eq!(info.failures(), vec![2, 5]);
    }

    #[test]
    fn singular_systems_leave_rhs_untouched_and_flagged() {
        let dev = DeviceSpec::h100_pcie();
        let (n, batch) = (100usize, 3usize); // > cutoff: separate factor+solve
        let (mut a, mut b) = random_system(batch, n, 1, 1, 1);
        {
            // Make system 1 singular: zero its entire first column.
            let mut m = a.matrix_mut(1);
            m.set(0, 0, 0.0);
            m.set(1, 0, 0.0);
        }
        let b_orig = b.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let _ = dgbsv_batch(
            &dev,
            &mut a,
            &mut piv,
            &mut b,
            &mut info,
            &GbsvOptions::default(),
        )
        .unwrap();
        assert_eq!(info.get(1), 1);
        assert_eq!(b.block(1), b_orig.block(1), "failed system's RHS preserved");
        assert_eq!(info.get(0), 0);
        assert_ne!(b.block(0), b_orig.block(0), "healthy systems are solved");
    }

    #[test]
    fn lanes_driver_matches_contiguous_gbtrs_bitwise() {
        let dev = DeviceSpec::h100_pcie();
        let batch = 6;
        let (n, kl, ku, nrhs) = (24usize, 2usize, 3usize, 2usize);
        let (mut a, b0) = random_system(batch, n, kl, ku, nrhs);
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let opts = GbsvOptions::default();
        let _ = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &opts).unwrap();
        assert!(info.all_ok());
        let l = a.layout();

        // Contiguous reference solve.
        let mut b_ref = b0.clone();
        let ref_rep =
            dgbtrs_batch(&dev, Transpose::No, &l, a.data(), &piv, &mut b_ref, &opts).unwrap();

        // Same factors scattered into per-lane retained slices (the shape
        // a serve-layer factor cache hands back), re-gathered by the
        // lanes driver.
        let stride = a.matrix_stride();
        let lanes: Vec<(&[f64], &[i32])> = (0..batch)
            .map(|k| (&a.data()[k * stride..(k + 1) * stride], piv.pivots(k)))
            .collect();
        let mut b_lanes = b0.clone();
        let lane_rep =
            gbtrs_batch_lanes::<f64>(&dev, Transpose::No, &l, &lanes, &mut b_lanes, &opts).unwrap();

        assert_eq!(b_lanes.data(), b_ref.data(), "solutions must be bitwise");
        assert_eq!(lane_rep.algo, ref_rep.algo);
        assert_eq!(lane_rep.time, ref_rep.time);
        assert_eq!(lane_rep.launches, ref_rep.launches);
    }
}
