//! Solve backends: where a flushed batch actually runs.
//!
//! The server routes each flush to one of two engines:
//!
//! - [`GpuBackend`] — the simulated-GPU batch path: the flush is split
//!   across a [`DeviceGroup`] (one partition per device, e.g. the two GCDs
//!   of an MI250x) and each partition runs one `gbsv_batch` dispatch.
//!   Service time is the group makespan, so the server's busy-tracking
//!   sees the same launch-overhead economics as the paper's Figure 1.
//! - [`CpuBackend`] — the multicore spill-over path (`cpu_gbsv_batch`),
//!   used for batches too small or too stale to be worth a device launch.
//!
//! Each backend has one body per operation — cold (factor and solve,
//! retaining the factors), warm (solve over cached factors) and
//! factor-only — generic over the [`Scalar`] it runs at. Payloads travel in
//! `f64` on the wire; each [`SolveBackend`] method matches the shape's
//! [`Precision`] once, and the body narrows at assembly and widens the
//! results back. Because [`ShapeKey`] carries the precision, f32 and f64
//! traffic of the same geometry never share a bucket or a launch. The
//! trait also lets tests inject faulting doubles for the bisect retry.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use gbatch_core::gbtrs::Transpose;
use gbatch_core::layout::BandLayout;
use gbatch_core::{
    BandBatch, FactorScalar, InfoArray, PivotBatch, Precision, RetainedFactor, RhsBatch, Scalar,
    ShapeKey,
};
use gbatch_cpu::model::{gbtrf_bytes, gbtrf_flops, gbtrs_bytes, gbtrs_flops, scale_bytes};
use gbatch_cpu::{cpu_gbsv_batch, CpuSpec};
use gbatch_gpu_sim::engine::LaunchError;
use gbatch_gpu_sim::multi::DeviceGroup;
use gbatch_gpu_sim::{DeviceSpec, EngineMode, MegabatchQueue, ParallelPolicy, SimTime};
use gbatch_kernels::cost::{choose_spike_params, spike_launches, total_time, SpikePath};
use gbatch_kernels::dispatch::{
    gbsv_batch, gbtrf_batch, gbtrs_batch_lanes, ChosenAlgo, FactorAlgo, GbsvOptions, SPIKE_MIN_N,
};
use gbatch_kernels::spike::SpikeParams;

use crate::request::SolveRequest;

/// Which engine a batch ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Simulated-GPU batch dispatch.
    Gpu,
    /// Multicore CPU spill-over.
    Cpu,
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Gpu => write!(f, "gpu"),
            BackendKind::Cpu => write!(f, "cpu"),
        }
    }
}

/// A batch-level backend failure (the whole dispatch, not one lane —
/// singular lanes are per-lane data, reported through
/// [`BatchSolution::info`]).
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The simulated device refused the launch.
    Launch(LaunchError),
    /// An injected fault (test doubles) or other backend-specific failure.
    Fault(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Launch(e) => write!(f, "launch rejected: {e}"),
            BackendError::Fault(why) => write!(f, "backend fault: {why}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// Result of one backend batch: per-request solutions and LAPACK `info`
/// codes (aligned with the request slice), plus the modeled busy time.
#[derive(Debug, Clone)]
pub struct BatchSolution {
    /// Per-request solution vectors; a singular lane's entry is its
    /// untouched right-hand side.
    pub x: Vec<Vec<f64>>,
    /// Per-request LAPACK `info` (0 = solved, `j > 0` = first zero pivot
    /// at 1-based column `j`).
    pub info: Vec<i32>,
    /// Modeled backend busy time for the batch, in seconds.
    pub service_s: f64,
}

/// Per-request retained factors aligned with a batch (`None` for lanes
/// whose factorization failed or was not harvested).
pub type RetainedLanes = Vec<Option<Arc<RetainedFactor>>>;

/// Result of a factor-only batch ([`SolveBackend::factorize`]).
#[derive(Debug, Clone)]
pub struct FactorOutcome {
    /// Per-operator retained factors; `None` for singular lanes.
    pub factors: RetainedLanes,
    /// Per-operator LAPACK `info` codes.
    pub info: Vec<i32>,
    /// Modeled backend busy time for the batch, in seconds.
    pub service_s: f64,
}

/// A batch solver the server can route flushes to.
pub trait SolveBackend {
    /// Which engine this is (stamped on responses).
    fn kind(&self) -> BackendKind;

    /// The cold path: factor and solve every request of one same-shape
    /// batch, harvesting each healthy lane's factorization for a factor
    /// cache (`None` for a lane that failed or that the backend does not
    /// retain). Implementations must be deterministic: identical inputs
    /// produce bitwise-identical solutions, factors and service times.
    fn solve_retaining(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<(BatchSolution, RetainedLanes), BackendError>;

    /// [`SolveBackend::solve_retaining`] with the retained lanes dropped:
    /// the same flush, priced alike.
    fn solve(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<BatchSolution, BackendError> {
        self.solve_retaining(shape, reqs).map(|(sol, _)| sol)
    }

    /// Solve a batch over **cached factors** — the GBTRS-only fast path.
    /// `factors` is aligned with `reqs`. The default falls back to the
    /// cold path (correct, merely not fast), so test doubles and exotic
    /// backends need not implement the fast path.
    fn solve_with(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        factors: &[Arc<RetainedFactor>],
    ) -> Result<BatchSolution, BackendError> {
        let _ = factors;
        self.solve(shape, reqs)
    }

    /// Factor a batch of operators without solving (the explicit
    /// `Factorize` entry point). `operators` are band payloads in wire
    /// (`f64`) form. Backends that cannot factor standalone return a
    /// fault; the server treats that as "no factor-ahead support".
    fn factorize(
        &self,
        shape: &ShapeKey,
        operators: &[&[f64]],
    ) -> Result<FactorOutcome, BackendError> {
        let _ = (shape, operators);
        Err(BackendError::Fault(
            "factor-only entry point unsupported by this backend".into(),
        ))
    }

    /// The simulated device this backend launches on, when it has one.
    /// The fleet router prices each bucket against this spec (shared
    /// memory decides fused eligibility, bandwidth and launch overhead
    /// decide the service-time estimate). `None` — the default, kept by
    /// CPU pools and test doubles — means "no device model": the router
    /// can still route there but estimates zero device time, which is
    /// exactly the pre-fleet behavior for the CPU spill path.
    fn device(&self) -> Option<&DeviceSpec> {
        None
    }
}

fn layout_of(shape: &ShapeKey) -> Result<BandLayout, BackendError> {
    shape
        .layout()
        .map_err(|e| BackendError::Fault(format!("invalid shape {shape}: {e}")))
}

/// A fault naming the first lane whose `what` payload is not the `len`
/// values the shape needs: the trait's callers need not have checked.
fn check_lengths<'a>(
    what: &str,
    len: usize,
    mut payloads: impl Iterator<Item = &'a [f64]>,
) -> Result<(), BackendError> {
    match payloads.position(|p| p.len() != len) {
        None => Ok(()),
        Some(k) => Err(BackendError::Fault(format!(
            "lane {k}: {what} payload is not the {len} values the shape needs"
        ))),
    }
}

/// Narrow `f64` wire values into `S` storage (an exact copy at `f64`).
fn narrow<S: Scalar>(dst: &mut [S], src: &[f64]) {
    assert_eq!(dst.len(), src.len(), "wire payload length");
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = S::from_f64(v);
    }
}

/// Widen `S` results back onto the `f64` wire.
fn widen<S: Scalar>(v: &[S]) -> Vec<f64> {
    v.iter().map(|x| x.to_f64()).collect()
}

/// A lane's answer: its widened solution, or — for a singular lane — the
/// *original* `f64` right-hand side, untouched by any narrowing.
fn answer<S: Scalar>(r: &SolveRequest, info: i32, b: &[S]) -> Vec<f64> {
    if info > 0 {
        r.rhs.clone()
    } else {
        widen(b)
    }
}

/// Narrow band payloads into one `S` batch.
fn band_batch<'a, S: Scalar>(
    l: BandLayout,
    ops: impl ExactSizeIterator<Item = &'a [f64]>,
) -> Result<BandBatch<S>, BackendError> {
    let mut a = BandBatch::<S>::zeros_with_layout(l, ops.len())
        .map_err(|e| BackendError::Fault(format!("band allocation failed: {e}")))?;
    for (dst, op) in a.chunks_mut().zip(ops) {
        narrow(dst, op);
    }
    Ok(a)
}

/// Narrow the requests' right-hand sides into one `S` batch.
fn rhs_batch<S: Scalar>(
    shape: &ShapeKey,
    reqs: &[SolveRequest],
) -> Result<RhsBatch<S>, BackendError> {
    let mut rhs = RhsBatch::<S>::zeros(reqs.len(), shape.n, shape.nrhs)
        .map_err(|e| BackendError::Fault(format!("rhs allocation failed: {e}")))?;
    for (dst, r) in rhs.blocks_mut().zip(reqs) {
        narrow(dst, &r.rhs);
    }
    Ok(rhs)
}

/// The `solve_with` precondition both backends share: one retained factor
/// per request, each with the shape's layout and precision.
fn check_factors(
    shape: &ShapeKey,
    reqs: &[SolveRequest],
    factors: &[Arc<RetainedFactor>],
) -> Result<BandLayout, BackendError> {
    let l = layout_of(shape)?;
    check_lengths("rhs", shape.rhs_len(), reqs.iter().map(|r| &r.rhs[..]))?;
    if factors.len() != reqs.len() {
        return Err(BackendError::Fault(format!(
            "{} retained factors for {} requests",
            factors.len(),
            reqs.len()
        )));
    }
    match factors
        .iter()
        .position(|f| f.layout != l || f.precision() != shape.precision)
    {
        None => Ok(l),
        Some(k) => Err(BackendError::Fault(format!(
            "lane {k}: retained factor does not match shape {shape}"
        ))),
    }
}

/// Factor one wire operator on the host at precision `S` (see
/// [`RetainedFactor::factor`]): split at the block count of `split`,
/// retaining its `nb`, when given.
fn host_factor<S: FactorScalar>(
    l: &BandLayout,
    ab: &[f64],
    split: Option<&SpikeParams>,
) -> Result<Arc<RetainedFactor>, i32> {
    let mut band = vec![S::ZERO; ab.len()];
    narrow(&mut band, ab);
    RetainedFactor::factor(*l, band, split.map(|p| (p.parts, p.nb))).map(Arc::new)
}

/// Solve one wire right-hand side on the host over retained factors at
/// precision `S`; SPIKE or monolithic per the payload kind.
fn host_solve<S: FactorScalar>(f: &RetainedFactor, rhs: &[f64], nrhs: usize) -> Vec<f64> {
    let mut b = vec![S::ZERO; rhs.len()];
    narrow(&mut b, rhs);
    f.solve(&mut b, nrhs);
    widen(&b)
}

/// Per-lane `info` codes and retained factors of a factor-only batch.
fn factor_outcome(
    lanes: impl Iterator<Item = Result<Arc<RetainedFactor>, i32>>,
    service_s: f64,
) -> FactorOutcome {
    let (info, factors) = lanes
        .map(|lane| match lane {
            Ok(f) => (0, Some(f)),
            Err(code) => (code, None),
        })
        .unzip();
    FactorOutcome {
        factors,
        info,
        service_s,
    }
}

/// The split parameters dispatch would run on `dev` for operators of
/// layout `l` solved against `nrhs` columns: the block count and `nb`
/// the planner prices cheapest. `None` when no split can be priced there.
fn spike_params<S: Scalar>(dev: &DeviceSpec, l: &BandLayout, nrhs: usize) -> Option<SpikeParams> {
    choose_spike_params::<S>(dev, l, nrhs, &SpikeParams::auto(dev, l.kl)).map(|(p, _)| p)
}

/// Simulated-GPU backend: one `gbsv_batch` dispatch per device partition.
///
/// With [`EngineMode::Resident`] (see [`GpuBackend::with_engine`]) the
/// backend keeps a persistent worker pool alive across flushes: launches
/// pay the warm overhead, consecutive launches of one flush coalesce
/// through a [`MegabatchQueue`], and the first resident flush additionally
/// pays the one-time pool spin-up. Solutions, `info` codes, counters and
/// hazard reports are bitwise-identical across engine modes — only the
/// modeled service time changes.
pub struct GpuBackend {
    group: DeviceGroup,
    parallel: ParallelPolicy,
    engine: EngineMode,
    algo: FactorAlgo,
    megabatch: Mutex<MegabatchQueue>,
    spun_up: AtomicBool,
}

impl GpuBackend {
    /// Backend over a device group. `parallel` is the host scheduling of
    /// the simulated engine's per-matrix blocks — a throughput knob whose
    /// results are bitwise-identical for every policy.
    #[must_use]
    pub fn new(group: DeviceGroup, parallel: ParallelPolicy) -> Self {
        GpuBackend {
            group,
            parallel,
            engine: EngineMode::PerLaunch,
            algo: FactorAlgo::Auto,
            megabatch: Mutex::new(MegabatchQueue::new()),
            spun_up: AtomicBool::new(false),
        }
    }

    /// Builder: the plan of every dispatch ([`FactorAlgo::Auto`] — price
    /// and choose — is the default).
    #[must_use]
    pub fn with_algo(mut self, algo: FactorAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Builder: select how launches source host threads and price their
    /// overhead ([`EngineMode::PerLaunch`] is the default).
    #[must_use]
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// The engine mode flushes run under.
    #[must_use]
    pub fn engine(&self) -> EngineMode {
        self.engine
    }

    /// Snapshot of the megabatch coalescing statistics (groups priced,
    /// launches absorbed, overhead recovered). All zero under
    /// [`EngineMode::PerLaunch`].
    #[must_use]
    pub fn megabatch_stats(&self) -> MegabatchQueue {
        *self.megabatch.lock().unwrap()
    }

    fn options(&self) -> GbsvOptions {
        GbsvOptions {
            parallel: Some(self.parallel),
            engine: Some(self.engine),
            algo: self.algo,
            ..Default::default()
        }
    }

    /// Price and launch count of `lanes` operators each running the SPIKE
    /// `path`'s launch list on `dev` against `nrhs` columns, when
    /// priceable. The list's prices carry the cold launch overhead; each
    /// launch is charged the engine mode's overhead instead, as a
    /// dispatched launch would be.
    fn spike_lanes<S: Scalar>(
        &self,
        dev: &DeviceSpec,
        l: &BandLayout,
        nrhs: usize,
        params: &SpikeParams,
        path: SpikePath,
        lanes: usize,
    ) -> Option<(SimTime, usize)> {
        let list = spike_launches::<S>(dev, l, nrhs, params, path)?;
        let rebate = dev.launch_overhead_s - self.engine.launch_overhead_s(dev);
        let per_lane = total_time(&list).secs() - list.len() as f64 * rebate;
        Some((SimTime(per_lane * lanes as f64), list.len() * lanes))
    }

    /// Price one partition's flush under the backend's engine mode.
    ///
    /// Per-launch: the dispatch report's time, unchanged. Resident: the
    /// partition's consecutive launches coalesce through the megabatch
    /// queue (one warm overhead for the group), and the first partition of
    /// the first resident flush carries the one-time pool spin-up. Pools
    /// for all member devices spin concurrently during that flush, so the
    /// group makespan sees a single spin-up term — charged here, honestly,
    /// instead of being hidden outside the service time.
    fn flush_time(&self, dev: &DeviceSpec, time: SimTime, launches: usize) -> SimTime {
        if self.engine != EngineMode::Resident {
            return time;
        }
        let coalesced = self
            .megabatch
            .lock()
            .unwrap()
            .coalesce(time, launches as u64, dev);
        if self.spun_up.swap(true, Ordering::Relaxed) {
            coalesced
        } else {
            coalesced + self.engine.spinup(dev)
        }
    }

    /// The cold flush body: narrow, `gbsv_batch` per partition, widen, and
    /// harvest each healthy lane's factors: a host-side copy for
    /// monolithic lanes, priced at nothing. SPIKE-dispatched lanes wrote
    /// back block-partitioned factors no monolithic GBTRS can consume, so
    /// they refactor on the host as split factorizations, priced into the
    /// flush.
    fn cold<S: FactorScalar>(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
        let l = layout_of(shape)?;
        check_lengths("band", shape.ab_len(), reqs.iter().map(|r| &r.ab[..]))?;
        check_lengths("rhs", shape.rhs_len(), reqs.iter().map(|r| &r.rhs[..]))?;
        let batch = reqs.len();
        let mut x = vec![Vec::new(); batch];
        let mut info_out = vec![0i32; batch];
        let mut lanes: RetainedLanes = vec![None; batch];
        let opts = self.options();
        let time = self.group.run_split(batch, |dev, lo, hi| {
            let part = &reqs[lo..hi];
            let mut a = band_batch::<S>(l, part.iter().map(|r| &r.ab[..]))?;
            let mut rhs = rhs_batch::<S>(shape, part)?;
            let mut piv = PivotBatch::new(hi - lo, l.m, l.n);
            let mut info = InfoArray::new(hi - lo);
            let rep = gbsv_batch::<S>(dev, &mut a, &mut piv, &mut rhs, &mut info, &opts)
                .map_err(BackendError::Launch)?;
            // The exact plan's block count and `nb` for a split flush:
            // what a retained split factor is built at, whatever
            // partition a sized lane answered from.
            let spike = match rep.algo {
                ChosenAlgo::Spike => spike_params::<S>(dev, &l, shape.nrhs),
                _ => None,
            };
            let mut split = 0usize;
            for (k, r) in part.iter().enumerate() {
                info_out[lo + k] = info.get(k);
                x[lo + k] = answer(r, info.get(k), rhs.block(k));
                if info.get(k) == 0 {
                    lanes[lo + k] = match &spike {
                        Some(p) => {
                            split += 1;
                            host_factor::<S>(&l, &r.ab, Some(p)).ok()
                        }
                        None => Some(Arc::new(RetainedFactor::from_lane(&a, piv.pivots(k), k))),
                    };
                }
            }
            let (retention, launches) = match &spike {
                Some(p) if split > 0 => {
                    self.spike_lanes::<S>(dev, &l, 0, p, SpikePath::Factor, split)
                }
                _ => None,
            }
            .unwrap_or((SimTime::ZERO, 0));
            Ok(self.flush_time(dev, rep.time + retention, rep.launches + launches))
        })?;
        let sol = BatchSolution {
            x,
            info: info_out,
            service_s: time.secs(),
        };
        Ok((sol, lanes))
    }

    /// The warm flush body. Monolithic lanes run one GBTRS-only dispatch per
    /// partition over an RHS-only batch: no band is assembled, no `gbtrf`
    /// launches. Retained SPIKE factorizations solve lane by lane on the
    /// host, priced with the split model's solve-only terms. Both price
    /// under the engine mode like a cold flush. A mixed monolithic/SPIKE
    /// batch fails closed; the server demotes it to the cold path.
    fn warm<S: FactorScalar>(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        factors: &[Arc<RetainedFactor>],
    ) -> Result<BatchSolution, BackendError> {
        let l = check_factors(shape, reqs, factors)?;
        let batch = reqs.len();
        let nrhs = shape.nrhs;
        let split = factors.iter().filter(|f| f.spike::<S>().is_some()).count();
        if split != 0 && split != batch {
            return Err(BackendError::Fault(
                "mixed monolithic/SPIKE warm batch".into(),
            ));
        }
        let mut x = vec![Vec::new(); batch];
        let opts = self.options();
        let time = self.group.run_split(batch, |dev, lo, hi| {
            let part = &reqs[lo..hi];
            let fs = &factors[lo..hi];
            if split > 0 {
                for (k, (r, f)) in part.iter().zip(fs).enumerate() {
                    x[lo + k] = host_solve::<S>(f, &r.rhs, nrhs);
                }
                // Priced at the block count and `nb` the split was
                // planned with.
                let f = fs[0].spike::<S>().expect("all lanes split");
                let params = (SpikeParams::auto(dev, l.kl))
                    .with_parts(f.partition.parts)
                    .with_nb(f.nb);
                let (t, launches) = (f.nb > 0)
                    .then(|| {
                        self.spike_lanes::<S>(dev, &l, nrhs, &params, SpikePath::Warm, hi - lo)
                    })
                    .flatten()
                    .ok_or_else(|| {
                        BackendError::Fault("warm SPIKE solve cannot be priced".into())
                    })?;
                return Ok(self.flush_time(dev, t, launches));
            }
            let mut rhs = rhs_batch::<S>(shape, part)?;
            let lanes: Vec<(&[S], &[i32])> = fs
                .iter()
                .map(|f| (f.factors::<S>().expect("precision checked"), &f.pivots[..]))
                .collect();
            let rep = gbtrs_batch_lanes::<S>(dev, Transpose::No, &l, &lanes, &mut rhs, &opts)
                .map_err(BackendError::Launch)?;
            for k in 0..part.len() {
                x[lo + k] = widen(rhs.block(k));
            }
            Ok(self.flush_time(dev, rep.time, rep.launches))
        })?;
        Ok(BatchSolution {
            x,
            info: vec![0; batch],
            service_s: time.secs(),
        })
    }

    /// The factor-only body. Large-`n` operators factor on the host as SPIKE
    /// split factorizations (monolithic `gbtrf` gives the `info` code when a
    /// block is singular), priced as the split factor phase, so warm solves
    /// ride the split path. Everything else runs `gbtrf_batch`, as do large
    /// operators whose split some group member cannot price.
    fn factor_only<S: FactorScalar>(
        &self,
        shape: &ShapeKey,
        operators: &[&[f64]],
    ) -> Result<FactorOutcome, BackendError> {
        let l = layout_of(shape)?;
        check_lengths("band", shape.ab_len(), operators.iter().copied())?;
        let batch = operators.len();
        let mut lanes = vec![Err(0); batch];
        // SPIKE-worthy: at or past the dispatch floor, with a band to
        // split, and priceable on every group member.
        let split = l.n >= SPIKE_MIN_N
            && l.kl + l.ku > 0
            && (self.group.devices.iter())
                .all(|dev| spike_params::<S>(dev, &l, shape.nrhs).is_some());
        let opts = self.options();
        let time = self.group.run_split(batch, |dev, lo, hi| {
            let ops = &operators[lo..hi];
            if split {
                let params = spike_params::<S>(dev, &l, shape.nrhs).expect("priceability checked");
                for (k, op) in ops.iter().enumerate() {
                    lanes[lo + k] = host_factor::<S>(&l, op, Some(&params))
                        .or_else(|_| host_factor::<S>(&l, op, None));
                }
                let (t, launches) = self
                    .spike_lanes::<S>(dev, &l, 0, &params, SpikePath::Factor, hi - lo)
                    .expect("priceability checked");
                return Ok(self.flush_time(dev, t, launches));
            }
            let mut a = band_batch::<S>(l, ops.iter().copied())?;
            let mut piv = PivotBatch::new(hi - lo, l.m, l.n);
            let mut info = InfoArray::new(hi - lo);
            let rep = gbtrf_batch::<S>(dev, &mut a, &mut piv, &mut info, &opts)
                .map_err(BackendError::Launch)?;
            for k in 0..hi - lo {
                lanes[lo + k] = match info.get(k) {
                    0 => Ok(Arc::new(RetainedFactor::from_lane(&a, piv.pivots(k), k))),
                    code => Err(code),
                };
            }
            Ok(self.flush_time(dev, rep.time, rep.launches))
        })?;
        Ok(factor_outcome(lanes.into_iter(), time.secs()))
    }
}

impl SolveBackend for GpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Gpu
    }

    /// The group's lead device. Fleet workers wrap one-device groups, so
    /// this is *the* device; for multi-device groups (`mi250x_full` run
    /// as a single worker) the lead device is the pricing representative
    /// — members of a group are identical-spec in every shipped catalog
    /// composite.
    fn device(&self) -> Option<&DeviceSpec> {
        self.group.devices.first()
    }

    fn solve_retaining(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
        match shape.precision {
            Precision::F32 => self.cold::<f32>(shape, reqs),
            Precision::F64 => self.cold::<f64>(shape, reqs),
        }
    }

    fn solve_with(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        factors: &[Arc<RetainedFactor>],
    ) -> Result<BatchSolution, BackendError> {
        match shape.precision {
            Precision::F32 => self.warm::<f32>(shape, reqs, factors),
            Precision::F64 => self.warm::<f64>(shape, reqs, factors),
        }
    }

    fn factorize(
        &self,
        shape: &ShapeKey,
        operators: &[&[f64]],
    ) -> Result<FactorOutcome, BackendError> {
        match shape.precision {
            Precision::F32 => self.factor_only::<f32>(shape, operators),
            Precision::F64 => self.factor_only::<f64>(shape, operators),
        }
    }
}

/// Multicore CPU spill-over backend. The model charges the `f64` flop
/// count at either precision and scales the traffic by the element width.
pub struct CpuBackend {
    cpu: CpuSpec,
}

impl CpuBackend {
    /// Backend over one CPU descriptor.
    #[must_use]
    pub fn new(cpu: CpuSpec) -> Self {
        CpuBackend { cpu }
    }

    /// The cold spill body ([`cpu_gbsv_batch`]), harvesting healthy lanes'
    /// factors without touching the modeled time.
    fn cold<S: FactorScalar>(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
        let l = layout_of(shape)?;
        check_lengths("band", shape.ab_len(), reqs.iter().map(|r| &r.ab[..]))?;
        check_lengths("rhs", shape.rhs_len(), reqs.iter().map(|r| &r.rhs[..]))?;
        let mut a = band_batch::<S>(l, reqs.iter().map(|r| &r.ab[..]))?;
        let mut rhs = rhs_batch::<S>(shape, reqs)?;
        let mut piv = PivotBatch::new(reqs.len(), l.m, l.n);
        let mut info = InfoArray::new(reqs.len());
        let rep = cpu_gbsv_batch(&self.cpu, &mut a, &mut piv, &mut rhs, &mut info);
        let x = reqs
            .iter()
            .enumerate()
            .map(|(k, r)| answer(r, info.get(k), rhs.block(k)))
            .collect();
        let lanes = (0..reqs.len())
            .map(|k| {
                (info.get(k) == 0)
                    .then(|| Arc::new(RetainedFactor::from_lane(&a, piv.pivots(k), k)))
            })
            .collect();
        let sol = BatchSolution {
            x,
            info: info.as_slice().to_vec(),
            service_s: rep.model_time_s,
        };
        Ok((sol, lanes))
    }

    /// The GBTRS-only spill body: each lane is one sequential host solve
    /// over its retained factors, priced with triangular-solve flops and
    /// bytes only — the spilled warm batch skips the factorization cost.
    fn warm<S: FactorScalar>(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        factors: &[Arc<RetainedFactor>],
    ) -> Result<BatchSolution, BackendError> {
        let l = check_factors(shape, reqs, factors)?;
        let nrhs = shape.nrhs;
        let x = reqs
            .iter()
            .zip(factors)
            .map(|(r, f)| host_solve::<S>(f, &r.rhs, nrhs))
            .collect();
        let bytes = scale_bytes::<S>(gbtrs_bytes(&l, nrhs));
        Ok(BatchSolution {
            x,
            info: vec![0; reqs.len()],
            service_s: self
                .cpu
                .batch_time(reqs.len(), gbtrs_flops(&l, nrhs), bytes),
        })
    }

    /// The factor-only spill body: sequential `gbtrf` per operator, priced
    /// with factorization flops and bytes only.
    fn factor_only<S: FactorScalar>(
        &self,
        shape: &ShapeKey,
        operators: &[&[f64]],
    ) -> Result<FactorOutcome, BackendError> {
        let l = layout_of(shape)?;
        check_lengths("band", shape.ab_len(), operators.iter().copied())?;
        let bytes = scale_bytes::<S>(gbtrf_bytes(&l));
        let service_s = self.cpu.batch_time(operators.len(), gbtrf_flops(&l), bytes);
        let lanes = operators.iter().map(|op| host_factor::<S>(&l, op, None));
        Ok(factor_outcome(lanes, service_s))
    }
}

impl SolveBackend for CpuBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Cpu
    }

    fn solve_retaining(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
        match shape.precision {
            Precision::F32 => self.cold::<f32>(shape, reqs),
            Precision::F64 => self.cold::<f64>(shape, reqs),
        }
    }

    fn solve_with(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
        factors: &[Arc<RetainedFactor>],
    ) -> Result<BatchSolution, BackendError> {
        match shape.precision {
            Precision::F32 => self.warm::<f32>(shape, reqs, factors),
            Precision::F64 => self.warm::<f64>(shape, reqs, factors),
        }
    }

    fn factorize(
        &self,
        shape: &ShapeKey,
        operators: &[&[f64]],
    ) -> Result<FactorOutcome, BackendError> {
        match shape.precision {
            Precision::F32 => self.factor_only::<f32>(shape, operators),
            Precision::F64 => self.factor_only::<f64>(shape, operators),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy_request(id: u64, shape: ShapeKey, seed: f64) -> SolveRequest {
        let l = shape.layout().unwrap();
        let mut ab = vec![0.0; shape.ab_len()];
        {
            let mut m = gbatch_core::BandMatrixMut {
                layout: l,
                data: &mut ab,
            };
            for j in 0..l.n {
                let (s, e) = l.col_rows(j);
                for i in s..e {
                    m.set(i, j, ((i * 7 + j * 3) % 5) as f64 * 0.1 + seed);
                }
                let sum: f64 = (s..e).filter(|&i| i != j).map(|i| m.get(i, j).abs()).sum();
                m.set(j, j, sum + 1.0);
            }
        }
        SolveRequest {
            id,
            shape,
            ab,
            rhs: vec![1.0; shape.rhs_len()],
            submitted_s: 0.0,
            deadline_s: 1.0,
        }
    }

    /// Zero the first column of a request's operator (`info = 1`).
    fn poison(req: &mut SolveRequest) {
        let l = req.shape.layout().unwrap();
        let (s, e) = l.col_rows(0);
        for i in s..e {
            req.ab[l.idx_full(i, 0).unwrap()] = 0.0;
        }
    }

    /// `‖A x − b‖∞` against the request's `f64` wire payload.
    fn residual(r: &SolveRequest, x: &[f64]) -> f64 {
        let l = r.shape.layout().unwrap();
        let m = gbatch_core::BandMatrixRef {
            layout: l,
            data: &r.ab,
        };
        (0..l.n)
            .map(|i| {
                let lo = i.saturating_sub(l.kl);
                let hi = (i + l.ku + 1).min(l.n);
                let ax: f64 = (lo..hi).map(|j| m.get(i, j) * x[j]).sum();
                (ax - r.rhs[i]).abs()
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn gpu_and_cpu_backends_agree_on_residuals() {
        let shape = ShapeKey::gbsv(40, 3, 2, 1);
        let reqs: Vec<_> = (0..12)
            .map(|i| healthy_request(i, shape, 0.01 * i as f64))
            .collect();
        let gpu = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::Serial);
        let cpu = CpuBackend::new(CpuSpec::xeon_gold_6140());
        let gs = gpu.solve(&shape, &reqs).unwrap();
        let cs = cpu.solve(&shape, &reqs).unwrap();
        assert_eq!(gs.info, vec![0; 12]);
        assert_eq!(cs.info, vec![0; 12]);
        assert!(gs.service_s > 0.0 && cs.service_s > 0.0);
        for (k, r) in reqs.iter().enumerate() {
            for x in [&gs.x[k], &cs.x[k]] {
                let worst = residual(r, x);
                assert!(worst < 1e-10, "lane {k}: residual {worst:e}");
            }
        }
    }

    #[test]
    fn singular_lane_returns_the_original_rhs_on_both_backends() {
        for shape in [ShapeKey::gbsv(24, 2, 2, 1), ShapeKey::sgbsv(24, 2, 2, 1)] {
            let mut reqs: Vec<_> = (0..6)
                .map(|i| healthy_request(i, shape, 0.02 * i as f64))
                .collect();
            poison(&mut reqs[4]);
            // Not representable in f32, so a narrowed round-trip would show.
            for (i, v) in reqs[4].rhs.iter_mut().enumerate() {
                *v = 0.1 * (i + 1) as f64;
            }
            let gpu = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::Serial);
            let cpu = CpuBackend::new(CpuSpec::xeon_gold_6140());
            for backend in [&gpu as &dyn SolveBackend, &cpu as &dyn SolveBackend] {
                let sol = backend.solve(&shape, &reqs).unwrap();
                let who = format!("{} backend, {shape}", backend.kind());
                assert_eq!(sol.info[4], 1, "{who}");
                // Bitwise the original f64 payload, not a narrowed round-trip.
                assert_eq!(sol.x[4], reqs[4].rhs, "{who}");
                for k in [0, 1, 2, 3, 5] {
                    assert_eq!(sol.info[k], 0);
                    assert_ne!(sol.x[k], reqs[k].rhs, "{who}: healthy lane {k} solved");
                }
            }
        }
    }

    #[test]
    fn f32_tagged_shapes_run_the_single_precision_stack() {
        let shape = ShapeKey::sgbsv(48, 3, 3, 1);
        let reqs: Vec<_> = (0..10)
            .map(|i| healthy_request(i, shape, 0.01 * i as f64))
            .collect();
        let gpu = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::Serial);
        let cpu = CpuBackend::new(CpuSpec::xeon_gold_6140());
        for backend in [&gpu as &dyn SolveBackend, &cpu as &dyn SolveBackend] {
            let sol = backend.solve(&shape, &reqs).unwrap();
            assert_eq!(sol.info, vec![0; 10], "{} backend", backend.kind());
            for (k, r) in reqs.iter().enumerate() {
                // Every solution coordinate is an exactly-widened f32 —
                // proof the lane ran the single-precision stack.
                for &v in &sol.x[k] {
                    assert_eq!(v, v as f32 as f64, "{} lane {k}", backend.kind());
                }
                // Residual at f32 accuracy against the f64 wire payload.
                let worst = residual(r, &sol.x[k]);
                assert!(
                    worst < 1e-3,
                    "{} lane {k}: f32 residual {worst:e}",
                    backend.kind()
                );
            }
        }
    }

    #[test]
    fn large_n_factorize_retains_spike_payloads_and_warm_solves_match() {
        let shape = ShapeKey::gbsv(4096, 2, 2, 1);
        let l = shape.layout().unwrap();
        let gpu = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::Serial);
        let r = healthy_request(0, shape, 0.01);
        let out = gpu.factorize(&shape, &[&r.ab]).unwrap();
        assert_eq!(out.info, vec![0]);
        assert!(out.service_s > 0.0);
        let f = out.factors[0].clone().expect("healthy operator retained");
        assert!(
            f.spike::<f64>().is_some(),
            "large-n operator retained as a SPIKE split factorization"
        );
        let sol = gpu
            .solve_with(&shape, std::slice::from_ref(&r), std::slice::from_ref(&f))
            .unwrap();
        assert_eq!(sol.info, vec![0]);
        let worst = residual(&r, &sol.x[0]);
        assert!(worst < 1e-9, "warm SPIKE residual {worst:e}");
        // The spilled warm path runs the identical host math: bitwise.
        let cpu = CpuBackend::new(CpuSpec::xeon_gold_6140());
        let cs = cpu
            .solve_with(&shape, std::slice::from_ref(&r), std::slice::from_ref(&f))
            .unwrap();
        assert_eq!(cs.x, sol.x, "GPU and CPU warm SPIKE paths agree bitwise");
        // A mixed monolithic/SPIKE warm batch fails closed on the GPU.
        let mono = Arc::new(RetainedFactor::factor(l, r.ab.clone(), None).unwrap());
        assert!(gpu
            .solve_with(&shape, &[r.clone(), r.clone()], &[f, mono])
            .is_err());
    }

    /// `solve_with` over fewer retained factors than requests is a typed
    /// fault, not a panic.
    fn short_factor_slice_faults(backend: &dyn SolveBackend) {
        let shape = ShapeKey::gbsv(16, 1, 1, 1);
        let reqs: Vec<_> = (0..3)
            .map(|i| healthy_request(i, shape, 0.01 * i as f64))
            .collect();
        let (_, lanes) = backend.solve_retaining(&shape, &reqs).unwrap();
        let factors: Vec<_> = lanes.into_iter().flatten().collect();
        assert_eq!(factors.len(), 3);
        let err = backend
            .solve_with(&shape, &reqs, &factors[..2])
            .unwrap_err();
        assert!(
            matches!(&err, BackendError::Fault(why) if why.contains("2 retained factors for 3")),
            "{} backend: {err}",
            backend.kind()
        );
    }

    /// A band or right-hand side whose length disagrees with the shape is
    /// a typed fault naming its lane on every entry point, not a panic.
    fn wrong_payload_length_faults(backend: &dyn SolveBackend) {
        let shape = ShapeKey::gbsv(16, 1, 1, 1);
        let reqs: Vec<_> = (0..3)
            .map(|i| healthy_request(i, shape, 0.01 * i as f64))
            .collect();
        let (_, lanes) = backend.solve_retaining(&shape, &reqs).unwrap();
        let factors: Vec<_> = lanes.into_iter().flatten().collect();
        let fault = |got: Result<(), BackendError>, want: &str| {
            let err = got.unwrap_err();
            assert!(
                matches!(&err, BackendError::Fault(why) if why.starts_with(want)),
                "{} backend: {err}",
                backend.kind()
            );
        };
        let mut short_band = reqs.clone();
        short_band[1].ab.pop();
        let mut long_rhs = reqs.clone();
        long_rhs[2].rhs.push(0.0);
        let retained = backend.solve_retaining(&shape, &short_band);
        fault(retained.map(drop), "lane 1: band");
        let retained = backend.solve_retaining(&shape, &long_rhs);
        fault(retained.map(drop), "lane 2: rhs");
        let warm = backend.solve_with(&shape, &long_rhs, &factors);
        fault(warm.map(drop), "lane 2: rhs");
        let ops = [&reqs[0].ab[..], &reqs[1].ab[1..], &reqs[2].ab[..]];
        fault(backend.factorize(&shape, &ops).map(drop), "lane 1: band");
    }

    #[test]
    fn gpu_short_factor_slice_is_a_fault() {
        short_factor_slice_faults(&GpuBackend::new(
            DeviceGroup::mi250x_full(),
            ParallelPolicy::Serial,
        ));
    }

    #[test]
    fn cpu_short_factor_slice_is_a_fault() {
        short_factor_slice_faults(&CpuBackend::new(CpuSpec::xeon_gold_6140()));
    }

    #[test]
    fn gpu_wrong_payload_length_is_a_fault() {
        wrong_payload_length_faults(&GpuBackend::new(
            DeviceGroup::mi250x_full(),
            ParallelPolicy::Serial,
        ));
    }

    #[test]
    fn cpu_wrong_payload_length_is_a_fault() {
        wrong_payload_length_faults(&CpuBackend::new(CpuSpec::xeon_gold_6140()));
    }

    #[test]
    fn gpu_backend_is_deterministic_across_parallel_policies() {
        let shape = ShapeKey::gbsv(80, 4, 4, 1);
        let reqs: Vec<_> = (0..20)
            .map(|i| healthy_request(i, shape, 0.005 * i as f64))
            .collect();
        let base = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::Serial)
            .solve(&shape, &reqs)
            .unwrap();
        for workers in [2, 8] {
            let alt = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::threads(workers))
                .solve(&shape, &reqs)
                .unwrap();
            assert_eq!(alt.x, base.x, "{workers}-worker solutions differ");
            assert_eq!(alt.info, base.info);
            assert_eq!(alt.service_s, base.service_s);
        }
    }

    #[test]
    fn resident_backend_matches_per_launch_bitwise_and_prices_spinup_once() {
        let shape = ShapeKey::gbsv(16, 2, 2, 1);
        let reqs: Vec<_> = (0..64)
            .map(|i| healthy_request(i, shape, 0.003 * i as f64))
            .collect();
        let cold = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::threads(4));
        let warm = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::threads(4))
            .with_engine(EngineMode::Resident);
        assert_eq!(warm.engine(), EngineMode::Resident);
        let base = cold.solve(&shape, &reqs).unwrap();
        let first = warm.solve(&shape, &reqs).unwrap();
        let steady = warm.solve(&shape, &reqs).unwrap();
        // Engine mode is a pure timing dimension: payloads are bitwise
        // identical across modes and across warm flushes.
        assert_eq!(first.x, base.x);
        assert_eq!(first.info, base.info);
        assert_eq!(steady.x, base.x);
        // The first resident flush carries the one-time pool spin-up; the
        // spin-up never recurs, and the steady state beats per-launch
        // because every launch pays the warm overhead instead of the cold.
        assert!(
            first.service_s > steady.service_s,
            "first flush {} should carry spin-up over steady {}",
            first.service_s,
            steady.service_s
        );
        assert!(
            steady.service_s < base.service_s,
            "resident steady state {} should beat per-launch {}",
            steady.service_s,
            base.service_s
        );
        // Two flushes over two device partitions = four coalesced groups.
        let stats = warm.megabatch_stats();
        assert_eq!(stats.groups(), 4);
        assert!(stats.launches() >= stats.groups());
        // Per-launch mode never touches the megabatch queue.
        assert_eq!(cold.megabatch_stats().groups(), 0);
    }

    #[test]
    fn resident_spike_warm_flush_pays_the_warm_overhead_per_launch() {
        let dev = DeviceSpec::h100_pcie();
        let shape = ShapeKey::gbsv(4096, 2, 2, 1);
        let l = shape.layout().unwrap();
        let reqs: Vec<_> = (0..2)
            .map(|i| healthy_request(i, shape, 0.01 * i as f64))
            .collect();
        let ops: Vec<&[f64]> = reqs.iter().map(|r| &r.ab[..]).collect();
        let backend = |engine| {
            GpuBackend::new(DeviceGroup::new(vec![dev.clone()]), ParallelPolicy::Serial)
                .with_engine(engine)
        };
        let per_launch = backend(EngineMode::PerLaunch);
        let resident = backend(EngineMode::Resident);
        let factors: Vec<_> = (per_launch.factorize(&shape, &ops).unwrap().factors)
            .into_iter()
            .map(|f| f.expect("healthy operator retained"))
            .collect();
        // The resident pool's one-time spin-up lands on this first flush.
        resident.factorize(&shape, &ops).unwrap();
        let cold = per_launch.solve_with(&shape, &reqs, &factors).unwrap();
        let warm = resident.solve_with(&shape, &reqs, &factors).unwrap();
        assert_eq!(warm.x, cold.x);
        let f = factors[0].spike::<f64>().expect("SPIKE payload");
        let params = SpikeParams::auto(&dev, l.kl)
            .with_parts(f.partition.parts)
            .with_nb(f.nb);
        let (_, launches) = per_launch
            .spike_lanes::<f64>(&dev, &l, 1, &params, SpikePath::Warm, 2)
            .unwrap();
        // Every launch trades the cold overhead for the warm one; the
        // megabatch queue recovers more on top.
        let floor = launches as f64 * (dev.launch_overhead_s - dev.warm_launch_overhead_s);
        let saved = cold.service_s - warm.service_s;
        assert!(
            saved >= floor,
            "{launches} resident launches saved {saved:e} s, under {floor:e} s"
        );
    }
}
