//! The dynamic-batching server: a virtual-time discrete-event engine.
//!
//! The server runs on a **virtual clock** driven by the caller: `submit`
//! carries each request's arrival time, `advance` moves the clock, and all
//! service times come from the simulated backends' cost models. Nothing
//! here depends on wall-clock time or thread scheduling, so a traffic
//! trace replays to bitwise-identical responses and reports no matter how
//! many host worker threads the backends use — the serving-layer analogue
//! of the kernel determinism guarantee the rest of the workspace carries.
//!
//! Event model per flush:
//!
//! 1. a bucket trigger fires (size, deadline-minus-margin, or drain);
//! 2. the flush routes to the GPU unless it is small/stale or the device
//!    is saturated (busy past the spill slack), in which case it spills to
//!    the CPU backend;
//! 3. requests that could not start before `deadline + timeout slack` are
//!    answered `TimedOut` without being solved;
//! 4. the batch runs; a batch-level backend failure is bisected until the
//!    poisoned half is isolated, and stubborn singletons retry on the
//!    other backend;
//! 5. the routed backend's busy horizon moves forward by the modeled
//!    service time; every response completes at the new horizon.
//!
//! Admission additionally consults the [`FactorCache`]: every request's
//! operator is content-fingerprinted, and requests whose fingerprint maps
//! to a live retained factorization are bucketed on a separate **warm
//! tier** that flushes as a GBTRS-only batch (no `gbtrf` at all).
//! Known-singular fingerprints ride a **negative tier** that routes
//! straight to CPU spill. Cold flushes harvest every healthy lane's
//! factors back into the cache, so steady repeated-operator traffic
//! converges to solve-only device work.
//!
//! ## The fleet
//!
//! The primary route is a **fleet** of device workers, each wrapping one
//! [`SolveBackend`] with its own busy horizon, resident-engine state and
//! per-worker statistics. Every flush is priced against every worker by a
//! deterministic router (see `Server::route`): the bucket's estimated
//! service time on each device (bandwidth + launch-overhead floor from
//! the kernel cost model) is adjusted for fused-kernel shared-memory fit
//! (small-`n` buckets prefer devices whose smem holds the fused working
//! set) and factor-cache affinity (warm buckets prefer the worker that
//! harvested their factors), then added to the worker's earliest start.
//! Work sheds away from its affinity-preferred worker only when that
//! worker is loaded — counted per worker — and the existing CPU spill
//! rule applies against the *chosen* worker's horizon, so a one-worker
//! fleet reproduces the pre-fleet server bit for bit.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use gbatch_core::{operator_fingerprint, Fingerprint, Precision, RetainedFactor, ShapeKey};
use gbatch_cpu::CpuSpec;
use gbatch_gpu_sim::multi::DeviceGroup;
use gbatch_gpu_sim::registry::FleetSpec;
use gbatch_gpu_sim::{DeviceSpec, ParallelPolicy};
use gbatch_kernels::cost::predict_reference_floor;
use gbatch_kernels::gbsv_fused::{gbsv_smem_bytes, FUSED_GBSV_MAX_N};

use crate::backend::{BackendKind, CpuBackend, GpuBackend, SolveBackend};
use crate::bucket::{BucketMap, Bucketed};
use crate::cache::{CacheConfig, FactorCache, FactorHandle};
use crate::metrics::{DeviceReport, Metrics, ServeReport};
use crate::policy::{FlushPolicy, FlushReason};
use crate::request::{AdmitError, SolveRequest, SolveResponse, SolveStatus};

/// Cache tier a request was admitted on. Part of the bucketing key, so
/// warm (solve-only) and cold (factorize-and-solve) work never share a
/// launch — they run different kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Tier {
    /// No cached factorization: full `gbsv`, factors harvested after.
    Cold,
    /// Live cached factorization: GBTRS-only fast path.
    Warm,
    /// Known-singular operator: served on the CPU spill path, never
    /// worth a device launch and never factor-cached.
    Negative,
}

/// Bucketing key of the internal admission queue: exact geometry plus
/// cache tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct BucketKey {
    shape: ShapeKey,
    tier: Tier,
}

/// An admitted request annotated with its operator fingerprint and tier.
struct Admitted {
    req: SolveRequest,
    fp: Fingerprint,
    tier: Tier,
}

impl Bucketed for Admitted {
    type Key = BucketKey;
    fn bucket_key(&self) -> BucketKey {
        BucketKey {
            shape: self.req.shape,
            tier: self.tier,
        }
    }
    fn deadline_s(&self) -> f64 {
        self.req.deadline_s
    }
}

/// Why [`Server::factorize`] refused to hand back a handle.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorizeError {
    /// The operator failed admission validation.
    Admit(AdmitError),
    /// The operator is exactly singular (first zero pivot at this
    /// 1-based column). The fingerprint is negatively cached.
    Singular {
        /// 1-based first zero-pivot column.
        column: i32,
    },
    /// Both backends refused the factorization batch.
    Backend(String),
}

impl std::fmt::Display for FactorizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FactorizeError::Admit(e) => write!(f, "{e}"),
            FactorizeError::Singular { column } => {
                write!(f, "operator is singular at column {column}")
            }
            FactorizeError::Backend(why) => write!(f, "factorization failed: {why}"),
        }
    }
}

impl std::error::Error for FactorizeError {}

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Bounded admission capacity: total pending requests across all
    /// buckets. Admission beyond it is refused with
    /// [`AdmitError::QueueFull`].
    pub queue_capacity: usize,
    /// Flush policy.
    pub policy: FlushPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_capacity: 4096,
            policy: FlushPolicy::default(),
        }
    }
}

/// Outcome of one request inside a flush, aligned with the batch order.
struct Outcome {
    x: Vec<f64>,
    info: i32,
    kind: BackendKind,
    failed: bool,
    /// Healthy lane's harvested factorization, when the backend retained
    /// one — inserted into the cache after the flush.
    retained: Option<Arc<RetainedFactor>>,
}

/// One fleet worker: a backend plus its own virtual timeline and stats.
/// A worker's busy horizon serializes its flushes, so per-worker service
/// is sequential exactly like the pre-fleet single device.
struct Worker {
    /// Report name: the device spec's name when the backend has one,
    /// otherwise a positional fallback (`"gpu:0"`, `"cpu"`).
    name: String,
    backend: Box<dyn SolveBackend>,
    /// Instant this worker's timeline is free, seconds.
    free_s: f64,
    requests: u64,
    flushes: u64,
    busy_s: f64,
    /// Batches this worker would have owned by affinity but the router
    /// placed elsewhere because this worker was loaded.
    sheds: u64,
    /// End instants of batches still running at the last assignment —
    /// nondecreasing, since the horizon serializes the worker.
    inflight_ends: VecDeque<f64>,
    peak_inflight: usize,
}

impl Worker {
    fn new(backend: Box<dyn SolveBackend>, fallback_name: String) -> Self {
        Worker {
            name: backend.device().map_or(fallback_name, |d| d.name.clone()),
            backend,
            free_s: 0.0,
            requests: 0,
            flushes: 0,
            busy_s: 0.0,
            sheds: 0,
            inflight_ends: VecDeque::new(),
            peak_inflight: 0,
        }
    }

    /// Record a batch assigned at `t` finishing at `end`; the live count
    /// of unfinished batches is this worker's queue depth.
    fn note_inflight(&mut self, t: f64, end: f64) {
        while self.inflight_ends.front().is_some_and(|&e| e <= t) {
            self.inflight_ends.pop_front();
        }
        self.inflight_ends.push_back(end);
        self.peak_inflight = self.peak_inflight.max(self.inflight_ends.len());
    }

    fn report(&self, horizon_s: f64) -> DeviceReport {
        DeviceReport {
            name: self.name.clone(),
            kind: self.backend.kind().to_string(),
            requests: self.requests,
            flushes: self.flushes,
            busy_s: self.busy_s,
            utilization: if horizon_s > 0.0 {
                self.busy_s / horizon_s
            } else {
                0.0
            },
            sheds: self.sheds,
            peak_inflight: self.peak_inflight,
        }
    }
}

/// Router pricing: estimated-service multiplier for a fused-eligible
/// bucket on a device whose shared memory cannot hold the fused working
/// set (the dispatcher would fall back to the slower window path there).
const FUSED_SMEM_PENALTY: f64 = 1.5;
/// Router pricing: multiplier for a warm bucket on a worker that did not
/// harvest its factors (no resident-state or cache-locality benefit).
const WARM_AFFINITY_PENALTY: f64 = 2.0;

/// The dynamic-batching solve server.
pub struct Server {
    cfg: ServerConfig,
    buckets: BucketMap<Admitted>,
    cache: FactorCache,
    /// Device workers, the primary route. Never empty.
    gpus: Vec<Worker>,
    /// The spill pool and singleton-rescue route.
    cpu: Worker,
    /// Fingerprint → GPU-worker index that factored/harvested it last;
    /// warm buckets prefer that worker (its cache-resident factors).
    affinity: BTreeMap<Fingerprint, usize>,
    clock_s: f64,
    responses: Vec<SolveResponse>,
    metrics: Metrics,
}

impl Server {
    /// Server over explicit backends. `gpu` is the primary route; `cpu`
    /// receives spilled flushes and singleton retries. Equivalent to a
    /// one-worker [`Server::fleet`].
    #[must_use]
    pub fn new(cfg: ServerConfig, gpu: Box<dyn SolveBackend>, cpu: Box<dyn SolveBackend>) -> Self {
        Server::fleet(cfg, vec![gpu], cpu)
    }

    /// Server over a fleet of device workers plus one CPU spill pool.
    /// Every worker keeps its own busy horizon, resident-engine state and
    /// statistics; the router prices each flush against all of them.
    ///
    /// # Panics
    /// With an empty worker list — a fleet needs at least one device.
    #[must_use]
    pub fn fleet(
        cfg: ServerConfig,
        gpus: Vec<Box<dyn SolveBackend>>,
        cpu: Box<dyn SolveBackend>,
    ) -> Self {
        assert!(!gpus.is_empty(), "a fleet needs at least one device worker");
        Server {
            buckets: BucketMap::new(cfg.queue_capacity),
            cfg,
            cache: FactorCache::default(),
            gpus: gpus
                .into_iter()
                .enumerate()
                .map(|(i, b)| Worker::new(b, format!("gpu:{i}")))
                .collect(),
            cpu: Worker::new(cpu, "cpu".to_string()),
            affinity: BTreeMap::new(),
            clock_s: 0.0,
            responses: Vec::new(),
            metrics: Metrics::default(),
        }
    }

    /// Builder: replace the factor cache's budgets (empties the cache).
    #[must_use]
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = FactorCache::new(cache);
        self
    }

    /// The live factor cache (inspection only).
    #[must_use]
    pub fn cache(&self) -> &FactorCache {
        &self.cache
    }

    /// Convenience constructor over the simulated substrate: a device
    /// group for the batch path and a CPU descriptor for spill-over.
    /// `parallel` schedules the simulated engines' host-side block loops
    /// (results are bitwise-identical for every policy).
    #[must_use]
    pub fn simulated(
        group: DeviceGroup,
        cpu: CpuSpec,
        parallel: ParallelPolicy,
        cfg: ServerConfig,
    ) -> Self {
        Server::new(
            cfg,
            Box::new(GpuBackend::new(group, parallel)),
            Box::new(CpuBackend::new(cpu)),
        )
    }

    /// [`Server::simulated`] over a heterogeneous fleet composition: one
    /// worker per [`FleetSpec`] device instance (each a one-device group,
    /// so resident-engine state and megabatch queues are per worker),
    /// plus the CPU spill pool. Errors on an unknown catalog name or an
    /// empty composition.
    pub fn simulated_fleet(
        fleet: &FleetSpec,
        cpu: CpuSpec,
        parallel: ParallelPolicy,
        cfg: ServerConfig,
    ) -> Result<Self, String> {
        let devices = fleet.devices()?;
        if devices.is_empty() {
            return Err("empty fleet composition".to_string());
        }
        let gpus = devices
            .into_iter()
            .map(|d| {
                Box::new(GpuBackend::new(DeviceGroup::new(vec![d]), parallel))
                    as Box<dyn SolveBackend>
            })
            .collect();
        Ok(Server::fleet(cfg, gpus, Box::new(CpuBackend::new(cpu))))
    }

    /// Number of device workers in the fleet.
    #[must_use]
    pub fn fleet_size(&self) -> usize {
        self.gpus.len()
    }

    /// The virtual clock, seconds.
    #[must_use]
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Requests currently queued.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buckets.pending()
    }

    /// Responses accumulated since the last [`Server::take_responses`].
    #[must_use]
    pub fn ready(&self) -> usize {
        self.responses.len()
    }

    /// Submit one request at its `submitted_s` instant. The clock advances
    /// to that instant first (firing any deadline flushes due before it),
    /// then the request is validated, fingerprinted against the factor
    /// cache, and enqueued on its tier; a bucket reaching the target size
    /// flushes immediately. A fingerprint that matches a live cached
    /// factorization rides the warm (GBTRS-only) tier transparently — no
    /// handle needed.
    pub fn submit(&mut self, req: SolveRequest) -> Result<(), AdmitError> {
        self.admit(req, None)
    }

    /// [`Server::submit`] pinned to a cached factorization obtained from
    /// [`Server::factorize`]. The request still carries its full operator
    /// payload: the handle is an optimization hint, not a correctness
    /// dependency. A stale handle (evicted) or one whose fingerprint does
    /// not match the payload **fails closed** — the request is served
    /// through the ordinary path (re-factorizing if needed) and the
    /// mismatch is counted, never an error or a wrong answer.
    pub fn submit_with(
        &mut self,
        req: SolveRequest,
        handle: FactorHandle,
    ) -> Result<(), AdmitError> {
        self.admit(req, Some(handle))
    }

    fn admit(&mut self, req: SolveRequest, handle: Option<FactorHandle>) -> Result<(), AdmitError> {
        finite("submitted_s", req.submitted_s)?;
        finite("deadline_s", req.deadline_s)?;
        if req.submitted_s < self.clock_s {
            return Err(AdmitError::NonMonotonicTime {
                now_s: req.submitted_s,
                clock_s: self.clock_s,
            });
        }
        self.advance(req.submitted_s);
        self.metrics.submitted += 1;

        // Validate the shape and payload before touching the queue.
        if req.shape.nrhs == 0 {
            self.metrics.rejected += 1;
            return Err(AdmitError::UnsupportedShape(
                "nrhs must be at least 1".into(),
            ));
        }
        if let Err(e) = req.shape.layout() {
            self.metrics.rejected += 1;
            return Err(AdmitError::UnsupportedShape(e.to_string()));
        }
        let (want_ab, want_rhs) = (req.shape.ab_len(), req.shape.rhs_len());
        if req.ab.len() != want_ab || req.rhs.len() != want_rhs {
            self.metrics.rejected += 1;
            return Err(AdmitError::BadPayload {
                expected_ab: want_ab,
                got_ab: req.ab.len(),
                expected_rhs: want_rhs,
                got_rhs: req.rhs.len(),
            });
        }
        // Fingerprinting first streams the operator into cache for the
        // value check; neither touches service state.
        let fp = operator_fingerprint(&req.shape, &req.ab);
        if let Err(e) = finite_values("ab", &req.ab).and(finite_values("rhs", &req.rhs)) {
            self.metrics.rejected += 1;
            return Err(e);
        }
        let tier = match handle {
            Some(h) => match self.cache.resolve(h) {
                // The handle is honest (live, and it names this exact
                // operator): the lookup below necessarily hits, keeping
                // the hit-rate metric consistent with handle traffic.
                Some(hfp) if hfp == fp => {
                    let _ = self.cache.lookup(fp);
                    Tier::Warm
                }
                // Stale or mismatched: fail closed onto the ordinary
                // fingerprint path.
                _ => {
                    self.metrics.stale_handles += 1;
                    self.tier_of(fp)
                }
            },
            None => self.tier_of(fp),
        };
        if tier == Tier::Warm {
            self.metrics.warm_requests += 1;
        }
        let key = BucketKey {
            shape: req.shape,
            tier,
        };
        match self.buckets.push(Admitted { req, fp, tier }) {
            Err(_) => {
                self.metrics.rejected += 1;
                Err(AdmitError::QueueFull {
                    capacity: self.buckets.capacity(),
                })
            }
            Ok(depth) => {
                self.metrics.max_queue_depth =
                    self.metrics.max_queue_depth.max(self.buckets.pending());
                if depth >= self.cfg.policy.target_batch {
                    let t = self.clock_s;
                    self.flush(&key, t, FlushReason::SizeReached);
                }
                Ok(())
            }
        }
    }

    /// Which tier a fingerprint admits on right now.
    fn tier_of(&mut self, fp: Fingerprint) -> Tier {
        if self.cache.probe_negative(fp).is_some() {
            return Tier::Negative;
        }
        if self.cache.lookup(fp).is_some() {
            Tier::Warm
        } else {
            Tier::Cold
        }
    }

    /// Factor one operator ahead of its solves — the explicit entry point
    /// for timestepping clients that know an operator will be reused. The
    /// factorization runs synchronously on the GPU backend (CPU on a GPU
    /// fault), advances the clock to `now_s`, occupies the backend's busy
    /// horizon like any flush, and retains the factors in the cache. The
    /// returned [`FactorHandle`] can pin later [`Server::submit_with`]
    /// calls to the cached factors; an already-cached operator returns
    /// its existing handle without refactoring.
    pub fn factorize(
        &mut self,
        shape: ShapeKey,
        ab: &[f64],
        now_s: f64,
    ) -> Result<FactorHandle, FactorizeError> {
        finite("now_s", now_s).map_err(FactorizeError::Admit)?;
        if now_s < self.clock_s {
            return Err(FactorizeError::Admit(AdmitError::NonMonotonicTime {
                now_s,
                clock_s: self.clock_s,
            }));
        }
        self.advance(now_s);
        if shape.nrhs == 0 {
            return Err(FactorizeError::Admit(AdmitError::UnsupportedShape(
                "nrhs must be at least 1".into(),
            )));
        }
        if let Err(e) = shape.layout() {
            return Err(FactorizeError::Admit(AdmitError::UnsupportedShape(
                e.to_string(),
            )));
        }
        if ab.len() != shape.ab_len() {
            return Err(FactorizeError::Admit(AdmitError::BadPayload {
                expected_ab: shape.ab_len(),
                got_ab: ab.len(),
                expected_rhs: shape.rhs_len(),
                got_rhs: shape.rhs_len(),
            }));
        }
        let fp = operator_fingerprint(&shape, ab);
        finite_values("ab", ab).map_err(FactorizeError::Admit)?;
        if let Some(column) = self.cache.probe_negative(fp) {
            return Err(FactorizeError::Singular { column });
        }
        if let Some(handle) = self.cache.handle_of(fp) {
            // Already cached: refresh recency, reuse the handle.
            let _ = self.cache.fetch(fp);
            return Ok(handle);
        }
        self.metrics.factorize_requests += 1;
        let t = self.clock_s;
        // Route the factorization to the cheapest-to-start worker (the
        // sole worker on a one-device fleet), CPU on a device fault.
        let wi = self.cheapest_worker(&shape, 1, t);
        let (outcome, on_gpu) = match self.gpus[wi].backend.factorize(&shape, &[ab]) {
            Ok(o) => (o, true),
            Err(_) => match self.cpu.backend.factorize(&shape, &[ab]) {
                Ok(o) => (o, false),
                Err(e) => return Err(FactorizeError::Backend(e.to_string())),
            },
        };
        let w = if on_gpu {
            &mut self.gpus[wi]
        } else {
            &mut self.cpu
        };
        let start = w.free_s.max(t);
        let end = start + outcome.service_s;
        w.free_s = end;
        w.busy_s += outcome.service_s;
        w.note_inflight(t, end);
        if outcome.info[0] > 0 {
            self.cache.insert_negative(fp, outcome.info[0]);
            return Err(FactorizeError::Singular {
                column: outcome.info[0],
            });
        }
        let factor = outcome
            .factors
            .into_iter()
            .next()
            .flatten()
            .ok_or_else(|| {
                FactorizeError::Backend("backend reported success without factors".into())
            })?;
        if on_gpu {
            self.affinity.insert(fp, wi);
        }
        Ok(self.cache.insert(fp, factor))
    }

    /// Advance the virtual clock to `now_s`, firing every deadline flush
    /// whose trigger instant (head-of-line deadline minus the flush
    /// margin) falls at or before it, in trigger order.
    pub fn advance(&mut self, now_s: f64) {
        let margin = self.cfg.policy.flush_margin_s;
        while let Some((deadline, key)) = self.buckets.next_deadline() {
            let trigger = deadline - margin;
            if trigger > now_s {
                break;
            }
            // The flush happens at its trigger instant (it may be in the
            // past relative to `now_s` — events replay in order), but the
            // clock never runs backwards.
            let t = trigger.max(self.clock_s);
            self.flush(&key, t, FlushReason::DeadlineExpired);
            self.clock_s = self.clock_s.max(t);
        }
        self.clock_s = self.clock_s.max(now_s);
    }

    /// Flush every remaining bucket at the current clock (deterministic
    /// `ShapeKey` order) — the shutdown path.
    pub fn drain(&mut self) {
        let t = self.clock_s;
        for key in self.buckets.occupied_keys() {
            self.flush(&key, t, FlushReason::Drain);
        }
    }

    /// Take every response produced so far, in completion order.
    pub fn take_responses(&mut self) -> Vec<SolveResponse> {
        std::mem::take(&mut self.responses)
    }

    /// Freeze the metrics into a serializable report, factor-cache
    /// dimensions included.
    #[must_use]
    pub fn report(&self) -> ServeReport {
        let workers = || self.gpus.iter().chain(std::iter::once(&self.cpu));
        // The utilization horizon is the drained-schedule end: service
        // assigned by the last flush extends past the caller's clock, so
        // dividing by `clock_s` alone would over-report saturated fleets.
        let horizon = workers().map(|w| w.free_s).fold(self.clock_s, f64::max);
        let devices = workers().map(|w| w.report(horizon)).collect();
        self.metrics.report(&self.cache, devices)
    }

    /// Estimated service time of a `batch`-problem bucket on a worker's
    /// device: the memory-bound reference floor (launch overhead +
    /// bytes over sustained bandwidth) — exactly the relative quantity
    /// the cross-device routing decision needs. Workers without a device
    /// model (CPU pools, test doubles) price as zero, which reproduces
    /// the pre-fleet behavior of routing to them unconditionally.
    fn price_on(dev: &DeviceSpec, shape: &ShapeKey, batch: usize) -> f64 {
        let Ok(l) = shape.layout() else {
            return 0.0;
        };
        match shape.precision {
            Precision::F32 => predict_reference_floor::<f32>(dev, &l, batch).secs(),
            Precision::F64 => predict_reference_floor::<f64>(dev, &l, batch).secs(),
        }
    }

    /// Whether the fused single-launch kernel's working set for this
    /// shape fits the device's per-block shared memory — the §8 effect
    /// the router exploits: small-`n` fused buckets belong on smem-rich
    /// devices.
    fn fused_fits(dev: &DeviceSpec, shape: &ShapeKey) -> bool {
        let Ok(l) = shape.layout() else {
            return true;
        };
        let bytes = match shape.precision {
            Precision::F32 => gbsv_smem_bytes::<f32>(&l, shape.nrhs),
            Precision::F64 => gbsv_smem_bytes::<f64>(&l, shape.nrhs),
        };
        bytes <= dev.max_smem_per_block as usize
    }

    /// Affinity-adjusted service estimate of this bucket on worker `i`.
    fn worker_estimate(
        &self,
        i: usize,
        key: &BucketKey,
        batch: usize,
        affine: Option<usize>,
    ) -> f64 {
        let w = &self.gpus[i];
        let Some(dev) = w.backend.device() else {
            return 0.0;
        };
        let mut est = Self::price_on(dev, &key.shape, batch);
        if key.shape.n <= FUSED_GBSV_MAX_N && !Self::fused_fits(dev, &key.shape) {
            est *= FUSED_SMEM_PENALTY;
        }
        if key.tier == Tier::Warm && affine.is_some_and(|a| a != i) {
            est *= WARM_AFFINITY_PENALTY;
        }
        est
    }

    /// The deterministic fleet router: pick the GPU worker minimizing
    /// `earliest_start + affinity_adjusted_estimate` for this bucket.
    /// Ties break to the lowest worker index; every input is virtual-time
    /// state, so the choice replays bitwise. When load steers the bucket
    /// away from the worker the load-blind policy prefers (the affinity
    /// holder, or the cheapest device), that preferred worker's shed
    /// count is incremented — the "cold overflow sheds to less-loaded
    /// devices" path of the fleet design.
    fn route(&mut self, key: &BucketKey, batch: usize, t: f64, fps: &[Fingerprint]) -> usize {
        if self.gpus.len() == 1 {
            return 0;
        }
        // Majority affinity vote over the bucket's fingerprints (ties to
        // the lowest worker index via ascending map order + strict >).
        let mut votes: BTreeMap<usize, usize> = BTreeMap::new();
        for fp in fps {
            if let Some(&w) = self.affinity.get(fp) {
                *votes.entry(w).or_insert(0) += 1;
            }
        }
        let mut affine: Option<usize> = None;
        let mut most = 0usize;
        for (&w, &v) in &votes {
            if v > most {
                most = v;
                affine = Some(w);
            }
        }
        let mut chosen = 0usize;
        let mut chosen_score = f64::INFINITY;
        let mut preferred = 0usize;
        let mut preferred_score = f64::INFINITY;
        for i in 0..self.gpus.len() {
            let est = self.worker_estimate(i, key, batch, affine);
            let score = self.gpus[i].free_s.max(t) + est;
            if score < chosen_score {
                chosen_score = score;
                chosen = i;
            }
            // The load-blind preference: where the bucket *belongs*.
            if est < preferred_score {
                preferred_score = est;
                preferred = i;
            }
        }
        if chosen != preferred {
            self.gpus[preferred].sheds += 1;
        }
        chosen
    }

    /// Worker with the earliest priced start for a single factorization.
    fn cheapest_worker(&self, shape: &ShapeKey, batch: usize, t: f64) -> usize {
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, w) in self.gpus.iter().enumerate() {
            let est = w
                .backend
                .device()
                .map_or(0.0, |d| Self::price_on(d, shape, batch));
            let score = w.free_s.max(t) + est;
            if score < best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    fn flush(&mut self, key: &BucketKey, t: f64, reason: FlushReason) {
        let admitted = self.buckets.take(key);
        let batch = admitted.len();
        if batch == 0 {
            return;
        }
        self.metrics.note_flush(reason, batch);
        let shape = key.shape;

        // Fleet routing first: price the bucket against every device
        // worker (affinity-adjusted), then apply the spill rule against
        // the chosen worker's horizon. Route: size-triggered flushes
        // earned the device; deadline and drain flushes spill when too
        // small for a launch or when the device is saturated past the
        // slack. Known-singular (negative tier) flushes always spill:
        // re-running a singular operator is pure bookkeeping, never worth
        // a device launch. Large-`n` operators are exempt from the
        // min-batch spill: a single such system splits into `P`
        // intra-matrix blocks on the device (the SPIKE dispatch regime),
        // so even a lone request amortizes its launch.
        let fps_all: Vec<Fingerprint> = admitted.iter().map(|a| a.fp).collect();
        let wi = self.route(key, batch, t, &fps_all);
        let gpu_start = self.gpus[wi].free_s.max(t);
        let large_n = shape.n >= gbatch_kernels::dispatch::SPIKE_MIN_N && shape.kl + shape.ku > 0;
        let spill = key.tier == Tier::Negative
            || match reason {
                FlushReason::SizeReached => false,
                FlushReason::DeadlineExpired | FlushReason::Drain => {
                    (batch < self.cfg.policy.min_gpu_batch && !large_n)
                        || gpu_start > t + self.cfg.policy.spill_slack_s
                }
            };
        if spill {
            self.metrics.spills += 1;
        }
        let start = if spill {
            self.cpu.free_s.max(t)
        } else {
            gpu_start
        };

        // Per-request timeout: answer hopeless requests without solving.
        let slack = self.cfg.policy.timeout_slack_s;
        let (live, dead): (Vec<_>, Vec<_>) = admitted
            .into_iter()
            .partition(|a| start <= a.req.deadline_s + slack);
        for a in dead {
            self.metrics.timed_out += 1;
            self.push_response(
                a.req,
                SolveStatus::TimedOut,
                None,
                t,
                batch,
                reason,
                if spill {
                    BackendKind::Cpu
                } else {
                    BackendKind::Gpu
                },
            );
        }
        if live.is_empty() {
            return;
        }
        let (reqs, fps): (Vec<SolveRequest>, Vec<Fingerprint>) =
            live.into_iter().map(|a| (a.req, a.fp)).unzip();

        // Warm tier: gather the cached factors and run the GBTRS-only
        // fast path. Any factor evicted between admission and flush — or
        // a backend refusal — demotes the whole flush to the cold path
        // below (fail closed: correctness never depends on the cache).
        let mut service_s = 0.0;
        let mut outcomes: Option<Vec<Outcome>> = None;
        if key.tier == Tier::Warm {
            let factors: Vec<_> = fps.iter().map_while(|&fp| self.cache.fetch(fp)).collect();
            if factors.len() == reqs.len() {
                let primary: &dyn SolveBackend = if spill {
                    self.cpu.backend.as_ref()
                } else {
                    self.gpus[wi].backend.as_ref()
                };
                if let Ok(sol) = primary.solve_with(&shape, &reqs, &factors) {
                    service_s += sol.service_s;
                    self.metrics.warm_flushes += 1;
                    outcomes = Some(
                        sol.x
                            .into_iter()
                            .zip(sol.info)
                            .map(|(x, info)| Outcome {
                                x,
                                info,
                                kind: primary.kind(),
                                failed: false,
                                retained: None,
                            })
                            .collect(),
                    );
                    // The factors (SPIKE payloads included) just ran on
                    // this worker: refresh warm affinity there.
                    if !spill {
                        for &fp in &fps {
                            self.affinity.insert(fp, wi);
                        }
                    }
                }
            }
            if outcomes.is_none() {
                self.metrics.warm_fallbacks += 1;
            }
        }

        // Cold path (and warm demotions): factorize-and-solve with
        // bisect retry, harvesting factors for the cache.
        let outcomes = outcomes.unwrap_or_else(|| {
            let (primary, fallback): (&dyn SolveBackend, &dyn SolveBackend) = if spill {
                (self.cpu.backend.as_ref(), self.cpu.backend.as_ref())
            } else {
                (self.gpus[wi].backend.as_ref(), self.cpu.backend.as_ref())
            };
            run_with_bisect(
                primary,
                fallback,
                &shape,
                &reqs,
                &mut self.metrics,
                &mut service_s,
            )
        });

        // One busy-horizon step per flush: the host blocks on the flush's
        // whole retry sequence, so every response completes together.
        let end = start + service_s;
        {
            let w = if spill {
                &mut self.cpu
            } else {
                &mut self.gpus[wi]
            };
            w.free_s = end;
            w.busy_s += service_s;
            w.flushes += 1;
            w.note_inflight(t, end);
        }

        for ((r, fp), mut o) in reqs.into_iter().zip(fps).zip(outcomes) {
            // Cache maintenance. A lane the bisect retry rescued as
            // singular is *negatively* cached — its factors are never
            // retained, so a poisoned batch cannot seed the cache with a
            // singular factorization.
            if o.info > 0 {
                self.cache.insert_negative(fp, o.info);
            } else if !o.failed {
                if let Some(f) = o.retained.take() {
                    self.cache.insert(fp, f);
                    if !spill {
                        self.affinity.insert(fp, wi);
                    }
                }
            }
            let status = if o.failed {
                self.metrics.failed += 1;
                SolveStatus::Failed
            } else if o.info > 0 {
                self.metrics.singular += 1;
                SolveStatus::Singular { column: o.info }
            } else {
                self.metrics.solved += 1;
                SolveStatus::Solved
            };
            // Attribute the request to the worker that answered it: the
            // chosen device worker for its own kind, the CPU pool for
            // spills and singleton rescues.
            match o.kind {
                BackendKind::Gpu => self.gpus[wi].requests += 1,
                BackendKind::Cpu => self.cpu.requests += 1,
            }
            self.push_response(r, status, Some(o.x), end, batch, reason, o.kind);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_response(
        &mut self,
        req: SolveRequest,
        status: SolveStatus,
        x: Option<Vec<f64>>,
        completed_s: f64,
        batch_size: usize,
        reason: FlushReason,
        backend: BackendKind,
    ) {
        if completed_s > req.deadline_s {
            self.metrics.deadline_misses += 1;
        }
        self.metrics.latencies_s.push(completed_s - req.submitted_s);
        self.responses.push(SolveResponse {
            id: req.id,
            shape: req.shape,
            status,
            x: x.unwrap_or(req.rhs),
            submitted_s: req.submitted_s,
            deadline_s: req.deadline_s,
            completed_s,
            batch_size,
            reason,
            backend,
        });
    }
}

/// Admission check of one time field: NaN passes every `<` comparison
/// against the clock as "not earlier", so it is refused up front.
fn finite(field: &'static str, t: f64) -> Result<(), AdmitError> {
    if t.is_finite() {
        Ok(())
    } else {
        Err(AdmitError::NonFinite { field })
    }
}

/// Admission check of one payload: a NaN or infinite entry would come
/// back as a NaN solution, so it is refused up front.
fn finite_values(field: &'static str, v: &[f64]) -> Result<(), AdmitError> {
    // Branch-free, so it vectorizes (an early-exit `is_finite` scan costs
    // about a microsecond per request): an all-ones exponent field, and
    // only that, carries into the sign bit when its lowest bit is added.
    const EXP: u64 = 0x7ff0_0000_0000_0000;
    let carry = v
        .iter()
        .fold(0, |acc, x| acc | ((x.to_bits() & EXP) + (1 << 52)));
    if carry >> 63 == 0 {
        Ok(())
    } else {
        Err(AdmitError::NonFinite { field })
    }
}

/// Solve `reqs` on `primary`; on a batch-level failure bisect the batch
/// (the classic poisoned-batch retry) and rescue stubborn singletons on
/// `fallback`. Returns per-request outcomes aligned with `reqs` and
/// accumulates the modeled service time of every attempt into
/// `service_s`.
fn run_with_bisect(
    primary: &dyn SolveBackend,
    fallback: &dyn SolveBackend,
    shape: &ShapeKey,
    reqs: &[SolveRequest],
    metrics: &mut Metrics,
    service_s: &mut f64,
) -> Vec<Outcome> {
    let n = reqs.len();
    let mut out: Vec<Option<Outcome>> = (0..n).map(|_| None).collect();
    // LIFO with the right half pushed first, so ranges resolve
    // left-to-right — a fixed, data-independent order.
    let mut stack = vec![(0usize, n)];
    while let Some((lo, hi)) = stack.pop() {
        match primary.solve_retaining(shape, &reqs[lo..hi]) {
            Ok((sol, lanes)) => {
                *service_s += sol.service_s;
                for (k, ((x, info), retained)) in
                    sol.x.into_iter().zip(sol.info).zip(lanes).enumerate()
                {
                    out[lo + k] = Some(Outcome {
                        x,
                        info,
                        kind: primary.kind(),
                        failed: false,
                        retained,
                    });
                }
            }
            Err(_) if hi - lo > 1 => {
                metrics.bisect_retries += 1;
                let mid = lo + (hi - lo) / 2;
                stack.push((mid, hi));
                stack.push((lo, mid));
            }
            Err(_) => {
                // A single stubborn request: retry on the fallback. The
                // workspace determinism guarantee makes a CPU-harvested
                // factorization bitwise-identical to the GPU's, so the
                // rescue can still feed the cache.
                metrics.fallback_singletons += 1;
                match fallback.solve_retaining(shape, &reqs[lo..hi]) {
                    Ok((sol, lanes)) => {
                        *service_s += sol.service_s;
                        out[lo] = Some(Outcome {
                            x: sol.x.into_iter().next().expect("singleton solution"),
                            info: sol.info[0],
                            kind: fallback.kind(),
                            failed: false,
                            retained: lanes.into_iter().next().flatten(),
                        });
                    }
                    Err(_) => {
                        out[lo] = Some(Outcome {
                            x: reqs[lo].rhs.clone(),
                            info: 0,
                            kind: fallback.kind(),
                            failed: true,
                            retained: None,
                        });
                    }
                }
            }
        }
    }
    out.into_iter()
        .map(|o| o.expect("every request resolved"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendError, BatchSolution};
    use gbatch_core::ShapeKey;

    fn req(id: u64, shape: ShapeKey, at: f64, dl: f64) -> SolveRequest {
        let l = shape.layout().unwrap();
        let mut ab = vec![0.0; shape.ab_len()];
        {
            let mut m = gbatch_core::BandMatrixMut {
                layout: l,
                data: &mut ab,
            };
            for j in 0..l.n {
                m.set(j, j, 4.0 + id as f64 * 0.01);
                let (s, e) = l.col_rows(j);
                for i in s..e {
                    if i != j {
                        m.set(i, j, 0.5);
                    }
                }
            }
        }
        SolveRequest {
            id,
            shape,
            ab,
            rhs: vec![1.0; shape.rhs_len()],
            submitted_s: at,
            deadline_s: dl,
        }
    }

    fn sim_server(cfg: ServerConfig) -> Server {
        Server::simulated(
            DeviceGroup::mi250x_full(),
            CpuSpec::xeon_gold_6140(),
            ParallelPolicy::Serial,
            cfg,
        )
    }

    #[test]
    fn size_trigger_flushes_exactly_at_target() {
        let shape = ShapeKey::gbsv(32, 2, 2, 1);
        let cfg = ServerConfig {
            queue_capacity: 64,
            policy: FlushPolicy::default().with_target_batch(4),
        };
        let mut s = sim_server(cfg);
        for i in 0..3u64 {
            s.submit(req(i, shape, i as f64 * 1e-5, 1.0)).unwrap();
            assert_eq!(s.ready(), 0, "no flush before the target");
        }
        s.submit(req(3, shape, 3e-5, 1.0)).unwrap();
        let resp = s.take_responses();
        assert_eq!(resp.len(), 4);
        assert!(resp.iter().all(|r| r.reason == FlushReason::SizeReached));
        assert!(resp.iter().all(|r| r.backend == BackendKind::Gpu));
        assert!(resp.iter().all(|r| r.status == SolveStatus::Solved));
        assert!(resp.iter().all(|r| r.batch_size == 4));
        let rep = s.report();
        assert_eq!(rep.flush_size, 1);
        assert!(rep.is_conserved());
    }

    #[test]
    fn deadline_trigger_fires_with_margin_and_small_buckets_spill() {
        let shape = ShapeKey::gbsv(32, 2, 2, 1);
        let cfg = ServerConfig {
            queue_capacity: 64,
            policy: FlushPolicy::default()
                .with_target_batch(100)
                .with_min_gpu_batch(8)
                .with_flush_margin_s(1e-3),
        };
        let mut s = sim_server(cfg);
        s.submit(req(0, shape, 0.0, 0.010)).unwrap();
        s.submit(req(1, shape, 0.001, 0.011)).unwrap();
        s.advance(0.008);
        assert_eq!(s.ready(), 0, "trigger is deadline - margin = 0.009");
        s.advance(0.0095);
        let resp = s.take_responses();
        assert_eq!(resp.len(), 2, "one deadline flush takes the whole bucket");
        assert!(resp
            .iter()
            .all(|r| r.reason == FlushReason::DeadlineExpired));
        // 2 < min_gpu_batch: spilled to the CPU.
        assert!(resp.iter().all(|r| r.backend == BackendKind::Cpu));
        assert!(resp.iter().all(|r| !r.missed_deadline()));
        let rep = s.report();
        assert_eq!(rep.flush_deadline, 1);
        assert_eq!(rep.spills, 1);
        assert_eq!(rep.devices.last().unwrap().requests, 2);
    }

    #[test]
    fn queue_full_backpressure_is_typed_and_recoverable() {
        let shape = ShapeKey::gbsv(16, 1, 1, 1);
        let cfg = ServerConfig {
            queue_capacity: 2,
            policy: FlushPolicy::default().with_target_batch(100),
        };
        let mut s = sim_server(cfg);
        s.submit(req(0, shape, 0.0, 1.0)).unwrap();
        s.submit(req(1, shape, 0.0, 1.0)).unwrap();
        let err = s.submit(req(2, shape, 0.0, 1.0)).unwrap_err();
        assert_eq!(err, AdmitError::QueueFull { capacity: 2 });
        // Drain frees capacity; admission resumes.
        s.drain();
        assert_eq!(s.take_responses().len(), 2);
        s.submit(req(2, shape, 0.1, 1.1)).unwrap();
        assert_eq!(s.pending(), 1);
        assert_eq!(s.report().rejected, 1);
    }

    #[test]
    fn bad_payload_and_unsupported_shape_are_rejected() {
        let shape = ShapeKey::gbsv(16, 1, 1, 1);
        let mut s = sim_server(ServerConfig::default());
        let mut r = req(0, shape, 0.0, 1.0);
        r.ab.pop();
        assert!(matches!(
            s.submit(r).unwrap_err(),
            AdmitError::BadPayload { .. }
        ));
        let mut r = req(1, shape, 0.0, 1.0);
        r.shape.nrhs = 0;
        assert!(matches!(
            s.submit(r).unwrap_err(),
            AdmitError::UnsupportedShape(_)
        ));
        // Clock only moves forward.
        s.advance(5.0);
        let r = req(2, shape, 1.0, 2.0);
        assert!(matches!(
            s.submit(r).unwrap_err(),
            AdmitError::NonMonotonicTime { .. }
        ));
        assert!(s.report().is_conserved());
    }

    #[test]
    fn non_finite_times_are_refused_before_the_clock_moves() {
        let shape = ShapeKey::gbsv(16, 1, 1, 1);
        let mut s = sim_server(ServerConfig::default());
        s.advance(1.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = s.submit(req(0, shape, bad, 2.0)).unwrap_err();
            assert_eq!(
                err,
                AdmitError::NonFinite {
                    field: "submitted_s"
                }
            );
            let err = s.submit(req(1, shape, 1.5, bad)).unwrap_err();
            assert_eq!(
                err,
                AdmitError::NonFinite {
                    field: "deadline_s"
                }
            );
            let r = req(2, shape, 1.5, 2.0);
            let err = s.factorize(shape, &r.ab, bad).unwrap_err();
            assert!(matches!(
                err,
                FactorizeError::Admit(AdmitError::NonFinite { field: "now_s" })
            ));
            assert_eq!(s.clock_s(), 1.0, "refusal leaves the clock alone");
        }
        let rep = s.report();
        assert_eq!(rep.submitted, 0, "refused before admission counts them");
        assert!(rep.is_conserved());
        // The service is unharmed: a finite request still admits.
        s.submit(req(3, shape, 1.5, 2.0)).unwrap();
        assert_eq!(s.pending(), 1);
    }

    /// Submit one request per non-finite value, each with one poisoned
    /// payload entry: every one is refused before anything is enqueued.
    fn submit_refuses_poisoned(field: &'static str, poison: fn(&mut SolveRequest, f64)) {
        let shape = ShapeKey::gbsv(16, 1, 1, 1);
        let mut s = sim_server(ServerConfig::default());
        for (id, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let mut r = req(id as u64, shape, 0.0, 1.0);
            poison(&mut r, bad);
            assert_eq!(s.submit(r).unwrap_err(), AdmitError::NonFinite { field });
        }
        assert_eq!(s.pending(), 0, "nothing enqueued");
        let rep = s.report();
        assert_eq!(rep.rejected, 3);
        assert!(rep.is_conserved());
    }

    #[test]
    fn submit_refuses_non_finite_operator_entries() {
        submit_refuses_poisoned("ab", |r, bad| {
            let mid = r.ab.len() / 2;
            r.ab[mid] = bad;
        });
    }

    #[test]
    fn submit_refuses_non_finite_rhs_entries() {
        submit_refuses_poisoned("rhs", |r, bad| r.rhs[0] = bad);
    }

    #[test]
    fn factorize_refuses_non_finite_operator_entries() {
        let shape = ShapeKey::gbsv(16, 1, 1, 1);
        let mut s = sim_server(ServerConfig::default());
        let ab = req(0, shape, 0.0, 1.0).ab;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut poisoned = ab.clone();
            poisoned[ab.len() / 2] = bad;
            let err = s.factorize(shape, &poisoned, 0.0).unwrap_err();
            assert!(matches!(
                err,
                FactorizeError::Admit(AdmitError::NonFinite { field: "ab" })
            ));
        }
        assert_eq!(s.report().factorize_requests, 0, "nothing factored");
        s.factorize(shape, &ab, 0.0).unwrap();
    }

    #[test]
    fn per_request_timeout_drops_hopeless_requests() {
        let shape = ShapeKey::gbsv(16, 1, 1, 1);
        let cfg = ServerConfig {
            queue_capacity: 64,
            policy: FlushPolicy::default()
                .with_target_batch(100)
                .with_timeout_slack_s(0.0)
                .with_flush_margin_s(0.0),
        };
        let mut s = sim_server(cfg);
        s.submit(req(0, shape, 0.0, 0.5)).unwrap();
        // Drain long after the deadline: the flush starts at clock 2.0,
        // past deadline + slack, so the request times out unsolved.
        s.advance(2.0);
        // (The deadline flush already fired at t = 0.5 during advance —
        // with zero margin its start equals the deadline, which is allowed.
        // Submit a second hopeless request and drain late to hit the path.)
        s.submit(req(1, shape, 2.0, 2.1)).unwrap();
        s.advance(4.0);
        let resp = s.take_responses();
        assert_eq!(resp.len(), 2);
        // First request: flushed at its deadline instant, start == deadline,
        // allowed to run (late by margin 0 only).
        assert_eq!(resp[0].status, SolveStatus::Solved);
        // Second request: trigger fired at 2.1 during the second advance,
        // start == 2.1 > deadline? No — start == max(2.1, cpu_free) ==
        // 2.1 == deadline + 0, allowed. Timeout needs a *busy* backend, so
        // assert the non-timeout here and exercise the drop below.
        assert_eq!(resp[1].status, SolveStatus::Solved);

        // Now force a drop: drain at a clock far past the deadline.
        s.submit(req(2, shape, 5.0, 5.1)).unwrap();
        s.advance(10.0);
        // advance fired the deadline flush at 5.1 (on time). Use a fresh
        // request left only to drain:
        s.take_responses();
        s.submit(req(3, shape, 10.0, 10.05)).unwrap();
        s.clock_s = 20.0; // jump the clock directly (test-only)
        s.drain();
        let resp = s.take_responses();
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].status, SolveStatus::TimedOut);
        assert_eq!(resp[0].x, vec![1.0; shape.rhs_len()], "rhs untouched");
        assert_eq!(s.report().timed_out, 1);
        assert!(s.report().is_conserved());
    }

    #[test]
    fn singular_requests_are_flagged_not_fatal() {
        let shape = ShapeKey::gbsv(24, 2, 2, 1);
        let cfg = ServerConfig {
            queue_capacity: 64,
            policy: FlushPolicy::default().with_target_batch(4),
        };
        let mut s = sim_server(cfg);
        for i in 0..4u64 {
            let mut r = req(i, shape, i as f64 * 1e-6, 1.0);
            if i == 2 {
                let l = shape.layout().unwrap();
                let mut m = gbatch_core::BandMatrixMut {
                    layout: l,
                    data: &mut r.ab,
                };
                let (lo, hi) = l.col_rows(0);
                for row in lo..hi {
                    m.set(row, 0, 0.0);
                }
            }
            s.submit(r).unwrap();
        }
        let resp = s.take_responses();
        assert_eq!(resp.len(), 4);
        for r in &resp {
            if r.id == 2 {
                assert_eq!(r.status, SolveStatus::Singular { column: 1 });
                assert_eq!(r.x, vec![1.0; shape.rhs_len()], "rhs untouched");
            } else {
                assert_eq!(r.status, SolveStatus::Solved);
            }
        }
        let rep = s.report();
        assert_eq!(rep.singular, 1);
        assert_eq!(rep.solved, 3);
    }

    /// A backend that refuses any batch containing a poisoned id, to
    /// exercise bisect isolation.
    struct Poisoned {
        bad: u64,
    }
    impl SolveBackend for Poisoned {
        fn kind(&self) -> BackendKind {
            BackendKind::Gpu
        }
        fn solve(
            &self,
            _shape: &ShapeKey,
            reqs: &[SolveRequest],
        ) -> Result<BatchSolution, BackendError> {
            if reqs.iter().any(|r| r.id == self.bad) {
                return Err(BackendError::Fault("poisoned batch".into()));
            }
            Ok(BatchSolution {
                x: reqs.iter().map(|r| vec![r.id as f64]).collect(),
                info: vec![0; reqs.len()],
                service_s: 1e-6 * reqs.len() as f64,
            })
        }
    }

    #[test]
    fn bisect_isolates_a_poisoned_request_and_rescues_it_on_cpu() {
        let shape = ShapeKey::gbsv(4, 1, 1, 1);
        let cfg = ServerConfig {
            queue_capacity: 64,
            policy: FlushPolicy::default().with_target_batch(8),
        };
        let mut s = Server::new(
            cfg,
            Box::new(Poisoned { bad: 5 }),
            Box::new(CpuBackend::new(CpuSpec::xeon_gold_6140())),
        );
        for i in 0..8u64 {
            s.submit(req(i, shape, i as f64 * 1e-6, 1.0)).unwrap();
        }
        let resp = s.take_responses();
        assert_eq!(resp.len(), 8);
        for r in &resp {
            assert_eq!(r.status, SolveStatus::Solved);
            if r.id == 5 {
                assert_eq!(r.backend, BackendKind::Cpu, "rescued singleton");
            } else {
                assert_eq!(r.backend, BackendKind::Gpu);
                assert_eq!(r.x, vec![r.id as f64]);
            }
        }
        let rep = s.report();
        assert!(rep.bisect_retries >= 1, "at least one split happened");
        assert_eq!(rep.fallback_singletons, 1);
        assert_eq!(rep.failed, 0);
        assert!(rep.is_conserved());
    }

    /// A backend that always fails, to reach the Failed terminal status.
    struct AlwaysDown;
    impl SolveBackend for AlwaysDown {
        fn kind(&self) -> BackendKind {
            BackendKind::Gpu
        }
        fn solve(
            &self,
            _shape: &ShapeKey,
            _reqs: &[SolveRequest],
        ) -> Result<BatchSolution, BackendError> {
            Err(BackendError::Fault("down".into()))
        }
    }

    #[test]
    fn double_failure_yields_failed_status_with_rhs_back() {
        let shape = ShapeKey::gbsv(4, 1, 1, 1);
        let cfg = ServerConfig {
            queue_capacity: 8,
            policy: FlushPolicy::default().with_target_batch(2),
        };
        let mut s = Server::new(cfg, Box::new(AlwaysDown), Box::new(AlwaysDown));
        s.submit(req(0, shape, 0.0, 1.0)).unwrap();
        s.submit(req(1, shape, 1e-6, 1.0)).unwrap();
        let resp = s.take_responses();
        assert_eq!(resp.len(), 2);
        for r in &resp {
            assert_eq!(r.status, SolveStatus::Failed);
            assert_eq!(r.x, vec![1.0; shape.rhs_len()]);
        }
        assert_eq!(s.report().failed, 2);
        assert!(s.report().is_conserved());
    }

    #[test]
    fn large_systems_route_to_the_device_instead_of_spilling() {
        // A lone large-n request used to spill to the CPU (batch 1 <
        // min_gpu_batch); the SPIKE dispatch regime makes it GPU-worthy.
        let shape = ShapeKey::gbsv(4096, 2, 2, 1);
        let cfg = ServerConfig {
            queue_capacity: 8,
            policy: FlushPolicy::default()
                .with_target_batch(100)
                .with_min_gpu_batch(8),
        };
        let mut s = sim_server(cfg);
        s.submit(req(0, shape, 0.0, 0.5)).unwrap();
        s.advance(1.0);
        let resp = s.take_responses();
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].status, SolveStatus::Solved);
        assert_eq!(
            resp[0].backend,
            BackendKind::Gpu,
            "large-n single request earns the device"
        );
        assert_eq!(s.report().spills, 0);
    }

    #[test]
    fn saturation_spills_deadline_flushes_to_cpu() {
        let shape = ShapeKey::gbsv(32, 2, 2, 1);
        let cfg = ServerConfig {
            queue_capacity: 256,
            policy: FlushPolicy::default()
                .with_target_batch(100)
                .with_min_gpu_batch(1)
                .with_spill_slack_s(0.0),
        };
        let mut s = sim_server(cfg);
        // Occupy the GPU far into the future.
        s.gpus[0].free_s = 100.0;
        for i in 0..10u64 {
            s.submit(req(i, shape, i as f64 * 1e-6, 0.01)).unwrap();
        }
        s.advance(1.0);
        let resp = s.take_responses();
        assert_eq!(resp.len(), 10);
        assert!(
            resp.iter().all(|r| r.backend == BackendKind::Cpu),
            "saturated device: flush spills even above min_gpu_batch"
        );
        assert_eq!(s.report().spills, 1);
    }
}
