//! The "raw speed" perf trajectory: a small deterministic engine-mode
//! benchmark whose output is checked in as `BENCH_raw_speed.json` at the
//! repository root and replayed by the release perf-gate test.
//!
//! Four measurements at the serving sweet spot (batch 4096, order 16,
//! `(kl, ku) = (2, 3)`, one right-hand side), each under both
//! [`EngineMode`]s:
//!
//! 1. **factor** — `dgbtrf_batch` through the dispatcher;
//! 2. **solve** — `dgbtrs_batch` on the factored batch;
//! 3. **interleaved** — `dgbsv_batch` pinned to the interleaved layout;
//! 4. **serve flush** — one [`GpuBackend`] flush of the same batch, where
//!    the resident number is the *steady state* (second flush) and the
//!    one-time pool spin-up is reported separately as `serve_spinup_ms`;
//! 5. **factor cache** — the same flush cold (factorize + solve) versus
//!    warm (GBTRS-only over cached factors through
//!    [`SolveBackend::solve_with`]), the same comparison at the
//!    `serve_timestep` workload's geometry (batch 64, order 128), plus the
//!    cache hit rate of a deterministic repeated-operator mini-soak
//!    through the [`Server`];
//! 6. **spike** — the large-`n` split regime: one `n = 65536`,
//!    `kl = ku = 8` system solved by the SPIKE driver at
//!    `P ∈ {1, 2, 4, ..., 64}` blocks in both precisions under the resident
//!    engine, against the unsplit window + blocked-solve baseline the
//!    split competes with. Floor-gated at 3.0x for `P = 8`, f64.
//!
//! Every time is the simulator's analytic model, so the report is exactly
//! reproducible on any machine: the perf gate replays the measurement and
//! compares against the checked-in trajectory to a tight relative
//! tolerance, then enforces the resident-vs-per-launch floors.

use gbatch_core::gbtrs::Transpose;
use gbatch_core::{BandBatch, InfoArray, PivotBatch, RhsBatch, Scalar, ShapeKey};
use gbatch_cpu::CpuSpec;
use gbatch_gpu_sim::multi::DeviceGroup;
use gbatch_gpu_sim::registry;
use gbatch_gpu_sim::{DeviceSpec, EngineMode, ParallelPolicy};
use gbatch_kernels::dispatch::{
    dgbsv_batch, dgbtrf_batch, dgbtrs_batch, gbsv_batch, ChosenAlgo, FactorAlgo, GbsvOptions,
};
use gbatch_kernels::spike::SpikeParams;
use gbatch_serve::{
    FleetSpec, FlushPolicy, GpuBackend, ServeReport, Server, ServerConfig, SolveBackend,
    SolveRequest,
};
use gbatch_workloads::{adversarial_traffic, timestep_traffic, AdversarialConfig, TimestepConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Batch size of the trajectory (the paper's serving-scale regime).
pub const RAW_BATCH: usize = 4096;
/// Matrix order.
pub const RAW_N: usize = 16;
/// Subdiagonals.
pub const RAW_KL: usize = 2;
/// Superdiagonals.
pub const RAW_KU: usize = 3;
/// Right-hand sides.
pub const RAW_NRHS: usize = 1;

/// Batch of the `serve_timestep` warm-flush cell: one flush of the
/// workload's reused operators.
pub const TIMESTEP_BATCH: usize = 64;
/// Matrix order of the `serve_timestep` cell.
pub const TIMESTEP_N: usize = 128;
/// Acceptance floor: at the `serve_timestep` geometry a warm (GBTRS-only)
/// resident flush beats the cold factorize-and-solve by at least this
/// factor.
pub const TIMESTEP_WARM_FLOOR: f64 = 1.5;

/// One measurement under both engine modes, in model milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineSample {
    /// Cold per-launch engine.
    pub per_launch_ms: f64,
    /// Persistent resident engine (steady state — spin-up excluded).
    pub resident_ms: f64,
    /// `per_launch_ms / resident_ms`.
    pub speedup: f64,
}

impl EngineSample {
    fn new(per_launch_ms: f64, resident_ms: f64) -> Self {
        EngineSample {
            per_launch_ms,
            resident_ms,
            speedup: per_launch_ms / resident_ms,
        }
    }
}

/// Cold-versus-warm flush cost of the serve-layer factor cache, plus a
/// deterministic repeated-operator mini-soak's hit rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactorCacheSample {
    /// One cold flush of the trajectory batch: full factorize + solve
    /// (identical measurement to `serve_flush`).
    pub cold: EngineSample,
    /// One warm flush of the same batch: GBTRS-only over cached factors
    /// through [`SolveBackend::solve_with`].
    pub warm: EngineSample,
    /// `cold.resident_ms / warm.resident_ms` — what skipping `gbtrf`
    /// saves at steady state. Floor-gated at 1.8x.
    pub warm_speedup: f64,
    /// The same cold-versus-warm comparison at the `serve_timestep`
    /// geometry: [`TIMESTEP_BATCH`] lanes of order [`TIMESTEP_N`], the
    /// trajectory's bandwidths and one right-hand side.
    pub timestep: CacheFlushes,
    /// Cache hit rate of the mini-soak (`SOAK_REQUESTS` timestepping
    /// arrivals over `SOAK_POOL` operators at `SOAK_CHURN` churn) through
    /// the full [`Server`] admission path. Floor-gated at 0.85.
    pub soak_hit_rate: f64,
}

/// One cold and one warm serve flush of the same batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheFlushes {
    /// Lanes in the flush.
    pub batch: usize,
    /// Matrix order.
    pub n: usize,
    /// Full factorize + solve.
    pub cold: EngineSample,
    /// GBTRS-only over cached factors.
    pub warm: EngineSample,
    /// `cold.resident_ms / warm.resident_ms`. Floor-gated at
    /// [`TIMESTEP_WARM_FLOOR`].
    pub warm_speedup: f64,
}

/// Matrix order of the spike (large-`n` split) measurement.
pub const SPIKE_N: usize = 65536;
/// Sub- and superdiagonals of the spike measurement.
pub const SPIKE_KL: usize = 8;
/// Superdiagonals of the spike measurement.
pub const SPIKE_KU: usize = 8;
/// Block counts swept by the spike measurement.
pub const SPIKE_PARTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Acceptance floor: SPIKE at `P = 8`, f64, beats the unsplit solve by
/// at least this factor.
pub const SPIKE_FLOOR: f64 = 3.0;

/// One point of the spike sweep: the split solve at a given block count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpikePoint {
    /// Requested block count `P`.
    pub parts: usize,
    /// Split solve, resident engine, in model milliseconds.
    pub split_ms: f64,
    /// `unsplit_ms / split_ms` of the owning line.
    pub speedup: f64,
}

/// The spike sweep at one precision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpikeLine {
    /// `"f32"` or `"f64"`.
    pub precision: String,
    /// Unsplit window + blocked-solve baseline (the path the split
    /// competes with), resident engine, in model milliseconds.
    pub unsplit_ms: f64,
    /// One point per entry of [`SPIKE_PARTS`].
    pub points: Vec<SpikePoint>,
}

/// The large-`n` split-regime section of the trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpikeSection {
    /// Matrix order.
    pub n: usize,
    /// Subdiagonals.
    pub kl: usize,
    /// Superdiagonals.
    pub ku: usize,
    /// Right-hand sides.
    pub nrhs: usize,
    /// One sweep per precision, f64 first.
    pub lines: Vec<SpikeLine>,
}

impl SpikeSection {
    /// The floor-gated headline number: speedup at `P = 8`, f64.
    #[must_use]
    pub fn speedup_at_p8_f64(&self) -> f64 {
        self.lines
            .iter()
            .find(|l| l.precision == "f64")
            .and_then(|l| l.points.iter().find(|p| p.parts == 8))
            .map_or(0.0, |p| p.speedup)
    }
}

/// Mini-soak request count.
pub const SOAK_REQUESTS: usize = 2000;
/// Mini-soak live-operator pool.
pub const SOAK_POOL: usize = 8;
/// Mini-soak per-request operator-refresh probability.
pub const SOAK_CHURN: f64 = 0.02;

/// Requests of the fleet-versus-single-device comparison.
pub const FLEET_REQUESTS: usize = 4000;
/// Base arrival rate of the adversarial mix (Hz) — chosen so the best
/// single device saturates during bursts and the comparison measures
/// real parallel capacity, not idle-time absorption.
pub const FLEET_RATE_HZ: f64 = 1.0e7;
/// Per-request deadline budget of the fleet comparison.
pub const FLEET_DEADLINE_S: f64 = 2.0e-3;
/// The heterogeneous fleet of the comparison.
pub const FLEET_COMPOSITION: &str = "h100_pcie:1,mi250x_gcd:2";
/// The best single device of the composition, run alone as the baseline.
pub const FLEET_BASELINE: &str = "h100_pcie:1";
/// Acceptance floor: fleet throughput over best-single-device throughput
/// on the adversarial mix.
pub const FLEET_FLOOR: f64 = 1.5;

/// Fleet versus best-single-device throughput on the adversarial mix.
///
/// Both runs drain the *same* seeded arrival trace; the makespan is the
/// completion instant of the last response, so the ratio measures how
/// much of the fleet's aggregate capacity the router actually converts
/// into finished work under bursts, churn and poison storms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSample {
    /// Fleet composition string (registry catalog names).
    pub composition: String,
    /// Baseline composition (the best single device, alone).
    pub baseline: String,
    /// Requests in the trace.
    pub requests: usize,
    /// Baseline drained-schedule makespan, model milliseconds.
    pub baseline_makespan_ms: f64,
    /// Fleet drained-schedule makespan, model milliseconds.
    pub fleet_makespan_ms: f64,
    /// Baseline throughput, requests per model second.
    pub baseline_throughput_rps: f64,
    /// Fleet throughput, requests per model second.
    pub fleet_throughput_rps: f64,
    /// `fleet_throughput_rps / baseline_throughput_rps`. Floor-gated at
    /// [`FLEET_FLOOR`].
    pub speedup: f64,
    /// Max−min utilization over the fleet's GPU workers.
    pub utilization_spread: f64,
    /// Load-shed routing decisions in the fleet run.
    pub sheds: u64,
}

/// The checked-in trajectory (`BENCH_raw_speed.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawSpeedReport {
    /// Device the trajectory was modeled on.
    pub device: String,
    /// Batch size.
    pub batch: usize,
    /// Matrix order.
    pub n: usize,
    /// Subdiagonals.
    pub kl: usize,
    /// Superdiagonals.
    pub ku: usize,
    /// Right-hand sides.
    pub nrhs: usize,
    /// `dgbtrf_batch` through the dispatcher.
    pub factor: EngineSample,
    /// `dgbtrs_batch` on the factored batch.
    pub solve: EngineSample,
    /// `dgbsv_batch` pinned to the interleaved layout.
    pub interleaved: EngineSample,
    /// One `GpuBackend` flush (resident number = steady state).
    pub serve_flush: EngineSample,
    /// One-time resident premium observed on the first serve flush
    /// (pool spin-up), in model milliseconds.
    pub serve_spinup_ms: f64,
    /// Factor-cache economics: cold vs warm (GBTRS-only) flush cost and
    /// the repeated-operator mini-soak hit rate.
    pub factor_cache: FactorCacheSample,
    /// The large-`n` SPIKE split regime versus the unsplit solve.
    pub spike: SpikeSection,
    /// Fleet scheduler versus the best single device on the adversarial
    /// mix.
    pub fleet: FleetSample,
}

fn band(batch: usize, n: usize) -> BandBatch {
    // Diagonally dominant so every lane factors without a zero pivot.
    BandBatch::from_fn(batch, n, n, RAW_KL, RAW_KU, |id, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                m.set(i, j, ((i * 7 + j * 3 + id) % 5) as f64 * 0.1 + 0.05);
            }
            let sum: f64 = (s..e).filter(|&i| i != j).map(|i| m.get(i, j).abs()).sum();
            m.set(j, j, sum + 1.0);
        }
    })
    .unwrap()
}

fn rhs(batch: usize, n: usize) -> RhsBatch {
    RhsBatch::from_fn(batch, n, RAW_NRHS, |id, i, c| {
        ((id * 13 + c * 5 + i) as f64 * 0.29).sin()
    })
    .unwrap()
}

fn opts(engine: EngineMode) -> GbsvOptions {
    GbsvOptions {
        parallel: Some(ParallelPolicy::threads(4)),
        engine: Some(engine),
        ..Default::default()
    }
}

/// Run the full trajectory on the paper's flagship device.
pub fn measure() -> RawSpeedReport {
    let dev = registry::device(registry::H100_PCIE).expect("catalog entry");
    let a0 = band(RAW_BATCH, RAW_N);
    let b0 = rhs(RAW_BATCH, RAW_N);

    let factor_under = |engine: EngineMode| {
        let mut a = a0.clone();
        let mut piv = PivotBatch::new(RAW_BATCH, RAW_N, RAW_N);
        let mut info = InfoArray::new(RAW_BATCH);
        let rep = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &opts(engine)).unwrap();
        assert!(info.all_ok());
        (a, piv, rep.time.ms())
    };
    let (fac, piv, factor_cold) = factor_under(EngineMode::PerLaunch);
    let (fac_r, piv_r, factor_warm) = factor_under(EngineMode::Resident);
    assert_eq!(fac.data(), fac_r.data(), "engine mode changed the factors");
    assert_eq!(piv, piv_r);
    let factor = EngineSample::new(factor_cold, factor_warm);

    let solve_under = |engine: EngineMode| {
        let mut b = b0.clone();
        let rep = dgbtrs_batch(
            &dev,
            Transpose::No,
            &fac.layout(),
            fac.data(),
            &piv,
            &mut b,
            &opts(engine),
        )
        .unwrap();
        (b, rep.time.ms())
    };
    let (x_cold, solve_cold) = solve_under(EngineMode::PerLaunch);
    let (x_warm, solve_warm) = solve_under(EngineMode::Resident);
    assert_eq!(
        x_cold.data(),
        x_warm.data(),
        "engine mode changed the solve"
    );
    let solve = EngineSample::new(solve_cold, solve_warm);

    let interleaved_under = |engine: EngineMode| {
        let mut a = a0.clone();
        let mut b = b0.clone();
        let mut piv = PivotBatch::new(RAW_BATCH, RAW_N, RAW_N);
        let mut info = InfoArray::new(RAW_BATCH);
        let mut o = opts(engine);
        o.algo = FactorAlgo::Interleaved;
        let rep = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &o).unwrap();
        assert!(info.all_ok());
        assert_eq!(rep.algo, ChosenAlgo::Interleaved);
        (b, rep.time.ms())
    };
    let (xi_cold, inter_cold) = interleaved_under(EngineMode::PerLaunch);
    let (xi_warm, inter_warm) = interleaved_under(EngineMode::Resident);
    assert_eq!(xi_cold.data(), xi_warm.data());
    let interleaved = EngineSample::new(inter_cold, inter_warm);

    let (serve_flush, serve_spinup_ms, warm) = serve_flushes(&dev, &a0, &b0);
    let timestep = {
        let (cold, _, warm) = serve_flushes(
            &dev,
            &band(TIMESTEP_BATCH, TIMESTEP_N),
            &rhs(TIMESTEP_BATCH, TIMESTEP_N),
        );
        CacheFlushes {
            batch: TIMESTEP_BATCH,
            n: TIMESTEP_N,
            cold,
            warm,
            warm_speedup: cold.resident_ms / warm.resident_ms,
        }
    };
    let factor_cache = FactorCacheSample {
        cold: serve_flush,
        warm,
        warm_speedup: serve_flush.resident_ms / warm.resident_ms,
        timestep,
        soak_hit_rate: soak_hit_rate(&dev),
    };

    let spike = SpikeSection {
        n: SPIKE_N,
        kl: SPIKE_KL,
        ku: SPIKE_KU,
        nrhs: 1,
        lines: vec![spike_line::<f64>(&dev), spike_line::<f32>(&dev)],
    };

    RawSpeedReport {
        device: dev.name.clone(),
        batch: RAW_BATCH,
        n: RAW_N,
        kl: RAW_KL,
        ku: RAW_KU,
        nrhs: RAW_NRHS,
        factor,
        solve,
        interleaved,
        serve_flush,
        serve_spinup_ms,
        factor_cache,
        spike,
        fleet: fleet_sample(),
    }
}

/// One cold serve flush of `a0`/`b0` (factorize + solve) and one warm
/// flush over cached factors (GBTRS-only), each under both engine modes,
/// plus the one-time resident spin-up the first cold flush carries.
fn serve_flushes(
    dev: &DeviceSpec,
    a0: &BandBatch,
    b0: &RhsBatch,
) -> (EngineSample, f64, EngineSample) {
    // The cold flush through the backend. The resident backend's first
    // flush carries the one-time pool spin-up; steady state is the second
    // flush.
    let (batch, n) = (a0.batch(), a0.layout().n);
    let shape = ShapeKey::gbsv(n, RAW_KL, RAW_KU, RAW_NRHS);
    let stride = a0.matrix_stride();
    let reqs: Vec<SolveRequest> = (0..batch)
        .map(|k| SolveRequest {
            id: k as u64,
            shape,
            ab: a0.data()[k * stride..(k + 1) * stride].to_vec(),
            rhs: b0.block(k).to_vec(),
            submitted_s: 0.0,
            deadline_s: 1.0,
        })
        .collect();
    let group = || DeviceGroup::new(vec![dev.clone()]);
    let par = ParallelPolicy::threads(4);
    let cold_backend = GpuBackend::new(group(), par);
    let warm_backend = GpuBackend::new(group(), par).with_engine(EngineMode::Resident);
    let cold_flush = cold_backend.solve(&shape, &reqs).unwrap();
    let first_flush = warm_backend.solve(&shape, &reqs).unwrap();
    let steady_flush = warm_backend.solve(&shape, &reqs).unwrap();
    assert_eq!(cold_flush.x, first_flush.x, "engine mode changed the flush");
    assert_eq!(first_flush.x, steady_flush.x);
    let serve_flush = EngineSample::new(cold_flush.service_s * 1e3, steady_flush.service_s * 1e3);
    let serve_spinup_ms = (first_flush.service_s - steady_flush.service_s) * 1e3;

    // Factor cache: the cold side *is* the serve flush above (one full
    // factorize-and-solve of the batch). The warm side re-solves the
    // identical batch as a GBTRS-only launch over factors cached by an
    // explicit factorize pass — the factorization cost is deliberately
    // outside the sample; amortizing it is the cache's whole point.
    let operators: Vec<&[f64]> = (0..batch)
        .map(|k| &a0.data()[k * stride..(k + 1) * stride])
        .collect();
    let warm_under = |backend: &GpuBackend| {
        let fac = backend.factorize(&shape, &operators).unwrap();
        let factors: Vec<_> = fac
            .factors
            .into_iter()
            .map(|f| f.expect("trajectory operators are nonsingular"))
            .collect();
        // Steady state: the second warm flush (the first one absorbs any
        // one-time resident spin-up not already consumed by factorize).
        let first = backend.solve_with(&shape, &reqs, &factors).unwrap();
        let steady = backend.solve_with(&shape, &reqs, &factors).unwrap();
        assert_eq!(first.x, steady.x);
        assert_eq!(
            first.x, cold_flush.x,
            "warm GBTRS-only flush diverged from the cold factorize+solve"
        );
        steady.service_s * 1e3
    };
    let warm = EngineSample::new(
        warm_under(&GpuBackend::new(group(), par)),
        warm_under(&GpuBackend::new(group(), par).with_engine(EngineMode::Resident)),
    );
    (serve_flush, serve_spinup_ms, warm)
}

/// Drain the fleet comparison's adversarial trace through a fleet
/// composed from the registry; returns the drained-schedule makespan
/// (completion instant of the last response) and the report.
fn fleet_run(composition: &str) -> (f64, ServeReport) {
    let cfg = AdversarialConfig::fleet_mix(FLEET_RATE_HZ, FLEET_DEADLINE_S);
    let arrivals = adversarial_traffic(&mut StdRng::seed_from_u64(7), FLEET_REQUESTS, &cfg);
    let mut server = Server::simulated_fleet(
        &FleetSpec::parse(composition).expect("catalog names"),
        CpuSpec::xeon_gold_6140(),
        ParallelPolicy::threads(4),
        ServerConfig {
            queue_capacity: 8192,
            policy: FlushPolicy::default()
                .with_target_batch(64)
                .with_min_gpu_batch(16),
        },
    )
    .expect("fleet composition resolves");
    for a in arrivals {
        server
            .submit(SolveRequest {
                id: a.id,
                shape: a.shape,
                ab: a.ab,
                rhs: a.rhs,
                submitted_s: a.at_s,
                deadline_s: a.deadline_s,
            })
            .expect("fleet trace fits the admission queue");
    }
    server.drain();
    let makespan_s = server
        .take_responses()
        .iter()
        .map(|r| r.completed_s)
        .fold(0.0, f64::max);
    let report = server.report();
    assert!(report.is_conserved());
    assert_eq!(report.completed, FLEET_REQUESTS as u64);
    (makespan_s, report)
}

/// The fleet comparison: the same adversarial trace through the best
/// single device alone and through the heterogeneous fleet. Fully
/// deterministic (seeded trace, virtual-time scheduling), so the perf
/// gate replays it exactly.
fn fleet_sample() -> FleetSample {
    let (base_s, _) = fleet_run(FLEET_BASELINE);
    let (fleet_s, fleet_report) = fleet_run(FLEET_COMPOSITION);
    FleetSample {
        composition: FLEET_COMPOSITION.to_string(),
        baseline: FLEET_BASELINE.to_string(),
        requests: FLEET_REQUESTS,
        baseline_makespan_ms: base_s * 1e3,
        fleet_makespan_ms: fleet_s * 1e3,
        baseline_throughput_rps: FLEET_REQUESTS as f64 / base_s,
        fleet_throughput_rps: FLEET_REQUESTS as f64 / fleet_s,
        speedup: base_s / fleet_s,
        utilization_spread: fleet_report.utilization_spread(),
        sheds: fleet_report.sheds(),
    }
}

/// Sweep the SPIKE block count over one `n = 65536` diagonally dominant
/// system at precision `S`, resident engine. The baseline is the unsplit
/// window + blocked-solve path (`FactorAlgo::Window` disables `Auto`'s
/// split routing) — exactly what a large lone system cost before the
/// split regime existed. Every split answer is checked against the
/// unsplit one before its time is recorded.
fn spike_line<S: Scalar>(dev: &DeviceSpec) -> SpikeLine {
    let a0 = BandBatch::<S>::from_fn(1, SPIKE_N, SPIKE_N, SPIKE_KL, SPIKE_KU, |_, m| {
        for j in 0..SPIKE_N {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                m.set(i, j, S::from_f64(((i * 7 + j * 3) % 5) as f64 * 0.1 + 0.05));
            }
            let sum = (s..e)
                .filter(|&i| i != j)
                .fold(S::ZERO, |acc, i| acc + m.get(i, j).abs());
            m.set(j, j, sum + S::ONE);
        }
    })
    .unwrap();
    let b0 = RhsBatch::<S>::from_fn(1, SPIKE_N, 1, |_, i, c| {
        S::from_f64(((c * 5 + i) as f64 * 0.29).sin())
    })
    .unwrap();

    let run = |opts: &GbsvOptions, want: ChosenAlgo| -> (Vec<S>, f64) {
        let mut a = a0.clone();
        let mut b = b0.clone();
        let mut piv = PivotBatch::new(1, SPIKE_N, SPIKE_N);
        let mut info = InfoArray::new(1);
        let rep = gbsv_batch::<S>(dev, &mut a, &mut piv, &mut b, &mut info, opts).unwrap();
        assert!(info.all_ok(), "spike trajectory system is nonsingular");
        assert_eq!(rep.algo, want);
        (b.data().to_vec(), rep.time.ms())
    };

    let base = GbsvOptions {
        algo: FactorAlgo::Window,
        engine: Some(EngineMode::Resident),
        parallel: Some(ParallelPolicy::threads(4)),
        ..Default::default()
    };
    let (x_ref, unsplit_ms) = run(&base, ChosenAlgo::Window);

    let points = SPIKE_PARTS
        .iter()
        .map(|&parts| {
            let opts = GbsvOptions {
                algo: FactorAlgo::Spike,
                spike: Some(SpikeParams::auto(dev, SPIKE_KL).with_parts(parts)),
                engine: Some(EngineMode::Resident),
                parallel: Some(ParallelPolicy::threads(4)),
                ..Default::default()
            };
            let (x, split_ms) = run(&opts, ChosenAlgo::Spike);
            // Refined truncated-SPIKE answers agree with the unsplit
            // solve to a small multiple of working precision.
            let (mut err, mut scale) = (0.0f64, 0.0f64);
            for (g, w) in x.iter().zip(&x_ref) {
                err = err.max((g.to_f64() - w.to_f64()).abs());
                scale = scale.max(w.to_f64().abs());
            }
            assert!(
                err <= 1e3 * S::EPSILON.to_f64() * scale.max(1.0),
                "P = {parts} split answer drifted from unsplit: |dx| = {err:.3e}"
            );
            SpikePoint {
                parts,
                split_ms,
                speedup: unsplit_ms / split_ms,
            }
        })
        .collect();

    SpikeLine {
        precision: S::PRECISION.name().to_string(),
        unsplit_ms,
        points,
    }
}

/// The repeated-operator mini-soak: `SOAK_REQUESTS` timestepping arrivals
/// over a pool of `SOAK_POOL` operators with `SOAK_CHURN` churn, served
/// through the full admission path on the trajectory device. Fully
/// deterministic (seeded traffic, analytic service model), so the
/// resulting hit rate is replayed exactly by the perf gate.
fn soak_hit_rate(dev: &DeviceSpec) -> f64 {
    let mut cfg = TimestepConfig::timestepper(
        ShapeKey::gbsv(RAW_N, RAW_KL, RAW_KU, RAW_NRHS),
        SOAK_POOL,
        SOAK_CHURN,
        2.0e5,
    );
    // Keep the cold-bucket flush cadence short against the repeat period:
    // factors enter the cache at flush time, so a lazy cold bucket would
    // charge every early repeat as a miss.
    cfg.deadline_s = 2.0e-4;
    let mut server = Server::simulated(
        DeviceGroup::new(vec![dev.clone()]),
        CpuSpec::xeon_gold_6140(),
        ParallelPolicy::threads(4),
        ServerConfig {
            queue_capacity: 8192,
            policy: FlushPolicy::default()
                .with_target_batch(16)
                .with_min_gpu_batch(8),
        },
    );
    for a in timestep_traffic(&mut StdRng::seed_from_u64(41), SOAK_REQUESTS, &cfg) {
        server
            .submit(SolveRequest {
                id: a.id,
                shape: a.shape,
                ab: a.ab,
                rhs: a.rhs,
                submitted_s: a.at_s,
                deadline_s: a.deadline_s,
            })
            .expect("mini-soak traffic fits the admission queue");
    }
    server.drain();
    let report = server.report();
    assert!(report.is_conserved());
    assert_eq!(report.completed, SOAK_REQUESTS as u64);
    report.hit_rate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trajectory_is_internally_consistent() {
        let r = measure();
        println!("{}", serde_json::to_string_pretty(&r).unwrap());
        // Resident never loses: every launch trades cold for warm overhead.
        for (name, s) in [
            ("factor", r.factor),
            ("solve", r.solve),
            ("interleaved", r.interleaved),
            ("serve_flush", r.serve_flush),
        ] {
            assert!(
                s.speedup > 1.0,
                "{name}: resident {} not faster than per-launch {}",
                s.resident_ms,
                s.per_launch_ms
            );
        }
        assert!(r.serve_spinup_ms > 0.0, "first flush must carry spin-up");
        // The headline acceptance floor.
        assert!(
            r.serve_flush.speedup >= 1.3,
            "serve flush speedup {} below the 1.3x floor",
            r.serve_flush.speedup
        );
        // Factor-cache economics: a warm (GBTRS-only) flush beats the
        // cold factorize-and-solve by the acceptance floor, and the
        // mini-soak keeps the cache hot.
        assert_eq!(r.factor_cache.cold, r.serve_flush);
        assert!(
            r.factor_cache.warm_speedup >= 1.8,
            "warm flush speedup {} below the 1.8x floor",
            r.factor_cache.warm_speedup
        );
        assert!(r.factor_cache.warm.resident_ms < r.factor_cache.cold.resident_ms);
        let ts = &r.factor_cache.timestep;
        assert!(
            ts.warm_speedup >= TIMESTEP_WARM_FLOOR,
            "timestep warm flush speedup {} below the {TIMESTEP_WARM_FLOOR}x floor",
            ts.warm_speedup
        );
        assert!(
            r.factor_cache.soak_hit_rate >= 0.85,
            "mini-soak hit rate {} below the 0.85 floor",
            r.factor_cache.soak_hit_rate
        );
        // The split regime: both precisions swept over every block count,
        // P = 1 is within noise of the unsplit baseline (the split driver
        // degenerates to the same kernels), and the headline floor holds.
        assert_eq!(r.spike.lines.len(), 2);
        for line in &r.spike.lines {
            assert_eq!(line.points.len(), SPIKE_PARTS.len());
            let p1 = &line.points[0];
            assert_eq!(p1.parts, 1);
            assert!(
                (p1.speedup - 1.0).abs() < 0.2,
                "{}: P = 1 should match the unsplit path, got {:.3}x",
                line.precision,
                p1.speedup
            );
        }
        assert!(
            r.spike.speedup_at_p8_f64() >= SPIKE_FLOOR,
            "spike P = 8 f64 speedup {:.3} below the {SPIKE_FLOOR}x floor",
            r.spike.speedup_at_p8_f64()
        );
        // The fleet comparison: the heterogeneous fleet converts its
        // aggregate capacity into throughput the single device cannot
        // match, and its utilization accounting stays physical.
        assert!(
            r.fleet.speedup >= FLEET_FLOOR,
            "fleet speedup {:.3} below the {FLEET_FLOOR}x floor",
            r.fleet.speedup
        );
        assert!(r.fleet.fleet_makespan_ms < r.fleet.baseline_makespan_ms);
        assert!(r.fleet.utilization_spread >= 0.0 && r.fleet.utilization_spread <= 1.0);
        // Determinism: a second measurement reproduces every bit.
        assert_eq!(r, measure());
    }
}
