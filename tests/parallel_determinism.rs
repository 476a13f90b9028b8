//! Parallel-executor determinism: every factorization algorithm and both
//! solve paths must produce bitwise-identical results — factors, pivots,
//! info codes, aggregate counters, and modeled `SimTime` — under every
//! `ParallelPolicy`, because the work-stealing executor only changes *when*
//! a block runs on the host, never *what* it computes or how the per-block
//! counters are merged.

use gbatch::core::gbtrs::Transpose;
use gbatch::core::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch::gpu_sim::{
    with_engine_mode, DeviceSpec, EngineMode, KernelCounters, ParallelPolicy, SimTime,
};
use gbatch::kernels::dispatch::{dgbsv_batch, FactorAlgo, GbsvOptions};
use gbatch::kernels::fused::{gbtrf_batch_fused, FusedParams};
use gbatch::kernels::gbsv_fused::gbsv_batch_fused;
use gbatch::kernels::gbtrs_blocked::{gbtrs_batch_blocked, SolveParams};
use gbatch::kernels::gbtrs_cols::gbtrs_batch_cols;
use gbatch::kernels::gbtrs_trans::gbtrs_batch_blocked_trans;
use gbatch::kernels::reference::gbtrf_batch_reference;
use gbatch::kernels::window::{gbtrf_batch_window, WindowParams};

const POLICIES: [ParallelPolicy; 3] = [
    ParallelPolicy::Threads(1),
    ParallelPolicy::Threads(2),
    ParallelPolicy::Threads(8),
];

fn random_batch(batch: usize, n: usize, kl: usize, ku: usize) -> BandBatch {
    let mut v = 0.37f64;
    BandBatch::from_fn(batch, n, n, kl, ku, |id, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                v = (v * 2.9 + 0.041 + id as f64 * 3e-4).fract();
                m.set(i, j, v - 0.5);
            }
        }
    })
    .unwrap()
}

fn random_rhs(batch: usize, n: usize, nrhs: usize) -> RhsBatch {
    RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
        ((id * 13 + c * 5 + i) as f64 * 0.29).sin()
    })
    .unwrap()
}

/// Exact equality of every counter field, with the f64 fields compared by
/// bit pattern (NaN-proof, rounding-proof).
fn assert_counters_bitwise(a: &KernelCounters, b: &KernelCounters, what: &str) {
    assert_eq!(a.global_read, b.global_read, "{what}: global_read");
    assert_eq!(a.global_write, b.global_write, "{what}: global_write");
    assert_eq!(a.flops, b.flops, "{what}: flops");
    assert_eq!(a.smem_trips, b.smem_trips, "{what}: smem_trips");
    assert_eq!(a.syncs, b.syncs, "{what}: syncs");
    assert_eq!(
        a.cycles.to_bits(),
        b.cycles.to_bits(),
        "{what}: cycles bits"
    );
    assert_eq!(
        a.smem_elems.to_bits(),
        b.smem_elems.to_bits(),
        "{what}: smem_elems bits"
    );
}

fn assert_time_bitwise(a: SimTime, b: SimTime, what: &str) {
    assert_eq!(
        a.secs().to_bits(),
        b.secs().to_bits(),
        "{what}: SimTime bits"
    );
}

/// One factorization outcome, fully materialized for comparison.
struct FactorRun {
    factors: Vec<f64>,
    pivots: PivotBatch,
    info: Vec<i32>,
    counters: Vec<KernelCounters>,
    time: SimTime,
}

fn run_factor(algo: FactorAlgo, a0: &BandBatch, policy: ParallelPolicy) -> FactorRun {
    let dev = DeviceSpec::h100_pcie();
    let batch = a0.batch();
    let n = a0.layout().n;
    let kl = a0.layout().kl;
    let mut a = a0.clone();
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let (counters, time) = match algo {
        FactorAlgo::Fused => {
            let rep = gbtrf_batch_fused(
                &dev,
                &mut a,
                &mut piv,
                &mut info,
                FusedParams::auto(&dev, kl).with_parallel(policy),
            )
            .unwrap();
            (vec![rep.counters], rep.time)
        }
        FactorAlgo::Window => {
            let rep = gbtrf_batch_window(
                &dev,
                &mut a,
                &mut piv,
                &mut info,
                WindowParams::auto(&dev, kl).with_parallel(policy),
            )
            .unwrap();
            (vec![rep.counters], rep.time)
        }
        _ => {
            let rep = gbtrf_batch_reference(&dev, &mut a, &mut piv, &mut info, policy).unwrap();
            // The reference design is multi-launch: only the summed time is
            // reported, so that is what we pin down.
            (Vec::new(), rep.time)
        }
    };
    FactorRun {
        factors: a.data().to_vec(),
        pivots: piv,
        info: info.as_slice().to_vec(),
        counters,
        time,
    }
}

#[test]
fn all_factor_algorithms_are_policy_invariant() {
    let a0 = random_batch(37, 48, 5, 3);
    for algo in [FactorAlgo::Fused, FactorAlgo::Window, FactorAlgo::Reference] {
        let serial = run_factor(algo, &a0, ParallelPolicy::Serial);
        for policy in POLICIES {
            let par = run_factor(algo, &a0, policy);
            let what = format!("{algo:?} under {policy:?}");
            assert_eq!(serial.factors, par.factors, "{what}: factors");
            assert_eq!(serial.pivots, par.pivots, "{what}: pivots");
            assert_eq!(serial.info, par.info, "{what}: info");
            assert_eq!(serial.counters.len(), par.counters.len());
            for (s, p) in serial.counters.iter().zip(par.counters.iter()) {
                assert_counters_bitwise(s, p, &what);
            }
            assert_time_bitwise(serial.time, par.time, &what);
        }
    }
}

/// Both solve paths: the blocked no-transpose/transpose kernels and the
/// column-wise reference solve.
#[test]
fn all_solve_paths_are_policy_invariant() {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kl, ku, nrhs) = (23usize, 40usize, 4usize, 3usize, 3usize);
    let mut fac = random_batch(batch, n, kl, ku);
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let _ = gbtrf_batch_fused(
        &dev,
        &mut fac,
        &mut piv,
        &mut info,
        FusedParams::auto(&dev, kl),
    )
    .unwrap();
    assert!(info.all_ok());
    let l = fac.layout();
    let b0 = random_rhs(batch, n, nrhs);

    // Blocked no-transpose.
    let mut b_serial = b0.clone();
    let rep0 = gbtrs_batch_blocked(
        &dev,
        &l,
        fac.data(),
        &piv,
        &mut b_serial,
        SolveParams::auto(&dev, kl),
    )
    .unwrap();
    for policy in POLICIES {
        let mut b = b0.clone();
        let params = SolveParams::auto(&dev, kl).with_parallel(policy);
        let rep = gbtrs_batch_blocked(&dev, &l, fac.data(), &piv, &mut b, params).unwrap();
        let what = format!("blocked solve under {policy:?}");
        assert_eq!(b_serial.data(), b.data(), "{what}: solutions");
        assert_counters_bitwise(&rep0.backward.counters, &rep.backward.counters, &what);
        assert_counters_bitwise(
            &rep0.forward.as_ref().unwrap().counters,
            &rep.forward.as_ref().unwrap().counters,
            &what,
        );
        assert_time_bitwise(rep0.time(), rep.time(), &what);
    }

    // Blocked transpose.
    let mut bt_serial = b0.clone();
    let rep0 = gbtrs_batch_blocked_trans(
        &dev,
        &l,
        fac.data(),
        &piv,
        &mut bt_serial,
        SolveParams::auto(&dev, kl),
    )
    .unwrap();
    for policy in POLICIES {
        let mut b = b0.clone();
        let params = SolveParams::auto(&dev, kl).with_parallel(policy);
        let rep = gbtrs_batch_blocked_trans(&dev, &l, fac.data(), &piv, &mut b, params).unwrap();
        let what = format!("transpose solve under {policy:?}");
        assert_eq!(bt_serial.data(), b.data(), "{what}: solutions");
        assert_counters_bitwise(&rep0.ut.counters, &rep.ut.counters, &what);
        assert_time_bitwise(rep0.time(), rep.time(), &what);
    }

    // Column-wise reference solve.
    let mut bc_serial = b0.clone();
    let rep0 = gbtrs_batch_cols(
        &dev,
        &l,
        fac.data(),
        &piv,
        &mut bc_serial,
        ParallelPolicy::Serial,
    )
    .unwrap();
    for policy in POLICIES {
        let mut b = b0.clone();
        let rep = gbtrs_batch_cols(&dev, &l, fac.data(), &piv, &mut b, policy).unwrap();
        let what = format!("cols solve under {policy:?}");
        assert_eq!(bc_serial.data(), b.data(), "{what}: solutions");
        assert_time_bitwise(rep0.time, rep.time, &what);
    }
}

/// The fused factorize-and-solve kernel (§7) under every policy, including
/// its singular-system early-out.
#[test]
fn fused_gbsv_is_policy_invariant() {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kl, ku) = (19usize, 32usize, 2usize, 3usize);
    let a0 = {
        let mut a = random_batch(batch, n, kl, ku);
        let mut m = a.matrix_mut(7);
        m.set(0, 0, 0.0);
        m.set(1, 0, 0.0);
        m.set(2, 0, 0.0);
        a
    };
    let b0 = random_rhs(batch, n, 1);

    let run = |policy: ParallelPolicy| {
        let mut a = a0.clone();
        let mut b = b0.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let rep = gbsv_batch_fused(&dev, &mut a, &mut piv, &mut b, &mut info, 32, policy).unwrap();
        (a, b, piv, info.as_slice().to_vec(), rep.counters, rep.time)
    };
    let serial = run(ParallelPolicy::Serial);
    assert_eq!(serial.3[7], 1, "seeded singular system must be flagged");
    for policy in POLICIES {
        let par = run(policy);
        let what = format!("fused gbsv under {policy:?}");
        assert_eq!(serial.0.data(), par.0.data(), "{what}: factors");
        assert_eq!(serial.1.data(), par.1.data(), "{what}: solutions");
        assert_eq!(serial.2, par.2, "{what}: pivots");
        assert_eq!(serial.3, par.3, "{what}: info");
        assert_counters_bitwise(&serial.4, &par.4, &what);
        assert_time_bitwise(serial.5, par.5, &what);
    }
}

/// End to end through the dispatch layer: `GbsvOptions::parallel` must not
/// change a single bit of the solver output.
#[test]
fn dispatch_parallel_option_is_bitwise_invisible() {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kl, ku) = (17usize, 100usize, 3usize, 2usize);
    let a0 = random_batch(batch, n, kl, ku);
    let b0 = random_rhs(batch, n, 2);

    let run = |parallel: Option<ParallelPolicy>| {
        let mut a = a0.clone();
        let mut b = b0.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let opts = GbsvOptions {
            parallel,
            ..Default::default()
        };
        let rep = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts).unwrap();
        (a, b, piv, info.as_slice().to_vec(), rep.time)
    };
    let serial = run(None);
    for policy in POLICIES {
        let par = run(Some(policy));
        let what = format!("dgbsv_batch under {policy:?}");
        assert_eq!(serial.0.data(), par.0.data(), "{what}: factors");
        assert_eq!(serial.1.data(), par.1.data(), "{what}: solutions");
        assert_eq!(serial.2, par.2, "{what}: pivots");
        assert_eq!(serial.3, par.3, "{what}: info");
        assert_time_bitwise(serial.4, par.4, &what);
    }
}

/// The resident engine against per-launch under 1/2/8 workers: factors,
/// solutions, pivots, info, counters and hazard reports are bitwise
/// identical (a singular lane included); the only difference is the
/// pricing — each launch trades the cold overhead for the warm one.
#[test]
fn resident_engine_soak_is_bitwise_identical_to_per_launch() {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kl, ku) = (41usize, 32usize, 2usize, 3usize);
    let a0 = {
        let mut a = random_batch(batch, n, kl, ku);
        let mut m = a.matrix_mut(11);
        m.set(0, 0, 0.0);
        m.set(1, 0, 0.0);
        m.set(2, 0, 0.0);
        a
    };
    let b0 = random_rhs(batch, n, 1);
    let run = |engine: EngineMode, policy: ParallelPolicy| {
        with_engine_mode(engine, || {
            let mut a = a0.clone();
            let mut b = b0.clone();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let rep =
                gbsv_batch_fused(&dev, &mut a, &mut piv, &mut b, &mut info, 32, policy).unwrap();
            (a, b, piv, info.as_slice().to_vec(), rep)
        })
    };
    for policy in POLICIES {
        let cold = run(EngineMode::PerLaunch, policy);
        let warm = run(EngineMode::Resident, policy);
        let what = format!("resident soak under {policy:?}");
        assert_eq!(cold.3[11], 1, "{what}: seeded singular lane flagged");
        assert_eq!(cold.0.data(), warm.0.data(), "{what}: factors");
        assert_eq!(cold.1.data(), warm.1.data(), "{what}: solutions");
        assert_eq!(cold.2, warm.2, "{what}: pivots");
        assert_eq!(cold.3, warm.3, "{what}: info");
        assert_counters_bitwise(&cold.4.counters, &warm.4.counters, &what);
        assert_eq!(cold.4.hazards, warm.4.hazards, "{what}: hazards");
        // Exactly one fused launch: the warm engine saves one overhead swap.
        let delta = dev.launch_overhead_s - dev.warm_launch_overhead_s;
        let diff = cold.4.time.secs() - warm.4.time.secs();
        assert!(
            (diff - delta).abs() < 1e-18,
            "{what}: expected {delta:.3e}s warm saving, got {diff:.3e}s"
        );
    }
}

/// The poisoned-batch bisect-retry through the serving layer, on a *real*
/// resident [`gbatch::serve::GpuBackend`]: a fault-injecting wrapper
/// refuses any batch containing one poisoned id, the server bisects until
/// the healthy halves run on the GPU and the stubborn singleton is rescued
/// on the CPU — and the whole retry cascade is bitwise identical between
/// engine modes at every worker count.
#[test]
fn resident_serve_bisect_retry_is_bitwise_identical_to_per_launch() {
    use gbatch::cpu::CpuSpec;
    use gbatch::gpu_sim::multi::DeviceGroup;
    use gbatch::serve::{
        BackendError, BackendKind, BatchSolution, CpuBackend, FlushPolicy, GpuBackend,
        RetainedLanes, Server, ServerConfig, ShapeKey, SolveBackend, SolveRequest, SolveStatus,
    };

    struct FaultOn {
        inner: GpuBackend,
        bad: u64,
    }
    impl SolveBackend for FaultOn {
        fn kind(&self) -> BackendKind {
            self.inner.kind()
        }
        fn solve_retaining(
            &self,
            shape: &ShapeKey,
            reqs: &[SolveRequest],
        ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
            if reqs.iter().any(|r| r.id == self.bad) {
                return Err(BackendError::Fault("poisoned batch".into()));
            }
            self.inner.solve_retaining(shape, reqs)
        }
    }

    let shape = ShapeKey::gbsv(16, 2, 3, 1);
    let l = shape.layout().unwrap();
    let request = |id: u64| {
        let mut ab = vec![0.0; shape.ab_len()];
        {
            let mut m = gbatch::core::BandMatrixMut {
                layout: l,
                data: &mut ab,
            };
            for j in 0..l.n {
                let (s, e) = l.col_rows(j);
                for i in s..e {
                    m.set(
                        i,
                        j,
                        ((i * 7 + j * 3 + id as usize) % 5) as f64 * 0.1 + 0.05,
                    );
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
            submitted_s: id as f64 * 1e-6,
            deadline_s: 1.0,
        }
    };

    let run = |engine: EngineMode, workers: usize| {
        let gpu = GpuBackend::new(
            DeviceGroup::new(vec![DeviceSpec::h100_pcie()]),
            ParallelPolicy::threads(workers),
        )
        .with_engine(engine);
        let mut s = Server::new(
            ServerConfig {
                queue_capacity: 64,
                policy: FlushPolicy::default().with_target_batch(16),
            },
            Box::new(FaultOn { inner: gpu, bad: 9 }),
            Box::new(CpuBackend::new(CpuSpec::xeon_gold_6140())),
        );
        for id in 0..16u64 {
            s.submit(request(id)).unwrap();
        }
        let mut resp = s.take_responses();
        resp.sort_by_key(|r| r.id);
        (resp, s.report())
    };
    for workers in [1usize, 2, 8] {
        let cold = run(EngineMode::PerLaunch, workers);
        let warm = run(EngineMode::Resident, workers);
        let what = format!("serve bisect under {workers} workers");
        assert_eq!(cold.0.len(), 16, "{what}: all requests answered");
        assert!(cold.1.bisect_retries >= 1, "{what}: bisect happened");
        assert_eq!(cold.1.bisect_retries, warm.1.bisect_retries, "{what}");
        assert_eq!(cold.1.fallback_singletons, 1, "{what}");
        assert_eq!(warm.1.fallback_singletons, 1, "{what}");
        for (c, w) in cold.0.iter().zip(&warm.0) {
            assert_eq!(c.id, w.id, "{what}");
            assert_eq!(c.status, SolveStatus::Solved, "{what}: lane {}", c.id);
            assert_eq!(c.status, w.status, "{what}: lane {}", c.id);
            assert_eq!(c.backend, w.backend, "{what}: lane {}", c.id);
            assert_eq!(c.x, w.x, "{what}: lane {} solutions differ", c.id);
            let expect = if c.id == 9 {
                BackendKind::Cpu
            } else {
                BackendKind::Gpu
            };
            assert_eq!(c.backend, expect, "{what}: lane {}", c.id);
        }
    }
}

#[test]
fn solve_respects_transpose_sanity() {
    // Guard: the transpose path above really is a different code path.
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kl, ku) = (3usize, 16usize, 2usize, 1usize);
    let mut fac = random_batch(batch, n, kl, ku);
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let _ = gbtrf_batch_fused(
        &dev,
        &mut fac,
        &mut piv,
        &mut info,
        FusedParams::auto(&dev, kl),
    )
    .unwrap();
    let l = fac.layout();
    let b0 = random_rhs(batch, n, 1);
    let mut bn = b0.clone();
    let mut bt = b0.clone();
    gbtrs_batch_blocked(
        &dev,
        &l,
        fac.data(),
        &piv,
        &mut bn,
        SolveParams::auto(&dev, kl),
    )
    .unwrap();
    gbtrs_batch_blocked_trans(
        &dev,
        &l,
        fac.data(),
        &piv,
        &mut bt,
        SolveParams::auto(&dev, kl),
    )
    .unwrap();
    assert_ne!(bn.data(), bt.data());
    let _ = Transpose::Yes; // the dispatch-level route is covered elsewhere
}
