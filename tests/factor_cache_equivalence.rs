//! Factor-cache equivalence grid: a cache-hit (GBTRS-only) solve must be
//! **bitwise identical** to a cold factorize-and-solve of the same
//! request, across the whole configuration lattice —
//!
//! - both precisions (`f64` and the `f32` single-precision surface),
//! - host parallelism 1 / 2 / 8 workers,
//! - auto and forced-interleaved (batch-major) kernel layouts,
//! - warm buckets of batch 1 and mixed-operator warm batches,
//! - and, in a separate deterministic pass, hazard `Enforce` mode.
//!
//! This is the serving-layer face of the workspace's determinism
//! guarantee: retained factors are harvested bit-for-bit from whatever
//! kernel family solved the cold flush, so replaying them through the
//! batched GBTRS driver cannot change a single bit of the answer.

use std::sync::Arc;

use gbatch::cpu::CpuSpec;
use gbatch::gpu_sim::hazard::{set_global_mode, HazardMode};
use gbatch::gpu_sim::multi::DeviceGroup;
use gbatch::gpu_sim::{DeviceSpec, ParallelPolicy};
use gbatch::kernels::dispatch::FactorAlgo;
use gbatch::serve::{
    BackendError, BackendKind, BatchSolution, CpuBackend, FlushPolicy, GpuBackend, RetainedLanes,
    Server, ServerConfig, SolveBackend, SolveRequest, SolveStatus,
};
use gbatch_core::{BandMatrixMut, RetainedFactor, ShapeKey};
use proptest::prelude::*;

/// Deterministic diagonally-dominant operator for `shape`, keyed by `seed`.
fn operator(shape: &ShapeKey, seed: u64) -> Vec<f64> {
    let l = shape.layout().unwrap();
    let mut ab = vec![0.0; shape.ab_len()];
    let mut m = BandMatrixMut {
        layout: l,
        data: &mut ab,
    };
    for j in 0..l.n {
        let (lo, hi) = l.col_rows(j);
        for i in lo..hi {
            m.set(
                i,
                j,
                (((i * 13 + j * 7 + seed as usize * 3) % 9) as f64 - 4.0) * 0.25,
            );
        }
        let sum: f64 = (lo..hi)
            .filter(|&i| i != j)
            .map(|i| m.get(i, j).abs())
            .sum();
        m.set(j, j, sum + 1.5 + 0.0625 * seed as f64);
    }
    ab
}

fn rhs(shape: &ShapeKey, seed: u64) -> Vec<f64> {
    (0..shape.rhs_len())
        .map(|i| ((i as u64 * 31 + seed * 17) % 13) as f64 * 0.125 - 0.75)
        .collect()
}

fn req(id: u64, shape: ShapeKey, op_seed: u64, rhs_seed: u64, at: f64) -> SolveRequest {
    SolveRequest {
        id,
        shape,
        ab: operator(&shape, op_seed),
        rhs: rhs(&shape, rhs_seed),
        submitted_s: at,
        deadline_s: at + 1.0,
    }
}

fn server(policy: ParallelPolicy, algo: FactorAlgo, target_batch: usize) -> Server {
    Server::new(
        ServerConfig {
            queue_capacity: 1024,
            policy: FlushPolicy::default().with_target_batch(target_batch),
        },
        Box::new(GpuBackend::new(DeviceGroup::mi250x_full(), policy).with_algo(algo)),
        Box::new(CpuBackend::new(CpuSpec::xeon_gold_6140())),
    )
}

/// Cold reference: a fresh (empty-cache) server solves exactly this
/// request once.
fn cold_solve(policy: ParallelPolicy, algo: FactorAlgo, r: &SolveRequest) -> Vec<f64> {
    let mut s = server(policy, algo, 1);
    let mut r = r.clone();
    r.submitted_s = 0.0;
    r.deadline_s = 1.0;
    s.submit(r).unwrap();
    let resp = s.take_responses();
    assert_eq!(resp.len(), 1);
    assert_eq!(resp[0].status, SolveStatus::Solved);
    resp[0].x.clone()
}

/// Run the warm-vs-cold comparison for one shape under one
/// (parallelism, plan) point: two operators are primed cold, then
/// re-solved against fresh right-hand sides both as singleton warm
/// flushes and as one mixed-operator warm batch.
fn check_grid_point(shape: ShapeKey, policy: ParallelPolicy, algo: FactorAlgo) {
    // --- singleton warm flushes -------------------------------------
    let mut s = server(policy, algo, 1);
    for (i, (op, rh)) in [(1u64, 10u64), (2, 11), (1, 12), (2, 13)]
        .iter()
        .enumerate()
    {
        let r = req(i as u64, shape, *op, *rh, i as f64 * 1e-3);
        let want = cold_solve(policy, algo, &r);
        s.submit(r).unwrap();
        let resp = s.take_responses();
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].status, SolveStatus::Solved);
        assert_eq!(
            resp[0].x, want,
            "warm/cold divergence: shape {shape:?} policy {policy:?} algo {algo:?} req {i}"
        );
    }
    let rep = s.report();
    assert_eq!(
        rep.warm_requests, 2,
        "second touch of each operator is warm"
    );
    assert_eq!(rep.warm_flushes, 2);
    assert_eq!(rep.warm_fallbacks, 0);
    assert!(rep.is_conserved());

    // --- mixed-operator warm batch ----------------------------------
    let mut s = server(policy, algo, 2);
    s.submit(req(0, shape, 1, 20, 0.0)).unwrap();
    s.submit(req(1, shape, 2, 21, 1e-6)).unwrap();
    assert_eq!(s.take_responses().len(), 2, "cold priming flush");
    // Two warm requests with *different* operators share one ShapeKey and
    // one warm tier: they flush as a single batched GBTRS launch whose
    // lanes gather from two distinct cached factorizations.
    let wa = req(2, shape, 1, 22, 1e-3);
    let wb = req(3, shape, 2, 23, 1e-3 + 1e-6);
    let want_a = cold_solve(policy, algo, &wa);
    let want_b = cold_solve(policy, algo, &wb);
    s.submit(wa).unwrap();
    s.submit(wb).unwrap();
    let resp = s.take_responses();
    assert_eq!(resp.len(), 2);
    for r in &resp {
        assert_eq!(r.status, SolveStatus::Solved);
        assert_eq!(r.batch_size, 2, "one batched warm launch");
        let want = if r.id == 2 { &want_a } else { &want_b };
        assert_eq!(
            &r.x, want,
            "batched warm divergence: shape {shape:?} policy {policy:?} algo {algo:?}"
        );
    }
    let rep = s.report();
    assert_eq!(rep.warm_flushes, 1);
    assert!(rep.is_conserved());
}

const POLICIES: [ParallelPolicy; 3] = [
    ParallelPolicy::Serial,
    ParallelPolicy::Threads(2),
    ParallelPolicy::Threads(8),
];
const ALGOS: [FactorAlgo; 2] = [FactorAlgo::Auto, FactorAlgo::Interleaved];

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Warm solves are bitwise cold across precision × parallelism ×
    /// layout, for arbitrary small band geometries.
    #[test]
    fn warm_equals_cold_across_the_grid(
        n in 4usize..24,
        kl in 0usize..3,
        ku in 0usize..3,
    ) {
        for shape in [ShapeKey::gbsv(n, kl, ku, 1), ShapeKey::sgbsv(n, kl, ku, 1)] {
            for policy in POLICIES {
                for algo in ALGOS {
                    check_grid_point(shape, policy, algo);
                }
            }
        }
    }
}

/// The same grid point under hazard `Enforce`: warm GBTRS-only launches
/// must be as hazard-clean as every other kernel in the workspace, and
/// the bitwise contract must survive enforcement.
#[test]
fn warm_equals_cold_under_hazard_enforce() {
    set_global_mode(HazardMode::Enforce);
    for shape in [ShapeKey::gbsv(17, 2, 2, 1), ShapeKey::sgbsv(17, 2, 2, 1)] {
        for policy in POLICIES {
            for algo in ALGOS {
                check_grid_point(shape, policy, algo);
            }
        }
    }
    set_global_mode(HazardMode::Off);
}

/// The simulated GPU backend, except that it refuses every warm flush.
struct RefusesWarm(GpuBackend);

impl SolveBackend for RefusesWarm {
    fn kind(&self) -> BackendKind {
        self.0.kind()
    }
    fn device(&self) -> Option<&DeviceSpec> {
        self.0.device()
    }
    fn solve_retaining(
        &self,
        shape: &ShapeKey,
        reqs: &[SolveRequest],
    ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
        self.0.solve_retaining(shape, reqs)
    }
    fn solve_with(
        &self,
        _shape: &ShapeKey,
        _reqs: &[SolveRequest],
        _factors: &[Arc<RetainedFactor>],
    ) -> Result<BatchSolution, BackendError> {
        Err(BackendError::Fault("warm flush refused".into()))
    }
}

/// A backend that refuses a warm flush demotes it to the cold path: the
/// answer is `Solved`, bitwise a fresh cold solve, and the demotion is
/// counted once.
#[test]
fn refused_warm_flush_demotes_to_a_bitwise_cold_solve() {
    for shape in [ShapeKey::gbsv(17, 2, 2, 1), ShapeKey::sgbsv(17, 2, 2, 1)] {
        let gpu = GpuBackend::new(DeviceGroup::mi250x_full(), ParallelPolicy::Serial);
        let mut s = Server::new(
            ServerConfig {
                queue_capacity: 1024,
                policy: FlushPolicy::default().with_target_batch(1),
            },
            Box::new(RefusesWarm(gpu)),
            Box::new(CpuBackend::new(CpuSpec::xeon_gold_6140())),
        );
        s.submit(req(0, shape, 1, 10, 0.0)).unwrap();
        assert_eq!(s.take_responses().len(), 1, "cold priming flush");
        let r = req(1, shape, 1, 11, 1e-3);
        let want = cold_solve(ParallelPolicy::Serial, FactorAlgo::Auto, &r);
        s.submit(r).unwrap();
        let resp = s.take_responses();
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].status, SolveStatus::Solved);
        assert_eq!(resp[0].x, want, "{shape:?}: demoted answer is bitwise cold");
        let rep = s.report();
        assert_eq!(
            rep.warm_requests, 1,
            "{shape:?}: the repeat is admitted warm"
        );
        assert_eq!(rep.warm_flushes, 0);
        assert_eq!(rep.warm_fallbacks, 1);
        assert!(rep.is_conserved());
    }
}
