//! Factor-cache integration tests at the server boundary: the warm
//! (GBTRS-only) fast path, the fail-closed stale-handle contract, and
//! the negative cache's routing of known-singular operators.

use gbatch_core::ShapeKey;
use gbatch_cpu::CpuSpec;
use gbatch_gpu_sim::multi::DeviceGroup;
use gbatch_gpu_sim::ParallelPolicy;
use gbatch_serve::{
    BackendKind, CacheConfig, FactorizeError, FlushPolicy, Server, ServerConfig, SolveRequest,
    SolveStatus,
};

fn shape() -> ShapeKey {
    ShapeKey::gbsv(24, 2, 2, 1)
}

/// A diagonally-dominant operator whose band bytes depend only on `seed`
/// — equal seeds mean equal fingerprints.
fn operator(seed: u64) -> Vec<f64> {
    let s = shape();
    let l = s.layout().unwrap();
    let mut ab = vec![0.0; s.ab_len()];
    let mut m = gbatch_core::BandMatrixMut {
        layout: l,
        data: &mut ab,
    };
    for j in 0..l.n {
        let (lo, hi) = l.col_rows(j);
        for i in lo..hi {
            m.set(i, j, ((i * 7 + j * 3 + seed as usize) % 5) as f64 * 0.1);
        }
        let sum: f64 = (lo..hi)
            .filter(|&i| i != j)
            .map(|i| m.get(i, j).abs())
            .sum();
        m.set(j, j, sum + 1.0 + seed as f64 * 0.01);
    }
    ab
}

/// An exactly singular operator (first column zeroed).
fn singular_operator() -> Vec<f64> {
    let s = shape();
    let l = s.layout().unwrap();
    let mut ab = operator(0);
    let mut m = gbatch_core::BandMatrixMut {
        layout: l,
        data: &mut ab,
    };
    let (lo, hi) = l.col_rows(0);
    for i in lo..hi {
        m.set(i, 0, 0.0);
    }
    ab
}

fn req(id: u64, ab: Vec<f64>, at: f64) -> SolveRequest {
    let s = shape();
    SolveRequest {
        id,
        shape: s,
        ab,
        rhs: (0..s.rhs_len()).map(|i| 1.0 + 0.125 * i as f64).collect(),
        submitted_s: at,
        deadline_s: at + 1.0,
    }
}

fn server(target_batch: usize) -> Server {
    Server::simulated(
        DeviceGroup::mi250x_full(),
        CpuSpec::xeon_gold_6140(),
        ParallelPolicy::Serial,
        ServerConfig {
            queue_capacity: 4096,
            policy: FlushPolicy::default().with_target_batch(target_batch),
        },
    )
}

#[test]
fn warm_solve_is_bitwise_identical_to_cold() {
    let mut s = server(1);
    s.submit(req(0, operator(1), 0.0)).unwrap();
    let cold = s.take_responses();
    assert_eq!(cold.len(), 1);
    assert_eq!(cold[0].status, SolveStatus::Solved);
    assert_eq!(s.cache().len(), 1, "cold flush retained the factors");

    // Same operator, same RHS, later instant: admitted warm, flushed as
    // a GBTRS-only launch — and the answer is bit-for-bit the cold one.
    s.submit(req(1, operator(1), 0.1)).unwrap();
    let warm = s.take_responses();
    assert_eq!(warm.len(), 1);
    assert_eq!(warm[0].status, SolveStatus::Solved);
    assert_eq!(warm[0].backend, BackendKind::Gpu);
    assert_eq!(warm[0].x, cold[0].x, "warm solve must be bitwise cold");

    let rep = s.report();
    assert_eq!(rep.warm_requests, 1);
    assert_eq!(rep.warm_flushes, 1);
    assert_eq!(rep.warm_fallbacks, 0);
    assert_eq!(rep.cache_hits, 1);
    assert!((rep.hit_rate() - 0.5).abs() < 1e-12, "1 hit / 2 lookups");
    assert!(rep.is_conserved());
}

#[test]
fn factorize_returns_a_stable_handle_and_submit_with_rides_warm() {
    let mut s = server(1);
    let h = s.factorize(shape(), &operator(3), 0.0).unwrap();
    // Idempotent: the cached operator returns its existing handle.
    assert_eq!(s.factorize(shape(), &operator(3), 0.1).unwrap(), h);
    assert_eq!(s.report().factorize_requests, 1, "second call was a no-op");
    assert!(
        s.report().devices[0].busy_s > 0.0,
        "factorization occupied the GPU"
    );

    s.submit_with(req(0, operator(3), 0.2), h).unwrap();
    let resp = s.take_responses();
    assert_eq!(resp[0].status, SolveStatus::Solved);
    let rep = s.report();
    assert_eq!(rep.warm_requests, 1);
    assert_eq!(rep.warm_flushes, 1);
    assert_eq!(rep.stale_handles, 0);
}

#[test]
fn stale_handle_fails_closed_to_refactorization() {
    // A one-entry cache: factoring B evicts A, leaving A's handle stale.
    let mut s = server(1).with_cache(CacheConfig::default().with_max_entries(1));
    let ha = s.factorize(shape(), &operator(10), 0.0).unwrap();
    let hb = s.factorize(shape(), &operator(11), 0.1).unwrap();
    assert_ne!(ha, hb);
    assert_eq!(s.cache().len(), 1, "A evicted by B");

    // Solving with the stale handle must not panic and must not return a
    // wrong answer: the request re-factorizes through the ordinary path.
    s.submit_with(req(0, operator(10), 0.2), ha).unwrap();
    let resp = s.take_responses();
    assert_eq!(resp.len(), 1);
    assert_eq!(resp[0].status, SolveStatus::Solved);
    let rep = s.report();
    assert_eq!(rep.stale_handles, 1);
    assert_eq!(rep.warm_flushes, 0, "stale handle cannot ride warm");

    // The answer equals a fresh server's cold solve of the same request.
    let mut fresh = server(1);
    fresh.submit(req(0, operator(10), 0.0)).unwrap();
    assert_eq!(resp[0].x, fresh.take_responses()[0].x);
    assert!(rep.is_conserved());
}

#[test]
fn mismatched_handle_fails_closed_too() {
    let mut s = server(1);
    let hb = s.factorize(shape(), &operator(21), 0.0).unwrap();
    // Live handle, wrong operator: the payload's own fingerprint wins.
    s.submit_with(req(0, operator(22), 0.1), hb).unwrap();
    let resp = s.take_responses();
    assert_eq!(resp[0].status, SolveStatus::Solved);
    let rep = s.report();
    assert_eq!(rep.stale_handles, 1);
    // And the request was served through the cold path, caching the
    // *correct* operator.
    assert_eq!(s.cache().len(), 2);
}

#[test]
fn singular_operators_are_negatively_cached_and_spill_to_cpu() {
    let mut s = server(2);
    // Cold round: one singular and one healthy lane share a flush.
    s.submit(req(0, singular_operator(), 0.0)).unwrap();
    s.submit(req(1, operator(5), 1e-6)).unwrap();
    let first = s.take_responses();
    assert_eq!(first.len(), 2);
    let sing = first.iter().find(|r| r.id == 0).unwrap();
    assert_eq!(sing.status, SolveStatus::Singular { column: 1 });
    assert_eq!(
        s.cache().len(),
        1,
        "only the healthy lane's factors are retained"
    );
    assert_eq!(
        s.cache().negative_len(),
        1,
        "singular lane negatively cached"
    );

    // Re-solve of the singular operator: admission answers from the
    // negative cache and the flush routes straight to CPU spill — the
    // device never sees the known-singular operator again.
    s.submit(req(2, singular_operator(), 0.1)).unwrap();
    s.submit(req(3, singular_operator(), 0.1 + 1e-6)).unwrap();
    let second = s.take_responses();
    assert_eq!(second.len(), 2);
    for r in &second {
        assert_eq!(r.status, SolveStatus::Singular { column: 1 });
        assert_eq!(r.backend, BackendKind::Cpu, "negative tier spills");
        assert_eq!(r.x, req(r.id, singular_operator(), 0.0).rhs, "rhs back");
    }
    let rep = s.report();
    assert_eq!(rep.cache_negative_hits, 2);
    assert_eq!(s.cache().len(), 1, "singular factors never cached");
    assert!(rep.spills >= 1);
    assert!(rep.is_conserved());
}

#[test]
fn factorize_rejects_singular_operators_via_the_negative_cache() {
    let mut s = server(1);
    let err = s.factorize(shape(), &singular_operator(), 0.0).unwrap_err();
    assert_eq!(err, FactorizeError::Singular { column: 1 });
    assert_eq!(s.cache().negative_len(), 1);
    // The second attempt is answered by the negative cache without
    // touching a backend (busy time unchanged).
    let busy = s.report().busy_s();
    let err = s.factorize(shape(), &singular_operator(), 0.1).unwrap_err();
    assert_eq!(err, FactorizeError::Singular { column: 1 });
    assert_eq!(s.report().busy_s(), busy);
}

#[test]
fn eviction_between_admission_and_flush_demotes_the_warm_bucket() {
    // Cache big enough to admit warm, then shrink pressure evicts the
    // entry before the bucket flushes (deadline flush).
    let mut s = Server::simulated(
        DeviceGroup::mi250x_full(),
        CpuSpec::xeon_gold_6140(),
        ParallelPolicy::Serial,
        ServerConfig {
            queue_capacity: 4096,
            // Target high enough that the warm bucket waits for its
            // deadline; min_gpu_batch 1 keeps the flush on the GPU.
            policy: FlushPolicy::default()
                .with_target_batch(100)
                .with_min_gpu_batch(1),
        },
    )
    .with_cache(CacheConfig::default().with_max_entries(1));

    let h = s.factorize(shape(), &operator(30), 0.0).unwrap();
    // Admit a warm request; it queues (target not reached).
    s.submit_with(req(0, operator(30), 0.1), h).unwrap();
    assert_eq!(s.report().warm_requests, 1);
    // Evict the factors while the request is still queued.
    let _ = s.factorize(shape(), &operator(31), 0.2).unwrap();
    assert_eq!(s.cache().len(), 1, "operator 30 evicted");
    // Deadline flush: the warm bucket finds its factors gone and fails
    // closed into a cold factorize-and-solve — correct answer, counted.
    s.advance(2.0);
    let resp = s.take_responses();
    assert_eq!(resp.len(), 1);
    assert_eq!(resp[0].status, SolveStatus::Solved);
    let rep = s.report();
    assert_eq!(rep.warm_fallbacks, 1);
    assert_eq!(rep.warm_flushes, 0);

    let mut fresh = server(1);
    fresh.submit(req(0, operator(30), 0.0)).unwrap();
    assert_eq!(resp[0].x, fresh.take_responses()[0].x, "bitwise cold");
    assert!(rep.is_conserved());
}

#[test]
fn warm_and_cold_buckets_of_one_shape_flush_separately() {
    let mut s = server(2);
    // Prime the cache with operator 40.
    s.submit(req(0, operator(40), 0.0)).unwrap();
    s.submit(req(1, operator(41), 1e-6)).unwrap();
    assert_eq!(s.take_responses().len(), 2);
    assert_eq!(s.cache().len(), 2);

    // One warm (repeat of 40) and one cold (fresh 42) request: same
    // ShapeKey, different tiers — neither bucket reaches the target of
    // 2, so both wait; a drain flushes them as two separate batches.
    s.submit(req(2, operator(40), 0.1)).unwrap();
    s.submit(req(3, operator(42), 0.1 + 1e-6)).unwrap();
    assert_eq!(s.ready(), 0, "tiers do not share a bucket");
    s.drain();
    let resp = s.take_responses();
    assert_eq!(resp.len(), 2);
    let rep = s.report();
    assert_eq!(rep.flush_drain, 2, "two tier-separated drain flushes");
    assert!(rep.is_conserved());
}
