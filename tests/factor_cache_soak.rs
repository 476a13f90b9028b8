//! Factor-cache soak: 10 000 timestepping requests over a small reused
//! operator pool with occasional Jacobian churn, so roughly nine in ten
//! arrivals repeat a previously-seen operator byte-for-byte.
//!
//! Checks the cache's production contract end to end:
//!
//! - conservation: every request answered exactly once, all solved;
//! - the measured cache hit rate clears the 0.85 floor the bench gate
//!   also enforces;
//! - warm (GBTRS-only) flushes dominate the schedule;
//! - reuse is *cheaper*: the same traffic with full operator churn
//!   (every arrival cold) keeps the device busy strictly longer;
//! - determinism: responses and the full report are bitwise-identical
//!   under serial and 4-worker host scheduling.

use gbatch::cpu::CpuSpec;
use gbatch::gpu_sim::multi::DeviceGroup;
use gbatch::gpu_sim::ParallelPolicy;
use gbatch::serve::{
    FlushPolicy, ServeReport, Server, ServerConfig, SolveRequest, SolveResponse, SolveStatus,
};
use gbatch::workloads::{timestep_traffic, TimestepConfig};
use gbatch_core::ShapeKey;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N_REQUESTS: usize = 10_000;
const OPERATOR_POOL: usize = 8;
const CHURN: f64 = 0.02;

fn run_soak(policy: ParallelPolicy, churn: f64) -> (Vec<SolveResponse>, ServeReport) {
    // Factors enter the cache when their cold bucket *flushes*, so the
    // flush cadence must stay short against the operator repeat period:
    // a lazy cold bucket would keep every repeat of a fresh operator
    // missing until it finally fills. A modest target batch plus a tight
    // deadline keeps insertion latency at a few tens of arrivals.
    let mut cfg =
        TimestepConfig::timestepper(ShapeKey::gbsv(16, 2, 3, 1), OPERATOR_POOL, churn, 2.0e5);
    cfg.deadline_s = 2.0e-4;
    let mut server = Server::simulated(
        DeviceGroup::mi250x_full(),
        CpuSpec::xeon_gold_6140(),
        policy,
        ServerConfig {
            queue_capacity: 8192,
            policy: FlushPolicy::default()
                .with_target_batch(16)
                .with_min_gpu_batch(8),
        },
    );
    for a in timestep_traffic(&mut StdRng::seed_from_u64(41), N_REQUESTS, &cfg) {
        server
            .submit(SolveRequest {
                id: a.id,
                shape: a.shape,
                ab: a.ab,
                rhs: a.rhs,
                submitted_s: a.at_s,
                deadline_s: a.deadline_s,
            })
            .expect("soak traffic fits the admission queue");
    }
    server.drain();
    let mut responses = server.take_responses();
    responses.sort_by_key(|r| r.id);
    (responses, server.report())
}

#[test]
fn cache_soak_hit_rate_conservation_and_determinism() {
    let (responses, report) = run_soak(ParallelPolicy::Serial, CHURN);

    // Conservation: every request answered exactly once, all solvable.
    assert_eq!(responses.len(), N_REQUESTS);
    for (k, r) in responses.iter().enumerate() {
        assert_eq!(r.id, k as u64, "no duplicated or missing ids");
        assert_eq!(r.status, SolveStatus::Solved, "request {}", r.id);
    }
    assert!(report.is_conserved());
    assert_eq!(report.rejected, 0);

    // The repeated-operator stream keeps the cache hot: the hit rate
    // clears the same floor the perf gate replays from the bench JSON.
    assert_eq!(report.cache_lookups, N_REQUESTS as u64);
    assert!(
        report.hit_rate() >= 0.85,
        "soak hit rate {:.4} below the 0.85 floor",
        report.hit_rate()
    );
    assert!(report.warm_requests >= (N_REQUESTS as u64 * 85) / 100);
    assert!(
        report.warm_flushes > 0,
        "warm buckets flushed as GBTRS-only"
    );
    assert_eq!(report.stale_handles, 0, "no explicit handles in this soak");
    // The pool (plus churn replacements) stays far under the default
    // entry budget, so nothing hot is ever evicted.
    assert!(report.cache_entries <= 256);
    assert!(report.amortized_cost_s() > 0.0);

    // Reuse earns its keep: the identical stream with every operator
    // regenerated per arrival (churn 1.0 — nothing ever repeats) must
    // keep the device busy strictly longer than the cached run.
    let (_, cold) = run_soak(ParallelPolicy::Serial, 1.0);
    assert_eq!(cold.cache_hits, 0, "full churn never repeats an operator");
    assert!(
        report.busy_s() < cold.busy_s(),
        "cached busy {:.6}s !< cold busy {:.6}s",
        report.busy_s(),
        cold.busy_s()
    );
    assert!(
        report.amortized_cost_s() < cold.amortized_cost_s(),
        "amortized per-solve cost must drop under reuse"
    );

    // Determinism: bitwise-identical responses and report under a
    // work-stealing host pool.
    let (alt, alt_report) = run_soak(ParallelPolicy::threads(4), CHURN);
    assert_eq!(alt.len(), responses.len());
    for (a, b) in alt.iter().zip(&responses) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.x, b.x, "4-worker solution differs (id {})", a.id);
        assert_eq!(a.completed_s, b.completed_s);
        assert_eq!(a.batch_size, b.batch_size);
        assert_eq!(a.backend, b.backend);
    }
    assert_eq!(alt_report, report, "4-worker report differs");
}
