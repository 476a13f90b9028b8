//! Closed-loop soak test of the serving layer: 10 000 requests over four
//! shape buckets, replayed under three host parallel policies.
//!
//! Checks the service's hard conservation and determinism contracts:
//!
//! - every admitted request is answered exactly once (no loss, no
//!   duplication), across all four shape buckets;
//! - poisoned (exactly singular) requests are flagged per-lane without
//!   harming batchmates;
//! - answers are *correct* (small backward residual on a sample);
//! - responses and the full metrics report are bitwise-identical under
//!   `ParallelPolicy::Serial`, `threads(2)`, and `threads(8)` — the
//!   serving-layer extension of the workspace's kernel determinism
//!   guarantee;
//! - the served schedule's total busy time beats pricing the same traffic
//!   as per-request `simulate_streams` launches (the Figure 1 economics,
//!   now at the service level).

use gbatch::cpu::model::{gbtrf_bytes, gbtrf_flops, gbtrs_bytes, gbtrs_flops};
use gbatch::cpu::CpuSpec;
use gbatch::gpu_sim::multi::DeviceGroup;
use gbatch::gpu_sim::stream::simulate_streams;
use gbatch::gpu_sim::{DeviceSpec, KernelCounters, LaunchConfig, ParallelPolicy};
use gbatch::serve::{
    FlushPolicy, ServeReport, Server, ServerConfig, SolveRequest, SolveResponse, SolveStatus,
};
use gbatch::workloads::{poisson_traffic, Arrival, ShapeMix, TrafficConfig};
use gbatch_core::ShapeKey;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const N_REQUESTS: usize = 10_000;
const POISON_EVERY: usize = 500;

/// Four small shape buckets (soak iterates thousands of solves in debug
/// builds, so the shapes are kept lean; the bucket structure — not the
/// matrix order — is what this test exercises).
fn soak_traffic() -> TrafficConfig {
    TrafficConfig {
        rate_hz: 2.0e5,
        deadline_s: 2.0e-3,
        mix: vec![
            ShapeMix {
                shape: ShapeKey::gbsv(24, 2, 2, 1),
                weight: 4.0,
            },
            ShapeMix {
                shape: ShapeKey::gbsv(32, 3, 3, 1),
                weight: 2.0,
            },
            ShapeMix {
                shape: ShapeKey::gbsv(16, 1, 2, 1),
                weight: 2.0,
            },
            ShapeMix {
                shape: ShapeKey::gbsv(20, 1, 1, 2),
                weight: 1.0,
            },
        ],
        poison_every: Some(POISON_EVERY),
    }
}

fn arrivals() -> Vec<Arrival> {
    poisson_traffic(&mut StdRng::seed_from_u64(99), N_REQUESTS, &soak_traffic())
}

fn run_soak(policy: ParallelPolicy) -> (Vec<SolveResponse>, ServeReport) {
    let mut server = Server::simulated(
        DeviceGroup::mi250x_full(),
        CpuSpec::xeon_gold_6140(),
        policy,
        ServerConfig {
            queue_capacity: 8192,
            policy: FlushPolicy::default()
                .with_target_batch(64)
                .with_min_gpu_batch(16),
        },
    );
    for a in arrivals() {
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
fn soak_10k_requests_conserved_correct_and_deterministic() {
    let traffic = arrivals();
    let (responses, report) = run_soak(ParallelPolicy::Serial);

    // Conservation: every request answered exactly once.
    assert_eq!(responses.len(), N_REQUESTS, "no lost responses");
    for (k, r) in responses.iter().enumerate() {
        assert_eq!(r.id, k as u64, "no duplicated or missing ids");
    }
    assert!(report.is_conserved());
    assert_eq!(report.rejected, 0);
    assert_eq!(report.timed_out, 0, "infinite timeout slack drops nothing");

    // All four shape buckets saw traffic.
    let mut by_shape: BTreeMap<ShapeKey, usize> = BTreeMap::new();
    for r in &responses {
        *by_shape.entry(r.shape).or_insert(0) += 1;
    }
    assert!(by_shape.len() >= 4, "got {} shape buckets", by_shape.len());
    assert!(by_shape.values().all(|&c| c > 100));

    // Poisoned requests flagged singular; everything else solved.
    for r in &responses {
        if (r.id + 1) % POISON_EVERY as u64 == 0 {
            assert_eq!(
                r.status,
                SolveStatus::Singular { column: 1 },
                "request {} is poisoned",
                r.id
            );
        } else {
            assert_eq!(r.status, SolveStatus::Solved, "request {}", r.id);
        }
    }
    assert_eq!(report.singular, (N_REQUESTS / POISON_EVERY) as u64);
    assert_eq!(
        report.solved,
        (N_REQUESTS - N_REQUESTS / POISON_EVERY) as u64
    );

    // Correctness sample: small backward residual against the original
    // payload (the arrivals regenerate deterministically from the seed).
    for r in responses.iter().step_by(97) {
        if r.status != SolveStatus::Solved {
            continue;
        }
        let a = &traffic[r.id as usize];
        let l = r.shape.layout().unwrap();
        let m = gbatch_core::BandMatrixRef {
            layout: l,
            data: &a.ab,
        };
        for col in 0..r.shape.nrhs {
            let x = &r.x[col * l.n..(col + 1) * l.n];
            let b = &a.rhs[col * l.n..(col + 1) * l.n];
            for (i, bi) in b.iter().enumerate() {
                let lo = i.saturating_sub(l.kl);
                let hi = (i + l.ku + 1).min(l.n);
                let ax: f64 = x[lo..hi]
                    .iter()
                    .enumerate()
                    .map(|(k, xj)| m.get(i, lo + k) * xj)
                    .sum();
                assert!(
                    (ax - bi).abs() < 1e-9,
                    "request {} row {i}: residual {:e}",
                    r.id,
                    (ax - bi).abs()
                );
            }
        }
    }

    // Dynamic batching earned its keep: flushes are far fewer than
    // requests and the mean batch is substantial.
    assert!(report.flushes() < (N_REQUESTS / 10) as u64);
    assert!(report.mean_batch() > 10.0);

    // Determinism: identical responses and reports under 2- and 8-worker
    // host scheduling (bitwise, including every latency and busy time).
    for workers in [2usize, 8] {
        let (alt, alt_report) = run_soak(ParallelPolicy::threads(workers));
        assert_eq!(alt.len(), responses.len());
        for (a, b) in alt.iter().zip(&responses) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.x, b.x, "{workers}-worker solution differs (id {})", a.id);
            assert_eq!(a.status, b.status);
            assert_eq!(a.completed_s, b.completed_s);
            assert_eq!(a.batch_size, b.batch_size);
            assert_eq!(a.reason, b.reason);
            assert_eq!(a.backend, b.backend);
        }
        assert_eq!(alt_report, report, "{workers}-worker report differs");
    }
}

#[test]
fn served_schedule_beats_per_request_stream_launches() {
    let (responses, report) = run_soak(ParallelPolicy::Serial);

    // Price the same traffic as the naive alternative: every request is
    // its own kernel launch over 16 streams (the paper's Figure 1
    // baseline), per shape bucket, on one GCD.
    let dev = DeviceSpec::mi250x_gcd();
    let mut by_shape: BTreeMap<ShapeKey, usize> = BTreeMap::new();
    for r in &responses {
        *by_shape.entry(r.shape).or_insert(0) += 1;
    }
    let mut streams_s = 0.0;
    for (shape, count) in by_shape {
        let l = shape.layout().unwrap();
        let traffic_bytes = gbtrf_bytes(&l) + gbtrs_bytes(&l, shape.nrhs);
        let per_block = KernelCounters {
            global_read: traffic_bytes as u64 / 2,
            global_write: traffic_bytes as u64 / 2,
            flops: (gbtrf_flops(&l) + gbtrs_flops(&l, shape.nrhs)) as u64,
            cycles: (l.n * 30) as f64,
            ..Default::default()
        };
        let cfg = LaunchConfig::new(64, 0);
        streams_s += simulate_streams(&dev, &cfg, count, 16, &per_block).secs();
    }

    let served_s = report.busy_s();
    assert!(
        served_s < streams_s / 2.0,
        "dynamic batching should clearly beat per-request streams: \
         served {served_s:.6} s vs streams {streams_s:.6} s"
    );
}
