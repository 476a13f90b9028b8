//! Fleet soak: the heterogeneous multi-device scheduler under
//! adversarial traffic, plus the degenerate-fleet parity pin.
//!
//! Two contracts from the fleet refactor:
//!
//! 1. **Degenerate-fleet parity** — the one-device configuration
//!    (`Server::simulated` over `mi250x_full`) must reproduce the
//!    pre-refactor server *bitwise* on the PR-4 soak corpus. The pinned
//!    FNV-1a digest below was first captured from the server immediately
//!    before the Worker/router refactor; every response field (solutions,
//!    completion instants, batch sizes, routing) and every scalar of the
//!    report participates. A cost-model change may move the completion
//!    instants and the routing they drive, and then re-captures it, but
//!    never an answer: a second digest pins the answers alone (status and
//!    solution bits).
//! 2. **Fleet soak** — 10 000 adversarial requests (bursty MMPP arrivals,
//!    shape churn, poison storms, interleaved f32/f64, a large-`n` SPIKE
//!    lane) through a 1×H100 + 2×GCD fleet: request conservation,
//!    residual bounds on a sample, every device utilized, and bitwise
//!    determinism across 1/2/8 host worker threads.

use gbatch::cpu::CpuSpec;
use gbatch::gpu_sim::multi::DeviceGroup;
use gbatch::gpu_sim::{FleetSpec, ParallelPolicy};
use gbatch::serve::{
    FlushPolicy, ServeReport, Server, ServerConfig, SolveRequest, SolveResponse, SolveStatus,
};
use gbatch::workloads::{
    adversarial_traffic, poisson_traffic, AdversarialConfig, Arrival, ShapeMix, TrafficConfig,
};
use gbatch_core::{Precision, ShapeKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Response digest of the PR-4 soak corpus (Serial policy). It holds
/// modeled times, so pricing launches at the shared-memory parallelism
/// they record (`min(threads, lds_lanes)`, 8 lanes on an MI250x GCD), and
/// later dropping the layout passes around windowed interleaved launches,
/// each re-captured it: flushes finish sooner and spill less, and
/// [`ANSWER_DIGEST`] did not move.
const PRE_REFACTOR_DIGEST: u64 = 0x7f6e283dba2c4245;

/// Answer digest of the same corpus: status and solution bits only.
const ANSWER_DIGEST: u64 = 0xf60d2d135c17bffb;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// FNV-1a over one response's id, status and solution bits.
fn answer(h: &mut u64, r: &SolveResponse) {
    fnv(h, &r.id.to_le_bytes());
    let (code, col) = match r.status {
        SolveStatus::Solved => (0u8, 0u64),
        SolveStatus::Singular { column } => (1, column as u64),
        SolveStatus::TimedOut => (2, 0),
        SolveStatus::Failed => (3, 0),
    };
    fnv(h, &[code]);
    fnv(h, &col.to_le_bytes());
    for v in &r.x {
        fnv(h, &v.to_bits().to_le_bytes());
    }
}

/// FNV-1a over the answers alone, in id order.
fn answer_digest(responses: &[SolveResponse]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for r in responses {
        answer(&mut h, r);
    }
    h
}

/// FNV-1a over every determinism-relevant response field, in id order.
fn response_digest(responses: &[SolveResponse]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for r in responses {
        answer(&mut h, r);
        fnv(&mut h, &r.completed_s.to_bits().to_le_bytes());
        fnv(&mut h, &(r.batch_size as u64).to_le_bytes());
        fnv(&mut h, format!("{:?}|{:?}", r.reason, r.backend).as_bytes());
    }
    h
}

/// The PR-4 soak corpus, verbatim (same seed, mix, rates as
/// `tests/serve_soak.rs`).
fn pr4_corpus() -> Vec<Arrival> {
    let cfg = TrafficConfig {
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
        poison_every: Some(500),
    };
    poisson_traffic(&mut StdRng::seed_from_u64(99), 10_000, &cfg)
}

fn submit_all(server: &mut Server, arrivals: Vec<Arrival>) -> (Vec<SolveResponse>, ServeReport) {
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
            .expect("soak traffic fits the admission queue");
    }
    server.drain();
    let mut responses = server.take_responses();
    responses.sort_by_key(|r| r.id);
    (responses, server.report())
}

#[test]
fn one_device_fleet_is_bitwise_identical_to_the_pre_refactor_server() {
    let mut server = Server::simulated(
        DeviceGroup::mi250x_full(),
        CpuSpec::xeon_gold_6140(),
        ParallelPolicy::Serial,
        ServerConfig {
            queue_capacity: 8192,
            policy: FlushPolicy::default()
                .with_target_batch(64)
                .with_min_gpu_batch(16),
        },
    );
    let (responses, report) = submit_all(&mut server, pr4_corpus());

    assert_eq!(
        answer_digest(&responses),
        ANSWER_DIGEST,
        "one-device fleet answers moved"
    );
    assert_eq!(
        response_digest(&responses),
        PRE_REFACTOR_DIGEST,
        "one-device fleet diverged from the pre-refactor server"
    );

    // Every scalar the pre-refactor report carried, pinned exactly
    // (busy times and quantiles by bit pattern — no tolerance).
    assert_eq!(report.submitted, 10_000);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.solved, 9980);
    assert_eq!(report.singular, 20);
    assert_eq!(report.timed_out, 0);
    assert_eq!(report.failed, 0);
    assert_eq!(report.flush_size, 69);
    assert_eq!(report.flush_deadline, 146);
    assert_eq!(report.flush_drain, 3);
    assert_eq!(report.spills, 21);
    assert_eq!(report.bisect_retries, 0);
    assert_eq!(report.fallback_singletons, 0);
    assert_eq!(report.deadline_misses, 0);
    assert_eq!(report.max_queue_depth, 173);
    assert_eq!(report.p50_latency_s, 0.0004396802006132877);
    assert_eq!(report.p99_latency_s, 0.0010136029411764698);
    assert_eq!(report.max_latency_s, 0.0010259405882352968);
    assert_eq!(report.mean_latency_s, 0.0004585017575500396);
    assert_eq!(report.cache_lookups, 10_000);
    assert_eq!(report.cache_hits, 0);
    assert_eq!(report.cache_misses, 10_000);
    assert_eq!(report.cache_insertions, 9980);
    assert_eq!(report.cache_evictions, 9724);
    assert_eq!(report.cache_entries, 256);
    assert_eq!(report.cache_bytes, 341_136);

    // Per-worker pins: the GPU worker, then the CPU pool.
    assert_eq!(report.devices.len(), 2, "one GPU worker + the CPU pool");
    let (gpu, cpu) = (&report.devices[0], &report.devices[1]);
    assert_eq!(gpu.kind, "gpu");
    assert_eq!(cpu.kind, "cpu");
    assert_eq!(gpu.requests, 9378);
    assert_eq!(cpu.requests, 622);
    assert_eq!(gpu.busy_s.to_bits(), 0x3f6cdb045cb39240);
    assert_eq!(cpu.busy_s.to_bits(), 0x3f2ba65902962b7c);
    assert_eq!(gpu.sheds, 0, "a one-worker fleet never sheds");
    assert!(gpu.utilization > 0.0 && gpu.utilization <= 1.0);
}

const FLEET: &str = "h100_pcie:1,mi250x_gcd:2";
const N_REQUESTS: usize = 10_000;

fn fleet_arrivals() -> Vec<Arrival> {
    let cfg = AdversarialConfig::fleet_mix(2.0e5, 2.0e-3);
    adversarial_traffic(&mut StdRng::seed_from_u64(2024), N_REQUESTS, &cfg)
}

fn run_fleet(policy: ParallelPolicy) -> (Vec<SolveResponse>, ServeReport) {
    let mut server = Server::simulated_fleet(
        &FleetSpec::parse(FLEET).unwrap(),
        CpuSpec::xeon_gold_6140(),
        policy,
        ServerConfig {
            queue_capacity: 8192,
            policy: FlushPolicy::default()
                .with_target_batch(64)
                .with_min_gpu_batch(16),
        },
    )
    .unwrap();
    submit_all(&mut server, fleet_arrivals())
}

#[test]
fn fleet_soak_10k_adversarial_conserved_correct_and_deterministic() {
    let traffic = fleet_arrivals();
    let (responses, report) = run_fleet(ParallelPolicy::Serial);

    // Conservation: every request answered exactly once.
    assert_eq!(responses.len(), N_REQUESTS);
    for (k, r) in responses.iter().enumerate() {
        assert_eq!(r.id, k as u64, "no duplicated or missing ids");
    }
    assert!(report.is_conserved());
    assert_eq!(report.rejected, 0);

    // Three heterogeneous device workers plus the CPU pool, all named
    // from the registry, every one of them utilized.
    assert_eq!(report.devices.len(), 4);
    assert_eq!(report.devices[0].name, "h100_pcie:0");
    assert_eq!(report.devices[1].name, "mi250x_gcd:0");
    assert_eq!(report.devices[2].name, "mi250x_gcd:1");
    assert_eq!(report.devices[3].name, "cpu");
    for d in &report.devices[..3] {
        assert_eq!(d.kind, "gpu");
        assert!(d.requests > 0, "device {} never used", d.name);
        assert!(d.busy_s > 0.0);
        assert!(d.utilization > 0.0 && d.utilization <= 1.0);
    }
    // Every request a backend answered is attributed to exactly one
    // worker (timed-out requests never reach one).
    assert_eq!(
        report.devices.iter().map(|d| d.requests).sum::<u64>(),
        report.completed - report.timed_out
    );
    assert!(report.p99_latency_s > 0.0, "fleet-wide p99 is surfaced");

    // Poison storms flagged singular per lane, never fatal to batchmates.
    assert!(report.singular > 0, "storms must actually poison");
    assert_eq!(report.failed, 0);

    // Residual bounds on a sample (f64 tight, f32 at single precision).
    let mut checked = 0usize;
    for r in responses.iter().step_by(131) {
        if r.status != SolveStatus::Solved || r.shape.n > 256 {
            continue;
        }
        let a = &traffic[r.id as usize];
        let l = r.shape.layout().unwrap();
        let m = gbatch_core::BandMatrixRef {
            layout: l,
            data: &a.ab,
        };
        let tol = match r.shape.precision {
            Precision::F64 => 1e-8,
            Precision::F32 => 2e-3,
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
                    (ax - bi).abs() < tol,
                    "request {} ({:?}) row {i}: residual {:e}",
                    r.id,
                    r.shape.precision,
                    (ax - bi).abs()
                );
            }
        }
        checked += 1;
    }
    assert!(checked > 20, "residual sample too small: {checked}");

    // Bitwise determinism across host worker counts: responses AND the
    // full report (per-device stats included) replay exactly.
    let base_digest = response_digest(&responses);
    for workers in [2usize, 8] {
        let (alt, alt_report) = run_fleet(ParallelPolicy::threads(workers));
        assert_eq!(
            response_digest(&alt),
            base_digest,
            "{workers}-worker fleet responses differ"
        );
        assert_eq!(alt_report, report, "{workers}-worker fleet report differs");
    }
}
