//! Serving-layer throughput bench: dynamic batching versus per-request
//! stream launches.
//!
//! Criterion measures the host wall-clock of the full serve loop (admit →
//! flush → solve → respond) over a fixed Poisson trace. The modeled
//! outcome is deterministic, so the summary at the end sweeps the flush
//! policy's `target_batch` across a grid, records served busy time and
//! p99 latency next to the per-request `simulate_streams` pricing of the
//! same trace into `results/serve_throughput.json`, and asserts the ISSUE
//! acceptance criterion: the served schedule clearly beats launching every
//! request as its own kernel over 16 streams (the paper's Figure 1
//! economics, lifted to the service level).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gbatch_bench::report::{Figure, Series};
use gbatch_core::ShapeKey;
use gbatch_cpu::model::{gbtrf_bytes, gbtrf_flops, gbtrs_bytes, gbtrs_flops};
use gbatch_cpu::CpuSpec;
use gbatch_gpu_sim::multi::DeviceGroup;
use gbatch_gpu_sim::stream::simulate_streams;
use gbatch_gpu_sim::{DeviceSpec, KernelCounters, LaunchConfig, ParallelPolicy};
use gbatch_serve::{FlushPolicy, ServeReport, Server, ServerConfig, SolveRequest};
use gbatch_workloads::{poisson_traffic, Arrival, ShapeMix, TrafficConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

const N_REQUESTS: usize = 4000;
const TARGET_BATCHES: [usize; 4] = [8, 32, 64, 128];

/// A four-bucket mix of modest shapes: large enough that batching matters,
/// small enough that the bench stays quick in debug builds (`cargo test`
/// compiles and smoke-runs criterion benches once).
fn traffic() -> TrafficConfig {
    TrafficConfig {
        rate_hz: 2.0e5,
        deadline_s: 2.0e-3,
        mix: vec![
            ShapeMix {
                shape: ShapeKey::gbsv(48, 3, 3, 1),
                weight: 4.0,
            },
            ShapeMix {
                shape: ShapeKey::gbsv(64, 2, 3, 1),
                weight: 2.0,
            },
            ShapeMix {
                shape: ShapeKey::gbsv(32, 1, 1, 1),
                weight: 2.0,
            },
            ShapeMix {
                shape: ShapeKey::gbsv(40, 2, 2, 2),
                weight: 1.0,
            },
        ],
        poison_every: None,
    }
}

fn arrivals() -> Vec<Arrival> {
    poisson_traffic(&mut StdRng::seed_from_u64(2024), N_REQUESTS, &traffic())
}

/// Run the full serve loop over the trace and return the metrics report.
fn serve(trace: &[Arrival], target_batch: usize) -> ServeReport {
    let mut server = Server::simulated(
        DeviceGroup::mi250x_full(),
        CpuSpec::xeon_gold_6140(),
        ParallelPolicy::Serial,
        ServerConfig {
            queue_capacity: 8192,
            policy: FlushPolicy::default()
                .with_target_batch(target_batch)
                .with_min_gpu_batch(8),
        },
    );
    for a in trace {
        server
            .submit(SolveRequest {
                id: a.id,
                shape: a.shape,
                ab: a.ab.clone(),
                rhs: a.rhs.clone(),
                submitted_s: a.at_s,
                deadline_s: a.deadline_s,
            })
            .expect("bench traffic fits the admission queue");
    }
    server.drain();
    let responses = server.take_responses();
    assert_eq!(responses.len(), trace.len(), "conservation");
    server.report()
}

/// Price the same trace as per-request kernel launches over 16 streams on
/// a single GCD, per shape bucket (the naive no-batching alternative).
fn streams_pricing(trace: &[Arrival]) -> f64 {
    let dev = DeviceSpec::mi250x_gcd();
    let mut by_shape: BTreeMap<ShapeKey, usize> = BTreeMap::new();
    for a in trace {
        *by_shape.entry(a.shape).or_insert(0) += 1;
    }
    let mut total = 0.0;
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
        total += simulate_streams(&dev, &cfg, count, 16, &per_block).secs();
    }
    total
}

fn bench_serve(c: &mut Criterion) {
    let trace = arrivals();
    let mut group = c.benchmark_group("serve_throughput");
    for &tb in &TARGET_BATCHES {
        group.bench_with_input(BenchmarkId::new("serve_loop", tb), &tb, |bench, &tb| {
            bench.iter(|| serve(&trace, tb));
        });
    }
    group.finish();

    summarize(&trace);
}

/// Deterministic modeled summary: record the figure JSON and enforce the
/// acceptance criterion.
fn summarize(trace: &[Arrival]) {
    let streams_s = streams_pricing(trace);
    let mut fig = Figure::with_unit(
        format!(
            "Dynamic-batching serve vs per-request streams, MI250x full — \
             {N_REQUESTS} Poisson requests, 4 shape buckets"
        ),
        "target_batch",
        "ms",
    );
    let mut served = Series::new("served busy time (gpu + cpu)");
    let mut baseline = Series::new("per-request simulate_streams (16 streams)");
    let mut p99 = Series::new("served p99 latency");
    let mut best = f64::INFINITY;
    for &tb in &TARGET_BATCHES {
        let report = serve(trace, tb);
        assert!(report.is_conserved());
        let busy_s = report.busy_s();
        best = best.min(busy_s);
        served.push(tb, busy_s * 1e3);
        baseline.push(tb, streams_s * 1e3);
        p99.push(tb, report.p99_latency_s * 1e3);
        eprintln!(
            "[serve_throughput] target_batch {tb}: {} flushes (mean batch \
             {:.1}), busy {:.3} ms vs streams {:.3} ms, p99 {:.0} us",
            report.flushes(),
            report.mean_batch(),
            busy_s * 1e3,
            streams_s * 1e3,
            report.p99_latency_s * 1e6
        );
    }
    fig.series.push(served);
    fig.series.push(baseline);
    fig.series.push(p99);

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/serve_throughput.json"
    );
    let json = serde_json::to_string_pretty(&fig).unwrap();
    std::fs::write(path, json + "\n").unwrap();
    eprintln!("[serve_throughput] wrote {path}");

    assert!(
        best < streams_s / 2.0,
        "dynamic batching must clearly beat per-request streams: best served \
         busy {best:.6} s vs streams {streams_s:.6} s"
    );
    eprintln!(
        "[serve_throughput] acceptance: best served schedule is {:.1}x \
         cheaper than per-request streams",
        streams_s / best
    );
}

/// Bounded-time criterion config: the serve loop is deterministic, so
/// small samples suffice.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group!(name = benches; config = quick(); targets = bench_serve);
criterion_main!(benches);
