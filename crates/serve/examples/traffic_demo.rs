//! Drive the dynamic-batching server with open-loop Poisson traffic and
//! print the serving report.
//!
//! ```text
//! cargo run --release -p gbatch-serve --example traffic_demo
//! ```

use gbatch_cpu::CpuSpec;
use gbatch_gpu_sim::multi::DeviceGroup;
use gbatch_gpu_sim::ParallelPolicy;
use gbatch_serve::{FlushPolicy, Server, ServerConfig, SolveRequest};
use gbatch_workloads::{poisson_traffic, TrafficConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 20k requests at 200 kHz over the Section-2 shape mix, 2 ms budgets,
    // one exactly singular request per 1000 to exercise lane isolation.
    let mut cfg = TrafficConfig::section2_mix(2.0e5, 2.0e-3);
    cfg.poison_every = Some(1000);
    let arrivals = poisson_traffic(&mut StdRng::seed_from_u64(42), 20_000, &cfg);

    let mut server = Server::simulated(
        DeviceGroup::mi250x_full(),
        CpuSpec::xeon_gold_6140(),
        ParallelPolicy::threads(8),
        ServerConfig {
            queue_capacity: 8192,
            policy: FlushPolicy::default()
                .with_target_batch(64)
                .with_min_gpu_batch(16),
        },
    );

    let mut rejected = 0usize;
    for a in arrivals {
        let req = SolveRequest {
            id: a.id,
            shape: a.shape,
            ab: a.ab,
            rhs: a.rhs,
            submitted_s: a.at_s,
            deadline_s: a.deadline_s,
        };
        if server.submit(req).is_err() {
            rejected += 1;
        }
    }
    server.drain();
    let responses = server.take_responses();
    let report = server.report();

    println!("responses: {}", responses.len());
    println!("rejected at admission: {rejected}");
    println!(
        "flushes: {} (size {}, deadline {}, drain {}), mean batch {:.1}",
        report.flushes(),
        report.flush_size,
        report.flush_deadline,
        report.flush_drain,
        report.mean_batch()
    );
    println!(
        "latency: p50 {:.1} us, p99 {:.1} us, max {:.1} us",
        report.p50_latency_s * 1e6,
        report.p99_latency_s * 1e6,
        report.max_latency_s * 1e6
    );
    for d in &report.devices {
        println!(
            "{} served {} ({:.1} ms busy)",
            d.name,
            d.requests,
            d.busy_s * 1e3
        );
    }
    println!("spills {}", report.spills);
    println!();
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("report serializes")
    );
    assert!(report.is_conserved(), "every admitted request was answered");
}
