//! Open-loop serve workloads: the seed fixes every arrival time, and each
//! `submit` advances the server's virtual clock to its request's due
//! time, so the generator is never late. Latencies are virtual-clock
//! times; host times are wall-clock seconds inside `submit` and `drain`.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use gbatch_core::FingerprintHasher;
use gbatch_cpu::CpuSpec;
use gbatch_gpu_sim::multi::DeviceGroup;
use gbatch_gpu_sim::ParallelPolicy;
use gbatch_serve::{
    CpuBackend, FleetSpec, GpuBackend, ServeReport, Server, ServerConfig, SolveBackend,
    SolveRequest, SolveResponse, SolveStatus,
};

use crate::inputs::Trace;
use crate::measure::{repeat, Measured, Traced};
use crate::oracle::check_serve;
use crate::stats::{put, quantile, sorted, Metrics};
use crate::trace::{self_s, Recorder, Span, TracedBackend};

/// Arrival-rate multiple of the capacity replay.
pub const OVERLOAD: f64 = 16.0;

/// Every device a serve workload's fleet can hold, in report-name form.
pub const DEVICES: [&str; 4] = ["h100_pcie-0", "mi250x_gcd-0", "mi250x_gcd-1", "cpu"];

/// One pass of a trace through a fresh server.
pub struct Pass {
    pub setup_s: f64,
    pub host_s: f64,
    pub refused: Vec<u64>,
    pub responses: Vec<SolveResponse>,
    pub report: ServeReport,
}

impl Pass {
    /// Digest of every answer, in completion order.
    fn answers(&self) -> (u64, u64) {
        let mut h = FingerprintHasher::new();
        for r in &self.responses {
            h.write_u64(r.id);
            h.write_u64(r.completed_s.to_bits());
            h.write_u64(match r.status {
                SolveStatus::Solved => 0,
                SolveStatus::Singular { column } => column as u64,
                SolveStatus::TimedOut => u64::MAX,
                SolveStatus::Failed => u64::MAX - 1,
            });
            h.write_f64s(&r.x);
        }
        h.finish().to_words()
    }
}

fn config(trace: &Trace) -> ServerConfig {
    // Capacity never binds, so a refusal is a real failure.
    ServerConfig {
        queue_capacity: trace.requests.len().max(1),
        policy: trace.policy,
    }
}

/// The fleet `Server::simulated_fleet` builds, with every backend passed
/// through `wrap` first.
pub fn wrapped_fleet(
    trace: &Trace,
    parallel: ParallelPolicy,
    wrap: impl Fn(Box<dyn SolveBackend>) -> Box<dyn SolveBackend>,
) -> Server {
    let devices = FleetSpec::parse(trace.fleet)
        .and_then(|f| f.devices())
        .expect("workload fleets name catalog devices");
    let gpus = devices
        .into_iter()
        .map(|d| {
            wrap(Box::new(GpuBackend::new(
                DeviceGroup::new(vec![d]),
                parallel,
            )))
        })
        .collect();
    Server::fleet(
        config(trace),
        gpus,
        wrap(Box::new(CpuBackend::new(CpuSpec::xeon_gold_6140()))),
    )
}

/// The fleet exactly as users get it.
pub fn simulated(trace: &Trace, parallel: ParallelPolicy) -> Server {
    Server::simulated_fleet(
        &FleetSpec::parse(trace.fleet).expect("workload fleets name catalog devices"),
        CpuSpec::xeon_gold_6140(),
        parallel,
        config(trace),
    )
    .expect("workload fleets resolve")
}

/// Build a server with `make`, submit the whole trace (arrivals
/// compressed by `speedup`) and drain. With a recorder, every `submit`
/// and `drain` is a span.
pub fn pass(
    trace: &Trace,
    speedup: f64,
    rec: Option<&Recorder>,
    make: impl FnOnce() -> Server,
) -> Pass {
    let t = Instant::now();
    let mut server = make();
    let reqs: Vec<SolveRequest> = trace.requests.iter().map(|r| r.to_solve(speedup)).collect();
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut refused = Vec::new();
    for req in reqs {
        let id = req.id;
        let admitted = match rec {
            None => server.submit(req).is_ok(),
            Some(rec) => rec.span(
                "serve.server",
                "submit",
                vec![id],
                || server.submit(req).is_ok(),
                |_| 0.0,
            ),
        };
        if !admitted {
            refused.push(id);
        }
    }
    match rec {
        None => server.drain(),
        Some(rec) => rec.span(
            "serve.server",
            "drain",
            Vec::new(),
            || server.drain(),
            |_| 0.0,
        ),
    }
    let responses = server.take_responses();
    let host_s = t.elapsed().as_secs_f64();
    Pass {
        setup_s,
        host_s,
        refused,
        responses,
        report: server.report(),
    }
}

/// Latency (ms) of every request of the trace, `+inf` where the oracle
/// failed it; aligned with `trace.requests`.
fn latencies_ms(trace: &Trace, p: &Pass, ok: &[bool]) -> Vec<f64> {
    let done: BTreeMap<u64, f64> = p
        .responses
        .iter()
        .map(|r| (r.id, r.latency_s() * 1e3))
        .collect();
    trace
        .requests
        .iter()
        .zip(ok)
        .map(|(r, &ok)| if ok { done[&r.id] } else { f64::INFINITY })
        .collect()
}

/// A round's first pass, which its later repetitions must reproduce.
struct First {
    report: ServeReport,
    answers: (u64, u64),
    /// Ids the oracle failed.
    failed_ids: BTreeSet<u64>,
    /// Failures the pass counts: failed ids, plus one if requests were
    /// not conserved.
    failed: usize,
}

/// Run the serve workload: untraced repetitions over the rounds' traces
/// (`inputs(round)`) for `seconds`, with each round's first pass checked
/// and replayed at [`OVERLOAD`] times its arrival rate for the capacity
/// ceiling; then, when asked, one traced repetition of round 0.
pub fn measure(
    inputs: impl Fn(usize) -> Trace,
    seconds: f64,
    parallel: ParallelPolicy,
    traced: bool,
) -> Measured {
    let mut m = Measured {
        reproducible: true,
        ..Default::default()
    };
    let mut firsts: Vec<First> = Vec::new();
    repeat(seconds, |_, round| {
        let trace = inputs(round);
        let n = trace.requests.len();
        let p = pass(&trace, 1.0, None, || simulated(&trace, parallel));
        m.setup_s.push(p.setup_s);
        m.host_rate.push(p.responses.len() as f64 / p.host_s);
        m.attempted += n;
        let answers = p.answers();
        if let Some(first) = firsts.get(round) {
            m.reproducible &= first.report == p.report && first.answers == answers;
            m.failed += first.failed;
            return;
        }
        let ok = check_serve(&trace, &p.refused, &p.responses);
        m.model_ms
            .push(p.report.devices.iter().map(|d| d.busy_s).sum::<f64>() * 1e3);
        m.latencies_ms.extend(latencies_ms(&trace, &p, &ok));
        let failed_ids: BTreeSet<u64> = trace
            .requests
            .iter()
            .zip(&ok)
            .filter(|(_, &ok)| !ok)
            .map(|(r, _)| r.id)
            .collect();
        let failed = failed_ids.len() + usize::from(!p.report.is_conserved());
        m.failed += failed;

        let over = pass(&trace, OVERLOAD, None, || simulated(&trace, parallel));
        let over_ok = check_serve(&trace, &over.refused, &over.responses);
        let answered = over_ok.iter().filter(|&&ok| ok).count();
        let makespan_s = over
            .responses
            .iter()
            .map(|r| r.completed_s)
            .fold(0.0, f64::max);
        m.capacity.0 += answered as f64;
        m.capacity.1 += makespan_s;
        m.attempted += n;
        m.failed += n - answered + usize::from(!over.report.is_conserved());
        firsts.push(First {
            report: p.report,
            answers,
            failed_ids,
            failed,
        });
    });
    if traced {
        let trace = inputs(0);
        let rec = Recorder::default();
        let p = pass(&trace, 1.0, Some(&rec), || {
            wrapped_fleet(&trace, parallel, |b| TracedBackend::wrap(b, &rec))
        });
        let first = &firsts[0];
        m.reproducible &= first.report == p.report && first.answers == p.answers();
        let spans = rec.spans();
        m.traced = Some(Traced {
            layers: layer_metrics(Some((&p, &first.failed_ids, &spans))),
            host_rate: p.responses.len() as f64 / p.host_s,
            spans,
        });
    }
    m
}

/// Modeled service seconds of the flush that answered each request.
///
/// A flush's first backend call carries every request it still serves;
/// its retries (warm demotion, bisection, singleton rescue) carry subsets.
/// So a backend span starts a new flush exactly when its ids are not a
/// subset of the current flush's.
pub fn flush_service_s(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut flushes: Vec<(BTreeSet<u64>, f64)> = Vec::new();
    for s in spans
        .iter()
        .filter(|s| s.layer == "serve.backend" && !s.ids.is_empty())
    {
        let ids: BTreeSet<u64> = s.ids.iter().copied().collect();
        match flushes.last_mut() {
            Some((cur, service)) if ids.is_subset(cur) => *service += s.model_s,
            _ => flushes.push((ids, s.model_s)),
        }
    }
    flushes
        .into_iter()
        .flat_map(|(ids, service)| ids.into_iter().map(move |id| (id, service)))
        .collect()
}

/// A sum that is `0.0`, not `-0.0`, when empty.
fn sum(v: impl Iterator<Item = f64>) -> f64 {
    v.fold(0.0, |a, b| a + b)
}

/// The `serve.*` per-layer metrics of a traced pass, given the ids the
/// oracle failed; a library workload (`None`) reads 0 throughout.
pub fn layer_metrics(traced: Option<(&Pass, &BTreeSet<u64>, &[Span])>) -> Metrics {
    let mut m = Metrics::new();
    let mut add = |name: &str, value: f64, unit| put(&mut m, name, value, unit, 1);
    let none = BTreeSet::new();
    let (report, responses, failed, spans) = match traced {
        Some((p, failed, spans)) => (Some(&p.report), &p.responses[..], failed, spans),
        None => (None, &[][..], &none, &[][..]),
    };
    let count = |f: fn(&ServeReport) -> u64| report.map_or(0.0, |r| f(r) as f64);
    let value = |f: fn(&ServeReport) -> f64| report.map_or(0.0, f);
    let reqs = count(|r| r.submitted).max(1.0);

    let own = self_s(spans);
    let server_s = sum(spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.layer == "serve.server")
        .map(|(_, o)| o));
    add("serve.server.self_us_per_req", server_s * 1e6 / reqs, "us");
    for op in ["gpu.cold", "gpu.warm", "cpu"] {
        let calls: Vec<&Span> = spans
            .iter()
            .filter(|s| s.layer == "serve.backend" && s.op == op)
            .collect();
        add(
            &format!("serve.backend.{op}.calls"),
            calls.len() as f64,
            "count",
        );
        let lanes = calls.iter().map(|s| s.ids.len()).sum::<usize>();
        add(&format!("serve.backend.{op}.lanes"), lanes as f64, "count");
        add(
            &format!("serve.backend.{op}.host_s"),
            sum(calls.iter().map(|s| s.host_s())),
            "s",
        );
        add(
            &format!("serve.backend.{op}.model_ms"),
            sum(calls.iter().map(|s| s.model_s)) * 1e3,
            "ms",
        );
    }
    let factorize = spans.iter().filter(|s| s.op == "gpu.factorize").count();
    add(
        "serve.backend.gpu.factorize.calls",
        factorize as f64,
        "count",
    );

    add("serve.flush.size", count(|r| r.flush_size), "count");
    add("serve.flush.deadline", count(|r| r.flush_deadline), "count");
    add("serve.flush.drain", count(|r| r.flush_drain), "count");
    add("serve.mean_batch", value(ServeReport::mean_batch), "count");
    add(
        "serve.max_queue_depth",
        count(|r| r.max_queue_depth as u64),
        "count",
    );
    add("serve.spills", count(|r| r.spills), "count");
    let service = flush_service_s(spans);
    let (mut wait_ms, mut service_ms) = (Vec::new(), Vec::new());
    for r in responses {
        let s = service.get(&r.id).copied().unwrap_or(0.0);
        service_ms.push(s * 1e3);
        wait_ms.push((r.latency_s() - s) * 1e3);
    }
    let (wait_ms, service_ms) = (sorted(&wait_ms), sorted(&service_ms));
    add("serve.wait_ms.p50", quantile(&wait_ms, 0.5), "ms");
    add("serve.wait_ms.p999", quantile(&wait_ms, 0.999), "ms");
    add("serve.service_ms.p50", quantile(&service_ms, 0.5), "ms");
    add("serve.service_ms.p999", quantile(&service_ms, 0.999), "ms");
    let late = responses
        .iter()
        .filter(|r| r.missed_deadline() && !failed.contains(&r.id));
    add(
        "serve.miss_frac",
        (late.count() + failed.len()) as f64 / reqs,
        "ratio",
    );

    add("serve.cache.lookups", count(|r| r.cache_lookups), "count");
    add(
        "serve.cache.hit_rate",
        value(ServeReport::hit_rate),
        "ratio",
    );
    add(
        "serve.cache.insertions",
        count(|r| r.cache_insertions),
        "count",
    );
    add(
        "serve.cache.evictions",
        count(|r| r.cache_evictions),
        "count",
    );
    add(
        "serve.cache.negative_hits",
        count(|r| r.cache_negative_hits),
        "count",
    );
    add("serve.cache.bytes", count(|r| r.cache_bytes as u64), "B");
    add("serve.warm_fallbacks", count(|r| r.warm_fallbacks), "count");

    add("serve.router.sheds", count(ServeReport::sheds), "count");
    add(
        "serve.router.utilization_spread",
        value(ServeReport::utilization_spread),
        "ratio",
    );
    let devices = report.map_or(&[][..], |r| &r.devices[..]);
    for d in devices {
        let name = d.name.replace(':', "-");
        assert!(
            DEVICES.contains(&name.as_str()),
            "device {name} has no metrics"
        );
    }
    for name in DEVICES {
        let d = devices.iter().find(|d| d.name.replace(':', "-") == name);
        add(
            &format!("serve.device.{name}.requests"),
            d.map_or(0.0, |d| d.requests as f64),
            "count",
        );
        add(
            &format!("serve.device.{name}.busy_ms"),
            d.map_or(0.0, |d| d.busy_s * 1e3),
            "ms",
        );
        add(
            &format!("serve.device.{name}.utilization"),
            d.map_or(0.0, |d| d.utilization),
            "ratio",
        );
    }
    add("serve.bisect_retries", count(|r| r.bisect_retries), "count");
    add(
        "serve.fallback_singletons",
        count(|r| r.fallback_singletons),
        "count",
    );
    m
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use gbatch_core::{RetainedFactor, ShapeKey};
    use gbatch_gpu_sim::DeviceSpec;
    use gbatch_serve::{BackendError, BackendKind, BatchSolution, RetainedLanes};

    use super::*;
    use crate::inputs::Workload;

    const SERVE: [Workload; 3] = [
        Workload::ServeMix,
        Workload::ServeTimestep,
        Workload::FleetAdversarial,
    ];

    fn trace(w: Workload) -> Trace {
        w.generate(9, 0, 20).into_trace()
    }

    fn same_answers(a: &Pass, b: &Pass) -> bool {
        a.report == b.report && a.answers() == b.answers() && a.refused == b.refused
    }

    #[test]
    fn tracing_changes_no_answer_and_spans_nest() {
        for w in SERVE {
            let t = trace(w);
            let plain = pass(&t, 1.0, None, || simulated(&t, ParallelPolicy::Serial));
            let rec = Recorder::default();
            let traced = pass(&t, 1.0, Some(&rec), || {
                wrapped_fleet(&t, ParallelPolicy::Serial, |b| TracedBackend::wrap(b, &rec))
            });
            assert!(same_answers(&plain, &traced), "{}", w.name());
            assert!(check_serve(&t, &plain.refused, &plain.responses)
                .iter()
                .all(|&ok| ok));

            // Virtual time: wait + service = latency, with both parts >= 0.
            let spans = rec.spans();
            let service = flush_service_s(&spans);
            for r in &traced.responses {
                let s = service[&r.id];
                assert!(
                    s > 0.0 && s <= r.latency_s() * (1.0 + 1e-12),
                    "{} id {}",
                    w.name(),
                    r.id
                );
            }

            // Host time: every backend span sits inside the server call that
            // caused it, so server self time plus backend time is the
            // traced call time.
            let own = self_s(&spans);
            let mut total = 0.0;
            for (i, s) in spans.iter().enumerate() {
                match s.layer {
                    "serve.server" => {
                        assert_eq!(s.parent, None);
                        assert!(own[i] >= 0.0);
                        total += s.host_s();
                    }
                    _ => {
                        let p = &spans[s
                            .parent
                            .expect("backend calls happen inside submit or drain")];
                        assert!(
                            p.layer == "serve.server"
                                && p.start_ns <= s.start_ns
                                && s.end_ns <= p.end_ns
                        );
                    }
                }
            }
            let server: f64 = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.layer == "serve.server")
                .map(|(_, o)| o)
                .sum();
            let backend: f64 = spans
                .iter()
                .filter(|s| s.layer == "serve.backend")
                .map(Span::host_s)
                .sum();
            assert!(
                (server + backend - total).abs() <= 1e-9 * total.max(1.0),
                "{}",
                w.name()
            );
            assert!(total <= traced.host_s);
        }
    }

    #[test]
    fn serial_and_two_threads_agree_bit_for_bit() {
        for w in SERVE {
            let t = trace(w);
            let a = pass(&t, 1.0, None, || simulated(&t, ParallelPolicy::Serial));
            let b = pass(&t, 1.0, None, || simulated(&t, ParallelPolicy::Threads(2)));
            assert!(same_answers(&a, &b), "{}", w.name());
            let over_a = pass(&t, OVERLOAD, None, || simulated(&t, ParallelPolicy::Serial));
            let over_b = pass(&t, OVERLOAD, None, || {
                simulated(&t, ParallelPolicy::Threads(2))
            });
            assert!(same_answers(&over_a, &over_b), "{}", w.name());
        }
    }

    /// A device backend that damages the first lane of every batch it
    /// answers.
    struct Tamper {
        inner: Box<dyn SolveBackend>,
        damage: fn(&mut BatchSolution, &[SolveRequest]),
    }

    impl Tamper {
        fn done(&self, mut s: BatchSolution, reqs: &[SolveRequest]) -> BatchSolution {
            (self.damage)(&mut s, reqs);
            s
        }
    }

    impl SolveBackend for Tamper {
        fn kind(&self) -> BackendKind {
            self.inner.kind()
        }
        fn device(&self) -> Option<&DeviceSpec> {
            self.inner.device()
        }
        fn solve(
            &self,
            shape: &ShapeKey,
            reqs: &[SolveRequest],
        ) -> Result<BatchSolution, BackendError> {
            self.inner.solve(shape, reqs).map(|s| self.done(s, reqs))
        }
        fn solve_retaining(
            &self,
            shape: &ShapeKey,
            reqs: &[SolveRequest],
        ) -> Result<(BatchSolution, RetainedLanes), BackendError> {
            self.inner
                .solve_retaining(shape, reqs)
                .map(|(s, lanes)| (self.done(s, reqs), lanes))
        }
        fn solve_with(
            &self,
            shape: &ShapeKey,
            reqs: &[SolveRequest],
            factors: &[Arc<RetainedFactor>],
        ) -> Result<BatchSolution, BackendError> {
            self.inner
                .solve_with(shape, reqs, factors)
                .map(|s| self.done(s, reqs))
        }
    }

    fn failures_with(damage: fn(&mut BatchSolution, &[SolveRequest])) -> usize {
        let t = trace(Workload::ServeMix);
        let p = pass(&t, 1.0, None, || {
            wrapped_fleet(&t, ParallelPolicy::Serial, |b| match b.kind() {
                BackendKind::Gpu => Box::new(Tamper { inner: b, damage }),
                BackendKind::Cpu => b,
            })
        });
        check_serve(&t, &p.refused, &p.responses)
            .iter()
            .filter(|&&ok| !ok)
            .count()
    }

    #[test]
    fn the_oracle_catches_a_wrong_answer_and_a_false_singular() {
        assert_eq!(failures_with(|_, _| {}), 0);
        let perturbed = failures_with(|s, _| s.x[0][0] += 1e-3 * (1.0 + s.x[0][0].abs()));
        let singular = failures_with(|s, reqs| {
            s.info[0] = 1;
            s.x[0] = reqs[0].rhs.clone();
        });
        assert!(perturbed > 0 && singular > 0, "{perturbed} {singular}");
    }
}
