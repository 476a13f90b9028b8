//! Closed-loop library workloads: one caller holds every system of a
//! repetition from the start and issues one `gbsv_batch` call per batch
//! through `kernels::dispatch` (`Auto` policy), back to back, waiting for
//! each. The calls take the cases in turn (the first call of every case,
//! then the second, ...), so a sequence of lone systems mixes their
//! classes.

use std::collections::BTreeMap;
use std::time::Instant;

use gbatch_core::{
    BandBatch, FingerprintHasher, InfoArray, PivotBatch, Precision, RhsBatch, Scalar,
};
use gbatch_cpu::model::{gbtrf_bytes, gbtrf_flops, gbtrs_bytes, gbtrs_flops};
use gbatch_cpu::CpuSpec;
use gbatch_gpu_sim::{registry, DeviceSpec, ParallelPolicy};
use gbatch_kernels::dispatch::{gbsv_batch, FactorAlgo, GbsvOptions};

use crate::inputs::{Call, Case, LONE_CASES, PAPER_CASES, ROUNDS};
use crate::measure::{repeat, Measured, Traced};
use crate::oracle::lane_ok;
use crate::stats::{put, Metrics};
use crate::trace::Recorder;

/// The device every library call is modeled on.
pub fn device() -> DeviceSpec {
    registry::device(registry::H100_PCIE).expect("h100_pcie is in the catalog")
}

/// One call's outcome.
#[derive(Debug, Clone, PartialEq)]
struct CallOut {
    /// Modeled seconds (`0` when the launch was refused).
    model_s: f64,
    /// Modeled seconds from the start of the repetition to the end of
    /// this call: the latency of every system the call answers.
    done_s: f64,
    launches: usize,
    host_s: f64,
    /// Per-system verdicts (empty when unchecked).
    ok: Vec<bool>,
}

/// One repetition over every case.
struct Rep {
    setup_s: f64,
    host_s: f64,
    /// In the order the calls were issued, [`order`].
    calls: Vec<CallOut>,
    answers: (u64, u64),
}

impl Rep {
    /// Whether `other` reproduced this repetition's answers and modeled
    /// values exactly.
    fn reproduced_by(&self, other: &Rep) -> bool {
        self.answers == other.answers
            && self.calls.len() == other.calls.len()
            && self.calls.iter().zip(&other.calls).all(|(a, b)| {
                a.model_s.to_bits() == b.model_s.to_bits() && a.launches == b.launches
            })
    }

    fn failed(&self) -> usize {
        self.calls
            .iter()
            .flat_map(|c| &c.ok)
            .filter(|&&ok| !ok)
            .count()
    }
}

/// The order the caller issues its calls, as (case, call) indices: the
/// cases take turns.
fn order(cases: &[Case]) -> Vec<(usize, usize)> {
    let turns = cases.iter().map(|c| c.calls.len()).max().unwrap_or(0);
    (0..turns)
        .flat_map(|t| {
            (0..cases.len())
                .filter(move |&i| t < cases[i].calls.len())
                .map(move |i| (i, t))
        })
        .collect()
}

/// The call's inputs in the precision it runs at, in fresh containers
/// (the call factors and solves in place).
fn containers<S: Scalar>(call: &Call) -> (BandBatch<S>, RhsBatch<S>, PivotBatch, InfoArray) {
    let l = call.a.layout();
    let batch = call.a.batch();
    let mut a = BandBatch::<S>::zeros_with_layout(l, batch).expect("generated batch is valid");
    for (d, &s) in a.data_mut().iter_mut().zip(call.a.data()) {
        *d = S::from_f64(s);
    }
    let mut b = RhsBatch::<S>::zeros(batch, l.n, call.b.nrhs()).expect("generated rhs is valid");
    for (d, &s) in b.data_mut().iter_mut().zip(call.b.data()) {
        *d = S::from_f64(s);
    }
    (
        a,
        b,
        PivotBatch::new(batch, l.n, l.n),
        InfoArray::new(batch),
    )
}

/// Set up and run one call; with `check`, judge every answer. Returns
/// set-up seconds, the outcome, and the answers widened to `f64` with
/// their `info` codes.
fn solve<S: Scalar>(
    dev: &DeviceSpec,
    opts: &GbsvOptions,
    name: &'static str,
    call: &Call,
    check: bool,
    rec: Option<&Recorder>,
) -> (f64, CallOut, Vec<f64>, Vec<i32>) {
    let t = Instant::now();
    let (mut a, mut b, mut piv, mut info) = containers::<S>(call);
    let setup_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut run = || gbsv_batch::<S>(dev, &mut a, &mut piv, &mut b, &mut info, opts);
    let report = match rec {
        None => run(),
        Some(rec) => rec.span("kernels", name, Vec::new(), run, |r| {
            r.as_ref().map_or(0.0, |r| r.time.secs())
        }),
    };
    let host_s = t.elapsed().as_secs_f64();
    let (model_s, launches) = report
        .as_ref()
        .map_or((0.0, 0), |r| (r.time.secs(), r.launches));
    let mut info = info.as_slice().to_vec();
    if report.is_err() {
        info.fill(-1);
    }
    let x: Vec<f64> = b.data().iter().map(|v| v.to_f64()).collect();
    let ok = if check {
        let stride = call.b.block_stride();
        (0..call.a.batch())
            .map(|k| {
                let xk = &x[k * stride..(k + 1) * stride];
                lane_ok::<S>(
                    call.a.matrix(k),
                    call.b.block(k),
                    xk,
                    call.b.nrhs(),
                    info[k],
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let out = CallOut {
        model_s,
        done_s: 0.0,
        launches,
        host_s,
        ok,
    };
    (setup_s, out, x, info)
}

fn run_rep(cases: &[Case], parallel: ParallelPolicy, check: bool, rec: Option<&Recorder>) -> Rep {
    let t = Instant::now();
    let dev = device();
    let opts = GbsvOptions {
        parallel: Some(parallel),
        ..Default::default()
    };
    let mut setup_s = t.elapsed().as_secs_f64();
    let mut host_s = 0.0;
    let mut clock_s = 0.0;
    let mut calls = Vec::new();
    let mut h = FingerprintHasher::new();
    for (c, k) in order(cases) {
        let (case, call) = (&cases[c], &cases[c].calls[k]);
        let (s, mut out, x, info) = match case.precision {
            Precision::F64 => solve::<f64>(&dev, &opts, case.name, call, check, rec),
            Precision::F32 => solve::<f32>(&dev, &opts, case.name, call, check, rec),
        };
        setup_s += s;
        host_s += out.host_s;
        clock_s += out.model_s;
        out.done_s = clock_s;
        h.write_f64s(&x);
        for &i in &info {
            h.write_u64(i as u64);
        }
        calls.push(out);
    }
    Rep {
        setup_s,
        host_s,
        calls,
        answers: h.finish().to_words(),
    }
}

/// Run the library workload: untraced repetitions over the rounds' input
/// sets (`inputs(round)`) for `seconds`, then, when asked, one traced
/// repetition of round 0.
pub fn measure(
    inputs: impl Fn(usize) -> Vec<Case>,
    seconds: f64,
    parallel: ParallelPolicy,
    traced: bool,
) -> Measured {
    let systems = |cases: &[Case]| cases.iter().map(Case::systems).sum::<usize>();
    let mut m = Measured {
        reproducible: true,
        ..Default::default()
    };
    let mut firsts: Vec<Rep> = Vec::new();
    repeat(seconds, |i, round| {
        let cases = inputs(round);
        let n = systems(&cases);
        let rep = run_rep(&cases, parallel, i < ROUNDS, None);
        m.setup_s.push(rep.setup_s);
        m.host_rate.push(n as f64 / rep.host_s);
        m.attempted += n;
        if let Some(first) = firsts.get(round) {
            m.reproducible &= first.reproduced_by(&rep);
            m.failed += first.failed();
            return;
        }
        let model_s: f64 = rep.calls.iter().map(|c| c.model_s).sum();
        m.model_ms.push(model_s * 1e3);
        m.capacity.0 += n as f64;
        m.capacity.1 += model_s;
        m.latencies_ms.extend(rep.calls.iter().flat_map(|c| {
            c.ok.iter()
                .map(move |&ok| if ok { c.done_s * 1e3 } else { f64::INFINITY })
        }));
        m.failed += rep.failed();
        firsts.push(rep);
    });
    if traced {
        let cases = inputs(0);
        let rec = Recorder::default();
        let rep = run_rep(&cases, parallel, false, Some(&rec));
        m.reproducible &= firsts[0].reproduced_by(&rep);
        m.traced = Some(Traced {
            layers: layer_metrics(
                &case_stats(&cases, &rep, parallel),
                seq_solves_per_s(&cases),
            ),
            host_rate: systems(&cases) as f64 / rep.host_s,
            spans: rec.spans(),
        });
    }
    m
}

/// Per-case sums over one repetition.
#[derive(Debug, Default, Clone, Copy)]
pub struct CaseStats {
    model_s: f64,
    host_s: f64,
    launches: usize,
    /// Computed bytes moved: band and right-hand sides, from the CPU
    /// model's per-system byte counts.
    bytes: f64,
    /// The paper's CPU baseline for the same systems.
    cpu_s: f64,
    /// The same systems with the unsplit window factorization forced.
    unsplit_s: f64,
}

fn case_stats(
    cases: &[Case],
    rep: &Rep,
    parallel: ParallelPolicy,
) -> BTreeMap<&'static str, CaseStats> {
    let dev = device();
    let cpu = CpuSpec::xeon_gold_6140();
    let window = GbsvOptions {
        parallel: Some(parallel),
        algo: FactorAlgo::Window,
        ..Default::default()
    };
    let mut out: BTreeMap<&'static str, CaseStats> = BTreeMap::new();
    for ((c, k), o) in order(cases).into_iter().zip(&rep.calls) {
        let (case, call) = (&cases[c], &cases[c].calls[k]);
        let s = out.entry(case.name).or_default();
        let (l, nrhs, batch) = (call.a.layout(), call.b.nrhs(), call.a.batch());
        // The CPU model counts 8-byte elements.
        let width = case.precision.elem_bytes() as f64 / 8.0;
        let bytes = (gbtrf_bytes(&l) + gbtrs_bytes(&l, nrhs)) * width;
        s.model_s += o.model_s;
        s.host_s += o.host_s;
        s.launches += o.launches;
        s.bytes += bytes * batch as f64;
        s.cpu_s += cpu.batch_time(batch, gbtrf_flops(&l) + gbtrs_flops(&l, nrhs), bytes);
        if LONE_CASES.contains(&case.name) {
            s.unsplit_s += match case.precision {
                Precision::F64 => {
                    solve::<f64>(&dev, &window, case.name, call, false, None)
                        .1
                        .model_s
                }
                Precision::F32 => {
                    solve::<f32>(&dev, &window, case.name, call, false, None)
                        .1
                        .model_s
                }
            };
        }
    }
    out
}

/// A plain single-threaded `core::gbsv` loop over the same systems.
fn seq_solves_per_s(cases: &[Case]) -> f64 {
    fn run<S: Scalar>(call: &Call) -> f64 {
        let (mut a, mut b, mut piv, _) = containers::<S>(call);
        let (l, nrhs, ldb) = (a.layout(), b.nrhs(), b.ldb());
        let stride = a.matrix_stride();
        let t = Instant::now();
        for k in 0..a.batch() {
            let ab = &mut a.data_mut()[k * stride..(k + 1) * stride];
            std::hint::black_box(gbatch_core::gbsv::gbsv::<S>(
                &l,
                ab,
                piv.pivots_mut(k),
                b.block_mut(k),
                ldb,
                nrhs,
            ));
        }
        t.elapsed().as_secs_f64()
    }
    let mut secs = 0.0;
    let mut systems = 0;
    for case in cases {
        for call in &case.calls {
            secs += match case.precision {
                Precision::F64 => run::<f64>(call),
                Precision::F32 => run::<f32>(call),
            };
            systems += call.a.batch();
        }
    }
    systems as f64 / secs
}

/// The `kernels`, `gpu-sim`, `cpu` and `core` per-layer metrics; cases
/// this workload does not run read 0.
pub fn layer_metrics(stats: &BTreeMap<&'static str, CaseStats>, seq_rate: f64) -> Metrics {
    let dev = device();
    let mut m = Metrics::new();
    let mut add = |name: String, value: f64, unit| put(&mut m, name, value, unit, 1);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    for name in PAPER_CASES.iter().chain(&LONE_CASES) {
        let s = stats.get(name).copied().unwrap_or_default();
        let overhead = s.launches as f64 * dev.launch_overhead_s;
        add(format!("kernels.{name}.model_ms"), s.model_s * 1e3, "ms");
        add(format!("kernels.{name}.host_ms"), s.host_s * 1e3, "ms");
        add(
            format!("kernels.{name}.launches"),
            s.launches as f64,
            "count",
        );
        add(format!("kernels.{name}.bytes"), s.bytes, "B");
        add(
            format!("gpu-sim.{name}.overhead_share"),
            ratio(overhead, s.model_s),
            "ratio",
        );
        add(
            format!("gpu-sim.{name}.bw_frac"),
            ratio(s.bytes / dev.mem_bw, s.model_s),
            "ratio",
        );
        if PAPER_CASES.contains(name) {
            add(format!("cpu.{name}.model_ms"), s.cpu_s * 1e3, "ms");
        } else {
            add(
                format!("kernels.{name}.unsplit_model_ms"),
                s.unsplit_s * 1e3,
                "ms",
            );
        }
    }
    add("core.seq_solves_per_s".into(), seq_rate, "1/s");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;

    fn cases(w: Workload) -> Vec<Case> {
        w.generate(5, 0, 50).into_cases()
    }

    #[test]
    fn serial_and_two_threads_agree_bit_for_bit() {
        for w in [Workload::PaperBatch, Workload::LoneLarge] {
            let cases = cases(w);
            let a = run_rep(&cases, ParallelPolicy::Serial, true, None);
            let b = run_rep(&cases, ParallelPolicy::Threads(2), true, None);
            assert!(a.reproduced_by(&b), "{}", w.name());
            assert!(
                a.calls.iter().flat_map(|c| &c.ok).all(|&ok| ok),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn traced_repetition_matches_untraced_and_spans_cover_every_call() {
        let cases = cases(Workload::LoneLarge);
        let plain = run_rep(&cases, ParallelPolicy::Serial, false, None);
        let rec = Recorder::default();
        let traced = run_rep(&cases, ParallelPolicy::Serial, false, Some(&rec));
        assert!(plain.reproduced_by(&traced));
        let spans = rec.spans();
        assert_eq!(spans.len(), 18);
        let mut clock_s = 0.0;
        for (i, (s, c)) in spans.iter().zip(&traced.calls).enumerate() {
            // The classes take turns, and each call ends its systems'
            // latency on the caller's modeled clock.
            assert_eq!(s.op, LONE_CASES[i % 3]);
            assert_eq!(s.model_s.to_bits(), c.model_s.to_bits());
            assert!(s.host_s() <= c.host_s + 1e-3);
            clock_s += c.model_s;
            assert_eq!(c.done_s, clock_s);
        }
    }

    #[test]
    fn idle_layers_read_zero() {
        let m = layer_metrics(&BTreeMap::new(), 0.0);
        assert!(m.values().all(|v| v.value == 0.0));
        assert!(m.contains_key("gpu-sim.n512_10_7_r10.bw_frac"));
    }
}
