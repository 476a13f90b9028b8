//! `benchmark`: the repository's end-to-end and per-layer benchmark.
//!
//! One command runs the workloads named in `BENCHMARK.json`, checks every
//! answer, and prints every metric by name with its unit and sample
//! count. For one workload, the last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`, holding the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. For
//! several, it is one object holding that object under each workload's
//! name.

mod inputs;
mod library;
mod measure;
mod oracle;
mod serving;
mod spec;
mod stats;
mod trace;

use std::cell::RefCell;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use gbatch_gpu_sim::ParallelPolicy;
use serde::{Content, Serialize};

use inputs::Workload;
use spec::{MetricDef, Spec};
use stats::{put, Metrics};

const USAGE: &str = "\
usage: benchmark list [--metric NAME]
       benchmark run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                     [--json PATH] [--trace-out DIR]

  list        print the workloads, and the metrics with units and bounds
  run         run workloads (default: all) and print every metric
  --seed      input seed (default 1); each workload adds its own offset
  --seconds   host seconds of untraced repetitions per workload, at least
              one per input round (default: BENCHMARK.json's run_seconds)
  --trace 1   add one traced repetition and report the per-layer metrics
  --json      also write every metric of every workload, with sample counts
  --trace-out write the traced repetition's spans as JSON lines";

/// Host scheduling of every simulated launch. Modeled results are
/// bitwise the same under every policy (the tests check `Threads(2)`);
/// on the two-core machine the bounds were set on, `Threads(2)` was both
/// noisier run to run and slower on the serve workloads, whose small
/// flushes re-spawn their worker threads on every launch.
const PARALLEL: ParallelPolicy = ParallelPolicy::Serial;

enum Failure {
    Usage(String),
    Run(String),
}

struct RunArgs {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

/// One workload's result.
struct Outcome {
    workload: Workload,
    reps: usize,
    correct: bool,
    attempted: usize,
    failed: usize,
    end_to_end: Metrics,
    per_layer: Option<Metrics>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => {
            eprintln!("benchmark: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Run(msg)) => {
            eprintln!("benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), Failure> {
    let spec = Spec::load();
    match args.first().map(String::as_str) {
        Some("list") => list(&spec, &args[1..]),
        Some("run") => run(&spec, parse_run(&spec, &args[1..])?),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(Failure::Usage(format!("unknown command {other:?}"))),
        None => Err(Failure::Usage("no command".into())),
    }
}

/// Pairs of `--flag value`; every flag takes exactly one value.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, Failure> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if !flag.starts_with("--") {
            return Err(Failure::Usage(format!("unexpected argument {flag:?}")));
        }
        let value = it
            .next()
            .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))?;
        out.push((flag.as_str(), value.as_str()));
    }
    Ok(out)
}

fn parse_run(spec: &Spec, args: &[String]) -> Result<RunArgs, Failure> {
    let mut run = RunArgs {
        workloads: Workload::ALL.to_vec(),
        seed: inputs::DEFAULT_SEED,
        seconds: spec.run_seconds,
        trace: false,
        json: None,
        trace_out: None,
    };
    let bad = |flag: &str, v: &str| Failure::Usage(format!("bad value {v:?} for {flag}"));
    for (flag, v) in flags(args)? {
        match flag {
            "--workload" if v == "all" => run.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                let w = Workload::parse(v)
                    .filter(|w| spec.workload(w.name()).is_some())
                    .ok_or_else(|| Failure::Usage(format!("unknown workload {v:?}")))?;
                run.workloads = vec![w];
            }
            "--seed" => run.seed = v.parse().map_err(|_| bad(flag, v))?,
            "--seconds" => {
                run.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad(flag, v))?;
            }
            "--trace" => {
                run.trace = match v {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(flag, v)),
                }
            }
            "--json" => run.json = Some(PathBuf::from(v)),
            "--trace-out" => run.trace_out = Some(PathBuf::from(v)),
            _ => return Err(Failure::Usage(format!("unknown flag {flag}"))),
        }
    }
    Ok(run)
}

fn list(spec: &Spec, args: &[String]) -> Result<(), Failure> {
    let row = |m: &MetricDef| {
        let bound = m
            .bound
            .map_or("-".to_string(), |b| format!("{:.1}%", b * 100.0));
        println!("  {:<44} {:<6} {:<7} {bound}", m.name, m.unit, m.better);
    };
    match flags(args)?.as_slice() {
        [] => {
            println!("workloads:");
            for w in &spec.workloads {
                println!("  {:<18} {}", w.name, w.why);
            }
            println!("end-to-end metrics (name, unit, better, bound):");
            spec.end_to_end.iter().for_each(row);
            println!("per-layer metrics (name, unit, better):");
            spec.per_layer.iter().for_each(row);
            Ok(())
        }
        [("--metric", name)] => {
            let m = spec
                .metric(name)
                .ok_or_else(|| Failure::Usage(format!("unknown metric {name:?}")))?;
            row(m);
            Ok(())
        }
        [(flag, _), ..] => Err(Failure::Usage(format!("unknown flag {flag} for list"))),
    }
}

fn run(spec: &Spec, args: RunArgs) -> Result<(), Failure> {
    let mut outcomes = Vec::new();
    for &w in &args.workloads {
        w.check_pinned().map_err(Failure::Run)?;
        let o = measure_workload(spec, w, 1, &args).map_err(Failure::Run)?;
        print_outcome(spec, &o, &args);
        outcomes.push(o);
    }
    let line = match outcomes.as_slice() {
        [o] => result_line(o),
        _ => Content::Map(
            outcomes
                .iter()
                .map(|o| (o.workload.name().to_string(), result_line(o)))
                .collect(),
        ),
    };
    println!(
        "{}",
        serde_json::to_string(&Json(line)).expect("finite values serialize")
    );
    if let Some(path) = &args.json {
        let doc = Json(Content::Seq(outcomes.iter().map(outcome_json).collect()));
        let text = serde_json::to_string_pretty(&doc).map_err(|e| Failure::Run(e.to_string()))?;
        std::fs::write(path, text + "\n")
            .map_err(|e| Failure::Run(format!("{}: {e}", path.display())))?;
    }
    Ok(())
}

/// Measure workload `w` on the inputs of `args.seed`, shrunk by `div`.
fn measure_workload(
    spec: &Spec,
    w: Workload,
    div: usize,
    args: &RunArgs,
) -> Result<Outcome, String> {
    // Host seconds and operations of every input set generated.
    let generated = RefCell::new(Vec::new());
    let inputs = |round| {
        let t = Instant::now();
        let inputs = w.generate(args.seed, round, div);
        let gen_s = t.elapsed().as_secs_f64();
        generated.borrow_mut().push((gen_s, inputs.ops()));
        inputs
    };
    reset_peak_rss();
    let m = if w.is_serve() {
        serving::measure(
            |r| inputs(r).into_trace(),
            args.seconds,
            PARALLEL,
            args.trace,
        )
    } else {
        library::measure(
            |r| inputs(r).into_cases(),
            args.seconds,
            PARALLEL,
            args.trace,
        )
    };
    let end_to_end = m.end_to_end(peak_rss_mb()?);
    check_names("end-to-end", &spec.end_to_end, &end_to_end)?;
    let per_layer = match &m.traced {
        None => None,
        Some(t) => {
            let mut layers = t.layers.clone();
            // The layers this workload never calls read 0.
            let idle = if w.is_serve() {
                library::layer_metrics(&Default::default(), 0.0)
            } else {
                serving::layer_metrics(None)
            };
            layers.extend(idle);
            let generated = generated.borrow();
            let gen_s: Vec<f64> = generated.iter().map(|g| g.0).collect();
            put(
                &mut layers,
                "workloads.gen_s",
                stats::median(&gen_s),
                "s",
                gen_s.len(),
            );
            put(
                &mut layers,
                "workloads.ops",
                generated[0].1 as f64,
                "count",
                1,
            );
            let untraced = end_to_end["host_solves_per_s"].value;
            put(
                &mut layers,
                "trace.overhead_frac",
                1.0 - t.host_rate / untraced,
                "ratio",
                1,
            );
            check_names("per-layer", &spec.per_layer, &layers)?;
            if let Some(dir) = &args.trace_out {
                trace::write_jsonl(dir, w.name(), &t.spans)?;
            }
            Some(layers)
        }
    };
    Ok(Outcome {
        workload: w,
        reps: m.reps(),
        correct: m.failed == 0 && m.reproducible,
        attempted: m.attempted,
        failed: m.failed,
        end_to_end,
        per_layer,
    })
}

/// The computed metrics must be exactly the contract's, unit for unit.
fn check_names(kind: &str, want: &[MetricDef], got: &Metrics) -> Result<(), String> {
    for d in want {
        match got.get(&d.name) {
            None => return Err(format!("{kind} metric {} was not computed", d.name)),
            Some(m) if m.unit != d.unit => {
                return Err(format!(
                    "{kind} metric {} is in {}, the contract says {}",
                    d.name, m.unit, d.unit
                ))
            }
            Some(_) => {}
        }
    }
    if let Some(extra) = got.keys().find(|k| !want.iter().any(|d| &d.name == *k)) {
        return Err(format!("{kind} metric {extra} is not in BENCHMARK.json"));
    }
    Ok(())
}

/// Restart the peak-RSS high-water mark, so `peak_rss_mb` covers the
/// measured work and not input generation. Where the kernel refuses, the
/// mark covers the whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn print_outcome(spec: &Spec, o: &Outcome, args: &RunArgs) {
    println!(
        "{}: seed {} reps {} attempted {} failed {} correct {}",
        o.workload.name(),
        args.seed,
        o.reps,
        o.attempted,
        o.failed,
        o.correct
    );
    let table = |defs: &[MetricDef], m: &Metrics| {
        for d in defs {
            let v = &m[&d.name];
            let bound = d
                .bound
                .map_or(String::new(), |b| format!("  bound {:.1}%", b * 100.0));
            println!(
                "  {:<44} {:>16.6} {:<6} n={}{bound}",
                d.name, v.value, v.unit, v.samples
            );
        }
    };
    table(&spec.end_to_end, &o.end_to_end);
    if let Some(layers) = &o.per_layer {
        table(&spec.per_layer, layers);
    }
}

/// One workload's result: the per-layer metrics of a traced run, else the
/// end-to-end ones.
fn result_line(o: &Outcome) -> Content {
    let metrics = o.per_layer.as_ref().unwrap_or(&o.end_to_end);
    Content::Map(vec![
        ("correct".into(), Content::Bool(o.correct)),
        ("attempted".into(), Content::UInt(o.attempted as u64)),
        ("failed".into(), Content::UInt(o.failed as u64)),
        ("metrics".into(), metrics_json(metrics, false)),
    ])
}

/// A JSON value built by hand.
struct Json(Content);

impl Serialize for Json {
    fn serialize_content(&self) -> Content {
        self.0.clone()
    }
}

fn metrics_json(m: &Metrics, samples: bool) -> Content {
    Content::Map(
        m.iter()
            .map(|(name, v)| {
                // JSON has no infinity: a latency made infinite by a
                // failure prints as null (and `correct` is false).
                let value = if v.value.is_finite() {
                    Content::Float(v.value)
                } else {
                    Content::Null
                };
                let mut fields = vec![
                    ("value".into(), value),
                    ("unit".into(), Content::Str(v.unit.into())),
                ];
                if samples {
                    fields.push(("samples".into(), Content::UInt(v.samples as u64)));
                }
                (name.clone(), Content::Map(fields))
            })
            .collect(),
    )
}

fn outcome_json(o: &Outcome) -> Content {
    Content::Map(vec![
        ("workload".into(), Content::Str(o.workload.name().into())),
        ("reps".into(), Content::UInt(o.reps as u64)),
        ("correct".into(), Content::Bool(o.correct)),
        ("attempted".into(), Content::UInt(o.attempted as u64)),
        ("failed".into(), Content::UInt(o.failed as u64)),
        ("end_to_end".into(), metrics_json(&o.end_to_end, true)),
        (
            "per_layer".into(),
            o.per_layer
                .as_ref()
                .map_or(Content::Null, |m| metrics_json(m, true)),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn every_workload_reports_exactly_the_contracts_metrics() {
        let spec = Spec::load();
        let run = RunArgs {
            workloads: Vec::new(),
            seed: 3,
            seconds: 0.0,
            trace: true,
            json: None,
            trace_out: None,
        };
        for w in Workload::ALL {
            assert!(
                spec.workload(w.name()).is_some(),
                "{} is in BENCHMARK.json",
                w.name()
            );
            let o = measure_workload(&spec, w, 50, &run).unwrap_or_else(|e| panic!("{e}"));
            assert!(o.correct && o.failed == 0, "{}", w.name());
            assert_eq!(o.reps, inputs::ROUNDS, "{}", w.name());
            for (name, m) in &o.end_to_end {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{}: {name} = {}",
                    w.name(),
                    m.value
                );
            }
        }
        assert_eq!(spec.workloads.len(), Workload::ALL.len());
    }

    #[test]
    fn the_cli_refuses_what_it_does_not_know() {
        let spec = Spec::load();
        for bad in [
            &["run", "--workload", "nope"][..],
            &["run", "--frobnicate", "1"],
            &["run", "--trace", "2"],
            &["run", "--seed"],
            &["list", "--metric", "nope"],
            &["frobnicate"],
            &[],
        ] {
            assert!(
                matches!(dispatch(&args(bad)), Err(Failure::Usage(_))),
                "{bad:?}"
            );
        }
        let ok = parse_run(
            &spec,
            &args(&["--workload", "serve_mix", "--seed", "4", "--trace", "1"]),
        );
        let ok = ok.unwrap_or_else(|_| panic!("valid flags"));
        assert_eq!(
            (ok.workloads, ok.seed, ok.trace, ok.seconds),
            (vec![Workload::ServeMix], 4, true, spec.run_seconds)
        );
        assert!(list(&spec, &args(&["--metric", "p999_ms"])).is_ok());
    }
}
