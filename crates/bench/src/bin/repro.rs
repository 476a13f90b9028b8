//! `repro` — regenerate every table and figure of the paper.
//!
//! Usage:
//! ```text
//! repro [fig1|fig3|fig5|table1|fig7|fig8|table2|fig9|table3|tuning|bandwidth|extensions|multigcd|raw_speed|all]
//! ```
//!
//! An unknown target exits with status 2 and the list above.
//!
//! `raw_speed` regenerates the checked-in perf trajectory
//! `BENCH_raw_speed.json` at the repository root (see
//! [`gbatch_bench::raw_speed`]); the release perf-gate test replays it.
//!
//! Times printed for the GPUs come from the simulator's analytic model;
//! CPU times from the calibrated Skylake model. Every measurement executes
//! the numerics for real and asserts residual correctness first.

use gbatch_bench::experiments as exp;
use gbatch_bench::Platforms;
use std::io::Write;

fn print_figures(out: &mut impl Write, figs: &[gbatch_bench::report::Figure]) {
    for f in figs {
        writeln!(out, "{}", f.to_table()).unwrap();
    }
}

fn print_speedups(
    out: &mut impl Write,
    title: &str,
    rows: &[(String, gbatch_bench::SpeedupSummary)],
) {
    writeln!(out, "## {title}").unwrap();
    for (label, s) in rows {
        writeln!(out, "  {label}\n      {s}").unwrap();
    }
    writeln!(out).unwrap();
}

/// Every target `repro` accepts (`all` runs each of the others).
const TARGETS: [&str; 15] = [
    "fig1",
    "fig3",
    "fig5",
    "table1",
    "fig7",
    "fig8",
    "table2",
    "fig9",
    "table3",
    "tuning",
    "bandwidth",
    "extensions",
    "multigcd",
    "raw_speed",
    "all",
];

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if !TARGETS.contains(&what.as_str()) {
        eprintln!(
            "repro: unknown target `{what}`; expected one of: {}",
            TARGETS.join(", ")
        );
        std::process::exit(2);
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();

    let run = |name: &str| what == "all" || what == name;

    if run("raw_speed") {
        eprintln!("running raw_speed trajectory...");
        let r = gbatch_bench::raw_speed::measure();
        writeln!(out, "## Raw speed trajectory ({})", r.device).unwrap();
        for (name, s) in [
            ("factor", r.factor),
            ("solve", r.solve),
            ("interleaved", r.interleaved),
            ("serve_flush", r.serve_flush),
        ] {
            writeln!(
                out,
                "  {name:>12}: per-launch {:>9.4} ms | resident {:>9.4} ms | {:.3}x",
                s.per_launch_ms, s.resident_ms, s.speedup
            )
            .unwrap();
        }
        writeln!(out, "  one-time serve spin-up: {:.4} ms", r.serve_spinup_ms).unwrap();
        writeln!(
            out,
            "  factor cache: cold {:.4} ms | warm (GBTRS-only) {:.4} ms | {:.3}x (resident)",
            r.factor_cache.cold.resident_ms,
            r.factor_cache.warm.resident_ms,
            r.factor_cache.warm_speedup
        )
        .unwrap();
        let ts = &r.factor_cache.timestep;
        writeln!(
            out,
            "  factor cache at batch {}, n = {}: cold {:.4} ms | warm (GBTRS-only) {:.4} ms | {:.3}x (resident)",
            ts.batch, ts.n, ts.cold.resident_ms, ts.warm.resident_ms, ts.warm_speedup
        )
        .unwrap();
        writeln!(
            out,
            "  repeated-operator mini-soak hit rate: {:.4}",
            r.factor_cache.soak_hit_rate
        )
        .unwrap();
        writeln!(
            out,
            "  spike split regime (n = {}, kl = ku = {}):",
            r.spike.n, r.spike.kl
        )
        .unwrap();
        for line in &r.spike.lines {
            writeln!(
                out,
                "    {}: unsplit {:>9.4} ms | {} | Auto P={} nb={} {:.3}x | non-decaying Auto P={} nb={} {:.3}x",
                line.precision,
                line.unsplit_ms,
                line.points
                    .iter()
                    .map(|p| format!("P={} {:.3}x", p.parts, p.speedup))
                    .collect::<Vec<_>>()
                    .join(" | "),
                line.auto.parts,
                line.auto.nb,
                line.auto.speedup,
                line.auto_nondecaying.parts,
                line.auto_nondecaying.nb,
                line.auto_nondecaying.speedup
            )
            .unwrap();
        }
        writeln!(
            out,
            "  fleet ({} vs {}, {} adversarial requests):",
            r.fleet.composition, r.fleet.baseline, r.fleet.requests
        )
        .unwrap();
        writeln!(
            out,
            "    makespan {:.3} ms vs {:.3} ms | throughput {:.0} vs {:.0} req/s | {:.3}x",
            r.fleet.fleet_makespan_ms,
            r.fleet.baseline_makespan_ms,
            r.fleet.fleet_throughput_rps,
            r.fleet.baseline_throughput_rps,
            r.fleet.speedup
        )
        .unwrap();
        writeln!(
            out,
            "    utilization spread {:.1}% | {} sheds",
            r.fleet.utilization_spread * 100.0,
            r.fleet.sheds
        )
        .unwrap();
        writeln!(out).unwrap();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_raw_speed.json");
        let json = serde_json::to_string_pretty(&r).unwrap();
        std::fs::write(path, json + "\n").unwrap();
        eprintln!("wrote {path}");
        if what == "raw_speed" {
            return;
        }
    }

    eprintln!("building platforms (tuning sweep)...");
    let p = Platforms::tuned(12);

    if run("bandwidth") {
        writeln!(out, "## Section 8: sustained bandwidth probe (large dgemv)").unwrap();
        for (name, bw) in exp::bandwidth(&p) {
            writeln!(out, "  {name}: {:.2} TB/s", bw / 1e12).unwrap();
        }
        writeln!(out).unwrap();
    }
    if run("fig1") {
        eprintln!("running fig1...");
        print_figures(&mut out, &exp::fig1(&p));
    }
    if run("fig3") {
        eprintln!("running fig3...");
        print_figures(&mut out, &exp::fig3(&p));
    }
    if run("fig5") || run("table1") {
        eprintln!("running fig5/table1...");
        let figs = exp::fig5(&p);
        if run("fig5") {
            print_figures(&mut out, &figs);
        }
        if run("table1") {
            print_speedups(
                &mut out,
                "Table 1: batch GBTRF speedup vs CPU",
                &exp::table1(&p),
            );
        }
    }
    if run("fig7") {
        eprintln!("running fig7...");
        print_figures(&mut out, &exp::fig7(&p));
    }
    if run("fig8") || run("table2") {
        eprintln!("running fig8/table2...");
        let figs = exp::fig8(&p);
        if run("fig8") {
            print_figures(&mut out, &figs);
        }
        if run("table2") {
            print_speedups(
                &mut out,
                "Table 2: GBSV speedup vs CPU (1 RHS)",
                &exp::table_gbsv(&p, 1),
            );
        }
    }
    if run("fig9") || run("table3") {
        eprintln!("running fig9/table3...");
        let figs = exp::fig9(&p);
        if run("fig9") {
            print_figures(&mut out, &figs);
        }
        if run("table3") {
            print_speedups(
                &mut out,
                "Table 3: GBSV speedup vs CPU (10 RHS)",
                &exp::table_gbsv(&p, 10),
            );
        }
    }
    if run("extensions") {
        eprintln!("running extensions...");
        writeln!(out, "## Extensions beyond the paper (see EXPERIMENTS.md)").unwrap();
        writeln!(out, "{}", exp::extensions(&p)).unwrap();
    }
    if run("multigcd") || run("extensions") {
        eprintln!("running multi-GCD batch sweep...");
        let fig = exp::multi_gcd(&p);
        writeln!(out, "{}", fig.to_table()).unwrap();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/multi_gcd.json");
        let json = serde_json::to_string_pretty(&fig).unwrap();
        std::fs::write(path, json + "\n").unwrap();
        eprintln!("wrote {path}");
    }
    if run("tuning") {
        writeln!(
            out,
            "## Section 5.3: tuning sweep (best nb/threads per band)"
        )
        .unwrap();
        writeln!(out, "{}", exp::tuning_sweep(&p)).unwrap();
    }
}
