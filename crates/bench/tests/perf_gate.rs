//! The perf gate: replay the checked-in raw-speed trajectory
//! (`BENCH_raw_speed.json` at the repository root) and fail if the current
//! tree has drifted from it or fallen below the resident-engine floors.
//!
//! Every time in the trajectory comes from the simulator's analytic model,
//! so a healthy tree reproduces the file *exactly* — the tolerance below
//! only absorbs the JSON decimal round-trip. A mismatch means a code
//! change moved the modeled performance: either fix the regression or
//! regenerate the trajectory deliberately via
//! `cargo run --release -p gbatch-bench --bin repro -- raw_speed`
//! and justify the new numbers in the PR.

use gbatch_bench::raw_speed::{self, EngineSample, RawSpeedReport};

const TRAJECTORY: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_raw_speed.json");

/// Relative tolerance for replayed-vs-checked-in times: the model is
/// deterministic, so this only needs to cover JSON f64 round-trip noise.
const REL_TOL: f64 = 1e-12;

fn assert_close(name: &str, got: f64, want: f64) {
    let rel = (got - want).abs() / want.abs().max(f64::MIN_POSITIVE);
    assert!(
        rel <= REL_TOL,
        "{name}: replayed {got:.17e} vs checked-in {want:.17e} (rel {rel:.2e}) — \
         the perf trajectory drifted; fix the regression or regenerate \
         BENCH_raw_speed.json deliberately"
    );
}

fn assert_sample(name: &str, got: EngineSample, want: EngineSample) {
    assert_close(
        &format!("{name}.per_launch_ms"),
        got.per_launch_ms,
        want.per_launch_ms,
    );
    assert_close(
        &format!("{name}.resident_ms"),
        got.resident_ms,
        want.resident_ms,
    );
    assert_close(&format!("{name}.speedup"), got.speedup, want.speedup);
}

#[test]
fn checked_in_trajectory_replays_exactly() {
    let json = std::fs::read_to_string(TRAJECTORY)
        .expect("BENCH_raw_speed.json missing at repo root — run `repro raw_speed`");
    let want: RawSpeedReport = serde_json::from_str(&json).expect("trajectory JSON invalid");
    assert_eq!(want.batch, raw_speed::RAW_BATCH, "trajectory shape drifted");
    assert_eq!(want.n, raw_speed::RAW_N);

    let got = raw_speed::measure();
    assert_eq!(got.device, want.device, "trajectory device drifted");
    assert_sample("factor", got.factor, want.factor);
    assert_sample("solve", got.solve, want.solve);
    assert_sample("interleaved", got.interleaved, want.interleaved);
    assert_sample("serve_flush", got.serve_flush, want.serve_flush);
    assert_close("serve_spinup_ms", got.serve_spinup_ms, want.serve_spinup_ms);
    assert_sample(
        "factor_cache.cold",
        got.factor_cache.cold,
        want.factor_cache.cold,
    );
    assert_sample(
        "factor_cache.warm",
        got.factor_cache.warm,
        want.factor_cache.warm,
    );
    assert_close(
        "factor_cache.warm_speedup",
        got.factor_cache.warm_speedup,
        want.factor_cache.warm_speedup,
    );
    let (g, w) = (got.factor_cache.timestep, want.factor_cache.timestep);
    assert_eq!(
        (g.batch, g.n),
        (w.batch, w.n),
        "timestep cell shape drifted"
    );
    assert_sample("factor_cache.timestep.cold", g.cold, w.cold);
    assert_sample("factor_cache.timestep.warm", g.warm, w.warm);
    assert_close(
        "factor_cache.timestep.warm_speedup",
        g.warm_speedup,
        w.warm_speedup,
    );
    assert_close(
        "factor_cache.soak_hit_rate",
        got.factor_cache.soak_hit_rate,
        want.factor_cache.soak_hit_rate,
    );
    assert_eq!(
        got.spike.lines.len(),
        want.spike.lines.len(),
        "spike sweep width drifted"
    );
    assert_eq!(got.fleet.composition, want.fleet.composition);
    assert_eq!(got.fleet.baseline, want.fleet.baseline);
    assert_eq!(got.fleet.requests, want.fleet.requests);
    assert_close(
        "fleet.baseline_makespan_ms",
        got.fleet.baseline_makespan_ms,
        want.fleet.baseline_makespan_ms,
    );
    assert_close(
        "fleet.fleet_makespan_ms",
        got.fleet.fleet_makespan_ms,
        want.fleet.fleet_makespan_ms,
    );
    assert_close("fleet.speedup", got.fleet.speedup, want.fleet.speedup);
    assert_close(
        "fleet.utilization_spread",
        got.fleet.utilization_spread,
        want.fleet.utilization_spread,
    );
    assert_eq!(got.fleet.sheds, want.fleet.sheds, "fleet routing drifted");
    for (g, w) in got.spike.lines.iter().zip(&want.spike.lines) {
        assert_eq!(g.precision, w.precision);
        assert_close(
            &format!("spike.{}.unsplit_ms", w.precision),
            g.unsplit_ms,
            w.unsplit_ms,
        );
        assert_eq!(g.points.len(), w.points.len());
        for (gp, wp) in g
            .points
            .iter()
            .chain([&g.auto, &g.auto_nondecaying])
            .zip(w.points.iter().chain([&w.auto, &w.auto_nondecaying]))
        {
            assert_eq!((gp.parts, gp.nb), (wp.parts, wp.nb), "spike plan drifted");
            assert_close(
                &format!("spike.{}.p{}.split_ms", w.precision, wp.parts),
                gp.split_ms,
                wp.split_ms,
            );
            assert_close(
                &format!("spike.{}.p{}.speedup", w.precision, wp.parts),
                gp.speedup,
                wp.speedup,
            );
        }
    }
}

#[test]
fn resident_engine_floors_hold() {
    let json = std::fs::read_to_string(TRAJECTORY)
        .expect("BENCH_raw_speed.json missing at repo root — run `repro raw_speed`");
    let want: RawSpeedReport = serde_json::from_str(&json).expect("trajectory JSON invalid");
    // The headline acceptance floor: a resident serve flush at batch 4096,
    // n 16 beats per-launch by at least 1.3x.
    assert!(
        want.serve_flush.speedup >= 1.3,
        "serve flush speedup {} below the 1.3x floor",
        want.serve_flush.speedup
    );
    // Resident never loses anywhere on the trajectory.
    for (name, s) in [
        ("factor", want.factor),
        ("solve", want.solve),
        ("interleaved", want.interleaved),
        ("serve_flush", want.serve_flush),
    ] {
        assert!(s.speedup > 1.0, "{name}: resident slower than per-launch");
    }
    // Spin-up is priced honestly: visible, positive, and bounded by the
    // device's one-time cost (it can never recur per flush).
    assert!(want.serve_spinup_ms > 0.0);
    assert!(want.serve_spinup_ms < want.serve_flush.per_launch_ms * 10.0);
}

#[test]
fn factor_cache_floors_hold() {
    let json = std::fs::read_to_string(TRAJECTORY)
        .expect("BENCH_raw_speed.json missing at repo root — run `repro raw_speed`");
    let want: RawSpeedReport = serde_json::from_str(&json).expect("trajectory JSON invalid");
    // The cold side of the cache comparison is the serve flush itself:
    // one full factorize-and-solve of the trajectory batch.
    assert_eq!(want.factor_cache.cold, want.serve_flush);
    // Acceptance floor: a warm (GBTRS-only) resident flush at batch 4096,
    // n 16 is at least 1.8x cheaper than the cold flush.
    assert!(
        want.factor_cache.warm_speedup >= 1.8,
        "warm flush speedup {} below the 1.8x floor",
        want.factor_cache.warm_speedup
    );
    assert!(want.factor_cache.warm.resident_ms < want.factor_cache.cold.resident_ms);
    // Skipping gbtrf helps per-launch too, just less dramatically.
    assert!(want.factor_cache.warm.per_launch_ms < want.factor_cache.cold.per_launch_ms);
    // Acceptance floor at the serve_timestep geometry (batch 64, n 128):
    // the warm flush runs the interleaved solve where it is priced
    // cheaper, so reuse beats refactoring there too.
    let ts = want.factor_cache.timestep;
    assert_eq!(
        (ts.batch, ts.n),
        (raw_speed::TIMESTEP_BATCH, raw_speed::TIMESTEP_N)
    );
    assert!(
        ts.warm_speedup >= raw_speed::TIMESTEP_WARM_FLOOR,
        "timestep warm flush speedup {} below the {}x floor",
        ts.warm_speedup,
        raw_speed::TIMESTEP_WARM_FLOOR
    );
    assert!(ts.warm.per_launch_ms < ts.cold.per_launch_ms);
    // Acceptance floor: the repeated-operator mini-soak keeps the cache
    // hot through the real admission path.
    assert!(
        want.factor_cache.soak_hit_rate >= 0.85,
        "mini-soak hit rate {} below the 0.85 floor",
        want.factor_cache.soak_hit_rate
    );
    assert!(want.factor_cache.soak_hit_rate <= 1.0);
}

#[test]
fn spike_floors_hold() {
    let json = std::fs::read_to_string(TRAJECTORY)
        .expect("BENCH_raw_speed.json missing at repo root — run `repro raw_speed`");
    let want: RawSpeedReport = serde_json::from_str(&json).expect("trajectory JSON invalid");
    // The sweep shape is pinned: both precisions over every block count.
    assert_eq!(want.spike.n, raw_speed::SPIKE_N);
    assert_eq!(want.spike.kl, raw_speed::SPIKE_KL);
    assert_eq!(want.spike.ku, raw_speed::SPIKE_KU);
    assert_eq!(want.spike.lines.len(), 2, "both precisions must be swept");
    for line in &want.spike.lines {
        assert_eq!(
            line.points.iter().map(|p| p.parts).collect::<Vec<_>>(),
            raw_speed::SPIKE_PARTS.to_vec(),
            "spike sweep block counts drifted"
        );
        // A one-block "split" degenerates to the unsplit kernels, so its
        // speedup must be within noise of 1.0 — a drift here means the
        // split driver added overhead to the degenerate path.
        let p1 = &line.points[0];
        assert!(
            (p1.speedup - 1.0).abs() < 0.2,
            "{}: P = 1 speedup {:.3} should be ~1.0",
            line.precision,
            p1.speedup
        );
    }
    // Acceptance floor: the split solve at P = 8, f64, beats the unsplit
    // window + blocked-solve baseline by at least 3.0x.
    assert!(
        want.spike.speedup_at_p8_f64() >= raw_speed::SPIKE_FLOOR,
        "spike P = 8 f64 speedup {:.3} below the {}x floor",
        want.spike.speedup_at_p8_f64(),
        raw_speed::SPIKE_FLOOR
    );
    // Acceptance floor: Auto on the non-decaying f64 system, which runs
    // the exact plan plus the decay probe, beats its unsplit solve by at
    // least 15x.
    assert!(
        want.spike.nondecaying_speedup_f64() >= raw_speed::SPIKE_NONDECAYING_FLOOR,
        "spike non-decaying Auto f64 speedup {:.3} below the {}x floor",
        want.spike.nondecaying_speedup_f64(),
        raw_speed::SPIKE_NONDECAYING_FLOOR
    );
}

#[test]
fn fleet_floors_hold() {
    let json = std::fs::read_to_string(TRAJECTORY)
        .expect("BENCH_raw_speed.json missing at repo root — run `repro raw_speed`");
    let want: RawSpeedReport = serde_json::from_str(&json).expect("trajectory JSON invalid");
    // The comparison runs the compositions the trajectory promises.
    assert_eq!(want.fleet.composition, raw_speed::FLEET_COMPOSITION);
    assert_eq!(want.fleet.baseline, raw_speed::FLEET_BASELINE);
    assert_eq!(want.fleet.requests, raw_speed::FLEET_REQUESTS);
    // Acceptance floor: the heterogeneous fleet beats the best single
    // device on the adversarial mix by at least FLEET_FLOOR.
    assert!(
        want.fleet.speedup >= raw_speed::FLEET_FLOOR,
        "fleet speedup {:.3} below the {}x floor",
        want.fleet.speedup,
        raw_speed::FLEET_FLOOR
    );
    // The throughput numbers are the makespan ratio, self-consistently.
    let tp_ratio = want.fleet.fleet_throughput_rps / want.fleet.baseline_throughput_rps;
    assert!((tp_ratio - want.fleet.speedup).abs() < 1e-9 * want.fleet.speedup);
    assert!(want.fleet.fleet_makespan_ms < want.fleet.baseline_makespan_ms);
    // Utilization accounting stays physical over the drained schedule.
    assert!(want.fleet.utilization_spread >= 0.0 && want.fleet.utilization_spread <= 1.0);
}
