//! What one run of a workload measures, and how the end-to-end metrics
//! are built from it.

use std::time::Instant;

use crate::inputs::ROUNDS;
use crate::stats::{median, put, quantile, sorted, Metrics};
use crate::trace::Span;

/// Everything a run of one workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host seconds of set-up per repetition.
    pub setup_s: Vec<f64>,
    /// Operations answered per host second, per repetition.
    pub host_rate: Vec<f64>,
    /// Modeled device time of each round's work, milliseconds.
    pub model_ms: Vec<f64>,
    /// Modeled latency of every operation of every round, milliseconds;
    /// failed operations are `+inf`.
    pub latencies_ms: Vec<f64>,
    /// Operations answered, and the modeled seconds they took, when every
    /// round runs at its capacity ceiling.
    pub capacity: (f64, f64),
    pub attempted: usize,
    pub failed: usize,
    /// Whether every repetition (and the traced one) reproduced its
    /// round's first answers and modeled values bit for bit.
    pub reproducible: bool,
    /// The traced repetition, when one ran.
    pub traced: Option<Traced>,
}

/// The traced repetition's per-layer view.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer metrics of the layers this workload drives.
    pub layers: Metrics,
    /// Operations answered per host second with spans recorded.
    pub host_rate: f64,
    pub spans: Vec<Span>,
}

impl Measured {
    pub fn reps(&self) -> usize {
        self.host_rate.len()
    }

    /// The end-to-end metrics; `peak_rss_mb` is read by the caller after
    /// the run.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Metrics {
        let mut m = Metrics::new();
        let reps = self.reps();
        let rounds = self.model_ms.len();
        let lat = sorted(&self.latencies_ms);
        put(&mut m, "setup_s", median(&self.setup_s), "s", reps);
        put(&mut m, "peak_rss_mb", peak_rss_mb, "MB", 1);
        put(
            &mut m,
            "host_solves_per_s",
            median(&self.host_rate),
            "1/s",
            reps,
        );
        let model_ms = self.model_ms.iter().sum::<f64>() / rounds as f64;
        put(&mut m, "model_ms", model_ms, "ms", rounds);
        put(&mut m, "p50_ms", quantile(&lat, 0.5), "ms", lat.len());
        put(&mut m, "p999_ms", quantile(&lat, 0.999), "ms", lat.len());
        let (ops, secs) = self.capacity;
        put(&mut m, "saturation_rps", ops / secs, "1/s", rounds);
        m
    }
}

/// Call `rep` with each repetition's index and round until `seconds` of
/// host time have passed and every round ran once. Repetition `i` runs
/// round `i % ROUNDS`, so the first [`ROUNDS`] repetitions are the rounds'
/// first runs and every later one repeats a round.
pub fn repeat(seconds: f64, mut rep: impl FnMut(usize, usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < ROUNDS || start.elapsed().as_secs_f64() < seconds {
        rep(i, i % ROUNDS);
        i += 1;
    }
}
