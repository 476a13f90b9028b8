//! Layout-crossover check: run both forced layouts and the `Auto` layout
//! decision over a grid of *executed* dispatch runs and persist the
//! evidence (`results/layout_calibration.json`).
//!
//! The dispatch plan prices the interleaved path with the exact launch
//! predictors, so there is nothing to fit: the table shows (a) that the
//! predicted interleaved time equals the executed one at every point,
//! (b) where the measured crossover lies, and (c) that `Auto` picks the
//! measured winner.

use gbatch_core::batch::{InfoArray, PivotBatch};
use gbatch_core::{BandBatch, BandLayout};
use gbatch_gpu_sim::registry;
use gbatch_gpu_sim::DeviceSpec;
use gbatch_kernels::cost::predict_interleaved_dispatch;
use gbatch_kernels::dispatch::{dgbtrf_batch, ChosenAlgo, FactorAlgo, GbsvOptions};
use gbatch_kernels::interleaved::InterleavedParams;
use serde::{Deserialize, Serialize};

/// One grid point of the calibration run: measured (executed, modeled)
/// time per forced layout next to the predicted interleaved time and the
/// `Auto` pick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CalibrationPoint {
    /// Device name (`h100_pcie` / `mi250x_gcd` spec label).
    pub device: String,
    /// Matrix order.
    pub n: usize,
    /// Sub-diagonals.
    pub kl: usize,
    /// Super-diagonals.
    pub ku: usize,
    /// Batch size.
    pub batch: usize,
    /// Executed column-major dispatch time (ms).
    pub column_ms: f64,
    /// Executed interleaved dispatch time (ms), conversion included.
    pub interleaved_ms: f64,
    /// Model-predicted interleaved time (ms), conversion included.
    pub predicted_interleaved_ms: f64,
    /// Layout the executed times favour.
    pub measured_winner: String,
    /// Layout `FactorAlgo::Auto` actually picked.
    pub auto_pick: String,
    /// Executed time of the auto pick divided by the best executed time
    /// (the ISSUE bound: never above 1.10 on this grid).
    pub auto_regret: f64,
}

/// The persisted calibration table: the grid evidence and its summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayoutCalibration {
    /// Fraction of grid points where the `Auto` pick matches the
    /// executed winner.
    pub agreement: f64,
    /// Largest `auto_regret` across the grid.
    pub max_auto_regret: f64,
    /// Per-point evidence.
    pub points: Vec<CalibrationPoint>,
}

impl LayoutCalibration {
    /// Serialize to pretty JSON (the `results/layout_calibration.json`
    /// format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("calibration serializes")
    }

    /// Parse the persisted table.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// The calibration grid: small-n/large-batch, mid-size bands, and a band
/// too wide for any column-major kernel. With no layout passes around
/// windowed interleaved launches, the interleaved layout wins at every
/// point on both devices.
const GRID: [(usize, usize, usize, usize); 6] = [
    (16, 1, 2, 2048),
    (24, 1, 1, 64),
    (96, 2, 3, 40),
    (200, 6, 6, 16),
    (256, 8, 8, 256),
    (96, 40, 40, 8),
];

fn deterministic_batch(batch: usize, n: usize, kl: usize, ku: usize) -> BandBatch {
    let mut v = 0.29f64;
    BandBatch::from_fn(batch, n, n, kl, ku, |_, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                v = (v * 1.93 + 0.17).fract();
                m.set(i, j, v - 0.5 + if i == j { 2.5 } else { 0.0 });
            }
        }
    })
    .expect("non-empty calibration batch")
}

/// Executed time (ms) of `dgbtrf_batch` under `algo`, and whether it ran
/// interleaved.
fn run_ms(dev: &DeviceSpec, a0: &BandBatch, algo: FactorAlgo) -> (f64, bool) {
    let l = a0.layout();
    let mut a = a0.clone();
    let mut piv = PivotBatch::new(a0.batch(), l.m, l.n);
    let mut info = InfoArray::new(a0.batch());
    let opts = GbsvOptions {
        algo,
        ..Default::default()
    };
    let rep = dgbtrf_batch(dev, &mut a, &mut piv, &mut info, &opts).expect("calibration launch");
    (rep.time.secs() * 1e3, rep.algo == ChosenAlgo::Interleaved)
}

fn predicted_interleaved_ms(dev: &DeviceSpec, l: &BandLayout, batch: usize) -> f64 {
    let params = InterleavedParams::auto(dev, l, 0);
    predict_interleaved_dispatch::<f64>(dev, l, batch, 0, true, &params)
        .map(|t| t.secs() * 1e3)
        .unwrap_or(f64::INFINITY)
}

/// Run the calibration grid on both paper devices.
pub fn calibrate_layout() -> LayoutCalibration {
    let devices = [
        registry::device(registry::H100_PCIE).expect("catalog entry"),
        registry::device(registry::MI250X_GCD).expect("catalog entry"),
    ];
    let mut points = Vec::new();
    let mut agree = 0usize;
    let mut max_auto_regret: f64 = 0.0;
    let layout = |interleaved| match interleaved {
        true => FactorAlgo::Interleaved,
        false => FactorAlgo::ColumnMajor,
    };
    for dev in &devices {
        for &(n, kl, ku, batch) in &GRID {
            let a0 = deterministic_batch(batch, n, kl, ku);
            let (column_ms, _) = run_ms(dev, &a0, FactorAlgo::ColumnMajor);
            let (interleaved_ms, _) = run_ms(dev, &a0, FactorAlgo::Interleaved);
            let (auto_ms, auto_interleaved) = run_ms(dev, &a0, FactorAlgo::Auto);
            let predicted = predicted_interleaved_ms(dev, &a0.layout(), batch);
            let (measured_winner, auto_pick) =
                (layout(interleaved_ms < column_ms), layout(auto_interleaved));
            if measured_winner == auto_pick {
                agree += 1;
            }
            let best_ms = column_ms.min(interleaved_ms);
            let auto_regret = auto_ms / best_ms;
            max_auto_regret = max_auto_regret.max(auto_regret);
            points.push(CalibrationPoint {
                device: dev.name.to_string(),
                n,
                kl,
                ku,
                batch,
                column_ms,
                interleaved_ms,
                predicted_interleaved_ms: predicted,
                measured_winner: format!("{measured_winner:?}"),
                auto_pick: format!("{auto_pick:?}"),
                auto_regret,
            });
        }
    }
    LayoutCalibration {
        agreement: agree as f64 / points.len() as f64,
        max_auto_regret,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The simulated engine executes exactly what the plan predicts, so
    /// the predicted interleaved time must equal the executed one at every
    /// point, the plan must agree with the measured winner everywhere, and
    /// auto must never lose by more than 10% on the calibration grid.
    #[test]
    fn calibration_fits_unity_and_auto_is_never_much_slower() {
        let cal = calibrate_layout();
        for p in &cal.points {
            let rel = (p.predicted_interleaved_ms - p.interleaved_ms).abs() / p.interleaved_ms;
            assert!(
                rel <= 1e-12,
                "{} n={} ({},{}) batch={}: predicted {} ms vs executed {} ms",
                p.device,
                p.n,
                p.kl,
                p.ku,
                p.batch,
                p.predicted_interleaved_ms,
                p.interleaved_ms
            );
        }
        assert!(
            (cal.agreement - 1.0).abs() < f64::EPSILON,
            "auto/measurement winner disagreement: {:#?}",
            cal.points
        );
        assert!(
            cal.max_auto_regret <= 1.10,
            "auto picked a layout more than 10% slower: {:#?}",
            cal.points
        );
        let round: LayoutCalibration = LayoutCalibration::from_json(&cal.to_json()).unwrap();
        assert_eq!(round, cal, "JSON round-trip");
    }
}
