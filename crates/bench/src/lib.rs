//! # gbatch-bench
//!
//! The benchmark harness that regenerates **every table and figure** of the
//! paper (see DESIGN.md's experiment index):
//!
//! | Experiment | Runner |
//! |---|---|
//! | Fig. 1 (batch vs streams, gemm/gemv)     | [`experiments::fig1`] |
//! | Fig. 3 (fully fused GBTRF)               | [`experiments::fig3`] |
//! | Fig. 5 + Table 1 (final GBTRF + speedups)| [`experiments::fig5`], [`experiments::table1`] |
//! | Fig. 7 (fused vs standard GBSV)          | [`experiments::fig7`] |
//! | Fig. 8 + Table 2 (GBSV, 1 RHS)           | [`experiments::fig8`], [`experiments::table_gbsv`] |
//! | Fig. 9 + Table 3 (GBSV, 10 RHS)          | [`experiments::fig9`], [`experiments::table_gbsv`] |
//! | §5.3 tuning sweep                        | [`experiments::tuning_sweep`] |
//! | §8 bandwidth probe                       | [`experiments::bandwidth`] |
//! | Extensions (multi-GCD, streamed-GBSV counterfactual) | [`experiments::extensions`] |
//!
//! Times for the GPU platforms come from the simulator's analytic model;
//! CPU times from the calibrated Skylake model; numerics execute for real
//! and every run asserts residual correctness before reporting times.

pub mod calibration;
pub mod experiments;
pub mod platforms;
pub mod raw_speed;
pub mod report;

pub use calibration::{calibrate_layout, LayoutCalibration};
pub use platforms::Platforms;
pub use raw_speed::{EngineSample, RawSpeedReport};
pub use report::{Series, SpeedupSummary};
