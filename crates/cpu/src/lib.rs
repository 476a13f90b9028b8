//! # gbatch-cpu
//!
//! The multicore CPU baseline of the paper ("mkl + openmp" in every
//! figure): each matrix is factored/solved with the sequential LAPACK-style
//! band routines of `gbatch-core`, and the batch is spread across cores
//! with an OpenMP-`parallel for`-style scoped thread pool.
//!
//! Two outputs per call:
//!
//! - **real numerics** — computed on the host (bit-identical to the
//!   sequential reference, since each matrix is processed by exactly the
//!   same routine);
//! - **modeled time** — an analytic cost for the paper's Intel Xeon Gold
//!   6140 (Skylake, 18 cores) so GPU-vs-CPU comparisons are
//!   apples-to-apples with the simulated devices (see
//!   [`model::CpuSpec`]).

// LAPACK-style numerical kernels are clearest with explicit indexed
// loops over band rows/columns; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod model;
pub mod solver;

pub use model::CpuSpec;
pub use solver::{cpu_gbsv_batch, cpu_gbtrf_batch, cpu_gbtrs_batch, CpuReport};
