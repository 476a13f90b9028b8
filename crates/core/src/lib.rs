//! # gbatch-core
//!
//! Band-matrix storage and sequential LAPACK-style band LU routines.
//!
//! This crate is the numerical foundation of the `gbatch` workspace, a
//! reproduction of *"GPU-based LU Factorization and Solve on Batches of
//! Matrices with Band Structure"* (Abdelfattah et al., SC-W 2023). It
//! provides:
//!
//! - [`layout::BandLayout`] — the standard LAPACK band storage scheme
//!   (paper Section 3, Figure 2), where element `(i, j)` of the full matrix
//!   lives at band row `kl + ku + i - j` of column `j`, and the top `kl`
//!   rows are workspace for partial-pivoting fill-in;
//! - [`band::BandMatrix`] — an owned band matrix plus cheap views;
//! - [`batch::BandBatch`] — a uniform batch of band matrices stored
//!   contiguously, mirroring the paper's `double**` batch interface;
//! - sequential reference routines with LAPACK semantics:
//!   [`gbtf2::gbtf2`] (unblocked band LU with partial pivoting),
//!   [`gbtrf::gbtrf`] (blocked band LU), [`gbtrs::gbtrs`]
//!   (forward/backward band triangular solve) and [`gbsv::gbsv`] (driver);
//! - [`dense`] — small dense LAPACK-style routines (`getrf`, `getrs`,
//!   `gemm`, `gemv`) used as oracles in tests and as the Figure 1 workload;
//! - [`gbequ`] / [`gbrfs`] — equilibration and iterative refinement, the
//!   LAPACK companions for the ill-conditioned batches of the PELE
//!   scenario (paper §2.1);
//! - [`residual`] — backward-error measurement used by every test and
//!   example to certify solutions.
//!
//! Containers and routines are generic over the element [`scalar::Scalar`]
//! (`f32` or `f64`), defaulting to `f64` — the precision the paper
//! evaluates. The `f64` instantiations are bitwise-identical to the
//! original concrete code. Pivot indices are 0-based; conversions to
//! LAPACK's 1-based convention are provided where fidelity matters.
//!
//! ```
//! use gbatch_core::{BandMatrix, gbsv::gbsv};
//!
//! // Solve a diagonally dominant tridiagonal system.
//! let n = 8;
//! let mut a = BandMatrix::<f64>::zeros_factor(n, n, 1, 1).unwrap();
//! for j in 0..n {
//!     a.set(j, j, 4.0);
//!     if j > 0 { a.set(j - 1, j, -1.0); a.set(j, j - 1, -1.0); }
//! }
//! let mut b = vec![1.0; n];
//! let mut ab = a.data().to_vec();
//! let mut ipiv = vec![0i32; n];
//! let info = gbsv(&a.layout(), &mut ab, &mut ipiv, &mut b, n, 1);
//! assert_eq!(info, 0);
//! // Residual check through the band matvec.
//! let mut r = vec![0.0; n];
//! gbatch_core::blas2::gbmv(1.0, a.as_ref(), &b, 0.0, &mut r);
//! assert!(r.iter().all(|&v| (v - 1.0).abs() < 1e-12));
//! ```

// LAPACK-style numerical kernels are clearest with explicit indexed
// loops over band rows/columns; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod band;
pub mod batch;
pub mod blas1;
pub mod blas2;
pub mod dense;
pub mod display;
pub mod error;
pub mod factors;
pub mod fingerprint;
pub mod gbcon;
pub mod gbequ;
pub mod gbrfs;
pub mod gbsv;
pub mod gbsvx;
pub mod gbtf2;
pub mod gbtrf;
pub mod gbtrs;
pub mod lanes;
pub mod layout;
pub mod residual;
pub mod scalar;
pub mod shape;
pub mod spike;

pub use band::{BandMatrix, BandMatrixMut, BandMatrixRef};
pub use batch::{BandBatch, InfoArray, PivotBatch, RhsBatch};
pub use error::{BandError, Result};
pub use factors::{FactorPayload, FactorScalar, RetainedFactor};
pub use fingerprint::{operator_fingerprint, Fingerprint, FingerprintHasher};
pub use lanes::{with_lane_mode, LaneMode, LANE_WIDTH};
pub use layout::{BandLayout, RowClass};
pub use scalar::{Precision, Scalar};
pub use shape::ShapeKey;
pub use spike::{spike_factorize, spike_gbsv, spike_solve_retained, SpikeFactor, SpikePartition};

/// Machine epsilon for `f64`, used in residual bounds.
pub const EPS: f64 = f64::EPSILON;
