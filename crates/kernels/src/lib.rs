//! # gbatch-kernels
//!
//! GPU-style batched band LU kernels, ported from the paper onto the
//! simulated GPU substrate of `gbatch-gpu-sim`:
//!
//! - [`mod@reference`] — the fork–join reference implementation (§5.1): the
//!   host drives the column loop and launches per-column building-block
//!   kernels; numerically identical to `gbatch_core::gbtf2`, and slow by
//!   design (launch overhead × columns).
//! - [`fused`] — the fully fused factorization (§5.2): each matrix is
//!   loaded into shared memory once, factorized column-by-column, and
//!   written back; fails for matrices exceeding the shared-memory capacity
//!   and shows the occupancy staircase.
//! - [`window`] — the sliding-window factorization (§5.3): caches only
//!   `(nb + kv + 1)` columns, shifting the window in shared memory between
//!   iterations; constant footprint in the matrix size.
//! - [`gbtrs_cols`] / [`gbtrs_blocked`] / [`gbtrs_trans`] — the band
//!   triangular solves (§6), column-wise and blocked (RHS cache shifted
//!   through shared memory), plus the transpose path of the Section 4
//!   interface (`transpose_t transA`).
//! - [`gbsv_fused`] — the single-kernel factorize-and-solve on the
//!   augmented system `[A|B]` for small matrices (§7).
//! - [`dispatch`] — the paper's user interface (Section 4): `dgbtrf_batch`,
//!   `dgbtrs_batch`, `dgbsv_batch`, planned by [`FactorAlgo`]: `ColumnMajor`
//!   is the §5.4/§7 selection plus SPIKE, `Auto` adds the interleaved
//!   regime, and every other value forces the kernel it names.
//! - [`specialized`] — compile-time band-specialized register-file kernels,
//!   emulating the paper's §8.1 JIT-compilation proposal.
//! - [`pbtrf`] — batched SPD band Cholesky (fused + window), extending the
//!   design space to the symmetric systems of §2.2.
//! - [`mod@spike`] — SPIKE-style split solver for *large* single systems
//!   (Li/Serban/Negrut, arXiv:1509.07919): P diagonal blocks factor
//!   concurrently as an intra-matrix batch, a tiny dense reduced system
//!   couples the cuts, and a truncated mode trades coupling for
//!   iterative refinement; the third regime of the dispatch plan.
//! - [`mod@interleaved`] — batch-major (interleaved) GBTRF/GBTRS whose
//!   column-step primitives sweep contiguous batch lanes innermost: no
//!   shared memory, no barriers, bitwise-identical numerics per lane, and
//!   the coalesced access pattern of Gloster et al. (arXiv:1909.04539);
//!   the layout dimension of the dispatch plan.
//! - [`gemm`] / [`gemv`] — simple batched dense kernels used by the
//!   Figure 1 motivation experiment.
//! - [`cost`] — analytic counter prediction (dry-run cost model) used by
//!   the offline tuner.
//!
//! Every kernel *really computes*: the numerics of each design are tested
//! bit-for-bit (where the operation order is identical) against the
//! sequential LAPACK-style reference.

// LAPACK-style numerical kernels are clearest with explicit indexed
// loops over band rows/columns; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod access_model;
pub mod conformance;
pub mod cost;
pub mod dispatch;
pub mod fused;
pub mod gbsv_fused;
pub mod gbtrs_blocked;
pub mod gbtrs_cols;
pub mod gbtrs_trans;
pub mod gemm;
pub mod gemv;
pub mod interleaved;
pub mod pbtrf;
pub mod reference;
pub mod specialized;
pub mod spike;
pub mod step;
pub mod window;

pub use dispatch::{
    dgbsv_batch, dgbtrf_batch, dgbtrs_batch, gbsv_batch, gbtrf_batch, gbtrs_batch, sgbsv_batch,
    sgbtrf_batch, sgbtrs_batch, BatchReport, ChosenAlgo, FactorAlgo, GbsvOptions,
};

/// gpu-sim throughput class of a core scalar type: every launch in this
/// crate tags its configuration so the timing model prices fp32 on the
/// wider lane group.
#[must_use]
pub fn flop_class<S: gbatch_core::scalar::Scalar>() -> gbatch_gpu_sim::FlopPrecision {
    match S::PRECISION {
        gbatch_core::scalar::Precision::F32 => gbatch_gpu_sim::FlopPrecision::Fp32,
        gbatch_core::scalar::Precision::F64 => gbatch_gpu_sim::FlopPrecision::Fp64,
    }
}
