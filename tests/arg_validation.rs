//! Argument-validation error paths of the batched `gbtrf`/`gbtrs`/`gbsv`
//! interface: every malformed input is rejected with a typed error
//! (`BandError` at the container boundary, `LaunchError` at the launch
//! boundary, `AdmitError` at the serve boundary) — never a silent wrong
//! answer, and never an untyped panic.

use gbatch::core::error::BandError;
use gbatch::core::layout::{BandLayout, BandStorage};
use gbatch::core::{BandBatch, InfoArray, PivotBatch, RhsBatch, ShapeKey};
use gbatch::cpu::CpuSpec;
use gbatch::gpu_sim::engine::validate;
use gbatch::gpu_sim::multi::DeviceGroup;
use gbatch::gpu_sim::{DeviceSpec, LaunchConfig, LaunchError, ParallelPolicy};
use gbatch::kernels::dispatch::{dgbsv_batch, dgbtrf_batch, GbsvOptions};
use gbatch::serve::{AdmitError, FactorizeError, Server, ServerConfig, SolveRequest};

// ---------------------------------------------------------------- ldab --

#[test]
fn gbtrf_rejects_ldab_below_factor_minimum() {
    // Factor storage needs 2*kl + ku + 1 = 8 rows; 7 must fail with the
    // exact requirement in the error.
    let err = BandLayout::with_ldab(9, 9, 2, 3, 7, BandStorage::Factor).unwrap_err();
    assert_eq!(
        err,
        BandError::LdabTooSmall {
            ldab: 7,
            required: 8
        }
    );
    // Pure storage needs only kl + ku + 1 = 6.
    assert!(BandLayout::with_ldab(9, 9, 2, 3, 6, BandStorage::Pure).is_ok());
    let err = BandLayout::with_ldab(9, 9, 2, 3, 5, BandStorage::Pure).unwrap_err();
    assert_eq!(
        err,
        BandError::LdabTooSmall {
            ldab: 5,
            required: 6
        }
    );
}

// ------------------------------------------------------------- kl / ku --

#[test]
fn bandwidths_must_fit_inside_the_matrix() {
    // kl >= m: more sub-diagonals than rows below the first.
    let err = BandLayout::factor(4, 8, 4, 1).unwrap_err();
    assert!(matches!(err, BandError::BadDimension { arg: "kl/ku", .. }));
    // ku >= n symmetric case.
    let err = BandLayout::factor(8, 4, 1, 4).unwrap_err();
    assert!(matches!(err, BandError::BadDimension { arg: "kl/ku", .. }));
    // The container constructors forward the same rejection.
    assert!(BandBatch::<f64>::zeros(3, 4, 4, 4, 1).is_err());
    assert!(BandBatch::<f64>::zeros(3, 4, 4, 1, 4).is_err());
    // Boundary: kl = m - 1, ku = n - 1 is the widest legal band.
    assert!(BandLayout::factor(4, 4, 3, 3).is_ok());
}

// ------------------------------------------------------ size overflow --

#[test]
fn overflowing_sizes_are_a_bad_dimension() {
    // ldab = 2^31 and n = 2^33: the band array would hold 2^64 elements.
    let err = BandLayout::factor(1 << 33, 1 << 33, (1 << 30) - 1, 1).unwrap_err();
    assert!(matches!(err, BandError::BadDimension { arg: "ldab/n", .. }));
    // A bandwidth whose minimum ldab itself overflows.
    let err = BandLayout::factor(usize::MAX, usize::MAX, usize::MAX / 2 + 1, 0).unwrap_err();
    assert!(matches!(err, BandError::BadDimension { arg: "ldab/n", .. }));
    let err = BandLayout::with_ldab(9, 9, 2, 3, usize::MAX, BandStorage::Factor).unwrap_err();
    assert!(matches!(err, BandError::BadDimension { arg: "ldab/n", .. }));
    // A shape key whose band fits but whose right-hand sides do not.
    let err = ShapeKey::gbsv(1 << 33, 0, 0, 1 << 31).layout().unwrap_err();
    assert!(matches!(err, BandError::BadDimension { arg: "n/nrhs", .. }));
    assert!(ShapeKey::gbsv(1 << 33, 0, 0, 1).layout().is_ok());
}

#[test]
fn serve_admission_refuses_overflowing_shapes() {
    // Both `ab_len` and `rhs_len` wrap to 0 for this key, so empty
    // payloads would match them if the shape were not checked first.
    let shape = ShapeKey::gbsv(1 << 33, (1 << 30) - 1, 1, 1 << 31);
    let mut s = Server::simulated(
        DeviceGroup::mi250x_full(),
        CpuSpec::xeon_gold_6140(),
        ParallelPolicy::Serial,
        ServerConfig::default(),
    );
    let req = SolveRequest {
        id: 0,
        shape,
        ab: Vec::new(),
        rhs: Vec::new(),
        submitted_s: 0.0,
        deadline_s: 1.0,
    };
    assert!(matches!(
        s.submit(req).unwrap_err(),
        AdmitError::UnsupportedShape(_)
    ));
    assert!(matches!(
        s.factorize(shape, &[], 0.0).unwrap_err(),
        FactorizeError::Admit(AdmitError::UnsupportedShape(_))
    ));
    assert_eq!(s.pending(), 0, "nothing enqueued");
    assert_eq!(s.report().factorize_requests, 0, "nothing factored");
    s.drain();
    assert!(s.take_responses().is_empty());
    assert!(s.report().is_conserved());
}

// --------------------------------------------------------- zero batch --

#[test]
fn zero_batch_is_rejected_by_every_container() {
    assert!(matches!(
        BandBatch::<f64>::zeros(0, 9, 9, 2, 3).unwrap_err(),
        BandError::BadDimension { arg: "batch", .. }
    ));
    let layout = BandLayout::factor(9, 9, 2, 3).unwrap();
    assert!(BandBatch::<f64>::zeros_with_layout(layout, 0).is_err());
    assert!(matches!(
        RhsBatch::<f64>::zeros(0, 9, 1).unwrap_err(),
        BandError::BadDimension { .. }
    ));
}

// ------------------------------------------------------------ nrhs = 0 --

#[test]
fn zero_nrhs_is_rejected_by_the_rhs_container() {
    assert!(matches!(
        RhsBatch::<f64>::zeros(4, 9, 0).unwrap_err(),
        BandError::BadDimension { .. }
    ));
    assert!(RhsBatch::<f64>::zeros_with_ldb(4, 9, 0, 9).is_err());
    // n = 0 is rejected by the same gate.
    assert!(RhsBatch::<f64>::zeros(4, 0, 1).is_err());
}

// -------------------------------------------------- launch-level gates --

#[test]
fn oversized_shared_request_is_a_typed_launch_error() {
    let dev = DeviceSpec::h100_pcie();
    let cfg = LaunchConfig::new(32, dev.max_smem_per_block + 1);
    match validate(&dev, &cfg) {
        Err(LaunchError::SharedMemExceeded { requested, limit }) => {
            assert_eq!(requested, dev.max_smem_per_block + 1);
            assert_eq!(limit, dev.max_smem_per_block);
        }
        other => panic!("expected SharedMemExceeded, got {other:?}"),
    }
}

#[test]
fn bad_thread_count_is_a_typed_launch_error() {
    let dev = DeviceSpec::h100_pcie();
    assert!(matches!(
        validate(&dev, &LaunchConfig::new(0, 0)),
        Err(LaunchError::BadThreadCount { .. })
    ));
    assert!(matches!(
        validate(&dev, &LaunchConfig::new(dev.max_threads_per_block + 1, 0)),
        Err(LaunchError::BadThreadCount { .. })
    ));
}

// ------------------------------------------- well-formed inputs still run --

#[test]
fn minimal_valid_arguments_reach_the_kernels() {
    // The smallest arguments that pass every gate must factor and solve:
    // batch 1, n 1, kl = ku = 0, nrhs 1.
    let dev = DeviceSpec::h100_pcie();
    let mut a = BandBatch::from_fn(1, 1, 1, 0, 0, |_, m| m.set(0, 0, 2.0)).unwrap();
    let mut piv = PivotBatch::new(1, 1, 1);
    let mut rhs = RhsBatch::from_fn(1, 1, 1, |_, _, _| 6.0).unwrap();
    let mut info = InfoArray::new(1);
    let _ = dgbsv_batch(
        &dev,
        &mut a,
        &mut piv,
        &mut rhs,
        &mut info,
        &GbsvOptions::default(),
    )
    .unwrap();
    assert!(info.all_ok());
    assert_eq!(rhs.data()[0], 3.0);

    // And the factor-only path on a fresh batch.
    let mut a = BandBatch::from_fn(1, 1, 1, 0, 0, |_, m| m.set(0, 0, 2.0)).unwrap();
    let _ = dgbtrf_batch(&dev, &mut a, &mut piv, &mut info, &GbsvOptions::default()).unwrap();
    assert!(info.all_ok());
}
