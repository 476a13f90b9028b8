//! Argument-validation error paths of the batched `gbtrf`/`gbtrs`/`gbsv`
//! interface: every malformed input is rejected with a typed error
//! (`BandError` at the container boundary, `LaunchError` at the launch
//! boundary, `AdmitError` at the serve boundary) — never a silent wrong
//! answer, and never an untyped panic.

use gbatch::core::error::BandError;
use gbatch::core::gbtrs::Transpose;
use gbatch::core::layout::{BandLayout, BandStorage};
use gbatch::core::residual::backward_error;
use gbatch::core::{BandBatch, InfoArray, PivotBatch, RhsBatch, ShapeKey};
use gbatch::cpu::CpuSpec;
use gbatch::gpu_sim::engine::validate;
use gbatch::gpu_sim::multi::DeviceGroup;
use gbatch::gpu_sim::{DeviceSpec, LaunchConfig, LaunchError, ParallelPolicy};
use gbatch::kernels::dispatch::{
    dgbsv_batch, dgbtrf_batch, dgbtrs_batch, gbtrs_batch_lanes, ChosenAlgo, FactorAlgo, GbsvOptions,
};
use gbatch::kernels::spike::{check_storage, spike_gbsv_batch, SpikeParams};
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

// ------------------------------------------------ container agreement --

const EVERY_ALGO: [FactorAlgo; 8] = [
    FactorAlgo::Auto,
    FactorAlgo::ColumnMajor,
    FactorAlgo::FusedGbsv,
    FactorAlgo::Fused,
    FactorAlgo::Window,
    FactorAlgo::Reference,
    FactorAlgo::Interleaved,
    FactorAlgo::Spike,
];

fn dominant(batch: usize, m: usize, n: usize) -> BandBatch {
    dominant_in(batch, BandLayout::factor(m, n, 2, 3).unwrap())
}

/// A diagonally dominant batch in `layout`, whatever its storage flavour
/// and `ldab`.
fn dominant_in(batch: usize, layout: BandLayout) -> BandBatch {
    let mut a = BandBatch::zeros_with_layout(layout, batch).unwrap();
    for id in 0..batch {
        let mut mat = a.matrix_mut(id);
        for j in 0..layout.n {
            let (s, e) = layout.col_rows(j);
            for i in s..e {
                let v = ((i * 5 + j * 3 + id) % 7) as f64 * 0.1;
                mat.set(i, j, if i == j { 4.0 + v } else { v - 0.3 });
            }
        }
    }
    a
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn rhs(batch: usize, n: usize, nrhs: usize) -> RhsBatch {
    RhsBatch::from_fn(batch, n, nrhs, |id, i, c| (id + 2 * i + 3 * c) as f64 * 0.1).unwrap()
}

fn mismatch(arg: &'static str, expected: usize, got: usize) -> LaunchError {
    LaunchError::ArgMismatch { arg, expected, got }
}

/// Every entry point checks that its containers agree with the band
/// layout and with each other before it plans: under every `FactorAlgo`,
/// at an order the fused kernels take and one they do not, and on the
/// split driver's own entry point, a mismatch is a typed error and the
/// band and the right-hand sides are bitwise untouched.
#[test]
fn container_mismatch_is_a_typed_error_before_any_launch() {
    let dev = DeviceSpec::h100_pcie();
    for (n, nrhs) in [(16usize, 1usize), (100, 2)] {
        let a0 = dominant(8, n, n);
        let l = a0.layout();
        for algo in EVERY_ALGO {
            let opts = GbsvOptions {
                algo,
                ..Default::default()
            };
            let what = format!("n={n} {algo:?}");
            let gbsv = |a0: &BandBatch, piv: PivotBatch, b0: RhsBatch, info: InfoArray| {
                let (mut a, mut piv, mut b, mut info) = (a0.clone(), piv, b0.clone(), info);
                let err = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts);
                assert_eq!(a.data(), a0.data(), "{what}: band touched");
                assert_eq!(b.data(), b0.data(), "{what}: rhs touched");
                err.unwrap_err()
            };
            let (piv, info) = (PivotBatch::new(8, n, n), InfoArray::new(8));

            // gbsv: 8 matrices against 4 RHS blocks, RHS of another
            // order, pivots and info for another batch, a band in pure
            // storage (no rows for the fill-in), a non-square band.
            let err = gbsv(&a0, piv.clone(), rhs(4, n, nrhs), info.clone());
            assert_eq!(err, mismatch("rhs batch", 8, 4), "{what}");
            let err = gbsv(&a0, piv.clone(), rhs(8, n + 1, nrhs), info.clone());
            assert_eq!(err, mismatch("rhs rows", n, n + 1), "{what}");
            let err = gbsv(&a0, PivotBatch::new(4, n, n), rhs(8, n, nrhs), info.clone());
            assert_eq!(err, mismatch("pivot batch", 8, 4), "{what}");
            let err = gbsv(&a0, piv.clone(), rhs(8, n, nrhs), InfoArray::new(4));
            assert_eq!(err, mismatch("info length", 8, 4), "{what}");
            let pure = dominant_in(8, BandLayout::pure(n, n, 2, 3).unwrap());
            let err = gbsv(&pure, piv.clone(), rhs(8, n, nrhs), info.clone());
            assert_eq!(err, mismatch("band row offset", 5, 3), "{what}");
            let wide = dominant(8, n - 1, n);
            let err = gbsv(&wide, PivotBatch::new(8, n - 1, n), rhs(8, n, nrhs), info);
            assert_eq!(err, mismatch("rows of a square system", n, n - 1), "{what}");

            // gbtrf: pivots sized for another order, a band in pure
            // storage.
            let mut a = a0.clone();
            let mut short = PivotBatch::new(8, n - 1, n - 1);
            let err = dgbtrf_batch(&dev, &mut a, &mut short, &mut InfoArray::new(8), &opts);
            assert_eq!(err.unwrap_err(), mismatch("pivots per matrix", n, n - 1));
            assert_eq!(a.data(), a0.data(), "{what}: gbtrf band touched");
            let mut a = pure.clone();
            let err = dgbtrf_batch(
                &dev,
                &mut a,
                &mut piv.clone(),
                &mut InfoArray::new(8),
                &opts,
            );
            assert_eq!(err.unwrap_err(), mismatch("band row offset", 5, 3));
            assert_eq!(a.data(), pure.data(), "{what}: gbtrf band touched");

            // gbtrs: a factor slice one lane short, RHS of another order.
            let b0 = rhs(8, n, nrhs);
            let mut b = b0.clone();
            let short = &a0.data()[..l.len() * 7];
            let err = dgbtrs_batch(&dev, Transpose::No, &l, short, &piv, &mut b, &opts);
            assert_eq!(
                err.unwrap_err(),
                mismatch("factor length", l.len() * 8, l.len() * 7)
            );
            let mut wrong = rhs(8, n + 1, nrhs);
            let err = dgbtrs_batch(&dev, Transpose::Yes, &l, a0.data(), &piv, &mut wrong, &opts);
            assert_eq!(err.unwrap_err(), mismatch("rhs rows", n, n + 1));

            // The retained-lane solve: one pivot vector a pivot short.
            let stride = l.len();
            let ipiv = vec![0i32; n];
            let lanes: Vec<(&[f64], &[i32])> = (0..8)
                .map(|k| {
                    (
                        &a0.data()[k * stride..(k + 1) * stride],
                        &ipiv[..n - (k == 5) as usize],
                    )
                })
                .collect();
            let err = gbtrs_batch_lanes::<f64>(&dev, Transpose::No, &l, &lanes, &mut b, &opts);
            assert_eq!(err.unwrap_err(), mismatch("pivots per lane", n, n - 1));
            assert_eq!(b.data(), b0.data(), "{what}: gbtrs rhs touched");
        }

        // The split driver's own entry point checks the same containers.
        let split = |a0: &BandBatch, piv: PivotBatch, b0: RhsBatch, info: InfoArray| {
            let (mut a, mut piv, mut b, mut info) = (a0.clone(), piv, b0.clone(), info);
            let params = SpikeParams::default().with_parts(2);
            let err = spike_gbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, params);
            assert_eq!(a.data(), a0.data(), "n={n} split: band touched");
            assert_eq!(b.data(), b0.data(), "n={n} split: rhs touched");
            err.unwrap_err()
        };
        let (piv, info) = (PivotBatch::new(8, n, n), InfoArray::new(8));
        let err = split(&a0, piv.clone(), rhs(4, n, nrhs), info.clone());
        assert_eq!(err, mismatch("rhs batch", 8, 4), "n={n} split");
        let err = split(&a0, piv.clone(), rhs(8, n + 1, nrhs), info.clone());
        assert_eq!(err, mismatch("rhs rows", n, n + 1), "n={n} split");
        let err = split(&a0, PivotBatch::new(4, n, n), rhs(8, n, nrhs), info.clone());
        assert_eq!(err, mismatch("pivot batch", 8, 4), "n={n} split");
        let err = split(&a0, PivotBatch::new(8, n - 1, n - 1), rhs(8, n, nrhs), info);
        assert_eq!(err, mismatch("pivots per matrix", n, n - 1), "n={n} split");
        let err = split(&a0, piv, rhs(8, n, nrhs), InfoArray::new(4));
        assert_eq!(err, mismatch("info length", 8, 4), "n={n} split");

        // The split's storage rule: a layout its block columns cannot
        // tile is refused before the containers are checked (these fit
        // none of the systems), and a forced `Spike` on it runs exactly
        // what `ColumnMajor` runs.
        let untiled = [
            (
                BandLayout::factor(n - 1, n, 2, 3).unwrap(),
                mismatch("rows of a square system", n, n - 1),
            ),
            (
                BandLayout::pure(n, n, 2, 3).unwrap(),
                mismatch("band row offset", 5, 3),
            ),
            (
                BandLayout::factor(n, n, 0, 0).unwrap(),
                mismatch("kl + ku (at least)", 1, 0),
            ),
            (
                BandLayout::with_ldab(n, n, 2, 3, 9, BandStorage::Factor).unwrap(),
                mismatch("ldab", 8, 9),
            ),
        ];
        for (layout, expect) in untiled {
            let a0 = dominant_in(8, layout);
            let err = split(
                &a0,
                PivotBatch::new(4, n, n),
                rhs(4, n, nrhs),
                InfoArray::new(4),
            );
            assert_eq!(err, expect, "n={n} split");
            let forced = |algo| {
                let opts = GbsvOptions {
                    algo,
                    ..Default::default()
                };
                let mut a = a0.clone();
                let mut piv = PivotBatch::new(8, layout.m, layout.n);
                let mut b = rhs(8, n, nrhs);
                let mut info = InfoArray::new(8);
                let rep = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts);
                let rep = rep.map(|r| format!("{r:?}"));
                (rep, bits(a.data()), piv, bits(b.data()), info)
            };
            assert_eq!(
                forced(FactorAlgo::Spike),
                forced(FactorAlgo::ColumnMajor),
                "n={n} {expect:?}: forced Spike"
            );
        }
    }
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

/// The accepting side of the SPIKE storage rule: a square band in factor
/// storage with at least one off-diagonal and the minimal `ldab` passes
/// `check_storage`, the split driver solves it, and a forced `Spike`
/// through dispatch runs the split.
#[test]
fn spike_split_runs_every_layout_its_rule_accepts() {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, nrhs) = (4usize, 100usize, 2usize);
    for (kl, ku) in [(2usize, 3usize), (0, 1), (1, 0), (4, 4)] {
        let layout = BandLayout::factor(n, n, kl, ku).unwrap();
        assert_eq!(check_storage(&layout), Ok(()), "({kl},{ku})");
        let a0 = dominant_in(batch, layout);
        let b0 = rhs(batch, n, nrhs);

        let (mut a, mut b) = (a0.clone(), b0.clone());
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let params = SpikeParams::default().with_parts(2);
        spike_gbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, params).unwrap();
        assert!(info.all_ok(), "({kl},{ku}) split info");
        certify(&a0, &b0, &b, &format!("({kl},{ku}) split"));

        let opts = GbsvOptions {
            algo: FactorAlgo::Spike,
            spike: Some(params),
            ..Default::default()
        };
        let (mut a, mut b) = (a0.clone(), b0.clone());
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let rep = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts).unwrap();
        assert_eq!(rep.algo, ChosenAlgo::Spike, "({kl},{ku})");
        assert!(info.all_ok(), "({kl},{ku}) forced Spike info");
        certify(&a0, &b0, &b, &format!("({kl},{ku}) forced Spike"));
    }
}

/// The two layouts the split refuses but factoring accepts, a padded
/// `ldab` and a diagonal band, still solve under every `FactorAlgo`: a
/// forced value the call cannot offer falls back to another plan, never
/// to the split, and every answer certifies.
#[test]
fn untiled_factor_layouts_solve_under_every_algo() {
    let dev = DeviceSpec::h100_pcie();
    let (batch, nrhs) = (8usize, 2usize);
    for n in [16usize, 100] {
        let layouts = [
            BandLayout::with_ldab(n, n, 2, 3, 9, BandStorage::Factor).unwrap(),
            BandLayout::factor(n, n, 0, 0).unwrap(),
        ];
        for layout in layouts {
            assert!(check_storage(&layout).is_err());
            let a0 = dominant_in(batch, layout);
            let b0 = rhs(batch, n, nrhs);
            for algo in EVERY_ALGO {
                let what = format!("n={n} ldab={} kl+ku={} {algo:?}", layout.ldab, layout.kv());
                let opts = GbsvOptions {
                    algo,
                    ..Default::default()
                };
                let (mut a, mut b) = (a0.clone(), b0.clone());
                let mut piv = PivotBatch::new(batch, n, n);
                let mut info = InfoArray::new(batch);
                let rep = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts);
                let rep = rep.unwrap_or_else(|e| panic!("{what}: {e:?}"));
                assert_ne!(rep.algo, ChosenAlgo::Spike, "{what}");
                assert!(info.all_ok(), "{what}: info");
                certify(&a0, &b0, &b, &what);
            }
        }
    }
}

/// Every system of `x` solves `a0 x = b0` to a backward error near
/// machine precision.
fn certify(a0: &BandBatch, b0: &RhsBatch, x: &RhsBatch, what: &str) {
    let (n, ldb) = (b0.n(), b0.ldb());
    for id in 0..a0.batch() {
        for c in 0..b0.nrhs() {
            let col = |r: &RhsBatch| r.block(id)[c * ldb..c * ldb + n].to_vec();
            let berr = backward_error(a0.matrix(id), &col(x), &col(b0));
            assert!(berr < 1e-13, "{what}: id {id} col {c}: berr {berr:.2e}");
        }
    }
}
