//! Proptest grid for the lane-width abstraction: every chunked
//! (SIMD-style) hot path must be **bitwise** equal to its scalar loop at
//! both precisions — the chunked sweeps only regroup independent lanes,
//! they never reassociate an accumulation. The grid deliberately draws
//! vector lengths and batch sizes that are *not* multiples of
//! [`LANE_WIDTH`] (remainder loops included) and poisons lanes into
//! singularity so the zero-pivot skips are exercised under every mask shape.

use gbatch::core::blas1::{axpy, scal};
use gbatch::core::blas2::{gbmv, gemv, ger};
use gbatch::core::gbtf2::gbtf2;
use gbatch::core::{
    with_lane_mode, BandBatch, BandMatrixRef, InfoArray, LaneMode, PivotBatch, RhsBatch, Scalar,
    LANE_WIDTH,
};
use gbatch::gpu_sim::DeviceSpec;
use gbatch::kernels::interleaved::{
    gbtrf_batch_interleaved, gbtrs_batch_interleaved, InterleavedParams,
};
use proptest::prelude::*;

const MODES: [LaneMode; 2] = [LaneMode::Scalar, LaneMode::Chunked];

fn cast<S: Scalar>(v: &[f64]) -> Vec<S> {
    v.iter().map(|&x| S::from_f64(x)).collect()
}

fn bits<S: Scalar>(v: &[S]) -> Vec<u64> {
    v.iter().map(|&x| x.to_f64().to_bits()).collect()
}

/// BLAS-1: `scal` then `axpy` under both lane modes, any length.
fn blas1_case<S: Scalar>(alpha: f64, xs: &[f64], ys: &[f64]) -> Vec<Vec<u64>> {
    MODES
        .iter()
        .map(|&mode| {
            with_lane_mode(mode, || {
                let mut x: Vec<S> = cast(xs);
                let mut y: Vec<S> = cast(ys);
                scal(S::from_f64(alpha), &mut x);
                axpy(S::from_f64(alpha), &x, &mut y);
                let mut out = bits(&x);
                out.extend(bits(&y));
                out
            })
        })
        .collect()
}

/// BLAS-2: band matrix-vector product, rank-one update, dense `gemv`.
fn blas2_case<S: Scalar>(n: usize, kl: usize, ku: usize, vals: &[f64]) -> Vec<Vec<u64>> {
    let a0 = BandBatch::<S>::from_fn(1, n, n, kl, ku, |_, m| {
        let mut k = 0usize;
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                m.set(i, j, S::from_f64(vals[k % vals.len()] - 0.5));
                k += 1;
            }
        }
    })
    .unwrap();
    let x: Vec<S> = (0..n).map(|i| S::from_f64(vals[i % vals.len()])).collect();
    MODES
        .iter()
        .map(|&mode| {
            with_lane_mode(mode, || {
                let a = BandMatrixRef {
                    layout: a0.layout(),
                    data: a0.data(),
                };
                let mut y: Vec<S> = cast(&vec![0.25f64; n]);
                gbmv(S::from_f64(1.5), a, &x, S::from_f64(-0.5), &mut y);
                let mut dense: Vec<S> = (0..n * n)
                    .map(|k| S::from_f64(vals[k % vals.len()]))
                    .collect();
                ger(n, n, S::from_f64(0.75), &y, &x, &mut dense, n);
                let mut z: Vec<S> = cast(&vec![0.125f64; n]);
                gemv(n, n, S::ONE, &dense, n, &x, S::ZERO, &mut z);
                let mut out = bits(&y);
                out.extend(bits(&dense));
                out.extend(bits(&z));
                out
            })
        })
        .collect()
}

/// Sequential band LU (`gbtf2`): the chunked `scal`/rank-one column steps
/// against the scalar ones, optionally with a singular leading column.
fn gbtf2_case<S: Scalar>(
    n: usize,
    kl: usize,
    ku: usize,
    vals: &[f64],
    poison: bool,
) -> Vec<(Vec<u64>, Vec<i32>, i32)> {
    let a0 = BandBatch::<S>::from_fn(1, n, n, kl, ku, |_, m| {
        let mut k = 0usize;
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                let v = if poison && j == 0 {
                    0.0
                } else {
                    vals[k % vals.len()] - 0.5
                };
                m.set(i, j, S::from_f64(v));
                k += 1;
            }
        }
    })
    .unwrap();
    MODES
        .iter()
        .map(|&mode| {
            with_lane_mode(mode, || {
                let mut ab = a0.data().to_vec();
                let mut piv = vec![0i32; n];
                let code = gbtf2(&a0.layout(), &mut ab, &mut piv);
                (bits(&ab), piv, code)
            })
        })
        .collect()
}

/// One lane-mode observation of the interleaved pipeline: factor bits,
/// pivots, info codes, and solution bits.
type InterleavedObservation = (Vec<u64>, PivotBatch, Vec<i32>, Vec<u64>);

/// Interleaved factor + solve under each lane mode, scoped on the calling
/// thread (the kernels run `gbtf2`/`gbtrs` per lane, which honour it):
/// arbitrary batch size (remainder chunks), arbitrary singular-lane mask,
/// both precisions.
fn interleaved_case<S: Scalar>(
    batch: usize,
    lanes_per_block: usize,
    vals: &[f64],
    poison: &[usize],
) -> Vec<InterleavedObservation> {
    let (n, kl, ku, nrhs) = (12usize, 2usize, 3usize, 2usize);
    let dev = DeviceSpec::h100_pcie();
    let a0 = BandBatch::<S>::from_fn(batch, n, n, kl, ku, |id, m| {
        let mut k = id * 7;
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                let v = if poison.contains(&id) && j == 0 {
                    0.0
                } else {
                    vals[k % vals.len()] - 0.5
                };
                m.set(i, j, S::from_f64(v));
                k += 1;
            }
        }
    })
    .unwrap();
    let rhs0 = RhsBatch::<S>::from_fn(batch, n, nrhs, |id, i, c| {
        S::from_f64(((id * 17 + c * 5 + i) as f64 * 0.73).sin())
    })
    .unwrap();
    let params = InterleavedParams {
        lanes_per_block,
        ..Default::default()
    };
    MODES
        .iter()
        .map(|&mode| {
            with_lane_mode(mode, || {
                let mut fa = a0.clone();
                let mut piv = PivotBatch::new(batch, n, n);
                let mut info = InfoArray::new(batch);
                let _ =
                    gbtrf_batch_interleaved(&dev, &mut fa, &mut piv, &mut info, params).unwrap();
                let mut rhs = rhs0.clone();
                let _ = gbtrs_batch_interleaved(
                    &dev,
                    &fa.layout(),
                    fa.data(),
                    &piv,
                    &mut rhs,
                    &info,
                    params,
                )
                .unwrap();
                (
                    bits(fa.data()),
                    piv,
                    info.as_slice().to_vec(),
                    bits(rhs.data()),
                )
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn blas1_chunked_is_bitwise_scalar(
        alpha in -2.0f64..2.0,
        v in proptest::collection::vec(-1.0f64..1.0, 1..3 * LANE_WIDTH + 3),
    ) {
        let ys: Vec<f64> = v.iter().map(|x| x * 0.7 + 0.01).collect();
        let f64_runs = blas1_case::<f64>(alpha, &v, &ys);
        prop_assert_eq!(&f64_runs[0], &f64_runs[1], "f64 blas1 diverged");
        let f32_runs = blas1_case::<f32>(alpha, &v, &ys);
        prop_assert_eq!(&f32_runs[0], &f32_runs[1], "f32 blas1 diverged");
    }

    #[test]
    fn blas2_chunked_is_bitwise_scalar(
        n in 1usize..3 * LANE_WIDTH + 2,
        kl in 0usize..6,
        ku in 0usize..6,
        vals in proptest::collection::vec(0.05f64..1.0, 8..32),
    ) {
        let kl = kl.min(n - 1);
        let ku = ku.min(n - 1);
        let f64_runs = blas2_case::<f64>(n, kl, ku, &vals);
        prop_assert_eq!(&f64_runs[0], &f64_runs[1], "f64 blas2 diverged");
        let f32_runs = blas2_case::<f32>(n, kl, ku, &vals);
        prop_assert_eq!(&f32_runs[0], &f32_runs[1], "f32 blas2 diverged");
    }

    #[test]
    fn gbtf2_chunked_is_bitwise_scalar(
        n in 2usize..40,
        kl in 0usize..8,
        ku in 0usize..8,
        vals in proptest::collection::vec(0.05f64..1.0, 8..32),
        poison_sel in 0usize..2,
    ) {
        let kl = kl.min(n - 1);
        let ku = ku.min(n - 1);
        let poison = poison_sel == 1;
        let f64_runs = gbtf2_case::<f64>(n, kl, ku, &vals, poison);
        prop_assert_eq!(&f64_runs[0], &f64_runs[1], "f64 gbtf2 diverged");
        if poison && kl > 0 {
            prop_assert!(f64_runs[0].2 > 0, "poisoned column must be flagged");
        }
        let f32_runs = gbtf2_case::<f32>(n, kl, ku, &vals, poison);
        prop_assert_eq!(&f32_runs[0], &f32_runs[1], "f32 gbtf2 diverged");
    }

    #[test]
    fn interleaved_chunked_is_bitwise_scalar(
        batch in 1usize..4 * LANE_WIDTH + 5,
        lpb_sel in 0usize..3,
        vals in proptest::collection::vec(0.05f64..1.0, 8..32),
        mask in proptest::collection::vec(0usize..37, 0..4),
    ) {
        // Lanes-per-block straddling LANE_WIDTH: below, at, and above it.
        let lpb = [LANE_WIDTH - 3, LANE_WIDTH, 2 * LANE_WIDTH + 1][lpb_sel];
        let poison: Vec<usize> = mask.iter().map(|&i| i % batch).collect();
        let f64_runs = interleaved_case::<f64>(batch, lpb, &vals, &poison);
        prop_assert_eq!(&f64_runs[0], &f64_runs[1], "f64 interleaved diverged");
        for &id in &poison {
            prop_assert!(f64_runs[0].2[id] > 0, "poisoned lane {id} must be flagged");
        }
        let f32_runs = interleaved_case::<f32>(batch, lpb, &vals, &poison);
        prop_assert_eq!(&f32_runs[0], &f32_runs[1], "f32 interleaved diverged");
    }
}
