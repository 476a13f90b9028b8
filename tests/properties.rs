//! Property-based tests (proptest) over the core invariants:
//! layout round-trips, factorization equivalence across kernel designs,
//! solve backward errors, pivot bounds, and occupancy monotonicity.

use gbatch::core::gbtrs::{gbtrs, Transpose};
use gbatch::core::residual::backward_error;
use gbatch::core::{BandBatch, BandMatrix, InfoArray, PivotBatch, RhsBatch};
use gbatch::gpu_sim::ParallelPolicy;
use gbatch::gpu_sim::{occupancy, DeviceSpec};
use gbatch::kernels::dispatch::{dgbsv_batch, GbsvOptions};
use gbatch::kernels::fused::{gbtrf_batch_fused, FusedParams};
use gbatch::kernels::gbtrs_blocked::SolveParams;
use gbatch::kernels::gbtrs_trans::gbtrs_batch_blocked_trans;
use gbatch::kernels::reference::gbtrf_batch_reference;
use gbatch::kernels::window::{gbtrf_batch_window, WindowParams};
use proptest::prelude::*;

/// Strategy: valid square band problems small enough for fast shrinking.
fn band_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (2usize..40).prop_flat_map(|n| {
        let kmax = n - 1;
        ((Just(n)), 0..=kmax.min(8), 0..=kmax.min(8))
    })
}

fn fill_batch(batch: usize, n: usize, kl: usize, ku: usize, values: &[f64]) -> BandBatch {
    let mut k = 0usize;
    BandBatch::from_fn(batch, n, n, kl, ku, |_, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                let v = values[k % values.len()] + if i == j { 3.0 } else { 0.0 };
                m.set(i, j, v);
                k += 1;
            }
        }
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Dense round-trip: band -> dense -> band is the identity.
    #[test]
    fn dense_roundtrip((n, kl, ku) in band_dims(), seed in 0.0f64..1.0) {
        let mut a = BandMatrix::zeros_factor(n, n, kl, ku).unwrap();
        let mut v = seed;
        for j in 0..n {
            let (s, e) = a.layout().col_rows(j);
            for i in s..e {
                v = (v * 1.61 + 0.313).fract();
                a.set(i, j, v - 0.5);
            }
        }
        let d = a.to_dense();
        let b = BandMatrix::from_dense(n, n, kl, ku, &d).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Every GPU factorization design produces identical factors + pivots
    /// (bit-for-bit) for arbitrary band shapes and window block sizes.
    #[test]
    fn kernel_designs_agree((n, kl, ku) in band_dims(),
                            nb in 1usize..24,
                            vals in proptest::collection::vec(-1.0f64..1.0, 16)) {
        let dev = DeviceSpec::h100_pcie();
        let batch = 2;
        let a0 = fill_batch(batch, n, kl, ku, &vals);

        let mut a1 = a0.clone();
        let mut p1 = PivotBatch::new(batch, n, n);
        let mut i1 = InfoArray::new(batch);
        let _ = gbtrf_batch_fused(&dev, &mut a1, &mut p1, &mut i1, FusedParams::auto(&dev, kl)).unwrap();

        let mut a2 = a0.clone();
        let mut p2 = PivotBatch::new(batch, n, n);
        let mut i2 = InfoArray::new(batch);
        let _ = gbtrf_batch_window(&dev, &mut a2, &mut p2, &mut i2, WindowParams { nb, threads: 32, ..Default::default() })
            .unwrap();

        prop_assert_eq!(a1.data(), a2.data());
        prop_assert_eq!(p1, p2);
        prop_assert_eq!(i1, i2);
    }

    /// Cross-algorithm equivalence against the sequential ground truth:
    /// for random `(n, kl, ku, batch)` the fused, sliding-window, and
    /// fork-join reference designs all reproduce `gbtf2` bit-for-bit —
    /// factors, pivots, and info — and stay bitwise-identical when the
    /// host executor runs the blocks on several threads.
    #[test]
    fn all_designs_match_gbtf2((n, kl, ku) in band_dims(),
                               batch in 1usize..6,
                               nb in 1usize..16,
                               vals in proptest::collection::vec(-1.0f64..1.0, 24)) {
        let dev = DeviceSpec::h100_pcie();
        let a0 = fill_batch(batch, n, kl, ku, &vals);
        let l = a0.layout();

        // Ground truth: sequential LAPACK-style gbtf2, one matrix at a time.
        let expected: Vec<(Vec<f64>, Vec<i32>, i32)> = (0..batch).map(|id| {
            let mut ab = a0.matrix(id).data.to_vec();
            let mut p = vec![0i32; n];
            let info = gbatch::core::gbtf2::gbtf2(&l, &mut ab, &mut p);
            (ab, p, info)
        }).collect();

        let policy = ParallelPolicy::threads(4);
        let mut runs: Vec<(&str, BandBatch, PivotBatch, InfoArray)> = Vec::new();
        {
            let mut a = a0.clone();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let _ = gbtrf_batch_fused(&dev, &mut a, &mut piv, &mut info,
                              FusedParams::auto(&dev, kl).with_parallel(policy)).unwrap();
            runs.push(("fused", a, piv, info));
        }
        {
            let mut a = a0.clone();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let _ = gbtrf_batch_window(&dev, &mut a, &mut piv, &mut info,
                               WindowParams { nb, threads: 32, parallel: policy }).unwrap();
            runs.push(("window", a, piv, info));
        }
        {
            let mut a = a0.clone();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            gbtrf_batch_reference(&dev, &mut a, &mut piv, &mut info, policy).unwrap();
            runs.push(("reference", a, piv, info));
        }
        for (name, a, piv, info) in &runs {
            for (id, exp) in expected.iter().enumerate() {
                prop_assert_eq!(a.matrix(id).data, &exp.0[..],
                                "{} factors (n={} kl={} ku={} id={})", name, n, kl, ku, id);
                prop_assert_eq!(piv.pivots(id), &exp.1[..],
                                "{} pivots (n={} kl={} ku={} id={})", name, n, kl, ku, id);
                prop_assert_eq!(info.get(id), exp.2,
                                "{} info (n={} kl={} ku={} id={})", name, n, kl, ku, id);
            }
        }
    }

    /// Solutions from the full driver have small backward error whenever
    /// the factorization is nonsingular, for any nrhs.
    #[test]
    fn gbsv_backward_error((n, kl, ku) in band_dims(),
                           nrhs in 1usize..4,
                           vals in proptest::collection::vec(-1.0f64..1.0, 32)) {
        let dev = DeviceSpec::mi250x_gcd();
        let batch = 3;
        let a0 = fill_batch(batch, n, kl, ku, &vals);
        let b0 = RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
            ((id * 13 + i * 3 + c * 7) as f64 * 0.23).sin()
        }).unwrap();
        let (mut a, mut b) = (a0.clone(), b0.clone());
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let _ = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &GbsvOptions::default()).unwrap();
        for id in 0..batch {
            if info.get(id) != 0 { continue; }
            for c in 0..nrhs {
                let x = &b.block(id)[c * n..(c + 1) * n];
                let r = &b0.block(id)[c * n..(c + 1) * n];
                let berr = backward_error(a0.matrix(id), x, r);
                // Strict tolerance, annotated: random bands here are only
                // mildly diagonally shifted (+3 on the diagonal), so the
                // bound is looser than the dispatch tests' 1e-11 but still
                // catches any real pivoting or update-order regression.
                prop_assert!(berr < 1e-9, "berr {} (n={} kl={} ku={})", berr, n, kl, ku);
            }
        }
    }

    /// Pivot offsets never exceed the column's sub-diagonal count, and the
    /// pivot row index never exceeds `j + kl`.
    #[test]
    fn pivot_bounds((n, kl, ku) in band_dims(),
                    vals in proptest::collection::vec(-1.0f64..1.0, 16)) {
        let dev = DeviceSpec::h100_pcie();
        let a0 = fill_batch(1, n, kl, ku, &vals);
        let mut a = a0.clone();
        let mut piv = PivotBatch::new(1, n, n);
        let mut info = InfoArray::new(1);
        let _ = gbtrf_batch_fused(&dev, &mut a, &mut piv, &mut info, FusedParams::auto(&dev, kl)).unwrap();
        for (j, &p) in piv.pivots(0).iter().enumerate() {
            let p = p as usize;
            prop_assert!(p >= j, "pivot row below the diagonal step");
            prop_assert!(p <= j + kl, "pivot row {} beyond j + kl", p);
            prop_assert!(p < n);
        }
    }

    /// Occupancy is monotone non-increasing in the shared-memory request
    /// and never exceeds device caps.
    #[test]
    fn occupancy_monotone(smem1 in 1u32..100_000, smem2 in 1u32..100_000, threads in 1u32..1024) {
        let dev = DeviceSpec::h100_pcie();
        let (lo, hi) = if smem1 <= smem2 { (smem1, smem2) } else { (smem2, smem1) };
        match (occupancy::occupancy(&dev, threads, lo), occupancy::occupancy(&dev, threads, hi)) {
            (Some(a), Some(b)) => {
                prop_assert!(a.blocks_per_sm >= b.blocks_per_sm);
                prop_assert!(a.blocks_per_sm <= dev.max_blocks_per_sm);
            }
            (None, Some(_)) => prop_assert!(false, "smaller request failed while larger passed"),
            _ => {}
        }
    }

    /// The `U` factor's bandwidth after factorization never exceeds
    /// `kl + ku` (fill-in stays within the reserved rows).
    #[test]
    fn fill_in_stays_in_reserved_rows((n, kl, ku) in band_dims(),
                                      vals in proptest::collection::vec(-1.0f64..1.0, 16)) {
        let a0 = fill_batch(1, n, kl, ku, &vals);
        let l = a0.layout();
        let mut ab = a0.matrix(0).data.to_vec();
        let mut piv = vec![0i32; n];
        gbatch::core::gbtf2::gbtf2(&l, &mut ab, &mut piv);
        // Every stored factor entry lives in band rows [0, ldab); U's
        // topmost reachable row for column j is max(0, kv - j). Rows above
        // that must still hold the zeros the fill-in logic wrote (or the
        // untouched input — but we zero-initialized, so: zero).
        let kv = l.kv();
        for j in 0..n {
            let top = kv.saturating_sub(j);
            for r in 0..top {
                prop_assert_eq!(ab[l.idx(r, j)], 0.0,
                    "untouchable fill row ({}, {}) was written", r, j);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The blocked transpose solve equals the sequential transpose solve
    /// bit-for-bit for arbitrary shapes, block sizes and RHS counts.
    #[test]
    fn transpose_solve_matches_core((n, kl, ku) in band_dims(),
                                    nb in 1usize..16,
                                    nrhs in 1usize..4,
                                    vals in proptest::collection::vec(-1.0f64..1.0, 24)) {
        let dev = DeviceSpec::h100_pcie();
        let batch = 2;
        let mut fac = fill_batch(batch, n, kl, ku, &vals);
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let _ = gbtrf_batch_fused(&dev, &mut fac, &mut piv, &mut info, FusedParams::auto(&dev, kl)).unwrap();
        prop_assume!(info.all_ok());
        let l = fac.layout();
        let mut rhs = RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
            ((id * 5 + i * 2 + c) as f64 * 0.31).cos()
        }).unwrap();
        let mut expect = rhs.clone();
        for id in 0..batch {
            gbtrs(Transpose::Yes, &l, fac.matrix(id).data, piv.pivots(id),
                  expect.block_mut(id), n, nrhs);
        }
        gbtrs_batch_blocked_trans(&dev, &l, fac.data(), &piv, &mut rhs,
                                  SolveParams { nb, threads: 32, ..Default::default() }).unwrap();
        prop_assert_eq!(rhs.data(), expect.data());
    }

    /// The specialized register-file kernels agree with the generic path
    /// for every compiled band shape.
    #[test]
    fn specialized_matches_generic(n in 2usize..48,
                                   shape_idx in 0usize..5,
                                   vals in proptest::collection::vec(-1.0f64..1.0, 16)) {
        let shapes = [(1usize, 1usize), (2, 2), (2, 3), (3, 3), (10, 7)];
        let (kl, ku) = shapes[shape_idx];
        prop_assume!(kl < n && ku < n);
        let dev = DeviceSpec::h100_pcie();
        let a0 = fill_batch(2, n, kl, ku, &vals);
        let mut a1 = a0.clone();
        let mut p1 = PivotBatch::new(2, n, n);
        let mut i1 = InfoArray::new(2);
        let _ = gbatch::kernels::specialized::specialized_gbtrf(&dev, &mut a1, &mut p1, &mut i1, 32)
            .expect("compiled shape").unwrap();
        let mut a2 = a0.clone();
        let mut p2 = PivotBatch::new(2, n, n);
        let mut i2 = InfoArray::new(2);
        let _ = gbtrf_batch_fused(&dev, &mut a2, &mut p2, &mut i2, FusedParams::auto(&dev, kl)).unwrap();
        prop_assert_eq!(a1.data(), a2.data());
        prop_assert_eq!(p1, p2);
        prop_assert_eq!(i1, i2);
    }

    /// Iterative refinement never worsens the componentwise backward error.
    #[test]
    fn refinement_never_regresses((n, kl, ku) in band_dims(),
                                  vals in proptest::collection::vec(-1.0f64..1.0, 24)) {
        let a = fill_batch(1, n, kl, ku, &vals);
        let m = a.matrix(0).to_owned();
        let l = m.layout();
        let mut ab = m.data().to_vec();
        let mut piv = vec![0i32; n];
        prop_assume!(gbatch::core::gbtf2::gbtf2(&l, &mut ab, &mut piv) == 0);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let mut x = b.clone();
        gbtrs(Transpose::No, &l, &ab, &piv, &mut x, n, 1);
        let before = gbatch::core::gbrfs::componentwise_berr(m.as_ref(), &x, &b);
        let res = gbatch::core::gbrfs::gbrfs(m.as_ref(), &l, &ab, &piv, &b, &mut x);
        prop_assert!(res.berr <= before * (1.0 + 1e-12),
                     "berr {} -> {}", before, res.berr);
    }
}
