//! Cross-precision grid: the `Scalar`-generic refactor is observable only
//! through the new `f32` surface.
//!
//! Two families of property tests:
//!
//! - **f64 is bitwise-unchanged** — the pre-refactor double-precision
//!   stack and the generic one at `S = f64` execute the same operation
//!   sequence, so the dispatcher's output is bitwise-identical under every
//!   worker count (the seed determinism baseline, re-proved here over
//!   random shapes).
//! - **f32 kernels agree with f32 `gbtf2`** — every GPU factorization
//!   design instantiated at `f32` (fused, window, interleaved) produces
//!   the same bits as the sequential single-precision reference, and the
//!   `sgbsv_batch` driver is policy-invariant exactly like its `f64`
//!   sibling.

use gbatch::core::gbsv::gbsv;
use gbatch::core::gbtf2::gbtf2;
use gbatch::core::{BandBatch, InfoArray, PivotBatch, RhsBatch};
use gbatch::gpu_sim::{DeviceSpec, ParallelPolicy};
use gbatch::kernels::dispatch::{dgbsv_batch, sgbsv_batch, GbsvOptions};
use gbatch::kernels::fused::{gbtrf_batch_fused, FusedParams};
use gbatch::kernels::interleaved::{gbtrf_batch_interleaved, InterleavedParams};
use gbatch::kernels::window::{gbtrf_batch_window, WindowParams};
use proptest::prelude::*;

const WORKERS: [ParallelPolicy; 3] = [
    ParallelPolicy::Threads(1),
    ParallelPolicy::Threads(2),
    ParallelPolicy::Threads(8),
];

/// Strategy: valid square band problems small enough for fast shrinking.
fn band_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (2usize..32).prop_flat_map(|n| {
        let kmax = n - 1;
        ((Just(n)), 0..=kmax.min(6), 0..=kmax.min(6))
    })
}

/// Deterministic f32 batch from a value pool; the diagonal boost keeps
/// partial pivoting away from exact ties (which are still deterministic,
/// just less interesting to shrink).
fn fill_batch_f32(batch: usize, n: usize, kl: usize, ku: usize, values: &[f64]) -> BandBatch<f32> {
    let mut k = 0usize;
    BandBatch::<f32>::from_fn(batch, n, n, kl, ku, |_, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                let v = values[k % values.len()] as f32 + if i == j { 3.0 } else { 0.0 };
                m.set(i, j, v);
                k += 1;
            }
        }
    })
    .unwrap()
}

fn fill_batch_f64(batch: usize, n: usize, kl: usize, ku: usize, values: &[f64]) -> BandBatch {
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
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// f32 fused and window kernels agree bit-for-bit with the sequential
    /// single-precision reference factorization.
    #[test]
    fn f32_fused_and_window_match_f32_gbtf2((n, kl, ku) in band_dims(),
                                            nb in 1usize..16,
                                            vals in proptest::collection::vec(-1.0f64..1.0, 16)) {
        let dev = DeviceSpec::h100_pcie();
        let batch = 2usize;
        let a0 = fill_batch_f32(batch, n, kl, ku, &vals);
        let l = a0.layout();

        // Sequential f32 oracle, one matrix at a time.
        let mut oracle = a0.clone();
        let mut opiv = PivotBatch::new(batch, n, n);
        let mut oinfo = Vec::new();
        let stride = l.len();
        for id in 0..batch {
            let ab = &mut oracle.data_mut()[id * stride..(id + 1) * stride];
            oinfo.push(gbtf2::<f32>(&l, ab, opiv.pivots_mut(id)));
        }

        let mut a1 = a0.clone();
        let mut p1 = PivotBatch::new(batch, n, n);
        let mut i1 = InfoArray::new(batch);
        let _ = gbtrf_batch_fused(&dev, &mut a1, &mut p1, &mut i1, FusedParams::auto(&dev, kl)).unwrap();
        prop_assert_eq!(a1.data(), oracle.data(), "fused f32 factors");
        prop_assert_eq!(&p1, &opiv, "fused f32 pivots");
        prop_assert_eq!(i1.as_slice(), &oinfo[..], "fused f32 info");

        let mut a2 = a0.clone();
        let mut p2 = PivotBatch::new(batch, n, n);
        let mut i2 = InfoArray::new(batch);
        let params = WindowParams { nb, ..WindowParams::auto(&dev, kl) };
        let _ = gbtrf_batch_window(&dev, &mut a2, &mut p2, &mut i2, params).unwrap();
        prop_assert_eq!(a2.data(), oracle.data(), "window f32 factors");
        prop_assert_eq!(&p2, &opiv, "window f32 pivots");
    }

    /// The interleaved (batch-major) f32 factorization produces the same
    /// bits as the column-major f32 reference.
    #[test]
    fn f32_interleaved_matches_f32_gbtf2((n, kl, ku) in band_dims(),
                                         lanes in 1usize..5,
                                         vals in proptest::collection::vec(-1.0f64..1.0, 16)) {
        let dev = DeviceSpec::h100_pcie();
        let batch = 3usize;
        let a0 = fill_batch_f32(batch, n, kl, ku, &vals);
        let l = a0.layout();

        let mut oracle = a0.clone();
        let mut opiv = PivotBatch::new(batch, n, n);
        let stride = l.len();
        for id in 0..batch {
            let ab = &mut oracle.data_mut()[id * stride..(id + 1) * stride];
            let _ = gbtf2::<f32>(&l, ab, opiv.pivots_mut(id));
        }

        let mut back = a0.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let params = InterleavedParams {
            lanes_per_block: lanes,
            ..InterleavedParams::auto_for::<f32>(&dev, &l, 1)
        };
        let _ = gbtrf_batch_interleaved(&dev, &mut back, &mut piv, &mut info, params).unwrap();
        prop_assert_eq!(back.data(), oracle.data(), "interleaved f32 factors");
        prop_assert_eq!(&piv, &opiv, "interleaved f32 pivots");
    }

    /// The f64 dispatcher is bitwise worker-count-invariant — the seed
    /// determinism baseline survives the generic refactor.
    #[test]
    fn f64_dispatch_bitwise_invariant_across_workers((n, kl, ku) in band_dims(),
                                                     vals in proptest::collection::vec(-1.0f64..1.0, 16)) {
        let dev = DeviceSpec::h100_pcie();
        let batch = 4usize;
        let a0 = fill_batch_f64(batch, n, kl, ku, &vals);
        let b0 = RhsBatch::from_fn(batch, n, 1, |id, i, _| ((id * 5 + i) as f64 * 0.23).sin()).unwrap();

        let run = |policy: ParallelPolicy| {
            let mut a = a0.clone();
            let mut b = b0.clone();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let opts = GbsvOptions { parallel: Some(policy), ..GbsvOptions::default() };
            let rep = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts).unwrap();
            (a, b, piv, info.as_slice().to_vec(), rep.time.secs().to_bits())
        };
        let serial = run(ParallelPolicy::Serial);
        for policy in WORKERS {
            let par = run(policy);
            prop_assert_eq!(serial.0.data(), par.0.data(), "factors under {:?}", policy);
            prop_assert_eq!(serial.1.data(), par.1.data(), "solutions under {:?}", policy);
            prop_assert_eq!(&serial.2, &par.2, "pivots under {:?}", policy);
            prop_assert_eq!(&serial.3, &par.3, "info under {:?}", policy);
            prop_assert_eq!(serial.4, par.4, "modeled time bits under {:?}", policy);
        }
    }

    /// `sgbsv_batch` is policy-invariant and agrees bitwise with the
    /// sequential f32 driver.
    #[test]
    fn f32_dispatch_bitwise_invariant_and_matches_f32_gbsv((n, kl, ku) in band_dims(),
                                                           vals in proptest::collection::vec(-1.0f64..1.0, 16)) {
        let dev = DeviceSpec::h100_pcie();
        let batch = 4usize;
        let a0 = fill_batch_f32(batch, n, kl, ku, &vals);
        let b0 = RhsBatch::<f32>::from_fn(batch, n, 1, |id, i, _| (((id * 5 + i) as f64 * 0.23).sin()) as f32).unwrap();
        let l = a0.layout();

        // Sequential f32 oracle.
        let mut oab = a0.clone();
        let mut ob = b0.clone();
        let mut opiv = PivotBatch::new(batch, n, n);
        let stride = l.len();
        for id in 0..batch {
            let ab = &mut oab.data_mut()[id * stride..(id + 1) * stride];
            let _ = gbsv::<f32>(&l, ab, opiv.pivots_mut(id), ob.block_mut(id), n, 1);
        }

        let run = |policy: ParallelPolicy| {
            let mut a = a0.clone();
            let mut b = b0.clone();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let opts = GbsvOptions { parallel: Some(policy), ..GbsvOptions::default() };
            let _ = sgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts).unwrap();
            (a, b, piv, info.as_slice().to_vec())
        };
        let serial = run(ParallelPolicy::Serial);
        prop_assert_eq!(serial.1.data(), ob.data(), "sgbsv vs sequential f32 gbsv");
        prop_assert_eq!(&serial.2, &opiv, "sgbsv pivots vs sequential f32");
        for policy in WORKERS {
            let par = run(policy);
            prop_assert_eq!(serial.0.data(), par.0.data(), "f32 factors under {:?}", policy);
            prop_assert_eq!(serial.1.data(), par.1.data(), "f32 solutions under {:?}", policy);
            prop_assert_eq!(&serial.2, &par.2, "f32 pivots under {:?}", policy);
            prop_assert_eq!(&serial.3, &par.3, "f32 info under {:?}", policy);
        }
    }
}
