//! Interleaved-layout equivalence suite: bitwise cross-algorithm
//! agreement with the sequential `gbtf2`/`gbtrs` ground truth (mixed
//! singular batches included), invariance under the parallel host
//! executor (1/2/8 workers), exact cost-predictor pricing at the
//! benchmark's own geometry, kernel by kernel and through `Auto`
//! dispatch, and the rule that puts the layout passes only around
//! streaming launches.

use gbatch::core::gbtf2::gbtf2;
use gbatch::core::gbtrs::{gbtrs, Transpose};
use gbatch::core::layout::BandLayout;
use gbatch::core::{BandBatch, InfoArray, PivotBatch, RhsBatch, Scalar};
use gbatch::gpu_sim::{DeviceSpec, KernelCounters, LaunchReport, ParallelPolicy, SimTime};
use gbatch::kernels::cost::{
    predict_interleave_pass, predict_interleaved_dispatch, predict_interleaved_factor,
    predict_interleaved_solve, predict_interleaved_time,
};
use gbatch::kernels::dispatch::{
    dgbsv_batch, dgbtrf_batch, dgbtrs_batch, gbsv_batch, BatchReport, ChosenAlgo, FactorAlgo,
    GbsvOptions,
};
use gbatch::kernels::interleaved::{
    deinterleave_launch, factor_mode, factor_smem_bytes, gbtrf_batch_interleaved,
    gbtrs_batch_interleaved, interleave_launch, needs_layout_passes, solve_mode, solve_smem_bytes,
    InterleavedParams, LaneTrafficMode,
};
use proptest::prelude::*;

/// Every policy the suite must be invariant under.
fn policies() -> [ParallelPolicy; 4] {
    [
        ParallelPolicy::Serial,
        ParallelPolicy::threads(1),
        ParallelPolicy::threads(2),
        ParallelPolicy::threads(8),
    ]
}

fn filled_batch(batch: usize, n: usize, kl: usize, ku: usize, seed: f64) -> BandBatch {
    let mut v = seed;
    BandBatch::from_fn(batch, n, n, kl, ku, |_, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                v = (v * 1.87 + 0.23).fract();
                m.set(i, j, v - 0.5 + if i == j { 2.0 } else { 0.0 });
            }
        }
    })
    .unwrap()
}

/// Zero the whole structural column `col` of system `id` — the update into
/// that column multiplies by U entries that are themselves zero, so the
/// factorization must flag exactly `col + 1` (1-based).
fn make_singular(a: &mut BandBatch, id: usize, col: usize) {
    let mut m = a.matrix_mut(id);
    let (s, e) = m.layout.col_rows(col);
    for i in s..e {
        m.set(i, col, 0.0);
    }
}

/// Sequential ground truth per matrix.
fn gbtf2_oracle(a: &BandBatch) -> (Vec<Vec<f64>>, Vec<Vec<i32>>, Vec<i32>) {
    let l = a.layout();
    let per = l.m.min(l.n);
    let mut fs = Vec::new();
    let mut ps = Vec::new();
    let mut is = Vec::new();
    for id in 0..a.batch() {
        let mut ab = a.matrix(id).data.to_vec();
        let mut p = vec![0i32; per];
        is.push(gbtf2(&l, &mut ab, &mut p));
        fs.push(ab);
        ps.push(p);
    }
    (fs, ps, is)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// The layout round trip is lossless bit-for-bit: the modeled pack
    /// and unpack launches leave the caller's column-major batch as it
    /// was, and each is one priced pass over the lane-chunk grid that
    /// reads and writes every band element exactly once.
    #[test]
    fn layout_roundtrip_is_lossless(
        n in 1usize..40,
        kl in 0usize..6,
        ku in 0usize..6,
        batch in 1usize..20,
        lanes in 1usize..24,
        seed in 0.0f64..1.0,
    ) {
        let kl = kl.min(n - 1);
        let ku = ku.min(n - 1);
        let a0 = filled_batch(batch, n, kl, ku, seed);
        let dev = DeviceSpec::h100_pcie();
        let params = InterleavedParams {
            lanes_per_block: lanes,
            ..InterleavedParams::auto(&dev, &a0.layout(), 0)
        };
        let a = a0.clone();
        let pack = interleave_launch(&dev, &a.layout(), a.data(), params).unwrap();
        let unpack = deinterleave_launch(&dev, &a.layout(), a.data(), params).unwrap();
        prop_assert_eq!(a.data(), a0.data());

        let bytes = (a0.layout().len() * batch * std::mem::size_of::<f64>()) as u64;
        prop_assert_eq!(pack.grid as usize, batch.div_ceil(lanes.min(batch)));
        prop_assert_eq!(pack.counters.global_read, bytes);
        prop_assert_eq!(pack.counters.global_write, bytes);
        prop_assert_eq!(unpack.grid, pack.grid);
        prop_assert_eq!(unpack.counters, pack.counters);
        prop_assert_eq!(unpack.time, pack.time);
    }

    /// The interleaved factorization is bitwise-identical to the
    /// sequential `gbtf2` on every lane for arbitrary shapes and lane
    /// geometries.
    #[test]
    fn interleaved_factor_matches_gbtf2(
        n in 2usize..32,
        kl in 0usize..5,
        ku in 0usize..5,
        batch in 1usize..16,
        lanes in 1usize..24,
        seed in 0.0f64..1.0,
    ) {
        let kl = kl.min(n - 1);
        let ku = ku.min(n - 1);
        let dev = DeviceSpec::h100_pcie();
        let a0 = filled_batch(batch, n, kl, ku, seed);
        let (fs, ps, is) = gbtf2_oracle(&a0);

        let mut back = a0.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let params = InterleavedParams {
            lanes_per_block: lanes,
            ..InterleavedParams::auto(&dev, &a0.layout(), 0)
        };
        let _ = gbtrf_batch_interleaved(&dev, &mut back, &mut piv, &mut info, params).unwrap();
        for id in 0..batch {
            prop_assert_eq!(back.matrix(id).data, &fs[id][..], "factors, lane {}", id);
            prop_assert_eq!(piv.pivots(id), &ps[id][..], "pivots, lane {}", id);
            prop_assert_eq!(info.get(id), is[id], "info, lane {}", id);
        }
    }
}

/// Mixed singular/healthy batch: the interleaved factorization matches
/// `gbtf2` bit-for-bit on *every* lane — factors, pivots and 1-based info
/// codes, singular lanes included — under serial and parallel execution.
#[test]
fn mixed_singular_batch_is_bitwise_identical_under_all_policies() {
    let dev = DeviceSpec::h100_pcie();
    for (n, kl, ku) in [(24usize, 2usize, 3usize), (40, 5, 1), (17, 0, 4)] {
        let batch = 9;
        let mut a0 = filled_batch(batch, n, kl, ku, 0.61);
        make_singular(&mut a0, 1, 4);
        make_singular(&mut a0, 4, 0);
        make_singular(&mut a0, 8, n - 1);
        let (fs, ps, is) = gbtf2_oracle(&a0);
        assert_eq!(
            is.iter().filter(|&&i| i > 0).count(),
            3,
            "three singular lanes by construction"
        );

        for policy in policies() {
            let mut back = a0.clone();
            let mut piv = PivotBatch::new(batch, n, n);
            let mut info = InfoArray::new(batch);
            let params = InterleavedParams::auto(&dev, &a0.layout(), 0).with_parallel(policy);
            let _ = gbtrf_batch_interleaved(&dev, &mut back, &mut piv, &mut info, params).unwrap();
            for id in 0..batch {
                assert_eq!(
                    back.matrix(id).data,
                    &fs[id][..],
                    "{policy:?} n {n}: factors, lane {id}"
                );
                assert_eq!(piv.pivots(id), &ps[id][..], "{policy:?} n {n}: pivots {id}");
                assert_eq!(info.get(id), is[id], "{policy:?} n {n}: info {id}");
            }
        }
    }
}

/// The interleaved triangular solve matches the sequential `gbtrs` on
/// every healthy lane bit-for-bit and leaves singular lanes' RHS
/// untouched, under every policy.
#[test]
fn interleaved_solve_matches_gbtrs_and_masks_singular_lanes() {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kl, ku, nrhs) = (7usize, 30usize, 3usize, 2usize, 2usize);
    let mut a0 = filled_batch(batch, n, kl, ku, 0.43);
    make_singular(&mut a0, 2, 10);
    let l = a0.layout();
    let (fs, ps, is) = gbtf2_oracle(&a0);
    let b0 =
        RhsBatch::from_fn(batch, n, nrhs, |id, i, k| (id * 100 + i * nrhs + k) as f64).unwrap();

    // Sequential reference solutions for the healthy lanes.
    let mut want = Vec::new();
    for id in 0..batch {
        let mut b = b0.block(id).to_vec();
        if is[id] == 0 {
            gbtrs(Transpose::No, &l, &fs[id], &ps[id], &mut b, n, nrhs);
        }
        want.push(b);
    }

    for policy in policies() {
        let mut fa = a0.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let params = InterleavedParams::auto(&dev, &l, nrhs).with_parallel(policy);
        let _ = gbtrf_batch_interleaved(&dev, &mut fa, &mut piv, &mut info, params).unwrap();
        let mut b = b0.clone();
        let _ = gbtrs_batch_interleaved(&dev, &fa.layout(), fa.data(), &piv, &mut b, &info, params)
            .unwrap();
        for id in 0..batch {
            if is[id] == 0 {
                assert_eq!(
                    b.block(id),
                    &want[id][..],
                    "{policy:?}: solution, lane {id}"
                );
            } else {
                assert_eq!(b.block(id), b0.block(id), "{policy:?}: RHS untouched, {id}");
            }
        }
    }
}

/// Dispatch-level cross-layout agreement on a mixed singular batch: the
/// forced interleaved `dgbsv` produces the same factors, pivots, info
/// codes and solutions as the forced column-major path, under every
/// policy.
#[test]
fn dispatch_layouts_agree_on_mixed_singular_batches() {
    let dev = DeviceSpec::h100_pcie();
    let (batch, n, kl, ku, nrhs) = (8usize, 36usize, 2usize, 2usize, 1usize);
    let mut a0 = filled_batch(batch, n, kl, ku, 0.77);
    make_singular(&mut a0, 3, 6);
    let b0 = RhsBatch::from_fn(batch, n, nrhs, |id, i, _| (id + i + 1) as f64).unwrap();

    let run = |algo: FactorAlgo, policy: ParallelPolicy| {
        let mut a = a0.clone();
        let mut b = b0.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        // The column-major side forces the fused factorization, not the
        // single-kernel fused GBSV, so it goes through the same
        // factor-then-solve shape (the augmented [A|B] kernel stores no
        // separate factors to compare against).
        let opts = GbsvOptions {
            algo,
            parallel: Some(policy),
            ..Default::default()
        };
        let rep = dgbsv_batch(&dev, &mut a, &mut piv, &mut b, &mut info, &opts).unwrap();
        (a, piv, b, info, rep.algo)
    };

    let (ca, cp, cb, ci, _) = run(FactorAlgo::Fused, ParallelPolicy::Serial);
    assert_eq!(ci.failures(), vec![3]);
    for policy in policies() {
        let (ia, ip, ib, ii, algo) = run(FactorAlgo::Interleaved, policy);
        assert_eq!(algo, ChosenAlgo::Interleaved);
        assert_eq!(ii, ci, "{policy:?}: info codes");
        assert_eq!(ip, cp, "{policy:?}: pivots");
        for id in 0..batch {
            if ci.get(id) == 0 {
                assert_eq!(
                    ia.matrix(id).data,
                    ca.matrix(id).data,
                    "{policy:?}: factors, lane {id}"
                );
                assert_eq!(
                    ib.block(id),
                    cb.block(id),
                    "{policy:?}: solution, lane {id}"
                );
            } else {
                assert_eq!(
                    ib.block(id),
                    b0.block(id),
                    "{policy:?}: RHS untouched, {id}"
                );
            }
        }
    }
}

/// Same values as `a`, stored at precision `S`.
fn cast_batch<S: Scalar>(a: &BandBatch) -> BandBatch<S> {
    let mut out = BandBatch::<S>::zeros_with_layout(a.layout(), a.batch()).unwrap();
    for (d, &v) in out.data_mut().iter_mut().zip(a.data()) {
        *d = S::from_f64(v);
    }
    out
}

/// Factor and solve at the benchmark's n512 (10,7) geometry with the auto
/// parameters dispatch uses, one singular lane, under `Serial` and
/// `Threads(2)`, kernel by kernel and through `Auto` `gbsv_batch`:
/// factors, pivots, info and solutions are bitwise equal to per-lane
/// `gbtf2`/`gbtrs` (the singular lane's RHS untouched), every launch's
/// counters and modeled time equal the cost predictors, and the dispatch
/// report's time is the sum of its two launches — both are windowed, so
/// there is no pack or unpack pass.
fn benchmark_geometry_case<S: Scalar>(nrhs: usize, batch: usize, want_chunks: &[usize]) {
    let dev = DeviceSpec::h100_pcie();
    let (n, kl, ku, singular) = (512usize, 10usize, 7usize, 6usize);
    let mut a64 = filled_batch(batch, n, kl, ku, 0.29);
    make_singular(&mut a64, singular, 200);
    let a0 = cast_batch::<S>(&a64);
    let l = a0.layout();
    let b0 = RhsBatch::<S>::from_fn(batch, n, nrhs, |id, i, c| {
        S::from_f64(((id * 7 + i * 3 + c) as f64 * 0.37).sin())
    })
    .unwrap();

    // Sequential ground truth.
    let mut want = Vec::new();
    for id in 0..batch {
        let mut ab = a0.matrix(id).data.to_vec();
        let mut p = vec![0i32; n];
        let info = gbtf2(&l, &mut ab, &mut p);
        let mut b = b0.block(id).to_vec();
        if info == 0 {
            gbtrs(Transpose::No, &l, &ab, &p, &mut b, n, nrhs);
        }
        want.push((ab, p, info, b));
    }
    assert_ne!(want[singular].2, 0, "lane {singular} is singular");

    let params = InterleavedParams::auto(&dev, &l, nrhs);
    let lpb = params.lanes_per_block;
    let chunks: Vec<usize> = (0..batch)
        .step_by(lpb)
        .map(|lo| lpb.min(batch - lo))
        .collect();
    assert_eq!(chunks, want_chunks, "chunk geometry");
    let t = params.threads;
    assert_eq!(factor_mode::<S>(&dev, &l, lpb), LaneTrafficMode::Windowed);
    assert_eq!(
        solve_mode::<S>(&dev, &l, nrhs, lpb),
        LaneTrafficMode::Windowed
    );
    assert!(!needs_layout_passes::<S>(
        &dev, &l, batch, nrhs, true, &params
    ));
    let fsmem = factor_smem_bytes::<S>(&l, lpb) as u32;
    let ssmem = solve_smem_bytes::<S>(&l, nrhs, lpb) as u32;
    let predicted = |smem: u32, per_chunk: &dyn Fn(usize) -> KernelCounters| {
        let mut agg = KernelCounters::default();
        for &lanes in &chunks {
            agg.merge_wave(&per_chunk(lanes));
        }
        let time = predict_interleaved_time::<S>(&dev, batch, &params, smem, per_chunk).unwrap();
        (agg, time)
    };
    let factor = predicted(fsmem, &|lanes| {
        predict_interleaved_factor::<S>(&l, lanes, t, true)
    });
    let solve = predicted(ssmem, &|lanes| {
        predict_interleaved_solve::<S>(&l, nrhs, lanes, t, true)
    });
    // `threads_spawned` is host provenance, not a modeled quantity.
    let priced = |rep: &LaunchReport| {
        let mut c = rep.counters;
        c.threads_spawned = 0;
        (c, rep.time)
    };

    let check =
        |what: &str, a: &BandBatch<S>, piv: &PivotBatch, info: &InfoArray, b: &RhsBatch<S>| {
            for (id, (ab, p, code, x)) in want.iter().enumerate() {
                assert_eq!(a.matrix(id).data, &ab[..], "{what}: factors {id}");
                assert_eq!(piv.pivots(id), &p[..], "{what}: pivots {id}");
                assert_eq!(info.get(id), *code, "{what}: info {id}");
                assert_eq!(b.block(id), &x[..], "{what}: solution {id}");
            }
            assert_eq!(
                b.block(singular),
                b0.block(singular),
                "{what}: singular RHS untouched"
            );
        };

    for policy in [ParallelPolicy::Serial, ParallelPolicy::threads(2)] {
        let params = params.with_parallel(policy);
        let mut a = a0.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let rep = gbtrf_batch_interleaved(&dev, &mut a, &mut piv, &mut info, params).unwrap();
        assert_eq!(priced(&rep), factor, "{policy:?}: factor");
        let mut b = b0.clone();
        let rep = gbtrs_batch_interleaved(&dev, &a.layout(), a.data(), &piv, &mut b, &info, params)
            .unwrap();
        assert_eq!(priced(&rep), solve, "{policy:?}: solve");
        check(&format!("{policy:?} kernels"), &a, &piv, &info, &b);

        // The same plan through `Auto` dispatch: two launches whose
        // modeled times sum to the report's.
        let mut a = a0.clone();
        let mut piv = PivotBatch::new(batch, n, n);
        let mut info = InfoArray::new(batch);
        let mut b = b0.clone();
        let opts = GbsvOptions {
            parallel: Some(policy),
            ..Default::default()
        };
        let rep = gbsv_batch::<S>(&dev, &mut a, &mut piv, &mut b, &mut info, &opts).unwrap();
        assert_eq!(rep.algo, ChosenAlgo::Interleaved, "{policy:?}: Auto layout");
        assert_eq!(rep.launches, 2, "{policy:?}: factor, solve");
        assert_eq!(rep.time, factor.1 + solve.1, "{policy:?}: time");
        check(&format!("{policy:?} dispatch"), &a, &piv, &info, &b);
    }
}

#[test]
fn benchmark_geometry_f64_ten_rhs_is_bitwise_and_priced_exactly() {
    // The solve scratch is 40 KB per lane, so auto fits 5 lanes per
    // block: chunks of 5, 5 and a partial tail of 3.
    benchmark_geometry_case::<f64>(10, 13, &[5, 5, 3]);
}

#[test]
fn benchmark_geometry_f32_one_rhs_is_bitwise_and_priced_exactly() {
    benchmark_geometry_case::<f32>(1, 13, &[13]);
}

/// The interleaved launch prices of one `Auto` call in launch order: a
/// pack pass when the plan needs one, the factor when the call factors,
/// the solve when `nrhs > 0`, an unpack pass after a factorization that
/// was packed. Also returns the launch count.
fn executed_prices(
    dev: &DeviceSpec,
    l: &BandLayout,
    batch: usize,
    nrhs: usize,
    factor: bool,
) -> (SimTime, usize) {
    let params = InterleavedParams::auto(dev, l, nrhs);
    let (t, lpb) = (params.threads, params.lanes_per_block.min(batch));
    let price = |smem: usize, per_chunk: &dyn Fn(usize) -> KernelCounters| {
        predict_interleaved_time::<f64>(dev, batch, &params, smem as u32, per_chunk).unwrap()
    };
    let passes = needs_layout_passes::<f64>(dev, l, batch, nrhs, factor, &params);
    let pass = price(0, &|lanes| predict_interleave_pass::<f64>(l, lanes, t));
    let (mut time, mut launches) = (SimTime(0.0), 0);
    if passes {
        time += pass;
        launches += 1;
    }
    if factor {
        let win = factor_mode::<f64>(dev, l, lpb) == LaneTrafficMode::Windowed;
        let smem = if win {
            factor_smem_bytes::<f64>(l, lpb)
        } else {
            0
        };
        time += price(smem, &|lanes| {
            predict_interleaved_factor::<f64>(l, lanes, t, win)
        });
        launches += 1;
    }
    if nrhs > 0 {
        let win = solve_mode::<f64>(dev, l, nrhs, lpb) == LaneTrafficMode::Windowed;
        let smem = if win {
            solve_smem_bytes::<f64>(l, nrhs, lpb)
        } else {
            0
        };
        time += price(smem, &|lanes| {
            predict_interleaved_solve::<f64>(l, nrhs, lanes, t, win)
        });
        launches += 1;
    }
    if passes && factor {
        time += pass;
        launches += 1;
    }
    (time, launches)
}

/// `Auto` `gbtrf`, `gbsv` and `gbtrs` on one shape, under `Serial` and
/// `Threads(2)`, each against a forced column-major run. Every call
/// interleaves with `launches` launches; its report time is the executed
/// launch prices in order and the plan's price, bitwise; its factors,
/// pivots, info and solutions equal the column-major run's, bitwise.
fn layout_passes_case(
    dev: &DeviceSpec,
    (n, kl, ku, batch): (usize, usize, usize, usize),
    nrhs: usize,
    passes: bool,
    launches: [usize; 3],
) {
    let a0 = filled_batch(batch, n, kl, ku, 0.47);
    let l = a0.layout();
    let b0 = RhsBatch::from_fn(batch, n, nrhs, |id, i, c| {
        ((id * 5 + i * 3 + c) as f64 * 0.29).sin()
    })
    .unwrap();
    let what = format!("{} n={n} ({kl},{ku}) batch={batch} nrhs={nrhs}", dev.name);
    for (call_nrhs, factor) in [(0, true), (nrhs, true), (nrhs, false)] {
        let params = InterleavedParams::auto(dev, &l, call_nrhs);
        assert_eq!(
            needs_layout_passes::<f64>(dev, &l, batch, call_nrhs, factor, &params),
            passes,
            "{what}: nrhs={call_nrhs} factor={factor}"
        );
    }

    // gbtrf, gbsv, then gbtrs over the gbsv factors, under one layout.
    type Run = (BandBatch, PivotBatch, InfoArray, RhsBatch, RhsBatch);
    let run = |opts: &GbsvOptions| -> ([BatchReport; 3], Run) {
        let mut af = a0.clone();
        let mut pf = PivotBatch::new(batch, n, n);
        let mut inf = InfoArray::new(batch);
        let trf = dgbtrf_batch(dev, &mut af, &mut pf, &mut inf, opts).unwrap();
        let (mut a, mut piv, mut info, mut b) = (
            a0.clone(),
            PivotBatch::new(batch, n, n),
            InfoArray::new(batch),
            b0.clone(),
        );
        let sv = dgbsv_batch(dev, &mut a, &mut piv, &mut b, &mut info, opts).unwrap();
        assert_eq!((af.data(), &pf, &inf), (a.data(), &piv, &info), "{what}");
        let mut x = b0.clone();
        let trs = dgbtrs_batch(dev, Transpose::No, &l, a.data(), &piv, &mut x, opts).unwrap();
        ([trf, sv, trs], (a, piv, info, b, x))
    };
    let column = GbsvOptions {
        algo: FactorAlgo::ColumnMajor,
        ..Default::default()
    };
    let (_, want) = run(&column);
    for policy in [ParallelPolicy::Serial, ParallelPolicy::threads(2)] {
        let auto = GbsvOptions {
            parallel: Some(policy),
            ..Default::default()
        };
        let (reps, got) = run(&auto);
        for ((rep, (call_nrhs, factor)), want_launches) in reps
            .iter()
            .zip([(0, true), (nrhs, true), (nrhs, false)])
            .zip(launches)
        {
            let call = format!("{what} {policy:?} nrhs={call_nrhs} factor={factor}");
            assert_eq!(rep.algo, ChosenAlgo::Interleaved, "{call}");
            assert_eq!(rep.launches, want_launches, "{call}");
            let (time, count) = executed_prices(dev, &l, batch, call_nrhs, factor);
            assert_eq!((rep.time, rep.launches), (time, count), "{call}: priced");
            let params = InterleavedParams::auto(dev, &l, call_nrhs);
            let planned =
                predict_interleaved_dispatch::<f64>(dev, &l, batch, call_nrhs, factor, &params);
            assert_eq!(Some(rep.time), planned, "{call}: the plan's price");
        }
        assert_eq!(got.0.data(), want.0.data(), "{what} {policy:?}: factors");
        assert_eq!(got.1, want.1, "{what} {policy:?}: pivots");
        assert_eq!(got.2, want.2, "{what} {policy:?}: info");
        assert_eq!(got.3.data(), want.3.data(), "{what} {policy:?}: gbsv x");
        assert_eq!(got.4.data(), want.4.data(), "{what} {policy:?}: gbtrs x");
    }
}

#[test]
fn windowed_plans_issue_no_layout_passes() {
    // Every launch fits its window: gbtrf 1 launch, gbsv 2, gbtrs 1.
    layout_passes_case(
        &DeviceSpec::h100_pcie(),
        (96, 2, 3, 40),
        2,
        false,
        [1, 2, 1],
    );
}

#[test]
fn streaming_plans_keep_both_layout_passes() {
    // Neither the (200,200) factor window nor a 64-column RHS panel fits
    // the H100's shared memory: gbtrf 3 launches, gbsv 4, gbtrs 2.
    layout_passes_case(
        &DeviceSpec::h100_pcie(),
        (512, 200, 200, 4),
        64,
        true,
        [3, 4, 2],
    );
}
