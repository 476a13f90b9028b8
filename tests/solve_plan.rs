//! The solve-only plan. Under `Auto`, `gbtrs_batch` and
//! `gbtrs_batch_lanes` price the blocked column-major solve against the
//! interleaved solve (after a pack pass only when the solve streams), and
//! run the cheaper. This suite checks:
//!
//! - the choice at the `serve_timestep` geometry ((128,2,3), batch 64),
//!   at the raw-speed trajectory's (n = 16, (2,3), batch 4096), both
//!   interleaved, and at n = 64, (2,3), batch 4096 on the MI250x GCD,
//!   where the blocked solve wins;
//! - the interleaved report against the predictors, bitwise, for a
//!   windowed and a streaming solve;
//! - the solutions against a forced column-major run, bitwise, under the
//!   serial and a threaded executor;
//! - that a forced algorithm, a forced column-major layout and the
//!   transpose solve keep the blocked kernels.

use gbatch::core::gbtrs::Transpose;
use gbatch::core::{BandBatch, InfoArray, PivotBatch, RhsBatch, Scalar};
use gbatch::gpu_sim::{registry, DeviceSpec, ParallelPolicy};
use gbatch::kernels::cost::{
    predict_interleave_pass, predict_interleaved_dispatch, predict_interleaved_solve,
    predict_interleaved_time,
};
use gbatch::kernels::dispatch::{
    gbtrf_batch, gbtrs_batch, gbtrs_batch_lanes, BatchReport, ChosenAlgo, FactorAlgo, GbsvOptions,
};
use gbatch::kernels::interleaved::{
    solve_mode, solve_smem_bytes, InterleavedParams, LaneTrafficMode,
};

/// `(n, kl, ku, batch)` of a `serve_timestep` warm flush.
const TIMESTEP: (usize, usize, usize, usize) = (128, 2, 3, 64);
/// `(n, kl, ku, batch)` of the raw-speed trajectory.
const RAW_SPEED: (usize, usize, usize, usize) = (16, 2, 3, 4096);
/// `(n, kl, ku, batch)` where the MI250x GCD keeps the blocked solve.
const BLOCKED: (usize, usize, usize, usize) = (64, 2, 3, 4096);
/// `(n, kl, ku, batch)` of a solve whose 64-column RHS panel does not fit
/// the H100's shared memory, so it streams.
const STREAMING: (usize, usize, usize, usize) = (512, 2, 3, 4);

fn h100() -> DeviceSpec {
    registry::device(registry::H100_PCIE).unwrap()
}

fn mi250x() -> DeviceSpec {
    registry::device(registry::MI250X_GCD).unwrap()
}

/// A diagonally dominant batch, factored with the default options.
fn factored<S: Scalar>(
    dev: &DeviceSpec,
    (n, kl, ku, batch): (usize, usize, usize, usize),
) -> (BandBatch<S>, PivotBatch) {
    let mut a = BandBatch::<S>::from_fn(batch, n, n, kl, ku, |id, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            let mut sum = 0.0;
            for i in (s..e).filter(|&i| i != j) {
                let v = ((i * 7 + j * 3 + id) % 5) as f64 * 0.1 + 0.05;
                sum += v;
                m.set(i, j, S::from_f64(v));
            }
            m.set(j, j, S::from_f64(sum + 1.0));
        }
    })
    .unwrap();
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let _ = gbtrf_batch::<S>(dev, &mut a, &mut piv, &mut info, &GbsvOptions::default()).unwrap();
    assert!(info.all_ok());
    (a, piv)
}

/// Solve one RHS per lane over `a`'s factors, through `gbtrs_batch` or,
/// with `lanes`, through `gbtrs_batch_lanes` over per-lane slices.
fn solve<S: Scalar>(
    dev: &DeviceSpec,
    f: &(BandBatch<S>, PivotBatch),
    trans: Transpose,
    lanes: bool,
    opts: &GbsvOptions,
) -> (BatchReport, RhsBatch<S>) {
    solve_cols(dev, f, trans, lanes, opts, 1)
}

/// [`solve`] with `nrhs` right-hand sides per lane.
fn solve_cols<S: Scalar>(
    dev: &DeviceSpec,
    (a, piv): &(BandBatch<S>, PivotBatch),
    trans: Transpose,
    lanes: bool,
    opts: &GbsvOptions,
    nrhs: usize,
) -> (BatchReport, RhsBatch<S>) {
    let l = a.layout();
    let mut b = RhsBatch::<S>::from_fn(a.batch(), l.n, nrhs, |id, i, c| {
        S::from_f64(((i * 13 + c * 5 + id) % 11) as f64 * 0.1 - 0.5)
    })
    .unwrap();
    let rep = if lanes {
        let stride = a.matrix_stride();
        let lanes: Vec<(&[S], &[i32])> = (0..a.batch())
            .map(|k| (&a.data()[k * stride..(k + 1) * stride], piv.pivots(k)))
            .collect();
        gbtrs_batch_lanes::<S>(dev, trans, &l, &lanes, &mut b, opts)
    } else {
        gbtrs_batch::<S>(dev, trans, &l, a.data(), piv, &mut b, opts)
    };
    (rep.unwrap(), b)
}

fn with_algo(algo: FactorAlgo) -> GbsvOptions {
    GbsvOptions {
        algo,
        ..Default::default()
    }
}

#[test]
fn auto_interleaves_small_solves_and_keeps_blocked_where_it_wins() {
    let auto = GbsvOptions::default();
    let column = with_algo(FactorAlgo::ColumnMajor);
    let interleaved = with_algo(FactorAlgo::Interleaved);
    // A windowed interleaved solve is one launch (no pack pass); the
    // blocked solve is its forward and backward launches.
    for (dev, shape, want, launches) in [
        (h100(), TIMESTEP, ChosenAlgo::Interleaved, 1),
        (mi250x(), TIMESTEP, ChosenAlgo::Interleaved, 1),
        (h100(), RAW_SPEED, ChosenAlgo::Interleaved, 1),
        (mi250x(), BLOCKED, ChosenAlgo::Window, 2),
    ] {
        let f = factored::<f64>(&dev, shape);
        for lanes in [false, true] {
            let (rep, _) = solve(&dev, &f, Transpose::No, lanes, &auto);
            assert_eq!(rep.algo, want, "{} {shape:?} lanes={lanes}", dev.name);
            assert_eq!(rep.launches, launches, "{} {shape:?}", dev.name);
            // The plan's pick is the executed minimum of the two layouts.
            let (col, _) = solve(&dev, &f, Transpose::No, lanes, &column);
            let (int, _) = solve(&dev, &f, Transpose::No, lanes, &interleaved);
            let best = if col.time.secs() < int.time.secs() {
                col.time
            } else {
                int.time
            };
            assert_eq!(
                rep.time, best,
                "{} {shape:?}: Auto is the cheaper",
                dev.name
            );
        }
    }
}

/// The report of an `Auto` solve-only call that interleaves: the solve's
/// price alone when it is windowed, the pack pass plus the solve when it
/// streams, bitwise, and equal to the plan's price.
fn report_is_priced_exactly<S: Scalar>(shape: (usize, usize, usize, usize), nrhs: usize) {
    let dev = h100();
    let f = factored::<S>(&dev, shape);
    let l = f.0.layout();
    let batch = f.0.batch();
    let (rep, _) = solve_cols(
        &dev,
        &f,
        Transpose::No,
        false,
        &GbsvOptions::default(),
        nrhs,
    );
    assert_eq!(rep.algo, ChosenAlgo::Interleaved, "{shape:?}");

    let params = InterleavedParams::auto(&dev, &l, nrhs);
    let (t, lpb) = (params.threads, params.lanes_per_block.min(batch));
    let windowed = solve_mode::<S>(&dev, &l, nrhs, lpb) == LaneTrafficMode::Windowed;
    let smem = if windowed {
        solve_smem_bytes::<S>(&l, nrhs, lpb) as u32
    } else {
        0
    };
    let gbtrs = predict_interleaved_time::<S>(&dev, batch, &params, smem, |lanes| {
        predict_interleaved_solve::<S>(&l, nrhs, lanes, t, windowed)
    })
    .unwrap();
    let what = format!("{} {shape:?} nrhs={nrhs}", S::PRECISION);
    if windowed {
        assert_eq!(rep.launches, 1, "{what}");
        assert_eq!(rep.time, gbtrs, "{what}: the solve alone");
    } else {
        let pack = predict_interleaved_time::<S>(&dev, batch, &params, 0, |lanes| {
            predict_interleave_pass::<S>(&l, lanes, t)
        })
        .unwrap();
        assert_eq!(rep.launches, 2, "{what}");
        assert_eq!(rep.time, pack + gbtrs, "{what}: pack + solve");
    }
    let planned = predict_interleaved_dispatch::<S>(&dev, &l, batch, nrhs, false, &params);
    assert_eq!(Some(rep.time), planned, "{what}: the plan's price");
}

#[test]
fn interleaved_report_is_the_solve_or_pack_plus_solve_price_bitwise() {
    // Even one lane's f64 RHS panel exceeds the block's shared memory.
    let streaming_nrhs = 64;
    assert!(STREAMING.0 * streaming_nrhs * 8 > h100().max_smem_per_block as usize);
    for (shape, nrhs) in [(TIMESTEP, 1), (STREAMING, streaming_nrhs)] {
        report_is_priced_exactly::<f64>(shape, nrhs);
    }
    report_is_priced_exactly::<f32>(TIMESTEP, 1);
}

fn matches_column_major<S: Scalar>() {
    for dev in [h100(), mi250x()] {
        let f = factored::<S>(&dev, TIMESTEP);
        for parallel in [ParallelPolicy::Serial, ParallelPolicy::threads(2)] {
            let auto = GbsvOptions {
                parallel: Some(parallel),
                ..Default::default()
            };
            let column = GbsvOptions {
                algo: FactorAlgo::ColumnMajor,
                ..auto
            };
            for lanes in [false, true] {
                let (rep, x) = solve(&dev, &f, Transpose::No, lanes, &auto);
                let (col, want) = solve(&dev, &f, Transpose::No, lanes, &column);
                assert_eq!(rep.algo, ChosenAlgo::Interleaved);
                assert_eq!(col.algo, ChosenAlgo::Window);
                assert_eq!(
                    x.data(),
                    want.data(),
                    "{} {} {parallel:?} lanes={lanes}",
                    dev.name,
                    S::PRECISION
                );
            }
        }
    }
}

#[test]
fn auto_solutions_match_forced_column_major_bitwise() {
    matches_column_major::<f64>();
    matches_column_major::<f32>();
}

#[test]
fn forced_choices_and_the_transpose_keep_the_blocked_kernels() {
    let dev = h100();
    let f = factored::<f64>(&dev, TIMESTEP);
    let (_, want) = solve(&dev, &f, Transpose::No, false, &GbsvOptions::default());
    // A solve-only call runs the column solve under every forced value
    // but `Interleaved`.
    for opts in [
        FactorAlgo::ColumnMajor,
        FactorAlgo::FusedGbsv,
        FactorAlgo::Fused,
        FactorAlgo::Window,
        FactorAlgo::Reference,
        FactorAlgo::Spike,
    ]
    .map(with_algo)
    {
        for lanes in [false, true] {
            let (rep, x) = solve(&dev, &f, Transpose::No, lanes, &opts);
            assert_eq!(rep.algo, ChosenAlgo::Window, "{opts:?}");
            assert_eq!(rep.launches, 2, "{opts:?}: forward + backward");
            assert_eq!(x.data(), want.data(), "{opts:?}");
        }
    }

    // The transpose solve has no interleaved kernel: every value runs the
    // blocked transpose pair.
    let (col, want) = solve(
        &dev,
        &f,
        Transpose::Yes,
        false,
        &with_algo(FactorAlgo::ColumnMajor),
    );
    for opts in [
        FactorAlgo::Auto,
        FactorAlgo::FusedGbsv,
        FactorAlgo::Fused,
        FactorAlgo::Window,
        FactorAlgo::Reference,
        FactorAlgo::Interleaved,
        FactorAlgo::Spike,
    ]
    .map(with_algo)
    {
        for lanes in [false, true] {
            let (rep, x) = solve(&dev, &f, Transpose::Yes, lanes, &opts);
            assert_eq!(rep.algo, ChosenAlgo::Window, "{opts:?}");
            assert_eq!((rep.launches, rep.time), (col.launches, col.time));
            assert_eq!(x.data(), want.data(), "{opts:?}");
        }
    }

    // Forcing the interleaved layout runs it even where Auto keeps the
    // blocked solve, with the same answer.
    let dev = mi250x();
    let f = factored::<f64>(&dev, BLOCKED);
    let (auto, want) = solve(&dev, &f, Transpose::No, false, &GbsvOptions::default());
    assert_eq!(auto.algo, ChosenAlgo::Window);
    for lanes in [false, true] {
        let (rep, x) = solve(
            &dev,
            &f,
            Transpose::No,
            lanes,
            &with_algo(FactorAlgo::Interleaved),
        );
        assert_eq!(rep.algo, ChosenAlgo::Interleaved);
        assert_eq!(rep.launches, 1, "a windowed solve needs no pack pass");
        assert_eq!(x.data(), want.data());
    }
}
