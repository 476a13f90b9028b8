//! The SPIKE and interleaved plans are launch lists (`kernels::cost`):
//! the driver runs the list the plan's price adds up, and reports it.
//!
//! - SPIKE: for each path a lane reports — exact, truncated with its
//!   refinement rounds, unsplit after an exact answer the residual guard
//!   rejects, and the decay probe of an `Auto` lane — the executed list
//!   equals the planned list launch for launch in kernel family, grid
//!   and column groups. Bands one-sided either way are in the grid: a
//!   blocked solve over `kl == 0` runs no forward launch, and lists none.
//! - Interleaved: every interleaved plan of the dispatch pin grid
//!   (`tests/dispatch_pins.rs`, per-launch engine) reports its planned
//!   list, times bitwise.
//! - The launch count of a split counts the launches that ran.

use gbatch::core::gbtrs::Transpose;
use gbatch::core::{BandBatch, InfoArray, PivotBatch, RhsBatch, Scalar};
use gbatch::gpu_sim::{registry, DeviceSpec};
use gbatch::kernels::cost::{
    choose_spike_params, interleaved_launches, spike_launches, total_time, Kernel, Launch,
    SpikePath,
};
use gbatch::kernels::dispatch::{
    gbsv_batch, gbtrf_batch, gbtrs_batch, BatchReport, ChosenAlgo, FactorAlgo, GbsvOptions,
};
use gbatch::kernels::interleaved::InterleavedParams;
use gbatch::kernels::spike::{SpikeMode, SpikeOutcome, SpikeParams};

fn devices() -> [DeviceSpec; 2] {
    [registry::H100_PCIE, registry::MI250X_GCD].map(|d| registry::device(d).unwrap())
}

/// `batch` operators of order `n`: entries from an xorshift stream in
/// `[-0.5, 0.5)`, each diagonal raised by `kl + ku + 1` when `dominant`
/// (no pivot swaps, spikes that decay), left alone otherwise.
fn operator<S: Scalar>(
    batch: usize,
    n: usize,
    kl: usize,
    ku: usize,
    dominant: bool,
) -> BandBatch<S> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    BandBatch::<S>::from_fn(batch, n, n, kl, ku, |_, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let mut v = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                if dominant && i == j {
                    v += (kl + ku + 1) as f64;
                }
                m.set(i, j, S::from_f64(v));
            }
        }
    })
    .unwrap()
}

fn rhs<S: Scalar>(batch: usize, n: usize, nrhs: usize) -> RhsBatch<S> {
    RhsBatch::<S>::from_fn(batch, n, nrhs, |id, i, c| {
        S::from_f64(((i * 13 + c * 5 + id) % 11) as f64 * 0.1 - 0.5)
    })
    .unwrap()
}

fn gbsv<S: Scalar>(
    dev: &DeviceSpec,
    a: &BandBatch<S>,
    nrhs: usize,
    opts: &GbsvOptions,
) -> BatchReport {
    let l = a.layout();
    let mut a = a.clone();
    let mut b = rhs::<S>(a.batch(), l.n, nrhs);
    let mut piv = PivotBatch::new(a.batch(), l.n, l.n);
    let mut info = InfoArray::new(a.batch());
    gbsv_batch(dev, &mut a, &mut piv, &mut b, &mut info, opts).unwrap()
}

fn forced(params: SpikeParams) -> GbsvOptions {
    GbsvOptions {
        algo: FactorAlgo::Spike,
        spike: Some(params),
        ..Default::default()
    }
}

/// What a launch-list comparison of a data-dependent run checks.
fn shape(list: &[Launch]) -> Vec<(Kernel, usize, usize)> {
    list.iter().map(|x| (x.kernel, x.grid, x.groups)).collect()
}

/// The paths one lane answering `outcome` at `params` ran, planned.
fn planned<S: Scalar>(
    dev: &DeviceSpec,
    a: &BandBatch<S>,
    params: &SpikeParams,
    outcome: SpikeOutcome,
) -> Vec<Launch> {
    let paths = match outcome {
        SpikeOutcome::Exact => vec![SpikePath::Exact],
        SpikeOutcome::Truncated { refine_iters } => {
            let rounds = std::iter::repeat_n(SpikePath::Refine, refine_iters);
            std::iter::once(SpikePath::Truncated)
                .chain(rounds)
                .collect()
        }
        SpikeOutcome::Unsplit => vec![SpikePath::Exact, SpikePath::Unsplit],
        other => panic!("{other:?} is not a listed path"),
    };
    let l = a.layout();
    let lists = paths
        .iter()
        .map(|&path| spike_launches::<S>(dev, &l, 1, params, path).unwrap());
    lists.flatten().collect()
}

#[test]
fn forced_spike_lanes_run_their_planned_lists() {
    let grid = [
        (256, 0, 4, 4, 8),
        (256, 4, 0, 4, 16),
        (256, 2, 3, 4, 8),
        (1024, 8, 8, 8, 32),
        (2048, 2, 2, 32, 64),
    ];
    let mut seen = Vec::new();
    for dev in devices() {
        for (n, kl, ku, parts, nb) in grid {
            for (dominant, mode) in [
                (true, SpikeMode::Exact),
                (true, SpikeMode::Truncated),
                (false, SpikeMode::Truncated),
            ] {
                let a = operator::<f64>(1, n, kl, ku, dominant);
                let params = SpikeParams::auto(&dev, kl)
                    .with_parts(parts)
                    .with_nb(nb)
                    .with_mode(mode);
                let rep = gbsv(&dev, &a, 1, &forced(params));
                let sp = rep.spike.unwrap();
                let case = format!(
                    "{} n={n} ({kl},{ku}) P={parts} {mode:?} dominant={dominant}",
                    dev.name
                );
                let want = planned(&dev, &a, &params, sp.outcomes[0]);
                assert_eq!(
                    shape(&sp.launches),
                    shape(&want),
                    "{case}: {:?}",
                    sp.outcomes[0]
                );
                assert_eq!(rep.launches, want.len(), "{case}");
                seen.push(sp.outcomes[0]);
            }
        }
    }
    for path in [
        SpikeOutcome::Exact,
        SpikeOutcome::Truncated { refine_iters: 0 },
        SpikeOutcome::Unsplit,
    ] {
        assert!(seen.contains(&path), "no lane of the grid took {path:?}");
    }
}

#[test]
fn auto_probes_and_sized_lanes_run_their_planned_lists() {
    let n = gbatch::kernels::dispatch::SPIKE_MIN_N;
    let mut probed = 0;
    for dev in devices() {
        for (kl, ku) in [(2, 2), (0, 4), (4, 0), (8, 8)] {
            let a = operator::<f64>(1, n, kl, ku, true);
            let l = a.layout();
            let rep = gbsv(&dev, &a, 1, &GbsvOptions::default());
            assert_eq!(rep.algo, ChosenAlgo::Spike, "{} ({kl},{ku})", dev.name);
            let sp = rep.spike.unwrap();
            let case = format!("{} ({kl},{ku}) {:?}", dev.name, sp.lanes[0]);
            let auto = SpikeParams::auto(&dev, kl);
            let (exact, _) = choose_spike_params::<f64>(&dev, &l, 1, &auto).unwrap();
            let (probe, solve) = sp.launches.split_at(sp.probe_launches);
            if !probe.is_empty() {
                probed += 1;
                let want = spike_launches::<f64>(&dev, &l, 1, &exact, SpikePath::Probe).unwrap();
                assert_eq!(shape(probe), shape(&want), "{case}: probe");
            }
            let lane = sp.lanes[0];
            assert_eq!(lane.abandoned, None, "{case}");
            let params = exact.with_parts(lane.parts).with_nb(lane.nb);
            let want = planned(&dev, &a, &params, sp.outcomes[0]);
            assert_eq!(shape(solve), shape(&want), "{case}: {:?}", sp.outcomes[0]);
        }
    }
    assert!(probed > 0, "no lane of the grid ran the decay probe");
}

/// A blocked solve over `kl == 0` runs the backward launch alone, and a
/// split counts only what ran: 8 launches on the exact path at (0,4)
/// (extract, block factor, block backward, reduced factor, reduced
/// forward and backward, combine, residual), 9 at (4,0) and (2,3). A
/// lane whose exact answer fails the guard adds the unsplit window and
/// backward launches. The window plan counts the same pair as 2.
#[test]
fn split_launch_counts_skip_the_forward_launch_of_a_lower_free_band() {
    let dev = DeviceSpec::h100_pcie();
    let n = 256;
    for ((kl, ku), exact) in [((0, 4), 8), ((4, 0), 9), ((2, 3), 9)] {
        let a = operator::<f64>(1, n, kl, ku, true);
        let params = SpikeParams::auto(&dev, kl)
            .with_parts(4)
            .with_mode(SpikeMode::Exact);
        let rep = gbsv(&dev, &a, 1, &forced(params));
        let outcomes = &rep.spike.as_ref().unwrap().outcomes;
        assert_eq!(outcomes, &[SpikeOutcome::Exact], "({kl},{ku})");
        assert_eq!(rep.launches, exact, "({kl},{ku}) exact path");
    }
    let pivoting = operator::<f64>(1, n, 0, 4, false);
    let params = SpikeParams::auto(&dev, 0).with_parts(4);
    let rep = gbsv(&dev, &pivoting, 1, &forced(params));
    let outcomes = &rep.spike.as_ref().unwrap().outcomes;
    assert_eq!(outcomes, &[SpikeOutcome::Unsplit], "(0,4) guard fallback");
    assert_eq!(rep.launches, 8 + 2, "(0,4) exact path, then unsplit");
    let window = GbsvOptions {
        algo: FactorAlgo::Window,
        ..Default::default()
    };
    assert_eq!(
        gbsv(&dev, &pivoting, 1, &window).launches,
        2,
        "(0,4) window plan"
    );
}

/// One interleaved-capable cell of the dispatch pin grid: `(nrhs, (n, kl,
/// ku), batch, algo)`, `nrhs == None` for the factor-only entry point.
type Cell = (Option<usize>, (usize, usize, usize), usize, FactorAlgo);

const PIN_CELLS: [Cell; 8] = [
    (Some(1), (96, 2, 3), 40, FactorAlgo::Auto),
    (None, (96, 2, 3), 40, FactorAlgo::Auto),
    (Some(2), (24, 1, 1), 64, FactorAlgo::Auto),
    (None, (16, 1, 2), 256, FactorAlgo::Auto),
    (Some(2), (100, 1, 1), 4, FactorAlgo::Interleaved),
    (None, (208, 200, 200), 2, FactorAlgo::Auto),
    (Some(1), (16, 2, 3), 4, FactorAlgo::Interleaved),
    (Some(1), (48, 2, 3), 4, FactorAlgo::Interleaved),
];

/// The solve-only cells: `(n, kl, ku, batch)` over factors `gbtrf_batch`
/// made, under `Auto` and forced `Interleaved`.
const SOLVE_CELLS: [(usize, usize, usize, usize); 2] = [(128, 2, 3, 64), (16, 2, 3, 4096)];

/// `rep`, when it ran interleaved, reports the list its plan prices.
fn check_interleaved<S: Scalar>(
    dev: &DeviceSpec,
    rep: &BatchReport,
    a: &BandBatch<S>,
    nrhs: usize,
    factor: bool,
    case: &str,
) -> bool {
    if rep.algo != ChosenAlgo::Interleaved {
        return false;
    }
    let l = a.layout();
    let params = InterleavedParams::auto(dev, &l, nrhs);
    let want = interleaved_launches::<S>(dev, &l, a.batch(), nrhs, factor, &params).unwrap();
    assert_eq!(rep.list, want, "{case}");
    assert_eq!((rep.launches, rep.time), (want.len(), total_time(&want)));
    true
}

fn interleaved_cells<S: Scalar>() -> usize {
    let mut checked = 0;
    for dev in devices() {
        for (nrhs, (n, kl, ku), batch, algo) in PIN_CELLS {
            let opts = GbsvOptions {
                algo,
                ..Default::default()
            };
            let a = operator::<S>(batch, n, kl, ku, true);
            let case = format!(
                "{} {} n={n} ({kl},{ku}) nrhs={nrhs:?} {algo:?}",
                dev.name,
                S::PRECISION
            );
            let rep = match nrhs {
                Some(nrhs) => gbsv(&dev, &a, nrhs, &opts),
                None => {
                    let (mut f, l) = (a.clone(), a.layout());
                    let mut piv = PivotBatch::new(batch, l.n, l.n);
                    gbtrf_batch(&dev, &mut f, &mut piv, &mut InfoArray::new(batch), &opts).unwrap()
                }
            };
            checked += check_interleaved(&dev, &rep, &a, nrhs.unwrap_or(0), true, &case) as usize;
        }
        for (n, kl, ku, batch) in SOLVE_CELLS {
            let mut f = operator::<S>(batch, n, kl, ku, true);
            let l = f.layout();
            let mut piv = PivotBatch::new(batch, n, n);
            let auto = GbsvOptions::default();
            let _ = gbtrf_batch(&dev, &mut f, &mut piv, &mut InfoArray::new(batch), &auto);
            for algo in [FactorAlgo::Auto, FactorAlgo::Interleaved] {
                let opts = GbsvOptions { algo, ..auto };
                let mut b = rhs::<S>(batch, n, 1);
                let rep =
                    gbtrs_batch(&dev, Transpose::No, &l, f.data(), &piv, &mut b, &opts).unwrap();
                let case = format!(
                    "{} {} gbtrs n={n} ({kl},{ku}) batch={batch} {algo:?}",
                    dev.name,
                    S::PRECISION
                );
                checked += check_interleaved(&dev, &rep, &f, 1, false, &case) as usize;
            }
        }
    }
    checked
}

#[test]
fn interleaved_plans_of_the_pin_grid_run_their_planned_lists() {
    assert!(interleaved_cells::<f64>() >= 16);
    assert!(interleaved_cells::<f32>() >= 16);
}
