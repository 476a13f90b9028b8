//! `Auto` SPIKE sizes each truncating lane from its measured spike decay
//! (`kernels::spike`, "Sizing"). A lane whose decay probe measures no
//! decay runs its exact plan `P_e` unchanged: it answers, pivots and
//! writes back bitwise what a forced split at `P_e` does, and only its
//! time moves, by the probe's. A sized lane meets the truncated target.
//! A sized lane that leaves the truncated path reruns the `P_e` plan from
//! its pristine band and right-hand side.

use gbatch::core::layout::BandLayout;
use gbatch::core::{BandBatch, InfoArray, PivotBatch, RhsBatch, Scalar};
use gbatch::gpu_sim::{registry, DeviceSpec};
use gbatch::kernels::cost::{
    choose_spike_params, spike_launches, spike_probe_pays, total_time, SpikePath,
};
use gbatch::kernels::dispatch::{gbsv_batch, BatchReport, ChosenAlgo, FactorAlgo, GbsvOptions};
use gbatch::kernels::spike::{
    SpikeLanePlan, SpikeOutcome, SpikeParams, SpikeReport, TRUNCATED_TARGET,
};

/// Order of every system: the `Auto` SPIKE floor.
const N: usize = gbatch::kernels::dispatch::SPIKE_MIN_N;
/// Bands of the grid: two-sided, and one-sided either way.
const BANDS: [(usize, usize); 4] = [(8, 8), (2, 2), (0, 4), (4, 0)];

fn devices() -> [DeviceSpec; 2] {
    [registry::H100_PCIE, registry::MI250X_GCD].map(|d| registry::device(d).unwrap())
}

/// One operator of order `n`: an xorshift stream in `[-1, 1)`, with the
/// diagonal raised above the column sum on the rows `dominant` selects
/// (no pivoting there, pivoting elsewhere).
fn operator<S: Scalar>(
    n: usize,
    kl: usize,
    ku: usize,
    dominant: impl Fn(usize) -> bool,
) -> BandBatch<S> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    BandBatch::<S>::from_fn(1, n, n, kl, ku, |_, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let v = (state >> 11) as f64 / (1u64 << 53) as f64;
                m.set(i, j, S::from_f64(2.0 * v - 1.0));
            }
            if dominant(j) {
                let sum = (s..e)
                    .filter(|&i| i != j)
                    .fold(S::ZERO, |acc, i| acc + m.get(i, j).abs());
                m.set(j, j, sum + S::ONE);
            }
        }
    })
    .unwrap()
}

fn rhs<S: Scalar>(n: usize) -> RhsBatch<S> {
    RhsBatch::<S>::from_fn(1, n, 1, |_, i, _| S::from_f64((i as f64 * 0.29).sin())).unwrap()
}

struct Run<S: Scalar> {
    a: BandBatch<S>,
    piv: PivotBatch,
    x: RhsBatch<S>,
    info: InfoArray,
    rep: BatchReport,
}

impl<S: Scalar> Run<S> {
    fn spike(&self) -> &SpikeReport {
        self.rep.spike.as_ref().expect("the call ran SPIKE")
    }
}

fn run<S: Scalar>(
    dev: &DeviceSpec,
    a0: &BandBatch<S>,
    b0: &RhsBatch<S>,
    opts: &GbsvOptions,
) -> Run<S> {
    let n = a0.layout().n;
    let (mut a, mut x) = (a0.clone(), b0.clone());
    let mut piv = PivotBatch::new(1, n, n);
    let mut info = InfoArray::new(1);
    let rep = gbsv_batch::<S>(dev, &mut a, &mut piv, &mut x, &mut info, opts).unwrap();
    assert_eq!(rep.algo, ChosenAlgo::Spike, "{} n={n}", dev.name);
    Run {
        a,
        piv,
        x,
        info,
        rep,
    }
}

/// The exact plan `P_e` `Auto` starts every lane of layout `l` from.
fn exact_plan<S: Scalar>(dev: &DeviceSpec, l: &BandLayout) -> SpikeParams {
    choose_spike_params::<S>(dev, l, 1, &SpikeParams::auto(dev, l.kl))
        .expect("the shape splits")
        .0
}

fn forced(params: SpikeParams) -> GbsvOptions {
    GbsvOptions {
        algo: FactorAlgo::Spike,
        spike: Some(params),
        ..Default::default()
    }
}

/// `‖f - A x‖∞` in working precision, each row accumulated in column
/// order as the split driver's residual kernel does.
fn residual<S: Scalar>(a0: &BandBatch<S>, b0: &RhsBatch<S>, x: &RhsBatch<S>) -> S {
    let l = a0.layout();
    let m = a0.matrix(0);
    (0..l.n).fold(S::ZERO, |worst, i| {
        let (j0, j1) = (i.saturating_sub(l.kl), (i + l.ku + 1).min(l.n));
        let r = (j0..j1).fold(b0.get(0, i, 0), |acc, j| acc - m.get(i, j) * x.get(0, j, 0));
        worst.max(r.abs())
    })
}

fn inf_norm<S: Scalar>(b: &RhsBatch<S>) -> S {
    b.data().iter().fold(S::ZERO, |m, &v| m.max(v.abs()))
}

/// Bit patterns of a slice, so NaN compares by value.
fn bits<S: Scalar>(v: &[S]) -> Vec<u64> {
    v.iter().map(|x| x.to_f64().to_bits()).collect()
}

fn sized(lane: &SpikeLanePlan, exact: &SpikeParams) -> bool {
    (lane.parts, lane.nb) != (exact.parts, exact.nb)
}

fn invariant_grid<S: Scalar>() {
    for dev in devices() {
        for (kl, ku) in BANDS {
            let b0 = rhs::<S>(N);
            for dominant in [false, true] {
                let a0 = operator::<S>(N, kl, ku, |_| dominant);
                let case = format!(
                    "{} {} ({kl},{ku}) dominant={dominant}",
                    dev.name,
                    S::PRECISION.name()
                );
                let exact = exact_plan::<S>(&dev, &a0.layout());
                let auto = run(&dev, &a0, &b0, &GbsvOptions::default());
                let sp = auto.spike();
                let lane = sp.lanes[0];
                assert_eq!(lane.abandoned, None, "{case}");
                let l = a0.layout();
                let probes = spike_probe_pays::<S>(&dev, &l, 1, &exact);
                assert_eq!(sp.probe_time().secs() > 0.0, probes, "{case}");
                if sized(&lane, &exact) {
                    // A sized lane answers from the truncated path, to
                    // the target its refinement checks.
                    assert!(dominant, "{case}: a pivoting lane was sized");
                    assert!(
                        matches!(sp.outcomes[0], SpikeOutcome::Truncated { .. }),
                        "{case}: {:?}",
                        sp.outcomes[0]
                    );
                    let tol =
                        S::from_f64(TRUNCATED_TARGET) * S::EPSILON * inf_norm(&b0).max(S::ONE);
                    let r = residual(&a0, &b0, &auto.x);
                    assert!(r <= tol, "{case}: residual {r:?} above {tol:?}");
                    continue;
                }
                // Not sized: bitwise the exact plan, plus the probe.
                let want = run(&dev, &a0, &b0, &forced(exact));
                assert_eq!(bits(auto.x.data()), bits(want.x.data()), "{case}: answer");
                assert_eq!(bits(auto.a.data()), bits(want.a.data()), "{case}: factors");
                assert_eq!(auto.piv.as_slice(), want.piv.as_slice(), "{case}: pivots");
                assert_eq!(auto.info.as_slice(), want.info.as_slice(), "{case}: info");
                assert_eq!(sp.outcomes, want.spike().outcomes, "{case}");
                assert_eq!(
                    auto.rep.time.secs().to_bits(),
                    (sp.probe_time() + want.rep.time).secs().to_bits(),
                    "{case}: only the probe's time is added"
                );
                let probe = spike_launches::<S>(&dev, &l, 1, &exact, SpikePath::Probe);
                let probe = probe.filter(|_| probes).unwrap_or_default();
                assert_eq!(auto.rep.launches, want.rep.launches + probe.len(), "{case}");
                assert!(sp.probe_time() <= total_time(&probe), "{case}");
            }
        }
    }
}

#[test]
fn unsized_lanes_run_the_exact_plan_bitwise_f64() {
    invariant_grid::<f64>();
}

#[test]
fn unsized_lanes_run_the_exact_plan_bitwise_f32() {
    invariant_grid::<f32>();
}

/// The fallback rule: an operator dominant around the exact plan's cuts,
/// where the probe samples it, but pivoting elsewhere. The probe sizes
/// the lane; at the sized partition the spikes do not decay, so the lane
/// abandons its attempt and answers from the `P_e` plan, bitwise what a
/// forced split at `P_e` answers on the pristine band and right-hand
/// side. A restart that is skipped, or that reads the block-factored band
/// or a written right-hand side, fails the bitwise checks.
#[test]
fn a_sized_lane_that_leaves_the_truncated_path_reruns_the_exact_plan() {
    for dev in devices() {
        for (kl, ku) in [(2, 2), (8, 8)] {
            let case = format!("{} ({kl},{ku})", dev.name);
            let exact = exact_plan::<f64>(&dev, &BandLayout::factor(N, N, kl, ku).unwrap());
            let part = gbatch::core::spike::SpikePartition::new(N, kl, ku, exact.parts);
            let reach = 2 * (kl + ku) + kl + ku;
            let near_cut = |j: usize| {
                (1..part.parts).any(|p| {
                    let e = part.start(p);
                    j + reach >= e && j < e + kl + ku
                })
            };
            let a0 = operator::<f64>(N, kl, ku, near_cut);
            let b0 = rhs::<f64>(N);
            let auto = run(&dev, &a0, &b0, &GbsvOptions::default());
            let sp = auto.spike();
            let lane = sp.lanes[0];
            let Some((parts, nb)) = lane.abandoned else {
                panic!("{case}: the sized attempt was not abandoned: {lane:?}");
            };
            assert!(parts > exact.parts, "{case}: sized to {parts}");
            assert_eq!((lane.parts, lane.nb), (part.parts, exact.nb), "{case}");

            let want = run(&dev, &a0, &b0, &forced(exact));
            assert_eq!(sp.outcomes, want.spike().outcomes, "{case}");
            assert_eq!(bits(auto.x.data()), bits(want.x.data()), "{case}: answer");
            assert_eq!(bits(auto.a.data()), bits(want.a.data()), "{case}: factors");
            assert_eq!(auto.piv.as_slice(), want.piv.as_slice(), "{case}: pivots");
            assert_eq!(auto.info.as_slice(), want.info.as_slice(), "{case}: info");

            // The residual guard of the exact path, against the pristine
            // operator and right-hand side.
            let guard = f64::EPSILON.sqrt() * inf_norm(&b0).max(1.0);
            let r = residual(&a0, &b0, &auto.x);
            assert!(r <= guard, "{case}: residual {r:.3e} above the guard");

            // Probe, the abandoned factor phase, then the exact plan.
            let l = a0.layout();
            let price = |params, path| {
                total_time(&spike_launches::<f64>(&dev, &l, 1, params, path).unwrap())
            };
            let bound = price(&exact, SpikePath::Probe)
                + price(&exact.with_parts(parts).with_nb(nb), SpikePath::Front)
                + price(&exact, SpikePath::Exact);
            assert!(
                auto.rep.time.secs() <= bound.secs(),
                "{case}: ran {:.4} ms, bound {:.4} ms",
                auto.rep.time.ms(),
                bound.ms()
            );
        }
    }
}
