//! Equivalence grid for the SPIKE split regime (the third dispatch path).
//!
//! The split driver's contract is that splitting is an implementation
//! detail: an exact-mode split solve agrees with the sequential `gbsv`
//! driver, a one-block "split" is *bitwise* the unsplit window + blocked
//! path, the answer is bitwise-deterministic under every host scheduling
//! policy, and the truncated mode either meets its advertised residual
//! bound or falls back cleanly. The grid here drives the dispatch layer
//! (forced `GbsvOptions::spike`) over both precisions, `P ∈ {1, 2, 3, 8}`
//! blocks and `{1, 2, 8}` host workers, plus the headline large system:
//! `n = 65536`, `kl = ku = 8`, exact mode at `P = 8`. The mode choice is
//! pinned too: a lane whose spikes decay takes the truncated path, any
//! other goes straight to exact, and a truncated lane that cannot refine
//! walks on to exact.

use gbatch::core::gbsv::gbsv;
use gbatch::core::{BandBatch, InfoArray, PivotBatch, RhsBatch, Scalar};
use gbatch::gpu_sim::{registry, DeviceSpec, ParallelPolicy};
use gbatch::kernels::dispatch::{gbsv_batch, ChosenAlgo, FactorAlgo, GbsvOptions};
use gbatch::kernels::gbtrs_blocked::SolveParams;
use gbatch::kernels::spike::{spike_gbsv_batch, SpikeMode, SpikeOutcome, SpikeParams};
use gbatch::kernels::window::WindowParams;

/// Host worker counts the answer must be bitwise-invariant under.
const WORKERS: [usize; 3] = [1, 2, 8];
/// Block counts of the grid (`P = 1` degenerates to the unsplit path).
const PARTS: [usize; 4] = [1, 2, 3, 8];

fn dev() -> DeviceSpec {
    registry::device(registry::H100_PCIE).expect("catalog entry")
}

/// Deterministic diagonally dominant band batch (LU never pivots a zero,
/// truncated-SPIKE refinement converges).
fn dominant_band<S: Scalar>(batch: usize, n: usize, kl: usize, ku: usize) -> BandBatch<S> {
    BandBatch::<S>::from_fn(batch, n, n, kl, ku, |id, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                m.set(
                    i,
                    j,
                    S::from_f64(((i * 7 + j * 3 + id) % 5) as f64 * 0.1 + 0.05),
                );
            }
            let sum = (s..e)
                .filter(|&i| i != j)
                .fold(S::ZERO, |acc, i| acc + m.get(i, j).abs());
            m.set(j, j, sum + S::ONE);
        }
    })
    .unwrap()
}

/// Deterministic band batch with *no* dominance: the truncated spikes do
/// not decay, so refinement stalls and the driver must fall back.
fn nondominant_band<S: Scalar>(batch: usize, n: usize, kl: usize, ku: usize) -> BandBatch<S> {
    BandBatch::<S>::from_fn(batch, n, n, kl, ku, |id, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                let v = ((i * 11 + j * 5 + id * 3) % 17) as f64 * 0.13 - 1.0;
                m.set(i, j, S::from_f64(if i == j { v + 0.2 } else { v }));
            }
        }
    })
    .unwrap()
}

fn rhs<S: Scalar>(batch: usize, n: usize, nrhs: usize) -> RhsBatch<S> {
    RhsBatch::<S>::from_fn(batch, n, nrhs, |id, i, c| {
        S::from_f64(((id * 13 + c * 5 + i) as f64 * 0.29).sin())
    })
    .unwrap()
}

/// Sequential LAPACK-style `gbsv` on one lane — the ground truth every
/// split configuration is measured against.
fn sequential<S: Scalar>(a0: &BandBatch<S>, b0: &RhsBatch<S>, id: usize) -> Vec<S> {
    let l = a0.layout();
    let stride = a0.matrix_stride();
    let mut ab = a0.data()[id * stride..(id + 1) * stride].to_vec();
    let mut ipiv = vec![0i32; l.n];
    let mut b = b0.block(id).to_vec();
    let info = gbsv(&l, &mut ab, &mut ipiv, &mut b, l.n, b0.nrhs());
    assert_eq!(info, 0, "sequential comparator must factor");
    b
}

/// Infinity-norm relative residual `‖b - A x‖ / ‖b‖` of one lane/column,
/// with the residual accumulated in the working precision (matching the
/// split driver's own refinement guard).
#[allow(clippy::needless_range_loop)] // i and j index three slices in lockstep
fn rel_residual<S: Scalar>(a: &BandBatch<S>, id: usize, x: &[S], b: &[S]) -> f64 {
    let l = a.layout();
    let m = a.matrix(id);
    let mut r: Vec<S> = b.to_vec();
    for j in 0..l.n {
        let (s, e) = l.col_rows(j);
        for i in s..e {
            let upd = m.get(i, j) * x[j];
            r[i] -= upd;
        }
    }
    let rn = r.iter().fold(0.0f64, |acc, v| acc.max(v.to_f64().abs()));
    let bn = b.iter().fold(0.0f64, |acc, v| acc.max(v.to_f64().abs()));
    rn / bn.max(f64::MIN_POSITIVE)
}

/// One dispatch-layer solve; returns the solution batch and the algorithm
/// the dispatcher reports.
fn run_dispatch<S: Scalar>(
    a0: &BandBatch<S>,
    b0: &RhsBatch<S>,
    opts: &GbsvOptions,
) -> (RhsBatch<S>, ChosenAlgo) {
    let dev = dev();
    let mut a = a0.clone();
    let mut b = b0.clone();
    let n = a.layout().n;
    let mut piv = PivotBatch::new(a.batch(), n, n);
    let mut info = InfoArray::new(a.batch());
    let rep = gbsv_batch::<S>(&dev, &mut a, &mut piv, &mut b, &mut info, opts).unwrap();
    assert!(info.all_ok(), "grid systems are nonsingular");
    (b, rep.algo)
}

/// Shared window/solve tuning pinned to the split driver's defaults so the
/// `P = 1` degenerate path and the forced-window baseline run bitwise the
/// same kernels.
fn pinned_unsplit_opts() -> GbsvOptions {
    GbsvOptions {
        algo: FactorAlgo::Window,
        window: Some(WindowParams {
            nb: 8,
            threads: 32,
            ..Default::default()
        }),
        solve: Some(SolveParams {
            nb: 8,
            threads: 32,
            ..Default::default()
        }),
        ..Default::default()
    }
}

/// The exact-mode grid at one precision: every `P`, every worker count,
/// against the sequential driver; bitwise-stable across workers; `P = 1`
/// bitwise against the unsplit window + blocked path.
fn exact_grid<S: Scalar>(sol_tol: f64) {
    let dev = dev();
    let (batch, n, kl, ku, nrhs) = (2, 512, 3, 2, 2);
    let a0 = dominant_band::<S>(batch, n, kl, ku);
    let b0 = rhs::<S>(batch, n, nrhs);
    let seq: Vec<Vec<S>> = (0..batch).map(|id| sequential(&a0, &b0, id)).collect();

    let (x_unsplit, algo) = run_dispatch(&a0, &b0, &pinned_unsplit_opts());
    assert_eq!(algo, ChosenAlgo::Window);

    for parts in PARTS {
        let mut per_worker = Vec::new();
        for workers in WORKERS {
            let opts = GbsvOptions {
                algo: FactorAlgo::Spike,
                spike: Some(
                    SpikeParams::auto(&dev, kl)
                        .with_parts(parts)
                        .with_mode(SpikeMode::Exact),
                ),
                parallel: Some(ParallelPolicy::threads(workers)),
                ..Default::default()
            };
            let (x, algo) = run_dispatch(&a0, &b0, &opts);
            assert_eq!(algo, ChosenAlgo::Spike);
            per_worker.push(x);
        }
        // Bitwise determinism across host scheduling.
        for w in &per_worker[1..] {
            assert_eq!(
                per_worker[0].data(),
                w.data(),
                "P = {parts}: host workers changed the bits"
            );
        }
        // Agreement with the sequential driver.
        let x = &per_worker[0];
        for (id, sq) in seq.iter().enumerate() {
            let scale = sq.iter().fold(0.0f64, |acc, v| acc.max(v.to_f64().abs()));
            for c in 0..nrhs {
                for i in 0..n {
                    let d = (x.get(id, i, c).to_f64() - sq[c * n + i].to_f64()).abs();
                    assert!(
                        d <= sol_tol * scale,
                        "P = {parts} lane {id} ({i}, {c}): |dx| = {d:.3e}"
                    );
                }
            }
        }
        // A one-block split *is* the unsplit path, bit for bit.
        if parts == 1 {
            assert_eq!(
                x.data(),
                x_unsplit.data(),
                "P = 1 must be bitwise the window + blocked path"
            );
        }
    }
}

#[test]
fn exact_spike_matches_sequential_gbsv_f64() {
    exact_grid::<f64>(1e-12);
}

#[test]
fn exact_spike_matches_sequential_gbsv_f32() {
    exact_grid::<f32>(1e-4);
}

/// The acceptance headline: one `n = 65536`, `kl = ku = 8` system, exact
/// mode at `P = 8`, answers to ≤ 1e-12 relative residual and is bitwise
/// identical under 1, 2 and 8 host workers.
#[test]
fn exact_p8_headline_system_meets_residual_and_determinism() {
    let dev = dev();
    let (n, kl, ku) = (65536, 8, 8);
    let a0 = dominant_band::<f64>(1, n, kl, ku);
    let b0 = rhs::<f64>(1, n, 1);

    let mut per_worker = Vec::new();
    for workers in WORKERS {
        let opts = GbsvOptions {
            algo: FactorAlgo::Spike,
            spike: Some(
                SpikeParams::auto(&dev, kl)
                    .with_parts(8)
                    .with_mode(SpikeMode::Exact),
            ),
            parallel: Some(ParallelPolicy::threads(workers)),
            ..Default::default()
        };
        let (x, algo) = run_dispatch(&a0, &b0, &opts);
        assert_eq!(algo, ChosenAlgo::Spike);
        per_worker.push(x);
    }
    for w in &per_worker[1..] {
        assert_eq!(per_worker[0].data(), w.data(), "workers changed the bits");
    }
    let x: Vec<f64> = (0..n).map(|i| per_worker[0].get(0, i, 0)).collect();
    let r = rel_residual(&a0, 0, &x, b0.block(0));
    assert!(r <= 1e-12, "headline relative residual {r:.3e} above 1e-12");
}

/// Truncated mode on diagonally dominant operators: every lane converges
/// through refinement and the final answer meets the driver's advertised
/// bound, `‖b - A x‖ ≤ 10 · eps · ‖b‖`.
fn truncated_meets_bound<S: Scalar>() {
    let dev = dev();
    let (batch, n, kl, ku, nrhs) = (2, 2048, 3, 3, 2);
    let mut a = dominant_band::<S>(batch, n, kl, ku);
    let b0 = rhs::<S>(batch, n, nrhs);
    let mut b = b0.clone();
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let params = SpikeParams::auto(&dev, kl)
        .with_parts(8)
        .with_mode(SpikeMode::Truncated);
    let rep = spike_gbsv_batch::<S>(&dev, &mut a, &mut piv, &mut b, &mut info, params).unwrap();
    assert!(info.all_ok());
    for (id, o) in rep.outcomes.iter().enumerate() {
        assert!(
            matches!(o, SpikeOutcome::Truncated { .. }),
            "lane {id}: expected truncated convergence, got {o:?}"
        );
        // The factors in `a` are block-partitioned after the split solve,
        // so rebuild the operator for an independent residual check.
        let a0 = dominant_band::<S>(batch, n, kl, ku);
        for c in 0..nrhs {
            let x: Vec<S> = (0..n).map(|i| b.get(id, i, c)).collect();
            let bc = &b0.block(id)[c * n..(c + 1) * n];
            let r = rel_residual(&a0, id, &x, bc);
            assert!(
                r <= 10.0 * S::EPSILON.to_f64(),
                "lane {id} col {c}: truncated residual {r:.3e} above 10·eps"
            );
        }
    }
}

#[test]
fn truncated_refinement_meets_advertised_bound_f64() {
    truncated_meets_bound::<f64>();
}

#[test]
fn truncated_refinement_meets_advertised_bound_f32() {
    truncated_meets_bound::<f32>();
}

/// Exact-mode residual-guard rejection: a nearly singular operator (the
/// Neumann Laplacian plus a tiny corner perturbation) whose diagonal
/// blocks are all well conditioned, so the split solve runs to completion
/// and only the residual guard rejects it. The driver must then fall back
/// to the unsplit path *on the original right-hand side* — a fallback that
/// consumed a clobbered RHS would return a wildly wrong answer with
/// `info = 0`, exactly in the ill-conditioned case the guard exists for.
#[test]
fn exact_guard_rejection_falls_back_on_pristine_rhs() {
    let dev = dev();
    let (n, kl, ku, nrhs) = (512, 1, 1, 1);
    let a0 = BandBatch::<f64>::from_fn(1, n, n, kl, ku, |_, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                m.set(i, j, if i == j { 2.0 } else { -1.0 });
            }
        }
        m.set(0, 0, 1.0 + 1e-12);
        m.set(n - 1, n - 1, 1.0);
    })
    .unwrap();
    let b0 = rhs::<f64>(1, n, nrhs);
    let mut a = a0.clone();
    let mut b = b0.clone();
    let mut piv = PivotBatch::new(1, n, n);
    let mut info = InfoArray::new(1);
    let params = SpikeParams::auto(&dev, kl)
        .with_parts(4)
        .with_mode(SpikeMode::Exact);
    let rep = spike_gbsv_batch::<f64>(&dev, &mut a, &mut piv, &mut b, &mut info, params).unwrap();
    assert!(info.all_ok(), "fallback must still answer");
    assert!(
        matches!(rep.outcomes[0], SpikeOutcome::Unsplit),
        "near-singular operator should trip the residual guard, got {:?}",
        rep.outcomes[0]
    );
    // "Never worse than the sequential driver": the fallback's residual is
    // comparable to the sequential one only if it solved the original b.
    let seq = sequential(&a0, &b0, 0);
    let x: Vec<f64> = (0..n).map(|i| b.get(0, i, 0)).collect();
    let r_split = rel_residual(&a0, 0, &x, b0.block(0));
    let r_seq = rel_residual(&a0, 0, &seq, b0.block(0)).max(f64::EPSILON);
    assert!(
        r_split <= 100.0 * r_seq,
        "fallback residual {r_split:.3e} vs sequential {r_seq:.3e}"
    );
}

/// Truncated mode on non-dominant operators: refinement stalls, the
/// driver falls back (exact reduced system or unsplit), and the answer is
/// still as good as the sequential driver's.
#[test]
fn truncated_falls_back_cleanly_on_non_dominant_operators() {
    let dev = dev();
    let (batch, n, kl, ku, nrhs) = (2, 768, 3, 3, 1);
    let a0 = nondominant_band::<f64>(batch, n, kl, ku);
    let b0 = rhs::<f64>(batch, n, nrhs);
    let mut a = a0.clone();
    let mut b = b0.clone();
    let mut piv = PivotBatch::new(batch, n, n);
    let mut info = InfoArray::new(batch);
    let params = SpikeParams {
        parts: 4,
        mode: SpikeMode::Truncated,
        max_refine: 2,
        ..SpikeParams::auto(&dev, kl)
    };
    let rep = spike_gbsv_batch::<f64>(&dev, &mut a, &mut piv, &mut b, &mut info, params).unwrap();
    assert!(info.all_ok(), "fallback must still answer");
    assert!(
        rep.outcomes
            .iter()
            .any(|o| !matches!(o, SpikeOutcome::Truncated { .. })),
        "non-dominant operators should defeat truncated refinement, got {:?}",
        rep.outcomes
    );
    for (id, _) in rep.outcomes.iter().enumerate() {
        for c in 0..nrhs {
            let x: Vec<f64> = (0..n).map(|i| b.get(id, i, c)).collect();
            let bc = &b0.block(id)[c * n..(c + 1) * n];
            let r = rel_residual(&a0, id, &x, bc);
            assert!(r <= 1e-10, "lane {id} col {c}: fallback residual {r:.3e}");
        }
    }
}

/// Weakly dominant tridiagonal operator (diagonal 3, off-diagonals -1):
/// its spikes decay by about 0.38 per row, so 24-row blocks leave dropped
/// tips near 1e-10 — under the decay bound, yet far above `f64` working
/// accuracy, so the unrefined truncated answer misses the target.
fn weakly_dominant(n: usize) -> BandBatch<f64> {
    BandBatch::<f64>::from_fn(1, n, n, 1, 1, |_, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                m.set(i, j, if i == j { 3.0 } else { -1.0 });
            }
        }
    })
    .unwrap()
}

/// Run the split driver on one operator; returns the report and the
/// solution batch.
fn run_split(
    a0: &BandBatch<f64>,
    b0: &RhsBatch<f64>,
    params: SpikeParams,
) -> (gbatch::kernels::spike::SpikeReport, RhsBatch<f64>) {
    let dev = dev();
    let n = a0.layout().n;
    let (mut a, mut b) = (a0.clone(), b0.clone());
    let mut piv = PivotBatch::new(a.batch(), n, n);
    let mut info = InfoArray::new(a.batch());
    let rep = spike_gbsv_batch::<f64>(&dev, &mut a, &mut piv, &mut b, &mut info, params).unwrap();
    assert!(info.all_ok(), "split driver must answer");
    (rep, b)
}

/// The worst relative residual over a batch's lanes (one RHS column).
fn worst_residual(a0: &BandBatch<f64>, b0: &RhsBatch<f64>, x: &RhsBatch<f64>) -> f64 {
    let n = a0.layout().n;
    (0..a0.batch())
        .map(|id| {
            let xs: Vec<f64> = (0..n).map(|i| x.get(id, i, 0)).collect();
            rel_residual(a0, id, &xs, &b0.block(id)[..n])
        })
        .fold(0.0, f64::max)
}

/// Mode choice reads each lane's spike decay. A dominant lane's tips
/// vanish and it takes the truncated path; a non-dominant lane's do not,
/// and it goes straight to the exact reduced system — its launch count is
/// exactly the exact path's (extract, block factor, augmented solve pair,
/// reduced band factor, reduced solve pair, combine, residual guard), with
/// no truncated attempt or refinement round before it.
#[test]
fn lanes_choose_their_mode_from_the_spike_decay() {
    let dev = dev();
    let (n, kl, ku) = (768, 3, 3);
    let params = SpikeParams::auto(&dev, kl)
        .with_parts(4)
        .with_mode(SpikeMode::Truncated);
    let b0 = rhs::<f64>(1, n, 1);

    let dominant = dominant_band::<f64>(1, n, kl, ku);
    let (rep, x) = run_split(&dominant, &b0, params);
    assert!(
        matches!(rep.outcomes[0], SpikeOutcome::Truncated { .. }),
        "dominant lane: {:?}",
        rep.outcomes[0]
    );
    assert!(worst_residual(&dominant, &b0, &x) <= 10.0 * f64::EPSILON);

    let uniform = nondominant_band::<f64>(1, n, kl, ku);
    let (rep, x) = run_split(&uniform, &b0, params);
    assert_eq!(rep.outcomes[0], SpikeOutcome::Exact, "non-dominant lane");
    assert_eq!(
        rep.launches.len(),
        9,
        "exact path only, no refinement round"
    );
    assert!(worst_residual(&uniform, &b0, &x) <= 1e-10);
}

/// The stall fallback: a weakly dominant lane passes the decay test, but
/// with `max_refine = 0` its unrefined truncated answer misses the target
/// and must walk on to the exact reduced system. Skipping that step would
/// leave a residual near the dropped tips (~1e-10) and fail the bound.
#[test]
fn weak_decay_with_no_refinement_walks_truncated_then_exact() {
    let dev = dev();
    let n = 96;
    let a0 = weakly_dominant(n);
    let b0 = rhs::<f64>(1, n, 1);
    let params = SpikeParams {
        parts: 4,
        mode: SpikeMode::Truncated,
        max_refine: 0,
        ..SpikeParams::auto(&dev, 1)
    };
    let (rep, x) = run_split(&a0, &b0, params);
    assert_eq!(
        rep.outcomes[0],
        SpikeOutcome::ExactFallback { refine_iters: 0 }
    );
    // Both reduced systems ran: 4 shared + 5 truncated + 5 exact launches.
    assert_eq!(rep.launches.len(), 14);
    let r = worst_residual(&a0, &b0, &x);
    assert!(r <= 10.0 * f64::EPSILON, "fallback residual {r:.3e}");

    // With refinement allowed the same lane converges on the truncated
    // path, after at least one round.
    let (rep, _) = run_split(
        &a0,
        &b0,
        SpikeParams {
            max_refine: 8,
            ..params
        },
    );
    assert!(
        matches!(rep.outcomes[0], SpikeOutcome::Truncated { refine_iters } if refine_iters >= 1),
        "{:?}",
        rep.outcomes[0]
    );
}
