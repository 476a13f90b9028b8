//! The correctness oracle behind `failed`: every answer is checked against
//! the `f64` inputs it was generated from.

use std::collections::BTreeMap;

use gbatch_core::blas1::norm_inf;
use gbatch_core::blas2::gbmv;
use gbatch_core::gbsv::gbsv;
use gbatch_core::{BandMatrixRef, Precision, Scalar};
use gbatch_serve::{SolveResponse, SolveStatus};

use crate::inputs::Trace;

/// Largest accepted LAPACK solve test ratio.
pub const MAX_RATIO: f64 = 30.0;

/// LAPACK's solve test ratio `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ n ε)`, worst over
/// the `nrhs` column-major right-hand sides; infinite for a non-finite `x`.
pub fn test_ratio(a: BandMatrixRef<'_>, b: &[f64], x: &[f64], nrhs: usize, eps: f64) -> f64 {
    let l = a.layout;
    let mut row_sums = vec![0.0f64; l.m];
    for j in 0..l.n {
        let (s, e) = l.col_rows(j);
        for (i, sum) in row_sums.iter_mut().enumerate().take(e).skip(s) {
            *sum += a.get(i, j).abs();
        }
    }
    let a_norm = row_sums.into_iter().fold(0.0, f64::max);
    let mut worst = 0.0f64;
    for c in 0..nrhs {
        let (bc, xc) = (&b[c * l.n..(c + 1) * l.n], &x[c * l.n..(c + 1) * l.n]);
        // The norms take maxima, which skip NaN.
        if !xc.iter().all(|v| v.is_finite()) {
            return f64::INFINITY;
        }
        let mut r = bc.to_vec();
        gbmv(-1.0, a, xc, 1.0, &mut r);
        let num = norm_inf(&r);
        let den = a_norm * norm_inf(xc) * l.n as f64 * eps;
        let ratio = if num == 0.0 {
            0.0
        } else if den > 0.0 {
            num / den
        } else {
            f64::INFINITY
        };
        worst = worst.max(ratio);
    }
    worst
}

/// Whether one answer, solved at precision `S`, passes. `info == 0` must
/// meet the test ratio. `info > 0` must be what a sequential
/// `core::gbsv` reports for the same system at the same precision: an
/// exactly zero pivot is a property of that arithmetic (a uniform `f32`
/// band can hit one), and the kernels reproduce `core` bit for bit.
pub fn lane_ok<S: Scalar>(
    a: BandMatrixRef<'_>,
    b: &[f64],
    x: &[f64],
    nrhs: usize,
    info: i32,
) -> bool {
    match info {
        0 => test_ratio(a, b, x, nrhs, S::EPSILON.to_f64()) <= MAX_RATIO,
        column if column > 0 => {
            let l = a.layout;
            let mut ab: Vec<S> = a.data.iter().map(|&v| S::from_f64(v)).collect();
            let mut rhs: Vec<S> = b.iter().map(|&v| S::from_f64(v)).collect();
            let mut ipiv = vec![0; l.n];
            gbsv::<S>(&l, &mut ab, &mut ipiv, &mut rhs, l.n, nrhs) == column
        }
        _ => false,
    }
}

/// Per-request verdict of one pass over a serve trace, aligned with
/// `trace.requests`. A request fails when it was refused, answered more
/// or less than once, `TimedOut` or `Failed`, `Solved` although its
/// operator is poisoned, or when its answer fails [`lane_ok`] at the
/// bucket's precision.
pub fn check_serve(trace: &Trace, refused: &[u64], responses: &[SolveResponse]) -> Vec<bool> {
    let mut by_id: BTreeMap<u64, Vec<&SolveResponse>> = BTreeMap::new();
    for r in responses {
        by_id.entry(r.id).or_default().push(r);
    }
    trace
        .requests
        .iter()
        .map(|req| {
            if refused.contains(&req.id) {
                return false;
            }
            let [resp] = by_id.get(&req.id).map_or(&[][..], Vec::as_slice) else {
                return false;
            };
            let info = match resp.status {
                SolveStatus::Singular { column } => column,
                SolveStatus::Solved if !trace.poisoned.contains(&req.id) => 0,
                _ => return false,
            };
            let a = BandMatrixRef {
                layout: req.shape.layout().expect("generated shapes are valid"),
                data: &req.ab,
            };
            let (b, x, nrhs) = (&req.rhs, &resp.x, req.shape.nrhs);
            match req.shape.precision {
                Precision::F32 => lane_ok::<f32>(a, b, x, nrhs, info),
                Precision::F64 => lane_ok::<f64>(a, b, x, nrhs, info),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbatch_core::BandMatrix;

    #[test]
    fn exact_answer_passes_and_a_perturbed_one_fails() {
        let mut a = BandMatrix::zeros_factor(4, 4, 1, 1).unwrap();
        for j in 0..4 {
            a.set(j, j, 2.0);
            if j > 0 {
                a.set(j - 1, j, -1.0);
                a.set(j, j - 1, -1.0);
            }
        }
        let b = [1.0, 0.0, 0.0, 1.0];
        let x = [1.0; 4];
        assert_eq!(test_ratio(a.as_ref(), &b, &x, 1, f64::EPSILON), 0.0);
        assert!(lane_ok::<f64>(a.as_ref(), &b, &x, 1, 0));
        // A healthy system reported singular fails; a genuinely singular
        // one passes with the column a sequential `gbsv` reports.
        assert!(!lane_ok::<f64>(a.as_ref(), &b, &x, 1, 1));
        let zero = BandMatrix::zeros_factor(4, 4, 1, 1).unwrap();
        assert!(lane_ok::<f64>(zero.as_ref(), &b, &b, 1, 1));
        assert!(!lane_ok::<f64>(zero.as_ref(), &b, &b, 1, 2));
        let bad = [1.0, 1.0 + 1e-9, 1.0, 1.0];
        assert!(test_ratio(a.as_ref(), &b, &bad, 1, f64::EPSILON) > MAX_RATIO);
        // The same error is within single-precision tolerance.
        assert!(test_ratio(a.as_ref(), &b, &bad, 1, f64::from(f32::EPSILON)) < MAX_RATIO);
        assert!(!lane_ok::<f64>(a.as_ref(), &b, &[f64::NAN; 4], 1, 0));
    }
}
