//! Retained factorizations: the container a serving-layer factor cache
//! stores per operator.
//!
//! One [`RetainedFactor`] holds a single lane's `gbtrf` output — the
//! factored band storage (with fill-in rows) at the precision the lane
//! ran at, plus its 0-based pivot sequence. Retention is lossless: the
//! payload is the exact factored band, so a later `gbtrs` over it is
//! bitwise-identical to the solve that would have followed a fresh
//! factorization.

use crate::band::BandMatrixRef;
use crate::batch::BandBatch;
use crate::gbtrf::gbtrf;
use crate::gbtrs::{gbtrs, Transpose};
use crate::layout::BandLayout;
use crate::scalar::{Precision, Scalar};
use crate::spike::{spike_factorize, spike_solve_retained, SpikeFactor};

/// Factored band payload at the precision the factorization ran at.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorPayload {
    /// Double-precision factors.
    F64(Vec<f64>),
    /// Single-precision factors (F32-tagged serve traffic).
    F32(Vec<f32>),
    /// Double-precision SPIKE factorization (large-`n` split operators):
    /// `P` block LUs + spikes + the factored reduced system.
    SpikeF64(Box<SpikeFactor<f64>>),
    /// Single-precision SPIKE factorization.
    SpikeF32(Box<SpikeFactor<f32>>),
}

/// One lane's retained LU factorization: factored band + pivots.
#[derive(Debug, Clone, PartialEq)]
pub struct RetainedFactor {
    /// Band layout of the factored storage (factor flavour, with
    /// fill-in rows).
    pub layout: BandLayout,
    /// The factored band payload.
    pub payload: FactorPayload,
    /// 0-based pivot indices, one per eliminated column.
    pub pivots: Vec<i32>,
}

/// Maps a [`Scalar`] to its [`FactorPayload`] variants, so generic code
/// can retain and read factors at the precision it runs at. Sealed in
/// effect: [`Scalar`] is sealed, and the orphan rule keeps other crates
/// from implementing this trait for `f32`/`f64`.
pub trait FactorScalar: Scalar {
    /// Wrap monolithic band factors.
    fn band_payload(factors: Vec<Self>) -> FactorPayload;
    /// Wrap a SPIKE factorization.
    fn spike_payload(f: SpikeFactor<Self>) -> FactorPayload;
    /// The monolithic band factors, when `p` holds them at this precision.
    fn band_of(p: &FactorPayload) -> Option<&[Self]>;
    /// The SPIKE factorization, when `p` holds one at this precision.
    fn spike_of(p: &FactorPayload) -> Option<&SpikeFactor<Self>>;
}

macro_rules! factor_scalar {
    ($s:ty, $band:ident, $spike:ident) => {
        impl FactorScalar for $s {
            fn band_payload(factors: Vec<Self>) -> FactorPayload {
                FactorPayload::$band(factors)
            }
            fn spike_payload(f: SpikeFactor<Self>) -> FactorPayload {
                FactorPayload::$spike(Box::new(f))
            }
            fn band_of(p: &FactorPayload) -> Option<&[Self]> {
                match p {
                    FactorPayload::$band(v) => Some(v),
                    _ => None,
                }
            }
            fn spike_of(p: &FactorPayload) -> Option<&SpikeFactor<Self>> {
                match p {
                    FactorPayload::$spike(f) => Some(f),
                    _ => None,
                }
            }
        }
    };
}

factor_scalar!(f64, F64, SpikeF64);
factor_scalar!(f32, F32, SpikeF32);

impl RetainedFactor {
    /// Harvest one lane out of a factored batch.
    #[must_use]
    pub fn from_lane<S: FactorScalar>(a: &BandBatch<S>, piv: &[i32], lane: usize) -> Self {
        let stride = a.matrix_stride();
        RetainedFactor {
            layout: a.layout(),
            payload: S::band_payload(a.data()[lane * stride..(lane + 1) * stride].to_vec()),
            pivots: piv.to_vec(),
        }
    }

    /// Factor one operator on the host at precision `S`: split as a SPIKE
    /// factorization when `split` gives the `(parts, nb)` of its device
    /// plan ([`spike_factorize`]), else monolithic `gbtrf`. `Err` carries
    /// the failing `info` code (of a block or the reduced system, for a
    /// split).
    pub fn factor<S: FactorScalar>(
        layout: BandLayout,
        mut ab: Vec<S>,
        split: Option<(usize, usize)>,
    ) -> Result<Self, i32> {
        let (payload, pivots) = match split {
            Some((parts, nb)) => {
                let aref = BandMatrixRef {
                    layout,
                    data: &ab[..],
                };
                (
                    S::spike_payload(spike_factorize(&aref, parts, nb)?),
                    Vec::new(),
                )
            }
            None => {
                let mut ipiv = vec![0i32; layout.m.min(layout.n)];
                match gbtrf::<S>(&layout, &mut ab, &mut ipiv) {
                    0 => (S::band_payload(ab), ipiv),
                    code => return Err(code),
                }
            }
        };
        Ok(RetainedFactor {
            layout,
            payload,
            pivots,
        })
    }

    /// Solve `b` (`nrhs` columns of leading dimension `n`) in place over
    /// the retained factors: a SPIKE payload through
    /// [`spike_solve_retained`], monolithic factors through band `gbtrs`.
    ///
    /// # Panics
    /// If the payload was not retained at precision `S`.
    pub fn solve<S: FactorScalar>(&self, b: &mut [S], nrhs: usize) {
        match (self.spike::<S>(), self.factors::<S>()) {
            (Some(f), _) => spike_solve_retained(f, b, nrhs),
            (None, Some(ab)) => gbtrs(
                Transpose::No,
                &self.layout,
                ab,
                &self.pivots,
                b,
                self.layout.n,
                nrhs,
            ),
            (None, None) => panic!("retained factor is not at precision {}", S::PRECISION),
        }
    }

    /// Precision of the retained payload.
    #[must_use]
    pub fn precision(&self) -> Precision {
        match self.payload {
            FactorPayload::F64(_) | FactorPayload::SpikeF64(_) => Precision::F64,
            FactorPayload::F32(_) | FactorPayload::SpikeF32(_) => Precision::F32,
        }
    }

    /// The monolithic band factors, when retained at precision `S`
    /// (`None` for SPIKE payloads).
    #[must_use]
    pub fn factors<S: FactorScalar>(&self) -> Option<&[S]> {
        S::band_of(&self.payload)
    }

    /// The retained SPIKE factorization, when the operator was split at
    /// precision `S`.
    #[must_use]
    pub fn spike<S: FactorScalar>(&self) -> Option<&SpikeFactor<S>> {
        S::spike_of(&self.payload)
    }

    /// Retained footprint in bytes (payload + pivots) — what a cache's
    /// byte budget accounts against.
    #[must_use]
    pub fn bytes(&self) -> usize {
        let payload = match &self.payload {
            FactorPayload::F64(v) => v.len() * std::mem::size_of::<f64>(),
            FactorPayload::F32(v) => v.len() * std::mem::size_of::<f32>(),
            FactorPayload::SpikeF64(f) => f.bytes(),
            FactorPayload::SpikeF32(f) => f.bytes(),
        };
        payload + self.pivots.len() * std::mem::size_of::<i32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::BandMatrixMut;
    use crate::gbsv::gbsv;
    use crate::gbtf2::gbtf2;

    #[test]
    fn harvested_lane_round_trips_bitwise() {
        let batch = 3;
        let (n, kl, ku) = (8, 1, 2);
        let mut a = BandBatch::<f64>::from_fn(batch, n, n, kl, ku, |id, m| {
            for j in 0..n {
                let (s, e) = m.layout.col_rows(j);
                for i in s..e {
                    m.set(i, j, ((i + 2 * j + id) % 4) as f64 * 0.25 + 0.1);
                }
                m.set(j, j, 3.0);
            }
        })
        .unwrap();
        let l = a.layout();
        let stride = a.matrix_stride();
        let mut pivots = vec![vec![0i32; n]; batch];
        for k in 0..batch {
            let ab = &mut a.data_mut()[k * stride..(k + 1) * stride];
            assert_eq!(gbtf2(&l, ab, &mut pivots[k]), 0);
        }
        let lane = 1;
        let retained = RetainedFactor::from_lane(&a, &pivots[lane], lane);
        assert_eq!(retained.precision(), Precision::F64);
        assert_eq!(
            retained.factors::<f64>().unwrap(),
            &a.data()[lane * stride..(lane + 1) * stride]
        );
        assert_eq!(retained.pivots, pivots[lane]);
        assert!(retained.factors::<f32>().is_none());
        assert_eq!(
            retained.bytes(),
            stride * std::mem::size_of::<f64>() + n * std::mem::size_of::<i32>()
        );
    }

    #[test]
    fn host_factor_and_solve_follow_the_payload_kind() {
        let (n, kl, ku) = (64, 2, 1);
        let l = BandLayout::factor(n, n, kl, ku).unwrap();
        let mut ab = vec![0.0f64; l.len()];
        {
            let mut m = BandMatrixMut {
                layout: l,
                data: &mut ab,
            };
            for j in 0..n {
                let (s, e) = l.col_rows(j);
                for i in s..e {
                    m.set(i, j, ((i * 5 + j * 3) % 7) as f64 * 0.1 - 0.3);
                }
                m.set(j, j, 4.0);
            }
        }
        let b0: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut want = b0.clone();
        let mut ipiv = vec![0i32; n];
        assert_eq!(gbsv(&l, &mut ab.clone(), &mut ipiv, &mut want, n, 1), 0);

        // Monolithic: bitwise the gbsv solve.
        let mono = RetainedFactor::factor(l, ab.clone(), None).unwrap();
        assert!(mono.factors::<f64>().is_some() && mono.spike::<f64>().is_none());
        let mut b = b0.clone();
        mono.solve(&mut b, 1);
        assert_eq!(b, want);

        // Split: a SPIKE payload with no monolithic pivots, same answer.
        let split = RetainedFactor::factor(l, ab.clone(), Some((4, 8))).unwrap();
        assert!(split.spike::<f64>().is_some() && split.pivots.is_empty());
        let mut b = b0.clone();
        split.solve(&mut b, 1);
        for (x, y) in b.iter().zip(&want) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }

        // A singular operator reports its info code.
        let mut zero_col = ab;
        let (s, e) = l.col_rows(0);
        for i in s..e {
            zero_col[l.idx_full(i, 0).unwrap()] = 0.0;
        }
        assert_eq!(RetainedFactor::factor(l, zero_col, None), Err(1));
    }

    #[test]
    fn f32_payload_reports_half_width() {
        let l = BandLayout::factor(4, 4, 1, 1).unwrap();
        let f64_side = RetainedFactor {
            layout: l,
            payload: FactorPayload::F64(vec![0.0; l.len()]),
            pivots: vec![0; 4],
        };
        let f32_side = RetainedFactor {
            layout: l,
            payload: FactorPayload::F32(vec![0.0; l.len()]),
            pivots: vec![0; 4],
        };
        assert_eq!(f32_side.precision(), Precision::F32);
        assert!(f32_side.factors::<f32>().is_some());
        assert_eq!(
            f64_side.bytes() - f32_side.bytes(),
            l.len() * std::mem::size_of::<f32>()
        );
    }
}
