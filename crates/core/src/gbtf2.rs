//! Unblocked band LU factorization with partial pivoting — the exact
//! semantics of LAPACK's `DGBTF2`, and the column-step building blocks the
//! paper's reference GPU implementation launches as individual kernels
//! (Section 5.1: `IAMAX`, `GET_UPDATE_BOUND`, `SET_FILLIN`, `SWAP`, `SCAL`,
//! `RANK_ONE_UPDATE`).
//!
//! On exit the band array holds `U` in rows `0..=kv` (bandwidth `kl + ku`)
//! and the multipliers of `L` in the `kl` rows below the diagonal. Pivot
//! indices are **0-based**: `ipiv[j] = j + jp` means full-matrix rows `j` and
//! `j + jp` were swapped at step `j`.

use crate::lanes;
use crate::layout::{update_bound, BandLayout};
use crate::scalar::Scalar;

/// State carried across column steps of the factorization.
#[derive(Debug, Clone, Copy, Default)]
pub struct ColumnStepState {
    /// Highest column index (0-based) touched by any elimination so far.
    pub ju: usize,
    /// LAPACK info code: 0, or 1-based index of the first zero pivot.
    pub info: i32,
}

/// Zero the fill-in rows of the columns that become reachable before the
/// main loop starts: LAPACK `DGBTF2` prologue (columns `ku+1 .. min(kv, n)`
/// 0-based, band rows `kv - j .. kl`).
pub fn set_fillin_prologue<S: Scalar>(l: &BandLayout, ab: &mut [S]) {
    let kv = l.kv();
    let hi = kv.min(l.n);
    for j in (l.ku + 1)..hi {
        for i in (kv - j)..l.kl {
            ab[l.idx(i, j)] = S::ZERO;
        }
    }
}

/// `SET_FILLIN` for the main loop: when column `j + kv` enters the window,
/// zero its `kl` fill rows.
#[inline]
pub fn set_fillin_step<S: Scalar>(l: &BandLayout, ab: &mut [S], j: usize) {
    let kv = l.kv();
    if j + kv < l.n {
        for i in 0..l.kl {
            ab[l.idx(i, j + kv)] = S::ZERO;
        }
    }
}

/// `IAMAX` over the pivot candidates of column `j`: the diagonal plus the
/// `km` sub-diagonal entries. Returns the 0-based offset `jp` (`0..=km`).
#[inline]
pub fn pivot_search<S: Scalar>(l: &BandLayout, ab: &[S], j: usize) -> usize {
    let kv = l.kv();
    let km = l.km(j);
    let base = l.idx(kv, j);
    let mut jp = 0usize;
    let mut best = S::from_f64(-1.0);
    for k in 0..=km {
        let a = ab[base + k].abs();
        if a > best {
            best = a;
            jp = k;
        }
    }
    jp
}

/// `SWAP`: exchange full-matrix rows `j` and `j + jp` over columns
/// `j ..= ju` ("swap to the right only", paper §5.1 — the part of row `j`
/// left of the diagonal belongs to `L` and stays in place).
#[inline]
pub fn swap_step<S: Scalar>(l: &BandLayout, ab: &mut [S], j: usize, jp: usize, ju: usize) {
    if jp == 0 {
        return;
    }
    let kv = l.kv();
    for (k, c) in (j..=ju).enumerate() {
        ab.swap(l.idx(kv + jp - k, c), l.idx(kv - k, c));
    }
}

/// `SCAL`: divide the `km` sub-diagonal entries of column `j` by the pivot,
/// forming the multipliers of `L`.
#[inline]
pub fn scal_step<S: Scalar>(l: &BandLayout, ab: &mut [S], j: usize) {
    let kv = l.kv();
    let km = l.km(j);
    let piv = ab[l.idx(kv, j)];
    debug_assert!(piv != S::ZERO);
    let inv = S::ONE / piv;
    let base = l.idx(kv, j);
    lanes::for_each(&mut ab[base + 1..=base + km], |v| *v *= inv);
}

/// `RANK_ONE_UPDATE`: trailing update `A[j+1..j+km, j+1..=ju] -= l_j * u_j^T`
/// where `l_j` are the multipliers and `u_j` is row `j` of `U` (walked with
/// stride `ldab - 1` in band storage).
#[inline]
pub fn rank_one_update<S: Scalar>(l: &BandLayout, ab: &mut [S], j: usize, ju: usize) {
    let kv = l.kv();
    let km = l.km(j);
    if km == 0 || ju <= j {
        return;
    }
    for c in 1..=(ju - j) {
        let u = ab[l.idx(kv - c, j + c)];
        if u == S::ZERO {
            continue;
        }
        let src = l.idx(kv, j);
        let dst = l.idx(kv - c, j + c);
        // The multipliers live in column j and the updated entries in
        // column j + c; `src + km <= j*ldab + kv + kl < (j+1)*ldab <= dst`
        // (factor storage has `ldab >= kv + kl + 1`), so the two ranges
        // split cleanly and the update is a chunked axpy.
        let (lo, hi) = ab.split_at_mut(dst);
        let muls = &lo[src + 1..=src + km];
        lanes::zip_each(&mut hi[1..=km], muls, |ai, &li| *ai -= li * u);
    }
}

/// One full column step of the factorization (used by both the sequential
/// reference below and the simulated-GPU reference implementation).
/// Returns the pivot offset `jp` chosen at this step.
pub fn column_step<S: Scalar>(
    l: &BandLayout,
    ab: &mut [S],
    ipiv: &mut [i32],
    j: usize,
    state: &mut ColumnStepState,
) -> usize {
    let kv = l.kv();
    set_fillin_step(l, ab, j);
    let jp = pivot_search(l, ab, j);
    ipiv[j] = (j + jp) as i32;
    if ab[l.idx(kv + jp, j)] != S::ZERO {
        state.ju = update_bound(state.ju.max(j), j, l.ku, jp, l.n);
        swap_step(l, ab, j, jp, state.ju);
        if l.km(j) > 0 {
            scal_step(l, ab, j);
            rank_one_update(l, ab, j, state.ju);
        }
    } else if state.info == 0 {
        state.info = (j + 1) as i32;
    }
    jp
}

/// Unblocked band LU factorization with partial pivoting (`DGBTF2`).
///
/// * `ab` — band array in factor storage (`ldab >= 2*kl + ku + 1`),
///   overwritten with the factors.
/// * `ipiv` — `min(m, n)` pivot indices (0-based) on exit.
///
/// Returns the LAPACK info code: `0` on success, `j > 0` if `U[j-1][j-1]`
/// is exactly zero (factorization completed; solves will divide by zero).
pub fn gbtf2<S: Scalar>(l: &BandLayout, ab: &mut [S], ipiv: &mut [i32]) -> i32 {
    debug_assert!(ab.len() >= l.len(), "band array too short");
    debug_assert!(ipiv.len() >= l.m.min(l.n), "pivot array too short");
    debug_assert!(l.row_offset == l.kv(), "gbtf2 requires factor storage");
    set_fillin_prologue(l, ab);
    let mut state = ColumnStepState::default();
    for j in 0..l.m.min(l.n) {
        column_step(l, ab, ipiv, j, &mut state);
    }
    state.info
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::BandMatrix;
    use crate::dense;

    /// Reconstruct the original matrix from band factors by undoing the
    /// factorization exactly: `A = P_0 E_0^{-1} P_1 E_1^{-1} ... U`, where
    /// the multipliers of `E_j` sit below the diagonal of band column `j`
    /// (band storage keeps them in *pre-subsequent-swap* position, unlike
    /// dense LU — the paper's "lower factor is not stored in its final
    /// form").
    fn reconstruct_from_band(l: &super::BandLayout, ab: &[f64], ipiv: &[i32]) -> Vec<f64> {
        let (m, n) = (l.m, l.n);
        let kv = l.kv();
        // Start from U (rows 0..=kv of the band, i.e. i in [j-kv, j]).
        let mut x = vec![0.0; m * n];
        for j in 0..n {
            for i in j.saturating_sub(kv)..=(j.min(m - 1)) {
                x[i + j * m] = ab[l.idx(kv + i - j, j)];
            }
        }
        for j in (0..m.min(n)).rev() {
            let km = l.km(j);
            // Undo the elimination: rows j+1..=j+km += l_i * row j.
            for i in 1..=km {
                let mult = ab[l.idx(kv + i, j)];
                if mult != 0.0 {
                    for c in 0..n {
                        x[(j + i) + c * m] += mult * x[j + c * m];
                    }
                }
            }
            // Undo the pivot swap.
            let p = ipiv[j] as usize;
            if p != j {
                for c in 0..n {
                    x.swap(j + c * m, p + c * m);
                }
            }
        }
        x
    }

    /// Factor a band matrix; check pivots + `U` against the dense LU oracle
    /// and the full factorization by exact reconstruction.
    fn check_against_dense(a: &BandMatrix) {
        let l = a.layout();
        let (m, n) = (l.m, l.n);
        let dense_a = a.to_dense();

        let mut ab = a.data().to_vec();
        let mut ipiv = vec![0i32; m.min(n)];
        let info_band = gbtf2(&l, &mut ab, &mut ipiv);

        let mut lu = dense_a.clone();
        let mut dpiv = vec![0i32; m.min(n)];
        let info_dense = dense::getrf(m, n, &mut lu, m, &mut dpiv);
        assert_eq!(info_band, info_dense, "info mismatch");
        assert_eq!(ipiv, dpiv, "pivot sequences must agree");

        // U is swap-invariant: compare entry-wise against dense LU.
        let kv = l.kv();
        for j in 0..n {
            for i in j.saturating_sub(kv)..=(j.min(m - 1)) {
                let band_val = ab[l.idx(kv + i - j, j)];
                let dense_val = lu[i + j * m];
                assert!(
                    (band_val - dense_val).abs() <= 1e-12 * dense_val.abs().max(1.0),
                    "U mismatch at ({i},{j}): band {band_val} dense {dense_val}"
                );
            }
        }

        // L is validated through exact reconstruction of A.
        let rebuilt = reconstruct_from_band(&l, &ab, &ipiv);
        for j in 0..n {
            for i in 0..m {
                let (orig, got) = (dense_a[i + j * m], rebuilt[i + j * m]);
                assert!(
                    (orig - got).abs() <= 1e-11 * orig.abs().max(1.0),
                    "reconstruction mismatch at ({i},{j}): {got} != {orig}"
                );
            }
        }
    }

    fn fig2_matrix() -> BandMatrix {
        // 9x9, kl = 2, ku = 3 like the paper's Figure 2, diagonally dominant.
        let mut a = BandMatrix::zeros_factor(9, 9, 2, 3).unwrap();
        let mut v = 0.3f64;
        for j in 0..9 {
            let (s, e) = a.layout().col_rows(j);
            for i in s..e {
                v = (v * 1.7 + 0.13).fract();
                a.set(i, j, if i == j { 4.0 + v } else { v - 0.5 });
            }
        }
        a
    }

    #[test]
    fn factors_match_dense_oracle_dominant() {
        check_against_dense(&fig2_matrix());
    }

    #[test]
    fn factors_match_dense_oracle_pivoting_required() {
        // Small diagonal entries force row interchanges.
        let mut a = BandMatrix::zeros_factor(8, 8, 2, 1).unwrap();
        let mut v = 0.9f64;
        for j in 0..8 {
            let (s, e) = a.layout().col_rows(j);
            for i in s..e {
                v = (v * 3.9).fract(); // chaotic but deterministic
                a.set(i, j, if i == j { 0.01 * v } else { v + 0.2 });
            }
        }
        check_against_dense(&a);
    }

    #[test]
    fn rectangular_wide_and_tall() {
        for (m, n, kl, ku) in [(6, 9, 2, 1), (9, 6, 1, 2), (5, 12, 3, 0), (12, 5, 0, 3)] {
            let mut a = BandMatrix::zeros_factor(m, n, kl, ku).unwrap();
            let mut v = 0.37f64;
            for j in 0..n {
                let (s, e) = a.layout().col_rows(j);
                for i in s..e {
                    v = (v * 2.3 + 0.11).fract();
                    a.set(i, j, v - 0.5 + if i == j { 3.0 } else { 0.0 });
                }
            }
            check_against_dense(&a);
        }
    }

    #[test]
    fn zero_pivot_reports_info() {
        // First column identically zero -> info = 1 and factorization
        // continues (like LAPACK).
        let mut a = BandMatrix::zeros_factor(4, 4, 1, 1).unwrap();
        a.set(0, 1, 1.0);
        a.set(1, 1, 2.0);
        a.set(2, 1, 0.5);
        a.set(1, 2, 1.0);
        a.set(2, 2, 3.0);
        a.set(3, 2, 0.5);
        a.set(2, 3, 1.0);
        a.set(3, 3, 2.0);
        let l = a.layout();
        let mut ab = a.data().to_vec();
        let mut ipiv = vec![0i32; 4];
        let info = gbtf2(&l, &mut ab, &mut ipiv);
        assert_eq!(info, 1);
    }

    #[test]
    fn diagonal_matrix_is_its_own_factorization() {
        let mut a = BandMatrix::zeros_factor(5, 5, 0, 0).unwrap();
        for j in 0..5 {
            a.set(j, j, (j + 1) as f64);
        }
        let l = a.layout();
        let mut ab = a.data().to_vec();
        let mut ipiv = vec![0i32; 5];
        assert_eq!(gbtf2(&l, &mut ab, &mut ipiv), 0);
        for j in 0..5 {
            assert_eq!(ab[l.idx(l.kv(), j)], (j + 1) as f64);
            assert_eq!(ipiv[j], j as i32);
        }
    }

    #[test]
    fn tridiagonal_no_pivoting_when_dominant() {
        let n = 10;
        let mut a = BandMatrix::zeros_factor(n, n, 1, 1).unwrap();
        for j in 0..n {
            a.set(j, j, 4.0);
            if j > 0 {
                a.set(j - 1, j, -1.0);
                a.set(j, j - 1, -1.0);
            }
        }
        let l = a.layout();
        let mut ab = a.data().to_vec();
        let mut ipiv = vec![0i32; n];
        assert_eq!(gbtf2(&l, &mut ab, &mut ipiv), 0);
        // Diagonal dominance => no interchanges.
        for (j, &p) in ipiv.iter().enumerate() {
            assert_eq!(p, j as i32);
        }
        check_against_dense(&a);
    }

    #[test]
    fn pivot_offsets_bounded_by_km() {
        let a = fig2_matrix();
        let l = a.layout();
        let mut ab = a.data().to_vec();
        let mut ipiv = vec![0i32; 9];
        gbtf2(&l, &mut ab, &mut ipiv);
        for (j, &p) in ipiv.iter().enumerate() {
            let jp = p as usize - j;
            assert!(jp <= l.km(j), "pivot offset {jp} exceeds km {}", l.km(j));
        }
    }

    #[test]
    fn padded_ldab_supported() {
        // A band array with extra leading-dimension padding must factor to
        // the same values as the minimal layout.
        use crate::layout::{BandLayout, BandStorage};
        let a = fig2_matrix();
        let lmin = a.layout();
        let mut ab_min = a.data().to_vec();
        let mut p_min = vec![0i32; 9];
        gbtf2(&lmin, &mut ab_min, &mut p_min);

        let lpad = BandLayout::with_ldab(9, 9, 2, 3, lmin.ldab + 3, BandStorage::Factor).unwrap();
        let mut ab_pad = vec![f64::NAN; lpad.len()];
        for j in 0..9 {
            let (s, e) = lmin.col_rows_filled(j);
            for i in s..e {
                ab_pad[lpad.idx_full(i, j).unwrap()] = a.get(i, j);
            }
            // Zero the fill rows like BandMatrix does.
            for r in 0..lpad.kl {
                ab_pad[lpad.idx(r, j)] = 0.0;
            }
        }
        let mut p_pad = vec![0i32; 9];
        gbtf2(&lpad, &mut ab_pad, &mut p_pad);
        assert_eq!(p_min, p_pad);
        for j in 0..9 {
            let (s, e) = lmin.col_rows_filled(j);
            for i in s..e {
                let vmin = ab_min[lmin.idx_full(i, j).unwrap()];
                let vpad = ab_pad[lpad.idx_full(i, j).unwrap()];
                assert_eq!(vmin, vpad, "({i},{j})");
            }
        }
    }

    #[test]
    fn building_blocks_compose_to_gbtf2() {
        // Running column_step manually must equal gbtf2.
        let a = fig2_matrix();
        let l = a.layout();
        let mut ab1 = a.data().to_vec();
        let mut ipiv1 = vec![0i32; 9];
        let info1 = gbtf2(&l, &mut ab1, &mut ipiv1);

        let mut ab2 = a.data().to_vec();
        let mut ipiv2 = vec![0i32; 9];
        set_fillin_prologue(&l, &mut ab2);
        let mut st = ColumnStepState::default();
        for j in 0..9 {
            column_step(&l, &mut ab2, &mut ipiv2, j, &mut st);
        }
        assert_eq!(info1, st.info);
        assert_eq!(ipiv1, ipiv2);
        assert_eq!(ab1, ab2, "bit-for-bit identical factors");
    }

    /// A hand-rolled `f32` band LU, written before the stack went
    /// precision-generic: the bitwise oracle for the generic
    /// `gbtf2::<f32>` path.
    fn legacy_gbtf2_f32(l: &super::BandLayout, ab: &mut [f32], ipiv: &mut [i32]) -> i32 {
        let (m, n, kl, ku) = (l.m, l.n, l.kl, l.ku);
        let kv = kl + ku;
        let ldab = l.ldab;
        let idx = |r: usize, c: usize| c * ldab + r;
        for j in (ku + 1)..kv.min(n) {
            for i in (kv - j)..kl {
                ab[idx(i, j)] = 0.0;
            }
        }
        let mut ju = 0usize;
        let mut info = 0i32;
        for j in 0..m.min(n) {
            if j + kv < n {
                for i in 0..kl {
                    ab[idx(i, j + kv)] = 0.0;
                }
            }
            let km = kl.min(m - j - 1);
            let base = idx(kv, j);
            let mut jp = 0usize;
            let mut best = -1.0f32;
            for k in 0..=km {
                let a = ab[base + k].abs();
                if a > best {
                    best = a;
                    jp = k;
                }
            }
            ipiv[j] = (j + jp) as i32;
            if ab[base + jp] != 0.0 {
                ju = ju.max((j + ku + jp).min(n - 1));
                if jp != 0 {
                    for (k, c) in (j..=ju).enumerate() {
                        ab.swap(idx(kv + jp - k, c), idx(kv - k, c));
                    }
                }
                if km > 0 {
                    let inv = 1.0 / ab[base];
                    for k in 1..=km {
                        ab[base + k] *= inv;
                    }
                    for c in 1..=(ju.saturating_sub(j)) {
                        let u = ab[idx(kv - c, j + c)];
                        if u == 0.0 {
                            continue;
                        }
                        let dst = idx(kv - c, j + c);
                        for i in 1..=km {
                            ab[dst + i] -= ab[base + i] * u;
                        }
                    }
                }
            } else if info == 0 {
                info = (j + 1) as i32;
            }
        }
        info
    }

    /// A hand-rolled single-RHS `f32` triangular solve: the bitwise oracle
    /// for the generic `gbtrs::<f32>` path.
    fn legacy_gbtrs_f32(l: &super::BandLayout, ab: &[f32], ipiv: &[i32], b: &mut [f32]) {
        let n = l.n;
        let kv = l.kv();
        let ldab = l.ldab;
        let idx = |r: usize, c: usize| c * ldab + r;
        if l.kl > 0 {
            for j in 0..n.saturating_sub(1) {
                let lm = l.kl.min(n - 1 - j);
                let p = ipiv[j] as usize;
                if p != j {
                    b.swap(p, j);
                }
                let bj = b[j];
                if bj != 0.0 {
                    let base = idx(kv, j);
                    for i in 1..=lm {
                        b[j + i] -= ab[base + i] * bj;
                    }
                }
            }
        }
        for j in (0..n).rev() {
            let bj = b[j] / ab[idx(kv, j)];
            b[j] = bj;
            if bj != 0.0 {
                let reach = kv.min(j);
                for i in 1..=reach {
                    b[j - i] -= ab[idx(kv - i, j)] * bj;
                }
            }
        }
    }

    fn band(n: usize, kl: usize, ku: usize, seed: f64, dominance: f64) -> BandMatrix {
        let mut a = BandMatrix::zeros_factor(n, n, kl, ku).unwrap();
        let mut v = seed;
        for j in 0..n {
            let (s, e) = a.layout().col_rows(j);
            for i in s..e {
                v = (v * 2.3 + 0.17).fract();
                a.set(i, j, v - 0.5 + if i == j { dominance } else { 0.0 });
            }
        }
        a
    }

    /// The generic `f32` instantiation reproduces the hand-rolled
    /// `f32` factorization and solve bit for bit: factors, pivots, info,
    /// and solutions.
    #[test]
    fn generic_f32_path_matches_legacy_duplicates_bitwise() {
        for (n, kl, ku, seed, dom) in [
            (20, 2, 1, 0.13, 0.0),
            (33, 2, 3, 0.29, 1.5),
            (48, 10, 7, 0.41, 0.0),
            (16, 1, 0, 0.55, 2.0),
            (16, 0, 2, 0.67, 2.0),
        ] {
            let a = band(n, kl, ku, seed, dom);
            let l = a.layout();
            let ab32: Vec<f32> = a.data().iter().map(|&v| v as f32).collect();

            let mut ab_legacy = ab32.clone();
            let mut p_legacy = vec![0i32; n];
            let info_legacy = legacy_gbtf2_f32(&l, &mut ab_legacy, &mut p_legacy);

            let mut ab_generic = ab32.clone();
            let mut p_generic = vec![0i32; n];
            let info_generic = gbtf2::<f32>(&l, &mut ab_generic, &mut p_generic);

            assert_eq!(info_legacy, info_generic, "n={n} kl={kl} ku={ku}");
            assert_eq!(p_legacy, p_generic, "n={n} kl={kl} ku={ku}");
            let legacy_bits: Vec<u32> = ab_legacy.iter().map(|v| v.to_bits()).collect();
            let generic_bits: Vec<u32> = ab_generic.iter().map(|v| v.to_bits()).collect();
            assert_eq!(legacy_bits, generic_bits, "n={n} kl={kl} ku={ku}");

            if info_legacy == 0 {
                let b0: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.37).sin()).collect();
                let mut b_legacy = b0.clone();
                legacy_gbtrs_f32(&l, &ab_legacy, &p_legacy, &mut b_legacy);
                let mut b_generic = b0;
                crate::gbtrs::gbtrs::<f32>(
                    crate::gbtrs::Transpose::No,
                    &l,
                    &ab_generic,
                    &p_generic,
                    &mut b_generic,
                    n,
                    1,
                );
                let lb: Vec<u32> = b_legacy.iter().map(|v| v.to_bits()).collect();
                let gb: Vec<u32> = b_generic.iter().map(|v| v.to_bits()).collect();
                assert_eq!(lb, gb, "solve n={n} kl={kl} ku={ku}");
            }
        }
    }

    #[test]
    fn f32_factorization_pivots_match_f64() {
        // Values representable in f32 exactly: pivots must agree.
        let n = 20;
        let mut a = BandMatrix::zeros_factor(n, n, 2, 1).unwrap();
        let mut v = 1i64;
        for j in 0..n {
            let (s, e) = a.layout().col_rows(j);
            for i in s..e {
                v = (v * 37 + 11) % 97;
                a.set(i, j, (v - 48) as f64 / 16.0); // exact in f32
            }
        }
        let l = a.layout();
        let mut ab64 = a.data().to_vec();
        let mut p64 = vec![0i32; n];
        gbtf2(&l, &mut ab64, &mut p64);
        let mut ab32: Vec<f32> = a.data().iter().map(|&x| x as f32).collect();
        let mut p32 = vec![0i32; n];
        gbtf2::<f32>(&l, &mut ab32, &mut p32);
        assert_eq!(p64, p32);
    }
}
