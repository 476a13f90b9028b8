//! SPIKE-style partitioning of one large band system (Li/Serban/Negrut,
//! arXiv:1509.07919): the host-side math of the workspace's third dispatch
//! regime.
//!
//! A single `n x n` band system is split into `P` diagonal blocks
//! `A_0 .. A_{P-1}` plus the off-diagonal *coupling corners* the split cuts
//! through: a `ku x ku` lower-triangular corner `B_p` coupling block `p` to
//! the top of block `p+1`, and a `kl x kl` upper-triangular corner `C_p`
//! coupling block `p+1` back to the bottom of block `p`. Each block is
//! factored independently (that is the intra-matrix parallelism the device
//! kernels exploit — all `P` blocks ride one batched launch), the coupling
//! is condensed into a small banded **reduced system** over the interface
//! unknowns, and the block solutions are recovered by back-substituting the
//! interface values ("combining" the spikes).
//!
//! Notation, with `s_p`/`e_p` the start/end row of block `p` and
//! `g_p = A_p^{-1} f_p`, `V_p = A_p^{-1} [0; B_p]`, `W_p = A_p^{-1} [C_{p-1}; 0]`:
//!
//! ```text
//!   x_p + V_p t_{p+1} + W_p b_{p-1} = g_p
//! ```
//!
//! where `t_p` is the top `ku` and `b_p` the bottom `kl` entries of `x_p`.
//! Collecting the top-`ku` rows (blocks `1..P`) and bottom-`kl` rows
//! (blocks `0..P-1`) of these equations yields a block-tridiagonal
//! system of order `(P-1)(kl + ku)` over the interface unknowns
//! `[b_0, t_1, b_1, t_2, ...]` — tiny next to `n`. Block-tridiagonal
//! means banded: the reduced system is stored with bandwidths
//! `(2kl + ku - 1, kl + 2ku - 1)` ([`SpikePartition::reduced_layout`]) and
//! factored by the same band LU as everything else. The module is generic
//! over [`Scalar`] and deliberately free of any device dependency: the
//! `gbatch-kernels` spike driver runs what these functions assemble through its
//! batched band kernels, and the serving layer's factor cache retains a
//! [`SpikeFactor`] built from the same pieces with the host `gbtrf`.

use crate::band::BandMatrixRef;
use crate::batch::{BandBatch, PivotBatch, RhsBatch};
use crate::gbtrf::gbtrf;
use crate::gbtrs::{gbtrs, Transpose};
use crate::layout::BandLayout;
use crate::scalar::Scalar;

/// How one band system is split into diagonal blocks.
///
/// All blocks share one uniform length ([`SpikePartition::block`]) so they
/// can ride a uniform [`BandBatch`]; only the last block may cover fewer
/// true rows and is padded with identity rows/columns (unit diagonal, zero
/// right-hand side), which factor trivially and never pivot into the true
/// rows. The constructor clamps the requested part count so every block is
/// wide enough to hold its coupling corners (`block > kl`, `block > ku`,
/// and the top-`ku` / bottom-`kl` interface rows of a block never overlap:
/// `block >= kl + ku`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpikePartition {
    /// Order of the full system.
    pub n: usize,
    /// Sub-diagonal count.
    pub kl: usize,
    /// Super-diagonal count.
    pub ku: usize,
    /// Effective number of diagonal blocks (`<=` the requested count).
    pub parts: usize,
    /// Uniform block length; the last block covers `n - (parts-1)*block`
    /// true rows and is identity-padded up to `block`.
    pub block: usize,
}

impl SpikePartition {
    /// Partition an `n`-order system with bandwidths `(kl, ku)` into (at
    /// most) `parts` blocks. The effective count is clamped so every block
    /// holds at least `kl + ku + 1` rows; `parts <= 1` or a system too
    /// small to split yields the trivial one-block partition.
    #[must_use]
    pub fn new(n: usize, kl: usize, ku: usize, parts: usize) -> Self {
        assert!(n > 0, "empty system");
        let min_block = kl + ku + 1;
        let mut p = parts.clamp(1, (n / min_block).max(1));
        loop {
            let block = n.div_ceil(p);
            let p_eff = n.div_ceil(block);
            let last = n - (p_eff - 1) * block;
            if p_eff == 1 || last >= min_block {
                return SpikePartition {
                    n,
                    kl,
                    ku,
                    parts: p_eff,
                    block,
                };
            }
            p -= 1;
        }
    }

    /// First global row/column of block `p`.
    #[inline]
    #[must_use]
    pub fn start(&self, p: usize) -> usize {
        p * self.block
    }

    /// Number of *true* (unpadded) rows of block `p`.
    #[inline]
    #[must_use]
    pub fn len(&self, p: usize) -> usize {
        (self.n - p * self.block).min(self.block)
    }

    /// Number of cut interfaces (`parts - 1`).
    #[inline]
    #[must_use]
    pub fn interfaces(&self) -> usize {
        self.parts - 1
    }

    /// Order of the reduced system: `(kl + ku)` interface unknowns per
    /// cut.
    #[inline]
    #[must_use]
    pub fn reduced_order(&self) -> usize {
        self.interfaces() * (self.kl + self.ku)
    }

    /// Layout of the exact reduced system in band factor storage. The
    /// system is block-tridiagonal over interfaces, so an unknown couples
    /// at most `2kl + ku - 1` rows below and `kl + 2ku - 1` columns right
    /// of the diagonal (clamped to the order). `None` for a one-block
    /// partition.
    #[must_use]
    pub fn reduced_layout(&self) -> Option<BandLayout> {
        let r = self.reduced_order();
        if r == 0 {
            return None;
        }
        let (kl, ku) = (self.kl, self.ku);
        let (rkl, rku) = (2 * kl + ku - 1, kl + 2 * ku - 1);
        BandLayout::factor(r, r, rkl.min(r - 1), rku.min(r - 1)).ok()
    }

    /// Layout of one truncated interface block: a dense `(kl + ku)` square
    /// stored as a band with `kl + ku - 1` sub- and super-diagonals. `None`
    /// for a one-block partition.
    #[must_use]
    pub fn interface_layout(&self) -> Option<BandLayout> {
        let kb = self.kl + self.ku;
        if self.interfaces() == 0 {
            return None;
        }
        BandLayout::factor(kb, kb, kb - 1, kb - 1).ok()
    }

    /// Layout of one diagonal block in factor storage (minimal `ldab` —
    /// identical to the full system's minimal factor `ldab`, which is what
    /// lets block factors be written back into the full band array
    /// column-for-column).
    pub fn block_layout(&self) -> crate::error::Result<BandLayout> {
        BandLayout::factor(self.block, self.block, self.kl, self.ku)
    }
}

/// The off-diagonal coupling corners a partition cuts through, stored
/// densely (column-major per corner; entries outside the triangular
/// structure are zero).
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeCoupling<S: Scalar = f64> {
    /// Sub-diagonal count (side of every `C` corner).
    pub kl: usize,
    /// Super-diagonal count (side of every `B` corner).
    pub ku: usize,
    /// Number of interfaces covered.
    pub interfaces: usize,
    /// `B` corners, one `ku x ku` column-major block per interface:
    /// `b[i][r, c] = A[e_i - ku + r, e_i + c]` with `e_i` the end of block
    /// `i` (lower-triangular: zero for `c > r`).
    pub b: Vec<S>,
    /// `C` corners, one `kl x kl` column-major block per interface:
    /// `c[i][r, c] = A[e_i + r, e_i - kl + c]` (upper-triangular: zero for
    /// `r > c`).
    pub c: Vec<S>,
}

impl<S: Scalar> SpikeCoupling<S> {
    /// `B` corner of interface `i`.
    #[must_use]
    pub fn b_corner(&self, i: usize) -> &[S] {
        &self.b[i * self.ku * self.ku..(i + 1) * self.ku * self.ku]
    }

    /// `C` corner of interface `i`.
    #[must_use]
    pub fn c_corner(&self, i: usize) -> &[S] {
        &self.c[i * self.kl * self.kl..(i + 1) * self.kl * self.kl]
    }
}

/// Gather the diagonal blocks of `a` into a `parts`-lane factor-storage
/// [`BandBatch`] (the intra-matrix "batch" every block kernel runs over).
/// Pad rows/columns of a short last block get a unit diagonal.
pub fn extract_blocks<S: Scalar>(
    a: &BandMatrixRef<'_, S>,
    part: &SpikePartition,
) -> crate::error::Result<BandBatch<S>> {
    let bl = part.block_layout()?;
    let mut data = vec![S::ZERO; bl.len() * part.parts];
    extract_blocks_into(a, part, &mut data);
    Ok(BandBatch::from_vec(bl, part.parts, data))
}

/// [`extract_blocks`] into `out`, the storage of a `parts`-lane batch of
/// [`SpikePartition::block_layout`]. Every element of `out` is written,
/// so it may hold anything beforehand.
///
/// # Panics
/// When `out` does not hold exactly the batch.
pub fn extract_blocks_into<S: Scalar>(
    a: &BandMatrixRef<'_, S>,
    part: &SpikePartition,
    out: &mut [S],
) {
    debug_assert_eq!(a.layout.n, part.n);
    let bl = part
        .block_layout()
        .expect("partition produces a valid block layout");
    let ldab = bl.ldab;
    assert_eq!(out.len(), bl.len() * part.parts, "block batch storage");
    for (p, m) in out.chunks_exact_mut(bl.len()).enumerate() {
        let s = part.start(p);
        let len = part.len(p);
        for (jj, col) in m.chunks_exact_mut(ldab).enumerate() {
            if jj < len {
                // The column's band rows inside the block, one slice; the
                // rest of the column (fill rows, rows outside the block)
                // is zero.
                let (rs, re) = bl.col_rows(jj);
                let rows = re.min(len) - rs;
                let src = a.layout.idx_full(s + rs, s + jj).expect("band entry");
                let r0 = bl.idx_full(rs, jj).expect("band entry") - jj * ldab;
                col[..r0].fill(S::ZERO);
                col[r0..r0 + rows].copy_from_slice(&a.data[src..src + rows]);
                col[r0 + rows..].fill(S::ZERO);
            } else {
                col.fill(S::ZERO);
                col[bl.kv()] = S::ONE;
            }
        }
    }
}

/// Gather one `rows`-row diagonal sample block ending at each cut of
/// `part` into an `interfaces()`-lane factor-storage [`BandBatch`] (the
/// decay probe of the device SPIKE driver). Needs `part.block >= rows`.
pub fn extract_samples<S: Scalar>(
    a: &BandMatrixRef<'_, S>,
    part: &SpikePartition,
    rows: usize,
) -> crate::error::Result<BandBatch<S>> {
    debug_assert!(part.block >= rows);
    BandBatch::from_fn(part.interfaces(), rows, rows, part.kl, part.ku, |i, m| {
        let s = part.start(i + 1) - rows;
        for jj in 0..rows {
            let (rs, re) = m.layout.col_rows(jj);
            let src = a.layout.idx_full(s + rs, s + jj).expect("band entry");
            let dst = m.layout.idx_full(rs, jj).expect("band entry");
            m.data[dst..dst + re - rs].copy_from_slice(&a.data[src..src + re - rs]);
        }
    })
}

/// Read the coupling corners of `a` under `part` (host-side reference
/// extraction; the device path stages the same entries through the
/// `spike_extract` kernel).
#[must_use]
pub fn extract_coupling<S: Scalar>(
    a: &BandMatrixRef<'_, S>,
    part: &SpikePartition,
) -> SpikeCoupling<S> {
    let (kl, ku) = (part.kl, part.ku);
    let ifaces = part.interfaces();
    let mut b = vec![S::ZERO; ifaces * ku * ku];
    let mut c = vec![S::ZERO; ifaces * kl * kl];
    for i in 0..ifaces {
        let e = part.start(i + 1);
        for cc in 0..ku {
            for r in 0..ku {
                b[i * ku * ku + cc * ku + r] = a.get(e - ku + r, e + cc);
            }
        }
        for cc in 0..kl {
            for r in 0..kl {
                c[i * kl * kl + cc * kl + r] = a.get(e + r, e - kl + cc);
            }
        }
    }
    SpikeCoupling {
        kl,
        ku,
        interfaces: ifaces,
        b,
        c,
    }
}

/// Build the per-block **augmented** right-hand side `[f_p | B_p | C_p]`:
/// `nrhs` true RHS columns, then `ku` columns carrying the `B` corner in
/// the block's bottom-`ku` true rows (so the solve yields the right spike
/// `V_p`), then `kl` columns carrying the `C` corner in the top-`kl` rows
/// (the left spike `W_p`). One batched GBTRS over this produces `g`, `V`
/// and `W` for every block at once.
pub fn augmented_rhs<S: Scalar>(
    part: &SpikePartition,
    coupling: &SpikeCoupling<S>,
    rhs: &[S],
    nrhs: usize,
) -> crate::error::Result<RhsBatch<S>> {
    let mut out = RhsBatch::zeros(part.parts, part.block, nrhs + part.ku + part.kl)?;
    augmented_rhs_into(part, coupling, rhs, nrhs, out.data_mut());
    Ok(out)
}

/// [`augmented_rhs`] into `out`, the storage of its `parts`-lane batch
/// (`block x (nrhs + ku + kl)` per lane, `ldb = block`). Every element of
/// `out` is written, so it may hold anything beforehand.
///
/// # Panics
/// When `out` does not hold exactly the batch.
pub fn augmented_rhs_into<S: Scalar>(
    part: &SpikePartition,
    coupling: &SpikeCoupling<S>,
    rhs: &[S],
    nrhs: usize,
    out: &mut [S],
) {
    let (kl, ku, n, blk) = (part.kl, part.ku, part.n, part.block);
    let naug = nrhs + ku + kl;
    assert_eq!(out.len(), part.parts * blk * naug, "augmented rhs storage");
    for (p, dst) in out.chunks_exact_mut(blk * naug).enumerate() {
        let s = part.start(p);
        let len = part.len(p);
        for c in 0..nrhs {
            dst[c * blk..c * blk + len].copy_from_slice(&rhs[c * n + s..c * n + s + len]);
            dst[c * blk + len..(c + 1) * blk].fill(S::ZERO);
        }
        dst[nrhs * blk..].fill(S::ZERO);
        if p + 1 < part.parts {
            let corner = coupling.b_corner(p);
            for c in 0..ku {
                for r in 0..ku {
                    dst[(nrhs + c) * blk + (len - ku + r)] = corner[c * ku + r];
                }
            }
        }
        if p > 0 {
            let corner = coupling.c_corner(p - 1);
            for c in 0..kl {
                for r in 0..kl {
                    dst[(nrhs + ku + c) * blk + r] = corner[c * kl + r];
                }
            }
        }
    }
}

/// Visit every structural entry `(row, col, value)` of the reduced system
/// over the interface unknowns, built from the spike tips: `v(p, row, c)`
/// and `w(p, row, c)` read row `row` of block `p`'s right/left spike.
///
/// Unknown ordering per interface `i`: the bottom-`kl` values `b_i` of
/// block `i`, then the top-`ku` values `t_{i+1}` of block `i+1`. Equation
/// ordering matches (bottom-`kl` rows of block `i`'s equation, then
/// top-`ku` rows of block `i+1`'s). Entries whose row and column fall in
/// the same interface form that interface's `(kl + ku)` square diagonal
/// block; the rest (`W_i` bottom tips, `V_{i+1}` top tips) couple
/// neighbouring interfaces and are what truncation drops.
fn reduced_entries<S: Scalar>(
    part: &SpikePartition,
    v: impl Fn(usize, usize, usize) -> S,
    w: impl Fn(usize, usize, usize) -> S,
    mut put: impl FnMut(usize, usize, S),
) {
    let (kl, ku) = (part.kl, part.ku);
    let kb = kl + ku;
    for i in 0..part.interfaces() {
        let row0 = i * kb;
        // Bottom-kl rows of block i's equation:
        //   b_i + V_i^bot t_{i+1} + W_i^bot b_{i-1} = g_i^bot
        for rr in 0..kl {
            let req = row0 + rr;
            let brow = part.len(i) - kl + rr;
            put(req, i * kb + rr, S::ONE);
            for c in 0..ku {
                put(req, i * kb + kl + c, v(i, brow, c));
            }
            if i > 0 {
                for c in 0..kl {
                    put(req, (i - 1) * kb + c, w(i, brow, c));
                }
            }
        }
        // Top-ku rows of block i+1's equation:
        //   t_{i+1} + V_{i+1}^top t_{i+2} + W_{i+1}^top b_i = g_{i+1}^top
        for rr in 0..ku {
            let req = row0 + kl + rr;
            put(req, i * kb + kl + rr, S::ONE);
            for c in 0..kl {
                put(req, i * kb + c, w(i + 1, rr, c));
            }
            if i + 1 < part.interfaces() {
                for c in 0..ku {
                    put(req, (i + 1) * kb + kl + c, v(i + 1, rr, c));
                }
            }
        }
    }
}

/// Assemble the exact reduced system as a one-lane band batch in factor
/// storage ([`SpikePartition::reduced_layout`]), ready for a band LU.
/// `None` for a one-block partition.
pub fn assemble_reduced<S: Scalar>(
    part: &SpikePartition,
    v: impl Fn(usize, usize, usize) -> S,
    w: impl Fn(usize, usize, usize) -> S,
) -> Option<BandBatch<S>> {
    let l = part.reduced_layout()?;
    let mut out = BandBatch::zeros_with_layout(l, 1).expect("reduced layout is valid");
    let mut m = out.matrix_mut(0);
    reduced_entries(part, v, w, |i, j, x| m.set(i, j, x));
    Some(out)
}

/// Assemble the truncated reduced system: one lane per interface holding
/// that interface's own `(kl + ku)` square diagonal block
/// (`[I, V_i^bot; W_{i+1}^top, I]`, [`SpikePartition::interface_layout`]),
/// the coupling to neighbouring interfaces dropped — the classic
/// truncated-SPIKE `DS` approximation. `None` for a one-block partition.
pub fn assemble_truncated<S: Scalar>(
    part: &SpikePartition,
    v: impl Fn(usize, usize, usize) -> S,
    w: impl Fn(usize, usize, usize) -> S,
) -> Option<BandBatch<S>> {
    let l = part.interface_layout()?;
    let kb = l.n;
    let mut out =
        BandBatch::zeros_with_layout(l, part.interfaces()).expect("interface layout is valid");
    reduced_entries(part, v, w, |i, j, x| {
        if i / kb == j / kb {
            out.matrix_mut(i / kb).set(i % kb, j % kb, x);
        }
    });
    Some(out)
}

/// Assemble the reduced right-hand side (column-major
/// `reduced_order x nrhs`) from the block solutions' interface rows:
/// `g(p, row, c)` reads row `row`, RHS column `c` of `g_p = A_p^{-1} f_p`.
pub fn assemble_reduced_rhs<S: Scalar>(
    part: &SpikePartition,
    g: impl Fn(usize, usize, usize) -> S,
    nrhs: usize,
) -> Vec<S> {
    let (kl, ku) = (part.kl, part.ku);
    let kb = kl + ku;
    let r = part.reduced_order();
    let mut out = vec![S::ZERO; r * nrhs];
    for c in 0..nrhs {
        for i in 0..part.interfaces() {
            let row0 = i * kb;
            for rr in 0..kl {
                out[c * r + row0 + rr] = g(i, part.len(i) - kl + rr, c);
            }
            for rr in 0..ku {
                out[c * r + row0 + kl + rr] = g(i + 1, rr, c);
            }
        }
    }
    out
}

/// Recover the full solution from the block solutions and the solved
/// interface vector `y` (column-major `reduced_order x nrhs`):
/// `x_p = g_p - V_p t_{p+1} - W_p b_{p-1}`, written into `x`
/// (column-major `n x nrhs`). The device path runs the same recurrence in
/// the `spike_combine` kernel.
pub fn combine<S: Scalar>(
    part: &SpikePartition,
    g: impl Fn(usize, usize, usize) -> S,
    v: impl Fn(usize, usize, usize) -> S,
    w: impl Fn(usize, usize, usize) -> S,
    y: &[S],
    nrhs: usize,
    x: &mut [S],
) {
    let (kl, ku, n) = (part.kl, part.ku, part.n);
    let kb = kl + ku;
    let r = part.reduced_order();
    for p in 0..part.parts {
        let s = part.start(p);
        let len = part.len(p);
        for c in 0..nrhs {
            for row in 0..len {
                let mut val = g(p, row, c);
                if p + 1 < part.parts {
                    for cc in 0..ku {
                        val -= v(p, row, cc) * y[c * r + p * kb + kl + cc];
                    }
                }
                if p > 0 {
                    for cc in 0..kl {
                        val -= w(p, row, cc) * y[c * r + (p - 1) * kb + cc];
                    }
                }
                x[c * n + s + row] = val;
            }
        }
    }
}

/// A retained SPIKE factorization: everything a warm (factor-reusing)
/// solve needs — the `P` block LUs, the full spikes, and the factored
/// reduced system. This is what the serving layer's factor cache stores
/// for a large-`n` operator instead of one monolithic band LU.
#[derive(Debug, Clone, PartialEq)]
pub struct SpikeFactor<S: Scalar = f64> {
    /// How the operator was split.
    pub partition: SpikePartition,
    /// Factored diagonal blocks (one lane per block, factor storage).
    pub blocks: BandBatch<S>,
    /// Block-local 0-based pivots, one vector per block.
    pub pivots: PivotBatch,
    /// Full spikes, per block: `ku` right-spike (`V_p`) columns then `kl`
    /// left-spike (`W_p`) columns, column-major with leading dimension
    /// [`SpikePartition::block`]. Lane stride `block * (ku + kl)`.
    pub spikes: Vec<S>,
    /// Band LU of the exact reduced system, in the factor storage of
    /// [`SpikePartition::reduced_layout`] (empty for a one-block
    /// partition).
    pub reduced_lu: Vec<S>,
    /// 0-based pivots of the reduced LU.
    pub reduced_piv: Vec<i32>,
    /// Stage block size `nb` of the device plan that chose this split: a
    /// warm solve prices its launches at it. The host numerics never read
    /// it; 0 when no plan prices the split.
    pub nb: usize,
}

impl<S: Scalar> SpikeFactor<S> {
    /// Right-spike entry `V_p[row, c]` (`c < ku`).
    #[inline]
    #[must_use]
    pub fn v(&self, p: usize, row: usize, c: usize) -> S {
        let blk = self.partition.block;
        self.spikes[p * blk * (self.partition.ku + self.partition.kl) + c * blk + row]
    }

    /// Left-spike entry `W_p[row, c]` (`c < kl`).
    #[inline]
    #[must_use]
    pub fn w(&self, p: usize, row: usize, c: usize) -> S {
        let blk = self.partition.block;
        let ku = self.partition.ku;
        self.spikes[p * blk * (ku + self.partition.kl) + (ku + c) * blk + row]
    }

    /// Retained footprint in bytes (what a cache's byte budget accounts
    /// against).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.blocks.bytes()
            + (self.spikes.len() + self.reduced_lu.len()) * S::BYTES
            + (self.pivots.as_slice().len() + self.reduced_piv.len()) * std::mem::size_of::<i32>()
    }
}

/// Host-side SPIKE factorization of one band operator into (at most)
/// `parts` blocks, for a device plan running its stages at block size
/// `nb` ([`SpikeFactor::nb`]). Errors with the first failing block's
/// LAPACK info code (mapped to a global 1-based column) when a block
/// factors singular, or with `-1` when the reduced system is singular —
/// callers fall back to the sequential path on `Err`.
pub fn spike_factorize<S: Scalar>(
    a: &BandMatrixRef<'_, S>,
    parts: usize,
    nb: usize,
) -> std::result::Result<SpikeFactor<S>, i32> {
    let l = a.layout;
    assert_eq!(l.m, l.n, "spike requires a square system");
    let part = SpikePartition::new(l.n, l.kl, l.ku, parts);
    let coupling = extract_coupling(a, &part);
    let mut blocks = extract_blocks(a, &part).expect("partition produces a valid block layout");
    let bl = blocks.layout();
    let mut pivots = PivotBatch::new(part.parts, part.block, part.block);
    for p in 0..part.parts {
        let info = gbtrf(&bl, blocks.matrix_mut(p).data, pivots.pivots_mut(p));
        if info != 0 {
            return Err(info + part.start(p) as i32);
        }
    }
    // Spikes: one batched-shape solve of the corner columns per block.
    let (kl, ku, blk) = (part.kl, part.ku, part.block);
    let width = ku + kl;
    let mut spikes = vec![S::ZERO; part.parts * blk * width];
    for p in 0..part.parts {
        let lane = &mut spikes[p * blk * width..(p + 1) * blk * width];
        if p + 1 < part.parts {
            let corner = coupling.b_corner(p);
            let len = part.len(p);
            for c in 0..ku {
                for r in 0..ku {
                    lane[c * blk + (len - ku + r)] = corner[c * ku + r];
                }
            }
        }
        if p > 0 {
            let corner = coupling.c_corner(p - 1);
            for c in 0..kl {
                for r in 0..kl {
                    lane[(ku + c) * blk + r] = corner[c * kl + r];
                }
            }
        }
        gbtrs(
            Transpose::No,
            &bl,
            blocks.matrix(p).data,
            pivots.pivots(p),
            lane,
            blk,
            width,
        );
    }
    let f = SpikeFactor {
        partition: part,
        blocks,
        pivots,
        spikes,
        reduced_lu: Vec::new(),
        reduced_piv: Vec::new(),
        nb,
    };
    let Some(mut reduced) = assemble_reduced(
        &part,
        |p, row, c| f.v(p, row, c),
        |p, row, c| f.w(p, row, c),
    ) else {
        return Ok(f);
    };
    let rl = reduced.layout();
    let mut rpiv = vec![0i32; rl.n];
    if gbtrf(&rl, reduced.data_mut(), &mut rpiv) != 0 {
        return Err(-1);
    }
    Ok(SpikeFactor {
        reduced_lu: reduced.data().to_vec(),
        reduced_piv: rpiv,
        ..f
    })
}

/// Warm (factor-reusing) solve over a retained [`SpikeFactor`]: block
/// forward/backward solves for `g`, reduced back-substitution, combine.
/// `rhs` is column-major `n x nrhs`, overwritten with the solution.
pub fn spike_solve_retained<S: Scalar>(f: &SpikeFactor<S>, rhs: &mut [S], nrhs: usize) {
    let part = f.partition;
    let (n, blk) = (part.n, part.block);
    let bl = f.blocks.layout();
    // g_p = A_p^{-1} f_p, per block.
    let mut g = vec![S::ZERO; part.parts * blk * nrhs];
    for p in 0..part.parts {
        let s = part.start(p);
        let len = part.len(p);
        let lane = &mut g[p * blk * nrhs..(p + 1) * blk * nrhs];
        for c in 0..nrhs {
            lane[c * blk..c * blk + len].copy_from_slice(&rhs[c * n + s..c * n + s + len]);
        }
        gbtrs(
            Transpose::No,
            &bl,
            f.blocks.matrix(p).data,
            f.pivots.pivots(p),
            lane,
            blk,
            nrhs,
        );
    }
    let g_at = |p: usize, row: usize, c: usize| g[p * blk * nrhs + c * blk + row];
    let mut y = assemble_reduced_rhs(&part, g_at, nrhs);
    if let Some(rl) = part.reduced_layout() {
        gbtrs(
            Transpose::No,
            &rl,
            &f.reduced_lu,
            &f.reduced_piv,
            &mut y,
            rl.n,
            nrhs,
        );
    }
    combine(
        &part,
        g_at,
        |p, row, c| f.v(p, row, c),
        |p, row, c| f.w(p, row, c),
        &y,
        nrhs,
        rhs,
    );
}

/// Host-side exact SPIKE factorize-and-solve: the sequential oracle for the
/// device driver and the CPU-backend path for large systems. `rhs` is
/// column-major `n x nrhs`, overwritten with the solution. Falls back to
/// the sequential one-block path (bitwise [`crate::gbsv::gbsv`]) when the
/// partition degenerates to one block or any block factors singular;
/// returns the LAPACK info code of whichever path answered.
pub fn spike_gbsv<S: Scalar>(
    a: &BandMatrixRef<'_, S>,
    rhs: &mut [S],
    nrhs: usize,
    parts: usize,
) -> i32 {
    let l = a.layout;
    assert_eq!(l.m, l.n, "spike requires a square system");
    let part = SpikePartition::new(l.n, l.kl, l.ku, parts);
    if part.parts > 1 {
        // Solved at once: no plan prices this split.
        if let Ok(f) = spike_factorize(a, parts, 0) {
            spike_solve_retained(&f, rhs, nrhs);
            return 0;
        }
    }
    // One-block partition or singular block/reduced system: sequential gbsv.
    let fl = BandLayout::factor(l.n, l.n, l.kl, l.ku).expect("valid square layout");
    let mut ab = vec![S::ZERO; fl.len()];
    for j in 0..l.n {
        let (rs, re) = fl.col_rows(j);
        for i in rs..re {
            ab[fl.idx(fl.row_offset + i - j, j)] = a.get(i, j);
        }
    }
    let mut ipiv = vec![0i32; l.n];
    crate::gbsv::gbsv(&fl, &mut ab, &mut ipiv, rhs, l.n, nrhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::band::BandMatrix;
    use crate::blas2::gbmv;
    use crate::residual::backward_error;

    fn random_band(n: usize, kl: usize, ku: usize, seed: f64, dominant: bool) -> BandMatrix {
        let mut a = BandMatrix::zeros_factor(n, n, kl, ku).unwrap();
        let mut v = seed;
        for j in 0..n {
            let (s, e) = a.layout().col_rows(j);
            for i in s..e {
                v = (v * 1.7 + 0.137).fract();
                let boost = if i == j && dominant { 4.0 } else { 0.0 };
                a.set(i, j, v - 0.5 + boost);
            }
        }
        a
    }

    #[test]
    fn partition_clamps_and_covers() {
        let p = SpikePartition::new(100, 2, 3, 4);
        assert_eq!(p.parts, 4);
        assert_eq!(p.block, 25);
        assert_eq!((0..p.parts).map(|i| p.len(i)).sum::<usize>(), 100);
        // Too many parts for the bandwidth: clamped.
        let p = SpikePartition::new(20, 4, 4, 64);
        assert!(p.parts <= 20 / 9);
        for i in 0..p.parts {
            assert!(p.len(i) >= 9 || p.parts == 1);
        }
        // Degenerate: one part.
        let p = SpikePartition::new(10, 4, 4, 8);
        assert_eq!(p.parts, 1);
        assert_eq!(p.block, 10);
        assert_eq!(p.reduced_order(), 0);
    }

    #[test]
    fn partition_last_block_holds_its_corners() {
        // Uneven split whose naive last block would be tiny.
        for (n, kl, ku, parts) in [(101, 2, 3, 8), (67, 1, 1, 8), (129, 5, 2, 4)] {
            let p = SpikePartition::new(n, kl, ku, parts);
            let last = p.len(p.parts - 1);
            assert!(
                p.parts == 1 || last > kl + ku,
                "n={n} parts={} last={last}",
                p.parts
            );
        }
    }

    #[test]
    fn extracted_blocks_and_corners_tile_the_operator() {
        let (n, kl, ku) = (37, 2, 3);
        let a = random_band(n, kl, ku, 0.21, true);
        let part = SpikePartition::new(n, kl, ku, 3);
        assert_eq!(part.parts, 3);
        let blocks = extract_blocks(&a.as_ref(), &part).unwrap();
        let coupling = extract_coupling(&a.as_ref(), &part);
        // Every in-band entry of A appears exactly once: in its diagonal
        // block or in a coupling corner.
        for j in 0..n {
            let (rs, re) = a.layout().col_rows(j);
            for i in rs..re {
                let (pi, pj) = (i / part.block, j / part.block);
                let got = if pi == pj {
                    blocks
                        .matrix(pi)
                        .get(i - part.start(pi), j - part.start(pj))
                } else if pj == pi + 1 {
                    let e = part.start(pj);
                    coupling.b_corner(pi)[(j - e) * ku + (i - (e - ku))]
                } else {
                    assert_eq!(pi, pj + 1, "band cut wider than one interface");
                    let e = part.start(pi);
                    coupling.c_corner(pj)[(j - (e - kl)) * kl + (i - e)]
                };
                assert_eq!(got, a.get(i, j), "({i}, {j})");
            }
        }
        // Pad diagonal of the short last block is identity.
        let last = part.parts - 1;
        for jj in part.len(last)..part.block {
            assert_eq!(blocks.matrix(last).get(jj, jj), 1.0);
        }
    }

    /// The dense column-major reduced matrix, assembled entry by entry
    /// straight from the SPIKE equations: the oracle for the band forms.
    fn dense_reduced(part: &SpikePartition, f: &SpikeFactor) -> Vec<f64> {
        let (kl, ku) = (part.kl, part.ku);
        let kb = kl + ku;
        let r = part.reduced_order();
        let mut m = vec![0.0; r * r];
        for i in 0..part.interfaces() {
            for rr in 0..kl {
                let (req, brow) = (i * kb + rr, part.len(i) - kl + rr);
                m[(i * kb + rr) * r + req] = 1.0;
                for c in 0..ku {
                    m[(i * kb + kl + c) * r + req] = f.v(i, brow, c);
                }
                for c in 0..if i > 0 { kl } else { 0 } {
                    m[((i - 1) * kb + c) * r + req] = f.w(i, brow, c);
                }
            }
            for rr in 0..ku {
                let req = i * kb + kl + rr;
                m[(i * kb + kl + rr) * r + req] = 1.0;
                for c in 0..kl {
                    m[(i * kb + c) * r + req] = f.w(i + 1, rr, c);
                }
                for c in 0..if i + 1 < part.interfaces() { ku } else { 0 } {
                    m[((i + 1) * kb + kl + c) * r + req] = f.v(i + 1, rr, c);
                }
            }
        }
        m
    }

    #[test]
    fn band_reduced_matrix_holds_the_dense_assembly() {
        for (n, kl, ku, parts) in [(96, 2, 3, 4), (129, 3, 1, 8), (64, 0, 2, 5), (80, 2, 0, 3)] {
            let a = random_band(n, kl, ku, 0.31, false);
            let f = spike_factorize(&a.as_ref(), parts, 8).unwrap();
            let part = f.partition;
            let v = |p, row, c| f.v(p, row, c);
            let w = |p, row, c| f.w(p, row, c);
            let band = assemble_reduced(&part, v, w).unwrap();
            let trunc = assemble_truncated(&part, v, w).unwrap();
            let dense = dense_reduced(&part, &f);
            let (r, kb) = (part.reduced_order(), kl + ku);
            assert_eq!(band.layout().n, r);
            for j in 0..r {
                for i in 0..r {
                    let want = dense[j * r + i];
                    assert_eq!(band.matrix(0).get(i, j), want, "P={parts} ({i}, {j})");
                    if i / kb == j / kb {
                        let got = trunc.matrix(i / kb).get(i % kb, j % kb);
                        assert_eq!(got, want, "truncated P={parts} ({i}, {j})");
                    }
                }
            }
        }
    }

    fn rel_residual<S: Scalar>(a: &BandMatrix<S>, x: &[S], b: &[S]) -> f64 {
        let n = b.len();
        let mut r = vec![S::ZERO; n];
        gbmv(S::ONE, a.as_ref(), x, S::ZERO, &mut r);
        let rn = r
            .iter()
            .zip(b)
            .fold(0.0f64, |m, (&ax, &bi)| m.max((bi - ax).to_f64().abs()));
        let bn = b.iter().fold(0.0f64, |m, v| m.max(v.to_f64().abs()));
        rn / bn
    }

    /// Split and sequential answers of one operator at precision `S`:
    /// the split residual must stay within a small multiple of the
    /// sequential driver's (floored at a few `eps`).
    fn split_meets_gbsv<S: Scalar>(dominant: bool) {
        let (n, kl, ku) = (1024, 3, 2);
        let a64 = random_band(n, kl, ku, 0.43, dominant);
        let mut a = BandMatrix::<S>::zeros_factor(n, n, kl, ku).unwrap();
        for j in 0..n {
            let (s, e) = a.layout().col_rows(j);
            for i in s..e {
                a.set(i, j, S::from_f64(a64.get(i, j)));
            }
        }
        let b: Vec<S> = (0..n)
            .map(|i| S::from_f64((i as f64 * 0.37).sin()))
            .collect();
        let mut x_seq = b.clone();
        assert_eq!(spike_gbsv(&a.as_ref(), &mut x_seq, 1, 1), 0);
        let floor = rel_residual(&a, &x_seq, &b).max(S::EPSILON.to_f64());
        for parts in [2, 8, 64] {
            assert_eq!(SpikePartition::new(n, kl, ku, parts).parts, parts);
            let mut x = b.clone();
            assert_eq!(spike_gbsv(&a.as_ref(), &mut x, 1, parts), 0);
            let r = rel_residual(&a, &x, &b);
            assert!(
                r <= 100.0 * floor,
                "P={parts} dominant={dominant}: residual {r:.3e} vs gbsv {floor:.3e}"
            );
        }
    }

    #[test]
    fn spike_gbsv_meets_the_gbsv_residual_at_many_parts() {
        for dominant in [true, false] {
            split_meets_gbsv::<f64>(dominant);
            split_meets_gbsv::<f32>(dominant);
        }
    }

    #[test]
    fn exact_spike_matches_gbsv_residual() {
        for (n, kl, ku, parts, nrhs) in [
            (64, 1, 1, 2, 1),
            (100, 2, 3, 4, 2),
            (129, 3, 2, 8, 1),
            (200, 5, 5, 3, 3),
        ] {
            let a = random_band(n, kl, ku, 0.11 + n as f64 * 1e-3, true);
            let mut rhs = vec![0.0; n * nrhs];
            for (k, v) in rhs.iter_mut().enumerate() {
                *v = ((k * 13 % 29) as f64 - 14.0) * 0.1;
            }
            let rhs0 = rhs.clone();
            let info = spike_gbsv(&a.as_ref(), &mut rhs, nrhs, parts);
            assert_eq!(info, 0);
            for c in 0..nrhs {
                let berr = backward_error(
                    a.as_ref(),
                    &rhs[c * n..(c + 1) * n],
                    &rhs0[c * n..(c + 1) * n],
                );
                assert!(
                    berr < 1e-12,
                    "n={n} kl={kl} ku={ku} P={parts} c={c}: berr {berr:.2e}"
                );
            }
        }
    }

    #[test]
    fn one_part_is_bitwise_gbsv() {
        let (n, kl, ku) = (40, 2, 3);
        let a = random_band(n, kl, ku, 0.4, false);
        let l = a.layout();
        let mut b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let mut b_ref = b.clone();
        let mut ab = a.data().to_vec();
        let mut ipiv = vec![0i32; n];
        let info_ref = crate::gbsv::gbsv(&l, &mut ab, &mut ipiv, &mut b_ref, n, 1);
        let info = spike_gbsv(&a.as_ref(), &mut b, 1, 1);
        assert_eq!(info, info_ref);
        assert_eq!(b, b_ref, "P=1 must be the sequential driver bit-for-bit");
    }

    #[test]
    fn singular_block_falls_back_to_sequential() {
        // Block 1's diagonal block is singular (zero column), but the full
        // operator is fine thanks to its off-diagonal coupling.
        let (n, kl, ku) = (32, 1, 1);
        let mut a = random_band(n, kl, ku, 0.77, true);
        let part = SpikePartition::new(n, kl, ku, 2);
        let s = part.start(1);
        a.set(s, s, 0.0);
        a.set(s + 1, s, 0.0);
        // a[s-1][s] stays nonzero, so the unsplit matrix is nonsingular.
        assert!(spike_factorize::<f64>(&a.as_ref(), 2, 8).is_err());
        let mut b = vec![1.0; n];
        let b0 = b.clone();
        let info = spike_gbsv(&a.as_ref(), &mut b, 1, 2);
        assert_eq!(info, 0, "fallback path must answer");
        let berr = backward_error(a.as_ref(), &b, &b0);
        assert!(berr < 1e-12, "berr {berr:.2e}");
    }

    #[test]
    fn retained_factor_warm_solve_matches_cold() {
        let (n, kl, ku, parts, nrhs) = (96, 2, 2, 4, 2);
        let a = random_band(n, kl, ku, 0.5, true);
        let f = spike_factorize(&a.as_ref(), parts, 8).unwrap();
        assert!(f.bytes() > 0);
        let mut rhs = vec![0.0; n * nrhs];
        for (k, v) in rhs.iter_mut().enumerate() {
            *v = ((k % 17) as f64 - 8.0) * 0.2;
        }
        let mut cold = rhs.clone();
        assert_eq!(spike_gbsv(&a.as_ref(), &mut cold, nrhs, parts), 0);
        spike_solve_retained(&f, &mut rhs, nrhs);
        assert_eq!(rhs, cold, "warm solve re-runs the identical arithmetic");
    }

    #[test]
    fn f32_instantiation_solves() {
        let (n, kl, ku) = (80, 2, 1);
        let mut a = BandMatrix::<f32>::zeros_factor(n, n, kl, ku).unwrap();
        let mut v = 0.3f32;
        for j in 0..n {
            let (s, e) = a.layout().col_rows(j);
            for i in s..e {
                v = (v * 1.9 + 0.171).fract();
                a.set(i, j, v - 0.5 + if i == j { 3.0 } else { 0.0 });
            }
        }
        let mut b = vec![1.0f32; n];
        let b0 = b.clone();
        assert_eq!(spike_gbsv(&a.as_ref(), &mut b, 1, 4), 0);
        let mut r = vec![0.0f32; n];
        gbmv(1.0, a.as_ref(), &b, 0.0, &mut r);
        let err = r
            .iter()
            .zip(&b0)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0f32, f32::max);
        assert!(err < 1e-4, "f32 residual {err}");
    }
}
