//! The SPIKE driver's augmented block sweep skips structural zeros: each
//! right-spike column holds its `B` corner in the block's bottom `ku`
//! rows, so its forward sweep starts at step `block - ku - kl`
//! ([`augmented_starts`]). Above that step every pivot swap exchanges two
//! zeros and every update is skipped, so the skip must be exact. This
//! grid runs the augmented sweep of real partitions both ways — from the
//! driver's starts and from row 0 in every column — and demands bitwise
//! equal `g`, `V` and `W`, over diagonally dominant and pivoting
//! operators, one-sided bands, `nb ∈ {1, 8, 32}` and several block
//! counts `P`.

use gbatch::core::spike::{augmented_rhs, extract_blocks, extract_coupling, SpikePartition};
use gbatch::core::{BandBatch, InfoArray, PivotBatch};
use gbatch::gpu_sim::DeviceSpec;
use gbatch::kernels::gbtrs_blocked::{gbtrs_batch_blocked_from, SolveParams};
use gbatch::kernels::spike::augmented_starts;
use gbatch::kernels::window::{gbtrf_batch_window, WindowParams};
use proptest::prelude::*;

/// Bands of the grid: two-sided, and one-sided either way.
const BANDS: [(usize, usize); 6] = [(2, 3), (8, 8), (4, 1), (0, 4), (5, 0), (1, 0)];
/// Stage block sizes of the grid.
const NBS: [usize; 3] = [1, 8, 32];

/// One operator of order `n`: uniform values in `[-0.5, 0.5)`, with the
/// diagonal raised above the column sum when `dominant` (no pivoting).
fn operator(n: usize, kl: usize, ku: usize, dominant: bool, seed: f64) -> BandBatch {
    let mut v = seed;
    BandBatch::from_fn(1, n, n, kl, ku, |_, m| {
        for j in 0..n {
            let (s, e) = m.layout.col_rows(j);
            for i in s..e {
                v = (v * 2.3 + 0.171).fract();
                let boost = if i == j && dominant {
                    (kl + ku + 1) as f64
                } else {
                    0.0
                };
                m.set(i, j, v - 0.5 + boost);
            }
        }
    })
    .unwrap()
}

/// Run one augmented sweep of `a` split into `parts` blocks, from the
/// driver's starts and from row 0; `None` when a block factors singular.
/// Returns whether any block pivoted.
fn sweep_both_ways(
    a: &BandBatch,
    parts: usize,
    nb: usize,
    nrhs: usize,
) -> Option<(Vec<u64>, Vec<u64>, bool)> {
    let dev = DeviceSpec::h100_pcie();
    let l = a.layout();
    let part = SpikePartition::new(l.n, l.kl, l.ku, parts);
    let mut blocks = extract_blocks(&a.matrix(0), &part).unwrap();
    let bl = blocks.layout();
    let mut piv = PivotBatch::new(part.parts, part.block, part.block);
    let mut info = InfoArray::new(part.parts);
    let window = WindowParams {
        nb,
        threads: 32,
        ..Default::default()
    };
    let _ = gbtrf_batch_window(&dev, &mut blocks, &mut piv, &mut info, window).unwrap();
    if !info.all_ok() {
        return None;
    }
    let pivoted = (0..part.parts).any(|p| {
        let ip = piv.pivots(p);
        (0..part.block).any(|j| ip[j] as usize != j)
    });
    let f: Vec<f64> = (0..l.n * nrhs).map(|k| (k as f64 * 0.37).sin()).collect();
    let coupling = extract_coupling(&a.matrix(0), &part);
    let params = SolveParams {
        nb,
        threads: 32,
        ..Default::default()
    };
    let run = |first: &[usize]| {
        let mut aug = augmented_rhs(&part, &coupling, &f, nrhs).unwrap();
        gbtrs_batch_blocked_from(&dev, &bl, blocks.data(), &piv, &mut aug, first, params).unwrap();
        aug.data().iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
    };
    let first = augmented_starts(&part, nrhs);
    let sparse = run(&first);
    let full = run(&vec![0; first.len()]);
    Some((sparse, full, pivoted))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Every band, `nb` and operator kind of the grid, at a drawn order,
    /// block count, RHS count and value seed.
    #[test]
    fn corner_row_start_is_the_full_sweep(
        n in 96usize..200,
        parts in 2usize..9,
        nrhs in 1usize..3,
        seed in 0.0f64..1.0,
    ) {
        let mut pivoted = false;
        for (kl, ku) in BANDS {
            for dominant in [true, false] {
                let a = operator(n, kl, ku, dominant, seed);
                for nb in NBS {
                    let Some((sparse, full, piv)) = sweep_both_ways(&a, parts, nb, nrhs) else {
                        continue;
                    };
                    prop_assert!(
                        sparse == full,
                        "n={} ({},{}) P={} nb={} nrhs={} dominant={}",
                        n, kl, ku, parts, nb, nrhs, dominant
                    );
                    prop_assert!(!(dominant && piv), "dominant blocks must not pivot");
                    pivoted |= piv;
                }
            }
        }
        prop_assert!(pivoted, "the uniform operators must exercise pivoting");
    }
}
