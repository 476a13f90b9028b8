//! The conditioning toolkit on a PELE-style batch (paper §2.1: "a large
//! range of condition numbers ... known numerical estimates and bounds"):
//! condition estimation, equilibration and iterative refinement through
//! the expert driver — end to end.
//!
//! ```text
//! cargo run --release --example ill_conditioned
//! ```

use gbatch::core::gbsvx::{gbsvx_checked, is_reliable};
use gbatch::core::BandMatrix;

/// A band matrix graded over `decades` orders of magnitude — condition
/// number roughly `10^decades`.
fn graded(n: usize, kl: usize, ku: usize, decades: f64, seed: f64) -> BandMatrix {
    let mut a = BandMatrix::zeros_factor(n, n, kl, ku).unwrap();
    let mut v = seed;
    for j in 0..n {
        let s = 10f64.powf(-decades * j as f64 / (n - 1) as f64);
        let (lo, hi) = a.layout().col_rows(j);
        for i in lo..hi {
            v = (v * 1.9 + 0.17).fract();
            a.set(i, j, (v - 0.5) * s + if i == j { 2.0 * s } else { 0.0 });
        }
    }
    a
}

fn main() {
    let n = 50;
    println!("expert solves across a conditioning sweep (n = {n}, band (2,1)):\n");
    println!(
        "{:>8} {:>12} {:>12} {:>7} {:>10} {:>12}",
        "decades", "rcond", "comp-berr", "equil", "refine-it", "worst-berr"
    );
    for decades in [0.0, 3.0, 6.0, 9.0, 12.0] {
        let a = graded(n, 2, 1, decades, 0.37);
        let x_true: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let mut b = vec![0.0; n];
        gbatch::core::blas2::gbmv(1.0, a.as_ref(), &x_true, 0.0, &mut b);

        // Expert driver: equilibrate + factor + rcond + refine.
        let (res, _x, worst) = gbsvx_checked(&a, &b, 1);
        assert_eq!(res.info, 0);
        assert!(worst < 1e-11, "expert solve certified: {worst:.2e}");

        println!(
            "{:>8} {:>12.2e} {:>12.2e} {:>7} {:>10} {:>12.2e}",
            decades,
            res.rcond,
            res.berr[0],
            if res.equilibrated { "yes" } else { "no" },
            res.refine_iters[0],
            worst,
        );
        let _ = is_reliable(&res);
    }
    println!("\nevery solve certified by backward error < 1e-11. done.");
}
