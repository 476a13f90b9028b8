//! The tuning sweep: evaluate every `(nb, threads)` candidate for a band
//! shape via the analytic cost model and keep the winner.

use crate::table::{TuneEntry, TuningTable};
use gbatch_core::layout::BandLayout;
use gbatch_gpu_sim::{DeviceSpec, LaunchConfig};
use gbatch_kernels::cost::{predict_gbtrs_blocked, predict_time, predict_window, NB_GRID};
use gbatch_kernels::gbtrs_blocked::{backward_smem_bytes, forward_smem_bytes};
use gbatch_kernels::window::window_smem_bytes;

/// Sweep configuration (defaults follow the paper: square matrices sized
/// up to 1024 — the window cost is near-linear in `n`, so one calibration
/// size suffices — and `kl, ku` in `[0, 32]`).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Calibration matrix order.
    pub n: usize,
    /// Calibration batch size.
    pub batch: usize,
    /// Candidate window block sizes.
    pub nb_candidates: Vec<usize>,
    /// Candidate thread counts (filtered to >= kl + 1 and warp-rounded).
    pub thread_candidates: Vec<u32>,
    /// Maximum lower/upper bandwidth of the sweep grid (inclusive).
    pub max_band: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            n: 512,
            batch: 1000,
            nb_candidates: NB_GRID.to_vec(),
            thread_candidates: vec![32, 64, 128, 256],
            max_band: 32,
        }
    }
}

/// Find the best `(nb, threads)` for one band shape on one device.
/// Returns `None` when no candidate can launch (no window fits shared
/// memory).
pub fn sweep_band(dev: &DeviceSpec, cfg: &SweepConfig, kl: usize, ku: usize) -> Option<TuneEntry> {
    let l = BandLayout::factor(cfg.n, cfg.n, kl, ku).ok()?;
    let mut best: Option<TuneEntry> = None;
    for &nb in &cfg.nb_candidates {
        let smem = window_smem_bytes::<f64>(&l, nb) as u32;
        let per_block_base = predict_window::<f64>(&l, nb, 1); // threads folded below
        let _ = per_block_base;
        for &t in &cfg.thread_candidates {
            let threads = t.max((kl + 1) as u32).div_ceil(dev.warp_size) * dev.warp_size;
            if threads > dev.max_threads_per_block {
                continue;
            }
            let per_block = predict_window::<f64>(&l, nb, threads.min(dev.lds_lanes));
            let lcfg = LaunchConfig::new(threads, smem);
            let Some(time) = predict_time(dev, &lcfg, cfg.batch, &per_block) else {
                continue;
            };
            let entry = TuneEntry {
                nb,
                threads,
                predicted_ms: time.ms(),
            };
            if best
                .map(|b| entry.predicted_ms < b.predicted_ms)
                .unwrap_or(true)
            {
                best = Some(entry);
            }
        }
    }
    best
}

/// Find the best `(nb, threads)` for the blocked triangular solves of one
/// band shape and RHS count ("a more robust tuning framework" — the
/// paper's Section 9 future work: the published tuner only covers the
/// factorization).
pub fn sweep_solve_band(
    dev: &DeviceSpec,
    cfg: &SweepConfig,
    kl: usize,
    ku: usize,
    nrhs: usize,
) -> Option<TuneEntry> {
    let l = BandLayout::factor(cfg.n, cfg.n, kl, ku).ok()?;
    let mut best: Option<TuneEntry> = None;
    for &nb in &cfg.nb_candidates {
        // Both sweeps must fit; configuration is sized by the larger cache.
        let smem = forward_smem_bytes::<f64>(&l, nb, nrhs)
            .max(backward_smem_bytes::<f64>(&l, nb, nrhs)) as u32;
        for &t in &cfg.thread_candidates {
            let threads = t.max((kl + 1) as u32).div_ceil(dev.warp_size) * dev.warp_size;
            if threads > dev.max_threads_per_block {
                continue;
            }
            let per_block = predict_gbtrs_blocked::<f64>(&l, nb, nrhs, threads.min(dev.lds_lanes));
            let lcfg = LaunchConfig::new(threads, smem);
            let Some(time) = predict_time(dev, &lcfg, cfg.batch, &per_block) else {
                continue;
            };
            let entry = TuneEntry {
                nb,
                threads,
                predicted_ms: time.ms(),
            };
            if best
                .map(|b| entry.predicted_ms < b.predicted_ms)
                .unwrap_or(true)
            {
                best = Some(entry);
            }
        }
    }
    best
}

/// Run the full sweep grid for a device (the paper's separate H100 and
/// MI250x sweeps), producing a persistent tuning table.
pub fn sweep_device(dev: &DeviceSpec, cfg: &SweepConfig) -> TuningTable {
    let mut table = TuningTable::new(dev.name.clone(), cfg.n, cfg.batch);
    for kl in 0..=cfg.max_band {
        for ku in 0..=cfg.max_band {
            if let Some(e) = sweep_band(dev, cfg, kl, ku) {
                table.insert(kl, ku, e);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_finds_a_configuration_for_paper_bands() {
        let dev = DeviceSpec::h100_pcie();
        let cfg = SweepConfig::default();
        for (kl, ku) in [(2, 3), (10, 7)] {
            let e = sweep_band(&dev, &cfg, kl, ku).expect("tunable");
            assert!(e.nb >= 1 && e.threads >= (kl + 1) as u32);
            assert!(e.predicted_ms > 0.0);
        }
    }

    #[test]
    fn tuned_beats_naive_defaults() {
        let dev = DeviceSpec::mi250x_gcd();
        let cfg = SweepConfig::default();
        let (kl, ku) = (10usize, 7usize);
        let best = sweep_band(&dev, &cfg, kl, ku).unwrap();
        // Compare against the worst candidate to prove the sweep
        // discriminates.
        let l = BandLayout::factor(cfg.n, cfg.n, kl, ku).unwrap();
        let mut worst = 0.0f64;
        let dev = DeviceSpec::mi250x_gcd();
        for &nb in &cfg.nb_candidates {
            for &t in &cfg.thread_candidates {
                let threads = t.max((kl + 1) as u32);
                let per_block = predict_window::<f64>(&l, nb, threads.min(dev.lds_lanes));
                let lcfg = LaunchConfig::new(threads, window_smem_bytes::<f64>(&l, nb) as u32);
                if let Some(time) = predict_time(&dev, &lcfg, cfg.batch, &per_block) {
                    worst = worst.max(time.ms());
                }
            }
        }
        assert!(
            best.predicted_ms < worst * 0.8,
            "sweep should separate configs: best {:.3} worst {:.3}",
            best.predicted_ms,
            worst
        );
    }

    #[test]
    fn device_sweep_covers_grid() {
        // A small grid to keep the test fast.
        let dev = DeviceSpec::h100_pcie();
        let cfg = SweepConfig {
            n: 128,
            batch: 100,
            nb_candidates: vec![4, 8],
            thread_candidates: vec![32, 64],
            max_band: 4,
        };
        let table = sweep_device(&dev, &cfg);
        assert_eq!(table.len(), 25, "5 x 5 grid");
        assert!(table.get(0, 0).is_some());
        assert!(table.get(4, 4).is_some());
    }

    #[test]
    fn solve_sweep_finds_configurations() {
        let dev = DeviceSpec::h100_pcie();
        let cfg = SweepConfig::default();
        for nrhs in [1usize, 10] {
            for (kl, ku) in [(2usize, 3usize), (10, 7)] {
                let e = sweep_solve_band(&dev, &cfg, kl, ku, nrhs).expect("tunable");
                assert!(e.predicted_ms > 0.0);
                assert!(e.threads >= (kl + 1) as u32);
            }
        }
    }

    #[test]
    fn solve_sweep_prefers_smaller_cache_under_rhs_pressure() {
        // With 10 RHS on the MI250x, big nb inflates the RHS cache and
        // costs occupancy; the tuner should not pick the largest nb.
        let dev = DeviceSpec::mi250x_gcd();
        let cfg = SweepConfig::default();
        let e1 = sweep_solve_band(&dev, &cfg, 10, 7, 1).unwrap();
        let e10 = sweep_solve_band(&dev, &cfg, 10, 7, 10).unwrap();
        assert!(
            e10.predicted_ms > e1.predicted_ms,
            "10 RHS must cost more: {} vs {}",
            e10.predicted_ms,
            e1.predicted_ms
        );
    }

    #[test]
    fn per_device_tables_differ() {
        // The paper runs separate sweeps per GPU; with 3.5x less shared
        // memory the MI250x must sometimes pick different parameters, and
        // its predicted times must be slower for the large bands.
        let cfg = SweepConfig {
            n: 256,
            batch: 500,
            nb_candidates: vec![2, 8, 32],
            thread_candidates: vec![32, 128],
            max_band: 0,
        };
        let h = sweep_band(&DeviceSpec::h100_pcie(), &cfg, 24, 24).unwrap();
        let m = sweep_band(&DeviceSpec::mi250x_gcd(), &cfg, 24, 24).unwrap();
        assert!(
            m.predicted_ms > h.predicted_ms,
            "MI250x should be slower on wide bands: {} vs {}",
            m.predicted_ms,
            h.predicted_ms
        );
    }
}
