//! `calibrate` — fit the two free latency knobs of each simulated GPU
//! (`sync/trip` scale and `work_scale`) so that the modeled GBTRF speedups
//! against the modeled CPU land on the paper's Table 1. The winning values
//! are baked into `DeviceSpec::{h100_pcie, mi250x_gcd}`; this tool exists
//! to document and reproduce that fit.
//!
//! Paper targets (Table 1, avg speedup vs CPU):
//!   H100:  (2,3) -> 3.07x   (10,7) -> 3.56x
//!   MI250x:(2,3) -> 1.88x   (10,7) -> 1.16x

use gbatch_bench::experiments::{gbtrf_cpu_ms, gbtrf_gpu_ms};
use gbatch_cpu::CpuSpec;
use gbatch_gpu_sim::registry;
use gbatch_gpu_sim::DeviceSpec;
use gbatch_kernels::dispatch::FactorAlgo;
use gbatch_kernels::window::WindowParams;
use gbatch_tuning::{sweep_band, SweepConfig};

const SIZES: [usize; 4] = [128, 256, 512, 1024];

fn avg_speedup(dev: &DeviceSpec, cpu: &CpuSpec, kl: usize, ku: usize) -> f64 {
    let cfg = SweepConfig::default();
    let params = sweep_band(dev, &cfg, kl, ku).map(|e| WindowParams {
        nb: e.nb,
        threads: e.threads,
        ..Default::default()
    });
    let mut acc = 0.0;
    let mut count = 0;
    for &n in &SIZES {
        let algo = if n <= 64 {
            FactorAlgo::Fused
        } else {
            FactorAlgo::Window
        };
        if let Some(g) = gbtrf_gpu_ms(dev, n, kl, ku, algo, params) {
            acc += gbtrf_cpu_ms(cpu, n, kl, ku) / g;
            count += 1;
        }
    }
    acc / count.max(1) as f64
}

fn fit(base: &DeviceSpec, cpu: &CpuSpec, target23: f64, target107: f64) -> (f64, f64, f64) {
    let mut best = (1.0, 1.0, f64::MAX);
    for lat_scale in [2.0, 2.25, 2.5, 2.75, 3.0, 3.25, 3.5] {
        for work in [
            100.0, 120.0, 140.0, 150.0, 160.0, 175.0, 190.0, 200.0, 220.0,
        ] {
            let mut dev = base.clone();
            dev.sync_cycles *= lat_scale;
            dev.smem_latency_cycles *= lat_scale;
            dev.work_scale = work;
            let s23 = avg_speedup(&dev, cpu, 2, 3);
            let s107 = avg_speedup(&dev, cpu, 10, 7);
            let err = ((s23 / target23).ln().powi(2) + (s107 / target107).ln().powi(2)).sqrt();
            if err < best.2 {
                best = (lat_scale, work, err);
                eprintln!(
                    "  {}: lat x{lat_scale:.1} work x{work:.0} -> (2,3) {s23:.2}x (10,7) {s107:.2}x err {err:.3}",
                    base.name
                );
            }
        }
    }
    best
}

fn main() {
    let cpu = CpuSpec::xeon_gold_6140();
    println!("fitting H100 (targets 3.07x / 3.56x)...");
    let h100 = registry::device(registry::H100_PCIE).expect("catalog entry");
    let h = fit(&h100, &cpu, 3.07, 3.56);
    println!(
        "H100 best: lat_scale {:.2}, work_scale {:.1}, err {:.4}",
        h.0, h.1, h.2
    );
    println!("fitting MI250x (targets 1.88x / 1.16x)...");
    let mi250x = registry::device(registry::MI250X_GCD).expect("catalog entry");
    let m = fit(&mi250x, &cpu, 1.88, 1.16);
    println!(
        "MI250x best: lat_scale {:.2}, work_scale {:.1}, err {:.4}",
        m.0, m.1, m.2
    );

    println!("checking the layout crossover...");
    let cal = gbatch_bench::calibrate_layout();
    for p in &cal.points {
        println!(
            "  {} n {} (kl,ku)=({},{}) batch {}: column {:.4} ms, \
             interleaved {:.4} ms (model {:.4} ms) -> {} (auto: {}, regret {:.3})",
            p.device,
            p.n,
            p.kl,
            p.ku,
            p.batch,
            p.column_ms,
            p.interleaved_ms,
            p.predicted_interleaved_ms,
            p.measured_winner,
            p.auto_pick,
            p.auto_regret,
        );
    }
    println!(
        "layout check: winner agreement {:.0}%, max auto regret {:.3}",
        cal.agreement * 100.0,
        cal.max_auto_regret
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/layout_calibration.json"
    );
    std::fs::write(path, cal.to_json() + "\n").expect("write calibration table");
    println!("wrote {path}");
}
