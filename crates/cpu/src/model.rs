//! Analytic cost model for the CPU baseline.
//!
//! The paper's CPU platform is an Intel Xeon Gold 6140 (Skylake, 18 cores,
//! 2.3 GHz) running MKL under OpenMP, with one matrix per task. For thin
//! bands the per-matrix work is a memory-streaming pass over the band array
//! (the `O(n * kl * kv)` flops never saturate the FMA units), so the model
//! prices each matrix as
//! `max(bytes / per-core-bandwidth, flops / per-core-flop-rate)` and divides
//! the batch across cores, plus a fixed OpenMP fork/join and a small
//! per-call overhead. This reproduces the paper's two CPU-side behaviours:
//! near-linear growth in `n`, and the ≈2x jump from 1 to 10 right-hand
//! sides (Fig. 9/Table 3) — RHS traffic dominates once `nrhs` grows.

use gbatch_core::layout::BandLayout;
use gbatch_core::Scalar;
use serde::{Deserialize, Serialize};

/// Descriptor of the multicore CPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuSpec {
    /// Marketing name.
    pub name: String,
    /// Physical cores used by the OpenMP runtime.
    pub cores: u32,
    /// Clock in Hz.
    pub clock_hz: f64,
    /// Sustained flops per cycle per core on band-kernel code (scalar-ish
    /// inner loops over short columns — far from peak AVX-512).
    pub flops_per_cycle: f64,
    /// Effective per-core streaming bandwidth in bytes/s (strided band
    /// accesses; the socket aggregate is `cores * this`, capped below).
    pub core_bw: f64,
    /// Socket-aggregate memory bandwidth cap in bytes/s.
    pub total_bw: f64,
    /// OpenMP parallel-region fork/join cost in seconds.
    pub fork_join_s: f64,
    /// Per-matrix dispatch overhead (LAPACK call, pointer chasing).
    pub per_matrix_s: f64,
}

impl CpuSpec {
    /// Intel Xeon Gold 6140 (Skylake), the paper's CPU, with MKL-2023-era
    /// effective rates.
    pub fn xeon_gold_6140() -> Self {
        CpuSpec {
            name: "Xeon Gold 6140 + MKL (modeled)".to_string(),
            cores: 18,
            clock_hz: 2.3e9,
            flops_per_cycle: 4.0,
            core_bw: 9.0e9,
            total_bw: 1.6e11,
            fork_join_s: 8.0e-6,
            per_matrix_s: 4.0e-7,
        }
    }

    /// A tiny deterministic CPU for unit tests.
    pub fn test_cpu() -> Self {
        CpuSpec {
            name: "TestCPU".to_string(),
            cores: 4,
            clock_hz: 1.0e9,
            flops_per_cycle: 2.0,
            core_bw: 1.0e9,
            total_bw: 4.0e9,
            fork_join_s: 1.0e-6,
            per_matrix_s: 1.0e-7,
        }
    }

    /// Model the time of `batch` independent tasks of `flops` flops and
    /// `bytes` bytes of traffic each, spread over the cores.
    pub fn batch_time(&self, batch: usize, flops: f64, bytes: f64) -> f64 {
        if batch == 0 {
            return 0.0;
        }
        let per_core_bw = self.core_bw.min(self.total_bw / self.cores as f64);
        let per_matrix = (bytes / per_core_bw).max(flops / (self.flops_per_cycle * self.clock_hz))
            + self.per_matrix_s;
        let tasks_per_core = (batch as f64 / self.cores as f64).ceil();
        self.fork_join_s + tasks_per_core * per_matrix
    }
}

/// Worst-case flop count of one band LU factorization (matches the
/// operation count of `gbtf2` under full-pivoting updates).
pub fn gbtrf_flops(l: &BandLayout) -> f64 {
    let n = l.n;
    let kv = l.kv();
    let mut flops = 0f64;
    for j in 0..l.m.min(n) {
        let km = l.km(j);
        let w = kv.min(n - 1 - j);
        flops += km as f64; // scal
        flops += 2.0 * (w * km) as f64; // rank-1 update
    }
    flops
}

/// Bytes moved by one band LU factorization: the band array is streamed
/// in and out once, plus pivot traffic.
pub fn gbtrf_bytes(l: &BandLayout) -> f64 {
    (2 * l.len() * 8 + l.m.min(l.n) * 4) as f64
}

/// Scale a byte count of the `f64` formulas above to elements of `S`: the
/// whole traffic, pivots included, scales by `S::BYTES / 8`.
pub fn scale_bytes<S: Scalar>(bytes: f64) -> f64 {
    bytes * S::BYTES as f64 / 8.0
}

/// Flop count of one band triangular solve with `nrhs` right-hand sides.
pub fn gbtrs_flops(l: &BandLayout, nrhs: usize) -> f64 {
    let n = l.n;
    let kv = l.kv();
    let mut flops = 0f64;
    for j in 0..n.saturating_sub(1) {
        let lm = l.kl.min(n - 1 - j);
        flops += 2.0 * (lm * nrhs) as f64; // forward rank-1
    }
    for j in 0..n {
        flops += 2.0 * ((kv.min(j) + 1) * nrhs) as f64; // backward column
    }
    flops
}

/// Bytes moved by one band triangular solve: the factor band is read once
/// per sweep (forward uses the `L` rows, backward the `U` rows) and the RHS
/// block is read and written by both sweeps.
pub fn gbtrs_bytes(l: &BandLayout, nrhs: usize) -> f64 {
    let band = (l.len() * 8) as f64;
    let rhs = (4 * l.n * nrhs * 8) as f64;
    band + rhs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_time_scales_with_batch() {
        let cpu = CpuSpec::test_cpu();
        let t1 = cpu.batch_time(4, 1e6, 1e4);
        let t2 = cpu.batch_time(8, 1e6, 1e4);
        assert!(
            t2 > t1 * 1.8 - cpu.fork_join_s,
            "doubling tasks ~doubles time"
        );
        assert_eq!(cpu.batch_time(0, 1e9, 1e9), 0.0);
    }

    #[test]
    fn memory_bound_vs_compute_bound() {
        let cpu = CpuSpec::test_cpu();
        // Tiny flops, huge bytes -> memory-bound: time set by bandwidth.
        let t_mem = cpu.batch_time(4, 1.0, 1e9);
        assert!((t_mem - (cpu.fork_join_s + 1e9 / 1e9 + cpu.per_matrix_s)).abs() < 1e-9);
        // Huge flops, tiny bytes -> compute-bound.
        let t_cmp = cpu.batch_time(4, 1e9, 8.0);
        assert!((t_cmp - (cpu.fork_join_s + 1e9 / 2e9 + cpu.per_matrix_s)).abs() < 1e-9);
    }

    #[test]
    fn flop_counts_match_hand_computation() {
        // n = 4, kl = 1, ku = 1 (kv = 2):
        // j=0: km=1, w=2 -> 1 + 4 = 5
        // j=1: km=1, w=2 -> 5
        // j=2: km=1, w=1 -> 1 + 2 = 3
        // j=3: km=0, w=0 -> 0
        let l = BandLayout::factor(4, 4, 1, 1).unwrap();
        assert_eq!(gbtrf_flops(&l), 13.0);
        // Solve, 1 RHS: forward j=0..2: lm=1 -> 2*3 = 6;
        // backward j=0..3: reach+1 = 1,2,3,3 -> 2*(1+2+3+3) = 18.
        assert_eq!(gbtrs_flops(&l, 1), 24.0);
        assert_eq!(gbtrs_flops(&l, 2), 48.0);
    }

    #[test]
    fn ten_rhs_roughly_doubles_gbsv_bytes_for_thin_bands() {
        // The paper's Fig. 9 observation: MKL's time ~2x from 1 to 10 RHS.
        let l = BandLayout::factor(512, 512, 2, 3).unwrap();
        let gbsv1 = gbtrf_bytes(&l) + gbtrs_bytes(&l, 1);
        let gbsv10 = gbtrf_bytes(&l) + gbtrs_bytes(&l, 10);
        let ratio = gbsv10 / gbsv1;
        assert!((1.8..3.2).contains(&ratio), "10-RHS byte ratio {ratio:.2}");
    }

    #[test]
    fn spec_serializes() {
        let c = CpuSpec::xeon_gold_6140();
        let s = serde_json::to_string(&c).unwrap();
        let b: CpuSpec = serde_json::from_str(&s).unwrap();
        assert_eq!(c, b);
    }
}
