//! Device descriptors for the simulated GPUs.
//!
//! The numbers below are the public hardware parameters of the two GPUs the
//! paper evaluates (H100-PCIe, MI250x single GCD), with the *sustained*
//! memory bandwidths the paper itself measured with large `dgemv` runs
//! (Section 8: 1.92 TB/s vs. 1.31 TB/s, a 1.47x ratio).

use serde::{Deserialize, Serialize};

/// GPU vendor, for reporting only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    /// NVIDIA (CUDA terminology: SM, warp = 32).
    Nvidia,
    /// AMD (ROCm terminology: CU, wavefront = 64).
    Amd,
    /// A fictional device used by unit tests.
    Test,
}

/// Static description of a simulated GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"H100-PCIe (simulated)"`.
    pub name: String,
    /// Vendor, for reporting.
    pub vendor: Vendor,
    /// Streaming multiprocessors (NVIDIA) / compute units (AMD).
    pub sms: u32,
    /// Shared memory / LDS capacity per SM in bytes. This is the paper's
    /// critical resource: ≈228 KB on H100 vs 64 KB per CU on MI250x
    /// ("3.5x smaller", §8).
    pub smem_per_sm: u32,
    /// Maximum dynamic shared memory a single block may request.
    pub max_smem_per_block: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Hardware cap on resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Warp (NVIDIA) / wavefront (AMD) width.
    pub warp_size: u32,
    /// Sustained global-memory bandwidth in bytes/second (paper §8 values).
    pub mem_bw: f64,
    /// Number of resident warps per SM needed to saturate `mem_bw`;
    /// below this, effective bandwidth degrades linearly (latency-bound).
    pub saturation_warps: u32,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Fixed cost of one kernel launch, in seconds (driver + hardware).
    pub launch_overhead_s: f64,
    /// Fixed cost of one *warm* launch, in seconds: submission through an
    /// already-resident worker pool / persistent-kernel queue
    /// ([`crate::resident::EngineMode::Resident`]). Covers only the
    /// hardware doorbell and queue pop — the driver/runtime share of
    /// `launch_overhead_s` is paid once at spin-up. Defaults to `0.0` when
    /// deserializing specs recorded before the resident engine existed.
    #[serde(default)]
    pub warm_launch_overhead_s: f64,
    /// One-time cost of spinning up the resident engine (allocating the
    /// persistent pool, priming queues and arenas), in seconds. Charged
    /// once per pool lifetime by the layers that own a pool (serve, bench)
    /// — never folded into per-launch times, so launch reports stay
    /// policy-invariant. Defaults to `0.0` for legacy serialized specs.
    #[serde(default)]
    pub engine_spinup_s: f64,
    /// Latency of one dependent shared-memory round trip, in cycles.
    pub smem_latency_cycles: f64,
    /// Cost of a block-wide barrier (`__syncthreads`), in cycles.
    pub sync_cycles: f64,
    /// fp64 FMA lanes per SM (throughput cap for co-resident blocks).
    pub fp64_lanes_per_sm: u32,
    /// Multiplier on recorded data-parallel work cycles (shared-memory /
    /// LDS throughput factor — calibrated so the model's GPU-vs-CPU
    /// speedups land on the paper's Tables 1-3).
    pub work_scale: f64,
    /// Shared-memory lanes serviced per cycle per block: LDS bandwidth is a
    /// per-SM/CU resource, so adding threads beyond this does not speed up
    /// shared-memory-bound work (the effective divisor of `smem_work` is
    /// `min(threads, lds_lanes)`).
    pub lds_lanes: u32,
}

impl DeviceSpec {
    /// NVIDIA H100-PCIe (CUDA 12.1 era), as used in the paper.
    ///
    /// 114 SMs, 228 KB shared/SM (227 KB max per block), 2048 threads/SM,
    /// sustained 1.92 TB/s (paper-measured), ~1.6 GHz boost. The latency
    /// knobs (`smem_latency_cycles`, `sync_cycles`, `work_scale`) are fitted
    /// by `gbatch-bench`'s `calibrate` binary against the paper's Table 1
    /// speedups (see EXPERIMENTS.md).
    pub fn h100_pcie() -> Self {
        DeviceSpec {
            name: "H100-PCIe (simulated)".to_string(),
            vendor: Vendor::Nvidia,
            sms: 114,
            smem_per_sm: 228 * 1024,
            max_smem_per_block: 227 * 1024,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            warp_size: 32,
            mem_bw: 1.92e12,
            saturation_warps: 12,
            clock_hz: 1.62e9,
            launch_overhead_s: 4.0e-6,
            // Warm submissions skip the driver stack (CUDA graph / persistent
            // kernel regime: ~0.5 us doorbell vs ~4 us cudaLaunchKernel).
            warm_launch_overhead_s: 0.5e-6,
            engine_spinup_s: 20.0e-6,
            smem_latency_cycles: 63.25,
            sync_cycles: 82.5,
            fp64_lanes_per_sm: 64,
            work_scale: 175.0,
            lds_lanes: 32,
        }
    }

    /// One GCD of an AMD MI250x (ROCm 5.5.1 era), as used in the paper.
    ///
    /// 110 CUs, 64 KB LDS per CU, wavefront 64, sustained 1.31 TB/s
    /// (paper-measured), ~1.7 GHz. Latency knobs calibrated like
    /// [`DeviceSpec::h100_pcie`]; the narrower `lds_lanes` reflects the
    /// LDS-throughput wall the paper attributes to the MI250x on wide
    /// bands.
    pub fn mi250x_gcd() -> Self {
        DeviceSpec {
            name: "MI250x-GCD (simulated)".to_string(),
            vendor: Vendor::Amd,
            sms: 110,
            smem_per_sm: 64 * 1024,
            max_smem_per_block: 64 * 1024,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            max_blocks_per_sm: 32,
            warp_size: 64,
            mem_bw: 1.31e12,
            saturation_warps: 10,
            clock_hz: 1.7e9,
            // ROCm launch overhead is noticeably higher than CUDA's.
            launch_overhead_s: 6.0e-6,
            warm_launch_overhead_s: 0.75e-6,
            engine_spinup_s: 30.0e-6,
            smem_latency_cycles: 84.0,
            sync_cycles: 120.0,
            fp64_lanes_per_sm: 64,
            work_scale: 120.0,
            lds_lanes: 8,
        }
    }

    /// A tiny fictional device for deterministic unit tests:
    /// 4 SMs, 16 KB shared, warp 8.
    pub fn test_device() -> Self {
        DeviceSpec {
            name: "TestGPU".to_string(),
            vendor: Vendor::Test,
            sms: 4,
            smem_per_sm: 16 * 1024,
            max_smem_per_block: 16 * 1024,
            max_threads_per_sm: 256,
            max_threads_per_block: 128,
            max_blocks_per_sm: 8,
            warp_size: 8,
            mem_bw: 1.0e11,
            saturation_warps: 4,
            clock_hz: 1.0e9,
            launch_overhead_s: 1.0e-6,
            warm_launch_overhead_s: 0.125e-6,
            engine_spinup_s: 5.0e-6,
            smem_latency_cycles: 20.0,
            sync_cycles: 25.0,
            fp64_lanes_per_sm: 8,
            work_scale: 1.0,
            lds_lanes: 8,
        }
    }

    /// Shared-memory capacity ratio against another device (the paper
    /// quotes H100/MI250x = 3.5x).
    pub fn smem_ratio(&self, other: &DeviceSpec) -> f64 {
        self.smem_per_sm as f64 / other.smem_per_sm as f64
    }

    /// Warps (rounded up) needed by a block of `threads` threads.
    pub fn warps_per_block(&self, threads: u32) -> u32 {
        threads.div_ceil(self.warp_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_quoted_ratios_hold() {
        let h = DeviceSpec::h100_pcie();
        let m = DeviceSpec::mi250x_gcd();
        // "its shared memory is 3.5x smaller than the H100 GPU" (§8).
        let r = h.smem_ratio(&m);
        assert!((r - 3.5625).abs() < 0.1, "smem ratio {r}");
        // "The H100-PCIe GPU achieves 47% higher bandwidth" (§8).
        let bw = h.mem_bw / m.mem_bw;
        assert!((bw - 1.47).abs() < 0.02, "bandwidth ratio {bw}");
    }

    #[test]
    fn warps_per_block_rounds_up() {
        let h = DeviceSpec::h100_pcie();
        assert_eq!(h.warps_per_block(1), 1);
        assert_eq!(h.warps_per_block(32), 1);
        assert_eq!(h.warps_per_block(33), 2);
        let m = DeviceSpec::mi250x_gcd();
        assert_eq!(m.warps_per_block(64), 1);
        assert_eq!(m.warps_per_block(65), 2);
    }

    #[test]
    fn warm_launch_is_cheaper_than_cold_on_every_device() {
        for dev in [
            DeviceSpec::h100_pcie(),
            DeviceSpec::mi250x_gcd(),
            DeviceSpec::test_device(),
        ] {
            assert!(
                dev.warm_launch_overhead_s > 0.0
                    && dev.warm_launch_overhead_s < dev.launch_overhead_s,
                "{}: warm {} vs cold {}",
                dev.name,
                dev.warm_launch_overhead_s,
                dev.launch_overhead_s
            );
            // Spin-up amortizes: a handful of warm launches must repay it
            // against the per-launch savings, or Resident mode could never
            // win a serve flush.
            let saving = dev.launch_overhead_s - dev.warm_launch_overhead_s;
            assert!(
                dev.engine_spinup_s < 16.0 * saving,
                "{}: spin-up {} never amortized by saving {}",
                dev.name,
                dev.engine_spinup_s,
                saving
            );
        }
    }

    #[test]
    fn legacy_spec_json_deserializes_with_cold_defaults() {
        // Drop the resident-engine fields from a serialized spec, as specs
        // recorded before this model revision would lack them. Scalar
        // values end at the next comma or closing brace, so textual
        // removal is exact.
        fn strip_key(json: &str, key: &str) -> String {
            let pat = format!("\"{key}\":");
            let start = json.find(&pat).expect("key present");
            let val_end = start
                + pat.len()
                + json[start + pat.len()..]
                    .find([',', '}'])
                    .expect("value terminator");
            if json.as_bytes()[val_end] == b',' {
                format!("{}{}", &json[..start], &json[val_end + 1..])
            } else {
                format!("{}{}", &json[..start - 1], &json[val_end..])
            }
        }
        let full = serde_json::to_string(&DeviceSpec::test_device()).unwrap();
        let legacy = strip_key(
            &strip_key(&full, "warm_launch_overhead_s"),
            "engine_spinup_s",
        );
        let back: DeviceSpec = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.warm_launch_overhead_s, 0.0);
        assert_eq!(back.engine_spinup_s, 0.0);
        assert_eq!(back.launch_overhead_s, 1.0e-6);
    }

    #[test]
    fn specs_serialize_roundtrip() {
        let h = DeviceSpec::h100_pcie();
        let s = serde_json::to_string(&h).unwrap();
        let back: DeviceSpec = serde_json::from_str(&s).unwrap();
        assert_eq!(h, back);
    }
}
