//! Service metrics: live counters plus the exported [`ServeReport`].

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::cache::FactorCache;
use crate::policy::FlushReason;

/// Live counters the server mutates as it runs. [`Metrics::report`]
/// freezes them into the serializable [`ServeReport`].
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    pub submitted: u64,
    pub rejected: u64,
    pub solved: u64,
    pub singular: u64,
    pub timed_out: u64,
    pub failed: u64,
    pub flush_size: u64,
    pub flush_deadline: u64,
    pub flush_drain: u64,
    pub spills: u64,
    pub bisect_retries: u64,
    pub fallback_singletons: u64,
    pub deadline_misses: u64,
    pub warm_requests: u64,
    pub warm_flushes: u64,
    pub warm_fallbacks: u64,
    pub stale_handles: u64,
    pub factorize_requests: u64,
    pub max_queue_depth: usize,
    pub batch_hist: BTreeMap<usize, u64>,
    pub latencies_s: Vec<f64>,
}

impl Metrics {
    pub(crate) fn note_flush(&mut self, reason: FlushReason, batch: usize) {
        match reason {
            FlushReason::SizeReached => self.flush_size += 1,
            FlushReason::DeadlineExpired => self.flush_deadline += 1,
            FlushReason::Drain => self.flush_drain += 1,
        }
        *self.batch_hist.entry(batch).or_insert(0) += 1;
    }

    /// Freeze the counters, the factor cache's snapshot and the
    /// per-worker breakdown into one report.
    pub(crate) fn report(&self, cache: &FactorCache, devices: Vec<DeviceReport>) -> ServeReport {
        let stats = cache.stats();
        let mut sorted = self.latencies_s.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let quantile = |q: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            // Nearest-rank on the sorted sample.
            let idx = (q * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx]
        };
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        };
        ServeReport {
            submitted: self.submitted,
            rejected: self.rejected,
            completed: self.solved + self.singular + self.timed_out + self.failed,
            solved: self.solved,
            singular: self.singular,
            timed_out: self.timed_out,
            failed: self.failed,
            flush_size: self.flush_size,
            flush_deadline: self.flush_deadline,
            flush_drain: self.flush_drain,
            spills: self.spills,
            bisect_retries: self.bisect_retries,
            fallback_singletons: self.fallback_singletons,
            deadline_misses: self.deadline_misses,
            warm_requests: self.warm_requests,
            warm_flushes: self.warm_flushes,
            warm_fallbacks: self.warm_fallbacks,
            stale_handles: self.stale_handles,
            factorize_requests: self.factorize_requests,
            cache_lookups: stats.lookups,
            cache_hits: stats.hits,
            cache_misses: stats.misses,
            cache_insertions: stats.insertions,
            cache_evictions: stats.evictions,
            cache_negative_hits: stats.negative_hits,
            cache_entries: cache.len(),
            cache_bytes: cache.bytes(),
            max_queue_depth: self.max_queue_depth,
            batch_hist: self.batch_hist.iter().map(|(&k, &v)| (k, v)).collect(),
            p50_latency_s: quantile(0.50),
            p99_latency_s: quantile(0.99),
            max_latency_s: sorted.last().copied().unwrap_or(0.0),
            mean_latency_s: mean,
            devices,
        }
    }
}

/// Frozen, serializable snapshot of a service run. Everything is counted
/// on the virtual clock, so two runs over the same traffic produce equal
/// reports regardless of host parallelism (`PartialEq` is exact).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Requests offered to `submit` (admitted or rejected).
    pub submitted: u64,
    /// Requests refused with backpressure (`QueueFull`).
    pub rejected: u64,
    /// Responses emitted (every admitted request produces exactly one).
    pub completed: u64,
    /// Responses with a solution.
    pub solved: u64,
    /// Responses flagged exactly singular.
    pub singular: u64,
    /// Responses dropped by the per-request timeout.
    pub timed_out: u64,
    /// Responses refused by both backends (faulting doubles only).
    pub failed: u64,
    /// Flushes triggered by reaching the target batch size.
    pub flush_size: u64,
    /// Flushes triggered by a head-of-line deadline.
    pub flush_deadline: u64,
    /// Flushes triggered by draining the service.
    pub flush_drain: u64,
    /// Flushes routed to the CPU backend (small or stale buckets, or a
    /// saturated device).
    pub spills: u64,
    /// Batch-level backend failures recovered by bisection (each split
    /// counts once).
    pub bisect_retries: u64,
    /// Requests rescued one-by-one on the fallback backend after
    /// bisection isolated them.
    pub fallback_singletons: u64,
    /// Responses completed after their deadline.
    pub deadline_misses: u64,
    /// Requests admitted on the warm (cached-factor, GBTRS-only) tier.
    pub warm_requests: u64,
    /// Flushes that ran the GBTRS-only fast path end to end.
    pub warm_flushes: u64,
    /// Warm flushes demoted to the cold factorize-and-solve path because
    /// a retained factor was evicted between admission and flush.
    pub warm_fallbacks: u64,
    /// `submit_with` calls whose [`FactorHandle`](crate::FactorHandle)
    /// no longer resolved (evicted) — served via the ordinary path.
    pub stale_handles: u64,
    /// Operators factored through the explicit `factorize` entry point.
    pub factorize_requests: u64,
    /// Factor-cache admission probes (`hits + misses`).
    pub cache_lookups: u64,
    /// Admission probes that found a live retained factor.
    pub cache_hits: u64,
    /// Admission probes that missed.
    pub cache_misses: u64,
    /// Factors inserted into the cache.
    pub cache_insertions: u64,
    /// Factors evicted under the LRU capacity/byte budget.
    pub cache_evictions: u64,
    /// Admission probes answered by the negative (singular) cache.
    pub cache_negative_hits: u64,
    /// Live cache entries at report time.
    pub cache_entries: usize,
    /// Live cache footprint in bytes at report time.
    pub cache_bytes: usize,
    /// Peak total queue depth observed at admission.
    pub max_queue_depth: usize,
    /// Histogram of flushed batch sizes: `(size, count)`, ascending.
    pub batch_hist: Vec<(usize, u64)>,
    /// Median end-to-end latency, seconds (0 when nothing completed).
    pub p50_latency_s: f64,
    /// 99th-percentile end-to-end latency, seconds.
    pub p99_latency_s: f64,
    /// Worst end-to-end latency, seconds.
    pub max_latency_s: f64,
    /// Mean end-to-end latency, seconds.
    pub mean_latency_s: f64,
    /// Per-device breakdown, in worker order (GPU workers first, CPU
    /// pool last). Empty on reports frozen before the fleet refactor;
    /// `serde(default)` keeps those old JSON snapshots loadable.
    #[serde(default)]
    pub devices: Vec<DeviceReport>,
}

/// One fleet worker's slice of a [`ServeReport`]. All numbers live on
/// the virtual clock, so they are exactly reproducible run to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Worker name (registry instance name, e.g. `"h100_pcie:0"`, or the
    /// device spec's own name for hand-built servers; `"cpu"` for the
    /// spill pool).
    pub name: String,
    /// Engine class: `"gpu"` or `"cpu"`.
    pub kind: String,
    /// Requests answered by this worker.
    pub requests: u64,
    /// Batches flushed to this worker.
    pub flushes: u64,
    /// Total modeled busy time, seconds.
    pub busy_s: f64,
    /// `busy_s` over the virtual-clock horizon at report time (0 when
    /// the clock never advanced).
    pub utilization: f64,
    /// Batches this worker would have owned by affinity but that the
    /// router shed elsewhere because the worker was saturated.
    pub sheds: u64,
    /// Peak number of flushed batches simultaneously in flight on this
    /// worker's virtual timeline.
    pub peak_inflight: usize,
}

impl ServeReport {
    /// Total flushes across all trigger reasons.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.flush_size + self.flush_deadline + self.flush_drain
    }

    /// Mean flushed batch size (0 when nothing flushed).
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        let (reqs, flushes) = self
            .batch_hist
            .iter()
            .fold((0u64, 0u64), |(r, f), &(size, count)| {
                (r + size as u64 * count, f + count)
            });
        if flushes == 0 {
            0.0
        } else {
            reqs as f64 / flushes as f64
        }
    }

    /// Whether every admitted request was answered.
    #[must_use]
    pub fn is_conserved(&self) -> bool {
        self.submitted - self.rejected == self.completed
    }

    /// Factor-cache hit rate over admission probes (0 when no probes).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Total modeled busy time across every worker, seconds.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.devices.iter().map(|d| d.busy_s).sum()
    }

    /// Mean modeled backend busy time per completed request, seconds —
    /// the amortized service cost a factor cache is supposed to push
    /// down (0 when nothing completed).
    #[must_use]
    pub fn amortized_cost_s(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.busy_s() / self.completed as f64
        }
    }

    /// Spread of GPU-worker utilization (`max − min`; 0 with fewer than
    /// two GPU workers). A router that load-balances well keeps this
    /// small on a homogeneous fleet; on a heterogeneous fleet it tracks
    /// how much the affinity policy concentrates work.
    #[must_use]
    pub fn utilization_spread(&self) -> f64 {
        let utils: Vec<f64> = self
            .devices
            .iter()
            .filter(|d| d.kind == "gpu")
            .map(|d| d.utilization)
            .collect();
        if utils.len() < 2 {
            return 0.0;
        }
        let max = utils.iter().copied().fold(f64::MIN, f64::max);
        let min = utils.iter().copied().fold(f64::MAX, f64::min);
        max - min
    }

    /// Total batches shed away from their affinity-preferred worker.
    #[must_use]
    pub fn sheds(&self) -> u64 {
        self.devices.iter().map(|d| d.sheds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;

    #[test]
    fn quantiles_and_means() {
        let m = Metrics {
            latencies_s: (1..=100).map(|i| i as f64 * 1e-3).collect(),
            solved: 100,
            submitted: 100,
            ..Default::default()
        };
        let r = m.report(&FactorCache::new(CacheConfig::default()), Vec::new());
        assert!((r.p50_latency_s - 0.051).abs() < 1e-12);
        assert!((r.p99_latency_s - 0.099).abs() < 1e-12);
        assert!((r.max_latency_s - 0.100).abs() < 1e-12);
        assert!((r.mean_latency_s - 0.0505).abs() < 1e-12);
        assert!(r.is_conserved());
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut m = Metrics {
            submitted: 7,
            solved: 5,
            singular: 2,
            latencies_s: vec![1e-3, 2e-3],
            ..Default::default()
        };
        m.note_flush(FlushReason::SizeReached, 4);
        m.note_flush(FlushReason::DeadlineExpired, 3);
        let r = m.report(&FactorCache::new(CacheConfig::default()), Vec::new());
        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: ServeReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.flushes(), 2);
        assert!((back.mean_batch() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_quiet() {
        let r = Metrics::default().report(&FactorCache::new(CacheConfig::default()), Vec::new());
        assert_eq!(r.p50_latency_s, 0.0);
        assert_eq!(r.max_latency_s, 0.0);
        assert_eq!(r.mean_batch(), 0.0);
        assert_eq!(r.flushes(), 0);
        assert!(r.is_conserved());
    }
}
