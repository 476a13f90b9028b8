//! Metric values and the order statistics every metric is built from.

use std::collections::BTreeMap;

/// One reported value with its unit and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Metrics by name, in name order.
pub type Metrics = BTreeMap<String, Metric>;

/// Insert `name` unless it is already present (a duplicate name is a bug
/// in the benchmark, not a measurement).
pub fn put(
    m: &mut Metrics,
    name: impl Into<String>,
    value: f64,
    unit: &'static str,
    samples: usize,
) {
    let name = name.into();
    let prev = m.insert(
        name.clone(),
        Metric {
            value,
            unit,
            samples,
        },
    );
    assert!(prev.is_none(), "metric {name} reported twice");
}

/// Nearest-rank quantile of an ascending sample (`0.0` when empty), the
/// same rule `ServeReport` uses for its latency quantiles.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[(q * (sorted.len() - 1) as f64).round() as usize]
}

/// Ascending copy of a sample; `+inf` sorts last.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.999), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn failures_sort_past_every_latency() {
        let v = sorted(&[f64::INFINITY, 2.0, 1.0]);
        assert_eq!(v, vec![1.0, 2.0, f64::INFINITY]);
        assert_eq!(quantile(&v, 0.999), f64::INFINITY);
    }
}
