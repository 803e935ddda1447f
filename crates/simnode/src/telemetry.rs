//! Per-interval telemetry samples and aggregate statistics.
//!
//! The paper's evaluation metrics are all derivable from a per-second
//! sample stream: *QoS guarantee rate* (fraction of queries completed
//! within the QoS target, Fig. 9), *normalized BE throughput* (Fig. 10),
//! and *power overload* (§VII-B). Modern datacenters collect exactly this
//! kind of telemetry (citations 22 and 29 in the paper).

use crate::alloc::PairConfig;
use serde::{Deserialize, Serialize};

/// One monitoring interval's worth of observations (1 s in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalSample {
    /// Interval end time in seconds since experiment start.
    pub t_s: f64,
    /// Offered LS load during the interval (queries/s).
    pub qps: f64,
    /// Measured 95th-percentile LS latency (ms).
    pub p95_ms: f64,
    /// Fraction of this interval's queries that completed within the QoS
    /// target (drives the QoS guarantee rate).
    pub in_target_fraction: f64,
    /// Measured package power (W).
    pub power_w: f64,
    /// BE throughput normalized to the BE app's solo run on the whole node.
    pub be_throughput_norm: f64,
    /// Configuration in force during the interval.
    pub config: PairConfig,
}

/// Append-only log of interval samples with the paper's aggregates.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TelemetryLog {
    samples: Vec<IntervalSample>,
}

impl TelemetryLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one interval.
    pub fn push(&mut self, sample: IntervalSample) {
        self.samples.push(sample);
    }

    /// All recorded samples in order.
    pub fn samples(&self) -> &[IntervalSample] {
        &self.samples
    }

    /// Number of recorded intervals.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// QoS guarantee rate: query-weighted fraction of queries completed
    /// within the QoS target over the whole run (Fig. 9's metric).
    pub fn qos_guarantee_rate(&self) -> f64 {
        let total_q: f64 = self.samples.iter().map(|s| s.qps).sum();
        if total_q == 0.0 {
            return 1.0;
        }
        let in_target: f64 = self
            .samples
            .iter()
            .map(|s| s.qps * s.in_target_fraction)
            .sum();
        in_target / total_q
    }

    /// Mean normalized BE throughput across intervals (Fig. 10's metric).
    pub fn mean_be_throughput(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples
            .iter()
            .map(|s| s.be_throughput_norm)
            .sum::<f64>()
            / self.samples.len() as f64
    }

    /// Fraction of intervals whose power exceeded `budget_w`.
    pub fn overload_fraction(&self, budget_w: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let over = self.samples.iter().filter(|s| s.power_w > budget_w).count();
        over as f64 / self.samples.len() as f64
    }

    /// Mean package power across intervals (the golden-trace regression
    /// aggregate; 0 for an empty log).
    pub fn mean_power_w(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|s| s.power_w).sum::<f64>() / self.samples.len() as f64
    }

    /// Highest power observed in any interval.
    pub fn peak_power_w(&self) -> f64 {
        self.samples.iter().map(|s| s.power_w).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Allocation;

    fn sample(t: f64, qps: f64, frac: f64, power: f64, tput: f64) -> IntervalSample {
        IntervalSample {
            t_s: t,
            qps,
            p95_ms: 5.0,
            in_target_fraction: frac,
            power_w: power,
            be_throughput_norm: tput,
            config: PairConfig::new(Allocation::new(4, 4, 6), Allocation::new(16, 7, 14)),
        }
    }

    #[test]
    fn empty_log_defaults() {
        let log = TelemetryLog::new();
        assert!(log.is_empty());
        assert_eq!(log.qos_guarantee_rate(), 1.0);
        assert_eq!(log.mean_be_throughput(), 0.0);
        assert_eq!(log.overload_fraction(100.0), 0.0);
    }

    #[test]
    fn qos_rate_is_query_weighted() {
        let mut log = TelemetryLog::new();
        // 1000 queries all in target, 3000 queries half in target.
        log.push(sample(1.0, 1000.0, 1.0, 90.0, 0.5));
        log.push(sample(2.0, 3000.0, 0.5, 90.0, 0.5));
        let expected = (1000.0 + 1500.0) / 4000.0;
        assert!((log.qos_guarantee_rate() - expected).abs() < 1e-12);
    }

    #[test]
    fn mean_throughput_averages_intervals() {
        let mut log = TelemetryLog::new();
        log.push(sample(1.0, 10.0, 1.0, 90.0, 0.4));
        log.push(sample(2.0, 10.0, 1.0, 90.0, 0.8));
        assert!((log.mean_be_throughput() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn overload_fraction_counts_intervals() {
        let mut log = TelemetryLog::new();
        log.push(sample(1.0, 10.0, 1.0, 120.0, 0.5));
        log.push(sample(2.0, 10.0, 1.0, 95.0, 0.5));
        log.push(sample(3.0, 10.0, 1.0, 130.0, 0.5));
        assert!((log.overload_fraction(100.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn peaks_track_maxima() {
        let mut log = TelemetryLog::new();
        log.push(sample(1.0, 10.0, 1.0, 120.0, 0.5));
        log.push(sample(2.0, 10.0, 1.0, 95.0, 0.5));
        assert_eq!(log.peak_power_w(), 120.0);
    }

    #[test]
    fn mean_power_averages_intervals() {
        let mut log = TelemetryLog::new();
        assert_eq!(log.mean_power_w(), 0.0);
        log.push(sample(1.0, 10.0, 1.0, 120.0, 0.5));
        log.push(sample(2.0, 10.0, 1.0, 100.0, 0.5));
        assert!((log.mean_power_w() - 110.0).abs() < 1e-12);
    }
}
