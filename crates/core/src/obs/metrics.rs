//! A lightweight metrics registry: counters, gauges, and fixed-bucket
//! histograms with no external dependencies.
//!
//! The registry is `Send + Sync` (interior mutability behind a mutex) so
//! cluster runs can feed it from parallel node stepping, and fully
//! deterministic: names are kept sorted and values carry no timestamps,
//! so two identical runs export identical JSON.

use crate::obs::TraceEvent;
use serde::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Default histogram bucket upper bounds — a decade-spanning ladder that
/// covers milliseconds, watts, and counts alike. A final `+inf` bucket
/// is always implicit.
pub const DEFAULT_BUCKETS: [f64; 11] = [
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
];

/// A fixed-bucket histogram with running sum/min/max.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Sorted upper bounds; observations land in the first bucket whose
    /// bound is ≥ the value, or in the implicit overflow bucket.
    bounds: Vec<f64>,
    /// Per-bucket counts (`bounds.len() + 1` entries, last = overflow).
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over the given upper bounds (sorted and deduplicated;
    /// non-finite bounds are discarded).
    pub fn new(bounds: &[f64]) -> Self {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds compare"));
        bounds.dedup();
        let counts = vec![0; bounds.len() + 1];
        Self {
            bounds,
            counts,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation (non-finite values are dropped).
    pub fn observe(&mut self, value: f64) {
        self.observe_repeated(value, 1);
    }

    /// Records `n` observations of one value with a single bucket search;
    /// `sum` still adds `value` `n` times in sequence, so the result is
    /// bit-identical to `n` calls of [`Histogram::observe`].
    pub fn observe_repeated(&mut self, value: f64, n: u64) {
        if n == 0 || !value.is_finite() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += n;
        self.count += n;
        for _ in 0..n {
            self.sum += value;
        }
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Bucket-interpolated quantile estimate (`q` in `[0, 1]`); exact at
    /// the observed min/max, linear within a bucket otherwise.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cumulative + c;
            if (next as f64) >= rank {
                let lower = if i == 0 {
                    self.min
                } else {
                    self.bounds[i - 1].max(self.min)
                };
                let upper = if i < self.bounds.len() {
                    self.bounds[i].min(self.max)
                } else {
                    self.max
                };
                let within = (rank - cumulative as f64) / c as f64;
                return (lower + (upper - lower) * within.clamp(0.0, 1.0))
                    .clamp(self.min, self.max);
            }
            cumulative = next;
        }
        self.max
    }

    /// The bucket upper bounds (the overflow bucket is implicit).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Folds another histogram into this one bucket-by-bucket. Both
    /// histograms must share the same bounds (the merge is the shard →
    /// fleet aggregation step, and shards are built from one template);
    /// returns `false` without mutating anything when they differ.
    pub fn merge(&mut self, other: &Histogram) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        true
    }

    /// An owned snapshot for export.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Exported view of one histogram.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (the overflow bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket counts, `bounds.len() + 1` entries.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: Option<f64>,
    /// Largest observation.
    pub max: Option<f64>,
    /// Mean observation.
    pub mean: f64,
    /// Estimated median.
    pub p50: f64,
    /// Estimated 95th percentile.
    pub p95: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The registry: named counters, gauges, and histograms behind interior
/// mutability, so one registry can be shared by reference across a run
/// harness, a cluster's parallel node loops, and the caller that
/// exports it afterwards.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        // A poisoned registry only means another thread panicked while
        // recording; the data is still sound for export.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Increments a counter by 1.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increments a counter by `n`.
    pub fn add(&self, name: &str, n: u64) {
        *self.lock().counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Records a histogram observation; the histogram is created with
    /// [`DEFAULT_BUCKETS`] on first touch.
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_with(name, &DEFAULT_BUCKETS, value);
    }

    /// Records an observation, creating the histogram with the given
    /// bucket bounds on first touch (later calls ignore `bounds`).
    pub fn observe_with(&self, name: &str, bounds: &[f64], value: f64) {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Folds a pre-aggregated histogram into the named registry
    /// histogram, creating it as an empty clone of `other`'s bounds on
    /// first touch. This is the streaming-aggregation entry point: shards
    /// accumulate locally without taking the registry lock per sample,
    /// then merge once. Returns `false` (registry untouched) on a bucket
    ///-bounds mismatch with an existing histogram.
    pub fn merge_histogram(&self, name: &str, other: &Histogram) -> bool {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(other.bounds()))
            .merge(other)
    }

    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.lock().gauges.get(name).copied()
    }

    /// Snapshot of one histogram.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.lock().histograms.get(name).map(Histogram::snapshot)
    }

    /// Folds one trace event into the registry — the single place that
    /// maps the event taxonomy onto metric names, shared by every run
    /// harness.
    pub fn observe_event(&self, event: &TraceEvent) {
        match event {
            TraceEvent::TelemetrySample {
                p95_ms,
                power_w,
                be_throughput_norm,
                ..
            } => {
                self.inc("run.intervals");
                self.observe("interval.p95_ms", *p95_ms);
                self.observe("interval.power_w", *power_w);
                self.observe_with(
                    "interval.be_throughput",
                    &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
                    *be_throughput_norm,
                );
            }
            TraceEvent::SearchRan {
                model_calls,
                candidates,
                pruned_candidates,
                pruned_subspaces,
                frontier_reuses,
                fallback,
                ..
            } => {
                self.inc("search.runs");
                self.add("search.model_calls", *model_calls);
                self.add("search.candidates", *candidates as u64);
                self.add("search.pruned_candidates", *pruned_candidates);
                self.add("search.pruned_subspaces", *pruned_subspaces);
                self.add("search.frontier_reuses", *frontier_reuses);
                if *fallback {
                    self.inc("search.fallbacks");
                }
            }
            TraceEvent::BalancerStep { action, .. } => match action {
                crate::balancer::BalancerAction::Harvest { .. } => self.inc("balancer.harvests"),
                crate::balancer::BalancerAction::Revert { .. } => self.inc("balancer.reverts"),
            },
            TraceEvent::SafeModeEntered { .. } => self.inc("controller.safe_mode_entries"),
            TraceEvent::SafeModeExited { .. } => self.inc("controller.safe_mode_exits"),
            TraceEvent::ActuationRetry {
                attempts,
                recovered,
                ..
            } => {
                self.add("actuation.retries", *attempts as u64);
                if *recovered {
                    self.inc("actuation.retry_successes");
                }
            }
            TraceEvent::ConfigApplied { outcome, .. } => {
                self.inc("actuation.config_changes");
                match outcome {
                    sturgeon_simnode::ActuationOutcome::Applied => {}
                    sturgeon_simnode::ActuationOutcome::Partial => {
                        self.inc("actuation.partial_applies")
                    }
                    sturgeon_simnode::ActuationOutcome::Failed => {
                        self.inc("actuation.failed_applies")
                    }
                }
            }
            TraceEvent::FaultInjected { classes, .. } => {
                self.inc("faults.injected");
                for class in classes {
                    self.add(&format!("faults.{class}"), 1);
                }
            }
            TraceEvent::BudgetReclaimed { reclaimed_w, .. } => {
                self.inc("budget.reclaims");
                self.set_gauge("budget.reclaimed_w", *reclaimed_w);
            }
            TraceEvent::BeMigrated { action, .. } => match *action {
                "assign" => self.inc("placement.assignments"),
                "evict" => self.inc("placement.evictions"),
                _ => self.inc("placement.migrations"),
            },
            TraceEvent::ColdStartPredicted {
                cells,
                rmse_heldout,
                ..
            } => {
                self.inc("scoring.cold_starts");
                self.add("scoring.cold_start_cells", *cells as u64);
                self.set_gauge("scoring.rmse_heldout", *rmse_heldout);
            }
            TraceEvent::SetScored { score, .. } => {
                self.inc("scoring.set_scores");
                self.set_gauge("scoring.last_set_score", *score);
            }
        }
    }

    /// Exports everything as a JSON value tree
    /// (`{"counters": {...}, "gauges": {...}, "histograms": {...}}`).
    pub fn to_json(&self) -> Value {
        let inner = self.lock();
        let counters = Value::Object(
            inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), Value::Number(*v as f64)))
                .collect(),
        );
        let gauges = Value::Object(
            inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), Value::Number(*v)))
                .collect(),
        );
        let histograms = Value::Object(
            inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), serde::Serialize::to_value(&h.snapshot())))
                .collect(),
        );
        Value::Object(vec![
            ("counters".into(), counters),
            ("gauges".into(), gauges),
            ("histograms".into(), histograms),
        ])
    }

    /// The one-page human-readable summary.
    pub fn text_summary(&self) -> String {
        let inner = self.lock();
        let mut out = String::from("== metrics summary ==\n");
        if !inner.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &inner.counters {
                let _ = writeln!(out, "  {k:<32} {v}");
            }
        }
        if !inner.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &inner.gauges {
                let _ = writeln!(out, "  {k:<32} {v:.3}");
            }
        }
        if !inner.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (k, h) in &inner.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<32} n={} mean={:.3} p50={:.3} p95={:.3} max={:.3}",
                    h.count(),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.max().unwrap_or(0.0),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let m = MetricsRegistry::new();
        m.inc("a");
        m.add("a", 4);
        m.set_gauge("g", 1.5);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("untouched"), 0);
        assert_eq!(m.gauge("g"), Some(1.5));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 2.0, 3.0, 50.0, 200.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(200.0));
        assert!((h.sum() - 255.5).abs() < 1e-9);
        let p50 = h.quantile(0.5);
        assert!((1.0..=10.0).contains(&p50), "p50 {p50}");
        assert_eq!(h.quantile(1.0), 200.0);
        // Non-finite observations are dropped.
        h.observe(f64::NAN);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn observe_repeated_matches_repeated_observe() {
        let bounds = [1.0, 10.0, 100.0];
        // 10.0 sits on a bucket bound, 250.0 lands in the overflow bucket,
        // and 0.1/3.3 make the running sum round.
        for value in [
            0.1,
            3.3,
            10.0,
            250.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            for n in [0u64, 1, 7, 10_000] {
                let mut repeated = Histogram::new(&bounds);
                let mut single = Histogram::new(&bounds);
                for h in [&mut repeated, &mut single] {
                    h.observe(0.7);
                }
                repeated.observe_repeated(value, n);
                for _ in 0..n {
                    single.observe(value);
                }
                let (a, b) = (repeated.snapshot(), single.snapshot());
                assert_eq!(a.counts, b.counts, "{value} × {n}");
                assert_eq!(a.count, b.count, "{value} × {n}");
                assert_eq!(a.sum.to_bits(), b.sum.to_bits(), "{value} × {n}");
                assert_eq!(a.min, b.min, "{value} × {n}");
                assert_eq!(a.max, b.max, "{value} × {n}");
                if !value.is_finite() {
                    assert_eq!(a.count, 1, "non-finite {value} must be dropped");
                }
            }
        }
    }

    #[test]
    fn histogram_merge_matches_single_stream() {
        let bounds = [1.0, 10.0, 100.0];
        let mut whole = Histogram::new(&bounds);
        let mut a = Histogram::new(&bounds);
        let mut b = Histogram::new(&bounds);
        for (i, v) in [0.5, 2.0, 3.0, 50.0, 200.0, 7.0].iter().enumerate() {
            whole.observe(*v);
            if i % 2 == 0 { &mut a } else { &mut b }.observe(*v);
        }
        assert!(a.merge(&b));
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.snapshot().counts, whole.snapshot().counts);
        // Mismatched bounds refuse to merge and leave the target alone.
        let other = Histogram::new(&[5.0]);
        let before = a.snapshot();
        assert!(!a.merge(&other));
        assert_eq!(a.snapshot(), before);
    }

    #[test]
    fn registry_merges_shard_histograms() {
        let m = MetricsRegistry::new();
        let mut shard = Histogram::new(&DEFAULT_BUCKETS);
        shard.observe(3.0);
        shard.observe(40.0);
        assert!(m.merge_histogram("lat", &shard));
        assert!(m.merge_histogram("lat", &shard));
        let snap = m.histogram("lat").unwrap();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 86.0);
        // Bounds mismatch against the existing histogram is rejected.
        assert!(!m.merge_histogram("lat", &Histogram::new(&[1.0])));
        assert_eq!(m.histogram("lat").unwrap().count, 4);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = Histogram::new(&DEFAULT_BUCKETS);
        assert_eq!(h.quantile(0.95), 0.0);
    }

    #[test]
    fn json_export_has_the_three_sections() {
        let m = MetricsRegistry::new();
        m.inc("runs");
        m.set_gauge("load", 0.4);
        m.observe("lat", 3.0);
        let v = m.to_json();
        assert_eq!(v["counters"]["runs"], 1);
        assert_eq!(v["gauges"]["load"], 0.4);
        assert_eq!(v["histograms"]["lat"]["count"], 1);
        let text = m.text_summary();
        assert!(text.contains("runs"));
        assert!(text.contains("lat"));
    }

    #[test]
    fn events_map_onto_stable_metric_names() {
        let m = MetricsRegistry::new();
        m.observe_event(&TraceEvent::TelemetrySample {
            t_s: 1.0,
            qps: 10_000.0,
            p95_ms: 4.0,
            power_w: 70.0,
            be_throughput_norm: 0.6,
        });
        m.observe_event(&TraceEvent::FaultInjected {
            t_s: 1.0,
            classes: vec!["qps_spike", "budget_cut"],
        });
        m.observe_event(&TraceEvent::ActuationRetry {
            t_s: 2.0,
            attempts: 2,
            recovered: true,
        });
        assert_eq!(m.counter("run.intervals"), 1);
        assert_eq!(m.counter("faults.injected"), 1);
        assert_eq!(m.counter("faults.qps_spike"), 1);
        assert_eq!(m.counter("actuation.retries"), 2);
        assert_eq!(m.counter("actuation.retry_successes"), 1);
        assert_eq!(m.histogram("interval.p95_ms").unwrap().count, 1);
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let m = MetricsRegistry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        m.inc("hits");
                        m.observe("v", 1.0);
                    }
                });
            }
        });
        assert_eq!(m.counter("hits"), 400);
        assert_eq!(m.histogram("v").unwrap().count, 400);
    }
}
