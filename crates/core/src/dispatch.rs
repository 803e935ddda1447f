//! The cluster-level query dispatcher (paper Fig. 4, top half).
//!
//! "The queries sent by users are first dispatched to each server by the
//! cluster-level scheduler." This module owns that scheduler: a
//! [`DispatchPolicy`] describes how the aggregate query stream splits
//! across serving units (nodes in a [`crate::cluster::Cluster`], shards
//! in a [`crate::fleet::Fleet`]), and a [`Dispatcher`] turns the policy
//! plus last-interval latency summaries into normalized weights without
//! per-interval allocation.

use crate::error::SturgeonError;

/// How the cluster scheduler splits the offered load across serving
/// units.
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchPolicy {
    /// Equal share to every unit.
    Even,
    /// Fixed weights (normalized internally; must be non-negative, not
    /// all zero).
    Weighted(Vec<f64>),
    /// Adaptive: each interval, weight units by their latency headroom in
    /// the previous interval (a unit near its QoS target receives less).
    /// Weights are EWMA-smoothed and the spread is bounded (≤ 2:1) —
    /// latency signals lag one interval, and an undamped headroom policy
    /// oscillates against the per-node controllers.
    LatencyAware,
}

/// Reusable weight engine for one dispatch policy over `n` units.
///
/// The LatencyAware policy is stateful (EWMA smoothing); the others are
/// pure. All buffers are allocated once at construction and refilled in
/// place every interval.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    qos_target_ms: f64,
    /// EWMA-smoothed per-unit weights (LatencyAware only).
    smoothed: Vec<f64>,
    /// Scratch buffer for the per-unit headroom targets, so each target
    /// is computed exactly once per interval.
    targets: Vec<f64>,
    /// The normalized weights of the most recent interval.
    weights: Vec<f64>,
}

impl Dispatcher {
    /// Builds a dispatcher over `n` units, validating the policy.
    pub fn try_new(
        policy: DispatchPolicy,
        n: usize,
        qos_target_ms: f64,
    ) -> Result<Self, SturgeonError> {
        if n == 0 {
            return Err(SturgeonError::setup("dispatcher needs at least one unit"));
        }
        if let DispatchPolicy::Weighted(w) = &policy {
            if w.len() != n {
                return Err(SturgeonError::setup("one weight per node"));
            }
            if !w.iter().all(|&x| x >= 0.0) {
                return Err(SturgeonError::setup("weights must be non-negative"));
            }
            if w.iter().sum::<f64>() <= 0.0 {
                return Err(SturgeonError::setup("weights must not all be zero"));
            }
        }
        Ok(Self {
            policy,
            qos_target_ms,
            smoothed: vec![1.0 / n as f64; n],
            targets: vec![0.0; n],
            weights: vec![0.0; n],
        })
    }

    /// The policy in force.
    pub fn policy(&self) -> &DispatchPolicy {
        &self.policy
    }

    /// True when the weights depend on the units' last-interval
    /// summaries (LatencyAware), so they must be refilled every
    /// interval; Even and Weighted weights never change.
    pub(crate) fn reads_feedback(&self) -> bool {
        matches!(self.policy, DispatchPolicy::LatencyAware)
    }

    /// Number of serving units.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when the dispatcher has no units (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Computes this interval's normalized weights from the units'
    /// last-interval p95 summaries (`last_p95_ms.len()` must equal the
    /// unit count; only LatencyAware reads it). The LatencyAware policy
    /// mutates its EWMA state. No per-interval allocation.
    pub fn fill_weights(&mut self, last_p95_ms: &[f64]) -> &[f64] {
        let n = self.weights.len();
        assert_eq!(last_p95_ms.len(), n, "one p95 summary per unit");
        match &self.policy {
            DispatchPolicy::Even => self.weights.fill(1.0 / n as f64),
            DispatchPolicy::Weighted(w) => {
                let sum: f64 = w.iter().sum();
                for (out, &x) in self.weights.iter_mut().zip(w) {
                    *out = x / sum;
                }
            }
            DispatchPolicy::LatencyAware => {
                // Bounded headroom target (spread ≤ 2:1), EWMA-damped:
                // the latency signal lags one interval, so an aggressive
                // proportional policy oscillates against the per-node
                // controllers and shreds everyone's QoS. Each target is
                // computed once into the scratch buffer, then normalized.
                let qos_target_ms = self.qos_target_ms;
                for (t, &p95) in self.targets.iter_mut().zip(last_p95_ms) {
                    let headroom = ((qos_target_ms - p95) / qos_target_ms).clamp(0.0, 1.0);
                    *t = 0.5 + 0.5 * headroom;
                }
                let sum: f64 = self.targets.iter().sum();
                for (s, &t) in self.smoothed.iter_mut().zip(&self.targets) {
                    *s = 0.9 * *s + 0.1 * (t / sum);
                }
                let total: f64 = self.smoothed.iter().sum();
                for (out, &s) in self.weights.iter_mut().zip(&self.smoothed) {
                    *out = s / total;
                }
            }
        }
        &self.weights
    }

    /// The weights computed by the most recent
    /// [`fill_weights`](Self::fill_weights) call.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_splits_equally() {
        let mut d = Dispatcher::try_new(DispatchPolicy::Even, 4, 15.0).unwrap();
        let w = d.fill_weights(&[0.0; 4]).to_vec();
        assert_eq!(w, vec![0.25; 4]);
    }

    #[test]
    fn weighted_normalizes() {
        let mut d = Dispatcher::try_new(DispatchPolicy::Weighted(vec![3.0, 1.0]), 2, 15.0).unwrap();
        let w = d.fill_weights(&[0.0, 0.0]).to_vec();
        assert!((w[0] - 0.75).abs() < 1e-12);
        assert!((w[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn latency_aware_prefers_headroom_and_stays_bounded() {
        let mut d = Dispatcher::try_new(DispatchPolicy::LatencyAware, 2, 15.0).unwrap();
        // Unit 0 near the target, unit 1 far below: after many intervals
        // the EWMA converges toward the bounded targets.
        let mut w = Vec::new();
        for _ in 0..200 {
            w = d.fill_weights(&[14.0, 2.0]).to_vec();
        }
        assert!(w[1] > w[0], "fast unit gets more: {w:?}");
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[1] / w[0] <= 2.0 + 1e-9, "spread bounded: {w:?}");
    }

    #[test]
    fn rejects_bad_setups() {
        assert!(Dispatcher::try_new(DispatchPolicy::Even, 0, 15.0).is_err());
        assert!(Dispatcher::try_new(DispatchPolicy::Weighted(vec![1.0]), 2, 15.0).is_err());
        assert!(Dispatcher::try_new(DispatchPolicy::Weighted(vec![-1.0, 2.0]), 2, 15.0).is_err());
        assert!(Dispatcher::try_new(DispatchPolicy::Weighted(vec![0.0, 0.0]), 2, 15.0).is_err());
    }
}
