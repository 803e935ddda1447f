//! Latency-sensitive service models (memcached / xapian / img-dnn).
//!
//! Ground truth for an LS service is an M/M/c queue whose per-query
//! service time depends on core frequency and LLC allocation:
//!
//! ```text
//! S(f, w) = S_base · (f_max / f)^γ · cache_inflation(w) · interference
//! ```
//!
//! The p95 response time combines a heavy-tail service component
//! (`tail_mult · S`, approximating a lognormal service distribution) with
//! the analytic M/M/c p95 queueing delay. Near saturation the queueing
//! term explodes — the latency cliff that makes "just enough" resource
//! allocations (paper §V-B) well defined.

use crate::queueing::MmcQueue;
use serde::Serialize;

/// Calibration constants for one LS service.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LsServiceParams {
    /// Service name (e.g. "memcached").
    pub name: &'static str,
    /// Peak load in queries per second (paper: 60 000 / 3 500 / 3 000).
    pub peak_qps: f64,
    /// QoS target on the 95th-percentile latency, in ms (10 / 15 / 10).
    pub qos_target_ms: f64,
    /// Mean per-query service time at max frequency with a full cache (ms).
    pub base_service_ms: f64,
    /// Service-rate sensitivity to frequency: rate ∝ f^γ.
    pub freq_exponent: f64,
    /// LLC ways beyond which the service gains nothing.
    pub cache_sat_ways: u32,
    /// Service-time inflation when squeezed to a single way.
    pub cache_penalty: f64,
    /// p95/mean ratio of the service-time distribution (heavy tail).
    pub tail_mult: f64,
    /// Power activity factor (see `simnode::power`).
    pub activity: f64,
    /// Sensitivity of service time to memory-bandwidth interference.
    pub bw_sensitivity: f64,
}

/// Result of evaluating the latency model at one operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsLatency {
    /// 95th-percentile response time in ms.
    pub p95_ms: f64,
    /// Fraction of queries completing within the QoS target.
    pub in_target_fraction: f64,
    /// Core utilization in `[0, ∞)`; ≥ 1 means saturated.
    pub utilization: f64,
}

/// An LS service instance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LsServiceModel {
    /// Calibration constants.
    pub params: LsServiceParams,
    /// Maximum node frequency (GHz) used to normalize the DVFS ratio.
    pub max_freq_ghz: f64,
}

impl LsServiceModel {
    /// Creates a model; `max_freq_ghz` is the node's top DVFS step.
    pub fn new(params: LsServiceParams, max_freq_ghz: f64) -> Self {
        Self {
            params,
            max_freq_ghz,
        }
    }

    /// Multiplicative service-time inflation from a limited LLC share.
    /// 1.0 at/after saturation, `1 + cache_penalty` at one way.
    pub fn cache_inflation(&self, ways: u32) -> f64 {
        let sat = self.params.cache_sat_ways.max(2);
        if ways >= sat {
            return 1.0;
        }
        let deficit = (sat - ways.max(1)) as f64 / (sat - 1) as f64;
        1.0 + self.params.cache_penalty * deficit.powf(1.5)
    }

    /// Mean per-query service time (ms) under the allocation and an
    /// interference multiplier (1.0 = no interference).
    pub fn service_time_ms(&self, freq_ghz: f64, ways: u32, interference: f64) -> f64 {
        let f = freq_ghz.max(1e-3);
        self.params.base_service_ms
            * (self.max_freq_ghz / f).powf(self.params.freq_exponent)
            * self.cache_inflation(ways)
            * interference.max(1.0)
    }

    /// Evaluates p95 latency and QoS attainment at an operating point
    /// with no additive disturbance.
    pub fn latency(
        &self,
        cores: u32,
        freq_ghz: f64,
        ways: u32,
        qps: f64,
        interference: f64,
    ) -> LsLatency {
        self.latency_disturbed(cores, freq_ghz, ways, qps, interference, 0.0)
    }

    /// Evaluates p95 latency and QoS attainment at an operating point.
    /// `interference` multiplies every service time; `additive_ms` is a
    /// flat tail-latency addition (memory-controller queueing, OS delays)
    /// that shifts the response-time distribution without stretching it.
    pub fn latency_disturbed(
        &self,
        cores: u32,
        freq_ghz: f64,
        ways: u32,
        qps: f64,
        interference: f64,
        additive_ms: f64,
    ) -> LsLatency {
        let additive_ms = additive_ms.max(0.0);
        let s_ms = self.service_time_ms(freq_ghz, ways, interference);
        let mu = 1000.0 / s_ms; // per-core service rate, queries/s
        let queue = MmcQueue {
            servers: cores.max(1),
            arrival_rate: qps.max(0.0),
            service_rate: mu,
        };
        let rho = queue.utilization();
        let target = self.params.qos_target_ms;
        if queue.is_saturated() {
            // The backlog grows within the interval: latency is far beyond
            // target. Roughly `cμ/λ` of the queries are served at all, and
            // of those the earlier arrivals still meet the target; deeper
            // saturation is strictly worse on both metrics.
            let p95_ms = target * (2.0 + 8.0 * (rho - 1.0)) + additive_ms;
            let in_target = (0.8 / rho).clamp(0.0, 0.85);
            return LsLatency {
                p95_ms,
                in_target_fraction: in_target,
                utilization: rho,
            };
        }
        let service_p95_ms = self.params.tail_mult * s_ms + additive_ms;
        // Both tail figures share one Erlang-C evaluation.
        let c_prob = queue.wait_probability();
        let wait_p95_ms = queue.wait_quantile_given(c_prob, 0.95) * 1000.0;
        let p95_ms = service_p95_ms + wait_p95_ms;
        // Fraction within target: queries make the deadline when their
        // queueing delay fits in whatever headroom the (shifted) service
        // tail leaves.
        let headroom_s = ((target - service_p95_ms) / 1000.0).max(0.0);
        let in_target = if target <= service_p95_ms {
            // Even unqueued queries blow the target through their own
            // service tail; approximate with the service-tail mass only.
            0.90 * (target / service_p95_ms).min(1.0)
        } else {
            queue.wait_below_fraction_given(c_prob, headroom_s)
        };
        LsLatency {
            p95_ms,
            in_target_fraction: in_target,
            utilization: rho,
        }
    }

    /// Core utilization used by the power model: an affine floor models
    /// the polling/timer work real services burn even when mostly idle.
    pub fn power_utilization(&self, rho: f64) -> f64 {
        0.35 + 0.65 * rho.clamp(0.0, 1.0)
    }

    /// True when the model predicts the QoS target is met at this point
    /// (no interference) — the ground-truth feasibility oracle used by
    /// profiling and the exhaustive-search baseline.
    pub fn meets_qos(&self, cores: u32, freq_ghz: f64, ways: u32, qps: f64) -> bool {
        self.latency(cores, freq_ghz, ways, qps, 1.0).p95_ms <= self.params.qos_target_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ls_services, LsServiceId};
    use proptest::prelude::*;

    fn memcached() -> LsServiceModel {
        ls_services()
            .into_iter()
            .find(|m| m.params.name == LsServiceId::Memcached.name())
            .unwrap()
    }

    #[test]
    fn latency_rises_with_load() {
        let m = memcached();
        let low = m.latency(8, 2.2, 10, 10_000.0, 1.0);
        let high = m.latency(8, 2.2, 10, 30_000.0, 1.0);
        assert!(high.p95_ms > low.p95_ms);
        assert!(high.utilization > low.utilization);
    }

    #[test]
    fn latency_falls_with_more_cores() {
        let m = memcached();
        let few = m.latency(4, 2.2, 10, 14_000.0, 1.0);
        let many = m.latency(10, 2.2, 10, 14_000.0, 1.0);
        assert!(many.p95_ms < few.p95_ms);
    }

    #[test]
    fn latency_falls_with_higher_frequency() {
        let m = memcached();
        let slow = m.latency(6, 1.2, 10, 14_000.0, 1.0);
        let fast = m.latency(6, 2.2, 10, 14_000.0, 1.0);
        assert!(fast.p95_ms < slow.p95_ms);
    }

    #[test]
    fn cache_inflation_monotone_and_saturating() {
        let m = memcached();
        let mut prev = f64::INFINITY;
        for w in 1..=20 {
            let infl = m.cache_inflation(w);
            assert!(infl <= prev, "inflation must not rise with more ways");
            assert!(infl >= 1.0);
            prev = infl;
        }
        assert_eq!(m.cache_inflation(m.params.cache_sat_ways), 1.0);
        assert_eq!(m.cache_inflation(20), 1.0);
    }

    #[test]
    fn saturation_blows_the_target() {
        let m = memcached();
        // 1 core at min frequency cannot serve 30k QPS.
        let l = m.latency(1, 1.2, 10, 30_000.0, 1.0);
        assert!(l.utilization > 1.0);
        assert!(l.p95_ms > 2.0 * m.params.qos_target_ms);
        assert!(l.in_target_fraction < 0.3);
    }

    #[test]
    fn interference_inflates_latency() {
        let m = memcached();
        let clean = m.latency(6, 1.8, 8, 14_000.0, 1.0);
        let noisy = m.latency(6, 1.8, 8, 14_000.0, 1.3);
        assert!(noisy.p95_ms > clean.p95_ms);
    }

    #[test]
    fn peak_load_feasible_on_whole_node() {
        // The machine must be able to serve every LS service's peak load —
        // the premise of the paper's budget definition.
        for m in ls_services() {
            let l = m.latency(20, 2.2, 20, m.params.peak_qps, 1.0);
            assert!(
                l.p95_ms <= m.params.qos_target_ms,
                "{} violates QoS at peak: {:.2} ms",
                m.params.name,
                l.p95_ms
            );
        }
    }

    #[test]
    fn low_load_needs_few_resources() {
        // At 20% of peak, a fraction of the node must suffice (otherwise
        // no co-location opportunity exists and the paper's premise dies).
        for m in ls_services() {
            let qps = 0.2 * m.params.peak_qps;
            let l = m.latency(6, 2.2, 10, qps, 1.0);
            assert!(
                l.p95_ms <= m.params.qos_target_ms,
                "{} cannot run 20% load on 6 cores: {:.2} ms",
                m.params.name,
                l.p95_ms
            );
        }
    }

    #[test]
    fn in_target_consistent_with_p95() {
        // p95 below target ⟺ at least 95% of queries in target (up to
        // numerical tolerance at the boundary).
        let m = memcached();
        for qps in [6_000.0, 12_000.0, 20_000.0, 28_000.0] {
            for cores in [2u32, 4, 8, 12] {
                let l = m.latency(cores, 1.8, 8, qps, 1.0);
                if l.utilization >= 1.0 {
                    continue;
                }
                if l.p95_ms < 0.99 * m.params.qos_target_ms {
                    assert!(
                        l.in_target_fraction >= 0.949,
                        "cores={cores} qps={qps}: p95={} frac={}",
                        l.p95_ms,
                        l.in_target_fraction
                    );
                } else if l.p95_ms > 1.01 * m.params.qos_target_ms {
                    assert!(
                        l.in_target_fraction <= 0.951,
                        "cores={cores} qps={qps}: p95={} frac={}",
                        l.p95_ms,
                        l.in_target_fraction
                    );
                }
            }
        }
    }

    #[test]
    fn power_utilization_has_floor_and_ceiling() {
        let m = memcached();
        assert!((m.power_utilization(0.0) - 0.35).abs() < 1e-12);
        assert!((m.power_utilization(1.0) - 1.0).abs() < 1e-12);
        assert!((m.power_utilization(5.0) - 1.0).abs() < 1e-12);
    }

    /// `latency_disturbed` as it was written before the Erlang-C value
    /// was shared: `wait_quantile_s` and `wait_below_fraction` each run
    /// the recurrence themselves.
    fn two_call_latency(
        m: &LsServiceModel,
        cores: u32,
        freq_ghz: f64,
        ways: u32,
        qps: f64,
        interference: f64,
        additive_ms: f64,
    ) -> LsLatency {
        let additive_ms = additive_ms.max(0.0);
        let s_ms = m.service_time_ms(freq_ghz, ways, interference);
        let queue = MmcQueue {
            servers: cores.max(1),
            arrival_rate: qps.max(0.0),
            service_rate: 1000.0 / s_ms,
        };
        let rho = queue.utilization();
        let target = m.params.qos_target_ms;
        if queue.is_saturated() {
            return LsLatency {
                p95_ms: target * (2.0 + 8.0 * (rho - 1.0)) + additive_ms,
                in_target_fraction: (0.8 / rho).clamp(0.0, 0.85),
                utilization: rho,
            };
        }
        let service_p95_ms = m.params.tail_mult * s_ms + additive_ms;
        let p95_ms = service_p95_ms + queue.wait_quantile_s(0.95) * 1000.0;
        let headroom_s = ((target - service_p95_ms) / 1000.0).max(0.0);
        let in_target = if target <= service_p95_ms {
            0.90 * (target / service_p95_ms).min(1.0)
        } else {
            queue.wait_below_fraction(headroom_s)
        };
        LsLatency {
            p95_ms,
            in_target_fraction: in_target,
            utilization: rho,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_erlang_c_matches_the_two_call_path(
            service in 0usize..3,
            cores in 1u32..21,
            level in 0usize..10,
            ways in 1u32..21,
            rho in 0.0f64..1.05,
            interference in 1.0f64..1.6,
            additive_ms in -1.0f64..6.0,
        ) {
            let m = &ls_services()[service];
            let freq_ghz = 1.2 + 0.1 * level as f64;
            // Offered load as a fraction of the allocation's capacity, so
            // every case sits near the cliff or past saturation.
            let mu = 1000.0 / m.service_time_ms(freq_ghz, ways, interference);
            let qps = rho * f64::from(cores) * mu;
            let got = m.latency_disturbed(cores, freq_ghz, ways, qps, interference, additive_ms);
            let want = two_call_latency(m, cores, freq_ghz, ways, qps, interference, additive_ms);
            prop_assert_eq!(got.p95_ms.to_bits(), want.p95_ms.to_bits());
            prop_assert_eq!(got.in_target_fraction.to_bits(), want.in_target_fraction.to_bits());
            prop_assert_eq!(got.utilization.to_bits(), want.utilization.to_bits());
        }
    }
}
