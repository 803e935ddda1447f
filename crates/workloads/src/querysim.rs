//! Query-level discrete-event simulation of an LS service.
//!
//! The analytic model in [`crate::ls`] computes p95 latency from Erlang-C
//! formulas — fast and smooth, ideal for profiling sweeps and ground
//! truth. Real systems measure latency from *sampled queries*: noisy,
//! quantized, and correlated across intervals because the queue carries
//! state. This module provides that realism:
//!
//! * open-loop Poisson arrivals at the offered QPS;
//! * per-query service times drawn from a lognormal distribution whose
//!   mean matches the analytic model's `S(f, w)` and whose p95/mean ratio
//!   matches the service's `tail_mult`;
//! * `c` servers with FIFO dispatch to the earliest-available core;
//! * queue state (busy-server horizon) carried across intervals, so a
//!   saturated interval leaves a backlog the next interval must drain —
//!   exactly the dynamics that make tail latency hard.
//!
//! [`MeasuredColocation`] wraps a [`CoLocationEnv`] and replaces the
//! analytic latency observation with a measured one, so any controller
//! can be evaluated against sampled telemetry instead of closed forms
//! (see the `measured_vs_analytic` integration test and the
//! `querysim_validation` example).

use crate::env::{CoLocationEnv, Observation};
use crate::ls::LsServiceModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use sturgeon_simnode::PairConfig;

/// Latency statistics measured from the queries of one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredLatency {
    /// Queries that arrived during the interval.
    pub arrivals: usize,
    /// Measured mean response time (ms) of those queries.
    pub mean_ms: f64,
    /// Measured p50 (ms).
    pub p50_ms: f64,
    /// Measured p95 (ms).
    pub p95_ms: f64,
    /// Measured p99 (ms).
    pub p99_ms: f64,
    /// Fraction of the interval's queries within the QoS target.
    pub in_target_fraction: f64,
}

impl MeasuredLatency {
    fn idle() -> Self {
        Self {
            arrivals: 0,
            mean_ms: 0.0,
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
            in_target_fraction: 1.0,
        }
    }
}

/// Converts a p95/mean ratio into the σ of a lognormal distribution.
///
/// For `X ~ LogNormal(μ, σ)`: `mean = exp(μ + σ²/2)` and
/// `p95 = exp(μ + 1.6449 σ)`, so `p95/mean = exp(1.6449 σ − σ²/2)`.
/// Solved by bisection on σ ∈ (0, 1.64) (the ratio is unimodal there and
/// every practical tail_mult ∈ (1, 3.8) falls on the rising branch).
pub fn lognormal_sigma_for_tail_ratio(ratio: f64) -> f64 {
    const Z95: f64 = 1.6448536269514722;
    if ratio <= 1.0 {
        return 0.0;
    }
    let target = ratio.ln();
    let f = |s: f64| Z95 * s - 0.5 * s * s;
    let (mut lo, mut hi) = (0.0f64, Z95); // f rises on [0, z95]
    let target = target.min(f(Z95) - 1e-9);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Discrete-event M/G/c simulator for one LS service.
#[derive(Debug, Clone)]
pub struct QueryLevelSim {
    ls: LsServiceModel,
    rng: StdRng,
    /// Next-free times of the busiest servers, relative to "now" (s).
    /// Only entries > 0 matter; the backlog carried between intervals.
    busy_until: Vec<f64>,
    /// Cap on simulated arrivals per interval, for memory safety at
    /// extreme loads (sampling above this is statistically pointless).
    max_queries_per_interval: usize,
}

impl QueryLevelSim {
    /// Creates the simulator with a deterministic seed.
    pub fn new(ls: LsServiceModel, seed: u64) -> Self {
        Self {
            ls,
            rng: StdRng::seed_from_u64(seed),
            busy_until: Vec::new(),
            max_queries_per_interval: 120_000,
        }
    }

    /// The service model being simulated.
    pub fn ls(&self) -> &LsServiceModel {
        &self.ls
    }

    /// Outstanding backlog horizon in seconds (0 when idle).
    pub fn backlog_horizon_s(&self) -> f64 {
        self.busy_until.iter().copied().fold(0.0, f64::max)
    }

    /// Simulates `dt_s` seconds of arrivals at `qps` against `cores`
    /// servers whose mean service time is `service_ms` with the service's
    /// lognormal tail. Returns measured statistics for the interval's
    /// arrivals and carries leftover work into the next call.
    pub fn simulate_interval(
        &mut self,
        cores: u32,
        service_ms: f64,
        qps: f64,
        dt_s: f64,
    ) -> MeasuredLatency {
        let cores = cores.max(1) as usize;
        let target_ms = self.ls.params.qos_target_ms;

        // Initialize the per-server horizon, shifted to this interval's
        // time origin.
        let mut servers: BinaryHeap<Reverse<OrderedF64>> = BinaryHeap::with_capacity(cores);
        self.busy_until.resize(cores, 0.0);
        // If the core count shrank, merge the overflow backlog onto the
        // remaining cores (cpuset shrink migrates threads).
        if self.busy_until.len() > cores {
            let overflow: f64 = self.busy_until[cores..].iter().sum();
            self.busy_until.truncate(cores);
            let spread = overflow / cores as f64;
            for b in &mut self.busy_until {
                *b += spread;
            }
        }
        for &b in &self.busy_until {
            servers.push(Reverse(OrderedF64(b.max(0.0))));
        }

        if qps <= 0.0 {
            // Idle interval: just age the backlog.
            for b in &mut self.busy_until {
                *b = (*b - dt_s).max(0.0);
            }
            return MeasuredLatency::idle();
        }

        let sigma = lognormal_sigma_for_tail_ratio(self.ls.params.tail_mult);
        let mean_s = (service_ms / 1000.0).max(1e-9);
        // mean = exp(mu + sigma^2/2)  =>  mu = ln(mean) − sigma²/2
        let mu = mean_s.ln() - 0.5 * sigma * sigma;

        let mut responses_ms: Vec<f64> = Vec::with_capacity((qps * dt_s) as usize + 16);
        let mut t = 0.0f64;
        loop {
            t += sample_exponential(&mut self.rng, qps);
            if t >= dt_s || responses_ms.len() >= self.max_queries_per_interval {
                break;
            }
            let Reverse(OrderedF64(free_at)) = servers.pop().expect("servers non-empty");
            let start = free_at.max(t);
            let service = (mu + sigma * sample_standard_normal(&mut self.rng)).exp();
            let done = start + service;
            servers.push(Reverse(OrderedF64(done)));
            responses_ms.push((done - t) * 1000.0);
        }

        // Persist the horizon for the next interval, re-origined.
        self.busy_until.clear();
        while let Some(Reverse(OrderedF64(done))) = servers.pop() {
            self.busy_until.push((done - dt_s).max(0.0));
        }

        if responses_ms.is_empty() {
            return MeasuredLatency::idle();
        }
        responses_ms.sort_unstable_by(f64::total_cmp);
        let n = responses_ms.len();
        let pct = |q: f64| responses_ms[(((n as f64) * q) as usize).min(n - 1)];
        let in_target = responses_ms.iter().filter(|&&r| r <= target_ms).count() as f64 / n as f64;
        MeasuredLatency {
            arrivals: n,
            mean_ms: responses_ms.iter().sum::<f64>() / n as f64,
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            in_target_fraction: in_target,
        }
    }
}

/// Inverse-CDF exponential sample with rate `lambda` (inter-arrival gap).
#[inline]
fn sample_exponential(rng: &mut StdRng, lambda: f64) -> f64 {
    // 1 − U ∈ (0, 1]: avoids ln(0).
    let u: f64 = rng.gen::<f64>();
    -(1.0 - u).max(f64::MIN_POSITIVE).ln() / lambda
}

/// Standard normal sample via the Box–Muller transform.
#[inline]
fn sample_standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Total-order f64 wrapper for the server heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A co-location whose latency telemetry is *measured* from simulated
/// queries instead of computed analytically. Power, BE throughput and the
/// interference process still come from the wrapped [`CoLocationEnv`];
/// only the latency channel changes.
#[derive(Debug, Clone)]
pub struct MeasuredColocation {
    env: CoLocationEnv,
    sim: QueryLevelSim,
}

impl MeasuredColocation {
    /// Wraps an environment; `seed` drives the query-level randomness.
    pub fn new(env: CoLocationEnv, seed: u64) -> Self {
        let sim = QueryLevelSim::new(env.ls().clone(), seed);
        Self { env, sim }
    }

    /// The wrapped analytic environment.
    pub fn env(&self) -> &CoLocationEnv {
        &self.env
    }

    /// One 1-second interval with measured latency.
    pub fn step(&mut self, config: &PairConfig, qps: f64) -> Observation {
        // Analytic step supplies power, throughput and the disturbance.
        let analytic = self.env.step(config, qps);
        let spec = self.env.spec();
        let ls_f = config.ls.freq_ghz(spec);
        // Reconstruct the disturbed service time the analytic path used
        // and feed it to the event simulator; the additive term shifts
        // measured responses uniformly.
        let service_ms =
            self.env
                .ls()
                .service_time_ms(ls_f, config.ls.llc_ways, analytic.interference);
        let measured = self
            .sim
            .simulate_interval(config.ls.cores, service_ms, qps, 1.0);
        // Additive disturbance (memory-controller queueing) applies to
        // every query; recompute the in-target fraction against the
        // shifted distribution.
        let additive = (analytic.p95_ms
            - self
                .env
                .ls()
                .latency(
                    config.ls.cores,
                    ls_f,
                    config.ls.llc_ways,
                    qps,
                    analytic.interference,
                )
                .p95_ms)
            .max(0.0);
        let target = self.env.ls().params.qos_target_ms;
        let in_target = if measured.arrivals == 0 {
            1.0
        } else {
            // Shift: a query makes the target if its measured response
            // plus the additive term fits.
            measured.in_target_shifted(target, additive)
        };
        Observation {
            p95_ms: measured.p95_ms + additive,
            in_target_fraction: in_target,
            ..analytic
        }
    }
}

impl MeasuredLatency {
    /// Fraction within `target_ms` when every response is shifted by
    /// `additive_ms`. Only the summary stats are kept between intervals,
    /// so this interpolates between the recorded percentiles.
    fn in_target_shifted(&self, target_ms: f64, additive_ms: f64) -> f64 {
        let effective = target_ms - additive_ms;
        if effective <= 0.0 {
            return 0.0;
        }
        // Piecewise estimate from the recorded quantiles.
        if self.p50_ms > effective {
            return (0.5 * effective / self.p50_ms).clamp(0.0, 0.5);
        }
        if self.p95_ms > effective {
            // Linear between p50 (0.5) and p95 (0.95).
            let span = (self.p95_ms - self.p50_ms).max(1e-9);
            return 0.5 + 0.45 * ((effective - self.p50_ms) / span).clamp(0.0, 1.0);
        }
        if self.p99_ms > effective {
            let span = (self.p99_ms - self.p95_ms).max(1e-9);
            return 0.95 + 0.04 * ((effective - self.p95_ms) / span).clamp(0.0, 1.0);
        }
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{be_app, ls_service, BeAppId, LsServiceId};
    use crate::interference::InterferenceParams;
    use sturgeon_simnode::{Allocation, NodeSpec, PowerModel};

    fn memcached_sim(seed: u64) -> QueryLevelSim {
        QueryLevelSim::new(ls_service(LsServiceId::Memcached), seed)
    }

    #[test]
    fn sigma_solver_roundtrips() {
        for ratio in [1.1, 1.3, 1.6, 2.0, 2.5] {
            let sigma = lognormal_sigma_for_tail_ratio(ratio);
            let back = (1.6448536269514722 * sigma - 0.5 * sigma * sigma).exp();
            assert!((back - ratio).abs() < 1e-6, "ratio {ratio}: got {back}");
        }
        assert_eq!(lognormal_sigma_for_tail_ratio(1.0), 0.0);
        assert_eq!(lognormal_sigma_for_tail_ratio(0.5), 0.0);
    }

    #[test]
    fn measured_p95_matches_analytic_at_moderate_load() {
        // At ρ ≈ 0.6 the analytic Erlang-C p95 and the event-simulated
        // p95 must agree within sampling noise.
        let ls = ls_service(LsServiceId::Memcached);
        let mut sim = memcached_sim(42);
        let cores = 8u32;
        let qps = 12_000.0;
        let service_ms = ls.service_time_ms(2.2, 10, 1.0);
        // Warm up, then average several intervals.
        let mut measured = Vec::new();
        for _ in 0..12 {
            let m = sim.simulate_interval(cores, service_ms, qps, 1.0);
            measured.push(m.p95_ms);
        }
        let measured_p95 = measured[2..].iter().sum::<f64>() / (measured.len() - 2) as f64;
        let analytic = ls.latency(cores, 2.2, 10, qps, 1.0).p95_ms;
        let rel = (measured_p95 - analytic).abs() / analytic;
        assert!(
            rel < 0.30,
            "measured {measured_p95:.3} vs analytic {analytic:.3} (rel {rel:.2})"
        );
    }

    #[test]
    fn saturation_grows_backlog_and_latency() {
        let ls = ls_service(LsServiceId::Memcached);
        let mut sim = memcached_sim(7);
        let service_ms = ls.service_time_ms(1.2, 2, 1.0);
        // 2 cores cannot serve 12k QPS at this service time.
        let first = sim.simulate_interval(2, service_ms, 12_000.0, 1.0);
        let second = sim.simulate_interval(2, service_ms, 12_000.0, 1.0);
        assert!(sim.backlog_horizon_s() > 0.5, "no backlog accumulated");
        assert!(second.p95_ms > first.p95_ms, "backlog must compound");
        assert!(second.in_target_fraction < 0.5);
    }

    #[test]
    fn backlog_drains_when_load_drops() {
        let ls = ls_service(LsServiceId::Memcached);
        let mut sim = memcached_sim(9);
        let service_ms = ls.service_time_ms(1.2, 2, 1.0);
        for _ in 0..3 {
            sim.simulate_interval(2, service_ms, 12_000.0, 1.0);
        }
        let backlog = sim.backlog_horizon_s();
        assert!(backlog > 0.0);
        // Give it 16 fast cores and light load: the backlog must drain.
        let fast_ms = ls.service_time_ms(2.2, 20, 1.0);
        for _ in 0..4 {
            sim.simulate_interval(16, fast_ms, 1_000.0, 1.0);
        }
        assert!(sim.backlog_horizon_s() < backlog);
    }

    #[test]
    fn idle_interval_reports_idle() {
        let mut sim = memcached_sim(3);
        let m = sim.simulate_interval(4, 0.3, 0.0, 1.0);
        assert_eq!(m.arrivals, 0);
        assert_eq!(m.in_target_fraction, 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let ls = ls_service(LsServiceId::Memcached);
        let service_ms = ls.service_time_ms(1.8, 8, 1.0);
        let mut a = memcached_sim(11);
        let mut b = memcached_sim(11);
        for _ in 0..5 {
            assert_eq!(
                a.simulate_interval(6, service_ms, 9_000.0, 1.0),
                b.simulate_interval(6, service_ms, 9_000.0, 1.0)
            );
        }
    }

    #[test]
    fn percentiles_are_ordered() {
        let ls = ls_service(LsServiceId::Xapian);
        let mut sim = QueryLevelSim::new(ls.clone(), 13);
        let service_ms = ls.service_time_ms(2.0, 10, 1.0);
        let m = sim.simulate_interval(6, service_ms, 1_000.0, 1.0);
        assert!(m.p50_ms <= m.p95_ms);
        assert!(m.p95_ms <= m.p99_ms);
        assert!(m.mean_ms > 0.0);
    }

    #[test]
    fn shrinking_cores_preserves_backlog_work() {
        let ls = ls_service(LsServiceId::Memcached);
        let mut sim = memcached_sim(17);
        let service_ms = ls.service_time_ms(1.4, 4, 1.0);
        for _ in 0..2 {
            sim.simulate_interval(8, service_ms, 20_000.0, 1.0);
        }
        let before = sim.backlog_horizon_s();
        // Shrink to 3 cores: overflow redistributed, never silently lost.
        sim.simulate_interval(3, service_ms, 100.0, 1.0);
        // With almost no new arrivals and a huge prior backlog, the
        // horizon must still reflect carried work (allow drain of dt).
        assert!(
            sim.backlog_horizon_s() > before - 1.5,
            "backlog lost on shrink: {before} -> {}",
            sim.backlog_horizon_s()
        );
    }

    #[test]
    fn measured_colocation_observation_sane() {
        let env = CoLocationEnv::new(
            NodeSpec::xeon_e5_2630_v4(),
            PowerModel::default(),
            ls_service(LsServiceId::Memcached),
            be_app(BeAppId::Raytrace),
            InterferenceParams::none(),
            0,
        );
        let mut m = MeasuredColocation::new(env, 5);
        let cfg = sturgeon_simnode::PairConfig::new(
            Allocation::new(8, 9, 10),
            Allocation::new(12, 5, 10),
        );
        let obs = m.step(&cfg, 12_000.0);
        assert!(obs.p95_ms > 0.0);
        assert!((0.0..=1.0).contains(&obs.in_target_fraction));
        assert!(obs.power_w > 0.0);
        // Under-loaded: the measured tail should comfortably meet QoS.
        assert!(obs.p95_ms < 10.0, "p95 {}", obs.p95_ms);
    }

    #[test]
    fn in_target_shifted_piecewise() {
        let m = MeasuredLatency {
            arrivals: 100,
            mean_ms: 2.0,
            p50_ms: 2.0,
            p95_ms: 6.0,
            p99_ms: 9.0,
            in_target_fraction: 1.0,
        };
        assert_eq!(m.in_target_shifted(10.0, 0.0), 1.0);
        // Effective target 4ms sits between p50 and p95.
        let f = m.in_target_shifted(10.0, 6.0);
        assert!((0.5..0.95).contains(&f), "{f}");
        // Effective target below p50.
        let f = m.in_target_shifted(10.0, 9.0);
        assert!(f < 0.5);
        // Additive beyond the target: nothing makes it.
        assert_eq!(m.in_target_shifted(10.0, 11.0), 0.0);
    }
}
