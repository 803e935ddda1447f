//! M/M/c queueing mathematics used as the backbone of the LS latency
//! ground truth.
//!
//! An LS service with `c` cores serving Poisson arrivals at rate `λ` with
//! per-query mean service time `S` behaves to first order like an M/M/c
//! queue with `μ = 1/S`. Tail latency is dominated by the Erlang-C waiting
//! probability near saturation — the "hockey stick" every tail-latency
//! paper (including Sturgeon) exploits: plenty of slack until utilization
//! approaches 1, then an explosive cliff.

/// Erlang-B blocking probability, computed with the standard stable
/// iteration `B(0)=1, B(k) = a·B(k−1) / (k + a·B(k−1))`.
pub fn erlang_b(servers: u32, offered_load: f64) -> f64 {
    let a = offered_load.max(0.0);
    let mut b = 1.0;
    for k in 1..=servers {
        b = a * b / (k as f64 + a * b);
    }
    b
}

/// Erlang-C probability that an arriving query must wait,
/// `C(c, a) = c·B / (c − a·(1 − B))`.
///
/// For `a ≥ c` (saturated) the probability is 1.
pub fn erlang_c(servers: u32, offered_load: f64) -> f64 {
    let c = servers as f64;
    let a = offered_load.max(0.0);
    if a >= c {
        return 1.0;
    }
    let b = erlang_b(servers, a);
    let denom = c - a * (1.0 - b);
    if denom <= 0.0 {
        return 1.0;
    }
    (c * b / denom).min(1.0)
}

/// Steady-state metrics of an M/M/c queue.
///
/// ```
/// use sturgeon_workloads::queueing::MmcQueue;
///
/// // 8 cores at 1000 queries/s each, offered 6000 QPS: ρ = 0.75.
/// let q = MmcQueue { servers: 8, arrival_rate: 6000.0, service_rate: 1000.0 };
/// assert!((q.utilization() - 0.75).abs() < 1e-12);
/// assert!(!q.is_saturated());
/// assert!(q.wait_quantile_s(0.99) >= q.wait_quantile_s(0.95));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmcQueue {
    /// Number of servers (cores).
    pub servers: u32,
    /// Arrival rate λ (queries/s).
    pub arrival_rate: f64,
    /// Per-server service rate μ (queries/s).
    pub service_rate: f64,
}

impl MmcQueue {
    /// Offered load `a = λ/μ` in Erlangs.
    pub fn offered_load(&self) -> f64 {
        if self.service_rate <= 0.0 {
            return f64::INFINITY;
        }
        self.arrival_rate / self.service_rate
    }

    /// Server utilization `ρ = λ/(c·μ)`; values ≥ 1 mean saturation.
    pub fn utilization(&self) -> f64 {
        self.offered_load() / self.servers.max(1) as f64
    }

    /// True when arrivals exceed total service capacity.
    pub fn is_saturated(&self) -> bool {
        self.utilization() >= 1.0
    }

    /// Probability an arriving query waits (Erlang-C).
    pub fn wait_probability(&self) -> f64 {
        if self.is_saturated() {
            return 1.0;
        }
        erlang_c(self.servers, self.offered_load())
    }

    /// Mean queueing delay `Wq = C / (c·μ − λ)` in seconds
    /// (excluding service). Infinite when saturated.
    pub fn mean_wait_s(&self) -> f64 {
        if self.is_saturated() {
            return f64::INFINITY;
        }
        let spare = self.servers as f64 * self.service_rate - self.arrival_rate;
        self.wait_probability() / spare
    }

    /// The `q`-quantile of queueing delay in seconds. For M/M/c the wait
    /// distribution is `P(Wq > t) = C·exp(−(cμ−λ)t)`, so the quantile is
    /// `ln(C/(1−q)) / (cμ−λ)` when `C > 1−q`, else 0.
    pub fn wait_quantile_s(&self, q: f64) -> f64 {
        self.wait_quantile_given(self.wait_probability(), q)
    }

    /// [`wait_quantile_s`](Self::wait_quantile_s) given this queue's
    /// [`wait_probability`](Self::wait_probability) `c_prob`, so a caller
    /// that needs several tail figures runs the Erlang-C recurrence once.
    pub fn wait_quantile_given(&self, c_prob: f64, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile must be in [0,1)");
        if self.is_saturated() {
            return f64::INFINITY;
        }
        let tail = 1.0 - q;
        if c_prob <= tail {
            return 0.0;
        }
        let spare = self.servers as f64 * self.service_rate - self.arrival_rate;
        (c_prob / tail).ln() / spare
    }

    /// Fraction of queries whose *queueing delay* stays below `t` seconds:
    /// `1 − C·exp(−(cμ−λ)·t)`. Zero spare capacity gives 0.
    pub fn wait_below_fraction(&self, t: f64) -> f64 {
        self.wait_below_fraction_given(self.wait_probability(), t)
    }

    /// [`wait_below_fraction`](Self::wait_below_fraction) given this
    /// queue's [`wait_probability`](Self::wait_probability) `c_prob`.
    pub fn wait_below_fraction_given(&self, c_prob: f64, t: f64) -> f64 {
        if self.is_saturated() {
            return 0.0;
        }
        let spare = self.servers as f64 * self.service_rate - self.arrival_rate;
        (1.0 - c_prob * (-spare * t).exp()).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_b_known_values() {
        // Classic telephony check: B(5, 3) ≈ 0.1101.
        assert!((erlang_b(5, 3.0) - 0.1101).abs() < 1e-3);
        // B(1, 1) = 0.5 exactly.
        assert!((erlang_b(1, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn erlang_c_known_values() {
        // C(2, 1) = 1/3 for the M/M/2 queue at ρ = 0.5.
        assert!((erlang_c(2, 1.0) - 1.0 / 3.0).abs() < 1e-9);
        // Deep under-load: waiting is near-impossible.
        assert!(erlang_c(20, 1.0) < 1e-12);
    }

    #[test]
    fn erlang_c_saturates_to_one() {
        assert_eq!(erlang_c(4, 4.0), 1.0);
        assert_eq!(erlang_c(4, 10.0), 1.0);
    }

    #[test]
    fn erlang_c_monotone_in_load() {
        let mut prev = 0.0;
        for i in 1..12 {
            let c = erlang_c(12, i as f64);
            assert!(c >= prev, "C must rise with load");
            prev = c;
        }
    }

    fn queue(c: u32, lambda: f64, mu: f64) -> MmcQueue {
        MmcQueue {
            servers: c,
            arrival_rate: lambda,
            service_rate: mu,
        }
    }

    #[test]
    fn utilization_and_saturation() {
        let q = queue(4, 3000.0, 1000.0);
        assert!((q.utilization() - 0.75).abs() < 1e-12);
        assert!(!q.is_saturated());
        let q = queue(4, 4000.0, 1000.0);
        assert!(q.is_saturated());
        assert_eq!(q.mean_wait_s(), f64::INFINITY);
    }

    #[test]
    fn mean_wait_matches_formula() {
        let q = queue(2, 1000.0, 1000.0);
        // C(2,1) = 1/3, spare = 1000 → Wq = 1/3000 s.
        assert!((q.mean_wait_s() - 1.0 / 3000.0).abs() < 1e-9);
    }

    #[test]
    fn wait_quantile_grows_with_q() {
        let q = queue(4, 3600.0, 1000.0);
        let w50 = q.wait_quantile_s(0.5);
        let w95 = q.wait_quantile_s(0.95);
        let w99 = q.wait_quantile_s(0.99);
        assert!(w95 > w50);
        assert!(w99 > w95);
    }

    #[test]
    fn wait_quantile_zero_when_wait_unlikely() {
        let q = queue(20, 100.0, 1000.0);
        assert_eq!(q.wait_quantile_s(0.95), 0.0);
    }

    #[test]
    fn hockey_stick_near_saturation() {
        // p95 wait at ρ = 0.5 should be orders of magnitude below ρ = 0.98.
        let relaxed = queue(8, 4000.0, 1000.0).wait_quantile_s(0.95);
        let stressed = queue(8, 7840.0, 1000.0).wait_quantile_s(0.95);
        assert!(stressed > 50.0 * relaxed.max(1e-9));
    }

    #[test]
    fn wait_below_fraction_bounds() {
        let q = queue(4, 3000.0, 1000.0);
        assert!(q.wait_below_fraction(0.0) <= 1.0);
        assert!(q.wait_below_fraction(10.0) > 0.999);
        let sat = queue(4, 5000.0, 1000.0);
        assert_eq!(sat.wait_below_fraction(1.0), 0.0);
    }
}
