//! Best-effort application models (the six PARSEC benchmarks).
//!
//! Ground-truth throughput combines three separable effects:
//!
//! ```text
//! rate(c, f, w) = amdahl(c) · (f / f_max)^φ · cache_factor(w)
//! ```
//!
//! * `amdahl(c) = 1 / ((1−p) + p/c)` — thread scalability with per-app
//!   parallel fraction `p` (ferret's pipeline scales almost perfectly,
//!   fluidanimate's neighbour synchronization does not);
//! * `(f/f_max)^φ` — frequency sensitivity (compute-bound blackscholes
//!   and swaptions have φ ≈ 1, memory-bound codes stall on DRAM and gain
//!   less from clock speed);
//! * `cache_factor(w)` — LLC miss curve (streaming codes barely notice
//!   cache loss, ferret/facesim working sets do).
//!
//! This heterogeneity is precisely what makes co-location "preference
//! aware" worthwhile: given the same power headroom, one app wants cores
//! and another wants gigahertz (paper Fig. 3).

use serde::Serialize;
use sturgeon_simnode::{Allocation, NodeSpec};

/// Calibration constants for one BE application.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BeAppParams {
    /// Application name (e.g. "blackscholes").
    pub name: &'static str,
    /// Amdahl parallel fraction `p` in `[0, 1)`.
    pub parallel_fraction: f64,
    /// Throughput sensitivity to frequency: rate ∝ f^φ.
    pub freq_exponent: f64,
    /// LLC ways beyond which the app gains nothing.
    pub cache_sat_ways: u32,
    /// Relative throughput lost when squeezed to one way.
    pub cache_penalty: f64,
    /// Power activity factor (BE codes keep their pipelines busy).
    pub activity: f64,
    /// Relative memory traffic generated at full tilt — the coupling
    /// knob for interference on the co-located LS service.
    pub traffic_factor: f64,
    /// PARSEC input-set level (0 = test … 5 = native); scales total work.
    pub input_level: u32,
}

impl BeAppParams {
    /// The app's effective pairwise-contention coefficient σ for the
    /// closed-form co-runner score `k / (1 + σ·(k − 1))`, derived from
    /// the same calibration knob that drives interference on the LS
    /// service ([`traffic_factor`](Self::traffic_factor)). The 0.625
    /// scale is calibrated so raytrace (traffic 0.40) lands exactly on
    /// the fleet's legacy global default σ = 0.25.
    pub fn contention_sigma(&self) -> f64 {
        (0.625 * self.traffic_factor).clamp(0.0, 1.0)
    }
}

/// A BE application instance.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BeAppModel {
    /// Calibration constants.
    pub params: BeAppParams,
    /// Node maximum frequency (GHz) for normalization.
    pub max_freq_ghz: f64,
    /// Node core count for solo-run normalization.
    pub total_cores: u32,
    /// Node way count for solo-run normalization.
    pub total_ways: u32,
}

impl BeAppModel {
    /// Creates a model over a node with the given ceiling resources.
    pub fn new(params: BeAppParams, max_freq_ghz: f64, total_cores: u32, total_ways: u32) -> Self {
        Self {
            params,
            max_freq_ghz,
            total_cores,
            total_ways,
        }
    }

    /// Amdahl speedup at `c` cores (relative to one core).
    pub fn amdahl(&self, cores: u32) -> f64 {
        let p = self.params.parallel_fraction;
        let c = cores.max(1) as f64;
        1.0 / ((1.0 - p) + p / c)
    }

    /// Multiplicative throughput factor from the LLC share, in `(0, 1]`.
    pub fn cache_factor(&self, ways: u32) -> f64 {
        let sat = self.params.cache_sat_ways.max(2);
        if ways >= sat {
            return 1.0;
        }
        let deficit = (sat - ways.max(1)) as f64 / (sat - 1) as f64;
        (1.0 - self.params.cache_penalty * deficit.powf(1.5)).max(0.05)
    }

    /// Absolute throughput rate (work units/s, arbitrary scale).
    pub fn rate(&self, cores: u32, freq_ghz: f64, ways: u32) -> f64 {
        if cores == 0 {
            return 0.0;
        }
        let f = (freq_ghz / self.max_freq_ghz).max(1e-3);
        self.amdahl(cores) * f.powf(self.params.freq_exponent) * self.cache_factor(ways)
    }

    /// Throughput normalized to the solo run on the whole node at max
    /// frequency — the y-axis of the paper's Figs. 3 and 10.
    pub fn normalized_throughput(&self, cores: u32, freq_ghz: f64, ways: u32) -> f64 {
        let solo = self.rate(self.total_cores, self.max_freq_ghz, self.total_ways);
        self.rate(cores, freq_ghz, ways) / solo
    }

    /// Instructions-per-cycle proxy: useful work per core-cycle. This is
    /// the metric the paper's BE performance models are trained on (§V-A).
    pub fn ipc(&self, cores: u32, freq_ghz: f64, ways: u32) -> f64 {
        if cores == 0 {
            return 0.0;
        }
        let cycles = cores as f64 * (freq_ghz / self.max_freq_ghz);
        self.rate(cores, freq_ghz, ways) / cycles
    }

    /// Memory traffic pressure this app exerts on the shared memory
    /// system, in `[0, 1]`-ish units: more cores, higher frequency and a
    /// smaller cache share (more misses) all raise it.
    pub fn memory_traffic(&self, cores: u32, freq_ghz: f64, ways: u32) -> f64 {
        if cores == 0 {
            return 0.0;
        }
        let drive = (cores as f64 / self.total_cores as f64) * (freq_ghz / self.max_freq_ghz);
        // Lost cache hits turn into memory traffic: 1 at full cache,
        // up to 2 when squeezed.
        let miss_amp = 2.0 - self.cache_factor(ways);
        (self.params.traffic_factor * drive * miss_amp).min(1.5)
    }
}

/// The coupling [`contended_throughput`] applies on a co-located node:
/// how strongly a BE application's *co-runners'* memory traffic cuts its
/// own throughput. The paper's single LS+BE pair has no BE co-runner;
/// this is the unmanaged-resource coupling the co-runner *set* scorer
/// learns.
pub const BE_BW_COUPLING: f64 = 0.40;

/// Delivered (contended) throughput of BE partitions sharing `spec`,
/// one entry per `(model, allocation)` in input order: each app's solo
/// normalized rate degraded by the *other* partitions' memory traffic,
///
/// ```text
/// tput_i = solo_i / (1 + coupling · Σ_{j≠i} traffic_j)
/// ```
///
/// Memory bandwidth is unmanaged, so a BE app suffers from its
/// co-runners exactly as the LS service does — this is the signal the
/// co-runner *set* scorer is trained on, with `coupling`
/// [`BE_BW_COUPLING`] (0 gives the solo rates). The per-app solo models
/// (and the lattices flattened from them) deliberately do not know about
/// this term; the gap between modeled and delivered throughput is what a
/// learned set score recovers.
pub fn contended_throughput(
    spec: &NodeSpec,
    coupling: f64,
    apps: &[(&BeAppModel, Allocation)],
) -> Vec<f64> {
    let traffic: Vec<f64> = apps
        .iter()
        .map(|(m, a)| m.memory_traffic(a.cores, a.freq_ghz(spec), a.llc_ways))
        .collect();
    let total: f64 = traffic.iter().sum();
    apps.iter()
        .zip(&traffic)
        .map(|((m, a), &own)| {
            let solo = m.normalized_throughput(a.cores, a.freq_ghz(spec), a.llc_ways);
            let co_traffic = (total - own).max(0.0);
            solo / (1.0 + coupling * co_traffic)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{be_apps, BeAppId};

    fn app(id: BeAppId) -> BeAppModel {
        be_apps()
            .into_iter()
            .find(|m| m.params.name == id.name())
            .unwrap()
    }

    #[test]
    fn amdahl_monotone_with_diminishing_returns() {
        let m = app(BeAppId::Blackscholes);
        let mut prev = 0.0;
        let mut prev_gain = f64::INFINITY;
        for c in 1..=20 {
            let s = m.amdahl(c);
            assert!(s > prev);
            let gain = s - prev;
            assert!(gain <= prev_gain + 1e-9, "marginal core gain must shrink");
            prev_gain = gain;
            prev = s;
        }
    }

    #[test]
    fn solo_normalization_is_one() {
        for m in be_apps() {
            let t = m.normalized_throughput(20, 2.2, 20);
            assert!((t - 1.0).abs() < 1e-12, "{}: {t}", m.params.name);
        }
    }

    #[test]
    fn throughput_monotone_in_each_resource() {
        for m in be_apps() {
            assert!(m.rate(8, 2.0, 10) < m.rate(12, 2.0, 10));
            assert!(m.rate(8, 1.6, 10) < m.rate(8, 2.0, 10));
            assert!(m.rate(8, 2.0, 2) <= m.rate(8, 2.0, 10));
        }
    }

    #[test]
    fn zero_cores_zero_rate() {
        let m = app(BeAppId::Ferret);
        assert_eq!(m.rate(0, 2.2, 10), 0.0);
        assert_eq!(m.ipc(0, 2.2, 10), 0.0);
        assert_eq!(m.memory_traffic(0, 2.2, 10), 0.0);
    }

    #[test]
    fn cache_factor_bounded() {
        for m in be_apps() {
            for w in 1..=20 {
                let cf = m.cache_factor(w);
                assert!((0.05..=1.0).contains(&cf), "{} w={w}: {cf}", m.params.name);
            }
            assert_eq!(m.cache_factor(20), 1.0);
        }
    }

    #[test]
    fn ferret_scales_better_than_fluidanimate() {
        // The paper's core-preferring app vs a sync-bound one.
        let fe = app(BeAppId::Ferret);
        let fd = app(BeAppId::Fluidanimate);
        let fe_gain = fe.amdahl(16) / fe.amdahl(8);
        let fd_gain = fd.amdahl(16) / fd.amdahl(8);
        assert!(fe_gain > fd_gain);
    }

    #[test]
    fn blackscholes_more_frequency_sensitive_than_fluidanimate() {
        let bs = app(BeAppId::Blackscholes);
        let fd = app(BeAppId::Fluidanimate);
        let bs_gain = bs.rate(8, 2.2, 10) / bs.rate(8, 1.4, 10);
        let fd_gain = fd.rate(8, 2.2, 10) / fd.rate(8, 1.4, 10);
        assert!(bs_gain > fd_gain);
    }

    #[test]
    fn ipc_decreases_with_contention_for_cache() {
        let fe = app(BeAppId::Ferret);
        assert!(fe.ipc(8, 2.0, 2) < fe.ipc(8, 2.0, 12));
    }

    #[test]
    fn memory_traffic_rises_when_cache_shrinks() {
        let fd = app(BeAppId::Fluidanimate);
        assert!(fd.memory_traffic(12, 2.2, 2) > fd.memory_traffic(12, 2.2, 14));
    }

    #[test]
    fn contention_sigma_calibrated_to_traffic() {
        // Raytrace's σ must land exactly on the fleet's legacy global
        // default (0.25), and σ must order apps by memory traffic.
        assert_eq!(app(BeAppId::Raytrace).params.contention_sigma(), 0.25);
        let sigma = |id| app(id).params.contention_sigma();
        assert!(sigma(BeAppId::Fluidanimate) > sigma(BeAppId::Raytrace));
        assert!(sigma(BeAppId::Raytrace) > sigma(BeAppId::Swaptions));
        for m in be_apps() {
            assert!((0.0..=1.0).contains(&m.params.contention_sigma()));
        }
    }

    #[test]
    fn be_co_runners_degrade_each_other() {
        let spec = NodeSpec::xeon_e5_2630_v4();
        let (rt, fd) = (app(BeAppId::Raytrace), app(BeAppId::Fluidanimate));
        let alloc = Allocation::new(7, 5, 6);
        let apps = [(&rt, alloc), (&fd, alloc)];
        let quiet = contended_throughput(&spec, 0.0, &apps);
        let contended = contended_throughput(&spec, BE_BW_COUPLING, &apps);
        // Zero coupling reproduces the solo model rates; the default
        // coupling strictly degrades both co-runners.
        for ((q, c), (m, a)) in quiet.iter().zip(&contended).zip(&apps) {
            let solo = m.normalized_throughput(a.cores, a.freq_ghz(&spec), a.llc_ways);
            assert_eq!(q.to_bits(), solo.to_bits());
            assert!(c < q, "contended {c} must be below solo {q}");
        }
        // The model-vs-delivered gap is what the set scorer learns; it
        // must be material at default coupling.
        let ratio = contended[0] / quiet[0];
        assert!((0.5..0.99).contains(&ratio), "contraction ratio {ratio}");
        // A lone partition has no co-runner to suffer from.
        let solo = contended_throughput(&spec, BE_BW_COUPLING, &apps[..1]);
        assert_eq!(solo, quiet[..1]);
    }

    #[test]
    fn memory_traffic_rises_with_cores_and_freq() {
        let fd = app(BeAppId::Fluidanimate);
        assert!(fd.memory_traffic(16, 2.2, 10) > fd.memory_traffic(8, 2.2, 10));
        assert!(fd.memory_traffic(8, 2.2, 10) > fd.memory_traffic(8, 1.4, 10));
    }
}
