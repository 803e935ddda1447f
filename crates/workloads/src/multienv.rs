//! Multi-application co-location environment: several LS services and
//! several BE applications sharing one power-constrained node.
//!
//! The paper evaluates one LS + one BE per node but notes (§V-B) that
//! "the algorithm can be extended to support multiple LS/BE applications
//! by independently searching the configuration for each application".
//! This module provides the substrate for that extension:
//!
//! * every application gets its own partition (cores, frequency, ways) —
//!   a straightforward generalization of [`sturgeon_simnode::PairConfig`];
//! * each LS service keeps its own queueing model and QoS target;
//! * interference on each LS service aggregates the memory traffic of
//!   *all* BE co-runners (and is shielded by that service's cache share);
//! * node power sums every partition plus the static term, and the budget
//!   generalizes the paper's rule: the power of the node serving all LS
//!   services at their peak loads with the node split evenly among them.

use crate::be::BeAppModel;
use crate::interference::{InterferenceModel, InterferenceParams};
use crate::ls::LsServiceModel;
use serde::Serialize;
use sturgeon_simnode::power::{PartitionLoad, PowerModel};
use sturgeon_simnode::{Allocation, NodeSpec};

/// A partitioning of the node among `ls.len() + be.len()` applications.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MultiConfig {
    /// One allocation per LS service (same order as the env's services).
    pub ls: Vec<Allocation>,
    /// One allocation per BE application.
    pub be: Vec<Allocation>,
}

impl MultiConfig {
    /// Validates per-partition sanity and combined footprint.
    pub fn validate(&self, spec: &NodeSpec) -> Result<(), String> {
        let mut cores = 0u32;
        let mut ways = 0u32;
        for a in self.ls.iter().chain(&self.be) {
            a.validate(spec).map_err(|e| e.to_string())?;
            cores += a.cores;
            ways += a.llc_ways;
        }
        if cores > spec.total_cores {
            return Err(format!(
                "{} cores allocated but node has {}",
                cores, spec.total_cores
            ));
        }
        if ways > spec.total_llc_ways {
            return Err(format!(
                "{} ways allocated but node has {}",
                ways, spec.total_llc_ways
            ));
        }
        Ok(())
    }

    /// Total cores across all partitions.
    pub fn total_cores(&self) -> u32 {
        self.ls.iter().chain(&self.be).map(|a| a.cores).sum()
    }

    /// Total ways across all partitions.
    pub fn total_ways(&self) -> u32 {
        self.ls.iter().chain(&self.be).map(|a| a.llc_ways).sum()
    }
}

/// Per-LS-service observation within one interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsObservation {
    /// Offered load (QPS).
    pub qps: f64,
    /// Measured p95 latency (ms).
    pub p95_ms: f64,
    /// Fraction of the interval's queries within the service's target.
    pub in_target_fraction: f64,
    /// Core utilization.
    pub utilization: f64,
}

/// One interval's observations across all applications.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiObservation {
    /// Interval end time (s).
    pub t_s: f64,
    /// One entry per LS service.
    pub ls: Vec<LsObservation>,
    /// Normalized throughput per BE application.
    pub be_throughput: Vec<f64>,
    /// Package power (W).
    pub power_w: f64,
}

/// The multi-application node environment.
#[derive(Debug, Clone)]
pub struct MultiColocationEnv {
    spec: NodeSpec,
    power: PowerModel,
    ls: Vec<LsServiceModel>,
    be: Vec<BeAppModel>,
    interference: InterferenceModel,
    budget_w: f64,
    t_s: f64,
}

impl MultiColocationEnv {
    /// Builds the environment. Budget rule: the node split evenly among
    /// the LS services, each at peak load and maximum frequency — the
    /// natural generalization of the paper's single-service budget.
    pub fn new(
        spec: NodeSpec,
        power: PowerModel,
        ls: Vec<LsServiceModel>,
        be: Vec<BeAppModel>,
        interference: InterferenceParams,
        seed: u64,
    ) -> Self {
        assert!(!ls.is_empty(), "at least one LS service");
        assert!(!be.is_empty(), "at least one BE application");
        let budget_w = Self::budget(&spec, &power, &ls);
        Self {
            spec,
            power,
            ls,
            be,
            interference: InterferenceModel::new(interference, seed),
            budget_w,
            t_s: 0.0,
        }
    }

    fn budget(spec: &NodeSpec, power: &PowerModel, ls: &[LsServiceModel]) -> f64 {
        let n = ls.len() as u32;
        let share_cores = spec.total_cores / n;
        let share_ways = spec.total_llc_ways / n;
        let f = spec.max_freq_ghz();
        let mut loads = Vec::with_capacity(ls.len());
        for m in ls {
            let service_ms = m.base_service_ms(f, share_ways.max(1));
            let rho = m.utilization_at(share_cores.max(1), service_ms, m.params.peak_qps);
            loads.push(PartitionLoad {
                cores: share_cores.max(1),
                freq_ghz: f,
                activity: m.params.activity,
                utilization: m.power_utilization(rho.min(1.0)),
            });
        }
        power.node_power_w(&loads)
    }

    /// The power budget (W).
    pub fn budget_w(&self) -> f64 {
        self.budget_w
    }

    /// The node spec.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// The LS service models, in partition order.
    pub fn ls_models(&self) -> &[LsServiceModel] {
        &self.ls
    }

    /// The BE application models, in partition order.
    pub fn be_models(&self) -> &[BeAppModel] {
        &self.be
    }

    /// Static/uncore power (W).
    pub fn static_power_w(&self) -> f64 {
        self.power.static_w
    }

    /// Ground-truth LS partition power at a load (interference-free).
    pub fn ls_partition_power(&self, idx: usize, alloc: &Allocation, qps: f64) -> f64 {
        let m = &self.ls[idx];
        let f = alloc.freq_ghz(&self.spec);
        let rho = m.utilization_at(alloc.cores, m.base_service_ms(f, alloc.llc_ways), qps);
        self.power.partition_power_w(&PartitionLoad {
            cores: alloc.cores,
            freq_ghz: f,
            activity: m.params.activity,
            utilization: m.power_utilization(rho),
        })
    }

    /// Ground-truth BE partition power.
    pub fn be_partition_power(&self, idx: usize, alloc: &Allocation) -> f64 {
        self.power.partition_power_w(&PartitionLoad {
            cores: alloc.cores,
            freq_ghz: alloc.freq_ghz(&self.spec),
            activity: self.be[idx].params.activity,
            utilization: 1.0,
        })
    }

    /// Ground-truth total node power for a configuration and LS loads.
    pub fn total_power(&self, config: &MultiConfig, qps: &[f64]) -> f64 {
        let ls_sum: f64 = config
            .ls
            .iter()
            .enumerate()
            .map(|(i, a)| self.ls_partition_power(i, a, qps[i]))
            .sum();
        let be_sum: f64 = config
            .be
            .iter()
            .enumerate()
            .map(|(i, a)| self.be_partition_power(i, a))
            .sum();
        self.static_power_w() + ls_sum + be_sum
    }

    /// Combined memory traffic of all BE partitions.
    fn total_be_traffic(&self, config: &MultiConfig) -> f64 {
        config
            .be
            .iter()
            .enumerate()
            .map(|(i, a)| self.be[i].memory_traffic(a.cores, a.freq_ghz(&self.spec), a.llc_ways))
            .sum()
    }

    /// Delivered (contended) throughput of every BE partition: the solo
    /// model rate degraded by the *other* BE partitions' memory traffic.
    ///
    /// Memory bandwidth is unmanaged, so a BE app suffers from its
    /// co-runners exactly as the LS service does — this is the signal the
    /// co-runner *set* scorer is trained on. The per-app solo models (and
    /// the lattices flattened from them) deliberately do not know about
    /// this term; the gap between modeled and delivered throughput is what
    /// a learned set score recovers.
    pub fn contended_be_throughput(&self, config: &MultiConfig) -> Vec<f64> {
        let coupling = self.interference.params().be_bw_coupling;
        let traffic: Vec<f64> = config
            .be
            .iter()
            .enumerate()
            .map(|(i, a)| self.be[i].memory_traffic(a.cores, a.freq_ghz(&self.spec), a.llc_ways))
            .collect();
        let total: f64 = traffic.iter().sum();
        config
            .be
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let solo =
                    self.be[i].normalized_throughput(a.cores, a.freq_ghz(&self.spec), a.llc_ways);
                let co_traffic = (total - traffic[i]).max(0.0);
                solo / (1.0 + coupling * co_traffic)
            })
            .collect()
    }

    /// Simulates one monitoring interval.
    ///
    /// `qps[i]` is the offered load of LS service `i`.
    pub fn step(&mut self, config: &MultiConfig, qps: &[f64]) -> MultiObservation {
        assert_eq!(qps.len(), self.ls.len(), "one load per LS service");
        debug_assert!(config.validate(&self.spec).is_ok());
        assert_eq!(config.ls.len(), self.ls.len());
        assert_eq!(config.be.len(), self.be.len());
        self.t_s += 1.0;

        let traffic = self.total_be_traffic(config);
        let mut ls_obs = Vec::with_capacity(self.ls.len());
        for (i, model) in self.ls.iter().enumerate() {
            let alloc = &config.ls[i];
            let ways_fraction = alloc.llc_ways as f64 / self.spec.total_llc_ways as f64;
            // One shared jitter draw per interval would correlate the
            // services; per-service draws model independent OS noise.
            let disturbance =
                self.interference
                    .step(traffic, ways_fraction, model.params.bw_sensitivity);
            let lat = model.latency_disturbed(
                alloc.cores,
                alloc.freq_ghz(&self.spec),
                alloc.llc_ways,
                qps[i],
                disturbance.multiplier,
                disturbance.additive_ms,
            );
            ls_obs.push(LsObservation {
                qps: qps[i],
                p95_ms: lat.p95_ms,
                in_target_fraction: lat.in_target_fraction,
                utilization: lat.utilization,
            });
        }

        let be_throughput = self.contended_be_throughput(config);

        MultiObservation {
            t_s: self.t_s,
            ls: ls_obs,
            be_throughput,
            power_w: self.total_power(config, qps),
        }
    }

    /// Interference-free probe (profiling mode).
    pub fn profile_ls(&self, idx: usize, alloc: &Allocation, qps: f64) -> LsObservation {
        let m = &self.ls[idx];
        let lat = m.latency(
            alloc.cores,
            alloc.freq_ghz(&self.spec),
            alloc.llc_ways,
            qps,
            1.0,
        );
        LsObservation {
            qps,
            p95_ms: lat.p95_ms,
            in_target_fraction: lat.in_target_fraction,
            utilization: lat.utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{be_app, ls_service, BeAppId, LsServiceId};

    fn env() -> MultiColocationEnv {
        MultiColocationEnv::new(
            NodeSpec::xeon_e5_2630_v4(),
            PowerModel::default(),
            vec![
                ls_service(LsServiceId::Xapian),
                ls_service(LsServiceId::ImgDnn),
            ],
            vec![be_app(BeAppId::Raytrace), be_app(BeAppId::Swaptions)],
            InterferenceParams::none(),
            0,
        )
    }

    fn cfg() -> MultiConfig {
        MultiConfig {
            ls: vec![Allocation::new(5, 8, 6), Allocation::new(5, 8, 6)],
            be: vec![Allocation::new(6, 5, 4), Allocation::new(4, 5, 4)],
        }
    }

    #[test]
    fn valid_config_accepted_oversubscription_rejected() {
        let e = env();
        assert!(cfg().validate(e.spec()).is_ok());
        let mut bad = cfg();
        bad.be[0].cores = 12; // 5+5+12+4 = 26 > 20
        assert!(bad.validate(e.spec()).is_err());
    }

    #[test]
    fn step_reports_per_app_observations() {
        let mut e = env();
        let obs = e.step(&cfg(), &[700.0, 600.0]);
        assert_eq!(obs.ls.len(), 2);
        assert_eq!(obs.be_throughput.len(), 2);
        assert!(obs.power_w > 0.0);
        assert!(obs.ls.iter().all(|o| o.p95_ms > 0.0));
        assert!(obs.be_throughput.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn budget_is_plausible() {
        let e = env();
        assert!((40.0..150.0).contains(&e.budget_w()), "{}", e.budget_w());
    }

    #[test]
    fn power_decomposes_per_partition() {
        let e = env();
        let c = cfg();
        let qps = [700.0, 600.0];
        let expected = e.static_power_w()
            + e.ls_partition_power(0, &c.ls[0], qps[0])
            + e.ls_partition_power(1, &c.ls[1], qps[1])
            + e.be_partition_power(0, &c.be[0])
            + e.be_partition_power(1, &c.be[1]);
        assert!((e.total_power(&c, &qps) - expected).abs() < 1e-9);
    }

    #[test]
    fn starving_one_service_hurts_only_it() {
        let mut e = env();
        let mut c = cfg();
        // Starve LS #0 (1 core at min frequency), keep LS #1 healthy.
        c.ls[0] = Allocation::new(1, 0, 2);
        c.ls[1] = Allocation::new(9, 8, 10);
        let obs = e.step(&c, &[1_400.0, 600.0]);
        assert!(obs.ls[0].p95_ms > e.ls_models()[0].params.qos_target_ms);
        assert!(obs.ls[1].p95_ms <= e.ls_models()[1].params.qos_target_ms);
    }

    #[test]
    fn more_be_traffic_more_interference_on_ls() {
        // Compare LS latency with tiny vs huge BE partitions, with the
        // deterministic bandwidth term only.
        let mk = |be_cores: u32| {
            let mut e = MultiColocationEnv::new(
                NodeSpec::xeon_e5_2630_v4(),
                PowerModel::default(),
                vec![ls_service(LsServiceId::Xapian)],
                vec![be_app(BeAppId::Fluidanimate)],
                InterferenceParams {
                    spike_probability: 0.0,
                    ..InterferenceParams::default()
                },
                0,
            );
            let c = MultiConfig {
                ls: vec![Allocation::new(6, 8, 6)],
                be: vec![Allocation::new(be_cores, 9, 10)],
            };
            e.step(&c, &[1_000.0]).ls[0].p95_ms
        };
        assert!(mk(13) > mk(2), "more BE cores must mean more interference");
    }

    #[test]
    fn be_co_runners_degrade_each_other() {
        let mk = |interference| {
            let mut e = MultiColocationEnv::new(
                NodeSpec::xeon_e5_2630_v4(),
                PowerModel::default(),
                vec![ls_service(LsServiceId::Xapian)],
                vec![be_app(BeAppId::Raytrace), be_app(BeAppId::Fluidanimate)],
                interference,
                0,
            );
            let c = MultiConfig {
                ls: vec![Allocation::new(6, 8, 6)],
                be: vec![Allocation::new(7, 5, 6), Allocation::new(7, 5, 6)],
            };
            e.step(&c, &[1_000.0]).be_throughput
        };
        let quiet = mk(InterferenceParams::none());
        let contended = mk(InterferenceParams {
            spike_probability: 0.0,
            ..InterferenceParams::default()
        });
        // Zero coupling reproduces the solo model rates; the default
        // coupling strictly degrades both co-runners.
        for (q, c) in quiet.iter().zip(&contended) {
            assert!(c < q, "contended {c} must be below solo {q}");
        }
        // The model-vs-delivered gap is what the set scorer learns; it
        // must be material at default coupling.
        let ratio = contended[0] / quiet[0];
        assert!((0.5..0.99).contains(&ratio), "contraction ratio {ratio}");
    }

    #[test]
    fn profile_is_interference_free() {
        let e = env();
        let a = e.profile_ls(0, &Allocation::new(6, 8, 8), 700.0);
        let b = e.profile_ls(0, &Allocation::new(6, 8, 8), 700.0);
        assert_eq!(a, b);
    }
}
