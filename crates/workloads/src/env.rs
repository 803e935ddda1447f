//! The co-location environment: one LS service and one BE application
//! sharing a simulated power-constrained node.
//!
//! [`CoLocationEnv::step`] plays the role of "one second of reality":
//! given the current resource configuration and offered load it returns
//! the observations a real deployment would collect (tail latency, RAPL
//! power, BE progress). Controllers must treat it as a black box — the
//! predictor trains on *profiled samples* of it, never on its equations.

use crate::be::BeAppModel;
use crate::interference::{InterferenceModel, InterferenceParams, SojournLaw};
use crate::ls::{LsLatency, LsServiceModel};
use sturgeon_simnode::power::{PartitionLoad, PowerModel};
use sturgeon_simnode::{NodeSpec, PairConfig};

/// One interval's observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Interval end time (s).
    pub t_s: f64,
    /// Offered LS load (queries/s).
    pub qps: f64,
    /// Measured p95 latency (ms), including interference.
    pub p95_ms: f64,
    /// Fraction of the interval's queries within the QoS target.
    pub in_target_fraction: f64,
    /// LS core utilization (≥ 1 means saturated).
    pub ls_utilization: f64,
    /// Package power (W).
    pub power_w: f64,
    /// BE throughput normalized to its whole-node solo run.
    pub be_throughput_norm: f64,
    /// BE IPC proxy (per-core per-cycle efficiency).
    pub be_ipc: f64,
    /// Interference multiplier that was applied this interval.
    pub interference: f64,
}

/// The parts of one [`CoLocationEnv::step`] that depend only on
/// `(config, qps)` and the workload models — not on the node's private
/// OS-jitter state. A homogeneous shard whose nodes share one
/// configuration and load computes these once per interval and replays
/// them into every node via [`CoLocationEnv::observe`]; the result is
/// bit-identical to calling [`CoLocationEnv::step`] on each node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepInvariants {
    /// Ground-truth package power (W) — interference-free by definition.
    pub power_w: f64,
    /// The LS allocation's pre-interference mean service time (ms),
    /// `S_base · (f_max / f)^γ · cache_inflation(w)`: a node with a jitter
    /// spike scales it by its own multiplier instead of recomputing it.
    pub ls_service_ms: f64,
    /// BE throughput normalized to its whole-node solo run.
    pub be_throughput_norm: f64,
    /// BE IPC proxy.
    pub be_ipc: f64,
    /// Deterministic bandwidth-pressure multiplier (the interference
    /// multiplier of a node with no active jitter spike).
    pub bw_multiplier: f64,
    /// Deterministic additive tail-latency term (ms).
    pub additive_ms: f64,
    /// LS latency of a node with no active jitter spike. A quiet node's
    /// multiplier is `bw_multiplier * 1.0`, which IEEE-754 makes exactly
    /// `bw_multiplier`, so this is bit-identical to its own evaluation.
    pub quiet: LsLatency,
}

/// A co-location of one LS service and one BE app on one node.
#[derive(Debug, Clone)]
pub struct CoLocationEnv {
    spec: NodeSpec,
    power: PowerModel,
    ls: LsServiceModel,
    be: BeAppModel,
    interference: InterferenceModel,
    budget_w: f64,
    t_s: f64,
}

impl CoLocationEnv {
    /// Builds the environment. The power budget follows the paper's §III-B
    /// rule: "the power budget for a server is set to be the power
    /// consumption when the server runs the LS service at the peak load"
    /// (solo, whole node, maximum frequency).
    pub fn new(
        spec: NodeSpec,
        power: PowerModel,
        ls: LsServiceModel,
        be: BeAppModel,
        interference: InterferenceParams,
        seed: u64,
    ) -> Self {
        let budget_w = Self::ls_solo_peak_power(&spec, &power, &ls);
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

    /// Power of the LS service running alone on the whole node at peak
    /// load and maximum frequency — the budget definition.
    fn ls_solo_peak_power(spec: &NodeSpec, power: &PowerModel, ls: &LsServiceModel) -> f64 {
        let f = spec.max_freq_ghz();
        let service_ms = ls.base_service_ms(f, spec.total_llc_ways);
        let rho = ls.utilization_at(spec.total_cores, service_ms, ls.params.peak_qps);
        let load = PartitionLoad {
            cores: spec.total_cores,
            freq_ghz: f,
            activity: ls.params.activity,
            utilization: ls.power_utilization(rho),
        };
        power.node_power_w(&[load])
    }

    /// The node's power budget in watts.
    pub fn budget_w(&self) -> f64 {
        self.budget_w
    }

    /// The node spec.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// The LS service model (read-only: controllers should *not* use its
    /// equations, only its public constants like the QoS target).
    pub fn ls(&self) -> &LsServiceModel {
        &self.ls
    }

    /// The BE application model.
    pub fn be(&self) -> &BeAppModel {
        &self.be
    }

    /// The interference process's sojourn law: a homogeneous shard steps
    /// each node's [`crate::interference::JitterChain`] under it.
    pub fn sojourn_law(&self) -> &SojournLaw {
        self.interference.law()
    }

    /// The ground-truth power model.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// Elapsed simulated time (s).
    pub fn now_s(&self) -> f64 {
        self.t_s
    }

    /// LS partition power (W) at a configuration and load, interference-free.
    pub fn ls_partition_power(&self, cores: u32, freq_ghz: f64, ways: u32, qps: f64) -> f64 {
        let service_ms = self.ls.base_service_ms(freq_ghz, ways);
        self.ls_power_at(cores, freq_ghz, service_ms, qps)
    }

    /// [`ls_partition_power`](Self::ls_partition_power) given the
    /// allocation's pre-interference service time: power reads only the
    /// utilization, which needs no Erlang-C evaluation.
    fn ls_power_at(&self, cores: u32, freq_ghz: f64, service_ms: f64, qps: f64) -> f64 {
        let rho = self.ls.utilization_at(cores, service_ms, qps);
        self.power.partition_power_w(&PartitionLoad {
            cores,
            freq_ghz,
            activity: self.ls.params.activity,
            utilization: self.ls.power_utilization(rho),
        })
    }

    /// BE partition power (W) at a configuration (BE apps pin their cores).
    pub fn be_partition_power(&self, cores: u32, freq_ghz: f64) -> f64 {
        self.power.partition_power_w(&PartitionLoad {
            cores,
            freq_ghz,
            activity: self.be.params.activity,
            utilization: 1.0,
        })
    }

    /// Static/uncore watts (needed to assemble total power from the two
    /// partition models).
    pub fn static_power_w(&self) -> f64 {
        self.power.static_w
    }

    /// Ground-truth total power at a configuration and load (W).
    pub fn total_power(&self, config: &PairConfig, qps: f64) -> f64 {
        let ls_f = config.ls.freq_ghz(&self.spec);
        let service_ms = self.ls.base_service_ms(ls_f, config.ls.llc_ways);
        self.total_power_at(config, service_ms, qps)
    }

    /// [`total_power`](Self::total_power) given the LS allocation's
    /// pre-interference service time.
    fn total_power_at(&self, config: &PairConfig, ls_service_ms: f64, qps: f64) -> f64 {
        let ls_f = config.ls.freq_ghz(&self.spec);
        self.static_power_w()
            + self.ls_power_at(config.ls.cores, ls_f, ls_service_ms, qps)
            + self.be_partition_power(config.be.cores, config.be.freq_ghz(&self.spec))
    }

    /// Simulates one monitoring interval (1 s) under `config` at `qps`.
    pub fn step(&mut self, config: &PairConfig, qps: f64) -> Observation {
        let invariants = self.step_invariants(config, qps);
        self.step_with(config, qps, &invariants)
    }

    /// Evaluates the jitter-free parts of one interval — a pure
    /// function of `(config, qps)` shareable across every node of a
    /// homogeneous shard running the same configuration and load.
    pub fn step_invariants(&self, config: &PairConfig, qps: f64) -> StepInvariants {
        let be_f = config.be.freq_ghz(&self.spec);
        let be_traffic = self
            .be
            .memory_traffic(config.be.cores, be_f, config.be.llc_ways);
        let ls_ways_fraction = config.ls.llc_ways as f64 / self.spec.total_llc_ways as f64;
        let sensitivity = self.ls.params.bw_sensitivity;
        let bw_multiplier =
            self.interference
                .bandwidth_multiplier(be_traffic, ls_ways_fraction, sensitivity);
        let additive_ms = self
            .interference
            .additive_ms(be_traffic, ls_ways_fraction, sensitivity);
        let ls_service_ms = self
            .ls
            .base_service_ms(config.ls.freq_ghz(&self.spec), config.ls.llc_ways);
        StepInvariants {
            power_w: self.total_power_at(config, ls_service_ms, qps),
            ls_service_ms,
            be_throughput_norm: self.be.normalized_throughput(
                config.be.cores,
                be_f,
                config.be.llc_ways,
            ),
            be_ipc: self.be.ipc(config.be.cores, be_f, config.be.llc_ways),
            bw_multiplier,
            additive_ms,
            quiet: self.ls.latency_at(
                config.ls.cores,
                ls_service_ms,
                qps,
                bw_multiplier,
                additive_ms,
            ),
        }
    }

    /// Simulates one interval replaying precomputed
    /// [`StepInvariants`]: advances the clock and this node's private
    /// OS-jitter process, then [`CoLocationEnv::observe`]s the interval.
    /// `step(config, qps)` is exactly
    /// `step_with(config, qps, &step_invariants(config, qps))`.
    pub fn step_with(
        &mut self,
        config: &PairConfig,
        qps: f64,
        invariants: &StepInvariants,
    ) -> Observation {
        debug_assert_eq!(*invariants, self.step_invariants(config, qps));
        self.t_s += 1.0;
        let jitter = self.interference.step_jitter();
        self.observe(self.t_s, config, qps, invariants, jitter)
    }

    /// The observation of an interval ending at `t_s` on a node whose
    /// OS jitter is `jitter`. Only a node whose jitter is not 1.0
    /// evaluates its own latency, from the stored service time scaled by
    /// its multiplier; a quiet one replays `invariants.quiet`. Reads
    /// nothing that differs between nodes, so one model serves every node
    /// of a homogeneous shard, each with its own jitter process.
    pub fn observe(
        &self,
        t_s: f64,
        config: &PairConfig,
        qps: f64,
        invariants: &StepInvariants,
        jitter: f64,
    ) -> Observation {
        debug_assert!(config.validate(&self.spec).is_ok(), "invalid config");
        // Interference from the BE co-runner plus OS jitter.
        let multiplier = invariants.bw_multiplier * jitter;
        let lat = if jitter == 1.0 {
            invariants.quiet
        } else {
            self.ls.latency_at(
                config.ls.cores,
                invariants.ls_service_ms,
                qps,
                multiplier,
                invariants.additive_ms,
            )
        };

        Observation {
            t_s,
            qps,
            p95_ms: lat.p95_ms,
            in_target_fraction: lat.in_target_fraction,
            ls_utilization: lat.utilization,
            power_w: invariants.power_w,
            be_throughput_norm: invariants.be_throughput_norm,
            be_ipc: invariants.be_ipc,
            interference: multiplier,
        }
    }

    /// Interference-free probe of an operating point — what a dedicated
    /// profiling cluster measures when collecting training samples (§V-A).
    pub fn profile(&self, config: &PairConfig, qps: f64) -> Observation {
        let ls_f = config.ls.freq_ghz(&self.spec);
        let be_f = config.be.freq_ghz(&self.spec);
        let service_ms = self.ls.base_service_ms(ls_f, config.ls.llc_ways);
        let lat = self
            .ls
            .latency_at(config.ls.cores, service_ms, qps, 1.0, 0.0);
        Observation {
            t_s: self.t_s,
            qps,
            p95_ms: lat.p95_ms,
            in_target_fraction: lat.in_target_fraction,
            ls_utilization: lat.utilization,
            power_w: self.total_power_at(config, service_ms, qps),
            be_throughput_norm: self.be.normalized_throughput(
                config.be.cores,
                be_f,
                config.be.llc_ways,
            ),
            be_ipc: self.be.ipc(config.be.cores, be_f, config.be.llc_ways),
            interference: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{be_app, ls_service, BeAppId, LsServiceId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sturgeon_simnode::Allocation;

    fn env(ls: LsServiceId, be: BeAppId, seed: u64) -> CoLocationEnv {
        CoLocationEnv::new(
            NodeSpec::xeon_e5_2630_v4(),
            PowerModel::default(),
            ls_service(ls),
            be_app(be),
            InterferenceParams::default(),
            seed,
        )
    }

    fn quiet_env(ls: LsServiceId, be: BeAppId) -> CoLocationEnv {
        CoLocationEnv::new(
            NodeSpec::xeon_e5_2630_v4(),
            PowerModel::default(),
            ls_service(ls),
            be_app(be),
            InterferenceParams::none(),
            0,
        )
    }

    fn cfg(c1: u32, f1: usize, l1: u32, c2: u32, f2: usize, l2: u32) -> PairConfig {
        PairConfig::new(Allocation::new(c1, f1, l1), Allocation::new(c2, f2, l2))
    }

    #[test]
    fn budget_is_positive_and_plausible() {
        for ls in LsServiceId::all() {
            let e = quiet_env(ls, BeAppId::Raytrace);
            let b = e.budget_w();
            assert!((40.0..150.0).contains(&b), "{}: budget {b} W", ls.name());
        }
    }

    #[test]
    fn fig2_overload_band_holds() {
        // Fig. 2: allocate "just enough" to the LS at 20% load, hand the
        // rest to the BE at max frequency → power exceeds the budget by
        // roughly 2–13% for every one of the 18 pairs.
        for (ls_id, be_id) in crate::catalog::all_pairs() {
            let e = quiet_env(ls_id, be_id);
            let ls = e.ls().clone();
            let qps = 0.2 * ls.params.peak_qps;
            // "Just enough": smallest cores at a mid frequency with
            // just-enough ways, mirroring §III-B.
            let ways = 6u32;
            let freq_level = 5usize; // ~1.75 GHz
            let f_ghz = e.spec().freq_ghz(freq_level);
            let min_cores = (1..=19)
                .find(|&c| ls.meets_qos(c, f_ghz, ways, qps))
                .expect("feasible core count");
            let config = cfg(min_cores, freq_level, ways, 20 - min_cores, 9, 20 - ways);
            let power = e.total_power(&config, qps);
            let over = power / e.budget_w() - 1.0;
            assert!(
                (0.015..0.14).contains(&over),
                "{}+{}: overload {:.1}% outside the paper's Fig. 2 band",
                ls_id.name(),
                be_id.name(),
                over * 100.0
            );
        }
    }

    #[test]
    fn step_advances_time_and_observes() {
        let mut e = env(LsServiceId::Memcached, BeAppId::Blackscholes, 3);
        let c = cfg(6, 9, 8, 14, 5, 12);
        let o1 = e.step(&c, 12_000.0);
        let o2 = e.step(&c, 12_000.0);
        assert_eq!(o1.t_s, 1.0);
        assert_eq!(o2.t_s, 2.0);
        assert!(o1.p95_ms > 0.0);
        assert!(o1.power_w > 0.0);
        assert!(o1.be_throughput_norm > 0.0);
    }

    #[test]
    fn profile_is_deterministic_and_quiet() {
        let e = env(LsServiceId::Xapian, BeAppId::Ferret, 5);
        let c = cfg(6, 7, 8, 14, 4, 12);
        let a = e.profile(&c, 1_000.0);
        let b = e.profile(&c, 1_000.0);
        assert_eq!(a, b);
        assert_eq!(a.interference, 1.0);
    }

    #[test]
    fn interference_hurts_latency_on_average() {
        let c = cfg(5, 7, 6, 15, 9, 14);
        let qps = 0.3 * 60_000.0;
        let quiet = quiet_env(LsServiceId::Memcached, BeAppId::Fluidanimate)
            .profile(&c, qps)
            .p95_ms;
        let mut noisy = env(LsServiceId::Memcached, BeAppId::Fluidanimate, 11);
        let avg: f64 = (0..50).map(|_| noisy.step(&c, qps).p95_ms).sum::<f64>() / 50.0;
        assert!(avg > quiet, "noisy {avg} vs quiet {quiet}");
    }

    #[test]
    fn total_power_decomposes() {
        let e = quiet_env(LsServiceId::ImgDnn, BeAppId::Swaptions);
        let c = cfg(4, 6, 5, 16, 8, 15);
        let qps = 600.0;
        let total = e.total_power(&c, qps);
        let sum = e.static_power_w()
            + e.ls_partition_power(4, e.spec().freq_ghz(6), 5, qps)
            + e.be_partition_power(16, e.spec().freq_ghz(8));
        assert!((total - sum).abs() < 1e-9);
    }

    #[test]
    fn be_only_power_grows_with_frequency() {
        let e = quiet_env(LsServiceId::Memcached, BeAppId::Blackscholes);
        assert!(e.be_partition_power(12, 2.2) > e.be_partition_power(12, 1.2));
    }

    /// A uniformly random valid configuration on the 20-core, 20-way node.
    fn random_config(rng: &mut StdRng) -> PairConfig {
        let c1 = rng.gen_range(1..20);
        let l1 = rng.gen_range(1..20);
        cfg(
            c1,
            rng.gen_range(0..10),
            l1,
            rng.gen_range(1..=20 - c1),
            rng.gen_range(0..10),
            rng.gen_range(1..=20 - l1),
        )
    }

    /// One interval the way `step` computed it before the quiet-node
    /// latency was shared: the disturbance from `InterferenceModel::step`
    /// (bandwidth multiplier times jitter), then a latency evaluation.
    fn reference_step(
        e: &CoLocationEnv,
        twin: &mut InterferenceModel,
        t_s: f64,
        config: &PairConfig,
        qps: f64,
    ) -> Observation {
        let spec = e.spec();
        let be_f = config.be.freq_ghz(spec);
        let d = twin.step(
            e.be()
                .memory_traffic(config.be.cores, be_f, config.be.llc_ways),
            config.ls.llc_ways as f64 / spec.total_llc_ways as f64,
            e.ls().params.bw_sensitivity,
        );
        let lat = e.ls().latency_disturbed(
            config.ls.cores,
            config.ls.freq_ghz(spec),
            config.ls.llc_ways,
            qps,
            d.multiplier,
            d.additive_ms,
        );
        Observation {
            t_s,
            qps,
            p95_ms: lat.p95_ms,
            in_target_fraction: lat.in_target_fraction,
            ls_utilization: lat.utilization,
            power_w: reference_total_power(e, config, qps),
            be_throughput_norm: e.be().normalized_throughput(
                config.be.cores,
                be_f,
                config.be.llc_ways,
            ),
            be_ipc: e.be().ipc(config.be.cores, be_f, config.be.llc_ways),
            interference: d.multiplier,
        }
    }

    /// Total power the way `total_power` computed it before the
    /// utilization-only helper: the LS utilization read off a full
    /// latency evaluation.
    fn reference_total_power(e: &CoLocationEnv, config: &PairConfig, qps: f64) -> f64 {
        let ls_f = config.ls.freq_ghz(e.spec());
        let lat = e
            .ls()
            .latency(config.ls.cores, ls_f, config.ls.llc_ways, qps, 1.0);
        let ls_w = e.power_model().partition_power_w(&PartitionLoad {
            cores: config.ls.cores,
            freq_ghz: ls_f,
            activity: e.ls().params.activity,
            utilization: e.ls().power_utilization(lat.utilization),
        });
        e.static_power_w()
            + ls_w
            + e.be_partition_power(config.be.cores, config.be.freq_ghz(e.spec()))
    }

    fn latency_bits(l: &LsLatency) -> [u64; 3] {
        [
            l.p95_ms.to_bits(),
            l.in_target_fraction.to_bits(),
            l.utilization.to_bits(),
        ]
    }

    fn obs_bits(o: &Observation) -> [u64; 9] {
        [
            o.t_s.to_bits(),
            o.qps.to_bits(),
            o.p95_ms.to_bits(),
            o.in_target_fraction.to_bits(),
            o.ls_utilization.to_bits(),
            o.power_w.to_bits(),
            o.be_throughput_norm.to_bits(),
            o.be_ipc.to_bits(),
            o.interference.to_bits(),
        ]
    }

    /// Interference processes worth checking: the default, a quiet one, a
    /// spiky one, and one whose active spikes have jitter exactly 1.0.
    fn interference_variant(i: usize) -> InterferenceParams {
        match i {
            0 => InterferenceParams::default(),
            1 => InterferenceParams::none(),
            2 => InterferenceParams {
                spike_probability: 0.3,
                ..InterferenceParams::default()
            },
            _ => InterferenceParams {
                spike_probability: 0.3,
                spike_magnitude: (1.0, 1.0),
                ..InterferenceParams::default()
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn shared_quiet_latency_is_bit_identical_to_per_node_evaluation(
            seed in 0u64..u64::MAX,
            ls in 0usize..3,
            be in 0usize..6,
            variant in 0usize..4,
        ) {
            let params = interference_variant(variant);
            let mut e = CoLocationEnv::new(
                NodeSpec::xeon_e5_2630_v4(),
                PowerModel::default(),
                ls_service(LsServiceId::all()[ls]),
                be_app(BeAppId::all()[be]),
                params,
                seed,
            );
            let mut twin = InterferenceModel::new(params, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
            let peak = e.ls().params.peak_qps;
            let (mut own_evaluations, mut saturated) = (0, 0);
            for t in 1..=320 {
                let config = random_config(&mut rng);
                // Up to 1.5× peak, so small LS partitions saturate often.
                let qps = rng.gen_range(0.0..1.5) * peak;
                let invariants = e.step_invariants(&config, qps);
                // Power from the stored service time equals both the
                // public path and the full-latency reference.
                let power = reference_total_power(&e, &config, qps).to_bits();
                prop_assert_eq!(invariants.power_w.to_bits(), power);
                prop_assert_eq!(e.total_power(&config, qps).to_bits(), power);
                // Any node's latency, quiet or spiking, scales the stored
                // service time by its own multiplier exactly as a full
                // evaluation at that multiplier does.
                for jitter in [1.0, rng.gen_range(1.1..1.5)] {
                    let seen = e.observe(f64::from(t), &config, qps, &invariants, jitter);
                    let want = e.ls().latency_disturbed(
                        config.ls.cores,
                        config.ls.freq_ghz(e.spec()),
                        config.ls.llc_ways,
                        qps,
                        invariants.bw_multiplier * jitter,
                        invariants.additive_ms,
                    );
                    let seen = LsLatency {
                        p95_ms: seen.p95_ms,
                        in_target_fraction: seen.in_target_fraction,
                        utilization: seen.ls_utilization,
                    };
                    prop_assert_eq!(latency_bits(&seen), latency_bits(&want), "jitter {}", jitter);
                }
                let got = e.step_with(&config, qps, &invariants);
                let want = reference_step(&e, &mut twin, f64::from(t), &config, qps);
                prop_assert_eq!(obs_bits(&got), obs_bits(&want), "interval {}", t);
                own_evaluations += usize::from(got.interference != invariants.bw_multiplier);
                saturated += usize::from(got.ls_utilization >= 1.0);
            }
            prop_assert!(saturated > 0, "no saturated interval");
            if variant == 2 {
                prop_assert!(own_evaluations > 0, "no jitter spike in 320 intervals");
            } else if variant != 0 {
                prop_assert_eq!(own_evaluations, 0);
            }
        }
    }
}
