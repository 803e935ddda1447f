//! Cluster-level operation (paper Fig. 4): "the queries sent by users are
//! first dispatched to each server by the cluster-level scheduler;
//! Sturgeon runs on each node and manages shared resources."
//!
//! This module spells that loop out literally: a cluster of simulated
//! nodes, each training its own predictor and running its own Sturgeon
//! controller against its own co-location environment, and a dispatcher
//! that splits the cluster-wide query stream across them. It is the
//! reference implementation: `tests/fleet_equivalence.rs` pins
//! [`crate::fleet::Fleet`] — the runtime for many nodes — to this loop bit
//! for bit. Run multi-node experiments on `Fleet`.

use crate::controller::{
    ControllerFaultCounters, ControllerParams, ResourceController, SturgeonController,
};
use crate::dispatch::{DispatchPolicy, Dispatcher};
use crate::error::SturgeonError;
use crate::experiment::{ColocationPair, ExperimentSetup};
use rayon::prelude::*;
use sturgeon_simnode::{IntervalSample, SimActuators, TelemetryLog};
use sturgeon_workloads::env::CoLocationEnv;
use sturgeon_workloads::loadgen::LoadProfile;

/// One node of the cluster: environment + actuators + controller.
struct NodeRuntime {
    env: CoLocationEnv,
    actuators: SimActuators,
    controller: SturgeonController,
    config: sturgeon_simnode::PairConfig,
    log: TelemetryLog,
    last_p95_ms: f64,
    /// The node's load share for the interval being stepped, staged here
    /// so the parallel step needs no per-interval work list.
    next_qps: f64,
}

/// Per-node summary after a cluster run.
#[derive(Debug, Clone)]
pub struct NodeResult {
    /// Node index.
    pub node: usize,
    /// QoS guarantee rate of the node's LS shard.
    pub qos_rate: f64,
    /// Mean normalized BE throughput on the node.
    pub mean_be_throughput: f64,
    /// Fraction of intervals over the node's power budget.
    pub overload_fraction: f64,
    /// Mean node power (W).
    pub mean_power_w: f64,
    /// Safe-mode entries observed by this node's controller (in a
    /// sharded fleet every node of a shard reports its shard
    /// controller's count) — the per-node signal the placement layer's
    /// migration trigger and the degradation tests key on.
    pub safe_mode_entries: u64,
}

/// Cluster-wide results.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Per-node summaries.
    pub nodes: Vec<NodeResult>,
    /// Query-weighted cluster QoS guarantee rate.
    pub qos_rate: f64,
    /// Sum of mean normalized BE throughput across nodes ("machines worth
    /// of batch work recovered").
    pub total_be_throughput: f64,
    /// Mean total cluster power (W).
    pub mean_cluster_power_w: f64,
    /// Sum of per-node budgets (W) — the cluster's provisioned power.
    pub cluster_budget_w: f64,
    /// Robustness counters summed across every node's controller (all
    /// zeros when nothing degraded fleet-wide).
    pub fault_counters: ControllerFaultCounters,
}

/// A homogeneous cluster of Sturgeon nodes serving one LS service.
pub struct Cluster {
    nodes: Vec<NodeRuntime>,
    dispatcher: Dispatcher,
    peak_qps_per_node: f64,
    /// Reusable per-node p95 summary buffer fed to the dispatcher each
    /// interval instead of allocated.
    p95_buf: Vec<f64>,
}

impl Cluster {
    /// Builds a cluster of `n` nodes for one co-location pair. Each node
    /// trains its own predictor (offline phase) and gets an independent
    /// interference seed.
    ///
    /// Panics on an invalid policy; use [`Cluster::try_new`] where the
    /// policy comes from user input.
    pub fn new(pair: ColocationPair, n: usize, policy: DispatchPolicy, seed: u64) -> Self {
        Self::try_new(pair, n, policy, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Cluster::new`]: reports an invalid node count or
    /// dispatch policy as [`SturgeonError::Setup`] instead of panicking.
    pub fn try_new(
        pair: ColocationPair,
        n: usize,
        policy: DispatchPolicy,
        seed: u64,
    ) -> Result<Self, SturgeonError> {
        if n == 0 {
            return Err(SturgeonError::setup("cluster needs at least one node"));
        }
        // The cluster is homogeneous: peak load and QoS target are pair
        // properties, identical for every node, so read them once from
        // the first setup instead of overwriting them per iteration.
        let first = ExperimentSetup::new(pair, seed);
        let peak = first.peak_qps();
        let target = first.qos_target_ms();
        let dispatcher = Dispatcher::try_new(policy, n, target)?;
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let setup = if i == 0 {
                first.clone()
            } else {
                ExperimentSetup::new(pair, seed.wrapping_add(i as u64))
            };
            let predictor = setup.train_default_predictor();
            let controller = SturgeonController::new(
                predictor,
                setup.spec().clone(),
                setup.budget_w(),
                setup.qos_target_ms(),
                ControllerParams::default(),
            );
            let env = setup.env().clone();
            let actuators = SimActuators::new(env.spec().clone());
            let config = controller.initial_config(env.spec());
            // A rejected initial configuration is a setup defect, not a
            // panic-worthy invariant: report it through the same error
            // channel as every other constructor failure.
            actuators.apply(config).map_err(|e| {
                SturgeonError::setup(format!("node {i}: initial actuation failed: {e}"))
            })?;
            nodes.push(NodeRuntime {
                env,
                actuators,
                controller,
                config,
                log: TelemetryLog::new(),
                last_p95_ms: 0.0,
                next_qps: 0.0,
            });
        }
        Ok(Self {
            nodes,
            dispatcher,
            peak_qps_per_node: peak,
            p95_buf: vec![0.0; n],
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the cluster has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Aggregate peak capacity (QPS) of the cluster.
    pub fn peak_qps(&self) -> f64 {
        self.peak_qps_per_node * self.nodes.len() as f64
    }

    /// Computes this interval's dispatch weights from the nodes'
    /// last-interval p95 summaries (see [`Dispatcher::fill_weights`]).
    fn fill_weights(&mut self) -> &[f64] {
        for (slot, node) in self.p95_buf.iter_mut().zip(&self.nodes) {
            *slot = node.last_p95_ms;
        }
        self.dispatcher.fill_weights(&self.p95_buf)
    }

    /// One node's monitor → decide → actuate interval at its staged
    /// `next_qps` share.
    fn step_node(node: &mut NodeRuntime) {
        let qps = node.next_qps;
        let obs = node.env.step(&node.actuators.config(), qps);
        node.actuators.push_power(obs.power_w);
        node.last_p95_ms = obs.p95_ms;
        node.log.push(IntervalSample {
            t_s: obs.t_s,
            qps: obs.qps,
            p95_ms: obs.p95_ms,
            in_target_fraction: obs.in_target_fraction,
            power_w: obs.power_w,
            be_throughput_norm: obs.be_throughput_norm,
            config: node.actuators.config(),
        });
        let next = node.controller.decide(&obs, node.config);
        if next != node.config {
            node.actuators.apply(next).expect("valid config");
            node.config = next;
        }
    }

    /// Runs the cluster for `duration_s` intervals under a *cluster-wide*
    /// load profile whose fraction applies to the aggregate peak.
    ///
    /// Nodes step in parallel across the rayon pool: the paper's
    /// deployment model has no cross-node coordination, so each interval
    /// is embarrassingly parallel once the dispatch weights are fixed.
    pub fn run(&mut self, profile: LoadProfile, duration_s: u32) -> ClusterResult {
        for t in 0..duration_s {
            let total_qps = profile.qps_at(t as f64, self.peak_qps());
            self.fill_weights();
            for (node, w) in self.nodes.iter_mut().zip(self.dispatcher.weights()) {
                node.next_qps = total_qps * w;
            }
            self.nodes.par_iter_mut().for_each(Self::step_node);
        }
        self.result()
    }

    fn result(&self) -> ClusterResult {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        let mut total_q = 0.0;
        let mut in_target_q = 0.0;
        let mut total_tput = 0.0;
        let mut total_power = 0.0;
        let mut budget = 0.0;
        let mut fault_counters = ControllerFaultCounters::default();
        for (i, node) in self.nodes.iter().enumerate() {
            let c = node.controller.fault_counters();
            fault_counters.stale_intervals += c.stale_intervals;
            fault_counters.safe_mode_entries += c.safe_mode_entries;
            fault_counters.balancer_retry_rounds += c.balancer_retry_rounds;
            let qos = node.log.qos_guarantee_rate();
            let tput = node.log.mean_be_throughput();
            let node_budget = node.env.budget_w();
            let mean_power = if node.log.is_empty() {
                0.0
            } else {
                node.log.samples().iter().map(|s| s.power_w).sum::<f64>() / node.log.len() as f64
            };
            let q: f64 = node.log.samples().iter().map(|s| s.qps).sum();
            total_q += q;
            in_target_q += q * qos;
            total_tput += tput;
            total_power += mean_power;
            budget += node_budget;
            nodes.push(NodeResult {
                node: i,
                qos_rate: qos,
                mean_be_throughput: tput,
                overload_fraction: node.log.overload_fraction(node_budget),
                mean_power_w: mean_power,
                safe_mode_entries: c.safe_mode_entries,
            });
        }
        ClusterResult {
            nodes,
            qos_rate: if total_q > 0.0 {
                in_target_q / total_q
            } else {
                1.0
            },
            total_be_throughput: total_tput,
            mean_cluster_power_w: total_power,
            cluster_budget_w: budget,
            fault_counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sturgeon_workloads::catalog::{BeAppId, LsServiceId};

    fn pair() -> ColocationPair {
        ColocationPair::new(LsServiceId::Xapian, BeAppId::Swaptions)
    }

    #[test]
    fn even_cluster_holds_qos_and_recovers_batch_work() {
        let mut cluster = Cluster::new(pair(), 3, DispatchPolicy::Even, 42);
        assert_eq!(cluster.len(), 3);
        let r = cluster.run(LoadProfile::Constant { fraction: 0.3 }, 100);
        assert!(r.qos_rate > 0.9, "cluster QoS {}", r.qos_rate);
        assert!(
            r.total_be_throughput > 1.0,
            "3 nodes should recover > 1 machine of batch work, got {}",
            r.total_be_throughput
        );
        assert!(r.mean_cluster_power_w <= r.cluster_budget_w * 1.02);
        assert_eq!(r.nodes.len(), 3);
        // Default (non-hardened) controllers never enter the degradation
        // machinery, so the aggregated counters stay zero.
        assert_eq!(r.fault_counters.stale_intervals, 0);
        assert_eq!(r.fault_counters.safe_mode_entries, 0);
    }

    #[test]
    fn weighted_dispatch_loads_nodes_unevenly() {
        let mut cluster = Cluster::new(pair(), 2, DispatchPolicy::Weighted(vec![3.0, 1.0]), 7);
        let _ = cluster.run(LoadProfile::Constant { fraction: 0.3 }, 40);
        let q0: f64 = cluster.nodes[0].log.samples().iter().map(|s| s.qps).sum();
        let q1: f64 = cluster.nodes[1].log.samples().iter().map(|s| s.qps).sum();
        assert!((q0 / q1 - 3.0).abs() < 0.01, "ratio {}", q0 / q1);
    }

    #[test]
    fn latency_aware_dispatch_shifts_load_away_from_slow_nodes() {
        let mut cluster = Cluster::new(pair(), 2, DispatchPolicy::LatencyAware, 11);
        // Prime node 0 as "slow" and node 1 as "fast".
        cluster.nodes[0].last_p95_ms = 14.0; // near the 15 ms target
        cluster.nodes[1].last_p95_ms = 2.0;
        let w = cluster.fill_weights().to_vec();
        assert!(w[1] > w[0], "fast node must receive more load: {w:?}");
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_aware_cluster_holds_qos_under_fluctuating_load() {
        // Regression guard: an undamped headroom policy oscillates against
        // the per-node controllers and collapses QoS to ~25%; the damped
        // policy must match even dispatch.
        let mut cluster = Cluster::new(pair(), 2, DispatchPolicy::LatencyAware, 5);
        let r = cluster.run(LoadProfile::paper_fluctuating(200.0), 200);
        assert!(
            r.qos_rate > 0.93,
            "latency-aware cluster QoS {}",
            r.qos_rate
        );
        assert!(r.mean_cluster_power_w <= r.cluster_budget_w);
    }

    #[test]
    #[should_panic(expected = "one weight per node")]
    fn weighted_policy_validates_length() {
        let _ = Cluster::new(pair(), 2, DispatchPolicy::Weighted(vec![1.0]), 1);
    }

    #[test]
    fn try_new_reports_setup_errors() {
        let err = Cluster::try_new(pair(), 0, DispatchPolicy::Even, 1)
            .err()
            .unwrap();
        assert!(matches!(err, SturgeonError::Setup(_)), "got {err}");
        let err = Cluster::try_new(pair(), 2, DispatchPolicy::Weighted(vec![-1.0, 2.0]), 1)
            .err()
            .unwrap();
        assert!(err.to_string().contains("non-negative"), "got {err}");
    }

    #[test]
    fn aggregate_peak_scales_with_nodes() {
        let c1 = Cluster::new(pair(), 1, DispatchPolicy::Even, 1);
        let c3 = Cluster::new(pair(), 3, DispatchPolicy::Even, 1);
        assert!((c3.peak_qps() - 3.0 * c1.peak_qps()).abs() < 1e-9);
    }
}
