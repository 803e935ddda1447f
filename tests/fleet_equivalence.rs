//! Pinned-seed equivalence between the fleet-scale control plane and
//! the reference [`Cluster`]: a [`Fleet`] built with one node per shard
//! runs the same dispatch arithmetic and the same controller trajectory
//! as the `Cluster`, and its one shared training yields the predictor
//! every `Cluster` node trains for itself, so every aggregate must match
//! **bit for bit** — not approximately. This suite carries the whole
//! `Fleet` contract: the sharded / shared-artifact fast paths are
//! refactorings of a loop whose semantics are pinned here, at every
//! worker count.

use sturgeon::cluster::{Cluster, ClusterResult};
use sturgeon::dispatch::DispatchPolicy;
use sturgeon::fleet::{Fleet, FleetBudget, FleetParams, FleetResult};
use sturgeon_workloads::catalog::{BeAppId, LsServiceId};
use sturgeon_workloads::loadgen::LoadProfile;

fn pair() -> sturgeon::experiment::ColocationPair {
    sturgeon::experiment::ColocationPair::new(LsServiceId::Xapian, BeAppId::Swaptions)
}

fn assert_bit_identical(cluster: &ClusterResult, fleet: &FleetResult) {
    assert_eq!(cluster.nodes.len(), fleet.nodes.len());
    for (c, f) in cluster.nodes.iter().zip(&fleet.nodes) {
        assert_eq!(c.node, f.node);
        assert_eq!(
            c.qos_rate.to_bits(),
            f.qos_rate.to_bits(),
            "node {} qos: {} vs {}",
            c.node,
            c.qos_rate,
            f.qos_rate
        );
        assert_eq!(
            c.mean_be_throughput.to_bits(),
            f.mean_be_throughput.to_bits(),
            "node {} throughput: {} vs {}",
            c.node,
            c.mean_be_throughput,
            f.mean_be_throughput
        );
        assert_eq!(
            c.overload_fraction.to_bits(),
            f.overload_fraction.to_bits(),
            "node {} overload",
            c.node
        );
        assert_eq!(
            c.mean_power_w.to_bits(),
            f.mean_power_w.to_bits(),
            "node {} power: {} vs {}",
            c.node,
            c.mean_power_w,
            f.mean_power_w
        );
    }
    assert_eq!(
        cluster.qos_rate.to_bits(),
        fleet.qos_rate.to_bits(),
        "fleet qos: {} vs {}",
        cluster.qos_rate,
        fleet.qos_rate
    );
    assert_eq!(
        cluster.total_be_throughput.to_bits(),
        fleet.total_be_throughput.to_bits()
    );
    assert_eq!(
        cluster.mean_cluster_power_w.to_bits(),
        fleet.mean_fleet_power_w.to_bits()
    );
    assert_eq!(
        cluster.cluster_budget_w.to_bits(),
        fleet.fleet_budget_w.to_bits()
    );
    assert_eq!(
        cluster.fault_counters.stale_intervals,
        fleet.fault_counters.stale_intervals
    );
    assert_eq!(
        cluster.fault_counters.safe_mode_entries,
        fleet.fault_counters.safe_mode_entries
    );
    assert_eq!(
        cluster.fault_counters.balancer_retry_rounds,
        fleet.fault_counters.balancer_retry_rounds
    );
}

/// Runs `check` at one, two and three workers. A fleet steps one
/// contiguous shard group per worker and a cluster splits its nodes the
/// same way, so each count partitions the work differently; every pin
/// and every Fleet ≡ Cluster identity must hold at each count.
fn at_each_worker_count(check: impl Fn()) {
    for workers in 1..=3 {
        println!("at worker count {workers}");
        rayon::with_num_threads(workers, &check);
    }
}

fn fleet_params(n: usize, policy: DispatchPolicy) -> FleetParams {
    FleetParams {
        shards: n, // one node per shard: the Cluster control loop exactly
        policy,
        ..FleetParams::default()
    }
}

#[test]
fn per_node_fleet_matches_cluster_even_dispatch() {
    at_each_worker_count(|| {
        const SEED: u64 = 42;
        const NODES: usize = 2;
        let profile = LoadProfile::paper_fluctuating(60.0);
        let mut cluster = Cluster::new(pair(), NODES, DispatchPolicy::Even, SEED);
        let cr = cluster.run(profile.clone(), 50);
        let mut fleet = Fleet::new(
            pair(),
            NODES,
            fleet_params(NODES, DispatchPolicy::Even),
            SEED,
        );
        let fr = fleet.run(profile, 50);
        assert_eq!(fr.trainings, 1, "the fleet trains once");
        assert_bit_identical(&cr, &fr);
    });
}

#[test]
fn per_node_fleet_matches_cluster_latency_aware_dispatch() {
    at_each_worker_count(|| {
        const SEED: u64 = 7;
        const NODES: usize = 3;
        // LatencyAware couples the nodes through the dispatcher's EWMA
        // state, so this also pins the Fleet's shard-summary plumbing
        // (shard mean of one node == the node) bit for bit.
        let profile = LoadProfile::paper_fluctuating(80.0);
        let mut cluster = Cluster::new(pair(), NODES, DispatchPolicy::LatencyAware, SEED);
        let cr = cluster.run(profile.clone(), 60);
        let mut fleet = Fleet::new(
            pair(),
            NODES,
            fleet_params(NODES, DispatchPolicy::LatencyAware),
            SEED,
        );
        let fr = fleet.run(profile, 60);
        assert_bit_identical(&cr, &fr);
    });
}

#[test]
fn shared_training_stays_on_the_same_trajectory() {
    at_each_worker_count(|| {
        // Shared training is bit-identical to per-node training because the
        // profiler runs interference-free with its own seed: the predictor
        // a node trains is independent of the node seed. A shared-predictor
        // fleet must therefore match the Cluster too.
        const SEED: u64 = 11;
        const NODES: usize = 2;
        let profile = LoadProfile::Constant { fraction: 0.5 };
        let mut cluster = Cluster::new(pair(), NODES, DispatchPolicy::Even, SEED);
        let cr = cluster.run(profile.clone(), 40);
        let params = FleetParams {
            shards: NODES,
            ..FleetParams::default()
        };
        let mut fleet = Fleet::new(pair(), NODES, params, SEED);
        let fr = fleet.run(profile, 40);
        assert_eq!(fr.trainings, 1, "shared mode trains once");
        assert_bit_identical(&cr, &fr);
    });
}

#[test]
fn event_free_budget_tree_is_inert() {
    at_each_worker_count(|| {
        // A budget tree with no cap events never binds: every reclamation
        // input stays at nominal, so the per-node budgets the controllers
        // see are untouched and the trajectory is bit-identical to a fleet
        // built without a tree. This is the contract that lets `[budget]`
        // default into manifests without perturbing committed baselines.
        const SEED: u64 = 23;
        const NODES: usize = 2;
        let profile = LoadProfile::paper_fluctuating(60.0);
        let mut cluster = Cluster::new(pair(), NODES, DispatchPolicy::Even, SEED);
        let cr = cluster.run(profile.clone(), 50);
        let params = FleetParams {
            budget: Some(FleetBudget::default()),
            ..fleet_params(NODES, DispatchPolicy::Even)
        };
        let mut fleet = Fleet::new(pair(), NODES, params, SEED);
        let fr = fleet.run(profile, 50);
        assert_eq!(fr.budget_reclaims, 0, "no events, no reclamation");
        assert_bit_identical(&cr, &fr);
    });
}

#[test]
fn per_node_safe_mode_entries_are_surfaced() {
    at_each_worker_count(|| {
        // Fleet node rows must carry their shard controller's safe-mode
        // count, matching both the Cluster rows and the aggregate counter.
        const SEED: u64 = 42;
        const NODES: usize = 2;
        let profile = LoadProfile::paper_fluctuating(60.0);
        let mut cluster = Cluster::new(pair(), NODES, DispatchPolicy::Even, SEED);
        let cr = cluster.run(profile.clone(), 50);
        let mut fleet = Fleet::new(
            pair(),
            NODES,
            fleet_params(NODES, DispatchPolicy::Even),
            SEED,
        );
        let fr = fleet.run(profile, 50);
        for (c, f) in cr.nodes.iter().zip(&fr.nodes) {
            assert_eq!(c.safe_mode_entries, f.safe_mode_entries, "node {}", c.node);
        }
        assert_eq!(
            fr.nodes.iter().map(|n| n.safe_mode_entries).sum::<u64>(),
            fr.fault_counters.safe_mode_entries,
            "one node per shard: per-node counts sum to the aggregate"
        );
    });
}

/// Folds every field of every node row, in node order, into one word.
fn node_rows_fingerprint(fleet: &FleetResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for n in &fleet.nodes {
        for word in [
            n.node as u64,
            n.qos_rate.to_bits(),
            n.mean_be_throughput.to_bits(),
            n.overload_fraction.to_bits(),
            n.mean_power_w.to_bits(),
            n.safe_mode_entries,
        ] {
            h = (h ^ word).wrapping_mul(0x0100_0000_01b3).rotate_left(17);
        }
    }
    h
}

#[test]
fn multi_node_shards_stay_on_the_pinned_trajectory() {
    at_each_worker_count(|| {
        // Every case above runs one node per shard, so none of them sees a
        // shard whose nodes share one environment model and differ only in
        // their OS-jitter processes. This one does: 3 shards × 6 nodes under
        // default jitter, a rack cap cut on the flash-crowd region (budget
        // demand sums each shard's nodes) and BE placement (its view sums
        // each shard's counted throughput). The pins were recorded with the
        // sojourn-sampled jitter chain and a per-node evaluation of every
        // node, before quiet nodes shared one observation. Seed 21 is the
        // first from 19 on whose run moves a job under that chain.
        use sturgeon::budget::{BudgetCap, BudgetEvent, BudgetLevel};
        use sturgeon::obs::MetricsRegistry;
        use sturgeon::placement::PlacementParams;
        const SEED: u64 = 21;
        const NODES: usize = 18;
        let params = FleetParams {
            shards: 3,
            regions: 2,
            budget: Some(FleetBudget {
                rows: 1,
                events: vec![BudgetEvent {
                    at_s: 50.0,
                    level: BudgetLevel::Rack,
                    index: 0,
                    cap: BudgetCap::FractionOfNominal(0.78),
                }],
            }),
            placement: Some(PlacementParams::default()),
            ..FleetParams::default()
        };
        let hot = LoadProfile::FlashCrowd {
            base: Box::new(LoadProfile::Constant { fraction: 0.35 }),
            at_s: 30.0,
            ramp_s: 10.0,
            hold_s: 60.0,
            decay_s: 10.0,
            magnitude: 2.4,
        };
        let cool = LoadProfile::Constant { fraction: 0.35 };
        let mut fleet = Fleet::new(pair(), NODES, params, SEED);
        let r = fleet
            .run_regional(&[hot, cool], 120)
            .expect("two profiles, two regions");
        let registry = MetricsRegistry::new();
        fleet.export_metrics(&r, &registry);
        let jittered = registry.counter("fleet.jitter_node_intervals");
        assert!(jittered > 0, "no node saw OS jitter");
        assert!(r.budget_reclaims > 0, "the cap cut never reached a shard");
        assert_eq!(r.nodes.len(), NODES);
        assert!(r.migrations > 0, "placement never moved a job");
        assert_eq!(
            r.qos_rate.to_bits(),
            0x3fef_b035_ef29_fe59,
            "fleet qos {}",
            r.qos_rate
        );
        assert_eq!(
            r.total_be_throughput.to_bits(),
            0x4023_4c16_fbcc_2af0,
            "fleet BE throughput {}",
            r.total_be_throughput
        );
        assert_eq!(
            r.mean_fleet_power_w.to_bits(),
            0x4091_7e26_f3c6_7310,
            "fleet power {}",
            r.mean_fleet_power_w
        );
        assert_eq!(
            node_rows_fingerprint(&r),
            0x4d31_e3f3_34d1_f682,
            "node rows moved"
        );
    });
}

#[test]
fn segments_end_only_at_coupling_events() {
    at_each_worker_count(|| {
        // Shards step whole segments between coupling events. Two regions, a
        // budget event at 0 s, one at 12.5 s (applied at interval 13) and one
        // past the end, and placement every 7 intervals over 50 intervals:
        // segments end at 7, 13, 14, 21, 28, 35, 42, 49 and 50. The pins were
        // recorded with a per-interval loop, so splitting the run into
        // segments must not move a single bit of any node row.
        use sturgeon::budget::{BudgetCap, BudgetEvent, BudgetLevel};
        use sturgeon::obs::MetricsRegistry;
        use sturgeon::placement::PlacementParams;
        const SEED: u64 = 21;
        const NODES: usize = 12;
        let event = |at_s: f64, level: BudgetLevel, fraction: f64| BudgetEvent {
            at_s,
            level,
            index: 0,
            cap: BudgetCap::FractionOfNominal(fraction),
        };
        let params = FleetParams {
            shards: 4,
            regions: 2,
            budget: Some(FleetBudget {
                rows: 1,
                events: vec![
                    event(0.0, BudgetLevel::Rack, 0.9),
                    event(12.5, BudgetLevel::Datacenter, 0.8),
                    event(80.0, BudgetLevel::Rack, 0.7),
                ],
            }),
            placement: Some(PlacementParams {
                interval_s: 7,
                ..PlacementParams::default()
            }),
            ..FleetParams::default()
        };
        let hot = LoadProfile::FlashCrowd {
            base: Box::new(LoadProfile::Constant { fraction: 0.35 }),
            at_s: 10.0,
            ramp_s: 5.0,
            hold_s: 20.0,
            decay_s: 5.0,
            magnitude: 2.4,
        };
        let cool = LoadProfile::Constant { fraction: 0.35 };
        let mut fleet = Fleet::new(pair(), NODES, params, SEED);
        let r = fleet
            .run_regional(&[hot, cool], 50)
            .expect("two profiles, two regions");
        let registry = MetricsRegistry::new();
        fleet.export_metrics(&r, &registry);
        assert_eq!(registry.counter("run.intervals"), NODES as u64 * 50);
        assert_eq!(r.migrations, 2, "placement moved a different job count");
        assert_eq!(
            r.budget_reclaims, 9,
            "the cap cuts reached the shards differently"
        );
        assert_eq!(
            r.qos_rate.to_bits(),
            0x3fef_7aef_42e9_d286,
            "fleet qos {}",
            r.qos_rate
        );
        assert_eq!(
            r.total_be_throughput.to_bits(),
            0x401a_ff16_e012_5446,
            "fleet BE throughput {}",
            r.total_be_throughput
        );
        assert_eq!(
            r.mean_fleet_power_w.to_bits(),
            0x4086_db5f_9d74_e255,
            "fleet power {}",
            r.mean_fleet_power_w
        );
        assert_eq!(
            node_rows_fingerprint(&r),
            0x8a77_2323_6ede_c5c8,
            "node rows moved"
        );
        assert_eq!(registry.counter("fleet.segments"), 9);

        // A dispatcher that reads last interval's shard latencies couples
        // the shards every interval: one segment per interval.
        let mut fleet = Fleet::new(pair(), 4, fleet_params(2, DispatchPolicy::LatencyAware), 7);
        let r = fleet.run(LoadProfile::paper_fluctuating(80.0), 30);
        let registry = MetricsRegistry::new();
        fleet.export_metrics(&r, &registry);
        assert_eq!(registry.counter("fleet.segments"), 30);

        // Nothing couples an even-dispatch fleet without a budget tree or
        // placement: one segment per run.
        let mut fleet = Fleet::new(pair(), 4, fleet_params(2, DispatchPolicy::Even), 7);
        let r = fleet.run(LoadProfile::paper_fluctuating(80.0), 30);
        let registry = MetricsRegistry::new();
        fleet.export_metrics(&r, &registry);
        assert_eq!(registry.counter("fleet.segments"), 1);
    });
}
