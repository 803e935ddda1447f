//! Scenario-manifest contract tests.
//!
//! 1. Serialize → parse is the identity for arbitrary scenarios (the
//!    canonical TOML writer and the parser cannot drift apart).
//! 2. A manifest-driven run is **bit-identical** to the equivalent
//!    hand-built `RunBuilder` / `Fleet` run at a pinned seed — the
//!    property that makes manifest baselines trustworthy stand-ins for
//!    the legacy bins.

use proptest::prelude::*;
use sturgeon::prelude::*;
use sturgeon::scenario::{ControllerKind, SearchProbe};
use sturgeon_workloads::loadgen::FailoverRole;

const KINDS: [ControllerKind; 6] = [
    ControllerKind::Sturgeon,
    ControllerKind::SturgeonNoB,
    ControllerKind::Parties,
    ControllerKind::PartiesOrig,
    ControllerKind::Heracles,
    ControllerKind::Reserved,
];

fn any_load() -> impl Strategy<Value = LoadProfile> {
    let frac = 0.05f64..1.0;
    prop_oneof![
        frac.clone()
            .prop_map(|fraction| LoadProfile::Constant { fraction }),
        (frac.clone(), frac.clone(), 10.0f64..2000.0).prop_map(|(from, to, duration_s)| {
            LoadProfile::Ramp {
                from,
                to,
                duration_s,
            }
        }),
        (frac.clone(), frac.clone(), 10.0f64..2000.0).prop_map(|(low, high, period_s)| {
            LoadProfile::Triangle {
                low,
                high,
                period_s,
            }
        }),
        (frac.clone(), frac.clone(), 10.0f64..2000.0)
            .prop_map(|(low, high, day_s)| { LoadProfile::Diurnal { low, high, day_s } }),
        (frac.clone(), frac.clone(), 1.0f64..500.0).prop_map(|(before, after, at_s)| {
            LoadProfile::Step {
                before,
                after,
                at_s,
            }
        }),
        (prop::collection::vec(0.0f64..1.0, 1..12), 1.0f64..60.0)
            .prop_map(|(samples, dt_s)| LoadProfile::Trace { samples, dt_s }),
        (frac.clone(), 1.0f64..200.0, 1.0f64..3.0).prop_map(|(fraction, at_s, magnitude)| {
            LoadProfile::FlashCrowd {
                base: Box::new(LoadProfile::Constant { fraction }),
                at_s,
                ramp_s: at_s * 0.2,
                hold_s: at_s * 0.4,
                decay_s: at_s * 0.4,
                magnitude,
            }
        }),
        (frac, 1.0f64..200.0, 0.05f64..1.0, any::<bool>()).prop_map(
            |(fraction, at_s, takeover, failing)| LoadProfile::Failover {
                base: Box::new(LoadProfile::Constant { fraction }),
                at_s,
                outage_s: at_s,
                takeover,
                role: if failing {
                    FailoverRole::Failing
                } else {
                    FailoverRole::Survivor
                },
            }
        ),
    ]
}

fn any_faults() -> impl Strategy<Value = FaultPlan> {
    (0usize..6, 0u64..(1 << 53)).prop_map(|(preset, seed)| match preset {
        0 => FaultPlan::none(seed),
        1 => FaultPlan::telemetry_noise(seed, 0.15, 0.25),
        2 => FaultPlan::telemetry_dropout(seed, 0.1),
        3 => FaultPlan::actuation_faults(seed, 0.2),
        4 => FaultPlan::shocks(seed, 0.05),
        _ => FaultPlan::everything(seed),
    })
}

fn any_node_scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            0usize..KINDS.len(),
            any::<bool>(),
            any::<bool>(),
            0u64..(1 << 53),
        ),
        (1u32..1000, 0usize..3, 0usize..6),
        any_load(),
        any_faults(),
        any::<bool>(),
        (
            prop::collection::vec(0.05f64..1.0, 1..4),
            1u32..4,
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (kind, pruned, hardened, seed),
                (intervals, ls, be),
                load,
                faults,
                policy_hardened,
                (fracs, reps, want_probe),
            )| {
                let kind = KINDS[kind];
                let probe = (want_probe && kind.is_sturgeon()).then_some(SearchProbe {
                    load_fractions: fracs,
                    reps,
                });
                Scenario {
                    name: format!("prop-{seed}"),
                    kind: ScenarioKind::Node,
                    seed,
                    intervals,
                    pair: ColocationPair::new(LsServiceId::all()[ls], BeAppId::all()[be]),
                    controller: ControllerSpec {
                        kind,
                        strategy: if pruned {
                            SearchStrategy::FrontierPruned
                        } else {
                            SearchStrategy::Heuristic
                        },
                        hardened,
                    },
                    load,
                    region_loads: Vec::new(),
                    faults,
                    policy: if policy_hardened {
                        ActuationPolicy::hardened()
                    } else {
                        ActuationPolicy::unhardened()
                    },
                    fleet: None,
                    budget: None,
                    placement: None,
                    scoring: None,
                    probe,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Canonical serialize → parse is the identity, and the canonical
    /// rendering is a fixpoint (render(parse(render(s))) == render(s)).
    #[test]
    fn manifest_roundtrip_is_identity(s in any_node_scenario()) {
        let text = s.to_toml_string();
        let parsed = Scenario::from_toml_str(&text)
            .map_err(|e| TestCaseError(format!("{e}\n--- manifest ---\n{text}")))?;
        prop_assert_eq!(&parsed, &s);
        prop_assert_eq!(parsed.to_toml_string(), text);
    }
}

/// The manifest path and the hand-built builder chain must produce the
/// same trajectory sample-for-sample and the same audit log — this is
/// the property the regression baselines rest on.
fn assert_bit_identical(manifest: &RunResult, hand: &RunResult) {
    assert_eq!(manifest.log.samples(), hand.log.samples());
    assert_eq!(manifest.audit.entries(), hand.audit.entries());
    assert_eq!(manifest.faults, hand.faults);
    assert_eq!(manifest.qos_rate, hand.qos_rate);
    assert_eq!(manifest.mean_be_throughput, hand.mean_be_throughput);
    assert_eq!(manifest.peak_power_w, hand.peak_power_w);
}

#[test]
fn node_manifest_matches_hand_built_run_fault_free() {
    let text = r#"
name = "identity"
seed = 7
intervals = 120

[workload]
ls = "memcached"
be = "raytrace"

[controller]
kind = "sturgeon"
search = "heuristic"

[load]
profile = "triangle"
low = 0.2
high = 0.8
period_s = 120
"#;
    let s = Scenario::from_toml_str(text).expect("manifest");
    let manifest_run = s.run(None, None).unwrap().node.expect("node run");

    // The equivalent run, written the way the legacy bins write it.
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
        7,
    );
    let controller = SturgeonController::new(
        setup.train_default_predictor(),
        setup.spec().clone(),
        setup.budget_w(),
        setup.qos_target_ms(),
        ControllerParams {
            balancer_enabled: true,
            ..ControllerParams::default()
        },
    );
    let hand_run = setup
        .runner()
        .controller(controller)
        .load(LoadProfile::paper_fluctuating(120.0))
        .intervals(120)
        .go()
        .expect("hand-built run");
    assert_bit_identical(&manifest_run, &hand_run);
}

#[test]
fn node_manifest_matches_hand_built_run_with_fault_plan() {
    let text = r#"
name = "identity-faults"
seed = 42
intervals = 150

[workload]
ls = "memcached"
be = "raytrace"

[controller]
kind = "sturgeon"
hardened = true

[load]
profile = "triangle"
low = 0.2
high = 0.8
period_s = 60

[faults]
preset = "actuation"
rate = 0.10
seed = 1309
"#;
    let s = Scenario::from_toml_str(text).expect("manifest");
    let manifest_run = s.run(None, None).unwrap().node.expect("node run");

    // The equivalent run, written the way tab_robustness writes it.
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
        42,
    );
    let controller = SturgeonController::new(
        setup.train_default_predictor(),
        setup.spec().clone(),
        setup.budget_w(),
        setup.qos_target_ms(),
        ControllerParams::hardened(),
    );
    let hand_run = setup
        .runner()
        .controller(controller)
        .load(LoadProfile::paper_fluctuating(60.0))
        .intervals(150)
        .faults(FaultPlan::actuation_faults(1309, 0.10))
        .policy(ActuationPolicy::hardened())
        .go()
        .expect("hand-built run");
    assert!(manifest_run.faults.faults_seen > 0, "fault plan must fire");
    assert_bit_identical(&manifest_run, &hand_run);
}

fn assert_fleet_identical(manifest: &FleetResult, hand: &FleetResult) {
    assert_eq!(manifest.qos_rate, hand.qos_rate);
    assert_eq!(manifest.total_be_throughput, hand.total_be_throughput);
    assert_eq!(manifest.mean_fleet_power_w, hand.mean_fleet_power_w);
    assert_eq!(manifest.fleet_budget_w, hand.fleet_budget_w);
    assert_eq!(manifest.trainings, hand.trainings);
    assert_eq!(manifest.table_builds, hand.table_builds);
    assert_eq!(manifest.searches, hand.searches);
    assert_eq!(manifest.nodes.len(), hand.nodes.len());
    for (m, h) in manifest.nodes.iter().zip(&hand.nodes) {
        assert_eq!(m.node, h.node);
        assert_eq!(m.qos_rate, h.qos_rate);
        assert_eq!(m.mean_be_throughput, h.mean_be_throughput);
        assert_eq!(m.overload_fraction, h.overload_fraction);
        assert_eq!(m.mean_power_w, h.mean_power_w);
    }
}

fn fleet_identity_case(dispatch: &str, regions: usize) {
    let text = format!(
        r#"
name = "fleet-identity"
seed = 11
intervals = 40

[workload]
ls = "memcached"
be = "raytrace"

[controller]
kind = "sturgeon"
search = "pruned"

[load]
profile = "diurnal"
low = 0.2
high = 0.8
day_s = 40

[fleet]
nodes = 12
shards = 3
regions = {regions}
dispatch = "{dispatch}"
"#
    );
    let s = Scenario::from_toml_str(&text).expect("manifest");
    let outcome = s.run(None, None).expect("manifest fleet run");
    let manifest_result = outcome.fleet.expect("fleet result");

    // The equivalent fleet, built by hand from the public fleet API.
    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace);
    let params = FleetParams {
        shards: 3,
        regions,
        policy: if dispatch == "latency" {
            DispatchPolicy::LatencyAware
        } else {
            DispatchPolicy::Even
        },
        controller: ControllerParams {
            search: SearchParams {
                strategy: SearchStrategy::FrontierPruned,
                ..SearchParams::default()
            },
            ..ControllerParams::default()
        },
        traced_shard: None,
        budget: None,
        placement: None,
        scoring: None,
    };
    let mut fleet = Fleet::try_new(pair, 12, params, 11).expect("fleet");
    let profiles = vec![
        LoadProfile::Diurnal {
            low: 0.2,
            high: 0.8,
            day_s: 40.0,
        };
        regions
    ];
    let hand_result = fleet
        .run_regional(&profiles, 40)
        .expect("hand-built fleet run");
    assert_fleet_identical(&manifest_result, &hand_result);
}

#[test]
fn fleet_manifest_matches_hand_built_run_even_dispatch() {
    fleet_identity_case("even", 1);
}

#[test]
fn fleet_manifest_matches_hand_built_run_latency_dispatch() {
    fleet_identity_case("latency", 2);
}
