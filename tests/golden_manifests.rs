//! Golden-manifest coverage: every committed manifest under `scenarios/`
//! must parse, validate, and roundtrip through the canonical writer; and
//! the golden manifests must reproduce the figures committed under
//! `reports/` and the metrics committed under `baselines/golden.json`.
//! This pins the legacy figure bins and the manifest path to the same
//! numbers — neither can drift without this suite noticing.

use serde_json::Value;
use sturgeon::prelude::*;
use sturgeon::scenario::gate::{compare, default_rules};
use sturgeon::scenario::{self, metrics_json};

fn repo_path(rel: &str) -> String {
    format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"))
}

fn load_scenario(rel: &str) -> Scenario {
    Scenario::load(repo_path(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

#[test]
fn every_committed_manifest_parses_validates_and_roundtrips() {
    let dir = repo_path("scenarios");
    let mut seen = 0usize;
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ directory is committed")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    entries.sort();
    for path in entries {
        let name = path.display().to_string();
        let text = std::fs::read_to_string(&path).expect("manifest readable");
        let scenario = Scenario::from_toml_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        scenario
            .validate()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let reparsed = Scenario::from_toml_str(&scenario.to_toml_string())
            .unwrap_or_else(|e| panic!("{name} (canonical form): {e}"));
        assert_eq!(reparsed, scenario, "{name}: canonical writer drifted");
        seen += 1;
    }
    assert!(
        seen >= 13,
        "expected the committed smoke + golden manifests, found {seen}"
    );
}

#[test]
fn smoke_manifests_cover_node_robustness_and_fleet() {
    let node = load_scenario("scenarios/smoke_node.toml");
    assert_eq!(node.kind, ScenarioKind::Node);
    assert!(node.probe.is_some(), "smoke-node carries the search probe");
    let robustness = load_scenario("scenarios/smoke_robustness.toml");
    assert!(robustness.controller.hardened);
    assert!(robustness.faults.actuation_stuck_rate > 0.0);
    let fleet = load_scenario("scenarios/smoke_fleet.toml");
    assert_eq!(fleet.kind, ScenarioKind::Fleet);
    assert_eq!(fleet.fleet.as_ref().map(|f| f.nodes), Some(1000));
}

/// A memcached+raytrace scenario as the removed `sturgeon_sim` /
/// `fleet_sim` flag front-ends built it at their defaults (seed 42, the
/// Sturgeon controller, unhardened, hardened actuation policy).
fn flagship(kind: ScenarioKind, intervals: u32, strategy: SearchStrategy) -> Scenario {
    Scenario {
        name: "cli".into(),
        kind,
        seed: 42,
        intervals,
        pair: ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
        controller: ControllerSpec {
            kind: ControllerKind::Sturgeon,
            strategy,
            hardened: false,
        },
        load: LoadProfile::paper_fluctuating(intervals as f64),
        region_loads: Vec::new(),
        faults: FaultPlan::none(42),
        policy: ActuationPolicy::hardened(),
        fleet: None,
        budget: None,
        placement: None,
        scoring: None,
        probe: None,
    }
}

/// `fleet_sim --nodes N --intervals I --search pruned`: one region under
/// the `diurnal` profile, auto shards, even dispatch.
fn flag_fleet(nodes: usize, intervals: u32) -> Scenario {
    let region_loads = scenario::regional_profiles("diurnal", 0.3, intervals, 1)
        .expect("diurnal is a named profile");
    Scenario {
        load: region_loads[0].clone(),
        region_loads,
        fleet: Some(FleetSpec {
            nodes,
            shards: 0,
            regions: 1,
            dispatch: FleetDispatch::Even,
        }),
        ..flagship(
            ScenarioKind::Fleet,
            intervals,
            SearchStrategy::FrontierPruned,
        )
    }
}

/// Every committed manifest that stands in for a former flag command
/// line (a `BENCH_fleet.json` row or a CI run) describes exactly the
/// scenario that command built, so the committed numbers keep a
/// committed input.
#[test]
fn manifests_equal_the_flag_commands_they_replace() {
    let cases = [
        ("scenarios/smoke_fleet.toml", flag_fleet(1000, 100)),
        ("scenarios/fleet_1k.toml", flag_fleet(1000, 1000)),
        ("scenarios/fleet_10k.toml", flag_fleet(10_000, 1000)),
        ("scenarios/fleet_100k.toml", flag_fleet(100_000, 1000)),
        // sturgeon_sim --duration 180 --faults everything
        (
            "scenarios/node_faults_traced.toml",
            Scenario {
                faults: FaultPlan::everything(42),
                ..flagship(ScenarioKind::Node, 180, SearchStrategy::Heuristic)
            },
        ),
        // sturgeon_sim --duration 120 --search pruned
        (
            "scenarios/node_pruned_traced.toml",
            flagship(ScenarioKind::Node, 120, SearchStrategy::FrontierPruned),
        ),
    ];
    for (path, flags) in cases {
        let manifest = load_scenario(path);
        // The fleet front-end also spelled a one-region fleet's profile
        // out in `region_loads`; a manifest's `[load]` implies it.
        assert_eq!(manifest.fleet_profiles(), flags.fleet_profiles(), "{path}");
        let flags = Scenario {
            name: manifest.name.clone(),
            region_loads: Vec::new(),
            ..flags
        };
        assert_eq!(manifest, flags, "{path}");
    }
}

/// Parse a percentage like `98.58%` out of a whitespace-split report
/// column. Returns the value in percent.
fn pct(token: &str) -> f64 {
    token
        .trim_end_matches('%')
        .parse::<f64>()
        .unwrap_or_else(|e| panic!("bad percentage token {token:?}: {e}"))
}

#[test]
fn golden_fig9_matches_committed_report_and_baseline() {
    let scenario = load_scenario("scenarios/golden_fig9.toml");
    let outcome = scenario.run(None, None).expect("golden fig9 run");

    // 1. The manifest run reproduces the committed fig9 sturgeon column
    //    for memcached+rt (the flagship pair).
    let report = std::fs::read_to_string(repo_path("reports/fig9.txt"))
        .expect("reports/fig9.txt is committed");
    let row = report
        .lines()
        .find(|l| l.trim_start().starts_with("memcached+rt"))
        .expect("fig9 report has a memcached+rt row");
    let sturgeon_pct = pct(row.split_whitespace().nth(1).expect("sturgeon column"));
    assert!(
        (outcome.metrics.qos_rate * 100.0 - sturgeon_pct).abs() < 0.005,
        "manifest QoS {:.4}% drifted from reports/fig9.txt {:.2}%",
        outcome.metrics.qos_rate * 100.0,
        sturgeon_pct
    );

    // 2. The full metrics row gates against the committed golden baseline.
    gate_against_golden(&[outcome.metrics]);
}

#[test]
fn golden_robustness_matches_committed_report_and_baseline() {
    let scenario = load_scenario("scenarios/golden_robustness.toml");
    let outcome = scenario.run(None, None).expect("golden robustness run");
    assert!(outcome.metrics.faults_seen > 0, "fault plan must fire");

    // The hardened actuator-fault row of reports/tab_robustness.txt.
    let report = std::fs::read_to_string(repo_path("reports/tab_robustness.txt"))
        .expect("reports/tab_robustness.txt is committed");
    let row = report
        .lines()
        .find(|l| l.contains("hardened") && l.contains("actuator") && !l.contains("un"))
        .expect("robustness report has a hardened actuator-fault row");
    // First bare-numeric token after the label (the label's "10%" does
    // not parse as f64, so the qos% column is the first hit).
    let qos_col = row
        .split_whitespace()
        .find_map(|tok| tok.parse::<f64>().ok())
        .expect("hardened row carries a QoS percentage");
    assert!(
        (outcome.metrics.qos_rate * 100.0 - qos_col).abs() < 0.005,
        "manifest QoS {:.4}% drifted from reports/tab_robustness.txt {:.2}%",
        outcome.metrics.qos_rate * 100.0,
        qos_col
    );

    gate_against_golden(&[outcome.metrics]);
}

#[test]
fn golden_budget_cut_migration_beats_static_pinning() {
    let scenario = load_scenario("scenarios/golden_budget_cut.toml");
    assert!(scenario.budget.is_some(), "manifest configures [budget]");
    assert!(
        scenario.placement.is_some(),
        "manifest configures [placement]"
    );
    let outcome = scenario.run(None, None).expect("golden budget-cut run");

    // The same run with the placement engine disabled: jobs stay pinned
    // to their initial shard through the crowd and the budget cut.
    let mut pinned = scenario.clone();
    pinned.placement = None;
    let static_outcome = pinned.run(None, None).expect("pinned twin run");

    let m = &outcome.metrics;
    let p = &static_outcome.metrics;
    assert!(
        m.migrations.unwrap_or(0) > 0,
        "the budget cut must trigger migrations"
    );
    assert!(
        m.be_throughput > p.be_throughput,
        "migration must strictly beat static pinning: {} vs {}",
        m.be_throughput,
        p.be_throughput
    );
    assert!(
        m.qos_rate >= p.qos_rate - 0.005,
        "migration must not sacrifice QoS: {} vs {}",
        m.qos_rate,
        p.qos_rate
    );

    // Per-node power caps hold: no node's mean power exceeds the
    // nominal per-node cap the pair was profiled under (the budget tree
    // only ever tightens below nominal, never grants above it).
    let nominal_w = ExperimentSetup::new(scenario.pair, scenario.seed).budget_w();
    let fleet = outcome.fleet.as_ref().expect("fleet outcome");
    for node in &fleet.nodes {
        assert!(
            node.mean_power_w <= nominal_w + 1e-6,
            "node {} mean power {:.2} W above nominal cap {:.2} W",
            node.node,
            node.mean_power_w,
            nominal_w
        );
    }

    gate_against_golden(&[outcome.metrics]);
}

#[test]
fn golden_cold_start_cf_closes_on_full_profile_and_beats_fallback() {
    let scenario = load_scenario("scenarios/golden_cold_start.toml");
    assert!(scenario.scoring.is_some(), "manifest configures [scoring]");
    let outcome = scenario.run(None, None).expect("golden cold-start run");

    // Twin 1: the same fleet with raytrace fully profiled — the ceiling
    // the cold-start path is measured against.
    let mut full = scenario.clone();
    full.scoring.as_mut().expect("scoring table").cold_start = false;
    let full_outcome = full.run(None, None).expect("fully-profiled twin run");

    // Twin 2: the no-model column-statistics fallback — the floor it
    // must clear to justify existing.
    let mut naive = scenario.clone();
    naive.scoring.as_mut().expect("scoring table").fallback = true;
    let naive_outcome = naive.run(None, None).expect("fallback twin run");

    let cf = &outcome.metrics;
    let fp = &full_outcome.metrics;
    let fb = &naive_outcome.metrics;
    assert_eq!(
        cf.cold_start_cells,
        Some(360),
        "raytrace's full config row must be synthesized"
    );
    assert!(
        cf.set_scores.unwrap_or(0) > 0,
        "the learned set scorer must be consulted by placement"
    );
    assert!(
        cf.rmse_heldout.unwrap_or(f64::INFINITY) < 0.1,
        "held-out throughput RMSE blew up: {:?}",
        cf.rmse_heldout
    );
    assert!(
        cf.be_throughput >= 0.90 * fp.be_throughput,
        "cold start must land within 10% of the fully-profiled run: {} vs {}",
        cf.be_throughput,
        fp.be_throughput
    );
    assert!(
        cf.be_throughput > fb.be_throughput,
        "cold start must strictly beat the no-model fallback: {} vs {}",
        cf.be_throughput,
        fb.be_throughput
    );
    assert!(
        cf.qos_rate >= fb.qos_rate - 0.005,
        "beating the fallback must not sacrifice QoS: {} vs {}",
        cf.qos_rate,
        fb.qos_rate
    );
    assert!(
        cf.qos_rate >= fp.qos_rate - 0.005,
        "cold start must hold the fully-profiled QoS: {} vs {}",
        cf.qos_rate,
        fp.qos_rate
    );

    gate_against_golden(&[outcome.metrics]);
}

#[test]
fn golden_rack_cut_interior_budget_events_fire_and_hold_caps() {
    let scenario = load_scenario("scenarios/golden_rack_cut.toml");
    let budget = scenario
        .budget
        .as_ref()
        .expect("manifest configures [budget]");
    assert!(
        budget.events.iter().any(|e| e.level == BudgetLevel::Rack)
            && budget.events.iter().any(|e| e.level == BudgetLevel::Row),
        "manifest schedules both a rack-level and a row-level cut"
    );
    let outcome = scenario.run(None, None).expect("golden rack-cut run");

    let m = &outcome.metrics;
    assert!(
        m.budget_reclaims.unwrap_or(0) > 0,
        "interior cuts must trigger reclamation passes"
    );
    assert!(
        m.migrations.unwrap_or(0) > 0,
        "the squeezed regions must shed BE jobs"
    );

    // The interior cuts only ever tighten below nominal, so no node may
    // average above the per-node cap the pair was profiled under.
    let nominal_w = ExperimentSetup::new(scenario.pair, scenario.seed).budget_w();
    let fleet = outcome.fleet.as_ref().expect("fleet outcome");
    for node in &fleet.nodes {
        assert!(
            node.mean_power_w <= nominal_w + 1e-6,
            "node {} mean power {:.2} W above nominal cap {:.2} W",
            node.node,
            node.mean_power_w,
            nominal_w
        );
    }

    gate_against_golden(&[outcome.metrics]);
}

/// Gate freshly produced metrics rows against `baselines/golden.json`
/// in subset mode (each test produces one of the two committed rows).
fn gate_against_golden(rows: &[ScenarioMetrics]) {
    let baseline_text = std::fs::read_to_string(repo_path("baselines/golden.json"))
        .expect("baselines/golden.json is committed");
    let baseline: Value = serde_json::from_str(&baseline_text).expect("golden baseline parses");
    let current: Value =
        serde_json::from_str(&metrics_json(rows)).expect("fresh metrics serialize");
    let report = compare(&baseline, &current, &default_rules(), true);
    assert!(
        report.passed(),
        "golden baseline regression:\n{}",
        report.table()
    );
}
