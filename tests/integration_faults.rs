//! Integration tests for the fault-injection subsystem and the hardened
//! controller stack: determinism, zero-fault fidelity, staleness handling,
//! safe-mode feasibility, and the headline actuator-fault resilience claim.

use sturgeon::controller::{ResourceController, STALENESS_WINDOW};
use sturgeon::prelude::*;
use sturgeon::profiler::ProfilerConfig;
use sturgeon::report::{run_summary_json, telemetry_csv};
use sturgeon_workloads::env::Observation;

/// Reduced-size profiling so integration tests stay fast while covering
/// the full load range (same shape as integration_controller.rs).
fn fast_profiler() -> ProfilerConfig {
    ProfilerConfig {
        ls_samples_per_load: 160,
        ls_load_fractions: (1..=16).map(|i| i as f64 / 20.0).collect(),
        be_samples: 1000,
        seed: 77,
    }
}

fn sturgeon_for(setup: &ExperimentSetup, params: ControllerParams) -> SturgeonController {
    let predictor = setup
        .train_predictor(fast_profiler(), PredictorConfig::default())
        .expect("training succeeds");
    SturgeonController::new(
        predictor,
        setup.spec().clone(),
        setup.budget_w(),
        setup.qos_target_ms(),
        params,
    )
}

/// Four load cycles per run: every rise and fall forces reconfigurations,
/// which is when actuation faults actually bite.
fn cycling_load(duration_s: u32) -> LoadProfile {
    LoadProfile::paper_fluctuating((duration_s as f64 / 4.0).max(60.0))
}

#[test]
fn same_seed_gives_bit_identical_fault_runs() {
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
        42,
    );
    let plan = FaultPlan::everything(1309);
    let load = cycling_load(160);
    let run = |setup: &ExperimentSetup| {
        setup
            .runner()
            .controller(sturgeon_for(setup, ControllerParams::hardened()))
            .load(load.clone())
            .intervals(160)
            .faults(plan)
            .go()
            .unwrap()
    };
    let a = run(&setup);
    let b = run(&setup);
    assert!(a.faults.faults_seen > 0, "plan injected nothing");
    assert_eq!(a.faults, b.faults, "fault sequence must be seed-determined");
    assert_eq!(
        telemetry_csv(&a.log),
        telemetry_csv(&b.log),
        "telemetry must be bit-identical across identical seeds"
    );
    assert_eq!(
        run_summary_json(&a),
        run_summary_json(&b),
        "final report must be bit-identical across identical seeds"
    );
    assert_eq!(a.audit.len(), b.audit.len());
}

#[test]
fn different_fault_seeds_diverge() {
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
        42,
    );
    let load = cycling_load(160);
    let run = |seed: u64| {
        setup
            .runner()
            .controller(sturgeon_for(&setup, ControllerParams::hardened()))
            .load(load.clone())
            .intervals(160)
            .faults(FaultPlan::everything(seed))
            .go()
            .unwrap()
    };
    let a = run(1309);
    let b = run(2718);
    assert_ne!(
        a.faults, b.faults,
        "different seeds should draw different fault sequences"
    );
}

#[test]
fn zero_fault_plan_reproduces_fault_free_trajectory() {
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
        42,
    );
    let load = cycling_load(200);
    let plan = FaultPlan::none(7);
    assert!(plan.is_zero());
    let clean = setup
        .runner()
        .controller(sturgeon_for(&setup, ControllerParams::hardened()))
        .load(load.clone())
        .intervals(200)
        .go()
        .unwrap();
    let faulted = setup
        .runner()
        .controller(sturgeon_for(&setup, ControllerParams::hardened()))
        .load(load)
        .intervals(200)
        .faults(plan)
        .go()
        .unwrap();
    assert_eq!(faulted.faults, FaultReport::default());
    assert_eq!(
        telemetry_csv(&clean.log),
        telemetry_csv(&faulted.log),
        "zero-fault run must be bit-identical to the fault-free harness"
    );
    assert_eq!(clean.qos_rate, faulted.qos_rate);
    assert_eq!(clean.overload_fraction, faulted.overload_fraction);
    assert_eq!(clean.audit.len(), faulted.audit.len());
}

/// A hand-built observation; bit-identical replays stand in for a frozen
/// telemetry collector.
fn obs_at(t_s: f64, qps: f64) -> Observation {
    Observation {
        t_s,
        qps,
        p95_ms: 4.0,
        in_target_fraction: 1.0,
        ls_utilization: 0.5,
        power_w: 80.0,
        be_throughput_norm: 0.5,
        be_ipc: 1.0,
        interference: 0.1,
    }
}

#[test]
fn stale_config_never_held_beyond_staleness_window() {
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
        42,
    );
    let mut c = sturgeon_for(&setup, ControllerParams::hardened());
    let window = STALENESS_WINDOW;
    let mut cfg = c.initial_config(setup.spec());
    cfg = c.decide(&obs_at(1.0, 12_000.0), cfg);
    let held = cfg;
    // Replay the same sample well past the window: within it the config is
    // held verbatim; from the window on, every decision is the safe config
    // — the controller never keeps acting on a configuration derived from
    // stale telemetry.
    for i in 1..=(window + 4) {
        cfg = c.decide(&obs_at(1.0 + i as f64, 12_000.0), cfg);
        if i < window {
            assert_eq!(cfg, held, "interval {i}: config must hold inside window");
        } else {
            assert_eq!(
                cfg,
                c.safe_config(12_000.0),
                "interval {i}: beyond the window only the safe config is allowed"
            );
        }
    }
    assert!(c.in_safe_mode());
    assert_eq!(c.safe_mode_entries(), 1);
    assert_eq!(c.stale_intervals(), u64::from(window) + 4);
}

#[test]
fn dropout_run_records_staleness_and_stays_consistent() {
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
        42,
    );
    let r = setup
        .runner()
        .controller(sturgeon_for(&setup, ControllerParams::hardened()))
        .load(cycling_load(240))
        .intervals(240)
        .faults(FaultPlan::telemetry_dropout(1309, 0.20))
        .go()
        .unwrap();
    assert!(r.faults.telemetry_dropouts > 0, "dropout plan never fired");
    assert!(
        r.faults.stale_intervals >= r.faults.telemetry_dropouts,
        "every replayed sample must be counted stale ({} < {})",
        r.faults.stale_intervals,
        r.faults.telemetry_dropouts
    );
    // The hardened policy re-syncs belief with the node every interval.
    assert_eq!(r.faults.divergence_intervals, 0);
    for s in r.log.samples() {
        assert!(s.config.validate(setup.spec()).is_ok());
    }
}

#[test]
fn safe_mode_config_is_power_feasible_across_pairs_and_loads() {
    for (ls, be, seed) in [
        (LsServiceId::Memcached, BeAppId::Raytrace, 42),
        (LsServiceId::Xapian, BeAppId::Fluidanimate, 8),
        (LsServiceId::ImgDnn, BeAppId::Ferret, 8),
    ] {
        let setup = ExperimentSetup::new(ColocationPair::new(ls, be), seed);
        let c = sturgeon_for(&setup, ControllerParams::hardened());
        let guarded = setup.budget_w() * (1.0 - c.params().search.power_guard);
        for frac in [0.05, 0.2, 0.5, 0.8, 1.0] {
            let qps = frac * setup.peak_qps();
            let cfg = c.safe_config(qps);
            assert!(cfg.validate(setup.spec()).is_ok());
            let p = c.predictor().total_power_w(&cfg, setup.spec(), qps);
            assert!(
                p <= guarded + 1e-9 || cfg.ls.freq_level == 0,
                "{ls:?}+{be:?} at {qps:.0} qps: predicted {p:.1} W > {guarded:.1} W"
            );
        }
    }
}

#[test]
fn hardened_qos_survives_actuator_faults_where_unhardened_degrades() {
    // The PR's acceptance criterion: with a 10% actuator-failure rate the
    // hardened stack stays within 5 QoS points of fault-free, while the
    // fire-and-forget path (no retries, no read-back) measurably degrades
    // — a latched stuck interface is never noticed, let alone cleared.
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
        42,
    );
    let load = cycling_load(240);
    let plan = FaultPlan::actuation_faults(1309, 0.10);

    let baseline = setup
        .runner()
        .controller(sturgeon_for(&setup, ControllerParams::hardened()))
        .load(load.clone())
        .intervals(240)
        .faults(FaultPlan::none(1309))
        .go()
        .unwrap();
    let hardened = setup
        .runner()
        .controller(sturgeon_for(&setup, ControllerParams::hardened()))
        .load(load.clone())
        .intervals(240)
        .faults(plan)
        .go()
        .unwrap();
    let unhardened = setup
        .runner()
        .controller(sturgeon_for(&setup, ControllerParams::default()))
        .load(load)
        .intervals(240)
        .faults(plan)
        .policy(ActuationPolicy::unhardened())
        .go()
        .unwrap();

    assert!(hardened.faults.faults_seen > 0);
    assert!(hardened.faults.retries > 0, "hardened policy never retried");
    let hardened_gap = baseline.qos_rate - hardened.qos_rate;
    let unhardened_gap = baseline.qos_rate - unhardened.qos_rate;
    assert!(
        hardened_gap <= 0.05,
        "hardened QoS {:.4} fell more than 5 points below fault-free {:.4}",
        hardened.qos_rate,
        baseline.qos_rate
    );
    assert!(
        unhardened_gap >= 0.10,
        "unhardened QoS {:.4} should measurably degrade vs fault-free {:.4}",
        unhardened.qos_rate,
        baseline.qos_rate
    );
    // Silent failures leave the unhardened belief desynchronized.
    assert!(unhardened.faults.divergence_intervals > 0);
    assert_eq!(hardened.faults.divergence_intervals, 0);
}

#[test]
fn fault_counters_surface_in_summary_json() {
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Xapian, BeAppId::Swaptions),
        9,
    );
    let r = setup
        .runner()
        .controller(sturgeon_for(&setup, ControllerParams::hardened()))
        .load(cycling_load(160))
        .intervals(160)
        .faults(FaultPlan::everything(55))
        .go()
        .unwrap();
    let json: serde_json::Value =
        serde_json::from_str(&run_summary_json(&r)).expect("summary is valid JSON");
    let seen = json["faults_seen"].as_u64().expect("faults_seen present");
    assert_eq!(seen, r.faults.faults_seen);
    assert!(seen > 0);
    assert!(json["retries"].as_u64().is_some());
    assert!(json["safe_mode_entries"].as_u64().is_some());
}
