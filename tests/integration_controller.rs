//! Integration tests spanning the controller stack: profiling → training →
//! search → balancer → actuation against the simulated node, end to end.

use sturgeon::baselines::{PartiesController, PartiesParams, StaticReservationController};
use sturgeon::controller::ResourceController;
use sturgeon::prelude::*;
use sturgeon::profiler::ProfilerConfig;

/// Reduced-size profiling so integration tests stay fast while covering
/// the full load range.
fn fast_profiler() -> ProfilerConfig {
    ProfilerConfig {
        ls_samples_per_load: 160,
        ls_load_fractions: (1..=16).map(|i| i as f64 / 20.0).collect(),
        be_samples: 1000,
        seed: 77,
    }
}

fn sturgeon_for(setup: &ExperimentSetup, balancer: bool) -> SturgeonController {
    let predictor = setup
        .train_predictor(fast_profiler(), PredictorConfig::default())
        .expect("training succeeds");
    SturgeonController::new(
        predictor,
        setup.spec().clone(),
        setup.budget_w(),
        setup.qos_target_ms(),
        ControllerParams {
            balancer_enabled: balancer,
            ..ControllerParams::default()
        },
    )
}

#[test]
fn sturgeon_guarantees_qos_on_fluctuating_load() {
    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace);
    let setup = ExperimentSetup::new(pair, 5);
    // Full-size profiling: the power-safety claim depends on model quality.
    let predictor = setup.train_default_predictor();
    let controller = SturgeonController::new(
        predictor,
        setup.spec().clone(),
        setup.budget_w(),
        setup.qos_target_ms(),
        ControllerParams::default(),
    );
    let r = setup
        .runner()
        .controller(controller)
        .load(LoadProfile::paper_fluctuating(240.0))
        .intervals(240)
        .go()
        .unwrap();
    assert!(r.qos_rate >= 0.95, "QoS rate {}", r.qos_rate);
    assert!(
        !r.suffers_overload(),
        "overload fraction {}",
        r.overload_fraction
    );
    assert!(
        r.mean_be_throughput > 0.3,
        "throughput {}",
        r.mean_be_throughput
    );
}

#[test]
fn sturgeon_respects_power_budget_on_every_pair_sampled() {
    // A cross-section of LS×BE pairs; the full 18-pair sweep lives in the
    // fig9/fig10 report binaries.
    for (ls, be) in [
        (LsServiceId::Memcached, BeAppId::Blackscholes),
        (LsServiceId::Xapian, BeAppId::Fluidanimate),
        (LsServiceId::ImgDnn, BeAppId::Ferret),
    ] {
        let setup = ExperimentSetup::new(ColocationPair::new(ls, be), 8);
        let r = setup
            .runner()
            .controller(sturgeon_for(&setup, true))
            .load(LoadProfile::paper_fluctuating(200.0))
            .intervals(200)
            .go()
            .unwrap();
        assert!(
            !r.suffers_overload(),
            "{}: overload fraction {}",
            r.pair,
            r.overload_fraction
        );
    }
}

#[test]
fn balancer_ablation_degrades_qos() {
    // §VII-C: disabling the balancer must hurt QoS on an
    // interference-heavy pair while (slightly) raising BE throughput.
    let pair = ColocationPair::new(LsServiceId::ImgDnn, BeAppId::Fluidanimate);
    let setup = ExperimentSetup::new(pair, 11);
    let load = LoadProfile::paper_fluctuating(300.0);
    let with = setup
        .runner()
        .controller(sturgeon_for(&setup, true))
        .load(load.clone())
        .intervals(300)
        .go()
        .unwrap();
    let without = setup
        .runner()
        .controller(sturgeon_for(&setup, false))
        .load(load)
        .intervals(300)
        .go()
        .unwrap();
    assert!(
        with.qos_rate > without.qos_rate,
        "balancer did not help: {} vs {}",
        with.qos_rate,
        without.qos_rate
    );
    assert!(
        without.mean_be_throughput >= with.mean_be_throughput,
        "NoB throughput should not be lower"
    );
}

#[test]
fn sturgeon_beats_parties_on_throughput_with_qos_held() {
    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Ferret);
    let setup = ExperimentSetup::new(pair, 13);
    let load = LoadProfile::paper_fluctuating(300.0);
    let sturgeon = setup
        .runner()
        .controller(sturgeon_for(&setup, true))
        .load(load.clone())
        .intervals(300)
        .go()
        .unwrap();
    let parties = setup
        .runner()
        .controller(PartiesController::new(
            setup.spec().clone(),
            setup.budget_w(),
            setup.qos_target_ms(),
            PartiesParams::default(),
        ))
        .load(load)
        .intervals(300)
        .go()
        .unwrap();
    assert!(sturgeon.qos_rate >= 0.95);
    assert!(parties.qos_rate >= 0.93);
    assert!(
        sturgeon.mean_be_throughput > parties.mean_be_throughput,
        "Sturgeon {} vs PARTIES {}",
        sturgeon.mean_be_throughput,
        parties.mean_be_throughput
    );
}

#[test]
fn controller_tracks_step_load_change() {
    let pair = ColocationPair::new(LsServiceId::Xapian, BeAppId::Swaptions);
    let setup = ExperimentSetup::new(pair, 17);
    let r = setup
        .runner()
        .controller(sturgeon_for(&setup, true))
        .load(LoadProfile::Step {
            before: 0.2,
            after: 0.7,
            at_s: 100.0,
        })
        .intervals(200)
        .go()
        .unwrap();
    // After the step the controller must re-provision: the LS compute
    // capacity (cores × frequency) in the final interval must exceed the
    // pre-step capacity.
    let samples = r.log.samples();
    let before = samples[90].config;
    let after = samples[199].config;
    let weight = |c: sturgeon_simnode::PairConfig| {
        c.ls.cores as f64 * (1.2 + 0.111 * c.ls.freq_level as f64)
    };
    assert!(
        weight(after) > weight(before),
        "no re-provisioning: {before} -> {after}"
    );
    assert!(r.qos_rate > 0.9, "QoS rate {}", r.qos_rate);
}

#[test]
fn static_reservation_is_safe_but_wasteful() {
    let pair = ColocationPair::new(LsServiceId::ImgDnn, BeAppId::Raytrace);
    let setup = ExperimentSetup::new(pair, 19);
    let r = setup
        .runner()
        .controller(StaticReservationController)
        .load(LoadProfile::paper_fluctuating(120.0))
        .intervals(120)
        .go()
        .unwrap();
    assert!(r.qos_rate > 0.99);
    assert!(r.mean_be_throughput < 0.05);
}

#[test]
fn every_decision_is_a_valid_partition() {
    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Facesim);
    let setup = ExperimentSetup::new(pair, 23);
    let mut controller = sturgeon_for(&setup, true);
    let mut env = setup.env().clone();
    let mut config = controller.initial_config(setup.spec());
    for t in 0..250 {
        let frac = 0.2 + 0.6 * ((t as f64 / 60.0).sin().abs());
        let obs = env.step(&config, frac * setup.peak_qps());
        config = controller.decide(&obs, config);
        assert!(
            config.validate(setup.spec()).is_ok(),
            "invalid config at t={t}: {config}"
        );
    }
}

#[test]
fn search_stats_exposed_after_runs() {
    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Swaptions);
    let setup = ExperimentSetup::new(pair, 29);
    let mut controller = sturgeon_for(&setup, true);
    let mut env = setup.env().clone();
    let mut config = controller.initial_config(setup.spec());
    let obs = env.step(&config, 12_000.0);
    config = controller.decide(&obs, config);
    let _ = config;
    let stats = controller.last_search_stats().expect("a search ran");
    assert!(stats.model_calls > 0);
    assert!(
        stats.model_calls < 5_000,
        "search too expensive: {}",
        stats.model_calls
    );
    assert!(controller.search_count() >= 1);
}

#[test]
fn parties_reacts_to_measured_overload() {
    // Drive PARTIES through the harness and confirm its reactive power
    // handling engages on at least one pair known to flirt with the
    // budget.
    let pair = ColocationPair::new(LsServiceId::Memcached, BeAppId::Swaptions);
    let setup = ExperimentSetup::new(pair, 31);
    let r = setup
        .runner()
        .controller(PartiesController::new(
            setup.spec().clone(),
            setup.budget_w(),
            setup.qos_target_ms(),
            PartiesParams::default(),
        ))
        .load(LoadProfile::paper_fluctuating(300.0))
        .intervals(300)
        .go()
        .unwrap();
    // Reactive control may transiently overload but must never run away.
    assert!(
        r.peak_power_w < 1.10 * r.budget_w,
        "PARTIES power ran away: {} vs budget {}",
        r.peak_power_w,
        r.budget_w
    );
    assert!(r.qos_rate > 0.9);
}
