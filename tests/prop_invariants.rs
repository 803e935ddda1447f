//! Property-based tests (proptest) over the system's core invariants:
//! resource-partition validity, queueing-theory monotonicity, power-model
//! physics, balancer safety, and search correctness under arbitrary
//! (valid) inputs.

use proptest::prelude::*;
use std::sync::OnceLock;
use sturgeon::balancer::{BalancerParams, ResourceBalancer};
use sturgeon::prelude::*;
use sturgeon_simnode::power::PartitionLoad;
use sturgeon_workloads::catalog::{be_app, ls_service};
use sturgeon_workloads::env::Observation;
use sturgeon_workloads::queueing::MmcQueue;

fn spec() -> NodeSpec {
    NodeSpec::xeon_e5_2630_v4()
}

/// Strategy for a valid pair configuration on the paper's node.
fn valid_config() -> impl Strategy<Value = PairConfig> {
    (1u32..19, 0usize..10, 1u32..19, 0usize..10).prop_map(|(c1, f1, l1, f2)| {
        PairConfig::new(
            Allocation::new(c1, f1, l1),
            Allocation::new(20 - c1, f2, 20 - l1),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn valid_configs_always_validate(cfg in valid_config()) {
        prop_assert!(cfg.validate(&spec()).is_ok());
        prop_assert_eq!(cfg.ls.cores + cfg.be.cores, 20);
        prop_assert_eq!(cfg.ls.llc_ways + cfg.be.llc_ways, 20);
    }

    #[test]
    fn complement_be_partitions_exactly(
        c1 in 1u32..19,
        f1 in 0usize..10,
        l1 in 1u32..19,
        f2 in 0usize..10,
    ) {
        let s = spec();
        let cfg = PairConfig::complement_be(&s, Allocation::new(c1, f1, l1), f2)
            .expect("partial LS allocation leaves room");
        prop_assert_eq!(cfg.be.cores, 20 - c1);
        prop_assert_eq!(cfg.be.llc_ways, 20 - l1);
        prop_assert!(cfg.validate(&s).is_ok());
    }

    #[test]
    fn mmc_quantiles_are_ordered_and_finite_below_saturation(
        servers in 1u32..20,
        lambda in 1.0f64..50_000.0,
        mu in 100.0f64..10_000.0,
    ) {
        let q = MmcQueue { servers, arrival_rate: lambda, service_rate: mu };
        if !q.is_saturated() {
            let w50 = q.wait_quantile_s(0.50);
            let w95 = q.wait_quantile_s(0.95);
            let w99 = q.wait_quantile_s(0.99);
            prop_assert!(w50.is_finite() && w95.is_finite() && w99.is_finite());
            prop_assert!(w50 <= w95 + 1e-12);
            prop_assert!(w95 <= w99 + 1e-12);
            prop_assert!((0.0..=1.0).contains(&q.wait_probability()));
        }
    }

    #[test]
    fn ls_latency_monotone_in_load(
        cores in 1u32..20,
        level in 0usize..10,
        ways in 1u32..20,
        base in 1_000.0f64..20_000.0,
        bump in 100.0f64..5_000.0,
    ) {
        let ls = ls_service(LsServiceId::Memcached);
        let s = spec();
        let f = s.freq_ghz(level);
        let lo = ls.latency(cores, f, ways, base, 1.0);
        let hi = ls.latency(cores, f, ways, base + bump, 1.0);
        prop_assert!(hi.p95_ms >= lo.p95_ms - 1e-9,
            "latency fell with load: {} -> {}", lo.p95_ms, hi.p95_ms);
        prop_assert!(hi.in_target_fraction <= lo.in_target_fraction + 1e-9);
    }

    #[test]
    fn be_throughput_monotone_in_resources(
        cores in 1u32..19,
        level in 0usize..9,
        ways in 1u32..19,
    ) {
        let be = be_app(BeAppId::Facesim);
        let s = spec();
        let t = be.normalized_throughput(cores, s.freq_ghz(level), ways);
        prop_assert!(t <= be.normalized_throughput(cores + 1, s.freq_ghz(level), ways) + 1e-12);
        prop_assert!(t <= be.normalized_throughput(cores, s.freq_ghz(level + 1), ways) + 1e-12);
        prop_assert!(t <= be.normalized_throughput(cores, s.freq_ghz(level), ways + 1) + 1e-12);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&t));
    }

    #[test]
    fn power_monotone_in_every_knob(
        cores in 1u32..20,
        f in 1.2f64..2.2,
        act in 0.1f64..1.2,
        util in 0.0f64..1.0,
    ) {
        let m = PowerModel::default();
        let base = m.partition_power_w(&PartitionLoad { cores, freq_ghz: f, activity: act, utilization: util });
        let more_cores = m.partition_power_w(&PartitionLoad { cores: cores + 1, freq_ghz: f, activity: act, utilization: util });
        let more_freq = m.partition_power_w(&PartitionLoad { cores, freq_ghz: f + 0.05, activity: act, utilization: util });
        let more_util = m.partition_power_w(&PartitionLoad { cores, freq_ghz: f, activity: act, utilization: (util + 0.05).min(1.0) });
        prop_assert!(more_cores >= base);
        prop_assert!(more_freq >= base);
        prop_assert!(more_util >= base - 1e-12);
        prop_assert!(base >= 0.0);
    }

    #[test]
    fn least_satisfying_matches_linear_scan(
        lo in 0u32..60,
        span in 0u32..40,
        threshold in 0u32..110,
    ) {
        // span == 0 covers lo == hi; thresholds beyond hi cover the
        // all-false predicate, threshold <= lo the all-true one.
        let hi = lo + span;
        let pred = |x: u32| x >= threshold;
        let expect = (lo..=hi).find(|&x| pred(x));
        prop_assert_eq!(sturgeon::search::least_satisfying(lo, hi, pred), expect);
    }

    #[test]
    fn greatest_satisfying_matches_linear_scan(
        lo in 0u32..60,
        span in 0u32..40,
        threshold in 0u32..110,
    ) {
        let hi = lo + span;
        let pred = |x: u32| x <= threshold;
        let expect = (lo..=hi).rev().find(|&x| pred(x));
        prop_assert_eq!(sturgeon::search::greatest_satisfying(lo, hi, pred), expect);
    }

    #[test]
    fn inverted_search_bounds_always_yield_none(
        lo in 1u32..100,
        drop in 1u32..50,
        threshold in 0u32..100,
    ) {
        // lo > hi is an empty range (lo ≥ 1 and drop ≥ 1 guarantee
        // hi < lo): both searches must return None without panicking.
        let hi = lo.saturating_sub(drop);
        prop_assert_eq!(sturgeon::search::least_satisfying(lo, hi, |x| x >= threshold), None);
        prop_assert_eq!(sturgeon::search::greatest_satisfying(lo, hi, |x| x <= threshold), None);
    }

    #[test]
    fn load_profiles_always_in_unit_range(
        t in 0.0f64..100_000.0,
        low in 0.0f64..1.0,
        high in 0.0f64..1.0,
        period in 1.0f64..5_000.0,
    ) {
        for p in [
            LoadProfile::Constant { fraction: high },
            LoadProfile::Ramp { from: low, to: high, duration_s: period },
            LoadProfile::Triangle { low, high, period_s: period },
            LoadProfile::Diurnal { low, high, day_s: period },
            LoadProfile::Step { before: low, after: high, at_s: period / 2.0 },
        ] {
            let f = p.fraction_at(t);
            prop_assert!((0.0..=1.0).contains(&f), "{p:?} at {t}: {f}");
        }
    }
}

/// Shared trained predictor for the expensive proptests below (training
/// once keeps the property suite fast).
fn shared_predictor() -> &'static (PerfPowerPredictor, ExperimentSetup) {
    static CELL: OnceLock<(PerfPowerPredictor, ExperimentSetup)> = OnceLock::new();
    CELL.get_or_init(|| {
        let setup = ExperimentSetup::new(
            ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
            2024,
        );
        // Full-size profiling: the power-safety property depends on the
        // production model quality, so test with the production recipe.
        let predictor = setup.train_default_predictor();
        (predictor, setup)
    })
}

/// The search property at load `frac` of peak: a returned configuration
/// validates, its predicted power at the drift-headroom load stays within
/// budget, and ground-truth power agrees within a small tolerance.
fn check_search_output(frac: f64) -> Result<(), TestCaseError> {
    let (predictor, setup) = shared_predictor();
    let qps = frac * setup.peak_qps();
    let search = ConfigSearch::new(
        predictor,
        setup.spec().clone(),
        setup.budget_w(),
        SearchParams::default(),
    );
    let out = search.best_config(qps);
    if let Some(cfg) = out.best {
        prop_assert!(cfg.validate(setup.spec()).is_ok());
        // The search's contract: predicted power at the drift-headroom
        // load stays within budget (KNN power is not monotone in QPS,
        // so the raw-load prediction can wiggle slightly above).
        let guard = qps * (1.0 + SearchParams::default().power_load_headroom);
        prop_assert!(predictor.total_power_w(&cfg, setup.spec(), guard) <= setup.budget_w() + 1e-9);
        // And ground truth agrees within a small tolerance.
        let truth = setup.env().total_power(&cfg, qps);
        prop_assert!(
            truth <= 1.03 * setup.budget_w(),
            "truth {} vs budget {}",
            truth,
            setup.budget_w()
        );
        prop_assert!(out.predicted_throughput >= 0.0);
    }
    Ok(())
}

/// Loads at which the search property once failed; replayed on every run.
#[test]
fn search_output_holds_at_recorded_failure_loads() {
    for frac in [0.7948138675650949, 0.37237554585257643] {
        if let Err(e) = check_search_output(frac) {
            panic!("frac = {frac}: {e}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn search_output_always_valid_and_within_predicted_budget(frac in 0.1f64..0.8) {
        check_search_output(frac)?;
    }

    #[test]
    fn balancer_output_always_valid(
        cfg in valid_config(),
        p95 in 0.5f64..40.0,
        frac in 0.1f64..0.7,
    ) {
        let (predictor, setup) = shared_predictor();
        let mut balancer = ResourceBalancer::new(BalancerParams::default());
        let obs = Observation {
            t_s: 1.0,
            qps: frac * setup.peak_qps(),
            p95_ms: p95,
            in_target_fraction: 0.9,
            ls_utilization: 0.8,
            power_w: setup.budget_w() - 10.0,
            be_throughput_norm: 0.5,
            be_ipc: 0.5,
            interference: 1.0,
        };
        if let Some(next) = balancer.adjust(
            predictor,
            setup.spec(),
            setup.budget_w(),
            &obs,
            setup.qos_target_ms(),
            cfg,
        ) {
            prop_assert!(next.validate(setup.spec()).is_ok(), "invalid {next}");
            // Partitions stay whole: total cores/ways conserved.
            prop_assert_eq!(next.ls.cores + next.be.cores, 20);
            prop_assert_eq!(next.ls.llc_ways + next.be.llc_ways, 20);
        }
    }

    #[test]
    fn balancer_invariants_hold_under_actuation_failures(
        cfg in valid_config(),
        p95s in prop::collection::vec(0.5f64..40.0, 4..16),
        installed_ok in prop::collection::vec(any::<bool>(), 4..16),
        reset_at in 0usize..16,
    ) {
        // An actuation failure means the balancer's proposal never lands:
        // the next round replays the *old* configuration. Conservation,
        // topology bounds and counter monotonicity must survive that.
        let (predictor, setup) = shared_predictor();
        let mut balancer = ResourceBalancer::new(BalancerParams::default());
        let mut current = cfg;
        let mut last_harvests = 0;
        let mut last_reverts = 0;
        for (i, p95) in p95s.iter().enumerate() {
            if i == reset_at {
                balancer.reset();
                // reset() clears epoch state, never the lifetime counters.
                prop_assert_eq!(balancer.harvest_count(), last_harvests);
                prop_assert_eq!(balancer.revert_count(), last_reverts);
            }
            let obs = Observation {
                t_s: i as f64 + 1.0,
                qps: 0.4 * setup.peak_qps(),
                p95_ms: *p95,
                in_target_fraction: 0.9,
                ls_utilization: 0.8,
                power_w: setup.budget_w() - 10.0,
                be_throughput_norm: 0.5,
                be_ipc: 0.5,
                interference: 1.0,
            };
            if let Some(next) = balancer.adjust(
                predictor,
                setup.spec(),
                setup.budget_w(),
                &obs,
                setup.qos_target_ms(),
                current,
            ) {
                prop_assert!(next.validate(setup.spec()).is_ok(), "invalid {next}");
                prop_assert_eq!(next.ls.cores + next.be.cores, 20);
                prop_assert_eq!(next.ls.llc_ways + next.be.llc_ways, 20);
                // Install only when the (injected) actuator cooperates.
                if installed_ok.get(i).copied().unwrap_or(true) {
                    current = next;
                }
            }
            // Lifetime counters are monotone regardless of install success.
            prop_assert!(balancer.harvest_count() >= last_harvests);
            prop_assert!(balancer.revert_count() >= last_reverts);
            last_harvests = balancer.harvest_count();
            last_reverts = balancer.revert_count();
        }
    }
}

/// Strategy for one interval's actuation fault.
fn actuation_fault() -> impl Strategy<Value = ActuationFault> {
    prop_oneof![
        Just(ActuationFault::None),
        Just(ActuationFault::Stuck),
        Just(ActuationFault::Transient),
        Just(ActuationFault::Partial),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn faulty_actuators_never_install_invalid_configs(
        steps in prop::collection::vec((actuation_fault(), valid_config(), any::<bool>()), 1..24),
    ) {
        // Whatever the fault sequence does — wedge, drop, or tear applies
        // in half — the *installed* configuration must stay a valid whole
        // partition of the node at every step.
        let s = spec();
        let mut a = FaultyActuators::new(sturgeon_simnode::SimActuators::new(s.clone()));
        for (fault, cfg, retry) in steps {
            a.begin_interval(fault);
            let first = a.apply(cfg);
            if first.is_err() && retry {
                let _ = a.apply(cfg);
            }
            let installed = a.config();
            prop_assert!(installed.validate(&s).is_ok(), "invalid install {installed}");
            prop_assert_eq!(installed.ls.cores + installed.be.cores, s.total_cores);
            prop_assert_eq!(installed.ls.llc_ways + installed.be.llc_ways, s.total_llc_ways);
        }
    }

    #[test]
    fn fault_injector_is_deterministic_per_seed(seed in any::<u64>(), n in 1usize..200) {
        let plan = FaultPlan::everything(seed);
        let mut a = plan.injector();
        let mut b = plan.injector();
        for i in 0..n {
            prop_assert_eq!(a.next_interval(), b.next_interval(), "interval {}", i);
        }
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(a.stats().total(), b.stats().total());
    }

    #[test]
    fn zero_rate_plans_never_fire(seed in any::<u64>(), n in 1usize..200) {
        let plan = FaultPlan::none(seed);
        prop_assert!(plan.is_zero());
        let mut inj = plan.injector();
        for _ in 0..n {
            prop_assert!(inj.next_interval().is_none());
        }
        prop_assert_eq!(inj.stats().total(), 0);
    }
}
