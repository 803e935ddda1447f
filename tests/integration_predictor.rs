//! Integration tests for the offline phase: profiling, model training,
//! model-family evaluation (Figs. 6/7 shapes) and the configuration
//! search built on top of the trained predictor.

use sturgeon::predictor::evaluation::{lasso_select_features, score_families};
use sturgeon::prelude::*;
use sturgeon::profiler::ProfilerConfig;

fn profiler() -> ProfilerConfig {
    ProfilerConfig {
        ls_samples_per_load: 100,
        ls_load_fractions: (1..=16).map(|i| i as f64 / 20.0).collect(),
        be_samples: 600,
        seed: 99,
    }
}

#[test]
fn family_ranking_matches_paper_picks() {
    // §V-C: DT classification suits the LS QoS model; KNN regression
    // suits the power models. Check the ranking on two different pairs.
    for (ls, be) in [
        (LsServiceId::Memcached, BeAppId::Raytrace),
        (LsServiceId::Xapian, BeAppId::Ferret),
    ] {
        let setup = ExperimentSetup::new(ColocationPair::new(ls, be), 3);
        let datasets = setup.profile(profiler()).expect("profiling succeeds");
        let scores = score_families(&datasets, 5).expect("scoring succeeds");

        let dt = scores
            .iter()
            .find(|s| s.kind == ModelKind::DecisionTree)
            .expect("DT present");
        assert!(
            dt.ls_qos_accuracy > 0.92,
            "{}: DT accuracy {}",
            ls.name(),
            dt.ls_qos_accuracy
        );

        let knn = scores
            .iter()
            .find(|s| s.kind == ModelKind::Knn)
            .expect("KNN present");
        assert!(
            knn.ls_power_r2 > 0.95,
            "KNN LS power R² {}",
            knn.ls_power_r2
        );
        assert!(
            knn.be_power_r2 > 0.95,
            "KNN BE power R² {}",
            knn.be_power_r2
        );
        assert!(knn.be_perf_r2 > 0.9, "KNN BE perf R² {}", knn.be_perf_r2);

        // Linear regression cannot capture the f³ power law or Amdahl
        // saturation as well as the instance-based families.
        let lr = scores
            .iter()
            .find(|s| s.kind == ModelKind::Lr)
            .expect("LR present");
        assert!(
            knn.be_perf_r2 > lr.be_perf_r2,
            "KNN ({}) should beat LR ({}) on BE perf",
            knn.be_perf_r2,
            lr.be_perf_r2
        );
    }
}

#[test]
fn lasso_selects_resource_features_for_power() {
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Fluidanimate),
        3,
    );
    let datasets = setup.profile(profiler()).expect("profiling succeeds");
    let kept = lasso_select_features(&datasets.be_power, 0.01).expect("lasso fits");
    assert!(kept.contains(&1), "cores must survive: {kept:?}");
    assert!(kept.contains(&2), "frequency must survive: {kept:?}");
}

#[test]
fn search_results_feasible_across_pairs_and_loads() {
    for (ls, be) in [
        (LsServiceId::Memcached, BeAppId::Blackscholes),
        (LsServiceId::Xapian, BeAppId::Facesim),
        (LsServiceId::ImgDnn, BeAppId::Swaptions),
    ] {
        let setup = ExperimentSetup::new(ColocationPair::new(ls, be), 7);
        let predictor = setup
            .train_predictor(profiler(), PredictorConfig::default())
            .expect("training succeeds");
        let search = ConfigSearch::new(
            &predictor,
            setup.spec().clone(),
            setup.budget_w(),
            SearchParams::default(),
        );
        for frac in [0.2, 0.4, 0.6] {
            let qps = frac * setup.peak_qps();
            let out = search.best_config(qps);
            let cfg = out
                .best
                .unwrap_or_else(|| panic!("{}: no config at {:.0}% load", ls.name(), frac * 100.0));
            assert!(cfg.validate(setup.spec()).is_ok());
            // The ground truth must agree the predicted config is safe on
            // power (the QoS side is allowed small model error; the
            // balancer owns that residual online).
            let truth_power = setup.env().total_power(&cfg, qps);
            assert!(
                truth_power <= 1.02 * setup.budget_w(),
                "{} at {:.0}%: {cfg} draws {truth_power:.1} W vs budget {:.1} W",
                ls.name(),
                frac * 100.0,
                setup.budget_w()
            );
        }
    }
}

#[test]
fn search_quality_close_to_exhaustive_oracle() {
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Raytrace),
        9,
    );
    let predictor = setup
        .train_predictor(profiler(), PredictorConfig::default())
        .expect("training succeeds");
    let search = ConfigSearch::new(
        &predictor,
        setup.spec().clone(),
        setup.budget_w(),
        SearchParams::default(),
    );
    let qps = 0.3 * setup.peak_qps();
    let fast = search.best_config(qps);
    let oracle = search.exhaustive(qps);
    assert!(
        fast.predicted_throughput >= 0.85 * oracle.predicted_throughput,
        "fast {} vs oracle {}",
        fast.predicted_throughput,
        oracle.predicted_throughput
    );
    assert!(
        oracle.stats.model_calls > 10 * fast.stats.model_calls,
        "oracle {} vs fast {} model calls",
        oracle.stats.model_calls,
        fast.stats.model_calls
    );
}

#[test]
fn cache_preserves_search_results_exactly() {
    // The memo cache must be a pure performance optimization: with the
    // default bit-exact keys, both the fast path and the exhaustive
    // oracle return identical configurations whether the cache is on
    // or off, and the query accounting (model_calls) is unchanged.
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Memcached, BeAppId::Blackscholes),
        17,
    );
    let predictor = setup
        .train_predictor(profiler(), PredictorConfig::default())
        .expect("training succeeds");
    let search = ConfigSearch::new(
        &predictor,
        setup.spec().clone(),
        setup.budget_w(),
        SearchParams::default(),
    );
    // The oracle fans its C1 slices out across the pool: one worker runs
    // them all on the caller, two and three split them differently, and
    // every split must reduce to the serial sweep's answer.
    let loads = (1..=3).flat_map(|workers| [0.2, 0.45, 0.7].map(|frac| (workers, frac)));
    for (workers, frac) in loads {
        let qps = frac * setup.peak_qps();
        let exhaustive = || rayon::with_num_threads(workers, || search.exhaustive(qps));

        predictor.set_caching(true);
        let fast_cached = search.best_config(qps);
        let full_cached = exhaustive();
        assert!(
            fast_cached.stats.cache_hits + fast_cached.stats.cache_misses > 0,
            "cache enabled but never consulted at {:.0}% load",
            frac * 100.0
        );

        predictor.set_caching(false);
        let fast_raw = search.best_config(qps);
        let full_raw = exhaustive();
        assert_eq!(
            fast_raw.stats.cache_hits + fast_raw.stats.cache_misses,
            0,
            "cache disabled but still consulted"
        );

        assert_eq!(
            fast_cached.best,
            fast_raw.best,
            "fast path diverged with cache at {:.0}% load",
            frac * 100.0
        );
        assert_eq!(
            full_cached.best,
            full_raw.best,
            "exhaustive oracle diverged with cache at {:.0}% load",
            frac * 100.0
        );
        assert!((fast_cached.predicted_throughput - fast_raw.predicted_throughput).abs() < 1e-12);
        assert!((full_cached.predicted_throughput - full_raw.predicted_throughput).abs() < 1e-12);
        // `model_calls` counts queries, not executions: identical either way.
        assert_eq!(fast_cached.stats.model_calls, fast_raw.stats.model_calls);
        assert_eq!(full_cached.stats.model_calls, full_raw.stats.model_calls);
        assert_eq!(full_cached.stats.candidates, full_raw.stats.candidates);
        let serial = search.exhaustive_serial(qps);
        assert_eq!(full_raw.best, serial.best, "worker count {workers}");
        assert_eq!(
            full_raw.predicted_throughput.to_bits(),
            serial.predicted_throughput.to_bits(),
            "worker count {workers}"
        );
        assert_eq!(full_raw.stats.model_calls, serial.stats.model_calls);
        assert_eq!(full_raw.stats.candidates, serial.stats.candidates);
    }
    predictor.set_caching(true);
}

#[test]
fn predictor_conservative_beyond_profiled_domain() {
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::Xapian, BeAppId::Raytrace),
        11,
    );
    let predictor = setup
        .train_predictor(profiler(), PredictorConfig::default())
        .expect("training succeeds");
    // Way beyond anything profiled: must refuse rather than extrapolate.
    assert!(!predictor.ls_feasible(19, 2.2, 19, 10.0 * setup.peak_qps()));
}

#[test]
fn power_predictions_track_ground_truth() {
    let setup = ExperimentSetup::new(
        ColocationPair::new(LsServiceId::ImgDnn, BeAppId::Fluidanimate),
        13,
    );
    let predictor = setup
        .train_predictor(profiler(), PredictorConfig::default())
        .expect("training succeeds");
    let spec = setup.spec().clone();
    let mut worst: f64 = 0.0;
    for cores in [4u32, 8, 12, 16] {
        for level in [0usize, 4, 9] {
            let f = spec.freq_ghz(level);
            let truth = setup.env().be_partition_power(cores, f);
            // Strip the conservative margin before comparing to truth.
            let margin = 1.0 + predictor.config().power_margin;
            let pred = predictor.be_power_w(cores, f, 10) / margin;
            worst = worst.max(((pred - truth) / truth).abs());
        }
    }
    assert!(worst < 0.12, "worst relative power error {worst}");
}
